"""Tests of the benchmark's own arithmetic: span self times, per-layer
aggregation, failure counting and input generation.

    python3 -m pytest -q perfbench
"""

import math
from pathlib import Path

import pytest

import run

run.use_source(run.locate_source())

import tracing  # noqa: E402
import workloads  # noqa: E402
from nctorus import algebra as al  # noqa: E402
from nctorus import models as md  # noqa: E402


def span(name, start, end, parent=-1, **attrs):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("result", 0.0, 10.0),
        span("models.chern_number", 1.0, 4.0, 0),
        span("algebra.mul_large", 2.0, 3.0, 1, pairs=600),
        span("algebra.exp_i", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_per_layer_counts_ancestry_and_shares():
    spans = [
        span("result", 0.0, 9.6),
        span("algebra.exp_i", 0.0, 6.0, 0, out_terms=5),
        span("algebra.mul_large", 1.0, 3.0, 1, pairs=1000, out_terms=40),
        span("algebra.mul_small", 3.0, 4.0, 1, pairs=9, out_terms=9),
        span("models.chern_number", 6.0, 9.0, 0),
        span("algebra.mul_large", 6.0, 8.0, 4, pairs=2000, out_terms=60),
        span("heisenberg.invert", 9.0, 9.5, 0, iterations=4, seed="l1"),
        span("heisenberg.invert", 9.5, 9.6, 0),  # raised: no iteration count
    ]
    m = tracing.per_layer(spans, results=2)
    assert m["algebra.mul_large.calls"] == (1.0, "count")
    assert m["algebra.mul_large.pairs"][0] == 1500.0
    assert m["algebra.exp_i.orders"][0] == 1.0  # two mul spans under exp_i, per result
    assert m["models.mul_calls"][0] == 0.5
    assert m["heisenberg.invert.iterations"][0] == 4.0  # per call, not per result
    assert m["heisenberg.invert.l1_seed"][0] == 0.5
    assert m["algebra.mul_large.self_pct"][0] == pytest.approx(400 / 9.6)
    assert m["algebra.exp_i.self_pct"][0] == pytest.approx(300 / 9.6)
    assert m["heisenberg.invert.calls"][0] == 1.0
    assert m["bench.self_pct"][0] == pytest.approx(0.0, abs=1e-9)
    total = sum(v for k, (v, _) in m.items() if k.endswith(".self_pct"))
    assert total == pytest.approx(100.0)


def test_traced_binds_wrappers_everywhere_and_restores():
    original = al.mul
    x = al.random_selfadjoint(workloads.THETA, 1, 5)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert md.mul is not original and md.mul.__wrapped__ is original
        with tracer.span(tracing.ROOT):
            md.chiral_energy(x)
    assert al.mul is original and md.mul is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[:2] == ["result", "models.chiral_energy"]
    muls = [i for i, s in enumerate(tracer.spans) if s[tracing.NAME] in tracing.MUL_NAMES]
    assert len(muls) == 2
    assert all(tracer.spans[tracer.spans[i][tracing.PARENT]][tracing.NAME]
               == "models.chiral_energy" for i in muls)


def test_small_product_is_one_span():
    tracer = tracing.Tracer()
    a = al.monomial(workloads.THETA, 1, 0)
    with tracing.traced(tracer):
        al.mul(a, a)
        al.mul_reference(a, a)
    assert [s[tracing.NAME] for s in tracer.spans] == ["algebra.mul_small"] * 2


def test_known_failing_thetas_are_counted_not_skipped():
    wl = workloads.WORKLOADS["theta_sweep"]
    items = [("low", 0.05), ("empty", 0.5), ("good", 0.2)]
    phase = run.run_passes(wl, items, passes=1)
    reasons = dict(phase.verdicts)
    assert len(phase.verdicts) == 3 and phase.failed == 2 and phase.solved == 1
    assert "positive trace" in reasons["low"]
    assert "empty projection" in reasons["empty"]
    assert reasons["good"] == ""
    assert phase.deterministic()


def test_sweep_inputs_follow_the_seed():
    first, again, other = (workloads.sweep_thetas(s) for s in (1, 1, 2))
    assert first == again and first != other
    assert len(first) == workloads.SWEEP_POINTS + 1 and workloads.GOLDEN in first
    grid = [0.05 + 0.05 * k for k in range(workloads.SWEEP_POINTS)]
    rest = sorted(set(first) - {workloads.GOLDEN})
    assert all(abs(t - g) <= 0.05 * 0.05 + 1e-12 for t, g in zip(rest, grid))


def test_flow_inputs_are_selfadjoint_and_hit_their_l1_targets():
    items = workloads.flow_inputs(3)
    targets = [t for ladder in workloads.FLOW_LADDER.values() for t in ladder
               for _ in range(workloads.FLOW_PER_RUNG)]
    assert len(items) == len(targets)
    for (_, (h, t, _)), target in zip(items, targets):
        assert al.l1_norm(al.sub(h, al.adjoint(h))) < 1e-12
        assert all(abs(abs(c) - 1.0) < 1e-12 for c in h.coeffs.values())
        assert al.l1_norm(h) * t == pytest.approx(target)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    name, value = run.tail([float(i) for i in range(40)])
    assert (name, value) == ("p75", 29.0)


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", Path("/nonexistent-checkout"))
    assert run.main(["--workload", "instanton"]) == 2
    assert capsys.readouterr().out == ""


def test_misses_flags_nonfinite_values():
    assert workloads._misses({"a": (1e-9, 1e-8)}) == ""
    assert "a=" in workloads._misses({"a": (math.nan, 1e-8)})
