"""The summary arithmetic of scripts/ab_bench.py on synthetic runs; no
benchmark process is started."""

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
METRICS = [{"name": "latency_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "solved_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("ab_bench")


def runs(ab, latencies, sha="ab12", correct=True, failed=0):
    return [ab.Run(0, correct, 14, failed, sha, {"latency_s": x, "solved_per_s": 1.0 / x})
            for x in latencies]


def test_quartiles_wins_and_the_parent_iqr(ab):
    parent = [0.30, 0.28, 0.29, 0.31, 0.27]
    change = [0.20, 0.21, 0.19, 0.22, 0.30]
    lat = ab.compare(METRICS[0], parent, change)
    assert lat.parent == pytest.approx((0.28, 0.29, 0.30))
    assert lat.change == pytest.approx((0.20, 0.21, 0.22))
    # the last pair is lost
    assert (lat.wins, lat.pairs) == (4, 5)
    assert lat.gain == pytest.approx(0.08) and lat.beyond_iqr
    rate = ab.compare(METRICS[1], [1 / x for x in parent], [1 / x for x in change])
    assert rate.wins == 4 and rate.gain > 0 and rate.beyond_iqr
    # a worse median beyond the IQR is a loss, told apart by the sign of gain
    worse = ab.compare(METRICS[0], change, parent)
    assert worse.wins == 1 and worse.gain == pytest.approx(-0.08) and worse.beyond_iqr
    # a gain inside the parent's spread is not enough
    assert not ab.compare(METRICS[0], [1.0, 2.0, 3.0], [1.9, 1.9, 1.9]).beyond_iqr
    assert ab.quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_report_lines_and_exit_flag(ab):
    lines, ok = ab.report(METRICS, runs(ab, [0.3, 0.28]), runs(ab, [0.2, 0.21]))
    assert ok
    assert lines[0] == "latency_s (s, lower is better)"
    assert lines[3].startswith("  change better in 2 of 2 pairs; median better by 0.085")
    assert lines[-3] == "parent: correct in 2 of 2 runs, failed/attempted 0/28, non-zero exits 0"
    assert lines[-1] == "output sha256: the same on every run (ab12)"
    lines, ok = ab.report(METRICS, runs(ab, [0.3]), runs(ab, [0.2], sha="cd34", correct=False))
    assert not ok
    assert lines[-2] == "change: correct in 0 of 1 runs, failed/attempted 0/14, non-zero exits 0"
    assert lines[-1] == "output sha256: differs: parent ['ab12'], change ['cd34']"
    # failed results are counted, not an error
    _, ok = ab.report(METRICS, runs(ab, [0.3], failed=3), runs(ab, [0.2], failed=3))
    assert ok


def test_a_crashed_run_fails_the_comparison(ab):
    crashed = ab.parse_run(1, "Traceback (most recent call last):\n")
    assert crashed.metrics is None and crashed.returncode == 1
    lines, ok = ab.report(METRICS, runs(ab, [0.3]), [crashed])
    assert not ok
    assert lines[:2] == ["metrics not compared: a run printed no result",
                         "parent: correct in 1 of 1 runs, failed/attempted 0/14, non-zero exits 0"]


def test_parse_run_reads_the_last_line_and_the_digest(ab):
    stdout = ("perfbench unitary_flow seed=1 seconds=2 trace=0\n"
              "output sha256 over 14 inputs: 8f3306a1 (identical on every pass)\n"
              '{"attempted": 14, "correct": true, "failed": 1, '
              '"metrics": {"latency_s": {"unit": "s", "value": 0.19}}}\n')
    run = ab.parse_run(0, stdout)
    assert run == ab.Run(0, True, 14, 1, "8f3306a1", {"latency_s": 0.19})


def test_pairs_alternate_which_side_runs_first(ab, monkeypatch, capsys):
    """Pair 1 runs the parent first, pair 2 the change first, and so on; each
    run lands on its own side.  run_once is stubbed: no process starts."""
    calls = []

    def fake_run_once(root, workload, seed, seconds):
        calls.append(root)
        return runs(ab, [len(calls) / 10.0])[0]

    monkeypatch.setattr(ab, "run_once", fake_run_once)
    parent_root, change_root = Path("parent"), Path("change")
    parent, change = ab.run_pairs((parent_root, change_root), "instanton", 1, 2.0, 5)
    assert calls == [parent_root, change_root, change_root, parent_root, parent_root,
                     change_root, change_root, parent_root, parent_root, change_root]
    assert [r.metrics["latency_s"] for r in parent] == pytest.approx([0.1, 0.4, 0.5, 0.8, 0.9])
    assert [r.metrics["latency_s"] for r in change] == pytest.approx([0.2, 0.3, 0.6, 0.7, 1.0])
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == ["pair 1 (parent first): latency_s parent 0.1000, change 0.2000",
                           "pair 2 (change first): latency_s parent 0.4000, change 0.3000"]
