"""scripts/ab.py on synthetic runs, then `mul` and `reports` on this checkout twice."""

import importlib
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = [{"name": "latency_s", "unit": "s", "better": "lower"},
           {"name": "solved_per_s", "unit": "1/s", "better": "higher"}]


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("ab")


def runs(ab, latencies, sha="ab12", correct=True, failed=0):
    return [ab.Run(0, correct, 14, failed, {"output": sha},
                   {"latency_s": x, "solved_per_s": 1.0 / x}) for x in latencies]


def test_quartiles_wins_and_the_parent_iqr(ab):
    parent = [0.30, 0.28, 0.29, 0.31, 0.27]
    change = [0.20, 0.21, 0.19, 0.22, 0.30]
    lat = ab.compare("latency_s", "lower", parent, change)
    assert lat.parent == pytest.approx((0.28, 0.29, 0.30))
    assert lat.change == pytest.approx((0.20, 0.21, 0.22))
    assert (lat.wins, lat.pairs) == (4, 5)  # the last pair is lost
    assert lat.gain == pytest.approx(0.08) and lat.beyond_iqr
    rate = ab.compare("solved_per_s", "higher", [1 / x for x in parent], [1 / x for x in change])
    assert rate.wins == 4 and rate.gain > 0 and rate.beyond_iqr
    # a worse median beyond the IQR is a loss, told apart by the sign of gain
    worse = ab.compare("latency_s", "lower", change, parent)
    assert worse.wins == 1 and worse.gain == pytest.approx(-0.08) and worse.beyond_iqr
    # a gain inside the parent's spread is not enough
    assert not ab.compare("x", "lower", [1.0, 2.0, 3.0], [1.9, 1.9, 1.9]).beyond_iqr
    assert ab.quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_report_lines_and_exit_flag(ab):
    lines, ok = ab.summary(METRICS, runs(ab, [0.3, 0.28]), runs(ab, [0.2, 0.21]))
    assert ok and lines[0] == "latency_s (s, lower is better)"
    assert lines[3].startswith("  change better in 2 of 2 pairs; median better by 0.085")
    assert lines[-3] == "parent: correct in 2 of 2 runs, failed/attempted 0/28, non-zero exits 0"
    assert lines[-1] == "output sha256: the same on every run (ab12)"
    lines, ok = ab.summary(METRICS, runs(ab, [0.3]), runs(ab, [0.2], correct=False))
    assert not ok
    assert lines[-2] == "change: correct in 0 of 1 runs, failed/attempted 0/14, non-zero exits 0"
    # failed results are counted, not an error
    assert ab.summary(METRICS, runs(ab, [0.3], failed=3), runs(ab, [0.2], failed=3))[1]


def test_summary_flags_a_digest_that_differs(ab):
    lines, ok = ab.summary(METRICS, runs(ab, [0.3]), runs(ab, [0.2], sha="cd34"))
    assert not ok and lines[-1] == "output sha256: differs: parent ['ab12'], change ['cd34']"


def test_a_crashed_run_fails_the_comparison(ab):
    crashed = ab.parse_run(1, "Traceback (most recent call last):\n")
    assert crashed.metrics is None and crashed.returncode == 1
    lines, ok = ab.summary(METRICS, runs(ab, [0.3]), [crashed])
    assert not ok and lines == [
        "metrics not compared: a run printed no result",
        "parent: correct in 1 of 1 runs, failed/attempted 0/14, non-zero exits 0",
        "change: correct in 0 of 1 runs, failed/attempted 0/0, non-zero exits 1",
        "output sha256: differs: parent ['ab12'], change ['']"]


def test_parse_run_reads_the_last_line_and_the_digest(ab):
    stdout = ("perfbench unitary_flow seed=1 seconds=2 trace=0\n"
              "output sha256 over 14 inputs: 8f3306a1 (identical on every pass)\n"
              '{"attempted": 14, "correct": true, "failed": 1, '
              '"metrics": {"latency_s": {"unit": "s", "value": 0.19}}}\n')
    assert ab.parse_run(0, stdout) == ab.Run(0, True, 14, 1, {"output": "8f3306a1"},
                                             {"latency_s": 0.19})


def test_pairs_alternate_which_side_runs_first(ab, capsys):
    calls = []
    assert ab.alternate("pc", 5, lambda root: calls.append(root) or len(calls), str) == ([1, 4, 5, 8, 9], [2, 3, 6, 7, 10])
    assert calls == list("pccppccppc")
    assert capsys.readouterr().out.splitlines()[:2] == [
        "pair 1 (parent first): parent 1, change 2", "pair 2 (change first): parent 4, change 3"]


def test_a_timed_out_run_fails_and_the_measured_pairs_are_kept(ab, monkeypatch, capsys):
    """subprocess.run is stubbed: the first run prints a result, every later one times out."""
    result = ('output sha256 over 1 inputs: ab\n{"attempted": 1, "correct": true, "failed": 0, '
              '"metrics": {"latency_s": {"value": 0.19}}}')
    first = [subprocess.CompletedProcess([], 0, result, "")]

    def fake_run(argv, timeout, **kwargs):
        if not first:
            raise subprocess.TimeoutExpired(argv, timeout)
        return first.pop()

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    assert ab.main(["bench", str(ROOT), str(ROOT), "--workload", "instanton", "--pairs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[:4] == [
        "pair 1 (parent first): parent latency_s 0.1900, change latency_s nan",
        "pair 2 (change first): parent latency_s nan, change latency_s nan",
        "instanton seed=1 seconds=20 pairs=2", "metrics not compared: a run printed no result"]
    run = ROOT / "perfbench" / "run.py"
    assert err.splitlines() == [f"ab: in {ROOT}: python {run} --workload instanton --seed 1 "
                                "--seconds 20.0 --trace 0 timed out after 620 s"] * 3


def test_differences_name_each_leaf_that_differs(ab):
    parent = (0, '{"a": 1.5, "b": [NaN, 2]}')
    assert ab.differences(parent, parent) == []
    assert ab.differences(parent, (3, '{"a": 1.5000000000000002, "b": [NaN, 2], "c": 0}')) == [
        "exit: 0 -> 3", "a: 1.5 -> 1.5000000000000002", "c: '<absent>' -> 0"]
    assert ab.differences((0, "x,y\n1"), (0, "x,y\n2")) == ["exit: 0 -> 0", "line 2: '1' -> '2'"]
    assert ab.differences((0, '{"a": 1}'), (0, '{"a":1}')) == [
        "exit: 0 -> 0", "stdout: same values, different bytes"]


def test_one_pair_times_every_operand_with_equal_digests(ab, capsys):
    assert ab.main(["mul", str(ROOT), str(ROOT), "--pairs", "1", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [f"box {box} p p" for box in ab.BOXES] + ["exp_i 31x31 by 3x3", "exp_i 3x3 by 31x31"]
    assert lines[1] == "pairs=1 reps=1"
    assert lines[2:2 + 4 * len(names):4] == [f"{name} (us, lower is better)" for name in names]
    assert all(line.startswith(f"{name} sha256: the same on every run (")
               for name, line in zip(names, lines[-len(names):], strict=True))


def test_reports_finds_no_difference_between_a_tree_and_itself(ab, capsys):
    command = "models --model chiral --mn 1,2"
    assert ab.main(["reports", str(ROOT), str(ROOT), "--command", command]) == 0
    assert capsys.readouterr().out == f"$ nctorus {command}\n  same\n"
