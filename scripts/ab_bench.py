"""Alternated benchmark pairs of two checkouts of nctorus, on one workload.

    python3 scripts/ab_bench.py PARENT_ROOT CHANGE_ROOT --workload unitary_flow \
        --seed 1 --pairs 10 --seconds 20

Runs `<root>/perfbench/run.py --workload W --seed N --seconds S` K times in
each tree, alternately, one process at a time: the parent runs first in
odd-numbered pairs and the change first in even-numbered ones, so that
neither side always runs on the host as the other left it.  For each
end-to-end metric that the parent's BENCHMARK.json declares it prints the
median and the quartiles [q1, q3] of each side, in how many of the K pairs
the change is better (strictly, as the metric's `better` says), by how much
its median is better or worse, and whether that exceeds the parent's
interquartile range.  It also prints, for each side, in how many runs the
output was `correct`, the failed and attempted results summed over the
runs, and whether every run of both sides printed the same output sha256.  Exit code 1 when a run exits non-zero or is not correct, else 0:
failed results are counted, not an error, since some workloads fail inputs
by design.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

_SHA = re.compile(r"^output sha256 over \d+ inputs: ([0-9a-f]+)", re.MULTILINE)
# Seconds allowed for one run beyond its --seconds: setup probes, warm-up
# and the last pass.
SLACK_S = 300


@dataclass
class Run:
    """What one perfbench run reported; metrics is empty when it crashed."""

    returncode: int
    correct: bool = False
    attempted: int = 0
    failed: int = 0
    sha256: str = ""
    metrics: dict[str, float] | None = None


def parse_run(returncode: int, stdout: str) -> Run:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return Run(returncode if returncode else 1)
    sha = _SHA.search(stdout)
    return Run(returncode, bool(result["correct"]), int(result["attempted"]),
               int(result["failed"]), sha.group(1) if sha else "",
               {name: entry["value"] for name, entry in result["metrics"].items()})


def run_once(root: Path, workload: str, seed: int, seconds: float) -> Run:
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=seconds + SLACK_S)
    if done.returncode:
        sys.stderr.write(done.stderr)
    return parse_run(done.returncode, done.stdout)


def run_pairs(roots: tuple[Path, Path], workload: str, seed: int, seconds: float,
              pairs: int) -> tuple[list[Run], list[Run]]:
    """(parent runs, change runs) of `pairs` alternated pairs; pair k (from 1)
    runs the parent first when k is odd and the change first when k is even."""
    parent, change = [], []
    for k in range(1, pairs + 1):
        sides = [(roots[0], parent), (roots[1], change)]
        if k % 2 == 0:
            sides.reverse()
        for root, runs in sides:
            runs.append(run_once(root, workload, seed, seconds))
        latency = [r.metrics["latency_s"] if r.metrics else math.nan
                   for r in (parent[-1], change[-1])]
        first = "parent" if k % 2 else "change"
        print(f"pair {k} ({first} first): latency_s parent {latency[0]:.4f}, "
              f"change {latency[1]:.4f}", flush=True)
    return parent, change


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; all three equal for one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


@dataclass
class Comparison:
    name: str
    unit: str
    better: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int

    @property
    def gain(self) -> float:
        """How much better the change's median is; negative when worse."""
        diff = self.change[1] - self.parent[1]
        return -diff if self.better == "lower" else diff

    @property
    def beyond_iqr(self) -> bool:
        """Whether the medians differ, either way, by more than the parent's IQR."""
        return abs(self.gain) > self.parent[2] - self.parent[0]


def compare(metric: dict, parent: list[float], change: list[float]) -> Comparison:
    """One declared end-to-end metric over K alternated pairs of runs."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return Comparison(metric["name"], metric["unit"], metric["better"], quartiles(parent),
                      quartiles(change), wins, len(parent))


def report(metrics: list[dict], parent: list[Run], change: list[Run]) -> tuple[list[str], bool]:
    """The printed summary and whether every run exited 0 and was correct."""
    lines = []
    ok = all(r.returncode == 0 and r.correct for r in parent + change)
    complete = all(r.metrics is not None for r in parent + change)
    if complete:
        for metric in metrics:
            c = compare(metric, [r.metrics[metric["name"]] for r in parent],
                        [r.metrics[metric["name"]] for r in change])
            lines.append(f"{c.name} ({c.unit}, {c.better} is better)")
            for side, (q1, med, q3) in (("parent", c.parent), ("change", c.change)):
                lines.append(f"  {side}  median {med:.6g}  [{q1:.6g}, {q3:.6g}]")
            word = "better" if c.gain > 0 else "worse" if c.gain < 0 else "equal"
            lines.append(f"  change better in {c.wins} of {c.pairs} pairs; median {word} by "
                         f"{abs(c.gain):.6g}, parent IQR {c.parent[2] - c.parent[0]:.6g}: "
                         f"{'beyond' if c.beyond_iqr else 'within'} the parent's IQR")
    else:
        lines.append("metrics not compared: a run printed no result")
    for side, runs in (("parent", parent), ("change", change)):
        lines.append(f"{side}: correct in {sum(r.correct for r in runs)} of {len(runs)} runs, "
                     f"failed/attempted {sum(r.failed for r in runs)}/"
                     f"{sum(r.attempted for r in runs)}, non-zero exits "
                     f"{sum(1 for r in runs if r.returncode)}")
    digests = {r.sha256 for r in parent + change}
    if len(digests) == 1 and "" not in digests:
        lines.append(f"output sha256: the same on every run ({digests.pop()})")
    else:
        lines.append("output sha256: differs: parent "
                     f"{sorted({r.sha256 for r in parent})}, change "
                     f"{sorted({r.sha256 for r in change})}")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    roots = args.parent.resolve(), args.change.resolve()
    metrics = json.loads((roots[0] / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = run_pairs(roots, args.workload, args.seed, args.seconds, args.pairs)
    lines, ok = report(metrics, parent, change)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} pairs={args.pairs}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
