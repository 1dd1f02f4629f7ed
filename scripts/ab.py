"""Compare two checkouts of nctorus: benchmark runs, product timings or CLI reports.

    python3 scripts/ab.py bench PARENT CHANGE --workload W [--seed N] [--pairs K] [--seconds S]
    python3 scripts/ab.py mul PARENT CHANGE [--pairs K] [--reps R]
    python3 scripts/ab.py reports PARENT CHANGE [--command ARGS]...

Each child is one Python process with cwd=<root> and PYTHONPATH=<root>/src,
run one at a time; one that outlives its timeout is a failed run (exit 1).
`bench` runs `perfbench/run.py` and `mul` times `algebra.mul` on fixed
operands, in K pairs: the parent first in odd-numbered pairs and the change
first in even-numbered ones.  For each metric (each end-to-end metric of the
parent's BENCHMARK.json; each operand pair's median of R reps) they print
each side's median and quartiles, the pairs the change wins and whether its
gain exceeds the parent's interquartile range, then whether every run gave
the same sha256; exit code 1 when a run fails, is not correct or the digests
differ.  `reports` prints `same` for each CLI command, or both exit codes and
every JSON leaf (or line) of stdout that differs; exit code 1 when one differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shlex
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Seconds allowed for one child (beyond --seconds for a bench run): the setup
# probes and the last pass of a benchmark, one box-32 instanton build plus the
# mul timings, or one `verify --suite all`.
TIMEOUT_S = 600
BOXES = (4, 8, 16, 24, 32)
DEFAULT_COMMANDS = [
    "instanton",
    "--theta 0.3 --lambda-re 0.4 --lambda-im -0.2 instanton",
    "--theta 0.5 instanton",
    "--theta 0.05 instanton",
    "--trunc 3 instanton",
    "--trunc 40 instanton",
    "--trunc 16 sweep --param theta --values 0.05,0.15,0.2,0.3,0.5,0.618",
    "--trunc 8 sweep --param theta --values 0.2,1.7",
    "--trunc 8 sweep --param theta --values 0.35,0.45,0.75,0.95",
    "--trunc 12 --format csv sweep --param lambda --values=-1,0,1",
    "--theta 0.5 verify --suite all",
    "--theta 0.05 verify --suite models",
    "--theta 0.5 verify --suite algebra",
    "models --model chiral --mn 1,2",
    "models --model endo --matrix 2,1,1,1",
    "models --model su2 --matrix 1,1,1,1",
    "--theta 0.6180339887498949 models --model endo --matrix 2,1,1,1",
    "models --model chiral",
]
_ABSENT = "<absent>"
_SHA = re.compile(r"^output sha256 over \d+ inputs: ([0-9a-f]+)", re.MULTILINE)


def run_in(root: Path, argv: list[str], timeout: float) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `python ARGV` with cwd=root, PYTHONPATH=root/src;
    a child still running after `timeout` seconds is killed, and is exit code 1."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        done = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"ab: in {root}: python {shlex.join(argv)} timed out after {timeout:g} s",
              file=sys.stderr, flush=True)
        return 1, "", ""
    return done.returncode, done.stdout, done.stderr


def alternate(roots: tuple[Path, Path], pairs: int, once, show) -> tuple[list, list]:
    """(parent results, change results) of `pairs` pairs of once(root); pair k
    (from 1) runs the parent first when k is odd and the change first when k
    is even.  Prints one line per pair, with show(result) of each side."""
    out: tuple[list, list] = ([], [])
    for k in range(1, pairs + 1):
        for side in ((0, 1) if k % 2 else (1, 0)):
            out[side].append(once(roots[side]))
        print(f"pair {k} ({'parent' if k % 2 else 'change'} first): "
              f"parent {show(out[0][-1])}, change {show(out[1][-1])}", flush=True)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; all three equal for one value."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


@dataclass
class Comparison:
    """One metric over K pairs: each side's (q1, median, q3), the pairs the
    change wins, and how much better its median is (negative when worse)."""

    name: str
    better: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    gain: float

    @property
    def beyond_iqr(self) -> bool:
        """Whether the medians differ, either way, by more than the parent's IQR."""
        return abs(self.gain) > self.parent[2] - self.parent[0]

    def lines(self, unit: str) -> list[str]:
        out = [f"{self.name} ({unit}, {self.better} is better)"]
        for side, (q1, med, q3) in (("parent", self.parent), ("change", self.change)):
            out.append(f"  {side}  median {med:.6g}  [{q1:.6g}, {q3:.6g}]")
        word = "better" if self.gain > 0 else "worse" if self.gain < 0 else "equal"
        out.append(f"  change better in {self.wins} of {self.pairs} pairs; median {word} by "
                   f"{abs(self.gain):.6g}, parent IQR {self.parent[2] - self.parent[0]:.6g}: "
                   f"{'beyond' if self.beyond_iqr else 'within'} the parent's IQR")
        return out


def compare(name: str, better: str, parent: list[float], change: list[float]) -> Comparison:
    """One metric over K alternated pairs: parent[k] and change[k] are pair k's samples."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q_parent, q_change = quartiles(parent), quartiles(change)
    return Comparison(name, better, q_parent, q_change, wins, len(parent),
                      sign * (q_change[1] - q_parent[1]))


def digest_line(label: str, parent: list[str], change: list[str]) -> tuple[str, bool]:
    """A line saying whether every run gave the same digest ("" for none), and whether it did."""
    seen = set(parent) | set(change)
    if len(seen) == 1 and "" not in seen:
        return f"{label}: the same on every run ({seen.pop()})", True
    return (f"{label}: differs: parent {sorted(set(parent))}, "
            f"change {sorted(set(change))}"), False


@dataclass
class Run:
    """What one child reported: exit code, verdict, failed and attempted
    inputs, digests by label, and metrics by name (None when it printed no
    result)."""

    returncode: int
    correct: bool = False
    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, float] | None = None


def parse_run(returncode: int, stdout: str, stderr: str = "") -> Run:
    """A Run from a child's exit code and stdout, whose last line is a
    perfbench-style JSON result (perfbench prints its output sha256 on an
    earlier line; `time_products` puts its digests in the result).  The
    child's stderr is passed on when it failed."""
    sys.stderr.write(stderr if returncode else "")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return Run(returncode if returncode else 1)
    sha = _SHA.search(stdout)
    return Run(returncode, bool(result["correct"]), int(result["attempted"]),
               int(result["failed"]), {"output": sha.group(1)} if sha else result["digests"],
               {name: entry["value"] for name, entry in result["metrics"].items()})


def summary(metrics: list[dict], parent: list[Run], change: list[Run]) -> tuple[list[str], bool]:
    """The printed comparison, and whether every run exited 0, was correct and
    gave the same digests as every other run."""
    runs = parent + change
    lines, ok = [], all(r.returncode == 0 and r.correct for r in runs)
    if all(r.metrics is not None for r in runs):
        for m in metrics:
            lines += compare(m["name"], m["better"], [r.metrics[m["name"]] for r in parent],
                             [r.metrics[m["name"]] for r in change]).lines(m["unit"])
    else:
        lines.append("metrics not compared: a run printed no result")
    for side, rs in (("parent", parent), ("change", change)):
        lines.append(f"{side}: correct in {sum(r.correct for r in rs)} of {len(rs)} runs, "
                     f"failed/attempted {sum(r.failed for r in rs)}/"
                     f"{sum(r.attempted for r in rs)}, non-zero exits "
                     f"{sum(1 for r in rs if r.returncode)}")
    for label in dict.fromkeys(key for r in runs for key in r.digests):
        line, same = digest_line(f"{label} sha256", [r.digests.get(label, "") for r in parent],
                                 [r.digests.get(label, "") for r in change])
        lines.append(line)
        ok = ok and same
    return lines, ok


def bench(args, roots: tuple[Path, Path]) -> int:
    def once(root: Path) -> Run:
        return parse_run(*run_in(root, [str(root / "perfbench" / "run.py"), "--workload",
                                        args.workload, "--seed", str(args.seed), "--seconds",
                                        str(args.seconds), "--trace", "0"],
                                 args.seconds + TIMEOUT_S))

    runs = alternate(roots, args.pairs, once, lambda run: "latency_s "
                     f"{run.metrics['latency_s'] if run.metrics else math.nan:.4f}")
    lines, ok = summary(json.loads((roots[0] / "BENCHMARK.json").read_text())["end_to_end"],
                        *runs)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} pairs={args.pairs}")
    print("\n".join(lines))
    return 0 if ok else 1


def time_products(reps: int) -> None:
    """Time `mul` R times by `time.thread_time` on each operand pair and print
    one JSON result: the median of the reps in microseconds, and the sha256 of
    the product's offset, shape and box bytes.  The operands: the box-32
    instanton at theta = 0.2 truncated to each of BOXES, times itself; and the
    order-15 term of the series of exp(i h), h = random_selfadjoint(0.2, 1, 0),
    by i h in both orders."""
    from nctorus.algebra import DEFAULT_TOL, mul, one, random_selfadjoint, scale, truncate
    from nctorus.heisenberg import build_instanton

    p = build_instanton(0.2, 0.0, DEFAULT_TOL, box=32).projection
    operands = []
    for box in BOXES:
        q = truncate(p, box)
        operands.append((f"box {box} p p", q, q))
    ih = scale(1j, random_selfadjoint(0.2, 1, 0))
    term = one(0.2)
    for k in range(1, 16):
        term = scale(1.0 / k, mul(term, ih))
    operands += [("exp_i 31x31 by 3x3", term, ih), ("exp_i 3x3 by 31x31", ih, term)]
    metrics, digests = {}, {}
    for name, a, b in operands:
        times = []
        for _ in range(reps):
            start = time.thread_time()
            product = mul(a, b)
            times.append(time.thread_time() - start)
        head = (f"{product.offset[0]},{product.offset[1]},"
                f"{product.box.shape[0]},{product.box.shape[1]};").encode()
        digests[name] = hashlib.sha256(head + product.box.tobytes()).hexdigest()[:16]
        metrics[name] = {"unit": "us", "value": statistics.median(times) * 1e6}
    print(json.dumps({"attempted": len(operands), "correct": True, "failed": 0,
                      "digests": digests, "metrics": metrics}))


def mul(args, roots: tuple[Path, Path]) -> int:
    child = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
             f"import ab; ab.time_products({args.reps})")
    parent, change = alternate(
        roots, args.pairs, lambda root: parse_run(*run_in(root, ["-c", child], TIMEOUT_S)),
        lambda run: f"box 32 p p {run.metrics['box 32 p p'] if run.metrics else math.nan:.1f} us")
    names = parent[0].metrics or {}
    lines, ok = summary([{"name": n, "unit": "us", "better": "lower"} for n in names],
                        parent, change)
    print(f"pairs={args.pairs} reps={args.reps}")
    print("\n".join(lines))
    return 0 if ok else 1


def leaves(value, path: str = "") -> dict[str, object]:
    """Every scalar of a JSON value, keyed by its path."""
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else str(key), v) for key, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return {path: value}
    out = {}
    for key, v in items:
        out.update(leaves(v, key))
    return out


def parse(text: str) -> dict[str, object]:
    try:
        return leaves(json.loads(text))
    except json.JSONDecodeError:
        return {f"line {i + 1}": line for i, line in enumerate(text.splitlines())}


def differences(parent: tuple[int, str], change: tuple[int, str]) -> list[str]:
    """Lines describing how change's (exit code, stdout) differs from parent's;
    empty when the same."""
    if parent == change:
        return []
    out = [f"exit: {parent[0]} -> {change[0]}"]
    before, after = parse(parent[1]), parse(change[1])
    for key in list(before) + [k for k in after if k not in before]:
        old, new = before.get(key, _ABSENT), after.get(key, _ABSENT)
        if repr(old) != repr(new):  # exact for floats, and NaN equals NaN
            out.append(f"{key}: {old!r} -> {new!r}")
    if len(out) == 1 and parent[1] != change[1]:
        out.append("stdout: same values, different bytes")
    return out


def reports(args, roots: tuple[Path, Path]) -> int:
    all_same = True
    for command in args.commands or DEFAULT_COMMANDS:
        argv = ["-m", "nctorus.cli", *shlex.split(command)]
        diff = differences(*(run_in(root, argv, TIMEOUT_S)[:2] for root in roots))
        print(f"$ nctorus {command}")
        print("  same" if not diff else "\n".join(f"  {line}" for line in diff), flush=True)
        all_same = all_same and not diff
    return 0 if all_same else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    tools = parser.add_subparsers(dest="tool", required=True)
    sub = {}
    for tool, helptext in ((bench, "alternated perfbench runs of one workload"),
                           (mul, "alternated timings of algebra.mul"),
                           (reports, "the CLI reports, command by command")):
        sub[tool] = tools.add_parser(tool.__name__, help=helptext)
        sub[tool].add_argument("parent", type=Path, help="root of the parent checkout")
        sub[tool].add_argument("change", type=Path, help="root of the changed checkout")
        sub[tool].set_defaults(run=tool)
    sub[bench].add_argument("--workload", required=True)
    sub[bench].add_argument("--seed", type=int, default=1)
    sub[bench].add_argument("--seconds", type=float, default=20.0)
    for tool in (bench, mul):
        sub[tool].add_argument("--pairs", type=int, default=10 if tool is bench else 5)
    sub[mul].add_argument("--reps", type=int, default=21)
    sub[reports].add_argument("--command", action="append", dest="commands",
                              help="CLI arguments of one command; repeat for more")
    args = parser.parse_args(argv)
    if min(vars(args).get(n, 1) for n in ("pairs", "reps", "seconds")) <= 0:
        parser.error("--pairs, --reps and --seconds must be positive")
    return args.run(args, (args.parent.resolve(), args.change.resolve()))


if __name__ == "__main__":
    sys.exit(main())
