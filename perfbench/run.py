"""Benchmark for nctorus: one workload per call, or all four with --workload all.

    python3 perfbench/run.py --workload instanton --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload is a closed loop in this single process: whole
passes over the seeded inputs run back to back until --seconds of timed work
has been done, and every result is judged off the clock.

Times are CPU seconds of the thread that runs the workload, not wall time.
On a shared 2-vCPU Xeon virtual machine the wall time of one box-32 product
p*p ranged from 94 to 163 ms within a minute, with the host stealing time,
while its CPU time stayed within 93-102 ms.  The workloads are
single-threaded; the BLAS helper threads are left out because they spin
while idle (counting them doubled the CPU time of theta_sweep), and while
they work the calling thread spins with them.  On an idle machine the thread
time equals the wall time; wall-time figures are printed alongside.

--trace 0 prints the end-to-end metrics: setup_s (median CPU time of fresh
interpreters that import nctorus and make their first calls into every
layer), solved_per_s (solved results per pass over the typical pass time),
latency_s (typical pass time over the number of inputs, i.e. the mean time
of one result), peak_rss_mb.  The typical pass time sums each input's median
time over the passes.  The median and tail of all results are printed too.
--trace 1 runs the same passes untraced and then traced, and prints the
per-layer metrics from the traced spans plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``correct`` is false when the same input gave different outputs
on two passes; results that fail their gate are counted in ``failed``.
Records and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from tracing import CLOCK, ROOT as ROOT_SPAN, Tracer, per_layer, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("instanton", "theta_sweep", "unitary_flow", "verify_all")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def locate_source() -> Path | None:
    src = ROOT / "src"
    return src if (src / "nctorus" / "__init__.py").is_file() else None


def use_source(src: Path) -> None:
    """Import nctorus from this checkout's sources, not from anywhere else."""
    sys.path.insert(0, str(src))
    import nctorus

    if Path(nctorus.__file__).resolve().parent != (src / "nctorus").resolve():
        raise ImportError(f"nctorus imported from {nctorus.__file__}, not {src}")


# ------------------------------------------------------------------ passes


@dataclass
class Phase:
    """What a run of whole passes produced."""

    latencies: list[float] = field(default_factory=list)  # CPU seconds per result
    walls: list[float] = field(default_factory=list)  # wall seconds per result
    verdicts: list[tuple[str, str]] = field(default_factory=list)  # (label, reason or "")
    digests: dict[str, set[str]] = field(default_factory=dict)
    passes: int = 0

    @property
    def timed_s(self) -> float:
        return sum(self.walls)

    def pass_s(self) -> float:
        """Typical time of one pass: the sum over inputs of each input's
        median time over the passes, robust to a stall during one result."""
        by_label: dict[str, list[float]] = {}
        for (label, _), latency in zip(self.verdicts, self.latencies):
            by_label.setdefault(label, []).append(latency)
        return sum(statistics.median(v) for v in by_label.values())

    @property
    def solved(self) -> int:
        return len(self.verdicts) - self.failed

    @property
    def failed(self) -> int:
        return sum(1 for _, reason in self.verdicts if reason)

    def deterministic(self) -> bool:
        return all(len(d) == 1 for d in self.digests.values())


def run_passes(workload, items, *, seconds: float | None = None, passes: int | None = None,
               tracer=None, judged: dict | None = None) -> Phase:
    """Whole passes over items until seconds of timed work, or exactly passes."""
    judged = {} if judged is None else judged
    phase = Phase()
    while (phase.timed_s < seconds) if passes is None else (phase.passes < passes):
        for label, inp in items:
            with traced(tracer) if tracer else nullcontext():
                with tracer.span(ROOT_SPAN) if tracer else nullcontext():
                    t0, c0 = time.perf_counter(), CLOCK()
                    try:
                        out = workload.run(inp)
                    except Exception as exc:  # a failed result is counted, not fatal
                        out = exc
                    phase.latencies.append(CLOCK() - c0)
                    phase.walls.append(time.perf_counter() - t0)
            if isinstance(out, Exception):
                key = f"{type(out).__name__}: {out}"
            else:
                key = workload.digest(out)
            phase.digests.setdefault(label, set()).add(key)
            if key not in judged:
                judged[key] = key if isinstance(out, Exception) else workload.judge(inp, out)
            phase.verdicts.append((label, judged[key]))
        phase.passes += 1
    return phase


# ------------------------------------------------------------------ metrics


def measure_setup(workload: str) -> tuple[float, float]:
    """Median (CPU, wall) time of fresh interpreters that import and warm up.

    The CPU time is the probe's main thread from its start, which the probe
    prints as it ends.  One probe runs first unmeasured, so that bytecode
    compilation and a cold file cache, paid once per checkout, are not
    counted."""
    cpu, wall = [], []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        probe = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                "--setup-probe"], check=True, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        wall.append(time.perf_counter() - t0)
        cpu.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(cpu[1:]), statistics.median(wall[1:])


def tail(latencies: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it (else the max)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1]
    return f"p{100.0 * (n - 10) / n:.0f}", ordered[n - 11]


def environment(src: Path) -> dict:
    import ctypes

    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((src / "nctorus").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in a copy that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def failure_lines(phase: Phase) -> list[str]:
    seen = {}
    for label, reason in phase.verdicts:
        if reason:
            seen.setdefault(label, reason)
    return [f"failed {label}: {reason}" for label, reason in seen.items()]


def timed_run(workload, items, seconds: float) -> tuple[Phase, dict, list[str]]:
    setup, setup_wall = measure_setup(workload.name)
    phase = run_passes(workload, items, seconds=seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latency = phase.pass_s() / len(items)
    tail_name, tail_value = tail(phase.latencies)
    rate = phase.solved / phase.passes / phase.pass_s()
    metrics = {
        "setup_s": (setup, "s"),
        "solved_per_s": (rate, "1/s"),
        "latency_s": (latency, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"setup_s: {setup:.4f} s (median of {SETUP_PROBES} fresh interpreters; wall "
        f"{setup_wall:.4f} s)",
        f"solved_per_s: {rate:.4f} 1/s ({phase.solved} solved in {phase.passes} passes of "
        f"{len(items)} inputs; typical pass {phase.pass_s():.3f} s; "
        f"{phase.solved / sum(phase.latencies):.4f} 1/s over all "
        f"{sum(phase.latencies):.2f} s; per wall second {phase.solved / phase.timed_s:.4f})",
        f"latency_s: {latency:.4f} s (mean per result in a typical pass); all results: "
        f"median {statistics.median(phase.latencies):.4f} s, {tail_name} "
        f"{tail_value:.4f} s, n={len(phase.latencies)}; wall median "
        f"{statistics.median(phase.walls):.4f} s",
        f"failed_frac: {phase.failed / len(phase.verdicts):.4f} "
        f"({phase.failed} of {len(phase.verdicts)})",
        f"peak_rss_mb: {rss_mb:.2f} MB",
    ]
    return phase, metrics, lines


def traced_run(workload, items, seconds: float, spans_path: Path
               ) -> tuple[Phase, dict, list[str]]:
    judged: dict = {}
    plain = run_passes(workload, items, seconds=seconds / 2, judged=judged)
    tracer = Tracer()
    phase = run_passes(workload, items, passes=plain.passes, tracer=tracer, judged=judged)
    tracer.write_jsonl(spans_path)
    results = len(phase.latencies)
    metrics = per_layer(tracer.spans, results)
    per_result = len(items)
    untraced, traced = plain.pass_s() / per_result, phase.pass_s() / per_result
    metrics["trace.result_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_pct"))
    lines = [f"{name}: {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"accounting per result (typical pass / inputs): untraced {untraced:.4f} s + tracing "
        f"overhead {traced - untraced:.4f} s = traced {traced:.4f} s; layer self times sum "
        f"to {shares:.2f} % of the traced time; {len(tracer.spans)} spans in "
        f"{spans_path.name}")
    return phase, metrics, lines


# ------------------------------------------------------------- entry points


def run_one(args, src: Path) -> int:
    use_source(src)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workloads.warm_up()
        print(repr(CLOCK()))
        return 0
    env = environment(src)
    items = workload.inputs(args.seed)
    workloads.warm_up()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        phase, metrics, lines = traced_run(workload, items, args.seconds,
                                           OUT_DIR / f"{stem}.spans.jsonl")
    else:
        phase, metrics, lines = timed_run(workload, items, args.seconds)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        sys.stderr.write("perfbench: metrics differ from those BENCHMARK.json declares\n")
        return 1
    digests = {label: sorted(d) for label, d in phase.digests.items()}
    for line in lines + failure_lines(phase):
        print(line)
    for label, keys in digests.items():
        if len(keys) > 1:
            print(f"output of {label} differs between passes: {', '.join(keys)}")
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    print(f"output sha256 over {len(digests)} inputs: {combined} "
          f"({'identical' if phase.deterministic() else 'NOT identical'} on every pass)")
    correct = phase.deterministic()
    result = {
        "correct": correct,
        "attempted": len(phase.verdicts),
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": phase.passes, "output_sha256": combined,
              "latencies_cpu_s": phase.latencies, "latencies_wall_s": phase.walls,
              "failures": failure_lines(phase),
              "output_sha256_by_input": digests, **result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, as one table."""
    table: dict[str, dict] = {}
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 4 * args.seconds)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            totals["correct"] &= result["correct"]
            if trace == 0:
                totals["attempted"] += result["attempted"]
                totals["failed"] += result["failed"]
                table.setdefault("failed_frac", {})[name] = {
                    "value": result["failed"] / result["attempted"], "unit": "fraction"}
            for metric, entry in result["metrics"].items():
                table.setdefault(metric, {})[name] = entry
                totals["metrics"][f"{name}.{metric}"] = entry
    width = max(len(m) for m in table)
    print(f"{'metric':<{width}}  " + "  ".join(f"{n:>13}" for n in WORKLOAD_NAMES) + "  unit")
    for metric, row in table.items():
        unit = next(iter(row.values()))["unit"]
        cells = "  ".join(f"{row[n]['value']:>13.5g}" for n in WORKLOAD_NAMES)
        print(f"{metric:<{width}}  {cells}  {unit}")
    print(json.dumps(totals, sort_keys=True))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = locate_source()
    if src is None:
        sys.stderr.write(f"perfbench: no nctorus sources under {ROOT / 'src'}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, src)


if __name__ == "__main__":
    sys.exit(main())
