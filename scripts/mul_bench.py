"""Alternated timings of `algebra.mul` in two checkouts of nctorus.

    python3 scripts/mul_bench.py ROOT_A ROOT_B --rounds 5 --reps 21

Each round starts one fresh interpreter per checkout, with
PYTHONPATH=<root>/src, A first in odd-numbered rounds and B first in
even-numbered ones.  The interpreter times `mul` by `time.thread_time`,
`--reps` times on each operand pair:

* the instanton at theta = 0.2, lambda = 0, box 32, truncated to boxes 4, 8,
  16, 24 and 32, times itself (p p);
* exp_i's 31 x 31 by 3 x 3 product, in both orders: the order-15 term of
  the unpruned series of exp(i h), h = random_selfadjoint(0.2, 1, 0), and
  i h.

For each operand pair it prints the median over every rep of every round on
each side, the ratio B / A, in how many rounds B's median was lower, and the
sha256 of the product's offset, shape and box bytes on each side ("differs"
lists every digest seen when the rounds disagree).  Exit code 1 when the
two sides' digests differ or a child fails, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BOXES = (4, 8, 16, 24, 32)
# Seconds allowed for one child: one box-32 instanton build plus the timings.
TIMEOUT_S = 600


def operands() -> list[tuple[str, object, object]]:
    """(name, a, b) of every timed product, built from the public API."""
    from nctorus.algebra import DEFAULT_TOL, mul, one, random_selfadjoint, scale, truncate
    from nctorus.heisenberg import build_instanton

    p = build_instanton(0.2, 0.0, DEFAULT_TOL, box=32).projection
    out = []
    for box in BOXES:
        q = truncate(p, box)
        out.append((f"box {box} p p", q, q))
    ih = scale(1j, random_selfadjoint(0.2, 1, 0))
    term = one(0.2)
    for k in range(1, 16):
        term = scale(1.0 / k, mul(term, ih))
    out.append(("exp_i 31x31 by 3x3", term, ih))
    out.append(("exp_i 3x3 by 31x31", ih, term))
    return out


def digest(x) -> str:
    head = f"{x.offset[0]},{x.offset[1]},{x.box.shape[0]},{x.box.shape[1]};".encode()
    return hashlib.sha256(head + x.box.tobytes()).hexdigest()[:16]


def child(reps: int) -> None:
    """Time every operand pair in this interpreter; print one JSON object."""
    from nctorus.algebra import mul

    result = {}
    for name, a, b in operands():
        times = []
        for _ in range(reps):
            start = time.thread_time()
            product = mul(a, b)
            times.append(time.thread_time() - start)
        result[name] = {"times": times, "sha256": digest(product)}
    print(json.dumps(result))


def run_child(root: Path, reps: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child",
                           "--reps", str(reps)], cwd=root, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    if done.returncode:
        raise RuntimeError(f"child in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(rounds_a: list[dict], rounds_b: list[dict]) -> tuple[list[str], bool]:
    """The printed table and whether both sides gave the same products."""
    lines, same = [], True
    for name in rounds_a[0]:
        med = [statistics.median(t for r in rounds for t in r[name]["times"])
               for rounds in (rounds_a, rounds_b)]
        wins = sum(statistics.median(rb[name]["times"]) < statistics.median(ra[name]["times"])
                   for ra, rb in zip(rounds_a, rounds_b))
        shas = [sorted({r[name]["sha256"] for r in rounds}) for rounds in (rounds_a, rounds_b)]
        lines.append(f"{name}: A {med[0] * 1e6:.1f} us, B {med[1] * 1e6:.1f} us, "
                     f"B / A {med[1] / med[0]:.3f}, B lower in {wins} of {len(rounds_a)} rounds")
        if shas[0] == shas[1] and len(shas[0]) == 1:
            lines.append(f"  sha256 A = B = {shas[0][0]}")
        else:
            same = False
            lines.append(f"  sha256 differs: A {shas[0]}, B {shas[1]}")
    return lines, same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, nargs="?", help="root of checkout A")
    parser.add_argument("b", type=Path, nargs="?", help="root of checkout B")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--reps", type=int, default=21)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        parser.error("--rounds and --reps must be at least 1")
    if args.child:
        child(args.reps)
        return 0
    if args.a is None or args.b is None:
        parser.error("ROOT_A and ROOT_B are required")
    roots = args.a.resolve(), args.b.resolve()
    rounds: tuple[list[dict], list[dict]] = ([], [])
    try:
        for k in range(1, args.rounds + 1):
            order = (0, 1) if k % 2 else (1, 0)
            for side in order:
                rounds[side].append(run_child(roots[side], args.reps))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    lines, same = summarize(*rounds)
    print(f"A = {roots[0]}\nB = {roots[1]}\nrounds={args.rounds} reps={args.reps}")
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
