"""The benchmark's four workloads.

Each workload turns a seed into a list of inputs, computes one result per
input (the timed part), and judges a result off the clock.  A judged result
is either solved or failed with a reason; a failure is counted, never
skipped.  Why each workload exists:

* instanton    -- ``nctorus instanton`` at the default config through the CLI
                  entry point; large-operand ``mul`` does most of the work.
* theta_sweep  -- ``build_instanton`` at box 32 over a jittered theta grid
                  on [0.05, 0.95] plus the golden mean; the bimodule layer
                  (grid action, inner products) does about two thirds of the
                  work and ``mul`` the rest.  Thetas the pipeline cannot
                  handle today stay in and count as failed.
* unitary_flow -- ``exp_i`` of seeded self-adjoint elements at box 1 and 2
                  scaled to l1 from 0.5 to 10, each followed by the monomial
                  detector and a chiral first-variation check along a seeded
                  ``random_selfadjoint`` direction: the series path with
                  growing medium operands.
* verify_all   -- ``nctorus verify --suite all``: the only workload using the
                  small-operand ``mul_reference`` path, the sampled-grid
                  actions and the symmetry suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from nctorus import algebra as al
from nctorus import cli
from nctorus import heisenberg as hb
from nctorus import models as md
from nctorus import symmetry as sym

THETA = 0.2
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BOX = 32
# theta_sweep: the grid 0.05, 0.10, ..., 0.95, each point jittered by at most
# a twentieth of the spacing.  The small jitter keeps the work per pass and
# the mix of pipeline regimes the same for every seed.
SWEEP_LO, SWEEP_HI, SWEEP_POINTS, SWEEP_JITTER = 0.05, 0.95, 19, 0.05
# unitary_flow: l1(t h) per box, spanning about 0.5 to about 10, with
# FLOW_PER_RUNG elements per rung: exp_i's work at a given l1 still varies by
# about 10 % with the element, so one element per rung leaves the pass time
# too dependent on the seed
FLOW_LADDER = {1: (0.5, 2.5, 5.0, 10.0), 2: (0.5, 2.5, 4.5)}
FLOW_PER_RUNG = 2
FV_STEP = 1e-3
# the centred difference errs by O(step^2) relative to the pairing
FV_RTOL = 10.0 * FV_STEP**2
EPS = al.DEFAULT_TOL.truncation_eps
FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list[tuple[str, Any]]]
    run: Callable[[Any], Any]
    judge: Callable[[Any, Any], str]
    digest: Callable[[Any], str]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, int(hashlib.sha256(workload.encode()).hexdigest()[:8], 16)])


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def element_bytes(a: al.TorusElement) -> bytes:
    rows = sorted(a.coeffs.items())
    idx = np.array([k for k, _ in rows], dtype=np.int64).reshape(-1, 2)
    vals = np.array([c for _, c in rows], dtype=complex)
    return repr(a.theta).encode() + idx.tobytes() + vals.tobytes()


def _misses(checks: dict[str, tuple[float, float]]) -> str:
    """'' when every |value| <= bound (and finite), else the failed checks."""
    bad = [f"{name}={value:.3e} (bound {bound:.1e})" for name, (value, bound) in checks.items()
           if not (math.isfinite(value) and abs(value) <= bound)]
    return "; ".join(bad)


# ------------------------------------------------------------- CLI workloads


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_digest(out: tuple[int, str]) -> str:
    return _sha(str(out[0]).encode(), out[1].encode())


def _judge_instanton(_argv, out) -> str:
    code, text = out
    if code != 0:
        return f"exit code {code}"
    rep = json.loads(text)
    eps = rep["tolerances"]["truncation_eps"]
    r = rep["residuals"]
    return _misses({
        "trace-theta": (r["trace"] - rep["theta"], eps),
        "chern+1": (rep["chern"] + 1.0, eps),
        "energy-4pi": (rep["energy"] - FOUR_PI, eps * FOUR_PI),
        "idempotency": (r["idempotency_defect"], eps),
    })


def _judge_verify(_argv, out) -> str:
    code, text = out
    if code != 0:
        return f"exit code {code}"
    rows = json.loads(text)["convergence"]
    bad = [row["name"] for row in rows if not row["passed"]]
    if not rows:
        return "no suite rows"
    return f"rows failed: {', '.join(bad)}" if bad else ""


# --------------------------------------------------------------- theta_sweep


def sweep_thetas(seed: int) -> list[float]:
    rng = _rng(seed, "theta_sweep")
    step = (SWEEP_HI - SWEEP_LO) / (SWEEP_POINTS - 1)
    jitter = rng.uniform(-SWEEP_JITTER, SWEEP_JITTER, SWEEP_POINTS)
    thetas = [SWEEP_LO + (k + j) * step for k, j in enumerate(jitter)]
    return sorted(thetas + [GOLDEN])


def _judge_sweep(theta: float, run: hb.InstantonRun) -> str:
    p = run.projection
    if not p.coeffs:
        return f"empty projection (tail_l1={run.tail_l1})"
    if not all(math.isfinite(abs(c)) for c in p.coeffs.values()):
        return "non-finite coefficients"
    _, idem = md.projection_defect(p)
    return _misses({
        "tail_l1": (run.tail_l1, EPS),
        "trace-theta": (al.trace(p).real - theta, EPS),
        "chern+1": (md.chern_number(p) + 1.0, EPS),
        "idempotency": (idem, EPS),
    })


def _sweep_digest(run: hb.InstantonRun) -> str:
    return _sha(element_bytes(run.projection), repr(run.tail_l1).encode())


# -------------------------------------------------------------- unitary_flow


def unit_selfadjoint(theta: float, box: int, rng: np.random.Generator) -> al.TorusElement:
    """Self-adjoint element on [-box, box]^2 whose coefficients all have
    modulus 1, with seeded phases.

    With equal moduli, the work exp_i does at a given l1 varies by about
    10 % between seeds; with random_selfadjoint's Gaussian moduli it varied
    by about 20 %.
    """
    half = {(m, n): complex(np.exp(2j * np.pi * rng.uniform()))
            for m in range(-box, box + 1) for n in range(-box, box + 1) if (m, n) > (0, 0)}
    g = al.TorusElement(theta, half)
    return al.add(al.add(g, al.adjoint(g)), al.monomial(theta, 0, 0, rng.choice((-1.0, 1.0))))


def flow_inputs(seed: int) -> list[tuple[str, Any]]:
    rng = _rng(seed, "unitary_flow")
    items = []
    for box, ladder in FLOW_LADDER.items():
        for target in ladder:
            for k in range(FLOW_PER_RUNG):
                h = unit_selfadjoint(THETA, box, rng)
                direction = al.random_selfadjoint(THETA, 1, int(rng.integers(1 << 31)))
                items.append((f"box{box}-l1={target:g}-{k}",
                               (h, target / al.l1_norm(h), direction)))
    return items


def _flow(inp):
    h, t, direction = inp
    w = al.exp_i(h, t)
    detected = sym.monomial_detector(w)
    fd, pairing = md.first_variation_check("chiral", w, direction, FV_STEP)
    return w, detected, fd, pairing


def _judge_flow(_inp, out) -> str:
    w, detected, fd, pairing = out
    if detected != (False, None):
        return f"detector says monomial {detected}"
    return _misses({
        "unitary_defect": (md.unitary_defect(w), EPS),
        "fd-pairing": (fd - pairing, FV_RTOL * max(1.0, abs(pairing))),
    })


def _flow_digest(out) -> str:
    w, detected, fd, pairing = out
    return _sha(element_bytes(w), repr((detected, fd, pairing)).encode())


# ----------------------------------------------------------------- registry


WORKLOADS = {
    "instanton": Workload(
        "instanton", lambda seed: [("default", ["instanton"])],
        _cli, _judge_instanton, _cli_digest),
    "theta_sweep": Workload(
        "theta_sweep", lambda seed: [(f"theta={t:.4f}", t) for t in sweep_thetas(seed)],
        lambda theta: hb.build_instanton(theta, box=BOX), _judge_sweep, _sweep_digest),
    "unitary_flow": Workload(
        "unitary_flow", flow_inputs, _flow, _judge_flow, _flow_digest),
    "verify_all": Workload(
        "verify_all",
        lambda seed: [("suite=all", ["--seed", str(int(_rng(seed, "verify_all").integers(1 << 31))),
                                     "verify", "--suite", "all"])],
        _cli, _judge_verify, _cli_digest),
}


def warm_up() -> None:
    """First calls into each layer: numpy and BLAS initialisation, and the
    allocator's first growth to full-size operands, before anything is timed."""
    p = hb.build_instanton(THETA, box=BOX).projection
    md.chern_number(al.truncate(p, 8))
    al.mul(p, p)
    al.exp_i(al.random_selfadjoint(THETA, 1, 0), 0.1)
    cli.build_parser()
