"""Invariant suites behind the verify command: each check measures a defect
against its tolerance and reports pass/fail.  Deterministic for a fixed seed.

The clock-and-shift matrices live here purely as a verification oracle for
the rational-parameter cross-check; they are not part of the public algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .algebra import (
    Tolerance,
    TorusElement,
    add,
    adjoint,
    delta,
    gns_norm,
    l1_norm,
    laplacian,
    monomial,
    mul,
    prune,
    random_element,
    random_selfadjoint,
    scale,
    sub,
    trace,
    truncate,
)
from . import heisenberg as hb
from . import models as md
from . import symmetry as sym


@dataclass(frozen=True)
class CheckRow:
    suite: str
    name: str
    defect: float
    tolerance: float
    passed: bool


def _row(suite: str, name: str, defect: float, tolerance: float) -> CheckRow:
    return CheckRow(suite, name, float(defect), float(tolerance), bool(defect <= tolerance))


class Instantons:
    """The instanton of one verify run.

    build makes the projection at BOX the way instanton and sweep do; it
    runs once, on the first request, and each box a suite reads is a
    truncation of that one projection.  The pruned projection and its Ising energy and
    Chern number are evaluated once per box for every suite that reads
    them.  run_suites makes one per call, so nothing outlives a command.
    """

    BOX = 20  # the largest projection box any suite reads

    def __init__(self, build: Callable[[], hb.InstantonRun]):
        self._run = cache(build)
        self._pruned: dict[int, tuple[TorusElement, float, float]] = {}

    def projection(self, box: int) -> TorusElement:
        return truncate(self._run().projection, box)

    def pruned(self, box: int) -> tuple[TorusElement, float, float]:
        """(p, ising_energy(p), chern_number(p)) for p the projection at box
        pruned at 1e-16."""
        if box not in self._pruned:
            p = prune(self.projection(box), 1e-16)
            self._pruned[box] = (p, md.ising_energy(p), md.chern_number(p))
        return self._pruned[box]


# ------------------------------------------------------------- algebra oracle


def clock_shift_rep(a: TorusElement, q: int) -> np.ndarray:
    """Represent a (theta = 1/q) as sum a_{m,n} clock^m shift^n, q x q."""
    omega = np.exp(2j * np.pi / q)
    rep = np.zeros((q, q), dtype=complex)
    for (m, n), c in a.coeffs.items():
        mat = np.zeros((q, q), dtype=complex)
        for k in range(q):
            mat[(k + n) % q, k] = omega ** (((k + n) % q) * m)
        rep += c * mat
    return rep


def algebra_suite(theta: float, tol: Tolerance, seed: int,
                  instantons: Instantons) -> list[CheckRow]:
    rows = []
    worst = {"assoc": 0.0, "invol": 0.0, "tracial": 0.0, "leibniz": 0.0, "dtrace": 0.0}
    for k in range(6):
        a = random_element(theta, 4, seed + 3 * k)
        b = random_element(theta, 4, seed + 3 * k + 1)
        c = random_element(theta, 4, seed + 3 * k + 2)
        scale_ = max(1.0, l1_norm(a) * l1_norm(b) * l1_norm(c))
        worst["assoc"] = max(worst["assoc"],
                             l1_norm(sub(mul(mul(a, b), c), mul(a, mul(b, c)))) / scale_)
        worst["invol"] = max(worst["invol"],
                             l1_norm(sub(adjoint(mul(a, b)), mul(adjoint(b), adjoint(a)))))
        worst["tracial"] = max(worst["tracial"], abs(trace(mul(a, b)) - trace(mul(b, a))))
        for j in (1, 2):
            lhs = delta(j, mul(a, b))
            rhs = add(mul(delta(j, a), b), mul(a, delta(j, b)))
            worst["leibniz"] = max(worst["leibniz"], l1_norm(sub(lhs, rhs)) / scale_)
            worst["dtrace"] = max(worst["dtrace"], abs(trace(delta(j, a))))
    rows.append(_row("algebra", "associativity", worst["assoc"], tol.algebraic_eps))
    rows.append(_row("algebra", "involution_antihomomorphism", worst["invol"], tol.algebraic_eps))
    rows.append(_row("algebra", "tracial_property", worst["tracial"], tol.algebraic_eps))
    rows.append(_row("algebra", "leibniz_rule", worst["leibniz"], tol.algebraic_eps))
    rows.append(_row("algebra", "derivation_kills_trace", worst["dtrace"], tol.algebraic_eps))

    q = 7
    th_q = 1.0 / q
    rng = np.random.default_rng(seed + 100)
    mul_defect = 0.0
    trace_defect = 0.0
    for _ in range(10):
        a = random_element(th_q, q - 1, int(rng.integers(1 << 30)), terms=5)
        b = random_element(th_q, q - 1, int(rng.integers(1 << 30)), terms=5)
        lhs = clock_shift_rep(mul(a, b), q)
        rhs = clock_shift_rep(a, q) @ clock_shift_rep(b, q)
        mul_defect = max(mul_defect, float(np.abs(lhs - rhs).max()))
        trace_defect = max(trace_defect,
                           abs(trace(a) - complex(np.trace(clock_shift_rep(a, q))) / q))
    rows.append(_row("algebra", "clock_shift_product_oracle", mul_defect, tol.algebraic_eps))
    rows.append(_row("algebra", "clock_shift_trace_oracle", trace_defect, tol.algebraic_eps))
    return rows


def module_suite(theta: float, tol: Tolerance, seed: int,
                 instantons: Instantons) -> list[CheckRow]:
    rows = []
    rng = np.random.default_rng(seed)
    grid = dict(L=15.0, points=1201)

    def rand_vec():
        w = float(rng.uniform(0.8, 3.0))
        lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.6, 0.6))
        C = complex(rng.uniform(0.3, 1.4), rng.uniform(-0.5, 0.5))
        return hb.gaussian_vector(theta, lam=lam, C=C, width=w)

    herm = pos = act = bridge = tr_rel = 0.0
    for _ in range(4):
        xi, eta, zeta = rand_vec(), rand_vec(), rand_vec()
        herm = max(herm, l1_norm(sub(hb.inner_A(xi, eta, tol),
                                     adjoint(hb.inner_A(eta, xi, tol)))))
        pos = max(pos, -trace(hb.inner_A(xi, xi, tol)).real)
        b = monomial(hb.dual_theta(theta), 1, -1, 0.6 + 0.3j)
        act = max(act, l1_norm(sub(hb.inner_B(xi, hb.act_right(xi, b), tol),
                                   mul(hb.inner_B(xi, xi, tol), b))))
        lhs = hb.act_left(hb.inner_A(xi, eta, tol), zeta, **grid)
        rhs = hb.act_right(xi, hb.inner_B(eta, zeta, tol), **grid)
        bridge = max(bridge, float(np.abs(
            hb.as_sampled(lhs, **grid).kind.values
            - hb.as_sampled(rhs, **grid).kind.values).max()))
        ta = trace(hb.inner_A(eta, eta, tol)).real
        tb = trace(hb.inner_B(eta, eta, tol)).real
        tr_rel = max(tr_rel, abs(tb - ta / abs(theta)) / max(1.0, abs(tb)))
    rows.append(_row("module", "hermitian_symmetry", herm, tol.quadrature_eps))
    rows.append(_row("module", "positivity", pos, tol.quadrature_eps))
    rows.append(_row("module", "action_compatibility", act, tol.quadrature_eps))
    rows.append(_row("module", "associativity_bridge", bridge, tol.quadrature_eps))
    rows.append(_row("module", "trace_rescaling", tr_rel, tol.quadrature_eps))

    sa, idem = md.projection_defect(instantons.projection(Instantons.BOX))
    rows.append(_row("module", "instanton_selfadjoint", sa, tol.algebraic_eps))
    rows.append(_row("module", "instanton_idempotent", idem, 10 * tol.truncation_eps))
    tails = [md.idempotency_defect(instantons.projection(box)) for box in (4, 6, 8)]
    halving = max(tails[i + 1] / tails[i] for i in range(len(tails) - 1))
    rows.append(_row("module", "tail_halves_with_box", halving, 0.5))
    return rows


def models_suite(theta: float, tol: Tolerance, seed: int,
                 instantons: Instantons) -> list[CheckRow]:
    rows = []
    p, e, c1 = instantons.pruned(16)
    rows.append(_row("models", "energy_chern_bound", max(0.0, -(e + 2 * math.pi * c1)),
                     1e-3))
    holo, anti = md.duality_residuals(p)
    rows.append(_row("models", "duality_identity_holo",
                     abs(8 * holo**2 - (e + 4 * math.pi * c1)), 1e-6))
    rows.append(_row("models", "duality_identity_anti",
                     abs(8 * anti**2 - (e - 4 * math.pi * c1)), 1e-6))

    ident = 0.0
    for k in range(3):
        h = random_selfadjoint(theta, 3, seed + 50 + k)
        W = md.harmonic_from_projection(h)
        lhs = sub(md.chiral_field_equation(W), scale(2.0, md.ising_commutator(h)))
        rhs = scale(2.0, laplacian(sub(mul(h, h), h)))
        ident = max(ident, gns_norm(sub(lhs, rhs)) / max(1.0, gns_norm(rhs)))
    rows.append(_row("models", "residual_identity_w_equals_1_minus_2p", ident,
                     tol.algebraic_eps))

    w = monomial(theta, 1, 2)
    lam = complex(math.cos(0.9), math.sin(0.9))
    gauge = abs(md.chiral_energy(scale(lam, w)) - md.chiral_energy(w))
    rows.append(_row("models", "chiral_gauge_invariance", gauge, tol.algebraic_eps))

    golden = (math.sqrt(5) - 1) / 2
    pair_defect = 0.0
    for mat in [(1, 0, 0, 1), (1, 1, 0, 1), (2, 1, 1, 1)]:
        phi = md.endo_from_matrix(golden, *mat)
        A = md.off_null_set(random_selfadjoint(golden, 3, seed + hash(mat) % 97), phi.phiU)
        B = md.solve_constraint_for_B(A, phi)
        pair_defect = max(pair_defect,
                          abs(md.endo_el_pairing(md.ConstraintPair(A, B), phi)))
    rows.append(_row("models", "endo_pairing_vanishes_on_solutions", pair_defect, 1e-10))

    su2_defect = 0.0
    for mat in [(1, 0, 2, 0), (1, 1, 1, 1)]:
        phi = md.su2_from_matrix(golden, *mat)
        A = md.off_null_set(random_selfadjoint(golden, 2, seed + 7 + mat[2]), phi.u)
        B = md.solve_su2_constraint_for_B(A, phi)
        su2_defect = max(su2_defect,
                         abs(md.su2_el_pairing(md.ConstraintPair(A, B), phi)))
    rows.append(_row("models", "su2_pairing_vanishes_on_solutions", su2_defect, 1e-10))
    return rows


def symmetry_suite(theta: float, tol: Tolerance, seed: int,
                   instantons: Instantons) -> list[CheckRow]:
    rows = []
    rng = np.random.default_rng(seed)
    oracle = group = tr_pres = 0.0
    for _ in range(6):
        m, n = (int(v) for v in rng.integers(-3, 4, size=2))
        mp, np_ = (int(v) for v in rng.integers(-3, 4, size=2))
        x = random_element(theta, 3, int(rng.integers(1 << 30)))
        oracle = max(oracle, l1_norm(sub(sym.ad((m, n), x), sym.ad_via_products((m, n), x))))
        group = max(group, l1_norm(sub(sym.ad((m, n), sym.ad((mp, np_), x)),
                                       sym.ad((m + mp, n + np_), x))))
        tr_pres = max(tr_pres, abs(trace(sym.ad((m, n), x)) - trace(x)))
    rows.append(_row("symmetry", "closed_form_matches_product_oracle", oracle, 1e-11))
    rows.append(_row("symmetry", "group_action_law", group, 1e-12))
    rows.append(_row("symmetry", "trace_preserved", tr_pres, 1e-15))

    p, e, c1 = instantons.pruned(16)

    def functionals(x):
        return (md.ising_el_residual(x), md.ising_energy(x), md.chern_number(x),
                md.chiral_residual(md.harmonic_from_projection(x)))

    at_p = (md.ising_el_residual(p), e, c1, md.chiral_residual(md.harmonic_from_projection(p)))
    inv = 0.0
    for w in [(1, 0), (0, 1), (2, -1)]:
        for fq, fp in zip(functionals(sym.ad(w, p)), at_p):
            inv = max(inv, abs(fq - fp))
    rows.append(_row("symmetry", "functionals_invariant_under_ad", inv, 1e-10))

    orbit_ok = all(
        sym.projective_equal(monomial(theta, a, b), sym.ad(w, monomial(theta, a, b)), tol)
        for (a, b) in [(1, 0), (0, 1), (2, -1)]
        for w in [(1, 1), (-2, 0)]
    )
    rows.append(_row("symmetry", "monomial_orbit_is_gauge_orbit", 0.0 if orbit_ok else 1.0, 0.5))
    return rows


SUITES = {
    "algebra": algebra_suite,
    "module": module_suite,
    "models": models_suite,
    "symmetry": symmetry_suite,
}


def run_suites(which: str, theta: float, tol: Tolerance, seed: int,
               build: Callable[[], hb.InstantonRun]) -> list[CheckRow]:
    names = list(SUITES) if which == "all" else [which]
    instantons = Instantons(build)
    rows: list[CheckRow] = []
    for name in names:
        rows.extend(SUITES[name](theta, tol, seed, instantons))
    return rows
