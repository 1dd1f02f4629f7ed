"""Acceptance criteria, one test per criterion (split per clause where a
criterion checks several quantities).  Every test prints one PASS/FAIL line;
run with `pytest tests/test_acceptance.py -v -s` to see them.

Two energy-value clauses fail by construction of the functionals themselves:
for any projection, tau-energy and Chern number obey the sharp identity
E -+ 4 pi c1 = 8 ||(delta_1 +- i delta_2)(p) p / 2||^2, so an instanton with
c1 = -1 has E = 4 pi (not 2 pi) and its harmonic unitary has chiral energy
16 pi (not 8 pi), which also exceeds the monomial minimum 4 pi^2.  The
criteria are asserted as stated anyway; see the test messages.
"""

import math
import time

import numpy as np
import pytest

from nctorus.algebra import (
    Tolerance,
    TorusElement,
    adjoint,
    exp_i,
    gns_norm,
    l1_norm,
    monomial,
    mul,
    prune,
    random_element,
    random_selfadjoint,
    scale,
    sub,
    trace,
    zero,
)
from nctorus import heisenberg as hb
from nctorus import models as md
from nctorus import symmetry as sym
from oracles import ENDO_MATS, SU2_MATS, matrix_rep, matrix_trace

TOL = Tolerance()
THETA = 0.2
GOLDEN = (math.sqrt(5) - 1) / 2
PI = math.pi


def report(criterion: str, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def instanton_run():
    t0 = time.monotonic()
    run = hb.build_instanton(THETA, 0.0, TOL, box=32)
    elapsed = time.monotonic() - t0
    return run, elapsed


# --------------------------------------------------------------- criterion 1


def test_criterion_1_monomial_chiral_energies():
    t0 = time.monotonic()
    worst_e = worst_r = 0.0
    for m in range(-5, 6):
        for n in range(-5, 6):
            w = monomial(THETA, m, n)
            worst_e = max(worst_e, abs(md.chiral_energy(w) - 4 * PI**2 * (m * m + n * n)))
            worst_r = max(worst_r, md.chiral_residual(w))
    elapsed = time.monotonic() - t0
    ok = worst_e <= 1e-12 and worst_r <= 1e-12 and elapsed < 1.0
    report("1", ok, f"energy defect {worst_e:.2e}, residual {worst_r:.2e}, {elapsed:.2f}s")
    assert worst_e <= 1e-12
    assert worst_r <= 1e-12
    assert elapsed < 1.0


# --------------------------------------------------------------- criterion 2


def test_criterion_2_selfadjointness(instanton_run):
    run, _ = instanton_run
    sa = gns_norm(sub(run.projection, adjoint(run.projection)))
    report("2a", sa <= 1e-9, f"||p - p*|| = {sa:.2e} (<= 1e-9)")
    assert sa <= 1e-9


def test_criterion_2_idempotency(instanton_run):
    run, _ = instanton_run
    p = run.projection
    idem = gns_norm(sub(mul(p, p), p))
    report("2b", idem <= 1e-6, f"||p^2 - p|| = {idem:.2e} (<= 1e-6)")
    assert idem <= 1e-6


def test_criterion_2_trace(instanton_run):
    run, _ = instanton_run
    t = trace(run.projection).real
    report("2c", abs(t - 0.2) <= 1e-6, f"tau(p) = {t:.10f} (0.2 +- 1e-6)")
    assert abs(t - 0.2) <= 1e-6


def test_criterion_2_chern(instanton_run):
    run, _ = instanton_run
    c1 = md.chern_number(run.projection)
    report("2d", abs(c1 + 1.0) <= 1e-4, f"c1(p) = {c1:.10f} (-1 +- 1e-4)")
    assert abs(c1 + 1.0) <= 1e-4


def test_criterion_2_energy_value(instanton_run):
    run, _ = instanton_run
    e = md.ising_energy(run.projection)
    ok = abs(e - 2 * PI) <= 1e-3
    report("2e", ok, f"energy = {e:.8f}, stated 2*pi = {2 * PI:.8f} "
                     f"(measured 4*pi = {4 * PI:.8f}; bound E >= 4*pi*|c1| "
                     f"makes 2*pi unattainable at c1 = -1)")
    assert ok, (
        f"energy {e:.8f} != 2*pi +- 1e-3: for any projection "
        f"E -+ 4*pi*c1 = 8*||(d1 -+ i d2)(p) p/2||^2 >= 0, so c1 = -1 forces "
        f"E >= 4*pi; the Gaussian projection saturates at exactly 4*pi")


def test_criterion_2_self_duality(instanton_run):
    run, _ = instanton_run
    sd = md.self_duality_residual(run.projection)
    report("2f", sd <= 1e-4, f"self-duality residual = {sd:.2e} (<= 1e-4)")
    assert sd <= 1e-4


def test_criterion_2_runtime(instanton_run):
    _, elapsed = instanton_run
    report("2g", elapsed < 60.0, f"build time {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0


# --------------------------------------------------------------- criterion 3


def test_criterion_3_harmonic_residual(instanton_run):
    run, _ = instanton_run
    W = md.harmonic_from_projection(run.projection)
    r = md.chiral_residual(W)
    report("3a", r <= 1e-4, f"chiral residual of W = {r:.2e} (<= 1e-4)")
    assert r <= 1e-4


def test_criterion_3_energy_value(instanton_run):
    run, _ = instanton_run
    W = md.harmonic_from_projection(run.projection)
    e = md.chiral_energy(W)
    ok = abs(e - 8 * PI) <= 1e-2
    report("3b", ok, f"L_D(W) = {e:.8f}, stated 8*pi = {8 * PI:.8f} "
                     f"(measured 16*pi; L_D = 4*E(p) with E(p) = 4*pi)")
    assert ok, (
        f"L_D(W) = {e:.8f} != 8*pi +- 1e-2: W = 1 - 2p gives "
        f"L_D = 4*E(p) identically and E(p) = 4*pi at c1 = -1")


def test_criterion_3_not_global_minima_comparison(instanton_run):
    run, _ = instanton_run
    W = md.harmonic_from_projection(run.projection)
    e = md.chiral_energy(W)
    monomial_min = 4 * PI**2
    ok = e < monomial_min
    report("3c", ok, f"L_D(W) = {e:.6f} vs monomial min 4*pi^2 = {monomial_min:.6f} "
                     f"(strict comparison {'holds' if ok else 'fails: 16*pi > 4*pi^2'})")
    assert ok, (
        f"L_D(W) = {e:.6f} is not below the monomial minimum {monomial_min:.6f}: "
        f"with these functional normalizations 16*pi > 4*pi^2, so the projection-"
        f"derived unitary does not undercut the monomials")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_energy_chern_bound_across_lambda_sweep():
    lams = np.linspace(-2.0, 2.0, 9)
    worst_bound = math.inf
    worst_c1 = 0.0
    for lam in lams:
        p = hb.instanton(THETA, complex(lam, 0.0), TOL, box=16)
        e, c1 = md.ising_energy(p), md.chern_number(p)
        worst_bound = min(worst_bound, e + 2 * PI * c1)
        worst_c1 = max(worst_c1, abs(c1 + 1.0))
    ok = worst_bound >= -1e-3 and worst_c1 <= 1e-4
    report("4", ok, f"min(E + 2 pi c1) = {worst_bound:.6f} (>= -1e-3), "
                    f"max |c1 + 1| = {worst_c1:.2e} over 9 lambdas")
    assert worst_bound >= -1e-3
    assert worst_c1 <= 1e-4


# --------------------------------------------------------------- criterion 5


def _random_sl2(rng):
    a, b = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
    # product of two shears is always in SL(2, Z)
    p, q = 1, a
    r, s = b, 1 + a * b
    return p, q, r, s


def _random_singular(rng):
    p, q = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
    k = int(rng.integers(-2, 3))
    return p, q, k * p, k * q


def test_criterion_5_lattice_action_invariance():
    rng = np.random.default_rng(2025)
    p0 = prune(hb.instanton(THETA, 0.0, TOL, box=12), 1e-15)
    worst_inv = 0.0
    worst_group = 0.0
    worst_trace = 0.0

    def w_idx():
        return int(rng.integers(-3, 4)), int(rng.integers(-3, 4))

    for k in range(50):
        w = w_idx()

        conj = exp_i(scale(0.2, random_selfadjoint(THETA, 1, 3000 + k)))
        p_like = prune(mul(mul(conj, p0), adjoint(conj)), 1e-13)
        q_like = sym.ad(w, p_like)
        for f in (md.ising_energy, md.ising_el_residual, md.chern_number,
                  md.self_duality_residual):
            worst_inv = max(worst_inv, abs(f(q_like) - f(p_like)))

        u = prune(mul(exp_i(scale(0.3, random_selfadjoint(THETA, 1, 4000 + k))),
                      monomial(THETA, int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))),
                  1e-13)
        for f in (md.chiral_energy, md.chiral_residual):
            worst_inv = max(worst_inv, abs(f(sym.ad(w, u)) - f(u)))

        phi = md.endo_from_matrix(THETA, *_random_sl2(rng))
        phi2 = sym.ad_on_endo(w, phi)
        worst_inv = max(worst_inv, abs(md.endo_energy(phi2) - md.endo_energy(phi)))
        worst_inv = max(worst_inv, abs(phi2.relation_residual() - phi.relation_residual()))

        quad = md.su2_from_matrix(THETA, *_random_singular(rng))
        quad2 = sym.ad_on_coercive(w, quad)
        worst_inv = max(worst_inv, abs(md.su2_energy(quad2) - md.su2_energy(quad)))
        worst_inv = max(worst_inv, max(abs(a - b) for a, b in
                                       zip(quad2.commutation_residuals(),
                                           quad.commutation_residuals())))

        x = random_element(THETA, 3, 5000 + k)
        w2 = w_idx()
        worst_group = max(worst_group, l1_norm(sub(
            sym.ad(w, sym.ad(w2, x)), sym.ad((w[0] + w2[0], w[1] + w2[1]), x))))
        worst_trace = max(worst_trace, abs(trace(sym.ad(w, x)) - trace(x)))

    ok = worst_inv <= 1e-10 and worst_group <= 1e-12 and worst_trace <= 1e-12
    report("5", ok, f"max functional shift {worst_inv:.2e} (<= 1e-10), "
                    f"group law {worst_group:.2e}, trace {worst_trace:.2e} (<= 1e-12)")
    assert worst_inv <= 1e-10
    assert worst_group <= 1e-12
    assert worst_trace <= 1e-12


# --------------------------------------------------------------- criterion 6


def test_criterion_6_module_axioms():
    quad_eps = 1e-8
    grid = dict(L=15.0, points=1201)
    rng = np.random.default_rng(77)
    worst = 0.0
    triples = 0
    for theta in (0.15, 0.2, 0.3):
        for _ in range(7):
            def vec():
                w = float(rng.uniform(0.8, 3.0))
                lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.6, 0.6))
                C = complex(rng.uniform(0.3, 1.4), rng.uniform(-0.5, 0.5))
                return hb.gaussian_vector(theta, lam=lam, C=C, width=w)

            xi, eta, zeta = vec(), vec(), vec()
            triples += 1
            worst = max(worst, l1_norm(sub(hb.inner_A(xi, eta, TOL),
                                           adjoint(hb.inner_A(eta, xi, TOL)))))
            worst = max(worst, -trace(hb.inner_A(xi, xi, TOL)).real)
            b = monomial(hb.dual_theta(theta), 1, -1, 0.6 + 0.3j)
            worst = max(worst, l1_norm(sub(hb.inner_B(xi, hb.act_right(xi, b), TOL),
                                           mul(hb.inner_B(xi, xi, TOL), b))))
            lhs = hb.as_sampled(hb.act_left(hb.inner_A(xi, eta, TOL), zeta, **grid), **grid)
            rhs = hb.as_sampled(hb.act_right(xi, hb.inner_B(eta, zeta, TOL), **grid), **grid)
            worst = max(worst, float(np.abs(lhs.kind.values - rhs.kind.values).max()))
            ta = trace(hb.inner_A(eta, eta, TOL)).real
            tb = trace(hb.inner_B(eta, eta, TOL)).real
            worst = max(worst, abs(tb - ta / abs(theta)))
    ok = worst <= quad_eps and triples >= 20
    report("6", ok, f"worst module-axiom defect {worst:.2e} over {triples} triples "
                    f"(<= {quad_eps:.0e})")
    assert triples >= 20
    assert worst <= quad_eps


# --------------------------------------------------------------- criterion 7


def _pairs_for(kind, phi, p, q, seed, count=10):
    pairs = [md.ConstraintPair(zero(GOLDEN), zero(GOLDEN)),
             md.ConstraintPair(monomial(GOLDEN, 0, 0, 0.8), monomial(GOLDEN, 0, 0, 0.8))]
    k = 0
    while len(pairs) < count:
        h = random_selfadjoint(GOLDEN, 3, seed + 17 * k)
        A = TorusElement(GOLDEN, {idx: c for idx, c in h.coeffs.items()
                                  if idx[1] * p != q * idx[0]})
        if kind == "endo":
            B = md.solve_constraint_for_B(A, phi)
        else:
            B = md.solve_su2_constraint_for_B(A, phi)
        pairs.append(md.ConstraintPair(A, B))
        k += 1
    return pairs


def test_criterion_7_el_pairings_on_solution_families():
    worst_pairing = 0.0
    worst_cert = 0.0
    for i, mat in enumerate(ENDO_MATS):
        phi = md.endo_from_matrix(GOLDEN, *mat)
        for pair in _pairs_for("endo", phi, mat[0], mat[1], 7000 + i):
            scale_ = max(1.0, l1_norm(pair.A), l1_norm(pair.B))
            worst_cert = max(worst_cert, md.endo_constraint_residual(pair, phi) / scale_)
            worst_pairing = max(worst_pairing, abs(md.endo_el_pairing(pair, phi)))
    for i, mat in enumerate(SU2_MATS):
        phi = md.su2_from_matrix(GOLDEN, *mat)
        for pair in _pairs_for("su2", phi, mat[0], mat[1], 8000 + i):
            scale_ = max(1.0, l1_norm(pair.A), l1_norm(pair.B))
            r1, r2 = md.su2_constraint_residuals(pair, phi)
            worst_cert = max(worst_cert, max(r1, r2) / scale_)
            worst_pairing = max(worst_pairing, abs(md.su2_el_pairing(pair, phi)))
    ok = worst_pairing <= 1e-10 and worst_cert <= 1e-12
    report("7", ok, f"max |pairing| {worst_pairing:.2e} (<= 1e-10), "
                    f"max constraint defect {worst_cert:.2e} (<= 1e-12)")
    assert worst_pairing <= 1e-10
    assert worst_cert <= 1e-12


# --------------------------------------------------------------- criterion 8


def test_criterion_8_first_variation_order():
    rng = np.random.default_rng(88)
    steps = [4e-2, 2e-2, 1e-2, 5e-3]
    for k in range(10):
        h = random_selfadjoint(THETA, 2, 9000 + k)
        x = prune(mul(exp_i(scale(0.3, random_selfadjoint(THETA, 1, 9100 + k))),
                      monomial(THETA, int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))),
                  1e-14)
        errs = [abs(np.subtract(*md.first_variation_check("chiral", x, h, s)))
                for s in steps]
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        assert all(r >= 3.5 for r in ratios), f"instance {k}: ratios {ratios}"
    worst_mono = 0.0
    for k in range(4):
        h = random_selfadjoint(THETA, 2, 9500 + k)
        fd, pairing = md.first_variation_check("chiral", monomial(THETA, 1, -2), h, 1e-3)
        worst_mono = max(worst_mono, abs(fd), abs(pairing))
    ok = worst_mono <= 1e-8
    report("8", ok, f"order-2 decay on 10 instances; at monomials max {worst_mono:.2e} "
                    f"(<= 1e-8)")
    assert worst_mono <= 1e-8


# --------------------------------------------------------------- criterion 9


def test_criterion_9_monomial_detector_corpus():
    rng = np.random.default_rng(99)
    correct = 0
    total = 0
    for _ in range(20):
        m, n = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        angle = rng.uniform(0, 2 * PI)
        phase = complex(math.cos(angle), math.sin(angle))
        ok, witness = sym.monomial_detector(monomial(THETA, m, n, phase), TOL)
        total += 1
        correct += int(ok and witness == (m, n))
    for k in range(20):
        h = random_selfadjoint(THETA, 2, 10_000 + k)
        w = exp_i(h)
        ok, witness = sym.monomial_detector(w, TOL)
        total += 1
        correct += int(not ok and witness is None)
    report("9", correct == total, f"{correct}/{total} classified correctly")
    assert correct == total == 40


# -------------------------------------------------------------- criterion 10


def test_criterion_10_clock_shift_oracle():
    q = 7
    theta = 1.0 / q
    rng = np.random.default_rng(1010)
    worst_mul = 0.0
    worst_trace = 0.0
    for _ in range(100):
        a = random_element(theta, q - 1, int(rng.integers(1 << 30)), terms=5)
        b = random_element(theta, q - 1, int(rng.integers(1 << 30)), terms=5)
        lhs = matrix_rep(mul(a, b), q)
        rhs = matrix_rep(a, q) @ matrix_rep(b, q)
        worst_mul = max(worst_mul, float(np.abs(lhs - rhs).max()))
        worst_trace = max(worst_trace, abs(trace(a) - matrix_trace(matrix_rep(a, q))))
        worst_trace = max(worst_trace, abs(trace(b) - matrix_trace(matrix_rep(b, q))))
    # product traces agree when the sumset stays off the nontrivial lattice
    for _ in range(20):
        a = random_element(theta, 3, int(rng.integers(1 << 30)), terms=5)
        b = random_element(theta, 3, int(rng.integers(1 << 30)), terms=5)
        worst_trace = max(worst_trace, abs(
            trace(mul(a, b)) - matrix_trace(matrix_rep(a, q) @ matrix_rep(b, q))))
    ok = worst_mul <= 1e-12 and worst_trace <= 1e-12
    report("10", ok, f"product defect {worst_mul:.2e}, trace defect {worst_trace:.2e} "
                     f"(<= 1e-12) on 100 pairs")
    assert worst_mul <= 1e-12
    assert worst_trace <= 1e-12
