"""Lattice conjugation action, orbit comparisons, and the monomial detector."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from nctorus.algebra import (
    Tolerance,
    TorusElement,
    add,
    adjoint,
    exp_i,
    l1_norm,
    monomial,
    mul,
    one,
    prune,
    random_element,
    random_selfadjoint,
    scale,
    sub,
    trace,
)
from nctorus.heisenberg import instanton
from nctorus.models import (
    ConstraintPair,
    chern_number,
    chiral_energy,
    chiral_residual,
    endo_el_pairing,
    endo_from_matrix,
    ising_el_residual,
    ising_energy,
    self_duality_residual,
    solve_constraint_for_B,
    solve_su2_constraint_for_B,
    su2_el_pairing,
    su2_energy,
    su2_from_matrix,
)
from nctorus.symmetry import (
    ad,
    ad_on_coercive,
    ad_on_endo,
    ad_via_products,
    monomial_detector,
    projective_equal,
)

TOL = Tolerance()
THETA = 0.2
GOLDEN = (math.sqrt(5) - 1) / 2


# ------------------------------------------------------------------ the action


def test_ad_identity_index():
    x = random_element(THETA, 4, 1)
    assert ad((0, 0), x) is x


@seed(47)
@settings(max_examples=40, deadline=None, database=None)
@given(theta=st.floats(-0.99, 0.99).filter(lambda t: math.copysign(1.0, t) > 0 or t != 0),
       s=st.integers(0, 10**6),
       w=st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(lambda w: w != (0, 0)))
@example(theta=0.0, s=0, w=(0, 1))
@example(theta=-0.5, s=0, w=(0, 1))
def test_ad_is_the_per_cell_phase_bit_for_bit(theta, s, w):
    """ad's array of phases gives the bits of a per-cell loop over
    cmath.exp(2 pi i theta (m b - n a)), with the phase 1 + 0j where
    m b - n a = 0, signed zeros included.  (At theta < 0, cmath.exp gives
    1 - 0j there.)  Left out: w = (0, 0), which returns x itself
    (test_ad_identity_index), and theta = -0.0, where ad's phase 1 + 0j
    and the loop's 1 - 0j differ in the sign of a zero."""
    rng = np.random.default_rng(s)
    parts = rng.standard_normal((9, 9, 2)) * 10.0 ** rng.integers(-20, 20, size=(9, 9, 2))
    parts[rng.random((9, 9, 2)) < 0.15] = -0.0
    parts[rng.random((9, 9, 2)) < 0.15] = 0.0
    x = TorusElement(theta, {(a - 4, b - 3): complex(*parts[a, b])
                             for a in range(9) for b in range(9)})
    m, n = w
    want = {}
    for (a, b), c in x.coeffs.items():
        arg = m * b - n * a
        want[(a, b)] = c * (1.0 + 0.0j if arg == 0 else cmath.exp(2j * math.pi * theta * arg))
    bits = [(k, c.real.hex(), c.imag.hex()) for k, c in want.items() if c != 0]
    assert [(k, c.real.hex(), c.imag.hex()) for k, c in ad(w, x).coeffs.items()] == bits


def test_ad_phase_on_monomials():
    for (m, n), (a, b) in [((1, 0), (0, 1)), ((2, -1), (1, 1)), ((0, 3), (-2, 1))]:
        got = ad((m, n), monomial(THETA, a, b))
        expected = cmath.exp(2j * math.pi * THETA * (m * b - n * a))
        assert got.coeffs[(a, b)] == pytest.approx(expected, abs=1e-15)


def test_ad_matches_two_sided_product_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m, n = (int(v) for v in rng.integers(-3, 4, size=2))
        x = random_element(THETA, 4, int(rng.integers(1 << 30)))
        fast = ad((m, n), x)
        slow = ad_via_products((m, n), x)
        assert l1_norm(sub(fast, slow)) < 1e-12 * max(1.0, l1_norm(x))


def test_ad_group_law():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m, n, mp, np_ = (int(v) for v in rng.integers(-3, 4, size=4))
        x = random_element(THETA, 3, int(rng.integers(1 << 30)))
        lhs = ad((m, n), ad((mp, np_), x))
        rhs = ad((m + mp, n + np_), x)
        assert l1_norm(sub(lhs, rhs)) < 1e-12 * max(1.0, l1_norm(x))


def test_ad_preserves_trace_exactly():
    for seed in range(6):
        x = random_element(THETA, 4, 100 + seed)
        assert trace(ad((2, -3), x)) == trace(x)


def test_ad_is_multiplicative():
    x = random_element(THETA, 3, 7)
    y = random_element(THETA, 3, 8)
    lhs = ad((1, 2), mul(x, y))
    rhs = mul(ad((1, 2), x), ad((1, 2), y))
    assert l1_norm(sub(lhs, rhs)) < 1e-12 * max(1.0, l1_norm(lhs))


def test_ad_is_star_automorphism():
    x = random_element(THETA, 3, 9)
    lhs = ad((2, 1), adjoint(x))
    rhs = adjoint(ad((2, 1), x))
    assert l1_norm(sub(lhs, rhs)) < 1e-13 * max(1.0, l1_norm(x))


# --------------------------------------------------- invariance of functionals


@pytest.fixture(scope="module")
def inst():
    return prune(instanton(THETA, 0.0, TOL, box=20), 1e-16)


def test_projection_residuals_invariant(inst):
    for w in [(1, 0), (0, 1), (2, -1), (-3, 3)]:
        q = ad(w, inst)
        assert ising_el_residual(q) == pytest.approx(ising_el_residual(inst), abs=1e-10)
        assert self_duality_residual(q) == pytest.approx(self_duality_residual(inst), abs=1e-10)
        assert ising_energy(q) == pytest.approx(ising_energy(inst), abs=1e-10)
        assert chern_number(q) == pytest.approx(chern_number(inst), abs=1e-10)


def test_harmonic_unitary_residual_invariant(inst):
    W = sub(one(THETA), scale(2.0, inst))
    for w in [(1, 1), (-2, 3)]:
        assert chiral_residual(ad(w, W)) == pytest.approx(chiral_residual(W), abs=1e-10)
        assert chiral_energy(ad(w, W)) == pytest.approx(chiral_energy(W), abs=1e-10)


def test_endo_transport(inst):
    phi = endo_from_matrix(GOLDEN, 1, 1, 0, 1)
    w = (2, -1)
    phi2 = ad_on_endo(w, phi)
    assert phi2.relation_residual() < 1e-12
    # transported constrained pair: A' = w A w*, B' = w B w*
    h = random_selfadjoint(GOLDEN, 3, 5)
    from nctorus.algebra import TorusElement

    A = TorusElement(GOLDEN, {k: c for k, c in h.coeffs.items() if k[1] != k[0]})
    B = solve_constraint_for_B(A, phi)
    val = endo_el_pairing(ConstraintPair(A, B), phi)
    val2 = endo_el_pairing(ConstraintPair(ad(w, A), ad(w, B)), phi2)
    assert abs(val) < 1e-10 and abs(val2) < 1e-10


def test_coercive_transport():
    phi = su2_from_matrix(GOLDEN, 1, 0, 2, 0)
    w = (1, 2)
    phi2 = ad_on_coercive(w, phi)
    r1, r2 = phi2.commutation_residuals()
    assert max(r1, r2) < 1e-12
    assert su2_energy(phi2) == pytest.approx(su2_energy(phi), abs=1e-12)
    h = random_selfadjoint(GOLDEN, 2, 6)
    from nctorus.algebra import TorusElement

    A = TorusElement(GOLDEN, {k: c for k, c in h.coeffs.items() if k[1] != 0})
    B = solve_su2_constraint_for_B(A, phi)
    val2 = su2_el_pairing(ConstraintPair(ad(w, A), ad(w, B)), phi2)
    assert abs(val2) < 1e-10


# --------------------------------------------------------------- the detector


def test_detector_on_phased_monomial():
    w = monomial(THETA, 2, -1, cmath.exp(0.73j))
    ok, witness = monomial_detector(w, TOL)
    assert ok and witness == (2, -1)


def test_detector_on_identity():
    ok, witness = monomial_detector(one(THETA), TOL)
    assert ok and witness == (0, 0)


def test_detector_rejects_generic_unitary():
    h = random_selfadjoint(THETA, 2, 40)
    w = exp_i(h)
    ok, witness = monomial_detector(w, TOL)
    assert not ok and witness is None


def test_detector_rejects_two_term_unitary():
    # exp(i h) with h supported on one conjugate pair: a genuine two-term-ish
    # unitary, far from any monomial
    h = add(monomial(THETA, 1, 1, 0.8), adjoint(monomial(THETA, 1, 1, 0.8)))
    w = exp_i(h)
    ok, witness = monomial_detector(w, TOL)
    assert not ok


def test_detector_requires_unitarity():
    with pytest.raises(ValueError):
        monomial_detector(scale(2.0, monomial(THETA, 1, 0)), TOL)


def test_alternate_currents_also_scalar_on_monomials():
    # the dual currents w delta_j(w*) are scalar on monomials as well
    from nctorus.algebra import delta, is_scalar

    w = monomial(THETA, 3, 2, cmath.exp(1.1j))
    for j in (1, 2):
        cur = mul(w, delta(j, adjoint(w)))
        assert is_scalar(cur, TOL)


# ------------------------------------------------------------ projective class


def test_projective_equal_phase():
    u = monomial(THETA, 1, 0)
    assert projective_equal(u, scale(cmath.exp(0.4j), u), TOL)


def test_projective_unequal_generators():
    assert not projective_equal(monomial(THETA, 1, 0), monomial(THETA, 0, 1), TOL)


def test_ad_orbit_of_monomials_is_gauge_orbit():
    for (m, n) in [(1, 0), (0, 1), (2, -1)]:
        u = monomial(THETA, m, n)
        for w in [(1, 1), (-2, 0), (3, -2)]:
            assert projective_equal(u, ad(w, u), TOL)


def test_endo_orbit_projectively_trivial():
    phi = endo_from_matrix(THETA, 1, 1, 0, 1)
    phi2 = ad_on_endo((2, 1), phi)
    assert projective_equal(phi.phiU, phi2.phiU, TOL)
    assert projective_equal(phi.phiV, phi2.phiV, TOL)
