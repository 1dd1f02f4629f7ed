"""Energy functionals, EL residuals, constraint solvers, variational checks."""

import importlib
import math
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from nctorus.algebra import (
    Tolerance,
    add,
    adjoint,
    delta,
    exp_i,
    gns_norm,
    l1_norm,
    laplacian,
    monomial,
    mul,
    one,
    random_element,
    random_selfadjoint,
    scale,
    sub,
    zero,
)
from nctorus import models
from nctorus.heisenberg import instanton
from nctorus.symmetry import ad
from nctorus.models import (
    ConstraintError,
    ConstraintPair,
    EndoPair,
    chern_number,
    chiral_energy,
    chiral_residual,
    duality_residuals,
    endo_constraint_residual,
    endo_el_pairing,
    endo_energy,
    endo_from_matrix,
    energy_descent,
    first_variation_check,
    chiral_variation_pairing,
    harmonic_from_projection,
    ising_commutator,
    ising_el_residual,
    ising_energy,
    ising_variation_pairing,
    off_null_set,
    projection_defect,
    self_duality_residual,
    solve_constraint_for_B,
    solve_su2_constraint_for_B,
    su2_constraint_residuals,
    su2_el_pairing,
    su2_energy,
    su2_from_matrix,
    unitary_defect,
)
from oracles import (
    ENDO_MATS,
    SU2_MATS,
    chern_number_by_products,
    chiral_gradient_by_products,
    chiral_variation_pairing_by_products,
    current_divergence_pairing_by_products,
    ising_energy_by_products,
    ising_variation_pairing_by_products,
)

TOL = Tolerance()
THETA = 0.2
GOLDEN = (math.sqrt(5) - 1) / 2
PI = math.pi


@pytest.fixture(scope="module")
def inst():
    return instanton(THETA, 0.0, TOL, box=24)


def filtered_selfadjoint(theta, box, seed, keep):
    """Random self-adjoint element with coefficients dropped where keep() is false."""
    h = random_selfadjoint(theta, box, seed)
    coeffs = {k: c for k, c in h.coeffs.items() if keep(k)}
    from nctorus.algebra import TorusElement

    return TorusElement(theta, coeffs)


# ------------------------------------------------------------------ projection


def test_ising_energy_on_constants():
    assert ising_energy(zero(THETA)) == 0.0
    assert ising_energy(one(THETA)) == 0.0


def test_instanton_energy_saturates_chern_bound(inst):
    # the sharp identity: S_D = 4 pi |c1| at self-duality; here c1 = -1
    e = ising_energy(inst)
    c1 = chern_number(inst)
    assert c1 == pytest.approx(-1.0, abs=1e-10)
    assert e == pytest.approx(4 * PI, abs=1e-9)


def test_energy_chern_inequality_on_projection_corpus(inst):
    from nctorus.algebra import prune

    for seed in range(6):
        h = random_selfadjoint(THETA, 2, 900 + seed)
        w = exp_i(scale(0.3, h))
        p = prune(mul(mul(w, inst), adjoint(w)), 1e-14)
        e, c1 = ising_energy(p), chern_number(p)
        assert e + 2 * PI * c1 >= -1e-7
        assert e - 4 * PI * abs(c1) >= -1e-7


def test_duality_identities_on_projection(inst):
    # 8 ||holo(p)p||^2 = S_D + 4 pi c1 and 8 ||anti(p)p||^2 = S_D - 4 pi c1
    e, c1 = ising_energy(inst), chern_number(inst)
    holo, anti = duality_residuals(inst)
    assert 8 * holo**2 == pytest.approx(e + 4 * PI * c1, abs=1e-8)
    assert 8 * anti**2 == pytest.approx(e - 4 * PI * c1, abs=1e-8)
    assert self_duality_residual(inst) == holo


def test_ising_el_residual(inst):
    assert ising_el_residual(zero(THETA)) == 0.0
    assert ising_el_residual(inst) < 1e-8
    bumped = add(inst, monomial(THETA, 1, 2, 0.05))
    assert ising_el_residual(bumped) > 1e-3


def test_ising_commutator_forms_both_products():
    # on a non-self-adjoint element X - X* (X = a Lap a) is another element,
    # so the one-product form fails this bit-for-bit comparison
    a = random_element(THETA, 3, 8, terms=30)
    lap = laplacian(a)
    got, want = ising_commutator(a), sub(mul(a, lap), mul(lap, a))
    assert ((got.offset, got.box.shape, got.box.tobytes())
            == (want.offset, want.box.shape, want.box.tobytes()))


def test_chern_trivial_values():
    assert chern_number(zero(THETA)) == 0.0
    assert chern_number(one(THETA)) == 0.0


# --------------------------------------------------------------------- chiral


def test_monomial_chiral_energy_exact():
    for m in range(-3, 4):
        for n in range(-3, 4):
            w = monomial(THETA, m, n)
            assert chiral_energy(w) == pytest.approx(4 * PI**2 * (m * m + n * n), abs=1e-12)
            assert chiral_residual(w) < 1e-12


def test_chiral_energy_gauge_invariant():
    w = monomial(THETA, 2, -1)
    lam = complex(math.cos(0.7), math.sin(0.7))
    assert chiral_energy(scale(lam, w)) == pytest.approx(chiral_energy(w), abs=1e-12)


def test_chiral_residual_gauge_invariant():
    h = random_selfadjoint(THETA, 2, 83)
    w = mul(exp_i(scale(0.4, h)), monomial(THETA, 1, 0))
    lam = complex(math.cos(1.3), math.sin(1.3))
    assert chiral_residual(scale(lam, w)) == pytest.approx(chiral_residual(w), abs=1e-10)


def test_harmonic_unitary_from_instanton(inst):
    W = harmonic_from_projection(inst)
    assert chiral_residual(W) < 1e-7
    assert chiral_energy(W) == pytest.approx(4 * ising_energy(inst), abs=1e-8)
    assert chiral_energy(W) == pytest.approx(16 * PI, abs=1e-8)


def test_harmonic_from_projection_constants():
    assert harmonic_from_projection(zero(THETA)).coeffs == {(0, 0): 1}
    assert harmonic_from_projection(one(THETA)).coeffs == {(0, 0): -1}


def test_unitarity_defect_is_four_times_projection_defect():
    h = random_selfadjoint(THETA, 2, 77)
    p_like = scale(0.5, add(h, mul(h, h)))  # selfadjoint, not a projection
    W = harmonic_from_projection(p_like)
    lhs = sub(mul(adjoint(W), W), one(THETA))
    rhs = scale(4.0, sub(mul(p_like, p_like), p_like))
    assert l1_norm(sub(lhs, rhs)) < 1e-10 * max(1.0, l1_norm(lhs))


def test_residual_identity_for_symmetric_unitary():
    # [W* Lap W + sum delta_j(W)* delta_j(W)] - 2[p Lap p - Lap p p]
    # equals 2 Lap(p^2 - p) for any selfadjoint p, exactly
    for seed in (1, 2, 3):
        p = random_selfadjoint(THETA, 3, 400 + seed)
        W = harmonic_from_projection(p)
        lhs = mul(adjoint(W), laplacian(W))
        for j in (1, 2):
            from nctorus.algebra import delta

            dW = delta(j, W)
            lhs = add(lhs, mul(adjoint(dW), dW))
        lp = laplacian(p)
        lhs = sub(lhs, scale(2.0, sub(mul(p, lp), mul(lp, p))))
        rhs = scale(2.0, laplacian(sub(mul(p, p), p)))
        assert gns_norm(sub(lhs, rhs)) < 1e-9 * max(1.0, gns_norm(rhs))


def test_chiral_residual_of_w_bounded_by_el_residual(inst):
    W = harmonic_from_projection(inst)
    _, idem = projection_defect(inst)
    bound = 2 * ising_el_residual(inst) + 8 * PI**2 * (2 * 24**2) * idem
    assert chiral_residual(W) <= bound + 1e-12


def test_perturbed_unitary_not_harmonic():
    h = random_selfadjoint(THETA, 2, 5)
    w = mul(exp_i(scale(0.4, h)), monomial(THETA, 1, 0))
    assert unitary_defect(w) < 1e-10
    assert chiral_residual(w) > 1e-2


# --------------------------------------------------------------- endomorphism


def test_endo_from_matrix_identity():
    phi = endo_from_matrix(THETA, 1, 0, 0, 1)
    assert phi.phiU.coeffs == {(1, 0): 1}
    assert phi.phiV.coeffs == {(0, 1): 1}
    assert phi.relation_residual() < 1e-15


def test_endo_from_matrix_shear():
    phi = endo_from_matrix(THETA, 1, 1, 0, 1)
    assert phi.phiU.coeffs == {(1, 1): 1}
    assert phi.relation_residual() < 1e-12


def test_endo_from_matrix_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        endo_from_matrix(THETA, 1, 0, 0, -1)


def test_endo_constraint_scalar_and_zero_pairs():
    phi = endo_from_matrix(GOLDEN, 1, 1, 0, 1)
    c = monomial(GOLDEN, 0, 0, 0.7)
    assert endo_constraint_residual(ConstraintPair(c, c), phi) < 1e-14
    z = zero(GOLDEN)
    assert endo_constraint_residual(ConstraintPair(z, z), phi) == 0.0


def test_solver_produces_certified_pairs():
    phi = endo_from_matrix(GOLDEN, 1, 1, 0, 1)
    p, q = 1, 1
    A = filtered_selfadjoint(GOLDEN, 3, 12, keep=lambda k: k[1] * p != q * k[0])
    B = solve_constraint_for_B(A, phi)
    resid = endo_constraint_residual(ConstraintPair(A, B), phi)
    assert resid <= 1e-12 * max(1.0, l1_norm(A))
    assert l1_norm(sub(B, adjoint(B))) < 1e-12


def test_solver_scalar_input_gives_zero():
    phi = endo_from_matrix(GOLDEN, 1, 0, 0, 1)
    B = solve_constraint_for_B(monomial(GOLDEN, 0, 0, 2.5), phi)
    assert B.coeffs == {}


def test_solver_flags_inconsistent_constraint():
    # identity endomorphism: the null set of U-conjugation is the row n = 0,
    # where K = A - V* A V generally does not vanish
    phi = endo_from_matrix(GOLDEN, 1, 0, 0, 1)
    A = filtered_selfadjoint(GOLDEN, 3, 21, keep=lambda k: True)
    assert any(k[1] == 0 and k[0] != 0 for k in A.coeffs)
    with pytest.raises(ConstraintError):
        solve_constraint_for_B(A, phi)


def test_endo_pairing_vanishes_on_monomial_maps():
    for mat in [(1, 0, 0, 1), (1, 1, 0, 1), (2, 1, 1, 1), (1, -1, 0, 1), (3, 2, 1, 1)]:
        phi = endo_from_matrix(GOLDEN, *mat)
        p, q = mat[0], mat[1]
        A = filtered_selfadjoint(GOLDEN, 3, hash(mat) % 1000,
                                 keep=lambda k: k[1] * p != q * k[0])
        B = solve_constraint_for_B(A, phi)
        val = endo_el_pairing(ConstraintPair(A, B), phi)
        assert abs(val) < 1e-10


def test_endo_pairing_zero_pair():
    phi = endo_from_matrix(GOLDEN, 1, 1, 0, 1)
    z = zero(GOLDEN)
    assert endo_el_pairing(ConstraintPair(z, z), phi) == 0


def test_endo_pairing_nonzero_for_perturbed_map():
    # both images perturbed by the same unitary W: then (A, A) with
    # A = W Atilde W* and Atilde commuting with phiU phiV* (= U here) is an
    # exactly constrained pair, and the currents are no longer constant
    h = random_selfadjoint(GOLDEN, 1, 99)
    W = exp_i(scale(0.5, h))
    phi = EndoPair(mul(W, monomial(GOLDEN, 1, 1)), mul(W, monomial(GOLDEN, 0, 1)))
    atilde = filtered_selfadjoint(GOLDEN, 2, 31, keep=lambda k: k[1] == 0)
    A = mul(mul(W, atilde), adjoint(W))
    pair = ConstraintPair(A, A)
    assert endo_constraint_residual(pair, phi) < 1e-9
    val = endo_el_pairing(pair, phi)
    assert abs(val) > 1e-6


def test_endo_pairing_rejects_unconstrained_pair():
    phi = endo_from_matrix(GOLDEN, 1, 1, 0, 1)
    A = random_selfadjoint(GOLDEN, 2, 55)
    B = random_selfadjoint(GOLDEN, 2, 56)
    pair = ConstraintPair(A, B)
    if endo_constraint_residual(pair, phi) > 1e-6:
        with pytest.raises(ConstraintError):
            endo_el_pairing(pair, phi)


# ------------------------------------------- both solvers across rational theta

# theta = a/b with b <= 10, where the null set is more than the lattice
# n p = q m, and arbitrary theta in [0.05, 0.95]
THETA_RATIONAL_OR_ANY = st.one_of(
    st.integers(2, 10).flatmap(lambda b: st.integers(1, b - 1).map(lambda a: a / b)),
    st.floats(0.05, 0.95),
)
MATRIX_MODEL = st.sampled_from([("endo", m) for m in ENDO_MATS]
                               + [("su2", m) for m in SU2_MATS])


@seed(11)
@settings(max_examples=40, deadline=None, database=None)
@given(theta=THETA_RATIONAL_OR_ANY, model=MATRIX_MODEL, s=st.integers(0, 10**6))
def test_solvers_succeed_off_the_null_set(theta, model, s):
    kind, mat = model
    if kind == "endo":
        phi = endo_from_matrix(theta, *mat)
        A = off_null_set(random_selfadjoint(theta, 3, s), phi.phiU)
        B = solve_constraint_for_B(A, phi)
        resid = endo_constraint_residual(ConstraintPair(A, B), phi)
    else:
        phi = su2_from_matrix(theta, *mat)
        A = off_null_set(random_selfadjoint(theta, 3, s), phi.u)
        B = solve_su2_constraint_for_B(A, phi)
        resid = max(su2_constraint_residuals(ConstraintPair(A, B), phi))
    assert resid <= 1e-12 * max(1.0, l1_norm(A), l1_norm(B))


def test_off_null_set_drops_the_rational_null_set():
    # theta = 1/5 and phi(U) = U V: the null set is n - m divisible by 5
    theta = 0.2
    A = off_null_set(random_selfadjoint(theta, 3, 4), monomial(theta, 1, 1))
    assert len(A.coeffs) == 49 - 7 - 4
    assert all((n - m) % 5 for m, n in A.coeffs)


# -------------------------------------------------------------- coercive model


def test_su2_from_matrix_examples():
    phi = su2_from_matrix(THETA, 1, 0, 2, 0)
    assert phi.u.coeffs == {(1, 0): 1}
    assert phi.v.coeffs == {(2, 0): 1}
    r1, r2 = phi.commutation_residuals()
    assert r1 < 1e-14 and r2 < 1e-14
    assert phi.modulus_defect() < 1e-15

    same = su2_from_matrix(THETA, 1, 1, 1, 1)
    assert same.u.coeffs == same.v.coeffs

    with pytest.raises(ValueError):
        su2_from_matrix(THETA, 1, 0, 0, 1)


def test_su2_energy_value():
    phi = su2_from_matrix(THETA, 1, 0, 2, 0)
    assert su2_energy(phi) == pytest.approx(10 * PI**2, abs=1e-10)


def test_su2_degenerate_quadruple_has_zero_energy():
    from nctorus.models import CoerciveQuadruple

    phi = CoerciveQuadruple(1.0, 0.0, one(THETA), one(THETA))
    assert phi.modulus_defect() < 1e-15
    assert su2_energy(phi) == 0.0


def test_su2_energy_gauge_invariant():
    phi = su2_from_matrix(THETA, 1, 0, 2, 0)
    from nctorus.models import CoerciveQuadruple

    lam = complex(math.cos(1.1), math.sin(1.1))
    phi2 = CoerciveQuadruple(lam * phi.mu, phi.nu, phi.u, phi.v)
    assert su2_energy(phi2) == pytest.approx(su2_energy(phi), abs=1e-12)


def test_su2_constraints_trivial_pairs():
    phi = su2_from_matrix(GOLDEN, 1, 0, 2, 0)
    z = zero(GOLDEN)
    assert su2_constraint_residuals(ConstraintPair(z, z), phi) == (0.0, 0.0)
    c = monomial(GOLDEN, 0, 0, 1.3)
    r1, r2 = su2_constraint_residuals(ConstraintPair(c, c), phi)
    assert r1 < 1e-14 and r2 < 1e-14


def test_su2_solver_certifies_both_constraints():
    phi = su2_from_matrix(GOLDEN, 1, 0, 2, 0)
    p, q = 1, 0
    A = filtered_selfadjoint(GOLDEN, 3, 61, keep=lambda k: k[1] * p != q * k[0])
    B = solve_su2_constraint_for_B(A, phi)
    r1, r2 = su2_constraint_residuals(ConstraintPair(A, B), phi)
    assert r1 <= 1e-12 * max(1.0, l1_norm(A))
    assert r2 <= 1e-12 * max(1.0, l1_norm(A))


def test_su2_pairing_vanishes_on_coercive_monomials():
    for mat in [(1, 0, 2, 0), (1, 1, 1, 1), (2, 1, 4, 2), (0, 1, 0, 3), (1, 2, 2, 4)]:
        phi = su2_from_matrix(GOLDEN, *mat)
        p, q = mat[0], mat[1]
        A = filtered_selfadjoint(GOLDEN, 2, 137 + mat[2],
                                 keep=lambda k: k[1] * p != q * k[0])
        B = solve_su2_constraint_for_B(A, phi)
        val = su2_el_pairing(ConstraintPair(A, B), phi)
        assert abs(val) < 1e-10


def test_su2_pairing_nonzero_for_noncritical_map():
    # equal non-monomial images: (A, A) pairs satisfy both constraints,
    # and the pairing reduces to the chiral current divergence of the image
    from nctorus.models import CoerciveQuadruple

    h = random_selfadjoint(GOLDEN, 1, 7)
    w = mul(exp_i(scale(0.5, h)), monomial(GOLDEN, 1, 0))
    phi = CoerciveQuadruple(1 / math.sqrt(2), 1 / math.sqrt(2), w, w)
    A = random_selfadjoint(GOLDEN, 2, 8)
    r1, r2 = su2_constraint_residuals(ConstraintPair(A, A), phi)
    assert max(r1, r2) < 1e-9
    val = su2_el_pairing(ConstraintPair(A, A), phi)
    assert abs(val) > 1e-6


# ------------------------------------------ trace functionals against products


def _agree(value, oracle, scale_):
    return abs(value - oracle) <= 1e-12 * max(1.0, scale_)


def _trace_functional_cases(theta, s):
    """(name, value, product-formula oracle, scale) for every functional
    that reads tau(ab) through trace_product."""
    p = random_selfadjoint(theta, 2, s)
    h = random_selfadjoint(theta, 1, s + 1)
    W = add(monomial(theta, 1, -1), scale(0.3, random_selfadjoint(theta, 2, s + 2)))
    X = random_selfadjoint(theta, 2, s + 3)
    d1, d2 = delta(1, p), delta(2, p)
    lp = laplacian(p)
    return [
        ("ising_energy", ising_energy(p), ising_energy_by_products(p),
         l1_norm(d1) ** 2 + l1_norm(d2) ** 2),
        ("chern_number", chern_number(p), chern_number_by_products(p),
         2 * l1_norm(p) * l1_norm(d1) * l1_norm(d2)),
        ("chiral_variation_pairing", chiral_variation_pairing(W, h),
         chiral_variation_pairing_by_products(W, h),
         2 * l1_norm(h) * l1_norm(W) * l1_norm(laplacian(W))),
        ("ising_variation_pairing", ising_variation_pairing(p, h),
         ising_variation_pairing_by_products(p, h), 4 * l1_norm(h) * l1_norm(p) * l1_norm(lp)),
        ("current_divergence_pairing", models._current_divergence_pairing(X, W),
         current_divergence_pairing_by_products(X, W),
         l1_norm(X) * l1_norm(W) * l1_norm(laplacian(W)) * 4),
    ]


@seed(29)
@settings(max_examples=15, deadline=None, database=None)
@given(theta=st.floats(0.05, 0.95), s=st.integers(0, 10**6))
def test_trace_functionals_match_their_product_formulas(theta, s):
    for name, value, oracle, scale_ in _trace_functional_cases(theta, s):
        assert _agree(value, oracle, scale_), (name, value, oracle)


@seed(41)
@settings(max_examples=15, deadline=None, database=None)
@given(theta=st.floats(0.05, 0.95), s=st.integers(0, 10**6))
def test_chiral_gradient_matches_its_two_product_formula(theta, s):
    W = add(monomial(theta, 1, -1), scale(0.3, random_selfadjoint(theta, 2, s)))
    g = models._chiral_gradient(W)
    diff = l1_norm(sub(g, chiral_gradient_by_products(W)))
    assert diff <= 1e-12 * max(1.0, 2 * l1_norm(W) * l1_norm(laplacian(W)))
    assert l1_norm(sub(g, adjoint(g))) <= 1e-12 * max(1.0, l1_norm(g))


def test_projection_trace_functionals_match_their_product_formulas():
    p = instanton(THETA, 0.0, TOL, box=6)
    assert _agree(ising_energy(p), ising_energy_by_products(p), 4 * PI)
    assert _agree(chern_number(p), chern_number_by_products(p), 1.0)
    assert chern_number(p) == pytest.approx(-1.0, abs=1e-3)


def test_one_product_chern_number_matches_the_commutator_on_conjugates():
    # tau(p d2 d1) = conj(tau(p d1 d2)) needs p self-adjoint, which ad keeps
    p = instanton(THETA, 0.0, TOL, box=8)
    for w in [(0, 0), (1, 0), (0, 1), (2, -1), (-3, 2)]:
        q = ad(w, p)
        scale_ = 2 * l1_norm(q) * l1_norm(delta(1, q)) * l1_norm(delta(2, q))
        assert _agree(chern_number(q), chern_number_by_products(q), scale_), w
        assert chern_number(q) == pytest.approx(-1.0, abs=1e-6)


# ---------------------------------------------------------- variational checks


def test_first_variation_zero_at_monomials():
    w = monomial(THETA, 1, 2)
    h = random_selfadjoint(THETA, 2, 10)
    fd, pairing = first_variation_check("chiral", w, h, 1e-3)
    assert abs(fd) < 1e-8
    assert abs(pairing) < 1e-10


def test_first_variation_zero_step_direction():
    w = monomial(THETA, 1, 0)
    fd, pairing = first_variation_check("chiral", w, zero(THETA), 1e-3)
    assert fd == 0.0
    assert pairing == 0.0


def test_first_variation_second_order_chiral():
    h = random_selfadjoint(THETA, 2, 20)
    x = mul(exp_i(scale(0.3, random_selfadjoint(THETA, 2, 21))), monomial(THETA, 1, 0))
    errs = []
    for step in (2e-2, 1e-2, 5e-3):
        fd, pairing = first_variation_check("chiral", x, h, step)
        errs.append(abs(fd - pairing))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_first_variation_second_order_ising(inst):
    h = random_selfadjoint(THETA, 2, 33)
    errs = []
    for step in (2e-2, 1e-2):
        fd, pairing = first_variation_check("ising", inst, h, step)
        errs.append(abs(fd - pairing))
    assert errs[0] / errs[1] > 3.5


@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
def test_first_variation_rejects_a_step_that_is_not_finite_and_positive(step):
    # step 0 used to divide by zero, nan gave (nan, 0.0) and inf (0.0, 0.0)
    w = mul(exp_i(random_selfadjoint(THETA, 1, 5), 0.2), monomial(THETA, 1, 0))
    for model in ("chiral", "ising"):
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            first_variation_check(model, w, random_selfadjoint(THETA, 1, 6), step)


def _unpruned_chiral_fd(x, h, step):
    def energy(t):
        return chiral_energy(mul(exp_i(h, t), x))

    return (energy(step) - energy(-step)) / (2.0 * step)


@seed(41)
@settings(max_examples=20, deadline=None, database=None)
@given(theta=st.floats(0.05, 0.95), box=st.sampled_from([1, 2]), s=st.integers(0, 10**6),
       l1=st.floats(0.1, 5.0), m=st.integers(-2, 2), n=st.integers(-2, 2))
def test_chiral_first_variation_prunes_to_the_same_difference(theta, box, s, l1, m, n):
    """W_t is pruned at exp_i's precision before its energy is taken; the
    difference matches the one of the exact products, and the pairing."""
    h0 = random_selfadjoint(theta, box, s)
    x = mul(exp_i(h0, l1 / l1_norm(h0)), monomial(theta, m, n))
    h = random_selfadjoint(theta, 1, s + 1)
    step = 1e-3
    fd, pairing = first_variation_check("chiral", x, h, step)
    assert abs(fd - _unpruned_chiral_fd(x, h, step)) <= 1e-12 * max(1.0, abs(fd))
    assert abs(fd - pairing) <= 10 * step**2 * max(1.0, abs(pairing))


def test_chiral_first_variation_takes_energies_on_the_box_of_x(monkeypatch):
    # the benchmark's box-2 input at l1 4.5: W_t = exp(i t h) x is 63 x 61
    # before pruning, 55 x 53 (the box of x) after
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    h, t, direction = dict(workloads.flow_inputs(1))["box2-l1=4.5-0"]
    x = exp_i(h, t)
    assert x.box.shape == (55, 53)
    assert mul(exp_i(direction, 1e-3), x).box.shape == (63, 61)
    shapes = []

    def spy(W):
        shapes.append(W.box.shape)
        return chiral_energy(W)

    monkeypatch.setattr(models, "chiral_energy", spy)
    first_variation_check("chiral", x, direction, 1e-3)
    assert shapes == [(55, 53), (55, 53)]


def test_descent_rejects_a_nan_rate():
    # used to return four equal energies with stagnated=False
    x = mul(exp_i(random_selfadjoint(THETA, 1, 3), 0.3), monomial(THETA, 1, 0))
    with pytest.raises(ValueError, match="t must be finite"):
        energy_descent(x, 3, rate=math.nan)


def test_descent_fixed_at_critical_point():
    res = energy_descent(monomial(THETA, 1, 0), steps=5, rate=1e-3)
    assert all(abs(e - 4 * PI**2) < 1e-9 for e in res.energies)


def test_descent_zero_rate_identity():
    w = monomial(THETA, 1, 1)
    res = energy_descent(w, steps=3, rate=0.0)
    assert res.x.coeffs == w.coeffs
    assert res.energies == [chiral_energy(w)] + [chiral_energy(w)] * 3


def test_descent_decreases_energy_from_perturbation():
    W = harmonic_from_projection(instanton(THETA, 0.0, TOL, box=6))
    h = random_selfadjoint(THETA, 1, 71)
    x0 = mul(exp_i(scale(0.05, h)), W)
    res = energy_descent(x0, steps=6, rate=1e-4)
    assert res.energies[-1] < res.energies[0]


def test_endo_energy_of_monomial_map():
    phi = endo_from_matrix(THETA, 1, 1, 0, 1)
    assert endo_energy(phi) == pytest.approx(4 * PI**2 * (2 + 1), abs=1e-10)
