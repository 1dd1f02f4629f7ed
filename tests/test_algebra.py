"""Coefficient arithmetic: operation contracts, algebra axioms, oracle agreement."""

import cmath
import math

import numpy as np
import pytest

from nctorus.algebra import (
    CompositionError,
    Tolerance,
    TorusElement,
    add,
    adjoint,
    delta,
    exp_i,
    from_json,
    is_scalar,
    l1_norm,
    laplacian,
    monomial,
    mul,
    norms,
    one,
    prune,
    random_element,
    random_selfadjoint,
    sub,
    to_json,
    trace,
    truncate,
    zero,
)
from oracles import (
    clock_shift,
    matrix_rep,
    matrix_trace,
    oracle_monomial_adjoint,
    oracle_monomial_product,
)

THETA = 0.2
GOLDEN = (math.sqrt(5) - 1) / 2


# ---------------------------------------------------------------- constructors


def test_monomial_identity_and_generators():
    e = monomial(THETA, 0, 0, 1)
    assert e.coeffs == {(0, 0): 1}
    u = monomial(THETA, 1, 0, 1)
    assert u.coeffs == {(1, 0): 1}
    a = monomial(THETA, 2, -3, 1j)
    assert a.coeffs == {(2, -3): 1j}


def test_monomial_zero_coefficient_gives_empty_support():
    assert monomial(THETA, 3, 1, 0).coeffs == {}


def test_constructor_drops_zeros_without_editing_callers_dict():
    d = {(0, 0): 1.5, (1, 2): 0.0}
    e = TorusElement(THETA, d)
    assert d == {(0, 0): 1.5, (1, 2): 0.0}
    assert e.support() == [(0, 0)]


def test_theta_mismatch_raises():
    with pytest.raises(CompositionError):
        mul(one(0.2), one(0.3))
    with pytest.raises(CompositionError):
        add(one(0.2), one(0.2 + 1e-16))


# ------------------------------------------------------------------- products


def test_uv_product_untwisted():
    u, v = monomial(THETA, 1, 0), monomial(THETA, 0, 1)
    assert mul(u, v).coeffs == {(1, 1): 1}


def test_vu_product_picks_up_defining_phase():
    u, v = monomial(THETA, 1, 0), monomial(THETA, 0, 1)
    got = mul(v, u).coeffs[(1, 1)]
    assert got == pytest.approx(cmath.exp(-2j * math.pi * THETA))


def test_u2v_times_uvinv_matches_word_oracle():
    a = monomial(THETA, 2, 1)
    b = monomial(THETA, 1, -1)
    prod = mul(a, b)
    idx, phase = oracle_monomial_product(THETA, 2, 1, 1, -1)
    assert idx == (3, 0)
    assert phase == pytest.approx(cmath.exp(-0.4j * math.pi))
    assert set(prod.coeffs) == {idx}
    assert prod.coeffs[idx] == pytest.approx(phase, abs=1e-14)


@pytest.mark.parametrize("theta", [THETA, GOLDEN])
def test_random_monomial_products_match_word_oracle(theta):
    rng = np.random.default_rng(7)
    for _ in range(40):
        k, l, m, n = (int(x) for x in rng.integers(-4, 5, size=4))
        prod = mul(monomial(theta, k, l), monomial(theta, m, n))
        idx, phase = oracle_monomial_product(theta, k, l, m, n)
        assert set(prod.coeffs) == {idx}
        assert prod.coeffs[idx] == pytest.approx(phase, abs=5e-13)


def test_associativity_to_roundoff():
    tol = Tolerance()
    for seed in range(8):
        a = random_element(THETA, 4, 100 + seed)
        b = random_element(THETA, 4, 200 + seed)
        c = random_element(THETA, 4, 300 + seed)
        lhs = mul(mul(a, b), c)
        rhs = mul(a, mul(b, c))
        assert l1_norm(sub(lhs, rhs)) <= tol.algebraic_eps * max(1.0, l1_norm(lhs))


def test_mul_is_deterministic_bitwise():
    a = random_element(THETA, 4, 11)
    b = random_element(THETA, 4, 12)
    p1, p2 = mul(a, b), mul(a, b)
    assert p1.coeffs == p2.coeffs


def test_vectorized_mul_bit_identical_to_reference():
    from nctorus.algebra import mul_reference

    # large enough supports to engage the dense path
    a = random_element(THETA, 4, 13, terms=40)
    b = random_element(THETA, 4, 14, terms=40)
    assert len(a.coeffs) * len(b.coeffs) > 512
    fast = mul(a, b)
    slow = mul_reference(a, b)
    assert fast.coeffs == slow.coeffs


# ------------------------------------------------------------------ involution


def test_adjoint_examples():
    assert adjoint(one(THETA)).coeffs == {(0, 0): 1}
    assert adjoint(monomial(THETA, 1, 0)).coeffs == {(-1, 0): 1}
    got = adjoint(monomial(THETA, 1, 1))
    idx, phase = oracle_monomial_adjoint(THETA, 1, 1)
    assert idx == (-1, -1)
    assert phase == pytest.approx(cmath.exp(-0.4j * math.pi))
    assert got.coeffs[idx] == pytest.approx(phase, abs=1e-14)


def test_adjoint_is_involutive():
    for seed in range(6):
        a = random_element(THETA, 5, seed)
        assert l1_norm(sub(adjoint(adjoint(a)), a)) <= 1e-14 * max(1.0, l1_norm(a))


def test_adjoint_antihomomorphism():
    for seed in range(6):
        a = random_element(THETA, 4, 40 + seed)
        b = random_element(THETA, 4, 50 + seed)
        lhs = adjoint(mul(a, b))
        rhs = mul(adjoint(b), adjoint(a))
        assert l1_norm(sub(lhs, rhs)) <= 1e-12 * max(1.0, l1_norm(lhs))


def test_monomial_times_adjoint_is_modulus_squared():
    a = monomial(THETA, 3, -2, 1.5 - 2.0j)
    p = mul(a, adjoint(a))
    assert set(p.coeffs) == {(0, 0)}
    assert p.coeffs[(0, 0)] == pytest.approx(abs(1.5 - 2.0j) ** 2)


# ----------------------------------------------------------------------- trace


def test_trace_examples():
    assert trace(one(THETA)) == 1
    assert trace(monomial(THETA, 2, -1)) == 0
    a = add(monomial(THETA, 1, 0), monomial(THETA, 0, 1, 2.0))
    assert trace(mul(a, adjoint(a))) == pytest.approx(5.0)


def test_trace_is_tracial():
    for seed in range(8):
        a = random_element(THETA, 4, 60 + seed)
        b = random_element(THETA, 4, 70 + seed)
        assert abs(trace(mul(a, b)) - trace(mul(b, a))) <= 1e-12


# ------------------------------------------------------------------ derivations


def test_delta_on_generators():
    u, v = monomial(THETA, 1, 0), monomial(THETA, 0, 1)
    assert delta(1, u).coeffs[(1, 0)] == pytest.approx(2j * math.pi)
    assert delta(2, u).coeffs == {}
    assert delta(2, v).coeffs[(0, 1)] == pytest.approx(2j * math.pi)


def test_delta_on_u2v3():
    a = monomial(THETA, 2, 3)
    assert delta(1, a).coeffs[(2, 3)] == pytest.approx(4j * math.pi)
    assert delta(2, a).coeffs[(2, 3)] == pytest.approx(6j * math.pi)


def test_leibniz_rule():
    for seed in range(6):
        a = random_element(THETA, 4, 80 + seed)
        b = random_element(THETA, 4, 90 + seed)
        for j in (1, 2):
            lhs = delta(j, mul(a, b))
            rhs = add(mul(delta(j, a), b), mul(a, delta(j, b)))
            assert l1_norm(sub(lhs, rhs)) <= 1e-10 * max(1.0, l1_norm(lhs))


def test_derivation_kills_trace():
    for seed in range(4):
        a = random_element(THETA, 4, 17 + seed)
        assert trace(delta(1, a)) == 0
        assert trace(delta(2, a)) == 0


def test_laplacian_values():
    assert laplacian(one(THETA)).coeffs == {}
    assert laplacian(monomial(THETA, 1, 0)).coeffs[(1, 0)] == pytest.approx(-4 * math.pi**2)
    assert laplacian(monomial(THETA, 1, 1)).coeffs[(1, 1)] == pytest.approx(-8 * math.pi**2)


# ---------------------------------------------------------------------- norms


def test_norms_examples():
    assert norms(zero(THETA)) == (0.0, 0.0)
    assert norms(monomial(THETA, 4, -7)) == (1.0, 1.0)
    got = norms(add(monomial(THETA, 1, 0), monomial(THETA, 0, 1)))
    assert got[0] == pytest.approx(2.0)
    assert got[1] == pytest.approx(math.sqrt(2.0))


def test_gns_dominated_by_l1():
    for seed in range(6):
        a = random_element(THETA, 5, 500 + seed, terms=9)
        l1, gns = norms(a)
        assert gns <= l1 + 1e-15


# ------------------------------------------------------- random inputs, scalars


def test_random_selfadjoint_box_zero_is_real_scalar():
    h = random_selfadjoint(THETA, 0, seed=3)
    assert set(h.coeffs) <= {(0, 0)}
    assert abs(h.coeffs.get((0, 0), 0).imag) == 0


def test_random_selfadjoint_is_selfadjoint_and_deterministic():
    h1 = random_selfadjoint(THETA, 3, seed=42)
    h2 = random_selfadjoint(THETA, 3, seed=42)
    assert h1.coeffs == h2.coeffs
    # phase recomputation in adjoint costs at most an ulp per coefficient
    assert l1_norm(sub(h1, adjoint(h1))) <= 1e-14 * (1.0 + l1_norm(h1))


def test_is_scalar():
    tol = Tolerance()
    assert is_scalar(monomial(THETA, 0, 0, 3j), tol)
    assert not is_scalar(monomial(THETA, 1, 0), tol)
    nearly = add(one(THETA), monomial(THETA, 0, 1, 1e-15))
    assert is_scalar(nearly, tol)


# --------------------------------------------------------- truncation, exp, io


def test_truncate_records_tail_mass():
    a = add(monomial(THETA, 5, 0, 0.25), monomial(THETA, 1, 1, 1.0))
    t = truncate(a, 2)
    assert set(t.coeffs) == {(1, 1)}
    assert t.tail_l1 == pytest.approx(0.25)


def test_prune_keeps_dominant_terms():
    a = add(monomial(THETA, 0, 0, 1.0), monomial(THETA, 2, 2, 1e-18))
    p = prune(a, 1e-16)
    assert set(p.coeffs) == {(0, 0)}
    assert p.tail_l1 == pytest.approx(1e-18)


def test_exp_i_produces_unitary():
    h = random_selfadjoint(THETA, 2, seed=9)
    w = exp_i(h, 0.7)
    defect = sub(mul(adjoint(w), w), one(THETA))
    assert l1_norm(defect) < 1e-11


def test_json_round_trip_bit_exact():
    a = random_element(THETA, 4, 123, terms=7)
    b = from_json(to_json(a))
    assert b.theta == a.theta
    assert b.coeffs == a.coeffs


def test_json_coefficients_sorted():
    import json

    a = add(monomial(THETA, 2, 0, 1.0), monomial(THETA, -1, 3, 2.0))
    rows = json.loads(to_json(a))["coeffs"]
    assert rows == sorted(rows)


# -------------------------------------------------------- clock-and-shift oracle


def test_clock_shift_satisfies_relation():
    q = 7
    clock, shift = clock_shift(q)
    lhs = clock @ shift
    rhs = np.exp(2j * np.pi / q) * shift @ clock
    assert np.abs(lhs - rhs).max() < 1e-14


def test_matrix_rep_is_multiplicative_at_rational_theta():
    q = 7
    theta = 1.0 / q
    rng = np.random.default_rng(2024)
    for _ in range(30):
        a = random_element(theta, q - 1, int(rng.integers(1 << 30)), terms=5)
        b = random_element(theta, q - 1, int(rng.integers(1 << 30)), terms=5)
        lhs = matrix_rep(mul(a, b), q)
        rhs = matrix_rep(a, q) @ matrix_rep(b, q)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_trace_matches_matrix_trace_inside_fundamental_box():
    q = 7
    theta = 1.0 / q
    rng = np.random.default_rng(99)
    for _ in range(30):
        a = random_element(theta, q - 1, int(rng.integers(1 << 30)), terms=6)
        assert abs(trace(a) - matrix_trace(matrix_rep(a, q))) < 1e-12


def test_product_trace_matches_matrices_when_sumset_avoids_lattice():
    # products of (-3,3)^2-supported factors stay inside (-6,6)^2, where the
    # only lattice point of q Z^2 is the origin
    q = 7
    theta = 1.0 / q
    rng = np.random.default_rng(31)
    for _ in range(30):
        a = random_element(theta, 3, int(rng.integers(1 << 30)), terms=5)
        b = random_element(theta, 3, int(rng.integers(1 << 30)), terms=5)
        lhs = trace(mul(a, b))
        rhs = matrix_trace(matrix_rep(a, q) @ matrix_rep(b, q))
        assert abs(lhs - rhs) < 1e-12
