"""Coefficient arithmetic: operation contracts, algebra axioms, oracle agreement."""

import cmath
import copy
import json
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from nctorus.algebra import (
    DEFAULT_TOL,
    MAX_BOX_CELLS,
    MAX_INDEX,
    CompositionError,
    ConvergenceError,
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
    mul_reference,
    norms,
    one,
    phases,
    prune,
    random_element,
    random_selfadjoint,
    scale,
    sub,
    to_json,
    trace,
    trace_product,
    truncate,
    zero,
)
from nctorus.heisenberg import build_instanton
from nctorus.suites import clock_shift_rep
from nctorus.symmetry import ad
from oracles import (
    ad_dict,
    add_dict,
    adjoint_dict,
    clock_shift,
    delta_dict,
    exp_i_dict,
    is_scalar_dict,
    laplacian_dict,
    matrix_rep,
    matrix_trace,
    mul_cell,
    norms_dict,
    oracle_monomial_adjoint,
    oracle_monomial_product,
    prune_dict,
    scale_dict,
    sub_dict,
    truncate_dict,
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

    a = random_element(THETA, 4, 13, terms=40)
    b = random_element(THETA, 4, 14, terms=40)
    assert len(a.coeffs) * len(b.coeffs) > 512
    fast = mul(a, b)
    slow = mul_reference(a, b)
    assert fast.coeffs == slow.coeffs


ACROSS = settings(max_examples=20, deadline=None, database=None)
THETA_RANGE = st.floats(0.05, 0.95)


def _box_element(theta, rows, cols, terms, seed_):
    """Random element with `terms` terms on the box rows x cols, keeping its
    two corners so that its dense box is exactly rows x cols."""
    rng = np.random.default_rng(seed_)
    cells = [(m, n) for m in rows for n in cols]
    corners = [cells[0], cells[-1]]
    rest = [cells[i] for i in rng.permutation(len(cells) - 2) + 1][:terms - 2]
    return TorusElement(theta, {k: complex(rng.standard_normal(), rng.standard_normal())
                                for k in corners + rest})


@seed(17)
@ACROSS
@given(theta=THETA_RANGE, s=st.integers(0, 10**6))
def test_mul_bit_identical_to_reference_on_both_paths(theta, s):
    """Large x small and small x large, a right operand with about half the
    terms of the left on one box, and two operands of nearly the same size
    in either order: the shapes that once took different numpy step loops.
    Every operand has negative indices."""
    big = _box_element(theta, range(-7, 6), range(-5, 8), 120, s)
    small = _box_element(theta, range(-1, 2), range(-2, 1), 7, s + 1)
    near = _box_element(theta, range(-7, 6), range(-5, 8), 116, s + 2)
    half = _box_element(theta, range(-7, 6), range(-5, 8), 60, s + 3)
    for a, b in [(big, small), (small, big), (big, half), (big, near), (near, big)]:
        assert mul(a, b).coeffs == mul_reference(a, b).coeffs


def test_near_tie_products_take_the_block_path():
    """The instanton's p Lap p and Lap p p, operands of the same size, and
    exp_i's products of a box-19 element with a 3 x 3 one.  The first two
    are too large for the pure-Python reference, so their (0, 0) cells are
    checked against trace_product, which adds in the same order."""
    p = build_instanton(0.2, 0.0, DEFAULT_TOL, box=32).projection
    lp = laplacian(p)
    assert trace(mul(p, lp)) == trace_product(p, lp)
    assert trace(mul(lp, p)) == trace_product(lp, p)
    large = _box_element(0.2, range(-9, 10), range(-9, 10), 361, 5)
    h = _box_element(0.2, range(-1, 2), range(-1, 2), 9, 6)
    assert mul(large, h).coeffs == mul_reference(large, h).coeffs
    assert mul(h, large).coeffs == mul_reference(h, large).coeffs


@seed(19)
@ACROSS
@given(theta=THETA_RANGE, s=st.integers(0, 10**6))
def test_mul_bit_identical_to_reference_across_the_path_threshold(theta, s):
    """A right operand of 32 and of 33 terms on a 7 x 7 box against a left
    one of 40 terms on 11 x 11: the two sides of the former switch between
    numpy step loops.  Both products, in both orders, match the reference."""
    a = _box_element(theta, range(-5, 6), range(-6, 5), 40, s)
    rows, cols = range(-3, 4), range(-4, 3)
    for terms in (32, 33):
        right = _box_element(theta, rows, cols, terms, s + 1)
        assert mul(a, right).coeffs == mul_reference(a, right).coeffs
        assert mul(right, a).coeffs == mul_reference(right, a).coeffs


def _kernel_operand(rng, theta, shape):
    """Random element filling about 60 % of a box of the given shape, corners
    kept, at an offset that may be negative.  Its parts have moduli over 40
    decades, and three cells in five have a zero part: -0.0 in two of them."""
    h, w = shape
    m0, n0 = (int(v) for v in rng.integers(-8, 3, size=2))
    keep = rng.random((h, w)) < 0.6
    keep[0, 0] = keep[-1, -1] = True
    out = {}
    for i, j in zip(*np.nonzero(keep)):
        re, im = rng.standard_normal(2) * 10.0 ** rng.uniform(-20, 20, size=2)
        kind = rng.integers(5)
        if kind == 0:
            re = -0.0
        elif kind == 1:
            im = -0.0
        elif kind == 2:
            re = 0.0
        out[(m0 + int(i), n0 + int(j))] = complex(re, im)
    return TorusElement(theta, out)


def _same_product(a, b):
    """mul and mul_reference give the same keys, in the same order, with the
    same value reprs (sign of zero included)."""
    got, want = mul(a, b), mul_reference(a, b)
    return (list(got.coeffs) == list(want.coeffs)
            and [repr(c) for c in got.coeffs.values()] == [repr(c) for c in want.coeffs.values()])


# 1 x 1, single rows and columns, exp_i's 3 x 3 and a large box
KERNEL_SHAPES = [(1, 1), (1, 9), (8, 1), (3, 3), (5, 7), (17, 15)]


@seed(29)
@settings(max_examples=15, deadline=None, database=None)
@given(theta=THETA_RANGE, s=st.integers(0, 10**6))
def test_mul_kernel_is_the_reference_bit_for_bit(theta, s):
    """Every ordered pair of shapes, large x 3 x 3 and 3 x 3 x large among
    them, and a product with exact cancellations: (c - c U) b, where b has
    two equal adjacent rows, cancels along one row of the result."""
    rng = np.random.default_rng(s)
    ops = [_kernel_operand(rng, theta, shape) for shape in KERNEL_SHAPES]
    for a in ops:
        for b in ops:
            assert _same_product(a, b)
    c = complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-20, 20)
    k = int(rng.integers(-5, 5))
    a = TorusElement(theta, {(k, 0): c, (k + 1, 0): -c})
    rows = dict(_kernel_operand(rng, theta, (5, 7)).coeffs)
    m0 = min(m for m, _ in rows)
    rows.update({(m + 1, n): v for (m, n), v in rows.items() if m == m0})
    b = TorusElement(theta, rows)
    sumset = {(p + m, q + n) for p, q in a.coeffs for m, n in b.coeffs}
    assert len(mul_reference(a, b).coeffs) < len(sumset)
    assert _same_product(a, b)


def test_mul_kernel_spreads_non_finite_cells_as_the_reference_does():
    """A non-finite left cell meets only the right operand's nonzero cells,
    as in mul_reference; inf times a zero cell would put NaN elsewhere."""
    a = TorusElement(THETA, {(0, 0): complex(math.inf, 1.0), (0, 2): complex(1.0, math.nan),
                             (1, 1): 2.0 - 1j})
    b = TorusElement(THETA, {(-1, 0): 1.0 + 1j, (1, 2): -0.5j, (0, 1): complex(0.0, -math.inf)})
    assert _same_product(a, b) and _same_product(b, a)


def _diamond(rng, theta, radius):
    """Random coefficients on |m| + |n| <= radius around a random centre: the
    shape of the instanton's support."""
    m0, n0 = (int(v) for v in rng.integers(-4, 5, size=2))
    return TorusElement(theta, {(m0 + m, n0 + n): complex(*rng.standard_normal(2))
                                for m in range(-radius, radius + 1)
                                for n in range(-radius + abs(m), radius - abs(m) + 1)})


def _ragged(rng, theta, non_finite=False):
    """Rows whose nonzero spans start and end at different columns, a quarter
    of them single cells, holes inside the spans, and one all-zero row and
    one all-zero column inside the box (its two corners are kept).  With
    non_finite, up to three nonzero cells become NaN or +-inf in one part."""
    h, w = (int(v) for v in rng.integers(3, 9, size=2))
    box = np.zeros((h, w), dtype=complex)
    for i in range(h):
        lo = int(rng.integers(w))
        hi = lo + 1 if rng.random() < 0.25 else int(rng.integers(lo + 1, w + 1))
        row = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
        holes = rng.random(hi - lo) < 0.3
        holes[[0, -1]] = False
        row[holes] = 0
        box[i, lo:hi] = row
    box[int(rng.integers(1, h - 1)), :] = 0
    box[:, int(rng.integers(1, w - 1))] = 0
    box[0, 0], box[-1, -1] = 1.0 - 0.5j, -0.25 + 2j
    if non_finite:
        rows, cols = np.nonzero(box)
        for k in rng.choice(len(rows), size=min(3, len(rows)), replace=False):
            bad = [math.nan, math.inf, -math.inf][int(rng.integers(3))]
            x = box[rows[k], cols[k]]
            x = complex(bad, x.imag) if rng.random() < 0.5 else complex(x.real, bad)
            box[rows[k], cols[k]] = x
    m0, n0 = (int(v) for v in rng.integers(-6, 3, size=2))
    return TorusElement.from_box(theta, (m0, n0), box)


@seed(47)
@settings(max_examples=12, deadline=None, database=None)
@given(theta=st.floats(0.02, 0.98, exclude_min=True, exclude_max=True), s=st.integers(0, 10**6))
def test_mul_kernel_keeps_the_bits_on_ragged_supports(theta, s):
    """The kernel walks each row of b over its nonzero span only.  Diamonds,
    ragged spans with holes, single-cell rows, an all-zero row and column,
    and NaN and +-inf left cells that meet the right operand's holes: each
    product, in both orders, is mul_reference's."""
    rng = np.random.default_rng(s)
    ops = [_diamond(rng, theta, int(rng.integers(1, 6))), _ragged(rng, theta), _ragged(rng, theta)]
    bad = _ragged(rng, theta, non_finite=True)
    for a in ops + [bad]:
        for b in ops:
            assert _same_product(a, b) and _same_product(b, a)


def test_instanton_products_match_the_per_cell_oracle():
    """200 seeded cells of the box-32 instanton's p p and p Lap p, half of
    them at the ends of the rows' nonzero spans (the diamond's edge), against
    oracles.mul_cell; mul_reference itself would take 3.5 M Python steps per
    product."""
    p = build_instanton(0.2, 0.0, DEFAULT_TOL, box=32).projection
    rng = np.random.default_rng(53)
    for a, b in ((p, p), (p, laplacian(p))):
        product = mul(a, b)
        keys = list(product.coeffs)
        rows = {}
        for key in keys:
            rows.setdefault(key[0], []).append(key)
        edge = [k for row in rows.values() for k in (row[0], row[-1])]
        picked = [edge[i] for i in rng.choice(len(edge), 50, replace=False)]
        picked += [keys[i] for i in rng.choice(len(keys), 50, replace=False)]
        acoeffs, bcoeffs = dict(a.coeffs), dict(b.coeffs)
        for key in picked:
            want = complex(mul_cell(a.theta, acoeffs, bcoeffs, key))
            got = product.coeffs[key]
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), key


def test_mul_scratch_is_one_row_of_b():
    """A 1 x 200 by 200 x 200 product holds the output box, the phase table
    and one row of b; a scratch of aw x bh x bw cells would be 128 MB."""
    a = TorusElement(THETA, {(0, 0): 1.0, (0, 199): 2.0j})
    b = TorusElement(THETA, {(0, 0): 0.5, (199, 199): -1.0, (100, 7): 3.0})
    out_bytes, table_bytes = 200 * 399 * 16, 200 * 200 * 16
    tracemalloc.start()
    try:
        got = mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table is formed from an index array and a complex temporary
    assert peak < out_bytes + 3 * table_bytes
    assert _same_product(a, b) and got.box.shape == (200, 399)


@seed(23)
@ACROSS
@given(theta=THETA_RANGE, s=st.integers(0, 10**6), ta=st.integers(1, 60), tb=st.integers(1, 60))
def test_trace_product_is_trace_of_the_product(theta, s, ta, tb):
    a = random_element(theta, 4, s, terms=ta)
    b = random_element(theta, 4, s + 1, terms=tb)
    tp = trace_product(a, b)
    assert tp == trace(mul_reference(a, b))
    assert abs(tp - trace_product(b, a)) <= 1e-12 * max(1.0, l1_norm(a) * l1_norm(b))


@seed(43)
@settings(max_examples=200, deadline=None, database=None)
@given(theta=st.floats(-0.99, 0.99),
       ks=st.lists(st.integers(-(1 << 20), 1 << 20), min_size=1, max_size=30))
@example(theta=THETA, ks=[0, 1, -1, 1 << 20, -(1 << 20)])
@example(theta=-0.0, ks=[0, -7])
def test_phases_are_cmath_exp_bit_for_bit(theta, ks):
    """numpy's exp in phases rounds like cmath.exp, signed zeros included:
    mul, adjoint, trace_product and symmetry.ad keep their bits on it."""
    got = phases(theta, np.array(ks).reshape(1, -1))
    assert got.shape == (1, len(ks)) and got.flags.c_contiguous
    for k, z in zip(ks, got[0].tolist()):
        want = cmath.exp(-2j * math.pi * theta * k)
        assert (z.real.hex(), z.imag.hex()) == (want.real.hex(), want.imag.hex()), k


def test_trace_product_examples():
    a = monomial(THETA, 1, 2, 3.0)
    assert trace_product(a, monomial(THETA, 1, -2, 1j)) == 0
    assert trace_product(a, zero(THETA)) == 0
    assert trace_product(a, monomial(THETA, -1, -2, 1j)) == pytest.approx(
        3j * cmath.exp(2j * math.pi * THETA * 2))
    with pytest.raises(CompositionError):
        trace_product(one(0.2), one(0.3))
    # the only term has real part -0.0; the sum starts at +0.0, as in mul
    b = monomial(THETA, 0, 0, complex(-0.0, 1.0))
    assert repr(trace_product(one(THETA), b)) == repr(trace(mul_reference(one(THETA), b))) == "1j"


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


@seed(41)
@settings(max_examples=30, deadline=None, database=None)
@given(theta=THETA_RANGE, s=st.integers(0, 10**6), shape=st.sampled_from(KERNEL_SHAPES))
def test_l1_norm_is_the_l1_part_of_norms(theta, s, shape):
    a = _kernel_operand(np.random.default_rng(s), theta, shape)
    assert l1_norm(a).hex() == norms(a)[0].hex()


def test_l1_norm_of_a_huge_coefficient_is_finite_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert l1_norm(monomial(THETA, 2, -1, 1e200j)) == 1e200
        assert l1_norm(add(monomial(THETA, 0, 0, 1e200), monomial(THETA, 1, 0, -3e200))) == 4e200


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


def test_prune_keeps_dominant_terms():
    a = add(monomial(THETA, 0, 0, 1.0), monomial(THETA, 2, 2, 1e-18))
    p = prune(a, 1e-16)
    assert set(p.coeffs) == {(0, 0)}


def test_exp_i_produces_unitary():
    h = random_selfadjoint(THETA, 2, seed=9)
    w = exp_i(h, 0.7)
    defect = sub(mul(adjoint(w), w), one(THETA))
    assert l1_norm(defect) < 1e-11


def test_exp_i_raises_when_the_series_hits_its_cap():
    h = random_selfadjoint(THETA, 2, seed=9)
    with pytest.raises(ConvergenceError, match="not converged after 3 terms"):
        exp_i(h, max_order=3)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_exp_i_rejects_a_non_finite_t(t):
    # prune drops non-finite cells, so the series used to stop on an empty
    # term and return the identity
    h = random_selfadjoint(THETA, 1, seed=3)
    with pytest.raises(ValueError, match="t must be finite"):
        exp_i(h, t)


def test_exp_i_rejects_a_non_finite_coefficient():
    # used to return a unitary-looking 31-term element without that cell
    h = random_selfadjoint(THETA, 1, seed=3)
    box = h.box.copy()
    box[1, 1] = complex(math.nan, 0.0)
    with pytest.raises(ValueError, match="non-finite coefficients"):
        exp_i(TorusElement.from_box(THETA, h.offset, box), 0.5)


def test_exp_i_raises_at_the_first_non_finite_term():
    # used to return 1 + i t h, nine coefficients of size ~1e299
    h = random_selfadjoint(THETA, 1, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="term of order 2 is not finite"):
            exp_i(h, 1e300)


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


def test_suite_clock_shift_rep_matches_the_oracle():
    # indices in [-(q + 2), q + 2]^2: negative powers, and powers past q
    negative = False
    for q in (3, 5, 7):
        for k in range(20):
            a = random_element(1.0 / q, q + 2, 500 + k, terms=8)
            negative = negative or any(m < 0 or n < 0 for m, n in a.coeffs)
            assert np.abs(clock_shift_rep(a, q) - matrix_rep(a, q)).max() < 1e-12
    assert negative


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


# ------------------------------------------------ array form against dict oracles


def _bits(items):
    return [(k, c.real.hex(), c.imag.hex()) for k, c in items]


def _same(el, coeffs):
    """el holds exactly coeffs: the same keys, in ascending order, with the
    same value bits (sign of zero included)."""
    return _bits(el.coeffs.items()) == _bits(sorted(coeffs.items()))


def _tricky_pair(theta, s):
    """Two overlapping elements whose coefficients have moduli over 40
    decades, a signed zero in one part, and exact cancellations between
    the two."""
    rng = np.random.default_rng(s)

    def coeffs(cells):
        out = {}
        for k in cells:
            re, im = rng.standard_normal(2) * 10.0 ** rng.integers(-30, 10, size=2)
            kind = rng.integers(5)
            if kind == 0:
                re = -0.0
            elif kind == 1:
                im = -0.0
            elif kind == 2:
                re = 0.0
            out[k] = complex(re, im)
        return out

    cells = list(dict.fromkeys((int(m), int(n)) for m, n in rng.integers(-4, 5, size=(14, 2))))
    a = coeffs(cells[:9])
    b = coeffs(cells[5:])
    for k in cells[5:7]:
        b[k] = -a[k]
    return TorusElement(theta, a), TorusElement(theta, b)


@seed(31)
@settings(max_examples=60, deadline=None, database=None)
@given(theta=THETA_RANGE, s=st.integers(0, 10**6))
def test_coefficientwise_ops_match_the_dict_oracles(theta, s):
    """Each array expression against the loop it replaced, on dicts read in
    row-major order: equal keys, key order and value bits, and equal norms,
    which both add in that same order."""
    a, b = _tricky_pair(theta, s)
    da, db = dict(a.coeffs), dict(b.coeffs)
    assert _same(add(a, b), add_dict(da, db)) and _same(add(b, a), add_dict(db, da))
    assert _same(sub(a, b), sub_dict(da, db)) and _same(sub(b, a), sub_dict(db, da))
    for c in (2.5, -1.0, 3, 1j, 0.3 - 0.7j, 0):
        assert _same(scale(c, a), scale_dict(c, da))
    assert _same(adjoint(a), adjoint_dict(theta, da))
    for j in (1, 2):
        assert _same(delta(j, a), delta_dict(j, da))
    assert _same(laplacian(a), laplacian_dict(da))
    assert norms(a) == norms_dict(da)
    assert is_scalar(a) == is_scalar_dict(da, DEFAULT_TOL.algebraic_eps)
    for box in (0, 1, 3, 5):
        kept, _ = truncate_dict(da, box)
        assert _same(truncate(a, box), kept)
    for rel in (1e-25, 1e-16, 1e-3):
        kept, _ = prune_dict(da, rel)
        assert _same(prune(a, rel), kept)
    for w in [(0, 0), (1, 0), (0, 1), (2, -3)]:
        assert _same(ad(w, a), ad_dict(theta, w, da))


@seed(37)
@settings(max_examples=10, deadline=None, database=None)
@given(theta=THETA_RANGE, s=st.integers(0, 10**6), t=st.floats(0.05, 0.8))
# l1(t h) = 10.0: 35 orders, the running sum's box growing from 1 x 1 to 47 x 47
@example(theta=THETA, s=0, t=6.5)
def test_exp_i_matches_the_dict_series(theta, s, t):
    h = random_selfadjoint(theta, 1, s)
    w = exp_i(h, t)
    coeffs, _ = exp_i_dict(theta, dict(h.coeffs), t)
    assert _same(w, coeffs)


def test_coeffs_is_a_read_only_row_major_view():
    e = TorusElement(THETA, {(2, -1): 1.0, (-1, 3): 2j, (0, 0): 0.5, (2, -3): -1.0})
    assert list(e.coeffs) == [(-1, 3), (0, 0), (2, -3), (2, -1)]
    assert len(e.coeffs) == 4 and (0, 0) in e.coeffs and (1, 1) not in e.coeffs
    assert e.coeffs == {(2, -1): 1, (-1, 3): 2j, (0, 0): 0.5, (2, -3): -1}
    assert e.coeffs.get((1, 1), 7) == 7
    assert e.coeffs is e.coeffs and e.support() == list(e.coeffs)
    with pytest.raises(TypeError):
        e.coeffs[(0, 0)] = 3.0
    with pytest.raises(ValueError):
        e.box[0, 0] = 3.0
    with pytest.raises(AttributeError):
        e.theta = 0.3
    assert trace(e) == 0.5
    for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert _bits(twin.coeffs.items()) == _bits(e.coeffs.items())


def test_repr_lists_the_first_eight_terms_in_row_major_order():
    e = random_element(THETA, 3, 5, terms=12)
    assert repr(e) == (
        "TorusElement(theta=0.2, {(-2,0): 1.60002+0.202882j, (-2,3): 0.272769-1.23333j, "
        "(-1,0): -1.04793-0.39619j, (-1,1): 0.829855-1.64302j, (0,-1): -0.78478+0.748746j, "
        "(0,3): -0.980747-0.173155j, (1,-1): 1.13605+0.109706j, (1,1): -0.488006-0.713313j, "
        "... (12 terms)})")


def test_box_is_cropped_to_the_support():
    a = TorusElement(THETA, {(-3, 2): 1e-20, (0, 0): 1.0, (1, -1): 0.5, (2, 4): 1e-19})
    assert (a.offset, a.box.shape) == ((-3, -1), (6, 6))
    p = prune(a, 1e-16)
    assert (p.offset, p.box.shape) == ((0, -1), (2, 2))
    assert p.support() == [(0, 0), (1, -1)]
    assert (p.box[0, 0], p.box[1, 1]) == (0, 0)
    # a cancellation on the rim shrinks the box as well
    s = sub(p, monomial(THETA, 1, -1, 0.5))
    assert (s.offset, s.box.shape) == ((0, 0), (1, 1))


def test_bounding_box_limit_rejects_outside_input():
    side = int(math.isqrt(MAX_BOX_CELLS)) + 1
    text = json.dumps({"theta": THETA, "coeffs": [[0, 0, 1.0, 0.0], [side, side, 1.0, 0.0]]})
    with pytest.raises(ValueError, match="exceeds"):
        from_json(text)
    with pytest.raises(ValueError):
        TorusElement(THETA, {(0, 0): 1.0, (2**40, -(2**40)): 1.0})
    with pytest.raises(ValueError):
        TorusElement(THETA, {(2**70, 0): 1.0})
    # a product whose box would pass the limit fails before allocating it
    row = TorusElement(THETA, {(0, 50 * k): 1.0 for k in range(side // 50 + 2)})
    col = TorusElement(THETA, {(50 * k, 0): 1.0 for k in range(side // 50 + 2)})
    with pytest.raises(ValueError, match="exceeds"):
        mul(row, col)


def test_indices_past_max_index_are_rejected():
    """Past |m|, |n| = 2**26 a lattice product l m leaves phases' exact range
    (and at 2**32 wraps in int64, giving the phase of k = 0)."""
    big = 2**32
    with pytest.raises(ValueError, match="outside"):
        mul(monomial(THETA, 0, big), monomial(THETA, big, 0))
    with pytest.raises(ValueError, match="outside"):
        adjoint(monomial(THETA, big, big))
    for m, n in [(MAX_INDEX + 1, 0), (0, MAX_INDEX + 1), (-MAX_INDEX - 1, 0), (0, -MAX_INDEX - 1)]:
        with pytest.raises(ValueError, match="outside"):
            TorusElement(THETA, {(m, n): 1.0})
        with pytest.raises(ValueError, match="outside"):
            TorusElement.from_box(THETA, (m, n), np.ones((1, 1), dtype=complex))
        with pytest.raises(ValueError, match="outside"):
            ad((m, n), monomial(THETA, 1, 1))
    # the bound applies to the cropped box: a zero row past it is no index
    box = np.array([[1.0], [0.0]], dtype=complex)
    assert TorusElement.from_box(THETA, (MAX_INDEX, 0), box).offset == (MAX_INDEX, 0)
    # at the bound every product is exact: k = l m = 2**52 here
    a, b = monomial(THETA, 0, MAX_INDEX, 0.6 + 0.8j), monomial(THETA, MAX_INDEX, 0, -0.5j)
    assert _same_product(a, b) and _same_product(b, a)
    w = monomial(THETA, MAX_INDEX, -MAX_INDEX, 0.3 - 0.4j)
    assert _same(adjoint(w), adjoint_dict(THETA, dict(w.coeffs)))
    x, corner = monomial(THETA, MAX_INDEX, MAX_INDEX, 0.3 - 0.4j), (MAX_INDEX, -MAX_INDEX)
    assert _same(ad(corner, x), ad_dict(THETA, corner, x.coeffs))  # n a - m b = -2**53
    assert trace_product(a, b) == 0j and trace_product(w, adjoint(w)) == trace(mul(w, adjoint(w)))
