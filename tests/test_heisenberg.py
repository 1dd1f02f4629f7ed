"""Bimodule actions, inner products, inversion, and the projection pipeline."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from nctorus import heisenberg as hb
from nctorus.algebra import (
    CompositionError,
    ConvergenceError,
    Tolerance,
    TorusElement,
    add,
    adjoint,
    gns_norm,
    l1_norm,
    monomial,
    mul,
    one,
    sub,
    trace,
)
from nctorus.heisenberg import (
    Gaussian,
    NotInvertibleError,
    Sampled,
    SchwartzVector,
    act_left,
    act_right,
    as_sampled,
    build_instanton,
    dual_theta,
    evaluate,
    gaussian_ode_residual,
    gaussian_vector,
    inner_A,
    inner_B,
    instanton,
    invert_positive,
    invert_positive_with_stats,
)
from nctorus.heisenberg import _monomial_act_gaussian, _overlap_matrix, _to_element
from oracles import truncate_dict

TOL = Tolerance()
THETAS = [0.15, 0.2, 0.3]
GRID = dict(L=15.0, points=1201)  # aligned with 1 and with all test thetas


def random_gaussian(theta, rng, width_lo=0.8, width_hi=3.0):
    w = float(rng.uniform(width_lo, width_hi))
    lam = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.8, 0.8))
    C = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5))
    return gaussian_vector(theta, lam=lam, C=C, width=w)


def sup_diff(x, y):
    tx, ty = as_sampled(x, **GRID), as_sampled(y, **GRID)
    return float(np.abs(tx.kind.values - ty.kind.values).max())


# -------------------------------------------------------------------- actions


def test_act_left_identity():
    xi = gaussian_vector(0.2, lam=0.3 + 0.1j)
    out = act_left(one(0.2), xi)
    assert sup_diff(out, xi) < 1e-15


def test_act_left_u_recenters_gaussian():
    theta = 0.2
    xi = gaussian_vector(theta, lam=0.0, C=1.3)
    out = act_left(monomial(theta, 1, 0), xi)
    t = np.linspace(-5, 5, 301)
    expected = 1.3 * np.exp(-np.pi * theta * (t + theta) ** 2)
    assert np.abs(evaluate(out, t) - expected).max() < 1e-12


def test_act_left_defining_relation_pointwise():
    theta = 0.2
    rng = np.random.default_rng(5)
    xi = random_gaussian(theta, rng)
    u, v = monomial(theta, 1, 0), monomial(theta, 0, 1)
    uv = act_left(u, act_left(v, xi))
    vu = act_left(v, act_left(u, xi))
    scaled = SchwartzVector(theta, Gaussian(vu.kind.C * np.exp(2j * np.pi * theta),
                                            vu.kind.theta, vu.kind.lam))
    assert sup_diff(uv, scaled) < 1e-12


def test_act_right_identity_and_u1():
    theta = 0.25
    xi = gaussian_vector(theta, C=0.9)
    assert sup_diff(act_right(xi, one(dual_theta(theta))), xi) < 1e-15
    out = act_right(xi, monomial(dual_theta(theta), 1, 0))
    t = np.linspace(-5, 5, 301)
    expected = 0.9 * np.exp(-np.pi * theta * (t + 1) ** 2)
    assert np.abs(evaluate(out, t) - expected).max() < 1e-12


def test_right_action_relation_forces_dual_twist():
    # xi . (U1 V1) must equal exp(-2 pi i / theta) xi . (V1 U1); theta = 0.3
    # keeps the dual parameter -10/3 away from the integers
    theta = 0.3
    xi = gaussian_vector(theta, lam=0.1)
    td = dual_theta(theta)
    u1, v1 = monomial(td, 1, 0), monomial(td, 0, 1)
    lhs = as_sampled(act_right(xi, mul(u1, v1)), **GRID)
    rhs = as_sampled(act_right(xi, mul(v1, u1)), **GRID)
    ratio = np.exp(-2j * np.pi / theta)
    diff = lhs.kind.values - ratio * rhs.kind.values
    assert np.abs(diff).max() < 1e-12


@pytest.mark.parametrize("theta", THETAS)
def test_left_and_right_actions_commute(theta):
    rng = np.random.default_rng(17)
    xi = random_gaussian(theta, rng)
    a = monomial(theta, 1, -1, 0.7 + 0.2j)
    b = monomial(dual_theta(theta), -1, 1, 1.1 - 0.4j)
    lhs = act_left(a, act_right(xi, b, **GRID), **GRID)
    rhs = act_right(act_left(a, xi, **GRID), b, **GRID)
    assert sup_diff(lhs, rhs) < TOL.quadrature_eps


def test_multi_term_action_lands_on_grid():
    theta = 0.2
    xi = gaussian_vector(theta)
    a = one(theta) + monomial(theta, 1, 0, 0.5)
    out = act_left(a, xi)
    assert isinstance(out.kind, Sampled)


# ------------------------------------------------------- both sides across theta

ACROSS = settings(max_examples=25, deadline=None, database=None)
THETA_RANGE = st.floats(0.05, 0.95)
INDEX = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
STEP_GRID = dict(L=10.0, points=401)  # step 0.05, so a shift by 1 is exact


def side(theta, right):
    """(parameter of the acting algebra, act(a, xi)) for one side."""
    if right:
        return dual_theta(theta), lambda a, xi: act_right(xi, a, **STEP_GRID)
    return theta, lambda a, xi: act_left(a, xi, **STEP_GRID)


@seed(3)
@ACROSS
@given(theta=THETA_RANGE, right=st.booleans(), i=INDEX, j=INDEX)
def test_action_linear_closed_form_against_grid(theta, right, i, j):
    assume(i != j)
    th, act = side(theta, right)
    xi = gaussian_vector(theta, lam=0.2 - 0.1j, width=1.0)
    a, b = monomial(th, *i, 0.8 - 0.3j), monomial(th, *j, -0.5 + 1.1j)
    both = act(add(a, b), xi)
    assert isinstance(both.kind, Sampled)
    parts = [act(x, xi) for x in (a, b)]
    assert all(isinstance(p.kind, Gaussian) for p in parts)
    summed = sum(as_sampled(p, **STEP_GRID).kind.values for p in parts)
    assert np.abs(both.kind.values - summed).max() < 1e-12


@seed(5)
@ACROSS
@given(theta=THETA_RANGE, right=st.booleans(), m=st.integers(-2, 2), n=st.integers(-2, 2))
def test_defining_relation_on_sampled_vectors(theta, right, m, n):
    # U^m V^n = exp(2 pi i th m n) V^n U^m in the algebra at th; a right
    # module applies the left factor first
    th, act = side(theta, right)
    xi = as_sampled(gaussian_vector(theta, lam=0.3, width=1.3), **STEP_GRID)
    u, v = monomial(th, m, 0), monomial(th, 0, n)
    lhs = act(monomial(th, m, n), xi).kind.values
    vu = act(u, act(v, xi)) if right else act(v, act(u, xi))
    rhs = np.exp(2j * np.pi * th * m * n) * vu.kind.values
    assert np.abs(lhs - rhs).max() < 1e-10


@seed(7)
@ACROSS
@given(theta=THETA_RANGE, right=st.booleans())
def test_action_rejects_the_other_sides_theta(theta, right):
    _, act = side(theta, right)
    wrong = theta if right else dual_theta(theta)
    with pytest.raises(CompositionError):
        act(monomial(wrong, 1, 0), gaussian_vector(theta))


@pytest.mark.parametrize("right", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_sampled_action_shifted_past_the_grid_end_is_zero(right, sign):
    # a translation by 41 is 410 steps of a 401-sample grid of step 0.1
    theta = 0.2
    xi = as_sampled(gaussian_vector(theta, width=5.0), L=20.0, points=401)
    if right:
        out = act_right(xi, monomial(dual_theta(theta), sign * 41, 0))
    else:
        out = act_left(monomial(theta, sign * 205, 0), xi)
    assert len(out.kind.values) == 401 and not out.kind.values.any()


# ------------------------------------------------------------- inner products


def test_to_element_matches_loop_reference():
    # the loop the vectorised conversion replaced: same entries, same order
    def reference(mat, ms, ns, drop):
        cut = drop * float(np.abs(mat).max())
        return {(int(m), int(n)): complex(mat[i, j])
                for i, m in enumerate(ms) for j, n in enumerate(ns)
                if abs(mat[i, j]) > cut}

    rng = np.random.default_rng(11)
    ms, ns = np.arange(-3, 4), np.arange(-2, 3)
    mat = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    mat[rng.random((7, 5)) < 0.4] *= 1e-20
    with_nan = mat.copy()
    with_nan[2, 3] = np.nan
    for m in (mat, with_nan):
        got = _to_element(0.2, m, ms, ns, drop=1e-18)
        assert list(got.coeffs.items()) == list(reference(m, ms, ns, 1e-18).items())
    assert 0 < len(_to_element(0.2, mat, ms, ns, drop=1e-18).coeffs) < mat.size
    assert _to_element(0.2, with_nan, ms, ns, drop=1e-18).coeffs == {}


def test_inner_a_of_zero_vector():
    theta = 0.2
    z = SchwartzVector(theta, Gaussian(0.0, theta, 0.0))
    got = inner_A(z, gaussian_vector(theta), TOL)
    assert l1_norm(got) == 0.0


@pytest.mark.parametrize("theta", THETAS)
def test_inner_a_hermitian_symmetry(theta):
    rng = np.random.default_rng(23)
    xi, eta = random_gaussian(theta, rng), random_gaussian(theta, rng)
    lhs = inner_A(xi, eta, TOL)
    rhs = adjoint(inner_A(eta, xi, TOL))
    assert l1_norm(sub(lhs, rhs)) < TOL.quadrature_eps


def test_inner_a_trace_is_scaled_squared_norm():
    theta = 0.2
    w, lam, C = 1.7, 0.4 - 0.3j, 1.2 + 0.5j
    xi = gaussian_vector(theta, lam=lam, C=C, width=w)
    # |xi(t)|^2 = |C|^2 exp(-2 pi w t^2 + 4 Im(lam) t)
    norm_sq = abs(C) ** 2 * math.sqrt(1.0 / (2 * w)) * math.exp(
        (4 * lam.imag) ** 2 / (8 * math.pi * w))
    got = trace(inner_A(xi, xi, TOL))
    assert got.real == pytest.approx(theta * norm_sq, rel=1e-12)
    assert got.real > 0


def test_inner_a_left_linearity_over_algebra():
    theta = 0.2
    rng = np.random.default_rng(3)
    xi, eta = random_gaussian(theta, rng), random_gaussian(theta, rng)
    a = monomial(theta, 1, 1, 0.8 - 0.1j)
    lhs = inner_A(act_left(a, xi), eta, TOL)
    rhs = mul(a, inner_A(xi, eta, TOL))
    assert l1_norm(sub(lhs, rhs)) < TOL.quadrature_eps


@pytest.mark.parametrize("theta", THETAS)
def test_inner_b_module_axiom(theta):
    rng = np.random.default_rng(31)
    xi = random_gaussian(theta, rng)
    b = monomial(dual_theta(theta), 1, -1, 0.6 + 0.3j)
    lhs = inner_B(xi, act_right(xi, b), TOL)
    rhs = mul(inner_B(xi, xi, TOL), b)
    assert l1_norm(sub(lhs, rhs)) < TOL.quadrature_eps


def test_inner_product_box_cap_is_loud(monkeypatch):
    # at theta = 0.2 a width-1 Gaussian needs inner_A's box past 16
    xi = gaussian_vector(0.2, width=1.0)
    assert inner_A(xi, xi).box.shape[0] > 33
    monkeypatch.setattr(hb, "BOX_CAP", 16)
    with pytest.raises(ConvergenceError, match="cap 16"):
        inner_A(xi, xi)
    monkeypatch.setattr(hb, "BOX_CAP", 1)
    with pytest.raises(ConvergenceError, match="cap 1 "):
        inner_B(xi, xi)


def test_grid_quadrature_refuses_a_non_finite_sample():
    # unchecked, one NaN sample makes every entry NaN and the element empty
    xi = gaussian_vector(0.2, width=1.0)
    vals = as_sampled(xi, L=20.0, points=401).kind.values.copy()
    vals[200] = np.nan
    bad = SchwartzVector(0.2, Sampled(20.0, vals))
    for which, call in [("first", lambda: inner_A(bad, xi, TOL, box=4)),
                        ("first", lambda: inner_A(bad, xi, TOL)),
                        ("first", lambda: inner_B(xi, bad, TOL)),
                        ("second", lambda: inner_B(bad, xi, TOL))]:
        with pytest.raises(hb.NonFiniteError, match=f"{which} vector: 1 of 401 grid"):
            call()


def test_inner_b_positive_selfadjoint():
    theta = 0.3
    rng = np.random.default_rng(41)
    xi = random_gaussian(theta, rng)
    b = inner_B(xi, xi, TOL)
    assert l1_norm(sub(b, adjoint(b))) < TOL.quadrature_eps
    assert trace(b).real > 0


@pytest.mark.parametrize("theta", THETAS)
def test_associativity_bridge(theta):
    rng = np.random.default_rng(53)
    xi, eta, zeta = (random_gaussian(theta, rng) for _ in range(3))
    lhs = act_left(inner_A(xi, eta, TOL), zeta, **GRID)
    rhs = act_right(xi, inner_B(eta, zeta, TOL), **GRID)
    assert sup_diff(lhs, rhs) < TOL.quadrature_eps


@pytest.mark.parametrize("theta", THETAS)
def test_trace_rescaling_between_inner_products(theta):
    rng = np.random.default_rng(67)
    eta = random_gaussian(theta, rng)
    tb = trace(inner_B(eta, eta, TOL)).real
    ta = trace(inner_A(eta, eta, TOL)).real
    assert tb == pytest.approx(ta / abs(theta), rel=1e-10)


# ------------------------------------------------------------------- inversion


def test_invert_scalar():
    b = monomial(dual_theta(0.2), 0, 0, 2.0)
    x = invert_positive(b, TOL)
    assert set(x.coeffs) == {(0, 0)}
    assert x.coeffs[(0, 0)] == pytest.approx(0.5)


def test_invert_positive_contract():
    theta = 0.2
    xi = gaussian_vector(theta, width=1.0 / theta)
    b = inner_B(xi, xi, TOL)
    x = invert_positive(b, TOL)
    assert l1_norm(sub(mul(b, x), one(b.theta))) <= TOL.truncation_eps


def test_gram_inversion_fast_at_theta_02():
    theta = 0.2
    xi = gaussian_vector(theta, width=1.0 / theta)
    b = inner_B(xi, xi, TOL)
    x, res, its, seed = invert_positive_with_stats(b, TOL)
    assert res < 1e-8
    assert its <= 30


def test_invert_rejects_nonpositive_trace():
    with pytest.raises(ValueError):
        invert_positive(monomial(dual_theta(0.2), 0, 0, -1.0), TOL)


def test_divergence_reported_as_not_invertible():
    td = dual_theta(0.2)
    # selfadjoint, trace > 0, but with spectrum crossing zero: symbol
    # 0.1 + cos is negative on part of the circle, so no bounded inverse
    b = monomial(td, 0, 0, 0.1) + monomial(td, 1, 0, 0.5) + monomial(td, -1, 0, 0.5)
    with pytest.raises(NotInvertibleError):
        invert_positive(b, TOL, max_iter=40)


# ------------------------------------------- Gaussians on the grid: live cells


def _act_on_full_grid(a, xi, right, L, points):
    """_act's Gaussian-on-grid loop, evaluating every term on every cell."""
    theta = xi.theta
    t = np.linspace(-L, L, points)
    out = np.zeros(points, dtype=complex)
    for (m, n), c in sorted(a.coeffs.items()):
        s, f = (float(m), n / theta) if right else (m * theta, n)
        g = _monomial_act_gaussian(xi.kind, s, f, c, not right)
        out += evaluate(SchwartzVector(theta, g), t)
    return out


def _overlap_on_full_grid(first, second, shifts, freqs):
    """_overlap_matrix's grid path for a Gaussian second vector, evaluating
    every row on every cell."""
    L, points = first.kind.L, len(first.kind.values)
    t = np.linspace(-L, L, points)
    h = 2.0 * L / (points - 1)
    rows = np.array([np.conj(evaluate(second, t + sh)) for sh in shifts])
    w = np.full(points, h)
    w[0] = w[-1] = h / 2.0
    return (rows * (evaluate(first, t) * w)[None, :]) @ np.exp(1j * np.outer(t, freqs))


@seed(43)
@settings(max_examples=25, deadline=None, database=None)
@given(theta=st.floats(0.05, 0.95), s=st.integers(0, 10**6), right=st.booleans(),
       lam_im=st.floats(-3.0, 3.0), spread=st.sampled_from([2, 12, 40]))
# the instanton's overflow regime: here the full-grid oracle is not finite
@example(theta=0.5, s=0, right=True, lam_im=0.0, spread=40)
def test_gaussian_grid_evaluation_skips_only_exact_zeros(theta, s, right, lam_im, spread):
    """Skipping the cells where a Gaussian underflows changes no bit, and the
    action raises NonFiniteError exactly when the full-grid sum is not
    finite.  The instanton's width 1/theta and translations up to 40 reach
    the regime of theta >= 0.35, where a term's C underflows to 0 while its
    exp overflows."""
    L, points = 20.0, 801
    xi = gaussian_vector(theta, lam=complex(0.3, lam_im), C=1.3 - 0.4j, width=1.0 / theta)
    rng = np.random.default_rng(s)
    coeffs = {(int(rng.integers(-spread, spread + 1)), int(rng.integers(-3, 4))):
              complex(*rng.normal(size=2)) for _ in range(6)}
    a = TorusElement(dual_theta(theta) if right else theta, coeffs)
    want = _act_on_full_grid(a, xi, right, L, points)
    if np.isfinite(want).all():
        got = hb._act(a, xi, right, L, points).kind.values
        assert got.tobytes() == want.tobytes()
    else:
        with pytest.raises(hb.NonFiniteError):
            hb._act(a, xi, right, L, points)

    # rows of xi against a finite sampled vector; + 0 only merges signed zeros
    first = as_sampled(gaussian_vector(theta, lam=0.2, width=1.0), L=L, points=points)
    shifts = theta * np.arange(-8.0, 9.0) if not right else np.arange(-8.0, 9.0)
    freqs = -2.0 * np.pi * np.arange(-4.0, 5.0)
    got = _overlap_matrix(first, xi, shifts, freqs)
    want = _overlap_on_full_grid(first, xi, shifts, freqs)
    assert (got + 0).tobytes() == (want + 0).tobytes()


def test_grid_overlap_at_instanton_size_holds_two_full_arrays():
    """At the instanton's size (theta = 0.2, 65 shifts, 4001 points) the grid
    quadrature gives the bits of (rows * w) @ exp(1j * outer(t, freqs)) while
    holding at most two full-size complex arrays, rows and phases."""
    theta, L, points = 0.2, 20.0, 4001
    xi = gaussian_vector(theta, width=1.0 / theta)
    first = as_sampled(gaussian_vector(theta, lam=0.2, width=1.0), L=L, points=points)
    ms = np.arange(-32.0, 33.0)
    shifts, freqs = theta * ms, -2.0 * np.pi * ms
    want = _overlap_on_full_grid(first, xi, shifts, freqs)
    tracemalloc.start()
    try:
        got = _overlap_matrix(first, xi, shifts, freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got + 0).tobytes() == (want + 0).tobytes()
    assert peak <= 2 * len(shifts) * points * 16 + (1 << 20), peak


def test_live_cells_fall_back_to_the_full_grid_on_non_finite_input():
    t = np.linspace(-20.0, 20.0, 401)
    assert hb._live_cells(Gaussian(1.0 + 0j, 2.0, 0j), t) != slice(None)
    for C, lam in [(math.inf, 0j), (complex(math.nan, 0.0), 0j), (1.0, complex(0.0, math.inf))]:
        assert hb._live_cells(Gaussian(complex(C), 2.0, lam), t) == slice(None)


# ------------------------------------------------------------------- instanton


def test_instanton_basic_quantities():
    run = build_instanton(0.2, 0.0, TOL, box=32)
    p = run.projection
    assert trace(p).real == pytest.approx(0.2, abs=1e-8)
    assert gns_norm(sub(p, adjoint(p))) < 1e-11
    assert gns_norm(sub(mul(p, p), p)) < 1e-9
    assert run.inversion_iterations <= 30
    assert run.tail_converged


def test_instanton_keeps_the_inversion_seed():
    run = build_instanton(0.2, 0.0, TOL, box=8)
    *_, seed_used = invert_positive_with_stats(run.gram, TOL)
    assert run.inversion_seed == seed_used == "trace"


def test_instanton_nonzero_lambda_keeps_projection_quality():
    run = build_instanton(0.2, 0.7 - 0.3j, TOL, box=32)
    p = run.projection
    assert trace(p).real == pytest.approx(0.2, abs=1e-8)
    assert gns_norm(sub(mul(p, p), p)) < 1e-9


def test_instanton_coefficient_decay_is_gaussian_along_axis():
    # log-modulus drops grow with m (gaussian envelope); stay below the first
    # zero of the sine-type modulation at m = 1/theta
    p = instanton(0.2, 0.0, TOL, box=14)
    mags = [abs(p.coeffs.get((m, 0), 0.0)) for m in range(0, 5)]
    assert all(v > 0 for v in mags)
    drops = [math.log(mags[i]) - math.log(mags[i + 1]) for i in range(len(mags) - 1)]
    assert all(drops[i + 1] >= drops[i] for i in range(len(drops) - 1))


def test_instanton_tail_halves_with_box_growth():
    tails = []
    for box in (4, 6, 8, 10):
        p = instanton(0.2, 0.0, TOL, box=box)
        pp_defect = gns_norm(sub(mul(p, p), p))
        tails.append(pp_defect)
    assert all(tails[i + 1] <= 0.5 * tails[i] for i in range(len(tails) - 1))


def test_instanton_theta_out_of_range():
    with pytest.raises(ValueError):
        build_instanton(1.2, 0.0, TOL, box=8)


def test_instanton_raises_on_an_empty_projection(monkeypatch):
    # at theta >= 0.35 the first term of b^{-1} overflows in the grid right
    # action: the build stops there, before any grid inner product, and
    # prints no overflow warning
    calls = []

    def counting_inner_A(*args, **kwargs):
        calls.append(args)
        return inner_A(*args, **kwargs)

    monkeypatch.setattr(hb, "inner_A", counting_inner_A)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for theta in (0.35, 0.5, 0.95):
            with pytest.raises(hb.EmptyProjectionError,
                               match=r"^empty projection: right action, term U\^"):
                build_instanton(theta, 0.0, TOL, box=8)
    assert calls == []
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_instanton_reports_unconverged_tail_at_tiny_box():
    run = build_instanton(0.2, 0.0, TOL, box=3)
    assert not run.tail_converged
    assert run.tail_l1 > TOL.truncation_eps


@pytest.mark.parametrize("box", [3, 20])
def test_instanton_tail_is_the_l1_mass_of_the_boundary_ring(box):
    """tail_l1 sums p's moduli over the ring max(|m|, |n|) = box in row-major
    order: the mass that truncation to box - 1 drops, bit for bit."""
    run = build_instanton(0.2, 0.0, TOL, box=box)
    coeffs = dict(run.projection.coeffs)
    assert max(max(abs(m), abs(n)) for m, n in coeffs) == box
    assert run.tail_l1 == truncate_dict(coeffs, box - 1)[1] > 0.0


def test_act_right_rejects_wrong_dual_theta():
    xi = gaussian_vector(0.2)
    from nctorus.algebra import CompositionError

    with pytest.raises(CompositionError):
        act_right(xi, one(0.2))  # not the dual parameter -5


def test_tolerance_default_profile_ordering():
    assert TOL.algebraic_eps <= TOL.truncation_eps
    with pytest.raises(ValueError):
        Tolerance(algebraic_eps=0.0)


# ------------------------------------------------------------------ ODE residual


def test_ode_residual_zero_for_matching_lambda():
    xi = gaussian_vector(0.2, lam=0.4 + 0.2j, width=0.9)
    assert gaussian_ode_residual(xi, 0.4 + 0.2j) < 1e-14


def test_ode_residual_positive_for_wrong_lambda():
    xi = gaussian_vector(0.2, lam=0.4, width=0.9)
    assert gaussian_ode_residual(xi, 0.9) > 1e-3


def test_ode_residual_second_order_in_grid_spacing():
    theta = 0.2
    lam = 0.3
    res = []
    for points in (801, 1601):
        t = np.linspace(-8, 8, points)
        vals = np.exp(-np.pi * theta * t * t - 2j * lam * t)
        xi = SchwartzVector(theta, Sampled(8.0, vals))
        res.append(gaussian_ode_residual(xi, lam))
    assert res[0] / res[1] > 3.5
