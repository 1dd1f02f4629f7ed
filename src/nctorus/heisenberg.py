"""The Schwartz-space equivalence bimodule between the rotation algebras at
theta and -1/theta, with both operator-valued inner products and the Gaussian
projection pipeline.

Action conventions (fixed once; all other formulas follow).  A monomial
U^m V^n of either algebra translates by s and modulates at frequency f:

    side   algebra     s          f           modulates
    left   theta       m theta    n           the translated argument
    right  -1/theta    m          n / theta   in place

    (U^m V^n xi)(t)    = exp(2 pi i n (t + m theta)) xi(t + m theta)
    (xi U1^m V1^n)(t)  = exp(2 pi i n t / theta) xi(t + m)

The inner products are calibrated by c_A = theta, c_B = 1: the unique ratio
making the associativity bridge  <xi,eta>_A . zeta = xi . <eta,zeta>_B  and the
trace rescaling  tau_B = (1/|theta|) tau_A  hold; the overall scale is fixed by
taking c_B = 1.

Vectors are either closed-form Gaussians  C exp(-pi w t^2 - 2 i lambda t)
(w is the Gaussian's own width parameter, independent of the module theta)
or complex samples on a uniform grid.  Monomial actions keep Gaussians in
closed form; everything else lands on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    CompositionError,
    ConvergenceError,
    DEFAULT_TOL,
    Tolerance,
    TorusElement,
    adjoint,
    l1_norm,
    mul,
    one,
    phases,
    prune,
    scale,
    sub,
    trace,
    truncate,
)

GRID_L = 20.0
GRID_POINTS = 4001
# Largest half-width of the adaptive inner-product box.
BOX_CAP = 512


class NotInvertibleError(RuntimeError):
    """Newton-Schulz iteration diverged: not invertible at this truncation."""


class NonFiniteError(ArithmeticError):
    """A grid action or grid quadrature met a sample that is not finite."""


def _require_finite(vals: np.ndarray, where: str) -> None:
    """Raise NonFiniteError naming where and how many of vals are not finite."""
    bad = len(vals) - int(np.count_nonzero(np.isfinite(vals)))
    if bad:
        raise NonFiniteError(f"{where}: {bad} of {len(vals)} grid samples are not finite")


@dataclass(frozen=True)
class Gaussian:
    """Closed-form vector C * exp(-pi * theta * t^2 - 2i * lambda * t).

    theta here is the Gaussian's width parameter (> 0 for decay); the real
    part of lam modulates, the imaginary part translates the center.
    """

    C: complex
    theta: float
    lam: complex

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("gaussian width parameter must be positive")


@dataclass(frozen=True)
class Sampled:
    """Values on the uniform grid t_k = -L + k * (2L / (points - 1))."""

    L: float
    values: np.ndarray

    def grid(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, len(self.values))

    def step(self) -> float:
        return 2.0 * self.L / (len(self.values) - 1)


@dataclass(frozen=True)
class SchwartzVector:
    """A bimodule vector: module deformation parameter plus payload."""

    theta: float
    kind: Gaussian | Sampled


def dual_theta(theta: float) -> float:
    """Deformation parameter of the right-acting algebra."""
    return -1.0 / theta


def gaussian_vector(theta: float, lam: complex = 0.0, C: complex = 1.0,
                    width: float | None = None) -> SchwartzVector:
    """Gaussian vector for the module at theta; width defaults to theta itself."""
    w = theta if width is None else width
    return SchwartzVector(theta, Gaussian(complex(C), float(w), complex(lam)))


def evaluate(xi: SchwartzVector, t: np.ndarray) -> np.ndarray:
    """Pointwise values of the vector on an arbitrary grid."""
    k = xi.kind
    if isinstance(k, Gaussian):
        return k.C * np.exp(-np.pi * k.theta * t * t - 2j * k.lam * t)
    grid = k.grid()
    re = np.interp(t, grid, k.values.real, left=0.0, right=0.0)
    im = np.interp(t, grid, k.values.imag, left=0.0, right=0.0)
    return re + 1j * im


# exp(x) is exactly 0.0 below x = -745.13...; this bound leaves a margin.
_EXP_UNDERFLOW = -760.0


def _live_cells(g: Gaussian, t: np.ndarray) -> slice:
    """Cells of the increasing uniform grid t outside which g evaluates to
    exact zeros.

    There the real part of the exponent, -pi w t^2 + 2 Im(lambda) t, is
    below _EXP_UNDERFLOW, so exp gives 0 and a finite C keeps it 0.  All
    cells when C or lambda is not finite, where C * 0 need not be 0.
    """
    if not (np.isfinite(g.C) and np.isfinite(g.lam) and len(t) > 1 and t[-1] > t[0]):
        return slice(None)
    a, b = np.pi * g.theta, 2.0 * g.lam.imag
    root = math.sqrt(b * b - 4.0 * a * _EXP_UNDERFLOW)
    h = float(t[-1] - t[0]) / (len(t) - 1)
    # the roots of the exponent's real part minus the bound, in cells from t[0]
    lo = ((b - root) / (2.0 * a) - t[0]) / h
    hi = ((b + root) / (2.0 * a) - t[0]) / h
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return slice(None)
    # one spare cell each side covers the rounding of the grid
    first = max(0, math.floor(lo) - 1)
    return slice(first, max(first, math.ceil(hi) + 2))


def as_sampled(xi: SchwartzVector, L: float = GRID_L, points: int = GRID_POINTS) -> SchwartzVector:
    if isinstance(xi.kind, Sampled):
        return xi
    t = np.linspace(-L, L, points)
    return SchwartzVector(xi.theta, Sampled(L, evaluate(xi, t)))


def _shift_values(vals: np.ndarray, shift_idx: float) -> np.ndarray:
    """values of f(t + s) where s = shift_idx * h; exact for integer index shifts."""
    r = round(shift_idx)
    if abs(shift_idx - r) < 1e-9:
        out = np.zeros_like(vals)
        n = len(vals)
        if abs(r) >= n:
            return out
        if r >= 0:
            out[: n - r] = vals[r:] if r else vals
        else:
            out[-r:] = vals[:r]
        return out
    idx = np.arange(len(vals), dtype=float) + shift_idx
    base = np.arange(len(vals), dtype=float)
    re = np.interp(idx, base, vals.real, left=0.0, right=0.0)
    im = np.interp(idx, base, vals.imag, left=0.0, right=0.0)
    return re + 1j * im


def _monomial_act_gaussian(g: Gaussian, s: float, freq: float, c: complex,
                           modulate_shifted: bool) -> Gaussian:
    """c * exp(2 pi i freq x) g(t + s) as a Gaussian, with x = t + s or x = t."""
    w = g.theta
    C = c * g.C * np.exp(-np.pi * w * s * s - 2j * g.lam * s)
    if modulate_shifted:
        C *= np.exp(2j * np.pi * freq * s)
    lam = g.lam - 1j * np.pi * w * s - np.pi * freq
    return Gaussian(complex(C), w, complex(lam))


def _act(a: TorusElement, xi: SchwartzVector, right: bool,
         L: float, points: int) -> SchwartzVector:
    """a acting on xi from the left (right=False) or the right, per the side table.

    A single monomial acting on a Gaussian stays in closed form; any other
    combination is realized on the grid, where NonFiniteError is raised at
    the first term that leaves a grid cell it updates not finite.
    """
    theta = xi.theta
    want = dual_theta(theta) if right else theta
    if a.theta != want:
        raise CompositionError(f"{'dual ' if right else ''}theta mismatch: "
                               f"{a.theta!r} vs {want!r}")
    # per monomial (m, n): translation s and modulation frequency f
    terms = [(m, n, float(m), n / theta, c) if right else (m, n, m * theta, n, c)
             for (m, n), c in sorted(a.coeffs.items())]
    k = xi.kind
    if isinstance(k, Gaussian) and len(terms) == 1:
        (_, _, s, f, c), = terms
        return SchwartzVector(theta, _monomial_act_gaussian(k, s, f, c, not right))
    if isinstance(k, Sampled):
        L, points = k.L, len(k.values)
    t = np.linspace(-L, L, points)
    h = 2.0 * L / (points - 1)
    out = np.zeros(points, dtype=complex)
    # an overflow or 0 * inf here is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for m, n, s, f, c in terms:
            if isinstance(k, Gaussian):
                # out starts at +0, so skipping exact zeros keeps every bit
                g = _monomial_act_gaussian(k, s, f, c, not right)
                live = _live_cells(g, t)
                out[live] += evaluate(SchwartzVector(theta, g), t[live])
            else:
                live = slice(None)
                x = t if right else t + s
                out += c * np.exp(2j * np.pi * f * x) * _shift_values(k.values, s / h)
            _require_finite(out[live], f"{'right' if right else 'left'} action, "
                                       f"term U^{m} V^{n}")
    return SchwartzVector(theta, Sampled(L, out))


def act_left(a: TorusElement, xi: SchwartzVector,
             L: float = GRID_L, points: int = GRID_POINTS) -> SchwartzVector:
    """Left action of the theta-algebra; U translates by theta, V modulates."""
    return _act(a, xi, False, L, points)


def act_right(xi: SchwartzVector, b: TorusElement,
              L: float = GRID_L, points: int = GRID_POINTS) -> SchwartzVector:
    """Right action of the dual algebra; U1 translates by 1, V1 modulates at 1/theta."""
    return _act(b, xi, True, L, points)


# --------------------------------------------------------------- inner products


def _trapezoid_weights(points: int, h: float) -> np.ndarray:
    w = np.full(points, h)
    w[0] = w[-1] = h / 2.0
    return w


def _overlap_matrix(first: SchwartzVector, second: SchwartzVector,
                    shifts: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """I[i, j] = integral first(t) * conj(second(t + shifts[i])) * exp(i freqs[j] t) dt.

    Closed form when both vectors are Gaussians, trapezoidal quadrature on a
    shared grid otherwise, which raises NonFiniteError when first's samples
    or a sampled second's values are not finite.
    """
    f, s = first.kind, second.kind
    if isinstance(f, Gaussian) and isinstance(s, Gaussian):
        a1, b1 = np.pi * f.theta, -2j * f.lam
        a2c, b2c = np.pi * s.theta, np.conj(-2j * s.lam)
        sh = shifts[:, None]
        amp = f.C * np.conj(s.C) * np.exp(-a2c * sh * sh + b2c * sh)
        a_tot = a1 + a2c
        b_tot = b1 + b2c - 2.0 * a2c * sh + 1j * freqs[None, :]
        return amp * np.sqrt(np.pi / a_tot) * np.exp(b_tot * b_tot / (4.0 * a_tot))
    # grid path: use the sampled grid (they must agree if both sampled)
    if isinstance(f, Sampled):
        L, points = f.L, len(f.values)
        if isinstance(s, Sampled) and (s.L != f.L or len(s.values) != points):
            raise ValueError("sampled vectors must share a grid")
    else:
        L, points = s.L, len(s.values)
    t = np.linspace(-L, L, points)
    h = 2.0 * L / (points - 1)
    fvals = evaluate(first, t)
    _require_finite(fvals, "grid quadrature, first vector")
    if isinstance(s, Sampled):
        _require_finite(s.values, "grid quadrature, second vector")
    rows = np.zeros((len(shifts), points), dtype=complex)
    for i, sh in enumerate(shifts):
        if isinstance(s, Gaussian):
            x = t + sh
            live = _live_cells(s, x)
            rows[i, live] = np.conj(evaluate(second, x[live]))
        else:
            rows[i] = np.conj(_shift_values(s.values, sh / h))
    rows *= (fvals * _trapezoid_weights(points, h))[None, :]
    # Built in place, in row blocks, so that rows and waves are the only two
    # full-size arrays alive; the same values as np.exp(1j * np.outer(t, freqs)).
    waves = np.empty((points, len(freqs)), dtype=complex)
    for j in range(0, points, 512):
        np.multiply(1j, np.multiply.outer(t[j:j + 512], freqs), out=waves[j:j + 512])
    np.exp(waves, out=waves)
    return rows @ waves


def _to_element(theta: float, mat: np.ndarray, ms: np.ndarray, ns: np.ndarray,
                drop: float) -> TorusElement:
    """Entries above drop * peak of mat over the consecutive indices ms x ns;
    a NaN peak keeps none."""
    mag = np.abs(mat)
    kept = np.where(mag > drop * mag.max(), mat, 0j)
    return TorusElement.from_box(theta, (ms[0], ns[0]), kept)


def _inner_product(first: SchwartzVector, second: SchwartzVector, right: bool,
                   tol: Tolerance, box: int | None) -> TorusElement:
    """Shared assembly for both inner products over a rectangular index box.

    Coefficient (m, n) integrates first(t) conj(second(t + s)) exp(-2 pi i f t)
    with (s, f) the side table's translation and frequency of U^m V^n; the
    left side carries the extra factor theta exp(-2 pi i theta m n).  With
    box=None the box is grown adaptively until the boundary ring falls below
    truncation_eps relative to the peak.  ConvergenceError is raised when
    the box reaches [-BOX_CAP, BOX_CAP] on a side whose ring is still above
    that threshold.
    """
    if first.theta != second.theta:
        raise CompositionError("theta mismatch between vectors")
    theta = first.theta
    freq_scale = -2.0 * np.pi / theta if right else -2.0 * np.pi
    cap = BOX_CAP
    mB = nB = min(8, cap) if box is None else box
    while True:
        ms = np.arange(-mB, mB + 1)
        ns = np.arange(-nB, nB + 1)
        shifts = ms.astype(float) if right else theta * ms.astype(float)
        mat = _overlap_matrix(first, second, shifts, freq_scale * ns.astype(float))
        if not right:
            mat = theta * phases(theta, np.multiply.outer(ms, ns)) * mat
        if box is not None:
            break
        peak = float(np.abs(mat).max())
        row_edge = max(np.abs(mat[0, :]).max(), np.abs(mat[-1, :]).max())
        col_edge = max(np.abs(mat[:, 0]).max(), np.abs(mat[:, -1]).max())
        thresh = tol.truncation_eps * max(peak, 1e-300)
        grown = False
        if row_edge > thresh and mB < cap:
            mB = min(cap, 2 * mB)
            grown = True
        if col_edge > thresh and nB < cap:
            nB = min(cap, 2 * nB)
            grown = True
        if not grown:
            if row_edge > thresh or col_edge > thresh:
                raise ConvergenceError(
                    f"inner product box reached its cap {cap} with boundary ring "
                    f"{max(row_edge, col_edge):.3e} above {thresh:.3e}")
            break
    return _to_element(dual_theta(theta) if right else theta, mat, ms, ns, drop=1e-18)


def inner_A(xi: SchwartzVector, eta: SchwartzVector,
            tol: Tolerance = DEFAULT_TOL, box: int | None = None) -> TorusElement:
    """Left-algebra-valued inner product <xi, eta>_A.

    Coefficient at (m, n) is theta * integral xi(t) conj((U^m V^n eta)(t)) dt;
    left-linear in xi, Hermitian against swapping.
    """
    return _inner_product(xi, eta, False, tol, box)


def inner_B(xi: SchwartzVector, eta: SchwartzVector,
            tol: Tolerance = DEFAULT_TOL, box: int | None = None) -> TorusElement:
    """Dual-algebra-valued inner product <xi, eta>_B.

    Coefficient at (m, n) is integral conj(xi(t + m)) eta(t) exp(-2 pi i n t / theta) dt,
    an element of the algebra at -1/theta; satisfies <xi, eta . b>_B = <xi, eta>_B . b.
    """
    return _inner_product(eta, xi, True, tol, box)


# ------------------------------------------------------------------- inversion


def _newton_schulz(b: TorusElement, x0: TorusElement, target: float,
                   max_iter: int) -> tuple[TorusElement, float, int, bool]:
    ident = one(b.theta)
    x = x0
    best_x, best_res = x, math.inf
    increases = 0
    prev = math.inf
    for it in range(1, max_iter + 1):
        bx = mul(b, x)
        res = l1_norm(sub(bx, ident))
        if res < best_res:
            best_res, best_x = res, x
        if res > prev:
            increases += 1
            if increases >= 3:
                return best_x, best_res, it, False
        else:
            increases = 0
        if res <= target:
            return x, res, it, True
        prev = res
        x = prune(sub(scale(2.0, x), mul(x, bx)), 1e-18)
    return best_x, best_res, max_iter, best_res <= target


class NotPositiveError(ValueError):
    """invert_positive's input is not positive: not self-adjoint, or of trace <= 0."""


def invert_positive(b: TorusElement, tol: Tolerance = DEFAULT_TOL,
                    max_iter: int = 60) -> TorusElement:
    """Inverse of a positive element by the Newton-Schulz iteration x(2 - bx).

    Seeded at (1/trace(b)) 1 as the first attempt; if the l1 residual grows
    three steps in a row the iteration restarts once from the safe seed
    (1/l1(b)) 1, which contracts whenever b is boundedly invertible.  Raises
    NotPositiveError when b is not self-adjoint or its trace is not
    positive, and NotInvertibleError when both attempts diverge.
    """
    return invert_positive_with_stats(b, tol, max_iter)[0]


def invert_positive_with_stats(b: TorusElement, tol: Tolerance = DEFAULT_TOL,
                               max_iter: int = 60):
    """invert_positive plus (residual, iterations, seed_used) diagnostics."""
    sa_defect = l1_norm(sub(b, adjoint(b)))
    if sa_defect > 1e-8 * max(1.0, l1_norm(b)):
        raise NotPositiveError("invert_positive requires a self-adjoint element")
    tr = trace(b).real
    if tr <= 0:
        raise NotPositiveError("invert_positive requires positive trace")
    target = min(tol.truncation_eps, 1e-12)
    x, res, its, ok = _newton_schulz(b, scale(1.0 / tr, one(b.theta)), target, max_iter)
    seed = "trace"
    if not ok:
        x, res, its, ok = _newton_schulz(b, scale(1.0 / l1_norm(b), one(b.theta)),
                                         target, max_iter)
        seed = "l1"
    if res > tol.truncation_eps:
        raise NotInvertibleError(
            f"not invertible at this truncation: residual {res:.3e} after {its} iterations")
    return x, res, its, seed


# -------------------------------------------------------------------- instanton


class EmptyProjectionError(ArithmeticError):
    """The pipeline ran but kept no coefficient of the projection."""


@dataclass(frozen=True)
class InstantonRun:
    """Everything produced while building one Gaussian projection."""

    theta: float
    lam: complex
    gram: TorusElement
    inversion_residual: float
    inversion_iterations: int
    inversion_seed: str  # Newton-Schulz start that converged: "trace" or "l1"
    projection: TorusElement
    tail_l1: float  # l1 mass of projection on the boundary ring of [-box, box]^2
    tail_converged: bool


def build_instanton(theta: float, lam: complex = 0.0, tol: Tolerance = DEFAULT_TOL,
                    box: int = 32, L: float = GRID_L, points: int = GRID_POINTS) -> InstantonRun:
    """Run the full projection pipeline at one (theta, lambda).

    The generating vector is the decaying solution of the self-duality
    transport equation  xi' + (2 pi t / theta + 2 i lambda) xi = 0  under this
    module's action conventions, i.e. a Gaussian of width 1/theta.  The
    projection is p = <xi . b^{-1}, xi>_A with b = <xi, xi>_B, reported on
    [-box, box]^2.  tail_l1 is the l1 mass p holds on the boundary ring of
    that box.  Raises EmptyProjectionError when xi . b^{-1} has a sample
    that is not finite (before any quadrature), or when p keeps no
    coefficient or its tail is not finite.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    xi = gaussian_vector(theta, lam=lam, width=1.0 / theta)
    gram = inner_B(xi, xi, tol)
    ginv, res, its, seed = invert_positive_with_stats(gram, tol)
    try:
        p = inner_A(act_right(xi, ginv, L=L, points=points), xi, tol, box=box)
    except NonFiniteError as exc:
        raise EmptyProjectionError(f"empty projection: {exc}") from exc
    if not p.box.size:
        raise EmptyProjectionError("empty projection: no coefficient kept")
    tail = l1_norm(sub(p, truncate(p, box - 1)))
    if not math.isfinite(tail):
        raise EmptyProjectionError(f"empty projection: non-finite tail (tail_l1={tail!r})")
    converged = tail <= tol.truncation_eps * max(1.0, l1_norm(p))
    return InstantonRun(theta=theta, lam=complex(lam), gram=gram, inversion_residual=res,
                        inversion_iterations=its, inversion_seed=seed, projection=p,
                        tail_l1=tail, tail_converged=converged)


def instanton(theta: float, lam: complex = 0.0, tol: Tolerance = DEFAULT_TOL,
              box: int = 32) -> TorusElement:
    """The Gaussian projection at (theta, lambda), truncated to [-box, box]^2."""
    return build_instanton(theta, lam, tol, box).projection


def gaussian_ode_residual(xi: SchwartzVector, lam: complex,
                          L: float = GRID_L, points: int = GRID_POINTS) -> float:
    """Max-norm of xi' + (2 pi w t + 2 i lambda) xi over the grid.

    w is the vector's own width parameter for Gaussian kind (closed-form
    derivative, so the residual is exactly the modulation mismatch); Sampled
    kind uses second-order finite differences.
    """
    k = xi.kind
    if isinstance(k, Gaussian):
        t = np.linspace(-L, L, points)
        vals = evaluate(xi, t)
        dvals = (-2.0 * np.pi * k.theta * t - 2j * k.lam) * vals
        resid = dvals + (2.0 * np.pi * k.theta * t + 2j * lam) * vals
        return float(np.abs(resid).max())
    if len(k.values) < 3:
        raise ValueError("need at least 3 samples for a derivative")
    t = k.grid()
    dvals = np.gradient(k.values, k.step())
    w = xi.theta
    resid = dvals + (2.0 * np.pi * w * t + 2j * lam) * k.values
    return float(np.abs(resid).max())
