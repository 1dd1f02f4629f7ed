"""Sparse Fourier-series arithmetic for the smooth irrational rotation algebra.

Elements are finitely supported series  a = sum_{m,n} a_{m,n} U^m V^n  over the
two generating unitaries with U V = exp(2 pi i theta) V U.  All phase formulas
below follow from that single relation; in particular

    (U^k V^l)(U^m V^n) = exp(-2 pi i theta l m) U^{k+m} V^{l+n}.

Everything here is pure: no operation mutates its inputs.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

TWO_PI = 2.0 * math.pi


class CompositionError(ValueError):
    """Raised when two elements with different deformation parameters meet."""


class ConvergenceError(ArithmeticError):
    """Raised when a series stops at its term cap without converging."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerance profile shared across the workbench.

    algebraic_eps bounds pure round-off defects, truncation_eps bounds
    series-tail defects, quadrature_eps bounds grid-integral defects.
    """

    algebraic_eps: float = 1e-10
    truncation_eps: float = 1e-8
    quadrature_eps: float = 1e-8

    def __post_init__(self):
        if not (self.algebraic_eps > 0 and self.truncation_eps > 0 and self.quadrature_eps > 0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()

Index = tuple[int, int]


@dataclass(frozen=True, eq=False)
class TorusElement:
    """A finitely supported element of the rotation algebra at deformation theta.

    coeffs maps integer pairs (m, n) to the complex coefficient of U^m V^n.
    tail_l1 accumulates the l1 mass dropped by truncation/pruning steps that
    produced this element; it is diagnostic metadata, not part of the value.
    """

    theta: float
    coeffs: dict[Index, complex]
    tail_l1: float = field(default=0.0, compare=False)

    def __post_init__(self):
        # normal form: no explicit zeros stored; the caller's dict is left alone
        if 0 in self.coeffs.values():
            object.__setattr__(self, "coeffs", {k: c for k, c in self.coeffs.items() if c != 0})

    def support(self) -> list[Index]:
        return sorted(self.coeffs)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, TorusElement):
            return mul(self, other)
        return scale(other, self)

    def __rmul__(self, other):
        return scale(other, self)

    def __neg__(self):
        return scale(-1.0, self)

    def __repr__(self):
        terms = ", ".join(f"({m},{n}): {c:.6g}" for (m, n), c in sorted(self.coeffs.items())[:8])
        more = "" if len(self.coeffs) <= 8 else f", ... ({len(self.coeffs)} terms)"
        return f"TorusElement(theta={self.theta}, {{{terms}{more}}})"


def _check_same_theta(a: TorusElement, b: TorusElement):
    # bit-identical comparison on purpose: composability demands one algebra
    if a.theta != b.theta:
        raise CompositionError(f"theta mismatch: {a.theta!r} vs {b.theta!r}")


def monomial(theta: float, m: int, n: int, c: complex = 1.0) -> TorusElement:
    """c * U^m V^n; the empty element when c == 0."""
    if c == 0:
        return TorusElement(theta, {})
    return TorusElement(theta, {(int(m), int(n)): complex(c)})


def zero(theta: float) -> TorusElement:
    return TorusElement(theta, {})


def one(theta: float) -> TorusElement:
    return monomial(theta, 0, 0, 1.0)


def add(a: TorusElement, b: TorusElement) -> TorusElement:
    _check_same_theta(a, b)
    out = dict(a.coeffs)
    for k, c in b.coeffs.items():
        out[k] = out.get(k, 0.0) + c
    return TorusElement(a.theta, out, tail_l1=a.tail_l1 + b.tail_l1)


def sub(a: TorusElement, b: TorusElement) -> TorusElement:
    _check_same_theta(a, b)
    out = dict(a.coeffs)
    for k, c in b.coeffs.items():
        out[k] = out.get(k, 0.0) - c
    return TorusElement(a.theta, out, tail_l1=a.tail_l1 + b.tail_l1)


def scale(c: complex, a: TorusElement) -> TorusElement:
    if c == 0:
        return TorusElement(a.theta, {}, tail_l1=a.tail_l1)
    return TorusElement(a.theta, {k: c * v for k, v in a.coeffs.items()}, tail_l1=a.tail_l1)


def _twist(theta: float, l: int, m: int) -> complex:
    """Phase picked up when V^l crosses U^m: exp(-2 pi i theta l m)."""
    if l == 0 or m == 0:
        return 1.0 + 0.0j
    return cmath.exp(-2j * math.pi * theta * (l * m))


def mul_reference(a: TorusElement, b: TorusElement) -> TorusElement:
    """Twisted convolution as the plain double loop over supports.

    This is the reference path; mul() vectorizes the same accumulation order
    and must agree with it bit for bit (asserted in the test suite).
    """
    _check_same_theta(a, b)
    theta = a.theta
    out: dict[Index, complex] = {}
    bitems = sorted(b.coeffs.items())
    for (k, l), ca in sorted(a.coeffs.items()):
        for (mp, nq), cb in bitems:
            key = (k + mp, l + nq)
            out[key] = out.get(key, 0.0) + ca * (_twist(theta, l, mp) * cb)
    return TorusElement(theta, out, tail_l1=a.tail_l1 + b.tail_l1)


def _terms(coeffs: dict[Index, complex], order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The indices, as an (n, 2) int array, and the coefficients of coeffs:
    in storage order, or sorted by index, ascending for order 1 and
    descending for order -1."""
    items = sorted(coeffs.items(), reverse=order < 0) if order else coeffs.items()
    n = len(coeffs)
    idx = np.fromiter(chain.from_iterable(k for k, _ in items), dtype=np.int64, count=2 * n)
    return idx.reshape(n, 2), np.fromiter((c for _, c in items), dtype=complex, count=n)


def _dense(idx: np.ndarray, vals: np.ndarray, lo: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The terms as a dense (real, imaginary) pair of blocks over shape,
    starting at index lo."""
    block = np.zeros((2,) + shape)
    rows, cols = idx[:, 0] - lo[0], idx[:, 1] - lo[1]
    block[0, rows, cols] = vals.real
    block[1, rows, cols] = vals.imag
    return block


def _twist_table(theta: float, ls: np.ndarray, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of _twist(theta, l, m) over the grid ls x ms.

    The phase depends on l * m only, so each distinct product is evaluated
    once, by the same scalar routine as mul_reference.
    """
    prods = (ls[:, None] * ms[None, :]).ravel().tolist()
    phase = {p: _twist(theta, p, 1) for p in set(prods)}
    ph = np.array([phase[p] for p in prods], dtype=complex).reshape(len(ls), len(ms))
    return ph.real.copy(), ph.imag.copy()


# Fixed cost of one accumulation step in mul (a few numpy calls), in units
# of the cost of one dense output cell; it decides which operand mul loops
# over.  Timing steps on boxes from 3 x 3 to 55 x 65 (numpy 2.4, 2-vCPU
# Xeon) put it between 500 and 1000 cells.
_STEP_CELLS = 600


def mul(a: TorusElement, b: TorusElement) -> TorusElement:
    """Twisted convolution over the support sumset; exact, no truncation.

    Per output cell, mul_reference adds the products a_i b_j in ascending
    order of the left index i, which is descending order of the right index
    j.  This routine keeps that sequence, so the two paths agree bitwise, and
    loops over whichever operand is cheaper:

    * block path: one step per left term, ascending, each adding
      a_i * (phase * b) over the dense box of b;
    * scatter path: one step per right term, descending, each adding
      a * (phase * b_j) over the dense box of a.

    Real and imaginary parts are carried as separate planes, with the naive
    complex multiply formula: separate numpy ufunc calls round exactly like
    CPython's scalar complex arithmetic.
    """
    _check_same_theta(a, b)
    na, nb = len(a.coeffs), len(b.coeffs)
    if na * nb <= 512:
        return mul_reference(a, b)
    theta = a.theta
    a_idx, a_val = _terms(a.coeffs)
    b_idx, b_val = _terms(b.coeffs)
    a_lo, b_lo = a_idx.min(axis=0), b_idx.min(axis=0)
    a_shape = tuple(int(s) for s in a_idx.max(axis=0) - a_lo + 1)
    b_shape = tuple(int(s) for s in b_idx.max(axis=0) - b_lo + 1)
    # tw[l, m] = _twist(theta, l, m) for l over a's columns, m over b's rows
    tw_re, tw_im = _twist_table(theta, np.arange(a_lo[1], a_lo[1] + a_shape[1]),
                                np.arange(b_lo[0], b_lo[0] + b_shape[0]))
    # Each step adds x * y to the output box at (row, col), with the complex
    # multiply split into planes as CPython does it:
    #     (x_re * y_re, x_re * y_im) + (-x_im * y_im, x_im * y_re),
    # and is given as (x_re, (y_re, y_im), -x_im, y_im, x_im, y_re, row, col).
    if _scatter_is_cheaper(na, a_shape, nb, b_shape):
        # x: the planes of a; y: phase * b_j over a's columns
        x_re, x_im = _dense(a_idx, a_val, a_lo, a_shape)
        b_idx, b_val = _terms(b.coeffs, -1)
        rows = b_idx[:, 0] - b_lo[0]
        t_re, t_im = tw_re[:, rows].T, tw_im[:, rows].T
        c_re, c_im = b_val.real[:, None], b_val.imag[:, None]
        y = np.stack((t_re * c_re - t_im * c_im, t_re * c_im + t_im * c_re), axis=1)
        neg_x_im = -x_im
        steps = ((x_re, y[j, :, None], neg_x_im, y[j, 1], x_im, y[j, 0], r, c)
                 for j, (r, c) in enumerate((b_idx - b_lo).tolist()))
        shape = a_shape
    else:
        # x: a_i; y: phase * b over b's box, one per column l of a
        b_re, b_im = _dense(b_idx, b_val, b_lo, b_shape)
        a_idx, a_val = _terms(a.coeffs, 1)
        ys = {}
        for l in set((a_idx[:, 1] - a_lo[1]).tolist()):
            t_re, t_im = tw_re[l][:, None], tw_im[l][:, None]
            y = np.stack((t_re * b_re - t_im * b_im, t_re * b_im + t_im * b_re))
            ys[l] = (y, y[1], y[0])
        steps = ((x_re, ys[c][0], -x_im, ys[c][1], x_im, ys[c][2], r, c)
                 for x_re, x_im, (r, c) in zip(a_val.real.tolist(), a_val.imag.tolist(),
                                               (a_idx - a_lo).tolist()))
        shape = b_shape
    out = np.zeros((2, a_shape[0] + b_shape[0] - 1, a_shape[1] + b_shape[1] - 1))
    acc = np.empty((2,) + shape)
    cross = np.empty((2,) + shape)
    cross_re, cross_im = cross
    h, w = shape
    for p1, q1, p2, q2, p3, q3, r, c in steps:
        np.multiply(q1, p1, out=acc)
        np.multiply(q2, p2, out=cross_re)
        np.multiply(q3, p3, out=cross_im)
        acc += cross
        out[:, r:r + h, c:c + w] += acc
    return TorusElement(theta, _to_coeffs(out, a_lo + b_lo), tail_l1=a.tail_l1 + b.tail_l1)


def _scatter_is_cheaper(na: int, a_shape: tuple[int, int], nb: int, b_shape: tuple[int, int]) -> bool:
    """Whether looping over the nb right terms (each step covering a's dense
    box) costs less than looping over the na left terms (each covering b's)."""
    return (nb * (_STEP_CELLS + a_shape[0] * a_shape[1])
            < na * (_STEP_CELLS + b_shape[0] * b_shape[1]))


def _to_coeffs(out: np.ndarray, lo: np.ndarray) -> dict[Index, complex]:
    """The nonzero cells of a (real, imaginary) pair of dense blocks starting
    at index lo, in row-major order."""
    mask = (out[0] != 0) | (out[1] != 0)
    rows, cols = np.nonzero(mask)
    vals = np.empty(len(rows), dtype=complex)
    vals.real = out[0][mask]
    vals.imag = out[1][mask]
    keys = zip((rows + int(lo[0])).tolist(), (cols + int(lo[1])).tolist())
    return dict(zip(keys, vals.tolist()))


def adjoint(a: TorusElement) -> TorusElement:
    """Involution: (a*)_{m,n} = conj(a_{-m,-n}) exp(-2 pi i theta m n)."""
    out = {}
    for (m, n), c in a.coeffs.items():
        out[(-m, -n)] = c.conjugate() * _twist(a.theta, m, n)
    return TorusElement(a.theta, out, tail_l1=a.tail_l1)


def trace(a: TorusElement) -> complex:
    """The unique normalized trace: the coefficient at (0, 0)."""
    return complex(a.coeffs.get((0, 0), 0.0))


def trace_product(a: TorusElement, b: TorusElement) -> complex:
    """tau(ab) = sum_{m,n} a_{m,n} b_{-m,-n} exp(2 pi i theta m n), without forming ab.

    The terms are added in ascending order of a's index, the order in which
    mul and mul_reference accumulate the (0, 0) coefficient, so this equals
    trace(mul(a, b)) bit for bit.  Costs O(min(|a|, |b|)) lookups plus a sort.
    """
    _check_same_theta(a, b)
    ac, bc = a.coeffs, b.coeffs
    if len(ac) <= len(bc):
        keys = [(m, n) for m, n in ac if (-m, -n) in bc]
    else:
        keys = [(-m, -n) for m, n in bc if (-m, -n) in ac]
    total = 0.0
    for m, n in sorted(keys):
        total = total + ac[(m, n)] * (_twist(a.theta, n, -m) * bc[(-m, -n)])
    return complex(total)


def delta(j: int, a: TorusElement) -> TorusElement:
    """Canonical derivations: delta_1 scales a_{m,n} by 2 pi i m, delta_2 by 2 pi i n."""
    if j not in (1, 2):
        raise ValueError("derivation index must be 1 or 2")
    pick = 0 if j == 1 else 1
    out = {k: c * (TWO_PI * 1j * k[pick]) for k, c in a.coeffs.items() if k[pick] != 0}
    return TorusElement(a.theta, out, tail_l1=a.tail_l1)


def laplacian(a: TorusElement) -> TorusElement:
    """delta_1^2 + delta_2^2: coefficient-wise multiplication by -4 pi^2 (m^2 + n^2)."""
    out = {
        k: c * (-4.0 * math.pi**2 * (k[0] * k[0] + k[1] * k[1]))
        for k, c in a.coeffs.items()
        if k != (0, 0)
    }
    return TorusElement(a.theta, out, tail_l1=a.tail_l1)


def norms(a: TorusElement) -> tuple[float, float]:
    """(l1, gns) coefficient norms; l1 dominates the operator norm, gns = tau(a* a)^(1/2)."""
    l1 = 0.0
    sq = 0.0
    for c in a.coeffs.values():
        m = abs(c)
        l1 += m
        sq += m * m
    return l1, math.sqrt(sq)


def l1_norm(a: TorusElement) -> float:
    return norms(a)[0]


def gns_norm(a: TorusElement) -> float:
    return norms(a)[1]


def is_scalar(a: TorusElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the off-scalar l1 mass is at most tol.algebraic_eps."""
    off = sum(abs(c) for k, c in a.coeffs.items() if k != (0, 0))
    return off <= tol.algebraic_eps


def random_selfadjoint(theta: float, box: int, seed: int) -> TorusElement:
    """Deterministic self-adjoint test element with support in [-box, box]^2."""
    if box < 0:
        raise ValueError("box must be nonnegative")
    rng = np.random.default_rng(seed)
    side = 2 * box + 1
    re = rng.standard_normal((side, side))
    im = rng.standard_normal((side, side))
    g = TorusElement(
        theta,
        {
            (m, n): complex(re[m + box, n + box], im[m + box, n + box]) / side
            for m in range(-box, box + 1)
            for n in range(-box, box + 1)
        },
    )
    return scale(0.5, add(g, adjoint(g)))


def random_element(theta: float, box: int, seed: int, terms: int = 6) -> TorusElement:
    """Deterministic sum of `terms` random monomials with indices in [-box, box]^2."""
    rng = np.random.default_rng(seed)
    out = zero(theta)
    for _ in range(terms):
        m, n = rng.integers(-box, box + 1, size=2)
        c = complex(rng.standard_normal(), rng.standard_normal())
        out = add(out, monomial(theta, int(m), int(n), c))
    return out


def truncate(a: TorusElement, box: int) -> TorusElement:
    """Drop coefficients outside [-box, box]^2, recording their l1 mass as tail."""
    kept = {}
    dropped = 0.0
    for (m, n), c in a.coeffs.items():
        if abs(m) <= box and abs(n) <= box:
            kept[(m, n)] = c
        else:
            dropped += abs(c)
    return TorusElement(a.theta, kept, tail_l1=a.tail_l1 + dropped)


def prune(a: TorusElement, rel_threshold: float = 1e-16) -> TorusElement:
    """Drop coefficients below rel_threshold * max |a_{m,n}|, recording tail mass."""
    if not a.coeffs:
        return a
    cut = rel_threshold * max(abs(c) for c in a.coeffs.values())
    kept = {}
    dropped = 0.0
    for k, c in a.coeffs.items():
        if abs(c) > cut:
            kept[k] = c
        else:
            dropped += abs(c)
    return TorusElement(a.theta, kept, tail_l1=a.tail_l1 + dropped)


def exp_i(h: TorusElement, t: float = 1.0, series_eps: float = 1e-15, max_order: int = 60) -> TorusElement:
    """exp(i t h) by power series with per-term pruning; unitary for h = h*.

    The series is stopped once the incoming term's l1 norm is below
    series_eps relative to the accumulated l1 mass; ConvergenceError is
    raised when that has not happened after max_order terms.  Per-term
    pruning keeps the support from growing linearly with the series order.
    """
    acc = one(h.theta)
    term = one(h.theta)
    ith = scale(1j * t, h)
    for k in range(1, max_order + 1):
        term = prune(scale(1.0 / k, mul(term, ith)), 1e-17)
        acc = add(acc, term)
        if l1_norm(term) <= series_eps * max(1.0, l1_norm(acc)):
            return prune(acc, 1e-17)
    raise ConvergenceError(
        f"exp_i: series not converged after {max_order} terms "
        f"(last term l1 {l1_norm(term):.3e}, sum l1 {l1_norm(acc):.3e})")


def to_json(a: TorusElement) -> str:
    """Serialize as {"theta": t, "coeffs": [[m, n, re, im], ...]} sorted by (m, n)."""
    rows = [[m, n, c.real, c.imag] for (m, n), c in sorted(a.coeffs.items())]
    return json.dumps({"theta": a.theta, "coeffs": rows})


def from_json(text: str) -> TorusElement:
    data = json.loads(text)
    coeffs = {(int(m), int(n)): complex(re, im) for m, n, re, im in data["coeffs"]}
    return TorusElement(float(data["theta"]), coeffs)
