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

import numpy as np

TWO_PI = 2.0 * math.pi


class CompositionError(ValueError):
    """Raised when two elements with different deformation parameters meet."""


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


def mul(a: TorusElement, b: TorusElement) -> TorusElement:
    """Twisted convolution over the support sumset; exact, no truncation.

    Accumulates one dense block per left-support term, in sorted support
    order; per output cell this reproduces mul_reference's addition sequence
    exactly, so the two paths agree bitwise.
    """
    _check_same_theta(a, b)
    if len(a.coeffs) * len(b.coeffs) <= 512:
        return mul_reference(a, b)
    theta = a.theta
    a_items = sorted(a.coeffs.items())
    b_keys = sorted(b.coeffs)
    bm_lo = min(m for m, _ in b_keys)
    bm_hi = max(m for m, _ in b_keys)
    bn_lo = min(n for _, n in b_keys)
    bn_hi = max(n for _, n in b_keys)
    # real/imag split with the naive multiply formula: separate numpy ufunc
    # calls round exactly like CPython's scalar complex arithmetic, which is
    # what keeps this path bit-identical to mul_reference
    shape_b = (bm_hi - bm_lo + 1, bn_hi - bn_lo + 1)
    bd_re = np.zeros(shape_b)
    bd_im = np.zeros(shape_b)
    for (m, n), c in b.coeffs.items():
        bd_re[m - bm_lo, n - bn_lo] = c.real
        bd_im[m - bm_lo, n - bn_lo] = c.imag
    am_lo = min(m for (m, _), _ in a_items)
    am_hi = max(m for (m, _), _ in a_items)
    an_lo = min(n for (_, n), _ in a_items)
    an_hi = max(n for (_, n), _ in a_items)
    shape_out = (am_hi - am_lo + shape_b[0], an_hi - an_lo + shape_b[1])
    out_re = np.zeros(shape_out)
    out_im = np.zeros(shape_out)
    mod_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for (k, l), ca in a_items:
        cached = mod_cache.get(l)
        if cached is None:
            ph = [_twist(theta, l, mp) for mp in range(bm_lo, bm_hi + 1)]
            ph_re = np.array([p.real for p in ph])[:, None]
            ph_im = np.array([p.imag for p in ph])[:, None]
            bm_re = ph_re * bd_re - ph_im * bd_im
            bm_im = ph_re * bd_im + ph_im * bd_re
            cached = (bm_re, bm_im)
            mod_cache[l] = cached
        bm_re, bm_im = cached
        r0, c0 = k - am_lo, l - an_lo
        sl = (slice(r0, r0 + shape_b[0]), slice(c0, c0 + shape_b[1]))
        out_re[sl] += ca.real * bm_re - ca.imag * bm_im
        out_im[sl] += ca.real * bm_im + ca.imag * bm_re
    mask = (out_re != 0) | (out_im != 0)
    rows, cols = np.nonzero(mask)
    coeffs = {
        (int(r) + am_lo + bm_lo, int(c) + an_lo + bn_lo): complex(out_re[r, c], out_im[r, c])
        for r, c in zip(rows, cols)
    }
    return TorusElement(theta, coeffs, tail_l1=a.tail_l1 + b.tail_l1)


def adjoint(a: TorusElement) -> TorusElement:
    """Involution: (a*)_{m,n} = conj(a_{-m,-n}) exp(-2 pi i theta m n)."""
    out = {}
    for (m, n), c in a.coeffs.items():
        out[(-m, -n)] = c.conjugate() * _twist(a.theta, m, n)
    return TorusElement(a.theta, out, tail_l1=a.tail_l1)


def trace(a: TorusElement) -> complex:
    """The unique normalized trace: the coefficient at (0, 0)."""
    return complex(a.coeffs.get((0, 0), 0.0))


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
    series_eps relative to the accumulated l1 mass.  Per-term pruning keeps
    the support from growing linearly with the series order.
    """
    acc = one(h.theta)
    term = one(h.theta)
    ith = scale(1j * t, h)
    for k in range(1, max_order + 1):
        term = prune(scale(1.0 / k, mul(term, ith)), 1e-17)
        acc = add(acc, term)
        if l1_norm(term) <= series_eps * max(1.0, l1_norm(acc)):
            break
    return prune(acc, 1e-17)


def to_json(a: TorusElement) -> str:
    """Serialize as {"theta": t, "coeffs": [[m, n, re, im], ...]} sorted by (m, n)."""
    rows = [[m, n, c.real, c.imag] for (m, n), c in sorted(a.coeffs.items())]
    return json.dumps({"theta": a.theta, "coeffs": rows})


def from_json(text: str) -> TorusElement:
    data = json.loads(text)
    coeffs = {(int(m), int(n)): complex(re, im) for m, n, re, im in data["coeffs"]}
    return TorusElement(float(data["theta"]), coeffs)
