"""Sparse Fourier-series arithmetic for the smooth irrational rotation algebra.

Elements are finitely supported series  a = sum_{m,n} a_{m,n} U^m V^n  over the
two generating unitaries with U V = exp(2 pi i theta) V U.  All phase formulas
below follow from that single relation; in particular

    (U^k V^l)(U^m V^n) = exp(-2 pi i theta l m) U^{k+m} V^{l+n}.

An element stores an integer offset (m0, n0) and a read-only 2-D complex
array `box` over the bounding box of its support: box[i, j] is the
coefficient of U^(m0 + i) V^(n0 + j).  Cells outside the support hold +0,
and the box is cropped to the support on construction.  Coefficient-wise
operations are array expressions that round exactly like the
per-coefficient CPython arithmetic they stand for: complex products are
formed from real and imaginary planes with CPython's formula, moduli come
from np.hypot (numpy's complex multiply and complex abs round differently),
and norms are left-to-right sums in row-major order.  An element holds its
value only: truncate and prune keep no record of the mass they drop.

Everything here is pure: no operation mutates its inputs.
"""

from __future__ import annotations

import cmath
import ctypes
import hashlib
import json
import math
import os
import shutil
import subprocess
import tempfile
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, islice
from types import MappingProxyType

import numpy as np

TWO_PI = 2.0 * math.pi

# Largest bounding box an element may span, in cells (16 bytes each): 64 MiB.
# The adaptive inner products stop at [-512, 512]^2, about 1.05 M cells.
MAX_BOX_CELLS = 1 << 22

# Largest |m|, |n| of an index: every lattice product k then has |k| <= 2**53.
MAX_INDEX = 1 << 26

# exp_i prunes every series term and its result at this modulus relative to
# the peak; products with its result may be pruned at the same precision.
EXP_I_PRECISION = 1e-17


class CompositionError(ValueError):
    """Raised when two elements with different deformation parameters meet."""


class ConvergenceError(ArithmeticError):
    """Raised when a series or an adaptive loop stops at its cap without converging."""


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

_EMPTY = np.zeros((0, 0), dtype=complex)
_EMPTY.flags.writeable = False


def _check_cells(shape: tuple[int, int]) -> None:
    if shape[0] * shape[1] > MAX_BOX_CELLS:
        raise ValueError(f"bounding box {shape[0]} x {shape[1]} exceeds {MAX_BOX_CELLS} cells")


def _crop(offset: Index, box: np.ndarray) -> tuple[Index, np.ndarray]:
    """(offset, box) for an owned, writable box: cropped to its nonzero
    cells, every other cell set to +0, and made read-only."""
    mask = box != 0
    size = int(np.count_nonzero(mask))
    if size == 0:
        return (0, 0), _EMPTY
    if size < mask.size:
        np.copyto(box, 0, where=~mask)
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        r0, r1, c0, c1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
        if (r1 - r0, c1 - c0) != box.shape:
            box = box[r0:r1, c0:c1].copy()
            offset = (offset[0] + r0, offset[1] + c0)
    box.flags.writeable = False
    return offset, box


def _fill(el, theta, offset, box) -> None:
    (m0, n0), (h, w) = offset, box.shape
    if max(-m0, -n0, m0 + h - 1, n0 + w - 1) > MAX_INDEX:
        raise ValueError(f"coefficient index outside [-{MAX_INDEX}, {MAX_INDEX}]^2")
    for name, value in (("theta", theta), ("offset", offset), ("box", box), ("_coeffs", None)):
        object.__setattr__(el, name, value)


class TorusElement:
    """A finitely supported element of the rotation algebra at deformation theta.

    coeffs is a read-only dict from integer pairs (m, n) to the complex
    coefficient of U^m V^n; offset and box are the stored form (see the
    module docstring); every index has |m|, |n| <= MAX_INDEX.  Elements
    are immutable and compare by identity.
    """

    __slots__ = ("theta", "offset", "box", "_coeffs")

    def __init__(self, theta: float, coeffs: Mapping[Index, complex]):
        n = len(coeffs)
        if n == 0:
            _fill(self, theta, (0, 0), _EMPTY)
            return
        try:
            idx = np.fromiter(chain.from_iterable(coeffs), dtype=np.int64, count=2 * n)
        except OverflowError as exc:
            raise ValueError("coefficient index outside the 64-bit range") from exc
        idx = idx.reshape(n, 2)
        m0, n0 = idx.min(axis=0).tolist()
        m1, n1 = idx.max(axis=0).tolist()
        _check_cells((m1 - m0 + 1, n1 - n0 + 1))
        box = np.zeros((m1 - m0 + 1, n1 - n0 + 1), dtype=complex)
        box[idx[:, 0] - m0, idx[:, 1] - n0] = np.fromiter(coeffs.values(), dtype=complex, count=n)
        _fill(self, theta, *_crop((m0, n0), box))

    @classmethod
    def from_box(cls, theta: float, offset: Index, box: np.ndarray) -> TorusElement:
        """The element with coefficient box[i, j] at U^(m0 + i) V^(n0 + j).

        Takes ownership of box, a writable complex array (copied first unless
        C-ordered complex128, the layout mul's kernel reads): it is cropped to
        its nonzero cells, its zero cells are set to +0, and it is made
        read-only.
        """
        box = np.ascontiguousarray(box, dtype=complex)
        _check_cells(box.shape)
        el = object.__new__(cls)
        _fill(el, theta, *_crop((int(offset[0]), int(offset[1])), box))
        return el

    def __setattr__(self, name, value):
        raise AttributeError("TorusElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("TorusElement is immutable")

    def __reduce__(self):
        return TorusElement.from_box, (self.theta, self.offset, self.box.copy())

    @property
    def coeffs(self) -> Mapping[Index, complex]:
        """Read-only dict of the nonzero cells, (m, n) -> complex, in row-major
        (ascending (m, n)) order; built from the box on first access."""
        if self._coeffs is None:
            rows, cols = np.nonzero(self.box)
            m0, n0 = self.offset
            keys = zip((rows + m0).tolist(), (cols + n0).tolist())
            listing = dict(zip(keys, self.box[rows, cols].tolist()))
            object.__setattr__(self, "_coeffs", MappingProxyType(listing))
        return self._coeffs

    def support(self) -> list[Index]:
        return list(self.coeffs)

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
        terms = ", ".join(f"({m},{n}): {c:.6g}" for (m, n), c in islice(self.coeffs.items(), 8))
        more = "" if len(self.coeffs) <= 8 else f", ... ({len(self.coeffs)} terms)"
        return f"TorusElement(theta={self.theta}, {{{terms}{more}}})"


def _cmul(xr, xi, yr, yi):
    """Planes of x * y as CPython forms a complex product:
    (xr yr - xi yi, xr yi + xi yr).  A real factor enters with imaginary
    part 0.0, as CPython converts it."""
    return xr * yr - xi * yi, xr * yi + xi * yr


def _from_planes(theta: float, offset: Index, re: np.ndarray, im: np.ndarray) -> TorusElement:
    box = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=complex)
    box.real = re
    box.imag = im
    return TorusElement.from_box(theta, offset, box)


def _moduli(box: np.ndarray) -> np.ndarray:
    """|c| per cell, bit for bit as CPython's abs(complex)."""
    return np.hypot(box.real, box.imag)


def _seqsum(x: np.ndarray) -> float:
    """Left-to-right sum, as a Python loop adds; np.sum adds pairwise."""
    return float(np.cumsum(x, axis=None)[-1]) if x.size else 0.0


def _check_same_theta(a: TorusElement, b: TorusElement):
    # bit-identical comparison on purpose: composability demands one algebra
    if a.theta != b.theta:
        raise CompositionError(f"theta mismatch: {a.theta!r} vs {b.theta!r}")


def monomial(theta: float, m: int, n: int, c: complex = 1.0) -> TorusElement:
    """c * U^m V^n; the empty element when c == 0."""
    return TorusElement(theta, {(int(m), int(n)): complex(c)})


def zero(theta: float) -> TorusElement:
    return TorusElement(theta, {})


def one(theta: float) -> TorusElement:
    return monomial(theta, 0, 0, 1.0)


def _add_or_sub(a: TorusElement, b: TorusElement, op) -> TorusElement:
    """op(a's cell, b's cell) at b's nonzero cells only, on a's box grown to
    cover b's; every other cell keeps its value and sign of zero."""
    _check_same_theta(a, b)
    if not b.box.size:
        return a
    (bm, bn), (bh, bw) = b.offset, b.box.shape
    (m0, n0), (h, w) = (a.offset, a.box.shape) if a.box.size else ((bm, bn), (0, 0))
    top, left = min(m0, bm), min(n0, bn)
    shape = (max(m0 + h, bm + bh) - top, max(n0 + w, bn + bw) - left)
    _check_cells(shape)
    out = np.zeros(shape, dtype=complex)
    out[m0 - top:m0 - top + h, n0 - left:n0 - left + w] = a.box
    region = out[bm - top:bm - top + bh, bn - left:bn - left + bw]
    op(region, b.box, out=region, where=b.box != 0)
    return TorusElement.from_box(a.theta, (top, left), out)


def add(a: TorusElement, b: TorusElement) -> TorusElement:
    return _add_or_sub(a, b, np.add)


def sub(a: TorusElement, b: TorusElement) -> TorusElement:
    return _add_or_sub(a, b, np.subtract)


def modulate(a: TorusElement, factor) -> TorusElement:
    """Each coefficient c of a times the matching cell f of factor (a complex
    array broadcastable over a.box, or a scalar), rounded as CPython's c * f."""
    f = np.asarray(factor, dtype=complex)
    re, im = _cmul(a.box.real, a.box.imag, f.real, f.imag)
    return _from_planes(a.theta, a.offset, re, im)


def scale(c: complex, a: TorusElement) -> TorusElement:
    if c == 0:
        return zero(a.theta)
    return modulate(a, complex(c))


def _twist(theta: float, l: int, m: int) -> complex:
    """Phase picked up when V^l crosses U^m: exp(-2 pi i theta l m)."""
    if l == 0 or m == 0:
        return 1.0 + 0.0j
    return cmath.exp(-2j * math.pi * theta * (l * m))


def mul_reference(a: TorusElement, b: TorusElement) -> TorusElement:
    """Twisted convolution as the plain double loop over supports.

    This is the oracle; mul() compiles the same accumulation order and must
    agree with it bit for bit (asserted in the test suite), which also checks
    numpy's exp in phases against the cmath.exp here.
    """
    _check_same_theta(a, b)
    theta = a.theta
    out: dict[Index, complex] = {}
    bitems = sorted(b.coeffs.items())
    for (k, l), ca in sorted(a.coeffs.items()):
        for (mp, nq), cb in bitems:
            key = (k + mp, l + nq)
            out[key] = out.get(key, 0.0) + ca * (_twist(theta, l, mp) * cb)
    return TorusElement(theta, out)


def phases(theta: float, k) -> np.ndarray:
    """exp(-2 pi i theta k) over the integer array k: the twist of U V =
    exp(2 pi i theta) V U and the eigenvalues of the lattice conjugation.
    Bit for bit cmath.exp(-2j * math.pi * theta * k) for |k| <= 2**53 (see
    the README's "Products and traces of products"; asserted in the tests)."""
    return np.exp(-2j * math.pi * theta * k)


def _index_range(a: TorusElement, axis: int) -> np.ndarray:
    """The indices m (axis 0) or n (axis 1) spanned by a's box."""
    start = a.offset[axis]
    return np.arange(start, start + a.box.shape[axis])


# Flags of the product kernel.  -ffp-contract=off stops the compiler fusing
# x * y + z into one rounding (FMA); -ffast-math, -Ofast and -march=native
# stay out, since each lets it change the IEEE operations that keep mul's bits.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def _load_twmul():
    """The product kernel _twmul.c, built with cc into
    __pycache__/_twmul-<sha256 of source and flags>.so unless already there."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_twmul.c")
    with open(src, "rb") as fh:
        key = hashlib.sha256(fh.read() + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = os.path.join(os.path.dirname(src), "__pycache__")
    lib = os.path.join(cache, f"_twmul-{key}.so")
    if not os.path.exists(lib):
        cc = shutil.which("cc")
        if cc is None:
            raise ImportError("nctorus builds its product kernel _twmul.c with a C "
                              "compiler, and no cc is on PATH")
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            built = subprocess.run([cc, *_CFLAGS, "-o", tmp, src], capture_output=True, text=True)
            if built.returncode:
                raise ImportError(f"cc could not build {src}:\n{built.stderr}")
            os.replace(tmp, lib)
        finally:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
    fn = ctypes.CDLL(lib).twmul
    ptr, n = ctypes.c_void_p, ctypes.c_long
    fn.argtypes = (ptr, n, n, ptr, n, n, ptr, ptr, ptr)
    fn.restype = None
    return fn


_twmul = _load_twmul()


def mul(a: TorusElement, b: TorusElement) -> TorusElement:
    """Twisted convolution over the support sumset; exact, no truncation.

    The compiled kernel takes b's rows u from last to first, each over its
    nonzero span, and for each column c of a in ascending order adds
    a[i, c] * y, y = phase * b[u, span], into output row i + u.  An output
    cell (r, s) meets row u only through i = r - u, so its terms come in
    a's row-major order, as in mul_reference, and the zeros of b it meets
    add nothing; with CPython's complex multiply and add it agrees with
    mul_reference bit for bit (asserted in the test suite).  Cost:
    nnz(a) x sum_u span_u(b) multiply-adds; scratch: y, one row of b.
    """
    _check_same_theta(a, b)
    if not (a.box.size and b.box.size):
        return zero(a.theta)
    (ah, aw), (bh, bw) = a.box.shape, b.box.shape
    shape = (ah + bh - 1, aw + bw - 1)
    _check_cells(shape)
    # tw[l, m] = exp(-2 pi i theta l m) for l over a's columns, m over b's rows
    tw = phases(a.theta, np.multiply.outer(_index_range(a, 1), _index_range(b, 0)))
    y = np.empty(bw, dtype=complex)
    out = np.zeros(shape, dtype=complex)
    _twmul(a.box.ctypes.data, ah, aw, b.box.ctypes.data, bh, bw,
           tw.ctypes.data, y.ctypes.data, out.ctypes.data)
    offset = (a.offset[0] + b.offset[0], a.offset[1] + b.offset[1])
    return TorusElement.from_box(a.theta, offset, out)


def adjoint(a: TorusElement) -> TorusElement:
    """Involution: (a*)_{m,n} = conj(a_{-m,-n}) exp(-2 pi i theta m n)."""
    tw = phases(a.theta, np.multiply.outer(_index_range(a, 0), _index_range(a, 1)))
    re, im = _cmul(a.box.real, -a.box.imag, tw.real, tw.imag)
    (m0, n0), (h, w) = a.offset, a.box.shape
    return _from_planes(a.theta, (-(m0 + h - 1), -(n0 + w - 1)),
                        re[::-1, ::-1], im[::-1, ::-1])


def _origin(a: TorusElement) -> Index | None:
    """Position of the (0, 0) coefficient in a's box; None when outside it."""
    (m0, n0), (h, w) = a.offset, a.box.shape
    return (-m0, -n0) if 0 <= -m0 < h and 0 <= -n0 < w else None


def trace(a: TorusElement) -> complex:
    """The unique normalized trace: the coefficient at (0, 0)."""
    at = _origin(a)
    return 0j if at is None else complex(a.box[at])


def trace_product(a: TorusElement, b: TorusElement) -> complex:
    """tau(ab) = sum_{m,n} a_{m,n} b_{-m,-n} exp(2 pi i theta m n), without forming ab.

    The terms are added one by one in ascending order of a's index, the
    order in which mul and mul_reference accumulate the (0, 0) coefficient,
    so this equals trace(mul(a, b)) bit for bit.  Costs O(overlap) cells of
    a's box and the reflection of b's.
    """
    _check_same_theta(a, b)
    (am, an), (ah, aw) = a.offset, a.box.shape
    (bm, bn), (bh, bw) = b.offset, b.box.shape
    # a's rows m and columns n whose reflection (-m, -n) lies in b's box
    m_lo, m_hi = max(am, -(bm + bh - 1)), min(am + ah - 1, -bm)
    n_lo, n_hi = max(an, -(bn + bw - 1)), min(an + aw - 1, -bn)
    if m_lo > m_hi or n_lo > n_hi:  # no overlap, or an empty operand
        return 0j
    x = a.box[m_lo - am:m_hi - am + 1, n_lo - an:n_hi - an + 1]
    z = b.box[-m_hi - bm:-m_lo - bm + 1, -n_hi - bn:-n_lo - bn + 1][::-1, ::-1]
    # the phase exp(2 pi i theta m n), as phases of -m n
    ms, ns = np.arange(m_lo, m_hi + 1), np.arange(n_lo, n_hi + 1)
    tw = phases(a.theta, np.multiply.outer(-ms, ns))
    y_re, y_im = _cmul(tw.real, tw.imag, z.real, z.imag)
    re, im = _cmul(x.real, x.imag, y_re, y_im)
    both = (x != 0) & (z != 0)
    # the running total starts at the float 0.0, as in a Python loop
    return complex(0.0 + _seqsum(re[both]), 0.0 + _seqsum(im[both]))


def delta(j: int, a: TorusElement) -> TorusElement:
    """Canonical derivations: delta_1 scales a_{m,n} by 2 pi i m, delta_2 by 2 pi i n."""
    if j not in (1, 2):
        raise ValueError("derivation index must be 1 or 2")
    if not a.box.size:
        return a
    axis = j - 1
    ks = _index_range(a, axis).tolist()
    f = np.array([TWO_PI * 1j * k for k in ks], dtype=complex)
    f = f.reshape((-1, 1) if axis == 0 else (1, -1))
    re, im = _cmul(a.box.real, a.box.imag, f.real, f.imag)
    if ks[0] <= 0 <= ks[-1]:
        at_zero = (-ks[0], slice(None)) if axis == 0 else (slice(None), -ks[0])
        re[at_zero] = im[at_zero] = 0.0
    return _from_planes(a.theta, a.offset, re, im)


_LAPLACE = -4.0 * math.pi**2


def laplacian(a: TorusElement) -> TorusElement:
    """delta_1^2 + delta_2^2: coefficient-wise multiplication by -4 pi^2 (m^2 + n^2)."""
    ms, ns = _index_range(a, 0)[:, None], _index_range(a, 1)[None, :]
    re, im = _cmul(a.box.real, a.box.imag, _LAPLACE * (ms * ms + ns * ns), 0.0)
    at = _origin(a)
    if at is not None:
        re[at] = im[at] = 0.0
    return _from_planes(a.theta, a.offset, re, im)


def norms(a: TorusElement) -> tuple[float, float]:
    """(l1, gns) coefficient norms."""
    return l1_norm(a), gns_norm(a)


def l1_norm(a: TorusElement) -> float:
    """Sum of the coefficient moduli; dominates the operator norm."""
    return _seqsum(_moduli(a.box))


def gns_norm(a: TorusElement) -> float:
    """tau(a* a)^(1/2), the root of the sum of the squared moduli."""
    mags = _moduli(a.box)
    return math.sqrt(_seqsum(mags * mags))


def is_scalar(a: TorusElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the off-scalar l1 mass is at most tol.algebraic_eps."""
    mags = _moduli(a.box)
    at = _origin(a)
    if at is not None:
        mags[at] = 0.0
    return _seqsum(mags) <= tol.algebraic_eps


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
    """The coefficients of a inside [-box, box]^2; a itself when it has no other."""
    (m0, n0), (h, w) = a.offset, a.box.shape
    r0, c0 = max(0, -box - m0), max(0, -box - n0)
    r1, c1 = max(r0, min(h, box - m0 + 1)), max(c0, min(w, box - n0 + 1))
    if (r0, r1, c0, c1) == (0, h, 0, w):
        return a
    return TorusElement.from_box(a.theta, (m0 + r0, n0 + c0), a.box[r0:r1, c0:c1].copy())


def prune(a: TorusElement, rel_threshold: float = 1e-16) -> TorusElement:
    """Drop coefficients of modulus at most rel_threshold * peak.

    peak is Python's max over the nonzero cells in row-major order: NaN
    when the first of them is NaN (then nothing is kept), otherwise the
    largest modulus that is not NaN.
    """
    if not a.box.size:
        return a
    mags = _moduli(a.box)
    flat = mags.ravel()
    peak = float(np.fmax.reduce(flat))
    nans = np.isnan(flat)
    if nans.any() and nans[np.flatnonzero(flat)[0]]:
        peak = math.nan
    kept = np.where(mags > rel_threshold * peak, a.box, 0j)
    return TorusElement.from_box(a.theta, a.offset, kept)


def exp_i(h: TorusElement, t: float = 1.0, max_order: int = 60) -> TorusElement:
    """exp(i t h) by power series with per-term pruning; unitary for h = h*.

    Each series term and the result are pruned at EXP_I_PRECISION relative
    to their peak.  The series is stopped once the incoming term's l1 norm
    is below 1e-15 relative to the accumulated l1 mass; ConvergenceError is
    raised when that has not happened after max_order terms, or when a term
    is not finite before pruning (prune would drop it and the series would
    look converged).  A non-finite t or coefficient of h is a ValueError.
    Per-term pruning keeps the support from growing linearly with the
    series order.
    """
    if not math.isfinite(t):
        raise ValueError(f"exp_i: t must be finite, got {t!r}")
    if not np.isfinite(h.box).all():
        raise ValueError("exp_i: h has non-finite coefficients")
    ith = scale(1j * t, h)
    term = acc = one(h.theta)
    term_l1 = acc_l1 = 1.0
    for k in range(1, max_order + 1):
        term = scale(1.0 / k, mul(term, ith))
        if not np.isfinite(term.box).all():
            raise ConvergenceError(f"exp_i: series term of order {k} is not finite")
        term = prune(term, EXP_I_PRECISION)
        acc = add(acc, term)
        term_l1, acc_l1 = l1_norm(term), l1_norm(acc)
        if term_l1 <= 1e-15 * max(1.0, acc_l1):
            return prune(acc, EXP_I_PRECISION)
    raise ConvergenceError(
        f"exp_i: series not converged after {max_order} terms "
        f"(last term l1 {term_l1:.3e}, sum l1 {acc_l1:.3e})")


def to_json(a: TorusElement) -> str:
    """Serialize as {"theta": t, "coeffs": [[m, n, re, im], ...]} sorted by (m, n)."""
    rows = [[m, n, c.real, c.imag] for (m, n), c in a.coeffs.items()]
    return json.dumps({"theta": a.theta, "coeffs": rows})


def from_json(text: str) -> TorusElement:
    """Inverse of to_json.  Raises ValueError when the support's bounding box
    exceeds MAX_BOX_CELLS."""
    data = json.loads(text)
    coeffs = {(int(m), int(n)): complex(re, im) for m, n, re, im in data["coeffs"]}
    return TorusElement(float(data["theta"]), coeffs)
