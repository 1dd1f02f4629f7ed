"""The integer-lattice conjugation action on field data, gauge-orbit
comparisons, and the scalar-current monomial detector.

Conjugating by w = U^m V^n is an inner automorphism; on coefficients it is
the closed-form phase map

    x_{a,b}  ->  exp(2 pi i theta (m b - n a)) x_{a,b},

kept here both in closed form (production) and as the two-sided twisted
product (test oracle).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    MAX_INDEX,
    Tolerance,
    TorusElement,
    adjoint,
    delta,
    gns_norm,
    is_scalar,
    l1_norm,
    modulate,
    monomial,
    mul,
    one,
    phases,
    sub,
    trace,
)
from .models import CoerciveQuadruple, EndoPair, unitary_defect

LatticePoint = tuple[int, int]


def ad(w_index: LatticePoint, x: TorusElement) -> TorusElement:
    """w x w* for w = U^m V^n, |m|, |n| <= MAX_INDEX, as the closed-form phase
    map on coefficients: x_{a,b} times phases(theta, n a - m b) over x's box."""
    m, n = w_index
    if max(abs(m), abs(n)) > MAX_INDEX:
        raise ValueError(f"lattice point {w_index} outside [-{MAX_INDEX}, {MAX_INDEX}]^2")
    if m == 0 and n == 0:
        return x
    (a0, b0), (h, w) = x.offset, x.box.shape
    a, b = np.ogrid[a0:a0 + h, b0:b0 + w]
    return modulate(x, phases(x.theta, n * a - m * b))


def ad_via_products(w_index: LatticePoint, x: TorusElement) -> TorusElement:
    """The same automorphism as two twisted products; oracle for ad()."""
    m, n = w_index
    w = monomial(x.theta, m, n)
    return mul(mul(w, x), adjoint(w))


def ad_on_endo(w_index: LatticePoint, phi: EndoPair) -> EndoPair:
    return EndoPair(ad(w_index, phi.phiU), ad(w_index, phi.phiV))


def ad_on_coercive(w_index: LatticePoint, phi: CoerciveQuadruple) -> CoerciveQuadruple:
    return CoerciveQuadruple(phi.mu, phi.nu, ad(w_index, phi.u), ad(w_index, phi.v))


def monomial_detector(w: TorusElement, tol: Tolerance = DEFAULT_TOL
                      ) -> tuple[bool, LatticePoint | None]:
    """Classify w as a scalar multiple of U^m V^n via its logarithmic currents.

    w* delta_1(w) and w* delta_2(w) are both scalar exactly on monomials, in
    which case the scalars are 2 pi i m |c|^2 and 2 pi i n |c|^2 and the
    witness (m, n) is recovered; the recovered currents must be purely
    imaginary within tolerance.
    """
    defect = unitary_defect(w)
    if defect > tol.truncation_eps:
        raise ValueError(f"monomial_detector needs a unitary input (defect {defect:.3e})")
    ws = adjoint(w)
    norm_sq = gns_norm(w) ** 2
    witness = []
    for j in (1, 2):
        cur = mul(ws, delta(j, w))
        if not is_scalar(cur, tol):
            return False, None
        s = trace(cur)
        if abs(s.real) > math.sqrt(tol.algebraic_eps) * max(1.0, abs(s)):
            return False, None
        k = s.imag / (2.0 * math.pi * norm_sq)
        if abs(k - round(k)) > 1e-6:
            return False, None
        witness.append(round(k))
    return True, (witness[0], witness[1])


def projective_equal(u: TorusElement, v: TorusElement,
                     tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff v = lambda u for a unit-modulus scalar, within tolerance."""
    w = mul(adjoint(u), v)
    s = trace(w)
    off = l1_norm(sub(w, s * one(u.theta)))
    scale_ = max(1.0, l1_norm(w))
    return off <= 1e3 * tol.algebraic_eps * scale_ and abs(abs(s) - 1.0) <= 1e3 * tol.algebraic_eps
