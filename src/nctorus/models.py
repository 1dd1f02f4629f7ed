"""Energy functionals, Euler-Lagrange residuals, and constraint machinery for
the four field models over the rotation algebra: two-point (projection),
circle-valued (unitary), torus-endomorphism, and the commuting-pair model
obtained from the q = 1 quantum group.

All residuals are reported in the gns norm, constraint defects in l1.
Preconditions (unitarity, projection quality) degrade gracefully: they are
measured and exposed, not enforced, except where a violated constraint makes
the requested quantity meaningless.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .algebra import (
    DEFAULT_TOL,
    Tolerance,
    TorusElement,
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
    prune,
    scale,
    sub,
    trace,
)


class ConstraintError(ValueError):
    """No constrained partner exists, or a supplied pair violates its constraint."""


def unitary_defect(x: TorusElement) -> float:
    return l1_norm(sub(mul(adjoint(x), x), one(x.theta)))


def projection_defect(p: TorusElement) -> tuple[float, float]:
    """(selfadjointness defect, idempotency defect) in gns norm."""
    return gns_norm(sub(p, adjoint(p))), gns_norm(sub(mul(p, p), p))


# ------------------------------------------------------------ two-point model


def ising_energy(p: TorusElement) -> float:
    """tau(delta_1(p)^2 + delta_2(p)^2); nonnegative for selfadjoint p."""
    d1, d2 = delta(1, p), delta(2, p)
    return (trace(mul(d1, d1)) + trace(mul(d2, d2))).real


def ising_el_residual(p: TorusElement) -> float:
    """gns norm of p (Lap p) - (Lap p) p, the projection field equation."""
    lp = laplacian(p)
    return gns_norm(sub(mul(p, lp), mul(lp, p)))


def chern_number(p: TorusElement) -> float:
    """(1 / 2 pi i) tau(p [delta_1(p) delta_2(p) - delta_2(p) delta_1(p)]).

    Real part of the invariant; integer-valued on projections.
    """
    d1, d2 = delta(1, p), delta(2, p)
    comm = sub(mul(d1, d2), mul(d2, d1))
    return (trace(mul(p, comm)) / (2j * math.pi)).real


def duality_residuals(p: TorusElement) -> tuple[float, float]:
    """(holomorphic, antiholomorphic) residuals: gns of (delta_1 -+ i delta_2)(p) p / 2.

    Exactly one of the two vanishes on an energy-minimizing projection; which
    one is tied to the sign of the Chern number (the holomorphic side for the
    Gaussian projections here, whose Chern number is -1).
    """
    d1, d2 = delta(1, p), delta(2, p)
    holo = scale(0.5, sub(d1, scale(1j, d2)))
    anti = scale(0.5, add(d1, scale(1j, d2)))
    return gns_norm(mul(holo, p)), gns_norm(mul(anti, p))


def self_duality_residual(p: TorusElement) -> float:
    """Residual of the duality equation that forces equality in the
    energy-Chern bound for this module's orientation (Chern number -1):
    gns norm of (delta_1 - i delta_2)(p) p / 2."""
    return duality_residuals(p)[0]


# --------------------------------------------------------------- chiral model


def chiral_energy(W: TorusElement) -> float:
    """tau(delta_1(W)* delta_1(W) + delta_2(W)* delta_2(W)).

    This is the full circle-model functional; the per-generator energy is
    half of it.
    """
    total = 0.0
    for j in (1, 2):
        dW = delta(j, W)
        total += trace(mul(adjoint(dW), dW)).real
    return total


def chiral_residual(W: TorusElement) -> float:
    """gns norm of W* (Lap W) + sum_j delta_j(W)* delta_j(W)."""
    acc = mul(adjoint(W), laplacian(W))
    for j in (1, 2):
        dW = delta(j, W)
        acc = add(acc, mul(adjoint(dW), dW))
    return gns_norm(acc)


def harmonic_from_projection(p: TorusElement) -> TorusElement:
    """W = 1 - 2p; unitary exactly when p is a projection."""
    return sub(one(p.theta), scale(2.0, p))


# --------------------------------------------------------- endomorphism model


@dataclass(frozen=True)
class EndoPair:
    """Images (phi(U), phi(V)) of a candidate endomorphism."""

    phiU: TorusElement
    phiV: TorusElement

    @property
    def theta(self) -> float:
        return self.phiU.theta

    def relation_residual(self) -> float:
        """l1 defect of phi(U) phi(V) = exp(2 pi i theta) phi(V) phi(U)."""
        tw = cmath.exp(2j * math.pi * self.theta)
        return l1_norm(sub(mul(self.phiU, self.phiV), scale(tw, mul(self.phiV, self.phiU))))

    def unitarity_defects(self) -> tuple[float, float]:
        return unitary_defect(self.phiU), unitary_defect(self.phiV)


@dataclass(frozen=True)
class ConstraintPair:
    """Self-adjoint test elements entering an Euler-Lagrange pairing."""

    A: TorusElement
    B: TorusElement

    def selfadjoint_defects(self) -> tuple[float, float]:
        return (l1_norm(sub(self.A, adjoint(self.A))),
                l1_norm(sub(self.B, adjoint(self.B))))


def endo_from_matrix(theta: float, p: int, q: int, r: int, s: int) -> EndoPair:
    """Monomial endomorphism U -> U^p V^q, V -> U^r V^s for ps - qr = 1."""
    if p * s - q * r != 1:
        raise ValueError(f"matrix [[{p},{q}],[{r},{s}]] must have determinant 1")
    return EndoPair(monomial(theta, p, q), monomial(theta, r, s))


def endo_energy(phi: EndoPair) -> float:
    return chiral_energy(phi.phiU) + chiral_energy(phi.phiV)


def endo_constraint_residual(pair: ConstraintPair, phi: EndoPair) -> float:
    """l1 norm of (A - phi(V)* A phi(V)) - (B - phi(U)* B phi(U))."""
    lhs = sub(pair.A, mul(mul(adjoint(phi.phiV), pair.A), phi.phiV))
    rhs = sub(pair.B, mul(mul(adjoint(phi.phiU), pair.B), phi.phiU))
    return l1_norm(sub(lhs, rhs))


def _monomial_index(x: TorusElement) -> tuple[int, int, complex]:
    if len(x.coeffs) != 1:
        raise ValueError("monomial image required")
    ((m, n), c), = x.coeffs.items()
    return m, n, c


def solve_constraint_for_B(A: TorusElement, phi: EndoPair,
                           null_tol: float = 1e-9) -> TorusElement:
    """Solve B - phi(U)* B phi(U) = A - phi(V)* A phi(V) coefficient-wise.

    For monomial phi(U) = U^p V^q the conjugation is diagonal with eigenvalue
    exp(-2 pi i theta (n p - q m)) at index (m, n); B is set to zero on the
    null set of the denominator (which, at rational theta, is larger than the
    lattice n p = q m).  Inconsistent right-hand sides on the null set raise
    ConstraintError with the offending indices.
    """
    theta = A.theta
    p, q, _ = _monomial_index(phi.phiU)
    K = sub(A, mul(mul(adjoint(phi.phiV), A), phi.phiV))
    coeffs = {}
    bad = []
    kscale = max(1.0, l1_norm(K))
    for (m, n), c in sorted(K.coeffs.items()):
        d = n * p - q * m
        denom = 1.0 - cmath.exp(-2j * math.pi * theta * d)
        if abs(denom) <= null_tol:
            if abs(c) > null_tol * kscale:
                bad.append((m, n))
            continue
        coeffs[(m, n)] = c / denom
    if bad:
        raise ConstraintError(f"inconsistent constraint at null-lattice indices {bad}")
    B = TorusElement(theta, coeffs)
    sa = l1_norm(sub(B, adjoint(B)))
    if sa > 1e-9 * max(1.0, l1_norm(B)):
        raise ConstraintError(f"solved B is not self-adjoint (defect {sa:.3e})")
    return B


def _current_divergence_pairing(X: TorusElement, img: TorusElement) -> complex:
    """sum_j tau(X delta_j[img* delta_j(img)])."""
    total = 0.0 + 0.0j
    for j in (1, 2):
        inner = mul(adjoint(img), delta(j, img))
        total += trace(mul(X, delta(j, inner)))
    return total


def endo_el_pairing(pair: ConstraintPair, phi: EndoPair,
                    tol: Tolerance = DEFAULT_TOL) -> complex:
    """Euler-Lagrange pairing for the endomorphism model; vanishes for all
    constrained pairs exactly when phi is harmonic."""
    resid = endo_constraint_residual(pair, phi)
    if resid > 100 * tol.algebraic_eps * max(1.0, l1_norm(pair.A), l1_norm(pair.B)):
        raise ConstraintError(f"pair violates the endomorphism constraint (defect {resid:.3e})")
    return (_current_divergence_pairing(pair.A, phi.phiU)
            + _current_divergence_pairing(pair.B, phi.phiV))


# ------------------------------------------------------ commuting-pair model


@dataclass(frozen=True)
class CoerciveQuadruple:
    """Scalars and unitaries defining phi(alpha) = mu u, phi(gamma) = nu v."""

    mu: complex
    nu: complex
    u: TorusElement
    v: TorusElement

    @property
    def theta(self) -> float:
        return self.u.theta

    def phi_alpha(self) -> TorusElement:
        return scale(self.mu, self.u)

    def phi_gamma(self) -> TorusElement:
        return scale(self.nu, self.v)

    def modulus_defect(self) -> float:
        return abs(abs(self.mu) ** 2 + abs(self.nu) ** 2 - 1.0)

    def unitarity_defects(self) -> tuple[float, float]:
        return unitary_defect(self.u), unitary_defect(self.v)

    def commutation_residuals(self) -> tuple[float, float]:
        a, g = self.phi_alpha(), self.phi_gamma()
        r1 = l1_norm(sub(mul(a, g), mul(g, a)))
        gs = adjoint(g)
        r2 = l1_norm(sub(mul(a, gs), mul(gs, a)))
        return r1, r2


def su2_from_matrix(theta: float, p: int, q: int, r: int, s: int) -> CoerciveQuadruple:
    """Coercive map with monomial images at weight 1/sqrt(2); needs ps - qr = 0
    so that the two images commute."""
    if p * s - q * r != 0:
        raise ValueError(f"matrix [[{p},{q}],[{r},{s}]] must be singular (ps - qr = 0)")
    w = 1.0 / math.sqrt(2.0)
    return CoerciveQuadruple(w, w, monomial(theta, p, q), monomial(theta, r, s))


def su2_energy(phi: CoerciveQuadruple) -> float:
    return chiral_energy(phi.phi_alpha()) + chiral_energy(phi.phi_gamma())


def su2_constraint_residuals(pair: ConstraintPair, phi: CoerciveQuadruple) -> tuple[float, float]:
    """l1 defects of the two constraint identities tying (A, B) to phi."""
    a, g = phi.phi_alpha(), phi.phi_gamma()
    A, B = pair.A, pair.B
    e1 = sub(sub(mul(mul(a, A), g), mul(mul(g, a), A)),
             sub(mul(mul(g, B), a), mul(mul(a, g), B)))
    gs = adjoint(g)
    e2 = sub(sub(mul(mul(a, A), gs), mul(mul(gs, a), A)),
             sub(mul(mul(a, B), gs), mul(mul(B, gs), a)))
    return l1_norm(e1), l1_norm(e2)


def solve_su2_constraint_for_B(A: TorusElement, phi: CoerciveQuadruple,
                               null_tol: float = 1e-9) -> TorusElement:
    """Solve both constraint identities for B given self-adjoint A.

    With monomial u = U^p V^q, v = U^r V^s and x = exp(-2 pi i theta), both
    identities reduce to the same diagonal multiplier

        B_{m,n} = A_{m,n} x^{(q - s) m} (x^{n r} - x^{s m}) / (x^{n p} - x^{q m}),

    zero on the null set of the denominator (consistency required there).
    """
    theta = A.theta
    p, q, _ = _monomial_index(phi.u)
    r, s, _ = _monomial_index(phi.v)
    x = cmath.exp(-2j * math.pi * theta)
    coeffs = {}
    bad = []
    ascale = max(1.0, l1_norm(A))
    for (m, n), c in sorted(A.coeffs.items()):
        denom = x ** (n * p) - x ** (q * m)
        numer = x ** (n * r) - x ** (s * m)
        if abs(denom) <= null_tol:
            if abs(c * numer) > null_tol * ascale:
                bad.append((m, n))
            continue
        coeffs[(m, n)] = c * x ** ((q - s) * m) * numer / denom
    if bad:
        raise ConstraintError(f"inconsistent constraint at null indices {bad}")
    B = TorusElement(theta, coeffs)
    sa = l1_norm(sub(B, adjoint(B)))
    if sa > 1e-9 * max(1.0, l1_norm(B)):
        raise ConstraintError(f"solved B is not self-adjoint (defect {sa:.3e})")
    return B


def su2_el_pairing(pair: ConstraintPair, phi: CoerciveQuadruple,
                   tol: Tolerance = DEFAULT_TOL) -> complex:
    """Euler-Lagrange pairing for coercive maps; zero on critical points."""
    r1, r2 = su2_constraint_residuals(pair, phi)
    scale_ = max(1.0, l1_norm(pair.A), l1_norm(pair.B))
    if max(r1, r2) > 100 * tol.algebraic_eps * scale_:
        raise ConstraintError(f"pair violates the coercive constraints ({r1:.3e}, {r2:.3e})")
    return (_current_divergence_pairing(pair.A, phi.phi_alpha())
            + _current_divergence_pairing(pair.B, phi.phi_gamma()))


# ---------------------------------------------------------- variational checks


def _chiral_gradient(W: TorusElement) -> TorusElement:
    """Self-adjoint gradient g with dE/dt = tau(h g) along W_t = exp(i t h) W."""
    lw = laplacian(W)
    X = sub(mul(lw, adjoint(W)), mul(W, adjoint(lw)))
    return scale(1j, X)


def chiral_variation_pairing(W: TorusElement, h: TorusElement) -> float:
    return trace(mul(h, _chiral_gradient(W))).real


def ising_variation_pairing(p: TorusElement, h: TorusElement) -> float:
    lp = laplacian(p)
    comm = sub(mul(p, lp), mul(lp, p))
    return (-2j * trace(mul(h, comm))).real


def first_variation_check(model: str, x: TorusElement, h: TorusElement,
                          step: float) -> tuple[float, float]:
    """(centered finite difference, analytic pairing) of the energy at t = 0.

    chiral: along W_t = exp(i t h) x.  ising: along p_t = exp(i t h) x
    exp(-i t h).  The two agree to O(step^2).
    """
    if model == "chiral":
        def energy(t):
            return chiral_energy(mul(exp_i(h, t), x))

        pairing = chiral_variation_pairing(x, h)
    elif model == "ising":
        def energy(t):
            w = exp_i(h, t)
            return ising_energy(mul(mul(w, x), adjoint(w)))

        pairing = ising_variation_pairing(x, h)
    else:
        raise ValueError(f"unknown model {model!r}")
    fd = (energy(step) - energy(-step)) / (2.0 * step)
    return fd, pairing


@dataclass(frozen=True)
class DescentResult:
    x: TorusElement
    energies: list[float]
    stagnated: bool


def energy_descent(x0: TorusElement, steps: int, rate: float,
                   stall_limit: int = 5) -> DescentResult:
    """Gradient flow for the circle model with multiplicative unitary updates.

    Each step applies x <- exp(-i rate g) x with g the self-adjoint gradient,
    which preserves unitarity structurally.  Stops early (reported, not
    fatal) after stall_limit consecutive non-decreasing energies.
    """
    x = x0
    energies = [chiral_energy(x)]
    stall = 0
    for _ in range(steps):
        if rate == 0.0:
            energies.append(energies[-1])
            continue
        # compact supports keep the exponential series tractable
        g = prune(_chiral_gradient(x), 1e-13)
        x = prune(exp_i(g, -rate) * x, 1e-15)
        energies.append(chiral_energy(x))
        if energies[-1] >= energies[-2] - 1e-15:
            stall += 1
            if stall >= stall_limit:
                return DescentResult(x, energies, True)
        else:
            stall = 0
    return DescentResult(x, energies, False)
