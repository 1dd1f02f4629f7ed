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

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    EXP_I_PRECISION,
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
    phases,
    prune,
    scale,
    sub,
    trace,
    trace_product,
)


class ConstraintError(ValueError):
    """No constrained partner exists, or a supplied pair violates its constraint."""


def unitary_defect(x: TorusElement) -> float:
    return l1_norm(sub(mul(adjoint(x), x), one(x.theta)))


def selfadjoint_defect(x: TorusElement) -> float:
    """gns norm of x - x*; needs no product."""
    return gns_norm(sub(x, adjoint(x)))


def idempotency_defect(p: TorusElement) -> float:
    """||p^2 - p|| in gns norm."""
    return gns_norm(sub(mul(p, p), p))


def projection_defect(p: TorusElement) -> tuple[float, float]:
    """(selfadjointness defect, idempotency defect) in gns norm."""
    return selfadjoint_defect(p), idempotency_defect(p)


# ------------------------------------------------------------ two-point model


def ising_energy(p: TorusElement) -> float:
    """tau(delta_1(p)^2 + delta_2(p)^2); nonnegative for selfadjoint p."""
    d1, d2 = delta(1, p), delta(2, p)
    return (trace_product(d1, d1) + trace_product(d2, d2)).real


def ising_commutator(p: TorusElement) -> TorusElement:
    """p (Lap p) - (Lap p) p, the left side of the projection field equation.

    Both products are formed.  The one-product form X - X* with X = p Lap p
    equals this only for p = p*, and a computed projection is self-adjoint
    only to roundoff, a defect Lap amplifies by up to 4 pi^2 (m^2 + n^2) on
    the support: for the default instanton (box 32, gns self-adjointness
    defect 3.9e-14) X - X* reads 4.2e-11 where this commutator reads 7.9e-10.
    """
    lp = laplacian(p)
    return sub(mul(p, lp), mul(lp, p))


def ising_el_residual(p: TorusElement) -> float:
    """gns norm of p (Lap p) - (Lap p) p, the projection field equation."""
    return gns_norm(ising_commutator(p))


def chern_number(p: TorusElement) -> float:
    """(1 / 2 pi i) tau(p [delta_1(p) delta_2(p) - delta_2(p) delta_1(p)]),
    integer-valued on projections.

    Needs self-adjoint p: then delta_j(p)* = delta_j(p) and cyclicity make
    tau(p delta_2(p) delta_1(p)) the conjugate of X = tau(p delta_1(p)
    delta_2(p)), so the invariant is Im(X) / pi and takes one product.
    """
    return trace_product(p, mul(delta(1, p), delta(2, p))).imag / math.pi


def _duality_residuals(p: TorusElement, ops) -> tuple[float, ...]:
    """gns of op(delta_1(p), i delta_2(p)) p / 2 for each op: `sub` gives the
    holomorphic factor (delta_1 - i delta_2)(p) / 2, `add` the antiholomorphic."""
    d1, i_d2 = delta(1, p), scale(1j, delta(2, p))
    return tuple(gns_norm(mul(scale(0.5, op(d1, i_d2)), p)) for op in ops)


def duality_residuals(p: TorusElement) -> tuple[float, float]:
    """(holomorphic, antiholomorphic) residuals: gns of (delta_1 -+ i delta_2)(p) p / 2.

    Exactly one of the two vanishes on an energy-minimizing projection; which
    one is tied to the sign of the Chern number (the holomorphic side for the
    Gaussian projections here, whose Chern number is -1).
    """
    return _duality_residuals(p, (sub, add))


def self_duality_residual(p: TorusElement) -> float:
    """Residual of the duality equation that forces equality in the
    energy-Chern bound for this module's orientation (Chern number -1):
    gns norm of (delta_1 - i delta_2)(p) p / 2."""
    return _duality_residuals(p, (sub,))[0]


# --------------------------------------------------------------- chiral model


def _chiral_energy_and_field(W: TorusElement, field: bool) -> tuple[float, TorusElement | None]:
    """The energy tau(sum_j delta_j(W)* delta_j(W)) and, if field is set, the
    field equation W* (Lap W) + sum_j delta_j(W)* delta_j(W), from one
    product delta_j(W)* delta_j(W) per j, each dropped before the next."""
    acc = mul(adjoint(W), laplacian(W)) if field else None
    total = 0.0
    for j in (1, 2):
        dW = delta(j, W)
        square = mul(adjoint(dW), dW)
        total += trace(square).real
        if field:
            acc = add(acc, square)
    return total, acc


def chiral_energy(W: TorusElement) -> float:
    """tau(delta_1(W)* delta_1(W) + delta_2(W)* delta_2(W)).

    This is the full circle-model functional; the per-generator energy is
    half of it.
    """
    return _chiral_energy_and_field(W, field=False)[0]


def chiral_field_equation(W: TorusElement) -> TorusElement:
    """W* (Lap W) + sum_j delta_j(W)* delta_j(W); zero on harmonic unitaries."""
    return _chiral_energy_and_field(W, field=True)[1]


def chiral_residual(W: TorusElement) -> float:
    """gns norm of W* (Lap W) + sum_j delta_j(W)* delta_j(W)."""
    return gns_norm(chiral_field_equation(W))


def chiral_energy_and_residual(W: TorusElement) -> tuple[float, float]:
    """(chiral_energy(W), chiral_residual(W)), bit for bit, from the one set
    of products delta_j(W)* delta_j(W) that both read."""
    energy, field = _chiral_energy_and_field(W, field=True)
    return energy, gns_norm(field)


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
        tw = phases(self.theta, -1)
        return l1_norm(sub(mul(self.phiU, self.phiV), scale(tw, mul(self.phiV, self.phiU))))


@dataclass(frozen=True)
class ConstraintPair:
    """Self-adjoint test elements entering an Euler-Lagrange pairing."""

    A: TorusElement
    B: TorusElement


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


# Indices with |1 - eigenvalue| at most this form the null set of a solver.
_NULL_TOL = 1e-9


def _null_gaps(h: TorusElement, first: TorusElement) -> np.ndarray:
    """1 - exp(-2 pi i theta (n p - q m)) over h's box, for first = U^p V^q:
    one minus the eigenvalue of conjugation by U^p V^q at index (m, n)."""
    p, q, _ = _monomial_index(first)
    (m0, n0), (rows, cols) = h.offset, h.box.shape
    ms, ns = np.ogrid[m0:m0 + rows, n0:n0 + cols]
    return 1.0 - phases(h.theta, p * ns - q * ms)


def off_null_set(h: TorusElement, first: TorusElement) -> TorusElement:
    """h restricted to the indices where |1 - exp(-2 pi i theta (n p - q m))|
    exceeds _NULL_TOL, for the monomial first = U^p V^q.

    This is the null set both constraint solvers set aside.  At theta = a/b
    in lowest terms it is every index where b divides n p - q m, not only
    the lattice n p = q m.
    """
    gaps = _null_gaps(h, first)
    kept = np.where(np.hypot(gaps.real, gaps.imag) > _NULL_TOL, h.box, 0j)
    return TorusElement.from_box(h.theta, h.offset, kept)


def _diagonal_solve(rhs: TorusElement, first: TorusElement, entry) -> TorusElement:
    """B_{m,n} = numer / denom with (numer, denom) = entry(m, n, c, gap) for
    each coefficient c of rhs, where gap is _null_gaps at its index.

    B is zero on the null set |gap| <= _NULL_TOL; a numerator above
    _NULL_TOL * max(1, |rhs|_1) there raises ConstraintError, as does a
    non-self-adjoint result.
    """
    theta = rhs.theta
    gaps = _null_gaps(rhs, first)[rhs.box != 0].tolist()  # row-major, as coeffs
    coeffs = {}
    bad = []
    rscale = max(1.0, l1_norm(rhs))
    for ((m, n), c), gap in zip(rhs.coeffs.items(), gaps):
        numer, denom = entry(m, n, c, gap)
        if abs(gap) <= _NULL_TOL:
            if abs(numer) > _NULL_TOL * rscale:
                bad.append((m, n))
            continue
        coeffs[(m, n)] = numer / denom
    if bad:
        raise ConstraintError(f"inconsistent constraint at null indices {bad}")
    B = TorusElement(theta, coeffs)
    sa = l1_norm(sub(B, adjoint(B)))
    if sa > 1e-9 * max(1.0, l1_norm(B)):
        raise ConstraintError(f"solved B is not self-adjoint (defect {sa:.3e})")
    return B


def solve_constraint_for_B(A: TorusElement, phi: EndoPair) -> TorusElement:
    """Solve B - phi(U)* B phi(U) = A - phi(V)* A phi(V) coefficient-wise.

    For monomial phi(U) = U^p V^q the conjugation is diagonal with eigenvalue
    exp(-2 pi i theta (n p - q m)) at index (m, n), so B_{m,n} = K_{m,n} / gap
    with K the right-hand side; B is zero on the null set (see off_null_set),
    where K must vanish.
    """
    K = sub(A, mul(mul(adjoint(phi.phiV), A), phi.phiV))
    return _diagonal_solve(K, phi.phiU, lambda m, n, c, gap: (c, gap))


def _current_divergence_pairing(X: TorusElement, img: TorusElement) -> complex:
    """sum_j tau(X delta_j[img* delta_j(img)])."""
    total = 0.0 + 0.0j
    for j in (1, 2):
        inner = mul(adjoint(img), delta(j, img))
        total += trace_product(X, delta(j, inner))
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


def solve_su2_constraint_for_B(A: TorusElement, phi: CoerciveQuadruple) -> TorusElement:
    """Solve both constraint identities for B given self-adjoint A.

    With monomial u = U^p V^q, v = U^r V^s and x = exp(-2 pi i theta), both
    identities reduce to the same diagonal multiplier

        B_{m,n} = A_{m,n} x^{(q - s) m} (x^{n r} - x^{s m}) / (x^{n p} - x^{q m}),

    zero on the null set of u (see off_null_set), where the numerator must
    vanish.
    """
    p, q, _ = _monomial_index(phi.u)
    r, s, _ = _monomial_index(phi.v)
    x = complex(phases(A.theta, 1))

    def entry(m, n, c, gap):
        numer = x ** (n * r) - x ** (s * m)
        return c * x ** ((q - s) * m) * numer, x ** (n * p) - x ** (q * m)

    return _diagonal_solve(A, phi.u, entry)


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
    """Self-adjoint gradient g with dE/dt = tau(h g) along W_t = exp(i t h) W:
    g = i(Y - Y*) with Y = (Lap W) W*, since W (Lap W)* = Y*."""
    Y = mul(laplacian(W), adjoint(W))
    return scale(1j, sub(Y, adjoint(Y)))


def chiral_variation_pairing(W: TorusElement, h: TorusElement) -> float:
    """tau(h g) for the gradient g of _chiral_gradient, by cyclicity
    Re(i (tau(W* h Lap W) - tau((Lap W)* h W))): two products with the
    direction h in place of two products of W with Lap W."""
    lw = laplacian(W)
    return (1j * (trace_product(mul(adjoint(W), h), lw)
                  - trace_product(mul(adjoint(lw), h), W))).real


def ising_variation_pairing(p: TorusElement, h: TorusElement) -> float:
    return (-2j * trace_product(h, ising_commutator(p))).real


def first_variation_check(model: str, x: TorusElement, h: TorusElement,
                          step: float) -> tuple[float, float]:
    """(centered finite difference, analytic pairing) of the energy at t = 0.

    chiral: along W_t = exp(i t h) x.  ising: along p_t = exp(i t h) x
    exp(-i t h).  The two agree to O(step^2).  step must be finite and > 0.

    In the chiral branch W_t is pruned at EXP_I_PRECISION, the precision of
    exp_i itself, before its energy is taken.  The energy is diagonal in the
    monomial basis, L_D(W) = sum_k 4 pi^2 |k|^2 |W_k|^2, since
    tau(a* a) = sum |a_k|^2; so pruning moves it by exactly
    sum_dropped 4 pi^2 |k|^2 |c_k|^2, about 1e-30 relative, while the ring
    of near-zero cells the factor exp(i t h) adds around x's box goes, and
    with it most of the cost of chiral_energy's two products.  The ising
    branch is left as it is: its energy is read through trace_product, so
    it forms no large product of p_t, and pruning its w x saved only 10 to
    18 % of its test's time.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    if model == "chiral":
        def energy(t):
            return chiral_energy(prune(mul(exp_i(h, t), x), EXP_I_PRECISION))

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


def energy_descent(x0: TorusElement, steps: int, rate: float) -> DescentResult:
    """Gradient flow for the circle model with multiplicative unitary updates.

    Each step applies x <- exp(-i rate g) x with g the self-adjoint gradient,
    which preserves unitarity structurally.  Stops early (reported, not
    fatal) after 5 consecutive non-decreasing energies.
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
            if stall >= 5:
                return DescentResult(x, energies, True)
        else:
            stall = 0
    return DescentResult(x, energies, False)
