"""Independent oracles used to cross-check the production arithmetic.

Two deliberately different models of the same relations:

* a symbolic word rewriter that normal-orders strings in the generators by
  repeatedly applying the single commutation rule, tracking the phase; and
* the q x q clock-and-shift matrix pair, which satisfies the same relation
  at theta = 1/q and carries the normalized matrix trace; matrix_rep builds
  each monomial from matrix powers of that pair, independently of the
  verify suite's entrywise clock_shift_rep.

It also keeps the product formulas of the functionals that now read tau(ab)
through trace_product, written with mul_reference and trace, so the code
under test is checked against forming the products.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from nctorus.algebra import adjoint, delta, laplacian, mul_reference, scale, sub, trace

Symbol = tuple[str, int]  # ("U" | "V", +1 | -1)

# Matrices (p, q, r, s) of the endomorphism and commuting-pair models that the
# solver tests sweep.
ENDO_MATS = [(1, 0, 0, 1), (1, 1, 0, 1), (2, 1, 1, 1), (1, -1, 0, 1), (3, 2, 1, 1)]
SU2_MATS = [(1, 0, 2, 0), (1, 1, 1, 1), (2, 1, 4, 2), (0, 1, 0, 3), (1, 2, 2, 4)]


def word_for_monomial(m: int, n: int) -> list[Symbol]:
    """U^m V^n as a left-to-right symbol string."""
    word = [("U", 1 if m > 0 else -1)] * abs(m)
    word += [("V", 1 if n > 0 else -1)] * abs(n)
    return word


def normal_order(word: list[Symbol], theta: float) -> tuple[int, int, complex]:
    """Reduce a symbol string to (m, n, phase) with value = phase * U^m V^n.

    Only the defining relation is used, one adjacent swap at a time:
    V^d U^e = exp(-2 pi i theta d e) U^e V^d.
    """
    w = list(word)
    phase = 1.0 + 0.0j
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            (g1, e1), (g2, e2) = w[i], w[i + 1]
            if g1 == "V" and g2 == "U":
                phase *= cmath.exp(-2j * math.pi * theta * e1 * e2)
                w[i], w[i + 1] = w[i + 1], w[i]
                changed = True
    m = sum(e for g, e in w if g == "U")
    n = sum(e for g, e in w if g == "V")
    return m, n, phase


def oracle_monomial_product(theta, k, l, m, n):
    """(U^k V^l)(U^m V^n) by pure word rewriting: returns (index, phase)."""
    mm, nn, ph = normal_order(word_for_monomial(k, l) + word_for_monomial(m, n), theta)
    return (mm, nn), ph


def oracle_monomial_adjoint(theta, m, n):
    """(U^m V^n)^* by reversing and inverting the word: returns (index, phase)."""
    word = [(g, -e) for g, e in reversed(word_for_monomial(m, n))]
    mm, nn, ph = normal_order(word, theta)
    return (mm, nn), ph


def clock_shift(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(clock, shift) q x q matrices with clock @ shift = exp(2 pi i / q) shift @ clock."""
    omega = np.exp(2j * np.pi / q)
    clock = np.diag(omega ** np.arange(q))
    shift = np.zeros((q, q), dtype=complex)
    for j in range(q):
        shift[(j + 1) % q, j] = 1.0
    return clock, shift


def _power(mat: np.ndarray, k: int) -> np.ndarray:
    """mat^k for a unitary mat; a negative power through the conjugate transpose."""
    return np.linalg.matrix_power(mat if k >= 0 else mat.conj().T, abs(k))


def matrix_rep(a, q: int) -> np.ndarray:
    """a at theta = 1/q as sum c_{m,n} clock^m shift^n, q x q."""
    clock, shift = clock_shift(q)
    rep = np.zeros((q, q), dtype=complex)
    for (m, n), c in a.coeffs.items():
        rep += c * (_power(clock, m) @ _power(shift, n))
    return rep


def matrix_trace(mat: np.ndarray) -> complex:
    return complex(np.trace(mat)) / mat.shape[0]


# ------------------------------------------- functionals as trace of products


def ising_energy_by_products(p):
    """tau(delta_1(p)^2 + delta_2(p)^2)."""
    d1, d2 = delta(1, p), delta(2, p)
    return (trace(mul_reference(d1, d1)) + trace(mul_reference(d2, d2))).real


def chern_number_by_products(p):
    """(1 / 2 pi i) tau(p [delta_1(p), delta_2(p)])."""
    d1, d2 = delta(1, p), delta(2, p)
    comm = sub(mul_reference(d1, d2), mul_reference(d2, d1))
    return (trace(mul_reference(p, comm)) / (2j * math.pi)).real


def chiral_variation_pairing_by_products(W, h):
    """tau(h g) with g = i ((Lap W) W* - W (Lap W)*)."""
    lw = laplacian(W)
    X = sub(mul_reference(lw, adjoint(W)), mul_reference(W, adjoint(lw)))
    return trace(mul_reference(h, scale(1j, X))).real


def ising_variation_pairing_by_products(p, h):
    """Re(-2i tau(h (p (Lap p) - (Lap p) p)))."""
    lp = laplacian(p)
    comm = sub(mul_reference(p, lp), mul_reference(lp, p))
    return (-2j * trace(mul_reference(h, comm))).real


def current_divergence_pairing_by_products(X, img):
    """sum_j tau(X delta_j[img* delta_j(img)])."""
    total = 0.0 + 0.0j
    for j in (1, 2):
        inner = mul_reference(adjoint(img), delta(j, img))
        total += trace(mul_reference(X, delta(j, inner)))
    return total


def chiral_gradient_by_products(W):
    """i ((Lap W) W* - W (Lap W)*), both products formed."""
    lw = laplacian(W)
    return scale(1j, sub(mul_reference(lw, adjoint(W)), mul_reference(W, adjoint(lw))))


# ------------------------------------- coefficient-wise operations on dicts
#
# The dict-and-loop forms of the coefficient-wise operations and of exp_i,
# as they stood before elements became arrays.  Each takes and returns
# plain dicts {(m, n): complex} in the normal form of the old constructor
# (no stored zeros); operations that drop mass also return the dropped l1
# mass, summed in the iteration order of their input dict.


def _normal(coeffs):
    return {k: c for k, c in coeffs.items() if c != 0}


def _twist(theta, l, m):
    if l == 0 or m == 0:
        return 1.0 + 0.0j
    return cmath.exp(-2j * math.pi * theta * (l * m))


def add_dict(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0.0) + c
    return _normal(out)


def sub_dict(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0.0) - c
    return _normal(out)


def scale_dict(c, a):
    if c == 0:
        return {}
    return _normal({k: c * v for k, v in a.items()})


def adjoint_dict(theta, a):
    return _normal({(-m, -n): c.conjugate() * _twist(theta, m, n) for (m, n), c in a.items()})


def delta_dict(j, a):
    pick = 0 if j == 1 else 1
    return _normal({k: c * (2.0 * math.pi * 1j * k[pick]) for k, c in a.items() if k[pick] != 0})


def laplacian_dict(a):
    return _normal({k: c * (-4.0 * math.pi**2 * (k[0] * k[0] + k[1] * k[1]))
                    for k, c in a.items() if k != (0, 0)})


def norms_dict(a):
    l1 = 0.0
    sq = 0.0
    for c in a.values():
        m = abs(c)
        l1 += m
        sq += m * m
    return l1, math.sqrt(sq)


def is_scalar_dict(a, eps):
    return sum(abs(c) for k, c in a.items() if k != (0, 0)) <= eps


def truncate_dict(a, box):
    kept, dropped = {}, 0.0
    for (m, n), c in a.items():
        if abs(m) <= box and abs(n) <= box:
            kept[(m, n)] = c
        else:
            dropped += abs(c)
    return kept, dropped


def prune_dict(a, rel_threshold):
    if not a:
        return {}, 0.0
    cut = rel_threshold * max(abs(c) for c in a.values())
    kept, dropped = {}, 0.0
    for k, c in a.items():
        if abs(c) > cut:
            kept[k] = c
        else:
            dropped += abs(c)
    return kept, dropped


def ad_dict(theta, w_index, a):
    """w a w* for w = U^m V^n, coefficient by coefficient."""
    m, n = w_index
    if m == 0 and n == 0:
        return dict(a)
    out = {}
    for (p, q), c in a.items():
        arg = m * q - n * p
        out[(p, q)] = c * (1.0 + 0.0j if arg == 0 else cmath.exp(2j * math.pi * theta * arg))
    return _normal(out)


def mul_dict(theta, a, b):
    """The twisted product as the double loop over sorted supports."""
    out = {}
    bitems = sorted(b.items())
    for (k, l), ca in sorted(a.items()):
        for (mp, nq), cb in bitems:
            key = (k + mp, l + nq)
            out[key] = out.get(key, 0.0) + ca * (_twist(theta, l, mp) * cb)
    return _normal(out)


def mul_cell(theta, a, b, key):
    """mul_dict's coefficient at `key` alone: ca * (twist * cb) added over a's
    cells in row-major order, starting from 0.0, for each a cell (k, l) whose
    partner key - (k, l) b holds."""
    r, s = key
    total = 0.0
    for (k, l), ca in sorted(a.items()):
        cb = b.get((r - k, s - l))
        if cb is not None:
            total = total + ca * (_twist(theta, l, r - k) * cb)
    return total


def exp_i_dict(theta, h, t=1.0, series_eps=1e-15, max_order=60):
    """(coefficients, tail) of exp(i t h) by the pruned power series."""
    acc, term, tail, acc_tail = {(0, 0): 1.0 + 0.0j}, {(0, 0): 1.0 + 0.0j}, 0.0, 0.0
    ith = scale_dict(1j * t, h)
    for k in range(1, max_order + 1):
        term, dropped = prune_dict(scale_dict(1.0 / k, mul_dict(theta, term, ith)), 1e-17)
        tail = tail + dropped
        acc = add_dict(acc, term)
        acc_tail = acc_tail + tail
        if norms_dict(term)[0] <= series_eps * max(1.0, norms_dict(acc)[0]):
            kept, dropped = prune_dict(acc, 1e-17)
            return kept, acc_tail + dropped
    raise ArithmeticError("exp_i_dict: series not converged")
