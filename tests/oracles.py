"""Independent oracles used to cross-check the production arithmetic.

Two deliberately different models of the same relations:

* a symbolic word rewriter that normal-orders strings in the generators by
  repeatedly applying the single commutation rule, tracking the phase; and
* the q x q clock-and-shift matrix pair, which satisfies the same relation
  at theta = 1/q and carries the normalized matrix trace; its representation
  matrix_rep is the one the verify suite uses.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from nctorus.suites import clock_shift_rep as matrix_rep  # noqa: F401

Symbol = tuple[str, int]  # ("U" | "V", +1 | -1)


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


def matrix_trace(mat: np.ndarray) -> complex:
    return complex(np.trace(mat)) / mat.shape[0]
