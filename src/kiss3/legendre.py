"""Legendre polynomials, the Legendre basis, and the classical addition
theorem.

The exact routines (recurrence, Rodrigues, basis conversion) are capped at
degree 12; everything the proof needs stops at degree 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .polynomial import RationalPoly, X

DEGREE_CAP = 12


def _check_degree(k: int):
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k > DEGREE_CAP:
        raise ValueError(f"exact Legendre routines are capped at degree {DEGREE_CAP}")


@lru_cache(maxsize=None)
def legendre(k: int) -> RationalPoly:
    """P_k by the three-term recurrence, with exact rational coefficients."""
    _check_degree(k)
    if k == 0:
        return RationalPoly([1])
    if k == 1:
        return X
    return X * legendre(k - 1) * Fraction(2 * k - 1, k) - legendre(k - 2) * Fraction(
        k - 1, k
    )


@lru_cache(maxsize=None)
def legendre_rodrigues(k: int) -> RationalPoly:
    """P_k as the k-th derivative of (t^2 - 1)^k over 2^k k!."""
    _check_degree(k)
    p = RationalPoly([-1, 0, 1]) ** k
    for _ in range(k):
        p = p.derivative()
    return p * Fraction(1, 2**k * math.factorial(k))


@lru_cache(maxsize=None)
def _legendre_deriv(k: int, m: int) -> RationalPoly:
    p = legendre(k)
    for _ in range(m):
        p = p.derivative()
    return p


def addition_weights(k: int) -> tuple[Fraction, ...]:
    """Weights c_{m,k}: 1 for m = 0, else 2 (k-m)!/(k+m)!."""
    _check_degree(k)
    return tuple(
        Fraction(1)
        if m == 0
        else Fraction(2 * math.factorial(k - m), math.factorial(k + m))
        for m in range(k + 1)
    )


@dataclass(frozen=True)
class LegendreExpansion:
    """Coefficients c_0 ... c_K of a polynomial in the Legendre basis."""

    coefficients: tuple[Fraction, ...]

    def __len__(self):
        return len(self.coefficients)

    def __getitem__(self, k: int) -> Fraction:
        return self.coefficients[k]


def to_legendre_basis(p: RationalPoly) -> LegendreExpansion:
    """Exact conversion to the Legendre basis by back-substitution.

    Peels the top degree off with c_K = a_K / lead(P_K) and recurses; no
    quadrature, everything stays rational.
    """
    _check_degree(max(p.degree, 0))
    if p.is_zero():
        return LegendreExpansion((Fraction(0),))
    coeffs = [Fraction(0)] * (p.degree + 1)
    rest = p
    for k in range(p.degree, -1, -1):
        if rest.degree < k:
            continue
        pk = legendre(k)
        ck = rest.coeffs[k] / pk.coeffs[-1]
        coeffs[k] = ck
        rest = rest - pk * ck
    assert rest.is_zero()
    return LegendreExpansion(tuple(coeffs))


def from_legendre_basis(e: LegendreExpansion) -> RationalPoly:
    """Exact reconstruction sum_k c_k P_k."""
    out = RationalPoly([])
    for k, ck in enumerate(e.coefficients):
        if ck != 0:
            out = out + legendre(k) * ck
    return out


def addition_theorem_residual(k: int, theta1: float, theta2: float, phi: float) -> float:
    """|P_k(cos of the spherical law of cosines) - the addition-theorem sum|.

    The theorem makes this identically zero; the residual measures only the
    floating-point evaluation error of the two independent routes.
    """
    _check_degree(k)
    c = math.cos(theta1) * math.cos(theta2) + math.sin(theta1) * math.sin(
        theta2
    ) * math.cos(phi)
    c = max(-1.0, min(1.0, c))
    lhs = legendre(k).eval_real(c)

    def polar(m: int, theta: float) -> float:
        # the associated Legendre function (1 - t^2)^{m/2} P_k^(m)(t) at
        # t = cos(theta), with (1 - t^2)^{m/2} taken as sin(theta)^m: near a
        # pole 1 - cos(theta)^2 rounds to 0 and would drop every m >= 1 term
        return _legendre_deriv(k, m).eval_real(math.cos(theta)) * math.sin(theta) ** m

    rhs = 0.0
    for m, w in enumerate(addition_weights(k)):
        rhs += float(w) * polar(m, theta1) * polar(m, theta2) * math.cos(m * phi)
    return abs(lhs - rhs)


def gegenbauer_sums(cos_matrix: np.ndarray, degrees) -> list[float]:
    """Double sums of P_k over a matrix of pairwise cosines, one per k in
    degrees; the matrix is read once for all of them."""
    sums = []
    for k in degrees:
        _check_degree(k)
        coeffs = [float(c) for c in reversed(legendre(k).coeffs)]
        sums.append(float(np.polyval(coeffs, cos_matrix).sum()))
    return sums


def gegenbauer_sum(points, k: int) -> float:
    """Double sum of P_k(cos dist(x_i, x_j)) over all ordered pairs, i = j
    included (each diagonal term is P_k(1) = 1).  Nonnegative for every point
    set on the sphere; this is the positive-definiteness the proof rests on.
    """
    return gegenbauer_sums(points.cos_matrix(), (k,))[0]
