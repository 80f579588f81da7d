"""Legendre polynomials, the Legendre basis, and the classical addition
theorem.

The exact routines (recurrence, Rodrigues, basis conversion) are capped at
degree 12; everything the proof needs stops at degree 9.  Only the float
routines on arrays import numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .polynomial import RationalPoly, X
from .sphere import CosineBatch, cos_law

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


def addition_weights(k: int) -> tuple[Fraction, ...]:
    """Weights c_{m,k}: 1 for m = 0, else 2 (k-m)!/(k+m)!."""
    _check_degree(k)
    return tuple(
        Fraction(1)
        if m == 0
        else Fraction(2 * math.factorial(k - m), math.factorial(k + m))
        for m in range(k + 1)
    )


def to_legendre_basis(p: RationalPoly) -> tuple[Fraction, ...]:
    """Exact conversion to the Legendre basis, c_0 ... c_K, by
    back-substitution.

    Peels the top degree off with c_K = a_K / lead(P_K) and recurses; no
    quadrature, everything stays rational.
    """
    _check_degree(max(p.degree, 0))
    if p.is_zero():
        return (Fraction(0),)
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
    return tuple(coeffs)


def from_legendre_basis(coeffs) -> RationalPoly:
    """Exact reconstruction sum_k c_k P_k from c_0 ... c_K."""
    out = RationalPoly([])
    for k, ck in enumerate(coeffs):
        if ck != 0:
            out = out + legendre(k) * ck
    return out


@lru_cache(maxsize=None)
def _addition_terms(k: int):
    """The float image of the addition theorem at degree k: the coefficients
    of P_k and, for m = 0 ... k, the weight c_{m,k} with the coefficients of
    P_k^(m), highest power first."""
    p, terms = legendre(k), []
    for w in addition_weights(k):
        terms.append((float(w), p.real_coeffs()))
        p = p.derivative()
    return legendre(k).real_coeffs(), tuple(terms)


def addition_theorem_residual(k: int, theta1, theta2, phi):
    """|P_k(cos of the spherical law of cosines) - the addition-theorem sum|.

    The theorem makes this identically zero; the residual measures only the
    floating-point evaluation error of the two independent routes.  Takes
    floats, or numpy arrays that broadcast together, for one degree k: the
    weights and derivative coefficients are converted to floats once per k.
    """
    import numpy as np
    lhs_coeffs, terms = _addition_terms(k)
    lhs = np.polyval(lhs_coeffs, cos_law(theta1, theta2, phi))
    # the associated Legendre function (1 - t^2)^{m/2} P_k^(m)(t) at
    # t = cos(theta), with (1 - t^2)^{m/2} taken as sin(theta)^m: near a
    # pole 1 - cos(theta)^2 rounds to 0 and would drop every m >= 1 term
    c1, s1, c2, s2 = np.cos(theta1), np.sin(theta1), np.cos(theta2), np.sin(theta2)
    rhs = 0.0
    for m, (w, coeffs) in enumerate(terms):
        polar1 = np.polyval(coeffs, c1) * s1**m
        polar2 = np.polyval(coeffs, c2) * s2**m
        rhs = rhs + w * polar1 * polar2 * np.cos(m * phi)
    return np.abs(lhs - rhs)


def gegenbauer_sums(cos: np.ndarray, starts: np.ndarray, degrees) -> np.ndarray:
    """Segmented double sums of P_k: row r holds, for the r-th k in degrees,
    the sum of P_k over each segment cos[starts[s] : starts[s + 1]] of a flat
    array of cosines (the last segment runs to the end; see
    sphere.CosineBatch).

    P_0 = 1, P_1 = t and (k + 1) P_{k+1} = (2k + 1) t P_k - k P_{k-1} give
    one pass over the array per degree, up to the highest one asked for.
    """
    import numpy as np
    degrees = tuple(degrees)
    for k in degrees:
        _check_degree(k)
    sums = np.empty((len(degrees), len(starts)))
    p_prev, p = np.zeros_like(cos), np.ones_like(cos)
    for k in range(max(degrees, default=-1) + 1):
        if k:
            p_prev, p = p, ((2 * k - 1) * cos * p - (k - 1) * p_prev) / k
        sums[[r for r, d in enumerate(degrees) if d == k]] = np.add.reduceat(p, starts)
    return sums


def gegenbauer_sum(points, k: int) -> float:
    """Double sum of P_k(cos dist(x_i, x_j)) over all ordered pairs, i = j
    included (each diagonal term is P_k(1) = 1).  Nonnegative for every point
    set on the sphere; this is the positive-definiteness the proof rests on.
    """
    batch = CosineBatch.of(points)
    return float(gegenbauer_sums(batch.cos, batch.starts, (k,))[0, 0])
