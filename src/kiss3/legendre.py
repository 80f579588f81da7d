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
def _addition_tables(size: int):
    """The float image of the addition theorem below degree `size`,
    zero-padded: coeffs[k, m, j] is the t^j coefficient of P_k^(m), the m-th
    derivative of P_k, and weights[m, k] is the weight c_{m,k} (0 for m > k)."""
    import numpy as np
    coeffs, weights = np.zeros((size, size, size)), np.zeros((size, size))
    for k in range(size):
        p = legendre(k)
        for m, w in enumerate(addition_weights(k)):
            coeffs[k, m, : p.degree + 1] = p.real_coeffs()[::-1]
            weights[m, k] = w
            p = p.derivative()
    coeffs.setflags(write=False)  # cached: shared by every later call
    weights.setflags(write=False)
    return coeffs, weights


def addition_theorem_residual(k, theta1, theta2, phi):
    """|P_k(cos of the spherical law of cosines) - the addition-theorem sum|.

    The theorem makes this identically zero; the residual measures only the
    floating-point evaluation error of the two independent routes.  Takes
    floats, or numpy arrays that broadcast together; the degree k is an
    integer, or an integer array that broadcasts with the angles, one degree
    per sample.  All samples are evaluated at once: the powers of t and of
    cos and sin of both colatitudes meet zero-padded float tables of every
    degree's derivative coefficients, in one matrix product for the left
    side and one per order m for the right, and each sample keeps its own
    degree's row.
    """
    import numpy as np
    k, theta1, theta2, phi = np.broadcast_arrays(k, theta1, theta2, phi)
    degrees, theta1, theta2, phi = (a.ravel() for a in (k, theta1, theta2, phi))
    top, n = int(degrees.max(initial=0)), degrees.size
    _check_degree(int(degrees.min(initial=0)))
    _check_degree(top)
    size, samples = top + 1, np.arange(n)
    coeffs, weights = _addition_tables(size)
    # powers 0 ... top of t, cos theta1, cos theta2, sin theta1, sin theta2.
    # The associated Legendre function (1 - t^2)^{m/2} P_k^(m)(t) at
    # t = cos(theta) takes (1 - t^2)^{m/2} as sin(theta)^m: near a pole
    # 1 - cos(theta)^2 rounds to 0 and would drop every m >= 1 term
    powers = np.empty((size, 5, n))
    powers[0] = 1.0
    t = cos_law(theta1, theta2, phi)
    # row 1 as a slice, which is empty when every degree is 0
    powers[1:2] = (t, np.cos(theta1), np.cos(theta2), np.sin(theta1), np.sin(theta2))
    for j in range(2, size):
        np.multiply(powers[j - 1], powers[1], out=powers[j])
    flat = powers.reshape(size, 5 * n)
    lhs = (coeffs[:, 0] @ flat[:, :n])[degrees, samples]
    # one order at a time, so that no temporary holds every degree's
    # P_k^(m) for every m: row k of the product is P_k^(m) at the n
    # cos theta1, then at the n cos theta2, and sample i takes row k_i
    terms = weights[:, degrees] * np.cos(np.multiply.outer(np.arange(size), phi))
    at = degrees * (2 * n) + samples + np.array([[0], [n]])
    rhs = 0.0
    for m in range(size):
        polar1, polar2 = (coeffs[:, m] @ flat[:, n : 3 * n]).take(at)
        polar1 *= powers[m, 3]
        polar2 *= powers[m, 4]
        rhs = rhs + terms[m] * polar1 * polar2
    return np.abs(lhs - rhs).reshape(k.shape)[()]


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
