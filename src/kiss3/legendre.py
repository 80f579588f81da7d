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

from .polynomial import RationalPoly, X, _to_fraction
from .sphere import CosineBatch

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
    back-substitution on p's integer image.

    The remainder is held as integers R over one denominator D, from p's
    `ints` and `den`.  Each step peels the top degree off with
    c_k = R_k / (D lead(P_k)), P_k = legendre(k) as integers over its own
    denominator; then R <- lead(P_k) R - R_k ints(P_k) and D <- lead(P_k) D
    take c_k P_k away with integer row updates alone.  No quadrature, and one
    `Fraction` per coefficient.
    """
    _check_degree(max(p.degree, 0))
    if p.is_zero():
        return (Fraction(0),)
    coeffs = [Fraction(0)] * (p.degree + 1)
    rest, den = list(p.ints), p.den
    for k in range(p.degree, -1, -1):
        top = rest.pop()
        if not top:
            continue
        pk = legendre(k)
        lead = pk.ints[-1]
        coeffs[k] = Fraction(top * pk.den, den * lead)
        rest = [lead * r - top * v for r, v in zip(rest, pk.ints)]
        den *= lead
    return tuple(coeffs)


def from_legendre_basis(coeffs) -> RationalPoly:
    """Exact reconstruction sum_k c_k P_k from c_0 ... c_K: each term's
    integers over one common denominator, summed into one polynomial."""
    terms = []
    for k, ck in enumerate(coeffs):
        num, den = _to_fraction(ck).as_integer_ratio()
        if num:
            pk = legendre(k)
            terms.append((num, den * pk.den, pk.ints))
    den = math.lcm(*(d for _, d, _ in terms))
    out = [0] * len(coeffs)
    for num, d, ints in terms:
        scale = num * (den // d)
        for i, v in enumerate(ints):
            out[i] += scale * v
    return RationalPoly.from_integers(out, den)


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
    per sample.  All samples are evaluated at once: t, by the law of cosines
    clipped into [-1, 1], and the powers of t and of cos and sin of both
    colatitudes, which t is formed from, meet zero-padded float tables of
    every degree's derivative coefficients, in one matrix product for the
    left side and one per order m for the right, and each sample keeps its
    own degree's row.
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
    c1, c2, s1, s2 = np.cos(theta1), np.cos(theta2), np.sin(theta1), np.sin(theta2)
    t = np.clip(c1 * c2 + s1 * s2 * np.cos(phi), -1.0, 1.0)
    # row 1 as a slice, which is empty when every degree is 0
    powers[1:2] = (t, c1, c2, s1, s2)
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


def gegenbauer_sums(cos: np.ndarray, starts: np.ndarray, count: int) -> np.ndarray:
    """Segmented double sums of P_0 ... P_{count - 1}: row k holds the sum of
    P_k over each segment cos[starts[s] : starts[s + 1]] of a flat array of
    cosines (the last segment runs to the end; see sphere.CosineBatch).

    P_0 = 1, P_1 = t and (k + 1) P_{k+1} = (2k + 1) t P_k - k P_{k-1} give
    one pass over the array per degree.
    """
    import numpy as np
    _check_degree(count - 1)
    sums = np.empty((count, len(starts)))
    p_prev, p = np.zeros_like(cos), np.ones_like(cos)
    for k in range(count):
        if k:
            p_prev, p = p, ((2 * k - 1) * cos * p - (k - 1) * p_prev) / k
        sums[k] = np.add.reduceat(p, starts)
    return sums


def gegenbauer_sum(points, k: int) -> float:
    """Double sum of P_k(cos dist(x_i, x_j)) over all ordered pairs, i = j
    included (each diagonal term is P_k(1) = 1).  Nonnegative for every point
    set on the sphere; this is the positive-definiteness the proof rests on.
    """
    batch = CosineBatch.of(points)
    return float(gegenbauer_sums(batch.cos, batch.starts, k + 1)[k, 0])
