"""Exact rational univariate polynomials with Sturm-sequence root machinery.

Coefficients are `fractions.Fraction`, stored lowest power first.  Everything
that feeds a verdict runs in exact arithmetic: evaluation, derivatives, Sturm
chains, bisection.  Floats enter only at the very edges (building coefficients
from trig values, reporting enclosures), and every float is converted to an
exact dyadic rational before the polynomial machinery sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DegenerateEndpoint, MultipleRoots, NoRoot

Scalar = Union[int, Fraction]


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact: floats are dyadic rationals
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] of finite reals."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def shift(self, x: float) -> "Interval":
        return Interval(self.lo + x, self.hi + x)

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def hull(intervals: Iterable["Interval"]) -> "Interval":
        items = list(intervals)
        if not items:
            raise ValueError("hull of no intervals")
        return Interval(min(i.lo for i in items), max(i.hi for i in items))


class RationalPoly:
    """Univariate polynomial with exact rational coefficients, lowest first."""

    __slots__ = ("coeffs", "_real")

    def __init__(self, coeffs: Sequence):
        cs = [_to_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_real", None)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RationalPoly is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPoly({list(self.coeffs)!r})"

    # -- evaluation --------------------------------------------------------

    def eval(self, t: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        t = _to_fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def eval_real(self, t: float) -> float:
        """Floating Horner evaluation.

        Runs on a float image of the coefficients, highest power first, built
        on the first call and kept on the polynomial.  Each entry is
        `float(c)`, so every value is bit-identical to converting the
        coefficients afresh on each call.  The image is lazy because exact
        intermediates (Sturm chains, gcds) may lie beyond the float range and
        never need it.  No exact verdict input goes through this method; the
        one float input, the padded w_i tail in `compute_bound_table`, keeps
        the bits it had with per-call conversion.
        """
        real = self._real
        if real is None:
            real = tuple(float(c) for c in reversed(self.coeffs))
            object.__setattr__(self, "_real", real)
        acc = 0.0
        for c in real:
            acc = acc * t + c
        return acc

    def __call__(self, t):
        return self.eval_real(t) if isinstance(t, float) else self.eval(t)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return RationalPoly([
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
        ])

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other) -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            k = _to_fraction(other)
            return RationalPoly([c * k for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return RationalPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalPoly":
        if k < 0:
            raise ValueError("negative power")
        out = RationalPoly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        quo = [Fraction(0)] * max(len(rem) - len(den) + 1, 0)
        while len(rem) >= len(den):
            k = len(rem) - len(den)
            q = rem[-1] / den[-1]
            quo[k] = q
            for i, d in enumerate(den):
                rem[k + i] -= q * d
            while rem and rem[-1] == 0:
                rem.pop()
        return RationalPoly(quo), RationalPoly(rem)

    def derivative(self) -> "RationalPoly":
        return RationalPoly([i * c for i, c in enumerate(self.coeffs)][1:])


X = RationalPoly([0, 1])


def _primitive(p: RationalPoly) -> RationalPoly:
    """Scale by a positive rational to integer coefficients with content 1."""
    if p.is_zero():
        return p
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*(abs(v) for v in ints))
    return RationalPoly([Fraction(v // g) for v in ints])


def poly_gcd(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    """Monic gcd via the Euclidean algorithm with primitive rescaling."""
    a, b = _primitive(p), _primitive(q)
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, _primitive(r)
    if a.is_zero():
        return a
    return a * (1 / a.coeffs[-1])


def squarefree_part(p: RationalPoly) -> RationalPoly:
    """p divided by gcd(p, p'); shares the roots of p, all simple."""
    if p.degree <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = p.divmod(g)
    assert r.is_zero()
    return q


class SturmChain:
    """Sturm sequence of the squarefree part of a polynomial."""

    def __init__(self, p: RationalPoly):
        self.squarefree = _primitive(squarefree_part(p))
        chain = [self.squarefree]
        if self.squarefree.degree >= 1:
            chain.append(_primitive(self.squarefree.derivative()))
            while chain[-1].degree >= 1:
                _, r = chain[-2].divmod(chain[-1])
                if r.is_zero():
                    break
                chain.append(_primitive(-r))
        self.chain = chain

    def variations(self, t: Scalar) -> int:
        signs = []
        for q in self.chain:
            v = q.eval(t)
            if v != 0:
                signs.append(1 if v > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count_open(self, a: Scalar, b: Scalar) -> int:
        """Number of distinct real roots in the open interval (a, b)."""
        a, b = _to_fraction(a), _to_fraction(b)
        if a >= b:
            return 0
        n = self.variations(a) - self.variations(b)  # roots in (a, b]
        if self.squarefree.eval(b) == 0:
            n -= 1
        return n


def _deflate(p: RationalPoly, a: Fraction, b: Fraction) -> RationalPoly:
    """p with every root at a or b divided out exactly (zero stays zero)."""
    for endpoint in (a, b):
        while not p.is_zero() and p.eval(endpoint) == 0:
            p, r = p.divmod(RationalPoly([-endpoint, 1]))
            assert r.is_zero()
    return p


def sturm_count(p: RationalPoly, a: Scalar, b: Scalar) -> int:
    """Exact number of distinct real roots of p in the open interval (a, b).

    Roots at the endpoints are removed by exact deflation (division by t - a),
    so they are never counted and never confuse the sign variations.
    """
    a, b = _to_fraction(a), _to_fraction(b)
    if a >= b:
        raise ValueError("require a < b")
    p = _deflate(p, a, b)
    if p.is_zero():
        raise DegenerateEndpoint("polynomial vanishes identically after deflation")
    return SturmChain(p).count_open(a, b)


def isolate_root(p: RationalPoly, a: Scalar, b: Scalar, width: float = 1e-9) -> Interval:
    """Shrink (a, b), known to hold exactly one root of p, to the given width.

    Bisection on the squarefree part with exact sign evaluation; the returned
    endpoints are exact evaluation points, so the enclosure is rigorous.
    """
    lo, hi = _to_fraction(a), _to_fraction(b)
    p = _deflate(p, lo, hi)
    if p.is_zero():
        raise DegenerateEndpoint("polynomial vanishes identically after deflation")
    n = SturmChain(p).count_open(lo, hi)
    if n == 0:
        raise NoRoot(f"no root of p in ({a}, {b})")
    if n > 1:
        raise MultipleRoots(f"{n} roots of p in ({a}, {b})")
    q = squarefree_part(p)
    slo, shi = q.eval(lo), q.eval(hi)
    if slo * shi > 0:
        raise MultipleRoots("no sign change despite unit Sturm count")
    while float(hi - lo) > width:
        mid = (lo + hi) / 2
        smid = q.eval(mid)
        if smid == 0:
            return Interval(float(mid), float(mid))
        if slo * smid < 0:
            hi, shi = mid, smid
        else:
            lo, slo = mid, smid
    return Interval(
        math.nextafter(float(lo), -math.inf), math.nextafter(float(hi), math.inf)
    )


def isolate_all_roots(
    p: RationalPoly, a: Scalar, b: Scalar, width: float
) -> list[Interval]:
    """Disjoint enclosures (each of width <= width) of every root in (a, b)."""
    a, b = _to_fraction(a), _to_fraction(b)
    p = _deflate(p, a, b)
    if p.is_zero() or p.degree <= 0:
        return []
    chain = SturmChain(p)
    q = chain.squarefree
    out: list[Interval] = []

    def recurse(lo: Fraction, hi: Fraction, count: int):
        if count == 0:
            return
        if count == 1 and q.eval(lo) * q.eval(hi) < 0:
            out.append(isolate_root(q, lo, hi, width))
            return
        mid = (lo + hi) / 2
        if q.eval(mid) == 0:
            out.append(Interval(float(mid), float(mid)))
        left = chain.count_open(lo, mid)
        right = chain.count_open(mid, hi)
        recurse(lo, mid, left)
        recurse(mid, hi, right)

    recurse(a, b, chain.count_open(a, b))
    out.sort(key=lambda iv: iv.lo)
    return out


def _abs_bound(p: RationalPoly, radius: float) -> float:
    """Upper bound on |p| over any interval inside [-radius, radius]."""
    return sum(abs(float(c)) * radius**i for i, c in enumerate(p.coeffs)) + 1e-300


def max_on_interval(p: RationalPoly, a: float, b: float, tol: float = 1e-7) -> Interval:
    """Rigorous enclosure of max of p over [a, b], width <= tol.

    Candidates are the endpoints plus Sturm-isolated enclosures of every root
    of p' in (a, b); all candidate evaluations are exact.  The upper endpoint
    adds width * (bound on |p'|) to cover the interior of each root enclosure.
    """
    if a > b:
        raise ValueError("require a <= b")
    qa, qb = Fraction(a), Fraction(b)
    if p.degree <= 0:
        v = float(p.eval(0)) if not p.is_zero() else 0.0
        return Interval(v, v)
    if qa == qb:
        v = p.eval(qa)
        return Interval(float(v), math.nextafter(float(v), math.inf))
    dp = p.derivative()
    radius = max(abs(a), abs(b), 1.0)
    m1 = _abs_bound(dp, radius)
    width = min(tol / (2.0 * m1), (b - a) / 4.0)
    candidates: list[Fraction] = [qa, qb]
    for iv in isolate_all_roots(dp, qa, qb, width):
        candidates.append(Fraction(iv.lo))
        candidates.append(Fraction(iv.hi))
    best = max(p.eval(t) for t in candidates)
    lo = math.nextafter(float(best), -math.inf)
    hi = math.nextafter(float(best + Fraction(width) * Fraction(m1)), math.inf)
    return Interval(lo, hi)
