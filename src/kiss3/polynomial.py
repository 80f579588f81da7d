"""Exact rational univariate polynomials with Sturm-sequence root machinery.

A polynomial is integers over one denominator: `RationalPoly.ints`, lowest
power first, and a positive `den` that shares no factor with all of them.
Everything that feeds a verdict runs in exact arithmetic: evaluation,
derivatives, Sturm chains, bisection.  Floats enter only at the very edges
(building coefficients from trig values, reporting enclosures), and every
float is converted to an exact dyadic rational before the polynomial
machinery sees it.

Evaluation, products, Sturm chains and exact division work on the integers
and build a `Fraction` only for each result, so they give the same rationals
as `Fraction` arithmetic without a gcd per operation.  A Sturm chain takes
pseudo-remainders (Knuth, TAOCP vol. 2, section 4.6.1): the integer
remainder of |lc(b)|^(deg a - deg b + 1) a by b is a positive multiple of
the rational remainder, so once scaled to content 1 each chain term is the
one the rational Euclidean pass gives.  A root at the end of an interval is
handled by the count itself (`_count`), not by dividing it out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence, Union

from .errors import DegenerateEndpoint, MultipleRoots, NoRoot

Scalar = Union[int, Fraction]


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
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
    """Univariate polynomial with exact rational coefficients, held as
    integers over one denominator: sum ints[i] t^i / den.

    `ints` runs lowest power first with no trailing zeros, `den` is positive
    and gcd(den, *ints) = 1, so each polynomial has exactly one such pair.
    """

    __slots__ = ("ints", "den", "_real")

    def __init__(self, coeffs: Sequence):
        cs = [_to_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def from_integers(cls, ints: Sequence[int], den: int = 1) -> "RationalPoly":
        """The polynomial sum ints[i] t^i / den, for a positive integer den."""
        p = cls.__new__(cls)
        p._set(list(ints), den)
        return p

    def _set(self, ints: list[int], den: int) -> None:
        while ints and ints[-1] == 0:
            ints.pop()
        g = math.gcd(den, *ints)
        if g > 1:
            ints, den = [v // g for v in ints], den // g
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_real", None)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RationalPoly is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, lowest power first."""
        return tuple(Fraction(v, self.den) for v in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other) -> bool:
        same = isinstance(other, RationalPoly) and other.den == self.den
        return same and other.ints == self.ints

    def __hash__(self):
        return hash((self.ints, self.den))

    def __repr__(self):
        return f"RationalPoly({list(self.coeffs)!r})"

    # -- evaluation --------------------------------------------------------

    def eval(self, t: Scalar) -> Fraction:
        """Exact value at a rational point t = n/d.

        A homogeneous integer Horner gives sum ints[i] n^i d^(deg - i), and
        one `Fraction` over den * d^deg reduces it.
        """
        t = _to_fraction(t)
        if not self.ints:
            return Fraction(0)
        n, d = t.numerator, t.denominator
        coeffs = reversed(self.ints)
        acc, scale = next(coeffs), 1
        for c in coeffs:
            scale *= d
            acc = acc * n + c * scale
        return Fraction(acc, self.den * scale)

    def real_coeffs(self) -> tuple[float, ...]:
        """The float image of the coefficients, highest power first, as
        np.polyval takes them.

        Built on the first call and kept on the polynomial.  Integer true
        division rounds correctly, so `ints[i] / den` has the bits of
        `float(Fraction(ints[i], den))`.  Exact intermediates (Sturm chains)
        may lie beyond the float range and never build the image.
        """
        real = self._real
        if real is None:
            real = tuple(v / self.den for v in reversed(self.ints))
            object.__setattr__(self, "_real", real)
        return real

    def eval_real(self, t: float) -> float:
        """Floating Horner evaluation on `real_coeffs()`.

        No exact verdict input goes through this method; the one float
        input, the padded w_i tail in `compute_bound_table`, keeps the bits
        it had with per-call conversion.
        """
        acc = 0.0
        for c in self.real_coeffs():
            acc = acc * t + c
        return acc

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        pairs = zip_longest(self.ints, other.ints, fillvalue=0)
        return RationalPoly.from_integers([x * sa + y * sb for x, y in pairs], den)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly.from_integers([-v for v in self.ints], self.den)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other) -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            other = RationalPoly([other])
        ints = convolve(self.ints, other.ints)
        return RationalPoly.from_integers(ints, self.den * other.den)

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

    def derivative(self) -> "RationalPoly":
        return RationalPoly.from_integers(_derivative(self.ints), self.den)


X = RationalPoly([0, 1])


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient sequences, lowest power first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _derivative(ints: Sequence[int]) -> list[int]:
    return [i * v for i, v in enumerate(ints)][1:]


def _primitive(ints: Sequence[int]) -> list[int]:
    """Integer coefficients divided by their content (a positive gcd)."""
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else list(ints)


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The remainder of |lc(b)|^(deg a - deg b + 1) a on division by b.

    Each of the deg a - deg b + 1 steps multiplies the running remainder by
    lc(b) before it cancels the top term, so no step divides (Knuth, TAOCP
    vol. 2, section 4.6.1, Algorithm R).  A final sign flip when lc(b) < 0
    and the step count is odd makes the result a positive multiple of the
    rational remainder of a by b.
    """
    r = list(a)
    lc, n = b[-1], len(b) - 1
    steps = len(a) - n
    for k in range(steps - 1, -1, -1):
        q = r.pop()
        r = [lc * v for v in r]
        for i in range(n):
            r[k + i] -= q * b[i]
    while r and r[-1] == 0:
        r.pop()
    if lc < 0 and steps % 2:
        r = [-v for v in r]
    return r


def _divide_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient a / b of integer polynomials when it is exact and has
    integer coefficients; raises `ArithmeticError` otherwise.

    By Gauss's lemma the quotient is an integer polynomial whenever b has
    content 1 and divides a over the rationals.
    """
    r = list(a)
    lc, n = b[-1], len(b) - 1
    quo = [0] * max(len(a) - n, 0)
    for k in range(len(quo) - 1, -1, -1):
        q, m = divmod(r.pop(), lc)
        if m:
            raise ArithmeticError("polynomial division is not exact")
        quo[k] = q
        for i in range(n):
            r[k + i] -= q * b[i]
    if any(r):
        raise ArithmeticError("polynomial division is not exact")
    return quo


class SturmChain:
    """Sturm sequence of the squarefree part of p, from one Euclidean pass.

    The signed remainder sequence of p and p' (each term rescaled by a
    positive rational) ends in g = gcd(p, p') up to a constant.  Every term
    is a multiple of g, so dividing each by g leaves the sign variations
    unchanged wherever g is nonzero, and the quotients form a Sturm sequence
    of the squarefree part p/g (Basu, Pollack and Roy, *Algorithms in Real
    Algebraic Geometry*, section 2.2).  `chain[0]`, also `.squarefree`, is
    that part: the roots of p, all simple.

    The pass runs on integers.  Each term is scaled to integer coefficients
    with content 1, and the next is minus the pseudo-remainder of the two
    before it, which is |lc|^(delta + 1) times the rational remainder
    (Knuth, TAOCP vol. 2, section 4.6.1).  A positive factor is removed
    again by the scaling, so every term equals, coefficient for coefficient,
    the one a rational remainder sequence gives.  The division by g is an
    exact integer quotient: by Gauss's lemma the quotient of two integer
    polynomials of content 1 is an integer polynomial of content 1.
    """

    def __init__(self, p: RationalPoly):
        ints = p.ints
        chain = [_primitive(ints)]
        if len(ints) >= 2:
            chain.append(_primitive(_derivative(ints)))
            while len(chain[-1]) >= 2:
                r = _pseudo_remainder(chain[-2], chain[-1])
                if not r:
                    break
                chain.append(_primitive([-v for v in r]))
        g = chain[-1]
        if len(g) >= 2:
            chain = [_divide_exact(q, g) for q in chain]
        self.chain = [RationalPoly.from_integers(q) for q in chain]
        self.squarefree = self.chain[0]

    def values(self, t: Scalar) -> list[Fraction]:
        """The value of each chain term at t, `chain[0]`'s first."""
        return [q.eval(t) for q in self.chain]

    def count_open(self, a: Scalar, b: Scalar) -> int:
        """Number of distinct real roots in the open interval (a, b)."""
        a, b = _to_fraction(a), _to_fraction(b)
        if a >= b:
            return 0
        return _count(self.values(a), self.values(b))


def _sign_changes(values) -> int:
    """Sign changes along `values`, zeros skipped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count(at_a: Sequence[Fraction], at_b: Sequence[Fraction]) -> int:
    """Distinct roots in (a, b), for a < b, from the chain's values at a and b.

    At a root of chain[0], chain[1] is nonzero with the sign chain[0] takes
    just right of it, so V(a) - V(b) counts the roots in (a, b] (Basu,
    Pollack and Roy, section 2.2); a root at b is taken off.
    """
    return _sign_changes(at_a) - _sign_changes(at_b) - (at_b[0] == 0)


def sturm_count(p: RationalPoly, a: Scalar, b: Scalar) -> int:
    """Exact number of distinct real roots of p in the open interval (a, b);
    a root at a or b is left out by the count itself (`_count`)."""
    a, b = _to_fraction(a), _to_fraction(b)
    if a >= b:
        raise ValueError("require a < b")
    if p.is_zero():
        raise DegenerateEndpoint("the zero polynomial has no isolated roots")
    return SturmChain(p).count_open(a, b)


def isolate_root(p: RationalPoly, a: Scalar, b: Scalar, width: float = 1e-9) -> Interval:
    """Shrink (a, b), known to hold exactly one root of p, to the given width.

    The enclosure is the one `isolate_all_roots` finds; this adds the checks
    that p is nonzero and has exactly one root in (a, b).
    """
    if p.is_zero():
        raise DegenerateEndpoint("the zero polynomial has no isolated roots")
    roots = isolate_all_roots(p, a, b, width)
    if not roots:
        raise NoRoot(f"no root of p in ({a}, {b})")
    if len(roots) > 1:
        raise MultipleRoots(f"{len(roots)} roots of p in ({a}, {b})")
    return roots[0]


def isolate_all_roots(
    p: RationalPoly, a: Scalar, b: Scalar, width: float
) -> list[Interval]:
    """Disjoint enclosures (each of width <= width) of every root in (a, b).

    One Sturm chain of p counts the roots in each cell from the chain's
    values at its ends, which pass down to its halves: one evaluation per
    point.  A cell with one root and a sign change of the squarefree part q
    is bisected with exact signs, so the enclosure is rigorous; a cell
    whose end is a root of q is split.  At a root a or b, outside (a, b), q
    takes its sign just inside: chain[1]'s at a, the opposite at b.
    """
    a, b = _to_fraction(a), _to_fraction(b)
    if p.degree <= 0 or a >= b:
        return []
    chain = SturmChain(p)
    q = chain.squarefree
    out: list[Interval] = []

    def bisect(lo: Fraction, hi: Fraction, slo: Fraction) -> Interval:
        while float(hi - lo) > width:
            mid = (lo + hi) / 2
            smid = q.eval(mid)
            if smid == 0:
                return Interval(float(mid), float(mid))
            if slo * smid < 0:
                hi = mid
            else:
                lo, slo = mid, smid
        return _outward(lo, hi)

    def recurse(lo: Fraction, hi: Fraction, at_lo: list, at_hi: list):
        count = _count(at_lo, at_hi)
        if count == 0:
            return
        if count == 1 and at_lo[0] * at_hi[0] < 0:
            out.append(bisect(lo, hi, at_lo[0]))
            return
        mid = (lo + hi) / 2
        at_mid = chain.values(mid)
        if at_mid[0] == 0:
            out.append(Interval(float(mid), float(mid)))
        recurse(lo, mid, at_lo, at_mid)
        recurse(mid, hi, at_mid, at_hi)

    at_a, at_b = chain.values(a), chain.values(b)
    # q's sign just inside (a, b) where q is zero at an end
    at_a[0] = at_a[0] or at_a[1]
    at_b[0] = at_b[0] or -at_b[1]
    recurse(a, b, at_a, at_b)
    out.sort(key=lambda iv: iv.lo)
    return out


def _outward(lo: Fraction, hi: Fraction) -> Interval:
    """A float interval holding [lo, hi]: each end rounded, then moved one
    float outward."""
    return Interval(
        math.nextafter(float(lo), -math.inf), math.nextafter(float(hi), math.inf)
    )


def _abs_bound(p: RationalPoly, radius: float) -> float:
    """Upper bound on |p| over any interval inside [-radius, radius]."""
    return sum(abs(v / p.den) * radius**i for i, v in enumerate(p.ints)) + 1e-300


def max_on_interval(p: RationalPoly, a: float, b: float, tol: float = 1e-7) -> Interval:
    """Rigorous enclosure of max of p over [a, b], width <= tol.

    Candidates are the endpoints plus Sturm-isolated enclosures of every root
    of p' in (a, b); all candidate evaluations are exact.  The upper endpoint
    adds width * (bound on |p'|) to cover the interior of each root enclosure.
    """
    if a > b:
        raise ValueError("require a <= b")
    qa, qb = Fraction(a), Fraction(b)
    if p.degree <= 0 or qa == qb:
        v = p.eval(qa)
        return _outward(v, v)
    dp = p.derivative()
    radius = max(abs(a), abs(b), 1.0)
    m1 = _abs_bound(dp, radius)
    width = min(tol / (2.0 * m1), (b - a) / 4.0)
    candidates: list[Fraction] = [qa, qb]
    for iv in isolate_all_roots(dp, qa, qb, width):
        candidates += (Fraction(iv.lo), Fraction(iv.hi))
    best = max(p.eval(t) for t in candidates)
    return _outward(best, best + Fraction(width) * Fraction(m1))
