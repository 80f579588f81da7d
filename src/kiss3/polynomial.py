"""Exact rational univariate polynomials: Sturm counts, root isolation, and
maxima from Bernstein coefficients.

A polynomial is integers over one denominator: `RationalPoly.ints`, lowest
power first, and a positive `den` that shares no factor with all of them.
Everything that feeds a verdict runs in exact arithmetic.  Floats enter only
at the very edges (building coefficients from trig values, reporting
enclosures, rounded outward), and every float is converted to an exact
dyadic rational before the polynomial machinery sees it.

Evaluation, products, Sturm chains and exact division work on the integers
and build a `Fraction` only for each result, so they give the same rationals
as `Fraction` arithmetic without a gcd per operation.  A Sturm chain takes
pseudo-remainders (Knuth, TAOCP vol. 2, section 4.6.1): the integer
remainder of |lc(b)|^(deg a - deg b + 1) a by b is a positive multiple of
the rational remainder, so once scaled to content 1 each chain term is the
one the rational Euclidean pass gives.  A root at the end of an interval is
handled by the count itself (`_count`), not by dividing it out.

A maximum on [a, b] takes no derivative and no Sturm chain: an exact Taylor
shift onto [0, 1] gives Bernstein coefficients, whose convex hull bounds p
(Farouki and Rajan, CAGD 1987), and de Casteljau halves what it must.
Root bisection and the Bernstein comparisons build no `Fraction` at all:
they compare integers over known scales, and make a float only of each end
of the result.
"""

from __future__ import annotations

import functools
import math
import operator
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
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __add__(self, other: "Interval") -> "Interval":
        """The sum, each end moved one float outward to cover its rounding."""
        return Interval(
            math.nextafter(self.lo + other.lo, -math.inf),
            math.nextafter(self.hi + other.hi, math.inf),
        )

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

    __slots__ = ("ints", "den")

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
        """Lowest terms: shift out the power of two that den and all ints share;
        then one of them is odd, and the gcd needs only den's odd part."""
        while ints and ints[-1] == 0:
            ints.pop()
        if not den & 1 and not (ints and ints[-1] & 1):
            low = functools.reduce(operator.or_, ints, den)
            z = (low & -low).bit_length() - 1
            ints, den = [v >> z for v in ints], den >> z
        g = math.gcd(den // (den & -den), *ints)
        if g > 1:
            ints, den = [v // g for v in ints], den // g
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "den", den)

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

        Built on each call.  Integer true division rounds correctly, so
        `ints[i] / den` has the bits of `float(Fraction(ints[i], den))`.
        Exact intermediates (Sturm chains) may lie beyond the float range and
        never build the image.
        """
        return tuple(v / self.den for v in reversed(self.ints))

    def eval_real(self, t: float) -> float:
        """Floating Horner evaluation on `real_coeffs()`, for the refined
        estimates and the tests; no verdict input goes through it."""
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
        self._values = {}

    def values(self, t: Scalar) -> list[Fraction]:
        """The value of each chain term at t, `chain[0]`'s first.  Each point
        is evaluated once per chain; later calls return the same list."""
        t = _to_fraction(t)
        values = self._values.get(t)
        if values is None:
            values = self._values[t] = [q.eval(t) for q in self.chain]
        return values

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


def isolate_root(
    p: RationalPoly, a: Scalar, b: Scalar, width: float = 1e-9, chain: SturmChain | None = None
) -> Interval:
    """Shrink (a, b), known to hold exactly one root of p, to the given width.

    One Sturm chain of p, `chain` when the caller holds it already, must
    count exactly one root in (a, b).  Its squarefree part q changes sign
    there, so exact bisection on q encloses the root; at a root a, q's sign
    just inside is chain[1]'s.  The bisection runs on integers: with
    a = A / D and b = B / D, the k-th interval is [x, x + B - A] over
    D 2^k, each midpoint's sign is a sign-only homogeneous Horner
    (`_sign_at`), and a float is made only from the final ends, by int/int
    true division, which rounds as `float(Fraction)` does.  A midpoint root
    is returned as a point when it is a float, and rounded outward when not.
    """
    if not width > 0:
        raise ValueError(f"require width > 0, got width = {width}")
    if p.is_zero():
        raise DegenerateEndpoint("the zero polynomial has no isolated roots")
    lo, hi = _to_fraction(a), _to_fraction(b)
    chain = chain or SturmChain(p)
    count = chain.count_open(lo, hi)
    if count == 0:
        raise NoRoot(f"no root of p in ({a}, {b})")
    if count > 1:
        raise MultipleRoots(f"{count} roots of p in ({a}, {b})")
    q = chain.squarefree.ints
    at_lo = chain.values(lo)
    slo = (at_lo[0] or at_lo[1]) > 0
    den = math.lcm(lo.denominator, hi.denominator)
    x = lo.numerator * (den // lo.denominator)
    step = hi.numerator * (den // hi.denominator) - x
    scaled = [c * den**i for i, c in enumerate(reversed(q))]  # c_i den^(deg - i)
    shift = 0  # the interval is [x, x + step] / (den << shift)
    while step / (den << shift) > width:
        shift += 1
        x <<= 1
        mid = x + step
        smid = _sign_at(scaled, mid, shift)
        if smid == 0:
            point = mid / (den << shift)
            num, d = point.as_integer_ratio()
            if num * (den << shift) == mid * d:
                return Interval(point, point)
            return _outward(point, point)
        if (smid > 0) == slo:
            x = mid
    return _outward(x / (den << shift), (x + step) / (den << shift))


def _sign_at(scaled: Sequence[int], n: int, shift: int) -> int:
    """The sign of q at n / (D 2^shift), where `scaled` holds q's integer
    coefficients times D^(deg - i), highest power first: a homogeneous Horner
    sum c_i D^(deg - i) n^i 2^(shift (deg - i)), whose sign is q's."""
    acc = scaled[0]
    for k, c in enumerate(scaled[1:], 1):
        acc = acc * n + (c << (shift * k))
    return (acc > 0) - (acc < 0)


def _outward(lo: Scalar | float, hi: Scalar | float) -> Interval:
    """A float interval holding [lo, hi]: each end rounded to nearest (or
    given as a float already so rounded), then moved one float outward."""
    return Interval(
        math.nextafter(float(lo), -math.inf), math.nextafter(float(hi), math.inf)
    )


def taylor_shift(ints: Sequence[int], a: int, h: int, d: int) -> tuple[list[int], int]:
    """The Taylor shift of sum_i ints[i] x^i to x = (a + h y) / d, scaled by
    d^n, n = len(ints) - 1: the integer coefficients of
    sum_i ints[i] (a + h y)^i d^(n - i), lowest power of y first, and d^n.
    One homogeneous Horner pass (von zur Gathen and Gerhard, ISSAC 1997)."""
    q, scale = [ints[-1]], 1
    for c in reversed(ints[:-1]):
        scale *= d
        q = [a * x + h * y for x, y in zip(q + [0], [0] + q)]
        q[0] += c * scale
    return q, scale


def _bernstein(p: RationalPoly, a: Scalar | float, b: Scalar | float) -> tuple[list[int], int]:
    """The Bernstein coefficients of p on [a, b], n = max(deg p, 0), as
    integers over one scale: b_0 = p(a) and b_n = p(b).

    The ends are read as exact integer ratios, a = A / d and b = B / d over
    d = lcm(den a, den b), which is also lcm(den a, den(b - a)).
    `taylor_shift` to (A + H t) / d, with H = B - A, gives
    p(a + (b - a) t) as integers Q_i over den d^n.  Then b_k =
    sum_i C(k, i) Q_i / C(n, i), so with P_i = i! (n - i)! Q_i each
    n! b_k = sum_i C(k, i) P_i is an integer over n! den d^n, and n rounds
    of Pascal's rule, row[k] += row[k - 1], take the P_i to these sums with
    additions alone."""
    ints = p.ints or (0,)
    n = len(ints) - 1
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    d = math.lcm(ad, bd)
    lo = an * (d // ad)
    q, scale = taylor_shift(ints, lo, bn * (d // bd) - lo, d)
    fact = math.factorial
    row = [fact(i) * fact(n - i) * v for i, v in enumerate(q)]
    for j in range(1, n + 1):
        for k in range(n, j - 1, -1):
            row[k] += row[k - 1]
    return row, fact(n) * p.den * scale


def _halves(coeffs: list[int]) -> tuple[list[int], list[int]]:
    """De Casteljau at t = 1/2: the Bernstein coefficients of the two halves,
    scaled by 2^n.  Row j sums j + 1 neighbours, 2^j times their average."""
    n = len(coeffs) - 1
    left, right, row = [], [], coeffs
    for j in range(n + 1):
        left.append(row[0] << (n - j))
        right.append(row[-1] << (n - j))
        row = [x + y for x, y in zip(row, row[1:])]
    return left, right[::-1]


def max_on_interval(p: RationalPoly, a: float, b: float, tol: float = 1e-7) -> Interval:
    """Rigorous enclosure of the maximum of p over [a, b], width <= tol
    before outward rounding.

    p lies below the largest Bernstein coefficient of each cell, and the end
    coefficients are p's exact values at the cell's ends.  A cell whose
    largest coefficient is within tol of the best end value so far is kept;
    any other is halved by de Casteljau.  The enclosure runs from the best
    end value to the largest kept coefficient, rounded outward.

    The ends and tol are read as exact integer ratios (`as_integer_ratio`),
    with no `Fraction` arithmetic.  Every coefficient of a cell k halvings
    deep is an integer over the first cell's scale times 2^(n k), so values
    are compared as integers
    (`_excess`), and only the two ends become floats, by int/int true
    division, which rounds as `float(Fraction)` does."""
    if not (a <= b and tol > 0):
        raise ValueError(f"require a <= b and tol > 0, got a = {a}, b = {b}, tol = {tol}")
    coeffs, scale = _bernstein(p, a, b)
    n = len(coeffs) - 1
    tol_num, tol_den = tol.as_integer_ratio()
    slack = tol_num * scale  # tol as an integer over scale tol_den
    # (value, e) stands for value / (scale 2^e)
    best = upper = (max(coeffs[0], coeffs[-1]), 0)
    cells = [(coeffs, 0)]
    while cells:
        coeffs, e = cells.pop()
        top = (max(coeffs), e)
        gap, g = _excess(top, best)
        if gap * tol_den <= slack << g:
            if _excess(top, upper)[0] > 0:
                upper = top
            continue
        left, right = _halves(coeffs)
        e += n
        if _excess((left[-1], e), best)[0] > 0:
            best = (left[-1], e)
        cells += [(left, e), (right, e)]
    return _outward(best[0] / (scale << best[1]), upper[0] / (scale << upper[1]))


def _excess(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x - y as (num, g), num / (scale 2^g), for values held as (v, e), that
    is v / (scale 2^e), over one scale."""
    (xv, xe), (yv, ye) = x, y
    if xe >= ye:
        return xv - (yv << (xe - ye)), xe
    return (xv << (ye - xe)) - yv, ye
