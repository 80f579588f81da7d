import math
import random
from fractions import Fraction as Fr

import numpy as np
import pytest

from kiss3 import bounds, harness, polynomial
from kiss3.certificate import F_COEFFS, build_certificate
from kiss3.errors import DegenerateEndpoint, MultipleRoots, NoRoot
from kiss3.legendre import legendre
from kiss3.polynomial import (
    Interval,
    RationalPoly,
    SturmChain,
    _bernstein,
    _divide_exact,
    _outward,
    isolate_root,
    max_on_interval,
    taylor_shift,
)

F = RationalPoly(F_COEFFS)


def random_poly(rng, max_deg=9):
    deg = rng.randint(0, max_deg)
    return RationalPoly(
        [Fr(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(deg + 1)]
    )


class TestEval:
    def test_f_at_one_exact(self):
        assert F.eval(1) == Fr(4044, 400)

    def test_f_at_minus_one_exact(self):
        assert F.eval(-1) == Fr(1108, 400)

    def test_zero_poly(self):
        z = RationalPoly([])
        assert z.eval(Fr(7, 3)) == 0
        assert z.eval_real(2.5) == 0.0

    def test_horner_matches_monomial_sum(self):
        rng = random.Random(0)
        for _ in range(50):
            p = random_poly(rng)
            t = Fr(rng.randint(-20, 20), rng.randint(1, 10))
            assert p.eval(t) == sum(c * t**i for i, c in enumerate(p.coeffs))


class TestEvalReal:
    def test_f_negative_at_half(self):
        assert F.eval_real(0.5) < 0

    def test_p2_at_one(self):
        p2 = RationalPoly([Fr(-1, 2), 0, Fr(3, 2)])
        assert p2.eval_real(1.0) == 1.0

    def test_f_near_root(self):
        assert abs(F.eval_real(-0.5907)) < 1e-3


def per_call_horner(p, t):
    """Float Horner converting each coefficient on every call: the reference
    for the cached float image."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * t + float(c)
    return acc


class TestFloatImage:
    @pytest.mark.parametrize(
        "poly", [F] + [legendre(k) for k in range(10)], ids=["f"] + [f"P{k}" for k in range(10)]
    )
    def test_bit_identical_to_per_call_conversion(self, poly):
        rng = random.Random(11)
        fresh = RationalPoly(poly.coeffs)  # the first call builds the image
        for i in range(300):
            t = rng.uniform(-1.2, 1.2)
            if i % 2:
                t = np.float64(t)  # the refine objectives pass numpy scalars
            assert fresh.eval_real(t).hex() == per_call_horner(poly, t).hex()

    def test_real_coeffs(self):
        fresh = RationalPoly(F.coeffs)
        image = fresh.real_coeffs()
        assert image == tuple(float(c) for c in reversed(F.coeffs))
        assert fresh.real_coeffs() is image  # built once

    def test_beyond_float_range_is_exact(self):
        big = Fr(10**400, 3)
        p = RationalPoly([big, -1, 1])  # t^2 - t + big has no real root
        assert p.eval(Fr(1, 2)) == big - Fr(1, 4)
        assert SturmChain(p).count_open(-10, 10) == 0
        q, r = ref_divmod(p * p, p)
        assert q == p and r.is_zero()
        assert SturmChain(p * p).chain == FractionChain(p * p).chain
        with pytest.raises(OverflowError):  # as per-call conversion raises
            p.eval_real(0.5)


class TestEndpointDeflation:
    # t (t - 1/2) (t - 1): roots at both endpoints of (0, 1) and one inside
    P = RationalPoly([0, Fr(1, 2), Fr(-3, 2), 1])

    def test_endpoint_roots_ignored_everywhere(self):
        assert SturmChain(self.P).count_open(0, 1) == 1
        assert isolate_root(self.P, 0, 1).contains(0.5)
        assert isolate_root(self.P, 0, Fr(1, 2) + Fr(1, 3)).contains(0.5)
        assert isolate_root(self.P, Fr(1, 2) - Fr(1, 3), 1).contains(0.5)

    def test_zero_polynomial(self):
        zero = RationalPoly([])
        with pytest.raises(DegenerateEndpoint):
            isolate_root(zero, 0, 1)
        assert max_on_interval(zero, 0.0, 1.0) == _outward(Fr(0), Fr(0))

    def test_empty_and_reversed_intervals(self):
        for a, b in [(0, 0), (1, 0), (Fr(1, 2), Fr(1, 2))]:
            with pytest.raises(NoRoot):
                isolate_root(self.P, a, b)


class TestDerivative:
    def test_quadratic(self):
        assert RationalPoly([-1, 0, 1]).derivative() == RationalPoly([0, 2])

    def test_f_leading(self):
        df = F.derivative()
        assert df.degree == 8
        assert df.coeffs[-1] == 9 * Fr(2431, 80)

    def test_constant(self):
        assert RationalPoly([5]).derivative().is_zero()

    def test_linearity(self):
        rng = random.Random(1)
        for _ in range(30):
            p, q = random_poly(rng), random_poly(rng)
            assert (p + q).derivative() == p.derivative() + q.derivative()


class TestSturm:
    def test_quadratic_one_root(self):
        assert SturmChain(RationalPoly([-1, 0, 1])).count_open(0, 2) == 1

    def test_f_single_root_on_feasible_range(self):
        assert SturmChain(F).count_open(-1, Fr(1, 2)) == 1

    def test_f_derivative_no_root_left_of_t0(self):
        assert SturmChain(F.derivative()).count_open(-1, Fr(-59, 100)) == 0

    def test_additivity(self):
        rng = random.Random(2)
        for _ in range(25):
            p = random_poly(rng, max_deg=6)
            if p.degree < 1:
                continue
            a, b, c = Fr(-3), Fr(1, 3), Fr(3)
            if p.eval(a) == 0 or p.eval(b) == 0 or p.eval(c) == 0:
                continue
            chain = SturmChain(p)
            assert chain.count_open(a, b) + chain.count_open(b, c) == chain.count_open(a, c)

    def test_endpoint_root_not_counted(self):
        p = RationalPoly([0, 1]) * RationalPoly([-1, 2])  # roots 0, 1/2
        assert SturmChain(p).count_open(0, 1) == 1

    def test_multiple_root_counted_once(self):
        p = RationalPoly([-1, 1]) ** 2 * RationalPoly([-3, 1])
        assert SturmChain(p).count_open(0, 4) == 2

    def test_count_open_evaluates_each_term_once_per_end(self, monkeypatch):
        chain = SturmChain(RationalPoly([0, -1, 0, 1]))  # roots -1, 0, 1
        points = []
        original = RationalPoly.eval

        def counted(q, t):
            points.append(t)
            return original(q, t)

        monkeypatch.setattr(RationalPoly, "eval", counted)
        # the root at 1 is an end, so the endpoint test runs and takes it off
        assert chain.count_open(0, 1) == 0
        assert sorted(points) == [0] * len(chain.chain) + [1] * len(chain.chain)


class TestIsolateRoot:
    def test_sqrt2(self):
        iv = isolate_root(RationalPoly([-2, 0, 1]), 1, 2, 1e-12)
        assert iv.contains(math.sqrt(2))
        assert iv.width < 1e-11

    def test_f_root(self):
        iv = isolate_root(F, -1, 0, 1e-10)
        assert iv.contains(-0.59069) or abs(iv.mid + 0.5907) < 1e-4

    def test_rational_root(self):
        iv = isolate_root(RationalPoly([Fr(-1, 3), 1]), 0, 1, 1e-12)
        assert abs(iv.mid - 1 / 3) < 1e-11

    def test_no_root_raises(self):
        with pytest.raises(NoRoot):
            isolate_root(RationalPoly([1, 0, 1]), 0, 1)

    def test_multiple_roots_raises(self):
        p = RationalPoly([0, 1]) * RationalPoly([-1, 2])
        with pytest.raises(MultipleRoots):
            isolate_root(p, -1, 1)

    def test_endpoints_bracket_sign_change(self):
        rng = random.Random(3)
        found = 0
        while found < 10:
            p = random_poly(rng, max_deg=5)
            if p.degree < 1:
                continue
            try:
                iv = isolate_root(p, -2, 2, 1e-9)
            except (NoRoot, MultipleRoots):
                continue
            found += 1
            slo = p.eval_real(iv.lo)
            shi = p.eval_real(iv.hi)
            assert slo == 0 or shi == 0 or (slo < 0) != (shi < 0)

    def test_cubic(self):
        p = RationalPoly([0, 1]) * RationalPoly([-1, 1]) * RationalPoly([1, 2])
        for (a, b), expected in zip([(-2, Fr(-1, 4)), (Fr(-1, 4), Fr(1, 2)), (Fr(1, 2), 2)],
                                    (-0.5, 0.0, 1.0)):
            assert abs(isolate_root(p, a, b, 1e-10).mid - expected) < 1e-9

    def test_midpoint_root_that_is_not_a_float(self):
        # the first midpoint of (0, 2/3) is the root 1/3, which no float is:
        # the enclosure is rounded outward and holds it
        iv = isolate_root(RationalPoly([Fr(-1, 3), 1]), 0, Fr(2, 3), 1e-12)
        assert Fr(iv.lo) < Fr(1, 3) < Fr(iv.hi)
        assert iv == _outward(Fr(1, 3), Fr(1, 3))
        # a float midpoint root stays a point
        iv = isolate_root(RationalPoly([Fr(-1, 2), 1]), Fr(1, 3), Fr(2, 3), 1e-12)
        assert iv == Interval(0.5, 0.5)

    @pytest.mark.parametrize("width", [-1.0, 0.0, -math.inf, math.nan])
    def test_rejects_a_width_not_above_zero(self, width):
        with pytest.raises(ValueError, match="width > 0"):
            isolate_root(RationalPoly([-2, 0, 1]), 1, 2, width)

    def test_evaluates_each_term_once_per_point(self, monkeypatch):
        # (t + 2)^2 t (t - 1/2) (t - 1) (t^2 - 2): a double root at the end
        # -2 of the first cell, and roots at the midpoints 0 and 1 of two more
        p = RationalPoly([2, 1]) ** 2 * RationalPoly([0, 1]) * RationalPoly([-1, 2])
        p = p * RationalPoly([-1, 1]) * RationalPoly([-2, 0, 1])
        seen = []
        original = RationalPoly.eval

        def counted(q, t):
            seen.append((q, Fr(t)))
            return original(q, t)

        monkeypatch.setattr(RationalPoly, "eval", counted)
        cells = [(-2, -1), (Fr(-1, 4), Fr(1, 4)), (Fr(1, 4), Fr(5, 8)),
                 (Fr(3, 4), Fr(5, 4)), (Fr(5, 4), 2)]
        roots = []
        for a, b in cells:
            seen.clear()
            roots.append(isolate_root(p, a, b, 1e-6))
            assert len(seen) == len(set(seen))
        assert roots[1] == Interval(0.0, 0.0) and roots[3] == Interval(1.0, 1.0)
        for iv, root in zip(roots, (-math.sqrt(2), 0.0, 0.5, 1.0, math.sqrt(2))):
            assert iv.contains(root) and iv.width <= 1e-6


class TestMaxOnInterval:
    def test_interior_max(self):
        iv = max_on_interval(RationalPoly([0, 0, -1]), -1, 1, 1e-9)
        assert iv.lo <= 0 <= iv.hi
        assert iv.width <= 1e-9

    def test_boundary_max(self):
        iv = max_on_interval(RationalPoly([0, 1]), 0, 1, 1e-9)
        assert iv.contains(1.0)

    def test_constant_enclosed_outward(self):
        for v in (Fr(1, 3), Fr(-2, 3), Fr(0)):
            iv = max_on_interval(RationalPoly([v]), 0.0, 1.0)
            assert Fr(iv.lo) < v < Fr(iv.hi)

    def test_point_interval_enclosed_outward(self):
        p = RationalPoly([Fr(1, 3), 1])  # p(1/2) = 5/6, and float(5/6) > 5/6
        iv = max_on_interval(p, 0.5, 0.5)
        assert Fr(iv.lo) < Fr(5, 6) < Fr(iv.hi)

    def test_dominates_endpoints(self):
        rng = random.Random(4)
        for _ in range(20):
            p = random_poly(rng)
            iv = max_on_interval(p, -1.0, 1.0, 1e-7)
            assert iv.lo >= max(p.eval_real(-1.0), p.eval_real(1.0)) - 1e-7

    def test_contains_grid_maximum(self):
        # within tol of the true maximum, which a fine grid bounds from below
        rng = random.Random(5)
        for _ in range(10):
            p = random_poly(rng)
            iv = max_on_interval(p, -1.0, 1.0, 1e-7)
            grid_max = max(
                p.eval_real(-1.0 + 2.0 * i / 100000) for i in range(100001)
            )
            assert iv.hi >= grid_max - 1e-9
            assert iv.lo >= grid_max - 1e-7 - 1e-9
            assert iv.width <= 1e-7 + 1e-12

    @pytest.mark.parametrize("root", [Fr(1, 3), Fr(2, 3)])
    def test_interior_maximum_forces_subdivision(self, root, monkeypatch):
        # -(3t - 1)^2 and -(3t - 2)^2 peak at 0 away from every dyadic point,
        # with end values -1 and -4: the halving must reach the peak
        p = RationalPoly([-root, 1]) ** 2 * -9
        halved = []
        original = polynomial._halves

        def counted(coeffs):
            halved.append(coeffs)
            return original(coeffs)

        monkeypatch.setattr(polynomial, "_halves", counted)
        for tol in (1e-3, 1e-7, 1e-12):
            halved.clear()
            iv = max_on_interval(p, 0.0, 1.0, tol)
            assert -tol <= iv.lo <= 0.0 <= iv.hi
            assert iv.width <= tol * (1 + 1e-9)
            assert len(halved) > 1

    def test_rejects_bad_arguments(self):
        for tol in (0.0, -1e-7, math.nan):
            with pytest.raises(ValueError, match="tol > 0"):
                max_on_interval(F, -1.0, 1.0, tol)
        with pytest.raises(ValueError, match="a <= b"):
            max_on_interval(F, 1.0, -1.0)

    def test_builds_no_sturm_chain(self, monkeypatch):
        def refuse(chain, p):
            raise AssertionError("max_on_interval built a Sturm chain")

        monkeypatch.setattr(SturmChain, "__init__", refuse)
        iv = max_on_interval(RationalPoly([0, 0, -1]), -1.0, 1.0)
        assert iv.contains(0.0)


class TestBernsteinMatchesFraction:
    """The integer Bernstein coefficients and their de Casteljau halves give
    the rationals of the `Fraction` reference, coefficient for coefficient."""

    def test_coefficients_and_halves(self):
        rng = random.Random(37)
        cases = [RationalPoly([]), RationalPoly([Fr(-2, 3)]), F, F.derivative()]
        cases += [random_poly(rng) for _ in range(40)] + [sparse_poly(rng) for _ in range(20)]
        for p in cases:
            a = rng.uniform(-2.0, 1.0)
            for b in (a, a + rng.uniform(0.0, 2.0), a + 2.0**-30):
                coeffs, scale = _bernstein(p, Fr(a), Fr(b))
                assert (coeffs, scale) == comb_bernstein(p, Fr(a), Fr(b))
                assert [Fr(c, scale) for c in coeffs] == ref_bernstein(p, a, b)
                assert (Fr(coeffs[0], scale), Fr(coeffs[-1], scale)) == (p.eval(a), p.eval(b))
                mid = (Fr(a) + Fr(b)) / 2
                half = scale << (len(coeffs) - 1)
                for cell, ends in zip(polynomial._halves(coeffs), [(a, mid), (mid, b)]):
                    assert [Fr(c, half) for c in cell] == ref_bernstein(p, *ends)


# -- Fraction reference --------------------------------------------------------
# The polynomial arithmetic as it was before it ran on the integer image: each
# operation in `Fraction`s, the Sturm chain by rational polynomial division.
# The integer code must give the same rationals, term for term.


def ref_eval(p, t):
    """Horner evaluation in `Fraction`s."""
    t = Fr(t)
    acc = Fr(0)
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def ref_mul(p, q):
    if p.is_zero() or q.is_zero():
        return RationalPoly([])
    out = [Fr(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return RationalPoly(out)


def ref_bernstein(p, a, b):
    """Bernstein coefficients of p on [a, b] in `Fraction`s: the Taylor shift
    q(t) = p(a + (b - a) t) term by term, then
    b_k = sum_{i <= k} C(k, i) / C(n, i) q_i."""
    a, b = Fr(a), Fr(b)
    n = max(p.degree, 0)
    line, power = RationalPoly([a, b - a]), RationalPoly([1])
    q = [Fr(0)] * (n + 1)
    for c in p.coeffs:
        for i, v in enumerate(power.coeffs):
            q[i] += c * v
        power = ref_mul(power, line)
    return [
        sum(Fr(math.comb(k, i), math.comb(n, i)) * q[i] for i in range(k + 1))
        for k in range(n + 1)
    ]


def ref_divmod(p, d):
    """Quotient and remainder of rational polynomial division."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    den = d.coeffs
    quo = [Fr(0)] * max(len(rem) - len(den) + 1, 0)
    while len(rem) >= len(den):
        k = len(rem) - len(den)
        q = rem[-1] / den[-1]
        quo[k] = q
        for i, c in enumerate(den):
            rem[k + i] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
    return RationalPoly(quo), RationalPoly(rem)


def ref_exact_quotient(p, d):
    q, r = ref_divmod(p, d)
    assert r.is_zero()
    return q


def ref_primitive(p):
    """p scaled by a positive rational to integer coefficients with content 1."""
    if p.is_zero():
        return p
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*(abs(v) for v in ints))
    return RationalPoly([Fr(v // g) for v in ints])


def ref_deflate(p, a, b):
    for endpoint in (a, b):
        while not p.is_zero() and ref_eval(p, endpoint) == 0:
            p = ref_exact_quotient(p, RationalPoly([-endpoint, 1]))
    return p


class FractionChain:
    """The one-pass Sturm chain with rational remainders."""

    def __init__(self, p):
        chain = [ref_primitive(p)]
        if p.degree >= 1:
            dp = RationalPoly([i * c for i, c in enumerate(p.coeffs)][1:])
            chain.append(ref_primitive(dp))
            while chain[-1].degree >= 1:
                _, r = ref_divmod(chain[-2], chain[-1])
                if r.is_zero():
                    break
                chain.append(ref_primitive(-r))
        g = chain[-1]
        if g.degree >= 1:
            chain = [ref_primitive(ref_exact_quotient(q, g)) for q in chain]
        self.chain = chain


def ref_symmetric_pair_poly(f, base, r2):
    """`bounds._symmetric_pair_poly` in `Fraction` polynomial arithmetic."""
    w = RationalPoly([r2, 0, -r2])
    base_pow = [RationalPoly([1])]
    w_pow = [RationalPoly([1])]
    for _ in range(f.degree):
        base_pow.append(ref_mul(base_pow[-1], base))
    for _ in range(f.degree // 2):
        w_pow.append(ref_mul(w_pow[-1], w))
    out = RationalPoly([])
    for j, aj in enumerate(f.coeffs):
        if aj == 0:
            continue
        for i in range(0, j + 1, 2):
            term = ref_mul(base_pow[j - i], w_pow[i // 2])
            out = out + term * (2 * aj * math.comb(j, i))
    return out


# -- two-pass reference -------------------------------------------------------
# The root machinery as it was before Sturm chains took one Euclidean pass: a
# gcd-based squarefree part, then the Sturm chain of that part, and a
# bisection of its own in `ref_isolate_root`.


def ref_gcd(p, q):
    a, b = ref_primitive(p), ref_primitive(q)
    while not b.is_zero():
        _, r = ref_divmod(a, b)
        a, b = b, ref_primitive(r)
    if a.is_zero():
        return a
    return a * (1 / a.coeffs[-1])


def ref_squarefree(p):
    if p.degree <= 0:
        return p
    g = ref_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = ref_divmod(p, g)
    assert r.is_zero()
    return q


class RefChain:
    def __init__(self, p):
        self.squarefree = ref_primitive(ref_squarefree(p))
        chain = [self.squarefree]
        if self.squarefree.degree >= 1:
            chain.append(ref_primitive(self.squarefree.derivative()))
            while chain[-1].degree >= 1:
                _, r = ref_divmod(chain[-2], chain[-1])
                if r.is_zero():
                    break
                chain.append(ref_primitive(-r))
        self.chain = chain
        self._values = {}  # the memo `SturmChain.values` keeps

    count_open = SturmChain.count_open
    values = SturmChain.values


def ref_sturm_count(p, a, b):
    a, b = Fr(a), Fr(b)
    if a >= b:
        raise ValueError("require a < b")
    p = ref_deflate(p, a, b)
    if p.is_zero():
        raise DegenerateEndpoint("the zero polynomial has no isolated roots")
    return RefChain(p).count_open(a, b)


def ref_isolate_root(p, a, b, width=1e-9):
    lo, hi = Fr(a), Fr(b)
    p = ref_deflate(p, lo, hi)
    if p.is_zero():
        raise DegenerateEndpoint("the zero polynomial has no isolated roots")
    n = RefChain(p).count_open(lo, hi)
    if n == 0:
        raise NoRoot(f"no root of p in ({a}, {b})")
    if n > 1:
        raise MultipleRoots(f"{n} roots of p in ({a}, {b})")
    q = ref_squarefree(p)
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
    return Interval(math.nextafter(float(lo), -math.inf), math.nextafter(float(hi), math.inf))


def outcome(fn, *args):
    """What a call returns, in comparable form: interval endpoints as
    `.hex()`, or the exception's type and message."""
    try:
        result = fn(*args)
    except (DegenerateEndpoint, NoRoot, MultipleRoots, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, Interval):
        return result.lo.hex(), result.hi.hex()
    return result


def repeated_root_poly(rng):
    """A product of rational linear factors with multiplicities 1 to 3, a
    random scale and, half the time, an irreducible or irrational quadratic
    factor.  Returns the polynomial and its rational roots."""
    roots = [Fr(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    p = RationalPoly([Fr(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))])
    for r in roots:
        p = p * RationalPoly([-r, 1]) ** rng.randint(1, 3)
    if rng.random() < 0.5:
        p = p * RationalPoly([rng.choice([-1, 1]) * rng.randint(1, 5), 0, 1])
    return p, roots


def comparison_intervals(rng, roots):
    """One interval with random rational endpoints, and one for each of the
    (possibly multiple) rational roots, with that root as an endpoint."""
    a = Fr(rng.randint(-40, 40), rng.randint(1, 8))
    out = [(a, a + Fr(rng.randint(1, 40), rng.randint(1, 8)))]
    for r in roots:
        step = Fr(rng.randint(1, 20), rng.randint(1, 4))
        out.append(rng.choice([(r, r + step), (r - step, r)]))
    return out


class TestOnePassMatchesTwoPass:
    """One Euclidean pass per chain gives the counts, exceptions and
    enclosure endpoints of the two-pass (gcd, then chain) reference."""

    CASES = [repeated_root_poly(random.Random(seed)) for seed in range(300)]

    def test_cases_have_repeated_roots(self):
        repeated = sum(ref_squarefree(p).degree < p.degree for p, _ in self.CASES)
        assert repeated >= 200

    @pytest.mark.parametrize("seed", range(0, 300, 50))
    def test_counts_and_enclosures(self, seed):
        for k, (p, roots) in enumerate(self.CASES[seed : seed + 50]):
            rng = random.Random(1000 + seed + k)
            for a, b in comparison_intervals(rng, roots):
                width = rng.choice([1e-3, 1e-6])
                assert outcome(SturmChain(p).count_open, a, b) == outcome(ref_sturm_count, p, a, b)
                assert outcome(isolate_root, p, a, b, width) == outcome(
                    ref_isolate_root, p, a, b, width
                )

    @pytest.mark.parametrize("width", [0.5, 1e-2, 1e-6])
    def test_root_near_an_endpoint_root(self, width):
        # roots at 0 and 1, each 1/1000 from another root: a width wider than
        # that gap still gives the deflating reference's enclosures
        p = RationalPoly([0, 1]) * RationalPoly([Fr(-1, 1000), 1])
        p = p * RationalPoly([Fr(-999, 1000), 1]) * RationalPoly([-1, 1]) ** 2
        for a, b in [(0, 1), (0, Fr(1, 2)), (Fr(1, 2), 1)]:
            assert outcome(isolate_root, p, a, b, width) == outcome(
                ref_isolate_root, p, a, b, width
            )

    def test_chain_of_squarefree_input_is_unchanged(self):
        for p in [F, F.derivative(), RationalPoly([-2, 0, 1])]:
            assert SturmChain(p).chain == RefChain(p).chain

    def test_squarefree_part_has_simple_roots(self):
        p = RationalPoly([-1, 1]) ** 3 * RationalPoly([2, 1]) ** 2  # (t-1)^3 (t+2)^2
        q = SturmChain(p).squarefree
        assert q.degree == 2
        assert q.eval(1) == 0 and q.eval(-2) == 0


# -- integer image against the Fraction reference ----------------------------


def sparse_poly(rng):
    """A polynomial of degree 2 to 9 with about half its lower coefficients
    zero, so remainders can drop by more than one degree."""
    deg = rng.randint(2, 9)
    cs = [Fr(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.5 else 0
          for _ in range(deg)]
    lead = Fr(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
    return RationalPoly(cs + [lead])


def dyadic_poly(rng):
    """Float coefficients, exact as dyadic rationals, as the profiles have."""
    return RationalPoly([rng.uniform(-30.0, 30.0) for _ in range(rng.randint(1, 10))])


def equivalence_cases():
    out = [F, F.derivative(), RationalPoly([]), RationalPoly([Fr(-2, 3)])]
    for seed in range(100):
        rng = random.Random(7000 + seed)
        out.append(random_poly(rng))
        out.append(repeated_root_poly(rng)[0])
        out.append(sparse_poly(rng))
        if seed % 4 == 0:
            out.append(dyadic_poly(rng))
    return out


class TestIntegerImageMatchesFraction:
    """The integer image gives the rationals of `Fraction` arithmetic: Sturm
    chains term for term, products and evaluation."""

    CASES = equivalence_cases()

    def test_cases_cover_each_kind(self):
        assert len(self.CASES) >= 300
        chains = [FractionChain(p).chain for p in self.CASES]
        assert sum(ch[0].degree < p.degree for p, ch in zip(self.CASES, chains)) >= 50
        # a term two or more degrees below the one before it: the next
        # pseudo-remainder takes delta + 1 >= 3 steps
        skips = [any(a.degree - b.degree > 1 for a, b in zip(ch, ch[1:])) for ch in chains]
        assert sum(skips) >= 20
        assert sum(p.coeffs[-1] < 0 for p in self.CASES if p.coeffs) >= 50
        assert any(c.denominator % 3 == 0 for p in self.CASES for c in p.coeffs)

    @pytest.mark.parametrize("start", range(0, len(CASES), 66))
    def test_chains_equal_term_for_term(self, start):
        for p in self.CASES[start : start + 66]:
            got = [q.coeffs for q in SturmChain(p).chain]
            assert got == [q.coeffs for q in FractionChain(p).chain], p

    def test_products(self):
        rng = random.Random(17)
        for p in self.CASES:
            q = rng.choice(self.CASES)
            got, want = p * q, ref_mul(p, q)
            assert got.coeffs == want.coeffs
            assert (got.ints, got.den) == (want.ints, want.den)

    def test_canonical_form(self):
        half = RationalPoly([Fr(1, 2), Fr(2, 4)])
        same = [
            RationalPoly.from_integers([2, 2], 4),
            RationalPoly.from_integers([1, 1, 0], 2),
            RationalPoly([Fr(1, 3), Fr(5, 6), 1]) + RationalPoly([Fr(1, 6), Fr(-1, 3), -1]),
        ]
        for p in same:
            assert p == half and hash(p) == hash(half)
            assert (p.ints, p.den) == ((1, 1), 2)
        for p in self.CASES:
            assert p.den > 0 and math.gcd(p.den, *p.ints) == 1
            assert not p.ints or p.ints[-1] != 0
            assert RationalPoly(p.coeffs) == p

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            _divide_exact([1, 0, 1], [-1, 1])  # t^2 + 1 has no root at 1
        with pytest.raises(ArithmeticError):
            _divide_exact([1, 1], [0, 2])  # quotient 1/2 is not an integer

    def test_eval_at_rational_points(self):
        rng = random.Random(23)
        points = [Fr(0), Fr(-1), Fr(3, 8), Fr(-5, 1024), Fr(1, 3), Fr(-22, 7)]
        points += [Fr(rng.uniform(-2.0, 2.0)) for _ in range(4)]
        points += [Fr(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(4)]
        for p in self.CASES:
            for t in points:
                v = p.eval(t)
                assert type(v) is Fr and v == ref_eval(p, t)
        zero = RationalPoly([])
        for t in points + [0, -3, 0.25]:
            assert zero.eval(t) == 0 and type(zero.eval(t)) is Fr

    def test_eval_takes_ints_and_floats(self):
        for t in (0, -3, 7, 0.1, -2.5):
            assert F.eval(t) == ref_eval(F, t)

    def test_profiles_of_the_bound_table(self, cert, monkeypatch):
        built = []
        integer_build = bounds._symmetric_pair_poly

        def checked(f, base, r2):
            poly = integer_build(f, base, r2)
            built.append(poly.coeffs == ref_symmetric_pair_poly(f, base, r2).coeffs)
            return poly

        monkeypatch.setattr(bounds, "_symmetric_pair_poly", checked)
        bounds.compute_bound_table(cert)
        assert built == [True] * 10
        rng = random.Random(29)
        for _ in range(10):
            bounds.build_omega(cert, rng.uniform(60.0 * bounds.DEG, 2.0 * cert.theta0.lo))
            bounds.build_triangle_profile(cert, rng.uniform(bounds.R0, cert.theta0.lo))
        assert built == [True] * 30

    def test_profile_of_non_dyadic_inputs(self):
        rng = random.Random(31)
        f = RationalPoly(harness.perturbed_coeffs(9, Fr(1, 100)))
        for p in [f] + [random_poly(rng) for _ in range(20)]:
            base = RationalPoly([Fr(rng.randint(-9, 9), rng.randint(1, 9)), Fr(1, 7)])
            r2 = Fr(rng.randint(0, 9), rng.randint(1, 9))
            got = bounds._symmetric_pair_poly(p, base, r2)
            assert got.coeffs == ref_symmetric_pair_poly(p, base, r2).coeffs


# -- the exact kernels before their integer rewrite -------------------------
# Profiles by one convolution per (j, i) term, root isolation by `Fraction`
# bisection on `RationalPoly.eval`, and Bernstein maxima compared as
# `Fraction`s over comb-sum coefficients.  The rewritten kernels must give
# the same `ints`/`den` and the same interval bits.


def convolution_pair_poly(f, base, r2):
    """`bounds._symmetric_pair_poly` with one integer convolution per term
    2 a_j C(j, i) base^(j-i) (v^2)^(i/2)."""
    a, da = f.ints, f.den
    b, db = base.ints, base.den
    nw, dw = r2.numerator, r2.denominator
    n = max(f.degree, 0)
    b_pow, w_pow = [[1]], [[1]]
    for _ in range(n):
        b_pow.append(polynomial.convolve(b_pow[-1], b))
    for _ in range(n // 2):
        w_pow.append(polynomial.convolve(w_pow[-1], [nw, 0, -nw]))
    out = [0] * (n * max(len(b) - 1, 1) + 1)
    for j, aj in enumerate(a):
        if aj == 0:
            continue
        for i in range(0, j + 1, 2):
            scale = 2 * aj * math.comb(j, i) * db ** (n - j + i) * dw ** (n // 2 - i // 2)
            for k, v in enumerate(polynomial.convolve(b_pow[j - i], w_pow[i // 2])):
                out[k] += scale * v
    return RationalPoly.from_integers(out, da * db**n * dw ** (n // 2))


def fraction_isolate_root(p, a, b, width=1e-9):
    """`isolate_root` by `Fraction` bisection.  A midpoint root is a point
    interval when it is a float and is rounded outward when not."""
    if not width > 0:
        raise ValueError(f"require width > 0, got width = {width}")
    if p.is_zero():
        raise DegenerateEndpoint("the zero polynomial has no isolated roots")
    lo, hi = Fr(a), Fr(b)
    count = 0
    if lo < hi:
        chain = SturmChain(p)
        at_lo = chain.values(lo)
        count = polynomial._count(at_lo, chain.values(hi))
    if count == 0:
        raise NoRoot(f"no root of p in ({a}, {b})")
    if count > 1:
        raise MultipleRoots(f"{count} roots of p in ({a}, {b})")
    q = chain.squarefree
    slo = at_lo[0] or at_lo[1]
    while float(hi - lo) > width:
        mid = (lo + hi) / 2
        smid = q.eval(mid)
        if smid == 0:
            if Fr(float(mid)) == mid:
                return Interval(float(mid), float(mid))
            return _outward(mid, mid)
        if slo * smid < 0:
            hi = mid
        else:
            lo, slo = mid, smid
    return _outward(lo, hi)


def comb_bernstein(p, a, b):
    """`_bernstein` with C(n, k) b_k = sum_i C(n - i, k - i) Q_i, scaled by
    k! (n - k)!."""
    ints = p.ints or (0,)
    n = len(ints) - 1
    d = math.lcm(a.denominator, (b - a).denominator)
    A, H = int(a * d), int((b - a) * d)
    q, scale = [ints[-1]], 1
    for c in reversed(ints[:-1]):
        scale *= d
        q = [A * x + H * y for x, y in zip(q + [0], [0] + q)]
        q[0] += c * scale
    fact = math.factorial
    coeffs = [
        fact(k) * fact(n - k) * sum(math.comb(n - i, k - i) * q[i] for i in range(k + 1))
        for k in range(n + 1)
    ]
    return coeffs, fact(n) * p.den * scale


def fraction_max_on_interval(p, a, b, tol=1e-7):
    """`max_on_interval` with every comparison between `Fraction`s."""
    if not (a <= b and tol > 0):
        raise ValueError(f"require a <= b and tol > 0, got a = {a}, b = {b}, tol = {tol}")
    slack = Fr(tol)
    coeffs, scale = comb_bernstein(p, Fr(a), Fr(b))
    best = upper = max(Fr(coeffs[0], scale), Fr(coeffs[-1], scale))
    cells = [(coeffs, scale)]
    while cells:
        coeffs, scale = cells.pop()
        top = Fr(max(coeffs), scale)
        if top <= best + slack:
            upper = max(upper, top)
            continue
        left, right = polynomial._halves(coeffs)
        scale <<= len(coeffs) - 1
        best = max(best, Fr(left[-1], scale))
        cells += [(left, scale), (right, scale)]
    return _outward(best, upper)


def kernel_profiles(cert):
    """The ten bound-table profiles of the certificate, and of the one that
    `verify --perturb 9:1/100` builds, then 20 at seeded psi."""
    from test_bounds import table_profiles

    perturbed = build_certificate(harness.perturbed_coeffs(9, Fr(1, 100)))
    out = [prof for c in (cert, perturbed) for _, _, prof in table_profiles(c)]
    rng = random.Random(59)
    for _ in range(10):
        out.append(bounds.build_omega(cert, rng.uniform(60.0 * bounds.DEG, 2.0 * cert.theta0.lo)))
        out.append(bounds.build_triangle_profile(cert, rng.uniform(bounds.R0, cert.theta0.lo)))
    return out


class TestKernelsMatchTheirPredecessors:
    def test_profiles_equal_integer_for_integer(self, cert, monkeypatch):
        inputs = []  # (f, base, r2) of every `kernel_profiles` profile
        build = bounds._symmetric_pair_poly

        def record(f, base, r2):
            inputs.append((f, base, r2))
            return build(f, base, r2)

        monkeypatch.setattr(bounds, "_symmetric_pair_poly", record)
        kernel_profiles(cert)
        monkeypatch.undo()
        assert len(inputs) == 40
        rng = random.Random(61)
        for _ in range(60):  # non-dyadic, constant, zero and quadratic inputs
            f = random_poly(rng, 10) if rng.random() < 0.9 else RationalPoly([])
            base = random_poly(rng, 2) if rng.random() < 0.9 else RationalPoly([])
            r2 = rng.choice([Fr(0), Fr(rng.randint(-9, 9), rng.randint(1, 9))])
            inputs.append((f, base, r2))
        for f, base, r2 in inputs:
            got, want = bounds._symmetric_pair_poly(f, base, r2), convolution_pair_poly(f, base, r2)
            assert (got.ints, got.den) == (want.ints, want.den), (f, base, r2)

    def test_root_enclosures_equal_bit_for_bit(self, cert):
        cases = [(F, -1, 0, w) for w in (1e-12, 1e-9, 1e-3, 0.75)]
        cases += [(F.derivative(), -1, 0, 1e-9), (RationalPoly([-2, 0, 1]), 1, 2, 1e-15)]
        # a width that the 20th halving meets exactly, which ends the bisection
        cases += [(RationalPoly([-2, 0, 1]), 1, 2, 2.0**-20)]
        # roots at dyadic midpoints: 1/2 of (0, 1) and of (1/3, 2/3), 3/8 of
        # (1/4, 1/2), and one that no bisection of (0, 1) meets
        p = RationalPoly([Fr(-1, 2), 1]) * RationalPoly([Fr(-3, 8), 1]) * RationalPoly([-3, 0, 1])
        cases += [(p, 0, Fr(7, 16), 1e-9), (p, Fr(7, 16), 1, 1e-9), (p, Fr(1, 3), Fr(2, 3), 1e-9)]
        cases += [(p, Fr(1, 4), Fr(1, 2) - Fr(1, 1000), 1e-9)]
        # roots at an end: the end root is not counted and the sign just
        # inside comes from chain[1]
        cases += [(p, Fr(1, 2), 1, 1e-9), (p, Fr(3, 8), Fr(1, 2), 1e-9), (p, 0, Fr(3, 8), 1e-6)]
        # no root, a constant, an empty and a one-point interval
        cases += [(p, 1, Fr(3, 2), 1e-9), (RationalPoly([3]), 0, 1, 1e-9), (p, 1, 1, 1e-9)]
        rng = random.Random(67)
        for _ in range(150):  # not squarefree, with roots at the ends
            q, roots = repeated_root_poly(rng)
            for a, b in comparison_intervals(rng, roots):
                cases.append((q, a, b, rng.choice([1e-3, 1e-6, 1e-12])))
        ran = 0
        for q, a, b, width in cases:
            got = outcome(isolate_root, q, a, b, width)
            assert got == outcome(fraction_isolate_root, q, a, b, width), (q, a, b, width)
            ran += isinstance(got[0], str) and got[0].startswith(("0x", "-0x"))
        assert ran >= 100

    def test_maxima_equal_bit_for_bit(self, cert):
        cases = [(prof.poly, prof.domain.lo, prof.domain.hi, 1e-7) for prof in kernel_profiles(cert)]
        # interior peaks away from every dyadic point need de Casteljau halving
        for root in (Fr(1, 3), Fr(2, 3), Fr(1, 7)):
            peak = RationalPoly([-root, 1]) ** 2 * -9
            cases += [(peak, 0.0, 1.0, tol) for tol in (1e-3, 1e-7, 1e-12, 1e-30)]
        # a middle coefficient exactly tol above both ends is kept unhalved
        for tol in (2.0**-10, 2.0**-40):
            cases.append((RationalPoly([0, 2 * Fr(tol), -2 * Fr(tol)]), 0.0, 1.0, tol))
        # constants, the zero polynomial and one-point intervals
        cases += [(RationalPoly([v]), 0.0, 1.0, 1e-7) for v in (Fr(1, 3), Fr(-2, 3), 0)]
        cases += [(RationalPoly([Fr(1, 3), 1]), 0.5, 0.5, 1e-7), (F, 0.25, 0.25, 1e-12)]
        rng = random.Random(71)
        tols = [1e-1, 1e-4, 1e-7, 1e-12]
        for _ in range(120):
            a = rng.uniform(-2.0, 1.0)
            b = a + rng.choice([0.0, rng.uniform(0.0, 2.0), 2.0**-30])
            cases.append((random_poly(rng), a, b, rng.choice(tols)))
        for _ in range(60):  # two interior peaks, at 0, and negative ends
            r1, r2 = (Fr(rng.randint(1, 98), 99) for _ in range(2))
            twin = RationalPoly([-r1, 1]) ** 2 * RationalPoly([-r2, 1]) ** 2 * -rng.randint(1, 9)
            cases.append((twin + RationalPoly([rng.randint(-9, 9)]), 0.0, 1.0, rng.choice(tols)))
        halved = 0
        for p, a, b, tol in cases:
            got = outcome(max_on_interval, p, a, b, tol)
            assert got == outcome(fraction_max_on_interval, p, a, b, tol), (p, a, b, tol)
            coeffs, scale = polynomial._bernstein(p, Fr(a), Fr(b))
            halved += Fr(max(coeffs) - max(coeffs[0], coeffs[-1]), scale) > Fr(tol)
        assert halved >= 60


def recorded_pair_inputs(build, *calls):
    """The (f, base, r2) that `_symmetric_pair_poly` is given across
    `build(*args)` for each args in `calls`."""
    inputs = []
    pair = bounds._symmetric_pair_poly

    def record(f, base, r2):
        inputs.append((f, base, r2))
        return pair(f, base, r2)

    bounds._symmetric_pair_poly = record
    try:
        for args in calls:
            build(*args)
    finally:
        bounds._symmetric_pair_poly = pair
    return inputs


def fraction_bases(kind, psi):
    """A bound-table builder's base and r2 as products of `Fraction`s of
    its float trig values."""
    if kind == "omega":
        ch, sh = Fr(math.cos(psi / 2.0)), Fr(math.sin(psi / 2.0))
        return RationalPoly([0, -ch]), sh * sh
    a = Fr(math.cos(psi) / 2.0)
    b = Fr(math.sin(60.0 * bounds.DEG) * math.sin(psi))
    cr, sr = Fr(math.cos(bounds.R0)), Fr(math.sin(bounds.R0))
    return RationalPoly([-a, -b * cr]), b * b * sr * sr


def plain_lowest_terms(ints, den):
    """ints / den with trailing zeros dropped and one gcd divided out."""
    ints = list(ints)
    while ints and ints[-1] == 0:
        ints.pop()
    g = math.gcd(den, *ints)
    return tuple(v // g for v in ints), den // g


class TestTaylorShiftBuild:
    """The profile build by one Taylor shift of f, the integer-ratio bases
    of its two callers, and the power-of-two strip before the gcd."""

    def assert_predecessor_equal(self, inputs):
        for f, base, r2 in inputs:
            got = bounds._symmetric_pair_poly(f, base, r2)
            want = convolution_pair_poly(f, base, r2)
            assert (got.ints, got.den) == (want.ints, want.den), (f, base, r2)

    def test_bases_with_only_a_constant_term(self):
        rng = random.Random(83)
        inputs = []
        for _ in range(40):
            den = rng.choice([1, 3, 2 ** rng.randint(1, 60)])
            b0 = Fr(rng.choice([-1, 1]) * rng.randint(1, 50), den)
            r2 = Fr(rng.randint(-9, 9), rng.randint(1, 9))
            inputs.append((random_poly(rng, 10), RationalPoly([b0]), r2))
        assert all(base.degree == 0 for _, base, _ in inputs)
        self.assert_predecessor_equal(inputs)

    def test_bases_with_a_zero_constant_term(self, cert):
        # a Taylor shift by b0 = 0: random f and bases, and the omega
        # profiles of the table angles and 100 seeded ones, whose bases are
        # all of this kind
        from test_bounds import table_profiles

        rng = random.Random(101)
        inputs = []
        for _ in range(60):
            rest = random_poly(rng, 3).coeffs[1:] or [Fr(rng.randint(1, 9), 2 ** rng.randint(0, 60))]
            base = RationalPoly([0, *rest])
            r2 = Fr(rng.randint(-9, 9), rng.randint(1, 2 ** rng.randint(0, 60)))
            inputs.append((random_poly(rng, 10), base, r2))
        angles = [psi for kind, psi, _ in table_profiles(cert) if kind == "F1"]
        angles += [rng.uniform(60.0 * bounds.DEG, 2.0 * cert.theta0.lo) for _ in range(100)]
        inputs += recorded_pair_inputs(bounds.build_omega, *((cert, psi) for psi in angles))
        assert all(base.ints[0] == 0 and base.degree >= 1 for _, base, _ in inputs)
        self.assert_predecessor_equal(inputs)

    def test_odd_degree_f(self):
        rng = random.Random(89)
        inputs = []
        for deg in [1, 3, 5, 7, 9, 11] * 8:
            coeffs = [Fr(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(deg)]
            top = Fr(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 20))
            f = RationalPoly(coeffs + [top])
            base = random_poly(rng, 2) if rng.random() < 0.8 else RationalPoly([])
            r2 = Fr(rng.randint(-9, 9), rng.randint(1, 2 ** rng.randint(0, 60)))
            inputs.append((f, base, r2))
        assert {f.degree % 2 for f, _, _ in inputs} == {1}
        self.assert_predecessor_equal(inputs)

    def test_perturbed_certificate_table(self):
        from test_bounds import table_profiles

        perturbed = build_certificate(harness.perturbed_coeffs(9, Fr(1, 100)))
        inputs = recorded_pair_inputs(table_profiles, (perturbed,))
        assert len(inputs) == 10
        self.assert_predecessor_equal(inputs)

    def test_integer_ratio_bases_equal_fraction_products(self, cert):
        from test_bounds import table_profiles

        perturbed = build_certificate(harness.perturbed_coeffs(9, Fr(1, 100)))
        kinds = {"F1": "omega", "F2": "triangle"}
        angles = [(kinds[k], psi) for c in (cert, perturbed) for k, psi, _ in table_profiles(c)]
        rng = random.Random(97)
        for _ in range(100):
            angles.append(("omega", rng.uniform(60.0 * bounds.DEG, 2.0 * cert.theta0.lo)))
            angles.append(("triangle", rng.uniform(bounds.R0, cert.theta0.lo)))
        builders = {"omega": bounds.build_omega, "triangle": bounds.build_triangle_profile}
        for kind, psi in angles:
            ((_, base, r2),) = recorded_pair_inputs(builders[kind], (cert, psi))
            want_base, want_r2 = fraction_bases(kind, psi)
            assert base.coeffs == want_base.coeffs
            assert (base.ints, base.den) == (want_base.ints, want_base.den)
            assert (r2.numerator, r2.denominator) == (want_r2.numerator, want_r2.denominator)

    def test_power_of_two_strip_matches_the_plain_gcd(self):
        rng = random.Random(101)
        cases = [([], 1), ([], 8), ([], 7), ([0, 0], 2**90), ([0], 1), ([4, 0, -8], 16), ([-3], 6)]
        cases += [([6, 0, -10], 1), ([2**70, -2**71], 2**70 * 3), ([2**70, -2**71], 5 * 2**69)]
        for _ in range(400):
            shared = 2 ** rng.choice([0, 0, 1, 5, 64, 842])
            size = rng.randint(0, 10)
            ints = [rng.choice([0, rng.randint(-(10**6), 10**6)]) * shared for _ in range(size)]
            ints += [0] * rng.choice([0, 0, 2])
            den = rng.choice([1, rng.randrange(1, 10**6, 2), rng.randint(1, 10**6) * shared])
            cases.append((ints, den))
        assert {den % 2 for _, den in cases} == {0, 1} and any(den == 1 for _, den in cases)
        for ints, den in cases:
            p = RationalPoly.from_integers(ints, den)
            assert (p.ints, p.den) == plain_lowest_terms(ints, den), (ints, den)


class TestTaylorShift:
    """`taylor_shift` is sum_i ints[i] x^i composed with x = (a + h y) / d,
    as RationalPoly powers compose it, scaled by d^n, for the arguments of
    both its callers on random integer polynomials."""

    @staticmethod
    def assert_composes(ints, a, h, d):
        q, scale = taylor_shift(ints, a, h, d)
        n = len(ints) - 1
        x = RationalPoly([Fr(a, d), Fr(h, d)])
        want = sum((RationalPoly([c]) * x**i for i, c in enumerate(ints)), RationalPoly([]))
        assert len(q) == len(ints) and scale == d**n
        assert RationalPoly([Fr(v, scale) for v in q]) == want, (ints, a, h, d)

    @staticmethod
    def random_ints(rng):
        bits = rng.choice([4, 30, 200])
        return [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 12))]

    def test_bernstein_intervals(self):
        # _bernstein's shift to [a, b]: a = A / d and b - a = H / d over
        # their common denominator
        rng = random.Random(103)
        for _ in range(200):
            a = Fr(rng.randint(-(10**6), 10**6), rng.choice([1, 3, 2 ** rng.randint(0, 60)]))
            b = a + Fr(rng.randint(0, 10**6), rng.choice([1, 7, 2 ** rng.randint(0, 60)]))
            d = math.lcm(a.denominator, (b - a).denominator)
            self.assert_composes(self.random_ints(rng), int(a * d), int((b - a) * d), d)

    def test_profile_bases(self):
        # the profile build's shift to (b0 + y) / db, b0 = 0 included
        rng = random.Random(107)
        for _ in range(200):
            b0 = rng.choice([0, rng.randint(-(2**60), 2**60)])
            db = rng.choice([1, 3, 2 ** rng.randint(0, 60)])
            self.assert_composes(self.random_ints(rng), b0, 1, db)

    def test_constant_and_zero(self):
        for ints in ([0], [5], [-(2**100)]):
            self.assert_composes(ints, 3, 2, 7)
            assert taylor_shift(ints, 3, 2, 7) == (ints, 1)


class TestInterval:
    def test_invalid_order(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_hull(self):
        h = Interval.hull([Interval(0, 1), Interval(0.5, 2)])
        assert h.lo == 0 and h.hi == 2

    def test_sum_holds_the_exact_sum(self):
        rng = random.Random(53)
        pairs = [(0.1, 0.2), (1e16, 1.0)] + [
            (rng.uniform(-20.0, 20.0), rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 5))
            for _ in range(1000)
        ]
        for x, y in pairs:
            iv = Interval.point(x) + Interval.point(y)
            assert Fr(iv.lo) < Fr(x) + Fr(y) < Fr(iv.hi)
