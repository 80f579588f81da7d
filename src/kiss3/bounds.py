"""The cap-analysis bound pipeline: mu <= 4, the profile maxima F1 and F2,
the case analysis giving h_0 ... h_4 with every value strictly below 13, and
the final theorem chain n^2 <= S(X) < 13 n  =>  n <= 12.

Direction of rigor: wherever the cap radius theta0 enters a feasible set or a
monotone argument, the enclosure endpoint that ENLARGES the feasible set (or
lowers the argument of a decreasing profile) is used, so every computed
maximum is a valid upper bound.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from . import sphere
from .certificate import Certificate, verify_expansion
from .errors import BoundFailure, DomainError
from .polynomial import Interval, RationalPoly, _outward, convolve, max_on_interval, taylor_shift

DEG = math.pi / 180.0

#: Circumradius of the unit-edge regular spherical triangle, arccos(sqrt(2/3)).
R0 = math.acos(math.sqrt(2.0 / 3.0))

#: The two-case split point for the short rhombus diagonal (degrees).
RHOMBUS_SPLIT_DEG = 77.0


@dataclass(frozen=True)
class ProfilePoly:
    """A two-term profile f(-cos .) + f(-cos .) reduced to a univariate
    polynomial in a cosine substitution variable s, with its s-domain."""

    poly: RationalPoly
    domain: Interval


@dataclass
class BoundTable:
    mu: int
    h: list[Interval]  # h_0 ... h_4 upper enclosures
    h_max: Interval
    f1_values: dict[float, Interval]  # psi deg -> enclosure
    f2_values: dict[float, Interval]
    psi_grid: list[float]  # radians
    w: list[Interval]
    h4_case_bounds: tuple[Interval, Interval]
    mu_angle_deg: float
    verdict: bool


@dataclass(frozen=True)
class TheoremReport:
    expansion_ok: bool
    witness_size: int
    witness_min_sep: float  # radians
    witness_energy: Fraction
    conclusion: int | None


def _symmetric_pair_poly(
    f: RationalPoly, base: RationalPoly, r2: Fraction
) -> RationalPoly:
    """f(p + v) + f(p - v) as a polynomial in s, where p = base(s) and
    v^2 = r2 * (1 - s^2).  Odd powers of v cancel, so only v^2 appears.

    Built in integers from one Taylor shift of f: with f = a / da,
    base = (b0 + q) / db, q(0) = 0, r2 = nw / dw, N = deg f and K = N // 2,
    `taylor_shift` to (b0 + y) / db gives
    g(y) = sum_j a_j db^(N-j) (b0 + y)^j.  The sum is sum_m db^2m dw^(K-m)
    X^m S_2m over da db^N dw^K, X = nw (1 - s^2), S_i = 2 sum_k C(k, i) g_k
    q^(k-i), joined by a Horner pass in X.  Each q^m = s^(e m) r^m is kept
    sparse, one monomial for a linear base.  The weights shift by their
    powers of two less the one all share, which the denominator leaves out.
    """
    b, db = base.ints or (0,), base.den
    nw, dw = r2.numerator, r2.denominator
    n = max(f.degree, 0)
    half = n // 2
    g, _ = taylor_shift(f.ints or (0,), b[0], 1, db)  # g(y), lowest power first
    e = next((k for k, v in enumerate(b) if k and v), 0)  # q = s^e r, or e = 0 for q = 0
    r_pow = list(itertools.accumulate([b[e:] if e else []] * n, convolve, initial=[1]))  # r^m
    zb, zw = (db & -db).bit_length() - 1, (dw & -dw).bit_length() - 1
    z0 = half * min(zw, 2 * zb)  # the power of two every weight db^2m dw^(K-m) holds
    out = [0] * (n * max(len(b) - 1, 1) + 1)
    for i in reversed(range(0, len(g), 2)):
        out = [nw * (x - y) for x, y in zip(out, [0, 0] + out)]  # out X, whose degree fits
        m = half - i // 2
        w = (db >> zb) ** i * (dw >> zw) ** m << zb * i + zw * m - z0 + 1  # + 1: S_i's 2
        for k in range(i, len(g)):
            if g[k]:
                c = w * g[k] * math.comb(k, i)
                for j, v in enumerate(r_pow[k - i], e * (k - i)):
                    out[j] += c * v
    return RationalPoly.from_integers(out, f.den * db**n * dw**half >> z0)


def build_omega(c: Certificate, psi: float) -> ProfilePoly:
    """The pair profile f(-cos theta) + f(-cos(psi - theta)) as a degree-9
    polynomial in s = cos(theta - psi/2), on [cos(theta0 - psi/2), 1].

    With a = theta - psi/2: -cos(psi/2 + a) = -cos(psi/2) s + sin(psi/2) sin a,
    and the mirror term flips the sign of the sin a part, so the sum is even
    in sin a and polynomial in s.
    """
    lo = 60.0 * DEG - 1e-12
    hi = 2.0 * c.theta0.hi + 1e-12
    if not lo <= psi <= hi:
        raise DomainError(f"build_omega: psi = {psi} outside [60deg, 2*theta0]")
    ch, dh = math.cos(psi / 2.0).as_integer_ratio()
    sh, ds = math.sin(psi / 2.0).as_integer_ratio()
    base = RationalPoly.from_integers([0, -ch], dh)
    poly = _symmetric_pair_poly(c.f, base, Fraction(sh * sh, ds * ds))
    s_lo = math.nextafter(math.cos(c.theta0.hi - psi / 2.0), -math.inf)
    return ProfilePoly(poly=poly, domain=Interval(min(s_lo, 1.0), 1.0))


def F1(c: Certificate, psi: float) -> Interval:
    """Enclosure of the maximum pair profile at separation psi over the cap,
    from Bernstein coefficients: for each profile of the bound table the
    largest is an end one, so the enclosure is that exact end value."""
    omega = build_omega(c, psi)
    return max_on_interval(omega.poly, omega.domain.lo, omega.domain.hi)


def build_triangle_profile(c: Certificate, psi: float) -> ProfilePoly:
    """For the unit-edge regular triangle with farthest vertex at colatitude
    psi: the profile f(-cos theta1) + f(-cos theta2) as a polynomial in
    s = cos u, u the azimuthal offset of the pole from the circumcenter
    direction, on [cos(u0), 1] with u0 = arccos(cot(psi)/sqrt(3)) - R0.
    """
    lo = R0 - 1e-9
    hi = c.theta0.hi + 1e-12
    if not lo <= psi <= hi:
        raise DomainError(f"triangle profile: psi = {psi} outside [R0, theta0]")
    # cos theta_{1,2} = a + b cos(R0 -+ u) = a + b cos R0 s +- b sin R0 sin u
    an, ad = (math.cos(psi) / 2.0).as_integer_ratio()
    bn, bd = (math.sin(60.0 * DEG) * math.sin(psi)).as_integer_ratio()
    (crn, crd), (srn, srd) = math.cos(R0).as_integer_ratio(), math.sin(R0).as_integer_ratio()
    base = RationalPoly.from_integers([-an * bd * crd, -bn * crn * ad], ad * bd * crd)
    poly = _symmetric_pair_poly(c.f, base, Fraction((bn * srn) ** 2, (bd * srd) ** 2))
    cot = math.cos(psi) / math.sin(psi)
    u0 = max(math.acos(min(cot / math.sqrt(3.0), 1.0)) - R0, 0.0)
    s_lo = math.nextafter(math.cos(u0), -math.inf)
    return ProfilePoly(poly=poly, domain=Interval(min(s_lo, 1.0), 1.0))


def F2(c: Certificate, psi: float) -> Interval:
    """Enclosure of the two-near-vertex maximum for the regular triangle with
    circumdistance parameter psi, from Bernstein coefficients as in `F1`."""
    prof = build_triangle_profile(c, psi)
    return max_on_interval(prof.poly, prof.domain.lo, prof.domain.hi)


def mu_angle(c: Certificate) -> float:
    """Lower bound (degrees) on the azimuthal separation of two cap points:
    arccos((1/2 - t0^2) / (1 - t0^2)) at the conservative t0 endpoint."""
    t = c.t0.lo  # smaller t0 gives the smaller (conservative) angle
    return math.degrees(math.acos((0.5 - t * t) / (1.0 - t * t)))


def mu_upper_bound(angle: float) -> int:
    """At most 4 points fit in the cap: their azimuths are pairwise more than
    `angle` degrees apart (`mu_angle`), and that is more than 72."""
    if angle <= 72.0:
        raise BoundFailure(f"azimuth separation bound {angle} deg is not > 72 deg")
    return int(360.0 // angle)


def psi_grid(c: Certificate) -> list[float]:
    """The colatitude grid {R0, 38, 41, 44, 48, theta0} (radians), with the
    top endpoint taken from the conservative end of the theta0 enclosure."""
    return [R0, 38.0 * DEG, 41.0 * DEG, 44.0 * DEG, 48.0 * DEG, c.theta0.hi]


def compute_bound_table(c: Certificate) -> BoundTable:
    """Assemble mu and the h_0 ... h_4 enclosures; verdict is true iff every
    upper endpoint is strictly below 13.

    F1 and F2 are evaluated once per distinct psi: F1(60deg), then F2 over
    the grid, then F1 at the rhombus diagonals.  From those, h_0 = f(1),
    h_1 = f(1) + f(-1) and h_2 = f(1) + F1(60deg); h_3 is the hull of the
    w_i = f(1) + F2(psi_{i+1}) + f(-cos psi_i); h_4 is the hull of the two
    cases of the split on the short rhombus diagonal d1, each plus f(1):
    F1(rho(2 theta0)) + F1(rho(split)) below it, F1(split) + F1(90deg)
    above.  The first w_i, then h_4 case, to reach 13 raises `BoundFailure`.
    Every enclosure holds its exact value: f(1), f(-1), each tail
    f(-cos psi_i) at its float argument and each F1/F2 maximum are exact
    values rounded outward, and each sum rounds its ends outward.
    """
    angle = mu_angle(c)
    mu = mu_upper_bound(angle)
    f_at_m1, f_at_1 = c.f_ends
    grid = psi_grid(c)
    split = RHOMBUS_SPLIT_DEG * DEG
    rhombus = (sphere.rho(2.0 * c.theta0.hi), sphere.rho(split), split, 90.0 * DEG)
    f1 = {60.0 * DEG: F1(c, 60.0 * DEG)}  # psi (radians) -> enclosure
    f2 = {psi: F2(c, psi) for psi in grid[1:]}
    for psi in rhombus:
        if psi not in f1:
            f1[psi] = F1(c, psi)

    h0 = _outward(f_at_1, f_at_1)
    h1 = _outward(f_at_1 + f_at_m1, f_at_1 + f_at_m1)
    h2 = f1[60.0 * DEG] + h0
    ws = []
    for i in range(5):
        tail = c.f.eval(-math.cos(grid[i]))
        w = f2[grid[i + 1]] + h0 + _outward(tail, tail)
        if w.hi >= 13.0:
            raise BoundFailure(f"w_{i + 1} bound {w.hi} reaches 13")
        ws.append(w)
    cases = (
        f1[rhombus[0]] + f1[rhombus[1]] + h0,
        f1[split] + f1[90.0 * DEG] + h0,
    )
    for label, case in zip(("case 1", "case 2"), cases):
        if case.hi >= 13.0:
            raise BoundFailure(f"h4 {label} bound {case.hi} reaches 13")
    hs = [h0, h1, h2, Interval.hull(ws), Interval.hull(cases)]
    return BoundTable(
        mu=mu,
        h=hs,
        h_max=Interval.hull(hs),
        f1_values={round(math.degrees(psi), 6): iv for psi, iv in f1.items()},
        f2_values={round(math.degrees(psi), 6): iv for psi, iv in f2.items()},
        psi_grid=grid,
        w=ws,
        h4_case_bounds=cases,
        mu_angle_deg=angle,
        verdict=all(h.hi < 13.0 for h in hs),
    )


@cache
def icosahedron_pair_classes() -> MappingProxyType[Fraction, int]:
    """The ordered pairs of `sphere.icosahedron`'s 12 vertices, each with
    itself included, counted by their exact squared cosine c^2: 24 at 1 (a
    vertex with itself or its antipode) and 120 at 1/5.  The vertices are
    `sphere.icosahedron_vertices`, a + b tau held as (a, b), with
    tau^2 = tau + 1.  Every norm is tau + 2, whose square is 5 + 5 tau, so
    c^2 = x / 5 where (u.v)^2 = x + x tau: one `Fraction` per class."""

    def mul(p, q):
        (a, b), (c, d) = p, q
        return a * c + b * d, a * d + b * c + b * d

    def dot(u, v):
        return tuple(map(sum, zip(*map(mul, u, v))))

    vs = sphere.icosahedron_vertices((0, 0), ((1, 0), (-1, 0)), ((0, 1), (0, -1)))
    (norm,) = {dot(u, u) for u in vs}  # tau + 2 for every vertex
    p, q = mul(norm, norm)
    squares = Counter(mul(dot(u, v), dot(u, v)) for u in vs for v in vs)
    if any(x * q != y * p for x, y in squares):
        raise DomainError("an icosahedron pair has an irrational squared cosine")
    return MappingProxyType({Fraction(x, p): count for (x, _), count in squares.items()})


def verify_theorem(c: Certificate, table: BoundTable) -> TheoremReport:
    """The full chain: nonnegative Legendre expansion (lower side n^2), the
    bound table (upper side 13n), the arithmetic n^2 < 13n => n <= 12, and
    the icosahedron as the 12-point witness, exactly: 2n of its n^2 pairs at
    c^2 = 1 make it antipodal, so S = sum f(c) = sum E(c^2), E the even part
    of f in x^2; c^2 <= 1/4 elsewhere puts its vertices 60 degrees apart.

    `table` is the bound table of `c`, from `compute_bound_table`; it is
    used as given, not recomputed or checked against `c`."""
    expansion_ok = verify_expansion(c)
    classes = icosahedron_pair_classes()
    n = math.isqrt(sum(classes.values()))
    even = RationalPoly.from_integers(c.f.ints[0::2], c.f.den)
    S = sum(count * even.eval(c2) for c2, count in classes.items())
    nearest = max(c2 for c2 in classes if c2 != 1)  # c^2 of the largest cosine
    witness_ok = n == 12 and classes.get(1) == 2 * n and nearest <= Fraction(1, 4)
    witness_ok = witness_ok and 144 <= S < 156
    conclusion = 12 if (expansion_ok and table.verdict and witness_ok) else None
    return TheoremReport(
        expansion_ok=expansion_ok,
        witness_size=n,
        witness_min_sep=math.acos(math.sqrt(nearest)),
        witness_energy=S,
        conclusion=conclusion,
    )


# -- non-rigorous refined estimates (informative only) -----------------------


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on the first call.  Nothing in
    kiss3 calls it: it is kept only because the benchmark's tracer
    (`bench/tracer.py`) hooks it by name."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def refine_h34(c: Certificate) -> tuple[float, float]:
    """Non-rigorous estimates of the true suprema h_3 and h_4 over the
    extremal configuration spaces: the regular triangle (psi, u) and the
    unit-edge rhombus (d1, pole colatitude te, pole azimuth pe).  Each value
    is the score of one configuration, so it is a lower value for the
    supremum, not a bound; it is reported beside the rigorous enclosures and
    feeds no verdict.

    Both are closed forms, on math floats.  The triangle profile peaks at a
    corner of its space: the farthest vertex on the cap circle, psi =
    theta0, and the pole on the circumcenter direction, u = 0, where both
    near vertices have cosine cos_law(60 deg, theta0, R0).

    The rhombus optimum lies on the cap constraint: the rhombus with three
    vertices on the cap circle, symmetric about the plane of its short
    diagonal, d1 = pi - 2 theta0, te = 2 theta0 - pi/2, pe = 0; the pole
    is at (sin te, 0, cos te) in the frame of the rhombus.  Vertex 3 is
    then at d1/2 + te = theta0.  Vertices 2 and 4 have one cosine,
    cos(d2/2) cos te = sin(2 theta0) / (2 sin theta0) = cos theta0, since
    the unit edge gives cos(d1/2) cos(d2/2) = 1/2.  Vertex 1 is inside the
    cap, at |3 theta0 - pi|, so the score is f(1) + f(cos 3 theta0)
    + 3 f(-t0).

    The tests score both spaces on whole grids, with their own objective,
    and check that no feasible cell beats either closed form."""
    theta0 = c.theta0.mid
    f, f_at_1 = c.f, c.f_at_1
    near = f.eval_real(-sphere.cos_law(60.0 * DEG, theta0, R0))
    h3 = f_at_1 + near + near + f.eval_real(-math.cos(theta0))
    d1, te = math.pi - 2.0 * theta0, 2.0 * theta0 - math.pi / 2.0
    s1, c1 = math.sin(d1 / 2.0), math.cos(d1 / 2.0)
    c2 = math.cos(sphere.rho(d1) / 2.0)
    ex, ez = math.sin(te), math.cos(te)
    first, third, side = s1 * ex + c1 * ez, c1 * ez - s1 * ex, f.eval_real(-(c2 * ez))
    h4 = f_at_1 + (f.eval_real(-first) + side + f.eval_real(-third) + side)
    return h3, h4


# -- export ------------------------------------------------------------------


def _pair(iv: Interval) -> list[float]:
    return [iv.lo, iv.hi]


def table_to_json_dict(table: BoundTable) -> dict:
    return {
        "mu": table.mu,
        "mu_angle_deg": table.mu_angle_deg,
        "h0": _pair(table.h[0]),
        "h1": _pair(table.h[1]),
        "h2": _pair(table.h[2]),
        "h3": _pair(table.h[3]),
        "h4": _pair(table.h[4]),
        "h_max": _pair(table.h_max),
        "h4_cases": [_pair(iv) for iv in table.h4_case_bounds],
        "f1": {f"{k:.6f}": _pair(v) for k, v in sorted(table.f1_values.items())},
        "f2": {f"{k:.6f}": _pair(v) for k, v in sorted(table.f2_values.items())},
        "psi_grid_deg": [math.degrees(p) for p in table.psi_grid],
        "w": [_pair(iv) for iv in table.w],
        "unit": "degrees",
        "verdict": table.verdict,
    }
