"""The cap-analysis bound pipeline: mu <= 4, the profile maxima F1 and F2,
the case analysis giving h_0 ... h_4 with every value strictly below 13, and
the final theorem chain n^2 <= S(X) < 13 n  =>  n <= 12.

Direction of rigor: wherever the cap radius theta0 enters a feasible set or a
monotone argument, the enclosure endpoint that ENLARGES the feasible set (or
lowers the argument of a decreasing profile) is used, so every computed
maximum is a valid upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from . import sphere
from .certificate import Certificate
from .energy import energy
from .errors import BoundFailure, DomainError
from .polynomial import Interval, RationalPoly, max_on_interval

DEG = math.pi / 180.0

#: Circumradius of the unit-edge regular spherical triangle, arccos(sqrt(2/3)).
R0 = math.acos(math.sqrt(2.0 / 3.0))

#: The two-case split point for the short rhombus diagonal (degrees).
RHOMBUS_SPLIT_DEG = 77.0

#: The colatitude grid for the m = 3 analysis, in radians; the last entry is
#: replaced by the certificate's theta0 upper endpoint at run time.
PSI_GRID_DEG = (None, 38.0, 41.0, 44.0, 48.0, None)  # R0, ..., theta0


@dataclass(frozen=True)
class ProfilePoly:
    """A two-term profile f(-cos .) + f(-cos .) reduced to a univariate
    polynomial in a cosine substitution variable s, with its s-domain."""

    psi: float
    poly: RationalPoly
    domain: Interval

    def eval(self, s: float) -> float:
        return self.poly.eval_real(s)


@dataclass
class BoundTable:
    mu: int
    h: list[Interval]  # h_0 ... h_4 upper enclosures
    h_max: Interval
    f1_values: dict[float, Interval] = field(default_factory=dict)  # psi deg -> enclosure
    f2_values: dict[float, Interval] = field(default_factory=dict)
    psi_grid: list[float] = field(default_factory=list)  # radians
    w: list[Interval] = field(default_factory=list)
    h4_case_bounds: tuple[Interval, Interval] | None = None
    mu_angle_deg: float = 0.0
    verdict: bool = False


@dataclass(frozen=True)
class TheoremReport:
    expansion_ok: bool
    table: BoundTable
    witness_size: int
    witness_min_sep: float  # radians
    witness_energy: float
    conclusion: int | None

    @property
    def ok(self) -> bool:
        return self.conclusion == 12


def _symmetric_pair_poly(
    f: RationalPoly, base: RationalPoly, r2: Fraction
) -> RationalPoly:
    """f(p + v) + f(p - v) as a polynomial in s, where p = base(s) and
    v^2 = r2 * (1 - s^2).  Odd powers of v cancel, so only v^2 appears.
    """
    w = RationalPoly([r2, 0, -r2])  # r2 * (1 - s^2)
    max_deg = f.degree
    base_pow = [RationalPoly([1])]
    w_pow = [RationalPoly([1])]
    for _ in range(max_deg):
        base_pow.append(base_pow[-1] * base)
    for _ in range(max_deg // 2):
        w_pow.append(w_pow[-1] * w)
    # (p+v)^j + (p-v)^j = 2 sum_{i even} C(j,i) p^{j-i} v^i
    out = RationalPoly([])
    for j, aj in enumerate(f.coeffs):
        if aj == 0:
            continue
        for i in range(0, j + 1, 2):
            out = out + base_pow[j - i] * w_pow[i // 2] * (2 * aj * math.comb(j, i))
    return out


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
    ch = Fraction(math.cos(psi / 2.0))
    sh = Fraction(math.sin(psi / 2.0))
    poly = _symmetric_pair_poly(c.f, RationalPoly([0, -ch]), sh * sh)
    s_lo = math.nextafter(math.cos(c.theta0.hi - psi / 2.0), -math.inf)
    return ProfilePoly(psi=psi, poly=poly, domain=Interval(min(s_lo, 1.0), 1.0))


def F1(c: Certificate, psi: float, tol: float = 1e-7) -> Interval:
    """Enclosure of the maximum pair profile at separation psi over the cap."""
    omega = build_omega(c, psi)
    return max_on_interval(omega.poly, omega.domain.lo, omega.domain.hi, tol)


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
    # cos theta_{1,2} = cos60 cos psi + sin60 sin psi cos(R0 -+ u)
    a = Fraction(math.cos(psi) / 2.0)
    b = Fraction(math.sin(60.0 * DEG) * math.sin(psi))
    cr, sr = Fraction(math.cos(R0)), Fraction(math.sin(R0))
    base = RationalPoly([-a, -b * cr])  # -(a + b cos R0 s)
    poly = _symmetric_pair_poly(c.f, base, b * b * sr * sr)
    cot = math.cos(psi) / math.sin(psi)
    u0 = max(math.acos(min(cot / math.sqrt(3.0), 1.0)) - R0, 0.0)
    s_lo = math.nextafter(math.cos(u0), -math.inf)
    return ProfilePoly(psi=psi, poly=poly, domain=Interval(min(s_lo, 1.0), 1.0))


def F2(c: Certificate, psi: float, tol: float = 1e-7) -> Interval:
    """Enclosure of the two-near-vertex maximum for the regular triangle with
    circumdistance parameter psi."""
    prof = build_triangle_profile(c, psi)
    return max_on_interval(prof.poly, prof.domain.lo, prof.domain.hi, tol)


class ProfileMaxima:
    """The evaluation map (profile, psi) -> enclosure for one certificate and
    tolerance.  Each F1 or F2 value is computed on its first use and read
    back after that, so a table that needs a value twice evaluates it once.
    """

    def __init__(self, c: Certificate, tol: float):
        self.c = c
        self.tol = tol
        self._f1: dict[float, Interval] = {}  # psi (radians) -> enclosure
        self._f2: dict[float, Interval] = {}

    def F1(self, psi: float) -> Interval:
        if psi not in self._f1:
            self._f1[psi] = F1(self.c, psi, self.tol)
        return self._f1[psi]

    def F2(self, psi: float) -> Interval:
        if psi not in self._f2:
            self._f2[psi] = F2(self.c, psi, self.tol)
        return self._f2[psi]


def mu_angle(c: Certificate) -> float:
    """Lower bound (degrees) on the azimuthal separation of two cap points:
    arccos((1/2 - t0^2) / (1 - t0^2)) at the conservative t0 endpoint."""
    t = c.t0.lo  # smaller t0 gives the smaller (conservative) angle
    return math.degrees(math.acos((0.5 - t * t) / (1.0 - t * t)))


def mu_upper_bound(c: Certificate) -> int:
    """At most 4 points fit in the cap: their azimuths are pairwise more than
    72 degrees apart."""
    angle = mu_angle(c)
    if angle <= 72.0:
        raise BoundFailure(f"azimuth separation bound {angle} deg is not > 72 deg")
    return int(360.0 // angle)


def h_small(
    c: Certificate, tol: float = 1e-7, maxima: ProfileMaxima | None = None
) -> tuple[Interval, Interval, Interval]:
    """h_0 = f(1) and h_1 = f(1) + f(-1), exact; h_2 = f(1) + F1(60deg).

    Here and in `h4_cases`, `h4_bound` and `h3_bound`, a given `maxima`
    supplies the profile enclosures (and its own tolerance); without one
    they are evaluated afresh at `tol`."""
    maxima = maxima or ProfileMaxima(c, tol)
    f1 = float(c.f.eval(1))
    h0 = Interval.point(f1)
    h1 = Interval.point(float(c.f.eval(1) + c.f.eval(-1)))
    h2 = maxima.F1(60.0 * DEG).shift(f1)
    return h0, h1, h2


def h4_cases(
    c: Certificate, tol: float = 1e-7, maxima: ProfileMaxima | None = None
) -> tuple[Interval, Interval]:
    """The two case bounds for h_4 from the split on the short rhombus
    diagonal d1: below the split F1(rho(2 theta0)) + F1(rho(split)) applies,
    above it F1(split) + F1(90deg)."""
    maxima = maxima or ProfileMaxima(c, tol)
    f1_at_1 = float(c.f.eval(1))
    split = RHOMBUS_SPLIT_DEG * DEG
    case1 = (
        maxima.F1(sphere.rho(2.0 * c.theta0.hi)) + maxima.F1(sphere.rho(split))
    ).shift(f1_at_1)
    case2 = (maxima.F1(split) + maxima.F1(90.0 * DEG)).shift(f1_at_1)
    return case1, case2


def h4_bound(
    c: Certificate, tol: float = 1e-7, maxima: ProfileMaxima | None = None
) -> Interval:
    """Upper enclosure of h_4; both case bounds must stay under 13."""
    case1, case2 = h4_cases(c, tol, maxima)
    for label, case in (("case 1", case1), ("case 2", case2)):
        if case.hi >= 13.0:
            raise BoundFailure(f"h4 {label} bound {case.hi} reaches 13")
    return Interval.hull([case1, case2])


def psi_grid(c: Certificate) -> list[float]:
    """The colatitude grid {R0, 38, 41, 44, 48, theta0} (radians), with the
    top endpoint taken from the conservative end of the theta0 enclosure."""
    return [R0 if x is None else x * DEG for x in PSI_GRID_DEG[:-1]] + [c.theta0.hi]


def h3_bound(
    c: Certificate, tol: float = 1e-7, maxima: ProfileMaxima | None = None
) -> tuple[list[Interval], Interval]:
    """The five piecewise bounds w_i = f(1) + F2(psi_{i+1}) + f(-cos psi_i)
    over the grid, and their maximum as the h_3 upper enclosure."""
    maxima = maxima or ProfileMaxima(c, tol)
    grid = psi_grid(c)
    f1_at_1 = float(c.f.eval(1))
    ws = []
    for i in range(5):
        tail = c.f.eval_real(-math.cos(grid[i]))
        w = maxima.F2(grid[i + 1]).shift(f1_at_1 + tail)
        # pad for the floating tail evaluation
        w = Interval(w.lo - 1e-11, w.hi + 1e-11)
        if w.hi >= 13.0:
            raise BoundFailure(f"w_{i + 1} bound {w.hi} reaches 13")
        ws.append(w)
    return ws, Interval.hull(ws)


def compute_bound_table(c: Certificate, tol: float = 1e-7) -> BoundTable:
    """Assemble mu and the h_0 ... h_4 enclosures; verdict is true iff every
    upper endpoint is strictly below 13.  F1 and F2 are evaluated once per
    distinct psi (five each) and every entry reads those enclosures."""
    mu = mu_upper_bound(c)
    maxima = ProfileMaxima(c, tol)
    h0, h1, h2 = h_small(c, tol, maxima)
    ws, h3 = h3_bound(c, tol, maxima)
    cases = h4_cases(c, tol, maxima)
    h4 = h4_bound(c, tol, maxima)
    hs = [h0, h1, h2, h3, h4]
    table = BoundTable(
        mu=mu,
        h=hs,
        h_max=Interval.hull(hs),
        psi_grid=psi_grid(c),
        w=ws,
        h4_case_bounds=cases,
        mu_angle_deg=mu_angle(c),
        verdict=all(h.hi < 13.0 for h in hs),
    )
    split = RHOMBUS_SPLIT_DEG * DEG
    for psi in (
        60.0 * DEG,
        sphere.rho(2.0 * c.theta0.hi),
        sphere.rho(split),
        split,
        90.0 * DEG,
    ):
        table.f1_values[round(math.degrees(psi), 6)] = maxima.F1(psi)
    for psi in table.psi_grid[1:]:
        table.f2_values[round(math.degrees(psi), 6)] = maxima.F2(psi)
    return table


def verify_theorem(
    c: Certificate, tol: float = 1e-7, table: BoundTable | None = None
) -> TheoremReport:
    """The full chain: nonnegative Legendre expansion (lower side n^2), the
    bound table (upper side 13n), the arithmetic n^2 < 13n => n <= 12, and
    the icosahedron as the 12-point witness.

    `table` is the bound table of `c` when the caller already holds it, for
    example from `compute_bound_table(c, tol)`; it is used as given, not
    recomputed or checked against `c`.  Without one, the table is computed
    here at `tol`."""
    from .certificate import verify_expansion

    expansion_ok = verify_expansion(c)
    if table is None:
        table = compute_bound_table(c, tol)
    ico = sphere.icosahedron()
    witness_sep = sphere.min_separation(ico)
    summary = energy(ico, c)
    witness_ok = (
        len(ico) == 12
        and witness_sep >= 60.0 * DEG - 1e-9
        and summary.S >= 144.0 * (1.0 - 1e-9)
        and summary.S < 156.0
    )
    conclusion = 12 if (expansion_ok and table.verdict and witness_ok) else None
    return TheoremReport(
        expansion_ok=expansion_ok,
        table=table,
        witness_size=len(ico),
        witness_min_sep=witness_sep,
        witness_energy=summary.S,
        conclusion=conclusion,
    )


# -- non-rigorous refined estimates (informative only) -----------------------


def _triangle_score(c: Certificate, f_at_1: float, psi: float, u: float) -> float:
    """The triangle profile at (psi, u) plus f_at_1 = float(f(1))."""
    c1 = sphere.cos_law(60.0 * DEG, psi, R0 - u)
    c2 = sphere.cos_law(60.0 * DEG, psi, R0 + u)
    f = c.f
    return (
        f_at_1
        + f.eval_real(-c1)
        + f.eval_real(-c2)
        + f.eval_real(-math.cos(psi))
    )


def _rhombus_cosines(d1: float, te: float, pe: float) -> np.ndarray:
    """Cosines of the pole distances to the four vertices of the unit-edge
    rhombus with diagonals d1 and rho(d1), pole at colatitude te / azimuth pe
    relative to the rhombus center."""
    d1 = min(max(d1, 1e-9), 2.0 * math.pi / 3.0 - 1e-9)
    d2 = sphere.rho(d1)
    s1, c1 = math.sin(d1 / 2.0), math.cos(d1 / 2.0)
    s2, c2 = math.sin(d2 / 2.0), math.cos(d2 / 2.0)
    verts = np.array([[s1, 0, c1], [0, s2, c2], [-s1, 0, c1], [0, -s2, c2]])
    e0 = np.array(
        [math.sin(te) * math.cos(pe), math.sin(te) * math.sin(pe), math.cos(te)]
    )
    return np.clip(verts @ e0, -1.0, 1.0)


def _rhombus_score(c: Certificate, f_at_1: float, cos_th: np.ndarray) -> float:
    """The rhombus profile at the vertex cosines `_rhombus_cosines` gives,
    plus f_at_1 = float(f(1))."""
    f = c.f
    return f_at_1 + sum(f.eval_real(-x) for x in cos_th)


def refine_h34(c: Certificate, grid_density: int = 256) -> tuple[Interval, Interval]:
    """Non-rigorous point estimates of the true suprema h_3 and h_4 by direct
    maximization over the extremal configuration spaces (regular triangle and
    unit-edge rhombus).  Reported separately from the rigorous enclosures."""
    if grid_density < 64:
        raise ValueError("grid_density must be >= 64")
    theta0 = c.theta0.mid
    f_at_1 = float(c.f.eval(1))
    # m = 3: parameters (psi, u)
    n_psi = max(int(math.sqrt(grid_density)) * 2, 16)

    def neg3(x):
        psi, u = x
        if not R0 <= psi <= theta0:
            return 1e6
        cot = math.cos(psi) / max(math.sin(psi), 1e-12)
        u0 = max(math.acos(min(cot / math.sqrt(3.0), 1.0)) - R0, 0.0)
        if not 0.0 <= u <= u0:
            return 1e6
        return -_triangle_score(c, f_at_1, psi, u)

    best3 = -math.inf
    for psi in np.linspace(R0 + 1e-9, theta0 - 1e-9, n_psi):
        for u in np.linspace(0.0, 0.3, 8):
            res = minimize(neg3, [psi, u], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
            if -res.fun > best3:
                best3 = -res.fun

    # m = 4: parameters (d1, pole colatitude, pole azimuth); the cap
    # constraint is active at the optimum, so use an SLSQP polish instead of
    # penalty walls
    d1_lo = sphere.rho(2.0 * theta0)
    # SLSQP evaluates the objective and the constraint at the same points;
    # both read the vertex cosines from here, keyed by the bits of x
    cosines_at: dict[bytes, np.ndarray] = {}

    def cosines(x):
        key = np.asarray(x, dtype=float).tobytes()
        if key not in cosines_at:
            cosines_at[key] = _rhombus_cosines(*x)
        return cosines_at[key]

    def neg4(x):
        return -_rhombus_score(c, f_at_1, cosines(x))

    def cap_slack(x):
        return theta0 - np.arccos(cosines(x))

    best4 = -math.inf
    n_d1 = max(grid_density // 24, 10)
    for d1 in np.linspace(d1_lo, math.pi / 2.0, n_d1):
        for te in np.linspace(0.0, 0.4, 6):
            for pe in np.linspace(0.0, math.pi / 2.0, 5):
                cosines_at.clear()
                res = minimize(
                    neg4,
                    [d1, te, pe],
                    method="SLSQP",
                    bounds=[(d1_lo, math.pi / 2.0), (0.0, theta0), (0.0, math.pi)],
                    constraints=[{"type": "ineq", "fun": cap_slack}],
                    options={"maxiter": 200, "ftol": 1e-14},
                )
                if not np.all(cap_slack(res.x) >= -1e-9):
                    continue
                if -res.fun > best4:
                    best4 = -res.fun
    return Interval.point(best3), Interval.point(best4)


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
        "h4_cases": [_pair(iv) for iv in table.h4_case_bounds]
        if table.h4_case_bounds
        else None,
        "f1": {f"{k:.6f}": _pair(v) for k, v in sorted(table.f1_values.items())},
        "f2": {f"{k:.6f}": _pair(v) for k, v in sorted(table.f2_values.items())},
        "psi_grid_deg": [math.degrees(p) for p in table.psi_grid],
        "w": [_pair(iv) for iv in table.w],
        "unit": "degrees",
        "verdict": table.verdict,
    }


def table_to_text(table: BoundTable) -> str:
    rows = [
        ("mu", f"{table.mu}", ""),
        ("mu-angle (deg)", f"{table.mu_angle_deg:.4f}", "> 72"),
    ]
    for m in range(5):
        iv = table.h[m]
        rows.append((f"h{m}", f"[{iv.lo:.7f}, {iv.hi:.7f}]", f"{13.0 - iv.hi:+.4f}"))
    for i, iv in enumerate(table.w, start=1):
        rows.append((f"w{i}", f"[{iv.lo:.7f}, {iv.hi:.7f}]", f"{13.0 - iv.hi:+.4f}"))
    rows.append(
        (
            "h_max",
            f"[{table.h_max.lo:.7f}, {table.h_max.hi:.7f}]",
            f"{13.0 - table.h_max.hi:+.4f}",
        )
    )
    rows.append(("verdict (< 13)", "PASS" if table.verdict else "FAIL", ""))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    header = f"{'quantity':<{widths[0]}}  {'value':<{widths[1]}}  margin to 13"
    lines = [header, "-" * len(header)]
    for name, val, margin in rows:
        lines.append(f"{name:<{widths[0]}}  {val:<{widths[1]}}  {margin}")
    return "\n".join(lines)


def profiles_csv(c: Certificate, n: int = 64, tol: float = 1e-6) -> str:
    """CSV dump of F1 and F2 over n-point grids of their domains."""
    lines = ["profile,psi_deg,lo,hi"]
    for psi in np.linspace(60.0 * DEG, 2.0 * c.theta0.lo, n):
        iv = F1(c, float(psi), tol)
        lines.append(f"F1,{math.degrees(psi):.6f},{iv.lo!r},{iv.hi!r}")
    for psi in np.linspace(R0 + 1e-9, c.theta0.lo, n):
        iv = F2(c, float(psi), tol)
        lines.append(f"F2,{math.degrees(psi):.6f},{iv.lo!r},{iv.hi!r}")
    return "\n".join(lines) + "\n"
