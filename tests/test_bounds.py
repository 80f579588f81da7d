import collections
import dataclasses
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from kiss3 import bounds, harness, polynomial, sphere
from kiss3.bounds import (
    DEG,
    R0,
    F1,
    F2,
    _rhombus_cosines,
    _rhombus_score,
    _triangle_score,
    build_omega,
    build_triangle_profile,
    compute_bound_table,
    icosahedron_pair_classes,
    mu_angle,
    mu_upper_bound,
    psi_grid,
    refine_h34,
    table_to_json_dict,
    verify_theorem,
)
from kiss3.certificate import build_certificate
from kiss3.energy import energy
from kiss3.errors import BoundFailure, DomainError
from kiss3.polynomial import Interval, _outward, max_on_interval


class TestMu:
    def test_angle(self, cert):
        assert abs(mu_angle(cert) - 76.582) < 1e-3

    def test_bound_is_four(self, cert):
        assert mu_upper_bound(cert) == 4

    def test_failure_for_shallow_cap(self, cert):
        # with t0 = cos 60deg = 1/2 the azimuth bound drops to about 70.5deg
        t = 0.5
        angle = math.degrees(math.acos((0.5 - t * t) / (1.0 - t * t)))
        assert angle < 72.0

    def test_q_monotone_in_first_argument(self, cert):
        # Q(a, b) = (1/2 - cos a cos b) / (sin a sin b) increases in a below
        # the cap radius
        theta0 = cert.theta0.mid

        def q(a, b):
            return (0.5 - math.cos(a) * math.cos(b)) / (math.sin(a) * math.sin(b))

        rng = random.Random(41)
        for _ in range(200):
            b = rng.uniform(0.2, theta0)
            a1 = rng.uniform(0.2, theta0)
            a2 = rng.uniform(a1, theta0)
            assert q(a2, b) >= q(a1, b) - 1e-12


class TestOmega:
    def test_symmetric_point(self, cert):
        for psi_deg in (60.0, 75.0, 90.0, 100.0):
            psi = psi_deg * DEG
            omega = build_omega(cert, psi)
            expected = 2.0 * cert.f.eval_real(-math.cos(psi / 2.0))
            assert omega.poly.eval_real(1.0) == pytest.approx(expected, abs=1e-9)

    def test_cap_edge_point(self, cert):
        psi = 80.0 * DEG
        theta0 = cert.theta0.mid
        omega = build_omega(cert, psi)
        s = math.cos(theta0 - psi / 2.0)
        # f(-cos theta0) is essentially zero at the cap edge
        expected = cert.f.eval_real(-math.cos(psi - theta0))
        assert omega.poly.eval_real(s) == pytest.approx(expected, abs=1e-8)

    def test_matches_direct_two_term_evaluation(self, cert):
        rng = random.Random(42)
        for _ in range(100):
            psi = rng.uniform(60.0 * DEG, 2.0 * cert.theta0.lo)
            theta = rng.uniform(psi / 2.0, cert.theta0.lo)
            omega = build_omega(cert, psi)
            direct = cert.f.eval_real(-math.cos(theta)) + cert.f.eval_real(
                -math.cos(psi - theta)
            )
            assert omega.poly.eval_real(math.cos(theta - psi / 2.0)) == pytest.approx(
                direct, abs=1e-10
            )

    def test_domain_check(self, cert):
        with pytest.raises(DomainError):
            build_omega(cert, 30.0 * DEG)


class TestF1:
    def test_value_at_sixty(self, cert):
        iv = F1(cert, 60.0 * DEG)
        assert abs(iv.mid - 2.7649) < 5e-4

    def test_nonincreasing_on_grid(self, cert):
        psis = [60.0 * DEG + i * (2.0 * cert.theta0.lo - 60.0 * DEG) / 63 for i in range(64)]
        values = [F1(cert, p) for p in psis]
        for a, b in zip(values, values[1:]):
            assert b.lo <= a.hi + 1e-6

    def test_dominates_symmetric_configuration(self, cert):
        rng = random.Random(43)
        for _ in range(50):
            psi = rng.uniform(60.0 * DEG, 2.0 * cert.theta0.lo)
            iv = F1(cert, psi)
            assert iv.hi >= 2.0 * cert.f.eval_real(-math.cos(psi / 2.0)) - 1e-7

    def test_dominates_feasible_pairs(self, cert):
        rng = random.Random(44)
        cache = {}
        for _ in range(1000):
            psi = rng.choice([60.0, 70.0, 80.0, 90.0, 100.0]) * DEG
            theta = rng.uniform(psi / 2.0, cert.theta0.lo)
            if psi not in cache:
                cache[psi] = F1(cert, psi)
            direct = cert.f.eval_real(-math.cos(theta)) + cert.f.eval_real(
                -math.cos(psi - theta)
            )
            assert direct <= cache[psi].hi + 1e-9


class TestTriangleProfile:
    def test_symmetric_at_u_zero(self, cert):
        for psi_deg in (38.0, 44.0, 50.0):
            psi = psi_deg * DEG
            prof = build_triangle_profile(cert, psi)
            c1 = 0.5 * math.cos(psi) + math.sin(60.0 * DEG) * math.sin(psi) * math.cos(R0)
            assert prof.poly.eval_real(1.0) == pytest.approx(
                2.0 * cert.f.eval_real(-c1), abs=1e-9
            )

    def test_matches_direct_evaluation(self, cert):
        rng = random.Random(45)
        for _ in range(100):
            psi = rng.uniform(R0 + 1e-6, cert.theta0.lo)
            cot = math.cos(psi) / math.sin(psi)
            u0 = max(math.acos(min(cot / math.sqrt(3.0), 1.0)) - R0, 0.0)
            u = rng.uniform(0.0, u0)
            prof = build_triangle_profile(cert, psi)
            c1 = 0.5 * math.cos(psi) + math.sin(60 * DEG) * math.sin(psi) * math.cos(R0 - u)
            c2 = 0.5 * math.cos(psi) + math.sin(60 * DEG) * math.sin(psi) * math.cos(R0 + u)
            direct = cert.f.eval_real(-c1) + cert.f.eval_real(-c2)
            assert prof.poly.eval_real(math.cos(u)) == pytest.approx(direct, abs=1e-10)

    def test_far_vertex_at_u0(self, cert):
        # at u = u0 the two movable colatitudes close onto psi itself
        psi = 48.0 * DEG
        cot = math.cos(psi) / math.sin(psi)
        u0 = math.acos(cot / math.sqrt(3.0)) - R0
        c2 = 0.5 * math.cos(psi) + math.sin(60 * DEG) * math.sin(psi) * math.cos(R0 + u0)
        assert c2 == pytest.approx(math.cos(psi), abs=1e-12)

    def test_domain_check(self, cert):
        with pytest.raises(DomainError):
            build_triangle_profile(cert, 20.0 * DEG)


class TestF2:
    def test_nondecreasing_on_reference_grid(self, cert):
        grid = psi_grid(cert)
        values = [F2(cert, p) for p in grid]
        for a, b in zip(values, values[1:]):
            assert b.hi >= a.lo - 1e-7

    def test_dominates_feasible_pairs(self, cert):
        rng = random.Random(46)
        grid = psi_grid(cert)[1:]
        cache = {psi: F2(cert, psi) for psi in grid}
        for _ in range(1000):
            psi = rng.choice(grid)
            cot = math.cos(psi) / math.sin(psi)
            u0 = max(math.acos(min(cot / math.sqrt(3.0), 1.0)) - R0, 0.0)
            u = rng.uniform(0.0, u0)
            c1 = 0.5 * math.cos(psi) + math.sin(60 * DEG) * math.sin(psi) * math.cos(R0 - u)
            c2 = 0.5 * math.cos(psi) + math.sin(60 * DEG) * math.sin(psi) * math.cos(R0 + u)
            direct = cert.f.eval_real(-c1) + cert.f.eval_real(-c2)
            assert direct <= cache[psi].hi + 1e-9


class TestHBounds:
    def test_h_small(self, bound_table):
        h0, h1, h2 = bound_table.h[:3]
        assert h0.mid == pytest.approx(10.11, abs=1e-12)
        assert h1.mid == pytest.approx(12.88, abs=1e-12)
        assert abs(h2.mid - 12.8749) < 5e-4

    def test_h4_cases(self, bound_table):
        case1, case2 = bound_table.h4_case_bounds
        assert abs(case1.mid - 12.9171) < 5e-4
        assert abs(case2.mid - 12.9182) < 5e-4

    def test_h4_under_13(self, bound_table):
        assert bound_table.h[4].hi < 13.0

    def test_w_values(self, bound_table):
        ws, h3 = bound_table.w, bound_table.h[3]
        expected = (12.9425, 12.9648, 12.9508, 12.9606, 12.9519)
        assert len(ws) == 5
        for w, e in zip(ws, expected):
            assert abs(w.mid - e) < 5e-4
        assert h3.hi < 13.0

    def test_grid_endpoints(self, cert):
        grid = psi_grid(cert)
        assert grid[0] == pytest.approx(R0)
        assert abs(math.degrees(R0) - 35.2644) < 1e-4
        assert grid[-1] == cert.theta0.hi


class TestBoundTable:
    def test_verdict(self, bound_table):
        assert bound_table.verdict
        assert bound_table.mu == 4
        assert all(h.hi < 13.0 for h in bound_table.h)

    @pytest.mark.parametrize("below", [False, True])
    def test_an_upper_end_of_exactly_13_fails_the_verdict(self, cert, below):
        # f(-1), seeded into the cached `f_ends`, makes h1 = f(1) + f(-1) the
        # float just below 13, whose outward enclosure ends at 13.0 exactly,
        # or one float lower; the rest of the table keeps the certificate's
        top = math.nextafter(13.0, 0.0)
        if below:
            top = math.nextafter(top, 0.0)
        c = dataclasses.replace(cert)
        c.__dict__["f_ends"] = (Fraction(top) - cert.f_ends[1], cert.f_ends[1])
        table = compute_bound_table(c)
        assert table.h[1].hi == math.nextafter(top, math.inf)
        assert all(h.hi < 13.0 for i, h in enumerate(table.h) if i != 1)
        assert table.verdict is below

    def test_h_max_at_least_h1(self, bound_table):
        assert 12.88 - 1e-12 <= bound_table.h_max.hi < 13.0

    def test_json_export(self, bound_table):
        d = table_to_json_dict(bound_table)
        assert d["mu"] == 4
        assert d["verdict"] is True
        assert len(d["w"]) == 5
        assert d["h2"][0] <= 12.8749 <= d["h2"][1] + 5e-4
        assert d["unit"] == "degrees"


def table_profiles(c):
    """The bound table's ten profiles as (F1 or F2, psi, profile): the pair
    profile at 60deg, the rhombus diagonals and 90deg, and the triangle
    profile over the grid."""
    split = bounds.RHOMBUS_SPLIT_DEG * DEG
    f1 = [60.0 * DEG, sphere.rho(2.0 * c.theta0.hi), sphere.rho(split), split, 90.0 * DEG]
    return [("F1", psi, build_omega(c, psi)) for psi in f1] + [
        ("F2", psi, build_triangle_profile(c, psi)) for psi in psi_grid(c)[1:]
    ]


def end_max(prof):
    """The larger exact value of a profile at the ends of its domain."""
    return max(prof.poly.eval(prof.domain.lo), prof.poly.eval(prof.domain.hi))


def holds(iv, value):
    return Fraction(iv.lo) <= value <= Fraction(iv.hi)


class TestExactEnclosures:
    @pytest.mark.parametrize(
        "perturbation",
        [None, (9, Fraction(1, 100)), (3, Fraction(-1, 1000)), (5, Fraction(1, 1000)),
         (7, Fraction(1, 1000))],
    )
    def test_profile_maxima_are_end_values(self, cert, perturbation):
        # the largest Bernstein coefficient of each profile is an end one, so
        # its maximum is that end's exact value, rounded outward
        if perturbation:
            cert = build_certificate(harness.perturbed_coeffs(*perturbation))
        profiles = table_profiles(cert)
        assert len(profiles) == 10
        for name, psi, prof in profiles:
            value = end_max(prof)
            assert getattr(bounds, name)(cert, psi) == _outward(value, value), (name, psi)
            iv = max_on_interval(prof.poly, prof.domain.lo, prof.domain.hi, 1e-300)
            assert iv == _outward(value, value)

    def test_every_enclosure_holds_its_exact_value(self, cert, bound_table):
        f, t = cert.f, bound_table
        at_1 = f.eval(1)
        exact = {"F1": {}, "F2": {}}
        for name, psi, prof in table_profiles(cert):
            exact[name][round(math.degrees(psi), 6)] = end_max(prof)
        f1, f2 = exact["F1"], exact["F2"]
        assert sorted(f1) == sorted(t.f1_values) and sorted(f2) == sorted(t.f2_values)
        for key, value in f1.items():
            assert holds(t.f1_values[key], value)
        for key, value in f2.items():
            assert holds(t.f2_values[key], value)
        assert holds(t.h[0], at_1) and holds(t.h[1], at_1 + f.eval(-1))
        assert holds(t.h[2], at_1 + f1[60.0])
        grid = psi_grid(cert)
        ws = [
            at_1 + f2[round(math.degrees(grid[i + 1]), 6)] + f.eval(-math.cos(grid[i]))
            for i in range(5)
        ]
        for w, value in zip(t.w, ws):
            assert holds(w, value) and holds(t.h[3], value)
        split = bounds.RHOMBUS_SPLIT_DEG
        rho = [round(math.degrees(sphere.rho(x)), 6) for x in (2.0 * cert.theta0.hi, split * DEG)]
        cases = [at_1 + f1[rho[0]] + f1[rho[1]], at_1 + f1[split] + f1[90.0]]
        for case, value in zip(t.h4_case_bounds, cases):
            assert holds(case, value) and holds(t.h[4], value)
        assert holds(t.h_max, max(ws + cases + [at_1 + f.eval(-1)]))


class TestBoundFailure:
    """A profile maximum pushed up by 1 makes a bound reach 13: the w_i are
    checked before the h_4 cases, and the bounds suite records the message."""

    @staticmethod
    def shift_up(monkeypatch, name):
        original = getattr(bounds, name)
        monkeypatch.setattr(
            bounds, name, lambda c, psi: original(c, psi) + Interval.point(1.0)
        )

    def test_w1_reaches_13(self, cert, monkeypatch):
        self.shift_up(monkeypatch, "F2")
        with pytest.raises(BoundFailure, match=r"^w_1 bound [\d.]+ reaches 13$"):
            compute_bound_table(cert)

    def test_bounds_suite_records_failure(self, monkeypatch):
        self.shift_up(monkeypatch, "F2")
        report = harness.run(harness.RunConfig(suites=("bounds",)))
        (failure,) = report.suites["bounds"].failures
        assert re.fullmatch(r"BoundFailure: w_1 bound [\d.]+ reaches 13", failure)
        assert report.bound_table is None and not report.ok

    def test_h4_case1_reaches_13(self, cert, monkeypatch):
        self.shift_up(monkeypatch, "F1")
        with pytest.raises(BoundFailure, match=r"^h4 case 1 bound [\d.]+ reaches 13$"):
            compute_bound_table(cert)


class TestTheorem:
    def test_conclusion(self, cert, bound_table):
        report = verify_theorem(cert, bound_table)
        assert report.conclusion == 12

    def test_witness(self, cert, bound_table):
        report = verify_theorem(cert, bound_table)
        assert report.witness_size == 12
        assert math.degrees(report.witness_min_sep) == pytest.approx(63.4349, abs=1e-3)
        assert report.witness_min_sep == math.acos(1.0 / math.sqrt(5.0))
        assert 144 <= report.witness_energy < 156
        assert report.witness_energy == Fraction(144)

    def test_witness_pair_classes(self):
        # each vertex with itself and its antipode at c^2 = 1, every other
        # pair at c^2 = 1/5, as the float icosahedron's cosines give them
        assert icosahedron_pair_classes() == {Fraction(1): 24, Fraction(1, 5): 120}
        squares = sphere.CosineBatch.of(sphere.icosahedron()).cos ** 2
        assert sorted(collections.Counter(np.round(squares, 12).tolist()).items()) == [
            (0.2, 120),
            (1.0, 24),
        ]

    @pytest.mark.parametrize(
        "nearest, separated", [(Fraction(1, 4), True), (Fraction(1, 3), False)]
    )
    def test_witness_separation_cutoff(self, cert, bound_table, monkeypatch, nearest, separated):
        # one of the 120 pairs at c^2 = 1/5 moved to `nearest`: the set stays
        # 12 points with 24 pairs at c^2 = 1, and S stays in [144, 156), so
        # only the 60-degree test (c^2 <= 1/4) decides the conclusion
        classes = {Fraction(1): 24, Fraction(1, 5): 119, nearest: 1}
        monkeypatch.setattr(bounds, "icosahedron_pair_classes", lambda: classes)
        report = verify_theorem(cert, bound_table)
        assert report.witness_size == 12
        assert 144 <= report.witness_energy < 156
        assert report.witness_min_sep == math.acos(math.sqrt(nearest))
        assert (report.conclusion == 12) is separated

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 100), Fraction(-3, 7)])
    def test_exact_witness_matches_the_float_energy(self, cert, bound_table, delta):
        # an even coefficient a_8 moves E(t) by delta t^4, so S by
        # delta (24 + 120 / 5^4); energy() over the float icosahedron agrees
        f = polynomial.RationalPoly(harness.perturbed_coeffs(8, delta))
        perturbed = dataclasses.replace(cert, f=f)
        S = verify_theorem(perturbed, bound_table).witness_energy
        assert S == 144 + delta * (24 + Fraction(120, 5**4))
        assert float(S) == pytest.approx(energy(sphere.icosahedron(), perturbed).S, rel=1e-9)


def _triangle_u0(psi):
    # the largest pole offset u of the triangle with farthest vertex at psi
    cot = np.cos(psi) / np.sin(psi)
    return np.maximum(np.arccos(np.minimum(cot / math.sqrt(3.0), 1.0)) - R0, 0.0)


#: Scan densities (2 * isqrt(N) points per axis) and perturbed certificates
#: the closed forms are checked against; (9, 1/100) stays fourth so that
#: its test ids keep their names.
REFINE_CASES = [
    (None, 64),
    (None, 256),
    (None, 1024),
    ((9, Fraction(1, 100)), 256),
    ((3, Fraction(-1, 1000)), 256),
    ((5, Fraction(1, 1000)), 256),
    ((7, Fraction(1, 1000)), 256),
]


class TestRefine:
    def test_estimates_and_dominance(self, cert, bound_table):
        h3_est, h4_est = refine_h34(cert)
        assert abs(h3_est - 12.8721) < 1e-3
        assert abs(h4_est - 12.4849) < 1e-3
        assert h3_est <= bound_table.h[3].hi
        assert h4_est <= bound_table.h[4].hi

    @pytest.mark.parametrize("grid_density", [64, 256, 1024])
    def test_same_optimum_at_every_density(self, cert, bound_table, grid_density):
        # the optimum of the 556-start multistart search the closed forms
        # replaced; a scan at this density, as the retired refine ran, finds
        # no cell that moves it
        h3_est, h4_est = refine_h34(cert)
        theta0 = cert.theta0.mid
        n = 2 * math.isqrt(grid_density)
        psi, t = np.ix_(np.linspace(R0, theta0, n), np.linspace(0.0, 1.0, n))
        h3_scan = _triangle_score(cert, cert.f_at_1, psi, t * _triangle_u0(psi)).max()
        axes = (
            np.linspace(sphere.rho(2.0 * theta0), math.pi / 2.0, n),
            np.linspace(0.0, theta0, n),
            np.linspace(0.0, math.pi, n),
        )
        cells = _rhombus_cosines(*np.ix_(*axes))
        feasible = np.all(np.arccos(cells) <= theta0, axis=0)
        h4_scan = _rhombus_score(cert, cert.f_at_1, cells)[feasible].max()
        for best in (h3_est, max(h3_est, h3_scan)):
            assert abs(best - 12.87211978609106) <= 1e-9
        for best in (h4_est, max(h4_est, h4_scan)):
            assert abs(best - 12.484941253936224) <= 1e-9
        assert h3_est <= bound_table.h[3].hi
        assert h4_est <= bound_table.h[4].hi

    def test_no_optimizer(self, cert, monkeypatch):
        expected = refine_h34(cert)

        def refuse(*args, **kwargs):
            raise AssertionError("refine_h34 called bounds.minimize")

        monkeypatch.setattr(bounds, "minimize", refuse)
        assert refine_h34(cert) == expected

    @pytest.mark.parametrize("perturbation, grid_density", REFINE_CASES)
    def test_h3_is_the_best_triangle_cell(self, cert, perturbation, grid_density):
        # the profile peaks at the scan's corner psi = theta0, u = 0, and no
        # cell beats the closed form there
        if perturbation:
            cert = build_certificate(harness.perturbed_coeffs(*perturbation))
        n = 2 * math.isqrt(grid_density)
        psi, t = np.ix_(np.linspace(R0, cert.theta0.mid, n), np.linspace(0.0, 1.0, n))
        grid = _triangle_score(cert, cert.f_at_1, psi, t * _triangle_u0(psi))
        assert np.unravel_index(grid.argmax(), grid.shape) == (n - 1, 0)
        corner = _triangle_score(cert, cert.f_at_1, cert.theta0.mid, 0.0)
        h3_est, _ = refine_h34(cert)
        assert h3_est.hex() == float(corner).hex()
        assert h3_est >= grid.max()

    @pytest.mark.parametrize("perturbation, grid_density", REFINE_CASES)
    def test_h4_is_the_closed_form_rhombus(self, cert, perturbation, grid_density):
        # three vertices on the cap circle and the fourth inside it, at
        # |3 theta0 - pi|; no feasible cell of the scan scores higher
        if perturbation:
            cert = build_certificate(harness.perturbed_coeffs(*perturbation))
        theta0 = cert.theta0.mid
        cos_th = _rhombus_cosines(math.pi - 2.0 * theta0, 2.0 * theta0 - math.pi / 2.0, 0.0)
        angles = np.arccos(cos_th)
        assert angles[1:] == pytest.approx([theta0] * 3, abs=1e-12)
        assert angles[0] == pytest.approx(abs(3.0 * theta0 - math.pi), abs=1e-12)
        assert angles[0] < theta0
        best = _rhombus_score(cert, cert.f_at_1, cos_th)
        f = cert.f
        closed = cert.f_at_1 + f.eval_real(math.cos(3.0 * theta0)) + 3 * f.eval_real(-cert.t0.mid)
        assert best == pytest.approx(closed, rel=1e-12)

        n = 2 * math.isqrt(grid_density)
        axes = (
            np.linspace(sphere.rho(2.0 * theta0), math.pi / 2.0, n),
            np.linspace(0.0, theta0, n),
            np.linspace(0.0, math.pi, n),
        )
        cells = _rhombus_cosines(*np.ix_(*axes))
        feasible = np.all(np.arccos(cells) <= theta0, axis=0)
        assert feasible.any()
        _, h4_est = refine_h34(cert)
        assert h4_est.hex() == float(best).hex()
        assert h4_est >= _rhombus_score(cert, cert.f_at_1, cells)[feasible].max()


class TestRefineScores:
    """The objectives with f(1) hoisted match the formulas that evaluate f(1)
    exactly on every call, bit for bit."""

    def test_triangle(self, cert):
        f = cert.f
        f_at_1 = float(f.eval(1))
        rng = random.Random(47)
        for _ in range(300):
            psi = rng.uniform(R0, cert.theta0.mid)
            u = rng.uniform(0.0, 0.3)
            c1 = sphere.cos_law(60.0 * DEG, psi, R0 - u)
            c2 = sphere.cos_law(60.0 * DEG, psi, R0 + u)
            original = (
                float(f.eval(1))
                + f.eval_real(-c1)
                + f.eval_real(-c2)
                + f.eval_real(-math.cos(psi))
            )
            assert _triangle_score(cert, f_at_1, psi, u).hex() == original.hex()

    def test_rhombus(self, cert):
        f = cert.f
        f_at_1 = float(f.eval(1))
        rng = random.Random(48)
        for _ in range(300):
            x = np.array(
                [rng.uniform(1.0, math.pi / 2.0), rng.uniform(0.0, 0.9), rng.uniform(0.0, math.pi)]
            )
            cos_th = _rhombus_cosines(*x)
            original = float(f.eval(1)) + sum(f.eval_real(-v) for v in cos_th)
            assert _rhombus_score(cert, f_at_1, cos_th).hex() == original.hex()


class TestRefineScan:
    """The tests' scans score whole grids with the same formulas the closed
    forms evaluate on floats; numpy's vectorised trigonometry may move the last
    bits."""

    def test_triangle_grid(self, cert):
        f_at_1 = float(cert.f.eval(1))
        psi, u = np.ix_(np.linspace(R0, cert.theta0.mid, 7), np.linspace(0.0, 0.3, 5))
        grid = _triangle_score(cert, f_at_1, psi, u)
        assert grid.shape == (7, 5)
        for i, j in np.ndindex(grid.shape):
            expected = _triangle_score(cert, f_at_1, float(psi[i, 0]), float(u[0, j]))
            assert grid[i, j] == pytest.approx(expected, rel=1e-12)

    def test_rhombus_grid(self, cert):
        f_at_1 = float(cert.f.eval(1))
        axes = (
            np.linspace(1.0, math.pi / 2.0, 4),
            np.linspace(0.0, 0.9, 3),
            np.linspace(0.0, math.pi, 5),
        )
        cos_th = _rhombus_cosines(*np.ix_(*axes))
        grid = _rhombus_score(cert, f_at_1, cos_th)
        assert cos_th.shape == (4, 4, 3, 5) and grid.shape == (4, 3, 5)
        for cell in np.ndindex(grid.shape):
            point = [float(axis[k]) for axis, k in zip(axes, cell)]
            cos_point = _rhombus_cosines(*point)
            assert cos_th[(slice(None),) + cell] == pytest.approx(cos_point, abs=1e-14)
            expected = _rhombus_score(cert, f_at_1, cos_point)
            assert grid[cell] == pytest.approx(expected, rel=1e-12)


class TestOneEvaluation:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Record the psi of every F1 and F2 call made through the module."""
        log = {"F1": [], "F2": []}
        for name, psis in log.items():
            original = getattr(bounds, name)

            def counted(c, psi, _original=original, _psis=psis):
                _psis.append(psi)
                return _original(c, psi)

            monkeypatch.setattr(bounds, name, counted)
        return log

    @pytest.fixture
    def tables(self, monkeypatch):
        built = []
        original = bounds.compute_bound_table

        def counted(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bounds, "compute_bound_table", counted)
        return built

    def test_table_evaluates_each_psi_once(self, cert, calls, bound_table):
        table = compute_bound_table(cert)
        for name in ("F1", "F2"):
            assert len(calls[name]) == 5
            assert len(set(calls[name])) == 5
        assert table == bound_table

    def test_bound_table_builds_no_sturm_chain(self, cert, monkeypatch):
        """Each F1/F2 value comes from its profile's Bernstein coefficients,
        so none of the table's 10 calls builds a Sturm chain."""
        chains = []
        init = polynomial.SturmChain.__init__

        def counted_init(chain, p):
            chains.append(p)
            init(chain, p)

        monkeypatch.setattr(polynomial.SturmChain, "__init__", counted_init)
        per_call = []
        for name in ("F1", "F2"):
            original = getattr(bounds, name)

            def counted(c, psi, _original=original):
                before = len(chains)
                result = _original(c, psi)
                per_call.append(len(chains) - before)
                return result

            monkeypatch.setattr(bounds, name, counted)
        compute_bound_table(cert)
        assert per_call == [0] * 10
        assert chains == []

    def test_bounds_and_theorem_share_one_table(self, calls, tables):
        report = harness.run(harness.RunConfig(suites=("bounds", "theorem")))
        assert len(tables) == 1
        assert len(calls["F1"]) == len(calls["F2"]) == 5
        assert report.conclusion == 12

    def test_theorem_alone_builds_its_table(self, tables):
        report = harness.run(harness.RunConfig(suites=("theorem",)))
        assert len(tables) == 1
        assert report.bound_table is not None and report.bound_table.verdict
        assert report.conclusion == 12

    def test_given_table_is_used(self, cert, bound_table, tables):
        report = verify_theorem(cert, table=bound_table)
        assert tables == []
        assert report.conclusion == 12
