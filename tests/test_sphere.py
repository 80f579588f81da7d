import math
import random
import re

import pytest

from kiss3.errors import DomainError, SaturationError, TooFewPoints
from kiss3.sphere import (
    PointSet,
    SphericalPoint,
    angular_distance,
    cos_law,
    format_points,
    icosahedron,
    min_separation,
    parse_points,
    random_point,
    random_rotation,
    random_separated_set,
    rho,
    rotated,
)

ICO_SEP = math.acos(1.0 / math.sqrt(5.0))


class TestCosLaw:
    def test_equatorial(self):
        for x in (0.0, 0.3, 1.5, 3.0):
            assert cos_law(math.pi / 2, math.pi / 2, x) == pytest.approx(math.cos(x))

    def test_pythagorean(self):
        t1, t2 = 0.7, 1.1
        assert cos_law(t1, t2, math.pi / 2) == pytest.approx(
            math.cos(t1) * math.cos(t2)
        )

    def test_coincident(self):
        assert cos_law(0.8, 0.8, 0.0) == pytest.approx(1.0)

    def test_clamped(self):
        rng = random.Random(31)
        for _ in range(1000):
            c = cos_law(
                rng.uniform(0, math.pi),
                rng.uniform(0, math.pi),
                rng.uniform(0, 2 * math.pi),
            )
            assert -1.0 <= c <= 1.0


class TestAngularDistance:
    def test_identical(self):
        p = SphericalPoint(0.4, 2.0)
        assert angular_distance(p, p) == pytest.approx(0.0, abs=1e-7)

    def test_pole_to_equator(self):
        assert angular_distance(
            SphericalPoint(0.0, 0.0), SphericalPoint(math.pi / 2, 1.0)
        ) == pytest.approx(math.pi / 2)

    def test_adjacent_icosahedron_vertices(self):
        ico = icosahedron()
        d = min(
            angular_distance(ico[0], q) for q in ico if q != ico[0]
        )
        assert d == pytest.approx(ICO_SEP, abs=1e-12)

    def test_metric_properties(self):
        rng = random.Random(32)
        for _ in range(300):
            pts = [random_point(rng) for _ in range(3)]
            d01 = angular_distance(pts[0], pts[1])
            d10 = angular_distance(pts[1], pts[0])
            assert d01 == d10  # symmetric evaluation is identical arithmetic
            d02 = angular_distance(pts[0], pts[2])
            d12 = angular_distance(pts[1], pts[2])
            assert d02 <= d01 + d12 + 1e-12


class TestRho:
    def test_right_angle_fixed_point(self):
        assert rho(math.pi / 2) == pytest.approx(math.pi / 2)

    def test_involution(self):
        for s in [1.2 + 0.06 * i for i in range(11)]:
            assert rho(rho(s)) == pytest.approx(s, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rho(2.5)  # beyond 2 pi / 3

    def test_strictly_decreasing(self, cert):
        top = 2.0 * cert.theta0.hi
        xs = [1.0 + (top - 1.0) * i / 10_000 for i in range(10_001)]
        vals = [rho(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rho_of_cap_diameter_below_right_angle(self, cert):
        assert rho(2.0 * cert.theta0.hi) < math.pi / 2


class TestMinSeparation:
    def test_antipodal(self):
        ps = PointSet([SphericalPoint(0.0, 0.0), SphericalPoint(math.pi, 0.0)])
        assert min_separation(ps) == pytest.approx(math.pi)

    def test_icosahedron(self):
        assert min_separation(icosahedron()) == pytest.approx(ICO_SEP, abs=1e-12)
        assert math.degrees(ICO_SEP) > 60.0

    def test_duplicate_point(self):
        p = SphericalPoint(1.0, 2.0)
        ps = PointSet([p, SphericalPoint(0.2, 0.1), p])
        assert min_separation(ps) == pytest.approx(0.0, abs=1e-7)

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            min_separation(PointSet([SphericalPoint(0.1, 0.1)]))

    def test_rotation_invariance(self):
        ps = icosahedron()
        for seed in range(5):
            assert min_separation(rotated(ps, random_rotation(seed))) == pytest.approx(
                ICO_SEP, abs=1e-12
            )


class TestIcosahedron:
    def test_twelve_vertices(self):
        assert len(icosahedron()) == 12

    def test_each_vertex_has_five_nearest_neighbors(self):
        ico = icosahedron()
        d = ico.distance_matrix()
        for i in range(12):
            near = sum(
                1 for j in range(12) if j != i and abs(d[i, j] - ICO_SEP) < 1e-9
            )
            assert near == 5

    def test_unit_vectors(self):
        for p in icosahedron():
            v = p.to_vector()
            assert sum(x * x for x in v) == pytest.approx(1.0)


class TestRandomSeparatedSet:
    def test_single_point(self):
        assert len(random_separated_set(1, math.pi, seed=0)) == 1

    def test_separation_honored(self):
        ps = random_separated_set(8, math.pi / 3, seed=5)
        assert min_separation(ps) >= math.pi / 3

    def test_deterministic(self):
        a = random_separated_set(6, math.pi / 3, seed=9)
        b = random_separated_set(6, math.pi / 3, seed=9)
        assert a.points == b.points

    def test_thirteen_points_saturate(self):
        # no 13-point 60-degree code exists; every seed must saturate
        for seed in range(5):
            with pytest.raises(SaturationError):
                random_separated_set(13, math.pi / 3, seed=seed, max_tries=1500)


def _reference_separated_set(n, min_sep, seed, max_tries):
    """The sampler as first written, on random_point and angular_distance;
    returns None where it saturates."""
    rng = random.Random(seed)
    accepted = []
    rejections = 0
    while len(accepted) < n:
        cand = random_point(rng)
        if all(angular_distance(cand, p) >= min_sep for p in accepted):
            accepted.append(cand)
            rejections = 0
        else:
            rejections += 1
            if rejections >= max_tries:
                return None
    return PointSet(accepted)


def _reference_shrink_and_retry(n, min_sep, seed, max_tries):
    """Shrink the target after each saturation until a set is placed."""
    while n >= 2:
        ps = _reference_separated_set(n, min_sep, seed, max_tries)
        if ps is not None:
            return ps
        n -= 1
    return None


class TestSamplerContract:
    MAX_TRIES = 500

    def test_one_pass_matches_shrink_and_retry(self):
        saturated = 0
        for seed in range(30):
            for n in range(2, 13):
                try:
                    ps = random_separated_set(n, math.pi / 3, seed, self.MAX_TRIES)
                except SaturationError as exc:
                    saturated += 1
                    placed = re.search(r"placed (\d+)/", str(exc)).group(1)
                    assert placed == str(len(exc.placed))
                    ps = exc.placed
                expected = _reference_shrink_and_retry(n, math.pi / 3, seed, self.MAX_TRIES)
                assert expected is not None
                assert ps.points == expected.points
        assert saturated > 0

    def test_carried_points_are_separated_and_in_draw_order(self):
        with pytest.raises(SaturationError) as info:
            random_separated_set(13, math.pi / 3, seed=0, max_tries=1500)
        placed = info.value.placed
        assert isinstance(placed, PointSet) and 2 <= len(placed) < 13
        assert min_separation(placed) >= math.pi / 3
        assert placed.points == random_separated_set(len(placed), math.pi / 3, 0).points


class TestTextFormat:
    def test_round_trip(self):
        ps = random_separated_set(7, math.pi / 4, seed=3)
        back = parse_points(format_points(ps))
        assert len(back) == 7
        for p, q in zip(ps, back):
            assert angular_distance(p, q) < 1e-6

    def test_comments_and_blank_lines(self):
        text = "# heading\n\n90.0 0.0  # equator\n0.0 0.0\n"
        ps = parse_points(text)
        assert len(ps) == 2
        assert ps[0].theta == pytest.approx(math.pi / 2)

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_points("1.0\n")
