import collections
import hashlib
import math
import random
import re
import sys
import threading

import numpy as np
import pytest

from kiss3 import sphere
from kiss3.errors import DomainError, SaturationError, TooFewPoints
from kiss3.sphere import (
    SAMPLER_BLOCK,
    CosineBatch,
    PointSet,
    SphericalPoint,
    angular_distance,
    cos_law,
    format_points,
    icosahedron,
    min_separation,
    parse_points,
    random_point,
    random_separated_set,
    random_separated_sets,
    rho,
)

def _cosines(ps):
    """The set's cosine matrix, as its one-set CosineBatch holds it."""
    return CosineBatch.of(ps).cos.reshape(len(ps), len(ps))


def rotated(ps, matrix):
    """Apply a 3x3 rotation matrix to every point."""
    return PointSet(SphericalPoint.from_vector(matrix @ p.to_vector()) for p in ps)


def random_rotation(seed):
    """A uniformly random rotation matrix (QR of a Gaussian matrix)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


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

    def test_min_angle_matches_upper_triangle(self):
        # the largest off-diagonal cosine gives the bits of the smallest
        # arccos over the pairs i < j
        rng = random.Random(57)
        sizes = [n for n in range(2, 41) for _ in range(25)] + [1000]
        for n in sizes:
            ps = PointSet(random_point(rng) for _ in range(n))
            upper = float(np.arccos(_cosines(ps)[np.triu_indices(n, 1)]).min())
            assert min_separation(ps).hex() == upper.hex()


def _strided_nearest(cosm):
    """The largest off-diagonal cosine of an n x n matrix, n >= 2, read as a
    view: after the first entry, the n^2 - 1 flat entries fall into n - 1
    rows of n + 1 whose last entry is the next diagonal one."""
    n = len(cosm)
    return cosm.ravel()[1:].reshape(n - 1, n + 1)[:, :-1].max()


def _copied_nearest(batch):
    """Every set's largest off-diagonal cosine, from a copy of the batch's
    cosines with -1 written on the diagonal."""
    off = batch.cos.copy()
    off[batch.diagonal] = -1.0
    return np.maximum.reduceat(off, batch.starts)


class TestNearest:
    """`CosineBatch.nearest` leaves the cosines' bytes as they were and
    gives, bit for bit, what the strided view of one set's matrix and the
    copy with -1 on the diagonal gave."""

    def test_lemma3_batches(self):
        rng = random.Random(58)
        for chunk in range(4):
            sizes = [rng.randint(2, 12) for _ in range(100)]
            seeds = range(100 * chunk, 100 * chunk + 100)
            vectors = [v for _, v, _ in random_separated_sets(sizes, math.pi / 3, seeds)]
            batch = CosineBatch(np.concatenate(vectors), [len(v) for v in vectors])
            before = batch.cos.tobytes()
            expected = _copied_nearest(batch)
            assert batch.nearest().tobytes() == expected.tobytes()
            assert batch.cos.tobytes() == before

    def test_mixed_sizes_and_one_point_sets(self):
        rng = random.Random(59)
        sets = [PointSet(random_point(rng) for _ in range(n)) for n in [1, 2, 1, 7, 40, 1]]
        vectors = [ps.vectors() for ps in sets]
        batch = CosineBatch(np.concatenate(vectors), [len(v) for v in vectors])
        before = batch.cos.tobytes()
        closest = batch.nearest()
        assert closest.tobytes() == _copied_nearest(batch).tobytes()
        assert closest[[0, 2, 5]].tolist() == [-1.0] * 3
        for ps, c in zip(sets, closest.tolist()):
            if len(ps) >= 2:
                assert c == _strided_nearest(_cosines(ps))
        assert batch.cos.tobytes() == before

    def test_thousand_points(self):
        rng = random.Random(60)
        batch = CosineBatch.of(PointSet(random_point(rng) for _ in range(1000)))
        before = batch.cos.tobytes()
        (closest,) = batch.nearest()
        assert closest.hex() == float(_strided_nearest(batch.cos.reshape(1000, 1000))).hex()
        assert batch.cos.tobytes() == before
        assert np.all(batch.cos[batch.diagonal] == 1.0)


class TestIcosahedron:
    def test_twelve_vertices(self):
        assert len(icosahedron()) == 12

    def test_points_of_the_float_family(self):
        # bit for bit the points of the family written out as float vectors
        tau = (1.0 + math.sqrt(5.0)) / 2.0
        verts = []
        for a in (1.0, -1.0):
            for b in (tau, -tau):
                verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
        want = [SphericalPoint.from_vector(v) for v in verts]
        got = icosahedron()
        assert [(p.theta.hex(), p.phi.hex()) for p in got] == [
            (p.theta.hex(), p.phi.hex()) for p in want
        ]
        assert got.vectors().tobytes() == PointSet(want).vectors().tobytes()

    def test_each_vertex_has_five_nearest_neighbors(self):
        ico = icosahedron()
        d = np.arccos(_cosines(ico))
        for i in range(12):
            near = sum(
                1 for j in range(12) if j != i and abs(d[i, j] - ICO_SEP) < 1e-9
            )
            assert near == 5

    def test_unit_vectors(self):
        for p in icosahedron():
            v = p.to_vector()
            assert sum(x * x for x in v) == pytest.approx(1.0)


class TestVectors:
    """PointSet.vectors() has the bits of a stack of the points' to_vector
    arrays."""

    @staticmethod
    def _stacked(ps):
        return np.array([p.to_vector() for p in ps])

    def test_random_sets(self):
        rng = random.Random(58)
        for n in list(range(1, 13)) * 20 + [1000]:
            ps = PointSet(random_point(rng) for _ in range(n))
            v = ps.vectors()
            assert v.shape == (n, 3) and v.dtype == np.float64
            assert v.tobytes() == self._stacked(ps).tobytes()

    def test_icosahedron_and_poles(self):
        poles = PointSet([SphericalPoint(0.0, 0.0), SphericalPoint(math.pi, 5.0)])
        for ps in (icosahedron(), poles):
            assert ps.vectors().tobytes() == self._stacked(ps).tobytes()

    def test_no_points(self):
        v = PointSet([]).vectors()
        assert v.shape == (0, 3) and v.dtype == np.float64


class TestCosineBatch:
    """Each set's block of a CosineBatch is symmetric bit for bit, has a
    diagonal of exactly 1 at the `diagonal` indices, and has the same bits
    whichever batch holds the set."""

    @staticmethod
    def _assert_blocks(sets):
        batch = CosineBatch(np.concatenate([ps.vectors() for ps in sets]), [len(ps) for ps in sets])
        diagonal = []
        for ps, start in zip(sets, batch.starts.tolist()):
            n = len(ps)
            m = batch.cos[start : start + n * n].reshape(n, n)
            assert np.array_equal(m, m.T)
            assert m.tobytes() == _cosines(ps).tobytes()
            assert np.all(np.diag(m) == 1.0) and np.all(np.abs(m) <= 1.0)
            diagonal += range(start, start + n * n, n + 1)
        assert batch.diagonal.tolist() == diagonal

    def test_random_sets(self):
        rng = random.Random(61)
        sets = [PointSet(random_point(rng) for _ in range(n)) for n in range(1, 41)]
        self._assert_blocks(sets)
        self._assert_blocks([PointSet(random_point(rng) for _ in range(1000))])

    def test_poles_and_repeated_point(self):
        rng = random.Random(62)
        p = random_point(rng)
        points = [SphericalPoint(0.0, 0.0), SphericalPoint(math.pi, 0.0), p, p]
        ps = PointSet(points + [random_point(rng) for _ in range(20)])
        assert _cosines(ps).min() == -1.0
        self._assert_blocks([ps, PointSet([p]), ps])

    def test_sampler_rows(self):
        sets = [random_separated_set(n, math.pi / 4, seed) for n, seed in ((2, 0), (8, 5), (12, 3))]
        self._assert_blocks(sets)

    def test_no_points(self):
        with pytest.raises(ValueError, match="every set needs a point"):
            CosineBatch.of(PointSet([]))


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
                status, _, points = _block_test(n, math.pi / 3, seed, self.MAX_TRIES)
                saturated += status == "saturated"
                expected = _reference_shrink_and_retry(n, math.pi / 3, seed, self.MAX_TRIES)
                assert expected is not None
                assert points == [(p.theta.hex(), p.phi.hex()) for p in expected]
        assert saturated > 0

    def test_carried_points_are_separated_and_in_draw_order(self):
        with pytest.raises(SaturationError) as info:
            random_separated_set(13, math.pi / 3, seed=0, max_tries=1500)
        placed = info.value.placed
        assert isinstance(placed, PointSet) and 2 <= len(placed) < 13
        assert min_separation(placed) >= math.pi / 3
        assert placed.points == random_separated_set(len(placed), math.pi / 3, 0).points


def _scalar_loop(n, min_sep, seed, max_tries):
    """The sampler before block testing, as an outcome: one random.Random
    draw pair and one scalar distance test per candidate and accepted point,
    rejecting at the first accepted point that is too close."""
    uniform = random.Random(seed).uniform
    accepted = []
    rejections = 0
    while len(accepted) < n:
        theta = math.acos(uniform(-1.0, 1.0))
        phi = uniform(0.0, 2.0 * math.pi) % (2.0 * math.pi)
        ct, st = math.cos(theta), math.sin(theta)
        for _, q_phi, q_ct, q_st in accepted:
            c = ct * q_ct + st * q_st * math.cos(phi - q_phi)
            if not math.acos(-1.0 if c < -1.0 else (1.0 if c > 1.0 else c)) >= min_sep:
                rejections += 1
                if rejections >= max_tries:
                    message = (
                        f"placed {len(accepted)}/{n} points before {max_tries} "
                        f"consecutive rejections at separation {min_sep}"
                    )
                    return "saturated", message, [(t.hex(), p.hex()) for t, p, _, _ in accepted]
                break
        else:
            accepted.append((theta, phi, ct, st))
            rejections = 0
    return "placed", None, [(t.hex(), p.hex()) for t, p, _, _ in accepted]


def _block_test(n, min_sep, seed, max_tries):
    """random_separated_set's outcome in the form of `_scalar_loop`, once
    random_separated_sets has given the same set, with the same unit
    vectors, for the case at a seeded position in a batch of other seeds
    and sizes."""
    try:
        ps = random_separated_set(n, min_sep, seed, max_tries)
    except SaturationError as exc:
        assert re.search(r"placed (\d+)/", str(exc)).group(1) == str(len(exc.placed))
        status, message, ps = "saturated", str(exc), exc.placed
    else:
        status, message = "placed", None
    points = [(p.theta.hex(), p.phi.hex()) for p in ps]
    rng = random.Random(f"{n} {min_sep!r} {seed} {max_tries}")
    seeds = [rng.randrange(-(2**40), 2**40) for _ in range(2)]
    sizes = [rng.randint(1, n + 3) for _ in seeds]
    at = rng.randint(0, len(seeds))
    seeds.insert(at, seed)
    sizes.insert(at, n)
    batched = random_separated_sets(sizes, min_sep, seeds, max_tries)[at]
    assert batched.saturated == (status == "saturated")
    assert [(theta.hex(), phi.hex()) for theta, phi in batched.angles] == points
    assert batched.vectors.tobytes() == ps.vectors().tobytes()
    return status, message, points


class TestBlockTest:
    """The block test accepts and rejects exactly what the scalar loop does:
    same status, message, placed points and bits."""

    BIG_SEEDS = [-1, -5, -(2**31), -(2**64), 2**32, 2**32 + 1, 2**40 + 7, 10**20 + 3, 2**64 - 1, 10**30]

    def test_seeds(self):
        saturated = 0
        for seed in list(range(2000)) + self.BIG_SEEDS:
            n = 2 + seed % 11
            expected = _scalar_loop(n, math.pi / 3, seed, 300)
            assert _block_test(n, math.pi / 3, seed, 300) == expected, seed
            saturated += expected[0] == "saturated"
        assert 100 < saturated < 2000

    @pytest.mark.parametrize(
        "min_sep", [0.0, 1e-6, math.pi / 6, math.pi / 3, 1.2, math.pi - 1e-6, math.pi]
    )
    def test_min_sep(self, min_sep):
        for seed in list(range(40)) + self.BIG_SEEDS:
            expected = _scalar_loop(8, min_sep, seed, 600)
            assert _block_test(8, min_sep, seed, 600) == expected, seed

    @pytest.mark.parametrize(
        "max_tries",
        [0, 1, 2, SAMPLER_BLOCK - 1, SAMPLER_BLOCK, SAMPLER_BLOCK + 1]
        + [2 * SAMPLER_BLOCK - 1, 2 * SAMPLER_BLOCK, 2 * SAMPLER_BLOCK + 1, 2000],
    )
    def test_max_tries(self, max_tries):
        for seed in range(30):
            expected = _scalar_loop(12, math.pi / 3, seed, max_tries)
            assert _block_test(12, math.pi / 3, seed, max_tries) == expected, seed

    def test_min_sep_range(self):
        for min_sep in (-1e-300, math.nextafter(math.pi, 4.0), math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="min_sep"):
                random_separated_set(3, min_sep, seed=0)
            with pytest.raises(ValueError, match="min_sep"):
                random_separated_sets([3, 4], min_sep, [0, 1])

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**40 + 7])
    def test_in_band_candidate_takes_the_scalar_rule(self, monkeypatch, seed):
        # min_sep set to the scalar distance between the seed's first two
        # candidates puts the second one on the band's centre line
        first, second = (
            [float.fromhex(x) for x in pair] for pair in _scalar_loop(2, 0.0, seed, 1)[2]
        )
        ct, st = math.cos(first[0]), math.sin(first[0])
        c = math.cos(second[0]) * ct + math.sin(second[0]) * st * math.cos(second[1] - first[1])
        d = math.acos(c)
        scalar_tests = []

        def clamp(x):
            scalar_tests.append(x)
            return -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)

        monkeypatch.setattr(sphere, "_clamp", clamp)
        for min_sep, status in ((d, "placed"), (math.nextafter(d, 4.0), "saturated")):
            scalar_tests.clear()
            got = _block_test(2, min_sep, seed, 1)
            assert got == _scalar_loop(2, min_sep, seed, 1)
            assert got[0] == status
            assert scalar_tests == [c, c]  # once through each entry point

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**40 + 7])
    def test_nine_digit_band_is_narrower_than_the_filter_error(self, monkeypatch, seed):
        # the band the float64 filter used: the float32 directions' error
        # carries the in-band candidate out of it, to a filter decision
        monkeypatch.setattr(sphere, "SAMPLER_MARGIN", 1e-9)
        with pytest.raises(AssertionError):
            self.test_in_band_candidate_takes_the_scalar_rule(monkeypatch, seed)

    def test_filter_error_is_an_eighth_of_the_band(self):
        # 10^6 (accepted point, candidate) pairs: the candidates' directions
        # by the sampler's own code and its product, against the scalar
        # rule's cosine; numpy stands in for math on the accepted side,
        # which moves the cosines by ulps
        rng = np.random.default_rng(24)
        z = 2.0 * rng.random(1000) - 1.0
        azimuth = sphere.TWO_PI * rng.random(1000)
        block = np.empty((3, 1000))
        sphere._filter_xy(z, azimuth, block[0], block[1])
        block[2] = z
        theta, phi = np.arccos(2.0 * rng.random(1000) - 1.0), sphere.TWO_PI * rng.random(1000)
        points = np.stack(
            (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)), axis=1
        )
        # the law of cosines in cos_law's operand order, on arrays
        t1, t2, dphi = theta[:, None], np.arccos(z), azimuth - phi[:, None]
        scalar = np.clip(
            np.cos(t1) * np.cos(t2) + np.sin(t1) * np.sin(t2) * np.cos(dphi), -1.0, 1.0
        )
        error = np.abs(points @ block - scalar).max()
        assert 0.0 < error <= sphere.SAMPLER_MARGIN / 8

    def test_filter_decides_ordinary_candidates(self, monkeypatch):
        scalar_tests = []
        monkeypatch.setattr(sphere, "_clamp", lambda x: scalar_tests.append(x) or x)
        for seed in range(20):
            with pytest.raises(SaturationError):
                random_separated_set(13, math.pi / 3, seed, max_tries=2000)
        sets = random_separated_sets([13] * 20, math.pi / 3, range(20), max_tries=2000)
        assert all(s.saturated for s in sets)
        assert scalar_tests == []

    def test_threads_sample_independently(self):
        # each thread reseeds its own pool of RandomStates, so interleaved
        # calls from more threads than cores, one set or a batch at a time,
        # still give the single-threaded sets
        seeds = range(120)
        expected = {seed: _block_test(12, math.pi / 3, seed, 2000) for seed in seeds}
        got, batched = {}, {}

        def work(offset):
            mine = seeds[offset::6]
            for seed in mine:
                got[seed] = _block_test(12, math.pi / 3, seed, 2000)
            sets = random_separated_sets([12] * len(mine), math.pi / 3, mine, 2000)
            for seed, s in zip(mine, sets):
                points = [(theta.hex(), phi.hex()) for theta, phi in s.angles]
                batched[seed] = ("saturated" if s.saturated else "placed", points)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected
        assert batched == {seed: (status, points) for seed, (status, _, points) in expected.items()}

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1, 2**32, 2**40 + 7, 10**30, -5])
    def test_random_state_matches_random(self, seed):
        # the seed's state, alone and behind another one in the pool
        for seeds in ([seed], [seed + 1, seed]):
            state = sphere._seeded_states(seeds)[-1]
            rng = random.Random(seed)
            expected = [rng.random() for _ in range(10_000)]
            assert state.random_sample(10_000).tolist() == expected


def _unit(theta, phi):
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


#: The jam test's cap cosine at 60 degrees, as random_separated_set asks it.
SIXTY_CAPS = math.cos(math.pi / 3) + sphere.SAMPLER_MARGIN


class _CountingState:
    """A sampler RandomState from the pool that counts the candidates drawn
    from it, two doubles each, under its seed."""

    def __init__(self, state, seed, drawn):
        self.state, self.seed, self.drawn = state, seed, drawn

    def random_sample(self, size):
        self.drawn[self.seed] += size // 2
        return self.state.random_sample(size)


def _first_row(outcome):
    """The bytes of the unit vector the sampler holds for the first point
    of an outcome in the form of `_scalar_loop`."""
    theta, phi = (float.fromhex(x) for x in outcome[2][0])
    return PointSet([SphericalPoint(theta, phi)]).vectors()[0].tobytes()


@pytest.fixture
def sampler_counts(monkeypatch):
    """Counts the candidates the sampler draws for each seed, and records
    each caps_cover call as (the set's first unit vector's bytes, which name
    the set, its size, the answer)."""
    counts = {"drawn": collections.Counter(), "tests": []}
    seeded, caps_cover = sphere._seeded_states, sphere.caps_cover

    def counted_states(seeds):
        states = seeded(seeds)
        return [_CountingState(state, seed, counts["drawn"]) for seed, state in zip(seeds, states)]

    def counted_cover(vectors, h):
        covered = caps_cover(vectors, h)
        counts["tests"].append((vectors[:1].tobytes(), len(vectors), covered))
        return covered

    monkeypatch.setattr(sphere, "_seeded_states", counted_states)
    monkeypatch.setattr(sphere, "caps_cover", counted_cover)
    return counts


class TestJamTest:
    """caps_cover decides whether 60-degree caps cover the sphere, and the
    sampler stops on it without changing what it returns or raises."""

    OCTAHEDRON = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
    )
    CUBE = np.array(
        [[x, y, z] for x in (1, -1) for y in (1, -1) for z in (1, -1)], dtype=float
    ) / math.sqrt(3.0)

    @pytest.mark.parametrize("name", ["octahedron", "cube", "icosahedron"])
    def test_regular_solids_are_covered(self, name):
        vectors = {
            "octahedron": self.OCTAHEDRON,
            "cube": self.CUBE,
            "icosahedron": icosahedron().vectors(),
        }[name]
        for seed in range(5):
            turned = vectors @ random_rotation(seed).T
            assert sphere.caps_cover(turned, SIXTY_CAPS)
            assert sphere.caps_cover(turned[::-1].copy(), SIXTY_CAPS)

    def test_octahedron_is_covered_just_above_its_covering_radius(self):
        # its covering radius is arccos(1/sqrt(3)), about 54.7 degrees
        assert sphere.caps_cover(self.OCTAHEDRON, 1.0 / math.sqrt(3.0) - 1e-9)
        assert not sphere.caps_cover(self.OCTAHEDRON, 1.0 / math.sqrt(3.0) + 1e-9)

    def test_five_points_never_cover(self):
        # the best five-point covering, the triangular bipyramid, needs caps
        # of 63.4 degrees
        bipyramid = np.array(
            [_unit(0.0, 0.0), _unit(math.pi, 0.0)]
            + [_unit(math.pi / 2, k * 2 * math.pi / 3) for k in range(3)]
        )
        assert not sphere.caps_cover(bipyramid, SIXTY_CAPS)
        assert sphere.caps_cover(bipyramid, math.cos(math.radians(63.5)))
        rng = np.random.default_rng(5)
        for _ in range(300):
            v = rng.normal(size=(5, 3))
            v /= np.linalg.norm(v, axis=1)[:, None]
            assert not sphere.caps_cover(v, SIXTY_CAPS)

    def test_fewer_than_four_points_never_cover(self):
        for k in range(4):
            assert not sphere.caps_cover(self.OCTAHEDRON[:k], 1e-3)

    def test_hemisphere_set_is_not_covered(self):
        # every point has z >= 0, so the south pole is outside every cap; a
        # test that turns each normal away from the origin misses it
        ring = [_unit(math.pi / 2, k * math.pi / 4) for k in range(8)]
        cap = [_unit(math.pi / 4, k * math.pi / 2) for k in range(4)] + [_unit(0.0, 0.0)]
        for vectors in (np.array(ring + cap), np.array(ring[::2] + cap)):
            assert not sphere.caps_cover(vectors, SIXTY_CAPS)
            assert not sphere.caps_cover(vectors, 1e-3)

    def test_covering_radius_just_under_sixty_degrees(self):
        # a triangle at colatitude r about the north pole, the triangle
        # turned by 60 degrees at colatitude 120 degrees, and the south
        # pole: the top facet is the farthest from the origin's caps, so
        # the covering radius is r, 1e-12 under 60 degrees
        r = math.pi / 3 - 1e-12
        vectors = np.array(
            [_unit(r, k * 2 * math.pi / 3) for k in range(3)]
            + [_unit(2 * math.pi / 3, (2 * k + 1) * math.pi / 3) for k in range(3)]
            + [_unit(math.pi, 0.0)]
        )
        assert not sphere.caps_cover(vectors, SIXTY_CAPS)
        assert sphere.caps_cover(vectors, math.cos(r) - 1e-9)
        assert not sphere.caps_cover(vectors, math.cos(r) + 1e-9)

    def test_repeated_point_is_not_covered(self):
        assert not sphere.caps_cover(np.concatenate((self.OCTAHEDRON, self.OCTAHEDRON[:1])), 0.5)

    def test_always_covered_breaks_the_block_test(self, monkeypatch):
        # the shortcut is only sound because caps_cover is: one that always
        # says "covered" stops sets that would still have grown
        monkeypatch.setattr(sphere, "caps_cover", lambda vectors, h: True)
        with pytest.raises(AssertionError):
            TestBlockTest().test_max_tries(2000)

    def test_jammed_seed_stops_early(self, monkeypatch, sampler_counts):
        def outcome():
            return _block_test(13, math.pi / 3, 0, 2000)

        jammed = outcome()
        assert jammed[0] == "saturated"
        # tested once through each entry point, and found jammed
        mine = _first_row(jammed)
        tests = [covered for first, _, covered in sampler_counts["tests"] if first == mine]
        assert tests == [True, True]
        drawn = sampler_counts["drawn"][0]
        monkeypatch.setattr(sphere, "JAM_TEST_POINTS", 0)
        sampler_counts["drawn"].clear()
        assert outcome() == jammed
        # at the stall the rest of max_tries is still to draw, less at most
        # the block the jam left unused, through each entry point
        assert sampler_counts["drawn"][0] >= drawn + 2 * (2000 - 2 * SAMPLER_BLOCK)

    def test_a_jam_ends_the_call(self, sampler_counts):
        # no test of a set follows one that found a jam, and a batch tests
        # each set as it is tested alone; the seeds give both answers
        tests = sampler_counts["tests"]
        alone = []
        for seed in range(40):
            before = len(tests)
            try:
                random_separated_set(12, math.pi / 3, seed, max_tries=4 * SAMPLER_BLOCK)
            except SaturationError:
                pass
            covered = [covered for _, _, covered in tests[before:]]
            assert True not in covered[:-1]
            alone += [covered] if covered else []
        assert True in sum(alone, []) and False in sum(alone, [])
        tests.clear()
        random_separated_sets([12] * 40, math.pi / 3, range(40), max_tries=4 * SAMPLER_BLOCK)
        per_set = collections.defaultdict(list)
        for first, _, covered in tests:
            per_set[first].append(covered)
        assert sorted(per_set.values()) == sorted(alone)

    def test_never_tested_above_the_point_cap(self, sampler_counts):
        # 40-degree sets jam at 16 to 19 points, past JAM_TEST_POINTS, and
        # stall on the way there too
        for seed in range(6):
            with pytest.raises(SaturationError) as info:
                random_separated_set(200, math.radians(40.0), seed, max_tries=2000)
            assert len(info.value.placed) > sphere.JAM_TEST_POINTS
        for s in random_separated_sets([200] * 6, math.radians(40.0), range(6), max_tries=2000):
            assert s.saturated and len(s.angles) > sphere.JAM_TEST_POINTS
        tested = [k for _, k, _ in sampler_counts["tests"]]
        assert tested and max(tested) <= sphere.JAM_TEST_POINTS

    def test_never_tested_past_a_right_angle(self, sampler_counts):
        # cos(min_sep) < 0: the caps are more than hemispheres
        for min_sep in (1.6, 2.0, 3.0):
            for seed in range(5):
                with pytest.raises(SaturationError):
                    random_separated_set(12, min_sep, seed, max_tries=2000)
            sets = random_separated_sets([12] * 5, min_sep, range(5), max_tries=2000)
            assert all(s.saturated for s in sets)
        assert sampler_counts["tests"] == []

    def test_sets_carry_their_vectors(self):
        sets = [random_separated_set(6, math.pi / 3, seed) for seed in range(10)]
        for seed in range(10):
            with pytest.raises(SaturationError) as info:
                random_separated_set(13, math.pi / 3, seed, max_tries=2000)
            sets.append(info.value.placed)
        for ps in sets:
            carried = ps.vectors()
            assert carried.tobytes() == PointSet(ps.points).vectors().tobytes()
            carried[0] = 0.0  # a copy: the set's own rows stay as they were
            assert ps.vectors().tobytes() == PointSet(ps.points).vectors().tobytes()
        batch = random_separated_sets([6] * 10 + [13] * 10, math.pi / 3, list(range(10)) * 2, 2000)
        for ps, s in zip(sets, batch):
            assert s.vectors.tobytes() == ps.vectors().tobytes()
            assert PointSet(SphericalPoint(*p) for p in s.angles).points == ps.points


def _rejections(n, min_sep, seed, max_tries):
    """The rejections of `_scalar_loop`'s run, in draw order, each as (the
    rejections its stall has counted with it, the points placed, the largest
    scalar cosine from the candidate to them, and the sums the scalar rule
    clamps for it, up to the first that rejects it)."""
    uniform = random.Random(seed).uniform
    accepted, rejections, out = [], 0, []
    while len(accepted) < n and rejections < max_tries:
        theta = math.acos(uniform(-1.0, 1.0))
        phi = uniform(0.0, 2.0 * math.pi) % (2.0 * math.pi)
        ct, st = math.cos(theta), math.sin(theta)
        sums = [ct * q_ct + st * q_st * math.cos(phi - q_phi) for _, q_phi, q_ct, q_st in accepted]
        close = [math.acos(min(max(c, -1.0), 1.0)) < min_sep for c in sums]
        if any(close):
            rejections += 1
            out.append((rejections, len(accepted), max(sums), sums[: close.index(True) + 1]))
        else:
            accepted.append((theta, phi, ct, st))
            rejections = 0
    return out


class TestStopRuleEdges:
    """A rejection by the scalar rule counts toward max_tries and the jam
    test as one by the filter does: as the max_tries-th rejection of a stall
    it stops the set, and as the SAMPLER_BLOCK-th it triggers the jam test,
    at that candidate.  A band of 0.2 around cos(60 degrees) sends every
    candidate whose largest cosine lies in (0.3, 0.7] to the scalar rule."""

    MARGIN = 0.2

    def _scalar_decided(self, largest):
        # clear of the band's edge by more than the filter's error
        return largest < math.cos(math.pi / 3) + self.MARGIN - 1e-6

    def test_scalar_rejection_reaches_max_tries(self, monkeypatch):
        monkeypatch.setattr(sphere, "SAMPLER_MARGIN", self.MARGIN)
        clamped = []
        monkeypatch.setattr(sphere, "_clamp", lambda x: clamped.append(x) or min(max(x, -1.0), 1.0))
        cases = 0
        for seed in range(6):
            longest = 0
            for count, _, largest, sums in _rejections(13, math.pi / 3, seed, 600):
                # the first rejection to reach `count`: max_tries = count stops the set there
                if count > longest and self._scalar_decided(largest):
                    expected = _scalar_loop(13, math.pi / 3, seed, count)
                    assert expected[0] == "saturated"
                    assert _block_test(13, math.pi / 3, seed, count) == expected, (seed, count)
                    clamped.clear()
                    with pytest.raises(SaturationError):
                        random_separated_set(13, math.pi / 3, seed, count)
                    assert clamped[-len(sums) :] == sums  # the scalar rule's last test
                    cases += 1
                longest = max(longest, count)
        assert cases > 50

    def test_scalar_rejection_triggers_the_jam_test(self, monkeypatch, sampler_counts):
        # max_tries over two blocks: no run of rejections reaches both it
        # and SAMPLER_BLOCK, where max_tries would stop the set untested
        monkeypatch.setattr(sphere, "SAMPLER_MARGIN", self.MARGIN)
        answers = []
        for seed in range(150):
            for count, placed, largest, _ in _rejections(13, math.pi / 3, seed, 1100):
                if count == SAMPLER_BLOCK and self._scalar_decided(largest):
                    expected = _scalar_loop(13, math.pi / 3, seed, 1100)
                    sampler_counts["tests"].clear()
                    assert _block_test(13, math.pi / 3, seed, 1100) == expected, seed
                    # tested once through each entry point on the points
                    # placed then, the one test of that stall
                    mine = [
                        covered
                        for first, k, covered in sampler_counts["tests"]
                        if first == _first_row(expected) and k == placed
                    ]
                    assert len(mine) == 2 and mine[0] == mine[1], seed
                    answers.append(mine[0])
        assert len(answers) >= 10


def test_more_points_than_one_block():
    # more points than a round draws candidates: at 0.002 rad the caps allow
    # about 1.6 million points, so the row is the target's n columns wide
    n = 2 * SAMPLER_BLOCK + 1
    expected = _scalar_loop(n, 0.002, 3, 2000)
    assert expected[0] == "placed"
    assert _block_test(n, 0.002, 3, 2000) == expected


def test_growth_keeps_the_finished_sets():
    # the sets of 2, 3 and 5 points finish in the first round, in rows as
    # wide as the one of 2 SAMPLER_BLOCK + 1 points, which takes many more;
    # each set still equals its one-set call bit for bit
    sizes, seeds = [2, 3, 2 * SAMPLER_BLOCK + 1, 5], [7, 8, 3, 9]
    batch = random_separated_sets(sizes, 0.002, seeds, 2000)
    assert [len(s.angles) for s in batch] == sizes
    for n, seed, s in zip(sizes, seeds, batch):
        (alone,) = random_separated_sets([n], 0.002, [seed], 2000)
        assert [(t.hex(), p.hex()) for t, p in s.angles] == [
            (t.hex(), p.hex()) for t, p in alone.angles
        ]
        assert s.vectors.shape == (n, 3)
        assert s.vectors.tobytes() == alone.vectors.tobytes()
        assert s.saturated is alone.saturated is False


@pytest.mark.parametrize(
    "sizes, min_sep, width",
    [
        # 1 + floor(1 / sin^2(min_sep / 4)) columns where the targets are wider
        ([10**15], math.pi / 3, 15),
        ([10**400], math.pi / 3, 15),
        ([200, 3], math.radians(40.0), 34),
        ([3, 2], math.pi, 3),
        # the largest target where it is no wider
        ([3, 12], math.pi / 3, 12),
        ([2], math.pi, 2),
        ([10], 0.0, 10),
        ([10], 5e-324, 10),
        ([10], 1e-161, 10),
    ],
)
def test_rows_are_as_wide_as_the_caps_allow(monkeypatch, sizes, min_sep, width):
    # caps of radius min_sep / 2 around a set's points are disjoint and each
    # covers sin^2(min_sep / 4) of the sphere; the sets still place what the
    # scalar loop places
    shapes, zeros = [], np.zeros
    monkeypatch.setattr(np, "zeros", lambda shape: shapes.append(shape) or zeros(shape))
    sets = random_separated_sets(sizes, min_sep, range(len(sizes)), 600)
    assert shapes == [(len(sizes), width, 3)]
    for n, seed, s in zip(sizes, range(len(sizes)), sets):
        status, _, points = _scalar_loop(n, min_sep, seed, 600)
        assert [(t.hex(), p.hex()) for t, p in s.angles] == points
        assert s.saturated == (status == "saturated")


def _battery_digest(batches):
    """SHA-256 over what random_separated_sets returns for seeded batches of
    1-12 sets of 1-40 points, at no separation, 40 or 60 degrees, pi or a
    uniform one, and max_tries from 0 to 3000: each set's angles, the bytes
    of its vectors and whether it saturated."""
    rng = random.Random(2004)
    digest = hashlib.sha256()
    for _ in range(batches):
        count = rng.randint(1, 12)
        sizes = [rng.randint(1, 40) for _ in range(count)]
        seeds = [rng.randrange(-(2**40), 2**40) for _ in range(count)]
        choices = [0.0, math.pi / 3, math.pi, math.radians(40.0), rng.uniform(0.0, math.pi)]
        min_sep = rng.choice(choices)
        max_tries = rng.randint(0, 3000)
        for s in random_separated_sets(sizes, min_sep, seeds, max_tries):
            digest.update(repr([(t.hex(), p.hex()) for t, p in s.angles]).encode())
            digest.update(s.vectors.tobytes())
            digest.update(b"S" if s.saturated else b"P")
    return digest.hexdigest()


def test_seeded_battery_keeps_its_draws():
    # the hash of the sampler whose rounds doubled from 32 candidates to 512
    # and whose rows grew as they filled: the draws, the decisions and the
    # stops never depend on the block sizes or the rows' width
    assert _battery_digest(400) == (
        "8a308f929ec3b653ccf104fdfa3ca60be2050270382e7a4de0b5b2d48fdc0f77"
    )


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

    #: Each bad line's message: values as the file wrote them, in degrees.
    BAD_LINES = {
        "10 nan": "azimuth not finite: nan degrees",
        "10 inf": "azimuth not finite: inf degrees",
        "nan 10": "colatitude out of range: nan degrees",
        "200 10": "colatitude out of range: 200 degrees",
        "10 x": "could not convert string to float: 'x'",
        "-1e-9 10": "colatitude out of range: -1e-9 degrees",
        "180.0000000001 10": "colatitude out of range: 180.0000000001 degrees",
    }

    @pytest.mark.parametrize("line", BAD_LINES)
    def test_bad_point_names_its_line(self, line):
        with pytest.raises(ValueError) as info:
            parse_points(f"0 0\n{line}\n")
        assert str(info.value) == f"line 2: {self.BAD_LINES[line]}"

    def test_colatitude_range_ends_parse(self):
        ps = parse_points("0 0\n180 359.5\n")
        assert [p.theta for p in ps] == [0.0, math.pi]

