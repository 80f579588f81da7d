import json
import math
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kiss3.certificate import build_certificate
from kiss3.energy import (
    EVAL_CHUNK,
    EnergySummary,
    PerPoint,
    _eval_f,
    check_lemma2,
    check_lemma3,
    energy,
    energy_json,
    lemma1_holds,
    lemma3_holds,
    linearity_gap,
    point_energies,
    set_energies,
)
from kiss3.errors import SaturationError, SeparationViolation
from kiss3.harness import perturbed_coeffs
from kiss3.legendre import gegenbauer_sums
from kiss3.polynomial import RationalPoly
from kiss3.sphere import (
    CosineBatch,
    PointSet,
    SphericalPoint,
    icosahedron,
    random_point,
    random_separated_set,
)


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


def random_point_set(rng, n):
    return PointSet(random_point(rng) for _ in range(n))


def separated_sets(n, count, start_seed=0):
    """Collect `count` separated sets of size n, skipping seeds where the
    rejection sampler saturates."""
    out = []
    seed = start_seed
    while len(out) < count:
        try:
            out.append(random_separated_set(n, math.pi / 3, seed=seed, max_tries=3000))
        except SaturationError:
            pass
        seed += 1
    return out


class TestEnergy:
    def test_single_point(self, cert):
        summary = energy(PointSet([SphericalPoint(0.7, 1.2)]), cert)
        assert summary.S == pytest.approx(10.11, abs=1e-12)
        assert math.isnan(summary.min_sep)

    def test_antipodal_pair(self, cert):
        ps = PointSet([SphericalPoint(0.0, 0.0), SphericalPoint(math.pi, 0.0)])
        summary = energy(ps, cert)
        # 2 f(1) + 2 f(-1) = 2 * 12.88
        assert summary.S == pytest.approx(25.76, abs=1e-9)

    def test_icosahedron(self, cert):
        summary = energy(icosahedron(), cert)
        assert summary.S == pytest.approx(144.0, abs=1e-6)
        assert summary.n == 12
        assert summary.S < 13 * 12

    def test_rotation_invariance(self, cert):
        ps = random_separated_set(7, math.pi / 3, seed=17)
        s0 = energy(ps, cert).S
        for seed in range(4):
            s1 = energy(rotated(ps, random_rotation(seed)), cert).S
            assert s1 == pytest.approx(s0, rel=1e-9)

    def test_per_point_sums_to_total(self, cert):
        rng = random.Random(51)
        for _ in range(20):
            ps = random_point_set(rng, rng.randint(1, 12))
            summary = energy(ps, cert)
            assert sum(r.S_i for r in summary.per_point) == pytest.approx(
                summary.S, rel=1e-12
            )

    def test_j_sets_are_small(self, cert):
        for ps in separated_sets(8, 5):
            summary = energy(ps, cert)
            for rec in summary.per_point:
                assert len(rec.J_i) <= 4

    def test_per_point_view(self):
        # one PerPoint row per point: floats, and J_i the true columns of
        # the point's mask row as a tuple of Python ints
        summary = EnergySummary(
            n=3,
            S=4.5,
            S_i=np.array([0.5, 1.5, 2.5]),
            T_i=np.array([1.0, 2.0, 3.0]),
            deep=np.array([[False, False, True], [False, False, False], [True, True, False]]),
            min_sep=0.1,
        )
        rows = summary.per_point
        assert rows == (PerPoint(0.5, 1.0, (2,)), PerPoint(1.5, 2.0, ()), PerPoint(2.5, 3.0, (0, 1)))
        assert {type(x) for r in rows for x in (r.S_i, r.T_i, *r.J_i)} == {float, int}

    def test_s_i_below_t_i_for_separated_sets(self, cert):
        for ps in separated_sets(9, 10, start_seed=100):
            summary = energy(ps, cert)
            for rec in summary.per_point:
                assert rec.S_i <= rec.T_i + 1e-9
                assert rec.T_i < 13.0


#: The unit roundoff of a float.
U = 2.0**-53


def _sum(terms):
    """The correctly rounded sum of `terms`, and the standard bound N u
    sum |terms| on the error of any sum of those N terms by N - 1 floating
    additions, in any order."""
    terms = [float(t) for t in terms]
    return math.fsum(terms), len(terms) * U * math.fsum(map(abs, terms))


def _loop_energy(ps, c):
    """energy() as a Python loop over rows and pairs: f by np.polyval, each
    sum correctly rounded with its error bound (`_sum`), J(i) by a pair
    test and T_i as f(1) plus the sum over J(i)."""
    n = len(ps)
    cosm = CosineBatch.of(ps).cos.reshape(n, n)
    sep = float(np.arccos(cosm[np.triu_indices(n, 1)].max())) if n >= 2 else math.nan
    values = np.polyval([float(x) for x in reversed(c.f.coeffs)], cosm)
    f_at_1 = float(c.f.eval(1))
    np.fill_diagonal(values, f_at_1)
    threshold = -c.t0.lo
    per_point = []
    for i in range(n):
        J_i = tuple(j for j in range(n) if j != i and cosm[i, j] < threshold)
        T_i = _sum([f_at_1] + [values[i, j] for j in J_i])
        per_point.append((_sum(values[i]), T_i, J_i))
    return n, _sum(values.ravel()), sep, per_point


def _assert_energy_matches_loop(ps, c):
    """energy() has the loop's n, min_sep and J(i) bit for bit, and each S,
    S_i and T_i within its sum's error bound of the loop's."""
    n, S, sep, per_point = _loop_energy(ps, c)
    summary = energy(ps, c)
    assert (summary.n, summary.min_sep.hex()) == (n, sep.hex())
    assert [r.J_i for r in summary.per_point] == [J_i for _, _, J_i in per_point]
    got = [summary.S] + [x for r in summary.per_point for x in (r.S_i, r.T_i)]
    expected = [S] + [x for S_i, T_i, _ in per_point for x in (S_i, T_i)]
    for value, (exact, bound) in zip(got, expected, strict=True):
        assert abs(value - exact) <= bound
    return per_point


class TestWholeArrayEnergy:
    """energy() matches the loop: n, min_sep and J(i) bit for bit, and S,
    S_i and T_i within the summation error bound, as the order in which
    numpy adds the terms is its own."""

    def test_small_sets(self, cert):
        rng = random.Random(55)
        empty = full = 0
        for n in range(1, 41):
            for _ in range(3):
                per_point = _assert_energy_matches_loop(random_point_set(rng, n), cert)
                empty += sum(1 for _, _, J in per_point if not J)
                full += sum(1 for _, _, J in per_point if J)
        assert empty > 0 and full > 0

    def test_icosahedron(self, cert):
        _assert_energy_matches_loop(icosahedron(), cert)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_thousand_points(self, cert, seed):
        _assert_energy_matches_loop(random_point_set(random.Random(seed), 1000), cert)

    def test_no_deep_pairs(self, cert):
        # every point within 20 degrees of the pole: no J(i) has a member
        rng = random.Random(56)
        ps = PointSet(
            SphericalPoint(rng.uniform(0.0, math.radians(10.0)), rng.uniform(0.0, 6.0))
            for _ in range(15)
        )
        per_point = _assert_energy_matches_loop(ps, cert)
        assert all(not J for _, _, J in per_point)


class TestLemma2:
    def test_random_sets(self, cert):
        rng = random.Random(52)
        for _ in range(200):
            assert check_lemma2(random_point_set(rng, rng.randint(1, 16)), cert)

    def test_icosahedron_is_tight(self, cert):
        summary = energy(icosahedron(), cert)
        assert summary.S >= 144.0 * (1 - 1e-9)
        assert summary.S <= 144.0 * (1 + 1e-9)

    def test_linearity_bridge(self, cert):
        rng = random.Random(53)
        for _ in range(30):
            ps = random_point_set(rng, rng.randint(1, 12))
            assert linearity_gap(ps, cert) <= 1e-8 * len(ps) ** 2


class TestLemma3:
    def test_separated_sets(self, cert):
        for ps in separated_sets(8, 20):
            assert check_lemma3(ps, cert)

    def test_icosahedron(self, cert):
        assert check_lemma3(icosahedron(), cert)

    def test_separation_violation(self, cert):
        ps = PointSet([SphericalPoint(0.0, 0.0), SphericalPoint(math.radians(50), 0.0)])
        with pytest.raises(SeparationViolation):
            check_lemma3(ps, cert)


def _batch(sets):
    return CosineBatch(np.concatenate([ps.vectors() for ps in sets]), [len(ps) for ps in sets])


class TestLemma3Batch:
    def test_sums_match_energy(self, cert):
        # unconstrained sets, so that many rows have deep terms in T_i; a
        # set's S, S_i and T_i are energy()'s bit for bit, in a mixed batch
        rng = random.Random(57)
        sets = [random_point_set(rng, n) for n in list(range(1, 41)) * 4]
        S, S_i, T_i, _ = point_energies(_batch(sets), cert)
        assert len(S) == len(sets) and len(S_i) == len(T_i) == sum(map(len, sets))
        first = deep = 0
        for ps, s in zip(sets, S.tolist()):
            summary = energy(ps, cert)
            assert s.hex() == summary.S.hex()
            rows, points = summary.per_point, slice(first, first + len(ps))
            assert S_i[points].tobytes() == np.array([r.S_i for r in rows]).tobytes()
            assert T_i[points].tobytes() == np.array([r.T_i for r in rows]).tobytes()
            deep += sum(bool(r.J_i) for r in rows)
            first += len(ps)
        assert deep > 20

    def test_deep_mask(self, cert):
        # the mask is the batch's cosines below -t0.lo, flat as they are, and
        # each set's rows of it are energy()'s J(i); point_energies spends
        # the batch, so the expected mask is taken before the call
        rng = random.Random(59)
        sets = [random_point_set(rng, n) for n in list(range(1, 41)) * 2]
        batch = _batch(sets)
        expected = batch.cos < -cert.t0.lo
        deep = point_energies(batch, cert)[3]
        assert deep.dtype == bool and np.array_equal(deep, expected)
        assert not deep[batch.diagonal].any() and deep.sum() > 100
        # at the edge, in a fresh batch: -t0.lo itself is not deep, and the
        # next float below is
        edge = [-cert.t0.lo, math.nextafter(-cert.t0.lo, -1.0)]
        fresh = _batch(sets)
        fresh.cos[fresh.starts[-1] + 1 : fresh.starts[-1] + 3] = edge
        assert point_energies(fresh, cert)[3][fresh.starts[-1] + 1 :][:2].tolist() == [False, True]
        for ps, start in zip(sets, batch.starts.tolist()):
            n = len(ps)
            rows = deep[start : start + n * n].reshape(n, n)
            assert [tuple(np.flatnonzero(row)) for row in rows] == [
                r.J_i for r in energy(ps, cert).per_point
            ]

    def test_holds_on_separated_sets(self, cert):
        sets = []
        for seed in range(60):
            try:
                sets.append(random_separated_set(2 + seed % 11, math.pi / 3, seed=seed))
            except SaturationError as exc:
                sets.append(exc.placed)
        assert {len(ps) for ps in sets} == set(range(2, 11))
        sum_holds, chain_holds = lemma3_holds(_batch(sets), cert)
        assert sum_holds.tolist() == chain_holds.tolist() == [True] * len(sets)

    def test_first_close_set_raises(self, cert):
        # the middle set repeats a point and the last is 30 degrees apart;
        # the first close set is reported, as check_lemma3 reports it alone
        a, b = SphericalPoint(0.3, 0.4), SphericalPoint(2.0, 1.0)
        repeated = PointSet([a, b, SphericalPoint(a.theta, a.phi)])
        close = PointSet([a, SphericalPoint(a.theta + math.pi / 6, a.phi)])
        with pytest.raises(SeparationViolation) as alone:
            check_lemma3(repeated, cert)
        sets = [icosahedron(), repeated, PointSet([b]), close]
        with pytest.raises(SeparationViolation, match=f"^{re.escape(str(alone.value))}$"):
            lemma3_holds(_batch(sets), cert)

    def test_empty_set(self, cert):
        with pytest.raises(ValueError, match="every set needs a point"):
            check_lemma3(PointSet([]), cert)
        with pytest.raises(ValueError, match="every set needs a point"):
            check_lemma2(PointSet([]), cert)


class TestLemma1:
    def test_sums_nonnegative(self, lemma1_sums):
        rng = random.Random(54)
        for _ in range(100):
            ps = random_point_set(rng, rng.randint(1, 12))
            sums = lemma1_sums(ps)
            assert len(sums) == 10
            assert all(v >= -1e-9 * len(ps) ** 2 for v in sums)

    def test_kmax_cap(self):
        batch = CosineBatch.of(icosahedron())
        with pytest.raises(ValueError):
            gegenbauer_sums(batch.cos, batch.starts, [13])

    def test_threshold(self, lemma1_sums):
        # an antipodal pair has a Gegenbauer sum of exactly 0 at k = 1
        pair = PointSet([SphericalPoint(0.0, 0.0), SphericalPoint(math.pi, 0.0)])
        sums = np.array([lemma1_sums(pair)]).T
        assert sums[1, 0] == 0.0
        assert lemma1_holds(sums, np.array([2])).tolist() == [True]
        slack = 1e-9 * 2**2
        sums[1, 0] = -0.5 * slack
        assert lemma1_holds(sums, np.array([2])).tolist() == [True]
        sums[1, 0] = -2.0 * slack
        assert lemma1_holds(sums, np.array([2])).tolist() == [False]


class TestJsonExport:
    """energy_json writes the bytes of json's indented encoder."""

    def test_fields(self, cert, energy_report_difference):
        summary = energy(icosahedron(), cert)
        assert energy_report_difference(energy_json(summary), summary) is None
        d = json.loads(energy_json(summary))
        assert d["n"] == 12
        assert d["S"] == pytest.approx(144.0, abs=1e-6)
        assert d["min_sep_deg"] == pytest.approx(63.4349, abs=1e-3)
        assert len(d["per_point"]) == 12

    def test_no_points(self, cert, energy_report_difference):
        summary = energy(PointSet([]), cert)
        assert (summary.n, summary.S, summary.per_point) == (0, 0.0, ())
        assert math.isnan(summary.min_sep)
        text = energy_json(summary)
        assert energy_report_difference(text, summary) is None
        assert '"per_point": []' in text

    def test_singleton_min_sep_null(self, cert, energy_report_difference):
        summary = energy(PointSet([SphericalPoint(0.1, 0.2)]), cert)
        text = energy_json(summary)
        assert energy_report_difference(text, summary) is None
        assert '"min_sep_deg": null' in text and '"J_i": []' in text

    def test_empty_and_full_j_sets(self, cert, energy_report_difference):
        # a cluster near each pole: J(i) is the far cluster, or empty for a
        # point alone near the equator
        ps = PointSet(
            [SphericalPoint(0.1 * k, k) for k in range(3)]
            + [SphericalPoint(math.pi - 0.1 * k, k) for k in range(4)]
            + [SphericalPoint(math.pi / 2, 1.0)]
        )
        summary = energy(ps, cert)
        sizes = {len(r.J_i) for r in summary.per_point}
        assert 0 in sizes and max(sizes) > 1
        assert energy_report_difference(energy_json(summary), summary) is None

    def test_non_finite_floats(self, energy_report_difference):
        # json's spelling of nan and the infinities, as a summary may hold
        summary = EnergySummary(
            n=2,
            S=math.inf,
            S_i=np.array([math.nan, 0.1]),
            T_i=np.array([-math.inf, 1e300]),
            deep=np.array([[False, True], [False, False]]),
            min_sep=0.5,
        )
        assert energy_report_difference(energy_json(summary), summary) is None

    @pytest.mark.parametrize("S_i", [math.nan, math.inf, -math.inf, -0.0, 5e-324])
    @pytest.mark.parametrize("T_i", [math.nan, math.inf, -math.inf, 1.0 / 3.0])
    def test_non_finite_per_point_values(self, energy_report_difference, S_i, T_i):
        # the per-point floats share one encode; each keeps its own spelling
        # wherever it stands in the list
        summary = EnergySummary(
            n=3,
            S=math.nan,
            S_i=np.array([S_i, T_i, 1e-300]),
            T_i=np.array([T_i, S_i, -2.5]),
            deep=np.array([[False, False, True], [False, False, False], [True, True, False]]),
            min_sep=math.inf,
        )
        assert energy_report_difference(energy_json(summary), summary) is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_thousand_points(self, cert, energy_report_difference, seed):
        summary = energy(random_point_set(random.Random(seed), 1000), cert)
        assert energy_report_difference(energy_json(summary), summary) is None

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 99, 100, 101, 1000, 1001])
    def test_every_index_width(self, cert, energy_report_difference, n):
        # n on either side of each index width: the widest index of the
        # table is n - 1, and every narrower one is NUL-padded to it
        summary = energy(random_point_set(random.Random(n), n), cert)
        assert energy_report_difference(energy_json(summary), summary) is None

    def test_clustered_rows(self, cert, energy_report_difference):
        # 40 points by the north pole, 20 on a 60-degree arc of the equator
        # and 41 by the south pole: each polar row holds the other cap, the
        # first and the last index among them, and every equatorial row is
        # empty
        rng = random.Random(63)
        north = [SphericalPoint(rng.uniform(0.0, 0.15), rng.uniform(0.0, 6.0)) for _ in range(40)]
        arc = [SphericalPoint(math.pi / 2, rng.uniform(0.0, math.pi / 3)) for _ in range(20)]
        south = [
            SphericalPoint(math.pi - rng.uniform(0.0, 0.15), rng.uniform(0.0, 6.0))
            for _ in range(41)
        ]
        summary = energy(PointSet(north + arc + south), cert)
        J = [r.J_i for r in summary.per_point]
        assert J[:40] == [tuple(range(60, 101))] * 40 and J[60:] == [tuple(range(40))] * 41
        assert J[40:60] == [()] * 20
        assert energy_report_difference(energy_json(summary), summary) is None


def _cosines_with_both_ends():
    """A full cosine matrix of random points and the two poles: entries of
    exactly 1 (the diagonal) and -1 (the poles) among the rest."""
    rng = random.Random(59)
    points = [random_point(rng) for _ in range(300)]
    ps = PointSet(points + [SphericalPoint(0.0, 0.0), SphericalPoint(math.pi, 0.0)])
    cosm = CosineBatch.of(ps).cos.reshape(len(ps), len(ps))
    assert cosm.min() == -1.0 and cosm.max() == 1.0
    return cosm


class TestEvalF:
    """_eval_f's in-place Horner steps give np.polyval's bits."""

    @pytest.fixture(scope="class", params=["default", "perturbed"])
    def certificate(self, request, cert):
        if request.param == "default":
            return cert
        return build_certificate(perturbed_coeffs(9, Fraction(1, 100)))

    def test_cosine_matrix(self, certificate):
        cosm = _cosines_with_both_ends()
        expected = np.polyval(certificate.f.real_coeffs(), cosm)
        assert np.array_equal(_eval_f(cosm, certificate), expected)

    def test_cosine_batch(self, certificate):
        rng = random.Random(60)
        sets = [random_point_set(rng, n) for n in range(1, 13)]
        batch = _batch(sets + [icosahedron()])
        expected = np.polyval(certificate.f.real_coeffs(), batch.cos)
        assert np.array_equal(_eval_f(batch.cos, certificate), expected)

    @pytest.mark.parametrize(
        "size", [1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1, 2 * EVAL_CHUNK + 5]
    )
    def test_flat_cosines(self, certificate, size):
        # one chunk, exactly one, and a partial last chunk after full ones
        cos = np.random.default_rng(size).uniform(-1.0, 1.0, size)
        cos[0] = -1.0
        expected = np.polyval(certificate.f.real_coeffs(), cos)
        assert np.array_equal(_eval_f(cos, certificate), expected)


class TestEvalFInPlace:
    """_eval_f writes f over the array it is given and returns that array,
    with np.polyval's bits, for f of any degree and across slice ends."""

    @pytest.fixture(scope="class", params=["paper", "constant", "linear"])
    def certificate(self, request, cert):
        f = {
            "paper": cert.f,
            "constant": RationalPoly([Fraction(3, 7)]),
            "linear": RationalPoly([Fraction(1, 3), Fraction(-5, 11)]),
        }[request.param]
        return replace(cert, f=f)

    @pytest.mark.parametrize(
        "size", [1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1, 3 * EVAL_CHUNK + 7]
    )
    def test_polyval_bits(self, certificate, size):
        x = np.random.default_rng(size).uniform(-1.0, 1.0, size)
        x[0] = -1.0
        expected = np.polyval(certificate.f.real_coeffs(), x)
        assert _eval_f(x, certificate) is x
        assert x.tobytes() == expected.tobytes()


class TestSpentBatch:
    """The energy kernels evaluate f over the batch's own cosines."""

    @pytest.mark.parametrize("kernel", [set_energies, point_energies])
    def test_spent_batch_has_no_cosines(self, cert, kernel):
        batch = CosineBatch.of(icosahedron())
        kernel(batch, cert)
        with pytest.raises(AttributeError):
            batch.cos

    @pytest.mark.parametrize("n", [181, 182])
    def test_energy_matches_out_of_place_reference(self, cert, n):
        # n^2 on either side of EVAL_CHUNK: one slice, and one full slice
        # and a partial one; the reference is np.polyval into a new array
        # and the same reduceat calls
        assert (n * n < EVAL_CHUNK) == (n == 181)
        ps = random_point_set(random.Random(n), n)
        batch = CosineBatch.of(ps)
        values = np.polyval(cert.f.real_coeffs(), batch.cos)
        values[batch.diagonal] = cert.f_at_1
        rows = np.arange(n) * n
        S_i = np.add.reduceat(values, rows)
        T_i = cert.f_at_1 + np.add.reduceat(values * (batch.cos < -cert.t0.lo), rows)
        summary = energy(ps, cert)
        assert summary.S.hex() == float(np.add.reduceat(values, [0])[0]).hex()
        assert np.array([r.S_i for r in summary.per_point]).tobytes() == S_i.tobytes()
        assert np.array([r.T_i for r in summary.per_point]).tobytes() == T_i.tobytes()
        assert sum(bool(r.J_i) for r in summary.per_point) > n // 2

    def test_energy_holds_one_float_array(self, cert):
        # the n x n cosines become f's values in place, and the summary
        # keeps the n^2 bytes of mask, so the traced peak is about 8 n^2
        # bytes of floats and n^2 of mask; a second n x n float array reads
        # 2.1
        n = 1000
        rng = random.Random(62)
        ps = random_point_set(rng, n)
        energy(random_point_set(rng, 5), cert)  # imports and cached coefficients
        tracemalloc.start()
        try:
            energy(ps, cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * n * n

    def test_report_render_frees_as_it_goes(self, cert):
        # the render's large intermediates (the gather, its bytes, the bytes
        # without NULs, the text) live two at a time, so the traced peak
        # is about 2.3 report sizes at 1,000 points; three at a time would
        # read about 3.3
        summary = energy(random_point_set(random.Random(64), 1000), cert)
        energy_json(summary)  # imports
        tracemalloc.start()
        try:
            text = energy_json(summary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * len(text)
