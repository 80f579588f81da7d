import json
import math
import random
from dataclasses import replace
from fractions import Fraction as Fr
from functools import lru_cache

import numpy as np
import pytest

from kiss3 import harness, sphere
from kiss3.energy import energy, expansion_energies, set_energies
from kiss3.errors import SaturationError, SeparationViolation
from kiss3.harness import (
    ALL_SUITES,
    LEMMA_BLOCK,
    RunConfig,
    SCHEMA_VERSION,
    SuiteResult,
    _random_set_counts,
    _random_sets,
    _suite_lemma1,
    _suite_lemma2,
    _suite_lemma3,
    emit_table,
    perturbed_coeffs,
    run,
)
from kiss3.legendre import addition_weights, gegenbauer_sums, legendre, to_legendre_basis
from kiss3.polynomial import RationalPoly
from kiss3.sphere import CosineBatch, PointSet, random_point, random_separated_set, unit_vectors

FAST = dict(lemma1_sets=50, lemma3_sets=10)


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            RunConfig(suites=("certificate", "nope")).validate()

    @pytest.mark.parametrize("field", ["lemma1_sets", "lemma3_sets"])
    def test_negative_set_count(self, field):
        RunConfig(**{field: 0}).validate()
        with pytest.raises(ValueError):
            RunConfig(**{field: -5}).validate()


class TestPartialRuns:
    def test_lemma1_only_has_no_conclusion(self):
        report = run(RunConfig(suites=("lemma1",), **FAST))
        assert report.ok
        assert report.conclusion is None
        assert set(report.suites) == {"lemma1"}

    def test_certificate_only(self):
        report = run(RunConfig(suites=("certificate",)))
        assert report.ok
        assert report.conclusion is None
        assert report.certificate_summary["degree"] == 9

    def test_theorem_sets_conclusion(self):
        report = run(RunConfig(suites=("certificate", "theorem"), **FAST))
        assert report.ok
        assert report.conclusion == 12


class TestCounts:
    """A check with nothing to test counts as skipped, not passed."""

    @pytest.mark.parametrize(
        "suite, field, counts",
        [
            ("lemma1", "lemma1_sets", (1, 0, 1)),
            ("lemma2", "lemma1_sets", (0, 0, 2)),
            ("lemma3", "lemma3_sets", (0, 0, 1)),
        ],
    )
    def test_zero_sets_skip(self, suite, field, counts):
        report = run(RunConfig(suites=(suite,), **{field: 0}))
        s = report.suites[suite]
        assert (s.passed, s.failed, s.skipped) == counts
        assert report.ok

    @pytest.mark.parametrize(
        "suites, counts", [(("refine",), (2, 0, 2)), (("bounds", "refine"), (4, 0, 0))]
    )
    def test_refine_cross_checks_need_the_table(self, suites, counts):
        report = run(RunConfig(suites=suites))
        s = report.suites["refine"]
        assert (s.passed, s.failed, s.skipped) == counts
        assert (report.bound_table is None) == ("bounds" not in suites)


class TestDeterminism:
    def test_json_byte_identical(self):
        cfg = dict(suites=("certificate", "lemma1", "lemma2", "lemma3"), seed=7, **FAST)
        a = run(RunConfig(**cfg)).to_json()
        b = run(RunConfig(**cfg)).to_json()
        assert a == b

    def test_schema_version(self):
        report = run(RunConfig(suites=("certificate",)))
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == SCHEMA_VERSION == 2
        assert payload["config"]["seed"] == 42

    def test_config_keys(self):
        payload = json.loads(run(RunConfig(suites=("certificate",))).to_json())
        assert sorted(payload["config"]) == ["lemma1_sets", "lemma3_sets", "seed", "suites"]


class TestNegativeControls:
    def test_perturbed_leading_coefficient(self):
        coeffs = perturbed_coeffs(9, Fr(1, 100))
        report = run(RunConfig(suites=("certificate",), f_coeffs=coeffs))
        assert not report.ok
        assert report.suites["certificate"].failed > 0

    def test_negative_perturbation_breaks_construction(self):
        coeffs = perturbed_coeffs(9, Fr(-1, 100))
        report = run(RunConfig(suites=("certificate",), f_coeffs=coeffs))
        assert not report.ok


class TestCheckReference:
    def test_tolerance_edge_and_message(self):
        # within tol, ends included, passes; the next float out fails, and
        # the message spells tol as given
        s = SuiteResult()
        s.check_reference("v {} deg", 0.5, 0.0, "0.5")
        s.check_reference("v {} deg", -0.5, 0.0, "0.5")
        s.check_reference("v {} deg", math.nextafter(0.5, 1.0), 0.0, "0.5")
        s.check_reference("w {}", math.nextafter(-0.5, -1.0), 0.0, "5e-1")
        assert (s.passed, s.failed) == (2, 2)
        assert s.failures == [
            "v 0.5000000000000001 deg != 0.0 (0.5)",
            "w -0.5000000000000001 != 0.0 (5e-1)",
        ]


class TestEmitTable:
    def test_text_contains_reference_rows(self):
        report = run(RunConfig(suites=("certificate", "bounds", "theorem")))
        text = emit_table(report, "text")
        assert "t0" in text
        assert "h2" in text
        assert "w1" in text
        assert "conclusion: kissing number in three dimensions = 12" in text

    def test_json_format(self):
        report = run(RunConfig(suites=("certificate",)))
        payload = json.loads(emit_table(report, "json"))
        assert payload["conclusion"] is None
        assert "certificate" in payload["suites"]


class TestFullRun:
    def test_all_suites_pass(self):
        report = run(RunConfig(suites=ALL_SUITES, **FAST))
        assert report.ok
        assert report.conclusion == 12
        assert all(report.suites[name].ok for name in ALL_SUITES)
        assert report.bound_table is not None
        assert report.refined["h3"] == pytest.approx(12.8721, abs=1e-3)
        assert report.refined["h4"] == pytest.approx(12.4849, abs=1e-3)


# -- the lemma 1 and 2 suites against a one-set-at-a-time reference ---------


def _reference_sets(rng, count):
    """The suites' point sets drawn one at a time, as PointSets of
    SphericalPoints."""
    for _ in range(count):
        n = rng.randint(1, 16)
        yield PointSet(random_point(rng) for _ in range(n))


def _reference_sums(ps, kmax=9):
    """The Gegenbauer sums of one set: np.polyval of each P_k over the
    set's cosine matrix."""
    cosm = CosineBatch.of(ps).cos.reshape(len(ps), len(ps))
    return [float(np.polyval(legendre(k).real_coeffs(), cosm).sum()) for k in range(kmax + 1)]


def _reference_gap(ps, cert):
    sums = _reference_sums(ps)
    via_basis = sum(
        float(ck) * sums[k]
        for k, ck in enumerate(cert.legendre_coeffs)
        if ck != 0
    )
    return abs(energy(ps, cert).S - via_basis)


@lru_cache(maxsize=None)
def _derivative(k, m):
    """The m-th derivative of P_k."""
    return legendre(k) if m == 0 else _derivative(k, m - 1).derivative()


def _reference_residual(k, theta1, theta2, phi):
    """The addition-theorem residual on math floats, with exact weights."""
    c = math.cos(theta1) * math.cos(theta2) + math.sin(theta1) * math.sin(
        theta2
    ) * math.cos(phi)
    c = max(-1.0, min(1.0, c))

    def polar(m, theta):
        return _derivative(k, m).eval_real(math.cos(theta)) * math.sin(theta) ** m

    rhs = sum(
        float(w) * polar(m, theta1) * polar(m, theta2) * math.cos(m * phi)
        for m, w in enumerate(addition_weights(k))
    )
    return abs(legendre(k).eval_real(c) - rhs)


def _reference_lemma1(config):
    s = SuiteResult()
    rng = random.Random(config.seed)
    bad = 0
    for ps in _reference_sets(rng, config.lemma1_sets):
        if any(v < -1e-9 * len(ps) ** 2 for v in _reference_sums(ps)):
            bad += 1
    if config.lemma1_sets:
        s.check(bad == 0, f"{bad} point sets with a negative Gegenbauer sum")
        s.passed += config.lemma1_sets - (1 if bad else 0)
    else:
        s.skipped += 1
    bad_residual = 0
    for _ in range(1000):
        k = rng.randint(0, 9)
        theta1 = rng.uniform(0.0, math.pi)
        theta2 = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if _reference_residual(k, theta1, theta2, phi) >= 1e-9:
            bad_residual += 1
    s.check(bad_residual == 0, f"{bad_residual} addition-theorem residuals >= 1e-9")
    return s


def _reference_lemma2(config, cert):
    s = SuiteResult()
    rng = random.Random(config.seed)
    bad = bad_bridge = 0
    for ps in _reference_sets(rng, config.lemma1_sets):
        if not energy(ps, cert).S >= len(ps) ** 2 * (1.0 - 1e-9):
            bad += 1
        if _reference_gap(ps, cert) > 1e-8 * len(ps) ** 2:
            bad_bridge += 1
    if config.lemma1_sets:
        s.check(bad == 0, f"{bad} point sets with S < n^2")
        s.check(bad_bridge == 0, f"{bad_bridge} linearity-bridge gaps over 1e-8 n^2")
        s.passed += config.lemma1_sets - (1 if bad else 0)
    else:
        s.skipped += 2
    return s


def _batched(seed, count, cert):
    """Sizes, Gegenbauer sums (one row per set), S and linearity gaps of the
    suites' sets, chunk by chunk, and the generator's next draw."""
    rng = random.Random(seed)
    sizes, sums, S, gaps = [], [], [], []
    for batch in _random_sets(rng, count):
        sizes += batch.sizes.tolist()
        batch_sums = gegenbauer_sums(batch.cos, batch.starts, 10)
        sums += batch_sums.T.tolist()
        energies = set_energies(batch, cert)
        S += energies.tolist()
        gaps += np.abs(energies - expansion_energies(batch_sums, cert)).tolist()
    return sizes, sums, S, gaps, rng.random()


class TestLemmaBatch:
    """The chunked lemma 1 and 2 suites draw the sets of a one-set-at-a-time
    loop and agree with it within 1e-12 n^2."""

    @pytest.mark.parametrize(
        "seed, count",
        [(42, 1000), (3, 1100), (5, LEMMA_BLOCK - 1), (6, LEMMA_BLOCK), (7, LEMMA_BLOCK + 1)],
    )
    def test_matches_per_set_loop(self, cert, seed, count):
        sizes, sums, S, gaps, next_draw = _batched(seed, count, cert)
        rng = random.Random(seed)
        reference = list(_reference_sets(rng, count))
        assert next_draw == rng.random()
        assert sizes == [len(ps) for ps in reference]
        for ps, row, s, gap in zip(reference, sums, S, gaps):
            tol = 1e-12 * len(ps) ** 2
            assert np.allclose(row, _reference_sums(ps), rtol=0.0, atol=tol)
            assert abs(s - energy(ps, cert).S) <= tol
            assert abs(gap - _reference_gap(ps, cert)) <= tol

    @pytest.mark.parametrize("seed, count", [(42, 1000), (5, LEMMA_BLOCK + 1)])
    def test_draws_are_uniform_bits(self, seed, count):
        # the chunks take rng.random() and form the uniforms as arrays; the
        # cosines are bit for bit those of rng.uniform's own floats
        rng, uniform_rng = random.Random(seed), random.Random(seed)
        for batch in _random_sets(rng, count):
            sizes, draws = [], []
            for _ in range(len(batch.sizes)):
                n = uniform_rng.randint(1, 16)
                sizes.append(n)
                for _ in range(n):
                    draws += (uniform_rng.uniform(-1.0, 1.0), uniform_rng.uniform(0.0, 2 * math.pi))
            draws = np.array(draws)
            expected = CosineBatch(unit_vectors(draws[0::2], draws[1::2]), sizes)
            assert batch.sizes.tolist() == sizes
            assert batch.cos.tobytes() == expected.cos.tobytes()
        assert rng.random() == uniform_rng.random()

    def test_covers_every_size(self, cert):
        sizes = _batched(42, 1000, cert)[0] + _batched(3, 1100, cert)[0]
        assert set(sizes) == set(range(1, 17))

    @pytest.mark.parametrize(
        "count", [0, 1, 20, 21, LEMMA_BLOCK - 1, LEMMA_BLOCK, LEMMA_BLOCK + 1]
    )
    def test_suites_match_reference(self, cert, count):
        config = RunConfig(seed=11, lemma1_sets=count)
        assert _suite_lemma1(config, _shared(config)) == _reference_lemma1(config)
        lemma2 = _suite_lemma2(config, cert, _shared(config, cert))
        assert lemma2 == _reference_lemma2(config, cert)

    @pytest.mark.parametrize("value, bad", [(Fr(1, 2), LEMMA_BLOCK + 1), (Fr(1), 0)])
    def test_lemma2_for_constant_f(self, cert, value, bad):
        # a constant f gives S = f n^2 on every set: f = 1/2 fails lemma 2
        # everywhere and f = 1 meets it with equality; the Legendre expansion
        # is c_0 = f, so the bridge closes either way
        f = RationalPoly([value])
        constant = replace(cert, f=f, legendre_coeffs=to_legendre_basis(f))
        config = RunConfig(seed=11, lemma1_sets=LEMMA_BLOCK + 1)
        result = _suite_lemma2(config, constant, _shared(config, constant))
        assert result == _reference_lemma2(config, constant)
        assert result.failures == ([f"{bad} point sets with S < n^2"] if bad else [])

    @pytest.mark.parametrize("count", [2 * LEMMA_BLOCK - 15, 2 * LEMMA_BLOCK + 1])
    def test_bridge_fails_for_mismatched_expansion(self, cert, count):
        # with c_0 = 1/2 and no other term the bridge misses S by S - n^2/2
        # on every set, so the count shows that it ran on all of them
        half = to_legendre_basis(RationalPoly([Fr(1, 2)]))
        mismatched = replace(cert, legendre_coeffs=half)
        config = RunConfig(seed=12, lemma1_sets=count)
        result = _suite_lemma2(config, mismatched, _shared(config, mismatched))
        assert result == _reference_lemma2(config, mismatched)
        assert result.failures == [f"{count} linearity-bridge gaps over 1e-8 n^2"]


def _shared(config, cert=None):
    """The `shared` argument `run` gives the lemma 1 and 2 suites: one pass
    over the random sets, made with `cert` when lemma 2 reads it."""
    return lambda: _random_set_counts(config, cert)


# -- the lemma 3 suite against a one-set-at-a-time reference ----------------


def _reference_check_lemma3(ps, cert):
    """Lemma 3 for one set from `energy`'s per-point records: whether the sum
    S < 13n holds, and whether the chain S_i <= T_i < 13 holds at every
    point."""
    summary = energy(ps, cert)
    if summary.min_sep < math.pi / 3.0 - 1e-9:
        raise SeparationViolation(
            f"min separation {math.degrees(summary.min_sep):.4f} deg < 60 deg"
        )
    chain = all(rec.S_i <= rec.T_i + 1e-9 and rec.T_i < 13.0 for rec in summary.per_point)
    return summary.S < 13.0 * summary.n, chain


def _reference_lemma3(config, cert):
    s = SuiteResult()
    rng = random.Random(config.seed + 1)
    bad = bad_sum = bad_chain = generated = 0
    for i in range(config.lemma3_sets):
        n = rng.randint(2, 12)
        try:
            ps = random_separated_set(n, math.pi / 3.0, seed=config.seed + 1000 + i, max_tries=2000)
        except SaturationError as exc:
            ps = exc.placed
        if len(ps) < 2:
            s.skipped += 1
            continue
        generated += 1
        sum_ok, chain_ok = _reference_check_lemma3(ps, cert)
        bad += not (sum_ok and chain_ok)
        bad_sum += not sum_ok
        bad_chain += not chain_ok
    if generated:
        labels = []
        if bad_sum:
            labels.append(f"{bad_sum} separated sets with S >= 13n")
        if bad_chain:
            labels.append(f"{bad_chain} separated sets with a point where S_i > T_i or T_i >= 13")
        s.check(bad == 0, "; ".join(labels))
        s.passed += generated - (1 if bad else 0)
    else:
        s.skipped += 1
    return s


class TestLemma3Batch:
    """The lemma 3 suite, which checks its sets LEMMA_BLOCK at a time, counts
    as a loop of per-set `energy` checks does."""

    @pytest.mark.parametrize(
        "count", [0, 1, LEMMA_BLOCK - 1, LEMMA_BLOCK, LEMMA_BLOCK + 1, 500]
    )
    def test_suite_matches_reference(self, cert, count):
        config = RunConfig(seed=42, lemma3_sets=count)
        assert _suite_lemma3(config, cert) == _reference_lemma3(config, cert)

    @pytest.mark.parametrize("seed, bad", [(42, 26), (11, 36)])
    def test_scaled_f_fails_some_sets(self, cert, seed, bad):
        # 51/50 f keeps t0 and S < 13n, but breaks S_i <= T_i < 13 on some
        # separated sets and not on others, so the count is per set
        scaled = replace(cert, f=RationalPoly([ck * Fr(51, 50) for ck in cert.f.coeffs]))
        config = RunConfig(seed=seed, lemma3_sets=LEMMA_BLOCK + 1)
        result = _suite_lemma3(config, scaled)
        assert result == _reference_lemma3(config, scaled)
        assert result.failures == [
            f"{bad} separated sets with a point where S_i > T_i or T_i >= 13"
        ]

    @pytest.mark.parametrize("seed, bad_sum, bad_chain", [(42, 6, 88), (11, 9, 94)])
    def test_larger_f_fails_both_ways(self, cert, seed, bad_sum, bad_chain):
        # 11/10 f lifts S to 13n or more on a few sets, and breaks the point
        # chain on more; the one failed check names both counts
        scaled = replace(cert, f=RationalPoly([ck * Fr(11, 10) for ck in cert.f.coeffs]))
        config = RunConfig(seed=seed, lemma3_sets=LEMMA_BLOCK + 1)
        result = _suite_lemma3(config, scaled)
        assert result == _reference_lemma3(config, scaled)
        assert (result.passed, result.failed) == (LEMMA_BLOCK, 1)
        assert result.failures == [
            f"{bad_sum} separated sets with S >= 13n; "
            f"{bad_chain} separated sets with a point where S_i > T_i or T_i >= 13"
        ]

    @pytest.mark.parametrize("seed, bad", [(42, 127), (11, 123)])
    def test_constant_f_fails_the_point_chain(self, cert, seed, bad):
        # f = 1 gives S = n^2 < 13n, but S_i = n exceeds T_i = 1 + |J(i)|
        # on every set with a point that is not deep from all the others
        constant = replace(cert, f=RationalPoly([Fr(1)]))
        config = RunConfig(seed=seed, lemma3_sets=LEMMA_BLOCK + 1)
        result = _suite_lemma3(config, constant)
        assert result == _reference_lemma3(config, constant)
        assert result.failures == [
            f"{bad} separated sets with a point where S_i > T_i or T_i >= 13"
        ]


class TestSharedRandomSets:
    """lemma1 and lemma2 draw, batch and Gegenbauer-sum their random sets in
    one pass per run, and each reports what it reports alone."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []

        def counted(rng, count):
            calls.append(count)
            return _random_sets(rng, count)

        monkeypatch.setattr(harness, "_random_sets", counted)
        return calls

    @pytest.mark.parametrize(
        "suites", [("lemma1",), ("lemma2",), ("lemma1", "lemma2"), ALL_SUITES]
    )
    def test_one_pass(self, passes, suites):
        report = run(RunConfig(suites=suites, lemma1_sets=LEMMA_BLOCK + 3, lemma3_sets=5))
        assert report.ok
        assert passes == [LEMMA_BLOCK + 3]

    @pytest.mark.parametrize("seed", [42, 8])
    @pytest.mark.parametrize("count", [0, 2 * LEMMA_BLOCK + 5, 1000])
    def test_suites_report_as_alone(self, cert, seed, count):
        splits = [("lemma1",), ("lemma2",), ("lemma1", "lemma2"), ALL_SUITES]
        reports = {
            suites: json.loads(
                run(RunConfig(seed=seed, suites=suites, lemma1_sets=count, lemma3_sets=5)).to_json()
            )["suites"]
            for suites in splits
        }
        for name in ("lemma1", "lemma2"):
            alone = json.dumps(reports[(name,)][name], sort_keys=True)
            for suites in splits[2:]:
                assert json.dumps(reports[suites][name], sort_keys=True) == alone
        if count < 1000:  # the per-set reference loops take their time
            config = RunConfig(seed=seed, lemma1_sets=count)
            for name, reference in (
                ("lemma1", _reference_lemma1(config)),
                ("lemma2", _reference_lemma2(config, cert)),
            ):
                assert reports[(name,)][name] == {
                    "passed": reference.passed,
                    "failed": reference.failed,
                    "skipped": reference.skipped,
                    "failures": reference.failures,
                }


class _CountingState:
    """A sampler RandomState from the pool that counts its draw calls and
    the candidates drawn, two doubles each."""

    def __init__(self, state, counts):
        self.state, self.counts = state, counts

    def random_sample(self, size):
        self.counts["draws"] += 1
        self.counts["candidates"] += size // 2
        return self.state.random_sample(size)


def test_lemma3_sampler_work_at_seed_42(cert, monkeypatch):
    """The default lemma3 suite at seed 42 makes 1,199 draw calls for
    306,944 candidates and runs 226 jam tests, 125 of which find a jam;
    without the jam test it makes 2,040 draw calls for 522,240 candidates.
    The report is the same either way.  A stall is tested at the end of the
    round in which it reached SAMPLER_BLOCK rejections, so the 28 stalls
    whose sets accepted again, or finished, later in that round are not
    tested; a test at each stall made 254."""
    counts = {"draws": 0, "candidates": 0, "tests": 0, "jams": 0}
    seeded, caps_cover = sphere._seeded_states, sphere.caps_cover

    def counted_cover(vectors, h):
        counts["tests"] += len(vectors)
        covered = caps_cover(vectors, h)
        counts["jams"] += int(covered.sum())
        return covered

    monkeypatch.setattr(
        sphere, "_seeded_states", lambda seeds: [_CountingState(s, counts) for s in seeded(seeds)]
    )
    monkeypatch.setattr(sphere, "caps_cover", counted_cover)
    config = RunConfig(seed=42)
    result = _suite_lemma3(config, cert)
    assert counts == {"draws": 1199, "candidates": 306_944, "tests": 226, "jams": 125}
    monkeypatch.setattr(sphere, "JAM_TEST_POINTS", 0)
    counts.update(draws=0, candidates=0, tests=0)
    assert _suite_lemma3(config, cert) == result
    assert counts["draws"] == 2040 and counts["candidates"] == 522_240 and counts["tests"] == 0
