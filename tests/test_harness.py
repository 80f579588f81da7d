import json
import math
import random
from dataclasses import replace
from fractions import Fraction as Fr
from functools import lru_cache

import numpy as np
import pytest

from kiss3.energy import energy, expansion_energies, set_energies
from kiss3.harness import (
    ALL_SUITES,
    LEMMA_BLOCK,
    RunConfig,
    SCHEMA_VERSION,
    SuiteResult,
    _random_sets,
    _suite_lemma1,
    _suite_lemma2,
    emit_table,
    perturbed_coeffs,
    run,
)
from kiss3.legendre import addition_weights, gegenbauer_sums, legendre, to_legendre_basis
from kiss3.polynomial import RationalPoly
from kiss3.sphere import PointSet, random_point

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
    cosm = ps.cos_matrix()
    return [float(np.polyval(legendre(k).real_coeffs(), cosm).sum()) for k in range(kmax + 1)]


def _reference_gap(ps, cert):
    sums = _reference_sums(ps)
    via_basis = sum(
        float(ck) * sums[k]
        for k, ck in enumerate(cert.legendre_coeffs.coefficients)
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
    s = SuiteResult("lemma1")
    rng = random.Random(config.seed)
    bad = 0
    for ps in _reference_sets(rng, config.lemma1_sets):
        if any(v < -1e-9 * len(ps) ** 2 for v in _reference_sums(ps)):
            bad += 1
    s.check(bad == 0, f"{bad} point sets with a negative Gegenbauer sum")
    s.passed += config.lemma1_sets - (1 if bad else 0)
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
    s = SuiteResult("lemma2")
    rng = random.Random(config.seed)
    bad = bad_bridge = 0
    for ps in _reference_sets(rng, config.lemma1_sets):
        if not energy(ps, cert).S >= len(ps) ** 2 * (1.0 - 1e-9):
            bad += 1
        if _reference_gap(ps, cert) > 1e-8 * len(ps) ** 2:
            bad_bridge += 1
    s.check(bad == 0, f"{bad} point sets with S < n^2")
    s.check(bad_bridge == 0, f"{bad_bridge} linearity-bridge gaps over 1e-8 n^2")
    s.passed += config.lemma1_sets - (1 if bad else 0)
    return s


def _batched(seed, count, cert):
    """Sizes, Gegenbauer sums (one row per set), S and linearity gaps of the
    suites' sets, chunk by chunk, and the generator's next draw."""
    rng = random.Random(seed)
    sizes, sums, S, gaps = [], [], [], []
    for batch in _random_sets(rng, count):
        sizes += batch.sizes.tolist()
        sums += gegenbauer_sums(batch.cos, batch.starts, range(10)).T.tolist()
        energies = set_energies(batch, cert)
        S += energies.tolist()
        gaps += np.abs(energies - expansion_energies(batch, cert)).tolist()
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

    def test_covers_every_size(self, cert):
        sizes = _batched(42, 1000, cert)[0] + _batched(3, 1100, cert)[0]
        assert set(sizes) == set(range(1, 17))

    @pytest.mark.parametrize(
        "count", [0, 1, 20, 21, LEMMA_BLOCK - 1, LEMMA_BLOCK, LEMMA_BLOCK + 1]
    )
    def test_suites_match_reference(self, cert, count):
        config = RunConfig(seed=11, lemma1_sets=count)
        assert _suite_lemma1(config) == _reference_lemma1(config)
        assert _suite_lemma2(config, cert) == _reference_lemma2(config, cert)

    @pytest.mark.parametrize("value, bad", [(Fr(1, 2), LEMMA_BLOCK + 1), (Fr(1), 0)])
    def test_lemma2_for_constant_f(self, cert, value, bad):
        # a constant f gives S = f n^2 on every set: f = 1/2 fails lemma 2
        # everywhere and f = 1 meets it with equality; the Legendre expansion
        # is c_0 = f, so the bridge closes either way
        f = RationalPoly([value])
        constant = replace(cert, f=f, legendre_coeffs=to_legendre_basis(f))
        config = RunConfig(seed=11, lemma1_sets=LEMMA_BLOCK + 1)
        result = _suite_lemma2(config, constant)
        assert result == _reference_lemma2(config, constant)
        assert result.failures == ([f"{bad} point sets with S < n^2"] if bad else [])

    @pytest.mark.parametrize("count", [2 * LEMMA_BLOCK - 15, 2 * LEMMA_BLOCK + 1])
    def test_bridge_fails_for_mismatched_expansion(self, cert, count):
        # with c_0 = 1/2 and no other term the bridge misses S by S - n^2/2
        # on every set, so the count shows that it ran on all of them
        half = to_legendre_basis(RationalPoly([Fr(1, 2)]))
        mismatched = replace(cert, legendre_coeffs=half)
        config = RunConfig(seed=12, lemma1_sets=count)
        result = _suite_lemma2(config, mismatched)
        assert result == _reference_lemma2(config, mismatched)
        assert result.failures == [f"{count} linearity-bridge gaps over 1e-8 n^2"]
