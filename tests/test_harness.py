import json
import math
from fractions import Fraction as Fr

import pytest

from kiss3.harness import (
    ALL_SUITES,
    RunConfig,
    SCHEMA_VERSION,
    emit_table,
    perturbed_coeffs,
    run,
)

FAST = dict(lemma1_sets=50, lemma3_sets=10)


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    @pytest.mark.parametrize("tolerance", [0.0, math.nan, math.inf])
    def test_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError):
            RunConfig(tolerance=tolerance).validate()

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            RunConfig(grid_density=10).validate()

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
        assert payload["schema_version"] == SCHEMA_VERSION == 1
        assert payload["config"]["seed"] == 42


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
