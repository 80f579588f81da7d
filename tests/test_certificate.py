import collections
import math
from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from kiss3 import certificate, harness
from kiss3.certificate import (
    F_COEFFS,
    EXPECTED_LEGENDRE_COEFFS,
    build_certificate,
    classic_delsarte_gap,
    verify_expansion,
    verify_property_i,
    verify_property_ii,
)
from kiss3.errors import CertificateInvalid
from kiss3.legendre import from_legendre_basis
from kiss3.polynomial import RationalPoly, SturmChain


def perturbed(index, delta):
    coeffs = list(F_COEFFS)
    coeffs[index] += Fr(delta)
    return tuple(coeffs)


class TestBuild:
    def test_degree(self, cert):
        assert cert.f.degree == 9

    def test_t0_enclosure(self, cert):
        assert abs(cert.t0.mid - 0.5907) < 5e-5
        assert 0.59 < cert.t0.lo <= cert.t0.hi < 0.591

    def test_theta0_degrees(self, cert):
        assert abs(math.degrees(cert.theta0.mid) - 53.794) < 1e-3

    def test_t0_endpoints_bracket_root(self, cert):
        f = cert.f
        lo = f.eval(Fr(-cert.t0.hi))
        hi = f.eval(Fr(-cert.t0.lo))
        assert (lo > 0 and hi < 0) or (lo < 0 and hi > 0)

    def test_theta0_is_arccos_of_t0(self, cert):
        assert cert.theta0.lo <= math.acos(cert.t0.hi)
        assert cert.theta0.hi >= math.acos(cert.t0.lo)

    def test_f_at_1(self, cert):
        fresh = build_certificate()
        assert fresh.f_at_1 == float(fresh.f.eval(1)) == 10.11
        assert vars(fresh)["f_at_1"] == fresh.f_at_1  # taken once, then kept
        assert fresh == cert

    def test_wrong_degree_rejected(self):
        with pytest.raises(CertificateInvalid):
            build_certificate((Fr(1), Fr(2)))


class TestExpansion:
    def test_expected_coefficients(self, cert):
        assert verify_expansion(cert, EXPECTED_LEGENDRE_COEFFS)
        assert cert.legendre_coeffs == EXPECTED_LEGENDRE_COEFFS

    def test_reconstruction_exact(self, cert):
        assert from_legendre_basis(cert.legendre_coeffs) == cert.f

    def test_sum_of_coefficients_is_f_at_one(self, cert):
        assert sum(cert.legendre_coeffs) == cert.f.eval(1)
        assert cert.f.eval(1) == Fr(4044, 400)

    def test_replaced_copy_checks_its_own_reconstruction(self, cert):
        # the built certificate's cached check does not pass to a copy with
        # another f or other coefficients, which rebuild f no more
        assert verify_expansion(cert)
        other_f = replace(cert, f=RationalPoly(perturbed(8, Fr(1, 100))))
        other_coeffs = replace(cert, legendre_coeffs=cert.legendre_coeffs[:-1] + (Fr(9, 25),))
        assert not verify_expansion(other_f)
        assert not verify_expansion(other_coeffs)

    def test_perturbed_leading_coefficient_detected(self):
        cert = build_certificate(perturbed(9, Fr(1, 1000)))
        assert not verify_expansion(cert, EXPECTED_LEGENDRE_COEFFS)

    def test_negative_perturbation_fails_sign_condition(self):
        with pytest.raises(CertificateInvalid):
            build_certificate(perturbed(9, Fr(-1, 100)))


class TestAnalyticProperties:
    def test_property_i(self, cert):
        assert verify_property_i(cert)

    def test_property_ii(self, cert):
        assert verify_property_ii(cert)

    @pytest.mark.parametrize(
        "f, holds",
        [
            (RationalPoly([Fr(-1, 2), -1]), True),  # -t - 1/2: f(-1) = 1/2
            (RationalPoly([-1, -1]) * RationalPoly([Fr(1, 2), 1]) ** 2, False),  # f(-1) = 0
            (RationalPoly([Fr(1, 2), 1]) ** 2 * -1, False),  # f(-1) = -1/4
        ],
    )
    def test_property_ii_needs_only_a_positive_f_at_minus_one(self, cert, f, holds):
        # each f has one distinct root on (-1, 1/2), at -1/2, and f(1/2) < 0,
        # so the sign of f(-1) alone decides
        c = replace(cert, f=f)
        assert c.sturm_chain.count_open(Fr(-1), Fr(1, 2)) == 1 and f.eval(Fr(1, 2)) < 0
        assert verify_property_ii(c) is holds

    def test_monotone_quadratic(self, cert):
        # t^2 is decreasing on [-1, -t0]; same two-part test applies
        from kiss3.polynomial import sturm_count

        df = RationalPoly([0, 0, 1]).derivative()
        assert df.eval(-1) < 0
        assert sturm_count(df, Fr(-1), Fr(-cert.t0.lo)) == 0

    def test_interior_critical_point_detected(self, cert):
        # t^3 - (3 * 0.8^2 / 2) t has a critical point at -0.8, inside the
        # interval, so the derivative root count is nonzero
        from kiss3.polynomial import sturm_count

        p = RationalPoly([0, Fr(-96, 50), 0, 1])
        count = sturm_count(p.derivative(), Fr(-1), Fr(-cert.t0.lo))
        assert count == 1

    def test_f_sign_values(self, cert):
        assert cert.f.eval(Fr(1, 2)) < 0
        assert cert.f.eval(-1) > 0


class TestEvaluationsOnce:
    def test_exact_suites_evaluate_each_pair_once(self, monkeypatch):
        # a certificate+bounds+theorem run evaluates each (polynomial, point)
        # pair once per chain and once per certificate; the only repeats are
        # f' chain terms equal to terms of f's chain (its first, f' made
        # primitive, and its last, a constant), both at -1
        seen = []
        original = RationalPoly.eval

        def counted(q, t):
            seen.append((q, Fr(t)))
            return original(q, t)

        monkeypatch.setattr(RationalPoly, "eval", counted)
        report = harness.run(harness.RunConfig(suites=("certificate", "bounds", "theorem")))
        assert report.ok
        monkeypatch.undo()
        f = build_certificate().f
        f_chain, df_chain = SturmChain(f).chain, SturmChain(f.derivative()).chain
        repeats = collections.Counter(seen) - collections.Counter(set(seen))
        assert sorted(repeats.items(), key=lambda kv: kv[0][0].degree) == [
            ((df_chain[-1], -1), 1),
            ((df_chain[0], -1), 1),
        ]
        assert df_chain[0] == f_chain[1] and df_chain[-1] == f_chain[-1]

    def test_one_legendre_reconstruction(self, monkeypatch):
        # build_certificate checks that the expansion rebuilds f, and the
        # certificate and theorem suites' verify_expansion reuse that check
        calls = []
        original = certificate.from_legendre_basis

        def counted(coeffs):
            calls.append(coeffs)
            return original(coeffs)

        monkeypatch.setattr(certificate, "from_legendre_basis", counted)
        report = harness.run(harness.RunConfig(suites=("certificate", "bounds", "theorem")))
        assert report.ok
        assert len(calls) == 1

    def test_f_ends_are_the_exact_values(self, cert):
        assert cert.f_ends == (cert.f.eval(-1), cert.f.eval(1))
        assert cert.f_at_1 == float(cert.f.eval(1))


class TestClassicGap:
    def test_value(self, cert):
        assert classic_delsarte_gap(cert) == Fr(277, 100)

    def test_scaling(self, cert):
        doubled = RationalPoly([2 * c for c in cert.f.coeffs])
        assert doubled.eval(-1) == Fr(554, 100)

    def test_nonpositive_for_classic_polynomial(self):
        # (t - 1/2) is <= 0 on [-1, 1/2]; its value at -1 is negative
        assert RationalPoly([Fr(-1, 2), 1]).eval(-1) < 0


class TestJsonExport:
    def test_certificate_poly_default(self, cert):
        assert cert.f == RationalPoly(F_COEFFS)
