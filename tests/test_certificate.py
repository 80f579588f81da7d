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


#: Perturbation steps: +-2^-k for k = 1 ... 18, and +-1/1000 ... +-1/2.
STEPS = [s * Fr(1, 2**k) for k in range(1, 19) for s in (1, -1)] + [
    s * Fr(1, d) for d in (1000, 500, 200, 100, 50, 20, 10, 5, 2) for s in (1, -1)
]


def sturm_property_i(c):
    """Property i by the Sturm argument, the oracle for verify_property_i's
    Bernstein test: f'(-1) < 0, and f' has no root in (-1, -t0.lo)."""
    df = c.f.derivative()
    return df.eval(-1) < 0 and SturmChain(df).count_open(Fr(-1), Fr(-c.t0.lo)) == 0


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
        # t^2 is decreasing on [-1, -t0]: its derivative is negative at -1
        # and has no root inside, and its maximum there is below 0
        c = replace(cert, f=RationalPoly([0, 0, 1]))
        assert SturmChain(c.f.derivative()).count_open(Fr(-1), Fr(-cert.t0.lo)) == 0
        assert sturm_property_i(c) and verify_property_i(c)

    def test_interior_critical_point_detected(self, cert):
        # t^3 - (3 * 0.8^2) t has a critical point at -0.8, inside the
        # interval, so the derivative root count is nonzero
        p = RationalPoly([0, Fr(-96, 50), 0, 1])
        assert SturmChain(p.derivative()).count_open(Fr(-1), Fr(-cert.t0.lo)) == 1
        c = replace(cert, f=p)
        assert not sturm_property_i(c) and not verify_property_i(c)

    @pytest.mark.parametrize(
        "f, at_minus_one, roots_inside",
        [
            # f' = -1 - t: zero at -1, negative on the rest of the interval
            (RationalPoly([0, -1, Fr(-1, 2)]), 0, 0),
            # f' = -(t + 4/5)(t + 7/10): negative at -1, positive between its roots
            (RationalPoly([0, Fr(-14, 25), Fr(-3, 4), Fr(-1, 3)]), Fr(-3, 50), 2),
        ],
    )
    def test_property_i_fails(self, cert, f, at_minus_one, roots_inside):
        c = replace(cert, f=f)
        df = f.derivative()
        assert df.eval(-1) == at_minus_one
        assert SturmChain(df).count_open(Fr(-1), Fr(-cert.t0.lo)) == roots_inside
        assert not sturm_property_i(c)
        assert not verify_property_i(c)

    def test_property_i_agrees_with_the_sturm_oracle(self, cert):
        built = []
        for index in range(10):
            for delta in STEPS:
                try:
                    built.append(build_certificate(perturbed(index, delta)))
                except CertificateInvalid:
                    pass
        assert len(built) == 81  # 71 of the 2^-k steps, 10 of the others
        assert [verify_property_i(c) for c in built] == [sturm_property_i(c) for c in built]
        # the same f's on the seed certificate's t0, where some fail
        copies = [replace(cert, f=RationalPoly(perturbed(i, d))) for i in range(10) for d in STEPS]
        outcomes = [verify_property_i(c) for c in copies]
        assert outcomes == [sturm_property_i(c) for c in copies]
        assert 0 < outcomes.count(False) < len(outcomes)

    def test_f_sign_values(self, cert):
        assert cert.f.eval(Fr(1, 2)) < 0
        assert cert.f.eval(-1) > 0


class TestEvaluationsOnce:
    def test_exact_suites_evaluate_each_pair_once(self, monkeypatch):
        # a certificate+bounds+theorem run builds one Sturm chain, of f, which
        # evaluates each point once; property i reads Bernstein coefficients,
        # and f(-1) and f(1) are taken once (`Certificate.f_ends`), so no
        # (polynomial, point) pair is evaluated twice
        seen, chains = [], []
        original, init = RationalPoly.eval, SturmChain.__init__

        def counted(q, t):
            seen.append((q, Fr(t)))
            return original(q, t)

        def counted_init(chain, p):
            chains.append(p)
            init(chain, p)

        monkeypatch.setattr(RationalPoly, "eval", counted)
        monkeypatch.setattr(SturmChain, "__init__", counted_init)
        report = harness.run(harness.RunConfig(suites=("certificate", "bounds", "theorem")))
        assert report.ok
        assert chains == [RationalPoly(F_COEFFS)]
        assert seen and len(seen) == len(set(seen))

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
