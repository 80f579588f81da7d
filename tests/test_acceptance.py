"""Acceptance gate: one check per release criterion, each printing a single
PASS/FAIL line so the run log doubles as a sign-off sheet.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print.
"""

import math
import random
from fractions import Fraction as Fr

from kiss3 import bounds as bounds_mod
from kiss3.certificate import EXPECTED_LEGENDRE_COEFFS
from kiss3.cli import main
from kiss3.energy import check_lemma1, check_lemma2, check_lemma3, energy, linearity_gap
from kiss3.errors import SaturationError
from kiss3.harness import RunConfig, perturbed_coeffs, run
from kiss3.legendre import addition_theorem_residual, legendre, legendre_rodrigues
from kiss3.sphere import (
    PointSet,
    icosahedron,
    min_separation,
    random_point,
    random_separated_set,
)


def report(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


class TestCriterion1ExactIdentities:
    def test_exact_rational_identities(self, cert):
        ok = (
            cert.f.eval(1) == Fr(1011, 100)
            and cert.f.eval(1) + cert.f.eval(-1) == Fr(1288, 100)
            and cert.legendre_coeffs.coefficients == EXPECTED_LEGENDRE_COEFFS
            and all(legendre(k) == legendre_rodrigues(k) for k in range(13))
        )
        report(
            "criterion 1: exact identities (f(1), f(1)+f(-1), expansion, "
            "recurrence = Rodrigues for k <= 12)",
            ok,
        )


class TestCriterion2Constants:
    def test_root_and_angle_constants(self, cert):
        ok = (
            abs(cert.t0.mid - 0.5907) <= 5e-5
            and abs(math.degrees(cert.theta0.mid) - 53.794) <= 1e-3
            and abs(bounds_mod.mu_angle(cert) - 76.582) <= 1e-3
            and abs(math.degrees(bounds_mod.R0) - 35.2644) <= 1e-4
        )
        report("criterion 2: t0, theta0, mu-angle, R0 constants", ok)


class TestCriterion3BoundPipeline:
    def test_bound_pipeline(self, bound_table):
        t = bound_table
        expected_w = (12.9425, 12.9648, 12.9508, 12.9606, 12.9519)
        ok = (
            abs(t.h[2].mid - 12.8749) <= 5e-4
            and abs(t.h4_case_bounds[0].mid - 12.9171) <= 5e-4
            and abs(t.h4_case_bounds[1].mid - 12.9182) <= 5e-4
            and all(abs(w.mid - e) <= 5e-4 for w, e in zip(t.w, expected_w))
            and all(h.hi < 13.0 for h in t.h)
        )
        report("criterion 3: h2, h4 cases, w_i values; every h_m < 13", ok)


class TestCriterion4RefinedEstimates:
    def test_refined_estimates(self, cert, bound_table):
        h3_est, h4_est = bounds_mod.refine_h34(cert)
        ok = (
            abs(h3_est.mid - 12.8721) <= 1e-3
            and abs(h4_est.mid - 12.4849) <= 1e-3
            and h3_est.mid <= bound_table.h[3].hi
            and h4_est.mid <= bound_table.h[4].hi
        )
        report("criterion 4: refined h3/h4 estimates within rigorous enclosures", ok)


class TestCriterion5PropertySuites:
    def test_property_suites(self, cert):
        rng = random.Random(42)
        sets = [
            PointSet(random_point(rng) for _ in range(rng.randint(1, 16)))
            for _ in range(1000)
        ]
        ok1 = all(
            v >= -1e-9 * len(ps) ** 2
            for ps in sets
            for v in check_lemma1(ps, kmax=9)
        )
        ok2 = all(check_lemma2(ps, cert) for ps in sets)
        ok_bridge = all(
            linearity_gap(ps, cert) <= 1e-8 * len(ps) ** 2 for ps in sets[::20]
        )

        sep_sets = []
        seed = 0
        while len(sep_sets) < 500:
            n = random.Random(seed).randint(2, 12)
            while n >= 2:
                try:
                    sep_sets.append(
                        random_separated_set(n, math.pi / 3, seed=seed, max_tries=2000)
                    )
                    break
                except SaturationError:
                    n -= 1
            seed += 1
        ok3 = all(check_lemma3(ps, cert) for ps in sep_sets)

        res_rng = random.Random(7)
        ok_add = all(
            addition_theorem_residual(
                res_rng.randint(0, 9),
                res_rng.uniform(0, math.pi),
                res_rng.uniform(0, math.pi),
                res_rng.uniform(0, 2 * math.pi),
            )
            < 1e-9
            for _ in range(1000)
        )
        ok = ok1 and ok2 and ok3 and ok_add and ok_bridge
        report(
            "criterion 5: property suites (1000 random sets, 500 separated sets, "
            "1000 addition-theorem residuals, linearity bridge)",
            ok,
        )


class TestCriterion6EndToEnd:
    def test_end_to_end(self, cert, capsys):
        exit_code = main(
            ["verify", "--lemma1-sets", "100", "--lemma3-sets", "25", "--format", "text"]
        )
        out = capsys.readouterr().out
        ico = icosahedron()
        sep = min_separation(ico)
        S = energy(ico, cert).S
        ok = (
            exit_code == 0
            and "conclusion: kissing number in three dimensions = 12" in out
            and len(ico) == 12
            and abs(sep - math.acos(1.0 / math.sqrt(5.0))) <= 1e-6
            and 144.0 * (1 - 1e-9) <= S < 156.0
        )
        report("criterion 6: verify exits 0 with conclusion 12 and witness", ok)


class TestCriterion7NegativeControl:
    def test_negative_control(self, capsys):
        perturbed = run(
            RunConfig(suites=("certificate",), f_coeffs=perturbed_coeffs(9, Fr(1, 100)))
        )
        exit_code = main(["verify", "--suite", "certificate", "--perturb", "9:1/100"])
        capsys.readouterr()
        ok = (not perturbed.ok) and exit_code != 0
        report("criterion 7: perturbed t^9 coefficient fails with nonzero exit", ok)
