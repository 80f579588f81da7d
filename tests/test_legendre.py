import importlib
import math
import random
from fractions import Fraction as Fr

import numpy as np
import pytest

from kiss3 import harness
from kiss3.certificate import EXPECTED_LEGENDRE_COEFFS, F_COEFFS
from kiss3.legendre import (
    addition_theorem_residual,
    addition_weights,
    from_legendre_basis,
    gegenbauer_sum,
    gegenbauer_sums,
    legendre,
    legendre_rodrigues,
    to_legendre_basis,
)
from kiss3.polynomial import RationalPoly
from kiss3.sphere import CosineBatch, PointSet, SphericalPoint, cos_law, icosahedron

legendre_module = importlib.import_module("kiss3.legendre")


class TestLegendre:
    def test_first_values(self):
        assert legendre(0) == RationalPoly([1])
        assert legendre(1) == RationalPoly([0, 1])
        assert legendre(2) == RationalPoly([Fr(-1, 2), 0, Fr(3, 2)])

    @pytest.mark.parametrize("k", range(13))
    def test_recurrence_equals_rodrigues(self, k):
        assert legendre(k) == legendre_rodrigues(k)

    @pytest.mark.parametrize("k", range(13))
    def test_endpoint_normalization(self, k):
        assert legendre(k).eval(1) == 1
        assert legendre(k).eval(-1) == (-1) ** k

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            legendre(13)


class TestBasisConversion:
    def test_certificate_expansion(self):
        assert to_legendre_basis(RationalPoly(F_COEFFS)) == EXPECTED_LEGENDRE_COEFFS

    def test_basis_element(self):
        assert to_legendre_basis(legendre(3)) == (Fr(0), Fr(0), Fr(0), Fr(1))

    def test_t_squared(self):
        assert to_legendre_basis(RationalPoly([0, 0, 1])) == (Fr(1, 3), Fr(0), Fr(2, 3))

    def test_reconstruction_of_certificate(self):
        f = RationalPoly(F_COEFFS)
        assert from_legendre_basis(to_legendre_basis(f)) == f

    def test_zero(self):
        assert from_legendre_basis((Fr(0),) * 5).is_zero()

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(25):
            p = RationalPoly(
                [Fr(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(10)]
            )
            assert from_legendre_basis(to_legendre_basis(p)) == p


class TestAssocLegendre:
    def test_weights(self):
        w = addition_weights(3)
        assert w[0] == 1
        assert w[1] == Fr(2 * math.factorial(2), math.factorial(4))
        assert all(x > 0 for x in w)


class TestAdditionTheorem:
    def test_coincident_points(self):
        for k in range(10):
            assert addition_theorem_residual(k, 0.7, 0.7, 0.0) < 1e-10

    def test_degree_one_is_law_of_cosines(self):
        rng = random.Random(12)
        for _ in range(50):
            t1 = rng.uniform(0, math.pi)
            t2 = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            assert addition_theorem_residual(1, t1, t2, phi) < 1e-12

    def test_degree_nine(self):
        assert addition_theorem_residual(9, 0.7, 1.1, 2.3) < 1e-9

    def test_near_pole(self):
        # cos(6e-9) rounds to 1.0, so sin(theta2) cannot come from cos(theta2)
        residual = addition_theorem_residual(
            6, 2.3528959582159104, 6.154754835645296e-09, 0.416688972194398
        )
        assert residual < 1e-9
        assert addition_theorem_residual(9, math.pi - 3e-9, 1.1, 2.3) < 1e-9

    def test_random_inputs(self):
        rng = random.Random(13)
        for _ in range(1000):
            k = rng.randint(0, 9)
            t1 = rng.uniform(0, math.pi)
            t2 = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            assert addition_theorem_residual(k, t1, t2, phi) < 1e-9


def polyval_residual(k, theta1, theta2, phi):
    """The addition-theorem residual for one degree k by the route the
    batched one replaced: two np.polyval calls per order m."""
    c1, s1, c2, s2 = np.cos(theta1), np.sin(theta1), np.cos(theta2), np.sin(theta2)
    lhs = np.polyval(legendre(k).real_coeffs(), cos_law(theta1, theta2, phi))
    p, rhs = legendre(k), 0.0
    for m, w in enumerate(addition_weights(k)):
        polar1 = np.polyval(p.real_coeffs(), c1) * s1**m
        polar2 = np.polyval(p.real_coeffs(), c2) * s2**m
        rhs = rhs + float(w) * polar1 * polar2 * np.cos(m * phi)
        p = p.derivative()
    return np.abs(lhs - rhs)


def per_degree_residuals(k, theta1, theta2, phi):
    out = np.empty(len(k))
    for d in set(k.tolist()):
        at = k == d
        out[at] = polyval_residual(d, theta1[at], theta2[at], phi[at])
    return out


#: Both routes stay far below the 1e-9 threshold (under 6e-14 over 200
#: seeds of the lemma 1 suite's 1,000 samples); they may differ by their
#: rounding, never by more than this
ROUTE_TOLERANCE = 1e-12


def mixed_samples(seed, size, top=9):
    rng = np.random.default_rng(seed)
    k = rng.integers(0, top + 1, size)
    theta1, theta2 = math.pi * rng.random((2, size))
    return k, theta1, theta2, 2.0 * math.pi * rng.random(size)


class TestBatchedAdditionTheorem:
    """One call over samples of mixed degrees against the per-degree
    np.polyval route."""

    @pytest.mark.parametrize("seed, size", [(1, 1), (2, 7), (3, 1000), (4, 5000)])
    def test_mixed_degrees_match_the_per_degree_route(self, seed, size):
        k, theta1, theta2, phi = mixed_samples(seed, size)
        got = addition_theorem_residual(k, theta1, theta2, phi)
        want = per_degree_residuals(k, theta1, theta2, phi)
        assert got.shape == (size,)
        assert got.max() < 1e-12
        assert np.abs(got - want).max() <= ROUTE_TOLERANCE

    def test_degrees_up_to_the_cap(self):
        k, theta1, theta2, phi = mixed_samples(5, 2000, top=12)
        got = addition_theorem_residual(k, theta1, theta2, phi)
        assert np.abs(got - per_degree_residuals(k, theta1, theta2, phi)).max() <= 1e-10
        for bad in (13, -1):
            with pytest.raises(ValueError):
                addition_theorem_residual(np.append(k, bad), 0.1, 0.2, 0.3)

    def test_scalar_degree_and_broadcasting(self):
        _, theta1, theta2, phi = mixed_samples(6, 300)
        for k in range(10):
            got = addition_theorem_residual(k, theta1, theta2, phi)
            assert got.shape == (300,)
            assert np.abs(got - polyval_residual(k, theta1, theta2, phi)).max() <= ROUTE_TOLERANCE
        # a column of degrees against a row of angles: one residual per pair
        k = np.arange(10).reshape(10, 1)
        grid = addition_theorem_residual(k, theta1[:5], theta2[:5], phi[:5])
        assert grid.shape == (10, 5)
        for d in range(10):
            for i in range(5):
                one = addition_theorem_residual(d, theta1[i], theta2[i], phi[i])
                assert abs(grid[d, i] - one) <= ROUTE_TOLERANCE
        none = np.array([], dtype=int)
        assert addition_theorem_residual(none, none, 0.1, 0.2).shape == (0,)

    def test_near_pole_samples(self):
        # cos(theta) rounds to +-1 there; sin(theta) must come from theta
        eps = [6.154754835645296e-09, 3e-9, 1e-12, 0.0]
        theta1 = np.array(eps + [math.pi - e for e in eps] + [2.3528959582159104, 1.1])
        theta2 = theta1[::-1].copy()
        phi = np.linspace(0.0, 2.0 * math.pi, theta1.size)
        for k in range(10):
            degrees = np.full(theta1.size, k)
            got = addition_theorem_residual(degrees, theta1, theta2, phi)
            want = polyval_residual(k, theta1, theta2, phi)
            assert got.max() < 1e-9
            assert np.abs(got - want).max() <= ROUTE_TOLERANCE

    def test_cached_tables_are_read_only(self):
        # every later call shares them: a write would change its residuals
        coeffs, weights = legendre_module._addition_tables(10)
        with pytest.raises(ValueError):
            coeffs[9, 0, 9] = 0.0
        with pytest.raises(ValueError):
            weights[2, 5] *= 2.0


def scale_one_weight(coeffs, weights):
    weights[2, 5] *= 1.0 + 1e-6  # c_{2,5}


def drop_one_order(coeffs, weights):
    weights[3] = 0.0  # every degree's m = 3 term


class TestAdditionTheoremMutants:
    """A wrong weight or a missing order in the float tables shows as a
    residual of 1e-9 or more, and the lemma 1 suite fails."""

    @pytest.mark.parametrize("mutate", [scale_one_weight, drop_one_order])
    def test_mutant_fails_the_residual_and_the_suite(self, monkeypatch, mutate):
        tables = legendre_module._addition_tables

        def mutated(size):
            coeffs, weights = (a.copy() for a in tables(size))
            mutate(coeffs, weights)
            return coeffs, weights

        config = harness.RunConfig(seed=42, lemma1_sets=0)
        assert harness._suite_lemma1(config).ok
        monkeypatch.setattr(legendre_module, "_addition_tables", mutated)
        k, theta1, theta2, phi = mixed_samples(7, 1000)
        assert addition_theorem_residual(k, theta1, theta2, phi).max() >= 1e-9
        suite = harness._suite_lemma1(config)
        assert suite.failed == 1
        assert suite.failures[0].endswith("addition-theorem residuals >= 1e-9")

    @pytest.mark.parametrize("value, ok", [(1e-9, False), (math.nextafter(1e-9, 0.0), True)])
    def test_the_threshold_itself_fails(self, monkeypatch, value, ok):
        def residual(k, theta1, theta2, phi):
            return np.where(np.arange(k.size) == 17, value, 0.0)

        monkeypatch.setattr(harness, "addition_theorem_residual", residual)
        suite = harness._suite_lemma1(harness.RunConfig(seed=42, lemma1_sets=0))
        assert suite.ok is ok
        assert suite.failures == ([] if ok else ["1 addition-theorem residuals >= 1e-9"])


class TestGegenbauerSumsDegrees:
    @pytest.mark.parametrize(
        "degrees", [range(10), (9, 3, 3, 0, 1, 9), (12, 2), (0,), (5,), ()]
    )
    def test_each_row_is_its_own_degree(self, degrees):
        # duplicate and unsorted degrees: row r holds degree r's sums, the
        # bits of a call for that degree alone
        rng = random.Random(17)
        sets = [random_point_set(rng, rng.randint(1, 16)) for _ in range(60)]
        vectors = np.concatenate([ps.vectors() for ps in sets])
        batch = CosineBatch(vectors, [len(ps) for ps in sets])
        got = gegenbauer_sums(batch.cos, batch.starts, degrees)
        assert got.shape == (len(degrees), 60)
        for row, k in zip(got, degrees):
            assert row.tobytes() == gegenbauer_sums(batch.cos, batch.starts, [k])[0].tobytes()


def random_point_set(rng, n):
    return PointSet(
        SphericalPoint(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        for _ in range(n)
    )


class TestGegenbauerSum:
    def test_single_point(self):
        ps = PointSet([SphericalPoint(0.3, 1.0)])
        for k in range(10):
            assert gegenbauer_sum(ps, k) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_pair_k1(self):
        ps = PointSet([SphericalPoint(0.0, 0.0), SphericalPoint(math.pi, 0.0)])
        assert gegenbauer_sum(ps, 1) == pytest.approx(0.0, abs=1e-12)

    def test_icosahedron_nonnegative(self):
        ico = icosahedron()
        for k in range(1, 10):
            assert gegenbauer_sum(ico, k) >= -1e-9

    def test_random_sets_nonnegative(self):
        rng = random.Random(99)
        for _ in range(1000):
            ps = random_point_set(rng, rng.randint(1, 16))
            n = len(ps)
            for k in range(10):
                assert gegenbauer_sum(ps, k) >= -1e-9 * n * n


class TestPlanarPositivity:
    def test_cosine_gram_is_squared_norm(self):
        # sum u_i u_j cos(m (phi_i - phi_j)) equals |sum u_i v_i|^2 with
        # v_i = (cos m phi_i, sin m phi_i), hence nonnegative
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = rng.randint(0, 9)
            us = [rng.uniform(-2, 2) for _ in range(n)]
            phis = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
            quad = sum(
                us[i] * us[j] * math.cos(m * (phis[i] - phis[j]))
                for i in range(n)
                for j in range(n)
            )
            vx = sum(u * math.cos(m * p) for u, p in zip(us, phis))
            vy = sum(u * math.sin(m * p) for u, p in zip(us, phis))
            assert quad == pytest.approx(vx * vx + vy * vy, abs=1e-9)
            assert quad >= -1e-12
