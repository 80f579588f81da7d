import math
import random
from fractions import Fraction as Fr

import pytest

from kiss3.certificate import EXPECTED_LEGENDRE_COEFFS, F_COEFFS
from kiss3.legendre import (
    addition_theorem_residual,
    addition_weights,
    from_legendre_basis,
    gegenbauer_sum,
    legendre,
    legendre_rodrigues,
    to_legendre_basis,
)
from kiss3.polynomial import RationalPoly
from kiss3.sphere import PointSet, SphericalPoint, icosahedron


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
