"""The degree-9 certificate polynomial, its Legendre expansion, and the
enclosures of its unique root t0 on [-1, 1/2] and of the cap radius
theta0 = arccos(t0).

The polynomial is fixed data; searching for certificates is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import CertificateInvalid
from .legendre import from_legendre_basis, to_legendre_basis
from .polynomial import Interval, RationalPoly, SturmChain, isolate_root, max_on_interval

# Monomial coefficients, lowest power first.
F_COEFFS = (
    Fraction(-1, 200),
    Fraction(1, 10),
    Fraction(-213, 100),
    Fraction(-83, 10),
    Fraction(343, 40),
    Fraction(18333, 400),
    Fraction(0),
    Fraction(-1287, 20),
    Fraction(0),
    Fraction(2431, 80),
)

# Expected Legendre coefficients c_0 ... c_9 of the certificate.
EXPECTED_LEGENDRE_COEFFS = (
    Fraction(1),
    Fraction(8, 5),
    Fraction(87, 25),
    Fraction(33, 20),
    Fraction(49, 25),
    Fraction(1, 10),
    Fraction(0),
    Fraction(0),
    Fraction(0),
    Fraction(8, 25),
)


@dataclass(frozen=True)
class Certificate:
    f: RationalPoly
    legendre_coeffs: tuple[Fraction, ...]  # c_0 ... c_9
    t0: Interval  # enclosure of the positive root magnitude (f(-t0) = 0)
    theta0: Interval  # arccos(t0), radians, outward rounded

    @cached_property
    def f_ends(self) -> tuple[Fraction, Fraction]:
        """The exact (f(-1), f(1)), evaluated once per certificate."""
        return self.f.eval(-1), self.f.eval(1)

    @cached_property
    def f_at_1(self) -> float:
        """float(f(1)), from the exact value, taken once per certificate."""
        return float(self.f_ends[1])

    @cached_property
    def _reconstructs(self) -> bool:
        """Whether the Legendre coefficients rebuild f exactly, checked once
        per certificate."""
        return from_legendre_basis(self.legendre_coeffs) == self.f

    @cached_property
    def sturm_chain(self) -> SturmChain:
        """The Sturm chain of f, the only one a certificate builds: the one
        build_certificate counted and isolated the root with, which property
        ii counts with again, or built on first use by a copy."""
        return SturmChain(self.f)


def build_certificate(coeffs=F_COEFFS) -> Certificate:
    """Construct and validate the certificate.

    The root of f on (-1, 0) is isolated by exact bisection; t0 is its
    magnitude and theta0 = arccos(t0), both carried as outward enclosures.
    One Sturm chain of f counts the roots, isolates t0 and becomes the
    certificate's `sturm_chain`, the only chain it builds: property i reads
    the Bernstein maximum of f' instead.  Raises CertificateInvalid on any
    structural failure.
    """
    f = RationalPoly(coeffs)
    if f.degree != 9:
        raise CertificateInvalid(f"certificate must have degree 9, got {f.degree}")
    expansion = to_legendre_basis(f)
    if from_legendre_basis(expansion) != f:
        raise CertificateInvalid("Legendre expansion does not reconstruct f")
    if expansion[0] != 1:
        raise CertificateInvalid(f"c_0 must be 1, got {expansion[0]}")
    if any(c < 0 for c in expansion):
        raise CertificateInvalid("negative Legendre coefficient")
    chain = SturmChain(f)
    if chain.count_open(Fraction(-1), Fraction(1, 2)) != 1:
        raise CertificateInvalid("f must have exactly one root on (-1, 1/2)")
    neg_root = isolate_root(f, Fraction(-1), Fraction(0), 1e-12, chain)
    t0 = Interval(-neg_root.hi, -neg_root.lo)
    if not (0.59 < t0.lo and t0.hi < 0.591):
        raise CertificateInvalid(f"t0 enclosure {t0} outside (0.59, 0.591)")
    theta0 = Interval(
        math.nextafter(math.acos(t0.hi), 0.0),
        math.nextafter(math.acos(t0.lo), math.pi),
    )
    cert = Certificate(f=f, legendre_coeffs=expansion, t0=t0, theta0=theta0)
    # seed the cached properties with the reconstruction checked above and
    # the chain t0 came from; a copy made by dataclasses.replace checks and
    # builds its own from its f and coefficients
    cert.__dict__.update(_reconstructs=True, sturm_chain=chain)
    return cert


def verify_expansion(c: Certificate, expected=None) -> bool:
    """Check the Legendre expansion: exact reconstruction, c_0 = 1, all
    c_k >= 0; when an expected coefficient tuple is given, require exact
    equality with it as well.
    """
    e = c.legendre_coeffs
    if not c._reconstructs:
        return False
    if e[0] != 1 or any(ck < 0 for ck in e):
        return False
    if expected is not None:
        exp = tuple(Fraction(x) for x in expected)
        got = e + (Fraction(0),) * (len(exp) - len(e))
        return got == exp
    return True


def verify_property_i(c: Certificate) -> bool:
    """f is decreasing on [-1, -t0]: f' is negative on [-1, -t0.lo], which
    holds it, as the upper end of the rigorous enclosure of its maximum there
    (`max_on_interval`, from Bernstein coefficients) is below 0.  A root of
    f' anywhere in the closed interval, ends included, fails the test.
    """
    return max_on_interval(c.f.derivative(), -1.0, -c.t0.lo).hi < 0


def verify_property_ii(c: Certificate) -> bool:
    """f < 0 on (-t0, 1/2]: exactly one root on (-1, 1/2), f(-1) > 0 and
    f(1/2) < 0, all in exact arithmetic.
    """
    return (
        c.sturm_chain.count_open(Fraction(-1), Fraction(1, 2)) == 1
        and c.f.eval(Fraction(1, 2)) < 0
        and c.f_ends[0] > 0
    )


def classic_delsarte_gap(c: Certificate) -> Fraction:
    """f(-1), exactly.  A positive value means f violates the classical
    Delsarte sign condition on [-1, 1/2], which is what forces the extended
    method's cap analysis.
    """
    return c.f_ends[0]
