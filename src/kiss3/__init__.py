"""kiss3: a verification engine for the extended-Delsarte computation that
pins the kissing number in three dimensions at 12.

The package reproduces every computational step of the argument, in exact
rational arithmetic where possible and with rigorous enclosures elsewhere:
the certificate polynomial and its Legendre expansion, the cap analysis with
its profile maximizations, and the energy inequalities n^2 <= S(X) < 13n.
"""

from .bounds import BoundTable, compute_bound_table, refine_h34, verify_theorem
from .certificate import Certificate, build_certificate
from .energy import EnergySummary, energy
from .harness import RunConfig, VerificationReport, run
from .legendre import legendre, legendre_rodrigues
from .polynomial import Interval, RationalPoly
from .sphere import PointSet, SphericalPoint, icosahedron, min_separation

__version__ = "0.1.0"

__all__ = [
    "BoundTable",
    "Certificate",
    "EnergySummary",
    "Interval",
    "PointSet",
    "RationalPoly",
    "RunConfig",
    "SphericalPoint",
    "VerificationReport",
    "build_certificate",
    "compute_bound_table",
    "energy",
    "icosahedron",
    "legendre",
    "legendre_rodrigues",
    "min_separation",
    "refine_h34",
    "run",
    "verify_theorem",
]
