"""Points on the unit sphere: distances, the law of cosines, the rhombus
diagonal map, and point-set generation (icosahedron witness, seeded random
separated sets).

Angles are radians everywhere inside the library; degrees appear only at the
CLI boundary and in the point-set text format.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SaturationError, TooFewPoints

TWO_PI = 2.0 * math.pi


def _clamp(x: float) -> float:
    return -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)


@dataclass(frozen=True)
class SphericalPoint:
    """Colatitude theta in [0, pi] (0 = reference pole), azimuth phi in [0, 2pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"colatitude out of range: {self.theta}")
        object.__setattr__(self, "phi", self.phi % TWO_PI)

    def to_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @staticmethod
    def from_vector(v) -> "SphericalPoint":
        v = np.asarray(v, dtype=float)
        v = v / np.linalg.norm(v)
        return SphericalPoint(math.acos(_clamp(v[2])), math.atan2(v[1], v[0]))


@dataclass(frozen=True)
class PointSet:
    points: tuple[SphericalPoint, ...]

    def __init__(self, points):
        object.__setattr__(self, "points", tuple(points))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def vectors(self) -> np.ndarray:
        return np.array([p.to_vector() for p in self.points])

    def cos_matrix(self) -> np.ndarray:
        """Pairwise cosines of angular distance, clamped into [-1, 1]."""
        v = self.vectors()
        return np.clip(v @ v.T, -1.0, 1.0)

    def distance_matrix(self) -> np.ndarray:
        return np.arccos(self.cos_matrix())


def array_module(*xs):
    """numpy if any argument is a numpy array, else math.  Floats keep math's
    bits: numpy's vectorised trigonometry may differ in the last place."""
    return np if any(isinstance(x, np.ndarray) for x in xs) else math


def cos_law(theta1, theta2, dphi):
    """Spherical law of cosines: cosine of the side opposite the angle dphi.
    Takes floats, or numpy arrays that broadcast together."""
    xp = array_module(theta1, theta2, dphi)
    c = xp.cos(theta1) * xp.cos(theta2) + xp.sin(theta1) * xp.sin(theta2) * xp.cos(dphi)
    return _clamp(c) if xp is math else np.clip(c, -1.0, 1.0)


def angular_distance(p: SphericalPoint, q: SphericalPoint) -> float:
    return math.acos(cos_law(p.theta, q.theta, p.phi - q.phi))


def rho(s):
    """Companion diagonal of a unit-edge (60 degree) spherical rhombus.

    The diagonals d1, d2 satisfy cos(d1/2) cos(d2/2) = 1/2, so
    rho(s) = 2 arccos(1 / (2 cos(s/2))); an involution with rho(pi/2) = pi/2.
    Takes a float or a numpy array.
    """
    xp = array_module(s)
    c = xp.cos(s / 2.0)
    if np.any(c <= 0.5):
        raise DomainError(f"rho requires cos(s/2) > 1/2, got s = {s}")
    return 2.0 * (math.acos if xp is math else np.arccos)(1.0 / (2.0 * c))


def min_angle(cosm: np.ndarray) -> float:
    """Smallest angle arccos(cosm[i, j]) over the pairs i < j of a matrix of
    pairwise cosines."""
    return float(np.arccos(cosm[np.triu_indices(len(cosm), 1)]).min())


def min_separation(ps: PointSet) -> float:
    if len(ps) < 2:
        raise TooFewPoints("min_separation needs at least two points")
    return min_angle(ps.cos_matrix())


def icosahedron() -> PointSet:
    """The 12 icosahedron vertices from the cyclic (0, +-1, +-tau) family,
    normalized to the unit sphere.  Minimal separation arccos(1/sqrt(5)).
    """
    tau = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (1.0, -1.0):
        for b in (tau, -tau):
            verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    return PointSet(SphericalPoint.from_vector(v) for v in verts)


def random_point(rng: random.Random) -> SphericalPoint:
    """Area-uniform: azimuth uniform, cosine of colatitude uniform."""
    return SphericalPoint(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, TWO_PI))


def random_separated_set(
    n: int, min_sep: float, seed: int, max_tries: int = 20000
) -> PointSet:
    """n area-uniform points accepted by rejection against the separation
    constraint; deterministic for a fixed seed.

    The draw sequence is part of the output contract.  Each candidate takes
    two draws from random.Random(seed): colatitude acos(uniform(-1, 1)), then
    azimuth uniform(0, 2pi).  It is accepted when its law-of-cosines distance
    to every point already accepted is at least min_sep.  A seed therefore
    places the same points in the same order whatever n is, and the set for
    n is a prefix of the set for any larger n.

    Raises SaturationError after max_tries consecutive rejections; its
    `placed` attribute is the PointSet accepted before saturation, in order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    uniform = random.Random(seed).uniform
    acos, cos, sin = math.acos, math.cos, math.sin
    # (theta, phi, cos theta, sin theta) of each accepted point; the sums are
    # the ones cos_law forms, in the same operand order, so the acceptance
    # test agrees bit for bit with angular_distance.
    accepted: list[tuple[float, float, float, float]] = []
    rejections = 0
    while len(accepted) < n:
        theta = acos(uniform(-1.0, 1.0))
        phi = uniform(0.0, TWO_PI) % TWO_PI
        ct, st = cos(theta), sin(theta)
        for _, q_phi, q_ct, q_st in accepted:
            if not acos(_clamp(ct * q_ct + st * q_st * cos(phi - q_phi))) >= min_sep:
                rejections += 1
                if rejections >= max_tries:
                    raise SaturationError(
                        f"placed {len(accepted)}/{n} points before {max_tries} "
                        f"consecutive rejections at separation {min_sep}",
                        placed=_point_set(accepted),
                    )
                break
        else:
            accepted.append((theta, phi, ct, st))
            rejections = 0
    return _point_set(accepted)


def _point_set(accepted) -> PointSet:
    return PointSet(SphericalPoint(theta, phi) for theta, phi, _, _ in accepted)


def rotated(ps: PointSet, matrix: np.ndarray) -> PointSet:
    """Apply a 3x3 rotation matrix to every point."""
    return PointSet(SphericalPoint.from_vector(matrix @ p.to_vector()) for p in ps)


def random_rotation(seed: int) -> np.ndarray:
    """A uniformly random rotation matrix (QR of a Gaussian matrix)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# -- point-set text format: one "theta_deg phi_deg" pair per line ------------


def format_points(ps: PointSet) -> str:
    lines = ["# theta_deg phi_deg"]
    for p in ps:
        lines.append(f"{math.degrees(p.theta):.12f} {math.degrees(p.phi):.12f}")
    return "\n".join(lines) + "\n"


def parse_points(text: str) -> PointSet:
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'theta_deg phi_deg', got {raw!r}")
        theta, phi = (math.radians(float(x)) for x in parts)
        points.append(SphericalPoint(theta, phi))
    return PointSet(points)
