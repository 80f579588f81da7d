"""Points on the unit sphere: distances, the law of cosines, the rhombus
diagonal map, and point-set generation (icosahedron witness, seeded random
separated sets).

Angles are radians everywhere inside the library; degrees appear only at the
CLI boundary and in the point-set text format.  Only the functions that
build or take arrays import numpy.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import random
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, SaturationError, TooFewPoints

TWO_PI = 2.0 * math.pi


def _clamp(x: float, lo: float = -1.0, hi: float = 1.0) -> float:
    """x clipped into [lo, hi], by comparisons: np.clip's value on a float."""
    return lo if x < lo else (hi if x > hi else x)


def _unit_row(ct: float, st: float, phi: float) -> tuple[float, float, float]:
    """The unit vector at azimuth phi of a colatitude with cosine ct and
    sine st, on math floats: every point's vector is made here."""
    return (st * math.cos(phi), st * math.sin(phi), ct)


@dataclass(frozen=True)
class SphericalPoint:
    """Colatitude theta in [0, pi] (0 = reference pole), azimuth phi in [0, 2pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"colatitude out of range: {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"azimuth not finite: {self.phi}")
        object.__setattr__(self, "phi", self.phi % TWO_PI)

    def to_vector(self) -> np.ndarray:
        import numpy as np
        return np.array(_unit_row(math.cos(self.theta), math.sin(self.theta), self.phi))

    @staticmethod
    def from_vector(v) -> "SphericalPoint":
        import numpy as np
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
        """One row per point, with the bits of its `to_vector`: one array
        over tuples of the same math floats, not one array per point.  The
        shape is (n, 3), (0, 3) for a set of no points."""
        import numpy as np
        rows = [_unit_row(math.cos(p.theta), math.sin(p.theta), p.phi) for p in self.points]
        return np.array(rows).reshape(len(rows), 3)


def unit_vectors(z: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """One unit vector per row, from the cosines z of the colatitudes and the
    azimuths."""
    import numpy as np
    s = np.sqrt((1.0 - z) * (1.0 + z))
    return np.stack((s * np.cos(azimuth), s * np.sin(azimuth), z), axis=1)


class CosineBatch:
    """The pairwise cosines of a run of point sets, in one flat array.

    Set s, of sizes[s] = n points, holds its n x n cosine matrix row-major at
    cos[starts[s] : starts[s] + n * n]: each off-diagonal entry is the dot
    product of two unit vectors clamped into [-1, 1], and each diagonal entry
    is exactly 1.  `diagonal` holds the flat indices of the diagonal entries,
    one per point: starts[s] + r (n + 1) for row r.  Its points are rows
    first_points[s] onward of the vectors the batch was made from.  Per-set
    sums are np.add.reduceat(values, starts); every set has a point, so no
    segment is empty.  `nearest` is the one reading of each set's closest
    pair, for min_separation, energy.energy and energy.lemma3_holds.

    The blocks of all sets of one size n come from one stacked
    np.matmul(V, V.transpose(0, 2, 1)) of their (m, n, 3) vectors.  numpy
    takes each item of the stack by BLAS syrk, as it takes the 2-D
    np.matmul(v, v.T) of one set, and mirrors one triangle, so every block
    is exactly symmetric, and a set's cosines have the same bits whichever
    batch holds it.  Where the size's sets are consecutive, their blocks
    are one run of `cos` and the product is written straight into it; a
    one-set batch, such as `of` makes for energy(), is such a run, so it
    makes no n x n temporary.  Otherwise the product is made apart and
    scattered into the sets' slices.

    The energy kernels (energy.set_energies, energy.point_energies) spend a
    batch: they take `cos` out of it and overwrite it with f's values, so a
    later read of `cos` raises AttributeError.  Read what else a batch
    gives (the separation, the Gegenbauer sums) before them.
    """

    def __init__(self, vectors: np.ndarray, sizes):
        """`vectors` holds the sets' unit vectors, one per row, set after set."""
        import numpy as np
        self.sizes = np.asarray(sizes, dtype=np.intp)
        if np.any(self.sizes < 1) or self.sizes.sum() != len(vectors):
            raise ValueError("every set needs a point, and every point a set")
        vectors = np.ascontiguousarray(vectors, dtype=float)
        squares = self.sizes * self.sizes
        self.starts = np.cumsum(squares) - squares
        self.first_points = np.cumsum(self.sizes) - self.sizes
        self.cos = np.empty(squares.sum())
        # the distinct sizes from a set: np.unique's first call imports numpy.ma
        for n in set(self.sizes.tolist()):
            sets = np.flatnonzero(self.sizes == n)
            m = len(sets)
            if sets[-1] - sets[0] == m - 1:
                first, start = self.first_points[sets[0]], self.starts[sets[0]]
                v = vectors[first : first + m * n].reshape(m, n, 3)
                out = self.cos[start : start + m * n * n].reshape(m, n, n)
                np.matmul(v, v.transpose(0, 2, 1), out=out)
            else:
                v = vectors[self.first_points[sets, None] + np.arange(n)]
                blocks = np.matmul(v, v.transpose(0, 2, 1)).reshape(m, n * n)
                self.cos[self.starts[sets, None] + np.arange(n * n)] = blocks
        np.clip(self.cos, -1.0, 1.0, out=self.cos)
        # row r of set s is its point p = first_points[s] + r, and
        # starts[s] + r (n + 1) = (starts[s] - first_points[s] (n + 1)) + p (n + 1)
        step = self.sizes + 1
        self.diagonal = (self.starts - self.first_points * step).repeat(self.sizes)
        self.diagonal += step.repeat(self.sizes) * np.arange(len(vectors))
        self.cos[self.diagonal] = 1.0

    def nearest(self) -> np.ndarray:
        """Every set's largest off-diagonal cosine, the cosine of its closest
        pair (-1 for a one-point set): one np.maximum.reduceat with each
        diagonal entry set to -1 in place, so the cosines are not copied.
        The diagonal is then restored to exactly 1: a -1 left there would
        enter the deep-cap mask cos < -t0.lo (energy.point_energies)."""
        import numpy as np
        self.cos[self.diagonal] = -1.0
        closest = np.maximum.reduceat(self.cos, self.starts)
        self.cos[self.diagonal] = 1.0
        return closest

    @classmethod
    def of(cls, ps: PointSet) -> "CosineBatch":
        """The one-set batch of a point set."""
        return cls(ps.vectors(), [len(ps)])


def cos_law(theta1: float, theta2: float, dphi: float) -> float:
    """Spherical law of cosines: cosine of the side opposite the angle dphi,
    on math floats, clamped into [-1, 1]."""
    cos, sin = math.cos, math.sin
    return _clamp(cos(theta1) * cos(theta2) + sin(theta1) * sin(theta2) * cos(dphi))


def angular_distance(p: SphericalPoint, q: SphericalPoint) -> float:
    return math.acos(cos_law(p.theta, q.theta, p.phi - q.phi))


def rho(s: float) -> float:
    """Companion diagonal of a unit-edge (60 degree) spherical rhombus.

    The diagonals d1, d2 satisfy cos(d1/2) cos(d2/2) = 1/2, so
    rho(s) = 2 arccos(1 / (2 cos(s/2))), on math floats; an involution with
    rho(pi/2) = pi/2.
    """
    c = math.cos(s / 2.0)
    if c <= 0.5:
        raise DomainError(f"rho requires cos(s/2) > 1/2, got s = {s}")
    return 2.0 * math.acos(1.0 / (2.0 * c))


def min_separation(ps: PointSet) -> float:
    if len(ps) < 2:
        raise TooFewPoints("min_separation needs at least two points")
    import numpy as np
    return float(np.arccos(CosineBatch.of(ps).nearest()[0]))


def icosahedron_vertices(zero, ones, taus) -> list[tuple]:
    """The 12 icosahedron vertices, the cyclic (0, +-1, +-tau) family: the
    cyclic shifts (0, a, b), (a, b, 0) and (b, 0, a) for a in ones = (1, -1)
    and b in taus = (tau, -tau), in the number type the arguments hold."""
    return [v for a in ones for b in taus for v in ((zero, a, b), (a, b, zero), (b, zero, a))]


def icosahedron() -> PointSet:
    """The 12 icosahedron vertices, normalized to the unit sphere.  Minimal
    separation arccos(1/sqrt(5)).
    """
    tau = (1.0 + math.sqrt(5.0)) / 2.0
    verts = icosahedron_vertices(0.0, (1.0, -1.0), (tau, -tau))
    return PointSet(SphericalPoint.from_vector(v) for v in verts)


def random_point(rng: random.Random) -> SphericalPoint:
    """Area-uniform: azimuth uniform, cosine of colatitude uniform."""
    return SphericalPoint(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, TWO_PI))


#: Candidates per set drawn and filtered together by each of the sampler's
#: rounds, and the run of rejections after which it runs its jam test.
SAMPLER_BLOCK = 256
#: Half-width of the cosine band around cos(min_sep) inside which the
#: sampler decides a candidate by the scalar rule; over 16 times the error
#: of the filter's float32 directions (see random_separated_sets).
SAMPLER_MARGIN = 1e-5
#: Most accepted points on which the sampler runs its jam test.  No
#: 60-degree separated set has more: their caps of radius 30 degrees are
#: disjoint, so k sin^2(15 deg) <= 1 and k <= 14, the area bound that also
#: sizes the sampler's rows.  So every lemma-3 set can be tested, each on
#: at most C(14, 3) = 364 planes (20-45 us for one set of 4-14 points on a
#: 2-core VM, about one block of candidates); the planes grow as k^3, and
#: a huge `sample --n` builds none.
JAM_TEST_POINTS = 14


@lru_cache(maxsize=JAM_TEST_POINTS)
def _plane_edges(k: int) -> np.ndarray:
    """Flat indices into the 3 x k x k differences d[x][p][q] = x_q - x_p of
    k points' coordinates x of the edges b - a and c - a of the C(k, 3)
    planes through three points a, b, c, each with its coordinates in the
    order x, y, z, x, y: [edge, coordinate, plane].  Read-only, as every
    caller gets the cached array."""
    import numpy as np
    i, j, l = np.array(list(itertools.combinations(range(k), 3)), dtype=np.intp).T
    coordinate = k * k * np.array([0, 1, 2, 0, 1])[:, None]
    edges = np.array([coordinate + k * i + j, coordinate + k * i + l])
    edges.flags.writeable = False
    return edges


def caps_cover(vectors: np.ndarray, h: float) -> np.ndarray:
    """For each of m sets of k unit vectors p, the rows of `vectors[s]` in
    an (m, k, 3) stack, whether the open caps {x : x . p > h}, 0 < h, around
    them cover the sphere: m booleans.  A single set is passed as v[None].

    The caps do if and only if the support function m(u) = max_p u . p
    exceeds h at every unit u.  Where the origin lies inside the points'
    convex hull, the least m(u) is the distance to the nearest facet plane,
    attained at that facet's normal; where it does not, some facet normal
    has m(u) <= 0.  A facet plane passes through three of the points, and
    m(u) at any other direction is no smaller than its least value, so the
    least m(u) over the normals of all planes through three points, in both
    orientations, decides it (a plane through a repeated point has no
    normal and counts as uncovered).  The caps of k points cover at most
    k (1 - h) / 2 of the sphere, so fewer than 4 points, or too small caps,
    never cover it.

    Each set's answer has the arithmetic it would have alone: the same
    elementwise differences and cross products, and its heights from one
    item of a stacked @, which numpy takes by one BLAS call per item, as it
    takes the 2-D product of one set.
    """
    import numpy as np
    m, k = vectors.shape[:2]
    if k < 4 or k * (1.0 - h) < 2.0:
        return np.zeros(m, dtype=bool)
    xyz = vectors.transpose(0, 2, 1)
    differences = (xyz[:, :, None, :] - xyz[:, :, :, None]).reshape(m, 3 * k * k)
    gathered = differences[:, _plane_edges(k)]
    b, c = gathered[:, 0], gathered[:, 1]
    # (b - a) x (c - a), a column per plane
    normals = b[:, 1:4] * c[:, 2:5] - b[:, 2:5] * c[:, 1:4]
    heights = vectors @ normals
    reach = np.minimum(heights.max(axis=1), -heights.min(axis=1))
    return np.all(reach > h * np.sqrt((normals * normals).sum(axis=1)), axis=1)


_thread_state = threading.local()


def _seeded_states(seeds) -> list:
    """One numpy RandomState per seed, whose random_sample stream is
    random.Random(seed)'s random() stream.

    Both seed MT19937 by init_by_array on the 32-bit words of abs(seed),
    least significant first (one zero word for seed 0), and build each double
    from two 32-bit outputs the same way; NumPy keeps this legacy stream
    frozen.  The states are a pool of the calling thread's, reseeded on each
    call and grown to the most seeds a call has asked for; none is made
    before the first call, so importing this module loads neither numpy nor
    numpy.random.  A pool state starts from a constant seed sequence, not
    the OS entropy a fresh RandomState() gathers, as reseeding overwrites it.
    """
    import numpy as np
    pool = getattr(_thread_state, "pool", None)
    if pool is None:
        pool = _thread_state.pool = []
    if len(pool) < len(seeds):
        from numpy.random import MT19937, RandomState
        from numpy.random.bit_generator import ISeedSequence

        class Constant(ISeedSequence):
            def generate_state(self, n_words, dtype=np.uint32):
                # MT19937 copies the words one at a time: a list is quickest
                return [0] * n_words

        pool += (RandomState(MT19937(Constant())) for _ in range(len(seeds) - len(pool)))
    for state, seed in zip(pool, seeds):
        a = abs(operator.index(seed))
        state.seed([(a >> s) & 0xFFFFFFFF for s in range(0, max(a.bit_length(), 1), 32)])
    return pool[: len(seeds)]


def _filter_xy(z: np.ndarray, azimuth: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Write the x and y of the candidates' unit vectors, as the sampler's
    filter takes them, into `x` and `y`: sqrt((1 - z)(1 + z)) times the
    float32 cosine and sine of the azimuths rounded to float32.  They are
    within 6e-7 of the exact coordinates (see random_separated_sets)."""
    import numpy as np
    s = np.sqrt((1.0 - z) * (1.0 + z))
    a32 = azimuth.astype(np.float32)
    np.multiply(s, np.cos(a32), out=x)
    np.multiply(s, np.sin(a32), out=y)


class SampledSet(NamedTuple):
    """One set of `random_separated_sets`."""

    angles: list[tuple[float, float]]  # (theta, phi) of each accepted point, in draw order
    vectors: np.ndarray  # their unit vectors, one row each
    saturated: bool  # whether the sampler stopped before placing all it was asked for


def random_separated_sets(
    sizes, min_sep: float, seeds, max_tries: int = 20000
) -> list[SampledSet]:
    """For each target sizes[i] = n and seed seeds[i], n area-uniform points
    accepted by rejection against the separation constraint, as a
    `SampledSet`; deterministic for a fixed seed.

    The draw sequence is part of the output contract.  Each candidate takes
    two draws from random.Random(seed): colatitude acos(uniform(-1, 1)), then
    azimuth uniform(0, 2pi).  It is accepted when its law-of-cosines distance
    acos(_clamp(cos t cos t' + sin t sin t' cos(phi - phi'))), on math values,
    to every point already accepted is at least min_sep.  A seed therefore
    places the same points in the same order whatever n is, and the set for
    n is a prefix of the set for any larger n.  After max_tries consecutive
    rejections the set stops, saturated, with the points accepted so far.

    The candidates are drawn and tested in blocks, from a numpy RandomState
    per seed that reproduces random.Random(seed)'s doubles, and the block
    test is decision-exact: it accepts and rejects exactly the candidates
    the scalar rule does.  The test's cosine c from a candidate to an
    accepted point is the product of the point's unit vector, from its math
    values, and the candidate's as `_filter_xy` gives it: float64 z, but x
    and y from float32 cos and sin of the azimuth rounded to float32.  The
    rounding moves an azimuth in [0, 2pi) by at most 2^-22 (half a float32
    unit in [4, 8)), so (cos, sin) moves at most 2^-22 along the unit
    circle, and the float32 cos and sin add at most 2^-22 each (numpy's
    were within 1.21 * 2^-24 of the float64 values on every float32 in
    [0, 2pi], checked exhaustively on an x86-64 AVX-512 host: 3.3 times
    spare).  Scaled by sin t <= 1, the candidate's vector is within
    (1 + sqrt 2) 2^-22 < 5.8e-7 of its exact one, so c is within 6e-7 of
    the exact cosine, and of the scalar rule's sum, which lies within 1e-14
    of it.  One unit in the last place of math.acos, or of math.cos(min_sep),
    moves the cosine at min_sep by under 1e-15 (a relative error e in an
    angle x moves its cosine by x sin(x) e, and x sin(x) < pi).  So the
    scalar rule accepts wherever c < cos(min_sep) - SAMPLER_MARGIN and
    rejects wherever c > cos(min_sep) + SAMPLER_MARGIN: the band, 1e-5, is
    over 16 times the 6e-7 bound and over 34 times the largest error
    measured, under 2.9e-7 over 10^7 random pairs.  Only a candidate within
    the band of cos(min_sep) for some accepted point, and no rejecting one,
    is decided by the scalar rule itself.  Accepted points keep their
    math.acos/cos/sin values; their vectors never pass through float32.
    The argument needs 0 <= min_sep <= pi, where acos(c) >= min_sep means
    c <= cos(min_sep); other values, NaN included, raise ValueError.

    The sets are sampled together, in rounds: in each, every set not yet
    done draws its next block of SAMPLER_BLOCK candidates, and the blocks'
    unit vectors and the largest cosine from each candidate to its set's
    accepted points are computed for many sets at once.  Then those
    sets step through their blocks in lockstep, each taking its next
    candidate that the filter does not reject; one that a set accepts
    raises the largest cosines of that set's later candidates.  The lockstep
    is decision-exact too.  Each set reads only its own stream, in draw
    order, and its block test sees the cosines to exactly the points it has
    accepted before each candidate, whatever the other sets do.  Its
    rejections are counted in runs, each up to the next candidate that the
    filter passes, across block ends; one the scalar rule rejects joins the
    run after it, as no acceptance comes between.  So a stall reaches
    max_tries, and the jam test's trigger below, at the same candidate
    wherever the blocks end, and neither the blocks nor the other sets
    change what a set accepts, rejects, tests or returns.

    A set also stops, saturated with the same points, once no later
    candidate could be accepted.  A stall is marked when the rejections
    since the last acceptance first reach SAMPLER_BLOCK, while cos(min_sep)
    > 0 and at most JAM_TEST_POINTS points are placed.  After the round's
    lockstep, every marked set that has accepted nothing since, so is
    neither finished nor saturated, is tested: the sampler asks
    `caps_cover`, in one call per point count, whether the caps of cosine
    cos(min_sep) + SAMPLER_MARGIN around the placed points cover the sphere,
    and stops each set whose caps do.  If they do, every candidate
    x has a placed point p with x . p > cos(min_sep) + SAMPLER_MARGIN,
    which the scalar rule rejects and the filter never accepts.  In floats the
    computed least support value can exceed the true one only by the error
    of the normal of the facet that attains it, and of that normal's
    heights.  caps_cover looks at planes only when k (1 - h) >= 2 for the
    caps' cosine h, so min_sep > 31 degrees for k <= 14; the facet's
    corners are then min_sep apart, its cross product is at least
    chord(min_sep)^3 / 2 > 0.07 long (a triangle inscribed in a circle of
    radius at most 1), and the error is under 1e-13.  A jam therefore means
    that caps of cosine cos(min_sep) + SAMPLER_MARGIN - 1e-13 cover the
    sphere: every candidate has a placed point whose exact cosine to it is
    above that.  The filter's cosine, within 6e-7 of it, stays above
    cos(min_sep) - SAMPLER_MARGIN, so the filter never accepts the
    candidate, and the scalar rule's, within 1e-14, stays above
    cos(min_sep), so the scalar rule rejects it.  So a set that jammed at
    its stall's SAMPLER_BLOCK-th rejection rejects the rest of that round:
    tested at the round's end, it returns the same points, and is just as
    saturated, as if stopped at the stall (a max_tries stop in between
    saturates it with those points too).  A set whose caps leave room is
    not stopped either way.  Only the count of tests can differ from a test
    at each stall: a set that accepts again after its stall, or finishes,
    is not tested.  Each set's `vectors` are the unit vectors its block
    test used for its accepted points, from their math values.
    """
    sizes = list(sizes)
    if len(sizes) != len(seeds):
        raise ValueError("need one seed per set")
    if any(n < 1 for n in sizes):
        raise ValueError("need n >= 1")
    if not 0.0 <= min_sep <= math.pi:
        raise ValueError(f"min_sep must lie in [0, pi], got {min_sep}")
    import numpy as np
    states = _seeded_states(seeds)
    acos, cos, sin = math.acos, math.cos, math.sin
    cos_sep = cos(min_sep)
    accept_below = cos_sep - SAMPLER_MARGIN
    reject_above = cos_sep + SAMPLER_MARGIN
    # a stall is marked for the jam test when the rejections since the last
    # acceptance first reach a whole block; never for caps of a hemisphere or more
    size = SAMPLER_BLOCK
    jam_test_at = size if cos_sep > 0.0 else -1
    # (theta, phi, cos theta, sin theta) of each set's accepted points; the
    # sums are the ones cos_law forms, in the same operand order, so the
    # scalar rule agrees bit for bit with angular_distance.
    accepted = [[] for _ in sizes]
    rejections = [0] * len(sizes)
    saturated = [False] * len(sizes)
    # The sets still sampling, and row i of points for set i, for the whole
    # call: the unit vectors of its k accepted points in points[i, :k], and
    # copies of the first in its later columns, which leave the largest
    # cosine to the set's points as it is.  Caps of radius min_sep / 2 around
    # a set's points are disjoint, and each covers sin^2(min_sep / 4) of the
    # sphere, so no set places more than 1 / sin^2(min_sep / 4) points (14 at
    # 60 degrees): the rows are that wide, with a column to spare, where the
    # largest target is wider.  An area that underflows to 0 or a target past
    # the floats' range is compared without a division by 0 or an overflow.
    live = list(range(len(sizes)))
    most, area = max(sizes, default=1), sin(min_sep / 4) ** 2
    width = 1 + int(1 / area) if area and 1 / area < most else most
    points = np.zeros((len(sizes), width, 3))

    def sample(ids: list):
        """One round of the sets in `ids`, `size` candidates each."""
        rows = len(ids)
        draws = np.concatenate([states[i].random_sample(2 * size) for i in ids])
        # Five planes over the candidates, set after set: their unit vectors'
        # x, y and z, whose (rows, 3, size) view holds each set's block of
        # columns, so that the largest cosine of each candidate reduces the
        # (accepted, candidate) product along its long axis; their azimuths;
        # and their largest cosines to their set's accepted points.  z and
        # the azimuths have the bits of random.Random's uniform(-1, 1) and
        # uniform(0, 2pi) on the same doubles; x and y, which only the
        # filter reads, are `_filter_xy`'s.
        table = np.empty((5, rows * size))
        x, y, z, azimuth, closest = table
        np.subtract(2.0 * draws[0::2], 1.0, out=z)
        np.multiply(TWO_PI, draws[1::2], out=azimuth)
        del draws
        _filter_xy(z, azimuth, x, y)
        block = table[:3].reshape(3, rows, size).transpose(1, 0, 2)
        closest = closest.reshape(rows, size)
        closest.fill(-np.inf)
        # every set accepts the first candidate of its first round, so a
        # round's sets have all accepted points or none; the products run
        # over column slices of all its sets, at most 2^15 (256 kB) at a
        # time (rows * size <= 2^13, so a slice is at least 4 columns wide),
        # each freed by its max before the next is made: two alive at once
        # took fresh pages for every 256 kB product
        part = (1 << 15) // (rows * size)
        for p in range(0, max(len(accepted[i]) for i in ids), part):
            largest = (points[ids, p : p + part] @ block).max(axis=1)
            np.maximum(closest, largest, out=closest)
        # The lockstep: each active row takes its next candidate that the
        # filter does not reject, and marks it taken with a cosine of +inf.
        # One gather reads the candidates' z, azimuths and cosines.  new[row]
        # is a point the row's set has accepted, the latest once it accepts
        # one in this round: raising the set's cosines by their cosines to it
        # leaves them right.  (A set with no point yet accepts the first
        # candidate of the first step, before new is read.)
        start = [0] * rows
        active = list(range(rows))
        offsets = np.arange(0, rows * size, size)
        read = table[2:]
        new = points[ids, :1]
        while active:
            nxt = (closest <= reject_above).argmax(axis=1)
            cos_thetas, azimuths, cosines = read.take(nxt + offsets, axis=1).tolist()
            nxt = nxt.tolist()
            going = []
            grew = False
            for row in active:
                i = ids[row]
                k = len(accepted[i])
                c = cosines[row]
                j = nxt[row] if c <= reject_above else size
                run = j - start[row]
                if run:
                    # the rejected candidates up to the next that survives the filter
                    r = rejections[i] = rejections[i] + run
                    if r >= max_tries:
                        saturated[i] = True
                        continue
                    if r - run < jam_test_at <= r and k <= JAM_TEST_POINTS:
                        stalled.append(i)
                if j == size:
                    continue
                closest[row, j] = np.inf
                theta = acos(cos_thetas[row])
                phi = azimuths[row] % TWO_PI
                ct, st = cos(theta), sin(theta)
                if c > accept_below and not all(
                    acos(_clamp(ct * q_ct + st * q_st * cos(phi - q_phi))) >= min_sep
                    for _, q_phi, q_ct, q_st in accepted[i]
                ):
                    # rejected by the scalar rule: counted with the row's
                    # next run, as no acceptance comes between
                    start[row] = j
                else:
                    start[row] = j + 1
                    v = _unit_row(ct, st, phi)
                    points[i, k if k else slice(None)] = v
                    accepted[i].append((theta, phi, ct, st))
                    rejections[i] = 0
                    if k + 1 == sizes[i]:
                        continue
                    new[row, 0] = v
                    grew = True
                going.append(row)
            if grew:
                np.maximum(closest, (new @ block)[:, 0], out=closest)
            active = going

    # a round's sets go in groups of 2^13 candidates, so that its arrays
    # stay under 1 MB
    group = (1 << 13) // size
    while live:
        stalled = []
        for first in range(0, len(live), group):
            sample(live[first : first + group])
        # the round's jam tests, one caps_cover call per point count, of the
        # sets that have accepted nothing since their stall reached a block
        # (any acceptance resets the count, and a block leaves too few
        # candidates after one for a second stall to reach it)
        tested = collections.defaultdict(list)
        for i in stalled:
            if not saturated[i] and rejections[i] >= size:
                tested[len(accepted[i])].append(i)
        for k, ids in tested.items():
            for i, covered in zip(ids, caps_cover(points[ids, :k], reject_above).tolist()):
                saturated[i] = covered
        live = [i for i in live if not saturated[i] and len(accepted[i]) < sizes[i]]
    return [
        SampledSet([p[:2] for p in placed], points[i, : len(placed)], saturated[i])
        for i, placed in enumerate(accepted)
    ]


def random_separated_set(
    n: int, min_sep: float, seed: int, max_tries: int = 20000
) -> PointSet:
    """n area-uniform points accepted by rejection against the separation
    constraint, as `random_separated_sets` places them for this one seed.

    Raises SaturationError after max_tries consecutive rejections, or as
    soon as the placed points' caps are found to leave no room; its
    `placed` attribute is the PointSet accepted before saturation, in
    order.
    """
    ((angles, _, saturated),) = random_separated_sets([n], min_sep, [seed], max_tries)
    ps = PointSet(SphericalPoint(theta, phi) for theta, phi in angles)
    if saturated:
        raise SaturationError(
            f"placed {len(ps)}/{n} points before {max_tries} "
            f"consecutive rejections at separation {min_sep}",
            placed=ps,
        )
    return ps


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
        try:
            theta, phi = (float(x) for x in parts)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        # checked in degrees, so that a bad value is named as the file wrote it
        if not 0.0 <= theta <= 180.0:
            raise ValueError(f"line {lineno}: colatitude out of range: {parts[0]} degrees")
        if not math.isfinite(phi):
            raise ValueError(f"line {lineno}: azimuth not finite: {parts[1]} degrees")
        points.append(SphericalPoint(math.radians(theta), math.radians(phi)))
    return PointSet(points)
