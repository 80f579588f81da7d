"""Quadratic-form energies of point sets under the certificate polynomial:
the full double sum S(X), the per-point sums S_i, their cap truncations T_i,
and the deep-cap index sets J(i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import Certificate
from .errors import SeparationViolation
from .legendre import gegenbauer_sums
from .sphere import CosineBatch, PointSet, min_angle

SIXTY_DEG = math.pi / 3.0


@dataclass(frozen=True)
class PerPoint:
    S_i: float
    T_i: float
    J_i: tuple[int, ...]


@dataclass(frozen=True)
class EnergySummary:
    n: int
    S: float
    per_point: tuple[PerPoint, ...]
    min_sep: float  # radians; nan for singletons


def energy(ps: PointSet, c: Certificate) -> EnergySummary:
    """Full double sum S(X) = sum_ij f(cos dist(x_i, x_j)), diagonal included
    (each diagonal term is f(1)), with the per-point decomposition.

    J(i) collects the j with cos dist < -t0; membership is tested against the
    lower enclosure endpoint of t0, which can only enlarge J(i) and therefore
    only increase T_i -- conservative for the < 13 direction.

    Works on whole arrays: S_i is each row's numpy sum, and T_i is f(1) plus
    the sequential running sum (np.add.accumulate) of the row with every
    term outside J(i) set to zero, which adds the J(i) terms left to right
    as a Python sum over them would.  The masking and the running sums
    overwrite the values matrix in place once S and the S_i are taken.
    """
    n = len(ps)
    cosm = ps.cos_matrix()
    sep = min_angle(cosm) if n >= 2 else math.nan
    np.fill_diagonal(cosm, 1.0)
    values = np.polyval(c.f.real_coeffs(), cosm)
    np.fill_diagonal(values, c.f_at_1)
    S = float(values.sum())
    S_i = values.sum(axis=1).tolist()
    deep = cosm < -c.t0.lo  # the diagonal is 1.0, never in J(i)
    J = [tuple(row.nonzero()[0].tolist()) for row in deep]
    np.copyto(values, 0.0, where=~deep)
    np.add.accumulate(values, axis=1, out=values)
    T_i = (c.f_at_1 + values[:, -1]).tolist()
    per_point = tuple(map(PerPoint, S_i, T_i, J))
    return EnergySummary(n=n, S=S, per_point=per_point, min_sep=sep)


def set_energies(batch: CosineBatch, c: Certificate) -> np.ndarray:
    """S(X) of every set of a batch: one np.polyval of f over the flat
    cosines, each diagonal term set to f(1), and one sum per set."""
    values = np.polyval(c.f.real_coeffs(), batch.cos)
    values[batch.diagonal] = c.f_at_1
    return np.add.reduceat(values, batch.starts)


def lemma2_holds(S, n):
    """S(X) >= n^2 (with relative floating slack 1e-9); holds for every point
    set on the sphere, separated or not.  Takes the energies and sizes as
    numbers or as arrays."""
    return S >= n**2 * (1.0 - 1e-9)


def check_lemma2(ps: PointSet, c: Certificate) -> bool:
    """Lemma 2 (`lemma2_holds`) for one point set."""
    return bool(lemma2_holds(set_energies(CosineBatch.of(ps), c)[0], len(ps)))


def check_lemma3(ps: PointSet, c: Certificate) -> bool:
    """S(X) < 13 n strictly for 60-degree separated sets, plus the per-point
    chain S_i <= T_i < 13.  Raises SeparationViolation if the set is not
    separated."""
    summary = energy(ps, c)
    if len(ps) >= 2 and summary.min_sep < SIXTY_DEG - 1e-9:
        raise SeparationViolation(
            f"min separation {math.degrees(summary.min_sep):.4f} deg < 60 deg"
        )
    if not summary.S < 13.0 * summary.n:
        return False
    for rec in summary.per_point:
        if rec.S_i > rec.T_i + 1e-9 or not rec.T_i < 13.0:
            return False
    return True


def lemma1_holds(sums: np.ndarray, n) -> np.ndarray:
    """Every Gegenbauer sum of a set of n points is >= 0, with floating slack
    1e-9 n^2.  `sums` holds one row per degree and one column per set, as
    legendre.gegenbauer_sums gives them; `n` is the sizes, one per set."""
    return np.all(sums >= -1e-9 * n**2, axis=0)


def check_lemma1(ps: PointSet, kmax: int = 9) -> list[float]:
    """The Gegenbauer sums for k = 0 ... kmax; each is >= 0 up to rounding.
    A kmax above legendre.DEGREE_CAP raises `ValueError`."""
    batch = CosineBatch.of(ps)
    return gegenbauer_sums(batch.cos, batch.starts, range(kmax + 1))[:, 0].tolist()


def expansion_energies(batch: CosineBatch, c: Certificate) -> np.ndarray:
    """sum_k c_k * (Gegenbauer sum at k) for every set of a batch, with c_k
    the Legendre coefficients of f.  The lower-bound lemma's one-line proof
    is that this equals S(X); its distance from `set_energies` is the
    linearity-bridge gap."""
    weights = [float(ck) for ck in c.legendre_coeffs.coefficients]
    return np.dot(weights, gegenbauer_sums(batch.cos, batch.starts, range(len(weights))))


def linearity_gap(ps: PointSet, c: Certificate) -> float:
    """|S(X) - `expansion_energies`| for one point set."""
    batch = CosineBatch.of(ps)
    return float(abs(set_energies(batch, c) - expansion_energies(batch, c))[0])


def energy_to_json_dict(summary: EnergySummary) -> dict:
    return {
        "n": summary.n,
        "S": summary.S,
        "min_sep_deg": None
        if math.isnan(summary.min_sep)
        else math.degrees(summary.min_sep),
        "per_point": [
            {"S_i": r.S_i, "T_i": r.T_i, "J_i": list(r.J_i)} for r in summary.per_point
        ],
    }
