"""Quadratic-form energies of point sets under the certificate polynomial:
the full double sum S(X), the per-point sums S_i, their cap truncations T_i,
and the deep-cap index sets J(i).  Each function imports numpy when it runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .certificate import Certificate
from .errors import SeparationViolation
from .legendre import gegenbauer_sums
from .sphere import CosineBatch, PointSet

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
    (each diagonal term is f(1)), with the per-point decomposition: S, S_i
    and T_i are `point_energies` of the set's one-set batch, bit for bit
    what lemma 3 gets for the same set in any batch.

    J(i) collects the j with cos dist < -t0; membership is tested against the
    lower enclosure endpoint of t0, which can only enlarge J(i) and therefore
    only increase T_i -- conservative for the < 13 direction.  The minimum
    separation is read from the batch's cosines before `point_energies`
    spends the batch, so a set holds one n x n float64 array and the n x n
    deep-cap mask (about 9 n^2 bytes), and J(i), read from the mask, is
    built after the floats are freed.  A set of no points has S = 0 and no
    per-point rows.  `energy_json` writes the summary as the `kiss3 energy`
    report.
    """
    import numpy as np
    n = len(ps)
    if not n:
        return EnergySummary(n=0, S=0.0, per_point=(), min_sep=math.nan)
    batch = CosineBatch.of(ps)
    sep = float(np.arccos(batch.nearest()[0])) if n >= 2 else math.nan
    S, S_i, T_i, deep = point_energies(batch, c)
    J = [tuple(row.nonzero()[0].tolist()) for row in deep.reshape(n, n)]
    per_point = tuple(map(PerPoint, S_i.tolist(), T_i.tolist(), J))
    return EnergySummary(n=n, S=float(S[0]), per_point=per_point, min_sep=sep)


# Entries per slice of `_eval_f`'s Horner steps: a slice of the cosines and
# the accumulator take 256 KB each, which stay in a core's 2 MB L2 cache
# through all the steps; a 1000-point matrix (8 MB) does not.  Measured
# on that 1M-entry matrix (2-core VM, numpy 2.4): 10.0 ms in one pass per
# step, 4.7-5.1 ms at 16K-64K entries a slice, 9.5 ms at 256K.  The lemma
# batches, at most about 32K entries, are one slice.
EVAL_CHUNK = 32768


def _eval_f(x: np.ndarray, c: Certificate) -> np.ndarray:
    """f at every entry of the C-contiguous array `x`, written over `x`,
    which is returned.

    These are np.polyval's own Horner steps in its order -- start from the
    leading coefficient, then multiply by the cosine and add the next
    coefficient -- so the bits are np.polyval(c.f.real_coeffs(), x)'s, for f
    of any degree.  They run over the flat entries EVAL_CHUNK at a time, all
    steps on one slice before the next, so each slice stays in cache, with
    the accumulator in one EVAL_CHUNK scratch; the last step multiplies it
    into the slice of `x`.
    """
    import numpy as np
    *head, a0 = c.f.real_coeffs()
    lead, *middle = head or [0.0]  # a constant f: np.polyval's 0 * x + a_0
    flat = x.reshape(-1)
    acc = np.empty(min(flat.size, EVAL_CHUNK))
    for start in range(0, flat.size, EVAL_CHUNK):
        xs = flat[start : start + EVAL_CHUNK]
        v = acc[: xs.size]
        v.fill(lead)
        for a in middle:
            v *= xs
            v += a
        np.multiply(v, xs, out=xs)
        xs += a0
    return x


def _f_values(batch: CosineBatch, c: Certificate) -> np.ndarray:
    """f of every flat cosine of a batch, each diagonal term set to f(1),
    written over the batch's cosines: the batch is spent, and a later read
    of its `cos` raises AttributeError rather than give f's values."""
    values = _eval_f(batch.cos, c)
    del batch.cos
    values[batch.diagonal] = c.f_at_1
    return values


def set_energies(batch: CosineBatch, c: Certificate) -> np.ndarray:
    """S(X) of every set of a batch: f over the flat cosines, each diagonal
    term set to f(1), and one sum per set; spends the batch."""
    import numpy as np
    return np.add.reduceat(_f_values(batch, c), batch.starts)


def lemma2_holds(S, n):
    """S(X) >= n^2 (with relative floating slack 1e-9); holds for every point
    set on the sphere, separated or not.  Takes the energies and sizes as
    numbers or as arrays."""
    return S >= n**2 * (1.0 - 1e-9)


def check_lemma2(ps: PointSet, c: Certificate) -> bool:
    """Lemma 2 (`lemma2_holds`) for one point set."""
    return bool(lemma2_holds(set_energies(CosineBatch.of(ps), c)[0], len(ps)))


def point_energies(batch: CosineBatch, c: Certificate):
    """S, S_i and T_i for every set of a batch, and its deep-cap mask: S one
    per set, S_i and T_i one per point, set after set, and the mask one per
    flat cosine; `energy` is its one-set call.

    S and the S_i are sums of the f values over each set's block and over
    each row of it.  The mask is true where the cosine lies below -t0.lo,
    the lower endpoint (see `energy`), never on the diagonal (1.0); T_i is
    f(1) plus the row's sum over those terms, with every other term
    multiplied by zero in place.  The mask is taken before f's values
    overwrite the cosines: the batch is spent.
    """
    import numpy as np
    deep = batch.cos < -c.t0.lo
    values = _f_values(batch, c)
    S = np.add.reduceat(values, batch.starts)
    # row r of a set starts r entries before its diagonal entry
    r = np.arange(len(batch.diagonal)) - batch.first_points.repeat(batch.sizes)
    rows = batch.diagonal - r
    S_i = np.add.reduceat(values, rows)
    np.multiply(values, deep, out=values)
    T_i = c.f_at_1 + np.add.reduceat(values, rows)
    return S, S_i, T_i, deep


def lemma3_holds(batch: CosineBatch, c: Certificate) -> tuple[np.ndarray, np.ndarray]:
    """For every set of a batch, whether its sum holds, S(X) < 13 n strictly,
    and whether its point chain holds, S_i <= T_i < 13 (with slack 1e-9 on
    the first) for each of its points.  The lemma needs both; the chain is
    its proof, and implies the sum up to the slack.

    Lemma 3 is about 60-degree separated sets, so this first takes each
    set's largest off-diagonal cosine (`CosineBatch.nearest`, -1 for a
    one-point set, which always passes), and raises SeparationViolation
    for the first set whose smallest angle is below 60 degrees less 1e-9.
    """
    import numpy as np
    closest = batch.nearest()
    close = np.flatnonzero(np.arccos(closest) < SIXTY_DEG - 1e-9)
    if close.size:
        sep = float(np.arccos(closest[close[0]]))
        raise SeparationViolation(f"min separation {math.degrees(sep):.4f} deg < 60 deg")
    S, S_i, T_i, _ = point_energies(batch, c)
    points_hold = (S_i <= T_i + 1e-9) & (T_i < 13.0)
    return S < 13.0 * batch.sizes, np.logical_and.reduceat(points_hold, batch.first_points)


def check_lemma3(ps: PointSet, c: Certificate) -> bool:
    """Lemma 3 (`lemma3_holds`, sum and point chain) for one point set;
    raises SeparationViolation if the set is not separated."""
    sum_holds, chain_holds = lemma3_holds(CosineBatch.of(ps), c)
    return bool(sum_holds[0] and chain_holds[0])


def lemma1_holds(sums: np.ndarray, n) -> np.ndarray:
    """Every Gegenbauer sum of a set of n points is >= 0, with floating slack
    1e-9 n^2.  `sums` holds one row per degree and one column per set, as
    legendre.gegenbauer_sums gives them; `n` is the sizes, one per set."""
    return (sums >= -1e-9 * n**2).all(axis=0)


def expansion_energies(sums: np.ndarray, c: Certificate) -> np.ndarray:
    """sum_k c_k * (Gegenbauer sum at k) for every set of a batch, with c_k
    the Legendre coefficients of f.  `sums` holds the sets' Gegenbauer sums
    as legendre.gegenbauer_sums gives them, one row per degree from 0, at
    least one row per coefficient; a degree-9 f has 10.  The lower-bound
    lemma's one-line proof is that this equals S(X); its distance from
    `set_energies` is the linearity-bridge gap."""
    import numpy as np
    weights = [float(ck) for ck in c.legendre_coeffs]
    return np.dot(weights, sums[: len(weights)])


def linearity_gap(ps: PointSet, c: Certificate) -> float:
    """|S(X) - `expansion_energies`| for one point set."""
    batch = CosineBatch.of(ps)
    sums = gegenbauer_sums(batch.cos, batch.starts, range(len(c.legendre_coeffs)))
    return float(abs(set_energies(batch, c) - expansion_energies(sums, c))[0])


def energy_json(summary: EnergySummary) -> str:
    """The `kiss3 energy` report: the bytes json.dumps(..., sort_keys=True,
    indent=2) writes for {"n", "S", "min_sep_deg", "per_point": [{"S_i",
    "T_i", "J_i"}, ...]}, in one pass.

    min_sep_deg is null for a singleton (min_sep is nan).  S, min_sep_deg
    and every S_i and T_i go through one encode of json's own encoder, as a
    list split on its ", " separator, which no float's spelling holds, so
    each float's repr and NaN/Infinity spelling are json's.  J(i) is [] when
    empty and otherwise one index a line, each looked up in one table of
    str(j), j < n.  per_point is [] for a summary of no points.
    """
    sep = summary.min_sep
    values = [summary.S, None if math.isnan(sep) else math.degrees(sep)]
    for r in summary.per_point:
        values += (r.S_i, r.T_i)
    S, min_sep_deg, *numbers = json.JSONEncoder().encode(values)[1:-1].split(", ")
    names = [str(j) for j in range(summary.n)]
    rows = []
    for r, S_i, T_i in zip(summary.per_point, numbers[0::2], numbers[1::2]):
        J = "[]"
        if r.J_i:
            J = "[\n        " + ",\n        ".join([names[j] for j in r.J_i]) + "\n      ]"
        rows.append(
            f'    {{\n      "J_i": {J},\n'
            f'      "S_i": {S_i},\n'
            f'      "T_i": {T_i}\n    }}'
        )
    per_point = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return (
        f'{{\n  "S": {S},\n'
        f'  "min_sep_deg": {min_sep_deg},\n'
        f'  "n": {summary.n},\n'
        f'  "per_point": {per_point}\n}}'
    )
