import json
import math

import pytest

from kiss3.bounds import compute_bound_table
from kiss3.certificate import build_certificate


@pytest.fixture(scope="session")
def cert():
    return build_certificate()


@pytest.fixture(scope="session")
def bound_table(cert):
    return compute_bound_table(cert)


@pytest.fixture(scope="session")
def lemma1_sums():
    """The Gegenbauer sums of one point set for k = 0 ... 9, the degrees of
    f, as a list: the one-set form of what the lemma1 suite computes for its
    whole batch at once."""
    from kiss3.legendre import gegenbauer_sums
    from kiss3.sphere import CosineBatch

    def sums(ps):
        batch = CosineBatch.of(ps)
        return gegenbauer_sums(batch.cos, batch.starts, 10)[:, 0].tolist()

    return sums


def energy_to_json_dict(summary) -> dict:
    """An energy summary as the dict the `kiss3 energy` report encodes."""
    return {
        "n": summary.n,
        "S": summary.S,
        "min_sep_deg": None if math.isnan(summary.min_sep) else math.degrees(summary.min_sep),
        "per_point": [
            {"S_i": r.S_i, "T_i": r.T_i, "J_i": list(r.J_i)} for r in summary.per_point
        ],
    }


@pytest.fixture(scope="session")
def energy_report_difference():
    """How a text differs from the reference `kiss3 energy` report of a
    summary, json's own indented encoder over `energy_to_json_dict`, which
    energy.energy_json must match byte for byte: None when they are equal,
    else the first line number where they differ and that line of each.
    A report runs to megabytes, too long for a whole diff."""

    def difference(text, summary):
        expected = json.dumps(energy_to_json_dict(summary), sort_keys=True, indent=2)
        if text == expected:
            return None
        lines, expected_lines = text.split("\n"), expected.split("\n")
        k = next(
            (k for k, pair in enumerate(zip(lines, expected_lines)) if pair[0] != pair[1]),
            min(len(lines), len(expected_lines)),
        )
        return k + 1, lines[k : k + 1], expected_lines[k : k + 1]

    return difference
