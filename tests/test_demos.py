"""Each script in demos/ runs to the end in this process and prints its key
line."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

KEY_LINES = {
    "bound_table_tour.py": "  verdict: h_max < 13",
    "certificate_tour.py": "  all nonnegative, c_0 = 1: the expansion side of the bound holds.",
    "energy_witness_tour.py": "the witness sits exactly on the lower bound: S = 144 = 12^2",
    "sampling_tour.py": "13 points at 60 degrees is impossible; the sampler saturates:",
}


@pytest.mark.parametrize("script", sorted(KEY_LINES))
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert KEY_LINES[script] in lines
    assert not any("VIOLATION" in line or "FAIL" in line for line in lines)
