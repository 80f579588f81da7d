"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

It starts the benchmark a few times with one-second windows (about two
minutes in all) and checks its contract: every metric named in
BENCHMARK.json is printed with its unit, traced counts repeat exactly for a
fixed seed, the negative control fails every op, and the benchmark refuses to
run without the kiss3 sources.
"""

import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Units of per-layer metrics that count work and so must repeat exactly.
COUNT_UNITS = {"count", "bits", "ratio"}


def start(*args, cwd=ROOT):
    proc = subprocess.run(
        SPEC["command"] + list(args),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


#: Runs with the same arguments share one process, except where a test asks
#: for a second one.
bench = functools.cache(start)


def result(*args, runner=bench):
    proc = runner(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


def one_second(workload, seed, trace):
    return result("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))


@pytest.mark.parametrize("workload", ["sampled", "energy-large"])
def test_every_metric_printed_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, res = one_second(workload, 5, trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(
                line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines
            ), name


def test_traced_counts_repeat_for_a_fixed_seed():
    _, first = one_second("sampled", 5, 1)
    _, again = result(
        "--workload", "sampled", "--seed", "5", "--seconds", "1", "--trace", "1", runner=start
    )
    counts = [k for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS]
    assert "sphere.sampler.draws" in counts
    for name in counts:
        assert first["metrics"][name] == again["metrics"][name], name


def test_negative_control_fails_every_op():
    _, res = result("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0", "--perturb")
    assert not res["correct"]
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(prefix=".benchwork-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = start("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_keeps_ten_samples_beyond_and_never_drops_below_the_median():
    value, pct, beyond = tail([float(i) for i in range(1, 41)])
    assert (value, pct, beyond) == (30.0, 75.0, 10)
    value, pct, beyond = tail([1.0, 2.0, 3.0])
    assert (value, pct, beyond) == (2.0, 50.0, 1)
