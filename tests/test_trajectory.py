"""BENCH_trajectory.json, the committed record of benchmark runs, names only
the workloads and metrics that BENCHMARK.json declares, and each of its
summaries is a median inside its quartiles."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    return workloads, metrics


@pytest.fixture(scope="module")
def entries():
    return json.loads((ROOT / "BENCH_trajectory.json").read_text())["entries"]


def test_has_entries(entries):
    assert entries
    for entry in entries:
        assert entry["change"] and entry["parent"]
        assert {"nproc", "python", "numpy", "ref_loop_s"} <= entry["host"].keys()


def test_names_are_declared(entries, declared):
    workloads, metrics = declared
    for entry in entries:
        assert entry["workloads"].keys() <= workloads
        for runs in entry["workloads"].values():
            assert runs["pairs"] == len(runs["seeds"]) > 0
            assert runs["metrics"].keys() <= metrics


def test_summaries_are_ordered(entries):
    for entry in entries:
        for runs in entry["workloads"].values():
            for sides in runs["metrics"].values():
                for side in ("parent", "change"):
                    s = sides[side]
                    assert s["q1"] <= s["median"] <= s["q3"]
