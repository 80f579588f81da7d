"""The benchmark's per-layer tracer (`bench/tracer.py`) still hooks the
layers it names: a refactor that renames a traced function or changes the
Sturm chain's shape breaks `bench/run.py --trace 1`, and this catches it
without running the benchmark."""

import importlib
import json
from pathlib import Path

import pytest

from kiss3 import harness, polynomial
from kiss3.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def test_install_trace_uninstall(tracer):
    spans = {name: getattr(mod, attr) for name, (mod, attr) in tracer.SPANS.items()}
    methods = {
        attr: owner.__dict__[attr]
        for owner, attr in [
            (polynomial.SturmChain, "__init__"),
            (polynomial.RationalPoly, "eval"),
            (polynomial.RationalPoly, "eval_real"),
        ]
    }
    t = tracer.Tracer()
    t.install()
    try:
        report = harness.run(harness.RunConfig(suites=("certificate", "bounds", "refine")))
    finally:
        t.uninstall()
    assert report.ok
    metrics = t.metrics()
    # one chain of f, shared by the certificate's root count, its t0
    # isolation and property ii; property i and the F1/F2 maxima come from
    # Bernstein coefficients and build none
    assert metrics["polynomial.sturm_chain.calls"] == 1
    assert metrics["polynomial.sturm_chain.max_bits"] == 129
    # the chain evaluates each point once, the root isolation bisects on
    # integer signs without `RationalPoly.eval`, and f(-1) and f(1) are
    # taken once per certificate (`Certificate.f_ends`)
    assert metrics["polynomial.eval.calls"] == 38
    assert metrics["polynomial.isolate_root.calls"] > 0
    # refine runs no optimizer: the tracer's bounds.minimize hook stays idle
    assert metrics["bounds.refine_h34.calls"] == 1
    assert metrics["bounds.optimizer.starts"] == 0
    for name, (mod, attr) in tracer.SPANS.items():
        assert getattr(mod, attr) is spans[name], name
    assert polynomial.SturmChain.__dict__["__init__"] is methods["__init__"]
    assert polynomial.RationalPoly.__dict__["eval"] is methods["eval"]
    assert polynomial.RationalPoly.__dict__["eval_real"] is methods["eval_real"]


def test_lemma1_makes_one_addition_theorem_call(tracer):
    # all 1,000 addition-theorem samples, of every degree, in one call
    t = tracer.Tracer()
    t.install()
    try:
        report = harness.run(harness.RunConfig(suites=("lemma1",), lemma1_sets=50))
    finally:
        t.uninstall()
    assert report.ok
    assert t.metrics()["legendre.addition_theorem_residual.calls"] == 1


def test_cli_reaches_every_traced_suite(tracer, capsys):
    # `kiss3 verify` dispatches through the module attributes the tracer
    # wraps: each suite runs once, and the report is emitted once
    t = tracer.Tracer()
    t.install()
    try:
        code = main(["verify", "--lemma1-sets", "20", "--lemma3-sets", "5", "--format", "json"])
    finally:
        t.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["conclusion"] == 12
    metrics = t.metrics()
    for name in harness.ALL_SUITES:
        assert metrics[f"harness.suite.{name}.calls"] == 1, name
    assert metrics["harness.emit.calls"] == 1
