"""The benchmark's per-layer tracer (`bench/tracer.py`) still hooks the
layers it names: a refactor that renames a traced function or changes the
Sturm chain's shape breaks `bench/run.py --trace 1`, and this catches it
without running the benchmark."""

import importlib
from pathlib import Path

import pytest

from kiss3 import harness, polynomial

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
    # four chains for the certificate and its two properties, one per F1/F2
    # maximum; the widest coefficient is in an F2 profile's chain
    assert metrics["polynomial.sturm_chain.calls"] == 14
    assert metrics["polynomial.sturm_chain.max_bits"] == 8058
    assert metrics["polynomial.eval.calls"] > 0
    assert metrics["polynomial.isolate_root.calls"] > 0
    # refine runs no optimizer: the tracer's bounds.minimize hook stays idle
    assert metrics["bounds.refine_h34.calls"] == 1
    assert metrics["bounds.optimizer.starts"] == 0
    for name, (mod, attr) in tracer.SPANS.items():
        assert getattr(mod, attr) is spans[name], name
    assert polynomial.SturmChain.__dict__["__init__"] is methods["__init__"]
    assert polynomial.RationalPoly.__dict__["eval"] is methods["eval"]
    assert polynomial.RationalPoly.__dict__["eval_real"] is methods["eval_real"]
