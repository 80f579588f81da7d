"""Per-layer tracing of one kiss3 operation, applied from outside the package.

`Tracer.install()` replaces the public functions of each layer with timing
wrappers in every loaded `kiss3` module that holds a reference to them, so
calls that go through `from .x import f` bindings are seen as well;
`uninstall()` puts the originals back.  Spans are aggregated in memory by
name (calls, inclusive seconds, self seconds); the hottest methods are only
counted, because timing them would cost more than the work they do.
"""

from __future__ import annotations

import importlib
import re
import sys
import time
from collections import defaultdict

# `kiss3.energy` is shadowed by the function of that name on the package, so
# the layer modules are looked up by their full names.
bounds, certificate, energy, harness, legendre, polynomial, sphere = (
    importlib.import_module(f"kiss3.{name}")
    for name in ("bounds", "certificate", "energy", "harness", "legendre", "polynomial", "sphere")
)

#: Span name -> (module, attribute) of the function it wraps.
SPANS = {
    **{f"harness.suite.{name}": (harness, f"_suite_{name}") for name in harness.ALL_SUITES},
    "harness.emit": (harness, "emit_table"),
    "certificate.build": (certificate, "build_certificate"),
    "polynomial.isolate_root": (polynomial, "isolate_root"),
    "polynomial.max_on_interval": (polynomial, "max_on_interval"),
    "bounds.F1": (bounds, "F1"),
    "bounds.F2": (bounds, "F2"),
    "bounds.compute_bound_table": (bounds, "compute_bound_table"),
    "bounds.refine_h34": (bounds, "refine_h34"),
    "sphere.random_separated_set": (sphere, "random_separated_set"),
    "sphere.min_separation": (sphere, "min_separation"),
    "energy.energy": (energy, "energy"),
    "energy.check_lemma2": (energy, "check_lemma2"),
    "energy.check_lemma3": (energy, "check_lemma3"),
    "energy.linearity_gap": (energy, "linearity_gap"),
    "legendre.gegenbauer_sum": (legendre, "gegenbauer_sum"),
    "legendre.addition_theorem_residual": (legendre, "addition_theorem_residual"),
}
#: The Sturm chain constructor is a method, traced as a span of its own.
SPAN_NAMES = tuple(SPANS) + ("polynomial.sturm_chain",)

_PLACED = re.compile(r"placed (\d+)/")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update(
        {
            "polynomial.sturm_chain.max_bits": "bits",
            "polynomial.eval.calls": "count",
            "polynomial.eval_real.calls": "count",
            "bounds.F1.distinct": "count",
            "bounds.F2.distinct": "count",
            "bounds.profile_reuse": "ratio",
            "bounds.optimizer.starts": "count",
            "bounds.optimizer.nfev": "count",
            "bounds.optimizer.converged_ratio": "ratio",
            "sphere.sampler.draws": "count",
            "sphere.sampler.accepted": "count",
            "sphere.sampler.accept_ratio": "ratio",
            "sphere.sampler.saturations": "count",
            "sphere.angular_distance.calls": "count",
            "energy.energy.pairs": "count",
        }
    )
    return units


class _Span:
    __slots__ = ("calls", "s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.spans = defaultdict(_Span)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self._child_time = []  # one accumulator per open span
        self._restore = []
        self._in_sampler = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        span = self.spans[name]
        stack = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            span.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                result = exc
                raise
            finally:
                dt = clock() - t0
                span.active -= 1
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                span.calls += 1
                span.self_s += dt - children
                if not span.active:  # count a recursive span's time once
                    span.s += dt
                if after is not None:
                    after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn, when=lambda: True):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if when():
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _profile_args(self, name):
        def before(args, kwargs):
            self.distinct[name].add((args[1:], tuple(sorted(kwargs.items()))))

        return before

    def _sampler_enter(self, args, kwargs):
        self._in_sampler += 1

    def _sampler_exit(self, args, kwargs, result):
        self._in_sampler -= 1
        if isinstance(result, BaseException):
            self.counts["sphere.sampler.saturations"] += 1
            placed = _PLACED.search(str(result))
            self.counts["sphere.sampler.accepted"] += int(placed.group(1)) if placed else 0
        else:
            self.counts["sphere.sampler.accepted"] += len(result)

    def _energy_pairs(self, args, kwargs):
        self.counts["energy.energy.pairs"] += len(args[0]) ** 2

    def _sturm_bits(self, args, kwargs, result):
        if isinstance(result, BaseException):
            return
        chain = args[0].chain
        bits = max(
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for q in chain
            for c in q.coeffs
        )
        key = "polynomial.sturm_chain.max_bits"
        self.counts[key] = max(self.counts[key], bits)

    def _optimizer(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            counts["bounds.optimizer.starts"] += 1
            counts["bounds.optimizer.nfev"] += int(res.nfev)
            counts["bounds.optimizer.converged"] += bool(res.success)
            return res

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("kiss3"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def _replace_method(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        hooks = {
            "bounds.F1": {"before": self._profile_args("bounds.F1")},
            "bounds.F2": {"before": self._profile_args("bounds.F2")},
            "sphere.random_separated_set": {
                "before": self._sampler_enter,
                "after": self._sampler_exit,
            },
            "energy.energy": {"before": self._energy_pairs},
        }
        for name, (mod, attr) in SPANS.items():
            original = getattr(mod, attr)
            self._replace_everywhere(original, self._span(name, original, **hooks.get(name, {})))
        poly = polynomial.RationalPoly
        self._replace_method(
            polynomial.SturmChain,
            "__init__",
            self._span("polynomial.sturm_chain", polynomial.SturmChain.__init__, after=self._sturm_bits),
        )
        self._replace_method(poly, "eval", self._counter("polynomial.eval.calls", poly.eval))
        self._replace_method(
            poly, "eval_real", self._counter("polynomial.eval_real.calls", poly.eval_real)
        )
        self._replace_everywhere(
            sphere.angular_distance,
            self._counter("sphere.angular_distance.calls", sphere.angular_distance),
        )
        self._replace_everywhere(
            sphere.random_point,
            self._counter("sphere.sampler.draws", sphere.random_point, lambda: self._in_sampler > 0),
        )
        self._replace_everywhere(bounds.minimize, self._optimizer(bounds.minimize))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The value of every metric in `metric_units()`."""
        out = {}
        for name in SPAN_NAMES:
            span = self.spans[name]
            out[f"{name}.calls"] = span.calls
            out[f"{name}.s"] = span.s
            out[f"{name}.self_s"] = span.self_s
        c = self.counts
        for key in (
            "polynomial.sturm_chain.max_bits",
            "polynomial.eval.calls",
            "polynomial.eval_real.calls",
            "bounds.optimizer.starts",
            "bounds.optimizer.nfev",
            "sphere.sampler.draws",
            "sphere.sampler.accepted",
            "sphere.sampler.saturations",
            "sphere.angular_distance.calls",
            "energy.energy.pairs",
        ):
            out[key] = c[key]
        for name in ("bounds.F1", "bounds.F2"):
            out[f"{name}.distinct"] = len(self.distinct[name])
        profile_calls = self.spans["bounds.F1"].calls + self.spans["bounds.F2"].calls
        profile_distinct = out["bounds.F1.distinct"] + out["bounds.F2.distinct"]
        out["bounds.profile_reuse"] = _ratio(profile_distinct, profile_calls)
        out["bounds.optimizer.converged_ratio"] = _ratio(
            c["bounds.optimizer.converged"], c["bounds.optimizer.starts"]
        )
        out["sphere.sampler.accept_ratio"] = _ratio(
            c["sphere.sampler.accepted"], c["sphere.sampler.draws"]
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
