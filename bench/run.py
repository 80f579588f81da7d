#!/usr/bin/env python3
"""Benchmark of the kiss3 verifier.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--perturb]

Run from the root of a kiss3 checkout; the package is imported from its
`src/` directory, and the benchmark refuses to run without it.

Each workload is a closed loop with one client: the benchmark calls
`kiss3.cli.main([...])` in this process again and again for S seconds (and
at least MIN_OPS times), capturing stdout, and gates every op for
correctness.  A fixed pure-Python reference loop is timed right before and
after each op and every REF_INTERVAL seconds during it; an op's time divided
by the mean of those reference times (`op_ref`) cancels the speed phases of
a shared host.  Set-up (importing `kiss3.cli` and building the certificate)
is timed separately in fresh interpreters, and normalised the same way.

With --trace 1 the benchmark also runs one op with every layer wrapped (see
`tracer.py`) and reports the per-layer metrics instead of the end-to-end
ones.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh interpreters started to time set-up, half before and half after the
#: loop so that they sample the host at both ends of the run; the median is
#: reported.
SETUP_RUNS = 4
#: `setup_s` is in reference seconds: each probe's wall time times
#: REF_NOMINAL_S / (the reference-loop time measured around it), which is its
#: wall time on a host where the loop takes REF_NOMINAL_S.  Changing this
#: constant rescales every `setup_s`.
REF_NOMINAL_S = 0.004
#: The reference loop is timed REF_REPS times on each side of an op (the
#: median repetition is its time), and once every REF_INTERVAL seconds while
#: the op runs, so that long ops are normalised by the host speed they saw.
#: Of 0.25, 0.1 and 0.05 s, 0.1 s gave the steadiest `op_ref` (README.md).
REF_REPS = 3
REF_INTERVAL = 0.1
#: Every run makes at least this many ops, so that it always repeats an input
#: and byte-compares the two outputs, even when one op outlasts the window.
MIN_OPS = 2
#: Negative control: breaks the certificate, so every op must fail the gate.
PERTURBATION = "9:1/100"
#: Size of the `energy-large` point file.
ENERGY_POINTS = 1000

#: `verify` workload -> (suites, extra arguments, whether ops take a seed).
#: Why each workload exists is recorded in BENCHMARK.json and README.md.
VERIFY_WORKLOADS = {
    "exact": (["certificate", "bounds", "theorem"], [], False),
    "sampled": (
        ["lemma1", "lemma2", "lemma3"],
        ["--lemma1-sets", "100", "--lemma3-sets", "50"],
        True,
    ),
    "verify-full": ([], [], True),
}
WORKLOADS = [*VERIFY_WORKLOADS, "energy-large"]


class ReferenceLoop:
    """A fixed mix of the kinds of Python work kiss3 does: small-integer
    arithmetic, big rational arithmetic, a walk over a large list, math and
    random calls, and numpy scalar indexing.  It runs no kiss3 code, so its
    time tracks only the speed of the host."""

    def __init__(self):
        import numpy as np  # after the BLAS thread cap

        self.coeffs = [Fraction(3**k + 1, 7**k + 2) for k in range(10)]
        self.items = list(range(200_000))
        self.array = np.random.default_rng(1).random((30, 100)) - 0.5
        self.during: list[float] = []

    def run(self) -> int:
        acc = 0
        for i in range(8_000):
            acc = (acc + i * i) % 1_000_003
        x = Fraction(2**61 + 12345, 2**62 - 57)
        for _ in range(4):
            poly = Fraction(0)
            for c in self.coeffs:
                poly = poly * x + c
            x = x * Fraction(3, 5) + Fraction(1, 7)
        acc += sum(self.items[::2]) % 7
        rng = random.Random(1)
        for _ in range(1_000):
            t, p = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
            acc += math.cos(t) * math.cos(p) + math.sin(t) * math.sin(p) > 0
        for i, row in enumerate(self.array):
            acc += len(tuple(j for j in range(100) if j != i and row[j] < -0.2))
        return acc

    def time(self) -> float:
        """Median of REF_REPS timed runs, in seconds."""
        times = []
        for _ in range(REF_REPS):
            t0 = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.run()
        self.during.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        """Time one run every REF_INTERVAL seconds while the block executes;
        yields the list the durations are appended to."""
        self.during = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        try:
            yield self.during
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# -- workloads ---------------------------------------------------------------


def op_seed(seed: int, k: int) -> int:
    """Program seed of op k.  Op 1 repeats op 0's input, so that every run
    byte-compares two reports; every later op draws a new seed, so that a
    run covers many inputs and its median does not hang on the luck of one
    seed."""
    return random.Random(f"{seed}:{max(k - 1, 0)}").randrange(2**31)


@dataclass
class Verify:
    """`kiss3 verify` over a fixed set of suites."""

    name: str
    seed: int
    perturb: bool = False

    @property
    def suites(self) -> list[str]:
        from kiss3.harness import ALL_SUITES

        return VERIFY_WORKLOADS[self.name][0] or list(ALL_SUITES)

    def seed_of(self, k: int) -> int | None:
        return op_seed(self.seed, k) if VERIFY_WORKLOADS[self.name][2] else None

    def argv(self, k: int) -> list[str]:
        """CLI arguments of op k."""
        suites, extra, _ = VERIFY_WORKLOADS[self.name]
        out = ["verify"]
        for suite in suites:
            out += ["--suite", suite]
        out += extra
        if self.seed_of(k) is not None:
            out += ["--seed", str(self.seed_of(k))]
        out += ["--format", "json"]
        if self.perturb:
            out += ["--perturb", PERTURBATION]
        return out

    def gate(self, k: int, rc: int, text: str) -> str | None:
        """Why op k's result is wrong, or None: every requested suite ran
        with no failed check, and the theorem concluded 12."""
        if rc != 0:
            return f"exit code {rc}"
        report = json.loads(text)
        if sorted(report["suites"]) != sorted(self.suites):
            return f"suites {sorted(report['suites'])} != {sorted(self.suites)}"
        if self.seed_of(k) is not None and report["config"]["seed"] != self.seed_of(k):
            return f"report seed {report['config']['seed']} != {self.seed_of(k)}"
        bad = {name: s["failed"] for name, s in report["suites"].items() if s["failed"]}
        if bad:
            return f"failed checks {bad}"
        if "theorem" in self.suites and report["conclusion"] != 12:
            return f"conclusion {report['conclusion']} != 12"
        return None


class Energy:
    """`kiss3 energy` on one file of ENERGY_POINTS area-uniform points drawn
    from the seed, with no separation constraint: one large set, where the
    O(n^2) per-point loops dominate."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        lines = ["# theta_deg phi_deg"]
        for _ in range(ENERGY_POINTS):
            theta = math.degrees(math.acos(rng.uniform(-1.0, 1.0)))
            lines.append(f"{theta:.12f} {rng.uniform(0.0, 360.0):.12f}")
        self.path = workdir / "points.txt"
        self.path.write_text("\n".join(lines) + "\n")

    def argv(self, k: int) -> list[str]:
        return ["energy", "--points", str(self.path)]

    def gate(self, k: int, rc: int, text: str) -> str | None:
        """Why the summary is wrong, or None: it covers every point, and
        S >= n^2 (lemma 2 holds for any point set)."""
        if rc != 0:
            return f"exit code {rc}"
        summary = json.loads(text)
        n = summary["n"]
        if n != ENERGY_POINTS or len(summary["per_point"]) != n:
            return f"summary of {n} points, expected {ENERGY_POINTS}"
        if not summary["S"] >= n * n * (1.0 - 1e-9):
            return f"S = {summary['S']} < n^2 = {n * n}"
        return None


# -- measurement ---------------------------------------------------------------


def call_cli(cli, argv: list[str]) -> tuple[int, str, float, str]:
    """One op: (exit code, stdout, wall seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed run
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt, err.getvalue()


def check(workload, k: int, reference: str, rc: int, text: str, err: str):
    """Why op k failed the gate, or None.  An op that repeats op 0's input
    must also repeat its output byte for byte."""
    try:
        reason = workload.gate(k, rc, text)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is None and workload.argv(k) == workload.argv(0) and text != reference:
        reason = "output differs from op 0 on the same input"
    if reason is not None and err.strip():
        reason += f" ({err.strip().splitlines()[-1]})"
    return reason


@dataclass
class LoopResult:
    op_s: list[float] = field(default_factory=list)
    op_ref: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    reference_output: str = ""


def closed_loop(cli, workload, seconds: float, reference: ReferenceLoop) -> LoopResult:
    """Run ops 0, 1, 2, ... back to back until `seconds` have passed and at
    least MIN_OPS ops have run.  Op 0's output is the reference for every op
    on the same input."""
    res = LoopResult()
    ref_before = reference.time()
    res.ref_s.append(ref_before)
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_OPS or time.perf_counter() < deadline:
        with reference.sampling() as during:
            rc, text, dt, err = call_cli(cli, workload.argv(k))
        dt -= sum(during)  # the op's own time, without the samples taken in it
        ref_after = reference.time()
        res.ref_s.append(ref_after)
        if k == 0:
            res.reference_output = text
        res.op_s.append(dt)
        res.op_ref.append(dt / statistics.mean([ref_before, ref_after, *during]))
        reason = check(workload, k, res.reference_output, rc, text, err)
        if reason:
            res.failures.append(reason)
        ref_before = ref_after
        k += 1
    return res


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile that
    leaves at least ten samples beyond it, never below the median."""
    xs = sorted(samples)
    n = len(xs)
    value, pct = statistics.median(xs), 50.0
    if n >= 11 and xs[n - 11] >= value:
        value, pct = xs[n - 11], 100.0 * (n - 10) / n
    return value, pct, sum(1 for x in xs if x > value)


def measure_setup(runs: int, reference: ReferenceLoop) -> list[dict]:
    """Time `import kiss3.cli` + `build_certificate()` in fresh interpreters,
    each with the reference loop timed right before and after it."""
    out = []
    for _ in range(runs):
        ref_before = reference.time()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            cwd=ROOT,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported kiss3 from {probe['file']}")
        probe["wall_s"] = probe["import_s"] + probe["build_s"]
        probe["ref_s"] = statistics.mean([ref_before, reference.time()])
        out.append(probe)
    return out


def cpu_counters() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs from /proc/stat, if readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:9]]  # user .. steal
    return values[7], sum(values)


def steal_fraction(before, after) -> float | None:
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads(limit: int):
    """Keep BLAS/OpenMP pools at most `limit` threads; must run before numpy
    is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= limit):
            os.environ[var] = str(limit)


# -- main ------------------------------------------------------------------------


def end_to_end_units() -> dict[str, str]:
    return {"op_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """The raw op wall times lead, unbounded: the host moves them too much
    to gate them (see README.md)."""
    from tracer import metric_units

    return {
        "op_s": "s",
        "op_tail_s": "s",
        "setup.import_s": "s",
        **metric_units(),
        "trace.overhead_s": "s",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--perturb",
        action="store_true",
        help=f"negative control: pass --perturb {PERTURBATION} to every verify op",
    )
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.perturb and args.workload not in VERIFY_WORKLOADS:
        p.error("--perturb applies to the verify workloads only")
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so running set-up probes are killed


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "kiss3" / "cli.py").is_file():
        print(f"kiss3 sources not found under {SRC}; run from a kiss3 checkout", file=sys.stderr)
        return 2
    cores = nproc()
    cap_blas_threads(cores)
    sys.path.insert(0, str(SRC))
    import kiss3.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"kiss3 was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    with tempfile.TemporaryDirectory(prefix=".benchwork-", dir=ROOT) as workdir:
        if args.workload in VERIFY_WORKLOADS:
            workload = Verify(args.workload, args.seed, args.perturb)
        else:
            workload = Energy(args.seed, Path(workdir))
        reference = ReferenceLoop()
        setup = measure_setup(SETUP_RUNS // 2, reference)
        cpu_before = cpu_counters()
        loop = closed_loop(cli, workload, args.seconds, reference)
        attempted = len(loop.op_s)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                rc, text, traced_s, err = call_cli(cli, workload.argv(0))
            finally:
                tracer.uninstall()
            attempted += 1
            reason = check(workload, 0, loop.reference_output, rc, text, err)
            if reason is not None:
                loop.failures.append(f"traced op: {reason}")
        cpu_after = cpu_counters()
        setup += measure_setup(SETUP_RUNS - SETUP_RUNS // 2, reference)

    op_s = statistics.median(loop.op_s)
    tail_s, tail_pct, beyond = tail(loop.op_s)
    facts = {
        "workload": args.workload,
        "argv": workload.argv(0),
        "seed": args.seed,
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ref_loop_s": statistics.median(loop.ref_s),
        "steal_fraction": steal_fraction(cpu_before, cpu_after),
        "ops": len(loop.op_s),
        "op_s": f"{op_s:.6g} s (median wall time per op)",
        "op_tail_s": f"{tail_s:.6g} s (p{tail_pct:.1f} of {len(loop.op_s)} ops, {beyond} beyond)",
        "setup_wall_s": f"{statistics.median(p['wall_s'] for p in setup):.6g} s (median of {len(setup)})",
    }
    if args.trace:
        values = tracer.metrics()
        values["op_s"] = op_s
        values["op_tail_s"] = tail_s
        values["setup.import_s"] = statistics.median(p["import_s"] for p in setup)
        values["trace.overhead_s"] = traced_s - op_s
        units = per_layer_units()
    else:
        values = {
            "op_ref": statistics.median(loop.op_ref),
            "setup_s": statistics.median(
                p["wall_s"] / p["ref_s"] * REF_NOMINAL_S for p in setup
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = end_to_end_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for key, value in facts.items():
        print(f"# {key}: {value}")
    for reason in sorted(set(loop.failures)):
        print(f"# gate failure ({loop.failures.count(reason)} ops): {reason}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not loop.failures,
        "attempted": attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
