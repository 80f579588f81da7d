"""Verification harness: configuration, the randomized property suites, and
report assembly.

Everything is deterministic for a fixed seed; the JSON report for a given
(seed, config) pair is byte-identical across runs.  Only the sampled suites
load numpy.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from . import bounds as bounds_mod
from . import sphere
from .energy import (
    expansion_energies,
    lemma1_holds,
    lemma2_holds,
    lemma3_holds,
    set_energies,
)
from .certificate import (
    F_COEFFS,
    EXPECTED_LEGENDRE_COEFFS,
    build_certificate,
    classic_delsarte_gap,
    verify_expansion,
    verify_property_i,
    verify_property_ii,
)
from .errors import Kiss3Error
from .legendre import addition_theorem_residual, gegenbauer_sums

SCHEMA_VERSION = 2

#: Random point sets drawn and evaluated together by the lemma suites.  It
#: bounds their working set, whatever --lemma1-sets and --lemma3-sets are:
#: under 1 MB of arrays at 128 sets of at most 16 points.  lemma3 samples a
#: chunk's sets together, in rounds whose arrays stay under 1 MB (at most
#: 2^13 candidates at a time; a default run peaks about 1 MB above its
#: start), from a pool of 128 RandomStates (about 0.4 MB) that the thread
#: keeps.
LEMMA_BLOCK = 128

ALL_SUITES = ("certificate", "lemma1", "lemma2", "lemma3", "bounds", "theorem", "refine")

#: Constants as printed in the source analysis, for side-by-side reporting.
REFERENCE_VALUES = {
    "t0": 0.5907,
    "theta0_deg": 53.794,
    "mu_angle_deg": 76.582,
    "R0_deg": 35.2644,
    "h0": 10.11,
    "h1": 12.88,
    "h2": 12.8749,
    "h4_case1": 12.9171,
    "h4_case2": 12.9182,
    "w": (12.9425, 12.9648, 12.9508, 12.9606, 12.9519),
    "h3_refined": 12.8721,
    "h4_refined": 12.4849,
}

W_DEFINITION_NOTE = (
    "The piecewise bounds w_i are reported with the f(1) term included, "
    "matching the printed values near 12.95; the displayed defining formula "
    "omits f(1) but is only consistent with it included."
)


@dataclass
class RunConfig:
    seed: int = 42
    suites: tuple[str, ...] = ALL_SUITES
    lemma1_sets: int = 1000
    lemma3_sets: int = 500
    f_coeffs: tuple = F_COEFFS  # override only for negative controls

    def validate(self):
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        for name in ("lemma1_sets", "lemma3_sets"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, label: str):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(label)

    def check_reference(self, label: str, value: float, expected: float, tol: str):
        """A computed value against the paper's printed one: within `tol`,
        spelled as the failure message prints it.  `label` names the value,
        with {} where the value goes."""
        self.check(
            abs(value - expected) <= float(tol),
            f"{label.format(value)} != {expected} ({tol})",
        )

    def check_sets(self, sets: int, *checks: tuple[int, str]):
        """Checks over `sets` tested point sets, each given as (how many sets
        fail it, failure label).  Each check is one pass or failure, and the
        sets count as passes too: all of them, less one when the first check
        fails.  With no set tested, each check is one skip."""
        if not sets:
            self.skipped += len(checks)
            return
        for bad, label in checks:
            self.check(bad == 0, label)
        self.passed += sets - (1 if checks[0][0] else 0)

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass
class VerificationReport:
    config: RunConfig
    suites: dict[str, SuiteResult] = field(default_factory=dict)
    certificate_summary: dict = field(default_factory=dict)
    bound_table: bounds_mod.BoundTable | None = None
    refined: dict = field(default_factory=dict)
    energy_spot_checks: list[dict] = field(default_factory=list)
    conclusion: int | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites.values())

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": {
                "seed": self.config.seed,
                "suites": list(self.config.suites),
                "lemma1_sets": self.config.lemma1_sets,
                "lemma3_sets": self.config.lemma3_sets,
            },
            "suites": {
                name: {
                    "passed": s.passed,
                    "failed": s.failed,
                    "skipped": s.skipped,
                    "failures": s.failures,
                }
                for name, s in self.suites.items()
            },
            "certificate": self.certificate_summary,
            "bound_table": bounds_mod.table_to_json_dict(self.bound_table)
            if self.bound_table
            else None,
            "refined": self.refined,
            "energy_spot_checks": self.energy_spot_checks,
            "conclusion": self.conclusion,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _random_sets(rng: random.Random, count: int):
    """The lemma 1 and 2 suites' `count` random point sets, LEMMA_BLOCK at a
    time, each chunk as one sphere.CosineBatch.

    The draws are those of one set after another: rng.randint(1, 16) points,
    each from rng.uniform(-1, 1), the cosine of its colatitude, then
    rng.uniform(0, 2pi), its azimuth, as in sphere.random_point.  uniform(a,
    b) is a + (b - a) * rng.random(), so the chunk takes the random() doubles
    and forms -1 + 2 r and 2pi r (0 + x is x for x >= 0) as whole arrays,
    with the same bits.  A chunk's draws are all taken before it is yielded,
    so the draws that follow the last chunk do not depend on LEMMA_BLOCK.
    """
    import numpy as np
    randint, random = rng.randint, rng.random
    for first in range(0, count, LEMMA_BLOCK):
        sizes, draws = [], []
        for _ in range(min(LEMMA_BLOCK, count - first)):
            n = randint(1, 16)
            sizes.append(n)
            draws += [random() for _ in range(2 * n)]
        draws = np.array(draws)
        vectors = sphere.unit_vectors(-1.0 + 2.0 * draws[0::2], sphere.TWO_PI * draws[1::2])
        yield sphere.CosineBatch(vectors, sizes)


def _suite_certificate(report: VerificationReport, cert) -> SuiteResult:
    s = SuiteResult("certificate")
    s.check(
        verify_expansion(cert, EXPECTED_LEGENDRE_COEFFS),
        "Legendre expansion differs from the expected coefficients",
    )
    s.check(verify_property_i(cert), "f is not monotone decreasing on [-1, -t0]")
    s.check(verify_property_ii(cert), "f is not negative on (-t0, 1/2]")
    s.check_reference("t0 enclosure midpoint {}", cert.t0.mid, REFERENCE_VALUES["t0"], "5e-5")
    theta0_deg = math.degrees(cert.theta0.mid)
    s.check_reference("theta0 {} deg", theta0_deg, REFERENCE_VALUES["theta0_deg"], "1e-3")
    s.check(classic_delsarte_gap(cert) > 0, "f(-1) is not positive")
    report.certificate_summary = {
        "degree": cert.f.degree,
        "t0": [cert.t0.lo, cert.t0.hi],
        "theta0_deg": [math.degrees(cert.theta0.lo), math.degrees(cert.theta0.hi)],
        "f_at_1": str(cert.f_ends[1]),
        "f_at_minus_1": str(cert.f_ends[0]),
        "legendre_coefficients": [str(x) for x in cert.legendre_coeffs],
    }
    return s


def _bound_table(report: VerificationReport, cert) -> bounds_mod.BoundTable:
    """The run's bound table, built by whichever of the bounds and theorem
    suites runs first and read by the other."""
    if report.bound_table is None:
        report.bound_table = bounds_mod.compute_bound_table(cert)
    return report.bound_table


def _suite_bounds(report: VerificationReport, cert) -> SuiteResult:
    s = SuiteResult("bounds")
    table = _bound_table(report, cert)
    s.check(table.mu == 4, f"mu = {table.mu}, expected 4")
    s.check(
        abs(table.mu_angle_deg - REFERENCE_VALUES["mu_angle_deg"]) <= 1e-3,
        f"mu angle {table.mu_angle_deg} deg != {REFERENCE_VALUES['mu_angle_deg']}",
    )
    s.check(
        abs(math.degrees(bounds_mod.R0) - REFERENCE_VALUES["R0_deg"]) <= 1e-4,
        "circumradius R0 mismatch",
    )
    case1, case2 = table.h4_case_bounds
    checked = [("h2", table.h[2], "h2"), ("h4 case 1", case1, "h4_case1")]
    checked += [("h4 case 2", case2, "h4_case2")]
    for label, iv, key in checked:
        s.check_reference(label + " {}", iv.mid, REFERENCE_VALUES[key], "5e-4")
    for i, (w, expected) in enumerate(zip(table.w, REFERENCE_VALUES["w"]), start=1):
        s.check_reference(f"w{i} {{}}", w.mid, expected, "5e-4")
    s.check(table.verdict, "some h_m upper endpoint reaches 13")
    return s


@dataclass
class _RandomSetCounts:
    """What the lemma 1 and 2 suites keep of their shared random sets."""

    negative_sums: int  # sets with a negative Gegenbauer sum (lemma 1)
    below_n2: int  # sets with S < n^2 (lemma 2)
    bridge_gaps: int  # sets whose linearity-bridge gap is over 1e-8 n^2 (lemma 2)
    rng: random.Random  # random.Random(seed) after the sets' draws


def _random_set_counts(config: RunConfig, cert=None) -> _RandomSetCounts:
    """One pass over the lemma 1 and 2 suites' `lemma1_sets` random sets,
    LEMMA_BLOCK at a time: each chunk is drawn, batched and Gegenbauer-summed
    for k = 0 ... 9 once.  Lemma 1 reads the sums; lemma 2, counted only
    when a certificate is given, reads S(X) and the expansion energies the
    same sums give.  Only the counts are kept, with the generator, whose
    next draws are lemma 1's addition-theorem samples."""
    import numpy as np
    rng = random.Random(config.seed)
    negative = below = gaps = 0
    for batch in _random_sets(rng, config.lemma1_sets):
        sums = gegenbauer_sums(batch.cos, batch.starts, range(10))
        negative += int(np.count_nonzero(~lemma1_holds(sums, batch.sizes)))
        if cert is not None:
            S = set_energies(batch, cert)
            below += int(np.count_nonzero(~lemma2_holds(S, batch.sizes)))
            gap = np.abs(S - expansion_energies(sums, cert))
            gaps += int(np.count_nonzero(gap > 1e-8 * batch.sizes**2))
    return _RandomSetCounts(negative, below, gaps, rng)


def _suite_lemma1(config: RunConfig, shared) -> SuiteResult:
    """Lemma 1 on the random sets, and on 1000 addition-theorem samples.
    `shared()` gives the `_random_set_counts` of the run's one pass over
    the sets, which lemma 2 shares."""
    import numpy as np
    s = SuiteResult("lemma1")
    counts = shared()
    bad = counts.negative_sums
    s.check_sets(config.lemma1_sets, (bad, f"{bad} point sets with a negative Gegenbauer sum"))
    # each sample is rng.randint(0, 9), then rng.uniform(0, pi) twice and
    # rng.uniform(0, 2pi): the uniforms are pi r and 2pi r on random() doubles
    randint, random = counts.rng.randint, counts.rng.random
    samples = [(randint(0, 9), random(), random(), random()) for _ in range(1000)]
    degree, r1, r2, r3 = map(np.array, zip(*samples))
    theta1, theta2, phi = math.pi * r1, math.pi * r2, 2.0 * math.pi * r3
    residuals = addition_theorem_residual(degree, theta1, theta2, phi)
    bad_residual = int(np.count_nonzero(residuals >= 1e-9))
    s.check(bad_residual == 0, f"{bad_residual} addition-theorem residuals >= 1e-9")
    return s


def _suite_lemma2(config: RunConfig, cert, shared) -> SuiteResult:
    """Lemma 2 and its linearity bridge on the random sets.  `shared()`
    gives the `_random_set_counts` of the run's one pass over the sets, made
    with `cert`, which lemma 1 shares."""
    s = SuiteResult("lemma2")
    counts = shared()
    bad, bad_bridge = counts.below_n2, counts.bridge_gaps
    s.check_sets(
        config.lemma1_sets,
        (bad, f"{bad} point sets with S < n^2"),
        (bad_bridge, f"{bad_bridge} linearity-bridge gaps over 1e-8 n^2"),
    )
    return s


def _separated_sets(config: RunConfig, s: SuiteResult):
    """The lemma 3 suite's tested point sets, LEMMA_BLOCK at a time, each
    chunk as one sphere.CosineBatch of the sampler's unit vectors; a set of
    fewer than 2 points counts as a skip in `s` instead.

    Set i has rng.randint(2, 12) points, rng = random.Random(seed + 1), and
    is sampled as random_separated_set(n, 60 degrees, seed + 1000 + i) would
    sample it, a chunk's sets together.  When that set saturates, every
    smaller target on its seed places the same points, so the points already
    placed are tested instead.
    """
    import numpy as np
    rng = random.Random(config.seed + 1)
    for first in range(0, config.lemma3_sets, LEMMA_BLOCK):
        seeds = range(
            config.seed + 1000 + first,
            config.seed + 1000 + min(first + LEMMA_BLOCK, config.lemma3_sets),
        )
        sizes = [rng.randint(2, 12) for _ in seeds]
        sampled = sphere.random_separated_sets(sizes, math.pi / 3.0, seeds, max_tries=2000)
        tested = [vectors for _, vectors, _ in sampled if len(vectors) >= 2]
        s.skipped += len(sampled) - len(tested)
        if tested:
            yield sphere.CosineBatch(np.concatenate(tested), [len(v) for v in tested])


def _suite_lemma3(config: RunConfig, cert) -> SuiteResult:
    """Lemma 3 on the separated sets, as one check over them.  A failure
    names each way the sets broke it: S >= 13n, and a point with S_i > T_i
    or T_i >= 13 (the proof's chain), each with the sets that broke it."""
    import numpy as np
    s = SuiteResult("lemma3")
    bad = bad_sum = bad_chain = generated = 0
    for batch in _separated_sets(config, s):
        generated += len(batch.sizes)
        sum_holds, chain_holds = lemma3_holds(batch, cert)
        bad += int(np.count_nonzero(~(sum_holds & chain_holds)))
        bad_sum += int(np.count_nonzero(~sum_holds))
        bad_chain += int(np.count_nonzero(~chain_holds))
    kinds = [
        (bad_sum, f"{bad_sum} separated sets with S >= 13n"),
        (bad_chain, f"{bad_chain} separated sets with a point where S_i > T_i or T_i >= 13"),
    ]
    s.check_sets(generated, (bad, "; ".join(label for count, label in kinds if count)))
    return s


def _suite_theorem(report: VerificationReport, cert) -> SuiteResult:
    s = SuiteResult("theorem")
    table = _bound_table(report, cert)
    theorem = bounds_mod.verify_theorem(cert, table)
    s.check(theorem.expansion_ok, "expansion side (S >= n^2) failed")
    s.check(table.verdict, "bound side (S < 13n) failed")
    s.check(theorem.witness_size == 12, "witness is not 12 points")
    expected_sep = math.acos(1.0 / math.sqrt(5.0))
    s.check(
        abs(theorem.witness_min_sep - expected_sep) <= 1e-6,
        "icosahedron minimal separation mismatch",
    )
    s.check(
        144 <= theorem.witness_energy < 156,
        f"S(icosahedron) = {theorem.witness_energy} outside [144, 156)",
    )
    s.check(theorem.conclusion == 12, "theorem chain did not conclude 12")
    report.energy_spot_checks.append(
        {
            "config": "icosahedron",
            "n": theorem.witness_size,
            "min_sep_deg": math.degrees(theorem.witness_min_sep),
            "S": float(theorem.witness_energy),
        }
    )
    return s


def _suite_refine(report: VerificationReport, cert) -> SuiteResult:
    s = SuiteResult("refine")
    h3_est, h4_est = bounds_mod.refine_h34(cert)
    report.refined = {"h3": h3_est, "h4": h4_est}
    s.check_reference("refined h3 {}", h3_est, REFERENCE_VALUES["h3_refined"], "1e-3")
    s.check_reference("refined h4 {}", h4_est, REFERENCE_VALUES["h4_refined"], "1e-3")
    # the cross-checks against the rigorous enclosures need the bound table,
    # which only the bounds and theorem suites build
    if report.bound_table is None:
        s.skipped += 2
    else:
        s.check(
            h3_est <= report.bound_table.h[3].hi,
            "refined h3 exceeds its rigorous enclosure",
        )
        s.check(
            h4_est <= report.bound_table.h[4].hi,
            "refined h4 exceeds its rigorous enclosure",
        )
    return s


def run(config: RunConfig) -> VerificationReport:
    """Execute the enabled suites in dependency order and assemble the report.

    Suite errors are captured into the report as failures, never raised.
    """
    config.validate()
    report = VerificationReport(config=config)
    report.notes.append(W_DEFINITION_NOTE)

    cert = None
    if any(
        s in config.suites
        for s in ("certificate", "lemma2", "lemma3", "bounds", "theorem", "refine")
    ):
        try:
            cert = build_certificate(config.f_coeffs)
        except Kiss3Error as exc:
            res = SuiteResult("certificate")
            res.check(False, f"certificate construction failed: {exc}")
            report.suites["certificate"] = res
            return report

    @cache
    def random_set_counts():
        # drawn once, inside whichever of lemma1 and lemma2 runs first
        return _random_set_counts(config, cert if "lemma2" in config.suites else None)

    runners = {
        "certificate": lambda: _suite_certificate(report, cert),
        "bounds": lambda: _suite_bounds(report, cert),
        "lemma1": lambda: _suite_lemma1(config, random_set_counts),
        "lemma2": lambda: _suite_lemma2(config, cert, random_set_counts),
        "lemma3": lambda: _suite_lemma3(config, cert),
        "theorem": lambda: _suite_theorem(report, cert),
        "refine": lambda: _suite_refine(report, cert),
    }
    for name in ALL_SUITES:
        if name not in config.suites:
            continue
        try:
            report.suites[name] = runners[name]()
        except Kiss3Error as exc:
            res = SuiteResult(name)
            res.check(False, f"{type(exc).__name__}: {exc}")
            report.suites[name] = res

    if "theorem" in config.suites and report.ok:
        report.conclusion = 12
    return report


def emit_table(report: VerificationReport, output_format: str = "text") -> str:
    """Reference-constant comparison table (text) or the JSON report."""
    if output_format == "json":
        return report.to_json()
    lines = []

    def row(label: str, expected: float, computed: str):
        """One computed value beside the paper's printed one."""
        lines.append(f"  {label:<8} reference {expected:<10} computed {computed}")

    ref = REFERENCE_VALUES
    cert = report.certificate_summary
    if cert:
        lines.append("certificate")
        t0, th = cert["t0"], cert["theta0_deg"]
        row("t0", ref["t0"], f"[{t0[0]:.10f}, {t0[1]:.10f}]")
        row("theta0", ref["theta0_deg"], f"[{th[0]:.6f}, {th[1]:.6f}] deg")
        lines.append(f"  f(1)     = {cert['f_at_1']}, f(-1) = {cert['f_at_minus_1']}")
    table = report.bound_table
    if table is not None:
        lines.append("bounds")
        row("mu-angle", ref["mu_angle_deg"], f"{table.mu_angle_deg:.4f} deg (mu = {table.mu})")
        (h0, h1, h2, _, _), (case1, case2) = table.h, table.h4_case_bounds
        rows = [("h0", ref["h0"], h0), ("h1", ref["h1"], h1), ("h2", ref["h2"], h2)]
        rows += [("h4/1", ref["h4_case1"], case1), ("h4/2", ref["h4_case2"], case2)]
        rows += [(f"w{i}", *pair) for i, pair in enumerate(zip(ref["w"], table.w), start=1)]
        for label, expected, iv in rows:
            row(label, expected, f"[{iv.lo:.7f}, {iv.hi:.7f}]  margin {13.0 - iv.hi:+.4f}")
        lines.append(f"  verdict: {'h_max < 13' if table.verdict else 'FAILED'}")
    if report.refined:
        lines.append("refined estimates (non-rigorous)")
        row("h3", ref["h3_refined"], f"{report.refined['h3']:.6f}")
        row("h4", ref["h4_refined"], f"{report.refined['h4']:.6f}")
    for spot in report.energy_spot_checks:
        lines.append(
            f"witness {spot['config']}: n = {spot['n']}, min sep "
            f"{spot['min_sep_deg']:.4f} deg, S = {spot['S']:.6f}"
        )
    if report.suites:
        lines.append("suites")
        for name, s in report.suites.items():
            status = "PASS" if s.ok else "FAIL"
            lines.append(
                f"  {name:<12} {status}  ({s.passed} passed, {s.failed} failed, "
                f"{s.skipped} skipped)"
            )
            for msg in s.failures:
                lines.append(f"    failure: {msg}")
    if report.conclusion is not None:
        lines.append(f"conclusion: kissing number in three dimensions = {report.conclusion}")
    return "\n".join(lines)


def perturbed_coeffs(index: int, delta: Fraction) -> tuple:
    """The certificate coefficients with one monomial perturbed; negative
    control fuel."""
    coeffs = list(F_COEFFS)
    if not 0 <= index < len(coeffs):  # a negative index would count from the end
        raise IndexError(f"coefficient index {index} outside 0...{len(coeffs) - 1}")
    coeffs[index] = coeffs[index] + Fraction(delta)
    return tuple(coeffs)
