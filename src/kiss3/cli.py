"""Command-line interface.

    kiss3 verify [--suite NAME]... [--seed S] [--format text|json] [--out PATH]
                 [--lemma1-sets N] [--lemma3-sets N] [--perturb IDX:DELTA]
    kiss3 table [--skip-refine]
    kiss3 sample --n N --min-sep DEG --seed S
    kiss3 energy --points FILE

Exit codes: 0 on success (conclusion 12 for full runs), 1 on any suite
failure, 2 on configuration errors and on output that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import harness, sphere
from .certificate import build_certificate
from .energy import energy, energy_json
from .errors import Kiss3Error


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand sets `handler`,
    the function that runs it; `verify`'s defaults are `harness.RunConfig`'s."""
    defaults = harness.RunConfig()
    parser = argparse.ArgumentParser(
        prog="kiss3",
        description="Verify the extended-Delsarte computation showing that "
        "the kissing number in three dimensions is 12.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suites")
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument(
        "--suite",
        action="append",
        choices=harness.ALL_SUITES,
        help="restrict to the named suite (repeatable; default: all)",
    )
    verify.add_argument("--seed", type=int, default=defaults.seed)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", type=Path, default=None, help="write report here")
    verify.add_argument(
        "--lemma1-sets", type=int, default=defaults.lemma1_sets, help="random sets for lemmas 1/2"
    )
    verify.add_argument(
        "--lemma3-sets", type=int, default=defaults.lemma3_sets, help="separated sets for lemma 3"
    )
    verify.add_argument(
        "--perturb",
        metavar="IDX:DELTA",
        default=None,
        help="negative control: add the rational DELTA to monomial "
        "coefficient IDX of the certificate (e.g. 9:1/100)",
    )

    table = sub.add_parser("table", help="print the reference-constant comparison table")
    table.set_defaults(handler=_cmd_table)
    table.add_argument(
        "--skip-refine", action="store_true", help="omit the non-rigorous estimates"
    )

    sample = sub.add_parser("sample", help="emit a random separated point set")
    sample.set_defaults(handler=_cmd_sample)
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--min-sep", type=float, default=60.0, help="degrees")
    sample.add_argument("--seed", type=int, default=42)

    en = sub.add_parser("energy", help="energy summary of a point-set file")
    en.set_defaults(handler=_cmd_energy)
    en.add_argument("--points", type=Path, required=True)
    return parser


def _run(config: harness.RunConfig, output_format: str, out: Path | None = None) -> int:
    """Run `config` and print its report, also to `out` when given.  A bad
    configuration or an `out` that cannot be opened exits 2 before the run,
    and an `out` that cannot be written exits 2 before the report prints."""
    try:
        config.validate()
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if out:
        try:
            out.open("a").close()  # fail now, not after the suites have run
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    report = harness.run(config)
    text = harness.emit_table(report, output_format)
    if out:
        try:
            out.write_text(text + "\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    print(text)
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    coeffs = harness.F_COEFFS
    if args.perturb:
        try:
            idx_str, delta_str = args.perturb.split(":", 1)
            coeffs = harness.perturbed_coeffs(int(idx_str), Fraction(delta_str))
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            print(f"bad --perturb argument: {exc}", file=sys.stderr)
            return 2
    config = harness.RunConfig(
        seed=args.seed,
        suites=tuple(args.suite) if args.suite else harness.ALL_SUITES,
        lemma1_sets=args.lemma1_sets,
        lemma3_sets=args.lemma3_sets,
        f_coeffs=coeffs,
    )
    return _run(config, args.format, args.out)


def _cmd_table(args) -> int:
    suites = ("certificate", "bounds", "theorem")
    if not args.skip_refine:
        suites += ("refine",)
    config = harness.RunConfig(suites=suites)
    return _run(config, "text")


def _cmd_sample(args) -> int:
    if args.n < 1:
        print(f"configuration error: --n must be >= 1, got {args.n}", file=sys.stderr)
        return 2
    min_sep = math.radians(args.min_sep)
    if not 0.0 <= min_sep <= math.pi:  # the range random_separated_set takes
        print(
            f"configuration error: --min-sep must lie in [0, 180] degrees, got {args.min_sep}",
            file=sys.stderr,
        )
        return 2
    try:
        ps = sphere.random_separated_set(args.n, min_sep, seed=args.seed)
    except Kiss3Error as exc:
        print(f"sampling failed: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, ValueError):  # numpy's ValueError: a shape past what it indexes
        print(f"cannot sample {args.n} points: they do not fit in memory", file=sys.stderr)
        return 2
    sys.stdout.write(sphere.format_points(ps))
    return 0


def _cmd_energy(args) -> int:
    """Print the energy summary of a point-set file as `energy.energy_json`
    writes it; a file that cannot be read or holds no points exits 2, and so
    does a set whose n x n cosines (8 n^2 bytes) cannot be allocated, or
    whose report (about 2.7 n^2 bytes at random) cannot be built."""
    try:
        ps = sphere.parse_points(args.points.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read point set: {exc}", file=sys.stderr)
        return 2
    n = len(ps)
    if n == 0:
        print(f"cannot read point set: {args.points} holds no points", file=sys.stderr)
        return 2
    try:
        summary = energy(ps, build_certificate())
    except MemoryError:
        print(
            f"cannot hold the point set: the pairwise cosines of {n} points need {8 * n * n} bytes",
            file=sys.stderr,
        )
        return 2
    try:
        print(energy_json(summary))
    except MemoryError:
        print(
            f"cannot build the report: the energy report of {n} points does not fit in memory",
            file=sys.stderr,
        )
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
    except BrokenPipeError:
        # the reader has gone (say `| head`): what is left goes to os.devnull,
        # so the flush at exit is quiet, and the output that could not be
        # written exits 2, as a failed --out does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
