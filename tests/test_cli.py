import argparse
import errno
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kiss3
from kiss3.cli import _build_parser, main
from kiss3.energy import energy
from kiss3.sphere import min_separation, parse_points


class TestVerify:
    def test_partial_run_exit_zero(self, capsys):
        code = main(
            [
                "verify",
                "--suite", "certificate",
                "--lemma1-sets", "10",
                "--lemma3-sets", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certificate" in out and "PASS" in out

    def test_json_output(self, capsys):
        code = main(["verify", "--suite", "certificate", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        assert payload["suites"]["certificate"]["failed"] == 0

    def test_exact_report_matches_golden(self, capsys):
        # the report of the rigorous suites, byte for byte as recorded
        code = main(
            [
                "verify",
                "--suite", "certificate",
                "--suite", "bounds",
                "--suite", "theorem",
                "--seed", "42",
                "--format", "json",
            ]
        )
        assert code == 0
        golden = Path(__file__).parent / "data" / "exact_seed42.json"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    @pytest.mark.parametrize(
        "extra, seed, name",
        [
            ([], "42", "lemmas_seed42.json"),
            (["--lemma1-sets", "100", "--lemma3-sets", "50"], "7", "lemmas_sampled_seed7.json"),
        ],
    )
    def test_lemma_report_matches_golden(self, capsys, extra, seed, name):
        # the randomized suites' report, byte for byte as recorded with the
        # one-set-at-a-time lemma 1 and 2 loops
        code = main(
            ["verify", "--suite", "lemma1", "--suite", "lemma2", "--suite", "lemma3"]
            + extra
            + ["--seed", seed, "--format", "json"]
        )
        assert code == 0
        golden = Path(__file__).parent / "data" / name
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    @pytest.mark.parametrize(
        "output_format, name",
        [("text", "perturb_9_1_100.txt"), ("json", "perturb_9_1_100.json")],
    )
    def test_failing_report_matches_golden(self, capsys, output_format, name):
        # a failing full run at the default seed, byte for byte as recorded:
        # every reference check's failure message and every table row
        code = main(["verify", "--perturb", "9:1/100", "--format", output_format])
        assert code == 1
        golden = Path(__file__).parent / "data" / name
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    @pytest.mark.parametrize(
        "output_format, name", [("text", "verify_seed42.txt"), ("json", "verify_seed42.json")]
    )
    def test_default_report_matches_golden(self, capsys, output_format, name):
        # the default run, every suite, byte for byte as recorded: the
        # refined estimates' bytes among the rest
        code = main(["verify", "--seed", "42", "--format", output_format])
        assert code == 0
        golden = Path(__file__).parent / "data" / name
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            ["verify", "--suite", "certificate", "--format", "json", "--out", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        assert json.loads(target.read_text())["schema_version"] == 2

    def test_perturb_fails(self, capsys):
        code = main(["verify", "--suite", "certificate", "--perturb", "9:1/100"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("spec", ["nonsense", "9:1/0", "-1:1/100", "-10:1/100", "10:1/100"])
    def test_bad_perturb_spec(self, capsys, spec):
        # a negative index must not count from the end of the coefficients
        code = main(["verify", f"--perturb={spec}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("bad --perturb argument:")
        assert captured.err.count("\n") == 1

    def test_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "absent" / "report.json"
        code = main(["verify", "--suite", "certificate", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("cannot write report:")
        assert captured.err.count("\n") == 1
        assert not target.parent.exists()

    def test_out_write_fails_after_run(self, tmp_path, capsys, monkeypatch):
        # the pre-check opens the file; the write itself fails, as on a full disk
        def full(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

        monkeypatch.setattr(Path, "write_text", full)
        code = main(["verify", "--suite", "certificate", "--out", str(tmp_path / "r.txt")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("cannot write report:")
        assert "No space left on device" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "suite, flag", [("lemma1", "--lemma1-sets"), ("lemma3", "--lemma3-sets")]
    )
    def test_negative_set_count(self, capsys, suite, flag):
        code = main(["verify", "--suite", suite, flag, "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("configuration error:")

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--grid", "256"], ["verify", "--tol", "1e-7"], ["table", "--tol", "1e-7"]],
    )
    def test_retired_flags(self, capsys, argv):
        # the refine grid and the enclosure tolerance are no longer options
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSampleAndEnergy:
    def test_sample_output_is_separated(self, capsys):
        code = main(["sample", "--n", "6", "--min-sep", "60", "--seed", "4"])
        assert code == 0
        ps = parse_points(capsys.readouterr().out)
        assert len(ps) == 6
        assert min_separation(ps) >= math.pi / 3 - 1e-9

    def test_sample_saturation_exit_one(self, capsys):
        code = main(["sample", "--n", "13", "--min-sep", "60", "--seed", "0"])
        capsys.readouterr()
        assert code == 1

    def test_sample_saturates_before_a_huge_n(self, capsys):
        # the accepted points are kept in a row as wide as 60-degree caps
        # allow, 15 columns, not one of n columns
        code = main(["sample", "--n", "1000000000000000", "--min-sep", "60"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("sampling failed: placed 9/1000000000000000 ")
        assert captured.err.count("\n") == 1

    def test_sample_too_large_to_hold(self, capsys, monkeypatch):
        # with no separation the row is n wide: numpy refuses it, as it does
        # 24 TB for these 10^12 points, and the run exits 2 with one line
        # naming n, no traceback
        import numpy as np

        shapes = []

        def refuse(shape, *args, **kwargs):
            shapes.append(shape)
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(np, "zeros", refuse)
        code = main(["sample", "--n", "1000000000000", "--min-sep", "0"])
        captured = capsys.readouterr()
        assert shapes == [(1, 10**12, 3)]
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "cannot sample 1000000000000 points: they do not fit in memory\n"
        )

    def test_sample_past_what_numpy_indexes(self, capsys):
        # numpy refuses a shape of 10^19 x 3 doubles with a ValueError, before
        # it allocates anything
        code = main(["sample", "--n", str(10**19), "--min-sep", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"cannot sample {10**19} points: they do not fit in memory\n"

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            ("--n 8 --min-sep 60 --seed 5", 0, "sample_n8_sep60_seed5.txt", None),
            ("--n 300 --min-sep 5 --seed 3", 0, "sample_n300_sep5_seed3.txt", None),
            ("--n 14 --min-sep 60 --seed 3", 1, None, "sample_n14_sep60_seed3.err"),
        ],
    )
    def test_sample_matches_golden(self, capsys, argv, code, out, err):
        # the goldens were written by the sampler whose rounds doubled from
        # 32 candidates to 512; the points never depend on the block sizes
        data = Path(__file__).parent / "data"
        assert main(["sample", *argv.split()]) == code
        captured = capsys.readouterr()
        assert captured.out.encode() == ((data / out).read_bytes() if out else b"")
        assert captured.err.encode() == ((data / err).read_bytes() if err else b"")

    def test_sample_of_700_points_matches_its_hash(self, capsys):
        # 700 points at 1 degree, more than one block of candidates holds;
        # the hash was taken where the goldens above were written
        assert main(["sample", "--n", "700", "--min-sep", "1", "--seed", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "e2325ef43a6f87cfb4371236231883961a14aef9ceea69eccf002f52a095e174"
        )

    def test_sample_antipodes_saturate(self, capsys):
        # at 180 degrees the rows are 2 wide and the second point, which
        # must be the first's antipode, is never drawn
        code = main(["sample", "--n", "2", "--min-sep", "180", "--seed", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("sampling failed: placed 1/2 points before 20000 ")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sample_nonpositive_n(self, capsys, n):
        code = main(["sample", "--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("deg", ["nan", "inf", "-inf", "200", "-5", "180.0001"])
    def test_sample_bad_min_sep(self, capsys, deg):
        code = main(["sample", "--n", "3", f"--min-sep={deg}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("configuration error:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("deg, n", [("0", 10), ("180", 1), ("1e-320", 5)])
    def test_sample_min_sep_range_ends(self, capsys, deg, n):
        code = main(["sample", "--n", str(n), "--min-sep", deg, "--seed", "2"])
        assert code == 0
        assert len(parse_points(capsys.readouterr().out)) == n

    def test_energy_round_trip(self, tmp_path, capsys):
        code = main(["sample", "--n", "5", "--min-sep", "70", "--seed", "8"])
        assert code == 0
        text = capsys.readouterr().out
        pts = tmp_path / "pts.txt"
        pts.write_text(text)
        code = main(["energy", "--points", str(pts)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 5
        assert payload["S"] >= 25.0 * (1 - 1e-9)
        assert payload["S"] < 13.0 * 5

    def test_energy_stdout_is_the_json_report(
        self, tmp_path, capsys, cert, energy_report_difference
    ):
        # area-uniform points with no separation, so that J(i) is long
        rng = random.Random(61)
        lines = ["# theta_deg phi_deg"]
        for _ in range(400):
            theta = math.degrees(math.acos(rng.uniform(-1.0, 1.0)))
            lines.append(f"{theta:.12f} {rng.uniform(0.0, 360.0):.12f}")
        pts = tmp_path / "pts.txt"
        pts.write_text("\n".join(lines) + "\n")
        code = main(["energy", "--points", str(pts)])
        assert code == 0
        summary = energy(parse_points(pts.read_text()), cert)
        out = capsys.readouterr().out
        assert out.endswith("\n")
        assert energy_report_difference(out[:-1], summary) is None

    def test_energy_missing_file(self, tmp_path, capsys):
        code = main(["energy", "--points", str(tmp_path / "absent.txt")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("azimuth", ["nan", "inf", "-inf"])
    def test_energy_non_finite_azimuth(self, tmp_path, capsys, azimuth):
        pts = tmp_path / "pts.txt"
        pts.write_text(f"# theta_deg phi_deg\n20 30\n10 {azimuth}\n")
        code = main(["energy", "--points", str(pts)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        message = f"line 3: azimuth not finite: {azimuth} degrees"
        assert captured.err == f"cannot read point set: {message}\n"

    @pytest.mark.parametrize("theta", ["200", "-5", "180.5"])
    def test_energy_colatitude_out_of_range(self, tmp_path, capsys, theta):
        # named in degrees, as the file wrote it
        pts = tmp_path / "pts.txt"
        pts.write_text(f"{theta} 20\n")
        code = main(["energy", "--points", str(pts)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        message = f"line 1: colatitude out of range: {theta} degrees"
        assert captured.err == f"cannot read point set: {message}\n"

    def test_energy_set_too_large_to_hold(self, tmp_path, capsys, monkeypatch):
        # numpy refuses the n x n cosines, as it does for a file of about
        # 400k points: one line naming n and the bytes, no traceback
        import numpy as np

        empty = np.empty

        def refuse(shape, *args, **kwargs):
            if np.prod(shape) >= 3 * 3:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse)
        pts = tmp_path / "pts.txt"
        pts.write_text("10 20\n30 40\n50 60\n")
        code = main(["energy", "--points", str(pts)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "cannot hold the point set: the pairwise cosines of 3 points need 72 bytes\n"
        )

    def test_energy_report_too_large_to_build(self, tmp_path, capsys, monkeypatch):
        # the cosines fit, but numpy refuses the render's widened mask, as
        # it may for a report of about 2.7 n^2 bytes at n = 10k: one line
        # naming n, no traceback and no partial report
        import numpy as np

        def refuse(shape, *args, **kwargs):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(np, "zeros", refuse)
        pts = tmp_path / "pts.txt"
        pts.write_text("10 20\n30 40\n170 60\n")
        code = main(["energy", "--points", str(pts)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "cannot build the report: the energy report of 3 points does not fit in memory\n"
        )

    def test_energy_no_points(self, tmp_path, capsys):
        pts = tmp_path / "empty.txt"
        pts.write_text("# theta_deg phi_deg\n\n")
        code = main(["energy", "--points", str(pts)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1


class TestTable:
    def test_table_skip_refine(self, capsys):
        code = main(["table", "--skip-refine"])
        assert code == 0
        out = capsys.readouterr().out
        assert "h2" in out
        assert "conclusion" in out


class TestDispatch:
    @pytest.mark.parametrize(
        "argv, says",
        [([], "the following arguments are required: command"), (["bogus"], "invalid choice")],
    )
    def test_missing_or_unknown_subcommand(self, capsys, argv, says):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: kiss3")
        assert "command" in err and says in err

    def test_parser_is_built_once(self, capsys):
        # the one parser keeps nothing of a parse: each run reports only
        # its own --suite
        assert _build_parser() is _build_parser()
        for suite in ("certificate", "bounds"):
            assert main(["verify", "--suite", suite, "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert list(report["suites"]) == [suite]
            assert report["config"]["suites"] == [suite]


def _last_line_of_fresh(probe: str) -> str:
    """The last line `probe` prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(kiss3.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.splitlines()[-1]


def _loaded_after_cli_import(module: str, argv: list[str] | None = None) -> bool:
    """Whether `import kiss3.cli`, then `kiss3.cli.main(argv)` when argv is
    given, in a fresh interpreter loads `module`."""
    run = "" if argv is None else f"kiss3.cli.main({argv!r}); "
    probe = f"import sys, kiss3.cli; {run}print({module!r} in sys.modules)"
    return {"True": True, "False": False}[_last_line_of_fresh(probe)]


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--points", "{points}"],
        ["verify", "--suite", "certificate", "--format", "json"],
    ],
)
def test_closed_stdout_exits_two(tmp_path, argv):
    # the read end of stdout's pipe is closed before the CLI writes, as when
    # `| head` has already exited
    points = tmp_path / "pts.txt"
    points.write_text("0 0\n90 0\n90 120\n")
    argv = [a.format(points=points) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(kiss3.__file__).parents[1]))
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "kiss3.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr


def test_import_leaves_scipy_unloaded():
    # no kiss3 code imports scipy: only the benchmark needs it
    assert not _loaded_after_cli_import("scipy")


def test_refine_leaves_scipy_unloaded():
    assert not _loaded_after_cli_import("scipy", ["verify", "--suite", "refine"])


def test_import_leaves_numpy_random_unloaded():
    # the sampler builds its pool of RandomStates on its first call
    assert not _loaded_after_cli_import("numpy.random")


EXACT_SUITES = ["verify", "--suite", "certificate", "--suite", "bounds", "--suite", "theorem"]


@pytest.mark.parametrize(
    "argv",
    [None, EXACT_SUITES + ["--format", "json"], ["table"], ["table", "--skip-refine"]],
)
def test_verdict_path_leaves_numpy_unloaded(argv):
    # the exact suites, the table and refine run on Fraction and math alone
    assert not _loaded_after_cli_import("numpy", argv)


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "lemma1", "--lemma1-sets", "1"], ["energy", "--points", "{points}"]],
)
def test_sampled_path_loads_numpy(tmp_path, argv):
    # the positive control: the probe sees numpy when a command needs it
    points = tmp_path / "pts.txt"
    points.write_text("0 0\n90 0\n")
    assert _loaded_after_cli_import("numpy", [a.format(points=points) for a in argv])


def test_package_exports_survive_lazy_loading(tmp_path):
    # numpy loads only once a sampled suite and `energy` run; after them
    # every export is still its module's object, and `from kiss3 import
    # energy` the function, not the submodule a late import of kiss3.energy
    # would bind over it
    points = tmp_path / "pts.txt"
    points.write_text("0 0\n90 0\n")
    probe = f"""
import sys, types, kiss3, kiss3.cli
kiss3.cli.main(["verify", "--suite", "lemma1", "--lemma1-sets", "1"])
kiss3.cli.main(["energy", "--points", {str(points)!r}])
from kiss3 import energy, legendre
wrong = [
    name
    for name in kiss3.__all__
    if isinstance(getattr(kiss3, name), types.ModuleType)
    or getattr(sys.modules[getattr(kiss3, name).__module__], name) is not getattr(kiss3, name)
]
assert "kiss3.energy" in sys.modules and "kiss3.legendre" in sys.modules
ok = energy is sys.modules["kiss3.energy"].energy and legendre(2).degree == 2
print(wrong, ok)
"""
    assert _last_line_of_fresh(probe) == "[] True"


def test_readme_names_only_real_options():
    # every --flag of README's "Command line" section is an option of some
    # kiss3 subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings}
    assert named and named <= options, sorted(named - options)
