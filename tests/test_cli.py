import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from expdyn import __version__, bundled_function, cli, function_to_dict
from expdyn.cli import LEMMA_CHECKS, build_parser, main
from expdyn.orbits import trap_at_0


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Parsing and error handling


def test_help_for_all_subcommands(capsys):
    for cmd in (
        "check",
        "render",
        "exceptional",
        "e2measure",
        "annulus-scan",
        "grid-bound",
        "counterexample",
        "lemma-verify",
    ):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_bad_flags_exit_one(capsys):
    code, _, err = run(capsys, "check")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "render", "--fn", "sin_z3")
    assert code == 1  # missing --out
    code, _, err = run(capsys, "e2measure", "--fn", "sin_z", "--r-min", "10", "--r-max", "20")
    assert code == 1  # d < 3 has no exceptional sets


def test_missing_function_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--fn", str(tmp_path / "nope.json"))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", "--fn", str(bad))
    assert code == 1


_TERM = {"Q": [[1.0, 0.0]], "b": [1.0, 0.0], "P": []}


@pytest.mark.parametrize(
    "definition",
    [
        {"d": 3, "terms": [_TERM, {**_TERM, "b": [float("nan"), 0.0]}]},
        {"d": 3, "terms": [_TERM, {**_TERM, "b": [-1.0, float("inf")]}]},
        {"d": 3, "terms": [_TERM, {**_TERM, "b": [-1.0, 0.0], "Q": [[float("nan"), 0.0]]}]},
        {"d": 3, "terms": [_TERM, {**_TERM, "b": [-1.0, 0.0], "P": [[0.0, float("-inf")]]}]},
        [_TERM],
        {"terms": [_TERM]},
        {"d": 3},
        {"d": 3, "terms": [1]},
        {"d": True, "terms": [_TERM]},
        {"d": 3, "terms": [{"Q": [[True, False]], "b": [True, False]}]},
        {"d": 3, "terms": [_TERM, {**_TERM, "Q": [[0.0, True]], "b": [-1.0, 0.0]}]},
        {"d": 3, "terms": [_TERM, {**_TERM, "b": [0.0, True]}]},
        {"d": 3, "terms": [_TERM, {**_TERM, "b": [-1.0, 0.0], "P": [[False, 1.0]]}]},
        {"d": 3, "terms": [_TERM, {**_TERM, "b": [0.0, 1.0, 7.0]}]},
        {"d": 3, "terms": [_TERM, {**_TERM, "b": [0.0, -1.0, "x"]}]},
        {"d": 3, "terms": [_TERM, {**_TERM, "b": [-1.0, 0.0], "Q": [[0.5, 0, 9]]}]},
        {"d": 3, "terms": [_TERM, {**_TERM, "b": [-1.0, 0.0], "Q": [[10**400, 0]]}]},
        {"d": 3, "terms": []},
    ],
    ids=[
        "nan-b",
        "inf-b",
        "nan-Q",
        "inf-P",
        "top-level-list",
        "missing-d",
        "missing-terms",
        "bad-term",
        "bool-d",
        "bool-Q-and-b",
        "bool-Q",
        "bool-b",
        "bool-P",
        "three-number-b",
        "b-with-a-string",
        "three-number-Q",
        "Q-beyond-doubles",
        "no-terms",
    ],
)
def test_malformed_function_file_exits_one(capsys, tmp_path, definition):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(definition))
    code, out, err = run(capsys, "check", "--fn", str(path))
    assert code == 1 and err.startswith("error:")
    assert out == ""


_SRC = Path(__file__).resolve().parents[1] / "src"


def _src_env():
    """os.environ with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    return env


_COLD_START = textwrap.dedent(
    """
    import contextlib, io, os, sys
    import expdyn
    from expdyn import cli

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv

    def scipy_modules():
        return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

    tmp = sys.argv[1]
    run("check", "--fn", "sin_z3")
    run("render", "--fn", "sin_z3", "--out", os.path.join(tmp, "r.ppm"), "--px", "16", "--threads", "1")
    run("exceptional", "--fn", "sin_z3", "--out", os.path.join(tmp, "e.ppm"), "--px", "16")
    run("e2measure", "--fn", "sin_z3", "--r-min", "10", "--r-max", "20", "--nr", "16", "--ntheta", "256")
    run("grid-bound", "--fn", "sin_z3", "--r-lo", "10", "--r-hi", "20", "--count", "2")
    assert not scipy_modules(), scipy_modules()[:5]
    run("annulus-scan", "--fn", "sin_z3", "--r", "5", "--samples", "100")
    assert "scipy.stats" in sys.modules
    """
)


def test_scipy_loaded_only_by_sampling_commands(tmp_path):
    # Importing SciPy's stats, special and integrate packages takes about a
    # second; commands that neither sample nor integrate must not pay it.
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path)],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (ValueError, 1, "error: "),
        (OSError, 1, "error: "),
        (MemoryError, 1, "error: "),
        (RuntimeError, 2, "internal error: "),
        (OverflowError, 2, "internal error: "),
    ],
)
def test_main_maps_exceptions_to_exit_codes(capsys, monkeypatch, exc, code, prefix):
    def fail(args):
        raise exc("boom")

    monkeypatch.setitem(cli._COMMANDS, "check", fail)
    assert run(capsys, "check", "--fn", "sin_z3") == (code, "", f"{prefix}boom\n")


# A size whose first array (711 PiB) exceeds the user address space even
# with 57-bit virtual addresses, so the allocation fails at once whatever
# the overcommit policy.  Sizes in the GB range could really be allocated.
_HUGE = str(10**17)


@pytest.mark.parametrize(
    "argv",
    [
        ["annulus-scan", "--fn", "sin_z3", "--r", "5", "--samples", _HUGE],
        ["counterexample", "--samples", _HUGE],
        ["e2measure", "--fn", "sin_z3", "--r-min", "10", "--r-max", "20", "--nr", _HUGE],
        ["e2measure", "--fn", "sin_z3", "--r-min", "10", "--r-max", "20", "--ntheta", _HUGE],
        ["grid-bound", "--fn", "sin_z3", "--r-lo", "10", "--r-hi", "20", "--count", _HUGE],
        ["exceptional", "--fn", "sin_z3", "--px", _HUGE],
    ],
    ids=[
        "annulus-scan-samples",
        "counterexample-samples",
        "e2measure-nr",
        "e2measure-ntheta",
        "grid-bound-count",
        "exceptional-px",
    ],
)
def test_unallocatable_size_exits_one(capsys, tmp_path, argv):
    out_path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1 and err.startswith("error: Unable to allocate")
    assert out == "" and not out_path.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_python_m_expdyn_runs_the_command_line(tmp_path):
    def python_m(*argv):
        cmd = [sys.executable, "-m", "expdyn", *argv]
        return subprocess.run(cmd, env=_src_env(), capture_output=True, text=True, timeout=120)

    done = python_m("--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == __version__
    # argparse exits by itself on --version; a refusal must pass main's code on.
    done = python_m("check", "--fn", str(tmp_path / "nope.json"))
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and done.stdout == ""


def test_parser_builds():
    assert build_parser().prog == "expdyn"


def test_parser_built_once_and_shares_no_state(monkeypatch):
    assert build_parser() is build_parser()
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "render", lambda args: seen.append(vars(args)) or 0)
    first = ["render", "--fn", "sin_z", "--out", "a.ppm", "--px", "16", "--alpha", "0.5", "--threads", "1"]
    second = ["render", "--fn", "sin_z3", "--out", "b.ppm"]
    assert main(first) == 0 and main(second) == 0
    assert seen[0]["px"] == 16 and seen[0]["alpha"] == 0.5
    # The second call reads what a parser of its own reads: every default.
    assert seen[1] == vars(build_parser.__wrapped__().parse_args(second))
    assert seen[1]["px"] == 800 and seen[1]["alpha"] != 0.5


# ---------------------------------------------------------------------------
# check


def test_check_verdicts(capsys):
    code, out, _ = run(capsys, "check", "--fn", "sin_z3")
    assert code == 0
    assert json.loads(out)["verdict"] == "Theorem1.3"
    code, out, _ = run(capsys, "check", "--fn", "sin_z")
    assert json.loads(out)["verdict"] == "Fails"
    code, out, _ = run(capsys, "check", "--fn", "example_h")
    assert json.loads(out)["verdict"] == "Fails"


def test_check_to_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "--fn", "sin_z3", "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["verdict"] == "Theorem1.3"


@pytest.mark.parametrize(
    "argv",
    [["check", "--fn", "sin_z3"], ["counterexample", "--r0", "100", "--R", "1000", "--samples", "50"]],
    ids=["check", "counterexample"],
)
def test_json_stdout_is_the_out_file(capsys, tmp_path, argv):
    path = tmp_path / "report.json"
    code_file, out_file, _ = run(capsys, *argv, "--out", str(path))
    code, out, _ = run(capsys, *argv)
    assert code == code_file == 0 and out_file == ""
    assert out.encode("utf-8") == path.read_bytes()


# ---------------------------------------------------------------------------
# render / exceptional


def test_render_writes_ppm(capsys, tmp_path):
    out_path = tmp_path / "img.ppm"
    code, _, _ = run(
        capsys,
        "render",
        "--fn",
        "sin_z3",
        "--out",
        str(out_path),
        "--half",
        "2",
        "--px",
        "24",
        "--threads",
        "2",
    )
    assert code == 0
    raw = out_path.read_bytes()
    assert raw.startswith(b"P6\n24 24\n255\n")
    assert len(raw) == 13 + 3 * 24 * 24


def test_render_deterministic(capsys, tmp_path):
    args = ["render", "--fn", "sin_z3", "--half", "2", "--px", "16"]
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    assert run(capsys, *args, "--out", str(a), "--threads", "1")[0] == 0
    assert run(capsys, *args, "--out", str(b), "--threads", "4")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_threads_default_to_usable_cpus():
    args = build_parser().parse_args(["render", "--fn", "sin_z3", "--out", "x.ppm"])
    if hasattr(os, "sched_getaffinity"):
        assert args.threads == len(os.sched_getaffinity(0))
    else:
        assert args.threads == (os.cpu_count() or 1)


def test_exceptional_writes_ppm(capsys, tmp_path):
    out_path = tmp_path / "exc.ppm"
    code, _, _ = run(
        capsys,
        "exceptional",
        "--fn",
        "sin_z3",
        "--out",
        str(out_path),
        "--half",
        "20",
        "--px",
        "32",
    )
    assert code == 0
    assert out_path.read_bytes().startswith(b"P6\n32 32\n255\n")


# ---------------------------------------------------------------------------
# numeric reports


@pytest.mark.parametrize(
    "argv",
    [
        ["e2measure", "--fn", "sin_z3", "--r-min", "10", "--r-max", "20", "--nr", "16", "--ntheta", "256"],
        ["annulus-scan", "--fn", "sin_z3", "--r", "5", "--samples", "100"],
        ["grid-bound", "--fn", "sin_z3", "--r-lo", "10", "--r-hi", "20", "--count", "2"],
        ["check", "--fn", "sin_z3"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_json_is_indented_by_two(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_e2measure_with_csv(capsys, tmp_path):
    out_path = tmp_path / "e2.csv"
    code, out, _ = run(
        capsys,
        "e2measure",
        "--fn",
        "sin_z3",
        "--r-min",
        "10",
        "--r-max",
        "20",
        "--nr",
        "16",
        "--ntheta",
        "256",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert json.loads(out)["measure"] > 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "r_lo,r_hi,nr,ntheta,measure"
    assert len(lines) == 2


def test_annulus_scan_seeded(capsys, tmp_path):
    args = ["annulus-scan", "--fn", "sin_z3", "--r", "5", "--samples", "500", "--seed", "2"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["frac_escape"] + rep["frac_nonescape"] + rep["frac_undetermined"] == pytest.approx(1.0)


def test_trap_derived_once_per_function_value(capsys, tmp_path):
    """Two loads of sin_z and a file of its coefficients are one function
    value, so the three scans derive its trap once."""
    path = tmp_path / "sin_z.json"
    path.write_text(json.dumps(function_to_dict(bundled_function("sin_z"))))
    misses = trap_at_0.cache_info().misses
    for fn in ("sin_z", "sin_z", str(path)):
        assert run(capsys, "annulus-scan", "--fn", fn, "--r", "1", "--samples", "50")[0] == 0
    assert trap_at_0.cache_info().misses == misses + 1


@pytest.mark.parametrize("r", ["nan", "inf", "1e300"])
def test_annulus_scan_rejects_non_finite_r(capsys, r):
    # At 1e300 the annulus area overflows: the estimated measure used to read
    # 0 * inf = NaN, with exit 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "annulus-scan", "--fn", "sin_z3", "--r", r, "--samples", "10")
    assert code == 1 and err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("flag", ["--alpha", "--escape-radius"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_classify_flags_reject_non_finite(capsys, tmp_path, flag, value):
    code, _, err = run(
        capsys, "render", "--fn", "sin_z3", "--out", str(tmp_path / "x.ppm"), "--px", "4", flag, value
    )
    assert code == 1 and "error" in err
    assert not (tmp_path / "x.ppm").exists()
    code, _, err = run(capsys, "annulus-scan", "--fn", "sin_z3", "--r", "5", "--samples", "10", flag, value)
    assert code == 1 and "error" in err


@pytest.mark.parametrize("radius", ["1e120", "1e300"])
@pytest.mark.parametrize(
    "argv",
    [["render", "--px", "8"], ["annulus-scan", "--r", "10", "--samples", "50"]],
    ids=["render", "annulus-scan"],
)
def test_classify_accepts_large_escape_radius(capsys, tmp_path, argv, radius):
    # From 1e103 on, building the unused fast-escape ladder leaked overflow
    # warnings, and from 1e155 on it raised OverflowError (exit 2).
    out_path = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv, "--fn", "sin_z3", "--escape-radius", radius, "--out", str(out_path))
    assert (code, err) == (0, "") and out_path.exists()


def test_grid_bound(capsys, tmp_path):
    out_path = tmp_path / "density.csv"
    code, out, _ = run(
        capsys,
        "grid-bound",
        "--fn",
        "sin_z3",
        "--r-lo",
        "10",
        "--r-hi",
        "20",
        "--count",
        "2",
        "--out",
        str(out_path),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["found"] >= 1
    assert all(v < 0 for v in rep["density_upper_log"])
    assert out_path.read_text().splitlines()[0].startswith("center_re,")


def test_grid_bound_empty_report_has_header(capsys, tmp_path):
    out_path = tmp_path / "g.csv"
    code, out, _ = run(
        capsys, "grid-bound", "--fn", "sin_z3", "--r-lo", "10", "--r-hi", "20", "--count", "0", "--out", str(out_path)
    )
    assert code == 0 and json.loads(out)["found"] == 0
    assert out_path.read_text().splitlines() == [
        "center_re,center_im,side,level,min_abs_z,max_abs_z,min_fprime_log,max_fprime_log,"
        "lipschitz_slack_log,meas_fS_lower_log,boundary_length_upper_log,band_measure_upper_log,"
        "e2_contrib,density_upper_log,asymptotic_bound"
    ]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--r-hi", "inf"),
        ("--r-hi", "nan"),
        ("--r-hi", "1e300"),  # the tile side bound overflows
        ("--alpha", "nan"),
        ("--alpha", "inf"),
        ("--alpha", "0"),
    ],
)
def test_grid_bound_rejects_bad_input(capsys, flag, value):
    args = {"--r-lo": "10", "--r-hi": "20", "--count": "1", flag: value}
    code, out, err = run(capsys, "grid-bound", "--fn", "sin_z3", *[x for kv in args.items() for x in kv])
    assert code == 1 and err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("r_hi", ["1e4", "1e5", "1e100"])
def test_grid_bound_refuses_tiles_finer_than_doubles(capsys, r_hi):
    # Far out the 33 x 33 derivative grid of a leaf collapses onto a few
    # doubles; at 1e100 it used to print a density bound read off overflowed
    # values, with exit 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "grid-bound", "--fn", "sin_z3", "--r-lo", "10", "--r-hi", r_hi, "--count", "2"
        )
    assert code == 1 and err.startswith("error:") and "finer than doubles" in err
    assert out == ""


@pytest.mark.parametrize(
    "args",
    [["--r-lo", "1e-300", "--r-hi", "2"], ["--r-lo", "5e-324", "--r-hi", "2"], ["--r-lo", "10", "--r-hi", "20", "--alpha", "1e300"]],
    ids=["r-lo-1e-300", "r-lo-subnormal", "alpha-1e300"],
)
def test_grid_bound_accepts_extreme_input(capsys, args):
    # These exited 2: |z|^(d-1) underflowed to 0 in the tile descent's skip
    # bound, and |z|^alpha overflowed in the asymptotic bound.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "grid-bound", "--fn", "sin_z3", *args, "--count", "2")
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["found"] >= 1
    if "--alpha" in args:
        assert rep["asymptotic_bound"] == [0.0] * rep["found"]


@pytest.mark.parametrize(
    "argv",
    [
        ["grid-bound", "--fn", "sin_z3", "--r-lo", "5e-324", "--r-hi", "1e-300", "--count", "2"],
        ["e2measure", "--fn", "sin_z3", "--r-min", "5e-324", "--r-max", "1e-300"],
    ],
    ids=["grid-bound", "e2measure"],
)
def test_tiny_annulus_exits_zero(capsys, argv):
    # Both exited 2: |z|^(d-1) underflowed to 0 in the side bounds of the
    # quadtree root, and the level-2 half-width of e2measure's resolution
    # check overflowed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)


@pytest.mark.parametrize("r_min, r_max", [("1e6", "2e6"), ("1e7", "2e7"), ("10", "inf"), ("1e60", "2e60")])
def test_e2measure_refuses_unresolved_spokes(capsys, r_min, r_max):
    # Out here the spokes are narrower than the doubles near their angles, so
    # edges bisected in absolute angle collapse: unrefused, nr 16 reads 81%
    # low at 1e6, 0.0 from 1e7 on, and NaN for an infinite r_max.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "e2measure", "--fn", "sin_z3", "--r-min", r_min, "--r-max", r_max, "--nr", "16"
        )
    assert code == 1 and err.startswith("error:")
    assert out == ""


def test_counterexample_json(capsys, tmp_path):
    out_path = tmp_path / "cx.json"
    code, out, _ = run(
        capsys,
        "counterexample",
        "--r0",
        "100",
        "--R",
        "1000",
        "--samples",
        "200",
        "--out",
        str(out_path),
    )
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["violations"] == 0
    assert rep["nonescape_fraction"] >= 0.99


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--R", "nan"),
        ("--R", "inf"),
        ("--R", "1e12"),
        ("--R", "1e300"),
        ("--r0", "nan"),
        ("--r0", "inf"),
        ("--eps", "nan"),
        ("--eps", "inf"),
    ],
)
def test_counterexample_rejects_non_finite_input(capsys, tmp_path, flag, value):
    # --R nan and --r0 nan used to print NaN fields, --R inf leaked
    # RuntimeWarnings and an IntegrationWarning, both with exit 0.  From
    # R ~ 7.8e4 on the wedge is narrower than the doubles near pi/2 resolve:
    # at 1e12 samples fell outside it and read as violations (exit 2), and
    # at 1e300 the evaluations overflowed.
    args = {"--r0": "100", "--R": "1000", "--samples": "20", flag: value}
    out_path = tmp_path / "cx.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "counterexample", *[x for kv in args.items() for x in kv], "--out", str(out_path)
        )
    assert code == 1 and err.startswith("error:")
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["grid-bound", "--fn", "sin_z3", "--r-lo", "10", "--r-hi", "20", "--count", "0", "--alpha", "nan"],
        ["render", "--fn", "sin_z3", "--px", "4", "--threads", "-3"],
        ["render", "--fn", "sin_z3", "--px", "4", "--max-iter", str(10**20)],
    ],
    ids=["grid-bound-alpha-nan", "render-threads-negative", "render-max-iter-over-int64"],
)
def test_input_checked_before_any_work(capsys, tmp_path, argv):
    # The first two used to exit 0: grid-bound read alpha only for a good
    # square it found, and render ran a thread count below 1 on one thread.
    # A max_iter beyond int64 used to fail in the engine (exit 2).
    out_path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1 and err.startswith("error:")
    assert out == "" and not out_path.exists()


# The numeric options of the commands swept below.  Each call sets one to
# three of them, a float option to one of _EDGES and a count to one of
# _COUNTS; the others take the value given here, where None leaves the
# command's default (--px and --samples never keep their large defaults).
_EDGES = [0.0, -1.0, math.nan, math.inf, 1e-300, 1e300, 5e-324]
_COUNTS = [0, -3, 1]
_COUNT_FLAGS = {"--samples", "--seed", "--max-iter", "--cert-steps", "--nr", "--ntheta", "--count", "--px", "--threads"}
_CLASSIFY = {"--alpha": None, "--escape-radius": None, "--max-iter": None, "--cert-steps": None}
_VIEW = {"--center-re": None, "--center-im": None, "--half": None, "--px": 8}
_SWEEP = {
    "annulus-scan": {"--r": 1.0, "--samples": 50, "--seed": None, **_CLASSIFY},
    "e2measure": {"--r-min": 10.0, "--r-max": 20.0, "--nr": None, "--ntheta": None},
    "grid-bound": {"--r-lo": 10.0, "--r-hi": 20.0, "--sigma": None, "--alpha": None, "--count": None},
    "counterexample": {"--r0": None, "--R": None, "--eps": None, "--samples": 50, "--seed": None},
    "render": {**_VIEW, **_CLASSIFY, "--threads": None},
    "exceptional": _VIEW,
}


@pytest.mark.parametrize("cmd", sorted(_SWEEP))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_numeric_options_exit_zero_or_one(cmd, data, tmp_path):
    # Every numeric input either runs or is refused with an error line: no
    # internal error (exit 2) and no leaked floating-point warning.  Exit 2
    # is the counterexample command's verdict on a violated bound.
    argv = [cmd, "--out", str(tmp_path / "out")] + ([] if cmd == "counterexample" else ["--fn", "sin_z3"])
    edge = data.draw(st.sets(st.sampled_from(sorted(_SWEEP[cmd])), min_size=1, max_size=3), label="edge options")
    for flag, value in _SWEEP[cmd].items():
        if flag in edge:
            value = data.draw(st.sampled_from(_COUNTS if flag in _COUNT_FLAGS else _EDGES), label=flag)
        argv += [] if value is None else [flag, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as leaked, contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    assert not [str(w.message) for w in leaked], argv
    if code == 1:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
    elif code == 2:
        assert cmd == "counterexample" and not err.getvalue(), (argv, err.getvalue())
        assert json.loads((tmp_path / "out").read_text())["violations"] > 0
    else:
        assert code == 0, (argv, code, err.getvalue())


@pytest.mark.parametrize("cmd", ["render", "exceptional"])
@pytest.mark.parametrize(
    "flag, value",
    [("--half", "nan"), ("--half", "inf"), ("--half", "1e308"), ("--center-re", "nan"), ("--center-im", "inf")],
)
def test_viewport_rejects_non_finite_input(capsys, tmp_path, cmd, flag, value):
    # A non-finite viewport, or one whose pixel spacing 2 half / px
    # overflows, used to give an image with exit 0: for exceptional
    # --center-im inf or --half 1e308 an all-white one, claiming no
    # exceptional points.
    out_path = tmp_path / "x.ppm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, cmd, "--fn", "sin_z3", "--px", "4", flag, value, "--out", str(out_path))
    assert code == 1 and err.startswith("error:")
    assert out == "" and not out_path.exists()


@pytest.fixture(scope="module")
def lemma_verify_run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lemma-verify"])
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("name", [name for name, _ in LEMMA_CHECKS])
def test_lemma_verify_passes(lemma_verify_run, name):
    assert f"PASS  {name}" in lemma_verify_run[1]


def test_lemma_verify_exits_zero(lemma_verify_run):
    code, lines = lemma_verify_run
    assert code == 0
    assert lines[-1] == f"{len(LEMMA_CHECKS)}/{len(LEMMA_CHECKS)} checks passed"
