import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from expdyn.cli import LEMMA_CHECKS, build_parser, main


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
    ],
)
def test_malformed_function_file_exits_one(capsys, tmp_path, definition):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(definition))
    code, out, err = run(capsys, "check", "--fn", str(path))
    assert code == 1 and err.startswith("error:")
    assert out == ""


_SRC = Path(__file__).resolve().parents[1] / "src"

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_parser_builds():
    assert build_parser().prog == "expdyn"


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
