"""The benchmark's workloads, their operations and the checks on their outputs.

Every operation is one in-process call of the `expdyn` command line
(`expdyn.cli.main`), as a user would type it.  Scramble seeds and rotation
angles come from the workload seed; the library sees only the generated
arguments and function files.

Why these workloads:

* ``bounded``: the `sin_z` figure and `sin_z` annulus scans at r = 1.  About
  half the pixels and most scan samples are bounded and run the whole
  512-step budget, so direct-mode orbit stepping carries the time.  A
  bounded-orbit early exit shows its gain here.
* ``escape``: the `sin_z3` and `sin_z2` figures and `sin_z3` scans at growing
  radii, where orbits certify within a few steps or land on 0.  Time goes to
  tower promotion, level-1 membership, the fast-escape ladder and Halton
  sampling; a bounded-orbit early exit must not move it.  The far annulus at
  r = 1e120 exposes the overflow defect.
* ``geometry``: level-2 measures and grid density bounds; no orbits run.
  Time goes to spoke-edge bisection, quadtree descent, the ring search and
  derivative evaluation.  Unrotated `sin_z3` on [10, 20] exposes the
  theta = 0 wrap defect.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from expdyn import (
    ClassifyParams,
    Viewport,
    bundled_function,
    classify_batch,
    e2_measure,
    function_from_dict,
    function_to_dict,
    read_ppm,
)
from scipy.stats import qmc

DEFAULT_SEED = 0
WORKLOADS = ("bounded", "escape", "geometry")

BOUNDED_PX = 96
BOUNDED_SCANS = 2
BOUNDED_SAMPLES = 2000
ESCAPE_PX = 800
ESCAPE_RADII = ("5", "10", "20", "40")
FAR_RADIUS = "1e120"
GRID_PROBES = "300"
E2_GRID = ("64", "4096")  # nr, ntheta: the command-line defaults

# Samples drawn for the symmetry oracle, per render or scan.
SYMMETRY_SAMPLES = 256
# Generic rotations agree to about 1e-13; the wrap defect is off by 4e-2.
ROTATION_RTOL = 1e-9
# Spokes of sin_z3 sit at k pi/3 and those of example_h at pi/6 + k pi/3.  A
# generic rotation keeps every spoke at least this far from theta = 0.
SPOKE_OFFSET = {"sin_z3": 0.0, "example_h": math.pi / 6}
SPOKE_CLEARANCE = 0.2


@dataclass
class Op:
    """One command-line call and what its output is checked against."""

    id: str
    entry: str  # render | scan | e2measure | gridbound
    argv: list
    out: Path
    check: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _scramble(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _generic_rotation(rng, fn: str) -> float:
    """An angle that leaves every spoke of fn clear of theta = 0."""
    u = float(rng.random())
    return SPOKE_OFFSET[fn] - (SPOKE_CLEARANCE + u * (math.pi / 3 - 2 * SPOKE_CLEARANCE))


def rotated_function(name: str, phi: float):
    """The bundled function composed with z -> e^{i phi} z."""
    data = function_to_dict(bundled_function(name))
    u = cmath.exp(1j * phi)

    def turn(coeffs):
        return [[(complex(a, b) * u**k).real, (complex(a, b) * u**k).imag] for k, (a, b) in enumerate(coeffs)]

    for term in data["terms"]:
        term["Q"] = turn(term["Q"])
        term["P"] = turn(term["P"])
        b = complex(*term["b"]) * u ** data["d"]
        term["b"] = [b.real, b.imag]
    return data


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The operations of one pass, in order."""
    rng = _rng(workload, seed)
    ops = []

    def render(fn, px):
        out = work / f"render-{fn}-{px}.ppm"
        argv = ["render", "--fn", fn, "--out", str(out), "--px", str(px), "--half", "4", "--threads", "1"]
        ops.append(Op(f"render:{fn}@{px}", "render", argv, out, {"fn": fn, "px": px, "half": 4.0}))

    def scan(fn, r, samples, far=False):
        scramble = _scramble(rng)
        out = work / f"scan-{fn}-{r}-{len(ops)}.csv"
        argv = ["annulus-scan", "--fn", fn, "--r", r, "--samples", str(samples), "--seed", str(scramble), "--out", str(out)]
        check = {"fn": fn, "r": float(r), "samples": samples, "seed": scramble, "far": far}
        ops.append(Op(f"scan:{fn}@{r}#{len(ops)}", "scan", argv, out, check))

    def e2measure(fn, lo, hi, phi=None):
        fn_arg = fn
        if phi is not None:
            fn_arg = str(work / f"{fn}-rot.json")
            Path(fn_arg).write_text(json.dumps(rotated_function(fn, phi)), encoding="utf-8")
        out = work / f"e2-{fn}-{lo}-{hi}{'-rot' if phi is not None else ''}.csv"
        argv = ["e2measure", "--fn", fn_arg, "--r-min", lo, "--r-max", hi, "--nr", E2_GRID[0], "--ntheta", E2_GRID[1], "--out", str(out)]
        op_id = f"e2measure:{fn}@[{lo},{hi}]" + (f"rot{phi:.6f}" if phi is not None else "")
        # The reference is the same measure of the function under another
        # generic rotation, computed outside the timed region.
        check = {"fn": fn, "lo": float(lo), "hi": float(hi), "ref_phi": _generic_rotation(rng, fn)}
        ops.append(Op(op_id, "e2measure", argv, out, check))

    def gridbound(fn, lo, hi):
        out = work / f"grid-{fn}-{lo}-{hi}.csv"
        argv = ["grid-bound", "--fn", fn, "--r-lo", lo, "--r-hi", hi, "--count", GRID_PROBES, "--out", str(out)]
        ops.append(Op(f"gridbound:{fn}@[{lo},{hi}]", "gridbound", argv, out, {"count": int(GRID_PROBES)}))

    if workload == "bounded":
        render("sin_z", BOUNDED_PX)
        for _ in range(BOUNDED_SCANS):
            scan("sin_z", "1", BOUNDED_SAMPLES)
    elif workload == "escape":
        render("sin_z3", ESCAPE_PX)
        render("sin_z2", ESCAPE_PX)
        for r in ESCAPE_RADII:
            scan("sin_z3", r, 20000)
        scan("sin_z3", FAR_RADIUS, 20000, far=True)
    elif workload == "geometry":
        for fn in ("sin_z3", "example_h"):
            for lo, hi in (("10", "20"), ("20", "40")):
                e2measure(fn, lo, hi)
        e2measure("sin_z3", "10", "20", phi=_generic_rotation(rng, "sin_z3"))
        gridbound("sin_z3", "10", "20")
        gridbound("sin_z3", "100", "200")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# Outputs


def collect(op: Op, rc: int, stdout: str) -> dict:
    """What an operation produced: exit code, printed report, output file."""
    data = op.out.read_bytes() if rc == 0 and op.out.exists() else b""
    return {"rc": rc, "stdout": stdout, "sha256": hashlib.sha256(data).hexdigest()}


def _classes(pixels: np.ndarray) -> np.ndarray:
    """Per-pixel class from the palette: 0 escape, 1 non-escape, 2 undetermined."""
    px = pixels.astype(np.int32)
    black = (px == 0).all(axis=2)
    red = (px[..., 0] == 255) & (px[..., 1] == 0) & (px[..., 2] == 0)
    return np.where(black, 1, np.where(red, 2, 0))


def render_classes(path: Path) -> np.ndarray:
    return _classes(read_ppm(path).pixels)


def render_fingerprint(path: Path) -> dict:
    """Class counts and the sha256 of the pixel payload (the PPM without its header)."""
    img = read_ppm(path)
    cls = _classes(img.pixels)
    return {
        "escape": int(np.count_nonzero(cls == 0)),
        "nonescape": int(np.count_nonzero(cls == 1)),
        "undetermined": int(np.count_nonzero(cls == 2)),
        "pixels_sha256": hashlib.sha256(img.data).hexdigest(),
    }


def scan_row(output: dict) -> dict:
    return json.loads(output["stdout"])


# ---------------------------------------------------------------------------
# Independent oracles, run outside the timed region


_TAG_CODE = {"EscapeCertified": 0, "NonEscapeObserved": 1, "Undetermined": 2}


def _tag_codes(f, pts) -> np.ndarray:
    res = classify_batch(f, pts, ClassifyParams())
    return np.array([_TAG_CODE[t] for t in res["tag"]])


def _symmetric_images(z):
    return [-z, z.conjugate(), -z.conjugate()]


def oracle(op: Op, output: dict, rng: np.random.Generator) -> list[str]:
    """Problems found by checks that do not trust the operation's own code path."""
    if output["rc"] != 0:
        return [f"exit code {output['rc']}"]
    c = op.check
    problems = []
    if op.entry == "render":
        # Every bundled figure function satisfies f(conj z) = conj f(z) and
        # f(-z) = +-f(z), so the tag of each pixel must recur at -z, conj z
        # and -conj z, classified here directly rather than through render.
        cls = render_classes(op.out).ravel()
        pts = Viewport.square(0j, c["half"], c["px"]).all_points().ravel()
        idx = rng.choice(pts.size, SYMMETRY_SAMPLES, replace=False)
        tags = _tag_codes(bundled_function(c["fn"]), np.concatenate(_symmetric_images(pts[idx])))
        bad = int(np.count_nonzero(tags.reshape(3, -1) != cls[idx][None, :]))
        if bad:
            problems.append(f"{bad} symmetric pixel images disagree with the rendered tag")
    elif op.entry == "scan":
        row = scan_row(output)
        total = row["frac_escape"] + row["frac_nonescape"] + row["frac_undetermined"]
        if abs(total - 1.0) > 1e-12:
            problems.append(f"class fractions sum to {total!r}")
        u = qmc.Halton(d=2, scramble=True, seed=c["seed"]).random(c["samples"])
        z = c["r"] * np.sqrt(1.0 + 3.0 * u[:, 0]) * np.exp(2j * math.pi * u[:, 1])
        z = z[rng.choice(z.size, SYMMETRY_SAMPLES, replace=False)]
        tags = _tag_codes(bundled_function(c["fn"]), np.concatenate([z] + _symmetric_images(z))).reshape(4, -1)
        bad = int(np.count_nonzero(tags[1:] != tags[0][None, :]))
        if bad:
            problems.append(f"{bad} symmetric sample images disagree in tag")
        if c["far"] and row["frac_nonescape"] > 0:
            # Off spokes far thinner than the sample spacing |f| is about
            # exp(|z|^3) there; z^3 overflows doubles, and a bounded verdict
            # can only come from reading that overflow as zero.
            problems.append(f"far annulus tagged NonEscapeObserved at fraction {row['frac_nonescape']}")
    elif op.entry == "e2measure":
        got = json.loads(output["stdout"])["measure"]
        ref_fn = function_from_dict(rotated_function(c["fn"], c["ref_phi"]))
        ref = float(e2_measure(ref_fn, c["lo"], c["hi"], int(E2_GRID[0]), int(E2_GRID[1])))
        if not abs(got - ref) <= ROTATION_RTOL * abs(ref):
            problems.append(f"measure {got!r} differs from rotation reference {ref!r}")
    elif op.entry == "gridbound":
        rep = json.loads(output["stdout"])
        if rep["found"] != c["count"]:
            problems.append(f"{rep['found']} of {c['count']} probe radii found a good square")
        if not all(math.isfinite(v) and v < 0.0 for v in rep["density_upper_log"]):
            problems.append("a density bound is not a finite value below 1")
        if not all(0.0 < v <= 1.0 for v in rep["asymptotic_bound"]):
            problems.append("an asymptotic bound is outside (0, 1]")
    return problems
