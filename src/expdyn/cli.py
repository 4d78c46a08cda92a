"""Command-line entry point.

Subcommands wire the library modules to files: `check` prints a hypothesis
report, `render`/`exceptional` write PPM images, `e2measure`, `annulus-scan`,
`grid-bound`, and `counterexample` emit numeric reports, and `lemma-verify`
runs the cross-module invariant checks of LEMMA_CHECKS, the same checks as
acceptance 9 of the test suite.  Exit codes: 0 success; 1 with one `error:`
line on a ValueError (every refusal), OSError or MemoryError; 2 on any other
exception, a counterexample violation or a failed lemma-verify check.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .exceptional import E2_COLUMNS, e2_measure, in_E_mask
from .funcs import (
    ExpPoly,
    ExpPolyTerm,
    _check_alpha,
    _eval_log_parts,
    bundled_function,
    check_hypotheses,
    eval_direct,
    eval_log_batch,
    load_function,
)
from .grid import (
    DENSITY_COLUMNS,
    Tiling,
    good_square_near,
    square_density_bound,
    tile_side_ok,
)
from .measure import (
    CounterexampleParams,
    annulus_scan,
    b_measure_closed_form,
    b_measure_quadrature,
    counterexample_check,
)
from .orbits import ClassifyParams, classify_batch
from .poly import Poly
from .raster import Viewport, render_classification, render_exceptional, write_ppm
from .report import write_csv, write_json

BUNDLED = ("sin_z", "sin_z2", "sin_z3", "example_h")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _load_fn(args) -> ExpPoly:
    if args.fn in BUNDLED:
        return bundled_function(args.fn)
    return load_function(args.fn)


def _add_fn(p):
    p.add_argument(
        "--fn",
        required=True,
        help=f"function definition: a JSON path or one of {', '.join(BUNDLED)}",
    )


def _add_classify(p):
    p.add_argument("--alpha", type=float, default=ClassifyParams.alpha, help="growth exponent for escape certification")
    p.add_argument(
        "--escape-radius",
        type=float,
        default=ClassifyParams.escape_radius,
        help="radius a certified-escape step must exceed",
    )
    p.add_argument("--max-iter", type=int, default=ClassifyParams.max_iter, help="iteration budget per orbit")
    p.add_argument(
        "--cert-steps",
        type=int,
        default=ClassifyParams.cert_steps,
        help="consecutive certified steps required for escape",
    )


def _classify_params(args) -> ClassifyParams:
    return ClassifyParams(**{f.name: getattr(args, f.name) for f in fields(ClassifyParams)})


def _add_viewport(p):
    p.add_argument("--center-re", type=float, default=0.0, help="viewport center, real part")
    p.add_argument("--center-im", type=float, default=0.0, help="viewport center, imaginary part")
    p.add_argument("--half", type=float, default=4.0, help="half side of the square viewport")
    p.add_argument("--px", type=int, default=800, help="image side in pixels")


def _viewport(args) -> Viewport:
    return Viewport.square(complex(args.center_re, args.center_im), args.half, args.px)


def _usable_cpus() -> int:
    """CPUs this process may run on; os.cpu_count() where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no state
    in it, and `--threads` reads the usable CPUs when it is built."""
    p = _Parser(prog="expdyn", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check", help="report which growth theorem the function satisfies")
    _add_fn(sp)
    sp.add_argument("--out", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("render", help="render the orbit classification to a PPM image")
    _add_fn(sp)
    sp.add_argument("--out", required=True, help="output PPM path")
    _add_viewport(sp)
    _add_classify(sp)
    sp.add_argument("--threads", type=int, default=_usable_cpus(), help="worker threads (result-independent)")

    sp = sub.add_parser("exceptional", help="render the level-1/level-2 exceptional sets")
    _add_fn(sp)
    sp.add_argument("--out", required=True, help="output PPM path")
    _add_viewport(sp)

    sp = sub.add_parser("e2measure", help="estimate the level-2 set measure on an annulus")
    _add_fn(sp)
    sp.add_argument("--r-min", type=float, required=True)
    sp.add_argument("--r-max", type=float, required=True)
    sp.add_argument("--nr", type=int, default=64, help="radial grid count")
    sp.add_argument("--ntheta", type=int, default=4096, help="angular grid count")
    sp.add_argument("--out", help="optional CSV output path")

    sp = sub.add_parser("annulus-scan", help="classification fractions over ann(r) = {r <= |z| <= 2r}")
    _add_fn(sp)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--samples", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0, help="low-discrepancy scramble seed")
    _add_classify(sp)
    sp.add_argument("--out", help="optional CSV output path")

    sp = sub.add_parser("grid-bound", help="density reports for good squares on an annulus")
    _add_fn(sp)
    sp.add_argument("--r-lo", type=float, required=True)
    sp.add_argument("--r-hi", type=float, required=True)
    sp.add_argument("--sigma", type=float, help="square-scale parameter; default 1/(8 d max|b|)")
    sp.add_argument("--alpha", type=float, default=ClassifyParams.alpha)
    sp.add_argument("--count", type=int, default=5, help="number of radii to probe")
    sp.add_argument("--out", help="optional CSV output path")

    sp = sub.add_parser("counterexample", help="slow-wedge bound checks and classification")
    sp.add_argument("--fn", default="example_h", help="function definition (default: the bundled slow-wedge example)")
    sp.add_argument("--r0", type=float, default=CounterexampleParams.r0)
    sp.add_argument("--R", type=float, default=10000.0)
    sp.add_argument("--samples", type=int, default=CounterexampleParams.samples)
    sp.add_argument("--eps", type=float, default=CounterexampleParams.eps)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("lemma-verify", help="run the cross-module invariant suite")
    sp.add_argument("--seed", type=int, default=0)

    return p


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_check(args) -> int:
    f = _load_fn(args)
    write_json(args.out, asdict(check_hypotheses(f)))
    return 0


def _cmd_render(args) -> int:
    f = _load_fn(args)
    img = render_classification(f, _viewport(args), _classify_params(args), threads=args.threads)
    write_ppm(img, args.out)
    return 0


def _cmd_exceptional(args) -> int:
    f = _load_fn(args)
    img = render_exceptional(f, _viewport(args))
    write_ppm(img, args.out)
    return 0


def _cmd_e2measure(args) -> int:
    f = _load_fn(args)
    val = e2_measure(f, args.r_min, args.r_max, args.nr, args.ntheta)
    if args.out:
        row = (args.r_min, args.r_max, args.nr, args.ntheta, val)
        write_csv(args.out, E2_COLUMNS, [row])
    write_json(None, {"r_min": args.r_min, "r_max": args.r_max, "measure": val})
    return 0


def _cmd_annulus_scan(args) -> int:
    f = _load_fn(args)
    row = asdict(annulus_scan(f, args.r, args.samples, _classify_params(args), seed=args.seed))
    if args.out:
        write_csv(args.out, list(row), [list(row.values())])
    write_json(None, row)
    return 0


def _cmd_grid_bound(args) -> int:
    _check_alpha(args.alpha)
    f = _load_fn(args)
    tiling = Tiling(f, args.r_lo, args.r_hi, args.sigma)
    radii = np.geomspace(args.r_lo * 1.02, args.r_hi * 0.98, args.count)
    tiles = [good_square_near(tiling, float(r)) for r in radii]
    reports = square_density_bound(f, [t for t in tiles if t is not None], args.alpha)
    if args.out:
        write_csv(args.out, DENSITY_COLUMNS, [[getattr(rep, c) for c in DENSITY_COLUMNS] for rep in reports])
    write_json(
        None,
        {
            "requested": args.count,
            "found": len(reports),
            "density_upper_log": [rep.density_upper_log for rep in reports],
            "asymptotic_bound": [rep.asymptotic_bound for rep in reports],
        },
    )
    return 0


def _cmd_counterexample(args) -> int:
    params = CounterexampleParams(r0=args.r0, eps=args.eps, samples=args.samples)
    f = _load_fn(args)
    rep = counterexample_check(params, args.R, f, seed=args.seed)
    write_json(args.out, rep)
    return 0 if rep["violations"] == 0 else 2


def _cosh3() -> ExpPoly:
    """e^{z^3} + e^{-z^3}, the two-term d = 3 function of the oracle checks."""
    return ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)])


def _disc_points(rng, n: int) -> np.ndarray:
    """n points uniform in the disc |z| < 2."""
    return 2.0 * np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))


def _log_matches_direct(rng) -> bool:
    """At 1000 points of |z| < 2, log-domain evaluation of cosh3 and sin_z3
    matches direct arithmetic to 1e-9 relative (1e-21 absolute near a zero);
    it may flag a point as a zero only where |f| < 1e-9."""
    pts = _disc_points(rng, 1000)
    for f in (_cosh3(), bundled_function("sin_z3")):
        direct = np.array([eval_direct(f, complex(z)) for z in pts])
        logmod, phase, zero = eval_log_batch(f, pts)
        if np.any(np.abs(direct[zero]) >= 1e-9):
            return False
        value = np.exp(logmod[~zero] + 1j * phase[~zero])
        if np.any(np.abs(value - direct[~zero]) > 1e-9 * np.maximum(np.abs(direct[~zero]), 1e-12)):
            return False
    return True


def _deriv_matches_difference(rng) -> bool:
    """At 100 points of |z| < 2, the log-domain f' of cosh3 matches a central
    difference with h = 1e-6 to 1e-6 relative plus 1e-9, wherever that
    difference is at least 1e-3."""
    f, h = _cosh3(), 1e-6
    pts = _disc_points(rng, 100)
    diff = np.array([(eval_direct(f, complex(z) + h) - eval_direct(f, complex(z) - h)) / (2 * h) for z in pts])
    logmod, phase, zero = eval_log_batch(f, pts, 1)
    big = np.abs(diff) >= 1e-3
    if np.any(zero & big):
        return False
    deriv, diff = np.exp(logmod[big] + 1j * phase[big]), diff[big]
    return bool(np.all(np.abs(deriv - diff) <= 1e-6 * np.abs(diff) + 1e-9))


def _grows_on_spine(rng) -> bool:
    """At 64 points x + 0.05i, x in [12, 40], next to the real axis,
    log|sin_z3| >= |z|^(1/4) with no zero flag, and log|sin_z3| is at least
    log sinh|Im z^3| to 1e-12 relative: |sin w| >= sinh|Im w| in closed form."""
    z = 12.0 + 28.0 * rng.random(64) + 0.05j
    logmod, zero = _eval_log_parts(bundled_function("sin_z3"), z)[:2]
    floor = np.log(np.sinh(np.abs((z**3).imag)))
    return bool(not zero.any() and np.all(logmod >= np.abs(z) ** 0.25) and np.all(logmod >= floor * (1.0 - 1e-12)))


def _e1_in_e2(rng) -> bool:
    pts = 10.0 * np.exp(1j * rng.random(64) * 2 * math.pi) * (1 + rng.random(64))
    f3 = bundled_function("sin_z3")
    return bool(np.all(~in_E_mask(f3, pts, 1) | in_E_mask(f3, pts, 2)))


def _sign_symmetric(rng) -> bool:
    """At 256 points with |z| in [1, 40] and uniform angle, sin_z3 classifies
    z, -z, conj z and -conj z with the same tag after the same steps."""
    z = (1.0 + 39.0 * rng.random(256)) * np.exp(2j * math.pi * rng.random(256))
    res = classify_batch(bundled_function("sin_z3"), np.concatenate([z, -z, z.conj(), -z.conj()]))
    return all(np.all(res[k].reshape(4, -1) == res[k][: z.size]) for k in ("tag_code", "steps"))


def _tiles_satisfy_side_bounds(rng) -> bool:
    f3 = bundled_function("sin_z3")
    tiling = Tiling(f3, 10.0, 20.0)
    pts = 10.0 * (1 + rng.random(32)) * np.exp(1j * rng.random(32) * 2 * math.pi)
    return all(tile_side_ok(tiling.tile_at(z), f3.d, tiling.sigma) for z in pts)


def _wedge_quadrature(rng) -> bool:
    closed = b_measure_closed_form(math.e**2, math.e**8)
    return abs(b_measure_quadrature(math.e**2, math.e**8) - closed) < 1e-6 * closed


# The invariants lemma-verify checks, as (name, check): a check draws what it
# samples from the numpy Generator it is given and returns whether the
# invariant holds.  The test suite's acceptance 9 runs the same list.
LEMMA_CHECKS = (
    ("log-domain evaluation matches direct arithmetic", _log_matches_direct),
    ("log-domain derivative matches a central difference", _deriv_matches_difference),
    ("growth along the real spine", _grows_on_spine),
    ("level-1 set contained in level-2 set", _e1_in_e2),
    ("classification is sign-symmetric", _sign_symmetric),
    ("sampled tiles satisfy the side bounds", _tiles_satisfy_side_bounds),
    ("wedge quadrature matches the closed form", _wedge_quadrature),
)


def _cmd_lemma_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    for name, check in LEMMA_CHECKS:
        ok = bool(check(rng))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += not ok
    print(f"{len(LEMMA_CHECKS) - failures}/{len(LEMMA_CHECKS)} checks passed")
    return 0 if failures == 0 else 2


_COMMANDS = {
    "check": _cmd_check,
    "render": _cmd_render,
    "exceptional": _cmd_exceptional,
    "e2measure": _cmd_e2measure,
    "annulus-scan": _cmd_annulus_scan,
    "grid-bound": _cmd_grid_bound,
    "counterexample": _cmd_counterexample,
    "lemma-verify": _cmd_lemma_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.cmd](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
