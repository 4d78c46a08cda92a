"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Each test exercises a full pipeline at desk scale with explicit numeric
tolerances and a wall-clock budget.
"""

import math
import time

import numpy as np

from expdyn import (
    ClassifyParams,
    CounterexampleParams,
    Tiling,
    Viewport,
    annulus_scan,
    b_measure_closed_form,
    bundled_function,
    c1_constant,
    check_hypotheses,
    counterexample_check,
    dist_to_E1_measured,
    e2_measure,
    eval_log_batch,
    good_square_near,
    in_E_mask,
    render_classification,
    square_density_bound,
)
from expdyn.cli import LEMMA_CHECKS
from expdyn.grid import tile_side_ok


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_acceptance_1_hypothesis_checker(sin3, hemke, three_term, h_example, sinz):
    t0 = time.perf_counter()
    got = [
        check_hypotheses(sin3).verdict,
        check_hypotheses(hemke).verdict,
        check_hypotheses(three_term).verdict,
        check_hypotheses(h_example).verdict,
        (check_hypotheses(sinz).verdict, check_hypotheses(sinz).reason),
    ]
    want = ["Theorem1.3", "Theorem1.3", "Theorem1.1", "Fails", ("Fails", "RequiresD3")]
    elapsed = time.perf_counter() - t0
    ok = got == want and elapsed < 1.0
    _report(1, ok, f"verdicts {got} in {elapsed:.2f}s")


def test_acceptance_2_growth_outside_e1(cosh3):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 10_000
    pts = (20.0 + 30.0 * rng.random(n)) * np.exp(2j * math.pi * rng.random(n))
    keep = pts[~in_E_mask(cosh3, pts, 1)]
    logmod, _, zero = eval_log_batch(cosh3, keep)
    # A point flagged as a zero of f has no growth: it counts as a violation.
    violations = int(np.count_nonzero(zero | (logmod < np.abs(keep) ** 0.25)))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    _report(2, ok, f"{violations} growth violations on {len(keep)} points in {elapsed:.1f}s")


def test_acceptance_3_distance_lower_bound(cosh3):
    t0 = time.perf_counter()
    rng = np.random.default_rng(43)
    n = 1000
    pts = (50.0 + 150.0 * rng.random(n)) * np.exp(2j * math.pi * rng.random(n))
    pts = pts[~in_E_mask(cosh3, pts, 2)]
    c1 = c1_constant(cosh3)
    violations = 0
    for z in pts:
        bound = c1 * abs(z) ** -1.5
        d = dist_to_E1_measured(cosh3, complex(z), bound / 4.0, 4.0 * bound)
        if d < bound:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    _report(3, ok, f"{violations} distance violations on {len(pts)} points in {elapsed:.1f}s")


def test_acceptance_4_e2_finiteness_trend(cosh3):
    t0 = time.perf_counter()
    vals = [e2_measure(cosh3, 10.0 * 2**n, 10.0 * 2 ** (n + 1), 32, 2048) for n in range(4)]
    refined = e2_measure(cosh3, 10.0, 20.0, 64, 4096)
    elapsed = time.perf_counter() - t0
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    tail = vals[3] < 0.5 * vals[0]
    stable = abs(refined - vals[0]) < 0.05 * vals[0]
    ok = decreasing and tail and stable and elapsed < 60.0
    _report(
        4,
        ok,
        f"measures {[f'{v:.4f}' for v in vals]} refinement drift "
        f"{abs(refined - vals[0]) / vals[0]:.2%} in {elapsed:.1f}s",
    )


def test_acceptance_5_counterexample_wedge(h_example):
    t0 = time.perf_counter()
    rep = counterexample_check(
        CounterexampleParams(r0=100.0, eps=0.1, samples=2000), 10_000.0, f=h_example, seed=0
    )
    elapsed = time.perf_counter() - t0
    ok = (
        rep["violations"] == 0
        and rep["quadrature_rel_err"] < 0.01
        and rep["nonescape_fraction"] >= 0.99
        and elapsed < 60.0
    )
    _report(
        5,
        ok,
        f"{rep['violations']} bound violations, nonescape {rep['nonescape_fraction']:.3f}, "
        f"quadrature err {rep['quadrature_rel_err']:.2e} in {elapsed:.1f}s",
    )


def test_acceptance_6_finite_vs_infinite_contrast(sin3, h_example):
    t0 = time.perf_counter()
    rows = [annulus_scan(sin3, r, 100_000, seed=i) for i, r in enumerate((5.0, 10.0, 20.0))]
    worst = [rep.frac_nonescape + rep.frac_undetermined for rep in rows]
    sin3_ok = all(b < a for a, b in zip(worst, worst[1:])) and worst[-1] < 0.01
    wedge_ok = True
    for r in (100.0, 200.0, 400.0):
        rep = counterexample_check(
            CounterexampleParams(r0=r, samples=500), 2.0 * r, f=h_example, seed=1
        )
        increment = rep["nonescape_fraction"] * rep["b_measure_quadrature"]
        if increment < b_measure_closed_form(r, 2.0 * r) * (1.0 - 1e-2):
            wedge_ok = False
    elapsed = time.perf_counter() - t0
    ok = sin3_ok and wedge_ok and elapsed < 300.0
    _report(
        6,
        ok,
        f"worst-case fractions {[f'{w:.4f}' for w in worst]}, wedge increments held: "
        f"{wedge_ok}, in {elapsed:.0f}s",
    )


def test_acceptance_7_figure_reproduction():
    v = Viewport.square(0j, 4.0, 800)
    images = {}
    times = {}
    for name in ("sin_z", "sin_z2", "sin_z3"):
        f = bundled_function(name)
        t0 = time.perf_counter()
        images[name] = render_classification(f, v, ClassifyParams(), threads=4)
        times[name] = time.perf_counter() - t0
    px3 = images["sin_z3"].pixels
    sym = np.array_equal(px3, px3[::-1, ::-1]) and np.array_equal(px3, px3[::-1, :])
    black = np.all(images["sin_z"].pixels == 0, axis=-1)
    strips = bool(black.any(axis=0).all())
    fast = all(t < 120.0 for t in times.values())
    ok = sym and strips and fast
    _report(
        7,
        ok,
        f"render times {[f'{t:.0f}s' for t in times.values()]}, symmetry {sym}, "
        f"non-escape in every column {strips}",
    )


def test_acceptance_8_grid_construction(cosh3):
    tiling = Tiling(cosh3, 10.0, 45.0)
    rng = np.random.default_rng(44)
    pts = (10.0 + 35.0 * rng.random(400)) * np.exp(2j * math.pi * rng.random(400))
    violations = 0
    for z in pts:
        t = tiling.tile_at(complex(z))
        in_cell = t.x0 <= z.real < t.x1 and t.y0 <= z.imag < t.y1
        if not in_cell or not tile_side_ok(t, cosh3.d, tiling.sigma):
            violations += 1
    logs = []
    count = 0
    for r in (10.5, 15.0, 20.0, 30.0, 40.0):
        tile = good_square_near(tiling, r)
        if tile is None:
            continue
        (rep,) = square_density_bound(cosh3, [tile], 0.25)
        logs.append(rep.density_upper_log)
        count += 1
        neighbor = good_square_near(tiling, r * 1.01)
        if neighbor is not None:
            logs2 = square_density_bound(cosh3, [neighbor], 0.25)[0].density_upper_log
            count += 1
            in_unit = math.isfinite(logs2) and logs2 < 0.0
            violations += 0 if in_unit else 1
    in_unit_all = all(math.isfinite(v) and v < 0.0 for v in logs)
    trend = all(b <= a for a, b in zip(logs, logs[1:]))
    ok = violations == 0 and count >= 10 and in_unit_all and trend
    _report(
        8,
        ok,
        f"{violations} tiling violations, {count} density reports, bounds in (0,1) "
        f"{in_unit_all}, non-increasing {trend}",
    )


def test_acceptance_9_oracle_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(45)
    failed = [name for name, check in LEMMA_CHECKS if not check(rng)]
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed < 5.0
    _report(
        9,
        ok,
        f"{len(LEMMA_CHECKS) - len(failed)}/{len(LEMMA_CHECKS)} lemma-verify checks hold "
        f"(failed: {failed}) in {elapsed:.1f}s",
    )
