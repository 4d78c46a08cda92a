import cmath
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from expdyn import (
    ExpPoly,
    ExpPolyTerm,
    Poly,
    SquareTile,
    Tiling,
    bundled_function,
    default_sigma,
    good_square_near,
    is_good_square,
    square_density_bound,
)
from expdyn import exceptional, funcs, grid
from expdyn.funcs import eval_log_batch
from expdyn.grid import DENSITY_COLUMNS, side_bounds, tile_side_ok


# ---------------------------------------------------------------------------
# Tiles


def _in_cell(t, z):
    """Half-open membership, the convention of the quadtree descent."""
    return t.x0 <= z.real < t.x1 and t.y0 <= z.imag < t.y1


def test_square_tile_geometry():
    t = SquareTile(3 + 4j, 2.0, 5)
    assert (t.x0, t.x1, t.y0, t.y1) == (2.0, 4.0, 3.0, 5.0)
    assert t.min_abs_z() == pytest.approx(math.hypot(2.0, 3.0))
    assert t.max_abs_z() == pytest.approx(math.hypot(4.0, 5.0))
    assert _in_cell(t, 3 + 4j)
    assert _in_cell(t, 2 + 3j) and not _in_cell(t, 4 + 5j)  # half-open


def test_origin_tile_distances():
    t = SquareTile(0j, 2.0, 0)
    assert t.min_abs_z() == 0.0
    assert t.max_abs_z() == pytest.approx(math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Sigma and side bounds


def test_default_sigma_below_limit(cosh3):
    s = default_sigma(cosh3)
    assert 0 < s < 1.0 / (4.0 * cosh3.d * cosh3.max_abs_b)
    assert s == pytest.approx(1.0 / 24.0)


def test_bad_sigma_rejected(cosh3):
    with pytest.raises(ValueError, match=r"sigma=.* outside \(0, "):
        Tiling(cosh3, 10.0, 20.0, sigma=0.5)
    with pytest.raises(ValueError, match=r"sigma=.* outside \(0, "):
        Tiling(cosh3, 10.0, 20.0, sigma=-0.1)
    with pytest.raises(ValueError):
        Tiling(cosh3, 20.0, 10.0)
    for r_hi in (math.inf, math.nan, 1e300):  # 1e300: the side bound overflows
        with pytest.raises(ValueError):
            Tiling(cosh3, 10.0, r_hi)


def test_side_bound_magnitudes(cosh3):
    # sigma = 1/24, d = 3: at |z| between 10 and 20 the admissible side lies
    # roughly between sigma/(4 sqrt2 * 100) and sigma/(sqrt2 * 400).
    tiling = Tiling(cosh3, 10.0, 20.0)
    t = tiling.tile_at(15.0 + 0.0j)
    lo, hi = side_bounds(t, 3, tiling.sigma)
    assert 1.0e-5 < lo < 1.0e-3
    assert lo <= t.side <= hi


def test_tile_at_partition_and_invariant(cosh3):
    tiling = Tiling(cosh3, 10.0, 20.0)
    rng = np.random.default_rng(1)
    pts = (10.0 + 10.0 * rng.random(10_000)) * np.exp(
        2j * math.pi * rng.random(10_000)
    )
    for z in pts:
        t = tiling.tile_at(complex(z))
        assert _in_cell(t, complex(z))
        assert tile_side_ok(t, cosh3.d, tiling.sigma)
    with pytest.raises(ValueError):
        tiling.tile_at(1.0)


def test_tiling_refuses_tiles_finer_than_doubles(sin3):
    # For sin_z3 the grid of the leaf at r_hi is spaced at least
    # 64 ulp(r_hi) while r_hi < 4096.
    Tiling(sin3, 10.0, 1e3)
    Tiling(sin3, 10.0, 4000.0)
    for r_hi in (1e4, 1e5, 1e100):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finer than doubles"):
                Tiling(sin3, 10.0, r_hi)


@settings(max_examples=60, deadline=None)
@given(
    r_hi=st.floats(20.0, 4095.0),
    u=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_tile_at_contains_z_up_to_the_limit(sin3, r_hi, u, theta):
    z = (10.0 + u * (r_hi - 10.0)) * cmath.exp(1j * theta)
    assume(10.0 <= abs(z) <= r_hi)
    assert _in_cell(Tiling(sin3, 10.0, r_hi).tile_at(z), z)


@pytest.mark.parametrize("r_hi", [2.0, 8.0, 16.0, 2048.0])
def test_root_strictly_contains_a_power_of_two_annulus(sin3, r_hi):
    # The half-open root square must hold the points of |z| = r_hi on the
    # axes, so its half-side is the next power of two above r_hi.
    tiling = Tiling(sin3, r_hi / 2.0, r_hi)
    assert tiling.root.side == 4.0 * r_hi
    for z in (r_hi, -r_hi, 1j * r_hi, -1j * r_hi):
        assert _in_cell(tiling.tile_at(z), complex(z))


def test_tile_at_sign_of_a_subnormal_coordinate():
    # For f = exp(z / 100) the descent skips to side 32, where -5e-324 / 32
    # underflows to -0.0: a floor of it would place the point right of 0.
    tiling = Tiling(ExpPoly(1, [ExpPolyTerm(Poly([1]), 0.01 + 0j)]), 100.0, 200.0)
    for x, y in ((-5e-324, 150.0), (5e-324, -150.0), (150.0, -5e-324), (-0.0, 150.0)):
        z = complex(x, y)
        t = tiling.tile_at(z)
        assert _in_cell(t, z) and t == _reference_tile_at(tiling, z)


def _reference_tile_at(tiling, z):
    """The quadtree descent built from SquareTile objects: the reference for tile_at."""
    t = tiling.root
    while t.side > tiling.sigma / (math.sqrt(2.0) * t.max_abs_z() ** (tiling.f.d - 1)):
        q = t.side / 4.0
        sx = 1 if z.real >= t.center.real else -1
        sy = 1 if z.imag >= t.center.imag else -1
        t = SquareTile(t.center + complex(sx * q, sy * q), t.side / 2.0, t.level + 1)
    return t


_TILINGS = {}


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(
        [("sin_z3", 10.0, 20.0), ("sin_z3", 100.0, 200.0), ("example_h", 10.0, 4000.0), ("sin_z", 1e-3, 2.0)]
    ),
    u=st.floats(0.0, 1.0),
    theta=st.floats(-math.pi, math.pi),
)
def test_tile_at_matches_reference_descent(case, u, theta):
    if case not in _TILINGS:
        name, lo, hi = case
        _TILINGS[case] = Tiling(bundled_function(name), lo, hi)
    tiling = _TILINGS[case]
    z = (tiling.r_lo + u * (tiling.r_hi - tiling.r_lo)) * cmath.exp(1j * theta)
    assume(tiling.r_lo <= abs(z) <= tiling.r_hi)
    assert tiling.tile_at(z) == _reference_tile_at(tiling, z)


def test_tile_at_deterministic_and_disjoint(cosh3):
    tiling = Tiling(cosh3, 10.0, 20.0)
    rng = np.random.default_rng(2)
    pts = (10.0 + 10.0 * rng.random(1000)) * np.exp(2j * math.pi * rng.random(1000))
    for z in pts:
        a = tiling.tile_at(complex(z))
        b = tiling.tile_at(complex(z))
        assert a == b
    # two distinct leaves never overlap: same level means same dyadic lattice
    seen = {}
    for z in pts:
        t = tiling.tile_at(complex(z))
        key = (t.level, t.center)
        if key in seen:
            assert seen[key] == t
        seen[key] = t


# ---------------------------------------------------------------------------
# Good squares


def test_good_square_on_real_axis(cosh3):
    # the real axis is far from the arg = pi/6 spokes
    tiling = Tiling(cosh3, 10.0, 20.0)
    t = tiling.tile_at(15.0 + 0.0j)
    assert is_good_square(cosh3, t, tiling.sigma)


def test_bad_square_on_spoke(cosh3):
    tiling = Tiling(cosh3, 10.0, 20.0)
    z = 15.0 * complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
    t = tiling.tile_at(z)
    assert not is_good_square(cosh3, t, tiling.sigma)


def test_good_square_near_finds_one(cosh3):
    tiling = Tiling(cosh3, 10.0, 20.0)
    t = good_square_near(tiling, 15.0)
    assert t is not None
    assert is_good_square(cosh3, t, tiling.sigma)


# ---------------------------------------------------------------------------
# Density bound chain


def test_density_report_fields(cosh3):
    tiling = Tiling(cosh3, 10.0, 20.0)
    t = tiling.tile_at(15.0 + 0.0j)
    (rep,) = square_density_bound(cosh3, [t], 0.25)
    assert rep.min_abs_z <= 15.0 <= rep.max_abs_z + t.side
    # |f'| ~ 3 r^2 e^{r^3} near r = 15: log scale around 15^3
    assert 3000.0 < rep.min_fprime_log < rep.max_fprime_log < 3500.0
    assert rep.density_upper_log == pytest.approx(
        rep.band_measure_upper_log - rep.meas_fS_lower_log
    )
    assert rep.band_measure_upper_log == pytest.approx(
        rep.boundary_length_upper_log + math.log(4.5 * math.pi)
    )
    # a tiny square at huge |f'|: uncovered fraction is vanishing in log form
    assert math.isfinite(rep.density_upper_log)
    assert rep.density_upper_log < 0.0
    assert 0.0 < rep.asymptotic_bound < 1.0
    # |z|^alpha past the double range: the bound's exact value in doubles
    (far,) = square_density_bound(cosh3, [t], 1e300)
    assert far.asymptotic_bound == 0.0 and far.density_upper_log == rep.density_upper_log
    d = asdict(rep)
    assert d["side"] == t.side and "density_upper_log" in d
    for alpha in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            square_density_bound(cosh3, [t], alpha)


def test_density_bound_improves_with_radius(cosh3):
    tiling = Tiling(cosh3, 10.0, 45.0)
    logs = []
    targets = []
    for r in (10.5, 15.0, 20.0, 30.0, 40.0):
        t = good_square_near(tiling, r)
        assert t is not None
        (rep,) = square_density_bound(cosh3, [t], 0.25)
        logs.append(rep.density_upper_log)
        targets.append(rep.asymptotic_bound)
    assert all(b < a for a, b in zip(logs, logs[1:]))
    assert all(b < a for a, b in zip(targets, targets[1:]))


def test_e2_budget_enters_bound(cosh3):
    # at small radius the band and budget terms are comparable, so the
    # budget's effect on the log-sum is visible
    t = SquareTile(1.1 + 0j, 0.01, 0)
    (plain,) = square_density_bound(cosh3, [t], 0.25)
    (budget,) = square_density_bound(cosh3, [t], 0.25, e2_budget=1.0)
    assert budget.density_upper_log > plain.density_upper_log
    assert budget.e2_contrib == 1.0


def _reference_grid(tile, n):
    """The closed (n+1) x (n+1) sample grid over one square, raveled by rows of constant y."""
    xs = np.linspace(tile.x0, tile.x1, n + 1)
    ys = np.linspace(tile.y0, tile.y1, n + 1)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def _reference_extrema(f, tile):
    """(min, max, slack) of log|f'| from one square's own grids, as the density chain reads them."""
    lm1, _, zero1 = eval_log_batch(f, _reference_grid(tile, 32), order=1)
    if zero1.any():
        return -math.inf, float(np.max(lm1[~zero1], initial=-math.inf)), math.inf
    mn = float(lm1.min())
    lm2, _, zero2 = eval_log_batch(f, _reference_grid(tile, 8), order=2)
    max2 = float(np.where(zero2, -np.inf, lm2).max())
    return mn, float(lm1.max()), max2 + math.log(tile.side / 32.0 * math.sqrt(2.0) / 2.0) - mn


def _report_square(rep):
    return SquareTile(complex(rep.center_re, rep.center_im), rep.side, rep.level)


def _report_bits(rep):
    return _report_square(rep), np.array([getattr(rep, k) for k in DENSITY_COLUMNS[4:]]).tobytes()


def test_density_reports_do_not_depend_on_batching(sin3, monkeypatch):
    tiling = Tiling(sin3, 10.0, 20.0)
    squares = [tiling.tile_at(r * cmath.exp(0.1j * r)) for r in (10.5, 12.0, 13.5, 15.0, 16.5, 18.0)]
    # The 33x33 grid of the unit square at 0 has a node at 0, where
    # f' = 3 z^2 cos z^3 vanishes; 1.1 is a small radius.
    squares[2:2] = [SquareTile(0j, 1.0, 0), SquareTile(1.1 + 0j, 0.01, 0)]
    assert len(squares) > grid.BATCH_SQUARES
    reports = square_density_bound(sin3, squares, 0.25)
    assert [_report_square(rep) for rep in reports] == squares
    assert reports[2].min_fprime_log == -math.inf and reports[2].lipschitz_slack_log == math.inf
    for tile, rep in zip(squares, reports):
        mn, mx, slack = _reference_extrema(sin3, tile)
        want_min = mn + math.log1p(-math.exp(slack)) if slack < 0 else -math.inf
        got = np.array([rep.min_fprime_log, rep.max_fprime_log, rep.lipschitz_slack_log])
        assert got.tobytes() == np.array([want_min, mx, slack]).tobytes()
    for size in (1, 3):
        monkeypatch.setattr(grid, "BATCH_SQUARES", size)
        again = square_density_bound(sin3, squares, 0.25)
        assert [_report_bits(r) for r in again] == [_report_bits(r) for r in reports]


def test_grid_bound_reads_no_phase_and_derives_pair_polynomials_once(sin3, monkeypatch):
    # Twice what grid-bound --r-lo 10 --r-hi 20 --count 300 runs: no phase
    # is computed, and each pair polynomial is differentiated once.
    phases, derived = [], []
    phase, deriv = funcs._phase, Poly.deriv

    def phase_spy(*args):
        phases.append(args)
        return phase(*args)

    def deriv_spy(self):
        derived.append(self)
        return deriv(self)

    monkeypatch.setattr(funcs, "_phase", phase_spy)
    monkeypatch.setattr(Poly, "deriv", deriv_spy)
    for _ in range(2):
        tiling = Tiling(sin3, 10.0, 20.0)
        tiles = [good_square_near(tiling, float(r)) for r in np.geomspace(10.2, 19.6, 300)]
        assert square_density_bound(sin3, [t for t in tiles if t is not None], 0.25)
    assert not phases
    pairs = [p for p, _ in exceptional._pair_polys(sin3)]
    assert [sum(d is p for d in derived) for p in pairs] == [1] * len(pairs)


def test_density_bound_of_no_squares(sin3):
    assert square_density_bound(sin3, [], 0.25) == []
    with pytest.raises(ValueError):
        square_density_bound(sin3, [], 0.0)
