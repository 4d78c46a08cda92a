"""Adaptive square tiling of large annuli and image-density bounds.

Squares are sized so that f is injective on each of them: the side s of a
tile S must satisfy

    sigma / (4 sqrt2 min_S |z|^(d-1))  <=  s  <=  sigma / (sqrt2 max_S |z|^(d-1))

for a fixed sigma in (0, 1/(4 d max_j |b_j|)).  At radius r the admissible
side is of order sigma r^-(d-1), so an annulus at r ~ 10 already needs on the
order of 1e11 tiles; the tiling is therefore realized lazily as a
deterministic quadtree, and tile_at(z) descends to the unique leaf
containing z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .exceptional import _disc_clear
from .funcs import ExpPoly, _check_alpha, _eval_log_parts

__all__ = [
    "SquareTile",
    "DensityReport",
    "Tiling",
    "default_sigma",
    "good_square_near",
    "is_good_square",
    "good_square_threshold",
    "square_density_bound",
]

SQRT2 = math.sqrt(2.0)
# Points of the circle that good_square_near walks.
NEAR_ANGLES = 96
# Squares whose derivative grids square_density_bound evaluates in one call.
# Peak memory grows with it: 4 squares stack 4356 order-1 points.
BATCH_SQUARES = 4
# 9 pi / 2: the s-neighbourhood of a curve of length L has area at most
# _BAND_FACTOR s L.
_BAND_FACTOR = 4.5 * math.pi


@dataclass(frozen=True)
class SquareTile:
    """Axis-aligned square, identified by center, side, and quadtree level."""

    center: complex
    side: float
    level: int

    @property
    def x0(self) -> float:
        return self.center.real - self.side / 2.0

    @property
    def x1(self) -> float:
        return self.center.real + self.side / 2.0

    @property
    def y0(self) -> float:
        return self.center.imag - self.side / 2.0

    @property
    def y1(self) -> float:
        return self.center.imag + self.side / 2.0

    def min_abs_z(self) -> float:
        """Distance from the origin to the square (0 if it contains 0)."""
        dx = max(self.x0, -self.x1, 0.0)
        dy = max(self.y0, -self.y1, 0.0)
        return math.hypot(dx, dy)

    def max_abs_z(self) -> float:
        """Distance from the origin to the farthest corner."""
        return _max_abs_z(self.center.real, self.center.imag, self.side)


def default_sigma(f: ExpPoly) -> float:
    """Midpoint-safe sigma, half of the open upper limit 1/(4 d max|b|)."""
    return 1.0 / (8.0 * f.d * f.max_abs_b)


def _check_sigma(f: ExpPoly, sigma: float) -> float:
    hi = 1.0 / (4.0 * f.d * f.max_abs_b)
    if not (0.0 < sigma < hi):
        raise ValueError(f"sigma={sigma:.6g} outside (0, {hi:.6g})")
    return sigma


def _max_abs_z(cx: float, cy: float, side: float) -> float:
    """Distance from the origin to the farthest corner of the square."""
    h = side / 2.0
    return math.hypot(max(abs(cx - h), abs(cx + h)), max(abs(cy - h), abs(cy + h)))


def _side_upper(cx: float, cy: float, side: float, d: int, sigma: float) -> float:
    """Largest admissible side, sigma / (sqrt2 max_S |z|^(d-1)), of a square."""
    mx = _max_abs_z(cx, cy, side)
    # Where |z|^(d-1) underflows to 0 the bound is infinite, as in tile_at.
    return sigma / (SQRT2 * mx ** (d - 1)) if mx > 0 and mx ** (d - 1) > 0 else math.inf


def side_bounds(tile: SquareTile, d: int, sigma: float):
    """(lower, upper) admissible side lengths for this tile's location."""
    mn = tile.min_abs_z()
    lo = sigma / (4.0 * SQRT2 * mn ** (d - 1)) if mn > 0 and mn ** (d - 1) > 0 else math.inf
    return lo, _side_upper(tile.center.real, tile.center.imag, tile.side, d, sigma)


def tile_side_ok(tile: SquareTile, d: int, sigma: float) -> bool:
    lo, hi = side_bounds(tile, d, sigma)
    return lo <= tile.side <= hi


def _cell_centre(x: float, side: float) -> float:
    """Centre of the half-open cell [j side, (j+1) side) holding x, for a
    power-of-two side.  fmod is exact, so unlike floor(x / side) this stays
    right where x / side underflows."""
    r = math.fmod(x, side)
    return x - r - (side if r < 0 else 0.0) + side / 2.0


class Tiling:
    """Lazy quadtree tiling of the annulus {r_lo <= |z| <= r_hi}.

    The root square is centered at 0 with the least power-of-two side whose
    half-open square holds the closed annulus; a node splits while its side
    exceeds the location-dependent upper bound, so all leaves reached through
    tile_at satisfy the side invariant (the lower bound holds because a split
    halves the side at most one level past the upper bound).  An r_hi whose
    leaves are finer than doubles resolve (side/32 below 64 ulp(r_hi)) raises
    ValueError.
    """

    def __init__(self, f: ExpPoly, r_lo: float, r_hi: float, sigma: float | None = None):
        if not (0.0 < r_lo < r_hi < math.inf):
            raise ValueError("need 0 < r_lo < r_hi, r_hi finite")
        self.f = f
        self.r_lo = float(r_lo)
        self.r_hi = float(r_hi)
        self.sigma = _check_sigma(f, default_sigma(f) if sigma is None else sigma)
        try:
            # The half-open root [-side/2, side/2)^2 must hold |z| <= r_hi, so
            # side/2 is the least power of two above r_hi, strictly.
            root_side = 2.0 ** (math.frexp(self.r_hi)[1] + 1)
            self.root = SquareTile(0j, root_side, 0)
            # The root reaches farthest out, so no deeper tile overflows.
            side_bounds(self.root, f.d, self.sigma)
        except OverflowError:
            raise ValueError(f"r_hi={r_hi:.6g} too large: the tile side bound overflows") from None
        # The derivative grid of square_density_bound spaces its points side/32
        # apart.  Below 64 ulp of |z| it collapses onto a few doubles, and a
        # descent no longer lands on a tile containing z, so such a tiling
        # has no meaningful bound to offer.
        spacing = self.tile_at(complex(self.r_hi)).side / 32.0
        if spacing < 64.0 * math.ulp(self.r_hi):
            raise ValueError(
                f"r_hi={r_hi:.6g} too large: tiles there are finer than doubles resolve "
                f"(grid spacing {spacing:.3g} < 64 ulp = {64.0 * math.ulp(self.r_hi):.3g})"
            )

    def tile_at(self, z: complex) -> SquareTile:
        """The unique leaf containing z (half-open edges, deterministic).

        Every node holding z reaches |z| from 0, so its admissible side is at
        most b/2 for b = 2 sigma / (sqrt2 |z|^(d-1)), and a node of side above
        b/2 must split; where |z|^(d-1) underflows to 0, b is infinite and
        nothing is skipped.  The levels whose side exceeds 2b, four times that,
        so that rounding cannot matter, are skipped at once: a node at level
        k >= 1 is the dyadic cell [j side, (j+1) side) of each coordinate.
        The descent then runs on the centre and side as floats and builds the
        leaf's SquareTile only at the end.
        """
        z = complex(z)
        az = abs(z)
        if not (self.r_lo <= az <= self.r_hi):
            raise ValueError(f"|z|={az:.6g} outside [{self.r_lo}, {self.r_hi}]")
        d, sigma = self.f.d, self.sigma
        p = az ** (d - 1)
        b = 2.0 * sigma / (SQRT2 * p) if p else math.inf
        cx = cy = 0.0
        side, level = self.root.side, 0
        while side / 2.0 > b:
            side /= 2.0
            level += 1
        if level:
            cx, cy = _cell_centre(z.real, side), _cell_centre(z.imag, side)
        while side > _side_upper(cx, cy, side, d, sigma):
            q = side / 4.0
            cx += q if z.real >= cx else -q
            cy += q if z.imag >= cy else -q
            side /= 2.0
            level += 1
        return SquareTile(complex(cx, cy), side, level)


# ---------------------------------------------------------------------------
# Good squares: far enough from the level-1 exceptional set


def good_square_threshold(f: ExpPoly, tile: SquareTile, sigma: float) -> float:
    """Required clearance 2 sigma / min_S |z|^(d-1)."""
    mn = tile.min_abs_z()
    if mn == 0.0:
        return math.inf
    return 2.0 * sigma / mn ** (f.d - 1)


def is_good_square(f: ExpPoly, tile: SquareTile, sigma: float) -> bool:
    """Whether the square provably lies farther than the threshold from the level-1 set.

    A derivative bound on the pair polynomials (exceptional._disc_clear) must
    prove the disc around the centre of radius half-diagonal + threshold +
    side/4 free of level-1 points; a square it cannot prove clear is not
    good, which is the conservative direction for the bounds built on good
    squares.
    """
    thresh = good_square_threshold(f, tile, sigma)
    if not math.isfinite(thresh):
        return False
    return _disc_clear(f, tile.center, tile.side / SQRT2 + thresh + tile.side / 4.0)


def good_square_near(tiling: Tiling, r: float):
    """First good square met walking NEAR_ANGLES points of |z| = r; None if all fail."""
    for i in range(NEAR_ANGLES):
        z = r * complex(math.cos(2 * math.pi * i / NEAR_ANGLES), math.sin(2 * math.pi * i / NEAR_ANGLES))
        if not (tiling.r_lo <= abs(z) <= tiling.r_hi):
            continue
        tile = tiling.tile_at(z)
        if is_good_square(tiling.f, tile, tiling.sigma):
            return tile
    return None


# ---------------------------------------------------------------------------
# Density bounds


@dataclass(frozen=True)
class DensityReport:
    """Ingredients of the image-density bound for one square: one grid-bound
    row, its fields the columns in order (DENSITY_COLUMNS).

    Not a certificate, for two reasons.  min/max_fprime_log come from
    sampling log|f'| on a 33x33 grid of the square, and the Lipschitz slack
    from sampling max|f''| on a 9x9 grid (8x8 cells): a sampled maximum is
    not a bound.
    And grid-bound passes e2_budget = 0, so density_upper_log leaves out
    the part of the image that meets the level-2 exceptional set.

    All *_log fields are natural logs; density_upper_log is kept in log form
    because the bound underflows doubles at realistic radii (|f'| is at the
    exp(|z|^d) scale).  asymptotic_bound is the asymptotic target
    exp(-min|z|^alpha / 2), reported for comparison and never substituted
    for the computed chain.
    """

    center_re: float
    center_im: float
    side: float
    level: int
    min_abs_z: float
    max_abs_z: float
    min_fprime_log: float
    max_fprime_log: float
    lipschitz_slack_log: float
    meas_fS_lower_log: float
    boundary_length_upper_log: float
    band_measure_upper_log: float
    e2_contrib: float
    density_upper_log: float
    asymptotic_bound: float


# The columns of a density report row, as grid-bound writes them.
DENSITY_COLUMNS = tuple(f.name for f in fields(DensityReport))


def _stacked_grids(tiles, n: int) -> np.ndarray:
    """(k, (n+1)^2) array whose row i is the closed (n+1) x (n+1) sample grid
    over tiles[i], one row of constant y after another, x increasing."""
    x0, x1, y0, y1 = (np.array([getattr(t, e) for t in tiles]) for e in ("x0", "x1", "y0", "y1"))
    xs = np.linspace(x0, x1, n + 1, axis=1)
    ys = np.linspace(y0, y1, n + 1, axis=1)
    return (xs[:, None, :] + 1j * ys[:, :, None]).reshape(len(tiles), -1)


def _log_extrema_fprime(f: ExpPoly, tiles):
    """(min, max, slack) of log|f'| over each tile via a 33x33 grid.

    The slack is the log of the relative drop a true minimum between grid
    nodes could suffer, bounded by max|f''| on a 9x9 grid (8x8 cells) times
    the half-diagonal of a 33x33 grid cell over the sampled minimum.  The
    grids of BATCH_SQUARES tiles at a time go through one evaluation per
    order, by funcs._eval_log_parts, which computes no phase: none is read.
    The evaluation is elementwise, so each tile's numbers are the ones it
    would get alone.
    """
    out = []
    for i in range(0, len(tiles), BATCH_SQUARES):
        batch = tiles[i : i + BATCH_SQUARES]
        lm1, zero1 = _eval_log_parts(f, _stacked_grids(batch, 32), order=1)[:2]
        lm2, zero2 = _eval_log_parts(f, _stacked_grids(batch, 8), order=2)[:2]
        max2 = np.where(zero2, -np.inf, lm2).max(axis=1)
        for tile, row, zero, m2 in zip(batch, lm1, zero1, max2):
            if zero.any():
                out.append((-math.inf, float(np.max(row[~zero], initial=-math.inf)), math.inf))
                continue
            mn = float(row.min())
            half_diag = tile.side / 32.0 * SQRT2 / 2.0
            out.append((mn, float(row.max()), float(m2) + math.log(half_diag) - mn))
    return out


def square_density_bound(f: ExpPoly, squares, alpha: float, e2_budget: float = 0.0) -> list[DensityReport]:
    """Assemble the uncovered-image density bound for each good square, in order.

    Chain, all in log domain: meas(f(S)) >= side^2 min|f'|^2 (injectivity),
    boundary length <= 4 side max|f'|, the unit band around the image
    boundary has measure at most (9 pi / 2) times that length, and the
    uncovered part of f(S) is at most the band plus the e2_budget.

    The squares are sampled BATCH_SQUARES at a time; a report depends
    neither on BATCH_SQUARES nor on the other squares of the call.

    The result is not certified: its |f'| inputs are sampled, not bounded,
    and grid-bound passes e2_budget = 0 (see DensityReport).
    """
    _check_alpha(alpha)
    squares = list(squares)
    extrema = _log_extrema_fprime(f, squares)
    return [_density_report(S, *ext, alpha, e2_budget) for S, ext in zip(squares, extrema)]


def _density_report(S: SquareTile, mn_log, mx_log, slack, alpha: float, e2_budget: float) -> DensityReport:
    """The density chain of square_density_bound for one square and its log|f'| extrema."""
    if slack < 0:
        mn_adj = mn_log + math.log1p(-math.exp(slack))
    else:
        mn_adj = -math.inf
    meas_s_log = 2.0 * math.log(S.side)
    meas_fs_log = meas_s_log + 2.0 * mn_adj
    blen_log = math.log(4.0 * S.side) + mx_log
    band_log = math.log(_BAND_FACTOR) + blen_log
    e2_log = math.log(e2_budget) if e2_budget > 0 else -math.inf
    uncovered_log = float(np.logaddexp(band_log, e2_log))
    mz = S.min_abs_z()
    return DensityReport(
        center_re=S.center.real,
        center_im=S.center.imag,
        side=S.side,
        level=S.level,
        min_abs_z=mz,
        max_abs_z=S.max_abs_z(),
        min_fprime_log=mn_adj,
        max_fprime_log=mx_log,
        lipschitz_slack_log=slack,
        meas_fS_lower_log=meas_fs_log,
        boundary_length_upper_log=blen_log,
        band_measure_upper_log=band_log,
        e2_contrib=e2_budget,
        density_upper_log=uncovered_log - meas_fs_log,
        asymptotic_bound=_exp_neg_power(0.5, mz, alpha),
    )


def _exp_neg_power(c: float, r: float, alpha: float) -> float:
    """exp(-c r^alpha); 0.0, its exact value in doubles, where r^alpha overflows."""
    try:
        return math.exp(-c * r**alpha)
    except OverflowError:
        return 0.0
