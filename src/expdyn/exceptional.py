"""Exceptional-set geometry: where no single term of f dominates.

For each pair of terms the difference of exponents is the degree-d polynomial
p_{j,k}(z) = (b_j - b_k) z^d + (P_j - P_k)(z).  The level-l exceptional set
consists of the z where |Re p_{j,k}(z)| < l * |p_{j,k}(z)|^(nu/d) for some
pair, with nu = d - 5/2.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .funcs import CACHE_SIZE, TWO_PI, ExpPoly
from .poly import Poly

__all__ = [
    "in_E_mask",
    "c1_constant",
    "dist_to_E1_measured",
    "e2_measure",
]

# Relative rounding allowance of the disc test _disc_clear.
SLACK = 1e-9
# e2_measure refuses level-2 spokes of half-width below 2^14 ulp(2 pi) rad.
MIN_HALF_WIDTH = 2.0**14 * math.ulp(TWO_PI)
# Points on each ring of dist_to_E1_measured.
RING_POINTS = 64
# Halvings of each bracket in _bisect.
BISECT_ITERS = 50


def _expo(f: ExpPoly) -> float:
    """The threshold exponent nu/d, nu = d - 5/2; ValueError for d < 3."""
    if f.d < 3:
        raise ValueError("exceptional sets require d >= 3 (nu > 0)")
    return (f.d - 2.5) / f.d


@functools.lru_cache(CACHE_SIZE)
def _pair_polys(f: ExpPoly):
    # (p_{j,k}, p_{j,k}') for j < k, cached by the function value.  Unordered
    # pairs suffice: p_{k,j} = -p_{j,k}, and membership sees |Re| and |p|.
    polys = (f.exponent_poly(j) - f.exponent_poly(k) for j in range(f.n_terms) for k in range(j + 1, f.n_terms))
    return tuple((p, p.deriv()) for p in polys)


def _far_member(poly: Poly, Z, level: int, expo: float):
    """Membership at points where p(Z) does not fit in doubles.

    With z = r u, |u| = 1, p(z) = r^d p~(u), where p~ has the coefficients
    c_i r^(i - d), and the threshold inequality reads
    log|Re p~| < log level + (nu - d) log r + (nu/d) log|p~|, nu - d = -5/2.
    """
    d = poly.degree
    r = np.abs(Z)
    u = Z / r
    acc = np.full(Z.shape, poly.coeffs[-1])
    for i in range(d - 1, -1, -1):
        acc = acc * u + poly.coeff(i) * r ** (i - d)
    rhs = math.log(level) - 2.5 * np.log(r) + expo * np.log(np.abs(acc))
    return (acc == 0) | (np.log(np.abs(acc.real)) < rhs)


def _margin(w: np.ndarray, expo: float, level: int) -> np.ndarray:
    """|Re w| - level |w|^(nu/d): negative inside the level-l set.

    At w = 0, where the inequality degenerates, it is -1, so the margin is
    finite exactly where |w| is.  w is an array of at least one dimension.
    Call it under np.errstate(divide="ignore"): log(0) is taken at w = 0.
    """
    aw = np.abs(w)
    margin = np.abs(w.real) - level * np.exp(expo * np.log(aw))
    margin[aw == 0] = -1.0
    return margin


def in_E_mask(f: ExpPoly, Z, level: int) -> np.ndarray:
    """Vectorized membership in the level-1 or level-2 exceptional set.

    A zero of a pair polynomial counts as a member (the threshold inequality
    degenerates there; such points sit inside the excluded central disk
    anyway).  Where |p(z)| overflows doubles, |z|^d near 1e308 or beyond,
    the test runs in a scale-free form (_far_member), so an overflow is
    never read as membership.
    """
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    expo = _expo(f)
    Z = np.asarray(Z, dtype=complex)
    flat = Z.reshape(-1)  # a 0-d Z would give numpy scalars, which take no item assignment
    member = np.zeros(flat.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        for poly, _ in _pair_polys(f):
            margin = _margin(poly(flat), expo, level)
            hit = margin < 0
            far = ~np.isfinite(margin)
            if far.any():
                hit[far] = _far_member(poly, flat[far], level, expo)
            member |= hit
    return member.reshape(Z.shape)


def c1_constant(f: ExpPoly) -> float:
    """min_{l != n} |b_l - b_n|^(nu/d - 1) / (25 d)."""
    expo = _expo(f)
    diffs = [
        abs(f.terms[j].b - f.terms[k].b)
        for j in range(f.n_terms)
        for k in range(j + 1, f.n_terms)
    ]
    return min(s ** (expo - 1.0) for s in diffs) / (25.0 * f.d)


def _disc_clear(f: ExpPoly, c: complex, R: float) -> bool:
    """Whether the disc D(c, R) provably holds no level-1 point.

    With rho = |c| + R, on D every pair polynomial moves from p(c) by at most
    m = R sum |p'_i| rho^i (_pair_polys caches p' beside p), so |Re p| >=
    |Re p(c)| - m and |p| <= |p(c)| + m there; as nu/d lies in (0, 1),
    |Re p(c)| - m > (|p(c)| + m)^(nu/d) rules the whole disc out.  SLACK widens m by a multiple of sum |p_i| rho^i and
    the threshold by a factor, which covers the rounding of Horner's rule, of
    exp(log) in in_E_mask and of points sampled in D by many orders of
    magnitude, so in_E_mask reads no such point as a member either.
    Anything not finite on the way means "not proven".
    """
    expo = _expo(f)
    with np.errstate(over="ignore", invalid="ignore"):
        rho = abs(c) + R
        for poly, dpoly in _pair_polys(f):
            w = complex(poly(c))
            try:
                m = R * dpoly.coeff_bound(rho) + SLACK * poly.coeff_bound(rho)
            except OverflowError:  # rho^i beyond doubles
                return False
            if not (
                cmath.isfinite(w)
                and math.isfinite(m)
                and abs(w.real) - m > (abs(w) + m) ** expo * (1.0 + SLACK)
            ):
                return False
    return True


def dist_to_E1_measured(f: ExpPoly, z, step: float, max_radius: float) -> float:
    """Empirical distance to the level-1 set by expanding ring search.

    z is one point or an array of points, all of which share each ring
    radius; each ring has RING_POINTS points.  Returns the smallest sampled
    ring radius around any of them containing a level-1 point, 0 if a point
    is itself a member, and max_radius if nothing was found (a one-sided
    over-estimate, adequate for checking lower bounds).  It measures and proves nothing: a proof that a
    disc is clear is _disc_clear.
    """
    if not (math.isfinite(step) and math.isfinite(max_radius)):
        raise ValueError("step and max_radius must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    z = np.asarray(z, dtype=complex)
    if in_E_mask(f, z, 1).any():
        return 0.0
    angles = np.exp(2j * math.pi * np.arange(RING_POINTS) / RING_POINTS)
    r = step
    while r <= max_radius:
        if in_E_mask(f, z[..., None] + r * angles, 1).any():
            return r
        r += step
    return max_radius


def _bisect(g, out, inside):
    """Vectorised bisection of the brackets g(out) >= 0 > g(inside)."""
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (out + inside)
        neg = g(mid) < 0
        inside = np.where(neg, mid, inside)
        out = np.where(neg, out, mid)
    return 0.5 * (out + inside)


def _pair_arcs(poly: Poly, radii: np.ndarray, thetas: np.ndarray, expo: float):
    """Level-2 arcs (row, lo, hi) of one pair's spokes on the circles |z| = radii.

    Each row is evaluated once on its cell centres and treated as a circle of
    cell indices modulo n: a maximal run of inside cells, including one that
    wraps past the last cell, brackets a lo and a hi edge, and a sign change
    of Re p between adjacent outside cells seeds a spoke narrower than a cell.
    The brackets of all rows are then bisected together, first the Re p roots
    of the seeds and then every edge.  Each arc has lo < hi < lo + 2 pi.
    """
    step = TWO_PI / len(thetas)
    directions = np.exp(1j * thetas)
    full, runs, seeds = [], [np.empty((3, 0), int)], [np.empty((2, 0), int)]
    for row, r in enumerate(radii):
        w = poly(r * directions)
        inside = _margin(w, expo, 2) < 0
        if inside.all():
            full.append(row)
            continue
        s = np.flatnonzero(inside & ~np.roll(inside, 1))
        e = np.flatnonzero(inside & ~np.roll(inside, -1))
        if inside[0] and inside[-1]:
            e = np.roll(e, -1)  # the run through cell 0 is the one starting last
        outside, v = ~inside, w.real
        c = np.flatnonzero(outside & np.roll(outside, -1) & (v * np.roll(v, -1) < 0))
        runs.append(np.stack([np.full(s.size, row), s, e]))
        seeds.append(np.stack([np.full(c.size, row), c]))
    run_rows, s, e = np.concatenate(runs, axis=1)
    seed_rows, c = np.concatenate(seeds, axis=1)

    def at(rad, t):
        return poly(rad * np.exp(1j * t))

    seed_r = radii[seed_rows]
    a = thetas[c]
    b = a + step
    sign = np.sign(at(seed_r, a).real)
    anchor = _bisect(lambda t: sign * at(seed_r, t).real, a, b)
    keep = _margin(at(seed_r, anchor), expo, 2) < 0
    rows = np.concatenate([run_rows, seed_rows[keep]])
    edge_r = np.tile(radii[rows], 2)
    out = np.concatenate([thetas[s] - step, a[keep], thetas[e] + step, b[keep]])
    inn = np.concatenate([thetas[s], anchor[keep], thetas[e], anchor[keep]])
    lo, hi = np.split(_bisect(lambda t: _margin(at(edge_r, t), expo, 2), out, inn), 2)
    hi = np.where(hi < lo, hi + TWO_PI, hi)  # a run through cell 0
    full = np.array(full, dtype=int)
    return (
        np.concatenate([rows, full]),
        np.concatenate([lo, np.zeros(full.size)]),
        np.concatenate([hi, np.full(full.size, TWO_PI)]),
    )


def _circle_union_length(lo: np.ndarray, hi: np.ndarray) -> float:
    """Length of the union of the arcs [lo, hi] on the circle."""
    start = np.mod(lo, TWO_PI)
    end = start + (hi - lo)
    over = end > TWO_PI  # split an arc that crosses 2 pi in two
    a = np.concatenate([start, np.zeros(np.count_nonzero(over))])
    b = np.concatenate([np.minimum(end, TWO_PI), end[over] - TWO_PI])
    order = np.argsort(a, kind="stable")
    a, b = a[order], b[order]
    # Sorted by start, each piece adds what reaches past all earlier ones.
    reach = np.concatenate([[-np.inf], np.maximum.accumulate(b)[:-1]])
    return float(np.maximum(b - np.maximum(a, reach), 0.0).sum())


def e2_measure(f: ExpPoly, r_min: float, r_max: float, nr: int, ntheta: int) -> float:
    """Polar-grid estimate of the level-2 set measure on an annulus.

    Midpoint rule over nr radial bands, band-major for determinism.  The
    occupied angle of each band is the union, on the circle, of arcs whose
    edges are bracketed on the ntheta cell centres and then bisected together
    for all bands; the spokes narrow like r^(nu - d), so at interesting radii
    they are far thinner than any affordable uniform grid.

    The edges are bisected in absolute angle, so every spoke must span many
    doubles: ValueError when r_max is not finite, or when the leading-order
    level-2 half-width 2 (|c_d| r_max^d)^(nu/d - 1) / d of some pair
    polynomial is below MIN_HALF_WIDTH, about 1.5e-11 rad (for sin_z3, r_max
    above about 1.4e4).
    """
    if not (0 < r_min < r_max < math.inf):
        raise ValueError("need 0 < r_min < r_max, r_max finite")
    if nr < 16 or ntheta < 16:
        raise ValueError("need nr, ntheta >= 16")
    expo = _expo(f)
    for poly, _ in _pair_polys(f):
        log_size = math.log(abs(poly.coeff(f.d))) + f.d * math.log(r_max)
        # At a tiny r_max the half-width overflows doubles: far above the limit.
        if 2.0 / f.d * math.exp(min((expo - 1.0) * log_size, 700.0)) < MIN_HALF_WIDTH:
            raise ValueError(f"r_max={r_max:.6g} too large: level-2 spokes narrower than {MIN_HALF_WIDTH:.3g} rad")
    dr = (r_max - r_min) / nr
    thetas = (np.arange(ntheta) + 0.5) * (TWO_PI / ntheta)
    radii = r_min + (np.arange(nr) + 0.5) * dr
    with np.errstate(divide="ignore"):
        arcs = [_pair_arcs(poly, radii, thetas, expo) for poly, _ in _pair_polys(f)]
    rows, lo, hi = (np.concatenate(parts) for parts in zip(*arcs))
    total = 0.0
    for i, r in enumerate(radii):
        total += _circle_union_length(lo[rows == i], hi[rows == i]) * r * dr
    return total


# The columns of an e2 report row, as e2measure writes them.
E2_COLUMNS = ("r_lo", "r_hi", "nr", "ntheta", "measure")
