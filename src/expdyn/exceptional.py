"""Exceptional-set geometry: where no single term of f dominates.

For each pair of terms the difference of exponents is the degree-d polynomial
p_{j,k}(z) = (b_j - b_k) z^d + (P_j - P_k)(z).  The level-l exceptional set
consists of the z where |Re p_{j,k}(z)| < l * |p_{j,k}(z)|^(nu/d) for some
pair, with nu = d - 5/2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicable
from .funcs import TWO_PI, ExpPoly
from .poly import Poly

__all__ = [
    "PairPoly",
    "ExceptionalParams",
    "pair_poly",
    "in_E",
    "in_E_mask",
    "r0_bound",
    "dist_to_E1_lower",
    "c1_constant",
    "dist_to_E1_measured",
    "e2_measure",
    "write_e2_csv",
]

DEFAULT_VALIDITY_RADIUS = 50.0


@dataclass(frozen=True)
class PairPoly:
    """Exponent-difference polynomial between terms j and k."""

    j: int
    k: int
    poly: Poly


@dataclass(frozen=True)
class ExceptionalParams:
    """Threshold data for the level-1 and level-2 exceptional sets."""

    nu: float
    d: int

    @classmethod
    def for_function(cls, f: ExpPoly) -> "ExceptionalParams":
        if f.d < 3:
            raise ValueError("exceptional sets require d >= 3 (nu > 0)")
        return cls(nu=f.d - 2.5, d=f.d)


def pair_poly(f: ExpPoly, j: int, k: int) -> PairPoly:
    if j == k:
        raise ValueError("pair indices must differ")
    return PairPoly(j=j, k=k, poly=f.exponent_poly(j) - f.exponent_poly(k))


def _pair_polys(f: ExpPoly):
    # Unordered pairs suffice: p_{k,j} = -p_{j,k} and membership only sees
    # |Re| and the modulus.  Stored on the function, so they live as long as it.
    if "pair_polys" not in f.memo:
        f.memo["pair_polys"] = [
            pair_poly(f, j, k)
            for j in range(f.n_terms)
            for k in range(j + 1, f.n_terms)
        ]
    return f.memo["pair_polys"]


def _far_member(poly: Poly, Z, level: int, params: ExceptionalParams):
    """Membership at points where p(Z) does not fit in doubles.

    With z = r u, |u| = 1, p(z) = r^d p~(u), where p~ has the coefficients
    c_i r^(i - d), and the threshold inequality reads
    log|Re p~| < log level + (nu - d) log r + (nu/d) log|p~|.
    """
    r = np.abs(Z)
    u = Z / r
    acc = np.full(Z.shape, poly.coeffs[-1])
    for i in range(params.d - 1, -1, -1):
        acc = acc * u + poly.coeff(i) * r ** (i - params.d)
    rhs = math.log(level) + (params.nu - params.d) * np.log(r) + params.nu / params.d * np.log(np.abs(acc))
    return (acc == 0) | (np.log(np.abs(acc.real)) < rhs)


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
    params = ExceptionalParams.for_function(f)
    Z = np.asarray(Z, dtype=complex)
    member = np.zeros(Z.shape, dtype=bool)
    expo = params.nu / params.d
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        for pp in _pair_polys(f):
            w = pp.poly(Z)
            aw = np.abs(w)
            thresh = level * np.exp(expo * np.log(aw))
            hit = np.where(aw == 0, True, np.abs(w.real) < thresh)
            far = ~np.isfinite(aw)
            if far.any():
                hit[far] = _far_member(pp.poly, Z[far], level, params)
            member |= hit
    return member


def in_E(f: ExpPoly, z: complex, level: int) -> bool:
    return bool(in_E_mask(f, np.asarray(complex(z)), level))


def r0_bound(f: ExpPoly) -> float:
    """Concrete radius containing all zeros of the pair polynomials."""
    return 1.0 + max(pp.poly.cauchy_root_bound() for pp in _pair_polys(f))


def c1_constant(f: ExpPoly) -> float:
    """min_{l != n} |b_l - b_n|^(nu/d - 1) / (25 d)."""
    params = ExceptionalParams.for_function(f)
    diffs = [
        abs(f.terms[j].b - f.terms[k].b)
        for j in range(f.n_terms)
        for k in range(j + 1, f.n_terms)
    ]
    return min(s ** (params.nu / params.d - 1.0) for s in diffs) / (25.0 * f.d)


def dist_to_E1_lower(
    f: ExpPoly, z: complex, validity_radius: float = DEFAULT_VALIDITY_RADIUS
) -> float:
    """Certified lower bound C1 |z|^(-3/2) on the distance to the level-1 set.

    Valid for z outside the level-2 set with |z| at least validity_radius;
    the validity radius is a configuration knob certified empirically by the
    test suite for the shipped d=3 functions.
    """
    z = complex(z)
    if in_E(f, z, 2):
        raise NotApplicable("point lies in the level-2 exceptional set")
    if abs(z) < validity_radius:
        raise NotApplicable(
            f"|z|={abs(z):.3g} below configured validity radius {validity_radius}"
        )
    return c1_constant(f) * abs(z) ** -1.5


def dist_to_E1_measured(
    f: ExpPoly, z, step: float, max_radius: float, n_angles: int = 64
) -> float:
    """Empirical distance to the level-1 set by expanding ring search.

    z is one point or an array of points, all of which share each ring
    radius.  Returns the smallest sampled ring radius around any of them
    containing a level-1 point, 0 if a point is itself a member, and
    max_radius if nothing was found (a one-sided over-estimate, adequate for
    checking lower bounds).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    z = np.asarray(z, dtype=complex)
    if in_E_mask(f, z, 1).any():
        return 0.0
    angles = np.exp(2j * math.pi * np.arange(n_angles) / n_angles)
    r = step
    while r <= max_radius:
        if in_E_mask(f, z[..., None] + r * angles, 1).any():
            return r
        r += step
    return max_radius


def _margin(w, expo: float):
    """|Re w| - 2 |w|^(nu/d): negative inside the level-2 set, -inf at w = 0."""
    aw = np.abs(w)
    with np.errstate(divide="ignore"):
        return np.where(aw == 0, -np.inf, np.abs(w.real) - 2.0 * np.exp(expo * np.log(aw)))


def _bisect(g, out, inside, iters=50):
    """Vectorised bisection of the brackets g(out) >= 0 > g(inside)."""
    for _ in range(iters):
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
        inside = _margin(w, expo) < 0
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
    keep = _margin(at(seed_r, anchor), expo) < 0
    rows = np.concatenate([run_rows, seed_rows[keep]])
    edge_r = np.tile(radii[rows], 2)
    out = np.concatenate([thetas[s] - step, a[keep], thetas[e] + step, b[keep]])
    inn = np.concatenate([thetas[s], anchor[keep], thetas[e], anchor[keep]])
    lo, hi = np.split(_bisect(lambda t: _margin(at(edge_r, t), expo), out, inn), 2)
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


def e2_measure(
    f: ExpPoly, r_min: float, r_max: float, nr: int, ntheta: int, refine: bool = True
) -> float:
    """Polar-grid estimate of the level-2 set measure on an annulus.

    Midpoint rule over nr radial bands, band-major for determinism.  With
    refine (the default) the occupied angle of each band is the union, on
    the circle, of arcs whose edges are bracketed on the ntheta cell centres
    and then bisected together for all bands; the spokes narrow like
    r^(nu - d), so at interesting radii they are far thinner than any
    affordable uniform grid.  With refine=False the plain ntheta-cell
    indicator midpoint rule is used.
    """
    if not (0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if nr < 16 or ntheta < 16:
        raise ValueError("need nr, ntheta >= 16")
    params = ExceptionalParams.for_function(f)
    expo = params.nu / params.d
    dr = (r_max - r_min) / nr
    dtheta = 2.0 * math.pi / ntheta
    thetas = (np.arange(ntheta) + 0.5) * dtheta
    radii = r_min + (np.arange(nr) + 0.5) * dr
    if refine:
        arcs = [_pair_arcs(pp.poly, radii, thetas, expo) for pp in _pair_polys(f)]
        rows, lo, hi = (np.concatenate(parts) for parts in zip(*arcs))
        occ = [_circle_union_length(lo[rows == i], hi[rows == i]) for i in range(nr)]
    else:
        directions = np.exp(1j * thetas)
        occ = [int(in_E_mask(f, r * directions, 2).sum()) * dtheta for r in radii]
    total = 0.0
    for o, r in zip(occ, radii):
        total += o * r * dr
    return total


def write_e2_csv(path, rows):
    """Write (r_lo, r_hi, nr, ntheta, measure) rows as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r_lo", "r_hi", "nr", "ntheta", "measure"])
        for row in rows:
            writer.writerow(list(row))
