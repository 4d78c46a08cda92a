"""Annulus-level classification scans and the slow-wedge analytics.

An annulus scan classifies a low-discrepancy sample of ann(r) = {r <= |z| <=
2r} and reports class fractions.  The wedge analytics quantify the set

    B = {r e^{i theta}: r >= r0, |theta - pi/2| <= 1/(r^2 log r)}

whose radial measure density 2/(r log r) integrates to 2 (log log R -
log log r0): finite truncations grow without bound, the model of a
non-escaping set of infinite measure.

SciPy is imported inside the functions that sample or integrate, so that
importing expdyn, and every command that neither samples nor integrates,
does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptional import MIN_HALF_WIDTH, in_E_mask
from .funcs import ExpPoly, eval_log_batch
from .grid import annulus_tail_bound
from .orbits import (
    ESCAPE_CERTIFIED,
    NON_ESCAPE_OBSERVED,
    UNDETERMINED,
    ClassifyParams,
    _TAG_TABLE,
    classify_batch,
)

__all__ = [
    "AnnulusReport",
    "CounterexampleParams",
    "annulus_scan",
    "annulus_area",
    "b_wedge_halfwidth",
    "b_measure_closed_form",
    "b_measure_quadrature",
    "b_wedge_increment",
    "counterexample_check",
    "headline_summary",
]

_E = math.e


def annulus_area(r: float) -> float:
    """Lebesgue measure of ann(r) = {r <= |z| <= 2r}."""
    return 3.0 * math.pi * r * r


@dataclass(frozen=True)
class AnnulusReport:
    """Classification fractions over a low-discrepancy sample of ann(r)."""

    r: float
    samples: int
    fractions: dict
    e2_fraction: float
    estimated_nonescape_measure: float
    seed: int

    def to_dict(self):
        return {
            "r": self.r,
            "samples": self.samples,
            "frac_escape": self.fractions[ESCAPE_CERTIFIED],
            "frac_nonescape": self.fractions[NON_ESCAPE_OBSERVED],
            "frac_undetermined": self.fractions[UNDETERMINED],
            "e2_fraction": self.e2_fraction,
            "estimated_nonescape_measure": self.estimated_nonescape_measure,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CounterexampleParams:
    """Sampling configuration for the slow wedge B."""

    r0: float = 100.0
    eps: float = 0.1
    samples: int = 2000

    def __post_init__(self):
        if not (_E < self.r0 < math.inf):
            raise ValueError("r0 must be finite and exceed e so log log r0 is defined")
        if not (0 < self.eps < math.inf) or self.samples < 1:
            raise ValueError("eps must be positive and finite, and samples >= 1")


def _annulus_points(r: float, samples: int, seed: int) -> np.ndarray:
    """Area-uniform low-discrepancy points of ann(r), deterministic per seed."""
    from scipy.stats import qmc

    u = qmc.Halton(d=2, scramble=True, seed=seed).random(samples)
    rho = r * np.sqrt(1.0 + 3.0 * u[:, 0])
    theta = 2.0 * math.pi * u[:, 1]
    return rho * np.exp(1j * theta)


def annulus_scan(
    f: ExpPoly,
    r: float,
    samples: int,
    p: ClassifyParams | None = None,
    seed: int = 0,
) -> AnnulusReport:
    """Classify a seeded quasi-uniform sample of ann(r).

    Refuses r whose annulus area overflows doubles (r above about 4.4e153),
    where the measure estimate would read 0 * inf = NaN.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if not (r > 0 and math.isfinite(annulus_area(r))):
        raise ValueError(f"r must be positive with a finite annulus area, got {r:.6g}")
    pts = _annulus_points(r, samples, seed)
    counts = dict(zip(_TAG_TABLE, np.bincount(classify_batch(f, pts, p)["tag_code"], minlength=_TAG_TABLE.size)))
    fractions = {tag: float(counts[tag]) / samples for tag in (ESCAPE_CERTIFIED, NON_ESCAPE_OBSERVED, UNDETERMINED)}
    e2 = float(in_E_mask(f, pts, 2).mean()) if f.d >= 3 else 0.0
    return AnnulusReport(
        r=float(r),
        samples=samples,
        fractions=fractions,
        e2_fraction=e2,
        estimated_nonescape_measure=fractions[NON_ESCAPE_OBSERVED] * annulus_area(r),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Slow-wedge analytics


def b_wedge_halfwidth(r) -> float:
    """Angular half-width 1/(r^2 log r) of the wedge at radius r."""
    return 1.0 / (r * r * np.log(r))


def b_measure_closed_form(r0: float, R: float) -> float:
    """2 (log log R - log log r0), the wedge measure between radii r0 and R."""
    if r0 <= _E:
        raise ValueError("r0 must exceed e")
    if R <= r0:
        raise ValueError("need R > r0")
    return 2.0 * (math.log(math.log(R)) - math.log(math.log(r0)))


def b_measure_quadrature(r0: float, R: float) -> float:
    """Numerical check of the wedge measure: integral of 2/(r log r)."""
    if r0 <= _E or R <= r0:
        raise ValueError("need e < r0 < R")
    from scipy import integrate

    val, _ = integrate.quad(lambda r: 2.0 / (r * math.log(r)), r0, R, limit=200)
    return val


def b_wedge_increment(r: float) -> float:
    """Wedge measure between radii r and 2r (one dyadic step)."""
    return b_measure_closed_form(r, 2.0 * r)


def _wedge_points(r0: float, R: float, samples: int, seed: int) -> np.ndarray:
    """Measure-proportional low-discrepancy sample of B with r in [r0, R]."""
    from scipy.stats import qmc

    u = qmc.Halton(d=2, scramble=True, seed=seed).random(samples)
    v0, v1 = math.log(math.log(r0)), math.log(math.log(R))
    r = np.exp(np.exp(v0 + (v1 - v0) * u[:, 0]))
    theta = 0.5 * math.pi + (2.0 * u[:, 1] - 1.0) * b_wedge_halfwidth(r)
    return r * np.exp(1j * theta)


def counterexample_check(p: CounterexampleParams, R: float, f: ExpPoly, seed: int = 0) -> dict:
    """Verify the wedge is mapped deep into the attracting disk and stays put.

    Samples B with radii in [p.r0, R], asserts log|f| <= -r/4 at every
    sample, classifies each sample's orbit, and cross-checks the wedge
    measure quadrature against the closed form.  Refuses R where the wedge
    is narrower than MIN_HALF_WIDTH (R above about 7.8e4): there the samples
    fall outside it, since pi/2 is rounded to a double.
    """
    if not (p.r0 < R < math.inf):
        raise ValueError("need R > r0, R finite")
    if b_wedge_halfwidth(R) < MIN_HALF_WIDTH:
        raise ValueError(f"R={R:.6g} too large: wedge narrower than {MIN_HALF_WIDTH:.3g} rad")
    pts = _wedge_points(p.r0, R, p.samples, seed)
    r = np.abs(pts)
    lm, _, zero = eval_log_batch(f, pts)
    lm = np.where(zero, -np.inf, lm)
    margin = lm + r / 4.0
    violations = int(np.count_nonzero(margin > 0.0))
    res = classify_batch(f, pts)
    nonescape = float(np.count_nonzero(res["tag"] == NON_ESCAPE_OBSERVED)) / p.samples
    closed = b_measure_closed_form(p.r0, R)
    quad = b_measure_quadrature(p.r0, R)
    return {
        "r0": p.r0,
        "R": R,
        "eps": p.eps,
        "samples": p.samples,
        "seed": seed,
        "violations": violations,
        "max_log_margin": float(margin.max()),
        "max_log_abs": float(lm.max()),
        "inside_eps_disk": bool(float(lm.max()) < math.log(p.eps)),
        "nonescape_fraction": nonescape,
        "b_measure_closed": closed,
        "b_measure_quadrature": quad,
        "quadrature_rel_err": abs(quad - closed) / closed,
    }


def headline_summary(
    f: ExpPoly,
    radii,
    p: ClassifyParams | None = None,
    samples: int = 20000,
    seed: int = 0,
) -> dict:
    """Annulus scans over a radius ladder with cumulative measure estimates.

    Undetermined samples are never folded silently into either side: the
    cumulative non-escape measure is reported best-case (Undetermined counted
    as escaping) and worst-case (counted as non-escaping), with the matching
    analytic tail bounds alongside.
    """
    if p is None:
        p = ClassifyParams()
    rows = []
    for i, r in enumerate(radii):
        rows.append(annulus_scan(f, r, samples, p, seed=seed + i))
    best = []
    worst = []
    tails = []
    cb = cw = 0.0
    for rep in rows:
        area = annulus_area(rep.r)
        cb += rep.fractions[NON_ESCAPE_OBSERVED] * area
        cw += (rep.fractions[NON_ESCAPE_OBSERVED] + rep.fractions[UNDETERMINED]) * area
        best.append(cb)
        worst.append(cw)
        tails.append(annulus_tail_bound(rep.r, p.alpha))
    return {
        "radii": [rep.r for rep in rows],
        "rows": rows,
        "cumulative_best": best,
        "cumulative_worst": worst,
        "tail_bounds": tails,
        "samples": samples,
        "seed": seed,
    }
