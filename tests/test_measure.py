import math

import numpy as np
import pytest

from expdyn import (
    AnnulusReport,
    CounterexampleParams,
    annulus_area,
    annulus_scan,
    b_measure_closed_form,
    b_measure_quadrature,
    b_wedge_halfwidth,
    counterexample_check,
)
from expdyn.measure import _annulus_points


# ---------------------------------------------------------------------------
# Annulus scans


def test_annulus_area():
    assert annulus_area(2.0) == pytest.approx(12.0 * math.pi)


def test_annulus_points_area_uniform():
    pts = _annulus_points(4.0, 5000, seed=0)
    r = np.abs(pts)
    assert np.all((r >= 4.0) & (r <= 8.0))
    # area-uniform: about 5/12 of the mass below r sqrt(7/4)... use the CDF:
    # P(rho <= t) = (t^2 - r^2) / (3 r^2)
    t = 6.0
    frac = np.mean(r <= t)
    assert frac == pytest.approx((t * t - 16.0) / 48.0, abs=0.02)


def test_scan_fraction_conservation(sin3):
    rep = annulus_scan(sin3, 5.0, 2000, seed=0)
    assert isinstance(rep, AnnulusReport)
    assert rep.frac_escape + rep.frac_nonescape + rep.frac_undetermined == pytest.approx(1.0)
    assert 0.0 <= rep.e2_fraction <= 1.0
    assert rep.estimated_nonescape_measure == pytest.approx(
        rep.frac_nonescape * annulus_area(5.0)
    )
    with pytest.raises(ValueError):
        annulus_scan(sin3, -1.0, 100)
    with pytest.raises(ValueError):
        annulus_scan(sin3, 5.0, 0)


def test_scan_deterministic_per_seed(sin3):
    a = annulus_scan(sin3, 5.0, 1500, seed=7)
    b = annulus_scan(sin3, 5.0, 1500, seed=7)
    assert a == b
    c = annulus_scan(sin3, 5.0, 1500, seed=8)
    assert c.seed != a.seed


def test_scan_conjugation_symmetry(sin3):
    # sin(z^3) commutes with conjugation, so the non-escape fraction of the
    # upper and lower half annuli agree to sampling error (3 sigma)
    pts = _annulus_points(5.0, 20000, seed=1)
    from expdyn import classify_batch

    res = classify_batch(sin3, pts)
    non = res["tag"] == "NonEscapeObserved"
    upper = non[pts.imag > 0]
    lower = non[pts.imag < 0]
    p = non.mean()
    sigma = math.sqrt(max(p * (1 - p), 1e-9) / len(upper))
    assert abs(upper.mean() - lower.mean()) < 3.0 * sigma + 1e-3


# ---------------------------------------------------------------------------
# Wedge analytics


def test_b_measure_closed_form_example():
    # r0 = e^2, R = e^8: 2 (log 8 - log 2) = 2 log 4
    assert b_measure_closed_form(math.e**2, math.e**8) == pytest.approx(2.0 * math.log(4.0))
    with pytest.raises(ValueError, match="r0 must exceed e"):
        b_measure_closed_form(1.0, 100.0)
    with pytest.raises(ValueError, match="need R > r0"):
        b_measure_closed_form(100.0, 50.0)


def test_b_measure_diverges_linearly_in_tower_height():
    # R = e^(e^k): measure from e^e is 2 (k - 1), unbounded in k
    vals = [b_measure_closed_form(math.e**math.e, math.exp(math.e**k)) for k in (2, 3, 4, 5)]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert all(d == pytest.approx(2.0) for d in diffs)


def test_b_measure_quadrature_matches():
    for r0, R in ((10.0, 100.0), (100.0, 10000.0), (math.e**2, math.e**8)):
        closed = b_measure_closed_form(r0, R)
        quad = b_measure_quadrature(r0, R)
        assert abs(quad - closed) < 0.01 * closed
    with pytest.raises(ValueError, match="need e < r0 < R"):
        b_measure_quadrature(3.0, 2.0)


def test_b_wedge_halfwidth_and_increment():
    assert b_wedge_halfwidth(10.0) == pytest.approx(1.0 / (100.0 * math.log(10.0)))
    # dyadic increments shrink with radius but every one is positive
    incs = [b_measure_closed_form(10.0 * 2**k, 20.0 * 2**k) for k in range(8)]
    assert all(i > 0 for i in incs)
    assert all(b < a for a, b in zip(incs, incs[1:]))


# ---------------------------------------------------------------------------
# Counterexample checks


def test_counterexample_params_validation():
    with pytest.raises(ValueError, match="r0 must be finite and exceed e"):
        CounterexampleParams(r0=2.0)
    with pytest.raises(ValueError):
        CounterexampleParams(eps=-1.0)
    with pytest.raises(ValueError):
        CounterexampleParams(samples=0)


def test_counterexample_check(h_example):
    p = CounterexampleParams(r0=100.0, eps=0.1, samples=500)
    rep = counterexample_check(p, 10000.0, f=h_example, seed=0)
    assert rep["violations"] == 0
    assert rep["max_log_margin"] <= 0.0
    assert rep["inside_eps_disk"]
    assert rep["nonescape_fraction"] >= 0.99
    assert rep["quadrature_rel_err"] < 0.01
    with pytest.raises(ValueError, match="need R > r0, R finite"):
        counterexample_check(p, 50.0, f=h_example)


def test_counterexample_deterministic(h_example):
    p = CounterexampleParams(samples=200)
    a = counterexample_check(p, 1000.0, f=h_example, seed=3)
    b = counterexample_check(p, 1000.0, f=h_example, seed=3)
    assert a == b
