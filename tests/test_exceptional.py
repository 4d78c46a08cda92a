import cmath
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expdyn import (
    ExpPoly,
    ExpPolyTerm,
    NotApplicable,
    Poly,
    c1_constant,
    dist_to_E1_lower,
    dist_to_E1_measured,
    e2_measure,
    in_E,
    in_E_mask,
    pair_poly,
    r0_bound,
)
from expdyn.exceptional import ExceptionalParams, _far_member, _pair_polys, write_e2_csv
from expdyn.measure import _annulus_points


def test_params_require_d3(sinz):
    with pytest.raises(ValueError):
        ExceptionalParams.for_function(sinz)
    with pytest.raises(ValueError):
        in_E(sinz, 1.0, 1)


def test_pair_poly(cosh3):
    pp = pair_poly(cosh3, 0, 1)
    assert pp.poly.coeff(3) == 2.0
    with pytest.raises(ValueError):
        pair_poly(cosh3, 1, 1)


def test_level_validation(cosh3):
    with pytest.raises(ValueError):
        in_E(cosh3, 2.0, 3)


def test_spoke_membership(cosh3):
    # Re(2 z^3) vanishes on arg z = pi/6 + k pi/3: those rays are deep in E_1.
    for k in range(6):
        z = 10.0 * cmath.exp(1j * (math.pi / 6 + k * math.pi / 3))
        assert in_E(cosh3, z, 1)
    # On the real axis Re(2 z^3) = 2 r^3 dwarfs the |p|^(nu/d) threshold.
    assert not in_E(cosh3, 10.0, 1)
    assert not in_E(cosh3, 10.0, 2)


def test_nesting_e1_in_e2(cosh3):
    rng = np.random.default_rng(3)
    pts = (5 + 10 * rng.random(500)) * np.exp(2j * math.pi * rng.random(500))
    e1 = in_E_mask(cosh3, pts, 1)
    e2 = in_E_mask(cosh3, pts, 2)
    assert np.all(~e1 | e2)


def test_zero_of_pair_poly_is_member(cosh3):
    assert in_E(cosh3, 0.0, 1)


def test_spoke_width_scaling(cosh3):
    # Half-width of the E_1 spoke at radius r scales like r^(nu - d) = r^(-5/2):
    # inside at offset ~ 0.3 w(r), outside at ~ 3 w(r).
    for r in (10.0, 20.0):
        w = (2 * r**3) ** (1.0 / 6.0) / (6 * r**3)  # threshold / |grad Re p|
        base = math.pi / 6
        assert in_E(cosh3, r * cmath.exp(1j * (base + 0.3 * w)), 1)
        assert not in_E(cosh3, r * cmath.exp(1j * (base + 3.0 * w)), 1)


def test_r0_bound(cosh3):
    # Pair polynomial 2 z^3: Cauchy bound 1, plus the unit safety margin.
    assert r0_bound(cosh3) == pytest.approx(2.0)


def test_c1_constant(cosh3):
    assert c1_constant(cosh3) == pytest.approx(2.0 ** (-5.0 / 6.0) / 75.0)


def test_dist_lower_applicability(cosh3):
    z = 15.0 * cmath.exp(1j * math.pi / 6)
    with pytest.raises(NotApplicable):
        dist_to_E1_lower(cosh3, z)  # inside E_2
    with pytest.raises(NotApplicable):
        dist_to_E1_lower(cosh3, 10.0)  # below the validity radius
    got = dist_to_E1_lower(cosh3, 60.0)
    assert got == pytest.approx(c1_constant(cosh3) * 60.0**-1.5)


def test_dist_measured(cosh3):
    # z on a spoke: distance 0; z on the real axis: the nearest spoke is the
    # arg = pi/6 ray, about r sin(pi/6) away.
    assert dist_to_E1_measured(cosh3, 10.0 * cmath.exp(1j * math.pi / 6), 0.01, 1.0) == 0.0
    # just off a spoke the ring search pins the distance to within one step
    z = 60.0 * cmath.exp(1j * math.pi / 6) + 0.002 * cmath.exp(1j * (math.pi / 6 + math.pi / 2))
    d = dist_to_E1_measured(cosh3, z, 0.0005, 0.05)
    assert 0.0 < d <= 0.0025
    assert d >= c1_constant(cosh3) * 60.0**-1.5
    # coarse rings step over the razor-thin spokes and the search returns
    # max_radius, a one-sided over-estimate
    assert dist_to_E1_measured(cosh3, 60.0, 0.5, 2.0) == 2.0
    with pytest.raises(ValueError):
        dist_to_E1_measured(cosh3, 1.0, 0.0, 1.0)


def test_e2_measure_positive_and_stable(cosh3):
    a = e2_measure(cosh3, 10.0, 20.0, 32, 2048)
    b = e2_measure(cosh3, 10.0, 20.0, 64, 4096)
    assert a > 0
    assert abs(a - b) < 0.05 * a
    with pytest.raises(ValueError):
        e2_measure(cosh3, 20.0, 10.0, 32, 4096)
    with pytest.raises(ValueError):
        e2_measure(cosh3, 10.0, 20.0, 8, 4096)


def test_e2_measure_analytic_scale(cosh3):
    # Six spokes of angular half-width 2 (2 r^3)^(1/6) / (6 r^3) give measure
    # ~ integral of 12 r * w(r) dr = 8 * 2^(1/6) * (r_lo^-1/2 - r_hi^-1/2).
    got = e2_measure(cosh3, 10.0, 20.0, 48, 2048)
    expected = 8 * 2 ** (1.0 / 6.0) * (10.0**-0.5 - 20.0**-0.5)
    assert got == pytest.approx(expected, rel=0.01)


def test_e2_measure_plain_midpoint_agrees_at_coarse_radii(cosh3):
    refined = e2_measure(cosh3, 10.0, 20.0, 32, 4096)
    plain = e2_measure(cosh3, 10.0, 20.0, 32, 1 << 16, refine=False)
    assert plain == pytest.approx(refined, rel=0.05)


def test_e2_measure_spoke_across_theta_zero(sin3, h_example):
    # sin_z3 has pair polynomial 2i z^3 = 2 (e^{i pi/6} z)^3, so it is
    # example_h rotated by pi/6 and has a spoke centred on theta = 0.
    got = e2_measure(sin3, 10.0, 20.0, 64, 4096)
    assert got == pytest.approx(e2_measure(h_example, 10.0, 20.0, 64, 4096), rel=1e-9)


def test_e2_measure_matches_brute_force_count(sin3):
    # Midpoint rule over 16 radii x 2^20 angles of the plain membership test,
    # counted in chunks of angles to keep memory small.
    r_min, r_max, nr, ntheta, chunk = 10.0, 10.16, 16, 1 << 20, 1 << 16
    dr, dtheta = (r_max - r_min) / nr, 2.0 * math.pi / ntheta
    total = 0.0
    for i in range(nr):
        r = r_min + (i + 0.5) * dr
        count = 0
        for k0 in range(0, ntheta, chunk):
            thetas = (np.arange(k0, k0 + chunk) + 0.5) * dtheta
            count += int(in_E_mask(sin3, r * np.exp(1j * thetas), 2).sum())
        total += count * dtheta * r * dr
    assert e2_measure(sin3, r_min, r_max, nr, 4096) == pytest.approx(total, rel=1e-3)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
@example(math.pi / 6)  # puts a spoke of cosh3 on theta = 0
def test_e2_measure_rotation_invariant(cosh3, phi):
    # cosh3(e^{i phi} z) multiplies each frequency b by e^{3 i phi}.
    turn = cmath.exp(3j * phi)
    rotated = ExpPoly(3, [ExpPolyTerm(t.Q, t.b * turn) for t in cosh3.terms])
    got = e2_measure(rotated, 10.0, 20.0, 16, 4096)
    assert got == pytest.approx(e2_measure(cosh3, 10.0, 20.0, 16, 4096), rel=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1e103, 1e120, 1e200])
def test_membership_where_pair_polynomial_overflows(sin3, r):
    # |2i z^3| overflows doubles here.  The spokes are about r^-2.5 rad wide,
    # far below the spacing of doubles near k pi/3, so only theta = 0 and pi,
    # where z^3 is exactly real, sit on a spoke in floating point.
    theta = np.linspace(0.05, 2.0 * math.pi - 0.05, 400)
    off = r * np.exp(1j * theta[np.abs(np.sin(3.0 * theta)) > 1e-3])
    on = np.array([r, -r], dtype=complex)
    for level in (1, 2):
        assert not in_E_mask(sin3, off, level).any()
        assert in_E_mask(sin3, on, level).all()
    # The sample of the far annulus scan: none of it lies in E1 or E2.
    pts = _annulus_points(1e103, 20000, 0)
    assert not in_E_mask(sin3, pts, 1).any()
    assert not in_E_mask(sin3, pts, 2).any()


@pytest.mark.parametrize("name", ["sin3", "hemke", "three_term"])
def test_scale_free_membership_matches_direct_form(name, request):
    # Where p(z) is finite both forms apply; they agree away from the
    # boundary of the set.
    f = request.getfixturevalue(name)
    params = ExceptionalParams.for_function(f)
    rng = np.random.default_rng(3)
    z = 10.0 ** (0.5 + 2.5 * rng.random(20000)) * np.exp(2j * math.pi * rng.random(20000))
    for pp in _pair_polys(f):
        w = pp.poly(z)
        ratio = np.abs(w.real) / np.abs(w) ** (params.nu / params.d)
        for level in (1, 2):
            clear = np.abs(ratio / level - 1.0) > 1e-6
            direct = ratio < level
            assert direct[clear].any() and not direct[clear].all()
            np.testing.assert_array_equal(_far_member(pp.poly, z, level, params)[clear], direct[clear])


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=2.0, max_value=100.0),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from([1, 2]),
)
def test_in_E_mask_rotation_invariant(cosh3, phi, r, k, offset, level):
    # The rotated function g(z) = cosh3(e^{i phi} z) has frequencies
    # b e^{3 i phi}, so z lies in E(g) exactly when w = e^{i phi} z lies in
    # E(cosh3).  w is drawn within a few half-widths of the spoke at
    # pi/6 + k pi/3 and kept away from the set boundary, where rounding of
    # the rotation could flip the answer.
    turn = cmath.exp(3j * phi)
    rotated = ExpPoly(3, [ExpPolyTerm(t.Q, t.b * turn) for t in cosh3.terms])
    half = level * 2.0 ** (-5.0 / 6.0) * r**-2.5 / 3.0
    w = r * cmath.exp(1j * (math.pi / 6 + k * math.pi / 3 + offset * half))
    p = 2.0 * w**3
    assume(abs(abs(p.real) / (level * abs(p) ** (1.0 / 6.0)) - 1.0) > 1e-6)
    z = w * cmath.exp(-1j * phi)
    assert in_E(rotated, z, level) == in_E(cosh3, w, level)


def test_pair_polys_do_not_keep_function_alive():
    f = ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)])
    ref = weakref.ref(f)
    in_E_mask(f, np.array([10.0 + 1j]), 2)
    del f
    gc.collect()
    assert ref() is None


def test_write_csv(tmp_path):
    path = tmp_path / "e2.csv"
    write_e2_csv(path, [(10, 20, 32, 4096, 0.85)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r_lo,r_hi,nr,ntheta,measure"
    assert len(lines) == 2


def test_three_pair_function():
    f = ExpPoly(
        3,
        [
            ExpPolyTerm(Poly([1]), 1 + 0j),
            ExpPolyTerm(Poly([1]), -1 + 0j),
            ExpPolyTerm(Poly([1]), 1j),
        ],
    )
    # membership is the union over all three unordered pairs
    pts = 8.0 * np.exp(2j * math.pi * np.arange(360) / 360)
    m = in_E_mask(f, pts, 1)
    assert m.any() and not m.all()
