import cmath
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from expdyn import (
    ExpPoly,
    ExpPolyTerm,
    Poly,
    Tiling,
    c1_constant,
    dist_to_E1_measured,
    e2_measure,
    good_square_near,
    in_E_mask,
    is_good_square,
)
from expdyn import exceptional
from expdyn.exceptional import E2_COLUMNS, _disc_clear, _expo, _far_member, _pair_polys
from expdyn.grid import good_square_threshold
from expdyn.measure import _annulus_points
from expdyn.report import write_csv


def test_params_require_d3(sinz):
    with pytest.raises(ValueError):
        _expo(sinz)
    with pytest.raises(ValueError):
        in_E_mask(sinz, 1.0, 1)


def test_pair_poly(cosh3):
    (p,) = _pair_polys(cosh3)
    assert p.coeff(3) == 2.0


def test_level_validation(cosh3):
    with pytest.raises(ValueError):
        in_E_mask(cosh3, 2.0, 3)


def test_spoke_membership(cosh3):
    # Re(2 z^3) vanishes on arg z = pi/6 + k pi/3: those rays are deep in E_1.
    for k in range(6):
        z = 10.0 * cmath.exp(1j * (math.pi / 6 + k * math.pi / 3))
        assert in_E_mask(cosh3, z, 1)
    # On the real axis Re(2 z^3) = 2 r^3 dwarfs the |p|^(nu/d) threshold.
    assert not in_E_mask(cosh3, 10.0, 1)
    assert not in_E_mask(cosh3, 10.0, 2)


def test_nesting_e1_in_e2(cosh3):
    rng = np.random.default_rng(3)
    pts = (5 + 10 * rng.random(500)) * np.exp(2j * math.pi * rng.random(500))
    e1 = in_E_mask(cosh3, pts, 1)
    e2 = in_E_mask(cosh3, pts, 2)
    assert np.all(~e1 | e2)


def test_zero_of_pair_poly_is_member(cosh3):
    assert in_E_mask(cosh3, 0.0, 1)


def test_spoke_width_scaling(cosh3):
    # Half-width of the E_1 spoke at radius r scales like r^(nu - d) = r^(-5/2):
    # inside at offset ~ 0.3 w(r), outside at ~ 3 w(r).
    for r in (10.0, 20.0):
        w = (2 * r**3) ** (1.0 / 6.0) / (6 * r**3)  # threshold / |grad Re p|
        base = math.pi / 6
        assert in_E_mask(cosh3, r * cmath.exp(1j * (base + 0.3 * w)), 1)
        assert not in_E_mask(cosh3, r * cmath.exp(1j * (base + 3.0 * w)), 1)


def test_c1_constant(cosh3):
    assert c1_constant(cosh3) == pytest.approx(2.0 ** (-5.0 / 6.0) / 75.0)


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
    # a non-finite step or radius would return a false "nothing within",
    # a NaN, or ring forever
    for step, max_radius in ((math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError):
            dist_to_E1_measured(cosh3, 60.0, step, max_radius)


# e^{z^3 + i z} + 2 e^{-z^3 + 0.5 z^2} - i z e^{i z^3 - 0.3 z^2}: three
# pairs whose spokes P bends away from the rays of the leading terms.
THREE_TERM_P = ExpPoly(
    3,
    [
        ExpPolyTerm(Poly([1]), 1 + 0j, Poly([0, 1j])),
        ExpPolyTerm(Poly([2]), -1 + 0j, Poly([0, 0, 0.5])),
        ExpPolyTerm(Poly([0, -1j]), 1j, Poly([0, 0, -0.3])),
    ],
)
RING_FUNCTIONS = ("sin3", "h_example", "cosh3", "three_term_p")


def _ring_function(name, request):
    return THREE_TERM_P if name == "three_term_p" else request.getfixturevalue(name)


def _spoke(f, r, k):
    """Angle and leading-order level-1 angular half-width of a spoke on |z| = r.

    The spoke is that of the first pair polynomial p through the leading-order
    ray (pi/2 - arg c_d + k pi)/d, located as a root of Re p on |z| = r.
    """
    p = _pair_polys(f)[0]
    cd = p.coeffs[-1]
    ray = (math.pi / 2 - cmath.phase(cd) + k * math.pi) / f.d
    theta = brentq(lambda t: p(r * cmath.exp(1j * t)).real, ray - 0.3, ray + 0.3, xtol=1e-15)
    size = abs(cd) * r**f.d
    return theta, size ** _expo(f) / (f.d * size)


def _square_probe(centre, side):
    """The 16 points of a square's edges, four per edge from each corner
    counter-clockwise, and its centre: the probe set of a good square."""
    h = side / 2.0
    t = np.arange(4) / 4.0 * side
    x0, x1, y0, y1 = centre.real - h, centre.real + h, centre.imag - h, centre.imag + h
    edges = [x0 + t + 1j * y0, x1 + 1j * (y0 + t), x1 - t + 1j * y1, x0 + 1j * (y1 - t)]
    return np.append(np.concatenate(edges), centre)


def _near_spoke_search(f, r, k, offset, scale, rings, square):
    """Points, step and max_radius of a ring search near a level-1 spoke edge.

    The centre sits offset spoke half-widths beyond the edge of _spoke(f, r,
    k); the search is a good-square probe (16 boundary points and the
    centre, step side/8) or a single point, at a scale of the spoke's arc
    width.
    """
    theta, half = _spoke(f, r, k)
    centre = r * cmath.exp(1j * (theta + (1.0 + offset) * half))
    side = scale * r * half
    if square:
        pts = _square_probe(centre, side)
    else:
        pts = np.array([centre])
    step = side / 8.0
    return pts, step, rings * step


# sin_z3 has the one pair polynomial 2i z^3, so its level-1 set is the polar
# set |sin 3 theta| < C_SIN3 r^(-5/2).
C_SIN3 = 2.0 ** (-5.0 / 6.0)


def _sin3_member(w):
    return np.abs(np.sin(3.0 * np.angle(w))) < C_SIN3 * np.abs(w) ** -2.5


def _sin3_distance(z):
    """Distance from z to the level-1 set of sin_z3, from the polar closed form.

    The set is the disc |z| <= C_SIN3^(2/5) and six spokes whose edges are
    the curves theta = k pi/3 +- arcsin(C_SIN3 rho^(-5/2)) / 3; outside it the
    distance is the least distance to an edge curve of the three spokes
    nearest in angle, each minimised over rho, or to the disc.
    """
    if _sin3_member(z):
        return 0.0
    r, r_disc = abs(z), C_SIN3**0.4
    nearest = round(3.0 * cmath.phase(z) / math.pi)
    best = r - r_disc
    for k in (nearest - 1, nearest, nearest + 1):
        for sign in (1.0, -1.0):

            def gap(rho):
                edge = k * math.pi / 3.0 + sign * math.asin(min(1.0, C_SIN3 * rho**-2.5)) / 3.0
                return abs(z - rho * cmath.exp(1j * edge))

            res = minimize_scalar(gap, bounds=(r_disc, 2.0 * r), method="bounded", options={"xatol": 1e-13 * r})
            best = min(best, res.fun)
    return best


def _ring_resolves(z0, radius, dense=32):
    """Whether the circle |w - z0| = radius runs inside the level-1 set of
    sin_z3 (closed form) along an arc of at least two spacings of a ring of
    dist_to_E1_measured, so that the ring has a point well inside the arc."""
    n = exceptional.RING_POINTS * dense
    ring = z0 + radius * np.exp(2j * math.pi * np.arange(n) / n)
    inside = _sin3_member(ring)
    if inside.all():
        return True
    # Longest circular run of members, read off the cells between non-members.
    cuts = np.flatnonzero(~inside)
    runs = np.diff(np.append(cuts, cuts[0] + inside.size)) - 1
    return int(runs.max()) >= 2 * dense


def test_dist_measured_brackets_closed_form_distance(sin3):
    # Ring search near the spokes of sin_z3 against the distance d* from the
    # closed form: the search never reports less than min(d*, max_radius),
    # and where the first ring beyond d* crosses the spoke along an arc the
    # 64 ring points must hit, it reports at most d* + step.
    rng = np.random.default_rng(5)
    resolved = 0
    for _ in range(80):
        r, k = 5.0 + 50.0 * rng.random(), int(rng.integers(6))
        offset, scale = 10.0 ** rng.uniform(-1.0, 1.7), 10.0 ** rng.uniform(-1.3, 2.0)
        pts, step, max_radius = _near_spoke_search(sin3, r, k, offset, scale, 0.5 + 39.5 * rng.random(), rng.random() < 0.5)
        measured = dist_to_E1_measured(sin3, pts, step, max_radius)
        dists = [_sin3_distance(complex(z)) for z in pts]
        d_star = min(dists)
        tol = 1e-12 * r
        assert min(d_star, max_radius) <= measured + tol
        first_ring = max(1, math.ceil(d_star / step)) * step
        if first_ring <= max_radius and _ring_resolves(complex(pts[int(np.argmin(dists))]), first_ring):
            resolved += d_star > 0
            assert measured <= d_star + step + tol
    assert resolved >= 20


@pytest.mark.parametrize("name", RING_FUNCTIONS)
def test_disc_test_is_sound(request, name):
    # Wherever the disc test clears a disc, no point of a dense sample of it,
    # interior and boundary circle, is a level-1 member.
    f = _ring_function(name, request)
    rng = np.random.default_rng(11)
    outcomes = set()
    for _ in range(30):
        r, k = 5.0 + 55.0 * rng.random(), int(rng.integers(6))
        offset, scale = -4.0 + 12.0 * rng.random(), 10.0 ** rng.uniform(-1.0, 1.3)
        pts, _, max_radius = _near_spoke_search(f, r, k, offset, scale, 1.0 + 39.0 * rng.random(), True)
        c = complex(pts.mean())
        R = float(np.abs(pts - c).max()) + max_radius
        clear = _disc_clear(f, c, R)
        outcomes.add(clear)
        if clear:
            assert not in_E_mask(f, _disc_sample(rng, c, R), 1).any()
    assert outcomes == {True, False}


def _disc_sample(rng, c, R):
    """10^5 points of D(c, R): 90 000 uniform in the interior, 10 000 on the circle."""
    rho = R * np.concatenate([np.sqrt(rng.random(90_000)), np.ones(10_000)])
    return c + rho * np.exp(2j * math.pi * rng.random(100_000))


@pytest.mark.parametrize("name", RING_FUNCTIONS)
def test_good_square_verdict_is_sound(request, name):
    # Tiles swept outward across the edges of located spokes.  Wherever a tile
    # is good, the ring search from its 16 boundary points and centre (step
    # side/8, up to thresh + side/4) finds no level-1 point within thresh, and
    # neither does a dense sample of D(centre, side/sqrt2 + thresh).
    f = _ring_function(name, request)
    tiling = Tiling(f, 5.0, 60.0)
    rng = np.random.default_rng(7)
    verdicts = set()
    for r, k in ((6.0, 0), (20.0, 3), (55.0, 5)):
        theta, half = _spoke(f, r, k)
        edge = tiling.tile_at(r * cmath.exp(1j * (theta + half)))
        side = edge.side
        reach = good_square_threshold(f, edge, tiling.sigma) + 2.0 * side
        tiles = {}
        for s in np.arange(-0.5 * side, reach, side / 8.0):
            for sign in (1, -1):
                tile = tiling.tile_at(r * cmath.exp(1j * (theta + sign * (half + s / r))))
                tiles[tile.center] = tile
        for tile in tiles.values():
            thresh = good_square_threshold(f, tile, tiling.sigma)
            good = is_good_square(f, tile, tiling.sigma)
            verdicts.add(good)
            if good:
                pts = _square_probe(tile.center, tile.side)
                assert dist_to_E1_measured(f, pts, tile.side / 8.0, thresh + tile.side / 4.0) > thresh
                disc = _disc_sample(rng, tile.center, tile.side / math.sqrt(2.0) + thresh)
                assert not in_E_mask(f, disc, 1).any()
    assert verdicts == {True, False}


def test_good_square_makes_no_membership_call(sin3, monkeypatch):
    tiling = Tiling(sin3, 10.0, 20.0)
    tile = good_square_near(tiling, 15.0)
    rings = int((good_square_threshold(sin3, tile, tiling.sigma) + tile.side / 4) / (tile.side / 8))
    assert rings > 20  # what a ring search to the same radius would sample
    calls = []
    member = exceptional.in_E_mask
    monkeypatch.setattr(exceptional, "in_E_mask", lambda *a: calls.append(a) or member(*a))
    assert is_good_square(sin3, tile, tiling.sigma)
    assert len(calls) == 0


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


@pytest.mark.parametrize("r_min, r_max", [(10.0, 20.0), (20.0, 40.0)])
def test_e2_measure_closed_form(sin3, r_min, r_max):
    # sin_z3 has the pair polynomial p = 2i z^3, so on |z| = r the level-2
    # set is |sin 3 theta| < 2^(1/6) r^(-5/2): six arcs of total angle
    # 4 arcsin(2^(1/6) r^(-5/2)).
    nr = 64
    dr = (r_max - r_min) / nr
    radii = r_min + (np.arange(nr) + 0.5) * dr
    occupied = 4.0 * np.arcsin(2.0 ** (1.0 / 6.0) * radii**-2.5)
    midpoint = math.fsum(occupied * radii * dr)
    got = e2_measure(sin3, r_min, r_max, nr, 4096)
    assert got == pytest.approx(midpoint, rel=1e-12)
    # to leading order the integral of 4 * 2^(1/6) r^(-3/2)
    leading = 8.0 * 2.0 ** (1.0 / 6.0) * (r_min**-0.5 - r_max**-0.5)
    assert got == pytest.approx(leading, rel=1e-4)


def test_e2_measure_of_whole_circles(sin3):
    # For r < 2^(1/15), about 1.047, the level-2 arcs |sin 3 theta| <
    # 2^(1/6) r^(-5/2) of test_e2_measure_closed_form fill the circle, so the
    # midpoint rule gives the annulus area exactly.
    assert e2_measure(sin3, 0.5, 1.0, 16, 64) == math.pi * (1.0 - 0.25)


def _indicator_measure(f, r_min, r_max, nr, ntheta, chunk=1 << 16):
    """Midpoint rule over nr radii x ntheta angles of the plain level-2
    membership test, counted in chunks of angles to keep memory small."""
    dr, dtheta = (r_max - r_min) / nr, 2.0 * math.pi / ntheta
    total = 0.0
    for i in range(nr):
        r = r_min + (i + 0.5) * dr
        count = 0
        for k0 in range(0, ntheta, chunk):
            thetas = (np.arange(k0, min(k0 + chunk, ntheta)) + 0.5) * dtheta
            count += int(in_E_mask(f, r * np.exp(1j * thetas), 2).sum())
        total += count * dtheta * r * dr
    return total


def test_e2_measure_plain_midpoint_agrees_at_coarse_radii(cosh3):
    plain = _indicator_measure(cosh3, 10.0, 20.0, 32, 1 << 16)
    assert plain == pytest.approx(e2_measure(cosh3, 10.0, 20.0, 32, 4096), rel=0.05)


def test_e2_measure_spoke_across_theta_zero(sin3, h_example):
    # sin_z3 has pair polynomial 2i z^3 = 2 (e^{i pi/6} z)^3, so it is
    # example_h rotated by pi/6 and has a spoke centred on theta = 0.
    got = e2_measure(sin3, 10.0, 20.0, 64, 4096)
    assert got == pytest.approx(e2_measure(h_example, 10.0, 20.0, 64, 4096), rel=1e-9)


def test_e2_measure_matches_brute_force_count(sin3):
    total = _indicator_measure(sin3, 10.0, 10.16, 16, 1 << 20)
    assert e2_measure(sin3, 10.0, 10.16, 16, 4096) == pytest.approx(total, rel=1e-3)


def test_e2_measure_closed_form_far_out(sin3):
    # At r = 1e4 the spokes of sin_z3 still span many doubles and the estimate
    # matches the closed form; e2measure refuses from about 1.4e4 on
    # (test_cli.py::test_e2measure_refuses_unresolved_spokes).
    r_min, r_max, nr = 5e3, 1e4, 16
    dr = (r_max - r_min) / nr
    radii = r_min + (np.arange(nr) + 0.5) * dr
    closed = math.fsum(4.0 * np.arcsin(2.0 ** (1.0 / 6.0) * radii**-2.5) * radii * dr)
    assert e2_measure(sin3, r_min, r_max, nr, 4096) == pytest.approx(closed, rel=1e-5)


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
        assert in_E_mask(sin3, on[0], level) and not in_E_mask(sin3, off[0], level)
    # The sample of the far annulus scan: none of it lies in E1 or E2.
    pts = _annulus_points(1e103, 20000, 0)
    assert not in_E_mask(sin3, pts, 1).any()
    assert not in_E_mask(sin3, pts, 2).any()


@pytest.mark.parametrize("name", ["sin3", "hemke", "three_term"])
def test_scale_free_membership_matches_direct_form(name, request):
    # Where p(z) is finite both forms apply; they agree away from the
    # boundary of the set.
    f = request.getfixturevalue(name)
    expo = _expo(f)
    rng = np.random.default_rng(3)
    z = 10.0 ** (0.5 + 2.5 * rng.random(20000)) * np.exp(2j * math.pi * rng.random(20000))
    for p in _pair_polys(f):
        w = p(z)
        ratio = np.abs(w.real) / np.abs(w) ** expo
        for level in (1, 2):
            clear = np.abs(ratio / level - 1.0) > 1e-6
            direct = ratio < level
            assert direct[clear].any() and not direct[clear].all()
            np.testing.assert_array_equal(_far_member(p, z, level, expo)[clear], direct[clear])


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
    assert in_E_mask(rotated, z, level) == in_E_mask(cosh3, w, level)


def test_pair_polys_do_not_keep_function_alive():
    f = ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)])
    ref = weakref.ref(f)
    in_E_mask(f, np.array([10.0 + 1j]), 2)
    del f
    gc.collect()
    assert ref() is None


def test_write_csv(tmp_path):
    path = tmp_path / "e2.csv"
    write_csv(path, E2_COLUMNS, [(10, 20, 32, 4096, 0.85)])
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
