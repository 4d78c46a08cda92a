"""Trap regions at the fixed point 0, checked against mpmath oracles."""

from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv, mp

from expdyn import (
    NON_ESCAPE_OBSERVED,
    ClassifyParams,
    ExpPoly,
    ExpPolyTerm,
    Poly,
    bundled_function,
    classify_batch,
)
from expdyn import traps
from expdyn.traps import TrapRegion, trap_at_0

BUNDLED = ("sin_z", "sin_z2", "sin_z3", "example_h")


def test_bundled_trap_shapes():
    sinz = trap_at_0(bundled_function("sin_z"), 50.0)
    # sin z = z - z^3/6 + ...: w = 3/z^2, and the slope-0 member is the
    # two-lobed petal {Re(3/z^2) > 3/rho^2}.
    assert sinz.kind == "petal" and sinz.m == 2
    assert sinz.c == 3.0
    rho0, t0, A0 = sinz.members[0]
    assert rho0 == sinz.rho and t0 == 0.0
    assert 3.0 / rho0**2 <= A0 <= 3.0 / rho0**2 * (1 + 1e-12)
    # Two wedges follow, at rho/2 and rho/4, steeper and further out in w.
    (r1, t1, A1), (r2, t2, A2) = sinz.members[1:]
    assert (r1, r2) == (sinz.rho / 2, sinz.rho / 4)
    assert 6.1 < t1 < 6.2 and 26.1 < t2 < 26.3
    assert A0 < A1 < A2
    for name in ("sin_z2", "sin_z3", "example_h"):
        trap = trap_at_0(bundled_function(name), 50.0)
        assert trap == TrapRegion("disk", 0.5)
    for name in BUNDLED:
        assert trap_at_0(bundled_function(name), 50.0).rho < 50.0


def test_trap_radius_stays_below_escape_radius():
    f = bundled_function("sin_z3")
    assert trap_at_0(f, 0.3).rho < 0.3
    assert trap_at_0(f, 2.0**-25) is None


@pytest.mark.parametrize(
    "f",
    [
        # f(0) = 2
        ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)]),
        # -sin z: multiplier -1
        ExpPoly(1, [ExpPolyTerm(Poly([0.5j]), 1j), ExpPolyTerm(Poly([-0.5j]), -1j)]),
        # 2 sin z: repelling
        ExpPoly(1, [ExpPolyTerm(Poly([-1j]), 1j), ExpPolyTerm(Poly([1j]), -1j)]),
        # z exp(z^2 + 1): P(0) != 0, so f(0) = 0 cannot be settled exactly
        ExpPoly(2, [ExpPolyTerm(Poly([0, 1]), 1 + 0j, Poly([1]))]),
    ],
    ids=["f0_nonzero", "multiplier_minus_one", "repelling", "P0_nonzero"],
)
def test_no_trap(f):
    assert trap_at_0(f, 50.0) is None


# Each refusal path of trap_at_0: the certifier it must reach, the number of
# radii it tries, and what _tail_up returns on them.  The majorant exponent
# b rho exceeds 64 at every radius rho = 2^-i, i <= 20, for both b = 1e9 and
# b = 2^30, so no radius is tried with a finite tail.
def _sinh_terms(q, b):
    """The terms of q e^(bz) - q e^(-bz) = 2q sinh(bz)."""
    return [ExpPolyTerm(Poly([q]), b + 0j), ExpPolyTerm(Poly([-q]), -b + 0j)]


@pytest.mark.parametrize(
    "f, certifier, tries",
    [
        # 0.5e-9 sinh(1e9 z): |f'(0)| = 0.5, the disk case
        (ExpPoly(1, _sinh_terms(0.25e-9, 1e9)), "_certify_disk", 21),
        # 2^-30 sinh(2^30 z): f'(0) = 1 exactly, the petal case
        (ExpPoly(1, _sinh_terms(2.0**-31, 2.0**30)), "_certify_petal", 21),
        # z exp(z^12): a_1 = 1 and a_2 ... a_11 = 0, so no petal order
        (ExpPoly(12, [ExpPolyTerm(Poly([0, 1]), 1 + 0j)]), None, 0),
    ],
    ids=["disk-tail-too-large", "petal-tail-too-large", "no-petal-order"],
)
def test_trap_refusal_paths(monkeypatch, f, certifier, tries):
    calls = {name: [] for name in ("_tail_up", "_certify_disk", "_certify_petal")}
    for name, log in calls.items():
        def spy(*args, _fn=getattr(traps, name), _log=log):
            _log.append(_fn(*args))
            return _log[-1]

        monkeypatch.setattr(traps, name, spy)
    assert trap_at_0(f, 50.0) is None
    assert calls["_tail_up"] == [None] * tries
    # A refused disk reads False, a refused petal None.
    for name, refused in (("_certify_disk", False), ("_certify_petal", None)):
        assert calls[name] == ([refused] * tries if name == certifier else [])
    pts = np.array([0, 1e-12, 1e-12j, -1e-9, 0.5, -0.3 + 0.2j, 1e-3])
    assert not classify_batch(f, pts, ClassifyParams())["trapped"].any()


# Refusals inside _certify_petal once the tail is finite.  2^-7 sinh(128 z)
# has f'(0) = 1 and a_3 = 128^2/6, so m = 2 and U >= |a_3| rho^2 >= 1 for
# rho >= 2^-5, while its tail is finite from rho = 1/2 on (majorant
# exponent 128 rho <= 64).  2^260 sinh(2^-260 z) has f'(0) = 1 and
# |a_3|^2 = 2^-1040/36 < 2^-1000, whose square root _sqrt_bounds bounds
# below by 0 alone, so no radius certifies.
def _spy_petal(monkeypatch):
    calls = []

    def spy(a, hat, f, m, rho, _fn=traps._certify_petal):
        calls.append((rho, _fn(a, hat, f, m, rho)))
        return calls[-1][1]

    monkeypatch.setattr(traps, "_certify_petal", spy)
    return calls


def test_petal_refused_while_U_reaches_1(monkeypatch):
    calls = _spy_petal(monkeypatch)
    f = ExpPoly(1, _sinh_terms(2.0**-8, 128.0))
    trap = trap_at_0(f, 50.0)
    # rho = 1: the tail is infinite; 1/2 ... 1/32: U >= 1; 1/64: the bound
    # exceeds 1/2; 1/128 certifies the petal, and 1/256 and 1/512 its wedges.
    assert [rho for rho, _ in calls] == [Fraction(1, 2**i) for i in range(10)]
    deltas = [delta for _, delta in calls]
    assert deltas[:6] == [None] * 6
    assert deltas[6] > Fraction(1, 2) >= deltas[7] > deltas[8] > deltas[9]
    assert trap.kind == "petal" and trap.m == 2 and trap.rho == 2.0**-7
    assert [rk for rk, _, _ in trap.members] == [2.0**-7, 2.0**-8, 2.0**-9]
    c = iv.mpc(trap.c.real, trap.c.imag)

    def check(lo, hi):
        z = _arc(trap.rho, lo, hi)
        fz = _iv_eval(f, z)
        if not _sup_abs(fz / z - 1) < 1:
            return False
        return _sup_abs(c / fz**2 - c / z**2 - 1) <= 0.5

    assert _cover_circle(check)


def test_petal_refused_with_a_vanishing_lead(monkeypatch):
    calls = _spy_petal(monkeypatch)
    tails = []

    def spy_tail(*args, _fn=traps._tail_up):
        tails.append(_fn(*args))
        return tails[-1]

    monkeypatch.setattr(traps, "_tail_up", spy_tail)
    f = ExpPoly(1, _sinh_terms(2.0**259, 2.0**-260))
    assert trap_at_0(f, 50.0) is None
    assert [delta for _, delta in calls] == [None] * 21
    assert len(tails) == 21 and None not in tails


def test_wedge_slope_is_capped():
    # z exp(2^-495 z^10) = z + 2^-495 z^11 + ...: delta_k is of order
    # 2^-495 rho_k^10, and the uncapped slope and threshold,
    # t_k ~ 1/(2 delta_k) and A_k ~ 2^495 t_k / rho_k^10, overflow the
    # doubles at rho/4, where trap_at_0 raised OverflowError.
    trap = trap_at_0(ExpPoly(10, [ExpPolyTerm(Poly([0, 1]), 2.0**-495 + 0j)]), 50.0)
    assert [t for _, t, _ in trap.members] == [0.0, traps._MAX_SLOPE, traps._MAX_SLOPE]
    assert all(np.isfinite(A) for _, _, A in trap.members)


def test_sqrt_bounds_bracket_exactly():
    """lo^2 <= x <= hi^2 from 2^-1100 to 2^1100, across the cut-offs at 2^+-1000."""
    two = Fraction(2)
    xs = [two**k * u for k in range(-1100, 1101, 5) for u in (1, Fraction(5, 3), 1 - two**-60)]
    for x in xs + [two**1000 + 1, two**-1000 * (1 + two**-60)]:
        lo, hi = traps._sqrt_bounds(x)
        assert 0 <= lo and lo * lo <= x <= hi * hi


def test_membership_keeps_outward_margin():
    petal = TrapRegion("petal", 1.0, 2, 3.0 + 0j, ((1.0, 0.0, 3.0),))
    # Re(3/z^2) = 3/x^2 on the real axis: x = 1 is the boundary.
    z = np.array([0.5, -0.5, 1.0, 1.0 - 1e-12, 0.0, 0.5j, 0.3 + 0.3j])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        assert petal.contains(z).tolist() == [True, True, False, False, False, False, False]
        disk = TrapRegion("disk", 0.5)
        assert disk.contains(np.array([0.0, 0.49, 0.5, 0.5 * (1 - 1e-12), 0.3 + 0.4j])).tolist() == [
            True,
            True,
            False,
            False,
            False,
        ]


def _contract_traps():
    """The traps whose float members test_members_lie_below_rho sweeps: the
    bundled ones, a small petal, a slope-capped one and a hand-made petal
    whose threshold A = |c| / rho^m lies on its circle."""
    regions = [trap_at_0(bundled_function(name), 50.0) for name in BUNDLED]
    regions.append(trap_at_0(ExpPoly(1, _sinh_terms(2.0**-8, 128.0)), 50.0))
    regions.append(trap_at_0(ExpPoly(10, [ExpPolyTerm(Poly([0, 1]), 2.0**-495 + 0j)]), 50.0))
    regions.append(TrapRegion("petal", 1.0, 2, 3.0 + 0j, ((1.0, 0.0, 3.0),)))
    return regions


@pytest.mark.parametrize("trap", _contract_traps(), ids=[*BUNDLED, "sinh_petal", "slope_capped", "hand_petal"])
def test_members_lie_below_rho(trap):
    # The contract the engine's trap flag rests on: every float member z has
    # |z| < rho, also on and just outside the circles |z| = rho_k, one ulp
    # off in either direction, and at zero, subnormal, NaN and infinite z.
    radii = {rho for rho, *_ in trap.members} | {trap.rho}
    scales = [1.0] + [1.0 + s * eps for eps in (1e-16, 1e-12, 1e-9, 1e-6) for s in (1, -1)]
    ring = np.exp(2j * np.pi * np.arange(4096) / 4096)
    z = np.concatenate([r * k * ring for r in radii for k in scales])
    z = np.concatenate([z, np.nextafter(z.real, np.inf) + 1j * z.imag, np.nextafter(z.real, -np.inf) + 1j * z.imag])
    special = [0.0, 5e-324, 1e-300, 1e-300j, np.nan, np.inf, -np.inf, complex(np.nan, 1.0)]
    z = np.concatenate([z, np.array(special, complex)])
    with np.errstate(all="ignore"):
        inside = trap.contains(z)
        assert inside.any()
        assert (inside <= (np.abs(z) < trap.rho)).all()


def test_wedge_boundaries_on_both_lobes():
    """Points of the boundary of the sin_z trap, on each member's stretch of
    it and on both halves of each wedge: 1e-6 inside reads True, on it and
    1e-6 outside read False, at z and -z alike."""
    trap = trap_at_0(bundled_function("sin_z"), 50.0)
    members = trap.members

    def phi(w, t):
        return w.real + t * abs(w.imag)

    seen = set()
    for k, (_, t, A) in enumerate(members):
        for y in np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 71)]):
            for sign in (1, -1):
                w = complex(A - t * y, sign * y)
                # Only the union's boundary: clear of every other member.
                if any(phi(w, tj) > Aj * (1 - 1e-3) for j, (_, tj, Aj) in enumerate(members) if j != k):
                    continue
                seen.add(k)
                step = 1e-6 * (1 + t) * abs(w)
                for dw, want in ((step, True), (0.0, False), (-step, False)):
                    z = np.sqrt(trap.c / (w + dw))
                    assert trap.contains(np.array([z, -z])).tolist() == [want, want], (k, w, dw)
    assert seen == set(range(len(members)))


# ---------------------------------------------------------------------------
# Oracle: interval arithmetic on the circle |z| = rho


def _iv_eval(f: ExpPoly, z):
    def poly(p, x):
        acc = iv.mpc(0)
        for c in reversed(p.coeffs):
            acc = acc * x + iv.mpc(c.real, c.imag)
        return acc

    zd = z**f.d
    total = iv.mpc(0)
    for t in f.terms:
        total += poly(t.Q, z) * iv.exp(iv.mpc(t.b.real, t.b.imag) * zd + poly(t.P, z))
    return total


def _arc(rho, lo, hi):
    theta = iv.mpf([lo, hi]) * (2 * iv.pi)
    return iv.mpc(rho * iv.cos(theta), rho * iv.sin(theta))


def _sup_abs(x):
    return abs(x).b


def _cover_circle(check, pieces=64, max_depth=8):
    """Whether check(arc) holds on arcs covering the circle, bisecting failures."""
    stack = [(mp.mpf(k) / pieces, mp.mpf(k + 1) / pieces, 0) for k in range(pieces)]
    while stack:
        lo, hi, depth = stack.pop()
        if check(lo, hi):
            continue
        if depth == max_depth:
            return False
        mid = (lo + hi) / 2
        stack += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
    return True


@pytest.mark.parametrize("name", BUNDLED)
def test_trap_certified_by_interval_arithmetic(name, monkeypatch):
    calls = _spy_petal(monkeypatch)
    f = bundled_function(name)
    trap = trap_at_0(f, 50.0)
    rho = trap.rho
    if trap.kind == "disk":
        # Maximum modulus: |f| < rho on the circle gives f(D) inside D.
        assert _cover_circle(lambda lo, hi: _sup_abs(_iv_eval(f, _arc(rho, lo, hi))) < rho)
        return
    m = trap.m
    c = iv.mpc(trap.c.real, trap.c.imag)

    def check(lo, hi):
        z = _arc(rho, lo, hi)
        fz = _iv_eval(f, z)
        # |f(z)/z - 1| < 1 keeps f free of zeros on 0 < |z| <= rho, so
        # h is analytic on the disk and peaks on the circle.
        if not _sup_abs(fz / z - 1) < 1:
            return False
        return _sup_abs(c / fz**m - c / z**m - 1) <= 0.5

    assert _cover_circle(check)
    # So |h| <= 1/2 on |z| <= rho, h = W - w - 1.  On the smaller circles |z| = rho_k the
    # direct enclosure of h is too wide, so each arc takes the mean-value
    # form: h at the arc's centre plus the Cauchy bound
    # |h'| <= (1/2) / (rho - rho_k) times the distance to the centre.
    deltas = {rk: delta for rk, delta in calls}
    for k, (rk, t, A) in enumerate(trap.members):
        delta = deltas[Fraction(rk)]
        # The slope: delta_k sqrt(1 + t_k^2) <= 1/2, exactly.
        assert delta * delta * (1 + Fraction(t) ** 2) <= Fraction(1, 4)
        if k:

            def check_k(lo, hi, rk=rk, delta=delta):
                mid = iv.mpf((lo + hi) / 2) * (2 * iv.pi)
                zc = iv.mpc(rk * iv.cos(mid), rk * iv.sin(mid))
                reach = iv.mpf(rk) * iv.pi * (hi - lo) * 0.5 / (rho - rk)
                h = c / _iv_eval(f, zc) ** m - c / zc**m - 1
                return (abs(h) + reach).b <= (iv.mpf(delta.numerator) / delta.denominator).a

            assert _cover_circle(check_k)
        # The wedge tested with the float margin lies inside D(0, rho_k):
        # there |w| > A_k / (sqrt(1 + t^2) - margin (1 + t)).
        t_iv = iv.mpf(t)
        inner = abs(c) * (iv.sqrt(1 + t_iv**2) - traps._TRAP_MARGIN * (1 + t_iv)) / iv.mpf(A)
        assert inner.b <= iv.mpf(rk) ** m


# ---------------------------------------------------------------------------
# Oracle: trapped orbits in 30-digit arithmetic


def test_trapped_orbits_stay_inside_in_high_precision():
    """Each trapped start enters some member of the trap at its entry step,
    in 30-digit arithmetic, and stays in that member, inside the radius, for
    the rest of the budget.  Before the wedges the first two named starts ran
    the full budget and the third took twice as long to enter; the fourth
    enters the innermost wedge alone.  Each member is entered by some start."""
    f = bundled_function("sin_z")
    p = ClassifyParams()
    trap = trap_at_0(f, p.escape_radius)
    rng = np.random.default_rng(2024)
    named = [-3.125 + 0.0417j, -3.125 - 0.0417j, -0.708 - 1.832j, 0.004 + 0.05j]
    pts = np.concatenate([named, 8.0 * (rng.random(400) - 0.5) + 8.0j * (rng.random(400) - 0.5)])
    res = classify_batch(f, pts, p)
    idx = np.nonzero(res["trapped"])[0][:68]
    assert idx.size == 68 and list(idx[:4]) == [0, 1, 2, 3]
    entered = set()
    with mp.workdps(30):
        c = mp.mpc(trap.c)
        members = [(mp.mpf(t), mp.mpf(A)) for _, t, A in trap.members]

        def inside(z, t, A):
            w = c / z**trap.m
            return w.real + t * abs(w.imag) > A

        for i in idx:
            assert res["tag"][i] == NON_ESCAPE_OBSERVED
            entry = int(res["steps"][i])
            z = mp.mpc(complex(pts[i]))
            for k in range(1, p.max_iter):
                z = mp.sin(z)
                if k == entry:
                    member = next(j for j, (t, A) in enumerate(members) if inside(z, t, A))
                    entered.add(member)
                if k >= entry:
                    assert abs(z) < p.escape_radius
                    assert inside(z, *members[member])
    assert entered == set(range(len(members)))
