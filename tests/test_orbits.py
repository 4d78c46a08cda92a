import cmath
import math

import numpy as np
import pytest
from conftest import RESULT_KEYS
from hypothesis import given, settings, strategies as st
from mpmath import mp

from expdyn import (
    ESCAPE_CERTIFIED,
    NON_ESCAPE_OBSERVED,
    UNDETERMINED,
    BadBase,
    ClassifyParams,
    ExpPoly,
    ExpPolyTerm,
    Poly,
    bundled_function,
    classify_batch,
    iterate_max_modulus,
    log_max_modulus,
)
from expdyn import orbits
from expdyn.measure import _annulus_points
from expdyn.orbits import MAX_DEPTH, TAIL_STEPS


def test_params_validation():
    with pytest.raises(ValueError):
        ClassifyParams(alpha=-1.0)
    with pytest.raises(ValueError):
        ClassifyParams(cert_steps=1)
    with pytest.raises(ValueError):
        ClassifyParams(max_iter=0)
    with pytest.raises(ValueError):
        ClassifyParams(max_iter=2**63)
    assert ClassifyParams(max_iter=2**63 - 1).max_iter == 2**63 - 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(bad):
    with pytest.raises(ValueError):
        ClassifyParams(alpha=bad)
    with pytest.raises(ValueError):
        ClassifyParams(escape_radius=bad)


# ---------------------------------------------------------------------------
# Maximum modulus


def test_log_max_modulus_brackets_truth(cosh3):
    for r in (2.0, 4.0):
        lo, hi = log_max_modulus(cosh3, r)
        truth = r**3 + math.log1p(math.exp(-2 * r**3))
        assert lo <= truth + 1e-9 <= hi
    with pytest.raises(ValueError):
        log_max_modulus(cosh3, -1.0)


def test_log_max_modulus_refuses_past_doubles(sin3, recwarn):
    # At r = 1e100, r^3 = 1e300 still fits in doubles, and so does the bracket.
    lo, hi = log_max_modulus(sin3, 1e100)
    assert lo == 1e300 and hi == pytest.approx(1.0736e300, rel=1e-4)
    # At 1e110, r^3 overflows in the circle samples; at 1e155, r^2 in the slack
    # too.  Neither may return a non-finite bracket or leak a warning.
    for r in (1e110, 1e155):
        with pytest.raises(ValueError, match="not finite"):
            log_max_modulus(sin3, r)
    assert len(recwarn) == 0


def test_iterate_max_modulus_ladder(cosh3):
    ladder = iterate_max_modulus(cosh3, 2.0, 4)
    # First iterate is M(2) ~ e^8 up to the sampling slack.
    assert ladder[0][0] == 0
    assert math.exp(8.0) <= ladder[0][1] <= math.exp(9.0)
    # Second iterate is at the exp(M(2)^3) scale, i.e. depth 1.
    assert ladder[1][0] == 1
    assert ladder[1][1] >= ladder[0][1] ** 3
    assert all(type(d) is int and type(v) is float for d, v in ladder)
    assert ladder == sorted(set(ladder))


def test_iterate_max_modulus_bad_base():
    small = ExpPoly(1, [ExpPolyTerm(Poly([1e-6]), 1 + 0j)])
    with pytest.raises(BadBase):
        iterate_max_modulus(small, 1.0, 3)


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_log_max_modulus_rejects_non_finite_radius(cosh3, r):
    with pytest.raises(ValueError, match="positive and finite"):
        log_max_modulus(cosh3, r)


def test_tower_step_and_ladder_share_the_next_state_rule(cosh3, monkeypatch):
    # One rule gives the next tower state to the orbit engine and to the
    # ladder's rungs past doubles.
    callers = []
    tower_next = orbits._tower_next

    def spy(dep, v, logc, d):
        callers.append(np.ndim(logc))
        return tower_next(dep, v, logc, d)

    monkeypatch.setattr(orbits, "_tower_next", spy)
    assert classify_batch(cosh3, [60.0])["tag"][0] == ESCAPE_CERTIFIED
    # The engine passes one log c per orbit.
    assert callers and set(callers) == {1}
    callers.clear()
    ladder = iterate_max_modulus(cosh3, 2.0, 4)
    # Rungs 0 and 1 come from circle sampling, 2 and 3 from the tower step.
    assert [depth for depth, _ in ladder] == [0, 1, 2, 3]
    assert callers == [0, 0]


# ---------------------------------------------------------------------------
# Classification


def _abs(state):
    """|z| of an engine state as a canonical (depth, val) pair, which compares
    as the magnitudes do: in direct mode val is |z| and depth is 0."""
    depth, val = orbits._canon_arrays(np.array([state["depth"]]), np.array([state["val"]], float))
    return int(depth[0]), float(val[0])


def test_obvious_escape(cosh3, orbit_walk):
    res, states = orbit_walk(cosh3, 60.0)
    assert res["tag"] == ESCAPE_CERTIFIED
    assert res["steps"] <= 10
    assert all(st["cond"] for st in states[-3:])
    assert _abs(states[-1]) > (0, 60.0)


def test_step_rebuilds_from_the_log_value(orbit_walk):
    # At z0 = 701 + 0.5i the exponent of e^z exceeds 700, the limit of the
    # exact term sum, while f = 1e-6 e^z + e^-z, with log|f| about 687, stays
    # below the promotion cap 690: the direct step rebuilds z1 from the
    # log-domain value.
    f = ExpPoly(1, [ExpPolyTerm(Poly([1e-6]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)])
    z0 = 701 + 0.5j
    _, states = orbit_walk(f, z0)
    assert states[0]["depth"] == 0
    with mp.workdps(40):
        exact = mp.mpf(1e-6) * mp.exp(mp.mpc(z0)) + mp.exp(-mp.mpc(z0))
        assert abs(mp.mpc(states[0]["z"]) - exact) <= 1e-12 * abs(exact)


def test_superattracting_basin(sin3):
    # sin(z^3) ~ z^3 near 0: orbits from the small disk collapse onto 0.
    res = classify_batch(sin3, [0.4])
    assert res["tag"][0] == NON_ESCAPE_OBSERVED


def test_exact_fixed_point(sin3):
    res = classify_batch(sin3, [0.0])
    assert res["tag"][0] == NON_ESCAPE_OBSERVED
    assert res["steps"][0] == 1


def test_parabolic_real_orbit(sinz):
    # Real sine orbits decay to 0 like 1/sqrt(n): never beyond the radius.
    res = classify_batch(sinz, [0.5])
    assert res["tag"][0] == NON_ESCAPE_OBSERVED


def test_wedge_point_non_escape(h_example):
    r = 200.0
    z = r * np.exp(1j * (math.pi / 2 + 1.0 / (r * r * math.log(r))))
    res = classify_batch(h_example, [z])
    assert res["tag"][0] == NON_ESCAPE_OBSERVED


def test_undetermined_dead_direction():
    # Single term e^{z^3}: pick z with Re z^3 past the promotion cap and
    # Im z^3 = 1, so the pseudo-phase lands where cos(3 phi) < 0 and the
    # dominant-growth certificate cannot make progress.
    f = ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j)])
    z = (400.0 + 1.0j) ** (1.0 / 3.0)
    res = classify_batch(f, [z])
    assert res["tag"][0] == UNDETERMINED


def test_depth_cap_gives_undetermined(cosh3):
    p = ClassifyParams(cert_steps=50, max_iter=30)
    res = classify_batch(cosh3, [60.0], p)
    assert res["tag"][0] == UNDETERMINED
    assert res["final_depth"][0] <= MAX_DEPTH + 1


def test_batch_mixture(cosh3, sin3):
    # the real axis is invariant and bounded for sin(z^3); escape needs an
    # off-axis start
    res = classify_batch(sin3, [0.1, 60.0 * np.exp(0.5j), 0.0])
    assert list(res["tag"]) == [NON_ESCAPE_OBSERVED, ESCAPE_CERTIFIED, NON_ESCAPE_OBSERVED]
    assert res["steps"][1] > 0
    assert res["tag_code"].tolist() == [2, 1, 2]


def test_symmetries_bitwise(sin3, sinz):
    # sin_z covers the petal trap: trapped steps must be symmetric too.
    rng = np.random.default_rng(5)
    pts = 4.0 * (rng.random(200) - 0.5) + 4.0j * (rng.random(200) - 0.5)
    for f in (sin3, sinz):
        base = classify_batch(f, pts)
        neg = classify_batch(f, -pts)
        conj = classify_batch(f, np.conj(pts))
        for key in ("tag", "steps", "trapped"):
            assert np.array_equal(base[key], neg[key])
            assert np.array_equal(base[key], conj[key])
    assert classify_batch(sinz, pts)["trapped"].any()


# Frequencies with equal moduli and conjugate or opposite arguments tie in
# |b_j| cos(dphi + arg b_j) at symmetric dphi.
_FREQS = [1 + 0j, -1 + 0j, 1j, -1j, cmath.exp(0.5j), cmath.exp(-0.5j), 2 + 1j, 0.3 - 0.7j]


@settings(max_examples=200, deadline=None)
@given(
    freqs=st.lists(st.sampled_from(_FREQS), min_size=1, max_size=4, unique=True),
    dphi=st.lists(
        st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 1.0, math.nan, math.inf, -math.inf])
        | st.floats(-1e6, 1e6),
        min_size=1,
        max_size=6,
    ),
)
def test_tower_term_selection_matches_argmax(freqs, dphi):
    f = ExpPoly(3, [ExpPolyTerm(Poly([1]), b) for b in freqs])
    dphi = np.array(dphi)
    beta = np.array([cmath.phase(b) for b in freqs])
    abs_b = np.array([abs(b) for b in freqs])
    with np.errstate(invalid="ignore"):
        cj = abs_b[:, None] * np.cos(dphi[None, :] + beta[:, None])
        mj = np.argmax(cj, axis=0)
        want_c = np.take_along_axis(cj, mj[None, :], axis=0)[0]
        got_c, got_beta = orbits._dominant_growth(f, dphi)
    assert got_c.tobytes() == want_c.tobytes()
    assert got_beta.tobytes() == beta[mj].tobytes()


def test_far_start_is_not_read_as_bounded(sin3):
    # |z|^3 overflows doubles: such a start goes straight to tower mode
    # instead of reading the overflow as f(z) = 0.  Spokes sit at k pi/3.
    theta = np.array([0.1, 0.4, 0.9, 1.3, 2.0, 2.9, 3.5, 4.4, 5.0, 6.0])
    for r in (1e120, 1e200):
        res = classify_batch(sin3, r * np.exp(1j * theta))
        assert not np.any(res["tag"] == NON_ESCAPE_OBSERVED)
        assert np.all(res["tag"] == ESCAPE_CERTIFIED)


def test_non_finite_start_is_undetermined(sinz, sin3, cosh3, orbit_walk):
    pts = [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf), complex(1.0, math.nan), 0.5]
    for f in (sinz, sin3):
        res = classify_batch(f, pts)
        assert list(res["tag"][:4]) == [UNDETERMINED] * 4
        assert res["steps"][:4].tolist() == [0, 0, 0, 0]
        assert res["tag"][4] == NON_ESCAPE_OBSERVED
    # An orbit that never starts takes no step.
    res, states = orbit_walk(cosh3, complex(math.nan, 0.0))
    assert (res["tag"], res["steps"], states) == (UNDETERMINED, 0, [])


def test_trap_exit_only_when_tail_rule_must_fire(sinz):
    # Reference: iterate sin in plain numpy for the whole budget and apply
    # the trailing-run rule.  Every trapped orbit must meet it.
    rng = np.random.default_rng(11)
    pts = np.concatenate(
        [40.0 + 20.0 * rng.random(100) + 0.01j * rng.standard_normal(100), rng.random(100) + 0.5j * rng.random(100)]
    )
    for max_iter in (8, 12, TAIL_STEPS, TAIL_STEPS + 1, 40):
        p = ClassifyParams(max_iter=max_iter)
        res = classify_batch(sinz, pts, p)
        for z0, trapped, tag, steps in zip(pts, res["trapped"], res["tag"], res["steps"]):
            if not trapped:
                continue
            assert tag == NON_ESCAPE_OBSERVED and steps <= max_iter
            orbit = [z0]
            for _ in range(max_iter - 1):
                orbit.append(np.sin(orbit[-1]))
            run = 0
            for z in orbit:
                run = run + 1 if abs(z) <= p.escape_radius else 0
            assert run >= min(TAIL_STEPS, max_iter)
        assert res["trapped"].any()


def test_trap_needs_enough_budget(sinz, orbit_walk):
    # sin(50.5) ~ 0.24 lies in the petal at step 1, but with 8 steps only
    # seven points are inside the radius: the tail rule cannot fire.
    res, states = orbit_walk(sinz, 50.5, ClassifyParams(max_iter=8))
    assert res["tag"] == UNDETERMINED and res["steps"] == 8 == len(states)
    res, states = orbit_walk(sinz, 50.5)
    assert res["tag"] == NON_ESCAPE_OBSERVED
    assert res["steps"] < 512
    assert len(states) == res["steps"]


def _exit_cases():
    """(f, p, cases): one start point per exit of the engine, by name.

    f = 60 e^{z^3} - 60 e^{eps z^3}: f(0) = 0 with a trap disk around it,
    f(-60) = -60 exactly (e^{-216000} underflows and e^{eps z^3} rounds to
    1), and a repelling fixed point near x* = 60^{-1/2}.  With cert_steps 7
    a run of certified tower steps from outside the radius certifies at
    depth 7, while one that starts inside is cut by depth > MAX_DEPTH.
    """
    f = ExpPoly(3, [ExpPolyTerm(Poly([60.0]), 1 + 0j), ExpPolyTerm(Poly([-60.0]), 1e-300 + 0j)])
    p = ClassifyParams(cert_steps=7, max_iter=12)
    x_star = 0.12903011845326154
    cases = {
        "certified escape": 60.0,
        "late escape": 0.25,
        "exact fixed point": 0.0,
        "stuck fixed point": -60.0,
        "trap entry": 0.1,
        "dead direction": (400.0 + 1.0j) ** (1.0 / 3.0),
        "depth cut": 7.0,
        "budget with tail": complex(x_star + 1e-9, 1e-3),
        "budget without tail": complex(x_star + 1e-5, 1e-3),
        "overflowing start": 1e120 * np.exp(0.1j),
        "nan": complex(math.nan, 0.0),
        "inf": complex(0.0, math.inf),
    }
    return f, p, cases


def test_batch_composition_does_not_change_results():
    f, p, cases = _exit_cases()
    pts = np.array(list(cases.values()), dtype=complex)
    res = classify_batch(f, pts, p)
    names = list(cases)

    def got(name, *keys):
        return tuple(res[key][names.index(name)].item() for key in keys)

    # Each start takes the exit it was chosen for.
    assert got("certified escape", "tag_code", "final_depth") == (1, p.cert_steps)
    # Certified after a run that starts past the first step.
    tag, steps = got("late escape", "tag_code", "steps")
    assert tag == 1 and steps > p.cert_steps + 1
    assert got("exact fixed point", "tag_code", "steps", "trapped") == (2, 1, False)
    assert got("stuck fixed point", "tag_code", "steps", "final_depth") == (0, 1, 0)
    assert got("trap entry", "tag_code", "trapped") == (2, True)
    tag, depth = got("dead direction", "tag_code", "final_depth")
    assert tag == 0 and 1 <= depth <= MAX_DEPTH
    assert got("depth cut", "tag_code", "final_depth") == (0, MAX_DEPTH + 1)
    assert got("budget with tail", "tag_code", "steps", "trapped") == (2, p.max_iter, False)
    assert got("budget without tail", "tag_code", "steps") == (0, p.max_iter)
    depth, steps = got("overflowing start", "final_depth", "steps")
    assert depth >= 1 and steps < p.max_iter
    assert got("nan", "steps") == got("inf", "steps") == (0,)

    alone = [classify_batch(f, [z], p) for z in pts]
    rng = np.random.default_rng(2)
    order = rng.permutation(np.tile(np.arange(pts.size), 3))
    shuffled = classify_batch(f, pts[order], p)
    for key in RESULT_KEYS:
        want = np.concatenate([a[key] for a in alone])
        np.testing.assert_array_equal(res[key], want, err_msg=key)
        np.testing.assert_array_equal(shuffled[key], want[order], err_msg=key)


@pytest.mark.parametrize("capacity", [2, 3])
def test_pool_refill_does_not_change_results(capacity, step_sizes):
    # The exit cases fed in staggered blocks through a small pool: orbits of
    # different ages share steps, and the late escape and the budget orbits
    # enter at a late refill, so the trap rule, the reported steps and the
    # budget rule each must read the orbit's own age.
    f, p, cases = _exit_cases()
    late = ("late escape", "budget with tail", "budget without tail")
    order = [name for name in cases if name not in late] + list(late)
    pts = np.array([cases[name] for name in order], dtype=complex)
    want = classify_batch(f, pts, p)
    step_sizes.clear()
    got = {key: np.zeros(pts.size, want[key].dtype) for key in RESULT_KEYS if key != "tag"}
    reported = np.zeros(pts.size, np.int64)

    def sink(i, cols):
        assert cols.keys() == got.keys()
        np.add.at(reported, i, 1)
        for key, a in cols.items():
            got[key][i] = a

    edges = [0, 1, 3, 6, pts.size]
    blocks = [(np.arange(a, b), pts[a:b]) for a, b in zip(edges, edges[1:])]
    orbits._classify_pool(f, p, blocks, capacity, sink)
    assert (reported == 1).all()
    for key, a in got.items():
        np.testing.assert_array_equal(a, want[key], err_msg=key)
    assert max(step_sizes) <= capacity
    # The last orbits entered after the first step and ran their whole budget.
    assert len(step_sizes) > p.max_iter


def test_escape_rate_certificate_members(cosh3, orbit_walk):
    # Certified run means each step satisfied log|z_{k+1}| >= |z_k|^alpha.
    res, states = orbit_walk(cosh3, 55.0)
    assert res["tag"] == ESCAPE_CERTIFIED
    assert sum(bool(st["cond"]) for st in states) >= 3


@pytest.mark.parametrize("radius", [1e120, 1e200])
def test_tower_steps_check_the_escape_radius(sin3, radius, monkeypatch):
    # A depth-1 tower state has |z| = e^val, and val can lie below
    # log(radius) for a radius this large: such a step must not count toward
    # an escape certificate.  Deeper states are canonical, val > LIFT, so
    # beyond every double radius.
    seen = []
    step_tower = orbits._step_tower

    def spy(f, p, dcap, s, pos, fl):
        dep, val = s["depth"][pos], s["val"][pos]
        step_tower(f, p, dcap, s, pos, fl)
        seen.append((dep, val, fl["cond"][pos]))

    monkeypatch.setattr(orbits, "_step_tower", spy)
    # The start points of annulus-scan --r 10 --samples 300.
    res = classify_batch(sin3, _annulus_points(10.0, 300, 0), ClassifyParams(escape_radius=radius))
    assert np.count_nonzero(res["tag_code"] == 1) > 0
    dep, val, cond = map(np.concatenate, zip(*seen))
    inside = (dep == 1) & (val < math.log(radius))
    assert np.count_nonzero(inside) > 0
    assert not np.count_nonzero(cond & inside)


@pytest.mark.parametrize(
    "fn, alpha, tag, steps",
    [
        ("sin_z", 0.9, ESCAPE_CERTIFIED, 3),
        ("sin_z", 1.0, UNDETERMINED, 8),
        ("sin_z", 2.0, UNDETERMINED, 8),
        ("sin_z", 5.0, UNDETERMINED, 8),
        ("sin_z3", 2.9, ESCAPE_CERTIFIED, 3),
        ("sin_z3", 3.0, UNDETERMINED, 7),
        ("sin_z3", 4.0, UNDETERMINED, 7),
    ],
)
def test_deep_tower_steps_certify_only_below_degree(fn, alpha, tag, steps):
    # At depth >= 2, log|z| > e^690 and log|z'| = c |z|^d, so the growth
    # condition log|z'| >= |z|^alpha reads log c + (d - alpha) log|z| >= 0:
    # it holds for every live direction when alpha < d, and a double cannot
    # decide it when alpha >= d.
    res = classify_batch(bundled_function(fn), np.array([300j]), ClassifyParams(alpha=alpha))
    assert (res["tag"][0], res["steps"][0]) == (tag, steps)


def test_ladder_gate_excludes_slow_orbit(sin3, orbit_walk):
    # |f(z)| <= M(|z|) and M increases, so |f^n(z)| <= M^n(|z|) on every
    # orbit, and iterate_max_modulus bounds M^n from above.  The orbit of
    # 2 + 0.1i, which falls into the basin of 0, stays below that ladder.
    z0 = 2.0 + 0.1j
    res, states = orbit_walk(sin3, z0)
    assert res["tag"] == NON_ESCAPE_OBSERVED and len(states) > 1
    ladder = iterate_max_modulus(sin3, abs(z0), len(states))
    assert all(_abs(st) <= rung for st, rung in zip(states, ladder))
    # Independently of the ladder: log|sin w| <= |Im w| <= |w|, so
    # log|z'| <= |z|^3 at every step.
    assert all(st["depth"] == 0 for st in states)
    zs = [z0] + [complex(st["z"]) for st in states]
    assert all(b == 0 or math.log(abs(b)) <= abs(a) ** 3 for a, b in zip(zs, zs[1:]))


def test_final_abs_tower_scales(cosh3, orbit_walk):
    res, states = orbit_walk(cosh3, 60.0)
    assert res["final_depth"] >= 1
    assert (res["final_depth"], res["final_val"]) == (states[-1]["depth"], states[-1]["val"])
    assert _abs(states[-1]) > (0, 60.0)
