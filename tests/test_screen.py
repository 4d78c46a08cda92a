"""The screen of orbits._step_direct against the exact path.

A direct step skips the log-domain sum at points where the screen proves
that the sum cannot change the step.  With the screen off (orbits._screen
returning None) every point takes the exact path, which is the oracle here:
on points chosen to sit at each edge of the screen, both runs must give
bitwise the same results and the same engine state after every step.
"""

import math
import warnings

import numpy as np
import pytest
from conftest import RESULT_KEYS, spy_on_steps
from hypothesis import given, settings, strategies as st
from test_fingerprints import FUNCS

from expdyn import ClassifyParams, ExpPoly, ExpPolyTerm, Poly, bundled_function, classify_batch
from expdyn import orbits

# The per-step state compared (see conftest.pool_columns).
_STATE_KEYS = ("idx", "z", "depth", "val", "below", "run", "cond", "u")


def _run(f, pts, p, screen_on):
    """(result columns, per-step states) of classify_batch(f, pts, p) as raw bytes."""
    steps = []

    def observe(cols):
        steps.append(b"".join(np.ascontiguousarray(cols[k]).tobytes() for k in _STATE_KEYS))

    with pytest.MonkeyPatch.context() as mp:
        spy_on_steps(mp, observe)
        if not screen_on:
            mp.setattr(orbits, "_screen", lambda *args: None)
        res = classify_batch(f, pts, p)
    return [res[k].tolist() if res[k].dtype == object else res[k].tobytes() for k in RESULT_KEYS], steps


def _assert_screen_is_exact(f, pts, p=None):
    want, got = _run(f, pts, p, False), _run(f, pts, p, True)
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    bad = [i for i, (a, b) in enumerate(zip(got[1], want[1])) if a != b]
    assert not bad, f"states differ after steps {bad[:5]}"


def _sin3_near_zeros():
    """Points of sin(z^3) at and near its zeros z^3 = k pi, inside the radius 50."""
    roots = np.exp(2j * math.pi * np.arange(6) / 6)
    base = [math.cbrt(k * math.pi) * roots for k in (1, 2, 7, 100, 3000, 39000)]
    base = np.concatenate(base)
    rel = 10.0 ** -np.arange(16, 5, -1)
    turns = np.exp(1j * np.array([0.0, 1.0, 2.5]))
    near = (base[:, None, None] * (1 + rel[None, :, None] * turns[None, None, :])).ravel()
    # Zeros of f at 0 itself: sin(z^3) ~ z^3 is far below any rounding there.
    tiny = (10.0 ** -np.arange(1, 9))[:, None] * turns[None, :]
    return np.concatenate([base, near, [0j], tiny.ravel()])


def _radius_edge(radius):
    """|z| = radius and its neighbouring doubles, on the axes."""
    mags = [math.nextafter(radius, 0.0), radius, math.nextafter(radius, math.inf)]
    return np.array([m * u for m in mags for u in (1, -1, 1j, -1j)])


def test_screen_at_zeros_of_sin_z3(sin3):
    _assert_screen_is_exact(sin3, _sin3_near_zeros())


@pytest.mark.parametrize("fn", ["sin_z", "sin_z3", "three_term", "example_h"])
def test_screen_at_the_escape_radius(fn):
    f = FUNCS[fn]()
    for radius in (50.0, 2.0):
        p = ClassifyParams(escape_radius=radius, max_iter=64)
        _assert_screen_is_exact(f, _radius_edge(radius), p)


def test_screen_at_the_promotion_cap():
    # f = e^z + e^(iz + c) with c = -2i x0: on z = x (1 - i) both terms have
    # modulus e^x and, near x = x0, the same phase, so log|f| = t + log 2,
    # the largest it can be for two terms.  x0 is the screen's bound t_hi,
    # and the points run through t_hi and through dcap - log 2, where log|f|
    # meets the promotion cap, in steps of 2e-13 (a few ulps) and of 1e-10.
    p = ClassifyParams(escape_radius=1000.0, max_iter=8)
    dcap = orbits.BAIL_LOGMOD

    def pair(x0):
        return ExpPoly(1, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), 1j, Poly([-2j * x0]))])

    t_hi = float(orbits._screen(pair(dcap - 1), p.escape_radius, dcap)[1])
    f = pair(t_hi)
    t_hi = float(orbits._screen(f, p.escape_radius, dcap)[1])
    ks = np.arange(-40, 41)
    xs = np.concatenate([t_hi + ks * 1e-10, t_hi + ks * 2e-13, dcap - math.log(2) + ks * 2e-13])
    _assert_screen_is_exact(f, xs * (1 - 1j), p)


def test_screen_at_the_fit_limit(monkeypatch):
    # f = 1e-6 e^z + e^-z: the term e^z leaves the exact term sum at Re z = 700,
    # and log|f| ~ Re z - 13.8 reaches the promotion cap 690 near Re z = 704.
    # Starts through both, with starts in the left half plane and near 0, put
    # easy, fitting, rebuilt and promoted points in one pool.
    f = ExpPoly(1, [ExpPolyTerm(Poly([1e-6]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)])
    x = np.concatenate([np.linspace(695.0, 712.0, 69), [1e-3, 0.5, 3.0, -2.0]])
    pts = np.concatenate([x + 0.5j, x - 0.25j, -x + 0.1j])
    rebuilt = []
    phase = orbits._phase

    def spy(Sm, corr):
        rebuilt.append(Sm.size)
        return phase(Sm, corr)

    monkeypatch.setattr(orbits, "_phase", spy)
    _assert_screen_is_exact(f, pts, ClassifyParams(escape_radius=1000.0, max_iter=8))
    assert sum(rebuilt) > 0


@pytest.mark.parametrize("fn", ["three_term", "example_h"])
def test_screen_with_non_constant_prefactors(fn):
    f = FUNCS[fn]()
    rng = np.random.default_rng(7)
    pts = rng.uniform(-6, 6, 400) + 1j * rng.uniform(-6, 6, 400)
    _assert_screen_is_exact(f, pts, ClassifyParams(max_iter=128))


@settings(max_examples=30, deadline=None)
@given(
    fn=st.sampled_from(sorted(FUNCS)),
    radius=st.sampled_from([2.0, 50.0, 1e3]),
    pts=st.lists(
        st.complex_numbers(max_magnitude=80.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=24
    ),
)
def test_screen_is_exact_everywhere(fn, radius, pts):
    _assert_screen_is_exact(FUNCS[fn](), pts, ClassifyParams(escape_radius=radius, max_iter=48))


@pytest.mark.parametrize("fn, z0, steps", [("sin_z", 0.0005 + 0.05j, 512), ("sin_z3", 2.0 + 0.1j, 5)])
def test_screened_orbits_make_no_log_domain_sum(fn, z0, steps, monkeypatch):
    # Without the screen each direct step makes one log-domain sum; with it
    # these orbits, inside the radius and away from zeros of f, make none.
    f = bundled_function(fn)
    calls = []
    log_parts = orbits._log_parts

    def spy(rows):
        calls.append(rows[0].size)
        return log_parts(rows)

    monkeypatch.setattr(orbits, "_log_parts", spy)
    assert classify_batch(f, [z0])["steps"][0] == steps
    assert calls == []
    monkeypatch.setattr(orbits, "_screen", lambda *args: None)
    assert classify_batch(f, [z0])["steps"][0] == steps
    assert calls == [1] * steps


# At 3e102, radius^3 is finite but 16 times it overflows.
@pytest.mark.parametrize(
    "radius, on", [(50.0, True), (1e3, True), (1e4, False), (1e30, False), (3e102, False), (1e300, False)]
)
def test_screen_bounds_never_raise(sin3, radius, on):
    # The rounding bound grows like radius^3: the screen turns off while its
    # bounds still hold, and computing them never overflows or warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (orbits._screen(sin3, radius, 231.0) is not None) == on
