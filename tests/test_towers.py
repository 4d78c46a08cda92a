"""Canonical tower pairs (depth, val), |z| = exp^depth(val), against mpmath,
which holds exp(exp(1e4)) and exp(1e308) exactly enough to order them."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from expdyn.orbits import LIFT, _canon_arrays, _tower_next

mpmath.mp.prec = 120

# Pairs of depth <= 2, not necessarily canonical.
_PAIRS = st.one_of(
    st.tuples(st.just(0), st.floats(0.0, 1e308)),
    st.tuples(st.just(1), st.floats(-50.0, 1e308)),
    st.tuples(st.just(2), st.floats(-50.0, 1e4)),
)


def _canon(pair):
    depth, val = _canon_arrays(np.array([pair[0]]), np.array([pair[1]], float))
    return int(depth[0]), float(val[0])


def _mag(pair):
    x = mpmath.mpf(pair[1])
    for _ in range(pair[0]):
        x = mpmath.exp(x)
    return x


def _sign(a, b):
    return (a > b) - (a < b)


@given(_PAIRS)
def test_canonicalization(pair):
    depth, val = _canon(pair)
    assert depth <= pair[0]
    assert depth == 0 or val > LIFT
    # Each lowered level applies one exp, rounded to doubles.
    want = mpmath.mpf(pair[1])
    for _ in range(pair[0] - depth):
        want = mpmath.exp(want)
    assert abs(mpmath.mpf(val) - want) <= 1e-12 * abs(want)


@given(_PAIRS, _PAIRS)
@example((1, 700.0), (0, 1e308))
def test_order_total_on_canonical(p, q):
    a, b = _canon(p), _canon(q)
    lex, real = _sign(a, b), _sign(_mag(a), _mag(b))
    # Lexicographic order is the order of the magnitudes, except where a
    # depth-k val exceeds exp(LIFT) ~ 4.4e299 and the depth-(k+1) val lies
    # below its log, in (LIFT, 709.8]: e.g. exp(700) ~ 1e304 < 1e308.
    if lex != real:
        low, high = sorted((a, b))
        assert high[0] == low[0] + 1 and low[1] > np.exp(LIFT)


def test_reference_comparisons():
    pairs = [
        ((1, 5.0), (0, 100.0)),
        ((2, 3.0), (1, 20.0)),
        ((0, 7.0), (0, 7.0)),
        ((1, 800.0), (1, 750.0)),
        ((2, 800.0), (1, 750.0)),
        ((2, 691.0), (1, 1e300)),
    ]
    for p, q in pairs:
        assert _sign(_canon(p), _canon(q)) == _sign(_mag(p), _mag(q))


@pytest.mark.parametrize(
    "dep, vals",
    [(1, st.floats(-5.0, 710.0)), (2, st.floats(LIFT + 1e-9, 1e4)), (3, st.floats(LIFT + 1e-9, 1e4))],
)
@given(data=st.data())
def test_next_state_matches_mpmath(dep, vals, data):
    # The next magnitude exp(c r^d) of r = exp^dep(v) has
    # log log = log c + d log r exactly; _tower_next's canonical pair must
    # match it at its own depth.
    v = data.draw(vals)
    c = data.draw(st.floats(1e-3, 10.0))
    d = data.draw(st.integers(1, 3))
    nd, nv = _tower_next(np.array([dep]), np.array([v]), math.log(c), d)
    nd, nv = int(nd[0]), float(nv[0])
    assert nd <= dep + 1 and (nd == 0 or nv > LIFT)
    log_r = mpmath.mpf(v)
    for _ in range(dep - 1):
        log_r = mpmath.exp(log_r)
    want = mpmath.log(c) + d * log_r
    for _ in range(nd - 2):
        want = mpmath.log(want)
    for _ in range(2 - nd):
        want = mpmath.exp(want)
    assert abs(mpmath.mpf(nv) - want) <= 1e-12 * abs(want)
