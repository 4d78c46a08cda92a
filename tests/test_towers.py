import math

import pytest
from hypothesis import given, strategies as st

from expdyn import TowerMag, tower_compare, tower_exp, tower_log
from expdyn.towers import _tower_add_const, _tower_scale


def test_canonicalization():
    t = TowerMag(2, 3.0)
    # exp(3) and exp(exp(3)) both fit below LIFT, so depth reduces to 0.
    assert t.depth == 0
    assert t.value == pytest.approx(math.exp(math.exp(3.0)))
    big = TowerMag(1, 1000.0)
    assert big.depth == 1 and big.value == 1000.0


def test_reference_comparisons():
    assert tower_compare(TowerMag(1, 5.0), TowerMag(0, 100.0)) == 1
    assert tower_compare(TowerMag(2, 3.0), TowerMag(1, 20.0)) == 1
    assert tower_compare(TowerMag(0, 7.0), TowerMag(0, 7.0)) == 0
    assert TowerMag(1, 800.0) > TowerMag(1, 750.0)
    assert TowerMag(1, 750.0) < TowerMag(2, 800.0)


def test_validation():
    with pytest.raises(ValueError):
        TowerMag(-1, 5.0)
    with pytest.raises(ValueError):
        TowerMag(0, math.inf)


def test_from_logmod():
    assert TowerMag.from_logmod(2.0).value == pytest.approx(math.exp(2.0))
    t = TowerMag.from_logmod(5000.0)
    assert t.depth == 1 and t.value == 5000.0


def test_log_exp_inverse():
    for t in (TowerMag(0, 5.0), TowerMag(1, 1000.0), TowerMag(3, 900.0)):
        assert tower_compare(tower_log(tower_exp(t)), t) == 0
    with pytest.raises(ValueError):
        tower_log(TowerMag(0, -1.0))


def test_scale_and_add_const():
    t = _tower_scale(TowerMag(0, 10.0), 2.5)
    assert t.value == pytest.approx(25.0)
    t = _tower_add_const(TowerMag(0, 10.0), -3.0)
    assert t.value == pytest.approx(7.0)
    # adding a constant to a depth-2 magnitude is a no-op at that scale
    big = TowerMag(2, 1000.0)
    assert tower_compare(_tower_add_const(big, 1e100), big) == 0


@given(
    st.floats(min_value=1e-3, max_value=600.0),
    st.floats(min_value=1e-3, max_value=600.0),
)
def test_depth0_compare_matches_floats(a, b):
    assert tower_compare(TowerMag(0, a), TowerMag(0, b)) == (a > b) - (a < b)


@given(st.floats(min_value=1.0, max_value=500.0))
def test_exp_monotone(v):
    t = TowerMag(0, v)
    assert tower_exp(t) > t


@given(
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=691.0, max_value=1e6),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=691.0, max_value=1e6),
)
def test_order_total_on_canonical(d1, v1, d2, v2):
    a, b = TowerMag(d1, v1), TowerMag(d2, v2)
    c = tower_compare(a, b)
    assert c == -tower_compare(b, a)
    if c == 0:
        assert (a.depth, a.value) == (b.depth, b.value)
