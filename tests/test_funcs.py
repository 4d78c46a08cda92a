import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from expdyn import (
    DegenerateQ,
    EvalOverflow,
    ExpPoly,
    ExpPolyTerm,
    Poly,
    ZeroValue,
    approx_error,
    check_extra_condition,
    check_hypotheses,
    dominant_index,
    eval_deriv_log,
    eval_direct,
    eval_log,
    eval_log_batch,
    function_from_dict,
    function_to_dict,
    load_function,
)


# ---------------------------------------------------------------------------
# Construction and validation


def test_requires_deg_p_below_d():
    with pytest.raises(ValueError):
        ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j, Poly([0, 0, 0, 1]))])


def test_requires_distinct_frequencies():
    with pytest.raises(ValueError):
        ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([2]), 1 + 0j)])


def test_requires_nonzero_q_and_b():
    with pytest.raises(ValueError):
        ExpPolyTerm(Poly(), 1 + 0j)
    with pytest.raises(ValueError):
        ExpPolyTerm(Poly([1]), 0j)


# ---------------------------------------------------------------------------
# Evaluation


def test_direct_matches_cosh(cosh3):
    for z in (0.0, 1.0, 2.0, 1j, 0.5 + 0.5j):
        z = complex(z)
        expected = cmath.exp(z**3) + cmath.exp(-(z**3))
        assert abs(eval_direct(cosh3, z) - expected) < 1e-9 * max(1.0, abs(expected))


def test_direct_overflow_raises(cosh3):
    with pytest.raises(EvalOverflow):
        eval_direct(cosh3, 10.0)


def test_log_matches_direct_on_disk(cosh3, sin3, h_example):
    rng = np.random.default_rng(7)
    zs = 2.0 * (rng.random(300) - 0.5) + 2.0j * (rng.random(300) - 0.5)
    for f in (cosh3, sin3, h_example):
        for z in zs:
            z = complex(z)
            direct = eval_direct(f, z)
            try:
                lv = eval_log(f, z)
            except ZeroValue:
                assert abs(direct) < 1e-9
                continue
            assert abs(complex(lv) - direct) <= 1e-9 * max(abs(direct), 1e-12)


def test_log_finite_far_out(cosh3):
    lv = eval_log(cosh3, 40.0)
    assert abs(lv.logmod - (40.0**3 + math.log1p(math.exp(-2 * 40.0**3)))) < 1e-6
    assert lv.phase == 0.0


def test_batch_shapes(cosh3):
    Z = np.zeros((4, 5), dtype=complex) + 2.0
    lm, ph, zero = eval_log_batch(cosh3, Z)
    assert lm.shape == ph.shape == zero.shape == (4, 5)
    assert not zero.any()


def test_zero_detection(sin3):
    # sin(0) = 0: the two terms cancel exactly
    _, _, zero = eval_log_batch(sin3, np.asarray(0j))
    assert bool(zero)
    with pytest.raises(ZeroValue):
        eval_log(sin3, 0.0)


def test_deriv_log_matches_analytic(cosh3):
    z = 2.0
    got = complex(eval_deriv_log(cosh3, z, 1))
    expected = 3 * z**2 * (cmath.exp(z**3) - cmath.exp(-(z**3)))
    assert abs(got - expected) < 1e-9 * abs(expected)


def test_deriv_log_matches_finite_difference(cosh3, h_example):
    rng = np.random.default_rng(11)
    zs = 1.5 * (rng.random(30) - 0.5) + 1.5j * (rng.random(30) - 0.5)
    eps = 1e-6
    for f in (cosh3, h_example):
        for z in zs:
            z = complex(z)
            fd = (eval_direct(f, z + eps) - eval_direct(f, z - eps)) / (2 * eps)
            if abs(fd) < 1e-3:
                continue
            got = complex(eval_deriv_log(f, z, 1))
            assert abs(got - fd) < 1e-6 * abs(fd) + 1e-8


def test_second_deriv(cosh3):
    z = 1.3
    eps = 1e-5
    fd = (
        eval_direct(cosh3, z + eps) - 2 * eval_direct(cosh3, z) + eval_direct(cosh3, z - eps)
    ) / eps**2
    got = complex(eval_deriv_log(cosh3, z, 2))
    assert abs(got - fd) < 1e-4 * abs(fd)


def _mp_poly(coeffs, z, k):
    """k-th derivative at z of the polynomial with ascending coefficients."""
    total = mp.mpc(0)
    for i, c in enumerate(coeffs):
        if i >= k:
            total += mp.mpc(c) * mp.ff(i, k) * z ** (i - k)
    return total


def _mp_eval(f, z, order):
    """f, f' or f'' at z in mpmath, each term Q e^w differentiated by hand."""
    z = mp.mpc(z)
    total, biggest = mp.mpc(0), mp.mpf(0)
    for t in f.terms:
        expo = list(t.P.coeffs) + [0] * (f.d + 1 - len(t.P.coeffs))
        expo[f.d] += t.b
        q = [_mp_poly(t.Q.coeffs, z, k) for k in range(3)]
        w = [_mp_poly(expo, z, k) for k in range(3)]
        pref = (q[0], q[1] + q[0] * w[1], q[2] + 2 * q[1] * w[1] + q[0] * (w[2] + w[1] ** 2))[order]
        term = pref * mp.exp(w[0])
        total += term
        biggest = max(biggest, abs(term))
    return total, biggest


@pytest.mark.parametrize("order", [0, 1, 2])
def test_log_eval_matches_mpmath_far_out(order, sin3, h_example, hemke, three_term):
    # At |z| = 10-100 the terms reach exp(1e6), far beyond eval_direct.  The
    # doubles carry w = b z^d + P(z) to a few ulps of |z|^d, which bounds
    # the error of both logmod and phase.
    poly_q = ExpPoly(
        3,
        [
            ExpPolyTerm(Poly([1, 0.5j]), 1 + 0.3j, Poly([0, 0.2])),
            ExpPolyTerm(Poly([-0.25, 0, 1]), -1 + 0.1j),
        ],
    )
    rng = np.random.default_rng(17)
    zs = 10.0 ** (1.0 + rng.random(40)) * np.exp(2j * math.pi * rng.random(40))
    mp.dps = 40
    for f in (sin3, h_example, hemke, three_term, poly_q):
        for z in zs:
            z = complex(z)
            exact, biggest = _mp_eval(f, z, order)
            if abs(exact) < 1e-6 * biggest:
                continue  # near a spoke the terms cancel
            lv = eval_log(f, z) if order == 0 else eval_deriv_log(f, z, order)
            tol = 1e-14 * abs(z) ** f.d * max(abs(t.b) for t in f.terms) + 1e-12
            assert abs(lv.logmod - float(mp.log(abs(exact)))) <= tol
            dphase = (lv.phase - float(mp.arg(exact)) + math.pi) % (2 * math.pi) - math.pi
            assert abs(dphase) <= tol


def test_dominant_index(cosh3):
    assert dominant_index(cosh3, 2.0) == 0
    assert dominant_index(cosh3, 2.0 * cmath.exp(1j * math.pi / 3)) == 1


def test_approx_error_small_off_spoke(cosh3):
    # On the positive real axis the subdominant term is exp(-2 r^3) small.
    assert approx_error(cosh3, 2.0) == pytest.approx(math.exp(-16), rel=1e-9)
    # On a spoke direction both terms tie and the error is order 1.
    assert approx_error(cosh3, 2.0 * cmath.exp(1j * math.pi / 6)) == pytest.approx(1.0, abs=1e-9)


def test_approx_error_degenerate_q():
    f = ExpPoly(3, [ExpPolyTerm(Poly([0, 1]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)])
    with pytest.raises(DegenerateQ):
        approx_error(f, 0.0)


@settings(max_examples=30, deadline=None)
@given(
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
def test_log_direct_agree_property(z):
    f = ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)])
    direct = eval_direct(f, z)
    if abs(direct) < 1e-6:
        return
    assert abs(complex(eval_log(f, z)) - direct) <= 1e-9 * abs(direct)


# ---------------------------------------------------------------------------
# Hypothesis checking


def test_verdicts(sin3, sinz, h_example, hemke, three_term):
    assert check_hypotheses(sin3).verdict == "Theorem1.3"
    assert check_hypotheses(hemke).verdict == "Theorem1.3"
    assert check_hypotheses(three_term).verdict == "Theorem1.1"
    assert check_hypotheses(h_example).verdict == "Fails"
    rep = check_hypotheses(sinz)
    assert rep.verdict == "Fails"
    assert rep.reason == "RequiresD3"


def test_gap_violation_fails():
    # Both frequencies in a half-plane with spread < pi.
    f = ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), 1 + 1j)])
    rep = check_hypotheses(f)
    assert rep.verdict == "Fails"
    assert not rep.arg_order_ok


def test_pi_gap_without_splitting_fails():
    # z^2 parts are not proportional to the frequencies: no shared splitting.
    f = ExpPoly(
        3,
        [
            ExpPolyTerm(Poly([1]), 1 + 0j, Poly([0, 0, 1])),
            ExpPolyTerm(Poly([1]), -1 + 0j, Poly([0, 0, 1])),
        ],
    )
    rep = check_hypotheses(f)
    assert rep.verdict == "Fails"
    assert rep.pi_gap_pairs and not all(rep.extra_condition_ok)


def test_extra_condition_cross_products():
    assert check_extra_condition(Poly([0, 0, 1]), 1 + 0j, Poly([0, 0, -1]), -1 + 0j, 3)
    assert not check_extra_condition(Poly([0, 0, 1]), 1 + 0j, Poly([0, 0, 1]), -1 + 0j, 3)
    # degree <= d-3 parts are unconstrained
    assert check_extra_condition(Poly([5]), 1 + 0j, Poly([-3]), -1 + 0j, 3)


def test_report_serializable(sin3):
    rep = check_hypotheses(sin3)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["verdict"] == "Theorem1.3"


# ---------------------------------------------------------------------------
# JSON round trips


def test_function_roundtrip(tmp_path, hemke):
    data = function_to_dict(hemke)
    again = function_from_dict(data)
    assert again.d == hemke.d
    assert all(a.b == b.b and a.Q == b.Q and a.P == b.P for a, b in zip(again.terms, hemke.terms))
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(data))
    loaded = load_function(path)
    assert loaded.d == hemke.d


def test_bundled_sin_values(sinz, sin2, sin3):
    for f, power in ((sinz, 1), (sin2, 2), (sin3, 3)):
        z = 0.7 + 0.2j
        assert abs(eval_direct(f, z) - cmath.sin(z**power)) < 1e-12
