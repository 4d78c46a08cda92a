import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from expdyn import (
    EvalOverflow,
    ExpPoly,
    ExpPolyTerm,
    Poly,
    check_extra_condition,
    check_hypotheses,
    eval_direct,
    eval_log_batch,
    function_from_dict,
    function_to_dict,
    load_function,
)
from expdyn.funcs import _log_sum, _mirror_sign, mirror_group, wrap_phase


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


def _value(f, z, order=0):
    """f^(order)(z) from its log-domain value, which must not be flagged zero."""
    logmod, phase, zero = eval_log_batch(f, z, order)
    assert not zero
    return cmath.rect(math.exp(logmod), phase)


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
            logmod, phase, zero = eval_log_batch(f, z)
            if zero:
                assert abs(direct) < 1e-9
                continue
            assert abs(cmath.rect(math.exp(logmod), phase) - direct) <= 1e-9 * max(abs(direct), 1e-12)


def test_log_finite_far_out(cosh3):
    logmod, phase, zero = eval_log_batch(cosh3, 40.0)
    assert not zero
    assert abs(logmod - (40.0**3 + math.log1p(math.exp(-2 * 40.0**3)))) < 1e-6
    assert phase == 0.0


def test_batch_shapes(cosh3):
    Z = np.zeros((4, 5), dtype=complex) + 2.0
    lm, ph, zero = eval_log_batch(cosh3, Z)
    assert lm.shape == ph.shape == zero.shape == (4, 5)
    assert not zero.any()


def test_zero_detection(sin3):
    # sin(0) = 0: the two terms cancel exactly
    _, _, zero = eval_log_batch(sin3, np.asarray(0j))
    assert bool(zero)


@pytest.mark.parametrize("order", [-1, 3])
def test_batch_refuses_other_orders(cosh3, order):
    with pytest.raises(ValueError):
        eval_log_batch(cosh3, 1.0, order)


def test_deriv_log_matches_analytic(cosh3):
    z = 2.0
    got = _value(cosh3, z, 1)
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
            got = _value(f, z, 1)
            assert abs(got - fd) < 1e-6 * abs(fd) + 1e-8


def test_second_deriv(cosh3):
    z = 1.3
    eps = 1e-5
    fd = (
        eval_direct(cosh3, z + eps) - 2 * eval_direct(cosh3, z) + eval_direct(cosh3, z - eps)
    ) / eps**2
    got = _value(cosh3, z, 2)
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
            logmod, phase, zero = eval_log_batch(f, z, order)
            assert not zero
            tol = 1e-14 * abs(z) ** f.d * max(abs(t.b) for t in f.terms) + 1e-12
            assert abs(logmod - float(mp.log(abs(exact)))) <= tol
            dphase = (phase - float(mp.arg(exact)) + math.pi) % (2 * math.pi) - math.pi
            assert abs(dphase) <= tol


@settings(max_examples=30, deadline=None)
@given(
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
def test_log_direct_agree_property(z):
    f = ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)])
    direct = eval_direct(f, z)
    if abs(direct) < 1e-6:
        return
    assert abs(_value(f, z) - direct) <= 1e-9 * abs(direct)


def _log_sum_stacked(rows):
    """The stacked log-sum-exp that _log_sum must reproduce bit for bit:
    exp of every term difference, the dominant one included."""
    S = np.stack(rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.argmax(np.where(np.isnan(S.real), -np.inf, S.real), axis=0)
        Sm = np.take_along_axis(S, m[None, ...], axis=0)[0]
        corr = np.exp(S - Sm[None, ...]).sum(axis=0)
        corr_abs = np.abs(corr)
        logmod = Sm.real + np.log(corr_abs)
        phase = wrap_phase(Sm.imag + np.angle(corr))
    zero = ~np.isfinite(Sm.real) | (corr_abs < 1e-15)
    return logmod, phase, zero


def _same_bits(a, b):
    """Equal type, shape and bytes: NaN payloads and signed zeros count."""
    if type(a) is not type(b) or np.shape(a) != np.shape(b):
        return False
    return np.atleast_1d(a).tobytes() == np.atleast_1d(b).tobytes()


_SPECIAL_RE = st.sampled_from([math.nan, math.inf, -math.inf])
# Offsets from a column's base value: ties, and differences on both sides of
# the exp underflow near -745.13.
_OFFSETS = st.sampled_from(
    [0.0, -0.0, -1e-12, -744.0, -745.0, -745.1, -745.2, -745.5, -746.0, -746.5, -800.0, -1e300]
) | st.floats(-40.0, 0.0) | st.floats(-1000.0, 0.0)
_IMAG = st.sampled_from([0.0, -0.0, 1.0, math.pi, 1e300, -1e300, math.nan, math.inf, -math.inf]) | st.floats(
    -1e300, 1e300
)


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 4),
    shape=st.sampled_from([(), (1,), (2,), (5,), (2, 3)]),
    data=st.data(),
)
def test_log_sum_matches_stacked_formula(n, shape, data):
    size = math.prod(shape)
    base = data.draw(st.lists(st.floats(-1e3, 1e3) | st.floats(-1e300, 1e300), min_size=size, max_size=size))
    rows = []
    for _ in range(n):
        re = [data.draw(_SPECIAL_RE | _OFFSETS.map(lambda o, b=b: b + o)) for b in base]
        im = [data.draw(_IMAG) for _ in base]
        row = np.array([complex(x, y) for x, y in zip(re, im)]).reshape(shape)
        # A 0-d row is a numpy scalar, as a scalar evaluation produces it.
        rows.append(row[()])
    want = _log_sum_stacked(rows)
    got = _log_sum(rows)
    for name, a, b in zip(("logmod", "phase", "zero"), want, got):
        assert _same_bits(a, b), f"{name}: {a!r} != {b!r}"


@pytest.mark.parametrize("shape", [(), (1,), (3,)])
def test_log_sum_adds_in_stacked_order(shape):
    # Four terms of comparable size: adding them in any other order than a
    # sum over the stacked term axis moves last bits.
    rng = np.random.default_rng(3)
    for _ in range(200):
        rows = [(-3.0 * rng.random(shape) + 1j * rng.normal(size=shape))[()] for _ in range(4)]
        for a, b in zip(_log_sum_stacked(rows), _log_sum(rows)):
            assert _same_bits(a, b)


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


def test_spread_of_pi_is_a_pi_gap_pair():
    # b = 1, i, -1: both gaps are pi/2, but the spread is pi, so the outer
    # pair must admit the splitting, which P = 0 does.
    f = ExpPoly(3, [ExpPolyTerm(Poly([1]), b) for b in (1, 1j, -1)])
    rep = check_hypotheses(f)
    assert rep.pi_gap_pairs == [(0, 2)] and rep.extra_condition_ok == [True]
    assert rep.verdict == "Theorem1.3"
    assert json.loads(json.dumps(rep.to_dict()))["pi_gap_pairs"] == [[0, 2]]


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


# ---------------------------------------------------------------------------
# Exact sign and conjugation symmetries

ALL_MIRRORS = frozenset({(1, False), (-1, False), (1, True), (-1, True)})


def _apply(g, z):
    s, conj = g
    return s * (z.conjugate() if conj else z)


def test_mirror_group_of_bundled_functions(sinz, sin2, sin3, h_example, hemke):
    assert mirror_group(sinz) == mirror_group(sin2) == mirror_group(sin3) == ALL_MIRRORS
    # f(-conj z) = -conj f(z), while -z and conj z change the i z in the exponent
    assert mirror_group(h_example) == {(1, False), (-1, True)}
    # real coefficients, but z^3 + z^2 is neither odd nor even
    assert mirror_group(hemke) == {(1, False), (1, True)}
    # f(g(z)) = h(f(z)) holds in values, for an image map h in the group
    for f in (sinz, sin2, sin3, h_example, hemke):
        group = mirror_group(f)
        for g in group:
            h = (_mirror_sign(f, *g), g[1])
            assert h in group
            for z in (0.7 + 0.2j, -0.3 + 0.9j):
                w = eval_direct(f, z)
                assert abs(eval_direct(f, _apply(g, z)) - _apply(h, w)) < 1e-12 * max(1, abs(w))


def test_mirror_group_of_a_rotated_sine():
    # e^{0.3i} sin z^3 is odd, but its coefficients are not real
    rot = cmath.exp(0.3j)
    f = ExpPoly(3, [ExpPolyTerm(Poly([-0.5j * rot]), 1j), ExpPolyTerm(Poly([0.5j * rot]), -1j)])
    assert _mirror_sign(f, -1, False) == -1
    assert mirror_group(f) == {(1, False), (-1, False)}


def test_mirror_group_drops_maps_whose_image_is_missing():
    # f = i (e^{z^3 + z^2 + z} - e^{-z^3 + z^2 + z}) / 2 has f(conj z) = -conj f(z),
    # but f(-z) is neither f(z) nor -f(z): the image map -conj w of conj z is
    # not in the group, so conj z goes too.
    f = ExpPoly(3, [ExpPolyTerm(Poly([0.5j]), 1, Poly([0, 1, 1])), ExpPolyTerm(Poly([-0.5j]), -1, Poly([0, 1, 1]))])
    z = 0.4 + 0.3j
    assert abs(eval_direct(f, z.conjugate()) + eval_direct(f, z).conjugate()) < 1e-12
    assert _mirror_sign(f, 1, True) == -1
    assert _mirror_sign(f, -1, False) is None
    assert mirror_group(f) == {(1, False)}


def test_mirror_group_has_no_quarter_turns(sin2):
    # sin((-i conj z)^2) = -sin(conj(z)^2) = -conj sin(z^2): sin z^2 respects the
    # quarter turn z -> -i conj z as well, which the group leaves out.
    z = 0.6 + 0.25j
    assert abs(eval_direct(sin2, -1j * z.conjugate()) + eval_direct(sin2, z).conjugate()) < 1e-12
    assert mirror_group(sin2) == ALL_MIRRORS
    assert all(s in (1, -1) for s, _ in mirror_group(sin2))


def test_mirror_group_needs_one_global_sign():
    # f(-z) = e^{-z^3} - 2 e^{z^3}: each term maps to a term, but with signs -1
    # and -2 that no single eps matches; conj z holds with eps = 1
    f = ExpPoly(3, [ExpPolyTerm(Poly([1]), 1), ExpPolyTerm(Poly([-2]), -1)])
    assert _mirror_sign(f, -1, False) is None
    assert mirror_group(f) == {(1, False), (1, True)}
