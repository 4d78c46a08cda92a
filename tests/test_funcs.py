import cmath
import functools
import gc
import json
import math
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp
from test_fingerprints import FUNCS as FINGERPRINT_FUNCS, _scan_points as fingerprint_points

from expdyn import (
    ClassifyParams,
    ExpPoly,
    ExpPolyTerm,
    Poly,
    bundled_function,
    check_extra_condition,
    check_hypotheses,
    classify_batch,
    eval_direct,
    eval_log_batch,
    function_from_dict,
    function_to_dict,
    in_E_mask,
    load_function,
)
from expdyn import funcs
from expdyn.cli import BUNDLED
from expdyn.funcs import (
    CACHE_SIZE,
    _eval_log_parts,
    _log_parts,
    _mirror_sign,
    _phase,
    _term_exponents,
    mirror_group,
    wrap_phase,
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
# Value identity: the caches of derived quantities are keyed by it


def _cosh3_signed(sign):
    """e^{z^3} + e^{(-1 + sign 0i) z^3}: the two signs compare equal term by
    term, but arg b_2 is pi for one and -pi for the other."""
    return ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), complex(-1.0, math.copysign(0.0, sign)))])


def test_equal_loads_are_equal_values():
    f, g = bundled_function("sin_z3"), bundled_function("sin_z3")
    assert f is not g and f == g and hash(f) == hash(g)


def test_signed_zero_functions_are_distinct_values(clear_caches):
    plus, minus = _cosh3_signed(1.0), _cosh3_signed(-1.0)
    assert plus.terms == minus.terms and plus != minus
    theta = 2 * np.pi * np.arange(4000) / 4000
    z = np.concatenate([r * np.exp(1j * theta) for r in (3, 5, 9, 20)])
    # Both enter the caches before either is classified afresh.
    cached = [classify_batch(f, z) for f in (plus, minus)]
    for f, res in zip((plus, minus), cached):
        clear_caches()
        fresh = classify_batch(f, z)
        for k in res:
            np.testing.assert_array_equal(res[k], fresh[k], err_msg=k)


def test_one_ulp_gives_another_value(hemke):
    """Moving any one stored double of a function by one ulp gives an unequal function."""
    def pairs(data):
        """The [re, im] pairs of a definition, the lists that hold its doubles."""
        return [p for t in data["terms"] for p in (*t["Q"], t["b"], *t["P"])]

    data = function_to_dict(hemke)
    for n in range(2 * len(pairs(data))):
        moved = json.loads(json.dumps(data))
        pair = pairs(moved)[n // 2]
        pair[n % 2] = float(np.nextafter(pair[n % 2], math.inf))
        assert function_from_dict(moved) != hemke, n


def test_caches_keep_at_most_cache_size_functions_alive():
    """Every cache keyed by a function value holds at most CACHE_SIZE of
    them: a function is freed once that many others have passed through."""

    def touch(f):
        in_E_mask(f, np.array([10.0 + 1j]), 2)
        classify_batch(f, [0.5 + 0.5j], ClassifyParams(max_iter=2))
        eval_log_batch(f, np.array([0.5]), 1)

    def sinh3(b):
        return ExpPoly(3, [ExpPolyTerm(Poly([0.5]), b), ExpPolyTerm(Poly([-0.5]), -b)])

    f = sinh3(1.0 + 0j)
    ref = weakref.ref(f)
    touch(f)
    del f
    for k in range(CACHE_SIZE):
        touch(sinh3(complex(2 + k)))
    gc.collect()
    assert ref() is None


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
    with pytest.raises(ValueError, match="exponent real part .* > 700"):
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


def _log_sum(rows):
    """(logmod, phase, zero_mask) of sum_j exp(S_j), as eval_log_batch
    composes them from _log_parts and _phase."""
    logmod, zero, Sm, corr = _log_parts(rows)
    return logmod, _phase(Sm, corr), zero


def _log_sum_stacked(rows):
    """The stacked log-sum-exp that _log_sum must reproduce bit for bit:
    exp of every term difference, the dominant one included, added in term
    order (a sum over the stacked axis would group one point's terms
    pairwise)."""
    S = np.stack(rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.argmax(np.where(np.isnan(S.real), -np.inf, S.real), axis=0)
        Sm = np.take_along_axis(S, m[None, ...], axis=0)[0]
        corr = functools.reduce(np.add, np.exp(S - Sm[None, ...]))
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
    # _log_parts and _phase leave the floating-point state to their caller.
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _log_sum(rows)
    for name, a, b in zip(("logmod", "phase", "zero"), want, got):
        assert _same_bits(a, b), f"{name}: {a!r} != {b!r}"


@pytest.mark.parametrize("shape", [(), (1,), (3,)])
def test_log_sum_adds_in_stacked_order(shape):
    # Four terms of comparable size: adding them in any other order than
    # term order moves last bits.
    rng = np.random.default_rng(3)
    for _ in range(200):
        rows = [(-3.0 * rng.random(shape) + 1j * rng.normal(size=shape))[()] for _ in range(4)]
        for a, b in zip(_log_sum_stacked(rows), _log_sum(rows)):
            assert _same_bits(a, b)


# Points on the real axis with both signs of a zero imaginary part, where a
# complex log's imaginary part is +pi or -pi by that sign.
_SIGNED_AXIS = np.array([complex(x, y) for x in (-2.0, 2.0, -0.0) for y in (0.0, -0.0)])


def _termwise_parts(f, Z, order):
    """The _log_parts of f^(order) at Z with each term's log taken
    separately: log Q_j(Z) at order 0, log A_j(Z) of each derivative
    prefactor otherwise."""
    Z = np.asarray(Z, dtype=complex)
    prefs = [t.Q for t in f.terms] if order == 0 else funcs._deriv_prefactors(f, order)
    return _log_parts([np.log(p(Z)) + w for p, w in zip(prefs, _term_exponents(f, Z))])


def _assert_core_is_evaluator(f, Z, order):
    """The core's four parts are bitwise the termwise reference's, and
    eval_log_batch is the core plus the reference's phase."""
    with np.errstate(all="ignore"):
        core, want = _eval_log_parts(f, Z, order), _termwise_parts(f, Z, order)
        logmod, phase, zero = eval_log_batch(f, Z, order)
        assert _same_bits(phase, _phase(*want[2:]))
    for name, a, b in zip(("logmod", "zero", "Sm", "corr"), core, want):
        assert _same_bits(a, b), f"{name}: {a!r} != {b!r}"
    assert _same_bits(logmod, core[0]) and _same_bits(zero, core[1])


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FINGERPRINT_FUNCS))
def test_core_is_the_evaluator_bitwise(name, order):
    # The fingerprint corpus, whose specials hold a zero of f (0), points
    # where the terms overflow (1e155) and NaN and infinite starts, plus
    # signed zeros on the real axis; whole and as 0-d evaluations.
    f = FINGERPRINT_FUNCS[name]()
    pts = np.concatenate([fingerprint_points(), _SIGNED_AXIS])
    for Z in (pts, *pts[::41], *_SIGNED_AXIS):
        _assert_core_is_evaluator(f, Z, order)


def test_prefactors_differing_in_a_zero_sign_take_separate_logs(monkeypatch):
    # == merges z + 0 and z - 0i, but at z = -2 - 0i their values are
    # -2 + 0i and -2 - 0i, whose logs have imaginary parts pi and -pi.
    # _deriv_prefactors builds no -0.0 (a Poly sum starts from +0.0), so the
    # order-1 prefactors of 2 sinh z are replaced by such a pair.
    f = ExpPoly(1, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([-1]), -1 + 0j)])
    prefs = (Poly([0j, 1]), Poly([complex(0.0, -0.0), 1]))
    assert prefs[0] == prefs[1]
    monkeypatch.setattr(funcs, "_deriv_prefactors", lambda f, order: prefs)
    _assert_core_is_evaluator(f, _SIGNED_AXIS, 1)
    for z in _SIGNED_AXIS:
        _assert_core_is_evaluator(f, np.asarray(z), 1)


# |z| = 10^0, 10^7, ..., 10^308 and the top of the double range, on 16 rays.
_HUGE_SWEEP = np.outer([10.0**k for k in range(0, 309, 7)] + [1.7e308], np.exp(2j * np.pi * np.arange(16) / 16)).ravel()


@pytest.mark.parametrize("name", BUNDLED)
def test_evaluation_leaks_no_numpy_warning(name):
    # The test suite turns a RuntimeWarning into an error.  Overflowing
    # terms, prefactors and products are the evaluator's to absorb.
    f = bundled_function(name)
    for order in (0, 1, 2):
        eval_log_batch(f, _HUGE_SWEEP, order)
        for z in _HUGE_SWEEP:
            eval_log_batch(f, z, order)
    for level in (1, 2) if f.d >= 3 else ():  # exceptional sets need d >= 3
        in_E_mask(f, _HUGE_SWEEP, level)
    classify_batch(f, _HUGE_SWEEP)


def test_four_term_evaluation_is_elementwise(four_term):
    # Each point's values are those of its entry in a batch, whether it is
    # evaluated as a 0-d input or as a batch of one.  numpy's pairwise sum
    # of a single point's four terms grouped them otherwise.
    rng = np.random.default_rng(0)
    pts = rng.normal(scale=0.7, size=1000) + 1j * rng.normal(scale=0.7, size=1000)
    for order in (0, 1, 2):
        batch = eval_log_batch(four_term, pts, order)
        for i, z in enumerate(pts):
            want = [a[i] for a in batch]
            zero_d = eval_log_batch(four_term, np.asarray(z), order)
            single = [a[0] for a in eval_log_batch(four_term, pts[i : i + 1], order)]
            for got in (zero_d, single):
                assert [np.asarray(a).tobytes() for a in got] == [a.tobytes() for a in want], (order, z)


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
    assert rep.pi_gap_pairs == [] and not rep.strict_gaps
    assert rep.reason == "argument gap condition violated"


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
    assert json.loads(json.dumps(asdict(rep)))["pi_gap_pairs"] == [[0, 2]]


def test_extra_condition_cross_products():
    assert check_extra_condition(Poly([0, 0, 1]), 1 + 0j, Poly([0, 0, -1]), -1 + 0j, 3)
    assert not check_extra_condition(Poly([0, 0, 1]), 1 + 0j, Poly([0, 0, 1]), -1 + 0j, 3)
    # degree <= d-3 parts are unconstrained
    assert check_extra_condition(Poly([5]), 1 + 0j, Poly([-3]), -1 + 0j, 3)


def _flat(bs, Ps=None):
    """d = 3 and Q = 1 terms with frequencies bs and exponent polynomials Ps (default 0)."""
    Ps = Ps or [Poly() for _ in bs]
    return ExpPoly(3, [ExpPolyTerm(Poly([1]), b, P) for b, P in zip(bs, Ps)])


_NEAR_PI = "gap (0, 1) is within 1e-9 rad of pi but not exactly pi"


@pytest.mark.parametrize("sign", [1, -1])
def test_gap_just_off_pi_fails(sign):
    # b = (1, -1 +- 2^-k i): one gap exceeds pi by about 2^-k for every k,
    # however far below the rounding of the float arguments; the note
    # labels exactly the gaps within 1e-9 rad of pi, k >= 30.
    for k in range(1, 61):
        rep = check_hypotheses(_flat([1, complex(-1, sign * 2.0**-k)]))
        assert (rep.verdict, rep.arg_order_ok, rep.pi_gap_pairs) == ("Fails", False, [])
        note = [_NEAR_PI] if k >= 30 else []
        assert rep.reason == "; ".join(["argument gap condition violated", *note])


@pytest.mark.parametrize("delta", [5e-10, -5e-10, 5e-9])
def test_rounded_pi_gap_fails(delta):
    # b2 = e^{i(pi + delta)} is not -1, so one gap of b = (1, b2) exceeds pi.
    rep = check_hypotheses(_flat([1, cmath.exp(1j * (math.pi + delta))]))
    assert (rep.verdict, rep.pi_gap_pairs, rep.extra_condition_ok) == ("Fails", [], [])
    assert rep.reason.endswith(_NEAR_PI) == (abs(delta) < 1e-9)


def test_exact_pi_gap_needs_exact_splitting():
    # b = (1, -1): P_0 = g and P_1 = -g split with the shared g; moving one
    # coefficient of P_1 by one ulp breaks the splitting.
    g = [0, 0.5, 1]
    rep = check_hypotheses(_flat([1, -1], [Poly(g), Poly([-c for c in g])]))
    assert (rep.verdict, rep.pi_gap_pairs, rep.extra_condition_ok) == ("Theorem1.3", [(0, 1)], [True])
    assert rep.reason == ""
    off = Poly([0, -0.5, np.nextafter(-1.0, -2.0)])
    rep = check_hypotheses(_flat([1, -1], [Poly(g), off]))
    assert (rep.verdict, rep.pi_gap_pairs, rep.extra_condition_ok) == ("Fails", [(0, 1)], [False])
    assert rep.reason == "pi-gap pair without admissible splitting"
    assert not check_extra_condition(Poly(g), 1 + 0j, off, -1 + 0j, 3)


@pytest.mark.parametrize("bs", [[1], [1, 2], [1 + 1j, 0.5 + 0.5j, 3 + 3j]])
def test_one_argument_fails(bs):
    # Every b_j on one ray: the one gap round the circle is 2 pi.
    rep = check_hypotheses(_flat(bs))
    assert (rep.verdict, rep.arg_order_ok, rep.reason) == ("Fails", False, "argument gap condition violated")


def test_splitting_is_existential_over_shared_arguments():
    # b = (1, 2, -1): the pi pairs are (1, 2) and (0, 2).  P_1 does not split
    # with P_2, but P_0, on the ray of b_1, does, so both pairs are admissible.
    rep = check_hypotheses(_flat([1, 2, -1], [Poly([0, 0, 1]), Poly([0, 0, 5]), Poly([0, 0, -1])]))
    assert (rep.pi_gap_pairs, rep.extra_condition_ok) == ([(1, 2), (0, 2)], [True, True])
    assert rep.verdict == "Theorem1.3"


def test_argument_that_underflows():
    # arg(2 + 5e-324 i) underflows to 0, where cmath.phase raises.  The gap
    # from -1 back to b_0 exceeds pi by that much.
    f = _flat([complex(2, 5e-324), -1])
    assert np.isfinite(eval_log_batch(f, np.array([1 + 1j]))[0]).all()
    rep = check_hypotheses(f)
    assert (rep.verdict, rep.reason) == ("Fails", "argument gap condition violated; " + _NEAR_PI)


def _quarter(c, turns):
    """c times i^turns, by exact swaps and negations of its parts."""
    for _ in range(turns % 4):
        c = complex(-c.imag, c.real)
    return c


_AXIS_B = [s * complex(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if x or y for s in (1, 3)]
_FREQ = st.one_of(
    st.sampled_from(_AXIS_B),
    st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)).filter(lambda b: b != 0),
)
_SMALL = st.sampled_from([0, 1, -1, 0.5j, 1 + 1j])


@settings(max_examples=300, deadline=None)
@example(d=3, bs=[-1, 1, -1j], g=[0] * 5, own=[None] * 4, q=[1], turns=3)
@given(
    d=st.integers(3, 5),
    bs=st.lists(_FREQ, min_size=1, max_size=4, unique=True),
    g=st.lists(_SMALL, min_size=5, max_size=5),
    own=st.lists(st.none() | st.lists(_SMALL, min_size=5, max_size=5), min_size=4, max_size=4),
    q=st.lists(_SMALL, min_size=1, max_size=3).filter(any),
    turns=st.integers(1, 3),
)
def test_quarter_turn_keeps_verdict(d, bs, g, own, q, turns):
    # f(i^turns z) multiplies b by i^(turns d) and the k-th coefficient of Q
    # and of P by i^(turns k), all exact in doubles, so it meets the gap
    # conditions exactly as f does, with the same pairs.  P_j is b_j g, which
    # splits, or P_j's own coefficients.
    Ps = [[b * c for c in g[:d]] if mine is None else mine[:d] for b, mine in zip(bs, own)]

    def function(t):
        def rot(cs):
            return Poly(_quarter(complex(c), t * k) for k, c in enumerate(cs))

        return ExpPoly(d, [ExpPolyTerm(rot(q), _quarter(b, t * d), rot(P)) for b, P in zip(bs, Ps)])

    def key(rep):
        pairs = {(frozenset(p), ok) for p, ok in zip(rep.pi_gap_pairs, rep.extra_condition_ok)}
        return rep.verdict, rep.arg_order_ok, rep.strict_gaps, pairs

    assert key(check_hypotheses(function(0))) == key(check_hypotheses(function(turns)))


def test_report_serializable(sin3):
    rep = check_hypotheses(sin3)
    data = json.loads(json.dumps(asdict(rep)))
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
