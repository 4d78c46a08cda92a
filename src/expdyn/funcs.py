"""Exponential polynomials f(z) = sum_j Q_j(z) exp(b_j z^d + P_j(z)).

Evaluation is available both in direct double arithmetic (small |z|) and in a
log-domain form that stays finite when |f(z)| is at the exp(|z|^d) scale:
each term's exponent w_j = b_j z^d + P_j(z) is computed exactly in doubles,
the dominant term is factored out, and the remaining terms enter only through
exponent differences with non-positive real part.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cmp_to_key, lru_cache

import numpy as np

from .poly import Poly, _exact

__all__ = [
    "ExpPolyTerm",
    "ExpPoly",
    "HypothesisReport",
    "eval_direct",
    "eval_log_batch",
    "mirror_group",
    "check_hypotheses",
    "check_extra_condition",
    "load_function",
    "function_from_dict",
    "function_to_dict",
    "bundled_function",
]

TWO_PI = 2.0 * math.pi
# Each cache of quantities derived from a function's coefficients holds at
# most this many entries, so it keeps at most this many functions alive.
CACHE_SIZE = 32


def _const(x):
    """x as a read-only array, for constants that meet arrays in every
    orbit step: numpy takes it without converting a Python scalar on each
    call, and computes the same values.  Plain scalars in its place left
    every result the same but made the `bounded` benchmark about 6% slower
    on a 2-core Xeon (median of 6 alternating pairs)."""
    a = np.array(x)
    a.setflags(write=False)
    return a


_TWO_PI_0D, _PI_0D, _ZERO_C = _const(TWO_PI), _const(math.pi), _const(0j)


def _check_alpha(alpha: float) -> None:
    """Refuse a growth exponent alpha, of |f(z)| >= exp(|z|^alpha), that is
    not positive and finite."""
    if not (0.0 < alpha < math.inf):
        raise ValueError("alpha must be positive and finite")


@dataclass(frozen=True)
class ExpPolyTerm:
    """One summand Q(z) exp(b z^d + P(z))."""

    Q: Poly
    b: complex
    P: Poly = field(default_factory=Poly)

    def __post_init__(self):
        coeffs = np.concatenate([self.Q.coeffs, self.P.coeffs, [self.b]])
        if not np.isfinite(coeffs).all():
            raise ValueError("term coefficients must be finite")
        if self.Q.is_zero():
            raise ValueError("term prefactor Q must not be identically zero")
        if self.b == 0:
            raise ValueError("term frequency b must be nonzero")


class ExpPoly:
    """Immutable exponential polynomial of leading exponent degree d.

    Two are equal iff their d and every stored double of every Q_j, b_j and
    P_j, in term order, are bitwise equal, signed zeros included: == on the
    coefficients would merge b = -1+0i and -1-0i, of arguments pi and -pi.
    Quantities derived from the coefficients are cached by this value.
    """

    def __init__(self, d: int, terms):
        terms = tuple(terms)
        # bool is an int subclass, but true is not a degree.
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ValueError("d must be a positive integer")
        if not terms:
            raise ValueError("at least one term required")
        for t in terms:
            if t.P.degree >= d:
                raise ValueError(f"deg(P)={t.P.degree} must be < d={d}")
        bs = [t.b for t in terms]
        if len(set(bs)) != len(bs):
            raise ValueError("frequencies b_j must be pairwise distinct")
        self.d = d
        self.terms = terms
        self.n_terms = len(terms)
        self.max_abs_b = max(abs(b) for b in bs)
        self._key = (d, tuple((t.Q.coeffs.tobytes(), np.complex128(t.b).tobytes(), t.P.coeffs.tobytes())
                              for t in terms))
        self._hash = hash(self._key)

    def __eq__(self, other):
        return isinstance(other, ExpPoly) and self._key == other._key

    def __hash__(self):
        return self._hash

    def exponent_poly(self, j: int) -> Poly:
        """b_j z^d + P_j as a polynomial."""
        t = self.terms[j]
        lead = np.zeros(self.d + 1, dtype=complex)
        lead[self.d] = t.b
        return Poly(lead) + t.P

    def __repr__(self):
        return f"ExpPoly(d={self.d}, n_terms={self.n_terms})"


def _pow_int(z, d: int):
    """z**d by repeated multiplication (keeps exact sign symmetries)."""
    acc = z
    for _ in range(d - 1):
        acc = acc * z
    return acc


def _term_exponents(f: ExpPoly, z):
    """w_j = b_j z^d + P_j(z) for all j; z scalar or ndarray."""
    zd = _pow_int(z, f.d)
    # A zero P_j adds a 0-d zero: the same sum as P_j(z), without its array.
    return [t.b * zd + (_ZERO_C if t.P.is_zero() else t.P(z)) for t in f.terms]


@lru_cache(CACHE_SIZE)
def _deriv_prefactors(f: ExpPoly, order: int):
    """Polynomial prefactors A_j with f^(order) = sum A_j exp(w_j), exact;
    cached by the function value and order."""
    prefs = tuple(t.Q for t in f.terms)
    for _ in range(order):
        prefs = tuple(a.deriv() + a * f.exponent_poly(j).deriv() for j, a in enumerate(prefs))
    return prefs


def eval_direct(f: ExpPoly, z: complex) -> complex:
    """Reference evaluation in plain double arithmetic (small |z| only)."""
    total = 0j
    for t, w in zip(f.terms, _term_exponents(f, complex(z))):
        if w.real > 700.0:
            raise ValueError(f"exponent real part {w.real:.3g} > 700")
        total += t.Q(complex(z)) * cmath.exp(w)
    return total


@lru_cache(CACHE_SIZE)
def _term_consts(f: ExpPoly) -> dict:
    """Per-term constants of f, cached by the function value.

    "q_logs" holds the _q_logs of a constant prefactor, as 0-d arrays, with
    None for a lift of 0, and None for a non-constant one; "b" holds the
    frequencies b_j.  The logs come from the same ufuncs as a per-point
    evaluation, so they are bitwise the values it would give.  Every array
    is read-only, as the result is shared.
    """
    qs = [np.full(1, t.Q.coeffs[0]) if t.Q.degree == 0 else None for t in f.terms]
    logs = [None if q is None else [_const(a[0]) for a in _q_logs(q)] for q in qs]
    return {
        "q_logs": tuple(None if c is None else (*c[:3], c[3] if c[3] > 0 else None) for c in logs),
        "b": tuple(_const(t.b) for t in f.terms),
    }


def _q_logs(q):
    """(q, log q, log|q|, max(log|q|, 0)) of prefactor values q.  The last,
    the lift, bounds what q adds to the real part of a term's log, Re w_j."""
    lqa = np.log(np.abs(q))
    return q, np.log(q), lqa, np.maximum(lqa, 0.0)


def _prefactor_logs(f: ExpPoly, Z, tc: dict):
    """Per term the _q_logs of Q_j(Z); a constant Q_j reads them from tc = _term_consts(f)."""
    return [_q_logs(t.Q(Z)) if cached is None else cached for t, cached in zip(f.terms, tc["q_logs"])]


# exp(x + iy) of a finite y is a signed zero for every x below this.
_EXP_UNDERFLOW = _const(-746.0)
_NEG_INF = _const(-np.inf)
# A correction factor below this is a numerical zero of the sum.
_ZERO_CORR = _const(1e-15)


def _dominant(rows):
    """Elementwise, the first of the complex rows with the largest real part,
    a NaN real part counting as -inf; where every real part is NaN, the first
    row."""
    top = np.asarray(rows[0])
    for row in rows[1:]:
        top = np.where(row.real > np.fmax(top.real, _NEG_INF), row, top)
    return top


def _log_parts(rows):
    """(logmod, zero_mask, S_m, corr) of sum_j exp(S_j) for a list of complex
    log rows; its phase is _phase(S_m, corr), taken where it is read.

    The dominant row S_m = _dominant(rows), whose rule decides ties and NaN,
    is factored out, so the others enter only through the differences
    D_j = S_j - S_m, with non-positive real part, in corr = sum_j exp(D_j).
    Only the terms that can move corr are exponentiated:
    - a zero D_j (a row equal to a finite S_m: the dominant row, or a tie)
      adds exactly 1, up to the sign of a zero;
    - a row with Re D_j < -746 and a finite Im D_j adds a signed zero
      (exp underflows), so it is skipped.
    Every partial sum that holds the dominant 1 absorbs a signed zero, and
    where S_m is not finite the dominant row's NaN decides the sum, so corr
    is bitwise the sum over every term, added in term order.  Every output
    is elementwise: the values at a point do not depend on the other points
    of the rows, nor on their number (numpy's pairwise sum of a reduction
    would group the terms of one point differently).

    Call it under np.errstate(divide="ignore", invalid="ignore").
    """
    Sm = _dominant(rows)
    corr = None
    for row in rows:
        D = row - Sm
        one = np.logical_not(D)
        e = np.array(one, complex)  # 0-d for 0-d rows
        np.exp(D, out=e, where=~(one | ((D.real < _EXP_UNDERFLOW) & np.isfinite(D.imag))))
        corr = e if corr is None else corr + e
    del D, e, one  # free the term arrays before the outputs are allocated
    # A 0-d S_m and corr become numpy scalars, and the outputs are taken in
    # scalar arithmetic: scalar and array arithmetic keep different NaNs of
    # two NaN operands.
    Sm, corr = Sm[()], corr[()]
    corr_abs = np.abs(corr)
    logmod = Sm.real + np.log(corr_abs)
    zero = ~np.isfinite(Sm.real) | (corr_abs < _ZERO_CORR)
    return logmod, zero, Sm, corr


def _phase(Sm, corr):
    """The phase, in (-pi, pi], of the sum that _log_parts returned as S_m,
    corr; 0-d operands give a 0-d array."""
    w = np.remainder(Sm.imag + np.arctan2(corr.imag, corr.real), _TWO_PI_0D)
    return np.asarray(w - _TWO_PI_0D * (w > _PI_0D))


def _eval_log_parts(f: ExpPoly, Z, order: int = 0):
    """eval_log_batch without its phase, for callers that read none: the
    _log_parts (logmod, zero_mask, S_m, corr) of the rows log A_j(Z) + w_j,
    A_j the prefactors of f^(order).  The phase is _phase(S_m, corr).  It
    raises no numpy warning: overflow and NaN show in its outputs.

    Each derivative prefactor, told apart by the bytes of its coefficients
    (== would merge signed zeros, whose logs differ), takes one complex log:
    both order-1 prefactors of sin z^d are (d/2) z^(d-1).
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    Z = np.asarray(Z, dtype=complex)
    with np.errstate(all="ignore"):
        ws = _term_exponents(f, Z)
        if order == 0:
            rows = [lq + w for (_, lq, _, _), w in zip(_prefactor_logs(f, Z, _term_consts(f)), ws)]
        else:
            prefs = _deriv_prefactors(f, order)
            logs = {k: np.log(p(Z)) for k, p in {p.coeffs.tobytes(): p for p in prefs}.items()}
            rows = [logs[p.coeffs.tobytes()] + w for p, w in zip(prefs, ws)]
            del logs
        del ws  # free the term arrays before the sum allocates its own
        return _log_parts(rows)


def eval_log_batch(f: ExpPoly, Z, order: int = 0):
    """Log-domain value of f (order 0), f' (order 1) or f'' (order 2) at Z.

    Returns (logmod, phase, zero_mask) shaped like Z, with the phase in
    (-pi, pi]; a scalar Z gives 0-d values.  A zero of f is reported in
    zero_mask, not raised: flagged entries are numerically zero (the
    dominant-term correction factor vanished to within 1e-15) and their
    logmod and phase are meaningless.  Any other order raises ValueError.
    This is _eval_log_parts plus the phase.
    """
    with np.errstate(all="ignore"):
        logmod, zero, Sm, corr = _eval_log_parts(f, Z, order)
        return logmod, _phase(Sm, corr), zero


# ---------------------------------------------------------------------------
# Exact sign and conjugation symmetries


def _mirror_sign(f: ExpPoly, s: int, conj: bool):
    """eps in {1, -1} with f(g(z)) = eps f(z), or eps conj(f(z)) when conj,
    for g(z) = s z, or s conj(z) when conj; None if there is none.

    Substituting g into a term and conjugating when conj gives the term of
    the stored coefficients with odd powers negated (s = -1) and/or
    conjugated, both exact in doubles.  g qualifies when those terms equal
    f's own, matched by their distinct b, up to one global sign eps.
    """

    def image(c):
        """The ascending coefficients c of the image polynomial."""
        return (np.conj(c) if conj else c) * s ** np.arange(len(c))

    own = {t.b: t for t in f.terms}
    eps = {1, -1}
    for t in f.terms:
        u = own.get(complex(t.b.conjugate() if conj else t.b) * s**f.d)
        if u is None or not np.array_equal(image(t.P.coeffs), u.P.coeffs):
            return None
        eps &= {e for e in (1, -1) if np.array_equal(e * image(t.Q.coeffs), u.Q.coeffs)}
    return eps.pop() if eps else None


def mirror_group(f: ExpPoly) -> frozenset:
    """The maps among z, -z, conj z and -conj z that f respects exactly.

    A map is (s, conj): z -> s z, or s conj(z) when conj.  Each qualifying
    g has an image map h with f(g(z)) = h(f(z)): h is (eps, conj) for the
    sign eps of _mirror_sign.  A g whose h is not in the set is dropped, so
    the set is closed under iteration: the orbit of g(z) is the image of the
    orbit of z under maps of the set, step by step, and has its verdict.
    Quarter turns such as z -> -i conj(z) are never returned.
    """
    image = {(1, False): (1, False)}
    for s, conj in ((-1, False), (1, True), (-1, True)):
        eps = _mirror_sign(f, s, conj)
        if eps is not None:
            image[(s, conj)] = (eps, conj)
    group = set(image)
    while any(image[g] not in group for g in group):
        group = {g for g in group if image[g] in group}
    return frozenset(group)


# ---------------------------------------------------------------------------
# Hypothesis checking


def check_extra_condition(Pk: Poly, bk: complex, Pl: Poly, bl: complex, d: int) -> bool:
    """Whether P_k, P_l split as b g + (degree <= d-3 remainder) with shared g.

    Only the coefficients of z^(d-2) and z^(d-1) are constrained: anything of
    degree <= d-3 is absorbable into the remainder, and the top coefficients
    of g are determined by P_k/b_k, which must agree with P_l/b_l.  That is
    equivalent to the cross products P_k[i] b_l == P_l[i] b_k, compared
    exactly on the stored doubles.
    """
    return all(_exact(Pk.coeff(i)) * _exact(bl) == _exact(Pl.coeff(i)) * _exact(bk) for i in (d - 2, d - 1))


@dataclass
class HypothesisReport:
    """Outcome of the frequency-argument gap conditions on a function: the
    check report, its fields the JSON keys in order."""

    d_ok: bool
    arg_order_ok: bool
    strict_gaps: bool
    pi_gap_pairs: list
    extra_condition_ok: list
    verdict: str  # "Theorem1.1" | "Theorem1.3" | "Fails"
    reason: str = ""


def check_hypotheses(f: ExpPoly) -> HypothesisReport:
    """Classify f against the strict and weak frequency-gap conditions.

    The arguments of the b_j, taken in [0, 2pi) and sorted, leave cyclic
    gaps, the last one from the largest argument round to the smallest; no
    gap may exceed pi.  Each gap of exactly pi is a pair that must admit the
    coefficient splitting tested by check_extra_condition, existentially over
    all terms sharing the two arguments; with no such pair the gaps are
    strict.  Every decision is exact on the stored doubles: the b_j are
    ordered by half-plane, then by the sign of the cross product
    Im(conj(b_j) b_k), and a gap from b_j to b_k is pi iff that is 0 and
    Re(conj(b_j) b_k) < 0.  A gap within 1e-9 rad of pi in floats that is
    not exactly pi adds a note to the reason and changes nothing else.
    """
    if f.d < 3:
        return HypothesisReport(False, False, False, [], [], "Fails", "RequiresD3")
    bs = [_exact(t.b) for t in f.terms]

    def turn(j, k):
        """conj(b_j) b_k: im is the cross product, re the dot product."""
        return bs[j].conjugate() * bs[k]

    def half(j):
        """0 for an argument in [0, pi), 1 for one in [pi, 2pi)."""
        return 0 if bs[j].im > 0 or (bs[j].im == 0 and bs[j].re > 0) else 1

    def same_arg(j):
        return [i for i in range(f.n_terms) if turn(j, i).im == 0 and turn(j, i).re > 0]

    beta = [math.atan2(t.b.imag, t.b.real) for t in f.terms]

    def near_pi(j, k):
        """The one float test, which only labels: the gap is within 1e-9 rad of pi."""
        gap = math.remainder(beta[k] - beta[j], TWO_PI)
        return math.pi - abs(gap) <= 1e-9

    order = sorted(range(f.n_terms), key=cmp_to_key(lambda j, k: half(j) - half(k) or -turn(j, k).im))
    # Gap i runs from order[i] to order[i + 1], the last one round to order[0];
    # its pair is listed in sorted order.  With two terms both gaps have one pair.
    turns = [turn(j, k) for j, k in zip(order, order[1:] + order[:1])]
    pairs = [*zip(order, order[1:]), (order[0], order[-1])]
    is_pi = [t.im == 0 and t.re < 0 for t in turns]
    pi_pairs = list(dict.fromkeys(p for p, pi in zip(pairs, is_pi) if pi))
    near = dict.fromkeys(p for p, pi in zip(pairs, is_pi) if not pi and near_pi(*p))
    notes = [f"gap {p} is within 1e-9 rad of pi but not exactly pi" for p in near]
    # The last gap is in (0, 2pi]: there a zero cross product with a positive
    # dot product is 2pi, every argument being the same.
    if any(t.im < 0 for t in turns) or (turns[-1].im == 0 and turns[-1].re > 0):
        reason = "; ".join(["argument gap condition violated", *notes])
        return HypothesisReport(True, False, False, [], [], "Fails", reason)
    extra_ok = [
        any(
            check_extra_condition(f.terms[a].P, f.terms[a].b, f.terms[b].P, f.terms[b].b, f.d)
            for a in same_arg(j)
            for b in same_arg(k)
        )
        for j, k in pi_pairs
    ]
    if not pi_pairs:
        verdict, reason = "Theorem1.1", ""
    elif all(extra_ok):
        verdict, reason = "Theorem1.3", ""
    else:
        verdict, reason = "Fails", "pi-gap pair without admissible splitting"
    reason = "; ".join(filter(None, [reason, *notes]))
    return HypothesisReport(True, True, not pi_pairs, pi_pairs, extra_ok, verdict, reason)


# ---------------------------------------------------------------------------
# JSON function definitions


def function_from_dict(data: dict) -> ExpPoly:
    """Build an ExpPoly from its JSON form; malformed input raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("function definition must be a JSON object")
    try:
        d = data["d"]
        terms = []
        for td in data["terms"]:
            q = Poly(_coeff(c) for c in td["Q"])
            p = Poly(_coeff(c) for c in td.get("P", []))
            terms.append(ExpPolyTerm(Q=q, b=_coeff(td["b"]), P=p))
    except KeyError as exc:
        raise ValueError(f"function definition lacks key {exc}") from None
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed function definition: {exc}") from None
    return ExpPoly(d=d, terms=terms)


def _coeff(pair) -> complex:
    """One coefficient [re, im] of a JSON definition: exactly two numbers.
    bool is an int subclass, but true is not a number."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"a coefficient must be a pair [re, im], not {pair!r}")
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in pair):
        raise ValueError(f"coefficients must be numbers, not {pair!r}")
    try:
        return complex(float(pair[0]), float(pair[1]))
    except OverflowError:
        raise ValueError(f"coefficient {pair!r} does not fit in doubles") from None


def function_to_dict(f: ExpPoly) -> dict:
    return {
        "d": f.d,
        "terms": [
            {
                "Q": [[c.real, c.imag] for c in t.Q.coeffs],
                "b": [t.b.real, t.b.imag],
                "P": [[c.real, c.imag] for c in t.P.coeffs],
            }
            for t in f.terms
        ],
    }


def load_function(path) -> ExpPoly:
    with open(path, encoding="utf-8") as fh:
        return function_from_dict(json.load(fh))


def bundled_function(name: str) -> ExpPoly:
    """Load one of the shipped definitions: sin_z, sin_z2, sin_z3, example_h."""
    from importlib.resources import files

    res = files("expdyn").joinpath("functions").joinpath(f"{name}.json")
    return function_from_dict(json.loads(res.read_text(encoding="utf-8")))
