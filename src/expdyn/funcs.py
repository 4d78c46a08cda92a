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
from dataclasses import asdict, dataclass, field

import numpy as np

from .poly import Poly

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
# check_hypotheses treats argument gaps within this of pi as exactly pi.
ANGLE_TOL = 1e-9
# Relative tolerance of the cross products in check_extra_condition.
SPLIT_TOL = 1e-12


def _const(x):
    """x as a read-only 0-d array, for constants that meet arrays in every
    orbit step: numpy takes it without converting a Python scalar on each
    call, and computes the same values."""
    a = np.array(x)
    a.setflags(write=False)
    return a


_TWO_PI_0D, _PI_0D, _ZERO_C = _const(TWO_PI), _const(math.pi), _const(0j)


def wrap_phase(p):
    """Reduce an angle (scalar or array) to (-pi, pi]; a scalar gives a 0-d array."""
    w = np.remainder(p, _TWO_PI_0D)
    return np.asarray(w - _TWO_PI_0D * (w > _PI_0D))


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
    """Immutable exponential polynomial of leading exponent degree d."""

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
        # Quantities derived from the (never modified) coefficients, computed
        # once by their users; see orbits.trap_at_0.
        self.memo = {}

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


def _deriv_prefactors(f: ExpPoly, order: int):
    """Polynomial prefactors A_j with f^(order) = sum A_j exp(w_j), exact;
    built once per order and stored on f.memo."""
    key = ("deriv_prefactors", order)
    if key not in f.memo:
        prefs = [t.Q for t in f.terms]
        for _ in range(order):
            nxt = []
            for j, a in enumerate(prefs):
                t = f.terms[j]
                lead = np.zeros(f.d, dtype=complex)
                lead[f.d - 1] = f.d * t.b
                wprime = Poly(lead) + t.P.deriv()
                nxt.append(a.deriv() + a * wprime)
            prefs = nxt
        f.memo[key] = prefs
    return f.memo[key]


def eval_direct(f: ExpPoly, z: complex) -> complex:
    """Reference evaluation in plain double arithmetic (small |z| only)."""
    total = 0j
    for t, w in zip(f.terms, _term_exponents(f, complex(z))):
        if w.real > 700.0:
            raise ValueError(f"exponent real part {w.real:.3g} > 700")
        total += t.Q(complex(z)) * cmath.exp(w)
    return total


def _term_consts(f: ExpPoly) -> dict:
    """Per-term constants of f, computed once and stored on f.memo.

    "q_logs" holds the _q_logs of a constant prefactor, as 0-d arrays, with
    None for a lift of 0, and None for a non-constant one; "beta" and "abs_b"
    hold arg b_j and |b_j|.  The logs come from the same ufuncs as a
    per-point evaluation, so they are bitwise the values it would give.
    """
    if "term_consts" not in f.memo:
        qs = [np.full(1, t.Q.coeffs[0]) if t.Q.degree == 0 else None for t in f.terms]
        logs = [None if q is None else [_const(a[0]) for a in _q_logs(q)] for q in qs]
        f.memo["term_consts"] = {
            "q_logs": [None if c is None else (*c[:3], c[3] if c[3] > 0 else None) for c in logs],
            "beta": np.array([cmath.phase(t.b) for t in f.terms]),
            "abs_b": np.array([abs(t.b) for t in f.terms]),
        }
    return f.memo["term_consts"]


def _q_logs(q):
    """(q, log q, log|q|, max(log|q|, 0)) of prefactor values q.  The last,
    the lift, bounds what q adds to the real part of a term's log, Re w_j."""
    lqa = np.log(np.abs(q))
    return q, np.log(q), lqa, np.maximum(lqa, 0.0)


def _prefactor_logs(f: ExpPoly, Z):
    """Per term the _q_logs of Q_j(Z); 0-d arrays for a constant Q_j."""
    return [_q_logs(t.Q(Z)) if cached is None else cached for t, cached in zip(f.terms, _term_consts(f)["q_logs"])]


# exp(x + iy) of a finite y is a signed zero for every x below this.
_EXP_UNDERFLOW = _const(-746.0)
_NEG_INF = _const(-np.inf)
# A correction factor below this is a numerical zero of the sum.
_ZERO_CORR = _const(1e-15)


def _log_parts(rows):
    """(logmod, zero_mask, S_m, corr) of sum_j exp(S_j) for a list of complex
    log rows; its phase is _phase(S_m, corr), taken where it is read.

    The dominant row S_m, the first with the largest real part (a NaN real
    part counts as -inf), is factored out, so the others enter only through
    the differences D_j = S_j - S_m, with non-positive real part, in
    corr = sum_j exp(D_j).  Only the terms that can move corr are
    exponentiated:
    - a zero D_j (a row equal to a finite S_m: the dominant row, or a tie)
      adds exactly 1, up to the sign of a zero;
    - a row with Re D_j < -746 and a finite Im D_j adds a signed zero
      (exp underflows), so it is skipped.
    Every partial sum that holds the dominant 1 absorbs a signed zero, and
    where S_m is not finite the dominant row's NaN decides the sum, so corr
    is bitwise the sum over every term, reduced over a stacked term axis.
    Every output is elementwise: the values at a point do not depend on the
    other points of the rows.

    Call it under np.errstate(divide="ignore", invalid="ignore").
    """
    Sm = np.asarray(rows[0])
    for row in rows[1:]:
        Sm = np.where(row.real > np.fmax(Sm.real, _NEG_INF), row, Sm)
    terms = np.empty((len(rows),) + Sm.shape, complex)
    for j, row in enumerate(rows):
        e = terms[j, ...]  # a view, 0-d for 0-d rows
        D = row - Sm
        one = np.logical_not(D)
        e[...] = one
        np.exp(D, out=e, where=~(one | ((D.real < _EXP_UNDERFLOW) & np.isfinite(D.imag))))
    corr = np.add.reduce(terms)
    del terms, D, e, one  # free the term arrays before the outputs are allocated
    # A 0-d S_m becomes a numpy scalar, as the stacked formula had it:
    # scalar and array arithmetic keep different NaNs of two NaN operands.
    Sm = Sm[()]
    corr_abs = np.abs(corr)
    logmod = Sm.real + np.log(corr_abs)
    zero = ~np.isfinite(Sm.real) | (corr_abs < _ZERO_CORR)
    return logmod, zero, Sm, corr


def _phase(Sm, corr):
    """The phase, in (-pi, pi], of the sum that _log_parts returned as S_m, corr."""
    return wrap_phase(Sm.imag + np.arctan2(corr.imag, corr.real))


def _log_sum(rows):
    """(logmod, phase, zero_mask) of sum_j exp(S_j): _log_parts with its phase.
    Call it under np.errstate(divide="ignore", invalid="ignore")."""
    logmod, zero, Sm, corr = _log_parts(rows)
    return logmod, _phase(Sm, corr), zero


def eval_log_batch(f: ExpPoly, Z, order: int = 0):
    """Log-domain value of f (order 0), f' (order 1) or f'' (order 2) at Z.

    Returns (logmod, phase, zero_mask) shaped like Z, with the phase in
    (-pi, pi]; a scalar Z gives 0-d values.  A zero of f is reported in
    zero_mask, not raised: flagged entries are numerically zero (the
    dominant-term correction factor vanished to within 1e-15) and their
    logmod and phase are meaningless.  Any other order raises ValueError.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    Z = np.asarray(Z, dtype=complex)
    ws = _term_exponents(f, Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        if order == 0:
            logp = [lq for _, lq, _, _ in _prefactor_logs(f, Z)]
        else:
            logp = [np.log(p(Z)) for p in _deriv_prefactors(f, order)]
        rows = [lp + w for lp, w in zip(logp, ws)]
        del ws, logp  # free the term arrays before the sum allocates its own
        return _log_sum(rows)


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
    equivalent to the cross products P_k[i] b_l == P_l[i] b_k, to SPLIT_TOL
    relative.
    """
    for i in (d - 2, d - 1):
        x = Pk.coeff(i) * bl
        y = Pl.coeff(i) * bk
        scale = max(abs(x), abs(y))
        if scale > 0 and abs(x - y) > SPLIT_TOL * scale:
            return False
    return True


@dataclass
class HypothesisReport:
    """Outcome of the frequency-argument gap conditions on a function."""

    d_ok: bool
    arg_order_ok: bool
    strict_gaps: bool
    pi_gap_pairs: list
    extra_condition_ok: list
    verdict: str  # "Theorem1.1" | "Theorem1.3" | "Fails"
    reason: str = ""

    def to_dict(self):
        return asdict(self)


def check_hypotheses(f: ExpPoly) -> HypothesisReport:
    """Classify f against the strict and weak frequency-gap conditions.

    Arguments of the b_j are taken in [0, 2pi) and sorted; consecutive gaps
    must not exceed pi and the total spread must reach pi.  A gap within
    ANGLE_TOL of pi is treated as exactly pi, and each such pair must admit
    the coefficient splitting tested by check_extra_condition (existentially
    over all terms sharing the two arguments involved).
    """
    if f.d < 3:
        return HypothesisReport(
            d_ok=False,
            arg_order_ok=False,
            strict_gaps=False,
            pi_gap_pairs=[],
            extra_condition_ok=[],
            verdict="Fails",
            reason="RequiresD3",
        )

    args = np.array([cmath.phase(t.b) % TWO_PI for t in f.terms])
    order = np.argsort(args, kind="stable")
    beta = args[order]
    gaps = np.diff(beta)
    spread = beta[-1] - beta[0]

    weak_ok = bool(np.all(gaps <= math.pi + ANGLE_TOL) and spread >= math.pi - ANGLE_TOL)
    if not weak_ok:
        return HypothesisReport(
            d_ok=True,
            arg_order_ok=False,
            strict_gaps=False,
            pi_gap_pairs=[],
            extra_condition_ok=[],
            verdict="Fails",
            reason="argument gap condition violated",
        )

    pi_pairs = []
    for i, g in enumerate(gaps):
        if abs(g - math.pi) <= ANGLE_TOL:
            pi_pairs.append((int(order[i]), int(order[i + 1])))
    if abs(spread - math.pi) <= ANGLE_TOL:
        pair = (int(order[0]), int(order[-1]))
        if pair not in pi_pairs:
            pi_pairs.append(pair)

    extra_ok = []
    for j, k in pi_pairs:
        # Existential over all terms sharing the two arguments of the pair.
        side_a = [i for i in range(f.n_terms) if _arg_close(args[i], args[j])]
        side_b = [i for i in range(f.n_terms) if _arg_close(args[i], args[k])]
        found = any(
            check_extra_condition(
                f.terms[a].P, f.terms[a].b, f.terms[b].P, f.terms[b].b, f.d
            )
            for a in side_a
            for b in side_b
        )
        extra_ok.append(found)

    strict = not pi_pairs and spread > math.pi + ANGLE_TOL
    if strict:
        verdict, reason = "Theorem1.1", ""
    elif all(extra_ok):
        verdict, reason = "Theorem1.3", ""
    else:
        verdict, reason = "Fails", "pi-gap pair without admissible splitting"
    return HypothesisReport(
        d_ok=True,
        arg_order_ok=True,
        strict_gaps=strict,
        pi_gap_pairs=pi_pairs,
        extra_condition_ok=extra_ok,
        verdict=verdict,
        reason=reason,
    )


def _arg_close(a: float, b: float) -> bool:
    return abs(wrap_phase(a - b)) <= ANGLE_TOL


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
