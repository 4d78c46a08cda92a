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
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateQ, EvalOverflow, ZeroValue
from .poly import Poly

__all__ = [
    "LogComplex",
    "ExpPolyTerm",
    "ExpPoly",
    "HypothesisReport",
    "eval_direct",
    "eval_log",
    "eval_deriv_log",
    "eval_log_batch",
    "dominant_index",
    "approx_error",
    "check_hypotheses",
    "check_extra_condition",
    "load_function",
    "function_from_dict",
    "function_to_dict",
    "bundled_function",
]

TWO_PI = 2.0 * math.pi


def wrap_phase(p):
    """Reduce an angle (scalar or array) to (-pi, pi]."""
    w = np.remainder(p, TWO_PI)
    return np.where(w > math.pi, w - TWO_PI, w)


@dataclass(frozen=True)
class LogComplex:
    """A nonzero complex value as (log of modulus, phase in (-pi, pi])."""

    logmod: float
    phase: float

    @classmethod
    def from_complex(cls, z: complex) -> "LogComplex":
        if z == 0:
            raise ZeroValue("log representation of 0")
        return cls(math.log(abs(z)), float(wrap_phase(cmath.phase(z))))

    def to_complex(self) -> complex:
        return cmath.rect(math.exp(self.logmod), self.phase)

    def __complex__(self) -> complex:
        return self.to_complex()


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
        if not isinstance(d, int) or d < 1:
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
        self.min_abs_b = min(abs(b) for b in bs)
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
    return [t.b * zd + t.P(z) for t in f.terms]


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
            raise EvalOverflow(f"exponent real part {w.real:.3g} > 700")
        total += t.Q(complex(z)) * cmath.exp(w)
    return total


def _term_consts(f: ExpPoly) -> dict:
    """Per-term constants of f, computed once and stored on f.memo.

    "q_logs" holds (Q_j, log Q_j, log|Q_j|) for a constant prefactor and None
    for a non-constant one; "beta" and "abs_b" hold arg b_j and |b_j|.  The
    logs come from the same ufuncs as a per-point evaluation, so they are
    bitwise the values it would give.
    """
    if "term_consts" not in f.memo:
        qs = [np.full(1, t.Q.coeffs[0]) if t.Q.degree == 0 else None for t in f.terms]
        f.memo["term_consts"] = {
            "q_logs": [None if q is None else (q[0], np.log(q)[0], np.log(np.abs(q))[0]) for q in qs],
            "beta": np.array([cmath.phase(t.b) for t in f.terms]),
            "abs_b": np.array([abs(t.b) for t in f.terms]),
        }
    return f.memo["term_consts"]


def _prefactor_logs(f: ExpPoly, Z):
    """Per term (Q_j(Z), log Q_j(Z), log|Q_j(Z)|); scalars for a constant Q_j."""
    out = []
    for t, cached in zip(f.terms, _term_consts(f)["q_logs"]):
        if cached is None:
            q = t.Q(Z)
            cached = (q, np.log(q), np.log(np.abs(q)))
        out.append(cached)
    return out


def _log_sum(S):
    """(logmod, phase, zero_mask) of sum_j exp(S_j) for stacked complex logs S.

    The dominant term is factored out, so the others enter only through
    exponent differences with non-positive real part.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.argmax(np.where(np.isnan(S.real), -np.inf, S.real), axis=0)
        Sm = np.take_along_axis(S, m[None, ...], axis=0)[0]
        corr = np.exp(S - Sm[None, ...]).sum(axis=0)
        corr_abs = np.abs(corr)
        logmod = Sm.real + np.log(corr_abs)
        phase = wrap_phase(Sm.imag + np.angle(corr))
    zero = ~np.isfinite(Sm.real) | (corr_abs < 1e-15)
    return logmod, phase, zero


def eval_log_batch(f: ExpPoly, Z, order: int = 0):
    """Vectorized log-domain evaluation of f (order 0) or its derivatives.

    Returns (logmod, phase, zero_mask) as float arrays shaped like Z.
    Entries flagged in zero_mask are numerically zero (the dominant-term
    correction factor vanished to within 1e-15); their logmod/phase are
    meaningless.
    """
    Z = np.asarray(Z, dtype=complex)
    ws = _term_exponents(f, Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        if order == 0:
            logp = [lq for _, lq, _ in _prefactor_logs(f, Z)]
        else:
            logp = [np.log(p(Z)) for p in _deriv_prefactors(f, order)]
        S = np.stack([lp + w for lp, w in zip(logp, ws)])
    return _log_sum(S)


def eval_log(f: ExpPoly, z: complex) -> LogComplex:
    """Log-domain value of f(z); raises ZeroValue near a zero of f."""
    logmod, phase, zero = eval_log_batch(f, np.asarray(complex(z)))
    if bool(zero):
        raise ZeroValue(f"f vanishes (numerically) at {z}")
    return LogComplex(float(logmod), float(phase))


def eval_deriv_log(f: ExpPoly, z: complex, order: int) -> LogComplex:
    """Log-domain value of f'(z) or f''(z) with exact per-term prefactors."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    logmod, phase, zero = eval_log_batch(f, np.asarray(complex(z)), order=order)
    if bool(zero):
        raise ZeroValue(f"derivative of order {order} vanishes at {z}")
    return LogComplex(float(logmod), float(phase))


def dominant_index(f: ExpPoly, z: complex) -> int:
    """Index maximizing Re(b_j z^d + P_j(z)); ties go to the smallest index."""
    re = [w.real for w in _term_exponents(f, complex(z))]
    return int(np.argmax(re))


def approx_error(f: ExpPoly, z: complex) -> float:
    """|sum_{j != m} (Q_j/Q_m)(z) exp(w_j - w_m)|, finite at any scale."""
    z = complex(z)
    m = dominant_index(f, z)
    qm = f.terms[m].Q(z)
    if abs(qm) < 1e-300:
        raise DegenerateQ(f"|Q_m(z)| = {abs(qm):.3g} at z={z}")
    ws = _term_exponents(f, z)
    total = 0j
    for j, (t, w) in enumerate(zip(f.terms, ws)):
        if j == m:
            continue
        total += (t.Q(z) / qm) * cmath.exp(w - ws[m])
    return abs(total)


# ---------------------------------------------------------------------------
# Hypothesis checking


def check_extra_condition(
    Pk: Poly, bk: complex, Pl: Poly, bl: complex, d: int, tol: float = 1e-12
) -> bool:
    """Whether P_k, P_l split as b g + (degree <= d-3 remainder) with shared g.

    Only the coefficients of z^(d-2) and z^(d-1) are constrained: anything of
    degree <= d-3 is absorbable into the remainder, and the top coefficients
    of g are determined by P_k/b_k, which must agree with P_l/b_l.  That is
    equivalent to the cross products P_k[i] b_l == P_l[i] b_k.
    """
    for i in (d - 2, d - 1):
        x = Pk.coeff(i) * bl
        y = Pl.coeff(i) * bk
        scale = max(abs(x), abs(y))
        if scale > 0 and abs(x - y) > tol * scale:
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
        return {
            "d_ok": self.d_ok,
            "arg_order_ok": self.arg_order_ok,
            "strict_gaps": self.strict_gaps,
            "pi_gap_pairs": [list(p) for p in self.pi_gap_pairs],
            "extra_condition_ok": list(self.extra_condition_ok),
            "verdict": self.verdict,
            "reason": self.reason,
        }


def check_hypotheses(f: ExpPoly, angle_tol: float = 1e-9) -> HypothesisReport:
    """Classify f against the strict and weak frequency-gap conditions.

    Arguments of the b_j are taken in [0, 2pi) and sorted; consecutive gaps
    must not exceed pi and the total spread must reach pi.  A gap within
    angle_tol of pi is treated as exactly pi, and each such pair must admit
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

    weak_ok = bool(np.all(gaps <= math.pi + angle_tol) and spread >= math.pi - angle_tol)
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
        if abs(g - math.pi) <= angle_tol:
            pi_pairs.append((int(order[i]), int(order[i + 1])))
    if abs(spread - math.pi) <= angle_tol:
        pair = (int(order[0]), int(order[-1]))
        if pair not in pi_pairs:
            pi_pairs.append(pair)

    extra_ok = []
    for j, k in pi_pairs:
        # Existential over all terms sharing the two arguments of the pair.
        side_a = [i for i in range(f.n_terms) if _arg_close(args[i], args[j], angle_tol)]
        side_b = [i for i in range(f.n_terms) if _arg_close(args[i], args[k], angle_tol)]
        found = any(
            check_extra_condition(
                f.terms[a].P, f.terms[a].b, f.terms[b].P, f.terms[b].b, f.d
            )
            for a in side_a
            for b in side_b
        )
        extra_ok.append(found)

    strict = not pi_pairs and spread > math.pi + angle_tol
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


def _arg_close(a: float, b: float, tol: float) -> bool:
    return abs(wrap_phase(a - b)) <= tol


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
            q = Poly(complex(re, im) for re, im in td["Q"])
            p = Poly(complex(re, im) for re, im in td.get("P", []))
            b = complex(td["b"][0], td["b"][1])
            terms.append(ExpPolyTerm(Q=q, b=b, P=p))
    except KeyError as exc:
        raise ValueError(f"function definition lacks key {exc}") from None
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed function definition: {exc}") from None
    return ExpPoly(d=d, terms=terms)


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
