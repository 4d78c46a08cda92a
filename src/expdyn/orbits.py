"""Orbit iteration, escape certification, and maximum-modulus machinery.

Orbits are iterated in three regimes.  While the next exponent b z^d is
representable in doubles the position is held as an exact complex number,
stepped by the exact term sum; f is evaluated in log-domain only where a
per-point screen cannot prove that log|f| leaves the step unchanged: near a
zero of f, near the promotion to tower mode, beyond the escape radius, or
where a term overflows.  Beyond that the magnitude is carried as an
iterated-exp pair (depth, v) with |z| = exp^depth(v), driven by the dominant
term's growth max_j Re(b_j u^d) * |z|^d, u the direction of z held as a unit
complex number, never as a wrapped angle; at this scale u is a deterministic
proxy (the direction of the dominant exponent b_m z^d), since the true phase
of f is an astronomically large number mod 2 pi.  Tower mode is one-way: an orbit never returns to direct mode, and one
whose model magnitude falls back into the double range stops there,
Undetermined, since the model has no true point to continue from.  A start
point whose log-domain evaluation overflows doubles starts in tower mode at
its own magnitude; a NaN or infinite start point is Undetermined after 0
steps.  Classification is certificate-based: escape is only reported after a
run of consecutive certified steps.  A direct step is certified when the
point lies beyond the escape radius, outside the level-1 exceptional set,
and grows at the stretched exponential rate log|z_{k+1}| >= |z_k|^alpha; a
tower step checks the radius and the growth of the dominant-term model, and
no level-1 membership.

Non-escape is reported when an orbit lands exactly on a fixed point inside
the radius or its new point enters the trap region R, proofs that end it at
once, or, at the end of the budget, when the start points of its last
TAIL_STEPS steps (all of them, for a shorter budget) and its last point lie
inside the radius, in direct mode.  Where f(0) = 0 holds exactly, trap_at_0
certifies R with f(R) inside R and R inside D(0, rho), rho below the escape
radius: an attracting disk when |f'(0)| < 1, or, when f'(0) = 1, a union of
wedges in the Leau-Fatou coordinate w = c / z^m: the parabolic petal and
wedges that reach toward its repelling directions.  An orbit whose new point
(the float iterate) lies in R stops there as NonEscapeObserved, with the
`trapped` flag and `steps` the entry step.

One engine, _classify_pool, steps a pool of live orbits of any ages, each
reading its own age, so the pool admits new start points as orbits finish
without changing any result.  It holds its direct and its tower orbits in
two states, one per mode, and steps each on whole columns; an orbit is
handed from the first to the second once, never back.  classify_batch runs
its whole batch as one pool, and is the only classifier: a single orbit is
a batch of one.  The renderer runs one bounded pool per worker thread.

The pairs are the package's one tower arithmetic: _tower_next steps them
for the orbits and for the iterated maximum modulus M^n(R) alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptional import in_E_mask
from .funcs import (
    CACHE_SIZE,
    ExpPoly,
    _ZERO_C,
    _ZERO_CORR,
    _check_alpha,
    _const,
    _eval_log_parts,
    _log_parts,
    _phase,
    _pow_int,
    _prefactor_logs,
    _term_consts,
    _term_exponents,
)
from .poly import _GaussQ, _exact

__all__ = [
    "ClassifyParams",
    "ESCAPE_CERTIFIED",
    "NON_ESCAPE_OBSERVED",
    "UNDETERMINED",
    "log_max_modulus",
    "iterate_max_modulus",
    "classify_batch",
]

ESCAPE_CERTIFIED = "EscapeCertified"
NON_ESCAPE_OBSERVED = "NonEscapeObserved"
UNDETERMINED = "Undetermined"

# Tag strings indexed by tag_code.
_TAG_TABLE = np.array([UNDETERMINED, ESCAPE_CERTIFIED, NON_ESCAPE_OBSERVED], dtype=object)

# A non-escape verdict requires this many trailing steps inside the radius,
# and the last point inside it.
TAIL_STEPS = 16
# Beyond this iterated-exp depth an uncertified orbit is given up on.
MAX_DEPTH = 6
# A direct-mode orbit whose log|f| exceeds this (or the smaller cap at which
# the next exponent b z^d leaves doubles) moves to tower mode.
BAIL_LOGMOD = 690.0
# Circle samples of log_max_modulus.
CIRCLE_SAMPLES = 256


@dataclass(frozen=True)
class ClassifyParams:
    alpha: float = 0.25
    escape_radius: float = 50.0
    max_iter: int = 512
    cert_steps: int = 3

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.cert_steps < 2:
            raise ValueError("cert_steps must be at least 2")
        if not (math.isfinite(self.escape_radius) and self.escape_radius > 0):
            raise ValueError("escape_radius must be positive and finite")
        # Orbit ages are int64.
        if not 1 <= self.max_iter <= np.iinfo(np.int64).max:
            raise ValueError("max_iter must be between 1 and 2**63 - 1")


# ---------------------------------------------------------------------------
# Tower magnitudes
#
# (depth, val) stands for exp^depth(val).  The canonical form has the least
# depth: no depth > 0 with val <= LIFT, where exp(val) fits in doubles.  An
# orbit enters tower mode at depth 1 with val = log|z|, canonical only from
# its first tower step.  Canonical pairs compare lexicographically as the
# magnitudes do while no val exceeds exp(LIFT) ~ 4.4e299 (a larger depth-k val
# can exceed exp of a depth-(k+1) val in (LIFT, 709.8]); nothing in the engine
# compares pairs, only the tests and the ladder of iterate_max_modulus do.

LIFT = 690.0


def _canon_arrays(depth, val):
    """Canonicalise (depth, val) pairs in place and return them."""
    while (m := (depth > 0) & (val <= LIFT)).any():
        val[m] = np.exp(val[m])
        depth[m] -= 1
    return depth, val


def _tower_next(dep, v, logc, d: int):
    """Canonical (depth, val) of exp(c r^d) for the magnitudes r = (dep, v), dep >= 1.

    val is log c + d v at depth 1, log(d e^v + log c) = v + log d in doubles
    at depth 2 (v > LIFT), and v deeper.
    """
    logd = math.log(d) if d > 1 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        nv = np.where(dep == 1, logc + d * v, np.where(dep == 2, v + logd, v))
    return _canon_arrays(dep + 1, nv)


# ---------------------------------------------------------------------------
# Maximum modulus


def _log_deriv_bound(f: ExpPoly, r: float) -> float:
    """Crude estimate of |f'/f| near the circle maximum of |f| on |z| = r.

    Near the maximum the dominant term carries f, so |f'/f| is within a
    factor of the exponent derivative plus polynomial logarithmic
    derivatives; the factor 2 absorbs the subdominant correction.
    """
    bound = 0.0
    for t in f.terms:
        g = f.d * abs(t.b) * r ** (f.d - 1) + t.P.deriv().coeff_bound(r)
        if t.Q.degree > 0:
            g += t.Q.degree / max(r, 1.0)
        bound = max(bound, g)
    return 2.0 * bound + 1.0


def log_max_modulus(f: ExpPoly, r: float):
    """Sampled estimates lo <= hi of log max_{|z|=r} |f(z)|.

    lo is the maximum of log|f| over CIRCLE_SAMPLES points, so up to
    rounding it is at most the true value.  hi adds a Lipschitz slack for
    the half gap between samples from the crude gradient estimate above,
    a heuristic that is no bound near a zero of a Q_j: hi is an estimate,
    not a certified upper bound.  Raises ValueError where either is not
    finite in doubles.
    """
    if not (r > 0 and math.isfinite(r)):
        raise ValueError("r must be positive and finite")
    thetas = 2.0 * math.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES
    Z = r * np.exp(1j * thetas)
    lm, zero = _eval_log_parts(f, Z)[:2]
    lo = float(np.where(zero, -np.inf, lm).max())
    # A finite lo means r^d, and so the r^(d-1) of the slack, fits in doubles.
    hi = lo + r * _log_deriv_bound(f, r) * (math.pi / CIRCLE_SAMPLES) if math.isfinite(lo) else lo
    if math.isfinite(hi):
        return lo, hi
    raise ValueError(f"log max modulus on |z| = {r} is not finite in doubles")


def iterate_max_modulus(f: ExpPoly, R: float, n: int):
    """Estimates of the first n iterates M^n(R) of r -> M(r, f), which define
    the fast escaping set A(f), as canonical (depth, val) tuples (ordered as
    at LIFT).

    Circle sampling (the hi estimate of log_max_modulus) while the exponents
    fit in doubles, then the tower step of log M(r) <= c r^d,
    c = max|b_j| (1 + 1e-9).  The ladder is a sampled estimate of M^n(R), not
    a certified upper bound: hi rests on a heuristic gradient estimate.
    """
    lo, hi = log_max_modulus(f, R)
    if lo <= math.log(R):
        raise ValueError(f"M({R}) not certified above {R}")
    out, depth, val = [], 0, float(R)
    logc = math.log(f.max_abs_b * (1.0 + 1e-9))
    for _ in range(n):
        if depth == 0 and f.d * math.log(val) + math.log(f.max_abs_b) <= 700.0:
            _, hi = log_max_modulus(f, val)
            depth, val = (0, math.exp(hi)) if hi <= LIFT else (1, hi)
        else:
            # A depth-0 r enters the tower step as (1, log r).
            dep, v = (depth, val) if depth else (1, math.log(val))
            nd, nv = _tower_next(np.array([dep]), np.array([v]), logc, f.d)
            depth, val = int(nd[0]), float(nv[0])
        out.append((depth, val))
    return out


# ---------------------------------------------------------------------------
# Trap regions at the fixed point 0
#
# The Taylor coefficients a_k of f at 0 are computed exactly, in rational
# arithmetic on the stored doubles, up to TRAP_ORDER.  The rest of the series
# is bounded on |z| <= rho by the coefficientwise majorant
#
#     F(rho) = sum_j Qhat_j(rho) exp(|b_j| rho^d + Phat_j(rho)),
#
# hats taking absolute values of coefficients, whose Taylor coefficients
# dominate |a_k|: sum_{k > K} |a_k| rho^k <= F(rho) - sum_{k <= K} F_k rho^k.

TRAP_ORDER = 12
# Candidate radii, tried in order; the first one that certifies is used.
_TRAP_RADII = tuple(2.0**-i for i in range(21))
# Relative outward margin of the floating-point membership test.
_TRAP_MARGIN = 1e-9
# The steepest wedge slope: with it every threshold A_k of trap_at_0 stays
# below 2^800, a double, whatever lead coefficient certifies.
_MAX_SLOPE = 2.0**26
# 2^-50 bounds the relative error of float(x) followed by a square root.
_SQRT_REL = Fraction(1, 2**50)


def _sqrt_bounds(x: Fraction):
    """Rationals lo <= sqrt(x) <= hi for a rational x >= 0."""
    if x > 2**1000:
        return Fraction(2**500), x
    fx = float(x)
    if fx < 2.0**-1000:
        return Fraction(0), Fraction(1, 2**500)
    s = Fraction(math.sqrt(fx))
    return s * (1 - _SQRT_REL), s * (1 + _SQRT_REL)


def _abs_up(c) -> Fraction:
    """A rational upper bound for |c| of a stored complex double."""
    re, im = Fraction(c.real), Fraction(c.imag)
    if not im or not re:
        return abs(re) + abs(im)
    return _sqrt_bounds(re * re + im * im)[1]


def _up(x: Fraction) -> float:
    """The smallest double >= x."""
    y = float(x)
    return math.nextafter(y, math.inf) if Fraction(y) < x else y


def _series_mul(p, q, K, zero):
    out = [zero] * (K + 1)
    for i, a in enumerate(p[: K + 1]):
        if a:
            for j, b in enumerate(q[: K + 1 - i]):
                out[i + j] = out[i + j] + a * b
    return out


def _series_exp(e, K, zero, one):
    """exp(e) to order K for e[0] = 0, by k y_k = sum_i i e_i y_(k-i)."""
    y = [one] + [zero] * K
    for k in range(1, K + 1):
        acc = zero
        for i in range(1, k + 1):
            if e[i]:
                acc = acc + e[i] * y[k - i] * Fraction(i, k)
        y[k] = acc
    return y


def _term_series(t, d, K, coef, zero):
    """Order-K series of the exponent b z^d + P(z) and the prefactor Q."""
    e = [zero] * (K + 1)
    for i, c in enumerate(t.P.coeffs[: K + 1]):
        e[i] = coef(c)
    if d <= K:
        e[d] = coef(t.b)
    return e, [coef(c) for c in t.Q.coeffs]


def _exp_up(x: Fraction) -> Fraction:
    """A rational upper bound for exp(x), 0 <= x <= 64."""
    n = 2 * math.ceil(x) + 16
    term = s = Fraction(1)
    for k in range(1, n + 1):
        term = term * x / k
        s += term
    # sum_{k > n} x^k/k! <= term * x/(n+1) * 1/(1 - x/(n+2))
    return s + term * x / (n + 1) / (1 - x / (n + 2))


def _poly_at(coeffs, r: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def _tail_up(f: ExpPoly, K: int, rho: Fraction, hat) -> Fraction | None:
    """Upper bound for sum_{k > K} |a_k| rho^k from the majorant F."""
    total = Fraction(0)
    for t in f.terms:
        e, q = _term_series(t, f.d, f.d, _abs_up, Fraction(0))
        x = _poly_at(e, rho)
        if x > 64:
            return None
        total += _poly_at(q, rho) * _exp_up(x)
    return total - _poly_at(hat, rho)


@dataclass(frozen=True)
class TrapRegion:
    """A region R with f(R) inside R and R inside D(0, rho).

    kind "disk": R = D(0, rho).  kind "petal": around a multiplier-1 fixed
    point 0, with w = c / z^m, c = -1/(m a_(m+1)), R is the union of the
    wedges {Re w + t_k |Im w| > A_k} of members, one (rho_k, t_k, A_k) each,
    outermost first: the first is the Leau-Fatou petal {Re w > A_0}
    (t_0 = 0, rho_0 = rho), and each later one reaches further toward the
    repelling directions, the negative real axis of w.  trap_at_0 proves
    each wedge invariant and inside D(0, rho_k), so the union is too.
    """

    kind: str
    rho: float
    m: int = 0
    c: complex = 0j
    members: tuple = ()

    def contains(self, z):
        """Float membership of a 1-d complex array z with an outward margin: True
        entries lie in R.  Runs under the caller's np.errstate."""
        if self.kind == "disk":
            return np.abs(z) < self.rho * (1.0 - _TRAP_MARGIN)
        t, margin, A = self._columns
        w = self.c / _pow_int(z, self.m)
        return (w.real + t * np.abs(w.imag) - margin * np.abs(w) > A).any(axis=0)

    @functools.cached_property
    def _columns(self):
        """The members' t_k, margins and A_k as columns, one row per member.
        The float w is within _TRAP_MARGIN |w| of the exact c / z^m, which
        moves Re w + t |Im w| by at most (1 + t) times that."""
        t, A = (np.array([[mk[i]] for mk in self.members]) for i in (1, 2))
        return t, _TRAP_MARGIN * (1.0 + t), A


def _taylor(f: ExpPoly, K: int, coef, zero, one):
    """Order-K Taylor series at 0 of sum_j Q_j exp(b_j z^d + P_j), with each
    stored coefficient c read as coef(c).  Needs every P_j(0) = 0."""
    total = [zero] * (K + 1)
    for t in f.terms:
        e, q = _term_series(t, f.d, K, coef, zero)
        y = _series_mul(q, _series_exp(e, K, zero, one), K, zero)
        total = [u + v for u, v in zip(total, y)]
    return total


def _certify_disk(a, hat, f, rho: Fraction) -> bool:
    """sup_{|z| <= rho} |f| < rho."""
    tail = _tail_up(f, TRAP_ORDER, rho, hat)
    if tail is None:
        return False
    bound = sum(_sqrt_bounds(ak.abs2())[1] * rho**k for k, ak in enumerate(a) if ak)
    return bound + tail < rho


def _certify_petal(a, hat, f, m: int, rho: Fraction) -> Fraction | None:
    """A bound delta >= |W - w - 1| on 0 < |z| <= rho, for
    f = z + a z^(m+1) + T(z), w = c / z^m and W = w(f(z)); None where the
    tail is not finite, the lead a vanishes to the precision of its bounds,
    or U >= 1.

    With u = f(z)/z - 1 and eps = T(z) / (a z^(m+1)),
    W - w - 1 = w ((1+u)^-m - 1 + m u) + eps, so |W - w - 1| is at most
    ((1-U)^-m - 1 - m U) / (m |a| r^m) + tau / (|a| r^(m+1)), with
    tau >= |T| and U = |a| r^m + tau/r >= |u|; U < 1 also keeps f free of
    zeros on the punctured disk, where W is then defined.  tau(r) is a power
    series in r with non-negative coefficients from r^(m+2) on, so
    tau/r^(m+1) and U^2/r^m do not decrease with r, and neither does
    g(U)/U^2 with U for g(U) = (1-U)^-m - 1 - m U: the bound grows with r,
    and its value at r = rho, returned, covers the whole punctured disk.
    """
    tail = _tail_up(f, TRAP_ORDER, rho, hat)
    if tail is None:
        return None
    lead_lo, lead_hi = _sqrt_bounds(a[m + 1].abs2())
    if not lead_lo:
        return None
    tau = tail + sum(
        _sqrt_bounds(a[k].abs2())[1] * rho**k for k in range(m + 2, TRAP_ORDER + 1) if a[k]
    )
    U = lead_hi * rho**m + tau / rho
    if U >= 1:
        return None
    g = (1 - U) ** -m - 1 - m * U
    return g / (m * lead_lo * rho**m) + tau / (lead_lo * rho ** (m + 1))


def _wedge_slope(delta: Fraction) -> float:
    """A slope t with delta^2 (1 + t^2) <= 1/4, exactly, for 0 < delta < 1/2:
    sqrt(1/(4 delta^2) - 1) in doubles, capped at _MAX_SLOPE and stepped
    down, an ulp at a time, until the exact test holds."""
    x = 1 / (4 * delta * delta) - 1
    t = _MAX_SLOPE if x > _MAX_SLOPE**2 else math.sqrt(float(x))
    while delta * delta * (1 + Fraction(t) ** 2) > Fraction(1, 4):
        t = math.nextafter(t, 0.0)
    return t


@functools.lru_cache(CACHE_SIZE)
def trap_at_0(f: ExpPoly, escape_radius: float) -> TrapRegion | None:
    """The certified trap region of f at the fixed point 0, or None.

    Defined when f(0) = 0 holds exactly (every P_j(0) = 0 and the Q_j(0) sum
    to 0).  If |a_1| < 1 it is the disk D(0, rho) with sup |f| < rho there.
    If a_1 = 1 and a_(m+1) is the next nonzero coefficient, it is a union of
    wedges in w = c / z^m, c = -1/(m a_(m+1)), each proved in exact
    arithmetic from delta_k >= |W - w - 1| on 0 < |z| <= rho_k, W = w(f(z))
    (_certify_petal):
    - Invariance.  For phi(w) = Re w + t |Im w| and W = w + 1 + e,
      phi(W) >= phi(w) + 1 - (|Re e| + t |Im e|) >= phi(w) + 1 -
      delta_k sqrt(1 + t^2) by Cauchy-Schwarz, which is at least
      phi(w) + 1/2 for the slope t = t_k, since delta_k^2 (1 + t_k^2) <= 1/4.
    - Containment.  phi(w) <= |w| sqrt(1 + t^2), so phi(w) > A_k with
      A_k >= |c| sqrt(1 + t_k^2) / rho_k^m forces |z|^m = |c|/|w| < rho_k^m.
    So a point of the wedge {phi > A_k} lies in D(0, rho_k), where the
    bound holds, and its image is in the wedge again.  The first member is
    the petal {Re w > A_0}, A_0 >= 1/(m |a_(m+1)| rho^m), at the first radius
    rho of a fixed halving sequence below escape_radius with delta <= 1/2.
    At each of rho/2 and rho/4 whose delta is below 1/2 a wedge of slope
    t_k, the largest double with delta_k^2 (1 + t_k^2) <= 1/4, follows: the
    smaller disk has the smaller delta, and so the wedge reaches further
    toward the repelling directions.  The result is cached by the function
    value and radius.
    """
    if any(t.P.coeff(0) != 0 for t in f.terms):
        return None
    a = _taylor(f, TRAP_ORDER, _exact, _GaussQ(0), _GaussQ(1))
    if a[0]:
        return None
    hat = _taylor(f, TRAP_ORDER, _abs_up, Fraction(0), Fraction(1))
    a1 = a[1]
    if a1.abs2() < 1:
        for r in _TRAP_RADII:
            if r < escape_radius and _certify_disk(a, hat, f, Fraction(r)):
                return TrapRegion("disk", r)
        return None
    if a1.re != 1 or a1.im:
        return None
    m = next((k - 1 for k in range(2, TRAP_ORDER) if a[k]), None)
    if m is None:
        return None
    lead = a[m + 1]
    # c = -1/(m a), exactly: -conj(a) / (m |a|^2)
    den = m * lead.abs2()
    c = complex(float(-lead.re / den), float(lead.im / den))
    for r in _TRAP_RADII:
        rho = Fraction(r)
        delta = _certify_petal(a, hat, f, m, rho) if r < escape_radius else None
        if delta is not None and delta <= Fraction(1, 2):
            # The exact |c| is at most c_up; _certify_petal refuses lead_lo = 0.
            c_up = 1 / (m * _sqrt_bounds(lead.abs2())[0])
            members = [(r, 0.0, _up(c_up / rho**m))]
            for rk in (r / 2, r / 4):
                delta = _certify_petal(a, hat, f, m, Fraction(rk))
                if delta is not None and delta < Fraction(1, 2):
                    t = _wedge_slope(delta)
                    A = _up(c_up * _sqrt_bounds(1 + Fraction(t) ** 2)[1] / Fraction(rk) ** m)
                    members.append((rk, t, A))
            return TrapRegion("petal", r, m, c, tuple(members))
    return None


# ---------------------------------------------------------------------------
# Classification engine


_ONE, _FITS, _NO_BOOL = _const(np.int64(1)), _const(700.0), _const(np.zeros(0, bool))


def _take(s, m):
    """The columns of s at the mask or index array m."""
    return {k: a[m] for k, a in s.items()}


def _join(s, new):
    """Append the columns of new to those of s, in place, one column at a
    time to bound the peak memory."""
    for k in s:
        s[k] = np.concatenate([s[k], new.pop(k)])


def _to_tower(s, m, val, u):
    """The tower state of the orbits at the mask m of the direct state s, at
    depth 1 with the given val and unit direction u."""
    idx, age, run = (s[k][m] for k in ("idx", "age", "run"))
    return {"idx": idx, "age": age, "depth": np.ones(val.size, np.int64), "val": val, "u": u, "run": run}


# The screen of _step_direct: the unit of its rounding bounds (twice the unit
# roundoff), and the least t it passes, where tau e^t is a normal double.
_U, _T_LO = float(np.finfo(float).eps), -600.0


def _screen(f: ExpPoly, radius: float, dcap: float):
    """The bounds (t_lo, t_hi, tau) of the screen of _step_direct, as 0-d
    arrays, for escape radius `radius` and promotion cap dcap; None (no
    screen) where the rounding bound err is not below 1e-3, or not finite,
    as where |b_j| radius^d overflows.  See _step_direct for their proof.
    """
    n = f.n_terms
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.float64(radius)
        W = max(abs(t.b) * r**f.d + t.P.coeff_bound(r) for t in f.terms)
        err = n * _U * (16.0 * (749.0 + W) + 16.0 + 4.0 * n)
    if not err < 1e-3:
        return None
    return _const(_T_LO), _const(dcap - math.log(n) - 2.0 * err), _const(2.0 * (_ZERO_CORR + err))


def _step_direct(f: ExpPoly, tc: dict, p: ClassifyParams, radius, dcap, screen, trap, s):
    """Advance the direct state s by one step.

    tc is _term_consts(f); radius and dcap are 0-d arrays and screen is
    _screen's (or None); runs under the pool's np.errstate.  Writes the new
    z, val and below into s and returns (fl, starts, promoted): the cond,
    fixed and trap flags of its orbits, and the orbits that leave for tower
    mode.  Those whose log-domain terms overflow (in practice start points)
    leave s unstepped: starts is None or their tower state at their
    magnitude (depth 1, val log|z|, u = z/|z|).  promoted is None or
    (m, tower state) of the orbits at the mask m, which the step promoted.

    The exact path.  log|f| and the phase come from _log_parts on the rows
    S_j = log Q_j + w_j, w_j = b_j Z^d + P_j(Z).  A zero of the sum steps
    to 0; a point with log|f| > dcap is promoted to tower mode at depth 1,
    val log|f|, with the direction u = e^{i Im S_m} corr/|corr| of its value,
    which no wrapped angle enters; any other point steps to the exact term sum
    F = sum_j Q_j e^{w_j} where every term fits in doubles (IEEE products
    and sums commute with negation and conjugation, so sign and mirror
    symmetries of f survive bitwise), and is rebuilt from log|f| and the
    phase elsewhere.  A step is certified (cond) at |Z| >= radius where
    log|f| >= |Z|^alpha and, for d >= 3, Z lies outside the level-1 set.
    The phase of a point that stays in direct mode is never read again, so
    the step computes it only for rebuilt points.

    The screen.  A point takes the exact term sum alone, with no log-domain
    sum, when (a) every term fits, (b) |Z| < radius, (c) t_lo < t < t_hi
    for t = max_j (log|Q_j(Z)| + Re w_j), and (d) |F| > tau e^t.  With
    n terms, u = 2^-52, W = max_j (|b_j| R^d + sum_i |P_ji| R^i) >= |w_j| at
    |Z| < R = radius, A = 749 + W and err = n u (16 A + 16 + 4 n) < 1e-3
    (so u A < 1e-4, where the linear rounding bounds below hold), _screen
    sets t_lo = -600, t_hi = dcap - log n - 2 err and
    tau = 2 (_ZERO_CORR + err), where _log_parts flags a zero of the sum at
    |corr| < _ZERO_CORR = 1e-15.  The exact path steps such a point the same
    way:
    - Both paths read the same doubles w_j and Q_j(Z), and every operation
      of either is elementwise, so F is bitwise the sum it would take, and
      by (b) cond is False without reading log|f|.
    - A nonzero double Q_j has |log|Q_j|| < 745, so |S_j| < A; a zero Q_j
      adds an exact 0 to both sums.  The rounding of S_j and
      D_j = S_j - S_m is then below 9 u A, and corr = sum_j exp(D_j) is
      within n (10 u A + 5 u) + 2 n^2 u of its exact value
      F_exact e^{-S_m}, while F is within e^t (7 n u + 2 n^2 u) of F_exact;
      the two bounds add up to at most err.
    - (c): log|f| <= Re S_m + log|corr| <= t + log n + 28 u A + (5 + 2n) u
      < dcap, so the point is not promoted.
    - (d): by (c) tau e^t is a normal double, so |corr| >= tau (1 - 5 u A)
      - err > _ZERO_CORR, and _log_parts does not flag a zero.
    Where no point passes, or the screen is None, every point takes the
    exact path on whole columns; otherwise only the rest are gathered for
    it.
    """
    if not s["idx"].size:
        return {"cond": _NO_BOOL, "fixed": _NO_BOOL, "trap": _NO_BOOL}, None, None
    Z = s["z"]
    ws, qs = _term_exponents(f, Z), _prefactor_logs(f, Z, tc)
    # t = max_j log|Q_j e^{w_j}|.  Both e^{w_j} and Q_j e^{w_j} are at most
    # e^{Re w_j + x}, x = max(log|Q_j|, 0).
    t = functools.reduce(np.maximum, [w.real + lqa for w, (_, _, lqa, _) in zip(ws, qs)])
    fits = functools.reduce(np.maximum, [w.real if x is None else w.real + x for w, (*_, x) in zip(ws, qs)]) <= _FITS
    if (n_fit := np.count_nonzero(fits)) < Z.size:
        over = ~(t < np.inf)
        if np.count_nonzero(over):  # a NaN or +inf log term
            zo = Z[over]
            starts = _to_tower(s, over, np.log(np.abs(zo)), zo / np.abs(zo))
            s.update(_take(s, ~over))
            fl, _, promoted = _step_direct(f, tc, p, radius, dcap, screen, trap, s)
            return fl, starts, promoted
    # The exact term sum, taken where every term fits: exp is slow on the
    # huge imaginary parts of the others, which take 0 until the exact path
    # gives them their value.
    every = slice(None)
    fit = every if n_fit == Z.size else np.flatnonzero(fits)
    zfit = _ZERO_C
    for w, (q, *_) in zip(ws, qs):
        zfit = zfit + (q if q.ndim == 0 else q[fit]) * np.exp(w[fit])
    if fit is every:
        znew = zfit
    else:
        znew = np.zeros(Z.size, complex)
        znew[fit] = zfit
    absnew, absZ = np.abs(znew), np.abs(Z)
    cond = absZ >= radius
    rest = every
    if screen is not None:
        t_lo, t_hi, tau = screen
        easy = fits & ~cond & (t > t_lo) & (t < t_hi) & (absnew > tau * np.exp(t))
        if n_easy := np.count_nonzero(easy):
            rest = None if n_easy == Z.size else np.flatnonzero(~easy)
        del easy
    del t
    promoted = None
    if rest is not None:
        rows = [(lq if lq.ndim == 0 else lq[rest]) + w[rest] for w, (_, lq, _, _) in zip(ws, qs)]
        del ws, qs, w  # free the term arrays before the sum allocates its own
        lm, zero, Sm, corr = _log_parts(rows)
        del rows
        lm[zero] = -np.inf
        promote = lm > dcap
        rebuild = ~(promote | zero | fits[rest])
        ph = _phase(Sm[rebuild], corr[rebuild])
        if n_promote := np.count_nonzero(promote):
            cp = corr[promote]
            u = np.exp(1j * Sm.imag[promote]) * (cp / np.abs(cp))
        del Sm, corr
        # A zero point steps to 0.  A promoted one steps to NaN, which is
        # neither fixed nor in the trap.
        zr = znew[rest]  # a view of znew where rest is every
        zr[zero], zr[promote] = 0j, np.nan
        if np.count_nonzero(rebuild):
            zr[rebuild] = np.exp(lm[rebuild]) * np.exp(1j * ph)
        if rest is every:
            absnew = np.abs(znew)
        else:
            znew[rest], absnew[rest] = zr, np.abs(zr)
        # Only the rest can lie beyond the radius: c is cond there.
        c = cond[rest]
        if np.count_nonzero(c):
            c[c] = lm[c] >= absZ[rest][c] ** p.alpha
            if f.d >= 3 and np.count_nonzero(c):
                c[c] = ~in_E_mask(f, Z[rest][c], 1)
            cond[rest] = c
        if n_promote:
            m = np.zeros(Z.size, bool)
            m[rest] = promote
            promoted = m, _to_tower(s, m, lm[promote], u)
    fl = {"cond": cond, "fixed": znew == Z, "trap": np.zeros(Z.size, bool)}
    # The trap lies in D(0, rho), and its membership margin keeps every float
    # member below rho: only points there are tested.
    if trap is not None:
        near = absnew < trap.rho
        if np.count_nonzero(near):
            fl["trap"] = near & trap.contains(znew)
    s.update(z=znew, val=absnew, below=(s["below"] + _ONE) * (absZ <= radius))
    return fl, None, promoted


def _dominant_growth(tc: dict, ud):
    """w = b_m ud for the first term m that maximises c_j = Re(b_j ud), with
    the frequencies b_j from tc, which is _term_consts(f).

    A running maximum over the terms picks the term argmax would: the first
    of equal maxima.  A NaN part of ud makes every c_j NaN, and there the
    first term is kept, as argmax keeps it.
    """
    w = tc["b"][0] * ud
    for b in tc["b"][1:]:
        wj = b * ud
        w = np.where(wj.real > w.real, wj, w)
    return w


def _step_tower(f: ExpPoly, tc: dict, p: ClassifyParams, s):
    """Advance the tower state s by one step.

    The magnitude grows like the dominant term, log|z'| = c |z|^d with
    c = max_j Re(b_j u^d) for the unit direction u of z, held as a complex
    number: no angle is wrapped, so c is exactly 0 on a dead axis.  The
    next direction is that of the dominant exponent, b_m u^d / |b_m u^d|.
    c <= 0, or NaN, is a dead direction.  A step is certified (cond) when
    |z| >= escape_radius and the model grows at the stretched exponential
    rate.  tc is _term_consts(f).  Writes the new depth, val and u into s
    and returns the cond and stop flags of its orbits.  Runs under the
    pool's np.errstate.

    Tower mode is terminal.  A model magnitude that canonicalises back to
    depth 0 has no true point to continue from, so it stops the orbit, as
    a dead direction and a depth beyond MAX_DEPTH do.
    """
    if not s["idx"].size:
        return {"cond": _NO_BOOL, "stop": _NO_BOOL}
    d, alpha = f.d, p.alpha
    dep, v = s["depth"], s["val"]
    w = _dominant_growth(tc, _pow_int(s["u"], d))
    c = w.real
    live = c > 0
    logc = np.log(np.where(live, c, 1.0))
    grow = logc + d * v
    # At depth 1, |z| = e^v >= escape_radius and log|z'| = c |z|^d >= |z|^alpha.
    # Deeper states are canonical, v > LIFT, so beyond any double radius,
    # and log c + (d - alpha) log|z| >= 0 holds there only for alpha < d.
    cond = np.where(dep == 1, (v >= math.log(p.escape_radius)) & (grow >= alpha * v), alpha < d) & live
    nd, nv = _tower_next(dep, v, logc, d)
    s.update(depth=nd, val=nv, u=w / np.abs(w))
    return {"cond": cond, "stop": ~live | (nd == 0) | (nd > MAX_DEPTH)}


def _advance(f: ExpPoly, tc: dict, p: ClassifyParams, radius, dcap, screen, trap, direct, tower):
    """Advance both states of a pool by one step, in place; returns their
    flags and None or the mask moved of the orbits that left the direct
    state, (dfl, tfl, moved).  An overflowing start point joins the tower
    state before its step; a promoted orbit joins it after, with its direct
    step's cond and no stop flag, and the pool's retirement drops it from
    the direct state.  Runs under the pool's np.errstate."""
    dfl, starts, promoted = _step_direct(f, tc, p, radius, dcap, screen, trap, direct)
    if starts is not None:
        _join(tower, starts)
    tfl = _step_tower(f, tc, p, tower)
    moved = None
    if promoted is not None:
        moved, new = promoted
        _join(tfl, {"cond": dfl["cond"][moved], "stop": np.zeros(new["idx"].size, bool)})
        _join(tower, new)
    return dfl, tfl, moved


# The result columns of classify_batch other than tag: name, dtype, and the
# per-orbit array it reports when the orbit retires, an engine-state column or
# one that _retire is given, the step's "code" (tag code) and "trap" flag, or
# 0 where neither has it, as for a direct orbit's depth.
_RESULT_COLUMNS = (
    ("tag_code", np.int8, "code"),
    ("steps", np.int64, "age"),
    ("trapped", bool, "trap"),
    ("final_depth", np.int64, "depth"),
    ("final_val", np.float64, "val"),
)


def _start_state(idx, z):
    """Direct state of orbits starting at z, with batch indices idx.  Every
    orbit's first step writes its val."""
    counts = {k: np.zeros(idx.size, np.int64) for k in ("age", "run", "below")}
    return {"idx": idx, "z": z, "val": np.zeros(idx.size), **counts}


def _retire(s, done, sink, moved=None, **cols):
    """Report the orbits at the mask done of the state s to sink, reading
    the result columns from s and cols, 0 where neither has one, and return
    the state of the others, less those at the mask moved to the other state."""
    if (gone := np.flatnonzero(done)).size:
        src = {**s, **cols}
        res = {name: src[key][gone] if key in src else np.zeros(gone.size, dt) for name, dt, key in _RESULT_COLUMNS}
        sink(s["idx"][gone], res)
    return _take(s, ~(done if moved is None else done | moved))


def _finite_starts(blocks, sink):
    """The (index, points) blocks without their NaN and infinite start points,
    which go to sink at once: Undetermined after 0 steps, final_val |z|."""
    for idx, z in blocks:
        idx, z = np.asarray(idx, np.int64), np.asarray(z, complex)
        bad = ~np.isfinite(z)
        if np.count_nonzero(bad):
            _retire({"idx": idx, "val": np.abs(z)}, bad, sink)
            idx, z = idx[~bad], z[~bad]
        yield idx, z


def _classify_pool(f: ExpPoly, p: ClassifyParams, blocks, capacity: int, sink):
    """Classify the start points of blocks through a pool of at most capacity live orbits.

    blocks yields (index, points) pairs of equal-size arrays and is read
    only as the pool refills: whenever fewer than capacity/2 orbits are
    live, start points are admitted until capacity is reached (a block may
    be split across refills).  Each orbit is reported once, when it
    finishes, by sink(index, columns), where columns are the result arrays
    of classify_batch other than tag, for a batch of finished orbits.
    Orbits are stepped together whatever their age, and every rule that
    reads the step number reads the orbit's own age, so an orbit's results
    do not depend on when it was admitted or on which orbits share its pool.

    The live orbits are held in two states, one per mode, each stepped on
    whole columns.  Both hold the index in the batch, age (steps taken), val
    and run (consecutive certified steps).  The direct state adds z, with
    val = |z|, and below (consecutive steps that start inside the radius);
    the tower state adds depth and u, with |z| = exp^depth(val) and u the
    unit direction of z.  _advance steps both and hands orbits from direct
    to tower mode, never back; then each state retires its finished orbits
    in one compaction, which in the direct state also drops the orbits it
    handed over.
    An orbit finishes on a certified run, a fixed point, trap entry, a dead
    direction, a model magnitude back in the double range, depth beyond
    MAX_DEPTH, or max_iter steps.  A fixed point and a budget's tail are
    judged non-escaping only if the last point is a direct point inside the
    radius.
    A step costs about 35 us however few orbits are live (one bounded sin z
    orbit, 2-core Xeon), so a tail of long orbits pays it each step.  It
    reads _term_consts(f) once per pool, enters one np.errstate, skips the
    step of an empty state, gathers for the exact term sum only when some
    point cannot take it, makes no log-domain sum when every point passes
    the screen of _step_direct, and skips the growth test, the trap test
    and the promotion hand-off where no orbit needs them.
    """
    radius, cert_steps = _const(p.escape_radius), _const(p.cert_steps)
    dcap = min((700.0 - math.log(f.max_abs_b) - 5.0) / f.d, BAIL_LOGMOD)
    screen, dcap = _screen(f, p.escape_radius, dcap), _const(dcap)
    trap, tc = trap_at_0(f, p.escape_radius), _term_consts(f)
    tail_len = min(TAIL_STEPS, p.max_iter)

    starts = _finite_starts(blocks, sink)
    pend_i, pend_z = np.zeros(0, np.int64), np.zeros(0, complex)
    direct = _start_state(pend_i, pend_z)
    tower = _to_tower(direct, _NO_BOOL, pend_z.real, pend_z.real)
    while True:
        n = direct["idx"].size + tower["idx"].size
        if starts is not None and 2 * n < capacity:
            new_i, new_z = [], []
            room = capacity - n
            while room > 0:
                if pend_z.size == 0:
                    block = next(starts, None)
                    if block is None:
                        starts = None
                        break
                    pend_i, pend_z = block
                    continue
                new_i.append(pend_i[:room])
                new_z.append(pend_z[:room])
                pend_i, pend_z = pend_i[room:], pend_z[room:]
                room -= new_i[-1].size
            if new_i:
                _join(direct, _start_state(np.concatenate(new_i), np.concatenate(new_z)))
                n = direct["idx"].size + tower["idx"].size
        if n == 0:
            return

        direct["age"] = direct["age"] + _ONE
        tower["age"] = tower["age"] + _ONE
        with np.errstate(all="ignore"):
            dfl, tfl, moved = _advance(f, tc, p, radius, dcap, screen, trap, direct, tower)

        if tower["idx"].size:
            tower["run"] = (tower["run"] + _ONE) * tfl["cond"]
            cert = tower["run"] >= cert_steps
            done = cert | tfl["stop"] | (tower["age"] >= p.max_iter)
            if np.count_nonzero(done):
                tower = _retire(tower, done, sink, code=cert.astype(np.int8))
        if direct["idx"].size:
            direct["run"] = (direct["run"] + _ONE) * dfl["cond"]
            cert = direct["run"] >= cert_steps
            # A fixed or trapped orbit finishes at once; a fixed one's run is
            # no certificate.  One that reaches max_iter steps without
            # finishing is judged by the trailing-run rule.
            fixed = dfl["fixed"]
            end = cert | fixed | dfl["trap"]
            done = end | (direct["age"] >= p.max_iter)
            if moved is not None:
                done = done & ~moved
            if moved is not None or np.count_nonzero(done):
                cert &= ~fixed
                trapped = dfl["trap"] & ~fixed & ~cert
                # A fixed point or a budget's tail is non-escaping only
                # where the last point lies inside the radius.
                inside = direct["val"] <= radius
                nonesc = trapped | (inside & (fixed | (~end & (direct["below"] >= tail_len))))
                code = np.where(cert, 1, np.where(nonesc, 2, 0)).astype(np.int8)
                direct = _retire(direct, done, sink, moved, code=code, trap=trapped)


def classify_batch(f: ExpPoly, points, p: ClassifyParams | None = None):
    """Classify an array of starting points; returns a dict of result arrays.

    Six keys: tag (strings), tag_code (0 Undetermined, 1 EscapeCertified,
    2 NonEscapeObserved), steps (the step at which the orbit finished; for
    an EscapeCertified one, the step that completed its certified run),
    trapped (the orbit stopped on entering the trap region of trap_at_0),
    final_depth and final_val (|z| = exp^depth(val) at the last computed
    step; depth 0 is direct mode, or a tower model whose magnitude fell back
    into the double range, which stops the orbit Undetermined).  A NaN or
    infinite start point is Undetermined after 0 steps, with final_val |z|.

    The whole batch is one pool of _classify_pool, which describes the
    engine state and step.

    What EscapeCertified proves: cert_steps consecutive certified steps, of
    two kinds.  A direct step checks the float iterate z (only the start
    point is exact): |z| >= escape_radius, the growth inequality
    log|f(z)| >= |z|^alpha, and (for d >= 3) that z is outside the level-1
    set.  A tower step checks |z| >= escape_radius and growth, the latter on
    the dominant-term model log|z'| = c |z|^d, with c taken from the carried
    direction u, a proxy (the direction of the dominant exponent, b_m z^d)
    and not the argument of the true orbit; it runs no level-1 check.  So a
    verdict whose run ends in tower mode rests on the direct steps before it
    plus that model.
    """
    if p is None:
        p = ClassifyParams()
    pts = np.asarray(points, dtype=complex).ravel()
    out = {name: np.zeros(pts.size, dt) for name, dt, _ in _RESULT_COLUMNS}

    def sink(i, cols):
        for k, a in cols.items():
            out[k][i] = a

    _classify_pool(f, p, [(np.arange(pts.size), pts)], max(pts.size, 1), sink)
    out["tag"] = _TAG_TABLE[out["tag_code"]]
    return out
