"""Orbit iteration, escape certification, and maximum-modulus machinery.

Orbits are iterated in three regimes.  While the next exponent b z^d is
representable in doubles the position is held as an exact complex number,
stepped by the exact term sum; f is evaluated in log-domain only where a
per-point screen cannot prove that log|f| leaves the step unchanged: near a
zero of f, near the promotion to tower mode, beyond the escape radius, or
where a term overflows.  Beyond that the magnitude is carried as an
iterated-exp pair (depth, v) with |z| = exp^depth(v), driven by the dominant
term's growth max_j |b_j| cos(d phi + arg b_j) * |z|^d; at this scale the
phase is a deterministic proxy (the argument direction of the dominant
exponent), since the true phase of f is an astronomically large number mod
2 pi.  A start point whose log-domain evaluation overflows doubles starts
in tower mode at its own magnitude; a NaN or infinite start point is
Undetermined after 0 steps.  Classification is certificate-based: escape is
only reported after a run of consecutive certified steps.  A direct step is
certified when the point lies beyond the escape radius, outside the level-1
exceptional set, and grows at the stretched exponential rate
log|z_{k+1}| >= |z_k|^alpha; a tower step checks the radius and the growth
of the dominant-term model, and no level-1 membership.

Non-escape is reported when an orbit lands exactly on a fixed point inside
the radius, or when its last TAIL_STEPS points (all of them, for a shorter
budget) lie inside the radius.  Where f(0) = 0 holds exactly, trap_at_0
certifies a region R with f(R) inside R and R inside D(0, rho), rho below
the escape radius: an attracting disk when |f'(0)| < 1, or a parabolic petal
(Leau-Fatou flower) when f'(0) = 1.  An orbit whose new point lies in R
stays inside the radius for the rest of its budget, so it stops there as
NonEscapeObserved, with the `trapped` flag, as soon as that makes the tail
rule certain to fire.  Its `steps` is the entry step; tags are those the
full budget gives.

One engine, _classify_pool, steps a pool of live orbits of any ages, each
reading its own age, so the pool admits new start points as orbits finish
without changing any result.  classify_batch runs its whole batch as one
pool, and is the only classifier: a single orbit is a batch of one.  The
renderer runs one bounded pool per worker thread.

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
    ExpPoly,
    _ZERO_C,
    _const,
    _log_parts,
    _phase,
    _pow_int,
    _prefactor_logs,
    _term_consts,
    _term_exponents,
    eval_log_batch,
    wrap_phase,
)

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

# A non-escape verdict requires this many trailing steps inside the radius.
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
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be positive and finite")
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
# depth: no depth > 0 with val <= LIFT, where exp(val) fits in doubles.
# Canonical pairs compare lexicographically as the magnitudes do while no val
# exceeds exp(LIFT) ~ 4.4e299; a larger depth-k val can exceed exp of a
# depth-(k+1) val in (LIFT, 709.8] and reverse that order.

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
    """Crude bound on |f'/f| near the circle maximum of |f| on |z| = r.

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
    """Bracket [lo, hi] for log max_{|z|=r} |f(z)| by circle sampling.

    lo is the maximum of log|f| over CIRCLE_SAMPLES points; hi adds a
    Lipschitz slack for the half gap between samples using the crude
    gradient bound above.  Raises ValueError where the bracket is not
    finite in doubles.
    """
    if not (r > 0 and math.isfinite(r)):
        raise ValueError("r must be positive and finite")
    thetas = 2.0 * math.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES
    Z = r * np.exp(1j * thetas)
    with np.errstate(all="ignore"):
        lm, _, zero = eval_log_batch(f, Z)
    lo = float(np.where(zero, -np.inf, lm).max())
    # A finite lo means r^d, and so the r^(d-1) of the slack, fits in doubles.
    hi = lo + r * _log_deriv_bound(f, r) * (math.pi / CIRCLE_SAMPLES) if math.isfinite(lo) else lo
    if math.isfinite(hi):
        return lo, hi
    raise ValueError(f"log max modulus on |z| = {r} is not finite in doubles")


def iterate_max_modulus(f: ExpPoly, R: float, n: int):
    """The first n iterates M^n(R) of r -> M(r, f), which define the fast
    escaping set A(f), as canonical (depth, val) tuples (ordered as at LIFT).

    Circle sampling (upper bracket side) while the exponents fit in doubles,
    then the tower step of log M(r) <= c r^d, c = max|b_j| (1 + 1e-9); every
    approximation is taken on the upper side, so each iterate bounds M^n(R)
    from above.
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
# 2^-50 bounds the relative error of float(x) followed by a square root.
_SQRT_REL = Fraction(1, 2**50)


class _GaussQ:
    """Exact complex rational re + i im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return _GaussQ(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        if isinstance(o, _GaussQ):
            return _GaussQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
        return _GaussQ(self.re * o, self.im * o)

    def __bool__(self):
        return bool(self.re or self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


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

    kind "disk": R = D(0, rho).  kind "petal": R = {Re w > A} with
    w = c / z^m, c = -1/(m a_(m+1)), around a multiplier-1 fixed point 0.
    """

    kind: str
    rho: float
    m: int = 0
    c: complex = 0j
    A: float = 0.0

    def contains(self, z):
        """Float membership with an outward margin: True entries lie in R."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._inside(np.asarray(z, dtype=complex))

    def _inside(self, z):
        """contains for a complex array z, under the caller's np.errstate."""
        if self.kind == "disk":
            return np.abs(z) < self.rho * (1.0 - _TRAP_MARGIN)
        w = self.c / _pow_int(z, self.m)
        return w.real - _TRAP_MARGIN * np.abs(w) > self.A


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


def _certify_petal(a, hat, f, m: int, rho: Fraction) -> bool:
    """|W - w - 1| <= 1/2 on 0 < |z| <= rho, for f = z + a z^(m+1) + T(z).

    With u = f(z)/z - 1 and eps = T(z) / (a z^(m+1)),
    W - w - 1 = w ((1+u)^-m - 1 + m u) + eps, so |W - w - 1| is at most
    ((1-U)^-m - 1 - m U) / (m |a| r^m) + tau / (|a| r^(m+1)), with
    tau >= |T| and U = |a| r^m + tau/r >= |u|.  tau(r) is a power series
    in r with non-negative coefficients from r^(m+2) on, so tau/r^(m+1) and
    U^2/r^m do not decrease with r, and neither does g(U)/U^2 with U for
    g(U) = (1-U)^-m - 1 - m U: the bound grows with r, and holding at
    r = rho covers the whole punctured disk.
    """
    tail = _tail_up(f, TRAP_ORDER, rho, hat)
    if tail is None:
        return False
    lead_lo, lead_hi = _sqrt_bounds(a[m + 1].abs2())
    if not lead_lo:
        return False
    tau = tail + sum(
        _sqrt_bounds(a[k].abs2())[1] * rho**k for k in range(m + 2, TRAP_ORDER + 1) if a[k]
    )
    U = lead_hi * rho**m + tau / rho
    if U >= 1:
        return False
    g = (1 - U) ** -m - 1 - m * U
    return g / (m * lead_lo * rho**m) + tau / (lead_lo * rho ** (m + 1)) <= Fraction(1, 2)


def _derive_trap(f: ExpPoly, escape_radius: float) -> TrapRegion | None:
    if any(t.P.coeff(0) != 0 for t in f.terms):
        return None
    a = _taylor(f, TRAP_ORDER, lambda c: _GaussQ(c.real, c.imag), _GaussQ(0), _GaussQ(1))
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
        if r < escape_radius and _certify_petal(a, hat, f, m, rho):
            A = _up(1 / (m * _sqrt_bounds(lead.abs2())[0] * rho**m))
            return TrapRegion("petal", r, m, c, A)
    return None


def trap_at_0(f: ExpPoly, escape_radius: float) -> TrapRegion | None:
    """The certified trap region of f at the fixed point 0, or None.

    Defined when f(0) = 0 holds exactly (every P_j(0) = 0 and the Q_j(0) sum
    to 0).  If |a_1| < 1 it is the disk D(0, rho) with sup |f| < rho there;
    if a_1 = 1 and a_(m+1) is the next nonzero coefficient, it is the petal
    set {Re w > A}, w = -1/(m a_(m+1) z^m), A = 1/(m |a_(m+1)| rho^m), with
    |W - w - 1| <= 1/2 on |z| <= rho for W = w(f(z)): each step then adds at
    least 1/2 to Re w, so R is invariant, and Re w > A forces |z| < rho.
    rho is the first radius of a fixed halving sequence below escape_radius
    that certifies.  The result is stored on f, whose coefficients never
    change.
    """
    memo = f.memo.setdefault("trap_at_0", {})
    if escape_radius not in memo:
        memo[escape_radius] = _derive_trap(f, escape_radius)
    return memo[escape_radius]


# ---------------------------------------------------------------------------
# Classification engine


# A step at the positions _ALL steps every orbit of the pool: it reads whole
# state columns and replaces them, where other positions gather and scatter.
_ALL, _NO_POS = slice(None), np.zeros(0, np.int64)
_FLAGS = ("cond", "fixed", "trap", "stop")
_ONE, _FITS = _const(np.int64(1)), _const(700.0)


def _put(d, pos, cols):
    """Write the step's arrays cols into the columns of d at positions pos."""
    if pos is _ALL:
        d.update(cols)
    else:
        for k, a in cols.items():
            d[k][pos] = a


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
    return _const(_T_LO), _const(dcap - math.log(n) - 2.0 * err), _const(2.0 * (1e-15 + err))


def _step_direct(f: ExpPoly, p: ClassifyParams, radius, dcap, screen, trap, s, pos, fl):
    """Advance the direct-mode orbits at positions pos of the state s by one step.

    radius and dcap are 0-d arrays and screen is _screen's (or None); runs
    under the pool's np.errstate.  Writes the new state into s and the
    cond, fixed and (where it may be set) trap flags into fl.  A point whose
    log-domain terms overflow (in practice a start point) instead moves to
    tower mode at its magnitude (depth 1, val log|z|, phase arg z); then no
    orbit steps and it returns True.

    The exact path.  log|f| and the phase come from _log_parts on the rows
    S_j = log Q_j + w_j, w_j = b_j Z^d + P_j(Z).  A zero of the sum steps
    to 0; a point with log|f| > dcap is promoted to tower mode at depth 1,
    val log|f|, with the phase; any other point steps to the exact term sum
    F = sum_j Q_j e^{w_j} where every term fits in doubles (IEEE products
    and sums commute with negation and conjugation, so sign and mirror
    symmetries of f survive bitwise), and is rebuilt from log|f| and the
    phase elsewhere.  A step is certified (cond) at |Z| >= radius where
    log|f| >= |Z|^alpha and, for d >= 3, Z lies outside the level-1 set.
    The phase of a point that stays in direct mode is never read again, so
    the state keeps it only for promoted points.

    The screen.  A point takes the exact term sum alone, with no log-domain
    sum, when (a) every term fits, (b) |Z| < radius, (c) t_lo < t < t_hi
    for t = max_j (log|Q_j(Z)| + Re w_j), and (d) |F| > tau e^t.  With
    n terms, u = 2^-52, W = max_j (|b_j| R^d + sum_i |P_ji| R^i) >= |w_j| at
    |Z| < R = radius, A = 749 + W and err = n u (16 A + 16 + 4 n) < 1e-3
    (so u A < 1e-4, where the linear rounding bounds below hold), _screen
    sets t_lo = -600, t_hi = dcap - log n - 2 err and
    tau = 2 (1e-15 + err).  The exact path steps such a point the same way:
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
      - err > 1e-15, and _log_parts does not flag a zero.
    Where no point passes, or the screen is None, every point takes the
    exact path on whole columns; otherwise only the rest are gathered for
    it.
    """
    if pos is not _ALL and pos.size == 0:
        return False
    Z = s["z"][pos]
    ws, qs = _term_exponents(f, Z), _prefactor_logs(f, Z)
    # t = max_j log|Q_j e^{w_j}|.  Both e^{w_j} and Q_j e^{w_j} are at most
    # e^{Re w_j + x}, x = max(log|Q_j|, 0).
    t = functools.reduce(np.maximum, [w.real + lqa for w, (_, _, lqa, _) in zip(ws, qs)])
    fits = functools.reduce(np.maximum, [w.real if x is None else w.real + x for w, (*_, x) in zip(ws, qs)]) <= _FITS
    if (n_fit := np.count_nonzero(fits)) < Z.size:
        over = ~(t < np.inf)
        if np.count_nonzero(over):  # a NaN or +inf log term
            io = np.flatnonzero(over) if pos is _ALL else pos[over]
            _put(s, io, {"depth": 1, "val": np.log(np.abs(Z[over])), "phase": np.angle(Z[over]), "z": 0.0})
            return True
    # The exact term sum, taken where every term fits: exp is slow on the
    # huge imaginary parts of the others, which take 0 until the exact path
    # gives them their value.
    fit = _ALL if n_fit == Z.size else np.flatnonzero(fits)
    zfit = _ZERO_C
    for w, (q, *_) in zip(ws, qs):
        zfit = zfit + (q if q.ndim == 0 else q[fit]) * np.exp(w[fit])
    if fit is _ALL:
        znew = zfit
    else:
        znew = np.zeros(Z.size, complex)
        znew[fit] = zfit
    absnew, absZ = np.abs(znew), np.abs(Z)
    cond = absZ >= radius
    rest = _ALL
    if screen is not None:
        t_lo, t_hi, tau = screen
        easy = fits & ~cond & (t > t_lo) & (t < t_hi) & (absnew > tau * np.exp(t))
        if n_easy := np.count_nonzero(easy):
            rest = _NO_POS if n_easy == Z.size else np.flatnonzero(~easy)
        del easy
    del t
    promoted = None
    if rest is _ALL or rest.size:
        rows = [(lq if lq.ndim == 0 else lq[rest]) + w[rest] for w, (_, lq, _, _) in zip(ws, qs)]
        del ws, qs, w  # free the term arrays before the sum allocates its own
        lm, zero, Sm, corr = _log_parts(rows)
        del rows
        lm[zero] = -np.inf
        promote = lm > dcap
        rebuild = ~(promote | zero | fits[rest])
        # The phase is read only where a point is promoted or rebuilt.
        read = promote | rebuild
        ph = _phase(Sm[read], corr[read])
        del Sm, corr
        # A zero point steps to 0.  A promoted one steps to NaN, which is
        # neither fixed nor in the trap, and its state z is 0.
        zr = znew[rest]
        zr[zero], zr[promote] = 0j, np.nan
        if np.count_nonzero(rebuild):
            zr[rebuild] = np.exp(lm[rebuild]) * np.exp(1j * ph[rebuild[read]])
        if rest is _ALL:
            absnew = np.abs(znew)
        else:
            znew[rest], absnew[rest] = zr, np.abs(zr)
        # Only the rest can lie beyond the radius: c is cond there, and
        # rest[c] its True entries' positions in Z.
        c = cond[rest]
        if np.count_nonzero(c):
            c[c] = lm[c] >= absZ[c if rest is _ALL else rest[c]] ** p.alpha
            if f.d >= 3 and np.count_nonzero(c):
                c[c] = ~in_E_mask(f, Z[c if rest is _ALL else rest[c]], 1)
            cond[rest] = c
        if np.count_nonzero(promote):
            ip = np.flatnonzero(promote) if rest is _ALL else rest[promote]
            promoted = (ip if pos is _ALL else pos[ip]), {
                "z": 0j,
                "depth": 1,
                "val": lm[promote],
                "phase": ph[promote[read]],
            }
    below = (s["below"][pos] + _ONE) * (absZ <= radius)
    flags = {"cond": cond, "fixed": znew == Z}
    # An orbit entering the trap stays inside the radius for its remaining
    # max_iter - age points.  Flag it only when that makes the trailing-run
    # rule certain to fire, as it does for all while the oldest (the first) is
    # young enough.  The trap lies in D(0, rho), and its membership margin
    # keeps every float member below rho: only points there are tested.
    if trap is not None:
        near = absnew < trap.rho
        if np.count_nonzero(near):
            last = p.max_iter - min(TAIL_STEPS, p.max_iter)
            if s["age"][0] > last:
                near &= s["age"][pos] - below <= last
            flags["trap"] = near & trap._inside(znew)
    _put(fl, pos, flags)
    _put(s, pos, {"z": znew, "val": absnew, "below": below})
    if promoted is not None:
        _put(s, *promoted)
    return False


def _dominant_growth(f: ExpPoly, dphi):
    """(c, arg b_m) for c = max_j |b_j| cos(dphi + arg b_j), m the first maximising term.

    A running maximum over the terms picks the term argmax would: the first
    of equal maxima.  |b_j| and arg b_j are finite, so a c_j is NaN exactly
    where dphi is not finite, for every j at once, and there the first term
    is kept, as argmax keeps it.
    """
    tc = _term_consts(f)
    c, beta = tc["abs_b"][0] * np.cos(dphi + tc["beta"][0]), np.full(dphi.shape, tc["beta"][0])
    for ab, bj in zip(tc["abs_b"][1:], tc["beta"][1:]):
        cj = ab * np.cos(dphi + bj)
        take = cj > c
        c, beta = np.where(take, cj, c), np.where(take, bj, beta)
    return c, beta


def _step_tower(f: ExpPoly, p: ClassifyParams, dcap: float, s, pos, fl):
    """Advance the tower-mode orbits at positions pos of the state s by one step.

    The magnitude grows like the dominant term, log|z'| = c |z|^d with
    c = max_j |b_j| cos(d phi + arg b_j); c <= 0 is a dead direction.  A step
    is certified (cond) when |z| >= escape_radius and the model grows at
    the stretched exponential rate.  Writes the new state into s and the
    cond and stop flags into fl.  Runs under the pool's np.errstate.
    """
    if pos is not _ALL and pos.size == 0:
        return
    d, alpha = f.d, p.alpha
    dep, v = s["depth"][pos], s["val"][pos]
    dphi = d * s["phase"][pos]
    c, beta = _dominant_growth(f, dphi)
    dead = c <= 0
    logc = np.log(np.where(dead, 1.0, c))
    grow = logc + d * v
    # At depth 1, |z| = e^v >= escape_radius and log|z'| = c |z|^d >= |z|^alpha.
    # Deeper states are canonical, v > LIFT, so beyond any double radius,
    # and log c + (d - alpha) log|z| >= 0 holds there only for alpha < d.
    cond = np.where(dep == 1, (v >= math.log(p.escape_radius)) & (grow >= alpha * v), alpha < d) & ~dead
    nd, nv = _tower_next(dep, v, logc, d)
    phase = wrap_phase(dphi + beta)
    # Demotion to direct mode when |z| fits the exact evaluator again; any
    # other depth-0 result is lifted to depth 1, so depth 0 means demoted.
    lognv = np.log(np.maximum(nv, 1e-300))
    demote = (nd == 0) & (lognv <= dcap)
    redepth = (nd == 0) & ~demote
    nd[redepth] = 1
    nv[redepth] = lognv[redepth]
    znew = np.zeros(nd.size, complex)
    znew[demote] = nv[demote] * np.exp(1j * phase[demote])

    _put(fl, pos, {"cond": cond, "stop": dead | (nd > MAX_DEPTH)})
    _put(s, pos, {"z": znew, "depth": nd, "val": nv, "phase": phase, "below": np.zeros(nd.size, np.int64)})


# The result columns of classify_batch other than tag: name, dtype, and the
# per-orbit array it reports when the orbit retires, an engine-state column or
# the step's "code" (tag code) or "trap" flag.
_RESULT_COLUMNS = (
    ("tag_code", np.int8, "code"),
    ("steps", np.int64, "age"),
    ("trapped", bool, "trap"),
    ("final_depth", np.int64, "depth"),
    ("final_val", np.float64, "val"),
)


def _start_state(idx, z):
    """Engine state of orbits starting at z, with batch indices idx.  Every
    orbit's first step, a direct one, writes its val and phase."""
    counts = {k: np.zeros(idx.size, np.int64) for k in ("age", "depth", "run", "below")}
    return {"idx": idx, "z": z, "val": np.zeros(idx.size), "phase": np.zeros(idx.size), **counts}


def _results(src, i):
    """The result columns of the entries i (an index array) of the per-orbit arrays src."""
    return {name: src[key][i] for name, _, key in _RESULT_COLUMNS}


def _finite_starts(blocks, sink):
    """The (index, points) blocks without their NaN and infinite start points,
    which go to sink at once: Undetermined after 0 steps, final_val |z|."""
    for idx, z in blocks:
        idx, z = np.asarray(idx, np.int64), np.asarray(z, complex)
        bad = ~np.isfinite(z)
        if n := np.count_nonzero(bad):
            cols = {name: np.abs(z[bad]) if key == "val" else np.zeros(n, dt) for name, dt, key in _RESULT_COLUMNS}
            sink(idx[bad], cols)
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

    The state holds the live orbits only: index in the batch, age (steps
    taken), z (the exact point in direct mode, 0 in tower mode), depth (0 in
    direct mode), val, phase (defined and read in tower mode only), run
    (consecutive certified steps) and below (consecutive steps inside the
    radius).  A step advances the depth-0 orbits by _step_direct and the
    others by _step_tower; a finished orbit (certified run, fixed point,
    trap entry, dead direction, depth beyond MAX_DEPTH, or max_iter steps,
    judged by the trailing-run rule) leaves.
    A step costs about 35 us however few orbits are live (one bounded sin z
    orbit, 2-core Xeon), so a tail of long orbits pays it each step.  It
    enters one np.errstate, steps whole columns when all orbits share a
    mode, gathers for the exact term sum only when some point cannot take
    it, makes no log-domain sum when every point passes the screen of
    _step_direct, and skips the growth test, the trap test and the
    promotion writes where no orbit needs them.
    """
    radius, cert_steps = _const(p.escape_radius), _const(p.cert_steps)
    dcap = min((700.0 - math.log(f.max_abs_b) - 5.0) / f.d, BAIL_LOGMOD)
    screen, dcap = _screen(f, p.escape_radius, dcap), _const(dcap)
    trap = trap_at_0(f, p.escape_radius)
    tail_len = min(TAIL_STEPS, p.max_iter)

    starts = _finite_starts(blocks, sink)
    pend_i, pend_z = _NO_POS, np.zeros(0, complex)
    s = _start_state(pend_i, pend_z)
    while True:
        n = s["idx"].size
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
                new = _start_state(np.concatenate(new_i), np.concatenate(new_z))
                for k in s:  # one column at a time, to bound the peak memory
                    s[k] = np.concatenate([s[k], new.pop(k)])
                n = s["idx"].size
        if n == 0:
            return

        s["age"] = s["age"] + _ONE
        with np.errstate(all="ignore"):
            # Depth is the mode: depth-0 orbits take a direct step, the rest
            # a tower step.  A pool of one mode steps whole columns.  The split
            # is redone when the direct step moves orbits to tower mode.
            while True:
                n_tower = np.count_nonzero(s["depth"])
                direct = _ALL if n_tower == 0 else _NO_POS if n_tower == n else np.flatnonzero(s["depth"] == 0)
                tower = _ALL if n_tower == n else _NO_POS if n_tower == 0 else np.flatnonzero(s["depth"])
                fl = {} if n_tower in (0, n) else dict(zip(_FLAGS, np.zeros((len(_FLAGS), n), bool)))
                if not _step_direct(f, p, radius, dcap, screen, trap, s, direct, fl):
                    break
            _step_tower(f, p, dcap, s, tower, fl)

        # A flag that no step wrote is False for every orbit.  A fixed orbit
        # finishes at once, and its run is no certificate.
        s["run"] = (s["run"] + _ONE) * fl["cond"]
        cert = s["run"] >= cert_steps
        end = functools.reduce(np.bitwise_or, [fl[k] for k in _FLAGS[1:] if k in fl], cert)
        # An orbit that reaches max_iter steps without finishing is judged by
        # the trailing-run rule.  Orbits join at the end of the state and keep
        # their order, so the first is the oldest.
        done = end | (s["age"] >= p.max_iter) if s["age"][0] >= p.max_iter else end
        if np.count_nonzero(done):
            fixed, trapped = (fl.get(k, np.zeros(n, bool)) for k in ("fixed", "trap"))
            cert &= ~fixed
            trapped = trapped & ~fixed & ~cert
            # A fixed direct point is non-escaping when it lies inside the
            # radius, which is when its below count is positive.
            nonesc = trapped | (fixed & (s["below"] > 0)) | (~end & (s["below"] >= tail_len))
            code = np.where(cert, 1, np.where(nonesc, 2, 0)).astype(np.int8)
            gone, keep = np.flatnonzero(done), np.flatnonzero(~done)
            sink(s["idx"][gone], _results({**s, "code": code, "trap": trapped}, gone))
            s = {k: a[keep] for k, a in s.items()}


def classify_batch(f: ExpPoly, points, p: ClassifyParams | None = None):
    """Classify an array of starting points; returns a dict of result arrays.

    Six keys: tag (strings), tag_code (0 Undetermined, 1 EscapeCertified,
    2 NonEscapeObserved), steps (the step at which the orbit finished; for
    an EscapeCertified one, the step that completed its certified run),
    trapped (the orbit stopped on entering the trap region of trap_at_0),
    final_depth and final_val (|z| = exp^depth(val) at the last computed
    step; depth 0 is direct mode).  A NaN or infinite start point is
    Undetermined after 0 steps, with final_val |z|.

    The whole batch is one pool of _classify_pool, which describes the
    engine state and step.

    What EscapeCertified proves: cert_steps consecutive certified steps, of
    two kinds.  A direct step checks the true z: |z| >= escape_radius, the
    growth inequality log|f(z)| >= |z|^alpha, and (for d >= 3) that z is
    outside the level-1 set.  A tower step checks |z| >= escape_radius and
    growth, the latter on the dominant-term model log|z'| = c |z|^d, with c
    taken from the carried phase, which is a proxy and not the argument of
    the true orbit; it runs no level-1 check.  So a verdict whose run ends
    in tower mode rests on the direct steps before it plus that model.
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
