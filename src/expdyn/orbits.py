"""Orbit iteration, escape certification, and maximum-modulus machinery.

Orbits are iterated in three regimes.  While the next exponent b z^d is
representable in doubles the position is held as an exact complex number and
f is evaluated in log-domain.  Beyond that the magnitude is carried as an
iterated-exp pair (depth, v) with |z| = exp^depth(v), driven by the dominant
term's growth max_j |b_j| cos(d phi + arg b_j) * |z|^d; at this scale the
phase is a deterministic proxy (the argument direction of the dominant
exponent), since the true phase of f is an astronomically large number mod
2 pi.  A start point whose log-domain evaluation overflows doubles starts
in tower mode at its own magnitude; a NaN or infinite start point is
Undetermined after 0 steps.  Classification is certificate-based: escape is
only reported when a run of consecutive steps each shows the point outside
the level-1 exceptional set, beyond the escape radius, and growing at the
stretched exponential rate log|z_{k+1}| >= |z_k|^alpha.

Non-escape is reported when an orbit lands exactly on a fixed point inside
the radius, or when its last TAIL_STEPS points (all of them, for a shorter
budget) lie inside the radius.  Where f(0) = 0 holds exactly, trap_at_0
certifies a region R with f(R) inside R and R inside D(0, rho), rho below
the escape radius: an attracting disk when |f'(0)| < 1, or a parabolic petal
(Leau-Fatou flower) when f'(0) = 1.  An orbit whose new point lies in R
stays inside the radius for the rest of its budget, so it stops there as
NonEscapeObserved, with the `trapped` flag, as soon as that makes the tail
rule certain to fire.  Its `steps` is the entry step, and the traces of
classify_orbit and write_orbit_csv end there; tags are those the full
budget gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BadBase
from .exceptional import in_E_mask
from .funcs import (
    ExpPoly,
    _log_sum,
    _pow_int,
    _prefactor_logs,
    _term_consts,
    _term_exponents,
    eval_log_batch,
    wrap_phase,
)
from .report import write_csv
from .towers import TowerMag, _canon_arrays, _tower_add_const, _tower_scale, tower_exp, tower_log

__all__ = [
    "ClassifyParams",
    "OrbitClass",
    "ESCAPE_CERTIFIED",
    "NON_ESCAPE_OBSERVED",
    "UNDETERMINED",
    "log_max_modulus",
    "iterate_max_modulus",
    "classify_batch",
    "classify_orbit",
    "write_orbit_csv",
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
# The columns of write_orbit_csv: re, im of z in direct mode; val, phase with
# |z| = exp^depth(val) in tower mode.
ORBIT_COLUMNS = ("step", "re", "im", "val", "phase", "depth", "tag")


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
        if not (math.isfinite(self.escape_radius) and self.escape_radius > 0) or self.max_iter < 1:
            raise ValueError("invalid escape_radius/max_iter")


@dataclass
class OrbitClass:
    tag: str
    steps: int
    fast_escape: bool
    diagnostics: dict = field(default_factory=dict)


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
    gradient bound above.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    thetas = 2.0 * math.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES
    Z = r * np.exp(1j * thetas)
    lm, _, zero = eval_log_batch(f, Z)
    lm = np.where(zero, -np.inf, lm)
    lo = float(lm.max())
    slack = r * _log_deriv_bound(f, r) * (math.pi / CIRCLE_SAMPLES)
    return lo, lo + slack


def _asymptotic_log_max(f: ExpPoly) -> float:
    """Conservative coefficient for log M(r) <= c r^d at unrepresentable r."""
    return f.max_abs_b * (1.0 + 1e-9)


def iterate_max_modulus(f: ExpPoly, R: float, n: int, max_depth: int | None = None):
    """The first n iterates of r -> M(r, f) starting at R, as TowerMag.

    Uses circle sampling (upper bracket side) while r is small enough that
    the exponents fit in doubles, and the dominant-coefficient asymptotic
    log M(r) <= c r^d beyond; every approximation is taken on the upper
    side, so the iterates are usable as conservative fast-escape gates.
    With max_depth set, the list stops before the first iterate deeper than
    max_depth.
    """
    lo, hi = log_max_modulus(f, R)
    if lo <= math.log(R):
        raise BadBase(f"M({R}) not certified above {R}")
    out = []
    t = TowerMag(0, float(R))
    c_up = _asymptotic_log_max(f)
    for _ in range(n):
        if t.depth == 0 and f.d * math.log(t.value) + math.log(f.max_abs_b) <= 700.0:
            _, hi = log_max_modulus(f, t.value)
            t = TowerMag.from_logmod(hi)
        else:
            log_r = tower_log(t)
            loglog_m = _tower_add_const(_tower_scale(log_r, float(f.d)), math.log(c_up))
            t = tower_exp(tower_exp(loglog_m))
        if max_depth is not None and t.depth > max_depth:
            break
        out.append(t)
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
        z = np.asarray(z, dtype=complex)
        if self.kind == "disk":
            return np.abs(z) < self.rho * (1.0 - _TRAP_MARGIN)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def _fast_ladder(f: ExpPoly, escape_radius: float, max_iter: int):
    """The fast-escape gates M^n(escape_radius), or None without a base.

    Stored on f per (escape_radius, max_iter), the BadBase outcome too.
    """
    memo = f.memo.setdefault("fast_ladder", {})
    key = (escape_radius, max_iter)
    if key not in memo:
        try:
            # No live point is deeper than MAX_DEPTH + 1, so deeper rungs
            # would fail every point they gate.
            memo[key] = iterate_max_modulus(f, escape_radius, max_iter + 1, max_depth=MAX_DEPTH + 1)
        except BadBase:
            memo[key] = None
    return memo[key]


# ---------------------------------------------------------------------------
# Classification engine


def _tower_ge(d1, v1, d2, v2):
    return (d1 > d2) | ((d1 == d2) & (v1 >= v2))


def _step_direct(f: ExpPoly, p: ClassifyParams, dcap: float, trap, s, pos, fl, n_step: int):
    """Advance the direct-mode orbits at positions pos of the state s by one step.

    Writes their new state into s and their cond, fixed and trap flags into
    fl.  Returns the positions whose log-domain terms overflow doubles (in
    practice only start points): they are moved to tower mode at their own
    magnitude, depth 1, val = log|z|, phase = arg z, and take a tower step
    instead.
    """
    if pos.size == 0:
        return pos
    Z = s["z"][pos]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ws = _term_exponents(f, Z)
        qs = _prefactor_logs(f, Z)
        maxs = functools.reduce(np.maximum, [w.real + lqa for w, (_, _, lqa) in zip(ws, qs)])
        over = np.isnan(maxs) | (maxs == np.inf)
        if over.any():
            io = pos[over]
            s["mode"][io] = 1
            s["depth"][io] = 1
            s["val"][io] = np.log(np.abs(Z[over]))
            s["phase"][io] = np.angle(Z[over])
            s["z"][io] = 0.0
            return np.concatenate([io, _step_direct(f, p, dcap, trap, s, pos[~over], fl, n_step)])
        lm, ph, zero = _log_sum([lq + w for w, (_, lq, _) in zip(ws, qs)])
    lm[zero] = -np.inf

    absZ = np.abs(Z)
    cond = absZ >= p.escape_radius
    with np.errstate(over="ignore", invalid="ignore"):
        cond[cond] = lm[cond] >= absZ[cond] ** p.alpha
    if f.d >= 3 and cond.any():
        cond[cond] = ~in_E_mask(f, Z[cond], 1)
    below = np.where(absZ <= p.escape_radius, s["below"][pos] + 1, 0)

    promote = lm > dcap
    # Step with the exact complex term sum whenever every term fits in
    # doubles: IEEE products and sums commute with negation and conjugation,
    # so sign/mirror symmetries of f survive bitwise.  Otherwise reconstruct
    # from the log-domain value; a promoted point's znew is never read.
    maxw = functools.reduce(np.maximum, [w.real for w in ws])
    safe = (maxw <= 700.0) & (maxs <= 700.0) & ~promote & ~zero
    rebuild = ~safe & ~zero & ~promote
    znew = np.zeros(Z.size, complex)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        direct = np.zeros(np.count_nonzero(safe), complex)
        for w, (q, _, _) in zip(ws, qs):
            direct = direct + (q if np.ndim(q) == 0 else q[safe]) * np.exp(w[safe])
        znew[safe] = direct
        znew[rebuild] = np.exp(lm[rebuild]) * np.exp(1j * ph[rebuild])

    fl["cond"][pos] = cond
    fl["fixed"][pos] = ~promote & (znew == Z)
    # An orbit entering the trap stays inside the radius for its remaining
    # max_iter - n_step points.  Flag it only when that makes the
    # trailing-run rule certain to fire.
    if trap is not None:
        enter = ~promote & (below + (p.max_iter - n_step) >= min(TAIL_STEPS, p.max_iter))
        enter[enter] = trap.contains(znew[enter])
        fl["trap"][pos] = enter
    s["mode"][pos] = promote
    s["z"][pos] = np.where(promote, 0.0, znew)
    s["depth"][pos] = promote
    s["val"][pos] = np.where(promote, lm, np.abs(znew))
    s["phase"][pos] = ph
    s["below"][pos] = below
    return pos[:0]


def _dominant_growth(f: ExpPoly, dphi):
    """(c, arg b_m) for c = max_j |b_j| cos(dphi + arg b_j), m the first maximising term.

    A running maximum over the terms picks the term argmax would: the first
    of equal maxima.  |b_j| and arg b_j are finite, so a c_j is NaN exactly
    where dphi is not finite, for every j at once, and there the first term
    is kept, as argmax keeps it.
    """
    tc = _term_consts(f)
    c = beta = None
    for ab, bj in zip(tc["abs_b"], tc["beta"]):
        cj = ab * np.cos(dphi + bj)
        if c is None:
            c, beta = cj, np.full(dphi.shape, bj)
        else:
            take = cj > c
            c = np.where(take, cj, c)
            beta = np.where(take, bj, beta)
    return c, beta


def _step_tower(f: ExpPoly, p: ClassifyParams, dcap: float, s, pos, fl):
    """Advance the tower-mode orbits at positions pos of the state s by one step.

    The magnitude grows like the dominant term, log|z'| = c |z|^d with
    c = max_j |b_j| cos(d phi + arg b_j); c <= 0 is a dead direction.  Writes
    the new state into s and the cond and stop flags into fl.
    """
    if pos.size == 0:
        return
    d, alpha = f.d, p.alpha
    dep, v = s["depth"][pos], s["val"][pos]
    dphi = d * s["phase"][pos]
    c, beta = _dominant_growth(f, dphi)
    dead = c <= 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logc = np.log(np.where(dead, 1.0, c))
        grow = logc + d * v
        # growth: log|z'| = c |z|^d >= |z|^alpha
        cond = ((dep != 1) | (grow >= alpha * v)) & ~dead
        small = (dep >= 2) & (v <= 10.0)
        if small.any():
            l_small = np.exp(v[small])
            cond[small] &= logc[small] + d * l_small >= alpha * l_small
    logd = math.log(d) if d > 1 else 0.0
    nd, nv = _canon_arrays(dep + 1, np.where(dep == 1, grow, np.where(dep == 2, v + logd, v)))
    phase = wrap_phase(dphi + beta)
    # Demotion to direct mode when |z| fits the exact evaluator again.
    with np.errstate(divide="ignore"):
        lognv = np.log(np.maximum(nv, 1e-300))
    demote = (nd == 0) & (lognv <= dcap)
    redepth = (nd == 0) & ~demote
    nd[redepth] = 1
    nv[redepth] = lognv[redepth]
    znew = np.zeros(pos.size, complex)
    znew[demote] = nv[demote] * np.exp(1j * phase[demote])

    fl["cond"][pos] = cond
    fl["stop"][pos] = dead | (nd > MAX_DEPTH)
    s["mode"][pos] = ~demote
    s["z"][pos] = znew
    s["depth"][pos] = nd
    s["val"][pos] = nv
    s["phase"][pos] = phase
    s["below"][pos] = 0


def _retire(out, idx, s, m, code, n_step: int):
    """Scatter the results of the state entries m, with tag codes code, into out."""
    i = idx[m]
    out["tag_code"][i] = code
    out["steps"][i] = n_step
    out["escape_step"][i[code == 1]] = n_step
    out["fast_escape"][i] = s["fast_ok"][m] & (code == 1)
    out["final_mode"][i] = s["mode"][m]
    out["final_depth"][i] = s["depth"][m]
    out["final_val"][i] = s["val"][m]


def classify_batch(f: ExpPoly, points, p: ClassifyParams | None = None, record: bool = False):
    """Classify an array of starting points; returns a dict of result arrays.

    Keys: tag (strings), tag_code (0 Undetermined, 1 EscapeCertified, 2
    NonEscapeObserved), steps, fast_escape, escape_step, trapped (the orbit
    stopped on entering the trap region of trap_at_0), final_mode,
    final_depth, final_val (|z| = exp^depth(val) at the last computed step),
    and, when record is set, trace (per-step diagnostics for the
    single-point case).  A NaN or infinite start point is Undetermined after
    0 steps.

    The loop holds a compact state of the live orbits only: their index in
    the batch, z, mode (0 direct complex, 1 tower magnitude), depth, val,
    phase, run (consecutive certified steps), below (consecutive steps inside
    the radius) and fast_ok.  Each step advances the direct-mode orbits by
    _step_direct and the tower-mode ones by _step_tower.  An orbit that
    finishes (certified run, fixed point, trap entry, dead direction or
    depth beyond MAX_DEPTH) is retired at once: its results are scattered
    into the output arrays and it leaves the state.  Orbits still live after
    max_iter steps are retired by the trailing-run rule.

    What EscapeCertified proves: cert_steps consecutive certified steps, of
    two kinds.  A direct step checks the true z: |z| >= escape_radius, the
    growth inequality log|f(z)| >= |z|^alpha, and (for d >= 3) that z is
    outside the level-1 set.  A tower step checks growth only, and on the
    dominant-term model log|z'| = c |z|^d, with c taken from the carried
    phase, which is a proxy and not the argument of the true orbit; it runs
    no level-1 check.  So a verdict whose run ends in tower mode rests on
    the direct steps before it plus that model.
    """
    if p is None:
        p = ClassifyParams()
    pts = np.asarray(points, dtype=complex).ravel()
    n_pts = pts.size
    dcap = min((700.0 - math.log(f.max_abs_b) - 5.0) / f.d, BAIL_LOGMOD)
    trap = trap_at_0(f, p.escape_radius)
    ladder = _fast_ladder(f, p.escape_radius, p.max_iter)
    lad_depth = np.array([t.depth for t in ladder or []], np.int64)
    lad_val = np.array([t.value for t in ladder or []])

    out = {
        "tag_code": np.zeros(n_pts, np.int8),
        "steps": np.zeros(n_pts, np.int64),
        "fast_escape": np.zeros(n_pts, bool),
        "escape_step": np.full(n_pts, -1, np.int64),
        "trapped": np.zeros(n_pts, bool),
        "final_mode": np.zeros(n_pts, np.int8),
        "final_depth": np.zeros(n_pts, np.int64),
        "final_val": np.abs(pts),
    }
    idx = np.flatnonzero(np.isfinite(pts))
    z = pts[idx]
    n = idx.size
    s = {
        "mode": np.zeros(n, np.int8),
        "z": z,
        "depth": np.zeros(n, np.int64),
        "val": np.abs(z),
        "phase": np.angle(z),
        "run": np.zeros(n, np.int64),
        "below": np.zeros(n, np.int64),
        "fast_ok": np.full(n, ladder is not None),
    }
    if record:
        trace = []
        # Full-size copies of the state; a retired orbit keeps its last values.
        full = {k: np.zeros(n_pts, s[k].dtype) for k in ("mode", "depth", "run")}
        full.update(z=pts.copy(), val=np.abs(pts), phase=np.angle(pts))

    for n_step in range(1, p.max_iter + 1):
        if idx.size == 0:
            break
        fl = {k: np.zeros(idx.size, bool) for k in ("cond", "fixed", "trap", "stop")}
        direct = np.flatnonzero(s["mode"] == 0)
        tower = np.flatnonzero(s["mode"] == 1)
        over = _step_direct(f, p, dcap, trap, s, direct, fl, n_step)
        _step_tower(f, p, dcap, s, np.concatenate([tower, over]), fl)

        # fast-escape gate: |z_n| >= M^(n - cert_steps)(escape_radius)
        gate = n_step - p.cert_steps
        if gate > 0:
            gated = np.flatnonzero(s["fast_ok"])
            ok = False
            if gate <= len(lad_depth):
                cd, cv = _canon_arrays(s["depth"][gated], s["val"][gated])
                ok = _tower_ge(cd, cv, lad_depth[gate - 1], lad_val[gate - 1])
            s["fast_ok"][gated] = ok

        fixed = fl["fixed"]
        s["run"] = np.where(fl["cond"] & ~fixed, s["run"] + 1, 0)
        cert = s["run"] >= p.cert_steps
        trapped = fl["trap"] & ~fixed & ~cert
        end = fixed | cert | trapped | fl["stop"]
        if record:
            for k, a in full.items():
                a[idx] = s[k]
            cond = np.zeros(n_pts, bool)
            cond[idx] = fl["cond"]
            trace.append({"step": n_step, **{k: a.copy() for k, a in full.items()}, "cond": cond})
        if end.any():
            # A fixed direct point is non-escaping when it lies inside the
            # radius, which is when its below count is positive.
            code = np.where(cert, 1, np.where(trapped | (fixed & (s["below"] > 0)), 2, 0)).astype(np.int8)
            _retire(out, idx, s, end, code[end], n_step)
            out["trapped"][idx[trapped]] = True
            keep = ~end
            idx = idx[keep]
            s = {k: a[keep] for k, a in s.items()}

    tail = np.where(s["below"] >= min(TAIL_STEPS, p.max_iter), 2, 0).astype(np.int8)
    _retire(out, idx, s, np.ones(idx.size, bool), tail, p.max_iter)
    out["tag"] = _TAG_TABLE[out["tag_code"]]
    out["trace"] = trace if record else None
    return out


def _orbit_walk(f: ExpPoly, z0: complex, p: ClassifyParams):
    """Classify the single point z0 with a trace; returns (OrbitClass, walk).

    walk has one record (step, z, depth, val, phase, certified) per state
    from z0 on: z is the point in direct mode and None in tower mode, where
    |z| = exp^depth(val).
    """
    res = classify_batch(f, [z0], p, record=True)
    oc = OrbitClass(tag=str(res["tag"][0]), steps=int(res["steps"][0]), fast_escape=bool(res["fast_escape"][0]))
    walk = [(0, z0, 0, None, None, False)]
    for rec in res["trace"]:
        z = rec["z"][0] if rec["mode"][0] == 0 else None
        walk.append((rec["step"], z, rec["depth"][0], rec["val"][0], rec["phase"][0], bool(rec["cond"][0])))
    return oc, walk


def classify_orbit(f: ExpPoly, z0: complex, p: ClassifyParams | None = None) -> OrbitClass:
    """Classify a single orbit, with certificate diagnostics attached."""
    oc, walk = _orbit_walk(f, complex(z0), p or ClassifyParams())
    mags = [TowerMag(0, abs(z)) if z is not None else TowerMag(int(dep), float(val)) for _, z, dep, val, _, _ in walk]
    oc.diagnostics["last_abs"] = mags[-1]
    oc.diagnostics["cert_trace"] = [
        {"step": w[0], "abs_before": before, "abs_after": after, "certified": w[5]}
        for w, before, after in zip(walk[1:], mags, mags[1:])
    ]
    return oc


def write_orbit_csv(f: ExpPoly, z0: complex, p: ClassifyParams, path) -> OrbitClass:
    """Iterate one orbit and export its trace as CSV, one row per state."""
    oc, walk = _orbit_walk(f, complex(z0), p)
    rows = [
        (step, z.real, z.imag, "", "", dep, oc.tag) if z is not None else (step, "", "", val, phase, dep, oc.tag)
        for step, z, dep, val, phase, _ in walk
    ]
    write_csv(path, ORBIT_COLUMNS, rows)
    return oc
