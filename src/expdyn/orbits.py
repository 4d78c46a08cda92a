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

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BadBase, ZeroValue
from .exceptional import in_E_mask
from .funcs import (
    ExpPoly,
    _log_sum,
    _pow_int,
    _prefactor_logs,
    _term_consts,
    _term_exponents,
    eval_log,
    eval_log_batch,
    wrap_phase,
)
from .towers import LIFT, TowerMag, _tower_add_const, _tower_scale, tower_exp, tower_log, tower_pow

__all__ = [
    "ClassifyParams",
    "OrbitClass",
    "ESCAPE_CERTIFIED",
    "NON_ESCAPE_OBSERVED",
    "UNDETERMINED",
    "log_max_modulus",
    "iterate_max_modulus",
    "iterate_E_alpha",
    "sixsmith_quantity",
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


@dataclass(frozen=True)
class ClassifyParams:
    alpha: float = 0.25
    escape_radius: float = 50.0
    max_iter: int = 512
    cert_steps: int = 3
    bail_logmod: float = 690.0

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


def log_max_modulus(f: ExpPoly, r: float, ntheta: int = 256):
    """Bracket [lo, hi] for log max_{|z|=r} |f(z)| by circle sampling.

    lo is the sampled maximum of log|f|; hi adds a Lipschitz slack for the
    half gap between samples using the crude gradient bound above.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    thetas = 2.0 * math.pi * np.arange(ntheta) / ntheta
    Z = r * np.exp(1j * thetas)
    lm, _, zero = eval_log_batch(f, Z)
    lm = np.where(zero, -np.inf, lm)
    lo = float(lm.max())
    slack = r * _log_deriv_bound(f, r) * (math.pi / ntheta)
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


def iterate_E_alpha(x: float, alpha: float, k: int) -> TowerMag:
    """k-fold iterate of x -> exp(x^alpha) in tower form."""
    if x <= 0 or alpha <= 0:
        raise ValueError("x and alpha must be positive")
    t = TowerMag(0, float(x))
    for _ in range(k):
        t = tower_exp(tower_pow(t, alpha))
    return t


def sixsmith_quantity(f: ExpPoly, z: complex) -> float:
    """|z f'(z)/f(z)|, evaluated from log-domain values."""
    z = complex(z)
    v = eval_log(f, z)
    d1 = eval_log_batch(f, np.asarray(z), order=1)
    if bool(d1[2]):
        return 0.0
    e = float(d1[0]) - v.logmod + math.log(abs(z))
    return math.inf if e > 709.0 else math.exp(e)


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


# ---------------------------------------------------------------------------
# Classification engine


def _canon_arrays(depth, val):
    """Canonicalize (depth, value) pairs in place, so lexicographic order is
    the real order; returns them."""
    while True:
        m = (depth > 0) & (val <= LIFT)
        if not m.any():
            break
        val[m] = np.exp(val[m])
        depth[m] -= 1
    return depth, val


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
        maxs = np.maximum.reduce([w.real + lqa for w, (_, _, lqa) in zip(ws, qs)])
        over = np.isnan(maxs) | (maxs == np.inf)
        if over.any():
            io = pos[over]
            s["mode"][io] = 1
            s["depth"][io] = 1
            s["val"][io] = np.log(np.abs(Z[over]))
            s["phase"][io] = np.angle(Z[over])
            s["z"][io] = 0.0
            return np.concatenate([io, _step_direct(f, p, dcap, trap, s, pos[~over], fl, n_step)])
        lm, ph, zero = _log_sum(np.stack([lq + w for w, (_, lq, _) in zip(ws, qs)]))
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
    maxw = np.maximum.reduce([w.real for w in ws])
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


def _step_tower(f: ExpPoly, p: ClassifyParams, dcap: float, s, pos, fl):
    """Advance the tower-mode orbits at positions pos of the state s by one step.

    The magnitude grows like the dominant term, log|z'| = c |z|^d with
    c = max_j |b_j| cos(d phi + arg b_j); c <= 0 is a dead direction.  Writes
    the new state into s and the cond and stop flags into fl.
    """
    if pos.size == 0:
        return
    tc = _term_consts(f)
    d, alpha = f.d, p.alpha
    dep, v = s["depth"][pos], s["val"][pos]
    dphi = d * s["phase"][pos]
    cj = tc["abs_b"][:, None] * np.cos(dphi[None, :] + tc["beta"][:, None])
    mj = np.argmax(cj, axis=0)
    c = np.take_along_axis(cj, mj[None, :], axis=0)[0]
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
    phase = wrap_phase(dphi + tc["beta"][mj])
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
    """
    if p is None:
        p = ClassifyParams()
    pts = np.asarray(points, dtype=complex).ravel()
    n_pts = pts.size
    dcap = min((700.0 - math.log(f.max_abs_b) - 5.0) / f.d, p.bail_logmod)
    trap = trap_at_0(f, p.escape_radius)
    try:
        # No live point is deeper than MAX_DEPTH + 1, so deeper rungs would
        # fail every point they gate.
        ladder = iterate_max_modulus(f, p.escape_radius, p.max_iter + 1, max_depth=MAX_DEPTH + 1)
    except BadBase:
        ladder = None
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


def _final_abs_tower(res, i=0) -> TowerMag:
    if res["final_mode"][i] == 0:
        return TowerMag(0, float(np.abs(res["final_val"][i])))
    return TowerMag(int(res["final_depth"][i]), float(res["final_val"][i]))


def classify_orbit(f: ExpPoly, z0: complex, p: ClassifyParams | None = None) -> OrbitClass:
    """Classify a single orbit, with certificate diagnostics attached."""
    if p is None:
        p = ClassifyParams()
    res = classify_batch(f, [complex(z0)], p, record=True)
    tag = str(res["tag"][0])
    diagnostics = {"last_abs": _final_abs_tower(res)}
    try:
        diagnostics["last_sixsmith"] = sixsmith_quantity(f, z0)
    except ZeroValue:
        diagnostics["last_sixsmith"] = None
    cert_trace = []
    prev_abs = TowerMag(0, abs(complex(z0)))
    for rec in res["trace"]:
        if rec["mode"][0] == 0:
            cur = TowerMag(0, float(np.abs(rec["z"][0])))
        else:
            dep = int(rec["depth"][0])
            cur = TowerMag(dep, float(rec["val"][0])) if dep else TowerMag(0, float(rec["val"][0]))
        cert_trace.append(
            {"step": rec["step"], "abs_before": prev_abs, "abs_after": cur, "certified": bool(rec["cond"][0])}
        )
        prev_abs = cur
    diagnostics["cert_trace"] = cert_trace
    return OrbitClass(
        tag=tag,
        steps=int(res["steps"][0]),
        fast_escape=bool(res["fast_escape"][0]),
        diagnostics=diagnostics,
    )


def write_orbit_csv(f: ExpPoly, z0: complex, p: ClassifyParams, path) -> OrbitClass:
    """Iterate one orbit and export its trace as CSV."""
    res = classify_batch(f, [complex(z0)], p, record=True)
    tag = str(res["tag"][0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "re", "im", "logmod", "phase", "depth", "tag"])
        writer.writerow([0, complex(z0).real, complex(z0).imag, "", "", 0, tag])
        for rec in res["trace"]:
            if rec["mode"][0] == 0:
                zz = rec["z"][0]
                writer.writerow([rec["step"], zz.real, zz.imag, "", "", 0, tag])
            else:
                writer.writerow(
                    [rec["step"], "", "", rec["val"][0], rec["phase"][0], rec["depth"][0], tag]
                )
    return OrbitClass(tag=tag, steps=int(res["steps"][0]), fast_escape=bool(res["fast_escape"][0]))
