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
of f is an astronomically large number mod 2 pi.  Tower mode is one-way: an
orbit never returns to direct mode, and one whose model magnitude falls back
into the double range stops there, Undetermined, since the model has no true
point to continue from.  A start point whose log-domain evaluation overflows
doubles starts in tower mode at its own magnitude; a NaN or infinite start
point is Undetermined after 0 steps.  Classification is certificate-based:
escape is only reported after a run of consecutive certified steps.  A direct
step is certified when the point lies beyond the escape radius, outside the
level-1 exceptional set, and grows at the stretched exponential rate
log|z_{k+1}| >= |z_k|^alpha; a tower step checks the radius and the growth of
the dominant-term model, and no level-1 membership.

Non-escape is reported when an orbit lands exactly on a fixed point inside
the radius or its new point enters the trap region R, proofs that end it at
once, or, at the end of the budget, when the start points of its last
TAIL_STEPS steps (all of them, for a shorter budget) and its last point lie
inside the radius, in direct mode.  R is the region of traps.trap_at_0, which
certifies it where f(0) = 0 holds exactly; the engine reads it through one
TrapRegion.contains call per step.  An orbit whose new point (the float
iterate) lies in R stops there as NonEscapeObserved, with the `trapped` flag
and `steps` the entry step.

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

import numpy as np

from .exceptional import in_E_mask
from .funcs import (
    ExpPoly,
    _ZERO_C,
    _ZERO_CORR,
    _check_alpha,
    _const,
    _dominant,
    _eval_log_parts,
    _log_parts,
    _phase,
    _pow_int,
    _prefactor_logs,
    _term_consts,
    _term_exponents,
)
from .traps import trap_at_0

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
    Each stage selects its points once.  The exact term sum runs on whole
    columns, masked to the points where every term fits; the log-domain sum
    runs on rest, the index array of the points the screen does not pass (of
    every point without a screen).  A step skips the log-domain sum where
    rest is empty, the phase where no point is rebuilt, and the growth and
    level-1 tests and the promotion hand-off where no point needs them.  The
    trap flag is one trap.contains call on every new point.  An empty state
    steps through on empty arrays.
    """
    Z, absZ = s["z"], s["val"]
    ws, qs = _term_exponents(f, Z), _prefactor_logs(f, Z, tc)
    # t = max_j log|Q_j e^{w_j}|.  Both e^{w_j} and Q_j e^{w_j} are at most
    # e^{Re w_j + x}, x = max(log|Q_j|, 0).
    t = functools.reduce(np.maximum, [w.real + lqa for w, (_, _, lqa, _) in zip(ws, qs)])
    fits = functools.reduce(np.maximum, [w.real if x is None else w.real + x for w, (*_, x) in zip(ws, qs)]) <= _FITS
    over = ~(t < np.inf)
    if np.count_nonzero(over):  # a NaN or +inf log term
        zo = Z[over]
        starts = _to_tower(s, over, np.log(np.abs(zo)), zo / np.abs(zo))
        s.update(_take(s, ~over))
        fl, _, promoted = _step_direct(f, tc, p, radius, dcap, screen, trap, s)
        return fl, starts, promoted
    # The exact term sum, taken where every term fits: exp is slow on the
    # huge imaginary parts of the others, which hold q * 0 until the exact
    # path gives them their value (the screen requires fits, so they are all
    # in rest).
    znew = _ZERO_C
    for w, (q, *_) in zip(ws, qs):
        znew = znew + q * np.exp(w, out=np.zeros(Z.size, complex), where=fits)
    absnew = np.abs(znew)
    cond = absZ >= radius
    if screen is None:
        rest = np.arange(Z.size)
    else:
        t_lo, t_hi, tau = screen
        rest = np.flatnonzero(~(fits & ~cond & (t > t_lo) & (t < t_hi) & (absnew > tau * np.exp(t))))
    del t
    promoted = None
    if rest.size:
        rows = [(lq if lq.ndim == 0 else lq[rest]) + w[rest] for w, (_, lq, _, _) in zip(ws, qs)]
        del ws, qs, w  # free the term arrays before the sum allocates its own
        lm, zero, Sm, corr = _log_parts(rows)
        del rows
        lm[zero] = -np.inf
        promote = lm > dcap
        rebuild = ~(promote | zero | fits[rest])
        # A zero point steps to 0.  A promoted one steps to NaN, which is
        # neither fixed nor in the trap.
        zr = znew[rest]
        zr[zero], zr[promote] = 0j, np.nan
        if np.count_nonzero(rebuild):
            zr[rebuild] = np.exp(lm[rebuild]) * np.exp(1j * _phase(Sm[rebuild], corr[rebuild]))
        if n_promote := np.count_nonzero(promote):
            cp = corr[promote]
            u = np.exp(1j * Sm.imag[promote]) * (cp / np.abs(cp))
        del Sm, corr
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
    fl = {"cond": cond, "fixed": znew == Z}
    fl["trap"] = np.zeros(Z.size, bool) if trap is None else trap.contains(znew)
    s.update(z=znew, val=absnew, below=(s["below"] + _ONE) * (absZ <= radius))
    return fl, None, promoted


def _step_tower(f: ExpPoly, tc: dict, p: ClassifyParams, s):
    """Advance the tower state s by one step.

    The magnitude grows like the dominant term, log|z'| = c |z|^d with
    c = max_j Re(b_j u^d) for the unit direction u of z, held as a complex
    number: no angle is wrapped, so c is exactly 0 on a dead axis.  The
    next direction is that of the dominant exponent, b_m u^d / |b_m u^d|,
    with b_m u^d = _dominant of the rows b_j u^d, whose rule decides ties.
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
    ud = _pow_int(s["u"], d)
    w = _dominant([b * ud for b in tc["b"]])
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
    """Direct state of orbits starting at z, with batch indices idx."""
    counts = {k: np.zeros(idx.size, np.int64) for k in ("age", "run", "below")}
    return {"idx": idx, "z": z, "val": np.abs(z), **counts}


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
    A step costs about 37 us however few orbits are live (one bounded sin z
    orbit, 2-core Xeon, best of 30 runs of 512 steps), so a tail of long
    orbits pays it each step.  It reads _term_consts(f) once per pool,
    enters one np.errstate, skips the step of an empty tower state, and
    skips the log-domain sum, the phase, the growth test and the promotion
    hand-off where no orbit needs them.
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
