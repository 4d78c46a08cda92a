"""Trap regions at the fixed point 0.

Where f(0) = 0 holds exactly, trap_at_0 certifies a region R with f(R)
inside R and R inside D(0, rho), rho below the escape radius: an attracting
disk when |f'(0)| < 1, or, when f'(0) = 1, a union of wedges in the
Leau-Fatou coordinate w = c / z^m: the parabolic petal and wedges that reach
toward its repelling directions.

The Taylor coefficients a_k of f at 0 are computed exactly, in rational
arithmetic on the stored doubles, up to TRAP_ORDER.  The rest of the series
is bounded on |z| <= rho by the coefficientwise majorant

    F(rho) = sum_j Qhat_j(rho) exp(|b_j| rho^d + Phat_j(rho)),

hats taking absolute values of coefficients, whose Taylor coefficients
dominate |a_k|: sum_{k > K} |a_k| rho^k <= F(rho) - sum_{k <= K} F_k rho^k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .funcs import CACHE_SIZE, ExpPoly, _pow_int
from .poly import _GaussQ, _exact

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


def _tail_up(f: ExpPoly, rho: Fraction, hat) -> Fraction | None:
    """Upper bound for sum_{k > K} |a_k| rho^k from the majorant F, where
    K = len(hat) - 1 is the order of the series hat, TRAP_ORDER at both
    callers."""
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

    Every float member z, a True entry of contains, has |z| < rho in
    floats: the engine tests trap entry by contains alone.
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
    tail = _tail_up(f, rho, hat)
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
    tail = _tail_up(f, rho, hat)
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
