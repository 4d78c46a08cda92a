"""Iterated-logarithm magnitudes for doubly/triply exponential quantities.

A TowerMag (depth, value) represents the magnitude exp applied depth times to
value.  Canonical form minimizes the depth: whenever depth > 0 and the value
is at most LIFT (= 690, so its exp stays inside double range), one exp is
applied and the depth reduced.  On canonical forms, (depth, value) compares
lexicographically: any depth-(k+1) magnitude has value > LIFT, hence exceeds
exp(LIFT) > 1e299, above every representable depth-k value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TowerMag", "tower_compare", "tower_log", "tower_exp"]

LIFT = 690.0


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


@dataclass(frozen=True, order=True)
class TowerMag:
    depth: int
    value: float

    def __post_init__(self):
        depth, value = self.depth, float(self.value)
        if depth < 0:
            raise ValueError("depth must be non-negative")
        if not math.isfinite(value):
            raise ValueError("value must be finite")
        depth, value = _canon_arrays(np.array([depth]), np.array([value]))
        object.__setattr__(self, "depth", int(depth[0]))
        object.__setattr__(self, "value", float(value[0]))

    @classmethod
    def from_logmod(cls, logmod: float) -> "TowerMag":
        """Magnitude with natural log equal to logmod."""
        if logmod <= LIFT:
            return cls(0, math.exp(logmod))
        return cls(1, logmod)


def tower_compare(a: TowerMag, b: TowerMag) -> int:
    """-1, 0, or 1 according to the represented real magnitudes."""
    return (a > b) - (a < b)


def tower_log(t: TowerMag) -> TowerMag:
    """Natural log of the represented magnitude (which must exceed 0)."""
    if t.depth > 0:
        return TowerMag(t.depth - 1, t.value)
    if t.value <= 0:
        raise ValueError("log of non-positive magnitude")
    return TowerMag(0, math.log(t.value))


def tower_exp(t: TowerMag) -> TowerMag:
    if t.depth == 0 and t.value <= LIFT:
        return TowerMag(0, math.exp(t.value))
    return TowerMag(t.depth + 1, t.value)


def _tower_add_const(t: TowerMag, c: float) -> TowerMag:
    """t + c for a scalar c small relative to t; exact at depth 0."""
    if t.depth == 0:
        return TowerMag(0, t.value + c)
    inner = tower_log(t)
    if inner.depth == 0:
        rel = c * math.exp(-min(inner.value, LIFT))
        if rel > -1.0:
            return tower_exp(TowerMag(0, inner.value + math.log1p(rel)))
    # c is negligible at this scale
    return t


def _tower_scale(t: TowerMag, a: float) -> TowerMag:
    """a * t for a positive scalar a."""
    if a <= 0:
        raise ValueError("scale factor must be positive")
    if t.depth == 0:
        return TowerMag(0, a * t.value)
    return tower_exp(_tower_add_const(tower_log(t), math.log(a)))
