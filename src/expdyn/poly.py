"""Dense polynomials with complex coefficients, ascending degree order, and
the exact complex rationals that decide questions on their stored doubles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = ["Poly"]


class Poly:
    """A polynomial sum(c[i] * z**i) stored as a dense ascending coefficient array.

    The zero polynomial has an empty coefficient array; otherwise the trailing
    coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = np.asarray(list(coeffs), dtype=complex)
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        self.coeffs = c[:n]
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def __call__(self, z):
        """Evaluate by Horner's rule; z may be a scalar or an ndarray."""
        if len(self.coeffs) == 0:
            return np.zeros_like(z) if isinstance(z, np.ndarray) else 0j
        acc = self.coeffs[-1]
        if isinstance(z, np.ndarray):
            acc = np.full(z.shape, acc, dtype=complex)
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc

    def deriv(self) -> "Poly":
        if len(self.coeffs) <= 1:
            return Poly()
        return Poly(self.coeffs[1:] * np.arange(1, len(self.coeffs)))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=complex)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(-self.coeffs)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        return Poly(np.convolve(self.coeffs, other.coeffs))

    def coeff(self, i: int) -> complex:
        """Coefficient of z**i (zero beyond the stored degree)."""
        return complex(self.coeffs[i]) if 0 <= i < len(self.coeffs) else 0j

    def coeff_bound(self, r: float) -> float:
        """sum |c_i| r^i, a crude upper bound for |p(z)| on |z| <= r."""
        return float(sum(abs(c) * r**i for i, c in enumerate(self.coeffs)))

    def __eq__(self, other):
        return isinstance(other, Poly) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"Poly({self.coeffs.tolist()})"


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

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re or self.im)

    def conjugate(self):
        return _GaussQ(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def _exact(c) -> _GaussQ:
    """The stored double complex c as an exact Gaussian rational."""
    return _GaussQ(c.real, c.imag)
