"""Exception types shared across the package."""


class ExpDynError(Exception):
    """Base class for all package-specific errors."""


class EvalOverflow(ExpDynError):
    """Direct evaluation would exceed double range (exponent real part > 700)."""


class ZeroValue(ExpDynError):
    """The function value is (numerically) zero; log representation undefined."""


class DomainError(ExpDynError):
    """An argument lies outside the mathematical domain of the formula."""


class BadSigma(ExpDynError):
    """Disk-scale parameter sigma outside (0, 1/(4 d max|b|))."""


class BadBase(ExpDynError):
    """Maximum-modulus iteration started below the fixed radius (M(R) <= R)."""
