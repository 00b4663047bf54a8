"""Exception types shared across the package."""


class TriformError(Exception):
    """Base class for all triform errors."""


class PoleArgumentError(TriformError):
    """A Gamma factor was evaluated at (or within tolerance of) a pole:
    ``index`` is its position among the arguments of the call."""

    def __init__(self, z, index, factor=""):
        self.z = z
        self.index = index
        self.factor = factor
        where = f" in factor {factor}" if factor else ""
        super().__init__(f"Gamma pole at z = {z}{where}")


class DomainTooSmallError(TriformError):
    """Argument outside the asymptotic regime the formula is valid in."""


class SingularConfigurationError(TriformError):
    """Kernel evaluated on (or numerically on) a singular configuration."""


class NonConvergentError(TriformError):
    """Refinement stalled above the requested relative error."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class PreconditionError(TriformError):
    """Input violates a documented precondition (e.g. divergent exponent range)."""


class NonFiniteError(TriformError):
    """A non-finite value: a NaN or infinite input parameter or Fourier
    coefficient, or a sample value that overflowed."""


class TruncationOverflowError(TriformError):
    """Fourier tail energy beyond the truncation exceeds the allowed budget."""


class NotPositiveDefiniteError(TriformError):
    """A form that must be positive definite is not."""
