"""The exponent quadruple of three spectral parameters.

A generalized principal-series representation of PGL(2,R) is indexed by one
complex parameter lam, a plain complex number throughout the package; it acts
on smooth even functions on R^2 \\ 0 that are homogeneous of degree lam - 1.
The representation is pre-unitary when lam is purely imaginary (principal
series) or real in (-1, 1) (complementary series).

Three parameters (l1, l2, l3) determine the four linear combinations

    alpha = l1 - l2 - l3,   beta = -l1 + l2 - l3,
    gamma = -l1 - l2 + l3,  delta = -l1 - l2 - l3,

which drive both the invariant kernel and the Gamma closed form.
"""

import cmath
from dataclasses import dataclass

from .errors import NonFiniteError, PreconditionError


@dataclass(frozen=True)
class ExponentQuadruple:
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def require_convergent(self):
        """Raise PreconditionError when Re alpha, beta, gamma or delta <= -1.

        There the kernel integrals (the triple integral, the kernel Gaussian)
        diverge absolutely, at a singular line or, for Re delta <= -1, i.e.
        Re(l1 + l2 + l3) >= 1, where the three points meet; regularization is
        out of scope.
        """
        bad = [name for name, v in vars(self).items() if v.real <= -1.0]
        if bad:
            raise PreconditionError(
                f"exponent(s) {', '.join(bad)} have Re <= -1: the kernel "
                "integral diverges absolutely and regularization is out of scope")

    def kernel_powers(self):
        """The three kernel exponents ((mu - 1)/2 for mu = alpha, beta, gamma)."""
        return ((self.alpha - 1) / 2, (self.beta - 1) / 2, (self.gamma - 1) / 2)


def exponents(l1, l2, l3) -> ExponentQuadruple:
    """Exponent quadruple of a complex parameter triple.

    Raises NonFiniteError when a parameter is NaN or infinite.
    """
    a, b, c = complex(l1), complex(l2), complex(l3)
    if not all(cmath.isfinite(z) for z in (a, b, c)):
        raise NonFiniteError(f"spectral parameters ({a}, {b}, {c}) must be finite")
    return ExponentQuadruple(
        alpha=a - b - c,
        beta=-a + b - c,
        gamma=-a - b + c,
        delta=-a - b - c,
    )
