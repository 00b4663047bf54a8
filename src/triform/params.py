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

``as_count`` is the package's one guard on integer arguments: truncations,
sample counts, seeds and refinement levels.
"""

import cmath
import operator
from dataclasses import dataclass
from typing import Optional

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

    Raises NonFiniteError when a parameter is NaN or infinite, and
    PreconditionError when one is not a number (complex() refuses it).
    """
    try:
        a, b, c = complex(l1), complex(l2), complex(l3)
    except (TypeError, ValueError):
        raise PreconditionError(f"spectral parameters must be numbers, got "
                                f"({l1!r}, {l2!r}, {l3!r})") from None
    if not all(cmath.isfinite(z) for z in (a, b, c)):
        raise NonFiniteError(f"spectral parameters ({a}, {b}, {c}) must be finite")
    return ExponentQuadruple(
        alpha=a - b - c,
        beta=-a + b - c,
        gamma=-a - b + c,
        delta=-a - b - c,
    )


def as_count(value, name: str, low: int = 0, top: Optional[int] = None) -> int:
    """``value`` as an int in [low, top]; PreconditionError for anything else
    (a float such as 4.5 included), before any work."""
    try:
        n = operator.index(value)
    except TypeError:
        raise PreconditionError(f"{name} must be an integer, got {value!r}") from None
    if n < low or (top is not None and n > top):
        upper = "" if top is None else f" and {name} <= {top}"
        raise PreconditionError(f"need {name} >= {low}{upper}, got {name} = {n}")
    return n
