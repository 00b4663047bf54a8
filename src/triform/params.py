"""Spectral parameters and the exponent quadruple they induce.

A generalized principal-series representation of PGL(2,R) is indexed by one
complex parameter lam; it acts on smooth even functions on R^2 \\ 0 that are
homogeneous of degree lam - 1.  The representation is pre-unitary when lam is
purely imaginary (principal series) or real in (-1, 1) (complementary series).

Three parameters (l1, l2, l3) determine the four linear combinations

    alpha = l1 - l2 - l3,   beta = -l1 + l2 - l3,
    gamma = -l1 - l2 + l3,  delta = -l1 - l2 - l3,

which drive both the invariant kernel and the Gamma closed form.
"""

import cmath
from dataclasses import dataclass

from .errors import NonFiniteError, PreconditionError

_IM_TOL = 1e-14


def _as_complex(lam) -> complex:
    if isinstance(lam, SeriesParam):
        return lam.lam
    return complex(lam)


@dataclass(frozen=True)
class SeriesParam:
    """One spectral parameter, with its unitarity class derived from the value."""

    lam: complex

    def __post_init__(self):
        z = complex(self.lam)
        if not (abs(z.real) < float("inf") and abs(z.imag) < float("inf")):
            raise ValueError("spectral parameter must be finite")
        object.__setattr__(self, "lam", z)

    @property
    def series_class(self) -> str:
        if abs(self.lam.real) <= _IM_TOL:
            return "principal"
        if abs(self.lam.imag) <= _IM_TOL and abs(self.lam.real) < 1.0:
            return "complementary"
        return "general"

    @classmethod
    def principal(cls, t: float) -> "SeriesParam":
        return cls(1j * t)

    @classmethod
    def complementary(cls, x: float) -> "SeriesParam":
        if not -1.0 < x < 1.0:
            raise ValueError("complementary parameter must lie in (-1, 1)")
        return cls(complex(x))


@dataclass(frozen=True)
class ExponentQuadruple:
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    @property
    def is_imaginary(self) -> bool:
        return max(abs(self.alpha.real), abs(self.beta.real),
                   abs(self.gamma.real), abs(self.delta.real)) <= _IM_TOL

    def require_convergent(self):
        """Raise PreconditionError when Re alpha, beta or gamma <= -1.

        There the kernel integrals (the triple integral, the kernel Gaussian)
        diverge absolutely; regularization is out of scope.
        """
        bad = [name for name, v in (("alpha", self.alpha), ("beta", self.beta),
                                    ("gamma", self.gamma)) if v.real <= -1.0]
        if bad:
            raise PreconditionError(
                f"exponent(s) {', '.join(bad)} have Re <= -1: the kernel "
                "integral diverges absolutely and regularization is out of scope")

    def kernel_powers(self):
        """The three kernel exponents ((mu - 1)/2 for mu = alpha, beta, gamma)."""
        return ((self.alpha - 1) / 2, (self.beta - 1) / 2, (self.gamma - 1) / 2)


def exponents(l1, l2, l3) -> ExponentQuadruple:
    """Exponent quadruple of a parameter triple (accepts SeriesParam or complex).

    Raises NonFiniteError when a parameter is NaN or infinite.
    """
    a, b, c = _as_complex(l1), _as_complex(l2), _as_complex(l3)
    if not all(cmath.isfinite(z) for z in (a, b, c)):
        raise NonFiniteError(f"spectral parameters ({a}, {b}, {c}) must be finite")
    return ExponentQuadruple(
        alpha=a - b - c,
        beta=-a + b - c,
        gamma=-a - b + c,
        delta=-a - b - c,
    )
