"""Truncated even Fourier series on the circle and the bi-circle.

Vectors of the explicit representation models are even functions on S^1, i.e.
invariant under theta -> theta + pi; their Fourier support is the even
frequencies.  We store the coefficient c_p of e^{2 i p theta} at array index
p + max_mode.  The L^2 norm refers to the normalized measure d(theta) / (2 pi)
on each circle, so the stored modes are orthonormal (Parseval: ||f||^2 =
sum |c_p|^2).

``BiCircleFunction`` is a function on S^1 x S^1 given by its pointwise
evaluator, with the analytic mass, support and norm its constructor
(``bump_vector``) knows; it keeps no Fourier series.

``cis_half_angle`` is the one tangent half-angle form of scale e^{i phi}.
``CircleFunction.evaluate``, the triple quadrature's node factors and the
Gaussian Monte Carlo integrands take their phases from it, one SIMD tangent
each, in place of a complex exp.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import PreconditionError
from .params import as_count

__all__ = ["CircleFunction", "BiCircleFunction"]

# largest max_mode of CircleFunction.from_modes (2^21 + 1 coefficients, 32 MiB)
_MAX_MODE = 1 << 20


def cis_half_angle(t, scale, out=None, q=None):
    """scale e^{i phi} from t = tan(phi / 2), as (q - scale) + i q t with
    q = 2 scale / (1 + t^2), since e^{i phi} = (1 - t^2 + 2it) / (1 + t^2),
    written to ``out`` if given: a complex array of t's shape, or a pair
    (re, im) of real arrays, of which im may be t itself.  A pair's re holds
    q; a complex ``out`` takes q in ``q``, a contiguous real array of t's
    shape (made if not given), not in its own strided real part.  Whatever
    holds q must share no memory with t or scale.  NaN where t is; a
    relative error delta in t moves phi by at most delta."""
    if out is None:
        q = t * t
        out = np.empty(q.shape, dtype=complex)
        re, im = out.real, out.imag
    elif isinstance(out, np.ndarray):
        re, im = out.real, out.imag
        q = np.multiply(t, t, out=q)
    else:
        re, im = out
        q = np.multiply(t, t, out=re)
    q += 1.0
    np.divide(scale, q, out=q)
    q += q
    np.multiply(q, t, out=im)
    np.subtract(q, scale, out=re)
    return out


@dataclass
class CircleFunction:
    coeffs: np.ndarray          # shape (2 max_mode + 1,), index p + max_mode
    max_mode: int
    # energy dropped by the truncation that produced this function, if any
    tail_energy: Optional[float] = None

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (2 * self.max_mode + 1,):
            raise PreconditionError("coefficient length must be 2*max_mode + 1")

    @classmethod
    def constant(cls, value=1.0) -> "CircleFunction":
        return cls(np.array([value], dtype=complex), 0)

    @classmethod
    def from_modes(cls, modes: dict, max_mode: int) -> "CircleFunction":
        """modes maps even frequency 2p -> coefficient.  A max_mode that is
        not an integer in [0, 2^20] raises PreconditionError before any
        array is made."""
        max_mode = as_count(max_mode, "max_mode", top=_MAX_MODE)
        c = np.zeros(2 * max_mode + 1, dtype=complex)
        for freq, val in modes.items():
            if freq % 2 != 0:
                raise PreconditionError(f"only even frequencies allowed, got {freq}")
            p = freq // 2
            if abs(p) > max_mode:
                raise PreconditionError(f"frequency {freq} exceeds truncation")
            c[p + max_mode] = val
        return cls(c, max_mode)

    def coefficient(self, p: int) -> complex:
        if abs(p) > self.max_mode:
            return 0.0 + 0.0j
        return self.coeffs[p + self.max_mode]

    def evaluate(self, theta):
        """Evaluate the truncated series (vectorized over theta); NaN where
        theta is not finite.

        z = e^{2i theta} comes from one SIMD tangent, tan(theta), by
        cis_half_angle, and z^p (p = 1..N) from repeated multiplication, as
        in the triple quadrature.  Mode -p carries conj(z^p), so each pair
        p, -p adds (c_p + c_-p) Re z^p + i (c_p - c_-p) Im z^p: one real
        product of the (n, 2N) table [Re z^p, Im z^p] with the pair
        coefficients.  theta enters tan whole, so the error stays within
        2 (N + 1) eps sum |c_p| at any |theta|, where exp(2ip theta) would
        round 2p theta first.
        """
        theta = np.asarray(theta, dtype=float)
        t = theta.ravel()
        N = self.max_mode
        c = self.coeffs
        if N:
            z = np.empty((len(t), N), dtype=complex)
            cis_half_angle(np.tan(t), 1.0, out=z[:, 0])
            for k in range(1, N):
                np.multiply(z[:, k - 1], z[:, 0], out=z[:, k])
            pos, neg = c[N + 1:], c[N - 1::-1]
            coef = np.empty(2 * N, dtype=complex)
            coef[0::2] = pos + neg
            coef[1::2] = 1j * (pos - neg)
            pair = coef.view(float).reshape(2 * N, 2)     # [Re, Im] per row
            vals = (z.view(float) @ pair).view(complex)[:, 0]
            vals += c[N]
        else:
            vals = c[N] + 0.0 * t         # NaN where t is
        return vals.reshape(theta.shape) if theta.ndim else complex(vals[0])


@dataclass
class BiCircleFunction:
    evaluator: Callable             # pointwise values (x, y) -> f(x, y)
    # the analytic values the constructor (bump_vector) knows exactly
    mass: float                     # integral over [0,2pi)^2, plain measure
    support_radius: float
    center: Tuple[float, float]
    norm_sq_plain: float            # squared norm, plain measure

    def evaluate(self, x, y):
        """Pointwise values from the analytic evaluator."""
        return self.evaluator(x, y)
