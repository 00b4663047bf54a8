"""Truncated even Fourier series on the circle and the bi-circle.

Vectors of the explicit representation models are even functions on S^1, i.e.
invariant under theta -> theta + pi; their Fourier support is the even
frequencies.  We store the coefficient c_p of e^{2 i p theta} at array index
p + max_mode.  The L^2 norm refers to the normalized measure d(theta) / (2 pi)
on each circle, so the stored modes are orthonormal (Parseval: ||f||^2 =
sum |c_p|^2).

``BiCircleFunction`` is the same on S^1 x S^1 (coefficient matrix over even
mode pairs) and carries the pointwise evaluator it was built from;
``coeffs`` may be deferred (None) for very fine bump vectors.

``cis_half_angle`` is the one tangent half-angle form of scale e^{i phi}.
``CircleFunction.evaluate``, the triple quadrature's node factors and the
Gaussian Monte Carlo integrands take their phases from it, one SIMD tangent
each, in place of a complex exp.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import PreconditionError

__all__ = ["CircleFunction", "BiCircleFunction"]


def cis_half_angle(t, scale, out=None):
    """scale e^{i phi} from t = tan(phi / 2), as (q - scale) + i q t with
    q = 2 scale / (1 + t^2), since e^{i phi} = (1 - t^2 + 2it) / (1 + t^2),
    written to ``out`` (a complex array of t's shape) if given.  NaN where
    t is; a relative error delta in t moves phi by at most delta."""
    q = t * t
    q += 1.0
    np.divide(scale, q, out=q)
    q += q
    if out is None:
        out = np.empty(q.shape, dtype=complex)
    np.subtract(q, scale, out=out.real)
    np.multiply(q, t, out=out.imag)
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
    def constant(cls, value=1.0, max_mode: int = 0) -> "CircleFunction":
        c = np.zeros(2 * max_mode + 1, dtype=complex)
        c[max_mode] = value
        return cls(c, max_mode)

    @classmethod
    def from_modes(cls, modes: dict, max_mode: int) -> "CircleFunction":
        """modes maps even frequency 2p -> coefficient."""
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
    coeffs: Optional[np.ndarray]    # shape (2N+1, 2N+1), index (p + N, q + N)
    max_mode: int
    evaluator: Callable             # pointwise values (x, y) -> f(x, y)
    # the analytic values the constructor (bump_vector) knows exactly
    mass: float                     # integral over [0,2pi)^2, plain measure
    support_radius: float
    center: Tuple[float, float]
    norm_sq_plain: float            # squared norm, plain measure

    def __post_init__(self):
        if self.coeffs is not None:
            self.coeffs = np.asarray(self.coeffs, dtype=complex)
            n = 2 * self.max_mode + 1
            if self.coeffs.shape != (n, n):
                raise PreconditionError("coefficient matrix must be (2N+1) x (2N+1)")

    def evaluate(self, x, y):
        """Pointwise values from the analytic evaluator."""
        return self.evaluator(x, y)
