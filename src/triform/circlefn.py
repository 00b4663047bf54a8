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
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["CircleFunction", "BiCircleFunction"]


@dataclass
class CircleFunction:
    coeffs: np.ndarray          # shape (2 max_mode + 1,), index p + max_mode
    max_mode: int
    # energy dropped by the truncation that produced this function, if any
    tail_energy: Optional[float] = None

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (2 * self.max_mode + 1,):
            raise ValueError("coefficient length must be 2*max_mode + 1")

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
                raise ValueError(f"only even frequencies allowed, got {freq}")
            p = freq // 2
            if abs(p) > max_mode:
                raise ValueError(f"frequency {freq} exceeds truncation")
            c[p + max_mode] = val
        return cls(c, max_mode)

    def coefficient(self, p: int) -> complex:
        if abs(p) > self.max_mode:
            return 0.0 + 0.0j
        return self.coeffs[p + self.max_mode]

    def evaluate(self, theta):
        """Evaluate the truncated series (vectorized over theta)."""
        theta = np.asarray(theta, dtype=float)
        t = theta.ravel()
        N = self.max_mode
        # exp(2ipt) only for p >= 1; column 0 is 1 (NaN where t is NaN) and
        # column -p the conjugate of column p.  That is the full table bit
        # for bit once the -0 imaginary parts that conj() makes at t = 0 are
        # turned back into the +0 that exp gives.
        phases = np.empty((len(t), 2 * N + 1), dtype=complex)
        phases[:, N] = 1.0 + 0.0 * t
        if N:
            pos = np.exp(2j * np.outer(t, np.arange(1, N + 1)))
            phases[:, N + 1:] = pos
            phases[:, N - 1::-1] = pos.conj()
            phases.imag[:, :N] += 0.0
        vals = phases @ self.coeffs
        return vals.reshape(theta.shape) if theta.ndim else complex(vals[0])

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass
class BiCircleFunction:
    coeffs: Optional[np.ndarray]    # shape (2N+1, 2N+1), index (p + N, q + N)
    max_mode: int
    evaluator: Callable             # pointwise values (x, y) -> f(x, y)
    # populated by constructors that know the analytic values exactly
    mass: Optional[float] = None    # integral over [0,2pi)^2, plain measure
    support_radius: Optional[float] = None
    center: Optional[Tuple[float, float]] = None
    norm_sq_plain: Optional[float] = None   # squared norm, plain measure

    def __post_init__(self):
        if self.coeffs is not None:
            self.coeffs = np.asarray(self.coeffs, dtype=complex)
            n = 2 * self.max_mode + 1
            if self.coeffs.shape != (n, n):
                raise ValueError("coefficient matrix must be (2N+1) x (2N+1)")

    def coefficient(self, p: int, q: int) -> complex:
        if max(abs(p), abs(q)) > self.max_mode:
            return 0.0 + 0.0j
        return self.coeffs[p + self.max_mode, q + self.max_mode]

    def evaluate(self, x, y):
        """Pointwise values from the analytic evaluator."""
        return self.evaluator(x, y)

    def series_mass(self) -> float:
        """Integral over [0,2pi)^2 with plain measure = (2pi)^2 c_{00}."""
        return float((2.0 * np.pi) ** 2 * self.coefficient(0, 0).real)

    def l2_norm(self) -> float:
        """Norm in L^2 of the normalized product measure (d/2pi)^2."""
        return float(np.linalg.norm(self.coeffs))
