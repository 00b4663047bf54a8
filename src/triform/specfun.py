"""Cancellation-safe complex log-Gamma and Stirling envelopes.

Everything downstream (closed forms, Fourier coefficients of |sin|^s, Gaussian
moment identities) is assembled in log space from the two primitives here:

* ``log_gamma_complex`` -- log Gamma via the asymptotic Stirling series with
  Bernoulli-number coefficients, pushed into its validity region Re z >= 10
  by the recurrence Gamma(z+1) = z Gamma(z) from Re z >= -9, and by the
  reflection formula Gamma(z) Gamma(1-z) = pi / sin(pi z) from further
  left, so every argument costs a bounded amount of work.  No external
  special-function library is used, so results are reproducible bit-for-bit.
* ``stirling_modulus`` -- the classical modulus envelope
  sqrt(2 pi) exp(-pi |t| / 2) |t|^(sigma - 1/2) of Gamma(sigma + i t).

The phase (imaginary part) returned by ``log_gamma_complex`` is accumulated
along the evaluation path (series value plus recurrence logs) and is never
reduced mod 2 pi, so it is continuous in t along vertical lines away from
the poles; the reflected branch returns the same accumulated phase.
"""

import cmath
import math
import numpy as np

from .errors import DomainTooSmallError, PoleArgumentError

__all__ = [
    "log_gamma_complex",
    "gamma_value",
    "reciprocal_gamma",
    "stirling_modulus",
    "gamma_product_log",
]

# B_{2k} / (2k (2k-1)), k = 1..12 (Bernoulli numbers; classical Stirling series)
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
    854513.0 / 63756.0,
    -236364091.0 / 1506960.0,
)

_SHIFT_RE = 10.0       # Stirling series is applied only for Re z >= this
_POLE_TOL = 1e-14
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _is_pole(z):
    """Whether z lies within _POLE_TOL of a pole; elementwise for arrays."""
    n = np.rint(z.real)     # a ufunc: np.round costs ~5 us on a scalar
    return (n <= 0) & (np.abs(z.real - n) < _POLE_TOL) & (np.abs(z.imag) < _POLE_TOL)


def _stirling_series(z):
    # scalar or array; valid for Re z >= _SHIFT_RE, remainder < 1e-20 relative
    out = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI
    zinv = 1.0 / z
    zpow = zinv
    zinv2 = zinv * zinv
    for c in _STIRLING_COEFFS:
        out = out + c * zpow
        zpow = zpow * zinv2
    return out


def _reflected(z):
    """log Gamma(z) for Re z < 1 - _SHIFT_RE, scalar or array, by reflection:

        log Gamma(z) = log 2pi + i pi (z - 1/2) - log(1 - e^{2 pi i z})
                       - log Gamma(1 - z)

    for Im z >= 0 (-0.0 included, as the recurrence reads it), and the
    conjugate of the value at conj z below.  Here |e^{2 pi i z}| <= 1, so the
    principal log of 1 - e^{2 pi i z} (real part >= 0) is analytic on the
    closed upper half plane off the poles, and the value is the accumulated
    phase that the recurrence would reach after ceil(_SHIFT_RE - Re z) steps.
    1 - e^{2 pi i z} is formed from Re z minus its nearest integer and
    expm1, so it keeps its relative accuracy next to a pole.
    """
    up = z.imag >= 0
    w = np.where(up, z, np.conj(z))
    theta = 2.0 * np.pi * (w.real - np.rint(w.real))
    phi = 2.0 * np.pi * w.imag
    one_minus_q = ((2.0 * np.sin(0.5 * theta) ** 2 - np.expm1(-phi) * np.cos(theta))
                   - 1j * np.exp(-phi) * np.sin(theta))
    v = (2.0 * _HALF_LOG_2PI + 1j * np.pi * (w - 0.5) - np.log(one_minus_q)
         - _stirling_series(1.0 - w))
    return np.where(up, v, np.conj(v))


def log_gamma_complex(z) -> complex:
    """log Gamma(z) as one complex number (Im = accumulated phase); raises
    PoleArgumentError within 1e-14 of a pole."""
    z = complex(z)
    if _is_pole(z):
        raise PoleArgumentError(z)
    if z.real >= _SHIFT_RE:
        return complex(_stirling_series(z))
    if z.real < 1.0 - _SHIFT_RE:
        return complex(_reflected(z))
    m = int(math.ceil(_SHIFT_RE - z.real))
    shift = 0.0 + 0.0j
    for k in range(m):
        shift += cmath.log(z + k)
    return complex(_stirling_series(z + m) - shift)


def gamma_value(z) -> complex:
    return cmath.exp(log_gamma_complex(z))


def reciprocal_gamma(z) -> complex:
    """1 / Gamma(z); exactly 0 at the poles (no exception)."""
    try:
        return cmath.exp(-log_gamma_complex(z))
    except PoleArgumentError:
        return 0.0 + 0.0j


def log_gamma_array(z: np.ndarray) -> np.ndarray:
    """Vectorized log Gamma for arrays with no element at a pole.

    Same algorithm as ``log_gamma_complex``: elements with Re z < -9 are
    reflected, the others left of the Stirling strip are shifted up by the
    recurrence with a masked loop of at most 19 passes.
    """
    z = np.array(z, dtype=complex)
    # an imaginary -0.0 becomes +0.0, so a negative real argument takes the
    # upper side in every log, as the scalar path does
    z += 0.0
    bad = _is_pole(z)
    if np.any(bad):
        raise PoleArgumentError(z[bad].flat[0])
    far = z.real < 1.0 - _SHIFT_RE
    if np.any(far):
        out = np.empty_like(z)
        out[far] = _reflected(z[far])
        out[~far] = log_gamma_array(z[~far])
        return out
    shift = np.zeros_like(z)
    mask = z.real < _SHIFT_RE
    while np.any(mask):
        shift[mask] += np.log(z[mask])
        z[mask] += 1.0
        mask = z.real < _SHIFT_RE
    return _stirling_series(z) - shift


def stirling_modulus(sigma: float, t: float) -> float:
    """Asymptotic modulus sqrt(2 pi) exp(-pi|t|/2) |t|^(sigma - 1/2).

    The ratio |Gamma(sigma + i t)| / stirling_modulus(sigma, t) tends to 1 as
    |t| grows; below |t| = 1 the asymptotic regime is not meaningful.
    """
    if abs(t) < 1.0:
        raise DomainTooSmallError(f"stirling_modulus needs |t| >= 1, got t = {t}")
    logv = _HALF_LOG_2PI - 0.5 * math.pi * abs(t) + (sigma - 0.5) * math.log(abs(t))
    return math.exp(logv)


def gamma_product_log(numerator, denominator) -> complex:
    """log of prod Gamma(numerator_i) / prod Gamma(denominator_j), as one
    complex number (log modulus + i accumulated phase).

    Pole errors are re-raised with the offending factor identified.
    """
    total = 0.0 + 0.0j
    for i, z in enumerate(numerator):
        try:
            total += log_gamma_complex(z)
        except PoleArgumentError:
            raise PoleArgumentError(complex(z), factor=f"numerator[{i}]") from None
    for i, z in enumerate(denominator):
        try:
            total -= log_gamma_complex(z)
        except PoleArgumentError:
            raise PoleArgumentError(complex(z), factor=f"denominator[{i}]") from None
    return total
