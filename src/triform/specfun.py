"""Cancellation-safe complex log-Gamma and Stirling envelopes.

Everything downstream (closed forms, Fourier coefficients of |sin|^s, Gaussian
moment identities) is assembled in log space from the primitives here:

* ``log_gamma_array`` -- the one log-Gamma evaluator, over arrays of any
  shape: the asymptotic Stirling series with Bernoulli-number coefficients,
  pushed into its validity region Re z >= 10 by the recurrence
  Gamma(z+1) = z Gamma(z) from Re z >= -9, and by the reflection formula
  Gamma(z) Gamma(1-z) = pi / sin(pi z) from further left, so every argument
  costs a bounded amount of work.  No external special-function library is
  used, so results are reproducible bit-for-bit.  ``log_gamma_complex`` is
  its scalar form.
* ``stirling_modulus`` -- the classical modulus envelope
  sqrt(2 pi) exp(-pi |t| / 2) |t|^(sigma - 1/2) of Gamma(sigma + i t).

The phase (imaginary part) of log Gamma is accumulated along the evaluation
path (series value plus recurrence logs) and is never reduced mod 2 pi, so it
is continuous in t along vertical lines away from the poles; the reflected
branch returns the same accumulated phase.
"""

import cmath
import math
import numpy as np

from .errors import DomainTooSmallError, PoleArgumentError

__all__ = [
    "log_gamma_array",
    "log_gamma_complex",
    "gamma_value",
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
    # valid for Re z >= _SHIFT_RE, remainder < 1e-20 relative
    out = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI
    zinv = 1.0 / z
    zpow = zinv
    zinv2 = zinv * zinv
    for c in _STIRLING_COEFFS:
        out = out + c * zpow
        zpow = zpow * zinv2
    return out


def log_gamma_array(z) -> np.ndarray:
    """log Gamma elementwise over an array of any shape (or a scalar); an
    element within 1e-14 of a pole raises PoleArgumentError with its
    ``index`` in the flattened array.

    One Stirling series call takes every element: z itself for Re z >= 10;
    z + m for -9 <= Re z < 10, with m = ceil(10 - Re z) <= 19, less
    sum_{k<m} log(z + k); and 1 - w further left, by reflection

        log Gamma(w) = log 2pi + i pi (w - 1/2) - log(1 - e^{2 pi i w})
                       - log Gamma(1 - w),

    with w = z, or below the real axis w = conj z and the value conjugated.
    There |e^{2 pi i w}| <= 1, so the principal log of 1 - e^{2 pi i w} is
    analytic on the closed upper half plane off the poles, and the value is
    the phase the recurrence would accumulate.  1 - e^{2 pi i w} is formed
    from Re w minus its nearest integer and expm1, so it keeps its relative
    accuracy next to a pole.
    """
    z = np.array(z, dtype=complex)
    # an imaginary -0.0 becomes +0.0, so a negative real argument takes the
    # upper side in every log
    z += 0.0
    flat = z.reshape(-1)
    bad = np.flatnonzero(_is_pole(flat))
    if bad.size:
        raise PoleArgumentError(flat[bad[0]], int(bad[0]))
    arg = flat.copy()
    offset = np.zeros_like(flat)
    # each branch is skipped when no element takes it: on a short array the
    # numpy calls on empty selections would cost more than the series
    near = np.flatnonzero((flat.real < _SHIFT_RE) & (flat.real >= 1.0 - _SHIFT_RE))
    if near.size:
        zn = flat[near]
        m = np.ceil(_SHIFT_RE - zn.real)
        k = np.arange(m.max())[:, None]
        # cumsum adds the logs in the order k = 0, 1, ...
        offset[near] = -np.cumsum(np.log(np.where(k < m, zn + k, 1.0)), axis=0)[-1]
        arg[near] = zn + m
    far = np.flatnonzero(flat.real < 1.0 - _SHIFT_RE)
    down = far[flat[far].imag < 0]
    if far.size:
        w = flat[far]
        w.imag = np.abs(w.imag)
        theta = 2.0 * np.pi * (w.real - np.rint(w.real))
        phi = 2.0 * np.pi * w.imag
        one_minus_q = ((2.0 * np.sin(0.5 * theta) ** 2 - np.expm1(-phi) * np.cos(theta))
                       - 1j * np.exp(-phi) * np.sin(theta))
        offset[far] = 2.0 * _HALF_LOG_2PI + 1j * np.pi * (w - 0.5) - np.log(one_minus_q)
        arg[far] = 1.0 - w
    out = _stirling_series(arg)
    out[far] = -out[far]
    out += offset
    out[down] = np.conj(out[down])
    return out.reshape(z.shape)


def log_gamma_complex(z) -> complex:
    """log Gamma(z) as one complex number (Im = accumulated phase); raises
    PoleArgumentError within 1e-14 of a pole."""
    return complex(log_gamma_array(z))


def gamma_value(z) -> complex:
    return cmath.exp(log_gamma_complex(z))


def stirling_modulus(sigma: float, t: float) -> float:
    """Asymptotic modulus sqrt(2 pi) exp(-pi|t|/2) |t|^(sigma - 1/2).

    The ratio |Gamma(sigma + i t)| / stirling_modulus(sigma, t) tends to 1 as
    |t| grows; below |t| = 1 the asymptotic regime is not meaningful.
    """
    if abs(t) < 1.0:
        raise DomainTooSmallError(f"stirling_modulus needs |t| >= 1, got t = {t}")
    logv = _HALF_LOG_2PI - 0.5 * math.pi * abs(t) + (sigma - 0.5) * math.log(abs(t))
    return math.exp(logv)


def gamma_product_log(numerator, denominator):
    """log of prod Gamma(numerator_i) / prod Gamma(denominator_j), as one
    complex number (log modulus + i accumulated phase), or elementwise as an
    array when the factors are arrays of one common shape; one
    log_gamma_array call takes every factor.

    A pole raises PoleArgumentError whose ``factor`` names it by side and
    position, and whose ``index`` counts the numerator, then the denominator.
    """
    n = len(numerator)
    factors = np.array([*numerator, *denominator], dtype=complex)
    try:
        lg = log_gamma_array(factors)
    except PoleArgumentError as exc:
        i = exc.index // max(factors[0].size, 1)
        side = f"numerator[{i}]" if i < n else f"denominator[{i - n}]"
        raise PoleArgumentError(exc.z, i, factor=side) from None
    # a running sum in factor order, so the rounding does not depend on how
    # numpy blocks a reduction of this length
    out = np.cumsum(np.concatenate([np.zeros_like(lg[:1]), lg[:n], -lg[n:]]),
                    axis=0)[-1]
    return complex(out) if out.ndim == 0 else out
