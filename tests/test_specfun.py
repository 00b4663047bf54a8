"""Log-Gamma, Stirling envelope, and Gamma-product tests.

mpmath (50 digits) serves as the independent reference for generic points;
the classical reflection identity |Gamma(1/2+it)|^2 = pi / cosh(pi t) is the
second, formula-level oracle.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triform import (DomainTooSmallError, PoleArgumentError, gamma_product_log,
                     gamma_value, log_gamma, log_gamma_complex,
                     reciprocal_gamma, stirling_modulus)
from triform.specfun import log_gamma_array

mpmath.mp.dps = 50

EPS = np.finfo(float).eps
SQRT_PI = 1.7724538509055160273
ABS_GAMMA_HALF_PLUS_I = 0.52059096361675194553   # sqrt(pi / cosh(pi))


def mp_loggamma(z):
    return complex(mpmath.loggamma(complex(z)))


def test_gamma_at_one():
    res = log_gamma(1.0)
    assert abs(res.log_modulus) < 1e-13
    assert abs(gamma_value(1.0) - 1.0) < 1e-13


def test_gamma_at_half():
    assert abs(gamma_value(0.5) - SQRT_PI) < 1e-13


def test_gamma_half_plus_i_reflection_oracle():
    # |Gamma(1/2 + i)|^2 = pi / cosh(pi), independent of any Gamma algorithm
    val = abs(gamma_value(0.5 + 1j))
    assert abs(val - ABS_GAMMA_HALF_PLUS_I) < 1e-13


def test_strip_accuracy_against_mpmath(rng):
    # contract: recovered Gamma within 1e-12 relative for |z| <= 50,
    # Re z in [-10, 50]
    n = 0
    while n < 300:
        re = rng.uniform(-10.0, 50.0)
        im = rng.uniform(-50.0, 50.0)
        z = complex(re, im)
        if abs(z) > 50.0:
            continue
        if re <= 0.5 and abs(im) < 0.3 and abs(re - round(re)) < 0.3:
            continue   # stay away from the pole line
        n += 1
        mine = cmath.exp(log_gamma_complex(z))
        ref = complex(mpmath.gamma(complex(z)))
        assert abs(mine - ref) <= 1e-12 * abs(ref), f"z={z}"


def test_vectorized_matches_scalar(rng):
    # both paths share one Stirling series; they differ only in rounding:
    # numpy's array kernels for complex products and quotients round
    # differently from scalar complex arithmetic, and the array recurrence
    # adds 1 repeatedly where the scalar one adds k (16 eps seen at most)
    z = np.concatenate([
        rng.uniform(-9.5, 49.0, 64) + 1j * rng.uniform(-40.0, 40.0, 64),
        rng.uniform(9.0, 11.0, 64) + 1j * rng.uniform(-3.0, 3.0, 64),   # Re z = 10
        np.arange(-9, 20) + 0.25 + 0.5j])
    arr = log_gamma_array(z)
    for zi, vi in zip(z, arr):
        assert abs(vi - log_gamma_complex(zi)) <= 64 * EPS * max(1.0, abs(vi)), zi


@pytest.mark.parametrize("pole", [0.0, -1.0, -7.0, -3.0 + 1e-15j, -9.0 - 1e-15j])
def test_pole_detection_both_paths(pole):
    with pytest.raises(PoleArgumentError):
        log_gamma_complex(pole)
    with pytest.raises(PoleArgumentError):
        log_gamma_array(np.array([12.5 + 1j, pole, 0.5]))
    # off the pole by more than the tolerance both paths evaluate
    near = complex(pole) + 1e-6
    assert cmath.isfinite(log_gamma_complex(near))
    assert np.isfinite(log_gamma_array(np.array([near]))[0])


def test_pole_detection():
    for z in (0.0, -1.0, -7.0, -3.0 + 1e-15j):
        with pytest.raises(PoleArgumentError):
            log_gamma(z)
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-4.0) == 0.0
    assert abs(reciprocal_gamma(2.0) - 1.0) < 1e-13
    # exactly 0 within the pole tolerance, and bit for bit the exponential
    # of log_gamma_complex off the poles
    for z in (1e-300, -4.0 + 1e-15, -6.0 + 1e-15j):
        assert reciprocal_gamma(z) == 0.0
    for z in (0.5 + 3j, -2.5 + 0.1j, -7.3, 12.0 + 40j, -4.0 + 1e-13j):
        assert reciprocal_gamma(z) == cmath.exp(-log_gamma_complex(z))


def test_reflection_identity_battery():
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        sq = abs(gamma_value(0.5 + 1j * t)) ** 2
        assert abs(sq * math.cosh(math.pi * t) - math.pi) <= 1e-10 * math.pi


@settings(max_examples=100, deadline=None)
@given(re=st.floats(-9.0, 48.0), im=st.floats(-30.0, 30.0))
def test_recurrence_property(re, im):
    z = complex(re, im)
    if abs(im) < 0.2 and (abs(z) < 0.2 or (re < 0.5 and abs(re - round(re)) < 0.2)):
        return   # pole neighborhood
    lhs = log_gamma_complex(z + 1) - log_gamma_complex(z)
    # compare exp to avoid branch bookkeeping in the difference of phases
    assert abs(cmath.exp(lhs) - z) <= 1e-11 * max(1.0, abs(z))


def test_phase_continuity_along_vertical_line():
    ts = np.linspace(-10.0, 10.0, 2001)
    phases = np.array([log_gamma_complex(2.0 + 1j * t).imag for t in ts])
    assert np.max(np.abs(np.diff(phases))) < 0.1


def test_stirling_examples():
    # sigma = 1/2 values via the exact reflection formula
    for t, tol in ((100.0, 1e-2), (10.0, 5e-2)):
        exact = math.sqrt(math.pi / (0.5 * math.exp(math.pi * t)
                                     * (1 + math.exp(-2 * math.pi * t))))
        ratio = exact / stirling_modulus(0.5, t)
        assert abs(ratio - 1.0) <= tol
    # sigma = 2 via our log_gamma as the oracle
    exact = abs(gamma_value(2.0 + 50j))
    assert abs(exact / stirling_modulus(2.0, 50.0) - 1.0) <= 2e-2


def test_stirling_monotone_convergence():
    for sigma in (2.0, 5.0):
        errs = []
        for t in (10.0, 20.0, 40.0, 80.0, 160.0):
            exact = abs(cmath.exp(log_gamma_complex(sigma + 1j * t)))
            errs.append(abs(exact / stirling_modulus(sigma, t) - 1.0))
        assert all(b < a for a, b in zip(errs, errs[1:])), errs


def test_stirling_domain():
    with pytest.raises(DomainTooSmallError):
        stirling_modulus(0.5, 0.5)


def test_gamma_product_trivial():
    res = gamma_product_log([1.0], [1.0])
    assert abs(res.log_modulus) < 1e-14 and abs(res.phase) < 1e-14


def test_gamma_product_ratio():
    res = gamma_product_log([5.0], [4.0])
    assert abs(res.log_modulus - math.log(4.0)) < 1e-12


def test_gamma_product_quartic():
    # Gamma(1/4)^4 / pi^3 = Gamma(1/4)^4 / Gamma(1/2)^6
    res = gamma_product_log([0.25] * 4, [0.5] * 6)
    assert abs(res.log_modulus - 1.7179004412441093) < 1e-12


def test_gamma_product_pole_identifies_factor():
    with pytest.raises(PoleArgumentError) as exc:
        gamma_product_log([1.0, -2.0], [0.5])
    assert "numerator[1]" in str(exc.value.factor)
