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
                     gamma_value, log_gamma_complex, stirling_modulus)
from triform.specfun import log_gamma_array

mpmath.mp.dps = 50

EPS = np.finfo(float).eps
SQRT_PI = 1.7724538509055160273
ABS_GAMMA_HALF_PLUS_I = 0.52059096361675194553   # sqrt(pi / cosh(pi))


def mp_loggamma(z):
    return complex(mpmath.loggamma(complex(z)))


def test_gamma_at_one():
    assert abs(log_gamma_complex(1.0).real) < 1e-13
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


def mp_loggamma_array(z):
    return np.array([mp_loggamma(v) for v in np.ravel(z)]).reshape(np.shape(z))


@pytest.mark.parametrize("re", [10.0, -9.0])
def test_branch_edges_against_mpmath(re):
    # Re z = 10 is where the Stirling series starts, and Re z = -9 where the
    # recurrence stops and reflection takes over; a 2-D grid just left and
    # right of each edge keeps its shape
    z = (re + np.array([-0.25, -1e-9, 1e-9, 0.25]))[:, None] + 1j * np.array(
        [0.0, 1e-3, -3.0, 40.0])
    arr = log_gamma_array(z)
    assert arr.shape == z.shape
    ref = mp_loggamma_array(z)
    assert np.all(np.abs(arr - ref) <= 64 * EPS * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("z", [2.5 + 1j, -3.5 + 0.25j, 14.0, -20.5 - 2j])
def test_zero_dim_input_against_mpmath(z):
    ref = mp_loggamma(z)
    for arg in (z, np.array(z)):
        val = log_gamma_array(arg)
        assert val.shape == ()
        assert abs(val - ref) <= 64 * EPS * max(1.0, abs(ref))
    assert log_gamma_complex(z) == complex(log_gamma_array(z))


@pytest.mark.parametrize("re", [-3.5, -20.5, -1e4 - 0.5])
def test_negative_zero_imaginary_part_takes_the_upper_side(re):
    # on the negative real axis the phase is the limit from above, as
    # mpmath's, whichever sign the zero imaginary part carries
    ref = mp_loggamma(complex(re, 0.0))
    assert abs(ref - mp_loggamma(complex(re, 1e-30))) <= 1e-20 * abs(ref)
    for z in (complex(re, 0.0), complex(re, -0.0)):
        assert abs(log_gamma_array(z) - ref) <= 64 * EPS * max(1.0, abs(ref))
        assert log_gamma_complex(z) == log_gamma_complex(complex(re, 0.0))


@pytest.mark.parametrize("re", [-1e4, -1e6])
def test_far_left_against_mpmath(re):
    # left of Re z = -9 the evaluator reflects instead of stepping the
    # recurrence once per unit; the value keeps the recurrence's accumulated
    # phase, which is mpmath's branch (continuous from the positive axis in each
    # half plane, and the upper side on the negative axis)
    z = np.array([re + 0.5j, re - 0.5j, re - 0.25 + 3j, re - 0.25 - 3j,
                  re + 0.3 + 1e-3j, re + 0.3 - 1e-3j, re - 7.5 + 40j,
                  complex(re - 0.5, 0.0), complex(re - 0.5, -0.0)])
    arr = log_gamma_array(z)
    for zi, vi in zip(z, arr):
        ref = mp_loggamma(zi)
        assert abs(log_gamma_complex(zi) - ref) <= 4 * EPS * abs(ref), zi
        assert abs(vi - ref) <= 4 * EPS * abs(ref), zi


@pytest.mark.parametrize("pole", [0.0, -1.0, -7.0, -3.0 + 1e-15j, -9.0 - 1e-15j])
def test_pole_detection_both_paths(pole):
    with pytest.raises(PoleArgumentError):
        log_gamma_complex(pole)
    with pytest.raises(PoleArgumentError) as exc:
        log_gamma_array(np.array([[12.5 + 1j, 3.0], [pole, 0.5]]))
    assert exc.value.index == 2
    # off the pole by more than the tolerance both paths evaluate
    near = complex(pole) + 1e-6
    assert cmath.isfinite(log_gamma_complex(near))
    assert np.isfinite(log_gamma_array(np.array([near]))[0])


def test_pole_detection():
    # within the 1e-14 tolerance of a pole every element raises; just outside
    # it the value is mpmath's
    for z in (0.0, -1.0, -7.0, -3.0 + 1e-15j, 1e-300, -4.0 + 1e-15, -6.0 + 1e-15j):
        with pytest.raises(PoleArgumentError):
            log_gamma_complex(z)
    for z in (-4.0 + 1e-13j, -6.0 - 1e-13, 1e-13):
        ref = mp_loggamma(z)
        assert abs(log_gamma_complex(z) - ref) <= 64 * EPS * max(1.0, abs(ref)), z


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
    phases = log_gamma_array(2.0 + 1j * ts).imag
    assert np.max(np.abs(np.diff(phases))) < 0.1


def test_stirling_examples():
    # sigma = 1/2 values via the exact reflection formula
    for t, tol in ((100.0, 1e-2), (10.0, 5e-2)):
        exact = math.sqrt(math.pi / (0.5 * math.exp(math.pi * t)
                                     * (1 + math.exp(-2 * math.pi * t))))
        ratio = exact / stirling_modulus(0.5, t)
        assert abs(ratio - 1.0) <= tol
    # sigma = 2 via our log_gamma_complex as the oracle
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
    assert abs(res.real) < 1e-14 and abs(res.imag) < 1e-14


def test_gamma_product_ratio():
    res = gamma_product_log([5.0], [4.0])
    assert abs(res.real - math.log(4.0)) < 1e-12


def test_gamma_product_quartic():
    # Gamma(1/4)^4 / pi^3 = Gamma(1/4)^4 / Gamma(1/2)^6
    res = gamma_product_log([0.25] * 4, [0.5] * 6)
    assert abs(res.real - 1.7179004412441093) < 1e-12


def test_gamma_product_pole_identifies_factor():
    with pytest.raises(PoleArgumentError) as exc:
        gamma_product_log([1.0, -2.0], [0.5])
    assert "numerator[1]" in str(exc.value.factor)
    with pytest.raises(PoleArgumentError) as exc:
        gamma_product_log([1.0, 2.5], [0.5, 0.0])
    assert exc.value.factor == "denominator[1]" and exc.value.index == 3
