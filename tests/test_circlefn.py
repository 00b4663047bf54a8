"""Truncated even Fourier series on the circle."""

import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from triform import CircleFunction, PreconditionError
from triform.circlefn import cis_half_angle

finite = st.floats(-1e6, 1e6, allow_nan=False)
angles = arrays(np.float64, st.integers(1, 40),
                elements=st.one_of(finite, st.sampled_from([0.0, -0.0, 5e-324, np.pi])))


EPS = np.finfo(float).eps


def exact_series(f, theta):
    """sum_p c_p e^{2ip theta} at 30 digits, theta taken exactly."""
    N = f.max_mode
    with mpmath.workdps(30):
        z = mpmath.expj(2 * mpmath.mpf(float(theta)))
        return complex(sum(mpmath.mpc(complex(c)) * z ** p
                           for p, c in zip(range(-N, N + 1), f.coeffs)))


@settings(max_examples=60, deadline=None)
@given(N=st.integers(0, 8), theta=angles, data=st.data())
def test_evaluate_is_near_the_exponential_table_and_mpmath(N, theta, data):
    # evaluate takes z = e^{2i theta} from tan(theta) and z^p by repeated
    # multiplication: a few eps per power, so with S = sum |c_p|
    #   |evaluate - exact| <= 2 (N + 1) eps S            at every theta.
    # The libm table exp(2ip theta) @ c first rounds p theta, a phase error
    # up to |p theta| eps <= pi (N + 1) eps for |theta| <= pi; beyond that its
    # own rounding dominates, so large angles meet the exact sum only.
    re = data.draw(arrays(np.float64, 2 * N + 1, elements=finite))
    im = data.draw(arrays(np.float64, 2 * N + 1, elements=finite))
    f = CircleFunction(re + 1j * im, N)
    bound = 2 * (N + 1) * EPS * np.sum(np.abs(f.coeffs))
    got = f.evaluate(theta)
    assert got.dtype == complex and got.shape == theta.shape
    assert f.evaluate(theta.reshape(-1, 1)).tobytes() == got.tobytes()
    for t, g in zip(theta, got):
        assert abs(g - exact_series(f, t)) <= bound, (t, g)
    small = np.abs(theta) <= np.pi
    table = np.exp(2j * np.outer(theta[small], np.arange(-N, N + 1))) @ f.coeffs
    assert np.all(np.abs(got[small] - table) <= (2 + np.pi) / 2 * bound)
    # a scalar angle gives a complex number, within the same bound
    one = f.evaluate(theta[0])
    assert type(one) is complex and abs(one - exact_series(f, theta[0])) <= bound


def test_evaluate_keeps_nan_angles():
    for N in (0, 2):
        vals = CircleFunction.from_modes({0: 1.0}, N).evaluate(np.array([0.3, np.nan]))
        assert np.isfinite(vals[0]) and np.isnan(vals[1])


def test_cis_half_angle_output_forms_agree_bit_for_bit():
    # with an output given, q is formed in its real part: the same
    # operations in the same order as on a fresh array
    rng = np.random.default_rng(4)
    t = np.tan(rng.uniform(-1.5, 1.5, 257))
    t[::31] = np.nan
    scale = rng.uniform(0.1, 3.0, 257)
    fresh = cis_half_angle(t, scale)
    out = np.empty(257, dtype=complex)
    assert cis_half_angle(t, scale, out=out) is out
    re, im = np.empty(257), t.copy()
    cis_half_angle(im, scale, out=(re, im))          # im may be t itself
    table = np.empty((257, 3), dtype=complex)
    cis_half_angle(t, 1.0, out=table[:, 0])          # a strided column
    for a, b in ((out.real, fresh.real), (out.imag, fresh.imag), (re, fresh.real),
                 (im, fresh.imag), (table[:, 0], cis_half_angle(t, 1.0))):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("max_mode, match", [(10 ** 10, "max_mode <="), (-1, "max_mode <="),
                                             (2.5, "integer")])
def test_from_modes_refuses_a_truncation_before_allocating(max_mode, match):
    # 10**10 raised numpy's MemoryError, 2.5 a TypeError
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match=match):
        CircleFunction.from_modes({0: 1.0}, max_mode)
    assert time.perf_counter() - start < 0.1
