"""Truncated even Fourier series on the circle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from triform import CircleFunction

finite = st.floats(-1e6, 1e6, allow_nan=False)
angles = arrays(np.float64, st.integers(1, 40),
                elements=st.one_of(finite, st.sampled_from([0.0, -0.0, 5e-324, np.pi])))


@settings(max_examples=60, deadline=None)
@given(N=st.integers(0, 8), theta=angles, data=st.data())
def test_evaluate_equals_the_full_exponential_table(N, theta, data):
    # evaluate computes exp(2ipt) for p >= 1 only and mirrors it; the values
    # must equal the full (2N+1)-column table bit for bit
    re = data.draw(arrays(np.float64, 2 * N + 1, elements=finite))
    im = data.draw(arrays(np.float64, 2 * N + 1, elements=finite))
    f = CircleFunction(re + 1j * im, N)
    p = np.arange(-N, N + 1)
    ref = np.exp(2j * np.outer(theta, p)) @ f.coeffs
    assert f.evaluate(theta).tobytes() == ref.tobytes()
    assert f.evaluate(theta.reshape(-1, 1)).tobytes() == ref.tobytes()
    # a one-row product may round differently from a many-row one
    one = np.exp(2j * np.outer(theta[:1], p)) @ f.coeffs
    assert np.array(f.evaluate(theta[0])).tobytes() == one.tobytes()


def test_evaluate_keeps_nan_angles():
    for N in (0, 2):
        vals = CircleFunction.constant(1.0, N).evaluate(np.array([0.3, np.nan]))
        assert np.isfinite(vals[0]) and np.isnan(vals[1])
