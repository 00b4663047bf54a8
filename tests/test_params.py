"""The exponent quadruple of a parameter triple."""

import pytest

from triform import (ExponentQuadruple, NonFiniteError, PreconditionError,
                     exponents)


def test_kernel_powers():
    e = ExponentQuadruple(1j, 3j, -2j, -2j)
    pa, pb, pg = e.kernel_powers()
    assert pa == (1j - 1) / 2 and pb == (3j - 1) / 2 and pg == (-2j - 1) / 2


@pytest.mark.parametrize("bad", [float("nan"), complex(0.0, float("inf")),
                                 complex(float("-inf"), 1.0)])
def test_exponents_reject_non_finite(bad):
    with pytest.raises(NonFiniteError):
        exponents(0.0, bad, 1j)


def test_require_convergent_names_the_divergent_exponents():
    exponents(0.0, 1j, 4j).require_convergent()
    exponents(-0.45, -0.45, -0.45).require_convergent()   # Re alpha = -0.45
    with pytest.raises(PreconditionError, match="beta, gamma have Re <= -1"):
        ExponentQuadruple(0.0, -1.0, -2.5 + 1j, 0.0).require_convergent()
