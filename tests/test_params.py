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


def test_require_convergent_refuses_the_divergent_corner():
    # Re delta <= -1, i.e. Re(l1 + l2 + l3) >= 1: the kernel is not
    # integrable where the three points meet, although alpha, beta, gamma pass
    exponents(0.3, 0.3, 0.3 + 2j).require_convergent()      # Re delta = -0.9
    for triple in ((0.5, 0.5, 0.5), (1.0, 0.0, 2j), (0.4, 0.3, 0.3)):
        with pytest.raises(PreconditionError, match="delta have Re <= -1"):
            exponents(*triple).require_convergent()


@pytest.mark.parametrize("bad", ["a", None, [1.0]])
def test_exponents_refuse_what_is_not_a_number(bad):
    # "a" raised ValueError, None and a list TypeError
    with pytest.raises(PreconditionError, match="numbers"):
        exponents(bad, 0, 0)
