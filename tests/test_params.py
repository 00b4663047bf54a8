"""Spectral-parameter classification and the exponent quadruple."""

import pytest

from triform import (ExponentQuadruple, NonFiniteError, PreconditionError,
                     SeriesParam, exponents)


def test_classification_follows_value():
    assert SeriesParam(2.4j).series_class == "principal"
    assert SeriesParam(0.0).series_class == "principal"
    assert SeriesParam(0.5).series_class == "complementary"
    assert SeriesParam(-0.99).series_class == "complementary"
    assert SeriesParam(1.5).series_class == "general"
    assert SeriesParam(0.3 + 1j).series_class == "general"


def test_constructors():
    assert SeriesParam.principal(3.0).lam == 3j
    assert SeriesParam.complementary(0.25).lam == 0.25
    with pytest.raises(ValueError):
        SeriesParam.complementary(1.0)


def test_exponents_accept_series_params():
    e = exponents(SeriesParam(1j), SeriesParam(2j), 3j)
    assert e.alpha == 1j - 2j - 3j
    assert e.is_imaginary


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
