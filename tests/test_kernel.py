"""Kernel evaluation: exponent algebra, invariance, homogeneity, singularities."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triform import (SingularConfigurationError, exponents, kernel_on_circle,
                     kernel_value, omega, transformed_kernel_values)

finite = st.floats(-10.0, 10.0, allow_nan=False)


def sl2(rng):
    while True:
        g = np.eye(2) + 0.7 * rng.standard_normal((2, 2))
        d = np.linalg.det(g)
        if abs(d) > 0.05:
            return g / np.sqrt(abs(d))


def test_omega_examples():
    assert omega((1, 0), (0, 1)) == 1.0
    assert omega((1, 1), (2, 2)) == 0.0
    assert omega((1, 0), (1, 1)) == 1.0
    assert omega((1, 1), (1, 0)) == -1.0


@settings(max_examples=60, deadline=None)
@given(a=finite, b=finite, c=finite, d=finite, s=finite)
def test_omega_antisymmetric_bilinear(a, b, c, d, s):
    xi, eta = (a, b), (c, d)
    assert omega(xi, eta) == -omega(eta, xi)
    assert abs(omega((s * a, s * b), eta) - s * omega(xi, eta)) < 1e-9 * (
        1 + abs(s) * (abs(a) + abs(b)) * (abs(c) + abs(d)))


def test_exponents_examples():
    e = exponents(0, 0, 0)
    assert e.alpha == e.beta == e.gamma == e.delta == 0
    lam = 3j
    e = exponents(0, 0, lam)
    assert e.alpha == -lam and e.beta == -lam and e.gamma == lam and e.delta == -lam
    t = 1j
    e = exponents(t, t, t)
    assert e.alpha == -t and e.delta == -3 * t


def test_exponent_linear_relations(rng):
    for _ in range(20):
        l1, l2, l3 = 1j * rng.standard_normal(3)
        e = exponents(l1, l2, l3)
        assert abs(e.alpha + e.beta + 2 * l3) < 1e-14
        assert abs(e.beta + e.gamma + 2 * l1) < 1e-14
        assert abs(e.alpha + e.gamma + 2 * l2) < 1e-14
        assert all(v.real == 0.0 for v in (e.alpha, e.beta, e.gamma, e.delta))


def test_kernel_unit_configuration():
    e = exponents(2j, 3j, 5j)
    v = kernel_value((1, 0), (0, 1), (1, 1), e)
    assert abs(v - 1.0) < 1e-14


def test_kernel_hand_value():
    # |w(s2,s3)| = 2, |w(s1,s3)| = 2, |w(s1,s2)| = 1 gives 2^((a+b)/2 - 1)
    # = 2^(-l3 - 1)
    l1, l2, l3 = 2j, 3j, 5j
    e = exponents(l1, l2, l3)
    v = kernel_value((1, 0), (0, 1), (2, 2), e)
    expected = cmath.exp((-l3 - 1) * cmath.log(2))
    assert abs(v - expected) < 1e-14


def test_kernel_homogeneity_each_slot(rng):
    lams = (1.3j, -0.7j, 2.9j)
    e = exponents(*lams)
    pts = [rng.standard_normal(2) for _ in range(3)]
    base = kernel_value(*pts, e)
    for j in range(3):
        a = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        scaled = list(pts)
        scaled[j] = a * np.asarray(pts[j])
        v = kernel_value(*scaled, e)
        factor = cmath.exp((-1 - lams[j]) * np.log(abs(a)))
        assert abs(v - factor * base) <= 1e-12 * abs(v)


def test_kernel_sl2_invariance(rng):
    lams = (0.9j, 2.2j, -1.4j)
    e = exponents(*lams)
    for _ in range(50):
        pts = [rng.standard_normal(2) for _ in range(3)]
        g = sl2(rng)
        v0 = kernel_value(*pts, e)
        v1 = kernel_value(*(g @ p for p in pts), e)
        assert abs(v1 - v0) <= 1e-12 * abs(v0)


def test_kernel_singular_configuration():
    e = exponents(1j, 1j, 1j)
    with pytest.raises(SingularConfigurationError):
        kernel_value((1, 0), (2, 0), (0, 1), e)   # collinear pair


def test_circle_restriction_hand_value():
    e = exponents(1j, 2j, -1j)
    v = kernel_on_circle(0.0, np.pi / 2, np.pi / 4, e)
    assert abs(abs(v) - np.sqrt(2.0)) < 1e-13


def test_circle_restriction_trivial_exponents():
    # alpha = beta = gamma = 1 means all powers vanish
    from triform.params import ExponentQuadruple
    e = ExponentQuadruple(1.0, 1.0, 1.0, -3.0)
    for x, y, z in ((0.1, 1.0, 2.0), (0.5, 2.5, 4.0)):
        assert abs(kernel_on_circle(x, y, z, e) - 1.0) < 1e-14


def test_circle_restriction_consistency(rng):
    e = exponents(1.7j, -2.1j, 0.6j)
    for _ in range(20):
        x, y, z = rng.uniform(0.0, 2 * np.pi, 3)
        if min(abs(np.sin(x - y)), abs(np.sin(x - z)), abs(np.sin(y - z))) < 1e-3:
            continue
        a = kernel_on_circle(x, y, z, e)
        b = kernel_value((np.cos(x), np.sin(x)), (np.cos(y), np.sin(y)),
                         (np.cos(z), np.sin(z)), e)
        assert abs(a - b) <= 1e-12 * abs(b)


def test_circle_restriction_antipodal_even(rng):
    e = exponents(1.1j, 0.4j, -2.3j)
    for _ in range(10):
        x, y, z = rng.uniform(0.2, 1.2, 3) * np.array([1.0, 2.0, 4.5])
        v0 = kernel_on_circle(x, y, z, e)
        v1 = kernel_on_circle(x + np.pi, y, z, e)
        assert abs(v0 - v1) <= 1e-12 * abs(v0)


def test_circle_restriction_singularity():
    e = exponents(1j, 1j, 1j)
    with pytest.raises(SingularConfigurationError):
        kernel_on_circle(0.3, 0.3, 1.0, e)


def test_omega_vectorized_over_leading_axes(rng):
    xi = rng.standard_normal((4, 5, 2))
    eta = rng.standard_normal((4, 5, 2))
    w = omega(xi, eta)
    assert w.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert w[i, j] == omega(xi[i, j], eta[i, j])


def test_kernel_value_vectorized_matches_pointwise(rng):
    e = exponents(0.8j, -1.9j, 2.6j)
    pts = rng.standard_normal((3, 40, 2))
    vals = kernel_value(pts[0], pts[1], pts[2], e)
    assert vals.shape == (40,)
    for i in range(40):
        assert vals[i] == kernel_value(pts[0, i], pts[1, i], pts[2, i], e)


def test_kernel_routes_agree_on_the_circle(rng):
    # kernel_value at unit-circle points, kernel_on_circle, and the
    # transformed kernel at g1 = g2 = I are one kernel
    params = (1.3j, -0.6j, 2.2j)
    e = exponents(*params)
    x = rng.uniform(0.0, 2 * np.pi, 30)
    y = rng.uniform(0.0, 2 * np.pi, 30)
    z = 0.4
    keep = np.minimum.reduce([np.abs(np.sin(x - y)), np.abs(np.sin(x - z)),
                              np.abs(np.sin(y - z))]) > 1e-3
    x, y = x[keep], y[keep]
    on_circle = kernel_on_circle(x, y, z, e)
    at_points = kernel_value(np.stack([np.cos(x), np.sin(x)], axis=-1),
                             np.stack([np.cos(y), np.sin(y)], axis=-1),
                             (np.cos(z), np.sin(z)), e)
    transformed = transformed_kernel_values(np.eye(2), np.eye(2), z, params, x, y)
    assert np.all(np.abs(at_points - on_circle) <= 1e-12 * np.abs(on_circle))
    assert np.all(np.abs(transformed - on_circle) <= 1e-12 * np.abs(on_circle))


def test_transformed_kernel_pulls_back_each_slot(rng):
    # at non-identity g1, g2 (|det| != 1) the transformed kernel is the plane
    # kernel at v1 = g1^-1 (cos x, sin x), v2 = g2^-1 (cos y, sin y) and
    # (cos z, sin z), times |det g1|^((-tau-1)/2) |det g2|^((-tau'-1)/2)
    params = (0.2 + 1.3j, -0.1 - 0.6j, 2.2j)
    tau, tau_prime, _ = params
    e = exponents(*params)
    z = 0.4
    for _ in range(5):
        g1 = rng.uniform(0.5, 2.0) * sl2(rng)
        g2 = rng.uniform(0.5, 2.0) * sl2(rng)
        x = rng.uniform(0.0, 2 * np.pi, 40)
        y = rng.uniform(0.0, 2 * np.pi, 40)
        v1 = np.stack([np.cos(x), np.sin(x)], axis=-1) @ np.linalg.inv(g1).T
        v2 = np.stack([np.cos(y), np.sin(y)], axis=-1) @ np.linalg.inv(g2).T
        s3 = np.array([np.cos(z), np.sin(z)])
        unit1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
        unit2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
        keep = np.minimum.reduce([np.abs(omega(unit1, unit2)),
                                  np.abs(omega(unit1, s3)),
                                  np.abs(omega(unit2, s3))]) > 1e-3
        expected = (kernel_value(v1[keep], v2[keep], s3, e)
                    * abs(np.linalg.det(g1)) ** ((-tau - 1) / 2)
                    * abs(np.linalg.det(g2)) ** ((-tau_prime - 1) / 2))
        got = transformed_kernel_values(g1, g2, z, params, x[keep], y[keep])
        assert keep.sum() > 20
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


def test_transformed_kernel_singular_point_raises():
    with pytest.raises(SingularConfigurationError):
        transformed_kernel_values(np.eye(2), np.eye(2), 0.0, (1j, 2j, 3j),
                                  np.array([0.3, 0.7]), np.array([0.5, 0.7]))
