"""Gaussian expectation machinery and the moment/reduction identities."""

import numpy as np
import pytest

from triform import (CircleFunction, GaussianSpec, NonFiniteError,
                     PreconditionError, det_moment, gaussian_expect,
                     homogeneous_reduction_check, identity_battery,
                     kernel_gaussian_check, linear_moment, minor_map,
                     minor_pullback_check, minor_pullback_rotated,
                     radial_expect, radius_moment)

SQRT_PI = 1.7724538509055160273
B000 = 31.031265787858834294      # Gamma(1/4)^4 / pi^3 * pi^(3/2)


def r_squared(pts):
    return np.sum(pts * pts, axis=1).astype(complex)


def test_normalization():
    spec = GaussianSpec(dim=3, seed=1, samples=50_000)
    est = gaussian_expect(spec, lambda pts: np.ones(len(pts), dtype=complex))
    assert est.value == 1.0 + 0.0j
    assert est.error_bound == 0.0


@pytest.mark.parametrize("offset", [0.0, 1e9, 1e12])
def test_error_bar_survives_an_offset(offset):
    # f = c + x with x normal of variance 1/2: 3 sqrt(1/2 / n) at any c
    spec = GaussianSpec(1, 3, 200_000)
    est = gaussian_expect(spec, lambda pts: offset + pts[:, 0])
    exact = 3.0 * np.sqrt(0.5 / spec.samples)
    assert abs(est.error_bound - exact) <= 1e-2 * exact
    base = gaussian_expect(spec, lambda pts: pts[:, 0])
    assert abs(est.error_bound - base.error_bound) <= 1e-6 * base.error_bound


def test_seed_determinism():
    spec = GaussianSpec(dim=2, seed=42, samples=100_000)
    a = gaussian_expect(spec, r_squared)
    b = gaussian_expect(spec, r_squared)
    assert a.value == b.value and a.error_bound == b.error_bound


def test_r2_mean_is_one():
    spec = GaussianSpec(dim=2, seed=3, samples=200_000)
    est = gaussian_expect(spec, r_squared)
    assert abs(est.value - 1.0) <= est.error_bound


def test_product_formula():
    # f = x^2 y^2 on R^2 factorizes as two 1-D squared coordinates
    spec = GaussianSpec(dim=2, seed=5, samples=200_000)
    joint = gaussian_expect(spec, lambda p: (p[:, 0] ** 2 * p[:, 1] ** 2).astype(complex))
    f1 = gaussian_expect(GaussianSpec(1, 6, 200_000),
                         lambda p: (p[:, 0] ** 2).astype(complex))
    f2 = gaussian_expect(GaussianSpec(1, 7, 200_000),
                         lambda p: (p[:, 0] ** 2).astype(complex))
    prod = f1.value * f2.value
    err = joint.error_bound + abs(f1.value) * f2.error_bound + abs(f2.value) * f1.error_bound
    assert abs(joint.value - prod) <= err
    assert abs(joint.value - 0.25) <= joint.error_bound


def test_error_scaling():
    base = gaussian_expect(GaussianSpec(2, 11, 100_000), r_squared)
    quad = gaussian_expect(GaussianSpec(2, 11, 400_000), r_squared)
    ratio = base.error_bound / quad.error_bound
    assert abs(ratio - 2.0) <= 0.4


def test_non_finite_detection():
    spec = GaussianSpec(dim=1, seed=2, samples=1000)

    def bad(pts):
        out = np.ones(len(pts))
        out[0] = np.inf
        return out

    with pytest.raises(NonFiniteError):
        gaussian_expect(spec, bad)


# ---------------------------------------------------------------------------
# closed moments
# ---------------------------------------------------------------------------

def test_radius_moment_examples():
    assert abs(radius_moment(1, 0) - 1.0) < 1e-13
    assert abs(radius_moment(3, 2) - 1.5) < 1e-12
    assert abs(radius_moment(2, 2) - 1.0) < 1e-12


def test_radius_moment_mc_cross():
    spec = GaussianSpec(dim=2, seed=13, samples=400_000)

    def f(pts):
        r = np.sqrt(np.sum(pts * pts, axis=1))
        return np.exp(1j * np.log(r))

    est = gaussian_expect(spec, f)
    assert abs(est.value - radius_moment(2, 1j)) <= est.error_bound


def test_radius_moment_precondition():
    with pytest.raises(PreconditionError):
        radius_moment(2, -2.5)


def test_linear_moment_examples():
    assert abs(linear_moment(1.0, 0) - 1.0) < 1e-13
    assert abs(linear_moment(1.0, 2) - 0.5) < 1e-13
    assert abs(linear_moment(2.0, 1) - 2.0 / SQRT_PI) < 1e-13


def test_det_moment_examples():
    assert abs(det_moment(0) - 1.0) < 1e-13
    assert abs(det_moment(2) - 0.5) < 1e-13
    assert abs(det_moment(1) - 0.5) < 1e-13


def test_det_moment_mc_cross():
    spec = GaussianSpec(dim=4, seed=17, samples=400_000)

    def f(pts):
        return np.abs(pts[:, 0] * pts[:, 3] - pts[:, 1] * pts[:, 2]).astype(complex)

    est = gaussian_expect(spec, f)
    assert abs(est.value - det_moment(1)) <= est.error_bound


def test_radial_quadrature_against_both_oracles():
    # deterministic radial route vs Gamma closed form vs Monte Carlo
    for n in (1, 2, 3):
        for s in (1.0, 2.0, 1j):
            rad = radial_expect(n, s)
            closed = radius_moment(n, s)
            assert abs(rad.value - closed) <= 1e-10 * max(1.0, abs(closed))
    spec = GaussianSpec(dim=3, seed=19, samples=300_000)
    mc = gaussian_expect(spec, lambda p: np.sqrt(np.sum(p * p, axis=1)).astype(complex))
    assert abs(mc.value - radial_expect(3, 1.0).value) <= mc.error_bound


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------

def test_homogeneous_reduction_rotation_invariant_case():
    lhs, rhs = homogeneous_reduction_check(0.0, CircleFunction.constant(1.0))
    assert abs(lhs.value - SQRT_PI) <= 1e-9
    assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound + 1e-10


def test_homogeneous_reduction_angular_modes():
    # f = cos^2(theta) at lam = 0 (the x^2/r^3 example, radial route)
    f = CircleFunction.from_modes({0: 0.5, 2: 0.25, -2: 0.25}, 1)
    lhs, rhs = homogeneous_reduction_check(0.0, f)
    assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound + 1e-10
    # mode-2 content at lam = 2i
    f = CircleFunction.from_modes({0: 1.0, 2: 0.5, -2: 0.5}, 1)
    lhs, rhs = homogeneous_reduction_check(2j, f)
    assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound + 1e-9


def test_homogeneous_reduction_mc_route():
    f = CircleFunction.from_modes({0: 1.0, 2: 0.25, -2: 0.25}, 1)
    spec = GaussianSpec(dim=2, seed=23, samples=400_000)
    lhs, rhs = homogeneous_reduction_check(0.0, f, method="mc", spec=spec)
    assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound


def test_homogeneous_reduction_precondition():
    with pytest.raises(PreconditionError):
        homogeneous_reduction_check(1.5, CircleFunction.constant(1.0))


def rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_minor_map_equivariance(rng):
    mats = rng.standard_normal((50, 2, 3))
    for _ in range(5):
        R = rotation(rng)
        lhs = minor_map(mats @ R.T)
        rhs = minor_map(mats) @ R.T
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_minor_pullback_identity():
    for s, expect in ((0.0, 1.0), (2.0, 0.5), (1.0, 0.5)):
        lhs, rhs = minor_pullback_check(s, GaussianSpec(6, 29, 400_000))
        assert abs(rhs.value - expect) <= 1e-10
        assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound


def test_minor_pullback_rotation_invariance(rng):
    base = minor_pullback_check(1.0, GaussianSpec(6, 31, 200_000))[0]
    for _ in range(5):
        R = rotation(rng)
        rot = minor_pullback_rotated(1.0, R, GaussianSpec(6, 31, 200_000))
        assert abs(rot.value - base.value) <= rot.error_bound + base.error_bound


def test_kernel_gaussian_origin():
    lhs, rhs = kernel_gaussian_check(0, 0, 0, GaussianSpec(6, 37, 600_000))
    assert abs(rhs.value - B000) <= 1e-9 * B000
    assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound


def test_kernel_gaussian_2i():
    lhs, rhs = kernel_gaussian_check(2j, 0, 0, GaussianSpec(6, 41, 600_000))
    assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound


def test_kernel_gaussian_permutation_symmetry():
    spec = GaussianSpec(6, 43, 300_000)
    a_lhs, a_rhs = kernel_gaussian_check(2j, 0, 1j, spec)
    b_lhs, b_rhs = kernel_gaussian_check(0, 2j, 1j, spec)
    assert abs(a_rhs.value - b_rhs.value) <= 1e-10 * abs(a_rhs.value)
    assert abs(a_lhs.value - b_lhs.value) <= a_lhs.error_bound + b_lhs.error_bound


def test_kernel_gaussian_precondition():
    with pytest.raises(PreconditionError):
        kernel_gaussian_check(0.9, 0.9, -0.9, GaussianSpec(6, 47, 1000))


def test_identity_battery_order_and_streams():
    rows = identity_battery(2000, 5)
    assert [r[0] for r in rows] == (
        ["radius-moment"] * 15 + ["linear-moment"] * 5 + ["det-moment"] * 5
        + ["homogeneous-reduction"] * 2 + ["minor-pullback"] * 5
        + ["kernel-gaussian"] * 3)
    assert rows[0][1] == "n=1;s=0.0" and rows[-1][1] == "l=(0j, 1j, 2j)"
    # |v|^0 is the constant 1, integrated exactly
    zero_rows = [r for r in rows if r[1].endswith("s=0.0")]
    assert len(zero_rows) == 6
    assert all(lhs.value == 1.0 and lhs.error_bound == 0.0
               for _, _, lhs, _ in zero_rows)
    # the linear family draws stream seed + 1
    ref = gaussian_expect(GaussianSpec(dim=2, seed=6, samples=2000),
                          lambda pts: np.abs(pts[:, 0]))
    assert abs(rows[16][2].value - ref.value) <= 1e-13
    assert rows[25][2:] == homogeneous_reduction_check(
        0.0, CircleFunction.from_modes({0: 1.0, 2: 0.25, -2: 0.25}, 1),
        method="mc", spec=GaussianSpec(dim=2, seed=8, samples=2000))
