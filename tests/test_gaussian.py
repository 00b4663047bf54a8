"""Gaussian expectation machinery and the moment/reduction identities."""

import mpmath
import numpy as np
import pytest

from triform import (CircleFunction, GaussianSpec, NonFiniteError,
                     PreconditionError, det_moment, exponents, gaussian_expect,
                     homogeneous_reduction_check, identity_battery,
                     kernel_gaussian_check, kernel_value, linear_moment,
                     minor_map, minor_pullback_check, radial_expect,
                     radius_moment)
from triform.circlefn import cis_half_angle
from triform.gaussian import abs_powers

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


def test_integrand_may_return_a_view_of_the_samples():
    # the chunks share one sample array; a column that is a view of it is
    # read before the next chunk is drawn into it
    spec = GaussianSpec(dim=2, seed=4, samples=200_003)
    view = gaussian_expect(spec, lambda pts: pts[:, 1])
    copy = gaussian_expect(spec, lambda pts: pts[:, 1].copy())
    assert (view.value, view.error_bound) == (copy.value, copy.error_bound)


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
    with pytest.raises(PreconditionError):      # one bad element of an array
        radius_moment(2, [1.0, -2.5])


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


def rotated_minor_pullback(s, R, spec):
    """MC <|w . R[2]|^s, G> over the minors w of 2x3 Gaussian matrices."""
    return gaussian_expect(
        spec, lambda pts: np.abs(minor_map(pts.reshape(-1, 2, 3)) @ R[2]) ** s)


def test_non_finite_rotation_is_not_dropped():
    # |w . r|^s at a NaN projection is NaN, not the 0 of a v = 0 null set
    R = np.eye(3)
    R[2, 0] = np.nan
    with pytest.raises(NonFiniteError):
        rotated_minor_pullback(1.0, R, GaussianSpec(6, 31, 1000))


def test_minor_pullback_rotation_invariance(rng):
    # by the SO(3)-equivariance of the minor map, rotating h = |w_3|^s
    # leaves its pull-back's expectation unchanged
    base = minor_pullback_check(1.0, GaussianSpec(6, 31, 200_000))[0]
    for _ in range(5):
        R = rotation(rng)
        rot = rotated_minor_pullback(1.0, R, GaussianSpec(6, 31, 200_000))
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


def test_kernel_gaussian_refuses_the_divergent_corner(monkeypatch):
    # Re(l1 + l2 + l3) = 1.5 >= 1: refused before any Philox stream is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("a Philox stream was drawn")
    monkeypatch.setattr(np.random, "Philox", no_draw)
    with pytest.raises(PreconditionError, match="delta"):
        kernel_gaussian_check(0.5, 0.5, 0.5, GaussianSpec(6, 47, 1000))


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


# ---------------------------------------------------------------------------
# one draw per stream
# ---------------------------------------------------------------------------

def abs_power(v, s):
    """|v|^s as a separate integrand computes it, by the battery's formula:
    1, |v|, |v| |v| at s = 0, 1, 2, exp(s log|v|) at other real s, and
    e^(Re s log|v|) cis(Im s log|v|) from the tangent of the half phase at
    complex s; 0 where v = 0."""
    s = complex(s)
    a = np.abs(v)
    if s in (0, 1, 2):
        return np.ones(len(a)) if s == 0 else a if s == 1 else a * a
    good = a != 0
    log_a = np.log(a[good])
    scale = 1.0 if s.real == 0 else np.exp(s.real * log_a)
    out = np.zeros(len(a), dtype=float if s.imag == 0 else complex)
    out[good] = (scale if s.imag == 0
                 else cis_half_angle(np.tan(0.5 * s.imag * log_a), scale))
    return out


EPS = np.finfo(float).eps
SPECIAL_S = (0.0, 1.0, 2.0, 1j, 2j, -1 - 2j)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
@pytest.mark.parametrize("v", [0.0, 5e-324, 1e300, -1e300, np.inf, np.nan])
def test_abs_powers_at_special_values(v):
    cols = abs_powers(np.array([v, -v]), SPECIAL_S)
    for s, col in zip(SPECIAL_S, cols):
        # real s give real columns; v and -v give the same value
        assert (col.dtype == complex) == bool(s.imag)
        assert np.array_equal(col[:1], col[1:], equal_nan=True)
        got = complex(col[0])
        if np.isnan(v):
            assert np.isnan(got), s           # NaN in, NaN out, s = 0 too
        elif v == 0:
            assert got == (1.0 if s == 0 else 0.0), s
        elif np.isinf(v):                     # pow's limit; no phase limit
            assert (np.isnan(got) if s.imag else got == np.power(np.inf, s.real)), s
        else:
            check_abs_power(abs(v), s, got)


def check_abs_power(a, s, got):
    """got against mpmath and against the libm formula exp(s log a).

    The columns take the phase Im s log a from the same rounded log a, so
    with L = |log a| the error against the exact power is below
    2 eps (1 + |s| L) of it (log's rounding, times |s|, then a few eps from
    tan, exp and the half-angle form), and against libm below
    eps (4 + |s| L): at s = 1, 2 the libm value carries that rounding of
    log a, which |v| and |v| |v| do not.  Where the power overflows both
    are non-finite, and where it underflows both are below 2^-1074.
    """
    with mpmath.workdps(30):
        exact = complex(mpmath.power(mpmath.mpf(a), mpmath.mpc(s)))
    with np.errstate(over="ignore", invalid="ignore"):
        libm = complex(np.exp(s * np.log(a)))
    if not np.isfinite(exact):
        assert not np.isfinite(got) and not np.isfinite(libm)
        return
    L = abs(np.log(a))
    tiny = 2.0 ** -1074
    assert abs(got - exact) <= 2 * EPS * (1 + abs(s) * L) * abs(exact) + tiny
    assert abs(got - libm) <= EPS * (4 + abs(s) * L) * abs(libm) + tiny


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_abs_powers_over_the_exponent_range(rng):
    v = 10.0 ** rng.uniform(-300, 300, 400) * rng.choice([-1.0, 1.0], 400)
    for s, col in zip(SPECIAL_S, abs_powers(v, SPECIAL_S)):
        for x, got in zip(v, col):
            check_abs_power(abs(x), s, complex(got))


def test_nan_sample_in_an_s0_column_is_not_dropped():
    # |v|^0 is 1 except where v is NaN, so the chunk sum sees the NaN
    spec = GaussianSpec(dim=1, seed=2, samples=1000)

    def integrand(pts):
        v = pts[:, 0].copy()
        v[7] = np.nan
        return abs_powers(v, (0.0,))[0]

    with pytest.raises(NonFiniteError, match="non-finite values"):
        gaussian_expect(spec, integrand)


def test_battery_rows_equal_separate_calls():
    # each family shares one draw among its k = 5, 2 or 3 integrands; 200,003
    # samples end on a partial chunk.  Every value and bar must equal, bit
    # for bit, the one-integrand call (k = 1) on the same stream.
    samples, seed = 200_003, 3
    rows = identity_battery(samples, seed)
    s_values = (0.0, 1.0, 2.0, 1j, 2j)

    def expect(dim, offset, integrand):
        return gaussian_expect(GaussianSpec(dim, seed + offset, samples), integrand)

    want = []
    for n in (1, 2, 3):
        want += [expect(n, 0, lambda p, s=s: abs_power(np.sqrt(np.sum(p * p, 1)), s))
                 for s in s_values]
    want += [expect(2, 1, lambda p, s=s: abs_power(p[:, 0], s)) for s in s_values]
    want += [expect(4, 2, lambda p, s=s: abs_power(
        p[:, 0] * p[:, 3] - p[:, 1] * p[:, 2], s)) for s in s_values]
    f = CircleFunction.from_modes({0: 1.0, 2: 0.25, -2: 0.25}, 1)
    want += [expect(2, 3, lambda p, z=z: abs_power(np.hypot(p[:, 0], p[:, 1]), -z - 1.0)
                    * f.evaluate(np.arctan2(p[:, 1], p[:, 0]))) for z in (0j, 2j)]
    want += [expect(6, 4, lambda p, s=s: abs_power(
        minor_map(p.reshape(-1, 2, 3))[:, 2], s)) for s in s_values]

    def kernel(p, t):
        x = p.reshape(-1, 3, 2)
        return kernel_value(x[:, 0], x[:, 1], x[:, 2], exponents(*t))

    want += [expect(6, 6, lambda p, t=t: kernel(p, t))
             for t in ((0j, 0j, 0j), (2j, 0j, 0j), (0j, 1j, 2j))]
    assert len(rows) == len(want) == 35
    for (identity, params, lhs, _), ref in zip(rows, want):
        assert (lhs.value, lhs.error_bound, lhs.cost) == (
            ref.value, ref.error_bound, ref.cost), (identity, params)
    # the closed sides are the public moments' and checks' own, although the
    # battery takes each family's Gamma factors in one call
    assert [r[3].value for r in rows[:25]] == (
        [radius_moment(n, s) for n in (1, 2, 3) for s in s_values]
        + [linear_moment(1.0, s) for s in s_values] + [det_moment(s) for s in s_values])
    assert [r[3] for r in rows[25:27]] == [
        homogeneous_reduction_check(lam, f, method="mc",
                                    spec=GaussianSpec(2, seed + 3, 1000))[1]
        for lam in (0.0, 2j)]
    assert [r[3] for r in rows[27:32]] == [
        minor_pullback_check(s, GaussianSpec(6, seed + 4, 1000))[1] for s in s_values]
    assert [r[3] for r in rows[32:]] == [
        kernel_gaussian_check(*t, GaussianSpec(6, seed + 6, 1000))[1]
        for t in ((0j, 0j, 0j), (2j, 0j, 0j), (0j, 1j, 2j))]


def test_battery_draws_each_stream_once(monkeypatch):
    made = []
    philox = np.random.Philox

    def counting_philox(seed):
        made.append(seed)
        return philox(seed)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    identity_battery(2000, 5)   # one chunk per stream
    # (seed, dim) streams: (5, 1), (5, 2), (5, 3), (6, 2), (7, 4), (8, 2),
    # (9, 6), (11, 6)
    assert sorted(made) == [5, 5, 5, 6, 7, 8, 9, 11]


def test_third_minor_is_the_minor_map_column(rng):
    m = rng.standard_normal((10_000, 2, 3))
    third = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert third.tobytes() == minor_map(m)[:, 2].tobytes()
    spec = GaussianSpec(6, 29, 70_001)
    for s in (1.0, 0.5j):
        ref = gaussian_expect(
            spec, lambda p: abs_power(minor_map(p.reshape(-1, 2, 3))[:, 2], s))
        lhs = minor_pullback_check(s, spec)[0]
        assert (lhs.value, lhs.error_bound) == (ref.value, ref.error_bound)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 "inf-pair"])
def test_non_finite_value_in_the_last_chunk(bad):
    # the last of 200,003 samples sits in a partial last chunk
    spec = GaussianSpec(dim=1, seed=2, samples=200_003)
    seen = [0]

    def integrand(pts):
        out = np.ones(len(pts), dtype=complex)
        seen[0] += len(pts)
        if seen[0] == spec.samples:
            if bad == "inf-pair":       # the chunk sum is inf - inf = nan
                out[-2:] = (np.inf, -np.inf)
            else:
                out[-1] = bad
        return out

    with pytest.raises(NonFiniteError):
        gaussian_expect(spec, integrand)
    assert seen[0] == spec.samples


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_sum_of_finite_values_is_typed():
    # the full scan finds no bad value, and the error names the overflow
    with pytest.raises(NonFiniteError, match="sum overflowed"):
        gaussian_expect(GaussianSpec(1, 2, 1000), lambda p: np.full(len(p), 1e308))
