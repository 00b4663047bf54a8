"""Trilinear functional: contour functional, closed form, quadrature, decay."""

import itertools
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triform import (CircleFunction, DomainTooSmallError, Estimate,
                     NonConvergentError,
                     NonFiniteError, PoleArgumentError, PreconditionError,
                     QuadratureConfig, closed_form_value, decay_constant,
                     decay_envelope, exponents, group_action,
                     invariant_functional, kernel_on_circle, normalized_decay,
                     sine_power_coeffs, spectral_mode_values, spherical_square,
                     triple_quadrature)
from triform import trilinear
from triform.quadrature import unit_nodes
from triform.specdecomp import random_sl2
from triform.trilinear import MAX_QUADRATURE_LEVEL

# Gamma(1/4)^4 / pi^3, computed independently at 40 digits
A000 = 5.5728157187427074367
# closed form at (0, 0, 10j), independent 40-digit evaluation
A0010 = -6.254263599920590863e-05 - 1.2583705083835460888e-04j

ROOT = Path(__file__).resolve().parent.parent
ONES = CircleFunction.constant(1.0)
EPS = np.finfo(float).eps
# the process's principal-series geometry table; stand-in node families
# patch in an empty one of their own
GEOMETRY = trilinear._GEOMETRY


def _same_table(a, b):
    """Whether the geometry tables a and b hold the same keys and arrays."""
    return a.keys() == b.keys() and all(a[key] is b[key] for key in a)


def closed_form_mp(l1, l2, l3):
    """The spherical closed form at 40 digits by mpmath, from the exponents
    alpha = l1 - l2 - l3, ..., delta = -l1 - l2 - l3."""
    with mpmath.workdps(40):
        z1, z2, z3 = (mpmath.mpc(complex(v)) for v in (l1, l2, l3))
        mus = (z1 - z2 - z3, -z1 + z2 - z3, -z1 - z2 + z3, -z1 - z2 - z3)
        num = mpmath.fprod(mpmath.gamma((mu + 1) / 4) for mu in mus)
        den = mpmath.gamma(mpmath.mpf(1) / 2) ** 3 * mpmath.fprod(
            mpmath.gamma((1 - z) / 2) for z in (z1, z2, z3))
        return complex(num / den)

# principal-series parameters with small real parts: no Gamma pole, and the
# spectral convolution converges (it needs Re(l1 + l2 + l3) < 0.9, as
# 3 + sA + sB + sG = (3 - (l1 + l2 + l3)) / 2 must keep Re > 1.05)
lam_strategy = st.builds(complex, st.floats(-0.25, 0.25), st.floats(-8.0, 8.0))


# ---------------------------------------------------------------------------
# the rotation-invariant contour functional
# ---------------------------------------------------------------------------

def test_invariant_functional_normalization():
    est = invariant_functional(lambda x, y: 1.0 / (x * x + y * y))
    assert abs(est.value - 1.0) <= 1e-12


def test_invariant_functional_cos_squared():
    # angular average of cos^2 is 1/2
    est = invariant_functional(lambda x, y: x * x / (x * x + y * y) ** 2)
    assert abs(est.value - 0.5) <= 1e-12


def test_invariant_functional_stops_at_the_first_non_finite_level():
    # a NaN value raises the typed error at its level, and no later level
    # runs: here at level 0 (the node x = 1) ...
    sizes = []

    def nan_near_x1(x, y):
        sizes.append(len(x))
        return np.where(x > 0.99, np.nan, 1.0)

    with pytest.raises(NonFiniteError, match="level 0"):
        invariant_functional(nan_near_x1)
    assert sizes == [64]
    # ... and at level 2, after two finite levels that have not converged
    sizes.clear()

    def nan_from_256_points(x, y):
        sizes.append(len(x))
        return np.full(len(x), np.nan if len(x) >= 256 else 1.0 + 1.0 / len(x))

    with pytest.raises(NonFiniteError, match="level 2"):
        invariant_functional(nan_from_256_points)
    assert sizes == [64, 128, 256]


def on_ellipse(f, a, b):
    """f read on the ellipse with semi-axes a, b: the unit-circle integrand
    whose contour integral equals f's over that ellipse."""
    return lambda x, y: a * b * f(a * x, b * y)


def test_invariant_functional_ellipse():
    est = invariant_functional(on_ellipse(lambda x, y: 1.0 / (x * x + y * y), 2.0, 1.0))
    assert abs(est.value - 1.0) <= 1e-10


def test_invariant_functional_contour_independence():
    def f(x, y):
        return (x * x - 3.0 * x * y + 2.0 * y * y) / (x * x + y * y) ** 2

    axes = [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (0.5, 0.8)]
    vals = [invariant_functional(on_ellipse(f, a, b)).value for a, b in axes]
    spread = max(abs(v - vals[0]) for v in vals)
    assert spread <= 1e-8 * max(1.0, abs(vals[0]))


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_at_origin():
    est = closed_form_value(0, 0, 0)
    assert abs(est.value - A000) <= 1e-10 * A000


def test_closed_form_at_0_0_10i():
    est = closed_form_value(0, 0, 10j)
    assert abs(est.value - A0010) <= 1e-9 * abs(A0010)


@settings(max_examples=25, deadline=None)
@given(trip=st.tuples(lam_strategy, lam_strategy, lam_strategy))
def test_closed_form_permutation_symmetry(trip):
    base = closed_form_value(*trip).value
    for perm in itertools.permutations(trip):
        v = closed_form_value(*perm).value
        assert abs(v - base) <= 1e-12 * abs(base)


def test_divergent_corner_is_refused_before_any_level(monkeypatch):
    # Re(l1 + l2 + l3) = 1.5: the integral diverges at the corner a = b = 0,
    # so no level may run (unchecked, all six run and none converges)
    def no_level(*args):
        raise AssertionError("a quadrature level ran")
    monkeypatch.setattr("triform.trilinear.unit_nodes", no_level)
    with pytest.raises(PreconditionError, match="delta"):
        triple_quadrature(ONES, ONES, ONES, 0.5, 0.5, 0.5)
    # the closed form keeps its analytic continuation there
    assert abs(closed_form_value(0.5, 0.5, 0.5).value + 14.0468) < 1e-4


def test_closed_form_pole_identifies_factor():
    with pytest.raises(PoleArgumentError) as exc:
        closed_form_value(0.0, 0.5, 0.5)   # alpha = -1 puts (alpha+1)/4 at 0
    assert "alpha" in exc.value.factor


def test_spherical_square_examples():
    assert abs(spherical_square(0, 0, 0) - A000 ** 2) <= 1e-9 * A000 ** 2
    a = spherical_square(1j, 2j, 5j)
    b = spherical_square(2j, 1j, 5j)
    assert abs(a - b) <= 1e-12 * a


def test_normalized_decay_plateau():
    r100 = normalized_decay(0, 0, 100j)
    r200 = normalized_decay(0, 0, 200j)
    assert abs(r100 - r200) <= 0.05 * r200


def test_decay_envelope_examples():
    assert abs(decay_envelope(2j) - np.exp(-np.pi) / 4.0) <= 1e-14
    with pytest.raises(DomainTooSmallError):
        decay_envelope(0.5j)
    with pytest.raises(PreconditionError):
        decay_envelope(2.0)


def test_decay_ratio_converges_and_extrapolates():
    rungs = [50.0, 100.0, 200.0, 400.0]
    vals = [normalized_decay(0, 0, 1j * t) for t in rungs]
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    c, err = decay_constant(0, 0, rungs)
    assert c > 0
    assert err <= 0.01 * c


def test_decay_constant_single_rung():
    # one rung has no plateau to extrapolate; it once came back with an
    # infinite error bar
    with pytest.raises(PreconditionError, match="two rungs"):
        decay_constant(0, 0, [50.0])


@pytest.mark.parametrize("tau, tau_prime, rel", [
    (0, 0, 1e-9), (1j, 2j, 1e-7), (0.3 + 1j, -0.3, 1e-4), (0.2, -0.2 + 1j, 1e-4)])
def test_decay_constant_bar_covers_the_exact_limit(tau, tau_prime, rel,
                                                   exact_decay_limit):
    # at imaginary tau and tau' the 1/|lam| term vanishes and the
    # extrapolation is in 1/|lam|^2: at (0, 0) the 1/|lam| extrapolation
    # was off by 1.25e-5 relative on this ladder, and is now off by 4.7e-10
    exact = exact_decay_limit(tau, tau_prime)
    c, err = decay_constant(tau, tau_prime, [25.0 * 2 ** n for n in range(5)])
    assert abs(c - exact) <= err
    assert abs(c - exact) <= rel * exact


def test_decay_constant_refuses_an_empty_ladder():
    with pytest.raises(PreconditionError, match="at least one rung"):
        decay_constant(0, 0, [])


@pytest.mark.parametrize("tau, tau_prime", [(0.3, 0), (0.3 + 1j, 0.2j), (0, -1e-9)])
def test_decay_constant_refuses_a_ladder_without_plateau(tau, tau_prime):
    # at s = Re(tau + tau') != 0 the sequence goes like |lam|^-s; at (0.3, 0)
    # it once returned 0.986 +- 0.228 from rungs falling 19% per doubling
    with pytest.raises(PreconditionError, match="Re"):
        decay_constant(tau, tau_prime, [100.0, 200.0, 400.0, 800.0])


@pytest.mark.parametrize("ladder", [[100.0, 100.0, 100.0], [400.0, 200.0, 100.0],
                                    [100.0, 300.0, 900.0], [25.0, 50.0, -100.0],
                                    [-25.0, -50.0], [math.inf, math.inf], [math.nan]])
def test_decay_constant_refuses_a_ladder_that_is_not_a_doubling(ladder):
    # the Richardson weights are those of t, 2t, 4t, ...: on [100, 100, 100]
    # they gave 12.97041 +- 0.0, and on [400, 200, 100] 12.97138 +- 1.7e-3,
    # neither covering the limit 128 / pi^2 = 12.969112
    with pytest.raises(PreconditionError, match="doubling ladder"):
        decay_constant(0, 0, ladder)


def test_decay_constant_takes_opposite_real_parts():
    # only the sum's real part sets the power of |lam|
    c, err = decay_constant(0.3, -0.3, [100.0, 200.0, 400.0, 800.0])
    assert c > 0 and err <= 1e-4 * c


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_origin_matches_closed_form():
    est = triple_quadrature(ONES, ONES, ONES, 0, 0, 0)
    assert abs(est.value - A000) <= 1e-4 * A000
    assert abs(est.value - A000) <= max(est.error_bound, 1e-12 * A000)


def test_quadrature_linearity():
    cfg = QuadratureConfig(refinement_levels=3, target_rel_error=1e-3)
    doubled = CircleFunction.constant(2.0)
    a = triple_quadrature(ONES, ONES, ONES, 0, 1j, 2j, cfg)
    b = triple_quadrature(doubled, ONES, ONES, 0, 1j, 2j, cfg)
    assert abs(b.value - 2.0 * a.value) <= 1e-13 * abs(b.value)


def test_quadrature_2i_3i_5i():
    ref = closed_form_value(2j, 3j, 5j).value
    est = triple_quadrature(ONES, ONES, ONES, 2j, 3j, 5j)
    assert abs(est.value - ref) <= 1e-4 * abs(ref)


def test_quadrature_0_0_10i():
    ref = closed_form_value(0, 0, 10j).value
    est = triple_quadrature(ONES, ONES, ONES, 0, 0, 10j)
    assert abs(est.value - ref) <= 1e-4 * abs(ref)


def test_quadrature_divergent_range_refused():
    with pytest.raises(PreconditionError):
        triple_quadrature(ONES, ONES, ONES, 0.9, 0.9, -0.9)


@pytest.mark.parametrize("case", ["nan_mode", "all_nan", "nan_lam", "inf_lam"])
def test_quadrature_rejects_non_finite_input(case, fast_cfg):
    # each of these once came back as a finite, "converged" Estimate
    f1, lams = ONES, (0.0, 1j, 4j)
    if case == "nan_mode":
        f1 = CircleFunction.from_modes({0: 1.0, 2: np.nan}, 1)
    elif case == "all_nan":
        f1 = CircleFunction(np.full(3, np.nan, dtype=complex), 1)
    elif case == "nan_lam":
        lams = (complex(np.nan), 1j, 4j)
    else:
        lams = (0.0, complex(0.0, np.inf), 4j)
    with pytest.raises(NonFiniteError):
        triple_quadrature(f1, ONES, ONES, *lams, fast_cfg)


def test_quadrature_closed_form_extended_grid():
    # the {0, i, 2i, 4i, 8i}^3 grid at <= 1e-4; both sides are permutation
    # symmetric (symmetry tested separately), so unordered triples suffice
    import itertools
    cfg = QuadratureConfig(target_rel_error=1e-6, refinement_levels=6)
    worst = 0.0
    for trip in itertools.combinations_with_replacement((0.0, 1j, 2j, 4j, 8j), 3):
        ref = closed_form_value(*trip).value
        est = triple_quadrature(ONES, ONES, ONES, *trip, cfg)
        worst = max(worst, abs(est.value - ref) / abs(ref))
    assert worst <= 1e-4, worst


def test_quadrature_nonconstant_modes():
    # adding a mode-2 component to f1 against spherical partners changes
    # nothing: the extra element e^{2ix} x 1 x 1 dies by translation symmetry
    f1 = CircleFunction.from_modes({0: 1.0, 2: 0.5}, 1)
    cfg = QuadratureConfig(target_rel_error=1e-7)
    whole = triple_quadrature(f1, ONES, ONES, 0, 1j, 2j, cfg)
    part0 = triple_quadrature(ONES, ONES, ONES, 0, 1j, 2j, cfg)
    single = triple_quadrature(
        CircleFunction.from_modes({2: 0.5}, 1), ONES, ONES, 0, 1j, 2j, cfg)
    assert abs(single.value) <= 1e-12
    assert abs(whole.value - part0.value) <= 2e-6 * abs(part0.value)


def test_functional_group_invariance(rng):
    # invariance under the diagonal action, checked through the quadrature
    lams = (0.0, 1j, 2j)
    cfg = QuadratureConfig(target_rel_error=1e-5, refinement_levels=4)
    lift = 16
    base = [CircleFunction.from_modes({0: 1.0, 2: 0.3}, lift),
            CircleFunction.from_modes({0: 1.0, -2: 0.2, 4: 0.1}, lift),
            CircleFunction.from_modes({0: 1.0}, lift)]
    ref = triple_quadrature(*base, *lams, cfg).value
    for _ in range(20):
        g = random_sl2(rng, max_norm=1.3)
        moved = [group_action(g, lam, f) for lam, f in zip(lams, base)]
        val = triple_quadrature(*moved, *lams, cfg).value
        assert abs(val - ref) <= 2e-3 * abs(ref)


def _random_data(rng, modes, lift):
    """Random complex coefficients on the even frequencies -2 modes..2 modes."""
    return CircleFunction.from_modes(
        {2 * p: complex(*rng.normal(size=2)) * 0.5 ** abs(p)
         for p in range(-modes, modes + 1)}, lift)


@pytest.mark.parametrize("lams", [(0.0, 1j, 2j), (0.3, 1j, -0.2 + 2j)])
def test_quadrature_matches_spectral_mode_sum(lams, rng):
    # lift-8 data: the folded pass against the independent spectral route
    # sum_{p,q} f1_p f2_q f3_-(p+q) mode(p, q)
    f1, f2, f3 = (_random_data(rng, k, 8) for k in (3, 2, 3))
    est = triple_quadrature(f1, f2, f3, *lams,
                            QuadratureConfig(target_rel_error=1e-5,
                                             refinement_levels=4))
    pairs = list(itertools.product(range(-8, 9), repeat=2))
    weights = [f1.coefficient(p) * f2.coefficient(q) * f3.coefficient(-(p + q))
               for p, q in pairs]
    spectral = np.dot(weights, spectral_mode_values(pairs, *lams))
    assert abs(est.value - spectral) <= 1e-8 * abs(spectral)


def test_quadrature_swap_symmetry(rng):
    # swapping (f1, l1) with (f2, l2) swaps the two folded mode factors and
    # the two kernels; the data have different truncations on purpose
    f1, f2, f3 = _random_data(rng, 2, 2), _random_data(rng, 1, 1), _random_data(rng, 2, 3)
    lams = (0.3, 1j, -0.2 + 2j)
    cfg = QuadratureConfig(target_rel_error=1e-6)
    a = triple_quadrature(f1, f2, f3, *lams, cfg)
    b = triple_quadrature(f2, f1, f3, lams[1], lams[0], lams[2], cfg)
    assert abs(a.value - b.value) <= 1e-13 * abs(a.value)


@pytest.mark.parametrize("cfg, value", [
    (QuadratureConfig(), 0.013491280820670828 + 0.06529839748992673j)])
def test_quadrature_constant_data_regression(cfg, value):
    # values of the earlier implementation (two half-triangle passes, every
    # level evaluated from scratch); since then only the rounding changed
    est = triple_quadrature(ONES, ONES, ONES, 0, 1j, 4j, cfg)
    assert abs(est.value - value) <= 2e-15 * abs(value)


def test_tanh_sinh_levels_are_nested():
    # level - 1's nodes are level's even positions bit for bit, at twice
    # the weight; triple_quadrature relies on it to carry sums over
    for level in range(3, 11):
        x, omx, w = unit_nodes("singularity_split", level)
        xp, omxp, wp = unit_nodes("singularity_split", level - 1)
        assert len(x) == 2 * len(xp) - 1
        assert np.array_equal(x[0::2], xp) and np.array_equal(omx[0::2], omxp)
        assert np.array_equal(2.0 * w[0::2], wp)


def test_tanh_sinh_nodes_are_mirror_symmetric():
    # x == omx[::-1] bit for bit: where the kept columns are symmetric too,
    # the folded pass reads log sin(d (1 - x)) as log sin(d x) in reverse
    for level in range(3, MAX_QUADRATURE_LEVEL + 1):
        x, omx, w = unit_nodes("singularity_split", level)
        assert np.array_equal(x, omx[::-1]) and np.array_equal(w, w[::-1])


def _small_grid(mirrored):
    """Nested stand-ins for levels 3 and 4 of the node family: 15 interior
    columns, mirror-symmetric bit for bit or not, with positive weights;
    level 3 keeps the even positions at twice the weight."""
    h = np.array([0.03, 0.11, 0.2, 0.27, 0.36, 0.44, 0.49])
    if mirrored:
        x = np.concatenate([h, [0.5], (1.0 - h)[::-1]])
        omx = x[::-1].copy()
    else:
        x = np.concatenate([h, [0.5], (1.0 - 0.7 * h)[::-1]])
        omx = 1.0 - x
    w = 0.02 + x * omx
    return {3: (x[0::2], omx[0::2], 2.0 * w[0::2]), 4: (x, omx, w)}


def _folded_reference(data, lams, x, w):
    """The folded level sum (1/pi^2) sum_r (pi/2) w_r d_r sum_c w_c F(d_r, x_c),
    d = pi x / 2, node by node from kernel_on_circle and CircleFunction.evaluate:
    F sums g(a, b) K(a, b, 0) + g(b, a) K(b, a, 0) over the pieces a = d and
    a = pi - d at b = d x, with g(a, b) = c(a, b) + c(-a, -b) and
    c(a, b) = mean_z f1(a + z) f2(b + z) f3(z) over M equispaced z in [0, pi),
    exact for the degree-3P trigonometric polynomial once M > 3P."""
    f1, f2, f3 = data
    exps = exponents(*lams)
    m = 4 * max(f.max_mode for f in data) + 4
    z = np.pi * np.arange(m) / m

    def c(a, b):
        return np.mean(f1.evaluate(a[..., None] + z) * f2.evaluate(b[..., None] + z)
                       * f3.evaluate(z), axis=-1)

    d = (np.pi / 2.0) * x[:, None]
    b = d * x
    F = 0.0
    for a in (d + 0.0 * b, np.pi - d + 0.0 * b):
        F = F + ((c(a, b) + c(-a, -b)) * kernel_on_circle(a, b, 0.0, exps)
                 + (c(b, a) + c(-b, -a)) * kernel_on_circle(b, a, 0.0, exps))
    return np.sum((F @ w) * d[:, 0] * (np.pi / 2.0) * w) / np.pi ** 2


@pytest.mark.parametrize("mirrored", [True, False])
@pytest.mark.parametrize("lams", [(0.0, 4j, 4j), (0.3, -0.2, 0.1),
                                  (0.2 + 1j, -0.4 + 2j, 0.5j), (0.0, 0.0, 16j)])
def test_folded_kernel_matches_libm_reference(lams, mirrored, monkeypatch):
    # the tangent half-angle kernel against kernel_on_circle's libm
    # sin/log/complex exp on a small interior grid, for constant and Fourier
    # data; the mirrored grid takes the reversed log-sine branch, the other
    # one evaluates log sin(d (1 - x)) itself
    grid = _small_grid(mirrored)
    x, omx, w = grid[4]
    assert np.array_equal(x, omx[::-1]) == mirrored
    monkeypatch.setattr("triform.trilinear.unit_nodes",
                        lambda scheme, level: grid[level])
    monkeypatch.setattr(trilinear, "_GEOMETRY", {})
    before = dict(GEOMETRY)
    # levels 2 and 3 come from one pass over the level-3 grid and level 4
    # reuses it; an infinite target accepts level 4 wherever the three
    # levels show a falling rate, and the stalled estimate holds the same
    # level-4 sum where these few nodes show none
    cfg = QuadratureConfig(refinement_levels=2, target_rel_error=math.inf)
    rng = np.random.default_rng(7)
    fourier = (_random_data(rng, 2, 2), _random_data(rng, 1, 2),
               _random_data(rng, 2, 3))
    for data in ((ONES, ONES, ONES), fourier):
        try:
            est = triple_quadrature(*data, *lams, cfg)
        except NonConvergentError as exc:
            est = exc.estimate
        ref = _folded_reference(data, lams, x, w)
        assert est.method.endswith(("/level4", "/stalled"))
        assert est.cost == 2 * len(x) ** 2
        assert abs(est.value - ref) <= 1e-13 * abs(ref), (data[0].max_mode, lams)
    assert _same_table(GEOMETRY, before)


def test_quadrature_matches_closed_form_at_largest_phases():
    # at (8i, 8i, 8i) the kernel phases are the largest of the Tier-1 grid.
    # The reference is mpmath's: closed_form_value is off by 1.7e-14 there,
    # forty times the quadrature's error (3.9e-16), and near its bar
    ref = closed_form_mp(8j, 8j, 8j)
    est = triple_quadrature(ONES, ONES, ONES, 8j, 8j, 8j,
                            QuadratureConfig(target_rel_error=1e-10))
    assert est.method.endswith("/level8")
    assert abs(est.value - ref) <= min(1e-13 * abs(ref), est.error_bound)
    assert est.error_bound <= 1e-10 * abs(est.value)


def test_unit_nodes_refuses_other_schemes():
    with pytest.raises(PreconditionError, match="graded_mesh"):
        unit_nodes("graded_mesh", 5)


@pytest.mark.parametrize("cfg", [QuadratureConfig(target_rel_error=1e-6)])
def test_quadrature_cost_counts_evaluated_nodes(cfg):
    # both pieces of the folded half-triangle evaluate the kept rows times the
    # kept columns; nested levels only add the nodes their predecessor
    # lacked, so the total is that of the top level alone.  At (0.9, 0, 0)
    # the kernel powers have real parts (-0.05, -0.95, -0.95), so the tail
    # cut t^0.05 / 0.05 >= 2^-60 keeps every node down to t = 1e-130
    est = triple_quadrature(ONES, ONES, ONES, 0.9, 0, 0, cfg)
    top = int(est.method.rsplit("level", 1)[1])
    assert top > 3
    assert est.cost == 2 * len(unit_nodes("singularity_split", top)[0]) ** 2
    # on the principal series every power has real part -1/2: rows and
    # columns alike keep the nodes with t^(1/2) / (1/2) >= 2^-60 for t = x
    # and t = 1 - x, which are 255 of level 5's 337
    est = triple_quadrature(ONES, ONES, ONES, 0, 1j, 4j, cfg)
    assert est.method.endswith("/level5")
    x, omx, _ = unit_nodes("singularity_split", 5)
    kept = np.count_nonzero(np.minimum(x, omx) >= 2.0 ** -122)
    assert (len(x), kept) == (337, 255)
    assert est.cost == 2 * kept ** 2 == 130_050


# final level of each constant-data triple {0, 1, 2, 4}i at target 1e-6,
# where the bar from levels 2 .. k first meets the target (the two-level
# rule on levels 3 .. k stopped 5 triples at level 4, 8 at 5 and 7 at 6)
_SPHERICAL_LEVELS = {
    (0, 0, 0): 4, (0, 0, 1): 4, (0, 0, 2): 4, (0, 0, 4): 5, (0, 1, 1): 4,
    (0, 1, 2): 4, (0, 1, 4): 5, (0, 2, 2): 4, (0, 2, 4): 5, (0, 4, 4): 5,
    (1, 1, 1): 4, (1, 1, 2): 4, (1, 1, 4): 5, (1, 2, 2): 5, (1, 2, 4): 5,
    (1, 4, 4): 5, (2, 2, 2): 5, (2, 2, 4): 5, (2, 4, 4): 6, (4, 4, 4): 6,
}
# nodes evaluated up to that level on the principal series: 2 * kept^2 at
# the top level, with 127, 255 and 511 of the 169, 337 and 673 nodes kept
_SPHERICAL_COSTS = {4: 32_258, 5: 130_050, 6: 522_242}


def test_quadrature_truncation_keeps_levels_and_accuracy():
    # the node sets are pinned: every triple's final level and exact cost.
    # Each bar covers the error against mpmath and meets the target; the
    # largest error is 2.8e-9 relative, at (i, 4i, 4i) on level 5
    cfg = QuadratureConfig(target_rel_error=1e-6, refinement_levels=6)
    for trip, level in _SPHERICAL_LEVELS.items():
        lams = [1j * v for v in trip]
        est = triple_quadrature(ONES, ONES, ONES, *lams, cfg)
        ref = closed_form_mp(*lams)
        assert est.method.endswith(f"/level{level}"), (trip, est.method)
        assert est.cost == _SPHERICAL_COSTS[level], (trip, est.cost)
        assert abs(est.value - ref) <= est.error_bound, trip
        assert est.error_bound <= 1e-6 * abs(est.value), trip
        assert abs(est.value - ref) <= 5e-9 * abs(ref), trip


def test_quadrature_bars_cover_the_acceptance_grid():
    # the 27 triples {0, i, 4i}^3 of acceptance criterion 1, at its config
    cfg = QuadratureConfig(target_rel_error=1e-6, refinement_levels=6)
    for trip in itertools.product((0.0, 1j, 4j), repeat=3):
        est = triple_quadrature(ONES, ONES, ONES, *trip, cfg)
        assert abs(est.value - closed_form_mp(*trip)) <= est.error_bound, trip


def _level_records(monkeypatch, data, lams, levels, nodes=unit_nodes):
    """(value, cost, magnitude) of each of triple_quadrature's ``levels`` as
    refine_until receives them, with ``nodes`` in place of unit_nodes and
    an empty geometry table in place of the process's."""
    seen = {}

    def record(drawn, target, method):
        for level, *rest in drawn:
            if level in levels:
                seen[level] = tuple(rest)
            if level == max(levels):
                return Estimate(0.0, 0.0)

    monkeypatch.setattr("triform.trilinear.refine_until", record)
    monkeypatch.setattr("triform.trilinear.unit_nodes", nodes)
    monkeypatch.setattr(trilinear, "_GEOMETRY", {})
    before = dict(GEOMETRY)
    triple_quadrature(*data, *lams)
    assert _same_table(GEOMETRY, before)
    return seen


@pytest.mark.parametrize("lams", [(0.0, 1j, 4j), (0.3, -0.2, 0.1),
                                  (0.2 + 1j, -0.4 + 2j, 0.5j)])
def test_level_two_comes_from_the_level_three_pass(lams, monkeypatch):
    # level 2's nodes are level 3's even positions at twice the weight, so
    # one pass over level 3's grid gives level 2's sum from a second weight
    # column.  A pass over level 2's own grid (served as "level 3" here)
    # gives the same sum to a few ulps of its terms' magnitude: the node
    # values agree bit for bit, only the order of the additions differs
    def level_below(scheme, level):
        return unit_nodes(scheme, level - 1)

    rng = np.random.default_rng(11)
    fourier = (_random_data(rng, 2, 2), _random_data(rng, 1, 2),
               _random_data(rng, 2, 3))
    for data in ((ONES, ONES, ONES), fourier):
        shared = _level_records(monkeypatch, data, lams, (2, 3))
        alone = _level_records(monkeypatch, data, lams, (2, 3), level_below)
        (v2, cost2, m2), (v3, cost3, m3) = shared[2], shared[3]
        assert abs(v2 - alone[3][0]) <= 4 * EPS * m2, (lams, data[0].max_mode)
        assert abs(v2 - v3) > 4 * EPS * m2
        # the pass is booked once, on level 2, and its magnitude serves both
        assert cost3 == 0 and cost2 > alone[2][1] > 0 and m2 == m3


@pytest.mark.parametrize("lams", [(0.9, 0.0, 0.0), (0.6, 0.2, 0.1)])
def test_three_level_rule_stops_no_earlier_near_the_edge(lams, monkeypatch):
    # near the convergence edge the level differences only halve, and there
    # the bar d_k r / (1 - r) is about d_k: the rule must stop no earlier
    # than the two-level rule |v_k - v_(k-1)| <= target |v_k| on levels
    # 3, 4, ... did.  Both converge to a value biased by the strip beyond
    # the last node (x = 1e-130), which neither bar sees; that bias is
    # still open
    est = triple_quadrature(ONES, ONES, ONES, *lams,
                            QuadratureConfig(target_rel_error=1e-6))
    stop = int(est.method.rsplit("level", 1)[1])
    vals = {k: rec[0] for k, rec in _level_records(
        monkeypatch, (ONES, ONES, ONES), lams, range(2, stop + 1)).items()}
    assert any(abs(vals[k] - vals[k - 1]) <= 1e-6 * abs(vals[k])
               for k in range(4, stop + 1)), (stop, vals)


class _Untrimmed(trilinear._FoldedModes):
    """_FoldedModes that hold constant data on the modes -1..1, as zero
    padding was held before sym was cut to its support: the mode-factor
    path with factors 0 at mode 1."""

    def __init__(self, *args):
        super().__init__(*args)
        if self.P == 0:
            sym = np.zeros((3, 3), dtype=complex)
            sym[1, 1] = self.both[0, 0]
            self.both, self.P = np.concatenate([sym, sym.T], axis=1), 1


@pytest.mark.parametrize("values", [(1.0, 1.0, 1.0), (0.6 - 0.8j, 1.0, 2.0)])
@pytest.mark.parametrize("lams", [(0.0, 4j, 4j), (0.3, -0.2, 0.1),
                                  (0.2 + 1j, -0.4 + 2j, 0.5j),
                                  (0.45, 0.45, 0.05)])
def test_constant_data_fold_matches_the_general_path(lams, values, monkeypatch):
    # real constant data at Re c2 = 0 take the shared factor 2 c0 (S + 1/S);
    # the same data held on modes -1..1 by _Untrimmed take the mode-factor
    # path.  (0, 4i, 4i) and (0.45, 0.45, 0.05) have Re c2 = 0, the other
    # two not; a complex c0 takes the general path with constant factors.
    # At (0.45, 0.45, 0.05) 7,218 nodes overflow and are dropped, and
    # refinement stalls: both paths must drop the same ones
    def run(data):
        try:
            return triple_quadrature(*data, *lams)
        except NonConvergentError as exc:
            return exc.estimate

    data = [CircleFunction.constant(v) for v in values]
    a = run(data)
    monkeypatch.setattr(trilinear, "_FoldedModes", _Untrimmed)
    b = run(data)
    assert a.method == b.method and a.cost == b.cost
    assert abs(a.value - b.value) <= 1e-14 * abs(b.value), (a.value, b.value)
    assert b.method.endswith("/stalled") == (lams == (0.45, 0.45, 0.05))


@pytest.mark.parametrize("lam", [-30.0, -60.0])
def test_quadrature_truncation_with_positive_powers(lam):
    # real powers 14.5 and 29.5: the tail cut bounds |sin t|^s by 1, not by
    # t^s, and so keeps the rows that carry the mass; a cut at
    # y^(2 + sum Re s) / (2 + sum Re s) >= 2^-60 would drop every row below
    # y = 0.44 and 0.66, and refinement would stall
    cfg = QuadratureConfig(target_rel_error=1e-10, refinement_levels=7)
    est = triple_quadrature(ONES, ONES, ONES, lam, lam, lam, cfg)
    ref = closed_form_value(lam, lam, lam).value
    assert abs(est.value - ref) <= 1e-13 * abs(ref)


def test_quadrature_refuses_levels_above_maximum():
    # levels 3 .. 2 + refinement_levels; a loose target converges early, so
    # without the bound the refused call would return quickly, not hang
    cfg = QuadratureConfig(target_rel_error=1e-3,
                           refinement_levels=MAX_QUADRATURE_LEVEL - 1)
    with pytest.raises(PreconditionError, match="MAX_QUADRATURE_LEVEL"):
        triple_quadrature(ONES, ONES, ONES, 0, 1j, 4j, cfg)
    cfg = QuadratureConfig(target_rel_error=1e-3,
                           refinement_levels=MAX_QUADRATURE_LEVEL - 2)
    assert triple_quadrature(ONES, ONES, ONES, 0, 1j, 4j, cfg).cost > 0
    assert MAX_QUADRATURE_LEVEL >= 8        # the CLI's default top level


# ---------------------------------------------------------------------------
# the node-geometry cache
# ---------------------------------------------------------------------------

# the principal series' seven parts of levels 3-6: the level-3 pass, then
# new rows and new columns of each later level
PRINCIPAL_PARTS = {(3, "all")} | {(level, part) for level in (4, 5, 6)
                                  for part in ("new rows", "new cols")}
PRINCIPAL_BYTES = 8_363_520


def _fields(est):
    return est.value, est.error_bound, est.method, est.cost


def _estimate(data, lams, cfg=None):
    try:
        return _fields(triple_quadrature(*data, *lams, cfg))
    except NonConvergentError as exc:
        return _fields(exc.estimate)


def _lift8_data():
    """quad_fourier's lift-8 data at (0, i, 2i) and one seeded moved copy."""
    base = [CircleFunction.from_modes({0: 1.0, 2: 0.3}, 8),
            CircleFunction.from_modes({0: 1.0, -2: 0.2, 4: 0.1}, 8),
            CircleFunction.from_modes({0: 1.0}, 8)]
    g = random_sl2(np.random.default_rng(7), max_norm=1.3)
    lams = (0.0, 1j, 2j)
    return [(base, lams), ([group_action(g, l, f) for l, f in zip(lams, base)], lams)]


class _ReadLog(dict):
    """A geometry table that logs what each lookup returns."""

    def __init__(self, table):
        super().__init__(table)
        self.read = []

    def get(self, key, default=None):
        self.read.append((key, super().get(key, default)))
        return self.read[-1][1]


@pytest.mark.parametrize("cases", [
    [((ONES,) * 3, tuple(1j * v for v in t))
     for t in itertools.combinations_with_replacement((0, 1, 2, 4), 3)],
    [((ONES,) * 3, (0.3 + 1j, -0.3, 2j)), ((ONES,) * 3, (0.3, -0.2, 0.1))],
    _lift8_data()], ids=["bench-triples", "unmirrored-columns", "lift-8"])
def test_cold_and_warm_geometry_give_the_same_estimate(cases, monkeypatch):
    # value, bar, level and cost of a call with an empty table equal, bit for
    # bit, those of the same call after it.  A principal-series warm call
    # reads the very arrays the cold one stored; (0.3 + i, -0.3, 2i) and
    # (0.3, -0.2, 0.1) are not principal (nor are their kept columns
    # mirror-symmetric) and store nothing
    cfg = QuadratureConfig(refinement_levels=6, target_rel_error=1e-6)
    for data, lams in cases:
        principal = not any(complex(lam).real for lam in lams)
        monkeypatch.setattr(trilinear, "_GEOMETRY", {})
        cold = _estimate(data, lams, cfg)
        stored = dict(trilinear._GEOMETRY)
        assert bool(stored) == principal and set(stored) <= PRINCIPAL_PARTS
        monkeypatch.setattr(trilinear, "_GEOMETRY", _ReadLog(stored))
        assert _estimate(data, lams, cfg) == cold, lams
        if principal:
            assert {key for key, _ in trilinear._GEOMETRY.read} == set(stored)
            assert all(arrays is stored[key]
                       for key, arrays in trilinear._GEOMETRY.read)
        assert _same_table(trilinear._GEOMETRY, stored)


def test_cached_geometry_is_read_only():
    # per part: log sin d, log sin(d x), log sin(d (1 + x)) and two moduli
    triple_quadrature(ONES, ONES, ONES, 0, 1j, 4j)
    arrays = [a for part in GEOMETRY.values() for a in part]
    assert len(arrays) == 5 * len(GEOMETRY) > 0
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


def test_stored_moduli_recompute_from_the_stored_log_sines():
    # on the principal series Re c1 = Re sG = -1/2, so each piece's stored
    # modulus is e^{Re sG lg + Re c1 (lA + lB)}, bit for bit, from the
    # stored log-sines; (2i, 4i, 4i) reaches level 6 and so all seven parts
    cfg = QuadratureConfig(refinement_levels=6, target_rel_error=1e-6)
    assert triple_quadrature(ONES, ONES, ONES, 2j, 4j, 4j, cfg).method.endswith("/level6")
    assert set(GEOMETRY) == PRINCIPAL_PARTS
    for key, (lA, lB, lP, m0, m1) in GEOMETRY.items():
        pR = (lA + lB) * -0.5
        for lg, m in ((lB[:, ::-1], m0), (lP, m1)):
            assert np.array_equal(np.exp(lg * -0.5 + pR), m), key
            assert not m.flags.writeable


def test_geometry_table_holds_the_principal_parts_of_levels_3_to_6(monkeypatch):
    # stalled sweeps to level 8 on and off the principal series store the
    # principal parts of levels 3-6 and nothing else: a fixed size
    monkeypatch.setattr(trilinear, "_GEOMETRY", {})
    stall = QuadratureConfig(refinement_levels=6, target_rel_error=1e-300)
    for lams in ((0.3 + 1j, -0.3, 2j), (0.0, 1j, 4j), (0.3, -0.2, 0.1)):
        with pytest.raises(NonConvergentError) as info:
            triple_quadrature(ONES, ONES, ONES, *lams, stall)
        assert info.value.estimate.method.endswith("/stalled")
    assert set(trilinear._GEOMETRY) == PRINCIPAL_PARTS
    assert sum(a.nbytes for part in trilinear._GEOMETRY.values()
               for a in part) == PRINCIPAL_BYTES


def test_geometry_cache_under_threads(monkeypatch):
    # four threads sweep principal and other triples from an empty table
    # with a short switch interval: every estimate equals the
    # single-threaded one, and the table holds the principal parts reached
    stall = QuadratureConfig(refinement_levels=3, target_rel_error=1e-300)
    triples = [(0.0, 1j, 4j), (0.3 + 1j, -0.3, 2j), (0.3, -0.2, 0.1),
               (0.2 + 1j, -0.4 + 2j, 0.5j), (0.1, 0.1, 0.1)]

    def sweep(out):
        for lams in triples:
            with pytest.raises(NonConvergentError) as info:
                triple_quadrature(ONES, ONES, ONES, *lams, stall)
            out.append(_fields(info.value.estimate))

    expected = []
    sweep(expected)
    monkeypatch.setattr(trilinear, "_GEOMETRY", {})
    results = [[] for _ in range(4)]
    threads = [threading.Thread(target=sweep, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4
    assert set(trilinear._GEOMETRY) == {key for key in PRINCIPAL_PARTS
                                         if key[0] <= 5}


@pytest.mark.parametrize("data, lams, cfg, error", [
    ((CircleFunction.from_modes({0: 1.0, 2: np.nan}, 1), ONES, ONES),
     (0, 1j, 4j), None, NonFiniteError),
    ((ONES,) * 3, (0, 1j, 4j),
     QuadratureConfig(refinement_levels=MAX_QUADRATURE_LEVEL - 1), PreconditionError),
    ((ONES,) * 3, (0.4, 0.3, 0.3), None, PreconditionError)],
    ids=["nan-coefficient", "level-above-maximum", "divergent"])
def test_refused_inputs_leave_the_geometry_cache_alone(data, lams, cfg, error):
    triple_quadrature(ONES, ONES, ONES, 0, 1j, 4j)
    before = dict(GEOMETRY)
    with pytest.raises(error):
        triple_quadrature(*data, *lams, cfg)
    assert _same_table(GEOMETRY, before)


@pytest.mark.parametrize("level", range(3, MAX_QUADRATURE_LEVEL + 1))
def test_kept_nodes_are_one_run(level):
    # the tail cut keeps one run of node indices for every exponent pair, so
    # a range names the kept rows and columns
    x, omx, _ = unit_nodes("singularity_split", level)
    for p, q in itertools.product((0.05, 0.5, 1.0, 3.0, 30.0), repeat=2):
        lo, hi = trilinear._kept_range(x, omx, p, q)
        kept = trilinear._tail_kept(x, p) & trilinear._tail_kept(omx, q)
        assert np.array_equal(np.flatnonzero(kept), np.arange(lo, hi)), (p, q)


# ---------------------------------------------------------------------------
# the per-thread block workspace
# ---------------------------------------------------------------------------

# (value, error_bound, final level, cost) of the constant-data triples
# {0, 1, 2, 4}i at (levels 6, target 1e-6), and of the lift-8 data and its
# first seed-7 moved copy at (levels 4, target 1e-5), as the quadrature gave
# them before its block temporaries moved into the workspace (numpy 2.4.6
# on x86-64: the SIMD tan, exp and log may differ elsewhere in the last place)
_PINNED_TRIPLES = {
    (0, 0, 0): (complex(5.572815718742708, 0.0), 4.949654658352135e-15, 4, 32258),
    (0, 0, 1): (complex(1.1425229386184295, 1.522463150548381), 6.0607370406694176e-15, 4, 32258),
    (0, 0, 2): (complex(0.05782508620389611, 0.42433489148681486), 1.0545671235338297e-14, 4, 32258),
    (0, 0, 4): (complex(-0.022785799949327872, 0.03337542381534173), 5.2499178442284486e-15, 5, 130050),
    (0, 1, 1): (complex(1.3240425558711382, 1.631016176430851), 3.168024985183404e-14, 4, 32258),
    (0, 1, 2): (complex(0.42521644449924084, 0.6252245652827585), 5.009451033223755e-10, 4, 32258),
    (0, 1, 4): (complex(0.013491280820670864, 0.06529839748992676), 7.584624997145299e-13, 5, 130050),
    (0, 2, 2): (complex(0.8951315528796379, 1.02379285624154), 1.9842917538304893e-07, 4, 32258),
    (0, 2, 4): (complex(0.08800203207366139, 0.1393103103012816), 8.789213109053744e-11, 5, 130050),
    (0, 4, 4): (complex(0.6470134623379832, 0.6896382077443701), 9.487156252472553e-08, 5, 130050),
    (1, 1, 1): (complex(-0.05426724095710017, 1.6305026295558742), 8.028531868006737e-10, 4, 32258),
    (1, 1, 2): (complex(0.26249217227428556, 1.0040286370769334), 1.4147271526291607e-07, 4, 32258),
    (1, 1, 4): (complex(0.08114421506260724, 0.07569277851050857), 3.0952942027069485e-11, 5, 130050),
    (1, 2, 2): (complex(-0.14347546736596914, 1.0107840373550774), 2.2153063669137385e-12, 5, 130050),
    (1, 2, 4): (complex(0.20971574844249224, 0.1821027988046475), 1.3494889224762311e-09, 5, 130050),
    (1, 4, 4): (complex(-0.09884037481263715, 0.6914477858992489), 4.7410115622655156e-07, 5, 130050),
    (2, 2, 2): (complex(-0.31540356341544096, 0.6928357407623235), 1.8230944910968878e-10, 5, 130050),
    (2, 2, 4): (complex(0.17079261719987945, 0.533527521758785), 4.924075693993939e-08, 5, 130050),
    (2, 4, 4): (complex(-0.2591846353452065, 0.4182658975303742), 6.240401458053885e-13, 6, 522242),
    (4, 4, 4): (complex(-0.2733865307618645, 0.22210823540864388), 5.5474596998284706e-11, 6, 522242),
}
_PINNED_LIFT8 = [
    (complex(0.4312166881227563, 0.5937113349892958), 5.127842035239049e-10, 4, 32258),
    (complex(0.43121668812312025, 0.5937113349903924), 4.760766174048437e-10, 4, 32258),
]
_LIFT8_CFG = QuadratureConfig(target_rel_error=1e-5, refinement_levels=4)


def _pinned_fields(est):
    return est.value, est.error_bound, int(est.method.rsplit("level", 1)[1]), est.cost


def test_lifted_data_give_the_estimate_of_their_support():
    # sym is cut to its support, so zero padding costs nothing and changes
    # no bit: quad_fourier's lift-8 data (support 1) give the estimate of
    # the same functions at their own max_mode, and constant data stored
    # with max_mode 3 that of constant data, on and off the principal series
    (lifted, lams), _ = _lift8_data()
    own = [CircleFunction.from_modes({0: 1.0, 2: 0.3}, 1),
           CircleFunction.from_modes({0: 1.0, -2: 0.2, 4: 0.1}, 2), ONES]
    assert trilinear._FoldedModes(*lifted, exponents(*lams).kernel_powers()).P == 1
    assert _estimate(lifted, lams, _LIFT8_CFG) == _estimate(own, lams, _LIFT8_CFG)
    consts = [CircleFunction.from_modes({0: v}, 3) for v in (1.0, 0.5, 2.0)]
    for lams in ((0.0, 1j, 4j), (0.3 + 1j, -0.3, 2j)):
        assert _estimate(consts, lams) == _estimate(
            [CircleFunction.constant(v) for v in (1.0, 0.5, 2.0)], lams)


def test_bench_estimates_are_pinned_bit_for_bit():
    # each pair is checked cold (empty geometry table) and warm
    cfg = QuadratureConfig(refinement_levels=6, target_rel_error=1e-6)
    for trip, pinned in _PINNED_TRIPLES.items():
        lams = [1j * v for v in trip]
        for _ in range(2):
            est = triple_quadrature(ONES, ONES, ONES, *lams, cfg)
            assert _pinned_fields(est) == pinned, trip
    for (data, lams), pinned in zip(_lift8_data(), _PINNED_LIFT8):
        for _ in range(2):
            assert _pinned_fields(triple_quadrature(*data, *lams, _LIFT8_CFG)) == pinned


def _fourier_sweep():
    """Estimates of Fourier data with P = 1, 8 and 16 (each growing a
    fresh workspace's table) at a principal and two other triples."""
    rng = np.random.default_rng(5)
    cfg = QuadratureConfig(refinement_levels=3, target_rel_error=1e-300)
    out = [_estimate(data, lams, _LIFT8_CFG) for data, lams in _lift8_data()]
    for P in (1, 8, 16):
        data = (_random_data(rng, P, P), _random_data(rng, P - 1, P),
                _random_data(rng, P, P))
        for lams in ((0.0, 1j, 2j), (0.3 + 1j, -0.3, 2j), (0.3, -0.2, 0.1)):
            out.append(_estimate(data, lams, cfg))
    return out


def test_workspace_is_per_thread_under_threads():
    # four threads sweep Fourier data with a short switch interval, each on
    # its own workspace: every estimate equals the single-threaded one
    expected = _fourier_sweep()
    results = [None] * 4

    def sweep(i):
        results[i] = _fourier_sweep()

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4


def _assert_views_are_prefixes(ws, *blocks):
    """Each temporary of each block, and of each block the workspace keeps,
    is a C-contiguous prefix of a row of one of its flat buffers (of the
    whole of a 1-D one)."""
    buffers = [ws.real, ws.row, ws.cplx, ws.table, ws.product]
    names = (*trilinear._REAL, *trilinear._ROW, *trilinear._COMPLEX, "mag",
             "table", "product")
    assert 0 < len(ws.blocks) <= trilinear._BLOCK_SHAPES
    for blk in (*ws.blocks.values(), *blocks):
        for name in names:
            a = getattr(blk, name)
            assert isinstance(a, np.ndarray) and a.flags.c_contiguous, name
            base = [b for b in buffers if a.base is b]
            assert base, name
            row = base[0].strides[0] if base[0].ndim == 2 else base[0].nbytes
            offset = a.ctypes.data - base[0].ctypes.data
            assert offset % row == 0 and a.nbytes <= row, name


def test_workspace_grows_to_its_blocks():
    # a fresh thread (a fresh workspace) runs bench-shaped traffic: the 20
    # principal triples, then the lift-8 data and its 3 seed-7 moved copies;
    # their blocks fit in 3,538,944 B.  P = 16 data and a row block of
    # level 10 then grow the buffers, and every block's views stay
    # prefixes of the grown ones, also after a level-8 constant call
    def traffic():
        cfg = QuadratureConfig(refinement_levels=6, target_rel_error=1e-6)
        for trip in _PINNED_TRIPLES:
            triple_quadrature(ONES, ONES, ONES, *(1j * v for v in trip), cfg)
        (base, lams), _ = _lift8_data()
        rng = np.random.default_rng(7)
        for data in [base] + [[group_action(random_sl2(rng, max_norm=1.3), l, f)
                               for l, f in zip(lams, base)] for _ in range(3)]:
            triple_quadrature(*data, *lams, _LIFT8_CFG)
        ws = trilinear._workspace()
        bench_bytes = sum(b.nbytes for b in (ws.real, ws.row, ws.cplx, ws.table,
                                             ws.product))
        _fourier_sweep()
        _assert_views_are_prefixes(ws)
        blk = ws.block(1, 10_753, 16)
        _assert_views_are_prefixes(ws, blk)
        assert blk.table.shape == (1, 10_753, 16)
        _fourier_sweep()
        stall = QuadratureConfig(refinement_levels=6, target_rel_error=1e-300)
        with pytest.raises(NonConvergentError):   # levels 7 and 8 off the table
            triple_quadrature(ONES, ONES, ONES, 0.0, 1j, 4j, stall)
        _assert_views_are_prefixes(ws)
        return bench_bytes

    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(traffic).result(timeout=300) <= 3_538_944


@pytest.mark.slow
def test_warm_quadrature_takes_no_page_faults():
    # three lift-8 quadratures in a fresh interpreter, then three principal
    # constant-data ones that reach level 6, and so read every part of the
    # geometry table: each third call touches only memory the first two did
    # (a per-block allocation took about 600 minor faults per call)
    pytest.importorskip("resource")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = """
import resource
from triform import CircleFunction, QuadratureConfig, triple_quadrature
data = [CircleFunction.from_modes({0: 1.0, 2: 0.3}, 8),
        CircleFunction.from_modes({0: 1.0, -2: 0.2, 4: 0.1}, 8),
        CircleFunction.from_modes({0: 1.0}, 8)]
ones = [CircleFunction.constant(1.0)] * 3
for data, lams, cfg in (
        (data, (0.0, 1j, 2j), QuadratureConfig(target_rel_error=1e-5, refinement_levels=4)),
        (ones, (2j, 4j, 4j), QuadratureConfig(target_rel_error=1e-6, refinement_levels=6))):
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        est = triple_quadrature(*data, *lams, cfg)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, est.method)
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (fourier, _), (constant, method) = (line.split() for line in proc.stdout.splitlines())
    assert method.endswith("/level6")
    assert int(fourier) < 50 and int(constant) < 50, proc.stdout


# ---------------------------------------------------------------------------
# mode elements
# ---------------------------------------------------------------------------

def mode(freq):
    """The single even Fourier mode e^{i freq theta}."""
    return CircleFunction.from_modes({freq: 1.0}, abs(freq) // 2)


def mode_quadrature(m, n, k, lams, cfg=None):
    """Quadrature value on the modes e^{imx} (x) e^{iny} (x) e^{ikz}."""
    return triple_quadrature(mode(m), mode(n), mode(k), *lams, cfg)


def test_mode_element_zero_modes_match_closed_form():
    ref = closed_form_value(0, 1j, 4j).value
    est = mode_quadrature(0, 0, 0, (0, 1j, 4j))
    assert abs(est.value - ref) <= 1e-5 * abs(ref)


def test_mode_element_conjugation_identities():
    # |sin| is even, so negating all modes leaves the element unchanged, and
    # complex conjugation reflects the spectral parameters lam -> -lam;
    # composing the two gives the conjugate-mode relation
    cfg = QuadratureConfig(target_rel_error=1e-7)
    a = mode_quadrature(2, -4, 2, (0, 1j, 4j), cfg).value
    flipped = mode_quadrature(-2, 4, -2, (0, 1j, 4j), cfg).value
    assert abs(flipped - a) <= 1e-8 * abs(a)
    reflected = mode_quadrature(-2, 4, -2, (0, -1j, -4j), cfg).value
    assert abs(reflected - np.conj(a)) <= 1e-6 * abs(a)


def test_spectral_matches_quadrature():
    for (m, n) in ((0, 0), (2, -2), (4, 2), (-8, 6)):
        k = -(m + n)
        a = mode_quadrature(m, n, k, (0, 1j, 4j),
                            QuadratureConfig(target_rel_error=1e-8)).value
        b = spectral_mode_values((m // 2, n // 2), 0, 1j, 4j)[0]
        assert abs(a - b) <= 1e-6 * max(abs(a), 1e-6)


@settings(max_examples=20, deadline=None)
@given(lams=st.tuples(lam_strategy, lam_strategy, lam_strategy),
       m=st.integers(-6, 6), n=st.integers(-6, 6))
def test_spectral_negation_and_conjugation(lams, m, n):
    # |sin| is even, so negating both indices leaves the value unchanged;
    # complex conjugation conjugates the kernel powers, i.e. lam -> conj(lam)
    v, negated = spectral_mode_values([(m, n), (-m, -n)], *lams)
    conj = spectral_mode_values([(m, n)], *np.conj(lams))[0]
    assert abs(negated - v) <= 1e-12 * abs(v)
    assert abs(conj - np.conj(v)) <= 1e-12 * abs(v)


@pytest.mark.parametrize("lams, calls", [((0.0, 1j, 2j), 3), ((1j, 1j, 0.5j), 2),
                                         ((0.0, 0.0, 0.0), 1)])
def test_spectral_takes_one_series_per_distinct_power(lams, calls, monkeypatch):
    # l1 == l2 makes sA == sB, and l1 == l2 == l3 all three powers equal
    seen = []

    def counted(s, kmax):
        seen.append(s)
        return sine_power_coeffs(s, kmax)

    monkeypatch.setattr(trilinear, "sine_power_coeffs", counted)
    spectral_mode_values([(0, 0), (1, -2)], *lams)
    assert len(seen) == len(set(seen)) == calls


def test_spectral_rejects_divergent_convolution():
    with pytest.raises(PreconditionError):
        spectral_mode_values((0, 0), 0.9, 0.95, 0.9)


def _crude_3d(m, n, k, lams, n_grid=200):
    """Staggered-midpoint 3-D quadrature: an independent, low-accuracy oracle.

    The |sin|^(-1/2) planes limit it to a few-percent-of-scale accuracy; its
    a-posteriori error is taken from a coarse/fine difference.
    """
    e = exponents(*lams)
    pa, pb, pg = e.kernel_powers()
    h = 2 * np.pi / n_grid
    x = h * (np.arange(n_grid) + 0.13)
    y = h * (np.arange(n_grid) + 0.38)
    z = h * (np.arange(n_grid) + 0.71)
    X = x[:, None, None]
    Y = y[None, :, None]
    Z = z[None, None, :]
    K = np.exp(pa * np.log(np.abs(np.sin(Y - Z)))
               + pb * np.log(np.abs(np.sin(X - Z)))
               + pg * np.log(np.abs(np.sin(X - Y))))
    F = np.exp(1j * (m * X + n * Y + k * Z)) * K
    return F.sum() * h ** 3 / (2 * np.pi) ** 3


def loop_mode_value(mp, np_, lams, J, fitn=60):
    """One pair by the defining sum: |j| <= J term by term, then a
    least-squares (A + C/j) j^-w fit on each 60-term tail window, summed
    with Hurwitz zeta values (mpmath)."""
    sA, sB, sG = exponents(*lams).kernel_powers()
    w = 3.0 + sA + sB + sG
    kmax = J + fitn + max(abs(mp), abs(np_)) + 2
    cA, cB, cG = (sine_power_coeffs(s, kmax) for s in (sA, sB, sG))
    j = np.arange(-(J + fitn), J + fitn + 1)
    terms = cG[np.abs(j)] * cB[np.abs(-mp - j)] * cA[np.abs(j - np_)]
    val = np.sum(terms[np.abs(j) <= J])
    jj = np.arange(J + 1, J + fitn + 1)
    design = np.stack([np.ones(fitn), 1.0 / jj], axis=1)
    tails = [complex(mpmath.zeta(w + d, J + 1)) for d in (0, 1)]
    for side in (jj, -jj):
        coef = np.linalg.lstsq(design, terms[side + J + fitn] * jj ** w,
                               rcond=None)[0]
        val += coef[0] * tails[0] + coef[1] * tails[1]
    return val


@pytest.mark.parametrize("lams", [(0.0, 1j, 4j), (0.5j, -1j, 2.5j)])
def test_spectral_batch_matches_single_pairs(lams):
    # several antidiagonals m'+n' (2, -9, -3, 0, 9), unsorted pairs, a
    # duplicate, negative indices and lone pairs; the batched call and each
    # single call give the defining loop's value at their own cutoff
    pairs = [(3, -1), (-2, 4), (0, 2), (3, -1), (-5, -4), (1, 1), (4, -2),
             (-3, 0), (0, 0), (6, 3), (-1, -2)]

    def cutoff(ps):     # the cutoff J of a call on the pairs ps
        return 2000 + 10 * int(np.max(np.abs(ps)))

    batch = spectral_mode_values(pairs, *lams)
    single = np.array([spectral_mode_values([p], *lams)[0] for p in pairs])
    at_batch_j = np.array([loop_mode_value(*p, lams, cutoff(pairs)) for p in pairs])
    at_own_j = np.array([loop_mode_value(*p, lams, cutoff([p])) for p in pairs])
    assert np.max(np.abs(batch - at_batch_j) / np.abs(at_batch_j)) <= 1e-12
    assert np.max(np.abs(single - at_own_j) / np.abs(at_own_j)) <= 1e-12
    assert batch[0] == batch[3]
    assert spectral_mode_values(np.empty((0, 2), dtype=int), *lams).shape == (0,)
    with pytest.raises(PreconditionError, match="shape"):
        spectral_mode_values([(1, 2, 3)], *lams)


def test_mode_elements_against_crude_3d_oracle():
    lams = (0, 1j, 2j)
    scale = abs(closed_form_value(*lams).value)
    # a vanishing element: no z-mean survives translation averaging
    crude_zero = _crude_3d(2, 0, 0, lams, 200)
    assert abs(crude_zero) <= 0.05 * scale
    # a surviving element agrees with the reduced quadrature within the
    # oracle's own a-posteriori error (and is far above the vanishing one)
    coarse = _crude_3d(2, -2, 0, lams, 150)
    crude = _crude_3d(2, -2, 0, lams, 300)
    fine = mode_quadrature(2, -2, 0, lams).value
    assert abs(crude - fine) <= 4.0 * abs(crude - coarse)
    assert abs(crude_zero) <= 0.05 * abs(fine)


# ---------------------------------------------------------------------------
# |sin|^s series sanity
# ---------------------------------------------------------------------------

def test_sine_power_coeffs_against_quadrature():
    # coefficients vs a direct endpoint-singular quadrature: by the symmetry
    # t -> pi - t the integral (1/pi) int_0^pi |sin t|^s cos(2kt) dt equals
    # (2/pi) int_0^{pi/2}, leaving a single singular endpoint at t = 0
    from triform.quadrature import unit_nodes
    x, _, w = unit_nodes("singularity_split", 8)
    t = (np.pi / 2) * x
    wt = (np.pi / 2) * w
    for s in (-0.5, -0.5 + 3j, -0.9, 0.7, 2.0):
        c = sine_power_coeffs(s, 12)
        base = np.exp(complex(s) * np.log(np.sin(t)))
        for k in (0, 1, 2, 5, 12):
            ref = 2.0 * np.sum(base * np.cos(2 * k * t) * wt) / np.pi
            assert abs(c[k] - ref) <= 1e-10 * max(1.0, abs(ref)), (s, k)


def test_sine_power_series_reconstructs_function(rng):
    # raw partial sums converge like K^(-1-Re s); at K = 4000 and s = -1/2
    # that is a fraction of a percent pointwise
    for s in (-0.5, -0.5 + 3j, 1.0, 2.0):
        c = sine_power_coeffs(s, 4000)
        k = np.arange(1, len(c))
        for t in rng.uniform(0.3, np.pi - 0.3, 8):
            series = c[0] + 2.0 * np.sum(c[1:] * np.cos(2 * k * t))
            exact = np.exp(complex(s) * np.log(abs(np.sin(t))))
            assert abs(series - exact) <= 3e-2 * max(1.0, abs(exact)), s


def test_sine_power_trig_polynomial():
    c = sine_power_coeffs(2.0, 8)
    assert abs(c[0] - 0.5) < 1e-13
    assert abs(c[1] + 0.25) < 1e-13
    assert np.max(np.abs(c[2:])) < 1e-13
    # past the degree, up to k = 2 + s/2, the coefficients are exact zeros
    assert c[2] == c[3] == 0.0
    c = sine_power_coeffs(4.0, 8)      # 3/8 - cos(2t)/2 + cos(4t)/8
    assert np.max(np.abs(c[:3] - [0.375, -0.25, 0.0625])) < 1e-13
    assert c[3] == c[4] == 0.0 and np.max(np.abs(c[5:])) < 1e-13


@pytest.mark.parametrize("s", [complex(0.0, math.inf), math.nan])
def test_sine_power_coeffs_refuses_a_non_finite_power(s):
    # s = i inf gave an all-NaN series, s = nan numpy's ValueError
    with pytest.raises(NonFiniteError):
        sine_power_coeffs(s, 4)


@pytest.mark.parametrize("kmax", [-1, 2.5])
def test_sine_power_coeffs_refuses_a_kmax_that_is_no_count(kmax):
    # kmax = -1 gave an IndexError, 2.5 a TypeError
    with pytest.raises(PreconditionError, match="kmax"):
        sine_power_coeffs(0.5, kmax)
