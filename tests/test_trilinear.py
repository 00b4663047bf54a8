"""Trilinear functional: contour functional, closed form, quadrature, decay."""

import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triform import (CircleFunction, DomainTooSmallError, NonFiniteError,
                     PoleArgumentError, PreconditionError, QuadratureConfig,
                     closed_form_value, decay_constant, decay_envelope,
                     exponents, group_action, invariant_functional,
                     mode_element, mode_element_spectral, normalized_decay,
                     sine_power_coeffs, spectral_mode_values,
                     spherical_square, triple_quadrature)
from triform.quadrature import unit_nodes
from triform.specdecomp import random_sl2
from triform.trilinear import MAX_QUADRATURE_LEVEL

# Gamma(1/4)^4 / pi^3, computed independently at 40 digits
A000 = 5.5728157187427074367
# closed form at (0, 0, 10j), independent 40-digit evaluation
A0010 = -6.254263599920590863e-05 - 1.2583705083835460888e-04j

ONES = CircleFunction.constant(1.0)

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


def test_invariant_functional_ellipse():
    est = invariant_functional(lambda x, y: 1.0 / (x * x + y * y),
                               contour=("ellipse", 2.0, 1.0))
    assert abs(est.value - 1.0) <= 1e-10


def test_invariant_functional_contour_independence():
    def f(x, y):
        return (x * x - 3.0 * x * y + 2.0 * y * y) / (x * x + y * y) ** 2

    contours = ["unit_circle", ("ellipse", 2.0, 1.0), ("ellipse", 1.0, 3.0),
                ("ellipse", 0.5, 0.8)]
    vals = [invariant_functional(f, c).value for c in contours]
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
    c, err = decay_constant(0, 0, [50.0])
    assert c == normalized_decay(0, 0, 50j)
    assert err == np.inf


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
    assert mode_element(2, 0, 0, 0, 1j, 2j, cfg).value == 0.0
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
    for level in range(4, 11):
        x, omx, w = unit_nodes("singularity_split", level)
        xp, omxp, wp = unit_nodes("singularity_split", level - 1)
        assert len(x) == 2 * len(xp) - 1
        assert np.array_equal(x[0::2], xp) and np.array_equal(omx[0::2], omxp)
        assert np.array_equal(2.0 * w[0::2], wp)


def test_unit_nodes_refuses_other_schemes():
    with pytest.raises(ValueError, match="graded_mesh"):
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
# as the untruncated tensor grid reached it: the tail cut must not cost a
# level
_SPHERICAL_LEVELS = {
    (0, 0, 0): 4, (0, 0, 1): 4, (0, 0, 2): 4, (0, 0, 4): 5, (0, 1, 1): 4,
    (0, 1, 2): 5, (0, 1, 4): 5, (0, 2, 2): 5, (0, 2, 4): 6, (0, 4, 4): 6,
    (1, 1, 1): 5, (1, 1, 2): 5, (1, 1, 4): 5, (1, 2, 2): 5, (1, 2, 4): 6,
    (1, 4, 4): 6, (2, 2, 2): 5, (2, 2, 4): 6, (2, 4, 4): 6, (4, 4, 4): 6,
}


def test_quadrature_truncation_keeps_levels_and_accuracy():
    cfg = QuadratureConfig(target_rel_error=1e-6, refinement_levels=6)
    for trip, level in _SPHERICAL_LEVELS.items():
        lams = [1j * v for v in trip]
        est = triple_quadrature(ONES, ONES, ONES, *lams, cfg)
        ref = closed_form_value(*lams).value
        assert est.method.endswith(f"/level{level}"), (trip, est.method)
        assert abs(est.value - ref) <= 1e-13 * abs(ref), trip


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
# mode elements
# ---------------------------------------------------------------------------

def test_mode_element_translation_invariance_exact():
    est = mode_element(2, 2, 0, 0, 1j, 2j)
    assert est.value == 0.0 and est.error_bound == 0.0


def test_mode_element_zero_modes_match_closed_form():
    ref = closed_form_value(0, 1j, 4j).value
    est = mode_element(0, 0, 0, 0, 1j, 4j)
    assert abs(est.value - ref) <= 1e-5 * abs(ref)


def test_mode_element_conjugation_identities():
    # |sin| is even, so negating all modes leaves the element unchanged, and
    # complex conjugation reflects the spectral parameters lam -> -lam;
    # composing the two gives the conjugate-mode relation
    cfg = QuadratureConfig(target_rel_error=1e-7)
    a = mode_element(2, -4, 2, 0, 1j, 4j, cfg).value
    flipped = mode_element(-2, 4, -2, 0, 1j, 4j, cfg).value
    assert abs(flipped - a) <= 1e-8 * abs(a)
    reflected = mode_element(-2, 4, -2, 0, -1j, -4j, cfg).value
    assert abs(reflected - np.conj(a)) <= 1e-6 * abs(a)


def test_mode_element_requires_even_modes():
    with pytest.raises(ValueError):
        mode_element(1, -1, 0, 0, 0, 0)


def test_spectral_matches_quadrature():
    for (m, n) in ((0, 0), (2, -2), (4, 2), (-8, 6)):
        k = -(m + n)
        a = mode_element(m, n, k, 0, 1j, 4j,
                         QuadratureConfig(target_rel_error=1e-8)).value
        b = mode_element_spectral(m, n, k, 0, 1j, 4j).value
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


def test_spectral_rejects_divergent_convolution():
    with pytest.raises(PreconditionError):
        mode_element_spectral(0, 0, 0, 0.9, 0.95, 0.9)


def test_spectral_cost_counts_convolution_terms():
    # the cutoff grows with the indices, J = 2000 + 10 * max(|m/2|, |n/2|),
    # and the sum runs over |j| <= J plus a 60-term tail-fit window per side
    assert mode_element_spectral(400, -400, 0, 0, 1j, 4j).cost == 2 * (4000 + 60) + 1
    assert mode_element_spectral(0, 0, 0, 0, 1j, 4j).cost == 2 * (2000 + 60) + 1


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
    # duplicate, negative indices and lone pairs; at a fixed cutoff one
    # batched call gives every pair's value of its own call and of the
    # defining loop
    pairs = [(3, -1), (-2, 4), (0, 2), (3, -1), (-5, -4), (1, 1), (4, -2),
             (-3, 0), (0, 0), (6, 3), (-1, -2)]
    batch = spectral_mode_values(pairs, *lams, jmax=800)
    single = np.array([spectral_mode_values([p], *lams, jmax=800)[0]
                       for p in pairs])
    loop = np.array([loop_mode_value(mp, np_, lams, 800) for mp, np_ in pairs])
    assert np.max(np.abs(batch - single) / np.abs(single)) <= 1e-13
    assert np.max(np.abs(batch - loop) / np.abs(loop)) <= 1e-12
    assert batch[0] == batch[3]
    assert spectral_mode_values(np.empty((0, 2), dtype=int), *lams).shape == (0,)
    with pytest.raises(ValueError):
        spectral_mode_values([(1, 2, 3)], *lams)


def test_mode_elements_against_crude_3d_oracle():
    lams = (0, 1j, 2j)
    scale = abs(closed_form_value(*lams).value)
    # a vanishing element: no z-mean survives translation averaging
    crude_zero = _crude_3d(2, 0, 0, lams, 200)
    assert mode_element(2, 0, 0, *lams).value == 0.0
    assert abs(crude_zero) <= 0.05 * scale
    # a surviving element agrees with the reduced quadrature within the
    # oracle's own a-posteriori error (and is far above the vanishing one)
    coarse = _crude_3d(2, -2, 0, lams, 150)
    crude = _crude_3d(2, -2, 0, lams, 300)
    fine = mode_element(2, -2, 0, *lams).value
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
