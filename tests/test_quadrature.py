"""refine_until's three-level rule on synthetic level histories."""

import math

import numpy as np
import pytest

from triform import NonConvergentError, NonFiniteError
from triform.quadrature import refine_until

EPS = np.finfo(float).eps
FLOOR = 4 * EPS         # the floor per unit of magnitude


def run(values, target=1e-6, magnitude=1.0, truncation=0.0):
    """refine_until over the given level values from level 0; returns the
    Estimate (or the stalled one) and the levels that ran."""
    ran = []

    def levels():
        for level, value in enumerate(values):
            ran.append(level)
            yield level, value, 1, magnitude

    try:
        est = refine_until(levels(), target, "synthetic", truncation)
    except NonConvergentError as exc:
        est = exc.estimate
    return est, ran


def test_squaring_errors_give_the_next_correction():
    # errors 1e-1, 1e-2, 1e-4, 1e-8: each level squares the last one's
    values = [1.0 + 10.0 ** -(2 ** k) for k in range(5)]
    est, ran = run(values, target=1e-6)
    d = [abs(b - a) for a, b in zip(values, values[1:])]
    # level 3: d_3 = 9.99e-5 after d_2 = 9.9e-3, so the bar is about
    # d_3^2 / d_2 = 1.0e-6 and just misses the target; level 4 meets it
    assert ran == [0, 1, 2, 3, 4] and est.method == "synthetic/level4"
    r = d[3] / d[2]
    assert est.error_bound == d[3] * r / (1.0 - r)
    assert est.error_bound == pytest.approx(d[3] ** 2 / d[2], rel=1e-3)
    # it covers the error left (1e-16, which rounds v_4 to 1.0) ...
    assert est.error_bound >= abs(values[4] - 1.0)
    # ... and is far below the two-level bar 4 d_4 = 4e-8
    assert est.error_bound < 1e-3 * d[3]


def test_constant_ratio_one_half_gives_the_exact_tail():
    # v_k = 1 + 2^-k: the differences halve, and the bar d_k r / (1 - r) = d_k
    # is the whole remaining tail sum_{j>k} 2^-j = 2^-k
    values = [1.0 + 2.0 ** -k for k in range(30)]
    est, ran = run(values, target=1e-6)
    k = ran[-1]
    assert est.method == f"synthetic/level{k}"
    assert est.error_bound == 2.0 ** -k == values[k] - 1.0
    # the first level whose tail is at most 1e-6 |v|
    assert 2.0 ** -k <= 1e-6 * values[k] < 2.0 ** -(k - 1)


@pytest.mark.parametrize("magnitude", [1.0, 50.0])
def test_exact_agreement_gives_the_floor(magnitude):
    # two equal levels: the difference 0 lies at the floor 4 eps magnitude,
    # which is the bar; a third level is not needed
    est, ran = run([0.75, 0.75, 0.75], magnitude=magnitude)
    assert ran == [0, 1] and est.method == "synthetic/level1"
    assert est.error_bound == FLOOR * magnitude


def test_noise_level_differences_give_the_floor():
    # terms of total size 2 whose sum is 0.5: level values that differ by
    # rounding alone (3 eps, under the floor 8 eps) count as converged, and
    # the bar is the floor whatever ratio the noise shows
    values = [0.5, 0.5 + 3 * EPS, 0.5 + 2 * EPS, 0.5 - EPS]
    est, ran = run(values, target=1e-12, magnitude=2.0)
    assert ran == [0, 1] and est.error_bound == 2.0 * FLOOR == 8 * EPS
    # a last difference that falls but stays above the floor earns the rate
    # bar, never less than the floor
    values = [0.5, 0.6, 0.5 + 1e-9, 0.5 + 1e-9 + 20 * EPS]
    est, ran = run(values, target=1e-12, magnitude=2.0)
    assert ran == [0, 1, 2, 3] and est.method == "synthetic/level3"
    assert est.error_bound == 2.0 * FLOOR


@pytest.mark.parametrize("values", [
    [1.0, 1.1, 1.3, 1.7, 2.5],              # growing differences: r = 2
    [1.0, 2.0, 1.0, 2.0, 1.0],              # an oscillation: r = 1
    [1.0, 1.0 + 2 ** -10, 1.0 + 2 ** -9],   # a steady drift: r = 1
])
def test_a_ratio_of_one_or_more_never_stops(values):
    # no rate bounds the tail, so refinement runs to the end of the budget
    # even at a loose target, and the stalled bar is infinite
    est, ran = run(values, target=0.5)
    assert ran == list(range(len(values)))
    assert est.method == "synthetic/stalled" and est.value == values[-1]
    assert est.error_bound == math.inf and est.cost == len(values)


def test_two_levels_earn_no_rate():
    # one difference, however small, is not a rate
    est, ran = run([1.0, 1.0 + 1e-9], target=1e-3)
    assert est.method == "synthetic/stalled" and est.error_bound == math.inf


def test_the_stalled_bar_is_the_last_rate_bar():
    # differences 0.1, 0.05: the ratio 1/2 bounds the tail by 0.05, far
    # above the target, and that bar travels with the error
    values = [1.0, 1.1, 1.15]
    with pytest.raises(NonConvergentError) as info:
        refine_until(((k, v, 1, 1.0) for k, v in enumerate(values)), 1e-6,
                     "synthetic")
    est = info.value.estimate
    assert est.method == "synthetic/stalled" and est.cost == 3
    assert est.error_bound == pytest.approx(0.05, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan)])
def test_the_first_non_finite_level_raises(bad):
    ran = []

    def levels():
        for level in range(2, 8):
            ran.append(level)
            yield level, (bad if level == 4 else 1.0 + 10.0 ** -level), 1, 1.0

    with pytest.raises(NonFiniteError, match="synthetic: the value at level 4"):
        refine_until(levels(), 1e-15, "synthetic")
    assert ran == [2, 3, 4]


def _no_level_past(stop, values):
    """The levels of ``values`` from 0; drawing one past ``stop`` fails."""
    for level, value in enumerate(values):
        assert level <= stop, f"level {level} drawn past {stop}"
        yield level, value, 1, 1.0


def test_no_level_is_drawn_past_the_one_returned_at():
    # errors 1e-1, 1e-2, 1e-4, 1e-8: the driver returns at level 4 without
    # advancing the generator again, so its later levels are never computed
    values = [1.0 + 10.0 ** -(2 ** k) for k in range(8)]
    est = refine_until(_no_level_past(4, values), 1e-6, "synthetic")
    assert est.method == "synthetic/level4" and est.cost == 5


def test_a_truncation_that_misses_the_target_stops_at_the_first_bar():
    # the differences fall from level 2 on (9e-2, then 9.9e-3); a truncation
    # of 1e-3 |v| alone misses the target 1e-6, so the driver raises there,
    # not after the whole budget, and the stalled bar includes it
    values = [1.0 + 10.0 ** -(2 ** k) for k in range(8)]
    with pytest.raises(NonConvergentError) as info:
        refine_until(_no_level_past(2, values), 1e-6, "synthetic", 1e-3)
    est = info.value.estimate
    assert est.method == "synthetic/stalled" and est.cost == 3
    assert est.error_bound >= 1e-3
    # a truncation within the target changes only the bar
    est, ran = run(values, target=1e-6, truncation=1e-7)
    assert ran == [0, 1, 2, 3, 4] and est.method == "synthetic/level4"
    # without a falling rate the driver goes on: the value may still grow
    est, ran = run([1.0, 1.5, 2.5, 4.5], target=1e-6, truncation=1e-3)
    assert ran == [0, 1, 2, 3] and est.error_bound == math.inf
