"""Node families for integrands with endpoint algebraic singularities.

``unit_nodes`` gives nodes/weights for integrals over (0, 1) whose integrand
may blow up like x^s, (1-x)^s with Re s > -1 (and may oscillate like x^{i t}):
the double-exponential (tanh-sinh) transform, which clusters nodes
doubly-exponentially at both endpoints once the caller has split the domain
along its singular lines.  Nodes are returned together with 1 - x computed
without cancellation, since integrands need both x and 1 - x accurately at
the clustered ends.  The family reaches x = 1e-130, which only exponents
near -1 need; a caller that knows its integrand's endpoint exponents may
skip the nodes whose tail t^p / p (t = x or 1 - x) lies below its rounding,
as ``triple_quadrature`` does, and the levels stay nested as long as that
choice depends on the node alone.

``half_line_nodes`` is the half-line family of the Gaussian radial oracles.

``refine_until`` is the one refinement driver: it draws each caller's
levels from the caller's generator, whose length is the budget.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergentError, NonFiniteError, PreconditionError
from .estimate import Estimate
from .params import as_count

__all__ = ["QuadratureConfig", "unit_nodes", "half_line_nodes", "refine_until"]

# rounding of a level sum per unit of its magnitude: a few eps, here 4
_FLOOR_PER_MAGNITUDE = 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureConfig:
    refinement_levels: int = 6
    target_rel_error: float = 1e-6

    def __post_init__(self):
        if not self.target_rel_error > 0:
            raise PreconditionError("target_rel_error must be > 0")
        as_count(self.refinement_levels, "refinement_levels", 1)


@lru_cache(maxsize=64)
def _tanh_sinh(level: int):
    """x, 1-x, w with x = 1/(1 + exp(-pi sinh t)); step h = 2^-level."""
    h = 2.0 ** (-level)
    tmax = 5.5
    n = int(math.ceil(tmax / h))
    t = h * np.arange(-n, n + 1)
    s = (np.pi / 2.0) * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * s))
    omx = 1.0 / (1.0 + np.exp(2.0 * s))
    with np.errstate(over="ignore"):
        w = h * (np.pi / 4.0) * np.cosh(t) / np.cosh(s) ** 2
    # guard: drop nodes whose weight underflows or that sit closer to an
    # endpoint than products of two nested nodes can represent
    keep = (x > 1e-130) & (omx > 1e-130) & np.isfinite(w) & (w > 1e-290)
    return x[keep], omx[keep], w[keep]


@lru_cache(maxsize=64)
def half_line_nodes(level: int):
    """r, w on (0, inf) with r = exp(pi/2 sinh t); step h = 2^-level.  For
    integrands with a factor e^{-r^2}, which is < 1e-316 past the last node."""
    h = 2.0 ** (-level)
    tmax = 4.5
    t = h * np.arange(-int(tmax / h), int(tmax / h) + 1)
    r = np.exp((np.pi / 2.0) * np.sinh(t))
    w = r * (np.pi / 2.0) * np.cosh(t) * h
    keep = np.isfinite(r) & (r > 0) & (r < 27.0)
    return r[keep], w[keep]


def unit_nodes(scheme: str, level: int):
    """Nodes (x, 1-x, weights) on (0,1) of the tanh-sinh rule at ``level``.

    ``scheme`` must be "singularity_split".  The levels are nested: the step
    halves per level, so level - 1's nodes are level's even positions bit for
    bit, each at twice the weight.
    """
    if scheme != "singularity_split":
        raise PreconditionError(f"unknown scheme {scheme!r}")
    return _tanh_sinh(level)


def refine_until(levels, target: float, method: str,
                 truncation: float = 0.0) -> Estimate:
    """Draw (level, value, cost, magnitude) from the iterator ``levels`` until
    the bar the observed rate earns, plus ``truncation``, meets the target.

    The iterator's length is the budget; no level past the one this returns
    or raises at is drawn.  ``magnitude`` is the size of the terms the
    level's value adds up, sum_i |w_i f_i| for a rule sum_i w_i f_i, or an
    estimate of it within a small factor.  With d_k = |v_k - v_(k-1)| and
    r = d_k / d_(k-1) the bar at level k is

        max(d_k r / (1 - r), floor),   floor = 4 eps magnitude_k.

    The first term is the tail d_k (r + r^2 + ...) left if the differences
    keep falling at least geometrically at ratio r: exact for a constant
    ratio, d_k at r = 1/2, and about d_k^2 / d_(k-1), the next correction,
    where they fall much faster, as tanh-sinh's do (its error roughly
    squares per level: Bailey, Jeyabalan and Li 2005, Experimental Math.
    14).  The floor is the rounding of the level sum: each term carries a
    relative error of a few eps from the operations that formed and added
    it, so the sum is off by a few eps times the magnitude at most, and by
    a few eps sqrt(sum_i |w_i f_i|^2) where the errors are independent;
    "a few" is taken as 4.  A d_k at or below the floor carries no
    information and counts as converged, with bar floor.  Where r >= 1 no
    rate bounds the tail, and refinement goes on.

    ``truncation``, a bound on what no level sees, is added to every bar.
    Stops at the first level whose bar is at most target |v_k|.  Raises
    NonFiniteError at the first level whose value is NaN or infinite, and
    NonConvergentError, carrying the last bar (inf where no falling rate was
    seen), when the levels run out, or at the first level that earns a
    finite bar while ``truncation`` alone exceeds target |v_k|.
    """
    prev = prev_diff = None
    total_cost = 0
    bar = math.inf
    for level, value, cost, magnitude in levels:
        if not cmath.isfinite(value):
            raise NonFiniteError(f"{method}: the value at level {level} is "
                                 f"{value}, not finite")
        total_cost += cost
        if prev is not None:
            diff = abs(value - prev)
            floor = _FLOOR_PER_MAGNITUDE * magnitude
            if diff <= floor:
                bar = floor
            elif prev_diff is not None and diff < prev_diff:
                r = diff / prev_diff
                bar = max(diff * r / (1.0 - r), floor)
            else:
                bar = math.inf
            bar += truncation
            if bar < math.inf:
                if bar <= target * abs(value):
                    return Estimate(value=value, error_bound=bar,
                                    method=f"{method}/level{level}", cost=total_cost)
                if truncation > target * abs(value):
                    break
            prev_diff = diff
        prev = value
    est = Estimate(value=value, error_bound=bar,
                   method=f"{method}/stalled", cost=total_cost)
    raise NonConvergentError(
        f"refinement stalled at relative bar "
        f"{bar / max(abs(value), 1e-300):.3g} > {target:.3g}",
        estimate=est)
