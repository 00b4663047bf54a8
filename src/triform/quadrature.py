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

Refinement is by an integer level; ``refine_until`` compares successive
levels (a-posteriori error = |last - previous| with a safety factor) and
stops at the first level whose value is not finite.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergentError, NonFiniteError, PreconditionError
from .estimate import Estimate

__all__ = ["QuadratureConfig", "unit_nodes", "half_line_nodes", "refine_until",
           "ERROR_SAFETY"]

# a-posteriori error bounds are |last - previous| times this factor
ERROR_SAFETY = 4.0


@dataclass(frozen=True)
class QuadratureConfig:
    refinement_levels: int = 6
    target_rel_error: float = 1e-6

    def __post_init__(self):
        if not self.target_rel_error > 0:
            raise PreconditionError("target_rel_error must be > 0")
        if self.refinement_levels < 1:
            raise PreconditionError("invalid quadrature budget")


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


def refine_until(eval_at_level, cfg: QuadratureConfig, method: str,
                 start_level: int = 3) -> Estimate:
    """Run eval_at_level(level) -> (value, cost) until successive values agree.

    Returns an Estimate whose error_bound is ERROR_SAFETY * |last - previous|.
    Raises NonFiniteError at the first level whose value is NaN or infinite,
    before any further level runs, and NonConvergentError when the budget
    is exhausted above target.
    """
    prev = None
    total_cost = 0
    value = None
    diff = math.inf
    for level in range(start_level, start_level + cfg.refinement_levels):
        value, cost = eval_at_level(level)
        if not cmath.isfinite(value):
            raise NonFiniteError(f"{method}: the value at level {level} is "
                                 f"{value}, not finite")
        total_cost += cost
        if prev is not None:
            diff = abs(value - prev)
            scale = max(abs(value), 1e-300)
            if diff <= cfg.target_rel_error * scale:
                return Estimate(value=value, error_bound=ERROR_SAFETY * diff,
                                method=f"{method}/level{level}", cost=total_cost)
        prev = value
    est = Estimate(value=value, error_bound=ERROR_SAFETY * diff,
                   method=f"{method}/stalled", cost=total_cost)
    raise NonConvergentError(
        f"refinement stalled at relative error "
        f"{diff / max(abs(value), 1e-300):.3g} > {cfg.target_rel_error:.3g}",
        estimate=est)
