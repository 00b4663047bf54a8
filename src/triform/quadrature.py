"""Node families for integrands with endpoint algebraic singularities.

Both schemes produce nodes/weights for integrals over (0, 1) whose integrand
may blow up like x^s, (1-x)^s with Re s > -1 (and may oscillate like x^{i t}):

* ``singularity_split`` -- double-exponential (tanh-sinh) transform.  The
  domain is split along singular lines by the caller; the transform then
  clusters nodes doubly-exponentially at both endpoints.
* ``graded_mesh``      -- geometric panels refined toward both endpoints with
  a fixed-order Gauss-Legendre rule per panel.

Nodes are returned together with 1 - x computed without cancellation, since
integrands need both x and 1 - x accurately at the clustered ends.

``_exp_sinh`` is the half-line family of the Gaussian radial oracles.

Refinement is by an integer level; ``refine_until`` compares successive
levels (a-posteriori error = |last - previous| with a safety factor).
``reused_positions`` names the nodes a level shares with the level before
(tanh-sinh: every other one, at half the weight), so a caller can keep the
previous level's sum and evaluate only the new nodes.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergentError
from .estimate import Estimate

__all__ = ["QuadratureConfig", "unit_nodes", "reused_positions", "refine_until",
           "ERROR_SAFETY"]

SCHEMES = ("singularity_split", "graded_mesh")

# a-posteriori error bounds are |last - previous| times this factor
ERROR_SAFETY = 4.0


@dataclass(frozen=True)
class QuadratureConfig:
    scheme: str = "singularity_split"
    points_per_panel: int = 12
    refinement_levels: int = 6
    target_rel_error: float = 1e-6

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not self.target_rel_error > 0:
            raise ValueError("target_rel_error must be > 0")
        if self.points_per_panel < 2 or self.refinement_levels < 1:
            raise ValueError("invalid quadrature budget")


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
def _exp_sinh(level: int):
    """r, w on (0, inf) with r = exp(pi/2 sinh t); step h = 2^-level.  For
    integrands with a factor e^{-r^2}, which is < 1e-316 past the last node."""
    h = 2.0 ** (-level)
    tmax = 4.5
    t = h * np.arange(-int(tmax / h), int(tmax / h) + 1)
    r = np.exp((np.pi / 2.0) * np.sinh(t))
    w = r * (np.pi / 2.0) * np.cosh(t) * h
    keep = np.isfinite(r) & (r > 0) & (r < 27.0)
    return r[keep], w[keep]


@lru_cache(maxsize=64)
def _graded_gauss(level: int, points: int):
    """Geometric panels toward both endpoints, Gauss-Legendre inside."""
    ratio = 0.15
    nlev = 10 + 5 * level
    gx, gw = np.polynomial.legendre.leggauss(points)
    gx = 0.5 * (gx + 1.0)        # to (0,1)
    gw = 0.5 * gw
    # breakpoints on (0, 1/2]: 0, r^nlev/2, ..., r/2, 1/2
    brk = 0.5 * ratio ** np.arange(nlev, -1, -1)
    brk = np.concatenate(([0.0], brk))
    xs, oms, ws = [], [], []
    for a, b in zip(brk[:-1], brk[1:]):
        x = a + (b - a) * gx
        xs.append(x)
        oms.append(1.0 - x)
        ws.append((b - a) * gw)
    x_left = np.concatenate(xs)
    om_left = np.concatenate(oms)
    w_left = np.concatenate(ws)
    # mirror for (1/2, 1): 1 - x computed exactly as the mirrored node
    x = np.concatenate([x_left, 1.0 - x_left])
    omx = np.concatenate([om_left, x_left])
    w = np.concatenate([w_left, w_left])
    return x, omx, w


def unit_nodes(scheme: str, level: int, points_per_panel: int = 12):
    """Nodes (x, 1-x, weights) on (0,1) for the requested scheme and level."""
    if scheme == "singularity_split":
        return _tanh_sinh(level)
    if scheme == "graded_mesh":
        return _graded_gauss(level, points_per_panel)
    raise ValueError(f"unknown scheme {scheme!r}")


def reused_positions(scheme: str, level: int) -> np.ndarray:
    """Positions of the level-``level`` nodes that level - 1 has too.

    ``singularity_split`` halves its step per level, so its even positions
    hold level - 1's nodes bit for bit, each with exactly half its old
    weight.  ``graded_mesh`` moves its panels with the level: none.
    """
    if scheme == "singularity_split":
        return np.arange(0, len(_tanh_sinh(level)[0]), 2)
    if scheme == "graded_mesh":
        return np.empty(0, dtype=np.intp)
    raise ValueError(f"unknown scheme {scheme!r}")


def refine_until(eval_at_level, cfg: QuadratureConfig, method: str,
                 start_level: int = 3) -> Estimate:
    """Run eval_at_level(level) -> (value, cost) until successive values agree.

    Returns an Estimate whose error_bound is ERROR_SAFETY * |last - previous|.
    Raises NonConvergentError when the budget is exhausted above target.
    """
    prev = None
    total_cost = 0
    value = None
    diff = math.inf
    for level in range(start_level, start_level + cfg.refinement_levels):
        value, cost = eval_at_level(level)
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
