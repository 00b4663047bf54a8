import mpmath
import numpy as np
import pytest

from triform import QuadratureConfig


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def fast_cfg():
    return QuadratureConfig(target_rel_error=1e-6, refinement_levels=5)


@pytest.fixture
def exact_decay_limit():
    """128 / |Gamma((1 - tau)/2) Gamma((1 - tau')/2)|^2 by mpmath at 30
    digits: the limit of normalized_decay where Re(tau + tau') = 0."""
    def limit(tau, tau_prime):
        with mpmath.workdps(30):
            g = [mpmath.gamma((1 - mpmath.mpc(t)) / 2) for t in (tau, tau_prime)]
            return float(128 / abs(g[0] * g[1]) ** 2)
    return limit
