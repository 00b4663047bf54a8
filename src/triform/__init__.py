"""Numerics for invariant trilinear functionals on PGL(2,R) principal series.

The package evaluates the explicit circle-model kernel of the unique invariant
trilinear functional, its singular triple quadrature, the equivalent closed
Gamma-function form on spherical vectors, the Gaussian-measure identities that
derive that closed form, the exponential-decay normalization of the squared
spherical value, and the truncated Hermitian-form / Sobolev-form machinery
(relative traces, localized bump pairings) used for spectral lower bounds.
"""

__version__ = "0.1.0"

from .circlefn import BiCircleFunction, CircleFunction
from .errors import (DomainTooSmallError, NonConvergentError,
                     NonFiniteError, NotPositiveDefiniteError,
                     PoleArgumentError, PreconditionError,
                     SingularConfigurationError, TriformError,
                     TruncationOverflowError)
from .estimate import Estimate
from .gaussian import (GaussianSpec, det_moment, gaussian_expect,
                       homogeneous_reduction_check, identity_battery,
                       kernel_gaussian_check, linear_moment, minor_map,
                       minor_pullback_check, radial_expect, radius_moment)
from .kernel import kernel_on_circle, kernel_value, omega
from .params import ExponentQuadruple, exponents
from .quadrature import QuadratureConfig
from .specdecomp import (PairingResult, bump_vector, circle_generators,
                         group_action, induced_form, kernel_bump_pairing,
                         pairing_search, random_sl2, relative_trace,
                         sobolev_matrix, sobolev_trace, sobolev_trace_estimate,
                         transformed_kernel_values, weighted_mean_bound)
from .specfun import (gamma_product_log, gamma_value, log_gamma_complex,
                      stirling_modulus)
from .trilinear import (closed_form_log, closed_form_value, decay_constant,
                        decay_envelope, invariant_functional, normalized_decay,
                        recurrence_mode_values, sine_power_coeffs,
                        spectral_mode_values, spherical_square,
                        triple_quadrature)
