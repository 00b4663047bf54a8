"""The invariant kernel on triples of plane points and its circle restriction.

For an exponent quadruple (alpha, beta, gamma, delta) the kernel is

    K(s1, s2, s3) = |w(s2,s3)|^((alpha-1)/2) |w(s1,s3)|^((beta-1)/2)
                    |w(s1,s2)|^((gamma-1)/2),

with w(xi, eta) = xi_1 eta_2 - xi_2 eta_1.  It is invariant under the diagonal
SL(2,R) action (w scales by det g) and homogeneous of degree -1 - l_j in slot j.

Complex powers are always computed as exp(s * log |w|): modulus first, so no
branch choice ever arises.  The one core doing so is ``_kernel_from_abs``,
behind ``kernel_value`` and ``kernel_on_circle``, with libm sine, log and
complex exp.  It is the reference that the quadrature hot path
``trilinear._folded_sum`` is tested against; that path takes the same powers
from tangent half-angle identities (see there for why), through the shared
``circlefn.cis_half_angle``, as do ``CircleFunction.evaluate`` and the
Gaussian |v|^s columns (``gaussian.abs_powers``).  The kernel-Gaussian
Monte Carlo rows still evaluate this libm reference.
"""

import numpy as np

from .errors import SingularConfigurationError
from .params import ExponentQuadruple

__all__ = ["omega", "kernel_value", "kernel_on_circle", "SINGULAR_OMEGA"]

# |w| below this is treated as an exact zero (singular configuration)
SINGULAR_OMEGA = 1e-300


def omega(xi, eta):
    """The SL(2,R)-invariant pairing xi_1 eta_2 - xi_2 eta_1, over leading axes."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = xi[..., 0] * eta[..., 1] - xi[..., 1] * eta[..., 0]
    return float(out) if out.ndim == 0 else out


def _kernel_from_abs(w23, w13, w12, exps: ExponentQuadruple):
    """Kernel from the moduli |w(s2,s3)|, |w(s1,s3)|, |w(s1,s2)| (broadcast);
    raises SingularConfigurationError when one is below SINGULAR_OMEGA."""
    if min(np.min(w23), np.min(w13), np.min(w12)) < SINGULAR_OMEGA:
        raise SingularConfigurationError(
            f"omega values (min {np.min(w23):.3g}, {np.min(w13):.3g}, "
            f"{np.min(w12):.3g}) contain a zero")
    pa, pb, pg = exps.kernel_powers()
    out = np.exp(pa * np.log(w23) + pb * np.log(w13) + pg * np.log(w12))
    return complex(out) if out.ndim == 0 else out


def kernel_value(s1, s2, s3, exps: ExponentQuadruple):
    """Kernel at nonzero plane points (leading axes broadcast); raises on
    singular configurations."""
    return _kernel_from_abs(np.abs(omega(s2, s3)), np.abs(omega(s1, s3)),
                            np.abs(omega(s1, s2)), exps)


def kernel_on_circle(x, y, z, exps: ExponentQuadruple):
    """Kernel restricted to unit-circle points with angles x, y, z.

    Equals kernel_value at ((cos x, sin x), (cos y, sin y), (cos z, sin z)):

        |sin(y-z)|^((alpha-1)/2) |sin(x-z)|^((beta-1)/2) |sin(x-y)|^((gamma-1)/2).

    Vectorized over broadcast-compatible angle arrays.  Raises
    SingularConfigurationError when any pair of angles coincides mod pi at
    any entry, so quadrature callers must keep their nodes off the diagonals.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    return _kernel_from_abs(np.abs(np.sin(y - z)), np.abs(np.sin(x - z)),
                            np.abs(np.sin(x - y)), exps)
