"""The invariant trilinear functional, three ways.

* ``closed_form_value``     -- the exact Gamma-function expression for the value
  on rotation-invariant (spherical) unit vectors,

      A(l1,l2,l3) = G((alpha+1)/4) G((beta+1)/4) G((gamma+1)/4) G((delta+1)/4)
                    / [ G(1/2)^3 G((1-l1)/2) G((1-l2)/2) G((1-l3)/2) ],

  evaluated entirely in log space.

* ``triple_quadrature``     -- direct numerical evaluation of the circle-model
  integral

      (2 pi)^-3 iiint f1(x) f2(y) f3(z) K(x,y,z) dx dy dz

  for truncated even Fourier data f_j.  The z-direction is integrated exactly
  (the restriction to lines x = z + a, y = z + b is a trigonometric
  polynomial), leaving a 2-D integral over (a, b) with |sin|^(Re s) lines
  a = 0, b = 0, a = b (mod pi).  That square is split along the singular
  diagonal and each triangle is folded through its reflection symmetry so
  every singular corner is removed by a linear rescaling; the two remaining
  1-D directions are handled by the configured endpoint-singular node family.
  No Gamma function enters this path.

* ``mode_element`` / ``mode_element_spectral`` -- matrix elements of the
  functional on Fourier modes e^{imx} (x) e^{iny} (x) e^{ikz}.  Translation
  invariance makes them vanish unless m + n + k = 0.  The spectral backend
  expands each |sin|^s factor in its exact Fourier series (Gamma-coefficient
  formula) and sums the resulting triple-product convolution with an
  Euler-Maclaurin tail; it is cross-validated against the quadrature backend.

The decay helpers normalize the squared spherical value by the exponential
envelope exp(-pi |lam| / 2) |lam|^-2 so the remaining factor can be scanned
for a plateau and extrapolated.
"""

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .circlefn import CircleFunction
from .errors import (DomainTooSmallError, NonFiniteError, PoleArgumentError,
                     PreconditionError)
from .estimate import Estimate
from .params import ExponentQuadruple, _as_complex, exponents
from .quadrature import QuadratureConfig, refine_until, unit_nodes
from .specfun import (gamma_product_log, log_gamma_array, log_gamma_complex,
                      reciprocal_gamma)

__all__ = [
    "invariant_functional",
    "closed_form_log",
    "closed_form_value",
    "spherical_square",
    "decay_envelope",
    "normalized_decay",
    "decay_constant",
    "triple_quadrature",
    "mode_element",
    "mode_element_spectral",
    "sine_power_coeffs",
    "spectral_mode_values",
]

_GAMMA_REL_TOL = 1e-10   # relative accuracy budget of closed-form values


# ---------------------------------------------------------------------------
# the rotation-invariant functional on homogeneous degree -2 functions
# ---------------------------------------------------------------------------

def invariant_functional(f: Callable, contour="unit_circle",
                         cfg: Optional[QuadratureConfig] = None) -> Estimate:
    """Contour integral (1/2pi) oint f (x dy - y dx) of a degree -2 function.

    Normalized so that f = 1/(x^2+y^2) gives exactly 1; the value does not
    depend on the contour for homogeneous f of degree -2.  ``contour`` is
    either "unit_circle" or ("ellipse", a, b).  The integrand is smooth and
    periodic, so the trapezoid rule converges spectrally under doubling.
    """
    cfg = cfg or QuadratureConfig(target_rel_error=1e-12, refinement_levels=10)
    if contour == "unit_circle":
        a = b = 1.0
    elif isinstance(contour, tuple) and len(contour) == 3 and contour[0] == "ellipse":
        _, a, b = contour
        if a <= 0 or b <= 0:
            raise ValueError("ellipse semi-axes must be positive")
    else:
        raise ValueError(f"unknown contour {contour!r}")

    def eval_at_level(level):
        n = 64 * 2 ** level
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        vals = np.asarray(f(a * np.cos(t), b * np.sin(t)), dtype=complex)
        return (a * b / n) * np.sum(vals), n

    return refine_until(eval_at_level, cfg, method=f"trapezoid/{contour}",
                        start_level=0)


# ---------------------------------------------------------------------------
# closed Gamma form on spherical vectors
# ---------------------------------------------------------------------------

def closed_form_log(l1, l2, l3) -> complex:
    """log (modulus + i accumulated phase) of the spherical closed form."""
    z1, z2, z3 = _as_complex(l1), _as_complex(l2), _as_complex(l3)
    e = exponents(z1, z2, z3)
    num = [(e.alpha + 1) / 4, (e.beta + 1) / 4, (e.gamma + 1) / 4, (e.delta + 1) / 4]
    den = [0.5, 0.5, 0.5, (1 - z1) / 2, (1 - z2) / 2, (1 - z3) / 2]
    names = ["Gamma((alpha+1)/4)", "Gamma((beta+1)/4)", "Gamma((gamma+1)/4)",
             "Gamma((delta+1)/4)"]
    dnames = ["Gamma(1/2)"] * 3 + ["Gamma((1-l1)/2)", "Gamma((1-l2)/2)",
                                   "Gamma((1-l3)/2)"]
    try:
        lg = gamma_product_log(num, den)
    except PoleArgumentError as exc:
        # re-identify the factor by position
        side, idx = exc.factor.split("[")
        idx = int(idx.rstrip("]"))
        name = names[idx] if side == "numerator" else dnames[idx]
        raise PoleArgumentError(exc.z, factor=name) from None
    return lg.as_complex

def closed_form_value(l1, l2, l3) -> Estimate:
    """Spherical value of the functional; error bound from Gamma tolerance only."""
    lg = closed_form_log(l1, l2, l3)
    val = np.exp(lg)
    return Estimate(value=complex(val), error_bound=_GAMMA_REL_TOL * abs(val),
                    method="gamma-closed-form", cost=10)


def spherical_square(tau, tau_prime, lam) -> float:
    """|closed form|^2 at (tau, tau', lam): squared modulus on spherical vectors."""
    return math.exp(2.0 * closed_form_log(tau, tau_prime, lam).real)


# ---------------------------------------------------------------------------
# exponential decay normalization
# ---------------------------------------------------------------------------

def _imaginary_modulus(lam) -> float:
    z = _as_complex(lam)
    if abs(z.real) > 1e-12:
        raise PreconditionError(f"decay asymptotics need purely imaginary lam, got {z}")
    return abs(z.imag)


def decay_envelope(lam) -> float:
    """exp(-pi |lam| / 2) |lam|^-2 for purely imaginary lam with |lam| >= 1."""
    return math.exp(decay_envelope_log(lam))


def decay_envelope_log(lam) -> float:
    t = _imaginary_modulus(lam)
    if t < 1.0:
        raise DomainTooSmallError(f"envelope needs |lam| >= 1, got {t}")
    return -0.5 * math.pi * t - 2.0 * math.log(t)


def normalized_decay(tau, tau_prime, lam) -> float:
    """Squared spherical value divided by its exponential envelope.

    Computed fully in log space: the raw square underflows near |lam| ~ 900.
    """
    logk = 2.0 * closed_form_log(tau, tau_prime, lam).real
    return math.exp(logk - decay_envelope_log(lam))


def decay_constant(tau, tau_prime, moduli: Sequence[float]):
    """Extrapolated plateau of normalized_decay over a doubling ladder.

    The normalized sequence behaves like c (1 + O(1/|lam|)); Richardson
    extrapolation on a doubling ladder removes the 1/|lam| term.  Returns
    (c_estimate, error_estimate); with fewer than two rungs the last value is
    returned with an infinite error bar.
    """
    r = [normalized_decay(tau, tau_prime, 1j * t) for t in moduli]
    if len(r) < 2:
        return r[-1], math.inf
    extrap = [2.0 * r[i + 1] - r[i] for i in range(len(r) - 1)]
    if len(extrap) == 1:
        return extrap[0], abs(extrap[0] - r[-1])
    return extrap[-1], abs(extrap[-1] - extrap[-2])


# ---------------------------------------------------------------------------
# singular quadrature of the circle-model integral
# ---------------------------------------------------------------------------

class _ModeProduct:
    """C(a,b) = sum_{p,q} f1_p f2_q f3_{-(p+q)} e^{2i(pa+qb)} on node grids."""

    def __init__(self, f1: CircleFunction, f2: CircleFunction, f3: CircleFunction,
                 transpose: bool = False):
        p1, p2, p3 = f1.max_mode, f2.max_mode, f3.max_mode
        mat = np.zeros((2 * p1 + 1, 2 * p2 + 1), dtype=complex)
        for p in range(-p1, p1 + 1):
            for q in range(-p2, p2 + 1):
                if abs(p + q) <= p3:
                    mat[p + p1, q + p2] = (f1.coefficient(p) * f2.coefficient(q)
                                           * f3.coefficient(-(p + q)))
        if transpose:
            mat = mat.T
            p1, p2 = p2, p1
        self.mat = mat
        self.p1, self.p2 = p1, p2
        self.is_constant = (p1 == 0 and p2 == 0)
        self.c0 = mat[p1, p2]

    def __call__(self, A, B):
        """Evaluate on broadcastable angle arrays."""
        if self.is_constant:
            return self.c0
        p = np.arange(-self.p1, self.p1 + 1)
        q = np.arange(-self.p2, self.p2 + 1)
        ea = np.exp(2j * np.multiply.outer(np.asarray(A, dtype=float), p))
        eb = np.exp(2j * np.multiply.outer(np.asarray(B, dtype=float), q))
        # ea: A.shape x P, eb: B.shape x Q; contract through the matrix
        tmp = ea @ self.mat                       # A.shape x Q
        tmp = np.broadcast_to(tmp, eb.shape[:-1] + (len(q),))
        return np.sum(tmp * eb, axis=-1)


def _half_triangle(sA, sB, sG, level, scheme, ppp, cfun):
    """Reflection-folded integral over half of the triangle {0 < b < a < pi}.

    Computes  int over T1a = {0<b<a, a+b<pi}  of
        |sin(a-b)|^sG [ c(a,b) |sin a|^sB |sin b|^sA
                        + c(pi-b, pi-a) |sin a|^sA |sin b|^sB ]
    which by the substitution (a,b) -> (pi-b, pi-a) equals the integral over
    the full triangle of c(a,b)|sin a|^sB |sin b|^sA |sin(a-b)|^sG.

    T1a is covered in two pieces split at a = pi/2 and rescaled so the
    singular triple corners (0,0) and (pi,pi) become clean endpoint
    singularities of the node family.
    """
    xo, omxo, wo = unit_nodes(scheme, level, ppp)
    xi, omxi, wi = unit_nodes(scheme, level, ppp)
    total = 0.0 + 0.0j
    cost = 0
    constant_c = cfun.is_constant
    # mode sums multiply memory by the mode count; keep chunks small then
    row_chunk = 192 if constant_c else 32
    for piece in (0, 1):
        d = (np.pi / 2.0) * xo                  # distance to the near corner
        wa = (np.pi / 2.0) * wo
        for lo in range(0, len(d), row_chunk):
            hi = min(lo + row_chunk, len(d))
            dd = d[lo:hi][:, None]
            B = dd * xi[None, :]
            sinB = np.sin(B)
            sinA = np.sin(dd)                   # |sin a| = sin d on both pieces
            if piece == 0:
                Aarr = dd                       # a in (0, pi/2)
                sinG = np.sin(dd * omxi[None, :])       # a - b = a (1-x)
            else:
                Aarr = np.pi - dd               # a in (pi/2, pi)
                sinG = np.sin(dd * (1.0 + xi[None, :])) # a - b = pi - d (1+x)
            # kernel powers in log space, not via kernel_on_circle: the two
            # permuted kernels below share these three log-sines
            lA = np.log(sinA)
            lB = np.log(sinB)
            lG = np.log(sinG)
            if constant_c:
                c1 = c2 = cfun.c0
            else:
                c1 = cfun(np.broadcast_to(Aarr, B.shape), B)
                c2 = cfun(np.pi - B, np.broadcast_to(np.pi - Aarr, B.shape))
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                f = (c1 * np.exp(sB * lA + sA * lB + sG * lG)
                     + c2 * np.exp(sA * lA + sB * lB + sG * lG))
                f *= dd * wi[None, :]
                # nodes whose weight underflowed contribute nothing: the true
                # integrand times weight vanishes at the endpoints (Re s > -1)
                f[~np.isfinite(f)] = 0.0
            total += np.sum(np.sum(f, axis=1) * wa[lo:hi])
            cost += 2 * f.size
    return total, cost


def _check_convergent_exponents(e: ExponentQuadruple):
    bad = [name for name, v in (("alpha", e.alpha), ("beta", e.beta),
                                ("gamma", e.gamma)) if v.real <= -1.0]
    if bad:
        raise PreconditionError(
            f"exponent(s) {', '.join(bad)} have Re <= -1: the triple integral "
            "diverges absolutely and regularization is out of scope")


def triple_quadrature(f1: CircleFunction, f2: CircleFunction, f3: CircleFunction,
                      l1, l2, l3, cfg: Optional[QuadratureConfig] = None) -> Estimate:
    """Numerical circle-model value of the functional on truncated Fourier data.

    Deterministic for a fixed config: the node sets and the summation order
    are functions of (scheme, level) only.  Raises NonFiniteError on a
    non-finite Fourier coefficient or parameter.
    """
    for j, f in enumerate((f1, f2, f3), start=1):
        if not np.all(np.isfinite(f.coeffs)):
            raise NonFiniteError(f"f{j} has a non-finite Fourier coefficient")
    cfg = cfg or QuadratureConfig()
    e = exponents(l1, l2, l3)
    _check_convergent_exponents(e)
    sA, sB, sG = e.kernel_powers()
    c_lower = _ModeProduct(f1, f2, f3)
    c_upper = _ModeProduct(f1, f2, f3, transpose=True)

    def eval_at_level(level):
        il, cost1 = _half_triangle(sA, sB, sG, level, cfg.scheme,
                                   cfg.points_per_panel, c_lower)
        iu, cost2 = _half_triangle(sB, sA, sG, level, cfg.scheme,
                                   cfg.points_per_panel, c_upper)
        return (il + iu) / np.pi ** 2, cost1 + cost2

    return refine_until(eval_at_level, cfg, method=f"triple/{cfg.scheme}")


def _vanishing_element(m: int, n: int, k: int) -> Optional[Estimate]:
    """Check that the modes are even; the exact zero when m + n + k != 0."""
    for name, v in (("m", m), ("n", n), ("k", k)):
        if v % 2 != 0:
            raise ValueError(f"mode {name}={v} must be even")
    if m + n + k != 0:
        return Estimate(0.0, 0.0, method="translation-invariance", cost=0)
    return None


def mode_element(m: int, n: int, k: int, l1, l2, l3,
                 cfg: Optional[QuadratureConfig] = None) -> Estimate:
    """Matrix element on Fourier modes e^{imx} (x) e^{iny} (x) e^{ikz}.

    Exactly zero unless m + n + k = 0 (translation invariance of the kernel
    integral); otherwise evaluated by the quadrature backend.
    """
    zero = _vanishing_element(m, n, k)
    if zero is not None:
        return zero
    mm = CircleFunction.from_modes({m: 1.0}, abs(m) // 2)
    nn = CircleFunction.from_modes({n: 1.0}, abs(n) // 2)
    kk = CircleFunction.from_modes({k: 1.0}, abs(k) // 2)
    return triple_quadrature(mm, nn, kk, l1, l2, l3, cfg)


# ---------------------------------------------------------------------------
# spectral backend: exact Fourier series of |sin|^s plus accelerated tails
# ---------------------------------------------------------------------------

def sine_power_coeffs(s, kmax: int) -> np.ndarray:
    """Coefficients c_0..c_kmax of |sin t|^s = sum_k c_k e^{2ikt} (c_-k = c_k).

    Closed form  c_k = 2^-s (-1)^k Gamma(1+s) / (Gamma(1+s/2+k) Gamma(1+s/2-k)),
    valid for Re s > -1.  For k past the pole line of the right Gamma factor
    the reflection formula gives the numerically stable version

        c_k = 2^-s Gamma(1+s) sin(pi (1+s/2)) / pi
              * Gamma(k - s/2) / Gamma(1 + s/2 + k),

    whose sine factor correctly kills the tail when |sin|^s is a trigonometric
    polynomial (s an even nonnegative integer).
    """
    s = complex(s)
    if s.real <= -1.0:
        raise PreconditionError(f"need Re s > -1, got {s}")
    out = np.zeros(kmax + 1, dtype=complex)
    lg_pref = -s * math.log(2.0) + log_gamma_complex(1.0 + s)
    kd = min(kmax, 2 + max(0, int(math.ceil(s.real / 2.0))))
    for k in range(kd + 1):
        out[k] = ((-1) ** k * np.exp(lg_pref)
                  * reciprocal_gamma(1.0 + s / 2 + k)
                  * reciprocal_gamma(1.0 + s / 2 - k))
    if kmax > kd:
        sinfac = np.sin(np.pi * (1.0 + s / 2.0))
        if abs(sinfac) == 0.0:
            return out
        k = np.arange(kd + 1, kmax + 1)
        lg = log_gamma_array(k - s / 2.0) - log_gamma_array(1.0 + s / 2.0 + k)
        out[kd + 1:] = np.exp(lg_pref + np.log(complex(sinfac)) - math.log(math.pi) + lg)
    return out


def _em_power_tail(w: complex, J: int) -> complex:
    """sum_{j > J} j^-w by Euler-Maclaurin (Re w > 1)."""
    a = float(J + 1)
    t = a ** (1.0 - w) / (w - 1.0) + 0.5 * a ** (-w)
    t += w * a ** (-w - 1.0) / 12.0
    t -= w * (w + 1.0) * (w + 2.0) * a ** (-w - 3.0) / 720.0
    return t


def spectral_mode_values(pairs, l1, l2, l3, jmax: Optional[int] = None) -> np.ndarray:
    """Values of the functional on modes e^{2im'x} (x) e^{2in'y} (x) e^{2ik'z}
    with k' = -(m'+n'), for an array of integer index pairs (m', n').

    The value is the (2m', 2n') Fourier coefficient of
    |sin a|^sB |sin b|^sA |sin(a-b)|^sG, computed as

        sum_j cG[j] cB[-m'-j] cA[j-n']

    over the exact |sin|^s series.  The tail beyond |j| = J decays like a
    smooth power j^-(3 + sA + sB + sG); each side is fitted with A + C/j times
    that power and summed analytically.
    """
    e = exponents(l1, l2, l3)
    _check_convergent_exponents(e)
    sA, sB, sG = e.kernel_powers()
    w0 = 3.0 + (sA + sB + sG)
    if w0.real <= 1.05:
        raise PreconditionError(
            "spectral convolution needs Re(3 + sA + sB + sG) > 1; "
            "use the quadrature backend for this parameter range")
    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim == 1:
        pairs = pairs[None, :]
    maxidx = int(np.max(np.abs(pairs))) if pairs.size else 0
    J = jmax or (2000 + 10 * maxidx)
    fitn = 60
    kmax = J + fitn + maxidx + 2
    cB = sine_power_coeffs(sB, kmax)     # weight of |sin a|
    cA = sine_power_coeffs(sA, kmax)     # weight of |sin b|
    cG = sine_power_coeffs(sG, kmax)     # weight of |sin(a-b)|
    j = np.arange(-(J + fitn), J + fitn + 1)
    mid = len(j) // 2
    jj_fit = np.arange(J + 1, J + fitn + 1)
    Xfit = np.stack([np.ones(fitn), 1.0 / jj_fit], axis=1)
    jw = jj_fit ** w0
    t0 = _em_power_tail(w0, J)
    t1 = _em_power_tail(w0 + 1.0, J)
    out = np.empty(len(pairs), dtype=complex)
    for i, (mp_, np_) in enumerate(pairs):
        terms = (cG[np.abs(j)] * cB[np.abs(-mp_ - j)] * cA[np.abs(j - np_)])
        val = np.sum(terms[mid - J:mid + J + 1])
        for side in (+1, -1):
            y = terms[mid + side * jj_fit] * jw
            coef, *_ = np.linalg.lstsq(Xfit, y, rcond=None)
            val += coef[0] * t0 + coef[1] * t1
        out[i] = val
    return out


def mode_element_spectral(m: int, n: int, k: int, l1, l2, l3,
                          jmax: Optional[int] = None) -> Estimate:
    """Spectral-backend matrix element; agrees with ``mode_element``."""
    zero = _vanishing_element(m, n, k)
    if zero is not None:
        return zero
    v1 = spectral_mode_values([(m // 2, n // 2)], l1, l2, l3, jmax=jmax)[0]
    return Estimate(complex(v1), error_bound=1e-7 * max(1.0, abs(v1)),
                    method="spectral-convolution", cost=2 * (jmax or 2000))
