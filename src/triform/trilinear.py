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
  a = 0, b = 0, a = b (mod pi).  Transposition and reflection fold the square
  onto one half-triangle, rescaled so every singular corner becomes an
  endpoint of the tanh-sinh node family.  Each refinement level is one pass
  over it; the levels are nested, so a level adds only the nodes the
  previous level lacked to that level's sum.  No Gamma function enters.

* ``spectral_mode_values`` -- values of the functional on Fourier modes
  e^{2im'x} (x) e^{2in'y} (x) e^{2ik'z}, which translation invariance makes
  vanish unless m' + n' + k' = 0, so a pair (m', n') names one.  Each
  |sin|^s factor is expanded in its exact Fourier series (Gamma-coefficient
  formula) and the resulting triple-product convolution is summed with an
  Euler-Maclaurin tail; it is cross-validated against the quadrature backend.

The decay helpers normalize the squared spherical value by the exponential
envelope exp(-pi |lam| / 2) |lam|^-2 so the remaining factor can be scanned
for a plateau and extrapolated.
"""

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .circlefn import CircleFunction, cis_half_angle
from .errors import (DomainTooSmallError, NonFiniteError, PoleArgumentError,
                     PreconditionError)
from .estimate import Estimate
from .params import exponents
from .quadrature import QuadratureConfig, refine_until, unit_nodes
from .specfun import gamma_product_log, log_gamma_array

__all__ = [
    "invariant_functional",
    "closed_form_log",
    "closed_form_value",
    "spherical_square",
    "decay_envelope",
    "normalized_decay",
    "decay_constant",
    "triple_quadrature",
    "MAX_QUADRATURE_LEVEL",
    "sine_power_coeffs",
    "spectral_mode_values",
]

_GAMMA_REL_TOL = 1e-10   # relative accuracy budget of closed-form values

_START_LEVEL = 3         # first level of triple_quadrature
# top level of triple_quadrature: each level has 4x the nodes of the last;
# on one Xeon core, constant data run levels 3-8 in 1.2 s and 3-10 in 21 s
MAX_QUADRATURE_LEVEL = 10
_BLOCK_NODES = 1 << 13   # nodes per block of rows; bounds the temporaries
_TAIL_EPS = 2.0 ** -60   # majorant mass a dropped strip of the grid may carry


# ---------------------------------------------------------------------------
# the rotation-invariant functional on homogeneous degree -2 functions
# ---------------------------------------------------------------------------

def invariant_functional(f: Callable, contour="unit_circle") -> Estimate:
    """Contour integral (1/2pi) oint f (x dy - y dx) of a degree -2 function.

    Normalized so that f = 1/(x^2+y^2) gives exactly 1; the value does not
    depend on the contour for homogeneous f of degree -2.  ``contour`` is
    either "unit_circle" or ("ellipse", a, b) with finite a, b > 0; any other
    raises PreconditionError.  The integrand is smooth and periodic, so the
    trapezoid rule converges spectrally under doubling.
    """
    cfg = QuadratureConfig(target_rel_error=1e-12, refinement_levels=10)
    if contour == "unit_circle":
        a = b = 1.0
    elif isinstance(contour, tuple) and len(contour) == 3 and contour[0] == "ellipse":
        _, a, b = contour
        if not (0 < a < math.inf and 0 < b < math.inf):
            raise PreconditionError("ellipse semi-axes must be positive and finite, "
                                    f"got {a} and {b}")
    else:
        raise PreconditionError(f"unknown contour {contour!r}")

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

_FACTOR_NAMES = ("Gamma((alpha+1)/4)", "Gamma((beta+1)/4)", "Gamma((gamma+1)/4)",
                 "Gamma((delta+1)/4)", "Gamma(1/2)", "Gamma(1/2)", "Gamma(1/2)",
                 "Gamma((1-l1)/2)", "Gamma((1-l2)/2)", "Gamma((1-l3)/2)")


def closed_form_log(l1, l2, l3) -> complex:
    """log (modulus + i accumulated phase) of the spherical closed form."""
    z1, z2, z3 = complex(l1), complex(l2), complex(l3)
    e = exponents(z1, z2, z3)
    num = [(e.alpha + 1) / 4, (e.beta + 1) / 4, (e.gamma + 1) / 4, (e.delta + 1) / 4]
    den = [0.5, 0.5, 0.5, (1 - z1) / 2, (1 - z2) / 2, (1 - z3) / 2]
    try:
        return gamma_product_log(num, den)
    except PoleArgumentError as exc:
        raise PoleArgumentError(exc.z, exc.index,
                                factor=_FACTOR_NAMES[exc.index]) from None


def closed_form_value(l1, l2, l3) -> Estimate:
    """Spherical value of the functional; error bound from Gamma tolerance only.
    It is the analytic continuation, also where ``require_convergent`` refuses
    the integral (-14.05 at (0.5, 0.5, 0.5), where Re delta = -1.5)."""
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
    z = complex(lam)
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

    Computed fully in log space: at tau = tau' = 0 the raw square leaves the
    normal double range near |lam| = 445 and is exactly 0 by |lam| = 500
    (the modulus itself underflows near |lam| = 900).
    """
    logk = 2.0 * closed_form_log(tau, tau_prime, lam).real
    return math.exp(logk - decay_envelope_log(lam))


def require_doubling_ladder(moduli: Sequence[float]) -> None:
    """Raise PreconditionError unless moduli is t, 2t, 4t, ... with finite
    t > 0: one rung or more, as decay_constant and decay-scan take them."""
    if not len(moduli) or not 0.0 < moduli[0] < math.inf or any(
            b != 2.0 * a for a, b in zip(moduli, moduli[1:])):
        raise PreconditionError("a decay ladder needs at least one rung of a "
                                "doubling ladder t, 2t, 4t, ... with finite "
                                f"t > 0, got {list(moduli)}")


def decay_constant(tau, tau_prime, moduli: Sequence[float]):
    """Extrapolated plateau of normalized_decay over a doubling ladder.

    The normalized sequence behaves like c (1 + O(1/|lam|)); Richardson
    extrapolation on a doubling ladder removes the 1/|lam| term.  Returns
    (c_estimate, error_estimate); with one rung its value is returned with
    an infinite error bar.  A ladder that is not t, 2t, 4t, ... with finite
    t > 0 (the weights are those of a doubling) raises PreconditionError,
    and so does Re(tau + tau') != 0: there the sequence goes like
    |lam|^-s, s = Re(tau + tau'), and has no plateau to extrapolate.
    """
    require_doubling_ladder(moduli)
    s = (complex(tau) + complex(tau_prime)).real
    if abs(s) > 1e-12:
        raise PreconditionError(f"decay plateau needs Re(tau + tau') = 0, got {s}")
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

def _log_sin(u):
    """log sin y from u = tan(y / 2), 0 < y < pi: sin y = 2u / (1 + u^2)."""
    q = u * u
    q += 1.0
    np.divide(u + u, q, out=q)
    return np.log(q, out=q)


class _FoldedModes:
    """Mode factors of the folded integrand.  c(a, b) = sum_{p,q} f1_p f2_q
    f3_-(p+q) e^{2i(pa+qb)} has period pi in each angle, so folding leaves

        g1(a, b) = c(a, b) + c(-a, -b)   on K1,   g2(a, b) = g1(b, a)   on K2,

    sums of sym[p, q] e^{2i(pa+qb)} for sym = mat + mat[::-1, ::-1] (mat on
    modes -P..P, P = max(P1, P2)).  Constant data: g1 = g2 = 2 c0.
    """

    def __init__(self, f1: CircleFunction, f2: CircleFunction, f3: CircleFunction):
        self.P = max(f1.max_mode, f2.max_mode)
        p = np.arange(-self.P, self.P + 1)
        mat = (np.outer([f1.coefficient(k) for k in p], [f2.coefficient(k) for k in p])
               * np.array([[f3.coefficient(-(a + b)) for b in p] for a in p]))
        sym = mat + mat[::-1, ::-1]
        self.both = np.concatenate([sym, sym.T], axis=1)

    def factors(self, d, u):
        """(g1, g2) at a = d, then at a = pi - d, for rows d and nodes B with
        u = tan(B / 2): shape (R, N, 4), or (R, 1, 4) for constant data.  Per
        row each is a trigonometric polynomial in B: its coefficients meet one
        real node factor [cos 2kB, sin 2kB]_{k=1..P}, with e^{2ikB} =
        (e^{2iB})^k and e^{iB} = (1 + iu) / (1 - iu) = (1 - u^2 + 2iu) / (1 + u^2),
        from the tangent the log-sine of B already took.
        """
        P = self.P
        ex = np.exp(2j * np.multiply.outer(d, np.arange(-P, P + 1)))
        # e^{2ip(pi - d)} = conj(e^{2ipd}); h is indexed (row, piece and g, q)
        h = (np.stack([ex, ex.conj()], axis=1) @ self.both).reshape(len(d), 4, -1)
        g = h[:, None, :, P]
        if P == 0:
            return g
        pos, neg = h[:, :, P + 1:], h[:, :, P - 1::-1]
        coef = np.empty((len(d), 2 * P, 4), dtype=complex)
        coef[:, 0::2] = (pos + neg).transpose(0, 2, 1)
        coef[:, 1::2] = (1j * (pos - neg)).transpose(0, 2, 1)
        z = np.empty(u.shape + (P,), dtype=complex)
        cis_half_angle(u, 1.0, out=z[..., 0])
        z[..., 0] *= z[..., 0]
        for k in range(1, P):
            np.multiply(z[..., k - 1], z[..., 0], out=z[..., k])
        return g + (z.view(float) @ coef.view(float)).view(complex)


def _folded_sum(powers, modes: _FoldedModes, d, wd, x, omx, w):
    """sum_r wd_r d_r sum_j w_j F(d_r, x_j) for the folded integrand F.

    The square is the lower triangle {0 < b < a < pi} and its transpose.  Both
    fold onto T1a = {0 < b < a, a + b < pi}, whose pieces a = d and a = pi - d
    (b = d x) turn every singular corner into an endpoint of the node family:
    |sin a| = sin d and |sin(a - b)| = sin(d (1 -+ x)).  F sums over the pieces

        g1 K1 + g2 K2,   K1 = |sin a|^sB |sin b|^sA |sin(a-b)|^sG,
                         K2 = |sin a|^sA |sin b|^sB |sin(a-b)|^sG,

    in log space rather than through kernel_on_circle, since both kernels and
    pieces share log-sines: K1 = M S and K2 = M / S, S the power of
    sin a / sin b.  Every transcendental is numpy's SIMD tan, exp or log, by
    the tangent half-angle identities.  With t = tan(y / 2), log sin y =
    log(2t / (1 + t^2)) on (0, pi): one log, free of the cancellation of
    log(2t) - log1p(t^2) near y = pi.  With t = tan(im / 2),

        e^{re + i im} = e^re (1 - t^2 + 2it) / (1 + t^2),

    and 1/S = e^-re conj(e^{i im}): no complex exp or division, no sine or
    cosine.  Where the columns are mirror-symmetric (x == omx[::-1] bit for
    bit, as on the principal series), log sin(d (1 - x)) is log sin(d x)
    read in reverse.  Values are deterministic per machine, since the SIMD
    loops may differ from libm in the last place; kernel_on_circle is the
    libm reference this is tested against.  A node whose value overflows
    contributes nothing: the true integrand times its weight vanishes at the
    endpoints (Re s > -1).
    """
    sA, sB, sG = powers
    c1, c2 = 0.5 * (sA + sB), 0.5 * (sB - sA)
    # every angle is halved before its tangent; 0.5 (c y) = (0.5 c) y exactly
    hc1, hc2, hsG = 0.5 * c1.imag, 0.5 * c2.imag, 0.5 * sG.imag
    hx, hpx = 0.5 * x, 0.5 * (1.0 + x)
    homx = None if np.array_equal(x, omx[::-1]) else 0.5 * omx
    total = 0.0 + 0.0j
    rows = max(1, _BLOCK_NODES // len(x))
    for lo in range(0, len(d), rows):
        dd = d[lo:lo + rows, None]
        uB = np.tan(dd * hx)
        lA = _log_sin(np.tan(0.5 * dd))
        lB = _log_sin(uB)
        lG = (np.ascontiguousarray(lB[:, ::-1]) if homx is None
              else _log_sin(np.tan(dd * homx)), _log_sin(np.tan(dd * hpx)))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            vp, vm = lA + lB, lA - lB
            tS, reS = np.tan(hc2 * vm), c2.real * vm
            S = cis_half_angle(tS, np.exp(reS))
            Sinv = cis_half_angle(-tS, np.exp(-reS))
            g = modes.factors(dd[:, 0], uB)
            pI, pR = hc1 * vp, c1.real * vp
            for piece, lg in enumerate(lG):
                term = g[..., 2 * piece] * S
                term += g[..., 2 * piece + 1] * Sinv
                term *= cis_half_angle(np.tan(pI + hsG * lg),
                                       np.exp(pR + sG.real * lg))
                f = term if piece == 0 else f + term
            f[~np.isfinite(f)] = 0.0
        total += np.sum((f @ w) * (dd[:, 0] * wd[lo:lo + rows]))
    return total


def _tail_kept(t, p):
    """Whether the strip from an endpoint to the nodes at distance t from it
    has majorant mass int_0^t u^(p-1) du = t^p / p of at least _TAIL_EPS."""
    return t ** p >= _TAIL_EPS * p


def triple_quadrature(f1: CircleFunction, f2: CircleFunction, f3: CircleFunction,
                      l1, l2, l3, cfg: Optional[QuadratureConfig] = None) -> Estimate:
    """Numerical circle-model value of the functional on truncated Fourier data.

    Levels run from 3 to 2 + cfg.refinement_levels; a top level above
    MAX_QUADRATURE_LEVEL raises PreconditionError before any work.  Each level
    is one pass over the folded half-triangle that evaluates only the nodes
    the level before lacked; ``cost`` counts the nodes evaluated.

    The tensor grid is cut where its tail cannot matter.  Let e = min(Re s, 0)
    for each kernel power s of (sA, sB, sG).  Jordan's inequality
    sin t >= 2t/pi on [0, pi/2] gives |sin t|^s <= (2t/pi)^e, and in the
    piece a = pi - d, |sin(a - b)| >= sin(d (1 - x)).  So on row d = pi y/2
    and column x the four terms g K of the folded integrand have the
    separable majorant

        |d F(d, x)| <= 2 pi max|g| y^(p_row-1) x^(p_col-1) (1-x)^(p_end-1),
        p_row = 2 + eA + eB + eG,  p_col = 1 + min(eA, eB),  p_end = 1 + eG,

    of integral B.  Since int_0^t u^(p-1) du = t^p / p, the strip between an
    endpoint and the node at distance t from it (t = x or 1 - x, p the
    exponent at that endpoint) carries at most t^p / p times the integral
    of the other factors.  A row or column is evaluated iff each strip it
    bounds has t^p / p >= eps = 2^-60: columns toward x = 0 with p_col and
    toward x = 1 with p_end, rows toward d = 0 with p_row and toward
    d = pi/2 with p_end (there the majorant is bounded and t <= t^p / p).
    When p_row <= 0 the majorant is not integrable in y and every row is
    kept.  The four dropped strips so carry at most 8 eps B, while the sum
    is rounded at 2^-53 of the sum S of w |g K| over its nodes and terms.
    On constant data on the principal series (Re s = -1/2), S approximates
    at least B / (2 (pi/2)^(3/2)), so the dropped mass, below 2^-54 S, lies
    under the rounding of the sum itself.  Whether a node is kept depends
    only on its position, so the nested levels still reuse the previous sum
    exactly, and near the convergence edge (p -> 0) every node is kept.

    Each node takes its log-sines, kernel powers and mode phases from one
    SIMD tangent per angle, by sin y = 2t / (1 + t^2) and e^{i phi} =
    (1 - t^2 + 2it) / (1 + t^2) with t the tangent of the half angle (see
    _folded_sum).  Deterministic for a fixed config on one machine: the node
    sets and the summation order are functions of the level and of
    Re (sA, sB, sG) only, and numpy's SIMD tan, exp and log may differ from
    libm in the last place.  Raises NonFiniteError on a non-finite Fourier
    coefficient or parameter.
    """
    cfg = cfg or QuadratureConfig()
    top = _START_LEVEL + cfg.refinement_levels - 1
    if top > MAX_QUADRATURE_LEVEL:
        raise PreconditionError(f"quadrature level {top} exceeds "
                                f"MAX_QUADRATURE_LEVEL = {MAX_QUADRATURE_LEVEL}")
    for j, f in enumerate((f1, f2, f3), start=1):
        if not np.all(np.isfinite(f.coeffs)):
            raise NonFiniteError(f"f{j} has a non-finite Fourier coefficient")
    e = exponents(l1, l2, l3)
    e.require_convergent()
    powers = e.kernel_powers()
    modes = _FoldedModes(f1, f2, f3)
    eA, eB, eG = (min(s.real, 0.0) for s in powers)
    p_row, p_col, p_end = 2.0 + eA + eB + eG, 1.0 + min(eA, eB), 1.0 + eG
    raw = 0.0 + 0.0j

    def eval_at_level(level):
        nonlocal raw
        x, omx, w = unit_nodes("singularity_split", level)
        to_end = _tail_kept(omx, p_end)
        cols = np.flatnonzero(_tail_kept(x, p_col) & to_end)
        rows = (np.flatnonzero(_tail_kept(x, p_row) & to_end) if p_row > 0
                else np.arange(len(x)))
        # level - 1's nodes are the even positions: each keeps its value and
        # half its old weight on each axis
        if level > _START_LEVEL:
            old, new = rows[rows % 2 == 0], rows[rows % 2 == 1]
            new_cols = cols[cols % 2 == 1]
        else:
            old, new, new_cols = rows[:0], rows, cols
        d, wd = (np.pi / 2.0) * x, (np.pi / 2.0) * w
        raw = (raw / 4.0
               + _folded_sum(powers, modes, d[new], wd[new],
                             x[cols], omx[cols], w[cols])
               + _folded_sum(powers, modes, d[old], wd[old],
                             x[new_cols], omx[new_cols], w[new_cols]))
        return (raw / np.pi ** 2,
                2 * len(new) * len(cols) + 2 * len(old) * len(new_cols))

    return refine_until(eval_at_level, cfg, method="triple/singularity_split",
                        start_level=_START_LEVEL)


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
    polynomial (s an even nonnegative integer).  Up to that line, with
    a = 1+s/2, the right factor is 1/Gamma(a-k) = (a-1)...(a-k) / Gamma(a),
    exactly 0 at and past a pole.
    """
    s = complex(s)
    if s.real <= -1.0:
        raise PreconditionError(f"need Re s > -1, got {s}")
    kd = min(kmax, 2 + max(0, int(math.ceil(s.real / 2.0))))
    k = np.arange(kmax + 1)
    # log Gamma at 1+s, at 1+s/2+k and, past kd, at k-s/2: all have Re > 0
    lg = log_gamma_array(np.concatenate([[1.0 + s], 1.0 + s / 2.0 + k,
                                         k[kd + 1:] - s / 2.0]))
    lg_pref = -s * math.log(2.0) + lg[0]
    lg_up = lg[1:kmax + 2]
    out = np.zeros(kmax + 1, dtype=complex)
    out[:kd + 1] = (np.exp(lg_pref - lg_up[0] - lg_up[:kd + 1])
                    * np.cumprod(np.concatenate([[1.0], k[1:kd + 1] - (1.0 + s / 2.0)])))
    sinfac = np.sin(np.pi * (1.0 + s / 2.0))
    if abs(sinfac) != 0.0:
        out[kd + 1:] = np.exp(lg_pref + np.log(complex(sinfac)) - math.log(math.pi)
                              + (lg[kmax + 2:] - lg_up[kd + 1:]))
    return out


def _em_power_tail(w: complex, J: int) -> complex:
    """sum_{j > J} j^-w by Euler-Maclaurin (Re w > 1)."""
    a = float(J + 1)
    t = a ** (1.0 - w) / (w - 1.0) + 0.5 * a ** (-w)
    t += w * a ** (-w - 1.0) / 12.0
    t -= w * (w + 1.0) * (w + 2.0) * a ** (-w - 3.0) / 720.0
    return t


_FIT_N = 60      # tail-fit window: |j| = J+1 .. J+_FIT_N on each side


def _tail_weights(cG, w0: complex, J: int) -> np.ndarray:
    """cG[|j|] times the convolution weight of j, |j| <= J + _FIT_N: 1 up to J,
    and on each tail window the linear map  terms -> fitted (A + C/j) j^-w0
    -> its analytic sum over |j| > J,  folded into one vector."""
    L = J + _FIT_N
    jj = np.arange(J + 1, L + 1)
    fit = np.linalg.pinv(np.stack([np.ones(_FIT_N), 1.0 / jj], axis=1))
    tails = np.array([_em_power_tail(w0, J), _em_power_tail(w0 + 1.0, J)])
    tail_w = (tails @ fit) * jj ** w0
    weight = np.ones(2 * L + 1, dtype=complex)
    weight[L + J + 1:] = tail_w
    weight[:_FIT_N] = tail_w[::-1]
    return cG[np.abs(np.arange(-L, L + 1))] * weight


def _convolve_modes(pairs, cA, cB, gw: np.ndarray) -> np.ndarray:
    """sum_j gw[j] cB[|m'+j|] cA[|j-n'|], |j| <= L, for each pair (m', n').

    With s = m' + n' fixed, cB[|m'+j|] cA[|j-n'|] = h(m'+j) for
    h(i) = cB[|i|] cA[|i-s|], so each run of consecutive m' on one antidiagonal
    is one correlation np.correlate(h, conj(gw), "valid"), with no window copy.
    """
    if len(pairs) == 0:
        return np.empty(0, dtype=complex)
    L = len(gw) // 2
    # distinct (m'+n', m') sorted, cut into runs of consecutive m'
    keys, inverse = np.unique(np.stack([pairs.sum(axis=1), pairs[:, 0]], axis=1),
                              axis=0, return_inverse=True)
    cuts = np.flatnonzero((np.diff(keys[:, 0]) != 0) | (np.diff(keys[:, 1]) != 1))
    vals = np.empty(len(keys), dtype=complex)
    for run in np.split(np.arange(len(keys)), cuts + 1):
        s, lo = keys[run[0]]
        i = np.arange(lo - L, lo + len(run) + L)
        h = cB[np.abs(i)] * cA[np.abs(i - s)]
        vals[run] = np.correlate(h, np.conj(gw), "valid")
    return vals[inverse.ravel()]


def spectral_mode_values(pairs, l1, l2, l3, jmax: Optional[int] = None) -> np.ndarray:
    """Values of the functional on modes e^{2im'x} (x) e^{2in'y} (x) e^{2ik'z}
    with k' = -(m'+n'), for an array of integer index pairs (m', n').

    The value is the (2m', 2n') Fourier coefficient of
    |sin a|^sB |sin b|^sA |sin(a-b)|^sG, computed as

        sum_j cG[j] cB[-m'-j] cA[j-n']

    over the exact |sin|^s series, cut at |j| = J = jmax (an integer >= 1),
    by default (jmax None) 2000 + 10 * (largest |index| of the call).  The
    tail beyond J decays like a smooth power j^-(3 + sA + sB + sG); each
    side is fitted by least squares with A + C/j times that power on 60
    terms and summed analytically.  The fit is linear in the terms, so it
    is one fixed weight vector, and the pairs with equal m' + n' and
    consecutive m' are one correlation against it.  A pair array not of
    shape (n, 2) or a ``jmax`` below 1 raises PreconditionError.
    """
    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim == 1 and pairs.size in (0, 2):
        pairs = pairs.reshape(-1, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise PreconditionError(f"pairs must have shape (n, 2), got {pairs.shape}")
    if jmax is not None and jmax < 1:
        raise PreconditionError(f"convolution cutoff jmax must be >= 1, got {jmax}")
    e = exponents(l1, l2, l3)
    e.require_convergent()
    sA, sB, sG = e.kernel_powers()
    w0 = 3.0 + (sA + sB + sG)
    if w0.real <= 1.05:
        raise PreconditionError(
            "spectral convolution needs Re(3 + sA + sB + sG) > 1; "
            "use the quadrature backend for this parameter range")
    maxidx = int(np.max(np.abs(pairs))) if pairs.size else 0
    J = 2000 + 10 * maxidx if jmax is None else jmax
    kmax = J + _FIT_N + maxidx + 2
    cA, cB, cG = (sine_power_coeffs(s, kmax) for s in (sA, sB, sG))
    return _convolve_modes(pairs, cA, cB, _tail_weights(cG, w0, J))

