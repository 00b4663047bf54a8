"""Gaussian-measure oracles for the reduction chain behind the closed form.

The measure is dG = pi^(-n/2) exp(-Q) dl with Q the squared Euclidean norm,
i.e. each coordinate is normal with variance 1/2 (this normalization makes
<1, G> = 1).  Monte Carlo estimates use a counter-based Philox stream split
into fixed-size chunks, each chunk owning a disjoint counter range, so results
are bit-identical for a fixed seed regardless of how chunks are scheduled.
Integrands that share a stream share its draw: each chunk is drawn once and
all of them are evaluated on it, each with its own sum and variance merge,
so every estimate is bit-identical to a separate call on the same stream.

Closed-form moments verified here:

    <r^s, G>      = Gamma((s+n)/2) / Gamma(n/2)          (radius moment)
    <|h|^s, G>    = ||h||^s Gamma((s+1)/2) / Gamma(1/2)  (linear functional)
    <|det|^s, G>  = Gamma((s+1)/2) Gamma(s/2+1) / Gamma(1/2)   (2x2 matrices)

plus the two reduction identities that connect the kernel integral to them:
the homogeneous-function reduction <h, G> = Gamma((1-lam)/2) L(h e_lam) and
the minor-map pullback <nu*(h), G> = <h, G> Gamma(s/2 + 1), and finally the
kernel Gaussian  B = A * Gamma((1-l1)/2) Gamma((1-l2)/2) Gamma((1-l3)/2).
``identity_battery`` runs all of them as one fixed, seeded sweep, drawing
each of its 8 (seed, dim) streams once for its 35 identities.

The Monte Carlo integrands take no complex exp: ``abs_powers`` (|v|^s) and
``CircleFunction.evaluate`` (the angular factor) take their phases from
``circlefn.cis_half_angle``.  Real columns are summed and merged in real
arithmetic.  The kernel-Gaussian rows keep ``kernel_value``, the libm
reference of ``kernel.py``, and the closed forms and the radial-quadrature
oracle keep their complex exp.

``radial_expect`` is a deterministic radial-quadrature route for
rotation-invariant integrands, a second, non-statistical oracle; the radial
route of ``homogeneous_reduction_check`` is sqrt(pi) f_0 times it at n = 1.
"""

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .circlefn import CircleFunction, cis_half_angle
from .errors import NonConvergentError, NonFiniteError, PreconditionError
from .estimate import Estimate
from .kernel import kernel_value
from .params import as_count, exponents
from .quadrature import half_line_nodes, refine_until
from .specfun import gamma_product_log, log_gamma_array
from .trilinear import closed_form_log, invariant_functional

__all__ = [
    "GaussianSpec",
    "gaussian_expect",
    "radius_moment",
    "linear_moment",
    "det_moment",
    "radial_expect",
    "minor_map",
    "homogeneous_reduction_check",
    "minor_pullback_check",
    "kernel_gaussian_check",
    "identity_battery",
]

_CHUNK = 1 << 16


@dataclass(frozen=True)
class GaussianSpec:
    """A draw of ``samples`` points of the measure on R^dim from the Philox
    stream ``seed``.  Integers dim >= 1, seed >= 0 and samples >= 2 (a bar
    needs a sample variance), or PreconditionError."""
    dim: int
    seed: int
    samples: int

    def __post_init__(self):
        as_count(self.dim, "dim", 1)
        as_count(self.seed, "seed")
        as_count(self.samples, "samples", 2)


def abs_powers(v: np.ndarray, svals) -> list:
    """[|v|^s for s in svals], 0 where v = 0 (a null set when Re s > -1) and
    NaN where v is NaN; log|v| is taken once for all s.

    Real s give real columns: 1, |v| and |v| |v| at s = 0, 1, 2, and
    exp(s log|v|) else.  Complex s give e^(Re s log|v|) cis(Im s log|v|),
    the phase from one SIMD tangent of its half by cis_half_angle, so no
    column takes a complex exp.  At |v| = inf a real s gives pow's limit
    (1, inf or 0); a complex one gives NaN, since the phase has no limit.
    """
    svals = [complex(s) for s in svals]
    a = np.abs(v)
    if any(s not in (0, 1, 2) for s in svals):
        good = a != 0
        everywhere = bool(good.all())
        log_a = np.log(a if everywhere else a[good])
    out = []
    for s in svals:
        if s == 0:
            col = np.where(np.isnan(a), np.nan, 1.0)
        elif s == 1:
            col = a
        elif s == 2:
            col = a * a
        else:
            with np.errstate(invalid="ignore"):     # tan(+-inf) at |v| = inf
                scale = 1.0 if s.real == 0 else np.exp(s.real * log_a)
                if s.imag == 0:
                    col = scale
                else:
                    half = np.multiply(log_a, 0.5 * s.imag)
                    col = cis_half_angle(np.tan(half, out=half), scale)
            if not everywhere:
                full = np.zeros(len(a), dtype=col.dtype)
                full[good] = col
                col = full
        out.append(col)
    return out


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    bg = np.random.Philox(seed)
    bg.advance(chunk_index << 64)     # disjoint counter range per chunk
    return np.random.Generator(bg)


def _expect_columns(spec: GaussianSpec, integrand: Callable) -> list:
    """Monte Carlo <f_j, G> for the k integrands f_j of one draw.

    ``integrand`` receives an (n, dim) array of sample points, valid for the
    call only (the next chunk is drawn into it), and returns a sequence of
    k arrays of n values, one per f_j; a column of another shape raises
    PreconditionError before any sum.  Each chunk is drawn once;
    each column keeps its own sum and (mean, M2) merge, so every Estimate is
    bit-identical to a separate ``gaussian_expect`` call with f_j.  A real
    column is summed and merged in real arithmetic (a float sum and a real
    dot product); every value is returned complex.
    """
    acc = None                  # per column: [total, mean, m2]
    done = 0
    chunk_index = 0
    # every chunk is drawn into one array: a fresh one costs page faults
    buf = np.empty((min(_CHUNK, spec.samples), spec.dim))
    while done < spec.samples:
        n = min(_CHUNK, spec.samples - done)
        pts = buf[:n]
        _chunk_generator(spec.seed, chunk_index).standard_normal(out=pts)
        pts *= math.sqrt(0.5)
        cols = [np.asarray(vals) for vals in integrand(pts)]
        for vals in cols:
            if vals.shape != (n,):
                raise PreconditionError(f"integrand must return {n} values per "
                                        f"column, got shape {vals.shape}")
        if acc is None:
            acc = [[0.0, 0.0, 0.0] for _ in cols]
        devs = {}               # the chunk's columns share deviation arrays
        for vals, a in zip(cols, acc):
            kind = complex if np.iscomplexobj(vals) else float
            chunk_sum = kind(np.sum(vals))
            # a NaN or inf value makes the sum non-finite; only then scan
            if not cmath.isfinite(chunk_sum):
                what = ("sum overflowed" if np.all(np.isfinite(vals))
                        else "integrand produced non-finite values")
                raise NonFiniteError(f"{what} in chunk {chunk_index}")
            a[0] += chunk_sum
            key = (kind, vals.shape)
            if key not in devs:
                devs[key] = np.empty(vals.shape, dtype=kind)
            dev = np.subtract(vals, chunk_sum / n, out=devs[key])
            delta = chunk_sum / n - a[1]
            a[1] += delta * (n / (done + n))
            a[2] += (float(np.vdot(dev, dev).real)
                     + abs(delta) ** 2 * (done * n / (done + n)))
        del cols, vals, dev, devs   # free them before the next chunk's draw
        done += n
        chunk_index += 1
    n = spec.samples
    return [Estimate(value=complex(total / n),
                     error_bound=3.0 * math.sqrt(m2 / (n - 1) / n),
                     method=f"mc-philox/seed{spec.seed}", cost=n)
            for total, _, m2 in acc]


def gaussian_expect(spec: GaussianSpec, integrand: Callable) -> Estimate:
    """Monte Carlo <f, G> with error_bound = 3 x standard error of the mean.

    ``integrand`` receives an (n, dim) array of sample points, which the next
    chunk overwrites, and must return n values (complex allowed), an array
    of shape (n,); any other shape raises PreconditionError.  The caller
    asserts that |f| has a finite second moment; with heavy-tailed
    integrands the reported standard error is the empirical one.  The value
    is the plain sum over n; the variance merges per-chunk (mean, sum of
    squared deviations) pairs (Chan, Golub and LeVeque 1979), so a large
    offset in f does not cancel it away.
    """
    return _expect_columns(spec, lambda pts: (integrand(pts),))[0]


# ---------------------------------------------------------------------------
# closed-form moments
# ---------------------------------------------------------------------------

# Each takes one s or an array of them, with one log-Gamma call for all.

def radius_moment(n: int, s) -> complex:
    """<r^s, G> on R^n = Gamma((s+n)/2) / Gamma(n/2); needs an integer n >= 1
    and Re s > -n."""
    n = as_count(n, "n", 1)
    s = np.asarray(s, dtype=complex)
    if np.any(s.real <= -n):
        raise PreconditionError(f"radius moment needs Re s > -{n}")
    return np.exp(gamma_product_log([(s + n) / 2], [np.full_like(s, n / 2)]))


def linear_moment(h_norm: float, s) -> complex:
    """<|h|^s, G> = ||h||^s Gamma((s+1)/2) / Gamma(1/2); needs Re s > -1."""
    s = np.asarray(s, dtype=complex)
    if np.any(s.real <= -1):
        raise PreconditionError("linear moment needs Re s > -1")
    if not h_norm > 0:
        raise PreconditionError("h_norm must be positive")
    lg = gamma_product_log([(s + 1) / 2], [np.full_like(s, 0.5)])
    return np.exp(s * math.log(h_norm) + lg)


def det_moment(s) -> complex:
    """<|det|^s, G> on 2x2 matrices = Gamma((s+1)/2) Gamma(s/2+1) / Gamma(1/2)."""
    s = np.asarray(s, dtype=complex)
    if np.any(s.real <= -1):
        raise PreconditionError("determinant moment needs Re s > -1")
    return np.exp(gamma_product_log([(s + 1) / 2, s / 2 + 1],
                                    [np.full_like(s, 0.5)]))


# ---------------------------------------------------------------------------
# radial quadrature (independent deterministic oracle, no Gamma anywhere)
# ---------------------------------------------------------------------------

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def radial_expect(n: int, s) -> Estimate:
    """<r^s, G> on R^n (n <= 3) by half-line quadrature in the radius.

    Uses only the elementary sphere areas 2, 2pi, 4pi; int r^{s+n-1} e^{-r^2}
    dr is an exp-sinh sum.  Its bar adds r0^p / p (p = Re s + n), a bound on
    the strip below the first node r0 = exp(-pi/2 sinh 4.5) that no level sees.
    """
    if n not in _SPHERE_AREA:
        raise PreconditionError("radial route implemented for n in {1,2,3}")
    s = complex(s)
    if s.real <= -n:
        raise PreconditionError(f"needs Re s > -{n}")
    scale = _SPHERE_AREA[n] / math.pi ** (n / 2.0)
    r0, p = half_line_nodes(1)[0][0], s.real + n

    def levels():
        for level in range(3, 11):
            r, w = half_line_nodes(level)
            terms = np.exp((s + n - 1) * np.log(r) - r * r) * w
            yield level, scale * np.sum(terms), len(r), scale * np.sum(np.abs(terms))

    return refine_until(levels(), 1e-12, method="radial-exp-sinh",
                        truncation=scale * (r0 ** p / p))


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------

def _homogeneous_mc(lams, f: CircleFunction, spec: GaussianSpec) -> list:
    """Monte Carlo <h, G> for each lam on one draw; r, log r, theta and
    f(theta) are shared by all lam."""
    if spec.dim != 2:
        raise PreconditionError("reduction lives on R^2")
    powers = [-complex(lam) - 1.0 for lam in lams]

    def integrand(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        f_theta = f.evaluate(np.arctan2(pts[:, 1], pts[:, 0]))
        return [p * f_theta for p in abs_powers(r, powers)]

    return _expect_columns(spec, integrand)


def _zero_mean(n: int) -> list:
    """n exact zeros: both sides of the reduction for a series with f_0 = 0."""
    return [Estimate(0j, 0.0, method="zero-mean", cost=0)] * n


def _homogeneous_rhs(lams, f: CircleFunction) -> list:
    """Gamma((1-lam)/2) L(h e_lam) for each lam; h e_lam = r^-2 f(theta)
    does not depend on lam, so L is taken once.  L(r^-2 f) is the circle
    mean f_0 of f, so it is exactly 0 where f_0 = 0, which a relative
    target never meets."""
    if f.coefficient(0) == 0:
        return _zero_mean(len(lams))
    ell = invariant_functional(
        lambda x, y: f.evaluate(np.arctan2(y, x)) / (x * x + y * y))
    gams = np.exp(log_gamma_array([(1.0 - complex(lam)) / 2.0 for lam in lams]))
    return [Estimate(
        value=complex(gam) * ell.value,
        error_bound=abs(gam) * ell.error_bound + 1e-12 * abs(gam * ell.value),
        method="gamma*invariant-functional", cost=ell.cost) for gam in gams]


def homogeneous_reduction_check(lam, f: CircleFunction, method: str = "radial",
                                spec: Optional[GaussianSpec] = None):
    """Both sides of <h, G> = Gamma((1-lam)/2) L(h e_lam) on R^2.

    Here h(x) = r^(-lam-1) f(theta) is the even extension of f with
    homogeneity degree -lam - 1, and e_lam = r^(lam-1) is the spherical
    vector, so h e_lam = r^-2 f(theta).  Absolute convergence of <h, G>
    requires Re lam < 1.

    method "radial": deterministic, by the polar split <h, G> =
    (1/pi) int f dtheta int_0^inf r^-lam e^(-r^2) dr = 2 f_0 (sqrt(pi) / 2)
    radial_expect(1, -lam), f_0 being the series' mean; its bar, method and
    cost, and any NonConvergentError, are radial_expect's, scaled.  method
    "mc": plain Monte Carlo with ``spec`` (note |h|^2 is only marginally
    integrable for principal-series lam, so the error bar is the empirical
    one).  Returns (lhs, rhs) Estimates.

    Where f_0 = 0 both sides are exactly 0 (the radial one is f_0 times a
    finite integral, and L(r^-2 f) = f_0): the rhs, and the radial lhs
    without consulting radial_expect, are zero with bar 0, method
    "zero-mean" and cost 0.
    """
    z = complex(lam)
    if z.real >= 1.0:
        raise PreconditionError("need Re lam < 1 for absolute convergence")

    if method == "radial":
        c = math.sqrt(math.pi) * f.coefficient(0)
        if c == 0:
            return _zero_mean(2)

        def scaled(e):
            return replace(e, value=c * e.value, error_bound=abs(c) * e.error_bound)

        try:
            lhs = scaled(radial_expect(1, -z))
        except NonConvergentError as exc:
            raise NonConvergentError(str(exc), estimate=scaled(exc.estimate)) from None
    elif method == "mc":
        if spec is None:
            raise PreconditionError("mc method needs a GaussianSpec")
        lhs = _homogeneous_mc((z,), f, spec)[0]
    else:
        raise PreconditionError(f"unknown method {method!r}")
    return lhs, _homogeneous_rhs((z,), f)[0]


def minor_map(mats: np.ndarray) -> np.ndarray:
    """The three 2x2 minors of 2x3 matrices = cross product of the two rows.

    SO(3)-equivariant: minor_map(m @ R.T) = minor_map(m) @ R.T ... the map is
    the exterior product of the rows, so rotating both rows rotates the image.
    """
    mats = np.asarray(mats, dtype=float)
    return np.cross(mats[..., 0, :], mats[..., 1, :])


def _minor_mc(svals, spec: GaussianSpec) -> list:
    """Monte Carlo <|w_3|^s, G> for each s on one draw, with w_3 the third
    minor of the 2x3 matrix."""
    if spec.dim != 6:
        raise PreconditionError("minor-map pullback lives on R^6 (2x3 matrices)")

    def integrand(pts):
        # minor_map(pts.reshape(-1, 2, 3))[:, 2], bit for bit
        return abs_powers(pts[:, 0] * pts[:, 4] - pts[:, 1] * pts[:, 3], svals)

    return _expect_columns(spec, integrand)


def _minor_rhs(svals) -> list:
    """<h, G> Gamma(s/2 + 1) for h(w) = |w_3|^s and each s, in closed form:
    linear_moment(1, s) times Gamma(s/2 + 1), which is det_moment(s)."""
    return [Estimate(value=complex(v), error_bound=1e-11 * abs(v),
                     method="gamma-closed-form", cost=3)
            for v in det_moment(np.array([complex(x) for x in svals]))]


def minor_pullback_check(s, spec: GaussianSpec):
    """Both sides of <nu*(h), G> = <h, G> Gamma(s/2 + 1) for h(w) = |w_3|^s.

    LHS by Monte Carlo on 2x3 Gaussian matrices; RHS in closed form.
    Needs Re s > -1.  Returns (lhs, rhs) Estimates.
    """
    s = complex(s)
    if s.real <= -1:
        raise PreconditionError("minor pullback needs Re s > -1")
    return _minor_mc((s,), spec)[0], _minor_rhs((s,))[0]


def _kernel_mc(triples, spec: GaussianSpec) -> list:
    """Monte Carlo <K(l1, l2, l3), G>_{R^6} for each triple on one draw."""
    if spec.dim != 6:
        raise PreconditionError("kernel Gaussian lives on R^6 (three plane points)")
    exps = [exponents(*triple) for triple in triples]
    for e in exps:
        e.require_convergent()

    def integrand(pts):
        x = pts.reshape(-1, 3, 2)
        return [kernel_value(x[:, 0], x[:, 1], x[:, 2], e) for e in exps]

    return _expect_columns(spec, integrand)


def _kernel_rhs(l1, l2, l3) -> Estimate:
    """A * prod Gamma((1-l_j)/2), assembled in log space."""
    z1, z2, z3 = complex(l1), complex(l2), complex(l3)
    log_rhs = closed_form_log(z1, z2, z3) + gamma_product_log(
        [(1.0 - z) / 2.0 for z in (z1, z2, z3)], [])
    rhs_val = np.exp(log_rhs)
    return Estimate(value=complex(rhs_val), error_bound=1e-10 * abs(rhs_val),
                    method="gamma-closed-form", cost=13)


def kernel_gaussian_check(l1, l2, l3, spec: GaussianSpec):
    """Both sides of  <K(s1,s2,s3), G>_{R^6} = A * prod Gamma((1-l_j)/2).

    LHS by Monte Carlo over triples of plane points; RHS assembled in log
    space from the spherical closed form.  Requires Re alpha, beta, gamma >
    -1 (absolute convergence).  Note |K|^2 is marginally non-integrable for
    principal-series parameters; the error bar is the empirical 3 sigma.
    Returns (lhs, rhs) Estimates.
    """
    return _kernel_mc([(l1, l2, l3)], spec)[0], _kernel_rhs(l1, l2, l3)


# ---------------------------------------------------------------------------
# the identity battery
# ---------------------------------------------------------------------------

_S_VALUES = (0.0, 1.0, 2.0, 1j, 2j)


def identity_battery(samples: int, seed: int) -> list:
    """(identity, params, Monte Carlo lhs, closed-form rhs) for 35 identities.

    In order: radius moments (n = 1, 2, 3), linear, determinant, homogeneous
    reduction, minor pullback, kernel Gaussian; the families sample Philox
    streams seed + 0, 1, 2, 3, 4, 6.  Each family evaluates all its
    integrands on one draw of its stream, so the 35 rows take 8 draws, and
    each row is bit-identical to a separate ``gaussian_expect`` or check
    call.  |K|^2 is not integrable, so the kernel rows' error bars are
    empirical only.
    """
    rows = []

    def family(identity, labels, lhs, rhs):
        rows.extend((identity, label, l, r) for label, l, r in zip(labels, lhs, rhs))

    def spec(dim, offset):
        return GaussianSpec(dim=dim, seed=seed + offset, samples=samples)

    def closed(values):
        return [Estimate(v, 1e-11 * abs(v)) for v in values]

    def radius(pts):
        # the squared columns added in column order, as np.sum(pts * pts, 1)
        # adds them for dim <= 3, without its (n, dim) temporary
        r2 = pts[:, 0] * pts[:, 0]
        for j in range(1, pts.shape[1]):
            r2 += pts[:, j] * pts[:, j]
        return np.sqrt(r2, out=r2)

    s_labels = [f"s={s}" for s in _S_VALUES]
    for n in (1, 2, 3):
        family("radius-moment", [f"n={n};{label}" for label in s_labels],
               _expect_columns(spec(n, 0),
                               lambda pts: abs_powers(radius(pts), _S_VALUES)),
               closed(radius_moment(n, _S_VALUES)))
    family("linear-moment", s_labels,
           _expect_columns(spec(2, 1), lambda pts: abs_powers(pts[:, 0], _S_VALUES)),
           closed(linear_moment(1.0, _S_VALUES)))
    family("det-moment", s_labels,
           _expect_columns(spec(4, 2), lambda pts: abs_powers(
               pts[:, 0] * pts[:, 3] - pts[:, 1] * pts[:, 2], _S_VALUES)),
           closed(det_moment(_S_VALUES)))
    f = CircleFunction.from_modes({0: 1.0, 2: 0.25, -2: 0.25}, 1)
    lams = (0.0, 2j)
    family("homogeneous-reduction", [f"lam={lam}" for lam in lams],
           _homogeneous_mc(lams, f, spec(2, 3)), _homogeneous_rhs(lams, f))
    family("minor-pullback", s_labels, _minor_mc(_S_VALUES, spec(6, 4)),
           _minor_rhs(_S_VALUES))
    triples = ((0j, 0j, 0j), (2j, 0j, 0j), (0j, 1j, 2j))
    family("kernel-gaussian", [f"l={t}" for t in triples],
           _kernel_mc(triples, spec(6, 6)), [_kernel_rhs(*t) for t in triples])
    return rows
