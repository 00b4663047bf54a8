"""The invariant trilinear functional: closed form, quadrature, mode values.

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
  endpoint of the tanh-sinh node family, whose nested levels each add only
  the nodes the level before lacked.  No Gamma function enters.

* ``recurrence_mode_values`` -- values on the modes e^{2im'x} (x) e^{2in'y}
  (x) e^{2ik'z}, m' + n' + k' = 0, from the three-term relations invariance
  imposes, anchored by the closed form; ``spectral_mode_values``, their
  independent check, convolves the exact Fourier series of the |sin|^s
  factors.

The decay helpers normalize the squared spherical value by the exponential
envelope exp(-pi |lam| / 2) |lam|^-2 so the remaining factor can be scanned
for a plateau and extrapolated (in 1/|lam|^2 at imaginary tau and tau').
"""

import cmath
import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .circlefn import CircleFunction, cis_half_angle
from .errors import (DomainTooSmallError, NonFiniteError, PoleArgumentError,
                     PreconditionError)
from .estimate import Estimate
from .params import as_count, exponents
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
    "recurrence_mode_values",
]

_GAMMA_REL_TOL = 1e-10   # relative accuracy budget of closed-form values

_START_LEVEL = 2         # first level of triple_quadrature
# top level of triple_quadrature: each level has 4x the nodes of the last;
# on one Xeon core, constant data at (0, i, 4i) run levels 2-8 in 0.25 s and
# 2-10 in 4 s
MAX_QUADRATURE_LEVEL = 10
_BLOCK_NODES = 1 << 13   # nodes per block of rows; bounds the temporaries
_TAIL_EPS = 2.0 ** -60   # majorant mass a dropped strip of the grid may carry
# top level whose principal-series node geometry _GEOMETRY keeps: level
# 7's two parts would add 25.0 MB and each level above four times as much
_GEOMETRY_TOP = 6


# ---------------------------------------------------------------------------
# the rotation-invariant functional on homogeneous degree -2 functions
# ---------------------------------------------------------------------------

def invariant_functional(f: Callable) -> Estimate:
    """Contour integral (1/2pi) oint f (x dy - y dx) of a degree -2 function,
    taken on the unit circle.

    Normalized so that f = 1/(x^2+y^2) gives exactly 1; the value does not
    depend on the contour for homogeneous f of degree -2, so the ellipse
    with semi-axes a, b gives the value of  (x, y) -> a b f(a x, b y)  here.
    The integrand is smooth and periodic, so the trapezoid rule converges
    spectrally under doubling.
    """
    def levels():
        for level in range(10):
            n = 64 * 2 ** level
            t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            vals = np.asarray(f(np.cos(t), np.sin(t)), dtype=complex)
            yield level, (1.0 / n) * np.sum(vals), n, (1.0 / n) * np.sum(np.abs(vals))

    return refine_until(levels(), 1e-12, method="trapezoid/unit_circle")


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
    t > 0, one rung or more (decay_constant also needs a second)."""
    if not len(moduli) or not 0.0 < moduli[0] < math.inf or any(
            b != 2.0 * a for a, b in zip(moduli, moduli[1:])):
        raise PreconditionError("a decay ladder needs at least one rung of a "
                                "doubling ladder t, 2t, 4t, ... with finite "
                                f"t > 0, got {list(moduli)}")


def decay_constant(tau, tau_prime, moduli: Sequence[float]):
    """Extrapolated plateau of normalized_decay over a doubling ladder.

    The normalized sequence behaves like c (1 + a/|lam| + b/|lam|^2 + ...),
    with a = 0 where Re tau = Re tau' = 0.  Richardson extrapolation on the
    doubling ladder removes the leading term present: (4 r2 - r1)/3 there,
    2 r2 - r1 elsewhere.  Returns (c_estimate, error_estimate), the error
    being the last change of the extrapolated values (or of the one value
    against the last rung).  A ladder of fewer than two rungs, or one that
    is not t, 2t, 4t, ... with finite t > 0, raises PreconditionError,
    and so does Re(tau + tau') != 0: there the sequence goes like
    |lam|^-s, s = Re(tau + tau'), and has no plateau to extrapolate.
    """
    require_doubling_ladder(moduli)
    if len(moduli) < 2:
        raise PreconditionError("a decay plateau needs at least two rungs, "
                                f"got {list(moduli)}")
    tau, tau_prime = complex(tau), complex(tau_prime)
    s = (tau + tau_prime).real
    if abs(s) > 1e-12:
        raise PreconditionError(f"decay plateau needs Re(tau + tau') = 0, got {s}")
    r = [normalized_decay(tau, tau_prime, 1j * t) for t in moduli]
    w = 4.0 if max(abs(tau.real), abs(tau_prime.real)) <= 1e-12 else 2.0
    extrap = [(w * b - a) / (w - 1.0) for a, b in zip(r, r[1:])]
    prev = r[-1] if len(extrap) == 1 else extrap[-2]
    return extrap[-1], abs(extrap[-1] - prev)


# ---------------------------------------------------------------------------
# singular quadrature of the circle-model integral
# ---------------------------------------------------------------------------

def _log_sin(u, out, two_u):
    """log sin y from u = tan(y / 2), 0 < y < pi: sin y = 2u / (1 + u^2),
    written to ``out``; 2u is formed in ``two_u``, which may be u itself."""
    q = np.multiply(u, u, out=out)
    q += 1.0
    np.divide(np.add(u, u, out=two_u), q, out=q)
    return np.log(q, out=q)


def _tan(dd, h, out):
    """tan(dd h), written to ``out``."""
    return np.tan(np.multiply(dd, h, out=out), out=out)


# the block temporaries of _folded_sum by name: real and complex arrays of
# the block's shape (rows, columns) and real ones of shape (rows, 1), beside
# the mode-factor table (rows, columns, P) and its product (rows, columns, 8)
_REAL = ("u", "lB", "lP", "lM", "scratch", "vp", "vm", "pI", "tS",
         "t0", "m0", "t1", "m1", "a", "r0", "r1")
_ROW = ("uA", "lA")
_COMPLEX = ("f", "term", "tmp", "M", "S", "Sinv")
_BLOCK_SHAPES = 32       # block shapes whose views a workspace keeps


class _Block:
    """The temporaries of one block shape: an attribute per name of _REAL,
    _ROW and _COMPLEX, ``mag``, the real view of ``term``, ``table`` and
    ``product``, each a C-contiguous reshaped prefix of one of the
    workspace's flat buffers."""

    def __init__(self, ws, rows, cols, P):
        n = rows * cols
        self.__dict__.update(zip(_REAL, ws.real[:, :n].reshape(-1, rows, cols)))
        self.__dict__.update(zip(_ROW, ws.row[:, :rows].reshape(-1, rows, 1)))
        self.__dict__.update(zip(_COMPLEX, ws.cplx[:, :n].reshape(-1, rows, cols)))
        self.mag = self.term.view(float)
        self.table = ws.table[:n * P].reshape(rows, cols, P)
        self.product = ws.product[:8 * n].reshape(rows, cols, 8)


class _Workspace:
    """One thread's block temporaries, kept across calls, and the _Block
    views of up to _BLOCK_SHAPES block shapes.  Its flat buffers (a row per
    name of _REAL, _ROW and _COMPLEX, the mode-factor table and its product)
    hold ``nodes`` = max(_BLOCK_NODES, the most nodes of a block served)
    nodes, the table for the most modes ``P`` of data served.  A block that
    needs more grows the buffers it outgrows, once, and drops the views.
    Blocks of at most _BLOCK_NODES nodes with P <= 8 so take at most
    3,538,944 B per thread; a row of level 10 (10,753 nodes) or more modes
    grow them for good."""

    def __init__(self):
        self.nodes = self.P = 0
        self._grow(_BLOCK_NODES, 0)

    def _grow(self, nodes, P):
        if nodes > self.nodes:
            self.real = np.empty((len(_REAL), nodes))
            self.row = np.empty((len(_ROW), nodes))
            self.cplx = np.empty((len(_COMPLEX), nodes), dtype=complex)
            self.product = np.empty(8 * nodes)
        self.table = np.empty(P * nodes, dtype=complex)
        self.nodes, self.P, self.blocks = nodes, P, {}

    def block(self, rows, cols, P):
        """The _Block of rows x cols nodes for data with P modes."""
        blk = self.blocks.get((rows, cols, P))
        if blk is None:
            if rows * cols > self.nodes or P > self.P:
                self._grow(max(rows * cols, self.nodes), max(P, self.P))
            elif len(self.blocks) >= _BLOCK_SHAPES:
                self.blocks.clear()
            blk = self.blocks[rows, cols, P] = _Block(self, rows, cols, P)
        return blk


_LOCAL = threading.local()


def _workspace() -> _Workspace:
    """This thread's _Workspace, made on its first use."""
    ws = getattr(_LOCAL, "ws", None)
    if ws is None:
        ws = _LOCAL.ws = _Workspace()
    return ws


# (level, part) -> read-only log-sine and kernel-modulus arrays of that part
# of the principal series' level, each written once and never replaced; the
# seven parts of levels 3-6 take 8,363,520 B
_GEOMETRY = {}


def _log_sines(key, d, x, omx, re_c1, re_sG, ws, P):
    """(lo, dd, lA, lB, lG, vp, mods, uB, blk) per block of rows dd =
    d[lo:lo + rows, None] on the columns x: lA = log sin dd, lB = log
    sin(dd x), lG = (log sin(dd (1 - x)), log sin(dd (1 + x))), vp = lA +
    lB, mods = the moduli e^{re_c1 vp + re_sG lg} of M for lg in lG, uB =
    tan(dd x / 2), which the mode factors of data with P > 0 take (None for
    a table block of constant data), and blk, the block's temporaries from
    the workspace ws for data with P modes.

    A part whose ``key`` is in _GEOMETRY is read from it, moduli included,
    so a key names parts of one (re_c1, re_sG): the principal series'
    (-1/2, -1/2).  Any other part is computed block by block; one with a
    key (not None) is computed into arrays that are then made read-only and
    published under it, one without into blk.  Where the columns are
    mirror-symmetric (x == omx[::-1] bit for bit, as on the principal
    series), log sin(d (1 - x)) is log sin(d x) read in reverse, as a view,
    and is not stored.
    """
    rows = max(1, _BLOCK_NODES // len(x))
    stored = _GEOMETRY.get(key)
    store = None
    hx = 0.5 * x
    if stored is None:
        hpx, homx = 0.5 * (1.0 + x), 0.5 * omx
        mirrored = np.array_equal(x, omx[::-1])
        if key is not None:
            store = [np.empty((len(d), 1))] + [np.empty((len(d), len(x)))
                                               for _ in range(4 if mirrored else 5)]
    for lo in range(0, len(d), rows):
        dd = d[lo:lo + rows, None]
        blk = ws.block(len(dd), len(x), P)
        uB = _tan(dd, hx, blk.u) if stored is None or P else None
        if stored is not None:
            lA, lB, lP, *lM, m0, m1 = (a[lo:lo + rows] for a in stored)
        else:
            outs = ([blk.lA, blk.lB, blk.lP, blk.lM][:3 if mirrored else 4]
                    + [blk.m0, blk.m1] if store is None
                    else [a[lo:lo + rows] for a in store])
            lA, lB, lP, *lM, m0, m1 = outs
            _log_sin(_tan(dd, 0.5, blk.uA), lA, blk.uA)
            _log_sin(uB, lB, blk.scratch)
            for out in lM:
                _log_sin(_tan(dd, homx, blk.scratch), out, blk.scratch)
            _log_sin(_tan(dd, hpx, blk.scratch), lP, blk.scratch)
        lG = (lM[0] if lM else lB[:, ::-1], lP)
        vp = np.add(lA, lB, out=blk.vp)
        if stored is None:
            pR = np.multiply(vp, re_c1, out=blk.scratch)
            with np.errstate(over="ignore"):
                for lg, m in zip(lG, (m0, m1)):
                    np.multiply(lg, re_sG, out=m)
                    m += pR
                    np.exp(m, out=m)
        yield lo, dd, lA, lB, lG, vp, (m0, m1), uB, blk
    if store is not None:
        for a in store:
            a.flags.writeable = False
        _GEOMETRY.setdefault(key, store)      # a part stored meanwhile stays


def _phases(lG, mods, pI, hsG, blk):
    """(t, m) per piece, one piece at a time: t, in blk's t0 or t1, the
    tangent of the half phase of M = e^{c1 vp + sG lg} for the piece's
    log-sine lg of a - b, from pI = Im c1 vp / 2, and m, its modulus, from
    mods."""
    for lg, t, m in zip(lG, (blk.t0, blk.t1), mods):
        np.multiply(lg, hsG, out=t)
        t += pI
        yield np.tan(t, out=t), m


def _padded(f: CircleFunction, P: int) -> np.ndarray:
    """f's coefficients on the modes -P..P, zero past f.max_mode."""
    m = min(P, f.max_mode)
    c = np.zeros(2 * P + 1, dtype=complex)
    c[P - m:P + m + 1] = f.coeffs[f.max_mode - m:f.max_mode + m + 1]
    return c


class _FoldedModes:
    """Mode factors of the folded integrand.  c(a, b) = sum_{p,q} f1_p f2_q
    f3_-(p+q) e^{2i(pa+qb)} has period pi in each angle, so folding leaves

        g1(a, b) = c(a, b) + c(-a, -b)   on K1,   g2(a, b) = g1(b, a)   on K2,

    sums of sym[p, q] e^{2i(pa+qb)} for sym = mat + mat[::-1, ::-1] (mat on
    modes -P'..P', P' = max(P1, P2)), cut to its support: P is the largest
    |p| or |q| of a nonzero entry, so zero padding costs nothing.  P = 0
    (constant data, or data whose modes cancel in sym): g1 = g2 = 2 c0.

    ``fold`` weighs the kernels K1 = M S and K2 = M / S of both pieces with
    them.  Where Re c2 = 0 (Re l1 = Re l2, as on the principal series),
    |S| = 1, so 1/S = conj(S), bit for bit the half-angle form of -tS.  For
    real constant data there, the integrand is 2 c0 (S + 1/S)(M0 + M1) with
    S + 1/S = 2 Re S = 4 / (1 + tS^2) - 2 real: one shared real factor in
    place of four complex products with g.  All other data take the general
    path.
    """

    def __init__(self, f1: CircleFunction, f2: CircleFunction, f3: CircleFunction,
                 powers):
        P = max(f1.max_mode, f2.max_mode)
        # f3 on modes 2P..-2P, read as the Hankel matrix of -(a + b), a, b = -P..P
        c3 = np.lib.stride_tricks.sliding_window_view(_padded(f3, 2 * P)[::-1], 2 * P + 1)
        mat = np.outer(_padded(f1, P), _padded(f2, P)) * c3
        sym = mat + mat[::-1, ::-1]
        Q = self.P = int(np.abs(np.argwhere(sym) - P).max(initial=0))
        sym = sym[P - Q:P + Q + 1, P - Q:P + Q + 1]
        self.both = np.concatenate([sym, sym.T], axis=1)
        sA, sB, _ = powers
        self.re_c2 = (0.5 * (sB - sA)).real

    def factors(self, d, u, blk):
        """(g1, g2) at a = d, then at a = pi - d, for rows d and nodes B with
        u = tan(B / 2): shape (R, N, 4), or (R, 1, 4) for constant data.  Per
        row each is a trigonometric polynomial in B: its coefficients meet one
        real node factor [cos 2kB, sin 2kB]_{k=1..P}, with e^{2ikB} =
        (e^{2iB})^k and e^{iB} = cis_half_angle(u, 1), from the tangent the
        log-sine of B already took.  e^{2iB} is formed contiguously in blk's
        M; the power table and its product are blk's ``table`` and
        ``product``.  Each power multiplies the one before within the
        table's (R, N, P) layout, whose interleaved strides take numpy's
        scalar complex product: contiguous arrays would take its SIMD
        product, whose fused multiply-add rounds differently.
        """
        P = self.P
        ex = np.exp(2j * np.multiply.outer(d, np.arange(-P, P + 1)))
        # e^{2ip(pi - d)} = conj(e^{2ipd}); h is indexed (row, piece and g, q)
        h = (np.stack([ex, ex.conj()], axis=1).reshape(2 * len(d), -1)
             @ self.both).reshape(len(d), 4, -1)
        g = h[:, None, :, P]
        if P == 0:
            return g
        pos, neg = h[:, :, P + 1:], h[:, :, P - 1::-1]
        coef = np.empty((len(d), 2 * P, 4), dtype=complex)
        coef[:, 0::2] = (pos + neg).transpose(0, 2, 1)
        coef[:, 1::2] = (1j * (pos - neg)).transpose(0, 2, 1)
        z = blk.table
        z1 = cis_half_angle(u, 1.0, out=blk.M, q=blk.scratch)
        z1 *= z1
        z[..., 0] = z1
        for k in range(1, P):
            np.multiply(z[..., k - 1], z1, out=z[..., k])
        out = np.matmul(z.view(float), coef.view(float), out=blk.product).view(complex)
        out += g
        return out

    def fold(self, d, u, tS, vm, phases, blk):
        """The folded integrand sum_k (g_k S + g'_k / S) M_k on the rows d,
        over the pieces k = 0, 1 (a = d, pi - d), with (g_k, g'_k) the
        (g1, g2) there, tS = tan(Im c2 vm / 2) and M_k = cis_half_angle(t_k,
        m_k) for the pairs ``phases`` yields, whose t_k this may overwrite
        (m_k may be read-only); in blk's ``f``.  The shared real factor
        weighs each M_k before the pieces are added, as g = 2 c0 does on the
        general path, so the same nodes overflow.
        """
        g0 = self.both[0, 0]                # g1 = g2 = 2 c0 when P = 0
        f = blk.f
        if self.P or self.re_c2 or g0.imag:
            if self.re_c2 == 0.0:
                S = cis_half_angle(tS, 1.0, out=blk.S, q=blk.scratch)
                Sinv = np.conjugate(S, out=blk.Sinv)
            else:
                re = np.multiply(vm, self.re_c2, out=blk.a)
                neg = np.negative(re, out=blk.r0)
                S = cis_half_angle(tS, np.exp(re, out=re), out=blk.S, q=blk.scratch)
                Sinv = cis_half_angle(np.negative(tS, out=blk.r1), np.exp(neg, out=neg),
                                      out=blk.Sinv, q=blk.scratch)
            g = self.factors(d, u, blk)
            for k, (t, m) in enumerate(phases):
                term = blk.term if k else f
                np.multiply(g[..., 2 * k], S, out=term)
                term += np.multiply(g[..., 2 * k + 1], Sinv, out=blk.tmp)
                term *= cis_half_angle(t, m, out=blk.M, q=blk.scratch)
                if k:
                    f += term
            return f
        a = np.multiply(tS, tS, out=blk.a)  # 2 c0 (S + 1/S)
        a += 1.0
        np.divide(4.0, a, out=a)
        a -= 2.0
        a *= g0.real
        re = im = None
        for (t, m), r in zip(phases, (blk.r0, blk.r1)):
            cis_half_angle(t, m, out=(r, t))
            r *= a
            t *= a
            if re is None:
                re, im = r, t
            else:
                re += r
                im += t
        f.real, f.imag = re, im
        return f


def _folded_sum(powers, modes: _FoldedModes, key, d, wd, x, omx, w,
                magnitude=False):
    """([sum_r wd_kr d_r sum_j w_kj F(d_r, x_j) for each k], M) for the
    folded integrand F and the K rules on the same nodes that the rows of
    the row and node weights wd (K, R) and w (K, N) give, from one
    evaluation of F; M is the first rule's sum of |Re F| + |Im F| if
    ``magnitude``, else 0.  Each row sum is a matrix-vector product, which
    needs no BLAS work buffer.  The log-sines of the nodes come from
    ``_log_sines`` under ``key``.

    The square is the lower triangle {0 < b < a < pi} and its transpose.  Both
    fold onto T1a = {0 < b < a, a + b < pi}, whose pieces a = d and a = pi - d
    (b = d x) turn every singular corner into an endpoint of the node family:
    |sin a| = sin d and |sin(a - b)| = sin(d (1 -+ x)).  F sums over the pieces

        g1 K1 + g2 K2,   K1 = |sin a|^sB |sin b|^sA |sin(a-b)|^sG,
                         K2 = |sin a|^sA |sin b|^sB |sin(a-b)|^sG,

    in log space rather than through kernel_on_circle, since both kernels and
    pieces share log-sines: K1 = M S and K2 = M / S, with S = e^{c2 vm} the
    power of sin a / sin b and M = e^{c1 vp + sG lg}, vp and vm the sum and
    difference of log sin a and log sin b and lg the piece's log sin(a - b);
    ``_FoldedModes.fold`` weighs them with g1, g2.  M's modulus e^{Re c1 vp
    + Re sG lg} comes with the log-sines from ``_log_sines``.  Every
    transcendental is numpy's SIMD tan, exp or log, by the tangent
    half-angle identities of ``_log_sin`` and ``cis_half_angle``, so values
    are deterministic per machine (kernel_on_circle is the libm reference
    this is tested against).  A node whose value overflows contributes
    nothing: the true integrand times its weight vanishes at the endpoints
    (Re s > -1).  Every block temporary lives in this thread's _Workspace,
    so a warm call touches no fresh memory; no value depends on it.
    """
    sA, sB, sG = powers
    c1, c2 = 0.5 * (sA + sB), 0.5 * (sB - sA)
    # every angle is halved before its tangent; 0.5 (c y) = (0.5 c) y exactly
    hc1, hc2, hsG = 0.5 * c1.imag, 0.5 * c2.imag, 0.5 * sG.imag
    w_mag = np.repeat(w[0], 2) if magnitude else None    # Re f, Im f alike
    total, mag = [0.0 + 0.0j] * len(w), 0.0
    ws = _workspace()
    for lo, dd, lA, lB, lG, vp, mods, uB, blk in _log_sines(
            key, d, x, omx, c1.real, sG.real, ws, modes.P):
        rows = len(dd)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            vm = np.subtract(lA, lB, out=blk.vm)
            phases = _phases(lG, mods, np.multiply(vp, hc1, out=blk.pI), hsG, blk)
            f = modes.fold(dd[:, 0], uB, _tan(vm, hc2, blk.tS), vm, phases, blk)
            sums = [np.dot(f, wk) for wk in w]
            # a non-finite node makes its row sums non-finite (the first
            # rule weighs every node); only then scan
            if not cmath.isfinite(sums[0].sum()):
                f[~np.isfinite(f)] = 0.0
                sums = [np.dot(f, wk) for wk in w]
        for k, row_sums in enumerate(sums):
            total[k] += np.sum(row_sums * (dd[:, 0] * wd[k, lo:lo + rows]))
        if magnitude:
            mag += np.sum(np.dot(np.abs(f.view(float), out=blk.mag), w_mag)
                          * (dd[:, 0] * wd[0, lo:lo + rows]))
    return total, mag


def _tail_kept(t, p):
    """Whether the strip from an endpoint to the nodes at distance t from it
    has majorant mass int_0^t u^(p-1) du = t^p / p of at least _TAIL_EPS."""
    return t ** p >= _TAIL_EPS * p


def _kept_range(x, omx, p_start, p_end):
    """(lo, hi) with x[lo:hi] the nodes whose strips toward x = 0 (exponent
    p_start) and toward x = 1 (p_end) are both kept: t^p is monotone in t,
    so each test keeps a run of nodes from its far end."""
    idx = np.flatnonzero(_tail_kept(x, p_start) & _tail_kept(omx, p_end))
    return (int(idx[0]), int(idx[-1]) + 1) if len(idx) else (0, 0)


def triple_quadrature(f1: CircleFunction, f2: CircleFunction, f3: CircleFunction,
                      l1, l2, l3, cfg: Optional[QuadratureConfig] = None) -> Estimate:
    """Numerical circle-model value of the functional on truncated Fourier data.

    Levels run from 2 to 2 + cfg.refinement_levels; a top level above
    MAX_QUADRATURE_LEVEL raises PreconditionError before any work.  One pass
    over the folded half-triangle on level 3's grid gives levels 2 and 3,
    since level 2's nodes are its even positions at twice the weight; each
    later level is one pass that evaluates only the nodes the level before
    lacked.  ``cost`` counts the nodes evaluated.  The magnitude for
    refine_until's rounding floor, the weighted sum of |Re F| + |Im F| on
    level 3's grid, serves every level.

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
    SIMD tangent per angle (see _folded_sum).  Deterministic for a fixed
    config on one machine: the node sets and the summation order are
    functions of the level and of Re (sA, sB, sG) only, and numpy's SIMD
    tan, exp and log may differ from libm in the last place.  Raises
    NonFiniteError on a non-finite Fourier coefficient or parameter.

    On the principal series (every kernel power of real part exactly -1/2)
    each level keeps one set of rows and columns, and neither the log-sines
    nor the kernel's moduli (sin a sin b |sin(a - b)|)^(-1/2) hold a
    parameter, so each part of levels 3-6 reads them from the write-once
    table _GEOMETRY; levels 7 and above and other kernel powers compute them
    block by block.  Block temporaries come from a per-thread _Workspace.
    Neither changes a value, bar, level or cost: a warm call repeats the
    cold call bit for bit, and threads never share a workspace.
    """
    cfg = cfg or QuadratureConfig()
    top = _START_LEVEL + cfg.refinement_levels
    if top > MAX_QUADRATURE_LEVEL:
        raise PreconditionError(f"quadrature level {top} exceeds "
                                f"MAX_QUADRATURE_LEVEL = {MAX_QUADRATURE_LEVEL}")
    for j, f in enumerate((f1, f2, f3), start=1):
        if not np.all(np.isfinite(f.coeffs)):
            raise NonFiniteError(f"f{j} has a non-finite Fourier coefficient")
    e = exponents(l1, l2, l3)
    e.require_convergent()
    powers = e.kernel_powers()
    modes = _FoldedModes(f1, f2, f3, powers)
    eA, eB, eG = (min(s.real, 0.0) for s in powers)
    p_row, p_col, p_end = 2.0 + eA + eB + eG, 1.0 + min(eA, eB), 1.0 + eG
    principal = all(s.real == -0.5 for s in powers)

    def part(level, name):
        """The table key of a part of the level's pass; None if not kept."""
        return (level, name) if principal and level <= _GEOMETRY_TOP else None

    def levels():       # raw: the last level's sum times pi^2
        for level in range(_START_LEVEL + 1, top + 1):
            x, omx, w = unit_nodes("singularity_split", level)
            col_range = _kept_range(x, omx, p_col, p_end)
            row_range = (_kept_range(x, omx, p_row, p_end) if p_row > 0
                         else (0, len(x)))
            cols, rows = np.arange(*col_range), np.arange(*row_range)
            d = (np.pi / 2.0) * x
            if level == _START_LEVEL + 1:
                # level 2 is this pass's second column and pays for it
                ww = np.zeros((2, len(w)))
                ww[0], ww[1, 0::2] = w, 2.0 * w[0::2]
                tot, mag = _folded_sum(powers, modes, part(level, "all"), d[rows],
                                       (np.pi / 2.0) * ww[:, rows], x[cols],
                                       omx[cols], ww[:, cols], magnitude=True)
                raw, size = tot[0], mag / np.pi ** 2
                yield _START_LEVEL, tot[1] / np.pi ** 2, 2 * len(rows) * len(cols), size
                yield level, raw / np.pi ** 2, 0, size
                continue
            # level - 1's nodes are the even positions: each keeps its value
            # and half its old weight on each axis
            wd = (np.pi / 2.0) * w
            old, new = rows[rows % 2 == 0], rows[rows % 2 == 1]
            new_cols = cols[cols % 2 == 1]
            raw = (raw / 4.0
                   + _folded_sum(powers, modes, part(level, "new rows"), d[new],
                                 wd[None, new], x[cols], omx[cols],
                                 w[None, cols])[0][0]
                   + _folded_sum(powers, modes, part(level, "new cols"), d[old],
                                 wd[None, old], x[new_cols], omx[new_cols],
                                 w[None, new_cols])[0][0])
            yield (level, raw / np.pi ** 2,
                   2 * len(new) * len(cols) + 2 * len(old) * len(new_cols), size)

    return refine_until(levels(), cfg.target_rel_error,
                        method="triple/singularity_split")


# ---------------------------------------------------------------------------
# spectral backend: exact Fourier series of |sin|^s plus accelerated tails
# ---------------------------------------------------------------------------

# largest kmax of sine_power_coeffs (16 MiB of coefficients); its caller
# spectral_mode_values asks for at most J + 10,000 = 112,000
_MAX_KMAX = 1 << 20


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
    exactly 0 at and past a pole.  A non-finite s raises NonFiniteError, a
    kmax that is not a non-negative integer or is above 2^20 = 1,048,576
    PreconditionError, before any array is made.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise NonFiniteError(f"need a finite s, got {s}")
    kmax = as_count(kmax, "kmax", top=_MAX_KMAX)
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


_TAIL_TERMS = 8         # basis terms of each tail fit
# the log-moduli of the closed form at which it anchors the recurrence rows:
# below the smallest normal double its precision drains away (at 0 every
# row is exactly 0), above the largest it overflows
_ANCHOR_LOG_RANGE = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))
_MAX_INDEX = 10_000     # largest |index| of a mode pair: J <= 102,000
_MAX_TABLE = 1 << 21    # most entries of a recurrence table (32 MiB)


def _mode_pairs(pairs) -> np.ndarray:
    """``pairs`` as an (n, 2) integer array; PreconditionError first for another
    shape (but (2,)), a non-integer or an |index| above _MAX_INDEX."""
    a = np.asarray(pairs)
    a = a.reshape(-1, 2) if a.ndim == 1 and a.size in (0, 2) else a
    if a.ndim != 2 or a.shape[1] != 2 or a.size and (
            a.dtype.kind not in "iu" or a.min() < -_MAX_INDEX or a.max() > _MAX_INDEX):
        raise PreconditionError(f"pairs must have shape (n, 2) and be integers of "
                                f"|index| <= {_MAX_INDEX}, got {a.dtype} {a.shape}")
    return a.astype(np.int64)


def _tail_weights(cG, w0: complex, J: int) -> np.ndarray:
    """cG[|j|] times the weight of j, |j| <= J: 1, plus on J/2 < |j| <= J the
    linear map  terms -> least-squares fit sum_n c_n T_n(2x - 3) |j|^-w0,
    x = J/|j|, n < _TAIL_TERMS  -> its sum over |j| > J.  With T_n(2x - 3)
    = sum_k A_nk x^k, x^k |j|^-w0 sums to J^k _em_power_tail(w0 + k, J)."""
    j = np.arange(J // 2 + 1, J + 1)
    fit = np.linalg.pinv(np.polynomial.chebyshev.chebvander(2.0 * J / j - 3.0,
                                                            _TAIL_TERMS - 1))
    # the rows A_n by T_{n+1}(y) = 2 y T_n(y) - T_{n-1}(y), y = 2x - 3
    A = np.zeros((_TAIL_TERMS, _TAIL_TERMS))
    A[0, 0], A[1, :2] = 1.0, (-3.0, 2.0)
    for n in range(1, _TAIL_TERMS - 1):
        A[n + 1] = -6.0 * A[n] - A[n - 1] + np.r_[0.0, 4.0 * A[n, :-1]]
    sums = [float(J) ** k * _em_power_tail(w0 + k, J) for k in range(_TAIL_TERMS)]
    weight = np.ones(2 * J + 1, dtype=complex)
    tail_w = (A @ sums) @ fit * j ** w0
    weight[J + j] += tail_w
    weight[J - j] += tail_w
    return cG[np.abs(np.arange(-J, J + 1))] * weight


def spectral_mode_values(pairs, l1, l2, l3) -> np.ndarray:
    """The values of ``recurrence_mode_values`` by an independent route: the
    (2m', 2n') Fourier coefficient sum_j cG[j] cB[-m'-j] cA[j-n'] of
    |sin a|^sB |sin b|^sA |sin(a-b)|^sG, over the exact |sin|^s series, one
    per distinct power, cut at |j| = J = 2000 + 10 * (largest |index|).  The
    terms decay like j^-w0, w0 = 3 + sA + sB + sG, times a series in 1/j;
    each side's tail past J is a fit over J/2 < |j| <= J (_tail_weights),
    linear in the terms, so each pair is one sum against fixed weights.
    Pairs not of shape (n, 2), a non-integer index, an |index| above 10,000,
    divergent parameters and Re w0 <= 1.05 raise PreconditionError first.
    """
    pairs = _mode_pairs(pairs)
    e = exponents(l1, l2, l3)
    e.require_convergent()
    sA, sB, sG = e.kernel_powers()
    w0 = 3.0 + (sA + sB + sG)
    if w0.real <= 1.05:
        raise PreconditionError("spectral convolution needs Re(3 + sA + sB + sG) > "
                                "1.05; use recurrence_mode_values or the quadrature")
    maxidx = int(np.max(np.abs(pairs))) if pairs.size else 0
    J = 2000 + 10 * maxidx
    # one series per distinct power, told apart bit for bit (signs of zero
    # too): sA is sB whenever l1 == l2
    keys = [np.complex128(s).tobytes() for s in (sA, sB, sG)]
    series = {key: sine_power_coeffs(s, J + maxidx)
              for key, s in dict(zip(keys, (sA, sB, sG))).items()}
    cA, cB, cG = (series[key] for key in keys)
    gw = _tail_weights(cG, w0, J)
    L = J + maxidx
    i = np.abs(np.arange(-L, L + 1))
    cA, cB = cA[i], cB[i]           # two-sided: c[L + t] = c_|t|
    return np.array([(gw * cB[L + m - J:L + m + J + 1]) @ cA[L - n - J:L - n + J + 1]
                     for m, n in pairs.tolist()], dtype=complex)


# ---------------------------------------------------------------------------
# mode values from the invariance relations
# ---------------------------------------------------------------------------

def _relations(l1, l2, l3, m, n):
    """(Cm, C0, Cp) of recurrence_mode_values' relation at the pair (m, n)."""
    return (-(2 * m - 1 + l1) * (2 * n + 1 - l2),
            l1 * l1 + l2 * l2 - l3 * l3 - 1.0 + 8.0 * m * n,
            -(2 * m + 1 - l1) * (2 * n - 1 + l2))


def _mode_table(l1, l2, l3, N: int, K: int, anchor: complex) -> np.ndarray:
    """b[m + M, k] = a(m, -k-m, k) on the rows k = 0..K, m = -N..N-k (the
    rest unset), M = max(N, K), as recurrence_mode_values derives it from
    the closed form ``anchor``."""
    M, ks = max(N, K), np.arange(1, K + 1)
    # row 0 of (l1, l2, l3), (l3, l2, l1) and (l1, l3, l2) in extended
    # precision: it anchors every row, and in double its rounding reaches
    # 1.5e-13 by m = 256 (at l3 = 32i)
    orders = np.array([[l1, l3, l1], [l2, l2, l3], [l3, l1, l2]], dtype=np.clongdouble)
    m = np.arange(M + 1, dtype=np.longdouble)[:, None]
    rm, r0, rp = _relations(*orders, m, -m)
    mm = np.arange(-M, N + 1)[:, None]
    Cm, C0, Cp = _relations(l1, l2, l3, mm, -np.arange(K + 1) - mm)
    if not all(np.all(c) for c in (rm, rp, Cm, Cp)):
        raise PreconditionError(f"a coefficient of the invariance relations vanishes "
                                f"at {(l1, l2, l3)}, as at any odd-integer l_j")
    r = np.empty((M + 2, 3), dtype=np.clongdouble)
    r[0] = anchor
    f1, f0 = -rm / rp, -r0 / rp
    r[1] = 0.5 * f0[0] * r[0]           # b(-1) = b(1)
    for i in range(1, M):
        r[i + 1] = f1[i] * r[i - 1] + f0[i] * r[i]
    b = np.empty((M + N + 1, K + 1), dtype=complex)
    b[M:, 0], b[M - N:M, 0] = r[:N + 1, 0], r[N:0:-1, 0]
    b[M, 1:], b[M - ks, ks] = r[1:K + 1, 1], r[1:K + 1, 2]
    # between the anchors b(-k) and b(0): b(m) = al b(m - 1) + be, eliminated
    # from m = -1 down, (al, be)[i, k - 1] at m = -i, then solved back up
    al, be = np.zeros((2, K + 1, K), dtype=complex)
    be[0] = b[M, 1:]
    for i in range(1, K):
        t = M - i
        D = C0[t, i + 1:] + Cp[t, i + 1:] * al[i - 1, i:]
        al[i, i:], be[i, i:] = -Cm[t, i + 1:] / D, -Cp[t, i + 1:] * be[i - 1, i:] / D
    for i in range(K - 1, 0, -1):
        b[M - i, i + 1:] = al[i, i:] * b[M - i - 1, i + 1:] + be[i, i:]
    # outward from the anchors: up to m = N - k, down to m = -N
    up1, up0, dn0, dn1 = -Cm / Cp, -C0 / Cp, -C0 / Cm, -Cp / Cm
    for i in range(N - 1):
        s, t = slice(1, N - i), M + i
        b[t + 1, s] = up1[t, s] * b[t - 1, s] + up0[t, s] * b[t, s]
    for i in range(1, N):
        s, t = slice(1, i + 1), M - i
        b[t - 1, s] = dn0[t, s] * b[t, s] + dn1[t, s] * b[t + 1, s]
    return b


def recurrence_mode_values(pairs, l1, l2, l3) -> np.ndarray:
    """Values of the functional on modes e^{2im'x} (x) e^{2in'y} (x) e^{2ik'z},
    k' = -(m'+n'), for an array of integer pairs (m', n').

    Relations.  On the mode e_n = e^{2int} of parameter l, E+- = X_a +- i X_b
    (``specdecomp.circle_generators``) act by E+ e_n = (2n + 1 - l) e_{n+1}
    and E- e_n = -(2n - 1 + l) e_{n-1}, so the Casimir X_a^2 + X_b^2 - X_r^2
    = (E+ E- + E- E+)/2 - X_r^2 is l^2 - 1.  Invariance moves the Casimir of
    the diagonal action on the first two factors onto the third, l3^2 - 1;
    its cross term E+ (x) E- + E- (x) E+ - 2 X_r (x) X_r moves (m', n') by
    (+-1, -+1).  On a row k', b(m) = a(m, n, k') with n = -k' - m:

        Cm b(m - 1) + C0 b(m) + Cp b(m + 1) = 0,
        Cm = -(2m - 1 + l1)(2n + 1 - l2),  Cp = -(2m + 1 - l1)(2n - 1 + l2),
        C0 = l1^2 + l2^2 - l3^2 - 1 + 8 m n.

    Anchors.  |sin| is even, so a(-m', -n', -k') = a(m', n', k'): a pair with
    k' < 0 takes the value of (-m', -n'), and row 0 has b(-1) = b(1), so
    b(1) = -C0 b(0) / (2 Cp) at m = 0 from b(0) = closed_form_value; it
    recurs forward.  A slot exchange exchanges parameters and indices, so
    row k' takes b(0) and b(-k') from row 0 of (l3, l2, l1) and of (l1, l3,
    l2) at m = k', solves the tridiagonal relations between them and recurs
    up to m' = N - k' and down to m' = -N.  All rows march together as
    numpy arrays, O(1) work per value (marching across rows in k' is
    unstable); each row is right to about 2e-14 of its largest value.

    The table holds (K'+1) x (max(N, K') + N + 1) values, N the largest
    |index|, K' the largest |k'|.  Pairs not of shape (n, 2), a non-integer
    index, an |index| above 10,000, a table above 2^21 entries, divergent
    parameters and a vanishing Cm or Cp (only at an odd-integer l_j) raise
    PreconditionError before any march; a closed form whose modulus is not
    a normal double (it underflows near |l3| = 900 at l1 = l2 = 0) raises
    NonFiniteError before the table is built, whatever the pairs.
    """
    pairs = _mode_pairs(pairs)
    exponents(l1, l2, l3).require_convergent()
    log_anchor = closed_form_log(l1, l2, l3)
    if not _ANCHOR_LOG_RANGE[0] <= log_anchor.real <= _ANCHOR_LOG_RANGE[1]:
        raise NonFiniteError(f"the closed form anchoring the mode rows has modulus "
                             f"exp({log_anchor.real:.6g}) at {(l1, l2, l3)}, not a "
                             f"normal double")
    if not pairs.size:
        return np.empty(0, dtype=complex)
    k = -pairs.sum(axis=1)
    pairs = np.where(k[:, None] < 0, -pairs, pairs)
    N, K = int(np.max(np.abs(pairs))), int(np.max(np.abs(k)))
    if (K + 1) * (max(N, K) + N + 1) > _MAX_TABLE:
        raise PreconditionError(f"a mode table of {K + 1} rows and largest "
                                f"|index| {N} exceeds {_MAX_TABLE} entries")
    b = _mode_table(complex(l1), complex(l2), complex(l3), N, K, np.exp(log_anchor))
    return b[pairs[:, 0] + max(N, K), np.abs(k)]
