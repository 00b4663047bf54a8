"""Truncated-Fourier machinery on the circle and bi-circle.

Contents:

* the circle-model group action pi_lam(g) and its Lie-algebra generators
  (obtained by differentiating the action at the identity; they act as
  banded matrices on even-mode coefficients),
* Sobolev forms  Q_{l,T}(v) = sum_nu T^(2(l-|nu|)) ||X^nu v||^2  over
  generator words of length <= l on the product of two circle factors,
* the nonnegative Hermitian form induced by the trilinear functional
  (Gram matrix of its mode elements over a window of output modes),
* relative traces tr(H | Q) computed two independent ways,
* the localized bump vector and its pairing against the transformed kernel,
* the elementary averaged-pairing lower bound used by the localization step.

Conventions: a mode index p stands for the frequency 2p (even functions); the
flattened bi-circle index is (p + N) * (2N + 1) + (q + N).  Lie generators use
the sl2 basis {diag(1,-1), offdiag(1,1), rotation}; their normalization is the
plain derivative of the action along exp(tX) at t = 0.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .circlefn import BiCircleFunction, CircleFunction
from .errors import (InsufficientTruncationError, NonFiniteError,
                     NotPositiveDefiniteError, PreconditionError,
                     TruncationOverflowError)
from .kernel import kernel_on_circle
from .params import _as_complex, exponents
from .trilinear import _spectral_batches

__all__ = [
    "group_norm",
    "random_sl2",
    "group_action",
    "circle_generators",
    "HermitianForm",
    "sobolev_form",
    "sobolev_matrix",
    "induced_form",
    "relative_trace",
    "sobolev_trace",
    "bump_vector",
    "transformed_kernel_values",
    "kernel_bump_pairing",
    "pairing_search",
    "weighted_mean_bound",
    "PairingResult",
]


# ---------------------------------------------------------------------------
# group elements and the circle-model action
# ---------------------------------------------------------------------------

def group_norm(g) -> float:
    """Operator 2-norm of a 2x2 matrix."""
    return float(np.linalg.norm(np.asarray(g, dtype=float), 2))


def random_sl2(rng: np.random.Generator, max_norm: float = 2.0) -> np.ndarray:
    """Random SL(2,R) element with operator norm <= max_norm (KAK sampling)."""
    sigma = rng.uniform(1.0, max_norm)
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    r1 = np.array([[np.cos(p1), -np.sin(p1)], [np.sin(p1), np.cos(p1)]])
    r2 = np.array([[np.cos(p2), -np.sin(p2)], [np.sin(p2), np.cos(p2)]])
    return r1 @ np.diag([sigma, 1.0 / sigma]) @ r2


def group_action(g, lam, f: CircleFunction, oversample: int = 8,
                 tail_budget: float = 0.01) -> CircleFunction:
    """pi_lam(g) f in the circle model, truncated back to f.max_mode.

    The action on the homogeneous extension is
    (pi_lam(g) F)(s) = F(g^{-1} s) |det g|^{(lam-1)/2}; restricted to the unit
    circle with v = g^{-1} (cos t, sin t) this is
    |v|^{lam-1} f(angle v) |det g|^{(lam-1)/2}.

    The result is sampled on an oversampled grid and transformed back; energy
    beyond the truncation is reported in the output's ``tail_energy`` field
    and must stay within ``tail_budget`` of the total.
    """
    g = np.asarray(g, dtype=float)
    z = _as_complex(lam)
    det = float(np.linalg.det(g))
    if det == 0.0:
        raise ValueError("group element must be invertible")
    h = np.linalg.inv(g)
    n_out = f.max_mode
    m = max(256, oversample * (2 * n_out + 2))
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    v = h @ np.vstack([np.cos(theta), np.sin(theta)])
    r = np.hypot(v[0], v[1])
    psi = np.arctan2(v[1], v[0])
    vals = (np.exp((z - 1.0) * np.log(r)) * f.evaluate(psi)
            * abs(det) ** ((z - 1.0) / 2.0))
    spec = np.fft.fft(vals) / m
    c = np.zeros(2 * n_out + 1, dtype=complex)
    for p in range(-n_out, n_out + 1):
        c[p + n_out] = spec[(2 * p) % m]
    total = float(np.sum(np.abs(spec) ** 2))
    kept = float(np.sum(np.abs(c) ** 2))
    tail = max(total - kept, 0.0)
    if total > 0 and tail > tail_budget * total:
        raise TruncationOverflowError(
            f"tail energy fraction {tail / total:.3g} exceeds {tail_budget}")
    return CircleFunction(c, n_out, tail_energy=tail)


def circle_generators(lam, N: int):
    """Sparse matrices of the three sl2 generators on even modes p in [-N, N].

    Differentiating the action along exp(tX) gives first-order operators in
    the angle; on coefficients (mode p = frequency 2p) they are tridiagonal:

      X_a = diag(1,-1):    (X f)_q = (q-1-(lam-1)/2) f_{q-1}
                                     - (q+1+(lam-1)/2) f_{q+1}
      X_b = offdiag(1,1):  (X f)_q = i((lam-1)/2-(q-1)) f_{q-1}
                                     - i((q+1)+(lam-1)/2) f_{q+1}
      X_r = rotation:      (X f)_q = 2 i q f_q
    """
    z = _as_complex(lam)
    q = np.arange(-N, N + 1)
    half = (z - 1.0) / 2.0
    lower_a = (q[1:] - 1.0) - half          # entry (q, q-1)
    upper_a = -(q[:-1] + 1.0) - half        # entry (q, q+1)
    Xa = sp.diags([lower_a, upper_a], [-1, 1], dtype=complex, format="csr")
    lower_b = 1j * (half - (q[1:] - 1.0))
    upper_b = -1j * ((q[:-1] + 1.0) + half)
    Xb = sp.diags([lower_b, upper_b], [-1, 1], dtype=complex, format="csr")
    Xr = sp.diags(2j * q.astype(complex), 0, format="csr")
    return [Xa, Xb, Xr]


# ---------------------------------------------------------------------------
# Hermitian forms
# ---------------------------------------------------------------------------

@dataclass
class HermitianForm:
    matrix: np.ndarray
    truncation: int
    # share of the Gram weight in the outermost output modes |k| = K_modes
    k_tail_fraction: Optional[float] = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("form matrix must be square")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.min(sla.eigvalsh(self.matrix)))

    def is_psd(self, tol_factor: float = 1e-10) -> bool:
        tr = float(np.real(np.trace(self.matrix)))
        return self.min_eigenvalue() >= -tol_factor * max(tr, 1e-300)

    def __call__(self, vec: np.ndarray) -> float:
        vec = np.asarray(vec, dtype=complex).ravel()
        return float(np.real(np.conj(vec) @ (self.matrix @ vec)))


def _multi_indices(r: int, max_total: int):
    """All tuples (n_1..n_r) of nonnegative ints with sum <= max_total."""
    out = []

    def rec(pos, left, cur):
        if pos == r:
            out.append(tuple(cur))
            return
        for c in range(left + 1):
            rec(pos + 1, left - c, cur + [c])

    rec(0, max_total, [])
    return sorted(out)


def product_generators(tau, tau_prime, N: int):
    """The six generators of sl2 x sl2 on the truncated bi-circle space."""
    g1 = circle_generators(tau, N)
    g2 = circle_generators(tau_prime, N)
    eye = sp.identity(2 * N + 1, format="csr", dtype=complex)
    return ([sp.kron(x, eye, format="csr") for x in g1]
            + [sp.kron(eye, x, format="csr") for x in g2])


def sobolev_matrix(l: int, T: float, tau, tau_prime, N: int) -> sp.csc_matrix:
    """Sparse matrix of Q_{l,T}(v) = sum_nu T^(2(l-|nu|)) ||X^nu v||^2.

    The sum runs over multi-indices nu = (n_1..n_6) with |nu| <= l and
    X^nu = X_1^{n_1} ... X_6^{n_6} composed in the fixed generator order.
    Raises NonFiniteError for a NaN or infinite T, or one whose T^(2l)
    overflows.
    """
    if not np.isfinite(T):
        raise NonFiniteError(f"T must be finite, got {T}")
    if l < 0 or T <= 0:
        raise PreconditionError("need l >= 0 and T > 0")
    if 2 * l * np.log(T) > np.log(np.finfo(float).max):
        raise NonFiniteError(f"T^(2l) overflows at T = {T}, l = {l}")
    ops = product_generators(tau, tau_prime, N)
    dim = (2 * N + 1) ** 2
    Q = sp.csc_matrix((dim, dim), dtype=complex)
    for nu in _multi_indices(6, l):
        word = sp.identity(dim, format="csr", dtype=complex)
        for gi, cnt in enumerate(nu):
            for _ in range(cnt):
                word = word @ ops[gi]
        Q = Q + T ** (2 * (l - sum(nu))) * (word.getH() @ word)
    return Q.tocsc()


def sobolev_form(l: int, T: float, params: Tuple, N: int) -> HermitianForm:
    """Dense Sobolev form on the truncated bi-circle basis."""
    tau, tau_prime = params
    return HermitianForm(sobolev_matrix(l, T, tau, tau_prime, N).toarray(), N)


def _mode_rows(lam, tau, tau_prime, N: int, K_modes: int):
    """Rows of the functional's mode matrix, one per output frequency.

    Returns a list of (k, idx, vals) with k the even output frequency,
    |k| <= K_modes; the row holds the element on
    e^{2 i m' x} (x) e^{2 i n' y} (x) e^{i k z} at the flattened (m', n')
    position, nonzero only on the antidiagonal m' + n' = -k/2, whose
    flattened positions are ``idx`` and values ``vals``.  All rows share one
    set of |sin|^s series; each row keeps its own convolution cutoff.
    """
    if K_modes % 2 != 0:
        raise ValueError("K_modes must be even")
    n1 = 2 * N + 1
    kp_max = K_modes // 2
    kps, batches = [], []
    for kp in range(-kp_max, kp_max + 1):
        mps = np.arange(max(-N, -kp - N), min(N, -kp + N) + 1)
        if len(mps):
            kps.append(kp)
            batches.append(np.stack([mps, -kp - mps], axis=1))
    values = _spectral_batches(batches, tau, tau_prime, lam)
    return [(2 * kp, (p[:, 0] + N) * n1 + (p[:, 1] + N), v)
            for kp, p, v in zip(kps, batches, values)]


def induced_form(lam, tau, tau_prime, N: int, K_modes: int) -> HermitianForm:
    """Nonnegative Hermitian form induced by the trilinear functional.

    Gram structure H = sum_k conj(row_k)^T row_k over output modes
    |k| <= K_modes; positive semidefinite by construction and monotone in
    K_modes.  Dense assembly; guarded to moderate truncations.
    """
    if N > 40:
        raise MemoryError("dense induced form is limited to N <= 40; "
                          "use sobolev_trace for large truncations")
    dim = (2 * N + 1) ** 2
    H = np.zeros((dim, dim), dtype=complex)
    k_contrib = {}
    for k, idx, vals in _mode_rows(lam, tau, tau_prime, N, K_modes):
        H[np.ix_(idx, idx)] += np.outer(np.conj(vals), vals)
        k_contrib[k] = float(np.sum(np.abs(vals) ** 2))
    total = sum(k_contrib.values())
    edge = max((v for k, v in k_contrib.items() if abs(k) == K_modes), default=0.0)
    return HermitianForm(H, N, k_tail_fraction=edge / total if total > 0 else 0.0)


def relative_trace(H, Q, check: bool = True, rtol: float = 1e-10) -> float:
    """tr(H | Q): trace of H in any Q-orthonormal basis = tr(Q^{-1} H).

    Computed by a triangular (Cholesky) factorization; when ``check`` is on,
    an independent Q-eigenbasis evaluation must agree to ``rtol``.
    Q must be positive definite.
    """
    Hm = H.matrix if isinstance(H, HermitianForm) else np.asarray(H, dtype=complex)
    Qm = Q.matrix if isinstance(Q, HermitianForm) else np.asarray(Q, dtype=complex)
    try:
        L = sla.cholesky(Qm, lower=True)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Q is not positive definite: {exc}") from None
    R = sla.solve_triangular(L, Hm, lower=True)
    S = sla.solve_triangular(L, R.conj().T, lower=True)
    tri = float(np.real(np.trace(S)))
    if check:
        d, U = sla.eigh(Qm)
        if d.min() <= 0:
            raise NotPositiveDefiniteError("Q has a nonpositive eigenvalue")
        eig = float(np.real(np.sum(np.einsum("ij,jk,ki->i", U.conj().T, Hm, U) / d)))
        if abs(tri - eig) > rtol * max(abs(tri), abs(eig), 1e-300):
            raise ArithmeticError(
                f"relative-trace algorithms disagree: {tri} vs {eig}")
    return tri


# right-hand sides per SuperLU solve: wide enough to batch the triangular
# sweeps, narrow enough to keep the dense block small
_SOLVE_BLOCK = 8


def _trace_against_sobolev(l: int, T: float, lam, params: Tuple, N: int,
                           K_modes: int) -> float:
    tau, tau_prime = params
    Q = sobolev_matrix(l, T, tau, tau_prime, N)
    # Q is Hermitian with Q >= T^(2l) I, so the diagonal pivots need no
    # search and a symmetric ordering of Q + Q^T keeps the factor small
    lu = spla.splu(Q, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    rows = _mode_rows(lam, tau, tau_prime, N, K_modes)
    rho = 0.0
    for lo in range(0, len(rows), _SOLVE_BLOCK):
        block = rows[lo:lo + _SOLVE_BLOCK]
        rhs = np.zeros((Q.shape[0], len(block)), dtype=complex, order="F")
        for c, (_k, idx, vals) in enumerate(block):
            rhs[idx, c] = np.conj(vals)
        x = lu.solve(rhs)
        for c, (_k, idx, vals) in enumerate(block):
            rho += float(np.real(vals @ x[idx, c]))
    return rho


def sobolev_trace(l: int, T: float, lam, params: Tuple, N: int,
                  K_modes: int) -> float:
    """tr(H_induced | Q_{l,T}) without forming the dense induced form.

    Uses the Gram structure: tr(Q^{-1} H) = sum_k row_k Q^{-1} row_k^*.  Q is
    factored once (sparse LU without pivoting, symmetric minimum-degree
    ordering; Q is Hermitian and bounded below by T^(2l)) and the rows are
    solved in blocks of right-hand sides.  Matches
    relative_trace(induced_form(...), sobolev_form(...)) on small truncations.
    The T^{-2l} floor statement is about l >= 2, which is enforced here.
    """
    if l < 2:
        raise PreconditionError("the localized trace bound needs l >= 2")
    return _trace_against_sobolev(l, T, lam, params, N, K_modes)


# ---------------------------------------------------------------------------
# bump vectors and kernel pairings
# ---------------------------------------------------------------------------

# profile steepness: balances the spectral core width against the
# support-edge tail at the resolvable frequency budget (2N) * r = 8
_BUMP_SHARPNESS = 4.0
_DEFAULT_CENTER = (np.pi / 3.0, 2.0 * np.pi / 3.0)


def _bump_profile(rho2: np.ndarray, a: float) -> np.ndarray:
    """exp(-a x^2 / (1 - x^2)) on x^2 < 1, 0 outside (x^2 = rho2)."""
    out = np.zeros_like(rho2)
    inside = rho2 < 1.0
    out[inside] = np.exp(-a * rho2[inside] / (1.0 - rho2[inside]))
    return out


def _profile_moments(a: float):
    """(integral of profile over the unit disc, integral of its square).

    In the variable v = rho^2 these are pi * int_0^1 exp(-c v/(1-v)) dv for
    c = a, 2a; the integrand is flat but not analytic at v = 1, so a
    double-exponential rule is used (Gauss stalls at ~1e-5 there).
    """
    from .quadrature import unit_nodes
    v, omv, w = unit_nodes("singularity_split", 8)
    i1 = np.pi * float(np.sum(np.exp(-a * v / omv) * w))
    i2 = np.pi * float(np.sum(np.exp(-2.0 * a * v / omv) * w))
    return i1, i2


def bump_vector(T: float, N: int, center: Tuple[float, float] = _DEFAULT_CENTER,
                sharpness: float = _BUMP_SHARPNESS) -> BiCircleFunction:
    """Smooth nonnegative bump on the bi-circle, localized at scale 1/(100 T).

    Supported (before truncation) in the disc of radius 1/(100 T) around
    ``center`` (and its antipodal copies, as the function is even-even), with
    unit total mass  integral u dx dy = 1  over [0, 2pi)^2 in plain measure
    and squared norm well below 1e5 T^2.

    Fourier coefficients are computed by FFT when the truncation is moderate;
    for very large N only the analytic evaluator is stored (coeffs = None).
    Requires T >= 1 and N >= 400 T to resolve the localization scale.
    """
    if T < 1.0:
        raise PreconditionError("bump vectors are defined for T >= 1")
    if N < 400 * T:
        raise InsufficientTruncationError(
            f"need N >= 400 T = {400 * T:.0f} to resolve scale 1/(100 T), got {N}")
    r = 1.0 / (100.0 * T)
    a = sharpness
    i1, i2 = _profile_moments(a)
    amp = 0.25 / (r * r * i1)          # per-copy mass 1/4
    x0, y0 = center

    def evaluator(x, y):
        dx = np.mod(np.asarray(x, dtype=float) - x0 + np.pi / 2, np.pi) - np.pi / 2
        dy = np.mod(np.asarray(y, dtype=float) - y0 + np.pi / 2, np.pi) - np.pi / 2
        rho2 = (dx * dx + dy * dy) / (r * r)
        return amp * _bump_profile(rho2, a)

    # Fourier coefficients of the periodized bump are exactly the plane
    # Fourier transform of one unit-mass copy at the even frequencies
    # (Poisson summation); radially symmetric profile -> a Hankel integral.
    # The zero mode reproduces the mass exactly (same radial nodes as i1).
    coeffs = None
    if N <= 1024:
        from scipy.special import j0
        gx, gw = np.polynomial.legendre.leggauss(96)
        rho = 0.5 * (gx + 1.0)
        wr = 0.5 * gw
        prof = _bump_profile(rho ** 2, a) * rho * wr
        p = np.arange(0, N + 1)
        quadrant = np.empty((N + 1, N + 1))
        for lo in range(0, N + 1, 64):
            hi = min(lo + 64, N + 1)
            kr = 2.0 * r * np.sqrt(p[lo:hi, None] ** 2 + p[None, :] ** 2)
            quadrant[lo:hi] = (j0(kr[..., None] * rho) @ prof) * (2.0 * np.pi)
        quadrant /= i1                  # normalized so the (0,0) entry is 1
        full = np.empty((2 * N + 1, 2 * N + 1), dtype=float)
        full[N:, N:] = quadrant
        full[:N, N:] = quadrant[1:, :][::-1, :]
        full[N:, :N] = quadrant[:, 1:][:, ::-1]
        full[:N, :N] = quadrant[1:, 1:][::-1, ::-1]
        pp = np.arange(-N, N + 1)
        phase = np.exp(-2j * pp * x0)[:, None] * np.exp(-2j * pp * y0)[None, :]
        coeffs = full * phase / (2.0 * np.pi) ** 2
    # exact plain-measure squared norm of the constructed bump (all 4 copies)
    return BiCircleFunction(coeffs, N, evaluator=evaluator, mass=1.0,
                            support_radius=r, center=(x0, y0),
                            norm_sq_plain=4.0 * amp ** 2 * r * r * i2)


def transformed_kernel_values(g1, g2, z: float, params: Tuple, x, y):
    """Values of the transformed kernel functional at angle grids (x, y).

    The kernel function f_z(x, y) built from parameters (tau, tau', lam) is a
    (singular) vector of the dual pair; the two-slot action with dual
    parameters (-tau, -tau') acts pointwise:

        (Pi(g) f_z)(x, y) = |v1|^{-tau-1} |v2|^{-tau'-1} f_z(angle v1, angle v2)
                            * |det g1|^{(-tau-1)/2} |det g2|^{(-tau'-1)/2},

    with v1 = g1^{-1} (cos x, sin x), v2 = g2^{-1} (cos y, sin y).  Evaluation
    is pointwise on the requested grid only (the kernel's singular lines are
    never expanded in Fourier modes).  Raises SingularConfigurationError when
    a grid point lands on a singular line.
    """
    tau, tau_prime, lam = (_as_complex(t) for t in params)
    e = exponents(tau, tau_prime, lam)
    h1 = np.linalg.inv(np.asarray(g1, dtype=float))
    h2 = np.linalg.inv(np.asarray(g2, dtype=float))
    d1 = abs(float(np.linalg.det(g1)))
    d2 = abs(float(np.linalg.det(g2)))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v1x = h1[0, 0] * np.cos(x) + h1[0, 1] * np.sin(x)
    v1y = h1[1, 0] * np.cos(x) + h1[1, 1] * np.sin(x)
    v2x = h2[0, 0] * np.cos(y) + h2[0, 1] * np.sin(y)
    v2y = h2[1, 0] * np.cos(y) + h2[1, 1] * np.sin(y)
    r1 = np.hypot(v1x, v1y)
    r2 = np.hypot(v2x, v2y)
    p1 = np.arctan2(v1y, v1x)
    p2 = np.arctan2(v2y, v2x)
    vals = kernel_on_circle(p1, p2, z, e)
    vals = vals * np.exp((-tau - 1.0) * np.log(r1) + (-tau_prime - 1.0) * np.log(r2))
    vals = vals * d1 ** ((-tau - 1.0) / 2.0) * d2 ** ((-tau_prime - 1.0) / 2.0)
    return vals


@dataclass(frozen=True)
class PairingResult:
    value: float            # |<Pi(g) f, u>| in plain measure
    sup_abs: float          # max |Pi(g) f| sampled on the support disc
    grad_max: float         # max |grad Pi(g) f| (finite differences) there
    error: float            # quadrature refinement difference


def kernel_bump_pairing(g1, g2, z: float, T: float, params: Tuple, N: int,
                        bump: Optional[BiCircleFunction] = None,
                        n_grid: int = 48) -> PairingResult:
    """|<Pi(g1,g2) f_z, u>| for the localized bump u, plain-measure pairing.

    The bump and the transformed kernel are both even-even (pi-periodic in
    each angle), so the full bi-circle pairing equals the integral of the
    transformed kernel against a single unit-mass copy of the bump; that
    integral is taken with a tensor Gauss-Legendre rule over the support box
    and refined once for an error estimate.
    """
    u = bump if bump is not None else bump_vector(T, N)
    r = u.support_radius
    x0, y0 = u.center

    def integrate(n):
        gx, gw = np.polynomial.legendre.leggauss(n)
        xs = x0 + r * gx
        ys = y0 + r * gx
        wx = r * gw
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        fvals = transformed_kernel_values(g1, g2, z, params, X, Y)
        uvals = 4.0 * u.evaluate(X, Y)      # 4 antipodal copies, each mass 1/4
        pair = np.einsum("i,j,ij->", wx, wx, fvals * uvals)
        return pair, fvals

    p1, fvals1 = integrate(n_grid)
    p2, fvals = integrate(2 * n_grid)
    dx = 2.0 * r / (2 * n_grid - 1)
    gx_, gy_ = np.gradient(fvals, dx, dx)
    grad_max = float(np.max(np.abs(np.sqrt(np.abs(gx_) ** 2 + np.abs(gy_) ** 2))))
    return PairingResult(value=float(abs(p2)),
                         sup_abs=float(np.max(np.abs(fvals))),
                         grad_max=grad_max,
                         error=float(abs(p2 - p1)))


def pairing_search(T: float, params: Tuple, N: int, n_random: int = 12,
                   seed: int = 7, z: float = 0.0,
                   bump: Optional[BiCircleFunction] = None):
    """Probe the identity plus random elements of the norm <= 2 region.

    Returns a list of (g1, g2, PairingResult); the identity pair comes first.
    """
    u = bump if bump is not None else bump_vector(T, N)
    rng = np.random.default_rng(seed)
    eye = np.eye(2)
    probes = [(eye, eye)]
    for _ in range(n_random):
        probes.append((random_sl2(rng), random_sl2(rng)))
    out = []
    for g1, g2 in probes:
        res = kernel_bump_pairing(g1, g2, z, T, params, N, bump=u)
        out.append((g1, g2, res))
    return out


def weighted_mean_bound(u: np.ndarray, h: np.ndarray,
                        weights: Optional[np.ndarray] = None,
                        tol: float = 1e-9) -> float:
    """|sum h u d(nu)| under the localization hypotheses, verified numerically.

    Hypotheses on the sampled data (measure weights d(nu)):
      (i)  u >= 0 with unit mass  sum u d(nu) = 1,
      (ii) sup |h| >= 1 and variation sup |h(s) - h(s')| <= 1/2.
    Under these the weighted mean cannot drop below sup|h| - Var >= 1/2.
    Raises PreconditionError when a hypothesis fails.
    """
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=complex)
    nu = np.ones_like(u) if weights is None else np.asarray(weights, dtype=float)
    if np.any(u < -tol) or np.any(nu <= 0):
        raise PreconditionError("u must be nonnegative on a positive measure")
    mass = float(np.sum(u * nu))
    if abs(mass - 1.0) > 1e-6:
        raise PreconditionError(f"u must have unit mass, got {mass}")
    sup = float(np.max(np.abs(h)))
    if sup < 1.0 - tol:
        raise PreconditionError(f"sup |h| = {sup} < 1")
    var = float(np.max(np.abs(h[:, None] - h[None, :])))
    if var > 0.5 + tol:
        raise PreconditionError(f"variation {var} exceeds 1/2")
    return float(abs(np.sum(h * u * nu)))
