"""Truncated-Fourier machinery on the circle and bi-circle.

Contents:

* the circle-model group action pi_lam(g) and its Lie-algebra generators
  (obtained by differentiating the action at the identity; they act as
  banded matrices on even-mode coefficients),
* Sobolev forms  Q_{l,T}(v) = sum_nu T^(2(l-|nu|)) ||X^nu v||^2  over
  generator words of length <= l on the product of two circle factors,
  assembled from the word Grams of each factor (Kronecker products),
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
from scipy.linalg import lapack
import scipy.sparse as sp

from .circlefn import BiCircleFunction, CircleFunction
from .errors import (InsufficientTruncationError, NonFiniteError,
                     NotPositiveDefiniteError, PreconditionError,
                     TruncationOverflowError)
from .kernel import kernel_on_circle
from .params import exponents
from .trilinear import _spectral_batches

__all__ = [
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

def random_sl2(rng: np.random.Generator, max_norm: float = 2.0) -> np.ndarray:
    """Random SL(2,R) element with operator norm <= max_norm (KAK sampling)."""
    sigma = rng.uniform(1.0, max_norm)
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    r1 = np.array([[np.cos(p1), -np.sin(p1)], [np.sin(p1), np.cos(p1)]])
    r2 = np.array([[np.cos(p2), -np.sin(p2)], [np.sin(p2), np.cos(p2)]])
    return r1 @ np.diag([sigma, 1.0 / sigma]) @ r2


def _pull_back(g, lam, theta):
    """The circle-model action's reading of the points (cos theta, sin theta).

    With v = g^{-1} (cos theta, sin theta), returns the angle of v and the
    two factors the action multiplies by, |v|^{lam-1} and
    |det g|^{(lam-1)/2}; the first two have the shape of theta.
    """
    g = np.asarray(g, dtype=float)
    z = complex(lam)
    det = float(np.linalg.det(g))
    if det == 0.0:
        raise PreconditionError("group element must be invertible")
    h = np.linalg.inv(g)
    theta = np.asarray(theta, dtype=float)
    v = h @ np.vstack([np.cos(theta.ravel()), np.sin(theta.ravel())])
    r = np.hypot(v[0], v[1]).reshape(theta.shape)
    psi = np.arctan2(v[1], v[0]).reshape(theta.shape)
    return psi, np.exp((z - 1.0) * np.log(r)), abs(det) ** ((z - 1.0) / 2.0)


def group_action(g, lam, f: CircleFunction) -> CircleFunction:
    """pi_lam(g) f in the circle model, truncated back to f.max_mode.

    The action on the homogeneous extension is
    (pi_lam(g) F)(s) = F(g^{-1} s) |det g|^{(lam-1)/2}; restricted to the unit
    circle with v = g^{-1} (cos t, sin t) this is
    |v|^{lam-1} f(angle v) |det g|^{(lam-1)/2}.

    The result is sampled on a grid 8x finer than the output modes need and
    transformed back; energy beyond the truncation is reported in the
    output's ``tail_energy`` field and must stay within 1% of the total.
    """
    n_out = f.max_mode
    m = max(256, 8 * (2 * n_out + 2))
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    psi, radial, det_factor = _pull_back(g, lam, theta)
    vals = radial * f.evaluate(psi) * det_factor
    spec = np.fft.fft(vals) / m
    c = spec[(2 * np.arange(-n_out, n_out + 1)) % m]
    total = float(np.sum(np.abs(spec) ** 2))
    kept = float(np.sum(np.abs(c) ** 2))
    tail = max(total - kept, 0.0)
    if total > 0 and tail > 0.01 * total:
        raise TruncationOverflowError(
            f"tail energy fraction {tail / total:.3g} exceeds 0.01")
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
    z = complex(lam)
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

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.min(sla.eigvalsh(self.matrix)))

    def is_psd(self) -> bool:
        tr = float(np.real(np.trace(self.matrix)))
        return self.min_eigenvalue() >= -1e-10 * max(tr, 1e-300)

    def __call__(self, vec: np.ndarray) -> float:
        vec = np.asarray(vec, dtype=complex).ravel()
        return float(np.real(np.conj(vec) @ (self.matrix @ vec)))


def _word_grams(lam, N: int, l: int) -> list:
    """One-circle word Grams G_a = sum_{|alpha| = a} A_alpha^H A_alpha, a <= l.

    A_alpha = X_a^i X_b^j X_r^k runs over the words of length a in
    circle_generators(lam, N), composed in the fixed generator order.
    """
    Xa, Xb, Xr = circle_generators(lam, N)
    eye = sp.identity(2 * N + 1, format="csr", dtype=complex)
    grams = []
    for a in range(l + 1):
        words = []
        for i in range(a + 1):
            for j in range(a - i + 1):
                word = eye
                for X in [Xa] * i + [Xb] * j + [Xr] * (a - i - j):
                    word = word @ X
                words.append(word)
        grams.append(sum(w.getH() @ w for w in words))
    return grams


def _weighted_grams(l: int, T: float, tau, tau_prime, N: int) -> list:
    """Pairs (G_a, sum_{b <= l-a} T^(2(l-a-b)) H_b), a = 0..l, whose
    Kronecker products sum to Q_{l,T}; G_a and H_b are the word Grams of the
    two circle factors (parameters tau and tau_prime).

    Raises NonFiniteError for a NaN or infinite T, or one whose T^(2l)
    overflows, and PreconditionError for l < 0, T <= 0 or N < 0.
    """
    if not np.isfinite(T):
        raise NonFiniteError(f"T must be finite, got {T}")
    if l < 0 or T <= 0:
        raise PreconditionError("need l >= 0 and T > 0")
    if N < 0:
        raise PreconditionError(f"need N >= 0, got N = {N}")
    if 2 * l * np.log(T) > np.log(np.finfo(float).max):
        raise NonFiniteError(f"T^(2l) overflows at T = {T}, l = {l}")
    G = _word_grams(tau, N, l)
    H = _word_grams(tau_prime, N, l)
    return [(G[a], sum(T ** (2 * (l - a - b)) * H[b] for b in range(l - a + 1)))
            for a in range(l + 1)]


def sobolev_matrix(l: int, T: float, tau, tau_prime, N: int) -> sp.csc_matrix:
    """Sparse matrix of Q_{l,T}(v) = sum_nu T^(2(l-|nu|)) ||X^nu v||^2.

    The sum runs over multi-indices nu = (n_1..n_6) with |nu| <= l and
    X^nu = X_1^{n_1} ... X_6^{n_6} composed in the fixed generator order,
    X_1..X_3 acting on the first circle factor and X_4..X_6 on the second.
    Every such word is a Kronecker product A_alpha (x) B_beta of one word per
    factor, so with the one-circle word Grams G_a (parameter tau) and H_b
    (parameter tau_prime), summed over the words of length a and b,

        Q = sum_{a+b <= l} T^(2(l-a-b)) G_a (x) H_b
          = sum_a G_a (x) (sum_{b <= l-a} T^(2(l-a-b)) H_b),

    l + 1 Kronecker products of banded (2N+1)-dimensional matrices.
    Raises NonFiniteError for a NaN or infinite T, or one whose T^(2l)
    overflows, and PreconditionError for l < 0, T <= 0 or N < 0.
    """
    Q = sum(sp.kron(G, Ht, format="csr")
            for G, Ht in _weighted_grams(l, T, tau, tau_prime, N))
    return Q.tocsc()


# largest truncation N of the dense forms and the dense relative trace
_DENSE_MAX_N = 40


def sobolev_form(l: int, T: float, params: Tuple, N: int) -> HermitianForm:
    """Dense Sobolev form on the truncated bi-circle basis.

    N > 40 raises PreconditionError (the dense matrix has (2N+1)^4 entries).
    """
    if N > _DENSE_MAX_N:
        raise PreconditionError("dense Sobolev form is limited to N <= 40; "
                                "use sobolev_trace for large truncations")
    tau, tau_prime = params
    return HermitianForm(sobolev_matrix(l, T, tau, tau_prime, N).toarray(), N)


def _mode_rows(lam, tau, tau_prime, N: int, K_modes: int):
    """Rows of the functional's mode matrix for the output frequencies k >= 0.

    Returns a list of (k, idx, vals) with k the even output frequency,
    0 <= k <= K_modes; the row holds the element on
    e^{2 i m' x} (x) e^{2 i n' y} (x) e^{i k z} at the flattened (m', n')
    position, nonzero only on the antidiagonal m' + n' = -k/2, whose
    flattened positions are ``idx`` and values ``vals``.  The kernel depends
    on its angles only through |sin| of their differences, so the element of
    (-m', -n', -k) equals that of (m', n', k): row -k is row k moved from the
    flattened position idx to (2N+1)^2 - 1 - idx, and is not built.  All
    rows share one set of |sin|^s series; each row keeps its own convolution
    cutoff.
    """
    if K_modes < 0:
        raise PreconditionError(f"need K_modes >= 0, got K_modes = {K_modes}")
    if N < 0:
        raise PreconditionError(f"need N >= 0, got N = {N}")
    if K_modes % 2 != 0:
        raise PreconditionError(f"K_modes must be even, got K_modes = {K_modes}")
    n1 = 2 * N + 1
    kps, batches = [], []
    for kp in range(K_modes // 2 + 1):
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
    K_modes.  Each row -k is the mirror of row k (see ``_mode_rows``).
    Dense assembly; N > 40 raises PreconditionError.
    """
    if N > _DENSE_MAX_N:
        raise PreconditionError("dense induced form is limited to N <= 40; "
                                "use sobolev_trace for large truncations")
    dim = (2 * N + 1) ** 2
    H = np.zeros((dim, dim), dtype=complex)
    k_contrib = {}
    for k, idx, vals in _mode_rows(lam, tau, tau_prime, N, K_modes):
        gram = np.outer(np.conj(vals), vals)
        H[np.ix_(idx, idx)] += gram
        if k > 0:
            mirror = dim - 1 - idx
            H[np.ix_(mirror, mirror)] += gram
        k_contrib[k] = float(np.sum(np.abs(vals) ** 2))
    total = sum(v if k == 0 else 2.0 * v for k, v in k_contrib.items())
    edge = k_contrib.get(K_modes, 0.0)
    return HermitianForm(H, N, k_tail_fraction=edge / total if total > 0 else 0.0)


def relative_trace(H, Q) -> float:
    """tr(H | Q): trace of H in any Q-orthonormal basis = tr(Q^{-1} H).

    Computed by a triangular (Cholesky) factorization; an independent
    Q-eigenbasis evaluation must agree to a relative 1e-10, or
    ArithmeticError is raised.  Q must be positive definite.  H and Q that
    are not square matrices of one shape, or have more than
    (2*40 + 1)^2 = 6561 rows, the dense forms' limit, raise
    PreconditionError; use sobolev_trace for large truncations.
    """
    Hm = H.matrix if isinstance(H, HermitianForm) else np.asarray(H, dtype=complex)
    Qm = Q.matrix if isinstance(Q, HermitianForm) else np.asarray(Q, dtype=complex)
    rows = (2 * _DENSE_MAX_N + 1) ** 2
    if max(Hm.shape + Qm.shape, default=0) > rows:
        raise PreconditionError(f"dense relative trace is limited to {rows} rows; "
                                "use sobolev_trace for large truncations")
    if Hm.ndim != 2 or Hm.shape[0] != Hm.shape[1] or Hm.shape != Qm.shape:
        raise PreconditionError("relative trace needs two square matrices of one "
                                f"shape, got {Hm.shape} and {Qm.shape}")
    try:
        L = sla.cholesky(Qm, lower=True)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Q is not positive definite: {exc}") from None
    R = sla.solve_triangular(L, Hm, lower=True)
    S = sla.solve_triangular(L, R.conj().T, lower=True)
    tri = float(np.real(np.trace(S)))
    d, U = sla.eigh(Qm)
    if d.min() <= 0:
        raise NotPositiveDefiniteError("Q has a nonpositive eigenvalue")
    eig = float(np.real(np.sum(np.einsum("ij,jk,ki->i", U.conj().T, Hm, U) / d)))
    if abs(tri - eig) > 1e-10 * max(abs(tri), abs(eig), 1e-300):
        raise ArithmeticError(
            f"relative-trace algorithms disagree: {tri} vs {eig}")
    return tri


def _parity_classes(N: int):
    """(basis, parity) of the four reflection-parity classes of one circle:
    the even modes e_0, (e_q + e_{-q})/sqrt(2) and the odd modes
    (e_q - e_{-q})/sqrt(2) of (Rf)_q = f_{-q}, q = 1..N, each split by the
    parity of |q|, as dense orthonormal (2N+1)-row column sets."""
    eye = np.eye(2 * N + 1)
    plus, minus = eye[:, N + 1:], eye[:, N - 1::-1]     # e_q and e_{-q}, q >= 1
    even = np.hstack([eye[:, N:N + 1], np.sqrt(0.5) * (plus + minus)])
    odd = np.sqrt(0.5) * (plus - minus)
    # even column c holds |q| = c, odd column c holds |q| = c + 1
    return ([(even[:, p::2], p) for p in (0, 1)]
            + [(odd[:, 1 - p::2], p) for p in (0, 1)])


def _band_block(grams: list) -> np.ndarray:
    """Upper band storage ab[kd + r - c, c] = B[r, c] of B = sum_a G_a (x) H_a
    for dense Hermitian G_a, H_a of sizes n_i, n_j.  In Kronecker order (row
    i n_j + j) diagonal t of G_a times diagonal s of H_a is B's diagonal
    t n_j + s, so kd = max_a (b(G_a) n_j + b(H_a)), b a nonzero pattern's
    half bandwidth."""
    def half_bandwidth(M):
        r, c = np.nonzero(M)
        return int(np.max(np.abs(r - c), initial=0))

    nj = len(grams[0][1])
    bands = [(half_bandwidth(G), half_bandwidth(H)) for G, H in grams]
    kd = max(bg * nj + bh for bg, bh in bands)
    ab = np.zeros((kd + 1, len(grams[0][0]) * nj), dtype=complex, order="F")
    for (G, H), (bg, bh) in zip(grams, bands):
        for t in range(bg + 1):
            g = np.pad(np.diagonal(G, t), (t, 0))                  # G[c - t, c]
            for s in range(max(-bh, -t * nj), bh + 1):
                h = np.pad(np.diagonal(H, s), (max(s, 0), max(-s, 0)))  # H[c - s, c]
                ab[kd - t * nj - s] += np.outer(g, h).ravel()
    return ab


def _block_term(grams: list, W: sp.spmatrix, weight: np.ndarray) -> float:
    """sum_r weight_r w_r B^{-1} w_r^* over the rows w_r of W, for the block
    B of ``_band_block``: B = U^H U by a Hermitian band Cholesky, and each
    term is ||U^{-H} w^*||^2, one forward band sweep."""
    U, info = lapack.zpbtrf(_band_block(grams), overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefiniteError(f"Sobolev block of size {U.shape[1]} is "
                                       f"not positive definite (minor {info})")
    X, _info = lapack.ztbtrs(U, W.conj().toarray().T, trans="C", overwrite_b=1)
    return float(np.sum(np.abs(X) ** 2, axis=0) @ weight)


def sobolev_trace(l: int, T: float, lam, params: Tuple, N: int,
                  K_modes: int) -> float:
    """tr(H_induced | Q_{l,T}) = sum_k row_k Q^{-1} row_k^*, without forming
    the dense induced form, by three exact symmetries.

    * Reflection.  With (Rf)_q = f_{-q}, R X_a R = X_a, R X_b R = -X_b and
      R X_r R = -X_r at every parameter, so each word Gram commutes with R,
      and Q is block-diagonal in the even/odd bases of the two factors.
    * Parity.  X_a, X_b move a mode by one step and X_r keeps it, so a word
      Gram couples q, q' only when q - q' is even: Q splits into sixteen
      blocks sum_a (P_i^T G_a P_i) (x) (P_j^T H~_a P_j), one per pair of
      (reflection, |q| parity) classes.  The Grams couple modes within 2l,
      l columns of a class, so in Kronecker order a block is a band of half
      bandwidth <= l n_j + l, factored by a Hermitian band Cholesky
      (Q >= T^(2l); NotPositiveDefiniteError if it fails).
    * Mirrored rows.  Row -k is row k under R (x) R, which commutes with Q,
      so rho = term(k = 0) + 2 sum_{k > 0} term(k) and only k >= 0 is built.
      Row k = 2k' lies on m' + n' = -k' and meets only the blocks whose
      class parities add up to k' mod 2; a block no row meets is skipped.

    Matches relative_trace(induced_form(...), sobolev_form(...)) on small
    truncations.  Any l >= 0 is computed; the T^(-2l) floor concerns l >= 2.
    """
    tau, tau_prime = params
    grams = _weighted_grams(l, T, tau, tau_prime, N)
    rows = _mode_rows(lam, tau, tau_prime, N, K_modes)
    n1 = 2 * N + 1
    kps = np.array([k // 2 for k, _idx, _v in rows])
    weight = np.where(kps == 0, 1.0, 2.0)
    bases = _parity_classes(N)
    # all classes side by side: an orthogonal P, and row @ (P (x) P) holds every block
    P = sp.csc_matrix(np.hstack([B for B, _p in bases]))
    V = sp.csr_matrix(
        (np.concatenate([vals for _k, _idx, vals in rows]),
         (np.repeat(np.arange(len(rows)), [len(idx) for _k, idx, _v in rows]),
          np.concatenate([idx for _k, idx, _v in rows]))),
        shape=(len(rows), n1 * n1))
    VP = (V @ sp.kron(P, P, format="csc")).tocsc()
    ends = np.cumsum([B.shape[1] for B, _p in bases])
    classes = [(np.arange(e - B.shape[1], e), p,
                [B.T @ G.toarray() @ B for G, _H in grams],
                [B.T @ H.toarray() @ B for _G, H in grams])
               for (B, p), e in zip(bases, ends) if B.shape[1]]
    rho = 0.0
    for ci, pi, Gi, _Hi in classes:
        for cj, pj, _Gj, Hj in classes:
            sel = np.flatnonzero((kps + pi + pj) % 2 == 0)
            if len(sel):
                W = VP[:, (ci[:, None] * n1 + cj).ravel()][sel]
                rho += _block_term(list(zip(Gi, Hj)), W, weight[sel])
    return rho


# ---------------------------------------------------------------------------
# bump vectors and kernel pairings
# ---------------------------------------------------------------------------

# profile steepness: balances the spectral core width against the
# support-edge tail at the resolvable frequency budget (2N) * r = 8
_BUMP_SHARPNESS = 4.0
_BUMP_CENTER = (np.pi / 3.0, 2.0 * np.pi / 3.0)


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


def bump_vector(T: float, N: int) -> BiCircleFunction:
    """Smooth nonnegative bump on the bi-circle, localized at scale 1/(100 T).

    Supported (before truncation) in the disc of radius 1/(100 T) around
    (pi/3, 2pi/3) (and its antipodal copies, as the function is even-even),
    with unit total mass  integral u dx dy = 1  over [0, 2pi)^2 in plain
    measure and squared norm well below 1e5 T^2.

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
    a = _BUMP_SHARPNESS
    i1, i2 = _profile_moments(a)
    amp = 0.25 / (r * r * i1)          # per-copy mass 1/4
    x0, y0 = _BUMP_CENTER

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
    never expanded in Fourier modes).  Each slot is pulled back as in
    ``group_action``.  Raises SingularConfigurationError when a grid point
    lands on a singular line.
    """
    tau, tau_prime, lam = (complex(t) for t in params)
    e = exponents(tau, tau_prime, lam)
    p1, radial1, det1 = _pull_back(g1, -tau, x)
    p2, radial2, det2 = _pull_back(g2, -tau_prime, y)
    return kernel_on_circle(p1, p2, z, e) * radial1 * radial2 * (det1 * det2)


# Gauss-Legendre points per axis of the coarse pairing rule
_PAIRING_GRID = 48


@dataclass(frozen=True)
class PairingResult:
    value: float            # |<Pi(g) f, u>| in plain measure
    sup_abs: float          # max |Pi(g) f| sampled on the support disc
    grad_max: float         # max |grad Pi(g) f| (finite differences) there
    error: float            # quadrature refinement difference


def _pairing_grids(bump: BiCircleFunction) -> list:
    """The 48- and 96-point tensor Gauss-Legendre rules over the bump's
    support box: (X, Y, 1-D weights, bump values of all 4 copies) each."""
    r = bump.support_radius
    x0, y0 = bump.center
    grids = []
    for n in (_PAIRING_GRID, 2 * _PAIRING_GRID):
        gx, gw = np.polynomial.legendre.leggauss(n)
        X, Y = np.meshgrid(x0 + r * gx, y0 + r * gx, indexing="ij")
        # 4 antipodal copies, each mass 1/4
        grids.append((X, Y, r * gw, 4.0 * bump.evaluate(X, Y)))
    return grids


def _pair_on_grids(g1, g2, params: Tuple, grids: list, r: float) -> PairingResult:
    """``kernel_bump_pairing`` on the rules of ``_pairing_grids``."""
    pairs = []
    for X, Y, w, uvals in grids:
        fvals = transformed_kernel_values(g1, g2, 0.0, params, X, Y)
        pairs.append(np.einsum("i,j,ij->", w, w, fvals * uvals))
    p1, p2 = pairs      # fvals are now the 96-point rule's
    dx = 2.0 * r / (2 * _PAIRING_GRID - 1)
    gx_, gy_ = np.gradient(fvals, dx, dx)
    grad_max = float(np.max(np.abs(np.sqrt(np.abs(gx_) ** 2 + np.abs(gy_) ** 2))))
    return PairingResult(value=float(abs(p2)),
                         sup_abs=float(np.max(np.abs(fvals))),
                         grad_max=grad_max,
                         error=float(abs(p2 - p1)))


def kernel_bump_pairing(g1, g2, params: Tuple,
                        bump: BiCircleFunction) -> PairingResult:
    """|<Pi(g1,g2) f_0, u>| for the localized bump u, plain-measure pairing
    (the kernel at z = 0).

    The bump and the transformed kernel are both even-even (pi-periodic in
    each angle), so the full bi-circle pairing equals the integral of the
    transformed kernel against a single unit-mass copy of the bump; that
    integral is taken with a 48-point tensor Gauss-Legendre rule over the
    support box and refined once, to 96 points, for an error estimate.
    """
    return _pair_on_grids(g1, g2, params, _pairing_grids(bump), bump.support_radius)


def pairing_search(bump: BiCircleFunction, params: Tuple, n_random: int,
                   seed: int):
    """Pair ``bump`` with the kernel moved by the identity and by n_random
    random elements of the norm <= 2 region; the bump is evaluated on the
    quadrature grids once for all of them.

    Returns a list of (g1, g2, PairingResult); the identity pair comes first.
    """
    rng = np.random.default_rng(seed)
    eye = np.eye(2)
    probes = [(eye, eye)]
    for _ in range(n_random):
        probes.append((random_sl2(rng), random_sl2(rng)))
    grids = _pairing_grids(bump)
    return [(g1, g2, _pair_on_grids(g1, g2, params, grids, bump.support_radius))
            for g1, g2 in probes]


def weighted_mean_bound(u: np.ndarray, h: np.ndarray,
                        weights: Optional[np.ndarray] = None) -> float:
    """|sum h u d(nu)| under the localization hypotheses, verified numerically.

    Hypotheses on the sampled data (measure weights d(nu)):
      (i)  u >= 0 with unit mass  sum u d(nu) = 1,
      (ii) sup |h| >= 1 and variation sup |h(s) - h(s')| <= 1/2.
    Under these the weighted mean cannot drop below sup|h| - Var >= 1/2.
    Raises PreconditionError when a hypothesis fails by more than 1e-9.
    """
    tol = 1e-9
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
