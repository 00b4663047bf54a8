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
* relative traces tr(H | Q) computed two independent ways; the fast one
  keeps what does not depend on T in two least-recently-used caches of 4
  entries, the class Grams keyed on (l, tau, tau', N) and the row-to-block
  maps keyed on (N, K_modes, tau == tau'),
* the localized bump vector, an analytic evaluator with exact mass and norm
  (no Fourier series), and its pairing against the transformed kernel,
* the elementary averaged-pairing lower bound used by the localization step.

Conventions: a mode index p stands for the frequency 2p (even functions); the
flattened bi-circle index is (p + N) * (2N + 1) + (q + N).  Lie generators use
the sl2 basis {diag(1,-1), offdiag(1,1), rotation}; their normalization is the
plain derivative of the action along exp(tX) at t = 0.
"""

import operator
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Optional, Tuple

import numpy as np

from .circlefn import BiCircleFunction, CircleFunction
from .errors import (NonConvergentError, NonFiniteError,
                     NotPositiveDefiniteError, PreconditionError,
                     TruncationOverflowError)
from .estimate import Estimate
from .kernel import kernel_on_circle
from .params import as_count, exponents
from .quadrature import unit_nodes
from .trilinear import recurrence_mode_values

__all__ = [
    "random_sl2",
    "group_action",
    "circle_generators",
    "sobolev_matrix",
    "induced_form",
    "relative_trace",
    "sobolev_trace",
    "sobolev_trace_estimate",
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
    """Random SL(2,R) element with operator norm <= max_norm (KAK sampling).
    A max_norm below 1 or not finite raises PreconditionError."""
    if not 1.0 <= max_norm < np.inf:
        raise PreconditionError(f"max_norm must be finite and at least 1, got {max_norm}")
    sigma = rng.uniform(1.0, max_norm)
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    r1 = np.array([[np.cos(p1), -np.sin(p1)], [np.sin(p1), np.cos(p1)]])
    r2 = np.array([[np.cos(p2), -np.sin(p2)], [np.sin(p2), np.cos(p2)]])
    return r1 @ np.diag([sigma, 1.0 / sigma]) @ r2


def _pull_back(g, lam, theta):
    """The circle-model action's reading of the points (cos theta, sin theta).

    With v = g^{-1} (cos theta, sin theta), returns the angle of v and the
    two factors the action multiplies by, |v|^{lam-1} and
    |det g|^{(lam-1)/2}; the first two have the shape of theta.  A
    non-finite entry of g or lam raises NonFiniteError, a g that is not an
    invertible 2x2 matrix PreconditionError.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (2, 2):
        raise PreconditionError(f"group element must be a 2x2 matrix, got shape {g.shape}")
    z = complex(lam)
    if not (np.all(np.isfinite(g)) and np.isfinite(z)):
        raise NonFiniteError(f"group element and parameter must be finite, "
                             f"got {g.tolist()} and {z}")
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
    import scipy.sparse as sp

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
# Sobolev and induced forms
# ---------------------------------------------------------------------------

def _word_grams(lam, N: int, l: int) -> list:
    """One-circle word Grams G_a = sum_{|alpha| = a} A_alpha^H A_alpha, a <= l.

    A_alpha = X_a^i X_b^j X_r^k runs over the words of length a in
    circle_generators(lam, N), composed in the fixed generator order.
    """
    import scipy.sparse as sp

    Xa, Xb, Xr = circle_generators(lam, N)
    eye = sp.identity(2 * N + 1, format="csr", dtype=complex)
    return [sum(w.getH() @ w for w in (
                reduce(operator.matmul, [Xa] * i + [Xb] * j + [Xr] * (a - i - j), eye)
                for i in range(a + 1) for j in range(a - i + 1)))
            for a in range(l + 1)]


# largest truncation N of sobolev_matrix and sobolev_trace: at N = 512 and
# l = 2 one band block of sobolev_trace holds 517 x 257^2 doubles (273 MB)
_SPARSE_MAX_N = 512


def _check_form(l: int, T: float, N: int, *params) -> Tuple[int, int]:
    """The checks that sobolev_matrix's docstring lists; (l, N) as ints."""
    if not np.isfinite(T):
        raise NonFiniteError(f"T must be finite, got {T}")
    if not all(np.isfinite(complex(z)) for z in params):
        raise NonFiniteError(f"parameters must be finite, got {params}")
    l, N = as_count(l, "l"), as_count(N, "N", top=_SPARSE_MAX_N)
    if T <= 0:
        raise PreconditionError(f"need T > 0, got T = {T}")
    if 2 * l * np.log(T) > np.log(np.finfo(float).max):
        raise NonFiniteError(f"T^(2l) overflows at T = {T}, l = {l}")
    return l, N


def sobolev_matrix(l: int, T: float, tau, tau_prime, N: int) -> "sp.csc_matrix":
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
    Raises NonFiniteError for a NaN or infinite T, tau or tau_prime, or a T
    whose T^(2l) overflows, and PreconditionError for T <= 0, an l or N
    that is not a non-negative integer, or N > 512, before any allocation.
    """
    import scipy.sparse as sp

    l, N = _check_form(l, T, N, tau, tau_prime)
    G = _word_grams(tau, N, l)
    H = G if complex(tau_prime) == complex(tau) else _word_grams(tau_prime, N, l)
    return sum(sp.kron(G[a], sum(T ** (2 * (l - a - b)) * H[b]
                                 for b in range(l - a + 1)), format="csr")
               for a in range(l + 1)).tocsc()


# largest truncation N of the dense induced form and the dense relative trace
_DENSE_MAX_N = 40


def _check_modes(K_modes: int) -> int:
    """K_modes as an int; PreconditionError unless it is an even non-negative
    integer."""
    K_modes = as_count(K_modes, "K_modes")
    if K_modes % 2 != 0:
        raise PreconditionError(f"K_modes must be even, got K_modes = {K_modes}")
    return K_modes


def _row_grid(N: int, K_modes: int) -> np.ndarray:
    """The cells (m' + N, k') of the mode rows k = 2k' >= 0 in a boolean
    (2N + 1, min(K_modes/2, 2N) + 1) table.  Row k holds the element on
    e^{2 i m' x} (x) e^{2 i n' y} (x) e^{i k z}, nonzero only on m' + n' =
    -k': cell (m' + N, k') stands for n' = N - k' - (m' + N) >= -N.  The
    kernel depends only on |sin| of angle differences, so (-m', -n', -k) has
    the element of (m', n', k): row -k is row k moved from flattened (m',
    n') position i to (2N+1)^2 - 1 - i."""
    rows = min(K_modes // 2, 2 * N) + 1
    return np.add.outer(np.arange(2 * N + 1), np.arange(rows)) <= 2 * N


def _mode_rows(lam, tau, tau_prime, N: int, K_modes: int) -> np.ndarray:
    """The table b[m' + N, k'] of the mode rows on ``_row_grid(N, K_modes)``,
    0 off it, from one recurrence_mode_values call."""
    grid = _row_grid(N, K_modes)
    r, kp = np.nonzero(grid)
    b = np.zeros(grid.shape, dtype=complex)
    b[r, kp] = recurrence_mode_values(np.stack([r - N, N - kp - r], axis=1),
                                      tau, tau_prime, lam)
    return b


def induced_form(lam, tau, tau_prime, N: int, K_modes: int) -> np.ndarray:
    """Dense matrix of the nonnegative Hermitian form induced by the
    trilinear functional.

    Gram structure H = sum_k conj(row_k)^T row_k over output modes
    |k| <= K_modes; positive semidefinite by construction and monotone in
    K_modes.  The rows k >= 0 are the columns of the table of
    ``_mode_rows``, and each row -k is the mirror of row k (see
    ``_row_grid``); the dense Gram checks sobolev_trace's block, mirror and
    exchange shortcuts.
    Dense assembly: an N or K_modes that is not a non-negative integer, an
    odd K_modes and N > 40 raise PreconditionError (use sobolev_trace for
    large truncations).
    """
    N, K_modes = as_count(N, "N"), _check_modes(K_modes)
    if N > _DENSE_MAX_N:
        raise PreconditionError("dense induced form is limited to N <= 40; "
                                "use sobolev_trace for large truncations")
    b = _mode_rows(lam, tau, tau_prime, N, K_modes)
    dim = (2 * N + 1) ** 2
    H = np.zeros((dim, dim), dtype=complex)
    for kp in range(b.shape[1]):
        r = np.arange(2 * N + 1 - kp)           # m' + N
        idx = r * (2 * N + 1) + (2 * N - kp - r)
        gram = np.outer(np.conj(b[r, kp]), b[r, kp])
        for ix in ([idx, dim - 1 - idx] if kp else [idx]):
            H[np.ix_(ix, ix)] += gram
    return H


def relative_trace(H, Q) -> float:
    """tr(H | Q): trace of H in any Q-orthonormal basis = tr(Q^{-1} H).

    Computed by a triangular (Cholesky) factorization; an independent
    Q-eigenbasis evaluation must agree to a relative 1e-10, or Q counts as
    numerically singular and NotPositiveDefiniteError is raised.  Q must be
    positive definite.  H and Q that are not square matrices of one shape,
    or have more than (2*40 + 1)^2 = 6561 rows, the dense induced form's
    limit, raise PreconditionError; use sobolev_trace for large truncations.
    """
    import scipy.linalg as sla

    Hm, Qm = np.asarray(H, dtype=complex), np.asarray(Q, dtype=complex)
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
        raise NotPositiveDefiniteError(
            f"Q is numerically singular: relative-trace algorithms disagree, "
            f"{tri} vs {eig}")
    return tri


def _parity_classes(N: int):
    """(basis, parity) of the four reflection-parity classes A, B, C, D of
    one circle: the even modes e_0, (e_q + e_{-q})/sqrt(2) and the odd modes
    (e_q - e_{-q})/sqrt(2) of (Rf)_q = f_{-q}, q = 1..N, each split by the
    parity p of |q| (A, C even |q|; B, D odd), as dense orthonormal
    (2N+1)-row column sets by descending |q|.  Classes k and k + 2 are
    reflection twins, the even and odd class of one |q| parity; C and D are
    empty at N = 0, C also at N = 1, B at N = 0."""
    eye = np.eye(2 * N + 1)
    plus, minus = eye[:, :N:-1], eye[:, :N]             # e_q, e_{-q}, q = N..1
    even = np.hstack([np.sqrt(0.5) * (plus + minus), eye[:, N:N + 1]])
    odd = np.sqrt(0.5) * (plus - minus)
    # column c of either holds |q| = N - c
    return [(B[:, (N - p) % 2::2], p) for B in (even, odd) for p in (0, 1)]


def _band_block(grams: list, dtype) -> np.ndarray:
    """Lower band storage ab[r - c, c] = B[r, c], r >= c, of B = sum_a G_a
    (x) H_a in ``dtype`` for dense Hermitian G_a, H_a of sizes n_i, n_j, from
    the pairs ((G_a, b(G_a)), (H_a, b(H_a))), b the half bandwidth.  In
    Kronecker order (row i n_j + j) diagonal -t of G_a times diagonal -s of
    H_a is B's diagonal -(t n_j + s), so kd = max_a (b(G_a) n_j + b(H_a));
    band row t n_j + s, read as an (n_i, n_j) view, takes their outer
    product G[i + t, i] H[j + s, j] at i < n_i - t, max(0, -s) <= j <
    n_j - max(0, s)."""
    ni, nj = len(grams[0][0][0]), len(grams[0][1][0])
    kd = max(bg * nj + bh for (_, bg), (_, bh) in grams)
    ab = np.zeros((kd + 1, ni * nj), dtype=dtype, order="F")
    for (G, bg), (H, bh) in grams:
        for t in range(bg + 1):
            g = np.diagonal(G, -t)
            for s in range(max(-bh, -t * nj), bh + 1):
                row = ab[t * nj + s].reshape(ni, nj)        # a view
                row[:ni - t, max(-s, 0):nj - max(s, 0)] += np.outer(g, np.diagonal(H, -s))
    return ab


def _row_columns(vals: np.ndarray, n: int, real: bool, weight: np.ndarray,
                 dest: np.ndarray, src: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The conjugated rows w^* of a block (W.flat[dest] += coef vals[src],
    two entries meeting in one cell on row k = 0) as the columns of an
    (n, r) array; for a real factor a complex row is the two real columns
    Re w, Im w, as ||L^{-1} (a - i b)||^2 = ||L^{-1} a||^2 + ||L^{-1} b||^2."""
    size = len(weight) * n
    w = coef * vals[src]
    if real and w.dtype.kind == "f":
        rhs = np.bincount(dest, w, size)
    elif real:
        rhs = np.concatenate([np.bincount(dest, v, size) for v in (w.real, w.imag)])
    else:
        rhs = np.zeros(size, dtype=complex)
        np.add.at(rhs, dest, np.conj(w))
    return rhs.reshape(-1, n).T


def _twin_term(vals: np.ndarray, H: list, twins: tuple) -> float:
    """sum_r weight_r w_r B^{-1} w_r^* over the rows w_r of the blocks B =
    sum_a G_a (x) H_a of one inner class (Grams H) and one outer class, or
    two reflection twins ((class, (weight, dest, src, coef)) each, the even
    twin first), for B = L L^H: each term is ||L^{-1} w^*||^2.

    The first block is assembled by ``_band_block`` and factored by
    LAPACK's ``pbtrf`` (lower).  The second twin's Grams equal the first's
    outside the trailing corner [s:, s:] (s its ``shared`` count), so its
    leading m = s n_j rows and columns, and its rows past m left of column
    m, are the first block's: its factor is [[L11, 0], [L21, L22]] with L11,
    L21 the first factor's and L22 the dense Cholesky factor of its trailing
    Schur complement B22 - L21 L21^H.  Its rows are swept by ``tbtrs`` on
    the leading m columns of the band (y1) and by ``trtrs`` on L22 (y2 =
    L22^{-1} (w2^* - L21 y1)); its band is never built.  Everything is in
    the dtype of all the Grams: real where they are."""
    from scipy.linalg import lapack

    (first, layout), *second = twins
    dtype = np.result_type(*(M.dtype for c, _ in twins for M, _ in c[2]),
                           *(M.dtype for M, _ in H))
    pbtrf, tbtrs, potrf, trtrs = lapack.get_lapack_funcs(
        ("pbtrf", "tbtrs", "potrf", "trtrs"), dtype=dtype)
    L, info = pbtrf(_band_block(list(zip(first[2], H)), dtype), lower=1, overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefiniteError(f"Sobolev block of size {L.shape[1]} is "
                                       f"not positive definite (minor {info})")
    kd, nj = len(L) - 1, len(H[0][0])
    real = dtype.kind == "f"

    def energy(X, weight):
        e = np.einsum("ij,ij->j", X, X) if real else np.sum(np.abs(X) ** 2, axis=0)
        return float(e.reshape(-1, len(weight)).sum(axis=0) @ weight)

    rho = energy(tbtrs(L, _row_columns(vals, L.shape[1], real, *layout),
                       uplo="L", overwrite_b=1)[0], layout[0])
    for twin, layout in second:
        s = twin[1]
        m, n = s * nj, len(twin[2][0][0]) * nj
        X = _row_columns(vals, n, real, *layout)
        if m:       # scipy's tbtrs corrupts the heap on an empty system
            # y1 = L11^{-1} w1 over the leading m rows; the rest stays w2
            X, _info = tbtrs(L[:, :m], X, uplo="L", overwrite_b=1)
        rho += energy(X[:m], layout[0])
        if n > m:
            lo = max(m - kd, 0)
            band = np.arange(m, n)[:, None] - np.arange(lo, m)      # r - c
            L21 = np.where(band <= kd, L[np.minimum(band, kd), np.arange(lo, m)], 0)
            # Kronecker products G_a[s:, s:] (x) H_a
            S = sum((G[s:, None, s:, None] * Hb[:, None, :]).reshape(n - m, n - m)
                    for (G, _), (Hb, _) in zip(twin[2], H))
            L22, info = potrf(S - L21 @ L21.conj().T, lower=1, overwrite_a=1)
            if info > 0:
                raise NotPositiveDefiniteError(
                    f"Sobolev block of size {n} is not positive definite "
                    f"(minor {m + info})")
            Y2, _info = trtrs(L22, X[m:] - L21 @ X[lo:m], lower=1, overwrite_b=1)
            rho += energy(Y2, layout[0])
    return rho


@lru_cache(maxsize=4)
def _class_grams(l: int, tau: complex, tau_prime: complex, N: int) -> tuple:
    """(parity, shared, (P^T G_a P)_a, (P^T H_b P)_b), a, b = 0..l, per class
    P of ``_parity_classes(N)`` (no H entry if tau = tau'), each Gram
    read-only, real where its imaginary part is 0, and paired with the half
    bandwidth of its nonzero pattern.  ``shared`` is the size of an even
    class, and for an odd class the least s such that its G_a equal its
    even twin's, exactly, everywhere outside [s:, s:] for every a."""
    def fold(B, M):
        C = B.T @ M.toarray() @ B
        C = C if np.any(C.imag) else C.real
        C.flags.writeable = False
        r, c = np.nonzero(C)
        return C, int(np.max(np.abs(r - c), initial=0))

    def shared(first, second):
        n = len(second[0][0])
        r, c = np.nonzero(np.any([F[:n, :n] != S for (F, _), (S, _)
                                  in zip(first, second)], axis=0))
        return int(np.min(np.minimum(r, c), initial=n))

    grams = [_word_grams(t, N, l) for t in dict.fromkeys((tau, tau_prime))]
    classes = [(p, [tuple(fold(B, M) for M in G) for G in grams])
               for B, p in _parity_classes(N)]
    return tuple((p, shared(classes[k % 2][1][0], folded[0]), *folded)
                 for k, (p, folded) in enumerate(classes))


# sobolev_trace's blocks as (inner class j, outer classes i, the even twin
# first), classes A..D numbered 0..3, keyed on tau == tau' (see "Reflection
# twins" in its docstring)
_BLOCK_GROUPS = {
    True: ((0, (0, 2)), (0, (1, 3)), (1, (1, 3)), (2, (1, 3)), (2, (2,)), (3, (3,))),
    False: tuple((j, twins) for j in range(4) for twins in ((0, 2), (1, 3))),
}


@lru_cache(maxsize=4)
def _block_maps(N: int, K_modes: int, exchange: bool) -> tuple:
    """The groups of ``_BLOCK_GROUPS[exchange]`` in their fixed order, as
    (inner class j, per outer class i (i, row weights counting mirror rows
    and, at exchange, transposed blocks, dest, src, coef)): W.flat[dest] +=
    coef b.flat[src] is a block's rows times P_i (x) P_j, b the mode-row
    table of ``_mode_rows``.  Blocks of an empty class (only at N <= 1) and
    groups that no row meets are dropped."""
    grid = _row_grid(N, K_modes)
    cells = np.flatnonzero(grid)
    m, kp = np.divmod(cells, grid.shape[1])     # m' + N, k'
    n = 2 * N - kp - m                          # n' + N
    # per class, each mode's column (-1 if none: it has one at most) and entry
    classes = [(B.shape[1], p, (B != 0) @ np.arange(1, B.shape[1] + 1) - 1,
                B.sum(axis=1)) for B, p in _parity_classes(N)]
    kps = np.arange(grid.shape[1])

    def block(i, j):
        (ni, pi, ci, vi), (nj, pj, cj, vj) = classes[i], classes[j]
        meets = (kps + pi + pj) % 2 == 0
        h = np.flatnonzero((ci[m] >= 0) & (cj[n] >= 0))
        rank = np.cumsum(meets)[kp[h]] - 1
        weight = np.where(kps == 0, 1.0, 2.0)[meets] * (2.0 if exchange and i != j else 1.0)
        return i, weight, (rank * ni + ci[m[h]]) * nj + cj[n[h]], cells[h], vi[m[h]] * vj[n[h]]

    groups = tuple((j, g) for j, outer in _BLOCK_GROUPS[exchange] if classes[j][0]
                   for g in [tuple(block(i, j) for i in outer if classes[i][0])]
                   if g and len(g[0][1]))
    for a in (a for _, g in groups for b in g for a in b[1:]):
        a.flags.writeable = False
    return groups


def sobolev_trace(l: int, T: float, lam, params: Tuple, N: int,
                  K_modes: int) -> float:
    """tr(H_induced | Q_{l,T}) = sum_k row_k Q^{-1} row_k^*, without forming
    the dense induced form, by six exact symmetries.

    * Reflection.  With (Rf)_q = f_{-q}, R X_a R = X_a, R X_b R = -X_b and
      R X_r R = -X_r at every parameter, so each word Gram commutes with R,
      and Q is block-diagonal in the even/odd bases of the two factors.
    * Parity.  X_a, X_b move a mode by one step and X_r keeps it, so a word
      Gram couples q, q' only when q - q' is even: Q splits into sixteen
      blocks sum_a (P_i^T G_a P_i) (x) (P_j^T H~_a P_j), one per pair of
      (reflection, |q| parity) classes.  The Grams couple modes within 2l,
      l columns of a class, so in Kronecker order a block is a band of half
      bandwidth <= l n_j + l, assembled from the Gram diagonals straight
      into LAPACK's lower band storage and factored by a Hermitian band
      Cholesky (Q >= T^(2l); NotPositiveDefiniteError if it fails), real
      where its class Grams are, as at real parameters (each word is i^k
      times real).
    * Mirrored rows.  Row -k is row k under R (x) R, which commutes with Q,
      so rho = term(k = 0) + 2 sum_{k > 0} term(k) and only k >= 0 is built.
      Row k = 2k' lies on m' + n' = -k' and meets only the blocks whose
      class parities add up to k' mod 2; a block no row meets is skipped.
    * Factor exchange.  At tau = tau', G = H, so Q = sum_{a+b <= l}
      T^(2(l-a-b)) G_a (x) G_b commutes with the swap S(f (x) g) = g (x) f,
      and with l1 = l2 the element of (m', n', k) equals that of (n', m', k),
      so S fixes every row.  S maps block (i, j) and its rows onto block
      (j, i), and the two terms are equal: only ten of the sixteen blocks
      are computed, each off-diagonal one twice counted.
    * Conjugation.  At real tau, tau' and real lam^2 (lam real or purely
      imaginary, as at the CLI default lam = iT) the kernel's conjugate is
      the kernel at (tau, tau', -lam), and with |sin| even, conj a(m', n',
      k') = a_{-lam}(m', n', k').  The standard intertwiner pi_lam ->
      pi_{-lam} acts on each K-type of the third factor by a scalar, so by
      uniqueness of the invariant functional a_{-lam}(., ., k') = kappa(k')
      a_lam(., ., k'): each row is real up to one unit phase u_k.  The
      term of row k is unchanged by u_k, so the row is rotated by the
      conjugate phase of its largest entry and only its real part is kept
      (the dropped imaginary part is rounding, about 1e-15 of the row, and
      would enter squared); the class Grams are real there, so each row is
      one real ``tbtrs`` column, not two.  The case is told from tau, tau'
      and lam alone; other parameters keep their complex rows.
    * Reflection twins.  Each class lists its modes by descending |q|; the
      even and odd class of one |q| parity (A and C for even |q|, B and D
      for odd, A also holding |q| = 0, last) are twins with the same |q| >= 1
      in the same order.  As G commutes with R, their Gram entries at
      q, q' >= 1 are G_{q,q'} + G_{q,-q'} and G_{q,q'} - G_{q,-q'}, and
      G_{q,-q'} couples modes q + q' apart.  A word of length a moves a mode
      by at most a, so G_a couples modes within 2a; at odd a the full shift
      cancels (X_a = (E+ + E-)/2, X_b = (E+ - E-)/(2i) with E+, E- pure
      raising and lowering, so the full-shift parts of the words X_a^i
      X_b^(a-i) add up with signs (-1)^(a-i)).  The twins' class Grams are
      therefore equal except on the trailing corner of the class indices
      with |q| + min |q| <= 4 floor(l/2) (none at l <= 1), whose extent
      ``_class_grams`` records by exact comparison.  The twin blocks (A, j)
      and (C, j), or (B, j) and (D, j), then differ only where both outer
      indices lie in that corner, and a leading principal block's Cholesky
      factor is the leading block of the whole factor: the first twin's band
      factor serves the second, whose trailing Schur complement (about l
      outer columns) is factored densely (``_twin_term``).  At tau = tau'
      the ten blocks are, in this order, AA+CA, BA+DA, BB+DB, BC+DC, CC
      and DD: 6 band factorizations; at tau != tau' the sixteen are (A,
      j)+(C, j) and (B, j)+(D, j) for j = A..D: 8.

    The rows k >= 0 are the columns of one table b[m' + N, k']
    (``_mode_rows``), whose one recurrence_mode_values call also checks the
    parameters, before any cache is read.  Each block reads its rows out of
    b through fixed index maps, in the fixed block order of
    ``_BLOCK_GROUPS`` (dropping the blocks of classes that are empty at N <=
    1).  What does not depend on T is cached read-only (_class_grams,
    _block_maps).

    Matches relative_trace(induced_form(...), sobolev_matrix(...).toarray())
    on small truncations.  Any l >= 0 is computed; the T^(-2l) floor
    concerns l >= 2.  T, tau, tau' or lam not finite, or a closed form at
    (tau, tau', lam) that is not a normal double (NonFiniteError), and l, N
    or K_modes not non-negative integers, an odd K_modes, N > 512, T <= 0 or
    divergent parameters (PreconditionError) are refused before any table
    is built.
    """
    tau, tau_prime = (complex(t) for t in params)
    l, N = _check_form(l, T, N, tau, tau_prime, lam)
    K_modes = _check_modes(K_modes)
    table = _mode_rows(lam, tau, tau_prime, N, K_modes)
    z = complex(lam)
    if tau.imag == tau_prime.imag == 0.0 and (z.real == 0.0 or z.imag == 0.0):
        # each row turned by the conjugate phase of its largest entry
        lead = table[np.abs(table).argmax(axis=0), np.arange(table.shape[1])]
        table = (table * np.exp(-1j * np.angle(lead))).real
    classes = _class_grams(l, tau, tau_prime, N)
    # a T-weighted sum of Grams has the widest band among its terms
    H = [[(sum(T ** (2 * (l - a - b)) * c[-1][b][0] for b in range(l - a + 1)),
           max(c[-1][b][1] for b in range(l - a + 1)))
          for a in range(l + 1)] for c in classes]
    vals = table.ravel()
    rho = 0.0
    for j, blocks in _block_maps(N, K_modes, tau == tau_prime):
        rho += _twin_term(vals, H[j], tuple((classes[i], layout)
                                            for i, *layout in blocks))
    return rho


# the bar is this multiple of one joint doubling's change; a bar earned from
# the observed rate needs a second doubling, to (4N, 4K_modes), which
# ROADMAP.md lists as open
_DOUBLING_SAFETY = 4.0


def sobolev_trace_estimate(l: int, T: float, lam, params: Tuple, N: int,
                           K_modes: int) -> Estimate:
    """sobolev_trace at (2N, 2K_modes), error_bound _DOUBLING_SAFETY (4) times
    its change from (N, K_modes), cost (2n+1)^2 summed over both.  A change
    above 10% raises NonConvergentError with that Estimate, and a value that
    is not finite NonFiniteError.  N > 256 (the fine call's 2N > 512) and
    what sobolev_trace refuses raise before either call's work."""
    N, K_modes = as_count(N, "N", top=_SPARSE_MAX_N // 2), _check_modes(K_modes)
    coarse, fine = (sobolev_trace(l, T, lam, params, m * N, m * K_modes)
                    for m in (1, 2))
    if not np.isfinite(fine - coarse):
        raise NonFiniteError(f"sobolev_trace is {coarse} at (N, K_modes) = "
                             f"({N}, {K_modes}) and {fine} at twice that")
    diff, scale = abs(fine - coarse), max(abs(fine), 1e-300)
    est = Estimate(value=fine, error_bound=_DOUBLING_SAFETY * diff,
                   method="sobolev_trace/level1",
                   cost=(2 * N + 1) ** 2 + (4 * N + 1) ** 2)
    if diff <= 0.1 * scale:
        return est
    raise NonConvergentError(f"the joint doubling changed rho by {diff / scale:.3g}"
                             " > 0.1 relative",
                             estimate=replace(est, method="sobolev_trace/stalled"))


# ---------------------------------------------------------------------------
# bump vectors and kernel pairings
# ---------------------------------------------------------------------------

# steepness a of the profile exp(-a x^2 / (1 - x^2)): it fixes the bump's
# shape, hence its squared norm 4 amp^2 r^2 i2 and the pairing bounds
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
    v, omv, w = unit_nodes("singularity_split", 8)
    i1 = np.pi * float(np.sum(np.exp(-a * v / omv) * w))
    i2 = np.pi * float(np.sum(np.exp(-2.0 * a * v / omv) * w))
    return i1, i2


def bump_vector(T: float) -> BiCircleFunction:
    """Smooth nonnegative bump on the bi-circle, localized at scale 1/(100 T).

    Supported in the disc of radius 1/(100 T) around (pi/3, 2pi/3) (and its
    antipodal copies, as the function is even-even), with unit total mass
    integral u dx dy = 1  over [0, 2pi)^2 in plain measure and squared norm
    well below 1e5 T^2; both are exact integrals of the profile, not of a
    truncated series.  Requires a finite T >= 1 (NonFiniteError,
    PreconditionError) whose r^2 = (100 T)^-2 is a normal double, T up to
    about 6.7e151 (PreconditionError).
    """
    if not np.isfinite(T):
        raise NonFiniteError(f"T must be finite, got {T}")
    if T < 1.0:
        raise PreconditionError("bump vectors are defined for T >= 1")
    r = 1.0 / (100.0 * T)
    if r * r < np.finfo(float).tiny:
        raise PreconditionError(f"T = {T} is too large: the squared support radius "
                                f"(100 T)^-2 = {r * r} is not a normal double")
    a = _BUMP_SHARPNESS
    i1, i2 = _profile_moments(a)
    amp = 0.25 / (r * r * i1)          # per-copy mass 1/4
    x0, y0 = _BUMP_CENTER

    def evaluator(x, y):
        dx = np.mod(np.asarray(x, dtype=float) - x0 + np.pi / 2, np.pi) - np.pi / 2
        dy = np.mod(np.asarray(y, dtype=float) - y0 + np.pi / 2, np.pi) - np.pi / 2
        rho2 = (dx * dx + dy * dy) / (r * r)
        return amp * _bump_profile(rho2, a)

    # exact plain-measure squared norm of the constructed bump (all 4
    # copies), 4 amp^2 r^2 i2 = amp i2 / i1, where amp^2 would overflow
    return BiCircleFunction(evaluator=evaluator, mass=1.0, support_radius=r,
                            center=(x0, y0), norm_sq_plain=amp * i2 / i1)


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
    An n_random that is not a non-negative integer raises PreconditionError
    before any work.
    """
    n_random = as_count(n_random, "n_random")
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
    Raises NonFiniteError for a NaN or infinite entry of u, h or weights,
    and PreconditionError when they are not 1-D arrays of one length or a
    hypothesis fails by more than 1e-9.  The variation is scanned in row
    blocks of about 2^18 pairs, so memory stays bounded for long samples.
    """
    tol = 1e-9
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=complex)
    nu = np.ones_like(u) if weights is None else np.asarray(weights, dtype=float)
    if not (u.ndim == 1 and u.shape == h.shape == nu.shape):
        raise PreconditionError("u, h and weights must be 1-D arrays of one length, "
                                f"got shapes {u.shape}, {h.shape} and {nu.shape}")
    for name, a in (("u", u), ("h", h), ("weights", nu)):
        if not np.all(np.isfinite(a)):
            raise NonFiniteError(f"{name} has a non-finite entry")
    if np.any(u < -tol) or np.any(nu <= 0):
        raise PreconditionError("u must be nonnegative on a positive measure")
    mass = float(np.sum(u * nu))
    if abs(mass - 1.0) > 1e-6:
        raise PreconditionError(f"u must have unit mass, got {mass}")
    sup = float(np.max(np.abs(h)))
    if sup < 1.0 - tol:
        raise PreconditionError(f"sup |h| = {sup} < 1")
    step = max(1, 2 ** 18 // len(h))
    var = max(float(np.max(np.abs(h[i:i + step, None] - h[None, :])))
              for i in range(0, len(h), step))
    if var > 0.5 + tol:
        raise PreconditionError(f"variation {var} exceeds 1/2")
    return float(abs(np.sum(h * u * nu)))
