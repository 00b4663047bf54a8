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

import itertools
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
from .params import exponents
from .quadrature import unit_nodes
from .trilinear import spectral_mode_values

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
    non-finite entry of g or lam raises NonFiniteError, a singular g
    PreconditionError.
    """
    g = np.asarray(g, dtype=float)
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


def _check_form(l: int, T: float, N: int, *params) -> None:
    """The checks that sobolev_matrix's docstring lists."""
    if not np.isfinite(T):
        raise NonFiniteError(f"T must be finite, got {T}")
    if not all(np.isfinite(complex(z)) for z in params):
        raise NonFiniteError(f"parameters must be finite, got {params}")
    if l < 0 or T <= 0:
        raise PreconditionError("need l >= 0 and T > 0")
    if N < 0:
        raise PreconditionError(f"need N >= 0, got N = {N}")
    if 2 * l * np.log(T) > np.log(np.finfo(float).max):
        raise NonFiniteError(f"T^(2l) overflows at T = {T}, l = {l}")


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
    whose T^(2l) overflows, and PreconditionError for l < 0, T <= 0 or N < 0.
    """
    import scipy.sparse as sp

    _check_form(l, T, N, tau, tau_prime)
    G = _word_grams(tau, N, l)
    H = G if complex(tau_prime) == complex(tau) else _word_grams(tau_prime, N, l)
    return sum(sp.kron(G[a], sum(T ** (2 * (l - a - b)) * H[b]
                                 for b in range(l - a + 1)), format="csr")
               for a in range(l + 1)).tocsc()


# largest truncation N of the dense induced form and the dense relative trace
_DENSE_MAX_N = 40


def _check_modes(N: int, K_modes: int) -> None:
    """PreconditionError for K_modes < 0, N < 0 or an odd K_modes."""
    if K_modes < 0:
        raise PreconditionError(f"need K_modes >= 0, got K_modes = {K_modes}")
    if N < 0:
        raise PreconditionError(f"need N >= 0, got N = {N}")
    if K_modes % 2 != 0:
        raise PreconditionError(f"K_modes must be even, got K_modes = {K_modes}")


def _antidiagonals(N: int, K_modes: int) -> list:
    """The (m', n') pairs of the mode rows k = 2k' >= 0.  Row k holds the
    element on e^{2 i m' x} (x) e^{2 i n' y} (x) e^{i k z} at the flattened
    (m', n') position, nonzero only on m' + n' = -k', m' = -N..N-k': rows
    past k' = 2N are empty, and one spectral_mode_values call over all rows
    takes each row's own cutoff (largest |index| N).  The kernel depends only
    on |sin| of angle differences, so (-m', -n', -k) has the element of
    (m', n', k): row -k is row k moved from position i to (2N+1)^2 - 1 - i."""
    return [np.stack([mps, -kp - mps], axis=1)
            for kp in range(min(K_modes // 2, 2 * N) + 1)
            for mps in [np.arange(-N, N - kp + 1)]]


def induced_form(lam, tau, tau_prime, N: int, K_modes: int) -> np.ndarray:
    """Dense matrix of the nonnegative Hermitian form induced by the
    trilinear functional.

    Gram structure H = sum_k conj(row_k)^T row_k over output modes
    |k| <= K_modes; positive semidefinite by construction and monotone in
    K_modes.  Each row -k is the mirror of row k (see ``_antidiagonals``);
    every row k >= 0 is computed in full, also at tau = tau', so the form
    checks sobolev_trace's exchange shortcut.
    Dense assembly; N > 40 raises PreconditionError.
    """
    if N > _DENSE_MAX_N:
        raise PreconditionError("dense induced form is limited to N <= 40; "
                                "use sobolev_trace for large truncations")
    _check_modes(N, K_modes)
    rows = _antidiagonals(N, K_modes)
    values = spectral_mode_values(np.concatenate(rows), tau, tau_prime, lam)
    dim = (2 * N + 1) ** 2
    H = np.zeros((dim, dim), dtype=complex)
    for kp, (p, vals) in enumerate(zip(rows, np.split(
            values, np.cumsum([len(p) for p in rows])[:-1]))):
        idx = (p[:, 0] + N) * (2 * N + 1) + (p[:, 1] + N)
        gram = np.outer(np.conj(vals), vals)
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
    for dense Hermitian G_a, H_a of sizes n_i, n_j, in their common dtype,
    from the pairs ((G_a, b(G_a)), (H_a, b(H_a))), b the half bandwidth.
    In Kronecker order (row i n_j + j) diagonal t of G_a times diagonal s of
    H_a is B's diagonal t n_j + s, so kd = max_a (b(G_a) n_j + b(H_a)); band
    row kd - t n_j - s, read as an (n_i, n_j) view, takes their outer
    product G[i - t, i] H[j - s, j] at i >= t, s <= j < n_j + s."""
    ni, nj = len(grams[0][0][0]), len(grams[0][1][0])
    kd = max(bg * nj + bh for (_, bg), (_, bh) in grams)
    dtype = np.result_type(*(M.dtype for pair in grams for M, _ in pair))
    ab = np.zeros((kd + 1, ni * nj), dtype=dtype, order="F")
    for (G, bg), (H, bh) in grams:
        for t in range(bg + 1):
            g = np.diagonal(G, t)
            for s in range(max(-bh, -t * nj), bh + 1):
                row = ab[kd - t * nj - s].reshape(ni, nj)      # a view
                row[t:, max(s, 0):nj + min(s, 0)] += np.outer(g, np.diagonal(H, s))
    return ab


def _block_term(grams: list, vals: np.ndarray, weight: np.ndarray,
                dest: np.ndarray, src: np.ndarray, coef: np.ndarray) -> float:
    """sum_r weight_r w_r B^{-1} w_r^* over the rows w_r of W (W.flat[dest]
    += coef vals[src]) for the block B = U^H U of ``_band_block``, factored by
    LAPACK's ``pbtrf`` in B's dtype: each term is ||U^{-H} w^*||^2, one
    ``tbtrs`` sweep; a real U sweeps the columns a, b of w^* = a + i b, as
    ||U^{-T} (a + i b)||^2 = ||U^{-T} a||^2 + ||U^{-T} b||^2."""
    from scipy.linalg import lapack

    ab = _band_block(grams)
    pbtrf, tbtrs = lapack.get_lapack_funcs(("pbtrf", "tbtrs"), (ab,))
    U, info = pbtrf(ab, overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefiniteError(f"Sobolev block of size {U.shape[1]} is "
                                       f"not positive definite (minor {info})")
    real = U.dtype.kind == "f"
    rhs = np.zeros((1 + real, len(weight) * U.shape[1]), dtype=U.dtype)
    w = coef * vals[src]
    for part, v in zip(rhs, (w.real, -w.imag) if real else (np.conj(w),)):
        np.add.at(part, dest, v)
    X, _info = tbtrs(U, rhs.reshape(-1, U.shape[1]).T, trans="C", overwrite_b=1)
    energy = np.sum(np.abs(X) ** 2, axis=0).reshape(-1, len(weight)).sum(axis=0)
    return float(energy @ weight)


@lru_cache(maxsize=4)
def _class_grams(l: int, tau: complex, tau_prime: complex, N: int) -> tuple:
    """(parity, (P^T G_a P)_a, (P^T H_b P)_b), a, b = 0..l, per nonempty class
    P of ``_parity_classes(N)`` (no H entry if tau = tau'), each Gram
    read-only, real where its imaginary part is 0, and paired with the half
    bandwidth of its nonzero pattern."""
    def fold(B, M):
        C = B.T @ M.toarray() @ B
        C = C if np.any(C.imag) else C.real
        C.flags.writeable = False
        r, c = np.nonzero(C)
        return C, int(np.max(np.abs(r - c), initial=0))
    grams = [_word_grams(t, N, l) for t in dict.fromkeys((tau, tau_prime))]
    return tuple((p, *(tuple(fold(B, M) for M in G) for G in grams))
                 for B, p in _parity_classes(N) if B.shape[1])


@lru_cache(maxsize=4)
def _block_maps(N: int, K_modes: int, exchange: bool) -> tuple:
    """The (m', n') pairs whose values sobolev_trace computes and per block
    (outer and inner class, row weights counting mirror rows and blocks, dest,
    src, coef): W.flat[dest] += coef value[src] is its rows times P_o (x) P_i."""
    full = np.concatenate(_antidiagonals(N, K_modes))
    # with exchange, (m', n') and (n', m') share one value
    pairs, src = np.unique(np.sort(full, axis=1) if exchange else full, axis=0,
                           return_inverse=True)
    m, n = full.T + N
    # per class, each mode's column (-1 if none: it has one at most) and entry
    classes = [(B.shape[1], p, np.where(B.any(axis=1), abs(B).argmax(axis=1), -1),
                B.sum(axis=1)) for B, p in _parity_classes(N) if B.shape[1]]
    kps = np.arange(min(K_modes // 2, 2 * N) + 1)
    blocks = []
    for i, j in (itertools.combinations_with_replacement(range(len(classes)), 2)
                 if exchange else itertools.product(range(len(classes)), repeat=2)):
        twice = exchange and i != j
        if twice and classes[j][0] > classes[i][0]:
            i, j = j, i
        (ni, pi, ci, vi), (nj, pj, cj, vj) = classes[i], classes[j]
        meets = (kps + pi + pj) % 2 == 0
        if np.any(meets):
            h = np.flatnonzero((ci[m] >= 0) & (cj[n] >= 0))
            rank = np.cumsum(meets)[-full[h].sum(axis=1)] - 1
            weight = np.where(kps == 0, 1.0, 2.0)[meets] * (2.0 if twice else 1.0)
            blocks.append((i, j, weight, (rank * ni + ci[m[h]]) * nj + cj[n[h]],
                           src.ravel()[h], vi[m[h]] * vj[n[h]]))
    for a in [pairs] + [a for b in blocks for a in b[2:]]:
        a.flags.writeable = False
    return pairs, tuple(blocks)


def sobolev_trace(l: int, T: float, lam, params: Tuple, N: int,
                  K_modes: int) -> float:
    """tr(H_induced | Q_{l,T}) = sum_k row_k Q^{-1} row_k^*, without forming
    the dense induced form, by four exact symmetries.

    * Reflection.  With (Rf)_q = f_{-q}, R X_a R = X_a, R X_b R = -X_b and
      R X_r R = -X_r at every parameter, so each word Gram commutes with R,
      and Q is block-diagonal in the even/odd bases of the two factors.
    * Parity.  X_a, X_b move a mode by one step and X_r keeps it, so a word
      Gram couples q, q' only when q - q' is even: Q splits into sixteen
      blocks sum_a (P_i^T G_a P_i) (x) (P_j^T H~_a P_j), one per pair of
      (reflection, |q| parity) classes.  The Grams couple modes within 2l,
      l columns of a class, so in Kronecker order a block is a band of half
      bandwidth <= l n_j + l, factored by a Hermitian band Cholesky
      (Q >= T^(2l); NotPositiveDefiniteError if it fails), real where its
      class Grams are, as at real parameters (each word is i^k times real).
    * Mirrored rows.  Row -k is row k under R (x) R, which commutes with Q,
      so rho = term(k = 0) + 2 sum_{k > 0} term(k) and only k >= 0 is built.
      Row k = 2k' lies on m' + n' = -k' and meets only the blocks whose
      class parities add up to k' mod 2; a block no row meets is skipped.
    * Factor exchange.  At tau = tau', G = H, so Q = sum_{a+b <= l}
      T^(2(l-a-b)) G_a (x) G_b commutes with the swap S(f (x) g) = g (x) f,
      and with l1 = l2 the element of (m', n', k) equals that of (n', m', k),
      so S fixes every row.  S maps block (i, j) and its rows onto block
      (j, i), and the two terms are equal: only the ten blocks i <= j are
      factored, each off-diagonal one twice counted and oriented with the
      smaller class inner (narrower band), and only the half m' <= n' of
      each row is computed.

    What does not depend on T is kept as read-only arrays in two LRU caches
    of 4 entries: the class Grams P^T G_a P and P^T H_b P, keyed on (l, tau,
    tau', N), and each block's map from the row values into its right-hand
    side, (destination, source, coefficient) triplets keyed on (N, K_modes,
    tau == tau').  Every input is checked before a cache is read.

    Matches relative_trace(induced_form(...), sobolev_matrix(...).toarray())
    on small truncations.  Any l >= 0 is computed; the T^(-2l) floor
    concerns l >= 2.
    """
    tau, tau_prime = (complex(t) for t in params)
    _check_form(l, T, N, tau, tau_prime, lam)
    _check_modes(N, K_modes)
    pairs, blocks = _block_maps(N, K_modes, tau == tau_prime)
    vals = spectral_mode_values(pairs, tau, tau_prime, lam)
    classes = _class_grams(l, tau, tau_prime, N)
    # a T-weighted sum of Grams has the widest band among its terms
    H = [[(sum(T ** (2 * (l - a - b)) * c[-1][b][0] for b in range(l - a + 1)),
           max(c[-1][b][1] for b in range(l - a + 1)))
          for a in range(l + 1)] for c in classes]
    rho = 0.0
    for i, j, *layout in blocks:
        rho += _block_term(list(zip(classes[i][1], H[j])), vals, *layout)
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
    is not finite NonFiniteError."""
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
    PreconditionError).
    """
    if not np.isfinite(T):
        raise NonFiniteError(f"T must be finite, got {T}")
    if T < 1.0:
        raise PreconditionError("bump vectors are defined for T >= 1")
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

    # exact plain-measure squared norm of the constructed bump (all 4 copies)
    return BiCircleFunction(evaluator=evaluator, mass=1.0, support_radius=r,
                            center=(x0, y0),
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
