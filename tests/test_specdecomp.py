"""Group action, Lie generators, Sobolev forms, traces, bumps, pairings."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triform import (CircleFunction, Estimate, NonConvergentError,
                     NonFiniteError, NotPositiveDefiniteError,
                     PreconditionError, TruncationOverflowError, bump_vector,
                     circle_generators, group_action, induced_form,
                     kernel_bump_pairing, pairing_search,
                     random_sl2, relative_trace, sobolev_matrix,
                     sobolev_trace, sobolev_trace_estimate,
                     spectral_mode_values, spherical_square,
                     transformed_kernel_values, weighted_mean_bound)
from triform import specdecomp

# sobolev_trace's caches of the T-independent class Grams and block maps
CACHES = (specdecomp._class_grams, specdecomp._block_maps)

GEN_MATRICES = [np.array([[1.0, 0.0], [0.0, -1.0]]),
                np.array([[0.0, 1.0], [1.0, 0.0]]),
                np.array([[0.0, 1.0], [-1.0, 0.0]])]


def random_circle_function(rng, N, decay=0.5):
    p = np.arange(-N, N + 1)
    c = (rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1))
    c *= np.exp(-decay * np.abs(p))
    return CircleFunction(c, N)


# ---------------------------------------------------------------------------
# group action
# ---------------------------------------------------------------------------

def test_action_identity(rng):
    f = random_circle_function(rng, 16)
    out = group_action(np.eye(2), 1j, f)
    assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-12


def test_action_rotation_is_lambda_independent_shift(rng):
    f = random_circle_function(rng, 12)
    phi = 0.7
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    for lam in (0.0, 1j, 3j):
        out = group_action(rot, lam, f)
        p = np.arange(-12, 13)
        expected = f.coeffs * np.exp(-2j * p * phi)
        assert np.max(np.abs(out.coeffs - expected)) < 1e-11


def test_action_unitary_on_spherical_vector():
    f = CircleFunction.from_modes({0: 1.0}, 64)
    g = np.diag([2.0, 0.5])
    out = group_action(g, 1j, f)
    assert abs(np.linalg.norm(out.coeffs) - 1.0) <= np.sqrt(out.tail_energy) + 1e-10


def test_action_unitarity_random(rng):
    for _ in range(20):
        f = random_circle_function(rng, 64, decay=0.35)
        g = random_sl2(rng, max_norm=2.0)
        assert np.linalg.norm(g, 2) <= 2.0 + 1e-12
        out = group_action(g, 2.3j, f)
        n0, n1 = np.linalg.norm(f.coeffs), np.linalg.norm(out.coeffs)
        assert abs(n1 ** 2 - n0 ** 2) <= out.tail_energy + 1e-9 * n0 ** 2


def test_diagnostics_are_declared_fields():
    # set through the constructors, never attached to an instance afterwards
    assert CircleFunction.constant(1.0).tail_energy is None
    out = group_action(np.diag([2.0, 0.5]), 1j, CircleFunction.from_modes({0: 1.0}, 16))
    assert "tail_energy" in out.__dataclass_fields__ and out.tail_energy >= 0.0
    u = bump_vector(1.0)
    for name in ("support_radius", "center", "norm_sq_plain", "mass"):
        assert name in u.__dataclass_fields__ and getattr(u, name) is not None


@pytest.mark.parametrize("max_norm", [0.5, np.nan, np.inf])
def test_random_sl2_refuses_a_norm_bound_below_1_or_not_finite(max_norm):
    # 0.5 gave numpy's ValueError, NaN and inf an OverflowError
    with pytest.raises(PreconditionError, match="max_norm"):
        random_sl2(np.random.default_rng(0), max_norm)


def test_non_finite_group_element_is_refused():
    # a NaN entry gave NaN coefficients and a NaN tail energy, which the 1%
    # tail gate let through
    g = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFiniteError):
        group_action(g, 1j, CircleFunction.from_modes({0: 1.0}, 4))
    theta = np.array([0.3, 1.1])
    with pytest.raises(NonFiniteError):
        transformed_kernel_values(np.eye(2), g, 0.0, (0.0, 0.0, 1j), theta,
                                  theta + 0.7)


def test_action_truncation_overflow():
    f = CircleFunction(np.full(17, 1.0, dtype=complex), 8)
    with pytest.raises(TruncationOverflowError):
        group_action(np.diag([4.0, 0.25]), 1j, f)


@pytest.mark.parametrize("g", [np.zeros((2, 2)), np.array([[1.0, 2.0], [0.5, 1.0]])])
def test_singular_group_element_is_a_precondition_error(g):
    with pytest.raises(PreconditionError, match="invertible"):
        group_action(g, 1j, CircleFunction.from_modes({0: 1.0}, 4))
    theta = np.array([0.3, 1.1])
    for pair in ((g, np.eye(2)), (np.eye(2), g)):
        with pytest.raises(PreconditionError, match="invertible"):
            transformed_kernel_values(*pair, 0.0, (0.0, 0.0, 1j), theta, theta + 0.7)


def test_generators_match_finite_differences(rng):
    N = 24
    lam = 1.3j
    f = random_circle_function(rng, N, decay=0.6)
    # zero the outer band so one generator application stays inside
    f.coeffs[:4] = 0
    f.coeffs[-4:] = 0
    gens = circle_generators(lam, N)
    h = 1e-5
    for X, M in zip(GEN_MATRICES, gens):
        plus = group_action(sla.expm(h * X), lam, f)
        minus = group_action(sla.expm(-h * X), lam, f)
        fd = (plus.coeffs - minus.coeffs) / (2.0 * h)
        exact = M @ f.coeffs
        scale = np.max(np.abs(exact)) + 1.0
        assert np.max(np.abs(fd - exact)) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# Sobolev forms
# ---------------------------------------------------------------------------

def test_sobolev_l0_is_identity():
    q = sobolev_matrix(0, 3.0, 0.0, 0.0, 4).toarray()
    assert np.max(np.abs(q - np.eye(81))) < 1e-14


def test_sobolev_l1_on_constant_vector():
    N, T = 4, 2.5
    tau, taup = 1j, 2j
    q = sobolev_matrix(1, T, tau, taup, N).toarray()
    e00 = np.zeros((2 * N + 1) ** 2, dtype=complex)
    e00[(0 + N) * (2 * N + 1) + (0 + N)] = 1.0
    # each of the six generators acts on one factor of e00 = e0 (x) e0 and
    # the other factor has unit norm
    e0 = np.zeros(2 * N + 1, dtype=complex)
    e0[N] = 1.0
    expected = T ** 2
    for op in circle_generators(tau, N) + circle_generators(taup, N):
        expected += np.linalg.norm((op @ e0)) ** 2
    got = float(np.real(np.conj(e00) @ (q @ e00)))
    assert abs(got - expected) < 1e-10 * expected


def test_sobolev_monotone_in_T(rng):
    N = 3
    qa = sobolev_matrix(2, 1.5, 0.0, 1j, N).toarray()
    qb = sobolev_matrix(2, 3.0, 0.0, 1j, N).toarray()
    mineig = np.min(sla.eigvalsh(qb - qa))
    assert mineig >= -1e-10


@settings(max_examples=30, deadline=None)
@given(l=st.integers(0, 3), N=st.integers(1, 5), T=st.floats(0.5, 8.0),
       tau=st.floats(-3.0, 3.0), taup=st.floats(-3.0, 3.0))
def test_sobolev_matrix_keeps_parity_classes(l, N, T, tau, taup):
    # a word X^nu shifts the modes of each factor by steps of one parity, so
    # (X^nu)^H X^nu shifts them by even steps: no nonzero couples different
    # (p mod 2, q mod 2) classes
    Q = sobolev_matrix(l, T, 1j * tau, 1j * taup, N).tocoo()
    nz = Q.data != 0
    p, q = np.divmod(Q.row[nz], 2 * N + 1)
    pp, qq = np.divmod(Q.col[nz], 2 * N + 1)
    assert np.all((p - pp) % 2 == 0) and np.all((q - qq) % 2 == 0)


@settings(max_examples=30, deadline=None)
@given(l=st.integers(0, 3), N=st.integers(1, 5), T=st.floats(0.5, 8.0),
       tau=st.complex_numbers(max_magnitude=3.0),
       taup=st.complex_numbers(max_magnitude=3.0))
@example(l=2, N=3, T=2.5, tau=0.5j, taup=1j)
@example(l=3, N=4, T=6.0, tau=0.3 + 2j, taup=-1.5 - 1j)
def test_sobolev_matrix_commutes_with_mode_reflections(l, N, T, tau, taup):
    # (Rf)_q = f_{-q} gives R X_a R = X_a, R X_b R = -X_b and R X_r R = -X_r
    # at every parameter, so each word Gram commutes with R and Q with
    # R (x) I and I (x) R: the structure sobolev_trace splits Q into blocks by
    Q = sobolev_matrix(l, T, tau, taup, N).toarray()
    eye = np.eye(2 * N + 1)
    R = eye[::-1]
    for S in (np.kron(R, eye), np.kron(eye, R)):
        assert np.max(np.abs(S @ Q @ S - Q)) <= 1e-12 * np.max(np.abs(Q))


def reflection_parity_classes(N):
    """Orthonormal bases of one circle's four classes: the even modes
    e_0, (e_q + e_{-q})/sqrt2 and the odd modes (e_q - e_{-q})/sqrt2 of the
    reflection q -> -q, each split by the parity of q >= 0."""
    e = np.eye(2 * N + 1)
    return [np.array([e[N] if q == 0 else (e[N + q] + sign * e[N - q]) / np.sqrt(2)
                      for q in range(parity, N + 1, 2) if q or sign == 1]
                     ).reshape(-1, 2 * N + 1).T
            for sign in (1, -1) for parity in (0, 1)]


@settings(max_examples=40, deadline=None)
@given(l=st.integers(0, 3), N=st.integers(0, 6), T=st.floats(0.5, 8.0),
       tau=st.complex_numbers(max_magnitude=3.0),
       taup=st.complex_numbers(max_magnitude=3.0))
@example(l=2, N=6, T=2.0, tau=0.3 + 0.5j, taup=-0.2 + 1j)
@example(l=3, N=5, T=1.0, tau=0.0, taup=0.0)
def test_sobolev_matrix_splits_into_sixteen_band_blocks(l, N, T, tau, taup):
    # in the (reflection, parity) classes of the two factors Q is
    # block-diagonal, and a block is a band of half bandwidth <= l n_j + l in
    # its Kronecker order (row i n_j + j): the band storage of sobolev_trace
    Q = sobolev_matrix(l, T, tau, taup, N).toarray()
    pairs = list(itertools.product(
        [P for P in reflection_parity_classes(N) if P.shape[1]], repeat=2))
    S = np.hstack([np.kron(Pi, Pj) for Pi, Pj in pairs])
    assert np.allclose(S.T @ S, np.eye(len(Q)), rtol=0.0, atol=1e-14)
    B = S.T @ Q @ S
    off = np.ones(B.shape, dtype=bool)
    lo = 0
    for Pi, Pj in pairs:
        hi = lo + Pi.shape[1] * Pj.shape[1]
        off[lo:hi, lo:hi] = False
        r, c = np.nonzero(B[lo:hi, lo:hi])
        assert np.max(np.abs(r - c), initial=0) <= l * Pj.shape[1] + l
        lo = hi
    assert np.max(np.abs(B[off]), initial=0.0) <= 1e-13 * np.max(np.abs(Q))


def dense_sobolev(l, T, tau, taup, N):
    """Q_{l,T} from its definition: every six-generator word, built densely."""
    eye = np.eye(2 * N + 1)
    ops = ([np.kron(X.toarray(), eye) for X in circle_generators(tau, N)]
           + [np.kron(eye, X.toarray()) for X in circle_generators(taup, N)])
    Q = np.zeros((len(eye) ** 2,) * 2, dtype=complex)
    for nu in itertools.product(range(l + 1), repeat=6):
        if sum(nu) <= l:
            word = np.eye(len(Q))
            for op, cnt in zip(ops, nu):
                word = word @ np.linalg.matrix_power(op, cnt)
            Q += T ** (2 * (l - sum(nu))) * (word.conj().T @ word)
    return Q


@settings(max_examples=25, deadline=None)
@given(l=st.integers(0, 3), N=st.integers(1, 4), T=st.floats(0.5, 8.0),
       tau=st.complex_numbers(max_magnitude=3.0),
       taup=st.complex_numbers(max_magnitude=3.0))
@example(l=0, N=3, T=2.5, tau=1j, taup=2j)
@example(l=1, N=3, T=2.5, tau=0.7, taup=-0.2)
@example(l=2, N=3, T=2.5, tau=0.0, taup=0.0)
@example(l=2, N=3, T=2.5, tau=0.5j, taup=1j)
@example(l=3, N=3, T=2.5, tau=0.3 + 2j, taup=-1j)
def test_sobolev_matrix_matches_word_definition(l, N, T, tau, taup):
    # the Kronecker factorization over one-circle word Grams gives the same Q
    # as the sum over the six-generator words
    ref = dense_sobolev(l, T, tau, taup, N)
    got = sobolev_matrix(l, T, tau, taup, N).toarray()
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf, 1e100])
def test_sobolev_rejects_non_finite_T(T):
    # at T = 1e100 the weight T^4 overflows
    with pytest.raises(NonFiniteError):
        sobolev_trace(2, T, 2j, (0.0, 0.0), 6, 4)
    with pytest.raises(NonFiniteError):
        sobolev_matrix(2, T, 0.0, 0.0, 3)


# ---------------------------------------------------------------------------
# relative traces
# ---------------------------------------------------------------------------

def random_pd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + n * np.eye(n)


def test_relative_trace_trivials(rng):
    n = 12
    q = random_pd(rng, n)
    assert abs(relative_trace(q, q) - n) < 1e-9 * n
    h = random_pd(rng, n)
    assert abs(relative_trace(h, np.eye(n)) - np.real(np.trace(h))) < 1e-9 * n
    a = 3.7
    assert abs(relative_trace(h, a * q) - relative_trace(h, q) / a) < 1e-9


def test_relative_trace_two_algorithms_agree(rng):
    # relative_trace cross-validates the Cholesky and eigenbasis routes to
    # 1e-10 on every call
    for _ in range(10):
        n = int(rng.integers(3, 24))
        relative_trace(random_pd(rng, n), random_pd(rng, n))


def test_relative_trace_rejects_indefinite(rng):
    n = 6
    h = random_pd(rng, n)
    bad = np.eye(n)
    bad[0, 0] = -1.0
    with pytest.raises(NotPositiveDefiniteError):
        relative_trace(h, bad)


def test_relative_trace_refuses_a_numerically_singular_form():
    # condition number 1e13: both factorizations succeed, but their traces
    # differ in the fifth digit (a builtin ArithmeticError before)
    u, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)))
    q = u @ np.diag([1.0, 1e-3, 1e-6, 1e-13]) @ u.T
    with pytest.raises(NotPositiveDefiniteError, match="numerically singular"):
        relative_trace(np.eye(4), (q + q.T) / 2)


def test_relative_trace_refuses_large_matrices():
    # 6562 rows would be 689 MB of complex entries; zero-stride views cost
    # nothing, so the refusal must come before any factorization
    big = np.broadcast_to(np.zeros((), dtype=complex), (6562, 6562))
    small = np.eye(3, dtype=complex)
    for h, q in ((big, big), (big, small), (small, big)):
        with pytest.raises(PreconditionError, match="6561 rows"):
            relative_trace(h, q)


@pytest.mark.parametrize("h, q", [(np.eye(3), np.eye(4)),
                                  (np.ones((3, 4)), np.eye(3)),
                                  (np.eye(3), np.ones((3, 4))),
                                  (np.ones(3), np.ones(3))])
def test_relative_trace_refuses_mismatched_shapes(h, q):
    with pytest.raises(PreconditionError, match="square matrices of one shape"):
        relative_trace(h, q)


# ---------------------------------------------------------------------------
# the induced Hermitian form
# ---------------------------------------------------------------------------

def test_induced_form_structure():
    lam, tau, taup = 2j, 0.0, 1j
    N, K = 6, 8
    H = induced_form(lam, tau, taup, N, K)
    assert np.max(np.abs(H - H.conj().T)) < 1e-12
    tr = float(np.real(np.trace(H)))
    assert np.min(sla.eigvalsh(H)) >= -1e-10 * max(tr, 1e-300)
    # the (0,0) diagonal entry is |closed form|^2: only the k = 0 output
    # mode pairs with the constant vector
    idx = (0 + N) * (2 * N + 1) + (0 + N)
    diag = float(np.real(H[idx, idx]))
    ref = spherical_square(tau, taup, lam)
    assert abs(diag - ref) <= 1e-5 * ref
    # share of the trace in the edge rows |k| = K: rows +-K add their
    # weight twice to tr H_K and nothing to tr H_{K-2}
    edge = tr - float(np.real(np.trace(induced_form(lam, tau, taup, N, K - 2))))
    assert edge / (2.0 * tr) < 0.2


def test_induced_form_refuses_large_truncations():
    # the dense form would hold (2N+1)^4 complex entries: 1.1 GB at N = 41
    with pytest.raises(PreconditionError, match="sobolev_trace"):
        induced_form(2j, 0.0, 0.0, 41, 4)


def test_induced_form_monotone_in_output_modes():
    lam, tau, taup = 1j, 0.0, 0.0
    traces = [float(np.real(np.trace(induced_form(lam, tau, taup, 4, K))))
              for K in (2, 4, 8)]
    assert traces[0] <= traces[1] <= traces[2]


def test_sobolev_trace_matches_dense_route():
    lam, tau, taup = 2j, 0.0, 0.0
    N, K, l, T = 6, 6, 2, 2.0
    H = induced_form(lam, tau, taup, N, K)
    Q = sobolev_matrix(l, T, tau, taup, N).toarray()
    dense = relative_trace(H, Q)
    fast = sobolev_trace(l, T, lam, (tau, taup), N, K)
    assert abs(dense - fast) <= 1e-8 * dense


@pytest.mark.parametrize("l", [0, 1, 2, 3])
@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_sobolev_trace_blocks_match_dense_route_at_small_truncations(N, l):
    # N = 0 leaves three classes per factor empty and N = 1, 2 give classes
    # of one mode; at K = 0 only row k = 0 exists, so the blocks of unequal
    # class parities meet no row and are skipped; complex tau and tau' give
    # Q complex entries
    lam, tau, taup, T = 2j, 0.3 + 0.5j, -0.2 + 1j, 2.0
    Q = sobolev_matrix(l, T, tau, taup, N).toarray()
    for K in (0, 4):
        dense = relative_trace(induced_form(lam, tau, taup, N, K), Q)
        fast = sobolev_trace(l, T, lam, (tau, taup), N, K)
        assert abs(dense - fast) <= 1e-8 * dense


def test_induced_form_is_gram_of_mode_rows():
    # the Gram matrix of rows built pair by pair through the public
    # spectral_mode_values, for every k of both signs, equals the induced
    # form's shared-series rows, whose rows k < 0 are mirrors of rows k > 0
    lam, tau, taup = 2j, 0.5j, 0.0
    for N, K in ((4, 2), (4, 8), (6, 8)):
        n1 = 2 * N + 1
        H = np.zeros((n1 * n1, n1 * n1), dtype=complex)
        for kp in range(-K // 2, K // 2 + 1):
            mps = range(max(-N, -kp - N), min(N, -kp + N) + 1)
            pairs = [(mp, -kp - mp) for mp in mps]
            row = np.zeros(n1 * n1, dtype=complex)
            for (mp, np_), v in zip(pairs, spectral_mode_values(pairs, tau, taup, lam)):
                row[(mp + N) * n1 + (np_ + N)] = v
            H += np.outer(np.conj(row), row)
        got = induced_form(lam, tau, taup, N, K)
        assert np.max(np.abs(got - H)) <= 1e-13 * np.max(np.abs(H))


@pytest.mark.parametrize("l, tau, taup", [(2, 0.5j, 1j), (3, 2j, -1j)])
def test_sobolev_trace_complex_hermitian_q(l, tau, taup):
    # these parameters give Q imaginary entries; the band Cholesky of the
    # complex Hermitian blocks must still match the dense Cholesky route
    lam, N, K, T = 2j, 6, 6, 2.0
    Q = sobolev_matrix(l, T, tau, taup, N).toarray()
    assert np.max(np.abs(Q.imag)) > 0.0
    dense = relative_trace(induced_form(lam, tau, taup, N, K), Q)
    fast = sobolev_trace(l, T, lam, (tau, taup), N, K)
    assert abs(dense - fast) <= 1e-8 * dense


@pytest.mark.parametrize("tau, taup, real", [
    (0.0, 0.0, True), (0.3, -0.2, True), (0.3, 0.5j, False)])
def test_sobolev_trace_real_and_mixed_blocks_match_dense_route(tau, taup, real):
    # at real tau and tau' every class Gram is real and the blocks factor in
    # real arithmetic; at (0.3, 0.5i) the tau' factor's Grams are complex,
    # so every block is complex.  The class Grams and block maps come from
    # the caches, filled at another T, and are weighted by this T
    lam, l, T, N, K = 2j, 2, 2.0, 6, 6
    for cache in CACHES:
        cache.cache_clear()
    sobolev_trace(l, 3.0, lam, (tau, taup), N, K)
    Q = sobolev_matrix(l, T, tau, taup, N).toarray()
    assert (not np.any(Q.imag)) == real
    dense = relative_trace(induced_form(lam, tau, taup, N, K), Q)
    fast = sobolev_trace(l, T, lam, (tau, taup), N, K)
    assert all(cache.cache_info().hits == 1 for cache in CACHES)
    assert abs(dense - fast) <= 1e-12 * dense


@pytest.mark.parametrize("params", [(0.0, 0.0), (0.3 + 1j, 0.3 + 1j), (0.3, 0.5j)])
def test_sobolev_trace_is_the_same_from_cold_and_warm_caches(params):
    # every rung of a T-ladder equals, bit for bit, the same call made with
    # empty caches, whichever way the ladder runs
    def cold(T):
        for cache in CACHES:
            cache.cache_clear()
        return sobolev_trace(2, T, 1j * T, params, 8, 8)

    ladder = (2.0, 4.0, 8.0)
    alone = [cold(T) for T in ladder]
    up = [sobolev_trace(2, T, 1j * T, params, 8, 8) for T in ladder]
    down = [sobolev_trace(2, T, 1j * T, params, 8, 8) for T in ladder[::-1]]
    assert up == alone and down[::-1] == alone
    assert all(cache.cache_info().hits == 6 for cache in CACHES)


def test_sobolev_trace_reuses_the_class_grams_along_a_growing_window():
    # demos/sobolev_floor.py widens the window with T (K = 4T): the block
    # maps differ per rung, the class Grams of one truncation are shared
    for cache in CACHES:
        cache.cache_clear()
    for T in (2.0, 4.0, 8.0):
        sobolev_trace(2, T, 1j * T, (0.0, 0.0), 8, int(4 * T))
    grams, maps = (cache.cache_info() for cache in CACHES)
    assert (grams.hits, grams.misses) == (2, 1)
    assert (maps.hits, maps.misses) == (0, 3)


def test_cached_structures_are_read_only():
    # at tau != tau' and N = 4: four classes with three word Grams of each
    # factor, the computed pairs, and sixteen blocks of four arrays each
    sobolev_trace(2, 2.0, 2j, (0.3, 0.5j), 4, 4)
    classes = specdecomp._class_grams(2, 0.3 + 0j, 0.5j, 4)
    pairs, blocks = specdecomp._block_maps(4, 4, False)
    arrays = [M for c in classes for grams in c[1:] for M, _band in grams]
    arrays += [pairs] + [a for b in blocks for a in b[2:]]
    assert len(arrays) == 4 * 2 * 3 + 1 + 16 * 4
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


@pytest.mark.parametrize("bad, error", [
    ({"tau": np.nan}, NonFiniteError), ({"tau": complex(np.inf, 1.0)}, NonFiniteError),
    ({"tau_prime": np.inf}, NonFiniteError),
    ({"tau_prime": complex(0.0, np.nan)}, NonFiniteError),
    ({"lam": complex(0.0, np.nan)}, NonFiniteError), ({"lam": np.inf}, NonFiniteError),
    ({"T": 1e100}, NonFiniteError), ({"l": -1}, PreconditionError),
    ({"N": -1}, PreconditionError), ({"K": -2}, PreconditionError),
    ({"K": 3}, PreconditionError)])
def test_bad_inputs_are_refused_before_a_cache_is_read(bad, error):
    # no lookup, hit or miss, and no entry: the cache statistics stay as
    # they were
    a = {"l": 2, "T": 2.0, "lam": 2j, "tau": 0.0, "tau_prime": 0.0, "N": 5, "K": 4,
         **bad}
    before = [cache.cache_info() for cache in CACHES]
    with pytest.raises(error):
        sobolev_trace(a["l"], a["T"], a["lam"], (a["tau"], a["tau_prime"]), a["N"],
                      a["K"])
    assert [cache.cache_info() for cache in CACHES] == before


@pytest.mark.parametrize("tau", [0.0, 0.3 + 1j])
def test_mode_rows_are_exchange_symmetric_at_equal_factor_parameters(tau):
    # at l1 = l2 the element of (m', n') equals that of (n', m'): each
    # antidiagonal's first half m' <= n', reversed, gives its second half,
    # the shortcut sobolev_trace takes at tau = tau'; the rounding of each
    # convolution is relative to the largest element, not to its own row's
    N, lam = 16, 8j
    rows = [np.stack([mps, -kp - mps], axis=1)
            for kp in range(2 * N + 1) for mps in [np.arange(-N, N - kp + 1)]]
    halves = [p[:(len(p) + 1) // 2] for p in rows]
    full = spectral_mode_values(np.concatenate(rows), tau, tau, lam)
    half = np.split(spectral_mode_values(np.concatenate(halves), tau, tau, lam),
                    np.cumsum([len(h) for h in halves])[:-1])
    mirrored = np.concatenate([np.concatenate([h, h[:len(p) - len(h)][::-1]])
                               for p, h in zip(rows, half)])
    assert np.max(np.abs(mirrored - full)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("N", [5, 6])
@pytest.mark.parametrize("tau", [0.0, 1j, 0.3 + 1j])
def test_sobolev_trace_exchange_path_matches_dense_route(tau, N):
    # at tau = tau' sobolev_trace factors the ten blocks i <= j and computes
    # half of each row; at N = 5 and 6 the classes have unequal sizes, so
    # the smaller-class-inner orientation is taken; the induced form builds
    # its rows in full
    lam, l, T, K = 2j, 2, 2.0, 6
    Q = sobolev_matrix(l, T, tau, tau, N).toarray()
    dense = relative_trace(induced_form(lam, tau, tau, N, K), Q)
    fast = sobolev_trace(l, T, lam, (tau, tau), N, K)
    assert abs(dense - fast) <= 1e-12 * dense


@pytest.mark.slow
def test_sobolev_trace_at_the_largest_joint_doubling():
    # the (N, K) = (256, 512) rung of the T = 32 joint doubling ladder
    # (6.8-7.1 s as pytest reports it and 234 MiB peak resident with one
    # BLAS thread on two cores); the reference value is the one a sparse LU
    # of the four reflection blocks gave
    T = 32.0
    rho = sobolev_trace(2, T, 32j, (0.0, 0.0), 256, 512)
    assert abs(rho * T ** 4 / 0.2179467678624868 - 1.0) <= 1e-12


# sobolev_trace_estimate's bar: four times the change of one joint doubling
DOUBLING_SAFETY = 4.0


def test_sobolev_trace_estimate_is_one_joint_doubling():
    args = (2, 2.0, 2j, (0.0, 0.0))
    est = sobolev_trace_estimate(*args, 6, 4)
    coarse, fine = sobolev_trace(*args, 6, 4), sobolev_trace(*args, 12, 8)
    assert est.value == fine
    assert est.error_bound == DOUBLING_SAFETY * abs(fine - coarse)
    assert est.cost == 13 ** 2 + 25 ** 2
    assert est.method == "sobolev_trace/level1"


def test_sobolev_trace_estimate_raises_with_the_stalled_estimate():
    # at (N, K) = (2, 2), T = 2 the joint doubling moves rho by 11%
    args = (2, 2.0, 2j, (0.0, 0.0))
    coarse, fine = sobolev_trace(*args, 2, 2), sobolev_trace(*args, 4, 4)
    assert 0.10 < abs(fine - coarse) / fine < 0.12
    with pytest.raises(NonConvergentError) as info:
        sobolev_trace_estimate(*args, 2, 2)
    assert info.value.estimate == Estimate(
        value=fine, error_bound=DOUBLING_SAFETY * abs(fine - coarse),
        method="sobolev_trace/stalled", cost=5 ** 2 + 9 ** 2)


def test_sobolev_trace_estimate_covers_the_largest_joint_doubling():
    # from (64, 128) at T = 32 the bar covers the (256, 512) value that
    # test_sobolev_trace_at_the_largest_joint_doubling pins (about 1.4 s)
    T = 32.0
    est = sobolev_trace_estimate(2, T, 32j, (0.0, 0.0), 64, 128)
    assert abs(0.2179467678624868 * T ** -4 - est.value) <= est.error_bound
    assert est.error_bound <= 0.05 * est.value


@pytest.mark.parametrize("params", [(0.0, 0.0), (0.5j, -1j), (0.3 + 0.2j, 0.1)])
def test_sobolev_trace_nondecreasing_in_output_modes(params):
    # H only gains positive semidefinite rows as K_modes grows
    rhos = [sobolev_trace(2, 2.0, 2j, params, 4, K) for K in (0, 2, 4, 8, 16)]
    assert all(a <= b for a, b in zip(rhos, rhos[1:]))


def test_sobolev_trace_monotone_in_T():
    args = (2, (0.0, 0.0), 12, 8)
    a = sobolev_trace(args[0], 2.0, 2j, args[1], args[2], args[3])
    b = sobolev_trace(args[0], 4.0, 2j, args[1], args[2], args[3])
    assert 0 < b < a


def test_sobolev_trace_l_scaling():
    # rho_{l+1} / rho_l tracks T^-2: compare the ratio at T and 2T
    params, N, K = (0.0, 0.0), 12, 8
    def q(T):
        r2 = sobolev_trace(2, T, 1j * T, params, N, K)
        r3 = sobolev_trace(3, T, 1j * T, params, N, K)
        return r3 / r2
    drop = q(4.0) / q(2.0)
    assert 0.125 <= drop <= 0.5      # T^-2 drop of 1/4, within a factor 2


def test_sobolev_trace_allows_l0_refuses_negative_l():
    # Q_{0,T} is the identity, so the relative trace is the plain trace
    rho = sobolev_trace(0, 2.0, 2j, (0.0, 0.0), 6, 4)
    tr = float(np.real(np.trace(induced_form(2j, 0.0, 0.0, 6, 4))))
    assert abs(rho - tr) <= 1e-12 * tr
    with pytest.raises(PreconditionError):
        sobolev_trace(-1, 2.0, 2j, (0.0, 0.0), 6, 4)


@pytest.mark.parametrize("call, name", [
    (lambda: sobolev_trace(2, 2.0, 2j, (0.0, 0.0), -1, 4), "N"),
    (lambda: sobolev_trace(2, 2.0, 2j, (0.0, 0.0), 4, -2), "K_modes"),
    (lambda: induced_form(2j, 0.0, 0.0, 4, -2), "K_modes"),
    (lambda: induced_form(2j, 0.0, 0.0, -1, 4), "N"),
    (lambda: sobolev_matrix(2, 2.0, 0.0, 0.0, -1), "N")],
    ids=["trace_N", "trace_K", "induced_K", "induced_N", "sobolev_N"])
def test_negative_truncations_are_refused(call, name):
    with pytest.raises(PreconditionError, match=f"need {name} >= 0"):
        call()


@pytest.mark.parametrize("call", [
    lambda: sobolev_trace(2, 2.0, 2j, (0.0, 0.0), 4, 3),
    lambda: induced_form(2j, 0.0, 0.0, 4, 3)], ids=["trace", "induced"])
def test_odd_output_modes_are_refused(call):
    # output frequencies are even, so an odd K_modes names no mode row
    with pytest.raises(PreconditionError, match="K_modes must be even"):
        call()


# ---------------------------------------------------------------------------
# bump vectors
# ---------------------------------------------------------------------------

def test_bump_mass_and_norm():
    # the analytic mass and squared norm against an independent polar
    # quadrature of the evaluator: adaptive Gauss-Kronrod in the radius of
    # the support disc, a 16-point trapezoid in the angle; the bump is
    # pi-periodic in each angle, so [0, 2pi)^2 holds four copies of the disc
    for T in (1.0, 8.0):
        u = bump_vector(T)
        x0, y0 = u.center
        phi = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)

        def ring(rho, k):
            vals = u.evaluate(x0 + rho * np.cos(phi), y0 + rho * np.sin(phi))
            return 2 * np.pi * rho * np.mean(vals ** k)

        mass, norm_sq = (4 * integrate.quad(ring, 0.0, u.support_radius, args=(k,),
                                            epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for k in (1, 2))
        assert u.mass == 1.0 and abs(mass - 1.0) <= 1e-12
        assert abs(norm_sq - u.norm_sq_plain) <= 1e-12 * u.norm_sq_plain
        assert u.norm_sq_plain <= 1e5 * T * T
        peak = u.evaluate(x0, y0)
        assert abs(u.evaluate(x0 + np.pi, y0 - np.pi) - peak) <= 1e-9 * peak


def test_bump_support():
    u = bump_vector(1.0)
    r = u.support_radius
    x0, y0 = u.center
    peak = float(u.evaluate(np.array([x0]), np.array([y0]))[0])
    phis = np.linspace(0.0, 2 * np.pi, 13)
    for radius in (1.01 * r, 1.1 * r, 3.0 * r):
        xs = x0 + radius * np.cos(phis)
        ys = y0 + radius * np.sin(phis)
        vals = np.abs(u.evaluate(xs, ys))
        assert np.max(vals) <= 1e-8 * peak
    # inside the disc the bump is strictly positive
    assert float(u.evaluate(np.array([x0 + 0.5 * r]), np.array([y0]))[0]) > 0


def test_bump_preconditions():
    with pytest.raises(PreconditionError):
        bump_vector(0.5)


def test_bump_refuses_nan_scale():
    # every comparison with NaN is False, so T = nan passed the guards and
    # gave a NaN radius and norm under a mass of 1
    with pytest.raises(NonFiniteError):
        bump_vector(float("nan"))


# ---------------------------------------------------------------------------
# kernel pairings
# ---------------------------------------------------------------------------

def test_identity_pairing_exceeds_half():
    T = 4.0
    params = (0.0, 0.0, 2j * T)
    res = kernel_bump_pairing(np.eye(2), np.eye(2), params, bump_vector(T))
    assert res.value >= 0.5
    # Hoelder: the pairing cannot exceed the sup of the transformed kernel
    assert res.value <= res.sup_abs * (1.0 + 1e-6) + res.error
    # gradient of the transformed kernel stays O(T) on the support disc
    assert res.grad_max <= 3.0 * T * 1.1


def test_pairing_search_probes(rng):
    T = 4.0
    params = (0.0, 0.0, 2j * T)
    results = pairing_search(bump_vector(T), params, n_random=4, seed=3)
    assert len(results) == 5
    best = max(r.value for _, _, r in results)
    assert best >= 0.5
    for g1, g2, r in results:
        assert r.value <= r.sup_abs * (1.0 + 1e-6) + r.error


def test_pairing_search_equals_one_pairing_per_probe():
    # the search evaluates the bump once; each result must equal the
    # pairing that evaluates it itself, bit for bit
    bump = bump_vector(4.0)
    params = (0.0, 0.0, 8j)
    for g1, g2, r in pairing_search(bump, params, n_random=3, seed=5):
        assert r == kernel_bump_pairing(g1, g2, params, bump)


# ---------------------------------------------------------------------------
# averaged-pairing lower bound
# ---------------------------------------------------------------------------

def test_weighted_mean_bound_constant():
    u = np.full(50, 1.0 / 50.0)
    h = np.ones(50, dtype=complex)
    assert abs(weighted_mean_bound(u, h) - 1.0) < 1e-12


def test_weighted_mean_bound_worst_case():
    # h ranging over [1/2, 1]: sup = 1, variation = 1/2
    h = np.linspace(0.5, 1.0, 64).astype(complex)
    u = np.full(64, 1.0 / 64.0)
    assert weighted_mean_bound(u, h) >= 0.5 - 1e-12


def test_weighted_mean_bound_randomized(rng):
    for _ in range(100):
        n = int(rng.integers(4, 200))
        nu = rng.uniform(0.1, 2.0, n)
        u = rng.uniform(0.0, 1.0, n)
        u /= np.sum(u * nu)
        h0 = (1.0 + rng.uniform(0.0, 0.3)) * np.exp(2j * np.pi * rng.uniform())
        delta = rng.uniform(0.0, 0.25, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        delta[int(rng.integers(0, n))] = 0.0
        h = h0 + delta
        assert weighted_mean_bound(u, h, nu) >= 0.5 - 1e-6


def test_weighted_mean_bound_rejects_bad_hypotheses():
    u = np.full(10, 0.1)
    with pytest.raises(PreconditionError):
        weighted_mean_bound(u, 0.5 * np.ones(10))          # sup < 1
    with pytest.raises(PreconditionError):
        weighted_mean_bound(u, np.linspace(1.0, 2.0, 10))  # variation > 1/2
    with pytest.raises(PreconditionError):
        weighted_mean_bound(2 * u, np.ones(10))            # mass != 1


@pytest.mark.parametrize("u, h, weights", [
    (np.full(4, 0.25), np.ones(3), None), (np.full(4, 0.25), np.ones(4), np.ones(3)),
    (np.full((2, 2), 0.25), np.ones((2, 2)), None)])
def test_weighted_mean_bound_refuses_mismatched_shapes(u, h, weights):
    # a length mismatch raised numpy's broadcast ValueError
    with pytest.raises(PreconditionError, match="1-D arrays of one length"):
        weighted_mean_bound(u, h, weights)


@pytest.mark.parametrize("arg", ["u", "h", "weights"])
def test_weighted_mean_bound_refuses_nan(arg):
    # NaN fails no hypothesis comparison, so a NaN entry came back as nan
    data = {"u": np.full(8, 0.125), "h": np.ones(8, dtype=complex),
            "weights": np.ones(8)}
    data[arg][0] = np.nan
    with pytest.raises(NonFiniteError, match=arg):
        weighted_mean_bound(**data)


def test_weighted_mean_bound_memory_is_bounded():
    # the variation scan held all n^2 complex differences at once, about
    # 384 MB of temporaries at n = 4000
    n = 4000
    u = np.full(n, 1.0 / n)
    h = 1.0 + 0.25 * np.exp(2j * np.pi * np.arange(n) / n)
    tracemalloc.start()
    try:
        value = weighted_mean_bound(u, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - 1.0) < 1e-12
    assert peak < 16 * 2 ** 20
