"""Group action, Lie generators, Sobolev forms, traces, bumps, pairings."""

import itertools

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triform import (CircleFunction, HermitianForm, InsufficientTruncationError,
                     NonFiniteError, NotPositiveDefiniteError,
                     PreconditionError, TruncationOverflowError, bump_vector,
                     circle_generators, group_action, induced_form,
                     kernel_bump_pairing, pairing_search,
                     random_sl2, relative_trace, sobolev_form, sobolev_matrix,
                     sobolev_trace, spectral_mode_values, spherical_square,
                     transformed_kernel_values, weighted_mean_bound)

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
    f = CircleFunction.constant(1.0, max_mode=64)
    g = np.diag([2.0, 0.5])
    out = group_action(g, 1j, f)
    assert abs(out.l2_norm() - 1.0) <= np.sqrt(out.tail_energy) + 1e-10


def test_action_unitarity_random(rng):
    for _ in range(20):
        f = random_circle_function(rng, 64, decay=0.35)
        g = random_sl2(rng, max_norm=2.0)
        assert np.linalg.norm(g, 2) <= 2.0 + 1e-12
        out = group_action(g, 2.3j, f)
        n0, n1 = f.l2_norm(), out.l2_norm()
        assert abs(n1 ** 2 - n0 ** 2) <= out.tail_energy + 1e-9 * n0 ** 2


def test_diagnostics_are_declared_fields():
    # set through the constructors, never attached to an instance afterwards
    assert CircleFunction.constant(1.0).tail_energy is None
    out = group_action(np.diag([2.0, 0.5]), 1j, CircleFunction.constant(1.0, 16))
    assert "tail_energy" in out.__dataclass_fields__ and out.tail_energy >= 0.0
    assert "k_tail_fraction" in HermitianForm.__dataclass_fields__
    assert HermitianForm(np.eye(2), 0).k_tail_fraction is None
    u = bump_vector(1.0, 400)
    for name in ("support_radius", "center", "norm_sq_plain", "mass"):
        assert name in u.__dataclass_fields__ and getattr(u, name) is not None


def test_action_truncation_overflow():
    f = CircleFunction(np.full(17, 1.0, dtype=complex), 8)
    with pytest.raises(TruncationOverflowError):
        group_action(np.diag([4.0, 0.25]), 1j, f)


@pytest.mark.parametrize("g", [np.zeros((2, 2)), np.array([[1.0, 2.0], [0.5, 1.0]])])
def test_singular_group_element_is_a_precondition_error(g):
    with pytest.raises(PreconditionError, match="invertible"):
        group_action(g, 1j, CircleFunction.constant(1.0, 4))
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
    q = sobolev_form(0, 3.0, (0.0, 0.0), 4)
    assert np.max(np.abs(q.matrix - np.eye(81))) < 1e-14


def test_sobolev_l1_on_constant_vector():
    N, T = 4, 2.5
    tau, taup = 1j, 2j
    q = sobolev_form(1, T, (tau, taup), N)
    e00 = np.zeros((2 * N + 1) ** 2, dtype=complex)
    e00[(0 + N) * (2 * N + 1) + (0 + N)] = 1.0
    # each of the six generators acts on one factor of e00 = e0 (x) e0 and
    # the other factor has unit norm
    e0 = np.zeros(2 * N + 1, dtype=complex)
    e0[N] = 1.0
    expected = T ** 2
    for op in circle_generators(tau, N) + circle_generators(taup, N):
        expected += np.linalg.norm((op @ e0)) ** 2
    got = float(np.real(np.conj(e00) @ (q.matrix @ e00)))
    assert abs(got - expected) < 1e-10 * expected


def test_sobolev_monotone_in_T(rng):
    N = 3
    qa = sobolev_form(2, 1.5, (0.0, 1j), N).matrix
    qb = sobolev_form(2, 3.0, (0.0, 1j), N).matrix
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
    assert H.hermiticity_defect() < 1e-12
    assert H.is_psd()
    # the (0,0) diagonal entry is |closed form|^2: only the k = 0 output
    # mode pairs with the constant vector
    idx = (0 + N) * (2 * N + 1) + (0 + N)
    diag = float(np.real(H.matrix[idx, idx]))
    ref = spherical_square(tau, taup, lam)
    assert abs(diag - ref) <= 1e-5 * ref
    assert H.k_tail_fraction < 0.2


def test_induced_form_refuses_large_truncations():
    # the dense form would hold (2N+1)^4 complex entries: 1.1 GB at N = 41
    with pytest.raises(PreconditionError, match="sobolev_trace"):
        induced_form(2j, 0.0, 0.0, 41, 4)


def test_induced_form_monotone_in_output_modes():
    lam, tau, taup = 1j, 0.0, 0.0
    traces = [float(np.real(np.trace(induced_form(lam, tau, taup, 4, K).matrix)))
              for K in (2, 4, 8)]
    assert traces[0] <= traces[1] <= traces[2]


def test_sobolev_trace_matches_dense_route():
    lam, tau, taup = 2j, 0.0, 0.0
    N, K, l, T = 6, 6, 2, 2.0
    H = induced_form(lam, tau, taup, N, K)
    Q = sobolev_form(l, T, (tau, taup), N)
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
    Q = sobolev_form(l, T, (tau, taup), N)
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
        got = induced_form(lam, tau, taup, N, K).matrix
        assert np.max(np.abs(got - H)) <= 1e-13 * np.max(np.abs(H))


@pytest.mark.parametrize("l, tau, taup", [(2, 0.5j, 1j), (3, 2j, -1j)])
def test_sobolev_trace_complex_hermitian_q(l, tau, taup):
    # these parameters give Q imaginary entries; the band Cholesky of the
    # complex Hermitian blocks must still match the dense Cholesky route
    lam, N, K, T = 2j, 6, 6, 2.0
    Q = sobolev_form(l, T, (tau, taup), N)
    assert np.max(np.abs(Q.matrix.imag)) > 0.0
    dense = relative_trace(induced_form(lam, tau, taup, N, K), Q)
    fast = sobolev_trace(l, T, lam, (tau, taup), N, K)
    assert abs(dense - fast) <= 1e-8 * dense


@pytest.mark.slow
def test_sobolev_trace_at_the_largest_joint_doubling():
    # the (N, K) = (256, 512) rung of the T = 32 joint doubling ladder (about
    # 25 s and 260 MiB peak with one BLAS thread); the reference value is the
    # one a sparse LU of the four reflection blocks gave
    T = 32.0
    rho = sobolev_trace(2, T, 32j, (0.0, 0.0), 256, 512)
    assert abs(rho * T ** 4 / 0.2179467678624868 - 1.0) <= 1e-12


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
    tr = float(np.real(np.trace(induced_form(2j, 0.0, 0.0, 6, 4).matrix)))
    assert abs(rho - tr) <= 1e-12 * tr
    with pytest.raises(PreconditionError):
        sobolev_trace(-1, 2.0, 2j, (0.0, 0.0), 6, 4)


@pytest.mark.parametrize("call, name", [
    (lambda: sobolev_trace(2, 2.0, 2j, (0.0, 0.0), -1, 4), "N"),
    (lambda: sobolev_trace(2, 2.0, 2j, (0.0, 0.0), 4, -2), "K_modes"),
    (lambda: induced_form(2j, 0.0, 0.0, 4, -2), "K_modes"),
    (lambda: induced_form(2j, 0.0, 0.0, -1, 4), "N"),
    (lambda: sobolev_form(2, 2.0, (0.0, 0.0), -1), "N")],
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


def test_sobolev_form_refuses_large_truncations():
    # (2N+1)^4 complex entries: 26 GB at N = 100, 1.1 GB at N = 41
    with pytest.raises(PreconditionError, match="sobolev_trace"):
        sobolev_form(2, 2.0, (0.0, 0.0), 41)


# ---------------------------------------------------------------------------
# bump vectors
# ---------------------------------------------------------------------------

def test_bump_mass_and_norm():
    u = bump_vector(1.0, 512)
    # truncation never touches the zero mode, so the series mass must match
    # the construction's exact unit mass
    assert abs(u.series_mass() - 1.0) <= 1e-8
    assert u.norm_sq_plain <= 1e5
    # Parseval over the truncated band is a lower bound on the exact norm
    series_norm_sq = (2 * np.pi) ** 2 * u.l2_norm() ** 2
    assert series_norm_sq <= u.norm_sq_plain * (1.0 + 1e-10)
    # and the truncation carries nearly all of the energy
    assert series_norm_sq >= 0.95 * u.norm_sq_plain


def test_bump_support():
    u = bump_vector(1.0, 512)
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
    with pytest.raises(InsufficientTruncationError):
        bump_vector(2.0, 512)
    with pytest.raises(PreconditionError):
        bump_vector(0.5, 512)


# ---------------------------------------------------------------------------
# kernel pairings
# ---------------------------------------------------------------------------

def test_identity_pairing_exceeds_half():
    T = 4.0
    params = (0.0, 0.0, 2j * T)
    res = kernel_bump_pairing(np.eye(2), np.eye(2), params, bump_vector(T, 1600))
    assert res.value >= 0.5
    # Hoelder: the pairing cannot exceed the sup of the transformed kernel
    assert res.value <= res.sup_abs * (1.0 + 1e-6) + res.error
    # gradient of the transformed kernel stays O(T) on the support disc
    assert res.grad_max <= 3.0 * T * 1.1


def test_pairing_search_probes(rng):
    T = 4.0
    params = (0.0, 0.0, 2j * T)
    results = pairing_search(bump_vector(T, 1600), params, n_random=4, seed=3)
    assert len(results) == 5
    best = max(r.value for _, _, r in results)
    assert best >= 0.5
    for g1, g2, r in results:
        assert r.value <= r.sup_abs * (1.0 + 1e-6) + r.error


def test_pairing_search_equals_one_pairing_per_probe():
    # the search evaluates the bump once; each result must equal the
    # pairing that evaluates it itself, bit for bit
    bump = bump_vector(4.0, 1600)
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
