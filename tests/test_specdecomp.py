"""Group action, Lie generators, Sobolev forms, traces, bumps, pairings."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from triform import (CircleFunction, HermitianForm, InsufficientTruncationError,
                     NonFiniteError, NotPositiveDefiniteError,
                     PreconditionError, TruncationOverflowError, bump_vector,
                     circle_generators, group_action, group_norm,
                     induced_form, kernel_bump_pairing, pairing_search,
                     random_sl2, relative_trace, sobolev_form, sobolev_matrix,
                     sobolev_trace, spectral_mode_values, spherical_square,
                     weighted_mean_bound)
from triform.specdecomp import product_generators

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
        assert group_norm(g) <= 2.0 + 1e-12
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
    expected = T ** 2
    for op in product_generators(tau, taup, N):
        expected += np.linalg.norm((op @ e00)) ** 2
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
    # check=True cross-validates the Cholesky and eigenbasis routes to 1e-10
    for _ in range(10):
        n = int(rng.integers(3, 24))
        relative_trace(random_pd(rng, n), random_pd(rng, n), check=True)


def test_relative_trace_rejects_indefinite(rng):
    n = 6
    h = random_pd(rng, n)
    bad = np.eye(n)
    bad[0, 0] = -1.0
    with pytest.raises(NotPositiveDefiniteError):
        relative_trace(h, bad)


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


def test_induced_form_is_gram_of_mode_rows():
    # the Gram matrix of rows built pair by pair through the public
    # spectral_mode_values equals the induced form's shared-series rows
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
    # these parameters give Q imaginary entries; the unpivoted sparse factor
    # must still match the dense Cholesky route
    lam, N, K, T = 2j, 6, 6, 2.0
    Q = sobolev_form(l, T, (tau, taup), N)
    assert np.max(np.abs(Q.matrix.imag)) > 0.0
    dense = relative_trace(induced_form(lam, tau, taup, N, K), Q)
    fast = sobolev_trace(l, T, lam, (tau, taup), N, K)
    assert abs(dense - fast) <= 1e-8 * dense


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


def test_sobolev_trace_requires_l2():
    with pytest.raises(PreconditionError):
        sobolev_trace(1, 2.0, 2j, (0.0, 0.0), 6, 4)


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
    res = kernel_bump_pairing(np.eye(2), np.eye(2), 0.0, T, params, N=1600)
    assert res.value >= 0.5
    # Hoelder: the pairing cannot exceed the sup of the transformed kernel
    assert res.value <= res.sup_abs * (1.0 + 1e-6) + res.error
    # gradient of the transformed kernel stays O(T) on the support disc
    assert res.grad_max <= 3.0 * T * 1.1


def test_pairing_search_probes(rng):
    T = 4.0
    params = (0.0, 0.0, 2j * T)
    results = pairing_search(T, params, N=1600, n_random=4, seed=3)
    assert len(results) == 5
    best = max(r.value for _, _, r in results)
    assert best >= 0.5
    for g1, g2, r in results:
        assert r.value <= r.sup_abs * (1.0 + 1e-6) + r.error


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
