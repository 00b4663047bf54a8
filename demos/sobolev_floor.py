"""Relative traces of induced forms against Sobolev forms.

The trilinear functional induces a nonnegative Hermitian form H on the
(truncated) tensor product of two circle models: the Gram matrix of its mode
elements over a window of output modes.  Testing H against the Sobolev form

    Q_{l,T}(v) = sum_{|nu| <= l} T^(2(l - |nu|)) ||X^nu v||^2

(generator words of the product Lie algebra) yields the relative trace
rho = tr(H | Q_{l,T}).  For lam on the tempered line with |lam| <= 2T the
product rho * T^(2l) stays bounded away from zero -- the spectral lower
bound that powers mean-value estimates.  The floor constant is reported, not
asserted a priori.

The output-mode window grows with T (K = 4T): the functional's Gram weight
spreads over output modes |k| up to a multiple of |lam| = T, and a fixed
window would cut the larger T short.  Each row also reports how much rho
moves when K is doubled and when N is doubled, as
`triform sobolev-trace --check-doubling` does.  The fitted slope of log rho
against log T is the exponent of the law rho ~ T^(-2l).
"""

import time

import numpy as np

from triform import sobolev_trace

N = 64
ladder = (2.0, 4.0, 8.0, 16.0, 32.0)
params = (0.0, 0.0)

print(f"truncation N = {N}, output-mode window K = 4T, lam = iT")
for l in (2, 3):
    print(f"\nl = {l}")
    print(f"{'T':>4s} {'K':>4s} {'rho':>14s} {'rho * T^(2l)':>14s} "
          f"{'K-doubling change':>18s} {'N-doubling change':>18s}")
    rhos = []
    for T in ladder:
        t0 = time.time()
        K = int(4 * T)
        rho = sobolev_trace(l, T, 1j * T, params, N, K)
        rho_k = sobolev_trace(l, T, 1j * T, params, N, 2 * K)
        rho_n = sobolev_trace(l, T, 1j * T, params, 2 * N, K)
        rhos.append(rho)
        print(f"{T:4.0f} {K:4d} {rho:14.6g} {rho * T ** (2 * l):14.6g} "
              f"{abs(rho_k - rho) / rho:18.2e} {abs(rho_n - rho) / rho:18.2e}"
              f"   ({time.time() - t0:.1f}s)")
    slope = np.polyfit(np.log(ladder), np.log(rhos), 1)[0]
    print(f"fitted log-log slope of rho against T: {slope:.3f} "
          f"(the floor law predicts {-2 * l})")

print("\nthe scaled trace sits on a positive plateau across the sweep and its")
print("slope is close to -2l; where the N-doubling change outgrows the")
print("K-doubling change, the truncation N is what limits rho.")
