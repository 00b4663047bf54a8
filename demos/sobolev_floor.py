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
window would cut the larger T short.  Each rho comes from
`sobolev_trace_estimate`, as `triform sobolev-trace --check-doubling` does:
the value at (2N, 2K), with an error bar of 4 times the change one joint
doubling of (N, K) makes.  The slope of log rho against log T, fitted with
weights rho / bar, is the exponent of the law rho ~ T^(-2l).
"""

import time

import numpy as np

from triform import sobolev_trace_estimate

N = 64
ladder = (2.0, 4.0, 8.0, 16.0, 32.0)
params = (0.0, 0.0)

# T outside and l inside: both l at one T share the (N, K) block maps
results = {}
for T in ladder:
    for l in (2, 3):
        t0 = time.time()
        results[l, T] = (sobolev_trace_estimate(l, T, 1j * T, params, N, int(4 * T)),
                         time.time() - t0)

print(f"truncation (N, K) = ({N}, 4T) doubled once to ({2 * N}, 8T), lam = iT")
for l in (2, 3):
    print(f"\nl = {l}")
    print(f"{'T':>4s} {'K':>4s} {'rho':>14s} {'rho * T^(2l)':>14s} "
          f"{'+- bar':>10s} {'bar / rho':>10s}")
    rhos = np.array([results[l, T][0].value for T in ladder])
    bars = np.array([results[l, T][0].error_bound for T in ladder])
    for T, rho, bar in zip(ladder, rhos, bars):
        scale = T ** (2 * l)
        print(f"{T:4.0f} {int(4 * T):4d} {rho:14.6g} {rho * scale:14.6g} "
              f"{bar * scale:10.2e} {bar / rho:10.2e}"
              f"   ({results[l, T][1]:.1f}s)")
    slope = np.polyfit(np.log(ladder), np.log(rhos), 1, w=rhos / bars)[0]
    print(f"log-log slope of rho against T, weighted by rho / bar: {slope:.3f} "
          f"(the floor law predicts {-2 * l})")

print("\nthe scaled trace sits on a positive plateau across the sweep and its")
print("slope is close to -2l; each bar is 4 times the change one joint (N, K)")
print("doubling makes, and the fit counts most the rungs it moved least.")
