"""The four benchmark workloads.

Each workload builds its inputs from the seed, warms up, and runs passes.  An
untraced pass is what a user runs (the ``triform`` CLI where one exists); a
traced pass rebuilds the same computation from public calls, with a span
around each call.  Every pass checks its outputs against the gates below and
counts one operation per triple, quadrature evaluation, T-rung or identity.
An untraced pass times each operation on an ``OpClock``, in the same order in
every pass, so a run can keep each operation's fastest time.
"""

import contextlib
import gc
import io
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from triform import (CircleFunction, Estimate, GaussianSpec, QuadratureConfig,
                     closed_form_log, closed_form_value, det_moment, exponents,
                     gaussian_expect, group_action, homogeneous_reduction_check,
                     linear_moment, minor_pullback_check, radius_moment,
                     random_sl2, sine_power_coeffs, sobolev_matrix,
                     spectral_mode_values, triple_quadrature)
from triform import cli
from triform.errors import TriformError
from triform.quadrature import unit_nodes
from triform.specfun import log_gamma_array

from pin import pin_fastest, reference_s
from tracer import NullTracer

SCHEME = "singularity_split"
WARM_LEVELS = range(3, 9)       # start level 3 plus up to 6 refinements


@dataclass
class Outcome:
    """What one pass did: operations, failures and exact counts."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    values: object = None

    def fail(self, n, why):
        self.failed += n
        self.problems.append(why)


class OpClock:
    """Wall time of each operation of one untraced pass, in the order run.

    With ``steady``, each operation starts from a collected heap (as in a
    fresh CLI process, so that peak memory does not depend on when the
    cyclic collector last ran) on the fastest CPU, and ``refs`` holds the
    reference loop's time on that CPU, the mean of one reading before the
    operation and one after it."""

    def __init__(self, steady=False):
        self.times, self.refs = [], []
        self.steady = steady

    @contextlib.contextmanager
    def op(self):
        before = None
        if self.steady:
            gc.collect()
            before = pin_fastest()
        t = time.perf_counter()
        try:
            yield
        finally:
            self.times.append(time.perf_counter() - t)
            if self.steady:
                self.refs.append((before + reference_s()) / 2)


def run_cli(argv):
    """``triform <argv>`` in this process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def warm_up(tracer):
    """Fill the node caches for every level a workload can reach."""
    with tracer.span("quadrature.unit_nodes"):
        for level in WARM_LEVELS:
            unit_nodes(SCHEME, level)


def _level(est):
    return int(est.method.rsplit("level", 1)[1])


def _timed_median(fn, args_list):
    times = []
    for args in args_list:
        t = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# quad_spherical: constant data, kernel powers only
# ---------------------------------------------------------------------------

class QuadSpherical:
    name = "quad_spherical"
    min_passes = 2
    uses_cli = True
    max_rel_deviation = 1e-4

    def __init__(self, seed):
        grid = [0, 1, 2, 4]
        self.triples = list(itertools.combinations_with_replacement(grid, 3))
        # lam = i v, built exactly as the CLI parses "--triples"
        self.lams = [tuple(complex(str(v)) * 1j for v in t) for t in self.triples]
        self.cfg = QuadratureConfig(refinement_levels=6, target_rel_error=1e-6)
        self.ones = CircleFunction.constant(1.0)
        self.argvs = [["quadrature-check", "--format", "json", "--reproducible",
                       "--quad-levels", "6", "--target", "1e-6",
                       "--triples", ",".join(map(str, t))] for t in self.triples]

    def run_pass(self, clock):
        """One CLI call per triple, so each triple is timed on its own."""
        out = Outcome(attempted=len(self.triples))
        nodes = 0
        for triple, argv in zip(self.triples, self.argvs):
            with clock.op():
                rc, text = run_cli(argv)
            rows = json.loads(text)["rows"] if text else []
            if len(rows) != 1:
                out.fail(1, f"triple {triple}: CLI exit {rc}, {len(rows)} rows")
                continue
            row = rows[0]
            dev = row.get("rel_deviation")
            if row["error"] or dev is None or dev > self.max_rel_deviation:
                out.fail(1, f"row {row['l1']},{row['l2']},{row['l3']}: "
                            f"error={row['error']!r} rel_deviation={dev}")
            nodes += row.get("cost") or 0
        out.counts = {"quadrature.nodes": nodes}
        return out

    def traced_pass(self, tracer, untraced):
        out = Outcome(attempted=len(self.lams))
        nodes = levels = 0
        for a, b, c in self.lams:
            try:
                with tracer.span("trilinear.closed_form_value"):
                    cf = closed_form_value(a, b, c)
                with tracer.span("trilinear.triple_quadrature"):
                    est = triple_quadrature(self.ones, self.ones, self.ones,
                                            a, b, c, self.cfg)
            except TriformError as exc:
                out.fail(1, f"triple {(a, b, c)}: {exc!r}")
                continue
            nodes += est.cost
            levels += _level(est)
            dev = abs(est.value - cf.value) / abs(cf.value)
            if dev > self.max_rel_deviation:
                out.fail(1, f"triple {(a, b, c)}: rel_deviation {dev:.3g}")
        out.counts = {"quadrature.nodes": nodes,
                      "quadrature.final_level_sum": levels}
        return out

    def probes(self, tracer):
        """One vectorized log-Gamma call over every closed-form argument."""
        num, den = [], []
        for lam in self.lams:
            e = exponents(*lam)
            num.append([(e.alpha + 1) / 4, (e.beta + 1) / 4,
                        (e.gamma + 1) / 4, (e.delta + 1) / 4])
            den.append([0.5, 0.5, 0.5] + [(1 - z) / 2 for z in lam])
        args = np.concatenate([np.ravel(num), np.ravel(den)])
        with tracer.span("specfun.log_gamma_array", probe=True) as s:
            lg = log_gamma_array(args)
        split = np.size(num)
        modulus = (lg[:split].real.reshape(len(self.lams), -1).sum(axis=1)
                   - lg[split:].real.reshape(len(self.lams), -1).sum(axis=1))
        problems = []
        for lam, m in zip(self.lams, modulus):
            ref = closed_form_log(*lam).real
            if abs(m - ref) > 1e-9 * max(1.0, abs(ref)):
                problems.append(f"log_gamma_array vs closed_form_log at {lam}: "
                                f"{m} != {ref}")
        return {"specfun.log_gamma_array_call_s": s["end"] - s["start"]}, problems

    def final_checks(self, first):
        return []


# ---------------------------------------------------------------------------
# quad_fourier: lift-16 Fourier data, mode-product dominated
# ---------------------------------------------------------------------------

class QuadFourier:
    name = "quad_fourier"
    min_passes = 2
    uses_cli = False
    copies = 3
    invariance_tol = 2e-3
    spectral_tol = 1e-8

    def __init__(self, seed):
        lift = 8
        self.lams = (0.0, 1j, 2j)
        self.cfg = QuadratureConfig(target_rel_error=1e-5, refinement_levels=4)
        self.base = [CircleFunction.from_modes({0: 1.0, 2: 0.3}, lift),
                     CircleFunction.from_modes({0: 1.0, -2: 0.2, 4: 0.1}, lift),
                     CircleFunction.from_modes({0: 1.0}, lift)]
        rng = np.random.default_rng(seed)
        self.group = [random_sl2(rng, max_norm=1.3) for _ in range(self.copies)]

    def _quadrature(self, tracer, data, out):
        with tracer.span("trilinear.triple_quadrature"):
            est = triple_quadrature(*data, *self.lams, self.cfg)
        out.counts["quadrature.nodes"] += est.cost
        out.counts["quadrature.final_level_sum"] += _level(est)
        return est.value

    def _moved(self, tracer, g):
        moved = []
        for lam, f in zip(self.lams, self.base):
            with tracer.span("specdecomp.group_action"):
                moved.append(group_action(g, lam, f))
        return moved

    def traced_pass(self, tracer, untraced=None, clock=None):
        clock = clock or OpClock()
        out = Outcome(attempted=1 + len(self.group),
                      counts={"quadrature.nodes": 0,
                              "quadrature.final_level_sum": 0})
        try:
            with clock.op():
                ref = self._quadrature(tracer, self.base, out)
        except TriformError as exc:
            out.fail(out.attempted, f"reference: {exc!r}")
            return out
        out.values = ref
        for g in self.group:
            try:
                with clock.op():
                    val = self._quadrature(tracer, self._moved(tracer, g), out)
            except TriformError as exc:
                out.fail(1, f"moved by {g.tolist()}: {exc!r}")
                continue
            if abs(val - ref) > self.invariance_tol * abs(ref):
                out.fail(1, f"moved value {val} vs reference {ref}")
        return out

    def run_pass(self, clock):
        return self.traced_pass(NullTracer(), clock=clock)

    def probes(self, tracer):
        return {}, []

    def final_checks(self, first):
        """The reference against sum f1_p f2_q f3_-(p+q) mode(p, q)."""
        if first.values is None:
            return ["no reference value to cross-check"]
        f1, f2, f3 = self.base
        pairs, weights = [], []
        for p, q in itertools.product(range(-f1.max_mode, f1.max_mode + 1),
                                      range(-f2.max_mode, f2.max_mode + 1)):
            w = f1.coefficient(p) * f2.coefficient(q) * f3.coefficient(-(p + q))
            if w != 0:
                pairs.append((p, q))
                weights.append(w)
        spectral = complex(np.dot(weights, spectral_mode_values(pairs, *self.lams)))
        rel = abs(spectral - first.values) / abs(first.values)
        if rel > self.spectral_tol:
            return [f"spectral cross-check off by {rel:.3g}"]
        return []


# ---------------------------------------------------------------------------
# sobolev_floor: sparse assembly, factorization, solves, mode rows
# ---------------------------------------------------------------------------

class SobolevFloor:
    name = "sobolev_floor"
    min_passes = 2
    uses_cli = True
    l, k_modes = 2, 32
    ladder_n = 64
    # (T, N): the T-ladder at N = 64, then T = 8 at N = 32, so that the T = 8
    # pair is one N-doubling
    rungs = ((2.0, 64), (4.0, 64), (8.0, 64), (8.0, 32))
    # rho T^4 printed by the seed commit at N = 64, to 4 decimals
    expected = {2.0: 0.2545, 4.0: 0.2101, 8.0: 0.2137}
    max_spread = 4.0
    max_doubling_change = 0.1
    replay_tol = 1e-10

    def __init__(self, seed):
        self.argvs = [["sobolev-trace", "--format", "json", "--reproducible",
                       "--l", str(self.l), "--k-modes", str(self.k_modes),
                       "--t-ladder", f"{T:g}", "--max-mode", str(n)]
                      for T, n in self.rungs]

    def run_pass(self, clock):
        """One CLI call per rung, so each rung is timed on its own."""
        out = Outcome(attempted=len(self.rungs))
        rungs = []
        for argv, (T, n) in zip(self.argvs, self.rungs):
            with clock.op():
                rc, text = run_cli(argv)
            rows = json.loads(text)["rows"] if text else []
            if rc != 0 or len(rows) != 1:
                out.fail(1, f"CLI exit {rc} for T={T:g}, N={n}")
                continue
            rungs.append((T, n, rows[0]["rho"], rows[0]["rho_scaled"]))
        out.values = rungs
        out.counts = {"rho": [r[2] for r in rungs]}
        bad = set()             # a rung outside several gates fails once
        for i, (T, n, _rho, scaled) in enumerate(rungs):
            if not scaled > 0 or (n == self.ladder_n and
                                  f"{scaled:.4f}" != f"{self.expected[T]:.4f}"):
                bad.add(i)
                out.problems.append(f"rho T^4 at T={T:g}, N={n} is {scaled}")
        ladder = [i for i, r in enumerate(rungs) if r[1] == self.ladder_n]
        scaled = [rungs[i][3] for i in ladder]
        if scaled and min(scaled) > 0 and max(scaled) / min(scaled) > self.max_spread:
            bad.update(ladder)
            out.problems.append(f"rho T^4 spread {max(scaled) / min(scaled):.3g}")
        at8 = {r[1]: (i, r[2]) for i, r in enumerate(rungs) if r[0] == 8.0}
        if len(at8) == 2:
            change = abs(at8[64][1] - at8[32][1]) / at8[64][1]
            if not change < self.max_doubling_change:
                bad.add(at8[32][0])
                out.problems.append(f"N-doubling change {change:.3g} at T=8")
        out.failed += len(bad)
        return out

    def _rows(self, tracer, lam, N):
        """(pairs, row) per output mode, as the CLI's trace assembles them."""
        n1 = 2 * N + 1
        kp_max = self.k_modes // 2
        for kp in range(-kp_max, kp_max + 1):
            mps = np.arange(max(-N, -kp - N), min(N, -kp + N) + 1)
            pairs = [(int(mp), int(-kp - mp)) for mp in mps]
            with tracer.span("trilinear.spectral_mode_values"):
                vals = spectral_mode_values(pairs, 0j, 0j, lam)
            row = np.zeros(n1 * n1, dtype=complex)
            row[(mps + N) * n1 + (-kp - mps + N)] = vals
            yield len(pairs), row

    def traced_pass(self, tracer, untraced):
        out = Outcome(attempted=len(untraced.values),
                      counts={"specdecomp.sobolev_nnz": 0,
                              "specdecomp.factor_fill_nnz": 0,
                              "trilinear.mode_pairs": 0})
        for T, n, rho_cli, _ in untraced.values:
            # the CLI's defaults: lam = i * 1.0 * T, tau = tau' = i * 0.0
            lam = 1j * 1.0 * T
            with tracer.span("specdecomp.sobolev_matrix"):
                Q = sobolev_matrix(self.l, T, 1j * 0.0, 1j * 0.0, n)
            with tracer.span("specdecomp.factor"):
                lu = spla.splu(Q)
            out.counts["specdecomp.sobolev_nnz"] += Q.nnz
            out.counts["specdecomp.factor_fill_nnz"] += lu.nnz
            rho = 0.0
            for n_pairs, row in self._rows(tracer, lam, n):
                with tracer.span("specdecomp.solve"):
                    x = lu.solve(np.conj(row))
                rho += float(np.real(row @ x))
                out.counts["trilinear.mode_pairs"] += n_pairs
            if abs(rho - rho_cli) > self.replay_tol * abs(rho_cli):
                out.fail(1, f"replayed rho {rho} != CLI rho {rho_cli} "
                            f"at T={T:g}, N={n}")
        return out

    def probes(self, tracer):
        """sine_power_coeffs and log_gamma_array as spectral_mode_values
        calls them for the widest row of each rung."""
        coeff_args, gamma_args = [], []
        for T, n in self.rungs:
            kmax = (2000 + 10 * n) + 60 + n + 2
            for s in exponents(0j, 0j, 1j * T).kernel_powers():
                coeff_args.append((s, kmax))
                kd = min(kmax, 2 + max(0, int(np.ceil(s.real / 2.0))))
                gamma_args.append((np.arange(kd + 1, kmax + 1) - s / 2.0,))
        with tracer.span("trilinear.sine_power_coeffs", probe=True):
            coeffs_s = _timed_median(sine_power_coeffs, coeff_args)
        with tracer.span("specfun.log_gamma_array", probe=True):
            gamma_s = _timed_median(log_gamma_array, gamma_args)
        return {"trilinear.sine_power_coeffs_call_s": coeffs_s,
                "specfun.log_gamma_array_call_s": gamma_s}, []

    def final_checks(self, first):
        return []


# ---------------------------------------------------------------------------
# gaussian_battery: Philox sampling and the identity integrands
# ---------------------------------------------------------------------------

S_VALUES = (0.0, 1.0, 2.0, 1j, 2j)


def _abs_power(v, s):
    good = v > 0
    out = np.zeros(len(v), dtype=complex)
    out[good] = np.exp(complex(s) * np.log(v[good]))
    if complex(s) == 0:
        out[:] = 1.0
    return out


class GaussianBattery:
    """The identities of ``triform gaussian-check`` whose integrands have a
    finite second moment, as gaussian_expect requires for its error bar: the
    CLI's integrands, seeds and streams, called through the public API.  The
    kernel-Gaussian identities are left out: |K|^2 is not integrable, so their
    zscores have no earned bound."""
    name = "gaussian_battery"
    min_passes = 2                  # the determinism check compares two
    uses_cli = False
    samples = 1_000_000
    max_z = 4.0

    def __init__(self, seed):
        self.seed = seed
        self.first_rows = None

    def _battery(self, tracer, clock):
        """(value, zscore, samples) of each identity, one operation each."""
        n, seed = self.samples, self.seed
        rows = []

        def add(lhs, rhs):
            sigma = max(lhs.error_bound / 3.0, rhs.error_bound, 1e-300)
            rows.append((lhs.value, abs(lhs.value - rhs.value) / sigma, lhs.cost))

        def expect(family, spec, integrand, closed_fn, *args):
            with clock.op():
                with tracer.span(f"gaussian.{closed_fn.__name__}", family=family):
                    closed = closed_fn(*args)
                with tracer.span("gaussian.gaussian_expect", family=family):
                    mc = gaussian_expect(spec, integrand)
            add(mc, Estimate(closed, 1e-11 * abs(closed)))

        for nn in (1, 2, 3):
            for s in S_VALUES:
                expect("radius", GaussianSpec(dim=nn, seed=seed, samples=n),
                       lambda pts, s=s: np.exp(complex(s) * np.log(
                           np.sqrt(np.sum(pts * pts, axis=1)))),
                       radius_moment, nn, s)
        for s in S_VALUES:
            expect("linear", GaussianSpec(dim=2, seed=seed + 1, samples=n),
                   lambda pts, s=s: _abs_power(np.abs(pts[:, 0]), s),
                   linear_moment, 1.0, s)
        for s in S_VALUES:
            expect("det", GaussianSpec(dim=4, seed=seed + 2, samples=n),
                   lambda pts, s=s: _abs_power(np.abs(
                       pts[:, 0] * pts[:, 3] - pts[:, 1] * pts[:, 2]), s),
                   det_moment, s)
        f = CircleFunction.from_modes({0: 1.0, 2: 0.25, -2: 0.25}, 1)
        for lam in (0.0, 2j):
            with clock.op(), tracer.span("gaussian.homogeneous_reduction_check",
                                         family="homogeneous"):
                pair = homogeneous_reduction_check(
                    lam, f, method="mc",
                    spec=GaussianSpec(dim=2, seed=seed + 3, samples=n))
            add(*pair)
        for s in S_VALUES:
            with clock.op(), tracer.span("gaussian.minor_pullback_check",
                                         family="minor"):
                pair = minor_pullback_check(
                    s, GaussianSpec(dim=6, seed=seed + 4, samples=n))
            add(*pair)
        return rows

    def _outcome(self, rows):
        out = Outcome(attempted=len(rows), values=rows,
                      counts={"gaussian.samples": sum(r[2] for r in rows)},
                      diagnostics={"gaussian.max_z": max(r[1] for r in rows)})
        for i, (_, z, _) in enumerate(rows):
            if not z <= self.max_z:
                out.fail(1, f"identity {i}: zscore {z:.3g}")
        return out

    def run_pass(self, clock):
        out = self._outcome(self._battery(NullTracer(), clock))
        if self.first_rows is None:
            self.first_rows = out.values
        elif out.values != self.first_rows:
            out.fail(out.attempted - out.failed,
                     "values differ between passes with the same seed")
        return out

    def traced_pass(self, tracer, untraced):
        out = self._outcome(self._battery(tracer, OpClock()))
        if out.values != untraced.values:
            out.fail(out.attempted - out.failed,
                     "traced values differ from the untraced pass")
        return out

    def probes(self, tracer):
        with tracer.span("gaussian.gaussian_expect", probe=True) as s:
            gaussian_expect(GaussianSpec(dim=6, seed=self.seed, samples=self.samples),
                            lambda pts: np.ones(len(pts)))
        return {"gaussian.sampling_s": s["end"] - s["start"]}, []

    def final_checks(self, first):
        return []


WORKLOADS = {w.name: w for w in (QuadSpherical, QuadFourier, SobolevFloor,
                                 GaussianBattery)}
