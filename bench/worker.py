"""One workload in one fresh interpreter; started by run.py.

    worker.py --workload NAME --seed N --mode setup|run|trace --seconds S
              [--spans PATH]

Prints ``ready <seconds>`` when set-up (imports, inputs, warm-up) is done,
with the reference loop's mean time at the start and end of set-up, and,
unless the mode is ``setup``, one ``result <json>`` line when the passes are
done.
"""

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

from pin import NOMINAL_REFERENCE_S, pin_fastest, reference_s

ref_start = pin_fastest()
t_import = time.perf_counter()
import triform  # noqa: E402  (the import is what setup.import_s times)
t_imported = time.perf_counter()

SRC = Path(__file__).resolve().parent.parent / "src"
if SRC not in Path(triform.__file__).resolve().parents:
    sys.exit(f"triform imported from {triform.__file__}, not from {SRC}")

from tracer import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, OpClock, warm_up  # noqa: E402


def run_passes(wl, seconds):
    """Untraced passes within ``seconds``: after min_passes, a pass starts only
    if it should end in time, judged by the last one (this bounds a run).

    ``wall_s`` is the time of one pass at full CPU speed.  A shared host slows
    a CPU by up to half, for a tenth of a second to tens of seconds at a time,
    so each operation runs on the faster CPU and its time is divided by the
    reference loop's time around it; the smallest such ratio of each
    operation, summed over the pass, is multiplied by the loop's time at full
    speed."""
    started = time.perf_counter()
    outs, walls, clocks = [], [], []
    while (len(walls) < wl.min_passes
           or time.perf_counter() - started + walls[-1] <= seconds):
        clocks.append(OpClock(steady=True))
        t = time.perf_counter()
        outs.append(wl.run_pass(clocks[-1]))
        walls.append(time.perf_counter() - t)
        if len(clocks[-1].times) != len(clocks[0].times):
            outs[-1].fail(outs[-1].attempted, f"pass timed {len(clocks[-1].times)} "
                          f"operations, the first {len(clocks[0].times)}")
    scaled = [min(per_op) for per_op in zip(*(
        [dt / ref for dt, ref in zip(clock.times, clock.refs)] for clock in clocks))]
    first = outs[0]
    problems = [p for out in outs for p in out.problems]
    problems += [f"counts drifted between passes: {first.counts} then {out.counts}"
                 for out in outs[1:] if out.counts != first.counts]
    checks = wl.final_checks(first)     # each fails the first pass's reference
    return {"attempted": sum(out.attempted for out in outs),
            "failed": sum(out.failed for out in outs) + len(checks),
            "problems": problems + checks, "walls": walls,
            "wall_s": NOMINAL_REFERENCE_S * sum(scaled),
            "ref_fast_s": min(r for clock in clocks for r in clock.refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_traced(wl, tracer):
    """One untraced pass, then the traced rebuild and the layer probes."""
    t = time.perf_counter()
    untraced = wl.run_pass(OpClock())
    t_end = time.perf_counter()
    untraced_wall = t_end - t
    if wl.uses_cli:
        tracer.add("cli.main", t, t_end)
    with tracer.in_pass("traced") as root:
        traced = wl.traced_pass(tracer, untraced)
    with tracer.in_pass("probe"):
        probe_metrics, probe_problems = wl.probes(tracer)

    checks = wl.final_checks(untraced)
    problems = untraced.problems + traced.problems + probe_problems + checks
    for key in set(untraced.counts) & set(traced.counts):
        if untraced.counts[key] != traced.counts[key]:
            problems.append(f"{key}: untraced {untraced.counts[key]} "
                            f"!= traced {traced.counts[key]}")
    layers = tracer.layer_seconds({"traced"})
    families = tracer.layer_seconds(
        {"traced"}, key=lambda s: s["attrs"].get("family"))
    setup = tracer.layer_seconds({"setup"})
    traced_wall = root["end"] - root["start"]
    counts = traced.counts
    nodes = counts.get("quadrature.nodes", 0)
    tq_s = layers.get("trilinear.triple_quadrature", 0.0)
    metrics = {
        "quadrature.nodes": nodes,
        "quadrature.final_level_sum": counts.get("quadrature.final_level_sum", 0),
        "quadrature.unit_nodes_s": setup.get("quadrature.unit_nodes", 0.0),
        "trilinear.triple_quadrature_s": tq_s,
        "trilinear.ns_per_node": 1e9 * tq_s / nodes if nodes else 0.0,
        "trilinear.closed_form_s": layers.get("trilinear.closed_form_value", 0.0),
        "trilinear.spectral_mode_values_s":
            layers.get("trilinear.spectral_mode_values", 0.0),
        "trilinear.mode_pairs": counts.get("trilinear.mode_pairs", 0),
        "trilinear.sine_power_coeffs_call_s": 0.0,
        "specfun.log_gamma_array_call_s": 0.0,
        "specdecomp.group_action_s": layers.get("specdecomp.group_action", 0.0),
        "specdecomp.sobolev_matrix_s": layers.get("specdecomp.sobolev_matrix", 0.0),
        "specdecomp.sobolev_nnz": counts.get("specdecomp.sobolev_nnz", 0),
        "specdecomp.factor_s": layers.get("specdecomp.factor", 0.0),
        "specdecomp.factor_fill_nnz": counts.get("specdecomp.factor_fill_nnz", 0),
        "specdecomp.solve_s": layers.get("specdecomp.solve", 0.0),
        "gaussian.sampling_s": 0.0,
        "gaussian.samples": counts.get("gaussian.samples", 0),
        "gaussian.max_z": 0.0,
        "setup.import_s": setup.get("setup.import", 0.0),
        "cli.main_s": untraced_wall if wl.uses_cli else 0.0,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": tracer.coverage(root),
    }
    for family in ("radius", "linear", "det", "homogeneous", "minor"):
        metrics[f"gaussian.{family}_s"] = families.get(family, 0.0)
    metrics.update(traced.diagnostics)
    metrics.update(probe_metrics)
    return {"attempted": untraced.attempted + traced.attempted,
            "failed": untraced.failed + traced.failed + len(checks),
            "problems": problems, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    tracer = Tracer() if args.mode == "trace" else NullTracer()
    if args.mode == "trace":
        with tracer.in_pass("setup"):
            tracer.add("setup.import", t_import, t_imported)
            wl = WORKLOADS[args.workload](args.seed)
            warm_up(tracer)
    else:
        wl = WORKLOADS[args.workload](args.seed)
        warm_up(tracer)
        gc.freeze()     # the collections before each timed operation skip set-up
    print(f"ready {(ref_start + reference_s()) / 2!r}", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "trace":
        result = run_traced(wl, tracer)
        if args.spans:
            tracer.write(args.spans)
    else:
        result = run_passes(wl, args.seconds)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
