"""The triform benchmark: one command per workload, checked outputs, metrics.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh interpreters that
import ``triform`` from ``src/`` with one BLAS thread (two threads on two
cores made no pass faster here and doubled the run-to-run spread):

* ``--trace 0`` starts one measuring process between set-up-only processes
  (SETUP_PROBES before it and as many after, since this machine's speed
  drifts over seconds).  It reports ``wall_s`` (the wall time of one
  untraced pass at full CPU speed: each operation's time is scaled by a
  reference loop timed around it, see worker.py and pin.py),
  ``setup_s`` (median time from a fresh interpreter to the first timed pass,
  over all of these processes, each scaled the same way by the reference loop
  timed at the start and end of its set-up) and ``peak_rss_mb`` (peak
  resident memory of the measuring process).
* ``--trace 1`` runs one untraced pass, then the traced rebuild of the same
  pass from public calls, and reports the per-layer metrics; the spans go to
  ``bench/out/spans-<workload>-<seed>.json``.

A human-readable table comes first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from pin import NOMINAL_REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


BLAS_THREADS = 1


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, deadline):
    """Run worker.py; return (seconds from spawn to ``ready``, the reference
    loop's time during set-up, result dict)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=worker_env())
    lines = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put((time.perf_counter(), line))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    ready = ref = result = None
    try:
        while True:
            t, line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            if line is None:
                break
            if line.startswith("ready"):
                ready = t - t0
                ref = float(line.split()[1])
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except (queue.Empty, subprocess.TimeoutExpired):
        raise BenchError(f"worker {args} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return ready, ref, result


def run_workload(spec, name, seed, seconds, trace):
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    if trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        _, _, res = spawn(common + ["--mode", "trace", "--spans",
                                    str(out_dir / f"spans-{name}-{seed}.json")],
                          deadline)
        metrics = res["metrics"]
        wanted = spec["per_layer"]
    else:
        def probes():
            return [spawn(common + ["--mode", "setup"], deadline)[:2]
                    for _ in range(SETUP_PROBES)]

        setups = probes()
        ready, ref, res = spawn(common + ["--mode", "run", "--seconds",
                                          str(seconds)], deadline)
        setups += [(ready, ref)] + probes()
        # set-up times at full CPU speed, as worker.py scales wall_s
        metrics = {"wall_s": res["wall_s"],
                   "setup_s": NOMINAL_REFERENCE_S * statistics.median(
                       t / r for t, r in setups),
                   "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    report = {"correct": res["failed"] == 0 and not res["problems"],
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(f"== {name}  seed={seed}  trace={trace}")
    for key, m in report["metrics"].items():
        print(f"   {key:38s} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        print(f"   {'pass wall times (s)':38s} "
              + " ".join(f"{w:.4g}" for w in res["walls"]))
        print(f"   {'reference loop, fastest (ms)':38s} {1e3 * res['ref_fast_s']:>16.4g}")
    print(f"   {'fail_frac':38s} {res['failed'] / res['attempted']:>16.6g} ratio"
          f"  ({res['failed']}/{res['attempted']})")
    for problem in res["problems"]:
        print(f"   problem: {problem}")
    print(json.dumps(report), flush=True)


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "triform" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a triform checkout (src/triform and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=20240901)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        for name in names if args.workload == "all" else [args.workload]:
            run_workload(spec, name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
