"""Repeat the benchmark over seeds and report medians, quartiles and spreads.

    python3 bench/spread.py --workloads quad_fourier,sobolev_floor \
        --seeds 1-10 [--trace 0|1] [--record bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time.  For each
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, the distance between the quartiles as a share of the median; an
end-to-end spread above a third of its bound is marked.  With ``--trace 1`` it
checks that the exact counts repeat in every run.  ``--record`` merges the
statistics and this machine's environment into a JSON record.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import BLAS_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_COUNTS = ("quadrature.nodes", "quadrature.final_level_sum",
                "specdecomp.sobolev_nnz", "specdecomp.factor_fill_nnz",
                "trilinear.mode_pairs", "gaussian.samples")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def environment():
    import numpy
    import scipy

    def blas(config):
        return config.get("Build Dependencies", {}).get("blas", {}).get("version")

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = (index / "size").read_text().strip()
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "cpu_model": model, **caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas_numpy": blas(numpy.show_config(mode="dicts")),
            "openblas_scipy": blas(scipy.show_config(mode="dicts")),
            "blas_threads": BLAS_THREADS}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    stats, incorrect, ok = {}, {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res = run_once(workload, seed, args.trace)
            runs.append(res)
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                             if k in bounds or k in EXACT_COUNTS), flush=True)
            if not res["correct"]:
                ok = False
                incorrect.setdefault(workload, []).append(
                    {"seed": seed, "failed": res["failed"],
                     "attempted": res["attempted"]})
        stats[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            stats[workload][name] = s
            flag = ""
            if name in bounds and s["spread"] > bounds[name] / 3:
                flag = "  <-- spread above a third of the bound"
            if name in EXACT_COUNTS and len(set(values)) > 1:
                flag = "  <-- count drifted between runs"
                ok = False
            if name in bounds or name in EXACT_COUNTS or (args.trace and s["median"]):
                print(f"  {workload:16s} {name:36s} median={s['median']:.6g} "
                      f"q1={s['q1']:.6g} q3={s['q3']:.6g} "
                      f"spread={s['spread']:.4f}{flag}")
    if args.record:
        path = Path(args.record)
        record = json.loads(path.read_text()) if path.is_file() else {}
        record["environment"] = environment()
        key = "per_layer" if args.trace else "end_to_end"
        record.setdefault(key, {}).update(stats)
        record[key + "_seeds"] = args.seeds
        record[key + "_incorrect_runs"] = incorrect
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
