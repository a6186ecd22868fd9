"""Run the benchmark over a set of seeds and record medians, quartiles and spreads.

Usage, from the root of a checkout::

    python3 bench/record_baseline.py [--first-seed 0] [--out bench/baseline.json]

For every workload, ``bench/run.py`` runs ten times with tracing off, with
seeds ``--first-seed`` onward.  For each end-to-end metric the file records
the ten values, their median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound.
One traced run with seed ``--first-seed`` then gives the per-layer metrics,
which do not depend on the workload named.  Runs are made one after another,
never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

RUNS = 10


def bench_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    if not trace:
        result["invocations"] = run.load_json(
            os.path.join(run.WORK, workload, "invocations.json"))
    return result


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "spread_below_third_of_bound": spread < bound / 3.0,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", default=os.path.join(run.BENCH, "baseline.json"))
    args = parser.parse_args(argv)
    spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python "
                   f"{platform.python_version()}",
        "run_seconds": seconds,
        "seeds": list(range(args.first_seed, args.first_seed + RUNS)),
        "workloads": {},
    }
    for name in run.WORKLOADS:
        results = []
        for seed in record["seeds"]:
            res = bench_once(name, seed, seconds, 0)
            results.append(res)
            print(f"{name} seed {seed}: {res['run_s']:.1f} s, correct {res['correct']}, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        entry = {
            "invocations": [r["invocations"] for r in results],
            "run_s_max": max(r["run_s"] for r in results),
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                key: summarise([r["metrics"][key]["value"] for r in results], bounds[key])
                for key in bounds
            },
        }
        record["workloads"][name] = entry
        for key, row in entry["end_to_end"].items():
            print(f"{name} {key}: median {row['median']:.6g}, spread {row['spread']:.4f} "
                  f"(bound {row['bound']})", flush=True)
    traced = bench_once(next(iter(run.WORKLOADS)), args.first_seed, seconds, 1)
    record["trace"] = {
        "run_s": traced["run_s"],
        "correct": traced["correct"],
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
