"""Record the reference study values that ``bench/run.py`` checks outputs against.

Usage, from the root of a checkout::

    python3 bench/record_reference.py

For each workload, 16 accepted master seeds are recorded.  Candidate master
seeds are taken in order from the shipped config's own seed upward.  Each
candidate's study runs once at 2 workers; a candidate whose study reports
``pass`` false (a KS or two-route test rejecting at its own significance
level, which a correct simulator does at that rate) is listed under
``excluded`` with the failed verdicts and skipped, so that every benchmark
run is a study that passes.  The values of the accepted candidates are
written to ``bench/reference.json``.  A benchmark run with ``--seed n``
visits them in the order ``random.Random(n)`` shuffles them into.
"""

from __future__ import annotations

import configparser
import json
import os
import shutil
import sys

import run

PER_WORKLOAD = 16


def verdicts(summary):
    if "ks_clt" in summary:
        return {k: summary[k]["p_value"] for k in ("ks_clt", "ks_anscombe")}
    return {f"{label}.two_route_agree": info["two_route_agree"]
            for label, info in summary["functionals"].items()}


def main():
    spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    out = {}
    for name, wl in run.WORKLOADS.items():
        base = configparser.ConfigParser(interpolation=None)
        base.read(os.path.join(run.ROOT, wl.base))
        first = int(base["experiment"]["master_seed"])
        seeds, excluded = [], {}
        work = os.path.join(run.WORK, "reference", name)
        ini = os.path.join(work, "workload.ini")
        master_seed = first
        while len(seeds) < PER_WORKLOAD:
            run.generate_config(name, master_seed, ini, whys[name])
            out_dir = os.path.join(work, "out")
            shutil.rmtree(out_dir, ignore_errors=True)
            res = run.run_child(run.cli_argv(name, ini, out_dir, 2), os.path.join(work, "cli.log"))
            summary = run.load_json(os.path.join(out_dir, "summary.json"))
            if res["exit"] == 0 and summary["pass"] is True:
                values = run.summary_values(wl.command, summary)
                seeds.append({"master_seed": master_seed, "values": values})
            elif res["exit"] in (0, 3):
                excluded[str(master_seed)] = verdicts(summary)
            else:
                sys.exit(f"{name} seed {master_seed}: exit {res['exit']}, see {work}/cli.log")
            print(f"{name} {master_seed}: exit {res['exit']}, {res['wall_s']:.2f} s", flush=True)
            master_seed += 1
        out[name] = {"seeds": seeds, "excluded": excluded}
    with open(os.path.join(run.BENCH, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
