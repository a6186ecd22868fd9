"""Benchmark of the ``regenjump`` CLI studies.

Usage, from the root of a checkout::

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` times whole CLI study invocations of one workload for
``--seconds`` seconds (after an untimed import of the package) and reports
the end-to-end metrics, with times scaled to the reference host speed that
``calibrate.py`` samples between the studies.  ``--trace 1`` runs the layer trace instead: every
workload once untraced at 2 workers and once traced at 1 worker, and reports
each per-layer metric from the workload ``LAYER_SOURCES`` assigns it, so the
trace does not depend on ``--workload``.  Every invocation's outputs are
checked against the reference values in ``reference.json``.

Metric names and units are read from ``BENCHMARK.json``; ``bench/README.md``
describes each of them.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORK = os.path.join(ROOT, ".bench_work")
SRC = os.path.join(ROOT, "src")

CLI_TIMEOUT_S = 120.0
MIN_INVOCATIONS = 3
SETUP_SAMPLES = 3
SETUP_SAMPLE_S = 0.25  # repeat the set-up until one sample spans this long
REL_TOL = 1e-6  # admits ulp-level re-baselines, not a changed estimate
CAL_PROCS = 2  # calibration processes run at once, one per study worker
CAL_REF_S = 1.25  # kernel seconds at the reference host speed that times are scaled to


@dataclass(frozen=True)
class Workload:
    base: str  # shipped config the workload is generated from
    command: str
    run: dict  # [run] keys replaced in the generated config


WORKLOADS = {
    # many short horizon lanes plus a wide moment run: the clt_study shape
    "scalar_clt": Workload(
        "configs/scalar.ini",
        "clt",
        {"n_cycles": 1_000_000, "est_shards": 16, "n_replicates": 1000, "t_end": 1000.0,
         "clt_t": 1000.0},
    ),
    # implicit-Euler solves and adaptive Simpson on the p-Laplacian grid
    "grid_slln": Workload(
        "configs/plaplace.ini",
        "slln",
        {"n_cycles": 4, "est_shards": 2, "n_replicates": 2, "t_end": 0.8, "clt_t": 0.8,
         "checkpoints": "0.4"},
    ),
}

EXPECTED_OUTPUTS = {
    "clt": {"summary.json", "clt_samples.csv", "clt_hist.svg", "cycles.csv"},
    "slln": {"summary.json", "slln_curve.csv", "slln.svg"},
}

# The workload each per-layer metric is taken from, whatever --workload names,
# so that one metric name always reports the same figure.  ``src.lines.*``
# counts source lines and comes from no workload.
LAYER_SOURCES = {
    "scalar_clt": (
        "runner.estimation_s", "runner.horizon_s", "runner.validate_s", "runner.pool_speedup",
        "process.us_per_cycle", "process.ms_per_replicate", "process.records_us_per_cycle",
        "driver.beta_draws", "driver.eta_draws", "driver.sample_us", "driver.drift_mc_s",
        "estimators.s", "report.write_s", "report.bytes", "cli.overhead_s", "cli.import_s",
    ),
    "grid_slln": (
        "config.load_s", "config.build_setup_s", "plaplace.kappa_fit_s",
        "process.grid_s_per_step", "process.chain_steps", "process.cycles",
        "functionals.segments", "functionals.evals", "functionals.evals_per_segment",
        "functionals.self_ms_per_segment", "functionals.err_max",
        "plaplace.advance.full", "plaplace.advance.partial", "plaplace.advance_us_p50",
        "plaplace.advance_us_p99", "plaplace.solves", "plaplace.solves_per_advance",
        "plaplace.solve_us", "plaplace.flow_at", "plaplace.flow_at_repeat_frac",
        "trace.overhead_frac",
    ),
}
POOL_PROBE_WORKLOAD = "scalar_clt"
OVERHEAD_WORKLOAD = "grid_slln"  # the densest spans, so the largest tracing cost


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# Workload generation and output checks


def generate_config(name, master_seed, path, why):
    """Write the workload's INI: the shipped config with the run sizes and seed replaced."""
    wl = WORKLOADS[name]
    parser = configparser.ConfigParser(interpolation=None)
    with open(os.path.join(ROOT, wl.base), encoding="utf-8") as fh:
        parser.read_file(fh)
    parser["experiment"]["master_seed"] = str(master_seed)
    for key, value in wl.run.items():
        parser["run"][key] = str(value)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# benchmark workload {name} (from {wl.base}): {why}\n")
        parser.write(fh)


def summary_values(command, summary):
    """The numbers of a study summary that are compared with the reference."""
    if command == "clt":
        return {
            "nu_hat": summary["nu_hat"],
            "sigma2_hat": summary["sigma2_hat"],
            "mean_tau": summary["mean_tau"],
            "ks_clt.statistic": summary["ks_clt"]["statistic"],
            "ks_anscombe.statistic": summary["ks_anscombe"]["statistic"],
        }
    return {
        f"{label}.{key}": info[key]
        for label, info in summary["functionals"].items()
        for key in ("nu_hat", "sigma2_hat", "mean_tau")
    }


def check_outputs(out_dir, command, reference):
    """Problems with one study's outputs; an empty list means correct."""
    try:
        manifest = load_json(os.path.join(out_dir, "manifest.json"))
        summary = load_json(os.path.join(out_dir, "summary.json"))
    except (OSError, ValueError) as exc:
        return [f"unreadable manifest or summary: {exc}"]
    problems = []
    listed = set(manifest.get("outputs", []))
    for missing in sorted(EXPECTED_OUTPUTS[command] - listed):
        problems.append(f"{missing} not in the manifest")
    for name in sorted(listed):
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"listed output {name} is missing")
    if summary.get("pass") is not True:
        problems.append("summary pass is not true")
    try:
        values = summary_values(command, summary)
    except (KeyError, TypeError) as exc:
        return problems + [f"summary lacks {exc}"]
    if set(values) != set(reference):
        problems.append(f"summary values {sorted(values)} != reference {sorted(reference)}")
    for key in sorted(set(values) & set(reference)):
        got, want = values[key], reference[key]
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12):
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


def output_fingerprint(out_dir):
    """File contents of a study, with the manifest's timing and worker count removed."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_seconds", None)
            manifest.pop("threads", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        files[name] = data
    return files


# --------------------------------------------------------------------------
# Child processes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path, timeout=CLI_TIMEOUT_S):
    """Run one process to completion; wall time, CPU time and peak RSS of its tree.

    ``wait4`` reports the child's own usage plus that of the descendants it
    reaped (the study's pool workers), and the largest resident set among them.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def cli_argv(name, ini, out_dir, threads, entry=None):
    command = WORKLOADS[name].command
    prefix = entry or [sys.executable, "-m", "regenjump.cli"]
    return prefix + [command, "--config", ini, "--out", out_dir, "--threads", str(threads)]


class Study:
    """One workload's generated inputs for one seed, their references and the check tally.

    The seed fixes the order in which the workload's reference inputs (master
    seeds of the generated config) are visited; invocation ``i`` of a run uses
    input ``i`` of that order, so a run measures several inputs, not one.
    """

    def __init__(self, name, seed, whys, references):
        entries = references[name]["seeds"]
        self.name = name
        self.command = WORKLOADS[name].command
        self.dir = os.path.join(WORK, name)
        self.inputs = []
        for i in random.Random(seed).sample(range(len(entries)), len(entries)):
            entry = entries[i]
            ini = os.path.join(self.dir, f"workload_{entry['master_seed']}.ini")
            generate_config(name, entry["master_seed"], ini, whys[name])
            self.inputs.append((entry["master_seed"], ini, entry["values"]))
        self.attempted = 0
        self.failed = 0
        self.fingerprints = {}

    def ini(self, index):
        return self.inputs[index % len(self.inputs)][1]

    def invoke(self, tag, threads, index=0, entry=None):
        """Run the study on input ``index`` into a fresh directory and check what it wrote.

        Outputs must match the input's reference values and be byte-identical
        to every earlier invocation on the same input, whatever the worker count.
        """
        master_seed, ini, reference = self.inputs[index % len(self.inputs)]
        out_dir = os.path.join(self.dir, tag)
        shutil.rmtree(out_dir, ignore_errors=True)
        res = run_child(
            cli_argv(self.name, ini, out_dir, threads, entry),
            os.path.join(self.dir, tag + ".log"),
        )
        problems = [] if res["exit"] == 0 else [f"exit code {res['exit']}"]
        problems += check_outputs(out_dir, self.command, reference)
        if not problems:
            fingerprint = output_fingerprint(out_dir)
            first = self.fingerprints.setdefault(master_seed, fingerprint)
            differ = sorted(k for k in set(fingerprint) | set(first)
                            if fingerprint.get(k) != first.get(k))
            if differ:
                problems.append(f"outputs differ from an earlier invocation: {differ}")
        self.attempted += 1
        if problems:
            self.fail(tag, master_seed, problems)
        res["ok"] = not problems
        res["out_dir"] = out_dir
        res["master_seed"] = master_seed
        return res

    def fail(self, tag, master_seed, problems):
        self.failed += 1
        for p in problems:
            print(f"FAILED {self.name} [{tag}, master seed {master_seed}]: {p}", flush=True)


# --------------------------------------------------------------------------
# End-to-end run (tracing off)


def time_setup(study):
    """Seconds for one ``load_config`` plus ``build_setup``, averaged over all inputs.

    One sample passes over every input of the workload (the set-up cost of a
    grid input depends on its kappa-fit corpus), repeating the pass until the
    sample spans at least ``SETUP_SAMPLE_S``.
    """
    from regenjump.config import load_config

    n = 0
    t0 = time.perf_counter()
    while True:
        for index in range(len(study.inputs)):
            load_config(study.ini(index)).build_setup()
        n += len(study.inputs)
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_SAMPLE_S:
            return elapsed / n


def warm_up(study):
    """Import the package once untimed, which writes its bytecode caches and
    loads numpy and scipy into the page cache."""
    res = run_child([sys.executable, "-c", "import regenjump.cli, regenjump.plaplace"],
                    os.path.join(study.dir, "warmup.log"))
    if res["exit"] != 0:
        study.attempted += 1
        study.fail("warmup", None, [f"importing regenjump exited {res['exit']}"])


class Calibrator:
    """``CAL_PROCS`` ``calibrate.py`` processes that stay up for one run.

    ``sample`` runs the kernels in all of them at once and returns
    the mean wall and CPU seconds; None, counted as a failed invocation, when a
    process does not answer with its times.  ``close`` ends the processes and
    waits for them.
    """

    def __init__(self, study):
        self.study = study
        self.procs = []
        for _ in range(CAL_PROCS):
            self.procs.append(subprocess.Popen(
                [sys.executable, os.path.join(BENCH, "calibrate.py")], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
            ))

    def sample(self):
        try:
            for p in self.procs:
                p.stdin.write("\n")
                p.stdin.flush()
            outs = [json.loads(p.stdout.readline()) for p in self.procs]
            return {k: statistics.mean(o[k] for o in outs) for k in ("wall_s", "cpu_s")}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.study.attempted += 1
            self.study.fail("calibrate", None, [f"calibration: {exc}"])
            return None

    def close(self):
        for p in self.procs:
            try:
                p.stdin.close()
            except OSError:
                pass
        for p in self.procs:
            try:
                p.wait(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()


def end_to_end(study, seconds):
    """Median of each metric over the run, with times scaled to the reference host speed.

    A calibration sample (the ``calibrate.py`` kernels) is taken
    before every timed study and once after the last.  Each time metric is the
    run's median divided by the host speed, the median calibration time over
    ``CAL_REF_S`` (wall time for ``wall_s`` and ``setup_s``, CPU time for
    ``cpu_s``).  The host's speed drifts between runs by far more than the
    bounds; the scaling takes most of that drift out.
    """
    warm_up(study)
    runs, setups, cals = [], [], []
    calibrator = Calibrator(study)
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(runs) < MIN_INVOCATIONS:
            cals.append(calibrator.sample())
            if len(setups) < SETUP_SAMPLES:
                setups.append(time_setup(study))
            runs.append(study.invoke("timed", 2, len(runs)))
        cals.append(calibrator.sample())
    finally:
        calibrator.close()
    cals = [c for c in cals if c is not None]
    keep = ("master_seed", "wall_s", "cpu_s", "peak_rss_mb", "exit")
    with open(os.path.join(study.dir, "invocations.json"), "w", encoding="utf-8") as fh:
        json.dump({"runs": [{k: r[k] for k in keep} for r in runs], "setups": setups,
                   "calibrations": cals}, fh)
    raw = {k: statistics.median(r[k] for r in runs) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    raw["setup_s"] = statistics.median(setups)
    # with no calibration the run has failed already; its times stay unscaled
    speed = {k: statistics.median(c[k] for c in cals) / CAL_REF_S if cals else 1.0
             for k in ("wall_s", "cpu_s")}
    print(f"  unscaled medians: wall {raw['wall_s']:.4f} s, cpu {raw['cpu_s']:.4f} s, "
          f"setup {raw['setup_s']:.6f} s; calibration wall {speed['wall_s'] * CAL_REF_S:.4f} s, "
          f"cpu {speed['cpu_s'] * CAL_REF_S:.4f} s (n={len(cals)})")
    return {
        "wall_s": raw["wall_s"] / speed["wall_s"],
        "setup_s": raw["setup_s"] / speed["wall_s"],
        "cpu_s": raw["cpu_s"] / speed["cpu_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_frac": 1.0 - study.failed / study.attempted,
    }


# --------------------------------------------------------------------------
# Traced run


def span_table(spans):
    """Per span name: count, total time, self time and the duration of each call.

    Total time counts only the outermost of nested spans of one name; self
    time is a span's duration minus the time its child spans cover.
    """
    table = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        row["count"] += 1
        row["durations"].append(end - start)
        row["self_s"] += end - start - child_time[i]
        if not _has_ancestor(spans, parent, name):
            row["total_s"] += end - start
    return table


def _has_ancestor(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def percentile(values, q):
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[k]


def layer_metrics(trace, out_dir):
    """Per-layer metrics of one traced study; None where the study does no such work."""
    table = span_table(trace["spans"])
    counts = trace["counts"]

    def total(name):
        return table[name]["total_s"] if name in table else None

    def per(num, den, scale=1.0):
        return None if num is None or not den else scale * num / den

    cycles_est = counts.get("process.cycles.estimation", 0)
    cycles_hor = counts.get("process.cycles.horizon", 0)
    steps = counts.get("process.chain_steps", 0)
    segments = table.get("functionals.integrate_segment", {}).get("count", 0)
    advance = table.get("plaplace.advance", {}).get("durations", [])
    solves = table.get("plaplace.solve", {}).get("durations", [])
    draws = counts.get("driver.beta_draws", 0) + counts.get("driver.eta_draws", 0)
    process_s = (total("process.cycle_moments") or 0.0) + (total("process.horizon") or 0.0)
    flow_at = counts.get("plaplace.flow_at", 0)
    m = {
        "config.load_s": total("config.load"),
        "config.build_setup_s": total("config.build_setup"),
        "plaplace.kappa_fit_s": total("plaplace.kappa_fit"),
        "runner.estimation_s": total("runner.estimation"),
        "runner.horizon_s": total("runner.horizon"),
        "runner.validate_s": total("runner.validate"),
        "process.us_per_cycle": per(total("process.cycle_moments"), cycles_est, 1e6),
        "process.ms_per_replicate": per(
            total("process.horizon"), table.get("process.horizon", {}).get("count"), 1e3
        ),
        "process.records_us_per_cycle": per(
            total("process.simulate_cycles"), counts.get("process.records"), 1e6
        ),
        "process.grid_s_per_step": per(process_s, steps),
        "process.chain_steps": steps or None,
        "process.cycles": cycles_est + cycles_hor + counts.get("process.records", 0),
        "functionals.segments": segments or None,
        "functionals.evals": counts.get("functionals.evals") if segments else None,
        "functionals.evals_per_segment": per(counts.get("functionals.evals"), segments),
        "functionals.self_ms_per_segment": per(
            table.get("functionals.integrate_segment", {}).get("self_s"), segments, 1e3
        ),
        "functionals.err_max": counts.get("functionals.err_max") if segments else None,
        "plaplace.advance.full": counts.get("plaplace.advance.full", 0) if advance else None,
        "plaplace.advance.partial": counts.get("plaplace.advance.partial", 0) if advance else None,
        "plaplace.advance_us_p50": 1e6 * percentile(advance, 0.5) if advance else None,
        "plaplace.advance_us_p99": 1e6 * percentile(advance, 0.99) if advance else None,
        "plaplace.solves": len(solves) or None,
        "plaplace.solves_per_advance": per(len(solves), len(advance)),
        "plaplace.solve_us": 1e6 * statistics.median(solves) if solves else None,
        "plaplace.flow_at": flow_at or None,
        "plaplace.flow_at_repeat_frac": per(counts.get("plaplace.flow_at_repeat", 0), flow_at),
        "driver.beta_draws": counts.get("driver.beta_draws"),
        "driver.eta_draws": counts.get("driver.eta_draws"),
        "driver.sample_us": per(counts.get("driver.sample_s"), draws, 1e6),
        "driver.drift_mc_s": total("driver.drift_mc"),
        "estimators.s": total("estimators"),
        "report.write_s": total("report.write"),
        "report.bytes": sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
        ),
        "cli.overhead_s": table["cli.main"]["self_s"],
        "cli.import_s": trace["import_s"],
    }
    return m, table


def source_lines():
    pkg = os.path.join(SRC, "regenjump")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines[f"src.lines.{name[:-3]}"] = len(fh.read().splitlines())
    lines["src.lines.total"] = sum(lines.values())
    return lines


def pool_probe(study, trace_entry):
    """``runner.pool_speedup``: the study's task lists at 1 worker over 2 workers.

    None, with the probe counted as a failed invocation, when it does not
    exit cleanly with its two times.
    """
    log_path = os.path.join(study.dir, "probe.log")
    res = run_child(cli_argv(study.name, study.ini(0), os.path.join(study.dir, "probe"), 1,
                             trace_entry + ["--pool-probe", "--"]), log_path)
    study.attempted += 1
    try:
        if res["exit"] != 0:
            raise ValueError(f"exit code {res['exit']}")
        with open(log_path, encoding="utf-8") as fh:
            times = json.loads(fh.read().strip().splitlines()[-1])
        return times["1"] / times["2"]
    except (OSError, ValueError, IndexError, KeyError, TypeError, ZeroDivisionError) as exc:
        study.fail("probe", study.inputs[0][0], [f"pool probe: {exc}"])
        return None


def traced(seed, whys, references):
    """Trace every workload; each layer metric from its source workload, and the check tally."""
    trace_entry = [sys.executable, os.path.join(BENCH, "trace.py")]
    metrics, report = {}, {}
    attempted = failed = 0
    for name in WORKLOADS:
        study = Study(name, seed, whys, references)
        study.invoke("threads2", 2)
        spans_path = os.path.join(study.dir, "spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        res = study.invoke("traced", 1, entry=trace_entry + ["--spans", spans_path, "--"])
        layer = {}
        if res["ok"] and os.path.exists(spans_path):
            layer, table = layer_metrics(load_json(spans_path), res["out_dir"])
            report[name] = {
                "master_seed": res["master_seed"],
                "spans": {k: {kk: vv for kk, vv in v.items() if kk != "durations"}
                          for k, v in table.items()},
                "layer_metrics": layer,
            }
        elif res["ok"]:
            study.fail("traced", res["master_seed"], ["the traced study wrote no spans"])
        if name == OVERHEAD_WORKLOAD:
            plain = study.invoke("untraced", 1, entry=trace_entry + ["--off", "--"])
            if report.get(name) and plain["ok"]:
                layer["trace.overhead_frac"] = (res["wall_s"] - plain["wall_s"]) / plain["wall_s"]
        if name == POOL_PROBE_WORKLOAD:
            layer["runner.pool_speedup"] = pool_probe(study, trace_entry)
        for key in LAYER_SOURCES[name]:
            if layer.get(key) is not None:
                metrics[key] = layer[key]
        attempted += study.attempted
        failed += study.failed
    metrics.update(source_lines())
    with open(os.path.join(WORK, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"sources": LAYER_SOURCES, "workloads": report}, fh, indent=1)
    for name, entry in report.items():
        print(f"span self times, {name}:")
        for span, row in sorted(entry["spans"].items()):
            print(f"  {span:32s} n={row['count']:<8d} total {row['total_s']:10.4f} s"
                  f"  self {row['self_s']:10.4f} s")
    return metrics, attempted, failed


# --------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    for needed in ("BENCHMARK.json", "src/regenjump/cli.py", "configs/scalar.ini",
                   "configs/plaplace.ini"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"bench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    references = load_json(os.path.join(BENCH, "reference.json"))
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out, attempted, failed, missing = {}, 0, 0, []
    if args.trace:
        metrics, attempted, failed = traced(args.seed, whys, references)
        source = {key: name for name, keys in LAYER_SOURCES.items() for key in keys}
        for key, unit in units.items():
            if key not in metrics:
                missing.append(key)
                print(f"{key}: not measured, {source.get(key, 'no workload')} gave no value")
                continue
            print(f"{key} = {metrics[key]:.6g} {unit}  (from {source.get(key, 'src')})")
            out[key] = {"value": metrics[key], "unit": unit}
    else:
        for name in names:
            print(f"workload {name}: {whys[name]}", flush=True)
            study = Study(name, args.seed, whys, references)
            metrics = end_to_end(study, args.seconds)
            attempted += study.attempted
            failed += study.failed
            print(f"  failed_frac = {study.failed / study.attempted:.6g} "
                  f"({study.failed} of {study.attempted} invocations)")
            prefix = f"{name}." if args.workload == "all" else ""
            for key, unit in units.items():
                print(f"  {key} = {metrics[key]:.6g} {unit}")
                out[prefix + key] = {"value": metrics[key], "unit": unit}
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
