"""Span tracing of one ``regenjump`` CLI study, applied from outside the package.

Run as a child process by ``bench/run.py``::

    python bench/trace.py --spans OUT.json [--off] -- <regenjump CLI arguments>
    python bench/trace.py --pool-probe -- <regenjump CLI arguments>

With tracing on, module entry points of ``regenjump`` are replaced by
wrappers that record a span ``(name, start, end, parent)`` per call and a few
counts, all kept in memory and written to ``OUT.json`` when the study ends.
Wrappers are installed in the namespace of the caller (``runner.cycle_moments``
rather than ``process.cycle_moments``) because the package binds imported
names at import time.  Nothing the program computes is changed, so the
outputs stay byte-identical to an untraced run.

``--off`` runs the same entry point without wrappers (the untraced baseline
for the tracing overhead).  ``--pool-probe`` times the study's estimation and
horizon task lists at 1 and at 2 workers and prints the two times as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time
import weakref

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Tracer:
    """In-memory span list with a parent stack, plus named counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """Span around every call of ``fn``; ``after(result, args)`` adds counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            spans[index][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, after=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def dump(self, path, extra):
        payload = {
            "spans": self.spans,
            "counts": self.counts,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _CountingRng:
    """Stream proxy counting the values drawn and the time spent drawing."""

    def __init__(self, rng, tracer, role):
        self._rng = rng
        self._tracer = tracer
        self._role = role

    def __getattr__(self, attr):
        method = getattr(self._rng, attr)
        if not callable(method):
            return method
        tracer, role = self._tracer, self._role

        def draw(*args, **kwargs):
            t0 = time.perf_counter()
            out = method(*args, **kwargs)
            tracer.add("driver.sample_s", time.perf_counter() - t0)
            tracer.add(f"driver.{role}_draws", int(np.size(out)))
            return out

        return draw


def install(tracer):
    """Wrap the layer boundaries of every ``regenjump`` module the studies use."""
    from regenjump import cli, config, driver, plaplace, process, report, runner

    # config: parse and setup; the grid kappa fit runs inside build_setup
    tracer.patch(cli, "load_config", "config.load")
    tracer.patch(config.ExperimentConfig, "build_setup", "config.build_setup")
    tracer.patch(config, "run_kappa_fit", "plaplace.kappa_fit")

    # runner phases and the drift Monte Carlo they call
    tracer.patch(cli, "require_valid_drift", "runner.validate")
    tracer.patch(runner, "check_drift_condition", "driver.drift_mc")
    tracer.patch(runner, "run_cycle_estimation", "runner.estimation")
    tracer.patch(runner, "run_horizon_replicates", "runner.horizon")
    for attr in ("run_slln", "run_clt"):  # study drivers: reductions between phases
        tracer.patch(cli, attr, "runner.study")

    # process: one span per estimation shard, horizon replicate, record stream
    def moments_done(result, args):
        tracer.add("process.cycles.estimation", result.n)

    def horizon_done(result, args):
        tracer.add("process.cycles.horizon", int(result.cycle_tau.shape[0]))

    tracer.patch(runner, "cycle_moments", "process.cycle_moments", moments_done)
    tracer.patch(runner, "simulate_until_time", "process.horizon", horizon_done)

    # the cycles.csv record stream is a generator: drain it inside the span
    cli_cycles = cli.simulate_cycles
    records = tracer.wrap("process.simulate_cycles", lambda *a, **k: list(cli_cycles(*a, **k)))

    def simulate_cycles(*args, **kwargs):
        out = records(*args, **kwargs)
        tracer.add("process.records", len(out))
        return iter(out)

    cli.simulate_cycles = simulate_cycles

    # functionals: one span per segment integral on the generic (grid) path
    def segment_done(result, args):
        tracer.add("functionals.evals", result.n_evals)
        tracer.counts["functionals.err_max"] = max(
            tracer.counts.get("functionals.err_max", 0.0), result.abs_error_estimate
        )

    tracer.patch(process, "integrate_segment", "functionals.integrate_segment", segment_done)

    # plaplace: chain steps (one segment flow each), flow evaluations,
    # implicit-Euler steps (full or partial) and the banded solves inside them
    sg_cls = plaplace.PLaplaceSemigroup
    segment_flow = sg_cls.segment_flow

    def counted_segment_flow(self, v):
        tracer.add("process.chain_steps")
        return segment_flow(self, v)

    sg_cls.segment_flow = counted_segment_flow

    seen = weakref.WeakKeyDictionary()
    flow_at = plaplace._SegmentFlow.at

    def counted_at(self, tau):
        tracer.add("plaplace.flow_at")
        taus = seen.setdefault(self, set())
        if tau in taus:
            tracer.add("plaplace.flow_at_repeat")
        taus.add(tau)
        return flow_at(self, tau)

    plaplace._SegmentFlow.at = counted_at

    advance = tracer.wrap("plaplace.advance", sg_cls._advance)

    def counted_advance(self, vals, dt):
        tracer.add("plaplace.advance.full" if dt == self.cfg.dt else "plaplace.advance.partial")
        return advance(self, vals, dt)

    sg_cls._advance = counted_advance
    tracer.patch(plaplace, "solveh_banded", "plaplace.solve")

    # driver: count draws on the replicate streams the simulation consumes
    streams = driver.DriverConfig.streams

    def counted_streams(self, replicate_index):
        s = streams(self, replicate_index)
        return driver.ReplicateStreams(
            beta_rng=_CountingRng(s.beta_rng, tracer, "beta"),
            eta_rng=_CountingRng(s.eta_rng, tracer, "eta"),
        )

    driver.DriverConfig.streams = counted_streams

    # estimators called by the study drivers
    for attr in ("stats_from_moments", "clt_statistic", "ks_test_normal", "anscombe_check"):
        tracer.patch(runner, attr, "estimators")

    # report: every file the CLI writes goes through one of these
    for attr in ("write_json", "write_csv", "line_plot_svg", "histogram_svg"):
        tracer.patch(report, attr, "report.write")
    tracer.patch(report.RunManifest, "write", "report.write")

    tracer.patch(cli, "main", "cli.main")


def _pool_probe(argv):
    """Time the study's estimation and horizon task lists at 1 and 2 workers."""
    from regenjump import cli, runner

    args = cli._build_parser().parse_args(argv)
    cfg = cli.load_config(args.config)
    setup = cfg.build_setup()
    plan = cfg.plan
    if args.command == "clt":
        t_end, checkpoints = plan.clt_t, None
    else:
        t_end, checkpoints = plan.t_end, plan.checkpoints or None
    times = {}
    for threads in (1, 2):
        t0 = time.perf_counter()
        runner.run_cycle_estimation(setup, plan.n_cycles, plan.est_shards, threads)
        runner.run_horizon_replicates(setup, t_end, checkpoints, plan.n_replicates, threads)
        times[str(threads)] = time.perf_counter() - t0
    print(json.dumps(times))
    return 0


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1 :]
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    if "--pool-probe" in opts:
        return _pool_probe(cli_args)
    t0 = time.perf_counter()
    from regenjump import cli

    import_s = time.perf_counter() - t0
    if "--off" in opts:
        return cli.main(cli_args)
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    tracer.dump(opts[opts.index("--spans") + 1], {"import_s": import_s, "exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
