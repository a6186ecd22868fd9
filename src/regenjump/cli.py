"""Command-line harness.

Subcommands: validate | semigroup-check | kappa-fit | slln | clt | anscombe,
each taking --config <path> --out <dir> [--threads N] [--force].  Each runs
its study in ``runner``, writes what the study returns, and prints.

Exit codes: 0 success, 1 config/parse error, 2 drift violation,
3 statistical suite failure, 4 runtime (solver) error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import report
from .config import load_config
from .errors import (
    ConfigError,
    CycleCapExceeded,
    DriftViolated,
    InsufficientCycles,
    NoExtinction,
    NonConvergence,
    QuadratureBudgetExceeded,
)
from .process import simulate_cycles
from .runner import (
    ESTIMATION_SHARD_BASE,
    require_valid_drift,
    run_anscombe,
    run_clt,
    run_kappa_fit,
    run_semigroup_check,
    run_slln,
    run_validate,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DRIFT = 2
EXIT_STATS = 3
EXIT_RUNTIME = 4

_CYCLES_CSV_MAX = 10_000  # records in clt's cycles.csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regenjump",
        description=(
            "Simulate regenerative jump processes driven by finitely "
            "extinguishing semigroups and verify their limit theorems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("validate", "check the drift condition and moment sanity"),
        ("semigroup-check", "axiom residual suite on a seeded corpus"),
        ("kappa-fit", "fit the empirical extinction rate (grid backend)"),
        ("slln", "running time averages against the cycle estimate"),
        ("clt", "fluctuation statistics at a fixed horizon"),
        ("anscombe", "random-index normalized sums along a schedule"),
    ]:
        cmd = sub.add_parser(name, help=descr)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--threads", type=int, default=1, help="worker processes (at least 1)")
        cmd.add_argument(
            "--force", action="store_true", help="run even if the drift check fails"
        )
    return parser


def _output(args, manifest, name: str) -> str:
    """The path of an output file in --out, listed in the manifest."""
    path = os.path.join(args.out, name)
    manifest.add_output(path)
    return path


def _cmd_validate(cfg, setup, args, manifest) -> int:
    result = run_validate(setup, cfg.plan)
    drift = result["drift"]
    print(
        f"drift estimate: {drift['lhs_estimate']:.6g} "
        f"+- {drift['ci_halfwidth']:.6g} (99% CI), "
        f"kappa source: {result['kappa_source']} "
        f"(kappa = {result['kappa']:.6g}, rho = {result['rho']:.6g})"
    )
    print(
        "moment sanity: beta^12 = {beta_moment_12:.6g}, "
        "||eta||_V2^4 = {eta_v2_moment_4:.6g}".format(**result["moment_sanity"])
    )
    report.write_json(_output(args, manifest, "summary.json"), result)
    if not result["ok"] and not args.force:
        print("drift condition VIOLATED")
        return EXIT_DRIFT
    print("drift condition ok" if result["ok"] else "drift violated (forced)")
    return EXIT_OK


def _cmd_semigroup_check(cfg, setup, args, manifest) -> int:
    result = run_semigroup_check(setup)
    summary, rows = result["summary"], result["rows"]
    header = sorted({k for row in rows for k in row})
    report.write_csv(_output(args, manifest, "semigroup_residuals.csv"), header, rows)
    report.write_json(_output(args, manifest, "summary.json"), summary)
    for key, tol in summary["tolerances"].items():
        print(f"{key}: {summary[key]:.3e} (tol {tol:.1e})")
    print("semigroup check:", "PASS" if summary["pass"] else "FAIL")
    return EXIT_OK if summary["pass"] else EXIT_STATS


def _cmd_kappa_fit(cfg, setup, args, manifest) -> int:
    result = run_kappa_fit(
        setup,
        n_samples=max(cfg.kappa_samples, 20),
        t_cap=cfg.kappa_t_cap,
        prior=setup.kappa_fit,  # the first kappa_samples states, fitted by build_setup
    )
    fit = result["fit"]
    rows = []
    series = []
    for i, (times, gpow) in enumerate(fit.traces):
        for t, g in zip(times, gpow):
            rows.append({"sample": i, "t": float(t), "norm_pow_rho": float(g)})
        series.append((f"sample {i}", times, gpow))
    report.write_csv(
        _output(args, manifest, "kappa_fit.csv"), ["sample", "t", "norm_pow_rho"], rows
    )
    report.line_plot_svg(
        _output(args, manifest, "kappa_fit.svg"),
        series[:8],
        title=f"decay of ||u||^rho (kappa_emp = {fit.kappa_emp:.4g})",
        xlabel="t",
        ylabel="||u(t)||_2^rho",
    )
    report.write_json(_output(args, manifest, "summary.json"), result["summary"])
    print(
        f"kappa_emp = {fit.kappa_emp:.6g} (rho = {fit.rho_used:.3g}), "
        f"fit residual = {fit.fit_residual:.3e}, samples = {fit.n_samples_used}"
    )
    return EXIT_OK if result["pass"] else EXIT_STATS


def _cmd_slln(cfg, setup, args, manifest) -> int:
    result = run_slln(setup, cfg.plan, threads=args.threads)
    curves = result["curves"]
    header = sorted({k for row in curves for k in row})
    report.write_csv(_output(args, manifest, "slln_curve.csv"), header, curves)
    summary = result["summary"]
    label = next(iter(summary["functionals"]))
    info = summary["functionals"][label]
    reps = result["replicates"]
    xs = reps.checkpoints
    ys = reps.integrals[label][0] / xs
    nu = info["nu_hat"]
    half = 3.0 * info["combined_se"]
    report.line_plot_svg(
        _output(args, manifest, "slln.svg"),
        [(f"time average of {label}", xs, ys)],
        title=f"running time average vs cycle estimate ({label})",
        xlabel="t",
        ylabel="average",
        hline=nu,
        hband=(nu - half, nu + half),
        logx=bool(len(xs) > 2 and xs[0] > 0),
    )
    report.write_json(_output(args, manifest, "summary.json"), summary)
    for lbl, info in summary["functionals"].items():
        print(
            f"{lbl}: nu_hat = {info['nu_hat']:.6g} +- {info['se_nu']:.2g}, "
            f"two-route agree: {info['two_route_agree']}"
        )
    return EXIT_OK if summary["pass"] else EXIT_STATS


def _write_cycles_csv(cfg, setup, args, manifest):
    """Per-cycle table from the first estimation shard (same stream, same values)."""
    plan = cfg.plan
    n_record = min(_CYCLES_CSV_MAX, plan.n_cycles // min(plan.est_shards, plan.n_cycles))
    x0 = setup.initial_state(ESTIMATION_SHARD_BASE)
    cycles = simulate_cycles(
        x0,
        setup.driver,
        setup.sg,
        setup.policy,
        n_record,
        setup.functionals,
        replicate_index=ESTIMATION_SHARD_BASE,
    )
    fields = ("m_start", "m_end", "t_start", "t_end", "tau", "steps")
    # columns from the rows, the warm-up first: bench/trace.py passes rows on
    cols = list(zip(*cycles))
    n = np.arange(len(cols[0]))
    columns = {"n": n, "is_warmup": n == 0, **dict(zip(fields, cols))}
    for xi, s in zip(setup.functionals, cols[len(fields) :]):
        if xi.vector_valued:  # row by row: a norm along axis 1 of a stack may round differently
            columns[f"S_{xi.label}_norm"] = [float(np.linalg.norm(np.asarray(v))) for v in s]
        else:
            columns[f"S_{xi.label}"] = s
    header = sorted(columns)
    report.write_columns(
        _output(args, manifest, "cycles.csv"), header, [columns[k] for k in header]
    )


def _cmd_clt(cfg, setup, args, manifest) -> int:
    result = run_clt(setup, cfg.plan, threads=args.threads)
    _write_cycles_csv(cfg, setup, args, manifest)
    summary = result["summary"]
    report.write_json(_output(args, manifest, "summary.json"), summary)
    if summary.get("vector"):
        print(
            f"covariance eigenvalues in [{summary['q_min_eigenvalue']:.3e}, "
            f"{float(np.max(summary['q_eigenvalues'])):.3e}], "
            f"projection gap {summary['projection_gap']:.2e}"
        )
    elif summary["degenerate"]:
        raw = result["raw"]
        report.write_columns(
            _output(args, manifest, "clt_samples.csv"),
            ["replicate", "raw"],
            [np.arange(len(raw)), raw],
        )
        print("deterministic configuration: CLT limit is the point mass at 0")
    else:
        columns = [result[key] for key in ("raw", "standardized", "sum_s", "sum_tau")]
        header = ["replicate", "raw", "standardized", "anscombe_sum_s", "anscombe_sum_tau"]
        report.write_columns(
            _output(args, manifest, "clt_samples.csv"),
            header,
            [np.arange(len(columns[0])), *columns],
        )
        report.histogram_svg(
            _output(args, manifest, "clt_hist.svg"),
            result["standardized"],
            title=f"standardized fluctuation at t = {summary['t']:g}",
            xlabel="statistic / sigma_hat",
            overlay_pdf=lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
        )
        print(
            f"CLT KS p = {summary['ks_clt'].p_value:.4g}, "
            f"Anscombe KS p = {summary['ks_anscombe'].p_value:.4g}, "
            f"var ratio = {summary['var_ratio']:.4g}"
        )
    return EXIT_OK if summary["pass"] else EXIT_STATS


def _cmd_anscombe(cfg, setup, args, manifest) -> int:
    schedule = cfg.theta_schedule or [100.0, 300.0, 1000.0]
    summary = run_anscombe(setup, cfg.plan, schedule, threads=args.threads)["summary"]
    report.write_json(_output(args, manifest, "summary.json"), summary)
    if summary["degenerate"]:
        print("deterministic configuration: random-index limit is a point mass")
        return EXIT_OK
    header = ["theta", "t", "ks_statistic", "p_value", "passed"]
    report.write_csv(_output(args, manifest, "anscombe_table.csv"), header, summary["table"])
    for row in summary["table"]:
        print(f"theta = {row['theta']:g}: KS p = {row['p_value']:.4g}")
    return EXIT_OK if summary["pass"] else EXIT_STATS


_NEEDS_DRIFT = {"slln", "clt", "anscombe"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print(f"config error: --threads must be at least 1, not {args.threads}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    manifest = report.RunManifest(
        command=args.command,
        config_hash=cfg.hash(),
        master_seed=cfg.master_seed,
        threads=args.threads,
    )
    try:
        if args.command == "kappa-fit" and cfg.backend != "plaplace":
            raise ConfigError("kappa-fit needs the plaplace backend")
        setup = cfg.build_setup()
        os.makedirs(args.out, exist_ok=True)  # only once the config is known to build
        if args.command in _NEEDS_DRIFT:
            require_valid_drift(setup, cfg.plan, force=args.force)
        handler = {
            "validate": _cmd_validate,
            "semigroup-check": _cmd_semigroup_check,
            "kappa-fit": _cmd_kappa_fit,
            "slln": _cmd_slln,
            "clt": _cmd_clt,
            "anscombe": _cmd_anscombe,
        }[args.command]
        code = handler(cfg, setup, args, manifest)
    except (ConfigError, InsufficientCycles) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DriftViolated as exc:
        print(f"drift violation: {exc}", file=sys.stderr)
        manifest.write(args.out)
        return EXIT_DRIFT
    except (NonConvergence, NoExtinction, CycleCapExceeded, QuadratureBudgetExceeded) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        manifest.write(args.out)
        return EXIT_RUNTIME
    manifest.write(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
