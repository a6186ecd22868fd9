"""Command-line harness.

Subcommands: validate | semigroup-check | kappa-fit | slln | clt | anscombe,
each taking --config <path> --out <dir> [--threads N] [--force].

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

_SCALAR_TOL = 1e-12
_MASS_TOL = 1e-10
_LQ_TOL = 1e-9
_FIT_TOL = 1e-9


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


def _write_summary(out_dir, manifest, payload):
    path = os.path.join(out_dir, "summary.json")
    report.write_json(path, payload)
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
    _write_summary(args.out, manifest, result)
    if not result["ok"] and not args.force:
        print("drift condition VIOLATED")
        return EXIT_DRIFT
    print("drift condition ok" if result["ok"] else "drift violated (forced)")
    return EXIT_OK


def _cmd_semigroup_check(cfg, setup, args, manifest) -> int:
    result = run_semigroup_check(setup)
    summary = result["summary"]
    if cfg.backend == "plaplace":
        fit = summary["kappa_fit"] = setup.kappa_fit.as_dict()  # fitted by build_setup
        tolerances = {
            "max_semigroup_residual": 0.0,
            "max_contraction_residual": _LQ_TOL,
            "max_identity_residual": 0.0,
            "max_mass_residual": _MASS_TOL,
            "max_lq_contraction_residual": _LQ_TOL,
        }
        ok = all(summary[k] <= tol for k, tol in tolerances.items())
        ok = ok and fit["fit_residual"] <= _FIT_TOL and fit["kappa_emp"] > 0.0
    else:
        tolerances = {
            "max_semigroup_residual": _SCALAR_TOL,
            "max_contraction_residual": _SCALAR_TOL,
            "max_identity_residual": _SCALAR_TOL,
            "max_extinction_equality_residual": _SCALAR_TOL,
        }
        ok = all(summary[k] <= tol for k, tol in tolerances.items())
    summary["tolerances"] = tolerances
    summary["pass"] = ok
    rows = result["rows"]
    header = sorted({k for row in rows for k in row})
    csv_path = os.path.join(args.out, "semigroup_residuals.csv")
    report.write_csv(csv_path, header, rows)
    manifest.add_output(csv_path)
    _write_summary(args.out, manifest, summary)
    for key, tol in tolerances.items():
        print(f"{key}: {summary[key]:.3e} (tol {tol:.1e})")
    print("semigroup check:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_STATS


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
    csv_path = os.path.join(args.out, "kappa_fit.csv")
    report.write_csv(csv_path, ["sample", "t", "norm_pow_rho"], rows)
    manifest.add_output(csv_path)
    svg_path = os.path.join(args.out, "kappa_fit.svg")
    report.line_plot_svg(
        svg_path,
        series[:8],
        title=f"decay of ||u||^rho (kappa_emp = {fit.kappa_emp:.4g})",
        xlabel="t",
        ylabel="||u(t)||_2^rho",
    )
    manifest.add_output(svg_path)
    _write_summary(args.out, manifest, result["summary"])
    print(
        f"kappa_emp = {fit.kappa_emp:.6g} (rho = {fit.rho_used:.3g}), "
        f"fit residual = {fit.fit_residual:.3e}, samples = {fit.n_samples_used}"
    )
    ok = fit.kappa_emp > 0 and fit.fit_residual <= _FIT_TOL
    return EXIT_OK if ok else EXIT_STATS


def _cmd_slln(cfg, setup, args, manifest) -> int:
    result = run_slln(setup, cfg.plan, threads=args.threads)
    curves = result["curves"]
    header = sorted({k for row in curves for k in row})
    csv_path = os.path.join(args.out, "slln_curve.csv")
    report.write_csv(csv_path, header, curves)
    manifest.add_output(csv_path)
    summary = result["summary"]
    label = next(iter(summary["functionals"]))
    info = summary["functionals"][label]
    reps = result["replicates"]
    xs = reps.checkpoints
    ys = reps.integrals[label][0] / xs
    svg_path = os.path.join(args.out, "slln.svg")
    nu = info["nu_hat"]
    half = 3.0 * info["combined_se"]
    report.line_plot_svg(
        svg_path,
        [(f"time average of {label}", xs, ys)],
        title=f"running time average vs cycle estimate ({label})",
        xlabel="t",
        ylabel="average",
        hline=nu,
        hband=(nu - half, nu + half),
        logx=bool(len(xs) > 2 and xs[0] > 0),
    )
    manifest.add_output(svg_path)
    _write_summary(args.out, manifest, summary)
    for lbl, info in summary["functionals"].items():
        print(
            f"{lbl}: nu_hat = {info['nu_hat']:.6g} +- {info['se_nu']:.2g}, "
            f"two-route agree: {info['two_route_agree']}"
        )
    return EXIT_OK if summary["pass"] else EXIT_STATS


def _write_cycles_csv(cfg, setup, args, manifest, n_max=10_000):
    """Per-cycle table from the first estimation shard (same stream, same values)."""
    n_shards = max(1, min(cfg.plan.est_shards, cfg.plan.n_cycles))
    n_record = min(n_max, cfg.plan.n_cycles // n_shards or 1)
    x0 = setup.initial_state(ESTIMATION_SHARD_BASE)
    rows = []
    for rec in simulate_cycles(
        x0,
        setup.driver,
        setup.sg,
        setup.policy,
        n_record,
        setup.functionals,
        replicate_index=ESTIMATION_SHARD_BASE,
    ):
        row = {
            "n": rec.n,
            "is_warmup": rec.is_warmup,
            "m_start": rec.m_start,
            "m_end": rec.m_end,
            "t_start": rec.t_start,
            "t_end": rec.t_end,
            "tau": rec.tau,
            "steps": rec.steps,
        }
        for label, value in rec.integrals.items():
            if np.ndim(value) == 0:
                row[f"S_{label}"] = float(value)
            else:
                row[f"S_{label}_norm"] = float(np.linalg.norm(np.asarray(value)))
        rows.append(row)
    header = sorted({k for row in rows for k in row})
    csv_path = os.path.join(args.out, "cycles.csv")
    report.write_csv(csv_path, header, rows)
    manifest.add_output(csv_path)


def _cmd_clt(cfg, setup, args, manifest) -> int:
    result = run_clt(setup, cfg.plan, threads=args.threads)
    _write_cycles_csv(cfg, setup, args, manifest)
    if result.get("vector"):
        summary = {k: v for k, v in result.items() if k != "q_hat"}
        summary["note"] = "vector-valued functional: covariance route (no replicate KS)"
        _write_summary(args.out, manifest, summary)
        print(
            f"covariance eigenvalues in [{result['q_min_eigenvalue']:.3e}, "
            f"{float(np.max(result['q_eigenvalues'])):.3e}], "
            f"projection gap {result['projection_gap']:.2e}"
        )
        return EXIT_OK if result["pass"] else EXIT_STATS
    summary = {
        "t": result["t"],
        "label": result["label"],
        "nu_hat": result["nu_hat"],
        "sigma2_hat": result["sigma2_hat"],
        "mean_tau": result["mean_tau"],
        "n_replicates": result["n_replicates"],
        "n_cycles_estimation": result["n_cycles_estimation"],
        "degenerate": result["degenerate"],
        "pass": result["pass"],
    }
    if result["degenerate"]:
        summary["note"] = result["note"]
        summary["max_abs_statistic"] = result["max_abs_statistic"]
        rows = [{"replicate": i, "raw": float(v)} for i, v in enumerate(result["raw_statistics"])]
        csv_path = os.path.join(args.out, "clt_samples.csv")
        report.write_csv(csv_path, ["replicate", "raw"], rows)
        manifest.add_output(csv_path)
        _write_summary(args.out, manifest, summary)
        print("deterministic configuration: CLT limit is the point mass at 0")
        return EXIT_OK if result["pass"] else EXIT_STATS
    summary["ks_clt"] = result["ks_clt"].as_dict()
    summary["ks_anscombe"] = result["ks_anscombe"].as_dict()
    summary["var_ratio"] = result["var_ratio"]
    rows = [
        {
            "replicate": i,
            "raw": float(raw),
            "standardized": float(std),
            "anscombe_sum_s": result["anscombe_samples"][i][0],
            "anscombe_sum_tau": result["anscombe_samples"][i][1],
        }
        for i, (raw, std) in enumerate(
            zip(result["raw_statistics"], result["standardized_statistics"])
        )
    ]
    csv_path = os.path.join(args.out, "clt_samples.csv")
    report.write_csv(
        csv_path,
        ["replicate", "raw", "standardized", "anscombe_sum_s", "anscombe_sum_tau"],
        rows,
    )
    manifest.add_output(csv_path)
    svg_path = os.path.join(args.out, "clt_hist.svg")
    report.histogram_svg(
        svg_path,
        result["standardized_statistics"],
        title=f"standardized fluctuation at t = {result['t']:g}",
        xlabel="statistic / sigma_hat",
        overlay_pdf=lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
    )
    manifest.add_output(svg_path)
    _write_summary(args.out, manifest, summary)
    print(
        f"CLT KS p = {summary['ks_clt']['p_value']:.4g}, "
        f"Anscombe KS p = {summary['ks_anscombe']['p_value']:.4g}, "
        f"var ratio = {summary['var_ratio']:.4g}"
    )
    return EXIT_OK if result["pass"] else EXIT_STATS


def _cmd_anscombe(cfg, setup, args, manifest) -> int:
    schedule = cfg.theta_schedule or [100.0, 300.0, 1000.0]
    result = run_anscombe(setup, cfg.plan, schedule, threads=args.threads)
    summary = {
        "label": result["label"],
        "degenerate": result["degenerate"],
        "pass": result["pass"],
    }
    if result["degenerate"]:
        summary["note"] = result["note"]
        _write_summary(args.out, manifest, summary)
        print("deterministic configuration: random-index limit is a point mass")
        return EXIT_OK
    rows = [
        {
            "theta": entry["theta"],
            "t": entry["t"],
            "ks_statistic": entry["report"].statistic,
            "p_value": entry["report"].p_value,
            "passed": entry["report"].passed,
        }
        for entry in result["reports"]
    ]
    csv_path = os.path.join(args.out, "anscombe_table.csv")
    report.write_csv(csv_path, ["theta", "t", "ks_statistic", "p_value", "passed"], rows)
    manifest.add_output(csv_path)
    summary["nu_hat"] = result["nu_hat"]
    summary["sigma2_hat"] = result["sigma2_hat"]
    summary["mean_tau"] = result["mean_tau"]
    summary["table"] = rows
    _write_summary(args.out, manifest, summary)
    for row in rows:
        print(f"theta = {row['theta']:g}: KS p = {row['p_value']:.4g}")
    return EXIT_OK if result["pass"] else EXIT_STATS


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
