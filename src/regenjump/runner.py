"""Experiment orchestration: replicate pools, estimation runs, and studies.

Replicate-level work is embarrassingly parallel; each task owns its RNG
streams (derived from the master seed and the replicate index alone), results
are merged in index order, and estimator reductions run in a fixed order, so
outputs are byte-identical for 1 or N workers.  Large cycle-estimation runs
are split into a fixed number of shards with their own stream indices; the
shard count is part of the experiment definition, not of the execution
environment.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .driver import (
    DriverConfig,
    check_drift_condition,
    derive_replicate_rng,
    grid_kick_norms,
)
from .errors import ConfigError, DriftViolated
from .estimators import (
    anscombe_check,
    clt_statistic,
    ks_test_normal,
    stats_from_moments,
)
from .functionals import QuadratureConfig, DEFAULT_QUADRATURE
from .plaplace import PLaplaceSemigroup, estimate_kappa
from .process import (
    CycleMoments,
    ExtinctionPolicy,
    cycle_moments,
    simulate_until_time,
)
from .semigroup import ScalarPowerLaw, check_semigroup_axioms
from .spaces import StateVector, project_zero_mean

__all__ = [
    "ExperimentSetup",
    "RunPlan",
    "run_cycle_estimation",
    "run_validate",
    "run_semigroup_check",
    "run_kappa_fit",
    "run_slln",
    "run_clt",
    "run_anscombe",
]

# Stream-index namespaces (replicate axis of the seed derivation).
ESTIMATION_SHARD_BASE = 1_000_000
CORPUS_REPLICATE = 2_000_000
INITIAL_STREAM = 2


@dataclass
class ExperimentSetup:
    """Everything needed to run one experiment except the run sizes."""

    sg: object
    driver: DriverConfig
    policy: ExtinctionPolicy
    functionals: list
    initial_spec: tuple = ("zero",)
    quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE
    kappa_fit: object = None  # attached for the grid backend at build time

    @property
    def space(self):
        return self.sg.space

    def extinction_rate(self) -> tuple[float, float, str]:
        """(kappa, rho, source) for the drift condition."""
        if isinstance(self.sg, ScalarPowerLaw):
            return self.sg.kappa, self.sg.rho, "exact"
        if self.kappa_fit is None:
            raise ValueError("grid backend needs a kappa fit before validation")
        return self.kappa_fit.kappa_emp, self.kappa_fit.rho_used, "empirical"

    def initial_state(self, replicate_index: int) -> StateVector:
        kind = self.initial_spec[0]
        space = self.space
        if kind == "zero":
            return space.zero()
        if kind == "value":
            return space.state([self.initial_spec[1]])
        if kind == "sine":
            amp, mode = self.initial_spec[1], self.initial_spec[2]
            x = (np.arange(space.n_cells) + 0.5) * space.h
            vals = amp * np.sin(2.0 * math.pi * mode * x / space.length)
            return project_zero_mean(space.state(vals))
        if kind == "random":
            rng = derive_replicate_rng(
                self.driver.master_seed, replicate_index, INITIAL_STREAM
            )
            return self.driver.eta.sample(rng, space)
        raise ValueError(f"unknown initial state kind {kind!r}")

    def corpus(self, n_samples: int) -> list:
        """Seeded zero-mean sample states for axiom checks and kappa fitting."""
        rng = derive_replicate_rng(self.driver.master_seed, CORPUS_REPLICATE, 0)
        out = []
        space = self.space
        for _ in range(n_samples):
            if space.kind == "scalar":
                out.append(space.state([rng.uniform(-2.0, 2.0)]))
            else:
                out.append(self.driver.eta.sample(rng, space))
        return out


@dataclass
class RunPlan:
    """Run sizes shared by the statistical subcommands."""

    n_cycles: int = 10_000
    est_shards: int = 16
    t_end: float = 1_000.0
    checkpoints: list = field(default_factory=list)
    n_replicates: int = 200
    clt_t: float = 1_000.0
    n_mc: int = 100_000
    alpha: float = 0.01


def _map_ordered(fn, args_list, threads: int):
    if threads <= 1:
        return [fn(a) for a in args_list]
    chunk = max(1, len(args_list) // (threads * 4))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, args_list, chunksize=chunk))


def _scalar_functionals(setup: ExperimentSetup) -> list:
    return [xi for xi in setup.functionals if not xi.vector_valued]


def _moments_task(args) -> CycleMoments:
    setup, n_cycles, shard_index = args
    x0 = setup.initial_state(ESTIMATION_SHARD_BASE + shard_index)
    return cycle_moments(
        x0,
        setup.driver,
        setup.sg,
        setup.policy,
        n_cycles,
        _scalar_functionals(setup),
        replicate_index=ESTIMATION_SHARD_BASE + shard_index,
        quad_cfg=setup.quad_cfg,
    )


def run_cycle_estimation(
    setup: ExperimentSetup, n_cycles: int, n_shards: int = 16, threads: int = 1
) -> CycleMoments:
    """Merged cycle moments from a fixed number of independent shards.

    Moment accumulation covers the scalar-valued functionals; vector-valued
    ones go through the record-based covariance route instead.
    """
    if not _scalar_functionals(setup):
        raise ValueError("cycle estimation needs at least one scalar functional")
    n_shards = max(1, min(n_shards, n_cycles))
    per = n_cycles // n_shards
    sizes = [per + (1 if i < n_cycles - per * n_shards else 0) for i in range(n_shards)]
    tasks = [(setup, sizes[i], i) for i in range(n_shards) if sizes[i] > 0]
    parts = _map_ordered(_moments_task, tasks, threads)
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    return merged


def _horizon_task(args) -> dict:
    setup, t_end, checkpoints, replicate = args
    x0 = setup.initial_state(replicate)
    res = simulate_until_time(
        x0,
        setup.driver,
        setup.sg,
        setup.policy,
        t_end,
        setup.functionals,
        checkpoints=checkpoints,
        replicate_index=replicate,
        quad_cfg=setup.quad_cfg,
    )
    out = {
        "replicate": replicate,
        "checkpoints": res.checkpoints,
        "counts": res.counts,
        "integrals": res.integrals,
        "l_end": int(res.counts[-1]),
        "n_cycles": int(res.cycle_tau.shape[0]),
        "cycle_prefix": {},
        "cycle_tau_prefix": None,
    }
    # prefix sums let callers form random-index sums at any checkpoint
    tau_prefix = np.concatenate(([0.0], np.cumsum(res.cycle_tau)))
    out["cycle_tau_prefix"] = tau_prefix
    for label, s in res.cycle_integrals.items():
        if s.ndim == 1:
            out["cycle_prefix"][label] = np.concatenate(([0.0], np.cumsum(s)))
        else:
            zero = np.zeros((1, s.shape[1]))
            out["cycle_prefix"][label] = np.concatenate((zero, np.cumsum(s, axis=0)))
    return out


def run_horizon_replicates(
    setup: ExperimentSetup,
    t_end: float,
    checkpoints,
    n_replicates: int,
    threads: int = 1,
) -> list:
    tasks = [(setup, t_end, checkpoints, i) for i in range(n_replicates)]
    return _map_ordered(_horizon_task, tasks, threads)


def validate_moment_sanity(setup: ExperimentSetup, n_draws: int = 100_000) -> dict:
    """Empirical high moments of the configured laws (finite by construction)."""
    rng_b = derive_replicate_rng(setup.driver.master_seed, 0, 102)
    rng_e = derive_replicate_rng(setup.driver.master_seed, 0, 103)
    betas = setup.driver.beta.sample_block(rng_b, n_draws)
    # beta^12 as a fixed chain of in-place products (numpy's vectorised pow
    # can differ in the last bits between builds and CPUs)
    betas *= betas
    betas *= betas
    b12 = betas * betas
    b12 *= betas
    beta_m12 = float(np.mean(b12))
    if setup.space.kind == "scalar":
        draws = np.array(
            [setup.driver.eta.sample_values(rng_e, setup.space)[0] for _ in range(2048)]
        )
        eta_m4 = float(np.mean(np.abs(draws) ** 4))
    else:
        vals = grid_kick_norms(setup.driver.eta, rng_e, setup.space, 2048, "v2")
        eta_m4 = float(np.mean(np.asarray(vals) ** 4))
    return {
        "beta_moment_12": beta_m12,
        "eta_v2_moment_4": eta_m4,
        "finite": bool(np.isfinite(beta_m12) and np.isfinite(eta_m4)),
    }


def run_validate(setup: ExperimentSetup, plan: RunPlan) -> dict:
    kappa, rho, source = setup.extinction_rate()
    drift = check_drift_condition(setup.driver, kappa, rho, plan.n_mc, setup.space)
    moments = validate_moment_sanity(setup)
    out = {
        "kappa": kappa,
        "rho": rho,
        "kappa_source": source,
        "drift": drift.as_dict(),
        "moment_sanity": moments,
        "ok": bool(drift.ok and moments["finite"]),
    }
    if setup.kappa_fit is not None:
        out["kappa_fit"] = setup.kappa_fit.as_dict()
    return out


def require_valid_drift(setup: ExperimentSetup, plan: RunPlan, force: bool = False) -> dict:
    report = run_validate(setup, plan)
    if not report["ok"] and not force:
        raise DriftViolated(
            "drift estimate {lhs_estimate:.4g} + CI {ci_halfwidth:.4g} is not "
            "negative; the limit theorems are not guaranteed "
            "(use force to run anyway)".format(**report["drift"])
        )
    return report


def run_semigroup_check(setup: ExperimentSetup, n_samples: int = 50) -> dict:
    """Axiom residual suite on a seeded corpus; returns rows and a summary."""
    sg = setup.sg
    space = setup.space
    rng = derive_replicate_rng(setup.driver.master_seed, CORPUS_REPLICATE, 1)
    states = setup.corpus(n_samples)
    is_grid = space.kind == "grid"
    if is_grid:
        dt = sg.cfg.dt
        times = [(int(rng.integers(1, 20)) * dt, int(rng.integers(1, 20)) * dt)
                 for _ in states]
    else:
        times = [(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)))
                 for _ in states]
    samples = []
    for v, (t, s) in zip(states, times):
        u = states[int(rng.integers(0, len(states)))]
        samples.append((u, v, t, s))
    axioms = check_semigroup_axioms(sg, samples)
    rows = []
    max_mass = 0.0
    max_lq = 0.0
    max_extinction = 0.0
    for i, (u, v, t, s) in enumerate(samples):
        row = {
            "sample": i,
            "t": t,
            "s": s,
            "semigroup_residual": (sg.evolve(v, t + s) - sg.evolve(sg.evolve(v, s), t)).norm_v(),
            "contraction_residual": (sg.evolve(u, t) - sg.evolve(v, t)).norm_v() - (u - v).norm_v(),
            "identity_residual": (sg.evolve(v, 0.0) - v).norm_v(),
        }
        ev = sg.evolve(v, t)
        if is_grid:
            row["mass_residual"] = abs(ev.mean() - v.mean())
            max_mass = max(max_mass, row["mass_residual"])
            eu = sg.evolve(u, t)
            du, dv = eu.values - ev.values, u.values - v.values
            h = space.h
            lq = max(
                float(np.sum(np.abs(du)) * h) - float(np.sum(np.abs(dv)) * h),
                math.sqrt(float(np.sum(du**2) * h)) - math.sqrt(float(np.sum(dv**2) * h)),
                float(np.max(np.abs(du))) - float(np.max(np.abs(dv))),
            )
            row["lq_contraction_residual"] = lq
            max_lq = max(max_lq, lq)
        else:
            kappa, rho = sg.kappa, sg.rho
            bound = max(v.norm_v1() ** rho - kappa * t, 0.0)
            row["extinction_residual"] = abs(ev.norm_v1() ** rho - bound)
            max_extinction = max(max_extinction, row["extinction_residual"])
        rows.append(row)
    summary = {
        "n_samples": len(samples),
        "max_semigroup_residual": axioms.max_semigroup_residual,
        "max_contraction_residual": axioms.max_contraction_residual,
        "max_identity_residual": axioms.max_identity_residual,
    }
    if is_grid:
        summary["max_mass_residual"] = max_mass
        summary["max_lq_contraction_residual"] = max_lq
    else:
        summary["max_extinction_equality_residual"] = max_extinction
    return {"summary": summary, "rows": rows}


def run_kappa_fit(setup: ExperimentSetup, n_samples: int = 20, t_cap: float = 50.0) -> dict:
    sg = setup.sg
    if not isinstance(sg, PLaplaceSemigroup):
        raise ValueError("kappa fitting applies to the grid backend only")
    samples = [project_zero_mean(s) for s in setup.corpus(n_samples)]
    fit = estimate_kappa(samples, sg.cfg, sg.grid, sg.weights, t_cap=t_cap)
    return {"fit": fit, "summary": fit.as_dict()}


def run_slln(setup: ExperimentSetup, plan: RunPlan, threads: int = 1) -> dict:
    """Running time averages against the cycle-ratio estimate.

    Scalar-valued functionals carry the estimates and the two-route gate;
    vector-valued ones are reported through the covariance route of run_clt.
    """
    moments = run_cycle_estimation(setup, plan.n_cycles, plan.est_shards, threads)
    stats = {label: stats_from_moments(moments, label) for label in moments.labels}
    checkpoints = plan.checkpoints or None
    reps = run_horizon_replicates(
        setup, plan.t_end, checkpoints, plan.n_replicates, threads
    )
    labels = moments.labels
    skipped = [xi.label for xi in setup.functionals if xi.vector_valued]
    curves = []
    for rep in reps:
        cps = rep["checkpoints"]
        for j, t in enumerate(cps):
            row = {"replicate": rep["replicate"], "t": float(t)}
            for label in labels:
                row[f"avg_{label}"] = float(rep["integrals"][label][j]) / float(t)
            curves.append(row)
    summary = {"n_replicates": plan.n_replicates, "t_end": plan.t_end, "functionals": {}}
    if skipped:
        summary["skipped_vector_functionals"] = skipped
    suite_pass = True
    for label in labels:
        st = stats[label]
        finals = np.array(
            [rep["integrals"][label][-1] / plan.t_end for rep in reps]
        )
        se_time_avg = math.sqrt(max(st.sigma2_hat, 0.0) / plan.t_end)
        combined = math.sqrt(st.se_nu**2 + se_time_avg**2)
        gap = float(np.mean(np.abs(finals - st.nu_hat)))
        _, agree = two_route_agreement(st, finals, plan.t_end)
        suite_pass = suite_pass and agree
        summary["functionals"][label] = {
            "nu_hat": st.nu_hat,
            "se_nu": st.se_nu,
            "sigma2_hat": st.sigma2_hat,
            "mean_tau": st.mean_tau,
            "n_cycles": st.n_cycles,
            "mean_abs_gap_at_t_end": gap,
            "combined_se": combined,
            "two_route_agree": agree,
        }
    summary["pass"] = suite_pass
    return {"summary": summary, "curves": curves, "stats": stats, "replicates": reps}


def two_route_agreement(st, time_averages: np.ndarray, t_end: float, n_se: float = 3.0):
    """Compare the cycle route and time-average route within n_se combined SEs."""
    se_time = math.sqrt(max(st.sigma2_hat, 0.0) / t_end)
    se_time /= math.sqrt(len(time_averages))
    combined = math.sqrt(st.se_nu**2 + se_time**2)
    gap = abs(float(np.mean(time_averages)) - st.nu_hat)
    return gap, gap <= n_se * combined


def run_clt_vector(
    setup: ExperimentSetup, plan: RunPlan, xi, n_psi: int = 10
) -> dict:
    """Covariance route for a vector-valued functional.

    Estimates the fluctuation covariance from cycle records, reports its
    eigenvalues, and verifies the projection identity: for every weight psi,
    the scalar fluctuation variance of the pairing <., psi> equals the
    quadratic form of the covariance estimate.
    """
    from .estimators import CycleSet, estimate_Q, estimate_nu, estimate_sigma2
    from .process import simulate_cycles

    x0 = setup.initial_state(ESTIMATION_SHARD_BASE)
    cycles = CycleSet.from_records(
        simulate_cycles(
            x0,
            setup.driver,
            setup.sg,
            setup.policy,
            plan.n_cycles,
            [xi],
            replicate_index=ESTIMATION_SHARD_BASE,
            quad_cfg=setup.quad_cfg,
        )
    )
    s = cycles.integrals[xi.label]
    nu, se = estimate_nu(s, cycles.tau)
    h = setup.space.h
    q_hat = estimate_Q(s, cycles.tau, nu, h=h)
    eigenvalues = np.linalg.eigvalsh(q_hat)
    psi_rng = derive_replicate_rng(setup.driver.master_seed, 0, 104)
    worst_gap = 0.0
    for _ in range(n_psi):
        psi = psi_rng.normal(size=setup.space.dim)
        s_proj = (s @ psi) * h
        nu_proj = float(np.dot(nu, psi)) * h
        sigma2_proj = estimate_sigma2(s_proj, cycles.tau, nu_proj)
        worst_gap = max(worst_gap, abs(float(psi @ q_hat @ psi) - sigma2_proj))
    ok = worst_gap <= 1e-8 and float(eigenvalues.min()) >= -1e-10
    return {
        "label": xi.label,
        "vector": True,
        "n_cycles": cycles.n,
        "nu_hat": nu,
        "se_nu": se,
        "mean_tau": float(np.mean(cycles.tau)),
        "q_hat": q_hat,
        "q_eigenvalues": eigenvalues,
        "q_min_eigenvalue": float(eigenvalues.min()),
        "projection_gap": worst_gap,
        "pass": bool(ok),
    }


def run_clt(setup: ExperimentSetup, plan: RunPlan, threads: int = 1, label: str | None = None) -> dict:
    """CLT and random-index (Anscombe) samples at the plan's horizon.

    Returns the standardized statistic samples, the KS reports, and the
    variance-bridging diagnostics for one scalar functional; vector-valued
    functionals are routed to the covariance estimate instead.
    """
    labels = [xi.label for xi in setup.functionals]
    label = label or labels[0]
    xi = setup.functionals[labels.index(label)]
    if xi.vector_valued:
        return run_clt_vector(setup, plan, xi)
    moments = run_cycle_estimation(setup, plan.n_cycles, plan.est_shards, threads)
    st = stats_from_moments(moments, label)
    t = plan.clt_t
    reps = run_horizon_replicates(setup, t, None, plan.n_replicates, threads)
    raw = np.array(
        [clt_statistic(rep["integrals"][label][-1], t, st.nu_hat) for rep in reps]
    )
    sigma = math.sqrt(max(st.sigma2_hat, 0.0))
    out = {
        "t": t,
        "label": label,
        "nu_hat": st.nu_hat,
        "sigma2_hat": st.sigma2_hat,
        "mean_tau": st.mean_tau,
        "n_cycles_estimation": st.n_cycles,
        "n_replicates": plan.n_replicates,
        "raw_statistics": raw,
    }
    if sigma == 0.0:
        out["degenerate"] = True
        out["note"] = "zero fluctuation variance: CLT limit is the point mass at 0"
        # the warm-up deficit decays like 1/sqrt(t); reported, not asserted
        out["max_abs_statistic"] = float(np.max(np.abs(raw))) if raw.size else 0.0
        out["pass"] = True
        return out
    out["degenerate"] = False
    standardized = raw / sigma
    out["standardized_statistics"] = standardized
    out["ks_clt"] = ks_test_normal(standardized, 1.0, alpha=plan.alpha)
    out["var_ratio"] = float(np.var(raw) / st.sigma2_hat)
    anscombe_samples = []
    for rep in reps:
        n_idx = rep["l_end"] + 1
        n_avail = rep["n_cycles"]
        n_use = min(n_idx, n_avail)
        sum_s = float(rep["cycle_prefix"][label][n_use])
        sum_tau = float(rep["cycle_tau_prefix"][n_use])
        anscombe_samples.append((sum_s, sum_tau, t))
    out["anscombe_samples"] = anscombe_samples
    out["ks_anscombe"] = anscombe_check(
        anscombe_samples, st.nu_hat, st.sigma2_hat, st.mean_tau, alpha=plan.alpha
    )
    out["pass"] = bool(out["ks_clt"].passed and out["ks_anscombe"].passed)
    return out


def run_anscombe(
    setup: ExperimentSetup,
    plan: RunPlan,
    theta_schedule,
    threads: int = 1,
    label: str | None = None,
) -> dict:
    """Random-index CLT checks along a schedule of cycle-count scales."""
    scalars = [xi.label for xi in setup.functionals if not xi.vector_valued]
    if not scalars:
        raise ConfigError("the random-index check needs a scalar-valued functional")
    label = label or scalars[0]
    if label not in scalars:
        raise ConfigError(f"functional {label!r} is not scalar-valued")
    moments = run_cycle_estimation(setup, plan.n_cycles, plan.est_shards, threads)
    st = stats_from_moments(moments, label)
    if st.sigma2_hat <= 0.0:
        return {
            "label": label,
            "degenerate": True,
            "note": "zero fluctuation variance: random-index limit is a point mass",
            "reports": [],
            "pass": True,
        }
    horizons = [theta * st.mean_tau for theta in theta_schedule]
    t_end = max(horizons)
    reps = run_horizon_replicates(setup, t_end, sorted(horizons), plan.n_replicates, threads)
    reports = []
    overall = True
    for theta, t_cp in zip(theta_schedule, sorted(horizons)):
        samples = []
        for rep in reps:
            j = int(np.searchsorted(rep["checkpoints"], t_cp))
            n_idx = int(rep["counts"][j]) + 1
            n_use = min(n_idx, rep["n_cycles"])
            sum_s = float(rep["cycle_prefix"][label][n_use])
            sum_tau = float(rep["cycle_tau_prefix"][n_use])
            samples.append((sum_s, sum_tau, t_cp))
        report = anscombe_check(
            samples, st.nu_hat, st.sigma2_hat, st.mean_tau, alpha=plan.alpha
        )
        overall = overall and report.passed
        reports.append({"theta": theta, "t": t_cp, "report": report})
    return {
        "label": label,
        "degenerate": False,
        "nu_hat": st.nu_hat,
        "sigma2_hat": st.sigma2_hat,
        "mean_tau": st.mean_tau,
        "reports": reports,
        "pass": overall,
    }
