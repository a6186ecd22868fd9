"""Experiment orchestration: replicate pools, estimation runs, and studies.

Replicate-level work is embarrassingly parallel; each replicate owns its RNG
streams (derived from the master seed and the replicate index alone), results
are merged in index order, and estimator reductions run in a fixed order, so
outputs are byte-identical for 1 or N workers.  Large cycle-estimation runs
are split into a fixed number of shards with their own stream indices; the
shard count is part of the experiment definition, not of the execution
environment.  Horizon replicates run as contiguous, index-ordered chunks,
about 4 per worker, each one block of ``simulate_until_time`` (whose rows do
not depend on the block), and the chunks' results are concatenated into one
``HorizonResult`` with a row per replicate, which the studies read by column.

Each study forks one pool of workers, once, no more of them than it has
shards and replicates.  ``slln`` and ``clt`` queue the estimation shards
and the horizon chunks together; ``anscombe`` sizes its horizons from the
estimate, so it queues them after it.  The vector route of ``clt`` runs
the shards alone, on a pool of no more workers than shards.

The study pool is the package's only parallelism: importing ``regenjump``
sets ``OPENBLAS_NUM_THREADS=1`` unless the caller set it (or loaded numpy
first), so each process, the pool's forked workers included, runs one
BLAS thread.  To give BLAS more threads, set the variable before the
import, e.g. ``OPENBLAS_NUM_THREADS=2 regenjump ...``.

There is one estimation route: every study reads its estimates off the
merged cycle moments of ``run_cycle_estimation`` through
``stats_from_moments``, a vector-valued functional's as array sums.

Each study picks the functionals it reports once, and both of its phases
run a setup narrowed to them: ``slln`` its scalar-valued functionals,
``clt`` and ``anscombe`` the one functional they test.  No phase
integrates a functional that its study drops.

The semigroup-check, strong-law, CLT and random-index drivers own their
output layout and gate: each returns a ``summary``, exactly what its
``summary.json`` holds, ``pass`` included, beside the arrays or rows written
as CSV or SVG.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial, reduce

import numpy as np

from .driver import (
    MIN_DRIFT_DRAWS,
    DriverConfig,
    check_drift_condition,
    derive_replicate_rng,
    kick_norms,
)
from .errors import ConfigError, DriftViolated
from .estimators import anscombe_check, clt_statistic, ks_test_normal, stats_from_moments
from .plaplace import PLaplaceSemigroup, estimate_kappa
from .process import (
    CycleMoments,
    ExtinctionPolicy,
    HorizonResult,
    cycle_moments,
    simulate_until_time,
)
from .semigroup import ScalarPowerLaw, axiom_residuals
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

# Study gates: semigroup-check tolerances, as (summary key, residual column,
# tolerance) per space kind, and the grid's kappa-fit residual.
_SCALAR_TOL = 1e-12
_MASS_TOL = 1e-10
_LQ_TOL = 1e-9
_FIT_TOL = 1e-9
_AXIOM_GATES = {
    "scalar": (
        ("max_semigroup_residual", "semigroup_residual", _SCALAR_TOL),
        ("max_contraction_residual", "contraction_residual", _SCALAR_TOL),
        ("max_identity_residual", "identity_residual", _SCALAR_TOL),
        ("max_extinction_equality_residual", "extinction_residual", _SCALAR_TOL),
    ),
    "grid": (
        ("max_semigroup_residual", "semigroup_residual", 0.0),
        ("max_contraction_residual", "contraction_residual", _LQ_TOL),
        ("max_identity_residual", "identity_residual", 0.0),
        ("max_mass_residual", "mass_residual", _MASS_TOL),
        ("max_lq_contraction_residual", "lq_contraction_residual", _LQ_TOL),
    ),
}
_N_PSI = 10  # random weights of the covariance route's projection check


@dataclass
class ExperimentSetup:
    """Everything needed to run one experiment except the run sizes."""

    sg: object
    driver: DriverConfig
    policy: ExtinctionPolicy
    functionals: list
    initial_spec: tuple = ("zero",)
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
            x = space.centers()
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
    """Run sizes shared by the statistical subcommands.

    ``clt_t`` at or below 0 means ``t_end``.
    """

    n_cycles: int = 10_000
    est_shards: int = 16
    t_end: float = 1_000.0
    checkpoints: list = field(default_factory=list)
    n_replicates: int = 200
    clt_t: float = 0.0
    n_mc: int = 100_000

    def __post_init__(self):
        for key in ("n_cycles", "est_shards", "n_replicates"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.clt_t <= 0:
            self.clt_t = self.t_end
        cps = [0.0] + self.checkpoints
        if not all(b > a for a, b in zip(cps, cps[1:])) or cps[-1] > self.t_end:
            raise ValueError("checkpoints must be strictly increasing within (0, t_end]")
        if self.n_mc < MIN_DRIFT_DRAWS:
            raise ValueError(f"n_mc must be at least {MIN_DRIFT_DRAWS}")


class _Pool:
    """The workers of one study: min(threads, n_tasks) processes, forked once.

    ``map`` queues tasks and returns a function that collects their results
    in order.  At one worker each task runs as it is queued.
    """

    def __init__(self, threads: int, n_tasks: int):
        self.workers = min(threads, n_tasks)
        self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._executor is not None:  # on an error, queued tasks do not start
            self._executor.shutdown(cancel_futures=exc_type is not None)

    def chunk(self, n_tasks: int) -> int:
        """Tasks per chunk for about 4 chunks per worker."""
        return max(1, n_tasks // (self.workers * 4))

    def map(self, fn, args_list, combine=list):
        """Queue ``fn`` over ``args_list``; returns a function giving ``combine(results)``."""
        if self.workers <= 1:
            results = combine([fn(a) for a in args_list])
            return lambda: results
        if self._executor is None:  # forks every worker at the first submit
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        results = self._executor.map(fn, args_list, chunksize=self.chunk(len(args_list)))
        return lambda: combine(list(results))


def _moments_task(args) -> CycleMoments:
    setup, n_cycles, shard_index = args
    x0 = setup.initial_state(ESTIMATION_SHARD_BASE + shard_index)
    return cycle_moments(
        x0,
        setup.driver,
        setup.sg,
        setup.policy,
        n_cycles,
        setup.functionals,
        replicate_index=ESTIMATION_SHARD_BASE + shard_index,
    )


def _shard_sizes(n_cycles: int, n_shards: int) -> list:
    """The cycle count of each estimation shard."""
    n_shards = max(1, min(n_shards, n_cycles))
    per = n_cycles // n_shards
    return [per + (1 if i < n_cycles - per * n_shards else 0) for i in range(n_shards)]


def _study_pool(plan: RunPlan, threads: int) -> _Pool:
    """The pool of a study that runs the plan's estimation and horizon replicates."""
    return _Pool(threads, len(_shard_sizes(plan.n_cycles, plan.est_shards)) + plan.n_replicates)


def run_cycle_estimation(
    setup: ExperimentSetup, n_cycles: int, n_shards: int = 16, threads: int = 1, pool=None
):
    """The setup's merged cycle moments from a fixed number of independent shards.

    The one estimation route: every study reads its estimates off these
    moments, for scalar and vector-valued functionals alike.  Given a
    study's ``pool``, the shards are queued on it, and what is returned is a
    function giving the merged moments.
    """
    tasks = [(setup, size, i) for i, size in enumerate(_shard_sizes(n_cycles, n_shards))]
    merged = partial(reduce, CycleMoments.merge)
    if pool is not None:
        return pool.map(_moments_task, tasks, merged)
    with _Pool(threads, len(tasks)) as pool:
        return pool.map(_moments_task, tasks, merged)()


def _horizon_task(args) -> HorizonResult:
    setup, t_end, checkpoints, replicates = args
    return simulate_until_time(
        [setup.initial_state(i) for i in replicates],
        setup.driver,
        setup.sg,
        setup.policy,
        t_end,
        setup.functionals,
        checkpoints=checkpoints,
        replicate_indices=replicates,
    )


def run_horizon_replicates(
    setup: ExperimentSetup,
    t_end: float,
    checkpoints,
    n_replicates: int,
    threads: int = 1,
    pool=None,
):
    """Every replicate's run to the horizon: one HorizonResult, a row per replicate in index order.

    The replicates run as contiguous chunks in index order, about 4 per
    worker; each chunk is one block of ``simulate_until_time``.  Given a
    study's ``pool``, the chunks are queued on it, and what is returned is a
    function giving the result.
    """

    def queue(pool):
        size = pool.chunk(n_replicates)
        chunks = [range(lo, min(lo + size, n_replicates)) for lo in range(0, n_replicates, size)]
        tasks = [(setup, t_end, checkpoints, chunk) for chunk in chunks]
        return pool.map(_horizon_task, tasks, HorizonResult.concatenate)

    if pool is not None:
        return queue(pool)
    with _Pool(threads, n_replicates) as pool:
        return queue(pool)()


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
    norms = kick_norms(setup.driver.eta, rng_e, setup.space, 2048, "v2")
    eta_m4 = float(np.mean(np.float_power(norms, 4)))
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


def _kappa_fit_ok(fit) -> bool:
    """The grid's kappa-fit gate: a positive rate, fitted within _FIT_TOL."""
    return fit.kappa_emp > 0.0 and fit.fit_residual <= _FIT_TOL


def run_semigroup_check(setup: ExperimentSetup, n_samples: int = 50) -> dict:
    """Axiom residual suite on a seeded corpus: the rows, and a summary with the gate."""
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
    rows = []
    for i, (u, v, t, s) in enumerate(samples):
        residuals, eu, ev = axiom_residuals(sg, u, v, t, s)
        row = {"sample": i, "t": t, "s": s, **residuals}
        if is_grid:
            row["mass_residual"] = abs(ev.mean() - v.mean())
            du, dv = eu - ev, u - v  # the discrete L1, L2 and sup norms
            row["lq_contraction_residual"] = max(
                du.norm_v() - dv.norm_v(),
                du.norm_v1() - dv.norm_v1(),
                float(np.max(np.abs(du.values))) - float(np.max(np.abs(dv.values))),
            )
        else:
            bound = max(v.norm_v1() ** sg.rho - sg.kappa * t, 0.0)
            row["extinction_residual"] = abs(ev.norm_v1() ** sg.rho - bound)
        rows.append(row)
    gates = _AXIOM_GATES[space.kind]
    summary = {"n_samples": len(samples), "tolerances": {key: tol for key, _, tol in gates}}
    # each residual column's maximum; only the signed contraction residual may stay below 0
    for key, column, _ in gates:
        top = max(row[column] for row in rows)
        summary[key] = top if column == "contraction_residual" else max(0.0, top)
    ok = all(summary[key] <= tol for key, _, tol in gates)
    if is_grid:
        summary["kappa_fit"] = setup.kappa_fit  # fitted by build_setup
        ok = ok and _kappa_fit_ok(setup.kappa_fit)
    summary["pass"] = ok
    return {"summary": summary, "rows": rows}


def run_kappa_fit(
    setup: ExperimentSetup, n_samples: int = 20, t_cap: float = 50.0, prior=None
) -> dict:
    """Fit kappa on the first n_samples corpus states.

    ``prior`` is an earlier fit with the same t_cap on a prefix of the corpus
    (the corpus is prefix-stable), whose traces are reused.
    """
    sg = setup.sg
    if not isinstance(sg, PLaplaceSemigroup):
        raise ValueError("kappa fitting applies to the grid backend only")
    samples = [project_zero_mean(s) for s in setup.corpus(n_samples)]
    known = prior.traces if prior is not None else ()
    fit = estimate_kappa(samples, sg, t_cap=t_cap, known_traces=known)
    return {"fit": fit, "summary": fit.as_dict(), "pass": _kappa_fit_ok(fit)}


def run_slln(setup: ExperimentSetup, plan: RunPlan, threads: int = 1) -> dict:
    """Running time averages against the cycle-ratio estimate.

    Both phases integrate the scalar-valued functionals alone, which carry
    the estimates and the two-route gate; vector-valued ones are listed as
    skipped (run_clt's covariance route reports them).
    """
    scalars = [xi for xi in setup.functionals if not xi.vector_valued]
    if not scalars:
        raise ConfigError("the strong-law check needs a scalar-valued functional")
    skipped = [xi.label for xi in setup.functionals if xi.vector_valued]
    setup = replace(setup, functionals=scalars)
    checkpoints = plan.checkpoints or None
    with _study_pool(plan, threads) as pool:
        estimate = run_cycle_estimation(setup, plan.n_cycles, plan.est_shards, pool=pool)
        replicates = run_horizon_replicates(
            setup, plan.t_end, checkpoints, plan.n_replicates, pool=pool
        )
        moments, reps = estimate(), replicates()
    labels = moments.labels
    times = reps.checkpoints.tolist()
    averages = {label: (reps.integrals[label] / reps.checkpoints).tolist() for label in labels}
    curves = [
        {"replicate": i, "t": t, **{f"avg_{label}": averages[label][i][j] for label in labels}}
        for i in range(plan.n_replicates)
        for j, t in enumerate(times)
    ]
    summary = {"n_replicates": plan.n_replicates, "t_end": plan.t_end, "functionals": {}}
    if skipped:
        summary["skipped_vector_functionals"] = skipped
    suite_pass = True
    for label in labels:
        st = stats_from_moments(moments, label)
        finals = reps.integrals[label][:, -1] / plan.t_end
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
    return {"summary": summary, "curves": curves, "replicates": reps}


def two_route_agreement(st, time_averages: np.ndarray, t_end: float, n_se: float = 3.0):
    """Compare the cycle route and time-average route within n_se combined SEs."""
    se_time = math.sqrt(max(st.sigma2_hat, 0.0) / t_end)
    se_time /= math.sqrt(len(time_averages))
    combined = math.sqrt(st.se_nu**2 + se_time**2)
    gap = abs(float(np.mean(time_averages)) - st.nu_hat)
    return gap, gap <= n_se * combined


def _covariance_summary(setup: ExperimentSetup, moments: CycleMoments, label: str) -> dict:
    """Covariance route for a vector-valued functional.

    Estimates the fluctuation covariance Q = h^2 sigma2_hat from the cycle
    moments, reports its eigenvalues, and verifies the projection identity:
    for every weight psi, the scalar fluctuation variance of the pairing
    <., psi>, read off the projected sums, equals the quadratic form of Q.
    """
    h = setup.space.h
    st = stats_from_moments(moments, label)
    q_hat = h * h * st.sigma2_hat
    eigenvalues = np.linalg.eigvalsh(q_hat)
    psi_rng = derive_replicate_rng(setup.driver.master_seed, 0, 104)
    worst_gap = 0.0
    for _ in range(_N_PSI):
        psi = psi_rng.normal(size=setup.space.dim)
        pairing = replace(
            moments,
            sum_s={label: h * float(psi @ moments.sum_s[label])},
            sum_s2={label: h * h * float(psi @ moments.sum_s2[label] @ psi)},
            sum_s_tau={label: h * float(psi @ moments.sum_s_tau[label])},
        )
        sigma2_proj = stats_from_moments(pairing, label).sigma2_hat
        worst_gap = max(worst_gap, abs(float(psi @ q_hat @ psi) - sigma2_proj))
    ok = worst_gap <= 1e-8 and float(eigenvalues.min()) >= -1e-10
    summary = {
        "label": label,
        "vector": True,
        "note": "vector-valued functional: covariance route (no replicate KS)",
        "n_cycles": st.n_cycles,
        "nu_hat": st.nu_hat,
        "se_nu": st.se_nu,
        "mean_tau": st.mean_tau,
        "q_eigenvalues": eigenvalues,
        "q_min_eigenvalue": float(eigenvalues.min()),
        "projection_gap": worst_gap,
        "pass": bool(ok),
    }
    return {"summary": summary}


def run_clt(setup: ExperimentSetup, plan: RunPlan, threads: int = 1) -> dict:
    """CLT and random-index (Anscombe) samples of the first functional at the plan's horizon.

    Both phases integrate that functional alone.  Returns the summary with
    its KS reports and variance-bridging diagnostics, and each replicate's
    ``raw`` and ``standardized`` statistic and random-index sums ``sum_s``
    and ``sum_tau``, as columns.  A vector-valued functional runs the
    estimation shards alone and takes the covariance route instead.
    """
    xi = setup.functionals[0]
    setup = replace(setup, functionals=[xi])
    label, t = xi.label, plan.clt_t
    if xi.vector_valued:
        moments = run_cycle_estimation(setup, plan.n_cycles, plan.est_shards, threads)
        return _covariance_summary(setup, moments, label)
    with _study_pool(plan, threads) as pool:
        estimate = run_cycle_estimation(setup, plan.n_cycles, plan.est_shards, pool=pool)
        replicates = run_horizon_replicates(setup, t, None, plan.n_replicates, pool=pool)
        moments, reps = estimate(), replicates()
    st = stats_from_moments(moments, label)
    raw = clt_statistic(reps.integrals[label][:, -1], t, st.nu_hat)
    sigma = math.sqrt(max(st.sigma2_hat, 0.0))
    summary = {
        "t": t,
        "label": label,
        "nu_hat": st.nu_hat,
        "sigma2_hat": st.sigma2_hat,
        "mean_tau": st.mean_tau,
        "n_cycles_estimation": st.n_cycles,
        "n_replicates": plan.n_replicates,
        "degenerate": sigma == 0.0,
    }
    if sigma == 0.0:
        summary["note"] = "zero fluctuation variance: CLT limit is the point mass at 0"
        # the warm-up deficit decays like 1/sqrt(t); reported, not asserted
        summary["max_abs_statistic"] = float(np.max(np.abs(raw))) if raw.size else 0.0
        summary["pass"] = True
        return {"summary": summary, "raw": raw}
    standardized = raw / sigma
    sum_s, sum_tau = reps.index_s[label][:, -1], reps.index_tau[:, -1]
    summary["ks_clt"] = ks_test_normal(standardized, 1.0)
    summary["var_ratio"] = float(np.var(raw) / st.sigma2_hat)
    summary["ks_anscombe"] = anscombe_check(
        sum_s, sum_tau, t, st.nu_hat, st.sigma2_hat, st.mean_tau
    )
    summary["pass"] = bool(summary["ks_clt"].passed and summary["ks_anscombe"].passed)
    arrays = {"raw": raw, "standardized": standardized, "sum_s": sum_s, "sum_tau": sum_tau}
    return {"summary": summary, **arrays}


def run_anscombe(
    setup: ExperimentSetup, plan: RunPlan, theta_schedule, threads: int = 1
) -> dict:
    """Random-index CLT checks of the first scalar functional along a schedule of theta scales.

    Both phases integrate that functional alone.  The summary's ``table``
    holds each theta's horizon and KS report.
    """
    xi = next((f for f in setup.functionals if not f.vector_valued), None)
    if xi is None:
        raise ConfigError("the random-index check needs a scalar-valued functional")
    setup = replace(setup, functionals=[xi])
    label = xi.label
    summary = {"label": label}
    with _study_pool(plan, threads) as pool:
        estimate = run_cycle_estimation(setup, plan.n_cycles, plan.est_shards, pool=pool)
        st = stats_from_moments(estimate(), label)
        summary["degenerate"] = st.sigma2_hat <= 0.0
        if summary["degenerate"]:
            summary["note"] = "zero fluctuation variance: random-index limit is a point mass"
            summary["pass"] = True
            return {"summary": summary}
        horizons = [theta * st.mean_tau for theta in theta_schedule]
        reps = run_horizon_replicates(
            setup, max(horizons), sorted(horizons), plan.n_replicates, pool=pool
        )()
    table = []
    for theta, t_cp in zip(theta_schedule, horizons):
        j = int(np.searchsorted(reps.checkpoints, t_cp))
        sum_s, sum_tau = reps.index_s[label][:, j], reps.index_tau[:, j]
        ks = anscombe_check(sum_s, sum_tau, t_cp, st.nu_hat, st.sigma2_hat, st.mean_tau)
        table.append(
            {
                "theta": theta,
                "t": t_cp,
                "ks_statistic": ks.statistic,
                "p_value": ks.p_value,
                "passed": ks.passed,
            }
        )
    summary.update(nu_hat=st.nu_hat, sigma2_hat=st.sigma2_hat, mean_tau=st.mean_tau, table=table)
    summary["pass"] = all(row["passed"] for row in table)
    return {"summary": summary}
