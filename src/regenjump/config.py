"""Experiment configuration: strict sectioned key-value files.

Plain INI text, one section per concern.  Unknown sections and unknown keys
are hard errors (a typo in a tolerance name must not silently fall back to a
default), parameter ranges are checked at parse time, and the file's content
hash is stable under key reordering.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .driver import MIN_DRIFT_DRAWS, BetaLaw, DriverConfig, EtaLaw, derive_replicate_rng
from .errors import ConfigError
from .functionals import AffineShift, IdentityV2, Linear, NormV2
from .plaplace import Grid1D, PLaplaceConfig, PLaplaceSemigroup, WeightField
from .process import ExtinctionPolicy
from .runner import ExperimentSetup, RunPlan, run_kappa_fit
from .semigroup import ExtinctionParams, ScalarPowerLaw
from .spaces import scalar_space

__all__ = ["ExperimentConfig", "load_config", "parse_config_text", "config_hash"]

_SCHEMA = {
    "experiment": {"backend", "master_seed"},
    "scalar": {"kappa", "rho"},
    "plaplace": {
        "p",
        "n_cells",
        "length",
        "dt",
        "eps_reg",
        "newton_tol",
        "newton_max_iter",
        "eps_ext",
        "q",
        "gamma",
        "kappa_samples",
        "kappa_t_cap",
    },
    "beta": {"kind", "value", "low", "high", "rate", "shape", "scale"},
    "eta": {"kind", "value", "amp", "n_bumps", "amp_max", "width_low", "width_high"},
    "initial": {"kind", "value", "amplitude", "mode"},
    "functionals": {"specs"},
    "run": {
        "n_cycles",
        "est_shards",
        "t_end",
        "checkpoints",
        "n_replicates",
        "clt_t",
        "theta_schedule",
    },
    "policy": {"eps_ext", "m_cap"},
    "validate": {"n_mc"},
}

GAMMA_STREAM = 3_000_000


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment definition."""

    backend: str
    master_seed: int
    scalar_params: ExtinctionParams | None
    plaplace: dict | None
    beta: BetaLaw
    eta: EtaLaw
    initial: tuple
    functional_specs: list
    plan: RunPlan
    policy: ExtinctionPolicy
    theta_schedule: list
    raw_items: list = field(default_factory=list, repr=False)

    def hash(self) -> str:
        return config_hash(self.raw_items)

    def build_setup(self) -> ExperimentSetup:
        """Construct the semigroup, functionals, and driver for this config.

        For the grid backend the empirical decay rate is fitted here, since
        validation needs it before any simulation.
        """
        driver = DriverConfig(self.beta, self.eta, self.master_seed)
        if self.backend == "scalar":
            sg = ScalarPowerLaw(self.scalar_params, scalar_space())
        else:
            p = self.plaplace
            grid = Grid1D(p["n_cells"], p["length"])
            rng = derive_replicate_rng(self.master_seed, GAMMA_STREAM, 0)
            gkind, gargs = p["gamma"]
            if gkind == "constant":
                weights = WeightField.constant(grid, gargs[0])
            else:
                weights = WeightField.uniform(grid, gargs[0], gargs[1], rng)
            cfg = PLaplaceConfig(
                p=p["p"],
                dt=p["dt"],
                eps_reg=p["eps_reg"],
                newton_tol=p["newton_tol"],
                newton_max_iter=p["newton_max_iter"],
                eps_ext=p["eps_ext"],
            )
            sg = PLaplaceSemigroup(grid, weights, cfg, q=p["q"])
        functionals = [
            build_functional(spec, sg.space) for spec in self.functional_specs
        ]
        setup = ExperimentSetup(
            sg=sg,
            driver=driver,
            policy=self.policy,
            functionals=functionals,
            initial_spec=self.initial,
        )
        if self.backend == "plaplace":
            fit = run_kappa_fit(
                setup,
                n_samples=self.plaplace["kappa_samples"],
                t_cap=self.plaplace["kappa_t_cap"],
            )
            setup.kappa_fit = fit["fit"]
        return setup


def build_functional(spec: str, space):
    """Functional mini-grammar: norm_v2 | identity_v2 | mass | affine_norm:<w> | const:<w>."""
    name, _, arg = spec.partition(":")
    name = name.strip()
    arg = arg.strip()
    if name == "norm_v2":
        return NormV2(space)
    if name == "identity_v2":
        return IdentityV2(space)
    if name == "mass":
        return Linear.mass(space)
    if name == "affine_norm":
        if not arg:
            raise ConfigError("affine_norm needs a shift, e.g. affine_norm:0.5")
        return AffineShift(NormV2(space), float(arg), label=f"affine_norm_{arg}")
    if name == "const":
        if not arg:
            raise ConfigError("const needs a value, e.g. const:1.0")
        zero = Linear(space, np.zeros(space.dim), label="zero")
        return AffineShift(zero, float(arg), label=f"const_{arg}")
    raise ConfigError(f"unknown functional spec {spec!r}")


def config_hash(items) -> str:
    """Content hash over sorted section.key=value lines."""
    canon = "\n".join(f"{s}.{k}={v}" for s, k, v in sorted(items))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _get(parser, section, key, cast, default=None, required=False):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if required:
        raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return default


def _parse_bool_backend(raw: str) -> str:
    v = raw.strip().lower()
    if v not in ("scalar", "plaplace"):
        raise ValueError("backend must be 'scalar' or 'plaplace'")
    return v


def _parse_floats_csv(raw: str) -> list:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _parse_thetas(raw: str) -> list:
    thetas = _parse_floats_csv(raw)
    if not all(t > 0 for t in thetas):
        raise ValueError("thetas must be positive")
    if len(set(thetas)) != len(thetas):
        raise ValueError("thetas must not repeat")
    return thetas


def _parse_gamma(raw: str):
    kind, _, rest = raw.partition(":")
    kind = kind.strip()
    if kind == "constant":
        return ("constant", (float(rest),))
    if kind == "uniform":
        lo, hi = (float(t) for t in rest.split(","))
        return ("uniform", (lo, hi))
    raise ValueError("gamma must be 'constant:<v>' or 'uniform:<lo>,<hi>'")


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    if not parser.has_section("experiment"):
        raise ConfigError("missing [experiment] section")
    backend = _get(parser, "experiment", "backend", _parse_bool_backend, required=True)
    master_seed = _get(parser, "experiment", "master_seed", int, required=True)

    scalar_params = None
    plp = None
    if backend == "scalar":
        if not parser.has_section("scalar"):
            raise ConfigError("scalar backend needs a [scalar] section")
        scalar_params = ExtinctionParams(
            kappa=_get(parser, "scalar", "kappa", float, required=True),
            rho=_get(parser, "scalar", "rho", float, required=True),
        )
    else:
        if not parser.has_section("plaplace"):
            raise ConfigError("plaplace backend needs a [plaplace] section")
        plp = {
            "p": _get(parser, "plaplace", "p", float, required=True),
            "n_cells": _get(parser, "plaplace", "n_cells", int, required=True),
            "length": _get(parser, "plaplace", "length", float, default=1.0),
            "dt": _get(parser, "plaplace", "dt", float, default=1e-2),
            "eps_reg": _get(parser, "plaplace", "eps_reg", float, default=1e-8),
            "newton_tol": _get(parser, "plaplace", "newton_tol", float, default=1e-10),
            "newton_max_iter": _get(
                parser, "plaplace", "newton_max_iter", int, default=200
            ),
            "eps_ext": _get(parser, "plaplace", "eps_ext", float, default=None),
            "q": _get(parser, "plaplace", "q", float, default=2.0),
            "gamma": _get(
                parser, "plaplace", "gamma", _parse_gamma, default=("constant", (1.0,))
            ),
            "kappa_samples": _get(parser, "plaplace", "kappa_samples", int, default=8),
            "kappa_t_cap": _get(parser, "plaplace", "kappa_t_cap", float, default=50.0),
        }

    if not parser.has_section("beta"):
        raise ConfigError("missing [beta] section")
    bkind = _get(parser, "beta", "kind", str, required=True).strip()
    if bkind == "deterministic":
        beta = BetaLaw.deterministic(_get(parser, "beta", "value", float, required=True))
    elif bkind == "uniform":
        beta = BetaLaw.uniform(
            _get(parser, "beta", "low", float, required=True),
            _get(parser, "beta", "high", float, required=True),
        )
    elif bkind == "exponential":
        beta = BetaLaw.exponential(_get(parser, "beta", "rate", float, required=True))
    elif bkind == "gamma":
        beta = BetaLaw.gamma(
            _get(parser, "beta", "shape", float, required=True),
            _get(parser, "beta", "scale", float, required=True),
        )
    else:
        raise ConfigError(f"unknown beta kind {bkind!r}")

    if not parser.has_section("eta"):
        raise ConfigError("missing [eta] section")
    ekind = _get(parser, "eta", "kind", str, required=True).strip()
    if ekind == "scalar_constant":
        eta = EtaLaw.scalar_constant(_get(parser, "eta", "value", float, required=True))
    elif ekind == "scalar_uniform":
        eta = EtaLaw.scalar_uniform(_get(parser, "eta", "amp", float, required=True))
    elif ekind == "grid_bumps":
        eta = EtaLaw.grid_bumps(
            _get(parser, "eta", "n_bumps", int, required=True),
            _get(parser, "eta", "amp_max", float, required=True),
            (
                _get(parser, "eta", "width_low", float, required=True),
                _get(parser, "eta", "width_high", float, required=True),
            ),
        )
    else:
        raise ConfigError(f"unknown eta kind {ekind!r}")

    ikind = "zero"
    initial: tuple = ("zero",)
    if parser.has_section("initial"):
        ikind = _get(parser, "initial", "kind", str, default="zero").strip()
        if ikind == "zero":
            initial = ("zero",)
        elif ikind == "value":
            initial = ("value", _get(parser, "initial", "value", float, required=True))
        elif ikind == "sine":
            initial = (
                "sine",
                _get(parser, "initial", "amplitude", float, default=1.0),
                _get(parser, "initial", "mode", int, default=1),
            )
        elif ikind == "random":
            initial = ("random",)
        else:
            raise ConfigError(f"unknown initial kind {ikind!r}")

    specs = ["norm_v2"]
    if parser.has_section("functionals"):
        raw = _get(parser, "functionals", "specs", str, default="norm_v2")
        specs = [tok.strip() for tok in raw.split(",") if tok.strip()]
        if not specs:
            raise ConfigError("functional spec list is empty")

    plan = RunPlan()
    if parser.has_section("run"):
        plan = RunPlan(
            n_cycles=_get(parser, "run", "n_cycles", int, default=10_000),
            est_shards=_get(parser, "run", "est_shards", int, default=16),
            t_end=_get(parser, "run", "t_end", float, default=1_000.0),
            checkpoints=_get(parser, "run", "checkpoints", _parse_floats_csv, default=[]),
            n_replicates=_get(parser, "run", "n_replicates", int, default=200),
            clt_t=_get(parser, "run", "clt_t", float, default=0.0) or 0.0,
            n_mc=100_000,
        )
        for key in ("n_cycles", "est_shards", "n_replicates"):
            if getattr(plan, key) < 1:
                raise ConfigError(f"[run] {key} must be at least 1")
        if plan.t_end <= 0:
            raise ConfigError("[run] t_end must be positive")
        if plan.clt_t <= 0:
            plan.clt_t = plan.t_end
        cps = [0.0] + plan.checkpoints
        if not all(b > a for a, b in zip(cps, cps[1:])) or cps[-1] > plan.t_end:
            raise ConfigError("[run] checkpoints must be strictly increasing within (0, t_end]")
    theta_schedule = _get(parser, "run", "theta_schedule", _parse_thetas, default=[])

    policy = ExtinctionPolicy(
        eps_ext=_get(parser, "policy", "eps_ext", float, default=1e-12)
        if parser.has_section("policy")
        else 1e-12,
        m_cap=_get(parser, "policy", "m_cap", int, default=1_000_000)
        if parser.has_section("policy")
        else 1_000_000,
    )
    if parser.has_section("validate"):
        plan.n_mc = _get(parser, "validate", "n_mc", int, default=100_000)
        if plan.n_mc < MIN_DRIFT_DRAWS:
            raise ConfigError(f"[validate] n_mc must be at least {MIN_DRIFT_DRAWS}")

    items = [
        (section, key, parser.get(section, key))
        for section in parser.sections()
        for key in parser.options(section)
    ]
    return ExperimentConfig(
        backend=backend,
        master_seed=master_seed,
        scalar_params=scalar_params,
        plaplace=plp,
        beta=beta,
        eta=eta,
        initial=initial,
        functional_specs=specs,
        plan=plan,
        policy=policy,
        theta_schedule=theta_schedule,
        raw_items=items,
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
