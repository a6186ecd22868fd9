"""Experiment configuration: strict sectioned key-value files.

Plain INI text, one section per concern.  ``_KEYS`` lists every accepted key
of every section with its cast; unknown sections, unknown keys and values
that do not cast are hard errors (a typo in a tolerance name must not
silently fall back to a default).  Each section then builds the object it
configures, at parse time.  A key left out takes that object's default, and
parameter ranges come from the configured objects: their range errors are
config errors that name the section.  The file's content hash is stable
under key reordering.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .driver import BetaLaw, DriverConfig, EtaLaw, derive_replicate_rng
from .errors import ConfigError
from .functionals import AffineShift, IdentityV2, Linear, NormV2
from .plaplace import Grid1D, PLaplaceConfig, PLaplaceSemigroup, WeightField
from .process import ExtinctionPolicy
from .runner import ExperimentSetup, RunPlan, run_kappa_fit
from .semigroup import ExtinctionParams, ScalarPowerLaw
from .spaces import scalar_space

__all__ = ["ExperimentConfig", "load_config", "parse_config_text", "config_hash"]

GAMMA_STREAM = 3_000_000


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment definition.

    ``q`` (the V2 norm exponent), ``gamma`` (the edge-weight law) and the
    kappa fit's ``kappa_samples`` and ``kappa_t_cap`` are the ``[plaplace]``
    keys that configure no object of their own.
    """

    backend: str
    master_seed: int
    scalar_params: ExtinctionParams | None
    grid: Grid1D | None
    plaplace: PLaplaceConfig | None
    beta: BetaLaw
    eta: EtaLaw
    initial: tuple
    plan: RunPlan
    policy: ExtinctionPolicy
    specs: list = field(default_factory=lambda: ["norm_v2"])
    theta_schedule: list = field(default_factory=list)
    q: float = 2.0
    gamma: tuple = ("constant", (1.0,))
    kappa_samples: int = 8
    kappa_t_cap: float = 50.0
    raw_items: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.kappa_samples < 1:
            raise ConfigError("[plaplace] kappa_samples must be at least 1")

    def hash(self) -> str:
        return config_hash(self.raw_items)

    def build_setup(self) -> ExperimentSetup:
        """Build what needs the master seed or the fit.

        That is the edge weights, the semigroup, the functionals and, for the
        grid backend, the empirical decay rate, which validation needs before
        any simulation.
        """
        if self.backend == "scalar":
            sg = ScalarPowerLaw(self.scalar_params, scalar_space())
        else:
            sg = _checked("plaplace", self._grid_semigroup)
        setup = ExperimentSetup(
            sg=sg,
            driver=DriverConfig(self.beta, self.eta, self.master_seed),
            policy=self.policy,
            functionals=[build_functional(spec, sg.space) for spec in self.specs],
            initial_spec=self.initial,
        )
        if self.backend == "plaplace":
            fit = run_kappa_fit(setup, n_samples=self.kappa_samples, t_cap=self.kappa_t_cap)
            setup.kappa_fit = fit["fit"]
        return setup

    def _grid_semigroup(self) -> PLaplaceSemigroup:
        kind, args = self.gamma
        if kind == "constant":
            weights = WeightField.constant(self.grid, *args)
        else:
            rng = derive_replicate_rng(self.master_seed, GAMMA_STREAM, 0)
            weights = WeightField.uniform(self.grid, *args, rng)
        return PLaplaceSemigroup(self.grid, weights, self.plaplace, q=self.q)


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
        shift = _checked("functionals", _finite, arg)
        return AffineShift(NormV2(space), shift, label=f"affine_norm_{arg}")
    if name == "const":
        if not arg:
            raise ConfigError("const needs a value, e.g. const:1.0")
        zero = Linear(space, np.zeros(space.dim), label="zero")
        shift = _checked("functionals", _finite, arg)
        return AffineShift(zero, shift, label=f"const_{arg}")
    raise ConfigError(f"unknown functional spec {spec!r}")


def config_hash(items) -> str:
    """Content hash over sorted section.key=value lines."""
    canon = "\n".join(f"{s}.{k}={v}" for s, k, v in sorted(items))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _finite(raw: str) -> float:
    """The cast of every float key; it refuses nan and inf, which slip past range checks."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _floats(raw: str) -> list:
    return [_finite(tok) for tok in raw.split(",") if tok.strip()]


def _thetas(raw: str) -> list:
    thetas = _floats(raw)
    if not all(t > 0 for t in thetas):
        raise ValueError("thetas must be positive")
    if len(set(thetas)) != len(thetas):
        raise ValueError("thetas must not repeat")
    return thetas


def _gamma(raw: str):
    kind, _, rest = raw.partition(":")
    kind = kind.strip()
    if kind == "constant":
        return ("constant", (_finite(rest),))
    if kind == "uniform":
        lo, hi = (_finite(t) for t in rest.split(","))
        return ("uniform", (lo, hi))
    raise ValueError("gamma must be 'constant:<v>' or 'uniform:<lo>,<hi>'")


def _specs(raw: str) -> list:
    specs = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not specs:
        raise ValueError("functional spec list is empty")
    return specs


_KEYS = {
    "experiment": {"backend": str.lower, "master_seed": int},
    "scalar": {"kappa": _finite, "rho": _finite},
    "plaplace": {
        "p": _finite, "n_cells": int, "length": _finite, "dt": _finite, "eps_reg": _finite,
        "newton_tol": _finite, "newton_max_iter": int, "eps_ext": _finite, "q": _finite,
        "gamma": _gamma, "kappa_samples": int, "kappa_t_cap": _finite,
    },
    "beta": {
        "kind": str, "value": _finite, "low": _finite, "high": _finite, "rate": _finite,
        "shape": _finite, "scale": _finite,
    },
    "eta": {
        "kind": str, "value": _finite, "amp": _finite, "n_bumps": int, "amp_max": _finite,
        "width_low": _finite, "width_high": _finite,
    },
    "initial": {"kind": str, "value": _finite, "amplitude": _finite, "mode": int},
    "functionals": {"specs": _specs},
    "run": {
        "n_cycles": int, "est_shards": int, "t_end": _finite, "checkpoints": _floats,
        "n_replicates": int, "clt_t": _finite, "theta_schedule": _thetas,
    },
    "policy": {"eps_ext": _finite, "m_cap": int},
    "validate": {"n_mc": int},
}

# Keys a kind reads whose absence no range check catches: a kick law would
# silently take 0.0 for them.
_KIND_KEYS = {
    "eta": {"scalar_constant": ["value"], "scalar_uniform": ["amp"], "grid_bumps": ["amp_max"]},
    "initial": {"value": ["value"]},
}


# The backend whose states a kind makes: one value is a scalar state, a sine's
# zero-mean projection on one cell is 0, and kicks are scalars or grid bumps.
_KIND_BACKEND = {
    "value": "scalar", "sine": "plaplace",
    "scalar_constant": "scalar", "scalar_uniform": "scalar", "grid_bumps": "plaplace",
}


def _require(section: str, values: dict, keys):
    for key in keys:
        if key not in values:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")


def _checked(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError reported as a config error of ``section``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _build(section: str, cls, values: dict):
    """The dataclass ``cls`` from the keys of ``values`` that name its fields.

    Its fields without a default, and the keys ``_KIND_KEYS`` lists for
    its ``kind``, are required.
    """
    own = fields(cls)
    required = [f.name for f in own if f.default is MISSING and f.default_factory is MISSING]
    _require(section, values, required + _KIND_KEYS.get(section, {}).get(values.get("kind"), []))
    return _checked(section, cls, **_pick(values, *(f.name for f in own)))


def _pick(values: dict, *keys) -> dict:
    return {k: values[k] for k in keys if k in values}


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    sections, items = {}, []
    for section in parser.sections():
        casts = _KEYS.get(section)
        if casts is None:
            raise ConfigError(f"unknown section [{section}]")
        values = sections[section] = {}
        for key, raw in parser.items(section):
            if key not in casts:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[key] = casts[key](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
            items.append((section, key, raw))

    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section")
    experiment = sections["experiment"]
    _require("experiment", experiment, ("backend", "master_seed"))
    backend = experiment["backend"]
    if backend not in ("scalar", "plaplace"):
        raise ConfigError("[experiment] backend must be 'scalar' or 'plaplace'")
    for section in (backend, "beta", "eta"):
        if section not in sections:
            raise ConfigError(f"missing [{section}] section")

    initial = sections.get("initial", {})
    ikind = initial.get("kind", "zero")
    _require("initial", initial, _KIND_KEYS["initial"].get(ikind, []))
    if ikind == "value":
        init = ("value", initial["value"])
    elif ikind == "sine":
        init = ("sine", initial.get("amplitude", 1.0), initial.get("mode", 1))
    elif ikind in ("zero", "random"):
        init = (ikind,)
    else:
        raise ConfigError(f"unknown initial kind {ikind!r}")
    for section, kind in (("initial", ikind), ("eta", sections["eta"].get("kind"))):
        needs = _KIND_BACKEND.get(kind, backend)
        if needs != backend:
            raise ConfigError(f"[{section}] kind = {kind} needs backend = {needs}")

    plp, run = sections.get("plaplace", {}), sections.get("run", {})
    plan = _build("run", RunPlan, run)
    plan = _checked("validate", replace, plan, **sections.get("validate", {}))
    return ExperimentConfig(
        backend=backend,
        master_seed=experiment["master_seed"],
        scalar_params=_build("scalar", ExtinctionParams, sections["scalar"])
        if "scalar" in sections
        else None,
        grid=_build("plaplace", Grid1D, plp) if "plaplace" in sections else None,
        plaplace=_build("plaplace", PLaplaceConfig, plp) if "plaplace" in sections else None,
        beta=_build("beta", BetaLaw, sections["beta"]),
        eta=_build("eta", EtaLaw, sections["eta"]),
        initial=init,
        plan=plan,
        policy=_build("policy", ExtinctionPolicy, sections.get("policy", {})),
        **sections.get("functionals", {}),
        **_pick(run, "theta_schedule"),
        **_pick(plp, "q", "gamma", "kappa_samples", "kappa_t_cap"),
        raw_items=items,
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
