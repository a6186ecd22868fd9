import csv
import json
import os
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from regenjump import report, runner
from regenjump.cli import main
from regenjump.config import _KEYS, build_functional, config_hash, load_config, parse_config_text
from regenjump.errors import ConfigError
from regenjump.runner import run_anscombe, run_semigroup_check
from regenjump.spaces import scalar_space

SCALAR_CFG = """
[experiment]
backend = scalar
master_seed = 77

[scalar]
kappa = 1.0
rho = 0.5

[beta]
kind = exponential
rate = 1.0

[eta]
kind = scalar_uniform
amp = 1.0

[functionals]
specs = norm_v2

[run]
n_cycles = 2000
est_shards = 4
t_end = 60.0
checkpoints = 20, 60
n_replicates = 120
clt_t = 60.0
theta_schedule = 10, 20

[policy]
eps_ext = 1e-10

[validate]
n_mc = 20000
"""

DETERMINISTIC_CFG = """
[experiment]
backend = scalar
master_seed = 3

[scalar]
kappa = 1.0
rho = 0.5

[beta]
kind = deterministic
value = 3.0

[eta]
kind = scalar_constant
value = 1.0

[initial]
kind = value
value = 1.0

[run]
n_cycles = 500
est_shards = 1
t_end = 60.0
n_replicates = 120
clt_t = 60.0

[validate]
n_mc = 10000
"""

BAD_DRIFT_CFG = """
[experiment]
backend = scalar
master_seed = 5

[scalar]
kappa = 1.0
rho = 0.5

[beta]
kind = deterministic
value = 0.5

[eta]
kind = scalar_constant
value = 1.0

[validate]
n_mc = 10000
"""

PLAPLACE_CFG = """
[experiment]
backend = plaplace
master_seed = 9

[plaplace]
p = 1.5
n_cells = 12
gamma = uniform:0.5,2.0
kappa_samples = 4
newton_max_iter = 80

[beta]
kind = uniform
low = 0.3
high = 0.7

[eta]
kind = grid_bumps
n_bumps = 2
amp_max = 0.6
width_low = 0.05
width_high = 0.2

[run]
n_cycles = 40
est_shards = 2
t_end = 10.0
n_replicates = 4
clt_t = 10.0

[policy]
eps_ext = 1e-10
m_cap = 100000

[validate]
n_mc = 10000
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_valid():
    cfg = parse_config_text(SCALAR_CFG)
    assert cfg.backend == "scalar"
    assert cfg.master_seed == 77
    assert cfg.plan.n_cycles == 2000
    assert cfg.plan.checkpoints == [20.0, 60.0]
    assert cfg.theta_schedule == [10.0, 20.0]
    assert cfg.policy.eps_ext == 1e-10


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(SCALAR_CFG.replace("eps_ext = 1e-10", "eps_etx = 1e-10"))


def test_unknown_section_is_hard_error():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text(SCALAR_CFG + "\n[extra]\nx = 1\n")


def test_missing_required():
    with pytest.raises(ConfigError):
        parse_config_text("[experiment]\nbackend = scalar\n")


def test_malformed_reports_position():
    with pytest.raises(ConfigError, match="line"):
        parse_config_text("[experiment\nbackend = scalar\n")


def test_hash_stable_under_reordering():
    a = parse_config_text(SCALAR_CFG)
    reordered = SCALAR_CFG.replace(
        "kappa = 1.0\nrho = 0.5", "rho = 0.5\nkappa = 1.0"
    )
    b = parse_config_text(reordered)
    assert a.hash() == b.hash()
    c = parse_config_text(SCALAR_CFG.replace("kappa = 1.0", "kappa = 2.0"))
    assert a.hash() != c.hash()


def test_functional_specs():
    space = scalar_space()
    assert build_functional("norm_v2", space).label == "norm_v2"
    assert build_functional("mass", space).label == "mass"
    aff = build_functional("affine_norm:0.5", space)
    assert aff.apply(space.zero()) == 0.5
    const = build_functional("const:2.0", space)
    assert const.apply(space.state([3.0])) == 2.0
    with pytest.raises(ConfigError):
        build_functional("bogus", space)


def run_cli(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


REPO = Path(__file__).resolve().parents[1]


def assert_outputs_match_committed(tmp_path, config, command, threads=1):
    # the run of configs/<config>.ini reproduces every file the committed
    # manifest under out/<config>/ lists, byte for byte, and every manifest
    # field but the wall time; returns the listed file names
    committed = REPO / "out" / config / command.replace("-", "_")
    out = tmp_path / "out"
    path = REPO / "configs" / f"{config}.ini"
    assert run_cli([command, "--config", path, "--out", out, "--threads", threads]) == 0
    want, got = read_json(committed / "manifest.json"), read_json(out / "manifest.json")
    del want["wall_time_seconds"], got["wall_time_seconds"]
    assert got == dict(want, threads=threads)
    for name in want["outputs"]:
        assert (out / name).read_bytes() == (committed / name).read_bytes(), name
    return want["outputs"]


@pytest.mark.parametrize(
    "command, output",
    [
        ("kappa-fit", "kappa_fit/kappa_fit.csv"),
        ("semigroup-check", "semigroup_check/semigroup_residuals.csv"),
        ("validate", "validate/summary.json"),
        ("semigroup-check", "semigroup_check/summary.json"),
        ("kappa-fit", "kappa_fit/summary.json"),
    ],
)
def test_cli_plaplace_outputs_match_committed(tmp_path, command, output):
    assert Path(output).name in assert_outputs_match_committed(tmp_path, "plaplace", command)


@pytest.mark.parametrize(
    "command, threads",
    [
        ("validate", 1),
        ("semigroup-check", 1),
        ("slln", 1),
        ("slln", 2),
        ("clt", 1),
        ("clt", 2),
        ("anscombe", 1),
        ("anscombe", 2),
    ],
)
def test_cli_scalar_outputs_match_committed(tmp_path, command, threads):
    assert_outputs_match_committed(tmp_path, "scalar", command, threads)


@pytest.mark.parametrize(
    "command, threads", [("slln", 1), ("slln", 2), ("clt", 1), ("clt", 2)]
)
def test_cli_small_grid_outputs_match_committed(tmp_path, command, threads):
    # the grid's segment integrals, horizon runs and vector covariance route
    # (clt's first functional is identity_v2, its shards on the study pool;
    # cycles.csv carries its norm)
    assert_outputs_match_committed(tmp_path, "plaplace_small", command, threads)


def test_cli_kappa_fit_steps_each_sample_once(tmp_path, monkeypatch):
    # build_setup fits the first kappa_samples corpus states; kappa-fit reuses
    # their traces and steps only the remaining states
    from regenjump.plaplace import PLaplaceSemigroup

    steps = []
    advance = PLaplaceSemigroup._advance

    def counted(self, vals, dt):
        steps.append(dt)
        return advance(self, vals, dt)

    monkeypatch.setattr(PLaplaceSemigroup, "_advance", counted)
    out = tmp_path / "out"
    assert run_cli(["kappa-fit", "--config", REPO / "configs" / "plaplace.ini", "--out", out]) == 0
    with open(out / "kappa_fit.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_samples = len({row["sample"] for row in rows})
    assert n_samples == 20
    assert len(steps) == len(rows) - n_samples  # one step per trace time after 0


def test_semigroup_check_evaluates_each_flow_once():
    # per sample: T(t+s)v, T(s)v, T(t)T(s)v, T(t)u, T(t)v and T(0)v, once each
    setup = parse_config_text(SCALAR_CFG).build_setup()
    calls = []
    evolve = setup.sg.evolve
    setup.sg.evolve = lambda v, t: calls.append(t) or evolve(v, t)
    result = run_semigroup_check(setup, n_samples=10)
    assert len(result["rows"]) == 10 and len(calls) == 60


def test_cli_validate_ok(tmp_path):
    cfg = write(tmp_path, SCALAR_CFG)
    out = tmp_path / "out"
    assert run_cli(["validate", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["ok"] is True
    assert summary["kappa_source"] == "exact"
    assert summary["drift"]["lhs_estimate"] == pytest.approx(-1 / 3, abs=0.02)
    manifest = read_json(out / "manifest.json")
    assert "summary.json" in manifest["outputs"]


def test_cli_validate_drift_violation(tmp_path):
    cfg = write(tmp_path, BAD_DRIFT_CFG)
    out = tmp_path / "out"
    assert run_cli(["validate", "--config", cfg, "--out", out]) == 2
    summary = read_json(out / "summary.json")
    assert summary["drift"]["lhs_estimate"] == pytest.approx(0.5)


def test_cli_parse_error_exit_1(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment\nbackend = scalar\n")
    assert run_cli(["validate", "--config", bad, "--out", tmp_path / "o"]) == 1
    assert run_cli(["validate", "--config", tmp_path / "nope.ini", "--out", tmp_path / "o"]) == 1


def test_cli_semigroup_check_scalar(tmp_path):
    cfg = write(tmp_path, SCALAR_CFG)
    out = tmp_path / "out"
    assert run_cli(["semigroup-check", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["pass"] is True
    assert summary["max_semigroup_residual"] <= 1e-12
    with open(out / "semigroup_residuals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == summary["n_samples"]
    assert float(rows[0]["semigroup_residual"]) <= 1e-12


def test_cli_semigroup_check_plaplace(tmp_path):
    cfg = write(tmp_path, PLAPLACE_CFG)
    out = tmp_path / "out"
    assert run_cli(["semigroup-check", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["pass"] is True
    assert summary["max_mass_residual"] <= 1e-10
    assert summary["max_lq_contraction_residual"] <= 1e-9
    assert summary["kappa_fit"]["kappa_emp"] > 0


def test_cli_kappa_fit(tmp_path):
    cfg = write(tmp_path, PLAPLACE_CFG)
    out = tmp_path / "out"
    assert run_cli(["kappa-fit", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["kappa_emp"] > 0
    assert summary["fit_residual"] <= 1e-9
    assert (out / "kappa_fit.svg").exists()
    assert (out / "kappa_fit.csv").exists()


def test_cli_kappa_fit_rejects_scalar(tmp_path):
    cfg = write(tmp_path, SCALAR_CFG)
    assert run_cli(["kappa-fit", "--config", cfg, "--out", tmp_path / "o"]) == 1


def test_cli_slln(tmp_path):
    cfg = write(tmp_path, SCALAR_CFG)
    out = tmp_path / "out"
    assert run_cli(["slln", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    info = summary["functionals"]["norm_v2"]
    assert info["two_route_agree"] is True
    with open(out / "slln_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120 * 2  # replicates x checkpoints
    assert (out / "slln.svg").exists()


def test_cli_clt_and_outputs(tmp_path):
    cfg = write(tmp_path, SCALAR_CFG)
    out = tmp_path / "out"
    assert run_cli(["clt", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["ks_clt"]["p_value"] > 0.01
    assert summary["ks_anscombe"]["p_value"] > 0.01
    assert 0.5 < summary["var_ratio"] < 1.5
    with open(out / "clt_samples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120
    with open(out / "cycles.csv", newline="") as fh:
        cyc = list(csv.DictReader(fh))
    assert cyc[0]["is_warmup"] == "true"
    manifest = read_json(out / "manifest.json")
    for name in manifest["outputs"]:
        assert (out / name).exists()
    assert (out / "clt_hist.svg").exists()


def test_cli_clt_deterministic_point_mass(tmp_path):
    cfg = write(tmp_path, DETERMINISTIC_CFG)
    out = tmp_path / "out"
    assert run_cli(["clt", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["degenerate"] is True
    assert "point mass" in summary["note"]
    # x0 equals the kick, so the statistic vanishes at cycle-aligned horizons
    assert summary["max_abs_statistic"] <= 1e-12


def test_cli_anscombe_deterministic_point_mass(tmp_path):
    cfg = write(tmp_path, DETERMINISTIC_CFG)
    out = tmp_path / "out"
    assert run_cli(["anscombe", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert set(summary) == {"label", "degenerate", "note", "pass"}
    assert summary["degenerate"] is True and summary["pass"] is True
    assert "point mass" in summary["note"]
    assert read_json(out / "manifest.json")["outputs"] == ["summary.json"]


def test_cli_anscombe(tmp_path):
    cfg = write(tmp_path, SCALAR_CFG)
    out = tmp_path / "out"
    assert run_cli(["anscombe", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["pass"] is True
    assert len(summary["table"]) == 2
    assert (out / "anscombe_table.csv").exists()


def test_anscombe_pairs_each_theta_with_its_own_horizon():
    cfg = parse_config_text(SCALAR_CFG)
    summary = run_anscombe(cfg.build_setup(), cfg.plan, [20.0, 10.0])["summary"]
    assert [row["theta"] for row in summary["table"]] == [20.0, 10.0]
    for row in summary["table"]:
        assert row["t"] == row["theta"] * summary["mean_tau"]


@pytest.mark.parametrize(
    "line",
    [
        "theta_schedule = 10, abc",
        "theta_schedule = 10, 10",
        "theta_schedule = 0, 20",
        "checkpoints = 20, 5000",
        "checkpoints = 60, 20",
        "checkpoints = 0, 20",
    ],
)
def test_cli_malformed_run_schedule_is_a_config_error(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    cfg = write(tmp_path, re.sub(rf"^{key} = .*$", line, SCALAR_CFG, flags=re.M))
    assert run_cli(["slln", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line",
    [
        ("slln", "n_cycles = 0"),
        ("slln", "est_shards = 0"),
        ("slln", "n_replicates = 0"),
        ("slln", "t_end = 0"),
        ("validate", "n_mc = 0"),
    ],
)
def test_cli_run_size_out_of_range_is_a_config_error(tmp_path, capsys, command, line):
    key = line.split(" = ")[0]
    cfg = write(tmp_path, re.sub(rf"^{key} = .*$", line, SCALAR_CFG, flags=re.M))
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{key} must be" in err


def with_key(text, section, line):
    """``text`` with ``line`` set in ``section``, replacing the key there if it is set."""
    key = line.split(" = ")[0]
    head, header, rest = text.partition(f"[{section}]\n")
    body, nxt, tail = rest.partition("\n[")
    body = re.sub(rf"^{key} = .*\n", "", body, flags=re.M)
    return f"{head}{header}{line}\n{body}{nxt}{tail}"


@pytest.mark.parametrize(
    "section, line",
    [
        ("scalar", "kappa = -1"),
        ("scalar", "rho = 1.5"),
        ("policy", "eps_ext = 0"),
        ("policy", "m_cap = 0"),
        ("plaplace", "p = 2.5"),
        ("plaplace", "n_cells = 1"),
        ("plaplace", "length = 0"),
        ("plaplace", "dt = 0"),
        ("plaplace", "newton_max_iter = 0"),
        ("plaplace", "q = 0.5"),
        ("plaplace", "gamma = uniform:2.0,0.5"),
        ("plaplace", "kappa_samples = 0"),
        ("plaplace", "kappa_t_cap = 0"),
    ],
)
def test_cli_model_parameter_out_of_range_is_a_config_error(tmp_path, capsys, section, line):
    base = SCALAR_CFG if section == "scalar" else PLAPLACE_CFG
    cfg = write(tmp_path, with_key(base, section, line))
    assert run_cli(["validate", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"[{section}]" in err
    assert "Traceback" not in err


def test_cli_kappa_fit_that_finds_no_decay_is_a_config_error(tmp_path, capsys):
    # amp_max = 0 is allowed, but zero kicks leave the kappa fit no nonzero
    # sample: that is reported before any output directory is made
    text = (REPO / "configs" / "plaplace_small.ini").read_text()
    cfg = write(tmp_path, with_key(text, "eta", "amp_max = 0"))
    out = tmp_path / "o"
    assert run_cli(["validate", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "config error: [plaplace] no nonzero samples to fit" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, line",
    [
        ("plaplace", "q = nan"),
        ("plaplace", "q = inf"),
        ("plaplace", "dt = nan"),
        ("plaplace", "kappa_t_cap = inf"),
        ("policy", "eps_ext = nan"),
        ("run", "t_end = nan"),
        ("run", "clt_t = -inf"),
        ("eta", "amp = nan"),
    ],
)
def test_cli_nonfinite_float_is_a_config_error(tmp_path, capsys, section, line):
    # nan fails no `x <= 0` range check, so every float key refuses nan and
    # inf as it is cast, naming its section and key
    base = PLAPLACE_CFG if section == "plaplace" else SCALAR_CFG
    cfg = write(tmp_path, with_key(base, section, line))
    assert run_cli(["validate", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    key = line.split(" = ")[0]
    assert f"config error: [{section}] {key} = " in err and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    ["affine_norm:nan", "affine_norm:inf", "affine_norm:abc", "const:nan", "const:-inf", "const:x"],
)
def test_cli_bad_functional_shift_is_a_config_error(tmp_path, capsys, spec):
    # a shift is cast as a float key is: a nan one would pass validate, and a
    # word would die in float() with a traceback
    cfg = write(tmp_path, with_key(SCALAR_CFG, "functionals", f"specs = {spec}"))
    assert run_cli(["validate", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "config error: [functionals] " in err
    assert "Traceback" not in err


def test_cli_config_error_in_the_setup_leaves_no_output_directory(tmp_path, capsys):
    # the model's parameters are checked as the set-up is built; a config
    # that fails there writes nothing, not even an empty directory
    cfg = write(tmp_path, with_key(PLAPLACE_CFG, "plaplace", "q = 0.5"))
    out = tmp_path / "o"
    assert run_cli(["validate", "--config", cfg, "--out", out]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_that_is_a_file_is_an_error(tmp_path, capsys):
    # an --out that names a file cannot hold the outputs: an error that says
    # so, as an unreadable config is, and the file is left as it was
    cfg = write(tmp_path, SCALAR_CFG)
    out = tmp_path / "o"
    out.write_text("kept")
    assert run_cli(["validate", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "cannot write outputs: " in err
    assert "Traceback" not in err
    assert out.read_text() == "kept"


@pytest.mark.parametrize(
    "base, kind",
    [(PLAPLACE_CFG, "kind = value\nvalue = 0.5"), (SCALAR_CFG, "kind = sine")],
    ids=["value-on-grid", "sine-on-scalar"],
)
def test_cli_initial_kind_of_another_backend_is_a_config_error(tmp_path, capsys, base, kind):
    # one value is a scalar state, and a sine projected to zero mean on one
    # cell is 0: each is rejected at parse time, before any set-up or output
    cfg = write(tmp_path, base + f"\n[initial]\n{kind}\n")
    out = tmp_path / "o"
    assert run_cli(["slln", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "[initial]" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "base, kind",
    [
        (PLAPLACE_CFG, ("grid_bumps", "scalar_uniform\namp = 0.5")),
        (
            SCALAR_CFG,
            (
                "scalar_uniform",
                "grid_bumps\nn_bumps = 2\namp_max = 0.6\nwidth_low = 0.05\nwidth_high = 0.2",
            ),
        ),
    ],
    ids=["scalar-kick-on-grid", "grid-kick-on-scalar"],
)
def test_cli_eta_kind_of_another_backend_is_a_config_error(tmp_path, capsys, base, kind):
    # a kick must live in the backend's space: rejected at parse time, with
    # the section named, before any set-up or output
    old, new = kind
    cfg = write(tmp_path, base.replace(f"kind = {old}", f"kind = {new}"))
    out = tmp_path / "o"
    assert run_cli(["slln", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "[eta]" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_drift_and_runtime_errors_write_their_manifest(tmp_path):
    drift = write(tmp_path, BAD_DRIFT_CFG)
    assert run_cli(["slln", "--config", drift, "--out", tmp_path / "drift"]) == 2
    assert read_json(tmp_path / "drift" / "manifest.json")["outputs"] == []
    absurd = PLAPLACE_CFG.replace("dt = 0.01", "").replace(
        "newton_max_iter = 80", "newton_max_iter = 2"
    ).replace("p = 1.5", "p = 1.5\ndt = 10.0")
    runtime = write(tmp_path, absurd)
    assert run_cli(["semigroup-check", "--config", runtime, "--out", tmp_path / "rt"]) == 4
    assert read_json(tmp_path / "rt" / "manifest.json")["command"] == "semigroup-check"


# (section, key, raw value, parsed value, where the parsed config carries it);
# every value differs from the key's default
EVERY_KEY = [
    ("experiment", "backend", "plaplace", "plaplace", lambda c: c.backend),
    ("experiment", "master_seed", "123", 123, lambda c: c.master_seed),
    ("scalar", "kappa", "1.5", 1.5, lambda c: c.scalar_params.kappa),
    ("scalar", "rho", "0.3", 0.3, lambda c: c.scalar_params.rho),
    ("plaplace", "p", "1.7", 1.7, lambda c: c.plaplace.p),
    ("plaplace", "n_cells", "6", 6, lambda c: c.grid.n_cells),
    ("plaplace", "length", "2.0", 2.0, lambda c: c.grid.length),
    ("plaplace", "dt", "0.05", 0.05, lambda c: c.plaplace.dt),
    ("plaplace", "eps_reg", "1e-6", 1e-6, lambda c: c.plaplace.eps_reg),
    ("plaplace", "newton_tol", "1e-9", 1e-9, lambda c: c.plaplace.newton_tol),
    ("plaplace", "newton_max_iter", "50", 50, lambda c: c.plaplace.newton_max_iter),
    ("plaplace", "eps_ext", "1e-9", 1e-9, lambda c: c.plaplace.eps_ext),
    ("plaplace", "q", "3.0", 3.0, lambda c: c.q),
    ("plaplace", "gamma", "uniform:0.4,1.5", ("uniform", (0.4, 1.5)), lambda c: c.gamma),
    ("plaplace", "kappa_samples", "3", 3, lambda c: c.kappa_samples),
    ("plaplace", "kappa_t_cap", "20.0", 20.0, lambda c: c.kappa_t_cap),
    ("beta", "kind", "gamma", "gamma", lambda c: c.beta.kind),
    ("beta", "value", "0.5", 0.5, lambda c: c.beta.value),
    ("beta", "low", "0.2", 0.2, lambda c: c.beta.low),
    ("beta", "high", "0.9", 0.9, lambda c: c.beta.high),
    ("beta", "rate", "2.0", 2.0, lambda c: c.beta.rate),
    ("beta", "shape", "3.0", 3.0, lambda c: c.beta.shape),
    ("beta", "scale", "0.25", 0.25, lambda c: c.beta.scale),
    ("eta", "kind", "grid_bumps", "grid_bumps", lambda c: c.eta.kind),
    ("eta", "value", "0.5", 0.5, lambda c: c.eta.value),
    ("eta", "amp", "0.75", 0.75, lambda c: c.eta.amp),
    ("eta", "n_bumps", "3", 3, lambda c: c.eta.n_bumps),
    ("eta", "amp_max", "0.4", 0.4, lambda c: c.eta.amp_max),
    ("eta", "width_low", "0.1", 0.1, lambda c: c.eta.width_low),
    ("eta", "width_high", "0.3", 0.3, lambda c: c.eta.width_high),
    ("initial", "kind", "sine", "sine", lambda c: c.initial[0]),
    ("initial", "value", "0.25", 0.25, None),  # read by kind = value only
    ("initial", "amplitude", "0.5", 0.5, lambda c: c.initial[1]),
    ("initial", "mode", "2", 2, lambda c: c.initial[2]),
    ("functionals", "specs", "mass, norm_v2", ["mass", "norm_v2"], lambda c: c.specs),
    ("run", "n_cycles", "7", 7, lambda c: c.plan.n_cycles),
    ("run", "est_shards", "3", 3, lambda c: c.plan.est_shards),
    ("run", "t_end", "9.0", 9.0, lambda c: c.plan.t_end),
    ("run", "checkpoints", "2, 4", [2.0, 4.0], lambda c: c.plan.checkpoints),
    ("run", "n_replicates", "5", 5, lambda c: c.plan.n_replicates),
    ("run", "clt_t", "8.0", 8.0, lambda c: c.plan.clt_t),
    ("run", "theta_schedule", "3, 5", [3.0, 5.0], lambda c: c.theta_schedule),
    ("policy", "eps_ext", "1e-9", 1e-9, lambda c: c.policy.eps_ext),
    ("policy", "m_cap", "500", 500, lambda c: c.policy.m_cap),
    ("validate", "n_mc", "20000", 20000, lambda c: c.plan.n_mc),
]


def test_every_config_key_reaches_its_object():
    assert {(s, k) for s, k, *_ in EVERY_KEY} == {(s, k) for s in _KEYS for k in _KEYS[s]}
    lines = {}
    for section, key, raw, _, _ in EVERY_KEY:
        lines.setdefault(section, []).append(f"{key} = {raw}")
    text = "".join(f"[{s}]\n" + "\n".join(body) + "\n\n" for s, body in lines.items())
    cfg = parse_config_text(text)
    for section, key, _, want, got in EVERY_KEY:
        if got is not None:
            assert got(cfg) == want, (section, key)
    scalar = text.replace("backend = plaplace", "backend = scalar").replace(
        "kind = grid_bumps", "kind = scalar_uniform"
    )
    value = parse_config_text(scalar.replace("kind = sine", "kind = value"))
    assert value.initial == ("value", 0.25)
    # a law kind's own keys are required, not taken as 0.0
    for text, key in [
        (SCALAR_CFG.replace("kind = scalar_uniform\namp = 1.0", "kind = scalar_constant"), "value"),
        (SCALAR_CFG.replace("amp = 1.0\n", ""), "amp"),
        (PLAPLACE_CFG.replace("amp_max = 0.6\n", ""), "amp_max"),
    ]:
        with pytest.raises(ConfigError, match=f"missing required key '{key}' in section \\[eta\\]"):
            parse_config_text(text)


@pytest.mark.parametrize("command", ["clt", "anscombe"])
def test_cli_ks_with_too_few_replicates_is_a_config_error(tmp_path, capsys, command):
    cfg = write(tmp_path, SCALAR_CFG.replace("n_replicates = 120", "n_replicates = 50"))
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "at least 100 replicates" in err


def test_grid_anscombe_with_too_few_replicates_fails_before_its_horizons(tmp_path, capsys,
                                                                           monkeypatch):
    # the replicate count is known before the horizon phase, the study's
    # costly part (minutes on a grid), so the config error comes first
    def horizon(*args, **kwargs):
        raise AssertionError("the horizon replicates were simulated")

    monkeypatch.setattr(runner, "simulate_until_time", horizon)
    cfg = write(tmp_path, PLAPLACE_CFG.replace("n_cycles = 40", "n_cycles = 4"))
    assert run_cli(["anscombe", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "at least 100 replicates, got 4" in err


class InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: records each pool's worker count
    and runs the tasks in this process when their results are collected."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize(
    "threads, workers", [(1, []), (2, [2]), (8, [3])], ids=["threads-1", "threads-2", "threads-8"]
)
def test_cli_forks_at_most_one_worker_per_task(tmp_path, monkeypatch, threads, workers):
    # one estimation shard and two replicates: three tasks
    made = []
    monkeypatch.setattr(runner, "ProcessPoolExecutor", partial(InlineExecutor, made))
    text = SCALAR_CFG.replace("est_shards = 4", "est_shards = 1")
    cfg = write(tmp_path, text.replace("n_replicates = 120", "n_replicates = 2"))
    assert run_cli(["slln", "--config", cfg, "--out", tmp_path / "o", "--threads", threads]) == 0
    assert made == workers


@pytest.mark.parametrize("threads", [0, -2])
def test_cli_threads_below_one_is_a_config_error(tmp_path, monkeypatch, capsys, threads):
    made = []
    monkeypatch.setattr(runner, "ProcessPoolExecutor", partial(InlineExecutor, made))
    cfg = write(tmp_path, SCALAR_CFG)
    assert run_cli(["slln", "--config", cfg, "--out", tmp_path / "o", "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "--threads" in err
    assert made == []


def test_cli_clt_point_mass_needs_no_ks_replicate_count(tmp_path):
    cfg = write(tmp_path, DETERMINISTIC_CFG.replace("n_replicates = 120", "n_replicates = 5"))
    assert run_cli(["clt", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert read_json(tmp_path / "o" / "summary.json")["degenerate"] is True


def test_cli_drift_gate_and_force(tmp_path):
    cfg = write(
        tmp_path,
        BAD_DRIFT_CFG
        + "\n[run]\nn_cycles = 200\nest_shards = 1\nt_end = 50.0\nn_replicates = 100\n"
        + "\n[policy]\nm_cap = 20000\n",
    )
    out = tmp_path / "out"
    assert run_cli(["clt", "--config", cfg, "--out", out]) == 2
    # forced run proceeds past the gate; with positive drift the chain never
    # extinguishes and the cycle cap fires as a runtime error
    out2 = tmp_path / "out2"
    code = run_cli(["clt", "--config", cfg, "--out", out2, "--force"])
    assert code == 4


def test_cli_runtime_error_exit_4(tmp_path):
    absurd = PLAPLACE_CFG.replace("dt = 0.01", "").replace(
        "newton_max_iter = 80", "newton_max_iter = 2"
    ).replace("p = 1.5", "p = 1.5\ndt = 10.0")
    cfg = write(tmp_path, absurd)
    assert run_cli(["semigroup-check", "--config", cfg, "--out", tmp_path / "o"]) == 4


def test_cli_solver_failure_in_a_pool_worker_exits_4(tmp_path, capsys):
    # a worker's NonConvergence reaches the parent whole: the same exit code,
    # message and manifest at every thread count
    cfg = write(tmp_path, PLAPLACE_CFG.replace("newton_max_iter = 80", "newton_max_iter = 10"))
    errs = []
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        assert run_cli(["slln", "--config", cfg, "--out", out, "--threads", threads]) == 4
        errs.append(capsys.readouterr().err)
        assert read_json(out / "manifest.json")["command"] == "slln"
    assert errs[0] == errs[1]
    assert errs[0].startswith("runtime error: implicit step did not converge")


def _tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.json":
            payload = json.loads(data)
            payload.pop("wall_time_seconds", None)
            payload.pop("threads", None)
            data = json.dumps(payload, sort_keys=True).encode()
        out[name] = data
    return out


@pytest.mark.parametrize("command", ["slln", "anscombe"])
def test_cli_study_without_scalar_functional_is_a_config_error(tmp_path, capsys, command):
    text = re.sub(r"^n_cycles = .*$", "n_cycles = 2", PLAPLACE_CFG, flags=re.M)
    text = re.sub(r"^n_replicates = .*$", "n_replicates = 1", text, flags=re.M)
    cfg = write(tmp_path, text + "\n[functionals]\nspecs = identity_v2\n")
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "scalar-valued functional" in err
    assert "Traceback" not in err


def test_grid_slln_integrates_its_scalar_functionals_alone():
    # specs = identity_v2, norm_v2: the vector functional is listed as skipped
    # and no horizon replicate integrates it
    cfg = load_config(REPO / "configs" / "plaplace_small.ini")
    result = runner.run_slln(cfg.build_setup(), replace(cfg.plan, n_cycles=4))
    reps = result["replicates"]
    assert list(reps.integrals) == list(reps.index_s) == ["norm_v2"]
    assert result["summary"]["skipped_vector_functionals"] == ["identity_v2"]


@pytest.mark.parametrize(
    "command, outputs",
    [
        ("clt", ["summary.json", "clt_samples.csv"]),
        ("anscombe", ["summary.json", "anscombe_table.csv"]),
    ],
    ids=["clt", "anscombe"],
)
def test_ks_studies_integrate_their_functional_alone(tmp_path, monkeypatch, command, outputs):
    # with specs = norm_v2, mass the estimation and horizon tasks run norm_v2
    # alone, and the study writes what a norm_v2-only run writes
    seen = set()
    for name in ("_moments_task", "_horizon_task"):

        def logged(args, task=getattr(runner, name), name=name):
            seen.add((name, tuple(xi.label for xi in args[0].functionals)))
            return task(args)

        monkeypatch.setattr(runner, name, logged)
    text = SCALAR_CFG.replace("specs = norm_v2", "specs = norm_v2, mass")
    both = write(tmp_path, text, "both.ini")
    assert run_cli([command, "--config", both, "--out", tmp_path / "both"]) == 0
    assert seen == {("_moments_task", ("norm_v2",)), ("_horizon_task", ("norm_v2",))}
    alone = write(tmp_path, SCALAR_CFG, "alone.ini")
    assert run_cli([command, "--config", alone, "--out", tmp_path / "alone"]) == 0
    for name in outputs:
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
    if command == "clt":  # cycles.csv keeps a column for every configured functional
        with open(tmp_path / "both" / "cycles.csv", newline="") as fh:
            assert {"S_mass", "S_norm_v2"} <= set(next(csv.reader(fh)))


def test_every_study_csv_goes_through_write_csv(tmp_path, monkeypatch):
    # report.write_csv is the one CSV writer: it receives exactly the .csv
    # files each study's manifest lists
    written = []
    write_csv = report.write_csv

    def recorded(path, header, columns):
        written.append(Path(path))
        return write_csv(path, header, columns)

    monkeypatch.setattr(report, "write_csv", recorded)
    cfg = write(tmp_path, SCALAR_CFG)
    for command in ("clt", "slln", "anscombe", "semigroup-check"):
        out = tmp_path / command
        written.clear()
        assert run_cli([command, "--config", cfg, "--out", out]) == 0
        listed = [out / n for n in read_json(out / "manifest.json")["outputs"] if n.endswith(".csv")]
        assert listed and sorted(written) == sorted(listed), command


def test_cli_outputs_thread_invariant(tmp_path):
    cfg = write(tmp_path, SCALAR_CFG)
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    assert run_cli(["clt", "--config", cfg, "--out", out1, "--threads", "1"]) == 0
    assert run_cli(["clt", "--config", cfg, "--out", out2, "--threads", "2"]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_cli_clt_vector_covariance_route():
    # the committed small-grid clt (its first functional is identity_v2 on 16
    # cells), which test_cli_small_grid_outputs_match_committed[clt-1] reruns
    summary = read_json(REPO / "out" / "plaplace_small" / "clt" / "summary.json")
    # the covariance route's summary: its note, and no covariance matrix
    assert set(summary) == {
        "label", "vector", "note", "n_cycles", "nu_hat", "se_nu", "mean_tau",
        "q_eigenvalues", "q_min_eigenvalue", "projection_gap", "pass",
    }
    assert summary["note"] == "vector-valued functional: covariance route (no replicate KS)"
    assert summary["vector"] is True
    assert len(summary["q_eigenvalues"]) == 16
    assert summary["q_min_eigenvalue"] >= -1e-10
    assert summary["projection_gap"] <= 1e-8
    assert summary["pass"] is True
