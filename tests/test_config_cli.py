import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from regenjump.cli import main
from regenjump.config import build_functional, config_hash, parse_config_text
from regenjump.errors import ConfigError
from regenjump.runner import run_semigroup_check
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
    out = tmp_path / "out"
    config = REPO / "configs" / "plaplace.ini"
    assert run_cli([command, "--config", config, "--out", out]) == 0
    committed = REPO / "out" / "plaplace" / output
    assert (out / committed.name).read_bytes() == committed.read_bytes()


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


def test_cli_anscombe(tmp_path):
    cfg = write(tmp_path, SCALAR_CFG)
    out = tmp_path / "out"
    assert run_cli(["anscombe", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["pass"] is True
    assert len(summary["table"]) == 2
    assert (out / "anscombe_table.csv").exists()


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


def test_cli_outputs_thread_invariant(tmp_path):
    cfg = write(tmp_path, SCALAR_CFG)
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    assert run_cli(["clt", "--config", cfg, "--out", out1, "--threads", "1"]) == 0
    assert run_cli(["clt", "--config", cfg, "--out", out2, "--threads", "2"]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_cli_clt_vector_covariance_route(tmp_path):
    text = PLAPLACE_CFG.replace("n_cycles = 40", "n_cycles = 60")
    text += "\n[functionals]\nspecs = identity_v2\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(["clt", "--config", cfg, "--out", out]) == 0
    summary = read_json(out / "summary.json")
    assert summary["vector"] is True
    assert len(summary["q_eigenvalues"]) == 12
    assert summary["q_min_eigenvalue"] >= -1e-10
    assert summary["projection_gap"] <= 1e-8
    assert summary["pass"] is True
