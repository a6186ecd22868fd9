"""The benchmark's traced run still finds every package name it wraps.

``bench/trace.py`` replaces entry points of the package from outside, so a
refactor that drops or renames one of them breaks only the traced run.  This
runs it on a tiny scalar and a tiny grid ``slln`` study and checks the spans
that the per-layer metrics are read from.
"""

import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

SMALL_RUNS = {
    "scalar": {"n_cycles": 200, "est_shards": 2, "n_replicates": 4, "t_end": 20.0,
               "checkpoints": "10", "clt_t": 20.0},
    "plaplace": {"n_cycles": 2, "est_shards": 1, "n_replicates": 1, "t_end": 0.4,
                 "checkpoints": "0.2", "clt_t": 0.4},
}

SPANS = {
    "scalar": {"process.cycle_moments", "process.horizon"},
    "plaplace": {"process.cycle_moments", "process.horizon", "functionals.integrate_segment",
                 "plaplace.advance", "plaplace.solve"},
}


@pytest.mark.parametrize("backend", ["scalar", "plaplace"])
def test_traced_slln_records_the_layer_spans(tmp_path, backend):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(REPO / "configs" / f"{backend}.ini", encoding="utf-8")
    for key, value in SMALL_RUNS[backend].items():
        parser["run"][key] = str(value)
    config = tmp_path / "small.ini"
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(REPO / "bench" / "trace.py"), "--spans", str(spans), "--",
            "slln", "--config", str(config), "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    # 1 config, 2 drift, 4 runtime error; 3 (a statistical gate) is fine at these sizes
    assert proc.returncode not in (1, 2, 4), proc.stdout + proc.stderr
    with open(spans, encoding="utf-8") as fh:
        recorded = {name for name, *_ in json.load(fh)["spans"]}
    assert SPANS[backend] <= recorded, sorted(SPANS[backend] - recorded)
