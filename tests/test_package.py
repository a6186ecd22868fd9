import ast
import csv
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import regenjump
from test_config_cli import PLAPLACE_CFG, SCALAR_CFG

MODULES = [regenjump] + [
    importlib.import_module(f"regenjump.{info.name}")
    for info in pkgutil.iter_modules(regenjump.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exports_exist(module):
    # a deleted name must leave its module's export list too
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("module", MODULES[1:], ids=lambda m: m.__name__)
def test_no_unused_imports(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(module, "__all__", ()))
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{module.__name__} imports unused names (line, name): {unused}"


def test_no_module_imports_scipy_stats():
    # the KS tests are the package's own, and the cycle diagnostics live with
    # the tests' oracles; an import inside a function counts too
    found = []
    for path in sorted(Path(regenjump.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "scipy.stats" or name.startswith("scipy.stats.") for name in names):
                found.append((path.name, node.lineno))
    assert not found, f"scipy.stats imported at (file, line) {found}"


SRC = Path(regenjump.__file__).resolve().parents[1]
_TRACE_INSTALL = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("trace", sys.argv[1])
trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace)
trace.install(trace.Tracer())
"""


def test_bench_trace_installs_over_the_package():
    # bench/trace.py wraps package names by attribute, the clt- and
    # anscombe-only ones too (cli.run_clt, runner.anscombe_check); renaming
    # one makes install raise, which the traced slln run alone would not see
    script = SRC.parent / "bench" / "trace.py"
    subprocess.run(
        [sys.executable, "-c", _TRACE_INSTALL, str(script)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )


def test_bench_trace_counts_the_cycles_csv_rows(tmp_path):
    # bench/trace.py wraps clt's simulate_cycles call, drains its result with
    # list() inside the span and counts what it drained: the file's rows,
    # the warm-up's included
    cfg, spans, out = tmp_path / "exp.ini", tmp_path / "spans.json", tmp_path / "out"
    cfg.write_text(SCALAR_CFG)
    script = SRC.parent / "bench" / "trace.py"
    subprocess.run(
        [sys.executable, str(script), "--spans", str(spans), "--",
         "clt", "--config", str(cfg), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    trace = json.loads(spans.read_text(encoding="utf-8"))
    assert "process.simulate_cycles" in {name for name, *_ in trace["spans"]}
    with open(out / "cycles.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and trace["counts"]["process.records"] == len(rows)


_PROBE = """
import json, sys
import regenjump, regenjump.cli
if len(sys.argv) > 1:
    assert regenjump.cli.main(sys.argv[1:]) == 0
# any scipy submodule loads the package "scipy" first
print(json.dumps([m for m in ("scipy", "scipy.linalg", "scipy.stats") if m in sys.modules]))
"""
_SMALL_GRID = (
    PLAPLACE_CFG.replace("n_cycles = 40", "n_cycles = 4")
    .replace("t_end = 10.0", "t_end = 1.0")
    .replace("clt_t = 10.0", "clt_t = 1.0")
)
_SCALAR_COMMANDS = ["validate", "semigroup-check", "slln", "clt", "anscombe"]


@pytest.mark.parametrize(
    "command, config, loaded",
    [(None, None, [])]
    + [(command, SCALAR_CFG, []) for command in _SCALAR_COMMANDS]
    + [("slln", _SMALL_GRID, ["scipy", "scipy.linalg"])],
    ids=["import"] + [f"{command}-scalar" for command in _SCALAR_COMMANDS] + ["slln-grid"],
)
def test_scipy_loads_only_for_grid_solves(tmp_path, command, config, loaded):
    # numpy alone serves the package and every scalar command, the KS tests
    # included; the grid loads scipy.linalg for its banded solves, never
    # scipy.stats (about 0.6 s and 40 MB of a fresh process)
    args = []
    if command:
        cfg = tmp_path / "exp.ini"
        cfg.write_text(config)
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded


_POOL_PROBE = """
import json, sys
from regenjump import cli, runner
events = []

class InlineExecutor:  # records each pool; runs the tasks here when collected
    def __init__(self, max_workers):
        events.append("pool")

    def map(self, fn, tasks, chunksize=1):
        def collect():
            events.append("scipy.stats" in sys.modules)
            yield from map(fn, tasks)
        return collect()

    def shutdown(self, wait=True, cancel_futures=False):
        pass

runner.ProcessPoolExecutor = InlineExecutor
assert cli.main(sys.argv[1:]) == 0
events.append("scipy.stats" in sys.modules)
print(json.dumps(events))
"""


@pytest.mark.parametrize("command", ["slln", "clt", "anscombe"])
def test_study_forks_one_pool_and_never_loads_scipy_stats(tmp_path, command):
    # a study forks its workers once, and its KS tests need no scipy.stats,
    # neither before the results are collected nor after
    cfg = tmp_path / "exp.ini"
    cfg.write_text(SCALAR_CFG)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", "2"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    # the pool, one collection each of the estimation and the replicates, the end
    assert json.loads(proc.stdout.splitlines()[-1]) == ["pool", False, False, False]


_BLAS_PROBE = """
import json, os
import regenjump, scipy.linalg
threads = [line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:")]
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), int(threads[0])]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "caller-set"])
def test_package_pins_one_blas_thread_unless_the_caller_set_it(preset):
    # numpy's OpenBLAS and scipy.linalg's copy each start a busy-waiting
    # thread per spare core; the package sets one BLAS thread before either
    # loads, and a value the caller set wins
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, check=True
    )
    value, threads = json.loads(proc.stdout.splitlines()[-1])
    if preset is None:
        assert (value, threads) == ("1", 1)
    else:
        assert value == preset
