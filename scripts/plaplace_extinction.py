#!/usr/bin/env python3
"""Grid-backend study: axiom residuals, empirical decay rate, and a short
fluctuation run for the discrete weighted p-Laplacian flow.

Reports go under out/<config name>/<subcommand>/: the shipped
configs/plaplace.ini, then the same model at the small sizes of
configs/plaplace_small.ini, whose slln and vector clt outputs are committed
and gated by the tests.
"""

import pathlib
import sys

from regenjump.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNS = [
    ("plaplace", ("validate", "semigroup-check", "kappa-fit", "slln")),
    ("plaplace_small", ("slln", "clt")),
]


def run():
    for name, commands in RUNS:
        config = ROOT / "configs" / f"{name}.ini"
        for command in commands:
            out_dir = ROOT / "out" / name / command.replace("-", "_")
            print(f"== {command} -> {out_dir}")
            code = main(
                [command, "--config", str(config), "--out", str(out_dir), "--threads", "1"]
            )
            if code != 0:
                print(f"{command} exited with {code}")
                return code
    print(f"all reports under {ROOT / 'out'}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
