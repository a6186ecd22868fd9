"""Fixed calibration kernels that measure how fast the host runs right now.

Started as a child process by ``bench/run.py``::

    python3 bench/calibrate.py

It runs both kernels once untimed at a twentieth of their size.  Then, for
each line it reads from standard input, it runs them timed and prints
``{"wall_s": ..., "cpu_s": ...}`` of the timed part as one JSON line.  It exits
at the end of its input.

The kernels do the two kinds of work the ``regenjump`` studies spend their
time on, written afresh here: ``scalar_kernel`` is a scalar jump recurrence in
a Python loop over NumPy-drawn blocks, which also grows a list of cycle
lengths and takes its prefix sums; ``grid_kernel`` is a sequence of implicit
steps of a nonlinear diffusion on a 1-D grid, each a banded SciPy solve.  They
do not import ``regenjump``, so their cost is the same on every commit and
moves only with the host.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
from scipy.linalg import solveh_banded

_BLOCK = 4096
SCALAR_STEPS = 250_000  # about 0.5 s on a 2-core x86_64 VM
GRID_STEPS = 8_000  # about 0.5 s there too


def scalar_kernel(size):
    """``size`` steps of a scalar recurrence x -> (|x|^rho - kappa*beta)^(1/rho) + eta."""
    rng = np.random.default_rng(20251018)
    rho, kappa = 1.5, 0.8
    inv_rho = 1.0 / rho
    e1 = inv_rho + 1.0
    denom = kappa * e1
    fns = [lambda pos, i, b: i if pos else -i, lambda pos, i, b: b * i]
    acc = [0.0, 0.0]
    sums = [0.0, 0.0]
    taus = []
    x = 0.5
    alpha = t0 = 0.0
    for start in range(0, size, _BLOCK):
        bbuf = rng.exponential(0.5, _BLOCK)
        ebuf = rng.uniform(-1.0, 1.0, _BLOCK)
        for k in range(min(_BLOCK, size - start)):
            beta = float(bbuf[k])
            eta = float(ebuf[k])
            ax = abs(x)
            c = ax**rho
            r = c - kappa * beta
            live = min(beta, c / kappa)
            tail = max(c - kappa * live, 0.0)
            i_abs = (c**e1 - tail**e1) / denom
            pos = x >= 0
            alpha += beta
            for j in range(2):
                acc[j] += fns[j](pos, i_abs, beta)
            if r <= 0.0:
                taus.append(alpha - t0)
                t0 = alpha
                for j in range(2):
                    sums[j] += acc[j]
                acc = [0.0, 0.0]
                x = eta
            else:
                m = r**inv_rho
                x = (m if pos else -m) + eta
    return float(np.cumsum(np.asarray(taus))[-1]) + sums[0] + sums[1]


def grid_kernel(size, n=256, p=3.0, dt=1e-4):
    """``size`` lagged-diffusivity implicit steps of u_t = (|u_x|^(p-2) u_x)_x on n points."""
    rng = np.random.default_rng(20251018)
    h = 1.0 / (n + 1)
    u = rng.uniform(-1.0, 1.0, n)
    ab = np.empty((2, n))
    total = 0.0
    for step in range(size):
        grad = np.diff(u, prepend=0.0, append=0.0) / h
        k = (np.abs(grad) + 1e-3) ** (p - 2.0)
        w = dt * k / (h * h)
        ab[1] = 1.0 + w[:-1] + w[1:]
        ab[0, 0] = 0.0
        ab[0, 1:] = -w[1:-1]
        u = solveh_banded(ab, u)
        if step % 64 == 63:
            u = u + 0.1 * rng.standard_normal(n)
        total += float(u @ u)
    return total


def main():
    scalar_kernel(SCALAR_STEPS // 20)
    grid_kernel(GRID_STEPS // 20)
    for _ in sys.stdin:
        t0, c0 = time.perf_counter(), time.process_time()
        scalar_kernel(SCALAR_STEPS)
        grid_kernel(GRID_STEPS)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        print(json.dumps({"wall_s": wall, "cpu_s": cpu}), flush=True)


if __name__ == "__main__":
    main()
