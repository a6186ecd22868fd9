"""Regenerative jump processes driven by finitely extinguishing semigroups.

Simulation of chains X_m = T(beta_m) X_{m-1} + eta_m whose between-jump flow
T is a nonlinear contraction semigroup that reaches zero in finite time,
renewal-reward estimation of long-run averages and fluctuation covariances,
and a statistical verification harness (strong-law, central-limit, and
random-index checks) for both an exact scalar flow and a discrete weighted
p-Laplacian flow.
"""

import os

# One OpenBLAS thread per process, set before any submodule loads numpy (a
# value the caller set wins; numpy loaded earlier keeps its own).  numpy's
# OpenBLAS starts a busy-waiting thread per spare core that no call here is
# large enough to use: on 2 cores, idle BLAS threads cost 0.2-0.3 s of CPU at
# import and up to a quarter of a small grid slln's CPU time.  The study pool
# is the only parallelism.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .driver import BetaLaw, DriverConfig, EtaLaw, check_drift_condition, derive_replicate_rng
from .errors import (
    ConfigError,
    CycleCapExceeded,
    DegenerateSigma,
    DimensionMismatch,
    DriftViolated,
    InsufficientCycles,
    NoExtinction,
    NonConvergence,
    QuadratureBudgetExceeded,
)
from .estimators import (
    TestReport,
    anscombe_check,
    clt_statistic,
    ks_test_normal,
)
from .functionals import (
    AffineShift,
    IdentityV2,
    Linear,
    NormV2,
    integrate_segment,
)
from .plaplace import (
    Grid1D,
    PLaplaceConfig,
    PLaplaceSemigroup,
    WeightField,
    apply_discrete_operator,
    estimate_kappa,
)
from .process import (
    Cycles,
    ExtinctionPolicy,
    HorizonResult,
    cycle_moments,
    simulate_cycles,
    simulate_until_time,
)
from .semigroup import ExtinctionParams, ScalarPowerLaw
from .spaces import Space, StateVector, grid_space, project_zero_mean, scalar_space

__version__ = "0.1.0"
