"""Two-link arm benchmark: muscle-like versus torque actuation under
derivative-free optimization and sampling-based MPC."""

import os
import sys
import warnings

# NumPy's BLAS returns different bits under different thread counts (the
# CMA-ES eigendecomposition and matrix products), so myoarm fixes one thread
# before NumPy loads, overriding the caller. The `myoarm` script and the
# sweep's forked pool workers inherit it. A NumPy imported earlier has
# already read its thread count; then the results depend on the caller.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_other = {k: os.environ[k] for k in _BLAS_THREADS if os.environ.get(k, "1") != "1"}
_pinned = all(os.environ.get(k) == "1" for k in _BLAS_THREADS)
if _other:
    warnings.warn(f"myoarm runs with one BLAS thread; overriding {_other}",
                  RuntimeWarning, stacklevel=2)
if "numpy" in sys.modules and not _pinned:
    warnings.warn("NumPy was imported before myoarm, so its BLAS thread count "
                  "is not fixed at 1 and results may depend on it", RuntimeWarning,
                  stacklevel=2)
os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

__version__ = "0.1.0"

from .arm import (ArmParams, ArmState, BallState, Perturbation,
                  end_effector, forward_dynamics, step)
from .actuators import (AblationFlags, HatzeParams, MuscleParams,
                        make_controller)
from .objectives import (ObjectiveWeights, ReachTarget, make_task)
from .optimizers import CmaConfig, cma_es, local_refine
from .control import (ControlParameterization, MpcConfig, RolloutResult,
                      calibrate_torque_limits, mpc_run, open_loop_optimize,
                      rollout, rollout_batch)
from .config import ExperimentConfig, load_config
from .harness import robustness_sweep, run_experiment, summarize

__all__ = [
    "ArmParams", "ArmState", "BallState", "Perturbation",
    "forward_dynamics", "step", "end_effector",
    "MuscleParams", "HatzeParams", "AblationFlags", "make_controller",
    "ReachTarget", "ObjectiveWeights", "make_task",
    "ControlParameterization", "CmaConfig", "cma_es", "local_refine",
    "RolloutResult", "MpcConfig", "rollout", "rollout_batch",
    "open_loop_optimize",
    "mpc_run", "calibrate_torque_limits",
    "ExperimentConfig", "load_config",
    "run_experiment", "robustness_sweep", "summarize",
]
