"""Two-link arm benchmark: muscle-like versus torque actuation under
derivative-free optimization and sampling-based MPC."""

__version__ = "0.1.0"

from .arm import (ArmParams, ArmState, BallState, Perturbation,
                  end_effector, forward_dynamics, step)
from .actuators import (AblationFlags, HatzeParams, MuscleParams,
                        make_controller)
from .objectives import (ObjectiveWeights, ReachTarget, make_task)
from .optimizers import (CmaConfig, ControlParameterization, cma_es,
                         local_refine)
from .control import (MpcConfig, RolloutResult, calibrate_torque_limits,
                      mpc_run, open_loop_optimize, rollout, rollout_batch)
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
