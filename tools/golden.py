"""Write the golden output set and print one sha256 per file.

    PYTHONPATH=src python tools/golden.py OUT_DIR

The set is a fixed list of tiny runs that together touch every experiment
kind, every task, the torque calibration and each CLI run command:

- one sweep of each of the 8 experiment kinds;
- data_efficiency sweeps on precise-reach and fast-reach, and one with
  arm and weight overrides;
- a robustness sweep with muscle and torque (so it calibrates), and one
  with two seeds and two loads per morphology, whose loads share one MPC
  warm start per (morphology, seed): a warm start handed across seeds or
  morphologies changes its digests;
- a precise-reach data_efficiency sweep and a precise-reach robustness
  sweep on a longer upper arm and a heavier forearm, where the arm sets
  the goal, the dynamics and the score;
- CLI `simulate` (pendulum load, ball serve, a ball serve whose hand hits
  the ball, low-pass, fast-reach), `optimize` (plain, `--ablate fv`,
  fast-reach, three CMA-ES generations) and `mpc` (muscle; torque with a
  hand mass; pendulum load; fast-reach; ball-serve; a torque fast-reach
  run that stops at the goal; a refinement budget above twice the plan's
  dimension, so the pattern search halves its radius).

Every file is written under OUT_DIR, which must be empty or absent. The
output is one `<sha256>  <path relative to OUT_DIR>` line per file, sorted
by path, so two runs (or two commits) compare with `diff`. A refactor that
is meant to keep the numbers must leave every line unchanged. To get the
parent commit's digests, check the parent out into a directory of its own
(`git worktree add` or `git archive`) and run this script against its
package: `PYTHONPATH=<parent worktree>/src python tools/golden.py OUT`.
The whole set takes a few seconds on one core.
"""

import contextlib
import hashlib
import io
import os
import sys

from myoarm import cli
from myoarm.config import ExperimentConfig, parse_config_text
from myoarm.harness import run_experiment

TINY_OC = {"optimizer.population": 4, "optimizer.generations": 2,
           "experiment.seeds": [0, 1], "grid.c": [0.3]}
TINY_MPC = {"optimizer.population": 4, "mpc.warm_generations": 1,
            "mpc.refine_budget": 2, "mpc.tpred": 0.02,
            "experiment.seeds": [0]}
ARM = {"arm.l1": 0.35, "arm.m2": 2.0}   # a longer upper arm, a heavier forearm

SWEEPS = {
    "data_efficiency": {"experiment.kind": "data_efficiency",
                        "grid.c": [0.3, 0.15]},
    "sigma_sweep": {"experiment.kind": "sigma_sweep",
                    "grid.sigma": [0.1, 0.3]},
    "tpred_sweep": {"experiment.kind": "tpred_sweep",
                    "grid.tpred": [0.02, 0.03], **TINY_MPC},
    "robustness_weights": {"experiment.kind": "robustness_weights",
                           "experiment.morphologies": ["muscle"],
                           "grid.masses": [1.0], **TINY_MPC},
    "ablation": {"experiment.kind": "ablation",
                 "experiment.ablations": ["none", "fl", "fv", "actdyn"]},
    "ball_serve": {"experiment.kind": "ball_serve"},
    "pd_baseline": {"experiment.kind": "pd_baseline",
                    "experiment.morphologies": ["muscle"]},
    "lowpass_baseline": {"experiment.kind": "lowpass_baseline",
                         "experiment.morphologies": ["muscle"]},
    "precise_reach": {"experiment.task": "precise-reach",
                      "experiment.seeds": [0]},
    "fast_reach": {"experiment.task": "fast-reach"},
    "arm_override": {**ARM, "weights.jerk_gain": 2.0, "grid.c": [0.1]},
    "robust_torque": {"experiment.kind": "robustness_weights",
                      "experiment.morphologies": ["muscle", "torque"],
                      "grid.masses": [2.0], **TINY_MPC},
    "precise_arm": {"experiment.task": "precise-reach", **ARM,
                    "experiment.seeds": [0]},
    "robust_precise_arm": {"experiment.kind": "robustness_weights",
                           "experiment.task": "precise-reach", **ARM,
                           "experiment.morphologies": ["muscle"],
                           "grid.masses": [1.0], **TINY_MPC},
    "robust_shared": {"experiment.kind": "robustness_weights",
                      "experiment.morphologies": ["muscle", "torque"],
                      "grid.masses": [1.0, 2.0], **TINY_MPC,
                      "experiment.seeds": [0, 1]},
}

TINY_CLI_OC = ["--population", "4", "--generations", "2"]
TINY_CLI_MPC = ["--tpred", "0.02", "--population", "4",
                "--warm-generations", "1", "--refine-budget", "2"]

CLI_RUNS = {
    "simulate_pendulum.csv": ["simulate", "--perturb", "chaotic_pendulum",
                              "--seed", "3"],
    "simulate_ball.csv": ["simulate", "--task", "ball-serve", "--seed", "1"],
    # the hand hits the ball
    "simulate_ball_contact.csv": ["simulate", "--task", "ball-serve",
                                  "--seed", "7"],
    "simulate_lowpass.csv": ["simulate", "--morphology", "lowpass-slow",
                             "--c", "0.05"],
    "simulate_fast.csv": ["simulate", "--task", "fast-reach", "--seed", "2"],
    "optimize": ["optimize", *TINY_CLI_OC],
    "optimize_nofv": ["optimize", "--ablate", "fv", *TINY_CLI_OC],
    "optimize_fast": ["optimize", "--task", "fast-reach", *TINY_CLI_OC],
    # a CMA-ES generation that is neither the first nor the last: it samples
    # through the decomposed covariance, and its update is read
    "optimize_three_generations": ["optimize", "--population", "4",
                                   "--generations", "3"],
    "mpc": ["mpc", *TINY_CLI_MPC],
    "mpc_torque_hand": ["mpc", "--morphology", "torque", "--perturb",
                        "hand_mass", "--mass", "1.5", *TINY_CLI_MPC],
    "mpc_pendulum": ["mpc", "--perturb", "chaotic_pendulum", *TINY_CLI_MPC],
    "mpc_fast": ["mpc", "--task", "fast-reach", "--seed", "1", *TINY_CLI_MPC],
    "mpc_ball": ["mpc", "--task", "ball-serve", *TINY_CLI_MPC],
    # stops at the goal after 108 of 400 physics steps
    "mpc_fast_goal": ["mpc", "--task", "fast-reach", "--morphology", "torque",
                      "--seed", "3", *TINY_CLI_MPC],
    # a budget of 20 against a muscle plan of dimension 8 (tpred 0.02)
    "mpc_refine_halves": ["mpc", "--tpred", "0.02", "--population", "4",
                          "--warm-generations", "1", "--refine-budget", "20"],
}


def _config_text(settings: dict) -> str:
    def value(v):
        # a trailing comma keeps a one-element list a list
        return ", ".join(map(str, v)) + "," if isinstance(v, list) else str(v)
    return "".join(f"{k} = {value(v)}\n" for k, v in settings.items())


def write_golden(out_dir: str):
    """Run the whole set into out_dir; returns {relative path: sha256}."""
    os.makedirs(out_dir, exist_ok=True)
    if os.listdir(out_dir):
        raise SystemExit(f"{out_dir} is not empty")
    for name, extra in SWEEPS.items():
        sweep_dir = os.path.join(out_dir, name)
        text = _config_text({**TINY_OC, **extra,
                             "experiment.out_dir": sweep_dir})
        run_experiment(ExperimentConfig.from_mapping(parse_config_text(text)))
    os.makedirs(os.path.join(out_dir, "cli"))
    for name, argv in CLI_RUNS.items():
        out = os.path.join(out_dir, "cli", name)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", out])
        if code != 0:
            raise SystemExit(f"cli run {name} exited {code}")
    digests = {}
    for root, _, files in os.walk(out_dir):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return digests


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    for rel, digest in sorted(write_golden(argv[1]).items()):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
