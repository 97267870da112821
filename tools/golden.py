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
- runs that diverge, on an arm of almost no mass or inertia: a muscle
  sweep in which every candidate diverges (its trace rows cost `inf` and
  its aggregate rows count only divergences), a muscle robustness sweep
  whose executed trajectories diverge (no overshoot), and, on a forearm of
  almost no mass, a torque sweep whose generations mix diverged candidates
  with finite ones above 1e19;
- CLI `simulate` (pendulum load, ball serve, a ball serve whose hand hits
  the ball, low-pass, fast-reach), `optimize` (plain, `--ablate fv`,
  fast-reach, three CMA-ES generations) and `mpc` (muscle; torque with a
  hand mass; pendulum load; fast-reach; ball-serve; a torque fast-reach
  run that stops at the goal; a refinement budget above twice the plan's
  dimension, so the pattern search halves its radius; 0.1 s windows, long
  enough for losing refinement probes to stop at their bound; a forearm
  load the prediction model sees, so that each control step's first
  evaluation continues the incumbent's window under a load);
- CLI runs over files the set has written: `experiment --config ...
  --jobs 1` (data_efficiency at c 0.3, seeds 2 and 3), `summarize` over
  the trace CSVs of that run and of the data_efficiency sweep's c 0.3
  points, `summarize` pooling three aggregate CSVs (data_efficiency, the
  CLI experiment's and precise_reach's one-seed rows), `summarize` of the
  all-diverged sweep's aggregate CSV alone, whose rows pool no run, and
  `calibrate-torque` over the best trajectory of `optimize`.

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
import tempfile

from myoarm import cli
from myoarm.config import ExperimentConfig, parse_config_text
from myoarm.harness import run_experiment

TINY_OC = {"optimizer.population": 4, "optimizer.generations": 2,
           "experiment.seeds": [0, 1], "grid.c": [0.3]}
TINY_MPC = {"optimizer.population": 4, "mpc.warm_generations": 1,
            "mpc.refine_budget": 2, "mpc.tpred": 0.02,
            "experiment.seeds": [0]}
ARM = {"arm.l1": 0.35, "arm.m2": 2.0}   # a longer upper arm, a heavier forearm
# a forearm of almost no mass, and an arm of almost no mass or inertia
LIGHT_FOREARM = {"arm.m2": 1e-6, "arm.i2": 1e-9, "arm.m_hand": 0}
DIVERGING_ARM = {**LIGHT_FOREARM, "arm.i1": 1e-9, "arm.m1": 1e-6}

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
    "all_diverged": {"experiment.morphologies": ["muscle"], **DIVERGING_ARM},
    "robust_diverged": {"experiment.kind": "robustness_weights",
                        "experiment.morphologies": ["muscle"],
                        "grid.masses": [1.0], **TINY_MPC, **DIVERGING_ARM},
    "mixed_torque": {"experiment.morphologies": ["torque"], **LIGHT_FOREARM,
                     "optimizer.population": 8, "optimizer.generations": 3},
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
    # 20-step windows, in which most rejected probes stop at their bound
    "mpc_probe_bound": ["mpc", "--tpred", "0.1", "--population", "4",
                        "--warm-generations", "1", "--refine-budget", "10"],
    # a load the prediction model sees: the plant is the prediction model,
    # so each control step's first evaluation continues the incumbent
    "mpc_visible_load": ["mpc", "--perturb", "lower_arm_mass", "--mass", "2",
                         "--visible", *TINY_CLI_MPC],
}


# the CLI experiment: data_efficiency seeds 2 and 3 at the sweep's c 0.3,
# so its aggregate rows share keys with the data_efficiency sweep's
CLI_EXPERIMENT = {**TINY_OC, "experiment.seeds": [2, 3]}


def _reading_runs(out_dir: str, config_path: str) -> dict:
    """The CLI runs that read files the set has already written (the
    `experiment` run's included, so it comes first): {name: argv}."""
    cli_dir = os.path.join(out_dir, "cli")
    experiment = os.path.join(cli_dir, "experiment")
    sweep = os.path.join(out_dir, "data_efficiency")
    traces = [os.path.join(d, f"trace_{m}_c0.3_s0.2_seed{seed}.csv")
              for d, seeds in ((sweep, (0, 1)), (experiment, (2, 3)))
              for m in ("muscle", "torque") for seed in seeds]
    aggregates = [os.path.join(sweep, "aggregate.csv"),
                  os.path.join(experiment, "aggregate.csv"),
                  os.path.join(out_dir, "precise_reach", "aggregate.csv")]
    return {
        "experiment": ["experiment", "--config", config_path, "--jobs", "1"],
        "summarize_traces.csv": ["summarize", *traces],
        "summarize_pooled.csv": ["summarize", *aggregates],
        "summarize_diverged.csv": [
            "summarize", os.path.join(out_dir, "all_diverged", "aggregate.csv")],
        "calibrate.csv": ["calibrate-torque",
                          os.path.join(cli_dir, "optimize", "best.csv")],
    }


def _run_cli(out_dir: str, runs: dict):
    """Run each argv of `runs` with `--out` its name under out_dir/cli."""
    for name, argv in runs.items():
        out = os.path.join(out_dir, "cli", name)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", out])
        if code != 0:
            raise SystemExit(f"cli run {name} exited {code}")


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
    _run_cli(out_dir, CLI_RUNS)
    # the config file is an input, so it stays out of the digested set
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "experiment.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(_config_text(CLI_EXPERIMENT))
        _run_cli(out_dir, _reading_runs(out_dir, config_path))
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
