"""Command-line interface: single runs, sweeps, and CSV post-processing.

`optimize` and `mpc` describe their one run as an ExperimentConfig, so it
gets a sweep's checks, and run it from the sweep's own point builders
(harness._oc_run, harness._mpc_run): `optimize` is a lockstep of one run
(control.open_loop_lockstep).

Exit codes: 0 on success; 1 on a usage or configuration error (a bad flag
or value such as `--jobs 0`, an unknown task, an unreadable config); 2 when
the one run of `simulate`, `optimize` or `mpc` diverges (its rollout, best
rollout or executed trajectory).
"""

import argparse
import os
import sys

import numpy as np

from .actuators import MORPHOLOGIES, AblationFlags, make_controller
from .arm import Perturbation
from .config import ExperimentConfig
from .control import (calibrate_torque_limits, open_loop_lockstep,
                      parameterization_for, rollout)
from .harness import (TRACE_HEADER, _mpc_run, _oc_run, fmt, mpc_trace_rows,
                      oc_trace_rows, read_csv, run_experiment, summarize,
                      write_csv, write_trajectory_csv)
from .objectives import make_task

class _Parser(argparse.ArgumentParser):
    """argparse variant that treats every usage problem as exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _controller_setup(args):
    """The run label of the --morphology/--ablate flags.

    The label names the run in trace rows the way the harness does: each
    ablation adds a '-noX' suffix, so `--ablate fl` runs are 'muscle-nofl'.
    make_controller builds the controller from the label, here for
    `simulate` and in the harness's runners for `optimize` and `mpc`.
    """
    return args.morphology + "".join(
        f"-no{n}" for n in dict.fromkeys(args.ablate or []))


def _run_config(args, **settings):
    """The one run of `optimize` or `mpc` as an ExperimentConfig of its
    task, label, seed and `settings`, checked as a sweep's config is."""
    return ExperimentConfig(task=args.task, morphologies=[_controller_setup(args)],
                            seeds=[args.seed], **settings)


def _perturbation(args):
    """The --perturb and --mass flags, and mpc's --visible; kind 'none'
    changes nothing. --mass, 1 kg when not given, is a usage error with a
    kind that adds no mass, and --visible with kind 'none', which leaves
    the prediction model nothing to see."""
    if args.mass is not None and args.perturb not in ("lower_arm_mass", "hand_mass"):
        raise ValueError(f"--mass takes a mass kind of --perturb, not {args.perturb!r}")
    visible = getattr(args, "visible", False)
    if visible and args.perturb == "none":
        raise ValueError("--visible takes a --perturb kind, not 'none'")
    return Perturbation(kind=args.perturb,
                        mass=1.0 if args.mass is None else args.mass,
                        visible_to_prediction=visible)


def cmd_simulate(args):
    """Roll out a seeded random piecewise-constant policy and dump the CSV."""
    task = make_task(args.task, seed=args.seed)
    ctrl = make_controller(_controller_setup(args))
    par = parameterization_for(task, ctrl, args.c)
    theta = np.random.default_rng(args.seed).uniform(par.lo, par.hi, par.dim)
    res = rollout(task, ctrl, theta, par, perturbation=_perturbation(args))
    write_trajectory_csv(args.out, res)
    print(f"wrote {args.out} cost={fmt(res.cost)} "
          f"termination={res.termination}")
    return 2 if res.diverged else 0


def _write_run(args, trajectory, rows, names, summary):
    """Write one run's trajectory and trace rows under --out, in the files
    `names`, and print where; the exit code is 2 if the trajectory
    diverged."""
    os.makedirs(args.out, exist_ok=True)
    traj_path, rows_path = (os.path.join(args.out, name) for name in names)
    write_trajectory_csv(traj_path, trajectory)
    write_csv(rows_path, TRACE_HEADER, rows)
    print(f"wrote {traj_path} and {rows_path} {summary}")
    return 2 if trajectory.diverged else 0


def cmd_optimize(args):
    config = _run_config(args, c=args.c, sigma=args.sigma,
                         population=args.population,
                         generations=args.generations)
    label = config.morphologies[0]
    run = _oc_run(config, args.c, args.sigma, args.seed)
    _, best, trace, _ = open_loop_lockstep(make_controller(label), [run])[0]
    rows = oc_trace_rows("optimize", args.task, label, args.c, args.sigma,
                         args.seed, trace)
    return _write_run(args, best, rows, ("best.csv", "trace.csv"),
                      f"best_cost={fmt(trace.best_so_far[-1])} "
                      f"evals={trace.total_evals}")


def cmd_mpc(args):
    # robustness_weights: the kind whose config checks one MPC horizon
    config = _run_config(args, kind="robustness_weights", tpred=args.tpred,
                         mpc_resolution=args.resolution,
                         population=args.population,
                         warm_generations=args.warm_generations,
                         refine_budget=args.refine_budget)
    label = config.morphologies[0]
    res = _mpc_run(config, label, args.tpred, args.seed,
                   perturbation=_perturbation(args))
    rows = mpc_trace_rows("mpc", args.task, label, args.resolution,
                          args.tpred, args.seed, res)
    return _write_run(args, res.executed, rows, ("trajectory.csv", "costs.csv"),
                      f"cost={fmt(res.executed.cost)} "
                      f"evals={res.step_evals[-1]}")


def cmd_experiment(args):
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
    config = ExperimentConfig.from_file(args.config)
    if args.out is not None:
        config.out_dir = args.out
    paths = run_experiment(config, jobs=args.jobs)
    print(f"wrote {len(paths)} files to {config.out_dir}")
    return 0


def cmd_summarize(args):
    summarize(args.csvs, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_calibrate(args):
    arrays = []
    for path in args.csvs:
        header, rows = read_csv(path)
        try:
            i1, i2 = header.index("tau1"), header.index("tau2")
        except ValueError:
            raise ValueError(f"{path}: no tau1/tau2 columns in {header}")
        arrays.append(np.array([[float(r[i1]), float(r[i2])] for r in rows]))
    t1, t2 = calibrate_torque_limits(arrays)
    if args.out:
        write_csv(args.out, ["tau1_max", "tau2_max"], [[t1, t2]])
    print(f"{fmt(t1)} {fmt(t2)}")
    return 0


def _add_run_flags(p, with_c=True):
    """The flags of one run; `mpc` sets its control step with --resolution,
    so it takes no --c."""
    p.add_argument("--task", default="smooth-reach",
                   help="task name (default smooth-reach)")
    p.add_argument("--morphology", default="muscle", choices=MORPHOLOGIES)
    p.add_argument("--seed", type=int, default=0)
    if with_c:
        p.add_argument("--c", type=float, default=0.3,
                       help="control resolution in seconds")
    p.add_argument("--ablate", action="append", choices=AblationFlags.NAMES,
                   help="disable a muscle property (repeatable)")


def build_parser():
    parser = _Parser(prog="myoarm",
                     description="Two-link arm actuator-morphology benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="single rollout of a random policy")
    _add_run_flags(p)
    p.add_argument("--out", default="trajectory.csv")
    p.add_argument("--perturb", default="none", choices=Perturbation.KINDS)
    p.add_argument("--mass", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="one trajectory-optimization run")
    _add_run_flags(p)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--population", type=int, default=36)
    p.add_argument("--generations", type=int, default=100)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("mpc", help="one receding-horizon control run")
    _add_run_flags(p, with_c=False)
    p.add_argument("--tpred", type=float, default=0.3)
    p.add_argument("--resolution", type=float, default=0.01)
    p.add_argument("--population", type=int, default=36)
    p.add_argument("--warm-generations", type=int, default=20)
    p.add_argument("--refine-budget", type=int, default=50)
    p.add_argument("--out", default="results")
    p.add_argument("--perturb", default="none", choices=Perturbation.KINDS)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--visible", action="store_true",
                   help="let the prediction model see the perturbation")
    p.set_defaults(func=cmd_mpc)

    p = sub.add_parser("experiment", help="full sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config out_dir")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("summarize", help="aggregate trace CSVs")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--out", default="aggregate.csv")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("calibrate-torque",
                       help="per-joint peak |torque| from trajectory CSVs")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"myoarm: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
