"""Command-line interface: single runs, sweeps, and CSV post-processing.

Exit codes: 0 on success, 1 on a configuration error (bad flag, unknown
task, unreadable config), 2 when a single non-sweep run diverges.
"""

import argparse
import os
import sys

import numpy as np

from .actuators import MORPHOLOGIES, AblationFlags, make_controller
from .arm import ArmParams, Perturbation
from .config import ExperimentConfig
from .control import (MpcConfig, calibrate_torque_limits,
                      mpc_run, open_loop_optimize, parameterization_for,
                      rollout)
from .harness import (TRACE_HEADER, default_jobs, fmt, mpc_trace_rows,
                      oc_trace_rows, read_csv, run_experiment, summarize,
                      write_csv, write_trajectory_csv)
from .objectives import make_task
from .optimizers import CmaConfig

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
    make_controller builds the controller from the label, as the harness
    builds it from its sweep labels.
    """
    return args.morphology + "".join(
        f"-no{n}" for n in dict.fromkeys(args.ablate or []))


def _perturbation(args):
    if getattr(args, "perturb", "none") == "none":
        return None
    return Perturbation(kind=args.perturb, mass=args.mass,
                        visible_to_prediction=args.visible)


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_simulate(args):
    """Roll out a seeded random piecewise-constant policy and dump the CSV."""
    params = ArmParams()
    task = make_task(args.task, seed=args.seed, params=params)
    ctrl = make_controller(_controller_setup(args))
    par = parameterization_for(task, ctrl, args.c)
    rng = np.random.default_rng(args.seed)
    theta = rng.uniform(par.lo, par.hi, par.dim)
    res = rollout(task, ctrl, theta, par, params=params,
                  perturbation=_perturbation(args))
    write_trajectory_csv(args.out, res)
    print(f"wrote {args.out} cost={fmt(res.cost)} "
          f"termination={res.termination}")
    return 2 if res.diverged else 0


def cmd_optimize(args):
    params = ArmParams()
    task = make_task(args.task, seed=args.seed, params=params)
    label = _controller_setup(args)
    cma = CmaConfig(population=args.population, generations=args.generations,
                    sigma0=args.sigma, seed=args.seed)
    _, best, trace, _ = open_loop_optimize(task, make_controller(label),
                                           args.c, cma, params=params)
    out = _ensure_dir(args.out)
    rows = oc_trace_rows("optimize", args.task, label, args.c, args.sigma,
                         args.seed, trace)
    trace_path = os.path.join(out, "trace.csv")
    write_csv(trace_path, TRACE_HEADER, rows)
    best_path = os.path.join(out, "best.csv")
    write_trajectory_csv(best_path, best)
    print(f"wrote {trace_path} and {best_path} "
          f"best_cost={fmt(trace.best_so_far[-1])} evals={trace.total_evals}")
    return 2 if best.diverged else 0


def cmd_mpc(args):
    params = ArmParams()
    task = make_task(args.task, seed=args.seed, params=params)
    label = _controller_setup(args)
    cfg = MpcConfig(t_pred=args.tpred, resolution=args.resolution,
                    warm_population=args.population,
                    warm_generations=args.warm_generations,
                    refine_budget=args.refine_budget, seed=args.seed)
    res = mpc_run(task, make_controller(label), cfg, params=params,
                  perturbation=_perturbation(args))
    out = _ensure_dir(args.out)
    traj_path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(traj_path, res.executed)
    rows = mpc_trace_rows("mpc", args.task, label, args.resolution,
                          args.tpred, args.seed, res)
    costs_path = os.path.join(out, "costs.csv")
    write_csv(costs_path, TRACE_HEADER, rows)
    print(f"wrote {traj_path} and {costs_path} cost={fmt(res.executed.cost)} "
          f"evals={res.step_evals[-1]}")
    return 2 if res.executed.diverged else 0


def cmd_experiment(args):
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


def _add_run_flags(p, c_default=0.3):
    p.add_argument("--task", default="smooth-reach",
                   help="task name (default smooth-reach)")
    p.add_argument("--morphology", default="muscle", choices=MORPHOLOGIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c", type=float, default=c_default,
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
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--visible", action="store_true",
                   help="let prediction models see the perturbation")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="one trajectory-optimization run")
    _add_run_flags(p)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--population", type=int, default=36)
    p.add_argument("--generations", type=int, default=100)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("mpc", help="one receding-horizon control run")
    _add_run_flags(p)
    p.add_argument("--tpred", type=float, default=0.3)
    p.add_argument("--resolution", type=float, default=0.01)
    p.add_argument("--population", type=int, default=36)
    p.add_argument("--warm-generations", type=int, default=20)
    p.add_argument("--refine-budget", type=int, default=50)
    p.add_argument("--out", default="results")
    p.add_argument("--perturb", default="none", choices=Perturbation.KINDS)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--visible", action="store_true")
    p.set_defaults(func=cmd_mpc)

    p = sub.add_parser("experiment", help="full sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config out_dir")
    p.add_argument("--jobs", type=int, default=default_jobs())
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
