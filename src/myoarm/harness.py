"""Experiment orchestration: seeded sweeps, CSV emission, and aggregation.

Every run writes one trace CSV (a learning curve for trajectory optimization,
a cost-over-time series for receding-horizon runs) plus a shared aggregate
CSV with mean/std/min/max per configuration point. All output is plain UTF-8
CSV with repr-formatted floats so files round-trip exactly and reruns are
byte-identical.
"""

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import numpy as np

from .actuators import make_controller
from .arm import ArmParams, Perturbation
from .config import ExperimentConfig
from .control import (MpcConfig, SENTINEL_COST, calibrate_torque_limits,
                      mpc_run, open_loop_optimize)
from .objectives import ObjectiveWeights, make_task
from .optimizers import CmaConfig

TRACE_HEADER = ["experiment", "task", "morphology", "c", "sigma", "tpred",
                "seed", "gen", "best_cost", "evals", "diverged"]
AGG_HEADER = ["experiment", "task", "morphology", "c", "sigma", "tpred",
              "gen", "mean_cost", "std_cost", "min_cost", "max_cost", "n",
              "n_diverged"]
ROBUST_HEADER = ["experiment", "task", "morphology", "mass", "seed",
                 "final_cost", "overshoot", "diverged"]


def fmt(value) -> str:
    """CSV cell formatting: shortest round-trip decimals for floats."""
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    return path


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def trajectory_header(n_controls: int):
    us = [f"u{i + 1}" for i in range(n_controls)]
    return ["t", "theta1", "theta2", "dtheta1", "dtheta2"] + us + ["tau1", "tau2"]


def write_trajectory_csv(path, result):
    """One row per physics sample; the terminal row repeats the last controls."""
    n = result.controls.shape[0]
    rows = []
    for k in range(result.th.shape[0]):
        j = min(k, n - 1)
        rows.append([result.t[k], result.th[k, 0], result.th[k, 1],
                     result.dth[k, 0], result.dth[k, 1],
                     *result.controls[j], result.torques[j, 0],
                     result.torques[j, 1]])
    return write_csv(path, trajectory_header(result.controls.shape[1]), rows)


def overshoot_past_target(th, target) -> float:
    """Peak elbow excursion beyond the desired elbow angle (0 if never past)."""
    return max(0.0, float((np.asarray(th)[:, 1] - target.th_des[1]).max()))


def _arm_params(config: ExperimentConfig) -> ArmParams:
    return ArmParams(**config.arm_overrides) if config.arm_overrides else ArmParams()


def _task_for(config: ExperimentConfig, seed: int):
    overrides = {}
    if config.weight_overrides:
        overrides["weights"] = ObjectiveWeights(**config.weight_overrides)
    return make_task(config.task, seed=seed, params=_arm_params(config),
                     **overrides)


def oc_trace_rows(experiment, task, morphology, c, sigma, seed, trace):
    """Trace rows of one trajectory-optimization run: one per generation,
    with the running best cost and the evaluations spent so far."""
    return [[experiment, task, morphology, c, sigma, "", seed, g, cost,
             trace.evals[g], int(cost >= SENTINEL_COST)]
            for g, cost in enumerate(trace.best_so_far)]


def mpc_trace_rows(experiment, task, morphology, resolution, tpred, seed, res):
    """Trace rows of one receding-horizon run: one per executed control
    step, with its stage cost and the evaluations spent before it
    (MpcResult.step_evals)."""
    return [[experiment, task, morphology, resolution, "", tpred, seed, k,
             float(cost), int(res.step_evals[k]), int(cost >= SENTINEL_COST)]
            for k, cost in enumerate(res.step_costs)]


def _oc_run(config: ExperimentConfig, morphology, c, sigma, seed,
            tau_max=None):
    """One trajectory-optimization run: (trace rows, best rollout). tau_max
    is the calibrated torque ceiling, which _sweep hands to torque-family
    points only."""
    task = _task_for(config, seed)
    params = _arm_params(config)
    controller = (make_controller(morphology) if tau_max is None
                  else make_controller(morphology, tau_max=tau_max))
    cma = CmaConfig(population=config.population,
                    generations=config.generations, sigma0=sigma, seed=seed)
    _, best, trace, _ = open_loop_optimize(task, controller, c, cma,
                                           params=params)
    rows = oc_trace_rows(config.kind, config.task, morphology, c, sigma, seed,
                         trace)
    return rows, best


def _mpc_run(config: ExperimentConfig, morphology, tpred, seed, mass=None,
             tau_max=None):
    """One receding-horizon run, returned as (trace rows, result); tau_max
    as in _oc_run."""
    task = _task_for(config, seed)
    params = _arm_params(config)
    controller = (make_controller(morphology) if tau_max is None
                  else make_controller(morphology, tau_max=tau_max))
    pert = None
    if mass:
        pert = Perturbation(kind="lower_arm_mass", mass=float(mass),
                            visible_to_prediction=False)
    mpc = MpcConfig(t_pred=tpred, resolution=config.mpc_resolution,
                    warm_population=config.population,
                    warm_generations=config.warm_generations,
                    refine_budget=config.refine_budget, seed=seed)
    res = mpc_run(task, controller, mpc, params=params, perturbation=pert)
    rows = mpc_trace_rows(config.kind, config.task, morphology,
                          config.mpc_resolution, tpred, seed, res)
    return rows, res


def _run_points(config: ExperimentConfig):
    """The (morphology, c, sigma, tpred, seed, mass) grid of this experiment
    kind, seeds innermost. OC points have tpred None; mass is set for the
    robustness sweep only, whose grid always includes the unloaded mass 0."""
    kind, morphs = config.kind, config.morphologies
    if kind == "data_efficiency":
        grid = [(m, c, config.sigma, None, None)
                for m in morphs for c in config.c_grid]
    elif kind == "sigma_sweep":
        grid = [(m, config.c, sigma, None, None)
                for m in morphs for sigma in config.sigma_grid]
    elif kind == "ablation":
        grid = [("muscle" if a == "none" else f"muscle-no{a}", config.c,
                 config.sigma, None, None) for a in config.ablations]
    elif kind in ("ball_serve", "pd_baseline", "lowpass_baseline"):
        forced = {"ball_serve": morphs, "pd_baseline": ["pd"],
                  "lowpass_baseline": ["lowpass-fast", "lowpass-slow"]}[kind]
        grid = [(m, config.c, config.sigma, None, None) for m in forced]
    elif kind == "tpred_sweep":
        grid = [(m, None, None, tpred, None)
                for m in morphs for tpred in config.tpred_grid]
    elif kind == "robustness_weights":
        masses = [float(m) for m in config.masses]
        if 0.0 not in masses:
            masses = [0.0, *masses]
        grid = [(m, None, None, config.tpred, mass)
                for m in morphs for mass in masses]
    else:
        raise ValueError(f"no run grid for kind {config.kind!r}")
    return [(m, c, sigma, tpred, seed, mass)
            for m, c, sigma, tpred, mass in grid for seed in config.seeds]


def _trace_name(morph, c, sigma, tpred, seed):
    parts = ["trace", morph]
    if c is not None:
        parts.append(f"c{fmt(c)}")
    if sigma is not None:
        parts.append(f"s{fmt(sigma)}")
    if tpred is not None:
        parts.append(f"t{fmt(tpred)}")
    parts.append(f"seed{seed}")
    return "_".join(parts) + ".csv"


def _point_worker(args):
    """One sweep point: (trace rows, peak |torque| per joint, MpcResult or
    None). It makes exactly one _oc_run or _mpc_run call."""
    config, (morph, c, sigma, tpred, seed, mass), tau_max = args
    if tpred is None:
        rows, best = _oc_run(config, morph, c, sigma, seed, tau_max=tau_max)
        return rows, calibrate_torque_limits([best.torques]), None
    rows, res = _mpc_run(config, morph, tpred, seed, mass=mass,
                         tau_max=tau_max)
    return rows, calibrate_torque_limits([res.executed.torques]), res


def _prepare_out_dir(out_dir):
    probe = os.path.join(out_dir, ".write_probe")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ValueError(f"output directory {out_dir!r} is not writable: {exc}")


def _check_invariants(all_rows):
    """Learning curves must be monotone; morphology comparisons must have
    spent identical evaluation budgets at every grid point."""
    by_trace = {}
    budgets = {}
    for row in all_rows:
        kind, task, morph, c, sigma, tpred, seed, gen = row[:8]
        cost, evals = row[8], row[9]
        key = (morph, c, sigma, tpred, seed)
        if tpred in (None, ""):
            prev = by_trace.get(key)
            if prev is not None and cost > prev + 1e-12:
                raise RuntimeError(f"best cost increased within trace {key}")
            by_trace[key] = cost
        budgets.setdefault((c, sigma, tpred, seed, gen), set()).add(evals)
    for point, counts in budgets.items():
        if len(counts) != 1:
            raise RuntimeError(
                f"unequal evaluation budgets across morphologies at {point}: "
                f"{sorted(counts)}")


def _sweep(config: ExperimentConfig, jobs: int, write_point):
    """The sweep runner every experiment kind shares.

    Runs the _run_points grid, muscle points first. When the sweep also
    holds torque-family morphologies, their torque ceilings are the
    per-joint peak |torque| the muscle runs executed, written to
    calibration.csv. write_point(point, result) writes one point's files
    and returns their paths, in grid order; result is _point_worker's.
    The run invariants are checked over all trace rows before calibration
    is written. Returns (paths, all trace rows).

    Every point gets the config itself, already validated. With jobs > 1
    and more than one point in either phase, both phases run in one
    process pool of `jobs` workers; otherwise every point runs here, one
    after another. Either way the results are the same.
    """
    _prepare_out_dir(config.out_dir)
    points = _run_points(config)
    muscle = [p for p in points if p[0].startswith("muscle")]
    other = [p for p in points if not p[0].startswith("muscle")]
    parallel = jobs > 1 and max(len(muscle), len(other)) > 1
    with (ProcessPoolExecutor(max_workers=jobs) if parallel
          else nullcontext()) as pool:
        run = pool.map if pool is not None else map
        results = dict(zip(muscle, run(_point_worker,
                                       [(config, p, None) for p in muscle])))
        tau_max = None
        if muscle and other:
            tau_max = calibrate_torque_limits(
                [np.asarray([results[p][1] for p in muscle])])
        results.update(zip(other, run(_point_worker,
                                      [(config, p, tau_max) for p in other])))

    paths = []
    all_rows = []
    for point in points:
        paths += write_point(point, results[point])
        all_rows += results[point][0]
    _check_invariants(all_rows)
    if tau_max is not None:
        paths.append(write_csv(os.path.join(config.out_dir, "calibration.csv"),
                               ["tau1_max", "tau2_max"], [list(tau_max)]))
    return paths, all_rows


def run_experiment(config: ExperimentConfig, jobs: int = 1):
    """Execute the configured sweep; returns the list of written CSV paths.

    One trace file per (grid point, seed) plus aggregate.csv. Muscle runs go
    first; when the sweep also contains torque-family morphologies, their
    torque ceilings are calibrated to the highest torques the muscle runs
    actually produced (written to calibration.csv). The sweep never stops on
    a diverged run; such rows carry the sentinel cost and a diverged flag,
    and the aggregate excludes them while reporting their count.
    """
    if config.kind == "robustness_weights":
        return robustness_sweep(config)

    def write_point(point, result):
        path = os.path.join(config.out_dir, _trace_name(*point[:5]))
        return [write_csv(path, TRACE_HEADER, result[0])]

    paths, all_rows = _sweep(config, jobs, write_point)
    paths.append(write_csv(os.path.join(config.out_dir, "aggregate.csv"),
                           AGG_HEADER, aggregate_rows(all_rows)))
    return paths


def robustness_sweep(config: ExperimentConfig):
    """Receding-horizon smooth reaching under unknown forearm loads.

    Writes one trajectory CSV and one cost-over-time trace per run plus a
    summary with the final cost and the elbow overshoot metric. An
    unperturbed baseline (mass 0) always runs alongside the configured
    loads so perturbed and clean costs can be compared. Muscle runs execute
    first and calibrate the torque ceilings of any torque-family
    morphologies in the sweep.

    The sweep runs in one process whatever jobs run_experiment was given.
    The benchmark's peak_rss_mb adds the largest worker's peak RSS to the
    parent's, so a process pool would about double it on this workload
    (about 42 to 84 MB) against that metric's 10 % bound. Running it in
    parallel needs that metric changed first.
    """
    if config.kind != "robustness_weights":
        raise ValueError(f"robustness_sweep needs kind robustness_weights, "
                         f"not {config.kind!r}")
    summary = []

    def write_point(point, result):
        morph, _, _, _, seed, mass = point
        rows, _, res = result
        tag = f"{morph}_m{fmt(mass)}_seed{seed}"
        task = _task_for(config, seed)
        summary.append([config.kind, config.task, morph, mass, seed,
                        res.executed.cost,
                        overshoot_past_target(res.executed.th, task.target),
                        int(res.executed.diverged)])
        return [write_trajectory_csv(
                    os.path.join(config.out_dir, f"robust_{tag}.csv"),
                    res.executed),
                write_csv(os.path.join(config.out_dir, f"robust_{tag}_trace.csv"),
                          TRACE_HEADER, rows)]

    paths, _ = _sweep(config, 1, write_point)   # jobs=1: see the docstring
    paths.append(write_csv(os.path.join(config.out_dir, "robustness.csv"),
                           ROBUST_HEADER, summary))
    return paths


# --------------------------------------------------------------------------
# Aggregation


def _group_key(row):
    return tuple(str(v) for v in row[:6])   # experiment..tpred


def aggregate_rows(trace_rows):
    """Aggregate trace rows (as written to trace CSVs) per config point and
    generation: mean, sample std, min, max over seeds; diverged rows are
    excluded and counted."""
    groups = {}
    for row in trace_rows:
        key = _group_key(row) + (int(row[7]),)
        groups.setdefault(key, []).append((float(row[8]), int(row[10])))
    out = []
    for key in sorted(groups):
        vals = [c for c, d in groups[key] if not d]
        n_div = sum(d for _, d in groups[key])
        if vals:
            arr = np.asarray(vals)
            mean = float(arr.mean())
            std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
            lo, hi = float(arr.min()), float(arr.max())
        else:
            mean = std = lo = hi = ""
        out.append([*key[:6], key[6], mean, std, lo, hi, len(vals), n_div])
    return out


def _pool_aggregates(rows):
    """Exact pooling of aggregate rows: the result equals aggregating all the
    underlying traces directly (pooled mean and variance identities)."""
    groups = {}
    for row in rows:
        key = tuple(row[:7])
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups):
        parts = [(float(r[7]), float(r[8]), float(r[9]), float(r[10]),
                  int(r[11]), int(r[12])) for r in groups[key] if r[7] != ""]
        n_div = sum(int(r[12]) for r in groups[key])
        if not parts:
            out.append([*key, "", "", "", "", 0, n_div])
            continue
        n_total = sum(p[4] for p in parts)
        mean = sum(p[4] * p[0] for p in parts) / n_total
        if n_total > 1:
            ss = sum((p[4] - 1) * p[1] ** 2 + p[4] * (p[0] - mean) ** 2
                     for p in parts)
            std = float(np.sqrt(ss / (n_total - 1)))
        else:
            std = 0.0
        out.append([*key, mean, std, min(p[2] for p in parts),
                    max(p[3] for p in parts), n_total, n_div])
    return out


def summarize(paths, out_path):
    """Aggregate trace CSVs (or pool aggregate CSVs) into one aggregate CSV."""
    trace_rows = []
    agg_rows = []
    for path in paths:
        header, rows = read_csv(path)
        if header == TRACE_HEADER:
            trace_rows.extend(rows)
        elif header == AGG_HEADER:
            agg_rows.extend(rows)
        else:
            raise ValueError(f"{path}: unrecognized schema {header}")
    if trace_rows and agg_rows:
        raise ValueError("cannot mix trace and aggregate inputs")
    if trace_rows:
        out = aggregate_rows(trace_rows)
    elif agg_rows:
        out = _pool_aggregates(agg_rows)
    else:
        raise ValueError("no input rows")
    return write_csv(out_path, AGG_HEADER, out)


def default_jobs() -> int:
    env = os.environ.get("MYOARM_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1
