"""Experiment orchestration: seeded sweeps, CSV emission, and aggregation.

Every run writes one trace CSV (a learning curve for trajectory optimization,
a cost-over-time series for receding-horizon runs) plus a shared aggregate
CSV with mean/std/min/max per configuration point. All output is plain UTF-8
CSV with repr-formatted floats so files round-trip exactly and reruns are
byte-identical. A run with no finite cost writes the cost `inf`, which
float() reads back as math.inf, and its diverged flag 1.
"""

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import numpy as np

from .actuators import make_controller
from .arm import ArmParams, Perturbation
from .config import ExperimentConfig
from .control import (MpcConfig, calibrate_torque_limits, mpc_run,
                      open_loop_lockstep)
from .objectives import ObjectiveWeights, make_task
from .optimizers import CmaConfig, _whole

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
    """(header, rows) of a CSV file; a file with no header line is a
    ValueError that names it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no CSV header")
        return header, [row for row in reader]


def trajectory_header(n_controls: int):
    us = [f"u{i + 1}" for i in range(n_controls)]
    return ["t", "theta1", "theta2", "dtheta1", "dtheta2"] + us + ["tau1", "tau2"]


def write_trajectory_csv(path, result):
    """One row per physics sample; the terminal row repeats the last controls."""
    n = result.controls.shape[0]
    t = result.t
    rows = []
    for k in range(result.th.shape[0]):
        j = min(k, n - 1)
        rows.append([t[k], result.th[k, 0], result.th[k, 1],
                     result.dth[k, 0], result.dth[k, 1],
                     *result.controls[j], result.torques[j, 0],
                     result.torques[j, 1]])
    return write_csv(path, trajectory_header(result.controls.shape[1]), rows)


def overshoot_past_target(th, posture) -> float:
    """Peak elbow excursion beyond the elbow angle of `posture`, a task's
    desired (shoulder, elbow) angles (0 if never past)."""
    return max(0.0, float((np.asarray(th)[:, 1] - posture[1]).max()))


def _task_for(config: ExperimentConfig, seed: int):
    """The run's task, on the config's arm."""
    overrides = {}
    if config.weight_overrides:
        overrides["weights"] = ObjectiveWeights(**config.weight_overrides)
    return make_task(config.task, seed=seed,
                     params=ArmParams(**config.arm_overrides), **overrides)


def oc_trace_rows(experiment, task, morphology, c, sigma, seed, trace):
    """Trace rows of one trajectory-optimization run: one per generation,
    with the running best cost and the evaluations spent so far. Every
    finite cost ranks below math.inf, so a best cost is math.inf, and its
    row flagged diverged, exactly when no candidate so far had a finite
    cost."""
    return [[experiment, task, morphology, c, sigma, "", seed, g, cost,
             trace.evals[g], int(not math.isfinite(cost))]
            for g, cost in enumerate(trace.best_so_far)]


def mpc_trace_rows(experiment, task, morphology, resolution, tpred, seed, res):
    """Trace rows of one receding-horizon run: one per executed control
    step, with its stage cost and the evaluations spent before it
    (MpcResult.step_evals), each flagged diverged when the executed
    trajectory diverged (every stage cost is then math.inf)."""
    diverged = int(res.executed.diverged)
    return [[experiment, task, morphology, resolution, "", tpred, seed, k,
             float(cost), int(res.step_evals[k]), diverged]
            for k, cost in enumerate(res.step_costs)]


def _oc_run(config: ExperimentConfig, c, sigma, seed):
    """One trajectory-optimization run of `config`'s task and budgets, as
    control.open_loop_lockstep takes it: (task, resolution c, CmaConfig).
    It builds the run's task, arm and CmaConfig, for sweep points and
    `myoarm optimize` alike; the controller is the lockstep's."""
    return (_task_for(config, seed), c,
            CmaConfig(population=config.population,
                      generations=config.generations, sigma0=sigma, seed=seed))


def _mpc_run(config: ExperimentConfig, morphology, tpred, seed,
             perturbation=None, tau_max=None, warm_start=None):
    """One receding-horizon run of `config`'s task, mpc.resolution and
    budgets at horizon tpred under `perturbation`: its MpcResult. It builds
    the run's task, arm, controller and MpcConfig, for sweep points and
    `myoarm mpc` alike; warm_start as in mpc_run. tau_max is the calibrated
    torque ceiling, which _sweep hands to torque-family points only."""
    mpc = MpcConfig(t_pred=tpred, resolution=config.mpc_resolution,
                    warm_population=config.population,
                    warm_generations=config.warm_generations,
                    refine_budget=config.refine_budget, seed=seed)
    return mpc_run(_task_for(config, seed), _controller(morphology, tau_max),
                   mpc, perturbation=perturbation, warm_start=warm_start)


def _controller(morphology, tau_max):
    return (make_controller(morphology) if tau_max is None
            else make_controller(morphology, tau_max=tau_max))


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


def _peak_torques(result):
    """A rollout's calibration sample, peak |torque| per joint, or None
    when it diverged: a diverged run's torques are no envelope to hand on."""
    return None if result.diverged else calibrate_torque_limits([result.torques])


def _load(mass):
    """A robustness point's load: `mass` kg on the lower arm, unseen by the
    prediction model, or None for the unloaded baseline (mass 0)."""
    return Perturbation("lower_arm_mass", mass=float(mass)) if mass else None


def _warm_groups(points):
    """points grouped by point[:5], everything but the mass, each group in
    grid order, the groups in the order of their first point. Only a
    robustness point shares its point[:5], with the other loads of its
    (morphology, seed): a config refuses repeated grid values, and every
    load is unseen (_load), so the prediction model and the MPC warm start
    of each load are the unloaded arm's."""
    groups = {}
    for point in points:
        groups.setdefault(point[:5], []).append(point)
    return list(groups.values())


def _bundles(points, jobs):
    """The units of work of one sweep phase. The trajectory-optimization
    points of each morphology, in grid order, are dealt round-robin into
    `jobs` bundles (points[i::jobs], empty ones dropped), each run in
    lockstep; dealing them so keeps the plan dimensions of a c grid mixed
    in every bundle. Receding-horizon points form their _warm_groups."""
    by_morph = {}
    for point in points:
        if point[3] is None:
            by_morph.setdefault(point[0], []).append(point)
    return ([same[i::jobs] for same in by_morph.values()
             for i in range(min(jobs, len(same)))]
            + _warm_groups([p for p in points if p[3] is not None]))


def _bundle_worker(args):
    """One _bundles bundle: per point, in order, (trace rows, calibration
    sample, MpcResult or None), where the sample is _peak_torques of the
    point's best or executed rollout.

    A trajectory-optimization bundle is one open_loop_lockstep call under
    one controller, built from each point's _oc_run. Each receding-horizon
    point makes one _mpc_run call, its mass a load on the lower arm
    (_load); the first runs the group's warm start and every later one is
    handed its (plans[0], step_evals[0]), so it skips its own (mpc_run)."""
    config, bundle, tau_max = args
    morph = bundle[0][0]
    if bundle[0][3] is None:
        found = open_loop_lockstep(
            _controller(morph, tau_max),
            [_oc_run(config, c, sigma, seed) for _, c, sigma, _, seed, _ in bundle])
        return [(oc_trace_rows(config.kind, config.task, morph, c, sigma, seed,
                               trace), _peak_torques(best), None)
                for (_, c, sigma, _, seed, _), (_, best, trace, _)
                in zip(bundle, found)]
    results, warm_start = [], None
    for _, _, _, tpred, seed, mass in bundle:
        res = _mpc_run(config, morph, tpred, seed, perturbation=_load(mass),
                       tau_max=tau_max, warm_start=warm_start)
        results.append((mpc_trace_rows(config.kind, config.task, morph,
                                       config.mpc_resolution, tpred, seed, res),
                        _peak_torques(res.executed), res))
        warm_start = res.plans[0], res.step_evals[0]
    return results


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
    calibration.csv; a diverged muscle run gives no sample, and a sweep
    whose muscle runs all diverged has nothing to calibrate from
    (ValueError). write_point(point, result) writes one point's files
    and returns their paths, in grid order; result is the point's entry
    in _bundle_worker's list. The run invariants are checked over all trace
    rows before calibration is written. Returns (paths, all trace rows).

    The unit of work is a bundle (_bundles): the trajectory-optimization
    points of one phase and morphology are dealt into `jobs` bundles that
    each advance in lockstep, one rollout_plans call per generation for
    all of a bundle's runs, and the receding-horizon points of one phase
    that differ only in their load form a bundle that shares one MPC warm
    start. Every bundle gets the config itself, already validated. With
    jobs > 1 and more than one bundle in either phase, both phases run in
    one process pool of `jobs` workers, or as many as the larger phase has
    bundles if that is fewer (under the fork start method a pool starts
    all its workers at its first submit, so a larger one would only fork
    idle processes); otherwise every bundle runs here, one after another,
    and no pool opens (a one-seed robustness sweep of one morphology per
    phase is one bundle per phase). Every run gives what it gives alone,
    so the files are the same whatever jobs is, for every experiment
    kind.
    """
    _prepare_out_dir(config.out_dir)
    points = _run_points(config)
    muscle = _bundles([p for p in points if p[0].startswith("muscle")], jobs)
    other = _bundles([p for p in points if not p[0].startswith("muscle")], jobs)
    workers = min(jobs, max(len(muscle), len(other)))
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        run = pool.map if pool is not None else map

        def run_phase(bundles, tau_max):
            done = run(_bundle_worker, [(config, b, tau_max) for b in bundles])
            return {p: r for b, rs in zip(bundles, done) for p, r in zip(b, rs)}

        results = run_phase(muscle, None)       # the muscle points' results
        tau_max = None
        if muscle and other:
            tau_max = calibrate_torque_limits([np.asarray(
                [r[1] for r in results.values() if r[1] is not None])])
        results.update(run_phase(other, tau_max))

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
    """Execute the configured sweep on `jobs` worker processes (_sweep),
    whatever its kind; returns the list of written CSV paths.

    One trace file per (grid point, seed) plus aggregate.csv. Muscle runs go
    first; when the sweep also contains torque-family morphologies, their
    torque ceilings are calibrated to the highest torques the muscle runs
    actually produced (written to calibration.csv). The sweep never stops on
    a diverged run: a trace row with no finite cost holds the cost `inf`
    and the diverged flag 1 (oc_trace_rows, mpc_trace_rows), and the
    aggregate leaves such rows out of its statistics and counts them. A
    robustness_weights config runs _robustness_sweep, which writes its own
    files in place of the trace files and aggregate.csv. jobs must be a
    whole number of at least 1 (ValueError before the output directory is
    made otherwise).
    """
    jobs = _whole(jobs, "jobs", 1)
    if config.kind == "robustness_weights":
        return _robustness_sweep(config, jobs)

    def write_point(point, result):
        path = os.path.join(config.out_dir, _trace_name(*point[:5]))
        return [write_csv(path, TRACE_HEADER, result[0])]

    paths, all_rows = _sweep(config, jobs, write_point)
    paths.append(write_csv(os.path.join(config.out_dir, "aggregate.csv"),
                           AGG_HEADER, aggregate_rows(all_rows)))
    return paths


def _robustness_sweep(config: ExperimentConfig, jobs: int):
    """run_experiment's robustness_weights sweep: receding-horizon control
    of the task under unknown forearm loads.

    Writes one trajectory CSV and one cost-over-time trace per run plus a
    summary with the final cost (`inf` for a diverged run) and the elbow
    overshoot past the joint posture the task's cost scores, whose cell is
    empty for a task that scores none (every task but smooth-reach: the
    task protocol's posture None) and for a diverged run, which has no
    overshoot. An unperturbed baseline (mass 0) always runs alongside the
    configured loads so perturbed and clean costs can be compared. Muscle
    runs execute first and calibrate the torque ceilings of any
    torque-family morphologies in the sweep.

    Every load is unseen, so the prediction model of every load of one
    (morphology, seed) is the unloaded arm, and so is its CMA-ES warm
    start: _sweep runs it once, for the first load (the baseline), and
    hands it to the others. Each run still charges the warm start's
    evaluations to its own budget, and every file is what a run with a
    warm start of its own writes. The loads of one (morphology, seed) are
    one bundle, so `jobs` workers run those bundles in parallel (_sweep).
    """
    summary = []

    def write_point(point, result):
        morph, _, _, _, seed, mass = point
        rows, _, res = result
        tag = f"{morph}_m{fmt(mass)}_seed{seed}"
        posture = _task_for(config, seed).posture
        summary.append([config.kind, config.task, morph, mass, seed,
                        res.executed.cost,
                        None if posture is None or res.executed.diverged
                        else overshoot_past_target(res.executed.th, posture),
                        int(res.executed.diverged)])
        return [write_trajectory_csv(
                    os.path.join(config.out_dir, f"robust_{tag}.csv"),
                    res.executed),
                write_csv(os.path.join(config.out_dir, f"robust_{tag}_trace.csv"),
                          TRACE_HEADER, rows)]

    paths, _ = _sweep(config, jobs, write_point)
    paths.append(write_csv(os.path.join(config.out_dir, "robustness.csv"),
                           ROBUST_HEADER, summary))
    return paths


# --------------------------------------------------------------------------
# Aggregation


def _group_key(row):
    return tuple(str(v) for v in row[:6])   # experiment..tpred


def aggregate_rows(trace_rows):
    """Aggregate trace rows (as written to trace CSVs) per config point and
    generation: mean, sample std, min, max over seeds; diverged rows, whose
    cost is inf, are excluded and counted in n_diverged, and a group with
    no other row has empty statistics. A finite cost counts in n, however
    large."""
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

