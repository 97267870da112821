"""Experiment harness: CSV schemas, aggregation identities, determinism,
torque-ceiling calibration, and the run invariants."""

import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myoarm.config import ExperimentConfig
from myoarm.actuators import AblationFlags, make_controller
from myoarm.harness import (AGG_HEADER, ROBUST_HEADER, TRACE_HEADER,
                            _check_invariants, _pool_aggregates, _run_points,
                            _warm_groups,
                            _task_for, _trace_name, aggregate_rows, fmt,
                            overshoot_past_target, read_csv, run_experiment,
                            summarize, trajectory_header,
                            write_csv, write_trajectory_csv)
from myoarm.objectives import ReachTarget


def tiny_oc_config(out_dir, morphologies=("muscle", "torque"), seeds=(0, 1)):
    return ExperimentConfig(kind="data_efficiency",
                            morphologies=list(morphologies),
                            c_grid=[0.3], seeds=list(seeds),
                            population=4, generations=2,
                            out_dir=str(out_dir))


def tiny_mpc_config(out_dir, morphologies=("muscle",), masses=(1.0,)):
    return ExperimentConfig(kind="robustness_weights",
                            morphologies=list(morphologies),
                            masses=list(masses), seeds=[0],
                            population=4, warm_generations=1,
                            refine_budget=1, tpred=0.02,
                            out_dir=str(out_dir))


# an arm of almost no mass or inertia, on which every rollout diverges
DIVERGING_ARM = {"i1": 1e-9, "m1": 1e-6, "m2": 1e-6, "i2": 1e-9, "m_hand": 0.0}


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def counted_pools(monkeypatch):
    """Count the sweep's process pools, the worker processes they start and
    the units they map: returns (pools, maps, workers), the max_workers of
    every pool opened, per map call (worker name, [[point, ...] per unit]),
    and per pool the number of worker processes it started."""
    import myoarm.harness as harness
    pools, maps, workers = [], [], []

    class Counted(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            workers.append(0)
            super().__init__(*args, **kwargs)

        def _spawn_process(self):
            workers[-1] += 1
            super()._spawn_process()

        def map(self, fn, *iterables, **kwargs):
            units = list(iterables[0])
            maps.append((fn.__name__, [list(unit) for _, unit, _ in units]))
            return super().map(fn, units, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Counted)
    return pools, maps, workers


def assert_same_files(names, dir_a, dir_b):
    for name in names:
        assert read_bytes(dir_a / name) == read_bytes(dir_b / name), name


class TestCsvPrimitives:
    def test_fmt_round_trips_floats(self):
        for v in (0.1, 1 / 3, 1e-17, 1822.8567):
            assert float(fmt(v)) == v

    def test_fmt_ints_bools_empty(self):
        assert fmt(3) == "3"
        assert fmt(True) == "1" and fmt(False) == "0"
        assert fmt(None) == "" and fmt("") == ""

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [["a", 0.25, 3, ""], ["b", 1 / 7, 0, "x"]]
        write_csv(path, ["s", "f", "i", "opt"], rows)
        header, got = read_csv(path)
        assert header == ["s", "f", "i", "opt"]
        assert got[0] == ["a", "0.25", "3", ""]
        assert float(got[1][1]) == 1 / 7

    def test_trajectory_header_schema(self):
        assert trajectory_header(4) == ["t", "theta1", "theta2", "dtheta1",
                                        "dtheta2", "u1", "u2", "u3", "u4",
                                        "tau1", "tau2"]

    def test_trace_name_formatting(self):
        assert _trace_name("muscle", 0.3, 0.2, None, 4) == \
            "trace_muscle_c0.3_s0.2_seed4.csv"
        assert _trace_name("torque", None, None, 0.5, 0) == \
            "trace_torque_t0.5_seed0.csv"


class TestOvershoot:
    def test_zero_when_never_past(self):
        th = np.array([[0.0, 0.0], [0.5, 1.0]])
        assert overshoot_past_target(th, ReachTarget()) == 0.0

    def test_peak_excursion_beyond_elbow_target(self):
        past = 0.5 * math.pi + 0.2
        th = np.array([[0.0, 0.0], [0.5, past], [0.5, 0.1]])
        assert overshoot_past_target(th, ReachTarget()) == pytest.approx(0.2)


def trace_row(morph, seed, gen, cost, evals, diverged=0, c=0.3, sigma=0.2):
    return ["data_efficiency", "smooth-reach", morph, c, sigma, "", seed,
            gen, cost, evals, diverged]


class TestAggregation:
    def test_single_trace_zero_std(self):
        rows = [trace_row("muscle", 0, 0, 5.0, 36)]
        agg = aggregate_rows(rows)
        assert len(agg) == 1
        assert agg[0][7] == 5.0 and agg[0][8] == 0.0
        assert agg[0][11] == 1 and agg[0][12] == 0

    def test_two_seeds_exact_mean_std(self):
        rows = [trace_row("muscle", 0, 0, 1.0, 36),
                trace_row("muscle", 1, 0, 3.0, 36)]
        agg = aggregate_rows(rows)
        assert agg[0][7] == 2.0
        assert agg[0][8] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert agg[0][9] == 1.0 and agg[0][10] == 3.0

    def test_diverged_rows_excluded_but_counted(self):
        rows = [trace_row("muscle", 0, 0, 2.0, 36),
                trace_row("muscle", 1, 0, math.inf, 36, diverged=1)]
        agg = aggregate_rows(rows)
        assert agg[0][7] == 2.0 and agg[0][11] == 1 and agg[0][12] == 1

    def test_pooling_identity_matches_direct_aggregation(self):
        rng = np.random.Generator(np.random.PCG64(3))
        rows = [trace_row("muscle", seed, gen, float(rng.uniform(1, 9)), 36)
                for seed in range(6) for gen in range(3)]
        direct = aggregate_rows(rows)
        half_a = aggregate_rows([r for r in rows if r[6] < 3])
        half_b = aggregate_rows([r for r in rows if r[6] >= 3])
        pooled = _pool_aggregates([[fmt(v) for v in row]
                                   for row in half_a + half_b])
        assert len(pooled) == len(direct)
        for got, want in zip(pooled, direct):
            assert got[7] == pytest.approx(want[7], abs=1e-12)
            assert got[8] == pytest.approx(want[8], abs=1e-12)
            assert got[9:13] == want[9:13]


class TestInvariantChecks:
    def test_increasing_best_cost_rejected(self):
        rows = [trace_row("muscle", 0, 0, 2.0, 36),
                trace_row("muscle", 0, 1, 2.5, 72)]
        with pytest.raises(RuntimeError, match="increased"):
            _check_invariants(rows)

    def test_unequal_budgets_rejected(self):
        rows = [trace_row("muscle", 0, 0, 2.0, 36),
                trace_row("torque", 0, 0, 1.0, 40)]
        with pytest.raises(RuntimeError, match="budgets"):
            _check_invariants(rows)

    def test_clean_rows_pass(self):
        rows = [trace_row("muscle", 0, 0, 2.0, 36),
                trace_row("muscle", 0, 1, 1.5, 72),
                trace_row("torque", 0, 0, 3.0, 36),
                trace_row("torque", 0, 1, 3.0, 72)]
        _check_invariants(rows)


class TestRunPoints:
    def test_ablation_grid_encodes_morphology(self):
        config = ExperimentConfig(kind="ablation", seeds=[0])
        morphs = [p[0] for p in _run_points(config)]
        assert morphs == ["muscle", "muscle-nofl", "muscle-nofv",
                          "muscle-noactdyn"]

    def test_unknown_kind_rejected(self):
        config = ExperimentConfig(kind="data_efficiency")
        config.kind = "mystery"
        with pytest.raises(ValueError):
            _run_points(config)

    def test_robustness_grid_adds_the_unloaded_baseline(self):
        config = ExperimentConfig(kind="robustness_weights", seeds=[0, 1],
                                  morphologies=["muscle"], masses=[2, 1.0])
        assert [(p[5], p[4]) for p in _run_points(config)] == [
            (0.0, 0), (0.0, 1), (2.0, 0), (2.0, 1), (1.0, 0), (1.0, 1)]


class TestMorphologyLabels:
    def test_cli_ablation_label_parses_to_the_cli_flags(self):
        from myoarm.cli import _controller_setup, build_parser
        args = build_parser().parse_args(["optimize", "--ablate", "fl",
                                          "--ablate", "fv"])
        label = _controller_setup(args)
        assert label == "muscle-nofl-nofv"
        assert make_controller(label).flags == AblationFlags(disable_fl=True,
                                                             disable_fv=True)

    def test_sweep_and_cli_runs_of_one_label_agree(self, tmp_path):
        from myoarm.cli import main
        config = tiny_oc_config(tmp_path / "sweep", ("muscle-nofl-nofv",), (0,))
        run_experiment(config)
        assert main(["optimize", "--ablate", "fl", "--ablate", "fv",
                     "--population", "4", "--generations", "2",
                     "--out", str(tmp_path / "cli")]) == 0
        header, sweep = read_csv(tmp_path / "sweep" /
                                 "trace_muscle-nofl-nofv_c0.3_s0.2_seed0.csv")
        _, cli = read_csv(tmp_path / "cli" / "trace.csv")
        assert [r[2:] for r in sweep] == [r[2:] for r in cli]

    def test_ceiling_reaches_the_torque_family_only(self, tmp_path,
                                                    monkeypatch):
        # every point's controller, as the sweep hands it to the optimizer:
        # the muscle points keep their defaults, and the torque points get
        # the ceiling written to calibration.csv
        import myoarm.harness as harness
        real, seen = harness.open_loop_lockstep, []

        def kept(controller, runs):
            seen.extend([controller] * len(runs))
            return real(controller, runs)

        monkeypatch.setattr(harness, "open_loop_lockstep", kept)
        run_experiment(tiny_oc_config(tmp_path, ("muscle-nofl", "torque")))
        _, rows = read_csv(tmp_path / "calibration.csv")
        ceiling = tuple(float(v) for v in rows[0])
        names = [type(c).__name__ for c in seen]
        assert names == ["MuscleController"] * 2 + ["TorqueController"] * 2
        assert all(vars(c) == vars(make_controller("muscle-nofl"))
                   for c in seen[:2])
        assert [c.tau_max for c in seen[2:]] == [ceiling] * 2
        with pytest.raises(ValueError, match="muscle"):
            make_controller("torque-nofl")


class TestRunExperiment:
    def test_writes_trace_per_point_plus_aggregate(self, tmp_path):
        config = tiny_oc_config(tmp_path)
        paths = run_experiment(config)
        names = sorted(os.path.basename(p) for p in paths)
        assert "aggregate.csv" in names
        assert "calibration.csv" in names
        traces = [n for n in names if n.startswith("trace_")]
        assert len(traces) == 4
        header, rows = read_csv(tmp_path / traces[0])
        assert header == TRACE_HEADER
        assert len(rows) == config.generations
        assert [int(r[9]) for r in rows] == [4, 8]

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tiny_oc_config(tmp_path / "a")
        second = tiny_oc_config(tmp_path / "b")
        paths_a = run_experiment(first)
        paths_b = run_experiment(second)
        assert len(paths_a) == len(paths_b)
        for pa, pb in zip(sorted(paths_a), sorted(paths_b)):
            assert os.path.basename(pa) == os.path.basename(pb)
            assert read_bytes(pa) == read_bytes(pb)

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        # byte-identical output at every job count, the muscle phase and the
        # calibrated torque phase share one process pool, and each phase
        # maps its points dealt round-robin into `jobs` lockstep bundles
        pools, maps, workers = counted_pools(monkeypatch)
        # two c (or sigma) values and two seeds: four points per phase
        for kind, grid in (("data_efficiency", [(0.3, 0.2), (0.15, 0.2)]),
                           ("sigma_sweep", [(0.3, 0.2), (0.3, 0.1)])):
            def config(out_dir):
                return replace(tiny_oc_config(tmp_path / kind / out_dir),
                               kind=kind, c_grid=[0.3, 0.15],
                               sigma_grid=[0.2, 0.1])

            pools.clear()
            workers.clear()
            seq = run_experiment(config("seq"))
            assert pools == []
            names = sorted(map(os.path.basename, seq))
            assert "calibration.csv" in names
            points = [(*cs, seed) for cs in grid for seed in (0, 1)]
            for jobs in (2, 3):
                maps.clear()
                par = run_experiment(config(f"par{jobs}"), jobs=jobs)
                assert pools[-1] == jobs
                bundles = [points[i::jobs] for i in range(jobs)]
                assert [(fn, [[p[1:3] + p[4:5] for p in unit] for unit in units])
                        for fn, units in maps] == [("_bundle_worker", bundles)] * 2
                assert names == sorted(map(os.path.basename, par))
                assert_same_files(names, tmp_path / kind / "seq",
                                  tmp_path / kind / f"par{jobs}")
            assert pools == [2, 3] and workers == [2, 3]

    def test_calibration_only_with_torque_family(self, tmp_path):
        paths = run_experiment(tiny_oc_config(tmp_path, ("muscle",), (0,)))
        assert not any(p.endswith("calibration.csv") for p in paths)

    def test_calibrated_ceiling_is_positive_pair(self, tmp_path):
        run_experiment(tiny_oc_config(tmp_path))
        header, rows = read_csv(tmp_path / "calibration.csv")
        assert header == ["tau1_max", "tau2_max"]
        tau = [float(v) for v in rows[0]]
        assert len(tau) == 2 and all(v > 0 for v in tau)

    def test_a_diverged_muscle_run_gives_no_calibration_sample(
            self, tmp_path, monkeypatch):
        # the torque family's ceiling is the peak of the muscle runs that
        # did not diverge; a diverged run's NaN torques used to become the
        # ceiling of every torque-family point
        import myoarm.harness as harness
        real = harness.open_loop_lockstep
        diverge = {1}

        def lockstep(controller, runs):
            found = real(controller, runs)
            for k, ((_, _, cma), (x, best, trace, par)) in enumerate(
                    zip(runs, found)):
                if type(controller).__name__ == "MuscleController" \
                        and cma.seed in diverge:
                    found[k] = (x, replace(best, termination="diverged", torques=np.full_like(
                        best.torques, np.nan)), trace, par)
            return found

        monkeypatch.setattr(harness, "open_loop_lockstep", lockstep)
        run_experiment(tiny_oc_config(tmp_path / "both"))
        run_experiment(tiny_oc_config(tmp_path / "seed0", seeds=(0,)))
        assert (read_bytes(tmp_path / "both" / "calibration.csv")
                == read_bytes(tmp_path / "seed0" / "calibration.csv"))
        diverge.add(0)
        with pytest.raises(ValueError, match="no torque data"):
            run_experiment(tiny_oc_config(tmp_path / "none"))

    def test_a_finite_best_above_1e9_is_not_a_divergence(self, tmp_path):
        # a forearm of almost no mass: seed 0's generation 0 has five
        # diverged torque candidates and three finite ones above 1e19. A
        # best cost of at least 1e9 was once written as diverged and left
        # out of the aggregate, and a diverged candidate outranked them all
        config = ExperimentConfig(morphologies=["torque"], c_grid=[0.3],
                                  seeds=[0, 1], population=8, generations=3,
                                  out_dir=str(tmp_path), arm_overrides={
                                      "m2": 1e-6, "i2": 1e-9, "m_hand": 0.0})
        run_experiment(config)
        for seed in (0, 1):
            _, rows = read_csv(tmp_path / f"trace_torque_c0.3_s0.2_seed{seed}.csv")
            assert len(rows) == 3
            for row in rows:
                assert 1e9 < float(row[8]) < math.inf and row[10] == "0"
        _, agg = read_csv(tmp_path / "aggregate.csv")
        assert [(r[11], r[12]) for r in agg] == [("2", "0")] * 3
        assert all(math.isfinite(float(r[7])) for r in agg)

    def test_an_all_diverged_run_writes_inf_and_an_empty_aggregate(
            self, tmp_path):
        out = tmp_path / "run"
        config = replace(tiny_oc_config(out, ("muscle",)),
                         arm_overrides=DIVERGING_ARM)
        paths = run_experiment(config)
        traces = [p for p in paths if os.path.basename(p).startswith("trace_")]
        assert len(traces) == 2
        for path in traces:
            _, rows = read_csv(path)
            assert [(r[8], r[10]) for r in rows] == [("inf", "1")] * 2
        _, agg = read_csv(out / "aggregate.csv")
        assert [r[7:] for r in agg] == [["", "", "", "", "0", "2"]] * 2
        again = summarize(traces, tmp_path / "again.csv")
        assert read_bytes(again) == read_bytes(out / "aggregate.csv")

    def test_an_overflowing_population_cost_is_inf_without_a_warning(
            self, tmp_path):
        # a light forearm: some low-pass candidates stay finite while their
        # cost overflows. The population was once scored outside the steps'
        # np.errstate block, and the overflow warned ("overflow encountered
        # in square"), which python -W error turns into a crash
        config = ExperimentConfig(kind="lowpass_baseline", seeds=[0],
                                  population=8, generations=3,
                                  out_dir=str(tmp_path), arm_overrides={
                                      "m2": 1e-4, "i2": 1e-7, "m_hand": 0.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(config)
        _, agg = read_csv(tmp_path / "aggregate.csv")
        assert len(agg) == 6 and all(r[11:] == ["1", "0"] for r in agg)

    def test_writes_stay_inside_out_dir(self, tmp_path):
        out = tmp_path / "inner"
        before = set(os.listdir(tmp_path))
        paths = run_experiment(tiny_oc_config(out))
        after = set(os.listdir(tmp_path))
        assert after - before == {"inner"}
        for p in paths:
            assert os.path.realpath(p).startswith(os.path.realpath(out))

    def test_unwritable_out_dir_rejected(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file")
        config = tiny_oc_config(blocker / "sub")
        with pytest.raises(ValueError, match="not writable"):
            run_experiment(config)


class TestTaskForConfig:
    def test_goals_are_sampled_within_the_configured_arm(self):
        config = ExperimentConfig(task="precise-reach",
                                  arm_overrides={"l1": 0.1, "l2": 0.1})
        for seed in range(50):
            gx, gz = _task_for(config, seed).target.goal_xz
            assert math.hypot(gx, gz) <= 0.2 - 0.01


class TestRobustnessSweep:
    def test_outputs_and_trajectory_schema(self, tmp_path):
        config = tiny_mpc_config(tmp_path)
        paths = run_experiment(config)
        names = {os.path.basename(p) for p in paths}
        assert "robustness.csv" in names
        # the clean baseline is always swept alongside the configured loads
        assert "robust_muscle_m0.0_seed0.csv" in names
        assert "robust_muscle_m1.0_seed0.csv" in names
        assert "robust_muscle_m0.0_seed0_trace.csv" in names
        header, rows = read_csv(tmp_path / "robust_muscle_m0.0_seed0.csv")
        assert header == trajectory_header(4)
        assert len(rows) == round(0.9 / 0.005) + 1

    def test_summary_overshoot_recomputable_from_trajectory(self, tmp_path):
        config = tiny_mpc_config(tmp_path)
        run_experiment(config)
        _, rows = read_csv(tmp_path / "robust_muscle_m0.0_seed0.csv")
        th = np.array([[float(r[1]), float(r[2])] for r in rows])
        _, summary = read_csv(tmp_path / "robustness.csv")
        assert float(summary[0][6]) == overshoot_past_target(th, ReachTarget())

    def test_rerun_is_byte_identical(self, tmp_path):
        paths_a = run_experiment(tiny_mpc_config(tmp_path / "a"))
        paths_b = run_experiment(tiny_mpc_config(tmp_path / "b"))
        for pa, pb in zip(sorted(paths_a), sorted(paths_b)):
            assert read_bytes(pa) == read_bytes(pb)

    def test_summary_schema_and_flags(self, tmp_path):
        config = tiny_mpc_config(tmp_path)
        run_experiment(config)
        header, rows = read_csv(tmp_path / "robustness.csv")
        assert header == ROBUST_HEADER
        assert len(rows) == 2
        assert {r[3] for r in rows} == {"0.0", "1.0"}
        assert rows[0][2] == "muscle" and rows[0][7] == "0"

    def test_one_warm_start_per_morphology_and_seed(self, tmp_path,
                                                   monkeypatch):
        # 3 loads (the baseline, 1 and 2 kg), 2 seeds, 2 morphologies: every
        # load is unseen, so the loads of one (morphology, seed) share one
        # warm start, and the sweep writes the bytes of a sweep in which
        # every point runs its own
        import myoarm.control as control
        import myoarm.harness as harness
        real, warm_starts = control.cma_es, []

        def counted(objective, x0, config):
            warm_starts.append((x0.size, config.seed))
            return real(objective, x0, config)

        monkeypatch.setattr(control, "cma_es", counted)

        def sweep(out_dir):
            config = tiny_mpc_config(out_dir, morphologies=("muscle", "torque"),
                                     masses=(1.0, 2.0))
            config.seeds = [0, 1]
            return run_experiment(config)

        shared = sweep(tmp_path / "shared")
        # plans of dimension 8 (muscle) and 4 (torque) at tpred 0.02
        assert sorted(warm_starts) == [(4, 0), (4, 1), (8, 0), (8, 1)]
        warm_starts.clear()
        monkeypatch.setattr(harness, "_warm_groups",
                            lambda points: [[p] for p in points])
        own = sweep(tmp_path / "own")
        assert len(warm_starts) == 12
        names = sorted(map(os.path.basename, shared))
        assert names == sorted(map(os.path.basename, own))
        assert "calibration.csv" in names
        for name in names:
            assert (read_bytes(tmp_path / "shared" / name)
                    == read_bytes(tmp_path / "own" / name)), name

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        # two seeds, muscle and torque: each phase holds one warm group per
        # seed, and one pool maps both phases' groups. It starts one worker
        # per group of the larger phase at most, so two at jobs=3 as at
        # jobs=2: a third would only be forked to sit idle
        pools, maps, workers = counted_pools(monkeypatch)

        def sweep(out_dir, jobs):
            config = tiny_mpc_config(tmp_path / out_dir,
                                     morphologies=("muscle", "torque"))
            config.seeds = [0, 1]
            return run_experiment(config, jobs=jobs)

        names = sorted(map(os.path.basename, sweep("seq", 1)))
        assert pools == [] and "calibration.csv" in names
        for jobs in (2, 3):
            maps.clear()
            par = sweep(f"par{jobs}", jobs)
            assert pools[-1] == 2 and workers[-1] == 2
            assert [(fn, [[(p[0], p[4], p[5]) for p in unit] for unit in units])
                    for fn, units in maps] == [
                ("_bundle_worker", [[(m, seed, 0.0), (m, seed, 1.0)]
                                    for seed in (0, 1)])
                for m in ("muscle", "torque")]
            assert names == sorted(map(os.path.basename, par))
            assert_same_files(names, tmp_path / "seq", tmp_path / f"par{jobs}")
        assert pools == [2, 2] and workers == [2, 2]

    def test_one_seed_opens_no_pool(self, tmp_path, monkeypatch):
        # one seed per morphology is one warm group per phase, so a sweep of
        # this shape runs in one process at any job count
        pools, _, _ = counted_pools(monkeypatch)
        runs = {}
        for jobs in (1, 2):
            config = tiny_mpc_config(tmp_path / f"j{jobs}",
                                     morphologies=("muscle", "torque"),
                                     masses=(2.0,))
            runs[jobs] = sorted(map(os.path.basename,
                                    run_experiment(config, jobs=jobs)))
        assert pools == []
        assert runs[1] == runs[2]
        assert_same_files(runs[1], tmp_path / "j1", tmp_path / "j2")

    def test_warm_groups_keep_morphologies_and_seeds_apart(self):
        config = ExperimentConfig(kind="robustness_weights", seeds=[0, 1],
                                  morphologies=["muscle", "torque", "pd"],
                                  masses=[1.0, 2.0], tpred=0.02)
        groups = _warm_groups(_run_points(config))
        assert len(groups) == 6
        for group in groups:
            assert len(group) == 3
            assert len({(p[0], p[4]) for p in group}) == 1
        # an OC point and a tpred_sweep point are groups of their own
        for config in (tiny_oc_config("unused"),
                       ExperimentConfig(kind="tpred_sweep", seeds=[0, 1],
                                        morphologies=["muscle", "torque"],
                                        tpred_grid=[0.02, 0.04])):
            assert _warm_groups(_run_points(config)) == [
                [p] for p in _run_points(config)]

    def test_a_task_without_a_reach_target_leaves_overshoot_empty(
            self, tmp_path):
        # ball-serve has no reach target; its sweep used to run every point
        # and then die with an AttributeError before writing the summary
        config = replace(tiny_mpc_config(tmp_path), task="ball-serve")
        paths = run_experiment(config)
        assert str(tmp_path / "robustness.csv") in map(str, paths)
        header, rows = read_csv(tmp_path / "robustness.csv")
        assert header == ROBUST_HEADER and len(rows) == 2
        assert [r[header.index("overshoot")] for r in rows] == ["", ""]
        assert all(math.isfinite(float(r[header.index("final_cost")]))
                   for r in rows)

    def test_a_diverged_run_has_no_overshoot(self, tmp_path):
        # every executed trajectory diverges on this arm; max(0.0, nan) is
        # 0.0, so its overshoot cell once read "never past the target"
        config = replace(tiny_mpc_config(tmp_path), arm_overrides=DIVERGING_ARM)
        run_experiment(config)
        header, rows = read_csv(tmp_path / "robustness.csv")
        assert len(rows) == 2
        for row in rows:
            assert row[header.index("diverged")] == "1"
            assert row[header.index("final_cost")] == "inf"
            assert row[header.index("overshoot")] == ""
        for mass in ("0.0", "1.0"):
            _, trace = read_csv(tmp_path / f"robust_muscle_m{mass}_seed0_trace.csv")
            assert trace and {(r[8], r[10]) for r in trace} == {("inf", "1")}

    def test_calibration_is_the_muscle_runs_peak_torque(self, tmp_path):
        config = tiny_mpc_config(tmp_path, morphologies=("muscle", "torque"))
        paths = run_experiment(config)
        peaks = []
        for mass in ("0.0", "1.0"):
            header, rows = read_csv(tmp_path / f"robust_muscle_m{mass}_seed0.csv")
            i1, i2 = header.index("tau1"), header.index("tau2")
            peaks.append([max(abs(float(r[i])) for r in rows) for i in (i1, i2)])
        header, rows = read_csv(tmp_path / "calibration.csv")
        assert header == ["tau1_max", "tau2_max"]
        assert [float(v) for v in rows[0]] == list(np.max(peaks, axis=0))
        assert str(tmp_path / "calibration.csv") in map(str, paths)

    def test_trace_evals_are_what_each_run_spent(self, tmp_path, monkeypatch):
        # every refinement cut short after one evaluation: the trace's last
        # evals equals what the run spent (MpcResult.step_evals[-1]), not
        # warm + k * refine_budget
        import myoarm.control as control
        import myoarm.harness as harness
        real_refine, real_run = control.local_refine, harness.mpc_run
        results = []

        def one_eval(objective, x0, radius0, budget, lo=None, hi=None):
            return real_refine(objective, x0, radius0, 1, lo=lo, hi=hi)

        def kept_run(*args, **kwargs):
            results.append(real_run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(control, "local_refine", one_eval)
        monkeypatch.setattr(harness, "mpc_run", kept_run)
        config = tiny_mpc_config(tmp_path)       # runs mass 0.0 first
        config.refine_budget = 3
        run_experiment(config)
        header, rows = read_csv(tmp_path / "robust_muscle_m0.0_seed0_trace.csv")
        evals = [int(r[header.index("evals")]) for r in rows]
        n_ctrl = round(0.9 / 0.01)
        assert evals == [4 + k for k in range(n_ctrl)]
        assert evals[-1] == results[0].step_evals[-1]


class TestSummarize:
    def test_traces_to_aggregate_matches_run(self, tmp_path):
        config = tiny_oc_config(tmp_path)
        paths = run_experiment(config)
        traces = [p for p in paths if os.path.basename(p).startswith("trace_")]
        out = summarize(traces, tmp_path / "resummary.csv")
        assert read_bytes(out) == read_bytes(tmp_path / "aggregate.csv")

    def test_pooling_aggregates(self, tmp_path):
        rows = [trace_row("muscle", s, 0, float(s + 1), 36) for s in range(4)]
        full = write_csv(tmp_path / "full.csv", TRACE_HEADER,
                         [[fmt(v) for v in r] for r in rows])
        half_a = write_csv(tmp_path / "a.csv", AGG_HEADER,
                           aggregate_rows(rows[:2]))
        half_b = write_csv(tmp_path / "b.csv", AGG_HEADER,
                           aggregate_rows(rows[2:]))
        direct = summarize([full], tmp_path / "direct.csv")
        pooled = summarize([half_a, half_b], tmp_path / "pooled.csv")
        _, d_rows = read_csv(direct)
        _, p_rows = read_csv(pooled)
        assert float(p_rows[0][7]) == pytest.approx(float(d_rows[0][7]), abs=1e-12)
        assert float(p_rows[0][8]) == pytest.approx(float(d_rows[0][8]), abs=1e-12)

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data(), n_seeds=st.integers(1, 6), n_parts=st.integers(1, 3))
    def test_summarize_pools_aggregates_into_the_direct_aggregate(
            self, data, n_seeds, n_parts):
        # the pooling identity: summarize over the aggregate CSVs of any
        # split of the seeds equals summarize over all the traces
        cost = st.one_of(st.floats(0.0, 1e6), st.just(math.inf))
        rows = [trace_row(morph, seed, gen, value, 36 * (gen + 1),
                          diverged=int(value == math.inf), c=c)
                for morph in ("muscle", "torque") for c in (0.1, 0.3)
                for seed in range(n_seeds) for gen in range(2)
                for value in [data.draw(cost)]]
        part = data.draw(st.lists(st.integers(0, n_parts - 1),
                                  min_size=n_seeds, max_size=n_seeds))
        with tempfile.TemporaryDirectory() as tmp:
            def csv(name, header, rows):
                return write_csv(os.path.join(tmp, name), header, rows)

            _, want = read_csv(summarize([csv("all.csv", TRACE_HEADER, rows)],
                                         os.path.join(tmp, "direct.csv")))
            aggregates = [
                summarize([csv(f"t{i}.csv", TRACE_HEADER,
                               [r for r in rows if part[r[6]] == i])],
                          os.path.join(tmp, f"a{i}.csv"))
                for i in sorted(set(part))]
            _, got = read_csv(summarize(aggregates, os.path.join(tmp, "pooled.csv")))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            # keys, min, max, n and n_diverged exactly; mean and std to
            # rounding, on the scale of the group's largest cost
            assert g[:7] + g[9:] == w[:7] + w[9:]
            if w[7] == "":
                assert g[7:9] == ["", ""]
                continue
            scale = 1e-9 * max(1.0, float(w[10]))
            assert float(g[7]) == pytest.approx(float(w[7]), abs=scale)
            assert float(g[8]) == pytest.approx(float(w[8]), abs=scale)

    def test_mixed_schemas_rejected(self, tmp_path):
        rows = [trace_row("muscle", 0, 0, 2.0, 36)]
        t = write_csv(tmp_path / "t.csv", TRACE_HEADER, rows)
        a = write_csv(tmp_path / "a.csv", AGG_HEADER, aggregate_rows(rows))
        with pytest.raises(ValueError, match="mix"):
            summarize([t, a], tmp_path / "out.csv")

    def test_unknown_schema_rejected(self, tmp_path):
        bad = write_csv(tmp_path / "bad.csv", ["x", "y"], [])
        with pytest.raises(ValueError, match="schema"):
            summarize([bad], tmp_path / "out.csv")

    def test_empty_input_rejected(self, tmp_path):
        t = write_csv(tmp_path / "t.csv", TRACE_HEADER, [])
        with pytest.raises(ValueError, match="no input"):
            summarize([t], tmp_path / "out.csv")


class TestTrajectoryCsv:
    def test_terminal_row_repeats_last_controls(self, tmp_path):
        class Stub:
            t = np.array([0.0, 0.005, 0.01])
            th = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.1]])
            dth = np.zeros((3, 2))
            controls = np.array([[0.3, 0.4], [0.5, 0.6]])
            torques = np.array([[1.0, 2.0], [3.0, 4.0]])

        path = write_trajectory_csv(tmp_path / "traj.csv", Stub())
        _, rows = read_csv(path)
        assert len(rows) == 3
        assert [float(v) for v in rows[1][5:7]] == [0.5, 0.6]
        assert [float(v) for v in rows[2][5:7]] == [0.5, 0.6]
        assert [float(v) for v in rows[2][7:9]] == [3.0, 4.0]

