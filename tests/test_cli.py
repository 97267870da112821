"""Command-line interface: exit codes, file outputs, and flag handling."""

import os
import subprocess
import sys

import numpy as np
import pytest

from myoarm.cli import main
from myoarm.config import ExperimentConfig
from myoarm.harness import read_csv, run_experiment, trajectory_header

TINY_CONFIG = """
experiment.kind = data_efficiency
experiment.morphologies = muscle, torque
experiment.seeds = 0, 1
grid.c = 0.3
optimizer.population = 4
optimizer.generations = 2
"""


def run_cli(*argv):
    return main(list(argv))


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("explode") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli("simulate", "--frobnicate") == 1
        assert "usage" in capsys.readouterr().err

    def test_mpc_refuses_c(self, tmp_path, capsys):
        # mpc's control step is --resolution; it used to accept --c and
        # read it nowhere
        assert run_cli("mpc", "--c", "5", "--tpred", "0.02",
                       "--population", "4", "--warm-generations", "1",
                       "--refine-budget", "1",
                       "--out", str(tmp_path / "out")) == 1
        assert "unrecognized arguments: --c" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, named", [
        (("optimize", "--c", "inf"), "resolution inf"),
        (("optimize", "--sigma", "nan"), "sigma0"),
        (("mpc", "--tpred", "inf"), "mpc.tpred"),
        (("simulate", "--perturb", "hand_mass", "--mass", "inf"), "mass")])
    def test_a_non_finite_flag_is_a_clean_error(self, tmp_path, capsys, argv,
                                                named):
        # --c inf and --tpred inf used to raise OverflowError from round(),
        # --sigma nan to fail in the first generation as a non-finite
        # decision vector, and --mass inf to run and exit 2 as a divergence
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and named in err and "finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "mpc"])
    @pytest.mark.parametrize("kind", ["none", "chaotic_pendulum"])
    def test_mass_without_a_mass_kind_is_a_usage_error(self, tmp_path, capsys,
                                                       command, kind):
        # --mass used to be ignored without a word unless --perturb adds mass
        out = tmp_path / "out"
        assert run_cli(command, "--perturb", kind, "--mass", "5",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and repr(kind) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_visible_without_a_perturbation_is_a_usage_error(self, tmp_path,
                                                             capsys):
        # with --perturb none the prediction model has nothing to see, and
        # --visible used to run and write the same CSVs as without it
        out = tmp_path / "out"
        assert run_cli("mpc", "--visible", "--tpred", "0.02",
                       "--population", "4", "--warm-generations", "1",
                       "--refine-budget", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and "--visible" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_simulate_has_no_visible_flag(self, tmp_path, capsys):
        # simulate has no prediction model, so the flag changed nothing
        out = tmp_path / "out.csv"
        assert run_cli("simulate", "--visible", "--out", str(out)) == 1
        assert "unrecognized arguments: --visible" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_task(self, capsys):
        assert run_cli("simulate", "--task", "juggling") == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_morphology(self, capsys):
        assert run_cli("simulate", "--morphology", "hydraulic") == 1

    def test_ablate_requires_muscle(self, capsys):
        assert run_cli("simulate", "--morphology", "torque",
                       "--ablate", "fv") == 1
        assert "muscle" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("experiment", "--config",
                       str(tmp_path / "absent.cfg")) == 1

    def test_bad_config_key_is_a_clean_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + "arm.bogus = 1\n")
        assert run_cli("experiment", "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and "arm.bogus" in err

    def test_bad_config_value_is_a_clean_error(self, tmp_path, capsys):
        # a non-numeric arm value used to pass the config and raise a
        # TypeError traceback inside the first sweep point
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + "arm.l1 = abc\n")
        assert run_cli("experiment", "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and "arm.l1" in err
        assert not (tmp_path / "out").exists()
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, line", [
        ("tpred_sweep", "grid.tpred = 0.02, 0.004"),
        ("robustness_weights", "mpc.tpred = 0.004")])
    def test_horizon_below_one_segment_is_a_clean_error(self, tmp_path,
                                                        capsys, kind, line):
        # a prediction horizon shorter than mpc.resolution used to pass the
        # config and fail in the first MPC point, after the output
        # directory was made
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment.kind = {kind}\nmpc.resolution = 0.01\n"
                       f"{line}\n")
        assert run_cli("experiment", "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and line.split(" =")[0] in err
        assert "control segment" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["tpred_sweep", "robustness_weights"])
    def test_resolution_that_misses_the_horizon_is_a_clean_error(
            self, tmp_path, capsys, kind):
        # 0.04 s does not divide smooth-reach's 0.9 s; the config used to
        # pass and the first MPC point to fail after the output directory
        # was made
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment.kind = {kind}\nmpc.resolution = 0.04\n")
        assert run_cli("experiment", "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and "task horizon" in err
        assert not (tmp_path / "out").exists()

    def test_mpc_resolution_that_misses_the_horizon_is_a_clean_error(
            self, tmp_path, capsys):
        assert run_cli("mpc", "--resolution", "0.04", "--tpred", "0.04",
                       "--population", "4", "--warm-generations", "1",
                       "--refine-budget", "2",
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and "task horizon" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["grid.c = 0.05, 0.007", "grid.c = 2.0"])
    def test_oc_resolution_the_run_refuses_is_a_clean_error(self, tmp_path,
                                                            capsys, line):
        # a grid.c value off the 5 ms physics step, or longer than the
        # 0.9 s horizon, used to pass the config; the sweep then made the
        # output directory, ran the good points and failed at the bad one
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + line + "\n")
        assert run_cli("experiment", "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and "grid.c" in err
        assert not (tmp_path / "out").exists()

    def test_a_repeated_grid_value_is_a_clean_error(self, tmp_path, capsys):
        # grid.c = 0.3, 0.3 used to run and write the same trace twice
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + "grid.c = 0.3, 0.3\n")
        assert run_cli("experiment", "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and "grid.c repeats 0.3" in err
        assert not (tmp_path / "out").exists()

    def test_refine_budget_below_one_is_refused_before_planning(
            self, tmp_path, capsys, monkeypatch):
        # --refine-budget 0 used to run the whole CMA-ES warm start and the
        # first plant segment before local_refine refused the budget
        import myoarm.control as control

        def no_planning(*args, **kwargs):
            raise AssertionError("planned before checking the budget")

        monkeypatch.setattr(control, "cma_es", no_planning)
        assert run_cli("mpc", "--refine-budget", "0",
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and "refine_budget" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["mpc", "--tpred", "0.3023"],
        ["experiment", "--config", "CONFIG"]])
    def test_horizon_off_the_physics_step_is_refused_before_planning(
            self, tmp_path, capsys, monkeypatch, argv):
        # a 0.3023 s window used to be rounded to 60 physics steps while
        # its plan had 31 segments, the last never applied
        import myoarm.control as control

        def no_planning(*args, **kwargs):
            raise AssertionError("planned with a horizon off the 5 ms step")

        monkeypatch.setattr(control, "cma_es", no_planning)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment.kind = robustness_weights\n"
                       "mpc.tpred = 0.3023\n")
        argv = [str(cfg) if a == "CONFIG" else a for a in argv]
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "myoarm: error:" in err and "horizon 0.3023" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        # --jobs -3 used to run the sweep serially without a word
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG)
        assert run_cli("experiment", "--config", str(cfg), "--jobs", jobs,
                       "--out", str(tmp_path / "out")) == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "simulate" in capsys.readouterr().out


class TestSimulate:
    def test_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run_cli("simulate", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == trajectory_header(4)
        assert len(rows) == round(0.9 / 0.005) + 1
        assert "cost=" in capsys.readouterr().out

    def test_each_morphology_smokes(self, tmp_path):
        for morph, n_u in (("torque", 2), ("pd", 2),
                           ("lowpass-fast", 2), ("lowpass-slow", 2)):
            out = tmp_path / f"{morph}.csv"
            assert run_cli("simulate", "--morphology", morph,
                           "--out", str(out)) == 0
            header, _ = read_csv(out)
            assert header == trajectory_header(n_u)

    def test_perturbed_run(self, tmp_path):
        out = tmp_path / "loaded.csv"
        assert run_cli("simulate", "--perturb", "lower_arm_mass",
                       "--mass", "2.0", "--out", str(out)) == 0

    def test_a_mass_kind_without_mass_adds_one_kilogram(self, tmp_path):
        default, one = tmp_path / "default.csv", tmp_path / "one.csv"
        assert run_cli("simulate", "--perturb", "hand_mass",
                       "--out", str(default)) == 0
        assert run_cli("simulate", "--perturb", "hand_mass", "--mass", "1.0",
                       "--out", str(one)) == 0
        assert default.read_bytes() == one.read_bytes()

    def test_ablate_repeatable(self, tmp_path):
        out = tmp_path / "abl.csv"
        assert run_cli("simulate", "--ablate", "fv", "--ablate", "fl",
                       "--out", str(out)) == 0

    def test_diverged_run_exits_two(self, tmp_path, monkeypatch):
        import myoarm.cli as cli

        class Boom:
            t = np.array([0.0, 0.005])
            th = np.array([[0.0, 0.0], [np.nan, np.nan]])
            dth = np.zeros((2, 2))
            controls = np.zeros((1, 4))
            torques = np.zeros((1, 2))
            cost = np.inf
            diverged = True
            termination = "diverged"

        monkeypatch.setattr(cli, "rollout",
                            lambda *a, **kw: Boom())
        assert run_cli("simulate", "--out", str(tmp_path / "d.csv")) == 2

    def test_overflow_inside_a_step_exits_two(self, tmp_path, capsys):
        # this run's angle overflows inside the physics step; it used to
        # exit 1 with "math domain error", as if the flags were wrong
        out = tmp_path / "d.csv"
        assert run_cli("simulate", "--task", "precise-reach", "--morphology",
                       "lowpass-fast", "--c", "0.3", "--seed", "4",
                       "--out", str(out)) == 2
        assert "termination=diverged" in capsys.readouterr().out
        header, rows = read_csv(out)
        assert header == trajectory_header(2)
        assert rows[-1][1] == "nan"


class TestOptimize:
    def test_trace_and_best_outputs(self, tmp_path, capsys):
        out = tmp_path / "opt"
        assert run_cli("optimize", "--population", "4", "--generations", "2",
                       "--out", str(out)) == 0
        header, rows = read_csv(out / "trace.csv")
        assert len(rows) == 2
        assert int(rows[0][9]) == 4 and int(rows[1][9]) == 8
        _, best = read_csv(out / "best.csv")
        assert len(best) == round(0.9 / 0.005) + 1
        assert "best_cost=" in capsys.readouterr().out

    def test_best_cost_monotone(self, tmp_path):
        out = tmp_path / "opt"
        run_cli("optimize", "--population", "4", "--generations", "3",
                "--out", str(out))
        _, rows = read_csv(out / "trace.csv")
        costs = [float(r[8]) for r in rows]
        assert costs == sorted(costs, reverse=True) or \
            all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


    def test_ablation_is_named_in_trace_rows(self, tmp_path):
        out = tmp_path / "opt"
        assert run_cli("optimize", "--ablate", "fl", "--population", "4",
                       "--generations", "1", "--out", str(out)) == 0
        header, rows = read_csv(out / "trace.csv")
        col = header.index("morphology")
        assert [r[col] for r in rows] == ["muscle-nofl"]


class TestRunsAreSweepPoints:
    """`optimize` and `mpc` run the sweep's point runners: their trace rows
    are a sweep point's, but for the experiment column."""

    def test_optimize_is_a_sigma_sweep_point(self, tmp_path):
        assert run_cli("optimize", "--population", "4", "--generations", "2",
                       "--seed", "1", "--out", str(tmp_path / "cli")) == 0
        run_experiment(ExperimentConfig(
            kind="sigma_sweep", morphologies=["muscle"], sigma_grid=[0.2],
            c=0.3, seeds=[1], population=4, generations=2,
            out_dir=str(tmp_path / "sweep")))
        _, cli_rows = read_csv(tmp_path / "cli" / "trace.csv")
        _, rows = read_csv(tmp_path / "sweep" / "trace_muscle_c0.3_s0.2_seed1.csv")
        assert {r[0] for r in cli_rows} == {"optimize"}
        assert [r[1:] for r in cli_rows] == [r[1:] for r in rows]

    def test_mpc_is_a_robustness_point(self, tmp_path):
        assert run_cli("mpc", "--morphology", "torque", "--tpred", "0.02",
                       "--population", "4", "--warm-generations", "1",
                       "--refine-budget", "1",
                       "--out", str(tmp_path / "cli")) == 0
        run_experiment(ExperimentConfig(
            kind="robustness_weights", morphologies=["torque"], masses=[1.0],
            seeds=[0], population=4, warm_generations=1, refine_budget=1,
            tpred=0.02, out_dir=str(tmp_path / "sweep")))
        sweep = tmp_path / "sweep"
        _, cli_rows = read_csv(tmp_path / "cli" / "costs.csv")
        _, rows = read_csv(sweep / "robust_torque_m0.0_seed0_trace.csv")
        assert {r[0] for r in cli_rows} == {"mpc"}
        assert [r[1:] for r in cli_rows] == [r[1:] for r in rows]
        assert ((tmp_path / "cli" / "trajectory.csv").read_bytes()
                == (sweep / "robust_torque_m0.0_seed0.csv").read_bytes())


class TestMpc:
    def test_ablation_is_named_in_trace_rows(self, tmp_path):
        out = tmp_path / "mpc"
        assert run_cli("mpc", "--ablate", "fl", "--tpred", "0.02",
                       "--population", "4", "--warm-generations", "1",
                       "--refine-budget", "1", "--out", str(out)) == 0
        header, rows = read_csv(out / "costs.csv")
        col = header.index("morphology")
        assert {r[col] for r in rows} == {"muscle-nofl"}

    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "mpc"
        assert run_cli("mpc", "--tpred", "0.02", "--population", "4",
                       "--warm-generations", "1", "--refine-budget", "1",
                       "--out", str(out)) == 0
        _, traj = read_csv(out / "trajectory.csv")
        assert len(traj) == round(0.9 / 0.005) + 1
        _, costs = read_csv(out / "costs.csv")
        assert len(costs) == round(0.9 / 0.01)
        assert "evals=" in capsys.readouterr().out


    def test_costs_csv_counts_the_evaluations_spent(self, tmp_path, capsys,
                                                    monkeypatch):
        # a refinement cut short after one evaluation: the last row's evals
        # is what the run spent (and prints), not warm + k * budget
        import myoarm.control as control
        real = control.local_refine

        def one_eval(objective, x0, radius0, budget, lo=None, hi=None):
            return real(objective, x0, radius0, 1, lo=lo, hi=hi)

        monkeypatch.setattr(control, "local_refine", one_eval)
        out = tmp_path / "mpc"
        assert run_cli("mpc", "--tpred", "0.02", "--population", "4",
                       "--warm-generations", "1", "--refine-budget", "3",
                       "--out", str(out)) == 0
        header, rows = read_csv(out / "costs.csv")
        col = header.index("evals")
        n_ctrl = round(0.9 / 0.01)
        assert [int(r[col]) for r in rows] == [4 + k for k in range(n_ctrl)]
        assert f"evals={4 + n_ctrl - 1}" in capsys.readouterr().out


class TestExperimentAndSummarize:
    def test_experiment_then_summarize_matches_aggregate(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "results"
        assert run_cli("experiment", "--config", str(cfg),
                       "--out", str(out)) == 0
        assert "wrote" in capsys.readouterr().out
        traces = sorted(str(out / n) for n in os.listdir(out)
                        if n.startswith("trace_"))
        resum = tmp_path / "resummary.csv"
        assert run_cli("summarize", *traces, "--out", str(resum)) == 0
        with open(resum, "rb") as fh:
            got = fh.read()
        with open(out / "aggregate.csv", "rb") as fh:
            want = fh.read()
        assert got == want

    def test_summarize_unknown_schema(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert run_cli("summarize", str(bad),
                       "--out", str(tmp_path / "o.csv")) == 1


class TestCalibrateTorque:
    def test_peaks_match_recomputation(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        run_cli("simulate", "--out", str(traj))
        capsys.readouterr()
        out = tmp_path / "tau.csv"
        assert run_cli("calibrate-torque", str(traj),
                       "--out", str(out)) == 0
        printed = capsys.readouterr().out.split()
        header, rows = read_csv(traj)
        i1, i2 = header.index("tau1"), header.index("tau2")
        tau = np.array([[float(r[i1]), float(r[i2])] for r in rows])
        want = np.abs(tau).max(axis=0)
        assert float(printed[0]) == pytest.approx(want[0], abs=0)
        assert float(printed[1]) == pytest.approx(want[1], abs=0)
        _, out_rows = read_csv(out)
        assert [float(v) for v in out_rows[0]] == [want[0], want[1]]

    def test_missing_columns_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run_cli("calibrate-torque", str(bad)) == 1

    def test_a_diverged_trajectory_is_refused(self, tmp_path, capsys):
        # this run diverges inside a step, so its CSV ends in NaN torques;
        # calibrating from it used to print "nan nan" and exit 0
        traj = tmp_path / "d.csv"
        assert run_cli("simulate", "--task", "precise-reach", "--morphology",
                       "lowpass-fast", "--c", "0.3", "--seed", "4",
                       "--out", str(traj)) == 2
        capsys.readouterr()
        out = tmp_path / "tau.csv"
        assert run_cli("calibrate-torque", str(traj), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "nan" not in captured.out
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "myoarm.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "myoarm" in proc.stdout


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the sweep whose CSVs differed under one and two BLAS threads before
# myoarm fixed the count: CMA-ES at dim 360 parts at generation 3
BLAS_SWEEP = """
experiment.kind = data_efficiency
experiment.task = smooth-reach
experiment.morphologies = muscle, torque
experiment.seeds = 6,
grid.c = 0.01
optimizer.population = 36
optimizer.generations = 5
"""


def python_env(**blas):
    """This process's environment with no BLAS thread variable but `blas`,
    importing the same myoarm."""
    import myoarm
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    src = os.path.dirname(os.path.dirname(myoarm.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return {**env, **blas}


class TestBlasThreads:
    def test_sweep_csvs_do_not_depend_on_the_callers_blas_threads(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BLAS_SWEEP)
        settings = {"unset": {}, "one": {"OPENBLAS_NUM_THREADS": "1"},
                    "two": {"OPENBLAS_NUM_THREADS": "2"}}
        procs = {name: subprocess.Popen(
            [sys.executable, "-m", "myoarm.cli", "experiment", "--config",
             str(cfg), "--out", str(tmp_path / name), "--jobs", "1"],
            env=python_env(**blas), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True) for name, blas in settings.items()}
        errs = {}
        for name, proc in procs.items():
            errs[name] = proc.communicate(timeout=120)[1]
            assert proc.returncode == 0, errs[name]
        files = sorted(os.listdir(tmp_path / "unset"))
        assert "aggregate.csv" in files and "calibration.csv" in files
        for name in ("one", "two"):
            assert sorted(os.listdir(tmp_path / name)) == files
            for f in files:
                with open(tmp_path / "unset" / f, "rb") as a, \
                        open(tmp_path / name / f, "rb") as b:
                    assert a.read() == b.read(), (name, f)
        assert errs["two"].count("overriding {'OPENBLAS_NUM_THREADS': '2'}") == 1
        assert "Warning" not in errs["unset"] + errs["one"]

    def test_numpy_imported_first_is_reported(self):
        proc = subprocess.run([sys.executable, "-c", "import numpy, myoarm"],
                              env=python_env(), capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr.count("NumPy was imported before myoarm") == 1
