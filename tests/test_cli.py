"""Command-line interface: exit codes, file outputs, and flag handling."""

import os
import subprocess
import sys

import numpy as np
import pytest

from myoarm.cli import main
from myoarm.harness import read_csv, trajectory_header

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
            cost = 1e32
            diverged = True
            termination = "diverged"

        monkeypatch.setattr(cli, "rollout",
                            lambda *a, **kw: Boom())
        assert run_cli("simulate", "--out", str(tmp_path / "d.csv")) == 2


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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "myoarm.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "myoarm" in proc.stdout
