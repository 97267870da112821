"""Lockstep CMA-ES across runs (control.open_loop_lockstep) and the
several-plan rollout under it (control.rollout_plans).

A bundle of runs shares one controller and one rollout_plans call per
generation, and each of its runs must get, bit for bit, the trace, best
plan and best rollout that a bundle of one gives it: runs that differ in
c, sigma, seed or the task's goal, runs of a task that rollout_plans
scores row by row (_scalar_only), and runs in which some rows diverge.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import myoarm.control as control
from myoarm.actuators import make_controller
from myoarm.arm import ArmParams
from myoarm.control import (open_loop_lockstep, parameterization_for,
                            rollout_plans)
from myoarm.objectives import (PreciseReaching, SmoothReaching,
                               fast_reaching_task, make_task)
from myoarm.optimizers import CmaConfig


def cma(seed, sigma=0.2, population=6, generations=3):
    return CmaConfig(population=population, generations=generations,
                     sigma0=sigma, seed=seed)


def assert_same_rollout(got, want):
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype, name
            assert np.array_equal(other, value, equal_nan=True), name
        elif isinstance(value, float) and math.isnan(value):
            assert math.isnan(other), name
        else:
            assert other == value, name


def assert_each_run_as_alone(controller, runs):
    """Every run of the bundle returns what a bundle of one returns."""
    together = open_loop_lockstep(controller, runs)
    assert len(together) == len(runs)
    for run, (x, best, trace, par) in zip(runs, together):
        want_x, want_best, want_trace, want_par = open_loop_lockstep(
            controller, [run])[0]
        assert x.tolist() == want_x.tolist()
        assert trace.best_so_far == want_trace.best_so_far
        assert trace.evals == want_trace.evals
        assert par == want_par
        assert_same_rollout(best, want_best)
    return together


def recorded_plans(monkeypatch):
    """Wrap control.rollout_plans; returns the list of (rows per plan,
    costs per plan) of every call."""
    real, calls = control.rollout_plans, []

    def recording(controller, plans, perturbation=None):
        costs = real(controller, plans, perturbation)
        calls.append(([np.shape(thetas)[0] for _, thetas, _ in plans], costs))
        return costs

    monkeypatch.setattr(control, "rollout_plans", recording)
    return calls


@pytest.mark.parametrize("family", ["muscle", "torque"])
def test_mixed_c(family, monkeypatch):
    task = SmoothReaching(duration=0.3)
    runs = [(task, 0.05, cma(0)), (task, 0.1, cma(1)), (task, 0.05, cma(2))]
    calls = recorded_plans(monkeypatch)
    together = assert_each_run_as_alone(make_controller(family), runs)
    # one call per generation scores the whole bundle, whose plans have
    # different dimensions
    assert [rows for rows, _ in calls[:3]] == [[6, 6, 6]] * 3
    assert len({par.dim for _, _, _, par in together}) == 2


def test_mixed_sigma():
    task = SmoothReaching(duration=0.3)
    runs = [(task, 0.05, cma(3, sigma=s)) for s in (0.05, 0.2, 0.4)]
    together = assert_each_run_as_alone(make_controller("muscle"), runs)
    assert len({tuple(t.best_so_far) for _, _, t, _ in together}) == 3


def test_precise_reach_goals_of_different_seeds():
    tasks = [PreciseReaching(seed=seed, duration=0.3) for seed in (1, 2)]
    assert tasks[0].target.goal_xz != tasks[1].target.goal_xz
    runs = [(task, c, cma(seed)) for task, c, seed
            in zip(tasks, (0.05, 0.1), (1, 2))]
    assert_each_run_as_alone(make_controller("muscle"), runs)


def test_a_scalar_only_bundle(monkeypatch):
    # fast-reach ends at its goal, so rollout_plans scores it row by row
    tasks = [fast_reaching_task(seed=seed, duration=0.3) for seed in (0, 3)]
    assert control._scalar_only(tasks[0], None)
    calls = recorded_plans(monkeypatch)
    runs = [(task, 0.05, cma(seed, population=4, generations=2))
            for task, seed in zip(tasks, (0, 3))]
    assert_each_run_as_alone(make_controller("torque"), runs)
    assert [rows for rows, _ in calls[:2]] == [[4, 4]] * 2


def test_a_bundle_in_which_rows_diverge(monkeypatch):
    # 1e3 N m ceilings: some candidates overflow the state within 0.3 s,
    # and the others score finite costs beside them (some above 1e9)
    task = SmoothReaching(duration=0.3)
    controller = make_controller("torque", tau_max=(1e3, 1e3))
    calls = recorded_plans(monkeypatch)
    runs = [(task, 0.05, cma(0, population=8)), (task, 0.1, cma(2, population=8))]
    assert_each_run_as_alone(controller, runs)
    costs = np.concatenate([np.concatenate(c) for _, c in calls[:3]])
    assert (costs == math.inf).any() and (costs > 1e9).any()
    assert np.isfinite(costs).any()


def test_a_diverged_candidate_loses_to_any_finite_one():
    # a forearm of almost no mass: generation 0 of seed 0 has five diverged
    # candidates and three finite ones, each above 1e19, and the trace's
    # first best is the cheapest finite one
    task = make_task("smooth-reach", seed=0,
                     params=ArmParams(m2=1e-6, i2=1e-9, m_hand=0.0))
    controller = make_controller("torque")
    par = parameterization_for(task, controller, 0.3)
    es = control.CmaEs(control._box_center(par), cma(0, population=8))
    costs = rollout_plans(controller, [(task, es.ask(), par)])[0]
    assert (costs == math.inf).sum() == 5
    finite = costs[np.isfinite(costs)]
    assert finite.size == 3 and (finite > 1e9).all()
    [(_, best, trace, _)] = open_loop_lockstep(
        controller, [(task, 0.3, cma(0, population=8))])
    assert trace.best_so_far[0] == finite.min()
    assert not best.diverged and best.cost == trace.best_so_far[-1]


def test_each_plan_scores_as_it_does_alone():
    # a diverging row in one plan leaves the other plan's rows alone, and
    # every plan gets the costs it gets scored alone
    task = SmoothReaching(duration=0.3)
    controller = make_controller("torque", tau_max=(1e200, 1e200))
    coarse = parameterization_for(task, controller, 0.1)
    fine = parameterization_for(task, controller, 0.05)
    calm = np.zeros((2, coarse.dim))
    calm[1, 0] = 1e-200
    wild = np.concatenate([calm[:1], np.ones((1, coarse.dim)), calm[1:]])
    quiet = np.full((3, fine.dim), 1e-201)
    plans = [(task, wild, coarse), (task, quiet, fine), (task, calm, coarse)]
    got = rollout_plans(controller, plans)
    assert got[0][1] == math.inf
    for (t, thetas, par), costs in zip(plans, got):
        assert costs.tolist() == rollout_plans(
            controller, [(t, thetas, par)])[0].tolist()


def test_plans_must_share_length_arm_and_start():
    controller = make_controller("torque")
    short, long = SmoothReaching(duration=0.3), SmoothReaching(duration=0.6)
    heavy = SmoothReaching(duration=0.3, params=replace(ArmParams(), m2=2.0))
    for other in (long, heavy):
        par = parameterization_for(other, controller, 0.1)
        with pytest.raises(ValueError, match="must share"):
            rollout_plans(controller, [
                (short, np.zeros((2, 6)), parameterization_for(short, controller, 0.1)),
                (other, np.zeros((2, par.dim)), par)])
    with pytest.raises(ValueError, match="same number of generations"):
        open_loop_lockstep(controller, [(short, 0.1, cma(0)),
                                        (short, 0.1, cma(1, generations=4))])



def test_an_empty_plan_list_is_refused_by_name():
    with pytest.raises(ValueError, match="plans is an empty list"):
        rollout_plans(make_controller("torque"), [])


def test_an_empty_run_list_is_refused_by_name():
    with pytest.raises(ValueError, match="runs is an empty list"):
        open_loop_lockstep(make_controller("muscle"), [])
