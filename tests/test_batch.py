"""The lockstep population rollout against the scalar reference.

rollout_plans must give every row of a population the cost that `rollout`
gives it on its own; most cases here score one plan (batch_costs). The array step uses np.cos/np.sin where the scalar
step uses math.cos/math.sin; every other operation is the same IEEE
arithmetic in the same order. So the costs are compared with `==` when a
probe finds np.cos/np.sin equal to math's on a fixed sample set, and with
rtol = 1e-9 otherwise; TRIG_EXACT says which (the pytest header prints it,
see conftest.py).
"""

import logging
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myoarm import control
from myoarm.actuators import AblationFlags, make_controller
from myoarm.arm import Perturbation
from myoarm.control import (DT_SIM, ControlParameterization,
                            open_loop_lockstep, parameterization_for, rollout,
                            rollout_plans)
from myoarm.objectives import (BallServe, PreciseReaching, ReachTarget,
                               SmoothReaching)
from myoarm.optimizers import CmaConfig, cma_es

_PROBE = np.random.default_rng(20220708).uniform(-20.0, 20.0, 4096)
TRIG_EXACT = (np.array_equal(np.cos(_PROBE), [math.cos(v) for v in _PROBE.tolist()])
              and np.array_equal(np.sin(_PROBE), [math.sin(v) for v in _PROBE.tolist()]))
COMPARISON = ("exact (np.cos/np.sin equal math.cos/math.sin on the probe set)"
              if TRIG_EXACT else "rtol=1e-9 (np.cos/np.sin differ from math on the probe set)")

ROLLOUTS = settings(max_examples=40, deadline=None, database=None)
FAMILIES = ("muscle", "torque", "pd", "lowpass-fast", "lowpass-slow")


def assert_costs_match(batch, scalar):
    batch = np.asarray(batch)
    scalar = np.asarray(scalar, dtype=float)
    assert batch.shape == scalar.shape
    if TRIG_EXACT:
        assert batch.tolist() == scalar.tolist(), COMPARISON
    else:
        np.testing.assert_allclose(batch, scalar, rtol=1e-9, atol=0.0,
                                   err_msg=COMPARISON)


def batch_costs(task, ctrl, thetas, par, perturbation=None):
    """The costs of one population: rollout_plans with one plan."""
    return rollout_plans(ctrl, [(task, thetas, par)], perturbation)[0]


def scalar_costs(task, ctrl, thetas, par, **kw):
    """The reference: one scalar rollout per row."""
    return [rollout(task, ctrl, theta, par, **kw).cost
            for theta in thetas]


def population(seed, rows, par, spill=0.3):
    """Rows drawn past the control box on both sides, so the clip is exercised."""
    span = par.hi - par.lo
    rng = np.random.default_rng(seed)
    return rng.uniform(par.lo - spill * span, par.hi + spill * span,
                       (rows, par.dim))


def make_family(family, flags):
    if family == "muscle":
        return make_controller("muscle", flags=AblationFlags(*flags))
    return make_controller(family)


@ROLLOUTS
@given(family=st.sampled_from(FAMILIES),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       task_kind=st.sampled_from(("smooth", "precise")),
       c=st.sampled_from((0.02, 0.05, 0.1)),
       pert=st.sampled_from((None, "lower_arm_mass", "hand_mass")),
       mass=st.floats(0.0, 3.0),
       window=st.booleans(),
       rows=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_each_row_costs_what_the_scalar_rollout_gives_it(
        family, flags, task_kind, c, pert, mass, window, rows, seed):
    if task_kind == "smooth":
        task = SmoothReaching(duration=0.3)
    else:   # precise reach scores the controls too
        task = PreciseReaching(duration=0.3, target=ReachTarget(goal_xz=(0.3, 0.2)))
    ctrl = make_family(family, flags)
    kw = {}
    if pert is not None:
        kw["perturbation"] = Perturbation(kind=pert, mass=mass)
    if window:  # an MPC prediction window, scored by window_cost
        par = ControlParameterization(horizon=0.1, resolution=c,
                                      n_actuators=ctrl.n_controls,
                                      lo=ctrl.lo, hi=ctrl.hi)
    else:
        par = parameterization_for(task, ctrl, c)
    thetas = population(seed, rows, par)
    assert_costs_match(batch_costs(task, ctrl, thetas, par, **kw),
                       scalar_costs(task, ctrl, thetas, par, **kw))


@settings(max_examples=10, deadline=None, database=None)
@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2 ** 32 - 1))
def test_row_order_and_batch_size_do_not_change_a_rows_cost(family, seed):
    task = SmoothReaching(duration=0.3)
    ctrl = make_controller(family)
    par = parameterization_for(task, ctrl, 0.05)
    thetas = population(seed, 36, par)
    costs = batch_costs(task, ctrl, thetas, par)
    perm = np.random.default_rng(seed).permutation(36)
    assert_costs_match(batch_costs(task, ctrl, thetas[perm], par), costs[perm])
    i = int(perm[0])
    assert_costs_match(batch_costs(task, ctrl, thetas[i:i + 1], par), costs[i:i + 1])


@ROLLOUTS
@given(family=st.sampled_from(FAMILIES), m=st.integers(1, 6),
       extra=st.integers(0, 20), steps=st.integers(1, 40),
       rows=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_zoh_segments_align_with_the_physics_steps(family, m, extra, steps,
                                                   rows, seed):
    # resolution m*dt; a plan horizon of m + extra steps, a whole number of
    # segments or not; the rollout lasts the plan, whatever the task's own
    # length of `steps` steps
    ctrl = make_controller(family)
    horizon = m + extra
    par = ControlParameterization(horizon=horizon * DT_SIM, resolution=m * DT_SIM,
                                  n_actuators=ctrl.n_controls,
                                  lo=ctrl.lo, hi=ctrl.hi)
    n_seg = -(-horizon // m)
    assert par.n_segments == n_seg
    task = SmoothReaching(duration=steps * DT_SIM)
    thetas = population(seed, rows, par)
    table = np.clip(thetas.reshape(rows, n_seg, ctrl.n_controls),
                    ctrl.lo, ctrl.hi)
    for theta, plan in zip(thetas, table):
        res = rollout(task, ctrl, theta, par)
        assert res.steps == par.n_steps == horizon
        want = plan[[k // m for k in range(horizon)]]
        assert np.array_equal(res.controls, want)
    assert_costs_match(batch_costs(task, ctrl, thetas, par),
                       scalar_costs(task, ctrl, thetas, par))


def trajectories(th, dth, ddth, controls):
    """A trajectory, or a population of them, as the task costs read it."""
    return SimpleNamespace(th=th, dth=dth, ddth=ddth, controls=controls)


@settings(max_examples=60, deadline=None, database=None)
@given(task_kind=st.sampled_from(("smooth", "precise")),
       rows=st.integers(1, 50),
       samples=st.sampled_from((2, 7, 8, 9, 16, 128, 129, 181, 400)),
       magnitude=st.sampled_from((1e-3, 1e-1, 1.0, 1e1, 1e3)),
       window=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_population_costs_what_each_row_costs_alone(
        task_kind, rows, samples, magnitude, window, seed):
    # sample counts on both sides of NumPy's pairwise-sum blocks (8 and
    # 128): each row's stages are summed as one trajectory's are. Each
    # row alone is laid out as rollout records it, columns of one array.
    duration = (samples - 1) * DT_SIM
    if task_kind == "smooth":
        task = SmoothReaching(duration=duration)
    else:
        task = PreciseReaching(duration=duration,
                               target=ReachTarget(goal_xz=(0.3, 0.2)))
    rng = np.random.default_rng(seed)
    th, dth, ddth = magnitude * rng.standard_normal((3, rows, samples, 2))
    controls = rng.uniform(0.0, 1.0, (rows, samples - 1, 4))
    score = task.window_cost if window else task.cost
    together = score(trajectories(th, dth, ddth, controls))
    assert isinstance(together, np.ndarray) and together.shape == (rows,)
    alone = []
    for i in range(rows):
        rec = np.empty((samples, 8))
        rec[:, 0:2], rec[:, 2:4], rec[:, 6:8] = th[i], dth[i], ddth[i]
        cost = score(trajectories(rec[:, 0:2], rec[:, 2:4], rec[:, 6:8],
                                  controls[i]))
        assert type(cost) is float
        alone.append(cost)
    assert together.tolist() == alone


def test_a_diverging_row_scores_inf_and_leaves_the_others_alone(
        monkeypatch):
    task = SmoothReaching(duration=0.3)
    ctrl = make_controller("torque", tau_max=(1e200, 1e200))
    par = parameterization_for(task, ctrl, 0.1)
    calm = np.zeros((2, par.dim))
    wild = np.ones((1, par.dim))               # 1e200 N m overflows the state
    thetas = np.concatenate([calm[:1], wild, calm[1:]])
    thetas[2, 0] = 1e-200                      # a calm row of its own
    assert rollout(task, ctrl, wild[0], par).diverged
    # the population is scored by one cost call, on its finite rows only
    real, scored = SmoothReaching.cost, []

    def counted(self, traj):
        scored.append(traj.th.shape)
        return real(self, traj)

    monkeypatch.setattr(SmoothReaching, "cost", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")         # the overflow stays inside
        costs = batch_costs(task, ctrl, thetas, par)
        assert batch_costs(task, ctrl, wild, par).tolist() == [math.inf]
    assert scored == [(2, par.n_steps + 1, 2)]
    assert costs[1] == math.inf
    kept = batch_costs(task, ctrl, thetas[[0, 2]], par)
    assert costs[[0, 2]].tolist() == kept.tolist()
    assert_costs_match(costs, scalar_costs(task, ctrl, thetas, par))


@pytest.mark.parametrize("family", ["muscle", "torque"])
def test_back_to_back_calls_give_every_row_its_cost_alone(family):
    # rollout_plans makes its sample record and its step buffers anew in
    # every call, and a row's numbers must not depend on what an earlier
    # call or the rows beside it left in memory. The row counts put a row
    # of the step (8 bytes a row: 576 bytes at 72, 1152 at 144) and a
    # (4, rows) muscle buffer on both sides of NumPy's 1 KB small-allocation
    # cache, so a buffer that a call read before writing it would show.
    # Under 1e200 N m ceilings every torque row holds commands near 1e-199,
    # and its middle row is calm for half the episode and then overflows.
    task = SmoothReaching(duration=0.3)
    torque = family == "torque"
    ctrl = (make_controller(family, tau_max=(1e200, 1e200)) if torque
            else make_controller(family))
    par = parameterization_for(task, ctrl, 0.05)
    wild = np.zeros(par.dim)
    wild[par.dim // 2:] = 1.0
    if torque:
        res = rollout(task, ctrl, wild, par)
        assert res.diverged and par.n_steps // 2 < res.steps < par.n_steps
    rng = np.random.default_rng(25)
    calls = []
    for rows in (4, 36, 72, 144, 36, 4):
        thetas = rng.uniform(par.lo, par.hi, (rows, par.dim))
        if torque:
            thetas *= 1e-199
            thetas[rows // 2] = wild
        calls.append((thetas, rollout_plans(ctrl, [(task, thetas, par)])[0]))
    for thetas, costs in calls:
        alone = [rollout_plans(ctrl, [(task, theta[None], par)])[0][0]
                 for theta in thetas]
        assert costs.tolist() == alone
        assert (costs[len(thetas) // 2] == math.inf) == torque
        assert (costs < math.inf).sum() == len(thetas) - torque


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_decision_vector_is_rejected(bad):
    task = SmoothReaching(duration=0.3)
    ctrl = make_controller("muscle")
    par = parameterization_for(task, ctrl, 0.1)
    thetas = np.full((3, par.dim), 0.5)
    thetas[2, 5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        batch_costs(task, ctrl, thetas, par)


def test_the_population_shape_is_checked():
    task = SmoothReaching(duration=0.3)
    ctrl = make_controller("torque")
    par = parameterization_for(task, ctrl, 0.1)
    for shape in ((par.dim,), (2, par.dim + 1), (2, 1, par.dim)):
        with pytest.raises(ValueError, match="shape"):
            batch_costs(task, ctrl, np.zeros(shape), par)


FALLBACKS = {
    "ball": (lambda: BallServe(duration=0.3), "muscle", None),
    "goal": (lambda: PreciseReaching(duration=0.3, terminal_threshold=0.1,
                                     target=ReachTarget(goal_xz=(0.15, -0.5))),
             "torque", None),
    "pendulum": (lambda: SmoothReaching(duration=0.3), "lowpass-fast",
                 Perturbation(kind="chaotic_pendulum")),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_cases_without_an_array_form_run_the_scalar_rollout(case, monkeypatch):
    make_task, family, pert = FALLBACKS[case]
    task = make_task()
    ctrl = make_controller(family)
    par = parameterization_for(task, ctrl, 0.05)
    thetas = population(7, 5, par)
    expected = scalar_costs(task, ctrl, thetas, par, perturbation=pert)
    costs = batch_costs(task, ctrl, thetas, par, perturbation=pert)
    assert costs.tolist() == expected   # the same code path, so always exact
    # next to a plan that has an array form, the call still runs every row
    # of both plans through the scalar rollout
    smooth = SmoothReaching(duration=0.3)
    coarse = parameterization_for(smooth, ctrl, 0.1)
    others = population(8, 3, coarse)
    want = scalar_costs(smooth, ctrl, others, coarse, perturbation=pert)
    real, rolled = control.rollout, []

    def counted(*args, **kwargs):
        rolled.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(control, "rollout", counted)
    got = rollout_plans(ctrl, [(task, thetas, par), (smooth, others, coarse)],
                        pert)
    assert [c.tolist() for c in got] == [expected, want]
    assert rolled == [task] * 5 + [smooth] * 3


CLIP_CASES = {
    "muscle": lambda: make_controller("muscle"),
    "muscle-noactdyn": lambda: make_controller("muscle-noactdyn"),
    "torque": lambda: make_controller("torque"),
    "pd": lambda: make_controller("pd"),
    "lowpass-fast": lambda: make_controller("lowpass-fast"),
}


@pytest.mark.parametrize("case", sorted(CLIP_CASES))
@pytest.mark.parametrize("task", [
    SmoothReaching(duration=0.3),
    PreciseReaching(duration=0.3, target=ReachTarget(goal_xz=(0.3, 0.2)))],
    ids=["smooth", "precise"])
def test_the_decode_is_the_only_clip(case, task, caplog):
    # controllers take the decoded row as it is: a plan drawn past the box
    # scores, bit for bit, what the plan clipped to the box scores, on both
    # paths, and nothing is clamped a second time or logged
    ctrl = CLIP_CASES[case]()
    par = parameterization_for(task, ctrl, 0.05)
    thetas = population(11, 5, par, spill=1.0)
    assert (thetas < par.lo).any() and (thetas > par.hi).any()
    clipped = np.clip(thetas, par.lo, par.hi)
    with caplog.at_level(logging.DEBUG):
        for theta, inside in zip(thetas, clipped):
            got = rollout(task, ctrl, theta, par)
            want = rollout(task, ctrl, inside, par)
            assert got.cost == want.cost
            assert np.array_equal(got.th, want.th)
            assert got.controller_state == want.controller_state
        assert (batch_costs(task, ctrl, thetas, par).tolist()
                == batch_costs(task, ctrl, clipped, par).tolist())
    assert caplog.records == []


@pytest.mark.parametrize("family", ["muscle", "torque"])
def test_open_loop_optimization_follows_the_scalar_objective(family):
    """A CMA-ES run scored by rollout_plans takes the same path as one
    scored row by row by the scalar rollout."""
    task = SmoothReaching(duration=0.3)
    cfg = CmaConfig(population=8, generations=3, sigma0=0.2, seed=4)
    ctrl = make_controller(family)
    best_x, best, trace, par = open_loop_lockstep(ctrl, [(task, 0.05, cfg)])[0]
    ref_x, ref_f, ref_trace = cma_es(
        lambda x: np.array(scalar_costs(task, ctrl, x, par)),
        np.full(par.dim, 0.5 * (ctrl.lo + ctrl.hi)), cfg)
    if TRIG_EXACT:
        assert np.array_equal(best_x, ref_x)
        assert trace.best_so_far == ref_trace.best_so_far
        assert best.cost == ref_f
    else:
        np.testing.assert_allclose(trace.best_so_far, ref_trace.best_so_far,
                                   rtol=1e-9)
