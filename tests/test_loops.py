"""Tests for rollouts, open-loop optimization, and the receding-horizon loop."""

import math

import numpy as np
import pytest

from myoarm.actuators import MuscleController, TorqueController, make_controller
from myoarm.arm import ArmParams, ArmState, Perturbation, step
from myoarm.control import (DT_SIM, MpcConfig, SENTINEL_COST,
                            calibrate_torque_limits, constant_control,
                            mpc_run, open_loop_optimize, parameterization_for,
                            rollout, zoh_control)
from myoarm.objectives import (ObjectiveWeights, PreciseReaching, ReachTarget,
                               SmoothReaching, make_task)
from myoarm.optimizers import CmaConfig

PARAMS = ArmParams()


def smooth_cost_reference(traj, weights, target):
    """Independent recomputation of the smooth-reaching cost from a trajectory."""
    ddth = np.asarray(traj.ddth)
    jerk = np.zeros_like(ddth)
    if ddth.shape[0] >= 2:
        jerk[1:-1] = (ddth[2:] - ddth[:-2]) / 2.0
        jerk[0] = ddth[1] - ddth[0]
        jerk[-1] = ddth[-1] - ddth[-2]
    e_th = np.asarray(traj.th) - target.th_des
    e_dth = np.asarray(traj.dth) - target.dth_des
    stage = ((np.asarray(weights.w_th) / weights.s_th) * e_th ** 2
             + (np.asarray(weights.w_dth) / weights.s_dth) * e_dth ** 2
             + (weights.jerk_gain * jerk) ** 2).sum(axis=1)
    return float(stage.sum())


class TestRollout:
    def test_zero_control_torque_stays_at_equilibrium(self):
        task = SmoothReaching()
        res = rollout(task, TorqueController(), constant_control([0.0, 0.0]))
        # cos(-pi/2) is one ulp away from zero, so the rest pose drifts by
        # rounding noise only
        assert np.abs(res.th[:, 0] + 0.5 * math.pi).max() < 1e-12
        assert np.abs(res.th[:, 1]).max() < 1e-12
        assert np.abs(res.dth).max() < 1e-12
        # at rest off target the cost is the pure angle-error term, paid once
        # per sample over the whole horizon
        w, tgt = task.weights, task.target
        e1 = -0.5 * math.pi - tgt.th_des[0]
        e2 = 0.0 - tgt.th_des[1]
        stage = (w.w_th[0] / w.s_th[0]) * e1 ** 2 + (w.w_th[1] / w.s_th[1]) * e2 ** 2
        assert abs(res.cost - res.th.shape[0] * stage) < 1e-9

    def test_silent_muscles_within_passive_slack(self):
        # start both joints inside the band where neither fiber is stretched
        # past its rest length, so zero excitation produces zero torque
        task = SmoothReaching(duration=0.1)
        ctrl = MuscleController()
        res = rollout(task, ctrl, constant_control([0.0, 0.0, 0.0, 0.0]),
                      initial_state=ArmState(th1=0.0, th2=0.0))
        for mp, col in ((ctrl.shoulder, 0), (ctrl.elbow, 1)):
            l_a = mp.m1 * res.th[:, col] + mp.l_ref1
            l_b = mp.m2 * res.th[:, col] + mp.l_ref2
            assert l_a.max() <= 1.0 and l_b.max() <= 1.0
        assert np.all(res.torques == 0.0)
        assert np.all(res.activities == 0.0)
        # the arm itself falls; only the actuation is silent
        assert res.th[-1, 0] < -0.05

    def test_cost_matches_independent_recomputation(self):
        task = SmoothReaching()
        rng = np.random.default_rng(4)
        par = parameterization_for(task, TorqueController(), 0.15)
        theta = rng.uniform(-1.0, 1.0, par.dim)
        res = rollout(task, TorqueController(), zoh_control(theta, par, DT_SIM))
        assert abs(res.cost - smooth_cost_reference(res, task.weights,
                                                    task.target)) < 1e-12

    def test_muscle_cost_matches_recomputation(self):
        task = SmoothReaching()
        ctrl = MuscleController()
        par = parameterization_for(task, ctrl, 0.3)
        theta = np.random.default_rng(8).uniform(0.0, 1.0, par.dim)
        res = rollout(task, ctrl, zoh_control(theta, par, DT_SIM))
        assert abs(res.cost - smooth_cost_reference(res, task.weights,
                                                    task.target)) < 1e-12

    def test_ball_cost_matches_scan(self):
        task = make_task("ball-serve")
        ctrl = MuscleController()
        par = parameterization_for(task, ctrl, 0.3)
        theta = np.random.default_rng(12).uniform(0.0, 1.0, par.dim)
        res = rollout(task, ctrl, zoh_control(theta, par, DT_SIM))
        assert res.ball is not None
        assert res.cost == -float(res.ball[:, 3].max())

    def test_shapes_and_time_grid(self):
        task = SmoothReaching()
        ctrl = MuscleController()
        res = rollout(task, ctrl, constant_control([0.3, 0.1, 0.4, 0.2]))
        n = round(task.duration / DT_SIM)
        assert res.steps == n
        assert res.th.shape == (n + 1, 2)
        assert res.dth.shape == (n + 1, 2)
        assert res.ddth.shape == (n + 1, 2)
        assert res.controls.shape == (n, 4)
        assert res.torques.shape == (n, 2)
        assert res.activities.shape == (n, 4)
        assert np.allclose(np.diff(res.t), DT_SIM)
        assert res.termination == "horizon"

    def test_matches_single_step_api(self):
        # the rollout loop and the public step() must walk the same trajectory
        # bit for bit, including actuator state and the swinging-load coupling
        task = SmoothReaching(duration=0.4)
        pert = Perturbation(kind="chaotic_pendulum", mass=1.0,
                            cable_length=0.25)
        for morph in ("torque", "muscle"):
            roll_ctrl = make_controller(morph)
            par = parameterization_for(task, roll_ctrl, 0.1)
            theta = np.random.default_rng(31).uniform(
                roll_ctrl.lo, roll_ctrl.hi, par.dim)
            fn = zoh_control(theta, par, DT_SIM)
            res = rollout(task, roll_ctrl, fn, perturbation=pert)

            ctrl = make_controller(morph)
            ctrl.reset()
            state = task.initial_state()
            for k in range(res.steps):
                u = fn(k, state.t)
                tau = ctrl.torques(state.th1, state.th2, state.dth1,
                                   state.dth2, u, DT_SIM)
                assert tau[0] == res.torques[k, 0]
                assert tau[1] == res.torques[k, 1]
                state = step(state, tau, DT_SIM, PARAMS, pert)
                assert state.th1 == res.th[k + 1, 0]
                assert state.th2 == res.th[k + 1, 1]
                assert state.dth1 == res.dth[k + 1, 0]
                assert state.dth2 == res.dth[k + 1, 1]
                assert state.pend_angle == res.pend[k + 1, 0]
                assert state.pend_vel == res.pend[k + 1, 1]

    def test_divergence_marked_with_sentinel(self):
        task = SmoothReaching()
        wild = ArmState(th1=0.0, th2=0.5, dth1=1e200, dth2=-1e200)
        res = rollout(task, TorqueController(), constant_control([0.0, 0.0]),
                      initial_state=wild)
        assert res.diverged
        assert res.termination == "diverged"
        assert res.cost == SENTINEL_COST
        assert res.steps < round(task.duration / DT_SIM)

    def test_goal_termination(self):
        # goal sits on the initial hand position, so the episode ends at once
        task = PreciseReaching(target=ReachTarget(goal_xz=(0.0, -0.6)),
                               terminal_threshold=0.05, duration=1.0)
        res = rollout(task, TorqueController(), constant_control([0.0, 0.0]))
        assert res.termination == "goal"
        assert res.steps == 1
        assert math.isfinite(res.cost)

    def test_perturbation_visibility_never_touches_plant(self):
        task = SmoothReaching()
        ctrl = TorqueController()
        fn = constant_control([0.4, -0.2])
        seen = Perturbation(kind="lower_arm_mass", mass=1.0,
                            visible_to_prediction=True)
        unseen = Perturbation(kind="lower_arm_mass", mass=1.0,
                              visible_to_prediction=False)
        a = rollout(task, ctrl, fn, perturbation=seen)
        b = rollout(task, ctrl, fn, perturbation=unseen)
        assert np.array_equal(a.th, b.th)
        assert np.array_equal(a.dth, b.dth)

    def test_bad_decision_vector_rejected(self):
        task = SmoothReaching()
        par = parameterization_for(task, TorqueController(), 0.3)
        with pytest.raises(ValueError):
            zoh_control(np.zeros(par.dim + 1), par, DT_SIM)

    def test_non_finite_decision_vector_rejected(self):
        # NaN used to read as full activation in the muscle controller and
        # as a NaN torque, hence a diverged run, in the torque family
        task = SmoothReaching()
        for ctrl in (MuscleController(), TorqueController()):
            par = parameterization_for(task, ctrl, 0.3)
            for bad in (math.nan, math.inf, -math.inf):
                theta = np.full(par.dim, 0.5)
                theta[1] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    zoh_control(theta, par, DT_SIM)

    def test_resolution_must_align_with_dt(self):
        task = SmoothReaching()
        par = parameterization_for(task, TorqueController(), 0.3)
        with pytest.raises(ValueError):
            zoh_control(np.zeros(par.dim), par, 0.007)


class TestOpenLoop:
    def test_dimensions_per_morphology(self):
        task = SmoothReaching()
        assert parameterization_for(task, MuscleController(), 0.05).dim == 72
        assert parameterization_for(task, TorqueController(), 0.05).dim == 36

    def test_optimization_improves_on_first_generation(self):
        task = SmoothReaching()
        cfg = CmaConfig(population=12, generations=15, sigma0=0.2, seed=0)
        best_x, best, trace, par = open_loop_optimize(task, "torque", 0.3, cfg)
        assert trace.best_so_far[-1] < trace.gen_best[0]
        assert best.cost == trace.best_so_far[-1]
        assert best_x.size == par.dim

    def test_budget_parity_across_morphologies(self):
        task = SmoothReaching()
        evals = {}
        for morph in ("muscle", "torque"):
            cfg = CmaConfig(population=8, generations=5, sigma0=0.2, seed=0)
            _, _, trace, _ = open_loop_optimize(task, morph, 0.3, cfg)
            evals[morph] = trace.total_evals
        assert evals["muscle"] == evals["torque"] == 40

    def test_deterministic_given_seed(self):
        task = SmoothReaching()
        runs = []
        for _ in range(2):
            cfg = CmaConfig(population=8, generations=6, sigma0=0.2, seed=3)
            best_x, best, trace, _ = open_loop_optimize(task, "muscle", 0.3, cfg)
            runs.append((best_x, best.cost, tuple(trace.best_so_far)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]


def tiny_mpc(seed=0, **kw):
    defaults = dict(t_pred=0.2, resolution=0.05, warm_population=8,
                    warm_generations=5, warm_sigma0=0.2, refine_budget=10,
                    refine_radius=0.1, seed=seed)
    defaults.update(kw)
    return MpcConfig(**defaults)


class TestMpc:
    def test_first_control_applied_bitwise(self):
        task = SmoothReaching()
        res = mpc_run(task, "torque", tiny_mpc())
        assert not res.diverged
        n_ctrl = round(task.duration / 0.05)
        spc = round(0.05 / DT_SIM)
        assert res.plans.shape[0] == n_ctrl
        assert np.array_equal(res.plans[0], res.first_plan)
        for k in range(n_ctrl):
            u0 = np.clip(res.plans[k][:2], -1.0, 1.0)
            for j in range(spc):
                assert np.array_equal(res.executed.controls[k * spc + j], u0)

    def test_shifted_plan_never_made_worse(self):
        task = SmoothReaching()
        res = mpc_run(task, "torque", tiny_mpc(seed=1))
        assert res.shift_costs.size == res.plan_costs.size > 0
        assert np.all(res.plan_costs <= res.shift_costs + 1e-15)

    def test_executed_trajectory_consistent(self):
        task = SmoothReaching()
        res = mpc_run(task, "torque", tiny_mpc(seed=2))
        n = round(task.duration / DT_SIM)
        assert res.executed.th.shape == (n + 1, 2)
        assert np.allclose(np.diff(res.executed.t), DT_SIM)
        assert res.cost == res.executed.cost
        assert math.isfinite(res.cost)
        assert res.step_costs.size == round(task.duration / 0.05)

    def test_not_worse_than_open_loop_at_equal_budget(self):
        # re-planning from the true state should pay off against a one-shot
        # plan given the same number of rollout evaluations
        task = SmoothReaching()
        wins = 0
        for seed in range(3):
            cfg = MpcConfig(t_pred=0.3, resolution=0.05, warm_population=36,
                            warm_generations=20, refine_budget=50, seed=seed)
            res = mpc_run(task, "torque", cfg)
            ol = open_loop_optimize(
                task, "torque", 0.05,
                CmaConfig(population=36, generations=res.evals // 36,
                          sigma0=0.2, seed=seed))
            wins += res.cost <= ol[1].cost
        assert wins >= 2

    def test_deterministic(self):
        task = SmoothReaching()
        a = mpc_run(task, "muscle", tiny_mpc(seed=5))
        b = mpc_run(task, "muscle", tiny_mpc(seed=5))
        assert np.array_equal(a.executed.th, b.executed.th)
        assert np.array_equal(a.plans, b.plans)
        assert a.cost == b.cost
        assert a.evals == b.evals

    def test_evaluation_accounting(self):
        task = SmoothReaching()
        cfg = tiny_mpc(seed=6)
        res = mpc_run(task, "torque", cfg)
        n_ctrl = round(task.duration / cfg.resolution)
        expect = (cfg.warm_population * cfg.warm_generations
                  + (n_ctrl - 1) * cfg.refine_budget)
        assert res.evals == expect

    def test_evals_count_what_refinement_spent(self, monkeypatch):
        # a refinement that stops short of its budget is charged the
        # evaluations it made, not the budget
        import myoarm.control as control
        real = control.local_refine

        def one_eval(objective, x0, radius0, budget, lo=None, hi=None):
            return real(objective, x0, radius0, 1, lo=lo, hi=hi)

        monkeypatch.setattr(control, "local_refine", one_eval)
        task = SmoothReaching()
        cfg = tiny_mpc(seed=6)
        res = mpc_run(task, "torque", cfg)
        n_ctrl = round(task.duration / cfg.resolution)
        assert res.evals == (cfg.warm_population * cfg.warm_generations
                             + (n_ctrl - 1))

    def test_budget_parity(self):
        task = SmoothReaching()
        a = mpc_run(task, "muscle", tiny_mpc(seed=7))
        b = mpc_run(task, "torque", tiny_mpc(seed=7))
        assert a.evals == b.evals

    def test_invisible_perturbation_changes_outcome(self):
        task = SmoothReaching()
        pert = Perturbation(kind="lower_arm_mass", mass=1.0,
                            visible_to_prediction=False)
        clean = mpc_run(task, "torque", tiny_mpc(seed=8))
        loaded = mpc_run(task, "torque", tiny_mpc(seed=8), perturbation=pert)
        assert not np.array_equal(clean.executed.th, loaded.executed.th)


class TestCalibration:
    def test_known_peak(self):
        torques = np.array([[1.0, -12.3], [-2.0, 3.0], [0.5, 11.0]])
        assert calibrate_torque_limits([torques]) == (2.0, 12.3)

    def test_matches_scan_over_rollouts(self):
        task = SmoothReaching()
        ctrl = MuscleController()
        par = parameterization_for(task, ctrl, 0.3)
        rng = np.random.default_rng(9)
        results = [rollout(task, ctrl, zoh_control(
            rng.uniform(0.0, 1.0, par.dim), par, DT_SIM)) for _ in range(3)]
        got = calibrate_torque_limits(results)
        stacked = np.vstack([r.torques for r in results])
        assert got == (float(np.abs(stacked[:, 0]).max()),
                       float(np.abs(stacked[:, 1]).max()))
        assert np.all(np.abs(stacked) <= np.asarray(got) + 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_torque_limits([])
