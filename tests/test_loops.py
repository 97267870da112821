"""Tests for rollouts, open-loop optimization, and the receding-horizon loop."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from myoarm import control
from myoarm.actuators import MuscleController, TorqueController, make_controller
from myoarm.arm import (ArmParams, ArmState, Perturbation, _Coeffs,
                        _mass_terms, _pendulum_step)
from myoarm.control import (DT_SIM, WARM_SIGMA0,
                            ControlParameterization, MpcConfig,
                            calibrate_torque_limits, mpc_run,
                            open_loop_lockstep, parameterization_for,
                            rollout, rollout_plans)
from myoarm.objectives import (ObjectiveWeights, PreciseReaching, ReachTarget,
                               SmoothReaching, make_task)
from myoarm.optimizers import CmaConfig, cma_es
from oracles import mpc_run_reference
from test_kernels import symp_step_floats

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


def hold(task, ctrl, values, **kw):
    """A rollout that applies `values` at every step: a one-segment plan
    over the task's horizon."""
    return rollout(task, ctrl, np.asarray(values, dtype=float),
                   parameterization_for(task, ctrl, task.duration), **kw)


class TestRollout:
    def test_zero_control_torque_stays_at_equilibrium(self):
        task = SmoothReaching()
        res = hold(task, TorqueController(), [0.0, 0.0])
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
        res = hold(task, ctrl, [0.0, 0.0, 0.0, 0.0],
                   initial_state=ArmState(th1=0.0, th2=0.0))
        for mp, col in ((ctrl.shoulder, 0), (ctrl.elbow, 1)):
            l_a = mp.m1 * res.th[:, col] + mp.l_ref1
            l_b = mp.m2 * res.th[:, col] + mp.l_ref2
            assert l_a.max() <= 1.0 and l_b.max() <= 1.0
        assert np.all(res.torques == 0.0)
        # under zero excitation an activity only decays (a' = a * decay),
        # so a zero final row means every step's activities were zero
        assert res.controller_state == (0.0, 0.0, 0.0, 0.0)
        # the arm itself falls; only the actuation is silent
        assert res.th[-1, 0] < -0.05

    def test_cost_matches_independent_recomputation(self):
        task = SmoothReaching()
        rng = np.random.default_rng(4)
        par = parameterization_for(task, TorqueController(), 0.15)
        theta = rng.uniform(-1.0, 1.0, par.dim)
        res = rollout(task, TorqueController(), theta, par)
        assert abs(res.cost - smooth_cost_reference(res, task.weights,
                                                    task.target)) < 1e-12

    def test_muscle_cost_matches_recomputation(self):
        task = SmoothReaching()
        ctrl = MuscleController()
        par = parameterization_for(task, ctrl, 0.3)
        theta = np.random.default_rng(8).uniform(0.0, 1.0, par.dim)
        res = rollout(task, ctrl, theta, par)
        assert abs(res.cost - smooth_cost_reference(res, task.weights,
                                                    task.target)) < 1e-12

    def test_ball_cost_matches_scan(self):
        task = make_task("ball-serve")
        ctrl = MuscleController()
        par = parameterization_for(task, ctrl, 0.3)
        theta = np.random.default_rng(12).uniform(0.0, 1.0, par.dim)
        res = rollout(task, ctrl, theta, par)
        assert res.ball is not None
        assert res.cost == -float(res.ball[:, 3].max())

    def test_shapes_and_time_grid(self):
        task = SmoothReaching()
        ctrl = MuscleController()
        res = hold(task, ctrl, [0.3, 0.1, 0.4, 0.2])
        n = round(task.duration / DT_SIM)
        assert res.steps == n
        assert res.th.shape == (n + 1, 2)
        assert res.dth.shape == (n + 1, 2)
        assert res.ddth.shape == (n + 1, 2)
        assert res.controls.shape == (n, 4)
        assert res.torques.shape == (n, 2)
        assert len(res.controller_state) == 4
        assert np.allclose(np.diff(res.t), DT_SIM)
        assert res.termination == "horizon"

    def test_matches_single_step_api(self):
        # the rollout loop must walk the trajectory of its kernels, called
        # one step at a time, bit for bit, including actuator state and the
        # swinging-load coupling
        task = SmoothReaching(duration=0.4)
        pert = Perturbation(kind="chaotic_pendulum", mass=1.0,
                            cable_length=0.25)
        for morph in ("torque", "muscle"):
            roll_ctrl = make_controller(morph)
            par = parameterization_for(task, roll_ctrl, 0.1)
            theta = np.random.default_rng(31).uniform(
                roll_ctrl.lo, roll_ctrl.hi, par.dim)
            res = rollout(task, roll_ctrl, theta, par, perturbation=pert)
            plan = theta.reshape(par.n_segments, -1).tolist()

            ctrl = make_controller(morph)
            c = _Coeffs(PARAMS)
            row = ctrl.state0
            s = task.initial_state()
            arm = s.th1, s.th2, s.dth1, s.dth2
            phi, dphi = s.pend_angle, s.pend_vel
            for k in range(res.steps):
                u = plan[k // 20]           # 0.1 s segments of 20 steps
                *tau, row = ctrl.torques(row, *arm, u)
                assert tau[0] == res.torques[k, 0]
                assert tau[1] == res.torques[k, 1]
                t1, t2, phi, dphi = _pendulum_step(c, *arm, *tau, pert, phi,
                                                   dphi, DT_SIM)
                arm = symp_step_floats(c, *arm, t1, t2, DT_SIM,
                                       *_mass_terms(c, arm[1]))[:4]
                assert arm[0] == res.th[k + 1, 0]
                assert arm[1] == res.th[k + 1, 1]
                assert arm[2] == res.dth[k + 1, 0]
                assert arm[3] == res.dth[k + 1, 1]
                assert phi == res.pend[k + 1, 0]
                assert dphi == res.pend[k + 1, 1]
            assert row == res.controller_state

    def test_divergence_costs_inf(self):
        task = SmoothReaching()
        wild = ArmState(th1=0.0, th2=0.5, dth1=1e200, dth2=-1e200)
        res = hold(task, TorqueController(), [0.0, 0.0], initial_state=wild)
        assert res.diverged
        assert res.termination == "diverged"
        assert res.cost == math.inf
        assert res.steps < round(task.duration / DT_SIM)

    def test_overflow_inside_a_step_is_divergence(self):
        # `myoarm simulate --task precise-reach --morphology lowpass-fast
        # --c 0.3 --seed 4`: the angle overflows inside the step, whose
        # math.cos(inf) used to raise "math domain error" out of rollout,
        # while rollout_plans (np.cos gives NaN) scored the same vector
        # as diverged
        task = make_task("precise-reach", seed=4)
        ctrl = make_controller("lowpass-fast")
        par = parameterization_for(task, ctrl, 0.3)
        theta = np.random.default_rng(4).uniform(par.lo, par.hi, par.dim)
        res = rollout(task, ctrl, theta, par)
        assert res.diverged and res.termination == "diverged"
        assert res.cost == math.inf
        n = res.steps
        assert 0 < n < round(task.duration / DT_SIM)
        assert res.t.shape == (n + 1,)
        for name in ("th", "dth", "ddth"):
            assert getattr(res, name).shape == (n + 1, 2), name
        assert res.controls.shape == (n, 2) and res.torques.shape == (n, 2)
        assert np.isfinite(res.th[:n]).all()
        assert not np.isfinite(res.th[n]).all()
        assert rollout_plans(ctrl, [(task, theta[None], par)])[0][0] == res.cost

    @pytest.mark.parametrize("first_refused", [0, 3])
    def test_a_foreign_value_error_propagates(self, first_refused):
        # only the step's "math domain error" marks a run diverged; any other
        # ValueError raised in the step loop, here by the controller in the
        # first or the fourth step, reaches the caller as it was raised
        class Refusing(TorqueController):
            steps = 0

            def torques(self, state, th1, th2, w1, w2, u):
                if self.steps == first_refused:
                    raise ValueError("refused by the controller")
                self.steps += 1
                return super().torques(state, th1, th2, w1, w2, u)

        ctrl = Refusing()
        with pytest.raises(ValueError, match="^refused by the controller$"):
            hold(SmoothReaching(duration=0.1), ctrl, [0.5, -0.5])
        assert ctrl.steps == first_refused

    def test_goal_termination(self):
        # goal sits on the initial hand position, so the episode ends at once
        task = PreciseReaching(target=ReachTarget(goal_xz=(0.0, -0.6)),
                               terminal_threshold=0.05, duration=1.0)
        res = hold(task, TorqueController(), [0.0, 0.0])
        assert res.termination == "goal"
        assert res.steps == 1
        assert math.isfinite(res.cost)

    def test_perturbation_visibility_never_touches_plant(self):
        task = SmoothReaching()
        ctrl = TorqueController()
        seen = Perturbation(kind="lower_arm_mass", mass=1.0,
                            visible_to_prediction=True)
        unseen = Perturbation(kind="lower_arm_mass", mass=1.0,
                              visible_to_prediction=False)
        a = hold(task, ctrl, [0.4, -0.2], perturbation=seen)
        b = hold(task, ctrl, [0.4, -0.2], perturbation=unseen)
        assert np.array_equal(a.th, b.th)
        assert np.array_equal(a.dth, b.dth)

    def test_bad_decision_vector_rejected(self):
        task = SmoothReaching()
        par = parameterization_for(task, TorqueController(), 0.3)
        with pytest.raises(ValueError):
            rollout(task, TorqueController(), np.zeros(par.dim + 1), par)

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
                    rollout(task, ctrl, theta, par)

    def test_held_non_finite_excitations_rejected(self):
        # NaN used to reach the muscle controller and read as activity 1.0
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                hold(SmoothReaching(), MuscleController(), [0.5, bad, 0.5, 0.5])

    def test_held_non_finite_torques_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                hold(SmoothReaching(), TorqueController(), [bad, 0.0])

    def test_resolution_must_align_with_dt(self):
        # a plan whose segments would end between physics steps, or whose
        # resolution or horizon is not finite, is refused when it is built,
        # before any rollout can take it (an infinite resolution used to
        # raise OverflowError from round())
        task = SmoothReaching()
        for resolution in (0.007, 0.0125, 0.3 + 1e-6, math.inf, math.nan):
            with pytest.raises(ValueError, match="multiple of dt"):
                parameterization_for(task, TorqueController(), resolution)
        with pytest.raises(ValueError, match="horizon inf is not a finite"):
            ControlParameterization(math.inf, 0.05, 2, -1.0, 1.0)
        assert parameterization_for(task, TorqueController(),
                                    0.3).steps_per_segment == 60


class TestOpenLoop:
    def test_dimensions_per_morphology(self):
        task = SmoothReaching()
        assert parameterization_for(task, MuscleController(), 0.05).dim == 72
        assert parameterization_for(task, TorqueController(), 0.05).dim == 36

    def test_optimization_improves_on_first_generation(self):
        task = SmoothReaching()
        cfg = CmaConfig(population=12, generations=15, sigma0=0.2, seed=0)
        best_x, best, trace, par = open_loop_lockstep(TorqueController(),
                                                      [(task, 0.3, cfg)])[0]
        assert trace.best_so_far[-1] < trace.best_so_far[0]
        assert best.cost == trace.best_so_far[-1]
        assert best_x.size == par.dim

    def test_budget_parity_across_morphologies(self):
        task = SmoothReaching()
        evals = {}
        for morph in ("muscle", "torque"):
            cfg = CmaConfig(population=8, generations=5, sigma0=0.2, seed=0)
            _, _, trace, _ = open_loop_lockstep(make_controller(morph),
                                                [(task, 0.3, cfg)])[0]
            evals[morph] = trace.total_evals
        assert evals["muscle"] == evals["torque"] == 40

    def test_deterministic_given_seed(self):
        task = SmoothReaching()
        runs = []
        for _ in range(2):
            cfg = CmaConfig(population=8, generations=6, sigma0=0.2, seed=3)
            best_x, best, trace, _ = open_loop_lockstep(MuscleController(),
                                                        [(task, 0.3, cfg)])[0]
            runs.append((best_x, best.cost, tuple(trace.best_so_far)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]


def tiny_mpc(seed=0, **kw):
    defaults = dict(t_pred=0.2, resolution=0.05, warm_population=8,
                    warm_generations=5, refine_budget=10, seed=seed)
    defaults.update(kw)
    return MpcConfig(**defaults)


def reference_cases():
    """mpc_run's cases held to oracles.mpc_run_reference: {id: (task,
    controller, MpcConfig, perturbation, a check that the executed run
    covers what the id names)}. Smooth-reach with muscle and torque under
    no load, an unseen load and a visible one (the incumbent is continued
    under none and the visible one), a visible pendulum load, ball-serve,
    and the golden set's torque fast-reach run, which stops at its goal."""
    load = Perturbation(kind="lower_arm_mass", mass=2.0)
    loads = {"none": None, "unseen": load,
             "visible": replace(load, visible_to_prediction=True)}
    smooth = tiny_mpc(seed=3, t_pred=0.1, resolution=0.01, warm_generations=2)
    short = tiny_mpc(seed=0, t_pred=0.05, resolution=0.01, warm_population=4,
                     warm_generations=1, refine_budget=4)
    cases = {f"{family.__name__}-{name}": (
        SmoothReaching(duration=0.3), family(), smooth, pert,
        lambda run: run.termination == "horizon")
        for family in (MuscleController, TorqueController)
        for name, pert in loads.items()}
    cases["pendulum"] = (
        SmoothReaching(duration=0.2), MuscleController(), short,
        Perturbation(kind="chaotic_pendulum", mass=1.0, cable_length=0.25,
                     visible_to_prediction=True),
        lambda run: run.pend is not None)
    cases["ball-serve"] = (
        make_task("ball-serve", duration=0.2), MuscleController(), short,
        None, lambda run: run.ball is not None)
    cases["fast-reach-goal"] = (
        make_task("fast-reach", seed=3), make_controller("torque"),
        replace(short, t_pred=0.02, refine_budget=2, seed=3), None,
        lambda run: run.termination == "goal")
    return cases


REFERENCE_CASES = reference_cases()


def torque_window(cfg: MpcConfig):
    """The torque prediction window's parameterization and objective.

    objective(theta, state) is the cost of plan theta over cfg.t_pred from
    arm state `state`; torque actuators have no state of their own, so the
    arm state is the whole snapshot that mpc_run plans from.
    """
    par = ControlParameterization(horizon=cfg.t_pred, resolution=cfg.resolution,
                                  n_actuators=2, lo=-1.0, hi=1.0)

    def objective(theta, state):
        return rollout(SmoothReaching(), TorqueController(), theta, par,
                       initial_state=state).cost
    return par, objective


class TestMpc:
    @pytest.mark.parametrize("budget", [2.5, True, 0, math.nan])
    def test_a_refine_budget_must_be_a_whole_number(self, budget):
        # refine_budget 2.5 used to be accepted
        with pytest.raises(ValueError,
                           match="refine_budget must be a whole number"):
            MpcConfig(refine_budget=budget)

    def test_a_negative_seed_is_refused(self):
        # MpcConfig(seed=-2) used to be accepted; its warm start's CmaConfig
        # refuses it now
        with pytest.raises(ValueError, match="seed must be a whole number"):
            MpcConfig(seed=-2)

    def test_a_window_whose_score_overflows_costs_inf_without_a_warning(
            self, monkeypatch):
        # on a forearm of almost no mass, seed 4's refinement meets windows
        # that stay finite while their cost overflows; the scalar rollout
        # used to score them outside any np.errstate block, so it warned
        # ("overflow encountered in square"), which -W error made a crash
        task = make_task("smooth-reach",
                         params=ArmParams(m2=1e-4, i2=1e-7, m_hand=0.0))
        scored = []

        def recorded(window, theta, bound=None, resume=None):
            cost, record = real(window, theta, bound, resume)
            scored.append((record is not None, cost))    # ran to its horizon
            return cost, record

        real = control._Window.probe
        monkeypatch.setattr(control._Window, "probe", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mpc_run(task, make_controller("torque"),
                    tiny_mpc(seed=4, t_pred=0.2, resolution=0.01,
                             warm_population=4, warm_generations=1,
                             refine_budget=4))
        assert any(horizon and cost == math.inf for horizon, cost in scored)

    def test_a_finite_window_that_scores_nan_costs_inf(self, monkeypatch):
        # on a forearm of almost no mass, seed 0's refinement meets windows
        # whose angles and velocities stay finite while the terminal
        # acceleration, inf - inf on Python floats, is NaN. rollout, the
        # refinement's probe and rollout_plans each scored such a window
        # NaN, against the rule that a run with no finite cost costs inf
        task = make_task("smooth-reach",
                         params=ArmParams(m2=1e-4, i2=1e-7, m_hand=0.0))
        ctrl = make_controller("torque")
        probes = []

        def recorded(window, theta, bound=None, resume=None):
            cost, record = real(window, theta, bound, resume)
            probes.append((window, np.array(theta), bound, cost))
            return cost, record

        real = control._Window.probe
        monkeypatch.setattr(control._Window, "probe", recorded)
        mpc_run(task, ctrl, MpcConfig(t_pred=0.2, warm_population=4,
                                      warm_generations=1, refine_budget=4,
                                      seed=0))
        found = 0
        for window, theta, bound, cost in probes:
            state = ArmState(*window.start)
            res = rollout(task, ctrl, theta, window.par, initial_state=state)
            if res.termination != "horizon" or not np.isnan(res.ddth).any():
                continue
            found += 1
            assert np.isfinite(res.th).all() and np.isfinite(res.dth).all()
            assert res.cost == math.inf
            assert cost == math.inf or cost > bound
            start = replace(task)
            start.initial_state = lambda: state
            assert rollout_plans(ctrl, [(start, theta[None], window.par)]
                                 )[0].tolist() == [math.inf]
        assert found

    def test_first_control_applied_bitwise(self):
        task = SmoothReaching()
        cfg = tiny_mpc()
        res = mpc_run(task, TorqueController(), cfg)
        assert not res.executed.diverged
        n_ctrl = round(task.duration / 0.05)
        spc = round(0.05 / DT_SIM)
        assert res.plans.shape[0] == n_ctrl
        # the first plan in force is the warm start: CMA-ES over the window
        # from the initial state and the middle of the torque box, with
        # tiny_mpc's budget and seed
        par, _ = torque_window(cfg)
        warm, _, _ = cma_es(
            lambda thetas: rollout_plans(TorqueController(),
                                         [(task, thetas, par)])[0],
            np.zeros(par.dim), CmaConfig(population=cfg.warm_population,
                                         generations=cfg.warm_generations,
                                         sigma0=WARM_SIGMA0, seed=cfg.seed))
        assert np.array_equal(res.plans[0], warm)
        for k in range(n_ctrl):
            u0 = np.clip(res.plans[k][:2], -1.0, 1.0)
            for j in range(spc):
                assert np.array_equal(res.executed.controls[k * spc + j], u0)

    def test_shifted_plan_never_made_worse(self):
        # each refined plan scores no worse than the shifted plan it started
        # from, both on the prediction window from the executed state
        task = SmoothReaching()
        cfg = tiny_mpc(seed=1)
        res = mpc_run(task, TorqueController(), cfg)
        par, window = torque_window(cfg)
        spc = round(cfg.resolution / DT_SIM)
        th, dth = res.executed.th, res.executed.dth
        assert len(res.plans) > 1
        for k in range(1, len(res.plans)):
            j = k * spc                 # the sample a plant segment ends at
            state = ArmState(th1=float(th[j, 0]), th2=float(th[j, 1]),
                             dth1=float(dth[j, 0]), dth2=float(dth[j, 1]))
            assert (window(res.plans[k], state)
                    <= window(par.shift(res.plans[k - 1]), state))

    def test_executed_trajectory_consistent(self):
        task = SmoothReaching()
        res = mpc_run(task, TorqueController(), tiny_mpc(seed=2))
        n = round(task.duration / DT_SIM)
        assert res.executed.th.shape == (n + 1, 2)
        assert np.allclose(np.diff(res.executed.t), DT_SIM)
        assert res.executed.cost == task.cost(res.executed)
        assert math.isfinite(res.executed.cost)
        assert res.step_costs.size == round(task.duration / 0.05)

    @pytest.mark.parametrize("morph, pert", [
        ("muscle", None), ("torque", None), ("lowpass-slow", None),
        ("muscle", Perturbation(kind="chaotic_pendulum", mass=1.0,
                                cable_length=0.25)),
        ("torque", Perturbation(kind="lower_arm_mass", mass=2.0,
                                visible_to_prediction=False))])
    def test_executed_trajectory_is_one_rollout_of_its_controls(self, morph, pert):
        # mpc_run replays the applied first segments in one rollout; the
        # reference chains one plant rollout of each plan's first segment
        # from the state the previous one ended in, and stitches their
        # samples (each seam keeps the acceleration that advanced it). The
        # two agree sample for sample, and the MPC cost is the stitched
        # trajectory's.
        task = SmoothReaching(duration=0.3)
        cfg = tiny_mpc(seed=4, warm_generations=2, refine_budget=4)
        res = mpc_run(task, make_controller(morph), cfg, perturbation=pert)
        ctrl = make_controller(morph)
        par = ControlParameterization(horizon=cfg.resolution,
                                      resolution=cfg.resolution,
                                      n_actuators=ctrl.n_controls,
                                      lo=ctrl.lo, hi=ctrl.hi)
        state, row, parts = task.initial_state(), ctrl.state0, []
        for plan in res.plans:
            seg = rollout(task, ctrl, plan[:ctrl.n_controls], par,
                          perturbation=pert, initial_state=state,
                          controller_state=row)
            parts.append(seg)
            state, row = seg.final_state, seg.controller_state

        def stitched(name, end=-1):
            arrs = [getattr(p, name) for p in parts]
            if arrs[0] is None:
                return None
            return np.concatenate([a[:end] for a in arrs[:-1]] + arrs[-1:])

        spc = round(cfg.resolution / DT_SIM)
        ref = replace(parts[-1], steps=len(parts) * spc,
                      **{name: stitched(name) for name in
                         ("th", "dth", "ddth", "pend")},
                      controls=stitched("controls", None),
                      torques=stitched("torques", None))
        for name in ("t", "th", "dth", "ddth", "controls", "torques", "pend"):
            got, want = getattr(res.executed, name), getattr(ref, name)
            assert (got is None and want is None) or np.array_equal(got, want), name
        assert res.executed.controller_state == ref.controller_state
        assert res.executed.cost == task.cost(ref)

    def test_resolution_must_divide_the_task_horizon(self, monkeypatch):
        # 0.04 s used to run 22 steps (0.88 s) of a 0.9 s task and then
        # fail in the cost, 0.035 s ran 26 steps, past the horizon; both
        # are refused before any planning
        import myoarm.control as control

        def no_planning(*args, **kwargs):
            raise AssertionError("planned before checking the resolution")

        monkeypatch.setattr(control, "cma_es", no_planning)
        for resolution in (0.04, 0.035):
            with pytest.raises(ValueError, match="task horizon"):
                mpc_run(SmoothReaching(), TorqueController(),
                        tiny_mpc(resolution=resolution))

    def test_not_worse_than_open_loop_at_equal_budget(self):
        # re-planning from the true state should pay off against a one-shot
        # plan given the same number of rollout evaluations
        task = SmoothReaching()
        wins = 0
        for seed in range(3):
            cfg = MpcConfig(t_pred=0.3, resolution=0.05, warm_population=36,
                            warm_generations=20, refine_budget=50, seed=seed)
            res = mpc_run(task, TorqueController(), cfg)
            ol = open_loop_lockstep(TorqueController(), [(
                task, 0.05,
                CmaConfig(population=36, generations=res.step_evals[-1] // 36,
                          sigma0=0.2, seed=seed))])[0]
            wins += res.executed.cost <= ol[1].cost
        assert wins >= 2

    def test_deterministic(self):
        task = SmoothReaching()
        a = mpc_run(task, MuscleController(), tiny_mpc(seed=5))
        b = mpc_run(task, MuscleController(), tiny_mpc(seed=5))
        assert np.array_equal(a.executed.th, b.executed.th)
        assert np.array_equal(a.plans, b.plans)
        assert a.executed.cost == b.executed.cost
        assert np.array_equal(a.step_evals, b.step_evals)

    def test_evaluation_accounting(self):
        task = SmoothReaching()
        cfg = tiny_mpc(seed=6)
        res = mpc_run(task, TorqueController(), cfg)
        n_ctrl = round(task.duration / cfg.resolution)
        expect = (cfg.warm_population * cfg.warm_generations
                  + (n_ctrl - 1) * cfg.refine_budget)
        assert res.step_evals[-1] == expect
        assert res.step_evals.tolist() == [
            cfg.warm_population * cfg.warm_generations + k * cfg.refine_budget
            for k in range(n_ctrl)]

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
        res = mpc_run(task, TorqueController(), cfg)
        n_ctrl = round(task.duration / cfg.resolution)
        assert res.step_evals[-1] == (cfg.warm_population * cfg.warm_generations
                                      + (n_ctrl - 1))
        assert res.step_evals.tolist() == [
            cfg.warm_population * cfg.warm_generations + k
            for k in range(n_ctrl)]

    def test_a_finite_probe_beats_a_diverged_incumbent(self, monkeypatch):
        # under 300 N m ceilings, the shifted plan of one window of this run
        # diverges, and probes of finite cost above 1e9 beat it; a diverged
        # incumbent once cost 1e9 and kept its place against them
        import myoarm.control as control
        real, windows = control.local_refine, []

        def recorded(objective, x0, radius0, budget, lo, hi):
            costs = []

            def scored(x):
                costs.append(objective(x))
                return costs[-1]
            found = real(scored, x0, radius0, budget, lo=lo, hi=hi)
            windows.append((costs, found[1]))
            return found

        monkeypatch.setattr(control, "local_refine", recorded)
        mpc_run(make_task("smooth-reach", seed=1),
                make_controller("torque", tau_max=(300.0, 300.0)),
                MpcConfig(t_pred=0.2, warm_population=4, warm_generations=1,
                          refine_budget=4, seed=1))
        rescued = [(costs, f) for costs, f in windows
                   if costs[0] == math.inf and f < math.inf]
        assert rescued
        for costs, f in rescued:
            assert f == min(costs) and f > 1e9

    def test_only_the_evaluations_are_scored(self, monkeypatch):
        # each window the run scores is one counted evaluation (a tiny
        # smooth-reach run diverges in no window): a refinement probe is
        # one window_cost call unless it stopped at its bound, a warm-start
        # generation one call for its whole population, one row per
        # window; the plant segments used to be scored too, and nothing
        # read their costs. A stopped probe is an evaluation with no score
        import myoarm.control as control
        real, real_run = SmoothReaching.window_cost, control._Window._run
        scored, stopped = [], []

        def counted(task, traj):
            rows = traj.th.shape[0] if traj.th.ndim == 3 else 1
            scored.extend([traj.steps] * rows)
            return real(task, traj)

        def watched(window, *args, **kwargs):
            result = real_run(window, *args, **kwargs)
            if result[0] == "bound":
                stopped.append(result[1])
            return result

        monkeypatch.setattr(SmoothReaching, "window_cost", counted)
        monkeypatch.setattr(control._Window, "_run", watched)
        cfg = tiny_mpc(seed=2)
        res = mpc_run(SmoothReaching(), TorqueController(), cfg)
        n = round(cfg.t_pred / DT_SIM)
        assert stopped and len(scored) + len(stopped) == res.step_evals[-1]
        assert set(scored) == {n}
        assert all(1 <= steps <= n for steps in stopped)

    @pytest.mark.parametrize("family", [MuscleController, TorqueController])
    @pytest.mark.parametrize("mass", [0.0, 2.0])
    def test_a_bounded_refinement_is_the_unbounded_one(self, monkeypatch,
                                                       family, mass):
        # stopping a losing probe at its bound changes no plan, no count
        # and no executed sample: the run equals one whose task declares
        # no stages, so that every window runs in full
        import myoarm.control as control
        task = SmoothReaching(duration=0.3)
        cfg = tiny_mpc(seed=5, t_pred=0.1, resolution=0.01, warm_generations=2)
        load = Perturbation(kind="lower_arm_mass", mass=mass) if mass else None
        real_run, stopped = control._Window._run, []

        def watched(window, *args, **kwargs):
            result = real_run(window, *args, **kwargs)
            stopped.append(result[0] == "bound")
            return result

        monkeypatch.setattr(control._Window, "_run", watched)
        bounded = mpc_run(task, family(), cfg, perturbation=load)
        assert any(stopped)
        monkeypatch.delattr(SmoothReaching, "stage_terms")
        del stopped[:]
        full = mpc_run(task, family(), cfg, perturbation=load)
        assert not any(stopped)
        for name in ("step_costs", "step_evals", "plans"):
            got, want = getattr(bounded, name), getattr(full, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for name, want in vars(full.executed).items():
            got = getattr(bounded.executed, name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want, equal_nan=True), name
            else:
                assert got == want, name

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_mpc_run_is_its_reference(self, case):
        # the prepared windows, the bound and the continued incumbent change
        # no plan, no count and no executed sample: mpc_run equals the
        # reference, whose every evaluation is one full rollout
        task, controller, cfg, load, check = REFERENCE_CASES[case]
        res = mpc_run(task, controller, cfg, perturbation=load)
        ref = mpc_run_reference(task, controller, cfg, load)
        for name in ("plans", "step_evals", "step_costs"):
            got, want = getattr(res, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for name, want in vars(ref.executed).items():
            got = getattr(res.executed, name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want, equal_nan=True), name
            else:
                assert got == want, name
        assert check(res.executed)

    def test_budget_parity(self):
        task = SmoothReaching()
        a = mpc_run(task, MuscleController(), tiny_mpc(seed=7))
        b = mpc_run(task, TorqueController(), tiny_mpc(seed=7))
        assert np.array_equal(a.step_evals, b.step_evals)

    def test_invisible_perturbation_changes_outcome(self):
        task = SmoothReaching()
        pert = Perturbation(kind="lower_arm_mass", mass=1.0,
                            visible_to_prediction=False)
        clean = mpc_run(task, TorqueController(), tiny_mpc(seed=8))
        loaded = mpc_run(task, TorqueController(), tiny_mpc(seed=8),
                         perturbation=pert)
        assert not np.array_equal(clean.executed.th, loaded.executed.th)

    def test_a_handed_warm_start_is_the_runs_own(self, monkeypatch):
        # an unseen load's prediction model is the unloaded arm, so another
        # unseen load's (plans[0], step_evals[0]) is the warm start this run
        # would compute: the run equals a from-scratch one field for field,
        # makes no CMA-ES call and leaves the handed plan as it was
        import myoarm.control as control
        task, cfg = SmoothReaching(), tiny_mpc(seed=4)
        load = Perturbation(kind="lower_arm_mass", mass=2.0)
        baseline = mpc_run(task, MuscleController(), cfg)
        own = mpc_run(task, MuscleController(), cfg, perturbation=load)
        plan = baseline.plans[0].copy()
        plan.flags.writeable = False

        def no_warm_start(*args, **kwargs):
            raise AssertionError("ran a warm start it was handed")

        monkeypatch.setattr(control, "cma_es", no_warm_start)
        handed = mpc_run(task, MuscleController(), cfg, perturbation=load,
                         warm_start=(plan, baseline.step_evals[0]))
        assert np.array_equal(plan, baseline.plans[0])
        for name in ("step_costs", "step_evals", "plans"):
            got, want = getattr(handed, name), getattr(own, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for name, want in vars(own.executed).items():
            got = getattr(handed.executed, name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want, equal_nan=True), name
            else:
                assert got == want, name
        with pytest.raises(ValueError, match="warm plan"):
            mpc_run(task, MuscleController(), cfg,
                    warm_start=(plan[:-1], baseline.step_evals[0]))

    @pytest.mark.parametrize("evals", [-5, -1, 3.7, math.nan, math.inf, True])
    def test_a_warm_start_with_a_bad_evaluation_count_is_refused(self, evals):
        # a negative count once ran into the trace as step_evals -5, -4, ...
        # and 3.7 was truncated to 3
        task, cfg = SmoothReaching(), tiny_mpc(seed=4)
        plan = np.full(MuscleController.n_controls
                       * round(cfg.t_pred / cfg.resolution), 0.5)
        with pytest.raises(ValueError, match="warm start evaluations"):
            mpc_run(task, MuscleController(), cfg, warm_start=(plan, evals))


class TestCalibration:
    def test_known_peak(self):
        torques = np.array([[1.0, -12.3], [-2.0, 3.0], [0.5, 11.0]])
        assert calibrate_torque_limits([torques]) == (2.0, 12.3)

    def test_matches_scan_over_rollouts(self):
        task = SmoothReaching()
        ctrl = MuscleController()
        par = parameterization_for(task, ctrl, 0.3)
        rng = np.random.default_rng(9)
        results = [rollout(task, ctrl, rng.uniform(0.0, 1.0, par.dim), par)
                   for _ in range(3)]
        got = calibrate_torque_limits([r.torques for r in results])
        stacked = np.vstack([r.torques for r in results])
        assert got == (float(np.abs(stacked[:, 0]).max()),
                       float(np.abs(stacked[:, 1]).max()))
        assert np.all(np.abs(stacked) <= np.asarray(got) + 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_torque_limits([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_torques_rejected(self, bad):
        # a NaN peak used to come back as the ceiling (np.maximum keeps it)
        torques = np.array([[1.0, -12.3], [bad, 3.0]])
        with pytest.raises(ValueError, match="non-finite"):
            calibrate_torque_limits([np.ones((2, 2)), torques])
