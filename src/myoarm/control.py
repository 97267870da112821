"""Rollouts, open-loop trajectory optimization, and sampling-based MPC.

A rollout advances the arm at a fixed physics timestep while the controller's
internal actuator state advances in lockstep; controls come from a
zero-order-hold decision vector. MPC re-plans against a prediction model
that only sees perturbations flagged as visible.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .actuators import make_controller
from .arm import (ArmParams, ArmState, BallState, Perturbation, _accel,
                  _Coeffs, _hand, _jacobian, _pendulum_forces, _symp_step,
                  ball_step)
from .optimizers import (CmaConfig, ControlParameterization, OptimizationTrace,
                         cma_es, local_refine)

DT_SIM = 0.005                 # physics timestep, seconds
SENTINEL_COST = 1e9            # diverged run, minimization convention
SENTINEL_REWARD = -1e9         # diverged run, maximization convention


@dataclass
class RolloutResult:
    """Fixed-rate trajectory of one episode plus its scalar cost.

    th/dth/ddth have one row per sample (n_steps + 1); controls, torques and
    activities have one row per step. ddth[k] is the acceleration used to
    advance sample k; the final row repeats the last applied torque's
    acceleration at the terminal state. activities holds the controller's
    internal row (n_internal wide: muscle activities or filtered low-pass
    commands) and is None for controllers without internal state. rollout
    builds each array once, after the episode, from a flat list of floats.
    """

    dt: float
    t: np.ndarray
    th: np.ndarray
    dth: np.ndarray
    ddth: np.ndarray
    controls: np.ndarray
    torques: np.ndarray
    activities: np.ndarray | None
    ball: np.ndarray | None
    pend: np.ndarray | None
    cost: float
    diverged: bool
    termination: str            # 'horizon', 'goal', or 'diverged'
    steps: int
    wall_time: float = 0.0

    @property
    def final_state(self) -> ArmState:
        k = self.steps
        pend = self.pend if self.pend is not None else None
        return ArmState(th1=float(self.th[k, 0]), th2=float(self.th[k, 1]),
                        dth1=float(self.dth[k, 0]), dth2=float(self.dth[k, 1]),
                        t=float(self.t[k]),
                        pend_angle=float(pend[k, 0]) if pend is not None else 0.0,
                        pend_vel=float(pend[k, 1]) if pend is not None else 0.0)


def zoh_control(theta, parameterization: ControlParameterization, dt: float):
    """Step-indexed zero-order-hold lookup for the rollout loop.

    The control resolution must be an integer multiple of dt so segment
    boundaries land exactly on physics steps. A decision vector with a
    non-finite entry is rejected here, once, before it can reach a
    controller (where NaN would read as full muscle activation or a NaN
    torque).
    """
    steps_per_seg = round(parameterization.resolution / dt)
    if steps_per_seg < 1 or abs(steps_per_seg * dt - parameterization.resolution) > 1e-9:
        raise ValueError(
            f"control resolution {parameterization.resolution} is not an "
            f"integer multiple of dt={dt}")
    theta = np.asarray(theta, dtype=float)
    n_seg = parameterization.n_segments
    na = parameterization.n_actuators
    if theta.size != n_seg * na:
        raise ValueError(f"decision vector has size {theta.size}, expected {n_seg * na}")
    if not np.isfinite(theta).all():
        raise ValueError("decision vector contains a non-finite value")
    table = np.clip(theta.reshape(n_seg, na), parameterization.lo, parameterization.hi)
    rows = list(map(tuple, table.tolist()))
    last = n_seg - 1

    def fn(step_index, t):
        k = step_index // steps_per_seg
        return rows[k if k < last else last]

    return fn


def constant_control(values):
    row = tuple(float(v) for v in values)

    def fn(step_index, t):
        return row

    return fn


def _rows(flat, n):
    """A flat list of per-step floats as an array of n rows."""
    return np.array(flat, dtype=float).reshape(n, -1)


def rollout(task, controller, control_fn, params: ArmParams | None = None,
            perturbation: Perturbation | None = None, dt: float = DT_SIM,
            initial_state: ArmState | None = None, controller_state=None,
            ball0: BallState | None = None, duration: float | None = None,
            contact_radius: float = 0.05) -> RolloutResult:
    """Simulate one episode of `task` under `controller` and `control_fn`.

    control_fn(step_index, t) returns the raw control vector for that physics
    step. Mass-type perturbations are folded into the plant parameters; a
    pendulum perturbation is co-simulated and coupled through cable tension.
    A non-finite state marks the rollout diverged with the sentinel cost.

    Each step appends its values to one flat list of floats per field, and
    every RolloutResult array is built from its list once the episode ends.
    When the controller's n_internal is non-zero, its `internal` row is
    recorded as the activities.
    """
    t_start = time.perf_counter()
    params = params or ArmParams()
    p_eff = perturbation.apply_to(params) if perturbation is not None else params
    coeffs = _Coeffs(p_eff)
    pend_pert = (perturbation if perturbation is not None
                 and perturbation.kind == "chaotic_pendulum" else None)

    horizon = duration if duration is not None else task.duration
    n = round(horizon / dt)
    if n < 1:
        raise ValueError("horizon shorter than one physics step")

    state = initial_state if initial_state is not None else task.initial_state()
    th1, th2 = state.th1, state.th2
    w1, w2 = state.dth1, state.dth2
    phi_p, dphi_p = state.pend_angle, state.pend_vel
    t0 = state.t

    if controller_state is None:
        controller.reset()
    else:
        controller.restore(controller_state)

    ball = None
    if getattr(task, "has_ball", False):
        b = ball0 if ball0 is not None else task.initial_ball()
        ball = BallState(**vars(b))
        contact_radius = getattr(task, "contact_radius", contact_radius)

    # one flat list of floats per field; numpy converts a flat list about
    # ten times faster than a list of row tuples
    th, dth, ddth, controls, torques = [th1, th2], [w1, w2], [], [], []
    internal = [] if controller.n_internal else None
    pend = [phi_p, dphi_p] if pend_pert is not None else None
    balls = [ball.x, ball.z, ball.dx, ball.dz] if ball is not None else None

    torques_of = controller.torques
    symp_step = _symp_step
    isfinite = math.isfinite
    is_done = (task.is_done if getattr(task, "terminal_threshold", None) is not None
               else None)
    diverged = False
    termination = "horizon"
    steps = 0
    tau1 = tau2 = 0.0

    for k in range(n):
        u = control_fn(k, t0 + k * dt)
        tau1, tau2 = torques_of(th1, th2, w1, w2, u, dt)
        t1, t2 = tau1, tau2
        if pend_pert is not None:
            fx, fz, ddphi, _, _ = _pendulum_forces(
                coeffs, th1, th2, w1, w2, tau1, tau2, pend_pert, phi_p, dphi_p)
            j11, j12, j21, j22 = _jacobian(coeffs, th1, th2)
            t1 += j11 * fx + j21 * fz
            t2 += j12 * fx + j22 * fz
            dphi_p = dphi_p + dt * ddphi
            phi_p = phi_p + dt * dphi_p
        th1, th2, w1, w2, a1, a2 = symp_step(coeffs, th1, th2, w1, w2, t1, t2, dt)
        ddth += (a1, a2)
        controls += u
        torques += (tau1, tau2)
        if internal is not None:
            internal += controller.internal
        steps = k + 1
        th += (th1, th2)
        dth += (w1, w2)
        if pend is not None:
            pend += (phi_p, dphi_p)
        if ball is not None:
            hx, hz, hvx, hvz = _hand(coeffs, th1, th2, w1, w2)
            ball = ball_step(ball, (hx, hz), (hvx, hvz), dt, g=p_eff.g,
                             contact_radius=contact_radius)
            balls += (ball.x, ball.z, ball.dx, ball.dz)
        if not (isfinite(th1) and isfinite(th2) and isfinite(w1) and isfinite(w2)):
            diverged = True
            termination = "diverged"
            break
        if is_done is not None and is_done(
                ArmState(th1=th1, th2=th2, dth1=w1, dth2=w2, t=t0 + steps * dt),
                params):
            termination = "goal"
            break

    if diverged:
        ddth += ddth[-2:]
    else:
        if pend_pert is not None:
            _, _, _, a1, a2 = _pendulum_forces(
                coeffs, th1, th2, w1, w2, tau1, tau2, pend_pert, phi_p, dphi_p)
        else:
            a1, a2 = _accel(coeffs, th1, th2, w1, w2, tau1, tau2)
        ddth += (a1, a2)

    result = RolloutResult(
        dt=dt,
        t=t0 + dt * np.arange(steps + 1),
        th=_rows(th, steps + 1), dth=_rows(dth, steps + 1),
        ddth=_rows(ddth, steps + 1),
        controls=_rows(controls, steps), torques=_rows(torques, steps),
        activities=_rows(internal, steps) if internal is not None else None,
        ball=_rows(balls, steps + 1) if balls is not None else None,
        pend=_rows(pend, steps + 1) if pend is not None else None,
        cost=SENTINEL_COST, diverged=diverged, termination=termination,
        steps=steps)
    if not diverged:
        # a caller-shortened horizon is an MPC prediction window; score it
        # with the task's length-agnostic variant of the same functional
        windowed = (duration is not None and duration < task.duration - 1e-9
                    and hasattr(task, "window_cost"))
        cost_fn = task.window_cost if windowed else task.cost
        result.cost = float(cost_fn(result, params))
    result.wall_time = time.perf_counter() - t_start
    return result


def parameterization_for(task, controller, resolution: float) -> ControlParameterization:
    return ControlParameterization(horizon=task.duration, resolution=resolution,
                                   n_actuators=controller.n_controls,
                                   lo=controller.lo, hi=controller.hi)


def open_loop_objective(task, controller, parameterization, params=None,
                        perturbation=None, dt: float = DT_SIM):
    """Map a decision vector to its rollout cost (sentinel when diverged)."""

    def objective(theta):
        fn = zoh_control(theta, parameterization, dt)
        return rollout(task, controller, fn, params=params,
                       perturbation=perturbation, dt=dt).cost

    return objective


def open_loop_optimize(task, morphology: str, resolution: float,
                       cma_config: CmaConfig, params: ArmParams | None = None,
                       perturbation: Perturbation | None = None,
                       dt: float = DT_SIM, controller_overrides=None,
                       map_fn=map):
    """Optimize a zero-order-hold plan for the task with CMA-ES.

    The initial search mean defaults to the middle of the control box
    (0.5 for muscles, 0 for the torque family). Returns
    (best_theta, best_rollout, trace, parameterization).
    """
    controller = make_controller(morphology, **(controller_overrides or {}))
    par = parameterization_for(task, controller, resolution)
    cfg = cma_config
    if cfg.x0 is None:
        mid = 0.5 * (controller.lo + controller.hi)
        cfg = CmaConfig(population=cfg.population, generations=cfg.generations,
                        sigma0=cfg.sigma0, seed=cfg.seed,
                        x0=np.full(par.dim, mid))
    objective = open_loop_objective(task, controller, par, params, perturbation, dt)
    best_x, best_f, trace = cma_es(objective, par.dim, cfg, map_fn=map_fn)
    best = rollout(task, controller, zoh_control(best_x, par, dt),
                   params=params, perturbation=perturbation, dt=dt)
    return best_x, best, trace, par


@dataclass
class MpcConfig:
    """Budgets and horizons of the receding-horizon controller."""

    t_pred: float = 0.3            # prediction horizon, seconds
    resolution: float = 0.01       # control step, seconds
    warm_population: int = 36
    warm_generations: int = 20
    warm_sigma0: float = 0.2
    refine_budget: int = 50        # evaluations per control step
    refine_radius: float = 0.1
    seed: int = 0


@dataclass
class MpcResult:
    executed: RolloutResult
    step_costs: np.ndarray        # executed stage cost averaged per control step
    plan_costs: np.ndarray        # predicted window cost after each refinement
    shift_costs: np.ndarray       # shifted-plan window cost before refinement
    cost: float                   # executed-trajectory cost (same functional as OC)
    evals: int
    first_plan: np.ndarray        # warm-start plan before any execution
    plans: np.ndarray             # plan in force at each executed control step
    diverged: bool = False


def mpc_run(task, morphology: str, mpc: MpcConfig,
            params: ArmParams | None = None,
            perturbation: Perturbation | None = None, dt: float = DT_SIM,
            controller_overrides=None, map_fn=map) -> MpcResult:
    """Receding-horizon control: CMA-ES warm start, then per-step refinement.

    The plant feels the full perturbation; the prediction model only includes
    it when perturbation.visible_to_prediction is set. At each control step
    the first planned segment is applied, the plan is shifted (last segment
    duplicated), and a pattern search with a fixed evaluation budget refines
    it against the prediction model from the latest plant snapshot.
    MpcResult.evals counts the evaluations actually spent.
    """
    params = params or ArmParams()
    overrides = controller_overrides or {}
    plant_ctrl = make_controller(morphology, **overrides)
    pred_ctrl = make_controller(morphology, **overrides)
    plant_ctrl.reset()

    visible = perturbation is not None and perturbation.visible_to_prediction
    pred_pert = perturbation if visible else None

    par = ControlParameterization(horizon=mpc.t_pred, resolution=mpc.resolution,
                                  n_actuators=plant_ctrl.n_controls,
                                  lo=plant_ctrl.lo, hi=plant_ctrl.hi)
    steps_per_ctrl = round(mpc.resolution / dt)
    if steps_per_ctrl < 1 or abs(steps_per_ctrl * dt - mpc.resolution) > 1e-9:
        raise ValueError("control resolution must be an integer multiple of dt")
    n_ctrl = round(task.duration / mpc.resolution)

    state = task.initial_state()
    ball = task.initial_ball() if getattr(task, "has_ball", False) else None

    def window_objective(snap_state, snap_ctrl, snap_ball):
        def objective(theta):
            fn = zoh_control(theta, par, dt)
            res = rollout(task, pred_ctrl, fn, params=params,
                          perturbation=pred_pert, dt=dt,
                          initial_state=snap_state, controller_state=snap_ctrl,
                          ball0=snap_ball, duration=mpc.t_pred)
            return res.cost
        return objective

    # warm start from the initial snapshot
    mid = 0.5 * (plant_ctrl.lo + plant_ctrl.hi)
    warm_cfg = CmaConfig(population=mpc.warm_population,
                         generations=mpc.warm_generations,
                         sigma0=mpc.warm_sigma0, seed=mpc.seed,
                         x0=np.full(par.dim, mid))
    plan, _, warm_trace = cma_es(
        window_objective(state, plant_ctrl.snapshot(), ball), par.dim,
        warm_cfg, map_fn=map_fn)
    evals = warm_trace.total_evals
    first_plan = plan.copy()

    exec_parts = []
    plans = []
    plan_costs = []
    shift_costs = []
    diverged = False
    termination = "horizon"
    for k in range(n_ctrl):
        plans.append(plan.copy())
        u0 = np.clip(plan[:par.n_actuators], par.lo, par.hi)
        seg = rollout(task, plant_ctrl, constant_control(u0), params=params,
                      perturbation=perturbation, dt=dt, initial_state=state,
                      controller_state=plant_ctrl.snapshot(), ball0=ball,
                      duration=mpc.resolution)
        exec_parts.append(seg)
        state = seg.final_state
        if ball is not None:
            bx, bz, bdx, bdz = seg.ball[-1]
            ball = BallState(x=float(bx), z=float(bz), dx=float(bdx),
                             dz=float(bdz), mass=ball.mass,
                             max_dz=max(ball.max_dz, float(seg.ball[:, 3].max())))
        if seg.diverged:
            diverged = True
            termination = "diverged"
            break
        if seg.termination == "goal":
            termination = "goal"
            break
        if k == n_ctrl - 1:
            break
        plan = par.shift(plan)
        objective = window_objective(state, plant_ctrl.snapshot(), ball)
        first_eval = []

        def probed(theta, _obj=objective, _first=first_eval):
            v = _obj(theta)
            if not _first:
                _first.append(v)   # pattern search evaluates its start first
            return v

        plan, f_plan, refine_evals = local_refine(
            probed, plan, mpc.refine_radius, mpc.refine_budget,
            lo=par.lo, hi=par.hi)
        evals += refine_evals
        shift_costs.append(first_eval[0])
        plan_costs.append(f_plan)

    executed = _concat_rollouts(exec_parts, task, params, dt,
                                diverged, termination)
    if not diverged:
        stage = task.stage_series(executed, params)
        per_step = [float(stage[i * steps_per_ctrl:(i + 1) * steps_per_ctrl + 1].mean())
                    for i in range(len(exec_parts))]
    else:
        per_step = [SENTINEL_COST] * len(exec_parts)
    return MpcResult(executed=executed, step_costs=np.asarray(per_step),
                     plan_costs=np.asarray(plan_costs),
                     shift_costs=np.asarray(shift_costs), cost=executed.cost,
                     evals=evals, first_plan=first_plan,
                     plans=np.asarray(plans), diverged=diverged)


def _concat_rollouts(parts, task, params, dt, diverged, termination) -> RolloutResult:
    """Stitch per-control-step segments into one trajectory (samples deduped)."""
    if not parts:
        raise ValueError("no executed segments")

    def cat_samples(name):
        arrs = [getattr(parts[0], name)] + [getattr(p, name)[1:] for p in parts[1:]]
        return np.concatenate(arrs) if arrs[0] is not None else None

    def cat_steps(name):
        arrs = [getattr(p, name) for p in parts if getattr(p, name) is not None]
        return np.concatenate(arrs) if arrs else None

    th = cat_samples("th")
    ddth = cat_samples("ddth")
    # interior seams carry the follow-on segment's fresh acceleration
    result = RolloutResult(
        dt=dt, t=cat_samples("t"), th=th, dth=cat_samples("dth"), ddth=ddth,
        controls=cat_steps("controls"), torques=cat_steps("torques"),
        activities=cat_steps("activities"),
        ball=cat_samples("ball") if parts[0].ball is not None else None,
        pend=cat_samples("pend") if parts[0].pend is not None else None,
        cost=SENTINEL_COST, diverged=diverged, termination=termination,
        steps=th.shape[0] - 1)
    if not diverged:
        result.cost = float(task.cost(result, params))
    return result


def calibrate_torque_limits(rollouts) -> tuple:
    """Per-joint peak |torque| over a collection of rollouts.

    Accepts RolloutResult objects or plain (n, 2) torque arrays; intended to
    transfer muscle-run torque envelopes onto the torque-family actuators.
    """
    peak = np.zeros(2)
    count = 0
    for r in rollouts:
        tq = r.torques if hasattr(r, "torques") else np.asarray(r, dtype=float)
        if tq.size == 0:
            continue
        peak = np.maximum(peak, np.abs(tq).max(axis=0))
        count += 1
    if count == 0:
        raise ValueError("no torque data to calibrate from")
    return float(peak[0]), float(peak[1])
