"""Rollouts, open-loop trajectory optimization, and sampling-based MPC.

The control layer has one calling convention. Every entry point (rollout,
rollout_batch, open_loop_optimize, mpc_run) takes the controller object
itself (actuators.make_controller builds one from a run label such as
'muscle-nofl'), and every one runs at the one physics timestep DT_SIM. A
control plan has one form everywhere: a zero-order-hold decision vector
with its ControlParameterization, which `rollout` takes one of and
`rollout_batch` a population of, and which zoh_control decodes. The
parameterization owns its alignment with the physics steps: it refuses a
resolution that is not a whole multiple of DT_SIM when it is built, and
says how many steps a segment lasts (steps_per_segment). MPC re-plans
against a prediction model that only sees perturbations flagged as
visible; each plant segment is a rollout of the plan in force, and the
executed trajectory is one rollout of the first segments it applied.

Actuator state is the controller's state row (see actuators): a rollout
starts from `controller_state` (the controller's state0 when None), passes
the row through controller.torques at every step, and returns the row
after its last step as RolloutResult.controller_state. Controllers hold
parameters only, so one controller serves any number of rollouts, and MPC
carries the plant's actuator state from one segment to the next as that
row, next to the arm state.

Two rollout paths share one step function (arm._symp_step) and one
scoring rule. `rollout` runs one episode on floats and is the reference.
`rollout_batch` scores a whole (population, dim) array of decision vectors
in lockstep, one NumPy step per physics step, and gives every row the
cost `rollout` gives it. cma_es hands each generation to its objective as
one such array, so open-loop optimization and the MPC warm start score
populations with rollout_batch; the pattern-search refinement, the MPC
plant segments, MPC's executed trajectory and the best-plan rollouts use
`rollout`.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .arm import (ArmParams, ArmState, BallState, Perturbation, _accel,
                  _Coeffs, _hand, _pendulum_forces, _pendulum_step, _symp_step,
                  ball_step)
from .optimizers import CmaConfig, cma_es, local_refine

DT_SIM = 0.005                 # physics timestep, seconds
SENTINEL_COST = 1e9            # diverged run, minimization convention
WARM_SIGMA0 = 0.2              # MPC warm start: CMA-ES initial step size
REFINE_RADIUS = 0.1            # MPC refinement: initial pattern-search radius

# rollout_batch's step: _symp_step under a name of its own, so a span that
# wraps control._symp_step (perfbench/spans.py) times scalar steps only
_batch_step = _symp_step


@dataclass
class RolloutResult:
    """Fixed-rate trajectory of one episode plus its scalar cost.

    th/dth/ddth have one row per sample (n_steps + 1); controls and torques
    have one row per step. ddth[k] is the acceleration used to advance
    sample k; the final row repeats the last applied torque's acceleration
    at the terminal state. controller_state is the controller's state row
    after the last step, the row a follow-on rollout starts from. rollout
    builds each array once, after the episode, from a flat list of floats.
    The results rollout_batch scores leave torques and controller_state
    None: no task cost reads them.
    """

    dt: float
    t: np.ndarray
    th: np.ndarray
    dth: np.ndarray
    ddth: np.ndarray
    controls: np.ndarray
    torques: np.ndarray
    controller_state: tuple | None
    ball: np.ndarray | None
    pend: np.ndarray | None
    cost: float
    diverged: bool
    termination: str            # 'horizon', 'goal', or 'diverged'
    steps: int

    @property
    def final_state(self) -> ArmState:
        k = self.steps
        pend = self.pend
        return ArmState(th1=float(self.th[k, 0]), th2=float(self.th[k, 1]),
                        dth1=float(self.dth[k, 0]), dth2=float(self.dth[k, 1]),
                        t=float(self.t[k]),
                        pend_angle=float(pend[k, 0]) if pend is not None else 0.0,
                        pend_vel=float(pend[k, 1]) if pend is not None else 0.0)


def _whole_multiple(span: float, unit: float, what: str, of: str) -> int:
    """How many `unit`s make up `span`; the ValueError names them `what`
    and `of`.

    A control resolution must be an integer multiple of dt, so segment
    boundaries land exactly on physics steps, and a task horizon an integer
    multiple of the MPC resolution, so the executed segments end where the
    task does.
    """
    n = round(span / unit)
    if n < 1 or abs(n * unit - span) > 1e-9:
        raise ValueError(f"{what} {span} is not an integer multiple of "
                         f"{of} {unit}")
    return n


@dataclass
class ControlParameterization:
    """Zero-order-hold control signal: n_actuators values per segment.

    The decision vector stacks segments in time order; segment k spans
    [k*resolution, (k+1)*resolution). A (decision vector, parameterization)
    pair is the one form in which a control plan reaches the rollout layer:
    rollout takes one, rollout_batch a population of them. zoh_control
    decodes it, with values clamped to [lo, hi]; past the horizon the last
    segment holds, so a one-segment vector is a constant command. The
    resolution must be a whole multiple of DT_SIM, so segment boundaries
    land on physics steps; a segment lasts steps_per_segment steps.
    """

    horizon: float
    resolution: float
    n_actuators: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.horizon <= 0.0 or self.resolution <= 0.0:
            raise ValueError("horizon and resolution must be positive")
        _whole_multiple(self.resolution, DT_SIM, "control resolution", "dt")
        if self.horizon < self.resolution - 1e-12:
            raise ValueError("horizon must cover at least one control segment")
        if self.n_actuators < 1:
            raise ValueError("need at least one actuator")
        if self.hi <= self.lo:
            raise ValueError("empty control bounds")

    @property
    def steps_per_segment(self) -> int:
        return round(self.resolution / DT_SIM)

    @property
    def n_segments(self) -> int:
        return int(math.ceil(self.horizon / self.resolution - 1e-12))

    @property
    def dim(self) -> int:
        return self.n_actuators * self.n_segments

    def shift(self, theta) -> np.ndarray:
        """Drop the first segment and duplicate the last (receding-horizon shift)."""
        theta = np.asarray(theta, dtype=float)
        na = self.n_actuators
        return np.concatenate([theta[na:], theta[-na:]])


def _zoh_table(thetas, parameterization: ControlParameterization):
    """Validate and decode (rows, dim) decision vectors for a rollout.

    A decision vector with a non-finite entry is rejected here, once,
    before it can reach a controller (where NaN would read as full muscle
    activation or a NaN torque). Returns the table of shape (rows,
    n_segments, n_actuators), clipped to the control box.
    """
    thetas = np.asarray(thetas, dtype=float)
    n_seg = parameterization.n_segments
    na = parameterization.n_actuators
    if thetas.ndim != 2 or thetas.shape[1] != n_seg * na:
        raise ValueError(f"decision vectors have shape {thetas.shape}, "
                         f"expected (rows, {n_seg * na})")
    if not np.isfinite(thetas).all():
        raise ValueError("decision vector contains a non-finite value")
    return np.clip(thetas.reshape(-1, n_seg, na),
                   parameterization.lo, parameterization.hi)


def zoh_control(theta, parameterization: ControlParameterization):
    """Decode one decision vector for the rollout loop.

    Returns (steps_per_segment, rows): rows[j] is segment j's control row,
    a tuple of floats clipped to the control box, and physics step k reads
    rows[min(k // steps_per_segment, len(rows) - 1)], so steps past the
    horizon hold the last segment. Validation and decoding are _zoh_table's,
    shared with rollout_batch.
    """
    table = _zoh_table(np.reshape(theta, (1, -1)), parameterization)
    return (parameterization.steps_per_segment,
            list(map(tuple, table[0].tolist())))


def _rows(flat, n):
    """A flat list of per-step floats as an array of n rows."""
    return np.array(flat, dtype=float).reshape(n, -1)


def _horizon_steps(task, duration) -> int:
    n = round((duration if duration is not None else task.duration) / DT_SIM)
    if n < 1:
        raise ValueError("horizon shorter than one physics step")
    return n


def _score(task, result: RolloutResult, params, duration) -> float:
    """The cost of a finished, non-diverged episode."""
    # a caller-shortened horizon is an MPC prediction window; score it
    # with the task's length-agnostic variant of the same functional
    windowed = duration is not None and duration < task.duration - 1e-9
    cost_fn = task.window_cost if windowed else task.cost
    return float(cost_fn(result, params))


def rollout(task, controller, theta, parameterization: ControlParameterization,
            params: ArmParams | None = None,
            perturbation: Perturbation | None = None,
            initial_state: ArmState | None = None, controller_state=None,
            ball0: BallState | None = None,
            duration: float | None = None) -> RolloutResult:
    """Simulate one episode of `task` under `controller` and decision vector
    `theta`, the input rollout_batch takes one row of.

    The arm and the actuator state advance at the physics timestep DT_SIM.
    theta is decoded once by zoh_control; physics step k applies segment
    k // steps_per_segment, and steps past the parameterization's horizon
    hold its last segment. The episode lasts `duration` (the task's own
    when None), whatever the horizon. Mass-type perturbations are folded
    into the plant parameters; a pendulum perturbation is co-simulated and
    coupled through cable tension. A non-finite state marks the rollout
    diverged with the sentinel cost.

    The actuator state starts as controller_state (a state row, the
    controller's state0 when None) and ends as the result's
    controller_state. Each step appends its values to one flat list of
    floats per field, and every RolloutResult array is built from its list
    once the episode ends.
    """
    params = params or ArmParams()
    p_eff = perturbation.apply_to(params) if perturbation is not None else params
    coeffs = _Coeffs(p_eff)
    pend_pert = (perturbation if perturbation is not None
                 and perturbation.kind == "chaotic_pendulum" else None)

    steps_per_seg, rows = zoh_control(theta, parameterization)
    last = len(rows) - 1
    n = _horizon_steps(task, duration)
    dt = DT_SIM
    state = initial_state if initial_state is not None else task.initial_state()
    th1, th2 = state.th1, state.th2
    w1, w2 = state.dth1, state.dth2
    phi_p, dphi_p = state.pend_angle, state.pend_vel
    t0 = state.t
    cstate = _state_row(controller, controller_state)

    ball = None
    if getattr(task, "has_ball", False):
        b = ball0 if ball0 is not None else task.initial_ball()
        ball = BallState(**vars(b))
        contact_radius = task.contact_radius

    # one flat list of floats per field; numpy converts a flat list about
    # ten times faster than a list of row tuples
    th, dth, ddth, controls, torques = [th1, th2], [w1, w2], [], [], []
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
        u = rows[min(k // steps_per_seg, last)]
        tau1, tau2, cstate = torques_of(cstate, th1, th2, w1, w2, u, dt)
        t1, t2 = tau1, tau2
        if pend_pert is not None:
            t1, t2, phi_p, dphi_p = _pendulum_step(
                coeffs, th1, th2, w1, w2, t1, t2, pend_pert, phi_p, dphi_p, dt)
        th1, th2, w1, w2, a1, a2 = symp_step(coeffs, th1, th2, w1, w2, t1, t2, dt)
        ddth += (a1, a2)
        controls += u
        torques += (tau1, tau2)
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
        controller_state=cstate,
        ball=_rows(balls, steps + 1) if balls is not None else None,
        pend=_rows(pend, steps + 1) if pend is not None else None,
        cost=SENTINEL_COST, diverged=diverged, termination=termination,
        steps=steps)
    if not diverged:
        result.cost = _score(task, result, params, duration)
    return result


def _state_row(controller, controller_state) -> tuple:
    """The state row a rollout starts from: controller_state, or the
    controller's state0 when it is None."""
    if controller_state is None:
        return controller.state0
    row = tuple(map(float, controller_state))
    if len(row) != len(controller.state0):
        raise ValueError(f"controller state {row} is not {len(controller.state0)} wide")
    return row


def _scalar_only(task, controller, perturbation) -> bool:
    """Cases rollout_batch hands to the scalar rollout, row by row.

    The array kernel models no ball (contact per row), no goal that ends
    rows at different steps and no pendulum load; the Hatze activation
    needs **, whose np.power form differs in the last bit.
    """
    return (getattr(task, "has_ball", False)
            or getattr(task, "terminal_threshold", None) is not None
            or (perturbation is not None and perturbation.kind == "chaotic_pendulum")
            or getattr(controller, "activation_model", None) == "hatze")


def rollout_batch(task, controller, thetas, parameterization: ControlParameterization,
                  params: ArmParams | None = None,
                  perturbation: Perturbation | None = None,
                  initial_state: ArmState | None = None, controller_state=None,
                  ball0: BallState | None = None,
                  duration: float | None = None) -> np.ndarray:
    """Costs of a (population, dim) array of zero-order-hold decision vectors.

    Row i's cost is the cost of
    rollout(task, controller, thetas[i], parameterization, ...) with the
    same keyword arguments. All rows advance together in
    structure-of-arrays form: one ZOH decode for the population, then per
    physics step one call of the controller's batch_torques step and one
    of arm._symp_step on arrays with np.cos/np.sin. Every other operation
    is the scalar path's, in its order, so the costs agree bit for bit
    wherever np.cos/np.sin equal math.cos/math.sin (tests/test_batch.py
    probes that, and holds the paths to rtol 1e-9 where they differ).
    th, dth and ddth are recorded as (population, n + 1, 2) arrays. A
    row with a non-finite angle or velocity sample is diverged and scores
    SENTINEL_COST; every other row is scored by the task's own cost (or
    window cost) on a RolloutResult of its own, with th, dth, ddth and
    controls filled in and torques and controller_state left None. Every
    row starts from the same state row, controller_state (state0 when
    None), as column i of the array the batch step advances. The cases in
    _scalar_only run through `rollout` row by row instead.
    """
    table = _zoh_table(thetas, parameterization)
    params = params or ArmParams()
    if _scalar_only(task, controller, perturbation):
        return np.array([
            rollout(task, controller, theta, parameterization, params=params,
                    perturbation=perturbation, initial_state=initial_state,
                    controller_state=controller_state, ball0=ball0,
                    duration=duration).cost
            for theta in np.asarray(thetas, dtype=float)])

    p_eff = perturbation.apply_to(params) if perturbation is not None else params
    coeffs = _Coeffs(p_eff)
    n = _horizon_steps(task, duration)
    dt = DT_SIM
    state = initial_state if initial_state is not None else task.initial_state()
    lam = table.shape[0]
    cstate = np.tile(np.reshape(_state_row(controller, controller_state),
                                (-1, 1)), lam)
    torques_of = controller.batch_torques(dt)

    # per segment, an (n_actuators, population) block of controls
    blocks = list(np.ascontiguousarray(table.transpose(1, 2, 0)))
    segment = np.minimum(np.arange(n) // parameterization.steps_per_segment,
                         len(blocks) - 1)
    th1, th2 = np.full(lam, state.th1), np.full(lam, state.th2)
    w1, w2 = np.full(lam, state.dth1), np.full(lam, state.dth2)
    # row i's samples are th[i], a contiguous (n + 1, 2) trajectory; each
    # step writes one column across the rows
    th = np.empty((lam, n + 1, 2))
    dth = np.empty((lam, n + 1, 2))
    ddth = np.empty((lam, n + 1, 2))
    th[:, 0] = state.th1, state.th2
    dth[:, 0] = state.dth1, state.dth2
    cos, sin = np.cos, np.sin
    with np.errstate(all="ignore"):          # diverging rows overflow
        for k, s in enumerate(segment.tolist()):
            tau1, tau2 = torques_of(cstate, th1, th2, w1, w2, blocks[s])
            th1, th2, w1, w2, a1, a2 = _batch_step(
                coeffs, th1, th2, w1, w2, tau1, tau2, dt, cos=cos, sin=sin)
            th[:, k + 1, 0] = th1
            th[:, k + 1, 1] = th2
            dth[:, k + 1, 0] = w1
            dth[:, k + 1, 1] = w2
            ddth[:, k, 0] = a1
            ddth[:, k, 1] = a2
        # the terminal sample's acceleration under the last torques, as
        # rollout records it (the step's a1, a2 are _accel's)
        a1, a2 = _batch_step(coeffs, th1, th2, w1, w2, tau1, tau2, dt,
                             cos=cos, sin=sin)[4:]
        ddth[:, n, 0] = a1
        ddth[:, n, 1] = a2
    finite = np.isfinite(th).all(axis=(1, 2)) & np.isfinite(dth).all(axis=(1, 2))

    costs = np.full(lam, SENTINEL_COST)
    t = state.t + dt * np.arange(n + 1)
    for i in np.flatnonzero(finite).tolist():
        result = RolloutResult(
            dt=dt, t=t, th=th[i], dth=dth[i], ddth=ddth[i],
            controls=table[i][segment], torques=None, controller_state=None,
            ball=None, pend=None, cost=SENTINEL_COST, diverged=False,
            termination="horizon", steps=n)
        costs[i] = _score(task, result, params, duration)
    return costs


def parameterization_for(task, controller, resolution: float) -> ControlParameterization:
    """The task-length plan of `controller`, in its control box."""
    return ControlParameterization(horizon=task.duration, resolution=resolution,
                                   n_actuators=controller.n_controls,
                                   lo=controller.lo, hi=controller.hi)


def _box_center(par: ControlParameterization) -> np.ndarray:
    """The search start of every CMA-ES run: the middle of the control box
    (0.5 for muscles, 0 for the torque family) in every coordinate."""
    return np.full(par.dim, 0.5 * (par.lo + par.hi))


def open_loop_optimize(task, controller, resolution: float,
                       cma_config: CmaConfig, params: ArmParams | None = None,
                       perturbation: Perturbation | None = None):
    """Optimize a zero-order-hold plan of `controller` for the task with
    CMA-ES.

    The plan is the controller's task-length parameterization at
    `resolution` (parameterization_for). Each generation is scored by one
    rollout_batch call; the best plan is rolled out once more with the
    scalar rollout. CMA-ES starts from the middle of the control box
    (_box_center) with cma_config's budget, step size and seed. Returns
    (best_theta, best_rollout, trace, parameterization).
    """
    par = parameterization_for(task, controller, resolution)

    def objective(thetas):
        return rollout_batch(task, controller, thetas, par, params=params,
                             perturbation=perturbation)

    best_x, best_f, trace = cma_es(objective, _box_center(par), cma_config)
    best = rollout(task, controller, best_x, par, params=params,
                   perturbation=perturbation)
    return best_x, best, trace, par


@dataclass
class MpcConfig:
    """Budgets and horizons of the receding-horizon controller.

    The budgets are checked when it is built: the warm start's by its
    CmaConfig (`warm`), and refine_budget must be at least 1.
    """

    t_pred: float = 0.3            # prediction horizon, seconds
    resolution: float = 0.01       # control step, seconds
    warm_population: int = 36
    warm_generations: int = 20
    refine_budget: int = 50        # evaluations per control step
    seed: int = 0

    def __post_init__(self):
        if self.refine_budget < 1:
            raise ValueError(f"refine_budget must be at least 1, "
                             f"not {self.refine_budget}")
        self.warm                   # CmaConfig checks the warm-start budget

    @property
    def warm(self) -> CmaConfig:
        """The warm start's CMA-ES settings, with step size WARM_SIGMA0."""
        return CmaConfig(population=self.warm_population,
                         generations=self.warm_generations,
                         sigma0=WARM_SIGMA0, seed=self.seed)


@dataclass
class MpcResult:
    """One receding-horizon run. Its cost and divergence are the executed
    trajectory's (executed.cost, the functional OC applies, and
    executed.diverged), and the evaluations it spent are step_evals[-1]."""

    executed: RolloutResult
    step_costs: np.ndarray        # executed stage cost averaged per control step
    step_evals: np.ndarray        # evaluations spent before each executed step
    plans: np.ndarray             # plan in force at each executed control step


def mpc_run(task, controller, mpc: MpcConfig,
            params: ArmParams | None = None,
            perturbation: Perturbation | None = None) -> MpcResult:
    """Receding-horizon control of the task with `controller`: CMA-ES warm
    start, then per-step refinement.

    The plant feels the full perturbation; the prediction model only includes
    it when perturbation.visible_to_prediction is set. At each control step
    the plant runs the plan for one segment (a rollout of the plan that
    lasts mpc.resolution, so only its first segment is read), the plan is
    shifted (last segment duplicated), and a pattern search with a fixed
    evaluation budget refines it against the prediction model from the
    latest plant snapshot: the arm state and the actuator state row the
    executed segment ended in. Plant and prediction share one controller,
    which holds parameters only. The window is the controller's OC
    parameterization (parameterization_for) with horizon mpc.t_pred. The
    warm start is CMA-ES from the middle of the control box with mpc.warm
    (step size WARM_SIGMA0), and it scores each generation with
    rollout_batch; the refinement starts at radius REFINE_RADIUS, and it
    and the plant segments use the scalar rollout. mpc.resolution must be
    a whole multiple of DT_SIM and divide the task's horizon (ValueError
    before any work otherwise).

    The executed trajectory is one rollout, from the task's initial state,
    of the first segments of the plans applied, on the plant; it walks the
    plant segments' states bit for bit, and its cost is the functional OC
    applies. MpcResult.step_evals is the running count of evaluations
    actually spent when each control step was executed; the run spends no
    evaluation after its last step, so step_evals[-1] is the run's total.
    """
    params = params or ArmParams()
    visible = perturbation is not None and perturbation.visible_to_prediction
    pred_pert = perturbation if visible else None

    par = replace(parameterization_for(task, controller, mpc.resolution),
                  horizon=mpc.t_pred)
    n_ctrl = _whole_multiple(task.duration, mpc.resolution, "task horizon",
                             "MPC resolution")

    state = task.initial_state()
    ctrl_state = controller.state0
    ball = task.initial_ball() if getattr(task, "has_ball", False) else None

    def window_objective(snap_state, snap_ctrl, snap_ball):
        def objective(theta):
            return rollout(task, controller, theta, par, params=params,
                           perturbation=pred_pert, initial_state=snap_state,
                           controller_state=snap_ctrl, ball0=snap_ball,
                           duration=mpc.t_pred).cost
        return objective

    def warm_objective(thetas):         # from the initial snapshot
        return rollout_batch(task, controller, thetas, par, params=params,
                             perturbation=pred_pert, initial_state=state,
                             controller_state=ctrl_state, ball0=ball,
                             duration=mpc.t_pred)

    plan, _, warm_trace = cma_es(warm_objective, _box_center(par), mpc.warm)
    evals = warm_trace.total_evals

    plans = []
    step_evals = []
    for k in range(n_ctrl):
        plans.append(plan.copy())
        step_evals.append(evals)
        seg = rollout(task, controller, plan, par, params=params,
                      perturbation=perturbation, initial_state=state,
                      controller_state=ctrl_state, ball0=ball,
                      duration=mpc.resolution)
        state, ctrl_state = seg.final_state, seg.controller_state
        if ball is not None:
            bx, bz, bdx, bdz = seg.ball[-1]
            ball = BallState(x=float(bx), z=float(bz), dx=float(bdx),
                             dz=float(bdz), mass=ball.mass)
        if seg.termination != "horizon" or k == n_ctrl - 1:
            break
        plan = par.shift(plan)
        plan, _, refine_evals = local_refine(
            window_objective(state, ctrl_state, ball), plan,
            REFINE_RADIUS, mpc.refine_budget, lo=par.lo, hi=par.hi)
        evals += refine_evals

    na = par.n_actuators
    executed = rollout(task, controller,
                       np.concatenate([p[:na] for p in plans]),
                       replace(par, horizon=len(plans) * mpc.resolution),
                       params=params, perturbation=perturbation)
    if not executed.diverged:
        stage = task.stage_series(executed, params)
        spc = par.steps_per_segment
        per_step = [float(stage[i * spc:(i + 1) * spc + 1].mean())
                    for i in range(len(plans))]
    else:
        per_step = [SENTINEL_COST] * len(plans)
    return MpcResult(executed=executed, step_costs=np.asarray(per_step),
                     step_evals=np.asarray(step_evals), plans=np.asarray(plans))


def calibrate_torque_limits(torques) -> tuple:
    """Per-joint peak |torque| over a collection of (n, 2) torque arrays;
    intended to transfer muscle-run torque envelopes onto the torque-family
    actuators.
    """
    peak = np.zeros(2)
    count = 0
    for tq in torques:
        tq = np.asarray(tq, dtype=float)
        if tq.size == 0:
            continue
        peak = np.maximum(peak, np.abs(tq).max(axis=0))
        count += 1
    if count == 0:
        raise ValueError("no torque data to calibrate from")
    return float(peak[0]), float(peak[1])
