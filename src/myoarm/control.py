"""Rollouts, open-loop trajectory optimization, and sampling-based MPC.

The control layer has one calling convention. Every entry point (rollout,
rollout_batch, open_loop_optimize, mpc_run) takes the controller object
itself (actuators.make_controller builds one from a run label such as
'muscle-nofl'), and every one runs at the one physics timestep DT_SIM. A
control plan has one form everywhere: a zero-order-hold decision vector
with its ControlParameterization, which `rollout` takes one of and
`rollout_batch` a population of, and which zoh_control decodes. The
parameterization owns its alignment with the physics steps: it refuses a
resolution or a horizon that is not a whole multiple of DT_SIM when it is
built, says how many steps a segment lasts (steps_per_segment), and sets
the episode length (n_steps). The task owns the arm: a rollout simulates
task.params and the task's costs read the same arm, so the callers hand in
only the plan, the controller and, for MPC, a start snapshot. MPC re-plans
against a prediction model that only sees perturbations flagged as
visible; each plant segment is an unscored rollout (_simulate) of the
first segment of the plan in force, and the executed trajectory is one
rollout of the first segments it applied.

Actuator state is the controller's state row (see actuators): a rollout
starts from `controller_state` (the controller's state0 when None), passes
the row through controller.torques at every step, and returns the row
after its last step as RolloutResult.controller_state. Every step is
DT_SIM, so a controller takes no timestep, and the decode is the one clip:
a controller takes the decoded control row as it is. Controllers hold
parameters only, so one controller serves any number of rollouts, and MPC
carries the plant's actuator state from one segment to the next as that
row, next to the arm state.

Two rollout paths share one step and one scoring rule, and both carry
each new configuration's mass-matrix terms into the next step instead of
deriving them again. `rollout` runs one episode on floats and is the
reference; its loop (_simulate) writes arm._symp_step's arithmetic out
inline, the same operations in the same order, because a call per step is
a sizeable share of a short MPC window's time. `rollout_batch` scores a
whole (population, dim) array of decision vectors in lockstep, one call of
arm._symp_step on NumPy arrays per physics step, which takes the terms of
the configuration it starts from and returns the new one's, and gives
every row the cost `rollout` gives it. At a CMA-ES population's size a
NumPy call's fixed cost is most of its cost, so no operation of the batch
step mixes a Python float with an array: the step's constants and dt are
0-d float64 arrays (_array_coeffs), and so are the controllers' in their
array kernels. So the step's arithmetic lives in exactly two places,
_symp_step and _simulate's loop, and tests pin each: in
tests/test_kernels.py, test_symp_step_equals_its_composed_reference holds
_symp_step to the step composed from arm._mass_matrix and arm._bias,
test_carried_mass_terms_are_the_new_configurations the terms it hands on
to _mass_matrix, test_array_step_matches_the_scalar_step_element_by_element
its array use, with rollout_batch's constants, to its float use, and the
rollout_reference tests hold the loop, step by step, to the composed step;
tests/test_batch.py holds rollout_batch's costs to rollout's. rollout_batch
scores its population with one call of the task's cost (or window cost)
on the population's arrays, which gives every row the float `rollout`'s
call gives it. cma_es hands each generation to its objective as one such
array, so open-loop optimization and the MPC warm start score populations
with rollout_batch;
the pattern-search refinement, MPC's executed trajectory and the best-plan
rollouts use `rollout`, and the MPC plant segments its unscored half.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .arm import (ArmState, BallState, Perturbation, _accel, _Coeffs, _hand,
                  _mass_terms, _pendulum_forces, _pendulum_step, _symp_step,
                  ball_step)
from .optimizers import CmaConfig, cma_es, local_refine

DT_SIM = 0.005                 # physics timestep, seconds
SENTINEL_COST = 1e9            # diverged run, minimization convention
WARM_SIGMA0 = 0.2              # MPC warm start: CMA-ES initial step size
REFINE_RADIUS = 0.1            # MPC refinement: initial pattern-search radius

# rollout_batch's step, under a name of its own: perfbench/spans.py wraps
# control._symp_step as its span of scalar steps, which must not time array
# steps. The scalar loop carries an inline copy of the step, so that span
# sees no call now; control._symp_step stays so the span still finds it.
# Both names take and return the carried mass-matrix terms (arm._mass_terms).
_batch_step = _symp_step


@dataclass
class RolloutResult:
    """Trajectory of one episode at the physics step DT_SIM, plus its
    scalar cost.

    th/dth/ddth have one row per sample (n_steps + 1); controls and torques
    have one row per step. Sample k is at time t0 + DT_SIM*k; the property
    t gives those times as an array, built when it is read. ddth[k] is the
    acceleration used to advance sample k; the final row repeats the last
    applied torque's acceleration at the terminal state. controller_state
    is the controller's state row after the last step, the row a follow-on
    rollout starts from. rollout records one row of eight floats per sample
    in one array, built once after the episode from one flat list, and th,
    dth, ddth and torques are column views of it; controls are rows of the
    decoded control table. A cost of NaN marks an episode that was
    simulated but not scored (MPC's plant segments).

    rollout_batch scores a population as one result whose th, dth, ddth and
    controls have a leading row axis, one row per episode; it leaves
    torques and controller_state None, since no task cost reads them, and
    t and final_state describe one episode only.
    """

    t0: float
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
    def t(self) -> np.ndarray:
        return self.t0 + DT_SIM * np.arange(self.steps + 1)

    @property
    def final_state(self) -> ArmState:
        k = self.steps
        pend = self.pend
        return ArmState(th1=float(self.th[k, 0]), th2=float(self.th[k, 1]),
                        dth1=float(self.dth[k, 0]), dth2=float(self.dth[k, 1]),
                        t=self.t0 + DT_SIM * k,
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
    decodes it, with values clamped to [lo, hi]. The resolution must be a
    whole multiple of DT_SIM, so segment boundaries land on physics steps;
    a segment lasts steps_per_segment steps. So must the horizon, so a plan
    ends on a physics step: a rollout of the plan lasts n_steps steps (an
    MPC window exactly t_pred). The horizon need not be a multiple of the
    resolution, and then the last segment is a partial one.
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
        _whole_multiple(self.horizon, DT_SIM, "horizon", "dt")
        if self.n_actuators < 1:
            raise ValueError("need at least one actuator")
        if self.hi <= self.lo:
            raise ValueError("empty control bounds")

    @property
    def steps_per_segment(self) -> int:
        return round(self.resolution / DT_SIM)

    @property
    def n_steps(self) -> int:
        return round(self.horizon / DT_SIM)

    @property
    def n_segments(self) -> int:
        return int(math.ceil(self.horizon / self.resolution - 1e-12))

    @property
    def dim(self) -> int:
        return self.n_actuators * self.n_segments

    @cached_property
    def segment_of_step(self) -> np.ndarray:
        """The segment each of the plan's n_steps physics steps applies:
        step k reads segment k // steps_per_segment. Built on first use and
        kept, read-only, for every rollout of this parameterization."""
        segment = np.arange(self.n_steps) // self.steps_per_segment
        segment.flags.writeable = False
        return segment

    def shift(self, theta) -> np.ndarray:
        """Drop the first segment and duplicate the last (receding-horizon shift)."""
        theta = np.asarray(theta, dtype=float)
        na = self.n_actuators
        return np.concatenate([theta[na:], theta[-na:]])


def _zoh_table(thetas, parameterization: ControlParameterization):
    """Validate and decode (rows, dim) decision vectors for a rollout.

    A decision vector with a non-finite entry is rejected here, once,
    before it can reach a controller (where NaN would become a NaN
    activity or torque). Returns the table of shape (rows, n_segments,
    n_actuators), clipped to the control box: this clip is the only one,
    and the controllers take its rows as they are.
    """
    thetas = np.asarray(thetas, dtype=float)
    n_seg = parameterization.n_segments
    na = parameterization.n_actuators
    if thetas.ndim != 2 or thetas.shape[1] != n_seg * na:
        raise ValueError(f"decision vectors have shape {thetas.shape}, "
                         f"expected (rows, {n_seg * na})")
    if not np.isfinite(thetas).all():
        raise ValueError("decision vector contains a non-finite value")
    return thetas.reshape(-1, n_seg, na).clip(parameterization.lo,
                                              parameterization.hi)


def zoh_control(theta, parameterization: ControlParameterization):
    """Decode one decision vector: its (n_segments, n_actuators) table of
    control rows, clipped to the control box. Physics step k applies row
    parameterization.segment_of_step[k]. Validation and decoding are
    _zoh_table's, shared with rollout_batch.
    """
    return _zoh_table(np.asarray(theta, dtype=float).reshape(1, -1),
                      parameterization)[0]


def _rows(flat, n):
    """A flat list of per-step floats as an array of n rows."""
    return np.fromiter(flat, float, len(flat)).reshape(n, -1)


def _score(task, result: RolloutResult, parameterization):
    """The cost of a finished, non-diverged episode, or the costs of a
    population of them (a result with a leading row axis)."""
    # a plan shorter than the task is an MPC prediction window or an MPC
    # run that stopped early; score it with the task's length-agnostic
    # variant of the same functional
    windowed = parameterization.horizon < task.duration - 1e-9
    return (task.window_cost if windowed else task.cost)(result)


def rollout(task, controller, theta, parameterization: ControlParameterization,
            perturbation: Perturbation | None = None,
            initial_state: ArmState | None = None, controller_state=None,
            ball0: BallState | None = None) -> RolloutResult:
    """Simulate one episode of `task` under `controller` and decision vector
    `theta`, the input rollout_batch takes one row of, and score it.

    The arm, task.params, and the actuator state advance at the physics
    timestep DT_SIM. theta is decoded once, by zoh_control; physics step k
    applies segment k // steps_per_segment, and the episode lasts the
    parameterization's n_steps steps unless the task's goal or a
    divergence ends it first. Mass-type perturbations are folded into the
    plant parameters; a pendulum perturbation is co-simulated and coupled
    through cable tension. A non-finite state marks the rollout diverged
    with the sentinel cost, and so does a step whose math.cos or math.sin
    meets an overflowed angle (the samples it did not record are NaN),
    which rollout_batch, where np.cos gives NaN, scores the same. Any other
    episode is scored by the task's cost, or its window_cost when the
    plan's horizon is shorter than the task's.

    The actuator state starts as controller_state (a state row, the
    controller's state0 when None) and ends as the result's
    controller_state. _simulate runs the episode; this function adds the
    score.
    """
    result = _simulate(task, controller, theta, parameterization,
                       perturbation, initial_state, controller_state, ball0)
    if not result.diverged:
        result.cost = float(_score(task, result, parameterization))
    return result


def _simulate(task, controller, theta, parameterization, perturbation,
              initial_state, controller_state, ball0) -> RolloutResult:
    """rollout's episode without its score: the cost is SENTINEL_COST if it
    diverged and NaN otherwise. MPC's plant segments, whose cost nothing
    reads, run this.

    One loop serves every case: per step one controller.torques call, then
    arm._symp_step's arithmetic written out inline (the pendulum load, the
    ball and the goal each behind a per-step check). Each step ends by
    computing its new configuration's cos(th2), m11, s and det, and the
    next step starts from them. A new state is tested for finiteness with
    one expression.

    The recorder: each step appends one record of eight floats, (tau1,
    tau2, a1, a2, th1, th2, w1, w2), to one flat list that starts with the
    initial (th1, th2, w1, w2) and ends with a pad pair and the terminal
    acceleration. So row j of the (steps + 1, 8) array built from the list
    once the episode ends is sample j's th, dth, the torques of step j and
    ddth, and th, dth, ddth and torques are column views of it. The loop
    reads each step's control row from zoh_control's per-segment table as
    a list; controls, one row per step, is indexed out of that table. A
    pendulum load and a ball each keep a list of their own.
    """
    params = task.params
    p_eff = perturbation.apply_to(params) if perturbation is not None else params
    coeffs = _Coeffs(p_eff)
    pend_pert = (perturbation if perturbation is not None
                 and perturbation.kind == "chaotic_pendulum" else None)

    table = zoh_control(theta, parameterization)
    controls = table[parameterization.segment_of_step]
    rows, sps = table.tolist(), parameterization.steps_per_segment
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

    # numpy converts a flat list of floats about ten times faster than a
    # list of row tuples
    rec = [th1, th2, w1, w2]
    pend = [phi_p, dphi_p] if pend_pert is not None else None
    balls = [ball.x, ball.z, ball.dx, ball.dz] if ball is not None else None

    torques_of = controller.torques
    cos, sin = math.cos, math.sin
    m11_0, cross, cross2 = coeffs.m11_0, coeffs.cross, coeffs.cross2
    qb, kg1, kg2 = coeffs.qb, coeffs.kg1, coeffs.kg2
    is_done = (task.is_done if getattr(task, "terminal_threshold", None) is not None
               else None)
    diverged = False
    termination = "horizon"
    steps = 0
    tau1 = tau2 = 0.0
    # the mass-matrix terms of the configuration the next step starts from;
    # each step computes its new configuration's, so only the first are
    # computed here. An infinite th2 leaves them NaN: the first step's
    # sin(th2) then raises, as _symp_step's does, after the controller's
    # torques and before anything is recorded.
    m11, s, det = _mass_terms(coeffs, th2 if math.isfinite(th2) else math.nan)

    try:
        for k in range(parameterization.n_steps):
            tau1, tau2, cstate = torques_of(cstate, th1, th2, w1, w2,
                                            rows[k // sps])
            if pend_pert is None:
                t1, t2 = tau1, tau2
            else:
                t1, t2, phi_p, dphi_p = _pendulum_step(
                    coeffs, th1, th2, w1, w2, tau1, tau2, pend_pert, phi_p,
                    dphi_p, dt)
            # arm._symp_step under torques (t1, t2): its operations in its
            # order, with this configuration's m11, s and det carried over
            # from the step before and the new one's computed at its end
            hs = cross * sin(th2)
            g1 = kg1 * cos(th1)
            g2 = kg2 * cos(th1 - th2)
            r1 = t1 - (g1 - hs * w2 * (2.0 * w1 - w2) + g2)
            r2 = t2 - (hs * w1 * w1 - g2)
            a1 = (qb * r1 + s * r2) / det
            a2 = (m11 * r2 + s * r1) / det
            p2 = qb * w2 - s * w1
            q1 = m11 * w1 - s * w2 + dt * (t1 - (g1 + g2))
            qbq1 = qb * q1
            sq1 = s * q1
            u1 = (qbq1 + s * p2) / det
            u2 = (m11 * p2 + sq1) / det
            q2 = p2 + dt * (t2 - (hs * u1 * (u1 - u2) - g2))
            u1 = (qbq1 + s * q2) / det
            u2 = (m11 * q2 + sq1) / det
            q2 = p2 + dt * (t2 - (hs * u1 * (u1 - u2) - g2))
            u1 = (qbq1 + s * q2) / det
            u2 = (m11 * q2 + sq1) / det
            q2 = p2 + dt * (t2 - (hs * u1 * (u1 - u2) - g2))
            u1 = (qbq1 + s * q2) / det
            u2 = (m11 * q2 + sq1) / det
            th1 = th1 + dt * u1
            th2 = th2 + dt * u2
            c2 = cos(th2)
            m11 = m11_0 + cross2 * c2
            s = qb + cross * c2
            det = m11 * qb - s * s
            w1 = (qbq1 + s * q2) / det
            w2 = (m11 * q2 + s * q1) / det
            if pend is not None:
                pend += (phi_p, dphi_p)
            rec += (tau1, tau2, a1, a2, th1, th2, w1, w2)
            steps = k + 1
            if ball is not None:
                hx, hz, hvx, hvz = _hand(coeffs, th1, th2, w1, w2)
                ball = ball_step(ball, (hx, hz), (hvx, hvz), dt, g=p_eff.g,
                                 contact_radius=contact_radius)
                balls += (ball.x, ball.z, ball.dx, ball.dz)
            # x * 0.0 is 0.0 for a finite x and NaN for an infinite or NaN one
            if th1 * 0.0 + th2 * 0.0 + w1 * 0.0 + w2 * 0.0 != 0.0:
                diverged = True
                termination = "diverged"
                break
            if is_done is not None and is_done(
                    ArmState(th1=th1, th2=th2, dth1=w1, dth2=w2, t=t0 + steps * dt)):
                termination = "goal"
                break
    except (ValueError, OverflowError) as exc:
        # math.cos of an overflowed angle raises "math domain error" inside
        # the step, where rollout_batch's np.cos gives NaN: step k
        # diverged, and what it did not record is NaN, its control included.
        # Any other ValueError is not divergence.
        if isinstance(exc, ValueError) and str(exc) != "math domain error":
            raise
        diverged, termination, steps = True, "diverged", k + 1
        if len(rec) < 8 * steps + 4:            # raised before its record
            rec += [math.nan] * 8
            controls = controls[:steps].copy()
            controls[-1] = math.nan
        for flat, size in ((pend, 2 * steps + 2), (balls, 4 * steps + 4)):
            if flat is not None:
                flat += [math.nan] * (size - len(flat))

    # the last row's torque pair is a pad; its ddth is the terminal
    # sample's acceleration, the last step's again when the run diverged
    if diverged:
        a1, a2 = rec[-6], rec[-5]
    elif pend_pert is not None:
        _, _, _, a1, a2 = _pendulum_forces(
            coeffs, th1, th2, w1, w2, tau1, tau2, pend_pert, phi_p, dphi_p)
    else:
        a1, a2 = _accel(coeffs, th1, th2, w1, w2, tau1, tau2)
    rec += (math.nan, math.nan, a1, a2)
    samples = _rows(rec, steps + 1)

    return RolloutResult(
        t0=t0, th=samples[:, 0:2], dth=samples[:, 2:4], ddth=samples[:, 6:8],
        controls=controls[:steps], torques=samples[:steps, 4:6],
        controller_state=cstate,
        ball=_rows(balls, steps + 1) if balls is not None else None,
        pend=_rows(pend, steps + 1) if pend is not None else None,
        cost=SENTINEL_COST if diverged else math.nan, diverged=diverged,
        termination=termination, steps=steps)


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


def _array_coeffs(params) -> _Coeffs:
    """_Coeffs(params) with every field a 0-d float64 array: the constants
    rollout_batch hands its array step, with dt as one more (see
    arm._symp_step for why)."""
    coeffs = _Coeffs(params)
    for name in _Coeffs.__slots__:
        setattr(coeffs, name, np.array(getattr(coeffs, name), dtype=float))
    return coeffs


def rollout_batch(task, controller, thetas, parameterization: ControlParameterization,
                  perturbation: Perturbation | None = None) -> np.ndarray:
    """Costs of a (population, dim) array of zero-order-hold decision vectors.

    Row i's cost is the cost of
    rollout(task, controller, thetas[i], parameterization, perturbation),
    an episode from the task's initial state and the controller's state0
    (a start snapshot is rollout's alone). All rows advance together in
    structure-of-arrays form: one ZOH decode for the population, then per
    physics step one call of the step that
    controller.batch_torques(population) makes and one of arm._symp_step
    on arrays with np.cos/np.sin (the step `rollout`'s loop writes out
    inline, operation for operation). Each step takes the mass-matrix
    terms (m11, s, det) the step before handed on, so they are derived once
    per configuration, the first ones by arm._mass_terms; the step's
    constants and dt are 0-d float64 arrays (_array_coeffs), which NumPy
    takes at a lower fixed cost per call than Python floats, with the same
    values. Every other operation is the scalar path's, in its order, and
    every one is the same IEEE operation on the same operands as there,
    so the costs agree bit for bit
    wherever np.cos/np.sin equal math.cos/math.sin (tests/test_batch.py
    probes that, and holds the paths to rtol 1e-9 where they differ).
    th, dth and ddth are recorded as (population, n + 1, 2) arrays. A
    row with a non-finite angle or velocity sample is diverged and scores
    SENTINEL_COST. The other rows are scored together, by one call of the
    task's own cost (or window cost, by _score's rule) on one RolloutResult
    whose th, dth, ddth and controls hold those rows, with a leading row
    axis, and whose torques and controller_state are None; the task gives
    each row the float it gives that row's episode alone. Every row starts
    from the controller's state0, as column i of the array the batch step
    advances. The cases in _scalar_only run through `rollout` row by row
    instead.
    """
    table = _zoh_table(thetas, parameterization)
    if _scalar_only(task, controller, perturbation):
        return np.array([
            rollout(task, controller, theta, parameterization,
                    perturbation=perturbation).cost
            for theta in np.asarray(thetas, dtype=float)])

    params = task.params
    p_eff = perturbation.apply_to(params) if perturbation is not None else params
    coeffs = _array_coeffs(p_eff)
    dt = np.array(DT_SIM)
    n = parameterization.n_steps
    state = task.initial_state()
    lam = table.shape[0]
    cstate = np.tile(np.reshape(controller.state0, (-1, 1)), lam)
    torques_of = controller.batch_torques(lam)

    # per segment, an (n_actuators, population) block of controls
    blocks = list(np.ascontiguousarray(table.transpose(1, 2, 0)))
    segment = parameterization.segment_of_step
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
        # each step takes its configuration's mass-matrix terms and hands
        # on the next one's
        m11, s, det = _mass_terms(coeffs, th2, cos)
        for k, seg in enumerate(segment.tolist()):
            tau1, tau2 = torques_of(cstate, th1, th2, w1, w2, blocks[seg])
            th1, th2, w1, w2, a1, a2, m11, s, det = _batch_step(
                coeffs, th1, th2, w1, w2, tau1, tau2, dt, m11, s, det, cos, sin)
            th[:, k + 1, 0] = th1
            th[:, k + 1, 1] = th2
            dth[:, k + 1, 0] = w1
            dth[:, k + 1, 1] = w2
            ddth[:, k, 0] = a1
            ddth[:, k, 1] = a2
        # the terminal sample's acceleration under the last torques, as
        # rollout records it (the step's a1, a2 are _accel's)
        a1, a2 = _batch_step(coeffs, th1, th2, w1, w2, tau1, tau2, dt, m11,
                             s, det, cos, sin)[4:6]
        ddth[:, n, 0] = a1
        ddth[:, n, 1] = a2
    finite = np.isfinite(th).all(axis=(1, 2)) & np.isfinite(dth).all(axis=(1, 2))

    costs = np.full(lam, SENTINEL_COST)
    rows = np.flatnonzero(finite)
    if rows.size:
        scored = RolloutResult(
            t0=state.t, th=th[rows], dth=dth[rows], ddth=ddth[rows],
            controls=table[rows].take(segment, axis=1), torques=None,
            controller_state=None, ball=None, pend=None, cost=SENTINEL_COST,
            diverged=False, termination="horizon", steps=n)
        costs[rows] = _score(task, scored, parameterization)
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
                       cma_config: CmaConfig):
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
        return rollout_batch(task, controller, thetas, par)

    best_x, best_f, trace = cma_es(objective, _box_center(par), cma_config)
    best = rollout(task, controller, best_x, par)
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
            perturbation: Perturbation | None = None,
            warm_start: tuple | None = None) -> MpcResult:
    """Receding-horizon control of the task with `controller`: CMA-ES warm
    start, then per-step refinement.

    Plant and prediction model run on the task's arm, task.params. The
    plant feels the full perturbation; the prediction model only includes
    it when perturbation.visible_to_prediction is set. At each control step
    the plant runs the plan's first segment (an unscored rollout,
    _simulate, of a one-segment plan), the plan is shifted (last segment
    duplicated), and a pattern search with a fixed evaluation budget
    refines it against the prediction model from the latest plant
    snapshot: the arm state and the actuator state row the executed
    segment ended in. Plant and prediction share one controller, which
    holds parameters only. The window is the controller's OC
    parameterization (parameterization_for) with horizon mpc.t_pred, so a
    window rollout lasts t_pred. The warm start is CMA-ES from the middle
    of the control box with mpc.warm (step size WARM_SIGMA0), and it scores
    each generation with rollout_batch from the task's start; the
    refinement starts at radius REFINE_RADIUS and scores each window with
    the scalar rollout. mpc.resolution must be a whole multiple of DT_SIM
    and divide the task's horizon (ValueError before any work otherwise).

    The executed trajectory is one rollout, from the task's initial state,
    of the first segments of the plans applied, on the plant; it walks the
    plant segments' states bit for bit, and its cost is the functional OC
    applies (window_cost when a goal or divergence stopped the run early).
    MpcResult.step_evals is the running count of evaluations actually
    spent when each control step was executed; the run spends no
    evaluation after its last step, so step_evals[-1] is the run's total.

    warm_start=(plan, evals) replaces the CMA-ES call with its result: the
    warm plan and the evaluations it cost, which step_evals[0] charges to
    this run. An earlier run's (plans[0], step_evals[0]) is that pair, and
    handing it on gives what this run would compute itself whenever the
    warm start's inputs are the same: the task, the controller, the
    budgets and the prediction model (no perturbation at all, or one the
    prediction model does not see). The plan is copied, never modified; a
    plan that is not the window's dim long is a ValueError.
    """
    visible = perturbation is not None and perturbation.visible_to_prediction
    pred_pert = perturbation if visible else None

    par = replace(parameterization_for(task, controller, mpc.resolution),
                  horizon=mpc.t_pred)
    segment = replace(par, horizon=mpc.resolution)
    n_ctrl = _whole_multiple(task.duration, mpc.resolution, "task horizon",
                             "MPC resolution")

    state = task.initial_state()
    ctrl_state = controller.state0
    ball = task.initial_ball() if getattr(task, "has_ball", False) else None

    def window_objective(snap_state, snap_ctrl, snap_ball):
        def objective(theta):
            return rollout(task, controller, theta, par,
                           perturbation=pred_pert, initial_state=snap_state,
                           controller_state=snap_ctrl, ball0=snap_ball).cost
        return objective

    def warm_objective(thetas):         # from the task's start
        return rollout_batch(task, controller, thetas, par,
                             perturbation=pred_pert)

    if warm_start is None:
        plan, _, warm_trace = cma_es(warm_objective, _box_center(par), mpc.warm)
        evals = warm_trace.total_evals
    else:
        plan, evals = np.array(warm_start[0], dtype=float), int(warm_start[1])
        if plan.shape != (par.dim,):
            raise ValueError(f"warm plan has shape {plan.shape}, expected "
                             f"({par.dim},)")

    na = par.n_actuators
    plans = []
    step_evals = []
    for k in range(n_ctrl):
        plans.append(plan.copy())
        step_evals.append(evals)
        seg = _simulate(task, controller, plan[:na], segment, perturbation,
                        state, ctrl_state, ball)
        state, ctrl_state = seg.final_state, seg.controller_state
        if ball is not None:
            bx, bz, bdx, bdz = seg.ball[-1]
            ball = BallState(x=float(bx), z=float(bz), dx=float(bdx),
                             dz=float(bdz))
        if seg.termination != "horizon" or k == n_ctrl - 1:
            break
        plan = par.shift(plan)
        plan, _, refine_evals = local_refine(
            window_objective(state, ctrl_state, ball), plan,
            REFINE_RADIUS, mpc.refine_budget, lo=par.lo, hi=par.hi)
        evals += refine_evals

    executed = rollout(task, controller,
                       np.concatenate([p[:na] for p in plans]),
                       replace(par, horizon=len(plans) * mpc.resolution),
                       perturbation=perturbation)
    if not executed.diverged:
        stage = task.stage_series(executed)
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
    actuators. A ValueError refuses an empty collection and a non-finite
    torque, which no actuator could be given as its ceiling.
    """
    peak = np.zeros(2)
    count = 0
    for tq in torques:
        tq = np.asarray(tq, dtype=float)
        if tq.size == 0:
            continue
        if not np.isfinite(tq).all():
            raise ValueError("torque data contains a non-finite value")
        peak = np.maximum(peak, np.abs(tq).max(axis=0))
        count += 1
    if count == 0:
        raise ValueError("no torque data to calibrate from")
    return float(peak[0]), float(peak[1])
