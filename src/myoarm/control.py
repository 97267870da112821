"""Rollouts, open-loop trajectory optimization, and sampling-based MPC.

The control layer has one calling convention. Every entry point (rollout,
rollout_plans, open_loop_lockstep, mpc_run) takes the controller object
itself (actuators.make_controller builds one from a run label such as
'muscle-nofl'), and every one runs at the one physics timestep DT_SIM. A
control plan has one form everywhere: a zero-order-hold decision vector
with its ControlParameterization, which `rollout` takes one of and
`rollout_plans` populations of, and which zoh_control decodes. The
parameterization owns its alignment with the physics steps: it refuses a
resolution or a horizon that is not a whole multiple of DT_SIM when it is
built, says how many steps a segment lasts (steps_per_segment), and sets
the episode length (n_steps). The task owns the arm: a rollout simulates
task.params and the task's costs read the same arm, so the callers hand in
only the plan, the controller and, for MPC, a start snapshot. MPC re-plans
against a prediction model that only sees perturbations flagged as
visible; each plant segment is an unscored episode (_Window.episode) of
the first segment of the plan in force, and the executed trajectory is
one rollout of the first segments it applied.

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
reference. It prepares one _Window, the episode's fixed inputs (the
effective arm's coefficients, the start snapshot's floats and controller
state row, its mass-matrix terms, the task's stage terms, the segment and
episode lengths), and runs the window's one step loop (_Window._run)
once. That loop writes the step's arithmetic out inline, because a call
per step is a sizeable share of a short MPC window's time.
`rollout_plans` scores several populations of decision vectors (plans
that share the episode length, the arm and the start state) in lockstep,
one call of arm._symp_step per physics step. That is the step's array
kernel, the same operations as the loop's, on one column per row of the
population: it works in place on a (6, N) state block (th1, th2, w1, w2,
a1, a2 rows) and the other blocks of one arm._StepBlocks, and each step's
state is copied into a (n_steps + 2, 6, N) record. Where both joints do
alike, one NumPy call does the work of both on a contiguous (2, N) pair
of rows: the angles, velocities and accelerations are row pairs of the
state, the torques one (2, N) block that the controller's array kernel
writes, and the carried mass-matrix terms the (4, N) block [qb, s, m11,
qb] with [det; det] beside it, so [qb; s], [s; m11] and [m11; qb] are
each one slice. A pair takes some sums and products with their operands
in the other order than the loop's, the one IEEE identity the pairing
adds to the step's (commuted operands of + and *), so every row gets the
cost `rollout` gives it. At a CMA-ES population's size a NumPy call's
fixed cost is most of its cost, so no operation of the population step
mixes a Python float with an array or broadcasts an operand: its
constants are 0-d float64 arrays or tiles of the block's shape, and so
are the controllers' in their array kernels. Neither the arm step nor an
actuator kernel allocates or makes a view: every result goes into a block
made once per rollout_plans call. So the step's arithmetic lives in
exactly two places, _symp_step and _Window._run, and tests pin each:
in tests/test_kernels.py,
test_symp_step_equals_its_composed_reference holds _symp_step, on one
column with math's trigonometry, to the step composed from
arm._mass_matrix and arm._bias, test_carried_mass_terms_are_the_new_configurations
the terms it hands on to _mass_matrix,
test_array_step_matches_the_scalar_step_element_by_element its use on
many columns, in blocks made as rollout_plans makes them, to its use on
each column alone, and the rollout_reference tests hold the loop, step
by step, to the composed step; tests/test_batch.py holds rollout_plans'
costs to rollout's. Each plan's population is scored with one call of
its task's cost (or window cost) on the population's arrays, which gives
every row the float `rollout`'s call gives it. CMA-ES hands out each
generation as one such array (optimizers.CmaEs): the MPC warm start
scores its generations with a one-plan rollout_plans call, and open-loop
optimization advances one or more runs in lockstep (open_loop_lockstep),
scoring a generation of all of them with one rollout_plans call. MPC's
executed trajectory and the best-plan rollouts use `rollout`, and the
MPC plant segments its unscored episode. MPC's pattern-search refinement
prepares one window per control step and probes it once per evaluation
(_Window.probe), so a probe pays only for its decode, its steps and its
score. The probe holds the bound: it takes the incumbent's cost and
stops once a running sum of its stages passes it, and when the plant is
the prediction model a control step's first probe continues the window
that chose the plan in force instead of repeating its steps (see
mpc_run).

An episode with no finite cost costs math.inf, in every path: a rollout
that diverged, a population row that diverged, and a finite trajectory
whose score overflows or is NaN. So every finite cost ranks below it,
whatever its size, and no other number stands for a failed run.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .arm import (ArmState, BallState, Perturbation, _accel, _Coeffs, _hand,
                  _mass_terms, _pendulum_forces, _pendulum_step, _StepBlocks,
                  _step_accel, _symp_step, ball_step)
from .optimizers import CmaConfig, CmaEs, _whole, cma_es, local_refine

DT_SIM = 0.005                 # physics timestep, seconds
WARM_SIGMA0 = 0.2              # MPC warm start: CMA-ES initial step size
REFINE_RADIUS = 0.1            # MPC refinement: initial pattern-search radius
REFINE_SLACK = 1e-9            # MPC refinement: relative margin of a probe's bound


@dataclass
class RolloutResult:
    """Trajectory of one episode at the physics step DT_SIM, plus its
    scalar cost.

    th/dth/ddth have one row per sample (n_steps + 1); controls and torques
    have one row per step. Sample k is at time DT_SIM*k from the episode's
    start; the property t gives those times as an array, built when it is
    read. ddth[k] is the acceleration used to advance sample k; the final
    row repeats the last applied torque's acceleration at the terminal
    state. controller_state
    is the controller's state row after the last step, the row a follow-on
    rollout starts from. rollout records one row of eight floats per sample
    in one array, built once after the episode from one flat list, and th,
    dth, ddth and torques are column views of it; controls are rows of the
    decoded control table. A diverged episode (termination 'diverged',
    which the read-only property diverged tests) costs math.inf. A cost of
    NaN marks an episode that was simulated but not scored (MPC's plant
    segments). Every episode runs to its horizon, its goal or its
    divergence: an MPC refinement probe that stops at its bound returns
    only a cost, and no result (see mpc_run).

    rollout_plans scores a population as one result whose th, dth, ddth and
    controls have a leading row axis, one row per episode; it leaves
    torques and controller_state None, since no task cost reads them, and
    t and final_state describe one episode only. A finished MPC
    refinement window of a task that declares its stages is scored on a
    result that holds only th, dth and ddth (_Window.probe).
    """

    th: np.ndarray
    dth: np.ndarray
    ddth: np.ndarray
    controls: np.ndarray
    torques: np.ndarray
    controller_state: tuple | None
    ball: np.ndarray | None
    pend: np.ndarray | None
    cost: float
    termination: str            # 'horizon', 'goal' or 'diverged'
    steps: int

    @property
    def diverged(self) -> bool:
        return self.termination == "diverged"

    @property
    def t(self) -> np.ndarray:
        return DT_SIM * np.arange(self.steps + 1)

    @property
    def final_state(self) -> ArmState:
        k = self.steps
        pend = self.pend
        return ArmState(th1=float(self.th[k, 0]), th2=float(self.th[k, 1]),
                        dth1=float(self.dth[k, 0]), dth2=float(self.dth[k, 1]),
                        pend_angle=float(pend[k, 0]) if pend is not None else 0.0,
                        pend_vel=float(pend[k, 1]) if pend is not None else 0.0)


def _whole_multiple(span: float, unit: float, what: str, of: str) -> int:
    """How many `unit`s make up `span`; the ValueError names them `what`
    and `of`.

    A control resolution must be an integer multiple of dt, so segment
    boundaries land exactly on physics steps, and a task horizon an integer
    multiple of the MPC resolution, so the executed segments end where the
    task does. A span of infinitely many units, or of NaN, is refused too.
    """
    ratio = span / unit
    if not math.isfinite(ratio):
        raise ValueError(f"{what} {span} is not a finite multiple of "
                         f"{of} {unit}")
    n = round(ratio)
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
    rollout takes one, rollout_plans populations of them. zoh_control
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
    _zoh_table's, shared with rollout_plans.
    """
    return _zoh_table(np.asarray(theta, dtype=float).reshape(1, -1),
                      parameterization)[0]


def _rows(flat, n):
    """A flat list of per-step floats as an array of n rows."""
    return np.fromiter(flat, float, len(flat)).reshape(n, -1)


def _score(task, result: RolloutResult, parameterization):
    """The cost of a finished, non-diverged episode, or the costs of a
    population of them (a result with a leading row axis). A finite
    trajectory whose score overflows costs math.inf, with no warning, and
    so does one that scores NaN: its terminal acceleration, computed on
    Python floats, can be inf - inf while its angles and velocities stay
    finite."""
    # a plan shorter than the task is an MPC prediction window or an MPC
    # run that stopped early; score it with the task's length-agnostic
    # variant of the same functional
    windowed = parameterization.horizon < task.duration - 1e-9
    with np.errstate(over="ignore", invalid="ignore"):
        cost = (task.window_cost if windowed else task.cost)(result)
    if isinstance(cost, np.ndarray):
        return np.where(np.isnan(cost), math.inf, cost)
    return math.inf if math.isnan(cost) else float(cost)


def rollout(task, controller, theta, parameterization: ControlParameterization,
            perturbation: Perturbation | None = None,
            initial_state: ArmState | None = None, controller_state=None,
            ball0: BallState | None = None) -> RolloutResult:
    """Simulate one episode of `task` under `controller` and decision vector
    `theta`, the input rollout_plans takes one row of, and score it.

    The arm, task.params, and the actuator state advance at the physics
    timestep DT_SIM. theta is decoded once, by zoh_control; physics step k
    applies segment k // steps_per_segment, and the episode lasts the
    parameterization's n_steps steps unless the task's goal or a
    divergence ends it first. Mass-type perturbations are folded into the
    plant parameters; a pendulum perturbation is co-simulated and coupled
    through cable tension. A non-finite state marks the rollout diverged
    with cost math.inf, and so does a step whose math.cos or math.sin
    meets an overflowed angle (the samples it did not record are NaN),
    which rollout_plans, where np.cos gives NaN, scores the same. Any other
    episode is scored by the task's cost, or its window_cost when the
    plan's horizon is shorter than the task's; a score that overflows or
    is NaN is math.inf as well, with no warning, as in rollout_plans
    (_score).

    The actuator state starts as controller_state (a state row, the
    controller's state0 when None) and ends as the result's
    controller_state. The episode is one _Window, prepared for it and run
    once (_Window.episode); this function adds the score. A rollout always
    runs to its horizon, its goal or its divergence: only MPC refinement
    stops a losing window early, and it does so on its window's probes
    (_Window.probe, see mpc_run), not through rollout.
    """
    table = zoh_control(theta, parameterization)
    result = _Window(task, controller, parameterization, perturbation,
                     initial_state, controller_state, ball0).episode(table)
    if not result.diverged:
        result.cost = _score(task, result, parameterization)
    return result


class _Window:
    """One scalar episode's inputs, prepared once: the task and the
    controller's torques, the effective arm's _Coeffs (perturbation folded
    in, a pendulum load co-simulated), the start snapshot's floats and
    controller state row (_state_row), the carried mass-matrix terms (m11,
    s, det) of its configuration, the task's stage terms, steps_per_segment
    and n_steps. Plans then run on it any number of times, each through
    the one step loop, _run.

    rollout prepares one for its one episode (episode). MPC prepares one
    per plant segment (episode) and one per control step for its
    refinement, whose evaluations (probe) each pay only for their own
    decode, steps and score.
    """

    def __init__(self, task, controller, parameterization, perturbation=None,
                 initial_state=None, controller_state=None, ball0=None):
        self.task, self.par = task, parameterization
        params = task.params
        self.p_eff = (perturbation.apply_to(params)
                      if perturbation is not None else params)
        self.coeffs = _Coeffs(self.p_eff)
        self.pend_pert = (perturbation if perturbation is not None
                          and perturbation.kind == "chaotic_pendulum" else None)
        state = (initial_state if initial_state is not None
                 else task.initial_state())
        self.start = (state.th1, state.th2, state.dth1, state.dth2)
        self.pend0 = (state.pend_angle, state.pend_vel)
        self.cstate = _state_row(controller, controller_state)
        self.torques_of = controller.torques
        self.ball0 = None
        if task.has_ball:
            self.ball0 = ball0 if ball0 is not None else task.initial_ball()
        self.is_done = (task.is_done if task.terminal_threshold is not None
                        else None)
        self.terms = task.stage_terms() if task.stage_terms is not None else None
        # the mass-matrix terms of the start configuration; each step
        # computes its new configuration's, so only these are computed
        # here. An infinite th2 leaves them NaN: the first step's sin(th2)
        # then raises, after the controller's torques and before anything
        # is recorded.
        self.mass = _mass_terms(self.coeffs, state.th2 if math.isfinite(
            state.th2) else math.nan)
        self.sps = parameterization.steps_per_segment
        self.n_steps = parameterization.n_steps

    def episode(self, table) -> RolloutResult:
        """The episode of the decoded control table `table` (zoh_control's
        or _zoh_table's), unscored: its cost is math.inf if it diverged and
        NaN otherwise. The plant segments of MPC, whose cost nothing reads,
        are episodes, and rollout scores one.

        A step that raised before its record (see _run) diverged, and its
        samples, its control and any pendulum or ball sample it did not
        record are NaN; the terminal ddth row of a diverged episode repeats
        its last step's acceleration.
        """
        out = self._run(table.tolist())
        termination, steps, rec, _, pend, balls, _ = out
        controls = table[self.par.segment_of_step[:steps]]
        if termination == "diverged":
            if len(rec) < 8 * steps + 4:            # raised before its record
                rec += [math.nan] * 8
                controls[-1] = math.nan
            for flat, size in ((pend, 2 * steps + 2), (balls, 4 * steps + 4)):
                if flat is not None:
                    flat += [math.nan] * (size - len(flat))
            rec += (math.nan, math.nan, rec[-6], rec[-5])
        return self._result(out, controls)

    @staticmethod
    def _result(out, controls) -> RolloutResult:
        """The RolloutResult of a finished or diverged _run, with the
        per-step controls `controls`; th, dth, ddth and torques are column
        views of one array built from the record."""
        termination, steps, rec, cstate, pend, balls, _ = out
        samples = _rows(rec, steps + 1)
        return RolloutResult(
            th=samples[:, 0:2], dth=samples[:, 2:4], ddth=samples[:, 6:8],
            controls=controls, torques=samples[:steps, 4:6],
            controller_state=cstate,
            ball=_rows(balls, steps + 1) if balls is not None else None,
            pend=_rows(pend, steps + 1) if pend is not None else None,
            cost=math.inf if termination == "diverged" else math.nan,
            termination=termination, steps=steps)

    def probe(self, theta, bound=None, resume=None):
        """(cost, record) of decision vector theta on this window: one MPC
        refinement evaluation.

        theta is checked and decoded once, by _zoh_table. With a `bound`,
        a window of a task that declares its stages (SmoothReaching's
        stage_terms) stops once the running sum of its stage terms passes
        the bound (see _run), and its cost is that partial sum: a number
        above the bound, to be compared and not read, for which nothing
        else is built and no terminal acceleration is computed. A task
        that leaves stage_terms at None (objectives._Task) is never
        bounded. A diverged window costs math.inf. Any other window gets
        rollout's score, the float rollout gives the same plan from the
        same snapshot. A task with stage terms declares that its window
        cost reads only th, dth and ddth, so its result has no controls
        (their per-step index is the one array a result builds beyond the
        record's).

        record is (the flat sample record, the final controller state row)
        of a window that ran to its horizon, else None. `resume` is such a
        record of this window's plant model, from a snapshot its first
        steps_per_segment steps led to this window's snapshot, with this
        theta the receding-horizon shift of that window's plan: the
        window's steps before its last steps_per_segment are then that
        window's steps from its sample steps_per_segment on, bit for bit,
        so they are read from the record and only the last
        steps_per_segment steps run (see _run). A resumed window is never
        bounded, and neither has a pendulum load or a ball.
        """
        table = _zoh_table(np.reshape(theta, (1, -1)), self.par)[0]
        out = self._run(table.tolist(), bound, resume)
        termination, steps, rec, cstate, _, _, partial = out
        if termination == "bound":
            return partial, None
        if termination == "diverged":
            return math.inf, None
        # a task with stage terms scores th, dth and ddth only
        result = self._result(out, None if self.terms is not None else
                              table[self.par.segment_of_step[:steps]])
        cost = _score(self.task, result, self.par)
        return cost, (rec, cstate) if termination == "horizon" else None

    def _run(self, rows, bound=None, resume=None):
        """Step the window under the control rows `rows` (a decoded table
        as lists); returns (termination, steps, rec, controller state row,
        pend, balls, run).

        One loop serves every case: per step one controller.torques call,
        then arm._symp_step's arithmetic written out inline (the pendulum
        load, the ball and the goal each behind a per-step check). Each
        step ends by computing its new configuration's cos(th2), m11, s and
        det, and the next step starts from them. A new state is tested for
        finiteness with one expression.

        The recorder: each step appends one record of eight floats, (tau1,
        tau2, a1, a2, th1, th2, w1, w2), to one flat list, rec, that starts
        with the initial (th1, th2, w1, w2); a window that ran to its
        horizon or its goal ends it with a pad pair and the terminal
        acceleration. So row j of the (steps + 1, 8) array built from the
        list is sample j's th, dth, the torques of step j and ddth. The
        loop reads each step's control row from the table as a list. A
        pendulum load and a ball each keep a list of their own (pend,
        balls). A diverged window's lists end where it stopped: a step
        that raised ends them one record short, and episode pads them.

        `resume`, a (rec, controller state row) record of a window of n
        steps that ran to its horizon (see probe), starts the loop at step
        n - steps_per_segment from that record's sample
        steps_per_segment on, its last sample's state and the record's
        controller state, with that sample's mass-matrix terms computed
        again (_mass_terms, the loop's own operations).

        The bound, in the same loop, only when `bound` is set and the task
        declares its stages: the running sum, run, starts with sample 0's
        angle and velocity terms. Each step adds those of the sample it
        makes and, from the second step on, the jerk term of the sample
        before the one before it, the last whose neighbouring
        accelerations are known (sample 0's one-sided jerk at the second
        step). A sum that leaves out non-negative terms is still a lower
        bound. The check comes after the divergence and goal checks, so a
        step that diverges is still a divergence. A window that passes the
        bound stops with termination 'bound'. A window that runs to its
        horizon adds the last two jerk terms once the terminal
        acceleration is known; the sum then holds every term of the cost,
        and a window whose sum passes the bound there stops with
        termination 'bound' as well, with all its steps.
        """
        coeffs, sps, dt = self.coeffs, self.sps, DT_SIM
        pend_pert, torques_of = self.pend_pert, self.torques_of
        if resume is None:
            th1, th2, w1, w2 = self.start
            # numpy converts a flat list of floats about ten times faster
            # than a list of row tuples
            rec = [th1, th2, w1, w2]
            cstate, k0 = self.cstate, 0
            m11, s, det = self.mass
        else:
            record, cstate = resume
            k0 = self.n_steps - sps
            rec = record[8 * sps:8 * self.n_steps + 4]
            th1, th2, w1, w2 = rec[-4:]
            m11, s, det = _mass_terms(coeffs, th2)
        phi_p, dphi_p = self.pend0
        pend = [phi_p, dphi_p] if pend_pert is not None else None
        ball = self.ball0
        balls = None
        if ball is not None:
            balls = [ball.x, ball.z, ball.dx, ball.dz]
            g, contact_radius = self.p_eff.g, self.task.contact_radius

        cos, sin = math.cos, math.sin
        m11_0, cross, cross2 = coeffs.m11_0, coeffs.cross, coeffs.cross2
        qb, kg1, kg2 = coeffs.qb, coeffs.kg1, coeffs.kg2
        is_done = self.is_done
        termination = "horizon"
        steps = k0
        tau1 = tau2 = 0.0
        run = None
        terms = self.terms if bound is not None else None
        if terms is not None:
            kt1, kt2, d1, d2, kv1, kv2, dd1, dd2, gain = terms
            half = gain / 2.0
            e1 = th1 - d1
            e2 = th2 - d2
            v1 = w1 - dd1
            v2 = w2 - dd2
            run = kt1 * e1 * e1 + kt2 * e2 * e2 + kv1 * v1 * v1 + kv2 * v2 * v2
            # the accelerations of the last step (la) and the one before (pa)
            la1 = la2 = pa1 = pa2 = 0.0

        try:
            for k in range(k0, self.n_steps):
                tau1, tau2, cstate = torques_of(cstate, th1, th2, w1, w2,
                                                rows[k // sps])
                if pend_pert is None:
                    t1, t2 = tau1, tau2
                else:
                    t1, t2, phi_p, dphi_p = _pendulum_step(
                        coeffs, th1, th2, w1, w2, tau1, tau2, pend_pert, phi_p,
                        dphi_p, dt)
                # arm._symp_step under torques (t1, t2): its operations in
                # its order (some of its pairs take a sum's or a product's
                # operands the other way round, which IEEE arithmetic keeps
                # exactly), with this configuration's m11, s and det
                # carried over from the step before and the new one's
                # computed at its end
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
                    ball = ball_step(ball, (hx, hz), (hvx, hvz), dt, g=g,
                                     contact_radius=contact_radius)
                    balls += (ball.x, ball.z, ball.dx, ball.dz)
                # x * 0.0 is 0.0 for a finite x and NaN for an infinite or NaN one
                if th1 * 0.0 + th2 * 0.0 + w1 * 0.0 + w2 * 0.0 != 0.0:
                    termination = "diverged"
                    break
                if is_done is not None and is_done(
                        ArmState(th1=th1, th2=th2, dth1=w1, dth2=w2)):
                    termination = "goal"
                    break
                if terms is not None:
                    e1 = th1 - d1
                    e2 = th2 - d2
                    v1 = w1 - dd1
                    v2 = w2 - dd2
                    run += (kt1 * e1 * e1 + kt2 * e2 * e2 + kv1 * v1 * v1
                            + kv2 * v2 * v2)
                    if k > 1:       # sample k - 1's jerk
                        j1 = half * (a1 - pa1)
                        j2 = half * (a2 - pa2)
                        run += j1 * j1 + j2 * j2
                    elif k:         # sample 0's
                        j1 = gain * (a1 - la1)
                        j2 = gain * (a2 - la2)
                        run += j1 * j1 + j2 * j2
                    pa1 = la1
                    pa2 = la2
                    la1 = a1
                    la2 = a2
                    if run > bound:
                        return "bound", steps, rec, cstate, pend, balls, run
        except (ValueError, OverflowError) as exc:
            # math.cos of an overflowed angle raises "math domain error"
            # inside the step, where rollout_plans' np.cos gives NaN: step
            # k diverged. Any other ValueError is not divergence.
            if isinstance(exc, ValueError) and str(exc) != "math domain error":
                raise
            return "diverged", k + 1, rec, cstate, pend, balls, run
        if termination == "diverged":
            return termination, steps, rec, cstate, pend, balls, run

        # the terminal sample's acceleration under the last torques, which
        # the last row's ddth holds next to a pad torque pair
        if pend_pert is not None:
            _, _, _, a1, a2 = _pendulum_forces(
                coeffs, th1, th2, w1, w2, tau1, tau2, pend_pert, phi_p, dphi_p)
        else:
            a1, a2 = _accel(coeffs, th1, th2, w1, w2, tau1, tau2)
        if terms is not None and termination == "horizon" and steps > 1:
            # the last two jerks: the sum is now the whole cost, up to rounding
            j1 = half * (a1 - pa1)
            j2 = half * (a2 - pa2)
            run += j1 * j1 + j2 * j2
            j1 = gain * (a1 - la1)
            j2 = gain * (a2 - la2)
            run += j1 * j1 + j2 * j2
            if run > bound:
                return "bound", steps, rec, cstate, pend, balls, run
        rec += (math.nan, math.nan, a1, a2)
        return termination, steps, rec, cstate, pend, balls, run


def _state_row(controller, controller_state) -> tuple:
    """The state row a rollout starts from: controller_state, or the
    controller's state0 when it is None."""
    if controller_state is None:
        return controller.state0
    row = tuple(map(float, controller_state))
    if len(row) != len(controller.state0):
        raise ValueError(f"controller state {row} is not {len(controller.state0)} wide")
    return row


def _scalar_only(task, perturbation) -> bool:
    """Cases rollout_plans hands to the scalar rollout, row by row: a task
    that has_ball (contact per row) or sets a terminal_threshold (a goal
    that ends rows at different steps), in the task protocol's terms
    (objectives._Task), and a pendulum load. The array kernel models none
    of them.
    """
    return (task.has_ball or task.terminal_threshold is not None
            or (perturbation is not None and perturbation.kind == "chaotic_pendulum"))


def rollout_plans(controller, plans, perturbation: Perturbation | None = None):
    """Costs of several populations of decision vectors rolled out in
    lockstep under one controller: one array per (task, thetas,
    parameterization) plan, in order, whose row i holds the cost of
    rollout(task, controller, thetas[i], parameterization, perturbation),
    an episode from the task's initial state and the controller's state0
    (a start snapshot is rollout's alone).

    The plans rolled out together must share n_steps, the arm
    (task.params) and the start state, and may differ in anything else:
    resolution, population and the task's goal (ValueError otherwise, and
    for an empty list of plans).
    Every plan's rows are stacked into one population of N rows that
    advances together in structure-of-arrays form. Each plan is decoded
    once, and its per-step controls (table[:, segment_of_step]) are
    stacked into one (na, N) block per physics step before the loop.

    The call makes the blocks of the population step once
    (arm._StepBlocks): the (6, N) state block of th1, th2, w1, w2, a1 and
    a2 rows, the initial state filled in first, the (2, N) torque block,
    the carried mass-matrix terms (the first ones by arm._mass_terms) and
    the step's scratch; and one (n_steps + 2, 6, N) record, whose row k
    holds sample k's angle and velocity rows and sample k - 1's
    accelerations, which is what the state block holds after step k - 1.
    Per step there is one call of the step that
    controller.batch_torques(q, tau) makes, which reads the state's (4, N)
    angle and velocity block q and writes the torque block tau, one call
    of arm._symp_step, which writes the state's accelerations and then the
    next state into the state block and hands on the next configuration's
    terms, and one copy of the state block into the record. The terminal
    sample's accelerations under the last torques, which rollout records
    as its last ddth row, are arm._step_accel's, the step's first half.
    The step and the kernels take every view, scratch block and tiled
    constant from blocks made once per call, so a step allocates nothing
    and makes no view. Every operation is the scalar path's, in its order,
    and every one is the same elementwise IEEE operation on the same
    operands as there, up to the order of the two operands of a sum or a
    product, so no row's numbers depend on the rows beside it or on what
    an earlier call left in memory, and the costs agree bit for bit
    wherever np.cos/np.sin equal math.cos/math.sin (tests/test_batch.py
    probes that, and holds the paths to rtol 1e-9 where they differ).

    A row with a non-finite angle or velocity sample is diverged and
    scores math.inf. Each plan's other rows are scored together, by
    one call of that plan's task's own cost (or window cost, by _score's
    rule) on one RolloutResult whose th, dth, ddth and controls are
    C-contiguous copies of those rows, with a leading row axis, the layout
    in which the task sums each row as it sums that row's episode alone;
    its torques and controller_state are None. The task gives each row
    the float it gives that row's episode alone; the scoring runs in the
    steps' np.errstate block, so a score that overflows is math.inf with
    no warning. When any plan's task, or
    the perturbation, is one of the cases in _scalar_only, every row of
    every plan runs through `rollout` instead, one after another; a bundle
    of runs holds one task kind, so its plans are all one case or the
    other.
    """
    if not plans:
        raise ValueError("rollout_plans needs at least one plan; plans is "
                         "an empty list")
    tables = [_zoh_table(thetas, par) for _, thetas, par in plans]
    task, _, par = plans[0]
    params, state, n = task.params, task.initial_state(), par.n_steps
    for other, _, other_par in plans[1:]:
        if (other_par.n_steps != n or other.params != params
                or other.initial_state() != state):
            raise ValueError("plans rolled out together must share the "
                             "episode length, the arm and the start state")
    if any(_scalar_only(task, perturbation) for task, _, _ in plans):
        return [np.array([rollout(task, controller, theta, par,
                                  perturbation=perturbation).cost
                          for theta in np.asarray(thetas, dtype=float)])
                for task, thetas, par in plans]

    p_eff = perturbation.apply_to(params) if perturbation is not None else params
    coeffs = _Coeffs(p_eff)
    # (n, n_actuators, N): per step, a C-contiguous block of every row's
    # control, the plans' rows one after another
    blocks = np.ascontiguousarray(np.concatenate([
        table.take(par.segment_of_step, axis=1)
        for table, (_, _, par) in zip(tables, plans)]).transpose(1, 2, 0))
    lam = blocks.shape[2]
    cstate = np.tile(np.reshape(controller.state0, (-1, 1)), lam)
    arm = _StepBlocks(coeffs, lam, DT_SIM)
    x = arm.state
    x[:4] = np.reshape((state.th1, state.th2, state.dth1, state.dth2), (4, 1))
    torques_of = controller.batch_torques(x[:4], arm.tau)

    # (n + 2, 6, N): row j holds sample j's th1, th2, w1, w2 rows and
    # sample j - 1's a1, a2 rows, which is what the arm's state holds
    # after step j - 1
    record = np.empty((n + 2, 6, lam))
    record[0] = x
    with np.errstate(all="ignore"):          # diverging rows overflow
        arm.set_terms(*_mass_terms(coeffs, x[1], np.cos))
        for block, row in zip(blocks, record[1:]):
            torques_of(cstate, block)
            _symp_step(arm)
            np.copyto(row, x)
        # the terminal sample's acceleration under the last torques, as
        # rollout records it
        _step_accel(arm)
        np.copyto(record[n + 1], x)
        # (N, n + 2, 6), row by row; sample j's th, dth and ddth are
        # [:, j, 0:2], [:, j, 2:4] and [:, j + 1, 4:6]
        samples = record.transpose(2, 0, 1)
        states, accels = samples[:, :-1], samples[:, 1:, 4:6]
        finite = np.isfinite(states[..., 0:4]).all(axis=(1, 2))

        costs = []          # a finite row's score may overflow to inf
        start = 0
        for table, (task, _, par) in zip(tables, plans):
            stop = start + table.shape[0]
            part = states[start:stop]
            plan_costs = np.full(stop - start, math.inf)
            rows = np.flatnonzero(finite[start:stop])
            if rows.size:
                scored = RolloutResult(
                    th=part[..., 0:2][rows], dth=part[..., 2:4][rows],
                    ddth=accels[start:stop][rows],
                    controls=np.ascontiguousarray(
                        blocks[..., start + rows].transpose(2, 0, 1)),
                    torques=None, controller_state=None, ball=None, pend=None,
                    cost=math.nan, termination="horizon", steps=n)
                plan_costs[rows] = _score(task, scored, par)
            costs.append(plan_costs)
            start = stop
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


def open_loop_lockstep(controller, runs):
    """Optimize one or more zero-order-hold plans of one controller with
    CMA-ES in lockstep, one run per (task, resolution, cma_config) in
    `runs`; returns one (best_theta, best_rollout, trace, parameterization)
    per run, in order. A single run (`myoarm optimize`) is a lockstep of
    one, and an empty list of runs is a ValueError.

    A run's plan is the controller's task-length parameterization at its
    resolution (parameterization_for), and its search starts from the
    middle of the control box (_box_center) with its config's budget, step
    size and seed. The runs must last the same number of generations
    (ValueError otherwise), and, since each generation of all of them is
    scored by one rollout_plans call, their tasks must share the horizon,
    the arm and the start state. The first run's cma_es loop drives the
    lockstep: each of its objective calls asks every other run for its
    generation (optimizers.CmaEs), scores them all with its own, tells
    each its costs and returns the first run's. Every run's best plan is
    then rolled out once more with the scalar rollout; a run in which no
    candidate had a finite cost returns its generation-0 best, which costs
    math.inf (optimizers.CmaEs). A run's draws and
    arithmetic are its own, and rollout_plans gives each row the cost it
    gives the row alone, so every run returns, bit for bit, what it
    returns in a lockstep of one.
    """
    if not runs:
        raise ValueError("open_loop_lockstep needs at least one run; runs is "
                         "an empty list")
    pars = [parameterization_for(task, controller, resolution)
            for task, resolution, _ in runs]
    (lead, _, lead_cma), others = runs[0], runs[1:]
    if any(cma.generations != lead_cma.generations for _, _, cma in others):
        raise ValueError("runs in lockstep must last the same number of "
                         "generations")
    searches = [CmaEs(_box_center(par), cma)
                for par, (_, _, cma) in zip(pars[1:], others)]

    def objective(thetas):          # the first run's generation
        costs = rollout_plans(controller, [(lead, thetas, pars[0])] + [
            (task, es.ask(), par)
            for (task, _, _), es, par in zip(others, searches, pars[1:])])
        for es, f in zip(searches, costs[1:]):
            es.tell(f)
        return costs[0]

    best_x, _, trace = cma_es(objective, _box_center(pars[0]), lead_cma)
    found = [(best_x, trace)] + [(es.best_x, es.trace) for es in searches]
    return [(x, rollout(task, controller, x, par), trace, par)
            for (x, trace), par, (task, _, _) in zip(found, pars, runs)]


@dataclass
class MpcConfig:
    """Budgets and horizons of the receding-horizon controller.

    The budgets and the seed are checked when it is built: the warm
    start's budget and the seed by its CmaConfig (`warm`), and
    refine_budget must be a whole number of at least 1.
    """

    t_pred: float = 0.3            # prediction horizon, seconds
    resolution: float = 0.01       # control step, seconds
    warm_population: int = 36
    warm_generations: int = 20
    refine_budget: int = 50        # evaluations per control step
    seed: int = 0

    def __post_init__(self):
        _whole(self.refine_budget, "refine_budget", 1)
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
    trajectory's (executed.cost, the functional OC applies or math.inf,
    and executed.diverged), and the evaluations it spent are
    step_evals[-1]."""

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
    the plant runs the plan's first segment (an unscored episode of a
    one-segment plan, _Window.episode), the plan is shifted (last segment
    duplicated), and a pattern search with a fixed evaluation budget
    refines it against the prediction model from the latest plant
    snapshot: the arm state and the actuator state row the executed
    segment ended in. Plant and prediction share one controller, which
    holds parameters only. The window is the controller's OC
    parameterization (parameterization_for) with horizon mpc.t_pred, so a
    window lasts t_pred. The warm start is CMA-ES from the middle of the
    control box with mpc.warm (step size WARM_SIGMA0), and it scores each
    generation with a one-plan rollout_plans call from the task's start;
    the refinement starts at radius REFINE_RADIUS. mpc.resolution must be
    a whole multiple of DT_SIM and divide the task's horizon (ValueError
    before any work otherwise).

    Each control step's window is prepared once (_Window: the prediction
    arm, the snapshot, its mass-matrix terms and the task's stage terms),
    and every refinement evaluation is one probe of it (_Window.probe),
    which decodes its plan once and runs the one step loop. Its finished
    cost is the float `rollout` gives the same plan from the same
    snapshot.

    A refinement probe that is losing stops early; the bound lives in the
    window's probe, and no rollout is ever bounded. local_refine only ever
    compares a cost with the smallest its objective has returned so far
    (the start plan's, then each accepted probe's), so each evaluation
    hands the probe that smallest cost times (1 + REFINE_SLACK) as its
    bound. A window of a task that declares its stages (SmoothReaching)
    then stops once its running stage sum exceeds the bound and returns
    that sum, a cost above the incumbent, which local_refine rejects as it
    would the full window's. The start plan and every accepted probe run
    in full and get their exact cost, so plans, step_evals and the
    executed trajectory are what unbounded windows give, and a stopped
    probe counts one evaluation like any other. The margin covers
    rounding: the running sum and window_cost's pairwise sum add the same
    at most about 10 n non-negative terms (n samples) in different orders,
    which differ by about 10 n eps relative, near 1e-13 for a 61-sample
    window. No bound is set while the incumbent costs math.inf (it
    diverged), where every finite probe wins; so the start plan runs
    unbounded.

    The start plan continues the incumbent when the plant is the
    prediction model: no perturbation, or one visible to prediction, and
    no pendulum load and no ball. The plant segment then repeats the
    first steps_per_segment steps of the window that chose the plan in
    force, bit for bit, so the shifted plan's window repeats that
    window's later steps: its first evaluation reads them from that
    window's record and simulates only its last steps_per_segment steps,
    under the duplicated last segment, before it is scored as usual. A
    window's record is kept only when it ran to its horizon and
    local_refine accepted it (the start plan, or a strict improvement), so
    the record at hand is always the returned plan's or none. The
    reference in tests/oracles.py (mpc_run_reference), which rolls out
    every evaluation in full from its snapshot, holds the whole run to
    these shortcuts bit for bit.

    The executed trajectory is one rollout, from the task's initial state,
    of the first segments of the plans applied, on the plant; it walks the
    plant segments' states bit for bit, and its cost is the functional OC
    applies (window_cost when a goal stopped the run early), or math.inf
    when it diverged. step_costs holds the executed stage cost averaged
    over each control step, and math.inf for every step of a diverged
    execution.
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
    plan that is not the window's dim long is a ValueError, and so is an
    evaluation count that is negative or not a whole number.
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
    ball = task.initial_ball() if task.has_ball else None

    def refine(window, plan, incumbent):
        """local_refine of the shifted plan on its prepared window; returns
        (plan, evaluations, the record of the plan it returns or None)."""
        best, kept, resume = math.inf, None, incumbent

        def objective(theta):
            nonlocal best, kept, resume
            # local_refine's incumbent is best, and a probe that cannot
            # get below it is only ever rejected, however far it runs
            bound = best * (1.0 + REFINE_SLACK) if best < math.inf else None
            cost, record = window.probe(theta, bound, resume)
            resume = None       # only the first evaluation is the shift
            if cost < best:
                best, kept = cost, record
            return cost

        plan, _, n = local_refine(objective, plan, REFINE_RADIUS,
                                  mpc.refine_budget, lo=par.lo, hi=par.hi)
        return plan, n, kept

    def warm_objective(thetas):         # from the task's start
        return rollout_plans(controller, [(task, thetas, par)], pred_pert)[0]

    if warm_start is None:
        plan, _, warm_trace = cma_es(warm_objective, _box_center(par), mpc.warm)
        evals = warm_trace.total_evals
    else:
        plan, evals = np.array(warm_start[0], dtype=float), warm_start[1]
        if plan.shape != (par.dim,):
            raise ValueError(f"warm plan has shape {plan.shape}, expected "
                             f"({par.dim},)")
        evals = _whole(evals, "warm start evaluations", 0)

    # when the plant is the prediction model, a plant segment repeats the
    # first steps of the window that chose its plan, bit for bit; a window
    # record holds no pendulum or ball state to continue from
    continues = (pred_pert is perturbation and ball is None
                 and (perturbation is None
                      or perturbation.kind != "chaotic_pendulum"))
    na = par.n_actuators
    plans = []
    step_evals = []
    record = None           # the plan in force's window record, if kept
    for k in range(n_ctrl):
        plans.append(plan.copy())
        step_evals.append(evals)
        seg = _Window(task, controller, segment, perturbation, state,
                      ctrl_state, ball).episode(
                          _zoh_table(plan[None, :na], segment)[0])
        state, ctrl_state = seg.final_state, seg.controller_state
        if ball is not None:
            bx, bz, bdx, bdz = seg.ball[-1]
            ball = BallState(x=float(bx), z=float(bz), dx=float(bdx),
                             dz=float(bdz))
        if seg.termination != "horizon" or k == n_ctrl - 1:
            break
        plan, refine_evals, record = refine(
            _Window(task, controller, par, pred_pert, state, ctrl_state,
                    ball),
            par.shift(plan), record if continues else None)
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
        per_step = [math.inf] * len(plans)
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
