"""Task objectives: reaching costs and the ball-serve criterion, plus the
task descriptions (initial state, horizon, terminal rule, and the arm the
task runs on) that the rollout and optimization layers consume.

A task owns its arm, `params`: rollouts simulate it, and the task's own
cost, window_cost, stage_series and is_done read it, so none of them takes
an arm of its own.

Every task derives from _Task, which declares everything the control and
harness layers may ask of a task, each default written once there: no
ball (has_ball), no goal that ends an episode early (terminal_threshold
None), no declared stages to bound a window by (stage_terms None), no
joint posture the cost scores (posture None), the hanging rest as the
initial state, and a window cost that is the cost itself. A task states
only where it differs: SmoothReaching declares its stages and its
posture and scores a window without the horizon check, the fast variant
of PreciseReaching sets a terminal_threshold (and so needs is_done), and
BallServe has a ball (and so initial_ball and contact_radius). The
callers read these as plain attributes.

The reaching tasks' cost and window_cost take one trajectory, whose th,
dth, ddth and controls are (samples, ...) arrays, and return a float; they
also take a population of equally long trajectories, the same arrays with
a leading row axis, and return one cost per row, each the float the row
alone would get (control.rollout_plans scores its populations so). Ball
serve takes one trajectory only: rollout_plans never batches it."""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arm import ArmParams, ArmState, BallState, hand_position
from .control import DT_SIM


@dataclass
class ObjectiveWeights:
    """Scales and weights shared by the reaching objectives.

    s_* are per-joint normalization scales (shoulder, elbow); w_* the
    corresponding weights and jerk_gain the multiplier on the discrete jerk
    measure. lam1/lam2/eps parameterize the precise-reaching reward.

    A scale or weight is one number for both joints or a pair. Building
    one refuses a scale that is not positive and finite, a weight that is
    negative or not finite, and a non-finite jerk_gain, lam1, lam2 or eps:
    with them every smooth-reach stage term is a finite weight times a
    square, so never negative, which MPC refinement's early stop relies on
    (SmoothReaching.stage_terms).
    """

    s_th: tuple = (2.45, 2.45)
    s_dth: tuple = (18.7, 27.9)
    w_th: tuple = (2.0, 2.0)
    w_dth: tuple = (1.0, 1.0)
    jerk_gain: float = 1.0
    lam1: float = 0.1
    lam2: float = 1e-4
    eps: float = 1e-4

    def __post_init__(self):
        for name, what in (("s_th", "positive"), ("s_dth", "positive"),
                           ("w_th", "non-negative"), ("w_dth", "non-negative")):
            value = np.asarray(getattr(self, name), dtype=float)
            low = value <= 0.0 if what == "positive" else value < 0.0
            if (value.shape not in ((), (2,)) or not np.isfinite(value).all()
                    or low.any()):
                raise ValueError(f"ObjectiveWeights.{name} must be one {what} "
                                 f"finite number or a pair of them, got "
                                 f"{getattr(self, name)!r}")
        for name in ("jerk_gain", "lam1", "lam2", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"ObjectiveWeights.{name} must be finite, "
                                 f"got {getattr(self, name)!r}")


@dataclass
class ReachTarget:
    """Desired joint posture and, for distance-based tasks, a hand goal.

    th_des, dth_des and goal_xz (when set) must each be a pair of finite
    numbers; building a target refuses anything else with a ValueError
    that names the field, since a NaN there scores every trajectory NaN
    and a third entry only fails inside a cost."""

    th_des: tuple = (0.5 * math.pi, 0.5 * math.pi)
    dth_des: tuple = (0.0, 0.0)
    goal_xz: tuple | None = None
    # rectangle the hand goal is sampled from: (x_lo, x_hi), (z_lo, z_hi)
    rect: tuple = ((0.1, 0.4), (0.1, 0.4))

    def __post_init__(self):
        for name in ("th_des", "dth_des", "goal_xz"):
            value = getattr(self, name)
            if value is None and name == "goal_xz":
                continue
            try:
                pair = np.asarray(value, dtype=float)
            except (TypeError, ValueError):
                pair = None
            if pair is None or pair.shape != (2,) or not np.isfinite(pair).all():
                raise ValueError(f"ReachTarget.{name} must be a pair of finite "
                                 f"numbers, got {value!r}")

    def sample_goal(self, rng: np.random.Generator, params: ArmParams):
        """Draw a goal inside the rectangle, re-drawing anything out of reach."""
        (xlo, xhi), (zlo, zhi) = self.rect
        reach = params.l1 + params.l2
        for _ in range(1000):
            x = rng.uniform(xlo, xhi)
            z = rng.uniform(zlo, zhi)
            if math.hypot(x, z) <= reach - 0.01:
                return (x, z)
        raise ValueError("goal rectangle lies outside the arm's reach")


def jerk_from_accel(ddth: np.ndarray) -> np.ndarray:
    """Discrete jerk measure: central difference of acceleration per sample.

    Second-order central differences in the interior, one-sided first-order
    differences at the two endpoints, expressed per physics step (the jerk
    rate times the fixed step), which keeps the squared penalty commensurate
    with the normalized angle and velocity terms. ddth has shape (n, 2), or
    (rows, n, 2) for a population of series, each differenced on its own;
    a single-sample series has zero jerk.
    """
    ddth = np.asarray(ddth, dtype=float)
    if ddth.shape[-2] < 2:
        return np.zeros_like(ddth)
    out = np.empty_like(ddth)
    # views with the sample axis first, which index faster than `...`
    a, o = ddth.swapaxes(0, -2), out.swapaxes(0, -2)
    o[1:-1] = (a[2:] - a[:-2]) / 2.0
    o[0] = a[1] - a[0]
    o[-1] = a[-1] - a[-2]
    return out


def _per_row(values):
    """A task's costs: a float for one trajectory, the array of one cost
    per row for a population."""
    return float(values) if values.ndim == 0 else values


def precise_reaching_reward(d, actions, weights: ObjectiveWeights):
    """Distance-based reward with a log precision bonus and an action penalty.

    r = -lam1 * (d + log(d + eps^2)) - (lam2 / N) * sum(a_i^2) - 2.
    Strictly decreasing in d; supremum -lam1*log(eps^2) - 2 ~= -0.158 as d -> 0.
    d is one distance, and then the reward a float, or an array of them,
    and then the reward an array of d's shape; actions holds the N actions
    applied at each distance (shape d.shape + (N,)). The log is math.log
    per element, because np.log may differ from it in the last bit.
    """
    d = np.asarray(d, dtype=float)
    if (d < 0.0).any():
        raise ValueError("distance must be non-negative")
    a = np.asarray(actions, dtype=float)
    pen = weights.lam2 * (a * a).sum(axis=-1) / a.shape[-1] if a.size else 0.0
    log = np.fromiter(map(math.log, (d + weights.eps ** 2).ravel().tolist()),
                      float, d.size).reshape(d.shape)
    return _per_row(-weights.lam1 * (d + log) - pen - 2.0)


def fast_reaching_done(d: float, threshold: float = 0.05) -> bool:
    """Strict sub-threshold hand-goal distance ends a fast-reaching episode."""
    return d < threshold


def ball_serve_cost(dz_series) -> float:
    """Serve quality: negative peak upward ball velocity (lower is better)."""
    dz = np.asarray(dz_series, dtype=float)
    if dz.size == 0:
        raise ValueError("empty ball velocity series")
    return -float(dz.max())


# --------------------------------------------------------------------------
# Task descriptions


class _Task:
    """The task protocol, with its defaults (see the module docstring)."""

    has_ball = False
    terminal_threshold = None
    stage_terms = None
    posture = None      # (shoulder, elbow) angles the cost scores the arm against

    def initial_state(self) -> ArmState:
        """Hanging rest: the upper arm straight down, the elbow straight."""
        return ArmState(th1=-0.5 * math.pi, th2=0.0)

    def window_cost(self, traj):
        """The cost of a plan shorter than the task (an MPC window)."""
        return self.cost(traj)


@dataclass
class SmoothReaching(_Task):
    """Reach 90 degrees at each joint from hanging rest, smoothly, in 0.9 s.

    The one smooth-reaching stage formula lives here, shared by cost,
    window_cost and stage_series, and it takes one trajectory's arrays or
    a population's, with a leading row axis. Its constants (the target
    arrays and the weight ratios w_th/s_th and w_dth/s_dth) are converted
    once, when the task is built, so `weights` and `target` are read only
    at construction: assigning a new value to either afterwards does not
    change the costs or the posture, target.th_des (dataclasses.replace
    builds a task that reads them again). `params` is the arm the task runs on; the cost reads joint
    angles only.
    """

    name = "smooth-reach"
    duration: float = 0.9
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    target: ReachTarget = field(default_factory=ReachTarget)
    params: ArmParams = field(default_factory=ArmParams)

    def __post_init__(self):
        w, target = self.weights, self.target
        self.posture = target.th_des
        # per joint: w_th/s_th, th_des, w_dth/s_dth, dth_des
        self._rows = (np.asarray(w.w_th) / np.asarray(w.s_th),
                      np.asarray(target.th_des),
                      np.asarray(w.w_dth) / np.asarray(w.s_dth),
                      np.asarray(target.dth_des))
        self._jerk_gain = w.jerk_gain
        self._tiled = (0, None)        # (n, the rows tiled to n samples)
        self._terms = (*(float(v) for row in self._rows
                         for v in np.broadcast_to(row, 2)), float(w.jerk_gain))

    def _stage(self, th, dth, jerk) -> np.ndarray:
        """(w_th/s_th) e_th^2 + (w_dth/s_dth) e_dth^2 + (jerk_gain jerk)^2,
        summed over the joints, on float arrays of shape (..., n, 2).

        The per-joint constants enter tiled to (n, 2), and the tiles of the
        last n are kept; the two joints' columns are then added. NumPy runs
        a (2,) operand, or a sum over a length-2 axis, two elements per
        inner loop, which at these sizes costs several times as much for
        the same values."""
        n = th.shape[-2]
        if self._tiled[0] != n:
            self._tiled = (n, [np.tile(row, (n, 1)) for row in self._rows])
        k_th, th_des, k_dth, dth_des = self._tiled[1]
        stage = (k_th * (th - th_des) ** 2 + k_dth * (dth - dth_des) ** 2
                 + (self._jerk_gain * jerk) ** 2)
        return stage[..., 0] + stage[..., 1]

    def _cost(self, th, dth, ddth, min_duration):
        """The summed stages of (n, 2) float arrays th, dth and ddth, as a
        RolloutResult holds them, one sample per DT_SIM; of (rows, n, 2)
        arrays, each row's. The stages are a C-contiguous (..., n) array
        summed over its last axis, so each row gets NumPy's pairwise sum, as
        one trajectory does (a sum over another axis would add in another
        order)."""
        n = th.shape[-2]
        if min_duration is not None and (n - 1) * DT_SIM < min_duration - 1e-9:
            raise ValueError(
                f"trajectory spans {(n - 1) * DT_SIM:.4f} s, shorter than the "
                f"required {min_duration} s horizon")
        return _per_row(self._stage(th, dth, jerk_from_accel(ddth)).sum(axis=-1))

    def cost(self, traj):
        return self._cost(traj.th, traj.dth, traj.ddth, self.duration)

    def window_cost(self, traj):
        """Same functional without the full-horizon length requirement."""
        return self._cost(traj.th, traj.dth, traj.ddth, None)

    def stage_series(self, traj) -> np.ndarray:
        return self._stage(traj.th, traj.dth, jerk_from_accel(traj.ddth))

    def stage_terms(self) -> tuple:
        """The stage's constants as floats, for a running lower bound on a
        window's cost (control.rollout's `bound`): w_th/s_th of the
        shoulder and the elbow, then th_des, w_dth/s_dth and dth_des the
        same way, and last jerk_gain.

        A task with this method declares that its window cost is a sum of
        non-negative terms, each sample's weighted squared angle and
        velocity errors and squared weighted jerk, so a partial sum of
        them never exceeds the whole (ObjectiveWeights refuses a weight
        that would make a term negative). A task without it, such as ball
        serve, whose cost falls as its window runs, is never bounded (its
        stage_terms is _Task's None)."""
        return self._terms


@dataclass
class PreciseReaching(_Task):
    """Hold the hand on a sampled goal point; reward evaluated per control step.

    Without a goal in `target`, one is drawn from target.rect with the task
    seed, inside the reach of `params`, the arm the task runs on. The
    drawn goal goes into a copy of `target`, never into the given object,
    so tasks built from one target each keep their own seed's goal.

    The rewards of a trajectory are computed as arrays, one per control
    boundary (precise_reaching_reward on arrays), and so are a
    population's, with a leading row axis; cost is minus their mean.
    """

    name = "precise-reach"
    duration: float = 10.0
    control_resolution: float = 0.01
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    target: ReachTarget = field(default_factory=ReachTarget)
    seed: int = 0
    terminal_threshold: float | None = None   # set for the fast variant
    params: ArmParams = field(default_factory=ArmParams)

    def __post_init__(self):
        if self.target.goal_xz is None:
            rng = np.random.Generator(np.random.PCG64(self.seed))
            self.target = replace(self.target, goal_xz=self.target.sample_goal(
                rng, self.params))

    def _distances(self, traj):
        gx, gz = self.target.goal_xz
        hx, hz = hand_position(traj.th[..., 0], traj.th[..., 1], self.params,
                               cos=np.cos, sin=np.sin)
        return np.hypot(hx - gx, hz - gz)

    def _rewards(self, traj):
        """(ks, rewards): the sample index of each control boundary, and
        the reward there, along the last axis. Sample k is scored with the
        control row of step k (the last step's at the final sample)."""
        stride = max(1, round(self.control_resolution / DT_SIM))
        d = self._distances(traj)
        controls = traj.controls
        ks = np.arange(0, d.shape[-1], stride)
        applied = controls[..., np.minimum(ks, controls.shape[-2] - 1), :]
        return ks, precise_reaching_reward(d[..., ks], applied, self.weights)

    def stage_series(self, traj) -> np.ndarray:
        # negative reward at each control boundary so lower is better
        out = np.zeros(traj.th.shape[0])
        ks, rewards = self._rewards(traj)
        out[ks] = -rewards
        return out

    def cost(self, traj):
        return _per_row(-np.mean(self._rewards(traj)[1], axis=-1))

    def is_done(self, state: ArmState) -> bool:
        """Whether the hand is within terminal_threshold of the goal; the
        rollout asks only when the threshold is set."""
        x, z = hand_position(state.th1, state.th2, self.params)
        gx, gz = self.target.goal_xz
        return fast_reaching_done(math.hypot(x - gx, z - gz), self.terminal_threshold)


def fast_reaching_task(seed: int = 0, **kw) -> PreciseReaching:
    """Precise reaching that ends once the hand is within 5 cm of the goal;
    the horizon defaults to 2 s."""
    kw.setdefault("duration", 2.0)
    task = PreciseReaching(seed=seed, terminal_threshold=0.05, **kw)
    task.name = "fast-reach"
    return task


@dataclass
class BallServe(_Task):
    """Hit a dropped ball upward; score is the peak upward ball velocity."""

    name = "ball-serve"
    duration: float = 0.9
    drop_xz: tuple = (0.45, 0.35)
    contact_radius: float = 0.05
    params: ArmParams = field(default_factory=ArmParams)
    has_ball = True

    def initial_ball(self) -> BallState:
        return BallState(x=self.drop_xz[0], z=self.drop_xz[1])

    def cost(self, traj) -> float:
        return ball_serve_cost(traj.ball[:, 3])

    def stage_series(self, traj) -> np.ndarray:
        # running negative best upward speed; the final entry equals the cost
        return -np.maximum.accumulate(traj.ball[:, 3])


TASKS = ("smooth-reach", "precise-reach", "fast-reach", "ball-serve")


def make_task(name: str, seed: int = 0, params: ArmParams | None = None,
              **overrides):
    """Task factory. Every task runs on `params` (the default arm when
    None); seed only affects tasks with sampled goals, whose goals must lie
    within that arm's reach."""
    params = params or ArmParams()
    if name == "smooth-reach":
        return SmoothReaching(params=params, **overrides)
    if name == "precise-reach":
        return PreciseReaching(seed=seed, params=params, **overrides)
    if name == "fast-reach":
        return fast_reaching_task(seed=seed, params=params, **overrides)
    if name == "ball-serve":
        return BallServe(params=params, **overrides)
    raise ValueError(f"unknown task {name!r}; expected one of {TASKS}")
