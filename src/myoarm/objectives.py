"""Task objectives: reaching costs and the ball-serve criterion, plus the
task descriptions (initial state, horizon, terminal rule, and the arm the
task runs on) that the rollout and optimization layers consume.

A task owns its arm, `params`: rollouts simulate it, and the task's own
cost, window_cost, stage_series and is_done read it, so none of them takes
an arm of its own."""

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
    """

    s_th: tuple = (2.45, 2.45)
    s_dth: tuple = (18.7, 27.9)
    w_th: tuple = (2.0, 2.0)
    w_dth: tuple = (1.0, 1.0)
    jerk_gain: float = 1.0
    lam1: float = 0.1
    lam2: float = 1e-4
    eps: float = 1e-4


@dataclass
class ReachTarget:
    """Desired joint posture and, for distance-based tasks, a hand goal."""

    th_des: tuple = (0.5 * math.pi, 0.5 * math.pi)
    dth_des: tuple = (0.0, 0.0)
    goal_xz: tuple | None = None
    # rectangle the hand goal is sampled from: (x_lo, x_hi), (z_lo, z_hi)
    rect: tuple = ((0.1, 0.4), (0.1, 0.4))

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
    with the normalized angle and velocity terms. ddth has shape (n, 2); a
    single-sample series has zero jerk.
    """
    ddth = np.asarray(ddth, dtype=float)
    n = ddth.shape[0]
    if n < 2:
        return np.zeros_like(ddth)
    out = np.empty_like(ddth)
    out[1:-1] = (ddth[2:] - ddth[:-2]) / 2.0
    out[0] = ddth[1] - ddth[0]
    out[-1] = ddth[-1] - ddth[-2]
    return out


def precise_reaching_reward(d: float, actions, weights: ObjectiveWeights) -> float:
    """Distance-based reward with a log precision bonus and an action penalty.

    r = -lam1 * (d + log(d + eps^2)) - (lam2 / N) * sum(a_i^2) - 2.
    Strictly decreasing in d; supremum -lam1*log(eps^2) - 2 ~= -0.158 as d -> 0.
    """
    if d < 0.0:
        raise ValueError("distance must be non-negative")
    a = np.asarray(actions, dtype=float)
    pen = weights.lam2 * float(np.sum(a * a)) / a.size if a.size else 0.0
    return -weights.lam1 * (d + math.log(d + weights.eps ** 2)) - pen - 2.0


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


@dataclass
class SmoothReaching:
    """Reach 90 degrees at each joint from hanging rest, smoothly, in 0.9 s.

    The one smooth-reaching stage formula lives here, shared by cost,
    window_cost and stage_series. Its constants (the target arrays and the weight
    ratios w_th/s_th and w_dth/s_dth) are converted once, when the task is
    built, so `weights` and `target` are read only at construction:
    assigning a new value to either afterwards does not change the costs
    (dataclasses.replace builds a task that reads them again). `params` is
    the arm the task runs on; the cost reads joint angles only.
    """

    name = "smooth-reach"
    duration: float = 0.9
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    target: ReachTarget = field(default_factory=ReachTarget)
    params: ArmParams = field(default_factory=ArmParams)
    has_ball = False

    def __post_init__(self):
        w, target = self.weights, self.target
        self._th_des = np.asarray(target.th_des)
        self._dth_des = np.asarray(target.dth_des)
        self._k_th = np.asarray(w.w_th) / np.asarray(w.s_th)
        self._k_dth = np.asarray(w.w_dth) / np.asarray(w.s_dth)
        self._jerk_gain = w.jerk_gain

    def _stage(self, th, dth, jerk) -> np.ndarray:
        """(w_th/s_th) e_th^2 + (w_dth/s_dth) e_dth^2 + (jerk_gain jerk)^2,
        summed over the joints, on float arrays."""
        c_th = self._k_th * (th - self._th_des) ** 2
        c_dth = self._k_dth * (dth - self._dth_des) ** 2
        return (c_th + c_dth + (self._jerk_gain * jerk) ** 2).sum(axis=-1)

    def _cost(self, th, dth, ddth, min_duration) -> float:
        """The summed stages of (n, 2) float arrays th, dth and ddth, as a
        RolloutResult holds them, one sample per DT_SIM."""
        n = th.shape[0]
        if min_duration is not None and (n - 1) * DT_SIM < min_duration - 1e-9:
            raise ValueError(
                f"trajectory spans {(n - 1) * DT_SIM:.4f} s, shorter than the "
                f"required {min_duration} s horizon")
        return float(self._stage(th, dth, jerk_from_accel(ddth)).sum())

    def initial_state(self) -> ArmState:
        return ArmState(th1=-0.5 * math.pi, th2=0.0)

    def cost(self, traj) -> float:
        return self._cost(traj.th, traj.dth, traj.ddth, self.duration)

    def window_cost(self, traj) -> float:
        """Same functional without the full-horizon length requirement."""
        return self._cost(traj.th, traj.dth, traj.ddth, None)

    def stage_series(self, traj) -> np.ndarray:
        return self._stage(traj.th, traj.dth, jerk_from_accel(traj.ddth))


@dataclass
class PreciseReaching:
    """Hold the hand on a sampled goal point; reward evaluated per control step.

    Without a goal in `target`, one is drawn from target.rect with the task
    seed, inside the reach of `params`, the arm the task runs on. The
    drawn goal goes into a copy of `target`, never into the given object,
    so tasks built from one target each keep their own seed's goal.
    """

    name = "precise-reach"
    duration: float = 10.0
    control_resolution: float = 0.01
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    target: ReachTarget = field(default_factory=ReachTarget)
    seed: int = 0
    terminal_threshold: float | None = None   # set for the fast variant
    params: ArmParams = field(default_factory=ArmParams)
    has_ball = False

    def __post_init__(self):
        if self.target.goal_xz is None:
            rng = np.random.Generator(np.random.PCG64(self.seed))
            self.target = replace(self.target, goal_xz=self.target.sample_goal(
                rng, self.params))

    def initial_state(self) -> ArmState:
        return ArmState(th1=-0.5 * math.pi, th2=0.0)

    def _distances(self, traj):
        gx, gz = self.target.goal_xz
        hx, hz = hand_position(traj.th[:, 0], traj.th[:, 1], self.params,
                               cos=np.cos, sin=np.sin)
        return np.hypot(hx - gx, hz - gz)

    def _rewards(self, traj):
        """The reward at each control boundary, by sample index."""
        stride = max(1, round(self.control_resolution / DT_SIM))
        d = self._distances(traj)
        controls = traj.controls
        return {k: precise_reaching_reward(
                    d[k], controls[min(k, controls.shape[0] - 1)], self.weights)
                for k in range(0, d.size, stride)}

    def stage_series(self, traj) -> np.ndarray:
        # negative reward at each control boundary so lower is better
        out = np.zeros(traj.th.shape[0])
        for k, r in self._rewards(traj).items():
            out[k] = -r
        return out

    def cost(self, traj) -> float:
        return -float(np.mean(list(self._rewards(traj).values())))

    def window_cost(self, traj) -> float:
        return self.cost(traj)

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
class BallServe:
    """Hit a dropped ball upward; score is the peak upward ball velocity."""

    name = "ball-serve"
    duration: float = 0.9
    drop_xz: tuple = (0.45, 0.35)
    contact_radius: float = 0.05
    params: ArmParams = field(default_factory=ArmParams)
    has_ball = True

    def initial_state(self) -> ArmState:
        return ArmState(th1=-0.5 * math.pi, th2=0.0)

    def initial_ball(self) -> BallState:
        return BallState(x=self.drop_xz[0], z=self.drop_xz[1])

    def cost(self, traj) -> float:
        return ball_serve_cost(traj.ball[:, 3])

    def window_cost(self, traj) -> float:
        return self.cost(traj)

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
