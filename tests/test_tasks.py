"""Tests for the task objectives: reaching costs and the serve cost."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from myoarm.arm import ArmParams, ArmState, _Coeffs, _hand
from myoarm.objectives import (BallServe, ObjectiveWeights, PreciseReaching,
                               ReachTarget, SmoothReaching, ball_serve_cost,
                               fast_reaching_done, fast_reaching_task,
                               jerk_from_accel, make_task,
                               precise_reaching_reward)

W = ObjectiveWeights()
TARGET = ReachTarget()


def fake_traj(th, dth, ddth):
    """A trajectory of the samples th, dth, ddth, one per physics step
    (DT_SIM), with zero controls (four per step, as a muscle arm's) on every
    step between them."""
    th = np.atleast_2d(np.asarray(th, dtype=float))
    return SimpleNamespace(th=th, dth=np.atleast_2d(np.asarray(dth, dtype=float)),
                           ddth=np.atleast_2d(np.asarray(ddth, dtype=float)),
                           controls=np.zeros((max(1, len(th) - 1), 4)))


def hand_xz(th1, th2, params):
    """The hand position the rollout's ball contact reads (arm._hand)."""
    return _hand(_Coeffs(params), th1, th2, 0.0, 0.0)[:2]


def smooth_reaching_cost(th, dth, ddth, weights, duration=None):
    """The smooth-reaching functional of a fake trajectory at 0.005 s, scored
    by SmoothReaching(weights=weights, target=TARGET): by cost, which
    requires the task's full `duration`, when one is given, and by
    window_cost otherwise."""
    traj = fake_traj(th, dth, ddth)
    if duration is None:
        task = SmoothReaching(weights=weights, target=TARGET)
        return task.window_cost(traj)
    task = SmoothReaching(weights=weights, target=TARGET, duration=duration)
    return task.cost(traj)


def held_at_target(n):
    th = np.tile(TARGET.th_des, (n, 1))
    z = np.zeros((n, 2))
    return th, z, z


class TestSmoothReaching:
    def test_zero_at_exact_target(self):
        th, dth, ddth = held_at_target(181)
        assert smooth_reaching_cost(th, dth, ddth, W) == 0.0

    def test_single_sample_angle_term(self):
        # one joint off target by exactly its scale: the normalized squared
        # error (w/s)*s^2 collapses to w*s
        th = [[TARGET.th_des[0] + W.s_th[0], TARGET.th_des[1]]]
        c = smooth_reaching_cost(th, [[0.0, 0.0]], [[0.0, 0.0]], W)
        assert abs(c - W.w_th[0] * W.s_th[0]) < 1e-12

    def test_doubling_angle_weight(self):
        rng = np.random.default_rng(11)
        n = 41
        th = np.asarray(TARGET.th_des) + rng.normal(size=(n, 2))
        dth = np.zeros((n, 2))
        ddth = rng.normal(size=(n, 2))
        w2 = ObjectiveWeights(w_th=(4.0, 4.0))
        c1 = smooth_reaching_cost(th, dth, ddth, W)
        c2 = smooth_reaching_cost(th, dth, ddth, w2)
        jerk_only = smooth_reaching_cost(np.tile(TARGET.th_des, (n, 1)), dth,
                                         ddth, W)
        angle_only = c1 - jerk_only
        assert abs(c2 - (2.0 * angle_only + jerk_only)) < 1e-10
        # the jerk term itself is untouched by the angle weight
        j2 = smooth_reaching_cost(np.tile(TARGET.th_des, (n, 1)), dth, ddth,
                                  w2)
        assert j2 == jerk_only

    def test_short_trajectory_rejected(self):
        th, dth, ddth = held_at_target(100)   # 0.495 s at dt=0.005
        with pytest.raises(ValueError):
            smooth_reaching_cost(th, dth, ddth, W, duration=0.9)

    def test_full_horizon_accepted(self):
        th, dth, ddth = held_at_target(181)   # exactly 0.9 s
        c = smooth_reaching_cost(th, dth, ddth, W, duration=0.9)
        assert c == 0.0

    def test_nonnegative_and_zero_only_at_target(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            th = rng.uniform(-math.pi, math.pi, size=(n, 2))
            dth = rng.normal(scale=4.0, size=(n, 2))
            ddth = rng.normal(scale=40.0, size=(n, 2))
            c = smooth_reaching_cost(th, dth, ddth, W)
            assert c >= 0.0
            off = np.abs(th - TARGET.th_des).max() > 1e-6
            if off:
                assert c > 0.0

    def test_task_cost_matches_stage_sum(self):
        rng = np.random.default_rng(3)
        task = SmoothReaching()
        n = 181
        traj = fake_traj(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)),
                         rng.normal(size=(n, 2)))
        stage = task.stage_series(traj)
        assert abs(task.cost(traj) - stage.sum()) < 1e-10
        assert abs(task.window_cost(traj) - stage.sum()) < 1e-10

    def test_task_rejects_short_trajectory(self):
        task = SmoothReaching()
        traj = fake_traj(*held_at_target(50))
        with pytest.raises(ValueError):
            task.cost(traj)
        # the window variant scores partial trajectories
        assert task.window_cost(traj) == 0.0


class TestObjectiveWeights:
    @pytest.mark.parametrize("field, value", [
        ("w_th", (-2.0, 2.0)),           # used to build a task
        ("w_dth", -1.0),
        ("w_dth", (1.0, math.inf)),
        ("s_th", (0.0, 2.45)),           # used to warn and weigh by inf
        ("s_dth", (-18.7, 27.9)),
        ("s_th", (math.nan, 2.45)),
        ("s_th", (1.0, 2.0, 3.0)),       # neither one number nor a pair
        ("jerk_gain", math.nan),         # used to be accepted
        ("jerk_gain", math.inf),
        ("lam2", math.nan),
        ("eps", -math.inf)])
    def test_a_bad_weight_is_refused(self, field, value):
        # every smooth-reach stage term must be a finite weight times a
        # square, never negative, or a partial sum is no lower bound
        with pytest.raises(ValueError, match=f"ObjectiveWeights.{field}"):
            ObjectiveWeights(**{field: value})

    def test_zero_weights_and_one_number_for_both_joints_are_accepted(self):
        w = ObjectiveWeights(w_th=0.0, w_dth=(0.0, 1.0), s_th=2.0,
                             jerk_gain=-1.0)
        task = SmoothReaching(weights=w)
        assert task.stage_terms() == (0.0, 0.0, *TARGET.th_des, 0.0,
                                      1.0 / W.s_dth[1], *TARGET.dth_des,
                                      -1.0)


class TestReachTarget:
    @pytest.mark.parametrize("field, value", [
        ("th_des", (math.nan, 0.0)),     # used to build a task scoring nan
        ("th_des", (0.0, math.inf)),
        ("th_des", (0.5, 0.5, 0.5)),     # used to fail deep in NumPy
        ("th_des", 0.5),
        ("th_des", ("a", "b")),
        ("dth_des", (0.0, -math.inf)),
        ("dth_des", (0.0,)),
        ("goal_xz", (0.3, math.nan)),
        ("goal_xz", (0.1, 0.2, 0.3))])
    def test_a_bad_target_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"ReachTarget.{field}"):
            ReachTarget(**{field: value})

    def test_a_refused_target_never_reaches_a_task(self):
        with pytest.raises(ValueError, match="ReachTarget.th_des"):
            SmoothReaching(target=ReachTarget(th_des=(math.nan, 0.0)))
        with pytest.raises(ValueError, match="ReachTarget.goal_xz"):
            PreciseReaching(target=ReachTarget(goal_xz=(0.3, 0.2, 0.1)))

    def test_finite_pairs_are_accepted_as_given(self):
        t = ReachTarget(th_des=[1.0, -1.0], dth_des=(0, 0), goal_xz=(0.2, 0.1))
        assert t.th_des == [1.0, -1.0] and t.dth_des == (0, 0)
        assert ReachTarget().goal_xz is None


class TestJerk:
    def test_quadratic_series_exact_interior(self):
        dt = 0.01
        t = np.arange(30) * dt
        ddth = np.stack([3.0 * t * t, -2.0 * t * t], axis=1)
        jerk = jerk_from_accel(ddth)
        # central differences are exact on quadratics; the measure is the
        # acceleration slope per sample step
        expect = np.stack([6.0 * t, -4.0 * t], axis=1) * dt
        assert np.allclose(jerk[1:-1], expect[1:-1], atol=1e-9)

    def test_single_sample_is_zero(self):
        assert np.all(jerk_from_accel(np.array([[5.0, -3.0]])) == 0.0)

    def test_constant_acceleration_has_zero_jerk(self):
        ddth = np.tile([2.0, -1.0], (40, 1))
        assert np.all(jerk_from_accel(ddth) == 0.0)


class TestPreciseReaching:
    def test_unit_distance_value(self):
        r = precise_reaching_reward(1.0, np.zeros(2), W)
        expect = -W.lam1 * (1.0 + math.log(1.0 + W.eps ** 2)) - 2.0
        assert r == expect
        assert abs(r - (-2.1)) < 1e-3

    def test_strictly_decreasing_in_distance(self):
        d = np.linspace(1e-6, 2.0, 500)
        r = np.array([precise_reaching_reward(x, (), W) for x in d])
        assert np.all(np.diff(r) < 0.0)

    def test_action_penalty(self):
        base = precise_reaching_reward(0.3, np.zeros(4), W)
        loaded = precise_reaching_reward(0.3, np.full(4, 0.5), W)
        assert loaded < base
        assert abs((base - loaded) - W.lam2 * 0.25) < 1e-15

    def test_always_below_bound(self):
        d = np.linspace(0.0, 5.0, 2000)
        for a in (np.zeros(2), np.ones(4), np.full(3, 0.2)):
            r = np.array([precise_reaching_reward(x, a, W) for x in d])
            assert np.all(r <= -0.15)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            precise_reaching_reward(-0.1, (), W)

    def test_goal_sampling(self):
        params = ArmParams()
        task = ReachTarget()
        rng = np.random.default_rng(9)
        (xlo, xhi), (zlo, zhi) = task.rect
        for _ in range(200):
            x, z = task.sample_goal(rng, params)
            assert xlo <= x <= xhi and zlo <= z <= zhi
            assert math.hypot(x, z) <= params.l1 + params.l2 - 0.01

    def test_sampled_goal_reproducible(self):
        a = PreciseReaching(seed=3)
        b = PreciseReaching(seed=3)
        assert a.target.goal_xz == b.target.goal_xz
        c = PreciseReaching(seed=4)
        assert c.target.goal_xz != a.target.goal_xz

    def test_shared_target_keeps_each_seeds_goal(self):
        # the drawn goal goes into a copy: the given target stays goal-less
        # and each task holds the goal make_task gives its seed
        t = ReachTarget()
        a = PreciseReaching(seed=1, target=t)
        b = PreciseReaching(seed=2, target=t)
        assert t.goal_xz is None
        assert a.target.goal_xz == make_task("precise-reach", seed=1).target.goal_xz
        assert b.target.goal_xz == make_task("precise-reach", seed=2).target.goal_xz
        assert a.target.goal_xz != b.target.goal_xz

    def test_cost_and_stage_series_match_a_per_boundary_loop(self):
        task = PreciseReaching(seed=5, control_resolution=0.015)
        params = ArmParams()
        rng = np.random.default_rng(4)
        th = rng.uniform(-np.pi, np.pi, size=(31, 2))
        traj = fake_traj(th, np.zeros_like(th), np.zeros_like(th))
        traj.controls = rng.uniform(0.0, 1.0, size=(30, 4))
        gx, gz = task.target.goal_xz
        want = np.zeros(31)
        rewards = []
        for k in range(0, 31, 3):
            x, z = hand_xz(th[k, 0], th[k, 1], params)
            rewards.append(precise_reaching_reward(
                math.hypot(x - gx, z - gz), traj.controls[min(k, 29)], W))
            want[k] = -rewards[-1]
        assert np.allclose(task.stage_series(traj), want,
                           rtol=0, atol=1e-12)
        assert task.cost(traj) == pytest.approx(-np.mean(rewards),
                                                rel=0, abs=1e-12)

    def test_out_of_reach_rectangle_rejected(self):
        bad = ReachTarget(rect=((2.0, 3.0), (2.0, 3.0)))
        with pytest.raises(ValueError):
            bad.sample_goal(np.random.default_rng(0), ArmParams())

    def test_distances_match_forward_kinematics(self):
        task = PreciseReaching(seed=3)
        params = ArmParams()
        rng = np.random.default_rng(11)
        th = rng.uniform(-np.pi, np.pi, size=(20, 2))
        traj = fake_traj(th, np.zeros_like(th), np.zeros_like(th))
        d = task._distances(traj)
        gx, gz = task.target.goal_xz
        for k in range(20):
            x, z = hand_xz(th[k, 0], th[k, 1], params)
            assert abs(d[k] - math.hypot(x - gx, z - gz)) < 1e-12


class TestFastReaching:
    def test_threshold_is_strict(self):
        assert fast_reaching_done(0.049)
        assert not fast_reaching_done(0.05)
        assert fast_reaching_done(0.0)

    def test_duration_can_be_set(self):
        assert fast_reaching_task(seed=1).duration == 2.0
        short = fast_reaching_task(seed=1, duration=0.5)
        assert short.duration == 0.5 and short.terminal_threshold == 0.05
        assert make_task("fast-reach", seed=1, duration=0.5).duration == 0.5

    def test_is_done_matches_forward_kinematics(self):
        params = ArmParams(l1=0.35)
        task = fast_reaching_task(seed=2, params=params)
        gx, gz = task.target.goal_xz
        rng = np.random.default_rng(8)
        hits = 0
        for th1, th2 in rng.uniform(-np.pi, np.pi, size=(2000, 2)):
            state = ArmState(float(th1), float(th2))
            x, z = hand_xz(state.th1, state.th2, params)
            done = math.hypot(x - gx, z - gz) < 0.05
            assert task.is_done(state) == done
            hits += done
        assert hits > 0


class TestBallServe:
    def test_free_fall_from_rest(self):
        t = np.arange(100) * 0.005
        dz = -9.81 * t                      # never moves upward
        assert ball_serve_cost(dz) == 0.0

    def test_hit_upward(self):
        dz = np.array([-1.0, -2.0, 3.0, 1.0])
        assert ball_serve_cost(dz) == -3.0

    def test_matches_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            dz = rng.normal(size=int(rng.integers(1, 200)))
            assert ball_serve_cost(dz) == -max(float(v) for v in dz)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ball_serve_cost([])

    def test_initial_conditions(self):
        task = BallServe()
        ball = task.initial_ball()
        assert (ball.x, ball.z) == task.drop_xz
        assert ball.dx == 0.0 and ball.dz == 0.0


class TestTaskFactory:
    def test_known_names(self):
        assert make_task("smooth-reach").name == "smooth-reach"
        assert make_task("precise-reach").name == "precise-reach"
        assert make_task("ball-serve").name == "ball-serve"
        fast = make_task("fast-reach")
        assert fast.name == "fast-reach"
        assert fast.terminal_threshold == 0.05
        assert fast.duration == 2.0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_task("backflip")

    def test_goals_are_sampled_within_the_given_arm(self):
        # against the default arm, 49 of these 50 goals were out of reach
        arm = ArmParams(l1=0.1, l2=0.1)
        for name in ("precise-reach", "fast-reach"):
            for seed in range(50):
                gx, gz = make_task(name, seed=seed, params=arm).target.goal_xz
                assert math.hypot(gx, gz) <= arm.l1 + arm.l2 - 0.01

    def test_default_goal_unchanged_by_passing_the_default_arm(self):
        for seed in range(5):
            assert (make_task("precise-reach", seed=seed).target.goal_xz
                    == make_task("precise-reach", seed=seed,
                                 params=ArmParams()).target.goal_xz)

    def test_smooth_defaults(self):
        task = make_task("smooth-reach")
        assert task.duration == 0.9
        s = task.initial_state()
        assert (s.th1, s.th2) == (-0.5 * math.pi, 0.0)
        assert task.target.th_des == (0.5 * math.pi, 0.5 * math.pi)
