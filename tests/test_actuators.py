"""Tests of the muscle model, activation dynamics, and torque-family actuators.

The curve and pair-torque properties are checked on the definitions in
tests/oracles.py (force_length, ..., muscle_joint_torque), which
test_kernels holds MuscleController.torques to bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myoarm.actuators import (AblationFlags, FV_MAX, LowPassController,
                              MuscleController, MuscleParams, PDController,
                              TorqueController, derive_linear_map,
                              make_controller, pd_control)
from myoarm import control
from myoarm.control import (DT_SIM, parameterization_for, rollout,
                            rollout_plans)
from myoarm.objectives import SmoothReaching
from oracles import (activation_exact, activation_step, fiber_kinematics,
                     force_length, force_passive, force_velocity,
                     lowpass_step, muscle_joint_torque)


def test_linear_map_matches_its_defining_formulas():
    phi_min, phi_max = -0.5 * math.pi, 0.5 * math.pi
    l_min, l_max = 0.75, 1.05
    eps = 0.01
    m1, l_ref1, m2, l_ref2 = derive_linear_map(phi_min, phi_max, l_min, l_max, eps)
    assert m1 == pytest.approx((l_max - l_min) / (phi_max - phi_min + eps), abs=1e-15)
    assert l_ref1 == pytest.approx(l_min - m1 * phi_min, abs=1e-15)
    assert m2 == pytest.approx((l_max - l_min) / (phi_min - phi_max + eps), abs=1e-15)
    assert l_ref2 == pytest.approx(l_min - m2 * phi_max, abs=1e-15)
    assert m1 == pytest.approx(0.0952, abs=1e-4)
    assert m1 > 0.0 > m2


def test_fiber_length_hits_the_range_endpoints():
    mp = MuscleParams()
    l_at_min, _ = fiber_kinematics(mp.phi_min, 0.0, mp.m1, mp.l_ref1)
    l_at_max, _ = fiber_kinematics(mp.phi_max, 0.0, mp.m1, mp.l_ref1)
    assert abs(l_at_min - mp.l_min) < 1e-12
    # the regularizer eps shaves m1*eps off the top of the range
    assert abs(l_at_max - (mp.l_max - mp.m1 * mp.eps)) < 1e-12
    # antagonist runs the range the other way
    l2_at_max, _ = fiber_kinematics(mp.phi_max, 0.0, mp.m2, mp.l_ref2)
    assert abs(l2_at_max - mp.l_min) < 1e-12


def test_fiber_velocity_is_shared_joint_velocity():
    mp = MuscleParams()
    rng = np.random.default_rng(0)
    for _ in range(50):
        phi = rng.uniform(-2.0, 2.0)
        dphi = rng.uniform(-10.0, 10.0)
        _, dl1 = fiber_kinematics(phi, dphi, mp.m1, mp.l_ref1)
        _, dl2 = fiber_kinematics(phi, dphi, mp.m2, mp.l_ref2)
        assert dl1 / mp.m1 == pytest.approx(dphi, rel=1e-12)
        assert dl2 / mp.m2 == pytest.approx(dphi, rel=1e-12)
    _, dl = fiber_kinematics(0.3, 0.0, mp.m1, mp.l_ref1)
    assert dl == 0.0
    l_at_zero, _ = fiber_kinematics(0.0, 1.0, mp.m1, mp.l_ref1)
    assert l_at_zero == mp.l_ref1


def test_linear_map_rejects_bad_ranges():
    with pytest.raises(ValueError):
        derive_linear_map(0.5, -0.5, 0.75, 1.05)
    with pytest.raises(ValueError):
        derive_linear_map(-0.5, 0.5, 1.05, 0.75)
    with pytest.raises(ValueError):
        derive_linear_map(-0.5, 0.5, -0.1, 1.05)
    with pytest.raises(ValueError):
        # narrower joint range than the regularizer flips the antagonist sign
        derive_linear_map(0.0, 0.005, 0.75, 1.05)


def test_activation_fixed_point_and_bounds():
    assert activation_step(0.37, 0.37, 0.005, 0.01) == pytest.approx(0.37, abs=1e-15)
    for u in (0.0, 0.4, 1.0):
        a = 0.9
        for _ in range(500):
            a = activation_step(a, u, 0.005, 0.01)
            assert 0.0 <= a <= 1.0
        assert a == pytest.approx(u, abs=1e-9)


def test_activation_tracks_the_analytic_exponential():
    dt, tau = 0.001, 0.01
    a = 0.0
    u = 1.0
    for k in range(1, 101):
        a = activation_step(a, u, dt, tau)
        exact = activation_exact(0.0, u, k * dt, tau)
        assert abs(a - exact) < 0.01
    # the discrete update is in fact exact for constant u
    assert a == pytest.approx(activation_exact(0.0, 1.0, 0.1, tau), abs=1e-12)


def test_activation_is_a_contraction():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a1, a2, u = rng.uniform(0.0, 1.0, 3)
        dt = rng.uniform(1e-4, 0.01)
        b1 = activation_step(a1, u, dt, 0.01)
        b2 = activation_step(a2, u, dt, 0.01)
        assert abs(b1 - b2) <= abs(a1 - a2) + 1e-15


def test_curve_anchor_points():
    assert force_length(1.0) == 1.0
    assert force_velocity(0.0) == 1.0
    assert force_passive(1.0) == 0.0
    assert force_passive(0.9) == 0.0
    assert force_velocity(-1.0) == 0.0
    assert force_velocity(-2.5) == 0.0
    assert force_velocity(10.0) == pytest.approx(FV_MAX, abs=1e-3)
    assert force_length(0.5) == 0.0
    assert force_length(1.5) == 0.0
    assert force_length(2.0) == 0.0


def test_curve_shapes_on_dense_grids():
    ls = np.linspace(0.4, 1.6, 10000)
    fls = np.array([force_length(l) for l in ls])
    assert np.all(fls >= 0.0)
    assert fls.max() == pytest.approx(1.0, abs=1e-6)
    # unimodal: non-decreasing up to the optimum, non-increasing after
    peak = np.argmax(fls)
    assert np.all(np.diff(fls[:peak + 1]) >= 0.0)
    assert np.all(np.diff(fls[peak:]) <= 0.0)

    vs = np.linspace(-2.0, 8.0, 10000)
    fvs = np.array([force_velocity(v) for v in vs])
    assert np.all(np.diff(fvs) >= 0.0)
    assert np.all(fvs <= FV_MAX)

    fps = np.array([force_passive(l) for l in ls])
    assert np.all(np.diff(fps) >= 0.0)
    assert np.all(fps[ls <= 1.0] == 0.0)


def test_passive_pair_at_short_lengths_is_silent():
    mp = MuscleParams()
    # both fibers at or below optimal length near the centre of the range
    tau = muscle_joint_torque(0.0, 0.0, 0.0, 0.0, mp)
    assert tau == 0.0


def test_antagonists_pull_in_opposite_directions():
    mp = MuscleParams()
    t1 = muscle_joint_torque(0.2, 0.0, 1.0, 0.0, mp)
    t2 = muscle_joint_torque(0.2, 0.0, 0.0, 1.0, mp)
    assert t1 < 0.0 < t2
    assert t1 != -t2  # eps keeps the pair slightly asymmetric


def test_static_torque_is_linear_in_activity():
    mp = MuscleParams()
    phi = 0.3
    l1, _ = fiber_kinematics(phi, 0.0, mp.m1, mp.l_ref1)
    slope = -mp.m1 * force_length(l1) * mp.f_max
    base = muscle_joint_torque(phi, 0.0, 0.0, 0.0, mp)
    for a in (0.25, 0.5, 1.0):
        tau = muscle_joint_torque(phi, 0.0, a, 0.0, mp)
        assert tau - base == pytest.approx(slope * a, rel=1e-12)


def test_fully_ablated_pair_is_a_linear_torque_source():
    mp = MuscleParams()
    flags = AblationFlags(disable_fl=True, disable_fv=True, disable_activation=True)
    ctrl = MuscleController(flags=flags)
    rng = np.random.default_rng(2)
    for _ in range(50):
        phi = rng.uniform(-1.0, 1.0)
        dphi = rng.uniform(-5.0, 5.0)
        u = rng.uniform(0.0, 1.0, 4)
        tau1, tau2, _ = ctrl.torques(ctrl.state0, phi, phi, dphi, dphi, u)
        want1 = -mp.f_max * (mp.m1 * u[0] + mp.m2 * u[1])
        want2 = -mp.f_max * (mp.m1 * u[2] + mp.m2 * u[3])
        assert tau1 == pytest.approx(want1, rel=1e-14)
        assert tau2 == pytest.approx(want2, rel=1e-14)


def test_muscle_torque_is_bounded():
    mp = MuscleParams()
    rng = np.random.default_rng(3)
    for _ in range(500):
        phi = rng.uniform(-3.0, 3.0)
        dphi = rng.uniform(-20.0, 20.0)
        a1, a2 = rng.uniform(0.0, 1.0, 2)
        tau = muscle_joint_torque(phi, dphi, a1, a2, mp)
        l1, _ = fiber_kinematics(phi, dphi, mp.m1, mp.l_ref1)
        l2, _ = fiber_kinematics(phi, dphi, mp.m2, mp.l_ref2)
        fp_max = max(force_passive(l1), force_passive(l2))
        bound = (abs(mp.m1) + abs(mp.m2)) * mp.f_max * (FV_MAX + fp_max)
        assert abs(tau) <= bound + 1e-12


@settings(max_examples=300, deadline=None, database=None)
@given(l_min=st.floats(0.4, 1.0), span=st.floats(0.05, 0.8),
       f_max=st.floats(10.0, 1000.0), v_scale=st.floats(0.1, 2.0),
       where=st.floats(0.0, 1.0), dphi=st.floats(-50.0, 50.0),
       a1=st.floats(0.0, 1.0), a2=st.floats(0.0, 1.0),
       flags=st.builds(AblationFlags, disable_fl=st.booleans(),
                       disable_fv=st.booleans()))
def test_muscle_torque_is_bounded_over_the_joint_range(
        l_min, span, f_max, v_scale, where, dphi, a1, a2, flags):
    # |tau| <= (|m1| + |m2|) f_max (FV_MAX + FP at the range end): FL <= 1,
    # FV < FV_MAX, activities in [0, 1], and the passive factor grows with
    # the fiber length, which is longest at an end of the joint range
    mp = MuscleParams(l_min=l_min, l_max=l_min + span, f_max=f_max,
                      v_scale=v_scale)
    phi = mp.phi_min + where * (mp.phi_max - mp.phi_min)
    tau = muscle_joint_torque(phi, dphi, a1, a2, mp, flags)
    fp_end = max(force_passive(fiber_kinematics(end, 0.0, m, l_ref)[0])
                 for end in (mp.phi_min, mp.phi_max)
                 for m, l_ref in ((mp.m1, mp.l_ref1), (mp.m2, mp.l_ref2)))
    bound = (abs(mp.m1) + abs(mp.m2)) * mp.f_max * (FV_MAX + fp_end)
    assert abs(tau) <= bound * (1.0 + 1e-12)


def test_mirror_symmetry_of_the_antagonistic_pair():
    # with eps = 0 the pair is perfectly mirror-antisymmetric
    sym = MuscleParams(eps=0.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        phi = rng.uniform(-1.5, 1.5)
        a1, a2 = rng.uniform(0.0, 1.0, 2)
        t_fwd = muscle_joint_torque(phi, 0.0, a1, a2, sym)
        t_mir = muscle_joint_torque(-phi, 0.0, a2, a1, sym)
        assert t_mir == pytest.approx(-t_fwd, abs=1e-12)
    # the shipped eps=0.01 breaks it only slightly
    mp = MuscleParams()
    scale = (abs(mp.m1) + abs(mp.m2)) * mp.f_max
    worst = 0.0
    for _ in range(50):
        phi = rng.uniform(-1.5, 1.5)
        a1, a2 = rng.uniform(0.0, 1.0, 2)
        t_fwd = muscle_joint_torque(phi, 0.0, a1, a2, mp)
        t_mir = muscle_joint_torque(-phi, 0.0, a2, a1, mp)
        worst = max(worst, abs(t_mir + t_fwd))
    assert worst <= 0.02 * scale


def test_torque_actuator_scales_linearly():
    ctrl = TorqueController(tau_max=(30.0, 20.0))

    def torques(u1, u2):
        return ctrl.torques(ctrl.state0, 0.0, 0.0, 0.0, 0.0, (u1, u2))

    assert torques(0.0, 0.0) == (0.0, 0.0, ())
    assert torques(1.0, -1.0) == (30.0, -20.0, ())
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(-1.0, 1.0)
        if abs(alpha * u) <= 1.0:
            assert torques(alpha * u, 0.0)[0] == pytest.approx(
                alpha * torques(u, 0.0)[0], rel=1e-12, abs=1e-12)


def test_pd_law_anchor_values():
    assert pd_control(0.7, 0.0, 0.7, 5.0, 0.5) == 0.0
    assert pd_control(0.0, 0.0, 1.0, 0.5, 0.5) == 0.5
    assert pd_control(0.0, 0.0, 10.0, 5.0, 0.5) == 1.0   # clamped
    assert pd_control(0.0, 50.0, 0.0, 5.0, 0.5) == -1.0  # clamped


def test_pd_closed_loop_settles_within_spec():
    """A step to the reach pose must settle within 2% of the step in < 1.5 s."""
    task = SmoothReaching(duration=3.0)
    ctrl = PDController()
    target = (0.5, 0.5)   # scaled by pi: the (pi/2, pi/2) reach pose
    # one segment over the task's horizon, held for all of the 3 s
    res = rollout(task, ctrl, np.array(target),
                  parameterization_for(task, ctrl, task.duration))
    q_hat = np.array(target) * ctrl.target_scale
    q0 = res.th[0]
    tol = 0.02 * np.abs(q_hat - q0)
    settled = np.all(np.abs(res.th - q_hat) <= tol, axis=1)
    k_limit = int(1.5 / DT_SIM)
    assert settled[k_limit:].all()


def test_lowpass_filter_matches_its_update_rule():
    assert lowpass_step(0.3, 0.3, 0.005, 1.0) == pytest.approx(0.3, abs=1e-15)
    a = 0.2
    out = lowpass_step(a, 0.8, 0.005, 0.01)
    assert out == pytest.approx(a + 0.5 * (0.8 - a), abs=1e-15)


def test_slow_lowpass_reaches_63_percent_after_its_time_constant():
    a = 0.0
    for k in range(200):      # 1.0 s at the physics rate
        a = lowpass_step(a, 1.0, 0.005, 1.0)
    assert a == pytest.approx(1.0 - math.exp(-1.0), abs=0.01)
    assert a == pytest.approx(0.63, abs=0.01)


def test_slow_lowpass_tracks_analytic_exponential_within_one_percent():
    a = 0.0
    for k in range(1, 401):
        a = lowpass_step(a, 1.0, 0.005, 1.0)
        exact = activation_exact(0.0, 1.0, k * 0.005, 1.0)
        assert abs(a - exact) < 0.01


def test_lowpass_rejects_a_filter_faster_than_half_the_step():
    # above gain dt/dt_filter = 2 forward Euler diverges: at dt_filter =
    # 0.001 and dt = 0.005 a constant command of 1 runs 5, -15, 65, ...
    a, runs = 0.0, []
    for _ in range(3):
        a = lowpass_step(a, 1.0, DT_SIM, 0.001)
        runs.append(a)
    assert runs == [5.0, -15.0, 65.0]
    # so construction refuses such a filter, and a time constant that is
    # not a positive number
    for bad in (0.001, 0.0, -0.01, math.nan):
        with pytest.raises(ValueError, match="below half the step"):
            LowPassController(dt_filter=bad)
    with pytest.raises(ValueError, match="below half the step"):
        make_controller("lowpass-fast", dt_filter=0.001)
    # at gain 2 exactly the filter is marginally stable, and accepted
    edge = LowPassController(dt_filter=0.0025)
    assert edge.torques(edge.state0, 0.0, 0.0, 0.0, 0.0, (1.0, 1.0))[2] == (2.0, 2.0)
    assert edge.torques((0.5, -0.5), 0.0, 0.0, 0.0, 0.0, (0.25, 0.75))[2] == (
        lowpass_step(0.5, 0.25, DT_SIM, 0.0025),
        lowpass_step(-0.5, 0.75, DT_SIM, 0.0025))


def test_lowpass_rejects_an_infinite_filter():
    # gain DT_SIM/inf is 0: the filter would never leave its start row, and
    # a full command would apply no torque at all
    with pytest.raises(ValueError, match="must be finite"):
        LowPassController(dt_filter=math.inf)
    with pytest.raises(ValueError, match="must be finite"):
        make_controller("lowpass-fast", dt_filter=math.inf)
    # a slow but finite filter passes a full command on, a little per step
    slow = LowPassController(dt_filter=1e6)
    assert slow.torques(slow.state0, 0.0, 0.0, 0.0, 0.0, (1.0, 1.0))[0] > 0.0


def test_rollouts_refuse_a_fast_filter_before_the_first_step():
    # the filter's step is checked once, when the controller is built, so a
    # too-fast filter is refused while a rollout's arguments are evaluated,
    # before the rollout is entered
    task = SmoothReaching(duration=0.05)
    par = control.ControlParameterization(horizon=0.05, resolution=0.05,
                                          n_actuators=2, lo=-1.0, hi=1.0)
    with pytest.raises(ValueError, match="below half the step"):
        rollout(task, make_controller("lowpass-fast", dt_filter=0.001),
                np.ones(2), par)
    with pytest.raises(ValueError, match="below half the step"):
        rollout_plans(make_controller("lowpass-fast", dt_filter=0.001),
                      [(task, np.ones((3, 2)), par)])


def test_controller_factory_and_control_dimensions():
    muscle = make_controller("muscle")
    assert muscle.n_controls == 4 and muscle.lo == 0.0 and muscle.hi == 1.0
    for name in ("torque", "pd", "lowpass-fast", "lowpass-slow"):
        c = make_controller(name)
        assert c.n_controls == 2 and c.lo == -1.0 and c.hi == 1.0
    assert make_controller("lowpass-fast").dt_filter == 0.01
    assert make_controller("lowpass-slow").dt_filter == 1.0
    with pytest.raises(ValueError):
        make_controller("hydraulic")
    with pytest.raises(ValueError):
        make_controller("torque", tau_max=(0.0, 30.0))
    # the PD gains and target scale are constants, not settings
    with pytest.raises(TypeError):
        make_controller("pd", kp=1.0)


@pytest.mark.parametrize("label", ["torque", "pd", "lowpass-fast"])
@pytest.mark.parametrize("tau_max", [(math.nan, 30.0), (30.0, math.inf),
                                     (math.nan, math.inf), (-math.inf, 30.0)])
def test_torque_ceilings_must_be_finite(label, tau_max):
    # a non-finite ceiling turns every command into a NaN or infinite
    # torque, so it is refused with the non-positive ones
    with pytest.raises(ValueError, match="tau_max"):
        make_controller(label, tau_max=tau_max)


def test_muscle_controller_state_snapshot_roundtrip():
    # the state row is the whole actuator state: a step taken twice from
    # the same row gives the same torques and the same next row
    ctrl = MuscleController()
    u = (0.8, 0.1, 0.3, 0.9)
    state = ctrl.state0
    for _ in range(20):
        _, _, state = ctrl.torques(state, 0.2, -0.1, 0.5, 0.0, u)
    step_a = ctrl.torques(state, 0.2, -0.1, 0.5, 0.0, u)
    step_b = ctrl.torques(state, 0.2, -0.1, 0.5, 0.0, u)
    assert step_a == step_b and step_a[2] != state
    assert ctrl.state0 == (0.0, 0.0, 0.0, 0.0)


def test_muscle_activities_lag_the_excitation():
    ctrl = MuscleController()
    _, _, acts = ctrl.torques(ctrl.state0, 0.0, 0.0, 0.0, 0.0,
                              (1.0, 0.0, 0.0, 0.0))
    assert 0.0 < acts[0] < 1.0
    # ablating activation dynamics makes the response instantaneous
    fast = MuscleController(flags=AblationFlags(disable_activation=True))
    _, _, acts = fast.torques(fast.state0, 0.0, 0.0, 0.0, 0.0,
                              (1.0, 0.0, 0.0, 0.0))
    assert acts[0] == 1.0


def test_ablation_flags_from_names():
    flags = AblationFlags.from_names(["fl", "actdyn"])
    assert flags.disable_fl and flags.disable_activation and not flags.disable_fv
    with pytest.raises(ValueError):
        AblationFlags.from_names(["fp"])


@pytest.mark.parametrize("name, value", [
    ("f_max", math.nan), ("v_scale", math.nan), ("phi_min", math.nan),
    ("tau_act", math.inf), ("phi_max", math.inf), ("l_min", math.nan),
    ("l_max", math.inf), ("eps", math.nan)])
def test_non_finite_muscle_parameters_are_refused(name, value):
    # NaN passes `<= 0.0` and the range checks, so a NaN f_max, v_scale or
    # phi_min, or an infinite tau_act, used to build a muscle
    with pytest.raises(ValueError, match=f"MuscleParams.{name}"):
        MuscleParams(**{name: value})


def test_muscle_params_validation():
    with pytest.raises(ValueError):
        MuscleParams(f_max=0.0)
    with pytest.raises(ValueError):
        MuscleParams(tau_act=0.0)
    with pytest.raises(ValueError):
        MuscleParams(l_min=1.1, l_max=1.05)
