"""Tests of the two-link arm dynamics, integrator, and ball physics.

They call the kernels the rollouts run: _accel for the joint
accelerations, _symp_step (rollout_plans' array step, here on one column
with math's trigonometry, through test_kernels.symp_step_floats) for one
integrator step, _pendulum_step for a swinging load and _hand for the
hand's position and velocity.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest

from myoarm.actuators import make_controller
from myoarm.arm import (PENDULUM_MASS, ArmParams, ArmState, BallState,
                        Perturbation, _accel, _Coeffs, _hand, _mass_terms,
                        _pendulum_step, ball_step)
from myoarm.control import parameterization_for, rollout
from myoarm.objectives import make_task
from oracles import (energy_drift_rate, fd_lagrangian_accel, gravity_torque,
                     kinetic_energy, lagrange_accel, mass_matrix,
                     potential_energy, rk4_reference, rk4_step, total_energy)
from test_kernels import symp_step_floats

DT = 0.005


def accel(s, tau, p):
    """Joint accelerations of state s under torques tau."""
    return _accel(_Coeffs(p), s.th1, s.th2, s.dth1, s.dth2, tau[0], tau[1])


def advance(s, tau, dt, p):
    """State s after one _symp_step under torques tau (on one column, with
    math's trigonometry)."""
    c = _Coeffs(p)
    th1, th2, w1, w2 = symp_step_floats(c, s.th1, s.th2, s.dth1, s.dth2,
                                        tau[0], tau[1], dt,
                                        *_mass_terms(c, s.th2))[:4]
    return ArmState(th1, th2, w1, w2)


def hand(s, p):
    """Hand position (x, z) and velocity (vx, vz) of state s."""
    x, z, vx, vz = _hand(_Coeffs(p), s.th1, s.th2, s.dth1, s.dth2)
    return (x, z), (vx, vz)


def test_hanging_arm_is_an_equilibrium():
    s = ArmState(th1=-0.5 * math.pi, th2=0.0)
    a1, a2 = accel(s, (0.0, 0.0), ArmParams())
    assert abs(a1) < 1e-12
    assert abs(a2) < 1e-12


def test_horizontal_release_accelerates_both_joints_downward():
    s = ArmState(th1=0.0, th2=0.0)
    a1, a2 = accel(s, (0.0, 0.0), ArmParams())
    assert a1 < 0.0
    assert a2 < 0.0


def test_forward_dynamics_matches_lagrangian_differences():
    p = ArmParams()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        th = rng.uniform(-math.pi, math.pi, 2)
        w = rng.uniform(-8.0, 8.0, 2)
        tau = rng.uniform(-30.0, 30.0, 2)
        got = accel(ArmState(th[0], th[1], w[0], w[1]), tau, p)
        ref = fd_lagrangian_accel(th, w, tau, p)
        scale = max(1.0, abs(ref[0]), abs(ref[1]))
        worst = max(worst, abs(got[0] - ref[0]) / scale, abs(got[1] - ref[1]) / scale)
    assert worst <= 1e-4


def test_rk4_reference_accelerations_match_lagrangian_differences():
    # the reference integrator's closed-form Euler-Lagrange accelerations
    # against the finite-difference ones, on a loaded arm
    p = ArmParams(m_hand=1.2, m_extra=0.7)
    rng = np.random.default_rng(8)
    for _ in range(50):
        th = rng.uniform(-math.pi, math.pi, 2)
        w = rng.uniform(-8.0, 8.0, 2)
        tau = rng.uniform(-30.0, 30.0, 2)
        got = lagrange_accel(th[0], th[1], w[0], w[1], tau, p)
        ref = fd_lagrangian_accel(th, w, tau, p)
        scale = max(1.0, abs(ref[0]), abs(ref[1]))
        assert abs(got[0] - ref[0]) <= 1e-4 * scale
        assert abs(got[1] - ref[1]) <= 1e-4 * scale


def test_step_at_equilibrium_only_advances_time():
    s0 = ArmState(th1=-0.5 * math.pi, th2=0.0)
    s1 = advance(s0, (0.0, 0.0), DT, ArmParams())
    assert abs(s1.th1 - s0.th1) < 1e-12
    assert abs(s1.th2 - s0.th2) < 1e-12
    assert abs(s1.dth1) < 1e-12
    assert abs(s1.dth2) < 1e-12


def test_passive_swing_energy_drift_below_half_percent_per_second():
    p = ArmParams()
    s = ArmState(th1=0.0, th2=0.0)
    energies = [total_energy(s, p)]
    peak_kinetic = 0.0
    for _ in range(round(1.0 / DT)):
        s = advance(s, (0.0, 0.0), DT, p)
        energies.append(total_energy(s, p))
        peak_kinetic = max(peak_kinetic, kinetic_energy(s, p))
    rate = abs(energy_drift_rate(energies, DT))
    assert rate / peak_kinetic < 0.005


def test_integrator_global_error_is_first_order():
    p = ArmParams()
    ref = rk4_reference(ArmState(0.0, 0.0), (0.0, 0.0), 0.5, p)
    errors = []
    dts = [0.005, 0.0025, 0.00125]
    for dt in dts:
        s = ArmState(0.0, 0.0)
        for _ in range(round(0.5 / dt)):
            s = advance(s, (0.0, 0.0), dt, p)
        errors.append(math.hypot(s.th1 - ref.th1, s.th2 - ref.th2))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert 0.75 < slope < 1.35


def test_rk4_reference_conserves_energy():
    p = ArmParams()
    s = ArmState(0.0, 0.0)
    e0 = total_energy(s, p)
    for _ in range(5000):
        s = rk4_step(s, (0.0, 0.0), 1e-4, p)
    assert abs(total_energy(s, p) - e0) < 1e-6


def test_end_effector_anchor_poses():
    p = ArmParams()
    pos, vel = hand(ArmState(0.0, 0.0), p)
    assert pos[0] == pytest.approx(p.l1 + p.l2, abs=1e-12)
    assert pos[1] == pytest.approx(0.0, abs=1e-12)
    assert vel == (0.0, 0.0)
    pos, _ = hand(ArmState(0.5 * math.pi, 0.0), p)
    assert pos[0] == pytest.approx(0.0, abs=1e-12)
    assert pos[1] == pytest.approx(p.l1 + p.l2, abs=1e-12)


def test_end_effector_velocity_is_position_derivative():
    p = ArmParams()

    def pose(t):
        return ArmState(th1=0.7 * math.sin(3.0 * t) - 0.4,
                        th2=0.9 * math.cos(2.0 * t),
                        dth1=2.1 * math.cos(3.0 * t),
                        dth2=-1.8 * math.sin(2.0 * t))

    h = 1e-5
    max_speed = 0.0
    worst = 0.0
    for t in np.linspace(0.0, 2.0, 40):
        (xp, zp), _ = hand(pose(t + h), p)
        (xm, zm), _ = hand(pose(t - h), p)
        _, (vx, vz) = hand(pose(t), p)
        max_speed = max(max_speed, math.hypot(vx, vz))
        worst = max(worst, abs(vx - (xp - xm) / (2 * h)), abs(vz - (zp - zm) / (2 * h)))
    assert worst <= 1e-6 * max_speed


def test_mass_matrix_symmetric_positive_definite_everywhere():
    p = ArmParams()
    rng = np.random.default_rng(11)
    for th2 in rng.uniform(-math.pi, math.pi, 1000):
        (m11, m12), (m21, m22) = mass_matrix(ArmState(0.0, float(th2)), p)
        assert m12 == m21
        assert m11 > 0.0
        assert m11 * m22 - m12 * m12 > 0.0


def test_extra_lower_arm_mass_increases_gravity_load():
    s = ArmState(0.0, 0.0)
    norms = []
    for extra in (0.0, 1.0, 2.0):
        g1, g2 = gravity_torque(s, ArmParams(m_extra=extra))
        norms.append(math.hypot(g1, g2))
    assert norms[0] < norms[1] < norms[2]


def test_step_trajectories_are_bit_identical_across_reruns():
    p = ArmParams()
    rng = np.random.default_rng(3)
    taus = rng.uniform(-5.0, 5.0, (200, 2))

    def run():
        s = ArmState(th1=-0.5 * math.pi, th2=0.0)
        out = []
        for tau in taus:
            s = advance(s, (float(tau[0]), float(tau[1])), DT, p)
            out.append(astuple(s))
        return out

    assert run() == run()


def test_none_perturbation_leaves_dynamics_unchanged():
    p = ArmParams()
    assert Perturbation(kind="none").apply_to(p) is p
    # a rollout of constant torque commands from a moving state, with and
    # without the 'none' perturbation
    task = make_task("smooth-reach", duration=0.2)
    ctrl = make_controller("torque")
    plan = [0.1, -0.2]
    par = parameterization_for(task, ctrl, task.duration)
    s0 = ArmState(0.3, -0.2, 1.0, -0.5)
    assert task.params == p
    plain = rollout(task, ctrl, plan, par, initial_state=s0)
    tagged = rollout(task, ctrl, plan, par, initial_state=s0,
                     perturbation=Perturbation(kind="none"))
    for name in ("th", "dth", "ddth", "torques"):
        assert np.array_equal(getattr(plain, name), getattr(tagged, name))


def test_mass_perturbations_add_to_the_right_body():
    base = ArmParams()
    heavier_arm = Perturbation(kind="lower_arm_mass", mass=2.0).apply_to(base)
    heavier_hand = Perturbation(kind="hand_mass", mass=1.5).apply_to(base)
    assert heavier_arm.m_extra == 2.0 and heavier_arm.m_hand == base.m_hand
    assert heavier_hand.m_hand == base.m_hand + 1.5 and heavier_hand.m_extra == 0.0


def test_pendulum_load_changes_motion_and_stays_finite():
    p = ArmParams()
    pert = Perturbation(kind="chaotic_pendulum")
    # a solid sphere of radius 0.12 m at the density of water
    assert PENDULUM_MASS == pytest.approx((4 / 3) * math.pi * 0.12 ** 3 * 1000)
    c = _Coeffs(p)
    free = load = (0.0, 0.0, 0.0, 0.0)      # th1, th2, dth1, dth2
    phi = dphi = 0.0                         # the bob's cable angle and rate
    for _ in range(400):
        free = symp_step_floats(c, *free, 0.0, 0.0, DT,
                                *_mass_terms(c, free[1]))[:4]
        # the cable force at the hand joins the joint torques, and the bob
        # advances alongside the arm
        t1, t2, phi, dphi = _pendulum_step(c, *load, 0.0, 0.0, pert, phi,
                                           dphi, DT)
        load = symp_step_floats(c, *load, t1, t2, DT,
                                *_mass_terms(c, load[1]))[:4]
    assert all(math.isfinite(v) for v in (*load, phi, dphi))
    assert load[0] != free[0]
    # the bob actually swings
    assert phi != 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        ArmParams(l1=0.0)
    with pytest.raises(ValueError):
        ArmParams(m_hand=-0.1)
    with pytest.raises(ValueError):
        Perturbation(kind="wind")
    # an infinite hand mass used to run, and diverge, in the first step
    for mass in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="mass"):
            Perturbation(kind="hand_mass", mass=mass)


@pytest.mark.parametrize("name, value", [
    ("l1", math.nan), ("r2", math.inf), ("m1", math.inf), ("i2", math.nan),
    ("g", math.nan), ("g", -math.inf), ("m_hand", math.inf),
    ("m_extra", math.nan)])
def test_non_finite_arm_parameters_are_refused(name, value):
    # NaN passes `<= 0.0`, so ArmParams(l1=nan) used to build, and every
    # rollout of it then diverged
    with pytest.raises(ValueError, match=f"ArmParams.{name}"):
        ArmParams(**{name: value})


@pytest.mark.parametrize("length", [0.0, -0.3, math.nan, math.inf])
def test_a_pendulum_cable_must_have_a_positive_finite_length(length):
    # a cable of length 0 used to build, and its rollout then died with a
    # ZeroDivisionError
    with pytest.raises(ValueError, match="cable_length"):
        Perturbation(kind="chaotic_pendulum", cable_length=length)


def test_ball_free_fall_matches_analytic_velocity():
    ball = BallState(x=2.0, z=3.0)
    far_hand = ((-5.0, -5.0), (0.0, 0.0))
    for k in range(1, 201):
        ball = ball_step(ball, far_hand[0], far_hand[1], DT)
        assert abs(ball.dz - (-9.81 * k * DT)) < 1e-9
    assert ball.dx == 0.0


def test_ball_reflects_elastically_off_stationary_hand():
    ball = BallState(x=0.0, z=0.049, dz=-1.0)
    out = ball_step(ball, (0.0, 0.0), (0.0, 0.0), 1e-4)
    # gravity first steepens the fall, then the bounce mirrors it exactly
    assert out.dz == pytest.approx(1.0 + 9.81e-4, abs=1e-12)


def test_moving_hand_adds_twice_its_normal_speed():
    v_hand = 0.8
    drop = BallState(x=0.0, z=0.049, dz=-1.0)
    still = ball_step(drop, (0.0, 0.0), (0.0, 0.0), 1e-4)
    moving = ball_step(BallState(x=0.0, z=0.049, dz=-1.0),
                       (0.0, 0.0), (0.0, v_hand), 1e-4)
    assert moving.dz - still.dz == pytest.approx(2.0 * v_hand, abs=1e-6)


def test_ball_ignores_receding_hand():
    ball = BallState(x=0.0, z=0.049, dz=1.0)   # moving away upward
    out = ball_step(ball, (0.0, 0.0), (0.0, 0.0), 1e-4)
    assert out.dz == pytest.approx(1.0 - 9.81e-4, abs=1e-12)


def test_energy_components_are_consistent():
    p = ArmParams()
    s = ArmState(0.4, -0.7, 1.3, 2.1)
    assert total_energy(s, p) == pytest.approx(
        kinetic_energy(s, p) + potential_energy(s, p), abs=1e-12)
    assert kinetic_energy(s, p) > 0.0
