"""Bit-exact properties of the scalar hot path.

The symplectic step, the muscle kernel and the rollout recorder are written
for speed: inlined helpers, hoisted lookups, per-step lists turned into
arrays once. Each is checked here against a reference composed from the
plain building blocks, written the straightforward way, and compared with
`==`: the fast forms keep every floating-point operation, so not one bit
may differ.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from myoarm.actuators import (AblationFlags, HatzeParams, MuscleController,
                              MuscleParams, activation_step, fiber_kinematics,
                              force_length, force_passive, force_velocity,
                              hatze_activation_step, make_controller,
                              muscle_joint_torque)
from myoarm.arm import (ArmParams, ArmState, Perturbation, _accel,
                        _bias, _Coeffs, _hand, _jacobian, _mass_matrix,
                        _pendulum_forces, _symp_step, ball_step, end_effector)
from myoarm.control import (DT_SIM, SENTINEL_COST, constant_control,
                            parameterization_for, rollout, zoh_control)
from myoarm.objectives import PreciseReaching, ReachTarget, make_task

EXACT = settings(max_examples=150, deadline=None, database=None)
ROLLOUTS = settings(max_examples=12, deadline=None, database=None)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# -- the symplectic step ---------------------------------------------------

def symp_step_reference(c, th1, th2, w1, w2, tau1, tau2, dt):
    """_symp_step as composed from _mass_matrix and _bias."""
    m11, m12, m22 = _mass_matrix(c, th2)
    det = m11 * m22 - m12 * m12
    b1, b2 = _bias(c, th1, th2, w1, w2)
    r1 = tau1 - b1
    r2 = tau2 - b2
    a1 = (m22 * r1 - m12 * r2) / det
    a2 = (m11 * r2 - m12 * r1) / det
    p1 = m11 * w1 + m12 * w2
    p2 = m12 * w1 + m22 * w2
    c12 = math.cos(th1 - th2)
    v1g = c.kg1 * math.cos(th1) + c.kg2 * c12
    v2g = -c.kg2 * c12
    hs = c.cross * math.sin(th2)
    q1 = p1 + dt * (tau1 - v1g)
    q2 = p2
    for _ in range(3):
        u1 = (m22 * q1 - m12 * q2) / det
        u2 = (m11 * q2 - m12 * q1) / det
        q2 = p2 + dt * (tau2 - (hs * u1 * (u1 - u2) + v2g))
    u1 = (m22 * q1 - m12 * q2) / det
    u2 = (m11 * q2 - m12 * q1) / det
    th1n = th1 + dt * u1
    th2n = th2 + dt * u2
    n11, n12, n22 = _mass_matrix(c, th2n)
    ndet = n11 * n22 - n12 * n12
    w1n = (n22 * q1 - n12 * q2) / ndet
    w2n = (n11 * q2 - n12 * q1) / ndet
    return th1n, th2n, w1n, w2n, a1, a2


@st.composite
def arm_params(draw):
    l1 = draw(finite(0.05, 1.0))
    l2 = draw(finite(0.05, 1.0))
    return ArmParams(l1=l1, l2=l2, m1=draw(finite(0.1, 10.0)),
                     m2=draw(finite(0.1, 10.0)),
                     r1=draw(finite(0.01, 1.0)) * l1,
                     r2=draw(finite(0.01, 1.0)) * l2,
                     i1=draw(finite(1e-4, 0.1)), i2=draw(finite(1e-4, 0.1)),
                     m_hand=draw(finite(0.0, 5.0)),
                     m_extra=draw(finite(0.0, 5.0)), g=draw(finite(0.0, 20.0)))


@EXACT
@given(p=arm_params(), th=st.tuples(finite(-10.0, 10.0), finite(-10.0, 10.0)),
       w=st.tuples(finite(-50.0, 50.0), finite(-50.0, 50.0)),
       tau=st.tuples(finite(-500.0, 500.0), finite(-500.0, 500.0)),
       dt=finite(1e-4, 0.02))
def test_symp_step_equals_its_composed_reference(p, th, w, tau, dt):
    c = _Coeffs(p)
    args = (c, th[0], th[1], w[0], w[1], tau[0], tau[1], dt)
    assert _symp_step(*args) == symp_step_reference(*args)


# -- the muscle kernel -----------------------------------------------------

def pair_torque_reference(phi, dphi, a1, a2, mp, flags):
    """tau = -(m1*F1 + m2*F2) composed from the fiber map and the curves."""
    def force(l, dl, a):
        fl = 1.0 if flags.disable_fl else force_length(l)
        fv = 1.0 if flags.disable_fv else force_velocity(mp.v_scale * dl)
        return (fl * fv * a + force_passive(l)) * mp.f_max

    l1, dl1 = fiber_kinematics(phi, dphi, mp.m1, mp.l_ref1)
    l2, dl2 = fiber_kinematics(phi, dphi, mp.m2, mp.l_ref2)
    return -(mp.m1 * force(l1, dl1, a1) + mp.m2 * force(l2, dl2, a2))


def torques_reference(ctrl, acts, gammas, th1, th2, w1, w2, u, dt):
    """One MuscleController step composed from the public step functions.

    Updates acts and gammas in place; returns the two joint torques.
    """
    taus = []
    for j, (mp, phi, dphi) in enumerate(((ctrl.shoulder, th1, w1),
                                         (ctrl.elbow, th2, w2))):
        for i, (m, l_ref) in ((2 * j, (mp.m1, mp.l_ref1)),
                              (2 * j + 1, (mp.m2, mp.l_ref2))):
            l, _ = fiber_kinematics(phi, dphi, m, l_ref)
            if ctrl.flags.disable_activation:
                v = u[i]
                acts[i] = 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)
            elif ctrl.activation_model == "hatze":
                gammas[i], acts[i] = hatze_activation_step(
                    gammas[i], u[i], l, dt, ctrl.hatze)
            else:
                acts[i] = activation_step(acts[i], u[i], dt, mp.tau_act)
        taus.append(pair_torque_reference(phi, dphi, acts[2 * j],
                                          acts[2 * j + 1], mp, ctrl.flags))
    return tuple(taus)


@st.composite
def muscle_params(draw):
    l_min = draw(finite(0.4, 1.0))
    return MuscleParams(l_min=l_min, l_max=l_min + draw(finite(0.05, 0.8)),
                        f_max=draw(finite(10.0, 1000.0)),
                        tau_act=draw(finite(1e-3, 0.1)),
                        v_scale=draw(finite(0.1, 2.0)))


flag_sets = st.builds(AblationFlags, disable_fl=st.booleans(),
                      disable_fv=st.booleans(),
                      disable_activation=st.booleans())

# excitations reach past [0, 1] to cover the clamp
muscle_steps = st.lists(
    st.tuples(finite(-3.0, 3.0), finite(-3.0, 3.0), finite(-30.0, 30.0),
              finite(-30.0, 30.0), st.tuples(*[finite(-0.5, 1.5)] * 4)),
    min_size=1, max_size=8)


@EXACT
@given(shoulder=muscle_params(), elbow=muscle_params(), flags=flag_sets,
       model=st.sampled_from(["first_order", "hatze"]),
       hatze=st.builds(HatzeParams, m_h=finite(1.0, 50.0), nu=finite(1.0, 4.0),
                       rho_scale=finite(1.0, 10.0)),
       steps=muscle_steps, dt=finite(1e-3, 0.02))
def test_muscle_kernel_equals_the_composed_step_functions(
        shoulder, elbow, flags, model, hatze, steps, dt):
    ctrl = MuscleController(shoulder=shoulder, elbow=elbow, flags=flags,
                            activation_model=model, hatze=hatze)
    acts, gammas = [0.0] * 4, [0.0] * 4
    for th1, th2, w1, w2, u in steps:
        want = torques_reference(ctrl, acts, gammas, th1, th2, w1, w2, u, dt)
        assert ctrl.torques(th1, th2, w1, w2, u, dt) == want
        assert ctrl.activities == acts
        assert ctrl.gammas == gammas


@EXACT
@given(mp=muscle_params(), flags=st.one_of(st.none(), flag_sets),
       phi=finite(-3.0, 3.0), dphi=finite(-30.0, 30.0),
       a=st.tuples(finite(0.0, 1.0), finite(0.0, 1.0)))
def test_pair_torque_equals_the_composed_curves(mp, flags, phi, dphi, a):
    want = pair_torque_reference(phi, dphi, a[0], a[1], mp,
                                 flags or AblationFlags())
    assert muscle_joint_torque(phi, dphi, a[0], a[1], mp, flags) == want


# -- the rollout recorder --------------------------------------------------

def rollout_reference(task, controller, control_fn, params=None,
                      perturbation=None, initial_state=None, dt=DT_SIM):
    """rollout's trajectory arrays from a plain step-by-step loop."""
    params = params or ArmParams()
    p_eff = perturbation.apply_to(params) if perturbation is not None else params
    c = _Coeffs(p_eff)
    pend = (perturbation if perturbation is not None
            and perturbation.kind == "chaotic_pendulum" else None)
    s = initial_state or task.initial_state()
    th1, th2, w1, w2 = s.th1, s.th2, s.dth1, s.dth2
    phi, dphi = s.pend_angle, s.pend_vel
    ball = task.initial_ball() if getattr(task, "has_ball", False) else None
    controller.reset()
    out = {name: [] for name in ("th", "dth", "ddth", "controls", "torques",
                                 "activities", "pend", "ball")}
    out["th"].append([th1, th2])
    out["dth"].append([w1, w2])
    out["pend"].append([phi, dphi])
    if ball is not None:
        out["ball"].append([ball.x, ball.z, ball.dx, ball.dz])
    diverged = False
    termination = "horizon"
    tau = (0.0, 0.0)
    for k in range(round(task.duration / dt)):
        u = control_fn(k, s.t + k * dt)
        tau = controller.torques(th1, th2, w1, w2, u, dt)
        t1, t2 = tau
        if pend is not None:
            fx, fz, ddphi, _, _ = _pendulum_forces(c, th1, th2, w1, w2, *tau,
                                                   pend, phi, dphi)
            j11, j12, j21, j22 = _jacobian(c, th1, th2)
            t1 += j11 * fx + j21 * fz
            t2 += j12 * fx + j22 * fz
            dphi = dphi + dt * ddphi
            phi = phi + dt * dphi
        th1, th2, w1, w2, a1, a2 = symp_step_reference(c, th1, th2, w1, w2,
                                                       t1, t2, dt)
        out["ddth"].append([a1, a2])
        out["controls"].append(list(u))
        out["torques"].append(list(tau))
        if controller.n_internal:
            snap = controller.snapshot()
            out["activities"].append(list(snap[0] if isinstance(snap, tuple)
                                          else snap))
        out["th"].append([th1, th2])
        out["dth"].append([w1, w2])
        out["pend"].append([phi, dphi])
        if ball is not None:
            hx, hz, hvx, hvz = _hand(c, th1, th2, w1, w2)
            ball = ball_step(ball, (hx, hz), (hvx, hvz), dt, g=p_eff.g,
                             contact_radius=task.contact_radius)
            out["ball"].append([ball.x, ball.z, ball.dx, ball.dz])
        if not all(math.isfinite(v) for v in (th1, th2, w1, w2)):
            diverged, termination = True, "diverged"
            break
        if getattr(task, "terminal_threshold", None) is not None and task.is_done(
                ArmState(th1, th2, w1, w2, t=s.t + (k + 1) * dt), params):
            termination = "goal"
            break
    if diverged:
        out["ddth"].append(out["ddth"][-1])
    elif pend is not None:
        out["ddth"].append(list(_pendulum_forces(c, th1, th2, w1, w2, *tau,
                                                 pend, phi, dphi)[3:]))
    else:
        out["ddth"].append(list(_accel(c, th1, th2, w1, w2, *tau)))
    arrays = {name: np.array(rows, dtype=float) if rows else None
              for name, rows in out.items()}
    if pend is None:
        arrays["pend"] = None
    return arrays, diverged, termination


def assert_rollout_matches(res, ref):
    arrays, diverged, termination = ref
    assert (res.diverged, res.termination) == (diverged, termination)
    assert res.steps == arrays["torques"].shape[0]
    for name, want in arrays.items():
        got = getattr(res, name)
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want, equal_nan=True), name


seeds = st.integers(0, 2 ** 32 - 1)


def random_plan(task, controller, seed, resolution=0.05):
    par = parameterization_for(task, controller, resolution)
    theta = np.random.default_rng(seed).uniform(controller.lo, controller.hi,
                                                par.dim)
    return zoh_control(theta, par, DT_SIM)


@ROLLOUTS
@given(morph=st.sampled_from(["muscle", "torque", "pd", "lowpass-fast"]),
       seed=seeds)
def test_rollout_records_the_step_by_step_trajectory(morph, seed):
    task = make_task("smooth-reach")
    ctrl = make_controller(morph)
    fn = random_plan(task, ctrl, seed)
    res = rollout(task, ctrl, fn)
    assert res.termination == "horizon"
    assert_rollout_matches(res, rollout_reference(task, ctrl, fn))


@ROLLOUTS
@given(morph=st.sampled_from(["muscle", "torque"]), seed=seeds,
       cable=finite(0.1, 0.8))
def test_rollout_records_the_pendulum_load(morph, seed, cable):
    task = make_task("smooth-reach", duration=0.4)
    pert = Perturbation(kind="chaotic_pendulum", cable_length=cable)
    ctrl = make_controller(morph)
    fn = random_plan(task, ctrl, seed)
    res = rollout(task, ctrl, fn, perturbation=pert)
    assert res.pend is not None
    assert_rollout_matches(res, rollout_reference(task, ctrl, fn,
                                                  perturbation=pert))


@ROLLOUTS
@given(seed=seeds)
def test_rollout_records_the_ball(seed):
    task = make_task("ball-serve")
    ctrl = make_controller("muscle")
    fn = random_plan(task, ctrl, seed, resolution=0.3)
    res = rollout(task, ctrl, fn)
    assert res.ball is not None
    assert_rollout_matches(res, rollout_reference(task, ctrl, fn))


@ROLLOUTS
@given(morph=st.sampled_from(["muscle", "lowpass-slow"]), seed=seeds,
       goal_step=st.integers(1, 60))
def test_rollout_stops_at_the_goal(morph, seed, goal_step):
    # put the goal where the hand is after goal_step steps of a free run
    ctrl = make_controller(morph)
    free = PreciseReaching(target=ReachTarget(goal_xz=(0.0, 0.0)),
                           duration=0.4)
    fn = random_plan(free, ctrl, seed)
    th = rollout(free, ctrl, fn).th[goal_step]
    (gx, gz), _ = end_effector(ArmState(float(th[0]), float(th[1])),
                               ArmParams())
    task = PreciseReaching(target=ReachTarget(goal_xz=(gx, gz)), duration=0.4,
                           terminal_threshold=1e-9)
    res = rollout(task, ctrl, fn)
    assert res.termination == "goal" and res.steps <= goal_step
    assert_rollout_matches(res, rollout_reference(task, ctrl, fn))


@ROLLOUTS
@given(morph=st.sampled_from(["muscle", "torque"]),
       speed=finite(1e160, 1e300))
def test_rollout_records_a_diverged_run(morph, speed):
    task = make_task("smooth-reach")
    ctrl = make_controller(morph)
    wild = ArmState(th1=0.0, th2=0.5, dth1=speed, dth2=-speed)
    fn = constant_control([0.5] * ctrl.n_controls)
    res = rollout(task, ctrl, fn, initial_state=wild)
    assert res.diverged and res.cost == SENTINEL_COST
    assert_rollout_matches(res, rollout_reference(task, ctrl, fn,
                                                  initial_state=wild))
