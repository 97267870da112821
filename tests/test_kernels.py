"""Bit-exact properties of the scalar hot path.

The symplectic step, the actuator kernels, the smooth-reach cost and the
rollout recorder are written for speed: inlined helpers, hoisted lookups,
exact sign identities in place of negations, constants converted once, one
record per step turned into one array once. Each is checked here against
a reference composed from the plain building blocks, written the
straightforward way, and compared with `==`: the fast forms keep every
floating-point operation, so not one bit may differ. The muscle kernel
(MuscleController.torques, one straight-line function) is held to the
oracle curves and activation step of tests/oracles.py, composed per joint
by oracles.muscle_joint_torque; the torque kernel to oracles.torque_actuator;
the smooth-reach cost to oracles.smooth_reach_stages. The array form of the
step, rollout_batch's, is held to the scalar one element by element. The
scalar rollout's loop carries an inline copy of the step, which the
rollout_reference tests hold, step by step, to the composed step.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from myoarm.actuators import (AblationFlags, HatzeParams, MuscleController,
                              MuscleParams, TorqueController,
                              hatze_activation_step, make_controller)
from myoarm.arm import (ArmParams, ArmState, Perturbation, _accel,
                        _bias, _Coeffs, _hand, _jacobian, _mass_matrix,
                        _mass_terms, _pendulum_forces, _symp_step, ball_step,
                        hand_position)
from myoarm.control import (DT_SIM, SENTINEL_COST, _array_coeffs,
                            parameterization_for, rollout)
from myoarm.config import ExperimentConfig
from myoarm.harness import _task_for
from myoarm.objectives import (ObjectiveWeights, PreciseReaching, ReachTarget,
                               SmoothReaching, make_task,
                               precise_reaching_reward)
from oracles import (activation_step, fiber_kinematics, muscle_joint_torque,
                     smooth_reach_stages, torque_actuator)
from test_batch import TRIG_EXACT

# no shrink phase: a failing bit-exact property reports its first
# counterexample at once; shrinking one took minutes
EXACT = settings(max_examples=150, deadline=None, database=None,
                 phases=[p for p in Phase if p is not Phase.shrink])
ROLLOUTS = settings(max_examples=12, deadline=None, database=None)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# -- the symplectic step ---------------------------------------------------

def composed_mass_terms(c, th2):
    """The (m11, s, det) _symp_step carries, composed from _mass_matrix:
    s = -m12 and det = m11*m22 - m12*m12."""
    m11, m12, m22 = _mass_matrix(c, th2)
    return m11, -m12, m11 * m22 - m12 * m12


def symp_step_reference(c, th1, th2, w1, w2, tau1, tau2, dt):
    """_symp_step as composed from _mass_matrix and _bias, the new
    configuration's mass-matrix terms included."""
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
    return th1n, th2n, w1n, w2n, a1, a2, n11, -n12, ndet


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
    # the step takes the pre-step configuration's terms, here composed
    # from _mass_matrix, and hands on the new configuration's
    c = _Coeffs(p)
    args = (c, th[0], th[1], w[0], w[1], tau[0], tau[1], dt)
    assert (_symp_step(*args, *composed_mass_terms(c, th[1]))
            == symp_step_reference(*args))


# angles past any physical range, infinite and NaN ones included
wild_angles = st.one_of(finite(-1e300, 1e300),
                        st.sampled_from([math.inf, -math.inf, math.nan]))


@EXACT
@given(p=arm_params(),
       rows=st.lists(st.tuples(wild_angles, wild_angles,
                               *[finite(-1e300, 1e300)] * 4),
                     min_size=1, max_size=20),
       dt=finite(1e-4, 0.02))
def test_array_step_matches_the_scalar_step_element_by_element(p, rows, dt):
    # rollout_batch's step: the same body on arrays with np.cos/np.sin,
    # its constants and dt 0-d arrays as rollout_batch builds them, and the
    # mass-matrix terms it starts from computed the same way. Where
    # math.cos or math.sin meets an infinite angle the scalar step (with
    # its terms) raises (rollout's divergence) and np.cos gives NaN, so the
    # row's state must not be finite; elsewhere each output, the carried
    # terms included, is finite exactly where the scalar one is, and equal
    # to it where the trig functions are
    c, arrays = _Coeffs(p), _array_coeffs(p)
    columns = [np.array(col) for col in zip(*rows)]
    with np.errstate(all="ignore"):
        got = _symp_step(arrays, *columns, np.array(dt),
                         *_mass_terms(arrays, columns[1], np.cos), np.cos, np.sin)
    for i, row in enumerate(rows):
        mine = [float(x[i]) for x in got]
        try:
            want = _symp_step(c, *row, dt, *_mass_terms(c, row[1]))
        except ValueError as exc:
            assert str(exc) == "math domain error"
            assert not all(map(math.isfinite, mine[:4]))
            continue
        assert list(map(math.isfinite, mine)) == list(map(math.isfinite, want))
        if TRIG_EXACT:
            assert all(a == b or (math.isnan(a) and math.isnan(b))
                       for a, b in zip(mine, want))


@EXACT
@given(p=arm_params(),
       rows=st.lists(st.tuples(finite(-10.0, 10.0), finite(-10.0, 10.0),
                               finite(-50.0, 50.0), finite(-50.0, 50.0),
                               finite(-500.0, 500.0), finite(-500.0, 500.0)),
                     min_size=1, max_size=20),
       dt=finite(1e-4, 0.02))
def test_carried_mass_terms_are_the_new_configurations(p, rows, dt):
    # the m11, s and det a step hands on are _mass_matrix's at the state it
    # returns, bit for bit (s is -m12): on floats, and element by element
    # in rollout_batch's array use wherever np.cos equals math.cos
    c, arrays = _Coeffs(p), _array_coeffs(p)
    for row in rows:
        got = _symp_step(c, *row, dt, *_mass_terms(c, row[1]))
        assert got[6:] == composed_mass_terms(c, got[1])
    columns = [np.array(col) for col in zip(*rows)]
    got = _symp_step(arrays, *columns, np.array(dt),
                     *_mass_terms(arrays, columns[1], np.cos), np.cos, np.sin)
    for i in range(len(rows)):
        mine = tuple(float(x[i]) for x in got[6:])
        want = composed_mass_terms(c, float(got[1][i]))
        if TRIG_EXACT:
            assert mine == want
        else:
            assert mine == pytest.approx(want, rel=1e-12)


# -- the actuator kernels --------------------------------------------------

@EXACT
@given(tau_max=st.tuples(finite(0.1, 100.0), finite(0.1, 100.0)),
       u=st.tuples(finite(-1.0, 1.0), finite(-1.0, 1.0)))
def test_torque_kernel_equals_the_torque_source_per_joint(tau_max, u):
    # commands in the box [-1, 1], where the decode leaves every control
    ctrl = TorqueController(tau_max=tau_max)
    assert ctrl.torques(ctrl.state0, 0.0, 0.0, 0.0, 0.0, u) == (
        torque_actuator(u[0], tau_max[0]), torque_actuator(u[1], tau_max[1]),
        ())


def torques_reference(ctrl, acts, gammas, th1, th2, w1, w2, u):
    """One MuscleController step at DT_SIM composed from the public step
    functions.

    Updates acts and gammas in place; returns the two joint torques.
    """
    dt = DT_SIM
    taus = []
    for j, (mp, phi, dphi) in enumerate(((ctrl.shoulder, th1, w1),
                                         (ctrl.elbow, th2, w2))):
        for i, (m, l_ref) in ((2 * j, (mp.m1, mp.l_ref1)),
                              (2 * j + 1, (mp.m2, mp.l_ref2))):
            l, _ = fiber_kinematics(phi, dphi, m, l_ref)
            if ctrl.flags.disable_activation:
                acts[i] = u[i]
            elif ctrl.activation_model == "hatze":
                gammas[i], acts[i] = hatze_activation_step(
                    gammas[i], u[i], l, dt, ctrl.hatze)
            else:
                acts[i] = activation_step(acts[i], u[i], dt, mp.tau_act)
        taus.append(muscle_joint_torque(phi, dphi, acts[2 * j],
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

# excitations in the box [0, 1], where the decode leaves every control
muscle_steps = st.lists(
    st.tuples(finite(-3.0, 3.0), finite(-3.0, 3.0), finite(-30.0, 30.0),
              finite(-30.0, 30.0), st.tuples(*[finite(0.0, 1.0)] * 4)),
    min_size=1, max_size=8)


@EXACT
@given(shoulder=muscle_params(), elbow=muscle_params(), flags=flag_sets,
       model=st.sampled_from(["first_order", "hatze"]),
       hatze=st.builds(HatzeParams, m_h=finite(1.0, 50.0), nu=finite(1.0, 4.0),
                       rho_scale=finite(1.0, 10.0)),
       steps=muscle_steps)
def test_muscle_kernel_equals_the_composed_step_functions(
        shoulder, elbow, flags, model, hatze, steps):
    ctrl = MuscleController(shoulder=shoulder, elbow=elbow, flags=flags,
                            activation_model=model, hatze=hatze)
    acts, gammas = [0.0] * 4, [0.0] * 4
    # the state row is the calcium states under Hatze activation and the
    # activities otherwise (with activation ablated, the excitations)
    hatze_row = model == "hatze" and not flags.disable_activation
    state = ctrl.state0
    for th1, th2, w1, w2, u in steps:
        want = torques_reference(ctrl, acts, gammas, th1, th2, w1, w2, u)
        tau1, tau2, state = ctrl.torques(state, th1, th2, w1, w2, u)
        assert (tau1, tau2) == want
        assert state == tuple(gammas if hatze_row else acts)


@EXACT
@given(shoulder=muscle_params(), elbow=muscle_params(),
       flags=st.one_of(st.none(), flag_sets),
       th=st.tuples(finite(-3.0, 3.0), finite(-3.0, 3.0)),
       w=st.tuples(finite(-30.0, 30.0), finite(-30.0, 30.0)),
       a=st.tuples(*[finite(0.0, 1.0)] * 4))
def test_pair_torque_equals_the_composed_curves(shoulder, elbow, flags, th, w, a):
    # with activation dynamics ablated the state row is the excitations, so
    # the kernel's torques are the pair torques at activities a
    ablated = replace(flags or AblationFlags(), disable_activation=True)
    ctrl = MuscleController(shoulder=shoulder, elbow=elbow, flags=ablated)
    tau1, tau2, row = ctrl.torques(ctrl.state0, th[0], th[1], w[0], w[1], a)
    assert row == a
    assert tau1 == muscle_joint_torque(th[0], w[0], a[0], a[1], shoulder, flags)
    assert tau2 == muscle_joint_torque(th[1], w[1], a[2], a[3], elbow, flags)


# -- the smooth-reach cost -------------------------------------------------

def pair(lo, hi):
    return st.tuples(finite(lo, hi), finite(lo, hi))


weight_sets = st.builds(ObjectiveWeights, s_th=pair(0.1, 10.0),
                        s_dth=pair(0.1, 50.0), w_th=pair(0.0, 10.0),
                        w_dth=pair(0.0, 10.0), jerk_gain=finite(0.0, 5.0))
targets = st.builds(ReachTarget, th_des=pair(-4.0, 4.0),
                    dth_des=pair(-10.0, 10.0))


@st.composite
def trajectories(draw, min_size=1):
    """th, dth and ddth of min_size to 200 samples, at the rollout's scales."""
    n = draw(st.integers(min_size, 200))
    rng = np.random.default_rng(draw(seeds))
    return SimpleNamespace(th=rng.uniform(-4.0, 4.0, (n, 2)),
                           dth=rng.normal(0.0, 10.0, (n, 2)),
                           ddth=rng.normal(0.0, 300.0, (n, 2)),
                           controls=None)


def assert_smooth_costs_match(task, traj, weights, target):
    want = smooth_reach_stages(traj.th, traj.dth, traj.ddth, weights, target)
    got = task.stage_series(traj)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert task.cost(traj) == float(want.sum())
    assert task.window_cost(traj) == float(want.sum())


@EXACT
@given(weights=weight_sets, target=targets, traj=trajectories())
def test_smooth_reach_cost_equals_the_sample_by_sample_composition(
        weights, target, traj):
    duration = (traj.th.shape[0] - 1) * DT_SIM
    task = SmoothReaching(duration=duration, weights=weights, target=target)
    assert_smooth_costs_match(task, traj, weights, target)


@EXACT
@given(overrides=st.dictionaries(
           st.sampled_from(["s_th", "s_dth", "w_th", "w_dth", "jerk_gain"]),
           finite(0.1, 10.0), min_size=1),
       second=finite(0.1, 10.0), traj=trajectories(min_size=181))
def test_a_harness_task_scores_with_its_weight_overrides(overrides, second, traj):
    # built from a config's weights.* keys, the way a sweep builds it, so
    # constants converted at construction must be the overrides' own; the
    # trajectories cover the task's full 0.9 s, which cost requires
    for key in set(overrides) - {"jerk_gain"}:
        overrides[key] = [overrides[key], second]     # a pair-valued key
    task = _task_for(ExperimentConfig(weight_overrides=overrides), seed=0)
    assert_smooth_costs_match(task, traj, ObjectiveWeights(**overrides),
                              ReachTarget())


# -- the rollout recorder --------------------------------------------------

def rollout_reference(task, controller, theta, par, params=None,
                      perturbation=None, initial_state=None):
    """rollout's trajectory arrays from a plain step-by-step loop at DT_SIM
    over the plan's horizon, on the arm `params` (the task's when None),
    with the decision vector decoded by a plain reshape and clip, recorded
    one list of rows per field. A step whose math.cos or math.sin meets an
    overflowed angle raises "math domain error"; the step diverged, and
    every row it did not record is NaN."""
    plan = np.clip(np.reshape(theta, (par.n_segments, par.n_actuators)),
                   par.lo, par.hi).tolist()
    dt = DT_SIM
    steps_per_segment = round(par.resolution / dt)
    params = params or task.params
    p_eff = perturbation.apply_to(params) if perturbation is not None else params
    c = _Coeffs(p_eff)
    pend = (perturbation if perturbation is not None
            and perturbation.kind == "chaotic_pendulum" else None)
    s = initial_state or task.initial_state()
    th1, th2, w1, w2 = s.th1, s.th2, s.dth1, s.dth2
    phi, dphi = s.pend_angle, s.pend_vel
    ball = task.initial_ball() if getattr(task, "has_ball", False) else None
    row = controller.state0
    out = {name: [] for name in ("th", "dth", "ddth", "controls", "torques",
                                 "pend", "ball")}
    out["th"].append([th1, th2])
    out["dth"].append([w1, w2])
    out["pend"].append([phi, dphi])
    if ball is not None:
        out["ball"].append([ball.x, ball.z, ball.dx, ball.dz])
    diverged = False
    termination = "horizon"
    tau = (0.0, 0.0)
    try:
        for k in range(round(par.horizon / dt)):
            u = plan[k // steps_per_segment]
            *tau, row = controller.torques(row, th1, th2, w1, w2, u)
            t1, t2 = tau
            if pend is not None:
                fx, fz, ddphi, _, _ = _pendulum_forces(c, th1, th2, w1, w2,
                                                       *tau, pend, phi, dphi)
                j11, j12, j21, j22 = _jacobian(c, th1, th2)
                t1 += j11 * fx + j21 * fz
                t2 += j12 * fx + j22 * fz
                dphi = dphi + dt * ddphi
                phi = phi + dt * dphi
            th1, th2, w1, w2, a1, a2 = symp_step_reference(
                c, th1, th2, w1, w2, t1, t2, dt)[:6]
            out["ddth"].append([a1, a2])
            out["controls"].append(list(u))
            out["torques"].append(list(tau))
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
                    ArmState(th1, th2, w1, w2, t=s.t + (k + 1) * dt)):
                termination = "goal"
                break
    except ValueError as exc:
        if str(exc) != "math domain error":
            raise
        diverged, termination = True, "diverged"
        for name, n_rows, width in (
                ("th", k + 2, 2), ("dth", k + 2, 2), ("pend", k + 2, 2),
                ("ball", k + 2 if ball is not None else 0, 4),
                ("ddth", k + 1, 2), ("controls", k + 1, len(u)),
                ("torques", k + 1, 2)):
            out[name] += [[math.nan] * width] * (n_rows - len(out[name]))
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
    return arrays, diverged, termination, row


def assert_rollout_matches(res, ref):
    arrays, diverged, termination, row = ref
    assert (res.diverged, res.termination) == (diverged, termination)
    assert res.controller_state == row
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
    """(theta, parameterization) of a random plan that spills past the
    control box on both sides, so the clip is exercised."""
    par = parameterization_for(task, controller, resolution)
    span = controller.hi - controller.lo
    theta = np.random.default_rng(seed).uniform(controller.lo - 0.2 * span,
                                                controller.hi + 0.2 * span,
                                                par.dim)
    return theta, par


@ROLLOUTS
@given(morph=st.sampled_from(["muscle", "torque", "pd", "lowpass-fast"]),
       seed=seeds)
def test_rollout_records_the_step_by_step_trajectory(morph, seed):
    task = make_task("smooth-reach")
    ctrl = make_controller(morph)
    plan = random_plan(task, ctrl, seed)
    res = rollout(task, ctrl, *plan)
    assert res.termination == "horizon"
    assert_rollout_matches(res, rollout_reference(task, ctrl, *plan))


@ROLLOUTS
@given(morph=st.sampled_from(["muscle", "torque"]), seed=seeds,
       cable=finite(0.1, 0.8))
def test_rollout_records_the_pendulum_load(morph, seed, cable):
    task = make_task("smooth-reach", duration=0.4)
    pert = Perturbation(kind="chaotic_pendulum", cable_length=cable)
    ctrl = make_controller(morph)
    plan = random_plan(task, ctrl, seed)
    res = rollout(task, ctrl, *plan, perturbation=pert)
    assert res.pend is not None
    assert_rollout_matches(res, rollout_reference(task, ctrl, *plan,
                                                  perturbation=pert))


@ROLLOUTS
@given(seed=seeds)
def test_rollout_records_the_ball(seed):
    task = make_task("ball-serve")
    ctrl = make_controller("muscle")
    plan = random_plan(task, ctrl, seed, resolution=0.3)
    res = rollout(task, ctrl, *plan)
    assert res.ball is not None
    assert_rollout_matches(res, rollout_reference(task, ctrl, *plan))


@ROLLOUTS
@given(morph=st.sampled_from(["muscle", "lowpass-slow"]), seed=seeds,
       goal_step=st.integers(1, 60))
def test_rollout_stops_at_the_goal(morph, seed, goal_step):
    # put the goal where the hand is after goal_step steps of a free run
    ctrl = make_controller(morph)
    free = PreciseReaching(target=ReachTarget(goal_xz=(0.0, 0.0)),
                           duration=0.4)
    plan = random_plan(free, ctrl, seed)
    th = rollout(free, ctrl, *plan).th[goal_step]
    gx, gz = hand_position(float(th[0]), float(th[1]), ArmParams())
    task = PreciseReaching(target=ReachTarget(goal_xz=(gx, gz)), duration=0.4,
                           terminal_threshold=1e-9)
    res = rollout(task, ctrl, *plan)
    assert res.termination == "goal" and res.steps <= goal_step
    assert_rollout_matches(res, rollout_reference(task, ctrl, *plan))


@pytest.mark.parametrize("morph", ["muscle", "torque"])
def test_rollout_simulates_and_scores_on_the_tasks_arm(morph):
    # a longer upper arm and a heavier forearm: the task draws its goal for
    # that arm, and the rollout runs and scores on it, not on the default
    arm = ArmParams(l1=0.35, m2=2.0)
    task = make_task("precise-reach", seed=1, params=arm)
    assert task.params == arm
    ctrl = make_controller(morph)
    plan = random_plan(task, ctrl, 1, resolution=0.5)
    res = rollout(task, ctrl, *plan)
    ref = rollout_reference(task, ctrl, *plan, params=arm)
    assert_rollout_matches(res, ref)
    # the reward at each 10 ms boundary, from the hand on that arm
    th, controls = ref[0]["th"], ref[0]["controls"]
    gx, gz = task.target.goal_xz
    rewards = []
    for k in range(0, th.shape[0], 2):
        x, z = hand_position(float(th[k, 0]), float(th[k, 1]), arm)
        rewards.append(precise_reaching_reward(
            math.hypot(x - gx, z - gz), controls[min(k, len(controls) - 1)],
            task.weights))
    assert res.cost == pytest.approx(-float(np.mean(rewards)), rel=1e-12)


@pytest.mark.parametrize("seed", [4, 19])
def test_rollout_records_a_step_that_overflows(seed):
    # the angle overflows inside a step (`myoarm simulate --task
    # precise-reach --morphology lowpass-fast --c 0.3 --seed 4`), so
    # math.cos raises: the step's row is NaN, its control and torques too
    task = make_task("precise-reach", seed=seed)
    ctrl = make_controller("lowpass-fast")
    par = parameterization_for(task, ctrl, 0.3)
    theta = np.random.default_rng(seed).uniform(par.lo, par.hi, par.dim)
    res = rollout(task, ctrl, theta, par)
    assert res.diverged and res.cost == SENTINEL_COST
    assert np.isnan(res.controls[-1]).all() and np.isnan(res.ddth[-2:]).all()
    assert_rollout_matches(res, rollout_reference(task, ctrl, theta, par))


@ROLLOUTS
@given(morph=st.sampled_from(["muscle", "torque"]),
       speed=finite(1e160, 1e300))
def test_rollout_records_a_diverged_run(morph, speed):
    task = make_task("smooth-reach")
    ctrl = make_controller(morph)
    wild = ArmState(th1=0.0, th2=0.5, dth1=speed, dth2=-speed)
    plan = np.full(ctrl.n_controls, 0.5), parameterization_for(
        task, ctrl, task.duration)
    res = rollout(task, ctrl, *plan, initial_state=wild)
    assert res.diverged and res.cost == SENTINEL_COST
    assert_rollout_matches(res, rollout_reference(task, ctrl, *plan,
                                                  initial_state=wild))


@pytest.mark.parametrize("morph", ["muscle", "torque"])
@pytest.mark.parametrize("start", [{"th2": math.inf}, {"th2": -math.inf},
                                   {"th2": math.nan}, {"th1": math.inf}],
                         ids=["th2=inf", "th2=-inf", "th2=nan", "th1=inf"])
def test_a_non_finite_start_state_diverges_in_the_first_step(morph, start):
    # an infinite angle makes the first step's math.cos or math.sin raise,
    # a NaN one runs through it: either way the run ends after one step,
    # whose row is NaN
    task = make_task("smooth-reach")
    ctrl = make_controller(morph)
    bad = replace(task.initial_state(), **start)
    plan = np.full(ctrl.n_controls, 0.5), parameterization_for(
        task, ctrl, task.duration)
    res = rollout(task, ctrl, *plan, initial_state=bad)
    assert res.diverged and res.cost == SENTINEL_COST and res.steps == 1
    assert np.isnan(res.th[1]).all() and np.isnan(res.dth[1]).all()
    assert_rollout_matches(res, rollout_reference(task, ctrl, *plan,
                                                  initial_state=bad))
