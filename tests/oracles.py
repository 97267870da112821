"""Independent reference computations shared by the test modules.

Everything here is derived from first principles (the arm's Lagrangian and
its finite differences, a Runge-Kutta reference integrator, closed-form
curves) rather than from the code under test, so agreement is meaningful.
From myoarm the first-principles oracles import only the ArmParams and
ArmState records of myoarm.arm: the mass matrix, potential, generalized
forces and accelerations below are written out from the link geometry, not
taken from myoarm.arm's kernels. The muscle curves and the first-order activation
step are written out here too, one function each, and import nothing;
muscle_joint_torque composes the curves into an antagonistic pair's torque.
torque_actuator is the ideal torque source of one joint, and lowpass_step
the low-pass family's filter update.

cma_es_reference is the exception: not derived, but the CMA-ES loop as it
stood before its cost was cut, kept so that the cut loop can be held to it
bit for bit. It takes the OptimizationTrace record from myoarm.optimizers,
and ranks costs as CmaEs does: every non-finite cost as +inf, and
generation 0's best as the incumbent whatever its cost.

mpc_run_reference is the other: myoarm.control.mpc_run as it stood before
its refinement prepared one window per control step, stopped losing
probes at a bound and continued the incumbent's window, written with the
public rollout only. mpc_run must return what it returns, bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

from myoarm.arm import ArmParams, ArmState, BallState
from myoarm.control import (REFINE_RADIUS, MpcResult, parameterization_for,
                            rollout, rollout_plans)
from myoarm.optimizers import OptimizationTrace, cma_es, local_refine


def _body_sums(p: ArmParams):
    """Inertial sums of the arm: the upper arm's inertia about the shoulder,
    then the mass, first moment and inertia about the elbow of everything
    the forearm carries (its rod, the hand mass and the extra mass)."""
    upper = p.i1 + p.m1 * p.r1 ** 2
    mass = p.m2 + p.m_hand + p.m_extra
    moment = p.m2 * p.r2 + p.m_hand * p.l2 + p.m_extra * p.r2
    inertia = p.i2 + p.m2 * p.r2 ** 2 + p.m_hand * p.l2 ** 2 + p.m_extra * p.r2 ** 2
    return upper, mass, moment, inertia


def _mass_terms(th2, p: ArmParams, cos=math.cos):
    """(m11, m12, m22) of T = 1/2 w^T M w; the forearm's absolute angle is
    th1 - th2, so the coupling term m12 is negative."""
    upper, mass, moment, inertia = _body_sums(p)
    c2 = cos(th2)
    m11 = upper + inertia + mass * p.l1 ** 2 + 2.0 * p.l1 * moment * c2
    m12 = -(inertia + p.l1 * moment * c2)
    return m11, m12, inertia


def _potential(th1, th2, p: ArmParams, sin=math.sin):
    _, mass, moment, _ = _body_sums(p)
    return p.g * ((p.m1 * p.r1 + mass * p.l1) * sin(th1) + moment * sin(th1 - th2))


def lagrangian(th1, th2, w1, w2, params: ArmParams):
    """L = T - V as a plain function of scalars.

    Accepts any numeric type numpy can broadcast (e.g. longdouble), so tests
    can difference it in extended precision.
    """
    m11, m12, m22 = _mass_terms(th2, params, cos=np.cos)
    t = 0.5 * (m11 * w1 * w1 + 2.0 * m12 * w1 * w2 + m22 * w2 * w2)
    return t - _potential(th1, th2, params, sin=np.sin)


def mass_matrix(state: ArmState, params: ArmParams):
    """Symmetric joint-space mass matrix [[m11, m12], [m12, m22]]."""
    m11, m12, m22 = _mass_terms(state.th2, params)
    return ((m11, m12), (m12, m22))


def _gravity(th1, th2, p: ArmParams):
    """dV/dtheta, the derivative of _potential."""
    _, mass, moment, _ = _body_sums(p)
    fore = p.g * moment * math.cos(th1 - th2)
    return p.g * (p.m1 * p.r1 + mass * p.l1) * math.cos(th1) + fore, -fore


def gravity_torque(state: ArmState, params: ArmParams):
    """Generalized gravity forces (the torque needed to hold still is +G)."""
    return _gravity(state.th1, state.th2, params)


def kinetic_energy(state: ArmState, params: ArmParams) -> float:
    m11, m12, m22 = _mass_terms(state.th2, params)
    w1, w2 = state.dth1, state.dth2
    return 0.5 * (m11 * w1 * w1 + 2.0 * m12 * w1 * w2 + m22 * w2 * w2)


def potential_energy(state: ArmState, params: ArmParams) -> float:
    return _potential(state.th1, state.th2, params)


def total_energy(state: ArmState, params: ArmParams) -> float:
    return kinetic_energy(state, params) + potential_energy(state, params)


def lagrange_accel(th1, th2, w1, w2, tau, params: ArmParams):
    """Joint accelerations from the Euler-Lagrange equations.

    M(q) a + h(q, w) + dV/dq = tau, with the velocity terms
    h_i = sum_jk (dM_ij/dq_k - 1/2 dM_jk/dq_i) w_j w_k. M depends on th2
    alone, through dm11/dth2 = -2 l1 s sin(th2) and
    dm12/dth2 = l1 s sin(th2), s being the forearm's first moment.
    """
    m11, m12, m22 = _mass_terms(th2, params)
    ls = params.l1 * _body_sums(params)[2] * math.sin(th2)
    d11, d12 = -2.0 * ls, ls                     # dM/dth2; dm22/dth2 = 0
    h1 = d11 * w1 * w2 + d12 * w2 * w2
    h2 = d12 * w1 * w2 - 0.5 * (d11 * w1 * w1 + 2.0 * d12 * w1 * w2)
    g1, g2 = _gravity(th1, th2, params)
    r1 = tau[0] - h1 - g1
    r2 = tau[1] - h2 - g2
    det = m11 * m22 - m12 * m12
    return (m22 * r1 - m12 * r2) / det, (m11 * r2 - m12 * r1) / det


def rk4_step(state: ArmState, tau, dt: float, params: ArmParams) -> ArmState:
    """Classic fourth-order Runge-Kutta step under a constant torque, with
    lagrange_accel's accelerations; no perturbation."""
    def f(y):
        return (y[2], y[3], *lagrange_accel(*y, tau, params))

    y0 = (state.th1, state.th2, state.dth1, state.dth2)
    k1 = f(y0)
    k2 = f(tuple(y0[i] + 0.5 * dt * k1[i] for i in range(4)))
    k3 = f(tuple(y0[i] + 0.5 * dt * k2[i] for i in range(4)))
    k4 = f(tuple(y0[i] + dt * k3[i] for i in range(4)))
    y = tuple(y0[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
              for i in range(4))
    return ArmState(th1=y[0], th2=y[1], dth1=y[2], dth2=y[3])


def fd_lagrangian_accel(th, w, tau, params: ArmParams, h=1e-6):
    """Joint accelerations from finite differences of the Lagrangian.

    Solves d/dt(dL/dw) - dL/dth = tau for the accelerations using central
    differences in extended precision. The step is deliberately small, so
    float64 would lose ~3 digits in the second differences; longdouble keeps
    the oracle comfortably below the comparison tolerance.
    """
    ld = np.longdouble
    h = ld(h)
    th = np.asarray(th, dtype=ld)
    w = np.asarray(w, dtype=ld)

    def lag(thv, wv):
        return lagrangian(thv[0], thv[1], wv[0], wv[1], params)

    def unit(i):
        e = np.zeros(2, dtype=ld)
        e[i] = h
        return e

    mass = np.empty((2, 2), dtype=ld)       # d2L/dw dw
    mixed = np.empty((2, 2), dtype=ld)      # d2L/dw dth (rows: dw_i, cols: dth_j)
    for i in range(2):
        for j in range(2):
            ei, ej = unit(i), unit(j)
            mass[i, j] = (lag(th, w + ei + ej) - lag(th, w + ei - ej)
                          - lag(th, w - ei + ej) + lag(th, w - ei - ej)) / (4 * h * h)
            mixed[i, j] = (lag(th + ej, w + ei) - lag(th + ej, w - ei)
                           - lag(th - ej, w + ei) + lag(th - ej, w - ei)) / (4 * h * h)
    grad = np.empty(2, dtype=ld)            # dL/dth
    for i in range(2):
        ei = unit(i)
        grad[i] = (lag(th + ei, w) - lag(th - ei, w)) / (2 * h)

    rhs = np.asarray(tau, dtype=ld) + grad - mixed @ w
    return np.linalg.solve(mass.astype(float), rhs.astype(float))


def rk4_reference(state: ArmState, tau, duration: float, params: ArmParams,
                  dt: float = 1e-5) -> ArmState:
    """High-resolution RK4 trajectory endpoint, used as ground truth."""
    n = round(duration / dt)
    for _ in range(n):
        state = rk4_step(state, tau, dt, params)
    return state


def energy_drift_rate(energies, dt: float):
    """Least-squares linear trend of an energy series, in units per second."""
    e = np.asarray(energies, dtype=float)
    t = dt * np.arange(len(e))
    return float(np.polyfit(t, e, 1)[0])


def activation_exact(a0: float, u: float, t: float, tau_act: float) -> float:
    """Closed-form response of da/dt = (u - a)/tau_act."""
    return u + (a0 - u) * math.exp(-t / tau_act)


# -- the muscle model's curves, one function each -------------------------
# MuscleController inlines them into one straight-line kernel; these are the
# definitions that kernel is held to, bit for bit, in test_kernels, and
# muscle_joint_torque at the end composes them into one joint's torque.

FV_MAX = 1.35          # eccentric force plateau
FV_KNEE = 0.25         # curvature constant of the shortening branch
FV_KNEE_ECC = 0.25     # curvature constant of the lengthening branch


def fiber_kinematics(phi: float, dphi: float, m: float, l_ref: float):
    """Fiber length and velocity of a linearly routed muscle: l = m*phi + l_ref."""
    return m * phi + l_ref, m * dphi


def activation_step(a: float, u: float, dt: float, tau_act: float) -> float:
    """First-order activation toward the excitation u with time constant tau_act.

    Exact discrete solution of da/dt = (u - a)/tau_act for constant u over the
    step, with u clamped to [0, 1] and the result clipped to it.
    """
    u = 0.0 if u < 0.0 else 1.0 if u > 1.0 else u
    a = u + (a - u) * math.exp(-dt / tau_act)
    return 0.0 if a < 0.0 else 1.0 if a > 1.0 else a


def force_length(l: float) -> float:
    """Bell-shaped active force-length factor, peak 1 at l = 1, support [0.5, 1.5]."""
    x = (l - 1.0) / 0.5
    y = 1.0 - x * x
    return 0.0 if y <= 0.0 else y * y


def force_velocity(v: float) -> float:
    """Hill-type force-velocity factor.

    Zero at and below v = -1 (fast shortening), 1 at v = 0, saturating toward
    FV_MAX for lengthening; monotone non-decreasing everywhere.
    """
    if v <= -1.0:
        return 0.0
    if v <= 0.0:
        return (1.0 + v) / (1.0 - v / FV_KNEE)
    r = FV_KNEE_ECC / (FV_KNEE_ECC + v)
    return FV_MAX - (FV_MAX - 1.0) * r * r


def force_passive(l: float) -> float:
    """Parallel-elastic factor: zero at or below optimal length, quadratic above."""
    if l <= 1.0:
        return 0.0
    x = (l - 1.0) / 0.6
    return 1.3 * x * x


def torque_actuator(u: float, tau_max: float) -> float:
    """Ideal torque source: tau = tau_max * u, u clamped to [-1, 1] (NaN
    passes through)."""
    if u < -1.0:
        u = -1.0
    elif u > 1.0:
        u = 1.0
    return tau_max * u


def lowpass_step(f: float, u: float, dt: float, dt_filter: float) -> float:
    """Forward Euler step of the first-order filter df/dt = (u - f)/dt_filter:
    f' = f + (dt/dt_filter)(u - f)."""
    return f + (dt / dt_filter) * (u - f)


def muscle_joint_torque(phi: float, dphi: float, a1: float, a2: float, mp,
                        flags=None) -> float:
    """Joint torque of an antagonistic pair at activities a1, a2.

    tau = -(m1*F1 + m2*F2), each fiber force F = (FL * FV * a + FP) * f_max
    at the fiber length and velocity of fiber_kinematics, FV read at
    v_scale times that velocity. mp is a myoarm MuscleParams; flags, an
    AblationFlags or None, replaces FL or FV by 1 when they are disabled.
    """
    no_fl = flags is not None and flags.disable_fl
    no_fv = flags is not None and flags.disable_fv

    def force(l, dl, a):
        fl = 1.0 if no_fl else force_length(l)
        fv = 1.0 if no_fv else force_velocity(mp.v_scale * dl)
        return (fl * fv * a + force_passive(l)) * mp.f_max

    l1, dl1 = fiber_kinematics(phi, dphi, mp.m1, mp.l_ref1)
    l2, dl2 = fiber_kinematics(phi, dphi, mp.m2, mp.l_ref2)
    return -(mp.m1 * force(l1, dl1, a1) + mp.m2 * force(l2, dl2, a2))


# -- the smooth-reach cost, sample by sample -------------------------------

def smooth_reach_stages(th, dth, ddth, weights, target) -> np.ndarray:
    """Per-sample smooth-reach stage costs of an (n, 2) trajectory.

    The jerk of joint j at sample k is the central difference
    (ddth[k+1] - ddth[k-1]) / 2 in the interior and the one-sided
    difference at either end (zero for a single sample). The stage cost
    adds, for each joint in turn, (w_th/s_th) e_th^2 + (w_dth/s_dth)
    e_dth^2 + (jerk_gain * jerk)^2, e being the error from the target's
    angle and velocity. weights and target are a myoarm ObjectiveWeights
    and ReachTarget. The cost is the array's .sum(), NumPy's pairwise sum,
    which a running loop would not reproduce to the bit.
    """
    th = np.asarray(th, dtype=float).tolist()
    dth = np.asarray(dth, dtype=float).tolist()
    dd = np.asarray(ddth, dtype=float).tolist()
    n = len(th)
    w = weights
    stages = []
    for k in range(n):
        joints = []
        for j in (0, 1):
            if n < 2:
                jerk = 0.0
            elif k == 0:
                jerk = dd[1][j] - dd[0][j]
            elif k == n - 1:
                jerk = dd[k][j] - dd[k - 1][j]
            else:
                jerk = (dd[k + 1][j] - dd[k - 1][j]) / 2.0
            e_th = th[k][j] - target.th_des[j]
            e_dth = dth[k][j] - target.dth_des[j]
            g = w.jerk_gain * jerk
            joints.append(w.w_th[j] / w.s_th[j] * (e_th * e_th)
                          + w.w_dth[j] / w.s_dth[j] * (e_dth * e_dth)
                          + g * g)
        stages.append(joints[0] + joints[1])
    return np.array(stages)


# -- CMA-ES, as it stood before its loop was trimmed -----------------------
#
# A copy of myoarm.optimizers.cma_es taken while every generation still
# decomposed its covariance (generation 0's too, of the identity), ran the
# full update after the last generation, and built the covariance update
# from fresh n x n temporaries. cma_es must return what this returns, bit
# for bit: the trimmed loop drops only work whose result is known or unread.

def cma_es_reference(objective, x0, config):
    """Minimize over R^n from the start point x0, n = x0.size; returns
    (best_x, best_f, trace).

    objective(x) gets one generation, x of shape (population, n), and
    returns one cost per row, in row order. Exactly population *
    generations evaluations are spent, in `generations` objective calls.
    Non-finite objective values rank as +inf, worst, without poisoning
    the distribution update, and generation 0's best is the incumbent even
    when it is +inf. An empty, non-1-D or
    non-finite x0 raises ValueError before the first objective call; the
    caller's x0 is never modified.
    """
    mean = np.array(x0, dtype=float)
    if mean.ndim != 1 or mean.size == 0 or not np.isfinite(mean).all():
        raise ValueError(f"x0 must be a non-empty 1-D vector of finite "
                         f"values (got shape {mean.shape})")
    n = mean.size
    lam = int(config.population)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    sigma = float(config.sigma0)

    mu = lam // 2
    w = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    w /= w.sum()
    mueff = 1.0 / np.sum(w ** 2)
    cs = (mueff + 2.0) / (n + mueff + 5.0)
    ds = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (n + 1.0)) - 1.0) + cs
    cc = (4.0 + mueff / n) / (n + 4.0 + 2.0 * mueff / n)
    c1 = 2.0 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((n + 2.0) ** 2 + mueff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

    cov = np.eye(n)
    ps = np.zeros(n)
    pc = np.zeros(n)
    best_x = mean.copy()
    best_f = math.inf
    trace = OptimizationTrace()
    evals = 0

    for gen in range(int(config.generations)):
        eigvals, basis = np.linalg.eigh(cov)
        d = np.sqrt(np.maximum(eigvals, 1e-30))
        z = rng.standard_normal((lam, n))
        y = z @ (basis * d).T                      # y_k = B D z_k
        x = mean + sigma * y
        f = np.asarray(objective(x), dtype=float)
        if f.shape != (lam,):
            raise ValueError(f"objective returned shape {f.shape} for a "
                             f"population of {lam}, expected ({lam},)")
        evals += lam
        f = np.where(np.isfinite(f), f, math.inf)
        order = np.argsort(f, kind="stable")
        gen_min = float(f[order[0]])
        if gen == 0 or gen_min < best_f:
            best_f = gen_min
            best_x = x[order[0]].copy()

        sel = order[:mu]
        yw = w @ y[sel]
        mean = mean + sigma * yw
        # conjugate evolution path: C^(-1/2) yw = B D^-1 B^T yw
        cinv_yw = basis @ ((basis.T @ yw) / d)
        ps = (1.0 - cs) * ps + math.sqrt(cs * (2.0 - cs) * mueff) * cinv_yw
        ps_norm = float(np.linalg.norm(ps))
        hsig = ps_norm / math.sqrt(1.0 - (1.0 - cs) ** (2 * (gen + 1))) / chi_n \
            < 1.4 + 2.0 / (n + 1.0)
        pc = (1.0 - cc) * pc + (math.sqrt(cc * (2.0 - cc) * mueff) * yw if hsig
                                else 0.0)
        c1a = c1 * (1.0 - (not hsig) * cc * (2.0 - cc))
        rank_mu = (y[sel].T * w) @ y[sel]
        cov = (1.0 - c1a - cmu) * cov + c1 * np.outer(pc, pc) + cmu * rank_mu
        cov = (cov + cov.T) / 2.0                  # guard symmetry drift
        sigma *= math.exp(min(1.0, (cs / ds) * (ps_norm / chi_n - 1.0)))

        trace.record(best_f, evals)

    return best_x, best_f, trace


# --------------------------------------------------------------------------
# The receding-horizon loop, one full rollout per evaluation
#
# A copy of myoarm.control.mpc_run taken before its refinement prepared
# each control step's window once: every plant segment and every
# refinement probe is one public rollout, scored, run to its horizon (no
# bound) and from its snapshot (no continuation of the incumbent).

def mpc_run_reference(task, controller, mpc, perturbation=None):
    """mpc_run(task, controller, mpc, perturbation), computed the plain
    way: the CMA-ES warm start from the middle of the control box, scored
    with one-plan rollout_plans calls, then per control step one plant
    rollout of the plan's first segment and a pattern search over the
    shifted plan whose every evaluation is one rollout of the window."""
    visible = perturbation is not None and perturbation.visible_to_prediction
    pred_pert = perturbation if visible else None
    par = replace(parameterization_for(task, controller, mpc.resolution),
                  horizon=mpc.t_pred)
    segment = replace(par, horizon=mpc.resolution)
    n_ctrl = round(task.duration / mpc.resolution)

    plan, _, warm = cma_es(
        lambda thetas: rollout_plans(controller, [(task, thetas, par)],
                                     pred_pert)[0],
        np.full(par.dim, 0.5 * (par.lo + par.hi)), mpc.warm)
    evals = warm.total_evals
    state, row = task.initial_state(), controller.state0
    ball = task.initial_ball() if task.has_ball else None
    na = par.n_actuators
    plans, step_evals = [], []
    for k in range(n_ctrl):
        plans.append(plan.copy())
        step_evals.append(evals)
        seg = rollout(task, controller, plan[:na], segment, perturbation,
                      state, row, ball)
        state, row = seg.final_state, seg.controller_state
        if ball is not None:
            ball = BallState(*(float(v) for v in seg.ball[-1]))
        if seg.termination != "horizon" or k == n_ctrl - 1:
            break
        snapshot = (state, row, ball)

        def window(theta, snapshot=snapshot):
            return rollout(task, controller, theta, par, pred_pert,
                           *snapshot).cost

        plan, _, spent = local_refine(window, par.shift(plan), REFINE_RADIUS,
                                      mpc.refine_budget, lo=par.lo, hi=par.hi)
        evals += spent

    executed = rollout(task, controller,
                       np.concatenate([p[:na] for p in plans]),
                       replace(par, horizon=len(plans) * mpc.resolution),
                       perturbation)
    if executed.diverged:
        per_step = [math.inf] * len(plans)
    else:
        stage = task.stage_series(executed)
        spc = par.steps_per_segment
        per_step = [float(stage[i * spc:(i + 1) * spc + 1].mean())
                    for i in range(len(plans))]
    return MpcResult(executed=executed, step_costs=np.asarray(per_step),
                     step_evals=np.asarray(step_evals), plans=np.asarray(plans))
