"""Planar two-link arm dynamics with gravity, point-mass loads, and auxiliary bodies.

The arm is a shoulder/elbow chain in the vertical x-z plane. theta1 is the
shoulder angle measured counterclockwise from the positive x axis. theta2 is
the elbow angle relative to the upper arm with the opposite sense: positive
theta2 folds the forearm clockwise, so the forearm's absolute angle is
theta1 - theta2. Gravity acts along -z; hanging straight down at rest is
(theta1, theta2) = (-pi/2, 0), and from a horizontal rest pose gravity gives
both joints a negative initial acceleration.

The hot-path kernels work on plain floats on purpose: per-step state is a
handful of scalars and array round-trips would dominate the cost of the
millions of steps an optimization run takes. For the same reason
_symp_step inlines _mass_matrix and _bias, keeping their floating-point
association so its results stay bit-identical to the composed form, and
control.rollout appends each step's scalars to flat lists that become
arrays once per episode.
"""

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass
class ArmParams:
    """Geometry and inertial parameters of the two-link arm.

    Links are uniform rods of length l_i and mass m_i with center of mass at
    r_i from the proximal joint and inertia i_i about the COM. A point mass
    m_hand sits at the hand; m_extra is an optional point mass on the lower
    arm at distance r2 from the elbow (used by perturbations).
    """

    l1: float = 0.3
    l2: float = 0.3
    m1: float = 2.0
    m2: float = 1.5
    r1: float = 0.15
    r2: float = 0.15
    i1: float = 0.015
    i2: float = 0.01125
    m_hand: float = 0.5
    m_extra: float = 0.0
    g: float = 9.81

    def __post_init__(self):
        for name in ("l1", "l2", "m1", "m2", "r1", "r2", "i1", "i2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"ArmParams.{name} must be positive, got {getattr(self, name)!r}")
        if self.m_hand < 0.0 or self.m_extra < 0.0:
            raise ValueError("point masses must be non-negative")


@dataclass
class ArmState:
    """Joint-space state; pendulum fields are used only under a pendulum load."""

    th1: float
    th2: float
    dth1: float = 0.0
    dth2: float = 0.0
    t: float = 0.0
    pend_angle: float = 0.0   # cable angle from straight down
    pend_vel: float = 0.0

    def as_tuple(self):
        return (self.th1, self.th2, self.dth1, self.dth2)


@dataclass
class Perturbation:
    """Plant modification applied to the true system.

    kind: one of 'none', 'lower_arm_mass', 'hand_mass', 'chaotic_pendulum'.
    visible_to_prediction: whether a prediction model is allowed to know
    about this perturbation (the plant itself always feels it).
    """

    kind: str = "none"
    mass: float = 0.0                 # added mass for the *_mass kinds
    ball_radius: float = 0.12         # pendulum bob geometry
    ball_density: float = 1000.0
    cable_length: float = 0.6
    visible_to_prediction: bool = False

    KINDS = ("none", "lower_arm_mass", "hand_mass", "chaotic_pendulum")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.mass < 0.0:
            raise ValueError("perturbation mass must be non-negative")

    @property
    def pendulum_mass(self):
        return (4.0 / 3.0) * math.pi * self.ball_radius ** 3 * self.ball_density

    def apply_to(self, params: ArmParams) -> ArmParams:
        """Return params with any added-mass effect folded in."""
        if self.kind == "lower_arm_mass":
            return replace(params, m_extra=params.m_extra + self.mass)
        if self.kind == "hand_mass":
            return replace(params, m_hand=params.m_hand + self.mass)
        return params


@dataclass
class BallState:
    """Free ball in the x-z plane for the serve task."""

    x: float
    z: float
    dx: float = 0.0
    dz: float = 0.0
    mass: float = 0.25
    max_dz: float = 0.0
    in_flight: bool = True

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("ball mass must be positive")


class _Coeffs:
    """Configuration-independent aggregates of the equations of motion."""

    __slots__ = ("a1", "mb", "sb", "qb", "m11_0", "cross", "kg1", "kg2", "g",
                 "l1", "l2")

    def __init__(self, p: ArmParams):
        self.a1 = p.i1 + p.m1 * p.r1 * p.r1
        # bodies carried by the forearm frame: the link, the hand mass, the extra mass
        self.mb = p.m2 + p.m_hand + p.m_extra
        self.sb = p.m2 * p.r2 + p.m_hand * p.l2 + p.m_extra * p.r2
        self.qb = p.i2 + p.m2 * p.r2 * p.r2 + p.m_hand * p.l2 * p.l2 + p.m_extra * p.r2 * p.r2
        self.m11_0 = self.a1 + self.qb + self.mb * p.l1 * p.l1
        self.cross = p.l1 * self.sb
        self.kg1 = p.g * (p.m1 * p.r1 + self.mb * p.l1)
        self.kg2 = p.g * self.sb
        self.g = p.g
        self.l1 = p.l1
        self.l2 = p.l2


def _mass_matrix(c: _Coeffs, th2: float):
    c2 = math.cos(th2)
    m11 = c.m11_0 + 2.0 * c.cross * c2
    m12 = -(c.qb + c.cross * c2)      # negative: the elbow angle runs opposite
    m22 = c.qb
    return m11, m12, m22


def _bias(c: _Coeffs, th1, th2, w1, w2):
    """Coriolis/centrifugal plus gravity generalized forces."""
    hs = c.cross * math.sin(th2)
    c12 = math.cos(th1 - th2)
    b1 = -hs * w2 * (2.0 * w1 - w2) + c.kg1 * math.cos(th1) + c.kg2 * c12
    b2 = hs * w1 * w1 - c.kg2 * c12
    return b1, b2


def _accel(c: _Coeffs, th1, th2, w1, w2, tau1, tau2, fx=0.0, fz=0.0):
    """Joint accelerations; (fx, fz) is an external force at the hand."""
    m11, m12, m22 = _mass_matrix(c, th2)
    b1, b2 = _bias(c, th1, th2, w1, w2)
    r1 = tau1 - b1
    r2 = tau2 - b2
    if fx != 0.0 or fz != 0.0:
        j11, j12, j21, j22 = _jacobian(c, th1, th2)
        r1 += j11 * fx + j21 * fz
        r2 += j12 * fx + j22 * fz
    det = m11 * m22 - m12 * m12
    a1 = (m22 * r1 - m12 * r2) / det
    a2 = (m11 * r2 - m12 * r1) / det
    return a1, a2


def _jacobian(c: _Coeffs, th1, th2):
    """d(hand)/d(theta); the forearm's absolute angle is th1 - th2."""
    s1 = math.sin(th1)
    c1 = math.cos(th1)
    sf = math.sin(th1 - th2)
    cf = math.cos(th1 - th2)
    j11 = -c.l1 * s1 - c.l2 * sf
    j12 = c.l2 * sf
    j21 = c.l1 * c1 + c.l2 * cf
    j22 = -c.l2 * cf
    return j11, j12, j21, j22


def _hand(c: _Coeffs, th1, th2, w1, w2):
    s1 = math.sin(th1)
    c1 = math.cos(th1)
    sf = math.sin(th1 - th2)
    cf = math.cos(th1 - th2)
    x = c.l1 * c1 + c.l2 * cf
    z = c.l1 * s1 + c.l2 * sf
    wf = w1 - w2
    vx = -c.l1 * s1 * w1 - c.l2 * sf * wf
    vz = c.l1 * c1 * w1 + c.l2 * cf * wf
    return x, z, vx, vz


def _jdot_qdot(c: _Coeffs, th1, th2, w1, w2):
    """Hand acceleration contribution that does not involve joint accelerations."""
    wf = w1 - w2
    c1 = math.cos(th1)
    s1 = math.sin(th1)
    cf = math.cos(th1 - th2)
    sf = math.sin(th1 - th2)
    ax = -c.l1 * c1 * w1 * w1 - c.l2 * cf * wf * wf
    az = -c.l1 * s1 * w1 * w1 - c.l2 * sf * wf * wf
    return ax, az


def _pendulum_forces(c: _Coeffs, th1, th2, w1, w2, tau1, tau2, pert: Perturbation,
                     phi, dphi):
    """Cable tension at the hand and bob angular acceleration.

    The bob hangs from the hand on a rigid cable of length l at angle phi from
    straight down. Tension is solved from the coupled arm/bob system and
    clamped at zero because the cable cannot push; the bob's tangential
    equation holds either way.
    """
    mb = pert.pendulum_mass
    l = pert.cable_length
    ux = math.sin(phi)        # unit vector hand -> bob
    uz = -math.cos(phi)
    # hand acceleration with no cable force
    a1f, a2f = _accel(c, th1, th2, w1, w2, tau1, tau2)
    jdx, jdz = _jdot_qdot(c, th1, th2, w1, w2)
    j11, j12, j21, j22 = _jacobian(c, th1, th2)
    ahx = j11 * a1f + j12 * a2f + jdx
    ahz = j21 * a1f + j22 * a2f + jdz
    # sensitivity of hand acceleration along u to a unit tension along u
    m11, m12, m22 = _mass_matrix(c, th2)
    det = m11 * m22 - m12 * m12
    v1 = j11 * ux + j21 * uz
    v2 = j12 * ux + j22 * uz
    z1 = (m22 * v1 - m12 * v2) / det
    z2 = (m11 * v2 - m12 * v1) / det
    w_sens = v1 * z1 + v2 * z2
    g_u = -c.g * uz
    tension = mb * (g_u + l * dphi * dphi - (ahx * ux + ahz * uz)) / (1.0 + mb * w_sens)
    if tension < 0.0:
        tension = 0.0          # slack cable transmits nothing
    fx = tension * ux
    fz = tension * uz
    # tangential bob dynamics need the hand acceleration under the clamped tension
    a1, a2 = _accel(c, th1, th2, w1, w2, tau1, tau2, fx, fz)
    ahx = j11 * a1 + j12 * a2 + jdx
    ahz = j21 * a1 + j22 * a2 + jdz
    tx = math.cos(phi)         # tangential unit vector
    tz = math.sin(phi)
    ddphi = (-c.g * tz - (ahx * tx + ahz * tz)) / l
    return fx, fz, ddphi, a1, a2


def _symp_step(c: _Coeffs, th1, th2, w1, w2, tau1, tau2, dt):
    """One semi-implicit Euler step in momentum form.

    Momenta are updated first (implicitly, by a short fixed-point loop, since
    the mass matrix couples them to the velocities), then positions. Working
    with momenta instead of velocities keeps the scheme symplectic despite
    the configuration-dependent mass matrix, so the energy error of a passive
    swing stays a bounded oscillation instead of a secular drift.

    Returns (th1', th2', w1', w2', a1, a2) where a1, a2 are the instantaneous
    joint accelerations at the pre-step state (what an accelerometer would
    read; used for jerk measures).

    _mass_matrix and _bias are inlined, each trigonometric term computed
    once. Every expression keeps their exact floating-point association
    (b1 is not regrouped to reuse v1g, for instance), so the result is
    bit-identical to composing them.
    """
    m11_0, cross, qb, kg1, kg2 = c.m11_0, c.cross, c.qb, c.kg1, c.kg2
    c2 = math.cos(th2)
    m11 = m11_0 + 2.0 * cross * c2
    m12 = -(qb + cross * c2)
    m22 = qb
    det = m11 * m22 - m12 * m12
    hs = cross * math.sin(th2)
    cos1 = math.cos(th1)
    c12 = math.cos(th1 - th2)
    b1 = -hs * w2 * (2.0 * w1 - w2) + kg1 * cos1 + kg2 * c12
    b2 = hs * w1 * w1 - kg2 * c12
    r1 = tau1 - b1
    r2 = tau2 - b2
    a1 = (m22 * r1 - m12 * r2) / det
    a2 = (m11 * r2 - m12 * r1) / det
    # generalized momenta
    p1 = m11 * w1 + m12 * w2
    p2 = m12 * w1 + m22 * w2
    v1g = kg1 * cos1 + kg2 * c12                # dV/dth1
    v2g = -kg2 * c12                            # dV/dth2
    # dH/dth1 has no velocity dependence (the mass matrix only sees th2),
    # so the first momentum update is explicit; the second converges in a
    # few fixed-point passes because dt times the coupling is tiny.
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
    c2n = math.cos(th2n)
    n11 = m11_0 + 2.0 * cross * c2n
    n12 = -(qb + cross * c2n)
    n22 = qb
    ndet = n11 * n22 - n12 * n12
    w1n = (n22 * q1 - n12 * q2) / ndet
    w2n = (n11 * q2 - n12 * q1) / ndet
    return th1n, th2n, w1n, w2n, a1, a2


def _require_finite(label, *values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{label} contains a non-finite value: {values!r}")


def forward_dynamics(state: ArmState, tau, params: ArmParams):
    """Joint accelerations (ddth1, ddth2) for torques tau = (tau1, tau2)."""
    _require_finite("state", state.th1, state.th2, state.dth1, state.dth2)
    _require_finite("tau", tau[0], tau[1])
    c = _Coeffs(params)
    return _accel(c, state.th1, state.th2, state.dth1, state.dth2, tau[0], tau[1])


def mass_matrix(state: ArmState, params: ArmParams):
    """Symmetric joint-space mass matrix [[m11, m12], [m12, m22]]."""
    m11, m12, m22 = _mass_matrix(_Coeffs(params), state.th2)
    return ((m11, m12), (m12, m22))


def gravity_torque(state: ArmState, params: ArmParams):
    """Generalized gravity forces (the torque needed to hold still is +G)."""
    c = _Coeffs(params)
    c12 = math.cos(state.th1 - state.th2)
    return (c.kg1 * math.cos(state.th1) + c.kg2 * c12, -c.kg2 * c12)


def step(state: ArmState, tau, dt: float = 0.005, params: ArmParams | None = None,
         perturbation: Perturbation | None = None) -> ArmState:
    """One semi-implicit Euler step: momenta first, then positions.

    Mass-type perturbations are folded into the parameters; a pendulum load
    is advanced alongside the arm, coupled through the cable tension.
    """
    _require_finite("state", state.th1, state.th2, state.dth1, state.dth2)
    _require_finite("tau", tau[0], tau[1])
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if params is None:
        params = ArmParams()
    p = params if perturbation is None else perturbation.apply_to(params)
    c = _Coeffs(p)
    t1, t2 = tau[0], tau[1]
    if perturbation is not None and perturbation.kind == "chaotic_pendulum":
        fx, fz, ddphi, _, _ = _pendulum_forces(
            c, state.th1, state.th2, state.dth1, state.dth2, t1, t2,
            perturbation, state.pend_angle, state.pend_vel)
        j11, j12, j21, j22 = _jacobian(c, state.th1, state.th2)
        t1 += j11 * fx + j21 * fz
        t2 += j12 * fx + j22 * fz
        pend_vel = state.pend_vel + dt * ddphi
        pend_angle = state.pend_angle + dt * pend_vel
    else:
        pend_vel = state.pend_vel
        pend_angle = state.pend_angle
    th1, th2, dth1, dth2, _, _ = _symp_step(
        c, state.th1, state.th2, state.dth1, state.dth2, t1, t2, dt)
    return ArmState(
        th1=th1,
        th2=th2,
        dth1=dth1,
        dth2=dth2,
        t=state.t + dt,
        pend_angle=pend_angle,
        pend_vel=pend_vel,
    )


def rk4_step(state: ArmState, tau, dt: float, params: ArmParams) -> ArmState:
    """Classic fourth-order Runge-Kutta step (reference integrator for tests).

    No perturbation support; constant torque over the step.
    """
    c = _Coeffs(params)
    t1, t2 = tau[0], tau[1]

    def f(y):
        th1, th2, w1, w2 = y
        a1, a2 = _accel(c, th1, th2, w1, w2, t1, t2)
        return (w1, w2, a1, a2)

    y0 = state.as_tuple()
    k1 = f(y0)
    k2 = f(tuple(y0[i] + 0.5 * dt * k1[i] for i in range(4)))
    k3 = f(tuple(y0[i] + 0.5 * dt * k2[i] for i in range(4)))
    k4 = f(tuple(y0[i] + dt * k3[i] for i in range(4)))
    y = tuple(y0[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(4))
    return ArmState(th1=y[0], th2=y[1], dth1=y[2], dth2=y[3], t=state.t + dt)


def end_effector(state: ArmState, params: ArmParams):
    """Hand position (x, z) and velocity (vx, vz)."""
    c = _Coeffs(params)
    x, z, vx, vz = _hand(c, state.th1, state.th2, state.dth1, state.dth2)
    return (x, z), (vx, vz)


def kinetic_energy(state: ArmState, params: ArmParams) -> float:
    c = _Coeffs(params)
    m11, m12, m22 = _mass_matrix(c, state.th2)
    w1, w2 = state.dth1, state.dth2
    return 0.5 * (m11 * w1 * w1 + 2.0 * m12 * w1 * w2 + m22 * w2 * w2)


def potential_energy(state: ArmState, params: ArmParams) -> float:
    c = _Coeffs(params)
    return c.kg1 * math.sin(state.th1) + c.kg2 * math.sin(state.th1 - state.th2)


def total_energy(state: ArmState, params: ArmParams) -> float:
    return kinetic_energy(state, params) + potential_energy(state, params)


def lagrangian(th1, th2, w1, w2, params: ArmParams):
    """L = T - V as a plain function of scalars (oracle-friendly form).

    Accepts any numeric type numpy can broadcast (e.g. longdouble), so tests
    can difference it in extended precision.
    """
    p = params
    mb = p.m2 + p.m_hand + p.m_extra
    sb = p.m2 * p.r2 + p.m_hand * p.l2 + p.m_extra * p.r2
    qb = p.i2 + p.m2 * p.r2 * p.r2 + p.m_hand * p.l2 * p.l2 + p.m_extra * p.r2 * p.r2
    a1 = p.i1 + p.m1 * p.r1 * p.r1
    c2 = np.cos(th2)
    m11 = a1 + qb + mb * p.l1 * p.l1 + 2.0 * p.l1 * sb * c2
    m12 = -(qb + p.l1 * sb * c2)
    m22 = qb
    t = 0.5 * (m11 * w1 * w1 + 2.0 * m12 * w1 * w2 + m22 * w2 * w2)
    v = p.g * ((p.m1 * p.r1 + mb * p.l1) * np.sin(th1) + sb * np.sin(th1 - th2))
    return t - v


def ball_step(ball: BallState, hand_pos, hand_vel, dt: float, g: float = 9.81,
              contact_radius: float = 0.05, restitution: float = 1.0) -> BallState:
    """Advance a free ball one step and resolve hand contact.

    Free flight under gravity (same semi-implicit scheme as the arm). When
    the ball is within contact_radius of the hand and approaching, an elastic
    impulse reflects the relative velocity along the contact normal; the hand
    is treated as kinematic.
    """
    dz = ball.dz - g * dt
    dx = ball.dx
    x = ball.x + dt * dx
    z = ball.z + dt * dz
    nx = x - hand_pos[0]
    nz = z - hand_pos[1]
    dist = math.hypot(nx, nz)
    if dist < contact_radius and dist > 0.0:
        nx /= dist
        nz /= dist
        rel = (dx - hand_vel[0]) * nx + (dz - hand_vel[1]) * nz
        if rel < 0.0:  # approaching
            dx -= (1.0 + restitution) * rel * nx
            dz -= (1.0 + restitution) * rel * nz
    return BallState(x=x, z=z, dx=dx, dz=dz, mass=ball.mass,
                     max_dz=max(ball.max_dz, dz), in_flight=ball.in_flight)
