"""Planar two-link arm dynamics with gravity, point-mass loads, and auxiliary bodies.

The arm is a shoulder/elbow chain in the vertical x-z plane. theta1 is the
shoulder angle measured counterclockwise from the positive x axis. theta2 is
the elbow angle relative to the upper arm with the opposite sense: positive
theta2 folds the forearm clockwise, so the forearm's absolute angle is
theta1 - theta2. Gravity acts along -z; hanging straight down at rest is
(theta1, theta2) = (-pi/2, 0), and from a horizontal rest pose gravity gives
both joints a negative initial acceleration.

The step has two forms, one for one arm and one for a population. The
scalar kernels work on plain floats on purpose: per-step state is a
handful of scalars and array round-trips would dominate the cost of the
millions of steps an optimization run takes. The scalar rollout's loop
(control._simulate) writes the semi-implicit step out inline on floats,
with _mass_matrix and _bias inlined and their negations dropped through
exact sign identities, so its results stay bit-identical to the composed
form; it carries each new configuration's mass-matrix terms into the next
step, and appends each step's scalars as one record to one flat list that
becomes one array once per episode.

_symp_step is the step of control.rollout_plans, which advances whole
CMA-ES populations in lockstep, one column per candidate. It is an array
kernel: the same operations in the same order as the scalar loop's, each
one NumPy call on contiguous rows that writes into a buffer the caller
made once (rollout_plans' sample record, the carried mass-matrix terms and
_STEP_WORK_ROWS scratch rows), so a step allocates nothing. It reads sample
k's state from the record and writes sample k's accelerations and sample
k + 1's state back into it; _step_accel, its first half, gives the
terminal sample's accelerations. So the step's arithmetic has exactly two
copies, _symp_step and the scalar loop, and tests/test_kernels.py holds
each to the step composed from _mass_matrix and _bias.
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
    pend_angle: float = 0.0   # cable angle from straight down
    pend_vel: float = 0.0


# the chaotic pendulum's bob: a solid sphere of radius 0.12 m and density
# 1000 kg/m^3
PENDULUM_MASS = (4.0 / 3.0) * math.pi * 0.12 ** 3 * 1000.0


@dataclass
class Perturbation:
    """Plant modification applied to the true system.

    kind: one of 'none', 'lower_arm_mass', 'hand_mass', 'chaotic_pendulum'.
    visible_to_prediction: whether a prediction model is allowed to know
    about this perturbation (the plant itself always feels it).
    """

    kind: str = "none"
    mass: float = 0.0                 # added mass for the *_mass kinds
    cable_length: float = 0.6
    visible_to_prediction: bool = False

    KINDS = ("none", "lower_arm_mass", "hand_mass", "chaotic_pendulum")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if not 0.0 <= self.mass < math.inf:
            raise ValueError(f"perturbation mass must be finite and "
                             f"non-negative, not {self.mass!r}")

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


class _Coeffs:
    """Configuration-independent aggregates of the equations of motion."""

    __slots__ = ("a1", "mb", "sb", "qb", "m11_0", "cross", "cross2", "two",
                 "kg1", "kg2", "g", "l1", "l2")

    def __init__(self, p: ArmParams):
        self.a1 = p.i1 + p.m1 * p.r1 * p.r1
        # bodies carried by the forearm frame: the link, the hand mass, the extra mass
        self.mb = p.m2 + p.m_hand + p.m_extra
        self.sb = p.m2 * p.r2 + p.m_hand * p.l2 + p.m_extra * p.r2
        self.qb = p.i2 + p.m2 * p.r2 * p.r2 + p.m_hand * p.l2 * p.l2 + p.m_extra * p.r2 * p.r2
        self.m11_0 = self.a1 + self.qb + self.mb * p.l1 * p.l1
        self.cross = p.l1 * self.sb
        self.cross2 = 2.0 * self.cross          # m11's first product, 2.0 * cross
        self.two = 2.0                          # the Coriolis term's 2.0 (_symp_step)
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


def hand_position(th1, th2, params, cos=math.cos, sin=math.sin):
    """Hand (x, z) at joint angles th1, th2 of an arm with params.l1, .l2.

    The one forward-kinematics formula of the reaching tasks: it runs on
    floats, or on arrays of samples with cos=np.cos, sin=np.sin.
    """
    fore = th1 - th2
    return (params.l1 * cos(th1) + params.l2 * cos(fore),
            params.l1 * sin(th1) + params.l2 * sin(fore))


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
    mb = PENDULUM_MASS
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


def _pendulum_step(c: _Coeffs, th1, th2, w1, w2, tau1, tau2, pert: Perturbation,
                   phi, dphi, dt):
    """Couple a pendulum load into one step: (tau1', tau2', phi', dphi').

    The joint torques gain the cable force at the hand, mapped through the
    Jacobian transpose, and the bob advances by semi-implicit Euler.
    control.rollout advances a pendulum load through this, one call per
    physics step before the step itself.
    """
    fx, fz, ddphi, _, _ = _pendulum_forces(c, th1, th2, w1, w2, tau1, tau2,
                                           pert, phi, dphi)
    j11, j12, j21, j22 = _jacobian(c, th1, th2)
    dphi = dphi + dt * ddphi
    return (tau1 + (j11 * fx + j21 * fz), tau2 + (j12 * fx + j22 * fz),
            phi + dt * dphi, dphi)


def _mass_terms(c: _Coeffs, th2, cos=math.cos):
    """The mass-matrix terms (m11, s, det) of configuration th2: _mass_matrix's
    m11, s = -m12 and det = m11*m22 - m12*m12 (m22 is qb), each bit for
    bit, since negation and the sign of a product are exact. The scalar
    rollout's loop starts from these; rollout_plans computes its first
    ones here too, on arrays with cos=np.cos, and _symp_step each later
    configuration's in its buffers, with the same operations."""
    c2 = cos(th2)
    m11 = c.m11_0 + c.cross2 * c2
    s = c.qb + c.cross * c2
    return m11, s, m11 * c.qb - s * s


_STEP_WORK_ROWS = 13         # the scratch rows _symp_step writes into


def _step_accel(c: _Coeffs, x, tau1, tau2, terms, work, cos=np.cos,
                sin=np.sin):
    """The joint accelerations of N arms at one sample under torques
    (tau1, tau2), written into the sample's rows: the first half of
    _symp_step, and all that rollout_plans needs of the terminal sample.

    x holds the sample's six rows th1, th2, w1, w2, a1, a2 (as _symp_step
    takes them); a1 and a2 are written, the rest read. terms are the (m11,
    s, det) rows of its configuration, work _symp_step's scratch rows; hs,
    g1 and g2 are left in work's first three rows for the rest of the step.
    """
    th1, th2, w1, w2, a1, a2 = x
    m11, s, det = terms
    hs, g1, g2, t, r1, r2 = work[:6]
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    sin(th2, hs)                        # hs = cross * sin(th2)
    mul(c.cross, hs, hs)
    cos(th1, g1)                        # g1 = kg1 * cos(th1)
    mul(c.kg1, g1, g1)
    sub(th1, th2, g2)                   # g2 = kg2 * cos(th1 - th2); dV/dth2 = -g2
    cos(g2, g2)
    mul(c.kg2, g2, g2)
    mul(c.two, w1, r1)                  # r1 = tau1 - (g1 - hs*w2*(2*w1 - w2) + g2)
    sub(r1, w2, r1)
    mul(hs, w2, t)
    mul(t, r1, r1)
    sub(g1, r1, r1)
    add(r1, g2, r1)
    sub(tau1, r1, r1)
    mul(hs, w1, r2)                     # r2 = tau2 - (hs*w1*w1 - g2)
    mul(r2, w1, r2)
    sub(r2, g2, r2)
    sub(tau2, r2, r2)
    mul(c.qb, r1, a1)                   # a1 = (qb*r1 + s*r2) / det
    mul(s, r2, t)
    add(a1, t, a1)
    div(a1, det, a1)
    mul(m11, r2, a2)                    # a2 = (m11*r2 + s*r1) / det
    mul(s, r1, t)
    add(a2, t, a2)
    div(a2, det, a2)


def _symp_step(c: _Coeffs, x, xn, tau1, tau2, dt, terms, work,
               cos=np.cos, sin=np.sin):
    """One semi-implicit Euler step in momentum form of N arms at once, as
    NumPy calls that write into buffers the caller made.

    Momenta are updated first (implicitly, by a short fixed-point loop, since
    the mass matrix couples them to the velocities), then positions. Working
    with momenta instead of velocities keeps the scheme symplectic despite
    the configuration-dependent mass matrix, so the energy error of a passive
    swing stays a bounded oscillation instead of a secular drift.

    x and xn hold the six rows th1, th2, w1, w2, a1, a2 of samples k and
    k + 1, one column per arm (rollout_plans hands in tuples of views of
    its record's rows, made once per sample). The step reads x's state,
    writes its instantaneous joint accelerations (_step_accel; what an
    accelerometer would read, used for jerk measures) into x's a1, a2 rows
    and the new state into xn's th1 .. w2 rows. terms holds the (m11, s, det) rows of x's configuration
    (_mass_terms) and is overwritten with xn's, so a run of steps derives
    each configuration's terms once, as the scalar rollout's loop does.
    work is _STEP_WORK_ROWS scratch rows. tau1 and tau2 are rows of torques.
    Every constant is a field of c, which with dt is a 0-d float64 array
    (control._array_coeffs): NumPy converts a Python float operand anew on
    every call, which costs about as much again as the operation on a
    population-sized row. No operand is broadcast from a larger or smaller
    row, and every output goes to its buffer as a positional out argument,
    so the step allocates nothing: at a CMA-ES population's size a NumPy
    call's fixed cost is most of its cost, and a new result array, a
    keyword out or a broadcast adds to it.

    The arithmetic is the composed step's (_mass_matrix and _bias),
    operation for operation: each trigonometric term and each product that
    recurs (the gravity terms, qb*q1 and s*q1 in the fixed-point loop; m22
    is qb) is computed once, and the fixed-point loop runs its three passes.
    The composed form's negations are gone, through identities that IEEE
    arithmetic keeps exactly (negation and the sign of a product are
    exact, and x - y is x + (-y)): with s = qb + cross*c2 the mass matrix's
    m12 is -s, so x - m12*y becomes x + s*y and m12*m12 becomes s*s;
    -hs*w2*x + g1 becomes g1 - hs*w2*x; and adding v2g = -g2 becomes
    subtracting g2. Every other expression keeps its association and its
    operand order (the bias b1 is not regrouped to reuse g1 + g2, for
    instance), and m11's first product 2.0*cross is c.cross2 and the
    Coriolis term's 2.0 is c.two, so each column's result equals the
    composed step's on that column's floats bit for bit, up to the sign of
    a NaN, wherever cos and sin (np.cos and np.sin; a test may pass any
    function called as cos(x, out)) equal math.cos and math.sin. No
    column's numbers depend on the columns beside it.

    control._simulate, the scalar rollout's loop, carries the one other
    copy of this arithmetic, written out inline on floats; a change here
    is a change there. In tests/test_kernels.py,
    test_symp_step_equals_its_composed_reference pins this function on
    single columns with math's trigonometry,
    test_array_step_matches_the_scalar_step_element_by_element its use on
    many columns with NumPy's, test_carried_mass_terms_are_the_new_configurations
    the terms it hands on, and the rollout_reference tests the loop's copy.
    """
    th1, th2, w1, w2, _, _ = x
    th1n, th2n, w1n, w2n, _, _ = xn
    m11, s, det = terms
    qb = c.qb
    hs, g1, g2, t, p2, q1, q2, qbq1, sq1, u1, u2 = (*work[:4], *work[6:])
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    _step_accel(c, x, tau1, tau2, terms, work, cos, sin)
    # generalized momenta; p1 = m11*w1 - s*w2 is q1's first term
    mul(qb, w2, p2)                     # p2 = qb*w2 - s*w1
    mul(s, w1, t)
    sub(p2, t, p2)
    # dH/dth1 has no velocity dependence (the mass matrix only sees th2),
    # so the first momentum update is explicit; the second converges in a
    # few fixed-point passes because dt times the coupling is tiny.
    mul(m11, w1, q1)                    # q1 = m11*w1 - s*w2 + dt*(tau1 - (g1 + g2))
    mul(s, w2, t)
    sub(q1, t, q1)
    add(g1, g2, t)
    sub(tau1, t, t)
    mul(dt, t, t)
    add(q1, t, q1)
    mul(qb, q1, qbq1)
    mul(s, q1, sq1)
    q = p2                              # the first pass starts from p2
    for _ in range(3):
        mul(s, q, u1)                   # u1 = (qbq1 + s*q) / det
        add(qbq1, u1, u1)
        div(u1, det, u1)
        mul(m11, q, u2)                 # u2 = (m11*q + sq1) / det
        add(u2, sq1, u2)
        div(u2, det, u2)
        sub(u1, u2, q2)                 # q2 = p2 + dt*(tau2 - (hs*u1*(u1 - u2) - g2))
        mul(hs, u1, t)
        mul(t, q2, q2)
        sub(q2, g2, q2)
        sub(tau2, q2, q2)
        mul(dt, q2, q2)
        add(p2, q2, q2)
        q = q2
    mul(s, q2, u1)                      # the velocities of the final q2
    add(qbq1, u1, u1)
    div(u1, det, u1)
    mul(m11, q2, u2)
    add(u2, sq1, u2)
    div(u2, det, u2)
    mul(dt, u1, t)                     # th1' = th1 + dt*u1
    add(th1, t, th1n)
    mul(dt, u2, t)                     # th2' = th2 + dt*u2
    add(th2, t, th2n)
    cos(th2n, t)                        # the new configuration's terms (_mass_terms)
    mul(c.cross2, t, m11)
    add(c.m11_0, m11, m11)
    mul(c.cross, t, s)
    add(qb, s, s)
    mul(m11, qb, det)
    mul(s, s, t)
    sub(det, t, det)
    mul(s, q2, w1n)                     # w1' = (qbq1 + s'*q2) / det'
    add(qbq1, w1n, w1n)
    div(w1n, det, w1n)
    mul(m11, q2, w2n)                   # w2' = (m11'*q2 + s'*q1) / det'
    mul(s, q1, t)
    add(w2n, t, w2n)
    div(w2n, det, w2n)


def ball_step(ball: BallState, hand_pos, hand_vel, dt: float, g: float = 9.81,
              contact_radius: float = 0.05) -> BallState:
    """Advance a free ball one step and resolve hand contact.

    Free flight under gravity (same semi-implicit scheme as the arm). When
    the ball is within contact_radius of the hand and approaching, an elastic
    impulse (restitution 1, so twice the approach speed) reflects the
    relative velocity along the contact normal; the hand is treated as
    kinematic.
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
            dx -= 2.0 * rel * nx
            dz -= 2.0 * rel * nz
    return BallState(x=x, z=z, dx=dx, dz=dz)
