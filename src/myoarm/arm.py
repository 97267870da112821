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
_symp_step inlines _mass_matrix and _bias and drops their negations
through exact sign identities, so its results stay bit-identical to the
composed form. The scalar rollout goes one further: its loop
(control._simulate) writes _symp_step's body out inline, carries each new
configuration's mass-matrix terms into the next step, and appends each
step's scalars as one record to one flat list that becomes one array once
per episode.

_symp_step itself is the step of control.rollout_batch, which advances a
whole CMA-ES population in lockstep: given NumPy arrays and np.cos/np.sin
for its cos/sin arguments, the same body computes every candidate's step
with the same operations in the same order. It takes the pre-step
configuration's mass-matrix terms (_mass_terms) and returns the new
configuration's with the new state, so the batch loop, too, derives them
once per step. So the step's arithmetic has exactly two copies, _symp_step
and the scalar loop, and tests/test_kernels.py holds each to the step
composed from _mass_matrix and _bias.
"""

import math
from dataclasses import dataclass, replace


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
    """The mass-matrix terms (m11, s, det) of configuration th2, as
    _symp_step takes and returns them: _mass_matrix's m11, s = -m12 and
    det = m11*m22 - m12*m12 (m22 is qb), each bit for bit, since negation
    and the sign of a product are exact. cos as in _symp_step."""
    c2 = cos(th2)
    m11 = c.m11_0 + c.cross2 * c2
    s = c.qb + c.cross * c2
    return m11, s, m11 * c.qb - s * s


def _symp_step(c: _Coeffs, th1, th2, w1, w2, tau1, tau2, dt, m11, s, det,
               cos=math.cos, sin=math.sin):
    """One semi-implicit Euler step in momentum form.

    Momenta are updated first (implicitly, by a short fixed-point loop, since
    the mass matrix couples them to the velocities), then positions. Working
    with momenta instead of velocities keeps the scheme symplectic despite
    the configuration-dependent mass matrix, so the energy error of a passive
    swing stays a bounded oscillation instead of a secular drift.

    m11, s and det are the mass-matrix terms of the pre-step configuration
    th2, _mass_terms(c, th2, cos). Returns (th1', th2', w1', w2', a1, a2,
    m11', s', det'): the new state, the instantaneous joint accelerations
    at the pre-step state (what an accelerometer would read; used for jerk
    measures), and the new configuration's mass-matrix terms, which the
    next step takes. So a run of steps derives each configuration's terms
    once, as the scalar rollout's loop does.

    _mass_matrix and _bias are inlined, each trigonometric term and each
    product that recurs (the gravity terms, qb*q1 and s*q1 in the
    fixed-point loop; m22 is qb) computed once, and the three fixed-point
    passes are unrolled. The composed form's negations are gone, through identities
    that IEEE arithmetic keeps exactly (negation and the sign of a product
    are exact, and x - y is x + (-y)): with s = qb + cross*c2 the mass
    matrix's m12 is -s, so x - m12*y becomes x + s*y and m12*m12 becomes
    s*s; -hs*w2*x + g1 becomes g1 - hs*w2*x; and adding v2g = -g2 becomes
    subtracting g2. Every other expression keeps its association (the
    bias b1 is not regrouped to reuse g1 + g2, for instance), and m11's
    first product 2.0*cross is c.cross2, so the result equals the composed
    one bit for bit, up to the sign of a NaN.

    The body uses only + - * / and the cos/sin it is given, and it reads
    every constant from c or dt, the literal 2.0 of the Coriolis term
    included (c.two). So it runs unchanged on arrays of candidates (one
    element each) with cos=np.cos, sin=np.sin; rollout_batch calls it that
    way, with every field of c and dt a 0-d float64 array, because NumPy
    converts a Python float operand anew on each call, which costs about
    as much again as the operation on a population-sized array. Element
    for element the array result equals the float one wherever np.cos and
    np.sin equal math.cos and math.sin.

    control._simulate, the scalar rollout's loop, carries a copy of this
    body written out inline; a change here is a change there. In
    tests/test_kernels.py, test_symp_step_equals_its_composed_reference
    pins this function, test_array_step_matches_the_scalar_step_element_by_element
    its array use, test_carried_mass_terms_are_the_new_configurations the
    terms it returns, and the rollout_reference tests the loop's copy.
    """
    cross, qb = c.cross, c.qb
    hs = cross * sin(th2)
    g1 = c.kg1 * cos(th1)
    g2 = c.kg2 * cos(th1 - th2)                 # dV/dth2 = -g2
    r1 = tau1 - (g1 - hs * w2 * (c.two * w1 - w2) + g2)
    r2 = tau2 - (hs * w1 * w1 - g2)
    a1 = (qb * r1 + s * r2) / det
    a2 = (m11 * r2 + s * r1) / det
    # generalized momenta; p1 = m11*w1 - s*w2 is q1's first term
    p2 = qb * w2 - s * w1
    # dH/dth1 has no velocity dependence (the mass matrix only sees th2),
    # so the first momentum update is explicit; the second converges in a
    # few fixed-point passes because dt times the coupling is tiny.
    q1 = m11 * w1 - s * w2 + dt * (tau1 - (g1 + g2))
    qbq1 = qb * q1
    sq1 = s * q1
    u1 = (qbq1 + s * p2) / det
    u2 = (m11 * p2 + sq1) / det
    q2 = p2 + dt * (tau2 - (hs * u1 * (u1 - u2) - g2))
    u1 = (qbq1 + s * q2) / det
    u2 = (m11 * q2 + sq1) / det
    q2 = p2 + dt * (tau2 - (hs * u1 * (u1 - u2) - g2))
    u1 = (qbq1 + s * q2) / det
    u2 = (m11 * q2 + sq1) / det
    q2 = p2 + dt * (tau2 - (hs * u1 * (u1 - u2) - g2))
    u1 = (qbq1 + s * q2) / det
    u2 = (m11 * q2 + sq1) / det
    th1n = th1 + dt * u1
    th2n = th2 + dt * u2
    n11, sn, ndet = _mass_terms(c, th2n, cos)
    w1n = (qbq1 + sn * q2) / ndet
    w2n = (n11 * q2 + sn * q1) / ndet
    return th1n, th2n, w1n, w2n, a1, a2, n11, sn, ndet


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
    return BallState(x=x, z=z, dx=dx, dz=dz)
