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
(control._Window._run) writes the semi-implicit step out inline on floats,
with _mass_matrix and _bias inlined and their negations dropped through
exact sign identities, so its results stay bit-identical to the composed
form; it carries each new configuration's mass-matrix terms into the next
step, and appends each step's scalars as one record to one flat list that
becomes one array once per finished episode.

_symp_step is the step of control.rollout_plans, which advances whole
CMA-ES populations in lockstep, one column per candidate. It is an array
kernel: the same operations as the scalar loop's, each one NumPy call on
contiguous rows of blocks the caller made once (_StepBlocks: the state,
the torques, the carried mass-matrix terms and scratch), so a step
allocates nothing and makes no view. Where both joints do alike, one call
does both joints' work on a contiguous (2, N) pair of rows, with only the
operands of a sum or a product in the other order, which IEEE arithmetic
keeps bit for bit. The step reads the state's angles and velocities and
writes its accelerations and then the next state back into it;
_step_accel, its first half, gives the terminal sample's accelerations.
So the step's arithmetic has exactly two copies, _symp_step and the
scalar loop, and tests/test_kernels.py holds each to the step composed
from _mass_matrix and _bias.
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
    arm at distance r2 from the elbow (used by perturbations). Every field
    must be finite, the lengths, masses and inertias of the links positive
    and the point masses non-negative (ValueError naming the field
    otherwise).
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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"ArmParams.{name} must be positive and "
                                 f"finite, got {getattr(self, name)!r}")
        for name in ("m_hand", "m_extra"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"ArmParams.{name} must be a non-negative, "
                                 f"finite point mass, got {getattr(self, name)!r}")
        if not math.isfinite(self.g):
            raise ValueError(f"ArmParams.g must be finite, got {self.g!r}")


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
    about this perturbation (the plant itself always feels it). mass must
    be finite and non-negative, and cable_length positive and finite.
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
        if not 0.0 < self.cable_length < math.inf:
            raise ValueError(f"perturbation cable_length must be positive "
                             f"and finite, not {self.cable_length!r}")

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

    __slots__ = ("a1", "mb", "sb", "qb", "m11_0", "cross", "cross2", "kg1",
                 "kg2", "g", "l1", "l2")

    def __init__(self, p: ArmParams):
        self.a1 = p.i1 + p.m1 * p.r1 * p.r1
        # bodies carried by the forearm frame: the link, the hand mass, the extra mass
        self.mb = p.m2 + p.m_hand + p.m_extra
        self.sb = p.m2 * p.r2 + p.m_hand * p.l2 + p.m_extra * p.r2
        self.qb = p.i2 + p.m2 * p.r2 * p.r2 + p.m_hand * p.l2 * p.l2 + p.m_extra * p.r2 * p.r2
        self.m11_0 = self.a1 + self.qb + self.mb * p.l1 * p.l1
        self.cross = p.l1 * self.sb
        self.cross2 = 2.0 * self.cross          # m11's first product, 2.0 * cross
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
    configuration's in its blocks, with the same operations on row pairs."""
    c2 = cos(th2)
    m11 = c.m11_0 + c.cross2 * c2
    s = c.qb + c.cross * c2
    return m11, s, m11 * c.qb - s * s


def _tile(values, n):
    """values as a (len(values), n) float64 block, value i in every column
    of row i: the form the population step and the actuators' array
    kernels take a constant that differs by row in, since NumPy
    broadcasts a (rows, 1) column at about twice the cost of an operand of
    the full shape."""
    return np.tile(np.reshape(np.array(values, dtype=float), (-1, 1)), n)


class _StepBlocks:
    """The blocks the population step (_symp_step) works on, for N arms,
    one column per arm: made once per rollout_plans call, so that a step
    allocates nothing and makes no view.

    state is (6, N): the rows th1, th2, w1, w2, a1, a2 of the sample the
    next step starts from, so the angles th = [th1; th2], the velocities w
    and the accelerations a are each one contiguous (2, N) pair, and rows
    0:4 are the angle and velocity block a controller's array kernel reads
    (actuators). tau is the (2, N) torque block the kernel writes. terms
    is the (4, N) block [qb, s, m11, qb] of the state's mass-matrix terms
    (_mass_terms; s = -m12, and m22 is qb), rows 0 and 3 constant, so
    [qb; s], [s; m11] and [m11; qb] are each one contiguous slice, and det
    is the (2, N) block [det; det]. set_terms fills in the first ones, and
    each step hands on its new configuration's.

    The rest are the step's scratch blocks and its constants, every one a
    float64 array: dt, 2.0 and qb as 0-d arrays, since NumPy converts a
    Python float operand anew on every call, which costs about as much
    again as the operation on a population-sized row; and the constant
    pairs as full (rows, N) tiles, since a NumPy call that broadcasts an
    operand costs about twice a plain one. The trigonometric block trig is
    [hs, hs, g1, Q, P, g2] and is scaled by one multiply with the tile
    [cross, cross, kg1, 1, 1, kg2]; rows 3 and 4 take Q = hs*w1*w1 and P =
    hs*w2*(2*w1 - w2) after it (the ones scale what they held before), so
    [hs; hs], [Q; P], [g1; Q] and [P; g2] are contiguous pairs too. Every
    view, its rows included, is made here and kept in two tuples, which
    _step_accel and _symp_step unpack.
    """

    __slots__ = ("state", "tau", "terms", "det", "accel_views", "step_views")

    def __init__(self, c: _Coeffs, n: int, dt: float):
        state = self.state = np.zeros((6, n))
        tau = self.tau = np.zeros((2, n))
        terms = self.terms = np.zeros((4, n))
        terms[0] = terms[3] = c.qb
        det = self.det = np.ones((2, n))
        trig = np.zeros((6, n))
        y, bias, pair, sw, qs, qq, u, cc = np.zeros((8, 2, n))
        r = np.zeros((4, n))
        m = np.zeros((3, n))
        t, x = np.zeros((2, n))
        th1, th2, w1, w2 = state[:4]
        self.accel_views = (
            th1, th2, w1, w2, state[2:4], state[4:6], tau, trig,
            _tile((c.cross, c.cross, c.kg1, 1.0, 1.0, c.kg2), n),
            trig[0], trig[1], trig[2], trig[5], trig[0:2], trig[3:5],
            trig[2:4], trig[4:6], y, *y, np.array(2.0), bias, bias[0],
            r[1:3], *r, r[0:2], r[2:4], terms[0:2], terms[1:3], pair, det)
        self.step_views = (
            state[0:2], th2, w1, w2, state[2:4], *tau, terms[2:4], *terms[1:3],
            terms[1:3], np.array(c.qb), trig[0], trig[2], trig[5], m[0:2],
            *m, m[1:3], sw, *sw, qs, *qs, qq, *qq, u, *u, t, x, cc, *cc,
            _tile((c.cross, c.cross2), n), _tile((c.qb, c.m11_0), n), det,
            *det, np.array(dt, dtype=float))

    def set_terms(self, m11, s, det):
        """Take (m11, s, det), _mass_terms' rows of the state's
        configuration, as the terms the next step starts from."""
        self.terms[1] = s
        self.terms[2] = m11
        self.det[:] = det


def _step_accel(b: _StepBlocks, cos=np.cos, sin=np.sin):
    """The joint accelerations of b's N arms at their state under the
    torques in b.tau, written into the state's a rows: the first half of
    _symp_step, and all that rollout_plans needs of the terminal sample.
    It leaves hs, g1 and g2 in b's trigonometric block for the rest of
    the step. The pairs, each one NumPy call on two rows:
    [hs*w1; hs*w2], then [Q; P] = that times [w1; 2*w1 - w2];
    [g1 - P; Q - g2], whose first row then gains g2; [r1; r2] = tau -
    [b1; b2]; and a = ([qb; s]*[r1; r1] + [s; m11]*[r2; r2]) / [det;
    det], so a2 is s*r1 + m11*r2.
    """
    (th1, th2, w1, w2, w, a, tau, trig, scale, hs, hs_copy, g1, g2, hh, qp,
     g1_q, p_g2, y, y0, y1, two, bias, b1, r12, r0, r1, r2, r3, rr1, rr2,
     qb_s, s_m11, pair, det) = b.accel_views
    mul, add, sub, div, copy = (np.multiply, np.add, np.subtract, np.divide,
                                np.copyto)
    sin(th2, hs)                        # [hs, hs, g1, -, -, g2] =
    copy(hs_copy, hs)                   # [cross, cross, kg1, -, -, kg2] *
    cos(th1, g1)                        # [sin(th2), sin(th2), cos(th1),
    sub(th1, th2, g2)                   #  -, -, cos(th1 - th2)]
    cos(g2, g2)
    mul(scale, trig, trig)
    mul(hh, w, qp)                      # [Q; P] = [hs*w1; hs*w2] * y
    copy(y0, w1)                        # y = [w1; 2*w1 - w2]
    mul(two, w1, y1)
    sub(y1, w2, y1)
    mul(qp, y, qp)
    sub(g1_q, p_g2, bias)               # [b1; b2] = [g1 - P + g2; Q - g2]
    add(b1, g2, b1)
    sub(tau, bias, r12)                 # r = [r1, r1, r2, r2]
    copy(r0, r1)
    copy(r3, r2)
    mul(qb_s, rr1, a)                   # a = ([qb; s]*[r1; r1]
    mul(s_m11, rr2, pair)               #      + [s; m11]*[r2; r2])
    add(a, pair, a)                     #     / [det; det]
    div(a, det, a)


def _symp_step(b: _StepBlocks, cos=np.cos, sin=np.sin):
    """One semi-implicit Euler step in momentum form of N arms at once, as
    NumPy calls on the blocks b holds (_StepBlocks).

    Momenta are updated first (implicitly, by a short fixed-point loop, since
    the mass matrix couples them to the velocities), then positions. Working
    with momenta instead of velocities keeps the scheme symplectic despite
    the configuration-dependent mass matrix, so the energy error of a passive
    swing stays a bounded oscillation instead of a secular drift.

    The step reads b.state's th and w rows and b.tau, writes the state's
    instantaneous joint accelerations (_step_accel; what an accelerometer
    would read, used for jerk measures) into its a rows, and then the new
    state into its th and w rows, in place; it replaces b's carried terms
    ([qb, s, m11, qb] and [det; det]) with the new configuration's, so a
    run of steps derives each configuration's terms once, as the scalar
    rollout's loop does. Every result goes into one of b's blocks, and
    every operand is one of b's views or constants, so the step allocates
    nothing and makes no view: at a CMA-ES population's size a NumPy
    call's fixed cost is most of its cost.

    Where both joints do alike, one call does the work of both on a
    contiguous pair of rows, never a broadcast one and never a view with
    a negative stride; a pair that needs one row twice, such as [q; q],
    costs a row copy. The pairs after _step_accel's: the momenta [m11*w1;
    qb*w2] - [s*w2; s*w1], whose rows are q1's first term and p2; [qb*q1;
    s*q1]; each fixed-point pass's velocities u = ([s; m11]*[q; q] +
    [qb*q1; s*q1]) / [det; det]; th' = th + dt*u; the new terms [s';
    m11'] = [qb; m11_0] + [cross; cross2]*[c2; c2]; and w' = ([s';
    m11']*[q2; q2] + [qb*q1; s'*q1]) / [det'; det']. q1's gravity term, the
    update of q2 in each pass and det' = m11'*qb - s'*s' are single rows.

    The arithmetic is the composed step's (_mass_matrix and _bias),
    operation for operation: each trigonometric term and each product that
    recurs (the gravity terms, qb*q1 and s*q1 in the fixed-point loop; m22
    is qb) is computed once, and the fixed-point loop runs its three passes.
    The composed form's negations are gone, through identities that IEEE
    arithmetic keeps exactly (negation and the sign of a product are
    exact, and x - y is x + (-y)): with s = qb + cross*c2 the mass matrix's
    m12 is -s, so x - m12*y becomes x + s*y and m12*m12 becomes s*s;
    -hs*w2*x + g1 becomes g1 - hs*w2*x; and adding v2g = -g2 becomes
    subtracting g2. The pairs add one more: some sums and products take
    their operands in the other order (s*q + qb*q1 for the scalar loop's
    qb*q1 + s*q, for instance), and IEEE addition and multiplication are
    commutative, bit for bit. Every other expression keeps its association
    and its operand order (the bias b1 is not regrouped to reuse g1 + g2,
    for instance), so each column's result equals the composed step's on
    that column's floats bit for bit, up to the sign of a NaN, wherever
    cos and sin (np.cos and np.sin; a test may pass any function called as
    cos(x, out)) equal math.cos and math.sin. No column's numbers depend
    on the columns beside it.

    control._Window._run, the scalar rollout's loop, carries the one other
    copy of this arithmetic, written out inline on floats; a change here
    is a change there. In tests/test_kernels.py,
    test_symp_step_equals_its_composed_reference pins this function on
    single columns with math's trigonometry,
    test_array_step_matches_the_scalar_step_element_by_element its use on
    many columns with NumPy's, test_carried_mass_terms_are_the_new_configurations
    the terms it hands on, and the rollout_reference tests the loop's copy.
    """
    (th, th2, w1, w2, w, tau1, tau2, m11_qb, s, m11, s_m11, qb, hs, g1, g2,
     m01, q1, p2, p2_copy, p2p2, sw, sw0, sw1, qs, qbq1, sq1, qq, q2, q2_copy,
     u, u1, u2, t, x, cc, c2, c2_copy, cross_pair, base_pair, det, det0,
     det1, dt) = b.step_views
    mul, add, sub, div, copy = (np.multiply, np.add, np.subtract, np.divide,
                                np.copyto)
    _step_accel(b, cos, sin)
    # generalized momenta: [q1; p2] = [m11*w1 - s*w2; qb*w2 - s*w1], and
    # dH/dth1 has no velocity dependence (the mass matrix only sees th2),
    # so the first momentum update is explicit; the second converges in a
    # few fixed-point passes because dt times the coupling is tiny.
    mul(m11_qb, w, m01)
    mul(s, w2, sw0)
    mul(s, w1, sw1)
    sub(m01, sw, m01)
    add(g1, g2, t)                      # q1 += dt*(tau1 - (g1 + g2))
    sub(tau1, t, t)
    mul(dt, t, t)
    add(q1, t, q1)
    copy(p2_copy, p2)
    mul(qb, q1, qbq1)
    mul(s, q1, sq1)
    q = p2p2                            # the first pass starts from p2
    for _ in range(3):
        mul(s_m11, q, u)                # u = ([s; m11]*[q; q] + [qbq1; sq1])
        add(u, qs, u)                   #     / [det; det]
        div(u, det, u)
        sub(u1, u2, x)                  # q2 = p2 + dt*(tau2 - (hs*u1*(u1 - u2) - g2))
        mul(hs, u1, t)
        mul(t, x, x)
        sub(x, g2, x)
        sub(tau2, x, x)
        mul(dt, x, x)
        add(p2, x, q2)
        copy(q2_copy, q2)
        q = qq
    mul(s_m11, qq, u)                   # the velocities of the final q2
    add(u, qs, u)
    div(u, det, u)
    mul(dt, u, u)                       # th' = th + dt*u
    add(th, u, th)
    cos(th2, c2)                        # the new configuration's terms
    copy(c2_copy, c2)                   # [s; m11] = [qb; m11_0]
    mul(cross_pair, cc, cc)             #     + [cross; cross2]*[c2; c2]
    add(base_pair, cc, s_m11)
    mul(m11, qb, det0)                  # det = m11*qb - s*s
    mul(s, s, t)
    sub(det0, t, det0)
    copy(det1, det0)
    mul(s_m11, qq, u)                   # w' = ([s'; m11']*[q2; q2]
    mul(s, q1, sq1)                     #       + [qbq1; s'*q1]) / [det'; det']
    add(u, qs, w)
    div(w, det, w)


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
