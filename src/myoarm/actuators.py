"""Actuator morphologies for the two-link arm.

Four interchangeable controller families share one interface: an
antagonistic muscle pair per joint, an ideal torque source, a PD position
controller in front of the torque source, and a low-pass filtered torque
source. All internal actuator states advance at the one physics timestep,
DT_SIM.

A controller is a plain parameter object: it declares n_controls, its
control box [lo, hi] and state0, and holds no state of its own. Actuator
state is one tuple of floats, the state row, which a rollout carries from
step to step: torques(state, th1, th2, w1, w2, u) advances it by one
DT_SIM step and returns (tau1, tau2, next_state). state0 is the row at
rest: four zeros for the muscle pair (the activities under first-order
activation, the free-calcium states under the Hatze model), the two
filtered commands (0.0, 0.0) for the low-pass family, and () for the
torque and PD families. The control u is already in the box: the decode
(control.zoh_control) is the one place that clips a plan to [lo, hi], so
no controller clips or checks its controls again. Whatever depends on the
step alone (the muscle decay factors, the low-pass gain) is fixed when the
controller is built, and a low-pass filter too fast for the step is
refused then.

MuscleController.torques is one straight-line kernel, called once per
step of the scalar rollout: the four activation updates written out, each
joint's parameters read once, and the pair torque tau = -(m1*F1 + m2*F2)
with each fiber's force-length, force-velocity and passive curves written
out inline, no call per fiber. The same step composed from one function
per curve, with the pair torque as muscle_joint_torque, lives in
tests/oracles.py, which test_kernels holds the kernel to bit for bit.

Each controller also has an array form of `torques`, made by
batch_torques(population), for control.rollout_batch: it advances a whole
population in lockstep, with the state rows as the columns of a
(len(state0), population) array that the step updates in place. Branches
become np.maximum/np.minimum/np.where forms over the same operations, so
every candidate's torques equal, bit for bit, what `torques` gives it. At
a CMA-ES population's size a NumPy call's fixed cost is most of its cost,
so the array kernels take their constants as 0-d float64 arrays
(_arrays: module constants such as _ONE, and a controller's own), never
as Python floats, and the muscle kernel tiles its per-muscle parameters to
the full (4, population) shape once per batch_torques call and fills the
joint angles and velocities into buffers of that shape, so that no
operand is broadcast from a (4, 1) column. Values and operations stay the
scalar kernel's. The Hatze activation model has no array form (np.power
and ** differ in the last bit); rollout_batch runs it through the scalar
rollout instead.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .control import DT_SIM

FV_MAX = 1.35          # eccentric force plateau
_FV_KNEE = 0.25        # curvature constant of the shortening branch
_FV_KNEE_ECC = 0.25    # curvature constant of the lengthening branch


def _arrays(*values):
    """values as read-only 0-d float64 arrays, the form the array kernels
    take their constants in: NumPy converts a Python float operand anew on
    every call, which costs about as much again as the operation itself on
    a population-sized array. The values, and so every result, are the
    floats'."""
    out = [np.array(v, dtype=float) for v in values]
    for a in out:
        a.flags.writeable = False
    return out


_ZERO, _ONE, _MINUS_ONE = _arrays(0.0, 1.0, -1.0)
_FL_HALF_WIDTH, _FP_STRAIN, _FP_GAIN = _arrays(0.5, 0.6, 1.3)
_KNEE, _KNEE_ECC, _PLATEAU, _PLATEAU_SPAN = _arrays(_FV_KNEE, _FV_KNEE_ECC,
                                                    FV_MAX, FV_MAX - 1.0)


def derive_linear_map(phi_min: float, phi_max: float, l_min: float, l_max: float,
                      eps: float = 0.01):
    """Moment arms and reference lengths of an antagonistic pair.

    Muscle 1 lengthens with increasing joint angle (m1 > 0), muscle 2
    shortens (m2 < 0); both span [l_min, l_max] over the joint range up to
    the eps-regularized denominator.
    Returns (m1, l_ref1, m2, l_ref2).
    """
    if phi_max <= phi_min:
        raise ValueError("phi_max must exceed phi_min")
    if l_min <= 0.0 or l_max <= l_min:
        raise ValueError("need l_max > l_min > 0")
    m1 = (l_max - l_min) / (phi_max - phi_min + eps)
    l_ref1 = l_min - m1 * phi_min
    m2 = (l_max - l_min) / (phi_min - phi_max + eps)
    l_ref2 = l_min - m2 * phi_max
    if m2 >= 0.0:
        raise ValueError("joint range too narrow for the regularizer: "
                         "antagonist moment arm lost its sign")
    return m1, l_ref1, m2, l_ref2


@dataclass
class HatzeParams:
    """Constants of the calcium-kinetics activation variant."""

    m_h: float = 11.3       # 1/s, gamma rate constant
    nu: float = 3.0
    a0: float = 0.005       # resting activity
    rho_scale: float = 5.27  # rho(l) = rho_scale * l, so rho(1) = 5.27


def hatze_activation_step(gamma: float, u: float, l_ce: float, dt: float,
                          params: HatzeParams):
    """One Euler step of the free-calcium state plus the static activity map.

    Returns (gamma', a) with a = (a0 + w) / (1 + w), w = (gamma' * rho(l_ce))^nu.
    gamma' is clipped to [0, 1], so a is confined to [a0, 1) and is monotone
    in gamma. The excitation u is taken as it comes; a rollout's is in
    [0, 1] already.
    """
    if not (math.isfinite(gamma) and math.isfinite(u) and math.isfinite(l_ce)):
        raise ValueError("non-finite input to the activation update")
    gamma = gamma + dt * params.m_h * (u - gamma)
    if gamma < 0.0:
        gamma = 0.0
    elif gamma > 1.0:
        gamma = 1.0
    w = (gamma * params.rho_scale * l_ce) ** params.nu
    a = (params.a0 + w) / (1.0 + w)
    return gamma, a


@dataclass
class MuscleParams:
    """Antagonistic muscle pair acting on one joint.

    The linear fiber map is derived from the joint range and length range in
    __post_init__; eps regularizes the moment-arm denominators.
    """

    phi_min: float = -0.5 * math.pi
    phi_max: float = 0.5 * math.pi
    l_min: float = 0.75
    l_max: float = 1.05
    f_max: float = 295.0
    tau_act: float = 0.01     # s, activation time constant
    v_scale: float = 0.5      # fiber-velocity scaling into the FV curve
    eps: float = 0.01
    m1: float = field(init=False)
    l_ref1: float = field(init=False)
    m2: float = field(init=False)
    l_ref2: float = field(init=False)

    def __post_init__(self):
        if self.f_max <= 0.0 or self.tau_act <= 0.0:
            raise ValueError("f_max and tau_act must be positive")
        self.m1, self.l_ref1, self.m2, self.l_ref2 = derive_linear_map(
            self.phi_min, self.phi_max, self.l_min, self.l_max, self.eps)


@dataclass
class AblationFlags:
    """Switches that remove individual muscle properties."""

    disable_fl: bool = False
    disable_fv: bool = False
    disable_activation: bool = False

    NAMES = {"fl": "disable_fl", "fv": "disable_fv",
             "actdyn": "disable_activation"}

    @classmethod
    def from_names(cls, names):
        """Build from strings in NAMES (repeats are fine)."""
        flags = cls()
        for n in names:
            if n not in cls.NAMES:
                raise ValueError(f"unknown ablation {n!r}; expected one of "
                                 f"{tuple(cls.NAMES)}")
            setattr(flags, cls.NAMES[n], True)
        return flags


def _fiber_force_array(l, v, a, f_max, no_fl, no_fv):
    """The fiber force (FL * FV * a + FP) * f_max of MuscleController.torques
    over arrays of fibers, branch by branch the same bits.

    FL is max(y, 0)^2 and FP (max(l - 1, 0) / 0.6)^2 * 1.3, which equal the
    scalar branches on every input, NaN included; FV evaluates both of its
    curves and picks one with np.where. The unpicked curve may divide by
    zero, so callers run this under np.errstate. Every constant is one of
    the 0-d arrays of _arrays.
    """
    stretch = l - _ONE
    if no_fl:
        fl = _ONE
    else:
        x = stretch / _FL_HALF_WIDTH
        y = np.maximum(_ONE - x * x, _ZERO)
        fl = y * y
    if no_fv:
        fv = _ONE
    else:
        shortening = (_ONE + v) / (_ONE - v / _KNEE)
        r = _KNEE_ECC / (_KNEE_ECC + v)
        lengthening = _PLATEAU - _PLATEAU_SPAN * r * r
        fv = np.where(v <= _MINUS_ONE, _ZERO,
                      np.where(v <= _ZERO, shortening, lengthening))
    x = np.maximum(stretch, _ZERO) / _FP_STRAIN
    fp = _FP_GAIN * x * x
    return (fl * fv * a + fp) * f_max


def _unit_clip(x, lo):
    """x clamped to [lo, 1] as the scalar `lo if x < lo else 1 if x > 1 else x`;
    lo is a 0-d array."""
    return np.minimum(np.maximum(x, lo), _ONE)


def pd_control(q: float, dq: float, q_des: float, kp: float, kd: float) -> float:
    """Position servo against a zero-velocity reference, clamped to [-1, 1]."""
    u = kp * (q_des - q) + kd * (0.0 - dq)
    if u < -1.0:
        return -1.0
    if u > 1.0:
        return 1.0
    return u


class MuscleController:
    """Two antagonistic muscles per joint; controls are 4 excitations in [0, 1].

    Control order: (shoulder m1, shoulder m2, elbow m1, elbow m2). torques
    is the scalar kernel, one call per step of control.rollout;
    batch_torques is its array form for control.rollout_batch, which
    tests/test_batch.py holds to it through the costs.
    """

    n_controls = 4
    state0 = (0.0, 0.0, 0.0, 0.0)
    lo = 0.0
    hi = 1.0

    def __init__(self, shoulder: MuscleParams | None = None,
                 elbow: MuscleParams | None = None,
                 flags: AblationFlags | None = None,
                 activation_model: str = "first_order",
                 hatze: HatzeParams | None = None):
        self.shoulder = shoulder or MuscleParams()
        self.elbow = elbow or MuscleParams()
        self.flags = flags or AblationFlags()
        if activation_model not in ("first_order", "hatze"):
            raise ValueError(f"unknown activation model {activation_model!r}")
        self.activation_model = activation_model
        self.hatze = hatze or HatzeParams()
        # first-order activation's decay factors exp(-DT_SIM/tau_act)
        self._decay = (math.exp(-DT_SIM / self.shoulder.tau_act),
                       math.exp(-DT_SIM / self.elbow.tau_act))

    def torques(self, state, th1, th2, w1, w2, u):
        """Advance the state row one DT_SIM step: (tau1, tau2, next state row).

        u holds the four excitations, already in [0, 1]. The row holds the
        four activities under first-order activation (with activation
        dynamics ablated, where it is the excitations themselves) and the
        four free-calcium states under the Hatze model. One straight-line
        kernel for every AblationFlags combination and both activation
        models, with no faster path chosen by the flags: the four activation
        updates written out, each joint's MuscleParams read once, and each
        joint torque tau = -(m1*F1 + m2*F2) with the four fiber forces
        written out inline, at the fiber lengths l = m*phi + l_ref and
        scaled velocities v_scale*(m*dphi), each fiber testing the flags
        itself. The first-order update is the exact discrete solution of
        da/dt = (u - a)/tau_act for the step's constant excitation, a
        clipped to [0, 1], with the decay factor exp(-DT_SIM/tau_act) of
        each joint taken once, when the controller is built (so tau_act is
        read then); the Hatze update is hatze_activation_step's.
        tests/oracles.py composes the same step from one function per curve
        (muscle_joint_torque there), and test_kernels'
        test_muscle_kernel_equals_the_composed_step_functions and
        test_pair_torque_equals_the_composed_curves hold this kernel to it
        bit for bit.
        """
        u1, u2, u3, u4 = u
        sh, el, flags = self.shoulder, self.elbow, self.flags
        if flags.disable_activation:
            a1, a2, a3, a4 = u1, u2, u3, u4
            state = (u1, u2, u3, u4)
        elif self.activation_model == "hatze":
            g1, g2, g3, g4 = state
            hatze = self.hatze
            g1, a1 = hatze_activation_step(g1, u1, sh.m1 * th1 + sh.l_ref1, DT_SIM, hatze)
            g2, a2 = hatze_activation_step(g2, u2, sh.m2 * th1 + sh.l_ref2, DT_SIM, hatze)
            g3, a3 = hatze_activation_step(g3, u3, el.m1 * th2 + el.l_ref1, DT_SIM, hatze)
            g4, a4 = hatze_activation_step(g4, u4, el.m2 * th2 + el.l_ref2, DT_SIM, hatze)
            state = (g1, g2, g3, g4)
        else:
            a1, a2, a3, a4 = state
            e_sh, e_el = self._decay
            a1 = u1 + (a1 - u1) * e_sh
            a2 = u2 + (a2 - u2) * e_sh
            a3 = u3 + (a3 - u3) * e_el
            a4 = u4 + (a4 - u4) * e_el
            a1 = 0.0 if a1 < 0.0 else 1.0 if a1 > 1.0 else a1
            a2 = 0.0 if a2 < 0.0 else 1.0 if a2 > 1.0 else a2
            a3 = 0.0 if a3 < 0.0 else 1.0 if a3 > 1.0 else a3
            a4 = 0.0 if a4 < 0.0 else 1.0 if a4 > 1.0 else a4
            state = (a1, a2, a3, a4)
        # each fiber's force (FL * FV * a + FP) * f_max at its length
        # l = m*phi + l_ref and scaled velocity v = v_scale*(m*dphi): FL the
        # bell-shaped force-length factor (peak 1 at l = 1, support
        # [0.5, 1.5]), FV the Hill-type force-velocity factor (0 at and below
        # v = -1, 1 at v = 0, saturating toward FV_MAX when lengthening), each
        # 1 when ablated, and FP the parallel-elastic factor (0 up to l = 1,
        # quadratic above)
        no_fl, no_fv = flags.disable_fl, flags.disable_fv
        knee, knee_ecc, fv_max = _FV_KNEE, _FV_KNEE_ECC, FV_MAX
        fv_span = fv_max - 1.0
        m1, m2, v_scale, f_max = sh.m1, sh.m2, sh.v_scale, sh.f_max
        l = m1 * th1 + sh.l_ref1
        v = v_scale * (m1 * w1)
        d = l - 1.0
        x = d / 0.5
        y = 1.0 - x * x
        fl = 1.0 if no_fl else 0.0 if y <= 0.0 else y * y
        fv = (1.0 if no_fv else 0.0 if v <= -1.0
              else (1.0 + v) / (1.0 - v / knee) if v <= 0.0
              else fv_max - fv_span * (r := knee_ecc / (knee_ecc + v)) * r)
        fp = 0.0 if l <= 1.0 else 1.3 * (x := d / 0.6) * x
        f1 = (fl * fv * a1 + fp) * f_max
        l = m2 * th1 + sh.l_ref2
        v = v_scale * (m2 * w1)
        d = l - 1.0
        x = d / 0.5
        y = 1.0 - x * x
        fl = 1.0 if no_fl else 0.0 if y <= 0.0 else y * y
        fv = (1.0 if no_fv else 0.0 if v <= -1.0
              else (1.0 + v) / (1.0 - v / knee) if v <= 0.0
              else fv_max - fv_span * (r := knee_ecc / (knee_ecc + v)) * r)
        fp = 0.0 if l <= 1.0 else 1.3 * (x := d / 0.6) * x
        f2 = (fl * fv * a2 + fp) * f_max
        tau1 = -(m1 * f1 + m2 * f2)
        m1, m2, v_scale, f_max = el.m1, el.m2, el.v_scale, el.f_max
        l = m1 * th2 + el.l_ref1
        v = v_scale * (m1 * w2)
        d = l - 1.0
        x = d / 0.5
        y = 1.0 - x * x
        fl = 1.0 if no_fl else 0.0 if y <= 0.0 else y * y
        fv = (1.0 if no_fv else 0.0 if v <= -1.0
              else (1.0 + v) / (1.0 - v / knee) if v <= 0.0
              else fv_max - fv_span * (r := knee_ecc / (knee_ecc + v)) * r)
        fp = 0.0 if l <= 1.0 else 1.3 * (x := d / 0.6) * x
        f1 = (fl * fv * a3 + fp) * f_max
        l = m2 * th2 + el.l_ref2
        v = v_scale * (m2 * w2)
        d = l - 1.0
        x = d / 0.5
        y = 1.0 - x * x
        fl = 1.0 if no_fl else 0.0 if y <= 0.0 else y * y
        fv = (1.0 if no_fv else 0.0 if v <= -1.0
              else (1.0 + v) / (1.0 - v / knee) if v <= 0.0
              else fv_max - fv_span * (r := knee_ecc / (knee_ecc + v)) * r)
        fp = 0.0 if l <= 1.0 else 1.3 * (x := d / 0.6) * x
        f2 = (fl * fv * a4 + fp) * f_max
        tau2 = -(m1 * f1 + m2 * f2)
        return tau1, tau2, state

    def batch_torques(self, population):
        """Array form of torques for `population` columns:
        step(acts, th1, th2, w1, w2, u) -> (tau1, tau2).

        acts is the (4, population) array of state rows, advanced in place;
        u is the (4, population) excitation block, in [0, 1] as the scalar
        form's is. The four muscles are stacked in control order and every
        parameter is read once, here, and tiled to a full (4, population)
        array, because NumPy broadcasts a (4, 1) column at about twice the
        cost of an operand of the full shape; the decay factors are torques'
        own. Each step fills the joint angles and velocities into two
        (4, population) buffers of this call. First-order activation and
        every AblationFlags case only: the Hatze model goes through the
        scalar rollout.
        """
        if self.activation_model == "hatze":
            raise ValueError("the Hatze activation model has no array form")
        sh, el = self.shoulder, self.elbow

        def rows(a, b, c, d):
            return np.tile(np.array([[a], [b], [c], [d]]), population)

        m = rows(sh.m1, sh.m2, el.m1, el.m2)
        l_ref = rows(sh.l_ref1, sh.l_ref2, el.l_ref1, el.l_ref2)
        v_scale = rows(sh.v_scale, sh.v_scale, el.v_scale, el.v_scale)
        f_max = rows(sh.f_max, sh.f_max, el.f_max, el.f_max)
        e_sh, e_el = self._decay
        decay = rows(e_sh, e_sh, e_el, e_el)
        no_act = self.flags.disable_activation
        no_fl, no_fv = self.flags.disable_fl, self.flags.disable_fv
        phi, dphi = np.empty((4, population)), np.empty((4, population))

        def step(acts, th1, th2, w1, w2, u):
            if no_act:
                acts[:] = u
            else:
                acts[:] = _unit_clip(u + (acts - u) * decay, _ZERO)
            phi[:2] = th1
            phi[2:] = th2
            dphi[:2] = w1
            dphi[2:] = w2
            mf = m * _fiber_force_array(m * phi + l_ref, v_scale * (m * dphi),
                                        acts, f_max, no_fl, no_fv)
            return -(mf[0] + mf[1]), -(mf[2] + mf[3])

        return step


def _valid_tau_max(tau_max):
    pair = tuple(float(v) for v in tau_max)
    if len(pair) != 2 or not all(0.0 < v < math.inf for v in pair):
        raise ValueError(f"tau_max must be two positive finite torques, "
                         f"not {tau_max!r}")
    return pair


class TorqueController:
    """Direct torque commands in [-1, 1] per joint."""

    n_controls = 2
    state0 = ()
    lo = -1.0
    hi = 1.0

    def __init__(self, tau_max=(30.0, 30.0)):
        self.tau_max = _valid_tau_max(tau_max)

    def torques(self, state, th1, th2, w1, w2, u):
        """The ideal torque source per joint: tau = tau_max * u."""
        u1, u2 = u
        t1, t2 = self.tau_max
        return t1 * u1, t2 * u2, state

    def batch_torques(self, population):
        """Array form of torques; u is the (2, population) block. The
        ceilings are 0-d arrays (_arrays), and the population size does
        not matter."""
        t1, t2 = _arrays(*self.tau_max)

        def step(state, th1, th2, w1, w2, u):
            return t1 * u[0], t2 * u[1]

        return step


class PDController:
    """Joint-angle targets in [-1, 1] scaled by target_scale, servoed by PD.

    The servo output is a normalized torque command for the ideal torque
    source, so the effective gains are tau_max * kp and tau_max * kd.
    """

    n_controls = 2
    state0 = ()
    lo = -1.0
    hi = 1.0

    def __init__(self, kp=5.0, kd=0.5, tau_max=(30.0, 30.0), target_scale=math.pi):
        self.kp = kp
        self.kd = kd
        self.tau_max = _valid_tau_max(tau_max)
        self.target_scale = target_scale

    def torques(self, state, th1, th2, w1, w2, u):
        u1 = pd_control(th1, w1, u[0] * self.target_scale, self.kp, self.kd)
        u2 = pd_control(th2, w2, u[1] * self.target_scale, self.kp, self.kd)
        return self.tau_max[0] * u1, self.tau_max[1] * u2, state

    def batch_torques(self, population):
        """Array form of torques, pd_control's arithmetic and clamp per
        joint, with every constant a 0-d array (_arrays); the population
        size does not matter."""
        kp, kd, scale, t1, t2 = _arrays(self.kp, self.kd, self.target_scale,
                                        *self.tau_max)

        def servo(q, dq, target):
            return _unit_clip(kp * (target * scale - q) + kd * (_ZERO - dq),
                              _MINUS_ONE)

        def step(state, th1, th2, w1, w2, u):
            return t1 * servo(th1, w1, u[0]), t2 * servo(th2, w2, u[1])

        return step


class LowPassController:
    """Torque commands passed through a first-order filter before the torque source.

    The filter is the forward Euler step f' = f + (DT_SIM/dt_filter)(u - f),
    which is stable for gains DT_SIM/dt_filter up to 2, so a dt_filter
    below half the step is refused when the controller is built. So is an
    infinite one, whose gain 0 would hold the filter at its start row and
    apply no torque at all.
    """

    n_controls = 2
    state0 = (0.0, 0.0)     # the filtered commands
    lo = -1.0
    hi = 1.0

    def __init__(self, dt_filter=0.01, tau_max=(30.0, 30.0)):
        if not dt_filter >= 0.5 * DT_SIM:
            raise ValueError(f"dt_filter {dt_filter} is below half the step "
                             f"dt = {DT_SIM}; the filter would diverge")
        if math.isinf(dt_filter):
            raise ValueError("dt_filter must be finite; an infinite time "
                             "constant never passes a command on")
        self.dt_filter = dt_filter
        self._gain = DT_SIM / dt_filter
        self.tau_max = _valid_tau_max(tau_max)

    def torques(self, state, th1, th2, w1, w2, u):
        u1, u2 = u
        f1, f2 = state
        gain = self._gain
        f1 = f1 + gain * (u1 - f1)
        f2 = f2 + gain * (u2 - f2)
        t1, t2 = self.tau_max
        return t1 * f1, t2 * f2, (f1, f2)

    def batch_torques(self, population):
        """Array form of torques; filtered is the (2, population) array of
        state rows, advanced in place by the same update. The gain and the
        ceilings are 0-d arrays (_arrays), and the population size does
        not matter."""
        gain, t1, t2 = _arrays(self._gain, *self.tau_max)

        def step(filtered, th1, th2, w1, w2, u):
            filtered += gain * (u - filtered)
            return t1 * filtered[0], t2 * filtered[1]

        return step


MORPHOLOGIES = ("muscle", "torque", "pd", "lowpass-fast", "lowpass-slow")


def parse_morphology(label: str):
    """(morphology, controller overrides) of a run label.

    A label is one of MORPHOLOGIES, or 'muscle' followed by one '-noX' per
    ablated property X in AblationFlags.NAMES, as in 'muscle-nofl-nofv'.
    Sweeps name ablation runs this way and the CLI labels `--ablate` runs
    the same way, and make_controller reads every label through this one
    parser.
    """
    base, *ablated = label.split("-no")
    if base not in MORPHOLOGIES:
        raise ValueError(f"unknown morphology {label!r}; expected one of "
                         f"{MORPHOLOGIES}, optionally muscle-noX")
    if not ablated:
        return base, {}
    if base != "muscle":
        raise ValueError(f"ablations apply only to the muscle morphology, "
                         f"not {base!r}")
    return base, {"flags": AblationFlags.from_names(ablated)}


def make_controller(label: str, **overrides):
    """The controller a run label names (parse_morphology): one of
    MORPHOLOGIES, or 'muscle' with '-noX' ablations as in 'muscle-nofl-nofv'.

    The label's ablation flags, then `overrides`, are forwarded to the class
    constructor; 'lowpass-fast' and 'lowpass-slow' preset the filter
    constant to 0.01 s and 1.0 s. Sweeps, the CLI and the control layer's
    callers all build their controllers here.
    """
    morphology, kwargs = parse_morphology(label)
    kwargs.update(overrides)
    if morphology == "muscle":
        return MuscleController(**kwargs)
    if morphology == "torque":
        return TorqueController(**kwargs)
    if morphology == "pd":
        return PDController(**kwargs)
    # the rest of MORPHOLOGIES: the two low-pass presets
    kwargs.setdefault("dt_filter", 0.01 if morphology == "lowpass-fast" else 1.0)
    return LowPassController(**kwargs)
