"""Actuator morphologies for the two-link arm.

Four interchangeable controller families share one interface: an
antagonistic muscle pair per joint, an ideal torque source, a PD position
controller in front of the torque source, and a low-pass filtered torque
source. All internal actuator states advance at the physics timestep.

Each controller declares n_controls, its control box [lo, hi] and
n_internal, the width of the internal row a rollout records per step:
four muscle activities, two filtered low-pass commands, or nothing (0) for
the torque and PD families. A controller with internal state exposes that
row as `internal`.
"""

import logging
import math
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

FV_MAX = 1.35          # eccentric force plateau
_FV_KNEE = 0.25        # curvature constant of the shortening branch
_FV_KNEE_ECC = 0.25    # curvature constant of the lengthening branch


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


def fiber_kinematics(phi: float, dphi: float, m: float, l_ref: float):
    """Fiber length and velocity of a linearly routed muscle: l = m*phi + l_ref."""
    return m * phi + l_ref, m * dphi


def _clamp_excitation(u: float) -> float:
    """Nearest end of [0, 1] for an excitation outside it, with a warning.

    NaN maps to 1.0; zoh_control rejects non-finite decision vectors before
    they reach a controller.
    """
    log.warning("excitation %.6g outside [0, 1]; clamped", u)
    return 0.0 if u < 0.0 else 1.0


def activation_step(a: float, u: float, dt: float, tau_act: float) -> float:
    """First-order activation toward the excitation u with time constant tau_act.

    Exact discrete solution of da/dt = (u - a)/tau_act for constant u over the
    step; result stays in [0, 1] for u in [0, 1].
    """
    if not 0.0 <= u <= 1.0:
        u = _clamp_excitation(u)
    a = u + (a - u) * math.exp(-dt / tau_act)
    if a < 0.0:
        return 0.0
    if a > 1.0:
        return 1.0
    return a


def lowpass_step(a: float, u: float, dt: float, dt_filter: float) -> float:
    """Euler update of the filtered torque command: a' = a + (dt/dt_filter)(u - a)."""
    return a + (dt / dt_filter) * (u - a)


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
    a is confined to [a0, 1) for gamma >= 0 and is monotone in gamma.
    """
    if not (math.isfinite(gamma) and math.isfinite(u) and math.isfinite(l_ce)):
        raise ValueError("non-finite input to the activation update")
    if not 0.0 <= u <= 1.0:
        u = _clamp_excitation(u)
    gamma = gamma + dt * params.m_h * (u - gamma)
    if gamma < 0.0:
        gamma = 0.0
    elif gamma > 1.0:
        gamma = 1.0
    w = (gamma * params.rho_scale * l_ce) ** params.nu
    a = (params.a0 + w) / (1.0 + w)
    return gamma, a


def force_length(l: float) -> float:
    """Bell-shaped active force-length factor, peak 1 at l = 1, support [0.5, 1.5]."""
    x = (l - 1.0) / 0.5
    y = 1.0 - x * x
    if y <= 0.0:
        return 0.0
    return y * y


def force_velocity(v: float) -> float:
    """Hill-type force-velocity factor.

    Zero at and below v = -1 (fast shortening), 1 at v = 0, saturating toward
    FV_MAX for lengthening; monotone non-decreasing everywhere.
    """
    if v <= -1.0:
        return 0.0
    if v <= 0.0:
        return (1.0 + v) / (1.0 - v / _FV_KNEE)
    r = _FV_KNEE_ECC / (_FV_KNEE_ECC + v)
    return FV_MAX - (FV_MAX - 1.0) * r * r


def force_passive(l: float) -> float:
    """Parallel-elastic factor: zero at or below optimal length, quadratic above."""
    if l <= 1.0:
        return 0.0
    x = (l - 1.0) / 0.6
    return 1.3 * x * x


def flv_curves(l: float, v: float):
    """Convenience bundle (FL, FV, FP) at one fiber state."""
    return force_length(l), force_velocity(v), force_passive(l)


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

    @classmethod
    def from_names(cls, names):
        """Build from strings in {'fl', 'fv', 'actdyn'} (repeats are fine)."""
        flags = cls()
        for n in names:
            if n == "fl":
                flags.disable_fl = True
            elif n == "fv":
                flags.disable_fv = True
            elif n == "actdyn":
                flags.disable_activation = True
            else:
                raise ValueError(f"unknown ablation {n!r}")
        return flags


def muscle_joint_torque(phi: float, dphi: float, a1: float, a2: float,
                        mp: MuscleParams, flags: AblationFlags | None = None) -> float:
    """Joint torque of the pair at activities a1, a2: tau = -(m1*F1 + m2*F2).

    Each fiber force is F = (FL * FV * a + FP) * f_max at the fiber state of
    fiber_kinematics, with FV read at v_scale times the fiber velocity. This
    is the per-step force arithmetic of MuscleController.torques. The curves
    are written out operation for operation as force_length, force_velocity
    and force_passive, so the result is bit-identical to composing them
    without the dozen calls that would cost.
    """
    no_fl = flags is not None and flags.disable_fl
    no_fv = flags is not None and flags.disable_fv
    m1, m2, v_scale, f_max = mp.m1, mp.m2, mp.v_scale, mp.f_max
    f1 = _fiber_force(m1 * phi + mp.l_ref1, v_scale * (m1 * dphi), a1, f_max,
                      no_fl, no_fv)
    f2 = _fiber_force(m2 * phi + mp.l_ref2, v_scale * (m2 * dphi), a2, f_max,
                      no_fl, no_fv)
    return -(m1 * f1 + m2 * f2)


def _fiber_force(l, v, a, f_max, no_fl, no_fv):
    """(FL * FV * a + FP) * f_max at fiber length l and scaled velocity v."""
    if no_fl:
        fl = 1.0
    else:
        x = (l - 1.0) / 0.5
        y = 1.0 - x * x
        fl = 0.0 if y <= 0.0 else y * y
    if no_fv:
        fv = 1.0
    elif v <= -1.0:
        fv = 0.0
    elif v <= 0.0:
        fv = (1.0 + v) / (1.0 - v / _FV_KNEE)
    else:
        r = _FV_KNEE_ECC / (_FV_KNEE_ECC + v)
        fv = FV_MAX - (FV_MAX - 1.0) * r * r
    if l <= 1.0:
        fp = 0.0
    else:
        x = (l - 1.0) / 0.6
        fp = 1.3 * x * x
    return (fl * fv * a + fp) * f_max


def torque_actuator(u: float, tau_max: float) -> float:
    """Ideal torque source: tau = tau_max * u, u in [-1, 1]."""
    if u < -1.0:
        log.warning("torque command %.6g outside [-1, 1]; clamped", u)
        u = -1.0
    elif u > 1.0:
        log.warning("torque command %.6g outside [-1, 1]; clamped", u)
        u = 1.0
    return tau_max * u


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

    Control order: (shoulder m1, shoulder m2, elbow m1, elbow m2).
    """

    n_controls = 4
    n_internal = 4      # width of `internal`, the row a rollout records
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
        self.reset()

    def reset(self):
        self.activities = [0.0, 0.0, 0.0, 0.0]
        self.gammas = [0.0, 0.0, 0.0, 0.0]

    def snapshot(self):
        return (list(self.activities), list(self.gammas))

    def restore(self, snap):
        self.activities = list(snap[0])
        self.gammas = list(snap[1])

    @property
    def internal(self):
        """The four current activities."""
        return self.activities

    def torques(self, th1, th2, w1, w2, u, dt):
        """Advance the four activities one step; return the joint torques.

        One kernel for every AblationFlags combination and both activation
        models. The first-order update repeats activation_step operation
        for operation, with exp(-dt/tau_act) taken once per joint, so the
        numbers are bit-identical to composing the public step functions.
        """
        flags = self.flags
        shoulder, elbow = self.shoulder, self.elbow
        if flags.disable_activation:
            acts = [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in u]
        elif self.activation_model == "hatze":
            lengths = (shoulder.m1 * th1 + shoulder.l_ref1,
                       shoulder.m2 * th1 + shoulder.l_ref2,
                       elbow.m1 * th2 + elbow.l_ref1,
                       elbow.m2 * th2 + elbow.l_ref2)
            gammas, acts = [], []
            for v, g, l in zip(u, self.gammas, lengths):
                g, a = hatze_activation_step(g, v, l, dt, self.hatze)
                gammas.append(g)
                acts.append(a)
            self.gammas = gammas
        else:
            e_sh = math.exp(-dt / shoulder.tau_act)
            e_el = math.exp(-dt / elbow.tau_act)
            acts = []
            for v, a, e in zip(u, self.activities, (e_sh, e_sh, e_el, e_el)):
                if not 0.0 <= v <= 1.0:
                    v = _clamp_excitation(v)
                a = v + (a - v) * e
                acts.append(0.0 if a < 0.0 else 1.0 if a > 1.0 else a)
        self.activities = acts
        return (muscle_joint_torque(th1, w1, acts[0], acts[1], shoulder, flags),
                muscle_joint_torque(th2, w2, acts[2], acts[3], elbow, flags))


def _valid_tau_max(tau_max):
    pair = tuple(float(v) for v in tau_max)
    if len(pair) != 2 or pair[0] <= 0.0 or pair[1] <= 0.0:
        raise ValueError("tau_max must be two positive torques")
    return pair


class TorqueController:
    """Direct torque commands in [-1, 1] per joint."""

    n_controls = 2
    n_internal = 0
    lo = -1.0
    hi = 1.0

    def __init__(self, tau_max=(30.0, 30.0)):
        self.tau_max = _valid_tau_max(tau_max)

    def reset(self):
        pass

    def snapshot(self):
        return None

    def restore(self, snap):
        pass

    def torques(self, th1, th2, w1, w2, u, dt):
        return (torque_actuator(u[0], self.tau_max[0]),
                torque_actuator(u[1], self.tau_max[1]))


class PDController:
    """Joint-angle targets in [-1, 1] scaled by target_scale, servoed by PD.

    The servo output is a normalized torque command for the ideal torque
    source, so the effective gains are tau_max * kp and tau_max * kd.
    """

    n_controls = 2
    n_internal = 0
    lo = -1.0
    hi = 1.0

    def __init__(self, kp=5.0, kd=0.5, tau_max=(30.0, 30.0), target_scale=math.pi):
        self.kp = kp
        self.kd = kd
        self.tau_max = _valid_tau_max(tau_max)
        self.target_scale = target_scale

    def reset(self):
        pass

    def snapshot(self):
        return None

    def restore(self, snap):
        pass

    def torques(self, th1, th2, w1, w2, u, dt):
        u1 = pd_control(th1, w1, u[0] * self.target_scale, self.kp, self.kd)
        u2 = pd_control(th2, w2, u[1] * self.target_scale, self.kp, self.kd)
        return (self.tau_max[0] * u1, self.tau_max[1] * u2)


class LowPassController:
    """Torque commands passed through a first-order filter before the torque source."""

    n_controls = 2
    n_internal = 2
    lo = -1.0
    hi = 1.0

    def __init__(self, dt_filter=0.01, tau_max=(30.0, 30.0)):
        if dt_filter <= 0.0:
            raise ValueError("dt_filter must be positive")
        self.dt_filter = dt_filter
        self.tau_max = _valid_tau_max(tau_max)
        self.reset()

    def reset(self):
        self.filtered = [0.0, 0.0]

    def snapshot(self):
        return list(self.filtered)

    def restore(self, snap):
        self.filtered = list(snap)

    @property
    def internal(self):
        """The two filtered commands."""
        return self.filtered

    def torques(self, th1, th2, w1, w2, u, dt):
        out = []
        for i in (0, 1):
            ui = u[i]
            if ui < -1.0:
                ui = -1.0
            elif ui > 1.0:
                ui = 1.0
            self.filtered[i] = lowpass_step(self.filtered[i], ui, dt, self.dt_filter)
            out.append(self.tau_max[i] * self.filtered[i])
        return out[0], out[1]


MORPHOLOGIES = ("muscle", "torque", "pd", "lowpass-fast", "lowpass-slow")


def make_controller(morphology: str, **overrides):
    """Controller factory for the named morphology.

    Overrides are forwarded to the class constructor; 'lowpass-fast' and
    'lowpass-slow' preset the filter constant to 0.01 s and 1.0 s.
    """
    if morphology == "muscle":
        return MuscleController(**overrides)
    if morphology == "torque":
        return TorqueController(**overrides)
    if morphology == "pd":
        return PDController(**overrides)
    if morphology == "lowpass-fast":
        overrides.setdefault("dt_filter", 0.01)
        return LowPassController(**overrides)
    if morphology == "lowpass-slow":
        overrides.setdefault("dt_filter", 1.0)
        return LowPassController(**overrides)
    raise ValueError(f"unknown morphology {morphology!r}; expected one of {MORPHOLOGIES}")
