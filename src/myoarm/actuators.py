"""Actuator morphologies for the two-link arm.

Four interchangeable controller families share one interface: an
antagonistic muscle pair per joint, an ideal torque source, a PD position
controller in front of the torque source, and a low-pass filtered torque
source. The last two are torque sources in the class sense too:
PDController and LowPassController derive from TorqueController, whose
two controls, control box [-1, 1] and checked ceilings tau_max they share,
and each replaces only the kernels (and the low-pass family its state0).
All internal actuator states advance at the one physics timestep, DT_SIM.

A controller is a plain parameter object: it declares n_controls, its
control box [lo, hi] and state0, and holds no state of its own. Actuator
state is one tuple of floats, the state row, which a rollout carries from
step to step: torques(state, th1, th2, w1, w2, u) advances it by one
DT_SIM step and returns (tau1, tau2, next_state). state0 is the row at
rest: four zeros for the muscle pair (its four activities), the two
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
batch_torques(q, tau), for control.rollout_plans: it advances a whole
population of N columns in lockstep, with the state rows as the columns
of a (len(state0), N) array that the step updates in place. q is the
population's (4, N) angle and velocity block (rows th1, th2, w1, w2) and
tau its (2, N) torque block, both the caller's, made once per call
(arm._StepBlocks); step(state, u) reads q and the (n_controls, N) control
block u and writes both joints' torques into tau. Branches become
np.maximum/np.minimum forms and masked copies over the same operations,
so every candidate's torques equal, bit for bit, what `torques` gives it.
Where both joints do alike, one NumPy call does the work of both on a
contiguous pair of rows: the torque, PD and low-pass kernels work on the
(2, N) blocks of both joints' commands, filter states and torques, and
the muscle kernel on its four muscles' rows at once, with one broadcast
copy of q into an (8, N) block [phi; dphi] and one multiply for m*phi and
m*dphi. At a CMA-ES population's size a NumPy call's fixed cost is most
of its cost, so the array kernels take a constant shared by every row as
a 0-d float64 array (_arrays: module constants such as _ONE, and a
controller's own), never as a Python float, and a constant that differs
by row (a ceiling per joint, a parameter per muscle) tiled to its
block's full shape once per batch_torques call (arm._tile), so that no
operand of an arithmetic call is broadcast from a column (the muscle
kernel's copy of q is the one broadcast); every NumPy call of a step
writes into tau or a block made in that call, so no step allocates or
makes a view. Values and operations stay the scalar kernels'.

In tests/test_kernels.py, test_muscle_kernel_equals_the_composed_step_functions
and test_pair_torque_equals_the_composed_curves pin the scalar muscle
kernel, test_torque_kernel_equals_the_torque_source_per_joint the scalar
torque kernel, and test_pd_kernel_equals_pd_torques_per_element and
test_lowpass_kernel_equals_lowpass_torques_per_element the PD and
low-pass array kernels, element by element, against the scalar ones.
tests/test_state_rows.py holds every array kernel, the muscle one under
every ablation flag set, to `torques` column by column
(test_batch_torques_for_a_population_is_torques_per_column), and
tests/test_batch.py holds them to it through the costs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .arm import _tile
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
class MuscleParams:
    """Antagonistic muscle pair acting on one joint.

    The linear fiber map is derived from the joint range and length range in
    __post_init__; eps regularizes the moment-arm denominators. Every
    field must be finite, and f_max and tau_act positive (ValueError
    naming the field otherwise).
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
        for name in ("phi_min", "phi_max", "l_min", "l_max", "f_max",
                     "tau_act", "v_scale", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"MuscleParams.{name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        for name in ("f_max", "tau_act"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"MuscleParams.{name} must be positive, got "
                                 f"{getattr(self, name)!r}")
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
    batch_torques is its array form for control.rollout_plans, which
    tests/test_state_rows.py holds to it column by column and
    tests/test_batch.py through the costs.
    """

    n_controls = 4
    state0 = (0.0, 0.0, 0.0, 0.0)
    lo = 0.0
    hi = 1.0

    def __init__(self, shoulder: MuscleParams | None = None,
                 elbow: MuscleParams | None = None,
                 flags: AblationFlags | None = None):
        self.shoulder = shoulder or MuscleParams()
        self.elbow = elbow or MuscleParams()
        self.flags = flags or AblationFlags()
        # first-order activation's decay factors exp(-DT_SIM/tau_act)
        self._decay = (math.exp(-DT_SIM / self.shoulder.tau_act),
                       math.exp(-DT_SIM / self.elbow.tau_act))

    def torques(self, state, th1, th2, w1, w2, u):
        """Advance the state row one DT_SIM step: (tau1, tau2, next state row).

        u holds the four excitations, already in [0, 1]. The row holds the
        four activities (with activation dynamics ablated, the excitations
        themselves). One straight-line kernel for every AblationFlags
        combination, with no faster path chosen by the flags: the four
        activation updates written out, each joint's MuscleParams read once,
        and each joint torque tau = -(m1*F1 + m2*F2) with the four fiber
        forces written out inline, at the fiber lengths l = m*phi + l_ref
        and scaled velocities v_scale*(m*dphi), each fiber testing the flags
        itself. The activation update is the exact discrete solution of the
        first-order model da/dt = (u - a)/tau_act for the step's constant
        excitation, a clipped to [0, 1], with the decay factor
        exp(-DT_SIM/tau_act) of each joint taken once, when the controller
        is built (so tau_act is read then).
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

    def batch_torques(self, q, tau):
        """Array form of torques for the population whose (4, N) angle and
        velocity block q (rows th1, th2, w1, w2) and (2, N) torque block
        tau the caller made: step(acts, u) writes the population's torques
        into tau.

        acts is the (4, N) array of state rows, advanced in place; u is the
        (4, N) excitation block, in [0, 1] as the scalar form's is. The
        four muscles are stacked in control order, and every parameter is
        read once, here, and tiled to a full (4, N) block (_tile); the
        decay factors are torques' own. The step allocates nothing and
        makes no view: the fiber lengths, velocities and force factors live
        in blocks made here, once per call, and every NumPy call writes
        into one of them or into tau. One broadcast copy fills the (8, N)
        block [phi; dphi] = [th1, th1, th2, th2, w1, w1, w2, w2] from q, so
        one multiply by the tiled moment arms [m; m] gives both m*phi and
        m*dphi, and each joint's pair torque is the sum of its two
        muscles' rows, negated on the (2, N) block at once. Each curve is
        computed where the scalar kernel computes it, with its operations
        and operand order; FV computes both of its curves and picks with
        two masked copies (np.putmask, about half the fixed cost of a
        masked np.copyto), the shortening curve where v <= 0 and then 0
        where v <= -1, so a NaN velocity keeps the lengthening curve's NaN,
        as the scalar branches do. The unpicked curve may divide by zero,
        so callers run the step under np.errstate.
        """
        sh, el = self.shoulder, self.elbow
        population = tau.shape[1]
        arms = _tile((sh.m1, sh.m2, el.m1, el.m2) * 2, population)
        l_ref = _tile((sh.l_ref1, sh.l_ref2, el.l_ref1, el.l_ref2), population)
        v_scale = _tile((sh.v_scale, sh.v_scale, el.v_scale, el.v_scale),
                        population)
        f_max = _tile((sh.f_max, sh.f_max, el.f_max, el.f_max), population)
        e_sh, e_el = self._decay
        decay = _tile((e_sh, e_sh, e_el, e_el), population)
        m = arms[:4]
        no_act = self.flags.disable_activation
        no_fl, no_fv = self.flags.disable_fl, self.flags.disable_fv
        angles = np.empty((8, population))          # [phi; dphi]
        pairs, joints = angles.reshape(4, 2, population), q[:, None]
        lengths = np.empty((8, population))         # [l; v]
        l, v = lengths[:4], lengths[4:]
        x, t, fl, fv, fp = np.empty((5, 4, population))
        pick = np.empty((4, population), dtype=bool)
        fl = _ONE if no_fl else fl
        fv = _ONE if no_fv else fv
        f1, f2, f3, f4 = l              # m*F per muscle, once l holds it
        tau1, tau2 = tau
        mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
        maximum = np.maximum

        def step(acts, u):
            if no_act:
                np.copyto(acts, u)
            else:               # u + (acts - u) * decay, clipped to [0, 1]
                sub(acts, u, acts)
                mul(acts, decay, acts)
                add(u, acts, acts)
                maximum(acts, _ZERO, out=acts)
                np.minimum(acts, _ONE, out=acts)
            np.copyto(pairs, joints)        # each joint's two muscles
            mul(arms, angles, lengths)      # [l; v] = [m*phi; m*dphi], then
            add(l, l_ref, l)                # l = m*phi + l_ref
            mul(v_scale, v, v)              # v = v_scale*(m*dphi)
            sub(l, _ONE, l)                 # the stretch l - 1
            if not no_fl:                   # FL = max(1 - x*x, 0)^2, x = (l - 1)/0.5
                div(l, _FL_HALF_WIDTH, x)
                mul(x, x, x)
                sub(_ONE, x, x)
                maximum(x, _ZERO, out=x)
                mul(x, x, fl)
            if not no_fv:
                add(_KNEE_ECC, v, t)        # lengthening: FV_MAX - span*r*r
                div(_KNEE_ECC, t, t)        # with r = knee_ecc/(knee_ecc + v)
                mul(_PLATEAU_SPAN, t, fv)
                mul(fv, t, fv)
                sub(_PLATEAU, fv, fv)
                div(v, _KNEE, t)            # shortening: (1 + v)/(1 - v/knee)
                sub(_ONE, t, t)
                add(_ONE, v, x)
                div(x, t, t)
                np.less_equal(v, _ZERO, pick)
                np.putmask(fv, pick, t)
                np.less_equal(v, _MINUS_ONE, pick)
                np.putmask(fv, pick, _ZERO)
            maximum(l, _ZERO, out=t)        # FP = 1.3*x*x, x = max(l - 1, 0)/0.6
            div(t, _FP_STRAIN, t)
            mul(_FP_GAIN, t, fp)
            mul(fp, t, fp)
            mul(fl, fv, l)                  # m * (FL*FV*a + FP)*f_max
            mul(l, acts, l)
            add(l, fp, l)
            mul(l, f_max, l)
            mul(m, l, l)
            add(f1, f2, tau1)               # tau = -(m1*F1 + m2*F2) per joint
            add(f3, f4, tau2)
            np.negative(tau, tau)

        return step


class TorqueController:
    """Direct torque commands in [-1, 1] per joint: the ideal torque source.

    The torque family derives from it: PDController and LowPassController
    put a PD servo or a low-pass filter in front of this source, and share
    its control box, its two controls and its ceilings tau_max, which must
    be two positive finite torques (ValueError otherwise)."""

    n_controls = 2
    state0 = ()
    lo = -1.0
    hi = 1.0

    def __init__(self, tau_max=(30.0, 30.0)):
        pair = tuple(float(v) for v in tau_max)
        if len(pair) != 2 or not all(0.0 < v < math.inf for v in pair):
            raise ValueError(f"tau_max must be two positive finite torques, "
                             f"not {tau_max!r}")
        self.tau_max = pair

    def torques(self, state, th1, th2, w1, w2, u):
        """The ideal torque source per joint: tau = tau_max * u."""
        u1, u2 = u
        t1, t2 = self.tau_max
        return t1 * u1, t2 * u2, state

    def batch_torques(self, q, tau):
        """Array form of torques: step(state, u) writes tau = tau_max * u
        for the (2, N) command block u into the caller's (2, N) torque
        block tau, with one multiply by the ceilings tiled to the block's
        shape (_tile). The kernel reads no angle or velocity of the
        caller's block q."""
        ceiling = _tile(self.tau_max, tau.shape[1])

        def step(state, u):
            np.multiply(ceiling, u, tau)

        return step


class PDController(TorqueController):
    """Joint-angle targets in [-1, 1] scaled by target_scale, servoed by PD
    in front of the torque source.

    The servo output is a normalized torque command for the ideal torque
    source, so the effective gains are tau_max * kp and tau_max * kd. The
    gains and the target scale are constants; only tau_max is set.
    """

    kp = 5.0
    kd = 0.5
    target_scale = math.pi

    def torques(self, state, th1, th2, w1, w2, u):
        u1 = pd_control(th1, w1, u[0] * self.target_scale, self.kp, self.kd)
        u2 = pd_control(th2, w2, u[1] * self.target_scale, self.kp, self.kd)
        return self.tau_max[0] * u1, self.tau_max[1] * u2, state

    def batch_torques(self, q, tau):
        """Array form of torques for the population whose (4, N) angle and
        velocity block q and (2, N) torque block tau the caller made:
        step(state, u) writes tau for the (2, N) target block u.
        pd_control's arithmetic and clamp run on both joints' rows at
        once, on the pairs th = q[0:2] and w = q[2:4], in blocks made here
        and with the gains and the target scale as 0-d arrays (_arrays)
        and the ceilings tiled (_tile), so the step allocates nothing."""
        kp, kd, scale = _arrays(self.kp, self.kd, self.target_scale)
        ceiling = _tile(self.tau_max, tau.shape[1])
        th, w = q[0:2], q[2:4]
        e, d = np.empty((2,) + tau.shape)
        mul = np.multiply

        def step(state, u):
            mul(u, scale, e)                # kp*(u*scale - th) + kd*(0.0 - w)
            np.subtract(e, th, e)
            mul(kp, e, e)
            np.subtract(_ZERO, w, d)
            mul(kd, d, d)
            np.add(e, d, e)
            np.maximum(e, _MINUS_ONE, out=e)    # clamped to [-1, 1]
            np.minimum(e, _ONE, out=e)
            mul(ceiling, e, tau)

        return step


class LowPassController(TorqueController):
    """Torque commands passed through a first-order filter before the torque source.

    The filter is the forward Euler step f' = f + (DT_SIM/dt_filter)(u - f),
    which is stable for gains DT_SIM/dt_filter up to 2, so a dt_filter
    below half the step is refused when the controller is built. So is an
    infinite one, whose gain 0 would hold the filter at its start row and
    apply no torque at all. The ceilings are the torque source's, checked
    by its constructor after dt_filter.
    """

    state0 = (0.0, 0.0)     # the filtered commands

    def __init__(self, dt_filter=0.01, tau_max=(30.0, 30.0)):
        if not dt_filter >= 0.5 * DT_SIM:
            raise ValueError(f"dt_filter {dt_filter} is below half the step "
                             f"dt = {DT_SIM}; the filter would diverge")
        if math.isinf(dt_filter):
            raise ValueError("dt_filter must be finite; an infinite time "
                             "constant never passes a command on")
        self.dt_filter = dt_filter
        self._gain = DT_SIM / dt_filter
        super().__init__(tau_max)

    def torques(self, state, th1, th2, w1, w2, u):
        u1, u2 = u
        f1, f2 = state
        gain = self._gain
        f1 = f1 + gain * (u1 - f1)
        f2 = f2 + gain * (u2 - f2)
        t1, t2 = self.tau_max
        return t1 * f1, t2 * f2, (f1, f2)

    def batch_torques(self, q, tau):
        """Array form of torques: step(filtered, u) advances the (2, N)
        array of state rows by the same update, in place, for the (2, N)
        command block u, and writes tau = tau_max * filtered into the
        caller's (2, N) torque block tau, each on both joints' rows at
        once, with the gain a 0-d array (_arrays) and the ceilings tiled
        (_tile). The kernel reads no angle or velocity of the caller's
        block q."""
        (gain,) = _arrays(self._gain)
        ceiling = _tile(self.tau_max, tau.shape[1])
        d = np.empty(tau.shape)

        def step(filtered, u):
            np.subtract(u, filtered, d)     # filtered + gain*(u - filtered)
            np.multiply(gain, d, d)
            np.add(filtered, d, filtered)
            np.multiply(ceiling, filtered, tau)

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
