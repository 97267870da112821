"""The state-row contract of the controller families.

A controller holds parameters only; its actuator state is a tuple of floats
(the state row) that torques(state, ...) takes in and gives back, and that
batch_torques advances as the columns of one array, one DT_SIM step at a
time, for controls already in the box [lo, hi]. These properties pin that
contract for every family, ablation flag set and activation model.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myoarm.actuators import (AblationFlags, MuscleController, MuscleParams,
                              make_controller)

PROPS = settings(max_examples=100, deadline=None, database=None)
FAMILIES = ("torque", "pd", "lowpass-fast", "lowpass-slow")


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


flag_sets = st.builds(AblationFlags, disable_fl=st.booleans(),
                      disable_fv=st.booleans(),
                      disable_activation=st.booleans())
models = st.sampled_from(["first_order", "hatze"])


@st.composite
def controllers(draw):
    """Any family; the muscle pair with any flags and activation model."""
    family = draw(st.sampled_from(("muscle",) + FAMILIES))
    if family == "muscle":
        return MuscleController(flags=draw(flag_sets),
                                activation_model=draw(models))
    return make_controller(family)


joint = st.tuples(finite(-3.0, 3.0), finite(-3.0, 3.0), finite(-30.0, 30.0),
                  finite(-30.0, 30.0))


@PROPS
@given(ctrl=controllers(), data=st.data(), q=joint)
def test_torques_returns_a_row_as_wide_as_state0(ctrl, data, q):
    state = tuple(data.draw(finite(0.0, 1.0)) for _ in ctrl.state0)
    u = tuple(data.draw(finite(ctrl.lo, ctrl.hi))
              for _ in range(ctrl.n_controls))
    tau1, tau2, nxt = ctrl.torques(state, *q, u)
    assert isinstance(nxt, tuple) and len(nxt) == len(ctrl.state0)
    assert all(isinstance(v, float) for v in nxt)
    assert isinstance(tau1, float) and isinstance(tau2, float)


@PROPS
@given(flags=flag_sets, model=models,
       start=st.tuples(*[finite(0.0, 1.0)] * 4),
       steps=st.lists(st.tuples(joint, st.tuples(*[finite(0.0, 1.0)] * 4)),
                      min_size=1, max_size=10))
def test_muscle_rows_stay_in_the_unit_box(flags, model, start, steps):
    # activities and calcium states stay in [0, 1] for every excitation in
    # the box [0, 1], from rest and from any row in the box
    ctrl = MuscleController(flags=flags, activation_model=model)
    for state in (ctrl.state0, start):
        for q, u in steps:
            _, _, state = ctrl.torques(state, *q, u)
            assert all(0.0 <= v <= 1.0 for v in state)


@PROPS
@given(family=st.sampled_from(("muscle",) + FAMILIES), flags=flag_sets,
       cols=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_a_batch_step_equals_the_scalar_step_in_every_column(family, flags,
                                                            cols, seed):
    ctrl = (MuscleController(flags=flags) if family == "muscle"
            else make_controller(family))
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-0.5, 1.5, (len(ctrl.state0), cols))
    q = [rng.uniform(-3.0, 3.0, cols), rng.uniform(-3.0, 3.0, cols),
         rng.uniform(-30.0, 30.0, cols), rng.uniform(-30.0, 30.0, cols)]
    # the batch decode hands the step controls already clipped to the box
    u = rng.uniform(ctrl.lo, ctrl.hi, (ctrl.n_controls, cols))
    want = [ctrl.torques(tuple(rows[:, i].tolist()),
                         *(float(x[i]) for x in q),
                         tuple(u[:, i].tolist()))
            for i in range(cols)]
    state = rows.copy()
    tau1, tau2 = ctrl.batch_torques(cols)(state, *q, u)
    for i, (w1, w2, w_row) in enumerate(want):
        assert (float(tau1[i]), float(tau2[i])) == (w1, w2)
        assert tuple(state[:, i].tolist()) == w_row


EVERY_FLAG_SET = [AblationFlags(*bits)
                  for bits in itertools.product((False, True), repeat=3)]
# an elbow unlike the shoulder in every parameter the array kernel tiles,
# so a parameter in the wrong row shows
ELBOW = MuscleParams(phi_min=-0.4 * np.pi, phi_max=0.6 * np.pi, l_min=0.7,
                     l_max=1.1, f_max=250.0, tau_act=0.02, v_scale=0.6)


@pytest.mark.parametrize("ctrl", [
    *(MuscleController(elbow=ELBOW, flags=flags) for flags in EVERY_FLAG_SET),
    *(make_controller(family) for family in FAMILIES)],
    ids=[*(f"muscle-{i}" for i in range(len(EVERY_FLAG_SET))), *FAMILIES])
def test_batch_torques_for_a_population_is_torques_per_column(ctrl):
    # the step batch_torques(population) makes, run for several steps on
    # one population (its buffers are reused from step to step), gives each
    # column, bit for bit, the torques and the next state row that
    # `torques` gives that column's row; the angles and speeds reach every
    # branch of the muscle curves (fiber lengths past both ends of the
    # force-length support, velocities at and below -1 and lengthening)
    cols, steps = 36, 5
    rng = np.random.default_rng(17)
    rows = rng.uniform(0.0, 1.0, (len(ctrl.state0), cols))
    want = [tuple(rows[:, i].tolist()) for i in range(cols)]
    step = ctrl.batch_torques(cols)
    for _ in range(steps):
        q = [rng.uniform(-8.0, 8.0, cols), rng.uniform(-8.0, 8.0, cols),
             rng.uniform(-40.0, 40.0, cols), rng.uniform(-40.0, 40.0, cols)]
        u = rng.uniform(ctrl.lo, ctrl.hi, (ctrl.n_controls, cols))
        with np.errstate(all="ignore"):
            tau1, tau2 = step(rows, *q, u)
        for i in range(cols):
            w1, w2, want[i] = ctrl.torques(want[i], *(float(x[i]) for x in q),
                                           tuple(u[:, i].tolist()))
            assert (float(tau1[i]), float(tau2[i])) == (w1, w2)
            assert tuple(rows[:, i].tolist()) == want[i]
