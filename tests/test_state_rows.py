"""The state-row contract of the controller families.

A controller holds parameters only; its actuator state is a tuple of floats
(the state row) that torques(state, ...) takes in and gives back, and that
batch_torques advances as the columns of one array. These properties pin
that contract for every family, ablation flag set and activation model.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from myoarm.actuators import AblationFlags, MuscleController, make_controller
from myoarm.control import DT_SIM

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
@given(ctrl=controllers(), data=st.data(), q=joint,
       dt=finite(1e-3, 0.02))
def test_torques_returns_a_row_as_wide_as_state0(ctrl, data, q, dt):
    state = tuple(data.draw(finite(0.0, 1.0)) for _ in ctrl.state0)
    u = tuple(data.draw(finite(-2.0, 2.0)) for _ in range(ctrl.n_controls))
    tau1, tau2, nxt = ctrl.torques(state, *q, u, dt)
    assert isinstance(nxt, tuple) and len(nxt) == len(ctrl.state0)
    assert all(isinstance(v, float) for v in nxt)
    assert isinstance(tau1, float) and isinstance(tau2, float)


@PROPS
@given(flags=flag_sets, model=models,
       start=st.tuples(*[finite(0.0, 1.0)] * 4),
       steps=st.lists(st.tuples(joint, st.tuples(*[finite(-5.0, 5.0)] * 4)),
                      min_size=1, max_size=10),
       dt=finite(1e-3, 0.05))
def test_muscle_rows_stay_in_the_unit_box(flags, model, start, steps, dt):
    # activities and calcium states stay in [0, 1] whatever the excitation,
    # inside [0, 1] or clamped back from outside it
    ctrl = MuscleController(flags=flags, activation_model=model)
    for state in (ctrl.state0, start):
        for q, u in steps:
            _, _, state = ctrl.torques(state, *q, u, dt)
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
                         tuple(u[:, i].tolist()), DT_SIM)
            for i in range(cols)]
    state = rows.copy()
    tau1, tau2 = ctrl.batch_torques(DT_SIM)(state, *q, u)
    for i, (w1, w2, w_row) in enumerate(want):
        assert (float(tau1[i]), float(tau2[i])) == (w1, w2)
        assert tuple(state[:, i].tolist()) == w_row
