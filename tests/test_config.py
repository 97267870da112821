"""Config parsing: flat dotted key-value text and the experiment schema."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from myoarm.actuators import MORPHOLOGIES
from myoarm.config import (_KEYS, _OVERRIDES, EXPERIMENT_KINDS,
                           ExperimentConfig, load_config, parse_config_text,
                           section)
from myoarm.objectives import TASKS, make_task


class TestParseText:
    def test_typed_scalars(self):
        text = """
        a = 3
        b = 0.25
        c = true
        d = off
        e = smooth-reach
        """
        out = parse_config_text(text)
        assert out["a"] == 3 and isinstance(out["a"], int)
        assert out["b"] == 0.25
        # no key takes a truth value, so a word stays the text it is
        assert out["c"] == "true"
        assert out["d"] == "off"
        assert out["e"] == "smooth-reach"

    def test_comments_and_blanks_ignored(self):
        out = parse_config_text("# header\n\nx = 1  # trailing\n   \n")
        assert out == {"x": 1}

    def test_comma_lists(self):
        out = parse_config_text("grid.c = 0.05, 0.15, 0.3\nnames = a, b\n")
        assert out["grid.c"] == [0.05, 0.15, 0.3]
        assert out["names"] == ["a", "b"]

    def test_keys_lowercased(self):
        out = parse_config_text("Experiment.Kind = ablation\n")
        assert out == {"experiment.kind": "ablation"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("just some words\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("= 3\n")

    def test_section_strips_prefix(self):
        out = parse_config_text("arm.l1 = 0.4\narm.m2 = 2.0\nmpc.tpred = 0.3\n")
        assert section(out, "arm") == {"l1": 0.4, "m2": 2.0}
        assert section(out, "mpc") == {"tpred": 0.3}

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("experiment.kind = sigma_sweep\noptimizer.sigma = 0.1\n")
        assert load_config(str(path)) == {"experiment.kind": "sigma_sweep",
                                          "optimizer.sigma": 0.1}


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.kind == "data_efficiency"
        assert cfg.task == "smooth-reach"
        assert cfg.morphologies == ["muscle", "torque"]
        assert cfg.c_grid == [0.05, 0.15, 0.3]
        assert cfg.sigma_grid == [0.05, 0.1, 0.2, 0.4]
        assert cfg.seeds == [0, 1, 2, 3, 4]
        assert cfg.population == 36

    def test_all_kinds_construct(self):
        for kind in EXPERIMENT_KINDS:
            assert ExperimentConfig(kind=kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="grand_tour")

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(c_grid=[])
        with pytest.raises(ValueError):
            ExperimentConfig(sigma_grid=[0.1, -0.2])
        with pytest.raises(ValueError):
            ExperimentConfig(masses=[0.0])

    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(population=2)
        with pytest.raises(ValueError):
            ExperimentConfig(generations=0)

    def test_seed_count_expands_to_range(self):
        cfg = ExperimentConfig.from_mapping({"experiment.seeds": 3})
        assert cfg.seeds == [0, 1, 2]

    def test_seed_list_taken_verbatim(self):
        cfg = ExperimentConfig.from_mapping({"experiment.seeds": [4, 7]})
        assert cfg.seeds == [4, 7]

    def test_from_mapping_sections(self):
        mapping = parse_config_text("""
        experiment.kind = sigma_sweep
        experiment.morphologies = muscle, torque, pd
        experiment.seeds = 2
        experiment.out_dir = /tmp/results
        grid.sigma = 0.1, 0.4
        optimizer.generations = 10
        optimizer.c = 0.15
        mpc.tpred = 0.5
        arm.m2 = 2.5
        weights.jerk_gain = 2.0
        """)
        cfg = ExperimentConfig.from_mapping(mapping)
        assert cfg.kind == "sigma_sweep"
        assert cfg.morphologies == ["muscle", "torque", "pd"]
        assert cfg.seeds == [0, 1]
        assert cfg.out_dir == "/tmp/results"
        assert cfg.sigma_grid == [0.1, 0.4]
        assert cfg.generations == 10
        assert cfg.c == 0.15
        assert cfg.tpred == 0.5
        assert cfg.arm_overrides == {"m2": 2.5}
        assert cfg.weight_overrides == {"jerk_gain": 2.0}

    def test_ball_serve_defaults_to_its_task(self):
        cfg = ExperimentConfig.from_mapping({"experiment.kind": "ball_serve"})
        assert cfg.task == "ball-serve"

    def test_explicit_task_wins_over_kind_default(self):
        cfg = ExperimentConfig.from_mapping({"experiment.kind": "ball_serve",
                                             "experiment.task": "smooth-reach"})
        assert cfg.task == "smooth-reach"

    def test_single_morphology_string(self):
        cfg = ExperimentConfig.from_mapping({"experiment.morphologies": "muscle"})
        assert cfg.morphologies == ["muscle"]

    @pytest.mark.parametrize("line", [
        "optimizer.generaitons = 5",        # misspelt key
        "experiment.morphologies = musle",
        "experiment.morphologies = torque-nofl",   # ablations are muscle-only
        "weights.bogus = 1",
        "weights.hop_lam1 = 1e-4",          # the hopping reward is gone
        "arm.bogus = 1",
        "experiment.ablations = xyz",
        "experiment.task = juggling",
        "optimizer.population = 4, 5",      # a list where a number belongs
        "arm = 0.3",
        # values, checked before any run starts
        "arm.l1 = abc",
        "arm.l1 = nan",
        "weights.jerk_gain = high",
        "optimizer.population = 4.7",       # not silently truncated to 4
        "mpc.resolution = 0.007",           # not a multiple of the 5 ms step
        # an OC resolution the run refuses: off the 5 ms step, or longer
        # than smooth-reach's 0.9 s horizon (both used to pass and fail in
        # the sweep, after the output directory was made)
        "grid.c = 0.05, 0.007",
        "grid.c = 2.0",
        "experiment.kind = sigma_sweep\noptimizer.c = 0.0125",
        "mpc.warm_generations = 0",
        "mpc.refine_budget = 0",
        # a prediction horizon shorter than one control segment
        "experiment.kind = tpred_sweep\ngrid.tpred = 0.004",
        "experiment.kind = robustness_weights\nmpc.tpred = 0.005",
        # a prediction horizon off the 5 ms physics step (the window used
        # to be rounded to 60 steps while its plan had 31 segments)
        "experiment.kind = robustness_weights\nmpc.tpred = 0.3023",
        "experiment.kind = tpred_sweep\ngrid.tpred = 0.3, 0.0123",
        # an MPC resolution that does not divide the task's horizon: 0.04 s
        # used to stop 0.02 s short of smooth-reach's 0.9 s, 0.035 s to
        # run past it, and 0.015 s does not divide fast-reach's 2 s
        "experiment.kind = tpred_sweep\nmpc.resolution = 0.04",
        "experiment.kind = robustness_weights\nmpc.resolution = 0.035",
        "experiment.kind = robustness_weights\nexperiment.task = fast-reach\n"
        "mpc.resolution = 0.015",
        # a non-finite number: grid.masses = inf used to run and write a
        # diverged robustness row, grid.sigma = nan to fail inside the
        # first point, and an infinite horizon to raise OverflowError
        "grid.sigma = nan",
        "grid.c = inf",
        "experiment.kind = robustness_weights\ngrid.masses = inf",
        "experiment.kind = tpred_sweep\ngrid.tpred = 0.3, inf",
        "optimizer.sigma = nan",
        "optimizer.sigma = inf",
        "mpc.tpred = inf",
    ])
    def test_bad_config_rejected(self, line):
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping(parse_config_text(line))

    @pytest.mark.parametrize("text", ["experiment.seeds = -1, 2",
                                      "experiment.seeds = -1,",
                                      "experiment.seeds = 2.5"])
    def test_a_seed_below_zero_is_refused_by_key(self, text):
        # seeds -1, 2 used to pass the checks and fail in the first run,
        # after the output directory was made, with NumPy's message
        with pytest.raises(ValueError, match="experiment.seeds"):
            ExperimentConfig.from_mapping(parse_config_text(text))
        with pytest.raises(ValueError, match="experiment.seeds"):
            ExperimentConfig(seeds=[3, -1])

    @pytest.mark.parametrize("key, value", [
        ("grid.c", "0.3, 0.05, 0.30"),
        ("grid.sigma", "0.1, 0.1"),
        ("grid.tpred", "0.2, 0.3, 0.2"),
        ("grid.masses", "2.0, 2"),
        ("experiment.seeds", "0, 1, 0"),
        ("experiment.morphologies", "muscle, torque, muscle"),
        ("experiment.ablations", "none, fl, fl")])
    def test_a_repeated_sweep_value_is_refused(self, key, value):
        # each copy used to run and be written: grid.c = 0.3, 0.3 wrote one
        # trace twice and aggregate.csv counted one seed as n = 2, std 0.0
        with pytest.raises(ValueError, match=f"{key} repeats"):
            ExperimentConfig.from_mapping(parse_config_text(f"{key} = {value}\n"))

    @pytest.mark.parametrize("key, value", [
        ("weights.w_th", "-2.0, 2.0"),
        ("weights.s_th", "0.0, 2.45"),
        ("weights.s_dth", "-1"),
        ("weights.w_dth", "1, 2, 3"),
        ("arm.l1", "-0.3")])
    def test_a_refused_override_names_its_key(self, key, value):
        # w_th = -2.0, 2.0 used to build a task whose stages could be
        # negative, and s_th = 0.0, 2.45 one that divided by zero
        with pytest.raises(ValueError, match=f"config key {key} = "):
            ExperimentConfig.from_mapping(parse_config_text(f"{key} = {value}\n"))

    @pytest.mark.parametrize("kind, key, word", [
        ("data_efficiency", "optimizer.sigma", "yes"),
        ("data_efficiency", "grid.c", "on"),
        ("sigma_sweep", "grid.sigma", "yes")])
    def test_a_word_is_not_a_number(self, kind, key, word):
        # yes/on used to be read as True, so grid.sigma = yes ran sigma 1.0
        text = f"experiment.kind = {kind}\n{key} = {word}\n"
        with pytest.raises(ValueError, match=f"'{key}'.*'{word}'"):
            ExperimentConfig.from_mapping(parse_config_text(text))

    @pytest.mark.parametrize("key, value", [
        ("experiment.out_dir", "runs,v2"),    # was the directory "['runs', 'v2']"
        ("experiment.task", "smooth-reach,"),
        ("experiment.kind", "data_efficiency, sigma_sweep")])
    def test_single_valued_text_key_rejects_a_list(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}'.*one value"):
            ExperimentConfig.from_mapping(parse_config_text(f"{key} = {value}\n"))

    def test_labels_and_overrides_accepted(self):
        cfg = ExperimentConfig.from_mapping(parse_config_text(
            "experiment.morphologies = muscle-nofl-nofv, lowpass-fast\n"
            "experiment.ablations = none, actdyn\n"
            "arm.l1 = 0.35\nweights.lam1 = 0.2\n"))
        assert cfg.morphologies == ["muscle-nofl-nofv", "lowpass-fast"]
        assert cfg.ablations == ["none", "actdyn"]
        assert cfg.arm_overrides == {"l1": 0.35}
        assert cfg.weight_overrides == {"lam1": 0.2}

    def test_horizon_of_one_segment_accepted(self):
        # the check reads the horizon each kind runs, and no other
        for text in ("experiment.kind = tpred_sweep\ngrid.tpred = 0.01, 0.3\n",
                     "experiment.kind = robustness_weights\nmpc.tpred = 0.01\n",
                     "experiment.kind = data_efficiency\nmpc.tpred = 0.005\n"):
            ExperimentConfig.from_mapping(parse_config_text(text))

    def test_resolution_checked_against_the_horizon_mpc_runs(self):
        # only the MPC kinds run mpc.resolution, each on its own task
        for text in ("experiment.kind = data_efficiency\nmpc.resolution = 0.04\n",
                     "experiment.kind = tpred_sweep\nexperiment.task = fast-reach\n"
                     "mpc.resolution = 0.04\n",
                     "experiment.kind = robustness_weights\nmpc.resolution = 0.015\n"):
            ExperimentConfig.from_mapping(parse_config_text(text))

    def test_integral_float_is_an_integer(self):
        cfg = ExperimentConfig.from_mapping(parse_config_text(
            "optimizer.population = 8.0\nweights.s_th = 2.0, 3.0\n"))
        assert cfg.population == 8 and isinstance(cfg.population, int)
        assert cfg.weight_overrides == {"s_th": [2.0, 3.0]}

    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("experiment.kind = ablation\n"
                        "experiment.ablations = none, fv\n"
                        "optimizer.generations = 5\n")
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.kind == "ablation"
        assert cfg.ablations == ["none", "fv"]
        assert cfg.generations == 5


# -- the config text round trip ----------------------------------------------

def render_value(value) -> str:
    """One value as config text; a one-element list keeps a trailing comma,
    so it reads back as a list (`experiment.seeds = 3,` is seed 3, not 0-2)."""
    if isinstance(value, list):
        return ", ".join(map(render_value, value)) + ("," if len(value) == 1 else "")
    return repr(value) if isinstance(value, float) else str(value)


def render(cfg: ExperimentConfig) -> str:
    lines = [f"{key} = {render_value(getattr(cfg, attr))}"
             for key, (attr, _) in _KEYS.items()]
    for prefix, (attr, _) in _OVERRIDES.items():
        lines += [f"{prefix}.{k} = {render_value(v)}"
                  for k, v in getattr(cfg, attr).items()]
    return "\n".join(lines) + "\n"


positive = st.floats(1e-3, 1e3)
labels = st.sampled_from(MORPHOLOGIES + ("muscle-nofl", "muscle-nofv-noactdyn"))


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(EXPERIMENT_KINDS))
    task = draw(st.sampled_from(TASKS))
    # an OC resolution is a whole number of 5 ms physics steps that fits
    # the task's horizon
    oc_resolutions = st.builds(lambda k: 0.005 * k, st.integers(
        1, round(make_task(task).duration / 0.005)))
    resolution = 0.005 * draw(st.integers(1, 4))
    # an MPC horizon is a whole number of physics steps too, 0.02 to 1 s
    horizons = st.builds(lambda k: 0.005 * k, st.integers(4, 200))
    if kind in ("tpred_sweep", "robustness_weights"):
        # the MPC kinds need a resolution that divides the task's horizon
        steps = make_task(task).duration / resolution
        assume(abs(steps - round(steps)) < 1e-6)
    arm = draw(st.dictionaries(
        st.sampled_from(["l1", "l2", "m1", "m2", "r1", "r2", "i1", "i2",
                         "m_hand", "m_extra", "g"]), positive, max_size=4))
    weights = draw(st.dictionaries(
        st.sampled_from(["jerk_gain", "lam1", "lam2", "eps", "s_th", "w_dth"]),
        positive, max_size=3))
    for pair in ("s_th", "w_dth"):
        if pair in weights:
            weights[pair] = [weights[pair], draw(positive)]
    return ExperimentConfig(
        kind=kind, task=task,
        # the swept lists hold no repeats, which the config refuses
        morphologies=draw(st.lists(labels, min_size=1, max_size=3,
                                   unique=True)),
        c_grid=draw(st.lists(oc_resolutions, min_size=1, max_size=3,
                             unique=True)),
        sigma_grid=draw(st.lists(positive, min_size=1, max_size=3,
                                 unique=True)),
        tpred_grid=draw(st.lists(horizons, min_size=1, max_size=3,
                                 unique=True)),
        masses=draw(st.lists(positive, min_size=1, max_size=3, unique=True)),
        ablations=draw(st.lists(st.sampled_from(["none", "fl", "fv", "actdyn"]),
                                min_size=1, max_size=4, unique=True)),
        seeds=draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4,
                            unique=True)),
        population=draw(st.integers(4, 500)),
        generations=draw(st.integers(1, 500)),
        sigma=draw(positive), c=draw(oc_resolutions),
        tpred=draw(horizons),
        mpc_resolution=resolution,
        warm_generations=draw(st.integers(1, 50)),
        refine_budget=draw(st.integers(1, 500)),
        # any name the format can hold: '#' starts a comment, ',' splits a
        # list and values are stripped, so those stay out
        out_dir=draw(st.text("abcXYZ019_-./", min_size=1, max_size=10)),
        arm_overrides=arm, weight_overrides=weights)


@settings(max_examples=150, deadline=None, database=None)
@given(cfg=configs())
def test_rendered_config_parses_back_equal(cfg):
    assert ExperimentConfig.from_mapping(parse_config_text(render(cfg))) == cfg


@pytest.mark.parametrize("out_dir", ["007", "yes", "1e3", "Off"])
def test_names_and_paths_stay_text(out_dir):
    text = f"experiment.out_dir = {out_dir}\nexperiment.morphologies = torque\n"
    cfg = ExperimentConfig.from_mapping(parse_config_text(text))
    assert cfg.out_dir == out_dir and cfg.morphologies == ["torque"]
