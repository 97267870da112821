"""Config parsing: flat dotted key-value text and the experiment schema."""

import pytest

from myoarm.config import (EXPERIMENT_KINDS, ExperimentConfig, load_config,
                           parse_config_text, section)


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
        assert out["c"] is True
        assert out["d"] is False
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
        "mpc.warm_generations = 0",
        "mpc.refine_budget = 0",
    ])
    def test_bad_config_rejected(self, line):
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping(parse_config_text(line))

    def test_labels_and_overrides_accepted(self):
        cfg = ExperimentConfig.from_mapping(parse_config_text(
            "experiment.morphologies = muscle-nofl-nofv, lowpass-fast\n"
            "experiment.ablations = none, actdyn\n"
            "arm.l1 = 0.35\nweights.lam1 = 0.2\n"))
        assert cfg.morphologies == ["muscle-nofl-nofv", "lowpass-fast"]
        assert cfg.ablations == ["none", "actdyn"]
        assert cfg.arm_overrides == {"l1": 0.35}
        assert cfg.weight_overrides == {"lam1": 0.2}

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
