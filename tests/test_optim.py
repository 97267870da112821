"""Tests for the CMA-ES optimizer, local pattern search, and control encoding."""

import math

import numpy as np
import pytest

from myoarm.optimizers import (CmaConfig, ControlParameterization,
                               cma_es, decode_controls, local_refine)


def sphere(x):
    return float(np.sum(x * x))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class TestParameterization:
    def test_dimension_arithmetic(self):
        par = ControlParameterization(horizon=0.9, resolution=0.3,
                                      n_actuators=2, lo=-1.0, hi=1.0)
        assert par.n_segments == 3
        assert par.dim == 6

    def test_muscle_and_torque_dimensions(self):
        fine = dict(horizon=0.9, resolution=0.05, lo=0.0, hi=1.0)
        assert ControlParameterization(n_actuators=4, **fine).dim == 72
        assert ControlParameterization(n_actuators=2, **fine).dim == 36

    def test_partial_last_segment_rounds_up(self):
        par = ControlParameterization(horizon=1.0, resolution=0.3,
                                      n_actuators=1, lo=0.0, hi=1.0)
        assert par.n_segments == 4

    def test_segment_lookup(self):
        par = ControlParameterization(horizon=0.9, resolution=0.3,
                                      n_actuators=2, lo=-1.0, hi=1.0)
        theta = np.arange(6, dtype=float) / 10.0
        assert par.segment_index(0.31) == 1
        assert np.array_equal(decode_controls(theta, par, 0.31),
                              theta[2:4])
        assert par.segment_index(0.0) == 0
        assert par.segment_index(0.89999) == 2
        with pytest.raises(ValueError):
            par.segment_index(0.9)
        with pytest.raises(ValueError):
            par.segment_index(-0.001)

    def test_constant_vector_constant_signal(self):
        par = ControlParameterization(horizon=0.9, resolution=0.15,
                                      n_actuators=3, lo=0.0, hi=1.0)
        theta = np.tile([0.2, 0.7, 0.5], par.n_segments)
        for t in np.linspace(0.0, 0.899, 40):
            assert np.array_equal(decode_controls(theta, par, t),
                                  [0.2, 0.7, 0.5])

    def test_indicator_recovery(self):
        # sampling the decoded signal inside each segment's support recovers
        # that segment of the decision vector exactly
        par = ControlParameterization(horizon=0.9, resolution=0.3,
                                      n_actuators=2, lo=-1.0, hi=1.0)
        rng = np.random.default_rng(2)
        theta = rng.uniform(-1.0, 1.0, size=par.dim)
        for k in range(par.n_segments):
            for t in np.linspace(k * 0.3 + 1e-9, (k + 1) * 0.3 - 1e-9, 25):
                assert np.array_equal(decode_controls(theta, par, t),
                                      theta[2 * k:2 * k + 2])

    def test_bounds_always_enforced(self):
        par = ControlParameterization(horizon=0.6, resolution=0.2,
                                      n_actuators=2, lo=0.0, hi=1.0)
        theta = np.array([-50.0, 2.0, 0.5, 1e9, -1e-9, 0.99])
        for t in np.linspace(0.0, 0.599, 30):
            u = decode_controls(theta, par, t)
            assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_length_mismatch_rejected(self):
        par = ControlParameterization(horizon=0.9, resolution=0.3,
                                      n_actuators=2, lo=-1.0, hi=1.0)
        with pytest.raises(ValueError):
            decode_controls(np.zeros(5), par, 0.1)

    def test_validation(self):
        good = dict(n_actuators=2, lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            ControlParameterization(horizon=0.0, resolution=0.1, **good)
        with pytest.raises(ValueError):
            ControlParameterization(horizon=0.9, resolution=0.0, **good)
        with pytest.raises(ValueError):
            ControlParameterization(horizon=0.05, resolution=0.1, **good)
        with pytest.raises(ValueError):
            ControlParameterization(horizon=0.9, resolution=0.3,
                                    n_actuators=0, lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            ControlParameterization(horizon=0.9, resolution=0.3,
                                    n_actuators=2, lo=1.0, hi=0.0)

    def test_shift(self):
        par = ControlParameterization(horizon=0.9, resolution=0.3,
                                      n_actuators=2, lo=-9.0, hi=9.0)
        theta = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.array_equal(par.shift(theta), [3.0, 4.0, 5.0, 6.0, 5.0, 6.0])


class TestCmaConfigValidation:
    def test_population_floor(self):
        with pytest.raises(ValueError):
            CmaConfig(population=3)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            CmaConfig(sigma0=0.0)
        with pytest.raises(ValueError):
            CmaConfig(sigma0=-0.2)

    def test_generations_positive(self):
        with pytest.raises(ValueError):
            CmaConfig(generations=0)


class TestCmaEs:
    def test_sphere_all_seeds(self):
        for seed in range(5):
            cfg = CmaConfig(population=36, generations=100, sigma0=0.3,
                            seed=seed)
            _, best_f, _ = cma_es(sphere, 10, cfg)
            assert best_f < 1e-10

    def test_translated_sphere_recovers_optimum(self):
        opt = np.array([0.3, -0.2, 0.1, 0.05, -0.4])

        def f(x):
            return float(np.sum((x - opt) ** 2))

        cfg = CmaConfig(population=36, generations=150, sigma0=0.3, seed=1)
        best_x, _, _ = cma_es(f, 5, cfg)
        assert np.abs(best_x - opt).max() < 1e-4

    def test_rosenbrock_most_seeds(self):
        hits = 0
        for seed in range(5):
            cfg = CmaConfig(population=36, generations=300, sigma0=0.3,
                            seed=seed)
            _, best_f, _ = cma_es(rosenbrock, 5, cfg)
            hits += best_f < 1e-6
        assert hits >= 4

    def test_seeded_reproducibility(self):
        cfg = CmaConfig(population=12, generations=30, sigma0=0.5, seed=42)
        xa, fa, ta = cma_es(sphere, 6, cfg)
        xb, fb, tb = cma_es(sphere, 6, cfg)
        assert np.array_equal(xa, xb)
        assert fa == fb
        assert ta.best_so_far == tb.best_so_far
        assert ta.gen_best == tb.gen_best

    def test_best_so_far_monotone(self):
        cfg = CmaConfig(population=8, generations=60, sigma0=1.0, seed=7)
        _, _, trace = cma_es(rosenbrock, 4, cfg)
        bsf = np.asarray(trace.best_so_far)
        assert np.all(np.diff(bsf) <= 0.0)
        assert np.all(np.asarray(trace.gen_best) >= bsf)

    def test_exact_evaluation_count(self):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return sphere(x)

        cfg = CmaConfig(population=10, generations=25, sigma0=0.3, seed=0)
        _, _, trace = cma_es(counted, 3, cfg)
        assert calls[0] == 250
        assert trace.total_evals == 250
        assert trace.evals == list(range(10, 251, 10))

    def test_nan_treated_as_worst(self):
        def holey(x):
            if x[0] < -0.5:
                return float("nan")
            return sphere(x)

        cfg = CmaConfig(population=16, generations=80, sigma0=0.4, seed=3)
        best_x, best_f, trace = cma_es(holey, 4, cfg)
        assert math.isfinite(best_f)
        assert best_f < 1e-6
        assert trace.total_evals == 16 * 80
        assert any(trace.diverged)          # the hole was sampled at least once

    def test_offset_objective_identical_iterates(self):
        cfg = CmaConfig(population=14, generations=40, sigma0=0.6, seed=5)
        xa, fa, ta = cma_es(sphere, 5, cfg)
        xb, fb, tb = cma_es(lambda x: sphere(x) + 10.0, 5, cfg)
        assert np.array_equal(xa, xb)
        assert abs((fb - fa) - 10.0) < 1e-9
        for ga, gb in zip(ta.gen_best, tb.gen_best):
            assert abs((gb - ga) - 10.0) < 1e-9

    def test_x0_respected_and_checked(self):
        cfg = CmaConfig(population=8, generations=5, sigma0=0.1, seed=0,
                        x0=np.full(3, 2.0))
        _, best_f, _ = cma_es(sphere, 3, cfg)
        assert best_f < 12.5                 # started near f=12, improved
        bad = CmaConfig(population=8, generations=5, sigma0=0.1, seed=0,
                        x0=np.zeros(2))
        with pytest.raises(ValueError):
            cma_es(sphere, 3, bad)

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            cma_es(sphere, 0, CmaConfig(population=8, generations=5))


class TestLocalRefine:
    def test_convex_quadratic_converges(self):
        opt = np.array([0.31, -0.12])

        def f(x):
            return float(np.sum((x - opt) ** 2))

        x, fx, _ = local_refine(f, opt + 0.05, 0.1, 5000, lo=-1.0, hi=1.0,
                                radius_min=1e-9)
        assert np.linalg.norm(x - opt) < 1e-6
        assert fx < 1e-12

    def test_never_worse_fuzzed(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            a = rng.normal(size=(n, n))
            h = a.T @ a + 0.1 * np.eye(n)    # positive definite
            b = rng.normal(size=n)

            def f(x, _h=h, _b=b):
                return float(x @ _h @ x + _b @ x)

            x0 = rng.uniform(-1.0, 1.0, size=n)
            budget = int(rng.integers(1, 60))
            x, fx, _ = local_refine(f, x0, 0.2, budget, lo=-2.0, hi=2.0)
            assert fx <= f(x0) + 1e-15

    def test_budget_one_returns_start(self):
        x0 = np.array([0.4, -0.3])
        x, fx, evals = local_refine(sphere, x0, 0.1, 1, lo=-1.0, hi=1.0)
        assert np.array_equal(x, x0)
        assert fx == sphere(x0)
        assert evals == 1

    def test_pinned_coordinates_report_the_evaluations_made(self):
        # lo == hi leaves no probe to make, so the search stops after the
        # start point instead of spending the budget it was given
        calls = [0]

        def counted(x):
            calls[0] += 1
            return sphere(x)

        x, fx, evals = local_refine(counted, np.full(3, 0.5), 0.1, 10,
                                    lo=0.25, hi=0.25)
        assert evals == 1 and calls[0] == 1
        assert np.array_equal(x, np.full(3, 0.25))
        assert fx == sphere(x)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            local_refine(sphere, np.zeros(2), 0.1, 0)

    def test_exact_budget_spent(self):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return sphere(x)

        _, _, evals = local_refine(counted, np.full(3, 0.5), 0.1, 137,
                                   lo=0.0, hi=1.0)
        assert calls[0] == 137
        assert evals == 137

    def test_respects_bounds(self):
        def f(x):
            return -float(np.sum(x))        # pushes toward the upper bound

        x, _, _ = local_refine(f, np.full(4, 0.9), 0.3, 200, lo=0.0, hi=1.0)
        assert np.all(x <= 1.0)
        assert np.all(x >= 0.0)
        assert np.allclose(x, 1.0)

    def test_radius_floor(self):
        # with a floored radius the search keeps probing rather than stalling
        def f(x):
            return float(np.sum(x * x))

        x, fx, _ = local_refine(f, np.array([1e-3]), 1.0, 400, lo=-1.0, hi=1.0,
                                radius_min=1e-4)
        assert abs(x[0]) <= 1.01e-4
