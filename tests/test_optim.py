"""Tests for the CMA-ES optimizer, local pattern search, and control encoding."""

import math

import numpy as np
import pytest

from myoarm.control import ControlParameterization, rollout
from myoarm.objectives import SmoothReaching
from myoarm.optimizers import CmaConfig, CmaEs, cma_es, local_refine

from oracles import cma_es_reference


def sphere(x):
    return float(np.sum(x * x))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class Silent:
    """A controller that applies no torque, whatever control row it gets."""

    state0 = ()

    def torques(self, row, th1, th2, w1, w2, u):
        return 0.0, 0.0, row


def applied(theta, par, duration=0.9):
    """The control rows a rollout of (theta, par) applies, one per step."""
    task = SmoothReaching(duration=duration)
    return rollout(task, Silent(), theta, par).controls


def rows(f):
    """A scalar objective in cma_es's contract: one cost per population row."""
    return lambda x: np.array([f(xi) for xi in x])


def logged(objective, log):
    """objective, appending each generation's (population, costs) to log."""
    def fn(x):
        f = objective(x)
        log.append((x.copy(), f))
        return f
    return fn


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
        # 60 physics steps per 0.3 s segment; the rollout lasts the plan's
        # 180 steps, though the task runs 1 s
        par = ControlParameterization(horizon=0.9, resolution=0.3,
                                      n_actuators=2, lo=-1.0, hi=1.0)
        theta = np.arange(6, dtype=float) / 10.0
        u = applied(theta, par, duration=1.0)
        assert u.shape == (180, 2)
        assert np.array_equal(u[62], theta[2:4])
        assert np.array_equal(u[0], theta[0:2])
        assert np.array_equal(u[59], theta[0:2])
        assert np.array_equal(u[60], theta[2:4])
        assert np.array_equal(u[179], theta[4:6])

    def test_constant_vector_constant_signal(self):
        par = ControlParameterization(horizon=0.9, resolution=0.15,
                                      n_actuators=3, lo=0.0, hi=1.0)
        theta = np.tile([0.2, 0.7, 0.5], par.n_segments)
        u = applied(theta, par)
        assert u.shape == (180, 3)
        for k in range(180):
            assert np.array_equal(u[k], [0.2, 0.7, 0.5])

    def test_indicator_recovery(self):
        # every physics step inside a segment's support recovers that
        # segment of the decision vector exactly
        par = ControlParameterization(horizon=0.9, resolution=0.3,
                                      n_actuators=2, lo=-1.0, hi=1.0)
        rng = np.random.default_rng(2)
        theta = rng.uniform(-1.0, 1.0, size=par.dim)
        u = applied(theta, par)
        for k in range(par.n_segments):
            for step in range(60 * k, 60 * (k + 1)):
                assert np.array_equal(u[step], theta[2 * k:2 * k + 2])

    def test_bounds_always_enforced(self):
        par = ControlParameterization(horizon=0.6, resolution=0.2,
                                      n_actuators=2, lo=0.0, hi=1.0)
        theta = np.array([-50.0, 2.0, 0.5, 1e9, -1e-9, 0.99])
        u = applied(theta, par, duration=0.6)
        assert u.shape == (120, 2)
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        assert u[0].tolist() == [0.0, 1.0] and u[40].tolist() == [0.5, 1.0]
        assert u[119].tolist() == [0.0, 0.99]

    def test_length_mismatch_rejected(self):
        par = ControlParameterization(horizon=0.9, resolution=0.3,
                                      n_actuators=2, lo=-1.0, hi=1.0)
        with pytest.raises(ValueError):
            applied(np.zeros(5), par)

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
        # a NaN step size used to fail only in the first generation, as a
        # non-finite decision vector
        for sigma0 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma0.*finite"):
                CmaConfig(sigma0=sigma0)

    def test_generations_positive(self):
        with pytest.raises(ValueError):
            CmaConfig(generations=0)

    @pytest.mark.parametrize("field, value", [
        ("population", 36.7), ("population", True), ("population", math.nan),
        ("population", "36"), ("generations", 2.5), ("generations", True),
        ("generations", math.inf)])
    def test_budgets_are_whole_numbers(self, field, value):
        # population 36.7 used to run 36 candidates, and generations 2.5
        # two generations
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            CmaConfig(**{field: value})

    def test_a_whole_float_or_numpy_integer_is_a_budget(self):
        assert CmaEs(np.zeros(2), CmaConfig(population=np.int64(6),
                                            generations=2.0)).ask().shape == (6, 2)


class TestCmaEs:
    def test_sphere_all_seeds(self):
        for seed in range(5):
            cfg = CmaConfig(population=36, generations=100, sigma0=0.3,
                            seed=seed)
            _, best_f, _ = cma_es(rows(sphere), np.zeros(10), cfg)
            assert best_f < 1e-10

    def test_translated_sphere_recovers_optimum(self):
        opt = np.array([0.3, -0.2, 0.1, 0.05, -0.4])

        def f(x):
            return float(np.sum((x - opt) ** 2))

        cfg = CmaConfig(population=36, generations=150, sigma0=0.3, seed=1)
        best_x, _, _ = cma_es(rows(f), np.zeros(5), cfg)
        assert np.abs(best_x - opt).max() < 1e-4

    def test_rosenbrock_most_seeds(self):
        hits = 0
        for seed in range(5):
            cfg = CmaConfig(population=36, generations=300, sigma0=0.3,
                            seed=seed)
            _, best_f, _ = cma_es(rows(rosenbrock), np.zeros(5), cfg)
            hits += best_f < 1e-6
        assert hits >= 4

    def test_seeded_reproducibility(self):
        cfg = CmaConfig(population=12, generations=30, sigma0=0.5, seed=42)
        log_a, log_b = [], []
        xa, fa, ta = cma_es(logged(rows(sphere), log_a), np.zeros(6), cfg)
        xb, fb, tb = cma_es(logged(rows(sphere), log_b), np.zeros(6), cfg)
        assert np.array_equal(xa, xb)
        assert fa == fb
        assert ta.best_so_far == tb.best_so_far
        # every generation samples the same candidates
        assert len(log_a) == len(log_b) == 30
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(log_a, log_b))

    def test_best_so_far_monotone(self):
        cfg = CmaConfig(population=8, generations=60, sigma0=1.0, seed=7)
        log = []
        _, _, trace = cma_es(logged(rows(rosenbrock), log), np.zeros(4), cfg)
        bsf = np.asarray(trace.best_so_far)
        assert np.all(np.diff(bsf) <= 0.0)
        # the running best is the running minimum of the generation bests
        gen_best = [float(f.min()) for _, f in log]
        assert np.array_equal(bsf, np.minimum.accumulate(gen_best))

    def test_exact_evaluation_count(self):
        calls = [0]
        evaluated = [0]

        def counted(x):
            calls[0] += 1
            evaluated[0] += len(x)
            return rows(sphere)(x)

        cfg = CmaConfig(population=10, generations=25, sigma0=0.3, seed=0)
        _, _, trace = cma_es(counted, np.zeros(3), cfg)
        assert calls[0] == 25               # one call per generation
        assert evaluated[0] == 250
        assert trace.total_evals == 250
        assert trace.evals == list(range(10, 251, 10))

    def test_nan_treated_as_worst(self):
        def holey(x):
            if x[0] < -0.5:
                return float("nan")
            return sphere(x)

        cfg = CmaConfig(population=16, generations=80, sigma0=0.4, seed=3)
        log = []
        best_x, best_f, trace = cma_es(logged(rows(holey), log), np.zeros(4), cfg)
        assert math.isfinite(best_f)
        assert best_f < 1e-6
        assert trace.total_evals == 16 * 80
        # the hole was sampled at least once
        assert any(np.isnan(f).any() for _, f in log)

    def test_offset_objective_identical_iterates(self):
        cfg = CmaConfig(population=14, generations=40, sigma0=0.6, seed=5)
        log_a, log_b = [], []
        xa, fa, ta = cma_es(logged(rows(sphere), log_a), np.zeros(5), cfg)
        xb, fb, tb = cma_es(logged(rows(lambda x: sphere(x) + 10.0), log_b),
                            np.zeros(5), cfg)
        assert np.array_equal(xa, xb)
        assert abs((fb - fa) - 10.0) < 1e-9
        assert len(log_a) == len(log_b) == 40
        for (_, ga), (_, gb) in zip(log_a, log_b):
            assert abs((gb.min() - ga.min()) - 10.0) < 1e-9

    def test_x0_respected_and_checked(self):
        cfg = CmaConfig(population=8, generations=5, sigma0=0.1, seed=0)
        log = []
        _, best_f, _ = cma_es(logged(rows(sphere), log), np.full(3, 2.0), cfg)
        assert best_f < 12.5                 # started near f=12, improved
        assert log[0][0].shape == (8, 3)     # x0's size is the dimension
        with pytest.raises(ValueError):
            cma_es(rows(sphere), np.zeros((1, 3)), cfg)

    def test_dim_validated(self):
        # the dimension is x0's size, and an empty x0 has none
        with pytest.raises(ValueError):
            cma_es(rows(sphere), np.zeros(0), CmaConfig(population=8,
                                                        generations=5))

    @pytest.mark.parametrize("x0", [
        np.zeros(0), [], np.zeros((2, 3)), np.zeros((3, 1)), np.float64(1.0),
        np.array([0.5, np.nan, 0.5]), np.array([np.inf, 0.0]),
        np.array([0.0, -np.inf])],
        ids=["empty", "empty-list", "2-D", "column", "scalar", "nan", "inf",
             "-inf"])
    def test_bad_start_point_rejected_before_any_evaluation(self, x0):
        calls = []

        def objective(x):
            calls.append(x)
            return rows(sphere)(x)

        before = np.array(x0, dtype=float, copy=True)
        with pytest.raises(ValueError, match="x0"):
            cma_es(objective, x0, CmaConfig(population=8, generations=2))
        assert calls == []
        np.testing.assert_array_equal(np.asarray(x0, dtype=float), before)

    def test_start_point_left_unmodified(self):
        x0 = np.full(4, 0.7)
        cma_es(rows(rosenbrock), x0, CmaConfig(population=8, generations=10,
                                               sigma0=0.5, seed=2))
        assert np.array_equal(x0, np.full(4, 0.7))

    def test_objective_must_return_one_cost_per_row(self):
        cfg = CmaConfig(population=8, generations=2, seed=0)
        with pytest.raises(ValueError, match="shape"):
            cma_es(lambda x: np.sum(x * x), np.zeros(3), cfg)
        with pytest.raises(ValueError, match="shape"):
            cma_es(lambda x: np.sum(x * x, axis=1)[:-1], np.zeros(3), cfg)


def ellipsoid(x):
    """An axis-scaled quadratic around 0.3, conditioned 1e3: one cost per
    row, and a covariance that has to adapt."""
    scales = 10.0 ** np.linspace(0.0, 3.0, x.shape[1])
    return ((x - 0.3) ** 2 * scales).sum(axis=1)


def holed(x):
    """ellipsoid, NaN on every row whose first coordinate is negative."""
    return np.where(x[:, 0] < 0.0, np.nan, ellipsoid(x))


def slope(x):
    """A linear cost: selection pushes the mean one way every generation,
    so the evolution path grows until hsig turns false."""
    return x.sum(axis=1)


def hsig_flags(norms, n, lam):
    """The hsig test of each generation whose path norm ||ps|| is in norms,
    with the constants cma_es derives from n and the population lam."""
    mu = lam // 2
    w = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    w /= w.sum()
    mueff = 1.0 / np.sum(w ** 2)
    cs = (mueff + 2.0) / (n + mueff + 5.0)
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))
    return [norm / math.sqrt(1.0 - (1.0 - cs) ** (2 * (g + 1))) / chi_n
            < 1.4 + 2.0 / (n + 1.0) for g, norm in enumerate(norms)]


class TestCmaEsAgainstItsReference:
    """cma_es skips generation 0's eigendecomposition (of the identity)
    and the update after the last generation, and updates the covariance
    in two buffers; tests/oracles.py keeps the loop that does none of
    that. The two agree bit for bit, and the trimmed loop decomposes the
    covariance once per generation after the first."""

    def assert_same_run(self, monkeypatch, objective, n, cfg):
        eigh = np.linalg.eigh
        calls = []

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        got_x, got_f, got = cma_es(objective, np.zeros(n), cfg)
        assert calls == [(n, n)] * (cfg.generations - 1)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        ref_x, ref_f, ref = cma_es_reference(objective, np.zeros(n), cfg)
        assert got_x.tolist() == ref_x.tolist()
        assert got_f == ref_f
        assert got.best_so_far == ref.best_so_far
        assert got.evals == ref.evals

    @pytest.mark.parametrize("generations", [1, 2, 5])
    @pytest.mark.parametrize("population", [4, 36])
    @pytest.mark.parametrize("n", [1, 2, 12, 72, 360])
    def test_bit_for_bit(self, monkeypatch, n, population, generations):
        cfg = CmaConfig(population=population, generations=generations,
                        sigma0=0.3, seed=n + population)
        self.assert_same_run(monkeypatch, ellipsoid, n, cfg)

    @pytest.mark.parametrize("n", [2, 12])
    def test_nan_rows(self, monkeypatch, n):
        cfg = CmaConfig(population=8, generations=6, sigma0=0.5, seed=1)
        log = []
        self.assert_same_run(monkeypatch, logged(holed, log), n, cfg)
        assert any(np.isnan(f).any() for _, f in log)

    def test_hsig_false(self, monkeypatch):
        # the reference's path norms, one per generation, show hsig false
        # in some generations and true in others: both arms of the update
        n, cfg = 4, CmaConfig(population=8, generations=8, sigma0=0.2, seed=0)
        norm = np.linalg.norm
        norms = []

        def recorded(v):
            norms.append(float(norm(v)))
            return norm(v)

        monkeypatch.setattr(np.linalg, "norm", recorded)
        cma_es_reference(slope, np.zeros(n), cfg)
        monkeypatch.setattr(np.linalg, "norm", norm)
        flags = hsig_flags(norms, n, cfg.population)
        assert len(flags) == cfg.generations
        assert not all(flags) and any(flags)
        self.assert_same_run(monkeypatch, slope, n, cfg)


class TestAskTell:
    """The CmaEs object that cma_es loops over, driven by hand the way the
    lockstep driver drives it: runs asked and told interleaved, each
    against cma_es_reference bit for bit. The hsig-false arm of the pc
    update and non-finite costs are forced by synthetic
    objectives, since no golden run reaches either."""

    @staticmethod
    def assert_as_reference(es, objective, n, cfg):
        ref_x, ref_f, ref = cma_es_reference(objective, np.zeros(n), cfg)
        assert es.best_x.tolist() == ref_x.tolist()
        assert es.best_f == ref_f
        assert es.trace.best_so_far == ref.best_so_far
        assert es.trace.evals == ref.evals

    def test_interleaved_runs_take_their_reference_paths(self, monkeypatch):
        # run a meets hsig false (a linear cost grows its path), run b
        # meets NaN costs; a is asked first and told last every generation
        n, cfg_a = 4, CmaConfig(population=8, generations=8, sigma0=0.2, seed=0)
        cfg_b = CmaConfig(population=8, generations=6, sigma0=0.5, seed=1)
        norm, norms = np.linalg.norm, []

        def recorded(v):
            norms.append(float(norm(v)))
            return norm(v)

        monkeypatch.setattr(np.linalg, "norm", recorded)
        a, b = CmaEs(np.zeros(n), cfg_a), CmaEs(np.zeros(n), cfg_b)
        log = []
        while not a.done:
            xa = a.ask()
            if not b.done:
                xb = b.ask()
                fb = holed(xb)
                log.append(fb)
                norms_before = len(norms)
                b.tell(fb)
                del norms[norms_before:]      # keep run a's norms only
            a.tell(slope(xa))
        monkeypatch.setattr(np.linalg, "norm", norm)
        assert b.done
        flags = hsig_flags(norms, n, cfg_a.population)
        assert len(flags) == cfg_a.generations - 1
        assert not all(flags) and any(flags)
        assert any(np.isnan(f).any() for f in log)
        self.assert_as_reference(a, slope, n, cfg_a)
        self.assert_as_reference(b, holed, n, cfg_b)

    def test_every_non_finite_cost_ranks_last_as_inf(self):
        # generation 0 is all non-finite, so inf is its best cost and its
        # first row the incumbent; later generations have one finite row,
        # the generation's best, however large
        def one_finite(gens):
            def objective(x):
                f = np.full(x.shape[0], np.nan)
                f[1::3] = np.inf
                f[2] = -np.inf
                if gens:
                    f[-1] = 1e40 + sphere(x[-1])
                gens.append(x)
                return f
            return objective

        n, cfg = 3, CmaConfig(population=6, generations=4, sigma0=0.3, seed=2)
        gens = []
        es, objective = CmaEs(np.zeros(n), cfg), one_finite(gens)
        es.tell(objective(es.ask()))
        assert es.best_f == math.inf
        assert es.best_x.tolist() == gens[0][0].tolist()
        while not es.done:
            es.tell(objective(es.ask()))
            assert es.best_f == 1e40 + sphere(es.best_x)
        assert es.trace.best_so_far[0] == math.inf
        assert math.isfinite(es.trace.best_so_far[-1])
        self.assert_as_reference(es, one_finite([]), n, cfg)

    def test_a_run_in_which_every_candidate_fails_returns_one_it_evaluated(self):
        # the start point was never evaluated, so it is not a result
        seen = []

        def failing(x):
            seen.append(x.copy())
            return np.full(x.shape[0], np.nan)

        cfg = CmaConfig(population=4, generations=3, sigma0=0.2, seed=5)
        best_x, best_f, trace = cma_es(failing, np.zeros(2), cfg)
        assert best_f == math.inf and trace.best_so_far == [math.inf] * 3
        assert best_x.tolist() == seen[0][0].tolist()
        assert best_x.tolist() != [0.0, 0.0]
        ref_x, ref_f, _ = cma_es_reference(failing, np.zeros(2), cfg)
        assert (ref_x.tolist(), ref_f) == (best_x.tolist(), best_f)

    def test_ask_and_tell_take_turns(self):
        es = CmaEs(np.zeros(2), CmaConfig(population=4, generations=1))
        with pytest.raises(RuntimeError, match="ask"):
            es.tell(np.zeros(4))
        x = es.ask()
        with pytest.raises(ValueError, match="shape"):
            es.tell(np.zeros(3))
        es.tell(rows(sphere)(x))
        assert es.done and es.trace.evals == [4]
        with pytest.raises(RuntimeError, match="last generation"):
            es.ask()


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
            local_refine(sphere, np.zeros(2), 0.1, 0, lo=-1.0, hi=1.0)

    @pytest.mark.parametrize("budget", [2.5, True, math.nan, "3"])
    def test_a_budget_that_is_not_a_whole_number_is_refused(self, budget):
        # budget 2.5 used to spend three evaluations, above "at most budget"
        def never(x):
            raise AssertionError("evaluated a point of a refused search")

        with pytest.raises(ValueError, match="budget must be a whole number"):
            local_refine(never, np.zeros(2), 0.1, budget, lo=-1.0, hi=1.0)

    @pytest.mark.parametrize("x0, radius0, lo, hi, match", [
        (np.array([0.0, math.nan]), 0.1, -1.0, 1.0, "x0"),
        (np.array([math.inf, 0.0]), 0.1, -1.0, 1.0, "x0"),
        (np.array([]), 0.1, -1.0, 1.0, "x0"),
        (np.zeros((2, 2)), 0.1, -1.0, 1.0, "x0"),
        (np.zeros(2), math.nan, -1.0, 1.0, "radius0"),
        (np.zeros(2), 0.0, -1.0, 1.0, "radius0"),
        (np.zeros(2), -0.1, -1.0, 1.0, "radius0"),
        (np.zeros(2), math.inf, -1.0, 1.0, "radius0"),
        (np.zeros(2), 0.1, 1.0, -1.0, "box"),
        (np.zeros(2), 0.1, -math.inf, 1.0, "box"),
        (np.zeros(2), 0.1, -1.0, math.nan, "box"),
    ])
    def test_bad_input_is_refused_before_the_first_evaluation(
            self, x0, radius0, lo, hi, match):
        # a NaN start or radius once spent the whole budget on NaN trials,
        # and lo > hi returned a point outside the box after one evaluation
        def never(x):
            raise AssertionError("evaluated a point of a refused search")

        with pytest.raises(ValueError, match=match):
            local_refine(never, x0, radius0, 10, lo=lo, hi=hi)

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
