"""Derivative-free optimizers and the piecewise-constant control encoding.

cma_es is a standard (mu/mu_w, lambda) evolution strategy with rank-one and
rank-mu covariance updates and cumulative step-size adaptation; local_refine
is a bounded coordinate pattern search that spends at most its evaluation
budget and reports what it spent.
"""

import math
from dataclasses import dataclass, field

import numpy as np

NAN_SENTINEL = 1e32   # replaces non-finite objective values inside the optimizer


@dataclass
class ControlParameterization:
    """Zero-order-hold control signal: n_actuators values per segment.

    The decision vector stacks segments in time order; segment k spans
    [k*resolution, (k+1)*resolution). Decoded values are clamped to [lo, hi].
    """

    horizon: float
    resolution: float
    n_actuators: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.horizon <= 0.0 or self.resolution <= 0.0:
            raise ValueError("horizon and resolution must be positive")
        if self.horizon < self.resolution - 1e-12:
            raise ValueError("horizon must cover at least one control segment")
        if self.n_actuators < 1:
            raise ValueError("need at least one actuator")
        if self.hi <= self.lo:
            raise ValueError("empty control bounds")

    @property
    def n_segments(self) -> int:
        return int(math.ceil(self.horizon / self.resolution - 1e-12))

    @property
    def dim(self) -> int:
        return self.n_actuators * self.n_segments

    def segment_index(self, t: float) -> int:
        if t < 0.0 or t >= self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon})")
        return min(int(t // self.resolution), self.n_segments - 1)

    def decode_segment(self, theta, k: int) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.dim:
            raise ValueError(f"decision vector has size {theta.size}, expected {self.dim}")
        seg = theta[k * self.n_actuators:(k + 1) * self.n_actuators]
        return np.clip(seg, self.lo, self.hi)

    def decode(self, theta, t: float) -> np.ndarray:
        return self.decode_segment(theta, self.segment_index(t))

    def shift(self, theta) -> np.ndarray:
        """Drop the first segment and duplicate the last (receding-horizon shift)."""
        theta = np.asarray(theta, dtype=float)
        na = self.n_actuators
        return np.concatenate([theta[na:], theta[-na:]])


def decode_controls(theta, parameterization: ControlParameterization, t: float) -> np.ndarray:
    """Control vector active at time t under the zero-order-hold encoding."""
    return parameterization.decode(theta, t)


@dataclass
class CmaConfig:
    population: int = 36
    generations: int = 100
    sigma0: float = 0.2
    seed: int = 0
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.population < 4:
            raise ValueError("population must be at least 4")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if self.sigma0 <= 0.0:
            raise ValueError("sigma0 must be positive")


@dataclass
class OptimizationTrace:
    """Per-generation learning curve of one optimization run."""

    gen_best: list = field(default_factory=list)     # best cost of the generation
    best_so_far: list = field(default_factory=list)  # monotone running best
    evals: list = field(default_factory=list)        # cumulative evaluations
    diverged: list = field(default_factory=list)     # any sentinel cost this gen

    def record(self, gen_best, best_so_far, evals, diverged):
        self.gen_best.append(float(gen_best))
        self.best_so_far.append(float(best_so_far))
        self.evals.append(int(evals))
        self.diverged.append(bool(diverged))

    @property
    def total_evals(self) -> int:
        return self.evals[-1] if self.evals else 0


def cma_es(objective, dim: int, config: CmaConfig, map_fn=map):
    """Minimize objective over R^dim; returns (best_x, best_f, trace).

    Exactly population * generations evaluations are spent. Non-finite
    objective values are replaced by a sentinel so they rank worst without
    poisoning the distribution update. map_fn, if given, must preserve order.
    """
    lam = int(config.population)
    if lam < 4:
        raise ValueError("population must be at least 4")
    n = int(dim)
    if n < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    mean = (np.zeros(n) if config.x0 is None
            else np.asarray(config.x0, dtype=float).copy())
    if mean.size != n:
        raise ValueError(f"x0 has size {mean.size}, expected {n}")
    sigma = float(config.sigma0)
    if sigma <= 0.0:
        raise ValueError("sigma0 must be positive")

    mu = lam // 2
    w = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    w /= w.sum()
    mueff = 1.0 / np.sum(w ** 2)
    cs = (mueff + 2.0) / (n + mueff + 5.0)
    ds = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (n + 1.0)) - 1.0) + cs
    cc = (4.0 + mueff / n) / (n + 4.0 + 2.0 * mueff / n)
    c1 = 2.0 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((n + 2.0) ** 2 + mueff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

    cov = np.eye(n)
    ps = np.zeros(n)
    pc = np.zeros(n)
    best_x = mean.copy()
    best_f = math.inf
    trace = OptimizationTrace()
    evals = 0

    for gen in range(int(config.generations)):
        eigvals, basis = np.linalg.eigh(cov)
        d = np.sqrt(np.maximum(eigvals, 1e-30))
        z = rng.standard_normal((lam, n))
        y = z @ (basis * d).T                      # y_k = B D z_k
        x = mean + sigma * y
        f = np.fromiter(map_fn(objective, x), dtype=float, count=lam)
        evals += lam
        bad = ~np.isfinite(f)
        if bad.any():
            f = np.where(bad, NAN_SENTINEL, f)
        order = np.argsort(f, kind="stable")
        gen_best = float(f[order[0]])
        if gen_best < best_f:
            best_f = gen_best
            best_x = x[order[0]].copy()

        sel = order[:mu]
        yw = w @ y[sel]
        mean = mean + sigma * yw
        # conjugate evolution path: C^(-1/2) yw = B D^-1 B^T yw
        cinv_yw = basis @ ((basis.T @ yw) / d)
        ps = (1.0 - cs) * ps + math.sqrt(cs * (2.0 - cs) * mueff) * cinv_yw
        ps_norm = float(np.linalg.norm(ps))
        hsig = ps_norm / math.sqrt(1.0 - (1.0 - cs) ** (2 * (gen + 1))) / chi_n \
            < 1.4 + 2.0 / (n + 1.0)
        pc = (1.0 - cc) * pc + (math.sqrt(cc * (2.0 - cc) * mueff) * yw if hsig
                                else 0.0)
        c1a = c1 * (1.0 - (not hsig) * cc * (2.0 - cc))
        rank_mu = (y[sel].T * w) @ y[sel]
        cov = (1.0 - c1a - cmu) * cov + c1 * np.outer(pc, pc) + cmu * rank_mu
        cov = (cov + cov.T) / 2.0                  # guard symmetry drift
        sigma *= math.exp(min(1.0, (cs / ds) * (ps_norm / chi_n - 1.0)))

        trace.record(gen_best, best_f, evals, bool(bad.any()))

    return best_x, best_f, trace


def local_refine(objective, x0, radius0: float, budget: int,
                 lo=None, hi=None, radius_min: float = 1e-9):
    """Greedy coordinate pattern search around x0 within [lo, hi].

    Probes +/- radius per coordinate in index order, accepts improvements
    immediately, and halves the radius after a full sweep without progress
    (floored at radius_min). Returns (x, f, evals) and never returns a point
    worse than x0. The first evaluation goes to x0 and at most `budget` are
    spent: all of them, unless a whole sweep has no probe to make because
    every probe lands on x itself (lo == hi in every coordinate, or a radius
    too small to move x). The search then stops early, and evals says how
    many it made.
    """
    x = np.asarray(x0, dtype=float).copy()
    lo_arr = None if lo is None else np.broadcast_to(np.asarray(lo, dtype=float), x.shape)
    hi_arr = None if hi is None else np.broadcast_to(np.asarray(hi, dtype=float), x.shape)
    if lo_arr is not None:
        x = np.maximum(x, lo_arr)
    if hi_arr is not None:
        x = np.minimum(x, hi_arr)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    f = float(objective(x))
    evals = 1
    radius = float(radius0)
    n = x.size
    while evals < budget:
        improved = False
        sweep_evals = evals
        for i in range(n):
            for sgn in (1.0, -1.0):
                if evals >= budget:
                    return x, f, evals
                xi = x[i] + sgn * radius
                if lo_arr is not None and xi < lo_arr[i]:
                    xi = lo_arr[i]
                if hi_arr is not None and xi > hi_arr[i]:
                    xi = hi_arr[i]
                if xi == x[i]:
                    continue
                trial = x.copy()
                trial[i] = xi
                ft = float(objective(trial))
                evals += 1
                if ft < f:
                    x, f = trial, ft
                    improved = True
                    break   # take the winning direction, move on
        if evals == sweep_evals:
            break   # every probe was clipped onto x itself; nothing to try
        if not improved:
            radius = max(radius * 0.5, radius_min)
    return x, f, evals
