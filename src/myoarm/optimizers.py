"""Derivative-free optimizers.

cma_es is a standard (mu/mu_w, lambda) evolution strategy with rank-one and
rank-mu covariance updates and cumulative step-size adaptation. The caller
gives it its start point x0, whose size is the search dimension; CmaConfig
holds only the budget, the initial step size and the seed. It hands its
objective one generation at a time, as a (lambda, dim) array of candidates
whose rows are independent, and takes back lambda costs; the rollout layer
scores such a population in lockstep (control.rollout_batch). local_refine
is a bounded coordinate pattern search over a scalar objective that spends
at most its evaluation budget and reports what it spent. Neither knows
about controls: the zero-order-hold plan they search over is
control.ControlParameterization's.
"""

import math
from dataclasses import dataclass, field

import numpy as np

NAN_SENTINEL = 1e32   # replaces non-finite objective values inside the optimizer


@dataclass
class CmaConfig:
    """Budget, initial step size and seed of one CMA-ES run; a population
    below 4, no generation or a non-positive sigma0 is refused here."""

    population: int = 36
    generations: int = 100
    sigma0: float = 0.2
    seed: int = 0

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

    best_so_far: list = field(default_factory=list)  # monotone running best
    evals: list = field(default_factory=list)        # cumulative evaluations

    def record(self, best_so_far, evals):
        self.best_so_far.append(float(best_so_far))
        self.evals.append(int(evals))

    @property
    def total_evals(self) -> int:
        return self.evals[-1] if self.evals else 0


def cma_es(objective, x0, config: CmaConfig):
    """Minimize over R^n from the start point x0, n = x0.size; returns
    (best_x, best_f, trace).

    objective(x) gets one generation, x of shape (population, n), and
    returns one cost per row, in row order. Exactly population *
    generations evaluations are spent, in `generations` objective calls.
    Non-finite objective values are replaced by a sentinel so they rank
    worst without poisoning the distribution update. An empty, non-1-D or
    non-finite x0 raises ValueError before the first objective call; the
    caller's x0 is never modified.

    Generation 0 samples from C = I (Hansen, "The CMA Evolution Strategy:
    A Tutorial", arXiv:1604.00772), where B = D = I: it takes y = z and
    C^-1/2 yw = yw without an eigendecomposition, the values that
    decomposing the identity gives (eigh(I) is (ones, I), and z @ I == z).
    Each update ends by decomposing the new covariance for the next
    generation, so a run makes generations - 1 eigh calls. The last
    generation records its trace entry and stops, since no sample would
    read its update. The covariance update runs in two n x n buffers, with
    the operations and association of (1 - c1a - cmu) C + c1 pc pc^T +
    cmu rank_mu, then (C + C^T) / 2.
    """
    mean = np.array(x0, dtype=float)
    if mean.ndim != 1 or mean.size == 0 or not np.isfinite(mean).all():
        raise ValueError(f"x0 must be a non-empty 1-D vector of finite "
                         f"values (got shape {mean.shape})")
    n = mean.size
    lam = int(config.population)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    sigma = float(config.sigma0)

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
    spare = np.empty((n, n))        # the covariance update's second buffer
    ps = np.zeros(n)
    pc = np.zeros(n)
    best_x = mean.copy()
    best_f = math.inf
    trace = OptimizationTrace()
    evals = 0
    last = int(config.generations) - 1

    for gen in range(last + 1):
        z = rng.standard_normal((lam, n))
        if gen == 0:
            y = z                                  # C = I: B = D = I
        else:
            y = z @ (basis * d).T                  # y_k = B D z_k
        x = mean + sigma * y
        f = np.asarray(objective(x), dtype=float)
        if f.shape != (lam,):
            raise ValueError(f"objective returned shape {f.shape} for a "
                             f"population of {lam}, expected ({lam},)")
        evals += lam
        bad = ~np.isfinite(f)
        if bad.any():
            f = np.where(bad, NAN_SENTINEL, f)
        order = np.argsort(f, kind="stable")
        gen_min = float(f[order[0]])
        if gen_min < best_f:
            best_f = gen_min
            best_x = x[order[0]].copy()
        trace.record(best_f, evals)
        if gen == last:
            break                                  # no sample reads an update

        sel = order[:mu]
        ysel = y[sel]
        yw = w @ ysel
        mean = mean + sigma * yw
        # conjugate evolution path: C^(-1/2) yw = B D^-1 B^T yw
        if gen == 0:
            cinv_yw = yw
        else:
            cinv_yw = basis @ ((basis.T @ yw) / d)
        ps = (1.0 - cs) * ps + math.sqrt(cs * (2.0 - cs) * mueff) * cinv_yw
        ps_norm = float(np.linalg.norm(ps))
        hsig = ps_norm / math.sqrt(1.0 - (1.0 - cs) ** (2 * (gen + 1))) / chi_n \
            < 1.4 + 2.0 / (n + 1.0)
        pc = (1.0 - cc) * pc + (math.sqrt(cc * (2.0 - cc) * mueff) * yw if hsig
                                else 0.0)
        c1a = c1 * (1.0 - (not hsig) * cc * (2.0 - cc))
        # cov = (1 - c1a - cmu) cov + c1 pc pc^T + cmu rank_mu, in this
        # order, with cov reused for each term once spare holds the sum
        np.multiply(cov, 1.0 - c1a - cmu, out=spare)
        np.multiply.outer(pc, pc, out=cov)
        cov *= c1
        spare += cov
        np.matmul(ysel.T * w, ysel, out=cov)       # rank_mu
        cov *= cmu
        spare += cov
        np.add(spare, spare.T, out=cov)            # guard symmetry drift
        cov /= 2.0
        sigma *= math.exp(min(1.0, (cs / ds) * (ps_norm / chi_n - 1.0)))
        eigvals, basis = np.linalg.eigh(cov)
        d = np.sqrt(np.maximum(eigvals, 1e-30))

    return best_x, best_f, trace


def local_refine(objective, x0, radius0: float, budget: int,
                 lo: float, hi: float, radius_min: float = 1e-9):
    """Greedy coordinate pattern search around x0 within the box [lo, hi]
    (the same two bounds in every coordinate).

    Probes +/- radius per coordinate in index order, accepts improvements
    immediately, and halves the radius after a full sweep without progress
    (floored at radius_min). Returns (x, f, evals) and never returns a point
    worse than x0. The first evaluation goes to x0 and at most `budget` are
    spent: all of them, unless a whole sweep has no probe to make because
    every probe lands on x itself (lo == hi in every coordinate, or a radius
    too small to move x). The search then stops early, and evals says how
    many it made.
    """
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lo), hi)
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
                if xi < lo:
                    xi = lo
                if xi > hi:
                    xi = hi
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
