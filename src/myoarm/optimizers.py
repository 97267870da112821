"""Derivative-free optimizers.

CmaEs is a standard (mu/mu_w, lambda) evolution strategy with rank-one and
rank-mu covariance updates and cumulative step-size adaptation, written
as an ask/tell object: ask() hands out one generation as a (lambda, dim)
array of candidates whose rows are independent, and tell() takes back
lambda costs. The caller gives it its start point x0, whose size is the
search dimension; CmaConfig holds only the budget, the initial step size
and the seed. So a driver can advance several runs in lockstep and score
all their generations together (control.open_loop_lockstep, one
control.rollout_plans call per generation); cma_es is the loop over one
run that hands each generation to an objective. local_refine is a bounded
coordinate pattern search over a scalar objective that spends at most its
evaluation budget and reports what it spent. Neither knows about
controls: the zero-order-hold plan they search over is
control.ControlParameterization's.

A candidate with no finite cost (a diverged rollout, or NaN) costs
math.inf: CMA-ES ranks every non-finite cost as +inf, last, and its update
reads only the ranks, so no finite stand-in value is needed.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def _whole(value, what: str, least: int) -> int:
    """value as an int; a ValueError names `what` unless value is a whole
    number (a float with no fraction is one, a bool is not) of at least
    `least`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer() or value < least):
        raise ValueError(f"{what} must be a whole number of at least "
                         f"{least}, not {value!r}")
    return int(value)


@dataclass
class CmaConfig:
    """Budget, initial step size and seed of one CMA-ES run; a population
    that is not a whole number of at least 4, a generation count that is
    not a whole number of at least 1, a sigma0 that is not positive and
    finite or a seed that is not a whole number of at least 0 is refused
    here."""

    population: int = 36
    generations: int = 100
    sigma0: float = 0.2
    seed: int = 0

    def __post_init__(self):
        _whole(self.population, "population", 4)
        _whole(self.generations, "generations", 1)
        _whole(self.seed, "seed", 0)
        if not 0.0 < self.sigma0 < math.inf:
            raise ValueError(f"sigma0 must be positive and finite, not "
                             f"{self.sigma0}")


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


class CmaEs:
    """One CMA-ES run over R^n from the start point x0, n = x0.size, as an
    ask/tell object: ask() returns the next generation, a (population, n)
    array of candidates whose rows are independent, and tell(f) takes one
    cost per row, in row order. A run lasts config.generations generations;
    done is set once the last one is told. best_x, best_f and trace hold
    the run's result so far. tell ranks every non-finite cost as math.inf,
    after every finite one (ties keep row order), so a failed candidate
    never poisons the distribution update. Generation 0's best candidate
    always becomes best_x, so a run in which every candidate failed
    returns a candidate it evaluated, with best_f math.inf. An empty,
    non-1-D or non-finite x0 raises ValueError when the run is built; the
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

    The draws and the arithmetic depend only on the run's own x0, config
    and told costs, so runs asked and told in any interleaving (the
    lockstep driver, control.open_loop_lockstep) each take the path they
    take alone.
    """

    def __init__(self, x0, config: CmaConfig):
        mean = np.array(x0, dtype=float)
        if mean.ndim != 1 or mean.size == 0 or not np.isfinite(mean).all():
            raise ValueError(f"x0 must be a non-empty 1-D vector of finite "
                             f"values (got shape {mean.shape})")
        self._mean = mean
        n = self._n = mean.size
        lam = self._lam = int(config.population)
        self._rng = np.random.Generator(np.random.PCG64(int(config.seed)))
        self._sigma = float(config.sigma0)

        mu = self._mu = lam // 2
        w = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
        w /= w.sum()
        self._w = w
        mueff = self._mueff = 1.0 / np.sum(w ** 2)
        cs = self._cs = (mueff + 2.0) / (n + mueff + 5.0)
        self._ds = 1.0 + 2.0 * max(
            0.0, math.sqrt((mueff - 1.0) / (n + 1.0)) - 1.0) + cs
        self._cc = (4.0 + mueff / n) / (n + 4.0 + 2.0 * mueff / n)
        c1 = self._c1 = 2.0 / ((n + 1.3) ** 2 + mueff)
        self._cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff)
                        / ((n + 2.0) ** 2 + mueff))
        self._chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n)
                                      + 1.0 / (21.0 * n * n))

        self._cov = np.eye(n)
        self._spare = np.empty((n, n))   # the covariance update's second buffer
        self._ps = np.zeros(n)
        self._pc = np.zeros(n)
        self._basis = self._d = None     # set by the first update
        self._asked = None               # (x, y) of the generation out
        self.best_x = mean.copy()
        self.best_f = math.inf
        self.trace = OptimizationTrace()
        self.gen = 0
        self._last = int(config.generations) - 1

    @property
    def done(self) -> bool:
        return self.gen > self._last

    def ask(self) -> np.ndarray:
        """The next generation's candidates, x = mean + sigma B D z."""
        if self.done:
            raise RuntimeError("the run has told its last generation")
        z = self._rng.standard_normal((self._lam, self._n))
        if self.gen == 0:
            y = z                                  # C = I: B = D = I
        else:
            y = z @ (self._basis * self._d).T      # y_k = B D z_k
        x = self._mean + self._sigma * y
        self._asked = x, y
        return x

    def tell(self, f):
        """Rank the asked generation by its costs f, record the trace entry
        and, unless it was the last generation, update the distribution."""
        if self._asked is None:
            raise RuntimeError("tell needs a generation from ask")
        x, y = self._asked
        lam = self._lam
        f = np.asarray(f, dtype=float)
        if f.shape != (lam,):
            raise ValueError(f"objective returned shape {f.shape} for a "
                             f"population of {lam}, expected ({lam},)")
        self._asked = None
        gen = self.gen
        self.gen += 1
        f = np.where(np.isfinite(f), f, math.inf)
        order = np.argsort(f, kind="stable")
        gen_min = float(f[order[0]])
        if gen == 0 or gen_min < self.best_f:
            self.best_f = gen_min
            self.best_x = x[order[0]].copy()
        self.trace.record(self.best_f, lam * self.gen)
        if gen == self._last:
            return                                 # no sample reads an update

        n, w, mueff = self._n, self._w, self._mueff
        cs, cc, c1, cmu = self._cs, self._cc, self._c1, self._cmu
        basis, d, sigma = self._basis, self._d, self._sigma
        cov, spare = self._cov, self._spare
        ysel = y[order[:self._mu]]
        yw = w @ ysel
        self._mean = self._mean + sigma * yw
        # conjugate evolution path: C^(-1/2) yw = B D^-1 B^T yw
        if gen == 0:
            cinv_yw = yw
        else:
            cinv_yw = basis @ ((basis.T @ yw) / d)
        ps = self._ps = ((1.0 - cs) * self._ps
                         + math.sqrt(cs * (2.0 - cs) * mueff) * cinv_yw)
        ps_norm = float(np.linalg.norm(ps))
        hsig = ps_norm / math.sqrt(1.0 - (1.0 - cs) ** (2 * (gen + 1))) \
            / self._chi_n < 1.4 + 2.0 / (n + 1.0)
        pc = self._pc = (1.0 - cc) * self._pc + (
            math.sqrt(cc * (2.0 - cc) * mueff) * yw if hsig else 0.0)
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
        self._sigma = sigma * math.exp(
            min(1.0, (cs / self._ds) * (ps_norm / self._chi_n - 1.0)))
        eigvals, self._basis = np.linalg.eigh(cov)
        self._d = np.sqrt(np.maximum(eigvals, 1e-30))


def cma_es(objective, x0, config: CmaConfig):
    """Minimize objective over R^n from the start point x0 with one CmaEs
    run; returns (best_x, best_f, trace).

    objective(x) gets one generation, x of shape (population, n), and
    returns one cost per row, in row order. Exactly population *
    generations evaluations are spent, in `generations` objective calls.
    x0 is checked (CmaEs) before the first objective call.
    """
    es = CmaEs(x0, config)
    while not es.done:
        es.tell(objective(es.ask()))
    return es.best_x, es.best_f, es.trace


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
    many it made. x0 must be a non-empty 1-D vector of finite values,
    radius0 positive and finite, lo and hi finite with lo <= hi, and
    budget a whole number of at least 1 (ValueError before the first
    evaluation otherwise).

    The objective's values are only ever compared with the smallest value
    it has returned so far: the first evaluation's, then each strict
    improvement's. So an objective may stop evaluating a point once it
    knows the value would exceed that one, and return any value above it
    (mpc_run's window objective does).
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.isfinite(x).all():
        raise ValueError(f"x0 must be a non-empty vector of finite values, "
                         f"not {x0!r}")
    if not 0.0 < radius0 < math.inf:
        raise ValueError(f"radius0 must be positive and finite, not "
                         f"{radius0!r}")
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(f"the box [{lo!r}, {hi!r}] needs finite bounds with "
                         f"lo <= hi")
    budget = _whole(budget, "budget", 1)
    x = np.minimum(np.maximum(x, lo), hi)
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
