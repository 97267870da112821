"""The benchmark's workloads: what each sweep runs, and why it was chosen.

Every workload is one closed-loop client: the benchmark starts the next
sweep only after the previous one has finished, and runs one sweep at a
time. A workload is written out as an experiment config file that
`ExperimentConfig.from_file` parses; the program receives nothing else.

The benchmark seed shifts each workload's seed list, so seed n runs
experiment seeds n*k .. n*k+k-1 for a workload with k seeds.

There is no third workload, such as data_efficiency on precise-reach at
jobs = 1, whose per-control-step reward loop would put a quarter of the
time in objectives. A single-process sweep on a shared 2-core host varies
by 15 to 20 % from sweep to sweep, and the time limit on all runs leaves
three workloads too little run time each to average that out.
"""

import os
from dataclasses import dataclass, field

# Task horizons in seconds, as the paper defines the tasks. The MPC budget
# below is computed from these, not read back from the program.
TASK_DURATION = {"smooth-reach": 0.9}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    task: str
    n_seeds: int
    parallel: bool                  # jobs = nproc when set, else jobs = 1
    settings: dict                  # config keys beyond kind, task and seeds
    tiny: dict = field(default_factory=dict)   # overrides for the smoke test
    morphologies: tuple = ("muscle", "torque")
    # after the traced run's sweeps, run once at jobs = nproc (its outputs
    # must match those at jobs = 1) and once in the caller-independent
    # default environment (reported)
    extra_sweeps: bool = False

    def seeds(self, seed: int):
        return [seed * self.n_seeds + i for i in range(self.n_seeds)]

    def jobs(self) -> int:
        return len(os.sched_getaffinity(0)) if self.parallel else 1

    def resolved(self, tiny: bool = False) -> dict:
        out = dict(self.settings)
        if tiny:
            out.update(self.tiny)
        return out

    def config_text(self, seed: int, out_dir: str, tiny: bool = False) -> str:
        s = self.resolved(tiny)
        n_seeds = s.pop("n_seeds", self.n_seeds)
        seeds = self.seeds(seed)[:n_seeds]
        lines = [f"experiment.kind = {self.kind}",
                 f"experiment.task = {self.task}",
                 f"experiment.morphologies = {', '.join(self.morphologies)}",
                 # a trailing comma keeps a single seed a list, not a count
                 f"experiment.seeds = {', '.join(map(str, seeds))},",
                 f"experiment.out_dir = {out_dir}"]
        lines += [f"{key} = {_value(v)}" for key, v in s.items()]
        return "\n".join(lines) + "\n"

    def masses(self, tiny: bool = False):
        """The robustness sweep always adds the unloaded baseline mass 0."""
        masses = [float(m) for m in self.resolved(tiny)["grid.masses"]]
        return masses if 0.0 in masses else [0.0, *masses]

    def points(self, tiny: bool = False) -> int:
        s = self.resolved(tiny)
        n_seeds = s.get("n_seeds", self.n_seeds)
        if self.kind == "data_efficiency":
            grid = len(s["grid.c"])
        else:
            grid = len(self.masses(tiny))
        return len(self.morphologies) * grid * n_seeds

    def evals_per_point(self, tiny: bool = False) -> int:
        """The configured evaluation budget of one run (one trace)."""
        s = self.resolved(tiny)
        if self.kind == "data_efficiency":
            return s["optimizer.population"] * s["optimizer.generations"]
        n_ctrl = round(TASK_DURATION[self.task] / s["mpc.resolution"])
        return (s["optimizer.population"] * s["mpc.warm_generations"]
                + (n_ctrl - 1) * s["mpc.refine_budget"])

    def budget(self, tiny: bool = False) -> int:
        return self.points(tiny) * self.evals_per_point(tiny)


def _value(v):
    return ", ".join(map(str, v)) + "," if isinstance(v, (list, tuple)) else str(v)


WORKLOADS = {w.name: w for w in [
    # The paper's headline experiment. Per-step rollout work (arm, actuators,
    # control) dominates; CMA-ES at dim 360 (muscle, c = 0.01), the process
    # pool and the muscle-to-torque calibration barrier carry weight too.
    # It runs with jobs = nproc. Under the default OpenBLAS threading each
    # pool worker's BLAS threads compete for the same cores: on a 2-core
    # machine a 10-generation sweep took 7.2-8.9 s serial and 18.9-25.3 s
    # with jobs=2, against 2.8-3.4 s with jobs=2 and OPENBLAS_NUM_THREADS=1.
    # So sweeps run with one BLAS thread, and the traced run adds one sweep
    # with the default threading.
    Workload(
        name="oc-smooth",
        why="headline CMA-ES data-efficiency sweep; rollout steps, dim-360 "
            "CMA, process pool and calibration barrier at jobs=nproc",
        kind="data_efficiency", task="smooth-reach", n_seeds=2,
        parallel=True, extra_sweeps=True,
        settings={"grid.c": [0.05, 0.01], "optimizer.population": 36,
                  "optimizer.generations": 5},
        tiny={"n_seeds": 1, "optimizer.population": 4,
              "optimizer.generations": 1}),
    # Thousands of short window rollouts (0.3 s, 60 steps), so fixed
    # per-call costs such as the zoh_control decode and the window cost show;
    # local_refine takes most of the time. robustness_sweep ignores jobs
    # today, so a fix for that shows up here.
    Workload(
        name="mpc-robust",
        why="sampling MPC under an unseen load: thousands of short window "
            "rollouts, pattern-search refinement, per-call decode and cost",
        kind="robustness_weights", task="smooth-reach", n_seeds=1,
        parallel=True,
        settings={"grid.masses": [2.0], "mpc.tpred": 0.3,
                  "mpc.resolution": 0.01, "optimizer.population": 36,
                  "mpc.warm_generations": 5, "mpc.refine_budget": 10},
        tiny={"mpc.tpred": 0.02, "optimizer.population": 4,
              "mpc.warm_generations": 1, "mpc.refine_budget": 2}),
]}
