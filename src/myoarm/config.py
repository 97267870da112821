"""Flat key-value configuration for experiments.

The file format is one `section.key = value` assignment per line, with `#`
comments and blank lines ignored. Values are parsed as int, float or
string (names and paths stay strings, and so do words such as `yes`, which
no numeric key takes); comma-separated values become lists.
Keys are case-insensitive.
ExperimentConfig.from_mapping rejects a key it does not know, an integer
key whose value is not a whole number of at least 0 (a fractional part or
a negative seed) and a comma list in a single-valued text key
(experiment.kind, .task, .out_dir), and the config rejects
unknown task, morphology and ablation names, a value repeated in a list
that a sweep runs one point per value of (the grid.* keys,
experiment.seeds, .morphologies and .ablations), `arm.`/`weights.` values
that are not finite numbers or that ArmParams or ObjectiveWeights
refuses (the error names the key), a grid.* value or
mpc.tpred that is not positive and finite, an optimizer or MPC budget
that CmaConfig or MpcConfig refuses (a NaN or infinite optimizer.sigma
among them), a seed that CmaConfig refuses, an OC resolution (every
grid.c value and optimizer.c) that is not a whole multiple of the
physics step or is longer than the task's horizon, an mpc.resolution
that is not a whole multiple of the physics step (for tpred_sweep and
robustness_weights, one that does not divide the task's horizon too),
and a prediction horizon shorter than one mpc.resolution segment or off
the physics step (mpc.tpred of robustness_weights, any grid.tpred value
of tpred_sweep).
So a typo or a bad value stops the run with a ValueError before it starts
(and before the output directory is made), instead of being ignored or
failing inside the first sweep point.

Example::

    experiment.kind = data_efficiency
    experiment.task = smooth-reach
    experiment.morphologies = muscle, torque
    experiment.seeds = 5
    grid.c = 0.05, 0.15, 0.3
    optimizer.generations = 50
    arm.l1 = 0.3
"""

import math
from dataclasses import dataclass, field, fields

from .actuators import AblationFlags, parse_morphology
from .arm import ArmParams
from .control import ControlParameterization, MpcConfig, _whole_multiple
from .objectives import TASKS, ObjectiveWeights, make_task
from .optimizers import CmaConfig, _whole

EXPERIMENT_KINDS = ("data_efficiency", "sigma_sweep", "tpred_sweep",
                    "robustness_weights", "ablation", "ball_serve",
                    "pd_baseline", "lowpass_baseline")


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into a flat dict of typed values.

    The values of the name and path keys (_TEXT_KEYS) stay text as written,
    so an out_dir `007` is not read as the number 7.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        value = value.strip()
        parse = str.strip if key in _TEXT_KEYS else _parse_scalar
        if "," in value:
            out[key] = [parse(v) for v in value.split(",") if v.strip()]
        else:
            out[key] = parse(value)
    return out


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def section(mapping: dict, name: str) -> dict:
    """All keys under `name.` with the prefix stripped."""
    prefix = name + "."
    return {k[len(prefix):]: v for k, v in mapping.items()
            if k.startswith(prefix)}


def _list_of(convert):
    """Conversion of a list value; a single value is a one-element list."""
    return lambda value: [convert(v) for v in
                          (value if isinstance(value, list) else [value])]


def _count(value):
    """A whole number of at least 0, as an int, by optimizers._whole's
    rule: 4.7 is an error, not 4, and so is -1. The values' own checks
    (CmaConfig, MpcConfig) then set each one's least value."""
    return _whole(value, "the value", 0)


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _seed_list(value):
    """An int n means seeds 0..n-1; a list is taken verbatim."""
    if isinstance(value, list):
        seeds = [_count(v) for v in value]
    else:
        seeds = list(range(_count(value)))
    if not seeds:
        raise ValueError("need at least one seed")
    return seeds


def _text(value):
    """A single name or path: a comma list is an error, not the text of a list."""
    if isinstance(value, list):
        raise ValueError(f"expected one value, got the list {value!r}")
    return str(value)


_names = _list_of(str)

# config file key -> (ExperimentConfig field, conversion); arm.* and
# weights.* keys go to arm_overrides and weight_overrides instead
_KEYS = {
    "experiment.kind": ("kind", _text),
    "experiment.task": ("task", _text),
    "experiment.morphologies": ("morphologies", _names),
    "experiment.seeds": ("seeds", _seed_list),
    "experiment.out_dir": ("out_dir", _text),
    "experiment.ablations": ("ablations", _names),
    "grid.c": ("c_grid", _list_of(float)),
    "grid.sigma": ("sigma_grid", _list_of(float)),
    "grid.tpred": ("tpred_grid", _list_of(float)),
    "grid.masses": ("masses", _list_of(float)),
    "optimizer.population": ("population", _count),
    "optimizer.generations": ("generations", _count),
    "optimizer.sigma": ("sigma", float),
    "optimizer.c": ("c", float),
    "mpc.tpred": ("tpred", float),
    "mpc.resolution": ("mpc_resolution", float),
    "mpc.warm_generations": ("warm_generations", _count),
    "mpc.refine_budget": ("refine_budget", _count),
}
_TEXT_KEYS = {key for key, (_, convert) in _KEYS.items() if convert in (_text, _names)}
_OVERRIDES = {"arm": ("arm_overrides", ArmParams),
              "weights": ("weight_overrides", ObjectiveWeights)}


@dataclass
class ExperimentConfig:
    """One experiment sweep: a kind, a task, morphologies, grids, and seeds.

    Building one checks every value the way the runs would: it builds the
    CmaConfig and the MpcConfig budgets, and the ControlParameterization of
    every OC resolution and MPC window, and refuses what they refuse, with
    the config key named. Nothing is run and no directory is made.
    """

    kind: str = "data_efficiency"
    task: str = "smooth-reach"
    morphologies: list = field(default_factory=lambda: ["muscle", "torque"])
    c_grid: list = field(default_factory=lambda: [0.05, 0.15, 0.3])
    sigma_grid: list = field(default_factory=lambda: [0.05, 0.1, 0.2, 0.4])
    tpred_grid: list = field(default_factory=lambda: [0.2, 0.3, 0.4, 0.5])
    masses: list = field(default_factory=lambda: [1.0, 2.0, 3.0, 4.0, 5.0])
    ablations: list = field(default_factory=lambda: ["none", "fl", "fv", "actdyn"])
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    population: int = 36
    generations: int = 50
    sigma: float = 0.2
    c: float = 0.3
    tpred: float = 0.3
    mpc_resolution: float = 0.01
    warm_generations: int = 20
    refine_budget: int = 50
    out_dir: str = "results"
    arm_overrides: dict = field(default_factory=dict)
    weight_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; expected one of "
                f"{EXPERIMENT_KINDS}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if not self.morphologies:
            raise ValueError("morphology list is empty")
        for morphology in self.morphologies:
            parse_morphology(morphology)
        for name in self.ablations:
            if name != "none":
                AblationFlags.from_names([name])
        for prefix, (attr, cls) in _OVERRIDES.items():
            defaults = {f.name: f.default for f in fields(cls)}
            overrides = getattr(self, attr)
            for key, value in overrides.items():
                if key not in defaults:
                    raise ValueError(f"unknown config key {prefix}.{key}; "
                                     f"{prefix}. takes {sorted(defaults)}")
                # a pair-valued field (ObjectiveWeights.s_th, ...) takes a list
                pair = isinstance(value, list) and isinstance(defaults[key], tuple)
                if not all(map(_finite_number, value if pair else [value])):
                    raise ValueError(f"config key {prefix}.{key} = {value!r}: "
                                     f"expected a finite number")
                try:                  # the class's own range checks
                    cls(**{key: value})
                except ValueError as exc:
                    raise ValueError(f"config key {prefix}.{key} = "
                                     f"{value!r}: {exc}") from None
        for key, grid in (("grid.c", self.c_grid),
                          ("grid.sigma", self.sigma_grid),
                          ("grid.tpred", self.tpred_grid),
                          ("grid.masses", self.masses)):
            if not grid:
                raise ValueError(f"config key {key} is empty")
            if not all(0 < v < math.inf for v in grid):
                raise ValueError(f"config key {key} = {grid}: values must be "
                                 f"positive and finite")
        if not self.ablations:
            raise ValueError("ablation list is empty")
        if not self.seeds:
            raise ValueError("need at least one seed")
        # a sweep runs and writes every copy of a repeated value, and the
        # aggregate then counts one run as several
        for key, values in (("grid.c", self.c_grid),
                            ("grid.sigma", self.sigma_grid),
                            ("grid.tpred", self.tpred_grid),
                            ("grid.masses", self.masses),
                            ("experiment.seeds", self.seeds),
                            ("experiment.morphologies", self.morphologies),
                            ("experiment.ablations", self.ablations)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"config key {key} repeats "
                                 f"{', '.join(map(str, repeated))}")
        if not 0 < self.tpred < math.inf:
            raise ValueError(f"config key mpc.tpred = {self.tpred}: must be "
                             f"positive and finite")

        def check(what, build, *args, **kwargs):
            """Build what the runs build from these values; a ValueError
            names `what`, the config values it came from."""
            try:
                build(*args, **kwargs)
            except ValueError as exc:
                raise ValueError(f"{what}: {exc}") from None

        # the budgets' own rules: CMA-ES's and the MPC run's; and every
        # seed's, which each run's CmaConfig takes
        check("optimizer budget", CmaConfig, self.population,
              self.generations, self.sigma)
        for seed in self.seeds:
            check("experiment.seeds", CmaConfig, seed=seed)
        check("mpc budget", MpcConfig, warm_population=self.population,
              warm_generations=self.warm_generations,
              refine_budget=self.refine_budget)
        # the control plans' own rules: a whole multiple of the physics
        # step that fits the horizon, for every OC resolution, and for
        # mpc.resolution whatever the kind (as a plan of one segment)
        duration = make_task(self.task).duration
        for key, c in [*(("grid.c", c) for c in self.c_grid),
                       ("optimizer.c", self.c)]:
            check(f"{key} = {c} on {self.task}", ControlParameterization,
                  duration, c, 1, 0.0, 1.0)
        res = self.mpc_resolution
        check(f"mpc.resolution = {res}", ControlParameterization,
              res, res, 1, 0.0, 1.0)
        horizons = {"tpred_sweep": ("grid.tpred", self.tpred_grid),
                    "robustness_weights": ("mpc.tpred", [self.tpred])}
        key, values = horizons.get(self.kind, (None, []))
        if key is not None:           # mpc_run's own rule
            check(f"mpc.resolution = {res} on {self.task}", _whole_multiple,
                  duration, res, "task horizon", "MPC resolution")
        for tpred in values:          # the MPC window's own rule
            check(f"{key} = {tpred} with mpc.resolution = {res}",
                  ControlParameterization, tpred, res, 1, 0.0, 1.0)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        kw = {attr: section(mapping, prefix)
              for prefix, (attr, _) in _OVERRIDES.items()}
        for key, value in mapping.items():
            prefix, dot, _ = key.partition(".")
            if dot and prefix in _OVERRIDES:
                continue
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r}; expected one "
                                 f"of {sorted(_KEYS)}, arm.* or weights.*")
            name, convert = _KEYS[key]
            try:
                kw[name] = convert(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        if kw.get("kind") == "ball_serve":
            kw.setdefault("task", "ball-serve")
        return cls(**kw)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_mapping(load_config(path))
