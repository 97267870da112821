"""Sub-second smoke test of the benchmark: each workload at a tiny size,
in-process, must pass the output checks and yield every metric that
BENCHMARK.json names, with the same unit.

    python3 -m pytest -q perfbench
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def test_declared_metrics_and_workloads_match_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


def test_every_workload_yields_every_metric(tmp_path):
    from myoarm.config import ExperimentConfig
    for workload in WORKLOADS.values():
        out_dir = tmp_path / workload.name
        config_path = tmp_path / f"{workload.name}.cfg"
        config_path.write_text(workload.config_text(7, str(out_dir), tiny=True))
        t_launch = time.monotonic()
        config = ExperimentConfig.from_file(str(config_path))
        result = {"setup_s": time.monotonic() - t_launch,
                  **sweep.run_sweep(config, jobs=1, traced=True),
                  **sweep.resource_use()}
        final_cost, points, problems = checks.check_sweep(
            out_dir, workload, tiny=True)
        assert problems == [], workload.name
        assert len(points) == workload.points(tiny=True)

        nominal = [run.reference.NOMINAL_S]
        e2e = run.end_to_end([result], workload.budget(tiny=True),
                             [nominal, nominal])
        assert set(e2e) == set(_declared("end_to_end")), workload.name
        layers = run.per_layer([result["wall_s"]], [result], final_cost)
        assert set(layers) == set(_declared("per_layer")), workload.name
        assert layers["harness.points"]["value"] == workload.points(tiny=True)
        assert layers["optimizers.cma.evals"]["value"] > 0
        if workload.kind == "robustness_weights":
            assert layers["optimizers.refine.evals"]["value"] > 0
