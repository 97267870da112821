"""One sweep in a fresh interpreter: the process the benchmark times.

    python3 perfbench/sweep.py MODE CONFIG JOBS T_LAUNCH

MODE is `info` (import and parse only, report the runtime), `run` (one
plain sweep) or `trace` (the same sweep with per-layer spans installed).
T_LAUNCH is the parent's `time.monotonic()` just before it started this
interpreter; the monotonic clock is shared by all processes, so set-up time
covers interpreter start, the myoarm import and the config parse. The last
stdout line is a JSON object.
"""

import json
import resource
import sys
import time


def _setup(config_path):
    import myoarm
    import myoarm.cli  # noqa: F401  -- the `myoarm` entry point's import cost
    from myoarm.config import ExperimentConfig
    return myoarm, ExperimentConfig.from_file(config_path)


def runtime_info(myoarm) -> dict:
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "myoarm": myoarm.__version__, "myoarm_path": myoarm.__file__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                              "openblas configuration")}}


def run_sweep(config, jobs: int, traced: bool) -> dict:
    """Run one sweep; wall time covers `run_experiment` and nothing else."""
    from myoarm import harness
    tracer = undo = None
    if traced:
        import spans
        tracer = spans.Tracer()
        undo = spans.install(tracer)
    try:
        t0 = time.perf_counter()
        harness.run_experiment(config, jobs=jobs)
        wall = time.perf_counter() - t0
    finally:
        if undo is not None:
            undo()
    out = {"wall_s": wall}
    if traced:
        out["layers"] = spans.layer_metrics(tracer)
    return out


def resource_use() -> dict:
    """CPU of this process and its reaped workers; peak RSS of this
    process plus that of its largest worker (Linux reports KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
            "peak_rss_mb": (me.ru_maxrss + kids.ru_maxrss) / 1024.0}


def main(argv):
    mode, config_path, jobs, t_launch = argv[1], argv[2], int(argv[3]), float(argv[4])
    myoarm, config = _setup(config_path)
    out = {"setup_s": time.monotonic() - t_launch}
    if mode == "info":
        out.update(runtime_info(myoarm))
    else:
        out.update(run_sweep(config, jobs, traced=mode == "trace"))
        out.update(resource_use())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
