"""The myoarm benchmark: one command that runs a workload, checks its
outputs and prints every metric with its unit.

    python3 perfbench/run.py --workload oc-smooth --seed 0 --seconds 55 --trace 0

Run it from the root of a source checkout; it imports myoarm from `src/`
there and nowhere else. Each sweep runs in a fresh interpreter whose
environment does not depend on the caller: MYOARM_JOBS is removed and the
BLAS thread counts (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS)
are set to 1. What the caller had set is recorded.

The BLAS pin is there because the default is too unsteady to gate on: with
jobs = 2 on 2 cores, each pool worker's OpenBLAS threads spin on the cores
the other worker needs, and six consecutive oc-smooth sweeps took 5.6 to
13.5 s, against 2.2 to 2.5 s pinned. So that the cost stays visible, the
traced oc-smooth run also runs one sweep with all four variables removed
(the defaults a user gets) and reports its wall time, ungated.

With --trace 0 it repeats the workload's sweep (at least MIN_REPEATS
times, and while the next one fits in --seconds) and reports the end-to-end
metrics as trimmed means, with the median, the worst sample and the sample
count (a run has too few samples for a high percentile). The times are
scaled to a fixed machine speed, measured by timing reference.py's kernel
between the sweeps; see that module for why. The unscaled medians are in
the report. With --trace 1 it alternates plain and traced sweeps with
jobs = 1, so the whole sweep runs in one traced process, and reports the
per-layer metrics plus the tracing overhead. The last stdout line is one
JSON object; the full report, with every sample and the machine info, also
goes to perfbench/_results/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLER_ENV = BLAS_ENV + ("MYOARM_JOBS",)
MIN_REPEATS = 3
REF_FIRST_S = 0.5             # reference kernel time before the first sweep
REF_SHARE = 0.2               # and after each sweep, as a share of its time
TIME_LIMIT_S = 165.0          # the whole run, children included
END_TO_END_UNITS = {"wall_s": "s", "evals_per_s": "1/s", "setup_s": "s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


class SweepFailed(Exception):
    pass


class Bench:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root: Path, workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.work = HERE / "_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.out_dir = self.work / "out"
        # the caller's defaults, then the pinned environment sweeps run in
        self.default_env = {k: v for k, v in os.environ.items()
                            if k not in CALLER_ENV}
        self.default_env["PYTHONPATH"] = str(root / "src")
        self.env = {**self.default_env, **{k: "1" for k in BLAS_ENV}}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None     # (digest, point digests) of the first sweep
        self.final_cost = None
        self.extra = {}           # run facts for the report: jobs, repeats, ...

    def config_path(self) -> Path:
        path = self.work / "sweep.cfg"
        if not path.exists():
            self.work.mkdir(parents=True, exist_ok=True)
            path.write_text(self.workload.config_text(self.seed, str(self.out_dir)),
                            encoding="utf-8")
        return path

    def child(self, mode: str, jobs: int, env=None) -> dict:
        """Start perfbench/sweep.py in a new session and wait for it."""
        remaining = TIME_LIMIT_S - (time.monotonic() - self.started)
        if remaining < 1.0:
            raise SweepFailed("time limit reached")
        cmd = [sys.executable, str(HERE / "sweep.py"), mode,
               str(self.config_path()), str(jobs)]
        t_launch = time.monotonic()
        proc = subprocess.Popen(cmd + [repr(t_launch)], cwd=self.root,
                                env=env or self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise SweepFailed(f"{mode} sweep killed at the time limit")
        finally:
            _kill_group(proc.pid)     # and anything the sweep left behind
            proc.wait()
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-3:]
            raise SweepFailed(f"{mode} sweep exited {proc.returncode}: "
                              + " | ".join(tail))
        return json.loads(stdout.strip().splitlines()[-1])

    def sweep(self, mode: str, jobs: int, env=None) -> dict:
        """One checked sweep; output failures are counted, not raised.

        Sweeps in the pinned environment must reproduce the first sweep's
        bytes. A sweep in another environment is only checked: BLAS thread
        counts change the floating-point results, so its result carries
        `same_outputs` instead.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        points = self.workload.points()
        self.attempted += points
        try:
            result = self.child(mode, jobs, env)
        except SweepFailed as exc:
            self.failed += points
            self.problems.append(str(exc))
            raise
        label = f"{mode} jobs={jobs}" + (" default env" if env else "")
        final_cost, digests, problems = checks.check_sweep(self.out_dir,
                                                           self.workload)
        digest = checks.digest(self.out_dir)
        if self.reference is None:
            self.reference = (digest, digests)
            self.final_cost = final_cost
        result["same_outputs"] = digest == self.reference[0]
        if not result["same_outputs"] and env is None:
            changed = sorted(t for t in digests
                             if digests[t] != self.reference[1].get(t))
            problems += [(tag, "outputs differ from the first sweep")
                         for tag in changed or [None]]
        bad = {tag for tag, _ in problems}
        self.failed += points if None in bad else min(len(bad), points)
        self.problems += [f"{label}: {tag or 'sweep'}: {text}"
                          for tag, text in problems]
        return result

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()          # only when no other run uses it
        except OSError:
            pass

    def timed(self, seconds: float) -> dict:
        """End-to-end metrics: repeat the sweep at the workload's jobs.

        The reference kernel runs before the first sweep and after each
        one, for REF_SHARE of the sweep's time. Sweeps repeat while the
        next one, with its reference passes, still ends within `seconds`
        at the median time so far.
        """
        jobs = self.workload.jobs()
        start = time.monotonic()
        reference.timed()                      # warm-up, not recorded
        blocks = [reference.block(REF_FIRST_S)]
        samples, lengths = [], []
        try:
            while (len(samples) < MIN_REPEATS
                   or time.monotonic() - start + statistics.median(lengths)
                   <= seconds):
                t0 = time.monotonic()
                samples.append(self.sweep("run", jobs))
                blocks.append(reference.block(REF_SHARE * (time.monotonic() - t0)))
                lengths.append(time.monotonic() - t0)
        except SweepFailed:
            if not samples:
                return {}
        budget = self.workload.budget()
        ref = [t for b in blocks for t in b]
        self.extra.update(jobs=jobs, budget_evals=budget, repeats=len(samples),
                          reference_s=_summary(ref), reference_blocks=blocks)
        return end_to_end(samples, budget, blocks)

    def traced(self, seconds: float) -> dict:
        """Per-layer metrics: alternate plain and traced sweeps at jobs = 1
        while the next pair still ends within `seconds`.

        A workload with extra_sweeps then runs once at jobs = nproc, whose
        outputs must equal those at jobs = 1, and once in the caller's
        environment without the BLAS pin; both times are reported.
        """
        start = time.monotonic()
        plain, traced, lengths = [], [], []
        try:
            while (not traced or time.monotonic() - start
                   + statistics.median(lengths) <= seconds):
                t0 = time.monotonic()
                plain.append(self.sweep("run", 1)["wall_s"])
                traced.append(self.sweep("trace", 1))
                lengths.append(time.monotonic() - t0)
            if self.workload.extra_sweeps:
                jobs = self.workload.jobs()
                self.extra["parallel_wall_s"] = self.sweep("run", jobs)["wall_s"]
                default = self.sweep("run", jobs, self.default_env)
                self.extra["default_env_wall_s"] = default["wall_s"]
                self.extra["default_env_same_outputs"] = default["same_outputs"]
        except SweepFailed:
            if not traced:
                return {}
        self.extra.update(jobs=1, repeats=len(traced))
        return per_layer(plain[:len(traced)], traced, self.final_cost)


def end_to_end(samples, budget, blocks) -> dict:
    """End-to-end metrics from the results of repeated sweeps.

    `blocks[i]` holds the reference kernel times taken just before sweep i
    (and after sweep i - 1). Each sweep's times are scaled to the reference
    speed: multiplied by reference.NOMINAL_S over the mean kernel time of
    the two blocks around it. A metric's value is the trimmed mean of its
    samples; the report also keeps the median, the worst sample and, for
    times, the unscaled samples and their median.
    """
    speed = [reference.NOMINAL_S / statistics.fmean(b) for b in blocks]
    out = {}
    for name in ("wall_s", "setup_s", "cpu_s"):
        raw = [s[name] for s in samples]
        scaled = [v * (speed[i] + speed[i + 1]) / 2 for i, v in enumerate(raw)]
        out[name] = {**_gated(scaled),
                     "raw": statistics.median(raw), "raw_samples": raw}
    out["peak_rss_mb"] = _gated([s["peak_rss_mb"] for s in samples])
    out["evals_per_s"] = _gated([budget / w for w in out["wall_s"]["samples"]],
                                worst=min)
    out["evals_per_s"]["value"] = budget / out["wall_s"]["value"]
    return out


def _gated(values, worst=max):
    """Summary of a gated metric. Its value is the mean without the lowest
    and the highest sample. A sweep's time swings with the host's load; on
    a shared 2-core Xeon VM, over fourteen sets of five or ten runs, this
    mean spread between runs by 12 % on average and 16 % at most, against
    13 and 24 % for the median, and one stalled sweep cannot move it."""
    kept = sorted(values)[1:-1] if len(values) >= 3 else values
    return {"value": statistics.fmean(kept),
            "median": statistics.median(values), "worst": worst(values),
            "n": len(values), "samples": values}


def per_layer(plain_walls, traced, final_cost) -> dict:
    """Per-layer metrics from traced sweeps, the tracing overhead against
    plain sweeps of the same configuration, and the solution quality."""
    out = {name: _summary([t["layers"][name] for t in traced])
           for name in traced[0]["layers"]}
    if final_cost is not None:
        out["objectives.final_cost"] = {"value": final_cost, "n": 1}
    traced_walls = [t["wall_s"] for t in traced]
    out["trace.wall_s"] = _summary(traced_walls)
    out["trace.untraced_wall_s"] = _summary(plain_walls)
    out["trace.overhead_ratio"] = {
        "value": statistics.median(traced_walls) / statistics.median(plain_walls),
        "n": len(traced_walls)}
    return out


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _summary(values):
    """Median, worst (highest) value, sample count and the samples."""
    return {"value": statistics.median(values), "worst": max(values),
            "n": len(values), "samples": values}


def machine_info(root: Path, runtime: dict, caller_values: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": commit, **runtime,
            "caller_env": caller_values,
            "sweep_env": {k: "1" for k in BLAS_ENV}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # record what the caller had set; then this process, which times the
    # reference kernel, uses one BLAS thread like the sweeps (numpy is
    # first imported after this)
    caller_values = {k: os.environ.get(k) for k in CALLER_ENV}
    os.environ.update({k: "1" for k in BLAS_ENV})
    # on SIGTERM, unwind so that the running sweep's process group is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "myoarm" / "__init__.py").is_file():
        print(f"perfbench: no myoarm sources under {root / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))      # for harness.summarize in checks
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    try:
        info = bench.child("info", 1)          # also fills the bytecode cache
        if not Path(info["myoarm_path"]).resolve().is_relative_to(root / "src"):
            print(f"perfbench: imported myoarm from {info['myoarm_path']}",
                  file=sys.stderr)
            return 2
        metrics = bench.traced(args.seconds) if args.trace else bench.timed(args.seconds)
    except SweepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "seeds_run": bench.workload.seeds(args.seed),
              "metrics": {k: {**metrics[k], "unit": units[k]}
                          for k in units if k in metrics},
              "error_rate": {"value": error_rate, "unit": "fraction",
                             "failed": bench.failed,
                             "attempted": bench.attempted},
              "final_cost": {"value": bench.final_cost, "unit": "cost",
                             "runs": bench.workload.points()},
              "digest": bench.reference[0] if bench.reference else None,
              "problems": bench.problems + [f"missing metric {m}" for m in missing],
              **bench.extra, "machine": machine_info(root, info, caller_values)}
    print_report(report)
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=2) + "\n")
    if not metrics:
        return 1
    correct = not report["problems"] and bench.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in report["metrics"].items()}}))
    return 0


def print_report(report):
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"(experiment seeds {report['seeds_run']}) trace={report['trace']} "
          f"jobs={report.get('jobs')} repeats={report.get('repeats')}")
    for name, m in report["metrics"].items():
        median = f"  median {m['median']:.6g}" if "median" in m else ""
        worst = f"  worst {m['worst']:.6g}" if "worst" in m else ""
        raw = f"  unscaled median {m['raw']:.6g}" if "raw" in m else ""
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']:9s}{median}{worst}"
              f"  n={m['n']}{raw}")
    e = report["error_rate"]
    print(f"  {'error_rate':42s} {e['value']:14.6g} fraction "
          f"({e['failed']} of {e['attempted']} points failed)")
    c = report["final_cost"]
    if c["value"] is not None:
        print(f"  {'final_cost':42s} {c['value']:14.6g} cost      "
              f"(mean final best cost of {c['runs']} runs, ungated)")
    if "reference_s" in report:
        ref = report["reference_s"]
        print(f"  reference kernel: median {ref['value']:.6g} s over {ref['n']} "
              f"passes; times above are scaled by {reference.NOMINAL_S} s over "
              "the mean pass time next to them")
    for key in ("budget_evals", "parallel_wall_s", "default_env_wall_s",
                "default_env_same_outputs", "digest"):
        if report.get(key) is not None:
            print(f"  {key}: {report[key]}")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")
    m = report["machine"]
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"python={m['python']} numpy={m['numpy']} blas={m['blas']} "
          f"commit={m['git_commit']}")
    print(f"  caller env: {m['caller_env']}; sweeps ran with {m['sweep_env']}")


if __name__ == "__main__":
    sys.exit(main())
