"""Per-layer tracing from outside the program.

`install` wraps the functions each myoarm layer exposes to the layer above
it, replacing the names where the caller looks them up (modules import
their collaborators by name, so `control._symp_step`, not
`arm._symp_step`). Each wrapper records a span: call count, total time,
and self time, which is the total minus the time of wrapped calls made
inside it. Spans stay in memory; `layer_metrics` turns them into the
per-layer metrics once the sweep is over.

The traced sweep runs in-process with jobs = 1, so every span is seen.
"""

import os
import time
from collections import Counter


class Span:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.depth = 0                # open calls, to pass re-entry through
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span statistics by name, plus plain counters (steps, evals, ...)."""

    def __init__(self):
        self.spans = {}
        self.counts = Counter()
        self._child_time = [0.0]      # one accumulator per open span

    def span(self, name):
        return self.spans.setdefault(name, Span())

    def wrap(self, fn, name, after=None):
        """Time `fn` under span `name`.

        `name` may be a function of the call's arguments, for spans split
        by morphology. `after(args, kwargs, result)` adds counters. A call
        made while a span of the same name is open is passed through, so
        layers that call themselves are counted once.
        """
        stack = self._child_time
        clock = time.perf_counter
        fixed = None if callable(name) else self.span(name)

        def traced(*args, **kwargs):
            span = fixed or self.span(name(args, kwargs))
            if span.depth:
                return fn(*args, **kwargs)
            span.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                span.depth -= 1
                span.calls += 1
                span.total += dt
                span.self_time += dt - children
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _morphology(controller) -> str:
    return {"MuscleController": "muscle",
            "TorqueController": "torque"}.get(type(controller).__name__,
                                              "other")


def install(tracer: Tracer):
    """Patch the layer boundaries of myoarm; returns a function that undoes it."""
    from myoarm import actuators, control, harness, objectives

    patches = []

    def patch(owner, attr, name, after=None):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, after))

    counts = tracer.counts

    # arm and actuators: called once per physics step by the rollout loop
    patch(control, "_symp_step", "arm.step")
    patch(actuators.MuscleController, "torques", "actuators.torques.muscle")
    patch(actuators.TorqueController, "torques", "actuators.torques.torque")

    # control: the rollout loop and recorder, the ZOH decode, MPC phases
    def rollout_name(args, kwargs):
        controller = args[1] if len(args) > 1 else kwargs["controller"]
        return "control.rollout." + _morphology(controller)

    def after_rollout(args, kwargs, result):
        morph = rollout_name(args, kwargs).rsplit(".", 1)[1]
        counts["rollout.steps." + morph] += result.steps
        counts["rollout.diverged"] += int(result.diverged)

    patch(control, "rollout", rollout_name, after_rollout)
    patch(control, "zoh_control", "control.zoh_control")

    # optimizers: evaluations are counted through the objective they are
    # handed; generations and improvements come from the CMA-ES trace
    def after_cma(args, kwargs, result):
        best = result[2].best_so_far            # (best_x, best_f, trace)
        counts["cma.runs"] += 1
        counts["cma.gens"] += len(best)
        counts["cma.improved"] += sum(b < a for a, b in zip(best, best[1:]))

    cma_traced = tracer.wrap(control.cma_es, "optimizers.cma", after_cma)

    def cma_es(objective, *args, **kwargs):
        def evaluate(x):
            counts["cma.evals"] += 1
            return objective(x)
        return cma_traced(evaluate, *args, **kwargs)

    refine_traced = tracer.wrap(control.local_refine, "optimizers.refine")

    def local_refine(objective, *args, **kwargs):
        best = []                     # the first evaluation is the start point

        def evaluate(x):
            f = objective(x)
            counts["refine.evals"] += 1
            if not best:
                best.append(f)
            elif f < best[0]:         # local_refine accepts strict improvements
                best[0] = f
                counts["refine.accepts"] += 1
            return f
        return refine_traced(evaluate, *args, **kwargs)

    # MPC phases: warm start (CMA-ES) and refinement are timed by their own
    # spans; execution is the rest of mpc_run
    phases = [tracer.span(n) for n in ("optimizers.cma", "optimizers.refine",
                                       "control.mpc")]
    mpc_traced = tracer.wrap(harness.mpc_run, "control.mpc")

    def mpc_run(*args, **kwargs):
        before = [span.total for span in phases]
        result = mpc_traced(*args, **kwargs)
        warm, refine, total = (span.total - t for span, t in zip(phases, before))
        counts["mpc.warm_s"] += warm
        counts["mpc.refine_s"] += refine
        counts["mpc.execute_s"] += total - warm - refine
        return result

    for owner, attr, wrapper in ((control, "cma_es", cma_es),
                                 (control, "local_refine", local_refine),
                                 (harness, "mpc_run", mpc_run)):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # objectives: the full-horizon cost and the MPC window cost
    for task_cls in (objectives.SmoothReaching, objectives.PreciseReaching):
        patch(task_cls, "cost", "objectives.cost")
        patch(task_cls, "window_cost", "objectives.cost")

    # harness: sweep points, CSV files and the orchestration around them
    patch(harness, "_oc_run", "harness.point")
    patch(harness, "_mpc_run", "harness.point")

    def after_write(args, kwargs, path):
        counts["csv.bytes"] += os.path.getsize(path)

    patch(harness, "write_csv", "harness.csv.write", after_write)
    patch(harness, "write_trajectory_csv", "harness.csv.trajectory")
    patch(harness, "run_experiment", "harness.run")

    def undo():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER_UNITS = {
    "arm.step.calls": "count",
    "arm.step.us": "us",
    "actuators.torques.calls": "count",
    "actuators.torques.us.muscle": "us",
    "actuators.torques.us.torque": "us",
    "control.rollout.calls": "count",
    "control.rollout.steps_per_call": "steps",
    "control.rollout.self_us_per_step": "us",
    "control.rollout.self_us_per_step.muscle": "us",
    "control.rollout.self_us_per_step.torque": "us",
    "control.rollout.diverged_ratio": "fraction",
    "control.zoh_control.calls": "count",
    "control.zoh_control.us": "us",
    "objectives.cost.calls": "count",
    "objectives.cost.us": "us",
    "optimizers.cma.gens": "count",
    "optimizers.cma.evals": "count",
    "optimizers.cma.self_ms_per_gen": "ms",
    "optimizers.cma.improve_ratio": "fraction",
    "optimizers.refine.calls": "count",
    "optimizers.refine.evals": "count",
    "optimizers.refine.accept_ratio": "fraction",
    "optimizers.refine.self_us_per_eval": "us",
    "control.mpc.warm_s": "s",
    "control.mpc.refine_s": "s",
    "control.mpc.execute_s": "s",
    "harness.points": "count",
    "harness.point_s": "s",
    "harness.csv.files": "count",
    "harness.csv.bytes": "bytes",
    "harness.csv.write_ms": "ms",
    "harness.orchestration_ms": "ms",
    # filled in by the benchmark: the sweep's mean final best cost (read
    # from the CSVs, ungated because it varies widely with the seed), and
    # the tracing overhead from plain and traced sweeps
    "objectives.final_cost": "cost",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced sweep (the benchmark adds the rest)."""
    s = tracer.span
    c = tracer.counts
    out = {}

    def per_call(span, scale):
        return _ratio(span.total, span.calls) * scale

    out["arm.step.calls"] = s("arm.step").calls
    out["arm.step.us"] = per_call(s("arm.step"), 1e6)
    muscle, torque = s("actuators.torques.muscle"), s("actuators.torques.torque")
    out["actuators.torques.calls"] = muscle.calls + torque.calls
    out["actuators.torques.us.muscle"] = per_call(muscle, 1e6)
    out["actuators.torques.us.torque"] = per_call(torque, 1e6)

    rollouts = {m: s("control.rollout." + m) for m in ("muscle", "torque", "other")}
    calls = sum(r.calls for r in rollouts.values())
    steps = {m: c["rollout.steps." + m] for m in rollouts}
    out["control.rollout.calls"] = calls
    out["control.rollout.steps_per_call"] = _ratio(sum(steps.values()), calls)
    out["control.rollout.self_us_per_step"] = 1e6 * _ratio(
        sum(r.self_time for r in rollouts.values()), sum(steps.values()))
    for m in ("muscle", "torque"):
        out["control.rollout.self_us_per_step." + m] = 1e6 * _ratio(
            rollouts[m].self_time, steps[m])
    out["control.rollout.diverged_ratio"] = _ratio(c["rollout.diverged"], calls)
    out["control.zoh_control.calls"] = s("control.zoh_control").calls
    out["control.zoh_control.us"] = per_call(s("control.zoh_control"), 1e6)

    out["objectives.cost.calls"] = s("objectives.cost").calls
    out["objectives.cost.us"] = per_call(s("objectives.cost"), 1e6)

    cma = s("optimizers.cma")
    out["optimizers.cma.gens"] = c["cma.gens"]
    out["optimizers.cma.evals"] = c["cma.evals"]
    out["optimizers.cma.self_ms_per_gen"] = 1e3 * _ratio(cma.self_time, c["cma.gens"])
    out["optimizers.cma.improve_ratio"] = _ratio(c["cma.improved"],
                                                 c["cma.gens"] - c["cma.runs"])
    refine = s("optimizers.refine")
    out["optimizers.refine.calls"] = refine.calls
    out["optimizers.refine.evals"] = c["refine.evals"]
    out["optimizers.refine.accept_ratio"] = _ratio(
        c["refine.accepts"], c["refine.evals"] - refine.calls)
    out["optimizers.refine.self_us_per_eval"] = 1e6 * _ratio(
        refine.self_time, c["refine.evals"])
    for phase in ("warm", "refine", "execute"):
        out[f"control.mpc.{phase}_s"] = c[f"mpc.{phase}_s"]

    point = s("harness.point")
    out["harness.points"] = point.calls
    out["harness.point_s"] = per_call(point, 1.0)
    out["harness.csv.files"] = s("harness.csv.write").calls
    out["harness.csv.bytes"] = c["csv.bytes"]
    out["harness.csv.write_ms"] = 1e3 * (s("harness.csv.trajectory").self_time
                                         + s("harness.csv.write").total)
    out["harness.orchestration_ms"] = 1e3 * s("harness.run").self_time
    return out
