"""Output checks on one sweep's CSV set.

A sweep point fails when its files are missing or unparsable, when its
final cost is not finite, or when its trace does not end at the configured
evaluation budget. A sweep-level failure (the aggregate is not reproduced
by `harness.summarize`, a summary row is missing) fails every point. Reruns
are compared by digest, which must not change.
"""

import csv
import glob
import hashlib
import math
import os
import tempfile

SUMMARY_COLUMNS = {"morphology", "mass", "seed", "final_cost"}


def digest(out_dir) -> str:
    """sha256 over the names and bytes of every file in the directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def _has_rows(path):
    try:
        return len(_rows(path)) > 0
    except (OSError, csv.Error):
        return False


def _final_trace_row(path, budget):
    """(final best cost, problem or None) of one trace CSV."""
    try:
        rows = _rows(path)
        last = rows[-1]
        cost = float(last["best_cost"])
        evals = int(last["evals"])
    except (OSError, csv.Error, IndexError, KeyError, ValueError) as exc:
        return None, f"trace unreadable ({exc!r})"
    if not math.isfinite(cost):
        return None, f"final cost {cost}"
    if evals != budget:
        return cost, f"trace ends at {evals} evaluations, budget is {budget}"
    return cost, None


def check_sweep(out_dir, workload, tiny=False):
    """Check one finished sweep.

    Returns (final_cost, point_digests, problems): the mean final best cost
    over its runs, a digest per point (for comparing reruns) and a list of
    (point, problem) pairs, where point None means the whole sweep.
    """
    budget = workload.evals_per_point(tiny)
    expected = workload.points(tiny)
    problems = []
    costs = {}
    point_files = {}
    if workload.kind == "robustness_weights":
        summary = os.path.join(out_dir, "robustness.csv")
        try:
            rows = _rows(summary)
        except (OSError, csv.Error) as exc:
            return None, {}, [(None, f"robustness.csv unreadable ({exc!r})")]
        if rows and not SUMMARY_COLUMNS <= rows[0].keys():
            return None, {}, [(None, "robustness.csv lacks columns "
                                     f"{sorted(SUMMARY_COLUMNS - rows[0].keys())}")]
        for row in rows:
            tag = f"{row['morphology']}_m{row['mass']}_seed{row['seed']}"
            trajectory = os.path.join(out_dir, f"robust_{tag}.csv")
            trace = os.path.join(out_dir, f"robust_{tag}_trace.csv")
            point_files[tag] = [trajectory, trace]
            _, problem = _final_trace_row(trace, budget)
            try:
                costs[tag] = float(row["final_cost"])
            except ValueError:
                costs[tag] = math.nan
            if not math.isfinite(costs[tag]):
                problem = problem or f"final cost {row['final_cost']!r}"
            if not _has_rows(trajectory):
                problem = problem or f"robust_{tag}.csv has no trajectory"
            if problem:
                problems.append((tag, problem))
    else:
        traces = sorted(glob.glob(os.path.join(out_dir, "trace_*.csv")))
        for path in traces:
            tag = os.path.basename(path)
            point_files[tag] = [path]
            cost, problem = _final_trace_row(path, budget)
            costs[tag] = cost
            if problem:
                problems.append((tag, problem))
        problem = _aggregate_problem(out_dir, traces)
        if problem:
            problems.append((None, problem))
    if len(point_files) != expected:
        problems.append((None, f"{len(point_files)} points written, "
                               f"{expected} configured"))
    finite = [c for c in costs.values() if c is not None and math.isfinite(c)]
    final_cost = sum(finite) / len(finite) if finite else None
    digests = {}
    for tag, files in point_files.items():
        h = hashlib.sha256()
        for path in files:
            try:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except OSError:
                h.update(b"missing")
        digests[tag] = h.hexdigest()
    return final_cost, digests, problems


def _aggregate_problem(out_dir, traces):
    """harness.summarize over the trace CSVs must give aggregate.csv exactly."""
    from myoarm import harness
    aggregate = os.path.join(out_dir, "aggregate.csv")
    if not traces:
        return "no trace CSVs"
    with tempfile.TemporaryDirectory(dir=os.path.dirname(out_dir)) as tmp:
        again = os.path.join(tmp, "aggregate.csv")
        try:
            harness.summarize(traces, again)
            with open(aggregate, "rb") as a, open(again, "rb") as b:
                same = a.read() == b.read()
        except (OSError, ValueError) as exc:
            return f"summarize failed ({exc!r})"
    return None if same else "summarize(traces) differs from aggregate.csv"
