"""Time a revision against the working tree in alternating benchmark pairs.

    python tools/bench_pairs.py REV --workload W --pairs N --out BENCH_7.json
                                [--seed S] [--seconds T]

Run from the root of the repository. REV (a commit, branch or tag) is
unpacked with `git archive` into `.bench_build/parent`: exactly its
committed files, as a fresh checkout has them, with no worktree entry left
in `.git`. The working tree is unpacked the same way into
`.bench_build/change`: its tracked and new files, the ones `git add -A`
would stage (ignored files are left out), written as a tree through a
temporary index, so neither the real index nor any ref changes. Both
sides then run from fresh copies with the same file layout and no
`__pycache__` to start from. Then `perfbench/run.py --workload W --trace
0` runs N times on each side, one pair at a time, REV first in the
even-numbered pairs and the working tree first in the odd ones, so a
drift in the host's speed does not favour one side.

The result goes into the --out file (a BENCH_<n>.json at the repository
root, by the roadmap's convention), under the workload's name; the
entries of other workloads already in the file are kept. For each
workload it holds:

- every run: its side, its place in the pair, each end-to-end metric's
  value (perfbench's trimmed mean), the error rate, the output digest and
  any problems the run reported;
- each side's median, quartiles and interquartile range per metric;
- per metric, the pairs the working tree won and lost (a tie counts for
  neither side), the exact two-sided sign-test p-value of that split
  (sign_p; it draws no random numbers: 9 wins of 10 give 0.021, 8 of 10
  give 0.109), the median over the pairs of log(change / parent)
  (log_ratio_median; exp of it minus 1 is the paired relative change, and
  unlike the change of the medians it compares each run only with the run
  beside it), the relative change of the median, whether that change
  exceeds the parent's interquartile range, and whether the working
  tree's median is worse than the parent's by more than the bound in
  BENCHMARK.json;
- whether every run on each side gave the same digest, and the two
  digests;
- the machine info perfbench reports, the commit of each side, and the
  tree the change side ran.

The script changes nothing under perfbench/ and removes both unpacked
copies when it ends. It exits 1 if any run failed or gave a digest that
differs from the first run of its side.
"""

import argparse
import datetime
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
# the keys of perfbench's machine info that do not change between runs
MACHINE = ("nproc", "cpu_model", "python", "numpy", "blas", "caller_env",
           "sweep_env")


def git(*args, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True, env=env).stdout.strip()


def working_tree() -> str:
    """The id of a tree of the working tree's tracked and new files, the
    ones `git add -A` stages, built in a temporary index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def unpack(treeish: str, side: str) -> Path:
    """Unpack a commit's or a tree's files into .bench_build/<side>."""
    where = ROOT / ".bench_build" / side
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", treeish],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(where)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {treeish} failed")
    return where


def sign_test(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p-value of `wins` against `losses`
    (ties left out): twice the binomial(n, 1/2) tail at the smaller count,
    at most 1."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def run_once(checkout: Path, args) -> dict:
    """One perfbench run in `checkout`: its report, or the failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0"]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    report_path = (checkout / "perfbench" / "_results"
                   / f"{args.workload}-seed{args.seed}-trace0.json")
    if proc.returncode != 0 or not report_path.exists():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"ok": False, "exit": proc.returncode, "error": " | ".join(tail)}
    report = json.loads(report_path.read_text())
    report_path.unlink()       # a later failed run must not read this one
    return {"ok": True, "report": report}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, metrics) -> dict:
    """Medians, quartiles, wins and bound checks of the successful pairs."""
    sides = {"parent": [], "change": []}
    for run in runs:
        if run["ok"]:
            sides[run["side"]].append(run)
    pairs = {}
    for run in runs:
        if run["ok"]:
            pairs.setdefault(run["pair"], {})[run["side"]] = run
    whole = [p for p in pairs.values() if len(p) == 2]
    out = {"pairs_complete": len(whole),
           "runs_failed": sum(not r["ok"] for r in runs)}
    for side, side_runs in sides.items():
        digests = sorted({r["digest"] for r in side_runs})
        out[f"{side}_digests"] = digests
    out["digests_equal"] = (len(out["parent_digests"]) == 1
                            and out["parent_digests"] == out["change_digests"])
    out["metrics"] = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for side, side_runs in sides.items():
            values = [r["metrics"][name] for r in side_runs]
            if values:
                q1, q2, q3 = quartiles(values)
                entry[side] = {"median": q2, "q1": q1, "q3": q3,
                               "iqr": q3 - q1, "n": len(values)}
        wins = losses = 0
        log_ratios = []
        for pair in whole:
            p, c = pair["parent"]["metrics"][name], pair["change"]["metrics"][name]
            if c != p:
                better = c < p if lower else c > p
                wins += better
                losses += not better
            if p > 0 and c > 0:
                log_ratios.append(math.log(c / p))
        entry["wins"], entry["losses"] = wins, losses
        entry["sign_p"] = sign_test(wins, losses)
        # None when a pair has a value a log ratio cannot take (0 or less)
        complete = whole and len(log_ratios) == len(whole)
        entry["log_ratio_median"] = (statistics.median(log_ratios)
                                     if complete else None)
        if "parent" in entry and "change" in entry:
            p_med, c_med = entry["parent"]["median"], entry["change"]["median"]
            worse = (c_med - p_med) if lower else (p_med - c_med)
            entry["rel_change"] = (c_med - p_med) / p_med if p_med else None
            entry["beyond_parent_iqr"] = abs(c_med - p_med) > entry["parent"]["iqr"]
            entry["worse_than_bound"] = worse > m["bound"] * abs(p_med)
        out["metrics"][name] = entry
    err = {side: max((r["error_rate"] for r in side_runs), default=None)
           for side, side_runs in sides.items()}
    out["error_rate_max"] = err
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", help="the revision to compare against, e.g. HEAD~1")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", required=True,
                   help="the JSON file to write, e.g. BENCH_7.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="perfbench's --seconds; its default when absent")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "perfbench" / "run.py").is_file():
        print("bench_pairs: run from the repository root", file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commit = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    tree = working_tree()
    change = {"commit": git("rev-parse", "HEAD"), "tree": tree,
              "dirty": tree != git("rev-parse", "HEAD^{tree}")}
    dirs = {"parent": unpack(commit, "parent"), "change": unpack(tree, "change")}
    runs, machine = [], None
    try:
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for place, side in enumerate(order):
                result = run_once(dirs[side], args)
                run = {"pair": pair, "side": side, "first": place == 0,
                       "ok": result["ok"]}
                if result["ok"]:
                    report = result["report"]
                    machine = machine or {k: report["machine"][k] for k in MACHINE}
                    run.update(
                        metrics={m["name"]: report["metrics"][m["name"]]["value"]
                                 for m in metrics},
                        error_rate=report["error_rate"]["value"],
                        digest=report["digest"], problems=report["problems"],
                        repeats=report.get("repeats"))
                else:
                    run.update(exit=result["exit"], error=result["error"])
                runs.append(run)
                shown = (f"wall_s {run['metrics']['wall_s']:.4f}" if run["ok"]
                         else f"FAILED {run['error']}")
                print(f"pair {pair} {side:6s} {shown}", flush=True)
    finally:
        for where in dirs.values():
            shutil.rmtree(where, ignore_errors=True)
        try:
            (ROOT / ".bench_build").rmdir()
        except OSError:
            pass
    summary = summarize(runs, metrics)
    path = ROOT / args.out
    bench = json.loads(path.read_text()) if path.exists() else {}
    bench.setdefault("workloads", {})[args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed {args.seed} --trace 0"
                   + (f" --seconds {args.seconds}" if args.seconds else ""),
        "parent": {"rev": args.rev, "commit": commit},
        "change": change,
        "pairs": args.pairs,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "machine": machine, "summary": summary, "runs": runs}
    path.write_text(json.dumps(bench, indent=2) + "\n")
    for name, entry in summary["metrics"].items():
        if "parent" in entry and "change" in entry:
            paired = entry["log_ratio_median"]
            paired = "n/a" if paired is None else f"{math.expm1(paired):+.1%}"
            print(f"  {name:12s} parent {entry['parent']['median']:.6g} "
                  f"(IQR {entry['parent']['iqr']:.3g})  change "
                  f"{entry['change']['median']:.6g}  "
                  f"{entry['rel_change']:+.1%}  paired {paired}  wins "
                  f"{entry['wins']}/{summary['pairs_complete']}  sign p "
                  f"{entry['sign_p']:.3g}")
    print(f"  digests equal: {summary['digests_equal']}; wrote {path.name}")
    bad = summary["runs_failed"] or len(summary["parent_digests"]) > 1 \
        or len(summary["change_digests"]) > 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
