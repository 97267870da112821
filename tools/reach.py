"""List the lines of src/myoarm that no golden run reaches.

    PYTHONPATH=src python tools/reach.py OUT_DIR

Runs the golden set of tools/golden.py once, writing it under OUT_DIR
(which must be empty or absent, as for golden.py), in this process and
under a `sys.settrace` line collector that records only frames whose code
lives in a file of src/myoarm. The package is imported after the
collector starts, so its module-level lines count too. Python 3.11 has no
`sys.monitoring`, and `coverage` is not a dependency.

A file's executable lines are the line numbers its compiled code objects
map to (`co_lines`), nested functions and classes included. For each file
the report prints how many of them ran, then each run of consecutive
unreached lines as `first-last` with the source of its first line, and
last the totals. A refactor meant to keep the numbers rests on what the
golden digests pin; this shows what they cannot pin because no golden run
executes it. Unit tests may still reach those lines. The script only
reports: it exits 0 whatever it finds, and 1 only if the golden run fails.
The traced run takes several times as long as golden.py alone.
"""

import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "myoarm"


def executable_lines(path: Path) -> set:
    """The line numbers the code objects compiled from path map to."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def collect(run):
    """Call run() under the line collector; returns {file: reached lines}."""
    hits = defaultdict(set)
    ours = {}                     # co_filename -> resolved path in PACKAGE, or None

    def local(frame, event, arg):
        if event == "line":
            hits[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = Path(os.path.realpath(name))
            ours[name] = path if path.parent == PACKAGE else None
        return local if ours[name] is not None else None

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def ranges(lines):
    """Sorted line numbers as (first, last) runs of consecutive numbers."""
    out = []
    for n in sorted(lines):
        if out and n == out[-1][1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return out


def report(hits) -> str:
    rows = []
    total = reached_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        reached = lines & hits.get(path, set())
        total += len(lines)
        reached_total += len(reached)
        source = path.read_text().splitlines()
        rows.append(f"{path.relative_to(ROOT)}: {len(reached)} of "
                    f"{len(lines)} executable lines reached")
        for first, last in ranges(lines - reached):
            span = str(first) if first == last else f"{first}-{last}"
            rows.append(f"  {span:>9}  {source[first - 1].strip()}")
    rows.append(f"total: {reached_total} of {total} executable lines reached")
    return "\n".join(rows)


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    sys.path.insert(0, str(ROOT / "tools"))

    def run():
        import golden          # imports myoarm, so inside the collector
        golden.write_golden(argv[1])

    print(report(collect(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
