#!/usr/bin/env python3
"""Record every simplex pivot of a benchmark workload, to show that a change
leaves the LPs as they were.

    python3 scripts/pivot_records.py [WORKLOAD ...] [--root CHECKOUT]

Each workload (all of `BENCHMARK.json` by default) runs in its own child
process with PYTHONHASHSEED=0, on the sources of `--root` (default: this
checkout).  The child wraps `_lp._pivot` to record (p, q, det, pivot entry,
rows, columns) for each pivot, runs the workload's `build(SEED, ...)` and
then one round of its queries, emptying the toolkit's caches before each
query, as `perfbench/run.py` does.  It prints one JSON line per workload:
the pivots of set-up and of the round, the calls of each `_lp` entry point
in the round and the round's pivots per entry point, each pivot counted
under the outermost entry point running (so `solve` counts the pivots of
the `prepare` and `reprice` it calls), the queries that raised, and the
sha256 of the sorted set-up records, of the sorted round records and of
the `repr` of the round's answers.  Two checkouts make the same LPs on a
workload when the pivot, entry-point and digest fields of their lines agree;
the order of the pivots is left out, so a change may reorder the LPs it
makes.  The `work` field is not part of that comparison: it counts the
round's `Fraction` constructions and `_lp.compile_row` calls, the work done
around the LPs, which a change may cut without changing them.  The script
exits non-zero when a query of some workload raised.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 901
ENTRY_POINTS = ("prepare", "reprice", "reprice_value", "solve", "feasible_point",
                "feasible", "feasible_base", "slack_point", "feasible_with")


def digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def child(root: Path, workload: str) -> dict:
    """Run in the child: set-up and one round, with the pivots recorded."""
    sys.path[:0] = [str(root / "src"), str(root), str(root / "perfbench")]
    import run
    import workloads
    from apa_toolkit import _lp

    records: list = []
    pivot = _lp._pivot
    running: list = []  # the entry points now running, outermost first
    by_entry: Counter = Counter()

    def recording(rows, cost, basis, p, q, det):
        records.append((p, q, det, rows[p][q], len(rows), len(rows[0])))
        by_entry[running[0] if running else "(none)"] += 1
        return pivot(rows, cost, basis, p, q, det)

    calls: Counter = Counter()

    def counted(name):
        original = getattr(_lp, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            running.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                running.pop()
        return wrapper

    work: Counter = Counter()
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        work["fraction_new"] += 1
        return new(cls, *args, **kwargs)

    compile_row = _lp.compile_row

    def counting_compile_row(*args):
        work["compile_row"] += 1
        return compile_row(*args)

    _lp._pivot = recording
    with tempfile.TemporaryDirectory() as tmp:
        workloads.reset_caches()
        tasks = workloads.WORKLOADS[workload]().build(SEED, Path(tmp))
        setup = sorted(records)
        records.clear()
        by_entry.clear()
        for name in ENTRY_POINTS:
            if hasattr(_lp, name):  # an older checkout may lack some
                setattr(_lp, name, counted(name))
        Fraction.__new__, _lp.compile_row = staticmethod(counting_new), counting_compile_row
        try:
            answers, _ = run.run_round(tasks, workloads.reset_caches)
        finally:
            Fraction.__new__, _lp.compile_row = staticmethod(new), compile_row
    return {"workload": workload, "seed": SEED,
            "setup_pivots": len(setup), "round_pivots": len(records),
            "calls": dict(sorted(calls.items())),
            "round_pivots_by_entry": dict(sorted(by_entry.items())),
            "raised": [label for label, answer in answers if isinstance(answer, run.QueryError)],
            "setup_sha256": digest(setup), "round_sha256": digest(sorted(records)),
            "answers_sha256": digest(answers),
            "work": {"fraction_new": work["fraction_new"], "compile_row": work["compile_row"]}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="the checkout whose sources run (default: this one)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    root = args.root.resolve()
    if args.child:
        line = child(root, args.workloads[0])
        print(json.dumps(line))
        return 1 if line["raised"] else 0
    names = args.workloads or [w["name"] for w in
                               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    status = 0
    for name in names:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", "--root", str(root), name],
            env={**os.environ, "PYTHONHASHSEED": "0"}, cwd=root,
            stdout=subprocess.PIPE, text=True)
        print(out.stdout.strip().splitlines()[-1] if out.stdout.strip() else
              json.dumps({"workload": name, "exit": out.returncode}), flush=True)
        status = status or out.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
