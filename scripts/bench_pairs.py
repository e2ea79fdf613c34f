#!/usr/bin/env python3
"""Compare the working tree with a parent commit on the benchmark, in
alternating pairs of `perfbench/run.py` runs.

    python3 scripts/bench_pairs.py PARENT_REF [--pairs 10] [--seconds 20]
        [--out RESULTS.json]

The parent's committed files are exported (`git archive PARENT_REF`) into a
temporary directory, which is removed at the end; nothing is written into
`.git`.  Every workload of `BENCHMARK.json` runs, since no workload may
get worse.  Pair i runs both sides with seed 901 + i, the parent first on
even pairs and the change first on odd ones, so a drift of the machine
falls on both sides alike.  Prints one markdown table row per workload and
end-to-end metric of `BENCHMARK.json`: each side's median [q1–q3], the
ratio change/parent of the medians, and the pairs the change wins (ties
count for neither side).  `--out` writes every run's result line as JSON.
Exits 1 if any run answers wrongly or fails a query.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIRST_SEED = 901


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (one value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def table(runs: list[dict], metrics: list[dict]) -> list[str]:
    lines = ["| workload | metric | parent median [q1–q3] | change median [q1–q3] "
             "| change/parent | change wins |", "|---|---|---|---|---|---|"]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            side = {s: {r["pair"]: r["result"]["metrics"][name]["value"] for r in runs
                        if r["workload"] == workload and r["side"] == s}
                    for s in ("parent", "change")}
            pairs = sorted(side["parent"])
            wins = sum((side["change"][p] < side["parent"][p]) if lower
                       else (side["change"][p] > side["parent"][p]) for p in pairs)
            (pm, p1, p3), (cm, c1, c3) = (spread([side[s][p] for p in pairs])
                                          for s in ("parent", "change"))
            digits = 3 if metric["unit"] == "s" else 2
            lines.append(f"| `{workload}` | `{name}` | {pm:.{digits}f} [{p1:.{digits}f}–"
                         f"{p3:.{digits}f}] | {cm:.{digits}f} [{c1:.{digits}f}–{c3:.{digits}f}] "
                         f"| {cm / pm:.3f} | {wins}/{len(pairs)} |")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", default=None, help="write every run's result here as JSON")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 0:
        ap.error("--pairs must be >= 1 and --seconds >= 0")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]

    runs = []
    with tempfile.TemporaryDirectory() as parent:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x"], cwd=parent, input=archive, check=True)
        for workload in workloads:
            for pair in range(args.pairs):
                seed = FIRST_SEED + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run(Path(parent) if side == "parent" else ROOT, workload, seed,
                                 args.seconds)
                    runs.append({"workload": workload, "pair": pair, "side": side,
                                 "seed": seed, "result": result})
                    print(json.dumps(runs[-1]), file=sys.stderr)

    if args.out:
        Path(args.out).write_text(json.dumps({
            "command": f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {args.seconds:g} --trace 0",
            "machine": f"{platform.machine()}, Python {platform.python_version()}",
            "order": f"{args.pairs} alternating parent/change pairs per workload, seeds "
                     f"{FIRST_SEED}-{FIRST_SEED + args.pairs - 1}, parent first on even "
                     f"pairs; parent is {args.parent}",
            "runs": runs}, indent=1) + "\n")
    print("\n".join(table(runs, benchmark["end_to_end"])))
    bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
    for r in bad:
        print(f"wrong or failed: {r['workload']} pair {r['pair']} {r['side']}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
