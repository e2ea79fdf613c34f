"""Benchmark runner: one workload, one process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Set-up starts the interpreter and imports the toolkit (timed in fresh child
processes) and builds the workload's inputs (with cold caches); each part
is repeated and its median counts.  Then whole rounds of the workload's
fixed queries run for `--seconds`: a round starts only if it is expected to
end in time, and the first always runs.  The toolkit's caches are emptied
before every query, so a query costs the same whatever ran before it.  Each
query's time is its median over the run's rounds; the median round is the
sum of those.  All times are CPU time, which leaves out the time the
machine gives to other work.  The first round's answers are checked by the
independent checkers, later rounds must repeat them.  `--trace 0` reports
the end-to-end metrics, `--trace 1` wraps the layers and reports per-layer
metrics, writing spans and a summary under perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
UNVERIFIED = "unverified"   # checks.UNVERIFIED, without importing the toolkit


class QueryError:
    """The answer recorded for a query that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return isinstance(other, QueryError) and other.text == self.text

    def __repr__(self) -> str:
        return f"QueryError({self.text!r})"


def run_round(tasks, reset) -> tuple[list, list]:
    """Run every task once, calling `reset` before each query; return
    [(label, answer)] and per-query seconds."""
    records, latencies = [], []

    def record(label, fn):
        reset()
        t0 = time.process_time()
        try:
            answer = fn()
        except Exception as exc:  # a failed query is counted, the run goes on
            answer = QueryError(exc)
        latencies.append(time.process_time() - t0)
        records.append((label, answer))
        return answer

    for task in tasks:
        task(record)
    return records, latencies


def verified(workload, records) -> list:
    """Per record: False for an exception, else the checkers' word (True,
    False or UNVERIFIED)."""
    good = [i for i, (_, answer) in enumerate(records) if not isinstance(answer, QueryError)]
    oks = workload.verify([records[i] for i in good])
    out = [False] * len(records)
    for i, ok in zip(good, oks):
        out[i] = ok
    return out


def tally(ok: list, rounds: list) -> tuple[int, int, int]:
    """(attempted, failed, wrong) over rounds of records, given the checkers'
    word on the first round; a later round must repeat the first."""
    first = rounds[0]
    attempted = failed = wrong = 0
    for records in rounds:
        attempted += max(len(records), len(first))
        for i in range(max(len(records), len(first))):
            same = i < len(records) and i < len(first) and records[i] == first[i]
            if same and ok[i] is True:
                continue
            failed += 1
            raised = i < len(records) and isinstance(records[i][1], QueryError)
            if not (raised or (same and ok[i] == UNVERIFIED)):
                wrong += 1
    return attempted, failed, wrong


def import_s() -> float:
    """Median CPU seconds a fresh interpreter takes to start and import the
    benchmark and the toolkit, over SETUP_REPEATS child processes."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "import tracing, workloads; print(time.process_time())")
    paths = [str(ROOT / "src"), str(ROOT), str(ROOT / "perfbench")]
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code, *paths], capture_output=True,
                             text=True, check=True).stdout)
        for _ in range(SETUP_REPEATS))


def median_latencies(rounds: list) -> list:
    """Per query position, the median of its CPU seconds over the rounds
    that reached it."""
    width = max(len(latencies) for latencies in rounds)
    return [statistics.median(lat[i] for lat in rounds if i < len(lat))
            for i in range(width)]


def layer_metrics(begin: dict, end: dict, dnf_info: tuple[int, int],
                  round_cpu_s: float) -> tuple[dict, dict]:
    """Per-layer metrics {name: (value, unit)} between two tracer snapshots,
    and the calls and self time of every wrapped function."""
    self_ns = end["self_ns"] - begin["self_ns"]
    calls = end["calls"] - begin["calls"]
    counters = end["counters"] - begin["counters"]

    def layer_s(prefix: str) -> float:
        return sum(v for k, v in self_ns.items() if k.startswith(prefix)) / 1e9

    hits, misses = dnf_info
    return {
        "lp.solves": (calls["lp.solve"], "count"),
        "lp.self_s": (layer_s("lp."), "s"),
        "lp.tableau_cells": (counters["lp.tableau_cells"], "count"),
        "lp.objective_bits_max": (end["bits_max"], "bits"),
        "constraints.self_s": (layer_s("constraints."), "s"),
        "constraints.dnf_cover.calls": (calls["constraints.dnf_cover"], "count"),
        "constraints.dnf_cover.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                            "ratio"),
        "constraints.supportable_states.calls": (calls["constraints.supportable_states"],
                                                 "count"),
        "constraints.vertices.calls": (calls["constraints.vertices"], "count"),
        "model.self_s": (layer_s("model."), "s"),
        "model.accessor_calls": (counters["model.accessor_calls"], "count"),
        "model.is_deterministic.calls": (calls["model.is_deterministic"], "count"),
        "refinement.compute_refinement.calls": (calls["refinement.compute_refinement"],
                                                "count"),
        "refinement.sweeps": (counters["refinement.sweeps"], "count"),
        "refinement.pair_checks": (counters["refinement.pair_checks"], "count"),
        "refinement.refines.calls": (calls["refinement.refines"], "count"),
        "refinement.satisfies.calls": (calls["refinement.satisfies"], "count"),
        "difference.calls": (calls["difference.over_diff"] + calls["difference.under_diff"],
                             "count"),
        "difference.product_states": (counters["difference.product_states"], "count"),
        "difference.constraints": (counters["difference.constraints"], "count"),
        "counterexample.calls": (calls["counterexample.counterexample"], "count"),
        "distance.calls": (calls["distance.state_distances"], "count"),
        "distance.iterations": (counters["distance.iterations"], "count"),
        "distance.lp_solves": (counters["distance.lp_solves"], "count"),
        "io_cli.main.calls": (calls["io_cli.main"], "count"),
        "io_cli.bytes": (counters["io_cli.bytes"], "bytes"),
        "trace.round_cpu_s": (round_cpu_s, "s"),
    }, {name: {"calls": calls[name], "self_s": self_ns[name] / 1e9}
        for name in sorted(calls)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "apa_toolkit" / "__init__.py").is_file():
        print(f"error: no toolkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(1 if tracer else SETUP_REPEATS):
            workloads.reset_caches()
            if tracer:
                before = tracer.snapshot()
                dnf_before = workloads.cache_counts("dnf_cover")
                tracer.enabled = True
            t0 = time.process_time()
            workload = workloads.WORKLOADS[args.workload]()
            tasks = workload.build(args.seed, tmp)
            setup_times.append(time.process_time() - t0)

        rounds = []        # [(records, latencies)]
        traced = None
        run_start = time.perf_counter()
        run_end = run_start + args.seconds
        round_wall = 0.0   # wall time of the last round, to foresee the next
        while not rounds or time.perf_counter() + round_wall <= run_end:
            round_start = time.perf_counter()
            gc.collect()
            rounds.append(run_round(tasks, workloads.reset_caches))
            round_wall = time.perf_counter() - round_start
            if tracer and traced is None:
                hits, misses = workloads.cache_counts("dnf_cover")
                traced = (tracer.snapshot(), (hits - dnf_before[0], misses - dnf_before[1]))
        if tracer:
            tracer.enabled = False

        attempted, failed, wrong = tally(verified(workload, rounds[0][0]),
                                         [records for records, _ in rounds])
        query_s = median_latencies([latencies for _, latencies in rounds])
        round_cpu_s = sum(query_s)

        if tracer:
            metrics, per_function = layer_metrics(before, traced[0], traced[1], round_cpu_s)
            OUT.mkdir(parents=True, exist_ok=True)
            stem = OUT / f"trace-{args.workload}-seed{args.seed}"
            tracer.write_spans(stem.with_suffix(".spans.csv"))
            stem.with_suffix(".summary.json").write_text(json.dumps(
                {"metrics": {k: v for k, (v, _) in metrics.items()},
                 "functions": per_function, "rounds": len(rounds)}, indent=1) + "\n",
                encoding="utf-8")
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": (import_s() + statistics.median(setup_times), "s"),
                "round_cpu_s": (round_cpu_s, "s"),
                "query_cpu_gmean_ms": (statistics.geometric_mean(query_s) * 1e3, "ms"),
                "peak_rss_mb": (peak_kb / 1024, "MB"),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
