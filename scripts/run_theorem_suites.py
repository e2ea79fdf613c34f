#!/usr/bin/env python3
"""Exercise the three headline guarantees on the fixture pairs and a seeded
random population, printing one verdict line per suite:

  * every sampled implementation in a true difference satisfies the
    over-approximating difference;
  * under-approximating differences refine upward in the level and stay
    inside the true difference;
  * generated counterexamples separate failing pairs under both the fast
    checker and the brute-force oracle.

Exits nonzero if any suite finds a violation.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
import warnings
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from apa_toolkit.counterexample import counterexample
from apa_toolkit.difference import over_diff, prune_unreachable, under_diff
from apa_toolkit.errors import GridTooCoarseError, PreconditionError, ResourceLimitError
from apa_toolkit.generators import random_pair
from apa_toolkit.oracle import (GridSpec, brute_satisfies,
                                enumerate_implementations)
from apa_toolkit.refinement import refines, satisfies
from tests.fixtures import all_failing_pairs


def impls(n, grid, cap):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield from islice(enumerate_implementations(n, grid), cap)


def over_suite(pairs, grid, cap) -> tuple[int, int]:
    checked = violations = 0
    for n1, n2 in pairs:
        diff = over_diff(n1, n2)
        for p in impls(n1, grid, cap):
            if brute_satisfies(p, n1) and not brute_satisfies(p, n2):
                checked += 1
                violations += not brute_satisfies(p, diff)
    return checked, violations


def under_suite(pairs, grid, cap, max_level) -> tuple[int, int]:
    checked = violations = skipped = inconsistent = capped = 0
    for n1, n2 in pairs:
        # Pruning drops unreachable product states, which keeps the chain
        # check linear in the part of the construction that matters.
        diffs = {k: prune_unreachable(under_diff(n1, n2, k))
                 for k in range(1, max_level + 1)}
        for k in range(1, max_level):
            violations += not refines(diffs[k], diffs[k + 1])
            checked += 1
        # The difference's break regions may fall strictly between grid
        # points; skip the membership sample for such pairs.
        try:
            for p in impls(diffs[1], grid, cap):
                checked += 1
                ok = satisfies(p, n1)[0] and not satisfies(p, n2)[0]
                violations += not ok
        except GridTooCoarseError:
            skipped += 1
        except PreconditionError:
            inconsistent += 1
        except ResourceLimitError:
            capped += 1
    if skipped:
        print(f"    (membership sample skipped for {skipped} pairs: "
              f"no grid point inside the difference constraints)")
    if inconsistent:
        print(f"    (membership sample skipped for {inconsistent} pairs: "
              f"a reachable difference state requires an empty constraint)")
    if capped:
        print(f"    (membership sample skipped for {capped} pairs: "
              f"the difference has more states than the enumerator takes)")
    return checked, violations


def cex_suite(pairs) -> tuple[int, int]:
    checked = violations = 0
    for n1, n2 in pairs:
        cex = counterexample(n1, n2)
        verdicts = (satisfies(cex, n1)[0], not satisfies(cex, n2)[0],
                    brute_satisfies(cex, n1), not brute_satisfies(cex, n2))
        checked += 1
        violations += not all(verdicts)
    return checked, violations


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40,
                    help="random pairs to draw (default 40)")
    ap.add_argument("--grid", type=int, default=10, help="grid denominator")
    ap.add_argument("--limit", type=int, default=6,
                    help="implementations sampled per automaton")
    ap.add_argument("--max-level", type=int, default=4,
                    help="top level for the refinement chain")
    args = ap.parse_args()

    grid = GridSpec(denominator=args.grid)
    fixture = list(all_failing_pairs().values())
    randoms = [random_pair(random.Random(s)) for s in range(args.seeds)]
    failing = [(n1, n2) for n1, n2 in randoms if not refines(n1, n2)]
    print(f"fixture pairs: {len(fixture)}; random pairs: {len(randoms)} "
          f"({len(failing)} failing)")

    failed = False
    for name, fn, population in (
            ("over-approximation", lambda ps: over_suite(ps, grid, args.limit),
             fixture + failing),
            ("under-approximation", lambda ps: under_suite(
                ps, grid, args.limit, args.max_level), fixture + failing),
            ("counterexample", cex_suite, fixture + failing)):
        t0 = time.time()
        checked, violations = fn(population)
        verdict = "pass" if violations == 0 else "FAIL"
        failed |= violations > 0
        print(f"{name:>20}: {checked:4d} checks, {violations} violations "
              f"-> {verdict}  ({time.time() - t0:.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
