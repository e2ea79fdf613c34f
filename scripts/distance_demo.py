#!/usr/bin/env python3
"""Print behavioral-distance tables for the fixture pairs: both directions,
several discount factors, the sampled implementation-distance surrogate, and
the level-K convergence of the difference approximations.
"""
from __future__ import annotations

import argparse
import sys
import warnings
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from apa_toolkit.difference import over_diff, under_diff
from apa_toolkit.distance import (DistanceParams, syntactic_distance,
                                  thorough_distance_lower_bound)
from apa_toolkit.oracle import GridSpec, enumerate_implementations
from tests.fixtures import all_failing_pairs, refining_pair


def sampler(grid, cap):
    def take(n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return list(islice(enumerate_implementations(n, grid), cap))
    return take


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lambdas", type=float, nargs="+",
                    default=[0.25, 0.5, 0.75])
    ap.add_argument("--grid", type=int, default=10)
    ap.add_argument("--limit", type=int, default=8,
                    help="implementations sampled per side for the surrogate")
    args = ap.parse_args()

    pairs = dict(all_failing_pairs())
    pairs["refining"] = refining_pair()
    take = sampler(GridSpec(denominator=args.grid), args.limit)

    print(f"{'pair':>10} {'lambda':>7} {'d(n1,n2)':>10} "
          f"{'d(n2,n1)':>10} {'sampled d_t<=':>13}")
    for name, (n1, n2) in pairs.items():
        for lam in args.lambdas:
            params = DistanceParams(lam=lam)
            fwd = syntactic_distance(n1, n2, params)
            bwd = syntactic_distance(n2, n1, params)
            lb = thorough_distance_lower_bound(n1, n2, take, params)
            print(f"{name:>10} {lam:7.2f} {fwd:10.6f} {bwd:10.6f} {lb:13.6f}")

    print("\nconvergence of the difference approximations (lambda = 0.5):")
    params = DistanceParams(lam=0.5)
    for name, (n1, n2) in all_failing_pairs().items():
        over = over_diff(n1, n2)
        for k in (1, 2, 3, 4):
            dk = syntactic_distance(over, under_diff(n1, n2, k), params)
            print(f"{name:>10}  d(over, under({k})) = {dk:.6f}  "
                  f"(bound {0.5 ** k:.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
