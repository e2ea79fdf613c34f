"""The checkers must count a wrong answer as failed.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT)]

import checks  # noqa: E402
import run  # noqa: E402
from apa_toolkit.counterexample import counterexample  # noqa: E402
from apa_toolkit.difference import over_diff, under_diff  # noqa: E402
from apa_toolkit.distance import DistanceParams, state_distances  # noqa: E402
from apa_toolkit.refinement import compute_refinement  # noqa: E402
from tests.fixtures import (deferral_pair, interval_implementation_diff,  # noqa: E402
                            interval_implementation_in, interval_pair, refining_pair)

HALF = Fraction(1, 2)


def test_satisfies_checker_rejects_a_flipped_verdict():
    n1, n2 = interval_pair()
    p = interval_implementation_diff()   # implements the wide n1, not n2
    assert checks.check_satisfies(True, p, n1)
    assert checks.check_satisfies(False, p, n2)
    assert not checks.check_satisfies(False, p, n1)
    assert not checks.check_satisfies(True, p, n2)


def test_chain_checker_rejects_a_false_refinement():
    assert checks.check_chain_verdict(True)
    assert not checks.check_chain_verdict(False)


def test_under_checker_rejects_a_set_outside_the_difference():
    n1, n2 = deferral_pair()
    assert checks.check_under_sound(under_diff(n1, n2, 1), n1, n2, 2, 4)
    # n1's own implementations include ones that implement n2 too.
    assert not checks.check_under_sound(n1, n1, n2, 2, 4)


def test_counterexample_checker_rejects_a_non_separating_implementation():
    n1, n2 = interval_pair()
    assert checks.check_counterexample(counterexample(n1, n2), n1, n2)
    assert not checks.check_counterexample(interval_implementation_in(), n1, n2)
    assert not checks.check_counterexample(None, n1, n2)


def test_accepted_checker_rejects_a_wrong_acceptance():
    assert checks.check_accepted(*refining_pair(), prefix=3)
    n1, n2 = interval_pair()
    assert not checks.check_accepted(n1, n2, prefix=40)


def test_over_checker_rejects_a_difference_missing_members():
    n1, n2 = interval_pair()
    assert checks.check_over(over_diff(n1, n2), n1, n2, prefix=40)
    assert not checks.check_over(n2, n1, n2, prefix=40)


def test_under_output_checker_rejects_an_automaton_outside_the_difference():
    n1, n2 = interval_pair()
    assert checks.check_under(under_diff(n1, n2, 2), n1, n2) is True
    assert checks.check_under(n2, n1, n2) is False


def test_cli_exit_checker():
    assert checks.check_cli_exit("check", 1)
    assert not checks.check_cli_exit("check", 2)
    assert not checks.check_cli_exit("diff-over", 1)
    assert not checks.check_cli_exit("counterexample", 3)


def test_distance_checker_rejects_broken_properties():
    n1, n2 = interval_pair()
    table = state_distances(n1, n2, DistanceParams(lam=0.5))
    incompatible = checks.incompatible_pairs(n1, n2)
    relation = compute_refinement(n1, n2).relation
    assert checks.check_distances(table, 0.5, incompatible, relation)
    assert checks.check_interval_distance(table, n1, n2, HALF, 1e-9)

    above_lambda = replace(table, d={**table.d, ("s0", "t0"): 0.75})
    assert not checks.check_distances(above_lambda, 0.5, incompatible, relation)
    assert not checks.check_interval_distance(above_lambda, n1, n2, HALF, 1e-9)
    assert not checks.check_distances(replace(table, converged=False), 0.5,
                                      incompatible, relation)
    pair = next(iter(incompatible))
    assert not checks.check_distances(replace(table, d={**table.d, pair: 0.0}), 0.5,
                                      incompatible, relation)
    # A pair of the refinement relation must sit at exactly 0.
    m1, m2 = refining_pair()
    good = state_distances(m1, m2, DistanceParams(lam=0.5))
    related = compute_refinement(m1, m2).relation
    assert checks.check_distances(good, 0.5, checks.incompatible_pairs(m1, m2), related)
    nudged = replace(good, d={**good.d, ("s0", "t0"): 0.01})
    assert not checks.check_distances(nudged, 0.5, checks.incompatible_pairs(m1, m2), related)


def test_interval_grid_rederivation_gives_one_twentieth():
    assert checks.interval_grid_distance(*interval_pair(), HALF) == Fraction(1, 20)


def test_tally_counts_wrong_raised_unverified_and_changed_answers():
    first = [("a", True), ("b", False), ("c", run.QueryError(ValueError("x"))), ("d", 1)]
    ok = [True, False, False, checks.UNVERIFIED]
    assert run.tally(ok, [first]) == (4, 3, 1)
    changed = [("a", False), ("b", False), ("c", run.QueryError(ValueError("x"))), ("d", 1)]
    assert run.tally(ok, [first, changed]) == (8, 7, 3)
    assert run.tally(ok, [first, first[:2]]) == (8, 6, 4)
