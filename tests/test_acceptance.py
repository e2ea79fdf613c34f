"""Acceptance gate: one test per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every numeric threshold (pair counts, tolerances, grid choices,
enumeration caps) is stated inline; enumeration caps are deterministic
prefixes of the lexicographic implementation stream, so reruns check the
same population.
"""
from __future__ import annotations

import random
import time
import warnings
from fractions import Fraction as F
from functools import lru_cache
from itertools import islice

from apa_toolkit.counterexample import counterexample
from apa_toolkit.difference import over_diff, prune_unreachable, under_diff
from apa_toolkit.distance import (DistanceParams, syntactic_distance,
                                  thorough_distance_lower_bound)
from apa_toolkit.generators import random_pair
from apa_toolkit.model import APA
from apa_toolkit.oracle import (GridSpec, brute_satisfies,
                                enumerate_implementations)
from apa_toolkit.refinement import refines, satisfies
from tests.fixtures import (all_failing_pairs, deferral_pair,
                            interval_pair, refining_pair)
from tests.oracles import brute_lp_max, grid_masses, naive_member

GRID10 = GridSpec(denominator=10)

# Exhaustive enumeration of a difference automaton needs a grid aligned with
# each fixture's constraint bounds; these are the coarsest such choices.
FIXTURE_DENOM = {"interval": 10, "deferral": 2, "may_gap": 10}


def _impls(n: APA, grid: GridSpec, cap: int | None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stream = enumerate_implementations(n, grid)
        yield from (stream if cap is None else islice(stream, cap))


@lru_cache(maxsize=None)
def _failing_corpus(count: int) -> tuple:
    """The first `count` seeds (ascending from 0) whose generated pair fails
    refinement; deterministic, so every criterion sees the same corpus."""
    out = []
    seed = 0
    while len(out) < count:
        n1, n2 = random_pair(random.Random(seed))
        if not refines(n1, n2):
            out.append((seed, n1, n2))
        seed += 1
        if seed > 40 * count:
            raise RuntimeError("failing pairs should be abundant")
    return tuple(out)


def test_criterion_01_fast_checker_agrees_with_brute_force_on_200_random_pairs():
    # >= 200 random deterministic SVNF pairs (<=4 states, <=2 actions,
    # tenth-grid interval bounds); every enumerated (implementation, automaton)
    # query must agree between the two checkers; whole sweep well under 5 min.
    start = time.time()
    pairs = 0
    queries = 0
    disagreements = []
    for seed in range(200):
        n1, n2 = random_pair(random.Random(seed))
        pairs += 1
        for p in _impls(n1, GRID10, cap=3):
            for n in (n1, n2):
                fast = satisfies(p, n)[0]
                brute = brute_satisfies(p, n)
                queries += 1
                if fast != brute:
                    disagreements.append((seed, fast, brute))
    assert pairs == 200 and queries >= 400
    assert disagreements == []
    assert time.time() - start < 300


def test_criterion_02_implementations_in_the_true_difference_satisfy_over_diff():
    # >= 50 failing pairs; every checked grid implementation of the left side
    # that refutes the right side must satisfy the over-approximating
    # difference (first 12 implementations per pair, exhaustively verified
    # with the brute-force checker).
    corpus = _failing_corpus(200)[:50]
    witnesses = 0
    for seed, n1, n2 in corpus:
        diff = over_diff(n1, n2)
        for p in _impls(n1, GRID10, cap=12):
            if brute_satisfies(p, n1) and not brute_satisfies(p, n2):
                witnesses += 1
                assert brute_satisfies(p, diff), f"violation at seed {seed}"
    assert len(corpus) == 50
    assert witnesses >= 100          # the check must not be vacuous


def test_criterion_03_under_diff_chain_refines_and_stays_inside_the_difference():
    # Monotone chain: under(K) refines under(K+1) for K=1..4 on every failing
    # fixture.  Soundness: under(K) refines the left side exactly (refinement
    # equals implementation-set inclusion for deterministic automata), and no
    # enumerated implementation satisfies the right side (exhaustive up to a
    # 200-per-level prefix on the fixture-aligned grid).
    for name, (n1, n2) in all_failing_pairs().items():
        diffs = {k: under_diff(n1, n2, k) for k in range(1, 6)}
        for k in range(1, 5):
            assert refines(diffs[k], diffs[k + 1]), (name, k)
            assert refines(diffs[k], n1), (name, k)
        grid = GridSpec(denominator=FIXTURE_DENOM[name], max_states=64)
        for k in (1, 2, 3):
            pruned = prune_unreachable(diffs[k])
            for p in _impls(pruned, grid, cap=200):
                assert satisfies(p, n1)[0], (name, k)
                assert not satisfies(p, n2)[0], (name, k)


def test_criterion_04_every_difference_member_satisfies_some_bounded_under_diff():
    # >= 50 sampled implementations in the true difference; each must satisfy
    # under(K) for some K bounded by |states(P)| * |states(N2)|.
    members = 0
    for seed, n1, n2 in _failing_corpus(200):
        for p in _impls(n1, GRID10, cap=4):
            if not (brute_satisfies(p, n1) and not brute_satisfies(p, n2)):
                continue
            bound = len(p.states) * len(n2.states)
            hit = None
            for k in range(1, bound + 1):
                if satisfies(p, under_diff(n1, n2, k))[0]:
                    hit = k
                    break
            assert hit is not None, f"no level up to {bound} at seed {seed}"
            members += 1
        if members >= 50:
            break
    assert members >= 50


def test_criterion_05_discount_bounds_between_difference_approximations():
    # lambda = 0.5.  Distance from under(5) to under(2) is at most
    # lambda^2 = 0.25; distance from over to under(K) is at most 0.5^K.
    params = DistanceParams(lam=0.5, vertex_dim_cap=24)
    for name, (n1, n2) in all_failing_pairs().items():
        d52 = syntactic_distance(under_diff(n1, n2, 5), under_diff(n1, n2, 2),
                                 params)
        assert d52 <= 0.25 + 1e-6, (name, d52)
        over = over_diff(n1, n2)
        for k in (1, 2, 3, 4):
            dk = syntactic_distance(over, under_diff(n1, n2, k), params)
            assert dk <= 0.5 ** k + 1e-6, (name, k, dk)


def test_criterion_06_sampled_implementation_distance_never_exceeds_syntactic():
    # The sampled lower bound on the implementation-set distance stays below
    # the syntactic distance on every fixture pair and 100 random pairs
    # (8 grid implementations per side).
    def sampler(n: APA):
        return _impls(n, GRID10, cap=8)

    fixture_pairs = list(all_failing_pairs().values()) + [refining_pair()]
    for n1, n2 in fixture_pairs:
        lb = thorough_distance_lower_bound(n1, n2, sampler)
        assert lb <= syntactic_distance(n1, n2) + 1e-6
    for seed in range(100):
        n1, n2 = random_pair(random.Random(seed))
        lb = thorough_distance_lower_bound(n1, n2, sampler)
        assert lb <= syntactic_distance(n1, n2) + 1e-6, seed


def test_criterion_07_counterexamples_separate_under_both_checkers():
    # >= 200 failing pairs; the generated implementation must satisfy the left
    # side and refute the right side under the fast checker AND the
    # brute-force checker -- four verdicts per pair, zero violations.
    corpus = _failing_corpus(200)
    assert len(corpus) == 200
    for seed, n1, n2 in corpus:
        cex = counterexample(n1, n2)
        assert satisfies(cex, n1)[0], seed
        assert not satisfies(cex, n2)[0], seed
        assert brute_satisfies(cex, n1), seed
        assert not brute_satisfies(cex, n2), seed


def test_criterion_08_interval_fixture_distance_rederived_by_grid_transport():
    # Re-derive the frozen value 0.05 from scratch: enumerate both constraint
    # sets on the tenth grid, solve every transport problem with an
    # independent vertex-enumeration LP, take max-min, discount by 0.5.
    n1, n2 = interval_pair()
    phi1 = n1.constraint(n1.transitions[0].constraint_id)
    phi2 = n2.constraint(n2.transitions[0].constraint_id)
    sat1 = [m for m in grid_masses(("s1", "s2"), 10) if naive_member(phi1, m)]
    sat2 = [m for m in grid_masses(("t1", "t2"), 10) if naive_member(phi2, m)]
    assert len(sat1) == 5 and len(sat2) == 3

    # Ground metric between successor states: 0 when valuations agree.
    gap = {(a, b): (0 if n1.valuation_of(a) == n2.valuation_of(b) else 1)
           for a in ("s1", "s2") for b in ("t1", "t2")}

    def transport(mu1, mu2) -> F:
        variables = [f"z_{a}_{b}" for a in ("s1", "s2") for b in ("t1", "t2")]
        rows = []
        for a in ("s1", "s2"):
            rows.append(({f"z_{a}_{b}": 1 for b in ("t1", "t2")}, "==", mu1[a]))
        for b in ("t1", "t2"):
            rows.append(({f"z_{a}_{b}": 1 for a in ("s1", "s2")}, "==", mu2[b]))
        objective = {f"z_{a}_{b}": -gap[a, b]
                     for a in ("s1", "s2") for b in ("t1", "t2")}
        value, _ = brute_lp_max(objective, rows, variables)
        return -value

    worst = max(min(transport(m1, m2) for m2 in sat2) for m1 in sat1)
    assert worst == F(1, 10)
    rederived = F(1, 2) * worst
    assert abs(syntactic_distance(n1, n2, DistanceParams(lam=0.5))
               - float(rederived)) <= 1e-9


def test_criterion_09_over_diff_is_strict_while_under_diff_is_not():
    # Loop-then-exit automaton vs. a bound on deferral: the over-approximating
    # difference admits a grid implementation that also satisfies the right
    # side (strict over-approximation), while no enumerated implementation of
    # under(K), K=1..3, does (level 1 exhaustively, levels 2-3 on a
    # 400-implementation prefix of the half-grid stream).
    n1, n2 = deferral_pair()
    grid = GridSpec(denominator=2, max_states=64)

    over = prune_unreachable(over_diff(n1, n2))
    spurious = None
    for p in _impls(over, grid, cap=3000):
        if satisfies(p, n2)[0] and brute_satisfies(p, n2):
            spurious = p
            break
    assert spurious is not None

    for k in (1, 2, 3):
        pruned = prune_unreachable(under_diff(n1, n2, k))
        cap = None if k == 1 else 400
        seen = 0
        for p in _impls(pruned, grid, cap=cap):
            seen += 1
            assert not satisfies(p, n2)[0], k
        assert seen > 0
