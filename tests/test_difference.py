"""Structure and theorem smoke-checks for the difference constructions."""
from __future__ import annotations

import pickle
import random

import pytest

from apa_toolkit import constraints as C
from apa_toolkit.difference import (DifferenceAPA, ProductState, over_diff,
                                    prune_unreachable, under_diff)
from apa_toolkit.errors import InputError, PreconditionError
from apa_toolkit.generators import random_pair
from apa_toolkit.model import make_apa, validate
from apa_toolkit.oracle import GridSpec, brute_satisfies, enumerate_implementations
from apa_toolkit.refinement import refines, satisfies
from tests.fixtures import (all_failing_pairs, deferral_implementation_split,
                            deferral_pair, interval_implementation_diff,
                            interval_pair, refining_pair)


def test_difference_needs_a_failed_refinement():
    n1, n2 = refining_pair()
    with pytest.raises(PreconditionError):
        over_diff(n1, n2)
    with pytest.raises(PreconditionError):
        under_diff(n1, n2, 2)


def test_equal_product_states_built_apart_hash_equal():
    """A product state hashes as the tuple of its four fields; equal states
    built apart, copied or read back from a document hash equal."""
    a = ProductState("s0", "t0", "a", 2)
    b = ProductState("".join(["s", "0"]), "t0", "a", 1 + 1)
    assert a is not b and a == b and hash(a) == hash(b) == hash(("s0", "t0", "a", 2))
    assert {a: 1}[b] == 1 and len({a, b}) == 1
    for copy in (pickle.loads(pickle.dumps(a)), b._replace(k=2)):
        assert copy == a and hash(copy) == hash(a)
    moved = a._replace(k=3)
    assert moved == ProductState("s0", "t0", "a", 3) and hash(moved) == hash(("s0", "t0", "a", 3))
    assert repr(a) == "ProductState(s1='s0', s2='t0', e='a', k=2)"
    from apa_toolkit.io_cli import parse, serialize
    diff = under_diff(*deferral_pair(), 2)
    read = parse(serialize(diff))
    assert read.states == diff.states and set(read.states) == set(diff.states)
    assert [hash(s) for s in read.states] == [hash(s) for s in diff.states]


def test_under_diff_level_must_be_positive():
    n1, n2 = interval_pair()
    with pytest.raises(InputError):
        under_diff(n1, n2, 0)


def test_over_diff_structure():
    n1, n2 = interval_pair()
    diff = over_diff(n1, n2)
    assert isinstance(diff, DifferenceAPA)
    assert diff.level is None
    assert diff.source_initial == ("s0", "t0")
    assert all(isinstance(s, ProductState) for s in diff.states)
    assert all(s.k is None for s in diff.states)
    assert diff.initial == (ProductState("s0", "t0", "a"),)
    # Product states carry the left component's valuation.
    for s in diff.states:
        assert diff.valuations(s) == (n1.valuation_of(s.s1),)
    assert validate(diff).ok
    tags = {type(expr).__name__ for _, expr in diff.constraints}
    assert "PhiB" in tags
    # Derived constraints only ever range over the product's own states.
    for _, expr in diff.constraints:
        if isinstance(expr, (C.BotLift, C.PhiB)):
            assert set(expr.cells) <= set(diff.states)


def test_under_diff_structure_and_levels():
    d1, d2 = deferral_pair()
    diff = under_diff(d1, d2, 3)
    assert diff.level == 3
    assert diff.initial == (ProductState("u0", "v0", "a", 3),)
    ks = {s.k for s in diff.states if s.k is not None}
    assert ks and ks <= {1, 2, 3}
    assert validate(diff).ok
    assert any(expr.tag == "phi-B-k" for _, expr in diff.constraints)


def test_construction_is_deterministic():
    n1, n2 = interval_pair()
    assert over_diff(n1, n2) == over_diff(n1, n2)
    assert under_diff(n1, n2, 2) == under_diff(n1, n2, 2)


def test_mismatched_root_valuations_reduce_to_the_left_automaton():
    n1 = make_apa(states=["s"], actions=["a"], ap=["p"], labeling={"s": [[]]},
                  transitions=[], initial=["s"], constraints={})
    n2 = make_apa(states=["t"], actions=["a"], ap=["p"], labeling={"t": [["p"]]},
                  transitions=[], initial=["t"], constraints={})
    assert not refines(n1, n2)
    assert over_diff(n1, n2) == n1
    assert under_diff(n1, n2, 2) == n1


def test_under_diff_chain_refines_upward():
    d1, d2 = deferral_pair()
    assert refines(under_diff(d1, d2, 1), under_diff(d1, d2, 2))
    assert refines(under_diff(d1, d2, 2), under_diff(d1, d2, 3))


def test_true_difference_members_satisfy_the_over_approximation():
    n1, n2 = interval_pair()
    diff = over_diff(n1, n2)
    p = interval_implementation_diff()
    assert satisfies(p, n1)[0] and not satisfies(p, n2)[0]
    assert brute_satisfies(p, diff)


def test_over_approximation_admits_spurious_implementations():
    d1, d2 = deferral_pair()
    diff = over_diff(d1, d2)
    p = deferral_implementation_split()
    assert brute_satisfies(p, d2)      # satisfies the subtracted automaton...
    assert brute_satisfies(p, diff)    # ...yet the over-approximation admits it


def test_under_approximation_implementations_lie_in_the_true_difference():
    d1, d2 = deferral_pair()
    diff = under_diff(d1, d2, 1)
    count = 0
    for p in enumerate_implementations(diff, GridSpec(denominator=4)):
        assert brute_satisfies(p, d1)
        assert not brute_satisfies(p, d2)
        count += 1
        if count >= 8:
            break
    assert count > 0


def test_every_difference_is_closed_under_reachability():
    """The builder emits only states reachable from the initial ones, so
    `prune_unreachable` returns every difference as it is: over and under at
    K = 1..3, on the failing fixtures and the failing `random_pair` seeds
    0-29."""
    pairs = list(all_failing_pairs().values())
    pairs += [(n1, n2) for n1, n2 in map(random_pair, map(random.Random, range(30)))
              if not refines(n1, n2)]
    diffs = [d for n1, n2 in pairs
             for d in (over_diff(n1, n2), *(under_diff(n1, n2, k) for k in (1, 2, 3)))]
    assert len(diffs) == 108
    for d in diffs:
        assert prune_unreachable(d) is d


def test_prune_unreachable_preserves_membership():
    n1, n2 = interval_pair()
    diff = over_diff(n1, n2)
    pruned = prune_unreachable(diff)
    assert set(pruned.states) <= set(diff.states)
    assert pruned.initial == diff.initial
    assert validate(pruned).ok
    assert prune_unreachable(pruned) == pruned
    p = interval_implementation_diff()
    assert brute_satisfies(p, pruned)
