"""Grid enumeration and the exhaustive satisfaction checker."""
from __future__ import annotations

import random
import re
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from apa_toolkit import constraints as C
from apa_toolkit.difference import under_diff
from apa_toolkit.errors import (GridTooCoarseError, InputError, PreconditionError,
                                 ResourceLimitError)
from apa_toolkit.generators import random_pair
from apa_toolkit.model import Modality, make_apa, pa_as_apa, validate_pa
from apa_toolkit.oracle import (GridSpec, brute_satisfies,
                                check_inclusion_sampled,
                                enumerate_implementations)
from apa_toolkit.refinement import satisfies
from tests.fixtures import (deferral_pair, interval_pair, may_gap_pair,
                            refining_pair)


def test_grid_spec_validation():
    with pytest.raises(InputError):
        GridSpec(denominator=0)
    with pytest.raises(InputError):
        GridSpec(max_states=0)


def test_fixture_enumeration_counts():
    grid = GridSpec(denominator=10)
    n1, n2 = interval_pair()
    # [3/10, 7/10] in tenths: exactly the five splits 3/7, 4/6, 5/5, 6/4, 7/3.
    assert len(list(enumerate_implementations(n1, grid))) == 5
    # [2/5, 3/5] in tenths: the three middle splits.
    assert len(list(enumerate_implementations(n2, grid))) == 3
    d1, d2 = deferral_pair()
    # Unconstrained two-state split: 11 grid points; capped loop: 6.
    assert len(list(enumerate_implementations(d1, grid))) == 11
    assert len(list(enumerate_implementations(d2, grid))) == 6
    m1, m2 = may_gap_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # One optional transition doubles the single required choice.
        assert len(list(enumerate_implementations(m1, grid))) == 2
        assert len(list(enumerate_implementations(m2, grid))) == 1


def test_enumerated_implementations_are_valid_and_satisfy_their_source():
    grid = GridSpec(denominator=10)
    for n in (*interval_pair(), *deferral_pair()):
        for p in enumerate_implementations(n, grid):
            assert validate_pa(p).ok
            assert satisfies(p, n)[0]
            assert brute_satisfies(p, n)


def test_grid_too_coarse_for_a_required_transition():
    n = make_apa(states=["s", "t"], actions=["a"], ap=["p"],
                 labeling={"s": [[]], "t": [["p"]]},
                 transitions=[("s", "a", "c", Modality.MUST)], initial=["s"],
                 constraints={"c": C.point_constraint({"t": F(1, 4), "s": F(3, 4)})})
    with pytest.raises(GridTooCoarseError):
        list(enumerate_implementations(n, GridSpec(denominator=10)))
    # The finer grid resolves it.
    assert len(list(enumerate_implementations(n, GridSpec(denominator=4)))) == 1


def test_enumeration_yields_each_transition_set_of_a_state_once():
    # Two transitions of s on one action share the grid points half-half and
    # all-on-t, so different picks give the same concrete transitions.
    n = make_apa(states=["s", "t"], actions=["a"], ap=["p"],
                 labeling={"s": [[]], "t": [["p"]]},
                 transitions=[("s", "a", "any", Modality.MUST),
                              ("s", "a", "half", Modality.MAY)],
                 initial=["s"],
                 constraints={"any": C.TRUE, "half": C.atom({"t": 1}, ">=", F(1, 2))})
    stay, split, go = (C.Distribution.of(m) for m in (
        {"s": 1}, {"s": F(1, 2), "t": F(1, 2)}, {"t": 1}))
    sets = [frozenset((t.action, t.distribution) for t in p.transitions)
            for p in enumerate_implementations(n, GridSpec(denominator=2))]
    assert len(sets) == len(set(sets))
    assert set(sets) == {frozenset(("a", mu) for mu in picks) for picks in (
        [stay], [stay, split], [stay, go], [split], [split, go], [go])}


def test_required_transition_with_empty_constraint_names_the_state():
    # under_diff emits a reachable state q2|r2|b|1 whose required constraint
    # is empty; no grid can help, so the error blames the state, not the grid.
    n = under_diff(*random_pair(random.Random(8)), 2)
    state = next(s for s in n.states if str(s) == "q2|r2|b|1")
    with pytest.raises(PreconditionError, match=re.escape(repr(state))):
        list(enumerate_implementations(n, GridSpec(denominator=10, max_states=20)))


def test_optional_transition_without_grid_point_warns_and_drops():
    n = make_apa(states=["s", "t"], actions=["a"], ap=["p"],
                 labeling={"s": [[]], "t": [["p"]]},
                 transitions=[("s", "a", "c", Modality.MAY)], initial=["s"],
                 constraints={"c": C.point_constraint({"t": F(1, 4), "s": F(3, 4)})})
    with pytest.warns(UserWarning):
        impls = list(enumerate_implementations(n, GridSpec(denominator=10)))
    assert len(impls) == 1          # only the transition-free implementation
    assert impls[0].transitions == ()


def test_state_cap_guards_enumeration():
    n1, _ = interval_pair()
    with pytest.raises(ResourceLimitError):
        list(enumerate_implementations(n1, GridSpec(denominator=10, max_states=2)))


def test_brute_satisfies_on_fixture_implementations():
    from tests.fixtures import (deferral_implementation_late,
                                deferral_implementation_split,
                                interval_implementation_diff,
                                interval_implementation_in)
    n1, n2 = interval_pair()
    assert brute_satisfies(interval_implementation_in(), n1)
    assert brute_satisfies(interval_implementation_in(), n2)
    assert brute_satisfies(interval_implementation_diff(), n1)
    assert not brute_satisfies(interval_implementation_diff(), n2)
    d1, d2 = deferral_pair()
    assert brute_satisfies(deferral_implementation_split(), d2)
    assert not brute_satisfies(deferral_implementation_late(), d2)


def test_brute_satisfies_pair_cap():
    from tests.fixtures import interval_implementation_in
    n1, _ = interval_pair()
    with pytest.raises(ResourceLimitError):
        brute_satisfies(interval_implementation_in(), n1, cap=2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_brute_and_fast_checkers_agree_on_random_pairs(seed):
    rng = random.Random(seed)
    n1, n2 = random_pair(rng)
    grid = GridSpec(denominator=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, p in enumerate(enumerate_implementations(n1, grid)):
            if i >= 5:
                break
            assert brute_satisfies(p, n2) == satisfies(p, n2)[0]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_brute_checker_accepts_the_identity_lift(seed):
    rng = random.Random(seed)
    n1, _ = random_pair(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, p in enumerate(enumerate_implementations(n1, GridSpec(denominator=10))):
            if i >= 3:
                break
            assert brute_satisfies(p, pa_as_apa(p))


def test_inclusion_reports():
    grid = GridSpec(denominator=10)
    r1, r2 = refining_pair()
    rep = check_inclusion_sampled(lambda p: brute_satisfies(p, r1),
                                  lambda p: brute_satisfies(p, r2),
                                  source=r1, grid=grid)
    # The refining side pins a single point distribution on this grid.
    assert rep.verdict == "pass" and rep.sampled == 1 and not rep.violations

    n1, n2 = interval_pair()
    rep = check_inclusion_sampled(lambda p: brute_satisfies(p, n1),
                                  lambda p: brute_satisfies(p, n2),
                                  source=n1, grid=grid)
    assert rep.verdict == "fail"
    assert rep.sampled == 5 and len(rep.violations) == 2  # the 3/7 and 7/3 splits

    rep = check_inclusion_sampled(lambda p: True, lambda p: True,
                                  source=n1, grid=grid, limit=2)
    assert rep.sampled == 2
