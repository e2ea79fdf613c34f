"""Refinement fixed point, pair classification, witnesses, satisfaction."""
from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from apa_toolkit import constraints as C
from apa_toolkit import oracle, refinement
from apa_toolkit.errors import PreconditionError
from apa_toolkit.generators import random_apa, random_pair
from apa_toolkit.model import Modality, is_deterministic, make_apa, make_pa, pa_as_apa
from apa_toolkit.oracle import GridSpec, enumerate_implementations
from apa_toolkit.refinement import (CaseLabel, breaking, compute_refinement,
                                    lemma_indplus_witness, refines, satisfies)
from tests.fixtures import (all_failing_pairs, deferral_implementation_late,
                            deferral_implementation_split, deferral_pair,
                            interval_implementation_diff,
                            incomparable_pairs, interval_implementation_in,
                            interval_pair, may_gap_pair, multi_piece_pair,
                            refining_pair)
from tests.test_constraints import STATES, _coeff, _convex_rows, _piece, _rhs
from tests.oracles import rational_row


# ---------------------------------------------------------------------------
# Refinement verdicts on the fixtures
# ---------------------------------------------------------------------------


def test_fixture_directions():
    n1, n2 = interval_pair()
    assert not refines(n1, n2)   # wide interval admits masses the narrow bans
    assert refines(n2, n1)       # narrow into wide holds
    assert refines(interval_pair()[0], interval_pair()[0])

    m1, m2 = refining_pair()
    assert refines(m1, m2)
    assert not refines(m2, m1)

    for name, (a, b) in all_failing_pairs().items():
        assert not refines(a, b), name


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_refinement_is_reflexive_on_random_automata(seed):
    n = random_apa(random.Random(seed))
    assert refines(n, n)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_refinement_implies_sampled_implementation_inclusion(seed):
    n1, n2 = random_pair(random.Random(seed))
    if not refines(n1, n2):
        return
    grid = GridSpec(denominator=10)
    for i, p in enumerate(enumerate_implementations(n1, grid)):
        if i >= 6:
            break
        assert satisfies(p, n2)[0]


# ---------------------------------------------------------------------------
# Pair classification
# ---------------------------------------------------------------------------


def test_interval_pair_classification():
    n1, n2 = interval_pair()
    analysis = compute_refinement(n1, n2)
    assert not analysis.refines

    case, bs = analysis.case_of("s0", "t0"), analysis.bsets_of("s0", "t0")
    assert case is CaseLabel.CASE3
    assert bs.of("f") == ("a",)
    assert bs.of("abcde") == ()

    assert analysis.case_of("s1", "t1") is CaseLabel.CASE1
    assert analysis.case_of("s2", "t2") is CaseLabel.CASE1
    assert analysis.case_of("s1", "t2") is CaseLabel.CASE2
    assert ("s1", "t1") in analysis.relation
    assert ("s0", "t0") not in analysis.relation


def test_missing_action_buckets():
    n1, n2 = may_gap_pair()
    analysis = compute_refinement(n1, n2)
    bs = analysis.bsets_of("s0", "t0")
    assert bs.of("a") == ("b",)   # left requires b, right allows none
    assert bs.of("e") == ("a",)   # right requires a, left merely may
    assert bs.of("bcdf") == ()


def test_deferral_pair_classification_and_index():
    d1, d2 = deferral_pair()
    analysis = compute_refinement(d1, d2)
    case, bs = analysis.case_of("u0", "v0"), analysis.bsets_of("u0", "v0")
    assert case is CaseLabel.CASE3
    assert bs.of("f") == ("a",)
    # Removed in the very first sweep: the forced correspondence routes all
    # loop mass onto the capped state, so no deferral is possible at depth 0.
    assert analysis.ind_of("u0", "v0") == 0
    assert breaking(analysis, "u0", "v0") == ("a",)


def test_breaking_requires_equal_valuations():
    n1, n2 = interval_pair()
    analysis = compute_refinement(n1, n2)
    with pytest.raises(PreconditionError):
        breaking(analysis, "s1", "t2")


def test_recursive_witness_distribution():
    d1, d2 = deferral_pair()
    analysis = compute_refinement(d1, d2)
    w = lemma_indplus_witness(analysis, "u0", "v0", "a")
    assert C.sat_member(d1.constraint("f1"), w.mu.mass)
    # The witness puts enough mass on the loop state to overrun the cap the
    # right side imposes, whatever the correspondence.
    assert w.mu["u0"] > F(1, 2)


def test_recursive_witness_preconditions():
    n1, n2 = interval_pair()
    analysis = compute_refinement(n1, n2)
    with pytest.raises(PreconditionError):
        lemma_indplus_witness(analysis, "s1", "t1", "a")  # pair still related


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------


def test_fixture_implementations():
    n1, n2 = interval_pair()
    p_in, p_diff = interval_implementation_in(), interval_implementation_diff()
    assert satisfies(p_in, n1)[0] and satisfies(p_in, n2)[0]
    assert satisfies(p_diff, n1)[0] and not satisfies(p_diff, n2)[0]

    d1, d2 = deferral_pair()
    p_split, p_late = deferral_implementation_split(), deferral_implementation_late()
    assert satisfies(p_split, d1)[0] and satisfies(p_split, d2)[0]
    assert satisfies(p_late, d1)[0] and not satisfies(p_late, d2)[0]


def test_satisfaction_returns_a_simulation_relation():
    n1, _ = interval_pair()
    ok, relation = satisfies(interval_implementation_in(), n1)
    assert ok and ("x0", "s0") in relation
    ok, relation = satisfies(interval_implementation_diff(), interval_pair()[1])
    assert not ok and relation is None


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_every_automaton_satisfies_its_own_lift(seed):
    n = random_apa(random.Random(seed))
    for i, p in enumerate(enumerate_implementations(n, GridSpec(denominator=10))):
        if i >= 4:
            break
        assert satisfies(p, pa_as_apa(p))[0]
        assert satisfies(p, n)[0]


def test_satisfaction_computes_supportable_states_once_per_constraint(monkeypatch):
    calls = []
    supportable = C.supportable_states
    monkeypatch.setattr(C, "supportable_states",
                        lambda phi, states: calls.append(phi) or supportable(phi, states))
    for n in (interval_pair()[0], deferral_pair()[0]):
        p = next(islice(enumerate_implementations(n, GridSpec(denominator=10)), 3, None))
        calls.clear()
        assert satisfies(p, n)[0]
        assert len(calls) <= len(n.constraints)


def test_satisfaction_makes_no_determinism_check(monkeypatch):
    d1, d2 = deferral_pair()
    from apa_toolkit.difference import under_diff
    diff = under_diff(d1, d2, 2)
    calls = []
    check = refinement.successor_table
    monkeypatch.setattr(refinement, "successor_table", lambda n: calls.append(n) or check(n))
    p_late = deferral_implementation_late()
    assert satisfies(p_late, d1)[0] and not satisfies(p_late, d2)[0]
    assert satisfies(interval_implementation_in(), interval_pair()[0])[0]
    assert satisfies(p_late, diff)[0]
    assert calls == []


def _shared_label_target(lo: F):
    """t1 and t2 both carry q, but only t0's constraint can reach t2 (with
    mass at least `lo`) and only t1's can reach t1, so the automaton is
    deterministic while a q-state of an implementation first relates to both,
    t1 listed first."""
    return make_apa(
        states=["t0", "t1", "t2"], actions=["a"], ap=["p", "q"],
        labeling={"t0": [["p"]], "t1": [["q"]], "t2": [["q"]]},
        transitions=[("t0", "a", "c0", Modality.MUST), ("t1", "a", "c1", Modality.MUST),
                     ("t2", "a", "c2", Modality.MUST)],
        initial=["t0"],
        constraints={"c0": C.and_(C.atom({"t2": 1}, ">=", lo), C.atom({"t1": 1}, "==", 0)),
                     "c1": C.point_constraint({"t1": 1}),
                     "c2": C.point_constraint({"t0": 1})})


def test_satisfaction_against_a_deterministic_target_with_shared_labels(monkeypatch):
    n, loose = _shared_label_target(F(1, 2)), _shared_label_target(F(0))
    assert is_deterministic(n)
    impls = list(enumerate_implementations(loose, GridSpec(denominator=10)))
    lps = []
    solve = refinement._lp.feasible
    monkeypatch.setattr(refinement._lp, "feasible",
                        lambda *args: lps.append(args) or solve(*args))
    verdicts = [satisfies(p, n)[0] for p in impls]
    assert lps  # a slice of two related targets takes the coupling LP
    assert verdicts == [oracle.brute_satisfies(p, n) for p in impls]
    assert True in verdicts and False in verdicts


def test_satisfaction_against_nondeterministic_targets():
    d1, d2 = deferral_pair()
    from apa_toolkit.difference import under_diff
    p_late = deferral_implementation_late()
    assert not satisfies(p_late, under_diff(d1, d2, 1))[0]
    assert satisfies(p_late, under_diff(d1, d2, 2))[0]
    assert satisfies(p_late, under_diff(d1, d2, 3))[0]


def test_satisfaction_decides_each_coupling_once_per_relation_slice(monkeypatch):
    d1, d2 = deferral_pair()
    from apa_toolkit.difference import under_diff
    diff = under_diff(d1, d2, 1)
    seen = []
    couple = refinement._coupling_feasible

    def recording(mu, phi, states2, relation):
        support = {s for s, m in mu.items() if m > 0}
        seen.append((tuple(mu.items()), phi,
                     frozenset(pair for pair in relation if pair[0] in support)))
        return couple(mu, phi, states2, relation)

    monkeypatch.setattr(refinement, "_coupling_feasible", recording)
    assert not satisfies(deferral_implementation_late(), diff)[0]
    assert seen and len(seen) == len(set(seen))


def test_refines_matches_relation_membership():
    n1, n2 = refining_pair()
    analysis = compute_refinement(n1, n2)
    assert analysis.refines
    assert ("s0", "t0") in analysis.relation
    assert analysis.fixpoint_index == len(analysis.history) - 1
    # History is a decreasing chain ending in a fixed point.
    for earlier, later in zip(analysis.history, analysis.history[1:]):
        assert later <= earlier


def test_refines_checks_determinism_once_per_automaton(monkeypatch):
    calls = []
    check = refinement.successor_table
    monkeypatch.setattr(refinement, "successor_table", lambda n: calls.append(n) or check(n))
    n1, n2 = random_pair(random.Random(0))
    refines(n1, n2)
    assert len(calls) == 2


def _deferral_chain():
    from apa_toolkit.difference import under_diff
    d1, d2 = deferral_pair()
    return under_diff(d1, d2, 1), under_diff(d1, d2, 2)


def _rows_key(rows) -> tuple:
    """LP rows as a hashable value, each row's coefficients in a fixed order."""
    return tuple((tuple(sorted(coeffs.items(), key=str)), rel, rhs) for coeffs, rel, rhs in rows)


def _left_covers(n) -> list:
    """The DNF cover of each distinct constraint of n's transitions."""
    return [C.dnf_cover(n.constraint(cid)) for cid in dict.fromkeys(
        t.constraint_id for t in n.transitions)]


def test_nondeterministic_refinement_computes_support_once_per_constraint(monkeypatch):
    """A left constraint's supportable states are the union of its nonempty
    pieces' supports: one `prepare_piece` per piece of every left constraint
    in one `_refines_nondet` call, and no `supportable_states` call."""
    u1, u2 = _deferral_chain()
    calls = []
    supportable, prepare = C.supportable_states, C.prepare_piece
    monkeypatch.setattr(C, "supportable_states",
                        lambda *args: calls.append("supportable") or supportable(*args))
    monkeypatch.setattr(C, "prepare_piece",
                        lambda piece, *args: calls.append(piece) or prepare(piece, *args))
    assert refinement._refines_nondet(u1, u2)
    pieces = [piece for cover in _left_covers(u1) for piece in cover]
    assert any(C.piece_point(piece, u1.states) is not None for piece in pieces)
    assert Counter(calls) == Counter(pieces)


def test_map_search_makes_one_feasible_base_per_left_piece(monkeypatch):
    """One `_refines_nondet` call makes one `feasible_base` per piece of each
    left constraint, for its support and all its map tests,
    however many right constraints, relation slices and sweeps meet it, and
    no `feasible_point`, `prepare` or `solve` at all."""
    u1, u2 = _deferral_chain()
    lp = refinement._lp
    bases, others = [], []
    feasible_base = lp.feasible_base

    def recording(rows, variables):
        base = feasible_base(rows, variables)
        bases.append((_rows_key(rows), base))
        return base
    monkeypatch.setattr(lp, "feasible_base", recording)
    for name in ("feasible_point", "prepare", "solve"):
        def counted(*args, original=getattr(lp, name), name=name):
            others.append(name)
            return original(*args)
        monkeypatch.setattr(lp, name, counted)
    assert refinement._refines_nondet(u1, u2)
    pieces = sum(len(cover) for cover in _left_covers(u1))
    assert len(bases) == pieces and len({key for key, _ in bases}) == pieces
    assert any(base is not None for _, base in bases) and others == []


def test_map_condition_prepares_each_piece_once_and_appends_the_pulled_back_rows(monkeypatch):
    """Each left piece is prepared once per `_refines_nondet` call
    (`feasible_base`), and every map test appends its pulled-back rows to
    that base: no `_lp.feasible` call is made."""
    u1, u2 = _deferral_chain()
    lp = refinement._lp
    counts = Counter()
    for name in ("feasible", "feasible_base", "feasible_with"):
        def counted(*args, original=getattr(lp, name), name=name):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(lp, name, counted)
    assert refinement._refines_nondet(u1, u2)
    pieces = [piece for cover in _left_covers(u1) for piece in cover]
    nonempty = sum(C.piece_point(piece, u1.states) is not None for piece in pieces)
    assert nonempty > 0
    assert counts["feasible"] == 0
    assert counts["feasible_base"] == len(pieces)
    assert counts["feasible_with"] >= nonempty


@pytest.mark.parametrize("pair", [interval_pair, deferral_pair])
def test_map_search_tests_each_base_and_pulled_back_rows_once(monkeypatch, pair):
    """Within one `refines` call, no prepared left piece meets the same
    pulled-back rows twice in `_lp.feasible_with`, whatever map, right
    constraint, relation slice or sweep they come from."""
    from apa_toolkit.difference import over_diff, under_diff
    n1, n2 = pair()
    seen = []
    feasible_with = refinement._lp.feasible_with

    def recording(base, rows):
        content = (tuple(base.var_index.items()), tuple(map(tuple, base.rows)),
                   tuple(base.basis), base.det)
        seen.append((content, _rows_key(rows)))
        return feasible_with(base, rows)
    monkeypatch.setattr(refinement._lp, "feasible_with", recording)
    u1, u2 = under_diff(n1, n2, 1), under_diff(n1, n2, 2)
    for left, right in ((u1, u2), (u1, n1), (u1, over_diff(n1, n2))):
        seen.clear()
        refines(left, right)
        assert len(seen) == len(set(seen))


def _rows_hold(rows, point) -> bool:
    """Do `rows`, strict ones on the shared slack as `_lp` enters them,
    hold at `point`?"""
    def holds(coeffs, rel, rhs):
        lhs = sum(c * point[v] for v, c in coeffs.items())
        return {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[rel]
    return all(holds(*rational_row(row)) for row in refinement._lp._slack_rows(rows))


def test_map_search_push_tests_reoptimize_the_prepared_piece_without_phase_one(monkeypatch):
    """The push tests of `refines(under(1), under(2))` on the interval
    fixture start from the piece's tableau at the optimum of the strict
    slack t: none runs phase 1, a test whose pulled-back rows hold at that
    vertex makes no pivot, and some test whose rows do not hold is answered
    False by the dual bound before any pivot."""
    from apa_toolkit.difference import under_diff
    lp = refinement._lp
    inside = {"on": False, "phase_one": 0, "pivots": 0}
    tests = []  # (rows hold at the base's vertex, pivots, verdict)
    phase_one, pivot, feasible_with = lp._phase_one, lp._pivot, lp.feasible_with

    def counted_phase_one(*args):
        inside["phase_one"] += inside["on"]
        return phase_one(*args)

    def counted_pivot(*args):
        inside["pivots"] += inside["on"]
        return pivot(*args)

    def recording(base, rows):
        if base.cost is None:  # the first question on a piece re-prices it for t
            lp._price_slack(base)
        hold = _rows_hold(rows, lp._vertex(base))
        inside.update(on=True, pivots=0)
        try:
            verdict = feasible_with(base, rows)
        finally:
            inside["on"] = False
        tests.append((hold, inside["pivots"], verdict))
        return verdict
    monkeypatch.setattr(lp, "_phase_one", counted_phase_one)
    monkeypatch.setattr(lp, "_pivot", counted_pivot)
    monkeypatch.setattr(lp, "feasible_with", recording)
    n1, n2 = interval_pair()
    assert refines(under_diff(n1, n2, 1), under_diff(n1, n2, 2))
    assert tests and inside["phase_one"] == 0
    held = [(pivots, verdict) for hold, pivots, verdict in tests if hold]
    assert held and all(pivots == 0 and verdict for pivots, verdict in held)
    assert any(not hold and pivots == 0 and not verdict for hold, pivots, verdict in tests)


def test_map_search_push_tests_with_no_pivot_copy_no_base_row(monkeypatch):
    """The push tests of `refines(under(1), under(2))` on the interval
    fixture read the base's rows without copying them: a test that makes no
    pivot pads no copy of the base (`_lp._padded`), and one that pivots pads
    one copy."""
    from apa_toolkit.difference import under_diff
    lp = refinement._lp
    inside = {"on": False, "copies": 0, "pivots": 0}
    tests = []  # (pivots, copies)
    padded, pivot, feasible_with = lp._padded, lp._pivot, lp.feasible_with

    def counted_padded(*args):
        inside["copies"] += inside["on"]
        return padded(*args)

    def counted_pivot(*args):
        inside["pivots"] += inside["on"]
        return pivot(*args)

    def recording(base, rows):
        if base.cost is None:  # the first question on a piece re-prices it for t
            lp._price_slack(base)
        inside.update(on=True, copies=0, pivots=0)
        try:
            return feasible_with(base, rows)
        finally:
            inside["on"] = False
            tests.append((inside["pivots"], inside["copies"]))
    monkeypatch.setattr(lp, "_padded", counted_padded)
    monkeypatch.setattr(lp, "_pivot", counted_pivot)
    monkeypatch.setattr(lp, "feasible_with", recording)
    n1, n2 = interval_pair()
    assert refines(under_diff(n1, n2, 1), under_diff(n1, n2, 2))
    assert any(pivots == 0 for pivots, _ in tests)
    assert all(copies == (pivots > 0) for pivots, copies in tests)


@pytest.mark.parametrize("pair, verdicts", [
    (interval_pair, (True, True, True, True)),
    (deferral_pair, (True, True, True, False)),
])
def test_map_search_decides_rows_that_name_no_state_without_an_lp(monkeypatch, pair, verdicts):
    """A pulled-back row that names no left state compares 0 with its
    right-hand side: if false, the complement piece is skipped, and if true
    the row is dropped.  No such row reaches `_lp.feasible_with`, and the
    verdicts of under(1) against under(2), n1 and over, and of over against
    under(1), stay as they were."""
    from apa_toolkit.difference import over_diff, under_diff
    n1, n2 = pair()
    rows_seen = []
    feasible_with = refinement._lp.feasible_with

    def recording(base, rows):
        rows_seen.extend(rows)
        return feasible_with(base, rows)
    monkeypatch.setattr(refinement._lp, "feasible_with", recording)
    u1, u2, over = under_diff(n1, n2, 1), under_diff(n1, n2, 2), over_diff(n1, n2)
    got = tuple(refines(left, right) for left, right in ((u1, u2), (u1, n1), (u1, over),
                                                         (over, u1)))
    assert got == verdicts
    assert rows_seen and all(coeffs for coeffs, _, _ in rows_seen)


def test_map_budget_counts_every_complete_map(monkeypatch):
    """`_MAP_TEST_BUDGET` bounds the complete maps tried per left piece and
    `_map_condition` call, memoized push verdicts included.  On the interval
    fixture, under(1) refines over only through a map past the first."""
    from apa_toolkit.difference import over_diff, under_diff
    n1, n2 = interval_pair()
    u1, over = under_diff(n1, n2, 1), over_diff(n1, n2)
    assert refines(u1, over) and refines(over, u1)
    monkeypatch.setattr(refinement, "_MAP_TEST_BUDGET", 1)
    C.dnf_cover.cache_clear()
    assert not refines(u1, over)
    assert not refines(over, u1)


def _map_search(phi1, phi2, relation, monkeypatch):
    """`_map_condition` of phi1 over (a, b) against phi2 over (x, y): its
    verdict, the complete maps it tested (one `constraints.pull_back` each,
    since the complement of phi2 has one piece) and the `_lp.feasible` and
    `_coupling_feasible` calls it made."""
    maps, others = [], []
    pull_back = C.pull_back

    def recording_pull_back(rows, groups):
        maps.append({s: t for t, sources in groups.items() for s in sources})
        return pull_back(rows, groups)
    monkeypatch.setattr(C, "pull_back", recording_pull_back)
    for owner, name in ((refinement._lp, "feasible"), (refinement, "_coupling_feasible")):
        def recording(*args, original=getattr(owner, name), name=name):
            others.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, recording)
    neg_pieces = C.dnf_cover(C.negate(phi2))
    assert len(neg_pieces) == 1
    verdict = refinement._map_condition("c1", refinement._left_pieces(phi1, ("a", "b")),
                                        ("x", "y"), frozenset(relation), neg_pieces, {})
    return verdict, maps, others


def test_map_search_stops_at_the_first_map_that_passes(monkeypatch):
    """mu(a) <= 1/2 pushed by a -> x, b -> y lands in mu(x) <= 1/2: the first
    complete map passes, and no other is tried."""
    verdict, maps, others = _map_search(C.atom({"a": 1}, "<=", F(1, 2)),
                                        C.atom({"x": 1}, "<=", F(1, 2)),
                                        {("a", "x"), ("b", "y")}, monkeypatch)
    assert verdict and maps == [{"a": "x", "b": "y"}] and others == []


def test_map_search_tries_the_budgeted_maps_in_product_order(monkeypatch):
    """The only point (1/2, 1/2) sends at least 1/2 to x, above the right
    cap 1/4, so no map passes.  The search tries the product of the
    candidates, the state with fewer first: a -> x, then b -> x and b -> y.
    It makes no coupling LP.  With `_MAP_TEST_BUDGET` 1 it tries the first
    map only."""
    phi1, phi2 = C.point_constraint({"a": F(1, 2), "b": F(1, 2)}), C.atom({"x": 1}, "<=", F(1, 4))
    relation = {("a", "x"), ("b", "x"), ("b", "y")}
    verdict, maps, others = _map_search(phi1, phi2, relation, monkeypatch)
    assert not verdict and maps == [{"a": "x", "b": "x"}, {"a": "x", "b": "y"}]
    assert others == []
    monkeypatch.setattr(refinement, "_MAP_TEST_BUDGET", 1)
    verdict, maps, others = _map_search(phi1, phi2, relation, monkeypatch)
    assert not verdict and maps == [{"a": "x", "b": "x"}] and others == []


def _failing(make_pair, seeds, prefix: str):
    """(name, pair) of each seed whose `make_pair(seed)` does not refine."""
    for seed in seeds:
        n1, n2 = make_pair(seed)
        if not refines(n1, n2):
            yield f"{prefix}{seed}", (n1, n2)


def _nondet_queries(pairs):
    """The eight `refines` queries of each (name, (n1, n2)) of `pairs`."""
    from apa_toolkit.difference import over_diff, under_diff
    for name, (n1, n2) in pairs:
        u1, u2, over = under_diff(n1, n2, 1), under_diff(n1, n2, 2), over_diff(n1, n2)
        for query, left, right in (("u1<=u2", u1, u2), ("u2<=u1", u2, u1), ("u1<=n1", u1, n1),
                                   ("n1<=u1", n1, u1), ("u1<=over", u1, over),
                                   ("over<=u1", over, u1), ("u1<=n2", u1, n2),
                                   ("over<=n1", over, n1)):
            yield f"{name} {query}", left, right


def _recorded_verdicts(pairs, golden: str) -> list[str]:
    """The `_nondet_queries` verdicts of `pairs`, checked against
    `tests/golden/<golden>`."""
    expected = (Path(__file__).resolve().parent / "golden" / golden).read_text().splitlines()
    got = [f"{label} {refines(left, right)}" for label, left, right in _nondet_queries(pairs)]
    assert got == expected
    return got


def test_nondeterministic_refinement_keeps_the_recorded_verdicts():
    """The 376 verdicts of the three failing fixtures and the failing
    `random_pair` seeds 0-59, pinned in `tests/golden/nondet_refines.txt`:
    304 True, 72 False."""
    pairs = [*all_failing_pairs().items(),
             *_failing(lambda seed: random_pair(random.Random(seed)), range(60), "random")]
    got = _recorded_verdicts(pairs, "nondet_refines.txt")
    assert len(got) == 376 and sum(line.endswith("True") for line in got) == 304


def test_nondeterministic_refinement_keeps_the_recorded_multi_piece_verdicts():
    """The 160 verdicts of the failing `multi_piece_pair` seeds 0-24, pinned
    in `tests/golden/nondet_refines_multi.txt`: 122 True, 38 False.  Their
    right covers have several pieces, so map order and budget matter."""
    got = _recorded_verdicts(_failing(multi_piece_pair, range(25), "multi"),
                             "nondet_refines_multi.txt")
    assert len(got) == 160 and sum(line.endswith("True") for line in got) == 122


def test_nondeterministic_refinement_on_the_largest_chain_instance():
    """The chain theorem: under(2) refines under(3).  On seed 10 the product
    has 22 against 31 states, the largest nondeterministic query here."""
    from apa_toolkit.difference import under_diff
    n1, n2 = random_pair(random.Random(10))
    u2, u3 = under_diff(n1, n2, 2), under_diff(n1, n2, 3)
    assert (len(u2.states), len(u3.states)) == (22, 31)
    assert refines(u2, u3)


def test_nondeterministic_refinement_leaves_no_module_state():
    d1, d2 = deferral_pair()
    from apa_toolkit.difference import under_diff
    assert refines(under_diff(d1, d2, 1), under_diff(d1, d2, 2))
    filled = [name for name, value in vars(refinement).items()
              if isinstance(value, dict) and value and not name.startswith("__")]
    assert filled == []


def test_only_the_dnf_cover_cache_is_process_wide():
    """After each analysis has run, no toolkit module holds a cache of its
    own but `constraints.dnf_cover`: every other memo goes with its call."""
    from apa_toolkit.distance import state_distances
    for n1, n2 in all_failing_pairs().values():
        compute_refinement(n1, n2)
        refines(n1, n2)
        state_distances(n1, n2)
        for p in islice(enumerate_implementations(n1, GridSpec(denominator=4)), 3):
            satisfies(p, n1)
    caches = [f"{name}.{attr}" for name, module in sys.modules.items()
              if name.startswith("apa_toolkit")
              for attr, value in vars(module).items() if hasattr(value, "cache_info")]
    assert caches == ["apa_toolkit.constraints.dnf_cover"]


@pytest.mark.parametrize("pair", [interval_pair, deferral_pair,
                                  lambda: random_pair(random.Random(26))])
def test_compute_refinement_computes_each_support_once(monkeypatch, pair):
    n1, n2 = pair()
    calls = []
    supportable = C.supportable_states
    monkeypatch.setattr(C, "supportable_states",
                        lambda phi, states: calls.append(phi) or supportable(phi, states))
    compute_refinement(n1, n2)
    assert len(calls) == len(n1.transitions) + len(n2.transitions)


def test_satisfaction_checks_required_transitions_outside_the_implementation_alphabet():
    """n requires a and b from its root; an implementation over a alone
    cannot take the required b."""
    n = make_apa(states=["n0", "n1"], actions=["a", "b"], ap=["p"],
                 labeling={"n0": [[]], "n1": [["p"]]},
                 transitions=[("n0", "a", "c", Modality.MUST), ("n0", "b", "c", Modality.MUST)],
                 initial=["n0"], constraints={"c": C.point_constraint({"n1": 1})})
    only_a = make_pa(states=["x0", "x1"], actions=["a"], ap=["p"],
                     labeling={"x0": [], "x1": ["p"]},
                     transitions=[("x0", "a", {"x1": 1})], initial="x0")
    both = make_pa(states=["x0", "x1"], actions=["a", "b"], ap=["p"],
                   labeling={"x0": [], "x1": ["p"]},
                   transitions=[("x0", "a", {"x1": 1}), ("x0", "b", {"x1": 1})], initial="x0")
    assert satisfies(only_a, n)[0] is oracle.brute_satisfies(only_a, n) is False
    assert satisfies(both, n)[0] is oracle.brute_satisfies(both, n) is True


def _chain(prefix: str, must_at_end: bool):
    """x0 -a-> x1 -a-> x2, each step onto one state, every state labeled apart;
    x2 -a-> x3 is Must when `must_at_end`, absent otherwise."""
    states = [f"{prefix}{i}" for i in range(4)]
    steps = [(0, "c0"), (1, "c1")] + ([(2, "c2")] if must_at_end else [])
    return make_apa(
        states=states, actions=["a"], ap=["p0", "p1", "p2", "p3"],
        labeling={s: [[f"p{i}"]] for i, s in enumerate(states)},
        transitions=[(states[i], "a", cid, Modality.MUST) for i, cid in steps],
        initial=[states[0]],
        constraints={cid: C.point_constraint({states[i + 1]: 1}) for i, cid in steps})


def test_nondeterministic_refinement_rechecks_pairs_after_a_removal():
    n1, n2 = _chain("s", must_at_end=False), _chain("t", must_at_end=True)
    # (s2, t2) falls in the first sweep, (s1, t1) in the second, (s0, t0) in the third
    assert compute_refinement(n1, n2).fixpoint_index == 3
    assert not refinement._refines_nondet(n1, n2)


@pytest.mark.parametrize("check", [refines, compute_refinement])
@pytest.mark.parametrize("case", range(len(incomparable_pairs())))
def test_both_refinement_paths_reject_incomparable_inputs(check, case):
    n1, n2, error, message = incomparable_pairs()[case]
    with pytest.raises(error, match=message) as excinfo:
        check(n1, n2)
    assert excinfo.type is error


def test_compute_refinement_rejects_a_difference_automaton():
    from apa_toolkit.difference import under_diff
    diff = under_diff(*deferral_pair(), 1)
    assert refines(diff, diff)
    with pytest.raises(PreconditionError, match="left automaton is not deterministic"):
        compute_refinement(diff, diff)


# ---------------------------------------------------------------------------
# The LP kernels against vertex enumeration and the brute-force coupling
# ---------------------------------------------------------------------------

TARGETS = ("t0", "t1")


def _conjunction(rows):
    return C.and_(*(C.atom(coeffs, rel, rhs) for coeffs, rel, rhs in rows))


@st.composite
def _mappings(draw):
    return {s: draw(st.sampled_from(TARGETS + (None,))) for s in STATES}


@settings(max_examples=100, deadline=None)
@given(_convex_rows(), _mappings(), _convex_rows(TARGETS))
def test_sim_witness_agrees_with_vertex_pushforward(rows1, mapping, rows2):
    """Every mu1 in Sat(phi1) maps fully into Sat(phi2) iff every vertex does,
    since the pushforward is linear and Sat(phi2) is closed and convex."""
    phi1, phi2 = _conjunction(rows1), _conjunction(rows2)
    witness = refinement._sim_witness(phi1, STATES, tuple(mapping.items()), phi2, TARGETS)

    def lands(mu) -> bool:
        if any(mapping[s] is None for s in mu.support()):
            return False
        image: dict = {}
        for s in mu.support():
            image[mapping[s]] = image.get(mapping[s], F(0)) + mu[s]
        return C.sat_member(phi2, image)

    vertices = C.vertices(_piece(rows1), STATES)
    assert (witness is None) == all(lands(v) for v in vertices)
    if witness is not None:
        # The returned witness must itself demonstrate the failure.
        assert C.sat_member(phi1, witness.mu)
        assert not lands(witness.mu)


def test_sim_witness_names_the_pulled_back_facet():
    # Two left states merge onto t0, whose mass the right side caps at 1/2.
    phi1 = C.atom({"s0": 1}, ">=", F(1, 2))
    phi2 = C.atom({"t0": 1}, "<=", F(1, 2))
    mapping = (("s0", "t0"), ("s1", "t0"), ("s2", "t1"))
    witness = refinement._sim_witness(phi1, STATES, mapping, phi2, TARGETS)
    # the refuted condition mu(t0) <= 1/2, in the row form -mu(t0) >= -1/2
    assert witness.reason == C.FacetViolation(C.LinearAtom((("t0", F(-1)),), ">=", F(-1, 2)))
    assert witness.mu["s0"] + witness.mu["s1"] > F(1, 2)


@st.composite
def _distributions(draw, states=STATES, denominator=4):
    left = denominator
    mass = {}
    for s in states[:-1]:
        mass[s] = F(draw(st.integers(min_value=0, max_value=left)), denominator)
        left -= mass[s] * denominator
    mass[states[-1]] = F(left, denominator)
    return C.Distribution.of(mass)


@st.composite
def _target_constraints(draw):
    kind = draw(st.sampled_from(["interval", "linear", "disjunction"]))
    if kind == "interval":
        bounds = {}
        for t in draw(st.sets(st.sampled_from(TARGETS))):
            lo, hi = sorted(draw(st.integers(min_value=0, max_value=4)) for _ in range(2))
            bounds[t] = (F(lo, 4), F(hi, 4))
        return C.interval_constraint(bounds)

    def conjunction():
        atoms = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            coeffs = {t: draw(_coeff) for t in draw(st.sets(st.sampled_from(TARGETS),
                                                            min_size=1))}
            rel = draw(st.sampled_from(["<=", "<", "==", ">=", ">"]))
            atoms.append(C.atom(coeffs, rel, draw(_rhs)))
        return C.and_(*atoms)

    return conjunction() if kind == "linear" else C.or_(conjunction(), conjunction())


_PAIRS = [(s, t) for s in STATES for t in TARGETS]


@settings(max_examples=150, deadline=None)
@given(_distributions(), _target_constraints(),
       st.sets(st.sampled_from(_PAIRS)).map(frozenset))
# a row over unrelated targets only is the constant 0 REL rhs
@example(C.Distribution.of({"s0": 1}), C.atom({"t1": 1}, ">", 0), frozenset({("s0", "t0")}))
@example(C.Distribution.of({"s0": 1}), C.atom({"t1": 1}, "<=", 0), frozenset({("s0", "t0")}))
# forced couplings: the image of mu under the relation decides, with no LP
@example(C.Distribution.of({"s0": 1}), C.atom({"t1": 1}, "==", 0), frozenset({("s0", "t1")}))
@example(C.Distribution.of({"s0": F(1, 2), "s1": F(1, 2)}), C.atom({"t0": 1}, "<", F(1, 2)),
         frozenset({("s0", "t0"), ("s1", "t1")}))
@example(C.Distribution.of({"s0": F(1, 4), "s1": F(3, 4)}), C.atom({"t0": 1}, ">=", 1),
         frozenset({("s0", "t0"), ("s1", "t0"), ("s2", "t1")}))
def test_coupling_kernel_agrees_with_brute_force_coupling(mu, phi, relation):
    n = make_apa(states=list(TARGETS), actions=["a"], ap=["p"],
                 labeling={t: [[]] for t in TARGETS}, transitions=[],
                 initial=[TARGETS[0]], constraints={})
    assert (refinement._coupling_feasible(mu.mass, phi, TARGETS, relation)
            == oracle._coupling_ok(mu, phi, n, relation))
