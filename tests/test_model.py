"""Model construction, validation, normal-form predicates, successor maps."""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from apa_toolkit import constraints as C
from apa_toolkit.errors import InputError, PreconditionError
from apa_toolkit.model import (Modality, PATransition, Transition, is_deterministic, is_svnf,
                               make_apa, make_pa, obligations, pa_as_apa, successor_table,
                               valuation, validate, validate_pa)
from tests.fixtures import (interval_implementation_in, interval_pair,
                            may_gap_pair)


def _one_state(**overrides):
    base = dict(states=["s"], actions=["a"], ap=["p"], labeling={"s": [["p"]]},
                transitions=[], initial=["s"], constraints={})
    base.update(overrides)
    return base


def test_make_apa_canonicalizes_order():
    n = make_apa(states=["b", "a"], actions=["y", "x"], ap=["q", "p"],
                 labeling={"b": [["q"], ["p"]], "a": [[]]},
                 transitions=[("b", "x", "c2", Modality.MAY),
                              ("a", "x", "c1", Modality.MUST)],
                 initial=["a"],
                 constraints={"c2": C.TRUE, "c1": C.TRUE})
    assert n.states == ("b", "a")            # state order is the caller's
    assert n.ap == ("p", "q")                 # propositions sorted
    assert n.valuations("b") == (valuation(["p"]), valuation(["q"]))  # sorted
    assert [cid for cid, _ in n.constraints] == ["c1", "c2"]           # sorted
    assert [t.source for t in n.transitions] == ["b", "a"]  # input order kept


def test_accessors():
    n1, _ = interval_pair()
    assert n1.initial_state() == "s0"
    assert n1.valuation_of("s1") == valuation(["p"])
    assert n1.constraint("phi1") is n1.constraints[0][1]
    assert len(n1.transitions_from("s0")) == 1
    assert n1.transitions_from("s0", "b") == ()
    with pytest.raises(InputError):
        n1.constraint("nope")
    with pytest.raises(InputError):
        n1.valuations("zz")


def test_validate_flags_structural_errors():
    n = make_apa(**_one_state(
        transitions=[("s", "a", "c", Modality.MUST)],
        constraints={"c": C.atom({"ghost": 1}, "<=", F(1, 2))}))
    report = validate(n)
    assert not report.ok
    assert any("outside the automaton" in e for e in report.errors)

    n = make_apa(**_one_state(labeling={"s": [["p"], ["p"]]}))
    assert any("duplicate valuations" in e for e in validate(n).errors)

    n = make_apa(**_one_state(labeling={"s": [["zz"]]}))
    assert any("unknown propositions" in e for e in validate(n).errors)

    n = make_apa(**_one_state(initial=["ghost"]))
    assert any("not a state" in e for e in validate(n).errors)

    n = make_apa(**_one_state(transitions=[("s", "a", "ghost", Modality.MAY)]))
    assert any("unknown constraint" in e for e in validate(n).errors)


def test_validate_warnings_for_degenerate_shapes():
    report = validate(make_apa(**_one_state(labeling={"s": []})))
    assert report.ok and any("no valuation" in w for w in report.warnings)
    report = validate(make_apa(**_one_state(initial=[])))
    assert report.ok and any("no initial state" in w for w in report.warnings)


def test_fixtures_validate_cleanly():
    for n in (*interval_pair(), *may_gap_pair()):
        report = validate(n)
        assert report.ok and not report.warnings
    assert validate_pa(interval_implementation_in()).ok


def test_unnormalized_distributions_rejected_at_construction():
    with pytest.raises(InputError):
        make_pa(states=["x", "y"], actions=["a"], ap=[],
                labeling={"x": [], "y": []},
                transitions=[("x", "a", {"y": F(1, 2)})], initial="x")


def test_normal_form_predicates():
    n1, n2 = interval_pair()
    assert is_svnf(n1) and is_deterministic(n1)

    multi_val = make_apa(**_one_state(labeling={"s": [["p"], []]}))
    assert not is_svnf(multi_val)
    with pytest.raises(PreconditionError):
        is_deterministic(multi_val)

    # Two transitions on one (state, action) break determinism.
    branching = make_apa(
        states=["s", "t"], actions=["a"], ap=["p"],
        labeling={"s": [[]], "t": [["p"]]},
        transitions=[("s", "a", "c1", Modality.MAY),
                     ("s", "a", "c2", Modality.MAY)],
        initial=["s"], constraints={"c1": C.TRUE, "c2": C.TRUE})
    assert is_svnf(branching) and not is_deterministic(branching)

    # One transition able to reach two states with the same valuation breaks it.
    shared_valuation = make_apa(
        states=["s", "t1", "t2"], actions=["a"], ap=["p"],
        labeling={"s": [[]], "t1": [["p"]], "t2": [["p"]]},
        transitions=[("s", "a", "c", Modality.MUST)],
        initial=["s"], constraints={"c": C.TRUE})
    assert not is_deterministic(shared_valuation)

    two_roots = make_apa(
        states=["s", "t"], actions=["a"], ap=["p"],
        labeling={"s": [[]], "t": [["p"]]},
        transitions=[], initial=["s", "t"], constraints={})
    assert not is_deterministic(two_roots)


def test_successor_maps():
    n1, _ = interval_pair()
    table = successor_table(n1)
    step = table[("s0", "a")]
    assert step.transition == n1.transitions_from("s0", "a")[0]
    assert step.support == ("s1", "s2")
    assert step.successors.get(valuation(["p"])) == "s1"
    assert step.successors.get(valuation(["q"])) == "s2"
    assert step.successors.get(valuation([])) is None
    assert ("s1", "a") not in table

    ambiguous = make_apa(
        states=["s", "t1", "t2"], actions=["a"], ap=["p"],
        labeling={"s": [[]], "t1": [["p"]], "t2": [["p"]]},
        transitions=[("s", "a", "c", Modality.MUST)],
        initial=["s"], constraints={"c": C.TRUE})
    assert successor_table(ambiguous) is None


def test_pa_as_apa_pins_each_transition():
    p = interval_implementation_in()
    n = pa_as_apa(p)
    assert is_svnf(n) and is_deterministic(n)
    assert n.initial == ("x0",)
    (t,) = n.transitions_from("x0", "a")
    assert t.modality is Modality.MUST
    phi = n.constraint(t.constraint_id)
    assert C.sat_member(phi, {"x1": F(1, 2), "x2": F(1, 2)})
    assert not C.sat_member(phi, {"x1": F(2, 5), "x2": F(3, 5)})
    assert validate(n).ok


def _tr(name: str, modality: Modality) -> Transition:
    return Transition("s", "a", name, modality)


def test_obligations_group_required_right_then_every_left():
    must1, may1 = _tr("m1", Modality.MUST), _tr("o1", Modality.MAY)
    must2, may2 = _tr("m2", Modality.MUST), _tr("o2", Modality.MAY)
    assert list(obligations([must1, may1], [must2, may2])) == [
        [(must1, must2)],                    # must2 needs a required partner
        [(must1, must2), (must1, may2)],     # each left transition, any partner
        [(may1, must2), (may1, may2)]]
    assert list(obligations([must1, may1], [may2])) == [
        [(must1, may2)], [(may1, may2)]]


def test_obligations_empty_groups_are_unmet_clauses():
    must1, may1 = _tr("m1", Modality.MUST), _tr("o1", Modality.MAY)
    must2, may2 = _tr("m2", Modality.MUST), _tr("o2", Modality.MAY)
    assert list(obligations([may1], [must2])) == [[], [(may1, must2)]]
    assert list(obligations([], [must2, may2])) == [[]]
    assert list(obligations([must1], [])) == [[]]
    assert list(obligations([], [may2])) == []
    assert list(obligations([], [])) == []


def test_obligations_treat_concrete_transitions_as_required():
    mu = PATransition("x", "a", C.Distribution.of({"x": 1}))
    assert mu.modality is Modality.MUST
    must2, may2 = _tr("m2", Modality.MUST), _tr("o2", Modality.MAY)
    assert list(obligations([mu], [must2, may2])) == [
        [(mu, must2)], [(mu, must2), (mu, may2)]]


def test_make_pa_rejects_bad_shapes():
    with pytest.raises(InputError):
        make_pa(states=["x"], actions=["a"], ap=[], labeling={"x": []},
                transitions=[("x", "a", {})], initial="x")
