"""Model construction, validation, normal-form predicates, successor maps."""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from apa_toolkit import constraints as C
from apa_toolkit.errors import InputError, PreconditionError
from apa_toolkit.model import (APA, Modality, PATransition, Transition, is_deterministic, is_svnf,
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


def test_accessors_raise_the_same_error_on_an_unknown_key():
    n1, _ = interval_pair()
    p = interval_implementation_in()
    for call, text in ((lambda: n1.valuations("zz"), "state 'zz' has no labeling entry"),
                       (lambda: n1.valuation_of("zz"), "state 'zz' has no labeling entry"),
                       (lambda: p.valuation_of("zz"), "state 'zz' has no labeling entry"),
                       (lambda: n1.constraint("nope"), "unknown constraint id 'nope'")):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == text


def test_accessors_read_the_first_entry_of_a_key():
    """The indexes built at construction answer as a scan of the fields
    would: the first labeling entry and the first constraint of an id."""
    n = make_apa(**_one_state(constraints={"c": C.TRUE}))
    twice = APA(n.states, n.actions, n.ap, n.labeling + (("s", ()),), n.transitions,
                n.initial, n.constraints + (("c", C.FALSE),))
    assert twice.valuations("s") == (valuation(["p"]),) and twice.constraint("c") is C.TRUE
    assert twice != n
    again = APA(n.states, n.actions, n.ap, n.labeling, n.transitions, n.initial, n.constraints)
    assert again == n and hash(again) == hash(n) and repr(again) == repr(n)


def test_transitions_from_keeps_declaration_order():
    n = make_apa(states=["s", "t"], actions=["a", "b"], ap=[], labeling={"s": [[]], "t": [[]]},
                 transitions=[("s", "b", "c2", Modality.MAY), ("t", "a", "c1", Modality.MUST),
                              ("s", "a", "c3", Modality.MUST), ("s", "b", "c1", Modality.MUST),
                              ("s", "a", "c2", Modality.MAY)],
                 initial=["s"], constraints={"c1": C.TRUE, "c2": C.TRUE, "c3": C.TRUE})
    t = n.transitions
    assert n.transitions_from("s") == (t[0], t[2], t[3], t[4])
    assert n.transitions_from("s", "a") == (t[2], t[4])
    assert n.transitions_from("s", "b") == (t[0], t[3])
    assert n.transitions_from("t") == (t[1],) == n.transitions_from("t", "a")
    assert n.transitions_from("t", "b") == () == n.transitions_from("u")
    p = make_pa(states=["x", "y"], actions=["a", "b"], ap=[], labeling={},
                transitions=[("x", "b", {"y": 1}), ("y", "a", {"x": 1}), ("x", "a", {"x": 1}),
                             ("x", "b", {"x": 1})], initial="x")
    u = p.transitions
    assert p.transitions_from("x") == (u[0], u[2], u[3])
    assert p.transitions_from("x", "b") == (u[0], u[3]) and p.transitions_from("x", "a") == (u[2],)
    assert p.transitions_from("y", "b") == () and p.transitions_from("z") == ()


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
