"""Refinement fixed point, pair classification, witnesses, satisfaction."""
from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from apa_toolkit import constraints as C
from apa_toolkit import oracle, refinement
from apa_toolkit.errors import PreconditionError
from apa_toolkit.generators import random_apa, random_pair
from apa_toolkit.model import Modality, is_deterministic, make_apa, pa_as_apa
from apa_toolkit.oracle import GridSpec, enumerate_implementations
from apa_toolkit.refinement import (CaseLabel, breaking, compute_refinement,
                                    lemma_indplus_witness, refines, satisfies)
from tests.fixtures import (all_failing_pairs, deferral_implementation_late,
                            deferral_implementation_split, deferral_pair,
                            interval_implementation_diff,
                            interval_implementation_in, interval_pair,
                            may_gap_pair, refining_pair)
from tests.test_constraints import STATES, _coeff, _convex_rows, _rhs


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
                        lambda phi, states, *rest: calls.append(phi) or supportable(phi, states, *rest))
    for n in (interval_pair()[0], deferral_pair()[0]):
        p = next(islice(enumerate_implementations(n, GridSpec(denominator=10)), 3, None))
        calls.clear()
        is_deterministic(n)
        determinism = len(calls)
        calls.clear()
        assert satisfies(p, n)[0]
        assert len(calls) - determinism <= len(n.constraints)


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
    check = refinement.is_deterministic
    monkeypatch.setattr(refinement, "is_deterministic", lambda n: calls.append(n) or check(n))
    n1, n2 = random_pair(random.Random(0))
    refines(n1, n2)
    assert len(calls) == 2


def test_nondeterministic_refinement_computes_support_once_per_constraint(monkeypatch):
    d1, d2 = deferral_pair()
    from apa_toolkit.difference import under_diff
    u1, u2 = under_diff(d1, d2, 1), under_diff(d1, d2, 2)
    calls = []
    supportable = C.supportable_states
    monkeypatch.setattr(C, "supportable_states",
                        lambda phi, states, *rest: calls.append(phi) or supportable(phi, states, *rest))
    assert refinement._refines_nondet(u1, u2)
    assert calls and len(calls) == len(set(calls))


def test_nondeterministic_refinement_leaves_no_module_state():
    d1, d2 = deferral_pair()
    from apa_toolkit.difference import under_diff
    assert refines(under_diff(d1, d2, 1), under_diff(d1, d2, 2))
    filled = [name for name, value in vars(refinement).items()
              if isinstance(value, dict) and value and not name.startswith("__")]
    assert filled == []


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
        image = C.pushforward(mu, mapping.get)
        return not isinstance(image, C.SupportGap) and C.sat_member(phi2, image)

    vertices = C.vertices(C.Polytope.make(STATES, rows1))
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
def test_coupling_kernel_agrees_with_brute_force_coupling(mu, phi, relation):
    n = make_apa(states=list(TARGETS), actions=["a"], ap=["p"],
                 labeling={t: [[]] for t in TARGETS}, transitions=[],
                 initial=[TARGETS[0]], constraints={})
    assert (refinement._coupling_feasible(mu.mass, phi, TARGETS, relation)
            == oracle._coupling_ok(mu, phi, n, relation))
