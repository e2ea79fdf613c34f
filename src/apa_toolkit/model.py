"""Automaton data model: abstract (three-valued) and concrete (two-valued)
probabilistic automata, with validation of the structural preconditions the
analyses assume (single-valuation normal form, determinism).

Determinism is decided in one place: `successor_table` maps each (state,
action) of a deterministic automaton to a `Step` (its one transition, its
supportable states, the successor each valuation forces), or returns None.
The refinement analysis builds it once per side, for every deterministic
construction to read.

The automata are immutable and hashable; all operations are pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from . import constraints as C
from .constraints import ConstraintExpr, Distribution, State
from .errors import InputError, PreconditionError

Action = str
ConstraintId = str
Valuation = frozenset  # of atomic-proposition names


def valuation(props: Iterable[str] = ()) -> Valuation:
    return frozenset(props)


class Modality(enum.Enum):
    """Transition modality; absence of a transition encodes the third value."""

    MUST = "must"
    MAY = "may"

    def __str__(self) -> str:
        return self.value


class _Indexed:
    """An automaton indexed at construction: labeling by state (the first
    entry wins), transitions by state and by (state, action) in declaration
    order.  Equality, hashing and repr read the dataclass fields alone."""

    def __post_init__(self):
        by_state: dict = {}
        by_action: dict = {}
        for t in self.transitions:
            by_state[t.source] = by_state.get(t.source, ()) + (t,)
            by_action[t.source, t.action] = by_action.get((t.source, t.action), ()) + (t,)
        object.__setattr__(self, "_labels", dict(reversed(self.labeling)))
        object.__setattr__(self, "_from", by_state)
        object.__setattr__(self, "_from_action", by_action)

    def _label(self, s: State):
        try:
            return self._labels[s]
        except KeyError:
            raise InputError(f"state {s!r} has no labeling entry") from None

    def transitions_from(self, s: State, a: Action | None = None) -> tuple:
        return self._from.get(s, ()) if a is None else self._from_action.get((s, a), ())


@dataclass(frozen=True)
class Transition:
    source: State
    action: Action
    constraint_id: ConstraintId
    modality: Modality


@dataclass(frozen=True)
class APA(_Indexed):
    """Abstract probabilistic automaton.

    labeling maps each state to the set of admissible valuations; transitions
    hold (state, action, constraint-id, modality) with absence meaning "no
    transition allowed"; constraints resolves ids to constraint expressions
    over the state set.
    """

    states: tuple[State, ...]
    actions: tuple[Action, ...]
    ap: tuple[str, ...]
    labeling: tuple[tuple[State, tuple[Valuation, ...]], ...]
    transitions: tuple[Transition, ...]
    initial: tuple[State, ...]
    constraints: tuple[tuple[ConstraintId, ConstraintExpr], ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_constraints", dict(reversed(self.constraints)))

    # -- accessors ---------------------------------------------------------

    def valuations(self, s: State) -> tuple[Valuation, ...]:
        return self._label(s)

    def valuation_of(self, s: State) -> Valuation:
        vals = self.valuations(s)
        if len(vals) != 1:
            raise PreconditionError(f"state {s!r} carries {len(vals)} valuations, need exactly 1")
        return vals[0]

    def constraint(self, cid: ConstraintId) -> ConstraintExpr:
        try:
            return self._constraints[cid]
        except KeyError:
            raise InputError(f"unknown constraint id {cid!r}") from None

    def initial_state(self) -> State:
        if len(self.initial) != 1:
            raise PreconditionError(f"expected a single initial state, found {len(self.initial)}")
        return self.initial[0]


def make_apa(*, states: Sequence[State], actions: Sequence[Action], ap: Sequence[str],
             labeling: Mapping[State, Iterable[Iterable[str]]],
             transitions: Iterable[tuple[State, Action, ConstraintId, Modality | str]],
             initial: Iterable[State],
             constraints: Mapping[ConstraintId, ConstraintExpr]) -> APA:
    """Convenience constructor accepting plain dicts/lists."""
    lab = tuple((s, tuple(sorted((valuation(v) for v in labeling.get(s, ())),
                                 key=lambda f: sorted(f))))
                for s in states)
    trans = tuple(Transition(s, a, cid, m if isinstance(m, Modality) else Modality(m))
                  for s, a, cid, m in transitions)
    cons = tuple(sorted(constraints.items(), key=lambda kv: kv[0]))
    return APA(tuple(states), tuple(actions), tuple(sorted(ap)), lab, trans,
               tuple(initial), cons)


@dataclass(frozen=True)
class PATransition:
    source: State
    action: Action
    distribution: Distribution

    modality = Modality.MUST  # a concrete transition is always taken (see `pa_as_apa`)


@dataclass(frozen=True)
class PA(_Indexed):
    """Concrete probabilistic automaton: single valuation per state, concrete
    distributions, a single initial state."""

    states: tuple[State, ...]
    actions: tuple[Action, ...]
    ap: tuple[str, ...]
    labeling: tuple[tuple[State, Valuation], ...]
    transitions: tuple[PATransition, ...]
    initial: State

    def valuation_of(self, s: State) -> Valuation:
        return self._label(s)


def make_pa(*, states: Sequence[State], actions: Sequence[Action], ap: Sequence[str],
            labeling: Mapping[State, Iterable[str]],
            transitions: Iterable[tuple[State, Action, Mapping[State, object] | Distribution]],
            initial: State) -> PA:
    lab = tuple((s, valuation(labeling.get(s, ()))) for s in states)
    trans = []
    for s, a, dist in transitions:
        mu = dist if isinstance(dist, Distribution) else Distribution.of(dist)
        trans.append(PATransition(s, a, mu))
    return PA(tuple(states), tuple(actions), tuple(sorted(ap)), lab, tuple(trans), initial)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _constraint_dimension_ok(expr: ConstraintExpr, states: frozenset) -> bool:
    """Every state mentioned by the constraint belongs to the automaton."""
    if isinstance(expr, C.Atom):
        return all(s in states for s, _ in expr.atom.coeffs)
    if isinstance(expr, (C.And, C.Or)):
        return all(_constraint_dimension_ok(i, states) for i in expr.items)
    if isinstance(expr, C.Not):
        return _constraint_dimension_ok(expr.item, states)
    if isinstance(expr, (C.BotLift, C.PhiB)):
        return all(c in states for c in expr.cells)
    return True  # TrueExpr / FalseExpr


def validate(apa: APA) -> ValidationReport:
    """Structural well-formedness check; empty error list iff well-formed."""
    errors: list[str] = []
    warnings: list[str] = []
    state_set = frozenset(apa.states)
    ap_set = frozenset(apa.ap)
    cids = [cid for cid, _ in apa.constraints]
    if len(set(cids)) != len(cids):
        errors.append("duplicate constraint ids")
    cid_set = set(cids)

    labeled = [s for s, _ in apa.labeling]
    for s in apa.states:
        if s not in labeled:
            errors.append(f"state {s!r} missing from labeling")
    for s, vals in apa.labeling:
        if s not in state_set:
            errors.append(f"labeling mentions unknown state {s!r}")
        for v in vals:
            extra = set(v) - ap_set
            if extra:
                errors.append(f"valuation of {s!r} uses unknown propositions {sorted(extra)}")
        if len(vals) == 0:
            warnings.append(f"state {s!r} admits no valuation; no implementation can satisfy it")
        if len(set(vals)) != len(vals):
            errors.append(f"duplicate valuations at {s!r}")

    for s in apa.initial:
        if s not in state_set:
            errors.append(f"initial state {s!r} not a state")
    if not apa.initial:
        warnings.append("no initial state")

    seen_triples = set()
    for t in apa.transitions:
        if t.source not in state_set:
            errors.append(f"transition from unknown state {t.source!r}")
        if t.action not in apa.actions:
            errors.append(f"transition on unknown action {t.action!r}")
        if t.constraint_id not in cid_set:
            errors.append(f"transition references unknown constraint {t.constraint_id!r}")
        triple = (t.source, t.action, t.constraint_id)
        if triple in seen_triples:
            errors.append(f"duplicate transition entry {triple!r}")
        seen_triples.add(triple)

    for cid, expr in apa.constraints:
        if not _constraint_dimension_ok(expr, state_set):
            errors.append(f"constraint {cid!r} mentions states outside the automaton")

    return ValidationReport(tuple(errors), tuple(warnings))


def validate_pa(p: PA) -> ValidationReport:
    errors: list[str] = []
    state_set = frozenset(p.states)
    ap_set = frozenset(p.ap)
    labeled = {s for s, _ in p.labeling}
    for s in p.states:
        if s not in labeled:
            errors.append(f"state {s!r} missing from labeling")
    for s, val in p.labeling:
        extra = set(val) - ap_set
        if extra:
            errors.append(f"valuation of {s!r} uses unknown propositions {sorted(extra)}")
    if p.initial not in state_set:
        errors.append(f"initial state {p.initial!r} not a state")
    for t in p.transitions:
        if t.source not in state_set:
            errors.append(f"transition from unknown state {t.source!r}")
        if t.action not in p.actions:
            errors.append(f"transition on unknown action {t.action!r}")
        for s, _ in t.distribution.items:
            if s not in state_set:
                errors.append(f"distribution of ({t.source!r},{t.action!r}) hits unknown state {s!r}")
    return ValidationReport(tuple(errors), ())


# ---------------------------------------------------------------------------
# Normal-form and determinism checks
# ---------------------------------------------------------------------------


def is_svnf(apa: APA) -> bool:
    """True iff every state admits at most one valuation."""
    return all(len(vals) <= 1 for _, vals in apa.labeling)


@dataclass(frozen=True)
class Step:
    """The one transition of a deterministic automaton at a (state, action),
    with its supportable states and the successor each valuation forces."""

    transition: Transition
    support: tuple[State, ...]
    successors: Mapping[Valuation, State]


def successor_table(apa: APA) -> dict[tuple[State, Action], Step] | None:
    """The deterministic reading of an SVNF automaton, or None if it is not
    deterministic: (1) one initial state, (2) at most one transition per
    (state, action), (3) no transition can put mass on two distinct
    equally-labeled states.

    The cheap checks (1) and (2) run before any support LP; then each
    transition's supportable states are computed once, in state order.
    """
    if not is_svnf(apa):
        raise PreconditionError("determinism check requires single-valuation normal form")
    by_pair = {(t.source, t.action): t for t in apa.transitions}
    if len(apa.initial) != 1 or len(by_pair) != len(apa.transitions):
        return None
    table = {}
    for key, t in by_pair.items():
        support = C.supportable_states(apa.constraint(t.constraint_id), apa.states)
        successors: dict[Valuation, State] = {}
        for s in support:
            vals = apa.valuations(s)
            if len(vals) != 1:
                continue  # un-labeled states cannot clash
            if vals[0] in successors:
                return None
            successors[vals[0]] = s
        table[key] = Step(t, support, successors)
    return table


def reachable_states(apa: APA) -> tuple[State, ...]:
    """States reachable from the initial ones through any transition's
    supportable successors, in visit order."""
    order: list[State] = list(apa.initial)
    seen = set(order)
    for s in order:
        for tr in apa.transitions_from(s):
            for t in C.supportable_states(apa.constraint(tr.constraint_id), apa.states):
                if t not in seen:
                    seen.add(t)
                    order.append(t)
    return tuple(order)


def is_deterministic(apa: APA) -> bool:
    """Determinism for SVNF automata; see `successor_table`."""
    return successor_table(apa) is not None


def obligations(ts1: Sequence, ts2: Sequence) -> Iterator[list]:
    """The modal clauses of refinement for one state pair on one action, as
    groups of (left, right) transition pairs: a group is met iff one of its
    pairs matches, and the pair passes the action iff every group is met.

    First one group per required right transition, holding its required left
    partners; then one group per left transition, holding every right
    partner.  `ts1` may hold concrete transitions, which are required.
    """
    must1 = [t1 for t1 in ts1 if t1.modality is Modality.MUST]
    for t2 in ts2:
        if t2.modality is Modality.MUST:
            yield [(t1, t2) for t1 in must1]
    for t1 in ts1:
        yield [(t1, t2) for t2 in ts2]


def pa_as_apa(p: PA) -> APA:
    """View a concrete automaton as an abstract one: singleton labelings and
    point constraints pinning each transition's distribution."""
    labeling = {s: [p.valuation_of(s)] for s in p.states}
    cons: dict[ConstraintId, ConstraintExpr] = {}
    trans = []
    for i, t in enumerate(p.transitions):
        cid = f"mu{i}"
        cons[cid] = C.point_constraint(t.distribution)
        trans.append((t.source, t.action, cid, Modality.MUST))
    return make_apa(states=p.states, actions=p.actions, ap=p.ap, labeling=labeling,
                    transitions=trans, initial=[p.initial], constraints=cons)
