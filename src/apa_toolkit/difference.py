"""Difference constructions between deterministic abstract automata in
single-valuation normal form.

Both constructions build product automata whose states remember the paired
executions plus the action earmarked to break the right-hand specification;
the bounded variant additionally carries a countdown level, so that every
implementation must realize the break within that many deferral steps.

Over-approximation: every implementation of the left automaton that fails
the right one satisfies the product.  Under-approximation at level K: every
implementation of the product satisfies the left automaton and fails the
right one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import constraints as C
from .constraints import ConstraintExpr, State
from .errors import InputError, PreconditionError
from .model import APA, Action, Modality, Transition, forced_successor
from .refinement import (CaseLabel, RefinementAnalysis, _single_transition,
                         compute_refinement)

BOT = None   # second component: right execution already broken
EPS = None   # third component: no action earmarked


@dataclass(frozen=True)
class ProductState:
    """(left state, right state or bot, earmarked action or eps[, level])."""

    s1: State
    s2: State | None
    e: Action | None
    k: int | None = None

    def __str__(self) -> str:
        parts = [str(self.s1),
                 "_bot" if self.s2 is None else str(self.s2),
                 "_eps" if self.e is None else str(self.e)]
        if self.k is not None:
            parts.append(str(self.k))
        return "|".join(parts)


@dataclass(frozen=True)
class DifferenceAPA(APA):
    """Product automaton; states are ProductState values."""

    source_initial: tuple = ()
    level: int | None = None


def _phi_bot_id(cid: str) -> str:
    return f"{cid}^bot"


def _phi_b_id(state: ProductState) -> str:
    return f"phiB({state})"


class _Builder:
    def __init__(self, n1: APA, n2: APA, analysis: RefinementAnalysis, K: int | None):
        self.n1, self.n2, self.analysis, self.K = n1, n2, analysis, K
        self.constraints: dict[str, ConstraintExpr] = {}
        self.transitions: list[tuple[ProductState, Action, str, Modality]] = []
        self.states: list[ProductState] = []
        self.succ_of_constraint: dict[str, tuple[ProductState, ...]] = {}

    # -- constraint factories ------------------------------------------------

    def bot_lift(self, cid: str) -> str:
        key = _phi_bot_id(cid)
        if key not in self.constraints:
            phi = self.n1.constraint(cid)
            cells = tuple(ProductState(s1, BOT, EPS, 1 if self.K is not None else None)
                          for s1 in C.supportable_states(phi, self.n1.states))
            expr: ConstraintExpr
            if cells:
                expr = C.make_bot_lift(phi, self.n1.states, cells)
            else:
                expr = C.FALSE  # the source constraint is unsatisfiable
            self.constraints[key] = expr
            self.succ_of_constraint[key] = cells
        return key

    def phi_b(self, state: ProductState) -> str:
        key = _phi_b_id(state)
        if key in self.constraints:
            return key
        s1, s2, e, k = state.s1, state.s2, state.e, state.k
        n1, n2 = self.n1, self.n2
        phi1 = n1.constraint(_single_transition(n1, s1, e).constraint_id)
        phi2 = n2.constraint(_single_transition(n2, s2, e).constraint_id)
        succ_map: dict[State, State | None] = {}
        b_map: dict[tuple[State, State], tuple[Action, ...]] = {}
        candidates: list[ProductState] = []
        levels = range(1, self.K + 1) if self.K is not None else (None,)
        for s1p in n1.states:
            t = forced_successor(n2, s2, e, n1.valuation_of(s1p))
            succ_map[s1p] = t
            if t is None:
                candidates.append(ProductState(s1p, BOT, EPS, 1 if self.K is not None else None))
            else:
                acts = self.analysis.bsets_of(s1p, t).all_actions
                b_map[(s1p, t)] = acts
                for c in (EPS,) + acts:
                    for lvl in levels:
                        candidates.append(ProductState(s1p, t, c, lvl))
        # k is None exactly when the construction is unlevelled (over_diff)
        trial = C.make_phi_B(phi1, phi2, n1.states, n2.states, succ_map, b_map, candidates, k)
        kept = C.supportable_states(trial, candidates)
        if not kept:
            self.constraints[key] = C.FALSE
            self.succ_of_constraint[key] = ()
            return key
        expr = C.make_phi_B(phi1, phi2, n1.states, n2.states, succ_map, b_map, kept, k)
        self.constraints[key] = expr
        self.succ_of_constraint[key] = kept
        return key

    # -- per-state transition rules ------------------------------------------

    def expand_state(self, state: ProductState) -> list[ProductState]:
        """Emit the transitions of one product state (s1, s2, e[, k]) and
        return the successors they can reach, in emission order.

        Every left transition of s1 is lifted to bot (its constraint moved
        onto the (s1', bot, eps) cells), except e itself when e is in bucket
        a, b or e of the pair (s1, s2).  Then one more row by e's bucket:

          a, b  e, lifted to bot, required
          c, f  e, phi-B, required
          e     e, phi-B, optional
          d     none

        A state with bot or no earmark, or whose pair is in case 1 or 2, has
        no bucket and takes the lifted rows only.
        """
        s1, s2, e = state.s1, state.s2, state.e
        bucket = None
        if s2 is not None and e is not None and \
                self.analysis.case_of(s1, s2) is CaseLabel.CASE3:
            bs = self.analysis.bsets_of(s1, s2)
            bucket = next((x for x in "abcdef" if e in bs.of(x)), None)
            assert bucket is not None, \
                f"state {state} earmarks {e!r}, not a blame action of ({s1!r},{s2!r})"
        rows = [(tr.action, self.bot_lift(tr.constraint_id), tr.modality)
                for tr in self.n1.transitions_from(s1)
                if tr.action != e or bucket not in ("a", "b", "e")]
        if bucket in ("a", "b"):
            cid = self.bot_lift(_single_transition(self.n1, s1, e).constraint_id)
            rows.append((e, cid, Modality.MUST))
        elif bucket in ("c", "e", "f"):
            rows.append((e, self.phi_b(state), Modality.MAY if bucket == "e" else Modality.MUST))
        out: list[ProductState] = []
        for action, cid, modality in rows:
            self.transitions.append((state, action, cid, modality))
            out.extend(self.succ_of_constraint[cid])
        return out

    def build(self, initial: Iterable[ProductState], level: int | None) -> DifferenceAPA:
        initial = list(initial)
        queue = list(initial)
        seen: set[ProductState] = set()
        while queue:
            state = queue.pop(0)
            if state in seen:
                continue
            seen.add(state)
            self.states.append(state)
            for nxt in self.expand_state(state):
                if nxt not in seen:
                    queue.append(nxt)
        return DifferenceAPA(
            states=tuple(self.states),
            actions=self.n1.actions,
            ap=self.n1.ap,
            labeling=tuple((t, (self.n1.valuation_of(t.s1),)) for t in self.states),
            transitions=tuple(Transition(*t) for t in self.transitions),
            initial=tuple(initial),
            constraints=tuple(sorted(self.constraints.items(), key=lambda kv: kv[0])),
            source_initial=(self.n1.initial_state(), self.n2.initial_state()),
            level=level,
        )


def _diff_precheck(n1: APA, n2: APA) -> RefinementAnalysis:
    analysis = compute_refinement(n1, n2)
    if analysis.refines:
        raise PreconditionError("difference is empty: the left automaton refines the right one")
    return analysis


def over_diff(n1: APA, n2: APA) -> APA:
    """Product automaton whose implementations include everything satisfying
    the left automaton but not the right one (may also admit extras)."""
    analysis = _diff_precheck(n1, n2)
    s01, s02 = n1.initial_state(), n2.initial_state()
    if n1.valuation_of(s01) != n2.valuation_of(s02):
        return n1  # no implementation can satisfy both; the difference is the left automaton
    builder = _Builder(n1, n2, analysis, None)
    blame = analysis.bsets_of(s01, s02).all_actions
    assert blame, "a rejected equal-valuation root must carry blame actions"
    return builder.build([ProductState(s01, s02, f) for f in blame], None)


def under_diff(n1: APA, n2: APA, K: int) -> APA:
    """Level-K product automaton whose implementations all lie in the true
    difference of the two input automata."""
    if K < 1:
        raise InputError("the unfolding level K must be at least 1")
    analysis = _diff_precheck(n1, n2)
    s01, s02 = n1.initial_state(), n2.initial_state()
    if n1.valuation_of(s01) != n2.valuation_of(s02):
        return n1
    builder = _Builder(n1, n2, analysis, K)
    blame = analysis.bsets_of(s01, s02).all_actions
    assert blame, "a rejected equal-valuation root must carry blame actions"
    return builder.build([ProductState(s01, s02, f, K) for f in blame], K)


def _restrict_expr(expr: ConstraintExpr, kept: frozenset) -> ConstraintExpr:
    if isinstance(expr, C.Atom):
        coeffs = {s: c for s, c in expr.atom.coeffs if s in kept}
        if len(coeffs) == len(expr.atom.coeffs):
            return expr
        if not coeffs:
            return C.TRUE if expr.atom.evaluate({}) else C.FALSE
        return C.Atom(C.LinearAtom.make(coeffs, expr.atom.rel, expr.atom.rhs))
    if isinstance(expr, C.And):
        return C.and_(*(_restrict_expr(i, kept) for i in expr.items))
    if isinstance(expr, C.Or):
        return C.or_(*(_restrict_expr(i, kept) for i in expr.items))
    if isinstance(expr, C.Not):
        return C.not_(_restrict_expr(expr.item, kept))
    return expr  # derived nodes only ever carry supportable (hence kept) cells


def prune_unreachable(apa: APA) -> APA:
    """Drop states that carry no mass under any satisfying distribution of a
    transition reachable from the initial states."""
    reached: set = set(apa.initial)
    queue = list(apa.initial)
    while queue:
        s = queue.pop(0)
        for tr in apa.transitions_from(s):
            phi = apa.constraint(tr.constraint_id)
            for nxt in C.supportable_states(phi, apa.states):
                if nxt not in reached:
                    reached.add(nxt)
                    queue.append(nxt)
    if reached == set(apa.states):
        return apa
    kept = frozenset(reached)
    states = tuple(s for s in apa.states if s in kept)
    transitions = tuple(t for t in apa.transitions if t.source in kept)
    used = {t.constraint_id for t in transitions}
    constraints = tuple((cid, _restrict_expr(expr, kept))
                        for cid, expr in apa.constraints if cid in used)
    cls = type(apa)
    extra = {}
    if isinstance(apa, DifferenceAPA):
        extra = {"source_initial": apa.source_initial, "level": apa.level}
    return cls(states=states, actions=apa.actions, ap=apa.ap,
               labeling=tuple((s, vals) for s, vals in apa.labeling if s in kept),
               transitions=transitions, initial=apa.initial,
               constraints=constraints, **extra)
