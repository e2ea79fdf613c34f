"""One concrete implementation separating a failed refinement.

Given deterministic automata in single-valuation normal form with
refines(n1, n2) false, builds a probabilistic automaton that satisfies the
left specification and violates the right one.  States pair a left state
with the right state tracking it (or a sink marker once the right execution
is broken); transitions implement concrete left distributions chosen by the
failure analysis, routed through the forced right successors so that the
violation is eventually realized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import constraints as C
from .constraints import ConstraintExpr, Distribution, State
from .errors import InputError, PreconditionError
from .model import (APA, PA, Action, Modality, PATransition, forced_successor,
                    make_pa, validate_pa)
from .refinement import (CaseLabel, RefinementAnalysis, _sim_witness,
                         _single_transition, breaking, compute_refinement,
                         forced_map, lemma_indplus_witness)

BOT = None   # right component: the tracked execution is already broken


@dataclass(frozen=True)
class CexState:
    """(left state, right state being tracked or bot)."""

    left: State
    matched: State | None

    def __str__(self) -> str:
        return f"{self.left}|{'_bot' if self.matched is BOT else self.matched}"


@dataclass(frozen=True)
class TransitionProvenance:
    """Why a transition exists: the construction row and the left-side
    distribution it implements."""

    source: CexState
    action: Action
    row: str            # "copy", or the rejection bucket letter a/b/c/f
    mu1: Distribution


@dataclass(frozen=True)
class CounterexamplePA(PA):
    """Concrete separating automaton plus per-transition provenance."""

    provenance: tuple[TransitionProvenance, ...] = ()


# ---------------------------------------------------------------------------
# Deterministic distribution selection
# ---------------------------------------------------------------------------


def _default_member(phi: ConstraintExpr, states: tuple) -> Distribution:
    """Deterministic satisfying distribution for a general constraint: the
    lexicographically least piece-closure vertex that actually satisfies it,
    else any interior point (strict rows can cut off every vertex)."""
    best = None
    best_key = None
    for piece in C.dnf_cover(phi):
        for v in C.vertices(C.Polytope.from_piece(piece, states)):
            if not C.sat_member(phi, v):
                continue
            key = tuple(v[s] for s in states)
            if best_key is None or key < best_key:
                best, best_key = v, key
    if best is not None:
        return best
    mu = C.sat_nonempty(phi, states)
    if mu is None:
        raise InputError("constraint has no satisfying distribution")
    return mu


def _unmatched_member(analysis: RefinementAnalysis, s1: State, s2: State,
                      e: Action) -> Distribution:
    """A left distribution no right distribution simulates w.r.t. the maximal
    relation — exists whenever the action landed in bucket c/f."""
    n1, n2 = analysis.n1, analysis.n2
    phi1 = n1.constraint(_single_transition(n1, s1, e).constraint_id)
    phi2 = n2.constraint(_single_transition(n2, s2, e).constraint_id)
    witness = _sim_witness(phi1, n1.states,
                           forced_map(n1, n2, s2, e, analysis.relation),
                           phi2, n2.states)
    assert witness is not None, \
        f"bucket c/f action {e!r} at ({s1!r},{s2!r}) admits no unmatched distribution"
    return witness.mu


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _to_bot(mu1: Distribution) -> dict:
    return {CexState(s, BOT): m for s, m in mu1.items}


def _route(n1: APA, n2: APA, s2: State, e: Action, mu1: Distribution) -> dict:
    """Re-key a left distribution by pairing each successor with its forced
    right successor (sink when there is none)."""
    return {CexState(s, forced_successor(n2, s2, e, n1.valuation_of(s))): m
            for s, m in mu1.items}


def _copy_rows(n1: APA, s1: State,
               exclude: frozenset) -> Iterator[tuple[Action, str, Distribution, dict]]:
    for a in n1.actions:
        if a in exclude:
            continue
        t1 = _single_transition(n1, s1, a)
        if t1 is None or t1.modality is not Modality.MUST:
            continue
        mu1 = _default_member(n1.constraint(t1.constraint_id), n1.states)
        yield a, "copy", mu1, _to_bot(mu1)


def _state_rows(analysis: RefinementAnalysis,
                st: CexState) -> Iterator[tuple[Action, str, Distribution, dict]]:
    n1, n2 = analysis.n1, analysis.n2
    s1, s2 = st.left, st.matched
    if s2 is BOT or analysis.case_of(s1, s2) is not CaseLabel.CASE3:
        yield from _copy_rows(n1, s1, frozenset())
        return
    bs = analysis.bsets_of(s1, s2)
    yield from _copy_rows(n1, s1, frozenset(bs.all_actions))
    brk = frozenset(breaking(analysis, s1, s2))
    for e in bs.of("ab"):
        t1 = _single_transition(n1, s1, e)
        mu1 = _default_member(n1.constraint(t1.constraint_id), n1.states)
        yield e, ("a" if e in bs.of("a") else "b"), mu1, _to_bot(mu1)
    for e in bs.of("cf"):
        if e in brk:
            mu1 = lemma_indplus_witness(analysis, s1, s2, e).mu
        else:
            mu1 = _unmatched_member(analysis, s1, s2, e)
        yield e, ("c" if e in bs.of("c") else "f"), mu1, _route(n1, n2, s2, e, mu1)
    # bucket d/e actions: deliberately no transition


def counterexample(n1: APA, n2: APA) -> CounterexamplePA:
    """Build a concrete automaton satisfying n1 and violating n2.

    Requires deterministic single-valuation inputs with a failed refinement;
    the result is reproducible (all distribution choices are deterministic)
    and has at most |S1| * (|S2| + 1) states.
    """
    analysis = compute_refinement(n1, n2)
    if analysis.refines:
        raise PreconditionError("left refines right; no separating implementation exists")
    initial = CexState(n1.initial_state(), n2.initial_state())
    order: list[CexState] = [initial]
    seen = {initial}
    transitions: list[tuple[CexState, Action, Distribution]] = []
    provenance: list[TransitionProvenance] = []
    idx = 0
    while idx < len(order):
        st = order[idx]
        idx += 1
        for action, row, mu1, mass in _state_rows(analysis, st):
            mu = Distribution.of(mass)
            transitions.append((st, action, mu))
            provenance.append(TransitionProvenance(st, action, row, mu1))
            for succ, _ in mu.items:
                if succ not in seen:
                    seen.add(succ)
                    order.append(succ)
    base = make_pa(states=order, actions=n1.actions, ap=n1.ap,
                   labeling={st: n1.valuation_of(st.left) for st in order},
                   transitions=transitions, initial=initial)
    result = CounterexamplePA(base.states, base.actions, base.ap, base.labeling,
                              base.transitions, base.initial, tuple(provenance))
    report = validate_pa(result)
    assert report.ok, f"constructed automaton is invalid: {report.errors}"
    keys = [(t.source, t.action) for t in result.transitions]
    assert len(keys) == len(set(keys)), \
        "constructed automaton is not deterministic; the failure analysis is inconsistent"
    return result
