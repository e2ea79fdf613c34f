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
from typing import Iterator

from . import constraints as C
from .constraints import ConstraintExpr, Distribution, State
from .errors import InputError, PreconditionError
from .model import APA, PA, Action, Modality, make_pa, validate_pa
from .refinement import (CaseLabel, RefinementAnalysis, breaking, compute_refinement,
                         forced_map, unmatched_witness)

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
    lexicographically least piece-closure vertex that actually satisfies it
    (`vertices` lists a piece's in that order), else any interior point
    (strict rows can cut off every vertex)."""
    firsts = [next((v for v in C.vertices(piece, states) if C.sat_member(phi, v)), None)
              for piece in C.dnf_cover(phi)]
    firsts = [v for v in firsts if v is not None]
    if firsts:
        return min(firsts, key=lambda v: tuple(v[s] for s in states))
    mu = C.sat_nonempty(phi, states)
    if mu is None:
        raise InputError("constraint has no satisfying distribution")
    return mu


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _to_bot(mu1: Distribution) -> dict:
    return {CexState(s, BOT): m for s, m in mu1.items}


def _route(analysis: RefinementAnalysis, s2: State, e: Action, mu1: Distribution) -> dict:
    """Re-key a left distribution by pairing each successor with its forced
    right successor (sink when there is none)."""
    succ = dict(forced_map(analysis, s2, e))
    return {CexState(s, succ[s]): m for s, m in mu1.items}


def _copy_rows(analysis: RefinementAnalysis, s1: State,
               exclude: frozenset) -> Iterator[tuple[Action, str, Distribution, dict]]:
    n1 = analysis.n1
    for a in n1.actions:
        step = analysis.steps1.get((s1, a))
        if a in exclude or step is None or step.transition.modality is not Modality.MUST:
            continue
        mu1 = _default_member(n1.constraint(step.transition.constraint_id), n1.states)
        yield a, "copy", mu1, _to_bot(mu1)


def _state_rows(analysis: RefinementAnalysis,
                st: CexState) -> Iterator[tuple[Action, str, Distribution, dict]]:
    n1 = analysis.n1
    s1, s2 = st.left, st.matched
    if s2 is BOT or analysis.case_of(s1, s2) is not CaseLabel.CASE3:
        yield from _copy_rows(analysis, s1, frozenset())
        return
    bs = analysis.bsets_of(s1, s2)
    yield from _copy_rows(analysis, s1, frozenset(bs.all_actions))
    brk = frozenset(breaking(analysis, s1, s2))
    for e in bs.of("ab"):
        t1 = analysis.steps1[(s1, e)].transition
        mu1 = _default_member(n1.constraint(t1.constraint_id), n1.states)
        yield e, ("a" if e in bs.of("a") else "b"), mu1, _to_bot(mu1)
    for e in bs.of("cf"):
        relation = analysis.history[analysis.ind_of(s1, s2)] if e in brk else analysis.relation
        mu1 = unmatched_witness(analysis, s1, s2, e, relation).mu
        yield e, ("c" if e in bs.of("c") else "f"), mu1, _route(analysis, s2, e, mu1)
    # bucket d/e actions: deliberately no transition


def counterexample(n1: APA, n2: APA) -> CounterexamplePA:
    """Build a concrete automaton satisfying n1 and violating n2.

    Requires deterministic single-valuation inputs with a failed refinement;
    the result is reproducible (all distribution choices are deterministic)
    and has at most |S1| * (|S2| + 1) states.  A bucket c/f transition takes
    `unmatched_witness` under R_ind for a breaking action (the lemma's
    witness) and under R_K for any other.
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
