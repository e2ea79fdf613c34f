"""Refinement between abstract automata: the shrinking-relation fixed point,
removal indices, case classification with per-action blame sets, witness
distributions for recursive failures, and satisfaction of a concrete
automaton against an abstract one.

A rejected pair with equal valuations is in case 3, and each action that
rejects it lands in one blame bucket a-f (see `BSets`).  `_blame` is the one
place the buckets are decided: the fixpoint's pair check stops at its first
blamed action, `_compute_bsets` collects all of them against the maximal
relation, and `breaking` reads them against the relation of the sweep that
removed the pair.

For deterministic targets in single-valuation normal form the correspondence
function inside each pair check is forced: a left successor can only be
matched with the unique equally-labeled potential successor on the right.
Every quantifier over distributions then reduces to exact LPs over the
disjunctive-normal-form pieces of the constraints involved, built by two
kernels plus `constraints.piece_point`:

  * `_pull_back` turns a right-hand piece into rows over the left states
    through a successor map.  `_sim_witness` adds them to a left piece and
    reads the LP's vertex, which becomes a witness distribution and, through
    `counterexample`, a transition of the separating implementation;
    `push_ok` in `_map_condition` reads feasibility only, so it asks
    `constraints.piece_feasible`, which starts from the slack basis.
  * `_coupling_feasible` asks whether some distribution of a constraint
    simulates one concrete distribution, over the joint coupling weights.
    It is the one matching test of `satisfies`, for every target, and the
    rejection filter of `_map_condition`.  When each support state has a
    single related state, as on a deterministic target whose states carry
    distinct valuations, the coupling is forced and membership of its image
    decides it, with no LP; otherwise `_lp.feasible` decides it.
  * "Mass at s" is `piece_point` with the strict row mu(s) > 0.
    `_sim_witness` and `lemma_indplus_witness` read its vertex.  The domain
    of `_map_condition`, the states with mass somewhere in a left piece,
    is one support pass per nonempty piece (`constraints.piece_support`):
    phase 1 once, then re-priced until no unknown state gains mass.

Every LP whose vertex is read keeps its rows, row order and variable order,
and starts from the all-artificial basis of `_lp.solve`, so witnesses and
counterexamples do not depend on which caller built them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

from . import _lp
from . import constraints as C
from .constraints import (Distribution, FacetViolation, LinearAtom, ReachesPair, State,
                          SupportAtState, WitnessDistribution, ZERO, ONE)
from .errors import InputError, PreconditionError, ResourceLimitError
from .model import (APA, PA, Action, Modality, Transition, forced_successor,
                    is_deterministic, is_svnf)

Pair = tuple[State, State]

DEFAULT_NODE_BUDGET = 10 ** 6


class CaseLabel(enum.Enum):
    CASE1 = 1   # pair inside the maximal relation
    CASE2 = 2   # valuations differ
    CASE3 = 3   # equal valuations, pair rejected


@dataclass(frozen=True)
class BSets:
    """Per-action blame sets for a rejected pair with equal valuations, as
    `_blame` decides them; each blamed action is in exactly one set.

    a: left has a required transition, right allows none.
    b: left has an optional transition, right allows none.
    c: both transition, right's is optional, some left distribution is
       unmatched by every right distribution.
    d: right requires a transition, left has none at all.
    e: right requires a transition, left's is merely optional.
    f: both require, some left distribution is unmatched.
    """

    b_a: tuple[Action, ...] = ()
    b_b: tuple[Action, ...] = ()
    b_c: tuple[Action, ...] = ()
    b_d: tuple[Action, ...] = ()
    b_e: tuple[Action, ...] = ()
    b_f: tuple[Action, ...] = ()

    def of(self, which: str) -> tuple[Action, ...]:
        merged = set()
        for x in which:
            merged.update(getattr(self, f"b_{x}"))
        return tuple(sorted(merged))

    @property
    def all_actions(self) -> tuple[Action, ...]:
        return self.of("abcdef")


@dataclass(eq=False)
class RefinementAnalysis:
    """Everything the difference and counterexample constructions consume."""

    n1: APA
    n2: APA
    history: tuple[frozenset, ...]          # R_0 ... R_K
    relation: frozenset = field(init=False)  # maximal relation R_K
    fixpoint_index: int = field(init=False)  # K
    ind: dict = field(default_factory=dict)
    cases: dict = field(default_factory=dict)
    bsets: dict = field(default_factory=dict)

    def __post_init__(self):
        self.relation = self.history[-1]
        self.fixpoint_index = len(self.history) - 1

    def ind_of(self, s1: State, s2: State) -> int:
        return self.ind[(s1, s2)]

    def case_of(self, s1: State, s2: State) -> CaseLabel:
        return self.cases[(s1, s2)]

    def bsets_of(self, s1: State, s2: State) -> BSets:
        return self.bsets.get((s1, s2), BSets())

    @property
    def refines(self) -> bool:
        try:
            s01, s02 = self.n1.initial_state(), self.n2.initial_state()
        except PreconditionError:
            return all(any((s1, s2) in self.relation for s2 in self.n2.initial)
                       for s1 in self.n1.initial)
        return (s01, s02) in self.relation


# ---------------------------------------------------------------------------
# The forced-correspondence simulation check
# ---------------------------------------------------------------------------


def _single_transition(n: APA, s: State, a: Action) -> Transition | None:
    ts = n.transitions_from(s, a)
    if len(ts) > 1:
        raise PreconditionError(f"state {s!r} has {len(ts)} transitions on {a!r}; need determinism")
    return ts[0] if ts else None


def forced_map(n1: APA, n2: APA, s2: State, a: Action,
               relation: frozenset | None = None) -> tuple[tuple[State, State | None], ...]:
    """succ-induced successor map S1 -> S2, optionally filtered by a relation."""
    out = []
    for s1p in n1.states:
        t = forced_successor(n2, s2, a, n1.valuation_of(s1p))
        if t is not None and relation is not None and (s1p, t) not in relation:
            t = None
        out.append((s1p, t))
    return tuple(out)


def _pull_back(piece: C.Piece, image: Mapping[State, State]) -> tuple[list, list]:
    """The rows of a right-hand piece as (nonstrict, strict) rows over left
    states: a row c . nu REL rhs becomes c . T#mu REL rhs for the successor
    map T = `image`.  Left states outside `image` get no coefficient, so the
    caller pins their mass separately."""
    nonstrict: list = []
    strict: list = []
    for coeffs, rel, rhs in piece.rows:
        cm = dict(coeffs)
        row = {s: cm[t] for s, t in image.items() if t in cm}
        if rel == "<":
            strict.append((row, rhs))
        else:
            nonstrict.append((row, rel, rhs))
    return nonstrict, strict


@lru_cache(maxsize=None)
def _sim_witness(phi1, states1: tuple, mapping: tuple, phi2, states2: tuple):
    """A mu1 in Sat(phi1) that no mu2 in Sat(phi2) simulates under the forced
    map, or None if every mu1 is matched.

    Violations decompose exactly into: mass on an unmapped left successor, or
    a fully-mapped mu1 whose image falls outside Sat(phi2).
    """
    mdict = dict(mapping)
    unmapped = [s for s in states1 if mdict.get(s) is None]
    image = {s: mdict[s] for s in states1 if mdict.get(s) is not None}
    zero_rows = [({s: ONE}, "==", ZERO) for s in unmapped]

    for piece in C.dnf_cover(phi1):
        # (i) mass on an unmapped successor
        for s in unmapped:
            point = C.piece_point(piece, states1, extra_strict=[({s: -ONE}, ZERO)])
            if point is not None:
                return WitnessDistribution(Distribution.of(point), SupportAtState(s))
        # (ii) fully mapped, image outside Sat(phi2)
        for neg_piece in C.dnf_cover(C.negate(phi2)):
            pulled_nonstrict, pulled_strict = _pull_back(neg_piece, image)
            point = C.piece_point(piece, states1, zero_rows + pulled_nonstrict, pulled_strict)
            if point is not None:
                # the first row certifies the violation; name the right-hand
                # condition it refutes
                facet = LinearAtom((), "==", ONE)
                if neg_piece.rows:
                    coeffs, rel, rhs = neg_piece.rows[0]
                    facet = LinearAtom(coeffs, {"<": ">=", "<=": ">", "==": "=="}[rel], rhs)
                return WitnessDistribution(Distribution.of(point), FacetViolation(facet))
    return None


def _coupling_feasible(mu: Mapping[State, Fraction], phi, states2: tuple,
                       relation: frozenset) -> bool:
    """Exact: does some mu2 in Sat(phi) simulate the concrete mu w.r.t. `relation`?

    Decided as a feasibility problem over the joint weights
    w(s, t) = mu(s) * delta(s)(t) on related pairs, one LP per piece of phi;
    the image mass at t is the column sum of w at t.  When every support
    state has a single related target the weights are forced, w(s, t) = mu(s),
    and the answer is membership of that one image, with no LP.  A row that
    names no related target compares 0 with its right-hand side and is
    decided without the LP.
    """
    supp = [s for s, m in mu.items() if m > 0]
    cands = {s: [t for t in states2 if (s, t) in relation] for s in supp}
    if any(not cands[s] for s in supp):
        return False
    if all(len(cands[s]) == 1 for s in supp):
        image: dict = {}
        for s in supp:
            image[cands[s][0]] = image.get(cands[s][0], ZERO) + mu[s]
        return C.sat_member(phi, image)
    variables = [(s, t) for s in supp for t in cands[s]]
    base = [({(s, t): ONE for t in cands[s]}, "==", mu[s]) for s in supp]
    for piece in C.dnf_cover(phi):
        nonstrict, strict = [], []
        for coeffs, rel, rhs in piece.rows:
            row = {(s, t): c for t, c in coeffs for s in supp if (s, t) in relation}
            if not row:
                if not {"<=": ZERO <= rhs, "<": ZERO < rhs, "==": ZERO == rhs}[rel]:
                    break  # the piece is empty
            elif rel == "<":
                strict.append((row, rhs))
            else:
                nonstrict.append((row, rel, rhs))
        else:
            # Sat(phi) lives on the target simplex: the base rows already make
            # the column sums total 1, since mu sums to 1.
            if _lp.feasible(base + nonstrict, variables, strict):
                return True
    return False


def _sim_ok(n1: APA, n2: APA, phi1, s2: State, a: Action, phi2,
            relation: frozenset) -> bool:
    mapping = forced_map(n1, n2, s2, a, relation)
    return _sim_witness(phi1, n1.states, mapping, phi2, n2.states) is None


# ---------------------------------------------------------------------------
# Fixed-point computation
# ---------------------------------------------------------------------------


def _blame(n1: APA, n2: APA, s1: State, s2: State,
           relation: frozenset) -> Iterator[tuple[Action, str]]:
    """(action, bucket) for each action that rejects the pair (s1, s2) under
    `relation`, in action order; buckets as in `BSets`.

    The one place the case-3 buckets are decided.  It is lazy, so a caller
    that needs only a verdict stops at the first blamed action.  Buckets a,
    b, d and e read the two transitions only; c and f also run the
    unmatched-distribution test against `relation`.
    """
    for a in n1.actions:
        t1 = _single_transition(n1, s1, a)
        t2 = _single_transition(n2, s2, a)
        if t1 is None:
            if t2 is not None and t2.modality is Modality.MUST:
                yield a, "d"
        elif t2 is None:
            yield a, "a" if t1.modality is Modality.MUST else "b"
        elif t2.modality is Modality.MUST and t1.modality is Modality.MAY:
            yield a, "e"
        elif not _sim_ok(n1, n2, n1.constraint(t1.constraint_id), s2, a,
                         n2.constraint(t2.constraint_id), relation):
            yield a, "c" if t2.modality is Modality.MAY else "f"


def _pair_ok(n1: APA, n2: APA, s1: State, s2: State, relation: frozenset) -> bool:
    return (n1.valuation_of(s1) == n2.valuation_of(s2)
            and next(_blame(n1, n2, s1, s2, relation), None) is None)


def _require_analysable(n1: APA, n2: APA) -> None:
    for n, name in ((n1, "left"), (n2, "right")):
        if not is_svnf(n):
            raise PreconditionError(f"{name} automaton is not in single-valuation normal form")
        if not is_deterministic(n):
            raise PreconditionError(f"{name} automaton is not deterministic")
        if set(n.actions) != set(n1.actions):
            raise InputError("automata must share the same action alphabet")


def compute_refinement(n1: APA, n2: APA) -> RefinementAnalysis:
    """Greatest fixed point of the pair-elimination sweep, with bookkeeping."""
    _require_analysable(n1, n2)
    return _refinement_fixpoint(n1, n2)


def _greatest_fixpoint(pairs: Iterable[Pair],
                       pair_ok: Callable[[State, State, frozenset], bool]) -> tuple[frozenset, ...]:
    """Pair elimination R_{k+1} = {p in R_k : pair_ok(p, R_k)} from R_0 = `pairs`
    until R_{k+1} = R_k; returns R_0 ... R_K.

    Each sweep checks every surviving pair against the relation as it stood
    when the sweep began, so R_k is the k-th approximant that `breaking` and
    the difference constructions read back as `history[k]`.
    """
    current = frozenset(pairs)
    history = [current]
    while True:
        nxt = frozenset(p for p in current if pair_ok(p[0], p[1], current))
        if nxt == current:
            return tuple(history)
        history.append(nxt)
        current = nxt


def _refinement_fixpoint(n1: APA, n2: APA) -> RefinementAnalysis:
    """`compute_refinement` on inputs already known to be analysable."""
    pairs = [(s1, s2) for s1 in n1.states for s2 in n2.states]
    history = _greatest_fixpoint(
        pairs, lambda s1, s2, relation: _pair_ok(n1, n2, s1, s2, relation))
    analysis = RefinementAnalysis(n1, n2, history)
    K = analysis.fixpoint_index
    for p in pairs:
        analysis.ind[p] = max(k for k, r in enumerate(history) if p in r) if p in history[0] else 0
    for p in pairs:
        s1, s2 = p
        if p in analysis.relation:
            analysis.cases[p] = CaseLabel.CASE1
        elif n1.valuation_of(s1) != n2.valuation_of(s2):
            analysis.cases[p] = CaseLabel.CASE2
        else:
            analysis.cases[p] = CaseLabel.CASE3
            analysis.bsets[p] = _compute_bsets(n1, n2, s1, s2, analysis.relation)
    return analysis


def _compute_bsets(n1: APA, n2: APA, s1: State, s2: State,
                   relation: frozenset) -> BSets:
    buckets: dict[str, list[Action]] = {x: [] for x in "abcdef"}
    for a, bucket in _blame(n1, n2, s1, s2, relation):
        buckets[bucket].append(a)
    return BSets(**{f"b_{x}": tuple(sorted(acts)) for x, acts in buckets.items()})


def refines(n1: APA, n2: APA) -> bool:
    """Refinement between abstract automata.

    Deterministic pairs use the exact fixed point.  Non-deterministic inputs
    (difference automata, typically) fall back to a sound fixed point whose
    distribution condition is witnessed by piecewise successor maps; it can
    answer False on a refinement it fails to witness, never True wrongly.
    """
    if _deterministic_pair(n1, n2):
        return _refinement_fixpoint(n1, n2).refines
    return _refines_nondet(n1, n2)


def _deterministic_pair(n1: APA, n2: APA) -> bool:
    return (is_svnf(n1) and is_svnf(n2)
            and is_deterministic(n1) and is_deterministic(n2)
            and set(n1.actions) == set(n2.actions))


# -- sound refinement for non-deterministic automata ------------------------

_MAP_TEST_BUDGET = 256  # complete successor maps tried per constraint piece


def _candidate_order(s: State):
    def key(t: State):
        return (t != s, str(t))
    return key


@lru_cache(maxsize=None)
def _complement_pieces(phi2):
    return C.dnf_cover(C.negate(phi2))


def _map_condition(phi1, states1: tuple, phi2, states2: tuple,
                   relation: frozenset) -> bool:
    """Sufficient check: every mu1 in Sat(phi1) simulated w.r.t. `relation` by
    some mu2 in Sat(phi2).

    Witness shape: per piece of Sat(phi1), one deterministic successor map T
    (relation-compatible); the pushforward condition T#piece being inside
    Sat(phi2) is then exact, decided against the complement cover.  Searching
    only deterministic maps is the conservative part.  Only pairs whose left
    state is supportable in phi1 are ever read.
    """
    neg_pieces = _complement_pieces(phi2)
    for piece in C.dnf_cover(phi1):
        probe = C.piece_point(piece, states1)
        if probe is None:
            continue
        # complete rejection filter: one concrete point with no simulating image
        if not _coupling_feasible(probe, phi2, states2, relation):
            return False
        dom = list(C.piece_support(piece, states1, (s for s, m in probe.items() if m > 0)))
        cands = {s: sorted((t for t in states2 if (s, t) in relation), key=_candidate_order(s))
                 for s in dom}
        if any(not cands[s] for s in dom):
            return False
        dom.sort(key=lambda s: (len(cands[s]), str(s)))

        def push_ok(assign: dict) -> bool:
            for neg in neg_pieces:
                pulled_nonstrict, pulled_strict = _pull_back(neg, assign)
                if C.piece_feasible(piece, states1, pulled_nonstrict, pulled_strict):
                    return False  # some mu1 in the piece escapes Sat(phi2)
            return True

        budget = _MAP_TEST_BUDGET

        def dfs(i: int, assign: dict) -> bool:
            nonlocal budget
            if budget <= 0:
                return False
            if i == len(dom):
                budget -= 1
                return push_ok(assign)
            for t in cands[dom[i]]:
                assign[dom[i]] = t
                if dfs(i + 1, assign):
                    return True
                if budget <= 0:
                    break
            assign.pop(dom[i], None)
            return False

        if not dfs(0, {}):
            return False
    return True


def _nondet_pair_ok(n1: APA, n2: APA, s1: State, s2: State, relation: frozenset,
                    map_ok: Callable[[str, str, frozenset], bool]) -> bool:
    """`map_ok(cid1, cid2, relation)` is `_map_condition` on the two constraints."""
    for a in n1.actions:
        ts1 = n1.transitions_from(s1, a)
        ts2 = n2.transitions_from(s2, a)
        for tr2 in ts2:
            if tr2.modality is not Modality.MUST:
                continue
            if not any(tr1.modality is Modality.MUST and
                       map_ok(tr1.constraint_id, tr2.constraint_id, relation)
                       for tr1 in ts1):
                return False
        for tr1 in ts1:
            if not any(map_ok(tr1.constraint_id, tr2.constraint_id, relation)
                       for tr2 in ts2):
                return False
    return True


def _refines_nondet(n1: APA, n2: APA) -> bool:
    for n, name in ((n1, "left"), (n2, "right")):
        if not is_svnf(n):
            raise PreconditionError(f"{name} automaton is not in single-valuation normal form")
    if set(n1.actions) != set(n2.actions):
        raise InputError("automata must share the same action alphabet")
    states1, states2 = tuple(n1.states), tuple(n2.states)
    # Both memos live for this call only, so memory stays bounded by one analysis.
    supportable: dict = {}  # constraint id of n1 -> its supportable states
    decided: dict = {}      # (cid1, cid2, relation on supportable x S2) -> verdict

    def map_ok(cid1: str, cid2: str, relation: frozenset) -> bool:
        if cid1 not in supportable:
            supportable[cid1] = frozenset(C.supportable_states(n1.constraint(cid1), states1))
        supp1 = supportable[cid1]
        relation_slice = frozenset(p for p in relation if p[0] in supp1)
        key = (cid1, cid2, relation_slice)
        if key not in decided:
            decided[key] = _map_condition(n1.constraint(cid1), states1,
                                          n2.constraint(cid2), states2, relation_slice)
        return decided[key]

    initial = [(s1, s2) for s1 in n1.states for s2 in n2.states
               if n1.valuation_of(s1) == n2.valuation_of(s2)]
    relation = _greatest_fixpoint(
        initial, lambda s1, s2, rel: _nondet_pair_ok(n1, n2, s1, s2, rel, map_ok))[-1]
    return all(any((s1, s2) in relation for s2 in n2.initial) for s1 in n1.initial)


# ---------------------------------------------------------------------------
# Breaking actions and witness distributions
# ---------------------------------------------------------------------------


def breaking(analysis: RefinementAnalysis, s1: State, s2: State) -> tuple[Action, ...]:
    """Actions whose violation removed the pair at its recorded sweep.

    Defined for equal-valuation pairs outside the maximal relation: the
    actions `_blame` finds against the relation as it stood when the pair
    was removed, not the final one.  Only buckets c and f read the relation,
    so the others are the pair's `BSets` entries.
    """
    n1, n2 = analysis.n1, analysis.n2
    if n1.valuation_of(s1) != n2.valuation_of(s2):
        raise PreconditionError("breaking is defined for equal-valuation pairs only")
    k = analysis.ind_of(s1, s2)
    if k >= analysis.fixpoint_index:
        raise PreconditionError("breaking is defined for rejected pairs only")
    result = tuple(sorted(a for a, _ in _blame(n1, n2, s1, s2, analysis.history[k])))
    assert result, "a rejected equal-valuation pair must have a breaking action"
    return result


def lemma_indplus_witness(analysis: RefinementAnalysis, s1: State, s2: State,
                          e: Action) -> WitnessDistribution:
    """A left distribution certifying the recursive failure on action e.

    Searched in a fixed order: (1) mass on a successor with no counterpart,
    (2) fully-matched image violating the right constraint, (3) mass on a
    successor pair rejected strictly earlier.
    """
    n1, n2 = analysis.n1, analysis.n2
    if analysis.case_of(s1, s2) is not CaseLabel.CASE3:
        raise PreconditionError("witness extraction needs an equal-valuation rejected pair")
    bs = analysis.bsets_of(s1, s2)
    if e not in bs.of("cf") or e not in breaking(analysis, s1, s2):
        raise PreconditionError(f"action {e!r} is not a constraint-level breaking action here")
    k = analysis.ind_of(s1, s2)
    rel_k = analysis.history[k]
    phi1 = n1.constraint(_single_transition(n1, s1, e).constraint_id)
    phi2 = n2.constraint(_single_transition(n2, s2, e).constraint_id)
    full = dict(forced_map(n1, n2, s2, e))  # no relation filter

    states1 = n1.states
    for piece in C.dnf_cover(phi1):
        # (1) support state with no potential successor at all
        for s in states1:
            if full.get(s) is None:
                point = C.piece_point(piece, states1, extra_strict=[({s: -ONE}, ZERO)])
                if point is not None:
                    return WitnessDistribution(Distribution.of(point), SupportAtState(s))
    # (2) fully mapped image misses Sat(phi2)
    witness = _sim_witness(phi1, states1, tuple(sorted(full.items(), key=lambda kv: str(kv[0]))),
                           phi2, n2.states)
    if witness is not None and isinstance(witness.reason, FacetViolation):
        return witness
    # (3) mass on a successor pair rejected strictly earlier
    for piece in C.dnf_cover(phi1):
        for s in states1:
            t = full.get(s)
            if t is not None and (s, t) not in rel_k:
                point = C.piece_point(piece, states1, extra_strict=[({s: -ONE}, ZERO)])
                if point is not None:
                    return WitnessDistribution(Distribution.of(point), ReachesPair(s, t))
    raise AssertionError("breaking action admits no witness; analysis is inconsistent")


# ---------------------------------------------------------------------------
# Satisfaction of a concrete automaton against an abstract one
# ---------------------------------------------------------------------------


def satisfies(p: PA, n: APA, budget: int | None = None) -> tuple[bool, frozenset | None]:
    """Does the concrete automaton implement the abstract one?

    Runs a greatest-fixed-point pair elimination from the valuation-equal
    pairs; every sweep checks each surviving pair, at most `budget` pair
    checks in all (`DEFAULT_NODE_BUDGET` when None).  Each concrete
    distribution mu is matched against a constraint by `_coupling_feasible`,
    whatever the target.  Where each support state of mu has a single
    related state (the usual case on a deterministic target) the coupling is
    forced and membership of its image decides it, with no LP; a slice of
    two or more related states takes the coupling LP.  The test reads the
    relation only on supp(mu) x states(n), so it is decided once per call
    and relation slice, and a recheck whose slice is unchanged solves no LP.
    """
    if not is_svnf(n):
        raise PreconditionError("satisfaction requires the abstract side in "
                                "single-valuation normal form")
    limit = budget if budget is not None else DEFAULT_NODE_BUDGET
    checks = 0
    # This memo lives for this call only.
    matched: dict = {}  # (mu, constraint id, relation on supp(mu) x S) -> verdict

    def pair_ok(ps: State, s2: State, relation: frozenset) -> bool:
        nonlocal checks
        checks += 1
        if checks > limit:
            raise ResourceLimitError(f"satisfaction search exceeded {limit} pair checks")
        for a in p.actions:
            mus = [t.distribution for t in p.transitions_from(ps, a)]
            phis = [(t.constraint_id, n.constraint(t.constraint_id), t.modality)
                    for t in n.transitions_from(s2, a)]
            for cid, phi, modality in phis:
                if modality is Modality.MUST:
                    if not any(_matches(mu, cid, phi, relation) for mu in mus):
                        return False
            for mu in mus:
                if not any(_matches(mu, cid, phi, relation) for cid, phi, _ in phis):
                    return False
        return True

    def _matches(mu: Distribution, cid, phi, relation: frozenset) -> bool:
        relation_slice = frozenset((s, t) for s in mu.support() for t in n.states
                                   if (s, t) in relation)
        key = (mu, cid, relation_slice)
        if key not in matched:
            matched[key] = _coupling_feasible(mu.mass, phi, n.states, relation_slice)
        return matched[key]

    pairs = [(ps, s2) for ps in p.states for s2 in n.states
             if (p.valuation_of(ps),) == tuple(n.valuations(s2))]
    current = _greatest_fixpoint(pairs, pair_ok)[-1]
    ok = any((p.initial, s0) in current for s0 in n.initial)
    return (ok, current if ok else None)
