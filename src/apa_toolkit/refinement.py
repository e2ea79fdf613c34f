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

The modal clauses of refinement are the groups of `model.obligations`.
`_obligations_met` reads them for `satisfies` and the nondeterministic
fixpoint of `refines`; `_blame` is their deterministic form, with buckets.

For deterministic targets in single-valuation normal form the correspondence
function inside each pair check is forced: a left successor can only be
matched with the unique equally-labeled potential successor on the right.
Every quantifier over distributions then reduces to exact LPs over the
disjunctive-normal-form pieces of the constraints involved.  Each LP pulls
the rows of a right-hand piece back through a state map with the one kernel
`constraints.pull_back` and adds them to a left system:

  * through a successor map, in `_sim_witness` and `push_ok`.
    `_sim_witness` adds the rows as they are to a left piece and reads the
    vertex (`constraints.piece_point`), which becomes a witness and, through
    `counterexample`, a transition of the separating implementation.
    `push_ok` in `_map_condition` reads feasibility only, so rows that name
    no left state are decided with no LP (`constraints.named_rows`).  Each
    left piece takes one tableau per `_refines_nondet` call
    (`constraints.prepare_piece`): its support is the domain of the map
    search, and every map test appends its rows to it (`_lp.feasible_with`),
    once per piece and set of rows, and re-optimizes it by dual simplex
    from the optimum of the strict slack, with no phase 1.
  * through the coupling map (s, t) -> t, in `_coupling_feasible`: does
    some distribution of a constraint simulate one concrete distribution?
    It is the matching test of `satisfies`, for every target.  When each
    support state has a single related state, the coupling is forced and
    membership of its image decides it, with no LP; otherwise `named_rows`
    and `_lp.feasible` do.

"Mass at s" is `piece_point` with the strict row mu(s) > 0; `_sim_witness`
and `unmatched_witness` read its vertex through `_mass_witness`.

The `RefinementAnalysis`, created before the fixpoint with one
`model.successor_table` per side, is the one context of the deterministic
path: every reader of transitions, supports and forced successors, here and
in the difference and counterexample constructions, takes them from it.  It
memoizes `_sim_witness` by (phi1, forced map, phi2).  The forced map reads
no relation: the failure test of buckets c and f reads one only through
`_pairs_outside`, a set lookup, so the memo does not depend on the sweep and
the fixpoint, the blame sets, `breaking` and every witness share its LPs.

Every LP whose vertex is read keeps its rows, row order and variable order,
and starts from the all-artificial basis of `_lp.solve`, so witnesses and
counterexamples do not depend on which caller built them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Mapping

from . import _lp
from . import constraints as C
from .constraints import (Distribution, FacetViolation, LinearAtom, ReachesPair, State,
                          SupportAtState, WitnessDistribution, ZERO, ONE)
from .errors import InputError, PreconditionError, ResourceLimitError
from .model import (APA, PA, Action, Modality, PATransition, Transition, is_svnf,
                    obligations, successor_table)

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
    """The one context of the deterministic path: both automata, their
    successor tables, the fixpoint's history and bookkeeping, and the memo
    of `_sim_witness`."""

    n1: APA
    n2: APA
    steps1: dict                             # successor_table(n1)
    steps2: dict                             # successor_table(n2)
    history: tuple[frozenset, ...] = ()      # R_0 ... R_K, set by the fixpoint
    ind: dict = field(default_factory=dict)
    cases: dict = field(default_factory=dict)
    bsets: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)  # (phi1, mapping, phi2) -> _sim_witness

    @property
    def relation(self) -> frozenset:  # maximal relation R_K
        return self.history[-1]

    @property
    def fixpoint_index(self) -> int:  # K
        return len(self.history) - 1

    def constraints_on(self, s1: State, s2: State, a: Action) -> tuple:
        """The constraints of the a-transitions of s1 and s2; both exist."""
        return (self.n1.constraint(self.steps1[(s1, a)].transition.constraint_id),
                self.n2.constraint(self.steps2[(s2, a)].transition.constraint_id))

    def sim_witness(self, s1: State, s2: State, a: Action) -> WitnessDistribution | None:
        """`_sim_witness` of the a-transitions of s1 and s2 through the forced
        map of s2, which reads no relation; once per (phi1, map, phi2)."""
        phi1, phi2 = self.constraints_on(s1, s2, a)
        key = (phi1, forced_map(self, s2, a), phi2)
        if key not in self.witnesses:
            self.witnesses[key] = _sim_witness(phi1, self.n1.states, key[1], phi2,
                                               self.n2.states)
        return self.witnesses[key]

    def ind_of(self, s1: State, s2: State) -> int:
        return self.ind[(s1, s2)]

    def case_of(self, s1: State, s2: State) -> CaseLabel:
        return self.cases[(s1, s2)]

    def bsets_of(self, s1: State, s2: State) -> BSets:
        return self.bsets.get((s1, s2), BSets())

    @property
    def refines(self) -> bool:
        return (self.n1.initial_state(), self.n2.initial_state()) in self.relation


# ---------------------------------------------------------------------------
# The forced-correspondence simulation check
# ---------------------------------------------------------------------------


def forced_map(analysis: RefinementAnalysis, s2: State, a: Action
               ) -> tuple[tuple[State, State | None], ...]:
    """The successor map S1 -> S2 that the a-step of s2 forces (None: no
    equally-labeled successor)."""
    succ = {} if (s2, a) not in analysis.steps2 else analysis.steps2[(s2, a)].successors
    return tuple((s, succ.get(analysis.n1.valuation_of(s))) for s in analysis.n1.states)


def _sim_witness(phi1, states1: tuple, mapping: tuple, phi2, states2: tuple):
    """A mu1 in Sat(phi1) that no mu2 in Sat(phi2) simulates under the forced
    map, or None if every mu1 is matched.

    Violations decompose exactly into: (i) mass on an unmapped left
    successor, or (ii) a fully-mapped mu1 whose image falls outside Sat(phi2).
    (i) is searched on every piece of phi1 before (ii) on any, the order of
    the paper's lemma; searching piece by piece could return a facet witness
    of an earlier piece where a later piece has one of kind (i).
    """
    image = {s: t for s, t in mapping if t is not None}
    unmapped = [s for s in states1 if s not in image]
    groups = C.preimages(image)
    zero_rows = [({s: ONE}, "==", ZERO) for s in unmapped]
    pieces = C.dnf_cover(phi1)

    # (i) mass on an unmapped successor
    witness = _mass_witness(pieces, states1, [(s, SupportAtState(s)) for s in unmapped])
    if witness is not None:
        return witness
    for piece in pieces:
        # (ii) fully mapped, image outside Sat(phi2)
        for neg_piece in C.dnf_cover(C.negate(phi2)):
            point = C.piece_point(piece, states1,
                                  zero_rows + C.pull_back(neg_piece.lp_rows(), groups))
            if point is not None:
                # the first row certifies the violation; name the right-hand
                # condition it refutes
                facet = LinearAtom((), "==", ONE)
                if neg_piece.rows:
                    coeffs, rel, rhs = neg_piece.fraction_rows()[0]
                    facet = LinearAtom(coeffs, {"<": ">=", "<=": ">", "==": "=="}[rel], rhs)
                return WitnessDistribution(Distribution.of(point), FacetViolation(facet))
    return None


def _mass_witness(pieces, states1: tuple, reasons: list) -> WitnessDistribution | None:
    """The first point with mass at s, for (s, reason) in `reasons`, pieces
    outer and `reasons` inner (`piece_point` with the strict row
    mu(s) > 0), as a witness for that reason; None if there is none."""
    for piece in pieces:
        for s, reason in reasons:
            point = C.piece_point(piece, states1, [({s: ONE}, ">", ZERO)])
            if point is not None:
                return WitnessDistribution(Distribution.of(point), reason)
    return None


def _pairs_outside(analysis: RefinementAnalysis, s1: State, s2: State, a: Action,
                   relation: frozenset) -> list[Pair]:
    """The pairs (s, t) outside `relation` of a supportable successor s of
    the a-step of s1 and the successor t it is forced onto from s2: the one
    place the deterministic failure test reads a relation."""
    succ = analysis.steps2[(s2, a)].successors
    pairs = [(s, succ.get(analysis.n1.valuation_of(s))) for s in analysis.steps1[(s1, a)].support]
    return [(s, t) for s, t in pairs if t is not None and (s, t) not in relation]


def _coupling_feasible(mu: Mapping[State, Fraction], phi, states2: tuple,
                       relation: frozenset) -> bool:
    """Exact: does some mu2 in Sat(phi) simulate the concrete mu w.r.t. `relation`?

    Decided as a feasibility problem over the joint weights
    w(s, t) = mu(s) * delta(s)(t) on related pairs, one LP per piece of phi;
    the image mass at t is the column sum of w at t.  When every support
    state has a single related target the weights are forced, w(s, t) = mu(s),
    and the answer is membership of that one image, with no LP.  A row that
    names no related target compares 0 with its right-hand side and is
    decided without the LP (`constraints.named_rows`).
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
    groups = C.preimages({var: var[1] for var in variables})
    # Sat(phi) lives on the target simplex: these rows already make the
    # column sums total 1, since mu sums to 1.
    base = [({(s, t): ONE for t in cands[s]}, "==", mu[s]) for s in supp]
    for piece in C.dnf_cover(phi):
        rows = C.named_rows(C.pull_back(piece.lp_rows(), groups))
        if rows is not None and _lp.feasible(base + rows, variables):
            return True
    return False


# ---------------------------------------------------------------------------
# Fixed-point computation
# ---------------------------------------------------------------------------


def _blame(analysis: RefinementAnalysis, s1: State, s2: State,
           relation: frozenset) -> Iterator[tuple[Action, str]]:
    """(action, bucket) for each action that rejects the pair (s1, s2) under
    `relation`, in action order; buckets as in `BSets`.

    The one place the case-3 buckets are decided.  It is lazy, so a caller
    that needs only a verdict stops at the first blamed action.  Buckets a,
    b, d and e read the two transitions only; c and f hold when some left
    distribution can put mass on a pair outside `relation` (`_pairs_outside`,
    no LP) or has a forced image that fails with no relation (`sim_witness`).

    On deterministic inputs each action has at most one transition a side,
    so each of its `model.obligations` groups holds at most one pair: d and
    e are an empty Must group, a and b an empty left-transition group, and c
    and f a nonempty group whose pair does not match.
    """
    for a in analysis.n1.actions:
        step1, step2 = analysis.steps1.get((s1, a)), analysis.steps2.get((s2, a))
        t1 = None if step1 is None else step1.transition
        t2 = None if step2 is None else step2.transition
        if t1 is None:
            if t2 is not None and t2.modality is Modality.MUST:
                yield a, "d"
        elif t2 is None:
            yield a, "a" if t1.modality is Modality.MUST else "b"
        elif t2.modality is Modality.MUST and t1.modality is Modality.MAY:
            yield a, "e"
        elif (_pairs_outside(analysis, s1, s2, a, relation)
              or analysis.sim_witness(s1, s2, a) is not None):
            yield a, "c" if t2.modality is Modality.MAY else "f"


def _pair_ok(analysis: RefinementAnalysis, s1: State, s2: State, relation: frozenset) -> bool:
    return (analysis.n1.valuation_of(s1) == analysis.n2.valuation_of(s2)
            and next(_blame(analysis, s1, s2, relation), None) is None)


def _obligations_met(n1: APA | PA, n2: APA, s1: State, s2: State, relation: frozenset,
                     match: Callable[[Transition | PATransition, Transition, frozenset], bool]
                     ) -> bool:
    """The modal clauses at the pair (s1, s2) under `relation`: on every
    action of n1, then every action of n2 that n1 lacks, every
    `model.obligations` group holds a (left, right) transition pair that
    `match` accepts."""
    return all(any(match(t1, t2, relation) for t1, t2 in group)
               for a in n1.actions + tuple(a for a in n2.actions if a not in n1.actions)
               for group in obligations(n1.transitions_from(s1, a), n2.transitions_from(s2, a)))


def _require_comparable(n1: APA, n2: APA) -> None:
    """The input check both refinement paths share: single-valuation normal
    form on both sides and one action alphabet."""
    for n, name in ((n1, "left"), (n2, "right")):
        if not is_svnf(n):
            raise PreconditionError(f"{name} automaton is not in single-valuation normal form")
    if set(n1.actions) != set(n2.actions):
        raise InputError("automata must share the same action alphabet")


def compute_refinement(n1: APA, n2: APA) -> RefinementAnalysis:
    """Greatest fixed point of the pair-elimination sweep, with bookkeeping."""
    _require_comparable(n1, n2)
    tables = []
    for n, name in ((n1, "left"), (n2, "right")):
        tables.append(successor_table(n))
        if tables[-1] is None:
            raise PreconditionError(f"{name} automaton is not deterministic")
    return _refinement_fixpoint(RefinementAnalysis(n1, n2, *tables))


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


def _refinement_fixpoint(analysis: RefinementAnalysis) -> RefinementAnalysis:
    """Fill in a fresh analysis of inputs already known to be analysable."""
    n1, n2 = analysis.n1, analysis.n2
    pairs = [(s1, s2) for s1 in n1.states for s2 in n2.states]
    history = analysis.history = _greatest_fixpoint(
        pairs, lambda s1, s2, relation: _pair_ok(analysis, s1, s2, relation))
    for p in pairs:
        analysis.ind[p] = max(k for k, r in enumerate(history) if p in r)
    for p in pairs:
        s1, s2 = p
        if p in analysis.relation:
            analysis.cases[p] = CaseLabel.CASE1
        elif n1.valuation_of(s1) != n2.valuation_of(s2):
            analysis.cases[p] = CaseLabel.CASE2
        else:
            analysis.cases[p] = CaseLabel.CASE3
            analysis.bsets[p] = _compute_bsets(analysis, s1, s2)
    return analysis


def _compute_bsets(analysis: RefinementAnalysis, s1: State, s2: State) -> BSets:
    buckets: dict[str, list[Action]] = {x: [] for x in "abcdef"}
    for a, bucket in _blame(analysis, s1, s2, analysis.relation):
        buckets[bucket].append(a)
    return BSets(**{f"b_{x}": tuple(sorted(acts)) for x, acts in buckets.items()})


def refines(n1: APA, n2: APA) -> bool:
    """Refinement between abstract automata.

    Deterministic pairs use the exact fixed point.  Non-deterministic inputs
    (difference automata, typically) fall back to a sound fixed point whose
    distribution condition is witnessed by piecewise successor maps; it can
    answer False on a refinement it fails to witness, never True wrongly.
    """
    _require_comparable(n1, n2)
    steps1 = successor_table(n1)
    steps2 = None if steps1 is None else successor_table(n2)
    if steps2 is None:
        return _refines_nondet(n1, n2)
    return _refinement_fixpoint(RefinementAnalysis(n1, n2, steps1, steps2)).refines


# -- sound refinement for non-deterministic automata ------------------------

# Complete successor maps tried per left piece in one `_map_condition` call;
# a map whose every push LP is a memo hit counts as well.
_MAP_TEST_BUDGET = 256


def _left_pieces(phi1, states1: tuple) -> tuple:
    """(support, base) of each nonempty piece of phi1, in cover order
    (`constraints.prepare_piece`); none of it reads a relation."""
    return tuple(prepared for piece in C.dnf_cover(phi1)
                 if (prepared := C.prepare_piece(piece, states1)) is not None)


def _map_condition(cid1, pieces: tuple, states2: tuple, relation: frozenset,
                   neg_pieces: tuple, tested: dict) -> bool:
    """Sufficient check: every mu1 in the left `pieces` (`_left_pieces` of
    phi1) simulated w.r.t. `relation` by some mu2 in Sat(phi2).

    Witness shape: per piece of Sat(phi1), one deterministic successor map T
    (relation-compatible); the pushforward condition T#piece being inside
    Sat(phi2) is then exact, decided against `neg_pieces`, the DNF cover of
    the complement of phi2.  Searching only deterministic maps is the
    conservative part.  The maps tried are the first `_MAP_TEST_BUDGET` of
    the product of the candidates over `dom`, the piece's support, `dom[0]`
    outermost; a map whose every push LP is a memo hit counts as well.  A
    pulled-back row that names no left state decides itself (`named_rows`):
    if false, no mu1 is pushed into that complement piece; if true, it is
    dropped, and with no row left every mu1 is.  `tested` keeps each push
    LP's verdict by (cid1, the constraint id of phi1; piece index;
    pulled-back rows).
    """
    for index, (support, base) in enumerate(pieces):
        cands = {s: sorted((t for t in states2 if (s, t) in relation),
                           key=lambda t: (t != s, str(t))) for s in support}
        dom = sorted(support, key=lambda s: (len(cands[s]), str(s)))

        def push_ok(assign: dict) -> bool:
            groups = C.preimages(assign)
            for neg in neg_pieces:
                rows = C.named_rows(C.pull_back(neg.lp_rows(), groups))
                if rows is None:
                    continue  # a false row: no mu1 is pushed into this complement piece
                if not rows:
                    return False  # every mu1 in the piece is pushed into it
                key = (cid1, index, tuple((frozenset(c.items()), rel, rhs) for c, rel, rhs in rows))
                if key not in tested:
                    tested[key] = _lp.feasible_with(base, rows)
                if tested[key]:
                    return False  # some mu1 in the piece escapes Sat(phi2)
            return True

        maps = product(*(cands[s] for s in dom))
        if not any(push_ok(dict(zip(dom, image))) for image in islice(maps, _MAP_TEST_BUDGET)):
            return False
    return True


def _refines_nondet(n1: APA, n2: APA) -> bool:
    """`refines` on inputs that passed `_require_comparable`.  A left
    constraint's `_left_pieces` are built once per call, and its supportable
    states are the union of their supports: a nonempty piece is dense in its
    closure, as in `supportable_states`."""
    states1, states2 = tuple(n1.states), tuple(n2.states)
    # The memos live for this call only, so memory stays bounded by one analysis.
    left: dict = {}        # cid1 -> (its `_left_pieces`, its supportable states)
    complement: dict = {}  # constraint id of n2 -> the cover of its complement
    slices: dict = {}      # (sweep relation, cid1) -> relation on supportable x S2
    decided: dict = {}     # (cid1, cid2, relation slice) -> verdict
    tested: dict = {}      # `_map_condition`'s feasibility memo

    def map_ok(t1: Transition, t2: Transition, relation: frozenset) -> bool:
        cid1, cid2 = t1.constraint_id, t2.constraint_id
        if cid1 not in left:
            pieces = _left_pieces(n1.constraint(cid1), states1)
            left[cid1] = pieces, frozenset(s for support, _ in pieces for s in support)
        pieces, supportable = left[cid1]
        if (relation, cid1) not in slices:
            slices[relation, cid1] = frozenset(p for p in relation if p[0] in supportable)
        relation_slice = slices[relation, cid1]
        key = (cid1, cid2, relation_slice)
        if key not in decided:
            if cid2 not in complement:
                complement[cid2] = C.dnf_cover(C.negate(n2.constraint(cid2)))
            decided[key] = _map_condition(cid1, pieces, states2, relation_slice,
                                          complement[cid2], tested)
        return decided[key]

    initial = [(s1, s2) for s1 in n1.states for s2 in n2.states
               if n1.valuation_of(s1) == n2.valuation_of(s2)]
    relation = _greatest_fixpoint(
        initial, lambda s1, s2, rel: _obligations_met(n1, n2, s1, s2, rel, map_ok))[-1]
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
    if analysis.n1.valuation_of(s1) != analysis.n2.valuation_of(s2):
        raise PreconditionError("breaking is defined for equal-valuation pairs only")
    k = analysis.ind_of(s1, s2)
    if k >= analysis.fixpoint_index:
        raise PreconditionError("breaking is defined for rejected pairs only")
    result = tuple(sorted(a for a, _ in _blame(analysis, s1, s2, analysis.history[k])))
    assert result, "a rejected equal-valuation pair must have a breaking action"
    return result


def unmatched_witness(analysis: RefinementAnalysis, s1: State, s2: State, e: Action,
                      relation: frozenset) -> WitnessDistribution | None:
    """A left e-distribution of s1 that no e-distribution of s2 simulates
    under `relation`, or None when `_blame` finds none.

    The relation-free witness of `sim_witness` comes first; else, in the
    first piece of phi1 that has one, a point with mass on the first pair
    of `_pairs_outside`.
    """
    witness = analysis.sim_witness(s1, s2, e)
    if witness is not None:
        return witness
    outside = _pairs_outside(analysis, s1, s2, e, relation)
    return _mass_witness(C.dnf_cover(analysis.constraints_on(s1, s2, e)[0]), analysis.n1.states,
                         [(s, ReachesPair(s, t)) for s, t in outside])


def lemma_indplus_witness(analysis: RefinementAnalysis, s1: State, s2: State,
                          e: Action) -> WitnessDistribution:
    """A left distribution certifying the recursive failure on action e:
    `unmatched_witness` under R_ind, the relation of the sweep that removed
    the pair.  Its reason is, in this order of search: (1) mass on a
    successor with no counterpart, (2) a fully-matched image violating the
    right constraint, (3) mass on a successor pair removed strictly earlier.
    """
    if analysis.case_of(s1, s2) is not CaseLabel.CASE3:
        raise PreconditionError("witness extraction needs an equal-valuation rejected pair")
    if e not in analysis.bsets_of(s1, s2).of("cf") or e not in breaking(analysis, s1, s2):
        raise PreconditionError(f"action {e!r} is not a constraint-level breaking action here")
    witness = unmatched_witness(analysis, s1, s2, e, analysis.history[analysis.ind_of(s1, s2)])
    assert witness is not None, "breaking action admits no witness; analysis is inconsistent"
    return witness


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
    relation only on supp(mu) x states(n), a lookup per support state in an
    index of each relation by left state, so it is decided once per call
    and relation slice, and a recheck whose slice is unchanged solves no LP.
    """
    if not is_svnf(n):
        raise PreconditionError("satisfaction requires the abstract side in "
                                "single-valuation normal form")
    limit = budget if budget is not None else DEFAULT_NODE_BUDGET
    checks = 0
    # These memos live for this call only.
    matched: dict = {}  # (mu, constraint id, relation on supp(mu) x S) -> verdict
    by_left: dict = {}  # relation -> left state -> its pairs in the relation

    def pair_ok(ps: State, s2: State, relation: frozenset) -> bool:
        nonlocal checks
        checks += 1
        if checks > limit:
            raise ResourceLimitError(f"satisfaction search exceeded {limit} pair checks")
        return _obligations_met(p, n, ps, s2, relation, matches)

    def matches(pt: PATransition, tr: Transition, relation: frozenset) -> bool:
        mu = pt.distribution
        if relation not in by_left:
            by_left[relation] = {}
            for pair in relation:
                by_left[relation].setdefault(pair[0], []).append(pair)
        relation_slice = frozenset(pair for s in mu.support() for pair in by_left[relation].get(s, ()))
        key = (mu, tr.constraint_id, relation_slice)
        if key not in matched:
            matched[key] = _coupling_feasible(mu.mass, n.constraint(tr.constraint_id),
                                              n.states, relation_slice)
        return matched[key]

    pairs = [(ps, s2) for ps in p.states for s2 in n.states
             if (p.valuation_of(ps),) == tuple(n.valuations(s2))]
    current = _greatest_fixpoint(pairs, pair_ok)[-1]
    ok = any((p.initial, s0) in current for s0 in n.initial)
    return (ok, current if ok else None)
