"""Discounted accumulating distances between abstract automata.

The distance between two states is the least fixed point of a discounted
max-min system: along every action, each left constraint must be matched by
a right constraint at small transport cost (and each required right
constraint must be matched by a required left one), with the next-step
distances discounted by a factor in (0, 1).

The logical layer stays exact: the outer supremum is taken over the exact
vertices of the constraint's polyhedral pieces, and every transport problem
is solved by an exact rational LP.  Only the fixed-point iterate itself is
a binary64 float, with the contraction giving a certified error bound.

Every sweep poses the same transport polytopes with new costs: one per
(left vertex, right piece) pair, and one per right piece for all point-mass
vertices.  One `state_distances` call does once what does not change between
sweeps.  It finds each left constraint's vertices (`constraints.vertices`,
in closed form on interval pieces) and each right constraint's nonempty
pieces, numbers each distinct vertex and piece, and keys the tableaux on
those numbers.  Phase 1 runs once per polytope (`_lp.prepare`).  Each sweep
converts the distances to `Fraction`s once, one per state pair, and
re-prices the prepared tableaux from their last optimal basis
(`_lp.reprice_value`).  Bland's rule terminates from any feasible basis,
and the optimal value does not depend on the basis phase 2 starts from; the
optimal coupling may, but the distance reads the value alone, and
`reprice_value` builds no coupling.  The tableaux are dropped when the call
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import _lp
from . import constraints as C
from .constraints import ConstraintExpr, Distribution, Piece, Polytope, State
from .errors import InputError, PreconditionError
from .model import APA, PA, is_svnf, obligations, pa_as_apa
from .refinement import satisfies

ONE = Fraction(1)


@dataclass(frozen=True)
class DistanceParams:
    lam: float = 0.5
    epsilon: float = 1e-9
    max_iter: int = 10 ** 6
    vertex_dim_cap: int = C.VERTEX_DIM_CAP

    def __post_init__(self):
        if not 0 < self.lam < 1:
            raise InputError("the discount factor must lie strictly between 0 and 1")
        if not self.epsilon > 0:
            raise InputError("the convergence tolerance must be positive")
        if self.max_iter < 1:
            raise InputError("the iteration cap must be at least 1")


@dataclass(slots=True)
class DistanceTable:
    """Fixed-point iterate with its convergence certificate.

    `exact` is False when some constraint pair needed the sampled outer bound
    (a non-convex right-hand cover); every reported value is then a certified
    lower bound of the true distance rather than an epsilon-close value.
    With slots, a table that a caller keeps costs its fields and no
    instance dict.
    """

    d: dict
    residual: float
    guaranteed_error: float
    iterations: int
    converged: bool
    exact: bool

    def value(self, s1: State, s2: State) -> float:
        return self.d[(s1, s2)]


def compatible(n1: APA, n2: APA, s1: State, s2: State) -> bool:
    """False iff no implementation could witness a finite distance: differing
    valuations, a left action the right bans, or a right requirement the left
    cannot be forced to meet: some `model.obligations` group is empty."""
    return n1.valuation_of(s1) == n2.valuation_of(s2) and all(
        group for a in sorted(set(n1.actions) | set(n2.actions))
        for group in obligations(n1.transitions_from(s1, a), n2.transitions_from(s2, a)))


# ---------------------------------------------------------------------------
# Constraint-level distance: sup over the left satisfaction set of the
# cheapest transport into the right satisfaction set.
# ---------------------------------------------------------------------------


def _feasible_pieces(phi: ConstraintExpr, states: tuple) -> tuple[Piece, ...]:
    """Pieces of the DNF cover that are nonempty as half-open sets."""
    return tuple(piece for piece in C.dnf_cover(phi) if C.piece_feasible(piece, states))


def _outer_points(phi: ConstraintExpr, states: tuple, dim_cap: int) -> tuple[Distribution, ...]:
    """Candidate maximizers: vertices of the closure of each nonempty piece,
    so there are none iff Sat(phi) is empty.

    Exact for the supremum whenever the inner value is convex (single-piece
    right cover), since the half-open pieces are dense in their closures and
    the inner value is continuous.
    """
    points: list[Distribution] = []
    for piece in _feasible_pieces(phi, states):
        for v in C.vertices(Polytope.from_piece(piece, states), dim_cap):
            if v not in points:
                points.append(v)
    return tuple(points)


class _Vertex(NamedTuple):
    """A left vertex as `state_distances` numbers it: equal vertices share a
    number, and every point mass has the number None."""

    number: int | None
    mu: Distribution
    cells: tuple  # (transport variable, the (left, right) state pair pricing it)


class _RightPiece(NamedTuple):
    """A right piece as `state_distances` numbers it: equal pieces share a
    number."""

    number: int
    piece: Piece


def _transport_tableau(tableaux: dict, vertex: _Vertex, right: _RightPiece,
                       states2: tuple) -> _lp.Tableau:
    """The prepared tableau of the transport LP from a left vertex into the
    closure of a right piece (the couplings of the vertex with any
    distribution in it), taken from `tableaux` or made by phase 1 and added
    there.

    The tableaux key on the two numbers, so equal vertices share one
    tableau.  The polytope of a point mass is the piece itself, so all point
    masses, numbered None, share one tableau per piece.
    """
    key = (vertex.number, right.number)
    tableau = tableaux.get(key)
    if tableau is not None:
        return tableau
    rows = right.piece.closure_rows()
    mu = vertex.mu
    supp = mu.support()
    if vertex.number is None:
        variables = list(states2)
        rows.append(({t: ONE for t in states2}, "==", ONE))
    else:
        variables = [(s, t) for s in supp for t in states2]
        rows = [({(s, t): ONE for t in states2}, "==", mu[s]) for s in supp] + \
            [({(s, t): c for t, c in coeffs.items() for s in supp}, rel, rhs)
             for coeffs, rel, rhs in rows]
    tableau = tableaux[key] = _lp.prepare(rows, variables)
    assert tableau is not None, "a nonempty piece admits a coupling with mu"
    return tableau


def _transport_value(tableau: _lp.Tableau, vertex: _Vertex, cost: dict) -> Fraction:
    """Cheapest coupling over the prepared transport tableau of a vertex; a
    variable costs the `cost` entry of its state pair, the current distance
    as a `Fraction`.  Phase 2 starts from the tableau's last optimal basis,
    and only the value is read (`_lp.reprice_value`)."""
    return _lp.reprice_value(tableau, {var: cost[cell] for var, cell in vertex.cells},
                             maximize=False)


def _expr_distance(points1: tuple[_Vertex, ...], pieces2: tuple[_RightPiece, ...],
                   states2: tuple, cost: dict, tableaux: dict) -> tuple[float, bool]:
    """(value, exact): distance between two constraint expressions, given by
    the numbered `_outer_points` of the left one and the numbered
    `_feasible_pieces` of the right one, under the sweep's `cost`.

    With a multi-piece right cover the inner value is only piecewise convex,
    so the vertex scan yields a certified lower bound (exact=False).
    `tableaux` holds the prepared transport tableaux of one
    `state_distances` call.
    """
    if not pieces2:
        return 1.0, True  # nothing to transport into
    if not points1:
        return 0.0, True  # supremum over an empty set
    exact = len(pieces2) == 1
    best = Fraction(0)
    for vertex in points1:
        inner = min(_transport_value(_transport_tableau(tableaux, vertex, right, states2),
                                     vertex, cost)
                    for right in pieces2)
        if inner > best:
            best = inner
    return min(float(best), 1.0), exact


# ---------------------------------------------------------------------------
# State-level fixed point
# ---------------------------------------------------------------------------


def _pair_terms(n1: APA, n2: APA, s1: State, s2: State):
    """The max-min structure of the distance equation at one state pair: a
    list of min-groups, one per `model.obligations` group, each a nonempty
    list of (left phi, right phi)."""
    terms = []
    for a in n1.actions:
        for group in obligations(n1.transitions_from(s1, a), n2.transitions_from(s2, a)):
            assert group, "compatible pairs never minimize over an empty set"
            terms.append([(n1.constraint(t1.constraint_id), n2.constraint(t2.constraint_id))
                          for t1, t2 in group])
    return terms


def state_distances(n1: APA, n2: APA, params: DistanceParams | None = None) -> DistanceTable:
    """Value iteration for the discounted distance on all state pairs."""
    params = params or DistanceParams()
    if not (is_svnf(n1) and is_svnf(n2)):
        raise PreconditionError("distances need single-valuation normal form on both sides")
    lam = params.lam
    states1, states2 = tuple(n1.states), tuple(n2.states)
    pairs = [(s1, s2) for s1 in states1 for s2 in states2]
    incompat = {p for p in pairs if not compatible(n1, n2, *p)}
    terms = {p: _pair_terms(n1, n2, *p) for p in pairs if p not in incompat}

    # Constraint pairs by index, with metadata reused across sweeps: which
    # left states can carry mass (the d-slice that feeds the transport
    # objective).  The sweep cache keys on the index, not the expressions.
    # Each left constraint's outer points and each right constraint's
    # nonempty pieces are found once per call.
    combos = sorted({cp for tl in terms.values() for opts in tl for cp in opts},
                    key=lambda cp: (str(cp[0]), str(cp[1])))
    combo_index = {cp: i for i, cp in enumerate(combos)}
    terms = {p: [[combo_index[cp] for cp in opts] for opts in tl] for p, tl in terms.items()}
    # Each distinct left vertex and right piece is numbered once per call;
    # the transport tableaux key on the numbers (see _transport_tableau).
    vertex_ids: dict = {}
    piece_ids: dict = {}

    def vertex(mu: Distribution) -> _Vertex:
        supp = mu.support()
        if len(supp) == 1:
            return _Vertex(None, mu, tuple((t, (supp[0], t)) for t in states2))
        return _Vertex(vertex_ids.setdefault(mu, len(vertex_ids)), mu,
                       tuple(((s, t), (s, t)) for s in supp for t in states2))

    points1 = {l: tuple(vertex(mu) for mu in _outer_points(l, states1, params.vertex_dim_cap))
               for l in dict.fromkeys(l for l, _ in combos)}
    pieces2 = {r: tuple(_RightPiece(piece_ids.setdefault(piece, len(piece_ids)), piece)
                        for piece in _feasible_pieces(r, states2))
               for r in dict.fromkeys(r for _, r in combos)}
    problems = [(points1[l], pieces2[r]) for l, r in combos]
    dims1 = [tuple(sorted({s for v in points for s in v.mu.support()}, key=str))
             for points, _ in problems]

    d = {p: (1.0 if p in incompat else 0.0) for p in pairs}
    threshold = params.epsilon * (1 - lam) / lam
    cache: dict = {}
    tableaux: dict = {}  # prepared transport tableaux, see _transport_tableau
    exact = True
    residual = float("inf")
    iterations = 0
    converged = False
    while iterations < params.max_iter:
        iterations += 1

        cost = {p: Fraction(x) for p, x in d.items()}  # exact, once per sweep
        new = {}
        residual = 0.0
        for p in pairs:
            if p in incompat:
                new[p] = 1.0
                continue
            best = 0.0
            for opts in terms[p]:
                inner = 1.0
                for i in opts:
                    key = (i, tuple(d[(s, t)] for s in dims1[i] for t in states2))
                    if key not in cache:
                        cache[key] = _expr_distance(*problems[i], states2, cost, tableaux)
                    val, ex = cache[key]
                    exact = exact and ex
                    inner = min(inner, lam * val)
                best = max(best, inner)
            new[p] = best
            residual = max(residual, abs(best - d[p]))
        d = new
        if residual <= threshold:
            converged = True
            break
    return DistanceTable(d=d, residual=residual,
                         guaranteed_error=residual * lam / (1 - lam),
                         iterations=iterations, converged=converged, exact=exact)


def syntactic_distance_table(n1: APA, n2: APA, params: DistanceParams | None = None
                             ) -> tuple[float, DistanceTable]:
    """Distance between automata, worst left initial state against its best
    right initial state, with the state table it is read from."""
    if not n1.initial or not n2.initial:
        raise InputError("both automata need at least one initial state")
    table = state_distances(n1, n2, params)
    return max(min(table.value(s1, s2) for s2 in n2.initial) for s1 in n1.initial), table


def syntactic_distance(n1: APA, n2: APA, params: DistanceParams | None = None) -> float:
    """Distance between automata: worst left initial state against its best
    right initial state."""
    return syntactic_distance_table(n1, n2, params)[0]


def thorough_distance_lower_bound(n1: APA, n2: APA,
                                  sampler: Callable[[APA], Iterable[PA]],
                                  params: DistanceParams | None = None) -> float:
    """Sampled surrogate for the implementation-set distance.

    Heuristic on both sides: the outer max runs over sampled left
    implementations only (underestimates), the inner min over sampled right
    implementations only (overestimates).  When a left sample satisfies the
    right automaton the inner minimum is exactly 0, so those pairs are exact.
    Each inner term is additionally clamped by the syntactic distance from
    the left sample to the right automaton, which also over-approximates the
    true inner infimum but never exceeds the automaton-level distance, so a
    sparse right sample cannot inflate the estimate past it.
    """
    params = params or DistanceParams()
    impls1 = list(sampler(n1))
    impls2 = list(sampler(n2))
    if not impls1:
        raise InputError("the sampler produced no implementations of the left automaton")
    best = 0.0
    abstr2 = pa_as_apa(n2) if isinstance(n2, PA) else n2
    for p1 in impls1:
        if satisfies(p1, abstr2)[0]:
            continue  # inner minimum hits this very implementation at cost 0
        if not impls2:
            raise InputError("the sampler produced no implementations of the right automaton")
        inner = min(syntactic_distance(pa_as_apa(p1), pa_as_apa(p2), params)
                    for p2 in impls2)
        inner = min(inner, syntactic_distance(pa_as_apa(p1), abstr2, params))
        best = max(best, inner)
    return best
