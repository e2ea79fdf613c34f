"""Independent brute-force machinery: grid enumeration of implementations,
exhaustive-correspondence satisfaction checking, and sampled inclusion
reports.

Everything here is deliberately slow and literal — no determinism shortcut,
no forced successor maps — so the fast paths elsewhere can be validated
against it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import _lp
from . import constraints as C
from .constraints import Distribution, ONE, State, ZERO
from .errors import GridTooCoarseError, InputError, PreconditionError, ResourceLimitError
from .model import APA, Modality, PA, is_svnf, make_pa, reachable_states

DEFAULT_PAIR_CAP = 400  # |S_P| * |S_N| guard for the exhaustive checker


@dataclass(frozen=True)
class GridSpec:
    """Sampling resolution for implementation enumeration.

    Probabilities are restricted to multiples of 1/denominator.  max_states
    guards the size of the automaton being enumerated.
    """

    denominator: int = 10
    max_states: int = 12

    def __post_init__(self):
        if self.denominator < 1:
            raise InputError("grid denominator must be >= 1")
        if self.max_states < 1:
            raise InputError("max_states must be >= 1")


@dataclass(frozen=True)
class InclusionReport:
    """Result of a sampled implementation-set inclusion check.

    Sampling uses one PA state per automaton state, so a pass is evidence for
    the sampled slice of the implementation set, not a proof over all of it.
    A sample of no implementation is no evidence at all, so it reads "empty".
    """

    sampled: int
    violations: tuple[tuple[PA, str], ...]

    @property
    def verdict(self) -> str:
        return "fail" if self.violations else "pass" if self.sampled else "empty"


# ---------------------------------------------------------------------------
# Grid enumeration of implementations
# ---------------------------------------------------------------------------


def _grid_distributions(phi, states: tuple, denominator: int) -> tuple[Distribution, ...]:
    """All satisfying distributions with every mass a multiple of
    1/denominator, in lexicographic order of mass vectors."""
    support = C.supportable_states(phi, states)
    out = []

    def compositions(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for head in range(remaining + 1):
            for rest in compositions(remaining - head, slots - 1):
                yield (head,) + rest

    if not support:
        return ()
    for combo in compositions(denominator, len(support)):
        mass = {s: Fraction(k, denominator) for s, k in zip(support, combo)}
        if C.sat_member(phi, mass):
            out.append(Distribution.of(mass))
    return tuple(out)


def enumerate_implementations(n: APA, grid: GridSpec | None = None) -> Iterator[PA]:
    """Concrete automata over the same state skeleton: per Must transition a
    grid distribution satisfying its constraint, per May transition either
    absence or such a distribution.

    A Must transition with an empty constraint makes its source state
    inconsistent, which no grid can fix, so it raises PreconditionError.  A
    Must transition with no grid point in a nonempty satisfaction set makes
    the result set empty in a way finer grids would fix, so it raises
    GridTooCoarseError; a May transition in the same situation only loses
    presence choices, so it warns and stays absent.  Duplicates (possible
    when two transitions of one state share action and grid point) are
    suppressed state by state: each state keeps the first pick of each of
    its distinct transition sets, so memory does not grow with the stream.
    """
    grid = grid or GridSpec()
    if not is_svnf(n):
        raise PreconditionError("implementation enumeration needs single-valuation input")
    states = reachable_states(n)
    if len(states) > grid.max_states:
        raise ResourceLimitError(
            f"enumeration capped at {grid.max_states} states, automaton has {len(states)}")
    labeling = {}
    for s in states:
        vals = n.valuations(s)
        if len(vals) != 1:
            raise PreconditionError(f"state {s!r} must carry exactly one valuation")
        labeling[s] = vals[0]

    grids: dict = {}  # constraint id -> its grid distributions, for this call
    per_state: list[list[tuple]] = []  # per state, its distinct transition picks
    for s in states:
        slots: list[tuple] = []  # per transition of s, its options; None = absent
        for tr in n.transitions_from(s):
            if tr.constraint_id not in grids:
                grids[tr.constraint_id] = _grid_distributions(n.constraint(tr.constraint_id),
                                                              n.states, grid.denominator)
            dists = grids[tr.constraint_id]
            if tr.modality is Modality.MUST:
                if not dists:
                    if C.sat_nonempty(n.constraint(tr.constraint_id), n.states) is None:
                        raise PreconditionError(
                            f"state {s!r} is inconsistent: its required transition "
                            f"--{tr.action!r}--> {tr.constraint_id!r} has an empty constraint")
                    raise GridTooCoarseError(
                        f"no grid point (denominator {grid.denominator}) satisfies the "
                        f"required transition {s!r} --{tr.action!r}--> {tr.constraint_id!r}")
                options = tuple((tr.action, d) for d in dists)
            else:
                if not dists:
                    warnings.warn(
                        f"optional transition {s!r} --{tr.action!r}--> {tr.constraint_id!r} "
                        f"has no grid point; only its absence is sampled")
                options = (None,) + tuple((tr.action, d) for d in dists)
            slots.append(options)
        distinct: dict = {}  # transition set of s -> its first pick
        for picks in itertools.product(*slots):
            transitions = tuple((s, a, d) for a, d in filter(None, picks))
            distinct.setdefault(frozenset((a, d.items) for _, a, d in transitions), transitions)
        per_state.append(list(distinct.values()))

    for initial in n.initial:
        for picks in itertools.product(*per_state):
            yield make_pa(states=states, actions=n.actions, ap=n.ap, labeling=labeling,
                          transitions=list(itertools.chain.from_iterable(picks)),
                          initial=initial)


# ---------------------------------------------------------------------------
# Exhaustive satisfaction checking
# ---------------------------------------------------------------------------


def _coupling_ok(mu_p: Distribution, phi, n: APA, relation: frozenset) -> bool:
    """Can mu_p be split over related abstract states so the image satisfies
    phi?  Exact feasibility over the splitting weights, per cover piece."""
    supp = [t for t, _ in mu_p.items]
    cands = {t: [u for u in n.states if (t, u) in relation] for t in supp}
    if any(not cands[t] for t in supp):
        return False
    variables = [(t, u) for t in supp for u in cands[t]]
    base = [({(t, u): ONE for u in cands[t]}, "==", m) for t, m in mu_p.items]
    for piece in C.dnf_cover(phi):
        rows = list(base)
        for coeffs, rel, rhs in piece.fraction_rows():
            row: dict = {}
            for u, c in coeffs:
                for t in supp:
                    if u in cands[t]:
                        row[(t, u)] = row.get((t, u), ZERO) + c
            rows.append((row, rel, rhs))
        if _lp.feasible_point(rows, variables) is not None:
            return True
    return False


def _brute_pair_ok(p: PA, n: APA, sp: State, sn: State, relation: frozenset) -> bool:
    for tr in n.transitions_from(sn):
        if tr.modality is not Modality.MUST:
            continue
        phi = n.constraint(tr.constraint_id)
        if not any(pt.action == tr.action and _coupling_ok(pt.distribution, phi, n, relation)
                   for pt in p.transitions_from(sp, tr.action)):
            return False
    for pt in p.transitions_from(sp):
        if not any(_coupling_ok(pt.distribution, n.constraint(tr.constraint_id), n, relation)
                   for tr in n.transitions_from(sn, pt.action)):
            return False
    return True


def brute_satisfies(p: PA, n: APA, cap: int = DEFAULT_PAIR_CAP) -> bool:
    """Ground-truth satisfaction: greatest fixed point over all state pairs,
    every constraint choice and every correspondence searched exhaustively."""
    if len(p.states) * len(n.states) > cap:
        raise ResourceLimitError(
            f"exhaustive check capped at {cap} state pairs, "
            f"got {len(p.states) * len(n.states)}")
    relation = frozenset((sp, sn) for sp in p.states for sn in n.states
                         if p.valuation_of(sp) in n.valuations(sn))
    while True:
        kept = frozenset(pair for pair in relation
                         if _brute_pair_ok(p, n, pair[0], pair[1], relation))
        if kept == relation:
            break
        relation = kept
    return any((p.initial, s0) in relation for s0 in n.initial)


# ---------------------------------------------------------------------------
# Sampled inclusion reports
# ---------------------------------------------------------------------------


def check_inclusion_sampled(lhs: Callable[[PA], bool], rhs: Callable[[PA], bool],
                            source: APA, grid: GridSpec | None = None,
                            limit: int | None = None) -> InclusionReport:
    """Enumerate implementations of `source`, at most `limit` of them, keep
    those passing `lhs`, and report every one that then fails `rhs`."""
    if limit is not None and limit < 1:
        raise InputError(f"the sample limit must be >= 1, got {limit}")
    sampled = 0
    violations = []
    stream = enumerate_implementations(source, grid)
    if limit is not None:
        stream = itertools.islice(stream, limit)
    for pa in stream:
        sampled += 1
        if lhs(pa) and not rhs(pa):
            violations.append((pa, "rhs"))
    return InclusionReport(sampled, tuple(violations))
