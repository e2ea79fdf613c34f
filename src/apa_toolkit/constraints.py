"""Constraint language over distributions, with exact decision procedures.

User-facing constraints are boolean combinations of linear atoms over the
masses of a distribution (intervals and point constraints are sugar).  Three
derived combinators lift constraints onto difference product spaces:

  * bot-lift     - all mass on the (s1, bot, eps[, 1]) slice, slice marginal
                   satisfying the source constraint;
  * phi-B        - "break the right-hand constraint now or hand the obligation
                   to a successor" (three-clause membership);
  * phi-B-k      - the level-indexed variant whose deferral clause only
                   accepts strictly smaller levels, and never at level 1.

Everything is decided exactly over rationals: membership by clause
evaluation, emptiness/support/optimization by LP over the disjunctive normal
form of the constraint.  Strict inequalities (which arise from logical
complements) are decided via a slack-maximization LP, never by epsilon fudge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Hashable, Iterable, Mapping, Sequence

from . import _lp
from .errors import InputError, ResourceLimitError

State = Hashable
Rat = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)

DNF_BRANCH_CAP = 4096
VERTEX_DIM_CAP = 12


def as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise InputError(f"refusing float {x!r} in exact constraint data; pass Fraction or str")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Distribution:
    """Exact discrete probability distribution; zero entries may be omitted."""

    items: tuple[tuple[State, Fraction], ...]

    def __post_init__(self):
        total = sum((m for _, m in self.items), ZERO)
        if total != 1:
            raise InputError(f"distribution mass sums to {total}, expected 1")
        if any(m < 0 for _, m in self.items):
            raise InputError("negative mass in distribution")

    @staticmethod
    def of(mass: Mapping[State, Fraction | int | str]) -> "Distribution":
        items = tuple(sorted(((s, as_fraction(m)) for s, m in mass.items() if as_fraction(m) != 0),
                             key=lambda kv: str(kv[0])))
        return Distribution(items)

    @property
    def mass(self) -> dict[State, Fraction]:
        return dict(self.items)

    def __getitem__(self, s: State) -> Fraction:
        for k, m in self.items:
            if k == s:
                return m
        return ZERO

    def support(self) -> tuple[State, ...]:
        return tuple(s for s, m in self.items if m > 0)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{s}: {m}" for s, m in self.items) + "}"


# ---------------------------------------------------------------------------
# Constraint expressions
# ---------------------------------------------------------------------------

RELATIONS = ("<=", "<", "==", ">=", ">")


@dataclass(frozen=True)
class LinearAtom:
    """coeffs . mu  REL  rhs, with REL one of <=, <, ==, >=, >."""

    coeffs: tuple[tuple[State, Fraction], ...]
    rel: str
    rhs: Fraction

    @staticmethod
    def make(coeffs: Mapping[State, Fraction | int | str], rel: str, rhs) -> "LinearAtom":
        if rel not in RELATIONS:
            raise InputError(f"unknown relation {rel!r}")
        cs = tuple(sorted(((s, as_fraction(c)) for s, c in coeffs.items() if as_fraction(c) != 0),
                          key=lambda kv: str(kv[0])))
        return LinearAtom(cs, rel, as_fraction(rhs))

    def evaluate(self, mu: Mapping[State, Fraction]) -> bool:
        lhs = sum((c * mu.get(s, ZERO) for s, c in self.coeffs), ZERO)
        return {"<=": lhs <= self.rhs, "<": lhs < self.rhs, "==": lhs == self.rhs,
                ">=": lhs >= self.rhs, ">": lhs > self.rhs}[self.rel]

    def __str__(self) -> str:
        terms = " + ".join(f"{c}*mu({s})" for s, c in self.coeffs) or "0"
        return f"{terms} {self.rel} {self.rhs}"


class ConstraintExpr:
    """Base class; concrete nodes below. All nodes are frozen and hashable."""

    tag = "user"


@dataclass(frozen=True)
class TrueExpr(ConstraintExpr):
    pass


@dataclass(frozen=True)
class FalseExpr(ConstraintExpr):
    pass


@dataclass(frozen=True)
class Atom(ConstraintExpr):
    atom: LinearAtom


@dataclass(frozen=True)
class And(ConstraintExpr):
    items: tuple[ConstraintExpr, ...]


@dataclass(frozen=True)
class Or(ConstraintExpr):
    items: tuple[ConstraintExpr, ...]


@dataclass(frozen=True)
class Not(ConstraintExpr):
    item: ConstraintExpr


TRUE = TrueExpr()
FALSE = FalseExpr()


def atom(coeffs: Mapping[State, Fraction | int | str], rel: str, rhs) -> Atom:
    return Atom(LinearAtom.make(coeffs, rel, rhs))


def and_(*items: ConstraintExpr) -> ConstraintExpr:
    flat = [i for i in items if not isinstance(i, TrueExpr)]
    if any(isinstance(i, FalseExpr) for i in flat):
        return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(*items: ConstraintExpr) -> ConstraintExpr:
    flat = [i for i in items if not isinstance(i, FalseExpr)]
    if any(isinstance(i, TrueExpr) for i in flat):
        return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def not_(item: ConstraintExpr) -> ConstraintExpr:
    return Not(item)


def interval_constraint(bounds: Mapping[State, tuple], zero: Iterable[State] = ()) -> ConstraintExpr:
    """Per-state [lo, hi] bounds on the mass (sugar over linear atoms).

    States in `zero` are pinned to mass 0; states mentioned nowhere stay
    unconstrained, since a constraint always ranges over the full simplex.
    """
    parts: list[ConstraintExpr] = []
    for s in sorted(bounds, key=str):
        lo, hi = bounds[s]
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > 0:
            parts.append(atom({s: 1}, ">=", lo))
        if hi < 1:
            parts.append(atom({s: 1}, "<=", hi))
    for s in sorted(zero, key=str):
        parts.append(atom({s: 1}, "==", 0))
    return and_(*parts)


def point_constraint(mu: Distribution | Mapping[State, Fraction]) -> ConstraintExpr:
    """Constraint whose only satisfying distribution is mu."""
    mass = mu.mass if isinstance(mu, Distribution) else {s: as_fraction(m) for s, m in mu.items()}
    parts = [atom({s: 1}, "==", m) for s, m in sorted(mass.items(), key=lambda kv: str(kv[0])) if m != 0]
    return and_(*parts) if parts else TRUE


# ---------------------------------------------------------------------------
# Derived product-space constraints
#
# Cells of a product space expose attributes s1, s2 (None encodes bot),
# e (None encodes eps) and k (None for the un-indexed over-approximation).
# ---------------------------------------------------------------------------


def _is_bot_slice_cell(cell) -> bool:
    return cell.s2 is None and cell.e is None and (cell.k is None or cell.k == 1)


@dataclass(frozen=True)
class BotLift(ConstraintExpr):
    """All mass on the (s1, bot, eps[, 1]) slice; slice marginal in Sat(phi)."""

    phi: ConstraintExpr
    source_states: tuple[State, ...]
    cells: tuple = ()

    tag = "bot-lift"

    def slice_cell(self, s1: State):
        for cell in self.cells:
            if cell.s1 == s1 and _is_bot_slice_cell(cell):
                return cell
        return None


@dataclass(frozen=True)
class PhiB(ConstraintExpr):
    """Product constraint forcing an immediate or handed-off break of phi2.

    succ maps each left state to its forced right successor (None: no
    matching successor exists, mass must fall to bot); b_map gives, per
    (left, right) pair, the actions along which the pair itself breaks.
    """

    phi1: ConstraintExpr
    phi2: ConstraintExpr
    source_states: tuple[State, ...]
    target_states: tuple[State, ...]
    succ: tuple[tuple[State, State | None], ...]
    b_map: tuple[tuple[tuple[State, State], tuple[str, ...]], ...]
    cells: tuple = ()

    tag = "phi-B"
    k: int | None = None

    def succ_of(self, s1: State) -> State | None:
        for a, b in self.succ:
            if a == s1:
                return b
        return None

    def b_of(self, s1: State, s2: State) -> tuple[str, ...]:
        for pair, acts in self.b_map:
            if pair == (s1, s2):
                return acts
        return ()

    def allowed_cells(self) -> tuple:
        """Cells that clause (1) permits to carry mass."""
        out = []
        for cell in self.cells:
            t = self.succ_of(cell.s1)
            if t is None:
                ok = _is_bot_slice_cell(cell)
            else:
                ok = cell.s2 == t and (cell.e is None or cell.e in self.b_of(cell.s1, t))
                if self.k is not None:
                    ok = ok and cell.k is not None
            if ok:
                out.append(cell)
        return tuple(out)

    def deferral_ok(self, cell) -> bool:
        """Does mass at this cell count for the deferral disjunct 3(c)?"""
        if cell.s2 is None or cell.e is None:
            return False
        if self.k is None:
            return True
        return self.k != 1 and cell.k is not None and cell.k < self.k


@dataclass(frozen=True)
class PhiBK(PhiB):
    """Level-indexed variant: deferral only to strictly smaller levels, never at level 1."""

    k: int | None = None
    tag = "phi-B-k"

    def __post_init__(self):
        if self.k is None or self.k < 1:
            raise InputError("phi-B-k requires a level k >= 1")


def make_bot_lift(phi1: ConstraintExpr, source_states: Sequence[State], cells: Sequence) -> BotLift:
    return BotLift(phi1, tuple(source_states), tuple(cells))


def make_phi_B(phi1: ConstraintExpr, phi2: ConstraintExpr,
               source_states: Sequence[State], target_states: Sequence[State],
               succ_map: Mapping[State, State | None],
               b_map: Mapping[tuple[State, State], Iterable[str]],
               cells: Sequence, k: int | None = None) -> PhiB:
    """phi-B over `cells`, or its level-k variant phi-B-k when k is given."""
    succ = tuple(sorted(((s, succ_map.get(s)) for s in source_states), key=lambda kv: str(kv[0])))
    bm = tuple(sorted(((pair, tuple(sorted(acts))) for pair, acts in b_map.items()),
                      key=lambda kv: (str(kv[0][0]), str(kv[0][1]))))
    args = (phi1, phi2, tuple(source_states), tuple(target_states), succ, bm, tuple(cells))
    return PhiB(*args) if k is None else PhiBK(*args, k=k)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def sat_member(phi: ConstraintExpr, mu: Distribution | Mapping[State, Fraction]) -> bool:
    """Exact membership of mu in Sat(phi)."""
    mass = mu.mass if isinstance(mu, Distribution) else dict(mu)
    return _member(phi, mass)


def _member(phi: ConstraintExpr, mass: Mapping[State, Fraction]) -> bool:
    if isinstance(phi, TrueExpr):
        return True
    if isinstance(phi, FalseExpr):
        return False
    if isinstance(phi, Atom):
        return phi.atom.evaluate(mass)
    if isinstance(phi, And):
        return all(_member(i, mass) for i in phi.items)
    if isinstance(phi, Or):
        return any(_member(i, mass) for i in phi.items)
    if isinstance(phi, Not):
        return not _member(phi.item, mass)
    if isinstance(phi, BotLift):
        cells = set(phi.cells)
        if any(m != 0 and c not in cells for c, m in mass.items()):
            return False  # mass outside the slice this constraint ranges over
        marg = {s1: ZERO for s1 in phi.source_states}
        for cell, m in mass.items():
            if m == 0:
                continue
            if not _is_bot_slice_cell(cell):
                return False
            marg[cell.s1] = marg.get(cell.s1, ZERO) + m
        return _member(phi.phi, marg)
    if isinstance(phi, PhiB):  # covers PhiBK
        cells = set(phi.cells)
        if any(m != 0 and c not in cells for c, m in mass.items()):
            return False  # clause (1): only this constraint's own cells may carry mass
        allowed = set(phi.allowed_cells())
        marg1 = {s: ZERO for s in phi.source_states}
        marg2 = {s: ZERO for s in phi.target_states}
        three_a = False
        three_c = False
        for cell, m in mass.items():
            if m == 0:
                continue
            if cell not in allowed:
                return False  # clause (1)
            marg1[cell.s1] += m
            if cell.s2 is None:
                three_a = True
            else:
                marg2[cell.s2] += m
            if phi.deferral_ok(cell):
                three_c = True
        if not _member(phi.phi1, marg1):
            return False  # clause (2)
        # clause 3(b): the right marginal fails phi2 — trivially so when it is
        # not a distribution at all (mass leaked to bot).
        three_b = sum(marg2.values(), ZERO) != 1 or not _member(phi.phi2, marg2)
        return three_a or three_b or three_c
    raise InputError(f"unknown constraint node {type(phi).__name__}")


# ---------------------------------------------------------------------------
# Normal forms: negation push-down, derived-node expansion, DNF cover
# ---------------------------------------------------------------------------


def negate(phi: ConstraintExpr) -> ConstraintExpr:
    """Logical complement with Not pushed down to atoms."""
    if isinstance(phi, TrueExpr):
        return FALSE
    if isinstance(phi, FalseExpr):
        return TRUE
    if isinstance(phi, Atom):
        a = phi.atom
        flip = {"<=": ">", "<": ">=", ">=": "<", ">": "<=", "==": None}[a.rel]
        if flip is None:
            return or_(Atom(LinearAtom(a.coeffs, "<", a.rhs)), Atom(LinearAtom(a.coeffs, ">", a.rhs)))
        return Atom(LinearAtom(a.coeffs, flip, a.rhs))
    if isinstance(phi, And):
        return or_(*(negate(i) for i in phi.items))
    if isinstance(phi, Or):
        return and_(*(negate(i) for i in phi.items))
    if isinstance(phi, Not):
        return phi.item
    if isinstance(phi, (BotLift, PhiB)):
        return negate(expand(phi))
    raise InputError(f"unknown constraint node {type(phi).__name__}")


def _marginal_atom(a: LinearAtom, groups: Mapping[State, Sequence]) -> ConstraintExpr:
    """Rewrite an atom over source states as one over cells via the marginal map."""
    coeffs: dict = {}
    for s, c in a.coeffs:
        for cell in groups.get(s, ()):
            coeffs[cell] = coeffs.get(cell, ZERO) + c
    return Atom(LinearAtom.make(coeffs, a.rel, a.rhs)) if coeffs else _const_atom(a)


def _const_atom(a: LinearAtom) -> ConstraintExpr:
    # All coefficients vanished: the atom compares 0 against rhs.
    return TRUE if a.evaluate({}) else FALSE


def _substitute(phi: ConstraintExpr, groups: Mapping[State, Sequence]) -> ConstraintExpr:
    if isinstance(phi, (TrueExpr, FalseExpr)):
        return phi
    if isinstance(phi, Atom):
        return _marginal_atom(phi.atom, groups)
    if isinstance(phi, And):
        return and_(*(_substitute(i, groups) for i in phi.items))
    if isinstance(phi, Or):
        return or_(*(_substitute(i, groups) for i in phi.items))
    if isinstance(phi, Not):
        return not_(_substitute(phi.item, groups))
    raise InputError("derived constraints cannot nest inside derived constraints")


def expand(phi: ConstraintExpr) -> ConstraintExpr:
    """Rewrite a derived node as a plain boolean combination of cell atoms.

    Used for LP-based reasoning (emptiness, support, vertices); membership
    goes through the clause evaluator in _member, and the two are
    property-tested to agree.
    """
    if isinstance(phi, BotLift):
        groups = {s1: [c] for s1 in phi.source_states if (c := phi.slice_cell(s1)) is not None}
        slice_cells = [c for cs in groups.values() for c in cs]
        if not slice_cells:
            return FALSE
        zeros = [atom({cell: 1}, "==", 0) for cell in phi.cells if not _is_bot_slice_cell(cell)]
        # Pinning the slice total to 1 also zeroes any ambient state outside
        # this constraint's cells once the caller adds the simplex row.
        pin = atom({c: 1 for c in slice_cells}, "==", 1)
        return and_(*zeros, pin, _substitute(phi.phi, groups))
    if isinstance(phi, PhiB):
        allowed = phi.allowed_cells()
        if not allowed:
            return FALSE
        allowed_set = set(allowed)
        zeros = [atom({cell: 1}, "==", 0) for cell in phi.cells if cell not in allowed_set]
        groups1: dict[State, list] = {s: [] for s in phi.source_states}
        groups2: dict[State, list] = {s: [] for s in phi.target_states}
        for cell in allowed:
            groups1[cell.s1].append(cell)
            if cell.s2 is not None:
                groups2[cell.s2].append(cell)
        three_a = or_(*(atom({cell: 1}, ">", 0) for cell in allowed if cell.s2 is None))
        # 3(a) already covers the "marginal is not even a distribution" case,
        # so 3(b) reduces to the atom-level complement of phi2 on the marginal.
        three_b = _substitute(negate(phi.phi2), groups2)
        three_c = or_(*(atom({cell: 1}, ">", 0) for cell in allowed if phi.deferral_ok(cell)))
        pin = atom({c: 1 for c in allowed}, "==", 1)
        return and_(*zeros, pin, _substitute(phi.phi1, groups1), or_(three_a, three_b, three_c))
    return phi


# A row is (coeffs dict, rel in {"<=", "<", "=="}, rhs).
Row = tuple[dict, str, Fraction]


@dataclass(frozen=True)
class Piece:
    """One conjunct of a DNF cover: a half-open polyhedron inside the simplex."""

    rows: tuple[tuple[tuple[tuple[State, Fraction], ...], str, Fraction], ...]

    def lp_rows(self) -> tuple[list[_lp.Constraint], list[tuple[dict, Fraction]]]:
        nonstrict: list[_lp.Constraint] = []
        strict: list[tuple[dict, Fraction]] = []
        for coeffs, rel, rhs in self.rows:
            cmap = dict(coeffs)
            if rel == "<":
                strict.append((cmap, rhs))
            else:
                nonstrict.append((cmap, rel, rhs))
        return nonstrict, strict

    def closure_rows(self) -> list[_lp.Constraint]:
        return [(dict(coeffs), "<=" if rel == "<" else rel, rhs) for coeffs, rel, rhs in self.rows]

    def has_strict(self) -> bool:
        return any(rel == "<" for _, rel, _ in self.rows)


def _atom_rows(a: LinearAtom) -> list[tuple[tuple[tuple[State, Fraction], ...], str, Fraction]]:
    neg = tuple((s, -c) for s, c in a.coeffs)
    return {
        "<=": [(a.coeffs, "<=", a.rhs)],
        "<": [(a.coeffs, "<", a.rhs)],
        "==": [(a.coeffs, "==", a.rhs)],
        ">=": [(neg, "<=", -a.rhs)],
        ">": [(neg, "<", -a.rhs)],
    }[a.rel]


@lru_cache(maxsize=None)
def dnf_cover(phi: ConstraintExpr) -> tuple[Piece, ...]:
    """Disjunctive normal form as a tuple of half-open polyhedral pieces.

    Pieces are purely syntactic here; emptiness is decided by the callers'
    LPs.  Raises ResourceLimitError beyond `DNF_BRANCH_CAP` branches.
    """
    expr = expand(phi)

    def rec(e: ConstraintExpr) -> list[tuple]:
        if isinstance(e, TrueExpr):
            return [()]
        if isinstance(e, FalseExpr):
            return []
        if isinstance(e, Atom):
            return [tuple(_atom_rows(e.atom))]
        if isinstance(e, Not):
            return rec(negate(e.item))
        if isinstance(e, Or):
            out: list[tuple] = []
            for i in e.items:
                out.extend(rec(i))
                if len(out) > DNF_BRANCH_CAP:
                    raise ResourceLimitError(f"DNF cover exceeds branch cap {DNF_BRANCH_CAP}")
            return out
        if isinstance(e, And):
            acc: list[tuple] = [()]
            for i in e.items:
                branches = rec(i)
                acc = [a + b for a in acc for b in branches]
                if len(acc) > DNF_BRANCH_CAP:
                    raise ResourceLimitError(f"DNF cover exceeds branch cap {DNF_BRANCH_CAP}")
            return acc
        raise InputError(f"unknown constraint node {type(e).__name__}")

    return tuple(Piece(rows) for rows in rec(expr))


# ---------------------------------------------------------------------------
# LP-backed decisions
# ---------------------------------------------------------------------------


def _simplex_row(states: Sequence[State]) -> _lp.Constraint:
    return ({s: ONE for s in states}, "==", ONE)


def piece_point(piece: Piece, states: Sequence[State],
                extra_nonstrict: Sequence[_lp.Constraint] = (),
                extra_strict: Sequence[tuple[dict, Fraction]] = ()) -> dict[State, Fraction] | None:
    """A distribution in the (half-open) piece, honoring strict rows exactly."""
    nonstrict, strict = piece.lp_rows()
    nonstrict = nonstrict + [_simplex_row(states)] + list(extra_nonstrict)
    strict = strict + list(extra_strict)
    return _lp.strict_feasible_point(nonstrict, strict, list(states))


def piece_feasible(piece: Piece, states: Sequence[State],
                   extra_nonstrict: Sequence[_lp.Constraint] = (),
                   extra_strict: Sequence[tuple[dict, Fraction]] = ()) -> bool:
    """Is `piece_point` of the same rows not None?  Decided by `_lp.feasible`,
    which builds no point, for callers that read no vertex."""
    nonstrict, strict = piece.lp_rows()
    nonstrict = nonstrict + [_simplex_row(states)] + list(extra_nonstrict)
    return _lp.feasible(nonstrict, list(states), strict + list(extra_strict))


def piece_support(piece: Piece, states: Sequence[State],
                  known: Iterable[State] = ()) -> tuple[State, ...]:
    """The states s with mu(s) > 0 for some mu in a piece known to be
    nonempty, in the order of `states`; `known` holds some of them already.

    The piece is dense in its closure (see `supportable_states`), so this is
    the support of the closure.  Phase 1 runs once on the closure rows; then
    the sum of the still unknown masses is maximized, re-pricing from the
    last optimum, until it reaches 0.  Each positive optimum adds the unknown
    states with mass at its vertex, at least one, and an optimum of 0 shows
    that no unknown state is supportable.  The result does not depend on the
    pivot path.
    """
    tableau = _lp.prepare(piece.closure_rows() + [_simplex_row(states)], list(states))
    assert tableau is not None, "piece_support needs a nonempty piece"
    support = set(known)
    while unknown := [s for s in states if s not in support]:
        best = _lp.reprice(tableau, {s: ONE for s in unknown})
        if best.value == 0:
            break
        support.update(s for s in unknown if best.point[s] > 0)
    return tuple(s for s in states if s in support)


def piece_max(piece: Piece, states: Sequence[State],
              objective: Mapping[State, Fraction],
              extra_nonstrict: Sequence[_lp.Constraint] = ()) -> tuple[Fraction, dict] | None:
    """Maximize a linear objective over the CLOSURE of the piece (None if empty)."""
    rows = piece.closure_rows() + [_simplex_row(states)] + list(extra_nonstrict)
    res = _lp.solve(dict(objective), rows, list(states), maximize=True)
    if not res.optimal:
        return None
    return res.value, res.point


def sat_nonempty(phi: ConstraintExpr, states: Sequence[State]) -> Distribution | None:
    """A satisfying distribution, or None iff Sat(phi) is empty."""
    for piece in dnf_cover(phi):
        point = piece_point(piece, states)
        if point is not None:
            return Distribution.of(point)
    return None


@dataclass(frozen=True)
class _Box:
    """A piece whose rows each name at most one state: mu(t) ranges over an
    interval per state, cut by the simplex.  `lo` and `hi` hold the ends that
    rows set, as (bound, open) pairs; every other end is the closed 0 or 1
    that the simplex implies."""

    lo: dict
    hi: dict
    nonempty: bool

    @staticmethod
    def of(piece: Piece, states: Sequence[State]) -> "_Box | None":
        """The piece's intervals over `states`, or None if a row names two
        states or a state outside `states`."""
        lo: dict = {}
        hi: dict = {}
        consistent = True
        for coeffs, rel, rhs in piece.rows:
            if len(coeffs) > 1 or (coeffs and coeffs[0][0] not in states):
                return None
            t, c = coeffs[0] if coeffs else (None, ZERO)
            if c == 0:
                consistent = consistent and {"<=": 0 <= rhs, "<": 0 < rhs, "==": 0 == rhs}[rel]
                continue
            end = (Fraction(rhs) / c, rel == "<")
            # of two ends at the same bound, the open one is tighter
            if c > 0 or rel == "==":
                hi[t] = min(hi.get(t, (ONE, False)), end, key=lambda b: (b[0], not b[1]))
            if c < 0 or rel == "==":
                lo[t] = max(lo.get(t, (ZERO, False)), end)
        return _Box(lo, hi, consistent and _meets_simplex(lo, hi, len(states)))

    def max_mass(self, s: State) -> Fraction:
        """The maximum of mu(s) over the closure of the piece, if nonempty."""
        rest = sum((b for t, (b, _) in self.lo.items() if t != s), ZERO)
        return min(self.hi.get(s, (ONE, False))[0], 1 - rest)


def _meets_simplex(lo: dict, hi: dict, n: int) -> bool:
    """Do n intervals, with the ends in `lo` and `hi` and closed 0 and 1
    elsewhere, hold a distribution?  Iff each is nonempty and 1 lies in their
    Minkowski sum, whose lower (upper) end is open iff some lower (upper) end is."""
    for t in lo.keys() | hi.keys():
        low, low_open = lo.get(t, (ZERO, False))
        high, high_open = hi.get(t, (ONE, False))
        if low > high or (low == high and (low_open or high_open)):
            return False
    lo_sum = sum((b for b, _ in lo.values()), ZERO)
    hi_sum = sum((b for b, _ in hi.values()), ZERO) + (n - len(hi))
    return ((lo_sum < 1 or (lo_sum == 1 and not any(o for _, o in lo.values())))
            and (hi_sum > 1 or (hi_sum == 1 and not any(o for _, o in hi.values()))))


def supportable_states(phi: ConstraintExpr, states: Sequence[State]) -> tuple[State, ...]:
    """The states s of `states`, in their order, such that some mu in
    Sat(phi) has mu(s) > 0.

    Decided state by state and piece by piece.  A piece whose rows each name
    at most one state (every interval constraint gives such pieces) is
    decided in closed form: mu(t) ranges over an interval [lo_t, hi_t], each
    end open or closed.  The piece is nonempty iff every interval is, and 1
    lies in their Minkowski sum, whose lower end is included iff all the
    lower ends are and likewise for the upper end; then s is supportable iff
    min(hi_s, 1 - sum of lo_t over t != s) > 0.  Any other piece takes two
    LPs: emptiness of the half-open piece, then the maximum of mu(s) over its
    closure.  Either way the closure stands in for the piece only once the
    piece is known nonempty: then the piece is dense in its closure (the
    segment from a point of the piece to a point of the closure lies in the
    piece except at its far end), so mu(s) > 0 somewhere on the closure iff
    somewhere on the piece.  A half-open piece can be empty while its
    closure is not, so emptiness is always decided first.
    """
    def reachable(s: State) -> bool:
        for piece in dnf_cover(phi):
            box = _Box.of(piece, states)
            if box is not None:
                if box.nonempty and box.max_mass(s) > 0:
                    return True
                continue
            if piece.has_strict() and not piece_feasible(piece, states):
                continue
            best = piece_max(piece, states, {s: ONE})
            if best is not None and best[0] > 0:
                return True
        return False

    return tuple(s for s in states if reachable(s))


# ---------------------------------------------------------------------------
# Polytopes and vertex enumeration (double description over rationals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polytope:
    """Closed convex subset of the simplex over `states` (non-strict rows only)."""

    states: tuple[State, ...]
    rows: tuple[tuple[tuple[tuple[State, Fraction], ...], str, Fraction], ...]

    def __post_init__(self):
        for _, rel, _ in self.rows:
            if rel not in ("<=", "=="):
                raise InputError(f"polytope rows must use <= or ==, got {rel!r}")

    @staticmethod
    def make(states: Sequence[State], rows: Iterable[tuple[Mapping[State, Fraction], str, Fraction]]) -> "Polytope":
        """Normalize >=/"> rows to <= form; strict rows are rejected."""
        norm = []
        for coeffs, rel, rhs in rows:
            cs = tuple(sorted(((s, as_fraction(c)) for s, c in dict(coeffs).items() if as_fraction(c) != 0),
                              key=lambda kv: str(kv[0])))
            rhs = as_fraction(rhs)
            if rel == ">=":
                cs, rel, rhs = tuple((s, -c) for s, c in cs), "<=", -rhs
            norm.append((cs, rel, rhs))
        return Polytope(tuple(states), tuple(norm))

    @staticmethod
    def from_piece(piece: Piece, states: Sequence[State]) -> "Polytope":
        rows = tuple((coeffs, "<=" if rel == "<" else rel, rhs) for coeffs, rel, rhs in piece.rows)
        return Polytope(tuple(states), rows)

    def halfspaces(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        """Rows as (normal vector over states, rhs), equalities split in two."""
        idx = {s: i for i, s in enumerate(self.states)}
        out = []
        for coeffs, rel, rhs in self.rows:
            vec = [ZERO] * len(self.states)
            for s, c in coeffs:
                vec[idx[s]] += c
            if rel in ("<=", "=="):
                out.append((tuple(vec), rhs))
            if rel == "==":
                out.append((tuple(-c for c in vec), -rhs))
        return out


def _rank(vectors: list[tuple[Fraction, ...]]) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = ONE / pr[col]
        rows[rank] = [x * inv for x in pr]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def vertices(poly: Polytope, dim_cap: int = VERTEX_DIM_CAP) -> list[Distribution]:
    """Exact V-representation by incremental double description.

    Starts from the simplex vertices and cuts one halfspace at a time; new
    vertices arise on edges between kept and cut vertices, with adjacency
    decided by a rank test on the common tight constraints.
    """
    n = len(poly.states)
    if n > dim_cap:
        raise ResourceLimitError(f"vertex enumeration capped at dimension {dim_cap}, got {n}")
    if n == 0:
        return []
    ones = tuple(ONE for _ in range(n))

    # Each vertex: coordinate tuple. Tight sets recomputed against processed rows.
    verts: list[tuple[Fraction, ...]] = [
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    ]
    processed: list[tuple[tuple[Fraction, ...], Fraction]] = []

    def tight_normals(v: tuple[Fraction, ...], w: tuple[Fraction, ...]) -> list[tuple[Fraction, ...]]:
        normals = [ones]
        for i in range(n):
            if v[i] == 0 and w[i] == 0:
                normals.append(tuple(ONE if j == i else ZERO for j in range(n)))
        for a, b in processed:
            if sum(c * x for c, x in zip(a, v)) == b and sum(c * x for c, x in zip(a, w)) == b:
                normals.append(a)
        return normals

    for a, b in poly.halfspaces():
        vals = [sum(c * x for c, x in zip(a, v)) - b for v in verts]
        keep = [v for v, val in zip(verts, vals) if val <= 0]
        cut = [(v, val) for v, val in zip(verts, vals) if val > 0]
        if not cut:
            processed.append((a, b))
            continue
        if not keep:
            return []
        new: list[tuple[Fraction, ...]] = []
        for u, val_u in [(v, val) for v, val in zip(verts, vals) if val < 0]:
            for w, val_w in cut:
                if _rank(tight_normals(u, w)) == n - 1:
                    t = val_u / (val_u - val_w)  # in (0,1)
                    p = tuple(x + t * (y - x) for x, y in zip(u, w))
                    if p not in new:
                        new.append(p)
        processed.append((a, b))
        verts = keep + [p for p in new if p not in keep]

    # Points on the boundary of several halfspaces can coincide; dedupe done above.
    out = [Distribution.of({s: v[i] for i, s in enumerate(poly.states)}) for v in verts]
    return sorted(out, key=lambda d: tuple(d.mass.get(s, ZERO) for s in poly.states))


# ---------------------------------------------------------------------------
# Witness distributions: a left distribution and why it escapes the right side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportAtState:
    state: State


@dataclass(frozen=True)
class FacetViolation:
    atom: LinearAtom


@dataclass(frozen=True)
class ReachesPair:
    source: State
    target: State


@dataclass(frozen=True)
class WitnessDistribution:
    mu: Distribution
    reason: SupportAtState | FacetViolation | ReachesPair
