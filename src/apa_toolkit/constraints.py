"""Constraint language over distributions, with exact decision procedures.

User-facing constraints are boolean combinations of linear atoms over the
masses of a distribution (intervals and point constraints are sugar).  Three
derived combinators lift constraints onto difference product spaces:

  * bot-lift     - all mass on the (s1, bot, eps[, 1]) slice, slice marginal
                   satisfying the source constraint;
  * phi-B        - "break the right-hand constraint now or hand the obligation
                   to a successor" (three-clause membership);
  * phi-B-k      - phi-B with a level k, whose deferral clause only
                   accepts strictly smaller levels, and never at level 1.

Each derived node pulls its input constraints back along the marginal maps
cell -> s1 and cell -> s2 (`pull_back`, the one kernel that moves a row
through a state map, for every caller).

Everything is decided exactly over rationals: membership by clause
evaluation, emptiness/support/optimization by LP over the disjunctive normal
form of the constraint, whose pieces hold the integer rows the LPs and the
vertex enumeration read, a derived node's compiled straight from the node.
Strict inequalities (from logical complements) are decided via a
slack-maximization LP, never by epsilon fudge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Hashable, Iterable, Mapping, Sequence

from . import _lp
from .errors import InputError, ResourceLimitError

State = Hashable
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


@dataclass(frozen=True)
class PhiB(ConstraintExpr):
    """Product constraint forcing an immediate or handed-off break of phi2.

    succ maps each left state to its forced right successor (None: no
    matching successor exists, mass must fall to bot); b_map gives, per
    (left, right) pair, the actions along which the pair itself breaks.
    With a level k >= 1 it is phi-B-k, which defers only to strictly
    smaller levels, never at level 1.
    """

    phi1: ConstraintExpr
    phi2: ConstraintExpr
    source_states: tuple[State, ...]
    target_states: tuple[State, ...]
    succ: tuple[tuple[State, State | None], ...]
    b_map: tuple[tuple[tuple[State, State], tuple[str, ...]], ...]
    cells: tuple = ()
    k: int | None = None

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise InputError("phi-B-k requires a level k >= 1")

    @property
    def tag(self) -> str:
        return "phi-B" if self.k is None else "phi-B-k"

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
    return PhiB(*args, k=k)


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
    if isinstance(phi, PhiB):
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
# Pull-backs along state maps: a map T sends each source to at most one
# target, and `groups[t]` is the preimage of t.  T#mu puts on t the mass of
# mu on groups[t], so c . nu REL rhs holds at nu = T#mu iff its pull-back,
# in which each source in groups[t] takes c[t], holds at mu.  Callers: the
# marginal maps of the derived nodes, refinement's successor maps, and the
# coupling map (s, t) -> t of `satisfies` and the distance.
# ---------------------------------------------------------------------------


def pull_back(rows: Iterable[_lp.Constraint], groups: Mapping[State, Sequence]
              ) -> list[_lp.Constraint]:
    """The rows over target states, ad hoc or compiled, in order, as rows
    over the sources of `groups`.  A target with no source drops out, so a
    row can come out naming nothing (`named_rows` decides such rows), and a
    compiled row is brought back to its least denominator."""
    return [_lp.lowest_terms(({s: c for t, c in coeffs.items() for s in groups.get(t, ())},
                              rel, rhs)) for coeffs, rel, rhs in rows]


def preimages(image: Mapping) -> dict[State, list]:
    """The groups of `pull_back` for the map `image`, source -> target."""
    groups: dict = {}
    for s, t in image.items():
        groups.setdefault(t, []).append(s)
    return groups


def zero_row_holds(rel: str, rhs) -> bool:
    """Does a row that names no state, 0 REL rhs, hold (a compiled rhs by its numerator)?"""
    rhs = rhs[0] if isinstance(rhs, tuple) else rhs
    return {"<=": 0 <= rhs, "<": 0 < rhs, "==": 0 == rhs}[rel]


def named_rows(rows: list[_lp.Constraint]) -> list[_lp.Constraint] | None:
    """The rows that name some state, or None if a row that names none is
    false: such a row compares 0 with its right-hand side, which decides it
    with no LP.  For callers that read feasibility only: dropping a true
    row can move the pivot path, and with it a vertex."""
    if all(coeffs or zero_row_holds(rel, rhs) for coeffs, rel, rhs in rows):
        return [row for row in rows if row[0]]
    return None


# ---------------------------------------------------------------------------
# Normal forms: negation push-down, derived-node expansion, DNF cover
# ---------------------------------------------------------------------------


def negate(phi: ConstraintExpr) -> ConstraintExpr:
    """Logical complement with Not pushed down to atoms (to Not(node) at a derived node)."""
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
        return Not(phi)
    raise InputError(f"unknown constraint node {type(phi).__name__}")


def substitute(phi: ConstraintExpr, groups: Mapping[State, Sequence]) -> ConstraintExpr:
    """A plain constraint over target states as one over source variables:
    each atom pulled back (`pull_back`) along the map whose preimages are
    `groups`.  An atom that comes out naming nothing compares 0 with its
    right-hand side and becomes TRUE or FALSE."""
    if isinstance(phi, (TrueExpr, FalseExpr)):
        return phi
    if isinstance(phi, Atom):
        a = phi.atom
        [(coeffs, rel, rhs)] = pull_back([(dict(a.coeffs), a.rel, a.rhs)], groups)
        if not coeffs:
            return TRUE if a.evaluate({}) else FALSE
        return Atom(LinearAtom.make(coeffs, rel, rhs))
    if isinstance(phi, And):
        return and_(*(substitute(i, groups) for i in phi.items))
    if isinstance(phi, Or):
        return or_(*(substitute(i, groups) for i in phi.items))
    if isinstance(phi, Not):
        return not_(substitute(phi.item, groups))
    raise InputError("derived constraints cannot nest inside derived constraints")


@dataclass(frozen=True)
class Piece:
    """One conjunct of a DNF cover: a half-open polyhedron inside the simplex,
    as compiled rows in lowest terms, the form the LPs and `vertices` read:
    ((state, int) pairs, rel in {"<=", "<", "=="}, (numerator, den)).
    `lp_rows` hands them to `_lp` with dict coeffs, made once per piece,
    `closure_rows` closes them, and `fraction_rows` makes `Fraction` rows for
    the callers that read rationals (a witness's facet, the oracle)."""

    rows: tuple[tuple[tuple[tuple[State, int], ...], str, tuple[int, int]], ...]

    @cached_property
    def _lp_rows(self) -> tuple[_lp.Row, ...]:
        return tuple((dict(coeffs), rel, rhs) for coeffs, rel, rhs in self.rows)

    def lp_rows(self) -> list[_lp.Row]:
        return list(self._lp_rows)

    def closure_rows(self) -> list[_lp.Row]:
        return [(coeffs, "<=" if rel == "<" else rel, rhs) for coeffs, rel, rhs in self._lp_rows]

    def has_strict(self) -> bool:
        return any(rel == "<" for _, rel, _ in self.rows)

    def fraction_rows(self) -> tuple[tuple[tuple[tuple[State, Fraction], ...], str, Fraction], ...]:
        """The rows over `Fraction`s, coefficients in `LinearAtom.make`'s order."""
        return tuple((tuple(sorted(((s, Fraction(c, den)) for s, c in coeffs), key=lambda kv: str(kv[0]))),
                      rel, Fraction(num, den)) for coeffs, rel, (num, den) in self.rows)


def _atom_row(a: LinearAtom) -> _lp.Row:
    """The atom as one compiled row, rel "<=", "<" or "==" (">=", ">" negated)."""
    coeffs, rel, (num, den) = _lp.compile_row(dict(a.coeffs), a.rel, a.rhs)
    if rel in ("<=", "<", "=="):
        return coeffs, rel, (num, den)
    return {s: -c for s, c in coeffs.items()}, "<=" if rel == ">=" else "<", (-num, den)


def _signed(row: _lp.Row, positive: bool):
    """The DNF tree of a compiled row (rel "<=", "<", "==") or its complement:
    a branch (a tuple of rows), an Or of two, or TRUE or FALSE if it names nothing."""
    coeffs, rel, (num, den) = row
    if not coeffs:
        return TRUE if zero_row_holds(rel, num) == positive else FALSE
    if positive:
        return (row,)
    neg, neg_rhs = {s: -c for s, c in coeffs.items()}, (-num, den)
    if rel == "==":
        return Or((((coeffs, "<", (num, den)),), ((neg, "<", neg_rhs),)))
    return ((neg, "<" if rel == "<=" else "<=", neg_rhs),)


def _pulled(e: ConstraintExpr, groups: Mapping[State, Sequence], positive: bool):
    """`substitute(e, groups)`, or its `negate`, as a `dnf_cover` tree: atoms
    compiled, pulled back and signed, `and_`/`or_` rules at the same nodes, and
    Not(x), unfolded as by `not_`, a one-item Or expanding as x's complement."""
    if isinstance(e, (TrueExpr, FalseExpr)):
        return e if positive else negate(e)
    if isinstance(e, Atom):
        [row] = pull_back([_atom_row(e.atom)], groups)
        return _signed(row, positive)
    if isinstance(e, (And, Or)):
        join = and_ if isinstance(e, And) == positive else or_
        return join(*(_pulled(i, groups, positive) for i in e.items))
    if isinstance(e, Not):
        inner = _pulled(e.item, groups, not positive)
        return Or((inner,)) if positive else inner
    raise InputError("derived constraints cannot nest inside derived constraints")


def _derived(phi: BotLift | PhiB, positive: bool):
    """A derived node's tree (positive) or its complement's, for `dnf_cover`:
    cells that clause (1) bars (bot-lift: those off the bot slice) at 0, the
    rest summing to 1 (with the simplex row, states outside the cells get 0),
    phi (phi1) on the left marginal, and for phi-B 3(a) mass on a bot cell,
    3(b) phi2 false on the right marginal, or 3(c) mass on a deferring cell."""
    both, either = (and_, or_) if positive else (or_, and_)
    bot_lift = isinstance(phi, BotLift)
    cells = [c for c in phi.cells if _is_bot_slice_cell(c)] if bot_lift else phi.allowed_cells()
    if not cells:
        return FALSE if positive else TRUE
    kept = set(cells)
    parts = [_signed(({c: 1}, "==", (0, 1)), positive) for c in phi.cells if c not in kept]
    parts += [_signed(({c: 1 for c in cells}, "==", (1, 1)), positive),
              _pulled(phi.phi if bot_lift else phi.phi1, preimages({c: c.s1 for c in cells}), positive)]
    if not bot_lift:
        def some_mass(where):
            return either(*(_signed(({c: -1}, "<", (0, 1)), positive) for c in cells if where(c)))
        groups2 = preimages({c: c.s2 for c in cells if c.s2 is not None})
        parts.append(either(some_mass(lambda c: c.s2 is None),
                            _pulled(negate(phi.phi2), groups2, positive),
                            some_mass(phi.deferral_ok)))
    return both(*parts)


@lru_cache(maxsize=None)
def dnf_cover(phi: ConstraintExpr) -> tuple[Piece, ...]:
    """Disjunctive normal form as a tuple of half-open polyhedral pieces.

    Pieces are purely syntactic here; emptiness is decided by the callers'
    LPs.  Raises ResourceLimitError beyond `DNF_BRANCH_CAP` branches.  A
    derived node or its complement becomes a tree of compiled rows
    (`_derived`) with the pieces of the plain constraint over cells that it
    stands for: a compiled row in lowest terms with den > 0 is unique, and
    the constant rules apply at the same nodes, so `rec` expands the same
    branches, with the same cap checks.
    """
    def rec(e) -> list[tuple]:
        if isinstance(e, tuple):
            return [e]
        if isinstance(e, TrueExpr):
            return [()]
        if isinstance(e, FalseExpr):
            return []
        if isinstance(e, Atom):
            return [(_atom_row(e.atom),)]
        if isinstance(e, (BotLift, PhiB)):
            return rec(_derived(e, True))
        if isinstance(e, Not):
            return rec(_derived(e.item, False) if isinstance(e.item, (BotLift, PhiB)) else negate(e.item))
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

    return tuple(Piece(tuple((tuple(coeffs.items()), rel, rhs) for coeffs, rel, rhs in rows))
                 for rows in rec(phi))


# ---------------------------------------------------------------------------
# LP-backed decisions
# ---------------------------------------------------------------------------


def _simplex_row(states: Sequence[State]) -> _lp.Row:
    return ({s: 1 for s in states}, "==", (1, 1))


def piece_point(piece: Piece, states: Sequence[State],
                extra: Sequence[_lp.Constraint] = ()) -> dict[State, Fraction] | None:
    """A distribution in the (half-open) piece that also meets the `extra`
    rows, strict rows strict."""
    return _lp.feasible_point(piece.lp_rows() + [_simplex_row(states), *extra], list(states))


def piece_feasible(piece: Piece, states: Sequence[State],
                   extra: Sequence[_lp.Constraint] = ()) -> bool:
    """Is `piece_point` of the same rows not None?  Decided by `_lp.feasible`,
    which builds no point, for callers that read no vertex."""
    return _lp.feasible(piece.lp_rows() + [_simplex_row(states), *extra], list(states))


def prepare_piece(piece: Piece, states: Sequence[State]
                  ) -> tuple[tuple[State, ...], _lp.Tableau] | None:
    """(support, base) of a piece from one tableau, or None if the piece is
    empty.

    `_lp.feasible_base` takes the rows once and leaves the tableau at the
    optimum of the strict slack t, where `_lp.slack_point` reads a point, or
    shows the piece empty, with no pivot.  The tableau projects onto the
    closure of the piece, in which a nonempty piece is dense (see
    `supportable_states`), so it also gives the support, in `states` order:
    from the point's, the sum of the masses not yet seen positive is
    maximized, re-pricing from the last optimum, until it reaches 0.  The
    first `_lp.feasible_with` question on the base re-prices it for t, the
    optimum from which the dual simplex runs, so a piece that is asked
    nothing pays no pivot for it.
    """
    base = _lp.feasible_base(piece.lp_rows() + [_simplex_row(states)], list(states))
    if base is None or (point := _lp.slack_point(base)) is None:
        return None
    support = {s for s, m in point.items() if m > 0}
    while unknown := [s for s in states if s not in support]:
        best = _lp.reprice(base, {s: ONE for s in unknown})
        if best.value == 0:
            break
        support.update(s for s in unknown if best.point[s] > 0)
    return tuple(s for s in states if s in support), base


def piece_max(piece: Piece, states: Sequence[State],
              objective: Mapping[State, Fraction]) -> tuple[Fraction, dict] | None:
    """Maximize a linear objective over the CLOSURE of the piece (None if empty)."""
    rows = piece.closure_rows() + [_simplex_row(states)]
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
    def of(rows: Iterable, states: Sequence[State]) -> "_Box | None":
        """The intervals over `states` of a piece's compiled rows, or None if
        a row names two states or a state outside `states`."""
        lo: dict = {}
        hi: dict = {}
        consistent = True
        for coeffs, rel, rhs in rows:
            if len(coeffs) > 1 or (coeffs and coeffs[0][0] not in states):
                return None
            t, c = coeffs[0] if coeffs else (None, 0)
            if c == 0:
                consistent = consistent and zero_row_holds(rel, rhs)
                continue
            end = (Fraction(rhs[0], c), rel == "<")
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
            box = _Box.of(piece.rows, states)
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
# Vertex enumeration over a piece's closure (double description over rationals)
# ---------------------------------------------------------------------------


def _rank(vectors: list[tuple]) -> int:
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


def vertices(piece: Piece, states: Sequence[State], dim_cap: int = VERTEX_DIM_CAP) -> list[Distribution]:
    """Exact V-representation of the closure of the piece (strict rows
    closed) inside the simplex over `states`, sorted by the coordinate tuple
    in the order of `states`; raises ResourceLimitError beyond `dim_cap`
    states, before either enumeration runs, and InputError if a row names a
    state outside `states`.

    A piece whose rows each name at most one state (every interval
    constraint gives one) is a box cut by the simplex, and its vertices are
    found in closed form (`_box_vertices`); any other goes through double
    description (`_double_description`).  Both read the compiled rows and
    give the same list.
    """
    n = len(states)
    if n > dim_cap:
        raise ResourceLimitError(f"vertex enumeration capped at dimension {dim_cap}, got {n}")
    if n == 0:
        return []
    verts = _box_vertices(piece, states)
    if verts is None:
        verts = _double_description(piece, states)
    return [Distribution.of(dict(zip(states, v))) for v in sorted(verts)]


def _box_vertices(piece: Piece, states: Sequence[State]) -> list[tuple[Fraction, ...]] | None:
    """The vertices of the closure of a piece whose rows each name at most
    one state of `states`, as coordinate tuples in no set order; None if a
    row names two states or one outside `states`.

    Such a closure is a box, lo_s <= x_s <= hi_s with 0 <= lo_s and
    hi_s <= 1, cut by the simplex row sum x = 1; `_Box` reads the bounds
    and decides emptiness.  A point of it is a vertex iff at least n - 1
    coordinates sit at a bound, since the simplex row and the unit rows of
    those coordinates are then n independent tight rows.  So a vertex either
    has every coordinate at a bound, summing to 1, or one coordinate
    strictly inside its interval, at 1 minus the others.  The search gives
    each coordinate in turn its lower bound, its upper bound (unless equal)
    or, for one coordinate, the remainder, and drops a branch once the
    running sum plus the least (greatest) completion lies above (below) 1;
    each vertex is reached once.
    """
    box = _Box.of(piece.rows, states)
    if box is None:
        return None
    if not box.nonempty:
        return []
    n = len(states)
    lo = [box.lo.get(s, (ZERO, False))[0] for s in states]
    hi = [box.hi.get(s, (ONE, False))[0] for s in states]
    rest_lo, rest_hi = [ZERO] * (n + 1), [ZERO] * (n + 1)
    for i in range(n - 1, -1, -1):
        rest_lo[i], rest_hi[i] = rest_lo[i + 1] + lo[i], rest_hi[i + 1] + hi[i]
    out: list[tuple[Fraction, ...]] = []
    x = [ZERO] * n

    def walk(i: int, total: Fraction, free: int | None) -> None:
        """Coordinates from i on, with `total` the sum of those set before
        i and `free` the coordinate that takes the remainder, if chosen."""
        low, high = (ZERO, ZERO) if free is None else (lo[free], hi[free])
        if total + low + rest_lo[i] > 1 or total + high + rest_hi[i] < 1:
            return
        if i == n:
            if free is None:
                out.append(tuple(x))  # the sum is 1 by the test above
            elif lo[free] < 1 - total < hi[free]:
                x[free] = 1 - total
                out.append(tuple(x))
            return
        for bound in (lo[i],) if lo[i] == hi[i] else (lo[i], hi[i]):
            x[i] = bound
            walk(i + 1, total + bound, free)
        if free is None:
            walk(i + 1, total, i)

    walk(0, ZERO, None)
    return out


def _halfspaces(piece: Piece, states: Sequence[State]) -> list[tuple[tuple[int, ...], int]]:
    """The closure of the piece as integer halfspaces (normal over `states`,
    rhs), in row order: each row times its own denominator, "<" closed to
    "<=", "==" split in two.  A positive factor moves no vertex."""
    idx = {s: i for i, s in enumerate(states)}
    out = []
    for coeffs, rel, (num, _) in piece.rows:
        vec = [0] * len(states)
        for s, c in coeffs:
            if s not in idx:
                raise InputError(f"a piece row names {s!r}, not one of its states")
            vec[idx[s]] = c
        out.append((tuple(vec), num))
        if rel == "==":
            out.append((tuple(-c for c in vec), -num))
    return out


def _double_description(piece: Piece, states: Sequence[State]) -> list[tuple[Fraction, ...]]:
    """The vertices of the closure of a piece over at least one state, as
    coordinate tuples in no set order, by incremental double description.

    Starts from the simplex vertices and cuts one halfspace of `_halfspaces`
    at a time; new vertices arise on edges between kept and cut vertices,
    with adjacency decided by a rank test on the common tight constraints.
    """
    n = len(states)
    ones = tuple(ONE for _ in range(n))

    # Each vertex: coordinate tuple. Tight sets recomputed against processed rows.
    verts: list[tuple[Fraction, ...]] = [
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    ]
    processed: list[tuple[tuple[int, ...], int]] = []

    def tight_normals(v: tuple[Fraction, ...], w: tuple[Fraction, ...]) -> list[tuple]:
        normals = [ones]
        for i in range(n):
            if v[i] == 0 and w[i] == 0:
                normals.append(tuple(ONE if j == i else ZERO for j in range(n)))
        for a, b in processed:
            if sum(c * x for c, x in zip(a, v)) == b and sum(c * x for c, x in zip(a, w)) == b:
                normals.append(a)
        return normals

    for a, b in _halfspaces(piece, states):
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
    return verts


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
