"""Exact linear programming over rationals, sized for desk-scale decision procedures.

Two-phase dense simplex with Bland's rule, and a dual simplex for rows
appended to an optimal tableau, pivoted fraction-free in Python integers
(Edmonds, J. Res. NBS 1967; Bareiss, Math. Comp. 1968).  Every
refinement / difference / distance decision in this package reduces to small
LPs (tens of variables), where exactness matters far more than speed: the
logical layer must not depend on floating-point tolerances.

A row (coeffs, rel, rhs) is ad hoc, with rationals, or compiled, with
integer coefficients over den > 0, the row's least common denominator, and
rhs the pair (integer numerator, den) (`compile_row`).  Rows entered many
times, such as the pieces of a DNF cover, are compiled once; an ad hoc row
is compiled as it enters.  The rows `A x = b` (slack columns included, ">="
rows negated to "<=") are multiplied by one common positive integer L, the
least common multiple of the row denominators, so of every denominator,
among the rows entered together.  Multiplying all rows by L and keeping
unit slack and artificial columns is the same as rescaling each slack and
artificial variable by the positive factor L.  A positive rescaling keeps
the sign of every reduced cost and the order of every ratio-test quotient,
so Bland's rule picks the same entering and leaving columns as on the
unscaled rationals, and the phase-1 cost (the sum of the artificials) keeps
its meaning up to the factor L.

With integer start tableau M and current basis B, the tableau holds

    T = D * B^-1 * M,    D = |det B| > 0,

so every entry is a minor of M and an integer.  A pivot on (p, q) sets
T[i] = (T[p][q] * T[i] - T[i][q] * T[p]) // D for i != p, where the division
is exact, and the pivot becomes the next D.  The reduced-cost row is kept in
the same form, D * (c - c_B B^-1 M) with the costs scaled to integers, and
updated by the same pivot.  Quotients in the ratio test are compared by
cross-multiplication, so `Fraction`s are made only for the returned value
and point.  A pivot that drives a zero-level artificial out of the basis may
be negative; the tableau and D are then negated, which keeps D > 0.

Every row enters a tableau by one rule (`_enter`), in the tableau's
current basis.  A row m·x + s = b with its own slack s enters as
D·m - sum_r m[basis[r]]·T[r], with s basic at entry D.  The new basis matrix
is the old one bordered by the row m restricted to the basic columns and a 1
for s, so it is block triangular with the same determinant; the entered row
is again D times a row of B^-1 M, and D, the exactness of every later
division and the meaning of the reduced costs all carry over.  A row whose
right-hand side comes out negative cannot keep s basic in a feasible
basis.  Entered into the tableau of no rows (D = 1, an empty basis), the
rule gives the start tableau M itself, at an identity basis.  There are
three starts:

- the slack start: a row whose right-hand side comes out negative is
  negated, which makes its slack entry -D; such a row and every "==" row
  get an artificial, basic at entry D, and phase 1 minimizes the sum of the
  artificials from there (Bland's rule terminates from any basis).  A "<="
  row with a nonnegative right-hand side starts with its slack basic, and
  phase 1 is skipped when no row needs an artificial;
- the all-artificial start: every row gets an artificial, whatever the sign
  of its right-hand side;
- the dual start, for rows appended to a tableau at an optimum: every row
  keeps its slack basic, whatever the sign of its right-hand side, and an
  "==" row enters as its "<=" and ">=" rows.  No artificial enters.  The
  new basis is primal infeasible where a right-hand side is negative, but
  it keeps the optimum's reduced costs: a new slack is basic with cost 0,
  and c_B B^-1 of the bordered basis is c_B B^-1 of the old one followed by
  zeros, so every old column keeps its reduced cost, which is >= 0 at the
  optimum of a minimization.  The basis is dual feasible, and the dual
  simplex re-optimizes from it (Lemke 1954).  With Bland's dual rule, the
  least basic column among the rows with a negative right-hand side leaves
  and the least column among the ties of the ratio test enters, so it is
  Bland's rule on the dual and terminates (Bland 1977).  Its pivot entry is
  negative; the leaving row is negated first, which keeps D > 0.

All variables are implicitly >= 0, which covers every use here (probability
masses, coupling masses, slack variables).  Callers fix the variable order;
solutions returned are basic, i.e. vertices of the feasible polyhedron.

`solve` is `prepare` followed by `reprice`.  `prepare` takes the rows
through the all-artificial start and phase 1 once, and returns the tableau
at a feasible basis (None if the system is infeasible); `reprice` prices an
objective on that tableau and runs phase 2 from its current basis, leaving
the tableau at the new optimum.  A caller that optimizes many objectives
over one system prepares it once and re-prices it: Bland's rule terminates
from any feasible basis, and the optimal value does not depend on where
phase 2 starts.  The optimal vertex does, when the optimum is not unique, so
only a caller that reads the value alone may re-price; a caller that builds
on the vertex calls `solve`, whose pivot path starts from the phase-1 basis
every time.  `reprice_value` is `reprice` without the point: the same
objective parsing and phase 2 (`_reprice`), the same pivots, and the value
alone, for callers that read nothing else.

`feasible_point`, `feasible`, `feasible_base` and `feasible_with` also take
strict rows, "<" and ">".  They share one slack t <= 1 (`_slack_rows`), and
a strict solution exists iff the maximum of t is positive.  `feasible_point`
reads the vertex of that maximum from `solve`.  `feasible` reads no vertex:
it takes the slack start, and phase 2 only finds the sign of t's optimum.
`prepare` and `solve` reject strict rows, since an optimum over a half-open
set need not be attained; their all-artificial start keeps the pivot path of
every vertex a caller reads.

`feasible_with` asks `feasible` of many systems that share most of their
rows.  `feasible_base` takes the shared rows, with t, through the slack
start and phase 1 once, drops the artificials, maximizes t and keeps t's
reduced-cost row.  Each question enters its own rows in that tableau's
basis by the dual start and runs the dual simplex for t from the base's
reduced costs (`_dual_phase`).  The base is unchanged: a question copies the
base's rows only at its first pivot, and one whose rows hold at the base's
vertex makes no pivot.  Every dual pivot keeps the reduced costs >= 0, so
the objective value of each basis bounds t's maximum from above, and the
bound never rises.  The question is answered False as soon as the next
pivot would bring the bound to 0, or a violated row has no negative entry
(it holds at no point); it is answered True once every row holds, at a
positive optimum.  The base may be re-priced in between, for t
(`slack_point`) or for any objective over its closure (`reprice`, which
clears the kept row); the next question then re-prices it for t in place
first, so a base that is asked nothing pays no pivot for t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Mapping, Sequence

from .errors import InputError

Var = Hashable
ZERO = Fraction(0)
ONE = Fraction(1)

# An ad hoc or compiled row; rel "<=", ">=", "==", or from `feasible_point` on "<", ">".
Row = tuple[Mapping[Var, int], str, tuple[int, int]]
Constraint = tuple[Mapping[Var, Fraction], str, Fraction] | Row


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    point: dict[Var, Fraction] | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _rational(c) -> int | Fraction:
    """`c` as an exact int or Fraction (anything else as `Fraction(c)` reads it)."""
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _pivot(rows: list[list[int]], cost: list[int] | None, basis: list[int],
           p: int, q: int, det: int) -> int:
    """Bareiss pivot on (p, q) of rows and, if given, the reduced-cost row;
    returns the new determinant, the pivot."""
    prow = rows[p]
    a = prow[q]
    for i, row in enumerate(rows):
        if i == p:
            continue
        b = row[q]
        if b:
            rows[i] = [(a * x - b * y) // det for x, y in zip(row, prow)]
        elif a != det:
            rows[i] = [a * x // det for x in row]
    if cost is not None:
        b = cost[q]
        cost[:] = [(a * x - b * y) // det for x, y in zip(cost, prow)]
    basis[p] = q
    return a


def _simplex_phase(rows: list[list[int]], cost: list[int], basis: list[int],
                   det: int) -> tuple[bool, int]:
    """Minimize over the tableau from reduced-cost row `cost` (last entry:
    -det times the objective value), Bland's rule throughout.  Returns
    (bounded, det) and leaves the optimum in rows, cost and basis."""
    while True:
        entering = next((j for j, c in enumerate(cost[:-1]) if c < 0), -1)
        if entering < 0:
            return True, det
        # Ratio test rhs/a over a > 0, by cross-multiplication; Bland tiebreak on basis index.
        leaving = -1
        best_rhs = best_a = 0
        for r, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if leaving < 0 or lhs < rhs or (lhs == rhs and basis[r] < basis[leaving]):
                    leaving, best_rhs, best_a = r, row[-1], a
        if leaving < 0:
            return False, det
        det = _pivot(rows, cost, basis, leaving, entering, det)


@dataclass
class Tableau:
    """The integer tableau of one constraint system at a feasible basis.

    `rows` hold D * B^-1 * M over the `columns` variable and slack columns
    plus the right-hand side, with `det` = D > 0 and `basis[r]` the column
    basic in row r; redundant rows are gone.  `reprice` moves it from basis
    to basis.  Fresh from `_append`, a tableau is at its start basis
    instead, with the artificials in the columns past `columns`.  `cost` is
    the reduced-cost row of the strict slack t while the basis is t's
    optimum (`feasible_base`, `slack_point`, `feasible_with`), and None
    otherwise.
    """

    var_index: dict[Var, int]
    columns: int
    rows: list[list[int]]
    basis: list[int]
    det: int
    cost: list[int] | None = None


def compile_row(coeffs: Mapping[Var, Fraction], rel: str, rhs: Fraction) -> Row:
    """An ad hoc row over its least common denominator."""
    values = [(v, _rational(c)) for v, c in coeffs.items()]
    rhs = _rational(rhs)
    den = lcm(rhs.denominator, *[c.denominator for _, c in values])
    return ({v: c.numerator * (den // c.denominator) for v, c in values}, rel,
            (rhs.numerator * (den // rhs.denominator), den))


def lowest_terms(row: Constraint) -> Constraint:
    """A compiled row, after a map dropped terms, over its least denominator."""
    coeffs, rel, rhs = row
    if not isinstance(rhs, tuple) or (g := gcd(rhs[1], rhs[0], *coeffs.values())) == 1:
        return row
    return {v: c // g for v, c in coeffs.items()}, rel, (rhs[0] // g, rhs[1] // g)


def _empty(variables: Sequence[Var]) -> Tableau:
    """The tableau of no rows over `variables`: D = 1 and an empty basis."""
    var_index = {v: i for i, v in enumerate(variables)}
    if len(var_index) != len(variables):
        raise ValueError("duplicate variables")
    return Tableau(var_index, len(variables), [], [], 1)


def _enter(base: Tableau, constraints: Sequence[Constraint], start: str
           ) -> tuple[int, list[list[int]], list[int]]:
    """`constraints` entered in the base's basis by the module docstring's
    rule, each at its final width: (columns, rows, their basic columns).

    Columns: the base's, one new slack per inequality, the artificials, rhs;
    `columns` stops before the artificials.  ">=" rows are negated to "<=".
    `start` is one of the module docstring's three starts.  "artificial"
    and "slack" negate the rows whose rhs comes out negative; each row's
    sign enters the phase-1 cost, so this order is part of the pivot path.
    "artificial" gives every row an artificial, "slack" only those rows and
    the "==" rows.  "dual" enters each "==" row as its "<=" and ">=" rows,
    and gives every row its slack, basic whatever the sign of its rhs, and
    no artificial.
    """
    var_index, total, det, base_rows = base.var_index, base.columns, base.det, base.rows
    row_of = {col: r for r, col in enumerate(base.basis)}
    each, dual = start == "artificial", start == "dual"
    if dual:
        constraints = [(coeffs, half, rhs) for coeffs, rel, rhs in constraints
                       for half in (("<=", ">=") if rel == "==" else (rel,))]
    compiled = [row if isinstance(row[2], tuple) else compile_row(*row) for row in constraints]
    scale = lcm(*[rhs[1] for _, _, rhs in compiled])
    entering = []  # (terms, rel, multiplier, [(base row index, m)], sign, artificial?, b)
    columns, arts = total, 0
    for coeffs, rel, (rhs, den) in compiled:
        if rel not in ("<=", ">=", "=="):
            raise ValueError(f"unknown relation {rel!r}")
        try:
            terms = [(var_index[v], c) for v, c in coeffs.items()]
        except KeyError as err:
            raise InputError(f"a constraint names {err.args[0]!r}, which is not among "
                             f"the variables") from None
        unit = (-scale if rel == ">=" else scale) // den  # a ">=" row is negated to "<="
        b = det * rhs * unit
        pulled = [(row_of[j], c * unit) for j, c in terms if j in row_of] if row_of else []
        if pulled:
            b -= sum(m * base_rows[r][-1] for r, m in pulled)
        sign = 1 if dual or b >= 0 else -1
        art = each or (not dual and (rel == "==" or sign < 0))
        columns += rel != "=="
        arts += art
        entering.append((terms, rel, unit, pulled, sign, art, b))
    pad = [0] * (columns + arts - total)
    rows, basis = [], []
    slack_at, art_at = total, columns
    for terms, rel, unit, pulled, sign, art, b in entering:
        k = sign * det
        head = [0] * total
        for j, c in terms:
            head[j] = k * c * unit
        for r, m in pulled:
            f = sign * m
            head = [x - f * y for x, y in zip(head, base_rows[r])]
        row = head + pad + [sign * b]
        if rel != "==":
            row[slack_at] = k
            if not art:
                basis.append(slack_at)
            slack_at += 1
        if art:
            row[art_at] = det
            basis.append(art_at)
            art_at += 1
        rows.append(row)
    return columns, rows, basis


def _padded(base: Tableau, width: int) -> list[list[int]]:
    """A copy of the base's rows at `width`, 0 in the columns past its own."""
    pad = [0] * (width - base.columns - 1)
    return [row[:base.columns] + pad + row[-1:] for row in base.rows]


def _append(base: Tableau, constraints: Sequence[Constraint], start: str) -> Tableau:
    """A new tableau: the base's rows (`_padded`), then `_enter`'s rows."""
    columns, rows, basis = _enter(base, constraints, start)
    width = len(rows[0]) if rows else base.columns + 1
    return Tableau(base.var_index, columns, _padded(base, width) + rows,
                   base.basis + basis, base.det)


def _phase_one(tableau: Tableau) -> bool:
    """Phase 1 on a tableau from `_append`, whose basic artificials, the
    columns from `columns` on, each hold the entry D in their own column.
    Minimizes the sum of the artificials; is the system feasible?"""
    rows, basis, total = tableau.rows, tableau.basis, tableau.columns
    art_rows = [row for row, col in zip(rows, basis) if col >= total]
    if not art_rows:
        return True
    width = len(rows[0])
    cost = [0] * width
    for row in art_rows:
        cost = [c - x for c, x in zip(cost, row)]
    cost[total:width - 1] = [0] * (width - 1 - total)
    _, tableau.det = _simplex_phase(rows, cost, basis, tableau.det)
    return cost[-1] == 0


def _drop_artificials(tableau: Tableau) -> None:
    """After phase 1: drive the zero-level artificials out of the basis where
    possible, drop redundant rows and the artificial columns."""
    rows, basis, total, det = tableau.rows, tableau.basis, tableau.columns, tableau.det
    for r in range(len(rows) - 1, -1, -1):
        if basis[r] >= total:
            pivot_col = next((j for j in range(total) if rows[r][j] != 0), None)
            if pivot_col is None:
                del rows[r]
                del basis[r]
            else:
                det = _pivot(rows, None, basis, r, pivot_col, det)
                if det < 0:
                    rows[:] = [[-x for x in row] for row in rows]
                    det = -det
    rows[:] = [row[:total] + [row[-1]] for row in rows]
    tableau.det = det


def _feasible_basis(start: Tableau) -> Tableau | None:
    """Phase 1 on a tableau from `_append`, then its artificials dropped: the
    tableau at a feasible basis, or None if the system is infeasible."""
    if not _phase_one(start):
        return None
    _drop_artificials(start)
    return start


def prepare(constraints: Sequence[Constraint], variables: Sequence[Var]) -> Tableau | None:
    """Phase 1 from the all-artificial basis: the tableau of `constraints` at
    a feasible basis, all variables >= 0, or None if the system is
    infeasible."""
    return _feasible_basis(_append(_empty(variables), constraints, "artificial"))


def _price(tableau: Tableau, int_cost: list[int]) -> list[int] | None:
    """Phase 2 of the integer costs `int_cost` (one per column, minimized)
    from the tableau's current basis; the final reduced-cost row, or None if
    unbounded.  Either way the tableau is left at the last basis."""
    rows, basis, det = tableau.rows, tableau.basis, tableau.det
    cost = [det * c for c in int_cost] + [0]
    for r, col in enumerate(basis):
        cb = int_cost[col]
        if cb:
            cost = [c - cb * x for c, x in zip(cost, rows[r])]
    bounded, tableau.det = _simplex_phase(rows, cost, basis, det)
    return cost if bounded else None


def _reprice(tableau: Tableau, objective: Mapping[Var, Fraction],
             maximize: bool) -> Fraction | None:
    """Phase 2 of `objective` from the tableau's current basis, by `_price`:
    the optimal value, or None if unbounded."""
    var_index = tableau.var_index
    try:
        terms = [(var_index[v], _rational(c)) for v, c in objective.items()]
    except KeyError as err:
        raise InputError(f"the objective names {err.args[0]!r}, which is not among "
                         f"the variables") from None
    cost_scale = lcm(*[c.denominator for _, c in terms])
    sign = -1 if maximize else 1
    int_cost = [0] * tableau.columns
    for j, c in terms:
        int_cost[j] = sign * c.numerator * (cost_scale // c.denominator)
    tableau.cost = None  # the basis moves off t's optimum
    cost = _price(tableau, int_cost)
    if cost is None:
        return None
    return Fraction(sign * -cost[-1], tableau.det * cost_scale)


def reprice_value(tableau: Tableau, objective: Mapping[Var, Fraction],
                  maximize: bool = True) -> Fraction | None:
    """`reprice(...).value`, with no point built: the optimal value, or None
    if unbounded.  The tableau is left as `reprice` leaves it."""
    return _reprice(tableau, objective, maximize)


def reprice(tableau: Tableau, objective: Mapping[Var, Fraction],
            maximize: bool = True) -> LpResult:
    """Phase 2: optimize `objective` from the tableau's current basis.

    The tableau is left at the optimal basis, or at the last feasible basis
    if the objective is unbounded, so it can be re-priced again.  The optimal
    value does not depend on the starting basis, but the returned vertex may.
    """
    value = _reprice(tableau, objective, maximize)
    if value is None:
        return LpResult("unbounded", None, None)
    return LpResult("optimal", value, _vertex(tableau))


def _vertex(tableau: Tableau) -> dict[Var, Fraction]:
    """The point of the tableau's current basis."""
    var_index, rows, det = tableau.var_index, tableau.rows, tableau.det
    n = len(var_index)
    x = [ZERO] * n
    for r, col in enumerate(tableau.basis):
        if col < n:
            x[col] = Fraction(rows[r][-1], det)
    return {v: x[i] for v, i in var_index.items()}


def solve(
    objective: Mapping[Var, Fraction],
    constraints: Sequence[Constraint],
    variables: Sequence[Var],
    maximize: bool = True,
) -> LpResult:
    """Solve max/min objective subject to `constraints`, all variables >= 0.

    The returned point is a basic feasible solution (a vertex).
    """
    tableau = prepare(constraints, variables)
    if tableau is None:
        return LpResult("infeasible", None, None)
    return reprice(tableau, objective, maximize)


_SLACK = ("__strict_slack__",)
_CAP = ({_SLACK: 1}, "<=", (1, 1))  # t <= 1, compiled
_STRICT = {"<": ("<=", 1), ">": (">=", -1)}  # the relation and t's coefficient


def feasible_point(constraints: Sequence[Constraint],
                   variables: Sequence[Var]) -> dict[Var, Fraction] | None:
    """A point of the constraint set, strict rows strict, or None if empty:
    a vertex, of the system with t at the maximum of t if a row is strict."""
    if not _has_strict(constraints):
        res = solve({}, constraints, variables, maximize=False)
        return res.point if res.optimal else None
    res = solve({_SLACK: ONE}, _slack_rows(constraints) + [_CAP], [*variables, _SLACK])
    if not res.optimal or res.value <= 0:
        return None
    point = dict(res.point)
    del point[_SLACK]
    return point


def _has_strict(constraints: Sequence[Constraint]) -> bool:
    return any(rel in _STRICT for _, rel, _ in constraints)


def _slack_rows(constraints: Sequence[Constraint]) -> list[Constraint]:
    """The nonstrict rows in their order, then each strict row on the
    shared slack t: c·x < rhs as c·x + t <= rhs, and c·x > rhs as
    c·x - t >= rhs, which `_enter` negates to -c·x + t <= -rhs.  In a
    compiled row t's coefficient is over the row's denominator, ±den."""
    nonstrict, strict = [], []
    for coeffs, rel, rhs in constraints:
        if rel in _STRICT:
            rel, t = _STRICT[rel]
            strict.append(({**coeffs, _SLACK: t * rhs[1] if isinstance(rhs, tuple) else t},
                           rel, rhs))
        else:
            nonstrict.append((coeffs, rel, rhs))
    return nonstrict + strict


def _slack_basis(constraints: Sequence[Constraint], variables: Sequence[Var]) -> Tableau | None:
    """The rows of `_slack_rows`, then t <= 1, with t the last variable,
    from the slack start through phase 1, artificials dropped (None if
    infeasible)."""
    start = _append(_empty([*variables, _SLACK]), _slack_rows(constraints) + [_CAP], "slack")
    return _feasible_basis(start)


def _price_slack(tableau: Tableau) -> int:
    """Phase 2 of max t from the tableau's feasible basis, which it leaves
    at t's optimum with t's reduced-cost row kept in `cost`: D times the
    maximum of t."""
    t_cost = [0] * tableau.columns
    t_cost[tableau.var_index[_SLACK]] = -1  # maximize t
    tableau.cost = _price(tableau, t_cost)
    return tableau.cost[-1]  # -D times the minimum of -t


def _dual_phase(base: Tableau, columns: int, rows: list[list[int]], basis: list[int]) -> bool:
    """Dual simplex for max t from the base at t's optimum (its kept cost
    row, of -t minimized, is dual feasible) plus `_enter`'s dual `rows`, by
    Bland's dual rule: the least basic column among the rows with a
    negative rhs leaves, and the least column among the ties of the dual
    ratio test enters.  Is t's maximum positive?  False as soon as the dual
    bound on it, `cost[-1]` / D, would reach 0.  The base's rows have no
    negative rhs, so a padded copy of them joins at the first pivot."""
    cost = base.cost[:-1] + [0] * (columns - base.columns) + base.cost[-1:]
    if cost[-1] <= 0:
        return False
    det, joined = base.det, False
    while True:
        leaving = min((r for r, row in enumerate(rows) if row[-1] < 0),
                      key=basis.__getitem__, default=-1)
        if leaving < 0:
            return True  # primal feasible too: the bound is t's maximum
        # Ratio test cost/-a over a < 0, by cross-multiplication; the first
        # column wins a tie.
        prow = rows[leaving]
        entering = -1
        best_cost = best_a = 0
        for j, a in enumerate(prow[:-1]):
            if a < 0 and (entering < 0 or cost[j] * best_a < best_cost * -a):
                entering, best_cost, best_a = j, cost[j], -a
        if entering < 0:
            return False  # the row cannot hold: its slack is negative at every point
        # The pivot would leave the bound at (best_a * cost[-1] - best_cost *
        # -prow[-1]) / (D * best_a), so it is read first.
        if best_a * cost[-1] <= best_cost * -prow[-1]:
            return False
        if not joined:
            leaving += len(base.rows)
            rows, basis, joined = _padded(base, len(prow)) + rows, base.basis + basis, True
        # Negating the row first makes the pivot entry, the next D, positive.
        rows[leaving] = [-x for x in prow]
        det = _pivot(rows, cost, basis, leaving, entering, det)


def feasible(constraints: Sequence[Constraint], variables: Sequence[Var]) -> bool:
    """`feasible_point(...) is not None`, from the slack basis: phase 1 runs
    only if some row needs an artificial, and phase 2 only if a row is
    strict.  No vertex is read, so the pivot path is free."""
    if _has_strict(constraints):
        base = _slack_basis(constraints, variables)
        return base is not None and _price_slack(base) > 0
    return _phase_one(_append(_empty(variables), constraints, "slack"))


def feasible_base(constraints: Sequence[Constraint], variables: Sequence[Var]) -> Tableau | None:
    """The rows that many `feasible_with` questions share, with t even if no
    row is strict, at t's optimum with t's reduced-cost row kept; None if
    the closure of the system (t = 0) is empty, so that no appended row can
    make it feasible."""
    base = _slack_basis(constraints, variables)
    if base is not None:
        _price_slack(base)
    return base


def slack_point(base: Tableau) -> dict[Var, Fraction] | None:
    """Re-price a `feasible_base` tableau for t, with no pivot if it is
    still at t's optimum: the vertex of t's maximum without t, or None if
    no point has the strict rows strict.  The tableau is left at t's
    optimum, the base of `feasible_with`."""
    _price_slack(base)
    point = _vertex(base)
    return point if point.pop(_SLACK) > 0 else None


def feasible_with(base: Tableau, constraints: Sequence[Constraint]) -> bool:
    """`feasible` of the base's rows plus `constraints`, from the base at
    t's optimum: a base re-priced for another objective is first re-priced
    for t in place, and is not changed otherwise.  The rows enter by the
    dual start, and the dual simplex (`_dual_phase`) runs from the base's
    reduced costs.  With no strict row anywhere, t is free up to 1, so its
    optimum is positive iff the rows are feasible."""
    if base.cost is None:
        _price_slack(base)
    return _dual_phase(base, *_enter(base, _slack_rows(constraints), "dual"))
