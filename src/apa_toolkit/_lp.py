"""Exact linear programming over rationals, sized for desk-scale decision procedures.

Two-phase dense simplex with Bland's rule, pivoted fraction-free in Python
integers (Edmonds, J. Res. NBS 1967; Bareiss, Math. Comp. 1968).  Every
refinement / difference / distance decision in this package reduces to small
LPs (tens of variables), where exactness matters far more than speed: the
logical layer must not depend on floating-point tolerances.

The rows `A x = b` (slack columns included, right-hand sides made >= 0) are
multiplied by one common positive integer L, the least common multiple of
every denominator in the system, and an artificial identity is appended.
Multiplying all rows by L and keeping unit slack and artificial columns is
the same as rescaling each slack and artificial variable by the positive
factor L.  A positive rescaling keeps the sign of every reduced cost and the
order of every ratio-test quotient, so Bland's rule picks the same entering
and leaving columns as on the unscaled rationals, and the phase-1 cost
(the sum of the artificials) keeps its meaning up to the factor L.

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

All variables are implicitly >= 0, which covers every use here (probability
masses, coupling masses, slack variables).  Callers fix the variable order;
solutions returned are basic, i.e. vertices of the feasible polyhedron.

`solve` is `prepare` followed by `reprice`.  `prepare` runs phase 1 once and
returns the tableau at a feasible basis (None if the system is infeasible);
`reprice` prices an objective on that tableau and runs phase 2 from its
current basis, leaving the tableau at the new optimum.  A caller that
optimizes many objectives over one system prepares it once and re-prices it:
Bland's rule terminates from any feasible basis, and the optimal value does
not depend on where phase 2 starts.  The optimal vertex does, when the
optimum is not unique, so only a caller that reads the value alone may
re-price; a caller that builds on the vertex calls `solve`, whose pivot path
starts from the phase-1 basis every time.

`feasible` is the third entry point, for callers that read no vertex at all.
It starts from the slack basis: a "<=" row with a nonnegative right-hand
side starts with its slack basic, so only "==" rows and rows with a negative
right-hand side get an artificial, and phase 1 is skipped when there are
none.  Strict rows share one slack t <= 1 that phase 2 maximizes, as in
`strict_feasible_point`; the answer is whether t > 0, and no point is built.
`prepare` and `solve` keep the all-artificial start, so every vertex a
caller reads keeps its pivot path.

`feasible_with` asks `feasible` of many systems that share most of their
rows.  `feasible_base` takes the shared rows through `feasible`'s start and
phase 1 once, with the strict slack t <= 1 always present, and drops the
artificials.  Each question then appends its own rows to a copy of that
tableau, in the current basis: a row m·x + s = b with its own slack s
enters as D·m - sum_r m[basis[r]]·T[r], with s basic at entry D.  The new
basis matrix is the old one bordered by the row m restricted to the basic
columns and a 1 for s, so it is block triangular with the same determinant;
the appended row is again D times a row of B^-1 M, and D, the exactness of
every later division and the meaning of the reduced costs all carry over.
A row whose right-hand side comes out negative there, and every "==" row,
is negated as needed and given an artificial at entry D; phase 1 runs from
this basis, where Bland's rule terminates as from any other, and phase 2
maximizes t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping, Sequence

from .errors import InputError

Var = Hashable
ZERO = Fraction(0)
ONE = Fraction(1)

# A constraint is (coeffs, rel, rhs) with rel one of "<=", ">=", "==".
Constraint = tuple[Mapping[Var, Fraction], str, Fraction]


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
    to basis.
    """

    var_index: dict[Var, int]
    columns: int
    rows: list[list[int]]
    basis: list[int]
    det: int


def _parse(constraints: Sequence[Constraint], var_index: Mapping[Var, int]
           ) -> tuple[list[tuple], int]:
    """Each row as (terms, rel, rhs, flip, sign), with the common denominator
    of all of them.  A ">=" row is negated to "<=" (flip), then a row with
    negative rhs is negated (sign), which turns its slack coefficient to -1."""
    parsed = []
    scale = 1
    try:
        for coeffs, rel, rhs in constraints:
            terms = [(var_index[v], _rational(c)) for v, c in coeffs.items()]
            rhs = _rational(rhs)
            if rel not in ("<=", ">=", "=="):
                raise ValueError(f"unknown relation {rel!r}")
            scale = lcm(scale, rhs.denominator, *[c.denominator for _, c in terms])
            flip = -1 if rel == ">=" else 1
            sign = -flip if flip * rhs.numerator < 0 else flip
            parsed.append((terms, rel, rhs, flip, sign))
    except KeyError as err:
        raise InputError(f"a constraint names {err.args[0]!r}, which is not among "
                         f"the variables") from None
    return parsed, scale


def _start(constraints: Sequence[Constraint], variables: Sequence[Var],
           slack_start: bool) -> tuple[dict[Var, int], int, list[list[int]], list[int]]:
    """The integer start tableau of `constraints` with its basis: (var_index,
    columns, rows, basis).

    Columns: variables, one slack per inequality, the artificials, rhs.
    ">=" rows are negated to "<=", then rows with negative rhs are negated;
    each row's sign enters the phase-1 cost, so this order is part of the
    pivot path.  Every row gets an artificial, or with `slack_start` only
    the rows whose slack cannot start basic: "==" rows and rows whose slack
    coefficient the rhs flip made -1.  The start basis is an identity, so
    D = 1.
    """
    var_index = {v: i for i, v in enumerate(variables)}
    if len(var_index) != len(variables):
        raise ValueError("duplicate variables")
    n = len(variables)
    parsed, scale = _parse(constraints, var_index)

    starts = [slack_start and rel != "==" and sign == flip for _, rel, _, flip, sign in parsed]
    total = n + sum(rel != "==" for _, rel, _, _, _ in parsed)
    width = total + starts.count(False) + 1
    rows: list[list[int]] = []
    basis: list[int] = []
    slack_at, art_at = n, total
    for (terms, rel, rhs, flip, sign), slack_basic in zip(parsed, starts):
        row = [0] * width
        for j, c in terms:
            row[j] = sign * c.numerator * (scale // c.denominator)
        row[-1] = sign * rhs.numerator * (scale // rhs.denominator)
        if rel != "==":
            row[slack_at] = sign * flip
            if slack_basic:
                basis.append(slack_at)
            slack_at += 1
        if not slack_basic:
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
        rows.append(row)
    return var_index, total, rows, basis


def _phase_one(rows: list[list[int]], basis: list[int], total: int, det: int) -> int | None:
    """Phase 1 from a tableau at determinant `det` whose basic artificials,
    the columns from `total` on, each hold their own column's entry det:
    the start tableau of `_start` (det 1) or of `feasible_with`.  Minimizes
    the sum of the artificials; returns the determinant, or None if the
    system is infeasible."""
    art_rows = [row for row, col in zip(rows, basis) if col >= total]
    if not art_rows:
        return det
    width = len(rows[0])
    cost = [0] * width
    for row in art_rows:
        cost = [c - x for c, x in zip(cost, row)]
    cost[total:width - 1] = [0] * (width - 1 - total)
    _, det = _simplex_phase(rows, cost, basis, det)
    return det if cost[-1] == 0 else None


def _drop_artificials(rows: list[list[int]], basis: list[int], total: int, det: int) -> int:
    """After phase 1: drive the zero-level artificials out of the basis where
    possible, drop redundant rows and the artificial columns.  Returns the
    determinant."""
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
    return det


def prepare(constraints: Sequence[Constraint], variables: Sequence[Var]) -> Tableau | None:
    """Phase 1 from the all-artificial basis: the tableau of `constraints` at
    a feasible basis, all variables >= 0, or None if the system is
    infeasible."""
    var_index, total, rows, basis = _start(constraints, variables, slack_start=False)
    det = _phase_one(rows, basis, total, 1)
    if det is None:
        return None
    return Tableau(var_index, total, rows, basis, _drop_artificials(rows, basis, total, det))


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


def reprice(tableau: Tableau, objective: Mapping[Var, Fraction],
            maximize: bool = True) -> LpResult:
    """Phase 2: optimize `objective` from the tableau's current basis.

    The tableau is left at the optimal basis, or at the last feasible basis
    if the objective is unbounded, so it can be re-priced again.  The optimal
    value does not depend on the starting basis, but the returned vertex may.
    """
    var_index, rows, basis = tableau.var_index, tableau.rows, tableau.basis
    n = len(var_index)
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
    cost = _price(tableau, int_cost)
    if cost is None:
        return LpResult("unbounded", None, None)
    det = tableau.det
    x = [ZERO] * n
    for r, col in enumerate(basis):
        if col < n:
            x[col] = Fraction(rows[r][-1], det)
    point = {v: x[i] for v, i in var_index.items()}
    return LpResult("optimal", Fraction(sign * -cost[-1], det * cost_scale), point)


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


def feasible_point(
    constraints: Sequence[Constraint], variables: Sequence[Var]
) -> dict[Var, Fraction] | None:
    """A vertex of the constraint set, or None if empty."""
    res = solve({}, constraints, variables, maximize=False)
    return res.point if res.optimal else None


_SLACK = ("__strict_slack__",)


def _strict_rows(strict: Sequence[tuple[Mapping[Var, Fraction], Fraction]]) -> list[Constraint]:
    """Each strict row coeffs·x < rhs as coeffs·x + t <= rhs, for the shared
    slack t."""
    rows = []
    for coeffs, rhs in strict:
        row = dict(coeffs)
        row[_SLACK] = row.get(_SLACK, ZERO) + ONE
        rows.append((row, "<=", Fraction(rhs)))
    return rows


def _with_strict_slack(
    constraints: Sequence[Constraint],
    strict: Sequence[tuple[Mapping[Var, Fraction], Fraction]],
    variables: Sequence[Var],
) -> tuple[list[Constraint], list[Var]]:
    """The system with each strict row as in `_strict_rows`, for one shared
    slack t <= 1, which is the last variable."""
    aug = list(constraints) + _strict_rows(strict)
    aug.append(({_SLACK: ONE}, "<=", ONE))
    return aug, list(variables) + [_SLACK]


def strict_feasible_point(
    constraints: Sequence[Constraint],
    strict: Sequence[tuple[Mapping[Var, Fraction], Fraction]],
    variables: Sequence[Var],
) -> dict[Var, Fraction] | None:
    """A point satisfying `constraints` plus coeffs·x < rhs for each strict row.

    Decided exactly by maximizing a shared slack t with coeffs·x + t <= rhs
    (t capped at 1); a strict solution exists iff the optimum is positive.
    """
    if not strict:
        return feasible_point(constraints, variables)
    aug, aug_vars = _with_strict_slack(constraints, strict, variables)
    res = solve({_SLACK: ONE}, aug, aug_vars, maximize=True)
    if not res.optimal or res.value <= 0:
        return None
    point = dict(res.point)
    point.pop(_SLACK, None)
    return point


def _strict_slack_positive(var_index: dict[Var, int], total: int, rows: list[list[int]],
                           basis: list[int], det: int) -> bool:
    """After a feasible phase 1 over a system with the strict slack t: drop
    the artificials and maximize t from the current basis.  Is its optimum
    positive?"""
    det = _drop_artificials(rows, basis, total, det)
    t_cost = [0] * total
    t_cost[var_index[_SLACK]] = -1  # maximize t
    cost = _price(Tableau(var_index, total, rows, basis, det), t_cost)
    return cost[-1] > 0  # -det times the minimum of -t


def feasible(
    constraints: Sequence[Constraint],
    variables: Sequence[Var],
    strict: Sequence[tuple[Mapping[Var, Fraction], Fraction]] = (),
) -> bool:
    """Does some x >= 0 satisfy `constraints` and coeffs·x < rhs for each
    strict row?  The same decision as `strict_feasible_point(...) is not
    None`, from the slack basis: phase 1 runs only if some row needs an
    artificial, and strict rows share the slack t of `strict_feasible_point`,
    maximized in phase 2.  No vertex is read, so the pivot path is free."""
    if strict:
        constraints, variables = _with_strict_slack(constraints, strict, variables)
    var_index, total, rows, basis = _start(constraints, variables, slack_start=True)
    det = _phase_one(rows, basis, total, 1)
    if det is None:
        return False
    if not strict:
        return True
    return _strict_slack_positive(var_index, total, rows, basis, det)


def feasible_base(
    constraints: Sequence[Constraint],
    variables: Sequence[Var],
    strict: Sequence[tuple[Mapping[Var, Fraction], Fraction]],
) -> Tableau | None:
    """The rows that many `feasible_with` questions share, at a feasible
    basis: the slack-basis start of `feasible`, with the strict slack t <= 1
    as the last variable even when there are no strict rows, through phase 1
    and with the artificials dropped.  None if the closure of the system
    (t = 0) is empty, so that no appended row can make it feasible."""
    constraints, variables = _with_strict_slack(constraints, strict, variables)
    var_index, total, rows, basis = _start(constraints, variables, slack_start=True)
    det = _phase_one(rows, basis, total, 1)
    if det is None:
        return None
    return Tableau(var_index, total, rows, basis, _drop_artificials(rows, basis, total, det))


def feasible_with(
    base: Tableau,
    constraints: Sequence[Constraint],
    strict: Sequence[tuple[Mapping[Var, Fraction], Fraction]],
) -> bool:
    """`feasible` of the base's rows plus `constraints` and the strict rows,
    on a copy of the base (`feasible_base`), which is never changed.

    Each appended row m·x + s = b gets its own slack s and enters in the
    current basis as D·m - sum_r m[basis[r]]·T[r], with s basic at entry D.
    A row with a negative right-hand side there, and every "==" row, is
    negated as needed and given an artificial; phase 1 then runs from this
    basis, and phase 2 maximizes t.  With no strict row anywhere, t is free
    up to 1, so its optimum is positive iff the rows are feasible.
    """
    var_index, total, det = base.var_index, base.columns, base.det
    parsed, scale = _parse(list(constraints) + _strict_rows(strict), var_index)
    row_of = {col: r for r, col in enumerate(base.basis)}
    entering = []  # (row over the base's columns, its slack column or None, sign, artificial?)
    slack_at = total
    for terms, rel, rhs, flip, _ in parsed:
        reduced = [0] * (total + 1)
        reduced[-1] = det * flip * rhs.numerator * (scale // rhs.denominator)
        for j, c in terms:
            m = flip * c.numerator * (scale // c.denominator)
            reduced[j] += det * m
            r = row_of.get(j)
            if r is not None:
                reduced = [x - m * y for x, y in zip(reduced, base.rows[r])]
        slack = None
        if rel != "==":
            slack, slack_at = slack_at, slack_at + 1
        sign = -1 if reduced[-1] < 0 else 1
        entering.append((reduced, slack, sign, slack is None or sign < 0))
    columns = slack_at
    pad = [0] * (columns - total + sum(art for *_, art in entering))
    rows = [row[:total] + pad + row[-1:] for row in base.rows]
    basis = list(base.basis)
    art_at = columns
    for reduced, slack, sign, art in entering:
        row = [sign * x for x in reduced[:total]] + pad + [sign * reduced[-1]]
        if slack is not None:
            row[slack] = sign * det
        if art:
            row[art_at] = det
            basis.append(art_at)
            art_at += 1
        else:
            basis.append(slack)
        rows.append(row)
    det = _phase_one(rows, basis, columns, det)
    return det is not None and _strict_slack_positive(var_index, columns, rows, basis, det)
