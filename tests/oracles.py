"""Independent brute-force oracles used only by the tests.

Deliberately naive: vertex enumeration by solving square subsystems,
membership by direct recursive evaluation, exhaustive grid searches.  They
share no code with the production implementations they check.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from apa_toolkit import constraints as C

ZERO = Fraction(0)
ONE = Fraction(1)


def rational_row(row) -> tuple:
    """An LP row, ad hoc or compiled (integer coeffs over den, rhs the pair
    (numerator, den)), as (coeffs, rel, rhs) of Fractions."""
    coeffs, rel, rhs = row
    if not isinstance(rhs, tuple):
        return row
    num, den = rhs
    return {v: Fraction(c, den) for v, c in coeffs.items()}, rel, Fraction(num, den)


def solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination; None when the system is singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = ONE / m[col][col]
        m[col] = [c * inv for c in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [c - f * p for c, p in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _satisfies_row(point: dict, coeffs: dict, rel: str, rhs: Fraction) -> bool:
    lhs = sum((Fraction(c) * point.get(v, ZERO) for v, c in coeffs.items()), ZERO)
    if rel == "<=":
        return lhs <= rhs
    if rel == ">=":
        return lhs >= rhs
    if rel == "==":
        return lhs == rhs
    raise ValueError(rel)


def basic_points(constraints, variables) -> list[dict]:
    """All vertices of {x >= 0, constraints}: solve every square subsystem of
    tight rows (constraint rows as equalities plus x_i = 0 rows), keep the
    solutions that satisfy everything."""
    variables = list(variables)
    n = len(variables)
    idx = {v: i for i, v in enumerate(variables)}
    cand_rows = []
    for coeffs, rel, rhs in constraints:
        row = [ZERO] * n
        for v, c in coeffs.items():
            row[idx[v]] += Fraction(c)
        cand_rows.append((row, Fraction(rhs)))
    for i in range(n):
        row = [ZERO] * n
        row[i] = ONE
        cand_rows.append((row, ZERO))
    points: list[dict] = []
    seen = set()
    for subset in itertools.combinations(range(len(cand_rows)), n):
        rows = [cand_rows[i][0] for i in subset]
        rhs = [cand_rows[i][1] for i in subset]
        sol = solve_square(rows, rhs)
        if sol is None:
            continue
        point = {v: sol[idx[v]] for v in variables}
        if any(x < 0 for x in sol):
            continue
        if not all(_satisfies_row(point, c, rel, r) for c, rel, r in constraints):
            continue
        key = tuple(sol)
        if key not in seen:
            seen.add(key)
            points.append(point)
    return points


def brute_lp_max(objective, constraints, variables):
    """(value, point) of the maximum over the feasible vertices, or None when
    no vertex exists (region empty, since x >= 0 keeps it pointed)."""
    best = None
    for point in basic_points(constraints, variables):
        value = sum((Fraction(c) * point.get(v, ZERO) for v, c in objective.items()), ZERO)
        if best is None or value > best[0]:
            best = (value, point)
    return best


def naive_member(expr, mass: dict) -> bool:
    """Recursive evaluation of the basic constraint grammar (no derived nodes)."""
    if isinstance(expr, C.TrueExpr):
        return True
    if isinstance(expr, C.FalseExpr):
        return False
    if isinstance(expr, C.Atom):
        a = expr.atom
        lhs = sum((c * Fraction(mass.get(s, 0)) for s, c in a.coeffs), ZERO)
        return {"<=": lhs <= a.rhs, "<": lhs < a.rhs, "==": lhs == a.rhs,
                ">=": lhs >= a.rhs, ">": lhs > a.rhs, "!=": lhs != a.rhs}[a.rel]
    if isinstance(expr, C.And):
        return all(naive_member(i, mass) for i in expr.items)
    if isinstance(expr, C.Or):
        return any(naive_member(i, mass) for i in expr.items)
    if isinstance(expr, C.Not):
        return not naive_member(expr.item, mass)
    raise TypeError(f"naive_member does not handle {type(expr).__name__}")


def grid_masses(states, denominator: int):
    """Every distribution over `states` with all masses multiples of
    1/denominator, as plain dicts."""
    states = list(states)
    if not states:
        return
    def rec(i: int, remaining: int):
        if i == len(states) - 1:
            yield {states[i]: Fraction(remaining, denominator)}
            return
        for take in range(remaining + 1):
            for rest in rec(i + 1, remaining - take):
                out = {states[i]: Fraction(take, denominator)}
                out.update(rest)
                yield out
    yield from rec(0, denominator)


def piece_accepts(piece, mass: dict) -> bool:
    """Direct evaluation of one DNF piece, its compiled rows read as
    rationals, against a mass map."""
    for coeffs, rel, rhs in piece.rows:
        coeffs, rel, rhs = rational_row((dict(coeffs), rel, rhs))
        lhs = sum((c * Fraction(mass.get(s, 0)) for s, c in coeffs.items()), ZERO)
        ok = {"<=": lhs <= rhs, "<": lhs < rhs, "==": lhs == rhs,
              ">=": lhs >= rhs, ">": lhs > rhs, "!=": lhs != rhs}[rel]
        if not ok:
            return False
    return True


def expand(phi):
    """A derived node rewritten as the plain constraint over its cells that
    it stands for, atoms of `Fraction`s pulled back by `constraints.substitute`:
    the reference for the covers `constraints.dnf_cover` builds from the node."""
    if isinstance(phi, C.BotLift):
        slice_cells = [cell for cell in phi.cells if C._is_bot_slice_cell(cell)]
        if not slice_cells:
            return C.FALSE
        groups = C.preimages({cell: cell.s1 for cell in slice_cells})
        zeros = [C.atom({cell: 1}, "==", 0) for cell in phi.cells if not C._is_bot_slice_cell(cell)]
        pin = C.atom({c: 1 for c in slice_cells}, "==", 1)
        return C.and_(*zeros, pin, C.substitute(phi.phi, groups))
    if isinstance(phi, C.PhiB):
        allowed = phi.allowed_cells()
        if not allowed:
            return C.FALSE
        allowed_set = set(allowed)
        zeros = [C.atom({cell: 1}, "==", 0) for cell in phi.cells if cell not in allowed_set]
        groups1 = C.preimages({cell: cell.s1 for cell in allowed})
        groups2 = C.preimages({cell: cell.s2 for cell in allowed if cell.s2 is not None})
        three_a = C.or_(*(C.atom({cell: 1}, ">", 0) for cell in allowed if cell.s2 is None))
        three_b = C.substitute(C.negate(phi.phi2), groups2)
        three_c = C.or_(*(C.atom({cell: 1}, ">", 0) for cell in allowed if phi.deferral_ok(cell)))
        pin = C.atom({c: 1 for c in allowed}, "==", 1)
        return C.and_(*zeros, pin, C.substitute(phi.phi1, groups1), C.or_(three_a, three_b, three_c))
    return phi
