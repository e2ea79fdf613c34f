"""Exact rational simplex vs. hand-solved instances and a vertex-enumeration oracle."""
from __future__ import annotations

import copy
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from apa_toolkit import _lp
from apa_toolkit.errors import InputError
from tests.oracles import basic_points, brute_lp_max

ZERO = F(0)


def test_hand_solved_maximum():
    # max x + y  s.t.  x + 2y <= 4, x <= 2  ->  x=2, y=1, value 3
    res = _lp.solve({"x": F(1), "y": F(1)},
                    [({"x": F(1), "y": F(2)}, "<=", F(4)),
                     ({"x": F(1)}, "<=", F(2))],
                    ["x", "y"])
    assert res.status == "optimal"
    assert res.value == 3
    assert res.point == {"x": F(2), "y": F(1)}


def test_hand_solved_minimum():
    # min x + y  s.t.  x + y >= 2  ->  value 2
    res = _lp.solve({"x": F(1), "y": F(1)},
                    [({"x": F(1), "y": F(1)}, ">=", F(2))],
                    ["x", "y"], maximize=False)
    assert res.status == "optimal"
    assert res.value == 2


def test_equality_constraints():
    res = _lp.solve({"x": F(1)},
                    [({"x": F(1), "y": F(1)}, "==", F(1))],
                    ["x", "y"])
    assert res.status == "optimal" and res.value == 1
    assert res.point["x"] + res.point["y"] == 1


def test_infeasible():
    res = _lp.solve({"x": F(1)},
                    [({"x": F(1)}, ">=", F(2)), ({"x": F(1)}, "<=", F(1))],
                    ["x"])
    assert res.status == "infeasible"
    assert res.point is None and res.value is None


def test_unbounded():
    res = _lp.solve({"x": F(1)}, [], ["x"])
    assert res.status == "unbounded"


def test_redundant_rows_are_harmless():
    rows = [({"x": F(1)}, "<=", F(1))] * 3 + [({"x": F(1), "y": F(1)}, "==", F(1))]
    res = _lp.solve({"x": F(1)}, rows, ["x", "y"])
    assert res.status == "optimal" and res.value == 1


def test_duplicate_variables_rejected():
    with pytest.raises(ValueError):
        _lp.solve({}, [], ["x", "x"])


def test_feasible_point_agrees_with_vertex_oracle():
    rows = [({"x": F(1), "y": F(1)}, "==", F(1)), ({"x": F(1)}, ">=", F(1, 3))]
    point = _lp.feasible_point(rows, ["x", "y"])
    assert point is not None
    oracle = {tuple(sorted(p.items(), key=str)) for p in basic_points(rows, ["x", "y"])}
    assert tuple(sorted(point.items(), key=str)) in oracle
    assert _lp.feasible_point(rows + [({"y": F(1)}, ">=", F(9, 10))], ["x", "y"]) is None


def test_strict_feasibility_decisions():
    # x < 1 with x >= 0: satisfiable strictly.
    point = _lp.feasible_point([({"x": F(1)}, "<", F(1))], ["x"])
    assert point is not None and point["x"] < 1
    # x >= 1 and x < 1: only the boundary remains, so no strict point.
    assert _lp.feasible_point([({"x": F(1)}, ">=", F(1)),
                               ({"x": F(1)}, "<", F(1))], ["x"]) is None
    # Two strict rows share the slack: x < 3/4 and -x < -1/4 leaves (1/4, 3/4).
    point = _lp.feasible_point(
        [({"x": F(1)}, "<", F(3, 4)), ({"x": F(-1)}, "<", F(-1, 4))], ["x"])
    assert point is not None and F(1, 4) < point["x"] < F(3, 4)


@pytest.mark.parametrize("rel", ["<", ">"])
def test_prepare_and_solve_reject_strict_rows(rel):
    # An optimum over a half-open set need not be attained.
    rows = [({"x": F(1)}, rel, F(1, 2))]
    with pytest.raises(ValueError, match="relation"):
        _lp.prepare(rows, ["x"])
    with pytest.raises(ValueError, match="relation"):
        _lp.solve({"x": F(1)}, rows, ["x"])


_coeff = st.integers(min_value=-3, max_value=3).map(F)
_rhs = st.integers(min_value=-2, max_value=6).map(lambda k: F(k, 2))


@st.composite
def _bounded_instances(draw):
    n_vars = draw(st.integers(min_value=1, max_value=3))
    variables = [f"v{i}" for i in range(n_vars)]
    n_rows = draw(st.integers(min_value=0, max_value=4))
    rows = []
    for _ in range(n_rows):
        coeffs = {v: draw(_coeff) for v in variables}
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        rows.append((coeffs, rel, draw(_rhs)))
    for v in variables:  # box keeps every instance bounded
        rows.append(({v: F(1)}, "<=", F(3)))
    objective = {v: draw(_coeff) for v in variables}
    return objective, rows, variables


@settings(max_examples=120, deadline=None)
@given(_bounded_instances())
def test_simplex_matches_vertex_enumeration(instance):
    objective, rows, variables = instance
    res = _lp.solve(objective, rows, variables)
    oracle = brute_lp_max(objective, rows, variables)
    if oracle is None:
        assert res.status == "infeasible"
        return
    assert res.status == "optimal"
    assert res.value == oracle[0]
    # The returned point must itself be feasible and achieve the value.
    for coeffs, rel, rhs in rows:
        lhs = sum((c * res.point[v] for v, c in coeffs.items()), ZERO)
        assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[rel]
    assert all(x >= 0 for x in res.point.values())
    achieved = sum((c * res.point[v] for v, c in objective.items()), ZERO)
    assert achieved == res.value


# -- the fraction-free kernel ------------------------------------------------

_mixed = st.builds(F, st.integers(min_value=-4, max_value=4), st.sampled_from([1, 2, 3, 7, 10]))
# Float-derived rationals carry denominators up to 2**53, as in the distance costs.
_float_coeff = st.floats(min_value=-3, max_value=3, allow_nan=False).map(F)


@st.composite
def _mixed_instances(draw):
    n_vars = draw(st.integers(min_value=1, max_value=3))
    variables = [f"v{i}" for i in range(n_vars)]
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        coeffs = {v: draw(_mixed) for v in variables}
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        rows.append((coeffs, rel, draw(_mixed)))
    for v in variables:
        rows.append(({v: F(1)}, "<=", draw(_mixed.filter(lambda b: b >= 0))))
    objective = {v: draw(st.one_of(_mixed, _float_coeff)) for v in variables}
    return objective, rows, variables


@settings(max_examples=150, deadline=None)
@given(_mixed_instances())
def test_mixed_denominators_and_float_costs_match_vertex_enumeration(instance):
    objective, rows, variables = instance
    oracle = brute_lp_max(objective, rows, variables)
    for maximize in (True, False):
        res = _lp.solve(objective, rows, variables, maximize=maximize)
        if oracle is None:
            assert res.status == "infeasible"
            continue
        assert res.status == "optimal"
        best = oracle[0] if maximize else -brute_lp_max(
            {v: -c for v, c in objective.items()}, rows, variables)[0]
        assert res.value == best
        assert res.point in basic_points(rows, variables)
        assert sum((c * res.point[v] for v, c in objective.items()), ZERO) == res.value


def test_zero_level_artificial_driven_out_on_a_negative_pivot(monkeypatch):
    # x + y/3 == 1 and -2x + y/3 >= 1 leave the single point (0, 3).  Phase 1
    # ends with the second row's artificial basic at level zero, and its
    # first nonzero entry (on x) is negative; phase 2 pivots after the flip.
    pivots = []  # (carries a cost row, returned determinant)
    pivot = _lp._pivot

    def spy(rows, cost, basis, p, q, det):
        new = pivot(rows, cost, basis, p, q, det)
        pivots.append((cost is not None, new))
        return new

    monkeypatch.setattr(_lp, "_pivot", spy)
    res = _lp.solve({"x": F(1), "y": F(1)},
                    [({"x": F(1), "y": F(1, 3)}, "==", F(1)),
                     ({"x": F(-2), "y": F(1, 3)}, ">=", F(1))],
                    ["x", "y"])
    assert res.status == "optimal"
    assert res.value == 3
    assert res.point == {"x": F(0), "y": F(3)}
    drive_out = [i for i, (simplex, _) in enumerate(pivots) if not simplex]
    assert drive_out and pivots[drive_out[0]][1] < 0
    assert any(simplex for simplex, _ in pivots[drive_out[0] + 1:])


def test_redundant_equality_row_is_deleted(monkeypatch):
    # 2x + 2y == 2 repeats x + y == 1: its artificial stays basic with an
    # all-zero row, which must be dropped before phase 2.
    phases = []
    phase = _lp._simplex_phase

    def spy(rows, cost, basis, det):
        phases.append(len(rows))
        return phase(rows, cost, basis, det)

    monkeypatch.setattr(_lp, "_simplex_phase", spy)
    res = _lp.solve({"x": F(1)},
                    [({"x": F(1), "y": F(1)}, "==", F(1)),
                     ({"x": F(2), "y": F(2)}, "==", F(2))],
                    ["x", "y"])
    assert phases == [2, 1]
    assert res.status == "optimal"
    assert res.value == 1
    assert res.point == {"x": F(1), "y": F(0)}


def test_feasible_point_on_mixed_denominator_rows_is_a_vertex():
    variables = ["x", "y", "z"]
    rows = [({"x": F(1, 3), "y": F(1, 2)}, "<=", F(1)),
            ({"x": F(1, 7), "y": F(1, 10), "z": F(1)}, "==", F(3, 10)),
            ({"x": F(1), "y": F(1)}, ">=", F(1, 2)),
            ({"y": F(2, 3), "z": F(-1, 7)}, ">=", F(1, 10))]
    point = _lp.feasible_point(rows, variables)
    assert point is not None
    assert point in basic_points(rows, variables)


# -- prepare once, re-price many times ----------------------------------------


def _holds(point, rows):
    """Is `point` a nonnegative solution of `rows`?"""
    for coeffs, rel, rhs in rows:
        lhs = sum((c * point[v] for v, c in coeffs.items()), ZERO)
        if not {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[rel]:
            return False
    return all(x >= 0 for x in point.values())


@st.composite
def _repriced_systems(draw):
    """A system as in `_mixed_instances` whose variables are each boxed or
    left free above (so some objectives are unbounded), with 2-5 objectives."""
    n_vars = draw(st.integers(min_value=1, max_value=3))
    variables = [f"v{i}" for i in range(n_vars)]
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        coeffs = {v: draw(_mixed) for v in variables}
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        rows.append((coeffs, rel, draw(_mixed)))
    for v in variables:
        if draw(st.booleans()):
            rows.append(({v: F(1)}, "<=", draw(_mixed.filter(lambda b: b >= 0))))
    objectives = draw(st.lists(
        st.tuples(st.dictionaries(st.sampled_from(variables), st.one_of(_mixed, _float_coeff)),
                  st.booleans()),
        min_size=2, max_size=5))
    return rows, variables, objectives


@settings(max_examples=150, deadline=None)
@given(_repriced_systems())
def test_repricing_a_prepared_tableau_matches_cold_solves(system):
    """`reprice` matches `solve` on the value; `reprice_value`, on a second
    copy of the tableau, returns that value and leaves the copy as `reprice`
    leaves the first."""
    rows, variables, objectives = system
    tableau, twin = _lp.prepare(rows, variables), _lp.prepare(rows, variables)
    for objective, maximize in objectives:
        cold = _lp.solve(objective, rows, variables, maximize=maximize)
        if tableau is None:
            assert cold.status == "infeasible"
            continue
        warm = _lp.reprice(tableau, objective, maximize=maximize)
        assert warm.status == cold.status
        assert warm.value == cold.value
        assert _lp.reprice_value(twin, objective, maximize=maximize) == warm.value
        assert (twin.rows, twin.basis, twin.det) == (tableau.rows, tableau.basis, tableau.det)
        if warm.optimal:
            assert _holds(warm.point, rows)
            assert sum((c * warm.point[v] for v, c in objective.items()), ZERO) == warm.value


def test_unbounded_repricing_leaves_the_tableau_usable():
    rows = [({"x": F(1), "y": F(1)}, ">=", F(1)), ({"y": F(1)}, "<=", F(2, 3))]
    tableau = _lp.prepare(rows, ["x", "y"])
    first = _lp.reprice(tableau, {"x": F(1), "y": F(2)}, maximize=False)
    assert first.status == "optimal" and first.value == 1
    assert _lp.reprice(tableau, {"x": F(1)}).status == "unbounded"
    for objective, maximize, value in (({"y": F(3)}, True, 2),
                                       ({"x": F(1), "y": F(1, 7)}, False, F(3, 7))):
        res = _lp.reprice(tableau, objective, maximize=maximize)
        assert res.status == "optimal" and res.value == value
        assert res.value == _lp.solve(objective, rows, ["x", "y"], maximize=maximize).value
        assert _holds(res.point, rows)


def test_prepare_reports_an_infeasible_system():
    assert _lp.prepare([({"x": F(1)}, ">=", F(2)), ({"x": F(1)}, "<=", F(1))], ["x"]) is None


def test_unknown_variable_is_an_input_error():
    with pytest.raises(InputError, match="'z'"):
        _lp.solve({}, [({"z": F(1)}, "<=", F(1))], ["x"])
    tableau = _lp.prepare([({"x": F(1)}, "<=", F(1))], ["x"])
    with pytest.raises(InputError, match="'z'"):
        _lp.reprice(tableau, {"z": F(1)})


# -- feasibility from the slack basis -----------------------------------------


@st.composite
def _feasibility_systems(draw, variables=None):
    """Mixed-denominator `<=`/`>=`/`==` rows (negative right-hand sides
    included, possibly none at all), an optional box, and 0-3 strict rows,
    over 1-3 variables unless `variables` are given."""
    if variables is None:
        variables = [f"v{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        coeffs = {v: draw(_mixed) for v in variables}
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        rows.append((coeffs, rel, draw(_mixed)))
    for v in variables:
        if draw(st.booleans()):
            rows.append(({v: F(1)}, "<=", draw(_mixed.filter(lambda b: b >= 0))))
    strict = [({v: draw(_mixed) for v in variables}, draw(_mixed))
              for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    return rows, variables, strict


def _lt(strict):
    """Drawn strict rows (coeffs, rhs) as "<" rows."""
    return [(coeffs, "<", rhs) for coeffs, rhs in strict]


@settings(max_examples=300, deadline=None)
@given(_feasibility_systems())
def test_feasible_agrees_with_strict_feasible_point(system):
    rows, variables, strict = system
    rows = rows + _lt(strict)
    assert _lp.feasible(rows, variables) == (_lp.feasible_point(rows, variables) is not None)


def test_strict_rows_enter_after_the_nonstrict_rows_on_the_shared_slack():
    # Row order is part of the pivot path, so of every vertex read.
    t = _lp._SLACK
    rows = [({"x": F(1)}, "<", F(1, 2)), ({"x": F(1), "y": F(1)}, "==", F(1)),
            ({"y": F(1)}, ">", F(1, 3)), ({"y": F(1)}, "<=", F(3, 4))]
    assert _lp._slack_rows(rows) == [rows[1], rows[3],
                                     ({"x": F(1), t: F(1)}, "<=", F(1, 2)),
                                     ({"y": F(1), t: F(-1)}, ">=", F(1, 3))]


@settings(max_examples=300, deadline=None)
@given(_feasibility_systems())
def test_a_greater_than_row_is_the_negated_less_than_row(system):
    """c·x < r and (-c)·x > (-r) are one row to every feasibility entry
    point: the same verdict, and the same point from the same pivots."""
    rows, variables, strict = system
    less = rows + _lt(strict)
    greater = rows + [({v: -c for v, c in coeffs.items()}, ">", -rhs) for coeffs, rhs in strict]
    assert _lp.feasible(greater, variables) == _lp.feasible(less, variables)
    assert _lp.feasible_point(greater, variables) == _lp.feasible_point(less, variables)


@st.composite
def _appended_systems(draw):
    """A base system and 2-4 systems of rows to append to it, each drawn as
    `_feasibility_systems` over the base's variables: "<=", ">=" and "=="
    rows, negative right-hand sides among them, and strict rows, each
    written as "<" or as the same row negated, ">"."""
    base = draw(_feasibility_systems())
    queries = []
    for rows, _, strict in draw(st.lists(_feasibility_systems(base[1]), min_size=2, max_size=4)):
        for coeffs, rhs in strict:
            rows.append(({v: -c for v, c in coeffs.items()}, ">", -rhs) if draw(st.booleans())
                        else (coeffs, "<", rhs))
        queries.append(rows)
    return base, queries


def _compiled(rows):
    return [_lp.compile_row(*row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(_appended_systems())
def test_feasible_with_agrees_with_strict_feasible_point(systems):
    """`feasible_with` answers as `feasible` and `feasible_point` do on the
    union of the rows, ad hoc or compiled, and leaves the base as it was:
    rows, basis, D and the kept reduced-cost row of t."""
    (rows, variables, strict), queries = systems
    base = _lp.feasible_base(rows + _lt(strict), variables)
    assert base is None or base.cost is not None
    before = copy.deepcopy(base)
    for extra in queries:
        union = rows + _lt(strict) + extra
        expected = _lp.feasible(union, variables)
        assert expected == (_lp.feasible_point(union, variables) is not None)
        assert (base is not None and _lp.feasible_with(base, extra)) == expected
        assert base == before  # every query starts from the same base
        assert (base is not None and _lp.feasible_with(base, _compiled(extra))) == expected
        assert base == before


@settings(max_examples=300, deadline=None)
@given(_appended_systems(), st.data())
def test_compiled_rows_give_the_tableaux_of_their_fractions(systems, data):
    """A row compiled to integers over its least denominator enters every
    start as its `Fraction`s do, so L and every tableau are the same: a mix
    of compiled and ad hoc rows gives the start tableau (rows, basis, D) of
    the same rows as `Fraction`s from the tableau of no rows (the slack and
    all-artificial starts) and from a `feasible_base` (the dual start), and
    `feasible_base` keeps the same tableau and reduced-cost row of t."""
    (rows, variables, strict), queries = systems
    union = rows + _lt(strict) + queries[0]
    assert _compiled(_lp._slack_rows(union)) == _lp._slack_rows(_compiled(union))
    union = _lp._slack_rows(union)
    mixed = [_lp.compile_row(*row) if data.draw(st.booleans()) else row for row in union]
    empty = _lp._empty([*variables, _lp._SLACK])
    for start in ("artificial", "slack", "dual"):
        assert _lp._append(empty, mixed, start) == _lp._append(empty, union, start)
    base = _lp.feasible_base(rows + _lt(strict), variables)
    if base is not None:
        extra = _lp._slack_rows(queries[1])
        compiled_extra = _lp._slack_rows(_compiled(queries[1]))
        assert _lp._append(base, compiled_extra, "dual") == _lp._append(base, extra, "dual")
    assert _lp.feasible_base(_compiled(rows + _lt(strict)), variables) == base  # cost row too


def test_compiled_rows_are_in_lowest_terms():
    assert _lp.compile_row({"x": F(1, 2), "y": F(-2, 3)}, "<", F(1, 4)) == \
        ({"x": 6, "y": -8}, "<", (3, 12))
    assert _lp.compile_row({"x": 2}, "==", "1/3") == ({"x": 6}, "==", (1, 3))
    assert _lp.lowest_terms(({"x": 6}, "<=", (3, 12))) == ({"x": 2}, "<=", (1, 4))
    for row in (({"x": 1, "y": -4}, ">=", (3, 6)), ({"x": F(2, 4)}, "<=", F(3, 6))):
        assert _lp.lowest_terms(row) is row


def test_feasible_with_breaks_dual_ratio_ties_by_the_least_column(monkeypatch):
    # x + y == 1 and x < 1/2, which enters as x + t + s = 1/2: t's maximum
    # is 1/2 at x = 0, y = 1, where -t = -1/2 + x + s, so the nonbasic x
    # (column 0) and s (column 3) both have reduced cost 1.
    rows = [({"x": F(1), "y": F(1)}, "==", F(1)), ({"x": F(1)}, "<", F(1, 2))]
    base = _lp.feasible_base(rows, ["x", "y"])
    assert _lp.slack_point(base) == {"x": 0, "y": 1}
    entered = []
    pivot = _lp._pivot

    def spy(rows, cost, basis, p, q, det):
        entered.append(q)
        return pivot(rows, cost, basis, p, q, det)

    monkeypatch.setattr(_lp, "_pivot", spy)
    # x + y < 5/4 enters as x + y + t + s' = 5/4, which reads
    # s' - x - s = -1/4 in the base's basis: x and s tie at ratio 1, and x,
    # the least column, enters.  The bound on t falls from 1/2 to 1/4, and
    # every row holds.
    below = [({"x": F(1), "y": F(1)}, "<", F(5, 4))]
    assert _lp.feasible_with(base, below) and entered == [0]
    assert _lp.feasible(rows + below, ["x", "y"])
    # x + y < 3/4: the same tie, but the pivot would bring the bound to
    # 1/2 - 3/4 < 0, so the answer is False before it.
    entered.clear()
    above = [({"x": F(1), "y": F(1)}, "<", F(3, 4))]
    assert not _lp.feasible_with(base, above) and entered == []
    assert not _lp.feasible(rows + above, ["x", "y"])
    # No strict row: x + y <= 1 at t = 1, where x, y and the slack all have
    # reduced cost 0.  x + y >= 1/2 ties x and y at ratio 0 (a degenerate
    # pivot), and x enters.
    closed = _lp.feasible_base([({"x": F(1), "y": F(1)}, "<=", F(1))], ["x", "y"])
    entered.clear()
    half = [({"x": F(1), "y": F(1)}, ">=", F(1, 2))]
    assert _lp.feasible_with(closed, half) and entered == [0]
    # An "==" row enters as its "<=" and ">=" rows.  At x = y = 0 only the
    # ">=" row of x + y == 1/2 is violated, and x enters as above; x + y == 2
    # also meets x + y <= 1, and no point is left.
    entered.clear()
    assert _lp.feasible_with(closed, [({"x": F(1), "y": F(1)}, "==", F(1, 2))])
    assert entered == [0]
    assert not _lp.feasible_with(closed, [({"x": F(1), "y": F(1)}, "==", F(2))])


def test_feasible_with_on_hand_systems():
    # x + y == 1 with x < 1/2, so y > 1/2
    base = _lp.feasible_base([({"x": F(1), "y": F(1)}, "==", F(1)),
                              ({"x": F(1)}, "<", F(1, 2))], ["x", "y"])
    assert base is not None
    assert not _lp.feasible_with(base, [({"y": F(1)}, "<=", F(1, 2))])
    assert _lp.feasible_with(base, [({"y": F(1)}, "<=", F(3, 4))])
    assert _lp.feasible_with(base, [({"y": F(1)}, "==", F(1))])
    # -y >= -1/2 is y <= 1/2, as a ">=" row
    assert not _lp.feasible_with(base, [({"y": F(-1)}, ">=", F(-1, 2))])
    # a strict appended row against the base's strict row: y < 1/2 + 1/10
    assert _lp.feasible_with(base, [({"y": F(1)}, "<", F(3, 5))])
    assert not _lp.feasible_with(base, [({"y": F(1)}, "<", F(1, 2))])
    # no strict row anywhere: t rises to 1 iff the rows are feasible
    closed = _lp.feasible_base([({"x": F(1), "y": F(1)}, "==", F(1))], ["x", "y"])
    assert closed is not None
    assert _lp.feasible_with(closed, [({"x": F(1)}, ">=", F(1))])
    assert not _lp.feasible_with(closed, [({"x": F(1)}, ">=", F(1)), ({"y": F(1)}, "==", F(1))])
    # an empty closure has no base
    assert _lp.feasible_base([({"x": F(1)}, ">=", F(2)), ({"x": F(1)}, "<=", F(1))], ["x"]) is None
    # a base re-priced for another objective is re-priced for t by the
    # next question, in place
    _lp.reprice(closed, {"y": F(1)})
    assert closed.cost is None
    assert _lp.feasible_with(closed, [({"x": F(1)}, ">=", F(1))])
    assert closed.cost is not None
    assert not _lp.feasible_with(closed, [({"x": F(1)}, ">=", F(1)), ({"y": F(1)}, "==", F(1))])
    with pytest.raises(InputError):
        _lp.feasible_with(closed, [({"z": F(1)}, "<=", F(1))])


def _count_phases(monkeypatch) -> list:
    phases = []
    phase = _lp._simplex_phase

    def spy(rows, cost, basis, det):
        phases.append(len(rows))
        return phase(rows, cost, basis, det)

    monkeypatch.setattr(_lp, "_simplex_phase", spy)
    return phases


def test_feasible_needs_no_artificial_for_nonnegative_upper_bounds(monkeypatch):
    phases = _count_phases(monkeypatch)
    rows = [({"x": F(1), "y": F(1)}, "<=", F(1)), ({"x": F(1)}, "<=", F(1, 2)),
            ({"x": F(-1)}, ">=", F(-3, 4))]  # -x >= -3/4 is x <= 3/4
    assert _lp.feasible(rows, ["x", "y"])
    assert phases == []  # the slack basis is feasible: no phase 1
    # x > 1/4 and y > 1/4: phase 2 alone raises the shared slack
    assert _lp.feasible(rows + [({"x": F(-1)}, "<", F(-1, 4)), ({"y": F(-1)}, "<", F(-1, 4))],
                        ["x", "y"])
    assert len(phases) == 2  # phase 1 for the two negative right-hand sides, then phase 2
    assert not _lp.feasible(rows + [({"x": F(-1)}, "<", F(-1, 2)),
                                    ({"y": F(-1)}, "<", F(-1, 2))], ["x", "y"])


def test_feasible_on_equality_rows_only():
    assert _lp.feasible([({"x": F(1), "y": F(1)}, "==", F(1)),
                         ({"x": F(1), "y": F(-1)}, "==", F(1, 3))], ["x", "y"])
    # a redundant copy of the first row leaves a zero row after phase 1
    assert _lp.feasible([({"x": F(1), "y": F(1)}, "==", F(1)),
                         ({"x": F(2), "y": F(2)}, "==", F(2)),
                         ({"x": F(1)}, "<", F(1, 2))], ["x", "y"])
    assert not _lp.feasible([({"x": F(1), "y": F(1)}, "==", F(1)),
                             ({"x": F(1), "y": F(1)}, "==", F(2))], ["x", "y"])
    # x - y == 2 forces x >= 2, against x + y == 1 and y >= 0
    assert not _lp.feasible([({"x": F(1), "y": F(1)}, "==", F(1)),
                             ({"x": F(1), "y": F(-1)}, "==", F(2))], ["x", "y"])


def test_feasible_strict_row_tight_at_the_only_point():
    rows = [({"x": F(1), "y": F(1)}, "==", F(1)), ({"x": F(1)}, "==", F(1, 2))]
    assert not _lp.feasible(rows + [({"y": F(1)}, "<", F(1, 2))], ["x", "y"])
    assert _lp.feasible_point(rows + [({"y": F(1)}, "<", F(1, 2))], ["x", "y"]) is None
    assert _lp.feasible(rows + [({"y": F(1)}, "<", F(3, 4))], ["x", "y"])
    assert _lp.feasible(rows, ["x", "y"])


def test_start_tableau_layout_and_the_prepared_tableaux():
    # Common denominator 6.  Columns: x, y, one slack per inequality, the
    # artificials, rhs.  Row 1 is negated to -x + y/2 <= 1/3, so its slack
    # can start basic; row 2's rhs -1/2 is negative, so it is negated and its
    # slack entry is -1; row 3 is "==" and has no slack.
    rows = [({"x": F(1), "y": F(-1, 2)}, ">=", F(-1, 3)),
            ({"x": F(1), "y": F(-1)}, "<=", F(-1, 2)),
            ({"x": F(1, 3), "y": F(1)}, "==", F(2))]
    start = _lp._append(_lp._empty(["x", "y"]), rows, "artificial")
    assert (start.columns, start.basis, start.det) == (4, [4, 5, 6], 1)
    assert start.rows == [[-6, 3, 1, 0, 1, 0, 0, 2],
                          [-6, 6, 0, -1, 0, 1, 0, 3],
                          [2, 6, 0, 0, 0, 0, 1, 12]]
    start = _lp._append(_lp._empty(["x", "y"]), rows, "slack")
    assert (start.columns, start.basis, start.det) == (4, [2, 4, 5], 1)
    assert start.rows == [[-6, 3, 1, 0, 0, 0, 2],
                          [-6, 6, 0, -1, 1, 0, 3],
                          [2, 6, 0, 0, 0, 1, 12]]
    # Phase 1 ends at the basis (s1, y, x), the point x = 9/8, y = 13/8 with
    # row 2 tight.  Those columns of the start tableau have determinant
    # 1 * (6 * 2 + 6 * 6) = 48, and D * B^-1 times the s2 column (0, -1, 0)
    # is (42, -2, 6).
    tableau = _lp.prepare(rows, ["x", "y"])
    assert (tableau.columns, tableau.basis, tableau.det) == (4, [2, 1, 0], 48)
    assert tableau.rows == [[0, 0, 48, 42, 186],
                            [0, 48, 0, -2, 78],
                            [48, 0, 0, 6, 54]]
    # The same basis plus the slack of t <= 1 (6t + s_t = 6 at scale 6),
    # with t the last variable, so the slacks move up one column, is
    # [[0, 0, 0, 48, 42, 0, 186], [0, 48, 0, 0, -2, 0, 78],
    #  [48, 0, 0, 0, 6, 0, 54], [0, 0, 288, 0, 0, 48, 288]] at D = 48.
    # Maximizing t then pivots t in for s_t: the pivot entry 288 is the next
    # D, so the other rows are multiplied by 288 / 48 = 6.  The kept cost
    # row of -t is D times its reduced costs, 1/6 at s_t, and D times the
    # maximum of t, 1.
    base = _lp.feasible_base(rows, ["x", "y"])
    assert list(base.var_index) == ["x", "y", _lp._SLACK]
    assert (base.columns, base.basis, base.det) == (6, [3, 1, 0, 2], 288)
    assert base.rows == [[0, 0, 0, 288, 252, 0, 1116],
                         [0, 288, 0, 0, -12, 0, 468],
                         [288, 0, 0, 0, 36, 0, 324],
                         [0, 0, 288, 0, 0, 48, 288]]
    assert base.cost == [0, 0, 0, 0, 0, 48, 288]
