"""Constraint layer vs. naive evaluation, grid search, and vertex oracles."""
from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from apa_toolkit import constraints as C
from apa_toolkit.errors import InputError, ResourceLimitError
from tests.fixtures import deferral_pair, interval_pair
from tests.oracles import basic_points, grid_masses, naive_member, piece_accepts

STATES = ("s0", "s1", "s2")


# ---------------------------------------------------------------------------
# Scalars and distributions
# ---------------------------------------------------------------------------


def test_as_fraction_accepts_exact_forms_and_rejects_floats():
    assert C.as_fraction("3/10") == F(3, 10)
    assert C.as_fraction(2) == F(2)
    assert C.as_fraction(F(1, 3)) == F(1, 3)
    with pytest.raises(InputError):
        C.as_fraction(0.3)


def test_distribution_normal_form():
    d = C.Distribution.of({"b": F(1, 2), "a": F(1, 2), "c": F(0)})
    assert d.items == (("a", F(1, 2)), ("b", F(1, 2)))  # sorted, zeros dropped
    assert d.support() == ("a", "b")
    assert d["a"] == F(1, 2) and d["c"] == 0
    assert sum(d.mass.values()) == 1


def test_pushforward_and_support_gap():
    d = C.Distribution.of({"a": F(1, 2), "b": F(1, 2)})
    img = C.pushforward(d, {"a": "x", "b": "x"}.get)
    assert img == C.Distribution.of({"x": F(1)})
    gap = C.pushforward(d, {"a": "x"}.get)
    assert isinstance(gap, C.SupportGap) and gap.state == "b"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def test_connective_simplifications():
    a = C.atom({"s0": 1}, "<=", F(1, 2))
    assert C.and_() is C.TRUE
    assert C.or_() is C.FALSE
    assert C.and_(C.TRUE, a) is a
    assert C.or_(C.FALSE, a) is a
    assert C.and_(C.FALSE, a) is C.FALSE
    assert C.or_(C.TRUE, a) is C.TRUE


def test_interval_constraint_membership():
    phi = C.interval_constraint({"s1": (F(3, 10), F(7, 10)),
                                 "s2": (F(3, 10), F(7, 10))}, zero=["s0"])
    assert C.sat_member(phi, {"s1": F(1, 2), "s2": F(1, 2)})
    assert C.sat_member(phi, {"s1": F(3, 10), "s2": F(7, 10)})
    assert not C.sat_member(phi, {"s1": F(1, 5), "s2": F(4, 5)})
    assert not C.sat_member(phi, {"s0": F(1, 10), "s1": F(2, 5), "s2": F(1, 2)})


def test_point_constraint_membership():
    phi = C.point_constraint({"s1": F(1, 3), "s2": F(2, 3), "s0": F(0)})
    assert C.sat_member(phi, {"s1": F(1, 3), "s2": F(2, 3)})
    assert not C.sat_member(phi, {"s1": F(1, 3), "s2": F(1, 3), "s0": F(1, 3)})


# ---------------------------------------------------------------------------
# Membership vs. a naive recursive evaluator
# ---------------------------------------------------------------------------

_coeff = st.integers(min_value=-2, max_value=2).map(F)
_rhs = st.integers(min_value=-2, max_value=4).map(lambda k: F(k, 4))


def _atoms(draw):
    coeffs = {s: draw(_coeff) for s in draw(st.sets(st.sampled_from(STATES), min_size=1))}
    rel = draw(st.sampled_from(["<=", "<", "==", ">=", ">"]))
    return C.atom(coeffs, rel, draw(_rhs))


@st.composite
def _expr_trees(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(min_value=0, max_value=4))
        if kind == 0:
            return C.TRUE
        if kind == 1:
            return C.FALSE
        return _atoms(draw)
    op = draw(st.sampled_from(["and", "or", "not"]))
    if op == "not":
        return C.not_(draw(_expr_trees(depth=depth - 1)))
    items = draw(st.lists(_expr_trees(depth=depth - 1), min_size=1, max_size=3))
    return (C.and_ if op == "and" else C.or_)(*items)


@settings(max_examples=150, deadline=None)
@given(_expr_trees(), st.integers(min_value=0, max_value=100))
def test_membership_matches_naive_evaluator(expr, pick):
    grid = list(grid_masses(STATES, 4))
    mass = grid[pick % len(grid)]
    assert C.sat_member(expr, mass) == naive_member(expr, mass)


@settings(max_examples=100, deadline=None)
@given(_expr_trees(), st.integers(min_value=0, max_value=100))
def test_negation_complements_membership(expr, pick):
    grid = list(grid_masses(STATES, 4))
    mass = grid[pick % len(grid)]
    assert C.sat_member(C.negate(expr), mass) == (not C.sat_member(expr, mass))


@settings(max_examples=100, deadline=None)
@given(_expr_trees(), st.integers(min_value=0, max_value=100))
def test_dnf_cover_is_an_exact_cover(expr, pick):
    grid = list(grid_masses(STATES, 4))
    mass = grid[pick % len(grid)]
    pieces = C.dnf_cover(expr)
    assert C.sat_member(expr, mass) == any(piece_accepts(p, mass) for p in pieces)


def test_dnf_cover_branch_cap():
    blowup = C.and_(*[
        C.or_(C.atom({f"x{i}": 1}, "<=", F(1, 2)), C.atom({f"x{i}": 1}, ">=", F(1, 4)))
        for i in range(13)])
    with pytest.raises(ResourceLimitError):
        C.dnf_cover(blowup)


# ---------------------------------------------------------------------------
# Satisfiability, support, pieces
# ---------------------------------------------------------------------------


def test_sat_nonempty_finds_points_and_detects_emptiness():
    mu = C.sat_nonempty(C.TRUE, STATES)
    assert mu is not None and sum(mu.mass.values()) == 1
    assert C.sat_nonempty(C.FALSE, STATES) is None
    contradiction = C.and_(C.atom({"s0": 1}, ">=", F(1, 2)), C.atom({"s0": 1}, "<", F(1, 2)))
    assert C.sat_nonempty(contradiction, STATES) is None
    strict = C.atom({"s0": 1}, ">", F(0))
    mu = C.sat_nonempty(strict, STATES)
    assert mu is not None and mu["s0"] > 0


def test_supportable_states_on_fixture_constraints():
    phi = C.interval_constraint({"s1": (F(3, 10), F(7, 10)),
                                 "s2": (F(3, 10), F(7, 10))}, zero=["s0"])
    assert C.supportable_states(phi, STATES) == ("s1", "s2")
    assert C.supportable_states(C.TRUE, STATES) == STATES
    assert C.supportable_states(C.FALSE, STATES) == ()
    # A state is never supportable when every satisfying mass avoids it
    # strictly, even if its closure touches it.
    phi = C.atom({"s0": 1}, "<", F(0) + 0)  # mu(s0) < 0 is unsatisfiable
    assert C.supportable_states(phi, STATES) == ()


@settings(max_examples=80, deadline=None)
@given(_expr_trees())
def test_grid_support_is_sound_for_supportable_states(expr):
    reported = set(C.supportable_states(expr, STATES))
    for mass in grid_masses(STATES, 4):
        if C.sat_member(expr, mass):
            for s, m in mass.items():
                if m > 0:
                    assert s in reported


@settings(max_examples=80, deadline=None)
@given(_expr_trees())
def test_piece_points_land_inside_their_piece(expr):
    for piece in C.dnf_cover(expr):
        point = C.piece_point(piece, STATES)
        if point is not None:
            assert piece_accepts(piece, point)
            assert sum(point.values()) == 1
            best = C.piece_max(piece, STATES, {"s0": F(1)})
            assert best is not None and best[0] >= point.get("s0", F(0))


_support_coeff = st.sampled_from([-3, -2, -1, 1, 2, 3]).map(F)
_support_rhs = st.integers(min_value=-2, max_value=7).map(lambda k: F(k, 6))


@st.composite
def _support_atoms(draw):
    """One-state rows (any relation, coefficients other than +-1), constant
    rows, and rows over two or three states."""
    kind = draw(st.sampled_from(["one", "one", "one", "constant", "multi"]))
    rel = draw(st.sampled_from(["<=", "<", "==", ">=", ">"]))
    rhs = draw(_support_rhs)
    if kind == "constant":
        return C.atom({}, rel, rhs)
    if kind == "one":
        return C.atom({draw(st.sampled_from(STATES)): draw(_support_coeff)}, rel, rhs)
    states = draw(st.sets(st.sampled_from(STATES), min_size=2))
    return C.atom({s: draw(_support_coeff) for s in states}, rel, rhs)


@st.composite
def _support_trees(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_support_atoms())
    op = draw(st.sampled_from(["and", "and", "or", "not"]))
    if op == "not":
        return C.not_(draw(_support_trees(depth=depth - 1)))
    items = draw(st.lists(_support_trees(depth=depth - 1), min_size=1, max_size=3))
    return (C.and_ if op == "and" else C.or_)(*items)


def _supportable_by_lp(phi, states):
    return tuple(s for s in states
                 if C.sat_nonempty(C.and_(phi, C.atom({s: 1}, ">", 0)), states) is not None)


@settings(max_examples=200, deadline=None)
@given(_support_trees())
def test_supportable_states_agree_with_strict_support_lps(expr):
    assert C.supportable_states(expr, STATES) == _supportable_by_lp(expr, STATES)


@pytest.mark.parametrize("phi, states, expected", [
    # 1 lies at the open upper end of [0, 1/2) + [0, 1/2)
    (C.and_(C.atom({"s0": 1}, "<", F(1, 2)), C.atom({"s1": 1}, "<", F(1, 2))),
     ("s0", "s1"), ()),
    # ... and at the closed one of [0, 1/2] + [0, 1/2]
    (C.and_(C.atom({"s0": 1}, "<=", F(1, 2)), C.atom({"s1": 1}, "<=", F(1, 2))),
     ("s0", "s1"), ("s0", "s1")),
    # point intervals [b, b]
    (C.interval_constraint({"s0": (F(1, 3), F(1, 3)), "s1": (F(2, 3), F(2, 3))}),
     ("s0", "s1"), ("s0", "s1")),
    (C.interval_constraint({"s0": (F(1, 3), F(1, 3))}), ("s0", "s1", "s2"),
     ("s0", "s1", "s2")),
    (C.interval_constraint({"s0": (0, 0)}), ("s0", "s1"), ("s1",)),
    (C.interval_constraint({"s0": (F(1, 2), F(1, 2)), "s1": (F(1, 3), F(1, 3))}),
     ("s0", "s1"), ()),
    # >= rows with negative coefficients: -2 mu(s0) >= -1/2 is mu(s0) <= 1/4
    (C.atom({"s0": -2}, ">=", F(-1, 2)), ("s0", "s1"), ("s0", "s1")),
    (C.atom({"s0": -2}, ">=", 0), ("s0", "s1"), ("s1",)),
    (C.and_(C.atom({"s0": -1}, ">=", F(-1, 4)), C.atom({"s1": -1}, ">=", F(-1, 4))),
     ("s0", "s1"), ()),
    # mu(s1) > 1/2 leaves mu(s0) < 1/2, still positive
    (C.and_(C.atom({"s0": 2}, ">=", 0), C.atom({"s1": -3}, "<", F(-3, 2))),
     ("s0", "s1"), ("s0", "s1")),
    # of an open and a closed end at the same bound, the open one holds
    (C.and_(C.atom({"s0": 1}, ">", F(1, 2)), C.atom({"s0": 1}, ">=", F(1, 2)),
            C.atom({"s1": 1}, ">=", F(1, 2))), ("s0", "s1"), ()),
    (C.and_(C.atom({"s0": 1}, "<", F(1, 2)), C.atom({"s0": 1}, "<=", F(1, 2)),
            C.atom({"s1": 1}, "<=", F(1, 2))), ("s0", "s1"), ()),
    # a false constant row empties the piece
    (C.and_(C.atom({}, ">", 0), C.atom({"s0": 1}, "<=", F(1, 2))), ("s0", "s1"), ()),
])
def test_supportable_states_of_interval_pieces(phi, states, expected):
    assert C.supportable_states(phi, states) == expected
    assert _supportable_by_lp(phi, states) == expected
    assert (C.sat_nonempty(phi, states) is None) == (expected == ())


# ---------------------------------------------------------------------------
# Vertex enumeration vs. the square-subsystem oracle
# ---------------------------------------------------------------------------


def _point_key(mass):
    return tuple(F(mass.get(s, 0)) for s in STATES)


@st.composite
def _convex_rows(draw, states=STATES):
    n_rows = draw(st.integers(min_value=0, max_value=3))
    rows = []
    for _ in range(n_rows):
        coeffs = {s: draw(_coeff) for s in draw(st.sets(st.sampled_from(states), min_size=1))}
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        rows.append((coeffs, rel, draw(_rhs)))
    return rows


@settings(max_examples=100, deadline=None)
@given(_convex_rows())
def test_vertices_match_square_subsystem_enumeration(rows):
    poly = C.Polytope.make(STATES, rows)
    got = {_point_key(v.mass) for v in C.vertices(poly)}
    oracle_rows = list(rows) + [({s: F(1) for s in STATES}, "==", F(1))]
    want = {_point_key(p) for p in basic_points(oracle_rows, STATES)}
    assert got == want


def test_vertices_dimension_cap():
    big = [f"x{i}" for i in range(13)]
    with pytest.raises(ResourceLimitError):
        C.vertices(C.Polytope.make(big, []), dim_cap=12)


# ---------------------------------------------------------------------------
# Derived constraint nodes: expansion vs. direct membership
# ---------------------------------------------------------------------------


def _derived_nodes():
    from apa_toolkit.difference import over_diff, under_diff
    out = []
    for n1, n2 in (interval_pair(), deferral_pair()):
        for diff in (over_diff(n1, n2), under_diff(n1, n2, 2)):
            for _, expr in diff.constraints:
                if isinstance(expr, (C.BotLift, C.PhiB)):
                    out.append((expr, diff.states))
    return out


def test_derived_nodes_present_in_difference_constraints():
    assert len(_derived_nodes()) >= 4


@pytest.mark.parametrize("idx", range(8))
def test_expansion_agrees_with_direct_membership_on_cells(idx):
    nodes = _derived_nodes()
    if idx >= len(nodes):
        pytest.skip("fewer derived nodes than parametrized slots")
    expr, states = nodes[idx]
    expanded = C.expand(expr)
    cells = list(expr.cells)[:4]
    agree = checked = 0
    for mass in grid_masses(cells, 3):
        direct = C.sat_member(expr, mass)
        via_expansion = C.sat_member(expanded, mass)
        assert direct == via_expansion, (mass, direct, via_expansion)
        checked += 1
        agree += direct
    assert checked > 0


def test_membership_rejects_mass_outside_the_cells():
    expr, states = _derived_nodes()[0]
    outside = [s for s in states if s not in expr.cells]
    if not outside:
        pytest.skip("every state is a cell here")
    cell = expr.cells[0]
    assert not C.sat_member(expr, {outside[0]: F(1, 2), cell: F(1, 2)})


def test_state_outside_the_given_states_is_an_input_error():
    phi = C.atom({"zz": 1}, "<=", F(1, 2))
    piece = C.dnf_cover(phi)[0]
    states = ("s0", "s1")
    for call in (lambda: C.supportable_states(phi, states),
                 lambda: C.sat_nonempty(phi, states),
                 lambda: C.piece_point(piece, states),
                 lambda: C.piece_max(piece, states, {"s0": F(1)})):
        with pytest.raises(InputError, match="'zz'"):
            call()
