"""Constraint layer vs. naive evaluation, grid search, and vertex oracles."""
from __future__ import annotations

from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from apa_toolkit import _lp, constraints as C, refinement
from apa_toolkit.errors import InputError, ResourceLimitError
from tests.fixtures import all_failing_pairs, deferral_pair, interval_pair
from tests.oracles import basic_points, expand, grid_masses, naive_member, piece_accepts

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
# Pull-backs along state maps
# ---------------------------------------------------------------------------

SOURCES = ("a", "b", "c", "d")
_rows = st.lists(st.tuples(st.dictionaries(st.sampled_from(STATES), _coeff),
                           st.sampled_from(["<=", "<", "=="]), _rhs), max_size=4)
_maps = st.dictionaries(st.sampled_from(SOURCES), st.sampled_from(STATES))


def _pushforward(image: dict, mu: dict) -> dict:
    """The mass mu puts on each target of the partial map `image`."""
    out: dict = {}
    for s, m in mu.items():
        if s in image:
            out[image[s]] = out.get(image[s], F(0)) + m
    return out


@settings(max_examples=150, deadline=None)
@given(_rows, _maps, st.integers(min_value=0, max_value=100))
def test_pulled_back_rows_hold_at_mu_iff_the_rows_hold_at_its_pushforward(rows, image, pick):
    grid = list(grid_masses(SOURCES, 4))
    mu = grid[pick % len(grid)]
    nu = _pushforward(image, mu)
    pulled = C.pull_back(rows, C.preimages(image))
    assert len(pulled) == len(rows)
    for (coeffs, rel, rhs), (back, back_rel, back_rhs) in zip(rows, pulled):
        assert (back_rel, back_rhs) == (rel, rhs) and set(back) <= set(image)
        row = C.LinearAtom(tuple(coeffs.items()), rel, rhs)
        assert C.LinearAtom(tuple(back.items()), rel, rhs).evaluate(mu) == row.evaluate(nu)


@settings(max_examples=150, deadline=None)
@given(_expr_trees(), _maps, st.integers(min_value=0, max_value=100))
def test_substituted_constraint_holds_at_mu_iff_it_holds_at_the_pushforward(expr, image, pick):
    grid = list(grid_masses(SOURCES, 4))
    mu = grid[pick % len(grid)]
    assert (C.sat_member(C.substitute(expr, C.preimages(image)), mu)
            == C.sat_member(expr, _pushforward(image, mu)))


_mixed_rows = st.lists(st.tuples(
    st.dictionaries(st.sampled_from(STATES),
                    st.builds(F, st.integers(min_value=-4, max_value=4), st.sampled_from([1, 2, 3, 6]))),
    st.sampled_from(["<=", "<", "=="]), _rhs), max_size=4)


@settings(max_examples=150, deadline=None)
@given(_mixed_rows, _maps)
def test_compiled_rows_pull_back_to_the_compiled_pulled_back_rows(rows, image):
    """Pulled back, a compiled row is the pulled-back row compiled: over its
    least denominator again when the map drops a coefficient, so equal rows
    stay equal and enter the LP at the same scale."""
    compiled = [_lp.compile_row(*row) for row in rows]
    groups = C.preimages(image)
    assert C.pull_back(compiled, groups) == \
        [_lp.compile_row(*row) for row in C.pull_back(rows, groups)]


def test_named_rows_decide_rows_that_name_no_state():
    row = ({"s": F(1)}, "<=", F(1, 2))
    assert C.named_rows([({}, "<", F(1)), row, ({}, "==", F(0))]) == [row]
    assert C.named_rows([row, ({}, "<", F(0))]) is None
    assert C.named_rows([({}, "<=", F(-1)), row]) is None
    assert C.named_rows([({}, "<=", F(0))]) == []


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


def _left_pieces_union(phi, states):
    """The union of the supports of the map search's left pieces of phi."""
    pieces = refinement._left_pieces(phi, states)
    return tuple(s for s in states if any(s in support for support, _ in pieces))


@settings(max_examples=200, deadline=None)
@given(_support_trees())
def test_supportable_states_agree_with_strict_support_lps(expr):
    assert C.supportable_states(expr, STATES) == _supportable_by_lp(expr, STATES)
    assert _left_pieces_union(expr, STATES) == C.supportable_states(expr, STATES)


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


def _support_by_state(piece, states):
    """The support of a piece by its definition: one strict LP per state."""
    return tuple(s for s in states
                 if C.piece_point(piece, states, [({s: -1}, "<", 0)]) is not None)


@settings(max_examples=200, deadline=None)
@given(_support_trees())
def test_piece_support_agrees_with_the_per_state_probes(expr):
    for piece in C.dnf_cover(expr):
        point = C.piece_point(piece, STATES)
        assert C.piece_feasible(piece, STATES) == (point is not None)
        prepared = C.prepare_piece(piece, STATES)
        assert (prepared is None) == (point is None)
        if point is None:
            continue
        assert prepared[0] == _support_by_state(piece, STATES)


@st.composite
def _pinned_pieces(draw):
    """A piece of a `_support_trees` constraint with up to two states pinned
    to 0 and rows, nonstrict and strict, that name only the pinned states."""
    pieces = C.dnf_cover(draw(_support_trees()))
    rows = list(draw(st.sampled_from(pieces)).rows) if pieces else []
    def compiled(s, rel, rhs):
        coeffs, rel, rhs = _lp.compile_row({s: draw(_support_coeff)}, rel, rhs)
        return tuple(coeffs.items()), rel, rhs
    for s in draw(st.lists(st.sampled_from(STATES), unique=True, max_size=2)):
        rows.append(compiled(s, "==", F(0)))
        for rel in draw(st.lists(st.sampled_from(["<=", "<", "=="]), max_size=2)):
            rows.append(compiled(s, rel, draw(_support_rhs)))
    return C.Piece(tuple(draw(st.permutations(rows))))


@st.composite
def _rows_over(draw, states):
    """Up to three nonstrict and two strict rows over `states`."""
    def coeffs():
        return {s: draw(_support_coeff) for s in draw(st.sets(st.sampled_from(states), min_size=1))}
    nonstrict = [(coeffs(), draw(st.sampled_from(["<=", ">=", "=="])), draw(_support_rhs))
                 for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    strict = [(coeffs(), draw(_support_rhs))
              for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    return nonstrict, strict


@settings(max_examples=200, deadline=None)
@given(_pinned_pieces(), st.data())
def test_prepared_piece_base_agrees_with_piece_feasible(piece, data):
    """Prepared once (`prepare_piece`), a piece answers every question about
    rows over its support as `piece_feasible` does, the base left re-priced
    for the support."""
    prepared = C.prepare_piece(piece, STATES)
    assert (prepared is None) == (C.piece_point(piece, STATES) is None)
    if prepared is None:
        return
    dom, base = prepared
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        nonstrict, strict = data.draw(_rows_over(dom))
        rows = nonstrict + [(coeffs, "<", rhs) for coeffs, rhs in strict]
        assert _lp.feasible_with(base, rows) == C.piece_feasible(piece, STATES, rows)


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


def _piece(rows):
    """The one piece of the conjunction of the rows, rows that name no state
    included, whose closure `vertices` enumerates."""
    [piece] = C.dnf_cover(C.and_(*(C.atom(coeffs, rel, rhs) for coeffs, rel, rhs in rows)))
    return piece


@settings(max_examples=100, deadline=None)
@given(_convex_rows())
def test_vertices_match_square_subsystem_enumeration(rows):
    got = {_point_key(v.mass) for v in C.vertices(_piece(rows), STATES)}
    oracle_rows = list(rows) + [({s: F(1) for s in STATES}, "==", F(1))]
    want = {_point_key(p) for p in basic_points(oracle_rows, STATES)}
    assert got == want


BOX_STATES = ("b0", "b1", "b2", "b3")
_box_end = st.integers(min_value=-1, max_value=5).map(lambda k: F(k, 4))


@st.composite
def _box_rows(draw):
    """Rows that each name at most one state: up to six bounds of every
    relation, scaled by a coefficient of either sign, on a few of the states
    (so some states get no row, and some two bounds that may meet or cross),
    and now and then a row that names no state."""
    rows = [({s: (c := draw(_support_coeff))}, draw(st.sampled_from(["<=", ">=", "=="])),
             c * draw(_box_end))
            for s in draw(st.lists(st.sampled_from(BOX_STATES[:3]), max_size=6))]
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        rows.append(({}, draw(st.sampled_from(["<=", ">=", "=="])), draw(_box_end)))
    return rows


@settings(max_examples=200, deadline=None)
@given(_box_rows())
@example([])
@example([({"b0": F(1)}, "==", F(1, 4)), ({"b1": F(2)}, ">=", F(1, 2)),
          ({"b1": F(1)}, "<=", F(1, 4))])  # zero width
@example([({"b0": F(1)}, ">=", F(3, 4)), ({"b1": F(-1)}, "<=", F(-1, 2))])  # lows past 1
@example([({"b2": F(1)}, ">=", F(1, 2)), ({"b2": F(3)}, "<=", F(3, 4))])  # crossed bounds
def test_box_vertices_equal_double_description(rows):
    """On a box cut by the simplex, `vertices` takes the closed form, and its
    list equals double description's, sorted and converted as before, and
    the square-subsystem oracle's vertex set."""
    piece = _piece(rows)
    assert C._box_vertices(piece, BOX_STATES) is not None
    got = C.vertices(piece, BOX_STATES)
    by_dd = sorted((C.Distribution.of(dict(zip(BOX_STATES, v)))
                    for v in C._double_description(piece, BOX_STATES)),
                   key=lambda mu: tuple(mu[s] for s in BOX_STATES))
    assert got == by_dd
    oracle_rows = list(rows) + [({s: F(1) for s in BOX_STATES}, "==", F(1))]
    assert {tuple(mu[s] for s in BOX_STATES) for mu in got} == \
        {tuple(p[s] for s in BOX_STATES) for p in basic_points(oracle_rows, BOX_STATES)}


def test_vertices_of_interval_pieces_take_the_closed_form(monkeypatch):
    """Every piece of an interval constraint is a box: no double description."""
    monkeypatch.setattr(C, "_double_description", None)
    phi = C.interval_constraint({"s0": (F(1, 4), F(1, 2)), "s1": (0, F(3, 4))}, zero=["s2"])
    (piece,) = C.dnf_cover(phi)
    assert [mu.mass for mu in C.vertices(piece, STATES)] == \
        [{"s0": F(1, 4), "s1": F(3, 4)}, {"s0": F(1, 2), "s1": F(1, 2)}]


def test_vertices_dimension_cap(monkeypatch):
    """The cap is checked before either enumeration."""
    monkeypatch.setattr(C, "_box_vertices", None)
    monkeypatch.setattr(C, "_double_description", None)
    big = [f"x{i}" for i in range(13)]
    for rows in ([], [({"x0": F(1)}, "<=", F(1, 2))], [({"x0": F(1), "x1": F(1)}, "<=", F(1, 2))]):
        with pytest.raises(ResourceLimitError):
            C.vertices(_piece(rows), big, dim_cap=12)


# ---------------------------------------------------------------------------
# Derived constraint nodes: expansion vs. direct membership
# ---------------------------------------------------------------------------


def _derived_nodes():
    from apa_toolkit.difference import over_diff, under_diff
    diffs = [diff for n1, n2 in (interval_pair(), deferral_pair())
             for diff in (over_diff(n1, n2), under_diff(n1, n2, 2))]
    diffs += [under_diff(n1, n2, 1) for n1, n2 in all_failing_pairs().values()]
    return [(expr, diff.states) for diff in diffs for _, expr in diff.constraints
            if isinstance(expr, (C.BotLift, C.PhiB))]


# The derived nodes of `_derived_nodes`, one parametrized slot each.
DERIVED_NODES = 14


def test_derived_nodes_present_in_difference_constraints():
    assert len(_derived_nodes()) == DERIVED_NODES


@pytest.mark.parametrize("idx", range(DERIVED_NODES))
def test_expansion_agrees_with_direct_membership_on_cells(idx):
    """The clause evaluator and the cover that the LPs use agree on every
    grid distribution over all the node's cells."""
    expr, _ = _derived_nodes()[idx]
    pieces = C.dnf_cover(expr)
    checked = 0
    for mass in grid_masses(list(expr.cells), 4):
        direct = C.sat_member(expr, mass)
        via_cover = any(piece_accepts(piece, mass) for piece in pieces)
        assert direct == via_cover, (mass, direct, via_cover)
        checked += 1
    assert checked > 0


LEFT = ("s0", "s1", "s2")    # no cell below has left state s2
RIGHT = ("t0", "t1", "t2")   # ... or right state t2


@st.composite
def _plain_trees(draw, states, depth=3):
    """And/Or/Not trees over `states` with atoms of all five relations, some
    naming only states that no cell maps to, and connectives that fold
    constants (`and_`, `or_`) or keep them (`And`, `Or`)."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            return draw(st.sampled_from([C.TRUE, C.FALSE]))
        named = draw(st.sets(st.sampled_from(states), max_size=2))
        return C.atom({s: draw(_coeff) for s in named},
                      draw(st.sampled_from(C.RELATIONS)), draw(_rhs))
    op = draw(st.sampled_from(["and", "or", "not", "And", "Or"]))
    if op == "not":
        return C.not_(draw(_plain_trees(states, depth=depth - 1)))
    items = draw(st.lists(_plain_trees(states, depth=depth - 1), min_size=1, max_size=3))
    return {"and": C.and_, "or": C.or_, "And": lambda *i: C.And(i),
            "Or": lambda *i: C.Or(i)}[op](*items)


@st.composite
def _random_derived(draw):
    """A bot-lift or phi-B node (of any level) with random plain trees, over
    a few product cells."""
    from apa_toolkit.difference import ProductState
    cells = draw(st.lists(st.builds(ProductState, st.sampled_from(LEFT[:2]),
                                    st.sampled_from((None, *RIGHT[:2])),
                                    st.sampled_from((None, "a", "b")),
                                    st.sampled_from((None, 1, 2))),
                          unique=True, min_size=0, max_size=5))
    phi1 = draw(_plain_trees(LEFT))
    if draw(st.booleans()):
        return C.make_bot_lift(phi1, LEFT, cells)
    succ = {s: draw(st.sampled_from((None, *RIGHT[:2]))) for s in LEFT}
    b_map = {(s, t): draw(st.sets(st.sampled_from(("a", "b"))))
             for s in LEFT for t in RIGHT if draw(st.booleans())}
    return C.make_phi_B(phi1, draw(_plain_trees(RIGHT)), LEFT, RIGHT, succ, b_map, cells,
                        k=draw(st.sampled_from((None, 1, 2, 3))))


def _cover_or_cap(expr, cap):
    """The cover of `expr` as lists of LP rows, or "cap" if it exceeds `cap` branches."""
    C.dnf_cover.cache_clear()
    with patch.object(C, "DNF_BRANCH_CAP", cap):
        try:
            return [piece.lp_rows() for piece in C.dnf_cover(expr)]
        except ResourceLimitError:
            return "cap"


def _unreached_in_or(negated: bool):
    """phi-B whose phi1 is an Or holding an atom on s2, which no cell maps
    to: its pull-back is TRUE, or under Not(...) the complement of FALSE,
    which `not_` leaves unfolded."""
    from apa_toolkit.difference import ProductState
    cells = (ProductState("s0", None, None), ProductState("s0", "t0", "a"))
    unreached = C.atom({"s2": 1}, ">=", F(1, 2) if negated else 0)
    phi1 = C.or_(C.not_(unreached) if negated else unreached, C.atom({"s0": 2}, "<", 1))
    return C.make_phi_B(phi1, C.atom({"t0": 1}, "==", 1), LEFT, RIGHT, {"s0": "t0"},
                        {("s0", "t0"): ("a",)}, cells)


@settings(max_examples=300, deadline=None)
@given(_random_derived(), st.sampled_from([1, 2, 3, 4, 6, 9, 4096]))
@example(_unreached_in_or(False), 4096)
@example(_unreached_in_or(True), 4096)
def test_derived_covers_equal_the_covers_of_their_expansions(node, cap):
    """A derived node's cover and complement cover, built straight from the
    node, are those of the plain constraint over cells that it stands for
    (`tests.oracles.expand`): the same pieces in the same order, the same
    compiled rows, and the same branch count at which the cap is hit."""
    expanded = expand(node)
    assert _cover_or_cap(node, cap) == _cover_or_cap(expanded, cap)
    assert _cover_or_cap(C.negate(node), cap) == _cover_or_cap(C.negate(expanded), cap)


def test_piece_support_of_derived_pieces():
    checked = 0
    for expr, states in _derived_nodes():
        for piece in C.dnf_cover(expr):
            point = C.piece_point(piece, states)
            prepared = C.prepare_piece(piece, states)
            assert (prepared is None) == (point is None)
            if point is None:
                continue
            assert prepared[0] == _support_by_state(piece, states)
            checked += 1
        assert _left_pieces_union(expr, states) == C.supportable_states(expr, states)
    assert checked


def test_bot_lift_adds_up_every_bot_slice_cell_of_a_left_state():
    """Two bot-slice cells of s0, at level None and at level 1, both count
    for the marginal of s0: membership, the cover and the support agree."""
    from apa_toolkit.difference import ProductState
    cells = (ProductState("s0", None, None), ProductState("s0", None, None, 1),
             ProductState("s0", "t0", None))
    lift = C.make_bot_lift(C.atom({"s0": 1}, "==", 1), ("s0", "s1"), cells)
    point = {cells[0]: F(1, 2), cells[1]: F(1, 2)}
    assert C.sat_member(lift, point)
    assert any(piece_accepts(piece, point) for piece in C.dnf_cover(lift))
    assert C.supportable_states(lift, cells) == cells[:2]
    assert not C.sat_member(lift, {cells[1]: F(1, 2), cells[2]: F(1, 2)})
    for mass in grid_masses(cells, 4):
        assert C.sat_member(lift, mass) == any(piece_accepts(piece, mass)
                                               for piece in C.dnf_cover(lift))


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
                 lambda: C.piece_feasible(piece, states),
                 lambda: C.prepare_piece(piece, states),
                 lambda: C.piece_max(piece, states, {"s0": F(1)}),
                 lambda: C.vertices(piece, states)):
        with pytest.raises(InputError, match="'zz'"):
            call()
