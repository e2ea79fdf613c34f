"""Discounted distance: fixed points, bounds, and the sampled set-distance."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from apa_toolkit import _lp, distance
from apa_toolkit import constraints as C
from apa_toolkit.distance import (DistanceParams, compatible,
                                  state_distances, syntactic_distance,
                                  thorough_distance_lower_bound)
from apa_toolkit.errors import InputError
from apa_toolkit.generators import random_apa, random_pair
from apa_toolkit.model import Modality, make_apa, valuation
from apa_toolkit.oracle import GridSpec, enumerate_implementations
from apa_toolkit.refinement import refines
from tests.fixtures import (all_failing_pairs, deferral_pair, interval_pair,
                            may_gap_pair, refining_pair)

EPS = 1e-9


def test_params_validation():
    with pytest.raises(InputError):
        DistanceParams(lam=1.0)
    with pytest.raises(InputError):
        DistanceParams(lam=0.0)
    with pytest.raises(InputError):
        DistanceParams(epsilon=0.0)
    for max_iter in (0, -3):
        with pytest.raises(InputError, match="iteration cap"):
            DistanceParams(max_iter=max_iter)


def test_compatibility_predicate():
    n1, n2 = interval_pair()
    assert compatible(n1, n2, "s0", "t0")
    assert not compatible(n1, n2, "s1", "t2")   # differing valuations
    m1, m2 = may_gap_pair()
    assert not compatible(m1, m2, "s0", "t0")   # left Must b unmatched
    assert not compatible(m2, m1, "t0", "s0")   # right Must b not Must on left


def test_interval_distance_scales_with_the_discount():
    n1, n2 = interval_pair()
    for lam in (0.25, 0.5, 0.75):
        got = syntactic_distance(n1, n2, DistanceParams(lam=lam))
        # One step of the recursion: discounted transport gap between the
        # intervals ([3/10,7/10] vs [2/5,3/5] forces 1/10 across valuations).
        assert got == pytest.approx(lam * 0.1, abs=2 * EPS)
        assert syntactic_distance(n2, n1, DistanceParams(lam=lam)) <= EPS


def test_deferral_distance_hits_the_recursive_fixed_point():
    d1, d2 = deferral_pair()
    # d = lam*(d/2 + 1/2) since half the loop mass must cross valuations:
    # the worst implementation loops forever, paying 1/2 each step.
    assert syntactic_distance(d1, d2) == pytest.approx(1 / 3, abs=2 * EPS)
    assert syntactic_distance(d2, d1) <= EPS


def test_incompatible_pairs_pin_at_one():
    n1, n2 = interval_pair()
    table = state_distances(n1, n2)
    assert table.value("s1", "t2") == 1.0
    assert table.value("s0", "t1") == 1.0
    assert table.exact and table.converged
    m1, m2 = may_gap_pair()
    assert syntactic_distance(m1, m2) == 1.0


def test_table_values_stay_in_the_unit_interval():
    for a, b in all_failing_pairs().values():
        table = state_distances(a, b)
        assert all(0.0 <= v <= 1.0 for v in table.d.values())
        assert table.guaranteed_error <= EPS


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_self_distance_vanishes(seed):
    n = random_apa(random.Random(seed))
    assert syntactic_distance(n, n) <= EPS


def test_refinement_implies_zero_distance():
    n1, n2 = refining_pair()
    assert refines(n1, n2)
    assert syntactic_distance(n1, n2) <= EPS


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_triangle_inequality_on_random_triples(seed):
    rng = random.Random(seed)
    a, b, c = (random_apa(rng, prefix=p) for p in ("a", "b", "c"))
    dab = syntactic_distance(a, b)
    dbc = syntactic_distance(b, c)
    dac = syntactic_distance(a, c)
    assert dac <= dab + dbc + 3 * EPS


def test_iteration_cap_is_reported_not_raised():
    d1, d2 = deferral_pair()
    table = state_distances(d1, d2, DistanceParams(max_iter=2))
    assert not table.converged
    assert table.guaranteed_error > 0


def _grid_sampler(n):
    return enumerate_implementations(n, GridSpec(denominator=10))


def test_thorough_bound_stays_below_syntactic_on_fixtures():
    for name, (a, b) in all_failing_pairs().items():
        lower = thorough_distance_lower_bound(a, b, _grid_sampler)
        upper = syntactic_distance(a, b)
        assert lower <= upper + 1e-6, name


def test_thorough_bound_is_zero_between_equal_automata():
    n1, _ = interval_pair()
    assert thorough_distance_lower_bound(n1, n1, _grid_sampler) == 0.0


def test_thorough_bound_hits_one_on_disjoint_roots():
    m1, m2 = may_gap_pair()
    # Roots share valuations but no implementation of one satisfies the
    # other and every cross pairing starts with an unmatchable action.
    assert thorough_distance_lower_bound(m1, m2, _grid_sampler) == 1.0


# -- warm-started transport LPs -----------------------------------------------


def _interval_bounds(rng, support):
    """Per-state bounds on a grid of tenths with sum(lo) <= 1 <= sum(hi)."""
    while True:
        lows = [rng.randint(0, 10) for _ in support]
        highs = [rng.randint(lo, 10) for lo in lows]
        if sum(lows) <= 10 <= sum(highs):
            return {s: (F(lo, 10), F(hi, 10)) for s, lo, hi in zip(support, lows, highs)}


def _same_skeleton_pair(seed):
    """Two automata on one random skeleton (states, valuations, transitions
    with their supports and modalities) with independent interval bounds."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    vals = [[], ["p"], ["q"], ["p", "q"]]
    rng.shuffle(vals)
    skeleton = [(i, a, rng.sample(range(n), rng.randint(1, min(3, n))),
                 rng.choice([Modality.MUST, Modality.MAY]))
                for i in range(n) for a in ("a", "b") if rng.random() < 0.75]

    def draw(prefix):
        states = [f"{prefix}{i}" for i in range(n)]
        cons = {}
        for i, a, support, _ in skeleton:
            bounds = _interval_bounds(rng, [states[j] for j in support])
            cons[f"c{i}{a}"] = C.interval_constraint(
                bounds, zero=[s for s in states if s not in bounds])
        return make_apa(states=states, actions=["a", "b"], ap=["p", "q"],
                        labeling={s: [v] for s, v in zip(states, vals)},
                        transitions=[(states[i], a, f"c{i}{a}", m)
                                     for i, a, _, m in skeleton],
                        initial=[states[0]], constraints=cons)

    return draw("s"), draw("t")


def _distance_inputs():
    pairs = dict(all_failing_pairs())
    pairs["refining"] = refining_pair()
    for name, (a, b) in list(pairs.items()):
        pairs[f"{name}-reversed"] = (b, a)
    for seed in range(24):
        pairs[f"skeleton{seed}"] = _same_skeleton_pair(seed)
    return pairs


class _ColdLp:
    """`_lp` as `distance` sees it, with each re-pricing replaced by a cold
    `solve` of the whole transport LP."""

    def prepare(self, constraints, variables):
        return list(constraints), list(variables)

    def reprice(self, system, objective, maximize=True):
        return _lp.solve(objective, *system, maximize=maximize)


def test_warm_started_tables_equal_cold_solves(monkeypatch):
    inputs = _distance_inputs()
    params = [DistanceParams(lam=0.5), DistanceParams(lam=0.9)]
    warm = {(name, p): state_distances(a, b, p)
            for name, (a, b) in inputs.items() for p in params}
    monkeypatch.setattr(distance, "_lp", _ColdLp())
    for (name, p), table in warm.items():
        cold = state_distances(*inputs[name], p)
        assert (table.d, table.iterations, table.residual, table.exact) == \
            (cold.d, cold.iterations, cold.residual, cold.exact), (name, p.lam)


def _system_key(constraints, variables):
    return (tuple((tuple(sorted(coeffs.items(), key=str)), rel, rhs)
                  for coeffs, rel, rhs in constraints), tuple(variables))


class _CountingLp:
    """`_lp` as `distance` sees it, recording every phase-1 run by
    constraint system: each `prepare`, and each `solve`, which runs its own."""

    def __init__(self):
        self.phase1 = []
        self.reprices = 0

    def prepare(self, constraints, variables):
        self.phase1.append(_system_key(constraints, variables))
        return _lp.prepare(constraints, variables)

    def reprice(self, tableau, objective, maximize=True):
        self.reprices += 1
        return _lp.reprice(tableau, objective, maximize)

    def solve(self, objective, constraints, variables, maximize=True):
        self.phase1.append(_system_key(constraints, variables))
        return _lp.solve(objective, constraints, variables, maximize)


def test_phase_one_runs_once_per_transport_polytope(monkeypatch):
    pairs = {"deferral": deferral_pair(), "interval": interval_pair(),
             **{f"skeleton{seed}": _same_skeleton_pair(seed) for seed in range(6)}}
    sweeps = 0
    for name, (a, b) in pairs.items():
        first_sweep = _CountingLp()
        monkeypatch.setattr(distance, "_lp", first_sweep)
        state_distances(a, b, DistanceParams(max_iter=1))
        counted = _CountingLp()
        monkeypatch.setattr(distance, "_lp", counted)
        table = state_distances(a, b)
        sweeps += table.iterations
        assert len(counted.phase1) == len(set(counted.phase1)), name
        assert set(counted.phase1) == set(first_sweep.phase1), name
    # the deferral pair alone needs dozens of sweeps, each re-pricing
    assert sweeps > 2 * len(pairs)
