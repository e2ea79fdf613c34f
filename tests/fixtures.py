"""Shared model fixtures for the test suite.

Each helper returns freshly built automata so tests can't leak mutations
(everything is frozen anyway, but identity-based caches stay honest).
"""
from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

from apa_toolkit import constraints as C
from apa_toolkit.difference import under_diff
from apa_toolkit.errors import InputError, PreconditionError
from apa_toolkit.generators import _random_interval_family, random_pair
from apa_toolkit.model import APA, Modality, make_apa, make_pa


def interval_pair() -> tuple[APA, APA]:
    """Two single-transition chains whose branching intervals overlap but
    neither contains the other: [3/10, 7/10] vs [2/5, 3/5].

    The wide side does not refine the narrow side (witness: put 3/10 on the
    p-leaf), and with discount 1/2 the behavioural distance is exactly
    1/2 * 1/10 = 0.05.
    """
    n1 = make_apa(
        states=["s0", "s1", "s2"], actions=["a"], ap=["p", "q"],
        labeling={"s0": [[]], "s1": [["p"]], "s2": [["q"]]},
        transitions=[("s0", "a", "phi1", Modality.MUST)], initial=["s0"],
        constraints={"phi1": C.interval_constraint(
            {"s1": ("3/10", "7/10"), "s2": ("3/10", "7/10")}, zero=["s0"])})
    n2 = make_apa(
        states=["t0", "t1", "t2"], actions=["a"], ap=["p", "q"],
        labeling={"t0": [[]], "t1": [["p"]], "t2": [["q"]]},
        transitions=[("t0", "a", "phi2", Modality.MUST)], initial=["t0"],
        constraints={"phi2": C.interval_constraint(
            {"t1": ("2/5", "3/5"), "t2": ("2/5", "3/5")}, zero=["t0"])})
    return n1, n2


def deferral_pair() -> tuple[APA, APA]:
    """Self-loop pair where the refinement failure can be postponed: the left
    automaton allows any split between looping and exiting, the right caps
    the loop mass at 1/2.

    Implementations may loop with mass > 1/2 for a while before exiting, so
    the under-approximating differences at growing deferral depth form a
    strictly informative chain on this pair.
    """
    n1 = make_apa(
        states=["u0", "u1"], actions=["a"], ap=["p"],
        labeling={"u0": [[]], "u1": [["p"]]},
        transitions=[("u0", "a", "f1", Modality.MUST)], initial=["u0"],
        constraints={"f1": C.TRUE})
    n2 = make_apa(
        states=["v0", "v1"], actions=["a"], ap=["p"],
        labeling={"v0": [[]], "v1": [["p"]]},
        transitions=[("v0", "a", "f2", Modality.MUST)], initial=["v0"],
        constraints={"f2": C.atom({"v0": 1}, "<=", F(1, 2))})
    return n1, n2


def may_gap_pair() -> tuple[APA, APA]:
    """Left has a Must b-transition the right only offers as May-absent:
    breaks via the missing-modality bucket rather than a constraint gap."""
    n1 = make_apa(
        states=["s0", "s1"], actions=["a", "b"], ap=["p"],
        labeling={"s0": [[]], "s1": [["p"]]},
        transitions=[("s0", "a", "g1", Modality.MAY),
                     ("s0", "b", "g1", Modality.MUST)],
        initial=["s0"],
        constraints={"g1": C.atom({"s1": 1}, "==", 1)})
    n2 = make_apa(
        states=["t0", "t1"], actions=["a", "b"], ap=["p"],
        labeling={"t0": [[]], "t1": [["p"]]},
        transitions=[("t0", "a", "g2", Modality.MUST)],
        initial=["t0"],
        constraints={"g2": C.atom({"t1": 1}, "==", 1)})
    return n1, n2


def refining_pair() -> tuple[APA, APA]:
    """Narrow interval into wide interval: refinement holds."""
    n1 = make_apa(
        states=["s0", "s1", "s2"], actions=["a"], ap=["p", "q"],
        labeling={"s0": [[]], "s1": [["p"]], "s2": [["q"]]},
        transitions=[("s0", "a", "phi1", Modality.MUST)], initial=["s0"],
        constraints={"phi1": C.interval_constraint(
            {"s1": ("9/20", "11/20"), "s2": ("9/20", "11/20")}, zero=["s0"])})
    n2 = make_apa(
        states=["t0", "t1", "t2"], actions=["a"], ap=["p", "q"],
        labeling={"t0": [[]], "t1": [["p"]], "t2": [["q"]]},
        transitions=[("t0", "a", "phi2", Modality.MUST)], initial=["t0"],
        constraints={"phi2": C.interval_constraint(
            {"t1": ("3/10", "7/10"), "t2": ("3/10", "7/10")}, zero=["t0"])})
    return n1, n2


def all_failing_pairs() -> dict[str, tuple[APA, APA]]:
    """Named fixture pairs with refines(n1, n2) == False (difference inputs)."""
    return {
        "interval": interval_pair(),
        "deferral": deferral_pair(),
        "may_gap": may_gap_pair(),
    }


def _with_second_pieces(n: APA, rng: random.Random, chance: float) -> APA:
    """n with each constraint, with probability `chance`, ORed (on a random
    side) with a second interval family over 1-3 random states, the other
    states zeroed.  States keep distinct valuations, so n stays
    deterministic."""
    constraints = []
    for cid, phi in n.constraints:
        if rng.random() < chance:
            support = rng.sample(n.states, rng.randint(1, min(3, len(n.states))))
            extra = C.interval_constraint(_random_interval_family(rng, support, 10),
                                          zero=[t for t in n.states if t not in support])
            phi = C.or_(phi, extra) if rng.random() < 0.5 else C.or_(extra, phi)
        constraints.append((cid, phi))
    return replace(n, constraints=tuple(constraints))


def multi_piece_pair(seed: int) -> tuple[APA, APA]:
    """`random_pair(Random(seed))` with multi-piece constraints: each left
    constraint gains a second interval family with probability 0.7, each
    right one with probability 1/2, drawn from `Random(10_000 + seed)`.
    Its left constraints have several DNF pieces, so a witness search's
    order over pieces shows in the witnesses it returns."""
    n1, n2 = random_pair(random.Random(seed))
    rng = random.Random(10_000 + seed)
    return _with_second_pieces(n1, rng, 0.7), _with_second_pieces(n2, rng, 0.5)


def with_second_valuation(n: APA) -> APA:
    """n with its first state also admitting the valuation of all
    propositions, so n leaves single-valuation normal form."""
    (s, vals), *rest = n.labeling
    return replace(n, labeling=((s, vals + (frozenset(n.ap),)), *rest))


def with_extra_action(n: APA) -> APA:
    """n over a larger alphabet: one more action, with no transition."""
    return replace(n, actions=n.actions + ("zz",))


def incomparable_pairs() -> list[tuple[APA, APA, type, str]]:
    """(n1, n2, error, message fragment): pairs that refinement rejects
    before any analysis, on deterministic inputs and on a difference
    automaton (nondeterministic)."""
    n1, n2 = interval_pair()
    d1, d2 = deferral_pair()
    diff = under_diff(d1, d2, 1)
    svnf, alphabet = "is not in single-valuation normal form", "same action alphabet"
    return [(with_second_valuation(n1), n2, PreconditionError, "left automaton " + svnf),
            (n1, with_second_valuation(n2), PreconditionError, "right automaton " + svnf),
            (n1, with_extra_action(n2), InputError, alphabet),
            (with_second_valuation(diff), d1, PreconditionError, "left automaton " + svnf),
            (diff, with_second_valuation(d1), PreconditionError, "right automaton " + svnf),
            (diff, with_extra_action(d1), InputError, alphabet)]


def interval_implementation_in() -> "PA":
    """A grid implementation of the narrow interval automaton (hence of both
    sides of interval_pair)."""
    return make_pa(
        states=["x0", "x1", "x2"], actions=["a"], ap=["p", "q"],
        labeling={"x0": [], "x1": ["p"], "x2": ["q"]},
        transitions=[("x0", "a", {"x1": F(1, 2), "x2": F(1, 2)})],
        initial="x0")


def interval_implementation_diff() -> "PA":
    """A grid implementation of the wide interval automaton that the narrow
    one cannot match (p-leaf mass 3/10 < 2/5)."""
    return make_pa(
        states=["x0", "x1", "x2"], actions=["a"], ap=["p", "q"],
        labeling={"x0": [], "x1": ["p"], "x2": ["q"]},
        transitions=[("x0", "a", {"x1": F(3, 10), "x2": F(7, 10)})],
        initial="x0")


def deferral_implementation_split() -> "PA":
    """Loops with mass exactly 1/2: satisfies both sides of deferral_pair."""
    return make_pa(
        states=["y0", "y1"], actions=["a"], ap=["p"],
        labeling={"y0": [], "y1": ["p"]},
        transitions=[("y0", "a", {"y0": F(1, 2), "y1": F(1, 2)})],
        initial="y0")


def deferral_implementation_late() -> "PA":
    """Makes one legal 1/2-1/2 split, then pins all mass on the loop state:
    violates the cap only at the second step, so it lies in the true
    difference but needs under-approximation depth >= 2 to be recognised."""
    return make_pa(
        states=["x0", "x1", "x2"], actions=["a"], ap=["p"],
        labeling={"x0": [], "x1": [], "x2": ["p"]},
        transitions=[("x0", "a", {"x1": F(1, 2), "x2": F(1, 2)}),
                     ("x1", "a", {"x1": F(1)})],
        initial="x0")
