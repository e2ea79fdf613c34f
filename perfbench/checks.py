"""Independent checkers for the benchmark's answers.

Every checker returns True when the answer it is given is verified and False
when it is wrong; the runner counts a False as a failed query and a wrong
answer.  `UNVERIFIED` marks an answer the checkers cannot decide: it counts
as failed, not as wrong.  They decide through
the brute-force `oracle.brute_satisfies` and the vertex-enumeration LP in
`tests/oracles.py`, never through the fast path they check.
"""
from __future__ import annotations

import itertools
import warnings
from fractions import Fraction

from apa_toolkit import constraints, io_cli, oracle
from apa_toolkit.difference import prune_unreachable
from apa_toolkit.errors import ToolkitError
from apa_toolkit.model import Modality, make_pa
from tests.oracles import brute_lp_max, grid_masses, naive_member


UNVERIFIED = "unverified"


def grid_prefix(n, denominator: int, count: int) -> list:
    """The first `count` grid implementations of `n`, in enumeration order."""
    grid = oracle.GridSpec(denominator=denominator, max_states=64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return list(itertools.islice(oracle.enumerate_implementations(n, grid), count))


def separates(p, n1, n2) -> bool:
    """p implements n1 and not n2, by the brute-force checker."""
    try:
        return oracle.brute_satisfies(p, n1) and not oracle.brute_satisfies(p, n2)
    except ToolkitError:
        return False


def check_chain_verdict(verdict) -> bool:
    """under(K) refines under(K+1) and n1: both hold by the paper's theorems."""
    return verdict is True


def check_under_sound(under, n1, n2, denominator: int, count: int) -> bool:
    """A prefix of the grid implementations of the pruned under(K) lies in the
    true difference of n1 and n2."""
    try:
        impls = grid_prefix(prune_unreachable(under), denominator, count)
    except ToolkitError:
        return False
    return bool(impls) and all(separates(p, n1, n2) for p in impls)


def check_satisfies(verdict, p, n) -> bool:
    """The fast verdict equals the brute-force one."""
    try:
        return verdict is oracle.brute_satisfies(p, n)
    except ToolkitError:
        return False


def check_cli_exit(command: str, code: int) -> bool:
    """`check` exits 0 or 1; the constructions exit 0."""
    return code in (0, 1) if command == "check" else code == 0


def parse_output(text: str):
    """The model a CLI run wrote, or None when it does not parse."""
    try:
        return io_cli.parse(text)
    except (ToolkitError, ValueError):
        return None


def check_accepted(n1, n2, prefix: int) -> bool:
    """`check` said n1 refines n2: a grid prefix of n1 implements n2."""
    impls = grid_prefix(n1, 10, prefix)
    try:
        return all(oracle.brute_satisfies(p, n2) for p in impls)
    except ToolkitError:
        return False


def check_counterexample(cex, n1, n2) -> bool:
    """The counterexample written by the CLI separates the pair."""
    return cex is not None and separates(cex, n1, n2)


def check_over(diff, n1, n2, prefix: int) -> bool:
    """Grid implementations of n1 in the true difference implement diff."""
    if diff is None:
        return False
    try:
        return all(oracle.brute_satisfies(p, diff)
                   for p in grid_prefix(n1, 10, prefix) if separates(p, n1, n2))
    except ToolkitError:
        return False


def point_implementation(n, with_may: bool):
    """One implementation of `n` grown from its initial state: each Must
    transition, and each May one when `with_may`, takes the point the
    constraint layer finds in its set.  None when a reached Must transition
    has an empty set.  Grid enumeration is no option on large products: it
    walks every grid point of every constraint first."""
    init = n.initial[0]
    order, seen, transitions = [init], {init}, []
    for s in order:
        for tr in n.transitions_from(s):
            if tr.modality is Modality.MAY and not with_may:
                continue
            mu = constraints.sat_nonempty(n.constraint(tr.constraint_id), n.states)
            if mu is None:
                if tr.modality is Modality.MUST:
                    return None
                continue
            transitions.append((s, tr.action, mu))
            for t in mu.support():
                if t not in seen:
                    seen.add(t)
                    order.append(t)
    return make_pa(states=order, actions=n.actions, ap=n.ap,
                   labeling={s: n.valuation_of(s) for s in order},
                   transitions=transitions, initial=init)


def check_under(diff, n1, n2):
    """Implementations of the under-approximation lie in the true difference;
    UNVERIFIED when a reached required transition has an empty set."""
    if diff is None:
        return False
    samples = [point_implementation(diff, with_may) for with_may in (False, True)]
    if None in samples:
        return UNVERIFIED
    for p in samples:
        if len(p.states) * len(diff.states) <= oracle.DEFAULT_PAIR_CAP \
                and not oracle.brute_satisfies(p, diff):
            return False   # the sample itself is no implementation
        if not separates(p, n1, n2):
            return False
    return True


def incompatible_pairs(n1, n2) -> set:
    """State pairs no implementation pair can bring to a finite distance:
    differing valuations, a left action the right lacks, or a right Must
    the left cannot match with a Must."""
    out = set()
    for s1 in n1.states:
        for s2 in n2.states:
            bad = n1.valuation_of(s1) != n2.valuation_of(s2)
            for a in set(n1.actions) | set(n2.actions):
                left = [t for t in n1.transitions if t.source == s1 and t.action == a]
                right = [t for t in n2.transitions if t.source == s2 and t.action == a]
                must = lambda ts: any(t.modality.name == "MUST" for t in ts)
                bad = bad or (left and not right) or (must(right) and not must(left))
            if bad:
                out.add((s1, s2))
    return out


def check_distances(table, lam: float, incompatible, relation) -> bool:
    """Converged; compatible pairs lie in [0, lam], incompatible ones at 1;
    every pair of the refinement relation sits at exactly 0."""
    if not table.converged:
        return False
    for pair, value in table.d.items():
        if pair in incompatible:
            if value != 1.0:
                return False
        elif not 0.0 <= value <= lam:
            return False
    return all(table.d[pair] == 0.0 for pair in relation)


def interval_grid_distance(n1, n2, lam: Fraction) -> Fraction:
    """The interval fixture's distance re-derived on the tenth grid: every
    transport problem solved by vertex enumeration, max-min, discounted."""
    phi1 = n1.constraint(n1.transitions[0].constraint_id)
    phi2 = n2.constraint(n2.transitions[0].constraint_id)
    left, right = ("s1", "s2"), ("t1", "t2")
    sat1 = [m for m in grid_masses(left, 10) if naive_member(phi1, m)]
    sat2 = [m for m in grid_masses(right, 10) if naive_member(phi2, m)]
    gap = {(a, b): 0 if n1.valuation_of(a) == n2.valuation_of(b) else 1
           for a in left for b in right}
    variables = [(a, b) for a in left for b in right]

    def transport(mu1, mu2) -> Fraction:
        rows = [({(a, b): 1 for b in right}, "==", mu1[a]) for a in left]
        rows += [({(a, b): 1 for a in left}, "==", mu2[b]) for b in right]
        value, _ = brute_lp_max({v: -gap[v] for v in variables}, rows, variables)
        return -value

    return lam * max(min(transport(m1, m2) for m2 in sat2) for m1 in sat1)


def check_interval_distance(table, n1, n2, lam: Fraction, tolerance: float) -> bool:
    """The fast root distance matches the grid re-derivation."""
    expected = interval_grid_distance(n1, n2, lam)
    return table.converged and abs(table.value("s0", "t0") - float(expected)) <= tolerance
