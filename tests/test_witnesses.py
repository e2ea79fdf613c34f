"""The deterministic failure test and the witnesses it yields: the recorded
analyses, lemma witnesses and counterexamples of the failing fixtures and
the multi-piece family, the c/f verdict against its definition over a
relation-filtered successor map, and a `ReachesPair` witness.

To re-record `tests/golden/det_witnesses.txt` after an intended change:
`PYTHONPATH=src python -m tests.test_witnesses`.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from apa_toolkit import constraints as C
from apa_toolkit import oracle, refinement
from apa_toolkit.constraints import FacetViolation, ReachesPair, SupportAtState
from apa_toolkit.counterexample import counterexample
from apa_toolkit.generators import random_pair
from apa_toolkit.io_cli import provenance_document, serialize
from apa_toolkit.refinement import (CaseLabel, breaking, compute_refinement, forced_map,
                                    lemma_indplus_witness)
from tests.fixtures import all_failing_pairs, multi_piece_pair

GOLDEN = Path(__file__).resolve().parent / "golden" / "det_witnesses.txt"
FAMILY_SEEDS = range(400)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _reason(reason) -> str:
    if isinstance(reason, SupportAtState):
        return f"support {reason.state}"
    if isinstance(reason, FacetViolation):
        return f"facet {reason.atom}"
    assert isinstance(reason, ReachesPair)
    return f"reaches {reason.source} {reason.target}"


def _recorded_pairs():
    yield from all_failing_pairs().items()
    for seed in FAMILY_SEEDS:
        yield f"multi{seed}", multi_piece_pair(seed)


def _record(name: str, n1, n2) -> list[str]:
    """One header line per pair (K, verdict, a digest of the cases, blame
    sets and removal indices, and one of the counterexample with its
    provenance), then one line per lemma witness."""
    analysis = compute_refinement(n1, n2)
    pairs = sorted(analysis.cases, key=str)
    table = "\n".join(f"{p} {analysis.case_of(*p).value} {analysis.ind_of(*p)} "
                      f"{analysis.bsets_of(*p)}" for p in pairs)
    cex = "-"
    if not analysis.refines:
        built = counterexample(n1, n2)
        cex = _digest(serialize(built) + json.dumps(provenance_document(built)))
    lines = [f"{name} K={analysis.fixpoint_index} refines={analysis.refines} "
             f"analysis={_digest(table)} cex={cex}"]
    for s1, s2 in pairs:
        if analysis.case_of(s1, s2) is not CaseLabel.CASE3:
            continue
        brk = breaking(analysis, s1, s2)
        for e in analysis.bsets_of(s1, s2).of("cf"):
            if e in brk:
                w = lemma_indplus_witness(analysis, s1, s2, e)
                lines.append(f"  ({s1}, {s2}) {e}: {_reason(w.reason)}; mu = {w.mu}")
    return lines


def det_witness_lines() -> list[str]:
    return [line for name, (n1, n2) in _recorded_pairs() for line in _record(name, n1, n2)]


def test_failure_analyses_keep_the_recorded_witnesses():
    """Cases, blame sets, removal indices, every lemma witness and the
    counterexample, on the failing fixtures and the multi-piece family.
    The family's left constraints have several pieces, so a witness search
    that interleaves its two LP kinds piece by piece shows here."""
    assert det_witness_lines() == GOLDEN.read_text().splitlines()


def _filtered_map_unmatched(analysis, s1, s2, a, relation, memo: dict) -> bool:
    """The c/f verdict read through a successor map filtered by the
    relation: a left successor whose forced pair is outside `relation`
    counts as unmapped.  `memo` keeps `_sim_witness` by its arguments."""
    phi1, phi2 = analysis.constraints_on(s1, s2, a)
    mapping = tuple((s, t if t is not None and (s, t) in relation else None)
                    for s, t in forced_map(analysis, s2, a))
    if (phi1, mapping, phi2) not in memo:
        memo[phi1, mapping, phi2] = refinement._sim_witness(
            phi1, analysis.n1.states, mapping, phi2, analysis.n2.states)
    return memo[phi1, mapping, phi2] is not None


def test_cf_verdict_equals_the_filtered_map_definition():
    """`_blame`'s c/f test, which reads the relation by set lookup only, on
    every case-3 pair, approximant R_k and action with a transition on both
    sides (bar bucket e, where the test does not run), on the fixtures,
    `random_pair` seeds 0-399 and the multi-piece family: 849 checks."""
    pairs = list(all_failing_pairs().values())
    pairs += [random_pair(random.Random(seed)) for seed in FAMILY_SEEDS]
    pairs += [multi_piece_pair(seed) for seed in FAMILY_SEEDS]
    checks = unmatched = 0
    for n1, n2 in pairs:
        analysis, memo = compute_refinement(n1, n2), {}
        for (s1, s2), case in analysis.cases.items():
            if case is not CaseLabel.CASE3:
                continue
            for relation in analysis.history:
                blamed = dict(refinement._blame(analysis, s1, s2, relation))
                for a in n1.actions:
                    if ((s1, a) not in analysis.steps1 or (s2, a) not in analysis.steps2
                            or blamed.get(a) == "e"):
                        continue
                    got = blamed.get(a) in ("c", "f")
                    assert got == _filtered_map_unmatched(analysis, s1, s2, a, relation, memo), \
                        (s1, s2, a, sorted(relation))
                    checks += 1
                    unmatched += got
    assert checks == 849 and 0 < unmatched < checks


def test_lemma_witness_reaching_a_removed_pair():
    """On seed 293 the witness at (q3, r2) puts all its mass on q0, whose
    forced partner r0 was removed before (q3, r2): the only `ReachesPair`
    witness among `random_pair` seeds 0-399."""
    n1, n2 = random_pair(random.Random(293))
    analysis = compute_refinement(n1, n2)
    w = lemma_indplus_witness(analysis, "q3", "r2", "a")
    assert w.reason == ReachesPair("q0", "r0")
    assert w.mu.mass == {"q0": 1}
    phi1, phi2 = analysis.constraints_on("q3", "r2", "a")
    assert C.sat_member(phi1, w.mu)
    relation = analysis.history[analysis.ind_of("q3", "r2")]
    assert ("q0", "r0") not in relation
    assert not oracle._coupling_ok(w.mu, phi2, n2, relation)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(det_witness_lines()) + "\n")
