"""The four workloads: set-up, the timed queries of one round, and the checks.

A workload's `build(seed, tmp)` is its set-up: it makes every input the
queries need (fixtures, generated pairs, products, implementations, model
files) and returns the round as a list of tasks.  A task is a callable that
takes `record` and calls it once per query; `record(label, fn)` times `fn()`
and keeps its answer.  `verify(records)` checks each (label, answer) of one
round and returns, per query, True, False or `checks.UNVERIFIED`.

The toolkit is called through its modules' attributes (`refinement.refines`,
not a name imported from it), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

from apa_toolkit import constraints, difference, distance, io_cli, model, refinement
from apa_toolkit.generators import random_pair
from tests.fixtures import all_failing_pairs, interval_pair

import checks

# Grid denominators aligned with each failing fixture's constraint bounds.
FIXTURE_DENOM = {"interval": 10, "deferral": 2, "may_gap": 10}


def _failing_pairs(first_seed: int, count: int) -> list[tuple[int, object, object]]:
    """The first `count` generator seeds from `first_seed` whose random pair
    fails refinement."""
    out = []
    seed = first_seed
    while len(out) < count:
        n1, n2 = random_pair(random.Random(seed))
        if not refinement.refines(n1, n2):
            out.append((seed, n1, n2))
        seed += 1
    return out


class RefineChain:
    """refines(under(K), under(K+1)) and refines(under(K), n1) on the failing
    fixtures, K = 1..KMAX."""

    KMAX = 1           # K = 2 adds about 10 s per round: too few rounds for a median
    SOUND_PREFIX = 4   # grid implementations of each pruned under(K) checked

    def build(self, seed: int, tmp: Path) -> list:
        self.pairs = all_failing_pairs()
        self.diffs = {name: {k: difference.under_diff(n1, n2, k)
                             for k in range(1, self.KMAX + 2)}
                      for name, (n1, n2) in self.pairs.items()}
        tasks = []
        for name, (n1, _) in self.pairs.items():
            diffs = self.diffs[name]
            for k in range(1, self.KMAX + 1):
                tasks.append(lambda rec, d=diffs, k=k, name=name: rec(
                    ("chain", name, k), lambda: refinement.refines(d[k], d[k + 1])))
                tasks.append(lambda rec, d=diffs, k=k, name=name, n1=n1: rec(
                    ("sound", name, k), lambda: refinement.refines(d[k], n1)))
        random.Random(seed).shuffle(tasks)
        return tasks

    def verify(self, records) -> list[bool]:
        out = []
        for (kind, name, k), answer in records:
            ok = checks.check_chain_verdict(answer)
            if ok and kind == "sound":
                n1, n2 = self.pairs[name]
                ok = checks.check_under_sound(self.diffs[name][k], n1, n2,
                                              FIXTURE_DENOM[name], self.SOUND_PREFIX)
            out.append(ok)
        return out


class Satisfy:
    """satisfies(p, n) for grid implementations p of the fixtures' pruned
    under(K) and of the left sides of failing random pairs, against n1, n2
    (pushforward path) and under(1), over (coupling path)."""

    FIXTURE_LEVELS = (1, 2)
    FIXTURE_PREFIX = 3                  # grid implementations per fixture and level
    PAIR_FIRST_SEED, PAIR_COUNT = 0, 5
    PAIR_PREFIX = 4                     # grid implementations per random pair

    def build(self, seed: int, tmp: Path) -> list:
        cases = []   # (label, implementations, abstract sides)
        for name, (n1, n2) in all_failing_pairs().items():
            impls = []
            for k in self.FIXTURE_LEVELS:
                pruned = difference.prune_unreachable(difference.under_diff(n1, n2, k))
                impls += checks.grid_prefix(pruned, FIXTURE_DENOM[name], self.FIXTURE_PREFIX)
            cases.append((name, impls, self._sides(n1, n2)))
        for gen_seed, n1, n2 in _failing_pairs(self.PAIR_FIRST_SEED, self.PAIR_COUNT):
            impls = checks.grid_prefix(n1, 10, self.PAIR_PREFIX)
            cases.append((f"pair{gen_seed}", impls, self._sides(n1, n2)))
        self.cases = {}
        tasks = []
        for name, impls, sides in cases:
            for i, p in enumerate(impls):
                for side, n in sides.items():
                    label = (name, i, side)
                    self.cases[label] = (p, n)
                    tasks.append(lambda rec, label=label, p=p, n=n: rec(
                        label, lambda: refinement.satisfies(p, n)[0]))
        random.Random(seed).shuffle(tasks)
        return tasks

    @staticmethod
    def _sides(n1, n2) -> dict:
        return {"n1": n1, "n2": n2, "under1": difference.under_diff(n1, n2, 1),
                "over": difference.over_diff(n1, n2)}

    def verify(self, records) -> list[bool]:
        return [checks.check_satisfies(answer, *self.cases[label]) for label, answer in records]


class Corpus:
    """Generated pairs through the in-process CLI: `check`, then `diff-over`,
    `diff-under -K 2` and `counterexample` when `check` exits 1."""

    FIRST_SEED, COUNT = 0, 10
    ACCEPT_PREFIX = 3    # grid implementations of n1 checked against n2
    OVER_PREFIX = 6      # grid implementations of n1 tried against diff-over

    def build(self, seed: int, tmp: Path) -> list:
        self.pairs = {}
        tasks = []
        for gen_seed in range(self.FIRST_SEED, self.FIRST_SEED + self.COUNT):
            n1, n2 = random_pair(random.Random(gen_seed))
            base = tmp / f"pair{gen_seed}"
            base.mkdir(parents=True, exist_ok=True)
            for side, n in (("n1", n1), ("n2", n2)):
                (base / f"{side}.json").write_text(io_cli.serialize(n), encoding="utf-8")
            self.pairs[gen_seed] = (n1, n2)
            tasks.append(lambda rec, gen_seed=gen_seed, base=base:
                         self._pair_task(rec, gen_seed, base))
        random.Random(seed).shuffle(tasks)
        return tasks

    @staticmethod
    def _cli(argv: list[str], output: Path | None):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = io_cli.main(argv)
        text = output.read_text(encoding="utf-8") if output and output.exists() else None
        return code, text

    def _pair_task(self, rec, gen_seed: int, base: Path) -> None:
        a, b = str(base / "n1.json"), str(base / "n2.json")
        if rec((gen_seed, "check"), lambda: self._cli(["check", a, b], None)) != (1, None):
            return
        for command, extra in (("diff-over", []), ("diff-under", ["-K", "2"]),
                               ("counterexample", [])):
            out = base / f"{command}.json"
            if out.exists():
                out.unlink()
            rec((gen_seed, command),
                lambda command=command, extra=extra, out=out:
                self._cli([command, a, b, *extra, "-o", str(out)], out))

    def verify(self, records) -> list:
        out = []
        for (gen_seed, command), answer in records:
            n1, n2 = self.pairs[gen_seed]
            if not isinstance(answer, tuple):
                out.append(False)
                continue
            code, text = answer
            ok = checks.check_cli_exit(command, code)
            if ok and command == "check" and code == 0:
                ok = checks.check_accepted(n1, n2, self.ACCEPT_PREFIX)
            elif ok and command != "check":
                written = checks.parse_output(text) if text is not None else None
                if command == "counterexample":
                    ok = checks.check_counterexample(written, n1, n2)
                elif command == "diff-over":
                    ok = checks.check_over(written, n1, n2, self.OVER_PREFIX)
                else:
                    ok = checks.check_under(written, n1, n2)
            out.append(ok)
        return out


_VALUATIONS = ((), ("p",), ("q",), ("p", "q"))


def _interval_draw(rng: random.Random, support: list, denominator: int) -> dict:
    """[lo, hi] bounds on the grid with sum(lo) <= 1 <= sum(hi)."""
    while True:
        lows = [rng.randint(0, denominator) for _ in support]
        if sum(lows) > denominator:
            continue
        highs = [rng.randint(lo, denominator) for lo in lows]
        if sum(highs) >= denominator:
            return {s: (Fraction(lo, denominator), Fraction(hi, denominator))
                    for s, lo, hi in zip(support, lows, highs)}


def skeleton_pair(rng: random.Random, max_states: int = 4, denominator: int = 10):
    """One random skeleton (states with distinct valuations, transitions with
    their supports and modalities over actions a and b) drawn twice with
    independent interval bounds per transition."""
    n = rng.randint(2, max_states)
    vals = list(_VALUATIONS)
    rng.shuffle(vals)
    skeleton = []
    for i in range(n):
        for a in ("a", "b"):
            if rng.random() < 0.75:
                support = rng.sample(range(n), rng.randint(1, min(3, n)))
                modality = model.Modality.MUST if rng.random() < 0.6 else model.Modality.MAY
                skeleton.append((i, a, support, modality))

    def draw(prefix: str):
        states = [f"{prefix}{i}" for i in range(n)]
        transitions, cons = [], {}
        for i, a, support, modality in skeleton:
            cid = f"c_{i}_{a}"
            bounds = _interval_draw(rng, [states[j] for j in support], denominator)
            cons[cid] = constraints.interval_constraint(
                bounds, zero=[s for s in states if s not in bounds])
            transitions.append((states[i], a, cid, modality))
        return model.make_apa(states=states, actions=["a", "b"], ap=["p", "q"],
                              labeling={s: [list(v)] for s, v in zip(states, vals)},
                              transitions=transitions, initial=[states[0]],
                              constraints=cons)

    return draw("s"), draw("t")


class Distance:
    """state_distances at lambda = 1/2 on same-skeleton pairs and the
    interval fixture."""

    LAM = Fraction(1, 2)
    FIRST_SEED, COUNT = 0, 6

    def build(self, seed: int, tmp: Path) -> list:
        self.pairs = {"interval": interval_pair()}
        for gen_seed in range(self.FIRST_SEED, self.FIRST_SEED + self.COUNT):
            self.pairs[f"skeleton{gen_seed}"] = skeleton_pair(random.Random(gen_seed))
        params = distance.DistanceParams(lam=float(self.LAM))
        tasks = [lambda rec, name=name, n1=n1, n2=n2: rec(
                     name, lambda: distance.state_distances(n1, n2, params))
                 for name, (n1, n2) in self.pairs.items()]
        random.Random(seed).shuffle(tasks)
        return tasks

    def verify(self, records) -> list[bool]:
        out = []
        for name, table in records:
            n1, n2 = self.pairs[name]
            incompatible = checks.incompatible_pairs(n1, n2)
            relation = refinement.compute_refinement(n1, n2).relation
            ok = checks.check_distances(table, float(self.LAM), incompatible, relation)
            if ok and name == "interval":
                ok = checks.check_interval_distance(table, n1, n2, self.LAM, 1e-9)
            out.append(ok)
        return out


WORKLOADS = {"refine-chain": RefineChain, "satisfy": Satisfy,
             "corpus": Corpus, "distance": Distance}


def _find_caches() -> list:
    """The toolkit's process-wide caches: every `lru_cache` and every
    module-level memo dict.  Found at import, before any tracer wraps them."""
    found = {}
    modules = [m for name, m in sys.modules.items() if name.startswith("apa_toolkit.")]
    for module in modules:
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_clear") or (isinstance(obj, dict) and attr.endswith("_memo")):
                found[id(obj)] = obj
    return list(found.values())


CACHES = _find_caches()
_CLEARED = {}   # cache name -> [hits, misses] counted before its last clear


def reset_caches() -> None:
    """Empty the toolkit's process-wide caches, so a query starts cold."""
    for cache in CACHES:
        if isinstance(cache, dict):
            cache.clear()
            continue
        info = cache.cache_info()
        total = _CLEARED.setdefault(cache.__name__, [0, 0])
        total[0] += info.hits
        total[1] += info.misses
        cache.cache_clear()


def cache_counts(name: str) -> tuple[int, int]:
    """(hits, misses) of the named `lru_cache` since the process started."""
    cache = next(c for c in CACHES if getattr(c, "__name__", None) == name)
    info = cache.cache_info()
    hits, misses = _CLEARED.get(name, (0, 0))
    return hits + info.hits, misses + info.misses
