"""Layer tracing from outside the program.

`Tracer.install()` replaces every public function of each layer module with a
wrapper that records a span (id, parent, name, start, end) while the tracer
is enabled, and every model accessor method with a wrapper that only counts.
A function bound into another module with `from ... import` is replaced there
too, so every lookup goes through the wrapper.  Spans stay in memory until
`write_spans`.  Span times are CPU time of the process.  Self time is a
span's length minus what its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("_lp", "constraints", "model", "refinement", "difference",
          "counterexample", "distance", "io_cli")
ACCESSORS = {"APA": ("valuations", "valuation_of", "constraint", "transitions_from",
                     "initial_state"),
             "PA": ("valuation_of", "transitions_from")}


def _bits(value) -> int:
    f = Fraction(value)
    return max(f.numerator.bit_length(), f.denominator.bit_length())


class Tracer:
    """Spans and counts of the wrapped layers; records only while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.self_ns: Counter = Counter()   # per function
        self.calls: Counter = Counter()     # per function
        self.counters: Counter = Counter()  # named work counts
        self.bits_max = 0
        self._stack: list[list] = []        # [span id, start, child ns]
        self._depth: Counter = Counter()    # open spans per layer
        self._next_id = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, layer: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(self, "call", args, kwargs, None)
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            frame = [self._next_id, time.process_time_ns(), 0]
            self._stack.append(frame)
            self._depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time_ns()
                self._stack.pop()
                self._depth[layer] -= 1
                duration = end - frame[1]
                self.self_ns[name] += duration - frame[2]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append((frame[0], parent, name, frame[1], end))
            if hook is not None:
                hook(self, "return", args, kwargs, result)
            return result
        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions and count the accessors."""
        from apa_toolkit import model
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"apa_toolkit.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer.lstrip('_')}.{attr}"
                replaced[id(obj)] = self._span(name, layer, obj, HOOKS.get(name))
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith(("apa_toolkit", "tests")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
        for cls_name, methods in ACCESSORS.items():
            cls = getattr(model, cls_name)
            for method in methods:
                setattr(cls, method, self._count("model.accessor_calls", getattr(cls, method)))

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"self_ns": Counter(self.self_ns), "calls": Counter(self.calls),
                "counters": Counter(self.counters), "bits_max": self.bits_max}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % span)


# -- per-function hooks that turn call arguments and results into counts -----

def _lp_solve(tracer, phase, args, kwargs, result):
    if phase != "call":
        return
    objective = args[0] if args else kwargs["objective"]
    constraints = args[1] if len(args) > 1 else kwargs["constraints"]
    variables = args[2] if len(args) > 2 else kwargs["variables"]
    rows = len(constraints)
    slacks = sum(1 for _, rel, _ in constraints if rel != "==")
    tracer.counters["lp.tableau_cells"] += rows * (len(variables) + slacks + rows)
    if objective:
        tracer.bits_max = max(tracer.bits_max, max(_bits(c) for c in objective.values()))
    if tracer._depth["distance"]:
        tracer.counters["distance.lp_solves"] += 1


def _compute_refinement(tracer, phase, args, kwargs, result):
    if phase == "return":
        tracer.counters["refinement.sweeps"] += len(result.history)
        tracer.counters["refinement.pair_checks"] += sum(len(r) for r in result.history)


def _difference(tracer, phase, args, kwargs, result):
    if phase == "return":
        tracer.counters["difference.product_states"] += len(result.states)
        tracer.counters["difference.constraints"] += len(result.constraints)


def _state_distances(tracer, phase, args, kwargs, result):
    if phase == "return":
        tracer.counters["distance.iterations"] += result.iterations


def _parse(tracer, phase, args, kwargs, result):
    if phase == "call":
        tracer.counters["io_cli.bytes"] += len((args[0] if args else kwargs["text"]).encode())


def _serialize(tracer, phase, args, kwargs, result):
    if phase == "return":
        tracer.counters["io_cli.bytes"] += len(result.encode())


HOOKS = {
    "lp.solve": _lp_solve,
    "refinement.compute_refinement": _compute_refinement,
    "difference.over_diff": _difference,
    "difference.under_diff": _difference,
    "distance.state_distances": _state_distances,
    "io_cli.parse": _parse,
    "io_cli.serialize": _serialize,
}
