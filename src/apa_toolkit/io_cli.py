"""JSON model documents, DOT export, and the command-line surface.

Documents carry exact rationals as "p/q" strings; serialization is canonical
(fixed key order, rationals in lowest terms), so serialize(parse(text)) is
idempotent and parse(serialize(model)) reproduces the model including
product-state structure and derived constraints.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Callable

from . import constraints as C
from .counterexample import CexState, CounterexamplePA, counterexample
from .difference import DifferenceAPA, ProductState, over_diff, under_diff
from .distance import DistanceParams, syntactic_distance_table
from .errors import (GridTooCoarseError, InputError, PreconditionError,
                     ResourceLimitError, ToolkitError)
from .model import APA, Modality, PA, make_apa, make_pa, validate, validate_pa
from .oracle import GridSpec, brute_satisfies, check_inclusion_sampled
from .refinement import CaseLabel, compute_refinement, satisfies

FORMAT_VERSION = 1

_RELS = ("<=", ">=", "==", "<", ">")


# ---------------------------------------------------------------------------
# Rationals and state references
# ---------------------------------------------------------------------------


def _frac_str(x) -> str:
    return str(Fraction(x))


def _parse_frac(v, where: str) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise InputError(f"{where}: rationals must be 'p/q' strings or integers, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: bad rational {v!r} ({exc})")
    raise InputError(f"{where}: rationals must be 'p/q' strings, got {type(v).__name__}")


def _ref(s) -> str:
    """The name under which a state is referenced elsewhere in a document."""
    return s if isinstance(s, str) else str(s)


def _state_doc(s) -> dict:
    if isinstance(s, ProductState):
        return {"name": str(s), "kind": "product",
                "s1": s.s1, "s2": s.s2, "e": s.e, "k": s.k}
    if isinstance(s, CexState):
        return {"name": str(s), "kind": "pair", "left": s.left, "matched": s.matched}
    if not isinstance(s, str):
        raise InputError(f"state {s!r} has no document form")
    return {"name": s}


def _state_from_doc(d, where: str):
    if not isinstance(d, dict) or "name" not in d:
        raise InputError(f"{where}: each state needs at least a name")
    kind = d.get("kind")
    if kind == "product":
        return ProductState(d.get("s1"), d.get("s2"), d.get("e"), d.get("k"))
    if kind == "pair":
        return CexState(d.get("left"), d.get("matched"))
    if kind is not None:
        raise InputError(f"{where}: unknown state kind {kind!r}")
    return d["name"]


# ---------------------------------------------------------------------------
# Constraint encodings
# ---------------------------------------------------------------------------


def _node_doc(expr) -> Any:
    if isinstance(expr, C.TrueExpr):
        return True
    if isinstance(expr, C.FalseExpr):
        return False
    if isinstance(expr, C.Atom):
        a = expr.atom
        return {"atom": {"coeffs": {_ref(s): _frac_str(c) for s, c in a.coeffs},
                         "rel": a.rel, "rhs": _frac_str(a.rhs)}}
    if isinstance(expr, C.And):
        return {"all_of": [_node_doc(i) for i in expr.items]}
    if isinstance(expr, C.Or):
        return {"any_of": [_node_doc(i) for i in expr.items]}
    if isinstance(expr, C.Not):
        return {"not": _node_doc(expr.item)}
    raise InputError(f"constraint node {type(expr).__name__} has no document form")


def _expr_doc(expr) -> dict:
    if isinstance(expr, C.BotLift):
        return {"derived": {
            "tag": expr.tag,
            "phi1": _expr_doc(expr.phi),
            "source_states": [_ref(s) for s in expr.source_states],
            "cells": [_ref(c) for c in expr.cells]}}
    if isinstance(expr, C.PhiB):
        doc = {
            "tag": expr.tag,
            "phi1": _expr_doc(expr.phi1),
            "phi2": _expr_doc(expr.phi2),
            "source_states": [_ref(s) for s in expr.source_states],
            "target_states": [_ref(s) for s in expr.target_states],
            "succ": [{"from": _ref(s), "to": None if t is None else _ref(t)}
                     for s, t in expr.succ],
            "b": [{"left": _ref(l), "right": _ref(r), "actions": list(acts)}
                  for (l, r), acts in expr.b_map],
            "cells": [_ref(c) for c in expr.cells]}
        if expr.k is not None:
            doc["k"] = expr.k
        return {"derived": doc}
    return {"linear": _node_doc(expr)}


def _node_from_doc(d, table: dict, where: str):
    if d is True:
        return C.TRUE
    if d is False:
        return C.FALSE
    if not isinstance(d, dict):
        raise InputError(f"{where}: bad constraint node {d!r}")
    if "atom" in d:
        a = d["atom"]
        rel = a.get("rel")
        if rel not in _RELS:
            raise InputError(f"{where}: unknown relation {rel!r} (want one of {_RELS})")
        coeffs = {table.get(k, k): _parse_frac(v, where) for k, v in a.get("coeffs", {}).items()}
        return C.atom(coeffs, rel, _parse_frac(a.get("rhs", 0), where))
    if "all_of" in d:
        return C.and_(*[_node_from_doc(i, table, where) for i in d["all_of"]])
    if "any_of" in d:
        return C.or_(*[_node_from_doc(i, table, where) for i in d["any_of"]])
    if "not" in d:
        return C.Not(_node_from_doc(d["not"], table, where))
    raise InputError(f"{where}: constraint node needs one of atom/all_of/any_of/not")


def _expr_from_doc(d, table: dict, states: tuple, where: str):
    if d is True or d is False or (isinstance(d, dict) and
                                   any(k in d for k in ("atom", "all_of", "any_of", "not"))):
        return _node_from_doc(d, table, where)
    if not isinstance(d, dict):
        raise InputError(f"{where}: bad constraint {d!r}")
    if "linear" in d:
        return _node_from_doc(d["linear"], table, where)
    if "point" in d:
        mass = {table.get(k, k): _parse_frac(v, where) for k, v in d["point"].items()}
        if sum(mass.values()) != 1:
            raise InputError(f"{where}: point masses must sum to 1")
        for s in states:
            mass.setdefault(s, Fraction(0))
        return C.point_constraint(mass)
    if "interval" in d:
        spec = d["interval"]
        bounds = {}
        for k, pair in spec.get("bounds", {}).items():
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InputError(f"{where}: interval bounds must be [lo, hi] pairs")
            bounds[table.get(k, k)] = (_parse_frac(pair[0], where), _parse_frac(pair[1], where))
        zero = [table.get(k, k) for k in spec.get("zero", [])]
        return C.interval_constraint(bounds, zero)
    if "derived" in d:
        spec = d["derived"]
        tag = spec.get("tag")
        cells = tuple(table.get(c, c) for c in spec.get("cells", []))
        source = tuple(spec.get("source_states", []))
        if tag == "bot-lift":
            phi1 = _expr_from_doc(spec["phi1"], table, states, where)
            return C.make_bot_lift(phi1, source, cells)
        if tag in ("phi-B", "phi-B-k"):
            phi1 = _expr_from_doc(spec["phi1"], table, states, where)
            phi2 = _expr_from_doc(spec["phi2"], table, states, where)
            target = tuple(spec.get("target_states", []))
            succ = {e["from"]: e.get("to") for e in spec.get("succ", [])}
            b_map = {(e["left"], e["right"]): tuple(e.get("actions", []))
                     for e in spec.get("b", [])}
            k = spec.get("k") if tag == "phi-B-k" else None
            if tag == "phi-B-k" and k is None:
                raise InputError(f"{where}: phi-B-k needs a level k")
            return C.make_phi_B(phi1, phi2, source, target, succ, b_map, cells, k)
        raise InputError(f"{where}: unknown derived constraint tag {tag!r}")
    raise InputError(f"{where}: constraint needs one of linear/point/interval/derived")


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def to_document(model: APA | PA) -> dict:
    if isinstance(model, PA):
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "pa",
            "ap": list(model.ap),
            "actions": list(model.actions),
            "states": [dict(_state_doc(s),
                            valuation=sorted(model.valuation_of(s)))
                       for s in model.states],
            "initial": _ref(model.initial),
            "transitions": [
                {"from": _ref(t.source), "action": t.action,
                 "distribution": {_ref(s): _frac_str(m) for s, m in t.distribution.items}}
                for t in model.transitions],
        }
        return doc
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "apa",
        "ap": list(model.ap),
        "actions": list(model.actions),
        "states": [dict(_state_doc(s),
                        valuations=[sorted(v) for v in model.valuations(s)])
                   for s in model.states],
        "initial": [_ref(s) for s in model.initial],
        "transitions": [
            {"from": _ref(t.source), "action": t.action,
             "modality": t.modality.value, "constraint": t.constraint_id}
            for t in model.transitions],
        "constraints": {cid: _expr_doc(expr) for cid, expr in model.constraints},
    }
    if isinstance(model, DifferenceAPA):
        doc["difference"] = {
            "source_initial": [_ref(s) for s in model.source_initial],
            "level": model.level}
    return doc


def from_document(doc: dict) -> APA | PA:
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise InputError(f"format_version: expected {FORMAT_VERSION}, got {version!r}")
    kind = doc.get("kind")
    if kind not in ("apa", "pa"):
        raise InputError(f"kind: expected 'apa' or 'pa', got {kind!r}")

    states = []
    table: dict[str, Any] = {}
    for i, sd in enumerate(doc.get("states", [])):
        s = _state_from_doc(sd, f"states[{i}]")
        name = sd["name"]
        if name in table:
            raise InputError(f"states[{i}]: duplicate state name {name!r}")
        table[name] = s
        states.append(s)

    def resolve(name, where):
        if not isinstance(name, str) or name not in table:
            raise InputError(f"{where}: unknown state {name!r}")
        return table[name]

    actions = list(doc.get("actions", []))
    ap = list(doc.get("ap", []))

    if kind == "pa":
        labeling = {}
        for i, sd in enumerate(doc.get("states", [])):
            labeling[table[sd["name"]]] = sd.get("valuation", [])
        transitions = []
        for i, td in enumerate(doc.get("transitions", [])):
            where = f"transitions[{i}]"
            src = resolve(td.get("from"), where)
            dist = {resolve(k, where): _parse_frac(v, where)
                    for k, v in td.get("distribution", {}).items()}
            transitions.append((src, td.get("action"), dist))
        p = make_pa(states=states, actions=actions, ap=ap, labeling=labeling,
                    transitions=transitions, initial=resolve(doc.get("initial"), "initial"))
        report = validate_pa(p)
        if not report.ok:
            raise InputError("; ".join(report.errors))
        return p

    labeling = {}
    for i, sd in enumerate(doc.get("states", [])):
        vals = sd.get("valuations")
        if not isinstance(vals, list):
            raise InputError(f"states[{i}]: an automaton state needs a list of valuations")
        labeling[table[sd["name"]]] = vals
    transitions = []
    for i, td in enumerate(doc.get("transitions", [])):
        where = f"transitions[{i}]"
        mod = td.get("modality")
        if mod not in ("must", "may"):
            raise InputError(f"{where}: unknown modality {mod!r} (want 'must' or 'may')")
        transitions.append((resolve(td.get("from"), where), td.get("action"),
                            td.get("constraint"), Modality(mod)))
    constraints = {}
    for cid, cd in doc.get("constraints", {}).items():
        constraints[cid] = _expr_from_doc(cd, table, tuple(states), f"constraints[{cid!r}]")
    initial = [resolve(s, "initial") for s in doc.get("initial", [])]
    n = make_apa(states=states, actions=actions, ap=ap, labeling=labeling,
                 transitions=transitions, initial=initial, constraints=constraints)
    diff = doc.get("difference")
    if diff is not None:
        n = DifferenceAPA(n.states, n.actions, n.ap, n.labeling, n.transitions,
                          n.initial, n.constraints,
                          source_initial=tuple(diff.get("source_initial", [])),
                          level=diff.get("level"))
    report = validate(n)
    if not report.ok:
        raise InputError("; ".join(report.errors))
    return n


def serialize(model: APA | PA) -> str:
    return json.dumps(to_document(model), indent=2) + "\n"


def parse(text: str) -> APA | PA:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return from_document(doc)


def provenance_document(cex: CounterexamplePA) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "provenance",
        "transitions": [
            {"from": _ref(p.source), "action": p.action, "row": p.row,
             "mu1": {_ref(s): _frac_str(m) for s, m in p.mu1.items}}
            for p in cex.provenance],
    }


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', r'\"') + '"'


def _val_text(v) -> str:
    return "{" + ",".join(sorted(v)) + "}"


def export_dot(model: APA | PA) -> str:
    """Deterministic graph rendering: boxes labeled name + valuation(s),
    one edge statement per transition fanning out to its possible targets
    (solid for required, dashed for optional)."""
    lines = ["digraph model {", "  rankdir=LR;", '  node [shape=box];']
    if isinstance(model, PA):
        initial = {model.initial}
        for s in model.states:
            label = f"{s}\\n{_val_text(model.valuation_of(s))}"
            extra = ", peripheries=2" if s in initial else ""
            lines.append(f"  {_dot_quote(str(s))} [label=\"{label}\"{extra}];")
        for t in model.transitions:
            targets = " ".join(_dot_quote(str(s)) for s, _ in t.distribution.items)
            masses = ", ".join(f"{s}:{m}" for s, m in t.distribution.items)
            lines.append(f"  {_dot_quote(str(t.source))} -> {{{targets}}} "
                         f"[label={_dot_quote(f'{t.action}: {masses}')}, style=solid];")
        lines.append("}")
        return "\n".join(lines) + "\n"
    initial = set(model.initial)
    for s in model.states:
        vals = "|".join(_val_text(v) for v in model.valuations(s)) or "(none)"
        label = f"{s}\\n{vals}"
        extra = ", peripheries=2" if s in initial else ""
        lines.append(f"  {_dot_quote(str(s))} [label=\"{label}\"{extra}];")
    for t in model.transitions:
        expr = model.constraint(t.constraint_id)
        targets = C.supportable_states(expr, model.states)
        style = "solid" if t.modality is Modality.MUST else "dashed"
        label = f"{t.action} [{t.constraint_id}]"
        if not targets:
            empty = f"{t.constraint_id}_unsat"
            lines.append(f"  {_dot_quote(empty)} [label=\"unsatisfiable\", shape=plaintext];")
            lines.append(f"  {_dot_quote(str(t.source))} -> {{{_dot_quote(empty)}}} "
                         f"[label=\"{label}\", style={style}];")
            continue
        tgt = " ".join(_dot_quote(str(s)) for s in targets)
        lines.append(f"  {_dot_quote(str(t.source))} -> {{{tgt}}} "
                     f"[label=\"{label}\", style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _load(path: str) -> APA | PA:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    try:
        return parse(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}")


def _load_apa(path: str) -> APA:
    model = _load(path)
    if isinstance(model, PA):
        raise InputError(f"{path}: expected an abstract automaton, found a concrete one")
    return model


def _load_pa(path: str) -> PA:
    model = _load(path)
    if not isinstance(model, PA):
        raise InputError(f"{path}: expected a concrete automaton, found an abstract one")
    return model


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human:
            print(line)


def cmd_check(args) -> int:
    n1, n2 = _load_apa(args.n1), _load_apa(args.n2)
    analysis = compute_refinement(n1, n2)
    diagnosis = []
    if not analysis.refines:
        for s1, s2 in sorted(analysis.cases, key=lambda p: (str(p[0]), str(p[1]))):
            case = analysis.case_of(s1, s2)
            if case is CaseLabel.CASE1:
                continue
            if case is CaseLabel.CASE2:
                if s1 in n1.initial and s2 in n2.initial:
                    diagnosis.append({"pair": [_ref(s1), _ref(s2)],
                                      "reason": "valuation mismatch"})
                continue
            bs = analysis.bsets_of(s1, s2)
            for letter in "abcdef":
                for act in bs.of(letter):
                    diagnosis.append({"pair": [_ref(s1), _ref(s2)],
                                      "reason": f"case 3.{letter}, action {act}"})
    human = [f"refines: {'true' if analysis.refines else 'false'}"]
    human += [f"  ({d['pair'][0]}, {d['pair'][1]}): {d['reason']}" for d in diagnosis]
    _emit(args, {"refines": analysis.refines, "diagnosis": diagnosis}, human)
    return 0 if analysis.refines else 1


def cmd_diff_over(args) -> int:
    n1, n2 = _load_apa(args.n1), _load_apa(args.n2)
    diff = over_diff(n1, n2)
    _write(args.output, serialize(diff))
    _emit(args, {"states": len(diff.states), "output": args.output},
          [f"wrote over-approximating difference with {len(diff.states)} states"])
    return 0


def cmd_diff_under(args) -> int:
    n1, n2 = _load_apa(args.n1), _load_apa(args.n2)
    diff = under_diff(n1, n2, args.K)
    _write(args.output, serialize(diff))
    _emit(args, {"states": len(diff.states), "level": args.K, "output": args.output},
          [f"wrote under-approximating difference (level {args.K}) "
           f"with {len(diff.states)} states"])
    return 0


def cmd_distance(args) -> int:
    n1, n2 = _load_apa(args.n1), _load_apa(args.n2)
    extra = {} if args.max_iter is None else {"max_iter": args.max_iter}
    params = DistanceParams(lam=args.lam, epsilon=args.eps, **extra)
    value, table = syntactic_distance_table(n1, n2, params)
    if args.table:
        rows = ["s1,s2,value,guaranteed_error"]
        rows += [f"{_ref(s1)},{_ref(s2)},{v!r},{table.guaranteed_error!r}"
                 for (s1, s2), v in sorted(table.d.items(),
                                           key=lambda kv: (str(kv[0][0]), str(kv[0][1])))]
        _write(args.table, "\n".join(rows) + "\n")
    payload = {"syntactic_distance": value,
               "guaranteed_error": table.guaranteed_error,
               "iterations": table.iterations,
               "converged": table.converged,
               "exact": table.exact}
    kindnote = "" if table.exact else " (certified lower bound)"
    _emit(args, payload,
          [f"syntactic distance: {value:.12g}{kindnote}",
           f"certified error <= {table.guaranteed_error:.3g} "
           f"after {table.iterations} iterations"])
    return 0


def cmd_counterexample(args) -> int:
    n1, n2 = _load_apa(args.n1), _load_apa(args.n2)
    cex = counterexample(n1, n2)
    _write(args.output, serialize(cex))
    if args.provenance:
        _write(args.provenance, json.dumps(provenance_document(cex), indent=2) + "\n")
    _emit(args, {"states": len(cex.states), "transitions": len(cex.transitions),
                 "output": args.output},
          [f"wrote separating implementation with {len(cex.states)} states"])
    return 0


def cmd_satisfy(args) -> int:
    p, n = _load_pa(args.p), _load_apa(args.n)
    ok = satisfies(p, n, budget=args.budget)[0]
    _emit(args, {"satisfies": ok}, [f"satisfies: {'true' if ok else 'false'}"])
    return 0 if ok else 1


def cmd_oracle_check(args) -> int:
    n1, n2 = _load_apa(args.n1), _load_apa(args.n2)
    grid = GridSpec(denominator=args.grid)
    if args.suite == "cex":
        cex = counterexample(n1, n2)
        results = {
            "fast_sat_n1": satisfies(cex, n1, budget=args.budget)[0],
            "fast_sat_n2": satisfies(cex, n2, budget=args.budget)[0],
            "brute_sat_n1": brute_satisfies(cex, n1),
            "brute_sat_n2": brute_satisfies(cex, n2),
        }
        ok = (results["fast_sat_n1"] and not results["fast_sat_n2"]
              and results["brute_sat_n1"] and not results["brute_sat_n2"])
        _emit(args, {"suite": "cex", "verdict": "pass" if ok else "fail", **results},
              [f"counterexample suite: {'pass' if ok else 'fail'}"]
              + [f"  {k}: {v}" for k, v in results.items()])
        return 0 if ok else 1

    def in_difference(pa) -> bool:
        return brute_satisfies(pa, n1) and not brute_satisfies(pa, n2)

    if args.suite == "over":
        diff = over_diff(n1, n2)
        name = "over-approximation"
        report = check_inclusion_sampled(in_difference, lambda pa: brute_satisfies(pa, diff),
                                         n1, grid, args.limit)
    else:
        diff = under_diff(n1, n2, args.K)
        name = f"under-approximation (level {args.K})"
        report = check_inclusion_sampled(lambda pa: True, in_difference,
                                         diff, grid, args.limit)
    bad = [pa for pa, _ in report.violations]
    payload = {"suite": args.suite, "sampled": report.sampled,
               "violations": len(bad), "verdict": report.verdict}
    human = [f"{name} suite: sampled {report.sampled} implementations, "
             f"{len(bad)} violations -> {payload['verdict']}"]
    for pa in bad[:3]:
        human.append("  violating implementation:")
        human.extend("    " + line for line in serialize(pa).splitlines())
    _emit(args, payload, human)
    return 0 if not bad else 1


def cmd_export_dot(args) -> int:
    model = _load(args.input)
    _write(args.output, export_dot(model))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="apa-toolkit",
        description="Refinement, difference, distance, and counterexample analyses "
                    "for abstract probabilistic automata.")
    ap.add_argument("--max-iter", type=int, default=None,
                    help="cap on distance value-iteration sweeps")
    ap.add_argument("--budget", type=int, default=None,
                    help="cap on pair checks in each satisfaction search "
                         "(satisfy and the cex oracle suite)")
    ap.add_argument("--json", dest="as_json", action="store_true",
                    help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide refinement, diagnosing failures")
    p.add_argument("n1")
    p.add_argument("n2")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("diff-over", help="over-approximating difference")
    p.add_argument("n1")
    p.add_argument("n2")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_diff_over)

    p = sub.add_parser("diff-under", help="under-approximating difference")
    p.add_argument("n1")
    p.add_argument("n2")
    p.add_argument("-K", type=int, required=True, help="deferral depth")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_diff_under)

    p = sub.add_parser("distance", help="discounted behavioral distance")
    p.add_argument("n1")
    p.add_argument("n2")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--table", default=None,
                   help="also write the full state-pair table as CSV")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("counterexample", help="one separating implementation")
    p.add_argument("n1")
    p.add_argument("n2")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--provenance", default=None,
                   help="write a sidecar explaining every transition")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("satisfy", help="does the implementation satisfy the automaton?")
    p.add_argument("p")
    p.add_argument("n")
    p.set_defaults(func=cmd_satisfy)

    p = sub.add_parser("oracle-check", help="brute-force theorem suites")
    p.add_argument("suite", choices=("over", "under", "cex"))
    p.add_argument("n1")
    p.add_argument("n2")
    p.add_argument("--grid", type=int, default=10, help="grid denominator")
    p.add_argument("-K", type=int, default=1, help="deferral depth for the under suite")
    p.add_argument("--limit", type=int, default=None, help="cap on sampled implementations")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("export-dot", help="render a model as a DOT graph")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export_dot)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GridTooCoarseError, ResourceLimitError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
