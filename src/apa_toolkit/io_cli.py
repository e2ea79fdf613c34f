"""JSON model documents, DOT export, and the command-line surface.

Documents carry exact rationals as integers or "p/q" strings, matched in
full (no decimals, exponents or spaces); serialization is canonical (fixed
key order, rationals in lowest terms), so serialize(parse(text)) is
idempotent and parse(serialize(model)) reproduces the model including
product-state structure and derived constraints.

The reader checks every key against one table, `_SHAPES`, and names the
JSON path of the first value of the wrong shape.  A constraint has one
form per kind: {"linear": node} for a Boolean combination of linear atoms,
and {"derived": {...}} for the bot-lift, phi-B and phi-B-k constraints of
a difference.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Any

from . import constraints as C
from .counterexample import CexState, CounterexamplePA, counterexample
from .difference import DifferenceAPA, ProductState, over_diff, under_diff
from .distance import DistanceParams, syntactic_distance_table
from .errors import GridTooCoarseError, InputError, ResourceLimitError
from .model import APA, Modality, PA, make_apa, make_pa, validate, validate_pa
from .oracle import GridSpec, brute_satisfies, check_inclusion_sampled
from .refinement import CaseLabel, compute_refinement, satisfies

FORMAT_VERSION = 1

# The JSON shape of each document key: a type, (type, None) for a value that
# may also be null or absent, or [shape] for a list of that shape.  No key
# takes a bool, so true and false are not ints here.  `initial` is the one
# key whose shape depends on the kind: a name for a concrete automaton, a
# list of names for an abstract one.  Rationals (distribution masses, atom
# coefficients and right-hand sides) go through `_parse_frac`, and
# constraint nodes through `_node_from_doc`.
_SHAPES = {
    "format_version": int, "kind": (str, None), "ap": [str], "actions": [str],
    "states": [dict], "transitions": [dict], "constraints": dict, "difference": dict,
    "name": str, "s1": str, "s2": (str, None), "e": (str, None), "k": (int, None),
    "left": str, "matched": (str, None), "valuation": [str], "valuations": [[str]],
    "from": str, "to": (str, None), "action": str, "modality": str, "constraint": str,
    "distribution": dict, "derived": dict, "tag": str, "phi1": dict, "phi2": dict,
    "source_states": [str], "target_states": [str], "cells": [str], "succ": [dict],
    "b": [dict], "right": str, "atom": dict, "coeffs": dict, "rel": str,
    "all_of": list, "any_of": list, "source_initial": [str], "level": (int, None),
}

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _check(value, shape, where: str):
    """`value`, if it has `shape` (see `_SHAPES`); otherwise an input error
    naming `where`, or the first list entry that does not."""
    if isinstance(shape, list):
        for i, item in enumerate(_check(value, list, where)):
            _check(item, shape[0], f"{where}[{i}]")
        return value
    if isinstance(shape, tuple):
        if value is None:
            return value
        shape = shape[0]
    if isinstance(value, bool) or not isinstance(value, shape):
        raise InputError(f"{where}: expected {shape.__name__}, got {type(value).__name__}")
    return value


def _get(d: dict, key: str, where: str, default=None):
    """`d[key]`, or `default` when the key is absent, checked against its
    shape in `_SHAPES`; `where` is its JSON path."""
    return _check(d.get(key, default), _SHAPES[key], where)


# ---------------------------------------------------------------------------
# Rationals and state references
# ---------------------------------------------------------------------------


def _frac_str(x) -> str:
    return str(Fraction(x))


def _parse_frac(v, where: str) -> Fraction:
    """An integer, or a string of the form `_frac_str` writes."""
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if not (isinstance(v, str) and _RATIONAL.fullmatch(v)):
        raise InputError(f"{where}: rationals must be 'p/q' strings or integers, got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: bad rational {v!r} ({exc})")


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


_STATE_KINDS = {"product": (ProductState, ("s1", "s2", "e", "k")),
                "pair": (CexState, ("left", "matched"))}


def _state_from_doc(d: dict, where: str):
    """The state `d` describes.  A product or pair state must carry the name
    it prints as, so equal states cannot hide under different names."""
    name = _get(d, "name", f"{where}.name")
    kind = _get(d, "kind", f"{where}.kind")
    if kind is None:
        return name
    if kind not in _STATE_KINDS:
        raise InputError(f"{where}: unknown state kind {kind!r}")
    make, keys = _STATE_KINDS[kind]
    s = make(*(_get(d, key, f"{where}.{key}") for key in keys))
    if str(s) != name:
        raise InputError(f"{where}.name: expected {str(s)!r} for its fields, got {name!r}")
    return s


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
        a = _get(d, "atom", f"{where}: atom")
        rel = _get(a, "rel", f"{where}: atom.rel")
        if rel not in C.RELATIONS:
            raise InputError(f"{where}: unknown relation {rel!r} (want one of {C.RELATIONS})")
        coeffs = {table.get(k, k): _parse_frac(v, f"{where}: atom.coeffs[{k!r}]")
                  for k, v in _get(a, "coeffs", f"{where}: atom.coeffs", {}).items()}
        return C.atom(coeffs, rel, _parse_frac(a.get("rhs", 0), f"{where}: atom.rhs"))
    if "all_of" in d:
        return C.and_(*[_node_from_doc(i, table, where)
                        for i in _get(d, "all_of", f"{where}: all_of")])
    if "any_of" in d:
        return C.or_(*[_node_from_doc(i, table, where)
                       for i in _get(d, "any_of", f"{where}: any_of")])
    if "not" in d:
        return C.Not(_node_from_doc(d["not"], table, where))
    raise InputError(f"{where}: constraint node needs one of atom/all_of/any_of/not")


def _expr_from_doc(d: dict, table: dict, where: str):
    if "linear" in d:
        return _node_from_doc(d["linear"], table, where)
    if "derived" not in d:
        raise InputError(f"{where}: constraint needs one of linear/derived")
    spec = _get(d, "derived", at := f"{where}.derived")
    tag = _get(spec, "tag", f"{at}.tag")
    if tag not in ("bot-lift", "phi-B", "phi-B-k"):
        raise InputError(f"{where}: unknown derived constraint tag {tag!r}")
    cells = tuple(table.get(c) for c in _get(spec, "cells", f"{at}.cells", []))
    if not all(isinstance(c, ProductState) for c in cells):
        raise InputError(f"{at}.cells: every cell must name a product state")
    source = tuple(_get(spec, "source_states", f"{at}.source_states", []))
    phi1 = _expr_from_doc(_get(spec, "phi1", f"{at}.phi1"), table, f"{at}.phi1")
    if tag == "bot-lift":
        return C.make_bot_lift(phi1, source, cells)
    phi2 = _expr_from_doc(_get(spec, "phi2", f"{at}.phi2"), table, f"{at}.phi2")
    target = tuple(_get(spec, "target_states", f"{at}.target_states", []))
    if any(c.s1 not in source or c.s2 not in target + (None,) for c in cells):
        raise InputError(f"{at}.cells: every cell must pair a source state with a target "
                         f"state or bot")
    succ = {_get(e, "from", f"{at}.succ[{i}].from"): _get(e, "to", f"{at}.succ[{i}].to")
            for i, e in enumerate(_get(spec, "succ", f"{at}.succ", []))}
    b_map = {(_get(e, "left", f"{at}.b[{i}].left"), _get(e, "right", f"{at}.b[{i}].right")):
             tuple(_get(e, "actions", f"{at}.b[{i}].actions", []))
             for i, e in enumerate(_get(spec, "b", f"{at}.b", []))}
    k = _get(spec, "k", f"{at}.k") if tag == "phi-B-k" else None
    if tag == "phi-B-k" and k is None:
        raise InputError(f"{where}: phi-B-k needs a level k")
    return C.make_phi_B(phi1, phi2, source, target, succ, b_map, cells, k)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def to_document(model: APA | PA) -> dict:
    concrete = isinstance(model, PA)
    doc = {"format_version": FORMAT_VERSION, "kind": "pa" if concrete else "apa",
           "ap": list(model.ap), "actions": list(model.actions)}
    if concrete:
        doc["states"] = [dict(_state_doc(s), valuation=sorted(model.valuation_of(s)))
                         for s in model.states]
        doc["initial"] = _ref(model.initial)
        doc["transitions"] = [
            {"from": _ref(t.source), "action": t.action,
             "distribution": {_ref(s): _frac_str(m) for s, m in t.distribution.items}}
            for t in model.transitions]
        return doc
    doc["states"] = [dict(_state_doc(s), valuations=[sorted(v) for v in model.valuations(s)])
                     for s in model.states]
    doc["initial"] = [_ref(s) for s in model.initial]
    doc["transitions"] = [
        {"from": _ref(t.source), "action": t.action,
         "modality": t.modality.value, "constraint": t.constraint_id}
        for t in model.transitions]
    doc["constraints"] = {cid: _expr_doc(expr) for cid, expr in model.constraints}
    if isinstance(model, DifferenceAPA):
        doc["difference"] = {
            "source_initial": [_ref(s) for s in model.source_initial],
            "level": model.level}
    return doc


def from_document(doc: dict) -> APA | PA:
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    version = _get(doc, "format_version", "format_version")
    if version != FORMAT_VERSION:
        raise InputError(f"format_version: expected {FORMAT_VERSION}, got {version!r}")
    kind = _get(doc, "kind", "kind")
    if kind not in ("apa", "pa"):
        raise InputError(f"kind: expected 'apa' or 'pa', got {kind!r}")
    concrete = kind == "pa"

    table: dict[str, Any] = {}
    labeling = {}
    for i, sd in enumerate(_get(doc, "states", "states", [])):
        s = _state_from_doc(sd, where := f"states[{i}]")
        if sd["name"] in table:
            raise InputError(f"{where}: duplicate state name {sd['name']!r}")
        table[sd["name"]] = s
        labeling[s] = (_get(sd, "valuation", f"{where}.valuation", []) if concrete
                       else _get(sd, "valuations", f"{where}.valuations"))
    states = list(table.values())

    def resolve(name: str, where: str):
        if name not in table:
            raise InputError(f"{where}: unknown state {name!r}")
        return table[name]

    common = {"states": states, "labeling": labeling,
              "actions": _get(doc, "actions", "actions", []), "ap": _get(doc, "ap", "ap", [])}
    transitions = []
    for i, td in enumerate(_get(doc, "transitions", "transitions", [])):
        where = f"transitions[{i}]"
        src = resolve(_get(td, "from", f"{where}.from"), where)
        action = _get(td, "action", f"{where}.action")
        if concrete:
            transitions.append((src, action, {
                resolve(k, where): _parse_frac(v, f"{where}.distribution[{k!r}]")
                for k, v in _get(td, "distribution", f"{where}.distribution", {}).items()}))
            continue
        mod = _get(td, "modality", f"{where}.modality")
        if mod not in ("must", "may"):
            raise InputError(f"{where}: unknown modality {mod!r} (want 'must' or 'may')")
        transitions.append((src, action, _get(td, "constraint", f"{where}.constraint"),
                            Modality(mod)))

    if concrete:
        initial = resolve(_check(doc.get("initial"), str, "initial"), "initial")
        model = make_pa(transitions=transitions, initial=initial, **common)
        report = validate_pa(model)
    else:
        constraints = {
            cid: _expr_from_doc(_check(cd, dict, at := f"constraints[{cid!r}]"), table, at)
            for cid, cd in _get(doc, "constraints", "constraints", {}).items()}
        initial = [resolve(s, "initial") for s in _check(doc.get("initial", []), [str], "initial")]
        model = make_apa(transitions=transitions, initial=initial, constraints=constraints,
                         **common)
        if "difference" in doc:
            diff = _get(doc, "difference", "difference")
            model = DifferenceAPA(model.states, model.actions, model.ap, model.labeling,
                                  model.transitions, model.initial, model.constraints,
                                  source_initial=tuple(_get(diff, "source_initial",
                                                            "difference.source_initial", [])),
                                  level=_get(diff, "level", "difference.level"))
        report = validate(model)
    if not report.ok:
        raise InputError("; ".join(report.errors))
    return model


def serialize(model: APA | PA) -> str:
    return json.dumps(to_document(model), indent=2) + "\n"


def parse(text: str) -> APA | PA:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer literal longer than int() may read
        raise InputError(str(exc))
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
    concrete = isinstance(model, PA)
    initial = {model.initial} if concrete else set(model.initial)
    lines = ["digraph model {", "  rankdir=LR;", '  node [shape=box];']
    for s in model.states:
        vals = [model.valuation_of(s)] if concrete else model.valuations(s)
        label = f"{s}\\n{'|'.join(_val_text(v) for v in vals) or '(none)'}"
        extra = ", peripheries=2" if s in initial else ""
        lines.append(f"  {_dot_quote(str(s))} [label=\"{label}\"{extra}];")
    for t in model.transitions:
        if concrete:
            targets = " ".join(_dot_quote(str(s)) for s, _ in t.distribution.items)
            masses = ", ".join(f"{s}:{m}" for s, m in t.distribution.items)
            lines.append(f"  {_dot_quote(str(t.source))} -> {{{targets}}} "
                         f"[label={_dot_quote(f'{t.action}: {masses}')}, style=solid];")
            continue
        expr = model.constraint(t.constraint_id)
        targets = C.supportable_states(expr, model.states)
        style = "solid" if t.modality is Modality.MUST else "dashed"
        label = f"{t.action} [{t.constraint_id}]"
        if not targets:
            targets = [f"{t.constraint_id}_unsat"]
            lines.append(f"  {_dot_quote(targets[0])} [label=\"unsatisfiable\", shape=plaintext];")
        tgt = " ".join(_dot_quote(str(s)) for s in targets)
        lines.append(f"  {_dot_quote(str(t.source))} -> {{{tgt}}} "
                     f"[label=\"{label}\", style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


_KIND_TEXT = {"apa": "an abstract", "pa": "a concrete"}


def _load(path: str, kind: str | None = None) -> APA | PA:
    """The model in the document at `path`; with `kind` ("apa" or "pa"),
    an input error unless it is of that kind."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    try:
        model = parse(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}")
    found = "pa" if isinstance(model, PA) else "apa"
    if kind not in (None, found):
        raise InputError(f"{path}: expected {_KIND_TEXT[kind]} automaton, "
                         f"found {_KIND_TEXT[found]} one")
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
    n1, n2 = _load(args.n1, "apa"), _load(args.n2, "apa")
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


def cmd_diff(args) -> int:
    """diff-over, or diff-under when a level -K is given."""
    n1, n2 = _load(args.n1, "apa"), _load(args.n2, "apa")
    if args.K is None:
        diff, what, level = over_diff(n1, n2), "over-approximating difference", {}
    else:
        diff = under_diff(n1, n2, args.K)
        what, level = f"under-approximating difference (level {args.K})", {"level": args.K}
    _write(args.output, serialize(diff))
    _emit(args, {"states": len(diff.states), **level, "output": args.output},
          [f"wrote {what} with {len(diff.states)} states"])
    return 0


def cmd_distance(args) -> int:
    n1, n2 = _load(args.n1, "apa"), _load(args.n2, "apa")
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
    n1, n2 = _load(args.n1, "apa"), _load(args.n2, "apa")
    cex = counterexample(n1, n2)
    _write(args.output, serialize(cex))
    if args.provenance:
        _write(args.provenance, json.dumps(provenance_document(cex), indent=2) + "\n")
    _emit(args, {"states": len(cex.states), "transitions": len(cex.transitions),
                 "output": args.output},
          [f"wrote separating implementation with {len(cex.states)} states"])
    return 0


def cmd_satisfy(args) -> int:
    p, n = _load(args.p, "pa"), _load(args.n, "apa")
    ok = satisfies(p, n, budget=args.budget)[0]
    _emit(args, {"satisfies": ok}, [f"satisfies: {'true' if ok else 'false'}"])
    return 0 if ok else 1


def cmd_oracle_check(args) -> int:
    n1, n2 = _load(args.n1, "apa"), _load(args.n2, "apa")
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
    p.set_defaults(func=cmd_diff, K=None)

    p = sub.add_parser("diff-under", help="under-approximating difference")
    p.add_argument("n1")
    p.add_argument("n2")
    p.add_argument("-K", type=int, required=True, help="deferral depth")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_diff)

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
