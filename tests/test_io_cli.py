"""JSON round trips, DOT export, and the command-line surface."""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from apa_toolkit import io_cli
from apa_toolkit import constraints as C
from apa_toolkit.counterexample import counterexample
from apa_toolkit.difference import over_diff, under_diff
from apa_toolkit.errors import InputError
from apa_toolkit.io_cli import (export_dot, from_document, main, parse,
                                provenance_document, serialize, to_document)
from apa_toolkit.model import Modality, make_apa
from tests.fixtures import (deferral_pair, incomparable_pairs,
                            interval_implementation_diff, interval_implementation_in,
                            interval_pair, may_gap_pair)
from tests.test_cli_golden import GOLDEN, _pairs


# ---------------------------------------------------------------- round trips

def _all_fixture_models():
    yield from interval_pair()
    yield from deferral_pair()
    yield from may_gap_pair()


def test_apa_round_trip():
    for m in _all_fixture_models():
        assert parse(serialize(m)) == m


def test_pa_round_trip():
    p = interval_implementation_diff()
    assert parse(serialize(p)) == p


def test_difference_round_trip_preserves_extras():
    n1, n2 = interval_pair()
    for d in (over_diff(n1, n2), under_diff(n1, n2, 2)):
        back = parse(serialize(d))
        assert back == d
        assert back.source_initial == d.source_initial
        assert back.level == d.level


def test_counterexample_round_trips_at_document_level():
    n1, n2 = interval_pair()
    cex = counterexample(n1, n2)
    assert to_document(parse(serialize(cex))) == to_document(cex)
    prov = provenance_document(cex)
    assert prov["format_version"] == io_cli.FORMAT_VERSION
    assert prov["transitions"]
    assert all(set(row) == {"from", "action", "row", "mu1"}
               for row in prov["transitions"])


def test_serialize_parse_is_idempotent():
    m = interval_pair()[0]
    once = serialize(m)
    assert serialize(parse(once)) == once


_GOLDEN_MODELS = sorted(p for p in GOLDEN.glob("*/*.json") if "provenance" not in p.name)


@pytest.mark.parametrize("path", _GOLDEN_MODELS,
                         ids=[f"{p.parent.name}/{p.name}" for p in _GOLDEN_MODELS])
def test_golden_documents_read_back_to_the_same_bytes(path):
    """Every committed concrete, difference and counterexample document is a
    form the reader accepts and writes back unchanged."""
    text = path.read_text()
    assert serialize(parse(text)) == text


def test_golden_documents_are_all_there():
    assert len(_GOLDEN_MODELS) == 12


# ---------------------------------------------------------------- bad inputs

def test_rejects_wrong_format_version():
    doc = to_document(interval_pair()[0])
    doc["format_version"] = 999
    with pytest.raises(InputError, match="format_version"):
        from_document(doc)


def test_rejects_unknown_kind():
    doc = to_document(interval_pair()[0])
    doc["kind"] = "automaton"
    with pytest.raises(InputError, match="kind"):
        from_document(doc)


def test_rejects_float_rationals():
    doc = json.loads(serialize(interval_implementation_diff()))
    dist = doc["transitions"][0]["distribution"]
    dist[next(iter(dist))] = 0.3
    with pytest.raises(InputError, match="rationals must be"):
        from_document(doc)


def test_rejects_unknown_modality_naming_the_field():
    doc = json.loads(serialize(interval_pair()[0]))
    doc["transitions"][0]["modality"] = "maybe"
    with pytest.raises(InputError, match="modality.*maybe"):
        from_document(doc)


def test_rejects_duplicate_state_names():
    doc = json.loads(serialize(interval_pair()[0]))
    doc["states"].append(doc["states"][0])
    with pytest.raises(InputError, match="duplicate"):
        from_document(doc)


def test_rejects_unknown_state_reference():
    doc = json.loads(serialize(interval_pair()[0]))
    doc["initial"] = ["ghost"]
    with pytest.raises(InputError, match="ghost"):
        from_document(doc)


def test_rationals_are_integers_or_p_over_q_strings():
    for good, value in ((1, F(1)), (-2, F(-2)), ("7", F(7)), ("-3/6", F(-1, 2))):
        assert io_cli._parse_frac(good, "x") == value
    for bad in ("1e9999", "1E5", "0.5", " 1/2", "1/2 ", "+1", "1_0", "1/-2", "\u0661", True, 0.5):
        with pytest.raises(InputError, match="x: rationals must be"):
            io_cli._parse_frac(bad, "x")
    with pytest.raises(InputError, match="x: bad rational '1/0'"):
        io_cli._parse_frac("1/0", "x")


def test_parse_reports_json_position():
    with pytest.raises(InputError, match=r"line 1, column"):
        parse("{not json")


def test_parse_rejects_an_integer_literal_past_the_digit_limit():
    with pytest.raises(InputError, match="digits"):
        parse('{"format_version": ' + "1" * 5000 + "}")


# ---------------------------------------------------------------- DOT export

def test_dot_export_structure():
    n1, _ = interval_pair()
    dot = export_dot(n1)
    assert dot.startswith("digraph")
    # One node statement per state (each label is name\nvaluation).
    assert dot.count("\\n") == len(n1.states)
    assert dot.count("peripheries=2") == len(n1.initial)
    assert dot.count("->") == len(n1.transitions)
    assert "style=solid" in dot             # the required transition
    assert '"s0" ->' in dot


def test_dot_export_dashed_for_optional_transitions():
    m1, _ = may_gap_pair()
    dot = export_dot(m1)
    assert "style=dashed" in dot and "style=solid" in dot


def test_dot_export_concrete_automaton():
    p = interval_implementation_diff()
    dot = export_dot(p)
    assert dot.count("->") == len(p.transitions)
    assert "3/10" in dot and "7/10" in dot


def test_dot_export_isolated_state():
    n = make_apa(states=["s"], actions=["a"], ap=["p"], labeling={"s": [[]]},
                 transitions=[], initial=["s"], constraints={})
    dot = export_dot(n)
    assert '"s"' in dot and "->" not in dot


def test_dot_flags_unsatisfiable_constraints():
    n = make_apa(states=["s", "t"], actions=["a"], ap=["p"],
                 labeling={"s": [[]], "t": [["p"]]},
                 transitions=[("s", "a", "c", Modality.MUST)], initial=["s"],
                 constraints={"c": C.FALSE})
    assert "unsat" in export_dot(n)


# ---------------------------------------------------------------- CLI surface

def _write_fixture(tmp_path, name, model):
    path = tmp_path / name
    path.write_text(serialize(model))
    return str(path)


def test_cli_check_exit_codes_and_json(tmp_path, capsys):
    n1, n2 = interval_pair()
    f1 = _write_fixture(tmp_path, "n1.json", n1)
    f2 = _write_fixture(tmp_path, "n2.json", n2)

    assert main(["check", f1, f1]) == 0
    capsys.readouterr()

    assert main(["--json", "check", f1, f2]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["refines"] is False
    assert payload["diagnosis"]


def test_cli_check_exits_2_on_inputs_refinement_rejects(tmp_path, capsys):
    d1, d2 = deferral_pair()
    cases = [(n1, n2, message) for n1, n2, _, message in incomparable_pairs()]
    cases.append((under_diff(d1, d2, 1), d2, "left automaton is not deterministic"))
    for i, (n1, n2, message) in enumerate(cases):
        f1 = _write_fixture(tmp_path, f"left{i}.json", n1)
        f2 = _write_fixture(tmp_path, f"right{i}.json", n2)
        assert main(["check", f1, f2]) == 2
        assert message in capsys.readouterr().err


def test_cli_diff_over_writes_loadable_model(tmp_path, capsys):
    n1, n2 = interval_pair()
    f1 = _write_fixture(tmp_path, "n1.json", n1)
    f2 = _write_fixture(tmp_path, "n2.json", n2)
    out = tmp_path / "over.json"
    assert main(["diff-over", f1, f2, "-o", str(out)]) == 0
    assert parse(out.read_text()) == over_diff(n1, n2)


def test_cli_diff_under_level(tmp_path):
    n1, n2 = deferral_pair()
    f1 = _write_fixture(tmp_path, "d1.json", n1)
    f2 = _write_fixture(tmp_path, "d2.json", n2)
    out = tmp_path / "under.json"
    assert main(["diff-under", f1, f2, "-K", "3", "-o", str(out)]) == 0
    assert parse(out.read_text()).level == 3


def test_cli_distance_value_and_table(tmp_path, capsys):
    n1, n2 = interval_pair()
    f1 = _write_fixture(tmp_path, "n1.json", n1)
    f2 = _write_fixture(tmp_path, "n2.json", n2)
    table = tmp_path / "d.csv"
    assert main(["--json", "distance", f1, f2, "--lambda", "0.5",
                 "--table", str(table)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["syntactic_distance"] - 0.05) <= 1e-9
    assert payload["converged"] is True
    rows = table.read_text().strip().splitlines()
    assert rows[0] == "s1,s2,value,guaranteed_error"
    assert len(rows) == 1 + len(n1.states) * len(n2.states)


def test_cli_counterexample_and_satisfy(tmp_path, capsys):
    n1, n2 = interval_pair()
    f1 = _write_fixture(tmp_path, "n1.json", n1)
    f2 = _write_fixture(tmp_path, "n2.json", n2)
    cex = tmp_path / "cex.json"
    prov = tmp_path / "prov.json"
    assert main(["counterexample", f1, f2, "-o", str(cex),
                 "--provenance", str(prov)]) == 0
    assert json.loads(prov.read_text())["transitions"]
    capsys.readouterr()

    # The witness satisfies the left side and refutes the right side.
    assert main(["satisfy", str(cex), f1]) == 0
    assert main(["satisfy", str(cex), f2]) == 1


def test_cli_oracle_check_over(tmp_path, capsys):
    n1, n2 = interval_pair()
    f1 = _write_fixture(tmp_path, "n1.json", n1)
    f2 = _write_fixture(tmp_path, "n2.json", n2)
    assert main(["--json", "oracle-check", "over", f1, f2,
                 "--grid", "10", "--limit", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sampled"] > 0 and payload["violations"] == 0
    assert payload["verdict"] == "pass"


def test_cli_oracle_check_under(tmp_path, capsys):
    n1, n2 = deferral_pair()
    f1 = _write_fixture(tmp_path, "d1.json", n1)
    f2 = _write_fixture(tmp_path, "d2.json", n2)
    assert main(["--json", "oracle-check", "under", f1, f2, "-K", "2",
                 "--grid", "4", "--limit", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"suite": "under", "sampled": 5, "violations": 0, "verdict": "pass"}
    assert main(["oracle-check", "under", f1, f2, "--grid", "4", "--limit", "3"]) == 0
    assert capsys.readouterr().out == ("under-approximation (level 1) suite: sampled 3 "
                                       "implementations, 0 violations -> pass\n")


def test_cli_oracle_check_cex(tmp_path, capsys):
    n1, n2 = interval_pair()
    f1 = _write_fixture(tmp_path, "n1.json", n1)
    f2 = _write_fixture(tmp_path, "n2.json", n2)
    assert main(["--json", "oracle-check", "cex", f1, f2]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"suite": "cex", "verdict": "pass",
                       "fast_sat_n1": True, "fast_sat_n2": False,
                       "brute_sat_n1": True, "brute_sat_n2": False}


def test_cli_oracle_check_negative_limit_exits_2(tmp_path, capsys):
    n1, n2 = interval_pair()
    f1 = _write_fixture(tmp_path, "n1.json", n1)
    f2 = _write_fixture(tmp_path, "n2.json", n2)
    for suite in ("over", "under"):
        assert main(["oracle-check", suite, f1, f2, "--limit", "-1"]) == 2
        assert "sample limit" in capsys.readouterr().err


def test_cli_distance_max_iter(tmp_path, capsys):
    n1, n2 = deferral_pair()
    f1 = _write_fixture(tmp_path, "d1.json", n1)
    f2 = _write_fixture(tmp_path, "d2.json", n2)
    for bad in ("0", "-3"):
        assert main(["--max-iter", bad, "--json", "distance", f1, f2]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "iteration cap" in captured.err
    assert main(["--max-iter", "1", "--json", "distance", f1, f2]) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 1


def test_cli_global_options():
    flags = {opt for action in io_cli.build_parser()._actions
             for opt in action.option_strings}
    assert flags == {"-h", "--help", "--max-iter", "--budget", "--json"}


def test_cli_export_dot(tmp_path):
    n1, _ = interval_pair()
    f1 = _write_fixture(tmp_path, "n1.json", n1)
    out = tmp_path / "n1.dot"
    assert main(["export-dot", f1, "-o", str(out)]) == 0
    assert out.read_text() == export_dot(n1)


def test_cli_missing_file_exits_2(capsys):
    assert main(["check", "/nonexistent/a.json", "/nonexistent/b.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_document_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format_version\": 1}")
    assert main(["check", str(bad), str(bad)]) == 2


@pytest.mark.parametrize("key, value", [
    ("transitions", 3), ("actions", 3), ("initial", 5), ("states", "s0"),
    ("ap", {}), ("constraints", []), ("difference", []), ("initial", "s0")])
def test_cli_malformed_top_level_field_exits_2_naming_it(tmp_path, capsys, key, value):
    """A field of the wrong shape is an input error (exit 2), not a crash
    with the exit code 1 of a valid "does not refine"."""
    n1, n2 = interval_pair()
    doc = to_document(n1)
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = _write_fixture(tmp_path, "n2.json", n2)
    assert main(["check", str(bad), good]) == 2
    assert f"{key}: expected " in capsys.readouterr().err


def _set(path, value):
    """Set the field at `path` (keys and indexes) of a document to `value`."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


_ATOM = ("constraints", "phi1", "linear", "all_of", 0, "atom")


@pytest.mark.parametrize("edit, message", [
    (_set(("transitions", 0), 3), "transitions[0]: expected dict, got int"),
    (_set(_ATOM + ("coeffs",), 3), "constraints['phi1']: atom.coeffs: expected dict, got int"),
    (_set(_ATOM, 3), "constraints['phi1']: atom: expected dict, got int"),
    (_set(_ATOM[:4], 3), "constraints['phi1']: all_of: expected list, got int"),
    (_set(("transitions", 0, "constraint"), []),
     "transitions[0].constraint: expected str, got list"),
    (_set(("states", 1, "valuations"), ["pq"]), "states[1].valuations[0]: expected list, got str"),
], ids=["transition", "coeffs", "atom", "all_of", "constraint", "valuation"])
def test_cli_malformed_nested_field_exits_2_naming_it(tmp_path, capsys, edit, message):
    """A nested field of the wrong shape is an input error naming its path,
    not a crash, and not a string read as the set of its letters."""
    n1, n2 = interval_pair()
    doc = to_document(n1)
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = _write_fixture(tmp_path, "n2.json", n2)
    assert main(["check", str(bad), good]) == 2
    assert message in capsys.readouterr().err


_PHI_B = ("constraints", "phiB(s0|t0|a|1)", "derived")


@pytest.mark.parametrize("model, edit, path", [
    ("interval", _set(("states", 0, "name"), ["s0"]), "states[0].name"),
    ("interval", _set(("ap", 0), ["p"]), "ap[0]"),
    ("interval", _set(("transitions", 0, "action"), ["a"]), "transitions[0].action"),
    ("under", _set(("states", 0, "s1"), ["s0"]), "states[0].s1"),
    ("under", _set(_PHI_B + ("succ",), 3), "constraints['phiB(s0|t0|a|1)'].derived.succ"),
    ("under", _set(_PHI_B + ("b",), 3), "constraints['phiB(s0|t0|a|1)'].derived.b"),
    ("under", _set(_PHI_B + ("cells",), 3), "constraints['phiB(s0|t0|a|1)'].derived.cells"),
    ("under", _set(_PHI_B + ("source_states",), 3),
     "constraints['phiB(s0|t0|a|1)'].derived.source_states"),
    ("under", _set(_PHI_B + ("succ",), [3]), "constraints['phiB(s0|t0|a|1)'].derived.succ[0]"),
    ("under", _set(_PHI_B + ("k",), "x"), "constraints['phiB(s0|t0|a|1)'].derived.k"),
], ids=["name", "ap", "action", "s1", "succ", "b", "cells", "source_states", "succ-entry", "k"])
def test_cli_malformed_model_field_deep_in_a_document_exits_2_naming_it(
        tmp_path, capsys, model, edit, path):
    """Unhashable names and misshapen derived-constraint fields are input
    errors naming their path, on a fixture and on a difference document."""
    n1, n2 = interval_pair()
    doc = to_document(n1 if model == "interval" else under_diff(n1, n2, 1))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), _write_fixture(tmp_path, "n2.json", n2)]) == 2
    assert f"{path}: expected " in capsys.readouterr().err


def test_concrete_valuation_must_be_a_list():
    doc = to_document(interval_implementation_in())
    doc["states"][0]["valuation"] = "p"
    with pytest.raises(InputError, match=r"states\[0\]\.valuation: expected list, got str"):
        from_document(doc)


def test_cli_malformed_concrete_initial_exits_2(tmp_path, capsys):
    doc = to_document(interval_implementation_in())
    doc["initial"] = ["s0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["satisfy", str(bad), _write_fixture(tmp_path, "n.json", interval_pair()[0])]) == 2
    assert "initial: expected str" in capsys.readouterr().err


def test_cli_grid_too_coarse_exits_3(tmp_path, capsys):
    n = make_apa(states=["s", "t"], actions=["a"], ap=["p"],
                 labeling={"s": [[]], "t": [["p"]]},
                 transitions=[("s", "a", "c", Modality.MUST)], initial=["s"],
                 constraints={"c": C.point_constraint({"t": F(1, 4), "s": F(3, 4)})})
    f1 = _write_fixture(tmp_path, "coarse.json", n)
    f2 = _write_fixture(tmp_path, "other.json", interval_pair()[1])
    assert main(["oracle-check", "over", f1, f2, "--grid", "10"]) == 3
    assert "grid" in capsys.readouterr().err.lower()


def test_cli_wrong_model_kind_exits_2(tmp_path, capsys):
    p = _write_fixture(tmp_path, "pa.json", interval_implementation_diff())
    n = _write_fixture(tmp_path, "apa.json", interval_pair()[0])
    assert main(["check", p, n]) == 2
    assert main(["satisfy", n, n]) == 2


def test_cli_budget_caps_satisfaction_without_touching_the_environment(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("APA_TOOLKIT_BUDGET", raising=False)
    n1, _ = interval_pair()
    f1 = _write_fixture(tmp_path, "n1.json", n1)
    p = _write_fixture(tmp_path, "p.json", interval_implementation_diff())
    assert main(["--budget", "1", "satisfy", p, f1]) == 3
    assert "pair checks" in capsys.readouterr().err
    assert "APA_TOOLKIT_BUDGET" not in os.environ
    assert main(["satisfy", p, f1]) == 0


def test_cli_unknown_relation_names_the_constraint(tmp_path, capsys):
    doc = json.loads(serialize(interval_pair()[0]))
    doc["constraints"]["phi1"] = {"linear": {"atom": {
        "coeffs": {"s1": "1"}, "rel": "!=", "rhs": "1/2"}}}
    path = tmp_path / "ne.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), str(path)]) == 2
    err = capsys.readouterr().err
    assert "constraints['phi1']: unknown relation '!='" in err
    assert "want one of" in err


def test_cli_exponent_rational_exits_2_naming_its_path(tmp_path, capsys):
    """Fraction reads "1e9999" as a 10,000-digit integer, which the writer
    then cannot print; the reader takes integers and "p/q" only."""
    n1, n2 = interval_pair()
    doc = to_document(n1)
    _set(_ATOM + ("coeffs", "s1"), "1e9999")(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "over.json"
    assert main(["diff-over", str(bad), _write_fixture(tmp_path, "n2.json", n2),
                 "-o", str(out)]) == 2
    assert "constraints['phi1']: atom.coeffs['s1']: rationals must be" in capsys.readouterr().err
    assert not out.exists()


_UNDER_PHI_B = ("constraints", "phiB(s0|t0|a|1)", "derived")


@pytest.mark.parametrize("model, path", [
    ("interval", ("format_version",)),
    ("under", ("states", 0, "k")),
    ("under", _UNDER_PHI_B + ("k",)),
    ("under", ("difference", "level")),
], ids=["format_version", "state-k", "derived-k", "level"])
def test_cli_bool_in_an_int_field_exits_2(tmp_path, capsys, model, path):
    """true is not the int 1: a product state at level true would equal the
    one at level 1."""
    n1, n2 = interval_pair()
    doc = to_document(n1 if model == "interval" else under_diff(n1, n2, 1))
    _set(path, True)(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["export-dot", str(bad), "-o", str(tmp_path / "out.dot")]) == 2
    assert "expected int, got bool" in capsys.readouterr().err


def test_cli_distance_nan_tolerance_exits_2(tmp_path, capsys):
    n1, n2 = interval_pair()
    f1 = _write_fixture(tmp_path, "n1.json", n1)
    f2 = _write_fixture(tmp_path, "n2.json", n2)
    assert main(["--max-iter", "5", "distance", f1, f2, "--eps", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "convergence tolerance must be positive" in captured.err


@pytest.mark.parametrize("constraint", [
    {"point": {"s1": "1"}},
    {"interval": {"bounds": {"s1": ["0", "1"]}}},
    {"atom": {"coeffs": {"s1": "1"}, "rel": "==", "rhs": "1"}},
    True,
], ids=["point", "interval", "bare-node", "bare-true"])
def test_cli_constraint_forms_the_writer_does_not_write_exit_2(tmp_path, capsys, constraint):
    doc = to_document(interval_pair()[0])
    doc["constraints"]["phi1"] = constraint
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), str(bad)]) == 2
    assert "constraints['phi1']: " in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (_set(("states", 0, "name"), "s0|t0|a|2"),
     "states[0].name: expected 's0|t0|a|1' for its fields, got 's0|t0|a|2'"),
    (_set(_UNDER_PHI_B + ("cells", 0), "ghost"), ".derived.cells: every cell must name"),
    (_set(_UNDER_PHI_B + ("target_states",), []), ".derived.cells: every cell must pair"),
], ids=["product-name", "cell-name", "cell-target"])
def test_cli_difference_document_out_of_step_with_its_states_exits_2(
        tmp_path, capsys, edit, message):
    """A product state is named by its fields, and a derived constraint's
    cells are product states over its source and target states."""
    n1, n2 = interval_pair()
    doc = to_document(under_diff(n1, n2, 1))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["export-dot", str(bad), "-o", str(tmp_path / "out.dot")]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------- fuzz gate

_FUZZ_PAIRS = ("interval", "deferral", "may_gap", "random26")
_FUZZ_INPUTS = {"cex.json": "counterexample.cex.json", "over.json": "diff-over.over.json",
                "under3.json": "diff-under.under3.json"}
_FUZZ_COMMANDS = {
    "check": ["check", "n1.json", "n2.json"],
    "diff-over": ["diff-over", "n1.json", "n2.json", "-o", "out.json"],
    "diff-under": ["diff-under", "n1.json", "n2.json", "-K", "2", "-o", "out.json"],
    "distance": ["--max-iter", "50", "distance", "n1.json", "n2.json"],
    "counterexample": ["counterexample", "n1.json", "n2.json", "-o", "out.json"],
    "satisfy": ["satisfy", "cex.json", "over.json"],
    "oracle-check cex": ["oracle-check", "cex", "n1.json", "n2.json"],
    "oracle-check over": ["oracle-check", "over", "n1.json", "n2.json", "--limit", "3"],
    "export-dot": ["export-dot", "under3.json", "-o", "out.dot"],
}
_FUZZ_POOL = (None, True, False, 0, -1, 0.5, float("nan"), 1e300, [], {}, [[]], [3],
              {"ghost": 1}, "1/0", "1e9999", "ghost", "s0")


def _fuzz_documents() -> dict:
    docs = {}
    for name, (n1, n2) in _pairs().items():
        if name in _FUZZ_PAIRS:
            docs[name] = {"n1.json": to_document(n1), "n2.json": to_document(n2),
                          **{f: json.loads((GOLDEN / name / g).read_text())
                             for f, g in _FUZZ_INPUTS.items()}}
    return docs


def _json_paths(value, prefix=()):
    """Every key and index path inside a JSON value."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_FUZZ_DOCS = _fuzz_documents()


@st.composite
def _fuzz_cases(draw):
    pair = draw(st.sampled_from(_FUZZ_PAIRS))
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    name = draw(st.sampled_from([a for a in _FUZZ_COMMANDS[command] if a in _FUZZ_DOCS[pair]]))
    path = draw(st.sampled_from(list(_json_paths(_FUZZ_DOCS[pair][name]))))
    edit = draw(st.one_of(st.just(("delete",)),
                          st.sampled_from(_FUZZ_POOL).map(lambda v: ("set", v))))
    return pair, command, name, path, edit


@pytest.mark.filterwarnings("ignore:optional transition")
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(case=_fuzz_cases())
# Rejected at the parse: an exponent rational, a bool level that made two
# product states equal, a product state without its kind, and a cell
# outside its constraint's target states.
@example(case=("interval", "diff-over", "n1.json", _ATOM + ("coeffs", "s1"), ("set", "1e9999")))
@example(case=("interval", "export-dot", "under3.json", ("states", 4, "k"), ("set", True)))
@example(case=("interval", "satisfy", "over.json", ("states", 3, "kind"), ("delete",)))
@example(case=("deferral", "export-dot", "under3.json",
               ("constraints", "phiB(u0|v0|a|1)", "derived", "target_states", 1), ("set", "1/0")))
def test_cli_survives_one_edit_anywhere_in_a_document(case):
    """One deleted or replaced value anywhere in a fixture document, read by
    any subcommand: the exit code is 0-3 and no exception escapes `main`."""
    pair, command, name, path, edit = case
    docs = json.loads(json.dumps(_FUZZ_DOCS[pair]))
    *parents, last = path
    node = docs[name]
    for key in parents:
        node = node[key]
    if edit[0] == "delete":
        del node[last]
    else:
        node[last] = edit[1]
    with tempfile.TemporaryDirectory() as tmp:
        for file, doc in docs.items():
            with open(os.path.join(tmp, file), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        argv = [os.path.join(tmp, a) if a.endswith((".json", ".dot")) else a
                for a in _FUZZ_COMMANDS[command]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)
