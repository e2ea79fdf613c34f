"""JSON round trips, DOT export, and the command-line surface."""
from __future__ import annotations

import json
import os
from fractions import Fraction as F

import pytest

from apa_toolkit import io_cli
from apa_toolkit import constraints as C
from apa_toolkit.counterexample import counterexample
from apa_toolkit.difference import over_diff, under_diff
from apa_toolkit.errors import InputError
from apa_toolkit.io_cli import (export_dot, from_document, main, parse,
                                provenance_document, serialize, to_document)
from apa_toolkit.model import Modality, make_apa, make_pa
from tests.fixtures import (deferral_pair, interval_implementation_diff,
                            interval_pair, may_gap_pair)


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


def test_parse_reports_json_position():
    with pytest.raises(InputError, match=r"line 1, column"):
        parse("{not json")


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
