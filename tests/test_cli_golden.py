"""Byte-for-byte CLI outputs on the fixture pairs and one generated pair.

Every analysis is exact and deterministic, so stdout, stderr, the exit code
and every file a command writes must match the recorded copies under
`tests/golden/` exactly. A change that moves a witness vertex, a product
state or a distance digit shows up here.

Regenerate the recordings (only when an output change is intended) with

    PYTHONPATH=src python3 -m tests.test_cli_golden
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import sys
from pathlib import Path

import pytest

from apa_toolkit.generators import random_pair
from apa_toolkit.io_cli import main, serialize
from tests.fixtures import all_failing_pairs, refining_pair

GOLDEN = Path(__file__).resolve().parent / "golden"

# command name -> (argv after the global flags, files the command writes)
COMMANDS = {
    "check": (["--json", "check", "n1.json", "n2.json"], []),
    "diff-over": (["diff-over", "n1.json", "n2.json", "-o", "over.json"], ["over.json"]),
    "diff-under": (["diff-under", "n1.json", "n2.json", "-K", "3", "-o", "under3.json"],
                   ["under3.json"]),
    "counterexample": (["counterexample", "n1.json", "n2.json", "-o", "cex.json",
                        "--provenance", "provenance.json"], ["cex.json", "provenance.json"]),
    "distance": (["--json", "distance", "n1.json", "n2.json", "--table", "table.csv"],
                 ["table.csv"]),
}


def _pairs():
    # The fixtures reach blame buckets a, e and f only; random seed 26 also
    # reaches b, c and d.
    return {**all_failing_pairs(), "refining": refining_pair(),
            "random26": random_pair(random.Random(26))}


def _run(pair: str, command: str, workdir: Path) -> dict[str, str]:
    """Run one command on one fixture pair inside `workdir`; return every
    recorded output keyed by its file name under `tests/golden/<pair>/`."""
    n1, n2 = _pairs()[pair]
    (workdir / "n1.json").write_text(serialize(n1))
    (workdir / "n2.json").write_text(serialize(n2))
    argv, written = COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    record = {f"{command}.stdout": out.getvalue(),
              f"{command}.status": f"exit {code}\n{err.getvalue()}"}
    for name in written:
        path = workdir / name
        if path.exists():
            record[f"{command}.{name}"] = path.read_text()
    return record


CASES = [(pair, command) for pair in ("interval", "deferral", "may_gap", "refining", "random26")
         for command in COMMANDS]


@pytest.mark.parametrize("pair,command", CASES)
def test_cli_output_matches_golden(pair, command, tmp_path):
    record = _run(pair, command, tmp_path)
    recorded = {p.name: p.read_text() for p in (GOLDEN / pair).glob(f"{command}.*")}
    assert sorted(record) == sorted(recorded)
    for name, text in record.items():
        assert text == recorded[name], f"{pair}/{name} differs from the recording"


def _regenerate() -> None:
    import tempfile
    for pair, command in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            record = _run(pair, command, Path(tmp))
        target = GOLDEN / pair
        target.mkdir(parents=True, exist_ok=True)
        for old in target.glob(f"{command}.*"):
            old.unlink()
        for name, text in record.items():
            (target / name).write_text(text)
        print(f"wrote {target}/{command}.*", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
