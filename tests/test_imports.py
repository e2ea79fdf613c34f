"""Every name a package module, test or script imports is read somewhere in
that file."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import apa_toolkit

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(apa_toolkit.__file__).parent
FILES = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("tests/*.py")),
         *sorted(ROOT.glob("scripts/*.py"))]


def _id(path: Path) -> str:
    """A package module by its name, any other file by its directory too."""
    return path.name if path.parent == PACKAGE else f"{path.parent.name}/{path.name}"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    assert _unused_imports("import itertools\nfrom typing import Any, Callable\nx: Any") == [
        "itertools", "Callable"]


@pytest.mark.parametrize("path", FILES, ids=_id)
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []
