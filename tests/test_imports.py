"""No module of the package imports another module's private name."""

from __future__ import annotations

import ast
from pathlib import Path

import diver

PACKAGE = Path(diver.__file__).parent


def private_imports(source: str) -> list[str]:
    """`module.name` for each private name a `from` import takes from the
    package, relative (from .cotf import _x) or absolute (from diver.cotf
    import _x)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "diver":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_check_finds_a_private_import():
    source = (
        "from .cotf import dumps, _encode\n"
        "from diver.llm import _raw_decode\n"
        "from json import _x\n"
    )
    assert private_imports(source) == ["cotf._encode", "diver.llm._raw_decode"]


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = {
        path.name: names
        for path in modules
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
