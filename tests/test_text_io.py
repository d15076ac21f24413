"""Every text read and write in the package names its encoding, so a file
reads and writes the same bytes whatever the platform's default encoding."""

from __future__ import annotations

import ast
from pathlib import Path

import diver

PACKAGE = Path(diver.__file__).parent


def _argument(call: ast.Call, position: int, name: str) -> ast.expr | None:
    """The argument given at position or by name; None when it is not given."""
    if len(call.args) > position:
        return call.args[position]
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def unnamed_encodings(source: str) -> list[str]:
    """`<call> at line <n>` for each open in text mode and each read_text or
    write_text that names no encoding. open(file, mode, buffering, encoding)
    is the builtin, <expr>.open(mode, buffering, encoding) is Path.open; a
    mode that is no string literal is not judged."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name, first = func.id, 1
        elif isinstance(func, ast.Attribute):
            name, first = func.attr, 0
        else:
            continue
        if name == "open":
            mode = _argument(node, first, "mode")
            literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            text = mode is None or literal and "b" not in mode.value
            unnamed = text and _argument(node, first + 2, "encoding") is None
        elif name in ("read_text", "write_text"):
            unnamed = _argument(node, 0 if name == "read_text" else 1, "encoding") is None
        else:
            continue
        if unnamed:
            found.append(f"{name} at line {node.lineno}")
    return found


def test_the_check_finds_text_io_without_an_encoding():
    source = (
        "open(p)\n"
        "open(p, 'r')\n"
        "open(p, mode='w')\n"
        "open(p, 'rb')\n"
        "open(p, 'r', encoding='utf-8')\n"
        "open(p, 'r', -1, 'utf-8')\n"
        "path.open()\n"
        "path.open('rb')\n"
        "path.open('w', encoding='utf-8')\n"
        "os.open(p, os.O_RDONLY)\n"
        "path.read_text()\n"
        "path.read_text('utf-8')\n"
        "path.write_text(s)\n"
        "path.write_text(s, encoding='utf-8')\n"
        "path.read_bytes()\n"
    )
    assert unnamed_encodings(source) == [
        "open at line 1",
        "open at line 2",
        "open at line 3",
        "open at line 7",
        "read_text at line 11",
        "write_text at line 13",
    ]


def test_every_text_read_and_write_in_the_package_names_its_encoding():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = {
        path.name: calls
        for path in modules
        if (calls := unnamed_encodings(path.read_text(encoding="utf-8")))
    }
    assert found == {}
