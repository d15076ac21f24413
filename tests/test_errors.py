"""The exception hierarchy holds only classes some caller acts on."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import diver
from diver import errors

PACKAGE = Path(diver.__file__).parent


def _error_classes() -> list[str]:
    return [
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    ]


def _names_in_except_clauses() -> set[str]:
    """Every class name an `except` clause of the package catches, whether
    bare (SqlError), qualified (errors.SqlError) or in a tuple."""
    caught: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                exprs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                for expr in exprs:
                    if isinstance(expr, ast.Name):
                        caught.add(expr.id)
                    elif isinstance(expr, ast.Attribute):
                        caught.add(expr.attr)
    return caught


def test_every_error_class_is_caught_by_name_somewhere():
    # a class no except names is handled exactly like its base, so it is one
    # concept too many: raise the base (or the class its callers catch)
    caught = _names_in_except_clauses()
    uncaught = [name for name in _error_classes() if name != "DiverError" and name not in caught]
    assert uncaught == []

