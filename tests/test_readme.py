"""The README's "Fixed limits" list names live constants with their values."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# - `database.MEMO_ROWS` = 200,000: ...
_BULLET = re.compile(r"^- `(\w+)\.(\w+)` = ([0-9][0-9,.]*)( MiB)?:", re.M)


def test_every_fixed_limit_names_a_live_constant_with_its_value():
    text = README.read_text(encoding="utf-8")
    limits = text.split("\n## Fixed limits\n", 1)[1].split("\n## ", 1)[0]
    bullets = _BULLET.findall(limits)
    # every bullet is read: one the pattern missed would go unchecked
    assert len(bullets) == len(re.findall(r"^- ", limits, re.M)) >= 10
    for module, name, number, mib in bullets:
        written = float(number.replace(",", "")) * (2**20 if mib else 1)
        assert getattr(importlib.import_module(f"diver.{module}"), name) == written, name
