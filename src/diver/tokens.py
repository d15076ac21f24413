"""Question tokenizer with character offsets.

Tokens are maximal alphanumeric/underscore runs; every other non-space
character is a single-character token. Whitespace only separates. Offsets
index into the original string so clause texts can be cut verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int  # exclusive


def tokenize(text: str) -> list[Token]:
    """Split text into offset-tagged tokens. Deterministic, no normalization."""
    return [Token(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]

