"""Evidence synthesis from a completed workspace.

Two styles: a long narrative generated zero-shot, and a concise one-liner
style-aligned with five shipped example pairs. Every generated text passes a
programmatic grounding filter before it is returned: sentences naming
identifiers or literals the workspace and schema cannot back are removed, so
hallucinated claims never leave this module.
"""

from __future__ import annotations

import json
import logging
import re
from functools import lru_cache
from importlib import resources

from .cotf import (
    EVIDENCE_STYLES,
    CoTFDocument,
    Evidence,
    deserialize,
    document_facts,
    serialize,
)
from .database import SchemaCatalog
from .llm import ChatMessage, ChatRequest
from .prompts import (
    EVIDENCE_CONCISE_SYSTEM,
    EVIDENCE_CONCISE_USER,
    EVIDENCE_LONG_SYSTEM,
    EVIDENCE_LONG_USER,
    EVIDENCE_TEMPERATURE,
    MERGE_SYSTEM,
    MERGE_USER,
)

logger = logging.getLogger(__name__)

NO_FINDINGS_LONG = (
    "No database findings were verified for this question, so nothing about"
    " its tables, columns or stored values can be stated as evidence."
)
NO_FINDINGS_CONCISE = "No verified findings."

# sentence boundary: run of terminal punctuation followed by whitespace or
# the end, or a newline run; bare dots inside numbers and dotted identifiers
# do not split
_BOUNDARY_RE = re.compile(r"[.!?]+(?:(?=\s)\s+|$)|\n+\s*")

_BACKTICK_RE = re.compile(r"`([^`\n]+)`")
_DQUOTE_RE = re.compile(r'"([^"\n]+)"')
# lookarounds keep possessive apostrophes from opening a quote
_SQUOTE_RE = re.compile(r"(?<![\w])'([^'\n]+)'(?![\w])")
_DOTTED_RE = re.compile(r"\b(\w+)\.(\w+)\b")


def _split_sentences(text: str) -> list[str]:
    out = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        out.append(text[start : m.end()])
        start = m.end()
    if start < len(text):
        out.append(text[start:])
    return out


def _sentence_claims(sentence: str) -> list[tuple[int, str, object]]:
    claims: list[tuple[int, str, object]] = []
    for rx in (_BACKTICK_RE, _DQUOTE_RE, _SQUOTE_RE):
        for m in rx.finditer(sentence):
            claims.append((m.start(), "span", m.group(1)))
    for m in _DOTTED_RE.finditer(sentence):
        table, column = m.group(1), m.group(2)
        if table.isdigit() and column.isdigit():
            continue
        claims.append((m.start(), "dotted", (m.group(0), table, column)))
    return sorted(claims, key=lambda c: c[0])


def _catalog_index(catalog: SchemaCatalog | None):
    if catalog is None:
        return set(), {}
    names: set[str] = set()
    tables: dict[str, set[str]] = {}
    for t in catalog.tables:
        names.add(t.name.lower())
        tables[t.name.lower()] = {c.name.lower() for c in t.columns}
        names.update(tables[t.name.lower()])
    return names, tables


def grounding_filter(
    text: str, doc: CoTFDocument, catalog: SchemaCatalog | None = None
) -> dict:
    """Remove sentences whose quoted spans or table.column references are
    backed neither by the document's recorded facts nor by the catalog.

    Literals must match a fact exactly; identifiers match catalog names
    case-insensitively. Returns {"text", "removed_claims"}; idempotent.
    """
    facts = document_facts(doc)
    names, tables = _catalog_index(catalog)

    def span_ok(span: str) -> bool:
        if span in facts or span.lower() in names:
            return True
        m = _DOTTED_RE.fullmatch(span)
        return m is not None and dotted_ok(span, m.group(1), m.group(2))

    def dotted_ok(whole: str, table: str, column: str) -> bool:
        if whole in facts:
            return True
        return column.lower() in tables.get(table.lower(), ())

    kept: list[str] = []
    removed: list[str] = []
    for sentence in _split_sentences(text):
        bad: list[str] = []
        for _, kind, payload in _sentence_claims(sentence):
            if kind == "span":
                if not span_ok(payload):
                    bad.append(payload)
            else:
                whole, table, column = payload
                if not dotted_ok(whole, table, column):
                    bad.append(whole)
        if bad:
            removed.extend(b for b in bad if b not in removed)
        else:
            kept.append(sentence)
    return {"text": "".join(kept), "removed_claims": removed}


def _workspace(doc: CoTFDocument) -> str:
    return serialize(doc).decode("utf-8")


def _filtered(style, raw, doc, catalog, candidate_count, fallback) -> Evidence:
    out = grounding_filter(raw, doc, catalog)
    if out["removed_claims"]:
        logger.warning(
            "dropped %d ungrounded claims from %s evidence: %s",
            len(out["removed_claims"]),
            style,
            ", ".join(out["removed_claims"]),
        )
    text = out["text"]
    if not text.strip():
        text = fallback
    return Evidence(style=style, text=text, candidate_count=candidate_count, source=doc)


def generate_long(doc: CoTFDocument, llm, catalog: SchemaCatalog | None = None) -> Evidence:
    """Zero-shot narrative evidence. A workspace with no recorded facts gets
    the fixed no-findings statement without any model call."""
    if not document_facts(doc):
        return Evidence(style="long", text=NO_FINDINGS_LONG, candidate_count=1, source=doc)
    raw = llm.chat(
        ChatRequest(
            messages=[
                ChatMessage("system", EVIDENCE_LONG_SYSTEM),
                ChatMessage("user", EVIDENCE_LONG_USER.format(workspace=_workspace(doc))),
            ],
            temperature=EVIDENCE_TEMPERATURE,
            response_format="free_text",
        )
    )
    return _filtered("long", raw, doc, catalog, 1, NO_FINDINGS_LONG)


@lru_cache(maxsize=1)
def shot_messages() -> tuple[ChatMessage, ...]:
    """The five shipped concise style examples as ten alternating messages:
    the user message with the example's workspace, then the assistant
    message with its one-line evidence. Each workspace is validated through
    deserialize and rendered once per process."""
    blob = resources.files("diver").joinpath("data/concise_shots.json").read_text("utf-8")
    messages = []
    for item in json.loads(blob):
        workspace = _workspace(deserialize(json.dumps(item["cotf"])))
        messages.append(ChatMessage("user", EVIDENCE_CONCISE_USER.format(workspace=workspace)))
        messages.append(ChatMessage("assistant", item["evidence"]))
    return tuple(messages)


def generate_concise(doc: CoTFDocument, llm, catalog: SchemaCatalog | None = None) -> Evidence:
    """One-line evidence, style-aligned through alternating example messages."""
    if not document_facts(doc):
        return Evidence(style="concise", text=NO_FINDINGS_CONCISE, candidate_count=1, source=doc)
    messages = [
        ChatMessage("system", EVIDENCE_CONCISE_SYSTEM),
        *shot_messages(),
        ChatMessage("user", EVIDENCE_CONCISE_USER.format(workspace=_workspace(doc))),
    ]
    raw = llm.chat(
        ChatRequest(
            messages=messages,
            temperature=EVIDENCE_TEMPERATURE,
            response_format="free_text",
        )
    )
    return _filtered("concise", raw, doc, catalog, 1, NO_FINDINGS_CONCISE)


def self_consistency(
    doc: CoTFDocument,
    llm,
    n: int = 3,
    style: str = "concise",
    catalog: SchemaCatalog | None = None,
) -> Evidence:
    """Generate n candidates and merge them with a union-of-facts pass.

    Candidates are filtered before the merge sees them and the merged text is
    filtered again, so ungrounded claims cannot survive either hop. n=1 is
    plain single generation.
    """
    if style not in EVIDENCE_STYLES:
        raise ValueError(f"unknown evidence style: {style!r}")
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")

    generate = generate_long if style == "long" else generate_concise
    candidates = [generate(doc, llm, catalog) for _ in range(n)]
    if n == 1:
        return candidates[0]

    body = json.dumps([c.text for c in candidates], ensure_ascii=False, indent=2)
    raw = llm.chat(
        ChatRequest(
            messages=[
                ChatMessage("system", MERGE_SYSTEM),
                ChatMessage("user", MERGE_USER.format(candidates=body)),
            ],
            temperature=EVIDENCE_TEMPERATURE,
            response_format="free_text",
        )
    )
    fallback = NO_FINDINGS_LONG if style == "long" else NO_FINDINGS_CONCISE
    return _filtered(style, raw, doc, catalog, n, fallback)
