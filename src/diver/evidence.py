"""Evidence synthesis from a completed workspace.

Two styles, one row each in STYLES: a long narrative generated zero-shot,
and a concise one-liner style-aligned with five shipped example pairs.
Every generated text passes a programmatic grounding filter before it is
returned: sentences naming identifiers or literals the workspace and schema
cannot back are removed, so hallucinated claims never leave this module.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

from . import prompts
from .cotf import CoTFDocument, deserialize, document_facts, dumps, serialize
from .database import SchemaCatalog
from .llm import ChatMessage, replace_surrogates

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Style:
    """How one evidence style is asked for: its stage, whether the shipped
    concise examples come before the question, and the fixed text for a
    workspace with no findings."""

    stage: prompts.Stage
    shots_first: bool
    no_findings: str


STYLES = {
    "long": Style(
        prompts.EVIDENCE_LONG,
        False,
        "No database findings were verified for this question, so nothing about"
        " its tables, columns or stored values can be stated as evidence.",
    ),
    "concise": Style(prompts.EVIDENCE_CONCISE, True, "No verified findings."),
}


@dataclass(frozen=True)
class Evidence:
    """One synthesized evidence text and its style."""

    style: str
    text: str


# sentence boundary: run of terminal punctuation followed by whitespace or
# the end, or a newline run; bare dots inside numbers and dotted identifiers
# do not split
_BOUNDARY_RE = re.compile(r"[.!?]+(?:(?=\s)\s+|$)|\n+\s*")

_BACKTICK_RE = re.compile(r"`([^`\n]+)`")
_DQUOTE_RE = re.compile(r'"([^"\n]+)"')
# lookarounds keep possessive apostrophes from opening a quote
_SQUOTE_RE = re.compile(r"(?<![\w])'([^'\n]+)'(?![\w])")
_DOTTED_RE = re.compile(r"\b(\w+)\.(\w+)\b")
# a value paired with its column, dotted or backticked: schools.City = 'Davis';
# the lookbehind starts a name only where a word or a backtick does not
_IDENT = r"(?:`[^`\n]+`|\w+)"
_PAIR_RE = re.compile(rf"(?<![\w`])`?({_IDENT})\.({_IDENT})`?\s*=\s*(?:'([^'\n]+)'|\"([^\"\n]+)\")")


def _split_sentences(text: str) -> list[str]:
    out = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        out.append(text[start : m.end()])
        start = m.end()
    if start < len(text):
        out.append(text[start:])
    return out


def _sentence_claims(sentence: str) -> list[str]:
    """The quoted spans and table.column references of a sentence, in order."""
    claims: list[tuple[int, str]] = []
    for rx in (_BACKTICK_RE, _DQUOTE_RE, _SQUOTE_RE):
        for m in rx.finditer(sentence):
            claims.append((m.start(), m.group(1)))
    for m in _DOTTED_RE.finditer(sentence):
        if not (m.group(1).isdigit() and m.group(2).isdigit()):
            claims.append((m.start(), m.group(0)))
    return [claim for _, claim in sorted(claims, key=lambda c: c[0])]


def grounding_filter(text: str, doc: CoTFDocument, catalog: SchemaCatalog) -> dict:
    """Remove sentences with a claim that is backed neither by the document's
    recorded facts nor by the catalog.

    A claim is grounded when it is a recorded fact (exactly), a catalog name
    (case-insensitively) or a table.column the catalog has. A pair
    table.column = 'value' (or "value") is one more claim, grounded only
    when a turn affirms that value in that column (Turn.value_facts). Returns
    {"text", "removed_claims"}; idempotent.
    """
    facts = document_facts(doc)

    def grounded(claim: str) -> bool:
        if claim in facts or claim.lower() in catalog.names:
            return True
        m = _DOTTED_RE.fullmatch(claim)
        info = catalog.table(m.group(1)) if m else None
        return info is not None and info.column(m.group(2)) is not None

    def affirmed(pair: re.Match) -> bool:
        table, column, single, double = pair.groups()
        triple = (table.strip("`").lower(), column.strip("`").lower(), single or double)
        return any(triple in turn.value_facts for turns in doc.turns for turn in turns)

    kept: list[str] = []
    removed: list[str] = []
    for sentence in _split_sentences(text):
        bad = [claim for claim in _sentence_claims(sentence) if not grounded(claim)]
        pairs = _PAIR_RE.finditer(sentence) if "=" in sentence else ()
        bad += [m.group(0) for m in pairs if not affirmed(m)]
        if bad:
            removed.extend(b for b in bad if b not in removed)
        else:
            kept.append(sentence)
    return {"text": "".join(kept), "removed_claims": removed}


def _workspace(doc: CoTFDocument) -> str:
    return serialize(doc).decode("utf-8")


def _filtered(style: str, raw: str, doc: CoTFDocument, catalog: SchemaCatalog) -> Evidence:
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
        text = STYLES[style].no_findings
    return Evidence(style, text)


@lru_cache(maxsize=1)
def shot_messages() -> tuple[ChatMessage, ...]:
    """The five shipped concise style examples as ten alternating messages:
    the user message with the example's workspace, then the assistant
    message with its one-line evidence. Each workspace is validated through
    deserialize and rendered once per process."""
    blob = (Path(__file__).parent / "data" / "concise_shots.json").read_text("utf-8")
    messages = []
    for item in json.loads(blob):
        workspace = _workspace(deserialize(json.dumps(item["cotf"])))
        user = prompts.EVIDENCE_CONCISE.user.format(workspace=workspace)
        messages.append(ChatMessage("user", user))
        messages.append(ChatMessage("assistant", item["evidence"]))
    return tuple(messages)


def _generate(style: str, doc: CoTFDocument, llm, catalog: SchemaCatalog) -> Evidence:
    """One filtered candidate in the given style."""
    row = STYLES[style]
    history = shot_messages() if row.shots_first else ()
    raw = replace_surrogates(llm.chat(row.stage.request(*history, workspace=_workspace(doc))))
    return _filtered(style, raw, doc, catalog)


# One public generator per row of STYLES, in table order; self_consistency
# looks each up by name when it runs, so a wrapper set on this module is
# the one that gets called.
generate_long, generate_concise = (partial(_generate, style) for style in STYLES)


def self_consistency(
    doc: CoTFDocument, llm, n: int, style: str, catalog: SchemaCatalog
) -> Evidence:
    """Generate n candidates and merge them with a union-of-facts pass.

    A workspace with no recorded facts gets the style's fixed no-findings
    text without any model call. Candidates are filtered before the merge
    sees them and the merged text is filtered again, so ungrounded claims
    cannot survive either hop. n=1 is plain single generation.
    """
    if not document_facts(doc):
        return Evidence(style, STYLES[style].no_findings)
    generate = globals()[f"generate_{style}"]
    candidates = [generate(doc, llm, catalog) for _ in range(n)]
    if n == 1:
        return candidates[0]
    body = dumps([c.text for c in candidates])
    raw = replace_surrogates(llm.chat(prompts.MERGE.request(candidates=body)))
    return _filtered(style, raw, doc, catalog)
