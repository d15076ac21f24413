"""Prompt templates for every LLM-facing stage, and the stage table that
turns them into requests.

Every Stage row (name, temperature, response format, system prompt and user
template) is golden-filed under docs/ by scripts/gen_docs.py, one file per
row, and pinned by tests; rerun the script after editing one. System prompts are constants, sent as written; the
lookup one ends with the rendered tool guidance. User templates use
str.format placeholders, so a literal brace in one is written twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .llm import ChatMessage, ChatRequest
from .toolbox import render_guidance

SEGMENTATION_SYSTEM = """\
You split natural-language database questions into minimal clauses. Each \
clause should correspond to a single SQL condition or entity: one filter, \
one requested quantity, one named thing. Copy the question's own words; do \
not rephrase, merge or explain. Answer with a JSON array of clause strings \
in their original order and nothing else."""

SEGMENTATION_USER = """\
Question: {question}

Split this question into clauses. Reply with only the JSON array."""

LOOKUP_SYSTEM = """\
You are a database lookup assistant. You verify how the entities and \
conditions of a question are actually stored in a database by probing it \
with small read-only tools, one call per turn. Ground every belief in tool \
feedback before trusting it: check values exist as written, check how \
columns are spelled, read column descriptions for abbreviations. When the \
current clause is fully verified, call the stop tool.

""" + render_guidance()

LOOKUP_THOUGHT_USER = """\
Workspace so far (JSON):
{workspace}

Current clause {clause_index}: "{clause_text}"

State, in one short paragraph, what is still unverified about this clause \
and what you will probe next. Reply with the thought only."""

LOOKUP_TOOL_USER = """\
Now make the probe you just described. Reply with exactly one JSON object \
of the form {{"tool": "<name>", "args": {{...}}}} and nothing else."""

# sent after a tool call reply that does not parse, behind that reply
REPAIR_USER = """\
Your tool call was invalid: {error}. Reply with exactly one JSON object of \
the form {{"tool": "<name>", "args": {{...}}}} and nothing else."""

HARVEST_SYSTEM = """\
You extract verified linkings from a completed probing workspace. A linking \
is only valid if a standard tool feedback in the workspace proves it: cite \
the clause and turn that proves each one. Kinds: "value" links a question \
phrase to a (table, column, literal) actually observed; "schema" links a \
phrase to a table or column; "function" records a computation insight \
(formula, cast, aggregation) the feedback supports."""

HARVEST_USER = """\
Workspace (JSON):
{workspace}

List every linking the feedback above proves. Reply with only a JSON array \
of objects with keys: kind, table, column, literal, rationale, source_turn \
(source_turn is [clause_index, turn_index] of the proving standard \
feedback; use null for fields that do not apply)."""

EVIDENCE_LONG_SYSTEM = """\
You write evidence for text-to-SQL: background knowledge that helps a SQL \
writer map a question onto a specific database. You are given a probing \
workspace whose tool feedback verified how values and columns are stored. \
Write a thorough narrative that walks through the question's requirements, \
names the exact tables, columns and literal values as they are stored, and \
explains any formula or mapping needed. State only facts supported by the \
workspace; never invent identifiers or values."""

EVIDENCE_LONG_USER = """\
Workspace (JSON):
{workspace}

Write the evidence narrative for this question."""

EVIDENCE_CONCISE_SYSTEM = """\
You write evidence for text-to-SQL: a single compact line mapping the \
question's phrases onto the database, in the style "X refers to Column = \
'value'; Y refers to Table.Column". Use the exact stored spellings proved \
by the workspace's tool feedback. Write at most two short sentences; no \
narration, no explanation of your reasoning. The examples show the expected \
style."""

EVIDENCE_CONCISE_USER = """\
Workspace (JSON):
{workspace}

Write the concise evidence line for this question."""

MERGE_SYSTEM = """\
You merge several candidate evidence texts for the same question into one. \
Take the union of their verified facts: every table, column, literal and \
formula that appears in any candidate must appear in the merged text \
exactly once, with its spelling unchanged. Do not add anything that no \
candidate states. Match the candidates' style and keep the merged text \
about as long as the longest candidate."""

MERGE_USER = """\
Candidate evidence texts (JSON):
{candidates}

Write the merged evidence text."""


@dataclass(frozen=True)
class Stage:
    """How one stage asks the model: its system prompt and user template,
    the sampling temperature and the response format."""

    system: str
    user: str
    temperature: float
    response_format: str

    def request(self, *history: ChatMessage, **fields) -> ChatRequest:
        """The system message, then history, then the user message filled
        from fields."""
        return ChatRequest(
            [
                ChatMessage("system", self.system),
                *history,
                ChatMessage("user", self.user.format(**fields)),
            ],
            self.temperature,
            self.response_format,
        )


SEGMENTATION = Stage(SEGMENTATION_SYSTEM, SEGMENTATION_USER, 0.2, "free_text")
LOOKUP_THOUGHT = Stage(LOOKUP_SYSTEM, LOOKUP_THOUGHT_USER, 0.7, "free_text")
LOOKUP_TOOL = Stage(LOOKUP_SYSTEM, LOOKUP_TOOL_USER, 0.7, "tool_call_schema")
REPAIR = Stage(LOOKUP_SYSTEM, REPAIR_USER, 0.7, "tool_call_schema")
# linking extraction is a parsing task, keep it near-deterministic
HARVEST = Stage(HARVEST_SYSTEM, HARVEST_USER, 0.2, "free_text")
EVIDENCE_LONG = Stage(EVIDENCE_LONG_SYSTEM, EVIDENCE_LONG_USER, 0.7, "free_text")
EVIDENCE_CONCISE = Stage(EVIDENCE_CONCISE_SYSTEM, EVIDENCE_CONCISE_USER, 0.7, "free_text")
MERGE = Stage(MERGE_SYSTEM, MERGE_USER, 0.7, "free_text")
