"""Per-clause probing orchestrator.

Each clause runs a loop of two chat calls: a free-text thought over the full
serialized workspace, then a structured tool call. A call identical to an
earlier one in the same clause is answered, instead of the database, with
the next-broader probe named in the reroute column of the tool table
toolbox.TOOLS; everything else goes through the toolbox dispatcher. After
all clauses stop, harvest_linkings turns the accumulated standard feedback
into verified linkings, dropping any proposal the recorded feedback does not
actually support.
"""

from __future__ import annotations

import logging
from dataclasses import replace

from .cotf import (
    CoTFDocument,
    ToolFeedback,
    Turn,
    VerifiedLinking,
    append_turn,
    clause_open,
    serialize,
)
from .errors import LlmError, MalformedToolCall, SchemaViolation
from .llm import ChatMessage, extract_json, replace_surrogates, structured_tool_call
from .prompts import HARVEST, LOOKUP_THOUGHT, LOOKUP_TOOL
from .toolbox import TOOLS, ToolContext, dispatch

logger = logging.getLogger(__name__)


def run_clause(
    doc: CoTFDocument,
    clause_index: int,
    llm,
    context: ToolContext,
) -> CoTFDocument:
    """Probe one clause until its stop signal or max_turns turns.

    A probe identical to an earlier call of the clause gets guiding feedback
    naming the tool's reroute instead of a database answer. A call that
    stays malformed after the repair round-trip is recorded as a corrective
    turn and the loop continues; any other client failure aborts the
    clause, keeping the partial trace.
    """
    clause = doc.clauses[clause_index]

    while clause_open(doc, clause_index):
        ask_thought = LOOKUP_THOUGHT.request(
            workspace=serialize(doc).decode("utf-8"),
            clause_index=clause.index,
            clause_text=clause.text,
        )
        try:
            thought = replace_surrogates(llm.chat(ask_thought))
            call = structured_tool_call(
                llm,
                LOOKUP_TOOL.request(*ask_thought.messages[1:], ChatMessage("assistant", thought)),
            )
        except MalformedToolCall as exc:
            call, feedback = exc.call, ToolFeedback.corrective(str(exc))
        except LlmError as exc:
            logger.warning("clause %d aborted with a partial trace: %s", clause_index, exc)
            break
        else:
            # a repeat of a probe never reaches the database; a repeated
            # unknown tool is dispatched for its corrective message
            tool = TOOLS.get(call.tool)
            repeat = any(t.tool_call == call for t in doc.turns[clause_index])
            if repeat and tool is not None and tool.reroute is not None:
                feedback = ToolFeedback.guiding(
                    f"This tool has been called before. Consider using {tool.reroute}."
                )
            else:
                feedback = dispatch(call, context)
        append_turn(doc, clause_index, Turn(thought=thought, tool_call=call, feedback=feedback))
    return doc


def run_lookup(doc: CoTFDocument, llm, context: ToolContext) -> CoTFDocument:
    """Run every clause in order, each capped at max_turns turns."""
    for clause in doc.clauses:
        run_clause(doc, clause.index, llm, context)
    return doc


def harvest_linkings(doc: CoTFDocument, llm) -> list[VerifiedLinking]:
    """Ask the model to read the workspace back into linkings, then keep only
    proposals some single standard-feedback turn fully grounds.

    The grounding turn must contain every named field (table, column,
    literal) verbatim; a proposal whose cited source_turn does not ground it
    is re-pointed at the first turn that does, or dropped.
    """
    response = llm.chat(HARVEST.request(workspace=serialize(doc).decode("utf-8")))
    proposals = extract_json(response, list)
    if proposals is None:
        logger.warning("linking harvest output was not a JSON array; keeping none")
        return []

    grounded_turns: list[tuple[tuple[int, int], frozenset[str]]] = []
    for ci, column in enumerate(doc.turns):
        for ti, turn in enumerate(column):
            if turn.feedback.kind == "standard":
                grounded_turns.append(((ci, ti), turn.facts))

    out: list[VerifiedLinking] = []
    for item in proposals:
        if not isinstance(item, dict):
            continue
        literal = item.get("literal")
        if isinstance(literal, (int, float)) and not isinstance(literal, bool):
            literal = str(literal)
        rationale = item.get("rationale")
        try:
            # the source turn is filled in once a turn grounds the fields
            link = VerifiedLinking(
                kind=item.get("kind"),
                table=item.get("table"),
                column=item.get("column"),
                literal=literal,
                rationale=replace_surrogates(rationale) if isinstance(rationale, str) else "",
                source_turn=(0, 0),
            )
        except SchemaViolation:
            continue
        needed = {f for f in (link.table, link.column, link.literal) if f is not None}

        # the cited turn first, then the rest in document order; comparing
        # with == takes whatever JSON the model cited
        cited = item.get("source_turn")
        candidates = sorted(grounded_turns, key=lambda g: list(g[0]) != cited)
        source = next((idx for idx, facts in candidates if needed <= facts), None)
        if source is not None:
            out.append(replace(link, source_turn=source))
    return out
