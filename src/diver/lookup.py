"""Per-clause probing orchestrator.

Each clause runs a loop of two chat calls: a free-text thought over the full
serialized workspace, then a structured tool call, with one repair
round-trip for a reply that does not parse. A call identical to an
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
    ToolCall,
    ToolFeedback,
    Turn,
    VerifiedLinking,
    append_turn,
    clause_open,
    serialize,
)
from .errors import LlmError, SchemaViolation
from .llm import ChatMessage, ChatRequest, extract_json, replace_surrogates
from .prompts import HARVEST, LOOKUP_THOUGHT, LOOKUP_TOOL, REPAIR
from .toolbox import TOOLS, ToolContext, dispatch

logger = logging.getLogger(__name__)


def _parse_tool_call(text: str) -> tuple[ToolCall | None, str | None]:
    """(call, None) for a valid tool call. Otherwise (named, error), where
    named is ToolCall(<name>, {}) if the reply names a tool ToolCall accepts,
    else None: the call to record should the reply stay malformed."""
    obj = extract_json(text, dict)
    if obj is None:
        return None, "response did not contain a JSON object"
    if "tool" not in obj:
        return None, 'response JSON lacks the "tool" key'
    args = obj.get("args", {})
    if not isinstance(args, dict):
        error = '"args" must be an object'
    else:
        try:
            return ToolCall(tool=obj["tool"], args=args), None
        except SchemaViolation as exc:
            error = str(exc)
    try:
        return ToolCall(tool=obj["tool"], args={}), error
    except SchemaViolation:
        return None, error


def structured_tool_call(llm, request: ChatRequest) -> tuple[ToolCall, str | None]:
    """Ask for a tool call and parse it, with exactly one repair round-trip:
    the REPAIR stage replays the model's own output plus the parse error.

    Returns (call, None) for a valid call. If the repaired reply is still
    malformed, returns the call to record, ToolCall(<name>, {}) with the
    first reply's tool name if ToolCall accepts it, else the second's, else
    "", and the error "tool call malformed after repair: <parse error>".
    """
    first = llm.chat(request)
    first_call, error = _parse_tool_call(first)
    if error is None:
        return first_call, None
    repair = REPAIR.request(*request.messages[1:], ChatMessage("assistant", first), error=error)
    call, error = _parse_tool_call(llm.chat(repair))
    if error is None:
        return call, None
    return first_call or call or ToolCall("", {}), f"tool call malformed after repair: {error}"


def run_clause(
    doc: CoTFDocument,
    clause_index: int,
    llm,
    context: ToolContext,
) -> CoTFDocument:
    """Probe one clause until its stop signal or max_turns turns.

    A probe identical to an earlier call of the clause gets guiding feedback
    naming the tool's reroute instead of a database answer. A call that
    stays malformed after the repair round-trip is recorded with its error
    as a corrective turn and the loop continues; a client failure (LlmError)
    aborts the clause, keeping the partial trace.
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
            call, error = structured_tool_call(
                llm,
                LOOKUP_TOOL.request(*ask_thought.messages[1:], ChatMessage("assistant", thought)),
            )
        except LlmError as exc:
            logger.warning("clause %d aborted with a partial trace: %s", clause_index, exc)
            break
        # a repeat of a probe never reaches the database; a repeated unknown
        # tool is dispatched for its corrective message
        tool = TOOLS.get(call.tool)
        repeat = any(t.tool_call == call for t in doc.turns[clause_index])
        if error is not None:
            feedback = ToolFeedback.corrective(error)
        elif repeat and tool is not None and tool.reroute is not None:
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
    literal) verbatim, and for a value linking affirm the literal in that
    table and column (Turn.value_facts); a proposal whose cited source_turn
    does not ground it is re-pointed at the first turn that does, or dropped.
    """
    response = llm.chat(HARVEST.request(workspace=serialize(doc).decode("utf-8")))
    proposals = extract_json(response, list)
    if proposals is None:
        logger.warning("linking harvest output was not a JSON array; keeping none")
        return []

    grounded_turns = [
        ((ci, ti), turn)
        for ci, column in enumerate(doc.turns)
        for ti, turn in enumerate(column)
        if turn.feedback.kind == "standard"
    ]

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
        # a value must also be affirmed in the column it is linked to
        value = link.kind == "value"
        triple = (link.table.lower(), link.column.lower(), link.literal) if value else None

        # the cited turn first, then the rest in document order; comparing
        # with == takes whatever JSON the model cited
        cited = item.get("source_turn")
        candidates = sorted(grounded_turns, key=lambda g: list(g[0]) != cited)
        grounding = (
            idx
            for idx, turn in candidates
            if needed <= turn.facts and (triple is None or triple in turn.value_facts)
        )
        source = next(grounding, None)
        if source is not None:
            out.append(replace(link, source_turn=source))
    return out
