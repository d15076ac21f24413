"""Per-clause probing orchestrator: the thought/call loop, the repeat rule,
and grounded linking harvest."""

import json
import random
import re
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diver.cotf import (
    CoTFDocument,
    Question,
    ToolCall,
    ToolFeedback,
    Turn,
    VerifiedLinking,
    append_turn,
    serialize,
)
from diver.breakup import token_refine
from diver.database import catalog, open_database
from diver.embedding import LexicalEmbedder
from diver.errors import LlmError, SchemaViolation
from diver.llm import ChatMessage, ScriptedSession
from diver.lookup import harvest_linkings, run_clause, run_lookup
from diver.prompts import HARVEST, LOOKUP_SYSTEM, LOOKUP_THOUGHT, LOOKUP_TOOL_USER
from diver.toolbox import TOOL_NAMES, TOOLS, ToolContext

from replay import RecordingSession


@pytest.fixture(scope="module")
def ctx(schools_db, schools_desc_dir):
    with closing(open_database(schools_db)) as handle:
        yield ToolContext(
            handle=handle,
            catalog=catalog(handle, schools_desc_dir),
            embedder=LexicalEmbedder(),
            rng=random.Random(7),
        )


def one_clause_doc(text="Which schools serve grade K?", max_turns=5):
    q = Question(question_id="q1", db_id="california_schools", text=text)
    return CoTFDocument(question=q, clauses=token_refine(text, []), max_turns=max_turns)


def two_clause_doc(max_turns=5):
    text = "Which schools serve grade K?"
    q = Question(question_id="q2", db_id="california_schools", text=text)
    clauses = token_refine(text, ["Which schools", "serve grade K"])
    assert len(clauses) == 2
    return CoTFDocument(question=q, clauses=clauses, max_turns=max_turns)


def tc(tool, **args):
    return json.dumps({"tool": tool, "args": args})


def standalone(name, text):
    return re.findall(rf"(?<![A-Za-z_]){re.escape(name)}(?![A-Za-z_])", text)


# --- the repeat rule ---

VALUE_IN_REROUTE = (
    "This tool has been called before. Consider using sim_value_in for a fuzzy search."
)


def repeat_feedback(ctx, call):
    """The feedback run_clause gives the second of two identical calls."""
    doc = one_clause_doc(max_turns=2)
    run_clause(doc, 0, ScriptedSession(["t1", call, "t2", call]), ctx)
    return doc.turns[0][1].feedback


def test_route_rules_cover_every_probing_tool(ctx):
    for name in TOOL_NAMES:
        if name == "none":
            continue
        fb = repeat_feedback(ctx, tc(name))
        assert fb.kind == "guiding", name
        assert fb.message == (
            f"This tool has been called before. Consider using {TOOLS[name].reroute}."
        )


def test_value_in_rule_message_is_the_fixed_sentence(ctx):
    probe = tc("value_in", table="frpm", column="Low Grade", value="K")
    assert repeat_feedback(ctx, probe).message == (
        "This tool has been called before."
        " Consider using sim_value_in for a fuzzy search."
    )


def test_rule_suggestions_name_exactly_one_registered_tool(ctx):
    expected = {
        "value_in": "sim_value_in",
        "sim_value_in": "uniq_value",
        "uniq_value": "info",
        "head": "uniq_value",
        "random": "uniq_value",
        "if_null": "info",
        "info": "sim_columns",
        "sim_columns": "head",
    }
    for trigger, suggestion in expected.items():
        message = repeat_feedback(ctx, tc(trigger)).message
        named = {t for t in TOOL_NAMES if standalone(t, message)}
        assert named == {suggestion}, (trigger, message)


def test_repeat_classifies_guiding_and_never_touches_db(ctx, monkeypatch):
    # the earlier call is already on the record, as in a resumed document
    call = ToolCall("value_in", {"table": "frpm", "column": "Low Grade", "value": "K"})
    doc = one_clause_doc()
    append_turn(doc, 0, Turn("t0", call, ToolFeedback.standard({"exists": True, "match_count": 5})))

    def boom(*a, **k):
        raise AssertionError("database touched on a repeated call")

    monkeypatch.setattr(ctx.handle, "query", boom)
    monkeypatch.setattr(ctx.handle, "memo_query", boom)
    probe = tc("value_in", table="frpm", column="Low Grade", value="K")
    run_clause(doc, 0, ScriptedSession(["t1", probe, "t2", tc("none")]), ctx)
    fb = doc.turns[0][1].feedback
    assert fb.kind == "guiding"
    assert fb.message == VALUE_IN_REROUTE


def test_fresh_call_passes_dispatch_result_through(ctx):
    # a call whose args differ from an earlier one is no repeat
    doc = one_clause_doc()
    llm = ScriptedSession(
        [
            "t1",
            tc("value_in", table="frpm", column="Low Grade", value="K"),
            "t2",
            tc("value_in", table="frpm", column="Low Grade", value="k"),
            "t3",
            tc("value_in", table="frpm", column="No Such", value="K"),
            "t4",
            tc("none"),
        ]
    )
    run_clause(doc, 0, llm, ctx)
    feedback = [t.feedback for t in doc.turns[0]]
    assert [f.kind for f in feedback] == ["standard", "standard", "corrective", "standard"]
    assert feedback[0].result == {"exists": True, "match_count": 5}
    assert feedback[1].result == {"exists": False, "match_count": 0}
    assert "No Such" in feedback[2].message


def test_repeated_unknown_tool_falls_back_to_corrective(ctx):
    fb = repeat_feedback(ctx, tc("look_up"))
    assert fb.kind == "corrective"
    assert fb.message == "unknown tool: 'look_up'"


def test_only_a_repeat_in_the_same_clause_counts(ctx):
    probe = tc("value_in", table="frpm", column="Low Grade", value="K")
    doc = two_clause_doc()
    llm = ScriptedSession(["a", probe, "b", tc("none"), "c", probe, "d", probe, "e", tc("none")])
    run_lookup(doc, llm, ctx)
    kinds = [[t.feedback.kind for t in column] for column in doc.turns]
    assert kinds == [["standard", "standard"], ["standard", "guiding", "standard"]]


# --- run_clause ---


def test_scripted_clause_probes_then_stops(ctx):
    doc = one_clause_doc()
    llm = ScriptedSession(
        [
            "Check how grades are stored.",
            tc("uniq_value", table="frpm", column="Low Grade"),
            "The value K exists; done.",
            tc("none"),
        ]
    )
    run_clause(doc, 0, llm, ctx)
    turns = doc.turns[0]
    assert [t.tool_call.tool for t in turns] == ["uniq_value", "none"]
    assert turns[0].thought == "Check how grades are stored."
    assert turns[0].feedback.kind == "standard"
    assert turns[0].feedback.result == {
        "distinct_count": 4,
        "samples": ["1", "6", "9", "K"],
    }
    assert turns[1].feedback.kind == "standard"
    assert turns[1].feedback.result == {}
    assert llm.consumed == 4


def test_lone_surrogate_in_a_thought_becomes_a_replacement_character(ctx):
    doc = one_clause_doc()
    llm = ScriptedSession(
        [
            "Grades \ud800 first.",
            tc("uniq_value", table="frpm", column="Low Grade"),
            "Done.",
            tc("none"),
        ]
    )
    run_clause(doc, 0, llm, ctx)
    assert doc.turns[0][0].thought == "Grades \ufffd first."
    assert "Grades \ufffd first." in serialize(doc).decode("utf-8")


def test_repeated_call_gets_guiding_feedback_without_query(ctx, open_db, schools_db, schools_desc_dir):
    handle = open_db(schools_db)
    counted = []
    real_query = handle.query
    handle.query = lambda *a, **k: (counted.append(a), real_query(*a, **k))[1]
    local_ctx = ToolContext(
        handle=handle, catalog=catalog(open_db(schools_db), schools_desc_dir),
        embedder=LexicalEmbedder(), rng=random.Random(7),
    )

    probe = tc("value_in", table="frpm", column="Low Grade", value="K")
    doc = one_clause_doc()
    llm = ScriptedSession(["t1", probe, "t2", probe, "t3", tc("none")])
    run_clause(doc, 0, llm, local_ctx)

    kinds = [t.feedback.kind for t in doc.turns[0]]
    assert kinds == ["standard", "guiding", "standard"]
    assert doc.turns[0][1].feedback.message == VALUE_IN_REROUTE
    assert len(counted) == 1


def test_corrective_then_recovery_within_one_clause(ctx):
    doc = one_clause_doc()
    llm = ScriptedSession(
        [
            "t1",
            tc("value_in", table="frpm", column="No Such", value="K"),
            "t2",
            tc("value_in", table="frpm", column="Low Grade", value="K"),
            "t3",
            tc("none"),
        ]
    )
    run_clause(doc, 0, llm, ctx)
    kinds = [t.feedback.kind for t in doc.turns[0]]
    assert kinds == ["corrective", "standard", "standard"]
    assert "No Such" in doc.turns[0][0].feedback.message


def test_never_stopping_clause_is_cut_at_max_turns(ctx):
    doc = one_clause_doc(max_turns=5)
    script = []
    for i in range(5):
        script += [f"t{i}", tc("value_in", table="frpm", column="Low Grade", value=f"v{i}")]
    llm = ScriptedSession(script)
    run_clause(doc, 0, llm, ctx)
    assert len(doc.turns[0]) == 5
    assert doc.turns[0][-1].tool_call.tool != "none"
    assert llm.consumed == len(script)


def test_prompts_carry_guidance_workspace_and_thought(ctx):
    doc = one_clause_doc()
    llm = RecordingSession(
        [
            "probe the grade column",
            tc("uniq_value", table="frpm", column="Low Grade"),
            "done",
            tc("none"),
        ]
    )
    run_clause(doc, 0, llm, ctx)

    first_thought = llm.requests[0]
    assert first_thought.temperature == LOOKUP_THOUGHT.temperature
    assert first_thought.response_format == "free_text"
    assert first_thought.messages[0].role == "system"
    assert "### value_in" in first_thought.messages[0].content
    assert "### none" in first_thought.messages[0].content
    assert doc.clauses[0].text in first_thought.messages[-1].content
    assert "Which schools serve grade K?" in first_thought.messages[-1].content

    first_tool = llm.requests[1]
    assert first_tool.response_format == "tool_call_schema"
    assert first_tool.messages[:-2] == first_thought.messages
    assert first_tool.messages[-2].role == "assistant"
    assert first_tool.messages[-2].content == "probe the grade column"
    assert first_tool.messages[-1].content == LOOKUP_TOOL_USER.format()

    second_thought = llm.requests[2]
    assert '"distinct_count": 4' in second_thought.messages[-1].content


def test_malformed_call_becomes_corrective_turn_and_loop_continues(ctx):
    doc = one_clause_doc()
    llm = ScriptedSession(
        ["t1", "no json at all", "still nothing", "t2", tc("none")]
    )
    run_clause(doc, 0, llm, ctx)
    turns = doc.turns[0]
    assert len(turns) == 2
    assert turns[0].tool_call.tool == ""
    assert turns[0].feedback.kind == "corrective"
    assert "malformed" in turns[0].feedback.message
    assert turns[1].tool_call.tool == "none"
    assert llm.consumed == 5


def test_malformed_call_keeps_best_effort_tool_name(ctx):
    doc = one_clause_doc()
    llm = ScriptedSession(
        [
            "t1",
            '{"tool": "value_in", "args": "oops"}',
            '{"tool": 42}',
            "t2",
            tc("none"),
        ]
    )
    run_clause(doc, 0, llm, ctx)
    assert doc.turns[0][0].tool_call.tool == "value_in"
    assert doc.turns[0][0].tool_call.args == {}
    assert doc.turns[0][0].feedback.kind == "corrective"


def test_malformed_call_naming_a_lone_surrogate_records_an_empty_name(ctx):
    doc = one_clause_doc()
    llm = ScriptedSession(["t1", tc("\ud800"), tc("\ud800"), "t2", tc("none")])
    run_clause(doc, 0, llm, ctx)
    turns = doc.turns[0]
    assert [t.tool_call for t in turns] == [ToolCall("", {}), ToolCall("none", {})]
    assert turns[0].feedback.kind == "corrective"
    assert llm.consumed == 5


def test_both_lookup_stages_send_the_lookup_system_prompt(ctx):
    doc = one_clause_doc()
    llm = RecordingSession(["t1", tc("none")])
    run_clause(doc, 0, llm, ctx)
    system = ChatMessage("system", LOOKUP_SYSTEM)
    assert [r.messages[0] for r in llm.requests] == [system, system]


def test_exhausted_session_leaves_partial_trace(ctx):
    doc = one_clause_doc()
    llm = ScriptedSession(["t1", tc("value_in", table="frpm", column="Low Grade", value="K"), "t2"])
    run_clause(doc, 0, llm, ctx)
    assert len(doc.turns[0]) == 1
    assert doc.turns[0][0].feedback.kind == "standard"
    assert llm.consumed == 3


# --- run_lookup ---


def test_run_lookup_covers_all_clauses(ctx):
    doc = two_clause_doc()
    llm = ScriptedSession(["a", tc("none"), "b", tc("none")])
    run_lookup(doc, llm, ctx)
    assert [len(col) for col in doc.turns] == [1, 1]
    assert all(col[-1].tool_call.tool == "none" for col in doc.turns)
    assert llm.consumed == 4


# --- harvest_linkings ---


def probe_doc():
    doc = one_clause_doc()
    doc.turns[0].append(
        Turn(
            thought="check grades",
            tool_call=ToolCall("uniq_value", {"table": "frpm", "column": "Low Grade"}),
            feedback=ToolFeedback.standard(
                {"distinct_count": 4, "samples": ["1", "6", "9", "K"]}
            ),
        )
    )
    return doc


def proposal(**over):
    base = {
        "kind": "value",
        "table": "frpm",
        "column": "Low Grade",
        "literal": "K",
        "rationale": "K appears in the samples",
        "source_turn": [0, 0],
    }
    base.update(over)
    return base


def test_harvest_keeps_grounded_value_linking():
    doc = probe_doc()
    llm = RecordingSession([json.dumps([proposal()])])
    out = harvest_linkings(doc, llm)
    assert len(out) == 1
    link = out[0]
    assert (link.kind, link.table, link.column, link.literal) == (
        "value",
        "frpm",
        "Low Grade",
        "K",
    )
    assert link.source_turn == (0, 0)
    req = llm.requests[0]
    assert req.temperature == HARVEST.temperature
    assert '"samples"' in req.messages[-1].content


def test_harvest_keeps_none_of_an_array_nested_too_deeply():
    assert harvest_linkings(probe_doc(), ScriptedSession(["[" * 1000])) == []


def test_harvest_replaces_a_lone_surrogate_in_the_rationale():
    doc = probe_doc()
    # json.dumps escapes the surrogate as \ud800, which is how JSON carries it
    llm = ScriptedSession([json.dumps([proposal(rationale="K \ud800 appears")])])
    [link] = harvest_linkings(doc, llm)
    assert link.rationale == "K \ufffd appears"
    doc.add_verified(link)
    assert "K \ufffd appears" in serialize(doc).decode("utf-8")


def test_harvest_drops_ungrounded_proposals():
    doc = probe_doc()
    llm = ScriptedSession(
        [
            json.dumps(
                [
                    proposal(column="Nonexistent"),
                    proposal(literal="Z"),
                    proposal(column="low grade"),
                    proposal(table=5),
                    proposal(column=["Low Grade"]),
                    proposal(literal=True),
                ]
            )
        ]
    )
    assert harvest_linkings(doc, llm) == []


def test_harvest_keeps_a_value_only_under_the_column_that_holds_it():
    doc = one_clause_doc()
    rows = {"columns": ["City", "County"], "rows": [["Davis", "Yolo"]]}
    append_turn(
        doc, 0, Turn("look", ToolCall("head", {"table": "schools", "n": 1}), ToolFeedback.standard(rows))
    )
    where = {"table": "schools", "literal": "Yolo"}
    llm = ScriptedSession(
        [json.dumps([proposal(**where, column="City"), proposal(**where, column="County")])]
    )
    # each field alone is in the turn: the flat facts would keep both
    assert {"schools", "City", "County", "Yolo"} <= doc.turns[0][0].facts
    assert [(l.column, l.literal) for l in harvest_linkings(doc, llm)] == [("County", "Yolo")]


NAMES = st.sampled_from(["schools", "Schools", "City", "city", "County"])
LITERALS = st.sampled_from(["Davis", "Yolo", "1", 1, 264.0, "264.0", "K"])


@st.composite
def standard_turns(draw):
    table, column = draw(NAMES), draw(NAMES)
    shape = draw(st.sampled_from(["value_in", "sim_value_in", "uniq_value", "head"]))
    args = {"table": table, "column": column}
    if shape == "value_in":
        args["value"] = draw(LITERALS)
        result = {"exists": draw(st.booleans()), "match_count": draw(st.integers(0, 2))}
    elif shape == "sim_value_in":
        values = draw(st.lists(LITERALS, max_size=3))
        result = {"matches": [{"value": v, "score": 0.5} for v in values], "pool_size": 4}
    elif shape == "uniq_value":
        result = {"distinct_count": draw(st.integers(0, 9)), "samples": draw(st.lists(LITERALS, max_size=3))}
    else:
        args = {"table": table, "n": 2}
        names = draw(st.lists(NAMES, min_size=1, max_size=3))
        cells = st.lists(LITERALS, min_size=len(names), max_size=len(names))
        result = {"columns": names, "rows": draw(st.lists(cells, max_size=3))}
    return Turn("probe", ToolCall(shape, args), ToolFeedback.standard(result))


PROPOSALS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["value", "schema", "function"]),
        "table": NAMES,
        "column": NAMES | st.none(),
        "literal": LITERALS | st.none(),
        "rationale": st.just("probed"),
        "source_turn": st.just([0, 0]),
    }
)


@settings(max_examples=300, deadline=None)
@given(st.lists(standard_turns(), min_size=1, max_size=4), st.lists(PROPOSALS, max_size=6))
def test_a_value_in_its_column_is_kept_only_where_each_field_alone_was(turns, proposals):
    # oracle, the flat rule: one standard turn's facts hold every named field;
    # the column-aware rule keeps a subsequence of what it keeps
    doc = one_clause_doc(max_turns=len(turns))
    for turn in turns:
        append_turn(doc, 0, turn)

    def fields(item):
        literal = item["literal"]
        return item["kind"], item["table"], item["column"], None if literal is None else str(literal)

    flat = []
    for item in proposals:
        kind, table, column, literal = fields(item)
        if kind == "value" and not (column and literal is not None):
            continue
        needed = {f for f in (table, column, literal) if f is not None}
        if any(needed <= turn.facts for turn in turns):
            flat.append((kind, table, column, literal))
    kept = harvest_linkings(doc, ScriptedSession([json.dumps(proposals)]))
    assert is_subsequence([(l.kind, l.table, l.column, l.literal) for l in kept], flat)
    for link in kept:
        ci, ti = link.source_turn
        fields_named = {f for f in (link.table, link.column, link.literal) if f is not None}
        assert fields_named <= doc.turns[ci][ti].facts


def parent_harvest(doc, proposals):
    """Reference: the harvest's own grounding rule before the document kept
    it (Turn.affirms), as (kind, table, column, literal, source_turn)."""
    grounded_turns = [
        ((ci, ti), turn)
        for ci, column in enumerate(doc.turns)
        for ti, turn in enumerate(column)
        if turn.feedback.kind == "standard"
    ]
    out = []
    for item in proposals:
        if not isinstance(item, dict):
            continue
        literal = item.get("literal")
        if isinstance(literal, (int, float)) and not isinstance(literal, bool):
            literal = str(literal)
        try:
            link = VerifiedLinking(
                kind=item.get("kind"),
                table=item.get("table"),
                column=item.get("column"),
                literal=literal,
                rationale="",
                source_turn=(0, 0),
            )
        except SchemaViolation:
            continue
        needed = {f for f in (link.table, link.column, link.literal) if f is not None}
        value = link.kind == "value"
        triple = (link.table.lower(), link.column.lower(), link.literal) if value else None
        cited = item.get("source_turn")
        candidates = sorted(grounded_turns, key=lambda g: list(g[0]) != cited)
        grounding = (
            idx
            for idx, turn in candidates
            if needed <= turn.facts and (triple is None or triple in turn.value_facts)
        )
        source = next(grounding, None)
        if source is not None:
            out.append((link.kind, link.table, link.column, link.literal, source))
    return out


def refused(feedback):
    """A strategy of turns with standard_turns' calls and the given feedback."""
    return standard_turns().map(lambda turn: Turn("probe", turn.tool_call, feedback))


ANY_TURNS = st.one_of(
    standard_turns(),
    standard_turns(),
    refused(ToolFeedback.corrective("no such column")),
    refused(ToolFeedback.guiding("Consider using uniq_value.")),
)
CITED = st.one_of(
    st.tuples(st.integers(0, 1), st.integers(0, 3)).map(list),
    st.lists(st.integers(0, 3) | st.booleans() | st.floats(0, 3), max_size=3),
    st.sampled_from([None, "0,0", {"clause": 0}]),
)


@st.composite
def harvest_cases(draw):
    """A two-clause document of any turns, and harvest output whose fields
    come mostly from one of its turns, so that many are kept."""
    doc = two_clause_doc(max_turns=4)
    for ci, turn in draw(st.lists(st.tuples(st.integers(0, 1), ANY_TURNS), min_size=1, max_size=8)):
        if len(doc.turns[ci]) < doc.max_turns:
            append_turn(doc, ci, turn)
    turns = [turn for column in doc.turns for turn in column]
    proposals = []
    for _ in range(draw(st.integers(1, 6))):
        turn = draw(st.sampled_from(turns))
        words = st.sampled_from(sorted(turn.facts)) if turn.facts else NAMES
        # a value the turn pairs with its column, names as the turn writes them
        table, column, value = draw(st.sampled_from(sorted(turn.value_facts) or [(None,) * 3]))
        table, column = (
            draw(st.sampled_from([f for f in sorted(turn.facts) if f.lower() == name] or [name]))
            for name in (table, column)
        )
        item = {
            "kind": st.sampled_from(["value", "value", "schema", "function", "other"]),
            "table": st.one_of(st.just(table), st.just(table), words, NAMES, st.none(), st.just(0)),
            "column": st.one_of(st.just(column), st.just(column), words, NAMES, st.none()),
            "literal": st.one_of(
                st.just(value), st.just(value), words, LITERALS,
                st.none(), st.booleans(), st.just(["K"]),
            ),
            "rationale": st.just("probed"),
            "source_turn": CITED,
        }
        other = st.sampled_from(["not an object", None, 3])
        proposal = st.fixed_dictionaries(item)
        proposals.append(draw(st.one_of(proposal, proposal, other)))
    return doc, proposals


@settings(max_examples=300, deadline=None)
@given(harvest_cases())
def test_harvest_keeps_what_the_parent_rule_kept_with_the_same_source_turns(case):
    doc, proposals = case
    kept = harvest_linkings(doc, ScriptedSession([json.dumps(proposals)]))
    assert [
        (l.kind, l.table, l.column, l.literal, l.source_turn) for l in kept
    ] == parent_harvest(doc, proposals)
    # each is what the pipeline adds to the document
    for link in kept:
        doc.add_verified(link)
    assert doc.verified == kept


def is_subsequence(part, whole):
    rest = iter(whole)
    return all(item in rest for item in part)


def test_harvest_relocates_bad_source_turn():
    for cited in ([5, 9], [[0], 0], [0], "0,0", None):
        doc = probe_doc()
        llm = ScriptedSession([json.dumps([proposal(source_turn=cited)])])
        out = harvest_linkings(doc, llm)
        assert len(out) == 1
        assert out[0].source_turn == (0, 0)


def test_harvest_relocates_source_pointing_at_corrective_turn():
    doc = one_clause_doc()
    doc.turns[0].append(
        Turn(
            thought="bad",
            tool_call=ToolCall("value_in", {"table": "frpm", "column": "No Such", "value": "K"}),
            feedback=ToolFeedback.corrective("no such column: No Such"),
        )
    )
    doc.turns[0].append(
        Turn(
            thought="fixed",
            tool_call=ToolCall("uniq_value", {"table": "frpm", "column": "Low Grade"}),
            feedback=ToolFeedback.standard({"distinct_count": 4, "samples": ["K"]}),
        )
    )
    llm = ScriptedSession([json.dumps([proposal(source_turn=[0, 0])])])
    out = harvest_linkings(doc, llm)
    assert len(out) == 1
    assert out[0].source_turn == (0, 1)


def test_harvest_mixed_keeps_only_grounded_in_order():
    doc = probe_doc()
    llm = ScriptedSession(
        [
            json.dumps(
                [
                    proposal(),
                    proposal(table="made_up"),
                    {
                        "kind": "schema",
                        "table": "frpm",
                        "column": None,
                        "literal": None,
                        "rationale": "table exists",
                        "source_turn": [0, 0],
                    },
                    "not even an object",
                ]
            )
        ]
    )
    out = harvest_linkings(doc, llm)
    assert [l.kind for l in out] == ["value", "schema"]


def test_harvest_coerces_numeric_literal_to_text():
    doc = probe_doc()
    # 9 is a sample of Low Grade; 4 is only the distinct count, no value of it
    llm = ScriptedSession([json.dumps([proposal(literal=9), proposal(literal=4)])])
    out = harvest_linkings(doc, llm)
    assert [link.literal for link in out] == ["9"]


def test_harvest_on_corrective_only_doc_is_empty():
    doc = one_clause_doc()
    doc.turns[0].append(
        Turn(
            thought="bad",
            tool_call=ToolCall("value_in", {"table": "frpm", "column": "No Such", "value": "K"}),
            feedback=ToolFeedback.corrective("no such column: No Such"),
        )
    )
    llm = ScriptedSession([json.dumps([proposal()])])
    assert harvest_linkings(doc, llm) == []


def test_harvest_parse_failure_yields_empty_list():
    doc = probe_doc()
    llm = ScriptedSession(["I could not find any linkings."])
    assert harvest_linkings(doc, llm) == []


def test_harvest_propagates_exhausted_script():
    doc = probe_doc()
    with pytest.raises(LlmError, match=r"^replay script exhausted after 0 responses$"):
        harvest_linkings(doc, ScriptedSession([]))
