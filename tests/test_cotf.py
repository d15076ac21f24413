"""Workspace document: construction, append, codec."""

from __future__ import annotations

import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diver import cotf
from diver.cotf import (
    SCHEMA_VERSION,
    Clause,
    CoTFDocument,
    Question,
    ToolCall,
    ToolFeedback,
    Turn,
    VerifiedLinking,
    _encode,
    append_turn,
    deserialize,
    document_facts,
    dumps,
    serialize,
)
from diver.errors import SchemaViolation
from diver.tokens import tokenize
from diver.toolbox import TOOL_NAMES

GOLDEN_TRACE = Path(__file__).resolve().parent / "golden" / "probe_trace.json"


def make_clauses(text: str, cuts: list[int]) -> list[Clause]:
    """Build a clause partition by cutting the token sequence at the given
    indices. Independent of the breakup module's refinement logic."""
    toks = tokenize(text)
    bounds = [0] + sorted(cuts) + [len(toks)]
    clauses = []
    for i in range(len(bounds) - 1):
        s, e = bounds[i], bounds[i + 1]
        clauses.append(
            Clause(index=i, text=text[toks[s].start : toks[e - 1].end], token_span=(s, e))
        )
    return clauses


def small_doc(max_turns: int = 5) -> CoTFDocument:
    q = Question(question_id="q1", db_id="db1", text="List magnet schools.")
    return CoTFDocument(question=q, clauses=make_clauses(q.text, []), max_turns=max_turns)


def test_tool_names_has_nine_tools_with_none_last():
    assert len(TOOL_NAMES) == 9
    assert TOOL_NAMES[-1] == "none"
    assert len(set(TOOL_NAMES)) == 9


def test_append_records_turn():
    doc = small_doc()
    turn = Turn(
        thought="probe the Magnet column",
        tool_call=ToolCall("value_in", {"table": "schools", "column": "Magnet", "value": "1"}),
        feedback=ToolFeedback.standard({"exists": True, "match_count": 2}),
    )
    append_turn(doc, 0, turn)
    assert doc.turns[0] == [turn]


def test_append_to_bad_clause_index():
    doc = small_doc()
    turn = Turn("t", ToolCall("none", {}), ToolFeedback.standard({}))
    with pytest.raises(SchemaViolation, match=r"^clause index 1 out of range$"):
        append_turn(doc, 1, turn)
    with pytest.raises(SchemaViolation, match=r"^clause index -1 out of range$"):
        append_turn(doc, -1, turn)


def test_append_past_budget_raises():
    doc = small_doc(max_turns=2)
    mk = lambda i: Turn(
        f"thought {i}",
        ToolCall("head", {"table": "schools", "n": i + 1}),
        ToolFeedback.standard({"rows": []}),
    )
    append_turn(doc, 0, mk(0))
    append_turn(doc, 0, mk(1))
    with pytest.raises(SchemaViolation, match=r"^clause 0 already holds 2 turns$"):
        append_turn(doc, 0, mk(2))


def test_append_after_none_raises():
    doc = small_doc()
    append_turn(doc, 0, Turn("done", ToolCall("none", {}), ToolFeedback.standard({})))
    with pytest.raises(SchemaViolation, match=r"^clause 0 already ended with none$"):
        append_turn(doc, 0, Turn("again", ToolCall("none", {}), ToolFeedback.standard({})))


def probe(i: int) -> Turn:
    return Turn(
        f"thought {i}",
        ToolCall("head", {"table": "schools", "n": i + 1}),
        ToolFeedback.standard({"rows": []}),
    )


STOP = Turn("done", ToolCall("none", {}), ToolFeedback.standard({}))


@pytest.mark.parametrize(
    "column, message",
    [
        ([probe(i) for i in range(6)], "clause 0 already holds 5 turns"),
        ([probe(0), STOP, probe(1)], "clause 0 already ended with none"),
    ],
    ids=["six_turns", "turn_after_none"],
)
def test_a_trace_is_refused_with_the_probing_loops_message(column, message):
    # the constructor and deserialize fill a document through append_turn
    doc = small_doc(max_turns=5)
    with pytest.raises(SchemaViolation, match=f"^{message}$"):
        CoTFDocument(doc.question, doc.clauses, [column], max_turns=5)
    payload = json.loads(serialize(doc))
    payload["turns"] = [[asdict(turn) for turn in column]]
    with pytest.raises(SchemaViolation, match=f"^{message}$"):
        deserialize(json.dumps(payload))
    for turn in column[:-1]:
        append_turn(doc, 0, turn)
    with pytest.raises(SchemaViolation, match=f"^{message}$"):
        append_turn(doc, 0, column[-1])


@pytest.mark.parametrize("bad", ["a thought", asdict(probe(0)), None])
def test_a_turn_that_is_no_turn_is_refused_by_append_turn(bad):
    doc = small_doc()
    message = f"^a turn must be a Turn, got {type(bad).__name__}$"
    with pytest.raises(SchemaViolation, match=message):
        append_turn(doc, 0, bad)
    with pytest.raises(SchemaViolation, match=message):
        CoTFDocument(doc.question, doc.clauses, [[probe(0), bad]])
    assert doc.turns == [[]]


def test_feedback_kind_result_coupling():
    with pytest.raises(SchemaViolation):
        ToolFeedback(kind="standard", message="", result=None)
    with pytest.raises(SchemaViolation):
        ToolFeedback(kind="corrective", message="boom", result={"x": 1})
    with pytest.raises(SchemaViolation):
        ToolFeedback(kind="guiding", message="", result=None)  # guiding needs a suggestion
    ToolFeedback(kind="standard", message="", result={})  # empty-but-present is fine


def test_value_linking_requires_all_parts():
    with pytest.raises(SchemaViolation):
        VerifiedLinking(kind="value", table="frpm", column=None, literal="K",
                        rationale="", source_turn=(0, 0))
    with pytest.raises(SchemaViolation):
        VerifiedLinking(kind="schema", table=None, column="Magnet",
                        literal=None, rationale="", source_turn=(0, 0))
    with pytest.raises(SchemaViolation):
        VerifiedLinking(kind="nonsense", table="t", column="c", literal="v",
                        rationale="", source_turn=(0, 0))


def test_linking_fields_are_strings_or_null():
    good = dict(kind="value", table="frpm", column="Low Grade", literal="K",
                rationale="", source_turn=(0, 0))
    for name, value in (("table", 5), ("column", ["x"]), ("literal", 1.5)):
        with pytest.raises(SchemaViolation, match=f"linking.{name} must be a string or null"):
            VerifiedLinking(**{**good, name: value})
    payload = json.loads(GOLDEN_TRACE.read_text(encoding="utf-8"))
    payload["verified"][0].update(table=5, column=["x"])
    with pytest.raises(SchemaViolation):
        deserialize(json.dumps(payload).encode("utf-8"))


def test_clause_partition_enforced():
    q = Question(question_id="q3", db_id="db1", text="alpha beta gamma")
    # gap between spans
    with pytest.raises(SchemaViolation):
        CoTFDocument(
            question=q,
            clauses=[
                Clause(0, "alpha", (0, 1)),
                Clause(1, "gamma", (2, 3)),
            ],
            max_turns=5,
        )
    # does not cover the tail
    with pytest.raises(SchemaViolation):
        CoTFDocument(question=q, clauses=[Clause(0, "alpha beta", (0, 2))], max_turns=5)
    # clause text not the verbatim span
    with pytest.raises(SchemaViolation):
        CoTFDocument(question=q, clauses=[Clause(0, "ALPHA BETA GAMMA", (0, 3))], max_turns=5)


# --- codec ---

GOLDEN_PAYLOAD = {
    "schema_version": 2,
    "question": {"question_id": "q1", "db_id": "db1", "text": "List magnet schools."},
    "clauses": [{"index": 0, "text": "List magnet schools.", "token_span": [0, 4]}],
    "turns": [
        [
            {
                "thought": "probe the café column",
                "tool_call": {
                    "tool": "value_in",
                    "args": {"table": "schools", "column": "Magnet", "value": "1"},
                },
                "feedback": {
                    "kind": "standard",
                    "message": "",
                    "result": {"exists": True, "match_count": 2},
                },
            }
        ]
    ],
    "verified": [
        {
            "kind": "value",
            "table": "schools",
            "column": "Magnet",
            "literal": "1",
            "rationale": "value_in confirmed the literal",
            "source_turn": [0, 0],
        }
    ],
    "max_turns": 5,
}


def golden_doc() -> CoTFDocument:
    q = Question(question_id="q1", db_id="db1", text="List magnet schools.")
    doc = CoTFDocument(question=q, clauses=make_clauses(q.text, []), max_turns=5)
    append_turn(
        doc,
        0,
        Turn(
            thought="probe the café column",
            tool_call=ToolCall("value_in", {"table": "schools", "column": "Magnet", "value": "1"}),
            feedback=ToolFeedback.standard({"exists": True, "match_count": 2}),
        ),
    )
    doc.add_verified(
        VerifiedLinking(
            kind="value",
            table="schools",
            column="Magnet",
            literal="1",
            rationale="value_in confirmed the literal",
            source_turn=(0, 0),
        )
    )
    return doc


def test_serialize_matches_canonical_stdlib_encoding():
    # oracle: the stdlib encoder applied to a hand-written payload dict
    expected = (
        json.dumps(GOLDEN_PAYLOAD, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    ).encode("utf-8")
    assert serialize(golden_doc()) == expected


def test_serialize_is_utf8_not_ascii_escaped():
    raw = serialize(golden_doc())
    assert "café".encode("utf-8") in raw


def test_round_trip_golden():
    doc = golden_doc()
    assert deserialize(serialize(doc)) == doc
    # and the bytes are stable through a round trip
    assert serialize(deserialize(serialize(doc))) == serialize(doc)


WORDS = [
    "schools", "magnet", "grade", "span", "count", "K", "8", "Fresno",
    "charter", "free", "meal", "rate", "café", "שם", "数", "low",
]


def random_doc(rng: random.Random) -> CoTFDocument:
    n_tokens = rng.randint(1, 12)
    text = " ".join(rng.choice(WORDS) for _ in range(n_tokens))
    toks = tokenize(text)
    n_cuts = rng.randint(0, min(3, len(toks) - 1))
    cuts = sorted(rng.sample(range(1, len(toks)), n_cuts)) if n_cuts else []
    q = Question(question_id=f"q{rng.randint(0, 999)}", db_id="fuzzdb", text=text)
    doc = CoTFDocument(question=q, clauses=make_clauses(text, cuts), max_turns=rng.randint(1, 6))
    for ci in range(len(doc.clauses)):
        for _ in range(rng.randint(0, doc.max_turns)):
            tool = rng.choice(TOOL_NAMES)
            if doc.turns[ci] and doc.turns[ci][-1].tool_call.tool == "none":
                break
            kind = rng.choice(["standard", "corrective", "guiding"])
            if kind == "standard":
                fb = ToolFeedback.standard(
                    {"rows": [[1, "a"], [2, None]], "note": rng.choice(WORDS)}
                )
            elif kind == "corrective":
                fb = ToolFeedback.corrective("no such column: " + rng.choice(WORDS))
            else:
                fb = ToolFeedback.guiding("Consider using uniq_value to enumerate values.")
            args: dict = {"table": "t", "n": rng.randint(1, 5), "flag": rng.choice([True, None])}
            append_turn(doc, ci, Turn(f"thought {rng.random():.3f}", ToolCall(tool, args), fb))
    # attach a linking when some clause has a standard turn
    for ci, turns in enumerate(doc.turns):
        for ti, t in enumerate(turns):
            if t.feedback.kind == "standard":
                doc.add_verified(
                    VerifiedLinking(
                        kind="schema",
                        table="t",
                        column=rng.choice([None, "c"]),
                        literal=None,
                        rationale="seen in probe output",
                        source_turn=(ci, ti),
                    )
                )
                return doc
    return doc


def test_round_trip_fuzz():
    rng = random.Random(20240817)
    for _ in range(150):
        doc = random_doc(rng)
        again = deserialize(serialize(doc))
        assert again == doc
        assert serialize(again) == serialize(doc)


def one_shot_bytes(doc: CoTFDocument) -> bytes:
    """Reference encoding: the whole document's fields through json.dumps."""
    payload = {**asdict(doc), "schema_version": SCHEMA_VERSION}
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    return text.encode("utf-8")


# quotes, backslashes, control characters, a JSON-legal line separator and
# non-ASCII letters up to the astral plane, mixed into arbitrary text
TRICKY = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ש", "数", "\u2028", "😀"]
)
TEXT = st.text(TRICKY | st.characters(exclude_categories=("Cs",)), max_size=10)
# a tool call's args and a feedback result both refuse non-finite floats
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | TEXT
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)
# arrays as lists and as tuples, nested deeper than a record's own
DEEP_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)
FEEDBACK = (
    st.builds(
        ToolFeedback,
        kind=st.just("standard"),
        message=TEXT,
        result=st.dictionaries(TEXT, JSON_VALUES, max_size=3),
    )
    | st.builds(ToolFeedback.corrective, TEXT.filter(bool))
    | st.builds(ToolFeedback.guiding, TEXT.filter(bool))
)
TURNS = st.builds(
    Turn,
    thought=TEXT,
    tool_call=st.builds(
        ToolCall,
        tool=st.sampled_from(TOOL_NAMES) | TEXT,
        args=st.dictionaries(TEXT, SCALARS, max_size=3),
    ),
    feedback=FEEDBACK,
)
LINKINGS = st.tuples(st.integers(0, 99), TEXT.filter(bool), st.none() | TEXT, TEXT)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(TEXT, DEEP_VALUES, max_size=4), st.integers(0, 3))
def test_a_fragment_is_what_json_dumps_writes_at_its_depth(payload, depth):
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)
    parts: list[str] = []
    _encode(payload, "\n" + "  " * depth, parts)
    assert "".join(parts) == text.replace("\n", "\n" + "  " * depth)


@settings(max_examples=200, deadline=None)
@given(DEEP_VALUES)
def test_dumps_is_what_json_dumps_writes(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2)


def test_a_record_written_alone_keeps_a_document_written_right():
    # a record keeps its text per depth: written alone first, it still
    # writes at its own depth inside the document, and again alone after
    doc = golden_doc()
    turn = doc.turns[0][0]
    alone = json.dumps(asdict(turn), sort_keys=True, ensure_ascii=False, indent=2)
    assert dumps(turn) == alone
    assert serialize(doc) == one_shot_bytes(doc)
    assert dumps(turn) == alone
    assert dumps([turn]) == json.dumps([asdict(turn)], sort_keys=True, ensure_ascii=False, indent=2)


@st.composite
def growing_documents(draw):
    """An empty document plus the turns and linkings to add to it."""
    text = " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8)))
    n_tokens = len(tokenize(text))
    cuts = draw(st.sets(st.integers(1, n_tokens - 1), max_size=3)) if n_tokens > 1 else set()
    question = Question(question_id=draw(TEXT.filter(bool)), db_id="db", text=text)
    doc = CoTFDocument(
        question=question,
        clauses=make_clauses(text, sorted(cuts)),
        max_turns=draw(st.integers(1, 4)),
    )
    turns = draw(st.lists(st.tuples(st.integers(0, len(cuts)), TURNS), max_size=8))
    return doc, turns, draw(st.lists(LINKINGS, max_size=3))


@settings(max_examples=60, deadline=None)
@given(growing_documents())
def test_serialize_equals_one_shot_encoding_as_the_document_grows(case):
    doc, turns, linkings = case

    def check():
        data = serialize(doc)
        assert data == one_shot_bytes(doc)
        again = deserialize(data)
        assert again == doc
        # equal turns that are other objects are encoded from their own fields
        assert serialize(again) == data

    check()
    for ci, turn in turns:
        column = doc.turns[ci]
        if len(column) < doc.max_turns and not (column and column[-1].tool_call.tool == "none"):
            append_turn(doc, ci, turn)
            check()
    sources = [
        (ci, ti)
        for ci, column in enumerate(doc.turns)
        for ti, turn in enumerate(column)
        if turn.feedback.kind == "standard"
    ]
    for pick, table, column, rationale in linkings:
        if not sources:
            break
        doc.add_verified(
            VerifiedLinking(
                kind="schema",
                table=table,
                column=column,
                literal=None,
                rationale=rationale,
                source_turn=sources[pick % len(sources)],
            )
        )
        check()
    # a question or a linking put in place of an encoded one is encoded from its own fields
    doc.question = replace(doc.question, question_id=doc.question.question_id + "!", db_id="é")
    check()
    if doc.verified:
        doc.verified[0] = replace(doc.verified[0], rationale=doc.verified[0].rationale + "\u2028")
        check()
    # so is a turn
    for suffix in "!?!?":
        for column in doc.turns:
            for ti, turn in enumerate(column):
                column[ti] = replace(turn, thought=turn.thought + suffix)
        check()


def test_documents_sharing_records_serialize_alike_across_threads():
    rng = random.Random(20261019)
    sources = [random_doc(rng) for _ in range(30)]
    expected = [one_shot_bytes(doc) for doc in sources]
    # other objects than the sources' records, so those stay unencoded until the threads run
    expected_facts = [document_facts(deserialize(data)) for data in expected]
    barrier = threading.Barrier(8)

    def work(_):
        # a document of its own per source, holding the source's very records
        docs = [replace(d) for d in sources]
        barrier.wait()
        return [(serialize(doc), document_facts(doc)) for doc in docs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [list(zip(expected, expected_facts))] * 8
    for doc, data in zip(sources, expected):
        again = deserialize(data)
        assert [t.facts for c in again.turns for t in c] == [t.facts for c in doc.turns for t in c]


def test_question_and_linking_cannot_change_once_built():
    doc = golden_doc()
    with pytest.raises(FrozenInstanceError):
        doc.question.text = "Another question"
    with pytest.raises(FrozenInstanceError):
        doc.verified[0].rationale = "another rationale"
    with pytest.raises(FrozenInstanceError):
        doc.turns[0][0].thought = "another thought"


@pytest.mark.parametrize("n_turns", [1, 4, 8])
def test_a_document_written_again_escapes_only_its_own_keys(n_turns, monkeypatch):
    doc = small_doc(max_turns=8)
    for i in range(n_turns):
        feedback = ToolFeedback.standard({"rows": [[i, "café"]], "note": "n"})
        append_turn(doc, 0, Turn(f"thought {i}", ToolCall("head", {"table": "t"}), feedback))
    doc.add_verified(
        VerifiedLinking("schema", "t", None, None, "seen in a probe", source_turn=(0, 0))
    )
    first = serialize(doc)
    escaped: list[str] = []
    encode = cotf._json_string
    monkeypatch.setattr(cotf, "_json_string", lambda text: escaped.append(text) or encode(text))
    # every record keeps the text of its first write, so a second write
    # escapes no string of a record, however many turns the document holds
    assert serialize(doc) == first
    assert escaped == ["clauses", "max_turns", "question", "schema_version", "turns", "verified"]


# paths to one object of each kind in a serialized golden_doc()
LEVELS = [
    (),
    ("question",),
    ("clauses", 0),
    ("turns", 0, 0),
    ("turns", 0, 0, "tool_call"),
    ("turns", 0, 0, "feedback"),
    ("verified", 0),
]


def at(payload, path):
    for step in path:
        payload = payload[step]
    return payload


def test_deserialize_rejects_a_document_nested_too_deeply():
    for data in (b"[" * 100_000, "[" * 100_000, b'{"a": ' * 100_000):
        with pytest.raises(SchemaViolation, match="^malformed document: maximum recursion depth"):
            deserialize(data)


def test_deserialize_rejects_malformed():
    good = json.loads(serialize(golden_doc()).decode("utf-8"))

    def broken(mutate):
        payload = json.loads(json.dumps(good))
        mutate(payload)
        return json.dumps(payload).encode("utf-8")

    cases = [
        lambda p: p.pop("question"),
        lambda p: p.pop("schema_version"),
        lambda p: p.__setitem__("schema_version", 99),
        # a version-1 trace, whose question carried the dataset's answers
        lambda p: p.__setitem__("schema_version", 1),
        lambda p: p["question"].update(gold_sql=None, expert_evidence=None, difficulty=None),
        lambda p: p["turns"][0][0]["feedback"].__setitem__("kind", "helpful"),
        lambda p: p["clauses"][0].__setitem__("token_span", [0]),
        lambda p: p["turns"][0][0]["tool_call"].__setitem__("args", {"x": [1, 2]}),
        lambda p: p["turns"][0][0]["tool_call"].__setitem__("tool", 7),
        lambda p: p.__setitem__("turns", []),
        lambda p: p["question"].__setitem__("text", ""),
        lambda p: p["verified"][0].__setitem__("source_turn", [0, 5]),
        lambda p: p.__setitem__("verified", {}),
        lambda p: p["turns"].__setitem__(0, ""),
        # JSON booleans are not integers
        lambda p: p.__setitem__("max_turns", True),
        lambda p: p["clauses"][0].__setitem__("index", False),
        lambda p: p["clauses"][0]["token_span"].__setitem__(0, False),
        lambda p: p["verified"][0]["source_turn"].__setitem__(1, False),
    ]
    # a missing and an unknown key at every level of the document
    for path in LEVELS:
        for key in dict(at(good, path)):
            cases.append(lambda p, path=path, key=key: at(p, path).pop(key))
        cases.append(lambda p, path=path: at(p, path).__setitem__("extra", None))
    for mutate in cases:
        with pytest.raises(SchemaViolation):
            deserialize(broken(mutate))
    with pytest.raises(SchemaViolation):
        deserialize(b"{not json")
    with pytest.raises(SchemaViolation):
        deserialize(b"[1, 2, 3]")


def test_turn_after_none_rejected_on_deserialize():
    doc = small_doc()
    append_turn(doc, 0, Turn("stop", ToolCall("none", {}), ToolFeedback.standard({})))
    payload = json.loads(serialize(doc).decode("utf-8"))
    payload["turns"][0].append(
        {
            "thought": "zombie",
            "tool_call": {"tool": "head", "args": {"table": "t", "n": 1}},
            "feedback": {"kind": "corrective", "message": "x", "result": None},
        }
    )
    with pytest.raises(SchemaViolation):
        deserialize(json.dumps(payload).encode("utf-8"))


def test_hallucinated_tool_name_survives_round_trip():
    # traces must record invalid calls faithfully so replays stay honest
    doc = small_doc()
    append_turn(
        doc,
        0,
        Turn("?", ToolCall("frobnicate", {"x": 1}), ToolFeedback.corrective("unknown tool: frobnicate")),
    )
    assert deserialize(serialize(doc)) == doc


@pytest.mark.parametrize(
    "tool, args",
    [
        ("\ud800", {}),
        ("head", {"table\udfff": "t"}),
        ("sim_value_in", {"query_text": "\ud800abc"}),
    ],
)
def test_tool_call_rejects_a_lone_surrogate(tool, args):
    # json.loads turns the escape "\ud800" into a lone surrogate, which
    # neither SQLite nor the UTF-8 trace can take
    with pytest.raises(SchemaViolation, match="is not valid UTF-8"):
        ToolCall(tool, args)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_tool_call_rejects_a_non_finite_number(value):
    # json.loads reads NaN and Infinity, which a strict JSON parser refuses
    with pytest.raises(SchemaViolation, match="must be a finite number"):
        ToolCall("head", {"table": "t", "n": value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_feedback_result_rejects_a_non_finite_number(value):
    # toolbox writes an infinite REAL cell as "Inf" or "-Inf" before it gets here
    with pytest.raises(SchemaViolation, match="must be a finite number"):
        ToolFeedback.standard({"rows": [[1, value]]})
    # json.dumps writes NaN and Infinity, and json.loads reads them back
    payload = json.loads(GOLDEN_TRACE.read_text(encoding="utf-8"))
    standard = [t for c in payload["turns"] for t in c if t["feedback"]["kind"] == "standard"]
    standard[0]["feedback"]["result"]["v"] = value
    with pytest.raises(SchemaViolation, match="must be a finite number"):
        deserialize(json.dumps(payload))


def _facts(args, result):
    return Turn("t", ToolCall("probe", args), ToolFeedback.standard(result)).facts


def test_turn_facts_are_what_the_result_affirms():
    where = {"table": "ledger", "column": "party"}
    # a refuted value is no fact; the resolved table and column are
    absent = {"exists": False, "match_count": 0}
    assert _facts({**where, "value": "Acme Corporation"}, absent) == {"ledger", "party", "0"}
    present = {"exists": True, "match_count": 2}
    assert _facts({**where, "value": 7}, present) == {"ledger", "party", "7", "2"}
    # a query text, k, n and limit are affirmed only by what the result holds
    matches = {"matches": [{"value": "Acme Corp", "score": 0.5}], "pool_size": 3}
    assert _facts({**where, "query_text": "Zeta Ltd", "k": 4}, matches) == {
        "ledger", "party", "Acme Corp", "0.5", "3"
    }
    assert _facts({"table": "ledger", "n": 9}, {"columns": ["party"], "rows": []}) == {
        "ledger", "party"
    }
    # a drawn seed stays a fact through the result that repeats it
    rows = {"columns": ["party"], "rows": [["Acme Corp"]], "seed": 11}
    assert _facts({"table": "ledger", "n": 1, "seed": 11}, rows) == {
        "ledger", "party", "Acme Corp", "11"
    }
    assert Turn("t", ToolCall("value_in", where), ToolFeedback.corrective("no")).facts == set()


def _value_facts(args, result):
    return Turn("t", ToolCall("probe", args), ToolFeedback.standard(result)).value_facts


def test_turn_value_facts_pair_each_value_with_its_column():
    where = {"table": "Ledger", "column": "Party"}
    # value_in: its own arguments, only when the value exists; names lowercased
    present = {"exists": True, "match_count": 2}
    assert _value_facts({**where, "value": 7}, present) == {("ledger", "party", "7")}
    absent = {"exists": False, "match_count": 0}
    assert _value_facts({**where, "value": "Acme"}, absent) == set()
    # sim_value_in matches and uniq_value samples: the call's table and column
    matches = {"matches": [{"value": "Acme Corp", "score": 0.5}], "pool_size": 3}
    assert _value_facts({**where, "query_text": "Zeta", "k": 4}, matches) == {
        ("ledger", "party", "Acme Corp")
    }
    samples = {"distinct_count": 4, "samples": ["K", 264.0, 1, None, True]}
    assert _value_facts(where, samples) == {
        ("ledger", "party", "K"), ("ledger", "party", "264.0"), ("ledger", "party", "1")
    }
    # head and random: each cell under its own column name
    rows = {"columns": ["City", "County"], "rows": [["Davis", "Yolo"], [None, 5]], "seed": 11}
    assert _value_facts({"table": "schools", "n": 2, "seed": 11}, rows) == {
        ("schools", "city", "Davis"), ("schools", "county", "Yolo"), ("schools", "county", "5")
    }
    # sim_columns names columns, not values; info holds no rows
    ranked = {"matches": [{"table": "frpm", "column": "Low Grade", "score": 0.9}]}
    assert _value_facts({"query_text": "grade"}, ranked) == set()
    info = {"row_count": 3, "columns": [{"name": "City", "null_fraction": 0.0}]}
    assert _value_facts({"table": "schools"}, info) == set()
    corrective = ToolFeedback.corrective("no such table")
    assert Turn("t", ToolCall("value_in", {**where, "value": 7}), corrective).value_facts == set()


def test_question_keeps_no_dataset_answer():
    q = Question(
        question_id="q1",
        db_id="db1",
        text="List magnet schools.",
        gold_sql="SELECT School FROM schools WHERE Magnet = 1",
        expert_evidence="Magnet = 1 means a magnet school",
        difficulty="simple",
    )
    assert q == Question(question_id="q1", db_id="db1", text="List magnet schools.")
    data = serialize(CoTFDocument(question=q, clauses=make_clauses(q.text, [])))
    assert json.loads(data)["question"] == {
        "question_id": "q1",
        "db_id": "db1",
        "text": "List magnet schools.",
    }


OTHER_VALUES = [None, True, 0, 7, -1, 2.5, "", "x", [], [0, 1], {}, {"x": 1}]


def mutate(rng: random.Random, payload):
    """Drop a key, add a key, or replace one node with a JSON value of
    another type, somewhere in payload (in place)."""
    nodes = []

    def walk(node):
        if isinstance(node, dict):
            nodes.append(node)
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            nodes.append(node)
            for v in node:
                walk(v)

    walk(payload)
    node = rng.choice(nodes)
    slots = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = rng.choice(["drop", "add", "replace"]) if slots else "add"
    if op == "add":
        if isinstance(node, dict):
            node["extra"] = rng.choice(OTHER_VALUES)
        else:
            node.append(rng.choice(OTHER_VALUES))
        return
    slot = rng.choice(slots)
    if op == "drop":
        del node[slot]
    else:
        old = node[slot]
        node[slot] = rng.choice([v for v in OTHER_VALUES if type(v) is not type(old)])


def test_mutation_fuzz_raises_schema_violation_or_round_trips():
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(500):
        payload = json.loads(serialize(random_doc(rng)).decode("utf-8"))
        mutate(rng, payload)
        data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        try:
            doc = deserialize(data)
        except SchemaViolation:
            continue
        accepted += 1
        # an accepted payload is already canonical: nothing was defaulted,
        # dropped or coerced on the way in
        canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        assert serialize(doc) == canonical.encode("utf-8")
        assert deserialize(serialize(doc)) == doc
    assert 0 < accepted < 500
