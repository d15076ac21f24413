"""Evidence synthesis: grounding filter, style generation, self-consistency."""

import json
import random
import re
import sqlite3
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
    append_turn,
    deserialize,
    document_facts,
)
from diver.breakup import token_refine
from diver.database import (
    ColumnInfo,
    SchemaCatalog,
    TableInfo,
    catalog as build_catalog,
    open_database,
)
from diver.embedding import LexicalEmbedder
from diver.evidence import (
    STYLES,
    _split_sentences,
    generate_concise,
    generate_long,
    grounding_filter,
    shot_messages,
    self_consistency,
)
from diver.llm import ScriptedSession
from diver.lookup import harvest_linkings
from diver.pipeline import PipelineConfig
from diver.prompts import (
    EVIDENCE_CONCISE_SYSTEM,
    EVIDENCE_LONG,
    EVIDENCE_LONG_SYSTEM,
    MERGE_SYSTEM,
)
from diver.toolbox import ToolContext, dispatch

from replay import RecordingSession


@pytest.fixture(scope="module")
def cat(schools_db, schools_desc_dir):
    with closing(open_database(schools_db)) as h:
        return build_catalog(h, schools_desc_dir)


def probe_doc():
    text = "Which schools serve grade K?"
    q = Question(question_id="q1", db_id="california_schools", text=text)
    doc = CoTFDocument(question=q, clauses=token_refine(text, []))
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


def empty_doc():
    text = "Which schools serve grade K?"
    q = Question(question_id="q0", db_id="california_schools", text=text)
    return CoTFDocument(question=q, clauses=token_refine(text, []))


# --- document facts ---


def test_document_facts_covers_args_and_results_of_standard_turns():
    doc = probe_doc()
    facts = document_facts(doc)
    assert {"frpm", "Low Grade", "1", "6", "9", "K", "4"} <= facts


def test_document_facts_ignores_corrective_turns():
    doc = probe_doc()
    doc.turns[0].append(
        Turn(
            thought="bad",
            tool_call=ToolCall("value_in", {"table": "SecretCol", "column": "x", "value": "y"}),
            feedback=ToolFeedback.corrective("no such table: SecretCol"),
        )
    )
    assert "SecretCol" not in document_facts(doc)


@pytest.fixture
def ledger(tmp_path):
    path = tmp_path / "ledger.sqlite"
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("CREATE TABLE ledger (id INTEGER PRIMARY KEY, party TEXT, amount REAL)")
        conn.executemany(
            "INSERT INTO ledger (party, amount) VALUES (?, ?)",
            [("Acme Corp", 10.0), ("Globex Inc", 20.0), ("Initech", 5.0)],
        )
        conn.commit()
    with closing(open_database(path)) as handle:
        yield ToolContext(handle, build_catalog(handle), LexicalEmbedder(), random.Random(0))


def test_a_value_the_database_refuted_grounds_nothing(ledger):
    text = "What did Acme Corporation and Zeta Ltd pay?"
    doc = CoTFDocument(Question("q", "ledger", text), token_refine(text, []))
    where = {"table": "ledger", "column": "party"}
    for call in (
        ToolCall("value_in", {**where, "value": "Acme Corporation"}),
        ToolCall("sim_value_in", {**where, "query_text": "Zeta Ltd"}),
        ToolCall("value_in", {**where, "value": "Initech"}),
    ):
        doc.turns[0].append(Turn("probe", call, dispatch(call, ledger)))
    refuted, fuzzy, affirmed = (t.feedback.result for t in doc.turns[0])
    assert refuted == {"exists": False, "match_count": 0}
    assert "Acme Corp" in [m["value"] for m in fuzzy["matches"]]
    assert affirmed == {"exists": True, "match_count": 1}

    def linking(literal, turn):
        return {**where, "kind": "value", "literal": literal, "rationale": "probed",
                "source_turn": [0, turn]}

    proposals = [linking("Acme Corporation", 0), linking("Zeta Ltd", 1),
                 linking("Acme Corp", 1), linking("Initech", 2)]
    kept = harvest_linkings(doc, ScriptedSession([json.dumps(proposals)]))
    assert [(k.literal, k.source_turn) for k in kept] == [("Acme Corp", (0, 1)), ("Initech", (0, 2))]

    evidence = (
        "Acme Corporation is `party` = 'Acme Corporation'. Zeta Ltd is `party` = 'Zeta Ltd'."
        " The stored name is `party` = 'Acme Corp'."
    )
    assert grounding_filter(evidence, doc, ledger.catalog) == {
        "text": "The stored name is `party` = 'Acme Corp'.",
        "removed_claims": ["Acme Corporation", "Zeta Ltd"],
    }


# --- grounding_filter ---


def test_fully_grounded_text_is_unchanged(cat):
    text = "The phrase grade K refers to `Low Grade` = 'K'. The frpm table stores one school per row."
    out = grounding_filter(text, probe_doc(), cat)
    assert out == {"text": text, "removed_claims": []}


def test_hallucinated_column_sentence_is_removed(cat):
    text = "Grade K refers to `Low Grade` = 'K'. The `Phantom Column` holds the rest."
    out = grounding_filter(text, probe_doc(), cat)
    assert out["text"] == "Grade K refers to `Low Grade` = 'K'. "
    assert out["removed_claims"] == ["Phantom Column"]


def test_catalog_identifiers_match_case_insensitively(cat):
    text = "The span start is stored in 'low grade'."
    assert grounding_filter(text, probe_doc(), cat)["removed_claims"] == []
    out = grounding_filter(text, probe_doc(), SchemaCatalog())
    assert out["text"] == ""
    assert out["removed_claims"] == ["low grade"]


def test_literals_match_exactly(cat):
    out = grounding_filter("'k' is one of the stored grades.", probe_doc(), cat)
    assert out["text"] == ""
    assert out["removed_claims"] == ["k"]


def test_dotted_references_resolve_against_catalog(cat):
    keep = "frpm.CDSCode identifies the school. FRPM.cdscode links rows."
    assert grounding_filter(keep, probe_doc(), cat)["removed_claims"] == []
    out = grounding_filter("The key frpm.Bogus breaks joins.", probe_doc(), cat)
    assert out["text"] == ""
    assert out["removed_claims"] == ["frpm.Bogus"]


def test_numbers_with_dots_are_not_treated_as_references(cat):
    text = "The average is 3.5 per school."
    assert grounding_filter(text, probe_doc(), cat) == {"text": text, "removed_claims": []}


def test_possessive_apostrophes_are_not_quotes(cat):
    text = "The school's name and the district's code are plain text."
    assert grounding_filter(text, probe_doc(), cat) == {"text": text, "removed_claims": []}


def test_empty_text_passes_through(cat):
    assert grounding_filter("", probe_doc(), cat) == {"text": "", "removed_claims": []}


def test_all_sentences_removed_lists_claims_in_order(cat):
    text = "`Ghost One` is first. Then comes 'Zz9' at the end."
    out = grounding_filter(text, probe_doc(), cat)
    assert out["text"].strip() == ""
    assert out["removed_claims"] == ["Ghost One", "Zz9"]


def test_filter_is_idempotent_on_fuzzed_texts(cat):
    doc = probe_doc()
    grounded = [
        "Grade K refers to `Low Grade` = 'K'.",
        "The code 'K' appears among stored values.",
        "frpm.CDSCode identifies each school.",
        "The distinct count is 4 in total.",
        "Nothing else is required.",
    ]
    ungrounded = [
        "The `Ghost Column` stores it.",
        "It links through frpm.Bogus as well.",
        "'Zz9' is the flag value.",
    ]
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(1, 6)
        text = " ".join(rng.choice(grounded + ungrounded) for _ in range(n))
        once = grounding_filter(text, doc, cat)
        twice = grounding_filter(once["text"], doc, cat)
        assert twice["text"] == once["text"]
        assert twice["removed_claims"] == []


_BACKTICK_RE = re.compile(r"`([^`\n]+)`")
_DQUOTE_RE = re.compile(r'"([^"\n]+)"')
# a single-quoted span, in which SQL's '' reads as one '
_SQUOTE_RE = re.compile(r"(?<![\w])'((?:[^'\n]|'')+)'(?![\w])")
# i.e. and e.g., in any case, are no table.column claims
_DOTTED_RE = re.compile(r"\b(?!(?i:i\.e\.|e\.g\.))(\w+)\.(\w+)\b")


def two_kind_filter(text, doc, catalog):
    """Oracle: the filter with two claim kinds, quoted spans and dotted
    table.column references, each judged by its own rule."""
    facts = document_facts(doc)

    def dotted_ok(whole, table, column):
        if whole in facts:
            return True
        info = catalog.table(table)
        return info is not None and info.column(column) is not None

    def span_ok(span):
        if span in facts or span.lower() in catalog.names:
            return True
        m = _DOTTED_RE.fullmatch(span)
        return m is not None and dotted_ok(span, m.group(1), m.group(2))

    kept, removed = [], []
    for sentence in _split_sentences(text):
        claims = []
        for rx in (_BACKTICK_RE, _DQUOTE_RE, _SQUOTE_RE):
            for m in rx.finditer(sentence):
                span = m.group(1).replace("''", "'") if rx is _SQUOTE_RE else m.group(1)
                claims.append((m.start(), "span", span))
        for m in _DOTTED_RE.finditer(sentence):
            if not (m.group(1).isdigit() and m.group(2).isdigit()):
                claims.append((m.start(), "dotted", (m.group(0), m.group(1), m.group(2))))
        bad = []
        for _, kind, payload in sorted(claims, key=lambda c: c[0]):
            if kind == "span" and not span_ok(payload):
                bad.append(payload)
            elif kind == "dotted" and not dotted_ok(*payload):
                bad.append(payload[0])
        if bad:
            removed.extend(b for b in bad if b not in removed)
        else:
            kept.append(sentence)
    return {"text": "".join(kept), "removed_claims": removed}


# names, facts, dotted references and numbers of the schools fixture, and
# the characters that open claims or end sentences
CLAIM_PIECES = st.sampled_from(
    [
        "frpm", "FRPM", "schools", "Low Grade", "low grade", "CDSCode", "K", "k", "4",
        "Zz9", "Ghost", "school's", "frpm.CDSCode", "FRPM.cdscode", "frpm.Bogus",
        "schools.City", "x.y", "3.5", "10.0", "1.x", "`", '"', "'", ".", " ", ". ",
        "!", "\n", "_", "i.e. ", "E.g.", "e.g.frpm",
    ]
)
CLAIM_TEXT = st.lists(
    CLAIM_PIECES | st.text(alphabet="ab`'\". 19K_\n", max_size=4), max_size=30
).map("".join)


@settings(max_examples=500, deadline=None)
@given(CLAIM_TEXT)
def test_grounding_filter_equals_the_two_kind_filter(cat, text):
    # no catalog name of the fixture holds a dot, so the one rule and the
    # two agree on every text
    assert not any("." in name for name in cat.names)
    doc = probe_doc()
    assert grounding_filter(text, doc, cat) == two_kind_filter(text, doc, cat)


def test_a_dotted_claim_that_is_a_catalog_name_is_kept():
    dotted = SchemaCatalog([TableInfo("v.2", [ColumnInfo("x", "TEXT")])])
    text = "The table V.2 holds it."
    assert grounding_filter(text, empty_doc(), dotted) == {"text": text, "removed_claims": []}
    assert two_kind_filter(text, empty_doc(), dotted)["removed_claims"] == ["V.2"]


def test_a_doubled_apostrophe_in_a_quoted_value_reads_as_one(cat):
    text = "Which school is in O'Neill?"
    doc = CoTFDocument(Question("q", "california_schools", text), token_refine(text, []))
    call = ToolCall("value_in", {"table": "schools", "column": "City", "value": "O'Neill"})
    affirmed = ToolFeedback.standard({"exists": True, "match_count": 1})
    append_turn(doc, 0, Turn("probe", call, affirmed))
    kept = "O'Neill refers to schools.City = 'O''Neill'. The city is 'O''Neill'. "
    wrong = "It is not schools.County = 'O''Neill'."
    assert grounding_filter(kept + wrong, doc, cat) == {
        "text": kept,
        "removed_claims": ["schools.County = 'O''Neill'"],
    }


def grade_k_doc():
    """One probe: value_in affirmed 'K' in frpm.`Low Grade`."""
    text = "Which schools serve grade K?"
    doc = CoTFDocument(Question("q", "california_schools", text), token_refine(text, []))
    call = ToolCall("value_in", {"table": "frpm", "column": "Low Grade", "value": "K"})
    affirmed = ToolFeedback.standard({"exists": True, "match_count": 1})
    return append_turn(doc, 0, Turn("probe", call, affirmed))


@pytest.mark.parametrize(
    "sentence",
    [
        "Grade K, i.e. kindergarten, refers to `Low Grade` = 'K'.",
        "Grade K (e.g. kindergarten) refers to `Low Grade` = 'K'.",
        "Grade K, I.E. kindergarten, refers to frpm.`Low Grade` = 'K'.",
        "Grade K (E.g. kindergarten) is stored as 'K'. E.g. kindergarten.",
    ],
)
def test_an_abbreviation_is_neither_a_claim_nor_a_sentence_end(cat, sentence):
    assert grounding_filter(sentence, grade_k_doc(), cat) == {
        "text": sentence,
        "removed_claims": [],
    }


def test_a_sentence_with_an_abbreviation_and_an_ungrounded_claim_is_removed_whole(cat):
    kept = "Grade K refers to `Low Grade` = 'K'."
    made_up = "Grade K, i.e. kindergarten, refers to `Kinder Grade` = 'K'. "
    assert grounding_filter(made_up + kept, grade_k_doc(), cat) == {
        "text": kept,
        "removed_claims": ["Kinder Grade"],
    }
    unknown = "Grade K is stored e.g. in frpm.Bogus. "
    assert grounding_filter(unknown + kept, grade_k_doc(), cat) == {
        "text": kept,
        "removed_claims": ["frpm.Bogus"],
    }


def yolo_doc():
    """One probe: value_in affirmed 'Yolo' in schools.County."""
    text = "Which schools are in Yolo?"
    doc = CoTFDocument(Question("q", "california_schools", text), token_refine(text, []))
    call = ToolCall("value_in", {"table": "schools", "column": "County", "value": "Yolo"})
    affirmed = ToolFeedback.standard({"exists": True, "match_count": 1})
    return append_turn(doc, 0, Turn("probe", call, affirmed))


@pytest.mark.parametrize(
    "pair",
    [
        "schools.{} = 'Yolo'", "`schools`.`{}` = 'Yolo'", "`schools.{}` = 'Yolo'",
        "SCHOOLS.{}='Yolo'", 'schools.{} = "Yolo"',
    ],
)
def test_a_value_is_grounded_only_under_the_column_that_holds_it(cat, pair):
    right = f"Yolo refers to {pair.format('County')}."
    wrong = f"Yolo refers to {pair.format('City')}. "
    assert grounding_filter(right, yolo_doc(), cat) == {"text": right, "removed_claims": []}
    # each claim of the wrong pair alone is grounded: schools.City is in the
    # catalog and 'Yolo' is a fact
    assert two_kind_filter(wrong, yolo_doc(), cat)["removed_claims"] == []
    out = grounding_filter(wrong + right, yolo_doc(), cat)
    assert out == {"text": right, "removed_claims": [pair.format("City")]}


def is_subsequence(part, whole):
    rest = iter(whole)
    return all(item in rest for item in part)


PAIR_PIECES = st.sampled_from(
    [
        "schools.City", "schools.County", "`schools`.`City`", "`schools`.`County`",
        "SCHOOLS.county", "frpm.CDSCode", "Ghost.x", " = ", "=", "'Yolo'", "'Davis'", "'K'", '"Yolo"',
        "Yolo", "`", "'", " ", ". ", "\n",
    ]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(PAIR_PIECES | st.text(alphabet="ab`'\"=. K\n", max_size=3), max_size=30).map("".join))
def test_a_pair_claim_only_removes_sentences(cat, text):
    # what the column-aware rule keeps, the rule of one claim at a time keeps
    doc = yolo_doc()
    rows = {"columns": ["City", "County"], "rows": [["Davis", "Yolo"]]}
    call = ToolCall("head", {"table": "schools", "n": 1})
    append_turn(doc, 0, Turn("look", call, ToolFeedback.standard(rows)))
    new, old = grounding_filter(text, doc, cat), two_kind_filter(text, doc, cat)
    assert is_subsequence(_split_sentences(new["text"]), _split_sentences(old["text"]))
    assert set(old["removed_claims"]) <= set(new["removed_claims"])


# --- generate_long ---


def test_long_generation_filters_and_labels(cat):
    doc = probe_doc()
    narrative = (
        "The question asks about grade K. `Low Grade` stores the span start"
        " and 'K' appears among its values. The `Phantom Column` completes it."
    )
    llm = RecordingSession([narrative])
    ev = generate_long(doc, llm, cat)
    assert ev.style == "long"
    assert "Phantom Column" not in ev.text
    assert "`Low Grade`" in ev.text

    req = llm.requests[0]
    assert req.temperature == EVIDENCE_LONG.temperature
    assert req.response_format == "free_text"
    assert req.messages[0].content == EVIDENCE_LONG_SYSTEM
    assert '"distinct_count"' in req.messages[1].content


@pytest.mark.parametrize("style", sorted(STYLES))
def test_empty_workspace_needs_no_model_call(cat, style):
    llm = ScriptedSession(["Anything the model says here."])
    ev = self_consistency(empty_doc(), llm, 3, style, cat)
    assert ev.text == STYLES[style].no_findings
    assert llm.consumed == 0


def test_long_generation_falls_back_when_everything_is_filtered(cat):
    doc = probe_doc()
    llm = ScriptedSession(["`Fake One` is key. 'Zz' is the value."])
    ev = generate_long(doc, llm, cat)
    assert ev.text == STYLES["long"].no_findings
    assert "Fake One" not in ev.text


# --- generate_concise ---


def test_shot_messages_are_five_validated_pairs():
    messages = shot_messages()
    assert len(messages) == 10
    for user, assistant in zip(messages[::2], messages[1::2]):
        assert user.role == "user" and assistant.role == "assistant"
        workspace = user.content.split("\n", 1)[1].rsplit("\n\n", 1)[0]
        assert isinstance(deserialize(workspace), CoTFDocument)
        assert isinstance(assistant.content, str) and assistant.content.strip()
    assert shot_messages() is messages


def test_concise_generation_uses_alternating_shot_messages(cat):
    doc = probe_doc()
    llm = RecordingSession(["Grade K refers to `Low Grade` = 'K'."])
    ev = generate_concise(doc, llm, cat)
    assert ev.style == "concise"
    assert ev.text == "Grade K refers to `Low Grade` = 'K'."

    shots = shot_messages()
    req = llm.requests[0]
    assert len(req.messages) == len(shots) + 2
    assert req.messages[0].content == EVIDENCE_CONCISE_SYSTEM
    roles = [m.role for m in req.messages[1:]]
    assert roles == ["user", "assistant"] * (len(shots) // 2) + ["user"]
    assert req.messages[1:-1] == shots
    assert '"Low Grade"' in req.messages[-1].content


def test_evidence_replaces_a_lone_surrogate(cat):
    llm = ScriptedSession(["Grade K\ud800 refers to `Low Grade` = 'K'."])
    ev = generate_concise(probe_doc(), llm, cat)
    assert ev.text == "Grade K\ufffd refers to `Low Grade` = 'K'."
    ev.text.encode("utf-8")


def test_concise_canned_line_is_shorter_than_long_one():
    assert len(STYLES["concise"].no_findings) < len(STYLES["long"].no_findings)


# --- self_consistency ---


def test_single_candidate_skips_the_merge(cat):
    doc = probe_doc()
    llm = ScriptedSession(["Grade K refers to `Low Grade` = 'K'."])
    ev = self_consistency(doc, llm, 1, "concise", cat)
    assert ev.text == "Grade K refers to `Low Grade` = 'K'."
    assert llm.consumed == 1


def test_rejects_nonpositive_candidate_count():
    with pytest.raises(ValueError, match="candidates"):
        PipelineConfig(style="concise", candidates=0)


def test_pipeline_config_rejects_unknown_style():
    with pytest.raises(ValueError, match="verbose"):
        PipelineConfig(style="verbose")
    assert PipelineConfig(style="both").styles() == tuple(STYLES)


def test_merge_sees_filtered_candidates_and_result_is_filtered(cat):
    doc = probe_doc()
    c1 = "The letter 'K' is stored."
    c2 = "`Ghost Col` drives it. `Low Grade` is the span column."
    c3 = "There are 4 distinct grades."
    merged = "'K' is stored in `Low Grade`; there are 4 distinct grades."
    llm = RecordingSession([c1, c2, c3, merged])
    ev = self_consistency(doc, llm, 3, "concise", cat)

    assert ev.text == merged
    assert llm.consumed == 4

    merge_req = llm.requests[3]
    assert merge_req.messages[0].content == MERGE_SYSTEM
    body = merge_req.messages[1].content
    assert c1 in body and c3 in body
    assert "Ghost Col" not in body
    assert "`Low Grade` is the span column." in body


def test_merge_replaces_a_lone_surrogate(cat):
    merged = "'K' is \udfff stored in `Low Grade`."
    llm = ScriptedSession(["'K' a.", "'K' b.", "'K' c.", merged])
    ev = self_consistency(probe_doc(), llm, 3, "concise", cat)
    assert ev.text == "'K' is \ufffd stored in `Low Grade`."
    ev.text.encode("utf-8")


def test_merged_output_is_grounded_by_the_filter(cat):
    doc = probe_doc()
    merged = "'K' is the code. `Invented Col` seals it."
    llm = ScriptedSession(["'K' a.", "'K' b.", "'K' c.", merged])
    ev = self_consistency(doc, llm, 3, "long", cat)
    assert "Invented Col" not in ev.text
    assert "'K' is the code." in ev.text


def test_merge_union_keeps_candidate_claims(cat):
    doc = probe_doc()
    c1 = "The value 'K' is stored."
    c2 = "`Low Grade` is the span column."
    merged = "The value 'K' is stored in `Low Grade`."
    llm = ScriptedSession([c1, c2, merged])
    ev = self_consistency(doc, llm, 2, "concise", cat)

    def claims(text):
        single = re.findall(r"(?<![\w])'([^']+)'(?![\w])", text)
        ticked = re.findall(r"`([^`]+)`", text)
        return set(single) | set(ticked)

    assert claims(c1) | claims(c2) <= claims(ev.text)
