"""Question decomposition: tokenizer, LCS refinement, scripted segmentation."""

from __future__ import annotations

import pytest

from corpus import build_refinement_corpus, verify_partition
from diver.breakup import segment, token_refine
from diver.errors import LlmError
from diver.llm import ScriptedSession
from diver.tokens import Token, tokenize

from replay import RecordingSession


def test_tokenize_offsets_hand_derived():
    q = "Which schools in Fresno serve grades K-8?"
    assert tokenize(q) == [
        Token("Which", 0, 5),
        Token("schools", 6, 13),
        Token("in", 14, 16),
        Token("Fresno", 17, 23),
        Token("serve", 24, 29),
        Token("grades", 30, 36),
        Token("K", 37, 38),
        Token("-", 38, 39),
        Token("8", 39, 40),
        Token("?", 40, 41),
    ]


def test_tokenize_handles_unicode_and_apostrophes():
    toks = tokenize("café's enrollment")
    assert [t.text for t in toks] == ["café", "'", "s", "enrollment"]
    q = "what 数 means"
    assert "数" in [t.text for t in tokenize(q)]


def test_refine_restores_paraphrased_tokens_verbatim():
    q = "How many schools offer magnet programs?"
    # the proposal singularizes two words; output must be the question's own text
    clauses = token_refine(q, ["How many school offer magnet program"])
    assert len(clauses) == 1
    assert clauses[0].text == q
    verify_partition(q, clauses)


def test_refine_splits_at_alignment_midpoints():
    q = "List the phone numbers of all charter schools in Fresno county."
    clauses = token_refine(q, ["List phone numbers charter schools", "Fresno county"])
    verify_partition(q, clauses)
    assert len(clauses) == 2
    assert clauses[0].text.startswith("List")
    assert "Fresno county." == clauses[1].text[-len("Fresno county.") :]
    # the unmatched "in" between the two matches goes to the nearer clause
    joined = clauses[0].text + " " + clauses[1].text
    assert "charter schools" in clauses[0].text
    assert "Fresno" in clauses[1].text
    assert joined.replace(" ", "") == q.replace(" ", "")


def test_refine_spec_style_two_conditions():
    q = "For schools with an average score over 500, list their websites."
    proposed = ["schools with average score over 500", "list websites"]
    clauses = token_refine(q, proposed)
    verify_partition(q, clauses)
    assert len(clauses) == 2
    assert "500" in clauses[0].text
    assert "websites" in clauses[1].text


def test_refine_empty_and_garbage_proposals():
    q = "Count charter schools in Oakland."
    for proposed in [[], ["zzz qqq", "jjj www"], [""]]:
        clauses = token_refine(q, proposed)
        assert len(clauses) == 1
        assert clauses[0].text == q
        verify_partition(q, clauses)


def test_refine_clause_count_bounded():
    q = "schools with free meals and magnet programs in Fresno"
    proposed = ["schools", "free meals", "magnet programs", "Fresno"]
    clauses = token_refine(q, proposed)
    verify_partition(q, clauses)
    assert 1 <= len(clauses) <= len(proposed) + 1


def test_refine_duplicate_phrase_anchors_in_order():
    q = "grade span from low grade to high grade"
    clauses = token_refine(q, ["grade span", "low grade", "high grade"])
    verify_partition(q, clauses)
    assert len(clauses) == 3
    assert clauses[1].text.endswith("low grade")
    assert clauses[2].text == "to high grade" or clauses[2].text.endswith("high grade")


def test_refine_fuzz_corpus_partition_and_idempotence():
    pairs = build_refinement_corpus(1000, seed=20240818)
    for question, proposed in pairs:
        clauses = token_refine(question, proposed)
        verify_partition(question, clauses)
        assert len(clauses) <= max(1, len(proposed)) + 1
        again = token_refine(question, [c.text for c in clauses])
        assert again == clauses, f"not idempotent for {question!r} / {proposed!r}"


def test_segment_parses_json_array():
    session = RecordingSession(['["schools in Fresno", "with magnet programs"]'])
    proposals = segment("schools in Fresno with magnet programs", session)
    assert proposals == ["schools in Fresno", "with magnet programs"]
    # the request used the segmentation temperature
    assert session.requests[0].temperature == pytest.approx(0.2)
    assert "schools in Fresno with magnet programs" in session.requests[0].messages[-1].content


def test_segment_tolerates_fences_and_garbage():
    session = ScriptedSession(
        [
            '```json\n["a clause"]\n```',
            'Clauses: ["schools in K-12]", "after 2000"] ok',
            "no json here",
            "[]",
            '{"not": "array"}',
        ]
    )
    assert segment("q", session) == ["a clause"]
    # a closing bracket inside a string does not end the array
    assert segment("q", session) == ["schools in K-12]", "after 2000"]
    assert segment("q", session) == []
    assert segment("q", session) == []
    assert segment("q", session) == []


def test_segment_falls_back_on_an_array_nested_too_deeply():
    assert segment("q", ScriptedSession(["[" * 1000])) == []


def test_segment_propagates_client_errors():
    session = ScriptedSession([])
    with pytest.raises(LlmError, match=r"^replay script exhausted after 0 responses$"):
        segment("q", session)


def test_segment_drops_non_string_entries():
    session = ScriptedSession(['["ok", 42, null, "fine"]'])
    assert segment("q", session) == ["ok", "fine"]
