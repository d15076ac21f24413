"""The ten acceptance properties, one printed verdict line each.

Run with: pytest tests/test_acceptance.py -v -s
Criterion 10 talks to a live model and real databases; it is skipped unless
DIVER_LLM_API_KEY and DIVER_BIRD_ROOT are set.
"""

import functools
import json
import os
import random
import sqlite3
import time
from pathlib import Path

import pytest

from diver.breakup import token_refine
from diver.cli import main as cli_main
from diver.cotf import (
    CoTFDocument,
    Question,
    ToolCall,
    ToolFeedback,
    Turn,
    append_turn,
)
from diver.database import catalog as build_catalog
from diver.database import db_path_for, description_dir_for, open_database
from diver.embedding import LexicalEmbedder
from diver.errors import DiverError
from diver.eval import LinkingSets, linking_f1
from diver.evidence import (
    STYLES,
    generate_concise,
    generate_long,
    grounding_filter,
    self_consistency,
)
from diver.lookup import run_clause, run_lookup
from diver.llm import ScriptedSession
from diver.tokens import tokenize
from diver.toolbox import (
    ToolContext,
    head,
    if_null,
    info,
    random_rows,
    uniq_value,
    value_in,
)

from replay import ScriptBuilder, tool
from test_cli import DATASET, build_happy_script, run_args, write_dataset
from test_eval import EX_CASES, prf_oracle, run_ex, run_ves


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number:02d}] FAIL  {title}")
                raise
            print(f"\n[criterion {number:02d}] PASS  {title}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def schools(schools_db, schools_desc_dir):
    handle = open_database(schools_db)
    cat = build_catalog(handle, schools_desc_dir)
    yield handle, cat
    handle.close()


class CountingHandle:
    """Pass-through that counts database queries."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def query(self, sql, params=()):
        self.calls += 1
        return self.inner.query(sql, params)


def two_clause_doc():
    question = "Which schools serve grade K?"
    clauses = token_refine(question, ["Which schools", "serve grade K"])
    return CoTFDocument(
        question=Question(question_id="a", db_id="california_schools", text=question),
        clauses=clauses,
    )


def one_clause_doc():
    question = "Which schools serve grade K?"
    clauses = token_refine(question, [question])
    return CoTFDocument(
        question=Question(question_id="a", db_id="california_schools", text=question),
        clauses=clauses,
    )


@criterion(1, "never-stopping replay is cut at exactly 5 turns per clause, fast")
def test_turn_cap(schools):
    handle, cat = schools
    doc = two_clause_doc()
    responses = []
    for i in range(10):
        responses.append(f"thought {i}")
        responses.append(
            json.dumps(tool("value_in", table="frpm", column="Low Grade", value=f"v{i}"))
        )
    llm = ScriptedSession(responses)
    context = ToolContext(
        handle=handle, catalog=cat, embedder=LexicalEmbedder(), rng=random.Random(0)
    )
    started = time.perf_counter()
    run_lookup(doc, llm, context)
    elapsed = time.perf_counter() - started
    assert [len(column) for column in doc.turns] == [5, 5]
    for column in doc.turns:
        assert column[-1].tool_call.tool != "none"
    assert llm.consumed == len(responses)
    assert elapsed < 5.0


@criterion(2, "second identical value_in gets guiding feedback naming sim_value_in, no query")
def test_guiding_feedback(schools):
    handle, cat = schools
    counting = CountingHandle(handle)
    context = ToolContext(
        handle=counting, catalog=cat, embedder=LexicalEmbedder(), rng=random.Random(0)
    )
    call = json.dumps(tool("value_in", table="frpm", column="Low Grade", value="K"))
    llm = ScriptedSession(
        ["try the literal", call, "try it again", call, "finished", json.dumps(tool("none"))]
    )
    doc = one_clause_doc()
    run_clause(doc, 0, llm, context)
    kinds = [t.feedback.kind for t in doc.turns[0]]
    assert kinds == ["standard", "guiding", "standard"]
    guide = doc.turns[0][1].feedback
    assert guide.result is None
    assert guide.message == (
        "This tool has been called before. Consider using sim_value_in for a fuzzy search."
    )
    assert counting.calls == 1


@criterion(3, "bad column yields corrective feedback with the engine text, then recovery")
def test_corrective_recovery(schools):
    handle, cat = schools
    context = ToolContext(
        handle=handle, catalog=cat, embedder=LexicalEmbedder(), rng=random.Random(0)
    )
    llm = ScriptedSession(
        [
            "probe the misspelled column",
            json.dumps(tool("value_in", table="frpm", column="Lo Grade", value="K")),
            "fix the spelling",
            json.dumps(tool("value_in", table="frpm", column="Low Grade", value="K")),
            "confirmed",
            json.dumps(tool("none")),
        ]
    )
    doc = one_clause_doc()
    run_clause(doc, 0, llm, context)
    kinds = [t.feedback.kind for t in doc.turns[0]]
    assert kinds == ["corrective", "standard", "standard"]
    assert "no such column" in doc.turns[0][0].feedback.message
    assert doc.turns[0][1].feedback.result == {"exists": True, "match_count": 5}


FUZZ_QUESTIONS = [
    "Please list the zip codes of all charter schools in Fresno County.",
    "What is the highest eligible free rate for K-12 students in Alameda?",
    "How many schools serve grade K through grade 8 in Oakland?",
    "Which magnet schools offer a grade span from kindergarten to 8th grade?",
    "Count the orders shipped to the west region with quantity above nine.",
    "List names, cities and phone numbers of schools whose charter flag is set.",
    "Average amount per customer for east orders between 2019 and 2021?",
    "Show the top five customers by total quantity, highest first.",
]

FILLERS = ["foo", "zz", "the", "schools", "grade", "xx"]


def corrupt_segmentation(rng, words):
    cuts = []
    if len(words) > 1:
        k = rng.randint(0, 3)
        cuts = sorted(rng.sample(range(1, len(words)), min(k, len(words) - 1)))
    bounds = [0, *cuts, len(words)]
    proposals = []
    for lo, hi in zip(bounds, bounds[1:]):
        kept = []
        for w in words[lo:hi]:
            roll = rng.random()
            if roll < 0.12:
                continue
            if roll < 0.22:
                kept.append(rng.choice(FILLERS))
            else:
                kept.append(w)
        proposals.append(" ".join(kept))
    return proposals


def assert_partition(question, clauses):
    toks = tokenize(question)
    spans = [c.token_span for c in clauses]
    assert spans[0][0] == 0
    assert spans[-1][1] == len(toks)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end == start
    for c in clauses:
        s, e = c.token_span
        assert c.text == question[toks[s].start : toks[e - 1].end]


@criterion(4, "token_refine restores a valid partition on 1000 corrupted pairs, idempotently")
def test_breakup_partition_fuzz():
    rng = random.Random(20240819)
    for _ in range(1000):
        question = rng.choice(FUZZ_QUESTIONS)
        words = [t.text for t in tokenize(question)]
        proposals = corrupt_segmentation(rng, words)
        clauses = token_refine(question, proposals)
        assert_partition(question, clauses)
        CoTFDocument(
            question=Question(question_id="f", db_id="d", text=question),
            clauses=clauses,
        )
        again = token_refine(question, [c.text for c in clauses])
        assert [(c.text, c.token_span) for c in again] == [
            (c.text, c.token_span) for c in clauses
        ]


@criterion(5, "tool results equal independent SQL oracle results exactly")
def test_tool_oracles(schools, schools_db):
    handle, cat = schools
    raw = sqlite3.connect(schools_db)
    try:
        count = raw.execute(
            'SELECT COUNT(*) FROM frpm WHERE "Low Grade" = ?', ("K",)
        ).fetchone()[0]
        assert value_in(handle, "frpm", "Low Grade", "K") == {
            "exists": count > 0,
            "match_count": count,
        }
        assert count == 5

        distinct = raw.execute('SELECT COUNT(DISTINCT "Low Grade") FROM frpm').fetchone()[0]
        samples = [
            r[0]
            for r in raw.execute(
                'SELECT DISTINCT CAST("Low Grade" AS TEXT) AS v FROM frpm'
                ' WHERE "Low Grade" IS NOT NULL ORDER BY v LIMIT 20'
            )
        ]
        got = uniq_value(handle, "frpm", "Low Grade")
        assert got == {"distinct_count": distinct, "samples": samples}
        assert len(got["samples"]) <= 20

        total, nonnull = raw.execute(
            'SELECT COUNT(*), COUNT("Free Meal Count (K-12)") FROM frpm'
        ).fetchone()
        assert if_null(handle, "frpm", "Free Meal Count (K-12)") == {
            "null_count": total - nonnull,
            "total": total,
            "fraction": (total - nonnull) / total,
        }
        assert (total, nonnull) == (12, 9)

        expected_rows = [list(r) for r in raw.execute("SELECT * FROM frpm LIMIT 3")]
        got = head(handle, "frpm", 3)
        assert got["rows"] == expected_rows

        n_rows = raw.execute("SELECT COUNT(*) FROM frpm").fetchone()[0]
        chosen = set(random.Random(11).sample(range(n_rows), 4))
        expected_rows = [
            list(r)
            for i, r in enumerate(raw.execute("SELECT * FROM frpm"))
            if i in chosen
        ]
        got = random_rows(handle, "frpm", 4, seed=11)
        assert got["rows"] == expected_rows
        assert got["seed"] == 11

        got = info(handle, cat, "frpm", "Low Grade")
        assert got["table"] == "frpm"
        assert got["column"] == "Low Grade"
        assert got["declared_type"] == "TEXT"
        assert got["row_count"] == n_rows
        assert got["null_fraction"] == 0.0
    finally:
        raw.close()


@criterion(6, "F1 matches brute force, EX suite 24/24, VES tracks and undercuts EX")
def test_metric_oracles(eval_db):
    rng = random.Random(777)
    universe = [f"e{i}" for i in range(12)]
    for _ in range(1000):
        gold = set(rng.sample(universe, rng.randint(0, 8)))
        pred = set(rng.sample(universe, rng.randint(0, 8)))
        got = linking_f1(LinkingSets(gold, set()), LinkingSets(pred, set()))["schema"]
        assert got == prf_oracle(gold, pred)

    handle = open_database(eval_db)
    try:
        got = [run_ex(handle, pred, gold) for pred, gold, _ in EX_CASES]
        want = [expected for _, _, expected in EX_CASES]
        assert got == want
        assert len(EX_CASES) == 24

        identity_pairs = [
            ("SELECT customer FROM orders WHERE region = 'west'",) * 2,
            ("SELECT COUNT(*) FROM orders",) * 2,
            ("SELECT id FROM orders WHERE qty > 5",) * 2,
            ("SELECT SUM(amount) FROM orders",) * 2,
        ]
        ex_identity = sum(
            run_ex(handle, p, g) for p, g in identity_pairs
        ) / len(identity_pairs)
        assert ex_identity == 1.0
        v = sum(
            run_ves(handle, p, g, 7) for p, g in identity_pairs
        ) / len(identity_pairs)
        # an identical text is the same statement on the same file: untimed
        assert v == ex_identity

        slow_pred = "SELECT DISTINCT orders.id FROM orders, pad"
        gold = "SELECT id FROM orders"
        assert run_ex(handle, slow_pred, gold) is True
        reward = run_ves(handle, slow_pred, gold, 7)
        assert reward < 1.0
    finally:
        handle.close()


def grounded_doc():
    question = "Which schools serve grade K?"
    clauses = token_refine(question, ["Which schools", "serve grade K"])
    doc = CoTFDocument(
        question=Question(question_id="g", db_id="california_schools", text=question),
        clauses=clauses,
    )
    append_turn(
        doc,
        0,
        Turn(
            thought="inspect the grade column",
            tool_call=ToolCall(tool="uniq_value", args={"table": "frpm", "column": "Low Grade"}),
            feedback=ToolFeedback.standard(
                {"distinct_count": 4, "samples": ["1", "6", "9", "K"]}
            ),
        ),
    )
    append_turn(
        doc,
        1,
        Turn(
            thought="check the literal",
            tool_call=ToolCall(
                tool="value_in", args={"table": "frpm", "column": "Low Grade", "value": "K"}
            ),
            feedback=ToolFeedback.standard({"exists": True, "match_count": 5}),
        ),
    )
    return doc


@criterion(7, "a hallucinated column never reaches the evidence; filtering is idempotent")
def test_grounding(schools):
    _, cat = schools
    doc = grounded_doc()
    good = "Grade K refers to `Low Grade` = 'K'."
    bad = "The `Phantom Column` field controls this. " + good
    llm = ScriptedSession([good, bad, good, "`Phantom Column` matters. " + good])
    ev = self_consistency(doc, llm, 3, "concise", cat)
    assert "Phantom Column" not in ev.text
    assert "Low Grade" in ev.text

    rng = random.Random(20240818)
    grounded_pool = [
        "Grade K refers to `Low Grade` = 'K'. ",
        "The samples include '1' and '9'. ",
        "Low grade spans are text values. ",
        "Use frpm.CDSCode to join. ",
    ]
    ungrounded_pool = [
        "`Phantom Column` is the key. ",
        "Check 'Zebra' in the data. ",
        "See frpm.Bogus for details. ",
    ]
    for _ in range(200):
        parts = []
        for _ in range(rng.randint(1, 6)):
            pool = grounded_pool if rng.random() < 0.6 else ungrounded_pool
            parts.append(rng.choice(pool))
        text = "".join(parts)
        once = grounding_filter(text, doc, cat)
        twice = grounding_filter(once["text"], doc, cat)
        assert twice["text"] == once["text"]
        assert twice["removed_claims"] == []


@criterion(8, "the full pipeline replays byte-identically")
def test_deterministic_replay(tmp_path, db_root):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET)
    outputs = []
    for name in ("first", "second"):
        script = build_happy_script().write(tmp_path / f"{name}.script.json")
        out = tmp_path / name
        assert cli_main(run_args(dataset, db_root, out, script)) == 0
        outputs.append(out)
    first, second = outputs
    trace_names = sorted(p.name for p in (first / "traces").glob("*.json"))
    assert trace_names == ["11.json", "12.json", "13.json"]
    for name in trace_names:
        assert (first / "traces" / name).read_bytes() == (
            second / "traces" / name
        ).read_bytes()
    assert (first / "evidence_concise.json").read_bytes() == (
        second / "evidence_concise.json"
    ).read_bytes()


@criterion(9, "mean concise evidence is shorter than mean long evidence on 20 docs")
def test_style_length_ordering(schools):
    _, cat = schools
    long_lengths = []
    concise_lengths = []
    samples = ["1", "6", "9", "K"]
    for i in range(20):
        doc = grounded_doc()
        literal = samples[i % len(samples)]
        long_text = (
            "The grade span for this question lives in two text columns of the"
            " meal-program table. The lower bound keeps letter codes for early"
            " grades while the upper bound keeps plain numerals, and kindergarten"
            f" rows store the letter K in the lower bound. Variant {i} of this"
            " note confirms the literal appears exactly as written, so the query"
            " should compare the column against it without any casting."
        )
        concise_text = f"Kindergarten refers to `Low Grade` = '{literal}'. Note {i}."
        llm = ScriptedSession([long_text, concise_text])
        long_ev = generate_long(doc, llm, cat)
        concise_ev = generate_concise(doc, llm, cat)
        assert long_ev.text
        assert concise_ev.text
        long_lengths.append(len(long_ev.text))
        concise_lengths.append(len(concise_ev.text))
    assert len(long_lengths) == len(concise_lengths) == 20
    mean_long = sum(long_lengths) / len(long_lengths)
    mean_concise = sum(concise_lengths) / len(concise_lengths)
    assert mean_concise < mean_long


LIVE_READY = bool(os.environ.get("DIVER_LLM_API_KEY")) and bool(
    os.environ.get("DIVER_BIRD_ROOT")
)


@pytest.mark.skipif(
    not LIVE_READY, reason="live smoke needs DIVER_LLM_API_KEY and DIVER_BIRD_ROOT"
)
@criterion(10, "live smoke: grounded evidence for 9/10 stratified questions")
def test_live_smoke():
    from diver.llm import LiveClient
    from diver.pipeline import PipelineConfig, run_question

    bird = Path(os.environ["DIVER_BIRD_ROOT"])
    dataset_path = next(
        (p for p in (bird / "dev.json", bird / "dev" / "dev.json") if p.exists()), None
    )
    assert dataset_path is not None, f"no dev.json under {bird}"
    rows = json.loads(dataset_path.read_text(encoding="utf-8"))
    db_root = bird / "dev_databases"

    by_difficulty: dict[str, list[dict]] = {}
    for row in rows:
        by_difficulty.setdefault(str(row.get("difficulty") or "simple"), []).append(row)
    picked: list[dict] = []
    while len(picked) < 10:
        for bucket in sorted(by_difficulty):
            if by_difficulty[bucket] and len(picked) < 10:
                picked.append(by_difficulty[bucket].pop(0))

    llm = LiveClient(
        base_url=os.environ.get("DIVER_LLM_ENDPOINT", "https://api.openai.com/v1"),
        model=os.environ.get("DIVER_LLM_MODEL", "gpt-4o"),
    )
    embedder = LexicalEmbedder()
    config = PipelineConfig(style="concise")
    grounded = 0
    ratios = []
    for row in picked:
        question = Question(
            question_id=str(row["question_id"]),
            db_id=row["db_id"],
            text=row["question"],
            difficulty=row.get("difficulty"),
        )
        desc = description_dir_for(db_root, row["db_id"])
        try:
            doc, evidences = run_question(
                question,
                db_path_for(db_root, row["db_id"]),
                desc if desc.is_dir() else None,
                llm,
                embedder,
                config,
            )
        except DiverError as exc:
            print(f"question {question.question_id} failed: {exc}")
            continue
        text = evidences["concise"].text
        if text and text != STYLES["concise"].no_findings:
            grounded += 1
        turns = sum(len(column) for column in doc.turns)
        ratios.append(turns / len(doc.clauses))
    assert grounded >= 9
    assert sum(ratios) / len(ratios) <= 5.0
