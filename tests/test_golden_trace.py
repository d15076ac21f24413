"""Golden trace: one scripted question through run_question whose trace holds
every tool (with and without its optional parameters), a repeat of each of
the eight probes, every validation message, engine errors, a seed drawn for
`random`, a repaired call and a call that stays malformed after repair.

The trace file and the digest of every request the model saw were recorded
once; byte equality is the oracle that refactors of the toolbox, the lookup
loop and the client leave traces and prompts unchanged. To re-record after a
deliberate change, write `serialize(doc)` from `run_golden` over the file
and update REQUESTS_SHA256, and say why in the change.
"""

import hashlib
from pathlib import Path

from diver.cotf import Question, serialize
from diver.embedding import LexicalEmbedder
from diver.llm import fingerprint
from diver.pipeline import PipelineConfig, run_question

from replay import RecordingSession, ScriptBuilder, tool

GOLDEN = Path(__file__).resolve().parent / "golden" / "probe_trace.json"
REQUESTS_SHA256 = "6a107434f9fa2c5cc86c138681541767821ccceecd694b268d74efcc3dc5fa86"

QUESTION = "Which schools serve grade K and which ones are special?"
CLAUSES = ["Which schools serve grade K", "and which ones are special?"]
EVIDENCE = "Grade K refers to `Low Grade` = 'K'."


def build_script() -> list[str]:
    b = ScriptBuilder()
    b.segmentation(CLAUSES)

    # clause 0: every tool, optional params, and a repeat of each probe
    grade_k = tool("value_in", table="frpm", column="Low Grade", value="K")
    b.turn(grade_k)
    b.turn(grade_k)
    b.turn(tool("value_in", table="frpm", column="Charter School (Y/N)", value=1))
    b.turn(tool("sim_value_in", table="frpm", column="School Type", query_text="special schools"))
    fuzzy = tool("sim_value_in", table="frpm", column="School Type", query_text="special", k=2)
    b.turn(fuzzy)
    b.turn(fuzzy)
    b.turn(tool("uniq_value", table="frpm", column="Low Grade"))
    uniq = tool("uniq_value", table="frpm", column="Low Grade", limit=3)
    b.turn(uniq)
    b.turn(uniq)
    rows = tool("head", table="frpm", n=2)
    b.turn(rows)
    b.turn(rows)
    sample = tool("random", table="frpm", n=3, seed=7)
    b.turn(sample)
    b.turn(sample)
    b.turn(tool("random", table="schools", n=2))
    nulls = tool("if_null", table="frpm", column="Free Meal Count (K-12)")
    b.turn(nulls)
    b.turn(nulls)
    b.turn(tool("info", table="frpm"))
    meta = tool("info", table="frpm", column="School Type")
    b.turn(meta)
    b.turn(meta)
    b.turn(tool("sim_columns", query_text="kindergarten grade"))
    columns = tool("sim_columns", query_text="special school type", k=3)
    b.turn(columns)
    b.turn(columns)
    b.stop_clause()

    # clause 1: validation messages, engine errors, repair, malformed calls
    b.turn(tool("value_in", table="frpm", column="Low Grade"))
    b.turn(tool("head", table="frpm", n=2, limit=5))
    b.turn(tool("uniq_value", table="frpm", column=""))
    b.turn(tool("head", table="frpm", n="3"))
    b.turn(tool("head", table="frpm", n=True))
    b.turn(tool("sim_columns", query_text="grade", k=0))
    b.turn(tool("uniq_value", table="frpm", column="Low Grade", limit=-2))
    b.turn(tool("look_up", table="frpm"))
    b.turn(tool("look_up", table="frpm"))
    b.turn(tool("value_in", table="frpm", column="No Such Column", value="K"))
    b.turn(tool("info", table="nowhere"))
    b.turn(tool("info", table="frpm", column="nothing"))
    b.turn(tool("if_null", table="nowhere", column="x"))
    b.raw("first try the schools table").raw("not json at all")
    b.raw('{"tool": "head", "args": {"table": "schools", "n": 1}}')
    b.raw("still guessing").raw('{"tool": "head", "args": [1]}')
    b.raw('{"tool": "head", "args": "table=schools"}')
    b.turn(tool("none", reason="done"))

    b.harvest(
        [
            {
                "kind": "value",
                "table": "frpm",
                "column": "Low Grade",
                "literal": "K",
                "rationale": "grade K is stored as the literal K",
                "source_turn": [0, 0],
            }
        ]
    )
    b.evidence(EVIDENCE, n=1)
    return b.build()


def run_golden(schools_db, schools_desc_dir):
    question = Question(question_id="golden", db_id="california_schools", text=QUESTION)
    script = build_script()
    llm = RecordingSession(script)
    doc, evidences = run_question(
        question,
        schools_db,
        schools_desc_dir,
        llm,
        LexicalEmbedder(),
        PipelineConfig(style="concise", max_turns=40, candidates=1, seed=3),
    )
    assert llm.consumed == len(script)
    requests = hashlib.sha256(
        "\n".join(fingerprint(r) for r in llm.requests).encode("ascii")
    ).hexdigest()
    return doc, evidences, requests


def test_golden_trace_is_byte_identical(schools_db, schools_desc_dir):
    doc, evidences, requests = run_golden(schools_db, schools_desc_dir)
    assert serialize(doc) == GOLDEN.read_bytes()
    assert requests == REQUESTS_SHA256
    assert evidences["concise"].text == EVIDENCE


def test_golden_trace_covers_every_tool_and_feedback_kind():
    trace = GOLDEN.read_text(encoding="utf-8")
    for name in ("value_in", "sim_value_in", "uniq_value", "head", "random",
                 "if_null", "info", "sim_columns", "none"):
        assert f'"tool": "{name}"' in trace
    for kind in ("standard", "corrective", "guiding"):
        assert f'"kind": "{kind}"' in trace
