"""Dev tool: build the five concise-style example pairs and freeze them to
src/diver/data/concise_shots.json.

Each pair is a full workspace built through the real domain types (so the
frozen JSON always deserializes) plus a hand-written one-line evidence in the
target style. Run from the repo root: python3 scripts/gen_shots.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from diver.breakup import token_refine
from diver.cotf import (
    CoTFDocument,
    Question,
    ToolCall,
    ToolFeedback,
    Turn,
    VerifiedLinking,
    append_turn,
    deserialize,
    serialize,
)

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "diver" / "data" / "concise_shots.json"


def doc(qid, db, text, proposals):
    q = Question(question_id=qid, db_id=db, text=text)
    clauses = token_refine(text, proposals)
    assert len(clauses) == len(proposals), (text, [c.text for c in clauses])
    return CoTFDocument(question=q, clauses=clauses)


def turn(thought, tool, args, feedback):
    return Turn(thought=thought, tool_call=ToolCall(tool, args), feedback=feedback)


def stop(thought):
    return turn(thought, "none", {}, ToolFeedback.standard({}))


def build_shots():
    shots = []

    d = doc(
        "shot-grade-span",
        "california_schools",
        "List the schools whose grade span is kindergarten to 8th grade.",
        ["List the schools", "grade span is kindergarten to 8th grade"],
    )
    append_turn(d, 0, stop("Each row of frpm is one school; nothing to verify here."))
    append_turn(
        d,
        1,
        turn(
            "Check how low grades are stored; kindergarten may be abbreviated.",
            "uniq_value",
            {"table": "frpm", "column": "Low Grade"},
            ToolFeedback.standard({"distinct_count": 4, "samples": ["1", "6", "9", "K"]}),
        ),
    )
    append_turn(
        d,
        1,
        turn(
            "K is the kindergarten code. Verify the 8th grade end is a bare digit.",
            "value_in",
            {"table": "frpm", "column": "High Grade", "value": "8"},
            ToolFeedback.standard({"exists": True, "match_count": 2}),
        ),
    )
    append_turn(d, 1, stop("Both ends of the span are verified."))
    d.add_verified(
        VerifiedLinking(
            kind="value",
            table="frpm",
            column="Low Grade",
            literal="K",
            rationale="kindergarten is stored as the single letter K",
            source_turn=(1, 0),
        )
    )
    d.add_verified(
        VerifiedLinking(
            kind="value",
            table="frpm",
            column="High Grade",
            literal="8",
            rationale="the 8th grade end is stored as the digit 8",
            source_turn=(1, 1),
        )
    )
    shots.append((d, "Kindergarten to 8th grade refers to Low Grade = 'K' AND High Grade = '8'."))

    d = doc(
        "shot-virtual",
        "california_schools",
        "How many schools are exclusively virtual?",
        ["How many schools", "exclusively virtual"],
    )
    append_turn(d, 0, stop("Counting rows needs no value probe."))
    append_turn(
        d,
        1,
        turn(
            "Virtual status is probably coded; list the stored values.",
            "uniq_value",
            {"table": "schools", "column": "Virtual"},
            ToolFeedback.standard({"distinct_count": 3, "samples": ["F", "N", "P"]}),
        ),
    )
    append_turn(
        d,
        1,
        turn(
            "Single letters; read the column description to decode them.",
            "info",
            {"table": "schools", "column": "Virtual"},
            ToolFeedback.standard(
                {
                    "table": "schools",
                    "column": "Virtual",
                    "declared_type": "TEXT",
                    "description": (
                        "the virtual status of the school | F means exclusively"
                        " virtual, P means partially virtual, N means not virtual"
                    ),
                    "row_count": 17686,
                    "null_fraction": 0.0,
                }
            ),
        ),
    )
    append_turn(d, 1, stop("F is the exclusive code."))
    d.add_verified(
        VerifiedLinking(
            kind="value",
            table="schools",
            column="Virtual",
            literal="F",
            rationale="the description maps F to exclusively virtual",
            source_turn=(1, 0),
        )
    )
    shots.append((d, "Exclusively virtual refers to Virtual = 'F'."))

    d = doc(
        "shot-free-rate",
        "california_schools",
        "What is the highest eligible free rate for students aged 5 to 17?",
        ["highest eligible free rate", "students aged 5 to 17"],
    )
    append_turn(
        d,
        0,
        turn(
            "No column is literally named eligible free rate; search the schema.",
            "sim_columns",
            {"query_text": "eligible free rate"},
            ToolFeedback.standard(
                {
                    "matches": [
                        {"table": "frpm", "column": "Free Meal Count (Ages 5-17)", "score": 0.71},
                        {"table": "frpm", "column": "Enrollment (Ages 5-17)", "score": 0.64},
                    ],
                    "scoring": "embedding",
                }
            ),
        ),
    )
    append_turn(d, 0, stop("The rate is not stored; it divides the count by the enrollment."))
    append_turn(
        d,
        1,
        turn(
            "Make sure the age-bracket column is usable and not mostly missing.",
            "if_null",
            {"table": "frpm", "column": "Free Meal Count (Ages 5-17)"},
            ToolFeedback.standard({"null_count": 812, "total": 9986, "fraction": 0.0813}),
        ),
    )
    append_turn(d, 1, stop("The bracket is carried by the column names themselves."))
    d.add_verified(
        VerifiedLinking(
            kind="schema",
            table="frpm",
            column="Free Meal Count (Ages 5-17)",
            literal=None,
            rationale="the aged 5 to 17 count column",
            source_turn=(0, 0),
        )
    )
    d.add_verified(
        VerifiedLinking(
            kind="function",
            table="frpm",
            column=None,
            literal=None,
            rationale=(
                "eligible free rate = `Free Meal Count (Ages 5-17)` /"
                " `Enrollment (Ages 5-17)`"
            ),
            source_turn=(0, 0),
        )
    )
    shots.append(
        (
            d,
            "Eligible free rate for students aged 5 to 17 = `Free Meal Count"
            " (Ages 5-17)` / `Enrollment (Ages 5-17)`; highest refers to MAX of"
            " that ratio.",
        )
    )

    d = doc(
        "shot-prague",
        "financial",
        "List the account ids held in the Prague region.",
        ["account ids", "held in the Prague region"],
    )
    append_turn(
        d,
        0,
        turn(
            "Confirm how accounts are keyed.",
            "head",
            {"table": "account", "n": 2},
            ToolFeedback.standard(
                {
                    "columns": ["account_id", "district_id", "frequency", "date"],
                    "rows": [
                        [1, 18, "POPLATEK MESICNE", "1995-03-24"],
                        [2, 1, "POPLATEK MESICNE", "1993-02-26"],
                    ],
                }
            ),
        ),
    )
    append_turn(d, 0, stop("account_id is the key."))
    append_turn(
        d,
        1,
        turn(
            "Region names are cryptically coded in district; search for Prague.",
            "sim_value_in",
            {"table": "district", "column": "A3", "query_text": "Prague"},
            ToolFeedback.standard(
                {
                    "matches": [
                        {"value": "Prague", "score": 0.92},
                        {"value": "central Bohemia", "score": 0.41},
                    ],
                    "pool_size": 8,
                    "prefiltered": False,
                    "scoring": "embedding",
                }
            ),
        ),
    )
    append_turn(d, 1, stop("Prague is stored verbatim in district.A3."))
    d.add_verified(
        VerifiedLinking(
            kind="value",
            table="district",
            column="A3",
            literal="Prague",
            rationale="region names live in district.A3",
            source_turn=(1, 0),
        )
    )
    d.add_verified(
        VerifiedLinking(
            kind="schema",
            table="account",
            column="account_id",
            literal=None,
            rationale="account ids are account.account_id",
            source_turn=(0, 0),
        )
    )
    shots.append(
        (d, "Account ids refers to account.account_id; the Prague region refers to district.A3 = 'Prague'.")
    )

    d = doc(
        "shot-salary",
        "hr",
        "Which employee has the highest salary, ignoring missing salaries?",
        ["Which employee", "highest salary, ignoring missing salaries"],
    )
    append_turn(d, 0, stop("Employees are rows of the employee table."))
    append_turn(
        d,
        1,
        turn(
            "Missing salaries were mentioned; measure how many are NULL.",
            "if_null",
            {"table": "employee", "column": "salary"},
            ToolFeedback.standard({"null_count": 37, "total": 500, "fraction": 0.074}),
        ),
    )
    append_turn(
        d,
        1,
        turn(
            "Salaries are numeric; sample a few stored values.",
            "uniq_value",
            {"table": "employee", "column": "salary", "limit": 3},
            ToolFeedback.standard(
                {"distinct_count": 412, "samples": ["101000", "54000", "78000"]}
            ),
        ),
    )
    append_turn(d, 1, stop("NULLs exist, so the maximum must exclude them."))
    d.add_verified(
        VerifiedLinking(
            kind="function",
            table="employee",
            column="salary",
            literal=None,
            rationale="missing salaries are NULL and must be filtered before taking MAX",
            source_turn=(1, 0),
        )
    )
    shots.append((d, "Highest salary refers to MAX(salary) WHERE salary IS NOT NULL."))

    return shots


def render() -> str:
    """The text of concise_shots.json: each shot's workspace, checked to
    deserialize, with its evidence line."""
    payload = []
    for d, line in build_shots():
        blob = serialize(d)
        deserialize(blob)
        payload.append({"cotf": json.loads(blob.decode("utf-8")), "evidence": line})
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def main():
    text = render()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text, encoding="utf-8")
    print(f"wrote {OUT} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
