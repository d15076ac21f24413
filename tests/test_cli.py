"""Command-line surface: runs, resume, evaluation, trace statistics."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diver import cli
from diver import eval as eval_module
from diver.cotf import Question, deserialize, serialize
from diver.database import DatabaseHandle, catalog
from diver.embedding import LexicalEmbedder
from diver.errors import SqlError
from diver.evidence import grounding_filter
from diver.llm import fingerprint
from diver.pipeline import PipelineConfig, run_question

from replay import RecordingSession, ScriptBuilder, tool

Q1_EVIDENCE = "Grade K refers to `Low Grade` = 'K'."
Q2_EVIDENCE = "Fresno refers to City = 'Fresno'."
Q3_EVIDENCE = "Charter schools refers to `Charter School (Y/N)` = 1."


def build_happy_script(probes=()):
    """Three questions against california_schools, all ending cleanly; the
    tool calls in probes open q1's first clause."""
    b = ScriptBuilder()
    # q1: Which schools serve grade K?
    b.segmentation(["Which schools", "serve grade K"])
    for call in probes:
        b.turn(call)
    b.turn(tool("uniq_value", table="frpm", column="Low Grade"))
    b.stop_clause()
    b.turn(tool("value_in", table="frpm", column="Low Grade", value="K"))
    b.stop_clause()
    b.harvest(
        [
            {
                "kind": "value",
                "table": "frpm",
                "column": "Low Grade",
                "literal": "K",
                "rationale": "grade K is stored as the literal K",
                "source_turn": [1, 0],
            }
        ]
    )
    b.evidence(Q1_EVIDENCE)
    # q2: How many schools are in Fresno?
    b.segmentation(["How many schools", "are in Fresno"])
    b.stop_clause()
    b.turn(tool("value_in", table="schools", column="City", value="Fresno"))
    b.stop_clause()
    b.harvest(
        [
            {
                "kind": "value",
                "table": "schools",
                "column": "City",
                "literal": "Fresno",
                "rationale": "the city is stored verbatim",
                "source_turn": [1, 0],
            }
        ]
    )
    b.evidence(Q2_EVIDENCE)
    # q3: List charter schools
    b.segmentation(["List charter schools"])
    b.turn(tool("value_in", table="frpm", column="Charter School (Y/N)", value=1))
    b.stop_clause()
    b.harvest(
        [
            {
                "kind": "schema",
                "table": "frpm",
                "column": "Charter School (Y/N)",
                "rationale": "charter flag column",
                "source_turn": [0, 0],
            }
        ]
    )
    b.evidence(Q3_EVIDENCE)
    return b


DATASET = [
    {
        "question_id": 11,
        "db_id": "california_schools",
        "question": "Which schools serve grade K?",
        "difficulty": "simple",
    },
    {
        "question_id": 12,
        "db_id": "california_schools",
        "question": "How many schools are in Fresno?",
        "difficulty": "moderate",
    },
    {
        "question_id": 13,
        "db_id": "california_schools",
        "question": "List charter schools",
    },
]


def write_dataset(path, rows):
    path.write_text(json.dumps(rows, indent=2), encoding="utf-8")
    return path


def run_args(dataset, db_root, out, script, extra=()):
    return [
        "run",
        "--dataset",
        str(dataset),
        "--db-root",
        str(db_root),
        "--out",
        str(out),
        "--mock-llm",
        str(script),
        "--style",
        "concise",
        *extra,
    ]


@pytest.fixture()
def happy_run(tmp_path, db_root):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET)
    script = build_happy_script().write(tmp_path / "script.json")
    out = tmp_path / "out"
    rc = cli.main(run_args(dataset, db_root, out, script))
    return rc, dataset, script, out


def test_run_writes_traces_and_evidence(happy_run):
    rc, _, _, out = happy_run
    assert rc == 0
    traces = sorted(p.name for p in (out / "traces").glob("*.json"))
    assert traces == ["11.json", "12.json", "13.json"]
    evidence = json.loads((out / "evidence_concise.json").read_text())
    assert evidence == {"11": Q1_EVIDENCE, "12": Q2_EVIDENCE, "13": Q3_EVIDENCE}
    report = json.loads((out / "run_report.json").read_text())
    assert report["failed"] == {}
    assert set(report["completed"]) == {"11", "12", "13"}
    doc = deserialize((out / "traces" / "11.json").read_bytes())
    assert len(doc.clauses) == 2
    assert [t.feedback.kind for t in doc.turns[0]] == ["standard", "standard"]
    assert doc.verified and doc.verified[0].literal == "K"


def test_run_missing_db_fails_only_that_question(tmp_path, db_root):
    rows = [DATASET[0], dict(DATASET[1], db_id="no_such_db"), DATASET[2]]
    dataset = write_dataset(tmp_path / "dataset.json", rows)
    b = ScriptBuilder()
    full = build_happy_script().build()
    # q1 block is the first 14 responses, q3 block the last 10
    b.responses = full[:14] + full[-10:]
    script = b.write(tmp_path / "script.json")
    out = tmp_path / "out"
    rc = cli.main(run_args(dataset, db_root, out, script))
    assert rc != 0
    report = json.loads((out / "run_report.json").read_text())
    assert set(report["completed"]) == {"11", "13"}
    assert set(report["failed"]) == {"12"}
    evidence = json.loads((out / "evidence_concise.json").read_text())
    assert set(evidence) == {"11", "13"}


def test_run_non_string_db_id_fails_only_that_question(tmp_path, db_root):
    rows = [DATASET[0], dict(DATASET[1], db_id=5), DATASET[2]]
    dataset = write_dataset(tmp_path / "dataset.json", rows)
    b = ScriptBuilder()
    full = build_happy_script().build()
    b.responses = full[:14] + full[-10:]
    script = b.write(tmp_path / "script.json")
    out = tmp_path / "out"
    assert cli.main(run_args(dataset, db_root, out, script)) == 1
    report = json.loads((out / "run_report.json").read_text())
    assert report["completed"] == ["11", "13"]
    assert report["failed"] == {"12": "question.db_id must be a non-empty string"}


def test_run_row_that_is_not_an_object_fails_only_that_row(tmp_path, db_root, caplog, capsys):
    dataset = write_dataset(tmp_path / "dataset.json", [5, DATASET[0]])
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[:14]
    script = b.write(tmp_path / "script.json")
    out = tmp_path / "out"
    assert cli.main(run_args(dataset, db_root, out, script)) == 1
    report = json.loads((out / "run_report.json").read_text())
    assert report["completed"] == ["11"]
    assert report["failed"] == {"0": "row 0 is not a JSON object"}
    assert "0\tfailed\trow 0 is not a JSON object" in capsys.readouterr().out
    assert [r for r in caplog.records if r.exc_info] == []


# json.dumps writes a lone surrogate as the JSON escape \ud800
UNREADABLE_ROWS = [
    ({"question_id": "q\ud800"}, "0", "row 0 question_id is not valid UTF-8"),
    ({"db_id": "california\ud800"}, "12", "question.db_id is not valid UTF-8"),
    ({"question": "Which \ud800 schools?"}, "12", "question.text is not valid UTF-8"),
    ({"question": " \t\n"}, "12", "question.text has no tokens"),
]


@pytest.mark.parametrize(
    "change, qid, message", UNREADABLE_ROWS, ids=["question_id", "db_id", "text", "blank"]
)
def test_run_fails_a_row_it_cannot_read_before_any_model_request(
    tmp_path, db_root, monkeypatch, caplog, capsys, change, qid, message
):
    calls = []

    class Counting(cli.ScriptedSession):
        def chat(self, request):
            calls.append(request)
            return super().chat(request)

    monkeypatch.setattr(cli, "ScriptedSession", Counting)
    dataset = write_dataset(tmp_path / "dataset.json", [dict(DATASET[1], **change), DATASET[0]])
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[:14]
    script = b.write(tmp_path / "script.json")
    out = tmp_path / "out"
    assert cli.main(run_args(dataset, db_root, out, script)) == 1
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    assert report["completed"] == ["11"]
    assert report["failed"] == {qid: message}
    assert len(calls) == 14  # the good row's script, and nothing more
    assert capsys.readouterr().out.splitlines() == [
        f"{qid}\tfailed\t{message}",
        "11\tok",
        "completed 1  skipped 0  failed 1",
    ]
    assert [r for r in caplog.records if r.exc_info] == []


def test_run_fails_a_question_id_that_is_not_a_file_name(tmp_path, db_root, caplog):
    bad = ["../../escaped", "a/b", "a\0b"]
    rows = [dict(DATASET[0], question_id=qid) for qid in bad] + [DATASET[0]]
    dataset = write_dataset(tmp_path / "dataset.json", rows)
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[:14]
    script = b.write(tmp_path / "script.json")
    out = tmp_path / "out"
    assert cli.main(run_args(dataset, db_root, out, script)) == 1
    report = json.loads((out / "run_report.json").read_text())
    assert report["completed"] == ["11"]
    assert report["failed"] == {qid: f"question id {qid!r} cannot be a file name" for qid in bad}
    outside = [p for p in tmp_path.rglob("*") if out not in p.parents and p != out]
    assert sorted(p.name for p in outside) == ["dataset.json", "script.json"]
    assert sorted(p.name for p in (out / "traces").iterdir()) == ["11.json"]
    assert [r for r in caplog.records if r.exc_info] == []


# JSON values that are neither a string nor an integer, nor null
BAD_IDS = [True, False, 1.5, {"a": 1}, ["11"]]
BAD_ID_IDS = ["true", "false", "float", "object", "array"]
BAD_ID = "row 0 question_id must be a string or an integer"


@pytest.mark.parametrize("bad", BAD_IDS, ids=BAD_ID_IDS)
def test_run_fails_a_row_whose_question_id_is_no_string_or_integer(
    tmp_path, db_root, caplog, capsys, bad
):
    rows = [dict(DATASET[1], question_id=bad), DATASET[0]]
    dataset = write_dataset(tmp_path / "dataset.json", rows)
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[:14]
    script = b.write(tmp_path / "script.json")
    out = tmp_path / "out"
    assert cli.main(run_args(dataset, db_root, out, script)) == 1
    report = json.loads((out / "run_report.json").read_text())
    assert report["completed"] == ["11"]
    assert report["failed"] == {"0": BAD_ID}
    assert f"0\tfailed\t{BAD_ID}" in capsys.readouterr().out
    assert sorted(p.name for p in (out / "traces").iterdir()) == ["11.json"]
    assert [r for r in caplog.records if r.exc_info] == []


def test_run_reads_a_null_question_id_as_absent(tmp_path, db_root):
    # two null ids are two rows' indices, not one id "None" twice
    rows = [dict(DATASET[0], question_id=None), dict(DATASET[1], question_id=None)]
    dataset = write_dataset(tmp_path / "dataset.json", rows)
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[:-10]
    script = b.write(tmp_path / "script.json")
    out = tmp_path / "out"
    assert cli.main(run_args(dataset, db_root, out, script)) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["completed"] == ["0", "1"]
    assert sorted(p.name for p in (out / "traces").iterdir()) == ["0.json", "1.json"]


def test_run_refuses_an_out_path_it_cannot_create(tmp_path, db_root, capsys):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET)
    script = build_happy_script().write(tmp_path / "script.json")
    a_file = tmp_path / "a_file"
    a_file.write_text("not a directory", encoding="utf-8")
    assert cli.main(run_args(dataset, db_root, a_file, script)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = os.strerror(errno.ENOTDIR)
    assert captured.err == f"error: cannot write {a_file / 'traces'}: {reason}\n"


def test_a_question_whose_trace_cannot_be_written_fails_alone(tmp_path, db_root, caplog):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET)
    script = build_happy_script().write(tmp_path / "script.json")
    out = tmp_path / "out"
    blocked = out / "traces" / "12.json"
    blocked.mkdir(parents=True)
    assert cli.main(run_args(dataset, db_root, out, script)) == 1
    report = json.loads((out / "run_report.json").read_text())
    assert report["completed"] == ["11", "13"]
    assert report["failed"] == {"12": f"cannot write {blocked}: {os.strerror(errno.EISDIR)}"}
    assert [r for r in caplog.records if r.exc_info] == []


def test_run_needs_a_script_or_an_endpoint(tmp_path, db_root, capsys):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET)
    out = tmp_path / "out"
    argv = ["run", "--dataset", str(dataset), "--db-root", str(db_root), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: need --mock-llm SCRIPT or --llm-endpoint URL\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("rows", [{"0": DATASET[0]}, "rows", None])
def test_a_dataset_that_is_not_a_json_list_is_refused(tmp_path, db_root, capsys, command, rows):
    dataset = write_dataset(tmp_path / "dataset.json", rows)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text("{}", encoding="utf-8")
    script = build_happy_script().write(tmp_path / "script.json")
    out = tmp_path / "out"
    if command == "run":
        argv = run_args(dataset, db_root, out, script)
    else:
        argv = eval_args(dataset, pred_path, db_root, out)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: dataset {dataset} must be a JSON list\n"
    assert not out.exists()


def test_rerun_without_force_makes_no_llm_calls(happy_run, tmp_path):
    rc, dataset, _, out = happy_run
    assert rc == 0
    empty_script = tmp_path / "empty.json"
    empty_script.write_text("[]", encoding="utf-8")
    rc = cli.main(run_args(dataset, out.parent.parent / "db", out, empty_script))
    # db root is never touched for skipped questions either
    assert rc == 0
    report = json.loads((out / "run_report.json").read_text())
    assert set(report["skipped"]) == {"11", "12", "13"}
    assert report["failed"] == {}
    evidence = json.loads((out / "evidence_concise.json").read_text())
    assert len(evidence) == 3


def test_rerun_redoes_a_truncated_trace(happy_run, tmp_path, db_root):
    rc, dataset, _, out = happy_run
    assert rc == 0
    trace = out / "traces" / "12.json"
    whole = trace.read_bytes()
    trace.write_bytes(whole[: len(whole) // 2])
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[14:-10]  # q2's block alone
    rc = cli.main(run_args(dataset, db_root, out, b.write(tmp_path / "q2.json")))
    assert rc == 0
    report = json.loads((out / "run_report.json").read_text())
    assert set(report["skipped"]) == {"11", "13"}
    assert report["completed"] == ["12"]
    assert trace.read_bytes() == whole
    assert sorted(p.name for p in out.rglob("*.tmp")) == []


def test_rerun_redoes_a_trace_nested_too_deeply(happy_run, tmp_path, db_root, capsys):
    rc, dataset, _, out = happy_run
    assert rc == 0
    trace = out / "traces" / "12.json"
    whole = trace.read_bytes()
    trace.write_bytes(b"[" * 100_000)
    capsys.readouterr()
    assert cli.main(["trace-stats", "--trace-dir", str(out / "traces"), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["traces"], stats["skipped"]) == (2, ["12.json"])
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[14:-10]  # q2's block alone
    assert cli.main(run_args(dataset, db_root, out, b.write(tmp_path / "q2.json"))) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert set(report["skipped"]) == {"11", "13"}
    assert report["completed"] == ["12"]
    assert trace.read_bytes() == whole


def test_a_sidecar_that_is_not_utf8_is_redone_and_the_report_written(
    happy_run, tmp_path, db_root
):
    rc, dataset, _, out = happy_run
    assert rc == 0
    sidecar = out / "evidence" / "12.json"
    whole = sidecar.read_bytes()
    sidecar.write_bytes(b'{"concise": "' + bytes([0xFF, 0xFE]) + b'"}')
    stray = out / "evidence" / "stray.json"  # no question of the dataset
    stray.write_bytes(bytes([0xFF, 0xFE]))
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[14:-10]  # q2's block alone
    assert cli.main(run_args(dataset, db_root, out, b.write(tmp_path / "q2.json"))) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["completed"] == ["12"]
    assert sidecar.read_bytes() == whole
    evidence = json.loads((out / "evidence_concise.json").read_text())
    assert evidence == {"11": Q1_EVIDENCE, "12": Q2_EVIDENCE, "13": Q3_EVIDENCE}


@pytest.mark.parametrize("command", ["run", "eval"])
def test_a_dataset_that_is_not_utf8_or_nested_too_deeply_is_refused(
    tmp_path, db_root, capsys, command
):
    for name, data in (("latin1.json", '[{"question": "caf\xe9"}]'.encode("latin-1")),
                       ("deep.json", b"[" * 100_000)):
        dataset = tmp_path / name
        dataset.write_bytes(data)
        args = (
            run_args(dataset, db_root, tmp_path / "out", tmp_path / "none.json")
            if command == "run"
            else eval_args(dataset, tmp_path / "none.json", db_root, tmp_path / "r.json")
        )
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot load dataset from {dataset}: ")
        assert "Traceback" not in captured.err


# what cotf.load refuses: a missing file, bytes that are not UTF-8, text that
# is not JSON and JSON nested past the recursion limit
UNREADABLE = {
    "missing": None,
    "latin-1": '[{"question": "caf\xe9"}]'.encode("latin-1"),
    "not-json": b"{not json",
    "deep": b"[" * 100_000,
}


@pytest.mark.parametrize("case", UNREADABLE)
@pytest.mark.parametrize("what", ["dataset", "predictions", "replay script"])
def test_every_json_input_is_refused_with_one_message(tmp_path, db_root, capsys, what, case):
    bad = tmp_path / "bad.json"
    if UNREADABLE[case] is not None:
        bad.write_bytes(UNREADABLE[case])
    dataset = write_dataset(tmp_path / "dataset.json", DATASET[:1])
    predictions = tmp_path / "predictions.json"
    predictions.write_text("{}", encoding="utf-8")
    if what == "replay script":
        args = run_args(dataset, db_root, tmp_path / "out", bad)
    else:
        inputs = {"dataset": dataset, "predictions": predictions, what: bad}
        args = eval_args(inputs["dataset"], inputs["predictions"], db_root, tmp_path / "r.json")
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot load {what} from {bad}: ")
    assert "Traceback" not in captured.err


def test_rerun_redoes_a_truncated_sidecar(happy_run, tmp_path, db_root):
    rc, dataset, _, out = happy_run
    assert rc == 0
    sidecar = out / "evidence" / "12.json"
    whole = sidecar.read_bytes()
    sidecar.write_bytes(whole[: len(whole) // 2])
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[14:-10]  # q2's block alone
    assert cli.main(run_args(dataset, db_root, out, b.write(tmp_path / "q2.json"))) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["completed"] == ["12"]
    assert sidecar.read_bytes() == whole


def test_a_trace_that_cannot_be_written_leaves_no_temp_file(tmp_path, db_root):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET[:1])
    script = ScriptBuilder()
    script.responses = build_happy_script().build()[:14]  # q1's block alone
    out = tmp_path / "out"
    (out / "traces" / "11.json").mkdir(parents=True)
    assert cli.main(run_args(dataset, db_root, out, script.write(tmp_path / "q1.json"))) == 1
    report = json.loads((out / "run_report.json").read_text())
    trace = out / "traces" / "11.json"
    assert report["failed"] == {"11": f"cannot write {trace}: Is a directory"}
    assert sorted(p.name for p in (out / "traces").iterdir()) == ["11.json"]


def test_a_sidecar_holds_only_its_own_traces_evidence(tmp_path, db_root, open_db):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET[:1])
    out = tmp_path / "out"
    first = ScriptBuilder()
    first.responses = build_happy_script().build()[:14]  # probes value_in for 'K'
    assert cli.main(run_args(dataset, db_root, out, first.write(tmp_path / "one.json"))) == 0

    long_evidence = "The schools table names each `City`."
    second = ScriptBuilder()
    second.segmentation(["Which schools", "serve grade K"])
    second.turn(tool("head", table="schools", n=1))
    second.stop_clause()
    second.stop_clause()
    second.harvest([])
    second.evidence(long_evidence)
    script = second.write(tmp_path / "two.json")
    assert cli.main(run_args(dataset, db_root, out, script, extra=("--style", "long"))) == 0

    sidecar = json.loads((out / "evidence" / "11.json").read_text())
    assert sidecar == {"long": long_evidence}
    doc = deserialize((out / "traces" / "11.json").read_bytes())
    cat = catalog(open_db(db_root / "california_schools" / "california_schools.sqlite"))
    for text in sidecar.values():
        assert grounding_filter(text, doc, cat)["text"] == text
    assert json.loads((out / "evidence_concise.json").read_text()) == {}
    assert json.loads((out / "evidence_long.json").read_text()) == {"11": long_evidence}


def test_a_style_not_asked_for_keeps_the_other_questions_aggregate(tmp_path, db_root):
    happy = build_happy_script().build()
    q1, q2 = ScriptBuilder(), ScriptBuilder()
    q1.responses = happy[:14]
    q2.responses = happy[14:27]
    out = tmp_path / "out"
    one = write_dataset(tmp_path / "one.json", DATASET[:1])
    assert cli.main(run_args(one, db_root, out, q1.write(tmp_path / "q1.json"))) == 0
    concise = (out / "evidence_concise.json").read_bytes()

    two = write_dataset(tmp_path / "two.json", DATASET[1:2])
    script = q2.write(tmp_path / "q2.json")
    assert cli.main(run_args(two, db_root, out, script, extra=("--style", "long"))) == 0
    # q1's sidecar and trace are untouched, so its concise text still stands
    assert (out / "evidence_concise.json").read_bytes() == concise
    assert json.loads(concise) == {"11": Q1_EVIDENCE}
    assert set(json.loads((out / "evidence_long.json").read_text())) == {"12"}


def test_two_datasets_in_one_out_share_the_aggregate(tmp_path, db_root):
    happy = build_happy_script().build()
    q1, q2 = ScriptBuilder(), ScriptBuilder()
    q1.responses = happy[:14]
    q2.responses = happy[14:27]
    out = tmp_path / "out"
    one = write_dataset(tmp_path / "one.json", DATASET[:1])
    assert cli.main(run_args(one, db_root, out, q1.write(tmp_path / "q1.json"))) == 0
    two = write_dataset(tmp_path / "two.json", DATASET[1:2])
    assert cli.main(run_args(two, db_root, out, q2.write(tmp_path / "q2.json"))) == 0
    concise = json.loads((out / "evidence_concise.json").read_text())
    assert concise == {"11": Q1_EVIDENCE, "12": Q2_EVIDENCE}
    assert not (out / "evidence_long.json").exists()


def test_run_completes_questions_on_a_database_with_an_unreadable_table(
    tmp_path, unloadable_db_root, caplog
):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET[:2])
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[:27]
    out = tmp_path / "out"
    rc = cli.main(run_args(dataset, unloadable_db_root, out, b.write(tmp_path / "script.json")))
    assert rc == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["completed"] == ["11", "12"]
    assert report["failed"] == {}
    assert json.loads((out / "evidence_concise.json").read_text()) == {
        "11": Q1_EVIDENCE,
        "12": Q2_EVIDENCE,
    }
    assert "leaving table 'vt' out of the catalog: no such module: nosuchmod" in caplog.messages


def test_a_run_killed_before_its_sidecar_lands_is_redone(tmp_path, db_root, monkeypatch):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET[:1])
    q1 = ScriptBuilder()
    q1.responses = build_happy_script().build()[:14]
    script = q1.write(tmp_path / "q1.json")
    out = tmp_path / "out"
    assert cli.main(run_args(dataset, db_root, out, script)) == 0

    write = cli._write_atomic

    def killed_at_the_sidecar(path, data):
        if path.parent.name == "evidence":
            raise OSError("killed")
        write(path, data)

    monkeypatch.setattr(cli, "_write_atomic", killed_at_the_sidecar)
    assert cli.main(run_args(dataset, db_root, out, script, extra=("--force",))) == 1
    monkeypatch.undo()
    # the old sidecar spoke for the old trace, so it is gone with it
    assert not (out / "evidence" / "11.json").exists()
    assert cli.main(run_args(dataset, db_root, out, script)) == 0
    assert json.loads((out / "run_report.json").read_text())["completed"] == ["11"]


# distinctive dataset answers that no prompt or trace may show
ANSWERS = {
    "SQL": "SELECT School FROM frpm WHERE `Low Grade` = 'gold-sql-5f2a'",
    "evidence": "expert-evidence-9c41",
    "difficulty": "difficulty-3b7e",
}


def test_run_question_shows_the_model_no_dataset_answer(schools_db, schools_desc_dir):
    question = Question(
        question_id="11",
        db_id="california_schools",
        text=DATASET[0]["question"],
        gold_sql=ANSWERS["SQL"],
        expert_evidence=ANSWERS["evidence"],
        difficulty=ANSWERS["difficulty"],
    )
    llm = RecordingSession(build_happy_script().build()[:14])
    doc, _ = run_question(
        question, schools_db, schools_desc_dir, llm, LexicalEmbedder(), PipelineConfig("concise")
    )
    seen = [m.content for r in llm.requests for m in r.messages] + [serialize(doc).decode()]
    for answer in ANSWERS.values():
        assert not [text for text in seen if answer in text], answer


@pytest.mark.parametrize("sql", [ANSWERS["SQL"], 5])
def test_run_keeps_dataset_answers_out_of_the_trace(tmp_path, db_root, sql):
    # a non-string SQL is not read, so it fails nothing
    row = {**DATASET[0], **ANSWERS, "SQL": sql}
    dataset = write_dataset(tmp_path / "dataset.json", [row])
    b = ScriptBuilder()
    b.responses = build_happy_script().build()[:14]
    out = tmp_path / "out"
    assert cli.main(run_args(dataset, db_root, out, b.write(tmp_path / "script.json"))) == 0
    trace = (out / "traces" / "11.json").read_text(encoding="utf-8")
    assert json.loads(trace)["question"] == {
        "question_id": "11",
        "db_id": "california_schools",
        "text": DATASET[0]["question"],
    }
    for answer in ANSWERS.values():
        assert answer not in trace


@pytest.fixture()
def replaced(monkeypatch):
    """Destinations of every os.replace call, in order."""
    seen = []
    real_replace = os.replace

    def spy(src, dst):
        seen.append(Path(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    return seen


def test_run_writes_every_output_file_atomically(tmp_path, db_root, replaced):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET)
    script = build_happy_script().write(tmp_path / "script.json")
    out = tmp_path / "out"
    assert cli.main(run_args(dataset, db_root, out, script)) == 0
    written = {p for p in out.rglob("*") if p.is_file()}
    assert written == set(replaced)
    assert {out / "evidence_concise.json", out / "run_report.json"} <= written


def test_replayed_run_never_imports_requests(happy_run, tmp_path, db_root):
    _, dataset, _, _ = happy_run
    probes = [
        tool("sim_value_in", table="schools", column="City", query_text="fresno"),
        tool("sim_columns", query_text="charter school"),
    ]
    script = build_happy_script(probes).write(tmp_path / "again.json")
    out = tmp_path / "again"
    argv = run_args(dataset, db_root, out, script)
    code = (
        "import sys\n"
        "import diver.cli\n"
        "assert 'requests' not in sys.modules, 'import'\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        f"assert diver.cli.main({argv!r}) == 0\n"
        "assert 'requests' not in sys.modules, 'run'\n"
        "assert 'numpy' not in sys.modules, 'run'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    doc = deserialize((out / "traces" / "11.json").read_bytes())
    ranked = [t.feedback.result for t in doc.turns[0][:2]]
    assert [r["scoring"] for r in ranked] == ["embedding", "embedding"]
    assert all(r["matches"] for r in ranked)


def test_force_reruns_every_question(happy_run, tmp_path, db_root):
    rc, dataset, _, out = happy_run
    assert rc == 0
    script = build_happy_script().write(tmp_path / "script2.json")
    rc = cli.main(run_args(dataset, db_root, out, script, extra=("--force",)))
    assert rc == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["skipped"] == []
    assert set(report["completed"]) == {"11", "12", "13"}


def test_two_runs_are_byte_identical(tmp_path, db_root):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET)
    outs = []
    for name in ("out_a", "out_b"):
        script = build_happy_script().write(tmp_path / f"{name}.script.json")
        out = tmp_path / name
        assert cli.main(run_args(dataset, db_root, out, script)) == 0
        outs.append(out)
    a, b = outs
    for qid in ("11", "12", "13"):
        assert (a / "traces" / f"{qid}.json").read_bytes() == (
            b / "traces" / f"{qid}.json"
        ).read_bytes()
    assert (a / "evidence_concise.json").read_bytes() == (
        b / "evidence_concise.json"
    ).read_bytes()


def test_sequential_script_ignores_jobs_flag(tmp_path, db_root):
    dataset = write_dataset(tmp_path / "dataset.json", DATASET)
    script = build_happy_script().write(tmp_path / "script.json")
    out = tmp_path / "out"
    rc = cli.main(run_args(dataset, db_root, out, script, extra=("--jobs", "4")))
    assert rc == 0
    evidence = json.loads((out / "evidence_concise.json").read_text())
    assert len(evidence) == 3


@pytest.mark.parametrize(
    "flag, value",
    [("--max-turns", "0"), ("--candidates", "0"), ("--jobs", "0"), ("--jobs", "-3")],
)
def test_run_rejects_counts_below_one_before_any_model_call(
    tmp_path, db_root, monkeypatch, capsys, flag, value
):
    calls = []

    class Counting(cli.ScriptedSession):
        def chat(self, request):
            calls.append(request)
            return super().chat(request)

    monkeypatch.setattr(cli, "ScriptedSession", Counting)
    dataset = write_dataset(tmp_path / "dataset.json", DATASET)
    script = build_happy_script().write(tmp_path / "script.json")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(run_args(dataset, db_root, out, script, extra=(flag, value)))
    assert exc.value.code == 2
    assert calls == []
    assert not out.exists()
    assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err


def test_embedder_endpoint_alone_selects_the_remote_embedder():
    base = ["run", "--dataset", "d.json", "--db-root", "dbs", "--out", "out"]
    parse = cli.build_parser().parse_args
    remote = cli._build_embedder(parse([*base, "--embedder-endpoint", "http://127.0.0.1:9/e"]))
    assert isinstance(remote, cli.RemoteEmbedder)
    assert remote.endpoint == "http://127.0.0.1:9/e"
    assert isinstance(cli._build_embedder(parse(base)), cli.LexicalEmbedder)


MALFORMED_SCRIPTS = [
    ({"by_fingerprint": [1, 2]}, "replay script by_fingerprint must be an object, got [1, 2]"),
    (
        {"by_fingerprint": {"ab12": "hello"}},
        "replay script by_fingerprint['ab12'] must be a list of strings, got 'hello'",
    ),
    ([1, None], "replay script list entry 0 must be a string, got 1"),
]


@pytest.mark.parametrize("script, message", MALFORMED_SCRIPTS)
def test_run_refuses_a_malformed_script_before_any_database_open(
    tmp_path, db_root, monkeypatch, capsys, script, message
):
    opened = []
    monkeypatch.setattr(cli, "run_question", lambda *args: opened.append(args))
    dataset = write_dataset(tmp_path / "dataset.json", DATASET)
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(run_args(dataset, db_root, out, path)) == 2
    assert opened == []
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# --- trace-stats ---


def test_trace_stats_hand_tally(happy_run, capsys):
    rc, _, _, out = happy_run
    assert rc == 0
    rc = cli.main(["trace-stats", "--trace-dir", str(out / "traces"), "--json"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    # hand tally: q1 has 2+2 turns, q2 has 1+2, q3 has 2
    assert stats["traces"] == 3
    assert stats["clauses"] == 5
    assert stats["turns"] == 9
    assert stats["mean_turns_per_clause"] == pytest.approx(1.8)
    assert stats["feedback_counts"]["corrective"] == 0
    assert stats["tool_counts"]["value_in"] == 3
    assert stats["tool_counts"]["uniq_value"] == 1
    assert stats["tool_counts"]["none"] == 5
    assert stats["tool_counts"]["head"] == 0
    assert stats["mean_turns_per_clause"] <= 5


def test_trace_stats_skips_corrupt_trace(happy_run, capsys, caplog):
    rc, _, _, out = happy_run
    assert rc == 0
    (out / "traces" / "broken.json").write_text("{not json", encoding="utf-8")
    (out / "traces" / "empty.json").write_text("", encoding="utf-8")
    rc = cli.main(["trace-stats", "--trace-dir", str(out / "traces"), "--json"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["traces"] == 3
    assert stats["skipped"] == ["broken.json", "empty.json"]
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert [w.split(": ")[:2] for w in warned] == [
        [f"skipping corrupt trace {name}", f"cannot load trace from {out / 'traces' / name}"]
        for name in ("broken.json", "empty.json")
    ]
    assert cli.main(["trace-stats", "--trace-dir", str(out / "traces")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{'skipped':<22}broken.json, empty.json"


def test_trace_stats_empty_dir(tmp_path, capsys):
    empty = tmp_path / "traces"
    empty.mkdir()
    rc = cli.main(["trace-stats", "--trace-dir", str(empty), "--json"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["traces"] == 0
    assert stats["turns"] == 0
    assert stats["mean_turns_per_clause"] == 0.0
    assert all(v == 0 for v in stats["tool_counts"].values())


def test_trace_stats_human_output(happy_run, capsys):
    rc, _, _, out = happy_run
    rc = cli.main(["trace-stats", "--trace-dir", str(out / "traces")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "value_in" in text
    assert "1.800" in text


def test_trace_stats_refuses_a_path_that_is_not_a_directory(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text("{}", encoding="utf-8")
    for missing_or_file in (tmp_path / "nowhere", path):
        assert cli.main(["trace-stats", "--trace-dir", str(missing_or_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {missing_or_file} is not a directory\n"


# --- eval ---

EVAL_DATASET = [
    {
        "question_id": 1,
        "db_id": "eval_fixture",
        "question": "ids of west orders",
        "SQL": "SELECT id FROM orders WHERE region = 'west'",
        "difficulty": "simple",
    },
    {
        "question_id": 2,
        "db_id": "eval_fixture",
        "question": "customers with big orders",
        "SQL": "SELECT customer FROM orders WHERE qty > 8",
        "difficulty": "simple",
    },
    {
        "question_id": 3,
        "db_id": "eval_fixture",
        "question": "how many orders",
        "SQL": "SELECT COUNT(*) FROM orders",
        "difficulty": "challenging",
    },
    {
        "question_id": 4,
        "db_id": "eval_fixture",
        "question": "total east amount",
        "SQL": "SELECT SUM(amount) FROM orders WHERE region = 'east'",
        "difficulty": "challenging",
    },
]


def eval_args(dataset, predictions, db_root, out, metrics="ex"):
    return [
        "eval",
        "--dataset",
        str(dataset),
        "--predictions",
        str(predictions),
        "--db-root",
        str(db_root),
        "--metrics",
        metrics,
        "--out",
        str(out),
    ]


def test_eval_all_correct(tmp_path, db_root, capsys):
    dataset = write_dataset(tmp_path / "eval.json", EVAL_DATASET)
    preds = {str(r["question_id"]): r["SQL"] for r in EVAL_DATASET}
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps(preds), encoding="utf-8")
    out = tmp_path / "report.json"
    rc = cli.main(eval_args(dataset, pred_path, db_root, out))
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ex"] == 1.0
    assert report["count"] == 4
    text = capsys.readouterr().out
    assert "1.000" in text


def test_eval_writes_its_report_atomically(tmp_path, db_root, replaced):
    dataset = write_dataset(tmp_path / "eval.json", EVAL_DATASET)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({"1": EVAL_DATASET[0]["SQL"]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out)) == 0
    assert replaced == [out]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.json", "preds.json", "report.json"]


def test_eval_half_correct_with_missing_prediction(tmp_path, db_root):
    dataset = write_dataset(tmp_path / "eval.json", EVAL_DATASET)
    preds = {
        "1": EVAL_DATASET[0]["SQL"],
        "2": "SELECT customer FROM orders WHERE qty > 900",
        # 3 missing entirely
        "4": EVAL_DATASET[3]["SQL"],
    }
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps(preds), encoding="utf-8")
    out = tmp_path / "report.json"
    rc = cli.main(eval_args(dataset, pred_path, db_root, out))
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ex"] == 0.5
    assert report["per_difficulty"]["simple"]["ex"] == 0.5
    assert report["per_difficulty"]["challenging"]["ex"] == 0.5
    assert any("missing prediction" in w for w in report["warnings"])


def test_eval_skips_a_reference_query_the_engine_cannot_take(tmp_path, db_root):
    # json.dumps writes the lone surrogate as the JSON escape \ud800
    rows = [EVAL_DATASET[0], dict(EVAL_DATASET[1], SQL="SELECT '\ud800'")]
    dataset = write_dataset(tmp_path / "eval.json", rows)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({"1": rows[0]["SQL"], "2": "SELECT 1"}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out)) == 0
    report = json.loads(out.read_text())
    assert report["count"] == 1
    assert report["ex"] == 1.0
    assert any(w.startswith("2: reference query failed (") for w in report["warnings"])


@pytest.mark.parametrize("field, value", [("SQL", 5), ("SQL", ["SELECT 1"]), ("db_id", 7)])
def test_eval_skips_a_row_whose_sql_or_db_id_is_not_a_string(tmp_path, db_root, field, value):
    rows = [EVAL_DATASET[0], dict(EVAL_DATASET[1], **{field: value})]
    dataset = write_dataset(tmp_path / "eval.json", rows)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({"1": rows[0]["SQL"]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out)) == 0
    report = json.loads(out.read_text())
    assert report["count"] == 1
    assert report["warnings"] == ["2: lacks SQL or db_id; skipped"]


@pytest.mark.parametrize(
    "row, warning",
    [
        (dict(EVAL_DATASET[1], db_id="eval\ud800"), "2: db_id is not valid UTF-8; skipped"),
        (
            dict(EVAL_DATASET[1], question_id="\ud800"),
            "0: row 0 question_id is not valid UTF-8; skipped",
        ),
    ],
    ids=["db_id", "question_id"],
)
def test_eval_skips_a_row_whose_id_is_not_valid_utf8(tmp_path, db_root, capsys, row, warning):
    dataset = write_dataset(tmp_path / "eval.json", [row, EVAL_DATASET[0]])
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({"1": EVAL_DATASET[0]["SQL"]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out)) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["count"] == 1
    assert report["ex"] == 1.0
    assert report["warnings"] == [warning]
    assert warning in capsys.readouterr().out


@pytest.mark.parametrize("bad", BAD_IDS, ids=BAD_ID_IDS)
def test_eval_skips_a_row_whose_question_id_is_no_string_or_integer(tmp_path, db_root, bad):
    rows = [dict(EVAL_DATASET[1], question_id=bad), EVAL_DATASET[0]]
    dataset = write_dataset(tmp_path / "eval.json", rows)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({"1": EVAL_DATASET[0]["SQL"]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out)) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["count"] == 1
    assert report["warnings"] == [f"0: {BAD_ID}; skipped"]


def test_eval_reads_a_null_question_id_as_absent(tmp_path, db_root):
    rows = [dict(row, question_id=None) for row in EVAL_DATASET[:2]]
    dataset = write_dataset(tmp_path / "eval.json", rows)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({"0": rows[0]["SQL"], "1": rows[1]["SQL"]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out)) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert (report["count"], report["ex"], report["warnings"]) == (2, 1.0, [])


def test_eval_refuses_an_out_path_it_cannot_write(tmp_path, db_root, capsys):
    dataset = write_dataset(tmp_path / "eval.json", EVAL_DATASET)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text("{}", encoding="utf-8")
    a_file = tmp_path / "a_file"
    a_file.write_text("not a directory", encoding="utf-8")
    out = a_file / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: {os.strerror(errno.ENOTDIR)}\n"
    assert a_file.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("predictions", [[], "SELECT 1", None])
def test_eval_refuses_predictions_that_are_not_an_object(tmp_path, db_root, capsys, predictions):
    dataset = write_dataset(tmp_path / "eval.json", EVAL_DATASET)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps(predictions), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out)) == 2
    assert capsys.readouterr().err == f"error: predictions {pred_path} must be a JSON object\n"
    assert not out.exists()


def test_eval_skips_a_row_that_is_not_an_object(tmp_path, db_root):
    dataset = write_dataset(tmp_path / "eval.json", [5, EVAL_DATASET[0]])
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({"1": EVAL_DATASET[0]["SQL"]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out)) == 0
    report = json.loads(out.read_text())
    assert report["count"] == 1
    assert report["warnings"] == ["0: row 0 is not a JSON object; skipped"]


def test_eval_reports_skipped_rows_in_row_order_before_sample_warnings(
    tmp_path, db_root, capsys
):
    rows = ["not a row", dict(EVAL_DATASET[1], SQL=None), EVAL_DATASET[0]]
    dataset = write_dataset(tmp_path / "eval.json", rows)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text("{}", encoding="utf-8")
    argv = eval_args(dataset, pred_path, db_root, tmp_path / "report.json")
    assert cli.main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == [
        "0: row 0 is not a JSON object; skipped",
        "2: lacks SQL or db_id; skipped",
        "1: missing prediction",
    ]


def test_eval_writes_its_report_on_a_database_with_an_unreadable_table(
    tmp_path, unloadable_db_root, caplog
):
    dataset = write_dataset(tmp_path / "eval.json", EVAL_DATASET)
    preds = {str(r["question_id"]): r["SQL"] for r in EVAL_DATASET}
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps(preds), encoding="utf-8")
    out = tmp_path / "report.json"
    with caplog.at_level("WARNING", logger="diver.database"):
        assert cli.main(eval_args(dataset, pred_path, unloadable_db_root, out, "ex,f1")) == 0
    report = json.loads(out.read_text())
    assert report["count"] == 4
    assert report["ex"] == 1.0
    assert report["schema_f1"]["f1"] == 1.0
    assert report["warnings"] == []
    # one catalog per f1 sample, one warning for the file
    assert [r.getMessage() for r in caplog.records if r.name == "diver.database"] == [
        "leaving table 'vt' out of the catalog: no such module: nosuchmod"
    ]


@pytest.mark.parametrize(
    "field, value, metrics",
    [
        ("difficulty", 3, "ex"),
        ("difficulty", ["hard"], "ex"),
        ("evidence", ["region"], "ex,overlap"),
        ("evidence", {"text": "region"}, "ex,overlap"),
    ],
)
def test_eval_reads_a_non_string_difficulty_or_evidence_as_absent(
    tmp_path, db_root, field, value, metrics
):
    rows = [
        dict(EVAL_DATASET[0], evidence="west refers to region"),
        dict(EVAL_DATASET[1], **{"evidence": "customer", field: value}),
        dict(EVAL_DATASET[2], evidence=""),
    ]
    dataset = write_dataset(tmp_path / "eval.json", rows)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({str(r["question_id"]): r["SQL"] for r in rows}), "utf-8")
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out, metrics)) == 0
    report = json.loads(out.read_text())
    assert report["count"] == 3
    assert report["ex"] == 1.0
    assert report["warnings"] == [f"2: {field} is not a string; ignored"]
    counts = {name: sub["count"] for name, sub in report["per_difficulty"].items()}
    if field == "difficulty":
        assert counts == {"simple": 1, "challenging": 1}
    else:
        assert counts == {"simple": 2, "challenging": 1}
        # the empty evidence is still scored
        assert report["overlap"]["count"] == 2
        assert report["overlap"]["min"] == 0.0


@pytest.mark.parametrize("field", ["difficulty", "evidence"])
def test_eval_reads_a_difficulty_or_evidence_that_is_not_valid_utf8_as_absent(
    tmp_path, db_root, field
):
    rows = [EVAL_DATASET[0], dict(EVAL_DATASET[1], **{field: "simple\ud800"})]
    dataset = write_dataset(tmp_path / "eval.json", rows)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({str(r["question_id"]): r["SQL"] for r in rows}), "utf-8")
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out, "ex,overlap")) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["count"] == 2
    assert report["warnings"] == [f"2: {field} is not valid UTF-8; ignored"]
    counts = {name: sub["count"] for name, sub in report["per_difficulty"].items()}
    assert counts == ({"simple": 2} if field == "evidence" else {"simple": 1})


def test_eval_overlap_alone_opens_no_database(tmp_path, db_root, monkeypatch):
    row = dict(EVAL_DATASET[0], db_id="no_such_db", evidence="west refers to region = 'west'")
    dataset = write_dataset(tmp_path / "eval.json", [row])
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({str(row["question_id"]): row["SQL"]}), "utf-8")
    out = tmp_path / "report.json"

    def no_database(path):
        raise AssertionError(f"opened {path}")

    monkeypatch.setattr(eval_module, "open_database", no_database)
    assert cli.main(eval_args(dataset, pred_path, db_root, out, "overlap")) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert (report["count"], report["overlap"]["count"]) == (1, 1)
    assert report["warnings"] == []


def test_eval_scores_ves_zero_when_a_timed_run_fails(tmp_path, db_root, monkeypatch):
    rows = [dict(EVAL_DATASET[0], difficulty="a"), dict(EVAL_DATASET[1], difficulty="b")]
    dataset = write_dataset(tmp_path / "eval.json", rows)
    failing = rows[1]["SQL"] + " -- timed"
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({"1": rows[0]["SQL"], "2": failing}), encoding="utf-8")
    runs = []
    query = DatabaseHandle.query

    def interrupted_after_its_first_run(self, sql, params=()):
        if sql == failing:
            runs.append(sql)
            if len(runs) > 1:
                raise SqlError("interrupted")
        return query(self, sql, params)

    monkeypatch.setattr(DatabaseHandle, "query", interrupted_after_its_first_run)
    out = tmp_path / "report.json"
    assert cli.main(eval_args(dataset, pred_path, db_root, out, "ex,ves")) == 0
    report = json.loads(out.read_text())
    assert report["count"] == 2
    assert report["ex"] == 1.0
    assert report["per_difficulty"]["b"]["ex"] == 1.0
    assert report["per_difficulty"]["b"]["ves"] == 0.0
    assert report["per_difficulty"]["a"]["ves"] > 0.0
    assert report["warnings"] == ["2: VES timing run failed (interrupted); VES 0"]
    assert len(runs) == 2


def test_eval_f1_only_omits_execution_sections(tmp_path, db_root, capsys):
    dataset = write_dataset(tmp_path / "eval.json", EVAL_DATASET)
    preds = {str(r["question_id"]): r["SQL"] for r in EVAL_DATASET}
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps(preds), encoding="utf-8")
    out = tmp_path / "report.json"
    rc = cli.main(eval_args(dataset, pred_path, db_root, out, metrics="f1"))
    assert rc == 0
    report = json.loads(out.read_text())
    assert "ex" not in report
    assert "ves" not in report
    assert report["schema_f1"]["f1"] == 1.0
    lines = capsys.readouterr().out.splitlines()
    assert not any(line.startswith("EX") for line in lines)
    assert not any(line.startswith("VES") for line in lines)


@pytest.mark.parametrize(
    "metrics, bad", [("ex,bleu", "['bleu']"), ("", "[]"), (" , ", "[]")]
)
def test_eval_rejects_unknown_or_empty_metrics(tmp_path, db_root, capsys, metrics, bad):
    dataset = write_dataset(tmp_path / "eval.json", EVAL_DATASET)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({}), encoding="utf-8")
    out = tmp_path / "report.json"
    rc = cli.main(eval_args(dataset, pred_path, db_root, out, metrics=metrics))
    assert rc == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unknown metrics {bad}; choose from ex, ves, f1, overlap\n" in captured.err


@pytest.mark.parametrize("iterations, metrics", [("0", "ex"), ("2", "ex,ves")])
def test_eval_rejects_iterations_below_three_before_any_work(
    tmp_path, db_root, monkeypatch, capsys, iterations, metrics
):
    calls = []
    monkeypatch.setattr(cli, "evaluate", lambda *args, **kwargs: calls.append(args))
    dataset = write_dataset(tmp_path / "eval.json", EVAL_DATASET)
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps({}), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = eval_args(dataset, pred_path, db_root, out, metrics=metrics)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--iterations", iterations])
    assert exc.value.code == 2
    assert calls == []
    assert not out.exists()
    assert f"argument --iterations: must be at least 3, got {iterations}" in capsys.readouterr().err


def test_eval_missing_dataset_is_a_hard_failure(tmp_path, db_root):
    rc = cli.main(
        eval_args(tmp_path / "nope.json", tmp_path / "nope2.json", db_root, tmp_path / "r.json")
    )
    assert rc != 0


@pytest.mark.parametrize("command", ["run", "eval"])
def test_a_repeated_question_id_is_refused_before_any_work(
    tmp_path, db_root, monkeypatch, capsys, command
):
    calls = []
    monkeypatch.setattr(cli, "run_question", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "evaluate", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "out"
    if command == "run":
        # the same explicit id twice
        dataset = write_dataset(tmp_path / "dataset.json", [DATASET[0], DATASET[1], DATASET[0]])
        script = build_happy_script().write(tmp_path / "script.json")
        argv = run_args(dataset, db_root, out, script, extra=("--jobs", "4"))
        qid, rows = "'11'", "0 and 2"
    else:
        # an explicit id equal to a later row's index
        unnamed = {k: v for k, v in EVAL_DATASET[1].items() if k != "question_id"}
        dataset = write_dataset(tmp_path / "eval.json", [EVAL_DATASET[0], unnamed])
        pred_path = tmp_path / "preds.json"
        pred_path.write_text(json.dumps({}), encoding="utf-8")
        argv = eval_args(dataset, pred_path, db_root, out)
        qid, rows = "'1'", "0 and 1"
    assert cli.main(argv) == 2
    assert calls == []
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dataset {dataset}: question id {qid} is on rows {rows}\n"


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def build_two_database_script():
    """Six questions over both fixture databases that repeat the memoized
    probes (uniq_value, if_null, info, sim_value_in) and draw random seeds."""
    b = ScriptBuilder()
    # 21: Which schools serve grade K?
    b.segmentation(["Which schools", "serve grade K"])
    b.turn(tool("sim_value_in", table="frpm", column="School Type", query_text="special"))
    b.stop_clause()
    b.turn(tool("uniq_value", table="frpm", column="Low Grade"))
    b.turn(tool("info", table="frpm", column="Low Grade"))
    b.stop_clause()
    b.harvest([])
    b.evidence(Q1_EVIDENCE)
    # 22: How many schools are in Fresno?
    b.segmentation(["How many schools", "are in Fresno"])
    b.turn(tool("if_null", table="schools", column="Phone"))
    b.turn(tool("random", table="schools", n=3))
    b.stop_clause()
    b.turn(tool("sim_value_in", table="schools", column="City", query_text="fresno"))
    b.turn(tool("uniq_value", table="schools", column="City"))
    b.stop_clause()
    b.harvest([])
    b.evidence(Q2_EVIDENCE)
    # 23: List magnet schools
    b.segmentation(["List magnet schools"])
    b.turn(tool("info", table="schools"))
    b.turn(tool("if_null", table="schools", column="Phone"))
    b.turn(tool("uniq_value", table="frpm", column="Low Grade"))
    b.stop_clause()
    b.harvest([])
    b.evidence(Q3_EVIDENCE)
    # 31: Which customers ordered in the west?
    b.segmentation(["Which customers ordered", "in the west"])
    b.turn(tool("uniq_value", table="orders", column="customer"))
    b.turn(tool("sim_value_in", table="orders", column="region", query_text="West"))
    b.stop_clause()
    b.turn(tool("if_null", table="orders", column="amount"))
    b.stop_clause()
    b.harvest([])
    b.evidence("West refers to region = 'west'.")
    # 32: What is the total amount per region?
    b.segmentation(["What is the total amount", "per region"])
    b.turn(tool("info", table="orders"))
    b.turn(tool("random", table="orders", n=4))
    b.stop_clause()
    b.turn(tool("uniq_value", table="orders", column="nope"))
    b.stop_clause()
    b.harvest([])
    b.evidence("Amount is stored in `amount`.")
    # 33: How often did acme order?
    b.segmentation(["How often did acme order?"])
    b.turn(tool("info", table="pad", column="x"))
    b.turn(tool("if_null", table="orders", column="qty"))
    b.turn(tool("sim_value_in", table="orders", column="customer", query_text="acme corp"))
    b.stop_clause()
    b.harvest([])
    b.evidence("Acme refers to customer = 'acme'.")
    return b


TWO_DATABASE_DATASET = [
    {"question_id": 21, "db_id": "california_schools", "question": "Which schools serve grade K?"},
    {"question_id": 22, "db_id": "california_schools", "question": "How many schools are in Fresno?"},
    {"question_id": 23, "db_id": "california_schools", "question": "List magnet schools"},
    {"question_id": 31, "db_id": "eval_fixture", "question": "Which customers ordered in the west?"},
    {"question_id": 32, "db_id": "eval_fixture", "question": "What is the total amount per region?"},
    {"question_id": 33, "db_id": "eval_fixture", "question": "How often did acme order?"},
]


def _tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_jobs_four_and_jobs_one_write_identical_outputs(tmp_path, db_root, monkeypatch):
    dataset = write_dataset(tmp_path / "dataset.json", TWO_DATABASE_DATASET)
    tape = []

    class Taping(cli.ScriptedSession):
        def chat(self, request):
            response = super().chat(request)
            tape.append((fingerprint(request), response))
            return response

    sequence = build_two_database_script().write(tmp_path / "sequence.json")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "ScriptedSession", Taping)
        assert cli.main(run_args(dataset, db_root, tmp_path / "out_seq", sequence)) == 0
    by_fingerprint = {}
    for fp, response in tape:
        by_fingerprint.setdefault(fp, []).append(response)
    script = tmp_path / "by_fingerprint.json"
    script.write_text(json.dumps({"by_fingerprint": by_fingerprint}), encoding="utf-8")

    assert cli.main(run_args(dataset, db_root, tmp_path / "out_1", script)) == 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        rc = cli.main(run_args(dataset, db_root, tmp_path / "out_4", script, ("--jobs", "4")))
    finally:
        sys.setswitchinterval(interval)
    assert rc == 0
    one, four = _tree(tmp_path / "out_1"), _tree(tmp_path / "out_4")
    assert len(one) == 2 * len(TWO_DATABASE_DATASET) + 2
    assert one == four
    assert one == _tree(tmp_path / "out_seq")


# --- one JSON layout ---


def canonical(text: str) -> str:
    """Oracle: the stdlib's text for the same JSON value."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_every_json_file_diver_writes_is_the_stdlib_layout(tmp_path, db_root, capsys):
    from test_golden_eval import render
    from test_golden_trace import GOLDEN, QUESTION, build_script

    # the golden scenario, run through the command line
    row = {"question_id": "golden", "db_id": "california_schools", "question": QUESTION}
    dataset = write_dataset(tmp_path / "dataset.json", [row])
    script = tmp_path / "script.json"
    script.write_text(json.dumps(build_script()), encoding="utf-8")
    out = tmp_path / "out"
    extra = ("--max-turns", "40", "--candidates", "1", "--seed", "3")
    assert cli.main(run_args(dataset, db_root, out, script, extra)) == 0
    assert (out / "traces" / "golden.json").read_bytes() == GOLDEN.read_bytes()
    written = {path.relative_to(out).as_posix(): path.read_text("utf-8") for path in out.rglob("*.json")}
    assert sorted(written) == [
        "evidence/golden.json", "evidence_concise.json", "run_report.json", "traces/golden.json"
    ]

    work = tmp_path / "eval"
    work.mkdir()
    written["eval --out"] = render(db_root, work, capsys)[2].decode("utf-8")
    assert cli.main(["trace-stats", "--trace-dir", str(out / "traces"), "--json"]) == 0
    written["trace-stats --json"] = capsys.readouterr().out
    for name, text in written.items():
        assert text == canonical(text), name
