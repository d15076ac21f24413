"""Command-line surface: pipeline runs, evaluation, trace statistics.

Every human-readable output has a JSON twin: run writes run_report.json,
eval writes the report with --out, trace-stats prints JSON with --json. A
command refuses bad input by raising DiverError; main alone turns that into
`error: <message>` on stderr and exit status 2. Each JSON file a command
reads (dataset, predictions, replay script, trace, sidecar) goes through cotf.load.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from pathlib import Path

from .cotf import (
    DEFAULT_MAX_TURNS, FEEDBACK_KINDS, Question, deserialize, dumps, is_utf8, load, serialize
)
from .database import db_path_for, description_dir_for
from .embedding import LexicalEmbedder, RemoteEmbedder
from .errors import DiverError
from .eval import VES_MIN_ITERATIONS, EvalSample, evaluate, format_report
from .evidence import STYLES
from .llm import LiveClient, ScriptedSession
from .pipeline import DEFAULT_CANDIDATES, PipelineConfig, run_question
from .toolbox import TOOL_NAMES

log = logging.getLogger(__name__)


def _row(i: int, row) -> tuple[str, dict | str]:
    """(question id, row), or (i, the text that refuses the row)."""
    if not isinstance(row, dict):
        return str(i), f"row {i} is not a JSON object"
    qid = row.get("question_id")
    if qid is None:  # absent or null: the row's index
        qid = i
    if isinstance(qid, bool) or not isinstance(qid, (str, int)):
        return str(i), f"row {i} question_id must be a string or an integer"
    qid = str(qid)
    # a JSON escape such as "\ud800" gives an id no file name can hold
    return (qid, row) if is_utf8(qid) else (str(i), f"row {i} question_id is not valid UTF-8")


def _load_dataset(path: str) -> list[tuple[str, dict | str]]:
    """The dataset's rows in file order, each with its question id: the row's
    question_id, else (absent or null) its index in the list. A row that is
    not a JSON object, or whose question_id is neither a string nor an
    integer or is not valid UTF-8, comes as the text that refuses it, and
    its id is its index. A question id that two rows share is refused."""
    rows = load(path, "dataset")
    if not isinstance(rows, list):
        raise DiverError(f"dataset {path} must be a JSON list")
    ordered = [_row(i, row) for i, row in enumerate(rows)]
    first_row: dict[str, int] = {}
    for i, (qid, _) in enumerate(ordered):
        first = first_row.setdefault(qid, i)
        if first != i:
            raise DiverError(f"dataset {path}: question id {qid!r} is on rows {first} and {i}")
    return ordered


def _build_llm(args):
    if args.mock_llm:
        session = ScriptedSession.from_file(args.mock_llm)
        return session, session.is_sequential
    if not args.llm_endpoint:
        raise DiverError("need --mock-llm SCRIPT or --llm-endpoint URL")
    return LiveClient(base_url=args.llm_endpoint, model=args.llm_model), False


def _build_embedder(args):
    if args.embedder_endpoint:
        return RemoteEmbedder(endpoint=args.embedder_endpoint)
    return LexicalEmbedder()


# --- run ---


def _read_sidecar(path: Path) -> dict:
    """A question's {style: text} evidence sidecar; {} when it is missing,
    unreadable, not UTF-8, nested too deeply or not a JSON object."""
    try:
        texts = load(path, "evidence")
    except DiverError:
        return {}
    return texts if isinstance(texts, dict) else {}


@contextmanager
def _writing(path: Path):
    """Turn an OSError while writing path into DiverError."""
    try:
        yield
    except OSError as exc:
        raise DiverError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_atomic(path: Path, data: bytes) -> None:
    """Write through a temp file in the same directory, so that a killed run
    leaves the old file or the new one, never a part of one. A failed write
    takes its temp file with it."""
    tmp = path.with_name(path.name + ".tmp")
    with _writing(path):
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            with suppress(OSError):
                tmp.unlink()
            raise


def _write_json(path: Path, payload) -> None:
    _write_atomic(path, (dumps(payload) + "\n").encode("utf-8"))


def _already_done(trace_dir: Path, evidence_dir: Path, qid: str, styles) -> bool:
    """True when the question's trace deserializes and its sidecar holds
    every style."""
    try:
        deserialize(load(trace_dir / f"{qid}.json", "trace"))
    except DiverError:
        return False
    texts = _read_sidecar(evidence_dir / f"{qid}.json")
    return all(s in texts for s in styles)


def _run_one(row: dict, qid: str, args, llm, embedder, config, trace_dir, evidence_dir):
    question = Question(question_id=qid, db_id=row.get("db_id"), text=row.get("question"))
    doc, evidences = run_question(
        question,
        db_path_for(args.db_root, question.db_id),
        description_dir_for(args.db_root, question.db_id),
        llm,
        embedder,
        config,
    )
    # the sidecar holds this trace's evidence only; removed first, so a run
    # killed between the two writes leaves the question to be redone
    sidecar = evidence_dir / f"{qid}.json"
    with _writing(sidecar):
        sidecar.unlink(missing_ok=True)
    _write_atomic(trace_dir / f"{qid}.json", serialize(doc))
    texts = {style: ev.text for style, ev in evidences.items()}
    _write_json(sidecar, texts)


def cmd_run(args) -> int:
    ordered = _load_dataset(args.dataset)
    llm, sequential = _build_llm(args)
    embedder = _build_embedder(args)

    jobs = args.jobs
    if sequential and jobs != 1:
        log.warning("sequence replay scripts run single-threaded; ignoring --jobs %d", jobs)
        jobs = 1

    out_dir = Path(args.out)
    trace_dir = out_dir / "traces"
    evidence_dir = out_dir / "evidence"
    for directory in (trace_dir, evidence_dir):
        with _writing(directory):
            directory.mkdir(parents=True, exist_ok=True)

    config = PipelineConfig(
        style=args.style,
        max_turns=args.max_turns,
        candidates=args.candidates,
        seed=args.seed,
    )
    styles = config.styles()

    completed: list[str] = []
    skipped: list[str] = []
    failed: dict[str, str] = {}

    pending = []
    for qid, row in ordered:
        if isinstance(row, str):
            failed[qid] = row
        elif any(sep and sep in qid for sep in (os.sep, os.altsep, "\0")):
            # the id names the question's trace and sidecar files in out
            failed[qid] = f"question id {qid!r} cannot be a file name"
        elif not args.force and _already_done(trace_dir, evidence_dir, qid, styles):
            skipped.append(qid)
        else:
            pending.append((qid, row))

    def work(item) -> tuple[str, str | None]:
        qid, row = item
        try:
            _run_one(row, qid, args, llm, embedder, config, trace_dir, evidence_dir)
            return qid, None
        except DiverError as exc:
            return qid, str(exc)
        except Exception as exc:  # one bad question must not sink the batch
            log.exception("question %s failed unexpectedly", qid)
            return qid, f"unexpected: {exc!r}"

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(work, pending))
    for qid, error in results:
        if error is None:
            completed.append(qid)
        else:
            failed[qid] = error

    # each aggregate is its style over every sidecar, whichever run or dataset
    # wrote it, rebuilt for the styles asked for and those already on file
    sidecars = {
        path.name.removesuffix(".json"): _read_sidecar(path)
        for path in evidence_dir.glob("*.json")
    }
    for style in STYLES:
        aggregate = out_dir / f"evidence_{style}.json"
        if style in styles or aggregate.exists():
            mapping = {qid: texts[style] for qid, texts in sidecars.items() if style in texts}
            _write_json(aggregate, mapping)

    report = {
        "completed": completed,
        "skipped": skipped,
        "failed": failed,
        "styles": list(styles),
    }
    _write_json(out_dir / "run_report.json", report)

    for qid, _ in ordered:
        if qid in failed:
            print(f"{qid}\tfailed\t{failed[qid]}")
        elif qid in skipped:
            print(f"{qid}\tskipped")
        else:
            print(f"{qid}\tok")
    print(f"completed {len(completed)}  skipped {len(skipped)}  failed {len(failed)}")
    return 1 if failed else 0


# --- eval ---


def _optional_text(row: dict, key: str, qid: str, warnings: list[str]) -> str | None:
    """The row's text under key; None when the key is absent or null, and
    None with a warning when it holds anything but a valid UTF-8 string (a
    difficulty names a section of the report, which must encode)."""
    value = row.get(key)
    if value is None or isinstance(value, str) and is_utf8(value):
        return value
    what = "valid UTF-8" if isinstance(value, str) else "a string"
    warnings.append(f"{qid}: {key} is not {what}; ignored")
    return None


def cmd_eval(args) -> int:
    rows = _load_dataset(args.dataset)
    predictions = load(args.predictions, "predictions")
    if not isinstance(predictions, dict):
        raise DiverError(f"predictions {args.predictions} must be a JSON object")

    samples = []
    warnings: list[str] = []
    for qid, row in rows:
        if isinstance(row, str):
            warnings.append(f"{qid}: {row}; skipped")
            continue
        gold = row.get("SQL")
        db_id = row.get("db_id")
        if not (isinstance(gold, str) and gold and isinstance(db_id, str) and db_id):
            warnings.append(f"{qid}: lacks SQL or db_id; skipped")
            continue
        if not is_utf8(db_id):  # it would name a path no file system takes
            warnings.append(f"{qid}: db_id is not valid UTF-8; skipped")
            continue
        pred = predictions.get(qid)
        samples.append(
            EvalSample(
                question_id=qid,
                db_path=db_path_for(args.db_root, db_id),
                gold_sql=gold,
                pred_sql=pred if isinstance(pred, str) else None,
                difficulty=_optional_text(row, "difficulty", qid, warnings),
                evidence_text=_optional_text(row, "evidence", qid, warnings),
            )
        )
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    report = evaluate(samples, metrics=metrics, iterations=args.iterations)
    report["warnings"] = warnings + report["warnings"]
    print(dumps(report) + "\n" if args.json else format_report(report), end="")
    if args.out:
        _write_json(Path(args.out), report)
    return 0


# --- trace-stats ---


def cmd_trace_stats(args) -> int:
    trace_dir = Path(args.trace_dir)
    if not trace_dir.is_dir():
        raise DiverError(f"{trace_dir} is not a directory")
    tool_counts = {name: 0 for name in TOOL_NAMES}
    feedback_counts = {kind: 0 for kind in FEEDBACK_KINDS}
    traces = clauses = turns = 0
    skipped: list[str] = []
    for path in sorted(trace_dir.glob("*.json")):
        try:
            doc = deserialize(load(path, "trace"))
        except DiverError as exc:
            log.warning("skipping corrupt trace %s: %s", path.name, exc)
            skipped.append(path.name)
            continue
        traces += 1
        clauses += len(doc.clauses)
        for column in doc.turns:
            turns += len(column)
            for turn in column:
                tool = turn.tool_call.tool
                tool_counts[tool] = tool_counts.get(tool, 0) + 1
                feedback_counts[turn.feedback.kind] += 1
    stats = {
        "traces": traces,
        "clauses": clauses,
        "turns": turns,
        "mean_turns_per_clause": turns / clauses if clauses else 0.0,
        "tool_counts": tool_counts,
        "feedback_counts": feedback_counts,
        "skipped": skipped,
    }
    if args.json:
        print(dumps(stats))
    else:
        print(f"{'traces':<22}{traces}")
        print(f"{'clauses':<22}{clauses}")
        print(f"{'turns':<22}{turns}")
        print(f"{'mean turns/clause':<22}{stats['mean_turns_per_clause']:.3f}")
        for kind in FEEDBACK_KINDS:
            print(f"{'feedback ' + kind:<22}{feedback_counts[kind]}")
        for name in sorted(tool_counts):
            print(f"{'tool ' + name:<22}{tool_counts[name]}")
        if skipped:
            print(f"{'skipped':<22}{', '.join(skipped)}")
    return 0


# --- entry point ---


def at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diver",
        description="Generate and evaluate database evidence for natural-language questions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the evidence pipeline over a dataset")
    run.add_argument("--dataset", required=True, help="dev-set JSON file")
    run.add_argument("--db-root", required=True, help="directory of <db_id>/<db_id>.sqlite")
    run.add_argument("--out", required=True, help="output directory")
    # the default is the last style, the one-line form of BIRD's evidence
    run.add_argument("--style", choices=[*STYLES, "both"], default=[*STYLES][-1])
    run.add_argument("--max-turns", type=at_least(1), default=DEFAULT_MAX_TURNS)
    run.add_argument("--candidates", type=at_least(1), default=DEFAULT_CANDIDATES)
    run.add_argument("--mock-llm", help="replay script JSON instead of a live model")
    run.add_argument("--llm-endpoint", help="chat-completions base URL")
    run.add_argument("--llm-model", default="gpt-4o")
    run.add_argument("--embedder-endpoint", help="remote embedder URL instead of the lexical one")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--jobs", type=at_least(1), default=1)
    run.add_argument("--force", action="store_true", help="redo finished questions")

    ev = sub.add_parser("eval", help="score predictions against gold SQL")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--predictions", required=True, help="JSON map question_id -> SQL")
    ev.add_argument("--db-root", required=True)
    ev.add_argument("--metrics", default="ex,ves,f1")
    ev.add_argument("--iterations", type=at_least(VES_MIN_ITERATIONS), default=10)
    ev.add_argument("--out", help="write the JSON report here")
    ev.add_argument("--json", action="store_true", help="print JSON instead of text")

    stats = sub.add_parser("trace-stats", help="summarize saved traces")
    stats.add_argument("--trace-dir", required=True)
    stats.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    command = {"run": cmd_run, "eval": cmd_eval, "trace-stats": cmd_trace_stats}[args.command]
    try:
        return command(args)
    except DiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
