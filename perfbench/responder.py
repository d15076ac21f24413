"""Deterministic stand-in for the chat model, answering from request content.

The stage comes from the system prompt, and the clause and turn from the
workspace JSON inside the request, so an answer never depends on where the
request falls in the sequence. A change to how many requests the pipeline
makes, or how it lays out prompts, is therefore measured rather than
breaking the replay.

`record()` runs the responder once through `pipeline.run_question` and
keeps every answer under its request fingerprint; the timed `diver run
--mock-llm` then replays that `by_fingerprint` script.
"""

from __future__ import annotations

import json
from pathlib import Path

from diver import prompts
from diver.cotf import Question, serialize
from diver.database import db_path_for, description_dir_for
from diver.embedding import LexicalEmbedder
from diver.llm import fingerprint
from diver.pipeline import PipelineConfig, run_question

STAGES = (
    "segment",
    "lookup_thought",
    "lookup_tool",
    "repair",
    "harvest",
    "evidence_long",
    "evidence_concise",
    "merge",
)

_LOOKUP_PREFIX = prompts.LOOKUP_SYSTEM.split("{guidance}")[0]
_FIXED_SYSTEMS = {
    prompts.SEGMENTATION_SYSTEM: "segment",
    prompts.HARVEST_SYSTEM: "harvest",
    prompts.EVIDENCE_LONG_SYSTEM: "evidence_long",
    prompts.EVIDENCE_CONCISE_SYSTEM: "evidence_concise",
    prompts.MERGE_SYSTEM: "merge",
}

# claims no workspace can back; the grounding filter must drop each of them
UNGROUNDED_SENTENCE = "Older entries were moved to `phantom_archive` under 'Zzyzx Holdings'."
UNGROUNDED_LINKINGS = (
    {"kind": "value", "table": "phantom_archive", "column": "holder",
     "literal": "Zzyzx Holdings", "rationale": "seen in an archive", "source_turn": [0, 0]},
    {"kind": "schema", "table": "ghost_ledger", "column": None, "literal": None,
     "rationale": "probably relevant", "source_turn": [0, 0]},
)
MAX_LINKINGS = 6


def stage_of(request) -> str:
    """Which pipeline stage sent this request."""
    system = request.messages[0].content
    if system in _FIXED_SYSTEMS:
        return _FIXED_SYSTEMS[system]
    if system.startswith(_LOOKUP_PREFIX):
        if request.response_format == "free_text":
            return "lookup_thought"
        answers = sum(1 for m in request.messages if m.role == "assistant")
        return "repair" if answers > 1 else "lookup_tool"
    raise ValueError(f"request from an unknown stage: {system[:60]!r}")


def _decode_workspace(text: str) -> dict | None:
    decoder = json.JSONDecoder()
    pos = text.find("{")
    while pos != -1:
        try:
            obj, _ = decoder.raw_decode(text, pos)
        except ValueError:
            obj = None
        if isinstance(obj, dict) and "question" in obj and "turns" in obj:
            return obj
        pos = text.find("{", pos + 1)
    return None


def find_workspace(messages) -> dict:
    """The workspace of the question being asked about: the last user
    message that carries one (earlier ones may be few-shot examples)."""
    for message in reversed(messages):
        if message.role == "user":
            ws = _decode_workspace(message.content)
            if ws is not None:
                return ws
    raise ValueError("request carries no workspace")


def current_turn(ws: dict) -> tuple[int, int]:
    """(clause, turn) the lookup loop is on: the first clause that has
    neither stopped nor reached its cap."""
    for ci, column in enumerate(ws["turns"]):
        if column and column[-1]["tool_call"]["tool"] == "none":
            continue
        if len(column) >= ws["max_turns"]:
            continue
        return ci, len(column)
    raise ValueError("workspace has no open clause")


_STOP = {"thought": "Nothing is left to verify.", "call": {"tool": "none", "args": {}}}


class Responder:
    """Answers every stage from a question's plan (see workloads.py)."""

    def __init__(self, plans: dict[str, dict]):
        self.plans = plans

    def chat(self, request) -> str:
        stage = stage_of(request)
        if stage == "segment":
            return self._segment(request)
        if stage == "merge":
            return self._merge(request)
        ws = find_workspace(request.messages)
        if stage == "harvest":
            return json.dumps(self._harvest(ws))
        if stage.startswith("evidence_"):
            return self._evidence(ws, stage == "evidence_long")
        return self._lookup(stage, ws)

    def _segment(self, request) -> str:
        content = request.messages[-1].content
        texts = [t for t in self.plans if t in content]
        if not texts:
            raise ValueError("segmentation request for an unknown question")
        return json.dumps(self.plans[max(texts, key=len)]["proposals"])

    def _lookup(self, stage: str, ws: dict) -> str:
        plan = self.plans[ws["question"]["text"]]
        ci, ti = current_turn(ws)
        steps = plan["clauses"][ci] if ci < len(plan["clauses"]) else []
        step = steps[ti] if ti < len(steps) else _STOP
        if stage == "lookup_thought":
            return step["thought"]
        malformed = step.get("malformed", 0)
        tool = step["call"]["tool"]
        if stage == "lookup_tool" and malformed >= 1:
            return f"I will call {tool} next, on the table named in my thought."
        if stage == "repair" and malformed >= 2:
            return '{"tool": "' + tool + '", "args": {"table": '
        return json.dumps(step["call"])

    def _harvest(self, ws: dict) -> list[dict]:
        out: list[dict] = []
        for ci, column in enumerate(ws["turns"]):
            for ti, turn in enumerate(column):
                call, feedback = turn["tool_call"], turn["feedback"]
                args = call["args"]
                if feedback["kind"] != "standard" or "column" not in args:
                    continue
                if call["tool"] == "value_in" and feedback["result"].get("exists"):
                    out.append({"kind": "value", "table": args["table"], "column": args["column"],
                                "literal": args["value"], "rationale": "value observed",
                                "source_turn": [ci, ti]})
                else:
                    # cites the clause's first turn; the harvest re-points it
                    out.append({"kind": "schema", "table": args["table"], "column": args["column"],
                                "literal": None, "rationale": "column probed",
                                "source_turn": [ci, 0]})
        return out[:MAX_LINKINGS] + [dict(link) for link in UNGROUNDED_LINKINGS]

    def _evidence(self, ws: dict, long: bool) -> str:
        claims = []
        for link in ws["verified"][:MAX_LINKINGS]:
            target = f"`{link['table']}`"
            if link["column"]:
                target += f".`{link['column']}`"
            if link["kind"] == "value":
                target += f" = '{link['literal']}'"
            claims.append(target)
        if not claims:
            return "No probe verified a usable linking for this question."
        if long:
            body = " ".join(
                f"Step {i + 1} of the question is answered by {claim}, as the probes confirmed."
                for i, claim in enumerate(claims)
            )
            return (
                f"The question needs {len(claims)} verified facts from the database. "
                f"{body} {UNGROUNDED_SENTENCE}"
            )
        return "; ".join(f"{claim} is used" for claim in claims) + ". " + UNGROUNDED_SENTENCE

    def _merge(self, request) -> str:
        content = request.messages[-1].content
        candidates, _ = json.JSONDecoder().raw_decode(content, content.index("["))
        unique = list(dict.fromkeys(c.strip() for c in candidates if c.strip()))
        return " ".join(unique + [UNGROUNDED_SENTENCE])


class RecordingClient:
    """Chat client that answers with the responder and keeps each answer
    under its request fingerprint."""

    def __init__(self, responder: Responder):
        self.responder = responder
        self.by_fingerprint: dict[str, list[str]] = {}

    def chat(self, request) -> str:
        text = self.responder.chat(request)
        self.by_fingerprint.setdefault(fingerprint(request), []).append(text)
        return text


def question_of(row: dict) -> Question:
    """The Question `diver run` builds from a dataset row."""
    return Question(
        question_id=str(row["question_id"]),
        db_id=row["db_id"],
        text=row["question"],
        gold_sql=row.get("SQL"),
        expert_evidence=row.get("evidence"),
        difficulty=row.get("difficulty"),
    )


def record(dataset: list[dict], db_root: Path, plans: dict, style: str) -> dict:
    """Run every question once with the responder. Returns the replay script
    plus the trace bytes and evidence texts the replay must reproduce."""
    client = RecordingClient(Responder(plans))
    embedder = LexicalEmbedder()
    config = PipelineConfig(style=style)
    traces, evidence = {}, {}
    for row in dataset:
        question = question_of(row)
        desc = description_dir_for(db_root, question.db_id)
        doc, evidences = run_question(
            question,
            db_path_for(db_root, question.db_id),
            desc if desc.is_dir() else None,
            client,
            embedder,
            config,
        )
        traces[question.question_id] = serialize(doc).decode("utf-8")
        evidence[question.question_id] = {s: ev.text for s, ev in evidences.items()}
    return {
        "script": {"by_fingerprint": client.by_fingerprint},
        "traces": traces,
        "evidence": evidence,
    }
