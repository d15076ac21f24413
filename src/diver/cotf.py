"""Chain-of-thoughts-and-facts workspace.

A document holds one question, its clause partition, one turn column per
clause (thought, tool call, feedback), and the verified linkings harvested at
the end. Turns and linkings enter it only through append_turn and
add_verified, the constructor's too, so a trace read back meets the probing
loop's checks. dumps writes the one JSON layout of every file and prompt body
diver writes (sorted keys, UTF-8, two-space indent); serialize writes the
document in it, so replayed runs are byte-identical. load is the one reader
of every JSON file diver reads; deserialize also takes its decoded value.

The workspace is re-serialized on every probing round and by every evidence
candidate. Each record (Question, Clause, Turn, VerifiedLinking) keeps the
text _encode wrote for it the first time, and a turn collects its facts once
and keeps them. So a record never changes once it is in a document: all four
are frozen. A turn's ToolCall and ToolFeedback are not (the toolbox records a
drawn random seed into the call's args before the turn is built), and nothing
in this package assigns to them once their turn is built.

Tool names are not validated here: a call keeps whatever name the model gave,
and the tool table toolbox.TOOLS judges it at dispatch time. The only tool
this module knows is the stop signal "none", which ends a clause. What a
standard turn affirms (Turn.facts, and Turn.value_facts, which pairs each
value with its table and column; a value as its fact_text) is read from
argument names and result keys, not the tool table, which imports this
module. Turn.affirms is the one rule for a verified linking: add_verified
refuses a linking its source turn does not affirm, and the harvest asks
CoTFDocument.source_of for a turn that does.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field, fields, is_dataclass
from functools import cached_property
from pathlib import Path
from typing import Any

from .errors import DiverError, SchemaViolation
from .tokens import tokenize

# json.dumps(text, ensure_ascii=False) of one string
_json_string = json.encoder.encode_basestring

SCHEMA_VERSION = 2
DEFAULT_MAX_TURNS = 5  # probing turns per clause unless a run sets its own

FEEDBACK_KINDS = ("standard", "corrective", "guiding")
LINKING_KINDS = ("value", "schema", "function")

Scalar = str | int | float | bool | None


def _is_scalar(v: Any) -> bool:
    return v is None or isinstance(v, (str, int, float, bool))


def _is_int(v: Any) -> bool:
    """An integer that is not a bool: true and false are no JSON integers."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_utf8(text: str) -> bool:
    """False for a string holding a lone surrogate: a JSON escape such as
    "\\ud800" decodes to one, and UTF-8, which SQLite and the trace need,
    cannot encode it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def fact_text(value: Any) -> str | None:
    """The text a value grounds as: a string itself, a number its str; None
    for a bool, null or a container."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    return None


def jsonify(value: Any) -> Any:
    """Normalize a payload to JSON-native types (tuples become lists).

    Raises SchemaViolation on anything strict JSON could not represent, a
    non-finite float included. Used at feedback construction time so
    round-tripping a document through the codec is structurally lossless.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaViolation(f"payload value must be a finite number, got {value!r}")
    if _is_scalar(value):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise SchemaViolation(f"payload keys must be strings, got {k!r}")
            out[k] = jsonify(v)
        return out
    raise SchemaViolation(f"payload value is not JSON-representable: {value!r}")


@dataclass(frozen=True)
class Question:
    """What the pipeline is asked: no dataset answer (gold SQL, expert
    evidence, difficulty) belongs in the workspace the model reads."""

    question_id: str
    db_id: str
    text: str
    # accepted and dropped until perfbench's responder stops passing them
    gold_sql: InitVar[str | None] = None
    expert_evidence: InitVar[str | None] = None
    difficulty: InitVar[str | None] = None

    def __post_init__(self, *_answers: str | None) -> None:
        # the messages never echo a value: one that is no UTF-8 cannot be written
        for name in ("question_id", "db_id", "text"):
            v = getattr(self, name)
            if not isinstance(v, str) or not v:
                raise SchemaViolation(f"question.{name} must be a non-empty string")
            if not is_utf8(v):
                raise SchemaViolation(f"question.{name} is not valid UTF-8")
        if not tokenize(self.text):
            raise SchemaViolation("question.text has no tokens")


@dataclass(frozen=True)
class Clause:
    index: int
    text: str
    token_span: tuple[int, int]  # half-open token indices into the question

    def __post_init__(self) -> None:
        if not _is_int(self.index) or self.index < 0:
            raise SchemaViolation("clause.index must be a non-negative integer")
        if not isinstance(self.text, str) or not self.text:
            raise SchemaViolation("clause.text must be a non-empty string")
        span = self.token_span
        if (
            not isinstance(span, tuple)
            or len(span) != 2
            or not all(_is_int(x) for x in span)
            or not 0 <= span[0] < span[1]
        ):
            raise SchemaViolation(f"clause.token_span malformed: {span!r}")


@dataclass
class ToolCall:
    tool: str
    args: dict[str, Scalar]

    def __post_init__(self) -> None:
        # tool stays a plain string so hallucinated names can be recorded and
        # replayed; the tool table is checked at dispatch time
        if not isinstance(self.tool, str):
            raise SchemaViolation("tool_call.tool must be a string")
        if not is_utf8(self.tool):
            raise SchemaViolation(f"tool_call.tool is not valid UTF-8: {self.tool!r}")
        if not isinstance(self.args, dict):
            raise SchemaViolation("tool_call.args must be a mapping")
        self.args = dict(self.args)  # its own: a decoded trace's dict stays the caller's
        for k, v in self.args.items():
            if not isinstance(k, str):
                raise SchemaViolation("tool_call arg names must be strings")
            if not _is_scalar(v):
                raise SchemaViolation(f"tool_call arg {k!r} must be a scalar, got {v!r}")
            # json.loads takes NaN and Infinity, which strict JSON has no form for
            if isinstance(v, float) and not math.isfinite(v):
                raise SchemaViolation(f"tool_call arg {k!r} must be a finite number, got {v!r}")
            if not is_utf8(k) or isinstance(v, str) and not is_utf8(v):
                raise SchemaViolation(f"tool_call arg {k!r} is not valid UTF-8: {v!r}")


@dataclass
class ToolFeedback:
    kind: str
    message: str = ""
    result: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.kind not in FEEDBACK_KINDS:
            raise SchemaViolation(f"unknown feedback kind: {self.kind!r}")
        if not isinstance(self.message, str):
            raise SchemaViolation("feedback.message must be a string")
        if self.kind == "standard":
            if self.result is None:
                raise SchemaViolation("standard feedback requires a result payload")
            if not isinstance(self.result, dict):
                raise SchemaViolation("feedback.result must be a mapping")
            self.result = jsonify(self.result)
        else:
            if self.result is not None:
                raise SchemaViolation(f"{self.kind} feedback must not carry a result")
            if not self.message:
                raise SchemaViolation(f"{self.kind} feedback requires a message")

    @classmethod
    def standard(cls, result: dict[str, Any]) -> "ToolFeedback":
        return cls(kind="standard", result=result)

    @classmethod
    def corrective(cls, message: str) -> "ToolFeedback":
        return cls(kind="corrective", message=message, result=None)

    @classmethod
    def guiding(cls, message: str) -> "ToolFeedback":
        return cls(kind="guiding", message=message, result=None)


@dataclass(frozen=True)
class Turn:
    thought: str
    tool_call: ToolCall
    feedback: ToolFeedback

    def __post_init__(self) -> None:
        if not isinstance(self.thought, str):
            raise SchemaViolation("turn.thought must be a string")
        if not isinstance(self.tool_call, ToolCall):
            raise SchemaViolation("turn.tool_call must be a ToolCall")
        if not isinstance(self.feedback, ToolFeedback):
            raise SchemaViolation("turn.feedback must be a ToolFeedback")

    @cached_property
    def facts(self) -> frozenset[str]:
        """What a successful probe shows the database holds: every string and
        number in its result, its table and column arguments, which the engine
        resolved, and its value argument only when the result says the value
        exists. Empty for corrective and guiding turns."""
        if self.feedback.kind != "standard":
            return frozenset()
        args, result = self.tool_call.args, self.feedback.result
        affirmed = [args.get("table"), args.get("column"), result]
        if result.get("exists") is True:
            affirmed.append(args.get("value"))
        facts: set[str] = set()
        _collect_strings(affirmed, facts)
        return frozenset(facts)

    @cached_property
    def value_facts(self) -> frozenset[tuple[str, str, str]]:
        """The (table, column, value) triples a standard result affirms, names
        lowercased as the catalog compares them and each value as its text in
        facts: value_in's own arguments when the value exists, each match and
        sample under the call's table and column (sim_value_in, uniq_value),
        and each cell of a row under its column name (head, random)."""
        args, result = self.tool_call.args, self.feedback.result
        table, column = args.get("table"), args.get("column")
        if self.feedback.kind != "standard" or not isinstance(table, str):
            return frozenset()
        pairs = [(column, args.get("value"))] if result.get("exists") is True else []
        for key in ("matches", "samples"):
            items = result.get(key)
            if isinstance(items, list):
                pairs += [(column, i.get("value") if isinstance(i, dict) else i) for i in items]
        names, rows = result.get("columns"), result.get("rows")
        if isinstance(names, list) and isinstance(rows, list):
            pairs += [pair for row in rows if isinstance(row, list) for pair in zip(names, row)]
        table = table.lower()
        return frozenset(
            (table, name.lower(), text)
            for name, value in pairs
            if isinstance(name, str) and (text := fact_text(value)) is not None
        )

    def affirms(self, link: VerifiedLinking) -> bool:
        """The one rule for a verified linking: the feedback is standard, the
        facts hold every named field, and for a value linking the value facts
        hold the literal under its table and column."""
        if self.feedback.kind != "standard":
            return False
        if not {link.table, link.column, link.literal} - {None} <= self.facts:
            return False
        return link.kind != "value" or (
            (link.table.lower(), link.column.lower(), link.literal) in self.value_facts
        )


@dataclass(frozen=True)
class VerifiedLinking:
    kind: str
    table: str | None
    column: str | None
    literal: str | None
    rationale: str
    source_turn: tuple[int, int]  # (clause index, turn index) of the proof

    def __post_init__(self) -> None:
        if self.kind not in LINKING_KINDS:
            raise SchemaViolation(f"unknown linking kind: {self.kind!r}")
        for name in ("table", "column", "literal"):
            v = getattr(self, name)
            if v is not None and not isinstance(v, str):
                raise SchemaViolation(f"linking.{name} must be a string or null")
        if self.kind == "value" and not (self.table and self.column and self.literal is not None):
            raise SchemaViolation("value linking requires table, column and literal")
        if self.kind == "schema" and not self.table:
            raise SchemaViolation("schema linking requires a table")
        if not isinstance(self.rationale, str):
            raise SchemaViolation("linking.rationale must be a string")
        st = self.source_turn
        if (
            not isinstance(st, tuple)
            or len(st) != 2
            or not all(_is_int(x) and x >= 0 for x in st)
        ):
            raise SchemaViolation(f"linking.source_turn malformed: {st!r}")


@dataclass
class CoTFDocument:
    question: Question
    clauses: list[Clause]
    turns: list[list[Turn]] | None = None  # None: one empty column per clause
    verified: list[VerifiedLinking] = field(default_factory=list)
    max_turns: int = DEFAULT_MAX_TURNS

    def __post_init__(self) -> None:
        if not _is_int(self.max_turns) or self.max_turns < 1:
            raise SchemaViolation("max_turns must be a positive integer")
        if not self.clauses:
            raise SchemaViolation("document needs at least one clause")
        self._check_partition()
        # the given turns and linkings enter the way the probing loop adds them
        columns = [[] for _ in self.clauses] if self.turns is None else self.turns
        linkings = self.verified
        if len(columns) != len(self.clauses):
            raise SchemaViolation("turns must hold one list per clause")
        self.turns, self.verified = [[] for _ in self.clauses], []
        for ci, column in enumerate(columns):
            for turn in column:
                append_turn(self, ci, turn)
        for link in linkings:
            self.add_verified(link)

    def _check_partition(self) -> None:
        toks = tokenize(self.question.text)
        expect_start = 0
        for i, cl in enumerate(self.clauses):
            if cl.index != i:
                raise SchemaViolation(f"clause {i} carries index {cl.index}")
            s, e = cl.token_span
            if s != expect_start:
                raise SchemaViolation(
                    f"clause {i} span starts at token {s}, expected {expect_start}"
                )
            if e > len(toks):
                raise SchemaViolation(f"clause {i} span runs past the question")
            verbatim = self.question.text[toks[s].start : toks[e - 1].end]
            if cl.text != verbatim:
                raise SchemaViolation(
                    f"clause {i} text is not the verbatim token span: {cl.text!r} != {verbatim!r}"
                )
            expect_start = e
        if expect_start != len(toks):
            raise SchemaViolation("clauses do not cover the full question token sequence")

    def add_verified(self, link: VerifiedLinking) -> None:
        """Append a linking; SchemaViolation unless its source turn exists
        and affirms it (Turn.affirms)."""
        ci, ti = link.source_turn
        if ci >= len(self.clauses) or ti >= len(self.turns[ci]):
            raise SchemaViolation(f"linking source_turn {link.source_turn} does not exist")
        if not self.turns[ci][ti].affirms(link):
            raise SchemaViolation(f"linking source_turn {link.source_turn} does not affirm it")
        self.verified.append(link)

    def source_of(self, link: VerifiedLinking, first: tuple | None = None) -> tuple | None:
        """The (clause, turn) index of the turn that affirms link: first when
        that turn does, else the first that does in document order; None
        when no turn does. first is compared with ==, not checked."""
        turns = [((ci, ti), t) for ci, col in enumerate(self.turns) for ti, t in enumerate(col)]
        # sorted is stable: first, then the others in document order
        ordered = sorted(turns, key=lambda pair: pair[0] != first)
        return next((index for index, turn in ordered if turn.affirms(link)), None)


def _collect_strings(value: Any, into: set[str]) -> None:
    if isinstance(value, (dict, list, tuple)):
        for v in value.values() if isinstance(value, dict) else value:
            _collect_strings(v, into)
    elif (text := fact_text(value)) is not None:
        into.add(text)


def document_facts(doc: CoTFDocument) -> frozenset[str]:
    """Union of the facts of every turn in the document."""
    return frozenset().union(*(t.facts for column in doc.turns for t in column))


def _closed_reason(doc: CoTFDocument, clause_index: int) -> str | None:
    column = doc.turns[clause_index]
    if column and column[-1].tool_call.tool == "none":
        return f"clause {clause_index} already ended with none"
    if len(column) >= doc.max_turns:
        return f"clause {clause_index} already holds {doc.max_turns} turns"
    return None


def clause_open(doc: CoTFDocument, clause_index: int) -> bool:
    """True while the clause can take another turn: its last call is not the
    stop signal and it holds fewer than max_turns turns."""
    return _closed_reason(doc, clause_index) is None


def append_turn(doc: CoTFDocument, clause_index: int, turn: Turn) -> CoTFDocument:
    """Append a turn to one clause; SchemaViolation when it is no Turn, the
    index is out of range or the clause is no longer open."""
    if not isinstance(turn, Turn):
        raise SchemaViolation(f"a turn must be a Turn, got {type(turn).__name__}")
    if not 0 <= clause_index < len(doc.clauses):
        raise SchemaViolation(f"clause index {clause_index} out of range")
    reason = _closed_reason(doc, clause_index)
    if reason is not None:
        raise SchemaViolation(reason)
    doc.turns[clause_index].append(turn)
    return doc


# the records a document holds: each is frozen, so the text written for it at
# one depth stays its text there
_RECORDS = frozenset((Question, Clause, Turn, VerifiedLinking))


def _object(obj: Any) -> dict:
    """A dataclass as its wire object: its fields by name."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _encode(value: Any, newline: str, parts: list[str]) -> None:
    """Append value's dumps text to parts; newline is the line break and
    indent of the line value starts on. json.dumps indents in pure Python,
    one generator per container; this writes into one list, in under half
    the time, with json's own string escaper.

    A record keeps the text written for it at each depth in its instance
    dict, where cached_property would keep it, under the newline it was
    written at; so writing a document again copies its records' texts."""
    if type(value) in _RECORDS:
        text = value.__dict__.get(newline)
        if text is None:
            own: list[str] = []
            _encode(_object(value), newline, own)
            text = value.__dict__[newline] = "".join(own)
        parts.append(text)
    elif isinstance(value, str):
        parts.append(_json_string(value))
    elif value is None or isinstance(value, bool):
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, (int, float)):
        # json.dumps writes a number with its type's repr
        parts.append((float if isinstance(value, float) else int).__repr__(value))
    elif isinstance(value, (dict, list, tuple)):
        is_dict = isinstance(value, dict)
        if not value:
            parts.append("{}" if is_dict else "[]")
            return
        inner = newline + "  "
        parts.append("{" if is_dict else "[")
        for i, item in enumerate(sorted(value.items()) if is_dict else value):
            parts.append("," + inner if i else inner)
            if is_dict:
                key, item = item
                parts.append(_json_string(key) + ": ")
            _encode(item, inner, parts)
        parts.append(newline + ("}" if is_dict else "]"))
    elif is_dataclass(value):
        _encode(_object(value), newline, parts)
    else:
        raise TypeError(f"not JSON-representable: {value!r}")


def dumps(value: Any) -> str:
    """The one JSON layout diver writes: json.dumps's text with sorted keys,
    non-ASCII characters kept and a two-space indent, a dataclass written as
    its fields. A file holds this text and a newline."""
    parts: list[str] = []
    _encode(value, "\n", parts)
    return "".join(parts)


def serialize(doc: CoTFDocument) -> bytes:
    """The document's file: its dumps text and a newline, in UTF-8."""
    return (dumps({**_object(doc), "schema_version": SCHEMA_VERSION}) + "\n").encode("utf-8")


def _build(cls, obj: dict, **parsed: Any) -> Any:
    """cls from its wire object, which must carry exactly cls's fields;
    parsed replaces the values that need converting first."""
    names = {f.name for f in fields(cls)}
    if obj.keys() != names:
        raise SchemaViolation(f"{cls.__name__} needs the keys {sorted(names)}, got {sorted(obj)}")
    return cls(**{**obj, **parsed})


def _array(value: Any) -> list:
    """value when it is a JSON array; an object or a string would iterate."""
    if not isinstance(value, list):
        raise SchemaViolation(f"expected an array, got {value!r}")
    return value


def load(path: str | Path, what: str) -> Any:
    """The JSON value of a file read as strict UTF-8; DiverError("cannot load
    <what> from <path>: <reason>") when the file is missing or unreadable, or
    its text is not UTF-8, not JSON or nested past the recursion limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise DiverError(f"cannot load {what} from {path}: {exc}") from exc


def deserialize(data: bytes | str | dict) -> CoTFDocument:
    """A document from its file's bytes or text, or from the decoded JSON
    object, which is left unchanged. Every object is built by its own
    constructor, so it must carry exactly the keys serialize writes;
    anything that does not match the schema, is not UTF-8 or nests deeper
    than the interpreter's recursion limit raises SchemaViolation."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaViolation(f"not valid UTF-8: {exc}") from exc
    try:
        payload = {**(json.loads(data) if isinstance(data, str) else data)}
        version = payload.pop("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaViolation(f"unsupported schema_version: {version!r}")
        return _build(
            CoTFDocument,
            payload,
            question=_build(Question, payload["question"]),
            clauses=[
                _build(Clause, c, token_span=tuple(c["token_span"]))
                for c in _array(payload["clauses"])
            ],
            turns=[
                [
                    _build(
                        Turn,
                        t,
                        tool_call=_build(ToolCall, t["tool_call"]),
                        feedback=_build(ToolFeedback, t["feedback"]),
                    )
                    for t in _array(column)
                ]
                for column in _array(payload["turns"])
            ],
            verified=[
                _build(VerifiedLinking, v, source_turn=tuple(v["source_turn"]))
                for v in _array(payload["verified"])
            ],
        )
    except SchemaViolation:
        raise
    except (TypeError, ValueError, KeyError, AttributeError, RecursionError) as exc:
        raise SchemaViolation(f"malformed document: {exc}") from exc
