"""Metrics for generated SQL and evidence.

Covers execution accuracy (row multisets, order-sensitive only when the
reference query's outermost statement orders), a timing-weighted efficiency
score, schema/value entity extraction with F1, and evidence-to-SQL token
overlap. SQL is read through database.sql_tokens.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from contextlib import closing, nullcontext
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from .database import DatabaseHandle, ResultSet, SchemaCatalog, SqlToken
from .database import catalog as build_catalog
from .database import open_database, sql_tokens
from .errors import DiverError, SqlError

log = logging.getLogger(__name__)

# Reserved words that can never be column or table references.
RESERVED_WORDS = frozenset(
    """
    select from where group by having order limit offset as on join inner
    left right full outer cross natural using and or not in like glob regexp
    match escape between is null distinct all union except intersect case
    when then else end exists cast collate asc desc with recursive values
    true false over partition rows range unbounded preceding following
    current row filter window current_date current_time current_timestamp
    """.split()
)

# Reserved words that are operands themselves, so a '-' after one subtracts.
_OPERAND_WORDS = frozenset(
    "end null true false current_date current_time current_timestamp".split()
)

_FUNCTION_WORDS = frozenset(
    """
    count sum avg total min max group_concat abs round length substr
    substring upper lower trim ltrim rtrim coalesce ifnull nullif iif instr
    replace printf date time datetime strftime julianday unixepoch rank
    row_number dense_rank ntile lag lead first_value last_value cume_dist
    percent_rank
    """.split()
)

# Excluded from the SQL side of token overlap.
OVERLAP_STOPWORDS = RESERVED_WORDS | _FUNCTION_WORDS

_COMPARISONS = frozenset({"=", "!=", "<>", "<", ">", "<=", ">="})
_OVERLAP_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass
class LinkingSets:
    """Entities a SQL query touches, normalized for comparison."""

    schema_entities: set[str]
    value_entities: set[str]


@dataclass
class EvalSample:
    question_id: str
    db_path: Path
    gold_sql: str
    pred_sql: str | None
    difficulty: str | None = None
    evidence_text: str | None = None


# --- SQL tokens ---


def _skip_parens(toks: list[SqlToken], open_idx: int) -> int:
    """Index just past the parenthesis group opening at open_idx."""
    depth = 0
    i = open_idx
    while i < len(toks):
        t = toks[i]
        if t.kind == "op" and t.value == "(":
            depth += 1
        elif t.kind == "op" and t.value == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(toks)


def _is_word(tok: SqlToken | None, word: str) -> bool:
    return tok is not None and tok.kind == "word" and tok.value.upper() == word


def _ident(tok: SqlToken | None) -> bool:
    return tok is not None and tok.kind in ("word", "quoted")


def _norm_number(raw: str) -> str:
    s = raw.lower()
    if "e" in s:
        return s
    neg = s.startswith("-")
    body = s[1:] if neg else s
    if "." in body:
        body = body.rstrip("0").rstrip(".")
        if not body:
            body = "0"
    if "." in body:
        intpart, frac = body.split(".", 1)
        body = (intpart.lstrip("0") or "0") + "." + frac
    else:
        body = body.lstrip("0") or "0"
    return ("-" if neg else "") + body


def _norm_literal(tok: SqlToken) -> str:
    if tok.kind == "string":
        return tok.value.lower()
    return _norm_number(tok.value)


class _Extractor:
    def __init__(self, toks: list[SqlToken], catalog: SchemaCatalog):
        self.toks = toks
        self.catalog = catalog
        self.consumed = [False] * len(toks)
        self.ctes: set[str] = set()
        self.tables: set[str] = set()
        self.aliases: dict[str, str | None] = {}
        self.output_aliases: set[str] = set()
        self.schema: set[str] = set()
        self.values: set[str] = set()

    def tok(self, i: int) -> SqlToken | None:
        return self.toks[i] if 0 <= i < len(self.toks) else None

    def run(self) -> LinkingSets:
        self._collect_ctes()
        self._collect_bindings()
        self._collect_output_aliases()
        self._collect_qualified()
        self._collect_unqualified()
        self._collect_values()
        self.schema.update(self.tables)
        return LinkingSets(self.schema, self.values)

    # CTE names must not be reported as schema tables.
    def _collect_ctes(self) -> None:
        toks = self.toks
        for i, t in enumerate(toks):
            if not _is_word(t, "WITH"):
                continue
            j = i + 1
            if _is_word(self.tok(j), "RECURSIVE"):
                j += 1
            while j < len(toks) and _ident(toks[j]):
                name = toks[j].value.lower()
                j += 1
                nxt = self.tok(j)
                if nxt is not None and nxt.kind == "op" and nxt.value == "(":
                    j = _skip_parens(toks, j)
                if not _is_word(self.tok(j), "AS"):
                    break
                j += 1
                nxt = self.tok(j)
                if nxt is None or nxt.kind != "op" or nxt.value != "(":
                    break
                self.ctes.add(name)
                j = _skip_parens(toks, j)
                nxt = self.tok(j)
                if nxt is not None and nxt.kind == "op" and nxt.value == ",":
                    j += 1
                    continue
                break

    def _bind_item(self, j: int) -> int:
        """Parse one table reference (or derived table) starting at j."""
        toks = self.toks
        t = self.tok(j)
        if t is None:
            return j
        if t.kind == "op" and t.value == "(":
            j = _skip_parens(toks, j)
            return self._bind_alias(j, None)
        if not _ident(t) or (t.kind == "word" and t.value.lower() in RESERVED_WORDS):
            return j
        name = t.value.lower()
        self.consumed[j] = True
        j += 1
        nxt = self.tok(j)
        if nxt is not None and nxt.kind == "op" and nxt.value == "." and _ident(self.tok(j + 1)):
            # schema-qualified table: keep the table part
            self.consumed[j] = True
            name = self.toks[j + 1].value.lower()
            self.consumed[j + 1] = True
            j += 2
        is_cte = name in self.ctes
        target = None if is_cte else name
        if not is_cte:
            self.tables.add(name)
        self.aliases.setdefault(name, target)
        return self._bind_alias(j, target)

    def _bind_alias(self, j: int, target: str | None) -> int:
        t = self.tok(j)
        if _is_word(t, "AS"):
            self.consumed[j] = True
            j += 1
            t = self.tok(j)
        # a bare keyword, or the SET of an UPDATE, ends the reference instead
        if t is not None and _ident(t):
            if t.kind == "quoted" or t.value.lower() not in RESERVED_WORDS | {"set"}:
                self.aliases[t.value.lower()] = target
                self.consumed[j] = True
                return j + 1
        return j

    def _collect_bindings(self) -> None:
        toks = self.toks
        for i, t in enumerate(toks):
            if self.consumed[i] or t.kind != "word":
                continue
            word = t.value.upper()
            if word == "FROM":
                self.consumed[i] = True
                j = self._bind_item(i + 1)
                while True:
                    nxt = self.tok(j)
                    if nxt is None or nxt.kind != "op" or nxt.value != ",":
                        break
                    advanced = self._bind_item(j + 1)
                    if advanced == j + 1:
                        break
                    j = advanced
            elif word == "JOIN":
                self.consumed[i] = True
                self._bind_item(i + 1)

    def _collect_output_aliases(self) -> None:
        for i, t in enumerate(self.toks):
            if self.consumed[i] or not _is_word(t, "AS"):
                continue
            nxt = self.tok(i + 1)
            if nxt is not None and _ident(nxt) and not self.consumed[i + 1]:
                self.output_aliases.add(nxt.value.lower())
                self.consumed[i + 1] = True
            self.consumed[i] = True

    def _collect_qualified(self) -> None:
        toks = self.toks
        for i, t in enumerate(toks):
            if self.consumed[i] or not _ident(t):
                continue
            dot = self.tok(i + 1)
            if dot is None or dot.kind != "op" or dot.value != ".":
                continue
            tail = self.tok(i + 2)
            qualifier = t.value.lower()
            if tail is not None and tail.kind == "op" and tail.value == "*":
                self.consumed[i] = self.consumed[i + 1] = self.consumed[i + 2] = True
                continue
            if tail is None or not _ident(tail):
                continue
            self.consumed[i] = self.consumed[i + 1] = self.consumed[i + 2] = True
            # a CTE column or an unknown scope is not a schema entity
            real = self.aliases.get(qualifier)
            if real is not None:
                self.schema.add(real)
                self.schema.add(f"{real}.{tail.value.lower()}")

    def _column_owner(self, name: str) -> str | None:
        real = sorted(self.tables)
        if len(real) == 1:
            return real[0]
        owners = []
        for table_name in real:
            info = self.catalog.table(table_name)
            if info is not None and info.column(name) is not None:
                owners.append(table_name)
        return owners[0] if len(owners) == 1 else None

    def _collect_unqualified(self) -> None:
        for i, t in enumerate(self.toks):
            if self.consumed[i] or not _ident(t):
                continue
            name = t.value.lower()
            if t.kind == "word":
                if t.value.lower() in RESERVED_WORDS:
                    continue
                nxt = self.tok(i + 1)
                if nxt is not None and nxt.kind == "op" and nxt.value == "(":
                    continue  # function call
            if name in self.aliases or name in self.ctes or name in self.output_aliases:
                continue
            owner = self._column_owner(name)
            if owner is not None:
                self.schema.add(f"{owner}.{name}")

    def _is_sign(self, j: int) -> bool:
        """Whether the token at j is a unary minus: a '-' after a token that
        ends no operand, meaning no name, no literal, no operand keyword such
        as END or NULL, and no ')'."""
        t, prev = self.tok(j), self.tok(j - 1)
        if t is None or t.kind != "op" or t.value != "-":
            return False
        if prev is None:
            return True
        if prev.kind == "op":
            return prev.value != ")"
        word = prev.value.lower()
        return prev.kind == "word" and word in RESERVED_WORDS and word not in _OPERAND_WORDS

    def _literal(self, j: int) -> str | None:
        """The normalized literal at j, negated when a sign precedes a number."""
        t = self.tok(j)
        if t is None or t.kind not in ("string", "number"):
            return None
        if t.kind == "number" and self._is_sign(j - 1):
            return _norm_number("-" + t.value)
        return _norm_literal(t)

    def _literal_at(self, j: int) -> tuple[str, int] | None:
        """The literal starting at j, a signed number included, and the index
        just past it."""
        nxt = self.tok(j + 1)
        if self._is_sign(j) and nxt is not None and nxt.kind == "number":
            j += 1
        lit = self._literal(j)
        return None if lit is None else (lit, j + 1)

    def _collect_values(self) -> None:
        toks = self.toks
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.kind == "op" and t.value in _COMPARISONS:
                left = self._literal(i - 1)
                if left is not None:
                    self.values.add(left)
                right = self._literal_at(i + 1)
                if right is not None:
                    self.values.add(right[0])
                i += 1
                continue
            if t.kind == "word":
                word = t.value.upper()
                if word == "LIKE":
                    lit = self._literal_at(i + 1)
                    if lit is not None:
                        self.values.add(lit[0])
                elif word == "BETWEEN":
                    low = self._literal_at(i + 1)
                    if low is not None:
                        value, j = low
                        if _is_word(self.tok(j), "AND"):
                            high = self._literal_at(j + 1)
                            if high is not None:
                                self.values.add(value)
                                self.values.add(high[0])
                                i = high[1]
                                continue
                elif word == "IN":
                    nxt = self.tok(i + 1)
                    if nxt is not None and nxt.kind == "op" and nxt.value == "(":
                        first = self.tok(i + 2)
                        if _is_word(first, "SELECT") or _is_word(first, "WITH"):
                            i += 2
                            continue
                        end = _skip_parens(toks, i + 1)
                        j = i + 2
                        # through the closing ")", which is no literal, or to
                        # the statement's end when the list is left unclosed
                        while j < end:
                            lit = self._literal_at(j)
                            if lit is None:
                                j += 1
                            else:
                                self.values.add(lit[0])
                                j = lit[1]
                        i = end
                        continue
            i += 1


def extract_entities(sql: str, catalog: SchemaCatalog) -> LinkingSets:
    """Schema and value entities referenced by sql. Total: never raises."""
    if not isinstance(sql, str):
        return LinkingSets(set(), set())
    try:
        toks = list(sql_tokens(sql))
        return _Extractor(toks, catalog).run()
    except SqlError:
        return LinkingSets(set(), set())
    except Exception:  # defensive: extraction must be total
        log.exception("entity extraction failed on %r", sql[:80])
        return LinkingSets(set(), set())


# --- F1 ---


def _prf(gold: set[str], pred: set[str]) -> dict[str, float]:
    inter = len(gold & pred)
    precision = inter / len(pred) if pred else 0.0
    recall = inter / len(gold) if gold else 0.0
    denom = precision + recall
    f1 = 2 * precision * recall / denom if denom else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def linking_f1(gold: LinkingSets, pred: LinkingSets) -> dict[str, dict[str, float]]:
    return {
        "schema": _prf(gold.schema_entities, pred.schema_entities),
        "value": _prf(gold.value_entities, pred.value_entities),
    }


# --- token overlap ---


def token_overlap(evidence: str, sql: str) -> float:
    """Share of the SQL's non-keyword tokens that the evidence mentions."""
    sql_terms = {
        t for t in _OVERLAP_TOKEN_RE.findall(sql.lower()) if t not in OVERLAP_STOPWORDS
    }
    if not sql_terms:
        return 0.0
    evidence_terms = set(_OVERLAP_TOKEN_RE.findall(evidence.lower()))
    return len(sql_terms & evidence_terms) / len(sql_terms)


# --- execution accuracy ---


def _order_sensitive(gold_sql: str) -> bool:
    """True when the outermost statement of gold_sql orders its rows: ORDER
    BY outside every parenthesis, so not in a subquery or a window. SQL the
    tokenizer cannot read counts as unordered."""
    try:
        toks = list(sql_tokens(gold_sql))
    except SqlError:
        return False
    i = 0
    while i < len(toks) - 1:
        if toks[i].kind == "op" and toks[i].value == "(":
            i = _skip_parens(toks, i)
        elif _is_word(toks[i], "ORDER") and _is_word(toks[i + 1], "BY"):
            return True
        else:
            i += 1
    return False


def ex_match(
    handle: DatabaseHandle, pred_sql: str | None, gold_sql: str, gold: ResultSet
) -> bool:
    """True when pred_sql returns the same rows as gold, gold_sql's result.
    A prediction that fails to run counts as a miss."""
    if not pred_sql:
        return False
    try:
        pred = handle.query(pred_sql)
    except DiverError:
        return False
    except Exception:
        log.exception("unexpected failure executing %r", pred_sql[:80])
        return False
    if _order_sensitive(gold_sql):
        return pred.rows == gold.rows
    return Counter(pred.rows) == Counter(gold.rows)


# --- efficiency ---


VES_MIN_ITERATIONS = 3  # the trimmed mean drops the fastest and slowest run


def _trimmed_mean(samples: list[float]) -> float:
    keep = sorted(samples)[1:-1]
    return math.fsum(keep) / len(keep)


def ves_reward(
    handle: DatabaseHandle,
    pred_sql: str | None,
    gold_sql: str,
    matched: bool,
    iterations: int,
) -> float:
    """sqrt(gold_time / pred_time) when results match, else 0. matched is the
    pair's EX verdict; the runs that produced it serve as the warm-up, so the
    first timed sample is not paying cache costs. A prediction whose text is
    the gold SQL's scores 1.0 untimed: the same statement on the same
    read-only file, so the ratio the runs estimate is exactly 1."""
    if iterations < VES_MIN_ITERATIONS:
        raise ValueError(f"iterations must be at least {VES_MIN_ITERATIONS}")
    if not matched:
        return 0.0
    if pred_sql == gold_sql:
        return 1.0
    assert pred_sql is not None
    gold_times: list[float] = []
    pred_times: list[float] = []
    for _ in range(iterations):
        gold_times.append(handle.query(gold_sql).elapsed)
        pred_times.append(handle.query(pred_sql).elapsed)
    gold_mean = max(_trimmed_mean(gold_times), 1e-9)
    pred_mean = max(_trimmed_mean(pred_times), 1e-9)
    return math.sqrt(gold_mean / pred_mean)


def _ves_or_zero(handle, sample, matched, iterations, warnings):
    # ves_reward, or 0 and a warning when a timed run fails: a statement that
    # ran once can fail a later run (its deadline, say); EX keeps its verdict
    try:
        return ves_reward(handle, sample.pred_sql, sample.gold_sql, matched, iterations)
    except DiverError as exc:
        warnings.append(f"{sample.question_id}: VES timing run failed ({exc}); VES 0")
        return 0.0


# --- corpus evaluation ---

KNOWN_METRICS = ("ex", "ves", "f1", "overlap")


def format_report(report: dict) -> str:
    """The aligned text `diver eval` prints for a report from evaluate()."""
    lines = [f"{'questions':<14}{report['count']}"]
    for key, label in (("ex", "EX"), ("ves", "VES")):
        if key in report:
            lines.append(f"{label:<14}{report[key]:.3f}")
    for key, label in (("schema_f1", "schema F1"), ("value_f1", "value F1")):
        if key in report:
            prf = report[key]
            lines.append(
                f"{label:<14}{prf['f1']:.3f}"
                f"  (P {prf['precision']:.3f}, R {prf['recall']:.3f})"
            )
    if "overlap" in report:
        overlap = report["overlap"]
        lines.append(
            f"{'overlap':<14}mean {overlap['mean']:.3f}"
            f"  (min {overlap['min']:.3f}, max {overlap['max']:.3f})"
        )
    per_difficulty = report.get("per_difficulty", {})
    for name in sorted(per_difficulty):
        sub = per_difficulty[name]
        parts = [f"n={sub['count']}"]
        for key in ("ex", "ves"):
            if key in sub:
                parts.append(f"{key.upper()} {sub[key]:.3f}")
        if "schema_f1" in sub:
            parts.append(f"schema F1 {sub['schema_f1']['f1']:.3f}")
        lines.append(f"{name:<14}{'  '.join(parts)}")
    for warning in report["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _mean(values: list[float]) -> float:
    # fsum is exactly rounded, so the mean depends neither on the order of
    # the values nor on the Python version (sum() compensates from 3.12 on)
    return math.fsum(values) / len(values) if values else 0.0


def _aggregate(records: list[dict], metrics: tuple[str, ...]) -> dict:
    out: dict = {"count": len(records)}
    if "ex" in metrics:
        out["ex"] = _mean([r["ex"] for r in records])
    if "ves" in metrics:
        out["ves"] = _mean([r["ves"] for r in records])
    if "f1" in metrics:
        for key, label in (("schema", "schema_f1"), ("value", "value_f1")):
            out[label] = {
                part: _mean([r[key][part] for r in records])
                for part in ("precision", "recall", "f1")
            }
    if "overlap" in metrics:
        scores = [r["overlap"] for r in records if r.get("overlap") is not None]
        if scores:
            out["overlap"] = {
                "mean": _mean(scores),
                "min": min(scores),
                "max": max(scores),
                "count": len(scores),
            }
    return out


def evaluate(
    samples: list[EvalSample],
    metrics: tuple[str, ...],
    iterations: int,
) -> dict:
    """Score samples on the chosen metrics. The report is the dict `diver eval
    --json` prints: _aggregate's keys, per_difficulty if any sample has a
    difficulty, and warnings."""
    bad = [m for m in metrics if m not in KNOWN_METRICS]
    if bad or not metrics:
        raise DiverError(f"unknown metrics {bad}; choose from {', '.join(KNOWN_METRICS)}")
    needs_execution = "ex" in metrics or "ves" in metrics
    # overlap reads only the evidence text and the gold SQL
    needs_database = needs_execution or "f1" in metrics

    warnings: list[str] = []
    records: list[dict] = []
    # one handle per run of samples on the same file, and one at a time: each
    # maps its file (database.MMAP_BYTES), so keeping one per database open
    # would hold every file in memory at once
    for path, run in groupby(samples, key=lambda sample: Path(sample.db_path)):
        try:
            handle = open_database(path) if needs_database else None
        except DiverError as exc:
            warnings.extend(f"{s.question_id}: cannot open database ({exc})" for s in run)
            continue
        with closing(handle) if handle else nullcontext():
            for sample in run:
                if needs_execution:
                    try:
                        gold = handle.query(sample.gold_sql)
                    except DiverError as exc:
                        warnings.append(
                            f"{sample.question_id}: reference query failed ({exc}); skipped"
                        )
                        continue
                if sample.pred_sql is None:
                    warnings.append(f"{sample.question_id}: missing prediction")

                record: dict = {"difficulty": sample.difficulty}
                if needs_execution:
                    # each statement runs once for its result; VES reuses the verdict
                    matched = ex_match(handle, sample.pred_sql, sample.gold_sql, gold)
                    if "ex" in metrics:
                        record["ex"] = float(matched)
                    if "ves" in metrics:
                        record["ves"] = _ves_or_zero(handle, sample, matched, iterations, warnings)
                if "f1" in metrics:
                    # a reopened file's catalog comes from the database memo
                    cat = build_catalog(handle, None)
                    gold_sets = extract_entities(sample.gold_sql, cat)
                    pred_sets = extract_entities(sample.pred_sql or "", cat)
                    record.update(linking_f1(gold_sets, pred_sets))
                if "overlap" in metrics:
                    record["overlap"] = (
                        token_overlap(sample.evidence_text, sample.gold_sql)
                        if sample.evidence_text is not None
                        else None
                    )
                records.append(record)

    report = _aggregate(records, metrics)
    by_difficulty = {
        name: _aggregate([r for r in records if r["difficulty"] == name], metrics)
        for name in sorted({r["difficulty"] for r in records if r["difficulty"]})
    }
    if by_difficulty:
        report["per_difficulty"] = by_difficulty
    report["warnings"] = warnings
    return report
