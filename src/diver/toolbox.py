"""Atomic database probing tools.

Nine tools, eight probes plus the stop signal, defined once in the ordered
table TOOLS. Each row carries the guidance parts rendered into the prompt
(description, parameters, scenario), the tool to suggest when a call is
repeated, and the adapter that runs it. Names, guidance, validation and
dispatch are all derived from that table. dispatch() is total: every failure
becomes corrective feedback carrying the engine's or validator's message,
never an exception into the loop.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random as _random_mod
from dataclasses import dataclass
from typing import Any, Callable

from .cotf import ToolCall, ToolFeedback
from .database import DatabaseHandle, SchemaCatalog, quote_identifier
from .embedding import LexicalEmbedder, top_k, trigrams
from .errors import EmbedderUnavailable, SqlError

POOL_CAP = 10_000  # embed the whole distinct-value pool up to this size
PREFILTER_SIZE = 1_000  # larger pools are cut down by trigram overlap first
DEFAULT_K = 5
DEFAULT_SAMPLE_LIMIT = 20
RANK_CACHE_SIZE = 64  # lexical rankings _rank keeps


@dataclass
class ToolContext:
    """Everything dispatch needs besides the call itself. rng draws the seed
    of a `random` call that names none; the drawn seed is written into the
    call, so the trace replays."""

    handle: DatabaseHandle
    catalog: SchemaCatalog
    embedder: Any
    rng: _random_mod.Random


@dataclass(frozen=True)
class Tool:
    """One row of the tool table."""

    description: str
    required: tuple[str, ...]
    optional: tuple[str, ...]
    scenario: str
    # where a repeated call is pointed: the text after "Consider using "
    reroute: str | None
    # run(context, args) names its handler inside a lambda, so the handler is
    # looked up at call time and a wrapper installed on e.g. toolbox.value_in
    # still sees every dispatched call. The validated args are passed by
    # name: required and optional are the handler's parameter names, and an
    # optional parameter's default lives only in the handler's signature.
    run: Callable[[ToolContext, dict[str, Any]], dict[str, Any]]


# order matters: guidance and prompts render tools in this sequence, with the
# stop signal last
TOOLS: dict[str, Tool] = {
    "value_in": Tool(
        description="Exact membership check: does the column store the given value?",
        required=("table", "column", "value"),
        optional=(),
        scenario=(
            "The clause quotes a literal and you need to confirm the column"
            " stores it exactly as written, including case."
        ),
        reroute="sim_value_in for a fuzzy search",
        run=lambda c, a: value_in(c.handle, **a),
    ),
    "sim_value_in": Tool(
        description="Fuzzy search: rank the column's stored values by similarity to a query string.",
        required=("table", "column", "query_text"),
        optional=("k",),
        scenario=(
            "An exact membership check came back empty and you suspect the"
            " stored spelling differs from the question's wording."
        ),
        reroute="uniq_value to list the column's distinct values instead",
        run=lambda c, a: sim_value_in(c.handle, c.embedder, **a),
    ),
    "uniq_value": Tool(
        description="Count distinct values in a column and list a sorted sample of them.",
        required=("table", "column"),
        optional=("limit",),
        scenario=(
            "The column's vocabulary is unclear; enumerate a bounded sample"
            " of its distinct entries to see how values are written."
        ),
        reroute="info to read the column's metadata and description instead",
        run=lambda c, a: uniq_value(c.handle, **a),
    ),
    "head": Tool(
        description="Fetch the first n rows of a table in storage order.",
        required=("table", "n"),
        optional=(),
        scenario=(
            "You want a feel for realistic full rows before probing"
            " specific columns."
        ),
        reroute="uniq_value to study one column's distinct values instead",
        run=lambda c, a: head(c.handle, **a),
    ),
    "random": Tool(
        description="Fetch n rows sampled without replacement, reproducibly by seed.",
        required=("table", "n"),
        optional=("seed",),
        scenario=(
            "You want rows drawn from across the whole table instead of the"
            " possibly unrepresentative leading block."
        ),
        reroute="uniq_value to study one column's distinct values instead",
        run=lambda c, a: random_rows(c.handle, **a),
    ),
    "if_null": Tool(
        description="Count NULL entries in a column and report the missing fraction.",
        required=("table", "column"),
        optional=(),
        scenario=(
            "Aggregates or joins may be skewed by missing entries; measure"
            " how sparse the column is first."
        ),
        reroute="info to read the column's metadata and description instead",
        run=lambda c, a: if_null(c.handle, **a),
    ),
    "info": Tool(
        description=(
            "Describe a table or one column: declared type, attached"
            " description, row count and missing fraction."
        ),
        required=("table",),
        optional=("column",),
        scenario=(
            "You need a column's declared type or its documentation, e.g."
            " to decode an abbreviation the question uses."
        ),
        reroute="sim_columns to search the whole schema for related columns instead",
        run=lambda c, a: info(c.handle, c.catalog, **a),
    ),
    "sim_columns": Tool(
        description="Rank every catalog column by similarity to a query string.",
        required=("query_text",),
        optional=("k",),
        scenario=(
            "No column probed so far fits the clause; search the whole"
            " schema by meaning for better candidates."
        ),
        reroute="head to inspect real rows of a candidate table instead",
        run=lambda c, a: sim_columns(c.catalog, c.embedder, **a),
    ),
    "none": Tool(
        description="Finish the current clause: no further probing is needed.",
        required=(),
        optional=(),
        scenario=(
            "Every fact the clause needs has been verified (or probing is"
            " clearly exhausted); end this clause's loop."
        ),
        reroute=None,
        run=lambda c, a: {},
    ),
}

TOOL_NAMES = tuple(TOOLS)


def render_guidance() -> str:
    """Deterministic tool-guidance block for prompts: all nine tools in table
    order, each with description, parameter list and usage scenario."""
    lines = [
        "Atomic database tools",
        "=====================",
        'Call exactly one tool per turn as JSON: {"tool": "<name>", "args": {...}}.',
        "",
    ]
    for name, tool in TOOLS.items():
        lines.append(f"### {name}")
        lines.append(tool.description)
        if tool.required:
            lines.append("Required parameters: " + ", ".join(tool.required))
        else:
            lines.append("Required parameters: (no arguments)")
        if tool.optional:
            lines.append("Optional parameters: " + ", ".join(tool.optional))
        lines.append("Scenario: " + tool.scenario)
        lines.append("")
    return "\n".join(lines)


def _scalarize(value: Any) -> Any:
    """A cell as the trace holds it: a blob as hex, an infinite REAL as
    SQLite's own text for it (strict JSON has no infinity)."""
    if isinstance(value, bytes):
        return "0x" + value.hex()
    if isinstance(value, float) and math.isinf(value):
        return "Inf" if value > 0 else "-Inf"
    return value


def _rows_payload(columns: list[str], rows: list[tuple]) -> dict[str, Any]:
    return {
        "columns": list(columns),
        "rows": [[_scalarize(v) for v in row] for row in rows],
    }


def value_in(handle: DatabaseHandle, table: str, column: str, value: Any) -> dict[str, Any]:
    """Exact, case-sensitive membership test (SQL equality; no coercion, so a
    string "1" does not match integer 1)."""
    rs = handle.query(
        f"SELECT COUNT(*) FROM {quote_identifier(table)}"
        f" WHERE {quote_identifier(column)} = ?",
        (value,),
    )
    count = rs.rows[0][0]
    return {"exists": count > 0, "match_count": count}


def uniq_value(
    handle: DatabaseHandle, table: str, column: str, limit: int = DEFAULT_SAMPLE_LIMIT
) -> dict[str, Any]:
    """Distinct count plus the first `limit` distinct values, ascending by
    their text form. NULLs are excluded, matching COUNT(DISTINCT)."""
    q_table, q_col = quote_identifier(table), quote_identifier(column)
    count = handle.memo_query(f"SELECT COUNT(DISTINCT {q_col}) FROM {q_table}").rows[0][0]
    rs = handle.memo_query(
        f"SELECT DISTINCT CAST({q_col} AS TEXT) AS v FROM {q_table}"
        f" WHERE {q_col} IS NOT NULL ORDER BY v LIMIT ?",
        (limit,),
    )
    return {"distinct_count": count, "samples": [r[0] for r in rs.rows]}


def head(handle: DatabaseHandle, table: str, n: int) -> dict[str, Any]:
    rs = handle.query(f"SELECT * FROM {quote_identifier(table)} LIMIT ?", (n,))
    return _rows_payload(rs.columns, rs.rows)


def random_rows(handle: DatabaseHandle, table: str, n: int, seed: int) -> dict[str, Any]:
    """n rows without replacement, reproducible from (database file, seed).

    The sample is of row positions in scan order; each chosen row is fetched
    on its own, in ascending position, so only n rows ever reach Python."""
    q_table = quote_identifier(table)
    total = handle.memo_query(f"SELECT COUNT(*) FROM {q_table}").rows[0][0]
    k = min(n, total)
    chosen = sorted(_random_mod.Random(seed).sample(range(total), k)) if k else []
    columns = handle.memo_query(f"SELECT * FROM {q_table} LIMIT 0").columns
    picked = [
        row
        for i in chosen
        for row in handle.query(f"SELECT * FROM {q_table} LIMIT 1 OFFSET ?", (i,)).rows
    ]
    payload = _rows_payload(columns, picked)
    payload["seed"] = seed
    return payload


def if_null(handle: DatabaseHandle, table: str, column: str) -> dict[str, Any]:
    rs = handle.memo_query(
        f"SELECT COUNT(*), COUNT({quote_identifier(column)})"
        f" FROM {quote_identifier(table)}"
    )
    total, nonnull = rs.rows[0]
    nulls = total - nonnull
    return {"null_count": nulls, "total": total, "fraction": nulls / max(total, 1)}


def _null_fractions(handle: DatabaseHandle, table) -> tuple[int, dict[str, float]]:
    """The table's row count and each column's missing fraction, from one scan."""
    counters = ", ".join(f"COUNT({quote_identifier(c.name)})" for c in table.columns)
    rs = handle.memo_query(f"SELECT COUNT(*), {counters} FROM {quote_identifier(table.name)}")
    total, *nonnull = rs.rows[0]
    return total, {
        c.name: (total - count) / max(total, 1) for c, count in zip(table.columns, nonnull)
    }


def info(
    handle: DatabaseHandle,
    catalog: SchemaCatalog,
    table: str,
    column: str | None = None,
) -> dict[str, Any]:
    """Metadata for one column, or a per-column summary of a whole table."""
    t = catalog.table(table)
    if t is None:
        raise SqlError(f"unknown table: {table}")
    row_count, fractions = _null_fractions(handle, t)
    if column is not None:
        c = t.column(column)
        if c is None:
            raise SqlError(f"unknown column: {table}.{column}")
        return {
            "table": t.name,
            "column": c.name,
            "declared_type": c.declared_type,
            "description": c.description,
            "row_count": row_count,
            "null_fraction": fractions[c.name],
        }
    return {
        "table": t.name,
        "row_count": row_count,
        "columns": [
            {
                "column": c.name,
                "declared_type": c.declared_type,
                "description": c.description,
                "null_fraction": fractions[c.name],
            }
            for c in t.columns
        ],
    }


@functools.lru_cache(maxsize=RANK_CACHE_SIZE)
def _lexical_top_k(query_text: str, candidates: tuple[str, ...], k: int) -> tuple:
    """top_k by the LexicalEmbedder, whose ranking is a function of the
    texts and k alone, so the last RANK_CACHE_SIZE rankings are kept: a
    clause that asks sim_columns again, or a question that asks what an
    earlier one did, embeds nothing. A tuple, so no caller can change it."""
    return tuple(top_k(LexicalEmbedder(), query_text, list(candidates), k))


def _rank(embedder, query_text: str, candidates: list[str], k: int):
    """top_k, falling back to the offline lexical embedder when the
    embedding provider is unavailable. Any other embedder than the
    LexicalEmbedder is asked every time."""
    try:
        if type(embedder) is LexicalEmbedder:
            return list(_lexical_top_k(query_text, tuple(candidates), k)), "embedding"
        return top_k(embedder, query_text, candidates, k), "embedding"
    except EmbedderUnavailable:
        return list(_lexical_top_k(query_text, tuple(candidates), k)), "lexical"


def _prefilter(query_text: str, pool: list[str]) -> list[str]:
    """pool sorted by (-trigram overlap with query_text, text).

    Each query gram is searched with str.find in the newline-joined
    lowercased pool, and bisect over the values' start offsets names the
    value a hit falls in. A hit that runs into a separator is dropped, and
    the search resumes at the next value, so a gram counts at most once per
    value. A query shorter than 3 characters is one gram, which only a value
    equal to it shares."""
    lows = [value.lower() for value in pool]
    low_query = query_text.lower()
    if len(low_query) < 3:
        overlap = {j: 1 for j, low in enumerate(lows) if low_query and low == low_query}
    else:
        overlap = {}
        text = "\n".join(lows)
        next_start = list(itertools.accumulate(len(low) + 1 for low in lows))
        for gram in trigrams(query_text):
            i = text.find(gram)
            while i != -1:
                j = bisect.bisect_right(next_start, i)
                if i + 4 <= next_start[j]:  # ends before value j's separator
                    overlap[j] = overlap.get(j, 0) + 1
                i = text.find(gram, next_start[j])
    ranked = sorted(overlap, key=lambda j: (-overlap[j], pool[j]))
    rest = sorted(value for j, value in enumerate(pool) if j not in overlap)
    return [pool[j] for j in ranked] + rest


def sim_value_in(
    handle: DatabaseHandle,
    embedder,
    table: str,
    column: str,
    query_text: str,
    k: int = DEFAULT_K,
) -> dict[str, Any]:
    """Top-k distinct values of one column by similarity to query_text.

    Pools of more than POOL_CAP distinct values are first cut to
    PREFILTER_SIZE by raw trigram overlap so the embedding step stays bounded.
    """
    q_table, q_col = quote_identifier(table), quote_identifier(column)
    rs = handle.memo_query(
        f"SELECT DISTINCT CAST({q_col} AS TEXT) AS v FROM {q_table}"
        f" WHERE {q_col} IS NOT NULL ORDER BY v"
    )
    pool = [r[0] for r in rs.rows]
    pool_size = len(pool)
    prefiltered = pool_size > POOL_CAP
    if prefiltered:
        pool = _prefilter(query_text, pool)[:PREFILTER_SIZE]
    ranked, scoring = _rank(embedder, query_text, pool, k)
    return {
        "matches": [{"value": pool[i], "score": round(s, 6)} for i, s in ranked],
        "pool_size": pool_size,
        "prefiltered": prefiltered,
        "scoring": scoring,
    }


def sim_columns(
    catalog: SchemaCatalog, embedder, query_text: str, k: int = DEFAULT_K
) -> dict[str, Any]:
    """Rank all catalog columns by similarity of query_text to
    "table.column <description>"."""
    entries = []
    for t in catalog.tables:
        for c in t.columns:
            text = f"{t.name}.{c.name}"
            if c.description:
                text += f" {c.description}"
            entries.append((t.name, c.name, text))
    ranked, scoring = _rank(embedder, query_text, [e[2] for e in entries], k)
    return {
        "matches": [
            {"table": entries[i][0], "column": entries[i][1], "score": round(s, 6)}
            for i, s in ranked
        ],
        "scoring": scoring,
    }


def _non_empty_string(name: str, value: Any) -> str | None:
    if not isinstance(value, str) or not value:
        return f"parameter {name!r} must be a non-empty string"
    return None


def _integer(name: str, value: Any) -> str | None:
    if not isinstance(value, int) or isinstance(value, bool):
        return f"parameter {name!r} must be an integer"
    return None


def _positive_integer(name: str, value: Any) -> str | None:
    error = _integer(name, value)
    if error is None and value < 1:
        return f"parameter {name!r} must be at least 1"
    return error


# one check per parameter name, whichever tool takes it; `value` accepts any
# scalar
_PARAM_CHECKS: dict[str, Callable[[str, Any], str | None]] = {
    "table": _non_empty_string,
    "column": _non_empty_string,
    "query_text": _non_empty_string,
    "n": _positive_integer,
    "k": _positive_integer,
    "limit": _positive_integer,
    "seed": _integer,
}


def validate_call(call: ToolCall) -> str | None:
    """Return an error message for a bad call, or None when it is well formed.
    Validation failures never raise: the message becomes corrective feedback
    (or a repair prompt at the client)."""
    tool = TOOLS.get(call.tool)
    if tool is None:
        return f"unknown tool: {call.tool!r}"
    missing = [p for p in tool.required if p not in call.args]
    if missing:
        return f"missing required parameter(s): {', '.join(missing)}"
    allowed = tool.required + tool.optional
    extra = [p for p in call.args if p not in allowed]
    if extra:
        if not allowed:
            return f"{call.tool} takes no arguments, got: {', '.join(extra)}"
        return f"unexpected parameter(s): {', '.join(extra)}"
    for name, value in call.args.items():
        check = _PARAM_CHECKS.get(name)
        error = check(name, value) if check else None
        if error is not None:
            return error
    return None


def dispatch(call: ToolCall, context: ToolContext) -> ToolFeedback:
    """Execute one validated call. Success -> standard feedback with the tool's
    structured result; any failure -> corrective feedback, engine messages
    verbatim. Never raises for tool-level problems."""
    error = validate_call(call)
    if error is not None:
        return ToolFeedback.corrective(error)
    if call.tool == "random" and "seed" not in call.args:
        # draw and record the seed into the call so the trace replays
        call.args["seed"] = context.rng.randrange(2**32)
    try:
        result = TOOLS[call.tool].run(context, call.args)
    except SqlError as exc:
        return ToolFeedback.corrective(str(exc))
    return ToolFeedback.standard(result)
