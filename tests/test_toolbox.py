"""Probing tools: SQL oracles, dispatch validation, guidance rendering."""

from __future__ import annotations

import inspect
import json
import random
import re
import sqlite3
import sys
import threading
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diver.breakup import token_refine
from diver.cotf import CoTFDocument, Question, ToolCall, Turn, append_turn, serialize
from diver.database import ColumnInfo, SchemaCatalog, TableInfo, catalog, open_database
from diver.embedding import LexicalEmbedder, top_k, trigrams
from diver import toolbox
from diver.errors import EmbedderUnavailable, SqlError
from diver.toolbox import (
    TOOL_NAMES,
    TOOLS,
    _prefilter,
    ToolContext,
    dispatch,
    head,
    if_null,
    info,
    random_rows,
    render_guidance,
    sim_columns,
    sim_value_in,
    uniq_value,
    value_in,
)


@pytest.fixture(scope="module")
def handle(schools_db):
    with closing(open_database(schools_db)) as h:
        yield h


@pytest.fixture(scope="module")
def cat(handle, schools_desc_dir):
    return catalog(handle, schools_desc_dir)


@pytest.fixture(scope="module")
def ctx(handle, cat):
    return ToolContext(
        handle=handle, catalog=cat, embedder=LexicalEmbedder(), rng=random.Random(11)
    )


def _sql(db, stmt, params=()):
    conn = sqlite3.connect(db)
    try:
        return conn.execute(stmt, params).fetchall()
    finally:
        conn.close()


# --- value_in ---


def test_value_in_matches_sql_count_oracle(handle, schools_db):
    want = _sql(schools_db, 'SELECT COUNT(*) FROM frpm WHERE "Low Grade" = ?', ("K",))[0][0]
    got = value_in(handle, "frpm", "Low Grade", "K")
    assert got == {"exists": True, "match_count": want}
    assert want == 5


def test_value_in_is_case_sensitive(handle):
    assert value_in(handle, "frpm", "Low Grade", "k") == {"exists": False, "match_count": 0}


def test_value_in_absent_value(handle):
    assert value_in(handle, "frpm", "Low Grade", "Z") == {"exists": False, "match_count": 0}


def test_value_in_numeric_value(handle, schools_db):
    want = _sql(schools_db, "SELECT COUNT(*) FROM schools WHERE Magnet = 1")[0][0]
    got = value_in(handle, "schools", "Magnet", 1)
    assert got == {"exists": True, "match_count": want}


# --- uniq_value ---


def test_uniq_value_matches_sql_oracles(handle, schools_db):
    want_count = _sql(schools_db, 'SELECT COUNT(DISTINCT "Low Grade") FROM frpm')[0][0]
    want_samples = [
        r[0]
        for r in _sql(
            schools_db,
            'SELECT DISTINCT CAST("Low Grade" AS TEXT) AS v FROM frpm'
            " WHERE \"Low Grade\" IS NOT NULL ORDER BY v LIMIT 20",
        )
    ]
    got = uniq_value(handle, "frpm", "Low Grade")
    assert got == {"distinct_count": want_count, "samples": want_samples}
    assert got["samples"] == ["1", "6", "9", "K"]


def test_uniq_value_limit_truncates_samples_not_count(handle):
    got = uniq_value(handle, "frpm", "Low Grade", limit=2)
    assert got["distinct_count"] == 4
    assert got["samples"] == ["1", "6"]


def test_uniq_value_stringifies_numeric_column(handle):
    got = uniq_value(handle, "schools", "Magnet")
    assert got["samples"] == ["0", "1"]
    assert got["distinct_count"] == 2


# --- head / random ---


def test_head_matches_sql_oracle(handle, schools_db):
    want = _sql(schools_db, "SELECT * FROM frpm LIMIT 3")
    got = head(handle, "frpm", 3)
    assert got["rows"] == [list(r) for r in want]
    assert got["columns"][0] == "CDSCode"
    assert len(got["columns"]) == 8


def test_random_is_reproducible_and_subset(handle, schools_db):
    table_rows = {tuple(r) for r in _sql(schools_db, "SELECT * FROM frpm")}
    a = random_rows(handle, "frpm", 2, seed=7)
    b = random_rows(handle, "frpm", 2, seed=7)
    assert a == b
    assert a["seed"] == 7
    assert len(a["rows"]) == 2
    assert len({tuple(r) for r in a["rows"]}) == 2  # without replacement
    for row in a["rows"]:
        assert tuple(row) in table_rows
    c = random_rows(handle, "frpm", 2, seed=8)
    assert c != a or True  # different seed may coincide; only determinism is contracted


def test_random_n_larger_than_table_returns_all(handle):
    got = random_rows(handle, "frpm", 500, seed=1)
    assert len(got["rows"]) == 12


# --- if_null ---


def test_if_null_matches_sql_oracle(handle, schools_db):
    total, nonnull = _sql(
        schools_db, 'SELECT COUNT(*), COUNT("Free Meal Count (K-12)") FROM frpm'
    )[0]
    got = if_null(handle, "frpm", "Free Meal Count (K-12)")
    assert got == {
        "null_count": total - nonnull,
        "total": total,
        "fraction": (total - nonnull) / total,
    }
    assert got["null_count"] == 3
    assert got["fraction"] == pytest.approx(0.25)


def test_if_null_no_nulls(handle):
    got = if_null(handle, "frpm", "CDSCode")
    assert got == {"null_count": 0, "total": 12, "fraction": 0.0}


# --- info ---


def test_info_column_surfaces_description_verbatim(handle, cat):
    got = info(handle, cat, "frpm", "School Type")
    assert got["declared_type"] == "TEXT"
    assert "SSS means State Special Schools" in got["description"]
    assert got["row_count"] == 12
    assert got["null_fraction"] == 0.0
    assert got["table"] == "frpm"
    assert got["column"] == "School Type"


def test_info_table_mode_one_record_per_column(handle, cat):
    got = info(handle, cat, "frpm")
    assert got["table"] == "frpm"
    assert got["row_count"] == 12
    assert [c["column"] for c in got["columns"]] == [
        "CDSCode",
        "School Name",
        "Low Grade",
        "High Grade",
        "School Type",
        "Enrollment (K-12)",
        "Free Meal Count (K-12)",
        "Charter School (Y/N)",
    ]
    by_name = {c["column"]: c for c in got["columns"]}
    assert by_name["Free Meal Count (K-12)"]["null_fraction"] == pytest.approx(0.25)


def test_info_unknown_names_raise(handle, cat):
    with pytest.raises(SqlError, match=r"^unknown table: ghost$"):
        info(handle, cat, "ghost")
    with pytest.raises(SqlError, match=r"^unknown column: frpm\.ghost$"):
        info(handle, cat, "frpm", "ghost")


def test_info_row_count_matches_count_oracle(tmp_path, open_db):
    db = tmp_path / "counts.sqlite"
    with closing(sqlite3.connect(db)) as conn:
        conn.execute("CREATE TABLE empty (a TEXT)")
        conn.execute("CREATE TABLE keyed (k TEXT PRIMARY KEY, v INTEGER) WITHOUT ROWID")
        conn.executemany("INSERT INTO keyed VALUES (?, ?)", [("a", 1), ("b", None), ("c", 3)])
        conn.commit()
    handle = open_db(db)
    # the schema alone: info counts the rows itself
    cat = SchemaCatalog(
        [
            TableInfo("empty", [ColumnInfo("a", "TEXT")]),
            TableInfo("keyed", [ColumnInfo("k", "TEXT"), ColumnInfo("v", "INTEGER")]),
        ]
    )
    for table, column in (("empty", "a"), ("keyed", "v")):
        [(want,)] = _sql(db, f"SELECT COUNT(*) FROM {table}")
        assert info(handle, cat, table)["row_count"] == want
        assert info(handle, cat, table, column)["row_count"] == want
    assert info(handle, cat, "empty", "a")["null_fraction"] == 0.0
    assert info(handle, cat, "keyed", "v")["null_fraction"] == pytest.approx(1 / 3)


# --- sim_value_in ---


def test_sim_value_in_exact_value_tops_ranking(handle):
    emb = LexicalEmbedder()
    got = sim_value_in(handle, emb, "frpm", "School Type", "SSS", k=1)
    assert got["matches"][0]["value"] == "SSS"
    assert got["matches"][0]["score"] == pytest.approx(1.0)
    assert got["pool_size"] == 3
    assert got["prefiltered"] is False
    assert got["scoring"] == "embedding"


def test_sim_value_in_scores_descend_and_k_caps(handle):
    emb = LexicalEmbedder()
    got = sim_value_in(handle, emb, "schools", "City", "Fresno area", k=3)
    scores = [m["score"] for m in got["matches"]]
    assert scores == sorted(scores, reverse=True)
    assert len(got["matches"]) == 3
    assert got["matches"][0]["value"] == "Fresno"


def test_sim_value_in_k_beyond_pool_returns_pool(handle):
    emb = LexicalEmbedder()
    got = sim_value_in(handle, emb, "frpm", "School Type", "anything", k=50)
    assert len(got["matches"]) == 3


class _DownEmbedder:
    def embed(self, texts):
        raise EmbedderUnavailable("endpoint is down")


def test_sim_value_in_falls_back_to_lexical(handle):
    got = sim_value_in(handle, _DownEmbedder(), "frpm", "School Type", "SSS", k=2)
    assert got["scoring"] == "lexical"
    assert got["matches"][0]["value"] == "SSS"
    assert got["matches"][0]["score"] == pytest.approx(1.0)
    # the fallback is the ranking a run without an endpoint shows
    for query in ("SSS", "special", "Fresno area"):
        for table, column in (("frpm", "School Type"), ("schools", "City")):
            down = sim_value_in(handle, _DownEmbedder(), table, column, query, k=3)
            lexical = sim_value_in(handle, LexicalEmbedder(), table, column, query, k=3)
            assert down == {**lexical, "scoring": "lexical"}


def test_an_empty_pool_or_catalog_ranks_nothing(tmp_path, open_db):
    db = tmp_path / "nulls.sqlite"
    with closing(sqlite3.connect(db)) as conn:
        conn.execute("CREATE TABLE t (v TEXT)")
        conn.execute("INSERT INTO t VALUES (NULL)")
        conn.commit()
    bare = tmp_path / "bare.sqlite"
    sqlite3.connect(bare).close()
    handle, bare_handle = open_db(db), open_db(bare)
    for embedder in (LexicalEmbedder(), _DownEmbedder()):
        assert sim_value_in(handle, embedder, "t", "v", "anything") == {
            "matches": [],
            "pool_size": 0,
            "prefiltered": False,
            "scoring": "embedding",
        }
        assert sim_columns(catalog(bare_handle), embedder, "anything") == {
            "matches": [],
            "scoring": "embedding",
        }


def test_sim_value_in_prefilters_huge_pools(tmp_path, open_db):
    db = tmp_path / "big.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (v TEXT)")
    conn.executemany(
        "INSERT INTO t VALUES (?)", [(f"entry number {i:05d}",) for i in range(10050)]
    )
    conn.commit()
    conn.close()
    got = sim_value_in(open_db(db), LexicalEmbedder(), "t", "v", "entry number 00042", k=2)
    assert got["pool_size"] == 10050
    assert got["prefiltered"] is True
    assert got["matches"][0]["value"] == "entry number 00042"
    assert got["matches"][0]["score"] == pytest.approx(1.0)


class _CountingLexical(LexicalEmbedder):
    """A lexical embedder of another class, as a remote one would be."""

    def __init__(self):
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return super().embed(texts)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["grade", "school", "Fresno", "K", "kinder garten", "é"]),
             min_size=1, max_size=12),
    st.integers(1, 6),
)
def test_a_kept_lexical_ranking_is_what_top_k_returns(queries, k):
    candidates = ["frpm.Low Grade", "frpm.High Grade", "schools.City Fresno", "schools.Phone"]
    for query in queries:
        got = toolbox._rank(LexicalEmbedder(), query, list(candidates), k)
        assert got == (top_k(LexicalEmbedder(), query, candidates, k), "embedding")
        got[0].clear()  # a caller's edits stay its own
    assert toolbox._lexical_top_k.cache_info().currsize <= toolbox.RANK_CACHE_SIZE


def test_a_repeated_lexical_ranking_embeds_nothing_and_stays_bounded(monkeypatch):
    toolbox._lexical_top_k.cache_clear()
    embedded = []
    lexical_embed = LexicalEmbedder.embed
    monkeypatch.setattr(
        LexicalEmbedder,
        "embed",
        lambda self, texts: embedded.append(len(texts)) or lexical_embed(self, texts),
    )
    candidates = ["frpm.Low Grade", "frpm.High Grade", "schools.City"]
    first = toolbox._rank(LexicalEmbedder(), "grade", candidates, 2)
    assert toolbox._rank(LexicalEmbedder(), "grade", candidates, 2) == first
    assert embedded == [4]
    # another k, query or candidate list is another ranking
    toolbox._rank(LexicalEmbedder(), "grade", candidates, 3)
    toolbox._rank(LexicalEmbedder(), "grade", candidates[:2], 2)
    assert embedded == [4, 4, 3]
    # least recently used first out
    for i in range(toolbox.RANK_CACHE_SIZE):
        toolbox._rank(LexicalEmbedder(), f"query {i}", candidates, 2)
    assert toolbox._lexical_top_k.cache_info().currsize == toolbox.RANK_CACHE_SIZE
    embedded.clear()
    toolbox._rank(LexicalEmbedder(), "grade", candidates, 2)
    toolbox._rank(LexicalEmbedder(), f"query {toolbox.RANK_CACHE_SIZE - 1}", candidates, 2)
    assert embedded == [4]


def test_rankings_shared_by_threads_stay_exact_and_bounded():
    toolbox._lexical_top_k.cache_clear()
    candidates = ["frpm.Low Grade", "frpm.High Grade", "schools.City", "schools.Phone"]
    queries = [f"grade {i}" for i in range(2 * toolbox.RANK_CACHE_SIZE)]
    expected = {q: top_k(LexicalEmbedder(), q, candidates, 2) for q in queries}
    mismatches, errors = [], []

    def work(offset):
        try:
            for i in range(3 * len(queries)):
                query = queries[(i * 7 + offset) % len(queries)]
                if toolbox._rank(LexicalEmbedder(), query, candidates, 2)[0] != expected[query]:
                    mismatches.append(query)
        except Exception as exc:  # a thread's exception would otherwise go unseen
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert (errors, mismatches) == ([], [])
    assert toolbox._lexical_top_k.cache_info().currsize <= toolbox.RANK_CACHE_SIZE


def test_an_embedder_that_is_not_the_lexical_one_is_asked_every_time():
    toolbox._lexical_top_k.cache_clear()
    remote = _CountingLexical()
    candidates = ["frpm.Low Grade", "frpm.High Grade"]
    for _ in range(3):
        assert toolbox._rank(remote, "grade", candidates, 2) == (
            top_k(LexicalEmbedder(), "grade", candidates, 2),
            "embedding",
        )
    assert remote.calls == 3
    assert toolbox._lexical_top_k.cache_info().currsize == 0
    # the lexical fallback of a failing endpoint is kept like any lexical ranking
    assert toolbox._rank(_DownEmbedder(), "grade", candidates, 2)[1] == "lexical"
    assert toolbox._lexical_top_k.cache_info().currsize == 1


def test_a_table_whose_name_only_looks_reserved_is_in_the_catalog(tmp_path, open_db):
    db = tmp_path / "lookalike.sqlite"
    with closing(sqlite3.connect(db)) as conn:
        conn.execute("CREATE TABLE ledger (amount INTEGER)")
        conn.execute("CREATE TABLE sqlites (code TEXT)")
        conn.execute('CREATE TABLE "SQLiteData" (note TEXT)')
        conn.execute("CREATE TABLE seq (id INTEGER PRIMARY KEY AUTOINCREMENT)")
        conn.execute("INSERT INTO sqlites VALUES ('X1')")
        conn.execute("INSERT INTO seq DEFAULT VALUES")  # fills sqlite_sequence
        conn.commit()
        with pytest.raises(sqlite3.OperationalError, match="reserved"):
            conn.execute("CREATE TABLE SQLITE_x (a)")  # the prefix is reserved in any case
    handle = open_db(db)
    cat = catalog(handle)
    assert [t.name for t in cat.tables] == ["SQLiteData", "ledger", "seq", "sqlites"]
    assert info(handle, cat, "sqlites")["row_count"] == 1
    assert info(handle, cat, "SQLiteData", "note")["declared_type"] == "TEXT"
    matches = sim_columns(cat, LexicalEmbedder(), "sqlites code", k=1)["matches"]
    assert matches == [{"table": "sqlites", "column": "code", "score": matches[0]["score"]}]


# --- sim_columns ---


def test_sim_columns_ranks_grade_columns_for_grade_span(cat):
    got = sim_columns(cat, LexicalEmbedder(), "grade span", k=4)
    names = {(m["table"], m["column"]) for m in got["matches"]}
    assert ("frpm", "Low Grade") in names
    assert ("frpm", "High Grade") in names
    scores = [m["score"] for m in got["matches"]]
    assert scores == sorted(scores, reverse=True)


def test_sim_columns_k_caps_results(cat):
    got = sim_columns(cat, LexicalEmbedder(), "school", k=3)
    assert len(got["matches"]) == 3
    total_columns = sum(len(t.columns) for t in cat.tables)
    everything = sim_columns(cat, LexicalEmbedder(), "school", k=999)
    assert len(everything["matches"]) == total_columns


def test_sim_columns_lexical_fallback(cat):
    got = sim_columns(cat, _DownEmbedder(), "grade", k=5)
    assert got["scoring"] == "lexical"
    names = {(m["table"], m["column"]) for m in got["matches"]}
    assert ("frpm", "Low Grade") in names
    for query in ("grade", "charter school", "free meal count"):
        down = sim_columns(cat, _DownEmbedder(), query, k=5)
        assert down == {**sim_columns(cat, LexicalEmbedder(), query, k=5), "scoring": "lexical"}


# --- determinism across repeated execution ---


def test_probes_are_deterministic(handle, cat):
    emb = LexicalEmbedder()
    probes = [
        lambda: value_in(handle, "frpm", "Low Grade", "K"),
        lambda: uniq_value(handle, "frpm", "School Type"),
        lambda: head(handle, "schools", 4),
        lambda: random_rows(handle, "schools", 3, seed=42),
        lambda: if_null(handle, "schools", "Phone"),
        lambda: info(handle, cat, "schools", "Magnet"),
        lambda: sim_value_in(handle, emb, "schools", "City", "Oakland", k=3),
        lambda: sim_columns(cat, emb, "free meals", k=5),
    ]
    for probe in probes:
        assert probe() == probe()


# --- dispatch ---


def test_dispatch_success_is_standard_feedback(ctx):
    fb = dispatch(ToolCall("value_in", {"table": "frpm", "column": "Low Grade", "value": "K"}), ctx)
    assert fb.kind == "standard"
    assert fb.result == {"exists": True, "match_count": 5}
    assert fb.message == ""


def test_dispatch_unknown_tool_is_corrective(ctx):
    fb = dispatch(ToolCall("frobnicate", {"table": "frpm"}), ctx)
    assert fb.kind == "corrective"
    assert "unknown tool" in fb.message
    assert "frobnicate" in fb.message


def test_dispatch_missing_and_extra_args(ctx):
    fb = dispatch(ToolCall("value_in", {"table": "frpm", "column": "Low Grade"}), ctx)
    assert fb.kind == "corrective"
    assert "value" in fb.message
    fb = dispatch(
        ToolCall(
            "value_in",
            {"table": "frpm", "column": "Low Grade", "value": "K", "bogus": 1},
        ),
        ctx,
    )
    assert fb.kind == "corrective"
    assert "bogus" in fb.message


def test_dispatch_bad_types_are_corrective(ctx):
    fb = dispatch(ToolCall("head", {"table": "frpm", "n": "three"}), ctx)
    assert fb.kind == "corrective"
    fb = dispatch(ToolCall("head", {"table": "frpm", "n": 0}), ctx)
    assert fb.kind == "corrective"
    fb = dispatch(ToolCall("head", {"table": 7, "n": 2}), ctx)
    assert fb.kind == "corrective"


def test_dispatch_sql_error_carries_engine_text(ctx, schools_db):
    # oracle: the engine's own message for the same broken probe
    conn = sqlite3.connect(schools_db)
    try:
        conn.execute("SELECT COUNT(*) FROM frpm WHERE `No Such` = ?", ("x",))
        raise AssertionError("should have failed")
    except sqlite3.OperationalError as exc:
        engine_text = str(exc)
    finally:
        conn.close()

    fb = dispatch(ToolCall("value_in", {"table": "frpm", "column": "No Such", "value": "x"}), ctx)
    assert fb.kind == "corrective"
    assert engine_text in fb.message
    assert "no such column" in fb.message


@pytest.mark.parametrize(
    "tool, args",
    [
        ("value_in", {"table": "frpm", "column": "CDSCode", "value": 2**63}),
        ("value_in", {"table": "frpm", "column": "CDSCode", "value": -(2**63) - 1}),
        ("head", {"table": "frpm", "n": 2**63}),
        ("uniq_value", {"table": "frpm", "column": "CDSCode", "limit": 2**63}),
    ],
)
def test_dispatch_integer_beyond_64_bits_is_corrective(ctx, tool, args):
    # a model may copy a 20-digit ID from a question; sqlite3 cannot bind it
    fb = dispatch(ToolCall(tool, args), ctx)
    assert fb.kind == "corrective"
    assert "too large" in fb.message


def test_dispatch_unknown_table_is_corrective(ctx):
    fb = dispatch(ToolCall("info", {"table": "ghost"}), ctx)
    assert fb.kind == "corrective"
    assert "ghost" in fb.message


def test_dispatch_none_is_empty_standard(ctx):
    fb = dispatch(ToolCall("none", {}), ctx)
    assert fb.kind == "standard"
    assert fb.result == {}
    assert fb.message == ""
    fb = dispatch(ToolCall("none", {"x": 1}), ctx)
    assert fb.kind == "corrective"


def test_dispatch_draws_and_records_seed_in_live_mode(handle, cat):
    ctx_live = ToolContext(
        handle=handle, catalog=cat, embedder=LexicalEmbedder(), rng=random.Random(123)
    )
    call = ToolCall("random", {"table": "frpm", "n": 2})
    fb = dispatch(call, ctx_live)
    assert fb.kind == "standard"
    assert "seed" in call.args  # injected so the recorded turn replays exactly
    assert fb.result["seed"] == call.args["seed"]
    replay = dispatch(ToolCall("random", {"table": "frpm", "n": 2, "seed": call.args["seed"]}), ctx_live)
    assert replay.result["rows"] == fb.result["rows"]


def test_dispatch_results_are_json_native(ctx):
    import json

    for call in [
        ToolCall("head", {"table": "frpm", "n": 2}),
        ToolCall("uniq_value", {"table": "frpm", "column": "High Grade"}),
        ToolCall("if_null", {"table": "schools", "column": "Magnet"}),
    ]:
        fb = dispatch(call, ctx)
        assert fb.kind == "standard"
        json.dumps(fb.result)  # must not raise


# --- guidance ---


def test_registry_covers_all_nine_tools():
    assert TOOL_NAMES == tuple(TOOLS)
    assert len(TOOLS) == 9 and TOOL_NAMES[-1] == "none"
    for name, tool in TOOLS.items():
        assert tool.description, name
        assert tool.scenario, name
        if name == "none":
            assert not tool.required and not tool.optional and tool.reroute is None
        else:
            assert tool.required, name
            assert tool.reroute and tool.reroute.split()[0] in TOOLS, name
            # run passes the validated args by name, so the table's parameter
            # names are the handler's, and no required one has a default
            handler = getattr(toolbox, "random_rows" if name == "random" else name)
            params = inspect.signature(handler).parameters
            probe_params = [p for p in params if p not in ("handle", "catalog", "embedder")]
            assert probe_params == [*tool.required, *tool.optional], name
            assert all(params[p].default is inspect.Parameter.empty for p in tool.required)


def test_guidance_is_deterministic_and_complete():
    text = render_guidance()
    assert text == render_guidance()
    for name in TOOL_NAMES:
        # standalone mentions only: "value_in" must not also count the
        # occurrence inside "sim_value_in"
        hits = re.findall(rf"(?<![A-Za-z_]){name}(?![A-Za-z_])", text)
        assert len(hits) == 1, f"{name} mentioned {len(hits)} times"
    # every required parameter is listed
    assert "query_text" in text
    assert "table" in text


# --- random_rows oracle, per-database memo, prefilter ---


def _old_random_rows(handle, table, n, seed):
    """The full-scan implementation random_rows replaced: the reference."""
    q_table = f"`{table}`"
    total = handle.query(f"SELECT COUNT(*) FROM {q_table}").rows[0][0]
    k = min(n, total)
    chosen = set(random.Random(seed).sample(range(total), k)) if k else set()
    rs = handle.query(f"SELECT * FROM {q_table}")
    picked = [row for i, row in enumerate(rs.rows) if i in chosen]
    return {"columns": rs.columns, "rows": [list(r) for r in picked], "seed": seed}


@pytest.fixture()
def sampling_db(tmp_path):
    db = tmp_path / "sampling.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE gaps (id INTEGER PRIMARY KEY, label TEXT, score REAL)")
    conn.executemany(
        "INSERT INTO gaps VALUES (?, ?, ?)",
        [(i * 3, f"row {i}", i / 7) for i in range(1, 301)],
    )
    conn.execute("DELETE FROM gaps WHERE id % 4 = 0 OR id BETWEEN 300 AND 420")
    conn.execute("CREATE TABLE keyed (k TEXT PRIMARY KEY, v INTEGER) WITHOUT ROWID")
    conn.executemany(
        "INSERT INTO keyed VALUES (?, ?)",
        [(f"key {(i * 37) % 101:03d}", i) for i in range(101)],
    )
    conn.execute("CREATE TABLE empty (a TEXT, b BLOB)")
    conn.execute("CREATE VIEW high AS SELECT label, score FROM gaps WHERE score > 10")
    conn.commit()
    conn.close()
    return db


def test_random_rows_matches_full_scan_oracle(sampling_db, open_db):
    handle, oracle_handle = open_db(sampling_db), open_db(sampling_db)
    fetched = []
    query = handle.query

    def counting_query(sql, params=()):
        rs = query(sql, params)
        fetched.append(len(rs.rows))
        return rs

    handle.query = counting_query
    for table in ("gaps", "keyed", "empty", "high"):
        total = query(f"SELECT COUNT(*) FROM `{table}`").rows[0][0]
        for seed in range(25):
            for n in (1, 2, 5, 17, total, total + 5):
                n = max(n, 1)
                fetched.clear()
                got = random_rows(handle, table, n, seed)
                assert got == _old_random_rows(oracle_handle, table, n, seed)
                # the count, then at most n rows: no other row reaches Python
                assert sum(fetched) <= 1 + min(n, total)


def test_random_rows_empty_table_keeps_columns(sampling_db, open_db):
    got = random_rows(open_db(sampling_db), "empty", 3, seed=4)
    assert got == {"columns": ["a", "b"], "rows": [], "seed": 4}


def test_blob_cells_render_as_hex(tmp_path, open_db):
    db = tmp_path / "blob.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE b (id INTEGER, data BLOB)")
    conn.execute("INSERT INTO b VALUES (1, x'00ff10')")
    conn.commit()
    conn.close()
    handle = open_db(db)
    want = {"columns": ["id", "data"], "rows": [[1, "0x00ff10"]]}
    assert head(handle, "b", 5) == want
    assert random_rows(handle, "b", 5, seed=2) == {**want, "seed": 2}


def test_infinite_cells_reach_the_trace_as_sqlite_text(tmp_path, open_db):
    db = tmp_path / "inf.sqlite"
    with closing(sqlite3.connect(db)) as conn:
        conn.execute("CREATE TABLE m (x REAL)")
        conn.executemany("INSERT INTO m VALUES (?)", [(float("inf"),), (float("-inf"),), (1.5,)])
        conn.commit()
    handle = open_db(db)
    context = ToolContext(
        handle=handle, catalog=catalog(handle), embedder=LexicalEmbedder(), rng=random.Random(0)
    )
    text = "Which readings are infinite?"
    doc = CoTFDocument(Question("q", "inf", text), token_refine(text, []))
    for call in (ToolCall("head", {"table": "m", "n": 3}), ToolCall("random", {"table": "m", "n": 3})):
        append_turn(doc, 0, Turn("t", call, dispatch(call, context)))

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    trace = json.loads(serialize(doc), parse_constant=refuse)
    rows = [turn["feedback"]["result"]["rows"] for turn in trace["turns"][0]]
    assert rows == [[["Inf"], ["-Inf"], [1.5]]] * 2
    # the text uniq_value and sim_value_in show for the same cells
    assert uniq_value(handle, "m", "x")["samples"] == ["-Inf", "1.5", "Inf"]


def _memo_db(tmp_path):
    db = tmp_path / "memo.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (name TEXT, qty INTEGER)")
    conn.executemany(
        "INSERT INTO t VALUES (?, ?)",
        [("Fresno", 1), ("FRESNO", None), ("fresno", 3), ("Oakland", 4), ("Fremont", None)],
    )
    conn.commit()
    conn.close()
    return db


def test_memoized_probes_issue_no_query_on_a_second_handle(tmp_path, counted, open_db):
    db = _memo_db(tmp_path)
    first = open_db(db)
    cat_ = catalog(first)
    probes = [
        lambda h: uniq_value(h, "t", "name", limit=3),
        lambda h: if_null(h, "t", "qty"),
        lambda h: info(h, cat_, "t"),
        lambda h: info(h, cat_, "t", "qty"),
        lambda h: sim_value_in(h, LexicalEmbedder(), "t", "name", "fresno", k=3),
    ]
    cold = [probe(first) for probe in probes]
    counted.clear()
    second = open_db(db)
    assert [probe(second) for probe in probes] == cold
    assert counted == []
    # the uncached tools still reach the engine
    value_in(second, "t", "name", "Fresno")
    assert len(counted) == 1


def _old_prefilter(query_text, pool):
    query_grams = trigrams(query_text)
    order = sorted(
        range(len(pool)), key=lambda i: (-len(query_grams & trigrams(pool[i])), pool[i])
    )
    return [pool[i] for i in order]


# "\n" is the prefilter's separator; "İ" lowercases to two characters and
# "ß", "Σ" do not round-trip through case, so offsets must follow the
# lowercased text; "i" and "\u0307" spell the lowercased "İ" by hand
PREFILTER_TEXT = st.text(
    st.sampled_from(["a", "A", " ", "\n", "İ", "i", "\u0307", "ß", "Σ", "σ"]), max_size=6
)


@st.composite
def pools_and_queries(draw):
    pool = draw(st.lists(PREFILTER_TEXT | st.sampled_from(["", "a", "aa", "AA", "İ", "ß"])))
    # a query cut from the joined pool shares grams with several values, and
    # some of them straddle a separator
    joined = "\n".join(pool)
    start = draw(st.integers(0, len(joined)))
    cut = joined[start : start + draw(st.integers(0, 8))]
    return pool, draw(st.just(cut) | PREFILTER_TEXT)


@settings(max_examples=300, deadline=None)
@given(pools_and_queries())
def test_prefilter_matches_the_overlap_sort_oracle(case):
    pool, query = case
    assert _prefilter(query, pool) == _old_prefilter(query, pool)


def test_sim_value_in_six_decimal_tie_keeps_text_order(tmp_path, open_db):
    db = _memo_db(tmp_path)
    cold = sim_value_in(open_db(db), LexicalEmbedder(), "t", "name", "fresno", k=3)
    assert [m["value"] for m in cold["matches"]] == ["FRESNO", "Fresno", "fresno"]
    assert len({m["score"] for m in cold["matches"]}) == 1
    warm = sim_value_in(open_db(db), LexicalEmbedder(), "t", "name", "fresno", k=3)
    assert warm == cold
