"""Read-only SQLite adapter: open/catalog/query contracts, and the mapped
read path: a handle maps its file and still sees every committed change."""

from __future__ import annotations

import hashlib
import os
import re
import sqlite3
import threading
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diver import database
from diver.database import (
    ColumnInfo,
    DatabaseHandle,
    SchemaCatalog,
    TableInfo,
    catalog,
    db_path_for,
    description_dir_for,
    open_database,
    parse_description_file,
    sql_tokens,
)
from diver.errors import DiverError, SqlError
from diver.toolbox import uniq_value, value_in


@pytest.fixture(autouse=True)
def _close_opened_handles(monkeypatch):
    """The tests here open handles the way a caller does and drop them; each
    one is closed when its test ends instead of waiting, with its file
    mapped, for garbage collection."""
    opened = []
    real_init = DatabaseHandle.__init__

    def tracking_init(self, path):
        real_init(self, path)
        opened.append(self)

    monkeypatch.setattr(DatabaseHandle, "__init__", tracking_init)
    yield
    for handle in opened:
        handle.close()


def _oracle_catalog(path: Path) -> dict[str, list[tuple[str, str]]]:
    """Independent PRAGMA walk with raw sqlite3: table -> columns."""
    conn = sqlite3.connect(path)
    out = {}
    try:
        # SQLite reserves names that begin with sqlite_, in any ASCII case
        tables = [
            r[0]
            for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
            )
            if not re.match("(?ai)sqlite_", r[0])
        ]
        for t in tables:
            quoted = '"' + t.replace('"', '""') + '"'
            out[t] = [(r[1], r[2]) for r in conn.execute(f"PRAGMA table_info({quoted})")]
    finally:
        conn.close()
    return out


def test_open_missing_file(tmp_path):
    with pytest.raises(DiverError, match=r"^database file does not exist: .*nope\.sqlite$"):
        open_database(tmp_path / "nope.sqlite")


def test_open_garbage_file(tmp_path):
    bad = tmp_path / "garbage.sqlite"
    bad.write_bytes(b"this is not a database at all" * 10)
    with pytest.raises(DiverError, match=r"^cannot read .*garbage\.sqlite: "):
        open_database(bad)


def test_query_basic_and_column_order(schools_db):
    handle = open_database(schools_db)
    rs = handle.query('SELECT City, School FROM schools WHERE "Magnet" = ? ORDER BY School', (1,))
    assert rs.columns == ["City", "School"]
    assert rs.rows == [
        ("Fresno", "Dover Charter Academy"),
        ("Sacramento", "Golden Hills Middle"),
        ("Sacramento", "Kestrel High"),
    ]
    assert rs.elapsed >= 0.0


def test_query_binds_parameters_not_interpolates(schools_db):
    handle = open_database(schools_db)
    # a value full of SQL metacharacters must be treated as data
    rs = handle.query(
        "SELECT COUNT(*) FROM schools WHERE School = ?",
        ("x'; DROP TABLE schools; --",),
    )
    assert rs.rows == [(0,)]
    assert handle.query("SELECT COUNT(*) FROM schools").rows == [(12,)]


def test_write_statements_rejected(schools_db):
    handle = open_database(schools_db)
    for sql, keyword in [
        ("INSERT INTO schools (CDSCode) VALUES ('x')", "insert"),
        ("UPDATE schools SET City = 'nowhere'", "update"),
        ("DELETE FROM schools", "delete"),
        ("DROP TABLE schools", "drop"),
        ("CREATE TABLE t (x)", "create"),
        ("PRAGMA user_version = 7", "pragma"),
        ("  -- sneaky comment\n  UPDATE schools SET City = 'x'", "update"),
    ]:
        refused = rf"^only read statements are allowed, got '{keyword}'$"
        with pytest.raises(SqlError, match=refused):
            handle.query(sql)


def test_sql_error_carries_engine_message_verbatim(schools_db):
    # oracle: raw sqlite3 produces the reference message for the same statement
    conn = sqlite3.connect(schools_db)
    try:
        conn.execute("SELECT missing_col FROM schools")
        raise AssertionError("statement should have failed")
    except sqlite3.OperationalError as exc:
        reference = str(exc)
    finally:
        conn.close()

    handle = open_database(schools_db)
    with pytest.raises(SqlError) as err:
        handle.query("SELECT missing_col FROM schools")
    assert str(err.value) == reference
    assert "no such column" in str(err.value)


@pytest.mark.parametrize("sql", ["SELECT 1; SELECT 2", "SELECT 1\x00", "SELECT '\ud800'"])
def test_every_failure_a_statement_can_cause_is_a_sql_error(schools_db, sql):
    with pytest.raises(SqlError):
        open_database(schools_db).query(sql)


def _awkward_name_db(path: Path) -> Path:
    # table and column names holding a space, a backtick, a double quote and é
    conn = sqlite3.connect(path)
    try:
        conn.execute('CREATE TABLE "fee `tally"" é" ("a b" TEXT, `c"d` INTEGER, "é" REAL)')
        conn.executemany('INSERT INTO "fee `tally"" é" VALUES (?, ?, ?)', [("x", 1, 2.0)] * 3)
        conn.commit()
    finally:
        conn.close()
    return path


def test_catalog_matches_pragma_oracle(schools_db, eval_db, tmp_path):
    awkward = _awkward_name_db(tmp_path / "awkward.sqlite")
    assert list(_oracle_catalog(awkward)) == ['fee `tally" é']
    for path in (schools_db, eval_db, awkward):
        handle = open_database(path)
        cat = catalog(handle)
        oracle = _oracle_catalog(path)
        assert sorted(t.name for t in cat.tables) == sorted(oracle)
        for table in cat.tables:
            assert [(c.name, c.declared_type) for c in table.columns] == oracle[table.name]


def test_a_cold_catalog_reads_only_the_schema(schools_db, eval_db, monkeypatch):
    monkeypatch.setattr(database, "_memo", database._Memo())
    for path in (schools_db, eval_db):
        handle = open_database(path)
        ran = []
        handle._conn.set_trace_callback(ran.append)
        catalog(handle)
        assert ran[0].startswith("SELECT name FROM sqlite_master ")
        # pragma_table_info traces its inner PRAGMA as a "-- " line of its own
        schema_reads = ("SELECT name, type FROM pragma_table_info(", "-- PRAGMA table_info=")
        assert len(ran) > 1 and all(sql.startswith(schema_reads) for sql in ran[1:])


def test_catalog_leaves_out_a_table_the_engine_cannot_describe(unloadable_db_root, caplog):
    path = db_path_for(unloadable_db_root, "eval_fixture")
    with closing(sqlite3.connect(path)) as conn:
        assert ("vt",) in conn.execute("SELECT name FROM sqlite_master").fetchall()
    with caplog.at_level("WARNING", logger="diver.database"):
        cat = catalog(open_database(path))
    assert [t.name for t in cat.tables] == ["orders", "pad"]
    assert [r.getMessage() for r in caplog.records] == [
        "leaving table 'vt' out of the catalog: no such module: nosuchmod"
    ]


def test_catalog_warns_once_per_file_and_table(unloadable_db_root, caplog):
    path = db_path_for(unloadable_db_root, "eval_fixture")
    with caplog.at_level("WARNING", logger="diver.database"):
        for _ in range(3):
            with closing(open_database(path)) as handle:
                # the memo keeps no errors, so each build describes vt again
                assert [t.name for t in catalog(handle).tables] == ["orders", "pad"]
    assert [r.getMessage() for r in caplog.records] == [
        "leaving table 'vt' out of the catalog: no such module: nosuchmod"
    ]


def test_catalog_of_an_unchanged_file_runs_no_statement(schools_db):
    first = catalog(open_database(schools_db))
    handle = open_database(schools_db)
    ran = []
    handle._conn.set_trace_callback(ran.append)
    assert catalog(handle) == first
    assert ran == []


def test_catalog_descriptions_joined(schools_db, schools_desc_dir):
    handle = open_database(schools_db)
    cat = catalog(handle, schools_desc_dir)
    frpm = cat.table("frpm")
    low = frpm.column("Low Grade")
    assert "lowest grade level" in low.description
    assert "K means kindergarten" in low.description
    st = frpm.column("School Type")
    assert "SSS means State Special Schools" in st.description
    # schools.csv names its columns in the wrong case on purpose
    magnet = cat.table("schools").column("Magnet")
    assert "magnet program" in magnet.description
    # no description file entry -> None stays None
    assert cat.table("schools").column("Phone").description is not None  # phone has one
    cat_no_desc = catalog(handle)
    assert cat_no_desc.table("frpm").column("Low Grade").description is None


def test_catalog_lookup_is_case_insensitive(schools_db):
    handle = open_database(schools_db)
    cat = catalog(handle)
    assert cat.table("FRPM").name == "frpm"
    assert cat.table("frpm").column("low grade").name == "Low Grade"
    assert cat.table("missing") is None
    assert cat.table("frpm").column("missing") is None


def _scan_table(cat: SchemaCatalog, name):
    # the linear scan SchemaCatalog.table used to make on every call
    if not isinstance(name, str):
        return None
    return next((t for t in cat.tables if t.name.lower() == name.lower()), None)


def _scan_column(table: TableInfo, name):
    # the linear scan TableInfo.column used to make on every call
    if not isinstance(name, str):
        return None
    return next((c for c in table.columns if c.name.lower() == name.lower()), None)


# names that clash only in case, in ASCII and beyond it
_NAMES = st.text(alphabet="aAbBéÉ", min_size=1, max_size=3)


@given(
    tables=st.lists(st.tuples(_NAMES, st.lists(_NAMES, max_size=4)), max_size=4),
    data=st.data(),
)
def test_catalog_lookups_match_linear_scans(tables, data):
    cat = SchemaCatalog(
        [TableInfo(t, [ColumnInfo(c, "TEXT") for c in cols]) for t, cols in tables]
    )
    known = [t for t, _ in tables] + [c for _, cols in tables for c in cols]
    probes = [data.draw(_NAMES), 7, None]
    if known:
        name = data.draw(st.sampled_from(known))
        probes += [name, name.upper(), name.swapcase()]
    for probe in probes:
        assert cat.table(probe) is _scan_table(cat, probe)
        for table in cat.tables:
            assert table.column(probe) is _scan_column(table, probe)
    assert cat.names == {n.lower() for n in known}


def test_catalog_without_a_description_directory_logs_nothing(schools_db, tmp_path, caplog):
    handle = open_database(schools_db)
    with caplog.at_level("DEBUG"):
        cat = catalog(handle, tmp_path / "database_description")
    assert caplog.records == []
    assert cat.table("frpm").column("Low Grade").description is None


def test_malformed_description_csv_is_nonfatal(schools_db, tmp_path, caplog):
    desc = tmp_path / "database_description"
    desc.mkdir()
    (desc / "frpm.csv").write_bytes(b"\x00\xff\x00\xff binary junk")
    (desc / "schools.csv").write_text(
        "wrong_header,foo\nMagnet,whether magnet\n", encoding="utf-8"
    )
    handle = open_database(schools_db)
    with caplog.at_level("WARNING"):
        cat = catalog(handle, desc)
    assert cat.table("frpm") is not None
    assert cat.table("frpm").column("Low Grade").description is None
    assert any("description" in r.message.lower() for r in caplog.records)


def test_a_description_row_without_a_column_name_is_skipped(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(
        "original_column_name,column_description,value_description\n"
        ",orphan description,\n"
        "  ,blank name,\n"
        "City,the city,\n",
        encoding="utf-8",
    )
    assert parse_description_file(p) == {"city": "the city"}


def test_catalog_reads_only_the_csv_files_of_the_description_directory(
    schools_db, tmp_path, caplog
):
    desc = tmp_path / "database_description"
    desc.mkdir()
    header = "original_column_name,column_description,value_description\n"
    (desc / "frpm.txt").write_text(header + "Low Grade,not read,\n", encoding="utf-8")
    (desc / "frpm.CSV").write_text(header + "Low Grade,lowest grade,\n", encoding="utf-8")
    with closing(open_database(schools_db)) as handle, caplog.at_level("DEBUG"):
        cat = catalog(handle, desc)
    assert cat.table("frpm").column("Low Grade").description == "lowest grade"
    assert caplog.records == []


def test_parse_description_file_raises_on_junk(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("no_useful_header\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DiverError, match=r"t\.csv: missing original_column_name header$"):
        parse_description_file(p)


def test_statement_timeout_interrupts(eval_db, monkeypatch):
    handle = open_database(eval_db)
    # the deadline is read as each statement starts, not when the handle opens
    monkeypatch.setattr(database, "STATEMENT_TIMEOUT", 0.05)
    with pytest.raises(SqlError) as err:
        handle.query("SELECT COUNT(*) FROM pad a, pad b, pad c WHERE a.x + b.x + c.x > 1")
    assert "interrupt" in str(err.value).lower()
    # the handle still works afterwards
    assert handle.query("SELECT COUNT(*) FROM pad").rows == [(2500,)]


def test_probing_leaves_file_bytes_untouched(schools_db):
    before = hashlib.sha256(Path(schools_db).read_bytes()).hexdigest()
    handle = open_database(schools_db)
    catalog(handle)
    handle.query("SELECT * FROM frpm")
    handle.query('SELECT DISTINCT "Low Grade" FROM frpm')
    with pytest.raises(SqlError, match=r"^only read statements are allowed, got 'delete'$"):
        handle.query("DELETE FROM frpm")
    after = hashlib.sha256(Path(schools_db).read_bytes()).hexdigest()
    assert before == after


def test_bird_layout_helpers(db_root):
    assert db_path_for(db_root, "california_schools") == (
        db_root / "california_schools" / "california_schools.sqlite"
    )
    assert description_dir_for(db_root, "california_schools") == (
        db_root / "california_schools" / "database_description"
    )


def test_handle_reports_path(schools_db):
    handle = open_database(schools_db)
    assert isinstance(handle, DatabaseHandle)
    assert Path(handle.path) == Path(schools_db)


def test_execute_fetches_rows_under_the_statement_deadline(schools_db, monkeypatch):
    monkeypatch.setattr(database, "STATEMENT_TIMEOUT", 0.2)
    handle = open_database(schools_db)
    # the first row comes at once, the rest never end: only a deadline that
    # still holds while rows are fetched can stop it
    with pytest.raises(SqlError, match="interrupt"):
        handle.query(
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c)"
            " SELECT x FROM c WHERE x % 1000 = 1"
        )


def _small_db(path: Path, rows) -> Path:
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (v TEXT)")
    conn.executemany("INSERT INTO t VALUES (?)", [(r,) for r in rows])
    conn.commit()
    conn.close()
    return path


def test_memo_query_hit_issues_no_query(tmp_path, counted):
    db = _small_db(tmp_path / "m.sqlite", ["b", "a", "c"])
    sql = "SELECT v FROM t ORDER BY v"
    first = open_database(db).memo_query(sql)
    assert first.rows == [("a",), ("b",), ("c",)]
    second = open_database(db).memo_query(sql)
    assert (second.columns, second.rows) == (first.columns, first.rows)
    assert counted == [sql]
    # a caller may change what it got without touching the memo
    second.rows.clear()
    assert open_database(db).memo_query(sql).rows == first.rows


def test_memo_query_misses_on_a_rewritten_file(tmp_path, counted):
    db = _small_db(tmp_path / "m.sqlite", ["old"])
    sql = "SELECT v FROM t"
    assert open_database(db).memo_query(sql).rows == [("old",)]
    before = db.stat().st_mtime_ns
    db.unlink()
    _small_db(db, ["new"])
    # a later rewrite: the file's mtime moves even on a coarse clock
    os.utime(db, ns=(before + 10**9, before + 10**9))
    assert open_database(db).memo_query(sql).rows == [("new",)]
    assert counted == [sql, sql]


def test_memo_query_never_keeps_errors(tmp_path, counted):
    db = _small_db(tmp_path / "m.sqlite", ["x"])
    handle = open_database(db)
    for _ in range(3):
        with pytest.raises(SqlError, match="no such column: nope"):
            handle.memo_query("SELECT nope FROM t")
    assert len(counted) == 3


def test_memo_query_row_bound_evicts_least_recent(tmp_path, counted, monkeypatch):
    monkeypatch.setattr(database, "MEMO_ROWS", 5)
    db = _small_db(tmp_path / "m.sqlite", ["a", "b", "c", "d", "e", "f"])
    handle = open_database(db)
    first, second = "SELECT v FROM t LIMIT 3", "SELECT v FROM t LIMIT 2 OFFSET 3"
    handle.memo_query(first)
    handle.memo_query(second)
    handle.memo_query(first)  # 3 + 2 rows fit; both hit
    assert counted == [first, second]
    third = "SELECT v FROM t LIMIT 1 OFFSET 5"
    handle.memo_query(third)  # 6 rows: the least recent, `second`, goes
    assert database._memo.rows <= 5
    handle.memo_query(first)
    handle.memo_query(second)
    assert counted == [first, second, third, second]
    # a result larger than the whole bound is never kept
    everything = "SELECT v FROM t"
    handle.memo_query(everything)
    handle.memo_query(everything)
    assert counted[-2:] == [everything, everything]
    assert database._memo.rows <= 5


def test_memo_query_keys_each_parameter_with_its_type(tmp_path):
    # SQLite compares 1 with the text '1' and 1.0 with '1.0', though 1 == 1.0
    handle = open_database(_small_db(tmp_path / "m.sqlite", ["1", "1", "1.0"]))
    sql = "SELECT COUNT(*) FROM t WHERE v = ?"
    for value, count in ((1, 2), (1.0, 1), (True, 2), ("1.0", 1)):
        assert handle.memo_query(sql, (value,)).rows == [(count,)]
        assert handle.query(sql, (value,)).rows == [(count,)]


def test_memo_query_row_bound_holds_over_every_file(tmp_path, counted, monkeypatch):
    monkeypatch.setattr(database, "MEMO_ROWS", 5)
    one = open_database(_small_db(tmp_path / "one.sqlite", ["a", "b", "c"]))
    two = open_database(_small_db(tmp_path / "two.sqlite", ["d", "e", "f"]))
    sql = "SELECT v FROM t ORDER BY v"
    one.memo_query(sql)
    two.memo_query(sql)  # 3 + 3 rows: the least recent, from the other file, goes
    assert database._memo.rows <= 5
    assert two.memo_query(sql).rows == [("d",), ("e",), ("f",)]
    assert one.memo_query(sql).rows == [("a",), ("b",), ("c",)]
    assert counted == [sql, sql, sql]


def test_handle_answers_only_in_the_thread_that_opened_it(schools_db):
    handle = open_database(schools_db)
    sql = "SELECT COUNT(*) FROM frpm"
    raised = []

    def elsewhere():
        try:
            handle.query(sql)
        except SqlError as exc:
            raised.append(str(exc))

    thread = threading.Thread(target=elsewhere)
    thread.start()
    thread.join()
    assert len(raised) == 1
    assert "can only be used in that same thread" in raised[0]
    assert handle.query(sql).rows == [(12,)]


def test_handle_maps_its_file(schools_db):
    handle = open_database(schools_db)
    (mapped,) = handle._conn.execute("PRAGMA mmap_size").fetchone()
    # SQLite clamps the request to its build limit, which may be lower
    assert 0 < mapped <= database.MMAP_BYTES


def _padded_db(path: Path, n: int) -> Path:
    # each row fills about a tenth of a 4 KiB page, so n rows span many pages
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT, pad TEXT)")
    conn.executemany(
        "INSERT INTO t VALUES (?, ?, ?)", [(i, f"v{i}", "x" * 400) for i in range(n)]
    )
    conn.commit()
    conn.close()
    return path


def test_mapped_handle_sees_a_change_committed_between_statements(tmp_path):
    db = _padded_db(tmp_path / "w.sqlite", 2000)
    handle = open_database(db)
    sql = "SELECT v FROM t WHERE id IN (0, 1999) ORDER BY id"
    assert handle.query(sql).rows == [("v0",), ("v1999",)]
    writer = sqlite3.connect(db)
    try:
        writer.execute("UPDATE t SET v = 'changed' WHERE id = 1999")
        writer.commit()
    finally:
        writer.close()
    assert handle.query(sql).rows == [("v0",), ("changed",)]


def test_mapped_handle_reads_a_file_shrunk_between_statements(tmp_path):
    db = _padded_db(tmp_path / "s.sqlite", 5000)
    handle = open_database(db)
    assert handle.query("SELECT COUNT(*), SUM(LENGTH(pad)) FROM t").rows == [(5000, 2_000_000)]
    size = db.stat().st_size
    writer = sqlite3.connect(db)
    try:
        writer.execute("DELETE FROM t WHERE id >= 100")
        writer.commit()
        writer.execute("VACUUM")
    finally:
        writer.close()
    assert db.stat().st_size < size // 10
    assert handle.query("SELECT COUNT(*), SUM(LENGTH(pad)) FROM t").rows == [(100, 40_000)]
    assert handle.query("SELECT id FROM t ORDER BY id DESC LIMIT 1").rows == [(99,)]


# --- the SQL tokenizer ---


def _loop_tokenize(sql: str) -> list[tuple[str, str]]:
    """The character loop eval used before sql_tokens, kept as the oracle:
    (kind, value) tokens, or SqlError."""
    word_re = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
    num_re = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
    closers = {'"': '"', "`": "`", "[": "]"}
    toks: list[tuple[str, str]] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            j = sql.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if sql.startswith("/*", i):
            j = sql.find("*/", i + 2)
            if j < 0:
                raise SqlError("unterminated block comment")
            i = j + 2
            continue
        if ch == "'":
            j = i + 1
            buf: list[str] = []
            while True:
                if j >= n:
                    raise SqlError("unterminated string literal")
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(sql[j])
                j += 1
            toks.append(("string", "".join(buf)))
            i = j + 1
            continue
        if ch in closers:
            j = sql.find(closers[ch], i + 1)
            if j < 0:
                raise SqlError("unterminated quoted identifier")
            toks.append(("quoted", sql[i + 1 : j]))
            i = j + 1
            continue
        m = num_re.match(sql, i)
        if m:
            toks.append(("number", m.group()))
            i = m.end()
            continue
        m = word_re.match(sql, i)
        if m:
            toks.append(("word", m.group()))
            i = m.end()
            continue
        two = sql[i : i + 2]
        if two in ("<=", ">=", "<>", "!=", "||"):
            toks.append(("op", two))
            i += 2
            continue
        if ch in "=<>+-*/%,().;?:&|~":
            toks.append(("op", ch))
            i += 1
            continue
        raise SqlError(f"unexpected character {ch!r}")
    return toks


_SQL_PIECES = st.sampled_from(
    [
        "SELECT", "a", "_x$1", "t9", " ", "\n", "\t", "\x1c", "\xa0", " ",
        "-- note\n", "--", "/* c */", "/*", "*/", "/**/", "'", "''", "'it''s'",
        '"', '"a b"', "`", "`q`", "[", "]", "[x y]", "1", "1.", ".5", "1e5",
        "2E-3", "e", "+", "-", "*", "/", "<=", ">=", "<>", "!=", "||", "|",
        "=", "<", ">", "!", "(", ")", ",", ".", ";", "?", ":", "&", "~", "%",
        "²", "٣", "@", "$", "#", "é", "\x00",
    ]
)


def _outcome(tokenize, sql):
    try:
        return list(tokenize(sql))
    except SqlError:
        return SqlError


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_SQL_PIECES, st.characters()), max_size=12).map("".join))
def test_sql_tokens_match_the_character_loop(sql):
    assert _outcome(sql_tokens, sql) == _outcome(_loop_tokenize, sql)


def _old_first_keyword(sql: str) -> str:
    """The keyword check query made before it read sql_tokens, kept as the
    oracle."""
    rest = re.sub(r"^(?:\s+|--[^\n]*\n?|/\*.*?\*/)*", "", sql, flags=re.DOTALL)
    m = re.match(r"[A-Za-z_]+", rest)
    return m.group(0).lower() if m else ""


_PREFIXES = ("", "  ", "\n\t ", "-- note\n", "--\n", "/* note */", "/**/",
             "/* a */ -- b\n ", "-- no newline", "/*")
_STATEMENTS = (
    "SELECT 1", "select 1", "WITH t(x) AS (SELECT 1) SELECT x FROM t", "VALUES (1)",
    "INSERT INTO schools (CDSCode) VALUES ('x')", "UPDATE schools SET City = 'nowhere'",
    "DELETE FROM schools", "DROP TABLE schools", "CREATE TABLE t (x)",
    "PRAGMA user_version = 7",
)
# what may follow the keyword before the rest of the statement
_GLUES = (" ", "\n", "(", "1 ", "$ ", "_x ")


def _refusal(handle, sql):
    """The message query refuses sql with, or None when sql passes the
    keyword check (it may still fail in the engine)."""
    try:
        handle.query(sql)
    except SqlError as exc:
        text = str(exc)
        if text.startswith(("only read statements", "cannot read SQL")):
            return text
    return None


def test_keyword_check_matches_the_old_check_except_where_listed(schools_db):
    handle = open_database(schools_db)
    for prefix in _PREFIXES:
        for statement in _STATEMENTS:
            word, rest = statement.split(" ", 1)
            for glue in _GLUES:
                sql = prefix + word + glue + rest
                keyword = _old_first_keyword(sql)
                old = None if keyword in database.READ_KEYWORDS else (
                    f"only read statements are allowed, got {keyword or 'empty statement'!r}"
                )
                # the listed differences: a keyword glued to a digit or a $
                # now reads as one word (SELECT1, select$), and an
                # unterminated block comment is refused as unreadable
                # instead of as an empty statement
                listed = prefix == "/*" or (glue in ("1 ", "$ ") and prefix != "-- no newline")
                assert (_refusal(handle, sql) != old) == listed, sql


# --- the memo on a file that changes ---


def test_memo_sees_a_commit_of_a_wal_writer_that_stays_connected(tmp_path):
    db = tmp_path / "wal.sqlite"
    setup = sqlite3.connect(db)
    setup.execute("PRAGMA journal_mode = WAL")
    setup.execute("CREATE TABLE t (v TEXT)")
    setup.executemany("INSERT INTO t VALUES (?)", [("a",)] * 100)
    setup.commit()
    setup.close()  # the last connection checkpoints the WAL into the file
    assert uniq_value(open_database(db), "t", "v") == {"distinct_count": 1, "samples": ["a"]}
    writer = sqlite3.connect(db)
    try:
        writer.execute("INSERT INTO t VALUES ('zzz-new')")
        writer.commit()
        # the commit sits in the -wal file; the main file has not changed
        handle = open_database(db)
        assert uniq_value(handle, "t", "v") == {
            "distinct_count": 2,
            "samples": ["a", "zzz-new"],
        }
        assert value_in(handle, "t", "v", "zzz-new")["match_count"] == 1
    finally:
        writer.close()


def test_memo_sees_a_rollback_commit_that_keeps_size_and_mtime(tmp_path, counted):
    db = _small_db(tmp_path / "r.sqlite", ["a", "b"])
    sql = "SELECT v FROM t ORDER BY v"
    assert open_database(db).memo_query(sql).rows == [("a",), ("b",)]
    before = db.stat()
    writer = sqlite3.connect(db)
    try:
        writer.execute("UPDATE t SET v = 'c' WHERE v = 'a'")
        writer.commit()
    finally:
        writer.close()
    # a commit within one tick of a coarse clock leaves mtime as it was
    os.utime(db, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert db.stat().st_size == before.st_size
    assert open_database(db).memo_query(sql).rows == [("b",), ("c",)]
    assert counted == [sql, sql]
