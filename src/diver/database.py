"""Read-only SQLite adapter.

Opens database files in read-only mode, walks their schema into a catalog
(optionally joined with BIRD-style description CSVs), and runs parameter-bound
probe queries under a per-statement timeout. Nothing here can write: the
connection is opened with mode=ro and query() additionally rejects any
statement that is not SELECT/WITH/VALUES.

Because the files are read-only, the answer to a deterministic statement
depends only on the file. memo_query() keeps such answers, the catalog's
among them, in one memo shared by every handle in the process, keyed by the
file's identity (resolved path, size, mtime_ns and the header's change
counter), the statement and each parameter with its type, and bounded to
MEMO_ROWS result rows over all files. A file in WAL mode has no identity and
memo_query() runs every statement on it: a WAL commit changes none of these.

query() reads only the leading token of a statement to check its keyword;
sql_tokens() is the one SQL tokenizer of the package.

Every handle memory-maps its file (PRAGMA mmap_size = MMAP_BYTES). A full
scan of a fact table is larger than SQLite's default 2 MB page cache, so
without the mapping each scan evicts its own pages and reads every one again
through a read() call; mapped, the engine reads the pages where the kernel
already holds them. What that costs:
- the mapped pages a process touches count in its resident memory (RSS) as
  file pages, while its private memory falls, since SQLite's page cache no
  longer copies them; the bound is MMAP_BYTES of address space per open
  handle, and a larger file maps its first MMAP_BYTES and reads the rest
  as before;
- a mapped file that a non-SQLite writer truncates in place makes a read of
  the lost pages raise SIGBUS, which ends the process, instead of an engine
  error. SQLite's own writers resize the file safely.
"""

from __future__ import annotations

import csv
import logging
import re
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, NamedTuple, Sequence

from .errors import DiverError, SqlError

logger = logging.getLogger(__name__)

READ_KEYWORDS = {"select", "with", "values"}

DESCRIPTION_ENCODINGS = ("utf-8-sig", "cp1252", "latin-1")

STATEMENT_TIMEOUT = 30.0  # seconds one statement may run before it is interrupted
MEMO_ROWS = 200_000  # result rows the memo may hold over all database files
MMAP_BYTES = 256 * 1024 * 1024  # bytes of its file one handle maps into memory


@dataclass
class ResultSet:
    columns: list[str]
    rows: list[tuple]
    elapsed: float  # seconds of wall clock spent executing + fetching


@dataclass
class ColumnInfo:
    name: str
    declared_type: str
    description: str | None = None


@dataclass
class TableInfo:
    name: str
    columns: list[ColumnInfo]

    def __post_init__(self) -> None:
        # lowercased name -> column; the first of a case clash wins
        self._columns = {c.name.lower(): c for c in reversed(self.columns)}

    def column(self, name: str) -> ColumnInfo | None:
        return self._columns.get(name.lower()) if isinstance(name, str) else None


@dataclass
class SchemaCatalog:
    tables: list[TableInfo] = field(default_factory=list)

    def __post_init__(self) -> None:
        # lowercased name -> table; the first of a case clash wins
        self._tables = {t.name.lower(): t for t in reversed(self.tables)}
        # every table and column name, lowercased
        self.names = frozenset(self._tables).union(*(t._columns for t in self.tables))

    def table(self, name: str) -> TableInfo | None:
        return self._tables.get(name.lower()) if isinstance(name, str) else None


class _Memo:
    """Results of deterministic statements on database files, least recently
    used first. A result counts as at least one row against MEMO_ROWS, so the
    number of entries is bounded too."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (file identity, sql, typed params) -> (column names, rows)
        self._results: OrderedDict[tuple, tuple[tuple, tuple]] = OrderedDict()
        self.rows = 0

    def get(self, key: tuple) -> tuple[tuple, tuple] | None:
        with self._lock:
            hit = self._results.get(key)
            if hit is not None:
                self._results.move_to_end(key)
            return hit

    def put(self, key: tuple, columns: tuple, rows: tuple) -> None:
        cost = max(len(rows), 1)
        if cost > MEMO_ROWS:
            return
        with self._lock:
            if key in self._results:
                return
            self._results[key] = (columns, rows)
            self.rows += cost
            while self.rows > MEMO_ROWS:
                _, (_, old) = self._results.popitem(last=False)
                self.rows -= max(len(old), 1)


_memo = _Memo()

# (file, table) pairs catalog() has already warned about, so a batch that
# builds a catalog per question warns once per file and table
_warned_tables: set[tuple] = set()
_warned_lock = threading.Lock()


class DatabaseHandle:
    """One read-only connection to one SQLite file."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._deadline: float | None = None
        resolved = self.path.resolve()
        try:
            self._conn = sqlite3.connect(resolved.as_uri() + "?mode=ro", uri=True)
        except sqlite3.Error as exc:
            raise DiverError(f"cannot open {self.path}: {exc}") from exc
        self._conn.set_progress_handler(self._tick, 2000)
        try:
            self._conn.execute(f"PRAGMA mmap_size = {MMAP_BYTES}")
            self._conn.execute("SELECT 1 FROM sqlite_master LIMIT 1").fetchall()
            with open(resolved, "rb") as fh:
                header = fh.read(100)
            st = resolved.stat()
        except (sqlite3.DatabaseError, OSError) as exc:
            self._conn.close()
            raise DiverError(f"cannot read {self.path}: {exc}") from exc
        # The file as it is now, so a changed file misses every memo entry.
        # A rollback-journal commit bumps the header's change counter (bytes
        # 24-27) whatever the clock's granularity. A WAL commit (byte 18 is
        # 2) leaves the main file as it was until a checkpoint, so a WAL file
        # gets no identity and memo_query runs every statement.
        self._file = (
            None
            if header[18:19] == b"\x02"
            else (str(resolved), st.st_size, st.st_mtime_ns, header[24:28])
        )

    def _tick(self) -> int:
        # nonzero return interrupts the running statement
        if self._deadline is not None and time.perf_counter() > self._deadline:
            return 1
        return 0

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Run one read statement and fetch its rows while the statement
        deadline still holds. Only the thread that opened the handle may use
        it."""
        first = next(sql_tokens(sql or ""), SqlToken("", ""))
        keyword = first.value.lower() if first.kind == "word" else ""
        if keyword not in READ_KEYWORDS:
            raise SqlError(
                f"only read statements are allowed, got {keyword or 'empty statement'!r}"
            )
        started = time.perf_counter()
        self._deadline = started + STATEMENT_TIMEOUT
        try:
            cursor = self._conn.execute(sql, tuple(params))
            rows = cursor.fetchall()
        except (sqlite3.Error, sqlite3.Warning, OverflowError, ValueError) as exc:
            # the engine's own message travels verbatim into corrective feedback;
            # sqlite3 raises OverflowError binding an int outside 64 bits, and,
            # by Python version, ValueError or Warning for a statement holding
            # a NUL, a lone surrogate or a second statement
            raise SqlError(str(exc)) from exc
        finally:
            self._deadline = None
        columns = [d[0] for d in cursor.description] if cursor.description else []
        return ResultSet(columns=columns, rows=rows, elapsed=time.perf_counter() - started)

    def memo_query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """query() for a statement whose answer depends only on the file: the
        first call on a file runs it, later calls on any handle to the same
        unchanged file reuse its rows (elapsed 0.0). Each parameter is keyed
        with its type: 1 == 1.0 in Python, but SQLite compares 1 with the
        text '1' and 1.0 with '1.0'. Errors are never kept, so a failing
        statement fails again with the engine's message."""
        if self._file is None:
            return self.query(sql, params)
        key = (self._file, sql, tuple((type(p), p) for p in params))
        hit = _memo.get(key)
        if hit is not None:
            columns, rows = hit
            return ResultSet(columns=list(columns), rows=list(rows), elapsed=0.0)
        rs = self.query(sql, params)
        _memo.put(key, tuple(rs.columns), tuple(rs.rows))
        return rs

    def close(self) -> None:
        self._conn.close()


def open_database(path: str | Path) -> DatabaseHandle:
    p = Path(path)
    if not p.exists():
        raise DiverError(f"database file does not exist: {p}")
    return DatabaseHandle(p)


def quote_identifier(name: str) -> str:
    # backticks, not double quotes: SQLite silently reads an unknown
    # double-quoted identifier as a string literal, which would swallow the
    # engine's "no such column" error the probing loop depends on
    return "`" + name.replace("`", "``") + "`"


# One alternative per token kind; whitespace and comments match no group.
# A `/` opening an unterminated block comment, an opening quote or bracket
# with no closer, and any character no alternative takes are `bad`.
_SQL_TOKEN_RE = re.compile(
    r"""\s+|--[^\n]*|/\*.*?\*/
    |(?P<string>'(?:[^']|'')*')
    |(?P<quoted>"[^"]*"|`[^`]*`|\[[^\]]*\])
    |(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
    |(?P<word>[A-Za-z_][A-Za-z0-9_$]*)
    |(?P<op><=|>=|<>|!=|\|\||/(?!\*)|[-=<>+*%,().;?:&|~])
    |(?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


class SqlToken(NamedTuple):
    kind: str  # word | quoted | string | number | op
    value: str  # a quoted identifier or a string without its quotes


def sql_tokens(sql: str) -> Iterator[SqlToken]:
    """The tokens of sql, read lazily from the left; '' in a string reads as
    '. Raises SqlError at the first character no token kind takes, which
    includes an unterminated string, quoted identifier or block comment."""
    for m in _SQL_TOKEN_RE.finditer(sql):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            at = m.start()
            raise SqlError(f"cannot read SQL at offset {at}: {sql[at:at + 20]!r}")
        if kind == "string":
            yield SqlToken(kind, text[1:-1].replace("''", "'"))
        elif kind == "quoted":
            yield SqlToken(kind, text[1:-1])
        elif kind is not None:
            yield SqlToken(kind, text)


def parse_description_file(path: Path) -> dict[str, str]:
    """Read one BIRD-style description CSV into {column name -> description}.

    Joins column_description and value_description with ' | '. Raises
    DiverError when the file cannot be decoded or lacks the
    original_column_name header; catalog warns and skips such a file.
    """
    last_error: Exception | None = None
    for encoding in DESCRIPTION_ENCODINGS:
        try:
            with open(path, "r", encoding=encoding, newline="") as fh:
                reader = csv.DictReader(fh)
                if not reader.fieldnames or "original_column_name" not in reader.fieldnames:
                    raise DiverError(f"{path}: missing original_column_name header")
                out: dict[str, str] = {}
                for row in reader:
                    name = (row.get("original_column_name") or "").strip()
                    if not name:
                        continue
                    parts = [
                        (row.get("column_description") or "").strip(),
                        (row.get("value_description") or "").strip(),
                    ]
                    text = " | ".join(p for p in parts if p)
                    if text:
                        out[name.lower()] = text
                return out
        except (UnicodeDecodeError, csv.Error, OSError) as exc:
            last_error = exc
            continue
    raise DiverError(f"{path}: cannot parse ({last_error})")


def catalog(handle: DatabaseHandle, description_dir: str | Path | None = None) -> SchemaCatalog:
    """Walk sqlite_master + pragma_table_info into a SchemaCatalog, every
    statement through the memo; the catalog holds the schema only, no row
    counts, and leaves out only SQLite's own tables, whose names begin with
    sqlite_ in any case (an escaped LIKE: a bare _ would match any
    character). A table the engine cannot describe (a virtual table whose module
    is not loaded, say) is left out, with a warning the first time per file
    and table in the process. When description_dir is a directory, join its
    description CSVs (a malformed one only warns); otherwise, as for a
    database that ships none, the columns have no descriptions."""
    descriptions: dict[str, dict[str, str]] = {}
    if description_dir is not None and Path(description_dir).is_dir():
        for f in sorted(Path(description_dir).iterdir()):
            if f.suffix.lower() != ".csv":
                continue
            try:
                descriptions[f.stem.lower()] = parse_description_file(f)
            except DiverError as exc:
                logger.warning("skipping description file: %s", exc)

    tables = []
    names = handle.memo_query(
        "SELECT name FROM sqlite_master WHERE type = 'table'"
        " AND name NOT LIKE 'sqlite\\_%' ESCAPE '\\' ORDER BY name"
    ).rows
    for (table_name,) in names:
        table_desc = descriptions.get(table_name.lower(), {})
        try:
            info = handle.memo_query(
                "SELECT name, type FROM pragma_table_info(?)", (table_name,)
            ).rows
        except SqlError as exc:
            key = (handle._file or str(handle.path.resolve()), table_name)
            with _warned_lock:
                first = key not in _warned_tables
                _warned_tables.add(key)
            if first:
                logger.warning("leaving table %r out of the catalog: %s", table_name, exc)
            continue
        columns = [
            ColumnInfo(
                name=col_name,
                declared_type=declared or "",
                description=table_desc.get(col_name.lower()),
            )
            for col_name, declared in info
        ]
        tables.append(TableInfo(name=table_name, columns=columns))
    return SchemaCatalog(tables=tables)


def db_path_for(db_root: str | Path, db_id: str) -> Path:
    return Path(db_root) / db_id / f"{db_id}.sqlite"


def description_dir_for(db_root: str | Path, db_id: str) -> Path:
    return Path(db_root) / db_id / "database_description"
