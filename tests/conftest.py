"""Shared fixtures: two deterministic SQLite databases in the BIRD on-disk
layout (db_root/<db_id>/<db_id>.sqlite plus database_description CSVs).

california_schools: small frpm/schools pair used by the probing-tool tests.
Grade values deliberately include "K" and "8", School Type includes the
abbreviation "SSS" whose expansion only exists in the description CSV.

eval_fixture: orders table for execution-accuracy cases plus a 2500-row pad
table whose self-join makes deliberately slow queries for timing tests.
"""

from __future__ import annotations

import contextlib
import csv
import sqlite3
from pathlib import Path

import pytest

from diver.database import DatabaseHandle, open_database

FRPM_COLUMNS = [
    ("CDSCode", "TEXT"),
    ("School Name", "TEXT"),
    ("Low Grade", "TEXT"),
    ("High Grade", "TEXT"),
    ("School Type", "TEXT"),
    ("Enrollment (K-12)", "REAL"),
    ("Free Meal Count (K-12)", "REAL"),
    ("Charter School (Y/N)", "INTEGER"),
]

FRPM_ROWS = [
    ("01001", "Acacia Elementary", "K", "5", "Traditional", 320.0, 120.0, 0),
    ("01002", "Baird Middle", "6", "8", "Traditional", 410.0, 200.0, 0),
    ("01003", "Cypress High", "9", "12", "Traditional", 980.0, None, 1),
    ("01004", "Dover Charter Academy", "K", "8", "Magnet Program", 255.0, 90.0, 1),
    ("01005", "Eastside School for the Deaf", "K", "12", "SSS", 95.0, 60.0, None),
    ("01006", "Fairmont Elementary", "K", "5", "Traditional", 300.0, 150.0, 0),
    ("01007", "Golden Hills Middle", "6", "8", "Magnet Program", 388.0, None, 0),
    ("01008", "Harbor View High", "9", "12", "Traditional", 1204.0, 501.0, 0),
    ("01009", "Iris Academy", "1", "6", "Traditional", 210.0, 80.0, None),
    ("01010", "Juniper Diagnostic Center", "K", "12", "SSS", 40.0, None, 0),
    ("01011", "Kestrel High", "9", "12", "Magnet Program", 840.0, 320.0, 1),
    ("01012", "Lakeview Elementary", "1", "5", "Traditional", 275.0, 118.0, 0),
]

SCHOOLS_COLUMNS = [
    ("CDSCode", "TEXT"),
    ("School", "TEXT"),
    ("City", "TEXT"),
    ("County", "TEXT"),
    ("Magnet", "INTEGER"),
    ("Phone", "TEXT"),
]

SCHOOLS_ROWS = [
    ("01001", "Acacia Elementary", "Fresno", "Fresno", 0, "555-0101"),
    ("01002", "Baird Middle", "Fresno", "Fresno", 0, None),
    ("01003", "Cypress High", "Oakland", "Alameda", 0, "555-0103"),
    ("01004", "Dover Charter Academy", "Fresno", "Fresno", 1, "555-0104"),
    ("01005", "Eastside School for the Deaf", "Riverside", "Riverside", None, "555-0105"),
    ("01006", "Fairmont Elementary", "Oakland", "Alameda", 0, None),
    ("01007", "Golden Hills Middle", "Sacramento", "Sacramento", 1, "555-0107"),
    ("01008", "Harbor View High", "Oakland", "Alameda", 0, "555-0108"),
    ("01009", "Iris Academy", "Riverside", "Riverside", None, None),
    ("01010", "Juniper Diagnostic Center", "Fremont", "Alameda", 0, "555-0110"),
    ("01011", "Kestrel High", "Sacramento", "Sacramento", 1, "555-0111"),
    ("01012", "Lakeview Elementary", "Fremont", "Alameda", 0, "555-0112"),
]

FRPM_DESCRIPTIONS = [
    ("CDSCode", "unique identifier of the school", ""),
    ("School Name", "name of the school", ""),
    ("Low Grade", "lowest grade level served by the school", "K means kindergarten"),
    ("High Grade", "highest grade level served by the school", ""),
    ("School Type", "category of the school", "SSS means State Special Schools"),
    ("Enrollment (K-12)", "students enrolled from kindergarten to grade 12", ""),
    ("Free Meal Count (K-12)", "count of students receiving free meals", ""),
    ("Charter School (Y/N)", "whether the school is a charter school", "0 = N; 1 = Y"),
]

# column names deliberately case-mismatched against the schema to exercise the
# case-insensitive description join
SCHOOLS_DESCRIPTIONS = [
    ("cdscode", "unique identifier of the school", ""),
    ("school", "school name", ""),
    ("city", "city the school is located in", ""),
    ("county", "county the school belongs to", ""),
    ("MAGNET", "whether the school runs a magnet program", "0 = no; 1 = yes"),
    ("phone", "contact phone number", ""),
]

ORDERS_ROWS = [
    (1, "acme", "west", 120.5, 3),
    (2, "acme", "east", 80.0, 1),
    (3, "bolt", "west", 450.0, 9),
    (4, "bolt", "east", 450.0, 9),
    (5, "core", "north", 12.25, 2),
    (6, "core", "west", 33.0, 4),
    (7, "delta", "south", 610.4, 12),
    (8, "delta", "west", 0.0, 0),
    (9, "echo", "east", 99.99, 5),
    (10, "echo", "north", 100.0, 5),
    (11, "acme", "south", 76.0, 2),
    (12, "bolt", "north", 210.0, 7),
    (13, "core", "south", 55.5, 1),
    (14, "delta", "east", 310.0, 8),
    (15, "echo", "west", 47.75, 3),
    (16, "fjord", "west", None, 4),
    (17, "fjord", "east", 88.0, None),
    (18, "acme", "west", 120.5, 3),
    (19, "gale", "north", 500.0, 10),
    (20, "gale", "south", 505.0, 10),
]


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def build_schools_db(path: Path) -> None:
    conn = sqlite3.connect(path)
    try:
        cols = ", ".join(f"{_quote(n)} {t}" for n, t in FRPM_COLUMNS)
        conn.execute(f"CREATE TABLE frpm ({cols})")
        conn.executemany(
            f"INSERT INTO frpm VALUES ({', '.join('?' * len(FRPM_COLUMNS))})", FRPM_ROWS
        )
        cols = ", ".join(f"{_quote(n)} {t}" for n, t in SCHOOLS_COLUMNS)
        conn.execute(f"CREATE TABLE schools ({cols})")
        conn.executemany(
            f"INSERT INTO schools VALUES ({', '.join('?' * len(SCHOOLS_COLUMNS))})", SCHOOLS_ROWS
        )
        conn.commit()
    finally:
        conn.close()


def build_eval_db(path: Path) -> None:
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            "CREATE TABLE orders (id INTEGER, customer TEXT, region TEXT,"
            " amount REAL, qty INTEGER)"
        )
        conn.executemany("INSERT INTO orders VALUES (?, ?, ?, ?, ?)", ORDERS_ROWS)
        conn.execute("CREATE TABLE pad (x INTEGER)")
        conn.executemany("INSERT INTO pad VALUES (?)", [(i,) for i in range(2500)])
        conn.commit()
    finally:
        conn.close()


def add_unloadable_virtual_table(path: Path) -> None:
    """List a virtual table `vt` whose module no SQLite build has: the
    schema names it, but describing or reading it fails with `no such
    module: nosuchmod`, as for an extension another machine loaded."""
    conn = sqlite3.connect(path)
    try:
        conn.execute("PRAGMA writable_schema = ON")
        conn.execute(
            "INSERT INTO sqlite_master (type, name, tbl_name, rootpage, sql)"
            " VALUES ('table', 'vt', 'vt', 0, 'CREATE VIRTUAL TABLE vt USING nosuchmod(x)')"
        )
        conn.commit()
    finally:
        conn.close()


@pytest.fixture()
def unloadable_db_root(tmp_path) -> Path:
    """Both fixture databases, each with an unloadable virtual table."""
    root = tmp_path / "unloadable_db_root"
    for db_id, build in (("california_schools", build_schools_db), ("eval_fixture", build_eval_db)):
        (root / db_id).mkdir(parents=True)
        build(root / db_id / f"{db_id}.sqlite")
        add_unloadable_virtual_table(root / db_id / f"{db_id}.sqlite")
    return root


def _write_description_csv(path: Path, rows: list[tuple[str, str, str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["original_column_name", "column_description", "value_description"])
        writer.writerows(rows)


@pytest.fixture(scope="session")
def db_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("db_root")

    schools_dir = root / "california_schools"
    schools_dir.mkdir()
    build_schools_db(schools_dir / "california_schools.sqlite")
    desc = schools_dir / "database_description"
    desc.mkdir()
    _write_description_csv(desc / "frpm.csv", FRPM_DESCRIPTIONS)
    _write_description_csv(desc / "schools.csv", SCHOOLS_DESCRIPTIONS)

    eval_dir = root / "eval_fixture"
    eval_dir.mkdir()
    build_eval_db(eval_dir / "eval_fixture.sqlite")
    return root


@pytest.fixture(scope="session")
def schools_db(db_root: Path) -> Path:
    return db_root / "california_schools" / "california_schools.sqlite"


@pytest.fixture(scope="session")
def schools_desc_dir(db_root: Path) -> Path:
    return db_root / "california_schools" / "database_description"


@pytest.fixture(scope="session")
def eval_db(db_root: Path) -> Path:
    return db_root / "eval_fixture" / "eval_fixture.sqlite"


@pytest.fixture()
def counted(monkeypatch):
    """Every statement DatabaseHandle.query runs during the test, in order."""
    calls = []
    real_query = DatabaseHandle.query

    def counting(self, sql, params=()):
        calls.append(sql)
        return real_query(self, sql, params)

    monkeypatch.setattr(DatabaseHandle, "query", counting)
    return calls


@pytest.fixture()
def open_db():
    """open_database for one test: every handle it opens is closed when the
    test ends, so no connection is left to garbage collection."""
    with contextlib.ExitStack() as stack:
        yield lambda path: stack.enter_context(contextlib.closing(open_database(path)))
