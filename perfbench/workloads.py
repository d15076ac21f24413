"""Seeded input generator for the benchmark workloads.

Everything a workload feeds to `diver` is built here from the seed alone:
BIRD-shaped SQLite databases with description CSVs, the question dataset,
the per-question probe plans the responder follows, and the eval
gold/prediction pairs together with the scores they must get. The program
under test only ever sees the files written here; the plans and expected
scores stay with the benchmark.

Sizes are fixed and only names, values and text vary with the seed, so the
work per question (and therefore the measured rates) is the same shape on
every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import sqlite3
from pathlib import Path

# probe_heavy / eval_batch databases
PROBE_DBS = ("harbor_trade", "metro_freight")
FACT_TABLE = "ledger"
FACT_ROWS = 60_000
NAME_POOL = 12_000  # distinct parties; above toolbox.POOL_CAP (10k) on purpose
SIDE_TOPICS = (
    "region", "branch", "product", "channel", "supplier", "carrier", "warehouse",
    "currency", "account", "contract", "employee", "invoice", "shipment",
    "vendor", "segment", "campaign", "territory", "project", "asset", "ticket",
)
SIDE_ROWS = 200
PROBE_QUESTIONS_PER_DB = 3

# prompt_heavy database and questions
PROMPT_DB = "school_district"
PROMPT_SCHOOLS = 24
PROMPT_QUESTIONS = 24  # clause counts cycle 4, 5, 6

# eval_batch samples: every kind on every database, this many times
EVAL_PER_KIND = 2
EVAL_KINDS = ("exact", "rewrite", "unordered", "ordered", "wrong", "error", "missing")

FIRST = (
    "Ada Alma Amos Anya Arlo Basil Beatrix Bruno Cato Celia Cyrus Dalia Dario "
    "Delia Edgar Elio Elsa Emil Enzo Esme Fabian Faye Felix Flora Gideon Greta "
    "Hana Hugo Ida Igor Ines Ivo Jada Jonas Juno Kai Kira Lars Lena Leon Lina "
    "Lior Livia Luca Lydia Mabel Mara Milo Mira Nadia Nico Nina Noor Odin Olga "
    "Omar Orla Otto Paz Petra Pia Quinn Rafa Rhea Rosa Ruben Sami Sela Silas "
    "Sofia Stellan Tara Teo Thea Tomas Una Uri Vera Viggo Wanda Wren Xena Yara "
    "Yusuf Zara Zeno Agnes Boris Clara Dmitri Edda Franz Gita Hector Irma Jasper "
    "Katya Lorenz Magda Nestor Ottilie Pavel Rainer Sasha Tobias Ulla Vito Wilma "
    "Anselm Bianca Cosima Dorian Elvira Florin Gustav Helga Ilse Joaquin Kasimir Leonie"
).split()
LAST = (
    "Abbott Adler Alvarez Ambrose Arden Aziz Baker Banerjee Barros Becker Bishop "
    "Brandt Calder Campos Castell Chen Costa Crane Dahl Delgado Devlin Dorsey "
    "Draper Duarte Eaton Ekstrom Ellis Farrow Fenwick Ferreira Finch Fischer "
    "Fontaine Garza Gallo Gerber Gomez Haas Hale Hartley Horvat Ibarra Ivers "
    "Jansen Jovanovic Kaplan Keller Kovac Kramer Lange Larsen Leclerc Lindqvist "
    "Lopez Lucero Madsen Marsh Mendez Moreau Nakamura Navarro Nilsen Novak "
    "Okafor Olsen Ortega Pace Pereira Petrov Pike Quaid Quiroga Ramos Reyes "
    "Rocha Rossi Sato Schulz Serrano Sousa Stark Strand Tanaka Torres Ueda "
    "Vance Varga Vidal Vogel Wagner Walsh Weber Wolfe Yamada Young Zamora "
    "Zeller Zhou Corwin Dunmore Elwood Falk Gorski Holm Iversen Jurado Kessler "
    "Lindgren Moretti Norberg Oyelaran Pellegrini Rasmussen Sandoval Thorne"
).split()
CATEGORIES = (
    "Hardware", "Textiles", "Produce", "Lumber", "Ceramics", "Plastics",
    "Chemicals", "Paper", "Glassware", "Footwear", "Furniture", "Spices",
)
STATUSES = ("open", "closed", "held")
LABEL_WORDS = (
    "North Coast Inland Harbor Central Ridge Valley Summit Delta Prairie Canyon "
    "Lakeside Granite Cedar Maple Willow Orchard Meadow Quarry Beacon"
).split()

CITIES = ("Fresno", "Oakland", "Riverside", "Sacramento", "Fremont", "Modesto", "Visalia")
COUNTIES = {"Fresno": "Kings", "Oakland": "Alameda", "Riverside": "Inyo",
            "Sacramento": "Yolo", "Fremont": "Alameda", "Modesto": "Stanislaus",
            "Visalia": "Tulare"}
SCHOOL_TYPES = ("Traditional", "Magnet Program", "SSS", "Continuation")
SCHOOL_WORDS = (
    "Acacia Baird Cypress Dover Eastside Fairmont Golden Harbor Iris Juniper Kestrel "
    "Lakeview Mesa Northgate Oakridge Pinecrest Quail Redwood Sierra Tamarack"
).split()
SCHOOL_KINDS = ("Elementary", "Middle", "High", "Academy")

THOUGHT_BANK = (
    "The clause names a concrete entity, so before any SQL is written I want the"
    " stored spelling confirmed verbatim, including case and spacing.",
    "Descriptions in this database decode several abbreviations, and the question"
    " may lean on one of them, so the column documentation matters here.",
    "A previous probe returned rows, but I have not yet checked whether the column"
    " carries missing entries that would skew an aggregate or a join.",
    "The wording of the question may not match the schema, so a fuzzy search over"
    " column names could surface a better candidate than my first guess.",
    "I still need evidence of how this value is written in storage; the question's"
    " phrasing could be a paraphrase of the stored label.",
    "To be safe I will look at a handful of real rows, which often reveals units,"
    " code formats and sentinel values that descriptions leave out.",
    "The join path between the two tables is unverified; I should confirm that the"
    " key column holds comparable values on both sides.",
    "Nothing so far rules out that the literal is stored with a different prefix,"
    " so a bounded look at distinct values is the cheapest next step.",
)


def _write_csv(path: Path, rows: list[tuple[str, str, str]], encoding: str) -> None:
    with open(path, "w", newline="", encoding=encoding) as fh:
        writer = csv.writer(fh)
        writer.writerow(["original_column_name", "column_description", "value_description"])
        writer.writerows(rows)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def db_hashes(db_root: Path) -> dict[str, str]:
    """sha256 of every database file under db_root, keyed by db_id."""
    return {p.parent.name: _sha256(p) for p in sorted(db_root.glob("*/*.sqlite"))}


# --- probe_heavy / eval_batch databases ---


def _build_fact_db(db_dir: Path, db_id: str, rng: random.Random) -> dict:
    """One large fact table plus SIDE_TOPICS side tables; returns the facts
    the question and eval generators need."""
    db_dir.mkdir(parents=True)
    names = sorted({f"{a} {b}" for a in FIRST for b in LAST})
    rng.shuffle(names)
    names = names[:NAME_POOL]
    codes = list(range(FACT_ROWS))
    rng.shuffle(codes)
    rows = []
    for i in range(FACT_ROWS):
        rows.append(
            (
                i + 1,
                f"LX{codes[i]:07d}",
                names[i % NAME_POOL],
                CATEGORIES[rng.randrange(len(CATEGORIES))],
                1 + rng.randrange(SIDE_ROWS),
                None if rng.random() < 0.08 else round(rng.uniform(1, 5000), 2),
                None if rng.random() < 0.15 else STATUSES[rng.randrange(3)],
                f"20{rng.randrange(15, 24)}-{1 + rng.randrange(12):02d}-{1 + rng.randrange(28):02d}",
            )
        )
    path = db_dir / f"{db_id}.sqlite"
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            f"CREATE TABLE {FACT_TABLE} (id INTEGER PRIMARY KEY, code TEXT, party TEXT,"
            " category TEXT, region INTEGER, amount REAL, status TEXT, noted TEXT)"
        )
        conn.executemany(f"INSERT INTO {FACT_TABLE} VALUES (?, ?, ?, ?, ?, ?, ?, ?)", rows)
        labels: dict[str, list[str]] = {}
        for topic in SIDE_TOPICS:
            conn.execute(
                f"CREATE TABLE {topic} (id INTEGER PRIMARY KEY, label TEXT, code TEXT,"
                " score REAL, active INTEGER)"
            )
            side = []
            for j in range(SIDE_ROWS):
                label = f"{LABEL_WORDS[rng.randrange(len(LABEL_WORDS))]} {topic.title()} {j + 1}"
                # the first rows score high so ordered eval queries return several rows
                score = 99.0 if j < 5 else float(rng.randrange(100))
                side.append((j + 1, label, f"{topic[:3].upper()}{j + 1:04d}", score, rng.randrange(2)))
            conn.executemany(f"INSERT INTO {topic} VALUES (?, ?, ?, ?, ?)", side)
            labels[topic] = [r[1] for r in side]
        conn.commit()
    finally:
        conn.close()

    desc = db_dir / "database_description"
    desc.mkdir()
    # cp1252 bytes that are not valid UTF-8, and column names whose case
    # differs from the schema, as BIRD's own description files have
    _write_csv(
        desc / "Ledger.csv",
        [
            ("ID", "row identifier", ""),
            ("Code", "entry code – unique per ledger line", "LX followed by seven digits"),
            ("PARTY", "counterparty name", "person or firm named on the entry"),
            ("Category", "goods category", "one of twelve trade categories"),
            ("REGION", "region identifier", "joins region.id"),
            ("Amount", "entry amount in euros (€)", "NULL when the amount was not booked"),
            ("status", "settlement status", "open / closed / held; NULL means unknown"),
            ("Noted", "booking date", "ISO date, café-style ledgers write it by hand"),
        ],
        "cp1252",
    )
    for topic in SIDE_TOPICS[:6]:
        _write_csv(
            desc / f"{topic}.csv",
            [
                ("id", f"{topic} identifier", ""),
                ("LABEL", f"display name of the {topic}", ""),
                ("code", f"short {topic} code", ""),
                ("Score", f"{topic} quality score", "0 to 99"),
                ("active", "whether the row is in use", "0 = no; 1 = yes"),
            ],
            "utf-8",
        )
    return {"names": names, "labels": labels}


def _typo(rng: random.Random, text: str) -> str:
    """A near miss for sim_value_in: one letter dropped, lowercased."""
    i = 1 + rng.randrange(len(text) - 2)
    return (text[:i] + text[i + 1 :]).lower()


def _probe_question(rng: random.Random, qid: str, db_id: str, facts: dict) -> tuple[dict, dict]:
    party = facts["names"][rng.randrange(NAME_POOL)]
    category = CATEGORIES[rng.randrange(len(CATEGORIES))]
    topic = SIDE_TOPICS[rng.randrange(len(SIDE_TOPICS))]
    label = facts["labels"][topic][rng.randrange(SIDE_ROWS)]
    proposals = [
        f"How many ledger entries for {party} fall under {category}",
        "what do their entry codes and amounts look like",
        f"and which {topic} records are labelled {label}",
    ]
    text = ", ".join(proposals) + "?"
    t = FACT_TABLE

    def turn(thought: str, tool: str, **args) -> dict:
        return {"thought": thought, "call": {"tool": tool, "args": args}}

    clauses = [
        [
            turn(f"Check that {party} is stored verbatim.", "value_in", table=t, column="party", value=party),
            turn("Search near spellings of the party.", "sim_value_in", table=t, column="party",
                 query_text=_typo(rng, party)),
            turn("Confirm the party once more.", "value_in", table=t, column="party", value=party),
            turn(f"Check the category {category}.", "value_in", table=t, column="category", value=category),
            turn("The clause is verified.", "none"),
        ],
        [
            turn("List entry codes.", "uniq_value", table=t, column="code"),
            turn("Read the ledger's column documentation.", "info", table=t),
            turn("Sample rows from across the ledger.", "random", table=t, n=5),
            turn("Look at the first rows.", "head", table=t, n=3),
            turn("The clause is verified.", "none"),
        ],
        [
            turn(f"Find columns about {topic} labels.", "sim_columns", query_text=f"{topic} label name"),
            turn("Check the category column.", "value_in", table=t, column="categry", value=category),
            turn("Measure missing amounts.", "if_null", table=t, column="amount"),
            turn(f"List {topic} labels.", "uniq_value", table=topic, column="label", limit=10),
            turn("The clause is verified.", "none"),
        ],
    ]
    row = {"question_id": qid, "db_id": db_id, "question": text, "difficulty": "moderate"}
    return row, {"question_id": qid, "proposals": proposals, "clauses": clauses}


def _eval_sample(rng: random.Random, kind: str, qid: str, db_id: str) -> tuple[dict, str | None, dict]:
    """One gold/prediction pair of the given kind and the scores it must get.

    Each SQL comes with its schema entities, value entities and overlap
    tokens spelled out from the pieces it was built from, so expected F1 and
    overlap are known without running diver's extractor.
    """
    cat = CATEGORIES[rng.randrange(len(CATEGORIES))]
    region = 1 + rng.randrange(SIDE_ROWS)
    floor = 100 * (1 + rng.randrange(40))
    score = 10 * (1 + rng.randrange(5))
    t = FACT_TABLE
    by_cat = (
        f"SELECT COUNT(*) FROM {t} WHERE category = '{cat}' AND region = {region}",
        {t, f"{t}.category", f"{t}.region"},
        {cat.lower(), str(region)},
        {t, "category", "region", cat.lower(), str(region)},
    )
    if kind == "exact":
        gold = by_cat
        pred = by_cat[:3]
        ex = 1
    elif kind == "rewrite":
        gold = (
            f"SELECT COUNT(*) FROM {t} WHERE category = '{cat}' AND amount > {floor}",
            {t, f"{t}.category", f"{t}.amount"},
            {cat.lower(), str(floor)},
            {t, "category", "amount", cat.lower(), str(floor)},
        )
        pred = (
            f"SELECT COUNT(id) FROM {t} WHERE amount > {floor} AND '{cat}' = category",
            {t, f"{t}.id", f"{t}.category", f"{t}.amount"},
            {cat.lower(), str(floor)},
        )
        ex = 1
    elif kind in ("unordered", "ordered"):
        side = SIDE_TOPICS[0]
        base = f"SELECT code FROM {side} WHERE score > {score}"
        ents = ({side, f"{side}.code", f"{side}.score"}, {str(score)})
        if kind == "unordered":
            gold = (base, *ents, {side, "code", "score", str(score)})
            pred = (base + " ORDER BY code", {*ents[0]}, ents[1])
            ex = 1
        else:
            gold = (base + " ORDER BY code", *ents, {side, "code", "score", str(score)})
            pred = (base + " ORDER BY code DESC", {*ents[0]}, ents[1])
            ex = 0
    elif kind == "wrong":
        gold = by_cat
        pred = (by_cat[0].replace("COUNT(*)", "COUNT(*) + 1"), by_cat[1], by_cat[2])
        ex = 0
    elif kind == "error":
        gold = by_cat
        pred = (
            f"SELECT COUNT(*) FROM {t} WHERE categry = '{cat}'",
            {t, f"{t}.categry"},
            {cat.lower()},
        )
        ex = 0
    else:  # missing
        gold = by_cat
        pred = (None, set(), set())
        ex = 0
    tokens = sorted(gold[3])
    shown = rng.sample(tokens, 1 + rng.randrange(len(tokens)))
    evidence = "noted: " + " ".join(shown)
    row = {
        "question_id": qid,
        "db_id": db_id,
        "question": f"benchmark sample {qid}",
        "SQL": gold[0],
        "evidence": evidence,
        "difficulty": kind,
    }
    expected = {
        "kind": kind,
        "ex": ex,
        "gold_schema": sorted(gold[1]),
        "gold_values": sorted(gold[2]),
        "pred_schema": sorted(pred[1]),
        "pred_values": sorted(pred[2]),
        "overlap": len(shown) / len(tokens),
    }
    return row, pred[0], expected


def build_probe_inputs(root: Path, seed: int) -> None:
    """Databases, probe_heavy dataset and plans, eval_batch pairs."""
    rng = random.Random(f"probe:{seed}")
    db_root = root / "db_root"
    dataset, plans = [], {}
    samples, predictions, expected = [], {}, {}
    for db_index, db_id in enumerate(PROBE_DBS):
        facts = _build_fact_db(db_root / db_id, db_id, rng)
        for k in range(PROBE_QUESTIONS_PER_DB):
            row, plan = _probe_question(rng, f"p{db_index}{k}", db_id, facts)
            dataset.append(row)
            plans[row["question"]] = plan
    for k in range(EVAL_PER_KIND):
        for kind in EVAL_KINDS:
            for db_id in PROBE_DBS:
                qid = f"e{len(samples):03d}"
                row, pred, exp = _eval_sample(rng, kind, qid, db_id)
                samples.append(row)
                if pred is not None:
                    predictions[qid] = pred
                expected[qid] = exp
    # interleave question order across databases, as a real dev set is
    dataset.sort(key=lambda r: (r["question_id"][2], r["question_id"][1]))
    _dump(root / "probe_dataset.json", dataset)
    _dump(root / "probe_plans.json", plans)
    _dump(root / "eval_dataset.json", samples)
    _dump(root / "eval_predictions.json", predictions)
    _dump(root / "eval_expected.json", expected)


# --- prompt_heavy ---


def _build_schools_db(db_dir: Path, rng: random.Random) -> list[dict]:
    db_dir.mkdir(parents=True)
    schools = []
    used = set()
    while len(schools) < PROMPT_SCHOOLS:
        name = f"{SCHOOL_WORDS[rng.randrange(len(SCHOOL_WORDS))]} {SCHOOL_KINDS[rng.randrange(4)]}"
        if name in used:
            continue
        used.add(name)
        city = CITIES[rng.randrange(len(CITIES))]
        low = ("K", "1", "6", "9")[rng.randrange(4)]
        schools.append(
            {
                "cds": f"{1000 + len(schools):05d}",
                "name": name,
                "city": city,
                "county": COUNTIES[city],
                "low": low,
                "high": {"K": "5", "1": "6", "6": "8", "9": "12"}[low],
                "type": SCHOOL_TYPES[rng.randrange(len(SCHOOL_TYPES))],
                "enrollment": float(40 + rng.randrange(1200)),
                "meals": None if rng.random() < 0.2 else float(rng.randrange(500)),
                "charter": None if rng.random() < 0.1 else rng.randrange(2),
                "phone": None if rng.random() < 0.25 else f"555-{rng.randrange(10000):04d}",
            }
        )
    path = db_dir / f"{PROMPT_DB}.sqlite"
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            'CREATE TABLE frpm ("CDSCode" TEXT, "School Name" TEXT, "Low Grade" TEXT,'
            ' "High Grade" TEXT, "School Type" TEXT, "Enrollment (K-12)" REAL,'
            ' "Free Meal Count (K-12)" REAL, "Charter School (Y/N)" INTEGER)'
        )
        conn.executemany(
            "INSERT INTO frpm VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [(s["cds"], s["name"], s["low"], s["high"], s["type"], s["enrollment"],
              s["meals"], s["charter"]) for s in schools],
        )
        conn.execute(
            'CREATE TABLE schools ("CDSCode" TEXT, "School" TEXT, "City" TEXT,'
            ' "County" TEXT, "Phone" TEXT)'
        )
        conn.executemany(
            "INSERT INTO schools VALUES (?, ?, ?, ?, ?)",
            [(s["cds"], s["name"], s["city"], s["county"], s["phone"]) for s in schools],
        )
        conn.commit()
    finally:
        conn.close()
    desc = db_dir / "database_description"
    desc.mkdir()
    _write_csv(
        desc / "frpm.csv",
        [
            ("CDSCode", "unique identifier of the school", ""),
            ("School Name", "name of the school", ""),
            ("Low Grade", "lowest grade level served", "K means kindergarten"),
            ("High Grade", "highest grade level served", ""),
            ("School Type", "category of the school", "SSS means State Special Schools – café-run"),
            ("Enrollment (K-12)", "students enrolled from kindergarten to grade 12", ""),
            ("Free Meal Count (K-12)", "students receiving free meals", ""),
            ("Charter School (Y/N)", "whether the school is a charter school", "0 = N; 1 = Y"),
        ],
        "cp1252",
    )
    _write_csv(
        desc / "SCHOOLS.csv",
        [
            ("cdscode", "unique identifier of the school", ""),
            ("school", "school name", ""),
            ("city", "city the school is located in", ""),
            ("COUNTY", "county the school belongs to", ""),
            ("phone", "contact phone number", ""),
        ],
        "utf-8",
    )
    return schools


def _prompt_clauses(rng: random.Random, school: dict) -> list[tuple[str, list[dict]]]:
    """Clause phrases and, for each, five turns that never stop early."""
    f, s = "frpm", "schools"
    options = [
        (f"which schools are located at {school['city']}",
         (s, "City", school["city"]), (s, "County")),
        (f"that serve grade {school['low']} for the lowest level",
         (f, "Low Grade", school["low"]), (f, "High Grade")),
        (f"whose category reads {school['type']}",
         (f, "School Type", school["type"]), (f, "School Type")),
        (f"named {school['name']} on state listings",
         (f, "School Name", school["name"]), (f, "School Name")),
        (f"within {school['county']} county",
         (s, "County", school["county"]), (s, "City")),
        ("with more than 300 students enrolled",
         (f, "Enrollment (K-12)", school["enrollment"]), (f, "Enrollment (K-12)")),
        ("plus list every phone number",
         (s, "Phone", school["phone"] or "555-0000"), (s, "Phone")),
        ("and say whether each one runs as charter",
         (f, "Charter School (Y/N)", 1), (f, "Charter School (Y/N)")),
    ]
    picked = rng.sample(options, 6)
    out = []
    for index, (phrase, (vt, vc, value), (it, ic)) in enumerate(picked):
        thoughts = [
            " ".join(rng.sample(THOUGHT_BANK, 3)) for _ in range(5)
        ]
        probe = {"tool": "value_in", "args": {"table": vt, "column": vc, "value": value}}
        second = [
            {"tool": "uniq_value", "args": {"table": it, "column": ic}},
            {"tool": "info", "args": {"table": it, "column": ic}},
            {"tool": "if_null", "args": {"table": it, "column": ic}},
        ][index % 3]
        fourth = [
            {"tool": "head", "args": {"table": vt, "n": 3}},
            {"tool": "sim_columns", "args": {"query_text": phrase}},
        ][index % 2]
        turns = [
            {"thought": thoughts[0], "call": probe},
            # first tool reply is prose; the repair round-trip returns the call
            {"thought": thoughts[1], "call": second, "malformed": 1},
            {"thought": thoughts[2], "call": probe},  # repeat -> guiding feedback
            {"thought": thoughts[3], "call": fourth},
            # malformed twice -> corrective turn; the clause ends at the cap
            {"thought": thoughts[4], "call": second, "malformed": 2 if index % 2 else 1},
        ]
        out.append((phrase, turns))
    return out


def _paraphrase(rng: random.Random, phrase: str) -> str:
    """Coarse segmentation as a model returns it: a word dropped, a case
    change, a filler word, so token_refine has to realign it."""
    words = phrase.split()
    drop = 1 + rng.randrange(len(words) - 1)
    words = words[:drop] + words[drop + 1 :]
    flip = rng.randrange(len(words))
    words[flip] = words[flip].upper() if words[flip].islower() else words[flip].lower()
    # a filler no question contains, so the alignment cannot latch onto it
    words.insert(rng.randrange(len(words) + 1), "kindly")
    return " ".join(words)


def build_prompt_inputs(root: Path, seed: int) -> None:
    rng = random.Random(f"prompt:{seed}")
    schools = _build_schools_db(root / "db_root" / PROMPT_DB, rng)
    dataset, plans = [], {}
    for k in range(PROMPT_QUESTIONS):
        text = ""
        while not text or text in plans:
            school = schools[rng.randrange(len(schools))]
            clauses = _prompt_clauses(rng, school)[: 4 + k % 3]
            phrases = [p for p, _ in clauses]
            text = phrases[0][0].upper() + phrases[0][1:] + ", " + ", ".join(phrases[1:]) + "?"
        qid = f"s{k:02d}"
        dataset.append(
            {
                "question_id": qid,
                "db_id": PROMPT_DB,
                "question": text,
                "evidence": f"{school['name']} refers to `School Name`",
                "difficulty": "challenging",
            }
        )
        plans[text] = {
            "question_id": qid,
            "proposals": [_paraphrase(rng, p) for p in phrases],
            "clauses": [turns for _, turns in clauses],
        }
    _dump(root / "prompt_dataset.json", dataset)
    _dump(root / "prompt_plans.json", plans)


def _dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
