"""Golden eval report: `diver eval --metrics ex,f1,overlap` over the eval
fixture, as text, as `--json` and as the `--out` file.

The dataset has per-difficulty rows, a row without a difficulty, a missing
prediction, a wrong result, an equivalent rewrite, a prediction the engine
rejects and a failing reference query. The three outputs were recorded once;
byte equality is the oracle that changes to how the report is built leave
what `diver eval` prints and writes unchanged. To re-record after a
deliberate change, write the outputs of `render` over the two files and say
why in the change.
"""

import json
from pathlib import Path

from diver import cli

GOLDEN_TEXT = Path(__file__).resolve().parent / "golden" / "eval_report.txt"
GOLDEN_JSON = Path(__file__).resolve().parent / "golden" / "eval_report.json"

ROWS = [
    # (difficulty, reference SQL, predicted SQL or None, evidence or None)
    (
        "simple",
        "SELECT id FROM orders WHERE region = 'west'",
        "SELECT id FROM orders WHERE region = 'west'",
        "West orders are those with region = 'west'.",
    ),
    (
        "simple",
        "SELECT customer FROM orders WHERE qty > 8",
        "SELECT customer FROM orders WHERE qty > 900",
        "Big orders have a qty above 8.",
    ),
    ("moderate", "SELECT COUNT(*) FROM orders", None, None),
    (
        "moderate",
        "SELECT customer, qty FROM orders WHERE region = 'north'",
        "SELECT nope FROM orders WHERE region = 'north'",
        "North is a region; each order has a customer.",
    ),
    (
        "challenging",
        "SELECT SUM(amount) FROM orders WHERE region = 'east'",
        "SELECT SUM(o.amount) FROM orders AS o WHERE o.region = 'east'",
        "East amount totals come from orders.",
    ),
    (
        "challenging",
        "SELECT broken FROM nowhere",
        "SELECT id FROM orders",
        "Nothing here.",
    ),
    (
        None,
        "SELECT id FROM orders ORDER BY amount DESC LIMIT 3",
        "SELECT id FROM orders ORDER BY amount ASC LIMIT 3",
        "The largest amount orders by id.",
    ),
]


def render(db_root: Path, work: Path, capsys) -> tuple[str, str, bytes]:
    """(text output, --json output, --out file bytes) of one eval."""
    dataset, predictions = [], {}
    for i, (difficulty, gold, pred, evidence) in enumerate(ROWS, start=1):
        row = {"question_id": i, "db_id": "eval_fixture", "question": f"q{i}", "SQL": gold}
        if difficulty is not None:
            row["difficulty"] = difficulty
        if evidence is not None:
            row["evidence"] = evidence
        dataset.append(row)
        if pred is not None:
            predictions[str(i)] = pred
    (work / "dataset.json").write_text(json.dumps(dataset), encoding="utf-8")
    (work / "predictions.json").write_text(json.dumps(predictions), encoding="utf-8")
    common = [
        "eval",
        "--dataset", str(work / "dataset.json"),
        "--predictions", str(work / "predictions.json"),
        "--db-root", str(db_root),
        "--metrics", "ex,f1,overlap",
    ]
    capsys.readouterr()
    assert cli.main(common + ["--out", str(work / "report.json")]) == 0
    text = capsys.readouterr().out
    assert cli.main(common + ["--json"]) == 0
    as_json = capsys.readouterr().out
    return text, as_json, (work / "report.json").read_bytes()


def test_golden_eval_report_is_byte_identical(db_root, tmp_path, capsys):
    text, as_json, out = render(db_root, tmp_path, capsys)
    assert text == GOLDEN_TEXT.read_text(encoding="utf-8")
    assert as_json == GOLDEN_JSON.read_text(encoding="utf-8")
    assert out == GOLDEN_JSON.read_bytes()
