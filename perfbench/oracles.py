"""Correctness checks on what `diver` wrote. Each returns a list of problems;
an empty list means the outputs are right."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

# tokens as the question tokenizer defines them, re-derived here on purpose
_TOKEN = re.compile(r"\w+|[^\w\s]")


def partition_problems(qid: str, trace: dict) -> list[str]:
    """Clauses must be verbatim, ordered, gap-free and cover the question."""
    text = trace["question"]["text"]
    spans = [(m.start(), m.end()) for m in _TOKEN.finditer(text)]
    expected_start = 0
    for i, clause in enumerate(trace["clauses"]):
        start, end = clause["token_span"]
        if clause["index"] != i or start != expected_start or not start < end <= len(spans):
            return [f"{qid}: clause {i} span {start}..{end} breaks the partition"]
        if clause["text"] != text[spans[start][0] : spans[end - 1][1]]:
            return [f"{qid}: clause {i} text is not the verbatim token span"]
        expected_start = end
    if expected_start != len(spans):
        return [f"{qid}: clauses cover {expected_start} of {len(spans)} tokens"]
    return []


def grounding_problems(qid: str, trace_bytes: bytes, texts: dict, catalog) -> list[str]:
    """Filtering the emitted evidence again must remove nothing."""
    from diver.cotf import deserialize
    from diver.evidence import grounding_filter

    doc = deserialize(trace_bytes)
    problems = []
    for style, text in sorted(texts.items()):
        again = grounding_filter(text, doc, catalog)
        if again["removed_claims"] or again["text"] != text:
            problems.append(f"{qid}: {style} evidence keeps ungrounded {again['removed_claims']}")
    return problems


def _prf(gold: set, pred: set) -> dict[str, float]:
    hits = len(gold & pred)
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(gold) if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def expected_scores(expected: list[dict]) -> dict:
    """Mean EX, F1 parts and overlap of a group of samples, from the entity
    sets and token counts the generator built them from."""
    n = len(expected)
    out = {"count": n, "ex": sum(e["ex"] for e in expected) / n}
    for side, key in (("schema", "schema"), ("value", "values")):
        parts = [_prf(set(e[f"gold_{key}"]), set(e[f"pred_{key}"])) for e in expected]
        out[f"{side}_f1"] = {k: sum(p[k] for p in parts) / n for k in ("precision", "recall", "f1")}
    overlaps = [e["overlap"] for e in expected]
    out["overlap"] = {"mean": sum(overlaps) / n, "min": min(overlaps), "max": max(overlaps), "count": n}
    return out


def _compare(where: str, got: dict, want: dict) -> list[str]:
    problems = []
    for key, value in want.items():
        have = got.get(key)
        if isinstance(value, dict):
            problems += _compare(f"{where}.{key}", have or {}, value)
        elif have is None or not _close(float(have), float(value)):
            problems.append(f"{where}.{key} is {have}, expected {value}")
    return problems


def eval_problems(report: dict, expected: dict[str, dict]) -> list[str]:
    """EX, F1 and overlap equal the values known by construction, overall and
    per sample kind; VES is 0 exactly for the kinds whose EX is 0."""
    problems = _compare("report", report, expected_scores(list(expected.values())))
    kinds = sorted({e["kind"] for e in expected.values()})
    for kind in kinds:
        group = [e for e in expected.values() if e["kind"] == kind]
        got = report.get("per_difficulty", {}).get(kind, {})
        problems += _compare(f"report.{kind}", got, expected_scores(group))
        ves = got.get("ves")
        if ves is None or (ves == 0) != (group[0]["ex"] == 0):
            problems.append(f"report.{kind}: VES {ves} with EX {group[0]['ex']}")
    return problems


def without_timing(report: dict) -> dict:
    """An eval report minus its VES numbers, which are timings."""
    out = {k: v for k, v in report.items() if k != "ves"}
    out["per_difficulty"] = {
        kind: {k: v for k, v in sub.items() if k != "ves"}
        for kind, sub in report.get("per_difficulty", {}).items()
    }
    return out


def load_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
