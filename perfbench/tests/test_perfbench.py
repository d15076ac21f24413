"""Tests of the benchmark itself: the responder, the span arithmetic, the
oracles and the metric names it reports."""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import responder  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def prompt_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("prompt")
    workloads.build_prompt_inputs(root, seed=7)
    dataset = json.loads((root / "prompt_dataset.json").read_text(encoding="utf-8"))[:4]
    plans = json.loads((root / "prompt_plans.json").read_text(encoding="utf-8"))
    return root, dataset, plans


def test_generator_is_seeded(tmp_path):
    for name in ("a", "b", "c"):
        workloads.build_prompt_inputs(tmp_path / name, seed=3 if name != "c" else 4)
    same = [(tmp_path / n / "prompt_plans.json").read_bytes() for n in ("a", "b", "c")]
    assert same[0] == same[1] != same[2]
    assert workloads.db_hashes(tmp_path / "a" / "db_root") == workloads.db_hashes(
        tmp_path / "b" / "db_root"
    )


def test_responder_answers_from_content_not_position(prompt_inputs):
    """Recording the questions in either order gives the same script and the
    same outputs, so no answer depends on its place in the sequence."""
    root, dataset, plans = prompt_inputs
    forward = responder.record(dataset, root / "db_root", plans, "both")
    backward = responder.record(dataset[::-1], root / "db_root", plans, "both")
    assert forward["traces"] == backward["traces"]
    assert forward["evidence"] == backward["evidence"]
    assert forward["script"] == backward["script"]


def test_recorded_workload_has_its_features(prompt_inputs):
    root, dataset, plans = prompt_inputs
    recorded = responder.record(dataset, root / "db_root", plans, "both")
    for qid, text in recorded["traces"].items():
        trace = json.loads(text)
        assert oracles.partition_problems(qid, trace) == []
        assert 4 <= len(trace["clauses"]) <= 6
        kinds = [t["feedback"]["kind"] for column in trace["turns"] for t in column]
        assert all(len(column) == trace["max_turns"] for column in trace["turns"])
        assert {"standard", "guiding", "corrective"} <= set(kinds)
        assert trace["verified"]
    for texts in recorded["evidence"].values():
        assert set(texts) == {"long", "concise"}
        assert "phantom_archive" not in texts["long"]


def test_stage_of_names_every_stage(prompt_inputs):
    root, dataset, plans = prompt_inputs
    client = responder.RecordingClient(responder.Responder(plans))
    seen = []

    class Spy:
        def chat(self, request):
            seen.append(responder.stage_of(request))
            return client.chat(request)

    from diver.embedding import LexicalEmbedder
    from diver.pipeline import PipelineConfig, run_question

    row = dataset[0]
    run_question(
        responder.question_of(row),
        root / "db_root" / row["db_id"] / f"{row['db_id']}.sqlite",
        None,
        Spy(),
        LexicalEmbedder(),
        PipelineConfig(style="both"),
    )
    assert set(seen) == set(responder.STAGES)


def test_self_time_subtracts_the_union_of_children():
    # root 0..100 with overlapping children 10..40 and 30..60; the first
    # child has a grandchild 15..20
    tree = [
        ["root", "cli", -1, 0, 100],
        ["a", "pipeline", 0, 10, 40],
        ["b", "llm", 0, 30, 60],
        ["c", "cotf", 1, 15, 20],
    ]
    assert spans.self_times(tree) == [50, 25, 30, 5]


def test_layer_metrics_sum_self_time_per_layer():
    batch = {
        "spans": [
            ["diver.cli:cmd_run", "cli", -1, 0, 10_000_000],
            ["diver.cli:run_question", "pipeline", 0, 1_000_000, 9_000_000],
            ["diver.lookup:dispatch", "toolbox", 1, 2_000_000, 6_000_000],
            ["diver.toolbox:value_in", "toolbox", 2, 2_000_000, 5_000_000],
            ["diver.database:DatabaseHandle.query", "database", 3, 3_000_000, 5_000_000],
        ],
        "counts": {"toolbox.corrective": 1},
    }
    got = spans.layer_metrics([batch], items=2)
    assert got["cli.self_ms"] == pytest.approx(1.0)
    assert got["pipeline.self_ms"] == pytest.approx(2.0)
    assert got["toolbox.self_ms"] == pytest.approx(1.0)
    assert got["database.self_ms"] == pytest.approx(1.0)
    assert got["toolbox.value_in.calls"] == 0.5
    assert got["toolbox.value_in.p50_ms"] == pytest.approx(3.0)
    assert got["toolbox.corrective_ratio"] == 1.0
    assert got["pipeline.probe_share"] == pytest.approx(0.5)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    pct, value = spans.tail_percentile(values)
    assert (pct, value) == (90, 90)
    assert sum(v > value for v in values) >= 10
    assert spans.tail_percentile(list(range(10))) == (0, 0.0)


def test_coverage_guard_names_a_target_that_was_never_hit():
    problems = spans.coverage_problems([{"spans": [], "counts": {}}], "eval_batch")
    assert any("diver.eval:extract_entities" in p for p in problems)
    assert not any("diver.lookup:dispatch" in p for p in problems)


def test_partition_oracle_catches_a_gap():
    trace = {
        "question": {"text": "Which schools serve grade K?"},
        "clauses": [
            {"index": 0, "text": "Which schools", "token_span": [0, 2]},
            {"index": 1, "text": "grade K?", "token_span": [3, 6]},
        ],
    }
    assert oracles.partition_problems("q", trace)
    trace["clauses"][1] = {"index": 1, "text": "serve grade K?", "token_span": [2, 6]}
    assert oracles.partition_problems("q", trace) == []


def test_expected_eval_scores_follow_prf_arithmetic():
    rng = random.Random(5)
    rows = [workloads._eval_sample(rng, kind, f"e{i}", "db")[2]
            for i, kind in enumerate(workloads.EVAL_KINDS)]
    scores = oracles.expected_scores(rows)
    assert scores["ex"] == pytest.approx(3 / 7)
    rewrite = oracles.expected_scores([rows[1]])["schema_f1"]
    assert rewrite["precision"] == 0.75 and rewrite["recall"] == 1.0
    assert oracles.expected_scores([rows[-1]])["value_f1"]["f1"] == 0.0


def _benchmark_names(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


def test_metric_names_match_benchmark_json():
    batch = {"items": 2, "main_s": 1.0, "peak_rss_mb": 50.0, "spans": [], "counts": {}}
    assert set(run.end_to_end_metrics([batch], [0.4])) == _benchmark_names("end_to_end")
    batch["spans"] = {"spans": [], "counts": {}}
    assert set(run.per_layer_metrics([batch], [batch])) == _benchmark_names("per_layer")
