"""Per-layer tracing from outside the program.

`install()` wraps the public functions of each diver module where their
caller looks them up (for example `diver.lookup.dispatch`, because lookup
imports dispatch by name) and records one span per call plus a few counts
at the same boundaries. Spans stay in memory and are written out when the
traced process ends. `layer_metrics()` turns the spans of one or more
traced batches into the per-layer numbers.

Every target names the workloads that must hit it, so a rename in the
program fails the benchmark instead of silently zeroing a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter

from responder import STAGES, stage_of

TOOLS = ("value_in", "sim_value_in", "uniq_value", "head", "random", "if_null", "info", "sim_columns")
TOOL_FUNCTIONS = {tool: "random_rows" if tool == "random" else tool for tool in TOOLS}
LAYERS = ("cli", "pipeline", "breakup", "lookup", "cotf", "llm", "toolbox", "database",
          "embedding", "evidence", "eval")
PROBE_LAYERS = ("toolbox", "database", "embedding")

RUN = ("probe_heavy", "prompt_heavy")
PROBE = ("probe_heavy",)
PROMPT = ("prompt_heavy",)
EVAL = ("eval_batch",)
ALL = RUN + EVAL

# (where the caller finds it, layer, workloads that must call it)
TARGETS = [
    ("diver.cli:cmd_run", "cli", RUN),
    ("diver.cli:cmd_eval", "cli", EVAL),
    ("diver.cli:run_question", "pipeline", RUN),
    ("diver.cli:serialize", "cotf", RUN),
    ("diver.cli:evaluate", "eval", EVAL),
    ("diver.pipeline:open_database", "database", RUN),
    ("diver.pipeline:build_catalog", "database", RUN),
    ("diver.pipeline:segment", "breakup", RUN),
    ("diver.pipeline:token_refine", "breakup", RUN),
    ("diver.pipeline:run_lookup", "lookup", RUN),
    ("diver.pipeline:harvest_linkings", "lookup", RUN),
    ("diver.pipeline:self_consistency", "evidence", RUN),
    ("diver.lookup:run_clause", "lookup", RUN),
    ("diver.lookup:serialize", "cotf", RUN),
    ("diver.lookup:append_turn", "cotf", RUN),
    ("diver.lookup:structured_tool_call", "llm", RUN),
    ("diver.lookup:dispatch", "toolbox", RUN),
    ("diver.evidence:serialize", "cotf", RUN),
    ("diver.evidence:generate_long", "evidence", PROMPT),
    ("diver.evidence:generate_concise", "evidence", RUN),
    ("diver.evidence:grounding_filter", "evidence", RUN),
    ("diver.llm:ScriptedSession.chat", "llm", RUN),
    ("diver.llm:ScriptedSession.from_file", "llm", RUN),
    ("diver.database:DatabaseHandle.query", "database", ALL),
    ("diver.toolbox:top_k", "embedding", PROBE),
    ("diver.embedding:LexicalEmbedder.embed", "embedding", PROBE),
    ("diver.eval:open_database", "database", EVAL),
    ("diver.eval:build_catalog", "database", EVAL),
    ("diver.eval:ex_match", "eval", EVAL),
    ("diver.eval:ves_reward", "eval", EVAL),
    ("diver.eval:extract_entities", "eval", EVAL),
] + [
    (f"diver.toolbox:{TOOL_FUNCTIONS[tool]}", "toolbox",
     RUN if tool in ("value_in", "uniq_value", "head", "if_null", "info", "sim_columns") else PROBE)
    for tool in TOOLS
]


class Recorder:
    """Spans as [target, layer, parent index, start ns, end ns], plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, target: str, layer: str, after=None) -> None:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder else raw
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [target, layer, stack[-1] if stack else -1, time.perf_counter_ns(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        setattr(owner, attr, binder(traced) if binder else traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _after_chat(counts, args, result):
    request = args[1]
    stage = stage_of(request)
    counts[f"llm.requests.{stage}"] += 1
    counts[f"llm.prompt_chars.{stage}"] += sum(len(m.content) for m in request.messages)
    if stage == "harvest":
        try:
            counts["lookup.harvest_proposed"] += len(json.loads(result))
        except (ValueError, TypeError):
            pass


def _after_append(counts, args, result):
    counts["lookup.turns"] += 1
    counts[f"lookup.{args[2].feedback.kind}"] += 1


def _count(key, measure):
    def after(counts, args, result):
        counts[key] += measure(args, result)

    return after


HOOKS = {
    "diver.llm:ScriptedSession.chat": _after_chat,
    "diver.lookup:append_turn": _after_append,
    "diver.lookup:dispatch": _count("toolbox.corrective", lambda a, r: r.kind == "corrective"),
    "diver.pipeline:harvest_linkings": _count("lookup.harvest_kept", lambda a, r: len(r)),
    "diver.cli:serialize": _count("cotf.serialize_bytes", lambda a, r: len(r)),
    "diver.lookup:serialize": _count("cotf.serialize_bytes", lambda a, r: len(r)),
    "diver.evidence:serialize": _count("cotf.serialize_bytes", lambda a, r: len(r)),
    "diver.database:DatabaseHandle.query": _count("database.rows", lambda a, r: len(r.rows)),
    "diver.embedding:LexicalEmbedder.embed": _count("embedding.texts", lambda a, r: len(a[1])),
    "diver.evidence:grounding_filter": _count(
        "evidence.claims_dropped", lambda a, r: len(r["removed_claims"])
    ),
}


def install() -> Recorder:
    recorder = Recorder()
    for target, layer, _ in TARGETS:
        recorder.wrap(target, layer, HOOKS.get(target))
    return recorder


# --- analysis (runs in the benchmark process) ---


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span in ns: its duration minus the part of it that
    its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, _, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, _, _, start, end) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile (nearest rank) with at least ten samples
    above it, and its value; (0, 0.0) when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # ceil
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return 0, 0.0


def coverage_problems(batches: list[dict], workload: str) -> list[str]:
    hit = Counter(span[0] for batch in batches for span in batch["spans"])
    return [
        f"traced target {target} was never called on {workload}"
        for target, _, expected in TARGETS
        if workload in expected and not hit[target]
    ]


def layer_metrics(batches: list[dict], items: int) -> dict[str, float]:
    """Per-layer numbers per item (question or sample) over traced batches."""
    per = 1.0 / max(items, 1)
    self_ns: Counter = Counter()
    durations: dict[str, list[float]] = {}
    counts: Counter = Counter()
    for batch in batches:
        for span, own in zip(batch["spans"], self_times(batch["spans"])):
            self_ns[span[1]] += own
            durations.setdefault(span[0], []).append((span[4] - span[3]) / 1e6)
        counts.update(batch["counts"])

    def calls(target):
        return len(durations.get(target, ()))

    def ms(layer):
        return self_ns[layer] / 1e6 * per

    questions = durations.get("diver.cli:run_question", [])
    tail_pct, tail_ms = tail_percentile(questions)
    pipeline_ms = sum(questions)
    out = {
        "pipeline.question_p50_ms": statistics.median(questions) if questions else 0.0,
        "pipeline.question_tail_ms": tail_ms,
        "pipeline.question_tail_pct": tail_pct,
        "pipeline.questions": len(questions),
        "pipeline.probe_share": (
            sum(self_ns[layer] for layer in PROBE_LAYERS) / 1e6 / pipeline_ms if pipeline_ms else 0.0
        ),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = ms(layer)
    out.update(
        {
            "lookup.turns": counts["lookup.turns"] * per,
            "lookup.guiding": counts["lookup.guiding"] * per,
            "lookup.corrective": counts["lookup.corrective"] * per,
            "lookup.harvest_kept_ratio": (
                counts["lookup.harvest_kept"] / counts["lookup.harvest_proposed"]
                if counts["lookup.harvest_proposed"] else 0.0
            ),
            "cotf.serialize_calls": sum(
                calls(f"diver.{m}:serialize") for m in ("cli", "lookup", "evidence")
            ) * per,
            "cotf.serialize_kbytes": counts["cotf.serialize_bytes"] / 1000 * per,
            "llm.repairs": counts["llm.requests.repair"] * per,
            "llm_requests_per_question": sum(
                counts[f"llm.requests.{s}"] for s in STAGES
            ) * per,
            "prompt_kchars_per_question": sum(
                counts[f"llm.prompt_chars.{s}"] for s in STAGES
            ) / 1000 * per,
        }
    )
    for stage in STAGES:
        out[f"llm.requests.{stage}"] = counts[f"llm.requests.{stage}"] * per
        out[f"llm.prompt_kchars.{stage}"] = counts[f"llm.prompt_chars.{stage}"] / 1000 * per
    dispatches = calls("diver.lookup:dispatch")
    out["toolbox.corrective_ratio"] = counts["toolbox.corrective"] / dispatches if dispatches else 0.0
    for tool in TOOLS:
        spent = durations.get(f"diver.toolbox:{TOOL_FUNCTIONS[tool]}", [])
        out[f"toolbox.{tool}.calls"] = len(spent) * per
        out[f"toolbox.{tool}.p50_ms"] = statistics.median(spent) if spent else 0.0
    out.update(
        {
            "database.queries": calls("diver.database:DatabaseHandle.query") * per,
            "database.rows_fetched": counts["database.rows"] * per,
            "database.catalog_calls": (
                calls("diver.pipeline:build_catalog") + calls("diver.eval:build_catalog")
            ) * per,
            "database.opens": (
                calls("diver.pipeline:open_database") + calls("diver.eval:open_database")
            ) * per,
            "embedding.texts_embedded": counts["embedding.texts"] * per,
            "evidence.claims_dropped": counts["evidence.claims_dropped"] * per,
            "eval.extract_entities_ms": sum(
                durations.get("diver.eval:extract_entities", ())
            ) * per,
        }
    )
    return out
