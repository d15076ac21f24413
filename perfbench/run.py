"""Benchmark for `diver run` and `diver eval`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (cached under perfbench/_cache),
then runs the public command through `diver.cli.main` in a fresh interpreter
per batch, again and again for S seconds, and checks every batch's outputs.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced batches and reports the per-layer metrics.
The last line of output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / "_cache"
KEEP_CACHED = 4  # input sets kept on disk, newest first
SETUP_REPEATS = 5  # at least this many set-up timings per run
CHILD_TIMEOUT = 170  # seconds for one diver process
EVAL_ARGS = ["--metrics", "ex,ves,f1,overlap", "--iterations", "10"]

WORKLOADS = {
    "probe_heavy": {"inputs": "probe", "style": "concise", "dataset": "probe_dataset.json",
                    "plans": "probe_plans.json"},
    "prompt_heavy": {"inputs": "prompt", "style": "both", "dataset": "prompt_dataset.json",
                     "plans": "prompt_plans.json"},
    "eval_batch": {"inputs": "probe", "dataset": "eval_dataset.json"},
}


def _source_hash() -> str:
    """Identity of the program under test; a recording is reused only for
    the exact sources it was made with."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "diver").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prepare_inputs(kind: str, seed: int) -> Path:
    """Generate (or reuse) the seed's inputs. Excluded from every metric."""
    import workloads

    folder = CACHE / f"{kind}-{seed}"
    manifest = folder / "manifest.json"
    generator = hashlib.sha256(Path(workloads.__file__).read_bytes()).hexdigest()[:16]
    if manifest.is_file():
        saved = json.loads(manifest.read_text(encoding="utf-8"))
        if saved.get("generator") == generator and saved["db_hashes"] == workloads.db_hashes(
            folder / "db_root"
        ):
            os.utime(manifest)
            return folder
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    build = workloads.build_probe_inputs if kind == "probe" else workloads.build_prompt_inputs
    build(folder, seed)
    (folder / "empty.json").write_text("[]\n", encoding="utf-8")
    (folder / "empty_predictions.json").write_text("{}\n", encoding="utf-8")
    payload = {"generator": generator, "seed": seed,
               "db_hashes": workloads.db_hashes(folder / "db_root")}
    manifest.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    kept = sorted(CACHE.glob("*/manifest.json"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in kept[KEEP_CACHED:]:
        shutil.rmtree(old.parent, ignore_errors=True)
    return folder


def prepare_recording(workload: str, folder: Path) -> tuple[Path, dict]:
    """Record the responder's answers once per (inputs, program source)."""
    spec = WORKLOADS[workload]
    tag = f"{workload}-{_source_hash()}"
    script_path, record_path = folder / f"script-{tag}.json", folder / f"record-{tag}.json"
    if record_path.is_file() and script_path.is_file():
        return script_path, json.loads(record_path.read_text(encoding="utf-8"))
    from responder import record

    dataset = json.loads((folder / spec["dataset"]).read_text(encoding="utf-8"))
    plans = json.loads((folder / spec["plans"]).read_text(encoding="utf-8"))
    recorded = record(dataset, folder / "db_root", plans, spec["style"])
    script_path.write_text(json.dumps(recorded.pop("script")), encoding="utf-8")
    record_path.write_text(json.dumps(recorded), encoding="utf-8")
    return script_path, recorded


def run_child(work: Path, diver_args: list[str], traced: bool = False) -> dict:
    """Run one diver command in a fresh interpreter (see child.py). Returns
    the child's report plus the wall time of the whole process and, traced,
    its spans."""
    work.mkdir(parents=True, exist_ok=True)
    result, spans_path = work / "child.json", work / "spans.json"
    outputs = [str(result)] + ([str(spans_path)] if traced else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *outputs, "--", *diver_args],
            cwd=ROOT, env=env, stdout=out, stderr=err, timeout=CHILD_TIMEOUT,
        )
    wall_s = time.perf_counter() - started
    if proc.returncode != 0 or not result.is_file():
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"diver process failed ({proc.returncode}):\n{tail}")
    report = json.loads(result.read_text(encoding="utf-8"))
    report["wall_s"] = wall_s
    report["spans"] = json.loads(spans_path.read_text(encoding="utf-8")) if traced else None
    return report


class Bench:
    def __init__(self, workload: str, seed: int):
        self.spec = WORKLOADS[workload]
        self.folder = prepare_inputs(self.spec["inputs"], seed)
        self.db_root = self.folder / "db_root"
        self.dataset = json.loads((self.folder / self.spec["dataset"]).read_text(encoding="utf-8"))
        self.is_eval = workload == "eval_batch"
        if self.is_eval:
            self.expected = json.loads(
                (self.folder / "eval_expected.json").read_text(encoding="utf-8")
            )
            self.script = self.recorded = None
        else:
            self.script, self.recorded = prepare_recording(workload, self.folder)
        self.work = CACHE / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.problems: list[str] = []
        self.reference_report: dict | None = None
        self.batches = 0

    def diver_args(self, out: Path, empty: bool = False) -> list[str]:
        """The workload's diver command, over its dataset or an empty one."""
        out.mkdir(parents=True, exist_ok=True)
        dataset = self.folder / ("empty.json" if empty else self.spec["dataset"])
        common = ["--dataset", str(dataset), "--db-root", str(self.db_root)]
        if self.is_eval:
            predictions = self.folder / ("empty_predictions.json" if empty else "eval_predictions.json")
            return ["eval", *common, "--predictions", str(predictions), *EVAL_ARGS,
                    "--out", str(out / "report.json")]
        return ["run", *common, "--out", str(out), "--mock-llm", str(self.script),
                "--style", self.spec["style"]]

    def setup_seconds(self) -> float:
        """Fresh interpreter to ready: the workload's command over an empty
        dataset (imports, argument parsing, client construction)."""
        work = self.work / "setup"
        child = run_child(work, self.diver_args(work / "out", empty=True))
        shutil.rmtree(work, ignore_errors=True)
        return child["wall_s"]

    def batch(self, traced: bool) -> dict:
        """One measured batch; returns its size, cost and spans."""
        self.batches += 1
        work = self.work / f"batch-{self.batches}"
        out = work / "out"
        child = run_child(work, self.diver_args(out), traced)
        if self.is_eval:
            failed = self._check_eval(out, child["code"])
        else:
            failed = self._check_run(out, self.batches == 1, child["code"])
        shutil.rmtree(work, ignore_errors=True)
        return {"items": len(self.dataset), "failed": failed, "main_s": child["main_s"],
                "peak_rss_mb": child["peak_rss_mb"], "spans": child["spans"]}

    def _check_run(self, out: Path, first: bool, code: int) -> int:
        import oracles

        if not (out / "run_report.json").is_file():
            self.problems.append(f"diver run exited with {code} and wrote no run_report.json")
            return len(self.dataset)
        report = oracles.load_json(out / "run_report.json")
        for qid, reason in report["failed"].items():
            self.problems.append(f"{qid} failed: {reason}")
        for row in self.dataset:
            qid = str(row["question_id"])
            if qid in report["failed"]:
                continue
            trace = (out / "traces" / f"{qid}.json").read_bytes()
            texts = oracles.load_json(out / "evidence" / f"{qid}.json")
            if trace.decode("utf-8") != self.recorded["traces"][qid]:
                self.problems.append(f"{qid}: trace differs from the recording pass")
            if texts != self.recorded["evidence"][qid]:
                self.problems.append(f"{qid}: evidence differs from the recording pass")
            if first:
                self.problems += oracles.partition_problems(qid, json.loads(trace))
                self.problems += oracles.grounding_problems(
                    qid, trace, texts, self._catalog(row["db_id"])
                )
        return len(report["failed"])

    def _catalog(self, db_id: str):
        from diver.database import catalog, db_path_for, description_dir_for, open_database

        handle = open_database(db_path_for(self.db_root, db_id))
        try:
            return catalog(handle, description_dir_for(self.db_root, db_id))
        finally:
            handle.close()

    def _check_eval(self, out: Path, code: int) -> int:
        import oracles

        if not (out / "report.json").is_file():
            self.problems.append(f"diver eval exited with {code} and wrote no report")
            return len(self.dataset)
        report = oracles.load_json(out / "report.json")
        if self.reference_report is None:
            self.reference_report = oracles.without_timing(report)
            self.problems += oracles.eval_problems(report, self.expected)
        elif oracles.without_timing(report) != self.reference_report:
            self.problems.append("eval report differs between batches beyond VES timing")
        return len(self.dataset) - report["count"]

    def check_databases(self) -> None:
        import workloads

        manifest = json.loads((self.folder / "manifest.json").read_text(encoding="utf-8"))
        if workloads.db_hashes(self.db_root) != manifest["db_hashes"]:
            self.problems.append("a database file changed during the run")


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _rate(batches: list[dict]) -> float:
    return statistics.median(b["items"] / b["main_s"] for b in batches)


def end_to_end_metrics(plain: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "items_per_s": _rate(plain),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in plain),
        "setup_s": statistics.median(setups),
    }


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    import spans

    metrics = spans.layer_metrics([b["spans"] for b in traced], sum(b["items"] for b in traced))
    # batches alternate, so each traced batch is paired with the untraced one
    # just before it; pairing cancels most of the machine's drift
    metrics["trace.overhead_ratio"] = statistics.median(
        _rate([t]) / _rate([p]) for p, t in zip(plain, traced)
    )
    return metrics


def measure(bench: Bench, seconds: float, trace: bool):
    """Batches for `seconds`. Untraced, each batch is followed by one set-up
    timing, so both sample the whole run; traced, untraced and traced
    batches alternate. Returns (untraced, traced, set-up times)."""
    plain, traced, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        tracing = trace and len(traced) < len(plain)
        (traced if tracing else plain).append(bench.batch(tracing))
        if not trace:
            setups.append(bench.setup_seconds())
        enough = len(plain) >= 2 and len(traced) >= 2 if trace else len(plain) >= 3
        if enough and time.perf_counter() >= deadline:
            break
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(bench.setup_seconds())
    return plain, traced, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diver" / "cli.py").is_file():
        print(f"error: the diver sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # the recording pass runs diver in this process; its warnings are expected
    logging.getLogger("diver").addHandler(logging.NullHandler())

    bench = Bench(args.workload, args.seed)
    try:
        plain, traced, setups = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    bench.check_databases()
    if args.trace:
        import spans

        bench.problems += spans.coverage_problems([b["spans"] for b in traced], args.workload)
        metrics = per_layer_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(plain, setups)
    batches = plain + traced

    units = declared_metrics(bool(args.trace))
    if set(metrics) != set(units):
        bench.problems.append(
            f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    for name in sorted(metrics):
        print(f"{name:<36} {metrics[name]:>14.4f} {units.get(name, '?')}")
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": sum(b["items"] for b in batches),
                "failed": sum(b["failed"] for b in batches),
                "metrics": {
                    name: {"value": value, "unit": units.get(name, "")}
                    for name, value in sorted(metrics.items())
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
