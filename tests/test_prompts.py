"""docs/ is the golden copy of scripts/gen_docs.py's output, one file per
prompts.Stage row: its name, temperature, response format, system prompt and
user template. The concise-style examples in src/diver/data/concise_shots.json
have no generator: the JSON is their one source, so it must stay canonical
and every workspace in it must round-trip through the trace codec. Every
request the model sees is built by the stage table."""

import importlib.util
import json
from pathlib import Path

import test_golden_trace
from diver.cotf import deserialize, serialize
from diver import prompts
from diver.prompts import Stage
from diver.toolbox import render_guidance
from replay import RecordingSession

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
SHOTS = ROOT / "src" / "diver" / "data" / "concise_shots.json"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen_docs = _script("gen_docs")


def _read(name: str) -> str:
    return (DOCS / name).read_text(encoding="utf-8")


def test_docs_holds_exactly_the_generated_files():
    committed = {p.name: p.read_text(encoding="utf-8") for p in DOCS.iterdir()}
    assert committed == gen_docs.render()


def _system_message(text: str) -> str:
    head, _, rest = text.partition("\n--- system message ---\n\n")
    system, _, _ = rest.partition("\n\n--- user message template")
    assert head and system
    return system


def test_tool_guidance_matches_golden_file():
    # the guidance has no file of its own: it closes the system message of
    # every lookup stage file
    for stage in ("lookup_thought", "lookup_tool", "repair"):
        assert _system_message(_read(f"{stage}.txt")).endswith("\n\n" + render_guidance())


def test_segmentation_prompt_matches_golden_file():
    assert _read("segmentation.txt") == gen_docs.render()["segmentation.txt"]


def test_lookup_prompt_matches_golden_file():
    rendered = gen_docs.render()
    for name in ("lookup_thought.txt", "lookup_tool.txt", "repair.txt"):
        assert _read(name) == rendered[name]


def test_every_stage_row_gets_its_file(monkeypatch):
    stages = {name for name, value in vars(prompts).items() if isinstance(value, Stage)}
    assert len(stages) == 8
    assert set(gen_docs.render()) == {f"{name.lower()}.txt" for name in stages}
    monkeypatch.setattr(prompts, "EXTRA", Stage("sys", "user {x}", 0.3, "free_text"), raising=False)
    assert gen_docs.render()["extra.txt"] == (
        "stage: EXTRA\ntemperature: 0.3\nresponse_format: free_text\n\n"
        "--- system message ---\n\nsys\n\n"
        "--- user message template (str.format: a doubled brace is one brace) ---\n\n"
        "user {x}\n"
    )


def test_guidance_render_is_deterministic():
    assert render_guidance() == render_guidance()


def test_lookup_golden_file_names_every_tool():
    for stage in ("lookup_thought", "lookup_tool", "repair"):
        text = _read(f"{stage}.txt")
        assert render_guidance() in text
        for name in ("value_in", "sim_value_in", "uniq_value", "head", "random",
                     "if_null", "info", "sim_columns", "none"):
            assert f"### {name}" in text


def test_concise_shots_are_canonical_round_tripping_workspaces():
    text = SHOTS.read_text(encoding="utf-8")
    shots = json.loads(text)
    assert text == json.dumps(shots, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert len(shots) == 5
    for shot in shots:
        # deserialize enforces the clause partition and the turn rules
        assert json.loads(serialize(deserialize(json.dumps(shot["cotf"])))) == shot["cotf"]
        assert shot["evidence"].strip()


def test_every_request_a_client_receives_comes_from_the_stage_table(
    schools_db, schools_desc_dir, monkeypatch
):
    # the golden scenario holds a repaired call and one still malformed after
    # its repair, besides every other stage
    built, sessions = [], []
    request = Stage.request

    def recording_request(self, *history, **fields):
        built.append(request(self, *history, **fields))
        return built[-1]

    class Session(RecordingSession):
        def __init__(self, script):
            super().__init__(script)
            sessions.append(self)

    monkeypatch.setattr(Stage, "request", recording_request)
    monkeypatch.setattr(test_golden_trace, "RecordingSession", Session)
    test_golden_trace.run_golden(schools_db, schools_desc_dir)
    stage_built = {id(r) for r in built}
    (session,) = sessions
    assert session.requests
    assert [r for r in session.requests if id(r) not in stage_built] == []
