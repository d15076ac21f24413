"""Regenerate docs/, the golden copy of every stage the model is sent.

Each prompts.Stage row of the module gets one file, docs/<row name in lower
case>.txt, with its name, temperature, response format, system prompt and
user template. The rows are found in the module, not listed here, so a new
stage gets its file and a changed one changes its file.

Run from the repository root: python3 scripts/gen_docs.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from diver import prompts  # noqa: E402


def stage_doc(name: str, stage: prompts.Stage) -> str:
    return (
        f"stage: {name}\n"
        f"temperature: {stage.temperature!r}\n"
        f"response_format: {stage.response_format}\n"
        "\n--- system message ---\n\n"
        f"{stage.system}\n"
        "\n--- user message template (str.format: a doubled brace is one brace) ---\n\n"
        f"{stage.user}\n"
    )


def render() -> dict[str, str]:
    """The text of each docs/ file, one per Stage row of prompts."""
    return {
        f"{name.lower()}.txt": stage_doc(name, stage)
        for name, stage in vars(prompts).items()
        if isinstance(stage, prompts.Stage)
    }


def main() -> None:
    docs = ROOT / "docs"
    docs.mkdir(exist_ok=True)
    texts = render()
    for stale in sorted({p.name for p in docs.iterdir()} - texts.keys()):
        (docs / stale).unlink()
        print(f"removed docs/{stale}")
    for name, text in texts.items():
        (docs / name).write_text(text, encoding="utf-8")
        print(f"wrote docs/{name} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
