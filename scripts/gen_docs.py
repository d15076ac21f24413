"""Regenerate the golden prompt files under docs/ from the live constants.

Run from the repository root: python3 scripts/gen_docs.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from diver import prompts  # noqa: E402
from diver.toolbox import render_guidance  # noqa: E402

SEPARATOR = "\n\n--- user message template ---\n\n"


def segmentation_doc() -> str:
    return prompts.SEGMENTATION_SYSTEM + SEPARATOR + prompts.SEGMENTATION_USER


def lookup_doc() -> str:
    return (
        prompts.LOOKUP_SYSTEM
        + SEPARATOR
        + prompts.LOOKUP_THOUGHT_USER
        + "\n\n--- tool call request (sent after the thought) ---\n\n"
        + prompts.LOOKUP_TOOL_USER.format()
        + "\n\n--- repair request (sent after a tool call that does not parse) ---\n\n"
        + prompts.REPAIR_USER.format(error="{error}")
    )


FILES = {
    "tool_guidance.txt": render_guidance,
    "segmentation_prompt.txt": segmentation_doc,
    "lookup_prompt.txt": lookup_doc,
}


def render() -> dict[str, str]:
    """The text of each docs/ file, ending in one newline."""
    texts = {}
    for name, producer in FILES.items():
        text = producer()
        texts[name] = text if text.endswith("\n") else text + "\n"
    return texts


def main() -> None:
    docs = ROOT / "docs"
    docs.mkdir(exist_ok=True)
    for name, text in render().items():
        (docs / name).write_text(text, encoding="utf-8")
        print(f"wrote docs/{name} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
