"""End-to-end run for one question: decompose, probe, harvest, synthesize."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from pathlib import Path

from .breakup import segment, token_refine
from .cotf import DEFAULT_MAX_TURNS, CoTFDocument, Question
from .database import catalog as build_catalog
from .database import open_database
from .evidence import STYLES, Evidence, self_consistency
from .lookup import harvest_linkings, run_lookup
from .toolbox import ToolContext

log = logging.getLogger(__name__)

DEFAULT_CANDIDATES = 3


@dataclass
class PipelineConfig:
    style: str  # a key of evidence.STYLES, or "both" for all of them
    max_turns: int = DEFAULT_MAX_TURNS
    candidates: int = DEFAULT_CANDIDATES
    seed: int = 0

    def __post_init__(self) -> None:
        if self.style != "both" and self.style not in STYLES:
            raise ValueError(f"unknown evidence style: {self.style!r}")
        if self.candidates < 1:
            raise ValueError("candidates must be at least 1")

    def styles(self) -> tuple[str, ...]:
        if self.style == "both":
            return tuple(STYLES)
        return (self.style,)


def run_question(
    question: Question,
    db_path: str | Path,
    description_dir: str | Path | None,
    llm,
    embedder,
    config: PipelineConfig,
) -> tuple[CoTFDocument, dict[str, Evidence]]:
    """Produce the probe trace and one Evidence per configured style."""
    handle = open_database(db_path)
    try:
        cat = build_catalog(handle, description_dir)
        proposals = segment(question.text, llm)
        clauses = token_refine(question.text, proposals)
        doc = CoTFDocument(
            question=question, clauses=clauses, max_turns=config.max_turns
        )
        context = ToolContext(
            handle=handle,
            catalog=cat,
            embedder=embedder,
            rng=random.Random(f"{config.seed}:{question.question_id}"),
        )
        run_lookup(doc, llm, context)
        for link in harvest_linkings(doc, llm):
            doc.add_verified(link)
        evidences = {
            style: self_consistency(doc, llm, config.candidates, style, cat)
            for style in config.styles()
        }
        return doc, evidences
    finally:
        handle.close()
