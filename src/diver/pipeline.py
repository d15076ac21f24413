"""End-to-end run for one question: decompose, probe, harvest, synthesize."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from pathlib import Path

from .breakup import segment, token_refine
from .cotf import DEFAULT_MAX_TURNS, CoTFDocument, Evidence, Question
from .database import catalog as build_catalog
from .database import open_database
from .evidence import self_consistency
from .lookup import harvest_linkings, run_lookup
from .toolbox import ToolContext

log = logging.getLogger(__name__)

DEFAULT_CANDIDATES = 3


@dataclass
class PipelineConfig:
    style: str = "concise"  # long | concise | both
    max_turns: int = DEFAULT_MAX_TURNS
    candidates: int = DEFAULT_CANDIDATES
    seed: int = 0

    def styles(self) -> tuple[str, ...]:
        if self.style == "both":
            return ("long", "concise")
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
            style: self_consistency(
                doc, llm, n=config.candidates, style=style, catalog=cat
            )
            for style in config.styles()
        }
        return doc, evidences
    finally:
        handle.close()
