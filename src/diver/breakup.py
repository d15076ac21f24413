"""Two-stage question decomposition.

segment() asks the model for a coarse clause list; token_refine() then maps
every proposal back onto the question's own tokens so the output clauses are
verbatim, ordered, gap-free and covering. The model may paraphrase, drop or
mangle words; the refinement only trusts it for approximate boundaries.
"""

from __future__ import annotations

import logging

from .cotf import Clause
from .llm import extract_json
from .prompts import SEGMENTATION
from .tokens import tokenize

logger = logging.getLogger(__name__)


def segment(question_text: str, llm) -> list[str]:
    """Coarse segmentation: ask for a JSON array of clause strings.

    Unparseable output degrades to [] (the caller falls back to one clause);
    client errors propagate untouched.
    """
    response = llm.chat(SEGMENTATION.request(question=question_text))
    arr = extract_json(response, list)
    if arr is None:
        logger.warning("segmentation output was not a JSON array; using whole question")
        return []
    proposals = [item for item in arr if isinstance(item, str) and item.strip()]
    if len(proposals) != len(arr):
        logger.warning("segmentation output contained non-string entries; dropped")
    return proposals


def _lcs_match(window: list[str], proposal: list[str]) -> list[int]:
    """Indices into `window` of the leftmost longest common subsequence with
    `proposal`. Deterministic: earliest possible match positions."""
    n, m = len(window), len(proposal)
    if n == 0 or m == 0:
        return []
    # dp[i][j] = LCS length of window[i:] and proposal[j:]
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, nxt = dp[i], dp[i + 1]
        for j in range(m - 1, -1, -1):
            if window[i] == proposal[j]:
                row[j] = nxt[j + 1] + 1
            else:
                row[j] = nxt[j] if nxt[j] >= row[j + 1] else row[j + 1]
    out = []
    i = j = 0
    while i < n and j < m:
        if window[i] == proposal[j] and dp[i][j] == dp[i + 1][j + 1] + 1:
            out.append(i)
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            i += 1
        else:
            j += 1
    return out


def token_refine(question_text: str, proposed: list[str]) -> list[Clause]:
    """Snap proposed clause strings onto the question's token sequence.

    Greedy left-to-right: each proposal is LCS-aligned (case-insensitive)
    against the tokens after the previous match; proposals that match nothing
    are dropped. Clause boundaries sit at the midpoints between consecutive
    matches, so unmatched tokens join the nearer clause (ties go right).
    Output always satisfies the partition property; with no usable proposals
    the whole question becomes one clause. Idempotent.
    """
    toks = tokenize(question_text)
    if not toks:
        raise ValueError("question has no tokens")
    words = [t.text.lower() for t in toks]

    matches: list[tuple[int, int]] = []  # inclusive (first, last) token indices
    cursor = 0
    for proposal in proposed:
        pwords = [t.text.lower() for t in tokenize(proposal)]
        hit = _lcs_match(words[cursor:], pwords)
        if not hit:
            continue
        first, last = hit[0] + cursor, hit[-1] + cursor
        matches.append((first, last))
        cursor = last + 1

    if not matches:
        return [Clause(index=0, text=question_text[toks[0].start : toks[-1].end], token_span=(0, len(toks)))]

    bounds = [0]
    for (_, prev_last), (next_first, _) in zip(matches, matches[1:]):
        bounds.append((prev_last + next_first + 1) // 2)
    bounds.append(len(toks))

    clauses = []
    for i, (s, e) in enumerate(zip(bounds, bounds[1:])):
        clauses.append(
            Clause(
                index=i,
                text=question_text[toks[s].start : toks[e - 1].end],
                token_span=(s, e),
            )
        )
    return clauses
