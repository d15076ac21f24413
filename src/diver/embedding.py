"""Embedding providers and similarity ranking.

Two backends: RemoteEmbedder posts {"input": [...]} to a vector endpoint in
batches of 64; LexicalEmbedder is the offline fallback, hashing character
trigrams into a fixed-width TF-IDF vector. Both return one row per input.
Scores are cosine mapped onto [0, 1]; rank_lexical is the last-resort scorer
(trigram Jaccard) for when no vectors can be produced at all.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
from collections import Counter

import numpy as np

from .errors import EmbedderUnavailable

logger = logging.getLogger(__name__)

DEFAULT_DIMENSION = 512  # width of a lexical vector
DEFAULT_MAX_LENGTH = 8192  # characters of a text kept for embedding
REMOTE_BATCH_SIZE = 64  # texts per request to a remote endpoint
REMOTE_TIMEOUT = 30.0  # seconds per request to a remote endpoint


def _grams(text: str) -> list[str]:
    """Lowercased character 3-grams; strings shorter than 3 chars are one gram."""
    t = text.lower()
    if len(t) < 3:
        return [t] if t else []
    return [t[i : i + 3] for i in range(len(t) - 2)]


def trigrams(text: str) -> set[str]:
    return set(_grams(text))


def trigram_jaccard(a: str, b: str) -> float:
    ga, gb = trigrams(a), trigrams(b)
    if not ga or not gb:
        return 0.0
    return len(ga & gb) / len(ga | gb)


@functools.lru_cache(maxsize=1 << 16)
def _bucket(gram: str) -> tuple[int, float]:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    sign = 1.0 if value & 1 else -1.0
    return (value >> 1) % DEFAULT_DIMENSION, sign


class LexicalEmbedder:
    """Deterministic offline embedder: hashed character-trigram TF-IDF.

    IDF is computed over the batch passed to embed(), so texts that should be
    compared must be embedded together (top_k does this). Identical inputs in
    one batch, and identical batches across calls, always produce identical
    vectors.
    """

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ValueError("embed() needs at least one text")
        texts = [_truncate(t) for t in texts]
        counts = [Counter(_grams(t)) for t in texts]
        df: Counter = Counter()
        for c in counts:
            df.update(set(c))
        n = len(texts)
        idf = {g: math.log((1 + n) / (1 + d)) + 1.0 for g, d in df.items()}
        out = np.zeros((n, DEFAULT_DIMENSION), dtype=np.float64)
        for row, c in enumerate(counts):
            for gram, tf in c.items():
                bucket, sign = _bucket(gram)
                out[row, bucket] += sign * (1.0 + math.log(tf)) * idf[gram]
            norm = np.linalg.norm(out[row])
            if norm > 0:
                out[row] /= norm
        return out


class RemoteEmbedder:
    """HTTP embedding backend. POST {"input": [...]} per batch of 64, expects
    {"data": [{"embedding": [...]}, ...]} in input order."""

    def __init__(self, endpoint: str, api_key: str | None = None):
        self.endpoint = endpoint
        self.api_key = api_key

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ValueError("embed() needs at least one text")
        import requests  # only a remote embedder needs it; a lexical run skips its import

        texts = [_truncate(t) for t in texts]
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        rows: list[list[float]] = []
        for start in range(0, len(texts), REMOTE_BATCH_SIZE):
            batch = texts[start : start + REMOTE_BATCH_SIZE]
            try:
                resp = requests.post(
                    self.endpoint,
                    json={"input": batch},
                    headers=headers,
                    timeout=REMOTE_TIMEOUT,
                )
                resp.raise_for_status()
                data = resp.json()["data"]
            except (requests.RequestException, KeyError, ValueError) as exc:
                raise EmbedderUnavailable(f"embedding endpoint failed: {exc}") from exc
            if len(data) != len(batch):
                raise EmbedderUnavailable(
                    f"endpoint returned {len(data)} vectors for {len(batch)} texts"
                )
            rows.extend(item["embedding"] for item in data)
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise EmbedderUnavailable(f"inconsistent vector widths from endpoint: {widths}")
        return np.asarray(rows, dtype=np.float64)


def _truncate(text: str) -> str:
    if len(text) > DEFAULT_MAX_LENGTH:
        logger.warning(
            "truncating %d-char text to %d chars for embedding", len(text), DEFAULT_MAX_LENGTH
        )
        return text[:DEFAULT_MAX_LENGTH]
    return text


def _cosine_score(a: np.ndarray, b: np.ndarray, na: float, nb: float) -> float:
    if na == 0 or nb == 0:
        return 0.0
    cos = float(np.dot(a, b) / (na * nb))
    cos = max(-1.0, min(1.0, cos))
    return (1.0 + cos) / 2.0


def _ranked(scored: list[tuple[int, float]], candidates: list[str], k: int):
    scored.sort(key=lambda p: (-p[1], candidates[p[0]], p[0]))
    return scored[:k]


def top_k(embedder, query: str, candidates: list[str], k: int) -> list[tuple[int, float]]:
    """Rank candidates against the query: (index, score) pairs, score
    descending, ties broken by candidate text then position."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not candidates:
        return []
    matrix = embedder.embed([query] + candidates)
    # np.linalg.norm of a 1-D float vector is np.sqrt(x.dot(x)) bit for bit;
    # computing that directly skips its overhead, and the query's is taken once
    q = matrix[0]
    nq = np.sqrt(q.dot(q))
    scored = []
    for i in range(len(candidates)):
        row = matrix[i + 1]
        scored.append((i, _cosine_score(q, row, nq, np.sqrt(row.dot(row)))))
    return _ranked(scored, candidates, k)


def rank_lexical(query: str, candidates: list[str], k: int) -> list[tuple[int, float]]:
    """Vector-free ranking by trigram Jaccard, same ordering contract as top_k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    scored = [(i, trigram_jaccard(query, c)) for i, c in enumerate(candidates)]
    return _ranked(scored, candidates, k)
