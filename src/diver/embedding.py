"""Embedding providers and similarity ranking, in plain Python.

A vector is a sparse dict from index to non-zero weight. Two backends return
one per input: RemoteEmbedder posts {"input": [...]} to a vector endpoint in
batches of 64; LexicalEmbedder is the offline fallback, hashing character
trigrams into DEFAULT_DIMENSION buckets of TF-IDF weight. top_k scores cosine
mapped onto [0, 1], summing with math.fsum so that every norm and dot product
is exactly rounded whatever the order of its terms, and equal scores tie
exactly.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import reprlib
from collections import Counter

from .errors import EmbedderUnavailable

logger = logging.getLogger(__name__)

Vector = dict[int, float]  # index -> non-zero weight

DEFAULT_DIMENSION = 512  # hash buckets of a lexical vector
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

    A gram's weight is sign * (1 + log tf) * idf. Its bucket and sign * idf
    are worked out once per distinct gram of the batch, and the tf factor is
    applied only when tf is not 1. The sign is +-1 and a tf of 1 gives a
    factor of exactly 1.0, so the one rounded product is the same, and each
    row sums its terms in the order of the grams' first occurrence.
    """

    def embed(self, texts: list[str]) -> list[Vector]:
        if not texts:
            raise ValueError("embed() needs at least one text")
        texts = _truncate(texts)
        counts = [Counter(_grams(t)) for t in texts]
        df: Counter = Counter()
        for c in counts:
            df.update(c.keys())
        n = len(texts)
        weights = {}  # gram -> (bucket, sign * idf), worked out once per batch
        for gram, d in df.items():
            bucket, sign = _bucket(gram)
            weights[gram] = bucket, sign * (math.log((1 + n) / (1 + d)) + 1.0)
        out = []
        for c in counts:
            row: Vector = {}
            for gram, tf in c.items():
                bucket, w = weights[gram]
                if tf != 1:
                    w *= 1.0 + math.log(tf)
                row[bucket] = row.get(bucket, 0.0) + w
            out.append({bucket: w for bucket, w in row.items() if w})
        return out


class RemoteEmbedder:
    """HTTP embedding backend. POST {"input": [...]} per batch of 64, expects
    {"data": [{"embedding": [...]}, ...]} in input order."""

    def __init__(self, endpoint: str):
        self.endpoint = endpoint

    def embed(self, texts: list[str]) -> list[Vector]:
        if not texts:
            raise ValueError("embed() needs at least one text")
        import requests  # only a remote embedder needs it; a lexical run skips its import

        texts = _truncate(texts)
        rows: list[list[float]] = []
        for start in range(0, len(texts), REMOTE_BATCH_SIZE):
            batch = texts[start : start + REMOTE_BATCH_SIZE]
            try:
                resp = requests.post(
                    self.endpoint,
                    json={"input": batch},
                    timeout=REMOTE_TIMEOUT,
                )
                resp.raise_for_status()
                body = resp.json()
            except (requests.RequestException, ValueError) as exc:
                raise EmbedderUnavailable(f"embedding endpoint failed: {exc}") from exc
            rows.extend(_remote_rows(body, len(batch)))
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise EmbedderUnavailable(f"inconsistent vector widths from endpoint: {widths}")
        return [{i: w for i, w in enumerate(r) if w} for r in rows]


def _remote_rows(body, count: int) -> list[list[float]]:
    """The `count` embeddings of one endpoint response as lists of floats;
    EmbedderUnavailable says what is malformed."""
    if not isinstance(body, dict):
        raise EmbedderUnavailable(f"endpoint response is not a JSON object: {reprlib.repr(body)}")
    data = body.get("data")
    if not isinstance(data, list):
        raise EmbedderUnavailable(f'endpoint response "data" is not a list: {reprlib.repr(data)}')
    if len(data) != count:
        raise EmbedderUnavailable(f"endpoint returned {len(data)} vectors for {count} texts")
    rows = []
    for n, item in enumerate(data):
        if not isinstance(item, dict) or "embedding" not in item:
            raise EmbedderUnavailable(
                f'endpoint item {n} has no "embedding": {reprlib.repr(item)}'
            )
        values = item["embedding"]
        if not isinstance(values, list):
            raise EmbedderUnavailable(
                f'endpoint item {n} "embedding" is not a list: {reprlib.repr(values)}'
            )
        row = [_finite(x) for x in values]
        if None in row:
            bad = values[row.index(None)]
            raise EmbedderUnavailable(
                f'endpoint item {n} "embedding" has an entry that is not a finite number: '
                f"{reprlib.repr(bad)}"
            )
        rows.append(row)
    return rows


def _finite(x) -> float | None:
    """x as a float if it is a finite JSON number (not a boolean), else None."""
    if type(x) not in (int, float):
        return None
    try:
        w = float(x)
    except OverflowError:  # an integer literal too long for a float
        return None
    return w if math.isfinite(w) else None


def _truncate(texts: list[str]) -> list[str]:
    """texts cut to DEFAULT_MAX_LENGTH characters each, with one warning for
    the call however many of them were longer."""
    longer = [len(t) for t in texts if len(t) > DEFAULT_MAX_LENGTH]
    if not longer:
        return texts
    logger.warning(
        "truncating %d of %d texts (the longest %d chars) to %d chars for embedding",
        len(longer),
        len(texts),
        max(longer),
        DEFAULT_MAX_LENGTH,
    )
    return [t[:DEFAULT_MAX_LENGTH] for t in texts]


def _norm(v: Vector) -> float:
    return math.sqrt(math.fsum(w * w for w in v.values()))


def _dot(a: Vector, b: Vector) -> float:
    return math.fsum(w * b[i] for i, w in a.items() if i in b)


def _cosine_score(dot: float, na: float, nb: float) -> float:
    if na == 0 or nb == 0:
        return 0.0
    cos = max(-1.0, min(1.0, dot / (na * nb)))
    return (1.0 + cos) / 2.0


def top_k(embedder, query: str, candidates: list[str], k: int) -> list[tuple[int, float]]:
    """Rank candidates against the query: (index, score) pairs, score
    descending, ties broken by candidate text then position."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not candidates:
        return []
    vectors = embedder.embed([query] + candidates)
    q = vectors[0]
    nq = _norm(q)
    scored = [
        (i, _cosine_score(_dot(q, v), nq, _norm(v))) for i, v in enumerate(vectors[1:])
    ]
    scored.sort(key=lambda p: (-p[1], candidates[p[0]], p[0]))
    return scored[:k]
