"""Embedding providers: local trigram TF-IDF fallback and the remote backend."""

from __future__ import annotations

import json
import random
import string
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from diver import embedding
from diver.embedding import (
    LexicalEmbedder,
    RemoteEmbedder,
    rank_lexical,
    top_k,
    trigram_jaccard,
    trigrams,
)
from diver.errors import EmbedderUnavailable


def similarity_score(a: np.ndarray, b: np.ndarray) -> float:
    """Oracle: cosine mapped onto [0, 1], a zero vector scoring 0."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    cos = max(-1.0, min(1.0, float(np.dot(a, b) / (na * nb))))
    return (1.0 + cos) / 2.0


def test_trigrams_and_jaccard_hand_computed():
    assert trigrams("abcd") == {"abc", "bcd"}
    assert trigrams("ABCD") == {"abc", "bcd"}  # lowercased
    assert trigrams("ab") == {"ab"}  # short strings collapse to one gram
    # |{"bcd"}| / |{"abc","bcd","cde"}|
    assert trigram_jaccard("abcd", "bcde") == pytest.approx(1 / 3)
    assert trigram_jaccard("same", "same") == 1.0
    assert trigram_jaccard("", "xyz") == 0.0


def test_lexical_embed_identical_texts_identical_vectors():
    emb = LexicalEmbedder()
    m = emb.embed(["magnet school", "magnet school"])
    assert m.shape[0] == 2
    assert np.array_equal(m[0], m[1])
    # and across calls
    again = emb.embed(["magnet school", "magnet school"])
    assert np.array_equal(m, again)


def test_lexical_self_similarity_is_max():
    emb = LexicalEmbedder()
    m = emb.embed(["magnet school", "magnet school"])
    assert similarity_score(m[0], m[1]) == pytest.approx(1.0)


def test_scores_live_in_unit_interval():
    emb = LexicalEmbedder()
    rng = random.Random(7)
    texts = [
        "".join(rng.choice(string.ascii_lowercase + " ") for _ in range(rng.randint(1, 30)))
        for _ in range(40)
    ]
    m = emb.embed(texts)
    for i in range(0, 40, 7):
        for j in range(0, 40, 5):
            s = similarity_score(m[i], m[j])
            assert 0.0 <= s <= 1.0


def test_embed_empty_list_raises():
    with pytest.raises(ValueError, match=r"^embed\(\) needs at least one text$"):
        LexicalEmbedder().embed([])


def test_embed_truncates_overlong_text_with_warning(caplog, monkeypatch):
    monkeypatch.setattr(embedding, "DEFAULT_MAX_LENGTH", 10)
    emb = LexicalEmbedder()
    with caplog.at_level("WARNING"):
        m = emb.embed(["x" * 50, "x" * 10])
    assert np.array_equal(m[0], m[1])
    assert any("truncat" in r.message.lower() for r in caplog.records)


def test_all_vectors_share_dimension():
    m = LexicalEmbedder().embed(["a", "bb", "ccc", "dddd"])
    assert m.shape == (4, embedding.DEFAULT_DIMENSION)


def _oracle_rank(emb: LexicalEmbedder, query: str, candidates: list[str], k: int):
    """Exhaustive O(n) score-sort, independent of top_k's implementation."""
    mat = emb.embed([query] + candidates)
    scored = [
        (i, similarity_score(mat[0], mat[i + 1])) for i in range(len(candidates))
    ]
    scored.sort(key=lambda p: (-p[1], candidates[p[0]], p[0]))
    return scored[:k]


def test_top_k_matches_brute_force_oracle():
    emb = LexicalEmbedder()
    rng = random.Random(20240818)
    vocab = ["grade", "school", "magnet", "meal", "rate", "span", "low", "high", "charter"]
    for _ in range(25):
        candidates = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 20))
        ]
        query = " ".join(rng.choice(vocab) for _ in range(2))
        k = rng.randint(1, len(candidates) + 2)
        got = top_k(emb, query, candidates, k)
        want = _oracle_rank(emb, query, candidates, k)
        assert got == want


def test_top_k_exact_match_scores_one():
    emb = LexicalEmbedder()
    candidates = ["free meal rate", "magnet school", "low grade"]
    [(idx, score)] = top_k(emb, "magnet school", candidates, 1)
    assert candidates[idx] == "magnet school"
    assert score == pytest.approx(1.0)


def test_top_k_ties_break_lexicographically():
    emb = LexicalEmbedder()
    # case variants embed identically (grams are lowercased), so they tie
    # exactly; the lexicographically smaller raw text wins ("Z" < "z")
    ranked = top_k(emb, "top", ["zz TOP", "ZZ top"], 2)
    assert [i for i, _ in ranked] == [1, 0]
    assert ranked[0][1] == ranked[1][1]
    # identical strings tie too and keep index order
    ranked = top_k(emb, "top", ["zz top", "zz top"], 2)
    assert [i for i, _ in ranked] == [0, 1]


def test_rank_lexical_matches_jaccard_sort():
    rng = random.Random(99)
    vocab = ["alpha", "beta", "gamma", "delta", "omega"]
    for _ in range(20):
        candidates = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 15))
        ]
        query = rng.choice(vocab)
        k = rng.randint(1, len(candidates))
        want = sorted(
            ((i, trigram_jaccard(query, c)) for i, c in enumerate(candidates)),
            key=lambda p: (-p[1], candidates[p[0]], p[0]),
        )[:k]
        assert rank_lexical(query, candidates, k) == [
            (i, pytest.approx(s)) for i, s in want
        ]


# --- remote backend against a local stub ---


class _StubHandler(BaseHTTPRequestHandler):
    batches: list[int] = []
    fail_first = 0

    def do_POST(self):
        n = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(n))
        texts = payload["input"]
        _StubHandler.batches.append(len(texts))
        body = json.dumps(
            {
                "data": [
                    {"embedding": [float(len(t)), float(sum(map(ord, t)) % 97), 1.0]}
                    for t in texts
                ]
            }
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.batches = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_remote_embedder_batches_of_64(stub_server):
    emb = RemoteEmbedder(endpoint=stub_server)
    texts = [f"text {i}" for i in range(130)]
    m = emb.embed(texts)
    assert m.shape == (130, 3)
    assert _StubHandler.batches == [64, 64, 2]
    # row order matches input order
    assert m[0][0] == len("text 0")
    assert m[129][0] == len("text 129")


def test_remote_embedder_unreachable_raises(monkeypatch):
    monkeypatch.setattr(embedding, "REMOTE_TIMEOUT", 0.5)
    emb = RemoteEmbedder(endpoint="http://127.0.0.1:9/nothing-here")
    with pytest.raises(EmbedderUnavailable):
        emb.embed(["hello"])


def test_bucket_memo_leaves_vectors_bit_identical(monkeypatch):
    texts = ["Fresno Unified", "FRESNO", "straße", "İstanbul", "a", "", "x\ny", "grade K-8"]
    embedding._bucket.cache_clear()
    cold = LexicalEmbedder().embed(texts)
    warm = LexicalEmbedder().embed(texts)
    monkeypatch.setattr(embedding, "_bucket", embedding._bucket.__wrapped__)
    reference = LexicalEmbedder().embed(texts)
    assert np.array_equal(cold, reference)
    assert np.array_equal(warm, reference)
