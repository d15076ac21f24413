"""Embedding providers: local trigram TF-IDF fallback and the remote backend."""

from __future__ import annotations

import json
import math
import random
import string
import threading
from collections import Counter
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diver import embedding
from diver.embedding import (
    DEFAULT_MAX_LENGTH,
    LexicalEmbedder,
    RemoteEmbedder,
    top_k,
    trigrams,
)
from diver.errors import EmbedderUnavailable


def signed_cosine_squared(a: dict, b: dict) -> Fraction:
    """Oracle: cos * |cos| of two sparse vectors in exact arithmetic over their
    float weights, -1 when either is zero. It orders pairs as the cosine does."""
    dot = sum(Fraction(w) * Fraction(b[i]) for i, w in a.items() if i in b)
    na = sum(Fraction(w) ** 2 for w in a.values())
    nb = sum(Fraction(w) ** 2 for w in b.values())
    if na == 0 or nb == 0:
        return Fraction(-1)
    return dot * abs(dot) / (na * nb)


def similarity_score(a: dict, b: dict) -> float:
    """Oracle: cosine mapped onto [0, 1], a zero vector scoring 0."""
    s = signed_cosine_squared(a, b)
    return (1.0 + math.copysign(math.sqrt(abs(s)), s)) / 2.0


def reference_embed(texts: list[str]) -> list[dict]:
    """Oracle: the lexical embedder written as the formula, one bucket lookup
    and one sign * (1 + log tf) * idf product per gram of each text."""
    texts = [t[:DEFAULT_MAX_LENGTH] for t in texts]
    counts = [Counter(embedding._grams(t)) for t in texts]
    df: Counter = Counter()
    for c in counts:
        df.update(set(c))
    n = len(texts)
    idf = {g: math.log((1 + n) / (1 + d)) + 1.0 for g, d in df.items()}
    out = []
    for c in counts:
        row: dict = {}
        for gram, tf in c.items():
            bucket, sign = embedding._bucket(gram)
            row[bucket] = row.get(bucket, 0.0) + sign * (1.0 + math.log(tf)) * idf[gram]
        out.append({bucket: w for bucket, w in row.items() if w})
    return out


# a small alphabet makes grams repeat within a text (tf > 1) and across texts
EMBED_TEXT = st.text(st.sampled_from(["a", "b", "A", " ", "\n", "ß", "İ"]), max_size=12)
# repetitions of a short text that run past DEFAULT_MAX_LENGTH, so they are truncated
LONG_TEXT = st.builds(
    lambda unit, extra: unit * (DEFAULT_MAX_LENGTH // len(unit) + extra),
    st.text(st.sampled_from(["a", "b", "c", "İ"]), min_size=1, max_size=4),
    st.integers(1, 3),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(EMBED_TEXT | st.just("") | LONG_TEXT, min_size=1, max_size=6))
def test_lexical_embed_equals_the_formula_bit_for_bit(texts):
    got = LexicalEmbedder().embed(texts)
    want = reference_embed(texts)
    # same weights, and each row's buckets in the same insertion order
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]


def test_trigrams_hand_computed():
    assert trigrams("abcd") == {"abc", "bcd"}
    assert trigrams("ABCD") == {"abc", "bcd"}  # lowercased
    assert trigrams("ab") == {"ab"}  # short strings collapse to one gram


def test_lexical_embed_identical_texts_identical_vectors():
    emb = LexicalEmbedder()
    m = emb.embed(["magnet school", "magnet school"])
    assert len(m) == 2
    assert m[0] == m[1]
    # and across calls
    again = emb.embed(["magnet school", "magnet school"])
    assert m == again


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
    assert m[0] == m[1]
    assert any("truncat" in r.message.lower() for r in caplog.records)


def test_all_vectors_share_dimension():
    m = LexicalEmbedder().embed(["a", "bb", "ccc", "dddd"])
    assert len(m) == 4
    for row in m:
        assert row and set(row) <= set(range(embedding.DEFAULT_DIMENSION))
        assert all(w != 0 for w in row.values())


def _oracle_rank(emb: LexicalEmbedder, query: str, candidates: list[str], k: int):
    """Exhaustive exact score-sort, independent of top_k's implementation:
    (index, score) pairs in exact cosine order, ties by text then index."""
    vectors = emb.embed([query] + candidates)
    keys = [signed_cosine_squared(vectors[0], v) for v in vectors[1:]]
    order = sorted(range(len(candidates)), key=lambda i: (-keys[i], candidates[i], i))
    return [(i, similarity_score(vectors[0], vectors[i + 1])) for i in order[:k]]


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
        assert got == [(i, pytest.approx(s, abs=1e-12)) for i, s in want]


def test_top_k_follows_exact_order_and_text_rule_on_codes():
    emb = LexicalEmbedder()
    # the three middle codes score exactly alike against the query, so only
    # the text rule orders them; a sum whose rounding depends on the order of
    # its terms can put one of them an ulp behind the others
    codes = ["LX0000421", "LX0007802", "LX0010131", "LX0018516", "LX0022312"]
    ranked = top_k(emb, "lx0022312", codes, 5)
    assert [codes[i] for i, _ in ranked] == [
        "LX0022312",
        "LX0007802",
        "LX0010131",
        "LX0018516",
        "LX0000421",
    ]
    assert ranked[1][1] == ranked[2][1] == ranked[3][1]
    rng = random.Random(20261018)
    for _ in range(40):
        codes = sorted({f"LX{rng.randrange(30_000):07d}" for _ in range(rng.randint(2, 40))})
        query = rng.choice(codes) if rng.random() < 0.5 else f"LX{rng.randrange(30_000):07d}"
        query = query.lower()
        k = rng.randint(1, len(codes))
        got = top_k(emb, query, codes, k)
        assert [i for i, _ in got] == [i for i, _ in _oracle_rank(emb, query, codes, k)]


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


# --- remote backend against a local stub ---


class _StubHandler(BaseHTTPRequestHandler):
    batches: list[int] = []
    fail_first = 0
    reply = None  # when set, the JSON body of every response

    def do_POST(self):
        n = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(n))
        texts = payload["input"]
        _StubHandler.batches.append(len(texts))
        reply = _StubHandler.reply
        if reply is None:
            reply = {
                "data": [
                    {"embedding": [float(len(t)), float(sum(map(ord, t)) % 97), 1.0]}
                    for t in texts
                ]
            }
        body = json.dumps(reply).encode()
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
    _StubHandler.reply = None
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    # a short poll interval lets shutdown() return promptly at teardown
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_remote_embedder_batches_of_64(stub_server):
    emb = RemoteEmbedder(endpoint=stub_server)
    texts = [f"text {i}" for i in range(130)]
    m = emb.embed(texts)
    assert len(m) == 130
    assert all(set(row) <= {0, 1, 2} and row[2] == 1.0 for row in m)
    assert _StubHandler.batches == [64, 64, 2]
    # row order matches input order
    assert m[0][0] == len("text 0")
    assert m[129][0] == len("text 129")


@pytest.mark.parametrize(
    "reply, message",
    [
        ([{"embedding": [1.0]}], r"^endpoint response is not a JSON object: "),
        ({"data": None}, r'^endpoint response "data" is not a list: None$'),
        ({"data": [{"vector": [1.0]}]}, r'^endpoint item 0 has no "embedding": '),
        ({"data": [{"embedding": 0.5}]}, r'^endpoint item 0 "embedding" is not a list: '),
        (
            {"data": [{"embedding": [1.0, "x"]}]},
            r'^endpoint item 0 "embedding" has an entry that is not a finite number: \'x\'$',
        ),
        # JSON has integers of any length; one past a float's range is no weight
        (
            {"data": [{"embedding": [1.0, 10**400]}]},
            r'^endpoint item 0 "embedding" has an entry that is not a finite number: 1000',
        ),
        (
            {"data": [{"embedding": [1.0]}, {"embedding": [2.0]}]},
            r"^endpoint returned 2 vectors for 1 texts$",
        ),
    ],
    ids=[
        "top-level-list", "data-null", "no-embedding", "embedding-not-list", "non-numeric",
        "integer-too-long", "count-mismatch",
    ],
)
def test_remote_embedder_malformed_response_raises_unavailable(stub_server, reply, message):
    _StubHandler.reply = reply
    with pytest.raises(EmbedderUnavailable, match=message):
        RemoteEmbedder(endpoint=stub_server).embed(["hello"])


def test_remote_embedder_refuses_vectors_of_different_widths(stub_server):
    _StubHandler.reply = {"data": [{"embedding": [1.0, 2.0]}, {"embedding": [3.0]}]}
    message = r"^inconsistent vector widths from endpoint: \{1, 2\}$"
    with pytest.raises(EmbedderUnavailable, match=message):
        RemoteEmbedder(endpoint=stub_server).embed(["hello", "world"])


@pytest.mark.parametrize("backend", ["lexical", "remote"])
def test_truncation_warns_once_per_embed_call(backend, stub_server, caplog):
    texts = ["y" * 9_001] * 4 + ["short", "z" * 9_500]
    emb = LexicalEmbedder() if backend == "lexical" else RemoteEmbedder(endpoint=stub_server)
    with caplog.at_level("WARNING", logger="diver.embedding"):
        rows = emb.embed(texts)
    assert [r.getMessage() for r in caplog.records] == [
        f"truncating 5 of 6 texts (the longest 9500 chars) to {DEFAULT_MAX_LENGTH} chars"
        " for embedding"
    ]
    # the vectors are those of the cut texts
    assert rows == emb.embed([t[:DEFAULT_MAX_LENGTH] for t in texts])


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
    assert cold == reference
    assert warm == reference
