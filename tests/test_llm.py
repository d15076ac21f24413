"""Chat clients: request validation, scripted replay, repair round-trip, live HTTP."""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diver import llm
from diver.cotf import ToolCall
from diver.errors import DiverError, LlmError
from diver.llm import ChatMessage, ChatRequest, LiveClient, ScriptedSession, fingerprint
from diver.lookup import structured_tool_call
from diver.prompts import LOOKUP_SYSTEM, LOOKUP_THOUGHT, LOOKUP_TOOL, REPAIR

from replay import RecordingSession


def _req(user_text: str = "hello", temperature: float = 0.7, fmt: str = "free_text"):
    return ChatRequest(
        messages=[
            ChatMessage("system", "You are a database lookup assistant."),
            ChatMessage("user", user_text),
        ],
        temperature=temperature,
        response_format=fmt,
    )


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest([], 0.7, "free_text")
    with pytest.raises(ValueError):
        ChatRequest([ChatMessage("user", "no system first")], 0.7, "free_text")
    with pytest.raises(ValueError):
        _req(temperature=2.5)
    with pytest.raises(ValueError):
        _req(temperature=-0.1)
    with pytest.raises(ValueError):
        _req(fmt="yaml")
    _req(temperature=0.0)
    _req(temperature=2.0)


@pytest.mark.parametrize("temperature", [True, False, "0.5", None])
def test_chat_request_refuses_a_temperature_that_is_not_a_number(temperature):
    with pytest.raises(ValueError, match="temperature must be a number from 0 to 2"):
        _req(temperature=temperature)


@pytest.mark.parametrize("temperature", [0, 0.7, 2])
def test_chat_request_takes_an_int_or_float_temperature(temperature):
    assert _req(temperature=temperature).temperature == temperature


def test_fingerprint_deterministic_and_sensitive():
    a, b = _req("same"), _req("same")
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(_req("same")) != fingerprint(_req("different"))
    assert fingerprint(_req("same", temperature=0.2)) != fingerprint(_req("same"))
    assert fingerprint(_req("same", fmt="tool_call_schema")) != fingerprint(_req("same"))


def one_shot_fingerprint(request: ChatRequest) -> str:
    """Reference: sha256 over the whole request's canonical JSON at once."""
    payload = {
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": request.temperature,
        "response_format": request.response_format,
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# quotes, backslashes, control characters, a JSON-legal line separator and
# non-ASCII letters up to the astral plane, mixed into arbitrary text
TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "数", "\u2028", "😀"])
TEXT = st.text(TRICKY | st.characters(exclude_categories=("Cs",)), max_size=12)


def copy_of(text: str) -> str:
    """An equal string that is another object (where Python does not share
    one- and zero-character strings)."""
    return (text + "x")[:-1]


@st.composite
def conversations(draw):
    """Requests that resend texts the way a run does: each message picks a
    text from a shared pool, as the same object or as an equal copy."""
    pool = draw(st.lists(TEXT, min_size=1, max_size=6))
    requests = []
    for _ in range(draw(st.integers(1, 6))):
        picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), max_size=4))
        texts = [copy_of(pool[i]) if copy else pool[i] for i, copy in picks]
        messages = [ChatMessage("system", texts[0] if texts else "")]
        messages += [
            ChatMessage(("user", "assistant")[i % 2], text) for i, text in enumerate(texts[1:])
        ]
        requests.append(
            ChatRequest(
                messages=messages,
                temperature=draw(st.sampled_from([0.0, -0.0, 2.0]) | st.floats(0.0, 2.0)),
                response_format=draw(st.sampled_from(llm.RESPONSE_FORMATS)),
            )
        )
    return requests


@settings(max_examples=150, deadline=None)
@given(conversations())
def test_fingerprint_equals_one_shot_encoding(requests):
    for request in requests:
        assert fingerprint(request) == one_shot_fingerprint(request)


def test_fingerprint_equals_one_shot_encoding_past_the_cache_bound():
    texts = [f"workspace {i}: \"é\u2028😀\\" * (i + 1) for i in range(48)]
    # there and back, so each request follows both a shorter and a longer one
    for text in texts + texts[::-1] + texts:
        request = _req(text, fmt="tool_call_schema")
        assert fingerprint(request) == one_shot_fingerprint(request)


# characters the JSON encoder escapes, characters it passes through, and
# characters UTF-8 writes in two, three and four bytes
_ESCAPE_ALPHABET = st.sampled_from(list('ab "\\/\n\t\x00\x1f\x7fé\u2028\ufeff😀'))


@st.composite
def texts_sharing_prefixes(draw):
    """Texts in the order a run sends them: each keeps a prefix of an earlier
    one and adds its own tail."""
    texts = [draw(st.text(_ESCAPE_ALPHABET, max_size=40))]
    for _ in range(draw(st.integers(0, 8))):
        base = texts[draw(st.integers(0, len(texts) - 1))]
        cut = draw(st.integers(0, len(base)))
        texts.append(base[:cut] + draw(st.text(_ESCAPE_ALPHABET, max_size=12)))
    return texts


@settings(max_examples=300, deadline=None)
@given(texts_sharing_prefixes(), st.sampled_from([1, 2, 3, 7]))
def test_chunked_escape_equals_one_shot_json(texts, chunk):
    saved = llm._CHUNK, llm._last
    # small chunks, so short texts cross many boundaries; states kept under
    # another chunk size do not apply, so the record starts empty
    llm._CHUNK, llm._last = chunk, threading.local()
    try:
        for text in texts:
            request = _req(text)
            assert fingerprint(request) == one_shot_fingerprint(request)
    finally:
        llm._CHUNK, llm._last = saved


@pytest.fixture()
def escaped(monkeypatch):
    """The length of each text fingerprint escapes, from a fresh record."""
    lengths: list[int] = []
    encode = llm._json_string
    monkeypatch.setattr(llm, "_json_string", lambda text: lengths.append(len(text)) or encode(text))
    monkeypatch.setattr(llm, "_last", threading.local())
    return lengths


def test_a_resent_workspace_escapes_only_its_new_chunks(escaped):
    turns = [f'{{"thought": "turn {i} \\ \u00e9\u2028", "rows": [{i}, "\\"x\\""]}}' * 40
             for i in range(6)]
    for n in range(1, len(turns) + 1):
        # each turn lands inside the workspace, before what follows "turns"
        workspace = '{"turns": [' + ", ".join(turns[:n]) + '], "verified": []}'
        request = _req(workspace)
        escaped.clear()
        assert fingerprint(request) == one_shot_fingerprint(request)
        if n > 1:
            assert sum(escaped) < len(workspace) // 2 + 2 * llm._CHUNK


def _thought_then_tool() -> tuple[ChatRequest, ChatRequest]:
    """A lookup thought request over a workspace of several escape chunks,
    and the tool request that resends it with the thought."""
    workspace = '{"turns": [' + ", ".join(['{"thought": "\u00e9 \\"x\\""}'] * 400) + "]}"
    thought = LOOKUP_THOUGHT.request(workspace=workspace, clause_index=0, clause_text="schools")
    tool = LOOKUP_TOOL.request(*thought.messages[1:], ChatMessage("assistant", "Probe the city."))
    assert len(workspace) > 4 * llm._CHUNK
    return thought, tool


def test_a_tool_request_escapes_only_the_messages_after_its_thought_request(escaped):
    thought, tool = _thought_then_tool()
    repair = REPAIR.request(*tool.messages[1:], ChatMessage("assistant", "{"), error="not JSON")
    fingerprint(thought)
    for request in (tool, repair):
        escaped.clear()
        assert fingerprint(request) == one_shot_fingerprint(request)
        # every message the request before it sent is reused whole
        assert escaped == [len(m.content) for m in request.messages[-2:]]


def test_a_request_from_another_thread_in_between_keeps_a_thread_its_reuse(escaped):
    thought, tool = _thought_then_tool()
    fingerprint(thought)
    other = threading.Thread(target=fingerprint, args=(_req("another question " * 200),))
    other.start()
    other.join(timeout=60)
    assert not other.is_alive()
    escaped.clear()
    assert fingerprint(tool) == one_shot_fingerprint(tool)
    assert escaped == [len(m.content) for m in tool.messages[-2:]]


def _grown(request: ChatRequest, *texts: str, fmt: str | None = None) -> ChatRequest:
    """request with messages appended, alternating assistant and user."""
    more = [ChatMessage(("assistant", "user")[i % 2], t) for i, t in enumerate(texts)]
    return ChatRequest(
        list(request.messages) + more, request.temperature, fmt or request.response_format
    )


def test_fingerprint_of_conversations_grown_the_way_a_run_grows_them():
    def check(request):
        assert fingerprint(request) == one_shot_fingerprint(request)

    system = ChatMessage("system", 'You probe "databases".\n')
    for turn in range(3):
        workspace = ChatMessage("user", '{"turns": [%s]}\u2028é' % ", ".join(["{}"] * turn))
        # thought, then the tool call resending it, then a repair resending that
        thought = ChatRequest([system, workspace], 0.7, "free_text")
        tool = _grown(thought, f"thought {turn} 😀", "Now the tool call.", fmt="tool_call_schema")
        repair = _grown(tool, '{"tool_name": 1}', 'Your tool call was invalid: "tool".')
        for request in (thought, tool, repair, tool, thought):
            check(request)
    # the same texts under other roles are another request
    swap = {"system": "system", "user": "assistant", "assistant": "user"}
    check(ChatRequest([ChatMessage(swap[m.role], m.content) for m in repair.messages], 0.7,
                      repair.response_format))
    # three identical evidence requests, as equal copies and as the same object
    evidence = ChatRequest(
        [ChatMessage("system", copy_of("Write evidence.")), ChatMessage("user", copy_of("ws"))],
        0.7,
        "free_text",
    )
    copies = [
        ChatRequest([ChatMessage(m.role, copy_of(m.content)) for m in evidence.messages], 0.7,
                    "free_text")
        for _ in range(3)
    ]
    for request in copies + [evidence] * 3:
        check(request)
    # conversations that share only the system prompt, each followed by
    # itself grown by one message
    conversations = [
        _grown(ChatRequest([system], 0.2, "free_text"), *(f"{c}:{i}" for i in range(c % 5 + 1)))
        for c in range(48)
    ]
    for request in conversations + conversations[::-1]:
        check(request)
        check(_grown(request, "one more"))
    # one request of 2,000 messages, hashed in a loop rather than a recursion
    long = _grown(ChatRequest([system], 0.7, "free_text"), *(f"m{i}" for i in range(1999)))
    assert len(long.messages) == 2000
    check(long)
    check(_grown(long, "and a reply"))


def test_fingerprint_from_threads_sharing_prefixes():
    system = ChatMessage("system", "shared system prompt " * 50)
    requests = []
    for q in range(8):
        # workspaces longer than an escape chunk that share their leading
        # chunks, so each thread's next request reuses part of its last one
        head = "shared workspace head \u00e9 " * 60
        workspace = head + f"question {q % 3} \\ " * (80 * (q % 4 + 1))
        request = ChatRequest([system, ChatMessage("user", workspace)], 0.7, "free_text")
        for turn in range(6):
            requests.append(request)
            request = _grown(request, f"reply {turn} of {q}", f"ask {turn}")
    expected = {id(r): one_shot_fingerprint(r) for r in requests}
    mismatches: list[ChatRequest] = []
    errors: list[Exception] = []

    def work(offset):
        try:
            for i in range(4 * len(requests)):
                request = requests[(i * 7 + offset) % len(requests)]
                if fingerprint(request) != expected[id(request)]:
                    mismatches.append(request)
        except Exception as exc:  # a thread's exception would otherwise go unseen
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert mismatches == []


@pytest.mark.parametrize("text", ["\ud800", "a\udfffb", "😀\ud83d"])
def test_fingerprint_raises_like_one_shot_on_a_lone_surrogate(text):
    request = _req(text)
    with pytest.raises(Exception) as expected:
        one_shot_fingerprint(request)
    with pytest.raises(expected.type):
        fingerprint(request)


def test_fingerprint_after_a_lone_surrogate_in_a_middle_message():
    head = ChatRequest(
        [ChatMessage("system", "sys"), ChatMessage("user", "workspace")], 0.7, "free_text"
    )
    bad = _grown(head, "broken \ud800 reply", "ask again")
    with pytest.raises(Exception) as expected:
        one_shot_fingerprint(bad)
    with pytest.raises(expected.type):
        fingerprint(bad)
    # a valid request sharing the prefix before the bad message
    for request in (_grown(head, "fixed reply", "ask again"), head, _grown(head, "fixed reply")):
        assert fingerprint(request) == one_shot_fingerprint(request)


def test_scripted_sequence_order_and_exhaustion():
    session = ScriptedSession(["first", "second"])
    assert session.chat(_req("a")) == "first"
    assert session.chat(_req("b")) == "second"
    with pytest.raises(LlmError, match=r"^replay script exhausted after 2 responses$"):
        session.chat(_req("c"))


def test_scripted_from_dict_and_file(tmp_path):
    refused = r"^script must be a list or \{'by_fingerprint': \{\.\.\.\}\}$"
    with pytest.raises(DiverError, match=refused):
        ScriptedSession({"responses": ["only"]})
    p = tmp_path / "script.json"
    p.write_text(json.dumps(["only"]), encoding="utf-8")
    session = ScriptedSession.from_file(p)
    assert session.chat(_req()) == "only"
    with pytest.raises(LlmError, match=r"^replay script exhausted after 1 responses$"):
        session.chat(_req())


@pytest.mark.parametrize(
    "data, reason",
    [
        ('["caf\u00e9"]'.encode("latin-1"), "'utf-8' codec can't decode"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["latin-1", "deep"],
)
def test_a_script_that_is_not_utf8_or_nested_too_deeply_is_refused(tmp_path, data, reason):
    path = tmp_path / "script.json"
    path.write_bytes(data)
    refused = f"^cannot load replay script {re.escape(str(path))}: {reason}"
    with pytest.raises(DiverError, match=refused):
        ScriptedSession.from_file(path)


@pytest.mark.parametrize(
    "script, message",
    [
        ([1, None], "replay script list entry 0 must be a string, got 1"),
        (["ok", ["nested"]], "replay script list entry 1 must be a string, got ['nested']"),
        ({"by_fingerprint": [1, 2]}, "replay script by_fingerprint must be an object, got [1, 2]"),
        (
            {"by_fingerprint": {"ab12": "hello"}},
            "replay script by_fingerprint['ab12'] must be a list of strings, got 'hello'",
        ),
        (
            {"by_fingerprint": {"ab12": ["fine"], "cd34": ["fine", 7]}},
            "replay script by_fingerprint['cd34'] entry 1 must be a string, got 7",
        ),
        (
            {"by_fingerprint": {}, "extra": []},
            "script must be a list or {'by_fingerprint': {...}}",
        ),
    ],
)
def test_scripted_session_names_the_first_bad_entry(script, message):
    with pytest.raises(DiverError) as exc:
        ScriptedSession(script)
    assert str(exc.value) == message


def test_scripted_by_fingerprint():
    req_a, req_b = _req("alpha"), _req("beta")
    script = {
        "by_fingerprint": {
            fingerprint(req_a): ["a1", "a2"],
            fingerprint(req_b): ["b1"],
        }
    }
    session = ScriptedSession(script)
    assert session.chat(req_b) == "b1"
    assert session.chat(req_a) == "a1"
    assert session.chat(req_a) == "a2"
    exhausted = rf"^no scripted response for request {fingerprint(req_a)[:12]}…$"
    with pytest.raises(LlmError, match=exhausted):
        session.chat(req_a)
    with pytest.raises(LlmError, match=r"^no scripted response for request [0-9a-f]{12}…$"):
        session.chat(_req("never scripted"))


def test_structured_tool_call_parses_plain_and_fenced():
    session = ScriptedSession(
        [
            '{"tool": "none", "args": {}}',
            'Sure thing:\n```json\n{"tool": "head", "args": {"table": "frpm", "n": 3}}\n```',
            # a closing brace inside a string value does not end the object
            'Sure: {"tool": "value_in", "args": {"table": "t", "column": "c", "value": "a}b"}} done',
            # the first decodable object wins, in prose or in a fence
            'First {"tool": "none", "args": {}} then:\n```json\n{"tool": "head", "args": {}}\n```',
        ]
    )
    ask = _req(fmt="tool_call_schema")
    assert structured_tool_call(session, ask) == (ToolCall("none", {}), None)
    head = ToolCall("head", {"table": "frpm", "n": 3})
    assert structured_tool_call(session, ask) == (head, None)
    assert structured_tool_call(session, ask) == (
        ToolCall("value_in", {"table": "t", "column": "c", "value": "a}b"}),
        None,
    )
    assert structured_tool_call(session, ask) == (ToolCall("none", {}), None)
    assert session.consumed == 4  # no repair round-trip


def test_structured_tool_call_repairs_once():
    first = '{"tool_name": "value_in", "args": {"table": "frpm", "value": "K"}}'
    session = RecordingSession(
        [
            first,
            '{"tool": "value_in", "args": {"table": "frpm", "column": "Low Grade", "value": "K"}}',
        ]
    )
    ask = _req(fmt="tool_call_schema")
    call, error = structured_tool_call(session, ask)
    assert call.args["value"] == "K" and error is None
    assert session.consumed == 2
    # the repair request is the REPAIR stage's: the conversation, the model's
    # own output and the parse error
    assert session.requests[1] == REPAIR.request(
        *ask.messages[1:],
        ChatMessage("assistant", first),
        error='response JSON lacks the "tool" key',
    )
    assert session.requests[1].messages[0].content == LOOKUP_SYSTEM


def test_extract_json_reads_a_value_nested_past_the_recursion_limit_as_malformed():
    assert llm.extract_json("[" * 1000, list) is None
    assert llm.extract_json('{"a": ' * 1000, dict) is None
    # the scan goes on past the deep value to the next one
    assert llm.extract_json("[" * 1000 + " then [1, 2]", list) == [1, 2]


@pytest.mark.parametrize("gap", ["", " ", "\n\t "])
def test_extract_json_decodes_a_run_of_openers_at_most_the_recursion_limit_times(gap, monkeypatch):
    calls = 0
    raw_decode = llm._raw_decode

    def counted(text, start=0):
        nonlocal calls
        calls += 1
        return raw_decode(text, start)

    monkeypatch.setattr(llm, "_raw_decode", counted)
    assert llm.extract_json(gap.join("[" * 100_000), list) is None
    assert 0 < calls <= sys.getrecursionlimit()
    # nesting well inside the limit still decodes, after a run that does not
    assert json.dumps(llm.extract_json("[" * 50 + "1" + "]" * 50, list)) == "[" * 50 + "1" + "]" * 50
    nested = llm.extract_json(gap.join("[" * 100_000) + " [" + "[" * 50 + "1" + "]" * 51, list)
    assert json.dumps(nested) == "[" * 51 + "1" + "]" * 51


def test_structured_tool_call_repairs_a_reply_nested_too_deeply():
    session = ScriptedSession(['{"tool": ' * 1000, '{"tool": "none", "args": {}}'])
    assert structured_tool_call(session, _req(fmt="tool_call_schema")) == (
        ToolCall("none", {}),
        None,
    )
    assert session.consumed == 2


def test_structured_tool_call_gives_up_after_one_repair():
    session = ScriptedSession(["not json at all", "still { not json"])
    assert structured_tool_call(session, _req(fmt="tool_call_schema")) == (
        ToolCall("", {}),
        "tool call malformed after repair: response did not contain a JSON object",
    )
    assert session.consumed == 2


@pytest.mark.parametrize(
    "first, second, name",
    [
        ('{"tool": "value_in", "args": 1}', '{"tool": "head", "args": 1}', "value_in"),
        ('{"tool": "\\ud800"}', '{"tool": "head", "args": 1}', "head"),
        ('{"tool": 42}', '{"tool": "\\ud800"}', ""),
    ],
)
def test_malformed_tool_call_carries_the_first_name_tool_call_accepts(first, second, name):
    session = ScriptedSession([first, second])
    call, error = structured_tool_call(session, _req(fmt="tool_call_schema"))
    assert call == ToolCall(name, {})
    assert error.startswith("tool call malformed after repair: ")


def test_structured_tool_call_rejects_non_scalar_args_then_repairs():
    session = ScriptedSession(
        [
            '{"tool": "head", "args": {"table": "frpm", "n": [1, 2]}}',
            '{"tool": "head", "args": {"table": "frpm", "n": 2}}',
        ]
    )
    call = structured_tool_call(session, _req(fmt="tool_call_schema"))
    assert call == (ToolCall("head", {"table": "frpm", "n": 2}), None)


def test_structured_tool_call_repairs_a_lone_surrogate():
    # a JSON-legal escape for a lone surrogate used to reach the tool and fail
    # the question with UnicodeEncodeError; now it costs one repair round-trip
    args = '"table": "ledger", "column": "party", "query_text": '
    session = RecordingSession(
        [
            '{"tool": "sim_value_in", "args": {' + args + '"\\ud800abc"}}',
            '{"tool": "sim_value_in", "args": {' + args + '"abc"}}',
        ]
    )
    call = structured_tool_call(session, _req(fmt="tool_call_schema"))
    assert call == (
        ToolCall("sim_value_in", {"table": "ledger", "column": "party", "query_text": "abc"}),
        None,
    )
    assert session.consumed == 2
    assert "is not valid UTF-8" in session.requests[1].messages[-1].content


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_structured_tool_call_repairs_a_non_finite_number(constant):
    # json.loads reads these constants; a strict JSON parser refuses the trace
    session = RecordingSession(
        [
            '{"tool": "head", "args": {"table": "frpm", "n": ' + constant + "}}",
            '{"tool": "head", "args": {"table": "frpm", "n": 2}}',
        ]
    )
    call = structured_tool_call(session, _req(fmt="tool_call_schema"))
    assert call == (ToolCall("head", {"table": "frpm", "n": 2}), None)
    assert session.consumed == 2
    assert "must be a finite number" in session.requests[1].messages[-1].content


# --- live backend against a stub ---


class _ChatStub(BaseHTTPRequestHandler):
    # (status, headers, body) for each request in turn; once it runs out, a
    # 200 whose reply names the request's number
    responses: list[tuple[int, dict[str, str], bytes]] = []
    seen: list[dict] = []
    auth_headers: list[str | None] = []

    def do_POST(self):
        n = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(n))
        _ChatStub.seen.append(payload)
        _ChatStub.auth_headers.append(self.headers.get("Authorization"))
        if _ChatStub.responses:
            status, headers, body = _ChatStub.responses.pop(0)
        else:
            content = f"reply {len(_ChatStub.seen)}"
            status, headers = 200, {"Content-Type": "application/json"}
            body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_stub():
    _ChatStub.responses = []
    _ChatStub.seen = []
    _ChatStub.auth_headers = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatStub)
    # a short poll keeps shutdown() from waiting out the default half second
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def sleeps(monkeypatch):
    """Sets a test API key; records the seconds LiveClient waits between
    attempts instead of sleeping them, with each jitter draw taken at the top
    of its range."""
    monkeypatch.setenv("DIVER_LLM_API_KEY", "sk-test")
    waited: list[float] = []
    monkeypatch.setattr(llm.time, "sleep", waited.append)
    monkeypatch.setattr(llm.random, "uniform", lambda low, high: high)
    return waited


def test_live_client_requires_key(monkeypatch):
    monkeypatch.delenv("DIVER_LLM_API_KEY", raising=False)
    no_key = r"^no API key: set DIVER_LLM_API_KEY$"
    with pytest.raises(DiverError, match=no_key):
        LiveClient(base_url="http://127.0.0.1:1/v1", model="m")


def test_live_client_posts_and_reads_reply(chat_stub, monkeypatch):
    monkeypatch.setenv("DIVER_LLM_API_KEY", "sk-test")
    client = LiveClient(base_url=chat_stub, model="test-model")
    text = client.chat(_req("ping", temperature=0.2))
    assert text == "reply 1"
    sent = _ChatStub.seen[0]
    assert sent["model"] == "test-model"
    assert sent["temperature"] == 0.2
    assert sent["messages"][0]["role"] == "system"
    assert "response_format" not in sent
    assert _ChatStub.auth_headers[0] == "Bearer sk-test"
    # only a tool-call request asks the endpoint for a JSON object
    client.chat(_req("ping", fmt="tool_call_schema"))
    assert _ChatStub.seen[1]["response_format"] == {"type": "json_object"}


def test_live_client_retries_then_succeeds(chat_stub, sleeps):
    _ChatStub.responses = [(503, {}, b""), (503, {}, b"")]
    client = LiveClient(base_url=chat_stub, model="m")
    assert client.chat(_req()) == "reply 3"
    assert len(_ChatStub.seen) == 3
    assert sleeps == [llm.LLM_BACKOFF, 2 * llm.LLM_BACKOFF]


def test_live_client_gives_up_after_three_attempts(chat_stub, sleeps):
    _ChatStub.responses = [(500, {}, b"")] * 99
    client = LiveClient(base_url=chat_stub, model="m")
    with pytest.raises(LlmError, match=r"^chat endpoint failed after 3 attempts: HTTP 500$"):
        client.chat(_req())
    assert len(_ChatStub.seen) == 3


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_live_client_does_not_retry_a_client_error(chat_stub, sleeps, status):
    _ChatStub.responses = [(status, {"Retry-After": "1"}, b'{"error": "no"}')]
    client = LiveClient(base_url=chat_stub, model="m")
    with pytest.raises(LlmError, match=rf"^chat endpoint refused the request with HTTP {status}$"):
        client.chat(_req())
    assert len(_ChatStub.seen) == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "body",
    [b"not json", b"[]", b'{"choices": []}', b'{"choices": [{"message": {"content": 7}}]}'],
)
def test_live_client_does_not_retry_a_reply_without_text(chat_stub, sleeps, body):
    _ChatStub.responses = [(200, {"Content-Type": "application/json"}, body)]
    client = LiveClient(base_url=chat_stub, model="m")
    with pytest.raises(LlmError, match=r"^chat endpoint answered HTTP 200 without text in "):
        client.chat(_req())
    assert len(_ChatStub.seen) == 1


@pytest.mark.parametrize(
    "retry_after, waited",
    [
        ("3", 3.0),
        ("0", 1.0),  # never shorter than the backoff
        ("100000", llm.LLM_TIMEOUT),  # capped
        ("Wed, 21 Oct 2015 07:28:00 GMT", 1.0),  # an HTTP-date falls back to the backoff
        ("soon", 1.0),
        ("-3", 1.0),
    ],
)
def test_live_client_honours_a_delta_seconds_retry_after(chat_stub, sleeps, retry_after, waited):
    _ChatStub.responses = [(429, {"Retry-After": retry_after}, b"")]
    client = LiveClient(base_url=chat_stub, model="m")
    assert client.chat(_req()) == "reply 2"
    assert len(_ChatStub.seen) == 2
    assert sleeps == [waited]


def test_live_client_retries_a_connection_error(sleeps):
    # a port nothing listens on: bind one, then close it
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatStub)
    port = server.server_port
    server.server_close()
    client = LiveClient(base_url=f"http://127.0.0.1:{port}", model="m")
    with pytest.raises(LlmError, match=r"^chat endpoint failed after 3 attempts: "):
        client.chat(_req())
    assert sleeps == [llm.LLM_BACKOFF, 2 * llm.LLM_BACKOFF]


def test_live_client_does_not_retry_a_request_it_cannot_send(sleeps):
    client = LiveClient(base_url="http://", model="m")  # no host
    with pytest.raises(LlmError, match=r"^chat request failed: "):
        client.chat(_req())
    assert sleeps == []


def test_live_client_draws_each_wait_from_the_upper_half_of_its_backoff(chat_stub, monkeypatch):
    monkeypatch.setenv("DIVER_LLM_API_KEY", "sk-test")
    waited: list[float] = []
    monkeypatch.setattr(llm.time, "sleep", waited.append)
    client = LiveClient(base_url=chat_stub, model="m")
    for _ in range(20):
        _ChatStub.responses = [(503, {}, b""), (429, {"Retry-After": "0"}, b"")]
        assert client.chat(_req()).startswith("reply ")
    firsts, seconds = waited[0::2], waited[1::2]
    assert len(firsts) == len(seconds) == 20
    assert all(0.5 * llm.LLM_BACKOFF <= w <= llm.LLM_BACKOFF for w in firsts)
    assert all(llm.LLM_BACKOFF <= w <= 2 * llm.LLM_BACKOFF for w in seconds)
    # drawn, not fixed: 20 equal draws from a continuous range do not happen
    assert len(set(firsts)) > 1 and len(set(seconds)) > 1
