"""Chat clients.

LiveClient talks to a chat-completions style HTTP endpoint (credentials via
DIVER_LLM_API_KEY) and retries only transient failures. ScriptedSession
replays canned responses, either in sequence or keyed by request
fingerprint, from one mapping of queues; it reads a script file through
cotf.load. Running out of script is always an error, never a silent
repetition. fingerprint() hashes each request from the sha256 states its
thread kept for its last request, so a resent message or chunk is not hashed
again.

replace_surrogates() makes a free-text reply safe to encode as UTF-8.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .cotf import load
from .errors import DiverError, LlmError

logger = logging.getLogger(__name__)

API_KEY_ENV = "DIVER_LLM_API_KEY"
RESPONSE_FORMATS = ("free_text", "tool_call_schema")

LLM_ATTEMPTS = 3  # total tries of one chat request
LLM_BACKOFF = 1.0  # most seconds before the first retry, doubled for each later one
LLM_TIMEOUT = 120.0  # seconds per HTTP request


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad message role: {self.role!r}")
        if not isinstance(self.content, str):
            raise ValueError("message content must be a string")


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...] | list[ChatMessage]
    temperature: float
    response_format: str

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("a request needs at least one message")
        if self.messages[0].role != "system":
            raise ValueError("the first message must be the system role")
        t = self.temperature
        # a bool is an int to isinstance, and would be sent as true or false
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0.0 <= t <= 2.0:
            raise ValueError(f"temperature must be a number from 0 to 2, got {t!r}")
        if self.response_format not in RESPONSE_FORMATS:
            raise ValueError(f"bad response_format: {self.response_format!r}")
        object.__setattr__(self, "messages", tuple(self.messages))


# json.dumps(text, ensure_ascii=False) of one string
_json_string = json.encoder.encode_basestring
_CHUNK = 1024  # characters of a message text escaped and hashed as one piece
# .request is this thread's last fingerprinted request: its messages, and for
# each the sha256 states after its opening, after each _CHUNK characters of its
# text and after its closing. A state is only ever copied, never updated.
_last = threading.local()


def fingerprint(request: ChatRequest) -> str:
    """Stable identity of a request: sha256 over its canonical JSON, the UTF-8
    of json.dumps({"messages": [{"role", "content"}, ...], "temperature",
    "response_format"}, sort_keys=True, ensure_ascii=False).

    A thread sends a question's requests one after another, and each resends
    most of the one before. So the hash starts from the states of the
    thread's last request: every leading message equal to that request's
    message at the same position is reused whole, and in the first message
    that differs, the leading chunks equal to its counterpart's. Only the
    rest is escaped and hashed; ensure_ascii=False escapes each character on
    its own, so a text's escape is its chunks' escapes joined. The record is
    replaced only once the request hashed without error."""
    messages = request.messages
    last_messages, last_states = getattr(_last, "request", ((), []))
    same = 0
    while same < min(len(messages), len(last_messages)) and messages[same] == last_messages[same]:
        same += 1
    states = last_states[:same]
    state = states[-1][-1] if states else hashlib.sha256(b'{"messages": [')
    for i in range(same, len(messages)):
        text = messages[i].content
        if i == same < len(last_messages):
            old, old_states = last_messages[i].content, last_states[i]
            kept = [old_states[0]]
            for at in range(0, len(text), _CHUNK):
                if text[at : at + _CHUNK] != old[at : at + _CHUNK]:
                    break
                kept.append(old_states[len(kept)])
        else:
            state = state.copy()
            state.update(b', {"content": "' if i else b'{"content": "')
            kept = [state]
        for at in range((len(kept) - 1) * _CHUNK, len(text), _CHUNK):
            state = kept[-1].copy()
            state.update(_json_string(text[at : at + _CHUNK])[1:-1].encode("utf-8"))
            kept.append(state)
        state = kept[-1].copy()
        # ChatMessage took one of three roles, which need no escaping
        state.update(f'", "role": "{messages[i].role}"}}'.encode())
        kept.append(state)
        states.append(kept)
    _last.request = messages, states
    # the keys after "messages" as json.dumps writes them: ChatRequest took a
    # format from RESPONSE_FORMATS, which needs no escaping, and a finite int
    # or float temperature, which json.dumps writes with its type's repr
    t = request.temperature
    state = states[-1][-1].copy()
    state.update(
        f'], "response_format": "{request.response_format}", "temperature": '
        f"{(float if isinstance(t, float) else int).__repr__(t)}}}".encode()
    )
    return state.hexdigest()


def _replies(value, where: str) -> list[str]:
    """A copy of value, a list of reply strings; DiverError naming the first
    entry that is not one."""
    if not isinstance(value, list):
        raise DiverError(f"replay script {where} must be a list of strings, got {value!r:.60}")
    for i, reply in enumerate(value):
        if not isinstance(reply, str):
            raise DiverError(f"replay script {where} entry {i} must be a string, got {reply!r:.60}")
    return list(value)


class ScriptedSession:
    """Replay client. Accepts a list of replies (sequence mode), or
    {"by_fingerprint": {fingerprint: [reply, ...]}} (per-request queues);
    anything else raises DiverError before any request. Both are kept as
    one mapping of queues, the sequence under the key None."""

    def __init__(self, script: list[str] | dict):
        if isinstance(script, list):
            self._queues: dict[str | None, list[str]] = {None: _replies(script, "list")}
        elif isinstance(script, dict) and script.keys() == {"by_fingerprint"}:
            queues = script["by_fingerprint"]
            if not isinstance(queues, dict):
                raise DiverError(
                    f"replay script by_fingerprint must be an object, got {queues!r:.60}"
                )
            self._queues = {k: _replies(v, f"by_fingerprint[{k!r}]") for k, v in queues.items()}
        else:
            raise DiverError("script must be a list or {'by_fingerprint': {...}}")
        self.consumed = 0
        # fingerprint scripts may be shared by concurrent questions (--jobs)
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedSession":
        return cls(load(path, "replay script"))

    @property
    def is_sequential(self) -> bool:
        """Sequence scripts replay in strict order and cannot be shared
        across concurrent questions."""
        return None in self._queues

    def chat(self, request: ChatRequest) -> str:
        fp = None if self.is_sequential else fingerprint(request)
        queue = self._queues.get(fp)
        with self._lock:
            if queue:
                self.consumed += 1
                return queue.pop(0)
            if fp is None:
                raise LlmError(f"replay script exhausted after {self.consumed} responses")
            raise LlmError(f"no scripted response for request {fp[:12]}…")


def _retry_after(resp) -> float:
    """Seconds a delta-seconds Retry-After header asks for; 0 for none, an
    HTTP-date or a value that cannot be parsed."""
    value = resp.headers.get("Retry-After", "").strip()
    return float(value) if re.fullmatch("[0-9]+", value) else 0.0


def _reply_text(resp) -> str:
    """choices[0].message.content of a 2xx reply, else LlmError."""
    try:
        text = resp.json()["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError):
        text = None
    if not isinstance(text, str):
        raise LlmError(
            f"chat endpoint answered HTTP {resp.status_code} without text in"
            " choices[0].message.content"
        )
    return text


@dataclass
class LiveClient:
    """Chat-completions HTTP client. It retries a connection error, a timeout,
    a 429 and a 5xx. After attempt a it waits a uniform draw from [b/2, b],
    b = LLM_BACKOFF * 2**a ("equal jitter"), or a longer delta-seconds
    Retry-After, at most LLM_TIMEOUT; any other failure raises LlmError at
    once."""

    base_url: str
    model: str

    def __post_init__(self) -> None:
        self._api_key = os.environ.get(API_KEY_ENV)
        if not self._api_key:
            raise DiverError(f"no API key: set {API_KEY_ENV}")
        if not self.base_url:
            raise DiverError("base_url must be set")

    def chat(self, request: ChatRequest) -> str:
        import requests  # only a live client needs it; a replayed run skips its import

        payload = {
            "model": self.model,
            "messages": [
                {"role": m.role, "content": m.content} for m in request.messages
            ],
            "temperature": request.temperature,
        }
        if request.response_format == "tool_call_schema":
            payload["response_format"] = {"type": "json_object"}
        url = self.base_url.rstrip("/") + "/chat/completions"
        headers = {"Authorization": f"Bearer {self._api_key}"}
        last_error: object = None
        wait = 0.0
        for attempt in range(LLM_ATTEMPTS):
            if attempt:
                time.sleep(wait)
            try:
                resp = requests.post(url, json=payload, headers=headers, timeout=LLM_TIMEOUT)
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error, asked = exc, 0.0
            except requests.RequestException as exc:
                raise LlmError(f"chat request failed: {exc}") from exc
            else:
                status = resp.status_code
                if 200 <= status < 300:
                    return _reply_text(resp)
                if status != 429 and status < 500:
                    raise LlmError(f"chat endpoint refused the request with HTTP {status}")
                last_error, asked = f"HTTP {status}", _retry_after(resp)
            # equal jitter: uniform over the upper half of the doubling backoff
            backoff = LLM_BACKOFF * 2**attempt
            wait = min(max(random.uniform(backoff / 2, backoff), asked), LLM_TIMEOUT)
            logger.warning("chat attempt %d/%d failed: %s", attempt + 1, LLM_ATTEMPTS, last_error)
        raise LlmError(f"chat endpoint failed after {LLM_ATTEMPTS} attempts: {last_error}")


_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def replace_surrogates(text: str) -> str:
    """text with each lone surrogate replaced by U+FFFD. JSON can carry one
    ("\\ud800"), so a reply can hold it, but UTF-8 cannot: left in, it fails
    the next request fingerprint or trace write. Free-text replies (thought,
    harvest rationale, evidence, merge) pass through here as they arrive."""
    return _SURROGATE_RE.sub("\ufffd", text)


# a run of one opening bracket, JSON whitespace allowed between them
_OPENER_RUNS = {o: re.compile(rf"{re.escape(o)}(?:[ \t\n\r]*{re.escape(o)})*") for o in "{["}
# one decoder for every reply, as json.loads keeps one
_raw_decode = json.JSONDecoder().raw_decode


def extract_json(text: str, kind: type) -> dict | list | None:
    """The first JSON value of type kind (dict or list) in model output: the
    decoder reads from each opening bracket in turn, so code fences,
    surrounding prose and brackets inside strings do not matter, and a value
    nested deeper than the interpreter's recursion limit counts as malformed.
    An opener that begins a run of that many openers is skipped undecoded, so
    a run of n openers costs at most the limit's decodes, not n."""
    opener = "{" if kind is dict else "["
    limit = sys.getrecursionlimit()
    for run in _OPENER_RUNS[opener].finditer(text):
        first, end = run.span()
        starts = [i for i in range(first, end) if text[i] == opener] if end > first + 1 else [first]
        for start in starts[max(0, len(starts) - limit + 1) :]:
            try:
                obj, _ = _raw_decode(text, start)
            except (ValueError, RecursionError):
                continue
            if isinstance(obj, kind):
                return obj
    return None
