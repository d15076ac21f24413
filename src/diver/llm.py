"""Chat clients.

LiveClient talks to a chat-completions style HTTP endpoint (credentials via
DIVER_LLM_API_KEY) with retries. ScriptedSession replays canned responses,
either in sequence or keyed by request fingerprint; running out of script is
always an error, never a silent repetition.

structured_tool_call() layers the tool-call wire schema on top of either
client, with exactly one repair round-trip for malformed output.
replace_surrogates() makes a free-text reply safe to encode as UTF-8.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .cotf import ToolCall
from .errors import DiverError, LlmError, MalformedToolCall, SchemaViolation

logger = logging.getLogger(__name__)

API_KEY_ENV = "DIVER_LLM_API_KEY"
RESPONSE_FORMATS = ("free_text", "tool_call_schema")

LLM_ATTEMPTS = 3  # total tries of one chat request
LLM_BACKOFF = 1.0  # seconds before the first retry, doubled for each later one
LLM_TIMEOUT = 120.0  # seconds per HTTP request
FINGERPRINT_CACHE_SIZE = 16  # encoded message texts fingerprint keeps


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
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature out of range: {self.temperature}")
        if self.response_format not in RESPONSE_FORMATS:
            raise ValueError(f"bad response_format: {self.response_format!r}")
        object.__setattr__(self, "messages", tuple(self.messages))


@functools.lru_cache(maxsize=FINGERPRINT_CACHE_SIZE)
def _message_json(role: str, content: str) -> bytes:
    """One message object as the canonical request JSON writes it, in UTF-8."""
    text = json.dumps(content, ensure_ascii=False)
    return f'{{"content": {text}, "role": {json.dumps(role)}}}'.encode("utf-8")


def fingerprint(request: ChatRequest) -> str:
    """Stable identity of a request: sha256 over its canonical JSON, the UTF-8
    of json.dumps({"messages": [{"role", "content"}, ...], "temperature",
    "response_format"}, sort_keys=True, ensure_ascii=False).

    The same bytes are fed to sha256 piece by piece. Consecutive requests
    resend the same system prompt, conversation and workspace, so each
    message's piece comes from a small cache keyed by its text."""
    digest = hashlib.sha256(b'{"messages": [')
    for i, m in enumerate(request.messages):
        if i:
            digest.update(b", ")
        digest.update(_message_json(m.role, m.content))
    # the keys after "messages", sorted, with the object's closing brace
    tail = json.dumps(
        {"response_format": request.response_format, "temperature": request.temperature},
        sort_keys=True,
        ensure_ascii=False,
    )
    digest.update(b"], " + tail[1:].encode("utf-8"))
    return digest.hexdigest()


class ScriptedSession:
    """Replay client. Accepts a plain list (sequence mode), or a dict with
    "by_fingerprint" (per-request queues)."""

    def __init__(self, script: list[str] | dict):
        self._sequence: list[str] | None = None
        self._by_fingerprint: dict[str, list[str]] | None = None
        if isinstance(script, list):
            self._sequence = list(script)
        elif isinstance(script, dict) and "by_fingerprint" in script:
            self._by_fingerprint = {k: list(v) for k, v in script["by_fingerprint"].items()}
        else:
            raise DiverError("script must be a list or {'by_fingerprint': {...}}")
        self.consumed = 0
        # fingerprint scripts may be shared by concurrent questions (--jobs)
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedSession":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise DiverError(f"cannot load replay script {path}: {exc}") from exc

    @property
    def is_sequential(self) -> bool:
        """Sequence scripts replay in strict order and cannot be shared
        across concurrent questions."""
        return self._sequence is not None

    def chat(self, request: ChatRequest) -> str:
        if self._sequence is not None:
            queue, fp = self._sequence, None
        else:
            fp = fingerprint(request)
            queue = self._by_fingerprint.get(fp)
        with self._lock:
            if queue:
                self.consumed += 1
                return queue.pop(0)
            if fp is None:
                raise LlmError(f"replay script exhausted after {self.consumed} responses")
            raise LlmError(f"no scripted response for request {fp[:12]}…")


@dataclass
class LiveClient:
    """Chat-completions HTTP client with retries."""

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
        last_error: Exception | None = None
        for attempt in range(LLM_ATTEMPTS):
            if attempt:
                time.sleep(LLM_BACKOFF * (2 ** (attempt - 1)))
            try:
                resp = requests.post(url, json=payload, headers=headers, timeout=LLM_TIMEOUT)
                resp.raise_for_status()
                text = resp.json()["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise LlmError(f"endpoint returned non-text content: {text!r}")
                return text
            except (requests.RequestException, KeyError, ValueError, IndexError) as exc:
                last_error = exc
                logger.warning("chat attempt %d/%d failed: %s", attempt + 1, LLM_ATTEMPTS, exc)
        raise LlmError(f"chat endpoint failed after {LLM_ATTEMPTS} attempts: {last_error}")


_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def replace_surrogates(text: str) -> str:
    """text with each lone surrogate replaced by U+FFFD. JSON can carry one
    ("\\ud800"), so a reply can hold it, but UTF-8 cannot: left in, it fails
    the next request fingerprint or trace write. Free-text replies (thought,
    harvest rationale, evidence, merge) pass through here as they arrive."""
    return _SURROGATE_RE.sub("\ufffd", text)


def extract_json(text: str, kind: type) -> dict | list | None:
    """The first JSON value of type kind (dict or list) in model output: the
    decoder reads from each opening bracket in turn, so code fences,
    surrounding prose and brackets inside strings do not matter."""
    opener = "{" if kind is dict else "["
    decoder = json.JSONDecoder()
    start = text.find(opener)
    while start != -1:
        try:
            obj, _ = decoder.raw_decode(text, start)
        except json.JSONDecodeError:
            pass
        else:
            if isinstance(obj, kind):
                return obj
        start = text.find(opener, start + 1)
    return None


def _parse_tool_call(text: str) -> tuple[ToolCall | None, str | None]:
    """(call, None) for a valid tool call. Otherwise (named, error), where
    named is ToolCall(<name>, {}) if the reply names a tool ToolCall accepts,
    else None: the call to record should the reply stay malformed."""
    obj = extract_json(text, dict)
    if obj is None:
        return None, "response did not contain a JSON object"
    if "tool" not in obj:
        return None, 'response JSON lacks the "tool" key'
    args = obj.get("args", {})
    if not isinstance(args, dict):
        error = '"args" must be an object'
    else:
        try:
            return ToolCall(tool=obj["tool"], args=args), None
        except SchemaViolation as exc:
            error = str(exc)
    try:
        return ToolCall(tool=obj["tool"], args={}), error
    except SchemaViolation:
        return None, error


def structured_tool_call(client, request: ChatRequest) -> ToolCall:
    """Ask for a tool call and parse it, with exactly one repair round-trip.

    The repair prompt replays the model's own output plus the parse error.
    If the second attempt is still malformed, MalformedToolCall carries the
    call the loop records: the first named tool, else the second, else "".
    """
    first = client.chat(request)
    first_call, error = _parse_tool_call(first)
    if error is None:
        return first_call

    repair = ChatRequest(
        messages=list(request.messages)
        + [
            ChatMessage("assistant", first),
            ChatMessage(
                "user",
                f"Your tool call was invalid: {error}. Reply with exactly one"
                ' JSON object of the form {"tool": "<name>", "args": {...}}'
                " and nothing else.",
            ),
        ],
        temperature=request.temperature,
        response_format=request.response_format,
    )
    call, error = _parse_tool_call(client.chat(repair))
    if error is None:
        return call
    raise MalformedToolCall(
        f"tool call malformed after repair: {error}", first_call or call or ToolCall("", {})
    )
