"""Exception hierarchy shared across the package.

Grouped by the layer that raises them. Everything inherits from DiverError so
callers can fence off library failures with a single except clause.
"""

from __future__ import annotations


class DiverError(Exception):
    """Base class for every error this package raises on purpose."""


# --- workspace / document layer ---


class SchemaViolation(DiverError):
    """A serialized document (or part of one) does not match the trace schema."""


class IndexOutOfBounds(DiverError):
    """A clause or turn index points outside the document."""


class ClauseTerminated(DiverError):
    """A turn was appended to a clause that already ended with `none`."""


class TurnBudgetExceeded(DiverError):
    """A turn was appended to a clause that already holds max_turns turns."""


# --- database adapter ---


class NotFound(DiverError):
    """Database file does not exist."""


class NotReadable(DiverError):
    """Database file exists but cannot be opened for reading."""


class ReadOnlyViolation(DiverError):
    """A statement that could write reached a read-only handle."""


class SqlError(DiverError):
    """Statement failed; message carries the engine's own text verbatim."""


class UnknownTable(DiverError):
    """Named table is not in the catalog."""


class UnknownColumn(DiverError):
    """Named column is not in the named table."""


class DescriptionParseError(DiverError):
    """A description CSV could not be parsed. Non-fatal: callers warn and skip."""


# --- embedder ---


class EmbedderUnavailable(DiverError):
    """Embedding provider cannot be reached; callers fall back to lexical scoring."""


class EmptyInput(DiverError):
    """embed() was called with an empty list of texts."""


# --- llm client ---


class LlmError(DiverError):
    """Base class for chat-client failures."""


class ConfigurationError(LlmError):
    """Client is not configured (missing credentials, bad endpoint)."""


class ProviderError(LlmError):
    """Remote chat endpoint kept failing after retries."""


class ScriptExhausted(LlmError):
    """A scripted session ran out of canned responses."""


class MalformedToolCall(LlmError):
    """Model output could not be parsed into a valid tool call, even after the
    single repair round-trip. Carries both raw outputs for the trace."""

    def __init__(self, message: str, raw_outputs: list[str] | None = None):
        super().__init__(message)
        self.raw_outputs = raw_outputs or []


class ParseFailure(DiverError):
    """SQL could not be tokenized/parsed. extract_entities never raises this;
    it sets a flag instead. Kept as a class so callers can share the name."""
