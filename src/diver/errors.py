"""Exception hierarchy shared across the package.

One class per decision a caller makes. The probing loop never sees an
exception from a probe or a malformed tool call: the toolbox turns every
probe failure into feedback, and lookup.structured_tool_call returns a call
that stays malformed after its repair together with its error. A class below
DiverError exists only because some caller in the package catches it apart
from its base; the rest of the package raises DiverError itself (a missing
database file, a bad dataset, missing credentials). cli.main is the one place
that reports it, as `error: <message>` and exit status 2, and the evaluator
catches it per sample.
"""

from __future__ import annotations


class DiverError(Exception):
    """Base class for every error this package raises on purpose."""


class SchemaViolation(DiverError):
    """A document, or part of one, breaks the trace schema or its rules.
    Callers drop the rejected linking or tool call."""


class SqlError(DiverError):
    """A statement failed (the message is the engine's own text verbatim), a
    statement that is not a read was refused, a probe named an unknown table
    or column, or database.sql_tokens could not read the SQL. dispatch passes
    the message to the model as corrective feedback."""


class EmbedderUnavailable(DiverError):
    """Embedding provider cannot be reached or sent a malformed response;
    callers fall back to lexical scoring."""


class LlmError(DiverError):
    """A chat client failed: the endpoint kept failing or a replay script ran
    out. This is the probing loop's one abort path: it ends the clause and
    keeps the partial trace."""

