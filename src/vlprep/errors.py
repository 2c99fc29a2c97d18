"""Exception types shared across the toolkit.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses: 1 validation, 2 configuration, 3 I/O.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class InvalidConfigError(PipelineError):
    """Bad configuration: unusable parameter values, unknown keys, etc."""

    exit_code = 2


class RecordIOError(PipelineError):
    """A source or sink could not be read or written."""

    exit_code = 3


class InvalidRecordError(PipelineError):
    """A record violates its schema or task invariants."""

    def __init__(self, message: str, record_id: str | None = None):
        if record_id:
            message = f"record {record_id!r}: {message}"
        super().__init__(message)


class OutOfBoundsError(InvalidRecordError):
    """A box or point lies outside the image it is bound to."""


class TokenParseError(PipelineError):
    """Malformed special-token markup. ``offset`` is a byte offset into the
    UTF-8 encoding of the text."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class ShapeError(PipelineError):
    """Tensor dimensions incompatible with the requested operation."""


class NumericDomainError(PipelineError):
    """Numerically undefined input, e.g. a zero-norm vector in a cosine."""

    def __init__(self, message: str, layer: int | None = None, token: int | None = None):
        self.layer = layer
        self.token = token
        if layer is not None and token is not None:
            message = f"{message} (layer {layer}, token {token})"
        super().__init__(message)


class InsufficientDataError(PipelineError):
    """A sampling quota exceeds the available pool of a named source."""

    def __init__(self, message: str, source_id: str):
        self.source_id = source_id
        super().__init__(f"source {source_id!r}: {message}")


class UndefinedMetricError(PipelineError):
    """A metric was requested over an empty corpus."""
