"""Exception types, the few constants, and the key rule of every settings object, shared across the toolkit.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses: 1 validation, 2 configuration, 3 I/O.  An error
is its class and its message alone, so it survives a pickle round trip:
a sharded pass sends a worker's error back whole (see :mod:`shards`).
"""

from __future__ import annotations

import re

# Three facts settings are checked against before ``cli`` loads a module that reads records.
KNOWN_TASKS = ("classification", "grounding", "region", "multiview", "video", "vqa")
# A code point no UTF-8 output can encode.  A pair of \u escapes decodes to
# one code point above U+FFFF, so what this finds in a string is unpaired.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")
# A marker of the special-token grammar, which no free text may hold.
MARKER = re.compile(r"</?(?:ref|box)>")


class _ReadOnlyDict(dict):
    """A dict that refuses every change, so one instance can be the default of every record that holds it."""

    __slots__ = ()

    def _refuse(self, *_, **__):
        raise TypeError("this mapping is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse


# The default ``meta`` and ``config`` of the record types: empty, shared, and encoded as ``{}``.
EMPTY_MAPPING = _ReadOnlyDict()


class PipelineError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class InvalidConfigError(PipelineError):
    """Bad configuration: unusable parameter values, unknown keys, etc."""

    exit_code = 2


def check_keys(obj: dict, allowed, required, what: str) -> None:
    """Refuse a settings object with a key outside ``allowed`` or without one of ``required``, in that order."""
    if unknown := set(obj) - set(allowed):
        raise InvalidConfigError(f"unknown {what} keys: {sorted(unknown)}")
    if missing := [key for key in required if key not in obj]:
        raise InvalidConfigError(f"{what} missing {missing[0]!r}")


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
    """Malformed special-token markup, named by a byte offset into the UTF-8 encoding of the text."""


class ShapeError(PipelineError):
    """Tensor dimensions incompatible with the requested operation."""


class NumericDomainError(PipelineError):
    """Numerically undefined input, e.g. a zero-norm vector in a cosine."""


class InsufficientDataError(PipelineError):
    """A sampling quota exceeds the available pool of a named source."""


class UndefinedMetricError(PipelineError):
    """A metric was requested over an empty corpus."""
