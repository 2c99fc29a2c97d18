"""The JSON-lines wire: every JSON input, settings files included, is decoded here, every output encoded here.

Lines are read as numbered UTF-8 byte lines, and :class:`at_line` names the line and the record of an error.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path
from typing import IO, Iterator

from .errors import LONE_SURROGATE
from .errors import InvalidConfigError, InvalidRecordError, PipelineError, RecordIOError, TokenParseError

Lines = Iterator[tuple[int, int, int, bytes]]


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not a finite number")


def _finite_float(literal: str) -> float:
    """``float(literal)``, refused as a constant is when it overflows to an infinity (``1e400``)."""
    value = float(literal)
    if math.isinf(value):
        _reject_constant(literal)
    return value


# The one decoder for every JSON input and the one encoder for every JSON
# output, reused: NaN, Infinity and -Infinity are not JSON, nor is a float
# literal past the float range, which no output could write back.
JSON_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)
JSON_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)
# The largest number a float holds: a decoded int past it is refused by name, and NaN fails every comparison with it.
_FLOAT_MAX = sys.float_info.max


def dumps_object(obj: object) -> str:
    """``obj`` as one line of JSON; a NaN or an infinity in it is a :class:`PipelineError` (exit 1)."""
    try:
        return JSON_ENCODER.encode(obj)
    except ValueError as exc:
        raise PipelineError(f"cannot write a non-finite number as JSON: {exc}") from None


def _decoded(text: str) -> object:
    r"""``text`` decoded by :data:`JSON_DECODER`; a string in it that holds a lone surrogate is a ``ValueError``.

    Only a ``\u`` escape can write one in JSON, so only text that holds ``\u`` pays for the check.
    """
    obj = JSON_DECODER.decode(text)
    if "\\u" in text and (hit := LONE_SURROGATE.search(JSON_ENCODER.encode(obj))):
        raise ValueError(f"lone surrogate {hit.group()!r} in a string")
    return obj


def is_finite_number(value: object) -> bool:
    """A JSON number a float holds: not a bool, NaN, an infinity or an integer past the float range."""
    return type(value) in (int, float) and abs(value) <= _FLOAT_MAX


def loads_object(text: str) -> dict:
    """``text`` decoded by :data:`JSON_DECODER`; anything but a JSON object is an :class:`InvalidRecordError`."""
    try:
        obj = _decoded(text)
    except (ValueError, RecursionError) as exc:  # not JSON, a non-finite constant, a lone surrogate, or too deep
        raise InvalidRecordError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidRecordError("expected a JSON object")
    return obj


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the settings file at ``path``, called ``what`` in errors.

    An empty path or a file that cannot be read is a :class:`RecordIOError`.
    One that is not UTF-8, not JSON (``NaN`` and lone surrogates included)
    or not an object is an :class:`InvalidConfigError`.
    """
    if path == "":  # Path("") is ".", the working directory
        raise RecordIOError(f"cannot read {what} '': an empty path names no file")
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise RecordIOError(f"cannot read {what} {path}: {exc}") from exc
    try:
        obj = _decoded(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError too
        raise InvalidConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{what} {path} must be a JSON object")
    return obj


def numbered_lines(source: str | Path | IO, start: int = 0, end: int | None = None) -> Lines:
    r"""Yield (line number, record index, byte offset, line) for each non-blank line of a path or open handle.

    Lines end at ``\n`` (a ``\r\n`` ending leaves a ``\r`` that JSON reads
    as whitespace), and the record index counts the non-blank lines before
    the line.  Lines are undecoded bytes, and :func:`line_text` decodes each
    one alone.  A handle is read as bytes: a text handle such as
    ``sys.stdin`` through its binary ``buffer``.  A path that cannot be
    opened is a :class:`RecordIOError`.  Every line is read and counted from
    byte 0, but only those that begin in bytes [start, end) are yielded, so
    ranges that cut a file at any bytes yield each line once, in the range
    where it begins, and a range in which no line begins yields none.
    """
    if hasattr(source, "read"):
        handle = contextlib.nullcontext(getattr(source, "buffer", source))
    else:
        try:
            handle = open(source, "rb")
        except OSError as exc:
            raise RecordIOError(f"cannot read {source}: {exc}") from exc
    with handle as lines:
        offset = index = 0
        for number, raw in enumerate(lines, start=1):
            if end is not None and offset >= end:
                return
            line_start = offset
            offset += len(raw)
            if raw.strip():
                if line_start >= start:
                    yield number, index, line_start, raw
                index += 1


def line_text(line: bytes) -> str:
    """A line of :func:`numbered_lines` as text; a line that is not UTF-8 is an :class:`InvalidRecordError`."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError:
        raise InvalidRecordError("not valid UTF-8") from None


class at_line:
    """Raise an :class:`InvalidRecordError` from the block again as ``line N: <message>``.

    The one place a line number and a record id join an error.  Once the
    block sets ``record``, a token-grammar or payload-shape failure becomes
    one too, and each names the record (a record check keeps its message,
    and its class when ``number`` is None, which names no line).  A class,
    not a generator under ``contextlib.contextmanager``: it is entered once
    per record, and the class costs about a third as much to enter and leave.
    """

    __slots__ = ("number", "record")

    def __init__(self, number: int | None) -> None:
        self.number = number
        self.record: str | None = None

    def __enter__(self) -> at_line:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, InvalidRecordError):
            named = exc if self.record is None else type(exc)(str(exc), self.record)
        elif self.record is not None and isinstance(exc, TokenParseError):
            named = InvalidRecordError(f"special-token grammar: {exc}", self.record)
        elif self.record is not None and isinstance(exc, (TypeError, ValueError, KeyError, OverflowError)):
            named = InvalidRecordError(f"malformed payload: {exc!r}", self.record)
        else:
            return
        if self.number is not None:
            named = InvalidRecordError(f"line {self.number}: {named}")
        raise named from exc
