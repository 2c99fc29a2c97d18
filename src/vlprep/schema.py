"""Line-delimited record envelopes shared by every pipeline stage.

One JSON object per line, UTF-8, keys in the canonical order
(id, schema_version, task, meta, payload).  The payload is either a raw
domain record (pre-conversion) or a conversation sample (post-conversion);
the two are distinguished by the presence of a "turns" key.  Serialization
is byte-deterministic so converted and mixed files diff cleanly.  All JSON
input, settings files included, is decoded here, all JSON output is encoded
by :func:`dumps_object`, and :class:`at_line` names the line and the record
of an error.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

from . import formats
from .errors import InvalidConfigError, InvalidRecordError, PipelineError, RecordIOError, TokenParseError
from .formats import (
    ClassificationRecord,
    ConversationSample,
    CTag,
    GroundingRecord,
    MultiViewRecord,
    RegionRecord,
    VideoRecord,
    parse_special_tokens,
)
from .geometry import ImageDims, PixelBox

SCHEMA_VERSION = "1"
KNOWN_TASKS = ("classification", "grounding", "region", "multiview", "video", "vqa")
_ENVELOPE_KEYS = ("id", "schema_version", "task", "meta", "payload")


@dataclass(frozen=True)
class Envelope:
    """One record on the wire: stable id, task tag, free-form payload."""

    id: str
    task: str
    payload: dict
    meta: dict[str, str] = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise InvalidRecordError("envelope id must be a non-empty string")
        if self.task not in KNOWN_TASKS:
            raise InvalidRecordError(f"unknown task {self.task!r}", self.id)
        if self.schema_version != SCHEMA_VERSION:
            raise InvalidRecordError(
                f"unknown schema_version {self.schema_version!r} (expected {SCHEMA_VERSION!r})", self.id
            )
        if not isinstance(self.payload, dict):
            raise InvalidRecordError("payload must be an object", self.id)
        if not isinstance(self.meta, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in self.meta.items()
        ):
            raise InvalidRecordError("meta must map strings to strings", self.id)


def dumps_envelope(env: Envelope) -> str:
    """``env`` as one line of JSON, its keys in schema order."""
    return dumps_object({"id": env.id, "schema_version": env.schema_version, "task": env.task, "meta": env.meta,
                         "payload": env.payload})


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
# A code point no UTF-8 output can encode.  A pair of \u escapes decodes to
# one code point above U+FFFF, so what this finds in a string is unpaired.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")


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
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def loads_object(text: str) -> dict:
    """``text`` decoded by :data:`JSON_DECODER`; anything but a JSON object is an :class:`InvalidRecordError`."""
    try:
        obj = _decoded(text)
    except (ValueError, RecursionError) as exc:  # not JSON, a non-finite constant, a lone surrogate, or too deep
        raise InvalidRecordError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidRecordError("expected a JSON object")
    return obj


def loads_envelope(line: str) -> Envelope:
    obj = loads_object(line)
    missing = [k for k in _ENVELOPE_KEYS if k not in obj]
    extra = [k for k in obj if k not in _ENVELOPE_KEYS]
    if missing or extra:
        raise InvalidRecordError(f"envelope keys wrong: missing {missing}, unexpected {extra}")
    return Envelope(**obj)


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the settings file at ``path``, called ``what`` in errors.

    A file that cannot be read is a :class:`RecordIOError`.  One that is not
    UTF-8, not JSON (``NaN`` and lone surrogates included) or not an object
    is an :class:`InvalidConfigError`.
    """
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


def numbered_lines(
    source: str | Path | IO, start: int = 0, end: int | None = None
) -> Iterator[tuple[int, int, int, bytes]]:
    r"""Yield (line number, record index, byte offset, line) for each non-blank line of a path or open handle.

    Lines end at ``\n`` (a ``\r\n`` ending leaves a ``\r`` that JSON reads
    as whitespace), and the record index counts the non-blank lines before
    the line.  Lines are undecoded bytes, and :func:`line_text` decodes each
    one alone.  A handle is read as bytes: a text handle such as
    ``sys.stdin`` through its binary ``buffer``.  A path that cannot be
    opened is a :class:`RecordIOError`.  Every line is read and counted from
    byte 0, but only those that begin in bytes [start, end) are yielded.
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


def iter_envelopes(source: str | Path | IO) -> Iterator[tuple[int, Envelope]]:
    """(line number, envelope) for each line, decoded one at a time by :func:`loads_envelope`."""
    for number, _, _, line in numbered_lines(source):
        with at_line(number):
            env = loads_envelope(line_text(line))
        yield number, env


def read_envelopes(source: str | Path | IO) -> list[Envelope]:
    """Read a whole line-delimited envelope file (whitespace-only lines skipped)."""
    return [env for _, env in iter_envelopes(source)]


def _require(payload: dict, keys: tuple[str, ...], task: str) -> None:
    missing = [k for k in keys if k not in payload]
    if missing:
        raise InvalidRecordError(f"{task} payload missing {missing}")


def _numbers(values, count: int, what: str, kinds: tuple[type, ...] = (int, float)) -> tuple:
    """``values`` if it is exactly ``count`` finite JSON numbers of ``kinds``; a ``bool`` is none."""
    if (
        not isinstance(values, (list, tuple))
        or len(values) != count
        or not all(type(v) in kinds and math.isfinite(v) for v in values)
    ):
        kind = "integers" if kinds == (int,) else "finite numbers"
        raise ValueError(f"{what} must be {count} {kind}, got {values!r}")
    return tuple(values)


def _pairs(values, what: str) -> tuple[tuple, ...]:
    if not isinstance(values, list) or not all(isinstance(pair, list) and len(pair) == 2 for pair in values):
        raise ValueError(f"{what} must be a list of pairs, got {values!r}")
    return tuple((a, b) for a, b in values)


def dims_from(payload: dict) -> ImageDims:
    """A raw payload's ``width`` and ``height``, which must be JSON integers."""
    return ImageDims(*_numbers((payload["width"], payload["height"]), 2, "width and height", (int,)))


def _box_from(values, what: str = "box") -> PixelBox:
    return PixelBox(*(float(v) for v in _numbers(values, 4, f"{what} [x1, y1, x2, y2]")))


def _str_list(values, what: str) -> tuple[str, ...]:
    if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
        raise InvalidRecordError(f"{what} must be a list of strings, got {values!r}")
    return tuple(values)


def payload_to_record(
    task: str, payload: dict
) -> ClassificationRecord | GroundingRecord | RegionRecord | MultiViewRecord | VideoRecord:
    """Decode a raw (pre-conversion) payload into its record type."""
    if task == "classification":
        _require(payload, ("image", "candidates", "truth"), task)
        return ClassificationRecord(
            image=payload["image"],
            candidates=_str_list(payload["candidates"], "candidates"),
            truth=payload["truth"],
        )
    if task == "grounding":
        _require(payload, ("image", "expression", "box", "width", "height"), task)
        return GroundingRecord(
            image=payload["image"],
            expression=payload["expression"],
            box=_box_from(payload["box"]),
            dims=dims_from(payload),
        )
    if task == "region":
        _require(payload, ("image", "width", "height", "region", "question", "answer"), task)
        answer_is_object = payload.get("answer_is_object", False)
        if not isinstance(answer_is_object, bool):
            raise ValueError(f"answer_is_object must be true or false, got {answer_is_object!r}")
        return RegionRecord(
            image=payload["image"],
            dims=dims_from(payload),
            region=_box_from(payload["region"], "region"),
            question=payload["question"],
            answer=payload["answer"],
            mode=payload.get("mode", "inline-box"),
            answer_is_object=answer_is_object,
        )
    if task == "multiview":
        _require(payload, ("views", "view_dims", "qa"), task)
        view_dims = {
            cam: ImageDims(*_numbers(pair, 2, f"view_dims {cam!r}", (int,)))
            for cam, pair in dict(payload["view_dims"]).items()
        }
        objects = tuple(
            CTag(
                obj["id"],
                obj["camera"],
                *map(float, _numbers(obj["center"], 2, "center")),
                box=_box_from(obj["box"]) if obj.get("box") is not None else None,
            )
            for obj in map(dict, payload.get("objects", []))
        )
        return MultiViewRecord(
            views=dict(payload["views"]),
            view_dims=view_dims,
            qa=_pairs(payload["qa"], "qa"),
            objects=objects,
        )
    if task == "video":
        _require(payload, ("frames", "qa"), task)
        return VideoRecord(
            frames=_str_list(payload["frames"], "frames"),
            qa=_pairs(payload["qa"], "qa"),
        )
    raise InvalidRecordError(f"task {task!r} has no raw record form")


def sample_to_payload(sample: ConversationSample) -> dict:
    return {
        "images": list(sample.images),
        "turns": [[role, text] for role, text in sample.turns],
    }


def payload_to_sample(env: Envelope) -> ConversationSample:
    _require(env.payload, ("images", "turns"), "conversation")
    return ConversationSample(
        id=env.id,
        images=_str_list(env.payload["images"], "images"),
        turns=_pairs(env.payload["turns"], "turns"),
        meta=dict(env.meta),
    )


def is_conversation_payload(payload: dict) -> bool:
    return "turns" in payload


def envelope_to_sample(
    env: Envelope, template: formats.PromptTemplate = formats.DEFAULT_FREE_TEMPLATE, object_index: int = 0
) -> tuple[ConversationSample, formats.OverlaySpec | None]:
    """Decode one envelope into its checked sample, plus the overlay a drawn region asks for.

    A conversation payload, or any ``vqa`` payload, is validated and each turn
    parsed under the special-token grammar; a raw payload decodes into its
    record and runs through its converter.  Callers name the record with :class:`at_line`.
    """
    if env.task == "vqa" or is_conversation_payload(env.payload):
        sample = payload_to_sample(env)
        if env.task == "vqa":
            sample = formats.convert_vqa(sample)
        else:
            sample.validate()
        for _, text in sample.turns:
            parse_special_tokens(text)
        return sample, None
    record = payload_to_record(env.task, env.payload)
    convert = getattr(formats, f"convert_{env.task}")
    if env.task == "classification":
        sample, overlay = convert(record, template, sample_id=env.id, meta=env.meta), None
    elif env.task == "region":
        sample, overlay = convert(record, sample_id=env.id, meta=env.meta, object_index=object_index)
    else:
        sample, overlay = convert(record, sample_id=env.id, meta=env.meta), None
    sample.validate()
    return sample, overlay


def validate_envelope(env: Envelope) -> None:
    """Check one envelope end to end: a dry run of :func:`envelope_to_sample` with its defaults."""
    with at_line(None) as named:
        named.record = env.id
        envelope_to_sample(env)
