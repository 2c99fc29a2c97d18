"""Line-delimited record envelopes shared by every pipeline stage.

One JSON object per line, UTF-8, keys in the canonical order
(id, schema_version, task, meta, payload).  The payload is either a raw
domain record (pre-conversion) or a conversation sample (post-conversion);
the two are distinguished by the presence of a "turns" key.  Serialization
is byte-deterministic so converted and mixed files diff cleanly.  All JSON
input, settings files included, is decoded here, all JSON output is encoded
by :func:`dumps_object`, and :class:`at_line` names the line and the record
of an error.  An envelope is checked where it is read, by
:func:`loads_envelope` (its keys, id, task, schema version, payload and meta),
in the one record loop, :func:`records`; :class:`Envelope` checks nothing, so
one built from checked values is not checked again.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path
from typing import IO, Callable, Iterator, NamedTuple, TypeVar

from . import formats
from .errors import EMPTY_MAPPING, KNOWN_TASKS, LONE_SURROGATE
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
from .geometry import MULTIVIEW_CANVAS, TILE_SIZE, ImageDims, PixelBox

SCHEMA_VERSION = "1"
T = TypeVar("T")
Lines = Iterator[tuple[int, int, int, bytes]]
_ENVELOPE_KEYS = ("id", "schema_version", "task", "meta", "payload")
_ENVELOPE_KEY_SET = frozenset(_ENVELOPE_KEYS)
_ONE_TILE = ImageDims(TILE_SIZE, TILE_SIZE)


class Envelope(NamedTuple):
    """One record on the wire: stable id, task tag, free-form payload."""

    id: str
    task: str
    payload: dict
    meta: dict[str, str] = EMPTY_MAPPING
    schema_version: str = SCHEMA_VERSION


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


def loads_envelope(line: str) -> Envelope:
    """The envelope on ``line``, checked: the one place the program reads an envelope from outside."""
    obj = loads_object(line)
    if obj.keys() != _ENVELOPE_KEY_SET:  # one set test; the lists are built only to name the fault
        missing = [k for k in _ENVELOPE_KEYS if k not in obj]
        extra = [k for k in obj if k not in _ENVELOPE_KEYS]
        raise InvalidRecordError(f"envelope keys wrong: missing {missing}, unexpected {extra}")
    env = Envelope(**obj)
    if not env.id or not isinstance(env.id, str):
        raise InvalidRecordError("envelope id must be a non-empty string")
    if env.task not in KNOWN_TASKS:
        raise InvalidRecordError(f"unknown task {env.task!r}", env.id)
    if env.schema_version != SCHEMA_VERSION:
        raise InvalidRecordError(f"unknown schema_version {env.schema_version!r} (expected {SCHEMA_VERSION!r})", env.id)
    if not isinstance(env.payload, dict):
        raise InvalidRecordError("payload must be an object", env.id)
    meta = env.meta
    if not isinstance(meta, dict) or not all(isinstance(v, str) for v in meta.values()):  # JSON keys are strings
        raise InvalidRecordError("meta must map strings to strings", env.id)
    return env


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


def records(lines: Lines, work: Callable[[Envelope, int, int, bytes], T]) -> Iterator[T]:
    """``work(env, index, offset, line)`` for each of :func:`numbered_lines`' ``lines``, in order: the one record loop.

    Each line is decoded by :func:`loads_envelope` (looked up per line, so a patch is seen) under :class:`at_line`,
    which names the record for ``work``'s errors too; each result is yielded outside it, so a write names no line.
    """
    for number, index, offset, line in lines:
        with at_line(number) as named:
            env = loads_envelope(line_text(line))
            named.record = env.id
            result = work(env, index, offset, line)
        yield result


def read_envelopes(source: str | Path | IO) -> list[Envelope]:
    """Read a whole line-delimited envelope file (blank lines skipped), each line by :func:`loads_envelope`."""
    return list(records(numbered_lines(source), lambda env, *_: env))


def _require(payload: dict, keys: tuple[str, ...], task: str) -> None:
    missing = [k for k in keys if k not in payload]
    if missing:
        raise InvalidRecordError(f"{task} payload missing {missing}")


def _numbers(values, count: int, what: str, kinds: tuple[type, ...] = (int, float)) -> tuple:
    """``values`` if it is exactly ``count`` finite JSON numbers of ``kinds``; a ``bool`` is none, nor a huge int."""
    if not (isinstance(values, (list, tuple)) and len(values) == count
            and all(type(v) in kinds and abs(v) <= _FLOAT_MAX for v in values)):
        kind = "integers" if kinds == (int,) else "finite numbers"
        raise ValueError(f"{what} must be {count} {kind}, got {values!r}")
    return tuple(values)


def _object(value, what: str) -> dict:
    """``value`` if it is a JSON object; an array of ``[key, value]`` pairs is not one."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")
    return value


def _pairs(values, what: str) -> tuple[tuple, ...]:
    if not isinstance(values, list) or not all(isinstance(pair, list) and len(pair) == 2 for pair in values):
        raise ValueError(f"{what} must be a list of pairs, got {values!r}")
    return tuple((a, b) for a, b in values)


def dims_from(payload: dict) -> ImageDims:
    """A raw payload's ``width`` and ``height``, which must be JSON integers."""
    return ImageDims(*_numbers((payload["width"], payload["height"]), 2, "width and height", (int,)))


def planned_images(task: str, sample: ConversationSample) -> tuple[ImageDims, int] | None:
    """``(dims, count)``: a sample's images are ``count`` plans at ``dims``; None for a sample with no image.

    Multiview: one plan of :data:`MULTIVIEW_CANVAS`; video: one tile a frame; any other task: one plan an image at
    its meta ``width`` and ``height`` by ``int()``, or one tile if either is absent.  Bad meta dims fail with no image.
    """
    meta, dims = sample.meta, _ONE_TILE
    if task not in ("video", "multiview") and "width" in meta and "height" in meta:
        dims = ImageDims(int(meta["width"]), int(meta["height"]))
        if max(dims.width, dims.height) > _FLOAT_MAX:
            raise InvalidRecordError(f"image dims must fit a float, got {dims.width}x{dims.height}")
    if not sample.images:
        return None
    return (MULTIVIEW_CANVAS, 1) if task == "multiview" else (dims, len(sample.images))


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
            for cam, pair in _object(payload["view_dims"], "view_dims").items()
        }
        entries = [_object(obj, "an objects entry") for obj in payload.get("objects", [])]
        objects = tuple(
            CTag(
                obj["id"],
                obj["camera"],
                *map(float, _numbers(obj["center"], 2, "center")),
                box=_box_from(obj["box"]) if obj.get("box") is not None else None,
            )
            for obj in entries
        )
        return MultiViewRecord(
            views=_object(payload["views"], "views"),
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

    The one place a conversation record is checked and tagged: a conversation
    payload, or any ``vqa`` payload, is validated and each turn parsed under
    the special-token grammar, and a ``vqa`` sample's meta is laid over
    ``{"task": "vqa"}``.  A raw payload decodes into its record and runs
    through its converter.  Callers name the record with :class:`at_line`.
    """
    if env.task == "vqa" or is_conversation_payload(env.payload):
        sample, overlay = payload_to_sample(env), None
        sample.validate()
        if env.task == "vqa":
            sample = ConversationSample(sample.id, sample.images, sample.turns, {"task": "vqa", **sample.meta})
        for _, text in sample.turns:
            parse_special_tokens(text)
    else:
        record = payload_to_record(env.task, env.payload)
        convert = getattr(formats, f"convert_{env.task}")
        if env.task == "classification":
            sample, overlay = convert(record, template, sample_id=env.id, meta=env.meta), None
        elif env.task == "region":
            sample, overlay = convert(record, sample_id=env.id, meta=env.meta, object_index=object_index)
        else:
            sample, overlay = convert(record, sample_id=env.id, meta=env.meta), None
        sample.validate()
    planned_images(env.task, sample)
    return sample, overlay


def validate_envelope(env: Envelope) -> None:
    """Check one envelope end to end: a dry run of :func:`envelope_to_sample` with its defaults."""
    with at_line(None) as named:
        named.record = env.id
        envelope_to_sample(env)
