"""Record envelopes shared by every pipeline stage, one per line of the :mod:`jsonl` wire.

Keys are in the canonical order (id, schema_version, task, meta, payload).
The payload is either a raw domain record (pre-conversion) or a conversation
sample (post-conversion); the two are distinguished by the presence of a
"turns" key.  Serialization is byte-deterministic so converted and mixed
files diff cleanly.  An envelope is checked where it is read, by
:func:`loads_envelope` (its keys, id, task, schema version, payload and meta),
in the one record loop, :func:`records`; :class:`Envelope` checks nothing, so
one built from checked values is not checked again.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import IO, Callable, Iterator, NamedTuple, TypeVar

from . import formats, jsonl
from .errors import EMPTY_MAPPING, KNOWN_TASKS, InvalidRecordError
from .formats import ClassificationRecord, ConversationSample, CTag, GroundingRecord, MultiViewRecord, RegionRecord
from .formats import VideoRecord, parse_special_tokens
from .geometry import MULTIVIEW_CANVAS, TILE_SIZE, ImageDims, PixelBox

SCHEMA_VERSION = "1"
T = TypeVar("T")
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
    return jsonl.dumps_object({"id": env.id, "schema_version": env.schema_version, "task": env.task, "meta": env.meta,
                               "payload": env.payload})


def loads_envelope(line: str) -> Envelope:
    """The envelope on ``line``, checked: the one place the program reads an envelope from outside."""
    obj = jsonl.loads_object(line)
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


def records(lines: jsonl.Lines, work: Callable[[Envelope, int, int, bytes], T]) -> Iterator[T]:
    """``work(env, index, offset, line)`` for each of ``lines``, in order: the one record loop.

    Each line is decoded by :func:`loads_envelope` (looked up per line, so a patch is seen) under ``jsonl.at_line``,
    which names the record for ``work``'s errors too; each result is yielded outside it, so a write names no line.
    """
    for number, index, offset, line in lines:
        with jsonl.at_line(number) as named:
            env = loads_envelope(jsonl.line_text(line))
            named.record = env.id
            result = work(env, index, offset, line)
        yield result


def read_envelopes(source: str | Path | IO) -> list[Envelope]:
    """Read a whole line-delimited envelope file (blank lines skipped), each line by :func:`loads_envelope`."""
    return list(records(jsonl.numbered_lines(source), lambda env, *_: env))


def _require(payload: dict, keys: tuple[str, ...], task: str) -> None:
    missing = [k for k in keys if k not in payload]
    if missing:
        raise InvalidRecordError(f"{task} payload missing {missing}")


def _numbers(values, count: int, what: str, kinds: tuple[type, ...] = (int, float)) -> tuple:
    """``values`` if it is exactly ``count`` finite JSON numbers of ``kinds``; a ``bool`` is none, nor a huge int."""
    if not (isinstance(values, (list, tuple)) and len(values) == count
            and all(type(v) in kinds and jsonl.is_finite_number(v) for v in values)):
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
        if max(dims.width, dims.height) > sys.float_info.max:
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
    through its converter.  Callers name the record with :class:`jsonl.at_line`.
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
    with jsonl.at_line(None) as named:
        named.record = env.id
        envelope_to_sample(env)
