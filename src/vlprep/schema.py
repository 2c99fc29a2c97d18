"""Line-delimited record envelopes shared by every pipeline stage.

One JSON object per line, UTF-8, keys in the canonical order
(id, schema_version, task, meta, payload).  The payload is either a raw
domain record (pre-conversion) or a conversation sample (post-conversion);
the two are distinguished by the presence of a "turns" key.  Serialization
is byte-deterministic so converted and mixed files diff cleanly.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import InvalidRecordError, RecordIOError, TokenParseError
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
from .geometry import ImageDims, PixelBox, ensure_box_within

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
    ordered = {
        "id": env.id,
        "schema_version": env.schema_version,
        "task": env.task,
        "meta": env.meta,
        "payload": env.payload,
    }
    return json.dumps(ordered, ensure_ascii=False)


def loads_envelope(line: str) -> Envelope:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InvalidRecordError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidRecordError("record line must be a JSON object")
    missing = [k for k in _ENVELOPE_KEYS if k not in obj]
    extra = [k for k in obj if k not in _ENVELOPE_KEYS]
    if missing or extra:
        raise InvalidRecordError(f"envelope keys wrong: missing {missing}, unexpected {extra}")
    return Envelope(
        id=obj["id"],
        task=obj["task"],
        payload=obj["payload"],
        meta=obj["meta"],
        schema_version=obj["schema_version"],
    )


def numbered_lines(source: str | Path | IO[str]) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for each non-blank line of a path or open handle.

    The file is read one line at a time; a path that cannot be opened is a
    :class:`RecordIOError`.
    """
    if hasattr(source, "read"):
        handle = contextlib.nullcontext(source)
    else:
        try:
            handle = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise RecordIOError(f"cannot read {source}: {exc}") from exc
    with handle as lines:
        for number, line in enumerate(lines, start=1):
            if line.strip():
                yield number, line


def iter_envelopes(source: str | Path | IO[str]) -> Iterator[tuple[int, Envelope]]:
    """Decode envelopes one line at a time: (line number, envelope).

    A line that does not decode raises :class:`InvalidRecordError` prefixed
    with ``line N:``.
    """
    for number, line in numbered_lines(source):
        try:
            env = loads_envelope(line)
        except InvalidRecordError as exc:
            raise InvalidRecordError(f"line {number}: {exc}") from exc
        yield number, env


def read_envelopes(source: str | Path | IO[str]) -> list[Envelope]:
    """Read a whole line-delimited envelope file (whitespace-only lines skipped)."""
    return [env for _, env in iter_envelopes(source)]


def write_envelopes(target: str | Path | IO[str], envelopes: Iterable[Envelope]) -> int:
    count = 0
    if hasattr(target, "write"):
        for env in envelopes:
            target.write(dumps_envelope(env) + "\n")  # type: ignore[union-attr]
            count += 1
        return count
    try:
        with open(target, "w", encoding="utf-8") as handle:
            for env in envelopes:
                handle.write(dumps_envelope(env) + "\n")
                count += 1
    except OSError as exc:
        raise RecordIOError(f"cannot write {target}: {exc}") from exc
    return count


def _require(payload: dict, keys: tuple[str, ...], task: str) -> None:
    missing = [k for k in keys if k not in payload]
    if missing:
        raise InvalidRecordError(f"{task} payload missing {missing}")


def _dims_from(payload: dict) -> ImageDims:
    _require(payload, ("width", "height"), "sized")
    return ImageDims(int(payload["width"]), int(payload["height"]))


def _box_from(values, what: str = "box") -> PixelBox:
    if not isinstance(values, (list, tuple)) or len(values) != 4:
        raise InvalidRecordError(f"{what} must be [x1, y1, x2, y2], got {values!r}")
    return PixelBox(*(float(v) for v in values))


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
        _require(payload, ("image", "expression", "box"), task)
        return GroundingRecord(
            image=payload["image"],
            expression=payload["expression"],
            box=_box_from(payload["box"]),
            dims=_dims_from(payload),
        )
    if task == "region":
        _require(payload, ("image", "region", "question", "answer"), task)
        return RegionRecord(
            image=payload["image"],
            dims=_dims_from(payload),
            region=_box_from(payload["region"], "region"),
            question=payload["question"],
            answer=payload["answer"],
            mode=payload.get("mode", "inline-box"),
            answer_is_object=bool(payload.get("answer_is_object", False)),
        )
    if task == "multiview":
        _require(payload, ("views", "view_dims", "qa"), task)
        view_dims = {
            cam: ImageDims(int(w), int(h)) for cam, (w, h) in payload["view_dims"].items()
        }
        objects = tuple(
            CTag(
                id=obj["id"],
                camera=obj["camera"],
                cx=float(obj["center"][0]),
                cy=float(obj["center"][1]),
                box=_box_from(obj["box"]) if obj.get("box") is not None else None,
            )
            for obj in payload.get("objects", [])
        )
        return MultiViewRecord(
            views=dict(payload["views"]),
            view_dims=view_dims,
            qa=tuple((q, a) for q, a in payload["qa"]),
            objects=objects,
        )
    if task == "video":
        _require(payload, ("frames", "qa"), task)
        return VideoRecord(
            frames=_str_list(payload["frames"], "frames"),
            qa=tuple((q, a) for q, a in payload["qa"]),
        )
    raise InvalidRecordError(f"task {task!r} has no raw record form")


def sample_to_payload(sample: ConversationSample) -> dict:
    return {
        "images": list(sample.images),
        "turns": [[role, text] for role, text in sample.turns],
    }


def payload_to_sample(env: Envelope) -> ConversationSample:
    _require(env.payload, ("images", "turns"), "conversation")
    turns = env.payload["turns"]
    if not isinstance(turns, list) or not all(isinstance(t, (list, tuple)) and len(t) == 2 for t in turns):
        raise InvalidRecordError("turns must be [role, text] pairs", env.id)
    return ConversationSample(
        id=env.id,
        images=_str_list(env.payload["images"], "images"),
        turns=tuple((r, t) for r, t in turns),
        meta=dict(env.meta),
    )


def is_conversation_payload(payload: dict) -> bool:
    return "turns" in payload


def validate_envelope(env: Envelope) -> None:
    """Check one envelope end to end; raises on the first violation.

    Conversation payloads must validate structurally and every turn must
    parse under the special-token grammar; raw payloads must decode into
    their record type with all boxes inside their image bounds.
    """
    try:
        if is_conversation_payload(env.payload) or env.task == "vqa":
            sample = payload_to_sample(env)
            sample.validate()
            for _, text in sample.turns:
                parse_special_tokens(text)
            return
        record = payload_to_record(env.task, env.payload)
        if isinstance(record, GroundingRecord):
            ensure_box_within(record.box, record.dims, env.id)
        elif isinstance(record, RegionRecord):
            ensure_box_within(record.region, record.dims, env.id)
        elif isinstance(record, MultiViewRecord):
            for tag in record.objects:
                dims = record.view_dims[tag.camera]
                if not (0 <= tag.cx <= dims.width and 0 <= tag.cy <= dims.height):
                    raise InvalidRecordError(
                        f"c-tag {tag.id} center ({tag.cx}, {tag.cy}) outside {dims.width}x{dims.height}",
                        env.id,
                    )
                if tag.box is not None:
                    ensure_box_within(tag.box, dims, env.id)
    except TokenParseError as exc:
        raise InvalidRecordError(f"special-token grammar: {exc}", env.id) from exc
    except (TypeError, ValueError, KeyError) as exc:
        raise InvalidRecordError(f"malformed payload: {exc!r}", env.id) from exc
