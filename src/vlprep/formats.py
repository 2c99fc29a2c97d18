"""Domain-record converters into the unified conversation format.

Five raw record shapes (classification, grounding, region QA, multi-view
driving, video) become :class:`ConversationSample` values.  Records already
in conversation form have no converter here: ``schema.envelope_to_sample``
is the one place they are checked (:meth:`ConversationSample.validate`) and
tagged.

The five converters share one layout, which :func:`_sample` writes: the
sample's visual prefix (its image placeholders, camera header or frame list)
opens the first user turn, then user and assistant turns alternate, one pair
per question, and the envelope's ``meta`` is laid over the converter's own
facts (``task`` and the like).

The special-token grammar (``<ref>`` spans and ``<box>[[x1, y1, x2, y2]]</box>``
locations on the 0-1000 grid) is emitted here and parsed back by
:func:`parse_special_tokens`, which together form an exact round trip on
valid samples.

Converters are pure: identical record + template + seed gives a
byte-identical sample.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from typing import Iterable, NamedTuple

from .errors import EMPTY_MAPPING, MARKER, InvalidRecordError, TokenParseError
from .geometry import (
    GRID_MAX,
    NormalizedBox,
    ensure_box_within,
    ensure_point_within,
    multiview_layout,
    normalize_box,
    normalize_point,
)
from .seeding import derive_seed

IMAGE_PLACEHOLDER = "<image>"
FRAME_PLACEHOLDER = "<img><IMG_CONTEXT></img>"
MAX_VIDEO_FRAMES = 40

FREE_CLASS_PREFIX = "Classify the image within one of the given classes: "
FREE_CLASS_SUFFIX = ". Answer with one word or short phrase."
MCQ_LEADIN = "Please select the correct answer from the following options: "
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"  # the MCQ option letters: string.ascii_uppercase, whose import costs 0.7 ms

CTAG_SYSTEM_PROMPT = (
    "Objects are encoded using <c, CAM, [cx,cy]>, where c is the identifier, "
    "CAM indicates the camera where the object's center point is situated, "
    "and x, y represent the horizontal and vertical coordinates of the center "
    "point of the 2D bounding box."
)

# Fixed stroke palette for drawn region annotations, keyed by object index.
OVERLAY_PALETTE = (
    (255, 0, 0),
    (0, 200, 0),
    (0, 80, 255),
    (255, 180, 0),
    (200, 0, 200),
    (0, 200, 200),
)

_BOX_BODY_RE = re.compile(r"\[\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]\]")
_CTAG_PLACEHOLDER_RE = re.compile(r"<(c\d+)>")
_CTAG_ID_RE = re.compile(r"c\d+")

USER = "user"
ASSISTANT = "assistant"


class ConversationSample(NamedTuple):
    """One training sample: images plus alternating user/assistant turns."""

    id: str
    images: tuple[str, ...]
    turns: tuple[tuple[str, str], ...]
    meta: dict[str, str] = EMPTY_MAPPING

    def validate(self) -> None:
        if len(self.turns) < 2:
            raise InvalidRecordError("conversation needs at least one user and one assistant turn")
        for i, (role, text) in enumerate(self.turns):
            expected = USER if i % 2 == 0 else ASSISTANT
            if role != expected:
                raise InvalidRecordError(
                    f"turn {i} role {role!r}, expected {expected!r} (turns alternate starting with user)"
                )
            if not isinstance(text, str):
                raise InvalidRecordError(f"turn {i} text must be a string")
        for ref in self.images:
            if not ref or not isinstance(ref, str):
                raise InvalidRecordError("image references must be non-empty strings")
        placeholders = sum(t.count(IMAGE_PLACEHOLDER) + t.count("<img>") for _, t in self.turns)
        if placeholders and placeholders != len(self.images):
            raise InvalidRecordError(f"{placeholders} image placeholders for {len(self.images)} images")


class ClassificationRecord(namedtuple("ClassificationRecord", "image candidates truth")):
    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        if not self.candidates:
            raise InvalidRecordError("candidates must be non-empty")
        if len(set(self.candidates)) != len(self.candidates):
            raise InvalidRecordError("candidates must be distinct")
        if self.truth not in self.candidates:
            raise InvalidRecordError(f"truth {self.truth!r} not among candidates")
        for candidate in self.candidates:
            _guard_payload(candidate, "candidate")


class GroundingRecord(namedtuple("GroundingRecord", "image expression box dims")):
    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        _guard_payload(self.expression, "referring expression")
        if not self.expression:
            raise InvalidRecordError("referring expression must be non-empty")
        ensure_box_within(self.box, self.dims)


REGION_MODES = ("inline-box", "drawn-annotation")


# ``answer_is_object`` is true when the answer names the boxed object; such answers
# are wrapped in <ref>/<box> tokens in inline mode, free-form answers never are.
class RegionRecord(
    namedtuple(
        "RegionRecord", "image dims region question answer mode answer_is_object", defaults=("inline-box", False)
    )
):
    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        if self.mode not in REGION_MODES:
            raise InvalidRecordError(f"mode must be one of {REGION_MODES}, got {self.mode!r}")
        _guard_payload(self.question, "question")
        _guard_payload(self.answer, "answer")
        if not self.question:
            raise InvalidRecordError("question must be non-empty")
        ensure_box_within(self.region, self.dims)


class CTag(namedtuple("CTag", "id camera cx cy box", defaults=(None,))):
    """One driving-scene object: id like "c1", its camera, center, optional box."""

    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        if not _CTAG_ID_RE.fullmatch(self.id):
            raise InvalidRecordError(f"c-tag id must match c<digits>, got {self.id!r}")


class MultiViewRecord(namedtuple("MultiViewRecord", "views view_dims qa objects", defaults=((),))):
    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        if len(self.views) != 6:
            raise InvalidRecordError(f"expected 6 views, got {len(self.views)}")
        if set(self.view_dims) != set(self.views):
            raise InvalidRecordError("view_dims must cover exactly the view cameras")
        if not self.qa:
            raise InvalidRecordError("at least one question/answer pair is required")
        seen: set[str] = set()
        for tag in self.objects:
            if tag.camera not in self.views:
                raise InvalidRecordError(f"c-tag {tag.id} references unknown camera {tag.camera!r}")
            if tag.id in seen:
                raise InvalidRecordError(f"duplicate c-tag id {tag.id}")
            seen.add(tag.id)
            dims = self.view_dims[tag.camera]
            ensure_point_within(tag.cx, tag.cy, dims)
            if tag.box is not None:
                ensure_box_within(tag.box, dims)
        for camera in self.views:
            _guard_payload(camera, "camera name")
        _guard_qa(self.qa)


class VideoRecord(namedtuple("VideoRecord", "frames qa")):
    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        if not 1 <= len(self.frames) <= MAX_VIDEO_FRAMES:
            raise InvalidRecordError(
                f"frame count must be 1..{MAX_VIDEO_FRAMES}, got {len(self.frames)}"
            )
        if not self.qa:
            raise InvalidRecordError("at least one question/answer pair is required")
        _guard_qa(self.qa)


class PromptTemplate(NamedTuple):
    """Classification prompt rendering: free-label or lettered MCQ."""

    style: str = "free"
    prefix: str = ""
    suffix: str = ""
    shuffle_options: bool = False
    seed: int = 0


DEFAULT_FREE_TEMPLATE = PromptTemplate(style="free", prefix=FREE_CLASS_PREFIX, suffix=FREE_CLASS_SUFFIX)
DEFAULT_MCQ_TEMPLATE = PromptTemplate(style="mcq")


class OverlaySpec(namedtuple("OverlaySpec", "box color stroke_width", defaults=(4,))):
    """Rectangle outline to draw on the source image (drawn-annotation mode)."""

    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        if self.stroke_width < 0:
            raise InvalidRecordError(f"stroke width must be non-negative, got {self.stroke_width}")


class SpecialToken(NamedTuple):
    """One parsed grammar element: a ref span or a normalized box."""

    kind: str
    value: str | NormalizedBox


def _guard_payload(text: str, what: str) -> None:
    """Refuse raw text bound for a turn unless it is a string free of grammar markers."""
    if not isinstance(text, str):
        raise InvalidRecordError(f"{what} must be a string, got {text!r}")
    if hit := MARKER.search(text):
        raise InvalidRecordError(f"{what} contains reserved token {hit.group(0)!r}")


def _guard_qa(qa: tuple[tuple[str, str], ...]) -> None:
    for question, answer in qa:
        _guard_payload(question, "question")
        _guard_payload(answer, "answer")


def format_box(nbox: NormalizedBox) -> str:
    return f"<box>[[{nbox.x1}, {nbox.y1}, {nbox.x2}, {nbox.y2}]]</box>"


def _sample(
    sample_id: str,
    images: tuple[str, ...],
    prefix: str,
    qa: Iterable[tuple[str, str]],
    facts: dict[str, str],
    meta: dict[str, str] | None,
) -> ConversationSample:
    """The sample laid out by the module's one rule, ``qa`` giving the (question, answer) pairs in order."""
    turns: list[tuple[str, str]] = []
    for question, answer in qa:
        turns += ((USER, question if turns else f"{prefix}\n{question}"), (ASSISTANT, answer))
    return ConversationSample(id=sample_id, images=images, turns=tuple(turns), meta={**facts, **(meta or {})})


def convert_classification(
    rec: ClassificationRecord,
    template: PromptTemplate = DEFAULT_FREE_TEMPLATE,
    sample_id: str = "",
    meta: dict[str, str] | None = None,
) -> ConversationSample:
    """Render a label set as a free-label or multiple-choice question.

    Free style joins the candidates with ", " between the template prefix
    and suffix and answers with the bare truth label.  MCQ style letters the
    candidates "A. ... B. ..." after the fixed lead-in and answers
    "<letter>. <truth>"; option order is the candidate order unless the
    template requests a seeded shuffle (derived from seed and sample id).
    """
    if template.style == "free":
        body = template.prefix + ", ".join(rec.candidates) + template.suffix
        answer = rec.truth
    else:
        options = list(rec.candidates)
        if len(options) > len(_LETTERS):
            raise InvalidRecordError(f"MCQ supports at most 26 options, got {len(options)}")
        if template.shuffle_options:
            random.Random(derive_seed(template.seed, "mcq-shuffle", sample_id)).shuffle(options)
        lettered = [f"{_LETTERS[i]}. {opt}" for i, opt in enumerate(options)]
        body = template.prefix + MCQ_LEADIN + " ".join(lettered) + template.suffix
        answer = lettered[options.index(rec.truth)]
    facts = {"task": "classification", "style": template.style}
    return _sample(sample_id, (rec.image,), IMAGE_PLACEHOLDER, ((body, answer),), facts, meta)


def convert_grounding(
    rec: GroundingRecord,
    sample_id: str = "",
    meta: dict[str, str] | None = None,
) -> ConversationSample:
    """Referring expression -> "Detect <ref>...</ref>" with a normalized box answer."""
    nbox = normalize_box(rec.box, rec.dims)
    qa = ((f"Detect <ref>{rec.expression}</ref>", f"<ref>{rec.expression}</ref>{format_box(nbox)}"),)
    facts = {"task": "grounding", "width": str(rec.dims.width), "height": str(rec.dims.height)}
    return _sample(sample_id, (rec.image,), IMAGE_PLACEHOLDER, qa, facts, meta)


def convert_region(
    rec: RegionRecord,
    sample_id: str = "",
    meta: dict[str, str] | None = None,
    object_index: int = 0,
) -> tuple[ConversationSample, OverlaySpec | None]:
    """Region QA in one of two renderings.

    inline-box appends the normalized region box to the question text and,
    for object-identification answers, wraps the answer in ref/box tokens.
    drawn-annotation leaves the text token-free and returns an OverlaySpec
    for the rasterizer instead.
    """
    overlay: OverlaySpec | None = None
    if rec.mode == "inline-box":
        nbox = normalize_box(rec.region, rec.dims)
        question = f"{rec.question}{format_box(nbox)}"
        answer = f"<ref>{rec.answer}</ref>{format_box(nbox)}" if rec.answer_is_object else rec.answer
    else:
        question = rec.question
        answer = rec.answer
        overlay = OverlaySpec(
            box=rec.region,
            color=OVERLAY_PALETTE[object_index % len(OVERLAY_PALETTE)],
        )
    facts = {"task": "region", "mode": rec.mode, "width": str(rec.dims.width), "height": str(rec.dims.height)}
    return _sample(sample_id, (rec.image,), IMAGE_PLACEHOLDER, ((question, answer),), facts, meta), overlay


def _expand_ctags(text: str, table: dict[str, str]) -> str:
    """``text`` with each ``<cN>`` placeholder replaced by its rendering in ``table``."""

    def replace(match: re.Match[str]) -> str:
        rendered = table.get(match.group(1))
        if rendered is None:
            raise InvalidRecordError(f"text references unknown object {match.group(0)}")
        return rendered

    return _CTAG_PLACEHOLDER_RE.sub(replace, text)


def convert_multiview(
    rec: MultiViewRecord,
    sample_id: str = "",
    meta: dict[str, str] | None = None,
) -> ConversationSample:
    """Six camera views -> one conversation over the 2688x896 composite.

    The first user turn lists each camera name before its image placeholder
    (canonical layout order), then the c-tag system prompt, then the first
    question.  Object placeholders like ``<c1>`` expand to the full c-tag
    with its center normalized against the source view; in assistant turns
    an object's normalized box is appended when the record carries one.
    """
    layout = multiview_layout(rec.view_dims)
    header = "\n".join(f"{cam}: {IMAGE_PLACEHOLDER}" for cam in layout.view_order)
    # Each object rendered once: bare for questions, with its box for answers.
    tags: dict[str, str] = {}
    boxed: dict[str, str] = {}
    for tag in rec.objects:
        dims = rec.view_dims[tag.camera]
        cx, cy = normalize_point(tag.cx, tag.cy, dims)
        tags[tag.id] = boxed[tag.id] = f"<{tag.id},{tag.camera},[{cx},{cy}]>"
        if tag.box is not None:
            boxed[tag.id] += format_box(normalize_box(tag.box, dims))
    # Expanded pair by pair, so the first unknown c-tag in text order is the one reported.
    qa = [(_expand_ctags(question, tags), _expand_ctags(answer, boxed)) for question, answer in rec.qa]
    images = tuple(rec.views[cam] for cam in layout.view_order)
    facts = {"task": "multiview", "canvas_width": str(layout.canvas.width), "canvas_height": str(layout.canvas.height)}
    return _sample(sample_id, images, f"{header}\n{CTAG_SYSTEM_PROMPT}", qa, facts, meta)


def convert_video(
    rec: VideoRecord,
    sample_id: str = "",
    meta: dict[str, str] | None = None,
) -> ConversationSample:
    """Frame sequence -> interleaved "FrameN: <img><IMG_CONTEXT></img>" prefix."""
    prefix = " ".join(f"Frame{i}: {FRAME_PLACEHOLDER}" for i in range(1, len(rec.frames) + 1))
    return _sample(sample_id, rec.frames, prefix, rec.qa, {"task": "video", "frames": str(len(rec.frames))}, meta)


def _token_error(message: str, text: str, index: int) -> TokenParseError:
    """``message`` about ``text[index]``, named by its byte offset in the UTF-8 encoding of ``text``."""
    return TokenParseError(f"{message} (byte offset {len(text[:index].encode('utf-8'))})")


def parse_special_tokens(text: str) -> list[SpecialToken]:
    """Extract ref spans and boxes in document order.

    The box body accepts both "[[1, 2, 3, 4]]" and "[[1,2,3,4]]".  Unbalanced
    or mismatched tags, non-integer coordinates, out-of-range values, and
    out-of-order corners all raise :class:`TokenParseError` carrying the
    UTF-8 byte offset of the offending marker.
    """
    if "ref>" not in text and "box>" not in text:  # every marker holds one of the two
        return []
    tokens: list[SpecialToken] = []
    markers = MARKER.finditer(text)
    for opener in markers:  # markers pair up in order: each opener's closer is the next marker
        name = opener.group(0)
        if name[1] == "/":
            raise _token_error(f"unmatched closing tag {name}", text, opener.start())
        kind = name[1:-1]
        closer = next(markers, None)
        if closer is None:
            raise _token_error(f"unclosed tag {name}", text, opener.start())
        if closer.group(0) != f"</{kind}>":
            raise _token_error(
                f"expected </{kind}> to close {name}, found {closer.group(0)}", text, closer.start()
            )
        body = text[opener.end() : closer.start()]
        if kind == "ref":
            tokens.append(SpecialToken("ref", body))
        else:
            match = _BOX_BODY_RE.fullmatch(body)
            if not match:
                raise _token_error(f"malformed box body {body!r}", text, opener.end())
            nbox = NormalizedBox(*map(int, match.groups()))  # the body's digits: never negative
            for name, value in zip(nbox._fields, nbox):
                if value > GRID_MAX:
                    message = f"normalized coordinate {name}={value} outside [0, {GRID_MAX}]"
                    raise _token_error(message, text, opener.end())
            if nbox.x1 > nbox.x2 or nbox.y1 > nbox.y2:
                raise _token_error(f"normalized box corners out of order: {nbox.as_tuple()}", text, opener.end())
            tokens.append(SpecialToken("box", nbox))
    return tokens
