"""Domain-record converters into the unified conversation format.

Five raw record shapes (classification, grounding, region QA, multi-view
driving, video) become :class:`ConversationSample` values; records already
in conversation form pass through :func:`convert_vqa` unchanged apart from
validation and meta tagging.  The special-token grammar (``<ref>`` spans and
``<box>[[x1, y1, x2, y2]]</box>`` locations on the 0-1000 grid) is emitted
here and parsed back by :func:`parse_special_tokens`, which together form an
exact round trip on valid samples.

Converters are pure: identical record + template + seed gives a
byte-identical sample.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, field

from .errors import InvalidConfigError, InvalidRecordError, TokenParseError
from .geometry import (
    ImageDims,
    NormalizedBox,
    PixelBox,
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

_MARKER_RE = re.compile(r"</?(?:ref|box)>")
_BOX_BODY_RE = re.compile(r"\[\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]\]")
_CTAG_PLACEHOLDER_RE = re.compile(r"<(c\d+)>")
_CTAG_ID_RE = re.compile(r"c\d+")

USER = "user"
ASSISTANT = "assistant"


@dataclass(frozen=True)
class ConversationSample:
    """One training sample: images plus alternating user/assistant turns."""

    id: str
    images: tuple[str, ...]
    turns: tuple[tuple[str, str], ...]
    meta: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.id:
            raise InvalidRecordError("sample id must be non-empty")
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


@dataclass(frozen=True)
class ClassificationRecord:
    image: str
    candidates: tuple[str, ...]
    truth: str

    def __post_init__(self) -> None:
        if not self.candidates:
            raise InvalidRecordError("candidates must be non-empty")
        if len(set(self.candidates)) != len(self.candidates):
            raise InvalidRecordError("candidates must be distinct")
        if self.truth not in self.candidates:
            raise InvalidRecordError(f"truth {self.truth!r} not among candidates")


@dataclass(frozen=True)
class GroundingRecord:
    image: str
    expression: str
    box: PixelBox
    dims: ImageDims

    def __post_init__(self) -> None:
        if not self.expression:
            raise InvalidRecordError("referring expression must be non-empty")
        _guard_payload(self.expression, "referring expression")
        ensure_box_within(self.box, self.dims)


REGION_MODES = ("inline-box", "drawn-annotation")


@dataclass(frozen=True)
class RegionRecord:
    image: str
    dims: ImageDims
    region: PixelBox
    question: str
    answer: str
    mode: str = "inline-box"
    # True when the answer names the boxed object; such answers are wrapped
    # in <ref>/<box> tokens in inline mode, free-form answers never are.
    answer_is_object: bool = False

    def __post_init__(self) -> None:
        if self.mode not in REGION_MODES:
            raise InvalidRecordError(f"mode must be one of {REGION_MODES}, got {self.mode!r}")
        if not self.question:
            raise InvalidRecordError("question must be non-empty")
        _guard_payload(self.question, "question")
        _guard_payload(self.answer, "answer")
        ensure_box_within(self.region, self.dims)


@dataclass(frozen=True)
class CTag:
    """One driving-scene object: id like "c1", its camera, center, optional box."""

    id: str
    camera: str
    cx: float
    cy: float
    box: PixelBox | None = None

    def __post_init__(self) -> None:
        if not _CTAG_ID_RE.fullmatch(self.id):
            raise InvalidRecordError(f"c-tag id must match c<digits>, got {self.id!r}")


@dataclass(frozen=True)
class MultiViewRecord:
    views: dict[str, str]
    view_dims: dict[str, ImageDims]
    qa: tuple[tuple[str, str], ...]
    objects: tuple[CTag, ...] = ()

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class VideoRecord:
    frames: tuple[str, ...]
    qa: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.frames) <= MAX_VIDEO_FRAMES:
            raise InvalidRecordError(
                f"frame count must be 1..{MAX_VIDEO_FRAMES}, got {len(self.frames)}"
            )
        if not self.qa:
            raise InvalidRecordError("at least one question/answer pair is required")


@dataclass(frozen=True)
class PromptTemplate:
    """Classification prompt rendering: free-label or lettered MCQ."""

    style: str = "free"
    prefix: str = ""
    suffix: str = ""
    shuffle_options: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.style not in ("free", "mcq"):
            raise InvalidConfigError(f"template style must be 'free' or 'mcq', got {self.style!r}")


DEFAULT_FREE_TEMPLATE = PromptTemplate(style="free", prefix=FREE_CLASS_PREFIX, suffix=FREE_CLASS_SUFFIX)
DEFAULT_MCQ_TEMPLATE = PromptTemplate(style="mcq")


@dataclass(frozen=True)
class OverlaySpec:
    """Rectangle outline to draw on the source image (drawn-annotation mode)."""

    box: PixelBox
    color: tuple[int, int, int]
    stroke_width: int = 4

    def __post_init__(self) -> None:
        if self.stroke_width < 0:
            raise InvalidRecordError(f"stroke width must be non-negative, got {self.stroke_width}")


@dataclass(frozen=True)
class SpecialToken:
    """One parsed grammar element: a ref span or a normalized box."""

    kind: str
    value: str | NormalizedBox


def _guard_payload(text: str, what: str) -> None:
    hit = _MARKER_RE.search(text)
    if hit:
        raise InvalidRecordError(f"{what} contains reserved token {hit.group(0)!r}")


def format_box(nbox: NormalizedBox) -> str:
    return f"<box>[[{nbox.x1}, {nbox.y1}, {nbox.x2}, {nbox.y2}]]</box>"


def _merged_meta(base: dict[str, str], extra: dict[str, str] | None) -> dict[str, str]:
    out = dict(base)
    if extra:
        out.update(extra)
    return out


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
        if len(options) > len(string.ascii_uppercase):
            raise InvalidRecordError(f"MCQ supports at most 26 options, got {len(options)}")
        if template.shuffle_options:
            random.Random(derive_seed(template.seed, "mcq-shuffle", sample_id)).shuffle(options)
        lettered = [f"{string.ascii_uppercase[i]}. {opt}" for i, opt in enumerate(options)]
        body = template.prefix + MCQ_LEADIN + " ".join(lettered) + template.suffix
        answer = lettered[options.index(rec.truth)]
    sample = ConversationSample(
        id=sample_id,
        images=(rec.image,),
        turns=((USER, f"{IMAGE_PLACEHOLDER}\n{body}"), (ASSISTANT, answer)),
        meta=_merged_meta({"task": "classification", "style": template.style}, meta),
    )
    return sample


def convert_grounding(
    rec: GroundingRecord,
    sample_id: str = "",
    meta: dict[str, str] | None = None,
) -> ConversationSample:
    """Referring expression -> "Detect <ref>...</ref>" with a normalized box answer."""
    nbox = normalize_box(rec.box, rec.dims)
    return ConversationSample(
        id=sample_id,
        images=(rec.image,),
        turns=(
            (USER, f"{IMAGE_PLACEHOLDER}\nDetect <ref>{rec.expression}</ref>"),
            (ASSISTANT, f"<ref>{rec.expression}</ref>{format_box(nbox)}"),
        ),
        meta=_merged_meta(
            {"task": "grounding", "width": str(rec.dims.width), "height": str(rec.dims.height)},
            meta,
        ),
    )


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
    sample = ConversationSample(
        id=sample_id,
        images=(rec.image,),
        turns=((USER, f"{IMAGE_PLACEHOLDER}\n{question}"), (ASSISTANT, answer)),
        meta=_merged_meta(
            {
                "task": "region",
                "mode": rec.mode,
                "width": str(rec.dims.width),
                "height": str(rec.dims.height),
            },
            meta,
        ),
    )
    return sample, overlay


def _render_ctag(tag: CTag, dims: ImageDims) -> str:
    cx, cy = normalize_point(tag.cx, tag.cy, dims)
    return f"<{tag.id},{tag.camera},[{cx},{cy}]>"


def _expand_ctags(text: str, rec: MultiViewRecord, with_boxes: bool) -> str:
    by_id = {tag.id: tag for tag in rec.objects}

    def replace(match: re.Match[str]) -> str:
        tag = by_id.get(match.group(1))
        if tag is None:
            raise InvalidRecordError(f"text references unknown object {match.group(0)}")
        dims = rec.view_dims[tag.camera]
        rendered = _render_ctag(tag, dims)
        if with_boxes and tag.box is not None:
            rendered += format_box(normalize_box(tag.box, dims))
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
    turns: list[tuple[str, str]] = []
    for i, (question, answer) in enumerate(rec.qa):
        q_text = _expand_ctags(question, rec, with_boxes=False)
        if i == 0:
            q_text = f"{header}\n{CTAG_SYSTEM_PROMPT}\n{q_text}"
        turns.append((USER, q_text))
        turns.append((ASSISTANT, _expand_ctags(answer, rec, with_boxes=True)))
    return ConversationSample(
        id=sample_id,
        images=tuple(rec.views[cam] for cam in layout.view_order),
        turns=tuple(turns),
        meta=_merged_meta(
            {
                "task": "multiview",
                "canvas_width": str(layout.canvas.width),
                "canvas_height": str(layout.canvas.height),
            },
            meta,
        ),
    )


def convert_video(
    rec: VideoRecord,
    sample_id: str = "",
    meta: dict[str, str] | None = None,
) -> ConversationSample:
    """Frame sequence -> interleaved "FrameN: <img><IMG_CONTEXT></img>" prefix."""
    prefix = " ".join(f"Frame{i}: {FRAME_PLACEHOLDER}" for i in range(1, len(rec.frames) + 1))
    turns: list[tuple[str, str]] = []
    for i, (question, answer) in enumerate(rec.qa):
        turns.append((USER, f"{prefix}\n{question}" if i == 0 else question))
        turns.append((ASSISTANT, answer))
    return ConversationSample(
        id=sample_id,
        images=rec.frames,
        turns=tuple(turns),
        meta=_merged_meta({"task": "video", "frames": str(len(rec.frames))}, meta),
    )


def convert_vqa(sample: ConversationSample, meta: dict[str, str] | None = None) -> ConversationSample:
    """Identity path for data already in conversation form: validate and tag."""
    sample.validate()
    return ConversationSample(
        id=sample.id,
        images=sample.images,
        turns=sample.turns,
        meta=_merged_meta({"task": "vqa", **sample.meta}, meta),
    )


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
    tokens: list[SpecialToken] = []
    markers = list(_MARKER_RE.finditer(text))
    i = 0
    while i < len(markers):
        opener = markers[i]
        name = opener.group(0)
        if name.startswith("</"):
            raise _token_error(f"unmatched closing tag {name}", text, opener.start())
        kind = name[1:-1]
        if i + 1 == len(markers):
            raise _token_error(f"unclosed tag {name}", text, opener.start())
        closer = markers[i + 1]
        if closer.group(0) != f"</{kind}>":
            raise _token_error(
                f"expected </{kind}> to close {name}, found {closer.group(0)}", text, closer.start()
            )
        body = text[opener.end() : closer.start()]
        if kind == "ref":
            tokens.append(SpecialToken(kind="ref", value=body))
        else:
            match = _BOX_BODY_RE.fullmatch(body)
            if not match:
                raise _token_error(
                    f"malformed box body {body!r}", text, opener.end()
                )
            try:
                nbox = NormalizedBox(*(int(g) for g in match.groups()))
            except InvalidRecordError as exc:
                raise _token_error(str(exc), text, opener.end()) from exc
            tokens.append(SpecialToken(kind="box", value=nbox))
        i += 2
    return tokens
