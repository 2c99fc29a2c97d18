"""Deterministic data-preparation toolkit for tile-based vision-language training.

Submodules:
    geometry  tile planning, token accounting, 0-1000 coordinate grid
    formats   domain-record converters and the special-token grammar
    mixer     seeded domain/general mixture construction
    kernels   reference numerics (pixel unshuffle, cosine distillation loss,
              overlay drawing); the only module that needs numpy, loaded
              on first use of one of its names
    metrics   evaluation scores (MCQ, BLEU, ROUGE-L, signal errors)
    schema    line-delimited record envelopes
    cli       command-line pipeline driver
"""

from .errors import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidRecordError,
    NumericDomainError,
    OutOfBoundsError,
    PipelineError,
    RecordIOError,
    ShapeError,
    TokenParseError,
    UndefinedMetricError,
)
from .geometry import (
    ImageDims,
    MultiViewLayout,
    NormalizedBox,
    PixelBox,
    TilePlan,
    denormalize_box,
    multiview_layout,
    normalize_box,
    normalize_point,
    plan_tiles,
    token_count,
)
from .formats import (
    ClassificationRecord,
    ConversationSample,
    CTag,
    GroundingRecord,
    MultiViewRecord,
    OverlaySpec,
    PromptTemplate,
    RegionRecord,
    SpecialToken,
    VideoRecord,
    convert_classification,
    convert_grounding,
    convert_multiview,
    convert_region,
    convert_video,
    convert_vqa,
    parse_special_tokens,
)
from .metrics import (
    EvalPair,
    MetricReport,
    SignalPair,
    benchmark_average,
    bleu,
    control_signal_metrics,
    mcq_accuracy,
    rouge_l,
    weighted_score,
)
from .mixer import (
    DomainSource,
    GeneralSource,
    MixManifest,
    MixReport,
    mix,
    parse_ratio,
    repeat_dataset,
)
from .schema import Envelope, read_envelopes, validate_envelope

__version__ = "0.1.0"

# Served on first access (PEP 562) so that importing the package, and every
# data command, does not load numpy.
_KERNEL_NAMES = (
    "FeatureGrid",
    "HiddenStateStack",
    "ProjectorShape",
    "distill_loss",
    "pixel_shuffle",
    "pixel_unshuffle",
    "projector_shape",
    "render_overlay",
)


def __getattr__(name: str):
    if name in _KERNEL_NAMES:
        from . import kernels

        return getattr(kernels, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "InsufficientDataError",
    "InvalidConfigError",
    "InvalidRecordError",
    "NumericDomainError",
    "OutOfBoundsError",
    "PipelineError",
    "RecordIOError",
    "ShapeError",
    "TokenParseError",
    "UndefinedMetricError",
    "ImageDims",
    "MultiViewLayout",
    "NormalizedBox",
    "PixelBox",
    "TilePlan",
    "denormalize_box",
    "multiview_layout",
    "normalize_box",
    "normalize_point",
    "plan_tiles",
    "token_count",
    "ClassificationRecord",
    "ConversationSample",
    "CTag",
    "GroundingRecord",
    "MultiViewRecord",
    "OverlaySpec",
    "PromptTemplate",
    "RegionRecord",
    "SpecialToken",
    "VideoRecord",
    "convert_classification",
    "convert_grounding",
    "convert_multiview",
    "convert_region",
    "convert_video",
    "convert_vqa",
    "parse_special_tokens",
    *_KERNEL_NAMES,
    "EvalPair",
    "MetricReport",
    "SignalPair",
    "benchmark_average",
    "bleu",
    "control_signal_metrics",
    "mcq_accuracy",
    "rouge_l",
    "weighted_score",
    "DomainSource",
    "GeneralSource",
    "MixManifest",
    "MixReport",
    "mix",
    "parse_ratio",
    "repeat_dataset",
    "Envelope",
    "read_envelopes",
    "validate_envelope",
]
