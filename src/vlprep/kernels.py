"""Reference numerical kernels: pixel unshuffle, cosine distillation loss
and the drawn-annotation overlay.

These are executable definitions, not production training code.  They pin
down the exact arithmetic (axis order, reduction, gradient, stroke band) so
that any accelerated implementation can be checked against them.  This is
the only module that imports numpy; the data commands never load it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import NumericDomainError, ShapeError
from .formats import OverlaySpec
from .geometry import ImageDims, ensure_box_within


class FeatureGrid(namedtuple("FeatureGrid", "data")):
    """A (height, width, channels) float64 feature map."""

    __slots__ = ()

    def __new__(cls, data) -> FeatureGrid:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"feature grid must be 3-d (h, w, c), got shape {arr.shape}")
        return super().__new__(cls, arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


class HiddenStateStack(namedtuple("HiddenStateStack", "data")):
    """Per-layer token features, shape (layers, tokens, dim), float64."""

    __slots__ = ()

    def __new__(cls, data) -> HiddenStateStack:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"hidden state stack must be 3-d (layers, tokens, dim), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ShapeError(f"hidden state stack must be non-empty, got shape {arr.shape}")
        return super().__new__(cls, arr)


def pixel_unshuffle(grid: FeatureGrid, factor: int = 2) -> FeatureGrid:
    """Fold ``factor x factor`` spatial blocks into channels.

    Output cell (r, c) channel ``(dy*factor + dx)*C + ch`` equals input cell
    (r*factor + dy, c*factor + dx) channel ``ch``.  Spatial area shrinks by
    ``factor**2`` and channels grow by the same amount, so a 32x32 grid at
    factor 2 becomes 16x16: 1024 positions drop to 256.
    """
    if factor < 1:
        raise ShapeError(f"unshuffle factor must be positive, got {factor}")
    h, w, c = grid.shape
    if h % factor or w % factor:
        raise ShapeError(f"grid {h}x{w} not divisible by factor {factor}")
    out = (
        grid.data.reshape(h // factor, factor, w // factor, factor, c)
        .transpose(0, 2, 1, 3, 4)
        .reshape(h // factor, w // factor, factor * factor * c)
    )
    return FeatureGrid(out)


def pixel_shuffle(grid: FeatureGrid, factor: int = 2) -> FeatureGrid:
    """Exact inverse of :func:`pixel_unshuffle`."""
    if factor < 1:
        raise ShapeError(f"shuffle factor must be positive, got {factor}")
    h, w, c = grid.shape
    if c % (factor * factor):
        raise ShapeError(f"channel count {c} not divisible by factor^2 = {factor * factor}")
    base = c // (factor * factor)
    out = (
        grid.data.reshape(h, w, factor, factor, base)
        .transpose(0, 2, 1, 3, 4)
        .reshape(h * factor, w * factor, base)
    )
    return FeatureGrid(out)


def distill_loss(student: HiddenStateStack, teacher: HiddenStateStack) -> tuple[float, np.ndarray]:
    """Negative mean cosine similarity over all (layer, token) pairs.

    Returns ``(loss, grad)`` where ``grad`` has the student's shape and holds
    the analytic d(loss)/d(student).  With K layers and N tokens,

        loss = -(1/(K*N)) * sum_{k,n} cos(s_kn, t_kn)

    The cosine is computed as ``dot / sqrt(dot(s,s) * dot(t,t))`` so that a
    student identical to its teacher yields exactly -1.0 in IEEE arithmetic.
    A zero-norm vector on either side has no defined cosine and raises
    :class:`NumericDomainError` naming the offending layer and token.
    """
    if student.data.shape != teacher.data.shape:
        raise ShapeError(
            f"student shape {student.data.shape} differs from teacher shape {teacher.data.shape}"
        )
    s = student.data
    t = teacher.data
    k, n, _ = s.shape

    ss = np.einsum("knd,knd->kn", s, s)
    tt = np.einsum("knd,knd->kn", t, t)
    for name, sq in (("student", ss), ("teacher", tt)):
        zeros = np.argwhere(sq == 0.0)
        if zeros.size:
            layer, token = (int(v) for v in zeros[0])
            raise NumericDomainError(
                f"{name} vector has zero norm, cosine undefined (layer {layer}, token {token})"
            )

    st = np.einsum("knd,knd->kn", s, t)
    denom = np.sqrt(ss * tt)
    cos = st / denom
    # Dividing by the integer count (never multiplying by its reciprocal)
    # keeps the student == teacher case at exactly -1.0.
    count = k * n
    loss = -float(cos.sum()) / count

    # d cos/d s = t/denom - cos*s/ss; the second term is formed as (cos*s)/ss
    # so the gradient is exactly zero when student == teacher.
    grad = -(t / denom[..., None] - (cos[..., None] * s) / ss[..., None]) / count
    return loss, grad


def render_overlay(image: np.ndarray, spec: OverlaySpec) -> np.ndarray:
    """Stroke a rectangle outline onto a copy of an (H, W, 3) image.

    Pixel coordinates are inclusive on both corners, clamped to the image,
    and the stroke grows inward so the band never leaves the box.  A zero
    stroke width returns an untouched copy.
    """
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ShapeError(f"overlay target must be (h, w, 3), got shape {arr.shape}")
    height, width = arr.shape[:2]
    ensure_box_within(spec.box, ImageDims(width, height))
    out = arr.copy()
    if spec.stroke_width == 0:
        return out
    x1, y1 = int(spec.box.x1), int(spec.box.y1)
    x2 = min(int(spec.box.x2), width - 1)
    y2 = min(int(spec.box.y2), height - 1)
    w = spec.stroke_width
    color = np.asarray(spec.color, dtype=out.dtype)
    out[y1 : min(y1 + w, y2 + 1), x1 : x2 + 1] = color
    out[max(y2 + 1 - w, y1) : y2 + 1, x1 : x2 + 1] = color
    out[y1 : y2 + 1, x1 : min(x1 + w, x2 + 1)] = color
    out[y1 : y2 + 1, max(x2 + 1 - w, x1) : x2 + 1] = color
    return out


class CheckResult(NamedTuple):
    """Outcome of one kernel self-check."""

    name: str
    passed: bool
    detail: str = ""


def _fd_gradient(s: np.ndarray, t: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the loss w.r.t. the student."""
    grad = np.zeros_like(s)
    flat = grad.reshape(-1)
    for i in range(s.size):
        bump = np.zeros_like(s).reshape(-1)
        bump[i] = eps
        bump = bump.reshape(s.shape)
        hi, _ = distill_loss(HiddenStateStack(s + bump), HiddenStateStack(t))
        lo, _ = distill_loss(HiddenStateStack(s - bump), HiddenStateStack(t))
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def self_check(seed: int = 0, gradient_trials: int = 3) -> list[CheckResult]:
    """Run the kernel invariants and return one result per check.

    Covers: unshuffle/shuffle round trip, the 1024-to-256 token reduction,
    exact -1.0 self-distillation loss with zero gradient, and agreement of
    the analytic gradient with central differences on random inputs.
    """
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    grid = FeatureGrid(rng.standard_normal((32, 32, 8)))
    folded = pixel_unshuffle(grid, 2)
    round_trip = pixel_shuffle(folded, 2)
    results.append(
        CheckResult(
            name="unshuffle_round_trip",
            passed=bool(np.array_equal(round_trip.data, grid.data)),
            detail=f"{grid.shape} -> {folded.shape} -> {round_trip.shape}",
        )
    )
    positions_in = grid.shape[0] * grid.shape[1]
    positions_out = folded.shape[0] * folded.shape[1]
    results.append(
        CheckResult(
            name="token_reduction",
            passed=(positions_in, positions_out) == (1024, 256),
            detail=f"{positions_in} positions -> {positions_out}",
        )
    )

    states = rng.standard_normal((3, 5, 7))
    loss, grad = distill_loss(HiddenStateStack(states), HiddenStateStack(states.copy()))
    results.append(
        CheckResult(
            name="self_distillation_exact",
            passed=loss == -1.0 and not grad.any(),
            detail=f"loss={loss!r}, max|grad|={float(np.abs(grad).max())!r}",
        )
    )

    worst = 0.0
    for _ in range(max(1, gradient_trials)):
        s = rng.standard_normal((2, 3, 4))
        t = rng.standard_normal((2, 3, 4))
        _, analytic = distill_loss(HiddenStateStack(s), HiddenStateStack(t))
        numeric = _fd_gradient(s, t)
        worst = max(worst, float(np.abs(analytic - numeric).max()))
    results.append(
        CheckResult(
            name="gradient_matches_finite_difference",
            passed=worst < 1e-6 and math.isfinite(worst),
            detail=f"max abs deviation {worst:.3e} over {max(1, gradient_trials)} trials",
        )
    )
    return results
