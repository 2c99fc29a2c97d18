"""Tile planning, visual-token accounting, and the 0-1000 box grid.

Images are decomposed into a grid of fixed 448x448 tiles whose shape best
matches the image aspect ratio, with an optional global thumbnail tile.
Each tile costs a fixed number of visual tokens (256 by default).  Boxes and
points are exchanged on a dimensionless 0-1000 grid so that annotations are
independent of source resolution.

All functions here are pure.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple

from .errors import InvalidRecordError, OutOfBoundsError

TILE_SIZE = 448
TOKENS_PER_TILE = 256
DEFAULT_MIN_TILES = 1
DEFAULT_MAX_TILES = 40
# The largest max_tiles a run may ask for: the candidate table grows as max_tiles * ln(max_tiles).
MAX_TILES_LIMIT = 10_000
GRID_MAX = 1000

# Canonical six-camera order: front row left-to-right, then back row.
MULTIVIEW_ORDER = (
    "CAM_FRONT_LEFT",
    "CAM_FRONT",
    "CAM_FRONT_RIGHT",
    "CAM_BACK_LEFT",
    "CAM_BACK",
    "CAM_BACK_RIGHT",
)
MULTIVIEW_GRID_COLS = 3
MULTIVIEW_GRID_ROWS = 2
MULTIVIEW_VIEW_WIDTH = 896
MULTIVIEW_VIEW_HEIGHT = 448


class ImageDims(namedtuple("ImageDims", "width height")):
    """Width and height of an image in pixels."""

    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        if self.width < 1 or self.height < 1:
            raise InvalidRecordError(f"image dims must be positive, got {self.width}x{self.height}")

    @property
    def aspect(self) -> float:
        return self.width / self.height

    @property
    def area(self) -> int:
        return self.width * self.height


# The fixed canvas the six views are laid out on: 2688x896.
MULTIVIEW_CANVAS = ImageDims(
    MULTIVIEW_GRID_COLS * MULTIVIEW_VIEW_WIDTH,
    MULTIVIEW_GRID_ROWS * MULTIVIEW_VIEW_HEIGHT,
)


class TilePlan(namedtuple("TilePlan", "cols rows has_thumbnail")):
    """A cols x rows tile decomposition plus an optional thumbnail tile; only :func:`plan_tiles` builds one."""

    __slots__ = ()

    @property
    def num_tiles(self) -> int:
        """Grid tiles only, thumbnail excluded."""
        return self.cols * self.rows

    @property
    def total_tiles(self) -> int:
        return self.num_tiles + (1 if self.has_thumbnail else 0)

    @property
    def canvas(self) -> ImageDims:
        """Pixel size of the resized canvas the grid covers."""
        return ImageDims(self.cols * TILE_SIZE, self.rows * TILE_SIZE)


class NormalizedBox(namedtuple("NormalizedBox", "x1 y1 x2 y2")):
    """Box on the 0-1000 grid: computed by :func:`normalize_box`, or read and checked by ``parse_special_tokens``."""

    __slots__ = ()

    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self)


class PixelBox(namedtuple("PixelBox", "x1 y1 x2 y2")):
    """Axis-aligned box in pixel coordinates of some image."""

    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        if min(self) < 0:
            raise InvalidRecordError(f"pixel box coordinates must be non-negative: {self.as_tuple()}")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise InvalidRecordError(f"pixel box corners out of order: {self.as_tuple()}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)

    @property
    def is_degenerate(self) -> bool:
        """True for zero-area (line or point) boxes."""
        return self.x1 == self.x2 or self.y1 == self.y2


class MultiViewLayout(NamedTuple):
    """Placement of six camera views on one wide canvas."""

    view_order: tuple[str, ...]
    canvas: ImageDims


@functools.lru_cache(maxsize=8)
def _candidate_grids(min_tiles: int, max_tiles: int) -> tuple[tuple[int, int, float, float], ...]:
    """Candidate ``(cols, rows, aspect, half_canvas_area)`` rows in scan order.

    The table depends only on the tile bounds, so it is built once per pair;
    a run uses one pair, and the small cache bound keeps a caller sweeping
    many pairs from holding every table.  ``aspect`` and ``half_canvas_area``
    are the exact float expressions the selection rule compares against.
    """
    grids: list[tuple[int, int]] = []
    for cols in range(1, max_tiles + 1):
        for rows in range(1, max_tiles // cols + 1):
            if cols * rows >= min_tiles:
                grids.append((cols, rows))
    # Scan order is pinned: ascending tile count, then ascending cols.
    grids.sort(key=lambda grid: (grid[0] * grid[1], grid[0]))
    return tuple(
        (cols, rows, cols / rows, 0.5 * TILE_SIZE * TILE_SIZE * cols * rows) for cols, rows in grids
    )


# A run plans a few distinct inputs again and again (stats: the 448x448 video
# frame, the 2688x896 multiview canvas); the bound keeps a sweep from holding every plan.
@functools.lru_cache(maxsize=1024)
def plan_tiles(
    dims: ImageDims,
    min_tiles: int = DEFAULT_MIN_TILES,
    max_tiles: int = DEFAULT_MAX_TILES,
    use_thumbnail: bool = True,
) -> TilePlan:
    """Choose the tile grid whose aspect ratio best matches ``dims``.

    Candidates are all (cols, rows) with ``min_tiles <= cols*rows <= max_tiles``.
    The grid minimizing ``|cols/rows - width/height|`` wins; on a tie the
    larger grid wins only when the image area exceeds half the candidate
    canvas area, so small images are not up-tiled.  A thumbnail tile is added
    whenever thumbnails are enabled and the plan has more than one tile.
    """
    aspect = dims.aspect
    area = dims.area
    best: tuple[int, int] | None = None
    best_diff = math.inf
    for cols, rows, grid_aspect, half_canvas_area in _candidate_grids(min_tiles, max_tiles):
        diff = abs(aspect - grid_aspect)
        if diff < best_diff:
            best_diff = diff
            best = (cols, rows)
        elif diff == best_diff and area > half_canvas_area:
            best = (cols, rows)
    assert best is not None
    cols, rows = best
    return TilePlan(cols=cols, rows=rows, has_thumbnail=use_thumbnail and cols * rows > 1)


def token_count(plan: TilePlan, tokens_per_tile: int = TOKENS_PER_TILE) -> int:
    """Visual tokens consumed by a tile plan, thumbnail included."""
    return plan.total_tiles * tokens_per_tile


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, as ``sum`` adds floats before Python 3.12, so no output varies by version."""
    total = 0
    for value in values:
        total += value
    return total


def _round_half_away(value: float) -> int:
    """``value``, never negative, to the nearest integer; a half rounds up (away from zero), not to even."""
    return math.floor(value + 0.5)


def _to_grid(coord: float, extent: int) -> int:
    # For 0 <= coord <= extent, coord / extent <= 1.0 and the product stays in [0, GRID_MAX].
    return _round_half_away(coord / extent * GRID_MAX)


def ensure_box_within(box: PixelBox, dims: ImageDims) -> None:
    """Raise :class:`OutOfBoundsError` if ``box`` exceeds ``dims``."""
    if box.x2 > dims.width or box.y2 > dims.height:
        raise OutOfBoundsError(f"box {box.as_tuple()} exceeds image bounds {dims.width}x{dims.height}")


def normalize_box(box: PixelBox, dims: ImageDims) -> NormalizedBox:
    """Map a box within ``dims`` onto the 0-1000 grid (round half away from zero; no clamp, no check).

    Degenerate zero-area boxes are accepted.
    """
    return NormalizedBox(
        x1=_to_grid(box.x1, dims.width),
        y1=_to_grid(box.y1, dims.height),
        x2=_to_grid(box.x2, dims.width),
        y2=_to_grid(box.y2, dims.height),
    )


def ensure_point_within(x: float, y: float, dims: ImageDims) -> None:
    """Raise :class:`OutOfBoundsError` if the point ``(x, y)`` lies outside ``dims``."""
    if not (0 <= x <= dims.width and 0 <= y <= dims.height):
        raise OutOfBoundsError(f"point ({x}, {y}) exceeds image bounds {dims.width}x{dims.height}")


def normalize_point(x: float, y: float, dims: ImageDims) -> tuple[int, int]:
    """Map a point within ``dims`` onto the 0-1000 grid with the box rounding rule (no clamp, no check)."""
    return (_to_grid(x, dims.width), _to_grid(y, dims.height))


def denormalize_box(nbox: NormalizedBox, dims: ImageDims) -> PixelBox:
    """Inverse of :func:`normalize_box` up to half a grid unit per coordinate."""
    return PixelBox(
        x1=nbox.x1 / GRID_MAX * dims.width,
        y1=nbox.y1 / GRID_MAX * dims.height,
        x2=nbox.x2 / GRID_MAX * dims.width,
        y2=nbox.y2 / GRID_MAX * dims.height,
    )


def multiview_layout(views: Mapping[str, ImageDims]) -> MultiViewLayout:
    """Lay six camera views out on the fixed 2688x896 canvas.

    Views are placed three per row; each view is resized to 896x448 by the
    downstream rasterizer.  When the cameras are exactly the canonical six,
    the canonical order applies; otherwise insertion order is kept.
    """
    view_order = MULTIVIEW_ORDER if set(views) == set(MULTIVIEW_ORDER) else tuple(views)
    return MultiViewLayout(view_order=view_order, canvas=MULTIVIEW_CANVAS)
