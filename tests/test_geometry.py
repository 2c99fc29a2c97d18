import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlprep.errors import InvalidRecordError
from vlprep.geometry import (
    GRID_MAX,
    MULTIVIEW_ORDER,
    TILE_SIZE,
    ImageDims,
    NormalizedBox,
    PixelBox,
    TilePlan,
    _candidate_grids,
    denormalize_box,
    multiview_layout,
    normalize_box,
    normalize_point,
    plan_tiles,
    token_count,
)


def oracle_plan(width: int, height: int, min_tiles: int, max_tiles: int) -> tuple[int, int]:
    """Brute-force selection oracle, coded directly from the documented rule."""
    candidates = []
    for rows in range(1, max_tiles + 1):
        for cols in range(1, max_tiles + 1):
            if min_tiles <= cols * rows <= max_tiles:
                candidates.append((cols, rows))
    candidates.sort(key=lambda cr: (cr[0] * cr[1], cr[0]))
    aspect = width / height
    best = None
    best_diff = None
    for cols, rows in candidates:
        diff = abs(cols / rows - aspect)
        if best is None or diff < best_diff:
            best, best_diff = (cols, rows), diff
        elif diff == best_diff and width * height > 0.5 * TILE_SIZE * TILE_SIZE * cols * rows:
            best = (cols, rows)
    return best


class TestPlanTiles:
    def test_square_image_single_tile(self):
        plan = plan_tiles(ImageDims(448, 448))
        assert (plan.cols, plan.rows, plan.has_thumbnail) == (1, 1, False)
        assert plan.num_tiles == 1 and plan.total_tiles == 1

    def test_wide_composite_six_by_two(self):
        plan = plan_tiles(ImageDims(2688, 896))
        assert (plan.cols, plan.rows) == (6, 2)
        assert plan.has_thumbnail
        assert plan.total_tiles == 13

    def test_two_to_one_with_cap_twelve(self):
        plan = plan_tiles(ImageDims(896, 448), max_tiles=12)
        assert (plan.cols, plan.rows) == (2, 1)
        assert plan.has_thumbnail

    def test_thumbnail_disabled(self):
        plan = plan_tiles(ImageDims(2688, 896), use_thumbnail=False)
        assert not plan.has_thumbnail
        assert plan.total_tiles == 12

    def test_small_image_not_uptiled(self):
        # Area below half a 2-tile canvas: the tie-break keeps the small grid.
        plan = plan_tiles(ImageDims(100, 50))
        assert plan.num_tiles <= 2

    def test_min_tiles_floor(self):
        plan = plan_tiles(ImageDims(448, 448), min_tiles=4)
        assert plan.num_tiles >= 4

    def test_matches_bruteforce_oracle_randomized(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            width = rng.randint(1, 6000)
            height = rng.randint(1, 6000)
            max_tiles = rng.choice([6, 12, 40])
            plan = plan_tiles(ImageDims(width, height), max_tiles=max_tiles)
            assert plan.num_tiles <= max_tiles
            assert (plan.cols, plan.rows) == oracle_plan(width, height, 1, max_tiles)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_square_tie_threshold_matches_oracle(self, k):
        # Every k x k grid ties on aspect for a square image; the larger one
        # wins only above half its canvas area, 0.5 * 448^2 * k^2.  That area
        # is never a perfect square, so isqrt gives the side just below it.
        below = math.isqrt(TILE_SIZE * TILE_SIZE * k * k // 2)
        for side, expected in ((below, k - 1), (below + 1, k)):
            for max_tiles in (k * k, 40):
                plan = plan_tiles(ImageDims(side, side), max_tiles=max_tiles)
                assert (plan.cols, plan.rows) == oracle_plan(side, side, 1, max_tiles)
                assert (plan.cols, plan.rows) == (expected, expected)

    @pytest.mark.parametrize("ratio", [(2, 1), (1, 3)])
    @pytest.mark.parametrize("min_tiles", [1, 2, 4, 9])
    def test_candidate_aspect_ties_match_oracle(self, ratio, min_tiles):
        # A (a*k, b*k) grid's half canvas is passed when unit > 448 * k / sqrt(2).
        edges = [math.isqrt(TILE_SIZE * TILE_SIZE * k * k // 2) for k in range(1, 5)]
        for unit in (1, 7, *edges, *(edge + 1 for edge in edges), 3000):
            width, height = ratio[0] * unit, ratio[1] * unit
            for max_tiles in (12, 40):
                plan = plan_tiles(ImageDims(width, height), min_tiles=min_tiles, max_tiles=max_tiles)
                assert (plan.cols, plan.rows) == oracle_plan(width, height, min_tiles, max_tiles)

    def test_candidate_table_is_built_once_and_immutable(self):
        table = _candidate_grids(1, 40)
        assert isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)
        assert _candidate_grids(1, 40) is table
        assert [(cols, rows) for cols, rows, _, _ in table] == [
            (cols, rows)
            for cols, rows in sorted(
                ((c, r) for c in range(1, 41) for r in range(1, 41) if c * r <= 40),
                key=lambda cr: (cr[0] * cr[1], cr[0]),
            )
        ]

    def test_canvas_dims(self):
        plan = plan_tiles(ImageDims(2688, 896))
        assert (plan.canvas.width, plan.canvas.height) == (6 * 448, 2 * 448)


class TestTokenCount:
    def test_single_tile(self):
        assert token_count(plan_tiles(ImageDims(448, 448))) == 256

    def test_twelve_plus_thumbnail(self):
        assert token_count(plan_tiles(ImageDims(2688, 896))) == 3328

    def test_forty_tiles_no_thumbnail(self):
        plan = TilePlan(cols=8, rows=5, has_thumbnail=False)
        assert token_count(plan) == 10240

    def test_linear_in_tiles(self):
        one = token_count(TilePlan(1, 1, False))
        two = token_count(TilePlan(2, 1, False))
        assert two == 2 * one

    def test_custom_tokens_per_tile(self):
        assert token_count(TilePlan(1, 1, False), tokens_per_tile=64) == 64


class TestTilePlanType:
    def test_rejects_thumbnail_on_single_tile(self):
        with pytest.raises(InvalidRecordError):
            TilePlan(cols=1, rows=1, has_thumbnail=True)

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(InvalidRecordError):
            TilePlan(cols=0, rows=2, has_thumbnail=False)


class TestNormalize:
    def test_full_image_box(self):
        nbox = normalize_box(PixelBox(0, 0, 640, 480), ImageDims(640, 480))
        assert nbox.as_tuple() == (0, 0, 1000, 1000)

    def test_arithmetic_example(self):
        nbox = normalize_box(PixelBox(500, 250, 1500, 750), ImageDims(2000, 1000))
        assert nbox.as_tuple() == (250, 250, 750, 750)

    def test_degenerate_point_box_counted(self):
        counters = {}
        nbox = normalize_box(PixelBox(0, 0, 0, 0), ImageDims(448, 448), counters=counters)
        assert nbox.as_tuple() == (0, 0, 0, 0)
        assert counters["degenerate_boxes"] == 1

    def test_rounds_half_away_from_zero(self):
        # 1/2000 of the extent scales to exactly 0.5 grid units.
        nbox = normalize_box(PixelBox(1, 0, 2000, 1000), ImageDims(2000, 1000))
        assert nbox.x1 == 1

    def test_point_midpoint(self):
        assert normalize_point(800, 450, ImageDims(1600, 900)) == (500, 500)

    def test_denormalize_examples(self):
        box = denormalize_box(NormalizedBox(0, 0, 1000, 1000), ImageDims(448, 448))
        assert box.as_tuple() == (0, 0, 448, 448)
        box = denormalize_box(NormalizedBox(250, 250, 750, 750), ImageDims(2000, 1000))
        assert box.as_tuple() == (500, 250, 1500, 750)

    @given(
        width=st.integers(1, 8000),
        height=st.integers(1, 8000),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_error_bound(self, width, height, data):
        x1 = data.draw(st.integers(0, width))
        x2 = data.draw(st.integers(x1, width))
        y1 = data.draw(st.integers(0, height))
        y2 = data.draw(st.integers(y1, height))
        dims = ImageDims(width, height)
        nbox = normalize_box(PixelBox(x1, y1, x2, y2), dims)
        assert nbox.x1 <= nbox.x2 and nbox.y1 <= nbox.y2
        back = denormalize_box(nbox, dims)
        slack = 1e-9  # float rounding headroom on the exact half-unit bound
        for orig, rec, extent in [
            (x1, back.x1, width),
            (x2, back.x2, width),
            (y1, back.y1, height),
            (y2, back.y2, height),
        ]:
            assert abs(orig - rec) <= extent / 2000 * (1 + slack) + 1e-12


class TestBoxTypes:
    def test_normalized_box_bounds(self):
        with pytest.raises(InvalidRecordError):
            NormalizedBox(0, 0, 1001, 5)
        with pytest.raises(InvalidRecordError):
            NormalizedBox(-1, 0, 10, 10)
        with pytest.raises(InvalidRecordError):
            NormalizedBox(10, 0, 5, 10)

    def test_normalized_box_requires_ints(self):
        with pytest.raises(InvalidRecordError):
            NormalizedBox(0.5, 0, 10, 10)

    def test_pixel_box_ordering(self):
        with pytest.raises(InvalidRecordError):
            PixelBox(10, 0, 5, 10)
        with pytest.raises(InvalidRecordError):
            PixelBox(-1, 0, 5, 10)
        assert PixelBox(1, 2, 1, 5).is_degenerate

    def test_image_dims_positive(self):
        with pytest.raises(InvalidRecordError):
            ImageDims(0, 10)


class TestMultiViewLayout:
    def test_canonical_order_and_canvas(self):
        views = {name: ImageDims(1600, 900) for name in reversed(MULTIVIEW_ORDER)}
        layout = multiview_layout(views)
        assert layout.view_order == MULTIVIEW_ORDER
        assert (layout.canvas.width, layout.canvas.height) == (2688, 896)

    def test_canvas_tiles_to_six_by_two(self):
        layout = multiview_layout({name: ImageDims(1600, 900) for name in MULTIVIEW_ORDER})
        plan = plan_tiles(layout.canvas)
        assert (plan.cols, plan.rows, plan.total_tiles) == (6, 2, 13)
        assert token_count(plan) == 3328

    def test_nonstandard_names_keep_input_order(self):
        names = [f"view{i}" for i in range(6)]
        layout = multiview_layout({n: ImageDims(640, 480) for n in names})
        assert layout.view_order == tuple(names)


def test_plan_is_deterministic_value_type():
    a = plan_tiles(ImageDims(1024, 768))
    b = plan_tiles(ImageDims(1024, 768))
    assert a == b


def test_round_half_away_midpoints():
    # Midpoint grid values must round away from zero, not to even.
    dims = ImageDims(2000, 2000)
    nbox = normalize_box(PixelBox(1, 3, 5, 7), dims)
    assert nbox.as_tuple() == (1, 2, 3, 4)
