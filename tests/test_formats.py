import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlprep.errors import (
    MARKER,
    InvalidRecordError,
    OutOfBoundsError,
    ShapeError,
    TokenParseError,
)
from vlprep.formats import (
    CTAG_SYSTEM_PROMPT,
    CTag,
    ClassificationRecord,
    ConversationSample,
    DEFAULT_FREE_TEMPLATE,
    FRAME_PLACEHOLDER,
    GroundingRecord,
    IMAGE_PLACEHOLDER,
    MAX_VIDEO_FRAMES,
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
    format_box,
    parse_special_tokens,
)
from vlprep.geometry import GRID_MAX, MULTIVIEW_ORDER, ImageDims, NormalizedBox, PixelBox
from vlprep.kernels import render_overlay

ORACLE_BOX_BODY = re.compile(r"\[\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]\]")


def oracle_parse(text: str) -> list[SpecialToken]:
    """The token parser as first written: every marker listed, then walked two at a time by index."""
    def error(message, index):
        return TokenParseError(f"{message} (byte offset {len(text[:index].encode('utf-8'))})")

    tokens = []
    markers = list(MARKER.finditer(text))
    i = 0
    while i < len(markers):
        opener = markers[i]
        name = opener.group(0)
        if name.startswith("</"):
            raise error(f"unmatched closing tag {name}", opener.start())
        kind = name[1:-1]
        if i + 1 == len(markers):
            raise error(f"unclosed tag {name}", opener.start())
        closer = markers[i + 1]
        if closer.group(0) != f"</{kind}>":
            raise error(f"expected </{kind}> to close {name}, found {closer.group(0)}", closer.start())
        body = text[opener.end() : closer.start()]
        if kind == "ref":
            tokens.append(SpecialToken(kind="ref", value=body))
        else:
            match = ORACLE_BOX_BODY.fullmatch(body)
            if not match:
                raise error(f"malformed box body {body!r}", opener.end())
            nbox = NormalizedBox(*(int(g) for g in match.groups()))
            for name, value in zip(nbox._fields, nbox):
                if not 0 <= value <= GRID_MAX:
                    raise error(f"normalized coordinate {name}={value} outside [0, {GRID_MAX}]", opener.end())
            if nbox.x1 > nbox.x2 or nbox.y1 > nbox.y2:
                raise error(f"normalized box corners out of order: {tuple(nbox)}", opener.end())
            tokens.append(SpecialToken(kind="box", value=nbox))
        i += 2
    return tokens


def parse_outcome(parse, text):
    """``parse(text)``'s tokens, or the message of the :class:`TokenParseError` it raised."""
    try:
        return parse(text)
    except TokenParseError as exc:
        return f"TokenParseError: {exc}"


# Marker pieces whole and in part, box bodies right and wrong, and text that is not ASCII.
TOKEN_PIECES = st.one_of(
    st.sampled_from(["<ref>", "</ref>", "<box>", "</box>", "ref>", "box>", "<", "</", ">", "[[", "]]", ","]),
    st.builds(
        lambda numbers, space: "[[" + f",{space}".join(map(str, numbers)) + "]]",
        st.lists(st.integers(-5, 1005), min_size=3, max_size=5),
        st.sampled_from(["", " ", "  ", "\t"]),
    ),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=4),
    st.sampled_from(["é", "ñ", "漢字", "🚗", "٣"]),
)


def make_views(cams=MULTIVIEW_ORDER, w=1600, h=900):
    return {cam: f"img/{cam}.jpg" for cam in cams}, {cam: ImageDims(w, h) for cam in cams}


class TestClassification:
    def test_free_template_verbatim(self):
        rec = ClassificationRecord(
            image="rs/001.png",
            candidates=("dense residential area", "meadow", "school"),
            truth="school",
        )
        sample = convert_classification(rec, DEFAULT_FREE_TEMPLATE, sample_id="c1")
        user = sample.turns[0][1]
        assert user == (
            "<image>\nClassify the image within one of the given classes: "
            "dense residential area, meadow, school. Answer with one word or short phrase."
        )
        assert sample.turns[1] == ("assistant", "school")
        sample.validate()

    def test_mcq_template(self):
        rec = ClassificationRecord(
            image="drive/001.png",
            candidates=("The ego vehicle is going straight.", "The ego vehicle is turning left."),
            truth="The ego vehicle is turning left.",
        )
        template = PromptTemplate(style="mcq", prefix="Predict the behavior of the ego vehicle. ")
        sample = convert_classification(rec, template, sample_id="m1")
        user = sample.turns[0][1]
        assert user.startswith(
            "<image>\nPredict the behavior of the ego vehicle. "
            "Please select the correct answer from the following options: A. "
        )
        assert sample.turns[1][1] == "B. The ego vehicle is turning left."

    def test_mcq_answer_among_rendered_options(self):
        rec = ClassificationRecord(
            image="x.png", candidates=tuple(f"label {i}" for i in range(5)), truth="label 3"
        )
        for shuffle in (False, True):
            template = PromptTemplate(style="mcq", shuffle_options=shuffle, seed=9)
            sample = convert_classification(rec, template, sample_id="s1")
            user = sample.turns[0][1]
            answer = sample.turns[1][1]
            assert answer in user
            letter, text = answer.split(". ", 1)
            assert letter in string.ascii_uppercase and text == "label 3"

    def test_shuffle_is_seed_deterministic(self):
        rec = ClassificationRecord(
            image="x.png", candidates=tuple(f"l{i}" for i in range(10)), truth="l0"
        )
        template = PromptTemplate(style="mcq", shuffle_options=True, seed=4)
        a = convert_classification(rec, template, sample_id="s")
        b = convert_classification(rec, template, sample_id="s")
        assert a == b
        c = convert_classification(rec, template, sample_id="other")
        assert c.turns != a.turns  # different sample id, different order

    def test_single_candidate_forced_choice(self):
        rec = ClassificationRecord(image="x.png", candidates=("meadow",), truth="meadow")
        sample = convert_classification(rec, DEFAULT_FREE_TEMPLATE, sample_id="f1")
        assert sample.turns[1][1] == "meadow"

    def test_truth_not_in_candidates(self):
        with pytest.raises(InvalidRecordError):
            ClassificationRecord(image="x.png", candidates=("a", "b"), truth="c")

    def test_duplicate_candidates(self):
        with pytest.raises(InvalidRecordError):
            ClassificationRecord(image="x.png", candidates=("a", "a"), truth="a")

    def test_mcq_over_26_options(self):
        rec = ClassificationRecord(
            image="x.png", candidates=tuple(f"l{i}" for i in range(27)), truth="l0"
        )
        with pytest.raises(InvalidRecordError):
            convert_classification(rec, PromptTemplate(style="mcq"), sample_id="s")


class TestGrounding:
    def test_template_and_box(self):
        rec = GroundingRecord(
            image="rs/7.png",
            expression="1 overpass near some trees at the center",
            box=PixelBox(500, 250, 1500, 750),
            dims=ImageDims(2000, 1000),
        )
        sample = convert_grounding(rec, sample_id="g1")
        assert sample.turns[0][1] == (
            "<image>\nDetect <ref>1 overpass near some trees at the center</ref>"
        )
        assert sample.turns[1][1] == (
            "<ref>1 overpass near some trees at the center</ref>"
            "<box>[[250, 250, 750, 750]]</box>"
        )
        sample.validate()

    def test_full_image_box(self):
        rec = GroundingRecord(
            image="a.png", expression="scene", box=PixelBox(0, 0, 640, 480), dims=ImageDims(640, 480)
        )
        sample = convert_grounding(rec, sample_id="g2")
        assert "<box>[[0, 0, 1000, 1000]]</box>" in sample.turns[1][1]

    # A record that exists is valid: its box and text are checked when it is built.
    def test_out_of_bounds_propagates(self):
        with pytest.raises(OutOfBoundsError):
            GroundingRecord(image="a.png", expression="x", box=PixelBox(0, 0, 700, 100), dims=ImageDims(640, 480))

    def test_expression_with_markup_rejected(self):
        with pytest.raises(InvalidRecordError, match="reserved token '</ref>'"):
            GroundingRecord(
                image="a.png", expression="sneaky </ref>", box=PixelBox(0, 0, 1, 1), dims=ImageDims(10, 10)
            )


class TestRegion:
    def make(self, mode="inline-box", answer_is_object=False):
        return RegionRecord(
            image="v/1.png",
            dims=ImageDims(1000, 1000),
            region=PixelBox(100, 200, 300, 400),
            question="What object is in this location?",
            answer="a red truck",
            mode=mode,
            answer_is_object=answer_is_object,
        )

    def test_inline_object_identification(self):
        sample, overlay = convert_region(self.make(answer_is_object=True), sample_id="r1")
        assert overlay is None
        assert sample.turns[0][1] == (
            "<image>\nWhat object is in this location?<box>[[100, 200, 300, 400]]</box>"
        )
        assert sample.turns[1][1] == "<ref>a red truck</ref><box>[[100, 200, 300, 400]]</box>"

    def test_inline_freeform_answer_verbatim(self):
        sample, _ = convert_region(self.make(), sample_id="r2")
        assert sample.turns[1][1] == "a red truck"

    def test_full_image_region(self):
        rec = RegionRecord(
            image="v/1.png",
            dims=ImageDims(640, 480),
            region=PixelBox(0, 0, 640, 480),
            question="Describe this region",
            answer="everything",
        )
        sample, _ = convert_region(rec, sample_id="r3")
        assert "<box>[[0, 0, 1000, 1000]]</box>" in sample.turns[0][1]

    def test_drawn_mode_no_tokens_and_overlay(self):
        sample, overlay = convert_region(self.make(mode="drawn-annotation"), sample_id="r4")
        text = "\n".join(t for _, t in sample.turns)
        assert "<box>" not in text and "<ref>" not in text
        assert overlay is not None
        assert overlay.box.as_tuple() == (100, 200, 300, 400)
        assert overlay.stroke_width == 4

    def test_palette_cycles_by_object_index(self):
        a = convert_region(self.make(mode="drawn-annotation"), sample_id="r5", object_index=0)[1]
        b = convert_region(self.make(mode="drawn-annotation"), sample_id="r6", object_index=1)[1]
        assert a.color != b.color

    def test_out_of_bounds_region(self):
        # Checked when the record is built, in either mode.
        with pytest.raises(OutOfBoundsError):
            RegionRecord(
                image="v/1.png",
                dims=ImageDims(100, 100),
                region=PixelBox(0, 0, 150, 50),
                question="q",
                answer="a",
                mode="drawn-annotation",
            )

    def test_unknown_mode(self):
        with pytest.raises(InvalidRecordError):
            RegionRecord(
                image="x", dims=ImageDims(10, 10), region=PixelBox(0, 0, 1, 1),
                question="q", answer="a", mode="sketch",
            )


class TestRenderOverlay:
    def test_zero_width_identity(self):
        img = np.arange(10 * 10 * 3, dtype=np.uint8).reshape(10, 10, 3)
        spec = OverlaySpec(box=PixelBox(2, 2, 7, 7), color=(255, 0, 0), stroke_width=0)
        out = render_overlay(img, spec)
        assert np.array_equal(out, img)
        assert out is not img

    def test_exact_twenty_border_pixels(self):
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        spec = OverlaySpec(box=PixelBox(2, 2, 7, 7), color=(255, 0, 0), stroke_width=1)
        out = render_overlay(img, spec)
        changed = np.argwhere((out != img).any(axis=2))
        assert len(changed) == 20
        for y, x in changed:
            assert 2 <= x <= 7 and 2 <= y <= 7
            assert x in (2, 7) or y in (2, 7)

    def test_full_image_frame(self):
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        spec = OverlaySpec(box=PixelBox(0, 0, 10, 10), color=(0, 255, 0), stroke_width=1)
        out = render_overlay(img, spec)
        changed = np.argwhere((out != img).any(axis=2))
        assert len(changed) == 36

    def test_pixels_outside_band_untouched(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 255, size=(32, 48, 3), dtype=np.uint8)
        spec = OverlaySpec(box=PixelBox(5, 6, 30, 20), color=(1, 2, 3), stroke_width=3)
        out = render_overlay(img, spec)
        diff = (out != img).any(axis=2)
        ys, xs = np.nonzero(diff)
        assert ys.min() >= 6 and ys.max() <= 20 and xs.min() >= 5 and xs.max() <= 30
        inner = diff[6 + 3 : 20 - 2, 5 + 3 : 30 - 2]
        assert not inner.any()

    def test_wide_stroke_clamped_inside_box(self):
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        spec = OverlaySpec(box=PixelBox(4, 4, 5, 5), color=(9, 9, 9), stroke_width=50)
        out = render_overlay(img, spec)
        changed = np.argwhere((out != img).any(axis=2))
        assert sorted(map(tuple, changed)) == [(4, 4), (4, 5), (5, 4), (5, 5)]

    def test_out_of_bounds_box(self):
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        with pytest.raises(OutOfBoundsError):
            render_overlay(img, OverlaySpec(box=PixelBox(0, 0, 11, 5), color=(1, 1, 1)))

    def test_requires_three_channels(self):
        with pytest.raises(ShapeError):
            render_overlay(np.zeros((5, 5), dtype=np.uint8), OverlaySpec(PixelBox(0, 0, 1, 1), (1, 1, 1)))


class TestMultiView:
    def test_prompt_and_layout(self):
        views, dims = make_views()
        rec = MultiViewRecord(
            views=views,
            view_dims=dims,
            qa=(("What is <c1> doing?", "<c1> is waiting."),),
            objects=(CTag(id="c1", camera="CAM_FRONT", cx=800, cy=450),),
        )
        sample = convert_multiview(rec, sample_id="mv1")
        user = sample.turns[0][1]
        assert "where c is the identifier, CAM indicates the camera" in user
        assert CTAG_SYSTEM_PROMPT in user
        assert user.startswith("CAM_FRONT_LEFT: <image>\nCAM_FRONT: <image>\n")
        assert len(sample.images) == 6
        assert sample.images == tuple(views[cam] for cam in MULTIVIEW_ORDER)
        # center of a 1600x900 view -> (500, 500)
        assert "<c1,CAM_FRONT,[500,500]>" in user
        sample.validate()

    def test_answer_objects_carry_boxes(self):
        views, dims = make_views()
        rec = MultiViewRecord(
            views=views,
            view_dims=dims,
            qa=(("Where is <c2>?", "<c2> is ahead."),),
            objects=(
                CTag(id="c2", camera="CAM_FRONT", cx=400, cy=450, box=PixelBox(320, 360, 480, 540)),
            ),
        )
        sample = convert_multiview(rec, sample_id="mv2")
        question = sample.turns[0][1]
        answer = sample.turns[1][1]
        assert "<c2,CAM_FRONT,[250,500]>" in question
        assert "<box>" not in question
        assert "<c2,CAM_FRONT,[250,500]><box>[[200, 400, 300, 600]]</box>" in answer

    def test_each_object_renders_the_same_at_every_reference(self):
        # c1 is named three times, c2 (boxed) never, c3 (boxless) in an answer.
        views, dims = make_views()
        objects = (
            CTag(id="c1", camera="CAM_FRONT", cx=400, cy=450, box=PixelBox(320, 360, 480, 540)),
            CTag(id="c2", camera="CAM_BACK", cx=801, cy=3, box=PixelBox(700, 0, 900, 10)),
            CTag(id="c3", camera="CAM_FRONT_LEFT", cx=1200.5, cy=899),
        )
        rec = MultiViewRecord(
            views=views,
            view_dims=dims,
            qa=(("Is <c1> ahead of <c3>?", "Yes, <c1> is ahead of <c3>."), ("And now?", "<c1> has stopped.")),
            objects=objects,
        )
        sample = convert_multiview(rec, sample_id="mv5")
        assert sample.turns[0][1].endswith("\nIs <c1,CAM_FRONT,[250,500]> ahead of <c3,CAM_FRONT_LEFT,[750,999]>?")
        assert [text for _, text in sample.turns[1:]] == [
            "Yes, <c1,CAM_FRONT,[250,500]><box>[[200, 400, 300, 600]]</box> is ahead of <c3,CAM_FRONT_LEFT,[750,999]>.",
            "And now?",
            "<c1,CAM_FRONT,[250,500]><box>[[200, 400, 300, 600]]</box> has stopped.",
        ]
        rec = MultiViewRecord(views=views, view_dims=dims, qa=(("Is <c1> near <c9>?", "no"),), objects=objects)
        with pytest.raises(InvalidRecordError, match="^text references unknown object <c9>$"):
            convert_multiview(rec, sample_id="mv6")

    def test_unknown_placeholder(self):
        views, dims = make_views()
        rec = MultiViewRecord(views=views, view_dims=dims, qa=(("What is <c9>?", "x"),))
        with pytest.raises(InvalidRecordError):
            convert_multiview(rec, sample_id="mv3")

    def test_unknown_camera_in_ctag(self):
        views, dims = make_views()
        with pytest.raises(InvalidRecordError):
            MultiViewRecord(
                views=views,
                view_dims=dims,
                qa=(("q", "a"),),
                objects=(CTag(id="c1", camera="CAM_REAR", cx=1, cy=1),),
            )

    @pytest.mark.parametrize(
        "tag",
        [
            CTag(id="c1", camera="CAM_FRONT", cx=1601, cy=1),
            CTag(id="c1", camera="CAM_FRONT", cx=1, cy=-1),
            CTag(id="c1", camera="CAM_FRONT", cx=1, cy=1, box=PixelBox(0, 0, 10, 901)),
        ],
        ids=["center_right_of_view", "center_above_view", "box_below_view"],
    )
    def test_objects_must_lie_in_their_view(self, tag):
        # Checked at construction, whether or not any text names the object.
        views, dims = make_views()
        with pytest.raises(OutOfBoundsError):
            MultiViewRecord(views=views, view_dims=dims, qa=(("q", "a"),), objects=(tag,))

    def test_five_views_rejected(self):
        views, dims = make_views(MULTIVIEW_ORDER[:5])
        with pytest.raises(InvalidRecordError):
            MultiViewRecord(views=views, view_dims=dims, qa=(("q", "a"),))

    def test_bad_ctag_id(self):
        with pytest.raises(InvalidRecordError):
            CTag(id="obj1", camera="CAM_FRONT", cx=1, cy=1)

    def test_multi_turn_header_only_once(self):
        views, dims = make_views()
        rec = MultiViewRecord(
            views=views, view_dims=dims, qa=(("first?", "one."), ("second?", "two.")),
        )
        sample = convert_multiview(rec, sample_id="mv4")
        assert len(sample.turns) == 4
        assert sample.turns[2][1] == "second?"
        assert sample.meta["canvas_width"] == "2688"
        sample.validate()


class TestVideo:
    def test_two_frame_template(self):
        rec = VideoRecord(frames=("f/0.png", "f/1.png"), qa=(("What happens?", "A turn."),))
        sample = convert_video(rec, sample_id="v1")
        assert sample.turns[0][1].startswith(
            "Frame1: <img><IMG_CONTEXT></img> Frame2: <img><IMG_CONTEXT></img>\n"
        )
        assert len(sample.images) == 2
        sample.validate()

    def test_single_frame(self):
        rec = VideoRecord(frames=("f/0.png",), qa=(("q", "a"),))
        sample = convert_video(rec, sample_id="v2")
        assert sample.turns[0][1].startswith(f"Frame1: {FRAME_PLACEHOLDER}\n")

    def test_forty_frame_cap(self):
        VideoRecord(frames=tuple(f"f/{i}" for i in range(MAX_VIDEO_FRAMES)), qa=(("q", "a"),))
        with pytest.raises(InvalidRecordError):
            VideoRecord(frames=tuple(f"f/{i}" for i in range(41)), qa=(("q", "a"),))
        with pytest.raises(InvalidRecordError):
            VideoRecord(frames=(), qa=(("q", "a"),))

    def test_multi_turn(self):
        rec = VideoRecord(frames=("f/0.png",), qa=(("q1", "a1"), ("q2", "a2")))
        sample = convert_video(rec, sample_id="v3")
        assert sample.turns[2] == ("user", "q2")
        sample.validate()


class TestParseSpecialTokens:
    def test_grammar_example(self):
        tokens = parse_special_tokens("<ref>overpass</ref><box>[[10, 20, 30, 40]]</box>")
        assert [t.kind for t in tokens] == ["ref", "box"]
        assert tokens[0].value == "overpass"
        assert tokens[1].value == NormalizedBox(10, 20, 30, 40)

    def test_plain_text(self):
        assert parse_special_tokens("no markup here") == []

    def test_spaceless_box_tolerated(self):
        tokens = parse_special_tokens("<box>[[1,2,3,4]]</box>")
        assert tokens[0].value == NormalizedBox(1, 2, 3, 4)

    def test_out_of_range_coordinate(self):
        with pytest.raises(TokenParseError) as err:
            parse_special_tokens("<box>[[0,0,1001,5]]</box>")
        assert str(err.value) == "normalized coordinate x2=1001 outside [0, 1000] (byte offset 5)"

    def test_corner_order_enforced(self):
        with pytest.raises(TokenParseError) as err:
            parse_special_tokens("<box>[[30, 20, 10, 40]]</box>")
        assert str(err.value) == "normalized box corners out of order: (30, 20, 10, 40) (byte offset 5)"

    # The grammar is where a box from text enters, so its range and order are
    # checked there: each field against the grid in x1, y1, x2, y2 order, then
    # the corners; the offset is that of the box body, counted in UTF-8 bytes.
    BAD_BOXES = {
        "first_bad_field_in_field_order": (
            "<box>[[0, 0, 1001, 2000]]</box>",
            "normalized coordinate x2=1001 outside [0, 1000] (byte offset 5)",
        ),
        "y2_off_the_grid": (
            "<box>[[0, 0, 5, 1001]]</box>",
            "normalized coordinate y2=1001 outside [0, 1000] (byte offset 5)",
        ),
        "past_the_float_range": (
            f"<box>[[0, 0, {10**400}, 5]]</box>",
            f"normalized coordinate x2={10**400} outside [0, 1000] (byte offset 5)",
        ),
        "range_before_order": (
            "<box>[[30, 0, 10, 1001]]</box>",
            "normalized coordinate y2=1001 outside [0, 1000] (byte offset 5)",
        ),
        "rows_out_of_order": (
            "<box>[[0, 20, 10, 10]]</box>",
            "normalized box corners out of order: (0, 20, 10, 10) (byte offset 5)",
        ),
        "after_multibyte_text": (
            "é 🚗 <ref>車</ref><box>[[30, 20, 10, 40]]</box>",
            "normalized box corners out of order: (30, 20, 10, 40) (byte offset 27)",
        ),
        "fractional": ("<box>[[0.5, 0, 10, 10]]</box>", "malformed box body '[[0.5, 0, 10, 10]]' (byte offset 5)"),
        "negative": ("<box>[[-1, 0, 10, 10]]</box>", "malformed box body '[[-1, 0, 10, 10]]' (byte offset 5)"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_BOXES))
    def test_a_bad_box_is_refused_by_its_message(self, case):
        text, message = self.BAD_BOXES[case]
        with pytest.raises(TokenParseError) as err:
            parse_special_tokens(text)
        assert str(err.value) == message

    def test_negative_coordinate_is_malformed(self):
        with pytest.raises(TokenParseError):
            parse_special_tokens("<box>[[-1,0,5,5]]</box>")

    def test_unclosed_tag_offset(self):
        with pytest.raises(TokenParseError) as err:
            parse_special_tokens("abc<ref>xyz")
        assert "byte offset 3" in str(err.value)

    def test_stray_close_tag(self):
        with pytest.raises(TokenParseError) as err:
            parse_special_tokens("xy</box>")
        assert "byte offset 2" in str(err.value)

    def test_mismatched_pair(self):
        with pytest.raises(TokenParseError):
            parse_special_tokens("<ref>thing</box>")

    def test_byte_offset_counts_utf8_bytes(self):
        # Two-byte character before the marker shifts the byte offset by 2.
        with pytest.raises(TokenParseError) as err:
            parse_special_tokens("é</ref>")
        assert "byte offset 2" in str(err.value)

    def test_malformed_body(self):
        with pytest.raises(TokenParseError):
            parse_special_tokens("<box>[[1, 2, 3]]</box>")
        with pytest.raises(TokenParseError):
            parse_special_tokens("<box>(1,2,3,4)</box>")

    def test_document_order(self):
        tokens = parse_special_tokens(
            "a <box>[[0,0,1,1]]</box> b <ref>x</ref> c <box>[[2,2,3,3]]</box>"
        )
        assert [t.kind for t in tokens] == ["box", "ref", "box"]

    @given(
        expr=st.text(
            alphabet=st.characters(blacklist_characters="<>", blacklist_categories=("Cs",)),
            min_size=1,
            max_size=30,
        ),
        coords=st.tuples(
            st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000)
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_serialize_parse_round_trip(self, expr, coords):
        x1, x2 = sorted((coords[0], coords[2]))
        y1, y2 = sorted((coords[1], coords[3]))
        nbox = NormalizedBox(x1, y1, x2, y2)
        text = f"<ref>{expr}</ref>{format_box(nbox)}"
        tokens = parse_special_tokens(text)
        assert tokens[0].value == expr
        assert tokens[1].value == nbox

    @given(pieces=st.lists(TOKEN_PIECES, max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_the_one_pass_parser_agrees_with_the_indexed_oracle(self, pieces):
        # The parser returns at once when no marker can be present and walks the markers
        # in pairs from one iterator; the tokens, messages and byte offsets must not change.
        text = "".join(pieces)
        assert parse_outcome(parse_special_tokens, text) == parse_outcome(oracle_parse, text)


class TestConverterRoundTrip:
    def test_all_converter_outputs_parse(self):
        samples = []
        samples.append(
            convert_grounding(
                GroundingRecord("a.png", "a thing", PixelBox(1, 2, 3, 4), ImageDims(10, 10)),
                sample_id="x1",
            )
        )
        samples.append(
            convert_region(
                RegionRecord(
                    "b.png", ImageDims(50, 50), PixelBox(0, 0, 25, 25), "what?", "a cat",
                    answer_is_object=True,
                ),
                sample_id="x2",
            )[0]
        )
        views, dims = make_views()
        samples.append(
            convert_multiview(
                MultiViewRecord(
                    views=views,
                    view_dims=dims,
                    qa=(("see <c1>?", "<c1> yes"),),
                    objects=(CTag("c1", "CAM_BACK", 10, 20, box=PixelBox(0, 0, 100, 100)),),
                ),
                sample_id="x3",
            )
        )
        for sample in samples:
            sample.validate()
            for _, text in sample.turns:
                for token in parse_special_tokens(text):
                    if token.kind == "box":
                        assert isinstance(token.value, NormalizedBox)


class TestConversationInvariants:
    def test_minimum_two_turns(self):
        sample = ConversationSample(id="z", images=(), turns=(("user", "hi"),))
        with pytest.raises(InvalidRecordError):
            sample.validate()

    def test_placeholder_free_text_with_images_allowed(self):
        sample = ConversationSample(
            id="z2", images=("a.png",), turns=(("user", "hi"), ("assistant", "yo"))
        )
        sample.validate()

    def test_image_and_img_counted_together(self):
        sample = ConversationSample(
            id="z3",
            images=("a.png", "b.png"),
            turns=(("user", f"{IMAGE_PLACEHOLDER} and Frame1: {FRAME_PLACEHOLDER}"), ("assistant", "k")),
        )
        sample.validate()


class TestRecordTypes:
    # The records are immutable named tuples, checked as they are built: a
    # bad case is refused whether its fields come by position or by keyword.
    VIEWS, VIEW_DIMS = make_views()
    BAD = {
        "classification_without_candidates": (ClassificationRecord, {"image": "x.png", "candidates": (), "truth": "a"}),
        "grounding_empty_expression": (
            GroundingRecord, {"image": "a.png", "expression": "", "box": PixelBox(0, 0, 1, 1), "dims": ImageDims(10, 10)}
        ),
        "region_empty_question": (
            RegionRecord,
            {"image": "a.png", "dims": ImageDims(10, 10), "region": PixelBox(0, 0, 1, 1), "question": "",
             "answer": "a", "mode": "inline-box", "answer_is_object": False},
        ),
        "ctag_id_without_digits": (CTag, {"id": "c", "camera": "CAM_FRONT", "cx": 1, "cy": 1, "box": None}),
        "multiview_duplicate_ctag_ids": (
            MultiViewRecord,
            {"views": VIEWS, "view_dims": VIEW_DIMS, "qa": (("q", "a"),),
             "objects": (CTag("c1", "CAM_FRONT", 1, 1), CTag("c1", "CAM_BACK", 2, 2))},
        ),
        "video_without_qa": (VideoRecord, {"frames": ("f/0.png",), "qa": ()}),
        "overlay_negative_stroke": (OverlaySpec, {"box": PixelBox(0, 0, 1, 1), "color": (1, 2, 3), "stroke_width": -1}),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_a_bad_record_is_refused_by_position_and_by_keyword(self, case):
        kind, fields = self.BAD[case]
        with pytest.raises(InvalidRecordError):
            kind(*fields.values())
        with pytest.raises(InvalidRecordError):
            kind(**fields)

    @pytest.mark.parametrize(
        "record",
        [
            ConversationSample("s", (), ()),
            ClassificationRecord("x.png", ("a",), "a"),
            CTag("c1", "CAM_FRONT", 1, 1),
            VideoRecord(("f/0.png",), (("q", "a"),)),
            PromptTemplate(),
            OverlaySpec(PixelBox(0, 0, 1, 1), (1, 2, 3)),
            parse_special_tokens("<ref>a</ref>")[0],
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_a_field_cannot_be_set(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])

    def test_the_default_meta_cannot_be_changed_through_another_sample(self):
        first, second = ConversationSample("a", (), ()), ConversationSample("b", (), ())
        for change in (
            lambda meta: meta.__setitem__("task", "vqa"),
            lambda meta: meta.update(task="vqa"),
            lambda meta: meta.setdefault("task", "vqa"),
        ):
            with pytest.raises(TypeError):
                change(first.meta)
        assert second.meta == {}
