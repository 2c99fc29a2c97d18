import io
import json
from pathlib import Path

import pytest

from vlprep.errors import InvalidRecordError, PipelineError, RecordIOError
from vlprep.schema import (
    Envelope,
    dumps_envelope,
    dumps_object,
    iter_envelopes,
    loads_envelope,
    loads_object,
    numbered_lines,
    payload_to_record,
    payload_to_sample,
    read_envelopes,
    sample_to_payload,
    validate_envelope,
)
from vlprep.formats import ConversationSample, GroundingRecord


def conversation_env(id="s1", turns=None, images=None):
    return Envelope(
        id=id,
        task="vqa",
        payload={
            "images": images if images is not None else ["a.png"],
            "turns": turns if turns is not None else [["user", "<image>\nhi"], ["assistant", "yo"]],
        },
    )


class TestWireFormat:
    def test_canonical_key_order(self):
        line = dumps_envelope(conversation_env())
        assert list(json.loads(line)) == ["id", "schema_version", "task", "meta", "payload"]

    def test_round_trip(self):
        env = conversation_env()
        assert loads_envelope(dumps_envelope(env)) == env

    def test_byte_deterministic(self):
        env = conversation_env()
        assert dumps_envelope(env) == dumps_envelope(loads_envelope(dumps_envelope(env)))

    def test_non_ascii_not_escaped(self):
        env = Envelope(
            id="u1",
            task="vqa",
            payload={"images": [], "turns": [["user", "café?"], ["assistant", "café"]]},
        )
        assert "café" in dumps_envelope(env)

    def test_unknown_schema_version(self):
        line = dumps_envelope(conversation_env()).replace('"schema_version": "1"', '"schema_version": "9"')
        with pytest.raises(InvalidRecordError):
            loads_envelope(line)

    def test_missing_and_extra_keys(self):
        obj = json.loads(dumps_envelope(conversation_env()))
        del obj["meta"]
        with pytest.raises(InvalidRecordError):
            loads_envelope(json.dumps(obj))
        obj = json.loads(dumps_envelope(conversation_env()))
        obj["extra"] = 1
        with pytest.raises(InvalidRecordError):
            loads_envelope(json.dumps(obj))

    def test_not_json(self):
        with pytest.raises(InvalidRecordError):
            loads_envelope("{nope")

    def test_unknown_task(self):
        with pytest.raises(InvalidRecordError):
            Envelope(id="x", task="segmentation", payload={})

    def test_meta_must_be_string_map(self):
        with pytest.raises(InvalidRecordError):
            Envelope(id="x", task="vqa", payload={}, meta={"n": 3})


class TestIO:
    def test_write_read_file(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        envs = [conversation_env(id=f"s{i}") for i in range(3)]
        path.write_text("".join(dumps_envelope(env) + "\n" for env in envs), encoding="utf-8")
        assert read_envelopes(path) == envs

    def test_blank_lines_skipped(self):
        buf = io.BytesIO((dumps_envelope(conversation_env()) + "\n\n   \n").encode("utf-8"))
        assert len(read_envelopes(buf)) == 1

    def test_line_number_in_error(self):
        buf = io.BytesIO((dumps_envelope(conversation_env()) + "\n{bad\n").encode("utf-8"))
        with pytest.raises(InvalidRecordError) as err:
            read_envelopes(buf)
        assert "line 2" in str(err.value)

    def test_missing_file_is_io_error(self):
        with pytest.raises(RecordIOError):
            read_envelopes("/nonexistent/path.jsonl")

    def test_iter_envelopes_decodes_one_line_at_a_time(self):
        text = "\n".join([
            dumps_envelope(conversation_env(id="a")),
            "   ",
            dumps_envelope(conversation_env(id="b")),
            "{bad",
        ]) + "\n"
        stream = iter_envelopes(io.BytesIO(text.encode("utf-8")))
        assert [(n, env.id) for n, env in (next(stream), next(stream))] == [(1, "a"), (3, "b")]
        with pytest.raises(InvalidRecordError, match="^line 4: not valid JSON"):
            next(stream)


    def test_numbered_lines_gives_byte_offsets(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_bytes("é1\r\n\n  \r\nñ2\nx3".encode("utf-8"))
        assert list(numbered_lines(path)) == [
            (1, 0, 0, "é1\r\n".encode()), (4, 1, 10, "ñ2\n".encode()), (5, 2, 14, b"x3")
        ]
        # A handle with a binary buffer, like sys.stdin, is read as bytes too.
        handle = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
        assert list(numbered_lines(handle)) == list(numbered_lines(path))

    def test_numbered_lines_of_a_range_are_numbered_and_indexed_as_in_the_whole_file(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        data = b"a\n\n  \nb\r\nc\n\nd\ne"
        path.write_bytes(data)
        whole = list(numbered_lines(path))
        assert [(number, index) for number, index, _, _ in whole] == [(1, 0), (4, 1), (5, 2), (7, 3), (8, 4)]
        # Each range yields the lines that begin in it, whatever byte it starts or ends on.
        for start in range(len(data) + 1):
            for end in range(start, len(data) + 1):
                expected = [line for line in whole if start <= line[2] < end]
                assert list(numbered_lines(path, start, end)) == expected, (start, end)
        assert list(numbered_lines(path, 4)) == whole[1:]

    def test_line_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(dumps_envelope(conversation_env()).encode("utf-8") + b"\ngarbage\xff\n")
        envelopes = iter_envelopes(path)
        assert next(envelopes)[0] == 1
        with pytest.raises(InvalidRecordError, match="^line 2: not valid UTF-8$"):
            next(envelopes)

    def test_crlf_lines_decode_like_lf_lines(self):
        envs = [conversation_env(id=f"s{i}") for i in range(3)]
        text = "".join(dumps_envelope(env) + "\r\n" for env in envs)
        assert read_envelopes(io.BytesIO(text.encode("utf-8"))) == envs


class TestPayloadCodecs:
    def test_grounding_record(self):
        payload = {
            "image": "a.png",
            "expression": "a bridge",
            "box": [1, 2, 3, 4],
            "width": 100,
            "height": 100,
        }
        rec = payload_to_record("grounding", payload)
        assert isinstance(rec, GroundingRecord)
        assert rec.box.as_tuple() == (1.0, 2.0, 3.0, 4.0)

    def test_sample_round_trip(self):
        sample = ConversationSample(
            id="s9",
            images=("a.png",),
            turns=(("user", "<image>\nq"), ("assistant", "a")),
            meta={"k": "v"},
        )
        env = Envelope(id="s9", task="vqa", payload=sample_to_payload(sample), meta={"k": "v"})
        assert payload_to_sample(env) == sample

    def test_conversion_task_without_record_form(self):
        with pytest.raises(InvalidRecordError):
            payload_to_record("vqa", {})


class TestValidateEnvelope:
    def test_valid_conversation(self):
        validate_envelope(conversation_env())

    def test_valid_raw_records(self):
        validate_envelope(
            Envelope(
                id="c1",
                task="classification",
                payload={"image": "a.png", "candidates": ["x", "y"], "truth": "x"},
            )
        )
        validate_envelope(
            Envelope(
                id="g1",
                task="grounding",
                payload={
                    "image": "a.png", "expression": "e", "box": [0, 0, 5, 5],
                    "width": 10, "height": 10,
                },
            )
        )

    def test_box_outside_dims(self):
        env = Envelope(
            id="g2",
            task="grounding",
            payload={
                "image": "a.png", "expression": "e", "box": [0, 0, 50, 5],
                "width": 10, "height": 10,
            },
        )
        with pytest.raises(InvalidRecordError):
            validate_envelope(env)

    def test_bad_special_tokens_in_conversation(self):
        env = conversation_env(
            turns=[["user", "<image>\nsee <box>[[0,0,2000,5]]</box>"], ["assistant", "a"]]
        )
        with pytest.raises(InvalidRecordError):
            validate_envelope(env)

    def test_alternation_enforced(self):
        env = conversation_env(turns=[["assistant", "a"], ["user", "u"]], images=[])
        with pytest.raises(InvalidRecordError):
            validate_envelope(env)

    def test_multiview_center_bounds(self):
        views = {f"CAM_{i}": f"v{i}.png" for i in range(6)}
        env = Envelope(
            id="m1",
            task="multiview",
            payload={
                "views": views,
                "view_dims": {cam: [100, 100] for cam in views},
                "qa": [["q", "a"]],
                "objects": [{"id": "c1", "camera": "CAM_0", "center": [500, 5]}],
            },
        )
        with pytest.raises(InvalidRecordError):
            validate_envelope(env)

    def test_malformed_payload_wrapped(self):
        env = Envelope(id="v1", task="video", payload={"frames": "notalist", "qa": [["q", "a"]]})
        with pytest.raises(InvalidRecordError):
            validate_envelope(env)


class TestOneJsonDecoder:
    # Every JSON input goes through schema.JSON_DECODER, which refuses NaN and
    # the infinities; a json.load or json.loads call would accept them again.
    def test_no_other_json_decode_in_the_package(self):
        src = Path(__file__).resolve().parents[1] / "src" / "vlprep"
        calls = [
            f"{path.name}:{number}"
            for path in sorted(src.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if "json.loads(" in line or "json.load(" in line
        ]
        assert calls == []

    def test_a_lone_surrogate_is_refused_and_a_pair_is_one_character(self):
        # A lone surrogate can be written only as a \u escape, and no UTF-8 output can encode it.
        assert loads_object('{"s": "\\ud83d\\ude00"}') == {"s": "\U0001F600"}
        for text in ('{"s": "\\ud800"}', '{"\\udcff": 1}', '{"s": ["\\ude00\\ud83d"]}'):
            with pytest.raises(InvalidRecordError, match="^not valid JSON: lone surrogate "):
                loads_object(text)


class TestOneJsonEncoder:
    # Every JSON output goes through schema.JSON_ENCODER, which refuses NaN and
    # the infinities; a json.dump or json.dumps call would write them again.
    def test_no_other_json_encode_in_the_package(self):
        src = Path(__file__).resolve().parents[1] / "src" / "vlprep"
        calls = [
            f"{path.name}:{number}"
            for path in sorted(src.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if "json.dumps(" in line or "json.dump(" in line
        ]
        assert calls == []

    def test_a_non_finite_number_is_one_error(self):
        with pytest.raises(PipelineError, match="non-finite"):
            dumps_object({"rmse": float("inf")})
