import io
import json

import pytest

from vlprep.errors import InvalidRecordError, RecordIOError
from vlprep.schema import (
    Envelope,
    dumps_envelope,
    iter_envelopes,
    loads_envelope,
    numbered_lines,
    payload_to_record,
    payload_to_sample,
    read_envelopes,
    sample_to_payload,
    validate_envelope,
    write_envelopes,
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
        assert write_envelopes(path, envs) == 3
        assert read_envelopes(path) == envs

    def test_blank_lines_skipped(self):
        buf = io.StringIO(dumps_envelope(conversation_env()) + "\n\n   \n")
        assert len(read_envelopes(buf)) == 1

    def test_line_number_in_error(self):
        buf = io.StringIO(dumps_envelope(conversation_env()) + "\n{bad\n")
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
        stream = iter_envelopes(io.StringIO(text))
        assert [(n, env.id) for n, env in (next(stream), next(stream))] == [(1, "a"), (3, "b")]
        with pytest.raises(InvalidRecordError, match="^line 4: not valid JSON"):
            next(stream)


    def test_numbered_lines_gives_byte_offsets(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_bytes("é1\r\n\n  \r\nñ2\nx3".encode("utf-8"))
        assert list(numbered_lines(path)) == [(1, 0, "é1\r\n"), (4, 10, "ñ2\n"), (5, 14, "x3")]
        # A handle with a binary buffer, like sys.stdin, is read as bytes too.
        handle = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
        assert list(numbered_lines(handle)) == list(numbered_lines(path))

    def test_line_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(dumps_envelope(conversation_env()).encode("utf-8") + b"\ngarbage\xff\n")
        lines = numbered_lines(path)
        assert next(lines)[0] == 1
        with pytest.raises(InvalidRecordError, match="^line 2: not valid UTF-8$"):
            next(lines)

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
