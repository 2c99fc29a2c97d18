"""End-to-end tests driving the command line entry point in process."""

import ast
import contextlib
import copy
import gc
import io
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vlprep import cli, errors, formats, geometry, metrics, mixer, schema, shards
from vlprep.cli import _line_sink, main
from vlprep.geometry import ImageDims, plan_tiles, token_count

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            line = json.dumps(record, ensure_ascii=False)
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, which only a \u escape can write
                line = json.dumps(record)
            handle.write(line + "\n")


def classification_record(index):
    return {
        "id": f"cls-{index:04d}",
        "schema_version": "1",
        "task": "classification",
        "meta": {"domain": "remote-sensing"},
        "payload": {
            "image": f"images/{index:04d}.png",
            "candidates": ["meadow", "forest", "harbor"],
            "truth": ("meadow", "forest", "harbor")[index % 3],
        },
    }


def golden_record(name, **changes):
    """The first raw record of a golden input, with top-level keys replaced."""
    with open(GOLDEN_DIR / f"{name}.input.jsonl", encoding="utf-8") as handle:
        record = json.loads(handle.readline())
    return {**record, **changes}


def with_payload(record, **changes):
    return {**record, "payload": {**record["payload"], **changes}}


def multiview_as_pairs(field):
    """The first golden multiview record with ``field``, or each ``objects`` entry, written as ``[key, value]`` pairs."""
    record = golden_record("multiview")
    as_pairs = lambda obj: [[key, value] for key, value in obj.items()]  # noqa: E731
    value = record["payload"][field]
    return with_payload(record, **{field: [as_pairs(obj) for obj in value] if field == "objects" else as_pairs(value)})


def converted_golden(name, **meta):
    """The first record of a golden output, with meta keys replaced."""
    with open(GOLDEN_DIR / f"{name}.jsonl", encoding="utf-8") as handle:
        record = json.loads(handle.readline())
    return {**record, "meta": {**record["meta"], **meta}}


def run_stdin(capsys, monkeypatch, data, *argv):
    """Run the CLI with ``data`` on a stdin that, like the real one, has a binary buffer."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    return run(capsys, *argv)


class TestGoldenFiles:
    # One frozen output per converter path; any byte drift is a regression.
    CASES = [
        ("classification_free", ["--task", "classification", "--template", "free"]),
        (
            "classification_mcq",
            [
                "--task", "classification", "--template", "mcq",
                "--prompt-prefix", "Predict the behavior of the ego vehicle. ",
            ],
        ),
        ("grounding", ["--task", "grounding"]),
        ("region_inline", ["--task", "region"]),
        ("region_drawn", ["--task", "region"]),
        ("multiview", ["--task", "multiview"]),
        ("video", ["--task", "video"]),
        # Already conversations: meta laid over {"task": "vqa"}, a meta task kept, non-ASCII text unescaped.
        ("vqa", ["--task", "vqa"]),
    ]

    @pytest.mark.parametrize("name,flags", CASES, ids=[c[0] for c in CASES])
    def test_byte_exact(self, capsys, tmp_path, name, flags):
        out = tmp_path / "out.jsonl"
        argv = ["convert", "-i", str(GOLDEN_DIR / f"{name}.input.jsonl"), "-o", str(out)]
        argv += flags
        if name == "region_drawn":
            argv += ["--overlays", str(tmp_path / "overlays.jsonl")]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.jsonl").read_bytes()

    def test_overlay_sidecar_byte_exact(self, capsys, tmp_path):
        out = tmp_path / "out.jsonl"
        overlays = tmp_path / "overlays.jsonl"
        code, _, _ = run(
            capsys, "convert", "--task", "region",
            "-i", str(GOLDEN_DIR / "region_drawn.input.jsonl"),
            "-o", str(out), "--overlays", str(overlays),
        )
        assert code == 0
        expected = (GOLDEN_DIR / "region_drawn.overlays.jsonl").read_bytes()
        assert overlays.read_bytes() == expected

    def test_free_classification_template_text(self):
        data = (GOLDEN_DIR / "classification_free.jsonl").read_text(encoding="utf-8")
        assert "Classify the image within one of the given classes: " in data
        assert ". Answer with one word or short phrase." in data

    def test_mcq_template_text(self):
        data = (GOLDEN_DIR / "classification_mcq.jsonl").read_text(encoding="utf-8")
        assert "Please select the correct answer from the following options: A. " in data

    def test_grounding_template_text(self):
        data = (GOLDEN_DIR / "grounding.jsonl").read_text(encoding="utf-8")
        assert "Detect <ref>" in data
        assert "</ref><box>[[" in data

    def test_video_frame_prefix_text(self):
        data = (GOLDEN_DIR / "video.jsonl").read_text(encoding="utf-8")
        assert "Frame1: <img><IMG_CONTEXT></img> Frame2: <img><IMG_CONTEXT></img>" in data

    def test_multiview_system_prompt_text(self):
        data = (GOLDEN_DIR / "multiview.jsonl").read_text(encoding="utf-8")
        assert "Objects are encoded using <c, CAM, [cx,cy]>" in data
        assert "where c is the identifier, CAM indicates the camera" in data

    def test_goldens_pass_validation(self, capsys):
        for name, _ in self.CASES:
            code, out, _ = run(capsys, "validate", str(GOLDEN_DIR / f"{name}.jsonl"))
            assert code == 0, name
            assert json.loads(out.strip().splitlines()[-1])["errors"] == 0


class TestConvert:
    def test_output_order_follows_input_order(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(i) for i in range(24)])
        out = tmp_path / "out.jsonl"
        run(capsys, "convert", "--task", "classification", "-i", str(src), "-o", str(out))
        ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
        assert ids == [f"cls-{i:04d}" for i in range(24)]

    def test_summary_counts(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(i) for i in range(5)])
        code, out, _ = run(capsys, "convert", "--task", "classification",
                           "-i", str(src), "-o", str(tmp_path / "out.jsonl"))
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["records"] == 5
        assert summary["by_task"] == {"classification": 5}

    def test_summary_goes_to_stderr_when_the_sidecar_is_stdout(self, capsys, tmp_path):
        out = tmp_path / "out.jsonl"
        src = GOLDEN_DIR / "region_drawn.input.jsonl"
        code, stdout, err = run(capsys, "convert", "--task", "region", "-i", str(src), "-o", str(out), "--overlays", "-")
        assert code == 0
        assert stdout.encode("utf-8") == (GOLDEN_DIR / "region_drawn.overlays.jsonl").read_bytes()
        assert json.loads(err)["overlays"] == stdout.count("\n")
        assert out.read_bytes() == (GOLDEN_DIR / "region_drawn.jsonl").read_bytes()

    def test_task_mismatch_is_a_validation_error(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(0)])
        code, _, err = run(capsys, "convert", "--task", "video",
                           "-i", str(src), "-o", str(tmp_path / "out.jsonl"))
        assert code == 1
        assert "cls-0000" in err

    def test_failed_run_leaves_no_output_file(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(0)])
        out = tmp_path / "out.jsonl"
        code, _, _ = run(capsys, "convert", "--task", "video",
                         "-i", str(src), "-o", str(out))
        assert code == 1
        assert not out.exists()

    def test_stdout_output(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(0)])
        code, out, err = run(capsys, "convert", "--task", "classification",
                             "-i", str(src), "-o", "-")
        assert code == 0
        assert json.loads(out.strip())["id"] == "cls-0000"
        # Summary must not pollute the record stream.
        assert json.loads(err.strip())["records"] == 1

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(0)])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"task": "classification", "template_style": "mcq"}))
        out = tmp_path / "out.jsonl"
        code, _, _ = run(capsys, "convert", "--config", str(config),
                         "-i", str(src), "-o", str(out))
        assert code == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert "following options: A. " in record["payload"]["turns"][0][1]

    def test_flag_overrides_config(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(0)])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"task": "classification", "template_style": "mcq"}))
        out = tmp_path / "out.jsonl"
        code, _, _ = run(capsys, "convert", "--config", str(config),
                         "--template", "free", "-i", str(src), "-o", str(out))
        assert code == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert "Classify the image within one of" in record["payload"]["turns"][0][1]

    def test_unknown_config_key_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        # "manifest" was a config field that no command read.
        for key in ("tempalte", "manifest"):
            config.write_text(json.dumps({"task": "classification", key: "free"}))
            code, _, err = run(capsys, "convert", "--config", str(config),
                               "-i", "x.jsonl", "-o", "y.jsonl")
            assert code == 2
            assert key in err

    def test_missing_input_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "convert", "--task", "classification",
                           "-i", str(tmp_path / "absent.jsonl"),
                           "-o", str(tmp_path / "out.jsonl"))
        assert code == 3
        assert json.loads(err.strip().splitlines()[-1])["exit_code"] == 3

    def test_missing_task_is_a_config_error(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(0)])
        code, _, _ = run(capsys, "convert", "-i", str(src),
                         "-o", str(tmp_path / "out.jsonl"))
        assert code == 2

    def test_unknown_config_task_is_a_config_error_before_any_record(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"task": "foo"}))
        out = tmp_path / "out.jsonl"
        code, stdout, err = run(capsys, "convert", "--config", str(config),
                                "-i", str(GOLDEN_DIR / "grounding.input.jsonl"), "-o", str(out))
        assert (code, stdout) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InvalidConfigError"
        assert error["message"].startswith("task must be one of ") and error["message"].endswith("got 'foo'")
        assert list(tmp_path.iterdir()) == [config]

    def test_workers_flag_and_config_key_are_retired(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(0)])
        code, stdout, err = run(capsys, "convert", "--task", "classification", "-i", str(src), "--workers", "2")
        assert (code, stdout, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["message"] == "vlprep: unrecognized arguments: --workers 2"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"task": "classification", "workers": 2}))
        code, _, err = run(capsys, "convert", "--config", str(config), "-i", str(src), "-o", "-")
        assert code == 2
        assert "workers" in err

    def test_stdin_and_file_input_give_identical_output(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(i) for i in range(12)])
        from_file, from_stdin = tmp_path / "file.jsonl", tmp_path / "stdin.jsonl"
        flags = ("convert", "--task", "classification", "--template", "mcq", "--shuffle-options")
        code, summary_file, _ = run(capsys, *flags, "-i", str(src), "-o", str(from_file))
        assert code == 0
        code, summary_stdin, _ = run_stdin(
            capsys, monkeypatch, src.read_bytes(), *flags, "-i", "-", "-o", str(from_stdin)
        )
        assert code == 0
        assert from_stdin.read_bytes() == from_file.read_bytes()
        assert summary_stdin == summary_file

    def test_stdout_output_equals_file_output(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(i) for i in range(12)])
        out = tmp_path / "out.jsonl"
        code, _, _ = run(capsys, "convert", "--task", "classification", "-i", str(src), "-o", str(out))
        assert code == 0
        code, stdout, _ = run(capsys, "convert", "--task", "classification", "-i", str(src), "-o", "-")
        assert code == 0
        assert stdout.encode("utf-8") == out.read_bytes()

    def test_failed_stdout_run_prints_no_records(self, capsys, tmp_path):
        bad = classification_record(3)
        bad["payload"]["truth"] = "volcano"
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(0), classification_record(1), bad])
        code, stdout, err = run(capsys, "convert", "--task", "classification", "-i", str(src), "-o", "-")
        assert code == 1
        assert stdout == ""
        assert json.loads(err.strip())["message"].startswith("line 3: ")

    def test_output_directory_leaves_no_temp_file(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(i) for i in range(5)])
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        code, _, err = run(capsys, "convert", "--task", "classification", "-i", str(src), "-o", str(outdir))
        assert code == 3
        assert json.loads(err.strip())["exit_code"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "outdir"]

    # case -> (task, record, start of the error message); a non-finite number
    # is refused when its line is read, before the record id is known.
    MALFORMED = {
        "width_not_a_number": (
            "grounding",
            with_payload(golden_record("grounding"), width="abc"),
            "record 'rs-grd-0001': malformed payload: ",
        ),
        "nan_box": (
            "grounding",
            with_payload(golden_record("grounding"), box=[float("nan"), 90, 630, 450]),
            "not valid JSON: NaN is not a finite number",
        ),
        "infinite_height": (
            "grounding",
            with_payload(golden_record("grounding"), height=float("inf")),
            "not valid JSON: Infinity is not a finite number",
        ),
        "multiview_object_without_center": (
            "multiview",
            with_payload(
                golden_record("multiview"),
                objects=[{"id": "c1", "camera": "CAM_FRONT", "box": [720, 380, 880, 520]}],
            ),
            "record 'drive-mv-0001': malformed payload: ",
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_payload_is_one_json_error(self, capsys, tmp_path, case):
        task, record, message = self.MALFORMED[case]
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [golden_record(task, id="ok-1"), record])
        code, stdout, err = run(capsys, "convert", "--task", task, "-i", str(src), "-o", str(tmp_path / "out.jsonl"))
        assert code == 1
        assert stdout == ""
        error = json.loads(err)  # exactly one JSON line, no traceback
        assert error["error"] == "InvalidRecordError"
        assert error["exit_code"] == 1
        assert error["message"].startswith(f"line 2: {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_conversation_payload_converts_only_as_vqa(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [golden_record("grounding")])
        converted = tmp_path / "converted.jsonl"
        assert run(capsys, "convert", "--task", "grounding", "-i", str(src), "-o", str(converted))[0] == 0
        code, _, err = run(capsys, "convert", "--task", "grounding", "-i", str(converted), "-o", "-")
        assert code == 1
        assert "already a conversation" in json.loads(err)["message"]

    def test_vqa_sample_is_validated_once(self, capsys, tmp_path, monkeypatch):
        validations = []
        validate = formats.ConversationSample.validate
        monkeypatch.setattr(formats.ConversationSample, "validate", lambda self: validations.append(self.id) or validate(self))
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [TestValidateAgreesWithConvert.SEEDS["vqa"]])
        code, out, _ = run(capsys, "convert", "--task", "vqa", "-i", str(src), "-o", "-")
        assert code == 0
        assert json.loads(out)["meta"] == {"task": "vqa"}
        assert validations == ["vqa-0001"]

    def test_first_failing_line_in_file_order_is_reported(self, capsys, tmp_path):
        drawn = golden_record("region_drawn")
        lines = [
            json.dumps(dict(drawn, id="reg-1")),
            json.dumps(with_payload(dict(drawn, id="reg-2"), mode="sketched")),
            json.dumps(dict(drawn, id="reg-3")),
            json.dumps(dict(drawn, id="reg-4")),
            "{not json",
        ]
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"previous run\n")
        overlays = tmp_path / "overlays.jsonl"
        code, _, err = run(capsys, "convert", "--task", "region", "-i", str(src),
                           "-o", str(out), "--overlays", str(overlays))
        assert code == 1
        message = json.loads(err)["message"]
        assert message.startswith("line 2: record 'reg-2': ")
        assert "sketched" in message
        assert out.read_bytes() == b"previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "out.jsonl"]


class TestCommandLineErrors:
    # A bad command line is a configuration error like any other: exit 2,
    # nothing on stdout and one JSON line on stderr, not argparse's usage text.
    VALID = {
        "convert": ["--task", "grounding"],
        "mix": ["--manifest", "mix.json"],
        "validate": ["in.jsonl"],
        "stats": ["in.jsonl"],
        "eval": ["--metric", "mcq"],
        "plan-tiles": ["448", "448"],
        "validate-kernels": [],
    }
    CASES = {
        **{f"{command} unknown flag": [command, *argv, "--frobnicate"] for command, argv in VALID.items()},
        "convert --seed x": ["convert", "--task", "grounding", "--seed", "x"],
        "stats --min-tiles x": ["stats", "--min-tiles", "x", "in.jsonl"],
        "eval --max-n x": ["eval", "--metric", "bleu", "--max-n", "x"],
        "plan-tiles height x": ["plan-tiles", "448", "x"],
        "plan-tiles --tokens-per-tile x": ["plan-tiles", "448", "448", "--tokens-per-tile", "x"],
        "validate-kernels --seed x": ["validate-kernels", "--seed", "x"],
        "convert --task without a value": ["convert", "--task"],
        "mix without --manifest": ["mix"],
        "validate without a path": ["validate"],
        "stats without a path": ["stats"],
        "eval without --metric": ["eval"],
        "plan-tiles without a height": ["plan-tiles", "448"],
        "validate-kernels --gradient-trials without a value": ["validate-kernels", "--gradient-trials"],
        "no command": [],
        "unknown command": ["frobnicate"],
    }

    @pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
    def test_a_bad_command_line_is_one_json_error_line(self, capsys, argv):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout, err.count("\n")) == (2, "", 1)
        error = json.loads(err)
        assert (error["error"], error["exit_code"]) == ("InvalidConfigError", 2)
        assert error["message"].startswith("vlprep")

    def test_the_message_names_the_command_and_the_flag(self, capsys):
        _, _, err = run(capsys, "stats", "--min-tiles", "x", "in.jsonl")
        assert json.loads(err)["message"] == "vlprep stats: argument --min-tiles: invalid int value: 'x'"

    def test_help_is_still_usage_on_stdout_and_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["stats", "--help"])
        out, err = capsys.readouterr()
        assert (exit_info.value.code, err) == (0, "")
        assert out.startswith("usage: vlprep stats ")


class TestRecordErrorMessages:
    # case -> (golden input, extra convert flags, bad record, message after "line 2: record '<id>': ").
    # Only jsonl.at_line names the record; the converters and the
    # geometry checks raise without it.
    CASES = {
        "grounding_box_out_of_bounds": (
            "grounding",
            (),
            with_payload(golden_record("grounding", id="g-oob"), box=[0, 0, 1100, 100]),
            "box (0.0, 0.0, 1100.0, 100.0) exceeds image bounds 1024x768",
        ),
        "region_question_with_reserved_token": (
            "region_inline",
            (),
            with_payload(golden_record("region_inline", id="r-tok"), question="What is <box> here?"),
            "question contains reserved token '<box>'",
        ),
        "multiview_unknown_object": (
            "multiview",
            (),
            with_payload(golden_record("multiview", id="mv-c9"), qa=[["Where is <c9>?", "Ahead."]]),
            "text references unknown object <c9>",
        ),
        "multiview_center_outside_its_view": (
            "multiview",
            (),
            with_payload(
                golden_record("multiview", id="mv-far"),
                objects=[{"id": "c1", "camera": "CAM_FRONT", "center": [1700.0, 450.0]}],
                qa=[["Where is <c1>?", "Ahead."]],
            ),
            "point (1700.0, 450.0) exceeds image bounds 1600x900",
        ),
        "mcq_with_27_options": (
            "classification_mcq",
            ("--template", "mcq"),
            with_payload(
                golden_record("classification_mcq", id="c-27"),
                candidates=[f"option {i}" for i in range(27)],
                truth="option 0",
            ),
            "MCQ supports at most 26 options, got 27",
        ),
        "envelope_id_empty": ("grounding", (), golden_record("grounding", id=""), "envelope id must be a non-empty string"),
        "envelope_payload_a_list": (
            "grounding", (), golden_record("grounding", id="g-list", payload=[]), "payload must be an object"
        ),
        "grounding_without_box": (
            "grounding",
            (),
            golden_record(
                "grounding",
                id="g-nobox",
                payload={k: v for k, v in golden_record("grounding")["payload"].items() if k != "box"},
            ),
            "grounding payload missing ['box']",
        ),
        "grounding_empty_expression": (
            "grounding",
            (),
            with_payload(golden_record("grounding", id="g-empty"), expression=""),
            "referring expression must be non-empty",
        ),
        "classification_no_candidates": (
            "classification_free",
            (),
            with_payload(golden_record("classification_free", id="c-none"), candidates=[]),
            "candidates must be non-empty",
        ),
        "multiview_view_dims_of_other_cameras": (
            "multiview",
            (),
            with_payload(
                golden_record("multiview", id="mv-dims"),
                view_dims={("CAM_SIDE" if cam == "CAM_FRONT_LEFT" else cam): dims
                           for cam, dims in golden_record("multiview")["payload"]["view_dims"].items()},
            ),
            "view_dims must cover exactly the view cameras",
        ),
        "multiview_without_qa": (
            "multiview",
            (),
            with_payload(golden_record("multiview", id="mv-noqa"), qa=[]),
            "at least one question/answer pair is required",
        ),
        # Raw text bound for a turn must be a string: one message for every record type.
        "grounding_expression_not_a_string": (
            "grounding",
            (),
            with_payload(golden_record("grounding", id="g-num"), expression=5),
            "referring expression must be a string, got 5",
        ),
        "region_question_not_a_string": (
            "region_inline",
            (),
            with_payload(golden_record("region_inline", id="r-list"), question=["What is red?"]),
            "question must be a string, got ['What is red?']",
        ),
        "multiview_answer_not_a_string": (
            "multiview",
            (),
            with_payload(golden_record("multiview", id="mv-num"), qa=[["Where is <c1>?", 7]]),
            "answer must be a string, got 7",
        ),
        "video_first_question_not_a_string": (
            "video",
            (),
            with_payload(golden_record("video", id="v1"), qa=[[["<ref>"], "ok"]]),
            "question must be a string, got ['<ref>']",
        ),
        "multiview_duplicate_ctag": (
            "multiview",
            (),
            with_payload(
                golden_record("multiview", id="mv-dup"),
                objects=[{**obj, "id": "c1"} for obj in golden_record("multiview")["payload"]["objects"]],
            ),
            "duplicate c-tag id c1",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_names_the_line_then_the_record(self, capsys, tmp_path, case):
        name, flags, record, message = self.CASES[case]
        task = record["task"]
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [golden_record(name, id="ok-1"), record])
        code, stdout, err = run(capsys, "convert", "--task", task, *flags, "-i", str(src), "-o", "-")
        assert code == 1
        assert stdout == ""
        named = f"record {record['id']!r}: " if record["id"] else ""  # an empty id names no record
        expected = {
            "error": "InvalidRecordError",
            "message": f"line 2: {named}{message}",
            "exit_code": 1,
        }
        assert err == json.dumps(expected) + "\n"


class TestConvertMemory:
    # convert holds one record at a time, so its peak must not grow with the
    # input: ten times the records may cost at most half as much again.
    @staticmethod
    def traced_peak(tmp_path, count, prefix="mv"):
        record = golden_record("multiview")
        src = tmp_path / f"{prefix}-{count}.jsonl"
        write_jsonl(src, [dict(record, id=f"{prefix}-{i:05d}") for i in range(count)])
        argv = ["convert", "--task", "multiview", "-i", str(src), "-o", str(tmp_path / f"{prefix}-out-{count}.jsonl")]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_peak_does_not_grow_with_record_count(self, capsys, tmp_path):
        # First-use caches are not per-record memory.  Among them are the
        # interpreter's tuple free lists, which keep up to 2000 freed tuples of
        # each length; a block kept there counts as traced if it was allocated
        # while tracing, so a run that fills them looks like growth.  A first
        # run fills them, and the measured runs, which start tracing afresh,
        # do not count its blocks; the collector, whose full collections empty
        # the lists, stays off throughout.  With it off, cyclic garbage made
        # per record would show as growth too.  The first run's ids are its
        # own, so a cache kept per record is not filled before measuring.
        gc.disable()
        try:
            self.traced_peak(tmp_path, 4000, prefix="warm")
            small = self.traced_peak(tmp_path, 400)
            large = self.traced_peak(tmp_path, 4000)
        finally:
            gc.enable()
        capsys.readouterr()
        assert large <= 1.5 * small, (small, large)


class TestMix:
    def setup_sources(self, tmp_path):
        domain_a = tmp_path / "domain_a.jsonl"
        domain_b = tmp_path / "domain_b.jsonl"
        general = tmp_path / "general.jsonl"
        write_jsonl(domain_a, [classification_record(i) for i in range(30)])
        write_jsonl(domain_b, [classification_record(100 + i) for i in range(10)])
        write_jsonl(general, [classification_record(500 + i) for i in range(200)])
        manifest = {
            "domain_sources": [
                {"id": "a", "path": str(domain_a)},
                {"id": "b", "path": str(domain_b), "repeat": 2},
            ],
            "general_sources": [{"id": "g", "path": str(general)}],
            "ratio": 0.5,
            "seed": 7,
        }
        manifest_path = tmp_path / "mix.json"
        manifest_path.write_text(json.dumps(manifest))
        return manifest_path

    def test_mix_counts_and_report(self, capsys, tmp_path):
        manifest_path = self.setup_sources(tmp_path)
        out = tmp_path / "mixed.jsonl"
        code, stdout, _ = run(capsys, "mix", "--manifest", str(manifest_path),
                              "-o", str(out))
        assert code == 0
        # D = 30 + 10*2 = 50, general = round(0.5 * 50) = 25.
        lines = out.read_text().splitlines()
        assert len(lines) == 75
        report = json.loads((tmp_path / "mixed.jsonl.report.json").read_text())
        assert report["domain_total"] == 50
        assert report["general_total"] == 25
        assert report["requested_general"] == 25
        assert report["counting"] == "records"
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert summary["general_total"] == 25

    def test_same_seed_is_byte_identical(self, capsys, tmp_path):
        manifest_path = self.setup_sources(tmp_path)
        blobs = []
        for name in ("one.jsonl", "two.jsonl"):
            out = tmp_path / name
            code, _, _ = run(capsys, "mix", "--manifest", str(manifest_path),
                             "-o", str(out))
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_mixed_stream_validates(self, capsys, tmp_path):
        manifest_path = self.setup_sources(tmp_path)
        out = tmp_path / "mixed.jsonl"
        run(capsys, "mix", "--manifest", str(manifest_path), "-o", str(out))
        code, stdout, _ = run(capsys, "validate", str(out))
        assert code == 0
        assert json.loads(stdout.strip().splitlines()[-1])["checked"] == 75

    def test_bad_manifest_is_a_config_error(self, capsys, tmp_path):
        manifest_path = tmp_path / "mix.json"
        manifest_path.write_text(json.dumps({"domain_sources": [], "ratio": -1, "seed": 0}))
        code, _, _ = run(capsys, "mix", "--manifest", str(manifest_path),
                         "-o", str(tmp_path / "out.jsonl"))
        assert code == 2

    def test_output_directory_leaves_no_temp_file(self, capsys, tmp_path):
        manifest_path = self.setup_sources(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        code, _, err = run(capsys, "mix", "--manifest", str(manifest_path), "-o", str(outdir))
        assert code == 3
        assert json.loads(err.strip())["exit_code"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*before, "outdir"])
        assert not any(outdir.iterdir())

    def test_source_number_past_the_float_range_is_one_error(self, capsys, tmp_path):
        # 1e400 would decode to an infinity, which is not JSON: the source is refused as it is indexed.
        source = tmp_path / "big.jsonl"
        record = json.dumps(golden_record("grounding"))
        source.write_text(record.replace('"width":', '"extra": 1e400, "width":') + "\n")
        manifest = tmp_path / "mix.json"
        manifest.write_text(json.dumps({"domain_sources": [{"id": "d", "path": str(source)}], "ratio": 0, "seed": 0}))
        out = tmp_path / "out.jsonl"
        code, stdout, err = run(capsys, "mix", "--manifest", str(manifest), "-o", str(out))
        assert (code, stdout) == (1, "")
        assert json.loads(err)["message"] == f"{source}: line 1: not valid JSON: 1e400 is not a finite number"
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))
        code, stdout, _ = run(capsys, "validate", str(source))
        assert code == 1 and json.loads(stdout.splitlines()[0])["error"] == "not valid JSON: 1e400 is not a finite number"

    def test_empty_general_source_with_replacement_is_one_error(self, capsys, tmp_path):
        domain, general = tmp_path / "d.jsonl", tmp_path / "g.jsonl"
        write_jsonl(domain, [classification_record(i) for i in range(3)])
        general.write_text("")
        manifest = tmp_path / "mix.json"
        manifest.write_text(json.dumps({
            "domain_sources": [{"id": "d", "path": str(domain)}],
            "general_sources": [{"id": "g", "path": str(general)}],
            "ratio": 1,
            "seed": 0,
            "allow_replacement": True,
        }))
        out = tmp_path / "out.jsonl"
        code, stdout, err = run(capsys, "mix", "--manifest", str(manifest), "-o", str(out))
        assert (code, stdout) == (1, "")
        assert json.loads(err) == {
            "error": "InsufficientDataError",
            "message": "source 'g': needs 3 records but only 0 available",
            "exit_code": 1,
        }
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))

    def test_missing_manifest_is_an_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "mix", "--manifest", str(tmp_path / "gone.json"),
                         "-o", str(tmp_path / "out.jsonl"))
        assert code == 3


class TestNoWriteReplacesARead:
    # No path a command writes (-o, --overlays, <out>.report.json) may name a
    # path it reads (-i, --config, --manifest, a mix source) or another path it
    # writes.  The check runs before any record is read, so nothing is written.
    @staticmethod
    def make_files(tmp_path):
        write_jsonl(tmp_path / "g.jsonl", [golden_record("grounding")])
        region = with_payload(golden_record("region_inline"), mode="drawn-annotation")
        write_jsonl(tmp_path / "r.jsonl", [region])
        write_jsonl(tmp_path / "d.jsonl", [classification_record(i) for i in range(4)])
        manifest = {"domain_sources": [{"id": "d", "path": "d.jsonl"}], "ratio": 0, "seed": 0}
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        os.symlink("g.jsonl", tmp_path / "link.jsonl")

    PROBES = {
        "output_is_the_input": ["convert", "--task", "grounding", "-i", "g.jsonl", "-o", "./g.jsonl"],
        "output_is_a_link_to_the_input": ["convert", "--task", "grounding", "-i", "g.jsonl", "-o", "link.jsonl"],
        "overlays_are_the_input": ["convert", "--task", "region", "-i", "r.jsonl", "-o", "out.jsonl",
                                   "--overlays", "r.jsonl"],
        "overlays_are_the_output": ["convert", "--task", "region", "-i", "r.jsonl", "-o", "out.jsonl",
                                    "--overlays", "out.jsonl"],
        "mix_output_is_a_source": ["mix", "--manifest", "m.json", "-o", "d.jsonl"],
        "mix_output_is_the_manifest": ["mix", "--manifest", "m.json", "-o", "m.json"],
        "overlays_and_output_are_stdout": ["convert", "--task", "region", "-i", "r.jsonl", "-o", "-",
                                           "--overlays", "-"],
    }

    @pytest.mark.parametrize("case", sorted(PROBES))
    def test_is_exit_2_and_writes_nothing(self, capsys, monkeypatch, tmp_path, case):
        monkeypatch.chdir(tmp_path)
        self.make_files(tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        code, stdout, err = run(capsys, *self.PROBES[case])
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "InvalidConfigError" and " is the same file as " in error["message"]
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_distinct_paths_run(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        self.make_files(tmp_path)
        argv = ["convert", "--task", "region", "-i", "r.jsonl", "-o", "out.jsonl", "--overlays", "ov.jsonl"]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "mix", "--manifest", "m.json", "-o", "mixed.jsonl")[0] == 0
        assert (tmp_path / "ov.jsonl").exists() and (tmp_path / "mixed.jsonl.report.json").exists()


class TestEmptyValues:
    # An empty string is a value given, not a flag left out: an empty path is
    # exit 3, named by its role before any record is read, and an empty
    # --thresholds is exit 2.  Each once read stdin, wrote stdout, wrote no
    # sidecar or scored with the default thresholds, and exited 0; an empty
    # --scores was exit 2, as if it were left out.  validate, stats and eval
    # once named an empty input by no role ("cannot read : [Errno 2] ...").
    EMPTY_PATH = ": an empty path names no file"
    CASES = {
        "convert_output": (["convert", "--task", "region", "-i", "r.jsonl", "-o", ""], 3,
                           "cannot write output ''" + EMPTY_PATH),
        "convert_input": (["convert", "--task", "region", "-i", "", "-o", "out.jsonl"], 3,
                          "cannot read input ''" + EMPTY_PATH),
        "convert_overlays": (["convert", "--task", "region", "-i", "r.jsonl", "-o", "out.jsonl", "--overlays", ""], 3,
                             "cannot write overlays ''" + EMPTY_PATH),
        "config_input": (["convert", "--config", "input.json", "-o", "out.jsonl"], 3, "cannot read input ''" + EMPTY_PATH),
        "config_output": (["convert", "--config", "output.json", "-i", "r.jsonl"], 3, "cannot write output ''" + EMPTY_PATH),
        "mix_output": (["mix", "--manifest", "m.json", "-o", ""], 3, "cannot write output ''" + EMPTY_PATH),
        "thresholds": (["eval", "--metric", "signals", "-i", "s.jsonl", "--thresholds", ""], 2,
                       "--thresholds must be numbers, got ''"),
        # These were exit 3 already; an empty mix source is now named by its role, before any source is read.
        "mix_source": (["mix", "--manifest", "empty_source.json", "-o", "out.jsonl"], 3,
                       "cannot read source ''" + EMPTY_PATH),
        "validate_path": (["validate", ""], 3, "cannot read input ''" + EMPTY_PATH),
        "stats_path": (["stats", ""], 3, "cannot read input ''" + EMPTY_PATH),
        "eval_input": (["eval", "--metric", "mcq", "-i", ""], 3, "cannot read input ''" + EMPTY_PATH),
        # A settings file at "" was read as the directory "." (exit 3, "Is a directory"); it is named as a path is.
        "eval_scores": (["eval", "--metric", "avg", "--scores", ""], 3, "cannot read scores ''" + EMPTY_PATH),
        "convert_config": (["convert", "--config", "", "-i", "r.jsonl", "-o", "out.jsonl"], 3,
                           "cannot read config ''" + EMPTY_PATH),
        "stats_config": (["stats", "r.jsonl", "--config", ""], 3, "cannot read config ''" + EMPTY_PATH),
        "plan_tiles_config": (["plan-tiles", "448", "448", "--config", ""], 3, "cannot read config ''" + EMPTY_PATH),
        "mix_manifest": (["mix", "--manifest", "", "-o", "out.jsonl"], 3, "cannot read manifest ''" + EMPTY_PATH),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_is_refused_and_writes_nothing(self, capsys, monkeypatch, tmp_path, case):
        argv, code, message = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b""), encoding="utf-8"))
        write_jsonl(tmp_path / "r.jsonl", [with_payload(golden_record("region_inline"), mode="drawn-annotation")])
        write_jsonl(tmp_path / "d.jsonl", [classification_record(i) for i in range(4)])
        write_jsonl(tmp_path / "s.jsonl", [{"predicted": 1.0, "truth": 1.0}])
        manifest = {"domain_sources": [{"id": "d", "path": "d.jsonl"}], "ratio": 0, "seed": 0}
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        (tmp_path / "empty_source.json").write_text(json.dumps({**manifest, "domain_sources": [{"id": "d", "path": ""}]}))
        (tmp_path / "input.json").write_text(json.dumps({"task": "region", "input": ""}))
        (tmp_path / "output.json").write_text(json.dumps({"task": "region", "output": ""}))
        before = sorted(path.name for path in tmp_path.iterdir())
        got, stdout, err = run(capsys, *argv)
        assert (got, stdout) == (code, "")
        assert TestSettingsFiles.one_error_line(err, code).startswith(message)
        assert sorted(path.name for path in tmp_path.iterdir()) == before


class TestClosedStdin:
    # A process started with fd 0 closed (`<&-`) has sys.stdin None; each command
    # that reads "-" raised a TypeError from os.stat or open, a traceback and exit 1.
    COMMANDS = {
        "convert": ["convert", "--task", "grounding"],
        "validate": ["validate", "-"],
        "stats": ["stats", "-"],
        "eval": ["eval", "--metric", "bleu"],
    }
    MESSAGE = "cannot read input: stdin is closed"

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_reading_a_closed_stdin_is_exit_3(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", None)
        code, stdout, err = run(capsys, *self.COMMANDS[command])
        assert (code, stdout) == (3, "")
        assert TestSettingsFiles.one_error_line(err, 3) == self.MESSAGE
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["convert", "validate"])
    def test_a_process_started_with_fd_0_closed_is_exit_3(self, tmp_path, command):
        proc = run_python(
            "-m", "vlprep.cli", *self.COMMANDS[command], check=False, cwd=tmp_path, preexec_fn=lambda: os.close(0)
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert TestSettingsFiles.one_error_line(proc.stderr, 3) == self.MESSAGE
        assert list(tmp_path.iterdir()) == []


class TestClosedStdStreams:
    # A process started with fd 1 or fd 2 closed (`>&-`, `2>&-`) has sys.stdout or sys.stderr None.
    # A closed stdout was an AttributeError traceback for `convert -o -` and a silent exit 0 for
    # `stats` and `plan-tiles`; a closed stderr sent `convert -o -`'s summary into the records.
    MESSAGE = "cannot write output: stdout is closed"
    COMMANDS = {
        "convert -o -": "convert --task grounding -i {golden}/grounding.input.jsonl -o -",
        "convert -o file": "convert --task grounding -i {golden}/grounding.input.jsonl -o out.jsonl",
        "mix": "mix --manifest {inputs}/mix.json -o mixed.jsonl",
        "validate": "validate {golden}/grounding.jsonl",
        "stats": "stats {golden}/grounding.input.jsonl",
        "eval": "eval --metric mcq -i {inputs}/pairs.jsonl",
        "plan-tiles": "plan-tiles 448 448",
        "validate-kernels": "validate-kernels",
        "--help": "--help",
    }

    def argv(self, tmp_path, command):
        """The run's directory, ``tmp_path/out``, still empty, and ``command``'s argv; its inputs are made beside it."""
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        out.mkdir()
        sources = {kind: [{"id": kind[0], "path": str(GOLDEN_DIR / f"{name}.input.jsonl")}]
                   for kind, name in (("domain_sources", "grounding"), ("general_sources", "classification_free"))}
        (inputs / "mix.json").write_text(json.dumps({**sources, "ratio": 0.5, "seed": 1}))
        write_jsonl(inputs / "pairs.jsonl", [{"id": "1", "prediction": "A", "references": ["A. cat"]}])
        return out, self.COMMANDS[command].format(golden=GOLDEN_DIR, inputs=inputs).split()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_a_closed_stdout_is_exit_3_for_every_command(self, capsys, monkeypatch, tmp_path, command):
        out, argv = self.argv(tmp_path, command)
        monkeypatch.chdir(out)
        monkeypatch.setattr(sys, "stdout", None)
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (3, "")
        assert TestSettingsFiles.one_error_line(err, 3) == self.MESSAGE
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["convert -o -", "convert -o file", "stats", "plan-tiles", "--help"])
    def test_a_process_started_with_fd_1_closed_is_exit_3(self, tmp_path, command):
        out, argv = self.argv(tmp_path, command)
        proc = run_python("-m", "vlprep.cli", *argv, check=False, cwd=out, preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert TestSettingsFiles.one_error_line(proc.stderr, 3) == self.MESSAGE
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("task", ["grounding", "video"])  # every golden grounding record is a bad video record
    def test_a_closed_stderr_moves_no_line_onto_stdout(self, capsys, monkeypatch, task):
        argv = ["convert", "--task", task, "-i", str(GOLDEN_DIR / "grounding.input.jsonl"), "-o", "-"]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == ((0, (GOLDEN_DIR / "grounding.jsonl").read_text()) if task == "grounding" else (1, ""))
        assert err.count("\n") == 1
        monkeypatch.setattr(sys, "stderr", None)
        assert run(capsys, *argv) == (code, stdout, "")

    @pytest.mark.parametrize("task", ["grounding", "video"])
    def test_a_process_started_with_fd_2_closed_keeps_its_stdout_and_exit_code(self, tmp_path, task):
        argv = ["-m", "vlprep.cli", "convert", "--task", task, "-i", str(GOLDEN_DIR / "grounding.input.jsonl")]
        shown = run_python(*argv, check=False, cwd=tmp_path)
        closed = run_python(*argv, check=False, cwd=tmp_path, preexec_fn=lambda: os.close(2))
        assert shown.stderr.count("\n") == 1
        assert (closed.returncode, closed.stdout, closed.stderr) == (shown.returncode, shown.stdout, "")
        assert list(tmp_path.iterdir()) == []


class TestOutputEncoding:
    # Every byte out is UTF-8, whatever PYTHONIOENCODING or the locale says: under latin-1 a CJK record
    # id was a UnicodeEncodeError traceback, and under utf-16 every stream began with a byte-order mark.
    COMMANDS = {
        "convert -o -": ("convert --task grounding -i {cjk} -o -", 0, "stdout", "漢字-0"),
        "validate": ("validate {bad}", 1, "stdout", "nöpe-漢"),
        "stats": ("stats {cjk}", 0, "stdout", '"records": 3'),
        "mix -o -": ("mix --manifest {manifest} -o -", 0, "stdout", "漢字-"),
        "plan-tiles": ("plan-tiles 448 448", 0, "stdout", "1x1 tiles, 256 tokens"),
        "--help": ("--help", 0, "stdout", "usage: vlprep"),
        "error line": ("convert --task video -i {cjk} -o -", 1, "stderr", "record '漢字-0'"),
    }
    ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}  # sys.stdout.encoding "ascii"
    SETTINGS = [{"PYTHONIOENCODING": encoding} for encoding in ("latin-1", "ascii", "utf-16")] + [ASCII_LOCALE]

    @classmethod
    def runs(cls, argv, cwd):
        """``python argv`` with no setting, then under each of ``SETTINGS``: the children run side by side."""
        with ThreadPoolExecutor(1 + len(cls.SETTINGS)) as pool:
            return list(pool.map(lambda env: run_python(*argv, check=False, text=False, cwd=cwd, env=env),
                                 [{}, *cls.SETTINGS]))

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_stream_is_utf8_whatever_the_encoding_settings_say(self, monkeypatch, tmp_path, command):
        monkeypatch.delenv("PYTHONIOENCODING", raising=False)
        cjk, bad, manifest = tmp_path / "cjk.jsonl", tmp_path / "bad.jsonl", tmp_path / "mix.json"
        write_jsonl(cjk, [golden_record("grounding", id=f"漢字-{i}") for i in range(3)])
        write_jsonl(bad, [golden_record("grounding", id="é-0", task="nöpe-漢"), golden_record("grounding")])
        sources = {"domain_sources": [{"id": "d", "path": str(cjk)}],
                   "general_sources": [{"id": "g", "path": str(GOLDEN_DIR / "classification_free.input.jsonl")}]}
        manifest.write_text(json.dumps({**sources, "ratio": 0.5, "seed": 1}))
        template, code, stream, text = self.COMMANDS[command]
        argv = ["-m", "vlprep.cli", *template.format(cjk=cjk, bad=bad, manifest=manifest).split()]
        default, *others = self.runs(argv, tmp_path)
        assert default.returncode == code and text.encode("utf-8") in getattr(default, stream)
        for env, proc in zip(self.SETTINGS, others):
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, default.stdout, default.stderr), env

    def test_a_path_that_is_not_utf8_is_named_in_one_error_line(self, monkeypatch, tmp_path):
        # Argv bytes that are not UTF-8 arrive as a lone surrogate, which a strict encode of the error
        # line made a UnicodeEncodeError traceback (exit 1); it is written as its JSON escape instead.
        monkeypatch.delenv("PYTHONIOENCODING", raising=False)
        missing = os.fsencode(tmp_path / "in") + b"\xff.jsonl"
        argv = ["-m", "vlprep.cli", "stats", missing]
        default, *others = self.runs(argv, tmp_path)
        assert (default.returncode, default.stdout) == (3, b"")
        message = TestSettingsFiles.one_error_line(default.stderr.decode("utf-8"), 3)
        assert message.startswith(f"cannot read {os.fsdecode(missing)}: ")
        for env, proc in zip(self.SETTINGS, others):
            assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"", default.stderr), env


class TestOneWriter:
    # Every byte out goes through cli._write, so it alone decides the encoding and what a closed
    # stream gets.  Anywhere else a std stream may only be handed to it, flushed or tested for None.
    STREAMS = ("stdout", "stderr", "__stdout__", "__stderr__")

    @classmethod
    def writes(cls, source: str) -> list[int]:
        """The lines of ``source`` that print, or use a std stream other than as above."""
        tree = ast.parse(source)
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        lines = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                lines.add(node.lineno)
            if not (isinstance(node, ast.Attribute) and node.attr in cls.STREAMS and ast.unparse(node.value) == "sys"):
                continue
            used = parents[node]
            if node.attr.startswith("__") or (isinstance(used, ast.Attribute) and used.attr != "flush"):
                lines.add(node.lineno)  # sys.stdout.write, .buffer, ...
            child = node
            while not isinstance(child, ast.stmt):  # handed to a call other than the writer, or kept under a name
                parent = parents[child]
                if isinstance(parent, ast.Call) and child is not parent.func and ast.unparse(parent.func) != "_write":
                    lines.add(node.lineno)
                if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.NamedExpr, ast.withitem)):
                    lines.add(node.lineno)
                child = parent
        return sorted(lines)

    def test_no_module_writes_a_std_stream_but_the_writer(self):
        found = {path.name: self.writes(path.read_text(encoding="utf-8")) for path in (SRC_DIR / "vlprep").glob("*.py")}
        assert {name: lines for name, lines in found.items() if lines} == {}

    @pytest.mark.parametrize(
        "line",
        [
            "print(x)",
            "print(x, file=sys.stderr)",
            "sys.stdout.write(x)",
            "sys.stderr.buffer.write(b)",
            "shutil.copyfileobj(spool, sys.stdout)",
            "json.dump(obj, sys.stdout)",
            "out = sys.stdout",
            "with contextlib.redirect_stdout(sys.stderr): pass",
            "sys.__stderr__.flush()",
        ],
    )
    def test_the_guard_sees_each_way_round_the_writer(self, line):
        assert self.writes(f"import sys\n{line}\n") == [2]

    def test_the_guard_passes_the_writer_a_flush_and_a_none_test(self):
        source = "_write(sys.stdout, x)\n_write(sys.stderr if e else sys.stdout, x)\nsys.stdout.flush()\n"
        assert self.writes(source + "for s in (sys.stdout, sys.stderr):\n    if s is not None: pass\n") == []


class TestValidate:
    def test_clean_file_passes(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(i) for i in range(3)])
        code, out, _ = run(capsys, "validate", str(src))
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1]) == {"checked": 3, "errors": 0}

    def test_errors_are_line_addressed(self, capsys, tmp_path):
        bad = classification_record(1)
        bad["payload"]["truth"] = "volcano"  # not among candidates
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(0), bad, classification_record(2)])
        code, out, _ = run(capsys, "validate", str(src))
        assert code == 1
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[-1] == {"checked": 3, "errors": 1}
        assert lines[0]["line"] == 2
        assert "volcano" in lines[0]["error"] or "truth" in lines[0]["error"]

    def test_meta_dims_past_the_float_range_are_a_row(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [converted_golden("region_inline", width="9" * 401)])
        code, out, _ = run(capsys, "validate", str(src))
        row, summary = (json.loads(line) for line in out.strip().splitlines())
        assert (code, row["line"], summary) == (1, 1, {"checked": 1, "errors": 1})
        assert "image dims must fit a float" in row["error"]

    @pytest.mark.parametrize(
        "box,message",
        [
            ("[[0, 0, 1001, 2000]]", "normalized coordinate x2=1001 outside [0, 1000]"),
            ("[[30, 20, 10, 40]]", "normalized box corners out of order: (30, 20, 10, 40)"),
        ],
        ids=["off_the_grid", "out_of_order"],
    )
    def test_a_bad_box_in_a_turn_is_a_row_naming_its_byte_offset(self, capsys, tmp_path, box, message):
        # The offset is that of the box body in its turn's UTF-8 text: "é " is 3 bytes, "<ref>車</ref><box>" 19.
        bad = {**converted_golden("vqa"), "id": "vqa-box"}
        bad["payload"]["turns"][1][1] = f"é <ref>車</ref><box>{box}</box>"
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [converted_golden("vqa"), bad])
        code, out, _ = run(capsys, "validate", str(src))
        assert code == 1
        assert [json.loads(line) for line in out.splitlines()] == [
            {"line": 2, "error": f"record 'vqa-box': special-token grammar: {message} (byte offset 22)"},
            {"checked": 2, "errors": 1},
        ]

    def test_converted_output_validates(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(i) for i in range(4)])
        out = tmp_path / "out.jsonl"
        run(capsys, "convert", "--task", "classification", "-i", str(src), "-o", str(out))
        code, stdout, _ = run(capsys, "validate", str(out))
        assert code == 0
        assert json.loads(stdout.strip().splitlines()[-1])["errors"] == 0


def vqa_record(turns, images=("a.png",)):
    return {
        "id": "vqa-0001", "schema_version": "1", "task": "vqa", "meta": {},
        "payload": {"images": list(images), "turns": [list(turn) for turn in turns]},
    }


def multiview_scene(objects):
    """A six-view record of 100x100 views whose text names no object."""
    views = {f"CAM_{i}": f"v{i}.png" for i in range(6)}
    return {
        "id": "mv-0001", "schema_version": "1", "task": "multiview", "meta": {},
        "payload": {"views": views, "view_dims": {cam: [100, 100] for cam in views}, "qa": [["q", "a"]],
                    "objects": objects},
    }


def is_conversation(record):
    return isinstance(record["payload"], dict) and "turns" in record["payload"]


def verdicts(record, task=None):
    """Exit codes of ``validate`` and of ``convert --task <task>`` (its own by default) on a file holding ``record``.

    ``stats`` runs on the file too.  It converts a raw record as convert
    does, so it must pass exactly when convert does; a conversation it
    decodes but does not check, so it must pass whenever convert does.
    Whatever convert writes, validate must pass.  Runs in process with its
    own temporary directory and captured streams, so property tests can call
    it once per example.  Anything but a PipelineError escapes ``main`` and
    fails the calling test.
    """
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.jsonl", Path(tmp) / "out.jsonl"
        write_jsonl(src, [record])
        streams = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
            validated = main(["validate", str(src)])
            converted = main(["convert", "--task", task or record["task"], "-i", str(src), "-o", str(out)])
            counted = main(["stats", str(src)])
            assert converted != 0 or main(["validate", str(out)]) == 0, "convert wrote a record validate refuses"
    if is_conversation(record):
        assert (counted, converted) in ((0, 0), (0, 1), (1, 1))
    else:
        assert counted == converted
    return validated, converted


class TestValidateAgreesWithConvert:
    # validate is a dry run of convert with the default template, so every
    # input record gets one verdict from both commands.
    SEEDS = {
        name: golden_record(name)
        for name in ("classification_free", "grounding", "region_inline", "region_drawn", "multiview", "video")
    }
    SEEDS["vqa"] = vqa_record([("user", "<image>\nWhat is <ref>this</ref>?"), ("assistant", "<box>[[1, 2, 3, 4]]</box>")])
    # Every converted golden output: a conversation record, which convert converts only as vqa.
    OUTPUTS = {name: converted_golden(name) for name, _ in TestGoldenFiles.CASES}

    # Inputs the two commands used to judge differently.
    PROBES = {
        "nan_box_corner": with_payload(golden_record("grounding"), box=[float("nan"), 90, 630, 450]),
        "ref_in_expression": with_payload(golden_record("grounding"), expression="the <ref>bridge</ref>"),
        "box_in_region_question": with_payload(golden_record("region_inline"), question="Is <box> red?"),
        "unknown_ctag_placeholder": with_payload(golden_record("multiview"), qa=[["Where is <c9>?", "ahead"]]),
        "video_answer_is_a_number": with_payload(golden_record("video"), qa=[["How many cars?", 5]]),
        "vqa_box_off_the_grid": vqa_record([("user", "<image>\nsee <box>[[0,0,2000,5]]</box>"), ("assistant", "a")]),
        "unnamed_center_outside_view": multiview_scene([{"id": "c1", "camera": "CAM_0", "center": [500, 5]}]),
        # Raw text once copied into the turns unguarded: both commands passed
        # the record, and validate refused what convert wrote.
        "box_as_a_candidate": with_payload(
            golden_record("classification_free"), candidates=["<box>", *golden_record("classification_free")["payload"]["candidates"]]
        ),
        "ref_in_video_question": with_payload(golden_record("video"), qa=[["what is <ref>this", "a car"]]),
        "box_closer_ending_video_answer": with_payload(golden_record("video"), qa=[["what is this", "a car </box>"]]),
        "box_closer_ending_multiview_answer": with_payload(golden_record("multiview"), qa=[["Where is <c1>?", "ahead </box>"]]),
        # A video's first question went into an f-string, which stringified
        # whatever it was: both commands passed the record, and validate
        # refused the unclosed <ref> that convert wrote for the list.
        "video_question_is_a_list": with_payload(golden_record("video"), qa=[[["<ref>"], "ok"]]),
        "video_question_is_a_number": with_payload(golden_record("video"), qa=[[5, "ok"]]),
        "ref_as_a_camera_name": json.loads(json.dumps(multiview_scene([])).replace('"CAM_0"', '"<ref>"')),
        # Meta dims stats plans from but validate once did not read.
        "meta_width_not_a_number": converted_golden("region_inline", width="wide"),
        "meta_width_zero": converted_golden("region_inline", width="0"),
        "meta_width_past_the_float_range": converted_golden("region_inline", width="9" * 401),
        # JSON objects written as arrays of [key, value] pairs, which both
        # commands once read as the objects they spell.
        "multiview_views_as_pairs": multiview_as_pairs("views"),
        "multiview_view_dims_as_pairs": multiview_as_pairs("view_dims"),
        "multiview_objects_entries_as_pairs": multiview_as_pairs("objects"),
    }

    # Fields of the wrong JSON type or arity, which both commands once accepted
    # (a width of 10.9 was truncated to 10, and an answer_is_object of "false"
    # counted as true).
    SMALL = {"box": [0, 0, 5, 5], "width": 10, "height": 10}
    WRONG_TYPES = {
        "width_float": with_payload(golden_record("grounding"), **{**SMALL, "width": 10.9}),
        "width_string": with_payload(golden_record("grounding"), **{**SMALL, "width": "10"}),
        "box_strings": with_payload(golden_record("grounding"), **{**SMALL, "box": ["0", "0", "5", "5"]}),
        "box_bools": with_payload(golden_record("grounding"), **{**SMALL, "box": [False, 0, True, 5]}),
        "center_three_numbers": multiview_scene([{"id": "c1", "camera": "CAM_0", "center": [50, 5, 1]}]),
        "answer_is_object_string": with_payload(golden_record("region_inline"), answer_is_object="false"),
        "answer_is_object_number": with_payload(golden_record("region_inline"), answer_is_object=1),
    }

    @pytest.mark.parametrize("name", sorted(SEEDS))
    def test_well_formed_records_pass_both(self, name):
        assert verdicts(self.SEEDS[name]) == (0, 0)

    @pytest.mark.parametrize("name", sorted(OUTPUTS))
    def test_converted_outputs_pass_validate_and_convert_only_as_vqa(self, name):
        # The vqa golden's output is a vqa record already.
        assert verdicts(self.OUTPUTS[name]) == ((0, 0) if name == "vqa" else (0, 1))
        assert verdicts({**self.OUTPUTS[name], "task": "vqa"}) == (0, 0)

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_probes_fail_both(self, probe):
        assert verdicts(self.PROBES[probe]) == (1, 1)

    @pytest.mark.parametrize("probe", ["meta_width_not_a_number", "meta_width_zero", "meta_width_past_the_float_range"])
    def test_stats_refuses_the_meta_dims_validate_refuses(self, capsys, tmp_path, probe):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [self.PROBES[probe]])
        code, stdout, err = run(capsys, "stats", str(src))
        assert (code, stdout) == (1, "")
        assert json.loads(err)["message"].startswith("line 1: record 'med-reg-0001': ")

    @pytest.mark.parametrize("probe", [name for name in sorted(PROBES) if name.endswith("_as_pairs")])
    def test_stats_refuses_an_object_written_as_pairs(self, capsys, tmp_path, probe):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [self.PROBES[probe]])
        code, stdout, err = run(capsys, "stats", str(src))
        assert (code, stdout) == (1, "")
        assert json.loads(err)["message"].startswith("line 1: record 'drive-mv-0001': malformed payload: ValueError(")
        assert "must be an object" in json.loads(err)["message"]

    @pytest.mark.parametrize("case", sorted(WRONG_TYPES))
    def test_wrong_types_and_arities_fail_both(self, capsys, tmp_path, case):
        record = self.WRONG_TYPES[case]
        assert verdicts(record) == (1, 1)
        if case.startswith("width"):  # stats reads raw dims through the same decode
            src = tmp_path / "in.jsonl"
            write_jsonl(src, [record])
            code, _, err = run(capsys, "stats", str(src))
            assert code == 1
            assert "width and height must be 2 integers" in json.loads(err)["message"]

    # An integer past the float range, which math.isfinite cannot take: each
    # was refused as "malformed payload: OverflowError(...)".
    HUGE = 10**400
    PAST_THE_FLOAT_RANGE = {
        "box": (with_payload(golden_record("grounding"), box=[210, 90, HUGE, 450]), "box [x1, y1, x2, y2] must be 4 finite"),
        "width": (with_payload(golden_record("grounding"), width=HUGE), "width and height must be 2 integers"),
        "height": (with_payload(golden_record("region_inline"), height=HUGE), "width and height must be 2 integers"),
        "center": (multiview_scene([{"id": "c1", "camera": "CAM_0", "center": [50, HUGE]}]), "center must be 2 finite"),
        "view_dims": (
            json.loads(json.dumps(multiview_scene([])).replace("[100, 100]", f"[{HUGE}, 100]", 1)),
            "view_dims 'CAM_0' must be 2 integers",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PAST_THE_FLOAT_RANGE))
    def test_an_int_past_the_float_range_is_refused_by_name(self, capsys, tmp_path, case):
        record, message = self.PAST_THE_FLOAT_RANGE[case]
        assert verdicts(record) == (1, 1)
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [record])
        code, stdout, _ = run(capsys, "validate", str(src))
        messages = [json.loads(stdout.splitlines()[0])["error"]]
        for argv in (["convert", "--task", record["task"], "-i", str(src), "-o", str(tmp_path / "out.jsonl")],
                     ["stats", str(src)]):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (1, "")
            messages.append(json.loads(err)["message"])
        assert messages[1] == messages[2] == f"line 1: {messages[0]}"
        assert messages[0].startswith(f"record {record['id']!r}: malformed payload: ValueError({message!r}"[:-1])
        assert "OverflowError" not in messages[0]

    # Values a mutation puts in place of one part of a record: wrong types
    # and arities, non-finite numbers, reserved tokens, unknown c-tags,
    # centres outside any view and strings holding a lone surrogate.
    MUTANTS = st.one_of(
        st.sampled_from([
            None, True, 0, -1, 10.9, 1e6, float("nan"), float("inf"), "", "10", "<ref>", "</box>",
            "<box>[[0, 0, 2000, 5]]</box>", "<c9>", "<c1>", "<image>", [], [1, 2, 3], [5000, 5], [-1, 3],
            ["0", "0", "5", "5"], [False, 0, True, 5], [[1, 2]], [["q"]], {}, {"id": "c1"},
            "\ud800", "a\udcff",
        ]),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
            max_leaves=6,
        ),
    )

    # A list or an object that holds a reserved token: an f-string would turn it into markup.
    MARKUP = st.sampled_from([["<ref>"], ["</box>"], {"q": "<box>"}, {"q": "</ref>"}])

    @staticmethod
    def at(value, path):
        """The part of a JSON value at a key path."""
        for step in path:
            value = value[step]
        return value

    @staticmethod
    def paths(value, path=()):
        """Every place inside a JSON value, as a key path."""
        yield path
        items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
        for key, item in items:
            yield from TestValidateAgreesWithConvert.paths(item, (*path, key))

    def mutated(self, data, seeds):
        """A copy of one of ``seeds`` with one to three parts replaced, and the seed's task."""
        record = copy.deepcopy(seeds[data.draw(st.sampled_from(sorted(seeds)), label="seed")])
        task = record["task"]
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            # Any place but the whole record (the envelope's own keys, its meta and every part of its
            # payload) takes a mutant; or, half the time, a payload text takes markup held in another type.
            places = list(self.paths(record))[1:]
            texts = [path for path in places if path[0] == "payload" and isinstance(self.at(record, path), str)]
            if texts and data.draw(st.booleans(), label="markup in a text's place"):
                path, value = data.draw(st.sampled_from(texts), label="path"), data.draw(self.MARKUP, label="value")
            else:
                path, value = data.draw(st.sampled_from(places), label="path"), data.draw(self.MUTANTS, label="value")
            *parents, key = path
            self.at(record, parents)[key] = copy.deepcopy(value)
        return record, task

    @settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_validate_passes_exactly_when_convert_does(self, data):
        record, task = self.mutated(data, self.SEEDS)
        validated, converted = verdicts(record, task)
        assert validated in (0, 1)
        # A payload mutated into a conversation converts only as vqa, so only there must the two agree.
        if not is_conversation(record) or record["task"] == task == "vqa":
            assert validated == converted

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_verdict_on_a_conversation_is_pass_or_fail(self, data):
        assert set(verdicts(*self.mutated(data, self.OUTPUTS))) <= {0, 1}


class TestLinesThatAreNotJson:
    # NaN and Infinity are not JSON, and a line nested past the interpreter's
    # recursion limit cannot be decoded: every command refuses the line as it reads it.
    @staticmethod
    def source(tmp_path, constant):
        path = tmp_path / "in.jsonl"
        bad = json.dumps(classification_record(1)).replace('"meadow",', f'"meadow", {constant},', 1)
        path.write_text(json.dumps(classification_record(0)) + "\n" + bad + "\n", encoding="utf-8")
        return str(path)

    COMMANDS = {
        "convert": lambda src, tmp_path: ["convert", "--task", "classification", "-i", src, "-o", str(tmp_path / "out.jsonl")],
        "stats": lambda src, tmp_path: ["stats", src],
        "mix": lambda src, tmp_path: TestNotUtf8.mix_argv(tmp_path, src),
    }

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_finite_number_is_one_json_error(self, capsys, tmp_path, command, constant):
        src = self.source(tmp_path, constant)
        code, stdout, err = run(capsys, *self.COMMANDS[command](src, tmp_path))
        assert code == 1
        assert stdout == ""
        # mix reads several sources, so its errors name the source as the manifest does.
        where = f"{src}: " if command == "mix" else ""
        assert json.loads(err)["message"] == f"{where}line 2: not valid JSON: {constant} is not a finite number"

    # A string holding a lone surrogate can be written in JSON only as a \u
    # escape, and no output can encode it, so it is refused as the line is read.
    @pytest.mark.parametrize("command", [*sorted(COMMANDS), "eval"])
    def test_lone_surrogate_is_one_json_error(self, capsys, tmp_path, command):
        if command == "eval":
            src = str(tmp_path / "pairs.jsonl")
            write_jsonl(src, [{"prediction": "a", "references": ["a"]}, {"prediction": "a\udcff", "references": ["a"]}])
            argv = ["eval", "--metric", "bleu", "-i", src]
        else:
            src = self.source(tmp_path, '"\\udcff"')
            argv = self.COMMANDS[command](src, tmp_path)
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        where = f"{src}: " if command == "mix" else ""
        assert json.loads(err)["message"] == f"{where}line 2: not valid JSON: lone surrogate '\\udcff' in a string"
        assert not list(tmp_path.glob("*.tmp")) and not (tmp_path / "out.jsonl").exists()

    def test_validate_reports_a_lone_surrogate(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "validate", self.source(tmp_path, '"\\ud800"'))
        assert code == 1
        assert [json.loads(line) for line in stdout.splitlines()] == [
            {"line": 2, "error": "not valid JSON: lone surrogate '\\ud800' in a string"},
            {"checked": 2, "errors": 1},
        ]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_line_that_is_not_an_object_is_one_json_error(self, capsys, tmp_path, command):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(classification_record(0)) + "\n[1, 2]\n", encoding="utf-8")
        code, stdout, err = run(capsys, *self.COMMANDS[command](str(src), tmp_path))
        assert (code, stdout) == (1, "")
        where = f"{src}: " if command == "mix" else ""
        assert json.loads(err)["message"] == f"{where}line 2: expected a JSON object"
        code, stdout, _ = run(capsys, "validate", str(src))
        assert (code, json.loads(stdout.splitlines()[0])) == (1, {"line": 2, "error": "expected a JSON object"})

    def test_validate_reports_the_line(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "validate", self.source(tmp_path, "NaN"))
        assert code == 1
        assert [json.loads(line) for line in stdout.splitlines()] == [
            {"line": 2, "error": "not valid JSON: NaN is not a finite number"},
            {"checked": 2, "errors": 1},
        ]

    @pytest.mark.parametrize("command", ["convert", "stats", "eval"])
    def test_too_deeply_nested_line_is_one_json_error(self, capsys, tmp_path, command):
        src = tmp_path / "deep.jsonl"
        src.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        argv = {"convert": ["convert", "--task", "vqa", "-i", str(src), "-o", "-"],
                "stats": ["stats", str(src)],
                "eval": ["eval", "--metric", "bleu", "-i", str(src)]}[command]
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert json.loads(err)["message"].startswith("line 1: not valid JSON: maximum recursion depth exceeded")


class TestStats:
    def test_token_totals_match_planner(self, capsys, tmp_path):
        records = [
            {"id": "g-1", "schema_version": "1", "task": "grounding", "meta": {},
             "payload": {"image": "a.png",
                          "expression": "a bridge",
                          "box": [0, 0, 10, 10], "width": 1344, "height": 896}},
            {"id": "g-2", "schema_version": "1", "task": "grounding", "meta": {},
             "payload": {"image": "b.png",
                          "expression": "a dock",
                          "box": [0, 0, 10, 10], "width": 448, "height": 448}},
        ]
        src = tmp_path / "in.jsonl"
        write_jsonl(src, records)
        code, out, _ = run(capsys, "stats", str(src))
        assert code == 0
        stats = json.loads(out.strip().splitlines()[-1])
        expected = sum(
            token_count(plan_tiles(ImageDims(w, h)))
            for w, h in ((1344, 896), (448, 448))
        )
        assert stats["visual_tokens"] == expected
        assert stats["records"] == 2

    def test_multiview_uses_canvas_dims(self, capsys):
        code, out, _ = run(capsys, "stats", str(GOLDEN_DIR / "multiview.jsonl"))
        assert code == 0
        stats = json.loads(out.strip().splitlines()[-1])
        # 6x2 tiles + thumbnail at 256 tokens each.
        assert stats["visual_tokens"] == 13 * 256

    def test_stdin_and_file_input_give_identical_summary(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "all.jsonl"
        src.write_bytes(b"".join(
            (GOLDEN_DIR / f"{name}.jsonl").read_bytes() for name, _ in TestGoldenFiles.CASES
        ))
        code, from_file, _ = run(capsys, "stats", str(src), "--max-tiles", "12")
        assert code == 0
        code, from_stdin, _ = run_stdin(
            capsys, monkeypatch, src.read_bytes(), "stats", "-", "--max-tiles", "12"
        )
        assert code == 0
        assert from_stdin == from_file
        assert json.loads(from_file)["records"] == len(src.read_bytes().splitlines())

    def test_malformed_dims_are_one_json_error(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        bad = with_payload(golden_record("grounding", id="g-bad"), width="abc")
        write_jsonl(src, [golden_record("grounding"), bad])
        code, stdout, err = run(capsys, "stats", str(src))
        assert code == 1
        assert stdout == ""
        assert json.loads(err)["message"].startswith("line 2: record 'g-bad': malformed payload: ValueError")

    def test_the_config_template_is_the_one_convert_uses(self, capsys, tmp_path):
        # 27 options are fine free-form but too many to letter: under an mcq config both refuse the record.
        src = tmp_path / "in.jsonl"
        record = with_payload(golden_record("classification_mcq", id="r1"),
                              candidates=[f"option {i}" for i in range(27)], truth="option 0")
        write_jsonl(src, [record])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"template_style": "mcq"}))
        message = "line 1: record 'r1': MCQ supports at most 26 options, got 27"
        code, _, err = run(capsys, "convert", "--task", "classification", "--config", str(config),
                                "-i", str(src), "-o", str(tmp_path / "out.jsonl"))
        assert (code, json.loads(err)["message"]) == (1, message)
        code, stdout, err = run(capsys, "stats", str(src), "--config", str(config))
        assert (code, stdout, json.loads(err)["message"]) == (1, "", message)
        assert run(capsys, "stats", str(src))[0] == 0

    # stats plans the sample convert makes, so a field convert refuses is refused here too.
    WRONG_SHAPES = {
        "frames_text": (with_payload(golden_record("video"), frames="abcd"), "frames must be a list of strings"),
        "images_text": (with_payload(vqa_record([("user", "q"), ("assistant", "a")]), images="ab"),
                        "images must be a list of strings"),
    }

    @pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
    def test_a_string_is_not_a_list_of_images(self, capsys, tmp_path, case):
        record, message = self.WRONG_SHAPES[case]
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [record])
        code, stdout, err = run(capsys, "stats", str(src))
        assert (code, stdout) == (1, "")
        assert json.loads(err)["message"].startswith(f"line 1: record '{record['id']}': {message}, got ")

    def test_raw_input_counts_as_its_converted_output(self, capsys, tmp_path):
        # A classification record's stray width and height do not size its image: convert drops them.
        stray = tmp_path / "stray.input.jsonl"
        write_jsonl(stray, [with_payload(classification_record(0), width=1344, height=896)])
        argv = ["convert", "--task", "classification", "-i", str(stray), "-o", str(tmp_path / "stray.jsonl")]
        assert run(capsys, *argv)[0] == 0
        names = [(tmp_path, "stray")] + [(GOLDEN_DIR, name) for name, _ in TestGoldenFiles.CASES]
        for folder, name in names:
            code, from_raw, _ = run(capsys, "stats", str(folder / f"{name}.input.jsonl"))
            assert code == 0, name
            assert from_raw == run(capsys, "stats", str(folder / f"{name}.jsonl"))[1], name

    @pytest.mark.parametrize("task", errors.KNOWN_TASKS)
    def test_a_record_with_no_image_adds_no_histogram_key(self, capsys, tmp_path, task):
        # A record with no image is charged nothing, whatever its task, multiview included;
        # and Counter[k] += 0 would add "k": 0.
        src = tmp_path / "in.jsonl"
        turns = [("user", "q"), ("assistant", "a")]
        empty = {**vqa_record(turns, images=()), "task": task}
        write_jsonl(src, [empty, vqa_record(turns, images=("a.png", "b.png", "c.png"))])
        code, out, _ = run(capsys, "stats", str(src))
        summary = json.loads(out)
        assert (code, summary["records"], summary["visual_tokens"]) == (0, 2, 3 * 256)
        assert summary["tile_histogram"] == {"1": 3}
        write_jsonl(src, [empty])
        assert run(capsys, "validate", str(src))[0] == 0
        code, out, _ = run(capsys, "stats", str(src))
        assert (code, json.loads(out)["visual_tokens"], json.loads(out)["tile_histogram"]) == (0, 0, {})

    def test_a_bad_meta_width_is_refused_with_no_image_too(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        turns = [("user", "q"), ("assistant", "a")]
        record = {**vqa_record(turns, images=()), "meta": {"width": "abc", "height": "10"}}
        write_jsonl(src, [{**record, "task": "grounding"}])
        code, stdout, _ = run(capsys, "validate", str(src))
        row, summary = map(json.loads, stdout.splitlines())
        assert (code, summary) == (1, {"checked": 1, "errors": 1})
        assert row["line"] == 1 and row["error"].startswith("record 'vqa-0001': malformed payload: ValueError")
        code, stdout, err = run(capsys, "stats", str(src))
        assert (code, stdout) == (1, "")
        assert json.loads(err)["message"].startswith("line 1: record 'vqa-0001': malformed payload: ValueError")
        write_jsonl(src, [record])
        code, stdout, err = run(capsys, "convert", "--task", "vqa", "-i", str(src), "-o", "-")
        assert (code, stdout) == (1, "")
        assert json.loads(err)["message"].startswith("line 1: record 'vqa-0001': malformed payload: ValueError")

    # Each is refused once, on the merged settings, before any record is read.
    BAD_PLANNER_FLAGS = {
        "min_tiles_zero": ("--min-tiles", "0"),
        "tokens_per_tile_zero": ("--tokens-per-tile", "0"),
        "min_above_max": ("--min-tiles", "5", "--max-tiles", "2"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_PLANNER_FLAGS))
    def test_bad_planner_flags_on_an_empty_file(self, capsys, tmp_path, case):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, stdout, err = run(capsys, "stats", str(empty), *self.BAD_PLANNER_FLAGS[case])
        assert (code, stdout) == (2, "")
        assert json.loads(err)["error"] == "InvalidConfigError"

    def test_flags_are_laid_over_the_config_before_it_is_checked(self, capsys, tmp_path):
        config = tmp_path / "t.json"
        config.write_text(json.dumps({"min_tiles": 5, "max_tiles": 2}))
        code, out, _ = run(capsys, "stats", str(GOLDEN_DIR / "grounding.jsonl"),
                           "--config", str(config), "--max-tiles", "12")
        assert code == 0
        assert json.loads(out)["planner"]["min_tiles"] == 5
        assert json.loads(out)["planner"]["max_tiles"] == 12
        code, _, err = run(capsys, "stats", str(GOLDEN_DIR / "grounding.jsonl"), "--config", str(config))
        assert code == 2
        assert json.loads(err)["error"] == "InvalidConfigError"

    def test_planner_flags_change_totals(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{
            "id": "g-1", "schema_version": "1", "task": "grounding", "meta": {},
            "payload": {"image": "a.png", "expression": "a bridge",
                         "box": [0, 0, 10, 10], "width": 1344, "height": 896},
        }])
        _, out_default, _ = run(capsys, "stats", str(src))
        _, out_flat, _ = run(capsys, "stats", str(src), "--max-tiles", "1")
        default_tokens = json.loads(out_default.strip().splitlines()[-1])["visual_tokens"]
        flat_tokens = json.loads(out_flat.strip().splitlines()[-1])["visual_tokens"]
        assert default_tokens > flat_tokens == 256


class TestEval:
    def test_mcq_accuracy(self, capsys, tmp_path):
        pairs = [
            {"id": "1", "prediction": "A. cat", "references": ["A. cat"]},
            {"id": "2", "prediction": "B", "references": ["C. dog"]},
        ]
        src = tmp_path / "pairs.jsonl"
        write_jsonl(src, pairs)
        code, out, _ = run(capsys, "eval", "--metric", "mcq", "-i", str(src))
        assert code == 0
        result = json.loads(out.strip())
        assert result["metrics"]["mcq_accuracy"] == 0.5
        assert result["count"] == 2

    def test_bleu_identity_is_one(self, capsys, tmp_path):
        pairs = [{"id": "1",
                  "prediction": "the cat sat on the mat today okay",
                  "references": ["the cat sat on the mat today okay"]}]
        src = tmp_path / "pairs.jsonl"
        write_jsonl(src, pairs)
        code, out, _ = run(capsys, "eval", "--metric", "bleu", "-i", str(src))
        assert code == 0
        assert json.loads(out.strip())["metrics"]["bleu4"] == pytest.approx(1.0)

    def test_rouge_recall_only_flag(self, capsys, tmp_path):
        pairs = [{"id": "1", "prediction": "a b c d",
                  "reference": "a b"}]
        src = tmp_path / "pairs.jsonl"
        write_jsonl(src, pairs)
        _, out_f, _ = run(capsys, "eval", "--metric", "rouge", "-i", str(src))
        _, out_r, _ = run(capsys, "eval", "--metric", "rouge", "-i", str(src),
                          "--recall-only")
        f_score = json.loads(out_f.strip())["metrics"]["rouge_l"]
        recall = json.loads(out_r.strip())["metrics"]["rouge_l"]
        assert recall == pytest.approx(1.0)
        assert f_score == pytest.approx(2 * 0.5 * 1.0 / 1.5)

    def test_signals_report(self, capsys, tmp_path):
        pairs = [
            {"id": "1", "predicted": 1.0, "truth": 1.2},
            {"id": "2", "predicted": 3.0, "truth": 3.0},
        ]
        src = tmp_path / "pairs.jsonl"
        write_jsonl(src, pairs)
        code, out, _ = run(capsys, "eval", "--metric", "signals", "-i", str(src),
                           "--thresholds", "0.5,1.0")
        assert code == 0
        result = json.loads(out.strip())
        assert result["metrics"]["A_0.5"] == 1.0
        assert result["metrics"]["A_1.0"] == 1.0
        assert result["metrics"]["rmse"] == pytest.approx((0.04 / 2) ** 0.5)

    def test_benchmark_average(self, capsys, tmp_path):
        scores = {"MMB": 80.0, "ChartQA": 60.0, "OCRBench": 700.0}
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(scores))
        code, out, _ = run(capsys, "eval", "--metric", "avg", "--scores", str(path))
        assert code == 0
        avg = json.loads(out.strip())["metrics"]["average"]
        assert avg == pytest.approx((80.0 + 60.0 + 70.0) / 3)

    def test_average_without_scores_is_exit_2(self, capsys):
        code, stdout, err = run(capsys, "eval", "--metric", "avg")
        assert (code, stdout, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["message"] == "eval --metric avg requires --scores FILE"

    def test_benchmark_average_missing_key(self, capsys, tmp_path):
        path = tmp_path / "scores.json"
        path.write_text(json.dumps({"MMB": 80.0}))
        code, _, _ = run(capsys, "eval", "--metric", "avg", "--scores", str(path))
        assert code == 2

    @pytest.mark.parametrize("thresholds", ["abc", "1,,2"])
    def test_threshold_that_is_not_a_number_is_exit_2_before_the_pairs_are_read(self, capsys, tmp_path, thresholds):
        # The pairs file does not exist: reading it first would be exit 3.
        code, stdout, err = run(capsys, "eval", "--metric", "signals", "-i", str(tmp_path / "absent.jsonl"),
                                "--thresholds", thresholds)
        assert (code, stdout) == (2, "")
        assert "Traceback" not in err and err.count("\n") == 1
        assert json.loads(err)["error"] == "InvalidConfigError"

    @pytest.mark.parametrize(
        "metric,flags",
        [("bleu", ["--max-n", "7"]), ("bleu", ["--max-n", "0"]),
         ("signals", ["--thresholds", "0"]), ("signals", ["--thresholds", "0.5,nan"]), ("signals", ["--thresholds", "-1"]),
         ("signals", ["--thresholds", "1e999"]), ("signals", ["--thresholds", "0.5,inf"]),
         ("signals", ["--thresholds", "0.5,0.5"])],
    )
    def test_setting_out_of_range_is_exit_2_before_the_pairs_are_read(self, capsys, tmp_path, metric, flags):
        # The pairs file is empty: reading it first would be exit 1, a metric undefined on no pairs.
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        code, stdout, err = run(capsys, "eval", "--metric", metric, "-i", str(src), *flags)
        assert (code, stdout) == (2, "")
        assert "Traceback" not in err and err.count("\n") == 1
        assert json.loads(err)["error"] == "InvalidConfigError"

    def test_signal_error_past_the_float_range_is_exit_1(self, capsys, tmp_path):
        src = tmp_path / "pairs.jsonl"
        write_jsonl(src, [{"predicted": 1e308, "truth": -1e308}])
        code, stdout, err = run(capsys, "eval", "--metric", "signals", "-i", str(src))
        assert (code, stdout) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err)["message"].startswith("cannot write a non-finite number as JSON")

    def test_average_past_the_float_range_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "scores.json"
        path.write_text(json.dumps({"MMB": 1e308, "X": 1e308, "OCRBench": 700}))
        code, stdout, err = run(capsys, "eval", "--metric", "avg", "--scores", str(path))
        assert (code, stdout) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err)["exit_code"] == 1

    WRONG_TYPES = {
        "predicted_text": ("signals", {"predicted": "abc", "truth": 1.0}, "predicted must be a finite number"),
        "predicted_nan": ("signals", {"predicted": float("nan"), "truth": 1.0}, "not valid JSON: NaN is not a finite number"),
        "truth_bool": ("signals", {"predicted": 1.0, "truth": True}, "truth must be a finite number"),
        "prediction_number": ("bleu", {"prediction": 5, "references": ["a b"]}, "prediction must be a string"),
        "reference_number": ("rouge", {"prediction": "a b", "reference": 3}, "references must be a string or"),
        "references_mixed": ("mcq", {"prediction": "A", "references": ["A", 2]}, "references must be a string or"),
        "references_empty": ("bleu", {"prediction": "a", "references": []}, "references must be a string or"),
    }

    @pytest.mark.parametrize("case", sorted(WRONG_TYPES))
    def test_pair_field_of_the_wrong_type_is_one_json_error(self, capsys, tmp_path, case):
        metric, bad, message = self.WRONG_TYPES[case]
        good = {"predicted": 1.0, "truth": 1.0} if metric == "signals" else {"prediction": "a", "references": ["a"]}
        src = tmp_path / "pairs.jsonl"
        write_jsonl(src, [good, bad])
        code, stdout, err = run(capsys, "eval", "--metric", metric, "-i", str(src))
        assert code == 1
        assert stdout == ""
        error = json.loads(err)
        assert error["error"] == "InvalidRecordError"
        assert error["message"].startswith(f"line 2: {message}")


class TestNotUtf8:
    # A line that is not UTF-8 ends every reading command but validate in one
    # JSON error naming it; validate reports it like any other bad line.
    @staticmethod
    def bad_file(tmp_path, first_line):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(json.dumps(first_line).encode("utf-8") + b"\ngarbage\xff\n")
        return str(path)

    @staticmethod
    def mix_argv(tmp_path, domain=None):
        domain = domain or TestNotUtf8.bad_file(tmp_path, classification_record(0))
        manifest = tmp_path / "mix.json"
        manifest.write_text(json.dumps({"domain_sources": [{"id": "d", "path": domain}], "ratio": 0, "seed": 0}))
        return ["mix", "--manifest", str(manifest), "-o", str(tmp_path / "mixed.jsonl")]

    COMMANDS = {
        "convert": lambda tmp_path: ["convert", "--task", "classification", "-i",
                                     TestNotUtf8.bad_file(tmp_path, classification_record(0)),
                                     "-o", str(tmp_path / "out.jsonl")],
        "stats": lambda tmp_path: ["stats", TestNotUtf8.bad_file(tmp_path, classification_record(0))],
        "eval": lambda tmp_path: ["eval", "--metric", "bleu", "-i",
                                  TestNotUtf8.bad_file(tmp_path, {"prediction": "a", "references": ["a"]})],
        "mix": mix_argv,
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_invalid_utf8_is_one_json_error(self, capsys, tmp_path, command):
        code, stdout, err = run(capsys, *self.COMMANDS[command](tmp_path))
        assert code == 1
        assert stdout == ""
        where = f"{tmp_path / 'bad.jsonl'}: " if command == "mix" else ""
        message = f"{where}line 2: not valid UTF-8"
        assert json.loads(err) == {"error": "InvalidRecordError", "message": message, "exit_code": 1}
        assert not list(tmp_path.glob("*.tmp")) and not (tmp_path / "out.jsonl").exists()

    def test_validate_reports_a_line_that_is_not_utf8_and_goes_on(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(classification_record(0)).encode("utf-8")
        path.write_bytes(b"garbage\xff\n{\"bad json\n" + good + b"\n")
        code, stdout, err = run(capsys, "validate", str(path))
        assert code == 1
        assert err == ""
        lines = [json.loads(line) for line in stdout.splitlines()]
        assert lines[0] == {"line": 1, "error": "not valid UTF-8"}
        assert lines[1]["line"] == 2 and lines[1]["error"].startswith("not valid JSON")
        assert lines[2:] == [{"checked": 3, "errors": 2}]

    def test_stdin_is_read_as_bytes(self, capsys, monkeypatch, tmp_path):
        data = Path(self.bad_file(tmp_path, classification_record(0))).read_bytes()
        code, stdout, _ = run_stdin(capsys, monkeypatch, data, "validate", "-")
        assert code == 1
        assert json.loads(stdout.splitlines()[0]) == {"line": 2, "error": "not valid UTF-8"}

    def test_crlf_input_converts_like_lf_input(self, capsys, tmp_path):
        lines = [json.dumps(classification_record(i)) for i in range(3)]
        outputs = []
        for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
            src = tmp_path / f"{name}.jsonl"
            src.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
            out = tmp_path / f"{name}.out.jsonl"
            assert run(capsys, "convert", "--task", "classification", "-i", str(src), "-o", str(out))[0] == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestSettingsFiles:
    # The convert/stats/plan-tiles --config, the mix manifest and the eval
    # scores are each read as one JSON object and type-checked.  A bad one ends
    # in one JSON line on stderr: exit 3 if it cannot be read, else exit 2.
    BASES = {
        "config": {},
        "manifest": {
            "domain_sources": [{"id": "d", "path": "d.jsonl"}],
            "general_sources": [{"id": "g", "path": "g.jsonl"}],
            "ratio": 1,
            "seed": 0,
        },
        "scores": {"MMB": 80.0, "OCRBench": 700},
    }

    ABSENT = object()  # a key laid over as ABSENT is left out of the file

    # case -> (file, keys laid over its base); each is a wrong type, a value out of range or a missing key.
    PROBES = {
        "config_min_tiles_text": ("config", {"min_tiles": "3"}),
        "config_min_tiles_nan": ("config", {"min_tiles": float("nan")}),
        "config_use_thumbnail_text": ("config", {"use_thumbnail": "false"}),
        "config_seed_bool": ("config", {"seed": True}),
        "config_task_number": ("config", {"task": 5}),
        "manifest_repeat_text": ("manifest", {"domain_sources": [{"id": "d", "path": "d.jsonl", "repeat": "abc"}]}),
        "manifest_repeat_float": ("manifest", {"domain_sources": [{"id": "d", "path": "d.jsonl", "repeat": 2.0}]}),
        "manifest_domain_sources_number": ("manifest", {"domain_sources": 5}),
        "manifest_general_source_not_object": ("manifest", {"general_sources": ["g.jsonl"]}),
        "manifest_id_number": ("manifest", {"domain_sources": [{"id": 1, "path": "d.jsonl"}]}),
        "manifest_path_list": ("manifest", {"domain_sources": [{"id": "d", "path": ["d.jsonl"]}]}),
        "manifest_seed_text": ("manifest", {"seed": "x"}),
        "manifest_seed_digits": ("manifest", {"seed": "3"}),
        "manifest_seed_bool": ("manifest", {"seed": True}),
        "manifest_seed_float": ("manifest", {"seed": 2.7}),
        "manifest_ratio_nan": ("manifest", {"ratio": float("nan")}),
        "manifest_ratio_nan_text": ("manifest", {"ratio": "nan"}),
        "manifest_ratio_inf_text": ("manifest", {"ratio": "inf:1"}),
        "manifest_allow_replacement_text": ("manifest", {"allow_replacement": "false"}),
        "manifest_weight_nan_text": ("manifest", {"general_sources": [{"id": "g", "path": "g.jsonl", "weight": "nan"}]}),
        "manifest_weight_bool": ("manifest", {"general_sources": [{"id": "g", "path": "g.jsonl", "weight": True}]}),
        "manifest_weights_sum_past_float_range": ("manifest", {"general_sources": [
            {"id": "g", "path": "g.jsonl", "weight": 1e308}, {"id": "h", "path": "g.jsonl", "weight": 1e308}
        ]}),
        "manifest_without_seed": ("manifest", {"seed": ABSENT}),
        "manifest_domain_source_without_path": ("manifest", {"domain_sources": [{"id": "d"}]}),
        # Found by the settings property: the general quota's float product raised OverflowError.
        "manifest_repeat_past_float_range": ("manifest", {"domain_sources": [{"id": "d", "path": "d.jsonl", "repeat": 10**400}]}),
        "manifest_no_domain_source": ("manifest", {"domain_sources": [], "ratio": 0}),
        "scores_list": ("scores", ["OCRBench"]),
        "scores_text": ("scores", {"OCRBench": "x"}),
        "scores_nan": ("scores", {"OCRBench": float("nan")}),
        "scores_bool": ("scores", {"MMB": True}),
        "scores_past_float_range": ("scores", {"MMB": 10**400}),
    }

    @staticmethod
    def run_with(capsys, monkeypatch, tmp_path, kind, content: bytes | None):
        """Run the command that reads a ``kind`` file holding ``content`` (None: a directory)."""
        monkeypatch.chdir(tmp_path)
        write_jsonl(tmp_path / "d.jsonl", [classification_record(i) for i in range(4)])
        write_jsonl(tmp_path / "g.jsonl", [classification_record(10 + i) for i in range(4)])
        path = tmp_path / f"{kind}.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = {
            "config": ["plan-tiles", "448", "448", "--config", str(path)],
            "manifest": ["mix", "--manifest", str(path), "-o", "mixed.jsonl"],
            "scores": ["eval", "--metric", "avg", "--scores", str(path)],
        }[kind]
        return run(capsys, *argv)

    @staticmethod
    def one_error_line(err: str, code: int) -> str:
        assert "Traceback" not in err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["exit_code"] == code
        return error["message"]

    @pytest.mark.parametrize("kind", sorted(BASES))
    def test_base_files_pass(self, capsys, monkeypatch, tmp_path, kind):
        # So a probe fails only by what it lays over its base.
        code, _, err = self.run_with(capsys, monkeypatch, tmp_path, kind, json.dumps(self.BASES[kind]).encode())
        assert (code, err) == (0, "")

    def test_settings_are_checked_as_built_by_position_and_by_keyword(self):
        # The type message names the field's annotation as it is written.
        with pytest.raises(errors.InvalidConfigError, match=r"^config key 'seed' must be int, got '3'$"):
            cli.PipelineConfig(seed="3")
        with pytest.raises(errors.InvalidConfigError, match=r"^config key 'task' must be str \| None, got 5$"):
            cli.PipelineConfig(5)
        with pytest.raises(errors.InvalidConfigError, match="^tile bounds need 1 <= min <= max, got 0..40$"):
            cli.PipelineConfig(None, None, None, 0)
        with pytest.raises(AttributeError):
            cli.PipelineConfig().seed = 1

    @pytest.mark.parametrize("case", sorted(PROBES))
    def test_wrong_type_or_value_is_exit_2(self, capsys, monkeypatch, tmp_path, case):
        kind, changes = self.PROBES[case]
        if isinstance(changes, dict):
            content = {key: value for key, value in {**self.BASES[kind], **changes}.items() if value is not self.ABSENT}
        else:
            content = changes
        code, stdout, err = self.run_with(capsys, monkeypatch, tmp_path, kind, json.dumps(content).encode())
        assert code == 2
        assert stdout == ""
        self.one_error_line(err, 2)
        assert not (tmp_path / "mixed.jsonl").exists()

    # content -> (exit code, how the message goes on after "<file> <path>")
    UNREADABLE = {
        "not_utf8": (b'{"seed": "\xff"}', 2, " is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        "not_json": (b"{seed", 2, " is not valid JSON: "),
        "nan": (b"NaN", 2, " is not valid JSON: NaN is not a finite number"),
        "infinity_inside": (b'{"seed": -Infinity}', 2, " is not valid JSON: -Infinity is not a finite number"),
        "lone_surrogate": (b'{"seed": "\\ud800"}', 2, " is not valid JSON: lone surrogate '\\ud800' in a string"),
        "not_an_object": (b"[1, 2]", 2, " must be a JSON object"),
        "a_directory": (None, 3, ": "),
    }

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    @pytest.mark.parametrize("kind", sorted(BASES))
    def test_file_that_is_not_a_json_object(self, capsys, monkeypatch, tmp_path, kind, case):
        content, code, rest = self.UNREADABLE[case]
        got, stdout, err = self.run_with(capsys, monkeypatch, tmp_path, kind, content)
        assert (got, stdout) == (code, "")
        message = self.one_error_line(err, code)
        path = tmp_path / f"{kind}.json"
        assert message.startswith(f"cannot read {kind} {path}{rest}" if code == 3 else f"{kind} {path}{rest}")

    # The classification template is built before any record is read; the
    # input's one line is not JSON, so a later check would be exit 1.
    TEMPLATES = {
        "config_template_style_unknown": (
            ["--config", {"template_style": "xyz"}], "template style must be 'free' or 'mcq', got 'xyz'"
        ),
        "config_prompt_prefix_marker": (
            ["--config", {"prompt_prefix": "Look at <ref>"}], "template prefix contains reserved token '<ref>'"
        ),
        "flag_prompt_prefix_marker": (["--prompt-prefix", "Look at <ref>"], "template prefix contains reserved token '<ref>'"),
        "flag_prompt_suffix_marker": (["--prompt-suffix", "<box>"], "template suffix contains reserved token '<box>'"),
    }

    @pytest.mark.parametrize("case", sorted(TEMPLATES))
    def test_convert_template_is_checked_before_any_record(self, capsys, tmp_path, case):
        (flag, value), message = self.TEMPLATES[case]
        if isinstance(value, dict):
            (tmp_path / "config.json").write_text(json.dumps(value))
            value = str(tmp_path / "config.json")
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text("{nope\n")
        code, stdout, err = run(capsys, "convert", "--task", "classification", "-i", str(src), "-o", str(out), flag, value)
        assert (code, stdout) == (2, "")
        assert self.one_error_line(err, 2) == message
        assert not out.exists()

    # A settings file is valid or not whatever command reads it.
    @pytest.mark.parametrize("case", sorted(case for case in TEMPLATES if case.startswith("config_")))
    @pytest.mark.parametrize("command", [["stats", "in.jsonl"], ["plan-tiles", "448", "448"]], ids=lambda c: c[0])
    def test_config_template_is_checked_by_every_command(self, capsys, monkeypatch, tmp_path, case, command):
        (flag, value), message = self.TEMPLATES[case]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(value))
        (tmp_path / "in.jsonl").write_text("{nope\n")
        code, stdout, err = run(capsys, *command, flag, "config.json")
        assert (code, stdout) == (2, "")
        assert self.one_error_line(err, 2) == message

    # A mixture longer than MAX_MIX_RECORDS is refused before any position is
    # made: one JSON line, exit 2, no output.  The base manifest mixes 4 domain
    # and 4 general records.
    @pytest.mark.parametrize("cap,code", [(8, 0), (7, 2)], ids=["at_the_cap", "one_past_it"])
    def test_a_mixture_past_the_cap_is_exit_2(self, capsys, monkeypatch, tmp_path, cap, code):
        monkeypatch.setattr(mixer, "MAX_MIX_RECORDS", cap)
        content = json.dumps(self.BASES["manifest"]).encode()
        got, stdout, err = self.run_with(capsys, monkeypatch, tmp_path, "manifest", content)
        assert got == code
        if code == 0:
            assert len((tmp_path / "mixed.jsonl").read_text().splitlines()) == 8
        else:
            message = "a mixture of 4 domain and 4 general records is past the cap of 7 records"
            assert (stdout, self.one_error_line(err, 2)) == ("", message)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "g.jsonl", "manifest.json"]

    # Before the cap these ran without bound: a run per repeat pass and a
    # position per replacement draw, made before any record was written.
    UNBOUNDED = {
        "repeat": {"domain_sources": [{"id": "d", "path": "d.jsonl", "repeat": 10**12}], "ratio": 0},
        "replacement": {"ratio": 1e12, "allow_replacement": True},
    }

    @pytest.mark.parametrize("case", sorted(UNBOUNDED))
    def test_an_unbounded_mixture_is_refused_at_once(self, tmp_path, case):
        write_jsonl(tmp_path / "d.jsonl", [classification_record(i) for i in range(4)])
        write_jsonl(tmp_path / "g.jsonl", [classification_record(10 + i) for i in range(4)])
        (tmp_path / "manifest.json").write_text(json.dumps({**self.BASES["manifest"], **self.UNBOUNDED[case]}))

        def cap_address_space():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        started = time.monotonic()
        proc = run_python(
            "-m", "vlprep.cli", "mix", "--manifest", "manifest.json", "-o", "mixed.jsonl",
            check=False, cwd=tmp_path, preexec_fn=cap_address_space,
        )
        assert time.monotonic() - started < 1.0
        assert (proc.returncode, proc.stdout) == (2, "")
        assert self.one_error_line(proc.stderr, 2).endswith(f" is past the cap of {mixer.MAX_MIX_RECORDS} records")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "g.jsonl", "manifest.json"]

    # A general quota past the float range counts no records: one JSON line,
    # exit 1, no output (weights that sum past it are a PROBES case, exit 2).
    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"ratio": 1e308}, "the general quota 1e+308 x 4 is inf, not a finite number of records"),
            (
                {"general_sources": [{"id": "g", "path": "g.jsonl", "weight": 1e308}]},
                "the share 4 x 1e+308 / 1e+308 of the general quota is inf, not a finite number of records",
            ),
        ],
        ids=["ratio", "weight"],
    )
    def test_general_quota_past_the_float_range_is_exit_1(self, capsys, monkeypatch, tmp_path, changes, message):
        content = json.dumps({**self.BASES["manifest"], **changes}).encode()
        code, stdout, err = self.run_with(capsys, monkeypatch, tmp_path, "manifest", content)
        assert (code, stdout) == (1, "")
        assert self.one_error_line(err, 1) == message
        assert json.loads(err)["error"] == "InsufficientDataError"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "g.jsonl", "manifest.json"]

    def test_argv_text_that_is_not_utf8_is_exit_2(self, capsys, tmp_path):
        # Argv bytes that are not UTF-8 reach Python as lone surrogates (0xff as U+DCFF).  Text
        # a record would hold is refused; a path goes back to the OS as the bytes it was.
        src = tmp_path / os.fsdecode(b"in\xff.jsonl")
        out = tmp_path / os.fsdecode(b"out\xff.jsonl")
        write_jsonl(src, [classification_record(0)])
        argv = ["convert", "--task", "classification", "-i", str(src), "-o", str(out)]
        code, stdout, err = run(capsys, *argv, "--prompt-prefix", "a\udcff")
        assert (code, stdout) == (2, "")
        assert self.one_error_line(err, 2) == "config key 'prompt_prefix' holds a lone surrogate: 'a\\udcff'"
        assert not out.exists()
        assert run(capsys, *argv)[0] == 0 and out.exists()


def run_in_child(argv, cwd, timeout=10.0):
    """``main(argv)`` in a forked child in ``cwd``, on an empty stdin: its exit code, stdout and stderr.

    The child's address space is capped at 1 GiB past the parent's, so a run
    that grows without bound ends in a ``MemoryError``.  Any exception that
    escapes ``main`` is exit 70, with its traceback on stderr.  A child
    still running after ``timeout`` seconds is killed and fails the test.
    """
    with open("/proc/self/status") as status:
        used = next(int(line.split()[1]) << 10 for line in status if line.startswith("VmSize:"))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        pid = os.fork()
        if pid == 0:  # the child: it leaves only by os._exit
            code = 70
            try:
                os.chdir(cwd)
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                sys.stdin = io.TextIOWrapper(io.BytesIO(b""), encoding="utf-8")
                sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
                sys.stderr = open(2, "w", encoding="utf-8", closefd=False)
                hard = resource.getrlimit(resource.RLIMIT_AS)[1]
                cap = used + (1 << 30) if hard == resource.RLIM_INFINITY else min(used + (1 << 30), hard)
                resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
                code = main(argv)
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        deadline = time.monotonic() + timeout
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail(f"vlprep {argv} ran past {timeout} s")
            time.sleep(0.001)
        out.seek(0)
        err.seek(0)
        return os.waitstatus_to_exitcode(done[1]), out.read().decode("utf-8"), err.read().decode("utf-8")


class TestEverySettingsFileEndsInAnExitCode:
    # One part of a settings file replaced by a mutant, or taken out: whatever
    # the file says, the command ends in exit 0-3, a failure in one JSON line
    # on stderr and nothing else, and no run leaves a *.tmp file or a failed
    # run any file.  Each runs in a forked child under an address-space cap,
    # since a mixture could grow without bound.
    CONFIG = {
        "task": "classification", "input": "in.jsonl", "output": "out.jsonl", "min_tiles": 1, "max_tiles": 6,
        "use_thumbnail": True, "tokens_per_tile": 256, "template_style": "mcq", "prompt_prefix": "Look. ",
        "prompt_suffix": " Answer.", "shuffle_options": True, "seed": 3,
    }
    # base -> (file name, content, the commands that read it)
    BASES = {
        "config": ("config.json", CONFIG, [
            ["convert", "--config", "config.json"],
            ["stats", "in.jsonl", "--config", "config.json"],
            ["plan-tiles", "896", "448", "--config", "config.json"],
        ]),
        # Mixes 8 domain and 8 general records, drawn with replacement.
        "manifest": ("manifest.json", {
            "domain_sources": [{"id": "d", "path": "d.jsonl", "repeat": 2}],
            "general_sources": [{"id": "g", "path": "g.jsonl", "weight": 1.0}, {"id": "h", "path": "h.jsonl", "weight": 3}],
            "ratio": 1, "seed": 5, "allow_replacement": True,
        }, [["mix", "--manifest", "manifest.json", "-o", "mixed.jsonl"]]),
        "pairs": ("pairs.jsonl", [
            {"id": "p1", "prediction": "A. a harbor", "references": ["A", "B"]},
            {"id": "p2", "prediction": "the cat sat on the mat", "reference": "a cat sat on a mat"},
        ], [["eval", "--metric", metric, "-i", "pairs.jsonl"] for metric in ("mcq", "bleu", "rouge")]),
        "signals": ("signals.jsonl", [
            {"id": "s1", "predicted": 1.0, "truth": 1.2}, {"id": "s2", "predicted": -3, "truth": -2.5},
        ], [["eval", "--metric", "signals", "-i", "signals.jsonl", "--thresholds", "0.5,1"]]),
        "scores": ("scores.json", {"MMB": 80.0, "OCRBench": 700, "TextVQA": 70.5},
                   [["eval", "--metric", "avg", "--scores", "scores.json"]]),
    }
    # A mixture this long is past the cap in the child, so no mutant makes a long one.
    CAP = 1000
    TAKEN_OUT = object()
    # Counts past the mixture cap, past int64 and past the float range.
    PAST_A_RANGE = st.sampled_from([10**12, 1e12, 2**64, 10**400])

    def check(self, data, kinds):
        kind = data.draw(st.sampled_from(kinds), label="base")
        name, content, commands = self.BASES[kind]
        content = copy.deepcopy(content)
        at, places = TestValidateAgreesWithConvert.at, list(TestValidateAgreesWithConvert.paths(content))[1:]
        # Half the time a number takes a count past a range; else any part takes a mutant or is taken out.
        numbers = [path for path in places if type(at(content, path)) in (int, float)]
        if numbers and data.draw(st.booleans(), label="a count past a range in a number's place"):
            path, value = data.draw(st.sampled_from(numbers), label="path"), data.draw(self.PAST_A_RANGE, label="value")
        else:
            path = data.draw(st.sampled_from(places), label="path")
            value = data.draw(st.just(self.TAKEN_OUT) | TestValidateAgreesWithConvert.MUTANTS, label="value")
        *parents, key = path
        parent = at(content, parents)
        if value is self.TAKEN_OUT:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)
        argv = data.draw(st.sampled_from(commands), label="argv")
        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp)
            write_jsonl(folder / "in.jsonl", [classification_record(i) for i in range(2)])
            for source, first in (("d", 0), ("g", 10), ("h", 20)):
                write_jsonl(folder / f"{source}.jsonl", [classification_record(first + i) for i in range(4)])
            if name.endswith(".jsonl"):
                write_jsonl(folder / name, content)
            else:
                (folder / name).write_text(json.dumps(content))
            before = sorted(p.name for p in folder.iterdir())
            with mock.patch.object(mixer, "MAX_MIX_RECORDS", self.CAP):
                code, stdout, err = run_in_child(argv, folder)
            after = sorted(p.name for p in folder.iterdir())
        assert code in (0, 1, 2, 3), err
        assert not [p for p in after if p.endswith(".tmp")]
        if code != 0:
            assert stdout == ""
            TestSettingsFiles.one_error_line(err, code)
            assert after == before

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_config_or_an_eval_file(self, data):
        self.check(data, ["config", "pairs", "signals", "scores"])

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_mix_manifest(self, data):
        self.check(data, ["manifest"])


class TestLineSink:
    def test_two_sinks_on_one_path_do_not_collide(self, tmp_path):
        target = tmp_path / "out.jsonl"
        with _line_sink(str(target)) as first, _line_sink(str(target)) as second:
            first.write("first\n")
            second.write("second\n")
            temps = sorted(p.name for p in tmp_path.iterdir())
            assert len(temps) == 2
            assert all(name.startswith("out.jsonl.") and name.endswith(".tmp") for name in temps)
        # The inner sink commits first, so the outer one's lines are what remain.
        assert target.read_text() == "first\n"
        assert list(tmp_path.iterdir()) == [target]
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failed_run_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError):
            with _line_sink(str(target)) as out:
                out.write("partial\n")
                raise RuntimeError("conversion failed")
        assert list(tmp_path.iterdir()) == []


class TestProbedAttributes:
    # The benchmark's traced runs patch these module attributes by name, so
    # renaming or moving one turns its traced steps into failed operations.
    def test_patched_attributes_exist(self):
        assert cli.mix is mixer.mix
        assert cli.schema is schema
        assert cli.plan_tiles is geometry.plan_tiles
        assert cli.token_count is geometry.token_count
        for name in (
            "read_envelopes", "loads_envelope", "dumps_envelope", "validate_envelope", "parse_special_tokens",
            "payload_to_record", "payload_to_sample", "sample_to_payload", "Envelope",
        ):
            assert callable(getattr(schema, name)), name
        for task in ("classification", "grounding", "region", "multiview", "video"):
            assert callable(getattr(formats, f"convert_{task}")), task
        assert callable(formats.ConversationSample.validate)
        for name in ("mcq_accuracy", "bleu", "rouge_l", "control_signal_metrics"):
            assert callable(getattr(metrics, name)), name

    def test_validating_a_raw_record_reaches_the_patched_converter(self, monkeypatch):
        calls = []
        convert = formats.convert_grounding
        monkeypatch.setattr(formats, "convert_grounding", lambda *a, **k: calls.append(a) or convert(*a, **k))
        schema.validate_envelope(schema.Envelope(**golden_record("grounding")))
        assert len(calls) == 1

    def test_mix_with_a_list_loader_returns_a_sized_stream(self):
        pools = {
            path: [schema.Envelope(id=f"{path}-{i}", task="vqa", payload={"images": [], "turns": []})
                   for i in range(size)]
            for path, size in (("d", 8), ("g", 20))
        }
        manifest = mixer.MixManifest(
            domain_sources=(mixer.DomainSource("d", "d"),),
            general_sources=(mixer.GeneralSource("g", "g"),),
            ratio_r=0.5,
            seed=1,
        )
        stream, report = mixer.mix(manifest, loader=lambda path: list(pools[path]))
        assert len(stream) == 12 == report.domain_total + report.general_total
        assert stream[0] in pools["d"] + pools["g"]


class TestPlanTiles:
    def test_multiview_canvas_line(self, capsys):
        code, out, _ = run(capsys, "plan-tiles", "2688", "896")
        assert code == 0
        assert out.strip() == "6x2 tiles + thumbnail, 3328 tokens"

    def test_single_tile_line(self, capsys):
        code, out, _ = run(capsys, "plan-tiles", "448", "448")
        assert code == 0
        assert out.strip() == "1x1 tiles, 256 tokens"

    def test_max_tiles_flag(self, capsys):
        code, out, _ = run(capsys, "plan-tiles", "896", "448", "--max-tiles", "12")
        assert code == 0
        assert out.strip().startswith("2x1 tiles")

    def test_invalid_bounds(self, capsys):
        for flags in (("--min-tiles", "5", "--max-tiles", "4"), ("--min-tiles", "0")):
            code, stdout, err = run(capsys, "plan-tiles", "448", "448", *flags)
            assert (code, stdout) == (2, "")
            assert json.loads(err)["message"].startswith("tile bounds need 1 <= min <= max, got ")

    def test_max_tiles_past_the_limit_is_exit_2_before_any_plan(self, capsys, tmp_path):
        # The candidate table grows as max_tiles * ln(max_tiles), so no test plans with a large bound.
        config = tmp_path / "t.json"
        config.write_text(json.dumps({"max_tiles": 10**9}))
        records = tmp_path / "r.jsonl"
        write_jsonl(records, [golden_record("grounding")])
        for argv in (("plan-tiles", "448", "448", "--max-tiles", str(10**9)),
                     ("stats", str(records), "--config", str(config))):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (2, "")
            assert json.loads(err)["message"] == f"max_tiles must be at most {geometry.MAX_TILES_LIMIT}, got {10**9}"

    def test_max_tiles_at_the_limit_is_accepted(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")  # no record, so nothing is planned
        code, out, _ = run(capsys, "stats", str(empty), "--max-tiles", str(geometry.MAX_TILES_LIMIT))
        assert code == 0
        assert json.loads(out)["planner"]["max_tiles"] == geometry.MAX_TILES_LIMIT == 10_000

    def test_dimension_out_of_range_is_exit_2(self, capsys):
        past = "1" + "0" * 400
        for dims in ((past, "5"), ("5", past), ("0", "5"), ("5", "-3")):
            code, stdout, err = run(capsys, "plan-tiles", "--", *dims)
            assert (code, stdout) == (2, "")
            assert json.loads(err)["message"].startswith("width and height must be positive and fit a float, got ")

    def test_flags_are_laid_over_the_config_before_it_is_checked(self, capsys, tmp_path):
        config = tmp_path / "t.json"
        config.write_text(json.dumps({"min_tiles": 5, "max_tiles": 2}))
        code, out, _ = run(capsys, "plan-tiles", "896", "448", "--config", str(config), "--max-tiles", "12")
        assert (code, out) == (0, "4x2 tiles + thumbnail, 2304 tokens\n")


class TestValidateKernels:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "validate-kernels")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 4
        assert all("PASS" in line for line in lines)


def run_python(*args, check=True, text=True, env=(), **kwargs):
    """Run a fresh interpreter on this checkout's sources.

    ``env`` is laid over this process's environment; ``kwargs`` go to ``subprocess.run``.
    """
    path = os.pathsep.join(p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH", "")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, **dict(env), "PYTHONPATH": path},
        capture_output=True,
        text=text,
        timeout=60,
        check=check,
        **kwargs,
    )


# ``python -m vlprep.cli`` as runpy runs it, writing the names in sys.modules at
# exit to the file named by the first argument.  Unlike ``-X importtime``, this
# also sees the modules that importlib.import_module loads.
CLI_REPORTING_MODULES = """
import atexit, json, runpy, sys
report = sys.argv.pop(1)
atexit.register(lambda: open(report, "w").write(json.dumps(sorted(sys.modules))))
runpy.run_module("vlprep.cli", run_name="__main__", alter_sys=True)
"""


def run_cli_fresh(tmp_path, *argv):
    """``vlprep <argv>`` in a fresh interpreter: the finished process and the modules it had loaded."""
    report = tmp_path / "modules.json"
    proc = run_python("-c", CLI_REPORTING_MODULES, str(report), *argv, check=False)
    return proc, set(json.loads(report.read_text()))


class TestImportPath:
    # Every data command is a fresh process, and importing numpy was the
    # largest part of its start although only the kernels need it.
    LAZY_MODULES = ("numpy", "concurrent.futures", "multiprocessing")
    # The record types are named tuples: building dataclasses loaded these
    # (and ast, dis, tokenize) and cost every process about 30 ms.
    RECORD_TYPE_MACHINERY = ("dataclasses", "inspect")

    def test_cli_import_leaves_lazy_modules_unloaded(self):
        probe = "import sys, vlprep.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
        assert run_python("-c", probe, *self.LAZY_MODULES).stdout == "[]\n"

    def test_plan_tiles_command_leaves_lazy_modules_unloaded(self, tmp_path):
        proc, loaded = run_cli_fresh(tmp_path, "plan-tiles", "448", "448")
        assert (proc.returncode, proc.stdout) == (0, "1x1 tiles, 256 tokens\n")
        # The planner is all plan-tiles runs, so it starts on geometry alone.
        assert {name for name in loaded if name.startswith("vlprep")} == {"vlprep", "vlprep.errors", "vlprep.geometry"}
        assert not loaded & {*self.LAZY_MODULES, *self.RECORD_TYPE_MACHINERY}

    @pytest.mark.parametrize(
        "argv,unused",
        [
            ("convert --task grounding -i {domain} -o {tmp}/out.jsonl", {"vlprep.mixer", "vlprep.metrics", "hashlib"}),
            ("validate {domain}", {"vlprep.mixer", "vlprep.metrics", "hashlib"}),
            ("stats {domain}", {"vlprep.mixer", "vlprep.metrics", "hashlib"}),
            ("mix --manifest {tmp}/mix.json -o {tmp}/mixed.jsonl", {"vlprep.metrics"}),
            ("eval --metric mcq -i {tmp}/pairs.jsonl",
             {"vlprep.mixer", "vlprep.shards", "vlprep.schema", "vlprep.formats", "vlprep.seeding", "hashlib"}),
        ],
    )
    def test_data_command_runs_without_the_modules_it_never_calls(self, tmp_path, argv, unused):
        unused = {*unused, *self.RECORD_TYPE_MACHINERY}
        domain, general = GOLDEN_DIR / "grounding.input.jsonl", GOLDEN_DIR / "classification_free.input.jsonl"
        manifest = {"domain_sources": [{"id": "d", "path": str(domain)}],
                    "general_sources": [{"id": "g", "path": str(general)}], "ratio": 0.5, "seed": 1}
        (tmp_path / "mix.json").write_text(json.dumps(manifest))
        write_jsonl(tmp_path / "pairs.jsonl", [{"id": "1", "prediction": "A", "references": ["A. cat"]}])
        proc, loaded = run_cli_fresh(tmp_path, *(part.format(domain=domain, tmp=tmp_path) for part in argv.split()))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert not loaded & unused

    @pytest.mark.parametrize(
        "argv", ["validate {big}", "convert --task grounding -i {big} -o {tmp}/out.jsonl"]
    )
    def test_a_sharded_pass_loads_neither_signal_nor_string(self, tmp_path, argv):
        # signal is loaded only to kill a worker, and the MCQ letters are a constant: each import cost about 1 ms.
        big = tmp_path / "big.jsonl"
        line = (GOLDEN_DIR / "grounding.input.jsonl").read_bytes()
        big.write_bytes(line * (2 * shards.MIN_SHARD_BYTES // len(line) + 2))
        proc, loaded = run_cli_fresh(tmp_path, *(part.format(big=big, tmp=tmp_path) for part in argv.split()))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert not loaded & {"signal", "string"}

    @pytest.mark.parametrize(
        "argv",
        [("plan-tiles", "0", "5"), ("eval", "--metric", "avg"), ("frobnicate",), ("stats", "--min-tiles", "x", "f")],
    )
    def test_an_error_is_one_json_line_in_a_fresh_process(self, tmp_path, argv):
        proc, _ = run_cli_fresh(tmp_path, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (2, "", 1)
        assert json.loads(proc.stderr)["exit_code"] == 2

    @pytest.mark.parametrize(
        "argv,wire_users",
        [
            ("plan-tiles 0 5", set()),
            ("plan-tiles 2000 500 --config {tmp}/cfg.json", set()),
            ("eval --metric bleu -i {tmp}/pairs.jsonl", {"vlprep.metrics", "vlprep.shards"}),
        ],
    )
    def test_a_settings_file_an_error_line_and_eval_load_the_wire_without_the_records(self, tmp_path, argv, wire_users):
        # The JSON-lines wire is its own module: reading a settings file or a
        # pairs file, or writing an error line, loads neither schema's record
        # decoders nor the formats and seeding they pull in.
        (tmp_path / "cfg.json").write_text(json.dumps({"max_tiles": 6}))
        write_jsonl(tmp_path / "pairs.jsonl", [{"id": "1", "prediction": "a cat", "references": ["a cat"]}])
        _, loaded = run_cli_fresh(tmp_path, *(part.format(tmp=tmp_path) for part in argv.split()))
        expected = {"vlprep", "vlprep.errors", "vlprep.geometry", "vlprep.jsonl", *wire_users}
        assert {name for name in loaded if name.startswith("vlprep")} == expected

    def test_plan_tiles_reads_its_config_in_a_fresh_process(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"max_tiles": 6}))
        proc, _ = run_cli_fresh(tmp_path, "plan-tiles", "2000", "500", "--config", str(config))
        assert (proc.returncode, proc.stdout) == (0, "4x1 tiles + thumbnail, 1280 tokens\n")

    def test_patching_a_probed_attribute_first_restores_the_original(self):
        # The benchmark's traced runs patch these before any command has run.
        probe = (
            "from unittest import mock\n"
            "from vlprep import cli\n"
            "names = ('schema', 'mix', 'plan_tiles', 'token_count')\n"
            "for name in names:\n"
            "    with mock.patch.object(cli, name, 'patched'):\n"
            "        assert getattr(cli, name) == 'patched'\n"
            "from vlprep import geometry, mixer, schema\n"
            "originals = (schema, mixer.mix, geometry.plan_tiles, geometry.token_count)\n"
            "print([getattr(cli, name) is original for name, original in zip(names, originals)])\n"
        )
        assert run_python("-c", probe).stdout == "[True, True, True, True]\n"

    def test_package_import_loads_no_submodule(self):
        probe = "import sys, vlprep; print(sorted(m for m in sys.modules if m.startswith('vlprep.')))"
        assert run_python("-c", probe).stdout == "[]\n"
