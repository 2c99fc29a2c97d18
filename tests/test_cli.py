"""End-to-end tests driving the command line entry point in process."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import vlprep
from vlprep import kernels
from vlprep.cli import main
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
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


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


def run_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
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
        config.write_text(json.dumps({"task": "classification", "tempalte": "free"}))
        code, _, err = run(capsys, "convert", "--config", str(config),
                           "-i", "x.jsonl", "-o", "y.jsonl")
        assert code == 2
        assert "tempalte" in err

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

    def test_workers_flag_and_config_key_are_retired(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(0)])
        with pytest.raises(SystemExit) as exit_info:
            main(["convert", "--task", "classification", "-i", str(src), "--workers", "2"])
        assert exit_info.value.code == 2
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
            capsys, monkeypatch, src.read_text(encoding="utf-8"), *flags, "-i", "-", "-o", str(from_stdin)
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

    MALFORMED = {
        "width_not_a_number": ("grounding", with_payload(golden_record("grounding"), width="abc")),
        "nan_box": ("grounding", with_payload(golden_record("grounding"), box=[float("nan"), 90, 630, 450])),
        "infinite_height": ("grounding", with_payload(golden_record("grounding"), height=float("inf"))),
        "multiview_object_without_center": (
            "multiview",
            with_payload(
                golden_record("multiview"),
                objects=[{"id": "c1", "camera": "CAM_FRONT", "box": [720, 380, 880, 520]}],
            ),
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_payload_is_one_json_error(self, capsys, tmp_path, case):
        task, record = self.MALFORMED[case]
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [golden_record(task, id="ok-1"), record])
        code, stdout, err = run(capsys, "convert", "--task", task, "-i", str(src), "-o", str(tmp_path / "out.jsonl"))
        assert code == 1
        assert stdout == ""
        error = json.loads(err)  # exactly one JSON line, no traceback
        assert error["error"] == "InvalidRecordError"
        assert error["exit_code"] == 1
        assert error["message"].startswith(f"line 2: record {record['id']!r}: malformed payload: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

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


class TestConvertMemory:
    # convert holds one record at a time, so its peak must not grow with the
    # input: ten times the records may cost at most half as much again.
    @staticmethod
    def traced_peak(tmp_path, count):
        record = golden_record("multiview")
        src = tmp_path / f"mv-{count}.jsonl"
        write_jsonl(src, [dict(record, id=f"mv-{i:05d}") for i in range(count)])
        argv = ["convert", "--task", "multiview", "-i", str(src), "-o", str(tmp_path / f"out-{count}.jsonl")]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_peak_does_not_grow_with_record_count(self, capsys, tmp_path):
        self.traced_peak(tmp_path, 20)  # first-use caches are not per-record memory
        small = self.traced_peak(tmp_path, 400)
        large = self.traced_peak(tmp_path, 4000)
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

    def test_missing_manifest_is_an_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "mix", "--manifest", str(tmp_path / "gone.json"),
                         "-o", str(tmp_path / "out.jsonl"))
        assert code == 3


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

    def test_converted_output_validates(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [classification_record(i) for i in range(4)])
        out = tmp_path / "out.jsonl"
        run(capsys, "convert", "--task", "classification", "-i", str(src), "-o", str(out))
        code, stdout, _ = run(capsys, "validate", str(out))
        assert code == 0
        assert json.loads(stdout.strip().splitlines()[-1])["errors"] == 0


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
            capsys, monkeypatch, src.read_text(encoding="utf-8"), "stats", "-", "--max-tiles", "12"
        )
        assert code == 0
        assert from_stdin == from_file
        assert json.loads(from_file)["records"] == len(TestGoldenFiles.CASES) + 1

    def test_malformed_dims_are_one_json_error(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        bad = with_payload(golden_record("grounding", id="g-bad"), width="abc")
        write_jsonl(src, [golden_record("grounding"), bad])
        code, stdout, err = run(capsys, "stats", str(src))
        assert code == 1
        assert stdout == ""
        assert json.loads(err)["message"].startswith("line 2: record 'g-bad': malformed payload: ValueError")

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

    def test_benchmark_average_missing_key(self, capsys, tmp_path):
        path = tmp_path / "scores.json"
        path.write_text(json.dumps({"MMB": 80.0}))
        code, _, _ = run(capsys, "eval", "--metric", "avg", "--scores", str(path))
        assert code == 2


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


class TestValidateKernels:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "validate-kernels")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 4
        assert all("PASS" in line for line in lines)


def run_python(*args):
    """Run a fresh interpreter on this checkout's sources."""
    path = os.pathsep.join(p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH", "")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


class TestImportPath:
    # Every data command is a fresh process, and importing numpy was the
    # largest part of its start although only the kernels need it.
    LAZY_MODULES = ("numpy", "concurrent.futures")

    def test_cli_import_leaves_lazy_modules_unloaded(self):
        probe = "import sys, vlprep.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
        assert run_python("-c", probe, *self.LAZY_MODULES).stdout == "[]\n"

    def test_plan_tiles_command_leaves_lazy_modules_unloaded(self):
        proc = run_python("-X", "importtime", "-m", "vlprep.cli", "plan-tiles", "448", "448")
        assert proc.stdout == "1x1 tiles, 256 tokens\n"
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "vlprep.formats" in imported
        assert not imported & set(self.LAZY_MODULES)

    def test_kernel_names_resolve_from_the_package(self):
        for name in (
            "FeatureGrid",
            "HiddenStateStack",
            "ProjectorShape",
            "distill_loss",
            "pixel_shuffle",
            "pixel_unshuffle",
            "projector_shape",
            "render_overlay",
        ):
            assert name in vlprep.__all__
            assert getattr(vlprep, name) is getattr(kernels, name)
        with pytest.raises(AttributeError):
            vlprep.no_such_name

    def test_all_names_public_objects_not_submodules(self):
        assert len(set(vlprep.__all__)) == len(vlprep.__all__)
        for name in vlprep.__all__:
            assert not isinstance(getattr(vlprep, name), types.ModuleType), name
