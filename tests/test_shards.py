"""A pass cut into shards, run by forked workers, against the same pass in one process.

Every test lowers ``shards.MIN_SHARD_BYTES`` and sets the usable CPU count, so that
small files shard and a one-CPU machine still forks.  A run "with 1 CPU" is
the one-process reference.  Each run also checks that no part file is left
in the temporary directory, that no output directory holds a ``*.tmp`` file
and that every worker has been waited for.
"""

import contextlib
import io
import json
import os
import pickle
import random
import signal
import sys
import tempfile
import time
from pathlib import Path

import pytest

from vlprep import cli, errors, metrics, mixer, schema, shards
from vlprep.errors import InvalidConfigError, RecordIOError

GOLDEN_DIR = Path(__file__).parent / "golden"

# A file handle that is garbage-collected unclosed fails the test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]

GOLDEN_CASES = {
    "classification_free": ["--task", "classification", "--template", "free"],
    "classification_mcq": [
        "--task", "classification", "--template", "mcq",
        "--prompt-prefix", "Predict the behavior of the ego vehicle. ",
    ],
    "grounding": ["--task", "grounding"],
    "region_inline": ["--task", "region"],
    "region_drawn": ["--task", "region", "--overlays", "OUT/overlays.jsonl"],
    "multiview": ["--task", "multiview"],
    "video": ["--task", "video"],
}


def golden_records(name):
    with open(GOLDEN_DIR / f"{name}.input.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def copies(name, count):
    """``count`` lines of the golden input ``name``, each record with its own id."""
    records = golden_records(name)
    return [
        json.dumps(dict(records[i % len(records)], id=f"{name}-{i:03d}"), ensure_ascii=False) for i in range(count)
    ]


@pytest.fixture
def forked(monkeypatch):
    """The process ids of the workers forked so far."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


@pytest.fixture
def outcome(capsys, monkeypatch, tmp_path, forked):
    """``outcome(argv, cpus)``: (exit code, stdout, stderr, {file name: bytes} written under OUT).

    The run must fork exactly when ``cpus > 1``, or exactly when ``forks`` is true if given.
    """
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    runs = []

    def run(argv, cpus, forks=None):
        runs.append(cpus)
        out_dir = tmp_path / f"out-{len(runs)}"
        out_dir.mkdir()
        monkeypatch.setattr(shards, "MIN_SHARD_BYTES", 1 if cpus > 1 else 1 << 62)
        monkeypatch.setattr(shards, "usable_cpus", lambda: cpus)
        before = len(forked)
        code = cli.main([arg.replace("OUT", str(out_dir)) for arg in argv])
        captured = capsys.readouterr()
        assert (len(forked) > before) == (cpus > 1 if forks is None else forks), "a sharded run forks, no other does"
        assert list(temp.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        written = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        assert not [name for name in written if name.endswith(".tmp")]
        return code, captured.out, captured.err, written

    return run


def write_lines(path, lines, newline="\n", final=True):
    path.write_bytes((newline.join(lines) + (newline if final else "")).encode("utf-8"))
    return str(path)


def write_manifest(tmp_path):
    """A mix of two domain sources, one repeated twice, and two weighted general sources."""
    paths = {}
    for name, golden, count in (("a", "grounding", 30), ("b", "video", 12), ("g1", "multiview", 40),
                                ("g2", "classification_free", 60)):
        paths[name] = write_lines(tmp_path / f"{name}.jsonl", copies(golden, count))
    manifest = tmp_path / "mix.json"
    manifest.write_text(json.dumps({
        "domain_sources": [{"id": "a", "path": paths["a"]}, {"id": "b", "path": paths["b"], "repeat": 2}],
        "general_sources": [{"id": "g1", "path": paths["g1"], "weight": 1.0},
                            {"id": "g2", "path": paths["g2"], "weight": 3.0}],
        "ratio": "1:1",
        "seed": 11,
    }))
    return str(manifest)


class TestSameBytes:
    @pytest.mark.parametrize("output", ["file", "stdout"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_convert_every_golden_task(self, outcome, tmp_path, name, output):
        src = write_lines(tmp_path / "in.jsonl", copies(name, 25))
        argv = ["convert", "-i", src, "-o", "OUT/out.jsonl" if output == "file" else "-", *GOLDEN_CASES[name]]
        one = outcome(argv, 1)
        assert one[0] == 0
        assert outcome(argv, 2) == one
        assert outcome(argv, 3) == one

    def test_golden_region_overlays_take_their_colour_from_the_global_index(self, outcome, tmp_path):
        # Every record is drawn, so each shard's first colour depends on the records before it.
        src = write_lines(tmp_path / "in.jsonl", copies("region_drawn", 13))
        argv = ["convert", "--task", "region", "-i", src, "-o", "OUT/out.jsonl", "--overlays", "OUT/overlays.jsonl"]
        one = outcome(argv, 1)
        colours = [json.loads(line)["color"] for line in one[3]["overlays.jsonl"].splitlines()]
        assert len(colours) == 13 and len({tuple(c) for c in colours}) > 1
        for cpus in (2, 3, 5):
            assert outcome(argv, cpus) == one

    @pytest.mark.parametrize(
        "shape", ["blank lines at every cut", "crlf", "no final newline", "a line longer than a shard"]
    )
    @pytest.mark.parametrize("command", ["convert", "validate", "stats"])
    def test_input_shapes(self, outcome, tmp_path, shape, command):
        lines = copies("region_drawn", 12)
        if shape == "blank lines at every cut":
            # A blank line after every record: a range may begin or end inside one.
            lines = [line for record in lines for line in (record, "  " if len(record) % 2 else "")]
        if shape == "a line longer than a shard":
            # JSON whitespace makes line 6 two thirds of the file: at 3 CPUs and more,
            # a whole range lies inside it and holds no line start.
            lines[5] = lines[5][:-1] + " " * (2 * sum(map(len, lines))) + "}"
        src = tmp_path / "in.jsonl"
        write_lines(src, lines, "\r\n" if shape == "crlf" else "\n", final=shape != "no final newline")
        argv = {
            "convert": ["convert", "--task", "region", "-i", str(src), "-o", "OUT/out.jsonl",
                        "--overlays", "OUT/overlays.jsonl"],
            "validate": ["validate", str(src)],
            "stats": ["stats", str(src)],
        }[command]
        one = outcome(argv, 1)
        assert one[0] == 0
        for cpus in (2, 3, 4, 6):
            assert outcome(argv, cpus) == one

    def test_a_line_that_is_not_utf8(self, outcome, tmp_path):
        lines = copies("grounding", 10)
        lines[7] = lines[7].replace("grounding-007", "grounding-\udcff")
        src = tmp_path / "in.jsonl"
        src.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        validate = outcome(["validate", str(src)], 1)
        assert validate[0] == 1 and '"line": 8' in validate[1]
        convert = outcome(["convert", "--task", "grounding", "-i", str(src), "-o", "-"], 1)
        assert convert[0] == 1 and "line 8: not valid UTF-8" in convert[2]
        for argv, one in ((["validate", str(src)], validate),
                          (["convert", "--task", "grounding", "-i", str(src), "-o", "-"], convert)):
            assert outcome(argv, 2) == one

    def test_validate_reports_bad_lines_of_every_shard_in_order(self, outcome, tmp_path):
        lines = copies("grounding", 20)
        for number in (2, 9, 14, 19):
            lines[number - 1] = "{not json" if number % 2 else lines[number - 1].replace('"grounding"', '"nope"')
        src = write_lines(tmp_path / "in.jsonl", lines)
        one = outcome(["validate", src], 1)
        rows = [json.loads(row) for row in one[1].splitlines()]
        assert [row.get("line") for row in rows] == [2, 9, 14, 19, None]
        assert rows[-1] == {"checked": 20, "errors": 4}
        for cpus in (2, 3):
            assert outcome(["validate", src], cpus) == one

    @pytest.mark.parametrize("stdout", ["captured", "string_io"])
    def test_validate_rows_reach_a_stdout_with_or_without_a_binary_layer(self, outcome, tmp_path, stdout):
        # The rows are spooled and given to stdout as bytes, or as text to a stdout with no binary
        # layer: the benchmark's traced runs redirect stdout to an io.StringIO.
        lines = copies("grounding", 20)
        for number in (3, 12, 18):
            lines[number - 1] = lines[number - 1].replace('"grounding"', '"nöpe-漢"')
        src = write_lines(tmp_path / "in.jsonl", lines)

        def run(cpus):
            if stdout == "captured":
                return outcome(["validate", src], cpus)
            with contextlib.redirect_stdout(io.StringIO()) as text:
                code, printed, err, written = outcome(["validate", src], cpus)
            assert printed == ""
            return code, text.getvalue(), err, written

        one = run(1)
        assert [json.loads(row).get("line") for row in one[1].splitlines()] == [3, 12, 18, None]
        assert "nöpe-漢" in one[1]
        for cpus in (2, 3):
            assert run(cpus) == one

    def test_stats_keeps_the_order_of_first_appearance(self, outcome, tmp_path):
        lines = copies("grounding", 8) + copies("video", 3) + copies("multiview", 2) + copies("grounding", 4)
        src = write_lines(tmp_path / "in.jsonl", lines)
        one = outcome(["stats", src, "--max-tiles", "12"], 1)
        summary = json.loads(one[1])
        assert list(summary["by_task"]) == ["grounding", "video", "multiview"]
        assert len(summary["tile_histogram"]) > 1
        for cpus in (2, 3, 4):
            assert outcome(["stats", src, "--max-tiles", "12"], cpus) == one

    EVAL_METRICS = {"mcq": ["mcq"], "bleu": ["bleu"], "rouge": ["rouge"], "rouge_recall": ["rouge", "--recall-only"],
                    "signals": ["signals"]}

    @pytest.mark.parametrize("bad_line", [False, True])
    @pytest.mark.parametrize("metric", sorted(EVAL_METRICS))
    def test_eval(self, outcome, tmp_path, metric, bad_line):
        # Only bleu fans out, and only over the pairs; the lines are parsed in this process.
        rng = random.Random(3)
        words = "A. the car stops at a red light , then turns left".split()
        lines = [
            json.dumps({"id": str(i), "predicted": rng.uniform(-3, 3), "truth": rng.uniform(-3, 3)})
            if metric == "signals"
            else json.dumps({"id": str(i), "prediction": " ".join(rng.choices(words, k=rng.randint(0, 12))),
                             "references": [" ".join(rng.choices(words, k=rng.randint(1, 80)))
                                            for _ in range(rng.randint(1, 3))]})
            for i in range(40)
        ]
        if bad_line:
            lines[29] = '{"id": "29"}'
        argv = ["eval", "--metric", *self.EVAL_METRICS[metric], "-i", write_lines(tmp_path / "pairs.jsonl", lines)]
        one = outcome(argv, 1)
        assert one[0] == (1 if bad_line else 0)
        if bad_line:
            assert one[1] == "" and json.loads(one[2])["message"].startswith("line 30: ")
        for cpus in (2, 3):
            assert outcome(argv, cpus, forks=metric == "bleu" and not bad_line) == one

    def test_mix(self, outcome, tmp_path):
        argv = ["mix", "--manifest", write_manifest(tmp_path), "-o", "OUT/mixed.jsonl"]
        one = outcome(argv, 1)
        assert one[0] == 0 and sorted(one[3]) == ["mixed.jsonl", "mixed.jsonl.report.json"]
        assert one[3]["mixed.jsonl"].count(b'"repeat_index": "1"') == 12
        for cpus in (2, 3):
            assert outcome(argv, cpus) == one
        code, stdout, err, _ = outcome(["mix", "--manifest", argv[2], "-o", "-"], 2)
        assert (code, stdout.encode("utf-8"), err) == (0, one[3]["mixed.jsonl"], one[1])


class TestFailures:
    def test_a_bad_line_in_every_shard_names_the_first(self, outcome, tmp_path):
        lines = copies("grounding", 20)
        lines[3] = lines[16] = "{not json"
        src = write_lines(tmp_path / "in.jsonl", lines)
        for argv in (["convert", "--task", "grounding", "-i", src, "-o", "OUT/out.jsonl"], ["stats", src]):
            one = outcome(argv, 1)
            for cpus in (2, 3):
                code, stdout, err, written = outcome(argv, cpus)
                assert (code, stdout, written) == (1, "", {})
                assert err.count("\n") == 1 and json.loads(err)["message"].startswith("line 4: not valid JSON")
                assert (code, stdout, err, written) == one

    @pytest.mark.parametrize("error", [None, InvalidConfigError, RecordIOError, OSError])
    def test_a_failure_only_in_a_worker_is_the_one_process_failure(self, outcome, monkeypatch, tmp_path, error):
        lines = copies("region_drawn", 20)
        if error is None:
            lines[17] = lines[17].replace('"payload"', '"pay"')
        else:
            convert = cli._convert_one

            def failing(env, *rest):
                if env.id == "region_drawn-017":
                    raise error("cannot go on")
                return convert(env, *rest)

            monkeypatch.setattr(cli, "_convert_one", failing)
        src = write_lines(tmp_path / "in.jsonl", lines)
        argv = ["convert", "--task", "region", "-i", src, "-o", "OUT/out.jsonl", "--overlays", "OUT/overlays.jsonl"]
        one = outcome(argv, 1)
        assert one[0] == {None: 1, InvalidConfigError: 2, RecordIOError: 3, OSError: 3}[error]
        assert (one[1], one[3]) == ("", {}) and one[2].count("\n") == 1
        for cpus in (2, 3):
            assert outcome(argv, cpus) == one

    def test_a_worker_error_stops_the_workers_after_it(self, outcome, monkeypatch, tmp_path):
        convert = cli._convert_one

        def failing(env, *rest):
            if env.id == "grounding-010":  # the first record of shard 1 of 3
                raise RecordIOError("cannot go on")
            if env.id == "grounding-020":  # the first record of shard 2 of 3
                time.sleep(60)
            return convert(env, *rest)

        monkeypatch.setattr(cli, "_convert_one", failing)
        src = write_lines(tmp_path / "in.jsonl", copies("grounding", 30))
        argv = ["convert", "--task", "grounding", "-i", src, "-o", "OUT/out.jsonl"]
        started = time.monotonic()
        three = outcome(argv, 3)
        assert time.monotonic() - started < 30
        assert three == outcome(argv, 1)
        assert three[0] == 3 and json.loads(three[2])["message"] == "cannot go on"

    def test_a_worker_that_ends_without_a_result_is_one_json_error(self, outcome, monkeypatch, tmp_path):
        parent = os.getpid()
        convert = cli._convert_one

        def dying(env, *rest):
            if os.getpid() != parent:
                os._exit(7)
            return convert(env, *rest)

        monkeypatch.setattr(cli, "_convert_one", dying)
        src = write_lines(tmp_path / "in.jsonl", copies("grounding", 10))
        code, stdout, err, written = outcome(["convert", "--task", "grounding", "-i", src, "-o", "OUT/out.jsonl"], 2)
        assert (code, stdout, written) == (1, "", {})
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "PipelineError",
            "message": "the worker for shard 1 ended (status 7) with no result",
            "exit_code": 1,
        }

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_ctrl_c_in_the_parent_is_exit_130_with_no_traceback_and_no_file(self, outcome, monkeypatch, tmp_path, cpus):
        # SIGINT arrives as a KeyboardInterrupt, here at the parent's third record; the workers run on.
        parent, loads, seen = os.getpid(), schema.loads_envelope, []

        def interrupted(text):
            if os.getpid() == parent:
                seen.append(text)
                if len(seen) == 3:
                    raise KeyboardInterrupt
            return loads(text)

        monkeypatch.setattr(schema, "loads_envelope", interrupted)
        src = write_lines(tmp_path / "in.jsonl", copies("region_drawn", 20))
        for argv in (
            ["convert", "--task", "region", "-i", src, "-o", "OUT/out.jsonl", "--overlays", "OUT/overlays.jsonl"],
            ["convert", "--task", "region", "-i", src, "-o", "-"],
            ["validate", src],
            ["stats", src],
        ):
            seen.clear()
            code, stdout, err, written = outcome(argv, cpus)
            assert (code, stdout, written) == (130, "", {})
            assert err == '{"error": "Interrupted", "message": "SIGINT", "exit_code": 130}\n'

    def test_a_sharded_pass_with_stderr_closed_drops_only_the_summary(self, outcome, monkeypatch, tmp_path):
        # The flush before the fork was an AttributeError on a closed (None) stream.
        src = write_lines(tmp_path / "in.jsonl", copies("grounding", 20))
        argv = ["convert", "--task", "grounding", "-i", src, "-o", "-"]
        code, stdout, err, written = outcome(argv, 1)
        assert (code, err.count("\n")) == (0, 1)
        monkeypatch.setattr(sys, "stderr", None)
        assert outcome(argv, 2) == (code, stdout, "", written)

    @pytest.mark.parametrize("first_line", ["valid", "not json"])
    def test_overlays_into_a_missing_directory_fail_before_any_record_is_read(
        self, capsys, monkeypatch, tmp_path, forked, first_line
    ):
        # No grounding record is drawn, so only opening the sidecar up front can fail.
        lines = copies("grounding", 20)
        if first_line == "not json":
            lines[0] = "{not json"  # exit 1 if it were read first
        src = write_lines(tmp_path / "in.jsonl", lines)
        temp, out_dir = tmp_path / "temp", tmp_path / "out"
        temp.mkdir()
        out_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        sidecar = tmp_path / "missing" / "overlays.jsonl"
        argv = ["convert", "--task", "grounding", "-i", src, "-o", str(out_dir / "out.jsonl"), "--overlays", str(sidecar)]
        reported = []
        for cpus in (1, 2):
            monkeypatch.setattr(shards, "MIN_SHARD_BYTES", 1 if cpus > 1 else 1 << 62)
            monkeypatch.setattr(shards, "usable_cpus", lambda: cpus)
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err.count("\n")) == (3, "", 1)
            error = json.loads(captured.err)
            assert error["message"].startswith(f"cannot write {sidecar}: ")
            reported.append((error["error"], error["exit_code"]))
        assert reported == [("RecordIOError", 3)] * 2
        assert forked == [] and list(out_dir.iterdir()) == [] and list(temp.iterdir()) == []
        assert not sidecar.parent.exists()

    def test_a_worker_raises_what_one_process_raises(self, monkeypatch):
        # An error no handler expects keeps its class too.
        monkeypatch.setattr(shards, "usable_cpus", lambda: 2)

        def work(k, _):
            if k == 1:
                raise KeyError("missing")
            return k

        with pytest.raises(KeyError, match="missing"):
            shards.run([0, 1], work)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_every_error_class_survives_a_pickle_round_trip(self):
        # A worker's error comes back through a pipe, pickled: a class whose
        # __init__ takes more than the message could not be rebuilt.
        classes = [cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)]
        assert len(classes) >= 10
        for cls in classes:
            error = pickle.loads(pickle.dumps(cls("cannot go on")))
            assert (type(error), str(error), error.exit_code) == (cls, "cannot go on", cls.exit_code)

    def test_mix_reports_an_earlier_short_source_before_a_later_bad_line(self, outcome, tmp_path):
        bad = copies("video", 20)
        bad[15] = "{not json"
        paths = {
            "d": write_lines(tmp_path / "d.jsonl", copies("grounding", 20)),
            "short": write_lines(tmp_path / "short.jsonl", copies("multiview", 3)),
            "bad": write_lines(tmp_path / "bad.jsonl", bad),
        }
        manifest = tmp_path / "mix.json"
        manifest.write_text(json.dumps({
            "domain_sources": [{"id": "d", "path": paths["d"]}],
            "general_sources": [{"id": "short", "path": paths["short"]}, {"id": "bad", "path": paths["bad"]}],
            "ratio": 1.0,
            "seed": 5,
        }))
        argv = ["mix", "--manifest", str(manifest), "-o", "OUT/mixed.jsonl"]
        one = outcome(argv, 1)
        assert one[0] == 1 and json.loads(one[2])["error"] == "InsufficientDataError"
        assert outcome(argv, 2) == one
        manifest.write_text(manifest.read_text().replace('"ratio": 1.0', '"ratio": 0.1'))
        one = outcome(argv, 1)
        assert one[0] == 1 and json.loads(one[2])["message"].startswith(f"{paths['bad']}: line 16: not valid JSON")
        assert outcome(argv, 2) == one


class TestParts:
    def test_a_run_that_draws_nothing_writes_no_sidecar(self, outcome, tmp_path):
        src = write_lines(tmp_path / "in.jsonl", copies("grounding", 20))
        argv = ["convert", "--task", "grounding", "-i", src, "-o", "OUT/out.jsonl", "--overlays", "OUT/overlays.jsonl"]
        one = outcome(argv, 1)
        assert one[0] == 0 and list(one[3]) == ["out.jsonl"]
        assert json.loads(one[1])["overlays"] == 0
        assert outcome(argv, 2) == one

    def test_a_file_output_needs_no_temporary_directory(self, outcome, monkeypatch, tmp_path):
        # Parts of a file output are made beside it: a sharded run writes no byte
        # to the temporary directory that the one-process run would not.
        src = write_lines(tmp_path / "in.jsonl", copies("region_drawn", 20))
        manifest = write_manifest(tmp_path)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        for argv in (
            ["convert", "--task", "region", "-i", src, "-o", "OUT/out.jsonl", "--overlays", "OUT/overlays.jsonl"],
            ["mix", "--manifest", manifest, "-o", "OUT/mixed.jsonl"],
            ["stats", src],
        ):
            one = outcome(argv, 1)
            assert one[0] == 0
            assert outcome(argv, 2) == one

    def test_a_result_larger_than_a_pipe_holds(self, monkeypatch, tmp_path, forked):
        # Each worker sends about 100 KB of offsets and CRCs back, more than a pipe buffers.
        line = '{"id": "r%05d", "schema_version": "1", "task": "vqa", "meta": {}, "payload": {}}'
        src = write_lines(tmp_path / "in.jsonl", [line % i for i in range(16000)])
        monkeypatch.setattr(shards, "MIN_SHARD_BYTES", 1)
        monkeypatch.setattr(shards, "usable_cpus", lambda: 2)

        def late(*_):
            raise TimeoutError("the pass did not end")

        previous = signal.signal(signal.SIGALRM, late)
        signal.alarm(30)
        try:
            pool = mixer.FilePool(src)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forked) == 1 and len(pool) == 16000
        assert pool[12345].id == "r12345"

    def test_shards_are_never_smaller_than_the_minimum(self, monkeypatch):
        monkeypatch.setattr(shards, "usable_cpus", lambda: 64)
        size = shards.MIN_SHARD_BYTES
        sizes = (0, size - 1, 2 * size - 1, 2 * size, 5 * size + 1)
        assert [len(shards.split(n, n)) for n in sizes] == [1, 1, 1, 2, 5]
        assert shards.split(5 * size + 1, 5 * size + 1)[1] == range(size, 2 * size)
        assert len(shards.split(1000 * size, 1000 * size)) == 64
        assert shards.split(3, 1000 * size) == [range(0, 1), range(1, 2), range(2, 3)]  # never more ranges than items
        monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
        assert len(shards.split(1000 * size, 1000 * size)) == 2

    def test_mix_emission_is_split_by_the_bytes_it_reads(self, tmp_path):
        # 8 of 400 general records are drawn: emission reads 24 lines, not the whole general file.
        domain = write_lines(tmp_path / "d.jsonl", copies("grounding", 8))
        general = write_lines(tmp_path / "g.jsonl", copies("grounding", 400))
        manifest = mixer.manifest_from_dict({
            "domain_sources": [{"id": "d", "path": domain, "repeat": 2}],
            "general_sources": [{"id": "g", "path": general}],
            "ratio": "1:2",
            "seed": 3,
        })
        stream, _ = mixer.mix(manifest)
        line = os.path.getsize(general) / 400  # every line of both files has this size
        assert len(stream) == 24
        assert abs(stream.nbytes - 24 * line) < line


class TestBleuFansOut:
    def test_bleu_over_the_minimum_forks_and_keeps_every_bit(self, monkeypatch, forked):
        rng = random.Random(7)
        words = "the car stops at a red light , then turns left .".split()
        pairs = [
            metrics.EvalPair(str(i), " ".join(rng.choices(words, k=rng.randint(0, 30))),
                             tuple(" ".join(rng.choices(words, k=rng.randint(1, 90))) for _ in range(rng.randint(1, 3))))
            for i in range(300)
        ]
        nbytes = sum(len(p.prediction) + sum(map(len, p.references)) for p in pairs)
        monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
        one = [metrics.bleu(pairs, max_n=n) for n in (1, 2, 3, 4)]
        assert forked == []
        monkeypatch.setattr(shards, "MIN_SHARD_BYTES", nbytes // 3)
        for cpus in (2, 3):
            monkeypatch.setattr(shards, "usable_cpus", lambda: cpus)
            before = len(forked)
            assert [metrics.bleu(pairs, max_n=n).hex() for n in (1, 2, 3, 4)] == [value.hex() for value in one]
            assert len(forked) - before == 4 * (cpus - 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_corpus_under_twice_the_minimum_is_one_process(self, monkeypatch, forked):
        monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
        pairs = [metrics.EvalPair("1", "a b c", ("a b d",))] * 100
        assert metrics.bleu(pairs, max_n=2) == metrics.bleu(pairs[:1], max_n=2) == pytest.approx((2 / 3 * 1 / 2) ** 0.5)
        assert forked == []


class TestOneProcess:
    def test_the_cpu_count_stands_in_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert shards.usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert shards.usable_cpus() == 1

    def test_stdin_is_read_in_one_process(self, capsys, monkeypatch, forked):
        data = "\n".join(copies("grounding", 10)).encode("utf-8")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        monkeypatch.setattr(shards, "MIN_SHARD_BYTES", 1)
        monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
        assert cli.main(["validate", "-"]) == 0
        assert json.loads(capsys.readouterr().out) == {"checked": 10, "errors": 0}
        assert forked == []

    def test_a_small_file_a_pipe_one_cpu_or_no_fork_is_one_shard(self, monkeypatch, tmp_path):
        passes = []
        monkeypatch.setattr(shards, "run", lambda cuts, work, sinks=(): passes.append(cuts))

        def cuts(source):
            """The (start, end) byte ranges ``line_pass`` hands ``run``; a FIFO is never opened."""
            shards.line_pass(source, None)
            return passes.pop()

        src = write_lines(tmp_path / "in.jsonl", copies("grounding", 10))
        size = os.path.getsize(src)
        monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
        assert cuts(src) == [(0, None)]  # far below MIN_SHARD_BYTES
        monkeypatch.setattr(shards, "MIN_SHARD_BYTES", 1)
        assert cuts(src) == [(0, size // 2), (size // 2, None)]
        if hasattr(os, "mkfifo"):
            os.mkfifo(tmp_path / "pipe")
            assert cuts(str(tmp_path / "pipe")) == [(0, None)]
        monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
        assert cuts(src) == [(0, None)]
        monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert cuts(src) == [(0, None)]
