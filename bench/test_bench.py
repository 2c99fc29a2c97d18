"""Tests of the benchmark itself: generator, output checks, traced run and metric names.

Run with ``python3 -m pytest bench``.  Corpora here are a hundredth of the
benchmark's size, so the digests pinned for the full-size default seed do
not apply and every test uses another seed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import layers
import run
import workloads

sys.path.insert(0, str(run.SRC))  # the program, as the traced run imports it
from vlprep import cli, formats, schema  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {w: {name: max(2, n // 100) for name, n in sizes.items()} for w, sizes in gen.SIZES.items()}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(gen, "SIZES", TINY)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


def _corpus(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.jsonl"))}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_and_seeded(tiny, workload):
    plan = gen.generate(workload, 5, tiny / "a")
    gen.generate(workload, 5, tiny / "b")
    gen.generate(workload, 6, tiny / "c")
    a, b, c = (_corpus(tiny / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[name] != c[name] for name in a)
    for name, entry in plan["files"].items():
        assert a[f"{name}.jsonl"].count(b"\n") == entry["count"]


def test_tampered_output_is_a_failure(tiny):
    bench = run.Bench("mixture", 12)
    try:
        _, seen = bench.cli_pass(None)
        assert bench.failed == 0 and bench.attempted == len(bench.steps)
        mix = bench.steps[0]
        stdout = (bench.logs / f"{mix.name}.stdout").read_bytes()
        assert workloads.check(mix, 0, stdout, seen) == []

        mixed = Path(mix.outputs[0])
        original = mixed.read_bytes()
        mixed.write_bytes(original.replace(b'"mx/', b'"mX/', 1))  # same line count, other bytes
        problems = workloads.check(mix, 0, stdout, seen)
        assert problems and "sha256" in problems[0]
        bench.tally(problems)
        assert bench.failed == 1

        mixed.write_bytes(original[: original.index(b"\n") + 1])  # wrong record count
        assert any("lines" in p for p in workloads.check(mix, 0, stdout, None))
        assert workloads.check(mix, 1, stdout, None) == [f"{mix.name}: exit status 1"]
        assert workloads.check(mix, 0, b"Traceback\n", None)
    finally:
        bench.close()


def test_traced_run_reproduces_the_cli_and_reaches_every_layer(tiny):
    # The traced run checks every output file and stdout of the in-process
    # cli.main runs, plain and traced, against the subprocess CLI's by
    # SHA-256 and counts each mismatch as a failed operation.
    def patched():
        return schema.loads_envelope, cli.schema, cli.plan_tiles, cli.mix, formats.ConversationSample.validate

    originals = patched()
    reached = set()
    for workload in gen.WORKLOADS:
        result, detail = run.traced(workload, 13, seconds=0)
        assert detail["problems"] == []
        assert result["correct"] and result["failed"] == 0
        steps = workloads.steps(gen.generate(workload, 13, tiny / "p"), tiny / "o")
        assert result["attempted"] >= 3 * len(steps)
        reached |= {layer for layer in layers.LAYERS if result["metrics"][f"{layer}.calls"]["value"] > 0}
    assert reached == set(layers.LAYERS)
    assert patched() == originals


def test_metric_names_and_units():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert SPEC["per_layer"] == layers.per_layer_metrics()
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.fullmatch(metric["name"]), metric
        assert UNIT_RE.fullmatch(metric["unit"]), metric
    moves = layers.predictions()
    for metric in SPEC["per_layer"]:
        assert metric["name"] in moves or metric["name"].rsplit(".", 1)[0] in moves, metric


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, trace):
    assert run.main(["--workload", "mixture", "--seed", "14", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mixture", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
