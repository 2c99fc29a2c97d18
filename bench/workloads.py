"""The CLI steps of each workload and the checks on their outputs.

A step is one ``vlprep`` invocation with default flags.  Its ``expect`` map
holds fields the summary JSON on stdout must carry, ``lines`` the line count
each output file must have; both come from the generator's plan, not from
the program.  ``records`` is the input records (or pairs) the step consumes,
the numerator of its throughput.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

COMMANDS = ("convert", "validate", "stats", "mix", "eval")


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...]
    records: int
    expect: dict = field(default_factory=dict)
    lines: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(self.lines)


def steps(plan: dict, out_dir: str | Path) -> list[Step]:
    """The workload's command sequence, writing its outputs under ``out_dir``."""
    out = Path(out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    files = plan["files"]
    seq: list[Step] = []

    def convert(name: str, task: str, *flags: str, overlays: int | None = None) -> str:
        src, n = files[name]["path"], files[name]["count"]
        dst = str(out / f"conv_{name}.jsonl")
        argv = ["convert", "--task", task, *flags, "-i", src, "-o", dst]
        expect = {"records": n, "by_task": {task: n}}
        lines = {dst: n}
        if overlays is not None:
            side = str(out / f"overlays_{name}.jsonl")
            argv += ["--overlays", side]
            expect["overlays"] = overlays
            if overlays:  # the CLI writes no sidecar when nothing was drawn
                lines[side] = overlays
        seq.append(Step(f"convert-{name}", tuple(argv), n, expect, lines))
        return dst

    def validate(name: str, path: str, n: int) -> None:
        seq.append(Step(f"validate-{name}", ("validate", path), n, {"checked": n, "errors": 0}))

    def stats(name: str, path: str, n: int) -> None:
        seq.append(Step(f"stats-{name}", ("stats", path), n, {"records": n}))

    def evaluate(metric: str, name: str) -> None:
        n = files[name]["count"]
        seq.append(Step(f"eval-{metric}", ("eval", "--metric", metric, "-i", files[name]["path"]), n, {"count": n}))

    workload = plan["workload"]
    if workload in ("single-image", "driving-scenes"):
        if workload == "single-image":
            drawn = Path(files["reg"]["path"]).read_text(encoding="utf-8").count('"mode": "drawn-annotation"')
            converted = {
                "cls": convert("cls", "classification", "--template", "mcq", "--shuffle-options"),
                "grd": convert("grd", "grounding"),
                "reg": convert("reg", "region", overlays=drawn),
            }
        else:
            converted = {"mv": convert("mv", "multiview"), "vid": convert("vid", "video")}
        for name, path in converted.items():
            validate(name, path, files[name]["count"])
        for name, path in converted.items():
            stats(name, path, files[name]["count"])
        if workload == "single-image":
            evaluate("mcq", "mcq")
        else:
            evaluate("bleu", "txt")
            evaluate("rouge", "txt")
            evaluate("signals", "sig")
    else:
        mixed = str(out / "mixed.jsonl")
        total = plan["domain_total"] + plan["general_total"]
        loaded = sum(files[name]["count"] for name in files)
        expect = {"domain_total": plan["domain_total"], "general_total": plan["general_total"]}
        lines = {mixed: total, mixed + ".report.json": 1}
        seq.append(Step("mix", ("mix", "--manifest", plan["manifest"], "-o", mixed), loaded, expect, lines))
        validate("mixed", mixed, total)
    return seq


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(step: Step, stdout: bytes) -> dict[str, str]:
    """SHA-256 of the step's stdout and of each file it wrote, keyed by role."""
    out = {f"{step.name}:stdout": hashlib.sha256(stdout).hexdigest()}
    for path in step.outputs:
        out[f"{step.name}:{Path(path).name}"] = sha256_file(path)
    return out


def _count_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def check(step: Step, status: int, stdout: bytes, reference: dict[str, str] | None) -> list[str]:
    """Every way the step's result falls short; an empty list means it passed.

    ``reference`` maps digest keys to the bytes the step must reproduce (the
    pinned digests, or an earlier pass of the same run); None skips that check.
    """
    if status != 0:
        return [f"{step.name}: exit status {status}"]
    problems = []
    try:
        summary = json.loads(stdout.decode("utf-8").strip().splitlines()[-1])
    except (UnicodeDecodeError, IndexError, json.JSONDecodeError):
        return [f"{step.name}: stdout does not end in a JSON summary"]
    for key, want in step.expect.items():
        if summary.get(key) != want:
            problems.append(f"{step.name}: {key} is {summary.get(key)!r}, expected {want!r}")
    for path, want in step.lines.items():
        got = _count_lines(path) if Path(path).exists() else None
        if got != want:
            problems.append(f"{step.name}: {Path(path).name} has {got} lines, expected {want}")
    if reference is not None and not problems:
        for key, got in digests(step, stdout).items():
            want = reference.get(key)
            if want != got:
                problems.append(f"{step.name}: sha256 of {key} is {got[:12]}, expected {str(want)[:12]}")
    return problems
