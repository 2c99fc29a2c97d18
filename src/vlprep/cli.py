"""Command-line pipeline driver.

Subcommands: convert, mix, validate, stats, eval, plan-tiles,
validate-kernels.  All behavior comes from flags plus an optional JSON
config file (flags win); environment variables are never consulted.  Errors
are emitted as one JSON object on stderr and mapped to exit codes:
0 success, 1 validation, 2 configuration, 3 I/O.

convert, validate, stats and eval read their input one record at a time:
convert, validate and stats hold one record, and eval holds the pairs its
metric needs.  mix holds a byte offset per source line and a position per
output record, and reads each record back as it writes it.
File outputs are written to a uniquely named ``<out>.<random>.tmp`` sibling
as records arrive and renamed into place on success.  A failed run removes
the sibling, and with ``-o -`` prints no records, so only a killed process
leaves a ``*.tmp`` file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from . import formats, metrics, schema
from .errors import InvalidConfigError, InvalidRecordError, PipelineError, RecordIOError
from .geometry import (
    DEFAULT_MAX_TILES,
    DEFAULT_MIN_TILES,
    MULTIVIEW_CANVAS,
    TILE_SIZE,
    TOKENS_PER_TILE,
    ImageDims,
    TilePlan,
    plan_tiles,
    token_count,
)
from .mixer import load_manifest, mix

# Raised by a payload of the wrong type or shape while it is converted.
_MALFORMED = (TypeError, ValueError, KeyError, OverflowError)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared across commands; a JSON config supplies defaults."""

    task: str | None = None
    input: str | None = None
    output: str | None = None
    min_tiles: int = DEFAULT_MIN_TILES
    max_tiles: int = DEFAULT_MAX_TILES
    use_thumbnail: bool = True
    tokens_per_tile: int = TOKENS_PER_TILE
    template_style: str = "free"
    prompt_prefix: str | None = None
    prompt_suffix: str | None = None
    shuffle_options: bool = False
    seed: int = 0
    manifest: str | None = None

    def __post_init__(self) -> None:
        if (
            self.input is not None
            and self.output is not None
            and self.input == self.output
            and self.input != "-"
        ):
            raise InvalidConfigError(f"input and output must be distinct paths, both are {self.input!r}")

    @classmethod
    def from_file(cls, path: str | None) -> "PipelineConfig":
        if path is None:
            return cls()
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise RecordIOError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise InvalidConfigError(f"config {path} must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)


def _config(args) -> PipelineConfig:
    """The ``--config`` file's settings with every flag that was given laid over them.

    A flag overrides the config field its argparse ``dest`` names; a flag
    that was not given parses to None.
    """
    cfg = PipelineConfig.from_file(args.config)
    fields = (f.name for f in dataclasses.fields(cfg))
    given = {name: flag for name in fields if (flag := getattr(args, name, None)) is not None}
    return dataclasses.replace(cfg, **given)


def _source(path: str):
    return sys.stdin if path == "-" else path


@contextlib.contextmanager
def _line_sink(path: str):
    """Yield a text handle whose contents reach ``path`` only if the block succeeds.

    A file is written through a uniquely named ``<name>.<random>.tmp``
    sibling (``tempfile.mkstemp``) as lines arrive and renamed into place at
    the end, so two runs writing one path never share a temporary file.
    ``-`` is spooled to an anonymous temporary file and copied to stdout at
    the end, so a failed run prints nothing.  On any failure the temporary
    file is removed.
    """
    if path == "-":
        with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
            yield spool
            spool.seek(0)
            shutil.copyfileobj(spool, sys.stdout)
        return
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f"{target.name}.", suffix=".tmp", dir=target.parent)
    except OSError as exc:
        raise RecordIOError(f"cannot write {path}: {exc}") from exc
    umask = os.umask(0)
    os.umask(umask)
    committed = False
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # mkstemp creates the file 0600; give the output the mode open() would.
            os.chmod(tmp, 0o666 & ~umask)
            yield handle
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise RecordIOError(f"cannot write {path}: {exc}") from exc
        committed = True
    finally:
        if not committed:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _summary_stream(output_path: str):
    return sys.stderr if output_path == "-" else sys.stdout


def _print_json(obj, stream=None) -> None:
    print(json.dumps(obj, ensure_ascii=False), file=stream or sys.stdout)


def _record_error(number: int, env: schema.Envelope, exc: Exception) -> InvalidRecordError:
    """One error naming the line and the record that ``exc`` was raised on."""
    if not isinstance(exc, InvalidRecordError):
        exc = InvalidRecordError(f"malformed payload: {exc!r}", env.id)
    detail = str(exc) if exc.record_id else f"record {env.id!r}: {exc}"
    return InvalidRecordError(f"line {number}: {detail}")


def _template_from(cfg: PipelineConfig) -> formats.PromptTemplate:
    if cfg.template_style == "free":
        base = formats.DEFAULT_FREE_TEMPLATE
    elif cfg.template_style == "mcq":
        base = formats.DEFAULT_MCQ_TEMPLATE
    else:
        raise InvalidConfigError(f"unknown template style {cfg.template_style!r}")
    return formats.PromptTemplate(
        style=cfg.template_style,
        prefix=base.prefix if cfg.prompt_prefix is None else cfg.prompt_prefix,
        suffix=base.suffix if cfg.prompt_suffix is None else cfg.prompt_suffix,
        shuffle_options=bool(cfg.shuffle_options),
        seed=cfg.seed,
    )


def _convert_one(
    env: schema.Envelope,
    task: str,
    template: formats.PromptTemplate,
    index: int,
) -> tuple[schema.Envelope, dict | None]:
    if env.task != task:
        raise InvalidRecordError(f"task {env.task!r} does not match --task {task!r}", env.id)
    overlay_entry: dict | None = None
    if task == "vqa":
        sample = formats.convert_vqa(schema.payload_to_sample(env))
    elif task == "classification":
        rec = schema.payload_to_record(task, env.payload)
        sample = formats.convert_classification(rec, template, sample_id=env.id, meta=env.meta)
    elif task == "grounding":
        rec = schema.payload_to_record(task, env.payload)
        sample = formats.convert_grounding(rec, sample_id=env.id, meta=env.meta)
    elif task == "region":
        rec = schema.payload_to_record(task, env.payload)
        sample, overlay = formats.convert_region(rec, sample_id=env.id, meta=env.meta, object_index=index)
        if overlay is not None:
            overlay_entry = {
                "id": env.id,
                "box": list(overlay.box.as_tuple()),
                "color": list(overlay.color),
                "stroke_width": overlay.stroke_width,
            }
    elif task == "multiview":
        rec = schema.payload_to_record(task, env.payload)
        sample = formats.convert_multiview(rec, sample_id=env.id, meta=env.meta)
    elif task == "video":
        rec = schema.payload_to_record(task, env.payload)
        sample = formats.convert_video(rec, sample_id=env.id, meta=env.meta)
    else:
        raise InvalidConfigError(f"unknown task {task!r}")
    sample.validate()
    out = schema.Envelope(id=env.id, task=task, payload=schema.sample_to_payload(sample), meta=sample.meta)
    return out, overlay_entry


def cmd_convert(args) -> int:
    cfg = _config(args)
    if cfg.task is None:
        raise InvalidConfigError("convert requires --task (or a config with one)")
    template = _template_from(cfg)
    out_path = cfg.output or "-"

    records = drawn = 0
    # The sidecar stack is left last, so the overlays are committed after
    # the records and discarded if the records fail.
    with contextlib.ExitStack() as sidecar, _line_sink(out_path) as out:
        overlays = None
        for number, env in schema.iter_envelopes(_source(cfg.input or "-")):
            try:
                converted, overlay = _convert_one(env, cfg.task, template, records)
            except (InvalidRecordError, *_MALFORMED) as exc:
                raise _record_error(number, env, exc) from exc
            out.write(schema.dumps_envelope(converted) + "\n")
            records += 1
            if overlay is None:
                continue
            drawn += 1
            if args.overlays:
                if overlays is None:
                    overlays = sidecar.enter_context(_line_sink(args.overlays))
                overlays.write(json.dumps(overlay, ensure_ascii=False) + "\n")

    _print_json(
        {"records": records, "by_task": {cfg.task: records} if records else {}, "overlays": drawn},
        _summary_stream(out_path),
    )
    return 0


def cmd_mix(args) -> int:
    manifest = load_manifest(args.manifest)
    out_path = args.output or "-"
    stream, report = mix(manifest)
    with _line_sink(out_path) as out, contextlib.closing(iter(stream)) as records:
        for env in records:
            out.write(schema.dumps_envelope(env) + "\n")
    report_obj = report.to_dict()
    if out_path != "-":
        with _line_sink(out_path + ".report.json") as out:
            out.write(json.dumps(report_obj, ensure_ascii=False) + "\n")
    _print_json(report_obj, _summary_stream(out_path))
    return 0


def cmd_validate(args) -> int:
    checked = 0
    errors = 0
    for number, _, line in schema.numbered_lines(_source(args.path)):
        checked += 1
        try:
            env = schema.loads_envelope(line)
            schema.validate_envelope(env)
        except InvalidRecordError as exc:
            errors += 1
            _print_json({"line": number, "error": str(exc)})
    _print_json({"checked": checked, "errors": errors})
    return 0 if errors == 0 else 1


def _record_plans(env: schema.Envelope, cfg: PipelineConfig) -> list[TilePlan]:
    plan = lambda dims: plan_tiles(dims, cfg.min_tiles, cfg.max_tiles, cfg.use_thumbnail)  # noqa: E731
    payload = env.payload
    if env.task == "multiview":
        return [plan(MULTIVIEW_CANVAS)]
    if env.task == "video":
        if schema.is_conversation_payload(payload):
            count = len(payload.get("images", []))
        else:
            count = len(payload.get("frames", []))
        frame = ImageDims(TILE_SIZE, TILE_SIZE)
        return [plan(frame)] * count
    if "width" in payload and "height" in payload:
        return [plan(ImageDims(int(payload["width"]), int(payload["height"])))]
    if "width" in env.meta and "height" in env.meta:
        dims = ImageDims(int(env.meta["width"]), int(env.meta["height"]))
    else:
        dims = ImageDims(TILE_SIZE, TILE_SIZE)
    if schema.is_conversation_payload(payload):
        return [plan(dims)] * len(payload.get("images", []))
    return [plan(dims)]


def cmd_stats(args) -> int:
    cfg = _config(args)
    records = 0
    total_tokens = 0
    histogram: dict[str, int] = {}
    by_task: dict[str, int] = {}
    for number, env in schema.iter_envelopes(_source(args.path)):
        records += 1
        by_task[env.task] = by_task.get(env.task, 0) + 1
        try:
            plans = _record_plans(env, cfg)
        except (InvalidRecordError, *_MALFORMED) as exc:
            raise _record_error(number, env, exc) from exc
        for plan in plans:
            total_tokens += token_count(plan, cfg.tokens_per_tile)
            key = str(plan.total_tiles)
            histogram[key] = histogram.get(key, 0) + 1
    _print_json(
        {
            "records": records,
            "by_task": by_task,
            "visual_tokens": total_tokens,
            "tile_histogram": dict(sorted(histogram.items(), key=lambda kv: int(kv[0]))),
            "planner": {
                "min_tiles": cfg.min_tiles,
                "max_tiles": cfg.max_tiles,
                "use_thumbnail": cfg.use_thumbnail,
                "tokens_per_tile": cfg.tokens_per_tile,
            },
        }
    )
    return 0


def _json_objects(path: str) -> Iterator[tuple[int, dict]]:
    for number, _, line in schema.numbered_lines(_source(path)):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InvalidRecordError(f"line {number}: not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise InvalidRecordError(f"line {number}: expected a JSON object")
        yield number, obj


def _eval_pairs(path: str) -> list[metrics.EvalPair]:
    pairs = []
    for number, obj in _json_objects(path):
        refs = obj.get("references", obj.get("reference"))
        if isinstance(refs, str):
            refs = [refs]
        if refs is None or "prediction" not in obj:
            raise InvalidRecordError(f"line {number}: eval line needs prediction and references: {obj}")
        if not isinstance(obj["prediction"], str):
            raise InvalidRecordError(f"line {number}: prediction must be a string, got {obj['prediction']!r}")
        if not isinstance(refs, list) or not refs or not all(isinstance(ref, str) for ref in refs):
            raise InvalidRecordError(
                f"line {number}: references must be a string or a non-empty list of strings, got {refs!r}"
            )
        pairs.append(
            metrics.EvalPair(
                id=str(obj.get("id", "")), prediction=obj["prediction"], references=tuple(refs)
            )
        )
    return pairs


def _signal_pairs(path: str) -> list[metrics.SignalPair]:
    pairs = []
    for number, obj in _json_objects(path):
        if "predicted" not in obj or "truth" not in obj:
            raise InvalidRecordError(f"line {number}: signal line needs predicted and truth: {obj}")
        for key in ("predicted", "truth"):
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise InvalidRecordError(f"line {number}: {key} must be a finite number, got {value!r}")
        pairs.append(
            metrics.SignalPair(
                id=str(obj.get("id", "")),
                predicted=float(obj["predicted"]),
                truth=float(obj["truth"]),
            )
        )
    return pairs


def cmd_eval(args) -> int:
    if args.metric == "avg":
        if not args.scores:
            raise InvalidConfigError("eval --metric avg requires --scores FILE")
        try:
            scores = json.loads(Path(args.scores).read_text(encoding="utf-8"))
        except OSError as exc:
            raise RecordIOError(f"cannot read {args.scores}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidRecordError(f"scores file is not valid JSON: {exc}") from exc
        value = metrics.benchmark_average(scores, ocrbench_key=args.ocrbench_key)
        report = metrics.MetricReport(
            metrics={"average": value},
            count=len(scores),
            config={"ocrbench_key": args.ocrbench_key},
        )
    elif args.metric == "signals":
        thresholds = tuple(float(t) for t in args.thresholds.split(",")) if args.thresholds else metrics.DEFAULT_THRESHOLDS
        report = metrics.control_signal_metrics(_signal_pairs(args.input), thresholds)
    else:
        pairs = _eval_pairs(args.input)
        if args.metric == "mcq":
            report = metrics.MetricReport(
                metrics={"mcq_accuracy": metrics.mcq_accuracy(pairs)},
                count=len(pairs),
                config={},
            )
        elif args.metric == "bleu":
            report = metrics.MetricReport(
                metrics={f"bleu{args.max_n}": metrics.bleu(pairs, max_n=args.max_n)},
                count=len(pairs),
                config={"max_n": str(args.max_n), "tokenizer": "lowercase, punctuation split"},
            )
        else:
            report = metrics.MetricReport(
                metrics={"rouge_l": metrics.rouge_l(pairs, recall_only=args.recall_only)},
                count=len(pairs),
                config={"variant": "recall" if args.recall_only else "f-measure"},
            )
    _print_json({"metrics": report.metrics, "count": report.count, "config": report.config})
    return 0


def cmd_plan_tiles(args) -> int:
    cfg = _config(args)
    plan = plan_tiles(ImageDims(args.width, args.height), cfg.min_tiles, cfg.max_tiles, cfg.use_thumbnail)
    tokens = token_count(plan, cfg.tokens_per_tile)
    suffix = " + thumbnail" if plan.has_thumbnail else ""
    print(f"{plan.cols}x{plan.rows} tiles{suffix}, {tokens} tokens")
    return 0


def cmd_validate_kernels(args) -> int:
    from . import kernels  # numpy loads only for this command

    results = kernels.self_check(seed=args.seed, gradient_trials=args.gradient_trials)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        detail = f" ({result.detail})" if result.detail else ""
        print(f"{result.name}: {status}{detail}")
    return 0 if all(r.passed for r in results) else 1


def _add_planner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-tiles", type=int)
    parser.add_argument("--max-tiles", type=int)
    parser.add_argument("--no-thumbnail", dest="use_thumbnail", action="store_false", default=None)
    parser.add_argument("--tokens-per-tile", type=int)
    parser.add_argument("--config", help="JSON config file supplying defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlprep",
        description="Deterministic data pipeline for domain-adaptation training sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert raw domain records to conversation form")
    convert.add_argument("--task", choices=list(schema.KNOWN_TASKS))
    convert.add_argument("--input", "-i", help="input records path or - for stdin")
    convert.add_argument("--output", "-o", help="output path or - for stdout")
    convert.add_argument(
        "--template", dest="template_style", choices=["free", "mcq"], help="classification prompt style"
    )
    convert.add_argument("--prompt-prefix", help="override template prefix")
    convert.add_argument("--prompt-suffix", help="override template suffix")
    convert.add_argument(
        "--shuffle-options", action="store_true", default=None, help="seeded MCQ option shuffle"
    )
    convert.add_argument("--seed", type=int, help="root seed for seeded choices")
    convert.add_argument("--overlays", help="sidecar path for drawn-annotation overlay specs")
    convert.add_argument("--config", help="JSON config file supplying defaults")
    convert.set_defaults(func=cmd_convert)

    mix_cmd = sub.add_parser("mix", help="build a seeded domain/general mixture")
    mix_cmd.add_argument("--manifest", required=True, help="mix manifest JSON path")
    mix_cmd.add_argument("--output", "-o", help="output path or - for stdout")
    mix_cmd.set_defaults(func=cmd_mix)

    validate = sub.add_parser("validate", help="check every record parses and holds its invariants")
    validate.add_argument("path", help="records path or - for stdin")
    validate.set_defaults(func=cmd_validate)

    stats = sub.add_parser("stats", help="token and tile accounting over a record file")
    stats.add_argument("path", help="records path or - for stdin")
    _add_planner_flags(stats)
    stats.set_defaults(func=cmd_stats)

    eval_cmd = sub.add_parser("eval", help="score predictions against references")
    eval_cmd.add_argument("--metric", required=True, choices=["mcq", "bleu", "rouge", "signals", "avg"])
    eval_cmd.add_argument("--input", "-i", default="-", help="pairs path or - for stdin")
    eval_cmd.add_argument("--max-n", type=int, default=4, help="BLEU order")
    eval_cmd.add_argument("--recall-only", action="store_true", help="ROUGE-L recall instead of F")
    eval_cmd.add_argument("--thresholds", help="comma-separated A_tau thresholds")
    eval_cmd.add_argument("--scores", help="JSON score map for --metric avg")
    eval_cmd.add_argument("--ocrbench-key", default="OCRBench", help="score key on the 0-1000 scale")
    eval_cmd.set_defaults(func=cmd_eval)

    plan = sub.add_parser("plan-tiles", help="tile plan and token count for given dims")
    plan.add_argument("width", type=int)
    plan.add_argument("height", type=int)
    _add_planner_flags(plan)
    plan.set_defaults(func=cmd_plan_tiles)

    vk = sub.add_parser("validate-kernels", help="run the numerical kernel invariant suite")
    vk.add_argument("--seed", type=int, default=0)
    vk.add_argument("--gradient-trials", type=int, default=3)
    vk.set_defaults(func=cmd_validate_kernels)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        _print_json(
            {"error": type(exc).__name__, "message": str(exc), "exit_code": exc.exit_code},
            sys.stderr,
        )
        return exc.exit_code
    except OSError as exc:
        _print_json({"error": "OSError", "message": str(exc), "exit_code": 3}, sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
