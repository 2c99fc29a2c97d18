"""Command-line pipeline driver.

Subcommands: convert, mix, validate, stats, eval, plan-tiles,
validate-kernels.  All behavior comes from flags plus an optional JSON
config file (flags win); environment variables are never consulted.  Errors
are emitted as one JSON object on stderr and mapped to exit codes:
0 success, 1 validation, 2 configuration, 3 I/O.

File outputs are written to a temporary sibling and renamed into place, so
an interrupted run leaves only a clearly incomplete ``*.tmp`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import formats, metrics, schema
from .errors import InvalidConfigError, InvalidRecordError, PipelineError, RecordIOError
from .geometry import (
    DEFAULT_MAX_TILES,
    DEFAULT_MIN_TILES,
    ImageDims,
    MULTIVIEW_GRID_COLS,
    MULTIVIEW_GRID_ROWS,
    MULTIVIEW_VIEW_HEIGHT,
    MULTIVIEW_VIEW_WIDTH,
    TILE_SIZE,
    TOKENS_PER_TILE,
    TilePlan,
    plan_tiles,
    token_count,
)
from .mixer import load_manifest, mix


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
    workers: int = 1
    manifest: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise InvalidConfigError(f"workers must be >= 1, got {self.workers}")
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


def _pick(flag, config_value):
    return flag if flag is not None else config_value


def _open_in(path: str):
    return sys.stdin if path == "-" else open(path, "r", encoding="utf-8")


def _write_lines(path: str, lines: Sequence[str]) -> None:
    """Write to stdout directly, or to a file atomically via a .tmp sibling."""
    payload = "".join(line + "\n" for line in lines)
    if path == "-":
        sys.stdout.write(payload)
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        raise RecordIOError(f"cannot write {path}: {exc}") from exc


def _read_envelopes_arg(path: str) -> list[schema.Envelope]:
    if path == "-":
        return schema.read_envelopes(sys.stdin)
    return schema.read_envelopes(path)


def _summary_stream(output_path: str):
    return sys.stderr if output_path == "-" else sys.stdout


def _print_json(obj, stream=None) -> None:
    print(json.dumps(obj, ensure_ascii=False), file=stream or sys.stdout)


def _template_from(cfg: PipelineConfig, args) -> formats.PromptTemplate:
    style = _pick(args.template, cfg.template_style)
    prefix = _pick(args.prompt_prefix, cfg.prompt_prefix)
    suffix = _pick(args.prompt_suffix, cfg.prompt_suffix)
    if style == "free":
        base = formats.DEFAULT_FREE_TEMPLATE
    elif style == "mcq":
        base = formats.DEFAULT_MCQ_TEMPLATE
    else:
        raise InvalidConfigError(f"unknown template style {style!r}")
    return formats.PromptTemplate(
        style=style,
        prefix=base.prefix if prefix is None else prefix,
        suffix=base.suffix if suffix is None else suffix,
        shuffle_options=bool(args.shuffle_options or cfg.shuffle_options),
        seed=_pick(args.seed, cfg.seed),
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
    cfg = PipelineConfig.from_file(args.config)
    task = _pick(args.task, cfg.task)
    if task is None:
        raise InvalidConfigError("convert requires --task (or a config with one)")
    in_path = _pick(args.input, cfg.input) or "-"
    out_path = _pick(args.output, cfg.output) or "-"
    if in_path == out_path and in_path != "-":
        raise InvalidConfigError(f"input and output must be distinct paths, both are {in_path!r}")
    template = _template_from(cfg, args)
    workers = _pick(args.workers, cfg.workers)
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers}")

    envelopes = _read_envelopes_arg(in_path)
    jobs = [(env, task, template, i) for i, env in enumerate(envelopes)]
    if workers == 1:
        converted = [_convert_one(*job) for job in jobs]
    else:
        from concurrent.futures import ThreadPoolExecutor

        # Executor.map preserves submission order, keeping output order
        # equal to input order regardless of worker scheduling.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            converted = list(pool.map(lambda job: _convert_one(*job), jobs))

    _write_lines(out_path, [schema.dumps_envelope(env) for env, _ in converted])
    overlays = [entry for _, entry in converted if entry is not None]
    if args.overlays and overlays:
        _write_lines(args.overlays, [json.dumps(entry, ensure_ascii=False) for entry in overlays])

    by_task: dict[str, int] = {}
    for env, _ in converted:
        by_task[env.task] = by_task.get(env.task, 0) + 1
    _print_json(
        {"records": len(converted), "by_task": by_task, "overlays": len(overlays)},
        _summary_stream(out_path),
    )
    return 0


def cmd_mix(args) -> int:
    manifest = load_manifest(args.manifest)
    out_path = args.output or "-"
    stream, report = mix(manifest)
    _write_lines(out_path, [schema.dumps_envelope(env) for env in stream])
    report_obj = report.to_dict()
    if out_path != "-":
        _write_lines(out_path + ".report.json", [json.dumps(report_obj, ensure_ascii=False)])
    _print_json(report_obj, _summary_stream(out_path))
    return 0


def cmd_validate(args) -> int:
    checked = 0
    errors = 0
    try:
        handle = _open_in(args.path)
    except OSError as exc:
        raise RecordIOError(f"cannot read {args.path}: {exc}") from exc
    with handle if handle is not sys.stdin else contextlib.nullcontext(handle) as lines:
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            checked += 1
            try:
                env = schema.loads_envelope(line)
                schema.validate_envelope(env)
            except InvalidRecordError as exc:
                errors += 1
                _print_json({"line": number, "error": str(exc)})
    _print_json({"checked": checked, "errors": errors})
    return 0 if errors == 0 else 1


def _record_plans(env: schema.Envelope, cfg_args) -> list[TilePlan]:
    min_tiles, max_tiles, thumb = cfg_args
    plan = lambda dims: plan_tiles(dims, min_tiles, max_tiles, thumb)  # noqa: E731
    payload = env.payload
    if env.task == "multiview":
        canvas = ImageDims(
            MULTIVIEW_GRID_COLS * MULTIVIEW_VIEW_WIDTH,
            MULTIVIEW_GRID_ROWS * MULTIVIEW_VIEW_HEIGHT,
        )
        return [plan(canvas)]
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
    cfg = PipelineConfig.from_file(args.config)
    min_tiles = _pick(args.min_tiles, cfg.min_tiles)
    max_tiles = _pick(args.max_tiles, cfg.max_tiles)
    thumb = cfg.use_thumbnail and not args.no_thumbnail
    per_tile = _pick(args.tokens_per_tile, cfg.tokens_per_tile)

    envelopes = _read_envelopes_arg(args.path)
    total_tokens = 0
    histogram: dict[str, int] = {}
    by_task: dict[str, int] = {}
    for env in envelopes:
        by_task[env.task] = by_task.get(env.task, 0) + 1
        for plan in _record_plans(env, (min_tiles, max_tiles, thumb)):
            total_tokens += token_count(plan, per_tile)
            key = str(plan.total_tiles)
            histogram[key] = histogram.get(key, 0) + 1
    _print_json(
        {
            "records": len(envelopes),
            "by_task": by_task,
            "visual_tokens": total_tokens,
            "tile_histogram": dict(sorted(histogram.items(), key=lambda kv: int(kv[0]))),
            "planner": {
                "min_tiles": min_tiles,
                "max_tiles": max_tiles,
                "use_thumbnail": thumb,
                "tokens_per_tile": per_tile,
            },
        }
    )
    return 0


def _load_json_lines(path: str) -> list[dict]:
    out = []
    try:
        handle = _open_in(path)
    except OSError as exc:
        raise RecordIOError(f"cannot read {path}: {exc}") from exc
    with handle if handle is not sys.stdin else contextlib.nullcontext(handle) as lines:
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidRecordError(f"line {number}: not valid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise InvalidRecordError(f"line {number}: expected a JSON object")
            out.append(obj)
    return out


def _eval_pairs(path: str) -> list[metrics.EvalPair]:
    pairs = []
    for obj in _load_json_lines(path):
        refs = obj.get("references", obj.get("reference"))
        if isinstance(refs, str):
            refs = [refs]
        if refs is None or "prediction" not in obj:
            raise InvalidRecordError(f"eval line needs prediction and references: {obj}")
        pairs.append(
            metrics.EvalPair(
                id=str(obj.get("id", "")), prediction=obj["prediction"], references=tuple(refs)
            )
        )
    return pairs


def _signal_pairs(path: str) -> list[metrics.SignalPair]:
    pairs = []
    for obj in _load_json_lines(path):
        if "predicted" not in obj or "truth" not in obj:
            raise InvalidRecordError(f"signal line needs predicted and truth: {obj}")
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
    cfg = PipelineConfig.from_file(args.config)
    min_tiles = _pick(args.min_tiles, cfg.min_tiles)
    max_tiles = _pick(args.max_tiles, cfg.max_tiles)
    thumb = cfg.use_thumbnail and not args.no_thumbnail
    per_tile = _pick(args.tokens_per_tile, cfg.tokens_per_tile)
    plan = plan_tiles(ImageDims(args.width, args.height), min_tiles, max_tiles, thumb)
    tokens = token_count(plan, per_tile)
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
    convert.add_argument("--template", choices=["free", "mcq"], help="classification prompt style")
    convert.add_argument("--prompt-prefix", help="override template prefix")
    convert.add_argument("--prompt-suffix", help="override template suffix")
    convert.add_argument("--shuffle-options", action="store_true", help="seeded MCQ option shuffle")
    convert.add_argument("--seed", type=int, help="root seed for seeded choices")
    convert.add_argument("--workers", type=int, help="parallel conversion workers")
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
    stats.add_argument("--min-tiles", type=int)
    stats.add_argument("--max-tiles", type=int)
    stats.add_argument("--no-thumbnail", action="store_true")
    stats.add_argument("--tokens-per-tile", type=int)
    stats.add_argument("--config", help="JSON config file supplying defaults")
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
    plan.add_argument("--min-tiles", type=int)
    plan.add_argument("--max-tiles", type=int)
    plan.add_argument("--no-thumbnail", action="store_true")
    plan.add_argument("--tokens-per-tile", type=int)
    plan.add_argument("--config", help="JSON config file supplying defaults")
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
