"""Command-line pipeline driver.

Subcommands: convert, mix, validate, stats, eval, plan-tiles,
validate-kernels.  All behavior comes from flags laid over an optional JSON
config file; environment variables are never consulted.  The merged settings
are checked once, before any record is read, and no path a command writes may
name a path it reads or another path it writes.  Errors are emitted as one JSON
object on stderr and mapped to exit codes: 0 success, 1 validation,
2 configuration, 3 I/O.  Every JSON input is decoded by ``schema.JSON_DECODER``
and every output encoded by ``schema.JSON_ENCODER``; both refuse NaN and the
infinities, so an eval score past the float range is exit 1.  The settings
files (``--config``, the mix manifest, ``--scores``) are each
one JSON object, read by ``schema.read_json_object`` and type-checked: one
that cannot be read is exit 3, any other fault exit 2.  A bad input line is
named ``line N:`` (``<source>: line N:`` in mix), and a bad record
``record '<id>':`` after that.  validate is a dry run of
convert with the default template: a raw record passes exactly when convert
would convert it, a conversation record gets the sample and special-token
grammar checks, and each bad line is reported on stdout, in line order.

convert, validate, stats and eval read their input one record at a time:
convert, validate and stats hold one record, and eval holds the pairs its
metric needs.  mix holds a byte offset per source line and a position per
output record, and reads each record back as it writes it.

convert, validate and stats on a regular file, and mix on each source and
on its output, run one process per usable CPU when ``os.fork`` exists, but
no more processes than give each at least ``shards.MIN_SHARD_BYTES`` of
input (so a file under twice that size runs in one process): each takes a
contiguous range of the input (mix: of each source's bytes, then of the
output positions), and the workers' parts are joined in input order.  No
output byte, error or exit code depends on it.

File outputs are written to a uniquely named ``<out>.<random>.tmp`` sibling,
made before any record is read, as records arrive and renamed into place on
success (the ``--overlays`` sidecar's only if an overlay was drawn).  A failed
run removes the sibling, and with ``-o -`` prints no records, so only a
killed process leaves a ``*.tmp`` file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, get_args, get_type_hints

from . import formats, metrics, schema, shards
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


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared across commands, checked once as built by :func:`_config`."""

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

    def __post_init__(self) -> None:
        hints = get_type_hints(PipelineConfig)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # A bool is not an int here, as JSON true is not a number.
            if type(value) not in (get_args(hints[f.name]) or (hints[f.name],)):
                raise InvalidConfigError(f"config key {f.name!r} must be {f.type}, got {value!r}")
            # Argv bytes that are not UTF-8 arrive as lone surrogates, which no
            # output can encode; only a path gives the OS its bytes back.
            if type(value) is str and f.name not in ("input", "output") and schema.LONE_SURROGATE.search(value):
                raise InvalidConfigError(f"config key {f.name!r} holds a lone surrogate: {value!r}")
        if self.task is not None and self.task not in schema.KNOWN_TASKS:
            raise InvalidConfigError(f"task must be one of {list(schema.KNOWN_TASKS)}, got {self.task!r}")
        if not 1 <= self.min_tiles <= self.max_tiles:
            raise InvalidConfigError(f"tile bounds need 1 <= min <= max, got {self.min_tiles}..{self.max_tiles}")
        if self.tokens_per_tile < 1:
            raise InvalidConfigError(f"tokens_per_tile must be positive, got {self.tokens_per_tile}")


def _config(args) -> PipelineConfig:
    """The ``--config`` file's settings with every flag that was given laid over them, checked once.

    Each file key is a field.  A flag overrides the field its argparse
    ``dest`` names; a flag that was not given parses to None.
    """
    obj = {} if args.config is None else schema.read_json_object(args.config, "config")
    names = [f.name for f in dataclasses.fields(PipelineConfig)]
    unknown = set(obj) - set(names)
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
    given = {name: flag for name in names if (flag := getattr(args, name, None)) is not None}
    return PipelineConfig(**{**obj, **given})


def _check_paths(reads: list[tuple[str, str | None]], writes: list[tuple[str, str | None]]) -> None:
    """Refuse a run that writes a (role, path) it reads or writes elsewhere, compared by ``os.path.realpath``."""
    seen: dict[str, str] = {}
    for number, (role, path) in enumerate(reads + writes):
        written = number >= len(reads)
        if path is not None and (written or path != "-"):  # a read's "-" is stdin; every write's is one stdout
            real = path if path == "-" else os.path.realpath(path)
            if written and real in seen:
                raise InvalidConfigError(f"{role} {path!r} is the same file as {seen[real]}")
            seen.setdefault(real, f"{role} {path!r}")


def _source(path: str):
    return sys.stdin if path == "-" else path


@contextlib.contextmanager
def _line_sink(path: str, keep_empty: bool = True):
    """Yield a text handle whose contents reach ``path`` only if the block succeeds.

    A file is written through a uniquely named ``<name>.<random>.tmp``
    sibling (``tempfile.mkstemp``) as lines arrive and renamed into place at
    the end, so two runs writing one path never share a temporary file.
    ``-`` is spooled to an anonymous temporary file and copied to stdout at
    the end, so a failed run prints nothing.  On any failure the temporary
    file is removed, as it is when nothing was written and not
    ``keep_empty``.  A file's handle names its directory as ``part_dir``,
    so the parts of a sharded pass are made beside it (see :mod:`shards`).
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
            handle.part_dir = str(target.parent)
            yield handle
        if keep_empty or os.path.getsize(tmp):
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
    print(schema.dumps_object(obj), file=stream or sys.stdout)


def _template_from(cfg: PipelineConfig) -> formats.PromptTemplate:
    base = formats.DEFAULT_MCQ_TEMPLATE if cfg.template_style == "mcq" else formats.DEFAULT_FREE_TEMPLATE
    return formats.PromptTemplate(
        style=cfg.template_style,
        prefix=base.prefix if cfg.prompt_prefix is None else cfg.prompt_prefix,
        suffix=base.suffix if cfg.prompt_suffix is None else cfg.prompt_suffix,
        shuffle_options=bool(cfg.shuffle_options),
        seed=cfg.seed,
    )


def _convert_one(
    env: schema.Envelope, task: str, template: formats.PromptTemplate, index: int
) -> tuple[schema.Envelope, formats.OverlaySpec | None]:
    if env.task != task:
        raise InvalidRecordError(f"task {env.task!r} does not match --task {task!r}")
    if task != "vqa" and schema.is_conversation_payload(env.payload):
        raise InvalidRecordError("payload is already a conversation; only --task vqa converts one")
    sample, overlay = schema.envelope_to_sample(env, template, index)
    return schema.Envelope(id=env.id, task=task, payload=schema.sample_to_payload(sample), meta=sample.meta), overlay


def cmd_convert(args) -> int:
    cfg = _config(args)
    if cfg.task is None:
        raise InvalidConfigError("convert requires --task (or a config with one)")
    template = _template_from(cfg)
    out_path = cfg.output or "-"
    _check_paths([("config", args.config), ("input", cfg.input)], [("output", out_path), ("overlays", args.overlays)])

    def convert(lines: shards.Lines, sinks) -> tuple[int, int]:
        records = drawn = 0
        for number, index, _, line in lines:
            with schema.at_line(number) as named:
                env = schema.loads_envelope(schema.line_text(line))
                named.record = env.id
                converted, overlay = _convert_one(env, cfg.task, template, index)
            sinks[0].write(schema.dumps_envelope(converted) + "\n")
            records += 1
            if overlay is None:
                continue
            drawn += 1
            if args.overlays:
                entry = {
                    "id": env.id,
                    "box": list(overlay.box.as_tuple()),
                    "color": list(overlay.color),
                    "stroke_width": overlay.stroke_width,
                }
                sinks[1].write(schema.dumps_object(entry) + "\n")
        return records, drawn

    # The sidecar is opened after the output, so its faults come second, and
    # left last, so it is committed after the records and discarded if they fail.
    with contextlib.ExitStack() as sidecar, _line_sink(out_path) as out:
        sinks = (out, sidecar.enter_context(_line_sink(args.overlays, keep_empty=False))) if args.overlays else (out,)
        counts = shards.line_pass(_source(cfg.input or "-"), convert, sinks)
    records, drawn = map(sum, zip(*counts))

    _print_json(
        {"records": records, "by_task": {cfg.task: records} if records else {}, "overlays": drawn},
        _summary_stream(out_path),
    )
    return 0


def cmd_mix(args) -> int:
    manifest = load_manifest(args.manifest)
    out_path = args.output or "-"
    report_path = None if out_path == "-" else out_path + ".report.json"
    sources = [("source", src.path) for src in (*manifest.domain_sources, *manifest.general_sources)]
    _check_paths([("manifest", args.manifest), *sources], [("output", out_path), ("report", report_path)])
    stream, report = mix(manifest)
    positions = shards.split(len(stream), stream.nbytes)

    def emit(k: int, sinks) -> None:
        with contextlib.closing(stream.read(positions[k])) as records:
            for env in records:
                sinks[0].write(schema.dumps_envelope(env) + "\n")

    with _line_sink(out_path) as out:
        shards.run(len(positions), emit, (out,))
    report_obj = dataclasses.asdict(report)
    if report_path is not None:
        with _line_sink(report_path) as out:
            out.write(schema.dumps_object(report_obj) + "\n")
    _print_json(report_obj, _summary_stream(out_path))
    return 0


def cmd_validate(args) -> int:
    def check(lines: shards.Lines, sinks) -> tuple[int, int]:
        checked = errors = 0
        for number, _, _, line in lines:
            checked += 1
            try:
                schema.validate_envelope(schema.loads_envelope(schema.line_text(line)))
            except InvalidRecordError as exc:
                errors += 1
                _print_json({"line": number, "error": str(exc)}, sinks[0])
        return checked, errors

    checked, errors = map(sum, zip(*shards.line_pass(_source(args.path), check, (sys.stdout,))))
    _print_json({"checked": checked, "errors": errors})
    return 0 if errors == 0 else 1


def _record_plans(env: schema.Envelope, cfg: PipelineConfig) -> list[TilePlan]:
    plan = lambda dims: plan_tiles(dims, cfg.min_tiles, cfg.max_tiles, cfg.use_thumbnail)  # noqa: E731
    # A conversation is decoded but not checked: ConversationSample.validate
    # and the token grammar would cost 1.3-3x what stats costs, and validate
    # is the command that checks it.  A raw record is converted as convert
    # converts it, so stats refuses it exactly when convert does.
    if schema.is_conversation_payload(env.payload):
        sample = schema.payload_to_sample(env)
    else:
        sample, _ = schema.envelope_to_sample(env)
    if env.task == "multiview":
        return [plan(MULTIVIEW_CANVAS)]
    dims = ImageDims(TILE_SIZE, TILE_SIZE)
    if env.task != "video" and "width" in sample.meta and "height" in sample.meta:
        dims = ImageDims(int(sample.meta["width"]), int(sample.meta["height"]))
    return [plan(dims)] * len(sample.images)


def cmd_stats(args) -> int:
    cfg = _config(args)

    def tally(lines: shards.Lines, _) -> tuple[int, int, Counter, Counter]:
        records = total_tokens = 0
        histogram: Counter = Counter()
        by_task: Counter = Counter()
        for number, _, _, line in lines:
            with schema.at_line(number) as named:
                env = schema.loads_envelope(schema.line_text(line))
                named.record = env.id
                plans = _record_plans(env, cfg)
            records += 1
            by_task[env.task] += 1
            for plan in plans:
                total_tokens += token_count(plan, cfg.tokens_per_tile)
                histogram[str(plan.total_tiles)] += 1
        return records, total_tokens, histogram, by_task

    # Each column adds its shards in order, so by_task keeps the order of first appearance.
    parts = shards.line_pass(_source(args.path), tally)
    records, total_tokens, histogram, by_task = (sum(column[1:], column[0]) for column in zip(*parts))
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


def _parsed_lines(path: str, parse: Callable[[dict], object]) -> list:
    """``parse`` of each line's JSON object, in order."""
    parsed = []
    for number, _, _, line in schema.numbered_lines(_source(path)):
        with schema.at_line(number):
            parsed.append(parse(schema.loads_object(schema.line_text(line))))
    return parsed


def _eval_pair(obj: dict) -> metrics.EvalPair:
    refs = obj.get("references", obj.get("reference"))
    if isinstance(refs, str):
        refs = [refs]
    if refs is None or "prediction" not in obj:
        raise InvalidRecordError(f"eval line needs prediction and references: {obj}")
    if not isinstance(obj["prediction"], str):
        raise InvalidRecordError(f"prediction must be a string, got {obj['prediction']!r}")
    if not isinstance(refs, list) or not refs or not all(isinstance(ref, str) for ref in refs):
        raise InvalidRecordError(f"references must be a string or a non-empty list of strings, got {refs!r}")
    return metrics.EvalPair(id=str(obj.get("id", "")), prediction=obj["prediction"], references=tuple(refs))


def _signal_pair(obj: dict) -> metrics.SignalPair:
    if "predicted" not in obj or "truth" not in obj:
        raise InvalidRecordError(f"signal line needs predicted and truth: {obj}")
    for key in ("predicted", "truth"):
        if not schema.is_finite_number(obj[key]):
            raise InvalidRecordError(f"{key} must be a finite number, got {obj[key]!r}")
    return metrics.SignalPair(
        id=str(obj.get("id", "")), predicted=float(obj["predicted"]), truth=float(obj["truth"])
    )


def cmd_eval(args) -> int:
    if args.metric == "avg":
        if not args.scores:
            raise InvalidConfigError("eval --metric avg requires --scores FILE")
        scores = schema.read_json_object(args.scores, "scores")
        bad = {name: score for name, score in scores.items() if not schema.is_finite_number(score)}
        if bad:
            raise InvalidConfigError(f"scores {args.scores}: values must be finite numbers, got {bad}")
        value = metrics.benchmark_average(scores, ocrbench_key=args.ocrbench_key)
        report = metrics.MetricReport(
            metrics={"average": value},
            count=len(scores),
            config={"ocrbench_key": args.ocrbench_key},
        )
    elif args.metric == "signals":
        thresholds = args.thresholds.split(",") if args.thresholds else metrics.DEFAULT_THRESHOLDS
        try:
            thresholds = tuple(map(float, thresholds))
        except ValueError:
            raise InvalidConfigError(f"--thresholds must be numbers, got {args.thresholds!r}") from None
        metrics.check_thresholds(thresholds)
        report = metrics.control_signal_metrics(_parsed_lines(args.input, _signal_pair), thresholds)
    else:
        if args.metric == "bleu":
            metrics.check_max_n(args.max_n)
        pairs = _parsed_lines(args.input, _eval_pair)
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
    if not all(1 <= dim <= sys.float_info.max for dim in (args.width, args.height)):
        raise InvalidConfigError(f"width and height must be positive and fit a float, got {args.width}x{args.height}")
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
