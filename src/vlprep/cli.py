"""Command-line pipeline driver.

Subcommands: convert, mix, validate, stats, eval, plan-tiles, validate-kernels.
All behavior comes from flags laid over an optional JSON config file; no
environment variable is consulted, ``PYTHONIOENCODING`` included: :func:`_write`
writes every byte out as UTF-8.  The merged settings are checked before any
record is read, and no path a command writes may name a path it reads or writes
elsewhere.  Errors are one JSON object on stderr (dropped if it is closed),
mapped to exit codes: 0 success, 1 validation, 2 configuration, 3 I/O (a closed
stdout too), 130 Ctrl-C.  JSON is decoded by ``jsonl.JSON_DECODER`` and encoded
by ``jsonl.JSON_ENCODER``, which refuse NaN and the infinities (an eval score
past the float range is exit 1).  Each settings file (``--config``, the mix
manifest, ``--scores``) is one JSON object, read by ``jsonl.read_json_object``:
one that cannot be read is exit 3, any other fault exit 2.  A bad input line is
named ``line N:`` (``<source>: line N:`` in mix), and a bad record ``record
'<id>':`` after that.  validate is a dry run of convert with the default
template: a raw record passes exactly when convert converts it, a conversation
record gets the sample and special-token grammar checks, and each bad line is a
row on stdout, in line order.

convert, validate, stats and eval read their input one record at a time:
convert and stats, like mix's indexing, through ``schema.records``, validate
through its own loop, which goes on past a bad line.  Each holds one record,
but eval holds the pairs its metric needs, parsed in this process.  mix holds
a byte offset per source line and a position per output record, and reads
each record back as it writes it.

convert, validate and stats on a regular file, mix on each source and on its
output, and ``metrics.bleu`` on eval's pairs run one process per usable CPU,
each on a contiguous range, as :mod:`shards` sets out (a file under twice
``shards.MIN_SHARD_BYTES`` runs in one process); ROUGE-L, the other metrics
and eval's parse run in this process, where a worker did not pay.  No output
byte, error or exit code depends on it.

File outputs are written to a uniquely named ``<out>.<random>.tmp`` sibling,
made before any record is read, as records arrive and renamed into place on
success (the ``--overlays`` sidecar's only if an overlay was drawn).  A failed
run removes the sibling, and with ``-o -`` (or validate's rows) prints no
lines; only a killed process leaves a ``*.tmp`` file behind.

Each command loads only the modules it runs: ``cli`` imports ``errors`` and
``geometry`` alone, so ``plan-tiles`` starts on the planner, and a settings
file or an error line adds only ``jsonl``.  ``jsonl``, ``schema``,
``formats``, ``shards``, ``metrics``, ``mix`` and ``load_manifest`` load on
first use (a PEP 562 ``__getattr__``) and are bound here as plain attributes,
since the benchmark's traced runs patch ``cli.schema`` and ``cli.mix`` by name;
:func:`main` binds those a command lists in its parser defaults, and leaves a
name already bound (a patch) alone.  The record types are named tuples: no
command loads the data-class module, nor the ``inspect`` and ``ast`` it pulls in.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, get_args, get_type_hints

from .errors import KNOWN_TASKS, LONE_SURROGATE, MARKER, check_keys
from .errors import InvalidConfigError, InvalidRecordError, PipelineError, RecordIOError
from .geometry import (
    DEFAULT_MAX_TILES,
    DEFAULT_MIN_TILES,
    MAX_TILES_LIMIT,
    TOKENS_PER_TILE,
    ImageDims,
    TilePlan,
    plan_tiles,
    token_count,
)

# The module each lazy name is loaded from; a name that is not the module's own is an attribute of it.
_LAZY = dict(mix="mixer", load_manifest="mixer", **{m: m for m in ("jsonl", "schema", "formats", "shards", "metrics")})


def _bound(name: str):
    """``name``'s value here; a lazy name is loaded and bound first, and a value already bound (a patch) stays."""
    if name in globals():
        return globals()[name]
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{_LAZY[name]}", __package__)
    globals()[name] = value = value if _LAZY[name] == name else getattr(value, name)
    return value


__getattr__ = _bound  # PEP 562: ``cli.schema`` from outside loads it as a command does


class _Settings(NamedTuple):
    """The settings' names, types and defaults, which :class:`PipelineConfig` checks as it is built."""

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


class PipelineConfig(_Settings):
    """Knobs shared across commands, checked once as built by :func:`_config`."""

    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        hints = get_type_hints(_Settings)
        for name, value in zip(self._fields, self):
            # A bool is not an int here, as JSON true is not a number.
            if type(value) not in (get_args(hints[name]) or (hints[name],)):
                # The annotation as written: ``str | None``, not the type it names.
                written = _Settings.__annotations__[name].__forward_arg__
                raise InvalidConfigError(f"config key {name!r} must be {written}, got {value!r}")
            # Argv bytes that are not UTF-8 arrive as lone surrogates, which no
            # output can encode; only a path gives the OS its bytes back.
            if type(value) is str and name not in ("input", "output") and LONE_SURROGATE.search(value):
                raise InvalidConfigError(f"config key {name!r} holds a lone surrogate: {value!r}")
        if self.task is not None and self.task not in KNOWN_TASKS:
            raise InvalidConfigError(f"task must be one of {list(KNOWN_TASKS)}, got {self.task!r}")
        if not 1 <= self.min_tiles <= self.max_tiles:
            raise InvalidConfigError(f"tile bounds need 1 <= min <= max, got {self.min_tiles}..{self.max_tiles}")
        if self.max_tiles > MAX_TILES_LIMIT:
            raise InvalidConfigError(f"max_tiles must be at most {MAX_TILES_LIMIT}, got {self.max_tiles}")
        if self.tokens_per_tile < 1:
            raise InvalidConfigError(f"tokens_per_tile must be positive, got {self.tokens_per_tile}")
        if self.template_style not in ("free", "mcq"):
            raise InvalidConfigError(f"template style must be 'free' or 'mcq', got {self.template_style!r}")
        for what, text in (("prefix", self.prompt_prefix), ("suffix", self.prompt_suffix)):
            if text is not None and (hit := MARKER.search(text)):
                raise InvalidConfigError(f"template {what} contains reserved token {hit.group(0)!r}")


def _config(args) -> PipelineConfig:
    """The ``--config`` file's settings with every flag that was given laid over them, checked once.

    Each file key is a field.  A flag overrides the field its argparse
    ``dest`` names; a flag that was not given parses to None.
    """
    obj = {} if args.config is None else _bound("jsonl").read_json_object(args.config, "config")
    check_keys(obj, PipelineConfig._fields, (), "config")
    given = {name: flag for name in PipelineConfig._fields if (flag := getattr(args, name, None)) is not None}
    return PipelineConfig(**{**obj, **given})


def _check_paths(reads: list[tuple[str, str | None]], writes: list[tuple[str, str | None]]) -> None:
    """Refuse an empty (role, path) (exit 3), or a write to a path read or written elsewhere (``os.path.realpath``)."""
    seen: dict[str, str] = {}
    for number, (role, path) in enumerate(reads + writes):
        written = number >= len(reads)
        if path == "":
            raise RecordIOError(f"cannot {'write' if written else 'read'} {role} '': an empty path names no file")
        if path is not None and (written or path != "-"):  # a read's "-" is stdin; every write's is one stdout
            real = path if path == "-" else os.path.realpath(path)
            if written and real in seen:
                raise InvalidConfigError(f"{role} {path!r} is the same file as {seen[real]}")
            seen.setdefault(real, f"{role} {path!r}")


def _source(path: str):
    _check_paths([("input", path)], [])
    if path == "-" and sys.stdin is None:  # fd 0 was closed when the process started
        raise RecordIOError("cannot read input: stdin is closed")
    return sys.stdin if path == "-" else path


@contextlib.contextmanager
def _line_sink(path: str, keep_empty: bool = True):
    """Yield a text handle whose contents reach ``path`` only if the block succeeds.

    A file is written through a uniquely named ``<name>.<random>.tmp``
    sibling (``tempfile.mkstemp``) as lines arrive and renamed into place at
    the end, so two runs writing one path never share a temporary file.
    ``-`` is spooled to an anonymous temporary file and given to :func:`_write`
    at the end, so a failed run prints nothing.  On any failure the temporary
    file is removed, as it is when nothing was written and not
    ``keep_empty``.  A file's handle names its directory as ``part_dir``,
    so the parts of a sharded pass are made beside it (see :mod:`shards`).
    """
    import tempfile
    if path == "-":
        with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
            yield spool
            spool.seek(0)
            _write(sys.stdout, spool)
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


def _write(stream, out) -> None:
    """Write ``out``, a string or a rewound UTF-8 spool, to ``stream`` as UTF-8 bytes, whatever the locale says.

    The one writer of stdout and stderr.  A lone surrogate (argv bytes that are
    not UTF-8) is written as its ``\\udcXX`` escape, which JSON reads back.  A
    stream with no binary layer (an ``io.StringIO``) gets text; None, nothing.
    """
    if stream is not None:
        if hasattr(stream, "buffer"):
            stream.flush()  # the text written to the stream goes first
            stream, out = stream.buffer, out.encode(errors="backslashreplace") if isinstance(out, str) else out.buffer
        if isinstance(out, (str, bytes)):
            stream.write(out)
        else:
            import shutil  # here, not at the top: plan-tiles starts on the planner alone
            shutil.copyfileobj(out, stream)


def _print_json(obj, stderr: bool = False) -> None:
    _write(sys.stderr if stderr else sys.stdout, _bound("jsonl").dumps_object(obj) + "\n")


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
    out_path = "-" if cfg.output is None else cfg.output
    _check_paths([("config", args.config), ("input", cfg.input)], [("output", out_path), ("overlays", args.overlays)])

    def convert(lines: jsonl.Lines, sinks) -> tuple[int, int]:
        records = drawn = 0
        for converted, overlay in schema.records(lines, lambda env, i, *_: _convert_one(env, cfg.task, template, i)):
            sinks[0].write(schema.dumps_envelope(converted) + "\n")
            records += 1
            if overlay is not None:
                drawn += 1
                if args.overlays is not None:
                    sinks[1].write(jsonl.dumps_object({"id": converted.id, **overlay._asdict()}) + "\n")
        return records, drawn

    # The sidecar is opened after the output, so its faults come second, and
    # left last, so it is committed after the records and discarded if they fail.
    with contextlib.ExitStack() as sidecar, _line_sink(out_path) as out:
        sinks = (out,)
        if args.overlays is not None:
            sinks += (sidecar.enter_context(_line_sink(args.overlays, keep_empty=False)),)
        records, drawn = shards.line_pass(_source("-" if cfg.input is None else cfg.input), convert, sinks)

    _print_json(
        {"records": records, "by_task": {cfg.task: records} if records else {}, "overlays": drawn},
        stderr="-" in (out_path, args.overlays),  # a summary never joins the records on stdout
    )
    return 0


def cmd_mix(args) -> int:
    manifest = load_manifest(args.manifest)
    out_path = "-" if args.output is None else args.output
    report_path = None if out_path == "-" else out_path + ".report.json"
    sources = [("source", src.path) for src in (*manifest.domain_sources, *manifest.general_sources)]
    _check_paths([("manifest", args.manifest), *sources], [("output", out_path), ("report", report_path)])
    stream, report = mix(manifest)

    def emit(positions: range, sinks) -> tuple:
        with contextlib.closing(stream.read(positions)) as records:
            for env in records:
                sinks[0].write(schema.dumps_envelope(env) + "\n")
        return ()

    with _line_sink(out_path) as out:
        shards.run(shards.split(len(stream), stream.nbytes), emit, (out,))
    report_obj = {**report._asdict(), "sources": [stat._asdict() for stat in report.sources]}
    if report_path is not None:
        with _line_sink(report_path) as out:
            out.write(jsonl.dumps_object(report_obj) + "\n")
    _print_json(report_obj, stderr=out_path == "-")
    return 0


def cmd_validate(args) -> int:
    # Not schema.records: this loop goes on past a bad line, and validate_envelope names the record of its row.
    def check(lines: jsonl.Lines, sinks) -> tuple[int, int]:
        checked = errors = 0
        for number, _, _, line in lines:
            checked += 1
            try:
                schema.validate_envelope(schema.loads_envelope(jsonl.line_text(line)))
            except InvalidRecordError as exc:
                errors += 1
                sinks[0].write(jsonl.dumps_object({"line": number, "error": str(exc)}) + "\n")
        return checked, errors

    with _line_sink("-") as rows:
        checked, errors = shards.line_pass(_source(args.path), check, (rows,))
    _print_json({"checked": checked, "errors": errors})
    return 0 if errors == 0 else 1


def _record_plans(
    env: schema.Envelope, cfg: PipelineConfig, template: formats.PromptTemplate
) -> tuple[TilePlan, int] | None:
    """``(plan, count)``: ``count`` of the record's images planned as ``plan`` by ``schema.planned_images``, or None."""
    # A conversation is decoded but not checked: ConversationSample.validate
    # and the token grammar would cost 1.3-3x what stats costs, and validate
    # is the command that checks it.  A raw record is converted as convert
    # converts it, so stats refuses it exactly when convert does.
    if schema.is_conversation_payload(env.payload):
        sample = schema.payload_to_sample(env)
    else:
        sample, _ = schema.envelope_to_sample(env, template)
    planned = schema.planned_images(env.task, sample)
    return planned and (plan_tiles(planned[0], cfg.min_tiles, cfg.max_tiles, cfg.use_thumbnail), planned[1])


def cmd_stats(args) -> int:
    cfg = _config(args)
    template = _template_from(cfg)

    def tally(lines: jsonl.Lines, _) -> tuple[int, Counter, Counter]:
        total_tokens = 0
        histogram: Counter = Counter()
        by_task: Counter = Counter()
        for task, planned in schema.records(lines, lambda env, *_: (env.task, _record_plans(env, cfg, template))):
            by_task[task] += 1
            if planned:
                plan, count = planned
                total_tokens += token_count(plan, cfg.tokens_per_tile) * count
                histogram[str(plan.total_tiles)] += count
        return total_tokens, histogram, by_task

    total_tokens, histogram, by_task = shards.line_pass(_source(args.path), tally)
    _print_json(
        {
            "records": sum(by_task.values()),
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
    """``parse`` of each line's JSON object, in order: a pair, which names no record, so not by ``schema.records``."""
    parsed = []
    for number, _, _, line in jsonl.numbered_lines(_source(path)):
        with jsonl.at_line(number):
            parsed.append(parse(jsonl.loads_object(jsonl.line_text(line))))
    return parsed


def _eval_pair(obj: dict) -> metrics.EvalPair:
    refs = obj.get("references", obj.get("reference"))
    if refs is None or "prediction" not in obj:
        raise InvalidRecordError(f"eval line needs prediction and references: {obj}")
    if not isinstance(obj["prediction"], str):
        raise InvalidRecordError(f"prediction must be a string, got {obj['prediction']!r}")
    if not (isinstance(refs, str) or (isinstance(refs, list) and refs and all(isinstance(ref, str) for ref in refs))):
        raise InvalidRecordError(f"references must be a string or a non-empty list of strings, got {refs!r}")
    return metrics.EvalPair(id=str(obj.get("id", "")), prediction=obj["prediction"], references=refs)


def _signal_pair(obj: dict) -> metrics.SignalPair:
    if "predicted" not in obj or "truth" not in obj:
        raise InvalidRecordError(f"signal line needs predicted and truth: {obj}")
    for key in ("predicted", "truth"):
        if not jsonl.is_finite_number(obj[key]):
            raise InvalidRecordError(f"{key} must be a finite number, got {obj[key]!r}")
    return metrics.SignalPair(
        id=str(obj.get("id", "")), predicted=float(obj["predicted"]), truth=float(obj["truth"])
    )


def cmd_eval(args) -> int:
    if args.metric == "avg":
        if args.scores is None:
            raise InvalidConfigError("eval --metric avg requires --scores FILE")
        scores = jsonl.read_json_object(args.scores, "scores")
        bad = {name: score for name, score in scores.items() if not jsonl.is_finite_number(score)}
        if bad:
            raise InvalidConfigError(f"scores {args.scores}: values must be finite numbers, got {bad}")
        value = metrics.benchmark_average(scores, ocrbench_key=args.ocrbench_key)
        printed = {"metrics": {"average": value}, "count": len(scores), "config": {"ocrbench_key": args.ocrbench_key}}
    elif args.metric == "signals":
        thresholds = metrics.DEFAULT_THRESHOLDS if args.thresholds is None else args.thresholds.split(",")
        try:
            thresholds = tuple(map(float, thresholds))
        except ValueError:
            raise InvalidConfigError(f"--thresholds must be numbers, got {args.thresholds!r}") from None
        metrics.check_thresholds(thresholds)
        report = metrics.control_signal_metrics(_parsed_lines(args.input, _signal_pair), thresholds)
        printed = {"metrics": report.metrics, "count": report.count, "config": report.config}
    else:
        if args.metric == "bleu":
            metrics.check_max_n(args.max_n)
        pairs = _parsed_lines(args.input, _eval_pair)
        if args.metric == "mcq":
            scored, config = {"mcq_accuracy": metrics.mcq_accuracy(pairs)}, {}
        elif args.metric == "bleu":
            scored = {f"bleu{args.max_n}": metrics.bleu(pairs, max_n=args.max_n)}
            config = {"max_n": str(args.max_n), "tokenizer": "lowercase, punctuation split"}
        else:
            scored = {"rouge_l": metrics.rouge_l(pairs, recall_only=args.recall_only)}
            config = {"variant": "recall" if args.recall_only else "f-measure"}
        printed = {"metrics": scored, "count": len(pairs), "config": config}
    _print_json(printed)
    return 0


def cmd_plan_tiles(args) -> int:
    cfg = _config(args)
    if not all(1 <= dim <= sys.float_info.max for dim in (args.width, args.height)):
        raise InvalidConfigError(f"width and height must be positive and fit a float, got {args.width}x{args.height}")
    plan = plan_tiles(ImageDims(args.width, args.height), cfg.min_tiles, cfg.max_tiles, cfg.use_thumbnail)
    tokens = token_count(plan, cfg.tokens_per_tile)
    suffix = " + thumbnail" if plan.has_thumbnail else ""
    _write(sys.stdout, f"{plan.cols}x{plan.rows} tiles{suffix}, {tokens} tokens\n")
    return 0


def cmd_validate_kernels(args) -> int:
    from . import kernels  # numpy loads only for this command

    results = kernels.self_check(seed=args.seed, gradient_trials=args.gradient_trials)
    for result in results:
        detail = f" ({result.detail})" if result.detail else ""
        _write(sys.stdout, f"{result.name}: {'PASS' if result.passed else 'FAIL'}{detail}\n")
    return 0 if all(r.passed for r in results) else 1


def _add_planner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-tiles", type=int)
    parser.add_argument("--max-tiles", type=int)
    parser.add_argument("--no-thumbnail", dest="use_thumbnail", action="store_false", default=None)
    parser.add_argument("--tokens-per-tile", type=int)
    parser.add_argument("--config", help="JSON config file supplying defaults")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is a configuration error: one JSON line on stderr, exit 2
        raise InvalidConfigError(f"{self.prog}: {message}")

    def _print_message(self, message: str, file=None) -> None:  # --help: UTF-8, like every other output
        _write(file, message)


@functools.cache  # built once per process: parse_args keeps no state, and a build costs about 3 ms
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vlprep",
        description="Deterministic data pipeline for domain-adaptation training sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert raw domain records to conversation form")
    convert.add_argument("--task", choices=list(KNOWN_TASKS))
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
    convert.set_defaults(func=cmd_convert, needs=("jsonl", "schema", "formats", "shards"))

    mix_cmd = sub.add_parser("mix", help="build a seeded domain/general mixture")
    mix_cmd.add_argument("--manifest", required=True, help="mix manifest JSON path")
    mix_cmd.add_argument("--output", "-o", help="output path or - for stdout")
    mix_cmd.set_defaults(func=cmd_mix, needs=("jsonl", "schema", "shards", "mix", "load_manifest"))

    validate = sub.add_parser("validate", help="check every record parses and holds its invariants")
    validate.add_argument("path", help="records path or - for stdin")
    validate.set_defaults(func=cmd_validate, needs=("jsonl", "schema", "shards"))

    stats = sub.add_parser("stats", help="token and tile accounting over a record file")
    stats.add_argument("path", help="records path or - for stdin")
    _add_planner_flags(stats)
    stats.set_defaults(func=cmd_stats, needs=("schema", "formats", "shards"))

    eval_cmd = sub.add_parser("eval", help="score predictions against references")
    eval_cmd.add_argument("--metric", required=True, choices=["mcq", "bleu", "rouge", "signals", "avg"])
    eval_cmd.add_argument("--input", "-i", default="-", help="pairs path or - for stdin")
    eval_cmd.add_argument("--max-n", type=int, default=4, help="BLEU order")
    eval_cmd.add_argument("--recall-only", action="store_true", help="ROUGE-L recall instead of F")
    eval_cmd.add_argument("--thresholds", help="comma-separated A_tau thresholds")
    eval_cmd.add_argument("--scores", help="JSON score map for --metric avg")
    eval_cmd.add_argument("--ocrbench-key", default="OCRBench", help="score key on the 0-1000 scale")
    eval_cmd.set_defaults(func=cmd_eval, needs=("jsonl", "metrics"))

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
    """Run one command and return its exit code; Ctrl-C returns 130, to a caller in this process too."""
    try:
        if sys.stdout is None:  # fd 1 was closed when the process started: no command could report
            raise RecordIOError("cannot write output: stdout is closed")
        args = build_parser().parse_args(argv)
        for name in getattr(args, "needs", ()):
            _bound(name)
        return args.func(args)
    except PipelineError as exc:
        error, message, code = type(exc).__name__, str(exc), exc.exit_code
    except OSError as exc:
        error, message, code = "OSError", str(exc), 3
    except KeyboardInterrupt:  # Ctrl-C: every temporary file is removed on the way here
        error, message, code = "Interrupted", "SIGINT", 130
    _print_json({"error": error, "message": message, "exit_code": code}, stderr=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
