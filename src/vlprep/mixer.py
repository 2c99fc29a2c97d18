"""Deterministic training-mixture construction.

A mixture is domain records (each source optionally repeated) plus
``round(r * D)`` general records drawn without replacement across weighted
general sources, all shuffled by a seeded generator.  Everything downstream
of the manifest is a pure function of (manifest, source bytes): same seed,
same stream, byte for byte.

Counting is per record, not per token; MixReport says so explicitly.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import os
import random
import zlib
from array import array
from collections import namedtuple
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from . import jsonl, schema, shards
from .errors import InsufficientDataError, InvalidConfigError, InvalidRecordError, RecordIOError, check_keys
from .geometry import _round_half_away, ordered_sum
from .schema import Envelope
from .seeding import GENERATOR_NAME, derive_seed

# The longest mixture a manifest may ask for: the shuffle keeps an 8-byte position per record, about 800 MB at the cap.
MAX_MIX_RECORDS = 100_000_000


def _check_id_and_path(source: DomainSource | GeneralSource, kind: str) -> None:
    if not isinstance(source.source_id, str) or not source.source_id:
        raise InvalidConfigError(f"{kind} source id must be a non-empty string, got {source.source_id!r}")
    if not isinstance(source.path, str):
        raise InvalidConfigError(f"{kind} source path must be a string, got {source.path!r}")


class DomainSource(namedtuple("DomainSource", "source_id path repeat", defaults=(1,))):
    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        _check_id_and_path(self, "domain")
        if type(self.repeat) is not int or self.repeat < 1:
            raise InvalidConfigError(
                f"repeat must be an integer >= 1, got {self.repeat!r} for {self.source_id!r}"
            )


class GeneralSource(namedtuple("GeneralSource", "source_id path weight", defaults=(1.0,))):
    __slots__ = ()

    def __init__(self, *_, **__) -> None:
        _check_id_and_path(self, "general")
        if not jsonl.is_finite_number(self.weight) or self.weight < 0:
            raise InvalidConfigError(
                f"weight must be a finite number >= 0, got {self.weight!r} for {self.source_id!r}"
            )


class MixManifest(namedtuple("MixManifest", "domain_sources general_sources ratio_r seed allow_replacement")):
    """A mixture's sources and settings; each list of sources is held as a tuple."""

    __slots__ = ()

    def __new__(cls, domain_sources, general_sources, ratio_r, seed, allow_replacement=False):
        self = super().__new__(cls, tuple(domain_sources), tuple(general_sources), ratio_r, seed, allow_replacement)
        if self.ratio_r < 0:
            raise InvalidConfigError(f"ratio_r must be >= 0, got {self.ratio_r}")
        if type(self.seed) is not int:
            raise InvalidConfigError(f"seed must be an integer, got {self.seed!r}")
        if type(self.allow_replacement) is not bool:
            raise InvalidConfigError(f"allow_replacement must be true or false, got {self.allow_replacement!r}")
        if not self.domain_sources:
            raise InvalidConfigError("at least one domain source is required")
        ids = [s.source_id for s in self.domain_sources] + [s.source_id for s in self.general_sources]
        if len(set(ids)) != len(ids):
            raise InvalidConfigError("source ids must be unique across the manifest")
        if self.ratio_r > 0:
            if not self.general_sources:
                raise InvalidConfigError("ratio_r > 0 requires at least one general source")
            weight_sum = sum(s.weight for s in self.general_sources)
            if weight_sum <= 0:
                raise InvalidConfigError("general source weights must sum > 0 when ratio_r > 0")
            if not math.isfinite(weight_sum):
                raise InvalidConfigError(f"general source weights must sum to a finite number, got {weight_sum}")
        return self


class SourceStat(NamedTuple):
    source_id: str
    kind: str  # "domain" or "general"
    available: int
    requested: int
    emitted: int


class MixReport(NamedTuple):
    sources: tuple[SourceStat, ...]
    domain_total: int
    general_total: int
    requested_general: int
    ratio_r: float
    realized_ratio: float
    seed: int
    generator: str = GENERATOR_NAME
    counting: str = "records"


def parse_ratio(text: str | float | int) -> float:
    """Accept a general:domain ratio as "a:b" or a plain decimal."""
    if type(text) in (int, float):
        value = text
    else:
        raw = str(text).strip()
        try:
            if ":" in raw:
                general, domain = raw.split(":")
                numerator, denominator = float(general), float(domain)
                if denominator <= 0:
                    raise InvalidConfigError(f"ratio {raw!r} has non-positive domain part")
                value = numerator / denominator
            else:
                value = float(raw)
        except ValueError:
            raise InvalidConfigError(f"cannot parse ratio {raw!r}") from None
    if not jsonl.is_finite_number(value) or value < 0:
        raise InvalidConfigError(f"ratio must be a finite number >= 0, got {value}")
    return float(value)


def _sources(entries: object, kind: str) -> tuple[DomainSource | GeneralSource, ...]:
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise InvalidConfigError(f"{kind}_sources must be a list of objects, got {entries!r}")
    allowed = ("id", "path", "repeat" if kind == "domain" else "weight")
    for entry in entries:
        check_keys(entry, allowed, ("id", "path"), f"{kind} source")
    if kind == "domain":
        return tuple(DomainSource(e["id"], e["path"], e.get("repeat", 1)) for e in entries)
    return tuple(GeneralSource(e["id"], e["path"], e.get("weight", 1.0)) for e in entries)


def manifest_from_dict(obj: dict) -> MixManifest:
    allowed = ("domain_sources", "general_sources", "ratio", "seed", "allow_replacement")
    check_keys(obj, allowed, ("domain_sources", "ratio", "seed"), "manifest")
    return MixManifest(
        domain_sources=_sources(obj["domain_sources"], "domain"),
        general_sources=_sources(obj.get("general_sources", []), "general"),
        ratio_r=parse_ratio(obj["ratio"]),
        seed=obj["seed"],
        allow_replacement=obj.get("allow_replacement", False),
    )


def load_manifest(path: str | Path) -> MixManifest:
    return manifest_from_dict(jsonl.read_json_object(path, "manifest"))


def _finite_quota(quota: float, what: str) -> float:
    """``quota`` if it is a finite number; one past the float range is no count of records to draw."""
    if not math.isfinite(quota):
        raise InsufficientDataError(f"{what} is {quota}, not a finite number of records")
    return quota


def _largest_remainder_quotas(total: int, weights: Sequence[float]) -> list[int]:
    """Split ``total`` proportionally to ``weights``; remainders break ties by order."""
    weight_sum = ordered_sum(weights)
    shares = [
        _finite_quota(total * w / weight_sum, f"the share {total} x {w} / {weight_sum} of the general quota")
        for w in weights
    ]
    quotas = [math.floor(s) for s in shares]
    leftover = total - sum(quotas)
    # Stable sort: equal remainders are served in manifest order.
    by_remainder = sorted(range(len(weights)), key=lambda i: shares[i] - quotas[i], reverse=True)
    for i in by_remainder[:leftover]:
        quotas[i] += 1
    return quotas


def _index(lines: jsonl.Lines, _) -> tuple[array, array]:
    """The byte offset and CRC-32 of each line, every line checked as an envelope."""
    offsets, crcs = array("q"), array("L")
    for offset, crc in schema.records(lines, lambda _env, _i, offset, line: (offset, zlib.crc32(line))):
        offsets.append(offset)
        crcs.append(crc)
    return offsets, crcs


class FilePool(Sequence[Envelope]):
    """The envelopes of one JSONL file, held as the byte offset of each line.

    Indexing reads every line once, one shard of the file per process (see
    :mod:`shards`), and checks it as :func:`read_envelopes` would, with
    errors named ``<path>: line N:``, but keeps only its offset and CRC-32.
    ``pool[i]`` reads line i again in one exact-length read, up to the next
    line's offset (the last line, up to the size at indexing) and cut after
    its newline, and once its CRC-32 shows it is the line checked at
    indexing, parses it without a second check; a line whose bytes changed
    since indexing is an :class:`InvalidRecordError`.  Since the file is
    read twice, it must be a regular file, not a pipe.
    """

    def __init__(self, path: str) -> None:
        if os.path.exists(path) and not os.path.isfile(path):
            raise RecordIOError(f"cannot read {path}: a mix source must be a regular file, as it is read twice")
        self.path = path
        try:
            self._offsets, self._crcs = shards.line_pass(path, _index)
        except InvalidRecordError as exc:
            raise InvalidRecordError(f"{path}: {exc}") from exc
        self.nbytes = os.path.getsize(path)

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, i: int) -> Envelope:
        i = range(len(self))[i]  # read takes no negative i: line i ends where line i + 1 starts
        with self.reader() as read:
            return read(i)

    @contextlib.contextmanager
    def reader(self) -> Iterator[Callable[[int], Envelope]]:
        """Yield ``read(i) -> pool[i]`` for ``0 <= i < len(pool)`` over one handle, closed when the block ends."""
        try:
            handle = open(self.path, "rb", buffering=0)  # a buffered read would fill 8 KiB for one line
        except OSError as exc:
            raise RecordIOError(f"cannot read {self.path}: {exc}") from exc
        offsets, last = self._offsets, len(self._offsets) - 1

        def read(i: int) -> Envelope:
            offset = offsets[i]
            handle.seek(offset)
            raw = handle.read((offsets[i + 1] if i < last else self.nbytes) - offset)
            raw = raw[: raw.find(b"\n") + 1 or None]  # the line and its newline, without the blank lines after it
            if zlib.crc32(raw) != self._crcs[i]:
                raise InvalidRecordError(f"{self.path} changed after it was indexed: byte {offset} differs")
            return Envelope(**jsonl.JSON_DECODER.decode(raw.decode("utf-8")))

        with handle:
            yield read


class _Run(NamedTuple):
    """A stretch of the unshuffled stream: ``passes`` passes over ``pool[i]`` for each i in ``indices``.

    A ``tagged`` run's records carry their pass as meta ``repeat_index``.
    """

    pool: Sequence[Envelope]
    indices: Sequence[int]
    passes: int = 1
    tagged: bool = False


class MixStream(Sequence[Envelope]):
    """The mixed stream, held as positions and resolved to records as it is read.

    The unshuffled stream is ``runs`` end to end, and ``order[i]`` is the
    position in it of the i-th record.  Iteration reads each file-backed
    run through one handle, opened when the iteration starts and closed
    when it ends or is closed.  ``nbytes`` is about how many bytes reading
    the stream reads: each run's records at the mean line size of its file;
    other pools count nothing.
    """

    def __init__(self, runs: list[_Run], order: array) -> None:
        self._runs = runs
        self._starts = list(itertools.accumulate((len(run.indices) * run.passes for run in runs), initial=0))
        self._order = order
        self.nbytes = sum(
            len(run.indices) * run.passes * run.pool.nbytes // len(run.pool)
            for run in runs
            if isinstance(run.pool, FilePool) and run.indices
        )

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, i: int) -> Envelope:
        i = range(len(self))[i]  # a negative i counts from the end; one out of range is an IndexError
        return next(self.read(range(i, i + 1)))

    def __iter__(self) -> Iterator[Envelope]:
        return self.read(range(len(self)))

    def read(self, records: range) -> Iterator[Envelope]:
        """The records at ``records`` of the stream, in order."""
        with contextlib.ExitStack() as stack:
            fetch = [
                stack.enter_context(run.pool.reader()) if isinstance(run.pool, FilePool) else run.pool.__getitem__
                for run in self._runs
            ]
            for position in itertools.islice(self._order, records.start, records.stop):
                # An empty run starts where the next one does, so bisect passes over it.
                r = bisect.bisect_right(self._starts, position) - 1
                run = self._runs[r]
                pass_index, i = divmod(position - self._starts[r], len(run.indices))
                rec = fetch[r](run.indices[i])
                yield rec._replace(meta={**rec.meta, "repeat_index": str(pass_index)}) if run.tagged else rec


def _draw(pool: Sequence[Envelope], quota: int, source: GeneralSource, manifest: MixManifest) -> list[_Run]:
    """The runs of ``quota`` records drawn from ``pool`` by the source's seeded generator.

    ``rng.sample`` reads only the population's length and items, so drawing
    from ``range(n)`` picks the positions that drawing from the pool would.
    """
    n = len(pool)
    rng = random.Random(derive_seed(manifest.seed, "sample", source.source_id))
    if quota <= n:
        return [_Run(pool, array("q", rng.sample(range(n), quota)))]
    if not manifest.allow_replacement or n == 0:  # an empty pool has no record to draw again
        raise InsufficientDataError(f"source {source.source_id!r}: needs {quota} records but only {n} available")
    # Replacement mode: whole-pool passes, then a sampled remainder.
    return [_Run(pool, range(n), quota // n), _Run(pool, array("q", rng.sample(range(n), quota % n)))]


Loader = Callable[[str], Sequence[Envelope]]


def mix(manifest: MixManifest, loader: Loader = FilePool) -> tuple[MixStream, MixReport]:
    """Build the shuffled mixture stream and its report.

    Domain records are all emitted (repeated per source); the general quota
    round(r * D) is split across general sources by weight with
    largest-remainder correction, then sampled per source without
    replacement (replacement only if the manifest allows it).  Per-source
    sampling and the final shuffle use seeds derived from the manifest seed,
    so the stream depends only on manifest + source contents.

    Sampling and the shuffle run on positions, so a pool need only support
    ``len`` and indexing; the default loader keeps each file as offsets.
    """
    stats: list[SourceStat] = []
    runs: list[_Run] = []
    for src in manifest.domain_sources:
        pool = loader(src.path)
        runs.append(_Run(pool, range(len(pool)), src.repeat, src.repeat > 1))
        emitted = len(pool) * src.repeat
        stats.append(SourceStat(src.source_id, "domain", len(pool), emitted, emitted))
    domain_total = sum(len(run.indices) * run.passes for run in runs)
    if domain_total > MAX_MIX_RECORDS:  # alone first: a total past the float range has no general quota
        raise InvalidConfigError(
            f"a mixture of {domain_total} domain records is past the cap of {MAX_MIX_RECORDS} records"
        )
    requested = _finite_quota(manifest.ratio_r * domain_total, f"the general quota {manifest.ratio_r} x {domain_total}")
    requested_general = _round_half_away(requested)
    if domain_total + requested_general > MAX_MIX_RECORDS:
        raise InvalidConfigError(
            f"a mixture of {domain_total} domain and {requested_general} general records"
            f" is past the cap of {MAX_MIX_RECORDS} records"
        )
    quota_by_id = dict.fromkeys((s.source_id for s in manifest.general_sources), 0)
    # The weights may sum to 0 when nothing is requested, so they are split only when something is.
    if requested_general > 0:
        weighted = [s for s in manifest.general_sources if s.weight > 0]
        quotas = _largest_remainder_quotas(requested_general, [s.weight for s in weighted])
        quota_by_id.update(zip((s.source_id for s in weighted), quotas))
    general_total = 0
    for src in manifest.general_sources:
        pool = loader(src.path)
        quota = quota_by_id[src.source_id]
        if quota:
            runs.extend(_draw(pool, quota, src, manifest))
        general_total += quota
        stats.append(SourceStat(src.source_id, "general", len(pool), quota, quota))

    # Made at its exact size, 8 bytes a record, and filled a chunk at a time: an array grown by appends keeps slack.
    total = domain_total + general_total
    order = array("q", [0]) * total
    for start in range(0, total, 1024):
        order[start : start + 1024] = array("q", range(start, min(start + 1024, total)))
    # shuffle reads only the length, so this is the permutation the records would get.
    random.Random(derive_seed(manifest.seed, "shuffle")).shuffle(order)
    report = MixReport(
        sources=tuple(stats),
        domain_total=domain_total,
        general_total=general_total,
        requested_general=requested_general,
        ratio_r=manifest.ratio_r,
        realized_ratio=general_total / domain_total if domain_total else 0.0,
        seed=manifest.seed,
    )
    return MixStream(runs, order), report
