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
import dataclasses
import itertools
import math
import os
import random
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import schema
from .errors import InsufficientDataError, InvalidConfigError, InvalidRecordError, RecordIOError
from .geometry import _round_half_away
from .schema import Envelope
from .seeding import GENERATOR_NAME, derive_seed


def _check_id_and_path(source: DomainSource | GeneralSource, kind: str) -> None:
    if not isinstance(source.source_id, str) or not source.source_id:
        raise InvalidConfigError(f"{kind} source id must be a non-empty string, got {source.source_id!r}")
    if not isinstance(source.path, str):
        raise InvalidConfigError(f"{kind} source path must be a string, got {source.path!r}")


@dataclass(frozen=True)
class DomainSource:
    source_id: str
    path: str
    repeat: int = 1

    def __post_init__(self) -> None:
        _check_id_and_path(self, "domain")
        if type(self.repeat) is not int or self.repeat < 1:
            raise InvalidConfigError(
                f"repeat must be an integer >= 1, got {self.repeat!r} for {self.source_id!r}"
            )


@dataclass(frozen=True)
class GeneralSource:
    source_id: str
    path: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        _check_id_and_path(self, "general")
        if not schema.is_finite_number(self.weight) or self.weight < 0:
            raise InvalidConfigError(
                f"weight must be a finite number >= 0, got {self.weight!r} for {self.source_id!r}"
            )


@dataclass(frozen=True)
class MixManifest:
    domain_sources: tuple[DomainSource, ...]
    general_sources: tuple[GeneralSource, ...]
    ratio_r: float
    seed: int
    allow_replacement: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain_sources", tuple(self.domain_sources))
        object.__setattr__(self, "general_sources", tuple(self.general_sources))
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
            if sum(s.weight for s in self.general_sources) <= 0:
                raise InvalidConfigError("general source weights must sum > 0 when ratio_r > 0")


@dataclass(frozen=True)
class SourceStat:
    source_id: str
    kind: str  # "domain" or "general"
    available: int
    requested: int
    emitted: int


@dataclass(frozen=True)
class MixReport:
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
    if not schema.is_finite_number(value) or value < 0:
        raise InvalidConfigError(f"ratio must be a finite number >= 0, got {value}")
    return float(value)


def _sources(entries: object, kind: str) -> tuple[DomainSource | GeneralSource, ...]:
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise InvalidConfigError(f"{kind}_sources must be a list of objects, got {entries!r}")
    allowed = {"id", "path", "repeat"} if kind == "domain" else {"id", "path", "weight"}
    for entry in entries:
        unknown = set(entry) - allowed
        if unknown:
            raise InvalidConfigError(f"unknown {kind} source keys: {sorted(unknown)}")
        for key in ("id", "path"):
            if key not in entry:
                raise InvalidConfigError(f"{kind} source missing {key!r}")
    if kind == "domain":
        return tuple(DomainSource(e["id"], e["path"], e.get("repeat", 1)) for e in entries)
    return tuple(GeneralSource(e["id"], e["path"], e.get("weight", 1.0)) for e in entries)


def manifest_from_dict(obj: dict) -> MixManifest:
    allowed = {"domain_sources", "general_sources", "ratio", "seed", "allow_replacement"}
    unknown = set(obj) - allowed
    if unknown:
        raise InvalidConfigError(f"unknown manifest keys: {sorted(unknown)}")
    for key in ("domain_sources", "ratio", "seed"):
        if key not in obj:
            raise InvalidConfigError(f"manifest missing {key!r}")
    return MixManifest(
        domain_sources=_sources(obj["domain_sources"], "domain"),
        general_sources=_sources(obj.get("general_sources", []), "general"),
        ratio_r=parse_ratio(obj["ratio"]),
        seed=obj["seed"],
        allow_replacement=obj.get("allow_replacement", False),
    )


def load_manifest(path: str | Path) -> MixManifest:
    return manifest_from_dict(schema.read_json_object(path, "manifest"))


def _tagged(rec: Envelope, pass_index: int, k: int) -> Envelope:
    """``rec`` as emitted in pass ``pass_index`` of ``k``: tagged ``repeat_index`` when k > 1."""
    if k == 1:
        return rec
    return dataclasses.replace(rec, meta={**rec.meta, "repeat_index": str(pass_index)})


def _largest_remainder_quotas(total: int, weights: Sequence[float]) -> list[int]:
    """Split ``total`` proportionally to ``weights``; remainders break ties by order."""
    weight_sum = sum(weights)
    shares = [total * w / weight_sum for w in weights]
    quotas = [math.floor(s) for s in shares]
    leftover = total - sum(quotas)
    # Stable sort: equal remainders are served in manifest order.
    by_remainder = sorted(range(len(weights)), key=lambda i: shares[i] - quotas[i], reverse=True)
    for i in by_remainder[:leftover]:
        quotas[i] += 1
    return quotas


class FilePool(Sequence[Envelope]):
    """The envelopes of one JSONL file, held as the byte offset of each line.

    Indexing reads every line once and checks it as :func:`read_envelopes`
    would, with errors named ``<path>: line N:``, but keeps only its offset
    and CRC-32.  ``pool[i]`` reads line i again and decodes it; a line whose
    bytes changed since indexing is an :class:`InvalidRecordError`.  Since
    the file is read twice, it must be a regular file, not a pipe.
    """

    def __init__(self, path: str) -> None:
        if os.path.exists(path) and not os.path.isfile(path):
            raise RecordIOError(f"cannot read {path}: a mix source must be a regular file, as it is read twice")
        self.path = path
        self._offsets = array("q")
        self._crcs = array("L")
        try:
            for number, offset, line in schema.numbered_lines(path):
                with schema.at_line(number):
                    schema.loads_envelope(schema.line_text(line))
                self._offsets.append(offset)
                self._crcs.append(zlib.crc32(line))
        except InvalidRecordError as exc:
            raise InvalidRecordError(f"{path}: {exc}") from exc

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, i: int) -> Envelope:
        with self.reader() as read:
            return read(i)

    @contextlib.contextmanager
    def reader(self) -> Iterator[Callable[[int], Envelope]]:
        """Yield ``read(i) -> pool[i]`` over one handle, closed when the block ends."""
        try:
            handle = open(self.path, "rb")
        except OSError as exc:
            raise RecordIOError(f"cannot read {self.path}: {exc}") from exc

        def read(i: int) -> Envelope:
            offset = self._offsets[i]
            handle.seek(offset)
            raw = handle.readline()
            if zlib.crc32(raw) != self._crcs[i]:
                raise InvalidRecordError(f"{self.path} changed after it was indexed: byte {offset} differs")
            return schema.loads_envelope(raw.decode("utf-8"))

        with handle:
            yield read


@dataclass(frozen=True)
class _Run:
    """A stretch of the unshuffled stream: ``pool[i]`` for each i in ``indices``.

    The records are emitted as pass ``pass_index`` of ``repeat`` (see :func:`_tagged`).
    """

    pool: Sequence[Envelope]
    indices: Sequence[int]
    pass_index: int = 0
    repeat: int = 1


class MixStream(Sequence[Envelope]):
    """The mixed stream, held as positions and resolved to records as it is read.

    The unshuffled stream is ``runs`` end to end, and ``order[i]`` is the
    position in it of the i-th record.  Iteration reads each file-backed
    pool through one handle, closed when the iteration ends or is closed.
    """

    def __init__(self, runs: list[_Run], order: array) -> None:
        self._runs = runs
        self._ends = list(itertools.accumulate(len(run.indices) for run in runs))
        self._order = order

    def __len__(self) -> int:
        return len(self._order)

    def _locate(self, position: int) -> tuple[_Run, int]:
        r = bisect.bisect_right(self._ends, position)
        run = self._runs[r]
        return run, run.indices[position - self._ends[r] + len(run.indices)]

    def __getitem__(self, i: int) -> Envelope:
        run, index = self._locate(self._order[i])
        return _tagged(run.pool[index], run.pass_index, run.repeat)

    def __iter__(self) -> Iterator[Envelope]:
        with contextlib.ExitStack() as stack:
            fetch = {}
            for pool in (run.pool for run in self._runs):
                if id(pool) in fetch:
                    continue
                fetch[id(pool)] = stack.enter_context(pool.reader()) if isinstance(pool, FilePool) else pool.__getitem__
            for position in self._order:
                run, index = self._locate(position)
                yield _tagged(fetch[id(run.pool)](index), run.pass_index, run.repeat)


def _draw(n: int, quota: int, rng: random.Random, source: GeneralSource, allow_replacement: bool) -> array:
    """Positions of ``quota`` records drawn from a pool of ``n``.

    ``rng.sample`` reads only the population's length and items, so drawing
    from ``range(n)`` picks the positions that drawing from the pool would.
    """
    if quota <= n:
        return array("q", rng.sample(range(n), quota))
    if not allow_replacement:
        raise InsufficientDataError(
            f"needs {quota} records but only {n} available",
            source_id=source.source_id,
        )
    # Replacement mode: whole-pool passes, then a sampled remainder.
    out = array("q")
    for _ in range(quota // n):
        out.extend(range(n))
    out.extend(rng.sample(range(n), quota % n))
    return out


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
        runs.extend(_Run(pool, range(len(pool)), pass_index, src.repeat) for pass_index in range(src.repeat))
        emitted = len(pool) * src.repeat
        stats.append(SourceStat(src.source_id, "domain", len(pool), emitted, emitted))
    domain_total = sum(len(run.indices) for run in runs)

    requested_general = _round_half_away(manifest.ratio_r * domain_total)
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
            rng = random.Random(derive_seed(manifest.seed, "sample", src.source_id))
            runs.append(_Run(pool, _draw(len(pool), quota, rng, src, manifest.allow_replacement)))
        general_total += quota
        stats.append(SourceStat(src.source_id, "general", len(pool), quota, quota))

    order = array("q", range(domain_total + general_total))
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
