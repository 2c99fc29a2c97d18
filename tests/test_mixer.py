import dataclasses
import json
import math
import os
import random
import re
import tracemalloc
from collections import Counter

import pytest

from vlprep import cli, mixer, schema
from vlprep.errors import InsufficientDataError, InvalidConfigError, InvalidRecordError, RecordIOError
from vlprep.mixer import (
    DomainSource,
    GeneralSource,
    MixManifest,
    load_manifest,
    manifest_from_dict,
    mix,
    parse_ratio,
)
from vlprep.schema import Envelope, dumps_envelope, read_envelopes
from vlprep.seeding import derive_seed

# A file handle that is garbage-collected unclosed fails the test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def envelopes(prefix: str, count: int) -> list[Envelope]:
    return [
        Envelope(
            id=f"{prefix}-{i}",
            task="vqa",
            payload={"images": [], "turns": [["user", "q"], ["assistant", "a"]]},
        )
        for i in range(count)
    ]


def pool_loader(pools: dict[str, list[Envelope]]):
    return lambda path: list(pools[path])


def manifest(domain=100, general=(("gen", 1000, 1.0),), r=0.25, seed=7, repeat=1, allow=False):
    pools = {"dom": envelopes("d", domain)}
    sources = []
    for name, size, weight in general:
        pools[name] = envelopes(name, size)
        sources.append(GeneralSource(name, name, weight))
    m = MixManifest(
        domain_sources=(DomainSource("dom", "dom", repeat),),
        general_sources=tuple(sources),
        ratio_r=r,
        seed=seed,
        allow_replacement=allow,
    )
    return m, pool_loader(pools)


class TestParseRatio:
    def test_colon_form(self):
        assert parse_ratio("1:4") == 0.25
        assert parse_ratio("2:1") == 2.0
        assert parse_ratio("1:1") == 1.0

    def test_decimal_form(self):
        assert parse_ratio("0.25") == 0.25
        assert parse_ratio(0.5) == 0.5
        assert parse_ratio(2) == 2.0

    def test_invalid(self):
        for bad in ("x", "1:0", "-1", -0.5, "1:-2"):
            with pytest.raises(InvalidConfigError):
                parse_ratio(bad)


class TestQuotaAllocation:
    def test_weights_three_one(self):
        m, loader = manifest(domain=32, general=(("g1", 100, 3.0), ("g2", 100, 1.0)), r=0.25)
        _, report = mix(m, loader)
        by_id = {s.source_id: s for s in report.sources}
        assert by_id["g1"].emitted == 6
        assert by_id["g2"].emitted == 2

    def test_largest_remainder_rounding(self):
        # quota 5 split 1:1:1 -> shares 1.67 each -> 2,2,1 by remainder then order
        m, loader = manifest(
            domain=5, general=(("g1", 10, 1.0), ("g2", 10, 1.0), ("g3", 10, 1.0)), r=1.0
        )
        _, report = mix(m, loader)
        emitted = [s.emitted for s in report.sources if s.kind == "general"]
        assert emitted == [2, 2, 1]
        assert sum(emitted) == 5

    def test_zero_weight_source_gets_nothing(self):
        m, loader = manifest(domain=10, general=(("g1", 50, 1.0), ("g2", 50, 0.0)), r=1.0)
        _, report = mix(m, loader)
        by_id = {s.source_id: s for s in report.sources}
        assert by_id["g1"].emitted == 10
        assert by_id["g2"].emitted == 0


class TestMix:
    def test_ratio_arithmetic_exact(self):
        for r in (0.0, 0.25, 0.5, 1.0, 2.0):
            for domain in (10, 100, 317):
                m, loader = manifest(domain=domain, r=r)
                stream, report = mix(m, loader)
                expected = math.floor(r * domain + 0.5)
                assert report.requested_general == expected
                assert report.general_total == expected
                assert report.domain_total == domain
                assert len(stream) == domain + expected

    def test_round_half_away_from_zero(self):
        # 0.25 * 10 = 2.5 rounds to 3, not banker's 2
        m, loader = manifest(domain=10, r=0.25)
        _, report = mix(m, loader)
        assert report.general_total == 3

    def test_r_zero_is_shuffled_domain(self):
        m, loader = manifest(domain=50, r=0.0)
        stream, report = mix(m, loader)
        assert report.general_total == 0
        assert sorted(r.id for r in stream) == sorted(f"d-{i}" for i in range(50))
        assert [r.id for r in stream] != [f"d-{i}" for i in range(50)]  # shuffled
        assert all("repeat_index" not in r.meta for r in stream)  # a source repeated once is not tagged

    def test_repeat_flows_into_domain_count(self):
        m, loader = manifest(domain=10, r=1.0, repeat=3)
        stream, report = mix(m, loader)
        assert report.domain_total == 30
        assert report.general_total == 30
        counts = Counter(r.id for r in stream if r.id.startswith("d-"))
        assert all(v == 3 for v in counts.values())
        tags = Counter((r.id, r.meta.get("repeat_index")) for r in stream)
        assert all(tags[f"d-{i}", str(k)] == 1 for i in range(10) for k in range(3))
        assert all(tag is None for rid, tag in tags if rid.startswith("gen"))

    def test_byte_identical_across_runs(self):
        m, loader = manifest(domain=100, r=0.5, seed=99)
        a, report_a = mix(m, loader)
        b, report_b = mix(m, loader)
        assert [r.id for r in a] == [r.id for r in b]
        assert report_a == report_b

    def test_seed_changes_stream(self):
        m1, loader = manifest(domain=100, r=0.5, seed=1)
        m2, _ = manifest(domain=100, r=0.5, seed=2)
        a, _ = mix(m1, loader)
        b, _ = mix(m2, loader)
        assert [r.id for r in a] != [r.id for r in b]

    def test_no_duplicates_without_replacement(self):
        m, loader = manifest(domain=100, general=(("gen", 200, 1.0),), r=1.5)
        stream, _ = mix(m, loader)
        general_ids = [r.id for r in stream if r.id.startswith("gen")]
        assert len(general_ids) == len(set(general_ids)) == 150

    def test_insufficient_pool_names_source(self):
        m, loader = manifest(domain=100, general=(("tiny", 10, 1.0),), r=1.0)
        with pytest.raises(InsufficientDataError) as err:
            mix(m, loader)
        assert "tiny" in str(err.value)

    def test_replacement_mode_cycles_pool(self):
        m, loader = manifest(domain=100, general=(("tiny", 10, 1.0),), r=1.0, allow=True)
        stream, report = mix(m, loader)
        assert report.general_total == 100
        counts = Counter(r.id for r in stream if r.id.startswith("tiny"))
        assert all(v >= 10 for v in counts.values())  # 10 full cycles

    def test_realized_ratio_within_one_record(self):
        rng = random.Random(5)
        for _ in range(50):
            domain = rng.randint(1, 400)
            r = rng.choice([0, 0.1, 0.25, 0.5, 1.0, 1.7])
            m, loader = manifest(domain=domain, general=(("gen", 1000, 1.0),), r=r)
            _, report = mix(m, loader)
            assert abs(report.realized_ratio * domain - r * domain) <= 0.5 + 1e-9

    def test_report_names_generator_and_counting(self):
        m, loader = manifest()
        _, report = mix(m, loader)
        assert report.generator == "mt19937-fisher-yates/1"
        assert report.counting == "records"

    def test_shuffle_uniformity_smoke(self):
        # First-position source-type frequency across seeds within 3 sigma.
        domain, r = 30, 1.0
        trials = 400
        general_first = 0
        for seed in range(trials):
            m, loader = manifest(domain=domain, general=(("gen", 100, 1.0),), r=r, seed=seed)
            stream, _ = mix(m, loader)
            if stream[0].id.startswith("gen"):
                general_first += 1
        p = 0.5
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(general_first - trials * p) <= 3 * sigma


class TestManifestValidation:
    def test_ratio_requires_weighted_general(self):
        with pytest.raises(InvalidConfigError):
            MixManifest(
                domain_sources=(DomainSource("d", "d"),),
                general_sources=(),
                ratio_r=0.5,
                seed=0,
            )
        with pytest.raises(InvalidConfigError):
            MixManifest(
                domain_sources=(DomainSource("d", "d"),),
                general_sources=(GeneralSource("g", "g", 0.0),),
                ratio_r=0.5,
                seed=0,
            )

    def test_negative_ratio(self):
        with pytest.raises(InvalidConfigError):
            MixManifest(
                domain_sources=(DomainSource("d", "d"),),
                general_sources=(),
                ratio_r=-0.1,
                seed=0,
            )

    def test_duplicate_source_ids(self):
        with pytest.raises(InvalidConfigError):
            MixManifest(
                domain_sources=(DomainSource("x", "a"), DomainSource("x", "b")),
                general_sources=(),
                ratio_r=0.0,
                seed=0,
            )

    def test_repeat_below_one(self):
        with pytest.raises(InvalidConfigError):
            DomainSource("d", "d", repeat=0)

    def test_negative_weight(self):
        with pytest.raises(InvalidConfigError):
            GeneralSource("g", "g", weight=-1.0)


class TestManifestParsing:
    def test_from_dict_ratio_forms(self):
        base = {
            "seed": 3,
            "domain_sources": [{"id": "d", "path": "dom.jsonl"}],
            "general_sources": [{"id": "g", "path": "gen.jsonl", "weight": 2.0}],
        }
        assert manifest_from_dict({**base, "ratio": "1:4"}).ratio_r == 0.25
        assert manifest_from_dict({**base, "ratio": 0.5}).ratio_r == 0.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidConfigError):
            manifest_from_dict({"seed": 1, "ratio": 0, "domain_sources": [], "typo": 1})
        with pytest.raises(InvalidConfigError):
            manifest_from_dict(
                {
                    "seed": 1,
                    "ratio": 0,
                    "domain_sources": [{"id": "d", "path": "p", "weight": 1}],
                }
            )

    def test_load_manifest_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 11,
                    "ratio": "1:4",
                    "domain_sources": [{"id": "d", "path": "dom.jsonl", "repeat": 2}],
                    "general_sources": [{"id": "g", "path": "gen.jsonl"}],
                }
            )
        )
        m = load_manifest(path)
        assert m.seed == 11 and m.ratio_r == 0.25
        assert m.domain_sources[0].repeat == 2


def varied_envelopes(prefix: str, count: int) -> list[Envelope]:
    # Lengths differ from record to record and some text is not ASCII, so
    # byte offsets differ from character offsets.
    return [
        Envelope(
            id=f"{prefix}-{i}",
            task="vqa",
            payload={
                "images": [f"{prefix}/{i}.png"],
                "turns": [
                    ["user", "<image>\n" + "why " * (i % 5) + "é" * (i % 3)],
                    ["assistant", "ñ" * (i % 4) + "ok"],
                ],
            },
            meta={"source": prefix},
        )
        for i in range(count)
    ]


def write_pool(path, envs, newline="\n"):
    # A blank line after every fifth record and no newline after the last.
    lines = []
    for i, env in enumerate(envs):
        lines.append(dumps_envelope(env))
        if i % 5 == 4:
            lines.append("  ")
    path.write_bytes(newline.join(lines).encode("utf-8"))


def file_manifest(tmp_path, domain=40, general=(("gen", 200, 1.0),), r=0.5, seed=3, repeat=1, allow=False):
    dom = tmp_path / "dom.jsonl"
    write_pool(dom, varied_envelopes("d", domain), newline="\r\n")
    sources = []
    for name, size, weight in general:
        write_pool(tmp_path / f"{name}.jsonl", varied_envelopes(name, size))
        sources.append(GeneralSource(name, str(tmp_path / f"{name}.jsonl"), weight))
    return MixManifest(
        domain_sources=(DomainSource("dom", str(dom), repeat),),
        general_sources=tuple(sources),
        ratio_r=r,
        seed=seed,
        allow_replacement=allow,
    )


def record_draw(m: MixManifest, loader) -> list[Envelope]:
    """The mixture drawn and shuffled as a list of records: the reference for mix's positions."""
    stream = []
    for src in m.domain_sources:
        pool = loader(src.path)
        # Pass by pass (a, b, c, a, b, c); a repeated source tags pass k's copies repeat_index "k".
        for k in range(src.repeat):
            tag = {} if src.repeat == 1 else {"repeat_index": str(k)}
            stream.extend(dataclasses.replace(env, meta={**env.meta, **tag}) for env in pool)
    requested = math.floor(m.ratio_r * len(stream) + 0.5)
    weighted = [s for s in m.general_sources if s.weight > 0]
    quotas = mixer._largest_remainder_quotas(requested, [s.weight for s in weighted]) if requested else []
    for src, quota in zip(weighted, quotas):
        pool = loader(src.path)
        rng = random.Random(derive_seed(m.seed, "sample", src.source_id))
        if quota <= len(pool):
            stream.extend(rng.sample(list(pool), quota))
        else:
            stream.extend(list(pool) * (quota // len(pool)))
            stream.extend(rng.sample(list(pool), quota % len(pool)))
    random.Random(derive_seed(m.seed, "shuffle")).shuffle(stream)
    return stream


@pytest.fixture
def open_handles(monkeypatch):
    """Every handle ``schema`` and ``mixer`` open during the test."""
    handles = []

    def tracked_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        handles.append(handle)
        return handle

    monkeypatch.setattr(schema, "open", tracked_open, raising=False)
    monkeypatch.setattr(mixer, "open", tracked_open, raising=False)
    return handles


class TestFilePools:
    CASES = {
        "repeat": dict(domain=30, repeat=3),
        "replacement": dict(domain=40, general=(("tiny", 15, 1.0),), r=1.0, allow=True),
        "zero_weight": dict(general=(("g1", 60, 1.0), ("g2", 60, 0.0)), r=1.0),
        "ratio_zero": dict(r=0.0),
        # n <= 21 takes sample()'s list path, n = 500 its set path.
        "small_pool": dict(domain=10, general=(("small", 20, 1.0),), r=0.5),
        "large_pool": dict(domain=120, general=(("large", 500, 1.0),), r=0.5),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_bytes_from_files_as_from_lists_as_from_a_record_draw(self, tmp_path, case):
        m = file_manifest(tmp_path, **self.CASES[case])
        from_files, report_files = mix(m)
        from_lists, report_lists = mix(m, loader=read_envelopes)
        expected = [dumps_envelope(env) for env in record_draw(m, read_envelopes)]
        assert [dumps_envelope(env) for env in from_lists] == expected
        assert [dumps_envelope(env) for env in from_files] == expected
        assert [dumps_envelope(from_files[i]) for i in range(len(from_files))] == expected
        assert report_files == report_lists

    def test_pool_reads_each_line_by_byte_offset(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        envs = varied_envelopes("p", 12)
        write_pool(path, envs, newline="\r\n")
        pool = mixer.FilePool(str(path))
        assert len(pool) == 12
        assert [pool[i] for i in (11, 0, 5, -1)] == [envs[11], envs[0], envs[5], envs[-1]]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_source_is_refused_before_it_is_read(self, tmp_path):
        pipe = tmp_path / "pipe.jsonl"
        os.mkfifo(pipe)  # opening it would block until a writer appears
        with pytest.raises(RecordIOError, match="must be a regular file"):
            mixer.FilePool(str(pipe))

    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_unselected_lines_are_still_checked(self, tmp_path, r):
        m = file_manifest(tmp_path, domain=10, general=(("gen", 200, 1.0),), r=r)
        path = tmp_path / "gen.jsonl"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[6] = '{"id": "broken"'
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(InvalidRecordError, match=f"^{re.escape(str(path))}: line 7: not valid JSON"):
            mix(m)

    @pytest.mark.parametrize("change", ["rewritten", "truncated"])
    def test_a_source_changed_after_indexing_fails(self, tmp_path, change):
        m = file_manifest(tmp_path, domain=30, r=0.0)
        stream, _ = mix(m)
        path = tmp_path / "dom.jsonl"
        data = path.read_bytes()
        if change == "rewritten":
            # Same length, same line breaks, another id: every offset still lands on a line.
            path.write_bytes(data.replace(b'"d-1', b'"x-1'))
        else:
            path.write_bytes(data[: len(data) // 2])
        with pytest.raises(InvalidRecordError, match="changed after it was indexed"):
            list(stream)

    def test_peak_memory_per_emitted_record(self, tmp_path):
        m = file_manifest(tmp_path, domain=1500, general=(("gen", 3000, 1.0),), r=1.0)
        warm = tmp_path / "warm"
        warm.mkdir()
        list(mix(file_manifest(warm, domain=5))[0])  # first-use caches are not per-record memory
        tracemalloc.start()
        try:
            stream, report = mix(m)
            written = sum(len(dumps_envelope(env)) for env in stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        emitted = report.domain_total + report.general_total
        assert emitted == 3000 and written > 3000 * 150
        assert peak <= 512 * emitted, peak / emitted

    def test_no_handle_is_left_open(self, tmp_path, open_handles):
        m = file_manifest(tmp_path, domain=30, r=1.0)
        stream, _ = mix(m)
        list(stream)
        stream[3]
        for env in stream:
            break
        assert len(open_handles) >= 4
        assert all(handle.closed for handle in open_handles)

    def test_cmd_mix_closes_every_handle_when_it_fails(self, tmp_path, capsys, monkeypatch, open_handles):
        m = file_manifest(tmp_path, domain=30, r=1.0)
        manifest_path = tmp_path / "mix.json"
        manifest_path.write_text(json.dumps({
            "domain_sources": [{"id": "dom", "path": m.domain_sources[0].path}],
            "general_sources": [{"id": "gen", "path": m.general_sources[0].path}],
            "ratio": 1.0,
            "seed": 3,
        }))
        out = tmp_path / "mixed.jsonl"
        assert cli.main(["mix", "--manifest", str(manifest_path), "-o", str(out)]) == 0
        reader_handles = len(open_handles)
        written = []

        def failing_dumps(env):
            if len(written) == 10:
                raise InvalidRecordError("encode failed", env.id)
            written.append(env)
            return dumps_envelope(env)

        monkeypatch.setattr(schema, "dumps_envelope", failing_dumps)
        assert cli.main(["mix", "--manifest", str(manifest_path), "-o", str(out)]) == 1
        capsys.readouterr()
        assert len(open_handles) > reader_handles
        assert all(handle.closed for handle in open_handles)
