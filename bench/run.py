#!/usr/bin/env python3
"""vlprep benchmark runner.

One run::

    python3 bench/run.py --workload single-image --seed 0 --seconds 30 --trace 0

generates the workload's corpus from the seed (untimed), makes one untimed
warm-up pass over the CLI steps to fill the page cache, then repeats the
pass, one ``vlprep`` subprocess at a time, until ``--seconds`` have passed.
Each step's wall time and peak RSS (``wait4`` rusage) are recorded and
every output is checked (exit status, counts against the generator, zero
validation errors, SHA-256 against the pinned digests for the default seed
or against the first pass for other seeds).  The last stdout line is one
JSON object: ``correct``, ``attempted`` (CLI runs), ``failed`` (runs with a
non-zero exit or a failed check) and ``metrics``, which with ``--trace 0``
are the end-to-end metrics (medians over passes) and with ``--trace 1`` the
per-layer metrics of traced in-process runs of ``vlprep.cli.main`` (see
``probes.py``).

``python3 bench/run.py --all`` runs every workload untraced, then every
workload traced, and prints every metric with its unit, the per-command
figures and the prediction each layer carries.  ``--write-digests`` re-pins
the default seed's output digests in ``bench/digests.json``; do that only
when a change to the output bytes is intended.

The program is taken from ``src/`` of the checkout this file sits in; the
run exits with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_ARGV = ("plan-tiles", "448", "448")
SETUP_STDOUT = b"1x1 tiles, 256 tokens\n"
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_PASS = 2

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "records_per_s": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(argv: tuple[str, ...], stdout_path: Path) -> tuple[int, float, float]:
    """Run ``vlprep <argv>``: (exit code, wall seconds, peak RSS in MB).

    The child's ``ru_maxrss`` is never below this process's own peak RSS:
    ``posix_spawn`` shares this process's memory map until the exec, and
    Linux carries that map's high-water mark into the child's.  Runs that
    report RSS therefore keep the runner small (see ``runner_rss_mb``).
    """
    env = _env()
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".stderr"), "wb") as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "vlprep.cli", *argv], env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = perf_counter() - start
    return os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss / 1024


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Bench:
    """One workload run: the corpus, the CLI steps and the failure tally."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.plan = gen.generate(workload, seed, self.dir / "in")
        self.steps = workloads.steps(self.plan, self.dir / "cli")
        self.logs = self.dir / "logs"
        self.logs.mkdir()
        self.pinned = None
        if seed == DEFAULT_SEED:
            pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
            self.pinned = pinned.get(workload, {})

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def cli_pass(self, reference: dict | None) -> tuple[list[tuple], dict[str, str]]:
        """Run every step once: [(step, seconds, rss_mb)] and the digests of passing steps."""
        timings, seen = [], {}
        for step in self.steps:
            for path in step.outputs:
                Path(path).unlink(missing_ok=True)
            log = self.logs / f"{step.name}.stdout"
            status, seconds, rss = spawn(step.argv, log)
            stdout = log.read_bytes()
            problems = workloads.check(step, status, stdout, reference)
            self.tally(problems)
            timings.append((step, seconds, rss))
            if not problems:
                seen.update(workloads.digests(step, stdout))
        return timings, seen

    def setup_probe(self) -> float:
        log = self.logs / "setup.stdout"
        status, seconds, _ = spawn(SETUP_ARGV, log)
        ok = status == 0 and log.read_bytes() == SETUP_STDOUT
        self.tally([] if ok else [f"plan-tiles {' '.join(SETUP_ARGV[1:])}: exit {status} or unexpected output"])
        return seconds

    def reference_pass(self) -> dict[str, str]:
        """The untimed first pass; its digests are the reference for later passes."""
        _, seen = self.cli_pass(self.pinned)
        return seen if self.pinned is None else self.pinned

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def pass_figures(timings: list[tuple]) -> dict[str, float]:
    """End-to-end and per-command figures of one pass."""
    out = {
        "records_per_s": sum(s.records for s, _, _ in timings) / sum(t for _, t, _ in timings),
        "peak_rss_mb": max(rss for _, _, rss in timings),
    }
    for command in workloads.COMMANDS:
        runs = [(s, t, rss) for s, t, rss in timings if s.command == command]
        if runs:
            out[f"{command}_rps"] = sum(s.records for s, _, _ in runs) / sum(t for _, t, _ in runs)
            out[f"{command}_rss_mb"] = max(rss for _, _, rss in runs)
    return out


def _more(start: float, last: float, seconds: float) -> bool:
    """Whether another repetition ends closer to ``seconds`` than stopping now."""
    now = perf_counter()
    return now - start + (now - last) / 2 < seconds


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced run: (result, per-command detail)."""
    bench = Bench(workload, seed)
    try:
        reference = bench.reference_pass()
        setup = [bench.setup_probe() for _ in range(SETUP_PROBES_FIRST)]
        passes = []
        start = last = perf_counter()
        while not passes or _more(start, last, seconds):
            last = perf_counter()
            timings, _ = bench.cli_pass(reference)
            passes.append(timings)
            setup += [bench.setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        # The typical pass: each step's median time and RSS over the passes.
        figures = pass_figures(
            [
                (step, median(p[i][1] for p in passes), median(p[i][2] for p in passes))
                for i, step in enumerate(bench.steps)
            ]
        )
        metrics = {
            "records_per_s": figures["records_per_s"],
            "setup_s": median(setup),
            "peak_rss_mb": figures["peak_rss_mb"],
        }
        result = bench.result({name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()})
        detail = {
            "passes": len(passes),
            "setup_probes": len(setup),
            "failed_ops_frac": bench.failed / bench.attempted,
            # The floor under every *_rss_mb figure (see spawn).
            "runner_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **{k: v for k, v in figures.items() if k not in metrics},
            "problems": bench.problems[:20],
        }
        return result, detail
    finally:
        bench.close()


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Traced run: (result with per-layer metrics, detail)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import probes
    from spans import Tracer

    bench = Bench(workload, seed)
    try:
        reference = bench.reference_pass()
        plain_steps = workloads.steps(bench.plan, bench.dir / "inproc")
        traced_steps = workloads.steps(bench.plan, bench.dir / "traced")
        rounds = []
        start = last = perf_counter()
        while not rounds or _more(start, last, seconds):
            last = perf_counter()
            plain_s = _inproc_pass(bench, probes.run_cli_main, plain_steps, reference)
            tracer = Tracer(f"{workload}-{seed}-{len(rounds)}")
            probe = probes.Probes(tracer)
            traced_s = _inproc_pass(bench, probe.run, traced_steps, reference)
            rounds.append((plain_s, sum(traced_s.values()), tracer.totals()))
        largest = max(probe.read_sizes, key=probe.read_sizes.get, default=None)
        retained = probes.retained_mb(largest) if largest else 0.0
        tracer.write(str(WORK / f"{workload}.spans.tsv"))
        metrics = layer_metrics(rounds, probe, retained, len(plain_steps))
        units = {m["name"]: m["unit"] for m in layers.per_layer_metrics()}
        result = bench.result({name: {"value": value, "unit": units[name]} for name, value in metrics.items()})
        detail = {
            "rounds": len(rounds),
            "spans": len(tracer),
            "failed_ops_frac": bench.failed / bench.attempted,
            "problems": bench.problems[:20],
        }
        return result, detail
    finally:
        bench.close()


def _inproc_pass(bench: Bench, run_step, steps: list, reference: dict) -> dict[str, float]:
    """Run every step through ``run_step`` in this process; seconds per command."""
    seconds = {command: 0.0 for command in workloads.COMMANDS}
    for step in steps:
        for path in step.outputs:
            Path(path).unlink(missing_ok=True)
        try:
            status, stdout, secs = run_step(step)
        except Exception as exc:  # a probe that no longer fits the program is a failed run, not a crash
            bench.tally([f"in-process {step.name}: {type(exc).__name__}: {exc}"])
            continue
        seconds[step.command] += secs
        bench.tally(workloads.check(step, status, stdout, reference))
    return seconds


def layer_metrics(rounds: list, probe, retained: float, cli_calls: int) -> dict[str, float]:
    """Per-layer metrics: counts from the last traced round, times as medians over rounds."""
    def busy(name: str) -> float:
        return median(totals.get(name, (0, 0.0))[1] for _, _, totals in rounds)

    last = rounds[-1][2]
    counts = probe.counts
    out: dict[str, float] = {}
    for layer in layers.LAYERS:
        out[f"{layer}.calls"] = last.get(layer, (0, 0.0))[0]
        out[f"{layer}.busy_s"] = busy(layer)
    loads, dumps = busy("schema.loads_envelope"), busy("schema.dumps_envelope")
    plan_calls = out["geometry.plan_tiles.calls"]
    extras = {
        "schema.loads_envelope.in_mb_per_s": counts["in_bytes"] / 2**20 / loads if loads else 0.0,
        "schema.dumps_envelope.out_mb_per_s": counts["out_bytes"] / 2**20 / dumps if dumps else 0.0,
        "schema.validate_envelope.rejects": counts["rejects"],
        "schema.read_envelopes.records": counts["records"],
        "schema.read_envelopes.retained_mb": retained,
        "formats.parse_special_tokens.tokens": counts["tokens"],
        "geometry.plan_tiles.distinct_ratio": len(probe.plan_inputs) / plan_calls if plan_calls else 0.0,
        "mixer.load.records_loaded": counts["records_loaded"],
        "mixer.emitted_per_loaded": counts["emitted"] / counts["records_loaded"] if counts["records_loaded"] else 0.0,
    }
    cli_total = [sum(plain_s.values()) for plain_s, _, _ in rounds]
    layer_total = [sum(b for name, (_, b) in totals.items() if name in layers.LAYERS) for *_, totals in rounds]
    overhead = [t / p - 1 if p else 0.0 for p, (_, t, _) in zip(cli_total, rounds)]
    extras["cli.main.calls"] = cli_calls
    extras["cli.main.busy_s"] = median(cli_total)
    for command in workloads.COMMANDS:
        extras[f"cli.main.{command}_s"] = median(plain_s[command] for plain_s, _, _ in rounds)
    # Layer spans carry the tracing overhead; scale them back before subtracting.
    extras["cli.unattributed_s"] = median(
        c - lt / (1 + o) for c, lt, o in zip(cli_total, layer_total, overhead)
    )
    extras["tracing.overhead_frac"] = median(overhead)
    ordered = [m["name"] for m in layers.per_layer_metrics()]
    merged = {**out, **extras}
    return {name: merged[name] for name in ordered}


def machine() -> dict[str, object]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "vlprep_commit": commit,
        "platform": platform.platform(),
    }


def write_digests() -> int:
    """Pin the default seed's output digests for every workload."""
    pinned = {}
    for workload in gen.WORKLOADS:
        bench = Bench(workload, DEFAULT_SEED)
        try:
            _, seen = bench.cli_pass(None)
            if bench.failed:
                print("\n".join(bench.problems), file=sys.stderr)
                return 1
            pinned[workload] = seen
        finally:
            bench.close()
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {sum(len(v) for v in pinned.values())} digests for seed {DEFAULT_SEED} in {DIGESTS.name}")
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then every workload traced, printed for a reader.

    All untraced runs come first: the traced runs grow this process (corpora
    held in memory, tracemalloc), and every child's peak RSS would include
    that growth (see ``spawn``).
    """
    print(f"machine {json.dumps(machine())}")
    moves = layers.predictions()
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    untraced = {workload: measure(workload, seed, seconds) for workload in gen.WORKLOADS}
    for workload in gen.WORKLOADS:
        e2e, detail = untraced[workload]
        per_layer, trace_detail = traced(workload, seed, seconds)
        print(f"\n== {workload} (seed {seed}, {detail['passes']} passes, {trace_detail['rounds']} traced rounds)")
        for name, m in e2e["metrics"].items():
            print(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")
        print(f"  {'failed_ops_frac':<28} {detail['failed_ops_frac']:>14.4f} ratio")
        print(f"  {'runner_rss_mb':<28} {detail['runner_rss_mb']:>14.4f} MB (floor under every *_rss_mb)")
        for name, value in detail.items():
            if name.endswith(("_rps", "_rss_mb")) and name != "runner_rss_mb":
                print(f"  {name:<28} {value:>14.4f} {'MB' if name.endswith('_mb') else 'records/s'}")
        print(f"  -- per layer (traced in-process runs; failed_ops_frac {trace_detail['failed_ops_frac']:.4f})")
        for name, m in per_layer["metrics"].items():
            # Each layer's prediction is printed once, on its .calls line.
            note = moves.get(name.removesuffix(".calls"), "") if name.endswith(".calls") else moves.get(name, "")
            print(f"  {name:<42} {m['value']:>14.4f} {m['unit']:<8} {note}")
        for result, info in ((e2e, detail), (per_layer, trace_detail)):
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for problem in info["problems"]:
                print(f"  FAIL {problem}", file=sys.stderr)
        summary["workloads"][workload] = {"end_to_end": e2e["metrics"], "per_layer": per_layer["metrics"]}
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--write-digests", action="store_true", help="re-pin the default seed's output digests")
    args = parser.parse_args(argv)
    if not (SRC / "vlprep" / "cli.py").is_file():
        print(f"vlprep sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.write_digests:
        return write_digests()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --all or --write-digests is given")
    run = traced if args.trace else measure
    result, detail = run(args.workload, args.seed, args.seconds)
    print(f"machine {json.dumps(machine())}")
    print(f"detail {json.dumps(detail)}")
    for problem in detail["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
