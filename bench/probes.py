"""Traced in-process runs of the CLI: span-recording wrappers on the layers.

``Probes(tracer).run(step)`` puts a wrapper onto each layer's module
attribute with ``unittest.mock.patch`` and runs ``vlprep.cli.main`` on the
step's argv in this process.  Each attribute is the name the caller looks up
at call time, so the layers are called with the CLI's own call pattern,
order and count, and a change to how the CLI drives a layer shows up in the
trace by construction:

- ``schema.*`` and ``formats.convert_*``, ``metrics.*``: the CLI calls them
  through the module, and ``schema`` calls its own helpers (and
  ``parse_special_tokens``, which it imports by name) through its globals.
- ``formats.ConversationSample.validate``: a method, patched on the class.
- ``geometry.plan_tiles`` and ``geometry.token_count``: imported by name
  into ``vlprep.cli``, so patched there.
- ``mixer.mix``: imported by name into ``vlprep.cli``; the wrapper passes a
  traced ``loader=`` so that each pool load is a ``mixer.load`` span.
- ``schema.envelope_build``: the CLI builds output envelopes through
  ``cli.schema.Envelope``, while ``loads_envelope`` builds its own through
  the ``schema`` global.  Only the CLI's ``schema`` is swapped for a view
  whose ``Envelope`` is traced, so decoding is not counted as building.

The patches are undone when the step ends.  The counts a layer's extras
need are taken outside its span, so they cost the parent, not the layer.
"""

from __future__ import annotations

import io
import os
import tracemalloc
from collections import Counter
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from time import perf_counter
from unittest import mock

from vlprep import cli, formats, metrics, mixer, schema
from vlprep.errors import InvalidRecordError

from layers import TASKS
from spans import Tracer
from workloads import Step


def run_cli_main(step: Step) -> tuple[int, bytes, float]:
    """Run ``vlprep.cli.main`` in this process: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(list(step.argv))
    return status, out.getvalue().encode("utf-8"), perf_counter() - start


class _SchemaView:
    """``vlprep.schema`` as ``vlprep.cli`` sees it, with ``Envelope`` replaced."""

    def __init__(self, envelope) -> None:
        self.Envelope = envelope

    def __getattr__(self, name: str):
        return getattr(schema, name)


class Probes:
    """Traced CLI runs; ``counts`` and ``plan_inputs`` gather the layers' extras."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.plan_inputs: set[tuple] = set()
        self.read_sizes: dict[str, int] = {}
        self._patches = self._build()

    def _build(self) -> list:
        wrap, counts = self.tracer.wrap, self.counts

        loads = wrap("schema.loads_envelope", schema.loads_envelope)

        def loads_envelope(line):
            counts["in_bytes"] += len(line.encode("utf-8"))
            return loads(line)

        dumps = wrap("schema.dumps_envelope", schema.dumps_envelope)

        def dumps_envelope(env):
            text = dumps(env)
            counts["out_bytes"] += len(text.encode("utf-8"))
            return text

        validate = wrap("schema.validate_envelope", schema.validate_envelope)

        def validate_envelope(env):
            try:
                return validate(env)
            except InvalidRecordError:
                counts["rejects"] += 1
                raise

        read = wrap("schema.read_envelopes", schema.read_envelopes)

        def read_envelopes(source):
            envelopes = read(source)
            counts["records"] += len(envelopes)
            if isinstance(source, str):
                self.read_sizes[source] = os.path.getsize(source)
            return envelopes

        parse = wrap("formats.parse_special_tokens", formats.parse_special_tokens)

        def parse_special_tokens(text):
            tokens = parse(text)
            counts["tokens"] += len(tokens)
            return tokens

        plan = wrap("geometry.plan_tiles", cli.plan_tiles)

        def plan_tiles(dims, *rest):
            self.plan_inputs.add((dims.width, dims.height, *rest))
            return plan(dims, *rest)

        def read_pool(path):
            pool = schema.read_envelopes(path)
            counts["records_loaded"] += len(pool)
            return pool

        load = wrap("mixer.load", read_pool)
        mixed = wrap("mixer.mix", mixer.mix)

        def mix(manifest):
            stream, report = mixed(manifest, loader=load)
            counts["emitted"] += len(stream)
            return stream, report

        patch = mock.patch.object
        return [
            patch(schema, "loads_envelope", loads_envelope),
            patch(schema, "dumps_envelope", dumps_envelope),
            patch(schema, "validate_envelope", validate_envelope),
            patch(schema, "read_envelopes", read_envelopes),
            patch(schema, "parse_special_tokens", parse_special_tokens),
            *(
                patch(schema, name, wrap(f"schema.{name}", getattr(schema, name)))
                for name in ("payload_to_record", "payload_to_sample", "sample_to_payload")
            ),
            patch(cli, "schema", _SchemaView(wrap("schema.envelope_build", schema.Envelope))),
            *(
                patch(formats, f"convert_{task}", wrap(f"formats.convert_{task}", getattr(formats, f"convert_{task}")))
                for task in TASKS
            ),
            patch(
                formats.ConversationSample,
                "validate",
                wrap("formats.sample_validate", formats.ConversationSample.validate),
            ),
            patch(cli, "plan_tiles", plan_tiles),
            patch(cli, "token_count", wrap("geometry.token_count", cli.token_count)),
            patch(cli, "mix", mix),
            *(
                patch(metrics, name, wrap(f"metrics.{name}", getattr(metrics, name)))
                for name in ("mcq_accuracy", "bleu", "rouge_l", "control_signal_metrics")
            ),
        ]

    def run(self, step: Step) -> tuple[int, bytes, float]:
        """``run_cli_main`` with every layer traced, under one ``step.<command>`` span."""
        with ExitStack() as stack:
            for patch in self._patches:
                stack.enter_context(patch)
            self.tracer.begin(f"step.{step.command}")
            try:
                return run_cli_main(step)
            finally:
                self.tracer.end()


def retained_mb(path: str) -> float:
    """Memory ``schema.read_envelopes`` keeps alive for one file, by tracemalloc."""
    tracemalloc.start()
    try:
        envelopes = schema.read_envelopes(path)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del envelopes
    return current / 2**20
