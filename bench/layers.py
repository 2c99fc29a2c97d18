"""Per-layer metric definitions and the prediction each layer carries.

Every layer reports ``<layer>.calls`` and ``<layer>.busy_s`` (self time in
the traced in-process run) plus the extras listed.  ``moves`` is written
down before any measurement: the per-command figure the layer should move,
on which workload.  The per-command figures (``convert_rps``, ``mix_rss_mb`` ...) are
printed on every untraced run; the gated end-to-end metrics they roll up
into are ``records_per_s`` and ``peak_rss_mb``.
"""

from __future__ import annotations

TASKS = ("classification", "grounding", "region", "multiview", "video")

# layer -> (extras {metric suffix: (unit, better)}, prediction)
LAYERS: dict[str, tuple[dict[str, tuple[str, str]], str]] = {
    "schema.loads_envelope": (
        {"in_mb_per_s": ("MB/s", "higher")},
        "convert_rps and validate_rps on single-image; mix_rps on mixture",
    ),
    "schema.envelope_build": ({}, "convert_rps on single-image"),
    "schema.payload_to_record": ({}, "convert_rps on single-image"),
    "schema.payload_to_sample": ({}, "convert_rps on single-image"),
    "schema.sample_to_payload": ({}, "convert_rps on single-image"),
    "schema.dumps_envelope": ({"out_mb_per_s": ("MB/s", "higher")}, "convert_rps on single-image"),
    "schema.validate_envelope": ({"rejects": ("count", "lower")}, "validate_rps on driving-scenes and mixture"),
    "schema.read_envelopes": (
        {"records": ("count", "lower"), "retained_mb": ("MB", "lower")},
        "stats_rss_mb on single-image and driving-scenes; mix_rss_mb on mixture",
    ),
    **{
        f"formats.convert_{task}": (
            {},
            "convert_rps on driving-scenes" if task in ("multiview", "video") else "convert_rps on single-image",
        )
        for task in TASKS
    },
    "formats.sample_validate": ({}, "validate_rps on driving-scenes"),
    "formats.parse_special_tokens": ({"tokens": ("count", "lower")}, "validate_rps on driving-scenes"),
    "geometry.plan_tiles": (
        {"distinct_ratio": ("ratio", "lower")},
        "stats_rps on single-image and driving-scenes (a plan cache: driving-scenes only)",
    ),
    "geometry.token_count": ({}, "stats_rps on single-image and driving-scenes"),
    "mixer.load": ({"records_loaded": ("count", "lower")}, "mix_rps and mix_rss_mb on mixture only"),
    "mixer.mix": ({}, "mix_rps and mix_rss_mb on mixture only"),
    "metrics.mcq_accuracy": ({}, "eval_rps on single-image (no change expected)"),
    "metrics.bleu": ({}, "eval_rps on driving-scenes"),
    "metrics.rouge_l": ({}, "eval_rps on driving-scenes"),
    "metrics.control_signal_metrics": ({}, "eval_rps on driving-scenes"),
}

# Metrics that are not a layer's calls/busy/extras.
OTHER: dict[str, tuple[str, str, str]] = {
    "mixer.emitted_per_loaded": ("ratio", "higher", "mix_rps on mixture (useful work per record read)"),
    "cli.main.calls": ("count", "lower", "every *_rps (commands run in-process)"),
    "cli.main.busy_s": ("s", "lower", "every *_rps (commands run in-process)"),
    **{
        f"cli.main.{command}_s": ("s", "lower", f"{command}_rps (the command run in-process)")
        for command in ("convert", "validate", "stats", "mix", "eval")
    },
    "cli.unattributed_s": ("s", "lower", "every *_rps (writes, orchestration, duplicated checks)"),
    "tracing.overhead_frac": ("ratio", "lower", "none: the cost of tracing cli.main"),
}


def per_layer_metrics() -> list[dict]:
    """The ``per_layer`` list of BENCHMARK.json, in report order."""
    out = []
    for layer, (extras, _) in LAYERS.items():
        out.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{layer}.busy_s", "unit": "s", "better": "lower"})
        for suffix, (unit, better) in extras.items():
            out.append({"name": f"{layer}.{suffix}", "unit": unit, "better": better})
    for name, (unit, better, _) in OTHER.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def predictions() -> dict[str, str]:
    """Layer (or metric) -> the figure it should move, on which workload."""
    return {**{layer: moves for layer, (_, moves) in LAYERS.items()}, **{n: m for n, (_, _, m) in OTHER.items()}}
