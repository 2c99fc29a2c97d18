"""Evaluation metrics: MCQ accuracy, corpus BLEU, ROUGE-L, signal errors.

The tokenizer and all tie-breaking choices are pinned here so that scores
are reproducible across runs of this toolkit; they are not guaranteed to
match other toolkits' conventions.
"""

from __future__ import annotations

import math
import re
from collections import Counter, namedtuple
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

from .errors import EMPTY_MAPPING, InvalidConfigError, InvalidRecordError, UndefinedMetricError
from .geometry import ordered_sum

# Lowercase, with punctuation split into standalone tokens.
TOKEN_RE = re.compile(r"\w+|[^\w\s]")

# Leading option letter as in "A.", "b)", "C:".
OPTION_RE = re.compile(r"\s*([A-Za-z])\s*[.):]")

DEFAULT_THRESHOLDS = (0.1, 0.5, 1.0, 5.0)


class EvalPair(namedtuple("EvalPair", "id prediction references")):
    """One prediction with its reference answer(s), held as a tuple; a lone string is one reference."""

    __slots__ = ()

    def __new__(cls, id: str, prediction: str, references) -> EvalPair:
        refs = (references,) if isinstance(references, str) else tuple(references)
        if not refs:
            raise InvalidRecordError("references must be non-empty")
        return super().__new__(cls, id, prediction, refs)


class SignalPair(NamedTuple):
    """Predicted vs true value of one control signal (same unit)."""

    id: str
    predicted: float
    truth: float


class MetricReport(NamedTuple):
    """Named metric values plus the sample count and configuration they used."""

    metrics: dict[str, float]
    count: int
    config: dict[str, str] = EMPTY_MAPPING


def tokenize(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


def _normalize(text: str) -> str:
    return " ".join(text.split()).lower()


def _option_key(text: str) -> str | None:
    m = OPTION_RE.match(text)
    if m:
        return m.group(1).upper()
    norm = _normalize(text)
    if len(norm) == 1 and norm.isalpha():
        return norm.upper()
    return None


def _mcq_match(prediction: str, reference: str) -> bool:
    pred_key = _option_key(prediction)
    ref_key = _option_key(reference)
    if pred_key is not None and ref_key is not None:
        return pred_key == ref_key
    return _normalize(prediction) == _normalize(reference)


def mcq_accuracy(pairs: Sequence[EvalPair]) -> float:
    """Fraction of predictions matching any reference by option or text.

    A leading "A." / "b)" style letter (or a bare letter answer) is compared
    as an option letter; otherwise whitespace-collapsed lowercase strings are
    compared whole.
    """
    if not pairs:
        raise UndefinedMetricError("mcq_accuracy is undefined on an empty corpus")
    hits = sum(1 for p in pairs if any(_mcq_match(p.prediction, r) for r in p.references))
    return hits / len(pairs)


def _grams(tokens: list[str], max_n: int) -> Counter:
    """Every n-gram of ``tokens`` for n in 1..max_n, as n-tuples, in one Counter (a tuple's length is its order)."""
    return Counter(chain.from_iterable(zip(*[tokens[i:] for i in range(n)]) for n in range(1, max_n + 1)))


def _closest_ref_length(pred_len: int, ref_lens: Sequence[int]) -> int:
    # Closest reference length; ties go to the shorter reference.
    return min(ref_lens, key=lambda r: (abs(r - pred_len), r))


def check_max_n(max_n: int) -> None:
    """Refuse a BLEU order outside 1..4."""
    if not 1 <= max_n <= 4:
        raise InvalidConfigError(f"max_n must be in 1..4, got {max_n}")


def _bleu_counts(pairs: Sequence[EvalPair], max_n: int) -> list[int]:
    """``[pred_total, ref_total, matched_1..max_n, possible_1..max_n]`` of ``pairs``, each an integer sum."""
    totals = [0] * (2 + 2 * max_n)
    for pair in pairs:
        pred = tokenize(pair.prediction)
        refs = [tokenize(r) for r in pair.references]
        union = _grams(refs[0], max_n)
        for ref in refs[1:]:
            union |= _grams(ref, max_n)
        totals[0] += len(pred)
        totals[1] += _closest_ref_length(len(pred), [len(r) for r in refs])
        for gram, count in _grams(pred, max_n).items():  # a loop, not Counter &, which builds a Counter
            clip = union.get(gram, 0)
            totals[1 + len(gram)] += count if count < clip else clip
        for n in range(1, min(max_n, len(pred)) + 1):
            totals[1 + max_n + n] += len(pred) - n + 1
    return totals


def bleu(pairs: Sequence[EvalPair], max_n: int = 4) -> float:
    """Corpus BLEU with uniform weights over orders 1..max_n.

    Clipped n-gram counts are pooled across the corpus before the geometric
    mean; the brevity penalty exp(1 - r/c) applies when the total prediction
    length c falls below the total effective reference length r.  Any order
    with zero matches sends the score to 0.0.

    Each text is tokenized once into one Counter of its n-grams of every
    order, and a prediction n-gram's count is clipped to its largest count
    in any reference (Papineni et al. 2002): its count in the max-union
    (``|``) of the references' Counters.  A prediction of c tokens has
    c - n + 1 possible n-grams.  The integer counts of contiguous chunks of
    ``pairs``, one per process of a :mod:`shards` pass over the texts' size,
    are added by ``shards.run``, so the score's bits do not depend on them.
    """
    if not pairs:
        raise UndefinedMetricError("bleu is undefined on an empty corpus")
    check_max_n(max_n)
    from . import shards  # only bleu fans out, so eval --metric mcq does not load the shard layer

    chunks = shards.split(len(pairs), sum(len(p.prediction) + sum(map(len, p.references)) for p in pairs))
    chunk_counts = lambda chunk, _: _bleu_counts(pairs[chunk.start : chunk.stop], max_n)  # noqa: E731
    pred_total, ref_total, *counts = shards.run(chunks, chunk_counts)
    matched, possible = counts[:max_n], counts[max_n:]

    if pred_total == 0 or any(m == 0 or p == 0 for m, p in zip(matched, possible)):
        return 0.0
    log_mean = ordered_sum(math.log(m / p) for m, p in zip(matched, possible)) / max_n
    penalty = 1.0 if pred_total >= ref_total else math.exp(1.0 - ref_total / pred_total)
    return penalty * math.exp(log_mean)


def _lcs_length(pred: Sequence[str], ref: Sequence[str]) -> int:
    """Length of the longest common subsequence, by the bit-parallel recurrence.

    Allison & Dix (1986); Hyyrö (2004), "Bit-parallel LCS-length computation
    revisited".  Bit j of ``masks[x]`` marks ``ref[j] == x``; after each
    prediction token, a zero bit j of ``v`` marks where the LCS of the
    prediction so far with ``ref[: j + 1]`` is one longer than with ``ref[:j]``.
    Each prediction token costs a few operations on ``len(ref)``-bit ints,
    not a row of ``len(ref)`` table cells, and the length is exact.
    """
    masks: dict[str, int] = {}
    for j, x in enumerate(ref):
        masks[x] = masks.get(x, 0) | 1 << j
    full = v = (1 << len(ref)) - 1
    for x in pred:
        if x in masks:  # a token absent from ref leaves v as it is
            u = v & masks[x]
            v = ((v + u) | (v - u)) & full
    return len(ref) - v.bit_count()


def rouge_l(pairs: Sequence[EvalPair], recall_only: bool = False) -> float:
    """Mean per-sample ROUGE-L, best reference per sample.

    The per-sample score is the balanced F-measure 2PR/(P+R) from the
    longest common subsequence, or plain LCS recall when ``recall_only``.
    """
    if not pairs:
        raise UndefinedMetricError("rouge_l is undefined on an empty corpus")
    total = 0.0
    for pair in pairs:
        pred = tokenize(pair.prediction)
        best = 0.0
        for ref_text in pair.references:
            ref = tokenize(ref_text)
            lcs = _lcs_length(pred, ref)
            if lcs == 0:
                continue
            precision = lcs / len(pred)
            recall = lcs / len(ref)
            score = recall if recall_only else 2 * precision * recall / (precision + recall)
            best = max(best, score)
        total += best
    return total / len(pairs)


def check_thresholds(thresholds: Sequence[float]) -> None:
    """Refuse an empty threshold list, a threshold that is not a positive finite number, or one given twice."""
    if not thresholds:
        raise InvalidConfigError("at least one threshold is required")
    if not all(0 < t < math.inf for t in thresholds):  # NaN is in no range either
        raise InvalidConfigError(f"thresholds must be positive finite numbers, got {list(thresholds)}")
    if len(set(thresholds)) < len(thresholds):  # each names one A_tau key
        raise InvalidConfigError(f"thresholds must differ, got {list(thresholds)}")


def control_signal_metrics(
    pairs: Sequence[SignalPair],
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> MetricReport:
    """RMSE plus threshold accuracies A_tau (fraction with |error| < tau)."""
    if not pairs:
        raise UndefinedMetricError("control_signal_metrics is undefined on an empty corpus")
    check_thresholds(thresholds)

    errors = [p.predicted - p.truth for p in pairs]
    rmse = math.sqrt(ordered_sum(e * e for e in errors) / len(errors))
    metrics = {"rmse": rmse}
    for tau in thresholds:
        metrics[f"A_{float(tau)}"] = sum(1 for e in errors if abs(e) < tau) / len(errors)
    return MetricReport(
        metrics=metrics,
        count=len(pairs),
        config={"thresholds": ",".join(str(float(t)) for t in thresholds)},
    )


def benchmark_average(scores: Mapping[str, float], ocrbench_key: str = "OCRBench") -> float:
    """Arithmetic mean of benchmark scores with the OCRBench entry on /10 scale."""
    if ocrbench_key not in scores:
        raise InvalidConfigError(f"scores are missing the {ocrbench_key!r} entry")
    adjusted = [v / 10.0 if name == ocrbench_key else v for name, v in scores.items()]
    return ordered_sum(adjusted) / len(adjusted)

