"""Evaluation metrics: MCQ accuracy, corpus BLEU, ROUGE-L, signal errors.

The tokenizer and all tie-breaking choices are pinned here so that scores
are reproducible across runs of this toolkit; they are not guaranteed to
match other toolkits' conventions.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import InvalidConfigError, InvalidRecordError, UndefinedMetricError

# Lowercase, with punctuation split into standalone tokens.
TOKEN_RE = re.compile(r"\w+|[^\w\s]")

# Leading option letter as in "A.", "b)", "C:".
OPTION_RE = re.compile(r"\s*([A-Za-z])\s*[.):]")

DEFAULT_THRESHOLDS = (0.1, 0.5, 1.0, 5.0)


@dataclass(frozen=True)
class EvalPair:
    """One prediction with its reference answer(s)."""

    id: str
    prediction: str
    references: tuple[str, ...]

    def __post_init__(self) -> None:
        refs = tuple(self.references)
        if not refs:
            raise InvalidRecordError("references must be non-empty")
        object.__setattr__(self, "references", refs)


@dataclass(frozen=True)
class SignalPair:
    """Predicted vs true value of one control signal (same unit)."""

    id: str
    predicted: float
    truth: float


@dataclass(frozen=True)
class MetricReport:
    """Named metric values plus the sample count and configuration they used."""

    metrics: dict[str, float]
    count: int
    config: dict[str, str] = field(default_factory=dict)


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


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_length(pred_len: int, ref_lens: Sequence[int]) -> int:
    # Closest reference length; ties go to the shorter reference.
    return min(ref_lens, key=lambda r: (abs(r - pred_len), r))


def bleu(pairs: Sequence[EvalPair], max_n: int = 4) -> float:
    """Corpus BLEU with uniform weights over orders 1..max_n.

    Clipped n-gram counts are pooled across the corpus before the geometric
    mean; the brevity penalty exp(1 - r/c) applies when the total prediction
    length c falls below the total effective reference length r.  Any order
    with zero matches sends the score to 0.0.
    """
    if not pairs:
        raise UndefinedMetricError("bleu is undefined on an empty corpus")
    if not 1 <= max_n <= 4:
        raise InvalidConfigError(f"max_n must be in 1..4, got {max_n}")

    matched = [0] * max_n
    possible = [0] * max_n
    pred_total = 0
    ref_total = 0
    for pair in pairs:
        pred = tokenize(pair.prediction)
        refs = [tokenize(r) for r in pair.references]
        pred_total += len(pred)
        ref_total += _closest_ref_length(len(pred), [len(r) for r in refs])
        for n in range(1, max_n + 1):
            pred_grams = _ngrams(pred, n)
            if not pred_grams:
                continue
            clip: Counter = Counter()
            for ref in refs:
                ref_grams = _ngrams(ref, n)
                for gram, count in pred_grams.items():
                    clip[gram] = max(clip[gram], min(count, ref_grams[gram]))
            matched[n - 1] += sum(clip.values())
            possible[n - 1] += sum(pred_grams.values())

    if pred_total == 0 or any(m == 0 or p == 0 for m, p in zip(matched, possible)):
        return 0.0
    log_mean = sum(math.log(m / p) for m, p in zip(matched, possible)) / max_n
    penalty = 1.0 if pred_total >= ref_total else math.exp(1.0 - ref_total / pred_total)
    return penalty * math.exp(log_mean)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


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


def control_signal_metrics(
    pairs: Sequence[SignalPair],
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> MetricReport:
    """RMSE plus threshold accuracies A_tau (fraction with |error| < tau)."""
    if not pairs:
        raise UndefinedMetricError("control_signal_metrics is undefined on an empty corpus")
    if not thresholds:
        raise InvalidConfigError("at least one threshold is required")
    if not all(t > 0 for t in thresholds):  # NaN is not > 0 either
        raise InvalidConfigError(f"thresholds must be positive, got {list(thresholds)}")

    errors = [p.predicted - p.truth for p in pairs]
    rmse = math.sqrt(sum(e * e for e in errors) / len(errors))
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
    return sum(adjusted) / len(adjusted)

