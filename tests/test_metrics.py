import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlprep.errors import InvalidConfigError, InvalidRecordError, UndefinedMetricError
from vlprep.metrics import (
    DEFAULT_THRESHOLDS,
    EvalPair,
    SignalPair,
    benchmark_average,
    bleu,
    control_signal_metrics,
    mcq_accuracy,
    rouge_l,
    tokenize,
)


def pair(pred: str, *refs: str) -> EvalPair:
    return EvalPair(id="t", prediction=pred, references=tuple(refs))


words = st.lists(st.sampled_from("a b c d e f g".split()), min_size=1, max_size=12)


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("The cat, sat!") == ["the", "cat", ",", "sat", "!"]

    def test_empty(self):
        assert tokenize("   ") == []


class TestMcqAccuracy:
    def test_all_match(self):
        pairs = [pair("A. stop", "A. stop"), pair("B", "B")]
        assert mcq_accuracy(pairs) == 1.0

    def test_none_match(self):
        pairs = [pair("A.", "B."), pair("left", "right")]
        assert mcq_accuracy(pairs) == 0.0

    def test_three_of_four(self):
        pairs = [
            pair("A. go", "A. go"),
            pair("B)", "b."),
            pair("C", "C. turn left"),
            pair("D. stop", "A. stop"),
        ]
        assert mcq_accuracy(pairs) == 0.75

    def test_letter_extraction_beats_text(self):
        assert mcq_accuracy([pair("A. the car turns", "A. something else")]) == 1.0

    def test_full_string_normalization(self):
        assert mcq_accuracy([pair("  Turn   LEFT ", "turn left")]) == 1.0

    def test_any_reference_counts(self):
        assert mcq_accuracy([pair("B", "A. go", "B. stop")]) == 1.0

    def test_empty_corpus(self):
        with pytest.raises(UndefinedMetricError):
            mcq_accuracy([])

    def test_references_must_be_nonempty(self):
        with pytest.raises(InvalidRecordError):
            EvalPair(id="x", prediction="a", references=())


class TestBleu:
    def test_identical_every_order(self):
        pairs = [pair("the cat sat on the mat", "the cat sat on the mat")]
        for n in (1, 2, 3, 4):
            assert bleu(pairs, max_n=n) == pytest.approx(1.0, abs=1e-12)

    def test_zero_overlap(self):
        assert bleu([pair("aa bb", "cc dd")], max_n=1) == 0.0

    def test_brevity_penalty_oracle(self):
        # c=3, r=4, unigram precision 1 -> exp(1 - 4/3)
        value = bleu([pair("the cat sat", "the cat sat down")], max_n=1)
        assert value == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)

    def test_clipping_oracle(self):
        # "the the the" vs "the cat": clipped count 1 of 3 unigrams, c=3 > r=2.
        value = bleu([pair("the the the", "the cat")], max_n=1)
        assert value == pytest.approx(1 / 3, abs=1e-12)

    def test_closest_reference_length_tie_prefers_shorter(self):
        # c=2; refs of length 1 and 3 tie on |r-c|; shorter wins -> no penalty.
        value = bleu([pair("a b", "b", "a b c")], max_n=1)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_corpus_pools_counts(self):
        pairs = [pair("a b", "a b"), pair("c d", "c x")]
        # unigrams: matched 2 + 1 of possible 2 + 2; lengths equal -> BP 1
        assert bleu(pairs, max_n=1) == pytest.approx(3 / 4, abs=1e-12)

    def test_max_n_validated(self):
        with pytest.raises(InvalidConfigError):
            bleu([pair("a", "a")], max_n=0)
        with pytest.raises(InvalidConfigError):
            bleu([pair("a", "a")], max_n=5)

    def test_empty_corpus(self):
        with pytest.raises(UndefinedMetricError):
            bleu([], max_n=4)

    def test_empty_prediction_scores_zero(self):
        assert bleu([pair("", "a b")], max_n=1) == 0.0

    @given(tokens=words)
    @settings(max_examples=100, deadline=None)
    def test_single_pair_unigram_precision_no_penalty(self, tokens):
        # Same length as reference -> no brevity penalty; BLEU-1 must equal
        # clipped unigram precision computed by direct counting.
        text = " ".join(tokens)
        ref_tokens = list(tokens)
        random.Random(0).shuffle(ref_tokens)
        ref = " ".join(ref_tokens)
        from collections import Counter

        overlap = sum((Counter(tokens) & Counter(ref_tokens)).values())
        expected = overlap / len(tokens)
        assert bleu([pair(text, ref)], max_n=1) == pytest.approx(expected, abs=1e-12)

    @given(a=words, b=words)
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_permutation_invariant(self, a, b):
        pairs = [pair(" ".join(a), " ".join(b)), pair(" ".join(b), " ".join(a))]
        value = bleu(pairs, max_n=2)
        assert 0.0 <= value <= 1.0
        assert bleu(list(reversed(pairs)), max_n=2) == pytest.approx(value, abs=1e-12)


class TestRougeL:
    def test_identical(self):
        assert rouge_l([pair("a b c", "a b c")]) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        assert rouge_l([pair("a b", "c d")]) == 0.0

    def test_lcs_oracle(self):
        # pred "a b c d" vs ref "a c d": LCS 3, P=3/4, R=1 -> F=6/7
        assert rouge_l([pair("a b c d", "a c d")]) == pytest.approx(6 / 7, abs=1e-12)

    def test_recall_only_flag(self):
        assert rouge_l([pair("a b c d", "a c d")], recall_only=True) == pytest.approx(1.0, abs=1e-12)

    def test_best_reference_wins(self):
        assert rouge_l([pair("a b", "z z", "a b")]) == pytest.approx(1.0, abs=1e-12)

    def test_mean_over_samples(self):
        value = rouge_l([pair("a b", "a b"), pair("a", "b")])
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_empty_corpus(self):
        with pytest.raises(UndefinedMetricError):
            rouge_l([])

    @given(a=words, b=words)
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, a, b):
        value = rouge_l([pair(" ".join(a), " ".join(b))])
        assert 0.0 <= value <= 1.0


class TestControlSignals:
    def test_perfect_predictions(self):
        report = control_signal_metrics([SignalPair("a", 2.0, 2.0), SignalPair("b", -1.0, -1.0)])
        assert report.metrics["rmse"] == 0.0
        for tau in DEFAULT_THRESHOLDS:
            assert report.metrics[f"A_{float(tau)}"] == 1.0
        assert report.count == 2

    def test_unit_errors_oracle(self):
        report = control_signal_metrics([SignalPair("a", 1.0, 0.0), SignalPair("b", 0.0, 1.0)])
        assert report.metrics["rmse"] == pytest.approx(1.0, abs=1e-12)
        assert report.metrics["A_0.5"] == 0.0
        assert report.metrics["A_5.0"] == 1.0

    def test_single_error_three(self):
        report = control_signal_metrics([SignalPair("a", 4.0, 1.0)])
        assert report.metrics["rmse"] == pytest.approx(3.0, abs=1e-12)
        assert report.metrics["A_1.0"] == 0.0
        assert report.metrics["A_5.0"] == 1.0

    def test_threshold_strictly_less(self):
        report = control_signal_metrics([SignalPair("a", 1.5, 1.0)], thresholds=(0.5,))
        assert report.metrics["A_0.5"] == 0.0

    def test_monotone_in_tau(self):
        rng = random.Random(11)
        pairs = [SignalPair(str(i), rng.uniform(-5, 5), rng.uniform(-5, 5)) for i in range(50)]
        report = control_signal_metrics(pairs)
        values = [report.metrics[f"A_{float(t)}"] for t in DEFAULT_THRESHOLDS]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(UndefinedMetricError):
            control_signal_metrics([])
        with pytest.raises(InvalidConfigError):
            control_signal_metrics([SignalPair("a", 1.0, 1.0)], thresholds=())
        with pytest.raises(InvalidConfigError):
            control_signal_metrics([SignalPair("a", 1.0, 1.0)], thresholds=(0.0,))

    def test_nan_threshold_is_refused(self):
        # float("nan") parses, but no error is below it, so it is no threshold.
        with pytest.raises(InvalidConfigError):
            control_signal_metrics([SignalPair("a", 1.0, 1.0)], thresholds=(0.5, float("nan")))


class TestBenchmarkAverage:
    def test_fixed_point(self):
        scores = {f"b{i}": 50.0 for i in range(8)}
        scores["OCRBench"] = 500.0
        assert benchmark_average(scores) == pytest.approx(50.0, abs=1e-12)

    def test_single_benchmark(self):
        assert benchmark_average({"OCRBench": 640.0}) == pytest.approx(64.0, abs=1e-12)

    def test_published_rows(self):
        rows = {
            72.8: [48.3, 58.6, 78.9, 81.5, 89.2, 67.0, 788.0, 78.6, 73.9],
            60.6: [36.7, 37.7, 64.1, 72.9, 81.7, 50.9, 754.0, 65.4, 60.7],
            66.8: [36.3, 46.3, 74.1, 76.2, 86.9, 58.9, 784.0, 73.2, 70.9],
        }
        for expected, values in rows.items():
            scores = {f"b{i}": v for i, v in enumerate(values[:6])}
            scores["OCRBench"] = values[6]
            scores.update({f"b{i}": v for i, v in enumerate(values[7:], start=6)})
            assert benchmark_average(scores) == pytest.approx(expected, abs=0.05)

    def test_missing_key_is_config_error(self):
        with pytest.raises(InvalidConfigError):
            benchmark_average({"b1": 50.0})

    def test_custom_key(self):
        assert benchmark_average({"ocr": 100.0, "x": 10.0}, ocrbench_key="ocr") == 10.0


class TestPermutationInvariance:
    def test_randomized_corpora(self):
        rng = random.Random(12)
        vocab = "a b c d e".split()
        for _ in range(25):
            pairs = [
                pair(
                    " ".join(rng.choices(vocab, k=rng.randint(1, 8))),
                    " ".join(rng.choices(vocab, k=rng.randint(1, 8))),
                )
                for _ in range(rng.randint(1, 10))
            ]
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            assert bleu(shuffled, max_n=2) == pytest.approx(bleu(pairs, max_n=2), abs=1e-12)
            assert rouge_l(shuffled) == pytest.approx(rouge_l(pairs), abs=1e-12)
            assert mcq_accuracy(shuffled) == mcq_accuracy(pairs)
