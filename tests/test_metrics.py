import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistill.metrics import (
    METRIC_NAMES,
    ConfusionCounts,
    average_precision,
    confusion_counts,
    macro_report,
    per_class_average_precision,
    per_class_metrics,
)


# ---------------------------------------------------------------------------
# Independent oracles: literal formula evaluation with explicit branches,
# kept free of numpy vectorization so they cannot share bugs with the
# implementation under test.
# ---------------------------------------------------------------------------

def oracle_rates(tp, fp, tn, fn):
    def div(n, d):
        return n / d if d != 0 else 0.0

    precision = div(tp, tp + fp)
    recall = div(tp, tp + fn)
    specificity = 1.0 if tn + fp == 0 else tn / (tn + fp)
    pr_f1 = div(2 * precision * recall, precision + recall)
    ss_f1 = div(2 * recall * specificity, recall + specificity)
    accuracy = div(tp + tn, tp + fp + tn + fn)
    kappa = div(2 * (tp * tn - fp * fn), (tp + fp) * (fp + tn) + (tp + fn) * (fn + tn))
    return {
        "precision": precision,
        "recall": recall,
        "specificity": specificity,
        "pr_f1": pr_f1,
        "ss_f1": ss_f1,
        "accuracy": accuracy,
        "kappa": kappa,
    }


def oracle_average_precision(scores, positives):
    """AP by exhaustive precision-recall point enumeration over rank prefixes."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    total_pos = sum(positives)
    ap = 0.0
    prev_recall = 0.0
    for k in range(1, n + 1):
        prefix = order[:k]
        tp = sum(1 for i in prefix if positives[i])
        precision = tp / k
        recall = tp / total_pos
        if recall > prev_recall:
            ap += precision * (recall - prev_recall)
            prev_recall = recall
    return ap


class TestConfusionCounts:
    def test_perfect_predictions(self):
        c = confusion_counts([0, 1, 2], [0, 1, 2], 3)
        assert np.all(c.fp == 0) and np.all(c.fn == 0)
        np.testing.assert_array_equal(c.tp, [1, 1, 1])

    def test_all_predicted_class_zero(self):
        actual = [0] * 5 + [1] * 5
        c = confusion_counts([0] * 10, actual, 2)
        assert (c.tp[0], c.fp[0], c.tn[0], c.fn[0]) == (5, 5, 0, 0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            confusion_counts([], [], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion_counts([0, 3], [0, 1], 3)

    def test_labels_must_be_integers(self):
        # a cast to int64 would count 1.7 as class 1
        for predicted, actual in (([0, 1.7], [0, 1]), ([0, 1], [0.0, 1.0]), ([0, 1], [False, True])):
            with pytest.raises(ValueError, match="confusion_counts: .* integer dtype"):
                confusion_counts(predicted, actual, 2)

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 4, 50)
        act = rng.integers(0, 4, 50)
        c = confusion_counts(pred, act, 4)
        np.testing.assert_array_equal(c.tp + c.fp + c.tn + c.fn, 50)


    def test_matches_masked_counts(self):
        # classes 4 and 5 never predicted, class 2 never actual
        rng = np.random.default_rng(8)
        pred = rng.integers(0, 4, 200)
        act = rng.choice([0, 1, 3, 4, 5], 200)
        c = confusion_counts(pred, act, 6)
        for k in range(6):
            p, a = pred == k, act == k
            assert (c.tp[k], c.fp[k], c.tn[k], c.fn[k]) == (
                np.sum(p & a), np.sum(p & ~a), np.sum(~p & ~a), np.sum(~p & a))
        assert c.tp.dtype == np.int64 and c.tn.dtype == np.int64


class TestPerClassMetrics:
    def test_balanced_example(self):
        c = ConfusionCounts(*(np.array([v]) for v in (40, 10, 40, 10)))
        m = per_class_metrics(c)
        for name in ("precision", "recall", "specificity", "pr_f1", "ss_f1", "accuracy"):
            assert m[name][0] == pytest.approx(0.8)
        assert m["kappa"][0] == pytest.approx(0.6)

    def test_degenerate_conventions(self):
        c = ConfusionCounts(*(np.array([v]) for v in (0, 0, 7, 0)))
        m = per_class_metrics(c)
        assert m["precision"][0] == 0.0
        assert m["recall"][0] == 0.0
        assert m["pr_f1"][0] == 0.0
        assert m["specificity"][0] == 1.0
        assert m["accuracy"][0] == 1.0

    def test_perfect_agreement_kappa(self):
        c = ConfusionCounts(*(np.array([v]) for v in (6, 0, 6, 0)))
        assert per_class_metrics(c)["kappa"][0] == pytest.approx(1.0)

    def test_exhaustive_sweep_matches_oracle(self):
        values = range(6)
        cases = list(itertools.product(values, repeat=4))
        tp, fp, tn, fn = (np.array([c[i] for c in cases]) for i in range(4))
        got = per_class_metrics(ConfusionCounts(tp, fp, tn, fn))
        for idx, case in enumerate(cases):
            want = oracle_rates(*case)
            for name, val in want.items():
                assert got[name][idx] == pytest.approx(val, abs=0), (case, name)

    def test_kappa_antisymmetry_where_formula_permits(self):
        # swapping predicted positive/negative maps (tp,fp,tn,fn) -> (fn,tn,fp,tp);
        # the denominators coincide exactly when |fp-fn| == |tp-tn|
        for case in itertools.product(range(6), repeat=4):
            tp, fp, tn, fn = case
            den = (tp + fp) * (fp + tn) + (tp + fn) * (fn + tn)
            if den == 0 or abs(fp - fn) != abs(tp - tn):
                continue
            k = oracle_rates(tp, fp, tn, fn)["kappa"]
            k_swapped = per_class_metrics(
                ConfusionCounts(*(np.array([v]) for v in (fn, tn, fp, tp)))
            )["kappa"][0]
            assert k_swapped == pytest.approx(-k, abs=1e-12)


class TestAveragePrecision:
    def test_all_positives_first(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_interleaved(self):
        ap = average_precision([0.9, 0.8, 0.7, 0.6], [True, False, True, False])
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_single_positive_last(self):
        n = 7
        scores = list(np.linspace(1.0, 0.1, n))
        positives = [False] * (n - 1) + [True]
        assert average_precision(scores, positives) == pytest.approx(1.0 / n)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            average_precision([0.5, 0.4], [False, False])

    def test_ties_broken_by_lower_index(self):
        # identical scores: prefix order is input order
        ap = average_precision([0.5, 0.5, 0.5], [0, 1, 0])
        assert ap == pytest.approx(oracle_average_precision([0.5, 0.5, 0.5], [0, 1, 0]))

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            scores = rng.uniform(0, 1, n)
            if rng.random() < 0.3:  # force score ties sometimes
                scores = np.round(scores, 1)
            positives = rng.random(n) < 0.4
            if not positives.any():
                positives[int(rng.integers(0, n))] = True
            got = average_precision(scores, positives)
            want = oracle_average_precision(list(scores), list(positives))
            assert got == pytest.approx(want, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_monotone_score_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        scores = rng.uniform(-3, 3, n)
        positives = rng.random(n) < 0.5
        if not positives.any():
            positives[0] = True
        base = average_precision(scores, positives)
        for transform in (lambda s: 2.0 * s + 1.0, np.tanh, lambda s: s ** 3):
            assert average_precision(transform(scores), positives) == pytest.approx(base, abs=1e-12)


class TestMeanAveragePrecision:
    def test_perfect_classifier(self):
        actual = [0, 1, 2, 0]
        probs = np.eye(3)[actual]
        assert macro_report(probs, actual, actual, 3).macro["average_precision"] == 1.0

    def test_mean_of_two(self):
        # class 0 AP 1.0 (its positive ranked first), class 1 AP 0.5 by construction
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
        actual = [0, 1, 1]
        aps, skipped = per_class_average_precision(probs, actual)
        assert skipped == []
        got = macro_report(probs, probs.argmax(axis=1), actual, 2).macro["average_precision"]
        assert got == pytest.approx((aps[0] + aps[1]) / 2.0)

    def test_skipped_class_reported(self):
        probs = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])
        aps, skipped = per_class_average_precision(probs, [0, 1])
        assert skipped == [2]
        assert set(aps) == {0, 1}

    def test_labels_must_be_integers(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match="per_class_average_precision: .* integer dtype"):
            per_class_average_precision(probs, [0.0, 1.4])

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, c = int(rng.integers(5, 25)), 3
            probs = rng.dirichlet(np.ones(c), size=n)
            actual = rng.integers(0, c, n)
            aps, _ = per_class_average_precision(probs, actual)
            for cls, ap in aps.items():
                want = oracle_average_precision(list(probs[:, cls]), list(actual == cls))
                assert ap == pytest.approx(want, abs=1e-12)


class TestMacroReport:
    def test_perfect_predictions_all_ones(self):
        actual = np.array([0, 1, 2, 0, 1, 2])
        probs = np.eye(3)[actual]
        report = macro_report(probs, actual, actual, 3)
        for metric, value in report.macro.items():
            assert value == pytest.approx(1.0), metric

    def test_macro_is_mean_of_per_class(self):
        rng = np.random.default_rng(9)
        probs = rng.dirichlet(np.ones(4), size=60)
        actual = rng.integers(0, 4, 60)
        predicted = probs.argmax(axis=1)
        report = macro_report(probs, predicted, actual, 4)
        for metric in report.macro:
            vals = [report.per_class[n][metric] for n in report.class_names]
            assert report.macro[metric] == pytest.approx(np.mean(vals), abs=1e-12)

    def test_random_binary_kappa_near_zero(self):
        rng = np.random.default_rng(1234)
        n = 1000
        actual = np.array([0, 1] * (n // 2))
        predicted = rng.integers(0, 2, n)
        probs = np.eye(2)[predicted]
        report = macro_report(probs, predicted, actual, 2)
        assert abs(report.macro["kappa"]) < 0.1

    def test_table_shape_nine_classes(self):
        rng = np.random.default_rng(2)
        names = ["normal", "dAMD", "CSC", "DR", "GLC", "MEM", "MYO", "RVO", "wAMD"]
        actual = rng.integers(0, 9, 90)
        probs = rng.dirichlet(np.ones(9), size=90)
        report = macro_report(probs, probs.argmax(axis=1), actual, 9, class_names=names)
        assert report.class_names == names
        assert list(report.per_class) == names
        assert all(set(row) == set(METRIC_NAMES) for row in report.per_class.values())
        assert set(report.macro) == set(METRIC_NAMES)

    def test_narrower_probabilities_rejected(self):
        # two columns for three classes used to report class 2's AP as 0.0,
        # without listing it as skipped
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
        actual = [0, 1, 2]
        with pytest.raises(ValueError, match=r"num_classes = 3 columns, got shape \(3, 2\)"):
            macro_report(probs, actual, actual, 3)

    def test_wider_probabilities_rejected(self):
        # four columns for three classes used to raise IndexError
        probs = np.full((3, 4), 0.25)
        actual = [0, 1, 2]
        with pytest.raises(ValueError, match=r"num_classes = 3 columns, got shape \(3, 4\)"):
            macro_report(probs, actual, actual, 3)
