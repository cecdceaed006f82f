"""Per-class and macro classification metrics.

Eight metrics per class from one-vs-rest confusion counts: precision,
recall, specificity, precision-recall F1, sensitivity-specificity F1,
accuracy, kappa, and average precision. Macro values are unweighted means
over classes. Division conventions: 0/0 yields 0 everywhere except
specificity, which yields 1 when there are no actual negatives.

``macro_report`` returns the values as plain float dicts, per class and
macro; the report has no text or JSON form of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import _int_labels

METRIC_NAMES = (
    "precision",
    "recall",
    "specificity",
    "pr_f1",
    "ss_f1",
    "accuracy",
    "kappa",
    "average_precision",
)


@dataclass
class ConfusionCounts:
    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray


def confusion_counts(predicted, actual, num_classes: int) -> ConfusionCounts:
    predicted, actual = (_int_labels(v, "confusion_counts") for v in (predicted, actual))
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise ValueError(
            f"predicted and actual must be equal-length 1-D, got {predicted.shape} and {actual.shape}"
        )
    if predicted.size == 0:
        raise ValueError("empty label vectors")
    for name, v in (("predicted", predicted), ("actual", actual)):
        if v.min() < 0 or v.max() >= num_classes:
            raise ValueError(f"{name} labels outside [0, {num_classes})")
    # confusion matrix, rows actual and columns predicted
    matrix = np.bincount(actual * num_classes + predicted, minlength=num_classes ** 2)
    matrix = matrix.reshape(num_classes, num_classes)
    tp = np.diagonal(matrix).copy()
    fp = matrix.sum(axis=0) - tp
    fn = matrix.sum(axis=1) - tp
    return ConfusionCounts(tp, fp, predicted.size - tp - fp - fn, fn)


def _ratio(num, den):
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den != 0)
    return out


def per_class_metrics(counts: ConfusionCounts) -> dict[str, np.ndarray]:
    """Rate metrics per class; average precision needs scores, see macro_report."""
    tp = counts.tp.astype(np.float64)
    fp = counts.fp.astype(np.float64)
    tn = counts.tn.astype(np.float64)
    fn = counts.fn.astype(np.float64)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    # no actual negatives means nothing to misclassify as positive
    specificity = np.where(tn + fp == 0, 1.0, _ratio(tn, tn + fp))
    pr_f1 = _ratio(2.0 * precision * recall, precision + recall)
    ss_f1 = _ratio(2.0 * recall * specificity, recall + specificity)
    accuracy = _ratio(tp + tn, tp + fp + tn + fn)
    kappa = _ratio(
        2.0 * (tp * tn - fp * fn),
        (tp + fp) * (fp + tn) + (tp + fn) * (fn + tn),
    )
    return {
        "precision": precision,
        "recall": recall,
        "specificity": specificity,
        "pr_f1": pr_f1,
        "ss_f1": ss_f1,
        "accuracy": accuracy,
        "kappa": kappa,
    }


def average_precision(scores, positives) -> float:
    """Non-interpolated area under the precision-recall curve.

    Samples are ranked by descending score, ties broken by lower index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape or scores.ndim != 1:
        raise ValueError("scores and positives must be equal-length 1-D")
    n_pos = int(positives.sum())
    if n_pos == 0:
        raise ValueError("average_precision: no positive samples")
    order = np.argsort(-scores, kind="stable")
    hits = positives[order]
    ranks = np.arange(1, len(scores) + 1, dtype=np.float64)
    precision_at = np.cumsum(hits) / ranks
    return float(precision_at[hits].sum() / n_pos)


def per_class_average_precision(probabilities, actual) -> tuple[dict[int, float], list[int]]:
    """AP per class with >=1 positive; classes without positives are reported as skipped."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    actual = _int_labels(actual, "per_class_average_precision")
    if probabilities.ndim != 2 or probabilities.shape[0] != actual.shape[0]:
        raise ValueError("probabilities must be BxC aligned with actual labels")
    aps: dict[int, float] = {}
    skipped: list[int] = []
    for c in range(probabilities.shape[1]):
        pos = actual == c
        if not pos.any():
            skipped.append(c)
            continue
        aps[c] = average_precision(probabilities[:, c], pos)
    return aps, skipped


@dataclass
class MetricsReport:
    class_names: list[str]
    per_class: dict[str, dict[str, float]]
    macro: dict[str, float]
    skipped_classes: list[str] = field(default_factory=list)


def macro_report(probabilities, predicted, actual, num_classes: int,
                 class_names: list[str] | None = None) -> MetricsReport:
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.ndim != 2 or probabilities.shape[1] != num_classes:
        raise ValueError(f"probabilities must have num_classes = {num_classes} columns, "
                         f"got shape {probabilities.shape}")
    if class_names is None:
        class_names = [f"class_{c}" for c in range(num_classes)]
    if len(class_names) != num_classes:
        raise ValueError("class_names length must equal num_classes")
    if len(set(class_names)) != num_classes:  # per_class would fold two classes into one key
        raise ValueError(f"class_names must be distinct, got {list(class_names)!r}")
    if not np.isfinite(probabilities).all():  # average_precision would rank NaN arbitrarily
        raise ValueError("probabilities must be finite")
    rates = per_class_metrics(confusion_counts(predicted, actual, num_classes))
    aps, skipped = per_class_average_precision(probabilities, actual)

    per_class: dict[str, dict[str, float]] = {}
    for c, name in enumerate(class_names):
        per_class[name] = {m: float(rates[m][c]) for m in rates}
        per_class[name]["average_precision"] = float(aps.get(c, 0.0))
    macro = {
        m: float(np.mean([per_class[name][m] for name in class_names]))
        for m in METRIC_NAMES
    }
    # mAP averages only classes that have positives; other macros keep all classes
    if aps:
        macro["average_precision"] = float(np.mean(list(aps.values())))
    return MetricsReport(
        class_names=list(class_names),
        per_class=per_class,
        macro=macro,
        skipped_classes=[class_names[c] for c in skipped],
    )
