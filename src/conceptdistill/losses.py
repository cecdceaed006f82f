"""Distillation losses over concept-similarity rows.

Two cross-modal signals drive the student: a prototype loss (GPD) that
aligns per-class mean similarity rows between modalities, and a contrastive
loss (LCD) that pulls each student row toward same-class rows from either
modality. Teacher rows always enter as constants; gradients flow only
through the student's tape.

Both losses see rows only through inner products, class means and squared
distances, so they accept any rows of a common width. Training passes
coordinates on the pool's orthonormal ``basis`` (``rows @ pool.basis``, see
``concepts``): 16 columns instead of 90 for the generator's default pool,
with the same loss values up to rounding.

Each loss is one autodiff operation with a hand-written gradient.
``class_prototypes`` only builds a batch's constant class-mean weights and
the mask of classes present, recording nothing; ``gpd_loss`` hands both
sides' weights and rows, with the classes present in both, to
``autodiff.class_mean_distance``, which takes the class means and their
squared distance in one op. ``lcd_loss`` counts each anchor's positives
once, from the class sizes among the candidates, builds the positive-pair
mask and anchor weights, and hands them to ``autodiff.supcon_loss``, which
works in log space with one pass of exponentials per call. When an
anchor's most similar candidate is itself a positive (on real batches,
nearly every anchor), its denominator is the shifted row sum with that
candidate's column zeroed, summed directly rather than subtracted from the
full sum. Only when that sum falls below 1e-290, with every other candidate
~668 logits or more below the best one (small ``tau``, long rows), are the
other candidates summed again, shifted by the second-largest logit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, ShapeError


@dataclass
class DistillConfig:
    alpha: float = 0.6  # prototype-loss weight
    beta: float = 0.05  # contrastive-loss weight
    tau: float = 10.0  # contrastive temperature

    def __post_init__(self):
        for name in ("alpha", "beta", "tau"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")


@dataclass
class ClassPrototypes:
    """A batch's per-class mean rows, kept as constant weights over its rows."""

    weights: np.ndarray  # C x B: row c averages class c's rows; zero where c is absent
    present: np.ndarray  # bool per class
    rows: Matrix  # the batch's rows, B x N


def class_prototypes(similarity, labels, num_classes: int) -> ClassPrototypes:
    """Per-class mean weights over the batch's rows (no op recorded); absent classes masked."""
    sim = ad.as_matrix(similarity)
    labels = ad._int_labels(labels, "class_prototypes")
    if labels.ndim != 1 or labels.shape[0] != sim.rows:
        raise ValueError(f"labels must be 1-D of length {sim.rows}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"label outside [0, {num_classes})")
    indicator = np.zeros((num_classes, sim.rows))
    indicator[labels, np.arange(sim.rows)] = 1.0
    counts = indicator.sum(axis=1)
    return ClassPrototypes(indicator / np.maximum(counts, 1.0)[:, None], counts > 0, sim)


def gpd_loss(a: ClassPrototypes, b: ClassPrototypes) -> Matrix:
    """Squared L2 distance between class means, averaged over classes present in both."""
    return ad.class_mean_distance(a.weights, a.rows, b.weights, b.rows, a.present & b.present)


def lcd_loss(student_sims, student_labels, teacher_sims, teacher_labels,
             tau: float) -> tuple[Matrix, int]:
    """Supervised contrastive pull between same-class similarity rows.

    Anchors are student rows. The candidate set of anchor i is every other
    student row plus every teacher row; positives are candidates sharing
    the anchor's class. Each positive p is scored against the candidate
    set minus p itself, and anchors are averaged over those that have at
    least one positive (and at least two candidates, else no denominator
    exists). Returns the loss and the number of skipped anchors.

    The whole loss is one ``autodiff.supcon_loss`` call over the candidate
    matrix ``[student; teacher]``: every log-denominator is a max-shifted
    log-sum-exp, so it stays finite for any positive ``tau``, however much
    one candidate dominates the rest.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    s = ad.as_matrix(student_sims)
    t = ad.as_matrix(teacher_sims)
    if s.cols != t.cols:
        raise ShapeError(f"similarity widths differ: {s.cols} vs {t.cols}")
    ls, lt = (ad._int_labels(v, "lcd_loss") for v in (student_labels, teacher_labels))
    if ls.shape != (s.rows,) or lt.shape != (t.rows,):
        raise ValueError("label vectors must match similarity row counts")
    n_s, n_t = s.rows, t.rows

    # the candidate columns [student rows; teacher rows], labels coded from 0
    code = np.concatenate([ls, lt])
    code -= code.min(initial=0)
    if code.max(initial=0) >= len(code):  # sparse labels: number them densely
        code = np.unique(code, return_inverse=True)[1]
    per_class = np.bincount(code)
    n_pos = per_class[code[:n_s]] - 1  # less the anchor itself
    active = (n_pos > 0) & ((n_s - 1) + n_t >= 2)
    n_active = int(np.count_nonzero(active))
    skipped = n_s - n_active
    if not n_active:
        return Matrix([[0.0]]), skipped
    # anchor i's mask row is its class's row, less the anchor itself
    positive = (np.arange(len(per_class))[:, None] == code)[code[:n_s]]
    np.fill_diagonal(positive, False)
    # an anchor without positives has an all-false row, so its weight is unused
    anchor_weight = 1.0 / np.maximum(n_pos, 1) / n_active
    return ad.supcon_loss(s, t, positive, anchor_weight, tau), skipped


def total_loss(cls, gpd, lcd, cfg: DistillConfig) -> Matrix:
    """cls + (alpha * gpd + beta * lcd) as one op; a term passed as None is left out."""
    cls = ad.as_matrix(cls)
    terms = [(term, weight) for term, weight in ((gpd, cfg.alpha), (lcd, cfg.beta))
             if term is not None]
    return ad.loss_sum(cls, terms) if terms else cls
