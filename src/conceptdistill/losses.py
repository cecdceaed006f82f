"""Distillation losses over concept-similarity rows.

Two cross-modal signals drive the student: a prototype loss (GPD) that
aligns per-class mean similarity rows between modalities, and a contrastive
loss (LCD) that pulls each student row toward same-class rows from either
modality. Teacher rows always enter as constants; gradients flow only
through the student's tape.

Both losses see rows only through inner products, class means and squared
distances, so they accept any rows of a common width. Training passes the
rows' coordinates on the pool's orthonormal ``basis``, as ``model.forward``
returns them (see ``concepts``): 16 columns instead of 90 for the
generator's default pool, with the same loss values up to rounding.

``gpd_loss``, ``lcd_loss`` and ``total_loss`` (the weighted sum of the
cross-entropy and the terms) are tape operations themselves, each with a
hand-written gradient and ending in ``autodiff._finish``, as ``model``'s
ops do. Each checks its caller's inputs once and builds its class weights
or positive-pair mask itself. ``class_prototypes`` only builds a batch's
constant class-mean weights and the mask of classes present, recording
nothing; ``gpd_loss`` takes both sides' class means and their squared
distance over the classes present in both, and counts those. ``lcd_loss``
works in log space with one pass of exponentials per call; its docstring
has the numerics.
"""

from __future__ import annotations

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
            ad._check_real(name, getattr(self, name))
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


def gpd_loss(a: ClassPrototypes, b: ClassPrototypes) -> tuple[Matrix, int]:
    """Squared L2 distance between class means, averaged over classes present in both.

    One op over both sides' rows: the class means are ``weights @ rows``,
    and the gradient, ``2 (m_a - m_b) / |shared|`` on the shared classes'
    means, maps back through each side's weights. Returns the loss and the
    number of shared classes; with none shared the loss is a constant 0.
    """
    ra, rb = a.rows, b.rows
    if len(a.present) != len(b.present) or ra.cols != rb.cols:
        raise ShapeError(f"gpd_loss: {len(a.present)} classes of width {ra.cols} vs "
                         f"{len(b.present)} of width {rb.cols}")
    shared = a.present & b.present
    n_shared = int(np.count_nonzero(shared))
    if not n_shared:
        return Matrix([[0.0]]), 0
    wa, wb = a.weights, b.weights
    c = 1.0 / n_shared
    d = (wa @ ra.data)[shared] - (wb @ rb.data)[shared]
    a_tracked, b_tracked = ra.tracked, rb.tracked

    def vjp(g):
        half = (g[0, 0] * c) * d
        grad = np.zeros((len(shared), d.shape[1]))
        grad[shared] = half + half
        return (wa.T @ grad if a_tracked else None), (wb.T @ -grad if b_tracked else None)

    return ad._finish("gpd_loss", ((d * d).sum() * c).reshape(1, 1), (ra, rb), vjp), n_shared


def lcd_loss(student_sims, student_labels, teacher_sims, teacher_labels,
             tau: float) -> tuple[Matrix, int]:
    """Supervised contrastive pull between same-class similarity rows, as one op.

    Anchors are student rows. The candidate set of anchor i is every other
    student row plus every teacher row; positives are candidates sharing
    the anchor's class. Each positive p is scored against the candidate
    set minus p itself, and anchors are averaged over those that have at
    least one positive (and at least two candidates, else no denominator
    exists). Returns the loss and the number of skipped anchors; with every
    anchor skipped the loss is a constant 0 and nothing is recorded.

    With ``z = s [s; t]^T / tau`` over the candidate matrix ``[s; t]``, the
    loss is ``sum_i w_i sum_{j positive} (log sum_{q != i, j} exp z_iq - z_ij)``,
    where ``w_i`` is one over anchor i's positive count and over the number
    of active anchors. Positives are counted once per anchor, from the class
    sizes among the candidates, labels numbered densely from 0.

    The sums are taken in log space after a shift by each row's largest
    logit, with one pass of exponentials, so the loss stays finite for any
    positive ``tau``. ``rest_i``, the shifted sum over the candidates other
    than the argmax, is summed directly with the argmax column zeroed, so
    nothing cancels. A positive j other than the argmax uses
    ``rest_i + 1 - exp z_ij``, which keeps the argmax's term of 1 and so is
    >= 1; an argmax positive (on real batches, nearly every anchor's) uses
    ``log rest_i``. Only a row whose ``rest_i`` is below 1e-290 or
    underflows (every other candidate ~668 logits or more below the argmax:
    small ``tau``, long rows) sums its other candidates again, shifted by
    the second-largest logit, from logits computed anew.

    One n x (n + m) buffer carries the op from logits to gradient: the
    pairs' logits are gathered from it before it is overwritten with its
    exponentials, which the VJP scales in place into the gradient. The
    pairs are the positive mask's flat indices, one run per anchor:
    ``searchsorted`` finds where each run starts and which pair, if any, is
    the anchor's argmax; the VJP sums each run with ``np.add.reduceat``. The
    gradient, its argmax column set rather than corrected, maps back by
    ``grad @ [s; t] + grad[:, :n]^T @ s``, and to ``t`` too when tracked.
    So the VJP runs once: a second call raises RuntimeError. These sums
    round differently from a term-by-term evaluation, by ~1e-15 relative.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    s, t = ad.as_matrix(student_sims), ad.as_matrix(teacher_sims)
    if s.cols != t.cols:
        raise ShapeError(f"similarity widths differ: {s.cols} vs {t.cols}")
    ls, lt = (ad._int_labels(v, "lcd_loss") for v in (student_labels, teacher_labels))
    if ls.shape != (s.rows,) or lt.shape != (t.rows,):
        raise ValueError("label vectors must match similarity row counts")
    n, width = s.rows, s.rows + t.rows

    # the candidate columns [student rows; teacher rows], labels coded from 0
    code = np.concatenate([ls, lt])
    code -= code.min(initial=0)
    if code.max(initial=0) >= len(code):  # sparse labels: number them densely
        code = np.unique(code, return_inverse=True)[1]
    per_class = np.bincount(code)
    n_pos = per_class[code[:n]] - 1  # less the anchor itself
    active = (n_pos > 0) & (width >= 3)  # a positive and one more candidate
    n_active = int(np.count_nonzero(active))
    skipped = n - n_active
    if not n_active:
        return Matrix([[0.0]]), skipped
    # anchor i's mask row is its class's row, less the anchor itself
    positive = (np.arange(len(per_class))[:, None] == code)[code[:n]]
    np.fill_diagonal(positive, False)
    # an anchor without positives has an all-false row, so its weight is unused
    weight = 1.0 / np.maximum(n_pos, 1) / n_active
    rows = np.arange(n)
    flat = np.flatnonzero(positive)  # positive pairs, row-major
    sd, td = s.data, t.data
    cand = np.concatenate([sd, td])
    z = (sd / tau) @ cand.T
    z[rows, rows] = -np.inf
    top = z.argmax(axis=1)
    z -= z[rows, top][:, None]  # shifted: row maxima are 0
    zp = z.ravel()[flat]  # the pairs' logits, before z turns into exponentials
    e = np.exp(z, out=z)  # 0 on the self column
    e[rows, top] = 0.0
    rest = e.sum(axis=1)  # shifted sum without the argmax column
    e[rows, top] = 1.0

    starts = np.searchsorted(flat, np.arange(n + 1) * width)  # anchor i's pairs start
    count = starts[1:] - starts[:-1]
    top_cell = rows * width + top
    at = np.searchsorted(flat, top_cell)
    hit = flat.take(at, mode="clip") == top_cell
    at_top, hard, w_hard = at[hit], rows[hit], weight[hit]  # argmax pairs and their anchors
    wp = weight.repeat(count)
    ep = e.ravel()[flat]
    den = (rest + 1.0).repeat(count) - ep  # shifted sum without column j, >= 1
    den[at_top] = 1.0  # the argmax column's sum is rest, taken below
    inv = wp / den
    inv[at_top] = 0.0
    np.log(den, out=den)
    den -= zp
    loss = np.dot(wp, den)

    # rest underflowed, or sums subnormal terms: shift by the second-largest logit
    gone = rest[hard] < 1e-290
    easy, w_easy = hard[~gone], w_hard[~gone]
    loss += np.dot(w_easy, np.log(rest[easy]))
    fall, w_fall = hard[gone], w_hard[gone]
    if fall.size:
        k, top_f = np.arange(fall.size), top[fall]
        zf = (sd[fall] / tau) @ cand.T  # z holds exponentials now: these rows' logits again
        zf -= zf[k, top_f][:, None]
        zf[k, fall] = zf[k, top_f] = -np.inf  # self and argmax
        second = zf.max(axis=1, keepdims=True)
        ef = np.exp(zf - second)
        sum_f = ef.sum(axis=1, keepdims=True)
        loss += np.dot(w_fall, second[:, 0] + np.log(sum_f[:, 0]))
        soft_f = ef / sum_f  # softmax over the candidates without the argmax

    t_tracked = t.tracked

    def vjp(g):
        nonlocal e, ep
        if e is None:
            raise RuntimeError("lcd_loss: gradient already taken; its exponentials are spent")
        grad, e = e, None
        soft = np.zeros(n)  # each anchor's run of pairs, summed
        soft[count > 0] = np.add.reduceat(inv, starts[:-1][count > 0])
        coef = soft.copy()
        coef[easy] += w_easy / rest[easy]
        grad *= coef[:, None]
        # set, not e*coef - w/rest: that difference cancels when rest is tiny
        grad[rows, top] = soft
        ep *= inv  # the pair cells' correction, ep * inv + wp
        ep += wp
        grad.ravel()[flat] -= ep
        if fall.size:
            grad[fall] += w_fall[:, None] * soft_f
        c = g[0, 0] / tau
        # anchors meet anchors twice, as rows and as candidates
        d_s = c * (grad @ cand + grad[:, :n].T @ sd)
        return d_s, (c * (grad[:, n:].T @ sd) if t_tracked else None)

    return ad._finish("lcd_loss", np.array([[loss]]), (s, t), vjp), skipped


def total_loss(cls, gpd, lcd, cfg: DistillConfig) -> Matrix:
    """``cls + (alpha * gpd + beta * lcd)`` of 1 x 1 losses as one op; a None term is left out.

    The weighted terms are summed before ``cls`` is added. With no term the
    result is ``cls`` itself and nothing is recorded.
    """
    cls = ad.as_matrix(cls)
    terms = [(ad.as_matrix(term), float(weight))
             for term, weight in ((gpd, cfg.alpha), (lcd, cfg.beta)) if term is not None]
    if not terms:
        return cls
    weighted = terms[0][0].data * terms[0][1]
    for term, weight in terms[1:]:
        weighted = weighted + term.data * weight
    weights = [w for _, w in terms]  # not the matrices: the tape would then hold itself

    def vjp(g):
        return (g, *(g * w for w in weights))

    return ad._finish("total_loss", cls.data + weighted, (cls, *(t for t, _ in terms)), vjp)
