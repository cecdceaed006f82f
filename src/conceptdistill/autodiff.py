"""Dense float64 matrices with tape-based reverse-mode differentiation.

Every value is a 2-D float64 array; vectors are 1xN matrices. A
:class:`Matrix` shares a float64 ndarray's memory and checks it finite; no
operation writes into an operand. Operations are recorded on a
:class:`Tape` whenever at least one operand is tracked, and
:func:`backward` replays the record in reverse to accumulate exact
adjoints. A tape is meant to live for one forward/backward pass.
``Tape.leaf`` tracks a checked copy; ``Tape.param`` tracks a parameter's
own array unchecked, which the optimizer keeps finite.

The operations are the ones a training step records, one for the model
and one per loss, each with a hand-written gradient: ``concept_model``
(the whole model, features to similarity rows and logits, its parameters
and their gradient one 1 x P row each), ``matmul`` (basis coordinates),
the losses ``softmax_cross_entropy`` (from logits), ``supcon_loss`` and
``class_mean_distance`` (two sets of class means and their squared
distance), and ``loss_sum``, the weighted total of the loss terms. Every
one ends in ``_finish``, which rejects a non-finite result. An op has one
output or two (``concept_model`` returns, and checks itself, the
similarity rows and the logits); ``backward`` hands its VJP one adjoint
per output, None for an output that received none.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{op} produced non-finite entries")


def _int_labels(labels, fn: str) -> np.ndarray:
    """``labels`` as int64; a non-integer dtype raises rather than truncates (empty passes)."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" and labels.size:
        raise ValueError(f"{fn}: labels must have an integer dtype, got {labels.dtype}")
    return labels.astype(np.int64, copy=False)


class Matrix:
    """A rows x cols float64 matrix, optionally recorded on a tape."""

    __slots__ = ("data", "tape", "slot")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"matrix data must be 1-D or 2-D, got shape {arr.shape}")
        _check_finite(arr, "matrix construction")
        self.data = arr
        self.tape: Tape | None = None
        self.slot: int | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, tape: "Tape | None" = None, slot: int | None = None) -> "Matrix":
        m = object.__new__(cls)
        m.data = arr
        m.tape = tape
        m.slot = slot
        return m

    def take_rows(self, idx) -> "Matrix":
        """The rows ``idx`` (1-D indices) as a constant: a fresh array, not checked again."""
        if self.tape is not None:
            raise ValueError("take_rows: cannot gather rows of a tracked matrix")
        rows = self.data[idx]
        if rows.ndim != 2:
            raise ShapeError(f"take_rows: indices must be 1-D, gave shape {rows.shape}")
        return Matrix._wrap(rows)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def tracked(self) -> bool:
        return self.tape is not None

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = f", slot={self.slot}" if self.tracked else ""
        return f"Matrix({self.rows}x{self.cols}{tag})"


class Tape:
    """Execution-ordered record of primitive operations.

    Recording order is the topological order: an operation can only consume
    values that already exist, so a reverse sweep visits every consumer
    before the producer it feeds.
    """

    def __init__(self):
        self._ops: list[tuple[tuple[int, ...], tuple[int | None, ...], Callable]] = []
        self._n_slots = 0

    def _alloc(self) -> int:
        s = self._n_slots
        self._n_slots += 1
        return s

    def leaf(self, data) -> Matrix:
        """Register a tracked, checked copy of ``data`` (a watched value)."""
        m = Matrix(np.array(data.data if isinstance(data, Matrix) else data, dtype=np.float64))
        m.tape, m.slot = self, self._alloc()
        return m

    def param(self, arr: np.ndarray) -> Matrix:
        """Track ``arr`` itself, unchecked: keep it finite and unchanged until ``backward``."""
        if type(arr) is not np.ndarray or arr.dtype != np.float64 or arr.ndim != 2:
            raise ShapeError("param: needs a 2-D float64 ndarray")
        return Matrix._wrap(arr, self, self._alloc())

    def _record(self, out, inputs: tuple[Matrix, ...], vjp: Callable):
        slots = tuple([m.slot if m.tape is self else None for m in inputs])
        if type(out) is tuple:  # one slot per output; the VJP takes an adjoint for each
            outs = tuple([Matrix._wrap(o, self, self._alloc()) for o in out])
            self._ops.append((tuple([m.slot for m in outs]), slots, vjp))
            return outs
        slot = self._alloc()
        self._ops.append(((slot,), slots, vjp))
        return Matrix._wrap(out, self, slot)


def as_matrix(x) -> Matrix:
    return x if isinstance(x, Matrix) else Matrix(x)


def _result_tape(*ms: Matrix) -> Tape | None:
    tape = None
    for m in ms:
        if m.tape is None:
            continue
        if tape is None:
            tape = m.tape
        elif tape is not m.tape:
            raise ValueError("operands are recorded on different tapes")
    return tape


def _finish(op: str, out, inputs: tuple[Matrix, ...], vjp: Callable):
    if type(out) is not tuple:  # a tuple of outputs was checked by its op
        _check_finite(out, op)
    tape = _result_tape(*inputs)
    if tape is None:
        return tuple([Matrix._wrap(o) for o in out]) if type(out) is tuple else Matrix._wrap(out)
    return tape._record(out, inputs, vjp)


def matmul(a, b) -> Matrix:
    a, b = as_matrix(a), as_matrix(b)
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    a_tracked, b_tracked = a.tracked, b.tracked

    def vjp(g):
        # an untracked operand's adjoint would be dropped by backward
        return (g @ bd.T if a_tracked else None), (ad.T @ g if b_tracked else None)

    return _finish("matmul", ad @ bd, (a, b), vjp)


def concept_model(features, params, arrays, unit_t) -> tuple[Matrix, Matrix]:
    """A whole concept model as one op: ``features`` to similarity rows and logits.

    ``params`` is a 1 x P row; ``arrays``, its layout, is a list of views that
    tile it (each encoder layer's weight and bias, then the classifier's), as
    ``ModelParams`` holds them. Encoder layers ``x @ w + b`` have tanh between
    them; their unit-length rows (a row of norm <= 1e-12 scores 0 and passes
    no adjoint) are scored against the constant unit columns ``unit_t`` and
    classified. Each stage checks its shapes and result under its own name.
    The VJP writes each parameter's gradient into its span of a fresh 1 x P row.
    """
    x, p, unit_t = as_matrix(features), as_matrix(params), as_matrix(unit_t)
    for name, m in (("features", x), ("unit_t", unit_t)):
        if m.tracked:  # rejected rather than given no adjoint
            raise ValueError(f"concept_model: {name} must be a constant")
    ends = [0, *accumulate([a.size for a in arrays])]
    row = p.data if p.data.base is None else p.data.base
    if (p.rows != 1 or ends[-1] != p.cols or len(arrays) < 4 or len(arrays) % 2
            or any([a.base is not row for a in arrays])):
        raise ShapeError(f"concept_model: {[a.shape for a in arrays]} do not tile {p.shape}")
    n_enc = len(arrays) // 2 - 1
    h, layer_in = x.data, []
    for i in range(n_enc):
        w, b = arrays[2 * i], arrays[2 * i + 1]
        if h.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
            raise ShapeError(f"affine: {h.shape} x {w.shape} + {b.shape}")
        layer_in.append(h if p.tracked else None)  # a constant forward keeps no layer
        h = h @ w + b
        _check_finite(h, "affine")
        if i < n_enc - 1:
            h = np.tanh(h)
            _check_finite(h, "tanh")
    td = unit_t.data
    if h.shape[1] != td.shape[0]:
        raise ShapeError(f"cosine_similarity: {h.shape} x {td.shape}")
    # what np.linalg.norm(h, axis=1) evaluates for real input, without its wrapper
    norms = np.sqrt(np.add.reduce(h * h, axis=1, keepdims=True))
    safe = np.maximum(norms, 1e-12)
    dead = (norms[:, 0] <= 1e-12).nonzero()[0]
    unit = np.divide(h, safe, out=h)  # in place: h is this op's own array
    if dead.size:
        unit[dead] = 0.0
    sims = unit @ td
    _check_finite(sims, "cosine_similarity")
    cw, cb = arrays[-2], arrays[-1]
    if sims.shape[1] != cw.shape[0] or cb.shape != (1, cw.shape[1]):
        raise ShapeError(f"affine: {sims.shape} x {cw.shape} + {cb.shape}")
    logits = sims @ cw + cb
    _check_finite(logits, "affine")

    def vjp(g_sims, g_logits):
        # matmuls and column sums into the spans; the classifier's stays 0 without logits
        grad = np.empty(ends[-1]) if g_logits is not None else np.zeros(ends[-1])
        g = g_sims
        if g_logits is not None:
            np.matmul(sims.T, g_logits, out=grad[ends[-3]:ends[-2]].reshape(cw.shape))
            np.add.reduce(g_logits, axis=0, out=grad[ends[-2]:])
            g = g_logits @ cw.T
            if g_sims is not None:
                g += g_sims  # the distill path's adjoint of the similarity rows
        g = g @ td.T
        dot = np.add.reduce(g * unit, axis=1, keepdims=True)
        g = (g - unit * dot) / safe
        if dead.size:
            g[dead] = 0.0
        for i in reversed(range(n_enc)):
            a, (lo, mid, hi) = layer_in[i], ends[2 * i:2 * i + 3]
            np.matmul(a.T, g, out=grad[lo:mid].reshape(arrays[2 * i].shape))
            np.add.reduce(g, axis=0, out=grad[mid:hi])
            if i:
                g = (g @ arrays[2 * i].T) * (1.0 - a * a)  # a is the tanh before layer i
        return None, grad.reshape(1, -1), None

    return _finish("concept_model", (sims, logits), (x, p, unit_t), vjp)


def softmax_cross_entropy(logits, labels) -> Matrix:
    """Mean over rows of ``log sum_k exp z_ik - z_i,labels_i``: cross-entropy from logits.

    Each row is shifted by its largest logit before the exponentials, so the
    sum inside the log is >= 1, nothing overflows, and a true class whose
    probability rounds to zero still gets its full loss and gradient. The
    gradient is written out by hand: ``(softmax - onehot) / n``.
    """
    z = as_matrix(logits)
    labels = _int_labels(labels, "softmax_cross_entropy")
    if labels.shape != (z.rows,):
        raise ValueError(f"labels must be 1-D of length {z.rows}")
    if labels.min() < 0 or labels.max() >= z.cols:
        raise ValueError(f"label outside [0, {z.cols})")
    n = z.rows
    rows = np.arange(n)
    shifted = z.data - z.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    # np.mean's own arithmetic, without its wrapper
    loss = np.add.reduce(np.log(total[:, 0]) - shifted[rows, labels]) / n

    def vjp(g):
        grad = e / total
        grad[rows, labels] -= 1.0
        return (grad * (g[0, 0] / n),)

    return _finish("softmax_cross_entropy", np.array([[loss]]), (z,), vjp)


def supcon_loss(anchors, others, positive, anchor_weight, tau: float) -> Matrix:
    """Weighted supervised-contrastive loss of ``anchors`` against ``[anchors; others]``.

    With ``z = anchors [anchors; others]^T / tau``, the candidates of anchor
    i are the columns of row i except i itself, and the loss is
    ``-sum_i anchor_weight_i sum_{j positive} (z_ij - log sum_{q != i, j} exp z_iq)``:
    each positive pair (i, j) scores candidate j against every other
    candidate of anchor i. ``positive`` is an n x (n + m) boolean mask,
    false on the diagonal of its first n columns; an anchor with a positive
    needs two candidates or more, so a positive with n + m < 3 is rejected.
    With no positive at all the loss is 0 and no gradient flows.

    The sums are taken in log space after a shift by each row's largest
    logit, with one pass of exponentials. ``rest_i``, the shifted sum over
    the candidates other than the argmax, is summed directly with the
    argmax column zeroed, so nothing cancels. A positive j other than the
    argmax uses ``rest_i + 1 - exp z_ij``, which keeps the argmax's term of
    1 and so is >= 1; an argmax positive uses ``log rest_i``. Only a row
    whose ``rest_i`` is below 1e-290 or underflows (every other candidate
    ~668 logits or more below the argmax) sums its other candidates again,
    shifted by the second-largest logit, from logits computed anew.

    One n x (n + m) buffer carries the op from logits to gradient: the
    pairs' logits are gathered from it before it is overwritten with its
    exponentials, which the VJP scales in place into the gradient. The
    pairs are the mask's flat indices, one run per anchor: ``searchsorted``
    finds where each run starts and which pair, if any, is the anchor's
    argmax; the VJP sums each run with ``np.add.reduceat``. The gradient,
    its argmax column set rather than corrected, maps back by
    ``grad @ [anchors; others] + grad[:, :n]^T @ anchors``, and to
    ``others`` too when tracked. So the VJP runs once: a second call raises
    RuntimeError. These sums round differently from a term-by-term
    evaluation, by ~1e-15 relative.
    """
    s, t = as_matrix(anchors), as_matrix(others)
    if tau <= 0:
        raise ValueError(f"supcon_loss: tau must be positive, got {tau}")
    if s.cols != t.cols:
        raise ShapeError(f"supcon_loss: row widths differ: {s.cols} vs {t.cols}")
    n, width = s.rows, s.rows + t.rows
    positive = np.asarray(positive, dtype=bool)
    weight = np.asarray(anchor_weight, dtype=np.float64)
    if positive.shape != (n, width) or weight.shape != (n,):
        raise ShapeError(f"supcon_loss: need an {(n, width)} mask and {n} anchor weights")
    rows = np.arange(n)
    if positive.diagonal().any():
        raise ValueError("supcon_loss: an anchor cannot be its own positive")
    flat = np.flatnonzero(positive)  # positive pairs, row-major
    if not flat.size:  # nothing to score; a lone anchor's row would be all -inf
        return _finish("supcon_loss", np.zeros((1, 1)), (s, t), lambda g: (None, None))
    if width < 3:
        raise ValueError("supcon_loss: an anchor with a positive needs two candidates or more")
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
            raise RuntimeError("supcon_loss: gradient already taken; its exponentials are spent")
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

    return _finish("supcon_loss", np.array([[loss]]), (s, t), vjp)


def class_mean_distance(a_weight, a, b_weight, b, shared) -> Matrix:
    """Mean over the ``shared`` classes c of ``||(a_weight @ a)_c - (b_weight @ b)_c||^2``.

    The weights are constant arrays, C x rows of ``a`` and of ``b``: row c
    of ``a_weight`` averages class c's rows of ``a`` into its mean.
    ``shared`` is a boolean mask over the C classes; with none shared the
    result is a constant 0. The gradient is written out by hand:
    ``2 (m_a - m_b) / |shared|`` on the shared classes' means, mapped back
    through each side's weights.
    """
    a, b = as_matrix(a), as_matrix(b)
    wa, wb = np.asarray(a_weight, dtype=np.float64), np.asarray(b_weight, dtype=np.float64)
    shared = np.asarray(shared)
    if shared.dtype != bool or shared.ndim != 1:
        raise ShapeError("class_mean_distance: shared must be a 1-D boolean mask")
    if wa.shape != (len(shared), a.rows) or wb.shape != (len(shared), b.rows) or a.cols != b.cols:
        raise ShapeError(f"class_mean_distance: {wa.shape} x {a.shape} vs {wb.shape} x {b.shape}"
                         f" over {len(shared)} classes")
    if not shared.any():
        return Matrix._wrap(np.zeros((1, 1)))
    c = 1.0 / np.count_nonzero(shared)
    d = (wa @ a.data)[shared] - (wb @ b.data)[shared]
    a_tracked, b_tracked = a.tracked, b.tracked

    def vjp(g):
        half = (g[0, 0] * c) * d
        grad = np.zeros((len(shared), d.shape[1]))
        grad[shared] = half + half
        return (wa.T @ grad if a_tracked else None), (wb.T @ -grad if b_tracked else None)

    return _finish("class_mean_distance", ((d * d).sum() * c).reshape(1, 1), (a, b), vjp)


def loss_sum(base, terms) -> Matrix:
    """``base + (w_1 * t_1 + ... + w_n * t_n)`` of 1x1 losses, for ``terms`` of ``(t_i, w_i)``.

    The weighted terms are summed left to right before ``base`` is added.
    """
    base = as_matrix(base)
    terms = [(as_matrix(t), float(w)) for t, w in terms]
    if not terms:
        raise ValueError("loss_sum: no terms")
    if any(m.shape != (1, 1) for m in (base, *(t for t, _ in terms))):
        raise ShapeError("loss_sum: every operand must be a 1x1 loss")
    weighted = terms[0][0].data * terms[0][1]
    for t, w in terms[1:]:
        weighted = weighted + t.data * w
    weights = [w for _, w in terms]  # not the matrices: the tape would then hold itself

    def vjp(g):
        return (g, *(g * w for w in weights))

    return _finish("loss_sum", base.data + weighted, (base, *(t for t, _ in terms)), vjp)


def backward(tape: Tape, loss: Matrix) -> list[np.ndarray | None]:
    """Reverse sweep from a scalar loss; returns the adjoints as a list indexed by slot.

    The sweep accumulates into that list. A slot that received no adjoint
    (an unreached leaf) holds None; callers treat it as a zero gradient. An
    op whose outputs all hold None is skipped.
    """
    if loss.tape is not tape or loss.slot is None:
        raise ValueError("loss is not recorded on this tape")
    if loss.shape != (1, 1):
        raise ShapeError(f"loss must be a 1x1 scalar, got {loss.shape}")
    adjoints: list[np.ndarray | None] = [None] * tape._n_slots
    adjoints[loss.slot] = np.ones((1, 1))
    for out_slots, in_slots, vjp in reversed(tape._ops):
        gs = [adjoints[s] for s in out_slots]
        if gs[0] is None and gs[-1] is None:  # an op has one output or two
            continue
        for s, contrib in zip(in_slots, vjp(*gs)):
            if s is None or contrib is None:
                continue
            prev = adjoints[s]
            adjoints[s] = contrib if prev is None else prev + contrib
    return adjoints
