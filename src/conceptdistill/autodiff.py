"""Dense float64 matrices with tape-based reverse-mode differentiation.

Every value is a 2-D row-major array; vectors are 1xN matrices. Operations
are recorded on a :class:`Tape` whenever at least one operand is tracked,
and :func:`backward` replays the record in reverse to accumulate exact
adjoints. A tape is meant to live for one forward/backward pass.

The operations are the ones a training step records: ``matmul``, ``add``
(of an equal-shaped matrix or of one bias row), ``scale``, ``tanh`` and
``l2_normalize_rows``, plus three losses with hand-written gradients:
``softmax_cross_entropy`` (from logits), ``supcon_loss`` and
``mean_sq_row_distance``. Every one ends in ``_finish``, which rejects a
non-finite result.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{op} produced non-finite entries")


class Matrix:
    """A rows x cols float64 matrix, optionally recorded on a tape."""

    __slots__ = ("data", "tape", "slot")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
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
        self._ops: list[tuple[int, tuple[int | None, ...], Callable]] = []
        self._n_slots = 0

    def _alloc(self) -> int:
        s = self._n_slots
        self._n_slots += 1
        return s

    def leaf(self, data) -> Matrix:
        """Register a tracked copy of ``data`` (a trainable parameter or watched value)."""
        m = Matrix(data.data if isinstance(data, Matrix) else data)
        m.tape, m.slot = self, self._alloc()
        return m

    def _record(self, out: np.ndarray, inputs: tuple[Matrix, ...], vjp: Callable) -> Matrix:
        slots = tuple(m.slot if m.tape is self else None for m in inputs)
        slot = self._alloc()
        self._ops.append((slot, slots, vjp))
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


def _finish(op: str, out: np.ndarray, inputs: tuple[Matrix, ...], vjp: Callable) -> Matrix:
    _check_finite(out, op)
    tape = _result_tape(*inputs)
    if tape is None:
        return Matrix._wrap(out)
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


def add(a, b) -> Matrix:
    """``a + b`` for ``b`` of ``a``'s shape, or ``b`` one row of ``a``'s width (a bias)."""
    a, b = as_matrix(a), as_matrix(b)
    if b.shape != a.shape and b.shape != (1, a.cols):
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    bias_row = b.rows != a.rows

    def vjp(g):
        return g, (g.sum(axis=0, keepdims=True) if bias_row else g)

    return _finish("add", a.data + b.data, (a, b), vjp)


def scale(a, c: float) -> Matrix:
    a = as_matrix(a)
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _finish("scale", a.data * c, (a,), vjp)


def tanh(a) -> Matrix:
    a = as_matrix(a)
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _finish("tanh", out, (a,), vjp)


def l2_normalize_rows(a, eps: float = 1e-12) -> Matrix:
    """Scale each row to unit length; rows with norm <= eps pass through as zero.

    The guarded rows are treated as constants in the backward pass: a true
    zero row has no preferred direction, and an exploding 1/eps adjoint
    would poison early training steps.
    """
    a = as_matrix(a)
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    safe = np.maximum(norms, eps)
    live = (norms > eps).astype(np.float64)
    out = a.data / safe * live

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (live * (g - out * dot) / safe,)

    return _finish("l2_normalize_rows", out, (a,), vjp)


def softmax_cross_entropy(logits, labels) -> Matrix:
    """Mean over rows of ``log sum_k exp z_ik - z_i,labels_i``: cross-entropy from logits.

    Each row is shifted by its largest logit before the exponentials, so the
    sum inside the log is >= 1, nothing overflows, and a true class whose
    probability rounds to zero still gets its full loss and gradient. The
    gradient is written out by hand: ``(softmax - onehot) / n``.
    """
    z = as_matrix(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (z.rows,):
        raise ValueError(f"labels must be 1-D of length {z.rows}")
    if labels.min() < 0 or labels.max() >= z.cols:
        raise ValueError(f"label outside [0, {z.cols})")
    n = z.rows
    rows = np.arange(n)
    shifted = z.data - z.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = np.mean(np.log(total[:, 0]) - shifted[rows, labels])

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
    shifted by the second-largest logit. Only the positive pairs are
    visited after the exponentials. The gradient is written out by hand as
    one row-scaled sweep over the exponentials, with the argmax column set
    rather than corrected; it flows to ``anchors`` and, when tracked, to
    ``others``.
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
    if positive[rows, rows].any():
        raise ValueError("supcon_loss: an anchor cannot be its own positive")
    if not positive.any():  # nothing to score; a lone anchor's row would be all -inf
        return _finish("supcon_loss", np.zeros((1, 1)), (s, t), lambda g: (None, None))
    if width < 3:
        raise ValueError("supcon_loss: an anchor with a positive needs two candidates or more")
    sd, td = s.data, t.data
    z = (sd / tau) @ np.concatenate([sd, td]).T
    z[rows, rows] = -np.inf
    top = z.argmax(axis=1)
    z -= z[rows, top][:, None]  # shifted: row maxima are 0
    e = np.exp(z)  # 0 on the self column
    e[rows, top] = 0.0
    rest = e.sum(axis=1)  # shifted sum without the argmax column
    e[rows, top] = 1.0

    flat = np.flatnonzero(positive)  # positive pairs, row-major
    pi = flat // width
    wp = weight[pi]
    ep = e.ravel()[flat]
    at_top = flat - pi * width == top[pi]
    den = (rest + 1.0)[pi] - ep  # shifted sum without column j, >= 1
    den[at_top] = 1.0  # the argmax column's sum is rest, taken below
    loss = np.dot(wp, np.log(den) - z.ravel()[flat])
    inv = wp / den
    inv[at_top] = 0.0

    hard, w_hard = pi[at_top], wp[at_top]  # rows whose argmax column is positive
    # rest underflowed, or sums subnormal terms: shift by the second-largest logit
    gone = rest[hard] < 1e-290
    easy, w_easy = hard[~gone], w_hard[~gone]
    loss += np.dot(w_easy, np.log(rest[easy]))
    fall, w_fall = hard[gone], w_hard[gone]
    if fall.size:
        zf = z[fall]
        zf[np.arange(fall.size), top[fall]] = -np.inf
        second = zf.max(axis=1, keepdims=True)
        ef = np.exp(zf - second)
        sum_f = ef.sum(axis=1, keepdims=True)
        loss += np.dot(w_fall, second[:, 0] + np.log(sum_f[:, 0]))
        soft_f = ef / sum_f  # softmax over the candidates without the argmax

    t_tracked = t.tracked

    def vjp(g):
        soft = np.bincount(pi, weights=inv, minlength=n)
        coef = soft.copy()
        coef[easy] += w_easy / rest[easy]
        grad = e * coef[:, None]
        # set, not e*coef - w/rest: that difference cancels when rest is tiny
        grad[rows, top] = soft
        grad.ravel()[flat] -= ep * inv + wp
        if fall.size:
            grad[fall] += w_fall[:, None] * soft_f
        c = g[0, 0] / tau
        g_ss, g_st = grad[:, :n], grad[:, n:]
        # anchors meet anchors twice, as rows and as candidates
        d_s = c * ((g_ss + g_ss.T) @ sd + g_st @ td)
        return d_s, (c * (g_st.T @ sd) if t_tracked else None)

    return _finish("supcon_loss", np.array([[loss]]), (s, t), vjp)


def mean_sq_row_distance(a, b, rows) -> Matrix:
    """Mean over the listed ``rows`` of ``||a_r - b_r||^2``, the squared row distance.

    ``a`` and ``b`` have one shape, and ``rows`` holds strictly increasing
    row indices, at least one. The gradient is written out by hand:
    ``2 (a_r - b_r) / len(rows)`` on the listed rows of ``a``, its negative
    on those of ``b``, and zero on every other row.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError(f"mean_sq_row_distance: shapes {a.shape} and {b.shape} differ")
    rows = np.asarray(rows, dtype=np.int64)
    if (rows.ndim != 1 or rows.size == 0 or rows[0] < 0 or rows[-1] >= a.rows
            or (rows[1:] <= rows[:-1]).any()):
        raise ValueError(f"mean_sq_row_distance: rows must be strictly increasing "
                         f"indices in [0, {a.rows}), at least one")
    c = 1.0 / len(rows)
    d = a.data[rows] - b.data[rows]
    shape, a_tracked, b_tracked = a.shape, a.tracked, b.tracked

    def vjp(g):
        half = (g[0, 0] * c) * d
        grad = np.zeros(shape)
        grad[rows] = half + half
        return (grad if a_tracked else None), (-grad if b_tracked else None)

    return _finish("mean_sq_row_distance", ((d * d).sum() * c).reshape(1, 1), (a, b), vjp)


def backward(tape: Tape, loss: Matrix) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar loss; returns adjoints keyed by slot id.

    Slots that received no adjoint (unreached leaves) are absent; callers
    treat them as zero gradients.
    """
    if loss.tape is not tape or loss.slot is None:
        raise ValueError("loss is not recorded on this tape")
    if loss.shape != (1, 1):
        raise ShapeError(f"loss must be a 1x1 scalar, got {loss.shape}")
    adjoints: dict[int, np.ndarray] = {loss.slot: np.ones((1, 1))}
    for out_slot, in_slots, vjp in reversed(tape._ops):
        g = adjoints.get(out_slot)
        if g is None:
            continue
        contribs = vjp(g)
        for s, contrib in zip(in_slots, contribs):
            if s is None or contrib is None:
                continue
            if s in adjoints:
                adjoints[s] = adjoints[s] + contrib
            else:
                adjoints[s] = contrib
    return adjoints


def finite_diff_grad(f: Callable[[Matrix], float], x: Matrix, h: float = 1e-5) -> Matrix:
    """Central-difference gradient of a scalar function, entry by entry."""
    if h <= 0:
        raise ValueError("finite_diff_grad: h must be positive")
    x = as_matrix(x)
    base = x.data
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            plus = base.copy()
            plus[i, j] += h
            minus = base.copy()
            minus[i, j] -= h
            grad[i, j] = (f(Matrix(plus)) - f(Matrix(minus))) / (2.0 * h)
    return Matrix._wrap(grad)
