"""Dense float64 matrices with tape-based reverse-mode differentiation.

Every value is a 2-D row-major array; vectors are 1xN matrices. Operations
are recorded on a :class:`Tape` whenever at least one operand is tracked,
and :func:`backward` replays the record in reverse to accumulate exact
adjoints. A tape is meant to live for one forward/backward pass.

The operations are ``matmul``, ``add``, ``sub``, ``mul``, ``scale``,
``tanh``, ``sum_all``, ``l2_normalize_rows`` and ``softmax_rows``, plus two
losses with hand-written gradients: ``softmax_cross_entropy`` (from logits)
and ``supcon_loss``. Every one ends in ``_finish``, which rejects a
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


def _broadcast_check(op: str, a: Matrix, b: Matrix) -> None:
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    out = grad
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


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
    a, b = as_matrix(a), as_matrix(b)
    _broadcast_check("add", a, b)
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _finish("add", a.data + b.data, (a, b), vjp)


def sub(a, b) -> Matrix:
    a, b = as_matrix(a), as_matrix(b)
    _broadcast_check("sub", a, b)
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return _finish("sub", a.data - b.data, (a, b), vjp)


def mul(a, b) -> Matrix:
    a, b = as_matrix(a), as_matrix(b)
    _broadcast_check("mul", a, b)
    ad, bd = a.data, b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g * bd, sa), _unbroadcast(g * ad, sb)

    return _finish("mul", ad * bd, (a, b), vjp)


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


def sum_all(a) -> Matrix:
    a = as_matrix(a)
    shape = a.shape

    def vjp(g):
        return (np.full(shape, g[0, 0]),)

    return _finish("sum_all", a.data.sum().reshape(1, 1), (a,), vjp)


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


def softmax_rows(a) -> Matrix:
    a = as_matrix(a)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _finish("softmax_rows", out, (a,), vjp)


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
    needs two candidates or more.

    The sums are taken in log space after a shift by each row's largest
    logit. Leaving out a column other than the row's argmax keeps the
    argmax's term of 1 in the shifted sum, so it stays >= 1 and nothing
    cancels; the sum without the argmax column is taken afresh, shifted by
    the second-largest logit. Only the positive pairs are visited after the
    exponentials. The gradient is written out by hand; it flows to
    ``anchors`` and, when tracked, to ``others``.
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
    sd, td = s.data, t.data
    z = (sd / tau) @ np.concatenate([sd, td]).T
    z[rows, rows] = -np.inf
    top = z.argmax(axis=1)
    z -= z[rows, top][:, None]  # shifted: row maxima are 0
    e = np.exp(z)  # 0 on the self column

    flat = np.flatnonzero(positive)  # positive pairs, row-major
    pi = flat // width
    wp = weight[pi]
    ep = e.ravel()[flat]
    at_top = flat - pi * width == top[pi]
    rest = e.sum(axis=1)[pi] - ep  # shifted sum without column j, >= 1
    rest[at_top] = 1.0  # the argmax column's sum is taken below
    loss = np.dot(wp, np.log(rest) - z.ravel()[flat])
    inv = wp / rest
    inv[at_top] = 0.0

    hard, w_hard = pi[at_top], wp[at_top]  # rows whose argmax column is positive
    if hard.size:
        zh = z[hard]
        zh[np.arange(hard.size), top[hard]] = -np.inf
        second = zh.max(axis=1, keepdims=True)
        eh = np.exp(zh - second)
        sum_h = eh.sum(axis=1, keepdims=True)
        loss += np.dot(w_hard, second[:, 0] + np.log(sum_h[:, 0]))
        soft_h = eh / sum_h  # softmax over the candidates without the argmax

    t_tracked = t.tracked

    def vjp(g):
        grad = e * np.bincount(pi, weights=inv, minlength=n)[:, None]
        grad.ravel()[flat] -= ep * inv + wp
        if hard.size:
            grad[hard] += w_hard[:, None] * soft_h
        c = g[0, 0] / tau
        g_ss, g_st = grad[:, :n], grad[:, n:]
        # anchors meet anchors twice, as rows and as candidates
        d_s = c * ((g_ss + g_ss.T) @ sd + g_st @ td)
        return d_s, (c * (g_st.T @ sd) if t_tracked else None)

    return _finish("supcon_loss", np.array([[loss]]), (s, t), vjp)


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
