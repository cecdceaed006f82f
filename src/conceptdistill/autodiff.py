"""Dense float64 matrices with tape-based reverse-mode differentiation.

Every value is a 2-D float64 array; vectors are 1xN matrices. A
:class:`Matrix` shares a float64 ndarray's memory and checks it finite; no
operation writes into an operand. Operations are recorded on a
:class:`Tape` whenever at least one operand is tracked, and
:func:`backward` replays the record in reverse to accumulate exact
adjoints. A tape is meant to live for one forward/backward pass.
``Tape.leaf`` tracks a checked copy; ``Tape.param`` tracks a parameter's
own array unchecked, which the optimizer keeps finite.

The operations here are the model's and cross-entropy's, each with a
hand-written gradient: ``concept_model`` (the whole model, features to
pool coordinates and logits, its parameters and their gradient one 1 x P
row each) and ``softmax_cross_entropy`` (from logits). The distillation
terms and the weighted total are ops of their own in ``losses``
(``gpd_loss``, ``lcd_loss``, ``total_loss``), built on the same record.
Every op ends in ``_finish``, which rejects a non-finite result and
records the op when an operand is tracked. An op has one output or two
(``concept_model`` returns, and checks itself, the coordinates and the
logits); ``backward`` hands its VJP one adjoint per output, None for an
output that received none.
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


def concept_model(features, params, arrays, basis, coords_t) -> tuple[Matrix, Matrix]:
    """A whole concept model as one op: ``features`` to pool coordinates and logits.

    ``params`` is a 1 x P row; ``arrays``, its layout, is a list of views that
    tile it (each encoder layer's weight and bias, then the classifier's), as
    ``ModelParams`` holds them. Encoder layers ``x @ w + b`` have tanh between
    them; their unit-length rows (a row of norm <= 1e-12 scores 0 and passes
    no adjoint) map to ``coords = unit @ coords_t`` and then
    ``logits = coords @ (basis^T W) + b``, for the constant factors
    ``E = basis coords_t^T`` of the pool's QR. Each stage checks its shapes
    and result under its own name. The VJP writes each parameter's gradient
    into its span of a fresh 1 x P row, the classifier weight W's as
    ``basis @ (coords^T g)``.
    """
    x, p, q, rt = as_matrix(features), as_matrix(params), as_matrix(basis), as_matrix(coords_t)
    for name, m in (("features", x), ("basis", q), ("coords_t", rt)):
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
    qd, rtd = q.data, rt.data
    if h.shape[1] != rtd.shape[0]:
        raise ShapeError(f"cosine_similarity: {h.shape} x {rtd.shape}")
    # what np.linalg.norm(h, axis=1) evaluates for real input, without its wrapper
    norms = np.sqrt(np.add.reduce(h * h, axis=1, keepdims=True))
    safe = np.maximum(norms, 1e-12)
    dead = (norms[:, 0] <= 1e-12).nonzero()[0]
    unit = np.divide(h, safe, out=h)  # in place: h is this op's own array
    if dead.size:
        unit[dead] = 0.0
    coords = unit @ rtd
    _check_finite(coords, "cosine_similarity")
    cw, cb = arrays[-2], arrays[-1]
    if qd.shape != (cw.shape[0], rtd.shape[1]) or cb.shape != (1, cw.shape[1]):
        raise ShapeError(f"affine: {coords.shape} x {qd.shape}^T {cw.shape} + {cb.shape}")
    v = qd.T @ cw  # k x C: the weight in the basis
    logits = coords @ v + cb
    _check_finite(logits, "affine")

    def vjp(g_coords, g_logits):
        # matmuls and column sums into the spans; the classifier's stays 0 without logits
        grad = np.empty(ends[-1]) if g_logits is not None else np.zeros(ends[-1])
        g = g_coords
        if g_logits is not None:
            np.matmul(qd, coords.T @ g_logits, out=grad[ends[-3]:ends[-2]].reshape(cw.shape))
            np.add.reduce(g_logits, axis=0, out=grad[ends[-2]:])
            g = g_logits @ v.T
            if g_coords is not None:
                g += g_coords  # the distill path's adjoint of the coordinates
        g = g @ rtd.T
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
        return None, grad.reshape(1, -1), None, None

    return _finish("concept_model", (coords, logits), (x, p, q, rt), vjp)


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
