"""Dense float64 matrices with tape-based reverse-mode differentiation.

Every value is a 2-D float64 array; vectors are 1xN matrices. A
:class:`Matrix` shares a float64 ndarray's memory and checks it finite; no
operation writes into an operand. Operations are recorded on a
:class:`Tape` whenever at least one operand is tracked, and
:func:`backward` replays the record in reverse to accumulate exact
adjoints. A tape is meant to live for one forward/backward pass.
``Tape.leaf`` tracks a checked copy; ``Tape.param`` tracks a parameter's
own array unchecked, which the optimizer keeps finite.

The ops are defined where they are used, each with a hand-written gradient:
``model.forward`` and ``model.cross_entropy``, and ``gpd_loss``,
``lcd_loss`` and ``total_loss`` in ``losses``. Each ends in ``_finish``,
which rejects a non-finite result and records the op when an operand is
tracked. An op has one output or two (``forward``'s coordinates and
logits, which it checks itself); ``backward`` hands its VJP one adjoint per
output, None for one that received none. The input checks that the ops and
the configs share are here too.
"""

from __future__ import annotations

import sys
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


def _got(value) -> str:
    """``", got <repr>"`` for a message, or "" if ``value`` holds an int too long for repr."""
    items = value if isinstance(value, (tuple, list)) else (value,)
    if any(isinstance(v, int) and v.bit_length() >= 10_000 for v in items):
        return ""
    return f", got {value!r}"


def _check_real(name: str, value) -> None:
    """``value`` a finite ``int`` or ``float``, not ``bool``; else ValueError naming ``name``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int too large
        raise ValueError(f"{name} must be finite" + _got(value))


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
