"""Concept-decoupled classifier for one modality.

``forward`` runs the whole model as one autodiff op: a small trainable
projection of the features (``x @ w + b`` per layer, tanh between layers),
its rows L2-normalized and scored against the frozen concept embeddings as
coordinates on the pool's ``basis`` Q, and a linear classifier on those
similarity rows, which reads its weight through Q (see ``concepts``), kept
linear so each (concept, class) weight reads as a direct contribution.
Every stage's shapes are checked (``autodiff.ShapeError``).
``cross_entropy`` is one more op on the logits; the predicted probabilities
are a softmax of their values, off the tape. Both ops end in
``autodiff._finish``, which records them on the tape.

A model's parameters are one flat float64 vector, ``ModelParams.flat``,
read through ``ModelParams.arrays``, a read-only name -> view mapping in
layer order: ``encoder.{i}.weight`` (fan_in x fan_out) and
``encoder.{i}.bias`` (1 x fan_out) for each encoder layer i, then
``classifier.weight`` (n_concepts x n_classes) and ``classifier.bias``
(1 x n_classes). ``_layout`` alone names and shapes these arrays, from the
layer sizes ``[feature_dim, *hidden, pool dim]`` and the concept and class
counts. A checkpoint (format ``concept-model-v3``) is one JSON object with
``format``, ``modality``, ``frozen``, ``pool_fingerprint``, ``sizes``,
``num_concepts``, ``num_classes`` and ``values``, the flat vector as a list.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, ShapeError, Tape
from .concepts import ConceptPool


def _layout(sizes, num_concepts: int, num_classes: int) -> dict[str, tuple[int, int]]:
    """Name -> shape of each parameter array, in layer order (see the module docstring)."""
    layers = [(f"encoder.{i}", *pair) for i, pair in enumerate(zip(sizes, sizes[1:]))]
    layers.append(("classifier", num_concepts, num_classes))
    return {f"{layer}.{kind}": shape for layer, rows, cols in layers
            for kind, shape in (("weight", (rows, cols)), ("bias", (1, cols)))}


class ModelParams:
    """One model's parameters: one flat float64 vector, ``flat``, and its views.

    ``arrays`` is a read-only name -> 2-D view mapping over ``flat``, one view
    per entry of ``_layout(sizes, num_concepts, num_classes)``, end to end.
    Hashing reads the views; binding, the optimizer, checkpoints, ``copy`` and
    ``freeze`` act on the vector. Replacing an entry of ``arrays`` raises, so
    no view can drift from the vector.
    """

    def __init__(self, modality: str, flat: np.ndarray, sizes, num_concepts: int,
                 num_classes: int, pool_fingerprint: str):
        if modality not in ("student", "teacher"):  # load_checkpoint refuses any other
            raise ValueError(f"modality must be 'student' or 'teacher', got {modality!r}")
        self.modality, self.flat, self.pool_fingerprint = modality, flat, pool_fingerprint
        self.sizes = tuple(map(int, sizes))  # plain ints, as a checkpoint stores them
        self.num_concepts, self.num_classes = int(num_concepts), int(num_classes)
        self.frozen = False
        layout = _layout(sizes, num_concepts, num_classes)
        ends = [0, *accumulate([rows * cols for rows, cols in layout.values()])]
        if len(self.sizes) < 2 or flat.shape != (ends[-1],):  # forward relies on both
            raise ValueError(f"a vector of shape {flat.shape} for a layout of {ends[-1]} values "
                             f"(from {len(self.sizes)} sizes, at least 2)")
        self.arrays = MappingProxyType({name: flat[lo:hi].reshape(shape) for (name, shape), lo, hi
                                        in zip(layout.items(), ends, ends[1:])})

    def freeze(self) -> "ModelParams":
        self.frozen = True
        for arr in (self.flat, *self.arrays.values()):
            arr.flags.writeable = False
        return self

    def copy(self) -> "ModelParams":
        return ModelParams(self.modality, self.flat.copy(), self.sizes, self.num_concepts,
                           self.num_classes, self.pool_fingerprint)

    def params_hash(self) -> str:
        h = hashlib.sha256()
        for name, arr in sorted(self.arrays.items()):
            h.update(name.encode())
            h.update(arr.tobytes())
        return h.hexdigest()


def check_hidden_sizes(hidden) -> tuple[int, ...]:
    """``hidden`` as a tuple of at most 2 positive widths that fit NumPy, else ``ValueError``."""
    if not isinstance(hidden, (tuple, list)):
        raise ValueError(f"encoder_hidden must be a tuple of widths, got {hidden!r}")
    hidden = tuple(hidden)
    if len(hidden) > 2:
        raise ValueError("at most 2 hidden layers are supported")
    if not all(isinstance(h, (int, np.integer)) and not isinstance(h, bool) and h > 0
               for h in hidden):
        raise ValueError("encoder_hidden sizes must be positive integers" + ad._got(hidden))
    if max(hidden, default=0) > np.iinfo(np.intp).max:  # no array could have the width
        raise ValueError(f"encoder_hidden sizes must be at most {np.iinfo(np.intp).max}")
    return hidden


def init_params(modality: str, feature_dim: int, pool: ConceptPool, num_classes: int,
                seed: int, hidden: tuple[int, ...] = ()) -> ModelParams:
    """Seeded initialization; hidden sizes add tanh layers before the projection."""
    check_hidden_sizes(hidden)
    rng = np.random.default_rng([seed, 0 if modality == "student" else 1])
    sizes = [feature_dim, *hidden, pool.dim]
    size = sum(rows * cols for rows, cols in _layout(sizes, len(pool), num_classes).values())
    params = ModelParams(modality, np.zeros(size), sizes, len(pool), num_classes,
                         pool.fingerprint())
    for name, arr in params.arrays.items():  # biases stay zero
        if name.endswith(".weight"):
            arr[:] = rng.standard_normal(arr.shape) / np.sqrt(arr.shape[0])
    return params


class ModelBinding:
    """Per-step attachment of ``params.flat`` onto ``tape``, by reference, as one 1 x P leaf."""

    def __init__(self, params: ModelParams, tape: Tape):
        if params.frozen:
            raise ValueError("cannot bind a frozen model for training")
        self.params, self.tape = params, tape
        self.leaf = tape.param(params.flat.reshape(1, -1))


@dataclass
class Prediction:
    logits: Matrix  # B x C class scores, tracked when the model is bound

    @cached_property
    def probabilities(self) -> Matrix:
        """B x C rows on the simplex: a max-shifted softmax of the logits, off the tape."""
        z = self.logits.data
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return Matrix(e / e.sum(axis=1, keepdims=True))

    @cached_property
    def predicted_class(self) -> np.ndarray:
        """Per-row argmax of the probabilities, ties to lower index."""
        return self.probabilities.data.argmax(axis=1)


def cross_entropy(pred: Prediction, labels) -> Matrix:
    """Mean over rows of ``log sum_k exp z_ik - z_i,labels_i`` for the logits z, as one op.

    Each row is shifted by its largest logit before the exponentials, so the
    sum inside the log is >= 1, nothing overflows, and a true class whose
    probability rounds to zero still gets its full loss and gradient. The
    gradient is written out by hand: ``(softmax - onehot) / n``.
    """
    z = pred.logits
    labels = ad._int_labels(labels, "cross_entropy")
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

    return ad._finish("cross_entropy", np.array([[loss]]), (z,), vjp)


def forward(model, features, pool: ConceptPool) -> tuple[Matrix, Prediction]:
    """Features -> encoder -> cosine similarity to ``pool`` -> classifier, as one op.

    ``model`` is a ``ModelBinding`` (its leaf puts the op on its tape) or a
    ``ModelParams`` (its vector, checked finite here, enters as a constant).
    Encoder layers ``x @ w + b`` have tanh between them; their unit rows (a
    row of norm <= 1e-12 scores 0 and passes no adjoint) give the B x k
    coordinates ``unit @ coords_t`` on ``pool.basis`` and the logits
    ``coords @ (basis^T W) + b``, which are returned as a ``Prediction``.
    Each stage checks its shapes and result under its own name. The VJP
    writes each array's gradient into its span of a fresh 1 x P row.
    """
    bound = isinstance(model, ModelBinding)
    params, p = (model.params, model.leaf) if bound else (model, Matrix(model.flat))
    x = ad.as_matrix(features)
    if x.tracked:  # rejected rather than given no adjoint
        raise ValueError("forward: features must be a constant")
    arrays = [*params.arrays.values()]
    ends = [0, *accumulate([a.size for a in arrays])]
    n_enc = len(arrays) // 2 - 1
    h, layer_in = x.data, []
    if h.shape[1] != arrays[0].shape[0]:
        raise ShapeError(f"affine: {h.shape} x {arrays[0].shape} + {arrays[1].shape}")
    for i in range(n_enc):
        layer_in.append(h if bound else None)  # a constant forward keeps no layer
        h = h @ arrays[2 * i] + arrays[2 * i + 1]
        ad._check_finite(h, "affine")
        if i < n_enc - 1:
            h = np.tanh(h)
            ad._check_finite(h, "tanh")
    qd, rtd = pool.basis.data, pool.coords_t.data
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
    ad._check_finite(coords, "cosine_similarity")
    cw, cb = arrays[-2], arrays[-1]
    if qd.shape != (cw.shape[0], rtd.shape[1]):
        raise ShapeError(f"affine: {coords.shape} x {qd.shape}^T {cw.shape} + {cb.shape}")
    v = qd.T @ cw  # k x C: the weight in the basis
    logits = coords @ v + cb
    ad._check_finite(logits, "affine")

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
        return None, grad.reshape(1, -1)

    out = ad._finish("forward", (coords, logits), (x, p), vjp)  # the VJP reads coords
    return out[0], Prediction(out[1])


# --- checkpoint files -------------------------------------------------------

CHECKPOINT_FORMAT = "concept-model-v3"
# the writer's and the reader's order of a checkpoint's keys
_CHECKPOINT_KEYS = ("format", "modality", "frozen", "pool_fingerprint", "sizes", "num_concepts",
                    "num_classes", "values")


def save_checkpoint(params: ModelParams, path) -> None:
    """Write ``params`` as the sizes it was built from plus its flat vector."""
    entries = (CHECKPOINT_FORMAT, params.modality, params.frozen, params.pool_fingerprint,
               list(params.sizes), params.num_concepts, params.num_classes, params.flat.tolist())
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dict(zip(_CHECKPOINT_KEYS, entries)), f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(path, pool: ConceptPool | None = None) -> ModelParams:
    """Read a checkpoint written by ``save_checkpoint``, checking it before use.

    Raises ``FileNotFoundError`` for a missing file and ``ValueError``
    naming the file for anything else: not JSON, another format (v2
    included), a missing or unknown key, a modality, ``frozen`` or
    fingerprint of the wrong type, a size that is not a positive integer or more than 2 hidden
    layers, a value that is not a finite number (bools and integers beyond
    float range included), a values count that does not fill the layout,
    or, when ``pool`` is given, a different pool fingerprint or an output
    width or concept count that does not fit ``pool``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:  # json raises a ValueError too, for bad syntax or an int of too many digits
            return _params_of(json.load(f), pool)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e


def _params_of(payload, pool: ConceptPool | None) -> ModelParams:
    """The parameters of a parsed checkpoint, checked as ``load_checkpoint`` lists."""
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("unrecognized checkpoint format")
    missing = [key for key in _CHECKPOINT_KEYS if key not in payload]
    unknown = sorted(set(payload) - set(_CHECKPOINT_KEYS))
    if missing or unknown:
        raise ValueError(f"missing {', '.join(missing)}" if missing
                         else f"unknown keys {', '.join(unknown)}")
    modality, frozen, fingerprint, sizes, num_concepts, num_classes, values = (
        payload[key] for key in _CHECKPOINT_KEYS[1:])
    if (modality not in ("student", "teacher") or not isinstance(frozen, bool)
            or not isinstance(fingerprint, str)):
        raise ValueError("modality, frozen or pool_fingerprint has the wrong type")
    counts = [*sizes, num_concepts, num_classes] if isinstance(sizes, list) else []
    if len(counts) < 4 or not all(type(n) is int and n > 0 for n in counts):
        raise ValueError(f"sizes (at least 2), num_concepts and num_classes must be positive "
                         f"integers, got {sizes!r}, {num_concepts!r}, {num_classes!r}")
    check_hidden_sizes(sizes[1:-1])
    if pool is not None and fingerprint != pool.fingerprint():
        raise ValueError(f"trained against a different concept pool (fingerprint "
                         f"{fingerprint[:12]}... vs {pool.fingerprint()[:12]}...)")
    if pool is not None and (sizes[-1], num_concepts) != (pool.dim, len(pool)):
        raise ValueError(f"encoder output width {sizes[-1]} and {num_concepts} concepts do not "
                         f"fit a pool of {len(pool)} concepts of dim {pool.dim}")
    # an int beyond float range would make np.array raise OverflowError
    if not isinstance(values, list) or not all(
            type(v) is float or type(v) is int and abs(v) <= sys.float_info.max for v in values):
        raise ValueError("values must be a list of numbers within float range")
    flat = np.array(values, dtype=np.float64)
    if not np.isfinite(flat).all():
        raise ValueError("values must be finite")
    params = ModelParams(modality, flat, sizes, num_concepts, num_classes, fingerprint)
    return params.freeze() if frozen else params
