"""Concept-decoupled classifier for one modality.

One function, ``forward``, runs the whole model and records one autodiff op
per stage. Features pass through a small trainable projection (optionally
with tanh hidden layers), one ``autodiff.affine`` op per layer. The
projected rows are scored against the frozen concept embeddings by one
``autodiff.cosine_similarity`` op, the only place where they are
L2-normalized. A linear concept classifier, one more ``affine``, maps the
similarity row to class logits. Each op checks the shapes it consumes and
raises ``autodiff.ShapeError`` on a mismatch. The training loss is
cross-entropy taken from the logits in one autodiff op; the predicted
probabilities are a softmax of the logits' values, off the tape. The
classifier stays linear so each (concept, class) weight remains readable
as a direct contribution.

A model's parameters are one flat float64 vector, ``ModelParams.flat``,
read through ``ModelParams.arrays``, a read-only name -> view mapping in
layer order: ``encoder.{i}.weight`` (fan_in x fan_out) and
``encoder.{i}.bias`` (1 x fan_out) for each encoder layer i, then
``classifier.weight`` (n_concepts x n_classes) and ``classifier.bias``
(1 x n_classes). A checkpoint (format ``concept-model-v2``) is one JSON
object with ``format``, ``modality``, ``frozen``, ``pool_fingerprint`` and
``arrays``, which maps each name to ``{"shape": [rows, cols], "values": [...]}``
with the values in row-major order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, Tape
from .concepts import ConceptPool


class ModelParams:
    """One model's parameters: one flat float64 vector, ``flat``, and its views.

    ``arrays`` is a read-only name -> 2-D view mapping over ``flat``, one
    view per entry of ``shapes``, laid end to end in the layer order of the
    module docstring. Binding, hashing and checkpoints read the views; the
    optimizer, ``copy`` and ``freeze`` act on the vector. Replacing an entry
    of ``arrays`` raises, so no view can drift from the vector.
    """

    def __init__(self, modality: str, flat: np.ndarray, shapes: dict, pool_fingerprint: str):
        self.modality = modality  # "student" | "teacher"
        self.flat, self.shapes, self.pool_fingerprint = flat, shapes, pool_fingerprint
        self.frozen = False
        views, start = {}, 0
        for name, (rows, cols) in shapes.items():
            views[name] = flat[start:start + rows * cols].reshape(rows, cols)
            start += rows * cols
        self.arrays = MappingProxyType(views)

    @classmethod
    def of(cls, modality: str, arrays: dict[str, np.ndarray], pool_fingerprint: str):
        """Parameters holding a copy of ``arrays`` (name -> 2-D array, in layer order)."""
        shapes = {name: arr.shape for name, arr in arrays.items()}
        return cls(modality, np.concatenate([a.ravel() for a in arrays.values()]), shapes,
                   pool_fingerprint)

    @property
    def num_classes(self) -> int:
        return self.arrays["classifier.weight"].shape[1]

    def freeze(self) -> "ModelParams":
        self.frozen = True
        for arr in (self.flat, *self.arrays.values()):
            arr.flags.writeable = False
        return self

    def copy(self) -> "ModelParams":
        return ModelParams(self.modality, self.flat.copy(), self.shapes, self.pool_fingerprint)

    def params_hash(self) -> str:
        h = hashlib.sha256()
        for name, arr in sorted(self.arrays.items()):
            h.update(name.encode())
            h.update(arr.tobytes())
        return h.hexdigest()


def check_hidden_sizes(hidden) -> tuple[int, ...]:
    """``hidden`` as a tuple of at most 2 positive integer widths, else ``ValueError``."""
    if not isinstance(hidden, (tuple, list)):
        raise ValueError(f"encoder_hidden must be a tuple of widths, got {hidden!r}")
    hidden = tuple(hidden)
    if len(hidden) > 2:
        raise ValueError("at most 2 hidden layers are supported")
    if not all(isinstance(h, (int, np.integer)) and not isinstance(h, bool) and h > 0
               for h in hidden):
        raise ValueError(f"encoder_hidden sizes must be positive integers, got {hidden!r}")
    return hidden


def init_params(modality: str, feature_dim: int, pool: ConceptPool, num_classes: int,
                seed: int, hidden: tuple[int, ...] = ()) -> ModelParams:
    """Seeded initialization; hidden sizes add tanh layers before the projection."""
    check_hidden_sizes(hidden)
    rng = np.random.default_rng([seed, 0 if modality == "student" else 1])
    sizes = [feature_dim, *hidden, pool.dim]
    arrays = {}
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        arrays[f"encoder.{i}.weight"] = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        arrays[f"encoder.{i}.bias"] = np.zeros((1, fan_out))
    n = len(pool)
    arrays["classifier.weight"] = rng.standard_normal((n, num_classes)) / np.sqrt(n)
    arrays["classifier.bias"] = np.zeros((1, num_classes))
    return ModelParams.of(modality, arrays, pool.fingerprint())


@dataclass
class ModelBinding:
    """Per-step attachment of trainable parameters onto a tape, by reference (``Tape.param``)."""

    params: ModelParams
    tape: Tape
    leaves: dict[str, Matrix] = field(init=False)

    def __post_init__(self):
        if self.params.frozen:
            raise ValueError("cannot bind a frozen model for training")
        param = self.tape.param
        self.leaves = {name: param(arr) for name, arr in self.params.arrays.items()}


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
    """Mean negative log-probability of the true class, from the prediction's logits."""
    return ad.softmax_cross_entropy(pred.logits, labels)


def forward(model, features, pool: ConceptPool) -> tuple[Matrix, Prediction]:
    """Features -> encoder -> cosine similarity to ``pool`` -> classifier.

    ``model`` is a ``ModelBinding``, whose tracked leaves put every op on its
    tape, or a ``ModelParams``, whose arrays enter the ops as constants.
    Returns the B x n_concepts similarity rows and the ``Prediction`` made
    from them.
    """
    mats = model.leaves if isinstance(model, ModelBinding) else model.arrays
    n_layers = len(mats) // 2 - 1
    x = features
    for i in range(n_layers):
        x = ad.affine(x, mats[f"encoder.{i}.weight"], mats[f"encoder.{i}.bias"])
        if i < n_layers - 1:
            x = ad.tanh(x)
    sims = ad.cosine_similarity(x, pool.embeddings_t)
    return sims, Prediction(ad.affine(sims, mats["classifier.weight"], mats["classifier.bias"]))


# --- checkpoint files -------------------------------------------------------

CHECKPOINT_FORMAT = "concept-model-v2"
_CHECKPOINT_KEYS = ("format", "modality", "frozen", "pool_fingerprint", "arrays")


def save_checkpoint(params: ModelParams, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "modality": params.modality,
        "frozen": params.frozen,
        "pool_fingerprint": params.pool_fingerprint,
        "arrays": {
            name: {"shape": list(arr.shape), "values": arr.reshape(-1).tolist()}
            for name, arr in params.arrays.items()
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _array_names(n_layers: int) -> list[str]:
    """Parameter names of a model with ``n_layers`` encoder layers, in layer order."""
    names = [f"encoder.{i}.{kind}" for i in range(n_layers) for kind in ("weight", "bias")]
    return names + ["classifier.weight", "classifier.bias"]


def _read_array(entry, where: str) -> np.ndarray:
    """One ``{"shape": [r, c], "values": [...]}`` entry as a finite r x c float array."""
    if not isinstance(entry, dict) or set(entry) != {"shape", "values"}:
        raise ValueError(f"{where}: expected an object with 'shape' and 'values'")
    shape, values = entry["shape"], entry["values"]
    if (not isinstance(shape, list) or len(shape) != 2
            or not all(type(d) is int and d > 0 for d in shape)):
        raise ValueError(f"{where}: shape must be two positive integers, got {shape!r}")
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise ValueError(f"{where}: values must be a flat list of numbers")
    if len(values) != shape[0] * shape[1]:
        raise ValueError(f"{where}: {len(values)} values for shape {shape}")
    arr = np.array(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{where}: values must be finite")
    return arr.reshape(shape)


def load_checkpoint(path, pool: ConceptPool | None = None) -> ModelParams:
    """Read a checkpoint written by ``save_checkpoint``, checking it before use.

    Raises ``ValueError`` naming the file for a missing key, an unexpected
    set of array names, a values count that does not fill its shape, a
    non-finite or non-numeric value, layer widths that do not chain, or,
    when ``pool`` is given, a different pool fingerprint or a model whose
    output width and classifier rows do not fit ``pool``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not a JSON checkpoint: {e}") from e
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {path}")
    missing = [key for key in _CHECKPOINT_KEYS if key not in payload]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    modality, frozen, fingerprint, stored = (payload[key] for key in _CHECKPOINT_KEYS[1:])
    if (modality not in ("student", "teacher") or not isinstance(frozen, bool)
            or not isinstance(fingerprint, str) or not isinstance(stored, dict)):
        raise ValueError(f"{path}: modality, frozen, pool_fingerprint or arrays has the wrong type")
    if pool is not None and fingerprint != pool.fingerprint():
        raise ValueError(
            "checkpoint was trained against a different concept pool "
            f"(fingerprint {fingerprint[:12]}... vs {pool.fingerprint()[:12]}...)"
        )
    # sort_keys stored the names alphabetically; rebuild them in layer order
    n_layers = max(sum(name.startswith("encoder.") for name in stored) // 2, 1)
    names = _array_names(n_layers)
    if set(stored) != set(names):
        raise ValueError(f"{path}: arrays {sorted(stored)}, expected {names}")
    arrays = {name: _read_array(stored[name], f"{path} ({name})") for name in names}
    width = arrays["encoder.0.weight"].shape[0]
    for i in range(n_layers):
        w, b = arrays[f"encoder.{i}.weight"], arrays[f"encoder.{i}.bias"]
        if w.shape[0] != width or b.shape != (1, w.shape[1]):
            raise ValueError(f"{path}: encoder layer {i} shapes {w.shape}, {b.shape} "
                             f"do not follow a width of {width}")
        width = w.shape[1]
    cw, cb = arrays["classifier.weight"], arrays["classifier.bias"]
    if cb.shape != (1, cw.shape[1]):
        raise ValueError(f"{path}: classifier bias {cb.shape} does not fit weight {cw.shape}")
    if pool is not None and (width, cw.shape[0]) != (pool.dim, len(pool)):
        raise ValueError(f"{path}: encoder output width {width} and {cw.shape[0]} classifier "
                         f"rows do not fit a pool of {len(pool)} concepts of dim {pool.dim}")
    params = ModelParams.of(modality, arrays, fingerprint)
    return params.freeze() if frozen else params
