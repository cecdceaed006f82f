"""Concept-decoupled classifier for one modality.

Features pass through a small trainable projection (optionally with tanh
hidden layers), get L2-normalized, and are scored against the frozen
concept embeddings by cosine similarity. A linear concept classifier maps
the similarity row to class logits. The training loss is cross-entropy taken
from the logits in one autodiff op; the predicted probabilities are a softmax
of the logits' values, off the tape. The classifier stays linear so each
(concept, class) weight remains readable as a direct contribution.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, ShapeError, Tape
from .concepts import ConceptPool


@dataclass
class ModelParams:
    modality: str  # "student" | "teacher"
    encoder_weights: list[np.ndarray]  # per layer, fan_in x fan_out
    encoder_biases: list[np.ndarray]  # per layer, 1 x fan_out
    classifier_weight: np.ndarray  # n_concepts x n_classes
    classifier_bias: np.ndarray  # 1 x n_classes
    pool_fingerprint: str
    frozen: bool = False

    @property
    def feature_dim(self) -> int:
        return self.encoder_weights[0].shape[0]

    @property
    def num_concepts(self) -> int:
        return self.classifier_weight.shape[0]

    @property
    def num_classes(self) -> int:
        return self.classifier_weight.shape[1]

    def named_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(zip(self.encoder_weights, self.encoder_biases)):
            out[f"encoder.{i}.weight"] = w
            out[f"encoder.{i}.bias"] = b
        out["classifier.weight"] = self.classifier_weight
        out["classifier.bias"] = self.classifier_bias
        return out

    def freeze(self) -> "ModelParams":
        self.frozen = True
        for arr in self.named_arrays().values():
            arr.flags.writeable = False
        return self

    def copy(self) -> "ModelParams":
        return ModelParams(
            modality=self.modality,
            encoder_weights=[w.copy() for w in self.encoder_weights],
            encoder_biases=[b.copy() for b in self.encoder_biases],
            classifier_weight=self.classifier_weight.copy(),
            classifier_bias=self.classifier_bias.copy(),
            pool_fingerprint=self.pool_fingerprint,
            frozen=False,
        )

    def params_hash(self) -> str:
        h = hashlib.sha256()
        for name, arr in sorted(self.named_arrays().items()):
            h.update(name.encode())
            h.update(arr.tobytes())
        return h.hexdigest()


def init_params(modality: str, feature_dim: int, pool: ConceptPool, num_classes: int,
                seed: int, hidden: tuple[int, ...] = ()) -> ModelParams:
    """Seeded initialization; hidden sizes add tanh layers before the projection."""
    if len(hidden) > 2:
        raise ValueError("at most 2 hidden layers are supported")
    rng = np.random.default_rng([seed, 0 if modality == "student" else 1])
    sizes = [feature_dim, *hidden, pool.dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(np.zeros((1, fan_out)))
    n = len(pool)
    classifier_weight = rng.standard_normal((n, num_classes)) / np.sqrt(n)
    classifier_bias = np.zeros((1, num_classes))
    return ModelParams(
        modality=modality,
        encoder_weights=weights,
        encoder_biases=biases,
        classifier_weight=classifier_weight,
        classifier_bias=classifier_bias,
        pool_fingerprint=pool.fingerprint(),
    )


@dataclass
class ModelBinding:
    """Per-step attachment of trainable parameters onto a tape."""

    params: ModelParams
    tape: Tape
    leaves: dict[str, Matrix] = field(default_factory=dict)

    def __post_init__(self):
        if self.params.frozen:
            raise ValueError("cannot bind a frozen model for training")
        for name, arr in self.params.named_arrays().items():
            self.leaves[name] = self.tape.leaf(arr)


def _arrays_of(model) -> tuple[ModelParams, dict[str, Matrix]]:
    if isinstance(model, ModelBinding):
        return model.params, model.leaves
    consts = {name: Matrix(arr) for name, arr in model.named_arrays().items()}
    return model, consts


@dataclass
class Prediction:
    logits: Matrix  # B x C class scores, tracked when the model is bound

    @cached_property
    def probabilities(self) -> Matrix:
        """B x C rows on the simplex, computed off the tape."""
        return ad.softmax_rows(self.logits.data)

    @cached_property
    def predicted_class(self) -> np.ndarray:
        """Per-row argmax of the probabilities, ties to lower index."""
        return self.probabilities.data.argmax(axis=1)


def encode(model, features) -> Matrix:
    """Project raw features to unit-norm embedding rows."""
    params, mats = _arrays_of(model)
    x = ad.as_matrix(features)
    if x.cols != params.feature_dim:
        raise ShapeError(
            f"feature dim {x.cols} does not match encoder input {params.feature_dim}"
        )
    n_layers = len(params.encoder_weights)
    for i in range(n_layers):
        x = ad.add(ad.matmul(x, mats[f"encoder.{i}.weight"]), mats[f"encoder.{i}.bias"])
        if i < n_layers - 1:
            x = ad.tanh(x)
    return ad.l2_normalize_rows(x)


def concept_similarity(embeddings, pool: ConceptPool) -> Matrix:
    """Cosine of every embedding row against every pool concept."""
    emb = ad.as_matrix(embeddings)
    if emb.cols != pool.dim:
        raise ShapeError(f"embedding dim {emb.cols} does not match pool dim {pool.dim}")
    return ad.matmul(ad.l2_normalize_rows(emb), pool.embeddings_t)


def predict(similarity, model) -> Prediction:
    params, mats = _arrays_of(model)
    s = ad.as_matrix(similarity)
    if s.cols != params.num_concepts:
        raise ShapeError(
            f"similarity has {s.cols} concepts, classifier expects {params.num_concepts}"
        )
    logits = ad.add(ad.matmul(s, mats["classifier.weight"]), mats["classifier.bias"])
    return Prediction(logits)


def cross_entropy(pred, labels) -> Matrix:
    """Mean negative log-probability of the true class, from a prediction or its logits."""
    logits = pred.logits if isinstance(pred, Prediction) else pred
    return ad.softmax_cross_entropy(logits, labels)


def forward(model, features, pool: ConceptPool):
    """encode -> similarity -> predict; returns (similarity, prediction)."""
    sims = concept_similarity(encode(model, features), pool)
    return sims, predict(sims, model)


# --- checkpoint files -------------------------------------------------------

CHECKPOINT_FORMAT = "concept-model-v1"


def save_checkpoint(params: ModelParams, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "modality": params.modality,
        "frozen": params.frozen,
        "pool_fingerprint": params.pool_fingerprint,
        "encoder": [
            {
                "rows": w.shape[0],
                "cols": w.shape[1],
                "weight": w.reshape(-1).tolist(),
                "bias": b.reshape(-1).tolist(),
            }
            for w, b in zip(params.encoder_weights, params.encoder_biases)
        ],
        "classifier": {
            "rows": params.classifier_weight.shape[0],
            "cols": params.classifier_weight.shape[1],
            "weight": params.classifier_weight.reshape(-1).tolist(),
            "bias": params.classifier_bias.reshape(-1).tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(path, pool: ConceptPool | None = None) -> ModelParams:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {path}")
    if pool is not None and payload["pool_fingerprint"] != pool.fingerprint():
        raise ValueError(
            "checkpoint was trained against a different concept pool "
            f"(fingerprint {payload['pool_fingerprint'][:12]}... vs {pool.fingerprint()[:12]}...)"
        )
    weights, biases = [], []
    for layer in payload["encoder"]:
        weights.append(np.array(layer["weight"]).reshape(layer["rows"], layer["cols"]))
        biases.append(np.array(layer["bias"]).reshape(1, layer["cols"]))
    cls = payload["classifier"]
    params = ModelParams(
        modality=payload["modality"],
        encoder_weights=weights,
        encoder_biases=biases,
        classifier_weight=np.array(cls["weight"]).reshape(cls["rows"], cls["cols"]),
        classifier_bias=np.array(cls["bias"]).reshape(1, cls["cols"]),
        pool_fingerprint=payload["pool_fingerprint"],
    )
    if payload["frozen"]:
        params.freeze()
    return params
