"""Teacher pretraining and student distillation, run by one training loop.

``pretrain_teacher`` and ``train_student`` both call ``_fit``: seeded
init, AdamW on a cosine learning-rate schedule, one JSONL record per step
and per epoch. The student's loop adds the GPD and LCD terms against a
frozen teacher when their weights are non-zero, on the pool coordinates
that ``forward`` returns (see ``concepts``). A step's tape holds the ops
``forward`` and ``cross_entropy``, then one op each from ``losses`` for the
terms that are on (``gpd_loss``, ``lcd_loss``) and for their ``total_loss``.
The teacher's coordinates for its whole train split are computed once per
run and indexed per batch; its parameter hash is checked after every
epoch. The teacher keeps its last epoch; the student keeps the epoch with
the best validation macro P-R F1. Validation runs only when its score is
read: for the student's epoch choice, or for the epoch record of a run
that writes a log. Each step record carries the loss terms, the learning
rate, the number of classes GPD compared and the number of anchors LCD
skipped, as the two losses return them (null when the term is off).

Fully deterministic: every stochastic choice is derived from the run seed,
so one (config, seed, dataset, pool) tuple maps to exactly one parameter
trajectory, checkpoint, and log. Each modality consumes its own stream of
seeded epoch permutations, so the two streams cycle independently with no
pairing between them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Matrix, Tape, _check_real, _got, backward
from .concepts import ConceptPool
from .losses import DistillConfig, class_prototypes, gpd_loss, lcd_loss, total_loss
from .metrics import confusion_counts, per_class_metrics
from .model import (ModelBinding, ModelParams, check_hidden_sizes, cross_entropy, forward,
                    init_params)
from .synthetic import SyntheticDataset

_MODALITY_CODE = {"student": 0, "teacher": 1}


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 0.0
    batch_size: int = 64
    epochs: int = 20
    seed: int = 0
    encoder_hidden: tuple = ()
    distill: DistillConfig = field(default_factory=DistillConfig)

    def __post_init__(self):
        for name in ("batch_size", "epochs", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "weight_decay"):
            _check_real(name, getattr(self, name))
        if not isinstance(self.distill, DistillConfig):
            raise ValueError(f"distill must be a DistillConfig, got {self.distill!r}")
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("learning_rate, batch_size must be positive; epochs >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.seed < 0:  # NumPy's seeding would refuse it without naming the field
            raise ValueError("seed must be >= 0" + _got(self.seed))
        self.encoder_hidden = check_hidden_sizes(self.encoder_hidden)


@dataclass
class OptimizerState:
    """AdamW moments as flat vectors, laid out like ``params.flat``."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int
    weight_decay: float

    @classmethod
    def for_params(cls, params: ModelParams, weight_decay: float) -> "OptimizerState":
        size = params.flat.size
        return cls(first_moment=np.zeros(size), second_moment=np.zeros(size), step=0,
                   weight_decay=weight_decay)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adamw_step(params: ModelParams, grad: np.ndarray | None,
               state: OptimizerState, lr_t: float) -> None:
    """Decoupled-weight-decay Adam update with bias correction, in place.

    ``grad`` is the gradient of ``params.flat``, in its layout (such as the
    1 x P row of a ``ModelBinding``'s leaf); None is a zero gradient. A
    wrong size, or non-finite values (naming the parameters whose span
    holds them), is rejected before anything changes: training binds the
    parameters unchecked, so they must stay finite. The update is one pass
    over the vector, each element through the same expressions as a
    per-array update.
    """
    if params.frozen:
        raise ValueError("cannot update frozen parameters")
    g = np.zeros(params.flat.size) if grad is None else grad.reshape(-1)
    if g.size != params.flat.size:
        raise ValueError(f"gradient of size {g.size} for {params.flat.size} parameters")
    if not np.isfinite(g).all():
        pieces = np.split(g, np.cumsum([arr.size for arr in params.arrays.values()])[:-1])
        bad = [name for name, piece in zip(params.arrays, pieces) if not np.isfinite(piece).all()]
        raise ValueError(f"non-finite gradient for {', '.join(bad)}")
    state.step += 1
    t = state.step
    correction1 = 1.0 - ADAM_BETA1 ** t
    correction2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.first_moment, state.second_moment
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    if state.weight_decay:
        params.flat *= 1.0 - lr_t * state.weight_decay
    params.flat -= lr_t * (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS)


def cosine_lr(step: int, total_steps: int, lr_max: float) -> float:
    """One cosine cycle from ``lr_max`` at step 0 down to 0 at ``total_steps``."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return lr_max
    return 0.5 * lr_max * (1.0 + math.cos(math.pi * step / total_steps))


class EpochStream:
    """Without-replacement index stream; one seeded permutation per epoch.

    Position p of the stream is entry p % n of epoch p // n's permutation.
    Only the latest epoch's permutation is cached: training reads the stream
    in order, so a batch revisits at most the epoch the previous batch ended
    in. It is read-only, and a batch inside one epoch is a slice of it.
    """

    def __init__(self, n: int, seed: int, modality: str):
        if n == 0:
            raise ValueError(f"{modality} train split is empty")
        self.n = n
        self.seed = seed
        self.code = _MODALITY_CODE[modality]
        self._epoch, self._cached = -1, None

    def _perm(self, epoch: int) -> np.ndarray:
        if epoch != self._epoch:
            rng = np.random.default_rng([self.seed, self.code, epoch])
            self._epoch, self._cached = epoch, rng.permutation(self.n)
            self._cached.flags.writeable = False
        return self._cached

    def batch(self, step: int, batch_size: int) -> np.ndarray:
        """Stream positions [step * batch_size, (step + 1) * batch_size)."""
        start, stop = step * batch_size, (step + 1) * batch_size
        first, last = start // self.n, (stop - 1) // self.n
        if first == last:
            return self._perm(first)[start - first * self.n:stop - first * self.n]
        return np.concatenate([
            self._perm(epoch)[max(start - epoch * self.n, 0):stop - epoch * self.n]
            for epoch in range(first, last + 1)
        ])


class JsonlLogger:
    """One JSON record per line, to a file held open from ``with`` to its exit.

    Without a path it writes nothing. Leaving the ``with`` block, by return
    or by raise, closes and so flushes the file.
    """

    def __init__(self, path=None):
        self.path = Path(path) if path else None
        self._file = None

    def __enter__(self) -> "JsonlLogger":
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "w", encoding="utf-8")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._file is not None:
            self._file.close()

    def write(self, record: dict) -> None:
        if self._file is not None:
            self._file.write(json.dumps(record, sort_keys=True))
            self._file.write("\n")


def evaluate_macro_pr_f1(params: ModelParams, pool: ConceptPool,
                         features: np.ndarray, labels: np.ndarray) -> float:
    """Macro P-R F1 on one split; equals ``macro_report(...).macro["pr_f1"]``."""
    _, pred = forward(params, features, pool)
    counts = confusion_counts(pred.predicted_class, labels, params.num_classes)
    return float(np.mean(per_class_metrics(counts)["pr_f1"]))


def pretrain_teacher(config: TrainConfig, dataset: SyntheticDataset, pool: ConceptPool,
                     log_path=None) -> ModelParams:
    """Train the teacher with plain cross-entropy and return its last epoch, frozen."""
    return _fit(config, dataset, pool, "teacher", log_path, keep_best=False).freeze()


def train_student(config: TrainConfig, dataset: SyntheticDataset, pool: ConceptPool,
                  teacher: ModelParams | None = None, log_path=None) -> ModelParams:
    """Student training; with a frozen teacher and non-zero weights it distills.

    Validation macro P-R F1 picks the returned epoch snapshot.
    """
    if teacher is not None:
        if teacher.modality != "teacher":
            raise ValueError(f"teacher must be a teacher model, got a {teacher.modality} one")
        if not teacher.frozen:
            raise ValueError("teacher must be frozen before distillation")
        if teacher.pool_fingerprint != pool.fingerprint():
            raise ValueError("teacher was trained against a different concept pool")
    return _fit(config, dataset, pool, "student", log_path, keep_best=True, teacher=teacher)


def _fit(config: TrainConfig, dataset: SyntheticDataset, pool: ConceptPool, modality: str,
         log_path, keep_best: bool, teacher: ModelParams | None = None) -> ModelParams:
    """The one training loop: a fresh ``modality`` model on its train split.

    Each step minimises cross-entropy; with a teacher and a non-zero alpha
    or beta it draws an independent teacher batch and adds the GPD and LCD
    terms through ``total_loss``. Without a teacher or with both weights
    zero the teacher path is skipped entirely, which makes alpha == beta ==
    0 bit-identical to the plain baseline by construction. ``keep_best``
    returns the epoch with the best validation macro P-R F1; without it, or
    without a validation split, the last epoch's parameters are returned.
    """
    cfg_d = config.distill
    num_classes = dataset.config.num_classes
    x, y = dataset.split_arrays(modality, "train")
    params = init_params(
        modality, x.shape[1], pool, num_classes, config.seed, config.encoder_hidden
    )
    x = Matrix(x)  # checked once; each batch is a row gather
    stream = EpochStream(len(y), config.seed, modality)
    teacher_stream = None
    if teacher is not None and (cfg_d.alpha > 0 or cfg_d.beta > 0):
        xt, yt = dataset.split_arrays("teacher", "train")
        teacher_stream = EpochStream(len(yt), config.seed, "teacher")
        # the teacher is frozen, so its coordinates are computed once and indexed per batch
        teacher_coords = forward(teacher, xt, pool)[0]
    teacher_hash = teacher.params_hash() if teacher is not None else None
    steps_per_epoch = max(1, len(y) // config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    state = OptimizerState.for_params(params, config.weight_decay)

    xv, yv = dataset.split_arrays(modality, "val")
    track_best = keep_best and len(yv) > 0
    best_score, best_params = -np.inf, params.copy()
    step = 0
    with JsonlLogger(log_path) as logger:
        validate = len(yv) > 0 and (track_best or logger.path is not None)
        for epoch in range(config.epochs):
            for _ in range(steps_per_epoch):
                idx = stream.batch(step, config.batch_size)
                labels = y[idx]
                lr_t = cosine_lr(step, total_steps, config.learning_rate)
                tape = Tape()
                binding = ModelBinding(params, tape)
                coords, pred = forward(binding, x.take_rows(idx), pool)
                cls = cross_entropy(pred, labels)
                cls_v = cls.item()
                gpd_v, lcd_v = 0.0, 0.0
                gpd_shared = lcd_skipped = None
                loss = cls
                if teacher_stream is not None:
                    t_idx = teacher_stream.batch(step, config.batch_size)
                    t_coords = teacher_coords.take_rows(t_idx)
                    t_labels = yt[t_idx]
                    gpd = lcd = None
                    if cfg_d.alpha > 0:
                        t_protos = class_prototypes(t_coords, t_labels, num_classes)
                        s_protos = class_prototypes(coords, labels, num_classes)
                        gpd, gpd_shared = gpd_loss(t_protos, s_protos)
                        gpd_v = gpd.item()
                    if cfg_d.beta > 0:
                        lcd, lcd_skipped = lcd_loss(coords, labels, t_coords, t_labels, cfg_d.tau)
                        lcd_v = lcd.item()
                    loss = total_loss(cls, gpd, lcd, cfg_d)
                total_v = loss.item()
                adamw_step(params, backward(tape, loss)[binding.leaf.slot], state, lr_t)
                logger.write({
                    "step": step, "lr": lr_t, "loss_cls": cls_v,
                    "loss_gpd": gpd_v, "loss_lcd": lcd_v, "loss_total": total_v,
                    "gpd_shared_classes": gpd_shared, "lcd_skipped": lcd_skipped,
                })
                step += 1
            if teacher is not None and teacher.params_hash() != teacher_hash:
                raise RuntimeError("teacher parameters changed during distillation")
            val = evaluate_macro_pr_f1(params, pool, xv, yv) if validate else None
            if track_best:
                selected = val > best_score
                if selected:
                    best_score, best_params = val, params.copy()
            else:
                selected = epoch == config.epochs - 1
            logger.write({"epoch": epoch, "val_macro_prf1": val, "selected": selected})
    return best_params if track_best else params

