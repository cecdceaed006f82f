"""Synthetic unpaired two-modality datasets with teacher-dominant structure.

Each class activates a fixed block of concepts. Concept activations map to
feature vectors through one mixing matrix per modality; a configurable
fraction of each class's concepts is attenuated in the student modality
only, so the teacher stream carries signal the student sees faintly. The
attenuation is 0.1 rather than 0: the student must retain a weak correlate
of every concept or no amount of guidance could transfer it.

The class count is not a setting of its own: ``GeneratorConfig.num_classes``
is ``len(class_names)``, the names must be distinct, and every ``counts``
list must have that length. Class names must be strings. Integer fields
must be of type ``int``, not ``bool`` and not a NumPy integer (which
``json.dump`` refuses): ``seed`` >= 0, the sizes >= 1. The real fields
``teacher_dominance``, ``attenuation`` and ``noise_sigma`` must be finite
``int`` or ``float`` values >= 0, not ``bool``; ``teacher_dominance`` is
also <= 1.

The ground truth stores each fact once: the config, ``teacher_dominant``
and ``mixing_teacher``. The class profiles (the block indicator) and
``mixing_student`` are computed from them when read, so no stored copy
can disagree with its source.

In memory a dataset is columnar: one (features, labels) array pair per
(modality, split), rows in generation order. On disk it is a directory of
two files. ``meta.json`` holds the config and ``teacher_dominant``.
``arrays.npz``, written by ``np.savez`` (uncompressed, byte-identical
across writes), holds exactly 13 arrays: ``mixing_teacher`` and, for every
pair, ``{modality}.{split}.x`` (float64, rows x ``feature_dim``) and
``{modality}.{split}.y`` (int64). Rows are positional: a split's row i is
its i-th generated row.

Reading rejects, naming ``meta.json``: a missing ``config`` or
``teacher_dominant``, a config that is not an object, has an unknown key or
a value the config refuses, and a ``teacher_dominant`` that is not one list
of distinct integers per class, each inside that class's concept block
``[d * k, (d + 1) * k)`` and ``round(teacher_dominance * k)`` long. It
loads the arrays with ``allow_pickle=False`` and rejects, naming the file
and the (modality, split): a missing file, an unreadable or truncated
``.npz``, any array besides those 13 (which refuses files that still hold
the derived ``class_profiles`` or ``mixing_student``), a missing array or
one of the wrong dtype or rank, a ``mixing_teacher`` that is not
``num_classes * k`` x ``feature_dim`` or not finite, a feature width
other than ``feature_dim``, feature rows and labels of different lengths,
non-finite features, a label outside ``[0, num_classes)``, and per-class
row counts that differ from the config's ``counts``.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .concepts import ConceptPool

MODALITIES = ("student", "teacher")
SPLITS = ("train", "val", "test")

DEFAULT_CLASS_NAMES = [
    "normal", "dAMD", "CSC", "DR", "GLC", "MEM", "MYO", "RVO", "wAMD",
]

# per-class record counts, coarsely mirroring a long-tailed 9-class corpus
DEFAULT_COUNTS = {
    "student": {
        "train": [700, 90, 30, 480, 60, 30, 45, 45, 50],
        "val": [150, 25, 12, 110, 25, 12, 18, 18, 22],
        "test": [180, 30, 15, 130, 30, 15, 25, 25, 30],
    },
    "teacher": {
        "train": [650, 40, 90, 520, 30, 100, 40, 80, 60],
        "val": [150, 25, 12, 110, 25, 12, 18, 18, 22],
        "test": [180, 30, 15, 130, 30, 15, 25, 25, 30],
    },
}


@dataclass
class GeneratorConfig:
    concepts_per_class: int = 10
    feature_dim: int = 32
    embed_dim: int = 16
    teacher_dominance: float = 0.6  # fraction of concepts attenuated for the student
    attenuation: float = 0.1
    noise_sigma: float = 0.55
    seed: int = 0
    class_names: list[str] = field(default_factory=lambda: list(DEFAULT_CLASS_NAMES))
    counts: dict = field(default_factory=lambda: json.loads(json.dumps(DEFAULT_COUNTS)))

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def __post_init__(self):
        for name in ("teacher_dominance", "attenuation", "noise_sigma"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name, low in (("concepts_per_class", 1), ("feature_dim", 1), ("embed_dim", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if (not isinstance(self.class_names, (list, tuple))
                or not all(isinstance(name, str) for name in self.class_names)):
            raise ValueError(f"class_names must be strings in a list or tuple, "
                             f"got {self.class_names!r}")
        self.class_names = list(self.class_names)  # as meta.json reads it back
        if self.num_classes < 2:
            raise ValueError("need at least 2 class names")
        if len(set(self.class_names)) != self.num_classes:
            raise ValueError(f"class names must be distinct, got {self.class_names!r}")
        if self.teacher_dominance > 1:
            raise ValueError(f"teacher_dominance must be <= 1, got {self.teacher_dominance!r}")
        for modality in MODALITIES:
            for split in SPLITS:
                try:
                    counts = self.counts[modality][split]
                except (KeyError, TypeError) as e:
                    raise ValueError(f"counts has no [{modality}][{split}] entry") from e
                if len(counts) != self.num_classes:
                    raise ValueError(f"counts[{modality}][{split}] must list every class")
                if any(type(c) is not int for c in counts):
                    raise ValueError(
                        f"counts[{modality}][{split}] must hold integers, got {counts!r}")
                if any(c < 0 for c in counts):
                    raise ValueError("negative sample count")


@dataclass(eq=False)
class GroundTruth:
    """What ``generate`` drew beyond the features; the rest follows from ``config``."""

    config: GeneratorConfig
    teacher_dominant: list[list[int]]  # per class, global concept indices
    mixing_teacher: np.ndarray  # N x F

    @property
    def class_profiles(self) -> np.ndarray:
        """C x N block indicator: class d activates concepts [d * k, (d + 1) * k)."""
        return np.repeat(np.eye(self.config.num_classes), self.config.concepts_per_class, axis=1)

    @property
    def mixing_student(self) -> np.ndarray:
        """N x F: ``mixing_teacher`` with the ``teacher_dominant`` rows times ``attenuation``."""
        mixing = self.mixing_teacher.copy()
        for rows in self.teacher_dominant:
            mixing[rows] *= self.config.attenuation
        return mixing


@dataclass(eq=False)
class SyntheticDataset:
    config: GeneratorConfig
    arrays: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]  # (modality, split) -> (x, y)
    ground_truth: GroundTruth

    def __post_init__(self):
        for column in (a for pair in self.arrays.values() for a in pair):
            column.flags.writeable = False  # split_arrays hands out the stored arrays

    def split_arrays(self, modality: str, split: str) -> tuple[np.ndarray, np.ndarray]:
        """(features, labels) for one modality and split, in generation order."""
        return self.arrays[modality, split]

    @property
    def records(self) -> "_Rows":
        """Row-wise handle on the columns; ``pop()`` drops the last row.

        perfbench's smoke test corrupts a read-back dataset through it.
        """
        return _Rows(self.arrays)

    def __eq__(self, other):
        if not isinstance(other, SyntheticDataset) or self.arrays.keys() != other.arrays.keys():
            return False
        gt, other_gt = self.ground_truth, other.ground_truth
        pairs = [(gt.mixing_teacher, other_gt.mixing_teacher)]
        pairs += [(a, b) for key in self.arrays
                  for a, b in zip(self.arrays[key], other.arrays[key])]
        return (
            self.config == other.config
            and gt.teacher_dominant == other_gt.teacher_dominant
            and all(np.array_equal(a, b) for a, b in pairs)
        )


class _Rows:
    def __init__(self, arrays: dict):
        self._arrays = arrays

    def pop(self) -> tuple[np.ndarray, int]:
        """Remove and return the last row in generation order as (features, label)."""
        key = next(k for k in reversed(self._arrays) if len(self._arrays[k][1]))
        x, y = self._arrays[key]
        self._arrays[key] = (x[:-1], y[:-1])
        return x[-1], int(y[-1])


def generate(cfg: GeneratorConfig) -> tuple[SyntheticDataset, ConceptPool]:
    """Deterministically build (dataset, pool) from the config and its seed."""
    rng = np.random.default_rng(cfg.seed)
    c, k = cfg.num_classes, cfg.concepts_per_class
    n = c * k

    embeddings = rng.standard_normal((n, cfg.embed_dim))
    embeddings /= np.linalg.norm(embeddings, axis=1, keepdims=True)
    pool = ConceptPool([f"{name}.concept{j}" for name in cfg.class_names for j in range(k)],
                       embeddings)

    n_dom = int(round(cfg.teacher_dominance * k))
    dominant: list[list[int]] = []
    for d in range(c):
        local = rng.choice(k, size=n_dom, replace=False)
        dominant.append(sorted(int(d * k + j) for j in local))

    # one anatomy, two views: the same concept rows drive both modalities,
    # but teacher-dominant rows reach the student 10x attenuated
    mixing_teacher = rng.standard_normal((n, cfg.feature_dim)) / np.sqrt(cfg.feature_dim)
    ground_truth = GroundTruth(cfg, dominant, mixing_teacher)
    profiles = ground_truth.class_profiles
    mixing = {"student": ground_truth.mixing_student, "teacher": mixing_teacher}
    arrays = {}
    for modality in MODALITIES:
        for split in SPLITS:
            counts = cfg.counts[modality][split]
            blocks = [np.zeros((0, cfg.feature_dim))]
            for d in range(c):
                if counts[d] == 0:
                    continue
                clean = profiles[d] @ mixing[modality]
                noise = cfg.noise_sigma * rng.standard_normal((counts[d], cfg.feature_dim))
                blocks.append(clean[None, :] + noise)
            labels = np.repeat(np.arange(c, dtype=np.int64), counts)
            arrays[modality, split] = (np.concatenate(blocks), labels)

    return SyntheticDataset(config=cfg, arrays=arrays, ground_truth=ground_truth), pool


# --- directory format -------------------------------------------------------


def write_dataset(ds: SyntheticDataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "config": asdict(ds.config),
        "teacher_dominant": ds.ground_truth.teacher_dominant,
    }
    with open(directory / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    columns = {"mixing_teacher": ds.ground_truth.mixing_teacher}
    for (modality, split), (x, y) in ds.arrays.items():
        columns[f"{modality}.{split}.x"] = x
        columns[f"{modality}.{split}.y"] = y
    np.savez(directory / "arrays.npz", **columns)


def _column(columns: dict, key: str, dtype, ndim: int, where: str) -> np.ndarray:
    if key not in columns:
        raise ValueError(f"{where}: missing array {key!r}")
    a = columns[key]
    if a.dtype != dtype or a.ndim != ndim:
        raise ValueError(
            f"{where}: {key!r} is {a.ndim}-D {a.dtype}, expected {ndim}-D {np.dtype(dtype)}"
        )
    return a


def read_dataset(directory) -> SyntheticDataset:
    directory = Path(directory)
    meta_path, arrays_path = directory / "meta.json", directory / "arrays.npz"
    for path in (meta_path, arrays_path):
        if not path.exists():
            raise FileNotFoundError(f"missing dataset file: {path}")
    with open(meta_path, encoding="utf-8") as f:
        try:
            meta = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{meta_path}: not valid JSON: {e}") from e
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object, got {type(meta).__name__}")
    missing = [key for key in ("config", "teacher_dominant") if key not in meta]
    if missing:
        raise ValueError(f"{meta_path}: missing {', '.join(missing)}")
    config, dominant = meta["config"], meta["teacher_dominant"]
    if not isinstance(config, dict):
        raise ValueError(f"{meta_path}: config must be an object, got {type(config).__name__}")
    unknown = sorted(set(config) - {f.name for f in fields(GeneratorConfig)})
    if unknown:
        raise ValueError(f"{meta_path}: unknown config keys {', '.join(unknown)}")
    try:
        cfg = GeneratorConfig(**config)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{meta_path}: invalid config: {e}") from e
    if not (isinstance(dominant, list) and all(
            isinstance(row, list) and all(type(i) is int for i in row) for row in dominant)):
        raise ValueError(f"{meta_path}: teacher_dominant must be a list of integer lists")
    if len(dominant) != cfg.num_classes:
        raise ValueError(f"{meta_path}: teacher_dominant has {len(dominant)} rows, "
                         f"expected one per class ({cfg.num_classes})")
    k = cfg.concepts_per_class
    n_dom = int(round(cfg.teacher_dominance * k))
    for d, row in enumerate(dominant):
        if len(set(row)) != len(row) or not all(d * k <= i < (d + 1) * k for i in row):
            raise ValueError(f"{meta_path}: teacher_dominant row {d} must hold distinct "
                             f"indices of class {d}'s concepts, [{d * k}, {(d + 1) * k})")
        if len(row) != n_dom:
            raise ValueError(f"{meta_path}: teacher_dominant row {d} has {len(row)} indices, "
                             f"expected round(teacher_dominance * {k}) = {n_dom}")
    try:
        # np.load does not close a handle it opened when the zip is rejected
        with open(arrays_path, "rb") as f, np.load(f, allow_pickle=False) as npz:
            columns = {key: npz[key] for key in npz.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as e:
        raise ValueError(f"{arrays_path}: unreadable array file: {e}") from e

    known = {"mixing_teacher", *(f"{m}.{s}.{c}" for m in MODALITIES for s in SPLITS for c in "xy")}
    unknown = sorted(set(columns) - known)
    if unknown:
        raise ValueError(f"{arrays_path}: unknown arrays {', '.join(unknown)}")
    mixing = _column(columns, "mixing_teacher", np.float64, 2, f"{arrays_path} (ground truth)")
    if mixing.shape != (cfg.num_classes * k, cfg.feature_dim):
        raise ValueError(f"{arrays_path} (ground truth): mixing_teacher is {mixing.shape}, "
                         f"expected {(cfg.num_classes * k, cfg.feature_dim)}")
    if not np.isfinite(mixing).all():
        raise ValueError(f"{arrays_path} (ground truth): mixing_teacher must be finite")
    arrays = {}
    for modality in MODALITIES:
        for split in SPLITS:
            where = f"{arrays_path} ({modality}, {split})"
            x = _column(columns, f"{modality}.{split}.x", np.float64, 2, where)
            y = _column(columns, f"{modality}.{split}.y", np.int64, 1, where)
            if x.shape[1] != cfg.feature_dim:
                raise ValueError(
                    f"{where}: {x.shape[1]} features, meta.json feature_dim is {cfg.feature_dim}"
                )
            if len(x) != len(y):
                raise ValueError(f"{where}: {len(x)} feature rows, {len(y)} labels")
            if not np.isfinite(x).all():
                raise ValueError(f"{where}: features must be finite")
            if y.size and (y.min() < 0 or y.max() >= cfg.num_classes):
                raise ValueError(f"{where}: label outside [0, {cfg.num_classes})")
            per_class = np.bincount(y, minlength=cfg.num_classes).tolist()
            if per_class != cfg.counts[modality][split]:
                raise ValueError(
                    f"{where}: rows per class {per_class}, "
                    f"meta.json counts {cfg.counts[modality][split]}"
                )
            arrays[modality, split] = (x, y)
    return SyntheticDataset(config=cfg, arrays=arrays,
                            ground_truth=GroundTruth(cfg, dominant, mixing))
