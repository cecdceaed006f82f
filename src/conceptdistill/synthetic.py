"""Synthetic unpaired two-modality datasets with teacher-dominant structure.

Each class activates a fixed block of concepts. Concept activations map to
feature vectors through one mixing matrix per modality; a configurable
fraction of each class's concepts is attenuated in the student modality
only, so the teacher stream carries signal the student sees faintly. The
attenuation is 0.1 rather than 0: the student must retain a weak correlate
of every concept or no amount of guidance could transfer it.

The class count is not a setting of its own: ``GeneratorConfig.num_classes``
is ``len(class_names)``, the names must be distinct, and ``counts`` holds
one list of that length per (modality, split) and no other key. Class names
must be strings. Integer fields must be of type ``int``, not ``bool`` and
not a NumPy integer (which ``json.dump`` refuses): ``seed`` >= 0, the sizes
>= 1, each at most ``np.iinfo(np.intp).max``. The real fields
``teacher_dominance``, ``attenuation`` and ``noise_sigma`` must be finite
``int`` or ``float`` values >= 0, not ``bool``; ``teacher_dominance`` is
also <= 1.

The ground truth stores each fact once: the config, ``teacher_dominant``
and ``mixing_teacher``. The class profiles (the block indicator) and
``mixing_student`` are computed from them, so no copy can disagree with its
source.

In memory a dataset is columnar: one (features, labels) array pair per
(modality, split), rows in generation order. ``generate`` is a pure function
of its config, seed included, so on disk a dataset is one file,
``meta.json``: the config and a CRC-32 of what ``generate`` drew.
``read_dataset`` regenerates the dataset from the config and checks the CRC.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .autodiff import _check_real, _got
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
    counts: dict = field(default_factory=lambda: DEFAULT_COUNTS)  # copied in __post_init__

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def __post_init__(self):
        for name in ("teacher_dominance", "attenuation", "noise_sigma"):
            value = getattr(self, name)
            _check_real(name, value)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name, low in (("concepts_per_class", 1), ("feature_dim", 1), ("embed_dim", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an integer >= {low}" + _got(value))
            if value > np.iinfo(np.intp).max:  # no array could have the size, nor a file the seed
                raise ValueError(f"{name} must be at most {np.iinfo(np.intp).max}")
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
        counts = {modality: {} for modality in MODALITIES}
        for modality in MODALITIES:
            for split in SPLITS:
                try:
                    row = self.counts[modality][split]
                except (KeyError, TypeError) as e:
                    raise ValueError(f"counts has no [{modality}][{split}] entry") from e
                if not isinstance(row, (list, tuple)) or len(row) != self.num_classes:
                    raise ValueError(f"counts[{modality}][{split}] must list every class")
                if any(type(c) is not int for c in row):
                    raise ValueError(
                        f"counts[{modality}][{split}] must hold integers, got {row!r}")
                if any(c < 0 for c in row):
                    raise ValueError("negative sample count")
                counts[modality][split] = list(row)  # as meta.json reads it back
        unknown = [f"[{m}]" for m in self.counts if m not in MODALITIES]
        unknown += [f"[{m}][{s}]" for m in MODALITIES for s in self.counts[m] if s not in SPLITS]
        if unknown:
            raise ValueError(f"counts has unknown keys {', '.join(unknown)}")
        self.counts = counts


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
            labels = np.repeat(np.arange(c, dtype=np.int64), counts)
            rows = rng.standard_normal((len(labels), cfg.feature_dim))
            rows *= cfg.noise_sigma
            start = 0
            for d, count in enumerate(counts):
                rows[start:start + count] += profiles[d] @ mixing[modality]
                start += count
            arrays[modality, split] = (rows, labels)

    return SyntheticDataset(config=cfg, arrays=arrays, ground_truth=ground_truth), pool


# --- directory format -------------------------------------------------------


def _crc32(ds: SyntheticDataset) -> int:
    """CRC-32 of the ground truth and every column, in ``ds.arrays`` order."""
    gt = ds.ground_truth
    crc = zlib.crc32(json.dumps(gt.teacher_dominant).encode())
    for a in [gt.mixing_teacher] + [a for pair in ds.arrays.values() for a in pair]:
        crc = zlib.crc32(np.ascontiguousarray(a), crc)
    return crc


def write_dataset(ds: SyntheticDataset, directory) -> None:
    """Write ``meta.json``: the config and a CRC-32 of ``ds``; no array is stored."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {"config": asdict(ds.config), "crc32": _crc32(ds)}
    with open(directory / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def read_dataset(directory) -> SyntheticDataset:
    """Check ``meta.json``, regenerate the config's dataset and compare its CRC-32.

    Every rejection names the file. A directory of the older format
    (``teacher_dominant`` and ``arrays.npz``) has no ``crc32`` and is refused.
    A CRC mismatch means an edited file, a dataset ``generate`` did not
    produce, or another NumPy or BLAS.
    """
    path = Path(directory) / "meta.json"
    if not path.exists():
        raise FileNotFoundError(f"missing dataset file: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            meta = json.load(f)
        except ValueError as e:  # a JSONDecodeError, or an int of too many digits
            raise ValueError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(meta).__name__}")
    missing = [key for key in ("config", "crc32") if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    unknown = sorted(set(meta) - {"config", "crc32"})
    if unknown:
        raise ValueError(f"{path}: unknown keys {', '.join(unknown)}")
    config = meta["config"]
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be an object, got {type(config).__name__}")
    unknown = sorted(set(config) - {f.name for f in fields(GeneratorConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown config keys {', '.join(unknown)}")
    try:
        cfg = GeneratorConfig(**config)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: invalid config: {e}") from e
    ds, _ = generate(cfg)
    crc = _crc32(ds)
    if crc != meta["crc32"]:
        raise ValueError(f"{path}: crc32 is {meta['crc32']!r}, but the config generates a "
                         f"dataset with crc32 {crc}")
    return ds
