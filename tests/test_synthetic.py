import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conceptdistill.synthetic import (
    DEFAULT_CLASS_NAMES,
    GeneratorConfig,
    SyntheticDataset,
    generate,
    read_dataset,
    write_dataset,
)


def small_config(**overrides) -> GeneratorConfig:
    base = dict(
        concepts_per_class=4,
        feature_dim=8,
        embed_dim=6,
        teacher_dominance=0.5,
        noise_sigma=0.2,
        seed=7,
        class_names=["a", "b", "c"],
        counts={
            "student": {"train": [20, 10, 8], "val": [5, 4, 3], "test": [6, 6, 6]},
            "teacher": {"train": [15, 12, 9], "val": [5, 4, 3], "test": [6, 6, 6]},
        },
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestGeneratorConfig:
    def test_default_shape(self):
        cfg = GeneratorConfig()
        assert cfg.num_classes == 9
        assert "num_classes" not in asdict(cfg)  # derived from class_names, not stored
        assert cfg.class_names == DEFAULT_CLASS_NAMES
        assert sum(cfg.counts["student"]["train"]) > 1000

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2 class names"):
            small_config(class_names=["a"],
                         counts={"student": {"train": [1], "val": [1], "test": [1]},
                                 "teacher": {"train": [1], "val": [1], "test": [1]}})
        with pytest.raises(ValueError):
            small_config(teacher_dominance=1.5)
        with pytest.raises(ValueError):
            small_config(noise_sigma=-0.1)
        counts = small_config().counts
        counts["teacher"]["val"].pop()
        with pytest.raises(ValueError, match=r"counts\[teacher\]\[val\] must list every class"):
            small_config(counts=counts)
        for value in (2.5, True):
            counts = small_config().counts
            counts["student"]["test"][1] = value
            with pytest.raises(ValueError,
                               match=r"counts\[student\]\[test\] must hold integers"):
                small_config(counts=counts)

    def test_round_trip_dict(self):
        cfg = small_config()
        assert GeneratorConfig(**asdict(cfg)) == cfg


class TestGenerate:
    def test_pool_matches_config(self):
        ds, pool = generate(small_config())
        assert len(pool) == 12
        assert pool.dim == 6
        assert pool.ids == tuple(f"{name}.concept{j}" for name in "abc" for j in range(4))
        norms = np.linalg.norm(pool.embedding_matrix(), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_label_marginals_exact(self):
        cfg = small_config()
        ds, _ = generate(cfg)
        for modality in ("student", "teacher"):
            for split in ("train", "val", "test"):
                _, y = ds.split_arrays(modality, split)
                counts = [int((y == d).sum()) for d in range(3)]
                assert counts == cfg.counts[modality][split]

    def test_no_dominance_no_noise_fully_separable(self):
        cfg = small_config(teacher_dominance=0.0, noise_sigma=0.0)
        ds, _ = generate(cfg)
        x, y = ds.split_arrays("student", "train")
        means = ds.ground_truth.class_profiles @ ds.ground_truth.mixing_student
        for d in range(3):
            np.testing.assert_allclose(x[y == d] - means[d][None, :], 0.0, atol=1e-12)
        assert ds.ground_truth.teacher_dominant == [[], [], []]

    def test_full_dominance_attenuates_everything(self):
        cfg = small_config(teacher_dominance=1.0, noise_sigma=0.0)
        ds, _ = generate(cfg)
        assert [len(v) for v in ds.ground_truth.teacher_dominant] == [4, 4, 4]
        x_s, y_s = ds.split_arrays("student", "train")
        x_t, y_t = ds.split_arrays("teacher", "train")
        # attenuated student signal is 10x smaller in norm, modulo mixing draw
        s_norm = np.linalg.norm(x_s[y_s == 0][0])
        t_norm = np.linalg.norm(x_t[y_t == 0][0])
        assert s_norm < t_norm / 3.0

    def test_sigma_zero_class_means_exact(self):
        cfg = small_config(noise_sigma=0.0)
        ds, _ = generate(cfg)
        means = ds.ground_truth.class_profiles @ ds.ground_truth.mixing_teacher
        x, y = ds.split_arrays("teacher", "test")
        for d in range(3):
            assert np.array_equal(x[y == d], np.tile(means[d], (int((y == d).sum()), 1)))

    def test_same_seed_identical(self):
        a, pool_a = generate(small_config())
        b, pool_b = generate(small_config())
        assert a == b
        np.testing.assert_array_equal(pool_a.embedding_matrix(), pool_b.embedding_matrix())

    def test_different_seed_differs(self):
        a, _ = generate(small_config(seed=1))
        b, _ = generate(small_config(seed=2))
        assert a != b


def written(tmp_path) -> tuple[SyntheticDataset, Path]:
    ds, _ = generate(small_config())
    write_dataset(ds, tmp_path / "data")
    return ds, tmp_path / "data"


def rewrite_arrays(directory: Path, changes: dict) -> None:
    """Save arrays.npz again with some arrays replaced; a value of None drops one."""
    path = directory / "arrays.npz"
    with np.load(path) as npz:
        columns = {key: npz[key] for key in npz.files}
    for key, value in changes.items():
        if value is None:
            del columns[key]
        else:
            columns[key] = value
    np.savez(path, **columns)


def rewrite_meta(directory: Path, edit) -> None:
    """Save meta.json again after ``edit`` has changed its parsed dict in place."""
    path = directory / "meta.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        ds, directory = written(tmp_path)
        assert read_dataset(directory) == ds  # columns and ground truth

    def test_default_config_reads_back(self, tmp_path):
        ds, _ = generate(GeneratorConfig())
        write_dataset(ds, tmp_path / "data")
        assert read_dataset(tmp_path / "data") == ds

    def test_write_is_deterministic(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "a")
        write_dataset(ds, tmp_path / "b")
        for name in ("meta.json", "arrays.npz"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_meta_file(self, tmp_path):
        _, directory = written(tmp_path)
        (directory / "meta.json").unlink()
        with pytest.raises(FileNotFoundError, match="meta.json"):
            read_dataset(directory)

    def test_missing_split_file(self, tmp_path):
        _, directory = written(tmp_path)
        (directory / "arrays.npz").unlink()
        with pytest.raises(FileNotFoundError, match="arrays.npz"):
            read_dataset(directory)

    @pytest.mark.parametrize("key", ["config", "teacher_dominant"])
    def test_meta_without_key_rejected(self, tmp_path, key):
        _, directory = written(tmp_path)
        rewrite_meta(directory, lambda meta: meta.pop(key))
        with pytest.raises(ValueError, match=rf"meta\.json: missing {key}"):
            read_dataset(directory)

    @pytest.mark.parametrize("text, message", [
        ("{", r"meta\.json: not valid JSON"),
        ("[]", r"meta\.json: expected a JSON object, got list"),
    ], ids=["truncated", "list"])
    def test_meta_not_an_object_rejected(self, tmp_path, text, message):
        _, directory = written(tmp_path)
        (directory / "meta.json").write_text(text)
        with pytest.raises(ValueError, match=message):
            read_dataset(directory)

    def test_meta_unknown_config_key_rejected(self, tmp_path):
        _, directory = written(tmp_path)
        rewrite_meta(directory, lambda meta: meta["config"].update(mixing_rank=4))
        with pytest.raises(ValueError, match=r"meta\.json: unknown config keys mixing_rank"):
            read_dataset(directory)

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.update(config=5), "config must be an object, got int"),
        (lambda meta: meta["config"]["counts"].pop("teacher"),
         r"invalid config: counts has no \[teacher\]\[train\] entry"),
        (lambda meta: meta["config"].update(noise_sigma="0.2"),
         "invalid config: must be real number, not str"),
        (lambda meta: meta["config"]["counts"]["teacher"]["val"].__setitem__(0, 2.5),
         r"invalid config: counts\[teacher\]\[val\] must hold integers"),
        (lambda meta: meta["config"]["counts"]["teacher"]["val"].__setitem__(0, True),
         r"invalid config: counts\[teacher\]\[val\] must hold integers"),
        (lambda meta: meta.update(teacher_dominant=3),
         "teacher_dominant must be a list of integer lists"),
        (lambda meta: meta.update(teacher_dominant=[[999]]),
         r"teacher_dominant has 1 rows, expected one per class \(3\)"),
        (lambda meta: meta["teacher_dominant"][1].__setitem__(0, 999),
         r"teacher_dominant row 1 must hold distinct indices of class 1's concepts, \[4, 8\)"),
        (lambda meta: meta["teacher_dominant"][2].__setitem__(0, 4),
         r"teacher_dominant row 2 must hold distinct indices"),
        (lambda meta: meta["teacher_dominant"][0].__setitem__(1, meta["teacher_dominant"][0][0]),
         r"teacher_dominant row 0 must hold distinct indices"),
    ], ids=["config_not_object", "counts_without_teacher", "string_noise_sigma",
            "float_count", "bool_count", "teacher_dominant_not_list",
            "teacher_dominant_row_count", "teacher_dominant_past_block",
            "teacher_dominant_other_block", "teacher_dominant_repeat"])
    def test_malformed_meta_values_rejected(self, tmp_path, edit, message):
        _, directory = written(tmp_path)
        rewrite_meta(directory, edit)
        with pytest.raises(ValueError, match=rf"meta\.json: {message}"):
            read_dataset(directory)

    def test_truncated_arrays_rejected(self, tmp_path):
        _, directory = written(tmp_path)
        path = directory / "arrays.npz"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match=r"arrays\.npz: unreadable array file"):
            read_dataset(directory)

    def test_schema_violation_reported(self, tmp_path):
        # a missing array is named with its (modality, split)
        _, directory = written(tmp_path)
        rewrite_arrays(directory, {"teacher.val.y": None})
        with pytest.raises(ValueError,
                           match=r"\(teacher, val\): missing array 'teacher\.val\.y'"):
            read_dataset(directory)

    def test_wrong_dtype_rejected(self, tmp_path):
        ds, directory = written(tmp_path)
        _, y = ds.split_arrays("student", "test")
        rewrite_arrays(directory, {"student.test.y": y.astype(np.float64)})
        with pytest.raises(ValueError, match=r"\(student, test\): 'student\.test\.y' is 1-D "
                                             r"float64, expected 1-D int64"):
            read_dataset(directory)

    def test_feature_width_checked_against_meta(self, tmp_path):
        ds, directory = written(tmp_path)
        x, _ = ds.split_arrays("student", "test")
        rewrite_arrays(directory, {"student.test.x": x[:, :-2]})
        with pytest.raises(ValueError, match=r"\(student, test\): 6 features, "
                                             r"meta.json feature_dim is 8"):
            read_dataset(directory)

    def test_row_counts_checked_against_meta(self, tmp_path):
        ds, directory = written(tmp_path)
        x, y = ds.split_arrays("teacher", "val")
        rewrite_arrays(directory, {"teacher.val.x": x[:-1], "teacher.val.y": y[:-1]})
        with pytest.raises(ValueError, match=r"\(teacher, val\): rows per class \[5, 4, 2\]"):
            read_dataset(directory)

    def test_label_out_of_range_rejected(self, tmp_path):
        ds, directory = written(tmp_path)
        _, y = ds.split_arrays("student", "train")
        bad = y.copy()
        bad[3] = 3
        rewrite_arrays(directory, {"student.train.y": bad})
        with pytest.raises(ValueError, match=r"\(student, train\): label outside \[0, 3\)"):
            read_dataset(directory)

    def test_nan_feature_rejected(self, tmp_path):
        ds, directory = written(tmp_path)
        x, _ = ds.split_arrays("teacher", "train")
        bad = x.copy()
        bad[2, 5] = np.nan
        rewrite_arrays(directory, {"teacher.train.x": bad})
        with pytest.raises(ValueError, match=r"\(teacher, train\): features must be finite"):
            read_dataset(directory)

    def test_object_array_rejected(self, tmp_path):
        # loading never unpickles: an object array is refused, not executed
        _, directory = written(tmp_path)
        labels = np.array([{"label": 0}] * 20, dtype=object)
        rewrite_arrays(directory, {"student.train.y": labels})
        with pytest.raises(ValueError, match="unreadable array file.*allow_pickle"):
            read_dataset(directory)
