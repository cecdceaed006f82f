import json
import re
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
        with pytest.raises(ValueError, match="teacher_dominance must be <= 1, got 1.5"):
            small_config(teacher_dominance=1.5)
        for name in ("teacher_dominance", "noise_sigma"):
            with pytest.raises(ValueError, match=rf"{name} must be >= 0, got -0\.1$"):
                small_config(**{name: -0.1})
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
        # a bool is not a count, and a NumPy integer would break json.dump in write_dataset
        for name, value, low in [
            ("concepts_per_class", True, 1), ("concepts_per_class", 2.5, 1),
            ("concepts_per_class", 0, 1), ("feature_dim", 0, 1), ("feature_dim", 2.5, 1),
            ("embed_dim", 0, 1), ("embed_dim", np.int64(6), 1), ("seed", True, 0),
            ("seed", -1, 0),
        ]:
            with pytest.raises(ValueError, match=rf"{name} must be an integer >= {low}, "
                                                 rf"got {re.escape(repr(value))}$"):
                small_config(**{name: value})
        with pytest.raises(ValueError, match="class names must be distinct"):
            small_config(class_names=["a", "a", "b"])
        # real fields take an int or a float, not a bool or a string
        for name, value in [
            ("attenuation", True), ("attenuation", "0.1"), ("noise_sigma", "0.5"),
            ("noise_sigma", False), ("teacher_dominance", True), ("teacher_dominance", None),
        ]:
            with pytest.raises(ValueError, match=rf"{name} must be a real number, "
                                                 rf"got {re.escape(repr(value))}$"):
                small_config(**{name: value})
        with pytest.raises(ValueError, match=r"teacher_dominance must be finite, got nan$"):
            small_config(teacher_dominance=float("nan"))
        with pytest.raises(ValueError, match=r"attenuation must be >= 0, got -3\.0$"):
            small_config(attenuation=-3.0)
        assert small_config(attenuation=0, noise_sigma=1, teacher_dominance=1).attenuation == 0
        with pytest.raises(ValueError, match=r"class_names must be strings"):
            small_config(class_names=list(range(9)), counts=GeneratorConfig().counts)
        # a bare string is not nine one-letter classes
        for value in ("abcdefghi", None, {"a": 0, "b": 1, "c": 2}):
            with pytest.raises(ValueError, match=r"class_names must be strings in a list or "
                                                 rf"tuple, got {re.escape(repr(value))}$"):
                small_config(class_names=value, counts=GeneratorConfig().counts)
        assert small_config(class_names=("a", "b", "c")).class_names == ["a", "b", "c"]

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
        gt = ds.ground_truth
        for modality, mixing in (("student", gt.mixing_student), ("teacher", gt.mixing_teacher)):
            means = gt.class_profiles @ mixing
            x, y = ds.split_arrays(modality, "test")
            for d in range(3):
                assert np.array_equal(x[y == d], np.tile(means[d], (int((y == d).sum()), 1)))

    def test_derived_ground_truth(self):
        ds, _ = generate(small_config())
        gt = ds.ground_truth
        assert gt.config is ds.config
        blocks = [[1.0 if i // 4 == d else 0.0 for i in range(12)] for d in range(3)]
        assert np.array_equal(gt.class_profiles, np.array(blocks))
        dominant = sorted(sum(gt.teacher_dominant, []))
        rest = sorted(set(range(12)) - set(dominant))
        assert len(dominant) == 6
        student, teacher = gt.mixing_student, gt.mixing_teacher
        assert np.array_equal(student[rest], teacher[rest])
        assert np.array_equal(student[dominant], ds.config.attenuation * teacher[dominant])

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

    def test_tuple_class_names_read_back_equal(self, tmp_path):
        ds, _ = generate(small_config(class_names=("a", "b", "c")))
        write_dataset(ds, tmp_path / "data")
        assert read_dataset(tmp_path / "data") == ds

    def test_written_arrays(self, tmp_path):
        _, directory = written(tmp_path)
        with np.load(directory / "arrays.npz") as npz:
            keys = sorted(npz.files)
        assert keys == sorted(["mixing_teacher"] + [
            f"{modality}.{split}.{column}" for modality in ("student", "teacher")
            for split in ("train", "val", "test") for column in "xy"])
        assert len(keys) == 13

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
         "invalid config: noise_sigma must be a real number, got '0.2'"),
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
        (lambda meta: meta["teacher_dominant"][1].pop(),
         r"teacher_dominant row 1 has 1 indices, expected round\(teacher_dominance \* 4\) = 2"),
        (lambda meta: meta["config"].update(seed=-5),
         "invalid config: seed must be an integer >= 0, got -5"),
        (lambda meta: meta["config"].update(attenuation=True),
         "invalid config: attenuation must be a real number, got True"),
        (lambda meta: meta["config"].update(class_names="abc"),
         "invalid config: class_names must be strings in a list or tuple, got 'abc'"),
    ], ids=["config_not_object", "counts_without_teacher", "string_noise_sigma",
            "float_count", "bool_count", "teacher_dominant_not_list",
            "teacher_dominant_row_count", "teacher_dominant_past_block",
            "teacher_dominant_other_block", "teacher_dominant_repeat",
            "teacher_dominant_row_cut", "negative_seed", "bool_attenuation",
            "string_class_names"])
    def test_malformed_meta_values_rejected(self, tmp_path, edit, message):
        _, directory = written(tmp_path)
        rewrite_meta(directory, edit)
        with pytest.raises(ValueError, match=rf"meta\.json: {message}"):
            read_dataset(directory)

    def test_default_dataset_with_cut_dominant_row_rejected(self, tmp_path):
        ds, _ = generate(GeneratorConfig())
        write_dataset(ds, tmp_path / "data")
        rewrite_meta(tmp_path / "data", lambda meta: meta["teacher_dominant"][0].__delitem__(
            slice(1, None)))
        with pytest.raises(ValueError, match=r"meta\.json: teacher_dominant row 0 has 1 indices, "
                                             r"expected round\(teacher_dominance \* 10\) = 6"):
            read_dataset(tmp_path / "data")

    @pytest.mark.parametrize("case, unknown", [
        ("unattenuated", "mixing_student"),
        ("extra_row", "mixing_student"),
        ("old_format", "class_profiles, mixing_student"),
        ("wrong_profiles_and_junk", "class_profiles, junk"),
    ], ids=["unattenuated", "extra_row", "old_format", "wrong_profiles_and_junk"])
    def test_unknown_arrays_rejected(self, tmp_path, case, unknown):
        # class_profiles and mixing_student are derived, so a file holding either is refused
        ds, directory = written(tmp_path)
        gt = ds.ground_truth
        if case == "unattenuated":
            change = {"mixing_student": gt.mixing_teacher}
        elif case == "extra_row":
            student = gt.mixing_student
            free = min(set(range(len(student))) - set(sum(gt.teacher_dominant, [])))
            student[free] *= ds.config.attenuation
            change = {"mixing_student": student}
        elif case == "old_format":
            change = {"class_profiles": gt.class_profiles, "mixing_student": gt.mixing_student}
        else:
            change = {"class_profiles": np.full((3, 5), 7.0), "junk": np.zeros(2)}
        rewrite_arrays(directory, change)
        with pytest.raises(ValueError, match=rf"arrays\.npz: unknown arrays {unknown}$"):
            read_dataset(directory)

    def test_mixing_shape_checked(self, tmp_path):
        ds, directory = written(tmp_path)
        rewrite_arrays(directory, {"mixing_teacher": ds.ground_truth.mixing_teacher[:-1]})
        with pytest.raises(ValueError, match=r"mixing_teacher is \(11, 8\), expected \(12, 8\)"):
            read_dataset(directory)

    def test_nan_mixing_rejected(self, tmp_path):
        ds, directory = written(tmp_path)
        bad = ds.ground_truth.mixing_teacher.copy()
        bad[1, 2] = np.nan
        rewrite_arrays(directory, {"mixing_teacher": bad})
        with pytest.raises(ValueError, match=r"arrays\.npz \(ground truth\): "
                                             r"mixing_teacher must be finite"):
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
