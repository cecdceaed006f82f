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
        # generate ignores unknown counts keys, so they would only be stored
        counts = small_config().counts
        counts["extra"] = {"train": [1, 1, 1], "val": [1, 1, 1], "test": [1, 1, 1]}
        with pytest.raises(ValueError, match=r"counts has unknown keys \[extra\]$"):
            small_config(counts=counts)
        counts = small_config().counts
        counts["teacher"]["tset"] = [1, 2]
        with pytest.raises(ValueError, match=r"counts has unknown keys \[teacher\]\[tset\]$"):
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

    def test_tuple_counts_read_back_equal(self, tmp_path):
        counts = {m: {s: tuple(c) for s, c in splits.items()}
                  for m, splits in small_config().counts.items()}
        ds, _ = generate(small_config(counts=counts))
        assert ds.config == small_config()  # lists, as meta.json reads them back
        write_dataset(ds, tmp_path / "data")
        assert read_dataset(tmp_path / "data") == ds

    def test_written_arrays(self, tmp_path):
        # no array is stored: the config regenerates them all
        ds, directory = written(tmp_path)
        assert [p.name for p in directory.iterdir()] == ["meta.json"]
        meta = json.loads((directory / "meta.json").read_text())
        assert sorted(meta) == ["config", "crc32"]
        assert meta["config"] == asdict(ds.config)
        assert type(meta["crc32"]) is int

    def test_default_config_reads_back(self, tmp_path):
        ds, _ = generate(GeneratorConfig())
        write_dataset(ds, tmp_path / "data")
        assert read_dataset(tmp_path / "data") == ds

    def test_write_is_deterministic(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "a")
        write_dataset(ds, tmp_path / "b")
        assert (tmp_path / "a" / "meta.json").read_bytes() == \
            (tmp_path / "b" / "meta.json").read_bytes()

    def test_missing_meta_file(self, tmp_path):
        _, directory = written(tmp_path)
        (directory / "meta.json").unlink()
        with pytest.raises(FileNotFoundError, match="meta.json"):
            read_dataset(directory)

    @pytest.mark.parametrize("key", ["config", "crc32"])
    def test_meta_without_key_rejected(self, tmp_path, key):
        _, directory = written(tmp_path)
        rewrite_meta(directory, lambda meta: meta.pop(key))
        with pytest.raises(ValueError, match=rf"meta\.json: missing {key}"):
            read_dataset(directory)

    def test_meta_unknown_key_rejected(self, tmp_path):
        _, directory = written(tmp_path)
        rewrite_meta(directory, lambda meta: meta.update(note="x", arrays=[]))
        with pytest.raises(ValueError, match=r"meta\.json: unknown keys arrays, note$"):
            read_dataset(directory)

    @pytest.mark.parametrize("text, message", [
        ("{", r"meta\.json: not valid JSON"),
        ("[]", r"meta\.json: expected a JSON object, got list"),
        # json's own ValueError for an int of over 4300 digits is not a JSONDecodeError
        ('{"crc32": ' + "1" * 5000 + "}", r"meta\.json: not valid JSON"),
    ], ids=["truncated", "list", "too_many_digits"])
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
        (lambda meta: meta["config"].update(noise_sigma=10**400),  # was an OverflowError
         "invalid config: noise_sigma must be finite, got 1000"),
        (lambda meta: meta["config"]["counts"]["teacher"]["val"].__setitem__(0, 2.5),
         r"invalid config: counts\[teacher\]\[val\] must hold integers"),
        (lambda meta: meta["config"]["counts"]["teacher"]["val"].__setitem__(0, True),
         r"invalid config: counts\[teacher\]\[val\] must hold integers"),
        (lambda meta: meta["config"]["counts"]["student"].update(tset=[1]),
         r"invalid config: counts has unknown keys \[student\]\[tset\]$"),
        (lambda meta: meta["config"].update(seed=-5),
         "invalid config: seed must be an integer >= 0, got -5"),
        (lambda meta: meta["config"].update(attenuation=True),
         "invalid config: attenuation must be a real number, got True"),
        (lambda meta: meta["config"].update(class_names="abc"),
         "invalid config: class_names must be strings in a list or tuple, got 'abc'"),
    ], ids=["config_not_object", "counts_without_teacher", "string_noise_sigma",
            "huge_int_noise_sigma", "float_count", "bool_count", "unknown_split", "negative_seed",
            "bool_attenuation", "string_class_names"])
    def test_malformed_meta_values_rejected(self, tmp_path, edit, message):
        _, directory = written(tmp_path)
        rewrite_meta(directory, edit)
        with pytest.raises(ValueError, match=rf"meta\.json: {message}"):
            read_dataset(directory)

    @pytest.mark.parametrize("case", ["old_format"])
    def test_unknown_arrays_rejected(self, tmp_path, case):
        # the older format stored teacher_dominant in meta.json and the columns in
        # arrays.npz; it has no crc32, so it is refused rather than misread
        ds, _ = generate(small_config())
        directory = tmp_path / "data"
        directory.mkdir()
        meta = {"config": asdict(ds.config),
                "teacher_dominant": ds.ground_truth.teacher_dominant}
        (directory / "meta.json").write_text(json.dumps(meta))
        np.savez(directory / "arrays.npz", mixing_teacher=ds.ground_truth.mixing_teacher,
                 **{f"{m}.{s}.{c}": a for (m, s), pair in ds.arrays.items()
                    for c, a in zip("xy", pair)})
        with pytest.raises(ValueError, match=r"meta\.json: missing crc32$"):
            read_dataset(directory)

    def test_edited_seed_rejected(self, tmp_path):
        _, directory = written(tmp_path)
        rewrite_meta(directory, lambda meta: meta["config"].update(seed=8))
        with pytest.raises(ValueError, match=r"meta\.json: crc32 is \d+, but the config "
                                             r"generates a dataset with crc32 \d+$"):
            read_dataset(directory)

    def test_edited_crc_rejected(self, tmp_path):
        _, directory = written(tmp_path)
        rewrite_meta(directory, lambda meta: meta.update(crc32=meta["crc32"] ^ 1))
        with pytest.raises(ValueError, match=r"meta\.json: crc32 is \d+, but the config"):
            read_dataset(directory)

    def test_dataset_generate_did_not_produce_rejected(self, tmp_path):
        # the writer stores what the dataset holds; the reader sees that it differs
        ds, _ = generate(small_config())
        ds.records.pop()
        write_dataset(ds, tmp_path / "data")
        with pytest.raises(ValueError, match=r"meta\.json: crc32 is \d+, but the config"):
            read_dataset(tmp_path / "data")
