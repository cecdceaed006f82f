import json

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
        num_classes=3,
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
        assert cfg.class_names == DEFAULT_CLASS_NAMES
        assert sum(cfg.counts["student"]["train"]) > 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(num_classes=1, class_names=["a"],
                         counts={"student": {"train": [1], "val": [1], "test": [1]},
                                 "teacher": {"train": [1], "val": [1], "test": [1]}})
        with pytest.raises(ValueError):
            small_config(teacher_dominance=1.5)
        with pytest.raises(ValueError):
            small_config(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            small_config(class_names=["a", "b"])

    def test_round_trip_dict(self):
        cfg = small_config()
        assert GeneratorConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


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

    def test_indices_unique_across_splits(self, tmp_path):
        # the written indices number every row of every split exactly once
        cfg = small_config()
        ds, _ = generate(cfg)
        write_dataset(ds, tmp_path / "data")
        indices = [json.loads(line)["index"]
                   for split in ("train", "val", "test")
                   for line in (tmp_path / "data" / f"{split}.jsonl").read_text().splitlines()]
        total = sum(sum(c) for by_split in cfg.counts.values() for c in by_split.values())
        assert sorted(indices) == list(range(total))


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "data")
        again = read_dataset(tmp_path / "data")
        assert again == ds

    def test_shuffled_lines_read_back_in_generation_order(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "data")
        rng = np.random.default_rng(0)
        for split in ("train", "val", "test"):
            path = tmp_path / "data" / f"{split}.jsonl"
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[i] for i in rng.permutation(len(lines))) + "\n")
        assert read_dataset(tmp_path / "data") == ds

    def test_truncated_line_reports_lineno(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "data")
        path = tmp_path / "data" / "val.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"val\.jsonl:3"):
            read_dataset(tmp_path / "data")

    def test_feature_width_checked_against_meta(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "data")
        path = tmp_path / "data" / "test.jsonl"
        lines = path.read_text().splitlines()
        short = json.loads(lines[4])
        short["features"] = short["features"][:-2]
        lines[4] = json.dumps(short)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"test\.jsonl:5: 6 features, meta.json feature_dim is 8"):
            read_dataset(tmp_path / "data")

    def test_row_counts_checked_against_meta(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "data")
        path = tmp_path / "data" / "val.jsonl"
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ValueError, match=r"val\.jsonl: teacher rows per class \[5, 4, 2\]"):
            read_dataset(tmp_path / "data")

    def test_missing_split_file(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "data")
        (tmp_path / "data" / "test.jsonl").unlink()
        with pytest.raises(FileNotFoundError, match="test.jsonl"):
            read_dataset(tmp_path / "data")

    def test_split_overlap_detected(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "data")
        train = (tmp_path / "data" / "train.jsonl").read_text().splitlines()
        val_path = tmp_path / "data" / "val.jsonl"
        val_path.write_text(train[0] + "\n" + val_path.read_text())
        with pytest.raises(ValueError, match="appears in splits"):
            read_dataset(tmp_path / "data")

    def test_external_schema_without_index_loads(self, tmp_path):
        # records carrying only modality/features/label must load fine
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "data")
        for split in ("train", "val", "test"):
            path = tmp_path / "data" / f"{split}.jsonl"
            rows = []
            for line in path.read_text().splitlines():
                payload = json.loads(line)
                payload.pop("index")
                rows.append(json.dumps(payload))
            path.write_text("\n".join(rows) + "\n")
        again = read_dataset(tmp_path / "data")
        x_a, y_a = again.split_arrays("student", "train")
        x_b, y_b = ds.split_arrays("student", "train")
        np.testing.assert_array_equal(x_a, x_b)
        np.testing.assert_array_equal(y_a, y_b)

    def test_schema_violation_reported(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "data")
        path = tmp_path / "data" / "train.jsonl"
        lines = path.read_text().splitlines()
        bad = json.loads(lines[0])
        del bad["label"]
        lines[0] = json.dumps(bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="schema"):
            read_dataset(tmp_path / "data")

    def test_write_is_deterministic(self, tmp_path):
        ds, _ = generate(small_config())
        write_dataset(ds, tmp_path / "a")
        write_dataset(ds, tmp_path / "b")
        for name in ("meta.json", "train.jsonl", "val.jsonl", "test.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
