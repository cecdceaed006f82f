import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistill import autodiff as ad
from conceptdistill.autodiff import Matrix, ShapeError, Tape, backward, finite_diff_grad
from conceptdistill.concepts import ConceptPool
from conceptdistill.model import (
    ModelBinding,
    ModelParams,
    Prediction,
    concept_similarity,
    cross_entropy,
    encode,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)

from test_concepts import make_pool


def simple_params(feature_dim=3, pool=None, num_classes=2, seed=0, hidden=()):
    pool = pool or make_pool({"a": 2, "b": 2}, dim=2)
    return pool, init_params("student", feature_dim, pool, num_classes, seed, hidden)


class TestEncode:
    def test_zero_weights_give_zero_rows(self):
        pool, params = simple_params()
        params.arrays["encoder.0.weight"][:] = 0.0
        out = encode(params, np.ones((2, 3)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_identity_on_unit_features(self):
        pool = make_pool({"a": 2}, dim=3)
        params = init_params("student", 3, pool, 2, seed=0)
        params.arrays["encoder.0.weight"][:] = np.eye(3)
        params.arrays["encoder.0.bias"][:] = 0.0
        feats = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(encode(params, feats).data, feats, atol=1e-12)

    def test_frozen_regression_fixture(self):
        pool = make_pool({"a": 2}, dim=2)
        params = init_params("student", 3, pool, 2, seed=0)
        params.arrays["encoder.0.weight"][:] = np.array([[0.5, -0.2], [0.1, 0.4], [-0.3, 0.2]])
        params.arrays["encoder.0.bias"][:] = np.array([[0.05, -0.05]])
        feats = np.array([[0.2, -1.0, 0.5], [1.5, 0.3, -0.7]])
        out = encode(params, feats)
        # computed once with this module and pinned; features @ weight + bias
        expected = np.array([
            [-0.09999999999999999, -0.39000000000000007],
            [1.04, -0.37000000000000005],
        ])
        np.testing.assert_allclose(out.data, expected, atol=1e-15)
        # the unit rows concept_similarity scores
        unit = np.array([
            [-0.24837535026770377, -0.968663866044045],
            [0.9421511282491905, -0.33518838216557745],
        ])
        np.testing.assert_allclose(ad.l2_normalize_rows(out).data, unit, atol=1e-15)

    def test_dimension_mismatch(self):
        pool, params = simple_params(feature_dim=3)
        with pytest.raises(ShapeError):
            encode(params, np.ones((2, 4)))

    def test_hidden_layers_shape(self):
        pool = make_pool({"a": 3}, dim=4)
        params = init_params("student", 6, pool, 3, seed=1, hidden=(5, 7))
        out = encode(params, np.random.default_rng(0).standard_normal((2, 6)))
        assert out.shape == (2, 4)
        with pytest.raises(ValueError):
            init_params("student", 6, pool, 3, seed=1, hidden=(5, 7, 9))


class TestConceptSimilarity:
    def test_matching_concept_scores_one(self):
        pool = make_pool({"a": 4}, dim=8)
        emb = pool.embeddings[2].reshape(1, -1)
        sims = concept_similarity(emb, pool).data
        assert sims[0, 2] == pytest.approx(1.0)

    def test_orthogonal_scores_zero(self):
        v = np.zeros(4)
        v[0] = 1.0
        w = np.zeros(4)
        w[1] = 1.0
        pool = ConceptPool(["c"], [v])
        sims = concept_similarity(w.reshape(1, -1), pool).data
        assert sims[0, 0] == pytest.approx(0.0)

    def test_45_degree_pair(self):
        v = np.array([1.0, 0.0])
        pool = ConceptPool(["c"], [v])
        emb = np.array([[1.0, 1.0]])
        sims = concept_similarity(emb, pool).data
        assert sims[0, 0] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_bounded_entries(self):
        rng = np.random.default_rng(0)
        pool = make_pool({"a": 5, "b": 5}, dim=6)
        sims = concept_similarity(rng.standard_normal((10, 6)) * 3.0, pool).data
        assert np.all(np.abs(sims) <= 1.0 + 1e-12)

    def test_dim_mismatch(self):
        pool = make_pool({"a": 2}, dim=4)
        with pytest.raises(ShapeError):
            concept_similarity(np.ones((1, 5)), pool)

    def test_pool_operand_built_once(self):
        pool = make_pool({"a": 4, "b": 3}, dim=6)
        concepts_t = pool.embeddings_t.data
        assert concepts_t.flags.c_contiguous and not concepts_t.flags.writeable
        np.testing.assert_array_equal(concepts_t, pool.embeddings.T)
        emb = np.random.default_rng(1).standard_normal((5, 6))
        first = concept_similarity(emb, pool)
        assert pool.embeddings_t.data is concepts_t
        # bit-equal to normalising and multiplying by a fresh transposed copy
        unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        np.testing.assert_array_equal(first.data, unit @ pool.embeddings.T.copy())


class TestPredict:
    def test_zero_classifier_uniform(self):
        pool, params = simple_params(num_classes=4)
        params.arrays["classifier.weight"][:] = 0.0
        sims = np.random.default_rng(0).uniform(-1, 1, (3, len(pool)))
        pred = predict(sims, params)
        np.testing.assert_allclose(pred.probabilities.data, 0.25, atol=1e-12)

    def test_strong_weight_dominates(self):
        pool = make_pool({"a": 3}, dim=4)
        params = init_params("student", 4, pool, 3, seed=0)
        params.arrays["classifier.weight"][:] = 0.0
        params.arrays["classifier.weight"][1, 2] = 20.0  # concept 1 votes class 2
        sims = np.zeros((1, 3))
        sims[0, 1] = 1.0
        pred = predict(sims, params)
        assert pred.probabilities.data[0, 2] > 0.99
        assert pred.predicted_class[0] == 2

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pool, params = simple_params(num_classes=3)
        n = len(pool)
        sims = rng.uniform(-1, 1, (5, n))
        base = predict(sims, params).probabilities.data
        perm = rng.permutation(n)
        permuted = params.copy()
        permuted.arrays["classifier.weight"] = params.arrays["classifier.weight"][perm]
        shuffled = predict(sims[:, perm], permuted).probabilities.data
        np.testing.assert_allclose(shuffled, base, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        pool, params = simple_params(num_classes=5)
        pred = predict(rng.uniform(-1, 1, (7, len(pool))), params)
        np.testing.assert_allclose(pred.probabilities.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(pred.probabilities.data > 0)

    def test_argmax_tie_breaks_low(self):
        pool, params = simple_params(num_classes=2)
        params.arrays["classifier.weight"][:] = 0.0
        pred = predict(np.zeros((1, len(pool))), params)
        assert pred.predicted_class[0] == 0


class TestPredictionProbabilities:
    @staticmethod
    def probabilities(logits) -> np.ndarray:
        return Prediction(Matrix(logits)).probabilities.data

    def test_symmetry(self):
        np.testing.assert_allclose(self.probabilities([[0.0, 0.0]]), [[0.5, 0.5]])

    def test_large_inputs_no_overflow(self):
        out = self.probabilities([[1000.0, 0.0]])
        assert out[0, 0] > 1.0 - 1e-12
        assert out[0, 1] < 1e-12

    def test_direct_evaluation(self):
        out = self.probabilities([[1.0, 2.0, 3.0]])
        e = np.exp([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, (e / e.sum()).reshape(1, 3), atol=1e-12)
        np.testing.assert_allclose(out, [[0.0900, 0.2447, 0.6652]], atol=5e-5)

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=1, max_size=6), min_size=1, max_size=5)
           .filter(lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one_and_positive(self, rows):
        out = self.probabilities(rows)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)


class TestCrossEntropy:
    # inputs are logits; log(p) gives probabilities p, and -50 stands in for p = 0
    def test_probability_one_gives_zero(self):
        pred = Prediction(Matrix([[0.0, -50.0]]))
        assert cross_entropy(pred, [0]).item() == pytest.approx(0.0, abs=1e-10)

    def test_uniform_two_classes(self):
        pred = Prediction(Matrix(np.log([[0.5, 0.5]])))
        assert cross_entropy(pred, [0]).item() == pytest.approx(np.log(2))

    def test_hand_computed_batch(self):
        pred = Prediction(Matrix(np.log([[0.7, 0.3], [0.4, 0.6]])))
        want = -(np.log(0.7) + np.log(0.6)) / 2.0
        assert cross_entropy(pred, [0, 1]).item() == pytest.approx(want)
        assert want == pytest.approx(0.4338, abs=5e-5)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            cross_entropy(Prediction(Matrix(np.log([[0.5, 0.5]]))), [2])

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(3), size=4)
            labels = rng.integers(0, 3, 4)
            assert cross_entropy(Prediction(Matrix(np.log(p))), labels).item() >= 0.0

    def test_confidently_wrong_row_keeps_gradient(self):
        # the true class's probability underflows to 0; the row must still learn
        tape = Tape()
        logits = tape.leaf([[1000.0, 0.0]])
        loss = cross_entropy(Prediction(logits), [1])
        assert loss.item() == pytest.approx(1000.0)
        np.testing.assert_allclose(backward(tape, loss)[logits.slot], [[1.0, -1.0]])


class TestEndToEndGradient:
    def test_full_chain_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        pool = make_pool({"a": 3, "b": 3}, dim=4, seed=2)
        feats = rng.uniform(-1, 1, (4, 5))
        labels = rng.integers(0, 2, 4)

        def loss_fn(params):
            tape = Tape()
            binding = ModelBinding(params, tape)
            sims, pred = forward(binding, feats, pool)
            return tape, binding, cross_entropy(pred, labels)

        params = init_params("student", 5, pool, 2, seed=3)
        tape, binding, loss = loss_fn(params)
        grads = backward(tape, loss)
        for name, leaf in binding.leaves.items():
            analytic = grads.get(leaf.slot, np.zeros(leaf.shape))

            def f(m, name=name):
                trial = params.copy()
                trial.arrays[name][:] = m.data
                _, _, l = loss_fn(trial)
                return l.item()

            fd = finite_diff_grad(f, Matrix(params.arrays[name])).data
            err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            assert err < 1e-4, name


def _corrupt(payload: dict, case: str) -> None:
    """Edit a saved teacher's payload (hidden=(4,), pool of 8 concepts of dim 6)."""
    arrays = payload["arrays"]

    def resize(name, shape):
        arrays[name] = {"shape": shape, "values": arrays[name]["values"][: shape[0] * shape[1]]}

    if case == "nan_value":
        arrays["classifier.weight"]["values"][0] = float("nan")
    elif case == "string_value":
        arrays["encoder.0.bias"]["values"][1] = "0.5"
    elif case == "bool_value":
        arrays["encoder.0.bias"]["values"][1] = True
    elif case in ("missing_frozen", "missing_arrays"):
        del payload[case.removeprefix("missing_")]
    elif case == "frozen_not_bool":
        payload["frozen"] = "yes"
    elif case == "missing_array":
        del arrays["classifier.bias"]
    elif case == "extra_array":
        arrays["encoder.5.weight"] = arrays["encoder.1.weight"]
    elif case == "no_encoder":
        for name in [n for n in arrays if n.startswith("encoder.")]:
            del arrays[name]
    elif case == "short_values":
        arrays["encoder.1.weight"]["values"].pop()
    elif case == "bad_shape":
        arrays["classifier.bias"]["shape"] = [2]
    elif case == "unchained_widths":
        arrays["encoder.1.weight"]["shape"] = [6, 4]  # same count, rows != 4
    elif case == "bias_width":
        resize("classifier.bias", [1, 1])
    elif case == "pool_dim":  # chains, but ends at width 5, not the pool's 6
        resize("encoder.1.weight", [4, 5])
        resize("encoder.1.bias", [1, 5])
    elif case == "pool_size":  # 7 classifier rows for 8 concepts
        resize("classifier.weight", [7, 2])
    else:
        raise AssertionError(case)


class TestCheckpoints:
    @pytest.mark.parametrize("modality,hidden,frozen", [
        ("teacher", (4,), True),
        ("student", (5, 7), False),
    ], ids=["frozen_teacher", "unfrozen_student"])
    def test_round_trip(self, tmp_path, modality, hidden, frozen):
        pool = make_pool({"a": 4, "b": 4}, dim=6)
        params = init_params(modality, 7, pool, 2, seed=5, hidden=hidden)
        if frozen:
            params.freeze()
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path, pool)
        assert loaded.frozen is frozen
        assert loaded.modality == modality
        assert list(loaded.arrays) == list(params.arrays)  # layer order, not sorted
        for name, arr in params.arrays.items():
            np.testing.assert_array_equal(loaded.arrays[name], arr)
            assert loaded.arrays[name].flags.writeable is not frozen
        assert loaded.params_hash() == params.params_hash()

    @pytest.mark.parametrize("case", [
        "nan_value", "string_value", "bool_value", "missing_frozen", "missing_arrays",
        "frozen_not_bool", "missing_array", "extra_array", "no_encoder", "short_values",
        "bad_shape", "unchained_widths", "bias_width", "pool_dim", "pool_size",
    ])
    def test_malformed_file_rejected(self, tmp_path, case):
        pool = make_pool({"a": 4, "b": 4}, dim=6)
        path = tmp_path / "model.json"
        save_checkpoint(init_params("teacher", 7, pool, 2, seed=5, hidden=(4,)), path)
        payload = json.loads(path.read_text())
        _corrupt(payload, case)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path, pool)
        if not case.startswith("pool_"):  # these fit some other pool
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_checkpoint(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{ not json")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_pool_mismatch_rejected(self, tmp_path):
        pool = make_pool({"a": 4}, dim=6)
        other = make_pool({"b": 4}, dim=6)  # same embeddings, other ids
        params = init_params("student", 7, pool, 2, seed=5)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match="different concept pool"):
            load_checkpoint(path, other)

    def test_same_ids_other_embeddings_rejected(self, tmp_path):
        pool = make_pool({"a": 4}, dim=6, seed=0)
        other = make_pool({"a": 4}, dim=6, seed=1)
        params = init_params("student", 7, pool, 2, seed=5)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match="different concept pool"):
            load_checkpoint(path, other)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.json")

    def test_frozen_params_not_writable(self):
        pool = make_pool({"a": 2}, dim=4)
        params = init_params("teacher", 3, pool, 2, seed=0).freeze()
        with pytest.raises(ValueError):
            params.arrays["classifier.weight"][0, 0] = 1.0
        with pytest.raises(ValueError):
            ModelBinding(params, Tape())
