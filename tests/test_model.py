import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistill import autodiff as ad
from conceptdistill.autodiff import Matrix, ShapeError, Tape, backward
from conceptdistill.concepts import ConceptPool
from conceptdistill.model import (
    ModelBinding,
    ModelParams,
    Prediction,
    cross_entropy,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

from gradcheck import finite_diff_grad
from test_concepts import make_pool


def simple_params(feature_dim=3, pool=None, num_classes=2, seed=0, hidden=()):
    pool = pool or make_pool({"a": 2, "b": 2}, dim=2)
    return pool, init_params("student", feature_dim, pool, num_classes, seed, hidden)


def identity_pool(dim: int, order=None) -> ConceptPool:
    """``dim`` concepts, the unit axes in ``order``: a similarity row is the unit embedding row."""
    order = np.arange(dim) if order is None else np.asarray(order)
    return ConceptPool([f"axis{i}" for i in order], np.eye(dim)[order])


def identity_model(n: int, num_classes: int, seed: int = 0):
    """An identity pool of ``n`` concepts and a model whose encoder is the identity map."""
    pool = identity_pool(n)
    params = init_params("student", n, pool, num_classes, seed)
    params.arrays["encoder.0.weight"][:] = np.eye(n)
    return pool, params


def op_names(tape: Tape) -> list[str]:
    return [vjp.__qualname__.split(".")[0] for _, _, vjp in tape._ops]


class TestEncode:
    """The encoder, read through ``forward`` against an identity pool."""

    def test_zero_weights_give_zero_rows(self):
        pool = identity_pool(2)
        params = init_params("student", 3, pool, 2, seed=0)
        params.arrays["encoder.0.weight"][:] = 0.0
        sims, _ = forward(params, np.ones((2, 3)), pool)
        np.testing.assert_array_equal(sims.data, np.zeros((2, 2)))

    def test_identity_on_unit_features(self):
        pool = identity_pool(3)
        params = init_params("student", 3, pool, 2, seed=0)
        params.arrays["encoder.0.weight"][:] = np.eye(3)
        params.arrays["encoder.0.bias"][:] = 0.0
        feats = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(forward(params, feats, pool)[0].data, feats, atol=1e-12)

    def test_frozen_regression_fixture(self):
        pool = identity_pool(2)
        params = init_params("student", 3, pool, 2, seed=0)
        params.arrays["encoder.0.weight"][:] = np.array([[0.5, -0.2], [0.1, 0.4], [-0.3, 0.2]])
        params.arrays["encoder.0.bias"][:] = np.array([[0.05, -0.05]])
        feats = np.array([[0.2, -1.0, 0.5], [1.5, 0.3, -0.7]])
        # computed once with this module and pinned: features @ weight + bias ...
        expected = np.array([
            [-0.09999999999999999, -0.39000000000000007],
            [1.04, -0.37000000000000005],
        ])
        np.testing.assert_allclose(feats @ params.arrays["encoder.0.weight"]
                                   + params.arrays["encoder.0.bias"], expected, atol=1e-15)
        # ... and its unit rows, which the identity pool's similarity row returns
        unit = np.array([
            [-0.24837535026770377, -0.968663866044045],
            [0.9421511282491905, -0.33518838216557745],
        ])
        np.testing.assert_allclose(expected / np.linalg.norm(expected, axis=1, keepdims=True),
                                   unit, atol=1e-15)
        np.testing.assert_allclose(forward(params, feats, pool)[0].data, unit, atol=1e-15)

    def test_dimension_mismatch(self):
        pool, params = simple_params(feature_dim=3)
        with pytest.raises(ShapeError):
            forward(params, np.ones((2, 4)), pool)

    def test_hidden_layers_shape(self):
        pool = identity_pool(4)
        params = init_params("student", 6, pool, 3, seed=1, hidden=(5, 7))
        sims, pred = forward(params, np.random.default_rng(0).standard_normal((2, 6)), pool)
        assert sims.shape == (2, 4) and pred.logits.shape == (2, 3)
        np.testing.assert_allclose(np.linalg.norm(sims.data, axis=1), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            init_params("student", 6, pool, 3, seed=1, hidden=(5, 7, 9))

    @pytest.mark.parametrize("hidden", [(0,), (-3,), (4, 0), (2.5,), (4.0,), (True,), ("4",)])
    def test_hidden_size_must_be_a_positive_int(self, hidden):
        # a zero-width layer would make every embedding the last bias, silently
        with pytest.raises(ValueError, match="encoder_hidden"):
            init_params("student", 6, make_pool({"a": 3}, dim=4), 3, seed=1, hidden=hidden)


class TestConceptSimilarity:
    """The similarity stage against the pool's transposed rows, read through an identity encoder."""

    @staticmethod
    def similarity(emb, pool: ConceptPool) -> Matrix:
        k = emb.shape[1]  # x @ I + 0 is x exactly
        shapes = [(k, k), (1, k), (len(pool), 1), (1, 1)]
        params = ModelParams.of("student", {name: np.zeros(shape) for name, shape in zip(
            ["encoder.0.weight", "encoder.0.bias", "classifier.weight", "classifier.bias"],
            shapes)}, "")
        params.arrays["encoder.0.weight"][:] = np.eye(k)
        return ad.concept_model(emb, Matrix(params.flat), list(params.arrays.values()),
                                pool.embeddings_t)[0]

    def test_matching_concept_scores_one(self):
        pool = make_pool({"a": 4}, dim=8)
        emb = pool.embeddings[2].reshape(1, -1)
        sims = self.similarity(emb, pool).data
        assert sims[0, 2] == pytest.approx(1.0)

    def test_orthogonal_scores_zero(self):
        v = np.zeros(4)
        v[0] = 1.0
        w = np.zeros(4)
        w[1] = 1.0
        pool = ConceptPool(["c"], [v])
        sims = self.similarity(w.reshape(1, -1), pool).data
        assert sims[0, 0] == pytest.approx(0.0)

    def test_45_degree_pair(self):
        v = np.array([1.0, 0.0])
        pool = ConceptPool(["c"], [v])
        emb = np.array([[1.0, 1.0]])
        sims = self.similarity(emb, pool).data
        assert sims[0, 0] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_bounded_entries(self):
        rng = np.random.default_rng(0)
        pool = make_pool({"a": 5, "b": 5}, dim=6)
        sims = self.similarity(rng.standard_normal((10, 6)) * 3.0, pool).data
        assert np.all(np.abs(sims) <= 1.0 + 1e-12)

    def test_dim_mismatch(self):
        pool = make_pool({"a": 2}, dim=4)
        with pytest.raises(ShapeError):
            self.similarity(np.ones((1, 5)), pool)
        # an encoder whose output width is not the pool's: forward raises the same
        _, params = simple_params(feature_dim=3, pool=make_pool({"a": 2}, dim=5))
        with pytest.raises(ShapeError):
            forward(params, np.ones((1, 3)), pool)

    def test_pool_operand_built_once(self):
        pool = make_pool({"a": 4, "b": 3}, dim=6)
        concepts_t = pool.embeddings_t.data
        assert concepts_t.flags.c_contiguous and not concepts_t.flags.writeable
        np.testing.assert_array_equal(concepts_t, pool.embeddings.T)
        emb = np.random.default_rng(1).standard_normal((5, 6))
        first = self.similarity(emb, pool)
        assert pool.embeddings_t.data is concepts_t
        # bit-equal to normalising and multiplying by a fresh transposed copy
        unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        np.testing.assert_array_equal(first.data, unit @ pool.embeddings.T.copy())


class TestPredict:
    """The classifier, read through ``forward`` with an identity encoder and an identity pool.

    The classifier then sees each feature row scaled to unit length.
    """

    def test_zero_classifier_uniform(self):
        pool, params = identity_model(4, num_classes=4)
        params.arrays["classifier.weight"][:] = 0.0
        feats = np.random.default_rng(0).uniform(-1, 1, (3, 4))
        _, pred = forward(params, feats, pool)
        np.testing.assert_allclose(pred.probabilities.data, 0.25, atol=1e-12)

    def test_strong_weight_dominates(self):
        pool, params = identity_model(3, num_classes=3)
        params.arrays["classifier.weight"][:] = 0.0
        params.arrays["classifier.weight"][1, 2] = 20.0  # concept 1 votes class 2
        feats = np.zeros((1, 3))
        feats[0, 1] = 1.0
        _, pred = forward(params, feats, pool)
        assert pred.probabilities.data[0, 2] > 0.99
        assert pred.predicted_class[0] == 2

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(4)
        n = 4
        pool, params = identity_model(n, num_classes=3)
        feats = rng.uniform(-1, 1, (5, n))
        base = forward(params, feats, pool)[1].probabilities.data
        perm = rng.permutation(n)
        permuted = params.copy()
        permuted.arrays["classifier.weight"][:] = params.arrays["classifier.weight"][perm]
        shuffled = forward(permuted, feats, identity_pool(n, perm))[1].probabilities.data
        np.testing.assert_allclose(shuffled, base, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        pool, params = identity_model(4, num_classes=5)
        _, pred = forward(params, rng.uniform(-1, 1, (7, 4)), pool)
        np.testing.assert_allclose(pred.probabilities.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(pred.probabilities.data > 0)

    def test_argmax_tie_breaks_low(self):
        pool, params = identity_model(4, num_classes=2)
        params.arrays["classifier.weight"][:] = 0.0
        _, pred = forward(params, np.zeros((1, 4)), pool)
        assert pred.predicted_class[0] == 0

    def test_classifier_rows_must_match_pool(self):
        _, params = identity_model(4, num_classes=2)
        with pytest.raises(ShapeError):
            forward(params, np.ones((1, 4)), make_pool({"a": 3}, dim=4))


class TestForward:
    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)],
                             ids=["no_hidden", "one_hidden", "two_hidden"])
    def test_one_op_per_stage(self, hidden):
        # the whole model is one op, whose two outputs are the similarity rows and the logits
        pool, params = simple_params(feature_dim=5, hidden=hidden)
        tape = Tape()
        sims, pred = forward(ModelBinding(params, tape), np.ones((3, 5)), pool)
        assert op_names(tape) == ["concept_model"]
        assert tape._ops[0][0] == (sims.slot, pred.logits.slot)

    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)])
    def test_bound_and_constant_forward_bit_equal(self, hidden):
        pool, params = simple_params(feature_dim=5, hidden=hidden)
        feats = np.random.default_rng(2).standard_normal((6, 5))
        sims, pred = forward(params, feats, pool)
        bound_sims, bound_pred = forward(ModelBinding(params, Tape()), feats, pool)
        assert not sims.tracked and bound_sims.tracked and bound_pred.logits.tracked
        np.testing.assert_array_equal(bound_sims.data, sims.data)
        np.testing.assert_array_equal(bound_pred.logits.data, pred.logits.data)


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


def assert_flat_layout(params):
    """Each view of ``params.arrays`` is ``params.flat`` at its layer-order offset."""
    flat = params.flat
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
    base, offset = flat.__array_interface__["data"][0], 0
    for name, arr in params.arrays.items():
        assert np.shares_memory(arr, flat), name
        assert arr.__array_interface__["data"][0] == base + offset * flat.itemsize, name
        assert arr.ndim == 2 and arr.flags.c_contiguous, name
        np.testing.assert_array_equal(arr.ravel(), flat[offset:offset + arr.size])
        offset += arr.size
    assert offset == flat.size


class TestFlatParams:
    LAYERS = [(), (4,), (4, 3)]

    @pytest.mark.parametrize("hidden", LAYERS, ids=["no_hidden", "one_hidden", "two_hidden"])
    def test_views_tile_the_vector_in_layer_order(self, hidden):
        _, params = simple_params(feature_dim=5, hidden=hidden)
        n = len(hidden) + 1
        assert list(params.arrays) == [f"encoder.{i}.{kind}" for i in range(n)
                                       for kind in ("weight", "bias")] + [
            "classifier.weight", "classifier.bias"]
        assert_flat_layout(params)
        params.flat[:] = np.arange(params.flat.size)  # a write to the vector shows in the views
        assert_flat_layout(params)

    def test_copy_is_a_separate_vector_with_the_same_layout(self):
        _, params = simple_params(feature_dim=5, hidden=(4,))
        copied = params.freeze().copy()
        assert_flat_layout(copied)
        assert not copied.frozen and copied.flat.flags.writeable
        assert not np.shares_memory(copied.flat, params.flat)
        assert copied.params_hash() == params.params_hash()
        copied.arrays["classifier.bias"][0, 0] += 1.0
        assert copied.params_hash() != params.params_hash()

    def test_freeze_locks_the_vector_and_every_view(self):
        _, params = simple_params(hidden=(4,))
        params.freeze()
        assert_flat_layout(params)
        for arr in (params.flat, *params.arrays.values()):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            params.flat[0] = 1.0

    @pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
    def test_checkpoint_keeps_the_layout(self, tmp_path, frozen):
        pool = make_pool({"a": 4, "b": 4}, dim=6)
        params = init_params("teacher", 7, pool, 2, seed=5, hidden=(5, 3))
        if frozen:
            params.freeze()
        save_checkpoint(params, tmp_path / "model.json")
        loaded = load_checkpoint(tmp_path / "model.json", pool)
        assert_flat_layout(loaded)
        np.testing.assert_array_equal(loaded.flat, params.flat)

    def test_entries_cannot_be_replaced(self):
        _, params = simple_params()
        before = params.arrays["classifier.weight"]
        with pytest.raises(TypeError):
            params.arrays["classifier.weight"] = np.zeros_like(before)
        with pytest.raises(TypeError):
            del params.arrays["classifier.bias"]
        assert params.arrays["classifier.weight"] is before
        assert_flat_layout(params)


class TestBinding:
    def test_leaves_are_the_parameter_arrays(self):
        # one leaf: the parameter vector itself, as a 1 x P row
        pool, params = simple_params(feature_dim=5, hidden=(4,))
        leaf = ModelBinding(params, Tape()).leaf
        assert leaf.tracked and leaf.shape == (1, params.flat.size)
        assert leaf.data.base is params.flat and np.shares_memory(leaf.data, params.flat)
        for arr in params.arrays.values():
            assert np.shares_memory(leaf.data, arr)

    def test_gradients_equal_those_of_copied_leaves(self):
        rng = np.random.default_rng(4)
        pool, params = simple_params(feature_dim=5, hidden=(4,))
        feats, labels = rng.standard_normal((6, 5)), rng.integers(0, 2, 6)
        tape = Tape()
        binding = ModelBinding(params, tape)
        grads = backward(tape, cross_entropy(forward(binding, feats, pool)[1], labels))

        copied_tape = Tape()  # a binding of a separate copy of the vector
        copied = ModelBinding(params.copy(), copied_tape)
        copied_loss = cross_entropy(forward(copied, feats, pool)[1], labels)
        copied_grads = backward(copied_tape, copied_loss)
        assert not np.shares_memory(copied.leaf.data, params.flat)
        np.testing.assert_array_equal(grads[binding.leaf.slot], copied_grads[copied.leaf.slot])

    def test_frozen_rejected(self):
        _, params = simple_params()
        with pytest.raises(ValueError, match="frozen"):
            ModelBinding(params.freeze(), Tape())


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
        analytic = backward(tape, loss)[binding.leaf.slot]

        def f(m):
            trial = params.copy()
            trial.flat[:] = m.data[0]
            return loss_fn(trial)[2].item()

        fd = finite_diff_grad(f, Matrix(params.flat)).data
        start = 0
        for name, arr in params.arrays.items():  # each array's span on its own
            want, got = fd[0, start:start + arr.size], analytic[0, start:start + arr.size]
            err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)
            assert err < 1e-4, name
            start += arr.size


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

    def test_unknown_modality_rejected(self, tmp_path):
        # no parameters of another modality are built, so none reach a file that
        # load_checkpoint would refuse; the two known ones round-trip
        pool = make_pool({"a": 4}, dim=6)
        with pytest.raises(ValueError, match="modality must be 'student' or 'teacher', got 'fundus'"):
            init_params("fundus", 7, pool, 2, seed=5)
        params = init_params("student", 7, pool, 2, seed=5)
        with pytest.raises(ValueError, match="modality"):
            ModelParams.of("fundus", dict(params.arrays), params.pool_fingerprint)
        for modality in ("student", "teacher"):
            save_checkpoint(init_params(modality, 7, pool, 2, seed=5), tmp_path / "model.json")
            assert load_checkpoint(tmp_path / "model.json", pool).modality == modality
        payload = json.loads((tmp_path / "model.json").read_text())
        payload["modality"] = "fundus"
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="modality, frozen"):
            load_checkpoint(tmp_path / "model.json", pool)

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
