import json
import re

import numpy as np
import pytest

from conceptdistill import autodiff as ad
from conceptdistill import train as train_module
from conceptdistill.autodiff import Matrix
from conceptdistill.losses import DistillConfig
from conceptdistill.metrics import macro_report
from conceptdistill.model import Prediction, forward, init_params
from conceptdistill.synthetic import GeneratorConfig, generate
from conceptdistill.train import (
    EpochStream,
    OptimizerState,
    TrainConfig,
    adamw_step,
    cosine_lr,
    evaluate_macro_pr_f1,
    pretrain_teacher,
    train_student,
)

from test_autodiff import public_ops
from test_concepts import make_pool
from test_synthetic import small_config


def tiny_dataset(seed=3, **overrides):
    return generate(small_config(seed=seed, **overrides))


class TestAdamW:
    def _params(self):
        pool = make_pool({"a": 3}, dim=4)
        return init_params("student", 5, pool, 2, seed=0)

    def test_zero_grad_zero_decay_no_change(self):
        params = self._params()
        before = params.params_hash()
        state = OptimizerState.for_params(params, weight_decay=0.0)
        adamw_step(params, None, state, lr_t=1e-3)
        adamw_step(params, np.zeros(params.flat.size), state, lr_t=1e-3)
        assert params.params_hash() == before

    def test_first_step_is_signed_lr(self):
        params = self._params()
        state = OptimizerState.for_params(params, weight_decay=0.0)
        g = np.ones_like(params.arrays["classifier.weight"]) * 0.37
        before = params.arrays["classifier.weight"].copy()
        adamw_step(params, flat_grad(params, {"classifier.weight": g}), state, lr_t=0.01)
        moved = params.arrays["classifier.weight"] - before
        # bias-corrected first step: -lr * g / (|g| + eps) == -lr * sign(g)
        np.testing.assert_allclose(moved, -0.01 * np.sign(g), rtol=1e-6)

    def test_decoupled_decay_shrinks(self):
        params = self._params()
        lam, lr = 0.1, 0.05
        state = OptimizerState.for_params(params, weight_decay=lam)
        before = params.arrays["classifier.weight"].copy()
        adamw_step(params, None, state, lr_t=lr)
        np.testing.assert_allclose(params.arrays["classifier.weight"], before * (1 - lr * lam), atol=1e-15)

    def test_frozen_rejected(self):
        params = self._params().freeze()
        state = OptimizerState.for_params(params, weight_decay=0.0)
        with pytest.raises(ValueError, match="frozen"):
            adamw_step(params, None, state, lr_t=1e-3)

    def test_wrong_gradient_size_rejected(self):
        params = self._params()
        before = params.params_hash()
        state = OptimizerState.for_params(params, weight_decay=0.0)
        size = params.flat.size
        for g in (np.ones(size - 1), np.ones((1, size + 1)),
                  np.ones_like(params.arrays["classifier.weight"])):
            with pytest.raises(ValueError, match=f"gradient of size {g.size} for {size}"):
                adamw_step(params, g, state, lr_t=1e-3)
        assert params.params_hash() == before and state.step == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_rejected_before_any_change(self, bad):
        params = self._params()
        state = OptimizerState.for_params(params, weight_decay=0.01)
        ones = np.ones_like(params.arrays["classifier.weight"])
        adamw_step(params, flat_grad(params, {"classifier.weight": ones}), state, lr_t=1e-3)
        before = params.params_hash()
        moments = state.first_moment.copy(), state.second_moment.copy()
        g = np.ones_like(params.arrays["encoder.0.bias"])
        g[0, 1] = bad
        grad = flat_grad(params, {"classifier.weight": ones, "encoder.0.bias": g})
        with pytest.raises(ValueError, match="non-finite gradient for encoder.0.bias$"):
            adamw_step(params, grad, state, lr_t=1e-3)
        grad[-1] = bad  # the last entry: classifier.bias
        with pytest.raises(ValueError, match="for encoder.0.bias, classifier.bias$"):
            adamw_step(params, grad.reshape(1, -1), state, lr_t=1e-3)
        assert params.params_hash() == before and state.step == 1
        np.testing.assert_array_equal(state.first_moment, moments[0])
        np.testing.assert_array_equal(state.second_moment, moments[1])

    def test_flat_update_equals_per_array_reference(self):
        params = init_params("student", 5, make_pool({"a": 3}, dim=4), 2, seed=0, hidden=(3,))
        reference = params.copy()
        lam = 0.01
        state = OptimizerState.for_params(params, weight_decay=lam)
        ref_state = OptimizerState.for_params(reference, weight_decay=lam)
        rng = np.random.default_rng(3)
        for t in range(1, 6):
            lr = 1e-2 / t
            grads = {name: rng.standard_normal(arr.shape) for name, arr in params.arrays.items()
                     if name != "encoder.1.bias"}  # one parameter without a gradient
            adamw_step(params, flat_grad(params, grads), state, lr_t=lr)
            per_array_adamw_step(reference, flat_grad(params, grads), ref_state, lr_t=lr)
        assert state.step == ref_state.step == 5
        for name, arr in reference.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], arr, err_msg=name)

    def test_training_run_equals_per_array_reference(self, monkeypatch):
        # a teacher and a combined student with weight decay, trained with the
        # flat update and again with the per-array reference, end bit-equal
        ds, pool = tiny_dataset()
        teacher_config = quick_train_config(epochs=2, weight_decay=0.01, encoder_hidden=(4,))
        config = quick_train_config(epochs=2, weight_decay=0.05, encoder_hidden=(4,))
        hashes = []
        for step_fn in (adamw_step, per_array_adamw_step):
            monkeypatch.setattr(train_module, "adamw_step", step_fn)
            teacher = pretrain_teacher(teacher_config, ds, pool)
            student = train_student(config, ds, pool, teacher=teacher)
            hashes.append((teacher.params_hash(), student.params_hash()))
        assert hashes[0] == hashes[1]


def flat_grad(params, grads):
    """A gradient of ``params.flat`` holding ``grads`` (name -> array) in their spans, else 0."""
    holder = params.copy()
    holder.flat[:] = 0.0
    for name, g in grads.items():
        holder.arrays[name][:] = g
    return holder.flat


def per_array_adamw_step(params, grad, state, lr_t):
    """The AdamW update one parameter array at a time: the reference for ``adamw_step``.

    Array i's gradient and moments are its own slices of ``grad`` (None for
    zero) and of the state's moment vectors.
    """
    grad = np.zeros(params.flat.size) if grad is None else grad.reshape(-1)
    state.step += 1
    t, lam, start = state.step, state.weight_decay, 0
    for name, arr in params.arrays.items():
        stop = start + arr.size
        m = state.first_moment[start:stop].reshape(arr.shape)
        v = state.second_moment[start:stop].reshape(arr.shape)
        g = grad[start:stop].reshape(arr.shape)
        m[:] = 0.9 * m + (1.0 - 0.9) * g
        v[:] = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        arr *= 1.0 - lr_t * lam
        arr -= lr_t * m_hat / (np.sqrt(v_hat) + 1e-8)
        start = stop


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-3) == pytest.approx(1e-3)
        assert cosine_lr(100, 100, 1e-3) == 0.0
        assert cosine_lr(50, 100, 1e-3) == pytest.approx(5e-4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 100, 1e-3)


class TestUnpairedSampling:
    def test_whole_split_batch(self):
        # a batch the size of the split is a permutation of the split
        n = 37
        idx = EpochStream(n, seed=0, modality="student").batch(0, n)
        assert sorted(idx.tolist()) == list(range(n))

    def test_deterministic(self):
        a = EpochStream(37, seed=5, modality="student")
        b = EpochStream(37, seed=5, modality="student")
        b.batch(9, 8)  # what was drawn before does not matter
        np.testing.assert_array_equal(a.batch(3, 8), b.batch(3, 8))

    def test_modalities_cycle_independently(self):
        # unequal split sizes: each stream wraps at its own epoch boundary
        ds, _ = tiny_dataset()
        n_s = len(ds.split_arrays("student", "train")[1])
        n_t = len(ds.split_arrays("teacher", "train")[1])
        assert n_s != n_t
        batch = 7
        for modality, n in (("student", n_s), ("teacher", n_t)):
            stream = EpochStream(n, seed=1, modality=modality)
            drawn = np.concatenate([stream.batch(step, batch)
                                    for step in range(2 * n // batch + 1)])
            for epoch in range(2):
                assert sorted(drawn[epoch * n:(epoch + 1) * n].tolist()) == list(range(n))
        # the same seed gives each modality its own order
        assert not np.array_equal(EpochStream(n_s, 1, "student").batch(0, n_s),
                                  EpochStream(n_s, 1, "teacher").batch(0, n_s))

    def test_within_epoch_no_replacement(self):
        ds, _ = tiny_dataset()
        n = len(ds.split_arrays("student", "train")[1])
        stream = EpochStream(n, seed=2, modality="student")
        batch = 10
        collected = np.concatenate([stream.batch(step, batch) for step in range(n // batch)])
        assert len(collected) == len(set(collected.tolist()))

    @pytest.mark.parametrize("n, batch", [(37, 8), (5, 12), (10, 10)])
    def test_matches_per_position_definition(self, n, batch):
        # position p is entry p % n of epoch p // n's seeded permutation
        stream = EpochStream(n, seed=4, modality="teacher")
        for step in range(6):
            want = [np.random.default_rng([4, 1, pos // n]).permutation(n)[pos % n]
                    for pos in range(step * batch, (step + 1) * batch)]
            np.testing.assert_array_equal(stream.batch(step, batch), want)

    def test_batch_inside_one_epoch_is_a_read_only_view(self):
        n, batch = 37, 8
        stream = EpochStream(n, seed=4, modality="student")
        inside = stream.batch(1, batch)  # positions 8..15 of epoch 0
        assert not inside.flags.writeable
        with pytest.raises(ValueError):
            inside[0] = 0
        crossing = stream.batch(4, batch)  # positions 32..39 cross into epoch 1
        assert len(crossing) == batch
        np.testing.assert_array_equal(
            EpochStream(n, seed=4, modality="student").batch(1, batch), inside)


def spy_on_steps(monkeypatch, after_step):
    """Call ``after_step(n, params)`` after the n-th real optimizer step of every run (n from 1)."""
    calls = []

    def spy(params, grads, state, lr_t):
        adamw_step(params, grads, state, lr_t)
        calls.append(None)
        after_step(len(calls), params)

    monkeypatch.setattr(train_module, "adamw_step", spy)


def quick_train_config(**overrides):
    base = dict(learning_rate=5e-3, batch_size=16, epochs=3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestPretrainTeacher:
    def test_linearly_separable_reaches_high_accuracy(self):
        cfg_data = small_config(noise_sigma=0.05, seed=11)
        ds, pool = generate(cfg_data)
        config = quick_train_config(epochs=60, learning_rate=1e-2)
        teacher = pretrain_teacher(config, ds, pool)
        x, y = ds.split_arrays("teacher", "train")
        _, pred = forward(teacher, x, pool)
        acc = float((pred.predicted_class == y).mean())
        assert acc > 0.95

    def test_zero_epochs_returns_frozen_init(self):
        ds, pool = tiny_dataset()
        teacher = pretrain_teacher(quick_train_config(epochs=0), ds, pool)
        assert teacher.frozen
        assert teacher.modality == "teacher"

    def test_same_seed_bit_identical(self):
        ds, pool = tiny_dataset()
        a = pretrain_teacher(quick_train_config(), ds, pool)
        b = pretrain_teacher(quick_train_config(), ds, pool)
        assert a.params_hash() == b.params_hash()

    def test_log_schema(self, tmp_path):
        ds, pool = tiny_dataset()
        log = tmp_path / "teacher.jsonl"
        pretrain_teacher(quick_train_config(epochs=2), ds, pool, log_path=log)
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        steps = [l for l in lines if "step" in l]
        epochs = [l for l in lines if "epoch" in l]
        assert {"step", "lr", "loss_cls", "loss_gpd", "loss_lcd", "loss_total",
                "gpd_shared_classes", "lcd_skipped"} <= set(steps[0])
        # no distillation terms, so no counts
        assert all(l["gpd_shared_classes"] is None and l["lcd_skipped"] is None for l in steps)
        assert {"epoch", "val_macro_prf1", "selected"} <= set(epochs[0])
        assert [l["selected"] for l in epochs] == [False, True]  # the last epoch is kept


class TestDistillStudent:
    def test_requires_frozen_teacher(self):
        ds, pool = tiny_dataset()
        teacher = init_params("teacher", ds.config.feature_dim, pool,
                              ds.config.num_classes, seed=0)
        with pytest.raises(ValueError, match="frozen"):
            train_student(quick_train_config(), ds, pool, teacher=teacher)

    def test_student_as_teacher_rejected(self):
        # a frozen student has the teacher's input width, so nothing else would catch it
        ds, pool = tiny_dataset()
        student = train_student(quick_train_config(epochs=1), ds, pool).freeze()
        with pytest.raises(ValueError, match="teacher must be a teacher model, got a student"):
            train_student(quick_train_config(), ds, pool, teacher=student)

    def test_pool_mismatch_rejected(self):
        ds, pool = tiny_dataset()
        other_pool = make_pool({"x": 4, "y": 4, "z": 4}, dim=ds.config.embed_dim)
        teacher = pretrain_teacher(quick_train_config(epochs=1), ds, pool)
        with pytest.raises(ValueError, match="different concept pool"):
            train_student(quick_train_config(), ds, other_pool, teacher=teacher)

    def test_same_ids_other_embeddings_rejected(self):
        # seeds 3 and 4 give pools with equal ids and different embeddings
        ds, pool = tiny_dataset(seed=3)
        _, other_pool = tiny_dataset(seed=4)
        assert other_pool.ids == pool.ids
        teacher = pretrain_teacher(quick_train_config(epochs=1), ds, pool)
        with pytest.raises(ValueError, match="different concept pool"):
            train_student(quick_train_config(), ds, other_pool, teacher=teacher)

    def test_teacher_hash_unchanged(self):
        ds, pool = tiny_dataset()
        teacher = pretrain_teacher(quick_train_config(epochs=1), ds, pool)
        before = teacher.params_hash()
        train_student(quick_train_config(epochs=2), ds, pool, teacher=teacher)
        assert teacher.params_hash() == before

    def test_alpha_beta_zero_matches_baseline_trajectory(self, monkeypatch):
        ds, pool = tiny_dataset()
        teacher = pretrain_teacher(quick_train_config(epochs=1), ds, pool)
        config = quick_train_config(
            epochs=2, distill=DistillConfig(alpha=0.0, beta=0.0)
        )
        trajectory = []
        spy_on_steps(monkeypatch, lambda n, params: trajectory.append(params.params_hash()))
        train_student(config, ds, pool, teacher=teacher)
        distilled, trajectory[:] = trajectory[:], []
        train_student(config, ds, pool)  # the plain baseline: no teacher at all
        assert distilled == trajectory != []

    def test_distillation_runs_with_defaults(self, tmp_path):
        ds, pool = tiny_dataset()
        teacher = pretrain_teacher(quick_train_config(epochs=2), ds, pool)
        log = tmp_path / "student.jsonl"
        student = train_student(
            quick_train_config(epochs=2), ds, pool, teacher=teacher, log_path=log
        )
        assert student.modality == "student"
        assert not student.frozen
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        steps = [l for l in lines if "step" in l]
        assert any(l["loss_gpd"] > 0 for l in steps)
        assert all(1 <= l["gpd_shared_classes"] <= ds.config.num_classes for l in steps)
        assert all(0 <= l["lcd_skipped"] <= 16 for l in steps)  # batch size 16
        assert all(np.isfinite(l["loss_total"]) for l in steps)
        epochs = [l for l in lines if "epoch" in l]
        assert sum(l["selected"] for l in epochs) >= 1

    def test_run_that_raises_keeps_its_log(self, tmp_path, monkeypatch):
        ds, pool = tiny_dataset()  # 38 student train rows: 2 steps per epoch
        log = tmp_path / "student.jsonl"

        def fail_at_step_3(n, params):  # steps 0-2 are logged; step 3 raises before its record
            if n == 4:
                raise RuntimeError("stop mid-epoch")

        spy_on_steps(monkeypatch, fail_at_step_3)
        with pytest.raises(RuntimeError, match="stop mid-epoch"):
            train_student(quick_train_config(epochs=3), ds, pool, log_path=log)
        text = log.read_text()
        assert text.endswith("\n")
        lines = [json.loads(l) for l in text.splitlines()]
        assert [l.get("step", l.get("epoch")) for l in lines] == [0, 1, 0, 2]
        assert "epoch" in lines[2]

    def test_full_run_determinism(self, tmp_path):
        # every distilled student, run twice in one process, repeats its
        # parameters and its log byte for byte, as the benchmark's repetitions need
        ds, pool = tiny_dataset()
        students = {"gpd": DistillConfig(beta=0.0), "lcd": DistillConfig(alpha=0.0),
                    "combined": DistillConfig()}
        for hidden in [(), (4,)]:
            teacher = pretrain_teacher(
                quick_train_config(epochs=1, encoder_hidden=hidden), ds, pool)
            for name, distill in students.items():
                config = quick_train_config(epochs=2, encoder_hidden=hidden, distill=distill)
                runs = []
                for i in range(2):
                    log = tmp_path / f"{name}-{len(hidden)}-{i}.jsonl"
                    params = train_student(config, ds, pool, teacher=teacher, log_path=log)
                    runs.append((params.params_hash(), log.read_bytes()))
                assert runs[0] == runs[1], (name, hidden)


class TestFrozenTeacherRows:
    # ulp-level drift allowed between a whole-split and a per-batch forward
    TOL = 16 * np.finfo(np.float64).eps

    @pytest.mark.parametrize("hidden", [(), (64,)])
    def test_rows_match_per_batch_forward(self, hidden, monkeypatch):
        ds, pool = tiny_dataset()
        config = quick_train_config(epochs=2, encoder_hidden=hidden)
        teacher = pretrain_teacher(config, ds, pool)
        seen, teacher_forwards = [], []
        real_lcd, real_forward = train_module.lcd_loss, train_module.forward

        def spy_lcd(sims, labels, t_sims, t_labels, tau):
            seen.append((t_sims.data.copy(), np.array(t_labels)))
            return real_lcd(sims, labels, t_sims, t_labels, tau)

        def spy_forward(model, features, pool_):
            if model is teacher:
                teacher_forwards.append(len(features))
            return real_forward(model, features, pool_)

        monkeypatch.setattr(train_module, "lcd_loss", spy_lcd)
        monkeypatch.setattr(train_module, "forward", spy_forward)
        train_student(config, ds, pool, teacher=teacher)

        xt, yt = ds.split_arrays("teacher", "train")
        assert teacher_forwards == [len(yt)]  # one forward over the whole split
        stream = EpochStream(len(yt), config.seed, "teacher")
        assert len(seen) == config.epochs * (len(ds.split_arrays("student", "train")[1]) // 16)
        for step, (rows, labels) in enumerate(seen):
            idx = stream.batch(step, config.batch_size)
            np.testing.assert_array_equal(labels, yt[idx])
            # LCD receives the teacher's coordinates on the pool basis, as forward returns them
            want = forward(teacher, xt[idx], pool)[0].data
            assert np.abs(rows - want).max() <= self.TOL


class TestOpsRecorded:
    def test_training_records_every_public_op(self, monkeypatch):
        # every public op of model and losses is recorded on a tape by some training step
        recorded = set()
        real_finish = ad._finish

        def spy_finish(op, out, inputs, vjp):
            if any(m.tracked for m in inputs):
                recorded.add(op)
            return real_finish(op, out, inputs, vjp)

        ds, pool = tiny_dataset()
        teacher = pretrain_teacher(quick_train_config(epochs=1), ds, pool)
        monkeypatch.setattr(ad, "_finish", spy_finish)
        train_student(quick_train_config(epochs=1, encoder_hidden=(4,)), ds, pool)
        train_student(quick_train_config(epochs=1), ds, pool, teacher=teacher)
        assert recorded == public_ops()

    def test_each_step_kind_records_its_ops(self, monkeypatch):
        # the model is one op whose coordinates feed GPD and LCD directly
        tapes = []
        real_backward = train_module.backward

        def spy_backward(tape, loss):
            tapes.append([vjp.__qualname__.split(".")[0] for _, _, vjp in tape._ops])
            return real_backward(tape, loss)

        ds, pool = tiny_dataset()
        teacher = pretrain_teacher(quick_train_config(epochs=1), ds, pool)
        monkeypatch.setattr(train_module, "backward", spy_backward)
        head = ["forward", "cross_entropy"]
        for alpha, beta, tail in [
            (0.0, 0.0, []),
            (0.6, 0.0, ["gpd_loss", "total_loss"]),
            (0.0, 0.05, ["lcd_loss", "total_loss"]),
            (0.6, 0.05, ["gpd_loss", "lcd_loss", "total_loss"]),
        ]:
            tapes.clear()
            config = quick_train_config(epochs=1, distill=DistillConfig(alpha=alpha, beta=beta))
            train_student(config, ds, pool, teacher=teacher)
            assert tapes and all(names == head + tail for names in tapes), (alpha, beta)


class TestValidationSelection:
    def test_best_epoch_snapshot_returned(self):
        ds, pool = tiny_dataset()
        config = quick_train_config(epochs=4)
        student = train_student(config, ds, pool)
        xv, yv = ds.split_arrays("student", "val")
        returned = evaluate_macro_pr_f1(student, pool, xv, yv)
        # retrace the run and confirm the returned score is the per-epoch max
        scores = []
        cfg2 = quick_train_config(epochs=4)
        current = train_student(cfg2, ds, pool)
        assert returned == pytest.approx(
            evaluate_macro_pr_f1(current, pool, xv, yv)
        )
        assert returned >= 0.0


class TestValidationRunsWhenRead:
    """Validation runs only when its score is read: by the epoch choice or by the log."""

    def _count(self, monkeypatch):
        calls = []
        real = train_module.evaluate_macro_pr_f1

        def spy(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(train_module, "evaluate_macro_pr_f1", spy)
        return calls

    def test_teacher_without_log_skips_validation(self, monkeypatch):
        ds, pool = tiny_dataset()
        calls = self._count(monkeypatch)
        pretrain_teacher(quick_train_config(epochs=3), ds, pool)
        assert calls == []

    def test_teacher_with_log_validates_every_epoch(self, tmp_path, monkeypatch):
        ds, pool = tiny_dataset()
        calls = self._count(monkeypatch)
        log = tmp_path / "teacher.jsonl"
        teacher = pretrain_teacher(quick_train_config(epochs=3), ds, pool, log_path=log)
        assert len(calls) == 3
        epochs = [r for r in map(json.loads, log.read_text().splitlines()) if "epoch" in r]
        xv, yv = ds.split_arrays("teacher", "val")
        # the last epoch's logged score is the returned teacher's
        assert epochs[-1]["val_macro_prf1"] == evaluate_macro_pr_f1(teacher, pool, xv, yv)

    def test_teacher_result_independent_of_log(self, tmp_path):
        ds, pool = tiny_dataset()
        silent = pretrain_teacher(quick_train_config(epochs=2), ds, pool)
        logged = pretrain_teacher(quick_train_config(epochs=2), ds, pool,
                                  log_path=tmp_path / "t.jsonl")
        assert silent.params_hash() == logged.params_hash()

    def test_student_validates_every_epoch(self, monkeypatch):
        ds, pool = tiny_dataset()
        calls = self._count(monkeypatch)
        train_student(quick_train_config(epochs=3), ds, pool)
        assert len(calls) == 3


class TestEvaluate:
    @pytest.mark.parametrize("seed", range(5))
    def test_score_equals_macro_report(self, seed, monkeypatch):
        # random predictions; class 7 never predicted, class 2 never actual
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((60, 9))
        logits[:, 7] = -50.0
        labels = rng.choice([0, 1, 3, 4, 5, 6, 7, 8], 60)
        pred = Prediction(Matrix(logits))
        monkeypatch.setattr(train_module, "forward", lambda *args: (None, pred))
        params = init_params("student", 4, make_pool({"a": 3}, dim=4), 9, seed=0)
        score = evaluate_macro_pr_f1(params, None, np.zeros((60, 4)), labels)
        report = macro_report(pred.probabilities.data, pred.predicted_class, labels, 9)
        assert score == report.macro["pr_f1"]

    def test_macro_report_shapes(self):
        ds, pool = tiny_dataset()
        student = train_student(quick_train_config(epochs=1), ds, pool)
        x, y = ds.split_arrays("student", "test")
        _, pred = forward(student, x, pool)
        report = macro_report(pred.probabilities.data, pred.predicted_class, y,
                              ds.config.num_classes, class_names=ds.config.class_names)
        assert set(report.per_class) == set(ds.config.class_names)


class TestConfigValidation:
    @pytest.mark.parametrize("make, name", [
        (DistillConfig, "alpha"),
        (DistillConfig, "beta"),
        (DistillConfig, "tau"),
        (TrainConfig, "learning_rate"),
        (TrainConfig, "weight_decay"),
        (small_config, "noise_sigma"),
        (small_config, "attenuation"),
    ], ids=lambda v: v if isinstance(v, str) else v.__name__)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                             ids=["nan", "inf", "-inf", "huge_int"])
    def test_non_finite_rejected(self, make, name, value):
        # an int beyond float range used to escape as an OverflowError
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make(**{name: value})

    @pytest.mark.parametrize("make, kwargs, message", [
        (DistillConfig, {"alpha": 10**5000}, "alpha must be finite$"),
        (TrainConfig, {"learning_rate": 10**5000}, "learning_rate must be finite$"),
        (GeneratorConfig, {"noise_sigma": 10**5000}, "noise_sigma must be finite$"),
        (TrainConfig, {"encoder_hidden": (0, 10**5000)},
         "encoder_hidden sizes must be positive integers$"),
        (GeneratorConfig, {"seed": -10**5000}, "seed must be an integer >= 0$"),
        (TrainConfig, {"seed": -10**5000}, "seed must be >= 0$"),
        (GeneratorConfig, {"concepts_per_class": -10**5000},
         "concepts_per_class must be an integer >= 1$"),
        (GeneratorConfig, {"feature_dim": -10**5000}, "feature_dim must be an integer >= 1$"),
        (GeneratorConfig, {"embed_dim": -10**5000}, "embed_dim must be an integer >= 1$"),
        # positive, but wider than any array NumPy can allocate
        (TrainConfig, {"encoder_hidden": (10**5000,)},
         rf"encoder_hidden sizes must be at most {np.iinfo(np.intp).max}$"),
    ], ids=["alpha", "learning_rate", "noise_sigma", "encoder_hidden", "seed", "train_seed",
            "concepts_per_class", "feature_dim", "embed_dim", "encoder_hidden_width"])
    def test_int_of_too_many_digits_named(self, make, kwargs, message):
        # repr of an int of over 4300 digits raises, so the message used to fail itself
        with pytest.raises(ValueError, match=message):
            make(**kwargs)

    @pytest.mark.parametrize("make, name", [
        (DistillConfig, "alpha"),
        (DistillConfig, "beta"),
        (DistillConfig, "tau"),
        (TrainConfig, "learning_rate"),
        (TrainConfig, "weight_decay"),
    ], ids=lambda v: v if isinstance(v, str) else v.__name__)
    @pytest.mark.parametrize("value", [True, "0.1"], ids=["bool", "str"])
    def test_real_fields_must_be_numbers(self, make, name, value):
        # a bool used to pass as 1.0, a string to raise a bare TypeError
        with pytest.raises(ValueError, match=f"{name} must be a real number, got {value!r}"):
            make(**{name: value})

    def test_distill_must_be_a_distill_config(self):
        # a dict used to pass, then fail inside training with an AttributeError
        with pytest.raises(ValueError, match="distill must be a DistillConfig"):
            TrainConfig(distill={"alpha": 1})

    @pytest.mark.parametrize("name", ["batch_size", "epochs", "seed"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True, "2", None],
                             ids=["float", "fraction", "bool", "str", "none"])
    def test_sizes_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)], ids=["int", "numpy"])
    def test_negative_seed_named(self, seed):
        # NumPy's seeding used to refuse it inside pretrain_teacher, naming no field
        with pytest.raises(ValueError, match=f"^seed must be >= 0, got {re.escape(repr(seed))}$"):
            TrainConfig(seed=seed)

    def test_numpy_integer_sizes_accepted(self):
        config = TrainConfig(batch_size=np.int64(8), epochs=np.int32(2), seed=np.int64(3))
        assert (config.batch_size, config.epochs, config.seed) == (8, 2, 3)

    @pytest.mark.parametrize("hidden", [(0,), (-3,), (8, 0), (4.0,), (False,), 16])
    def test_hidden_sizes_must_be_positive_integers(self, hidden):
        with pytest.raises(ValueError, match="encoder_hidden"):
            TrainConfig(encoder_hidden=hidden)

    def test_hidden_sizes_become_a_tuple(self):
        assert TrainConfig(encoder_hidden=[8, 4]).encoder_hidden == (8, 4)
