import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistill.autodiff import Matrix, ShapeError, Tape, backward
from conceptdistill.losses import (
    ClassPrototypes,
    DistillConfig,
    class_prototypes,
    gpd_loss,
    lcd_loss,
    total_loss,
)
from conceptdistill.synthetic import DEFAULT_COUNTS

from gradcheck import finite_diff_grad
from test_concepts import basis_pools


# ---------------------------------------------------------------------------
# Independent oracles: direct loops over the loss definitions.
# ---------------------------------------------------------------------------

def oracle_prototypes(sims, labels, num_classes):
    protos = np.zeros((num_classes, sims.shape[1]))
    present = np.zeros(num_classes, dtype=bool)
    for d in range(num_classes):
        members = [sims[i] for i in range(len(labels)) if labels[i] == d]
        if members:
            protos[d] = np.mean(members, axis=0)
            present[d] = True
    return protos, present


def oracle_gpd(protos_a, present_a, protos_b, present_b):
    total, n = 0.0, 0
    for d in range(len(present_a)):
        if present_a[d] and present_b[d]:
            total += float(((protos_a[d] - protos_b[d]) ** 2).sum())
            n += 1
    if n == 0:
        return 0.0
    return total / n


def oracle_lcd(sims_s, labels_s, sims_t, labels_t, tau):
    n_s = len(sims_s)
    candidates_of = lambda i: (
        [("s", q) for q in range(n_s) if q != i]
        + [("t", r) for r in range(len(sims_t))]
    )

    def row(tag, idx):
        return sims_s[idx] if tag == "s" else sims_t[idx]

    def label(tag, idx):
        return labels_s[idx] if tag == "s" else labels_t[idx]

    total, active, skipped = 0.0, 0, 0
    for i in range(n_s):
        cands = candidates_of(i)
        positives = [c for c in cands if label(*c) == labels_s[i]]
        if not positives or len(cands) < 2:
            skipped += 1
            continue
        acc = 0.0
        for p in positives:
            num = math.exp(float(np.dot(sims_s[i], row(*p))) / tau)
            den = sum(
                math.exp(float(np.dot(sims_s[i], row(*q))) / tau)
                for q in cands
                if q != p
            )
            acc += math.log(num / den)
        total += -acc / len(positives)
        active += 1
    return (total / active if active else 0.0), skipped


def oracle_lcd_logspace(sims_s, labels_s, sims_t, labels_t, tau):
    """oracle_lcd with each log-ratio taken as logit minus a max-shifted log-sum-exp."""
    n_s = len(sims_s)
    rows = list(sims_s) + list(sims_t)
    labels = list(labels_s) + list(labels_t)
    total, active, skipped = 0.0, 0, 0
    for i in range(n_s):
        cands = [j for j in range(len(rows)) if j != i]
        positives = [j for j in cands if labels[j] == labels_s[i]]
        if not positives or len(cands) < 2:
            skipped += 1
            continue
        logit = {j: float(np.dot(sims_s[i], rows[j])) / tau for j in cands}
        acc = 0.0
        for p in positives:
            others = [logit[q] for q in cands if q != p]
            top = max(others)
            acc += logit[p] - (top + math.log(sum(math.exp(v - top) for v in others)))
        total += -acc / len(positives)
        active += 1
    return (total / active if active else 0.0), skipped


@st.composite
def lcd_cases(draw):
    """Small LCD inputs: tau in [1e-2, 1e2], similarity rows of norm up to 10."""
    n_s, n_t = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    width, n_classes = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def rows(n):
        out = np.zeros((n, width))
        for r in range(n):
            v = np.array(draw(st.lists(st.floats(-1, 1), min_size=width, max_size=width)))
            norm = np.linalg.norm(v)
            if norm > 0:
                out[r] = v / norm * draw(st.floats(0, 10))
        return out

    labels = st.integers(0, n_classes - 1)
    return (rows(n_s), np.array(draw(st.lists(labels, min_size=n_s, max_size=n_s))),
            rows(n_t), np.array(draw(st.lists(labels, min_size=n_t, max_size=n_t))),
            draw(st.floats(1e-2, 1e2)))


def class_means(protos):
    return protos.weights @ protos.rows.data


class TestClassPrototypes:
    def test_single_sample_is_its_own_prototype(self):
        sims = np.array([[0.1, -0.4, 0.9]])
        protos = class_prototypes(sims, [2], num_classes=3)
        np.testing.assert_allclose(class_means(protos)[2], sims[0])
        assert list(protos.present) == [False, False, True]

    def test_mean_of_two_rows(self):
        sims = np.array([[1.0, 0.0], [0.0, 1.0]])
        protos = class_prototypes(sims, [1, 1], num_classes=2)
        np.testing.assert_allclose(class_means(protos)[1], [0.5, 0.5])

    def test_absent_class_masked_no_nan(self):
        sims = np.random.default_rng(0).uniform(-1, 1, (4, 6))
        protos = class_prototypes(sims, [0, 1, 1, 4], num_classes=5)
        assert not protos.present[3]
        assert np.all(np.isfinite(class_means(protos)))
        np.testing.assert_array_equal(protos.weights[3], 0.0)

    def test_labels_must_be_integers(self):
        # a cast to int64 would mark classes 0 and 1 present
        for bad in ([0.7, 1.2, 1.9], [True, False, True]):
            with pytest.raises(ValueError, match="class_prototypes: .* integer dtype"):
                class_prototypes(np.eye(3), bad, 3)

    def test_records_nothing(self):
        # the class means are taken inside gpd_loss's one op
        tape = Tape()
        protos = class_prototypes(tape.leaf(np.ones((3, 2))), [0, 1, 1], num_classes=2)
        assert tape._ops == [] and protos.rows.tracked

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b, n, c = rng.integers(1, 9), rng.integers(2, 8), rng.integers(2, 5)
            sims = rng.uniform(-1, 1, (b, n))
            labels = rng.integers(0, c, b)
            got = class_prototypes(sims, labels, c)
            want_vec, want_present = oracle_prototypes(sims, labels, c)
            np.testing.assert_allclose(class_means(got), want_vec, atol=1e-12)
            np.testing.assert_array_equal(got.present, want_present)


class TestGpdLoss:
    def test_identical_prototypes_zero(self):
        sims = np.random.default_rng(0).uniform(-1, 1, (4, 5))
        p = class_prototypes(sims, [0, 0, 1, 1], 2)
        q = class_prototypes(sims.copy(), [0, 0, 1, 1], 2)
        assert gpd_loss(p, q).item() == 0.0

    def test_unit_vectors_squared_distance(self):
        a = class_prototypes(np.array([[1.0, 0.0]]), [0], 2)
        b = class_prototypes(np.array([[0.0, 1.0]]), [0], 2)
        assert gpd_loss(a, b).item() == pytest.approx(2.0)

    def test_mean_over_two_common_classes(self):
        # squared distances 2.0 and 0.5 by construction
        a = class_prototypes(np.array([[1.0, 0.0], [0.5, 0.0]]), [0, 1], 2)
        b = class_prototypes(np.array([[0.0, 1.0], [0.0, 0.5]]), [0, 1], 2)
        assert gpd_loss(a, b).item() == pytest.approx(1.25)

    def test_no_common_class_zero(self):
        a = class_prototypes(np.ones((1, 3)), [0], 2)
        b = class_prototypes(np.ones((1, 3)), [1], 2)
        assert gpd_loss(a, b).item() == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = class_prototypes(rng.uniform(-1, 1, (5, 4)), rng.integers(0, 3, 5), 3)
        b = class_prototypes(rng.uniform(-1, 1, (6, 4)), rng.integers(0, 3, 6), 3)
        assert gpd_loss(a, b).item() == pytest.approx(gpd_loss(b, a).item(), abs=1e-15)

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(3)
        sims = rng.uniform(-1, 1, (8, 5))
        labels = rng.integers(0, 3, 8)
        other = class_prototypes(rng.uniform(-1, 1, (6, 5)), rng.integers(0, 3, 6), 3)
        base = gpd_loss(other, class_prototypes(sims, labels, 3)).item()
        perm = rng.permutation(8)
        shuffled = gpd_loss(other, class_prototypes(sims[perm], labels[perm], 3)).item()
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_width_mismatch(self):
        a = class_prototypes(np.ones((1, 3)), [0], 2)
        b = class_prototypes(np.ones((1, 4)), [0], 2)
        with pytest.raises(ShapeError):
            gpd_loss(a, b)

    def test_one_op(self):
        # both sides' class means and their distance are one recorded op
        rng = np.random.default_rng(5)
        tape = Tape()
        a = class_prototypes(rng.uniform(-1, 1, (4, 3)), [0, 1, 1, 2], 3)
        b = class_prototypes(tape.leaf(rng.uniform(-1, 1, (5, 3))), [2, 2, 0, 1, 0], 3)
        gpd_loss(a, b)
        assert [vjp.__qualname__.split(".")[0] for _, _, vjp in tape._ops] == [
            "class_mean_distance"]

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = int(rng.integers(2, 5))
            la = rng.integers(0, c, int(rng.integers(1, 9)))
            lb = rng.integers(0, c, int(rng.integers(1, 9)))
            sa = rng.uniform(-1, 1, (len(la), 6))
            sb = rng.uniform(-1, 1, (len(lb), 6))
            got = gpd_loss(class_prototypes(sa, la, c), class_prototypes(sb, lb, c)).item()
            pa, qa = oracle_prototypes(sa, la, c)
            pb, qb = oracle_prototypes(sb, lb, c)
            assert got == pytest.approx(oracle_gpd(pa, qa, pb, qb), abs=1e-12)


class TestLcdLoss:
    def test_uniform_rows_give_log_k(self):
        row = np.array([0.3, -0.2, 0.5])
        sims_s = np.tile(row, (3, 1))
        sims_t = np.tile(row, (2, 1))
        labels = [0, 0, 0]
        loss, skipped = lcd_loss(sims_s, labels, sims_t, [0, 0], tau=10.0)
        k = (3 - 1) + 2 - 1  # candidate count minus the positive itself
        assert skipped == 0
        assert loss.item() == pytest.approx(math.log(k), abs=1e-12)

    def test_no_positives_anywhere(self):
        sims_s = np.random.default_rng(0).uniform(-1, 1, (3, 4))
        sims_t = np.random.default_rng(1).uniform(-1, 1, (2, 4))
        loss, skipped = lcd_loss(sims_s, [0, 1, 2], sims_t, [3, 4], tau=10.0)
        assert loss.item() == 0.0
        assert skipped == 3

    def test_frozen_fixture_two_plus_two(self):
        sims_s = np.array([[0.8, -0.1, 0.3], [-0.2, 0.6, 0.1]])
        sims_t = np.array([[0.7, 0.0, 0.2], [-0.3, 0.5, 0.2]])
        labels_s, labels_t = [0, 1], [0, 1]
        loss, skipped = lcd_loss(sims_s, labels_s, sims_t, labels_t, tau=10.0)
        want, want_skipped = oracle_lcd(sims_s, labels_s, sims_t, labels_t, 10.0)
        assert skipped == want_skipped == 0
        assert loss.item() == pytest.approx(want, abs=1e-12)
        # value pinned after computing once with the loop oracle
        assert loss.item() == pytest.approx(0.6249012430530261, abs=1e-12)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n_s = int(rng.integers(1, 7))
            n_t = int(rng.integers(0, 7))
            n = int(rng.integers(2, 8))
            c = int(rng.integers(1, 4))
            sims_s = rng.uniform(-1, 1, (n_s, n))
            sims_t = rng.uniform(-1, 1, (n_t, n))
            ls = rng.integers(0, c, n_s)
            lt = rng.integers(0, c, n_t)
            tau = float(rng.uniform(0.5, 12.0))
            loss, skipped = lcd_loss(sims_s, ls, sims_t, lt, tau)
            want, want_skipped = oracle_lcd(sims_s, ls, sims_t, lt, tau)
            assert skipped == want_skipped
            assert loss.item() == pytest.approx(want, abs=1e-10)

    def test_candidate_permutation_invariance(self):
        rng = np.random.default_rng(8)
        sims_s = rng.uniform(-1, 1, (5, 4))
        sims_t = rng.uniform(-1, 1, (4, 4))
        ls, lt = rng.integers(0, 2, 5), rng.integers(0, 2, 4)
        base = lcd_loss(sims_s, ls, sims_t, lt, 10.0)[0].item()
        perm = rng.permutation(4)
        shuffled = lcd_loss(sims_s, ls, sims_t[perm], lt[perm], 10.0)[0].item()
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_label_bijection_invariance(self):
        rng = np.random.default_rng(9)
        sims_s = rng.uniform(-1, 1, (5, 4))
        sims_t = rng.uniform(-1, 1, (4, 4))
        ls, lt = rng.integers(0, 3, 5), rng.integers(0, 3, 4)
        base = lcd_loss(sims_s, ls, sims_t, lt, 5.0)[0].item()
        # the second relabelling is sparse and negative: lcd_loss numbers it densely
        for relabel in ({0: 2, 1: 0, 2: 1}, {0: 10**12, 1: -7, 2: 40}):
            mapped = lcd_loss(
                sims_s, [relabel[x] for x in ls], sims_t, [relabel[x] for x in lt], 5.0
            )[0].item()
            assert mapped == pytest.approx(base, abs=1e-12)

    def test_closer_positive_lowers_loss(self):
        # anchor along x; positive rotates toward it at fixed norm
        anchor = np.array([[1.0, 0.0]])
        teacher_labels = [0, 1]
        far = np.array([[np.cos(1.2), np.sin(1.2)], [-1.0, 0.5]])
        near = np.array([[np.cos(0.3), np.sin(0.3)], [-1.0, 0.5]])
        loss_far = lcd_loss(anchor, [0], far, teacher_labels, 1.0)[0].item()
        loss_near = lcd_loss(anchor, [0], near, teacher_labels, 1.0)[0].item()
        assert loss_near < loss_far

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            lcd_loss(np.ones((1, 2)), [0], np.ones((1, 2)), [0], tau=0.0)

    def test_labels_must_be_integers(self):
        # a cast to int64 would score 0.4 and 0.6 as classes 0 and 1, and 1.9 as class 1
        good = [0, 1, 1]
        for ls, lt in (([0.4, 0.6, 1.2], good), (good, [0.0, 1.9, 2.5]), (good, [True] * 3)):
            with pytest.raises(ValueError, match="lcd_loss: .* integer dtype"):
                lcd_loss(np.eye(3), ls, np.eye(3), lt, 1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        sims_t = rng.uniform(-1, 1, (3, 5))
        ls, lt = np.array([0, 1, 0, 1]), np.array([0, 1, 2])
        x0 = rng.uniform(-1, 1, (4, 5))

        def run(x):
            tape = Tape()
            leaf = tape.leaf(x)
            loss, _ = lcd_loss(leaf, ls, Matrix(sims_t), lt, 10.0)
            return tape, leaf, loss

        tape, leaf, loss = run(x0)
        analytic = backward(tape, loss)[leaf.slot]
        fd = finite_diff_grad(lambda m: run(m.data)[2].item(), Matrix(x0)).data
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-4


def assert_matches_oracles(sims_s, ls, sims_t, lt, tau):
    """LCD's loss equals oracle_lcd_logspace and its gradient equals finite differences."""
    def run(x):
        tape = Tape()
        leaf = tape.leaf(x)
        loss, skipped = lcd_loss(leaf, ls, sims_t, lt, tau)
        return tape, leaf, loss, skipped

    tape, leaf, loss, skipped = run(sims_s)
    want, want_skipped = oracle_lcd_logspace(sims_s, ls, sims_t, lt, tau)
    assert skipped == want_skipped
    assert math.isfinite(loss.item())
    # logits reach 100 / tau; rounding grows with them
    z_max = 100.0 / tau
    assert loss.item() == pytest.approx(want, rel=1e-10, abs=1e-12 * (1.0 + z_max))
    if not loss.tracked:  # no active anchor: a constant zero
        assert loss.item() == 0.0
        return
    analytic = backward(tape, loss)[leaf.slot]
    assert np.all(np.isfinite(analytic))
    # step so that no logit moves by more than 1e-4
    scale = max(1.0, float(np.abs(np.concatenate([sims_s, sims_t])).max())) / tau
    fd = finite_diff_grad(lambda m: run(m.data)[2].item(), Matrix(sims_s),
                          h=1e-4 / scale).data
    assert np.linalg.norm(analytic - fd) <= 1e-5 * np.linalg.norm(fd) + 1e-6 * scale


class TestLcdRobustness:
    def test_dominant_candidate_does_not_cancel(self):
        # the only other candidate is 180 logits below the positive
        loss, skipped = lcd_loss([[3.0, 0.0]], [0], [[3.0, 0.0], [-3.0, 0.0]], [0, 1], tau=0.1)
        assert skipped == 0
        assert loss.item() == pytest.approx(-180.0, abs=1e-12)

    @staticmethod
    def argmax_positive_case(others):
        """One anchor whose argmax candidate is a positive at logit 900, tau 0.01.

        ``others`` are the teacher rows besides the argmax: the first is a
        second positive, the rest are negatives. Returns the case and how far
        each of them sits below the argmax, in logits.
        """
        tau = 0.01
        sims_s = np.array([[3.0, 0.0]])
        sims_t = np.array([[3.0, 0.0]] + others)
        lt = np.array([0, 0] + [1] * (len(others) - 1))
        gaps = (sims_s @ sims_t.T)[0, 0] / tau - (sims_s @ sims_t[1:].T)[0] / tau
        return (sims_s, np.array([0]), sims_t, lt, tau), gaps

    def test_argmax_positive_with_tiny_rest(self):
        # the other candidates sit ~600 logits below the argmax: their shifted
        # sum is ~1e-258, tiny but normal, and is taken directly; the argmax
        # column's adjoint must not come from a difference of two ~1e258 terms
        case, gaps = self.argmax_positive_case([[1.0, 0.5], [0.9, -1.0], [1.02, 2.0]])
        assert 590 < gaps.min() and gaps.max() < 700
        assert_matches_oracles(*case)

    def test_argmax_positive_with_underflowed_rest(self):
        # the other candidates sit more than 745 logits below the argmax, so
        # their exponentials underflow to 0 and the second-max shift runs
        case, gaps = self.argmax_positive_case([[0.5, 0.2], [-1.0, 0.0], [0.4, 1.0]])
        assert gaps.min() > 745
        assert_matches_oracles(*case)

    @pytest.mark.parametrize("tau", [10.0, 0.5, 0.05])
    def test_repeated_candidate_rows(self, tau):
        # a teacher batch that crosses an epoch boundary can hold a row twice;
        # here one repeated row is anchor 0's argmax and its positive, so its
        # copy ties the argmax exactly, and another is a negative
        rng = np.random.default_rng(12)
        sims_s = rng.uniform(-1, 1, (4, 3))  # norms below sqrt(3)
        best = 3.0 * sims_s[0] / np.linalg.norm(sims_s[0])
        other = rng.uniform(-1, 1, 3)
        sims_t = np.array([best, other, best, rng.uniform(-1, 1, 3), other])
        ls, lt = np.array([0, 1, 0, 1]), np.array([0, 1, 0, 2, 1])
        logits = sims_s[0] @ np.concatenate([sims_s[1:], sims_t]).T
        assert np.flatnonzero(logits == logits.max()).tolist() == [3, 5]  # both copies of best
        assert_matches_oracles(sims_s, ls, sims_t, lt, tau)

    @given(lcd_cases())
    @settings(max_examples=150, deadline=None)
    def test_finite_and_matches_oracles(self, case):
        assert_matches_oracles(*case)


def dense_lcd(sims_s, labels_s, sims_t, labels_t, tau):
    """LCD and its adjoints for both row sets, one anchor at a time, all in dense NumPy.

    Each positive's denominator is a max-shifted log-sum-exp over its anchor's
    row with the anchor itself and that positive masked out, so no sum is
    ever taken by subtraction; the adjoints go back through the chain rule
    in the form ``(G_ss + G_ss^T) S + G_st T``.
    """
    n = len(sims_s)
    cand = np.concatenate([sims_s, sims_t])
    z = sims_s @ cand.T / tau
    z[np.arange(n), np.arange(n)] = -np.inf
    positive = np.concatenate([labels_s, labels_t])[None, :] == labels_s[:, None]
    positive[np.arange(n), np.arange(n)] = False
    n_pos = positive.sum(axis=1)
    active = np.flatnonzero(n_pos)
    loss, g = 0.0, np.zeros_like(z)
    for i in active:
        pos = np.flatnonzero(positive[i])
        w = 1.0 / len(pos) / len(active)
        masked = np.tile(z[i], (len(pos), 1))
        masked[np.arange(len(pos)), pos] = -np.inf
        top = masked.max(axis=1, keepdims=True)
        e = np.exp(masked - top)
        total = e.sum(axis=1, keepdims=True)
        loss += w * np.sum(top[:, 0] + np.log(total[:, 0]) - z[i, pos])
        g[i] = w * (e / total).sum(axis=0)
        g[i, pos] -= w
    g_ss, g_st = g[:, :n], g[:, n:]
    return loss, ((g_ss + g_ss.T) @ sims_s + g_st @ sims_t) / tau, g_st.T @ sims_s / tau


class TestLcdTrainingShape:
    """LCD at a training step's shape: 256 anchors and 256 teacher rows of 16 columns.

    Labels follow the generator's 9 imbalanced train classes, and the rows
    have the norm of the pool coordinates seen in training (~2.8).
    """

    REL = 1e-12

    @staticmethod
    def batch(seed):
        rng = np.random.default_rng(seed)

        def labels(modality):
            counts = np.array(DEFAULT_COUNTS[modality]["train"], dtype=float)
            return rng.choice(len(counts), size=256, p=counts / counts.sum())

        return (rng.standard_normal((256, 16)) * 0.7, labels("student"),
                rng.standard_normal((256, 16)) * 0.7, labels("teacher"))

    def check(self, sims_s, ls, sims_t, lt, tau):
        tape = Tape()
        s, t = tape.leaf(sims_s), tape.leaf(sims_t)
        loss, skipped = lcd_loss(s, ls, t, lt, tau)
        grads = backward(tape, loss)
        want, want_s, want_t = dense_lcd(sims_s, ls, sims_t, lt, tau)
        assert loss.item() == pytest.approx(want, rel=self.REL)
        for got, ref in ((grads[s.slot], want_s), (grads[t.slot], want_t)):
            assert np.linalg.norm(got - ref) <= self.REL * np.linalg.norm(ref)
        return skipped

    @pytest.mark.parametrize("tau", [10.0, 0.1])
    def test_matches_dense_reference(self, tau):
        assert self.check(*self.batch(20), tau) == 0

    def test_underflow_rows_among_normal_rows(self):
        # anchors 0-3 are 12 e_k and each has a same-class teacher copy, so
        # their argmax is a positive ~1000 logits above every other candidate
        # and their rest underflows: these rows are summed again, and only
        # there the self column, which ties the argmax, must stay masked
        sims_s, ls, sims_t, lt = self.batch(21)
        tau, big = 0.1, np.arange(4)
        sims_s[big] = sims_t[big] = 12.0 * np.eye(16)[big]
        lt[big] = ls[big]
        z = sims_s[big] @ np.concatenate([sims_s, sims_t]).T / tau
        z[big, big] = z[big, 256 + big] = -np.inf  # self and argmax
        assert (1440.0 - z.max(axis=1) > 745).all()
        assert self.check(sims_s, ls, sims_t, lt, tau) == 0


class TestTotalLoss:
    def test_zero_weights_reduce_to_cls(self):
        cfg = DistillConfig(alpha=0.0, beta=0.0)
        assert total_loss(Matrix([[1.7]]), Matrix([[5.0]]), Matrix([[3.0]]), cfg).item() == 1.7

    def test_weighted_sum_defaults(self):
        cfg = DistillConfig()  # alpha 0.6, beta 0.05, tau 10
        got = total_loss(Matrix([[1.0]]), Matrix([[2.0]]), Matrix([[4.0]]), cfg).item()
        assert got == pytest.approx(2.4)

    def test_zero_distill_terms(self):
        cfg = DistillConfig()
        assert total_loss(Matrix([[0.9]]), Matrix([[0.0]]), Matrix([[0.0]]), cfg).item() == 0.9

    def test_linearity(self):
        rng = np.random.default_rng(0)
        cfg = DistillConfig(alpha=0.3, beta=0.7)
        for _ in range(10):
            c, g, l = rng.uniform(0, 3, 3)
            got = total_loss(Matrix([[c]]), Matrix([[g]]), Matrix([[l]]), cfg).item()
            assert got == pytest.approx(c + 0.3 * g + 0.7 * l, abs=1e-12)

    def test_single_term_records_one_op(self):
        tape = Tape()
        cls, lcd = tape.leaf(Matrix([[0.4]])), tape.leaf(Matrix([[2.0]]))
        loss = total_loss(cls, None, lcd, DistillConfig(alpha=0.0, beta=0.5))
        assert loss.item() == 1.4
        assert [vjp.__qualname__.split(".")[0] for _, _, vjp in tape._ops] == ["loss_sum"]

    def test_both_terms_record_one_op(self):
        tape = Tape()
        cls, gpd, lcd = (tape.leaf(Matrix([[v]])) for v in (0.4, 0.3, 2.0))
        loss = total_loss(cls, gpd, lcd, DistillConfig(alpha=0.6, beta=0.05))
        assert loss.item() == 0.4 + (0.3 * 0.6 + 2.0 * 0.05)
        assert [vjp.__qualname__.split(".")[0] for _, _, vjp in tape._ops] == ["loss_sum"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DistillConfig(tau=0.0)
        with pytest.raises(ValueError):
            DistillConfig(alpha=-0.1)


class TestGpdGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        teacher_sims = rng.uniform(-1, 1, (6, 5))
        lt = rng.integers(0, 3, 6)
        ls = rng.integers(0, 3, 5)
        x0 = rng.uniform(-1, 1, (5, 5))
        teacher = class_prototypes(teacher_sims, lt, 3)

        def run(x):
            tape = Tape()
            leaf = tape.leaf(x)
            student = class_prototypes(leaf, ls, 3)
            return tape, leaf, gpd_loss(teacher, student)

        tape, leaf, loss = run(x0)
        analytic = backward(tape, loss)[leaf.slot]
        fd = finite_diff_grad(lambda m: run(m.data)[2].item(), Matrix(x0)).data
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-4


class TestPoolCoordinates:
    """GPD and LCD on ``rows @ pool.basis`` equal their values on the rows themselves."""

    REL = 1e-12
    STUDENT_LABELS = np.arange(24) % 4
    TEACHER_LABELS = np.arange(20) % 5

    @staticmethod
    def rows(pool, n, seed):
        u = np.random.default_rng(seed).standard_normal((n, pool.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return u @ pool.embeddings.T

    def check(self, pool, loss_of, seed):
        """Loss and student adjoint on rows vs on coordinates mapped back through Q^T."""
        q = pool.basis.data
        s, t = self.rows(pool, 24, seed), self.rows(pool, 20, seed + 1)
        results = []
        for student, teacher in ((s, t), (s @ q, t @ q)):
            tape = Tape()
            leaf = tape.leaf(student)
            loss = loss_of(leaf, Matrix(teacher))
            results.append((loss.item(), backward(tape, loss)[leaf.slot]))
        (want, grad_rows), (got, grad_coords) = results
        assert got == pytest.approx(want, rel=self.REL)
        back = grad_coords @ q.T
        assert np.linalg.norm(back - grad_rows) <= self.REL * np.linalg.norm(grad_rows)

    @pytest.mark.parametrize("name", basis_pools())
    @pytest.mark.parametrize("tau", [10.0, 0.5])
    def test_lcd(self, name, tau):
        def loss_of(s, t):
            return lcd_loss(s, self.STUDENT_LABELS, t, self.TEACHER_LABELS, tau)[0]

        self.check(basis_pools()[name], loss_of, seed=11)

    @pytest.mark.parametrize("name", basis_pools())
    def test_gpd(self, name):
        def loss_of(s, t):
            return gpd_loss(class_prototypes(t, self.TEACHER_LABELS, 6),
                            class_prototypes(s, self.STUDENT_LABELS, 6))

        self.check(basis_pools()[name], loss_of, seed=13)
