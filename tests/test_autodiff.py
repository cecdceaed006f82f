import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistill import autodiff as ad
from conceptdistill.autodiff import (
    Matrix,
    ShapeError,
    Tape,
    backward,
    finite_diff_grad,
)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))


def grad_of(build, x0: np.ndarray) -> np.ndarray:
    """Analytic gradient of scalar build(x) w.r.t. the single leaf x."""
    tape = Tape()
    x = tape.leaf(x0)
    loss = build(x)
    return backward(tape, loss)[x.slot]


def check_against_fd(build, x0: np.ndarray, tol: float = 1e-4, h: float = 1e-5):
    analytic = grad_of(build, x0)
    fd = finite_diff_grad(lambda m: build(m).item(), Matrix(x0), h=h).data
    assert rel_err(analytic, fd) < tol, f"analytic {analytic} vs fd {fd}"


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(np.eye(2), [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_orthogonal_rows(self):
        out = ad.matmul([[1.0, 0.0]], [[0.0], [5.0]])
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_hand_expansion(self):
        out = ad.matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]])
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 1\)"):
            ad.matmul(np.eye(2), np.zeros((3, 1)))

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dims = rng.integers(1, 9, size=4)
            a = rng.uniform(-2, 2, (dims[0], dims[1]))
            b = rng.uniform(-2, 2, (dims[1], dims[2]))
            c = rng.uniform(-2, 2, (dims[2], dims[3]))
            left = ad.matmul(ad.matmul(a, b), c).data
            right = ad.matmul(a, ad.matmul(b, c)).data
            assert rel_err(left, right) < 1e-9


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = ad.l2_normalize_rows([[3.0, 4.0]])
        np.testing.assert_allclose(out.data, [[0.6, 0.8]])

    def test_zero_row_guard(self):
        # rows with norm <= eps come out as zero, including a tiny non-zero row
        for rows in ([[0.0, 0.0]], [[0.0, 1e-15]]):
            out = ad.l2_normalize_rows(rows)
            np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_direct_norms(self):
        out = ad.l2_normalize_rows([[1.0, 1.0], [2.0, 0.0]])
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(out.data, [[s, s], [1.0, 0.0]], atol=1e-12)

    @given(st.lists(st.lists(st.floats(-5, 5), min_size=2, max_size=5), min_size=1, max_size=6).filter(
        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, rows):
        once = ad.l2_normalize_rows(rows)
        twice = ad.l2_normalize_rows(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-12)


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(ad.softmax_rows([[0.0, 0.0]]).data, [[0.5, 0.5]])

    def test_large_inputs_no_overflow(self):
        out = ad.softmax_rows([[1000.0, 0.0]]).data
        assert out[0, 0] > 1.0 - 1e-12
        assert out[0, 1] < 1e-12

    def test_direct_evaluation(self):
        out = ad.softmax_rows([[1.0, 2.0, 3.0]]).data
        e = np.exp([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, (e / e.sum()).reshape(1, 3), atol=1e-12)
        np.testing.assert_allclose(out, [[0.0900, 0.2447, 0.6652]], atol=5e-5)

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=1, max_size=6), min_size=1, max_size=5).filter(
        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one_and_positive(self, rows):
        out = ad.softmax_rows(rows).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)


class TestBackward:
    def test_square_at_three(self):
        tape = Tape()
        x = tape.leaf([[3.0]])
        loss = ad.mul(x, x)
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[x.slot], [[6.0]])

    def test_sum_gives_ones(self):
        tape = Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        grads = backward(tape, ad.sum_all(x))
        np.testing.assert_array_equal(grads[x.slot], np.ones((2, 3)))

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        y = ad.scale(x, 2.0)
        with pytest.raises(ShapeError):
            backward(tape, y)

    def test_loss_from_other_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf([[1.0]])
        with pytest.raises(ValueError):
            backward(t2, ad.mul(x, x))

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(ValueError):
            ad.add(t1.leaf([[1.0]]), t2.leaf([[1.0]]))

    def test_untracked_leaf_absent_from_gradients(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]])
        unused = tape.leaf([[5.0]])
        grads = backward(tape, ad.sum_all(x))
        assert unused.slot not in grads

    def test_softmax_cross_entropy_matches_fd(self):
        rng = np.random.default_rng(0)
        check_against_fd(lambda x: ad.softmax_cross_entropy(x, [0, 2]),
                         rng.uniform(-2, 2, (2, 3)))


class TestFiniteDiff:
    def test_sum_of_squares(self):
        g = finite_diff_grad(lambda m: float((m.data ** 2).sum()), Matrix([[1.0, 2.0]]))
        np.testing.assert_allclose(g.data, [[2.0, 4.0]], atol=1e-6)

    def test_constant_function(self):
        g = finite_diff_grad(lambda m: 3.5, Matrix(np.ones((2, 2))))
        np.testing.assert_array_equal(g.data, np.zeros((2, 2)))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda m: 0.0, Matrix([[1.0]]), h=0.0)


def _random_shape(rng):
    return int(rng.integers(1, 9)), int(rng.integers(1, 9))


OP_CASES = {
    "matmul": lambda rng: _matmul_case(rng),
    "add": lambda rng: _binary_case(rng, ad.add),
    "add_row_broadcast": lambda rng: _broadcast_case(rng, ad.add),
    "sub": lambda rng: _binary_case(rng, ad.sub),
    "mul": lambda rng: _binary_case(rng, ad.mul),
    "mul_col_broadcast": lambda rng: _col_broadcast_case(rng, ad.mul),
    "scale": lambda rng: _unary_case(rng, lambda x: ad.scale(x, 1.7)),
    "tanh": lambda rng: _unary_case(rng, ad.tanh),
    "l2_normalize_rows": lambda rng: _unary_case(rng, ad.l2_normalize_rows, low=0.2, high=2.0),
    "softmax_rows": lambda rng: _unary_case(rng, ad.softmax_rows),
    "softmax_cross_entropy": lambda rng: _cross_entropy_case(rng),
    "supcon_loss": lambda rng: _supcon_case(rng, tracked="anchors"),
    "supcon_loss_others": lambda rng: _supcon_case(rng, tracked="others"),
}


def _reduce(x, weights_shape, rng):
    w = rng.uniform(-1, 1, weights_shape)
    return ad.sum_all(ad.mul(w, x))


def _unary_case(rng, op, low=-2.0, high=2.0):
    shape = _random_shape(rng)
    x0 = rng.uniform(low, high, shape)
    out_shape = op(Matrix(x0)).shape
    w = rng.uniform(-1, 1, out_shape)
    return (lambda x: ad.sum_all(ad.mul(w, op(x)))), x0


def _binary_case(rng, op):
    shape = _random_shape(rng)
    x0 = rng.uniform(-2, 2, shape)
    other = rng.uniform(-2, 2, shape)
    w = rng.uniform(-1, 1, shape)
    return (lambda x: ad.sum_all(ad.mul(w, op(x, other)))), x0


def _broadcast_case(rng, op):
    rows, cols = _random_shape(rng)
    x0 = rng.uniform(-2, 2, (1, cols))
    other = rng.uniform(-2, 2, (rows, cols))
    w = rng.uniform(-1, 1, (rows, cols))
    return (lambda x: ad.sum_all(ad.mul(w, op(other, x)))), x0


def _col_broadcast_case(rng, op):
    rows, cols = _random_shape(rng)
    x0 = rng.uniform(-2, 2, (rows, 1))
    other = rng.uniform(-2, 2, (rows, cols))
    w = rng.uniform(-1, 1, (rows, cols))
    return (lambda x: ad.sum_all(ad.mul(w, op(x, other)))), x0


def _matmul_case(rng):
    m, k = _random_shape(rng)
    n = int(rng.integers(1, 9))
    x0 = rng.uniform(-2, 2, (m, k))
    other = rng.uniform(-2, 2, (k, n))
    w = rng.uniform(-1, 1, (m, n))
    return (lambda x: ad.sum_all(ad.mul(w, ad.matmul(x, other)))), x0


def _cross_entropy_case(rng):
    n = int(rng.integers(1, 9))
    c = int(rng.integers(2, 9))
    x0 = rng.uniform(-2, 2, (n, c))
    labels = rng.integers(0, c, n)
    w = float(rng.uniform(0.5, 2.0))  # an upstream adjoint other than 1
    return (lambda x: ad.scale(ad.softmax_cross_entropy(x, labels), w)), x0


def _supcon_case(rng, tracked):
    n, k = _random_shape(rng)
    m = int(rng.integers(2, 6))  # every anchor has two candidates or more
    # logits within +-8: a saturated softmax has gradients below rounding
    anchors = rng.uniform(-1, 1, (n, k))
    others = rng.uniform(-1, 1, (m, k))
    positive = rng.uniform(size=(n, n + m)) < 0.5
    positive[np.arange(n), np.arange(n)] = False
    # one positive and one negative per anchor, or the loss can be flat and
    # finite differences compare rounding against an exact zero
    positive[:, n], positive[:, -1] = True, False
    weight = rng.uniform(0, 1, n)
    tau = float(rng.uniform(1.0, 3.0))
    if tracked == "others":
        return (lambda x: ad.supcon_loss(anchors, x, positive, weight, tau)), others
    return (lambda x: ad.supcon_loss(x, others, positive, weight, tau)), anchors


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_backward_matches_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        build, x0 = OP_CASES[name](rng)
        check_against_fd(build, x0)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Matrix([[np.nan]])

    def test_rejects_inf_result(self):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            ad.scale(Matrix([[1e300]]), 1e10)

    def test_broadcast_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(np.ones((2, 3)), np.ones((3, 2)))

    def test_3d_rejected(self):
        with pytest.raises(ShapeError):
            Matrix(np.ones((2, 2, 2)))

    def test_supcon_inputs_checked(self):
        rows, weight = np.ones((2, 3)), np.ones(2)
        mask = np.zeros((2, 4), dtype=bool)
        with pytest.raises(ValueError, match="own positive"):
            ad.supcon_loss(rows, rows, np.eye(2, 4, dtype=bool), weight, 1.0)
        with pytest.raises(ShapeError):
            ad.supcon_loss(rows, rows, np.zeros((2, 3), dtype=bool), weight, 1.0)
        with pytest.raises(ShapeError):
            ad.supcon_loss(rows, rows, mask, np.ones(3), 1.0)
        with pytest.raises(ValueError, match="tau"):
            ad.supcon_loss(rows, rows, mask, weight, 0.0)
