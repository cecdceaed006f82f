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


class TestBackward:
    def test_square_at_three(self):
        tape = Tape()
        x = tape.leaf([[3.0]])
        loss = ad.matmul(x, x)
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[x.slot], [[6.0]])

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
            backward(t2, ad.matmul(x, x))

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(ValueError):
            ad.add(t1.leaf([[1.0]]), t2.leaf([[1.0]]))

    def test_untracked_leaf_absent_from_gradients(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]])
        unused = tape.leaf([[5.0]])
        grads = backward(tape, ad.matmul(x, x.data.T))
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
    "scale": lambda rng: _unary_case(rng, lambda x: ad.scale(x, 1.7)),
    "tanh": lambda rng: _unary_case(rng, ad.tanh),
    "l2_normalize_rows": lambda rng: _unary_case(rng, ad.l2_normalize_rows, low=0.2, high=2.0),
    "softmax_cross_entropy": lambda rng: _cross_entropy_case(rng),
    "supcon_loss": lambda rng: _supcon_case(rng, tracked="anchors"),
    "supcon_loss_others": lambda rng: _supcon_case(rng, tracked="others"),
    "mean_sq_row_distance": lambda rng: _row_distance_case(rng, tracked="a"),
    "mean_sq_row_distance_b": lambda rng: _row_distance_case(rng, tracked="b"),
}


def _reduce(shape, rng):
    """Reduce an op's output y to a scalar whose cotangent, 2 (y - w) / rows, is a random matrix."""
    w = rng.uniform(-1, 1, shape)
    return lambda out: ad.mean_sq_row_distance(out, w, np.arange(out.rows))


def _unary_case(rng, op, low=-2.0, high=2.0):
    x0 = rng.uniform(low, high, _random_shape(rng))
    reduce = _reduce(op(Matrix(x0)).shape, rng)
    return (lambda x: reduce(op(x))), x0


def _binary_case(rng, op):
    shape = _random_shape(rng)
    x0 = rng.uniform(-2, 2, shape)
    other = rng.uniform(-2, 2, shape)
    reduce = _reduce(shape, rng)
    return (lambda x: reduce(op(x, other))), x0


def _broadcast_case(rng, op):
    rows, cols = _random_shape(rng)
    x0 = rng.uniform(-2, 2, (1, cols))
    other = rng.uniform(-2, 2, (rows, cols))
    reduce = _reduce((rows, cols), rng)
    return (lambda x: reduce(op(other, x))), x0


def _matmul_case(rng):
    m, k = _random_shape(rng)
    n = int(rng.integers(1, 9))
    x0 = rng.uniform(-2, 2, (m, k))
    other = rng.uniform(-2, 2, (k, n))
    reduce = _reduce((m, n), rng)
    return (lambda x: reduce(ad.matmul(x, other))), x0


def _row_distance_case(rng, tracked):
    shape = _random_shape(rng)
    x0 = rng.uniform(-2, 2, shape)
    other = rng.uniform(-2, 2, shape)
    rows = np.flatnonzero(rng.uniform(size=shape[0]) < 0.5)
    if rows.size == 0:
        rows = np.array([int(rng.integers(shape[0]))])
    if tracked == "b":
        return (lambda x: ad.mean_sq_row_distance(other, x, rows)), x0
    return (lambda x: ad.mean_sq_row_distance(x, other, rows)), x0


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
        # add broadcasts only its second operand, and only as one bias row
        for a_shape, b_shape in [((2, 3), (3, 2)), ((2, 3), (2, 1)), ((2, 3), (1, 1)),
                                 ((1, 3), (2, 3))]:
            with pytest.raises(ShapeError, match="do not broadcast"):
                ad.add(np.ones(a_shape), np.ones(b_shape))

    def test_row_distance_inputs_checked(self):
        a = np.ones((3, 2))
        with pytest.raises(ShapeError, match="differ"):
            ad.mean_sq_row_distance(a, np.ones((3, 3)), [0])
        for rows in ([], [3], [-1], [1, 1], [2, 0], [[0]]):
            with pytest.raises(ValueError, match="strictly increasing"):
                ad.mean_sq_row_distance(a, a, rows)

    def test_row_distance_by_hand(self):
        # rows 0 and 2 differ by (3, 4) and (0, 1): (25 + 1) / 2; row 1 is not listed
        a = Matrix([[3.0, 4.0], [9.0, 9.0], [0.0, 1.0]])
        tape = Tape()
        b = tape.leaf(np.zeros((3, 2)))
        loss = ad.mean_sq_row_distance(a, b, [0, 2])
        assert loss.item() == 13.0
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[b.slot], [[-3.0, -4.0], [0.0, 0.0], [0.0, -1.0]])

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

    def test_supcon_positive_needs_two_candidates(self):
        # one anchor, one other row: the positive has nothing to be scored against
        with pytest.raises(ValueError, match="two candidates or more"):
            ad.supcon_loss([[1.0, 0.0]], [[1.0, 0.0]], [[False, True]], [1.0], 1.0)

    def test_supcon_no_positive_is_zero(self):
        # a lone anchor with no other rows has no candidate at all
        tape = Tape()
        s = tape.leaf([[1.0, 0.0]])
        loss = ad.supcon_loss(s, np.zeros((0, 2)), [[False]], [1.0], 1.0)
        assert loss.item() == 0.0
        assert s.slot not in backward(tape, loss)
