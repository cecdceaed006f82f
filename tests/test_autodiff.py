import gc
import inspect
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistill import autodiff as ad
from conceptdistill.autodiff import Matrix, ShapeError, Tape, backward

from gradcheck import finite_diff_grad


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


def normalize_rows(rows) -> Matrix:
    """Row L2 normalization: ``cosine_similarity`` against identity columns."""
    rows = np.asarray(rows.data if isinstance(rows, Matrix) else rows, dtype=np.float64)
    return ad.cosine_similarity(rows, np.eye(rows.shape[1]))


class TestL2NormalizeRows:
    """The row normalization inside ``cosine_similarity``, read through an identity ``unit_t``."""

    def test_three_four_five(self):
        out = normalize_rows([[3.0, 4.0]])
        np.testing.assert_allclose(out.data, [[0.6, 0.8]])

    def test_zero_row_guard(self):
        # rows with norm <= eps come out as zero, including a tiny non-zero row
        for rows in ([[0.0, 0.0]], [[0.0, 1e-15]]):
            out = normalize_rows(rows)
            np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_direct_norms(self):
        out = normalize_rows([[1.0, 1.0], [2.0, 0.0]])
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(out.data, [[s, s], [1.0, 0.0]], atol=1e-12)

    @given(st.lists(st.lists(st.floats(-5, 5), min_size=2, max_size=5), min_size=1, max_size=6).filter(
        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, rows):
        once = normalize_rows(rows)
        twice = normalize_rows(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-12)


def recorded_vjp(out: Matrix):
    """The hand-written VJP of the op that produced ``out``."""
    slot, _, vjp = out.tape._ops[-1]
    assert slot == out.slot
    return vjp


class TestFusedOpsExact:
    """Each fused op's value and adjoints equal, bit for bit, the NumPy expressions it replaces."""

    def test_affine(self):
        rng = np.random.default_rng(0)
        x0, w0, b0 = (rng.standard_normal(shape) for shape in ((5, 3), (3, 4), (1, 4)))
        g = rng.standard_normal((5, 4))
        tape = Tape()
        x, w, b = tape.leaf(x0), tape.leaf(w0), tape.leaf(b0)
        out = ad.affine(x, w, b)
        np.testing.assert_array_equal(out.data, x0 @ w0 + b0)
        dx, dw, db = recorded_vjp(out)(g)
        np.testing.assert_array_equal(dx, g @ w0.T)
        np.testing.assert_array_equal(dw, x0.T @ g)
        np.testing.assert_array_equal(db, g.sum(axis=0, keepdims=True))

    def test_affine_skips_untracked_adjoints(self):
        tape = Tape()
        w = tape.leaf(np.ones((2, 3)))
        out = ad.affine(np.ones((4, 2)), w, np.zeros((1, 3)))
        dx, dw, db = recorded_vjp(out)(np.ones((4, 3)))
        assert dx is None and db is None
        np.testing.assert_array_equal(dw, np.full((2, 3), 4.0))

    def test_cosine_similarity(self):
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal((6, 4))
        u0[2] = 0.0  # a zero row: output zero, adjoint zero
        u0[4] = [0.0, 1e-13, 0.0, 0.0]  # below eps: guarded like a zero row
        unit_t = rng.standard_normal((4, 7))
        unit_t /= np.linalg.norm(unit_t, axis=0)
        g = rng.standard_normal((6, 7))
        tape = Tape()
        out = ad.cosine_similarity(tape.leaf(u0), unit_t)

        norms = np.linalg.norm(u0, axis=1, keepdims=True)
        safe = np.maximum(norms, 1e-12)
        live = (norms > 1e-12).astype(np.float64)
        unit = u0 / safe * live
        np.testing.assert_array_equal(out.data, unit @ unit_t)
        du, d_unit_t = recorded_vjp(out)(g)
        gn = g @ unit_t.T
        dot = (gn * unit).sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(du, live * (gn - unit * dot) / safe)
        assert d_unit_t is None
        np.testing.assert_array_equal(out.data[[2, 4]], 0.0)
        np.testing.assert_array_equal(du[[2, 4]], 0.0)

    def test_cosine_similarity_rejects_tracked_unit_t(self):
        tape = Tape()
        with pytest.raises(ValueError, match="unit_t must be a constant"):
            ad.cosine_similarity(np.ones((2, 3)), tape.leaf(np.eye(3)))
        with pytest.raises(ShapeError):
            ad.cosine_similarity(np.ones((2, 3)), np.eye(4))

    def test_loss_sum(self):
        cls0, gpd0, lcd0, alpha, beta = 0.7310585786, 0.123456789, 2.718281828, 0.6, 0.05
        g = np.array([[1.3]])
        for terms in ([(gpd0, alpha), (lcd0, beta)], [(gpd0, alpha)], [(lcd0, beta)]):
            tape = Tape()
            cls = tape.leaf([[cls0]])
            leaves = [(tape.leaf([[t]]), w) for t, w in terms]
            out = ad.loss_sum(cls, leaves)
            weighted = terms[0][0] * terms[0][1]
            if len(terms) == 2:
                weighted = weighted + terms[1][0] * terms[1][1]
            assert out.item() == cls0 + weighted
            adjoints = recorded_vjp(out)(g)
            np.testing.assert_array_equal(adjoints[0], g)
            for adjoint, (_, w) in zip(adjoints[1:], terms):
                np.testing.assert_array_equal(adjoint, g * w)

    def test_class_mean_distance(self):
        # the two ops it replaces: each side's class means by an indicator
        # matmul, then the mean squared distance over the shared classes' rows
        rng = np.random.default_rng(3)
        a0, b0 = rng.standard_normal((7, 4)), rng.standard_normal((9, 4))
        wa, present_a = class_weights(np.array([0, 2, 2, 4, 0, 2, 4]), 5)
        wb, present_b = class_weights(np.array([1, 2, 4, 4, 2, 1, 0, 4, 2]), 5)
        shared = present_a & present_b
        g = np.array([[0.6]])
        tape = Tape()
        a, b = tape.leaf(a0), tape.leaf(b0)
        out = ad.class_mean_distance(wa, a, wb, b, shared)

        rows = np.flatnonzero(shared)
        c = 1.0 / len(rows)
        d = (wa @ a0)[rows] - (wb @ b0)[rows]
        np.testing.assert_array_equal(out.data, ((d * d).sum() * c).reshape(1, 1))
        half = (g[0, 0] * c) * d
        grad = np.zeros((5, 4))
        grad[rows] = half + half
        da, db = recorded_vjp(out)(g)
        np.testing.assert_array_equal(da, wa.T @ grad)
        np.testing.assert_array_equal(db, wb.T @ -grad)

    def test_loss_sum_inputs_checked(self):
        with pytest.raises(ShapeError, match="1x1"):
            ad.loss_sum([[1.0]], [(np.ones((1, 2)), 0.5)])
        with pytest.raises(ValueError, match="no terms"):
            ad.loss_sum([[1.0]], [])

    @pytest.mark.parametrize("scale", [1e-100, 1e-3, 1.0, 1e3, 1e100])
    def test_cosine_similarity_norms_equal_linalg_norm(self, scale):
        # the row norms are np.linalg.norm(u, axis=1)'s own expression, bit for bit
        rng = np.random.default_rng(7)
        u0 = rng.standard_normal((9, 5)) * scale
        u0[3] = 0.0
        unit_t = rng.standard_normal((5, 4))
        unit_t /= np.linalg.norm(unit_t, axis=0)
        g = rng.standard_normal((9, 4))
        tape = Tape()
        out = ad.cosine_similarity(tape.leaf(u0), unit_t)
        norms = np.linalg.norm(u0, axis=1, keepdims=True)
        safe = np.maximum(norms, 1e-12)
        live = (norms > 1e-12).astype(np.float64)
        unit = u0 / safe * live
        np.testing.assert_array_equal(out.data, unit @ unit_t)
        gn = g @ unit_t.T
        dot = (gn * unit).sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(recorded_vjp(out)(g)[0], live * (gn - unit * dot) / safe)


class TestSharedData:
    """What is copied and checked when a value enters a matrix or a tape."""

    def test_matrix_shares_a_float64_array(self):
        a = np.arange(6.0).reshape(2, 3)
        m = Matrix(a)
        assert m.data is a
        v = np.arange(3.0)
        assert np.shares_memory(Matrix(v).data, v)  # a 1-D array becomes a 1 x n view

    def test_matrix_converts_other_input(self):
        ints = np.arange(4).reshape(2, 2)
        m = Matrix(ints)
        assert m.data.dtype == np.float64 and not np.shares_memory(m.data, ints)
        np.testing.assert_array_equal(Matrix([[1, 2]]).data, [[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_shared_matrix_still_checked(self, bad):
        a = np.ones((3, 2))
        a[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Matrix(a)

    def test_leaf_copies(self):
        a = np.ones((2, 2))
        tape = Tape()
        for value in (a, Matrix(a)):
            leaf = tape.leaf(value)
            assert leaf.tracked and not np.shares_memory(leaf.data, a)
        a[0, 0] = 5.0
        assert leaf.data[0, 0] == 1.0
        with pytest.raises(ValueError, match="non-finite"):
            tape.leaf([[np.nan]])

    def test_param_tracks_the_array_itself(self):
        a = np.ones((2, 3))
        tape = Tape()
        p = tape.param(a)
        assert p.data is a and p.tape is tape
        x = tape.leaf(np.ones((1, 2)))
        assert p.slot != x.slot

    @pytest.mark.parametrize("bad", [[[1.0, 2.0]], np.ones(3), np.ones((2, 2), dtype=np.float32),
                                     np.ones((1, 2, 2))], ids=["list", "1-D", "float32", "3-D"])
    def test_param_needs_a_2d_float64_array(self, bad):
        with pytest.raises(ShapeError, match="param"):
            Tape().param(bad)

    def test_take_rows(self):
        a = np.arange(12.0).reshape(4, 3)
        m = Matrix(a)
        idx = np.array([3, 0, 3])
        rows = m.take_rows(idx)
        np.testing.assert_array_equal(rows.data, a[idx])
        assert not rows.tracked and not np.shares_memory(rows.data, a)
        with pytest.raises(ShapeError, match="take_rows"):
            m.take_rows(1)
        with pytest.raises(IndexError):
            m.take_rows(np.array([4]))

    def test_take_rows_rejects_tracked(self):
        with pytest.raises(ValueError, match="tracked"):
            Tape().leaf(np.ones((2, 2))).take_rows(np.array([0]))


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
        y = ad.tanh(x)
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
            ad.matmul(t1.leaf([[1.0]]), t2.leaf([[1.0]]))

    def test_untracked_leaf_absent_from_gradients(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]])
        unused = tape.leaf([[5.0]])
        grads = backward(tape, ad.matmul(x, x.data.T))
        assert grads[unused.slot] is None and grads[x.slot] is not None

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
    "affine": lambda rng: _affine_case(rng, tracked="x"),
    "affine_w": lambda rng: _affine_case(rng, tracked="w"),
    "affine_b": lambda rng: _affine_case(rng, tracked="b"),
    "tanh": lambda rng: _unary_case(rng, ad.tanh),
    "cosine_similarity": lambda rng: _cosine_case(rng),
    "softmax_cross_entropy": lambda rng: _cross_entropy_case(rng),
    "supcon_loss": lambda rng: _supcon_case(rng, tracked="anchors"),
    "supcon_loss_others": lambda rng: _supcon_case(rng, tracked="others"),
    "class_mean_distance": lambda rng: _class_mean_case(rng, tracked="a"),
    "class_mean_distance_b": lambda rng: _class_mean_case(rng, tracked="b"),
    "loss_sum": lambda rng: _loss_sum_case(rng),
}


def test_tapes_hold_no_reference_cycle():
    # a VJP that captured a tracked Matrix would keep its tape alive until the
    # cycle collector ran, with every array the tape's closures hold
    rng = np.random.default_rng(5)
    gc.disable()
    try:
        for name, case in OP_CASES.items():
            build, x0 = case(rng)
            tape = Tape()
            backward(tape, build(tape.leaf(x0)))
            ref = weakref.ref(tape)
            del tape
            assert ref() is None, name
    finally:
        gc.enable()


def test_every_public_op_has_a_gradient_case():
    public_ops = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
                  if fn.__module__ == ad.__name__ and not name.startswith("_")}
    public_ops -= {"as_matrix", "backward"}
    covered = {op for op in public_ops for case in OP_CASES
               if case == op or case.startswith(op + "_")}
    assert covered == public_ops


def _mean_sq_distance(a, b, rows):
    """Mean over ``rows`` (a boolean mask) of ``||a_r - b_r||^2``, with each row its own class."""
    eye = np.eye(len(rows))
    return ad.class_mean_distance(eye, a, eye, b, rows)


def _reduce(shape, rng):
    """Reduce an op's output y to a scalar whose cotangent, 2 (y - w) / rows, is a random matrix."""
    w = rng.uniform(-1, 1, shape)
    return lambda out: _mean_sq_distance(out, w, np.ones(shape[0], dtype=bool))


def _unary_case(rng, op, low=-2.0, high=2.0):
    x0 = rng.uniform(low, high, _random_shape(rng))
    reduce = _reduce(op(Matrix(x0)).shape, rng)
    return (lambda x: reduce(op(x))), x0


def _affine_case(rng, tracked):
    m, k = _random_shape(rng)
    n = int(rng.integers(1, 9))
    operands = {"x": rng.uniform(-2, 2, (m, k)), "w": rng.uniform(-2, 2, (k, n)),
                "b": rng.uniform(-2, 2, (1, n))}
    reduce = _reduce((m, n), rng)

    def build(leaf):
        return reduce(ad.affine(**{**operands, tracked: leaf}))

    return build, operands[tracked]


def _cosine_case(rng):
    """Rows of norm 0.2 to ~3.5, and half the time a zero row that the reduction leaves out.

    A zero row's output and adjoint are zero; a finite difference across it
    would see the normalized row jump, so only the other rows are scored.
    """
    m, k = int(rng.integers(2, 9)), int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    x0 = rng.uniform(0.2, 2.0, (m, k)) * rng.choice([-1.0, 1.0], (m, k))
    unit_t = rng.standard_normal((k, n))
    unit_t /= np.linalg.norm(unit_t, axis=0)
    scored = np.ones(m, dtype=bool)
    if rng.uniform() < 0.5:
        zero = int(rng.integers(m))
        x0[zero] = 0.0
        scored[zero] = False
    w = rng.uniform(-1, 1, (m, n))
    return (lambda x: _mean_sq_distance(ad.cosine_similarity(x, unit_t), w, scored)), x0


def _loss_sum_case(rng):
    """``base + (w_1 t_1 [+ w_2 t_2])`` with one of its 1x1 operands tracked."""
    values = rng.uniform(-2, 2, (int(rng.integers(2, 4)), 1, 1))
    weights = rng.uniform(0, 2, len(values) - 1)
    tracked = int(rng.integers(len(values)))

    def build(leaf):
        ops = [leaf if i == tracked else v for i, v in enumerate(values)]
        return ad.loss_sum(ops[0], list(zip(ops[1:], weights)))

    return build, values[tracked]


def _matmul_case(rng):
    m, k = _random_shape(rng)
    n = int(rng.integers(1, 9))
    x0 = rng.uniform(-2, 2, (m, k))
    other = rng.uniform(-2, 2, (k, n))
    reduce = _reduce((m, n), rng)
    return (lambda x: reduce(ad.matmul(x, other))), x0


def class_weights(labels, num_classes):
    """Row c averages the rows labelled c: the weights ``losses.class_prototypes`` builds."""
    indicator = np.zeros((num_classes, len(labels)))
    indicator[labels, np.arange(len(labels))] = 1.0
    counts = indicator.sum(axis=1)
    return indicator / np.maximum(counts, 1.0)[:, None], counts > 0


def _class_mean_case(rng, tracked):
    """Class means of two labelled row sets, with some class shared and some absent."""
    c, k = _random_shape(rng)
    n_a, n_b = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    wa, present_a = class_weights(rng.integers(0, c, n_a), c)
    wb, present_b = class_weights(rng.integers(0, c, n_b), c)
    shared = present_a & present_b & (rng.uniform(size=c) < 0.8)
    if not shared.any():  # force one shared class: its mean is the only row of each side
        wa[0], wb[0] = np.eye(n_a)[0], np.eye(n_b)[0]
        shared[0] = True
    a0, b0 = rng.uniform(-2, 2, (n_a, k)), rng.uniform(-2, 2, (n_b, k))
    if tracked == "b":
        return (lambda x: ad.class_mean_distance(wa, a0, wb, x, shared)), b0
    return (lambda x: ad.class_mean_distance(wa, x, wb, b0, shared)), a0


def _cross_entropy_case(rng):
    n = int(rng.integers(1, 9))
    c = int(rng.integers(2, 9))
    x0 = rng.uniform(-2, 2, (n, c))
    labels = rng.integers(0, c, n)
    w = float(rng.uniform(0.5, 2.0))  # an upstream adjoint other than 1
    return (lambda x: ad.loss_sum([[0.0]], [(ad.softmax_cross_entropy(x, labels), w)])), x0


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
            ad.matmul(Matrix([[1e300]]), Matrix([[1e10]]))

    def test_broadcast_shape_mismatch(self):
        # affine's bias is one row of the output's width, never a matrix, column or scalar
        x, w = np.ones((2, 3)), np.ones((3, 4))
        for b_shape in [(2, 4), (4, 1), (1, 1), (1, 3)]:
            with pytest.raises(ShapeError, match="affine"):
                ad.affine(x, w, np.ones(b_shape))
        with pytest.raises(ShapeError, match="affine"):
            ad.affine(x, np.ones((2, 4)), np.ones((1, 4)))

    def test_class_mean_distance_inputs_checked(self):
        w, rows, shared = np.full((2, 3), 1 / 3), np.ones((3, 2)), np.array([True, False])
        for bad in [(np.ones((3, 3)), rows, w, rows, shared),  # class counts differ
                    (w, rows, w, np.ones((3, 4)), shared),  # row widths differ
                    (w, np.ones((4, 2)), w, rows, shared),  # weights do not match the rows
                    (w, rows, w, rows, np.array([True]))]:  # mask of another class count
            with pytest.raises(ShapeError, match="class_mean_distance: .* classes"):
                ad.class_mean_distance(*bad)
        for bad in ([1, 0], [[True, False]], True):
            with pytest.raises(ShapeError, match="boolean mask"):
                ad.class_mean_distance(w, rows, w, rows, np.array(bad))

    def test_class_mean_distance_by_hand(self):
        # class means (3, 4), (9, 9), (0, 1) against zero; classes 0 and 2 are
        # shared: (25 + 1) / 2, and only their means pass an adjoint back
        a = Matrix([[3.0, 4.0], [9.0, 9.0], [0.0, 1.0]])
        tape = Tape()
        b = tape.leaf(np.zeros((2, 2)))
        wb = np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
        loss = ad.class_mean_distance(np.eye(3), a, wb, b, np.array([True, False, True]))
        assert loss.item() == 13.0
        grads = backward(tape, loss)
        # -(m_a - m_b) on the shared means (-3, -4) and (0, -1), mapped back through wb^T
        np.testing.assert_array_equal(grads[b.slot], [[-1.5, -3.0], [-1.5, -2.0]])

    def test_class_mean_distance_nothing_shared_is_zero(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        loss = ad.class_mean_distance(np.eye(2), a, np.eye(2), np.zeros((2, 3)),
                                      np.zeros(2, dtype=bool))
        assert loss.item() == 0.0 and not loss.tracked

    def test_3d_rejected(self):
        with pytest.raises(ShapeError):
            Matrix(np.ones((2, 2, 2)))

    def test_cross_entropy_labels_must_be_integers(self):
        # a cast to int64 would score 0.5, 1.5 and 2.9 as classes 0, 1 and 2
        logits = np.zeros((3, 3))
        for bad in ([0.5, 1.5, 2.9], [0.0, 1.0, 2.0], [True, False, True]):
            with pytest.raises(ValueError, match="softmax_cross_entropy: .* integer dtype"):
                ad.softmax_cross_entropy(logits, bad)
        for good in ([0, 1, 2], np.array([0, 1, 2], dtype=np.uint8)):
            assert ad.softmax_cross_entropy(logits, good).item() == pytest.approx(np.log(3))

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

    def test_supcon_gradient_is_taken_once(self):
        # the recorded VJP scales the op's exponentials in place
        tape = Tape()
        s = tape.leaf([[1.0, 0.0], [0.6, 0.8]])
        loss = ad.supcon_loss(s, [[0.0, 1.0]], [[False, False, True], [False, False, True]],
                              [0.5, 0.5], 1.0)
        backward(tape, loss)
        with pytest.raises(RuntimeError, match="already taken"):
            backward(tape, loss)

    def test_supcon_no_positive_is_zero(self):
        # a lone anchor with no other rows has no candidate at all
        tape = Tape()
        s = tape.leaf([[1.0, 0.0]])
        loss = ad.supcon_loss(s, np.zeros((0, 2)), [[False]], [1.0], 1.0)
        assert loss.item() == 0.0
        assert backward(tape, loss)[s.slot] is None
