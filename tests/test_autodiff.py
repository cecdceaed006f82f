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


def identity_model(k: int, n_classes: int = 1):
    """A model for k-wide features whose encoder is the identity map: its layer shapes and 1 x P row.

    ``x @ I + 0`` is ``x`` exactly, so the similarity rows normalize the
    features themselves; the classifier is zero.
    """
    shapes = [(k, k), (1, k), (k, n_classes), (1, n_classes)]
    flat = np.zeros((1, k * k + k + k * n_classes + n_classes))
    flat[0, :k * k] = np.eye(k).ravel()
    return shapes, flat


def tiles(row: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the 1 x P array ``row`` with ``shapes``, end to end: a layout of ``row``."""
    ends = np.cumsum([0] + [r * c for r, c in shapes])
    return [row[0, lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]


def concept_model(x, row, shapes, basis, coords_t):
    """``ad.concept_model`` on ``row`` (a 1 x P array or matrix) laid out as ``shapes``."""
    return ad.concept_model(x, row, tiles(row.data if isinstance(row, Matrix) else row, shapes),
                            basis, coords_t)


def normalize_rows(rows) -> Matrix:
    """Row L2 normalization: ``concept_model``'s coordinates, identity encoder and pool factors."""
    rows = np.asarray(rows.data if isinstance(rows, Matrix) else rows, dtype=np.float64)
    shapes, flat = identity_model(rows.shape[1])
    eye = np.eye(rows.shape[1])
    return concept_model(rows, flat, shapes, eye, eye)[0]


class TestL2NormalizeRows:
    """The row normalization inside ``concept_model``, read through identity pool factors."""

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
    """The hand-written VJP of the op that produced ``out``, the tape's last."""
    slots, _, vjp = out.tape._ops[-1]
    assert out.slot in slots
    return vjp


def random_model(rng, widths, n_concepts, n_classes):
    """Layer arrays for encoder ``widths`` (features, hidden ..., embedding) and a classifier.

    Returns the arrays in layer order, their shapes and the 1 x P row that
    holds them end to end.
    """
    arrays = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        arrays += [rng.uniform(-1, 1, (fan_in, fan_out)), rng.uniform(-1, 1, (1, fan_out))]
    arrays += [rng.uniform(-1, 1, (n_concepts, n_classes)), rng.uniform(-1, 1, (1, n_classes))]
    return arrays, [a.shape for a in arrays], np.concatenate([a.ravel() for a in arrays])[None]


def pool_factors(rng, dim, n):
    """Q (n x k) and R^T (dim x k) of the reduced QR of ``n`` random unit rows of width ``dim``."""
    e = rng.standard_normal((n, dim))
    q, r = np.linalg.qr(e / np.linalg.norm(e, axis=1, keepdims=True))
    return q, np.ascontiguousarray(r.T)


def per_layer_reference(x, arrays, basis, coords_t, g_coords, g_logits):
    """Values and parameter adjoints by the per-layer NumPy expressions ``concept_model`` fuses.

    The coordinates' adjoint is the distill path's plus the classifier's,
    summed in the order ``backward`` once accumulated them; a missing output
    adjoint leaves its layers' gradients zero.
    """
    n_enc = len(arrays) // 2 - 1
    acts = [x]  # each encoder layer's input, then the encoder's output
    for i in range(n_enc):
        h = acts[-1] @ arrays[2 * i] + arrays[2 * i + 1]
        acts.append(np.tanh(h) if i < n_enc - 1 else h)
    u = acts[-1]
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    safe = np.maximum(norms, 1e-12)
    live = (norms > 1e-12).astype(np.float64)
    unit = u / safe * live
    coords = unit @ coords_t
    v = basis.T @ arrays[-2]
    logits = coords @ v + arrays[-1]
    grads = [np.zeros_like(a) for a in arrays]
    g = g_coords
    if g_logits is not None:
        grads[-2] = basis @ (coords.T @ g_logits)
        grads[-1] = g_logits.sum(axis=0, keepdims=True)
        g_cls = g_logits @ v.T
        g = g_cls if g is None else g + g_cls
    gn = g @ coords_t.T
    dot = (gn * unit).sum(axis=1, keepdims=True)
    g = live * (gn - unit * dot) / safe
    for i in reversed(range(n_enc)):
        a = acts[i]
        grads[2 * i], grads[2 * i + 1] = a.T @ g, g.sum(axis=0, keepdims=True)
        if i:
            g = (g @ arrays[2 * i].T) * (1.0 - a * a)
    return coords, logits, grads


def assert_flat_gradient_equal(grad, arrays, want):
    """Each parameter's slice of the 1 x P gradient equals its reference, bit for bit."""
    assert grad.shape == (1, sum(a.size for a in arrays))
    start = 0
    for i, (a, w) in enumerate(zip(arrays, want)):
        np.testing.assert_array_equal(grad[0, start:start + a.size].reshape(a.shape), w,
                                      err_msg=f"array {i}")
        start += a.size


class TestFusedOpsExact:
    """Each fused op's value and adjoints equal, bit for bit, the NumPy expressions it replaces."""

    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)])
    def test_concept_model(self, hidden):
        # both adjoints present, and rows that are dead: exactly zero, or below eps
        rng = np.random.default_rng(len(hidden))
        arrays, shapes, flat0 = random_model(rng, [5, *hidden, 6], 7, 3)
        x = rng.standard_normal((8, 5))
        basis, coords_t = pool_factors(rng, 6, 7)
        # without encoder biases, feature rows 2 and 5 give a zero row and one below eps
        for b in arrays[1:-2:2]:
            b[:] = 0.0
        x[2], x[5] = 0.0, [1e-13, 0.0, 0.0, 0.0, 0.0]
        flat0 = np.concatenate([a.ravel() for a in arrays])[None]
        g_coords, g_logits = rng.standard_normal((8, 6)), rng.standard_normal((8, 3))
        tape = Tape()
        coords, logits = concept_model(x, tape.leaf(flat0), shapes, basis, coords_t)
        want_coords, want_logits, want_grads = per_layer_reference(x, arrays, basis, coords_t,
                                                                   g_coords, g_logits)
        np.testing.assert_array_equal(coords.data, want_coords)
        np.testing.assert_array_equal(coords.data[[2, 5]], 0.0)
        np.testing.assert_array_equal(logits.data, want_logits)
        d_x, grad, d_basis, d_coords_t = recorded_vjp(logits)(g_coords, g_logits)
        assert d_x is None and d_basis is None and d_coords_t is None
        assert_flat_gradient_equal(grad, arrays, want_grads)

    def test_affine(self):
        # the two layers, encoder and classifier, with only the logits' adjoint
        rng = np.random.default_rng(0)
        arrays, shapes, flat0 = random_model(rng, [3, 4], 5, 2)
        x, g = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        basis, coords_t = pool_factors(rng, 4, 5)
        tape = Tape()
        coords, logits = concept_model(x, tape.leaf(flat0), shapes, basis, coords_t)
        np.testing.assert_array_equal(logits.data, coords.data @ (basis.T @ arrays[2]) + arrays[3])
        _, grad, _, _ = recorded_vjp(logits)(None, g)
        _, _, want = per_layer_reference(x, arrays, basis, coords_t, None, g)
        assert_flat_gradient_equal(grad, arrays, want)
        np.testing.assert_array_equal(want[2], basis @ (coords.data.T @ g))
        np.testing.assert_array_equal(want[3], g.sum(axis=0, keepdims=True))

    def test_affine_skips_untracked_adjoints(self):
        # constants get no adjoint, and without the logits' adjoint the classifier's is zero
        tape = Tape()
        shapes, flat = identity_model(2, n_classes=3)
        eye = np.eye(2)
        coords, _ = concept_model(np.ones((4, 2)), tape.leaf(flat), shapes, eye, eye)
        d_x, grad, d_basis, d_coords_t = recorded_vjp(coords)(np.ones((4, 2)), None)
        assert d_x is None and d_basis is None and d_coords_t is None
        np.testing.assert_array_equal(grad[0, 6:], 0.0)
        with pytest.raises(ValueError, match="features must be a constant"):
            concept_model(tape.leaf(np.ones((4, 2))), flat, shapes, eye, eye)

    def test_cosine_similarity(self):
        # features I and encoder weight u0: the encoder outputs u0, and its weight's
        # gradient is the adjoint of u0 itself
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal((6, 4))
        u0[2] = 0.0  # a zero row: output zero, adjoint zero
        u0[4] = [0.0, 1e-13, 0.0, 0.0]  # below eps: guarded like a zero row
        basis, coords_t = pool_factors(rng, 4, 7)
        g = rng.standard_normal((6, 4))
        coords, du = similarity_and_adjoint(u0, basis, coords_t, g)

        norms = np.linalg.norm(u0, axis=1, keepdims=True)
        safe = np.maximum(norms, 1e-12)
        live = (norms > 1e-12).astype(np.float64)
        unit = u0 / safe * live
        np.testing.assert_array_equal(coords, unit @ coords_t)
        gn = g @ coords_t.T
        dot = (gn * unit).sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(du, live * (gn - unit * dot) / safe)
        np.testing.assert_array_equal(coords[[2, 4]], 0.0)
        np.testing.assert_array_equal(du[[2, 4]], 0.0)

    def test_concept_model_checks_each_stage(self):
        # an overflowing encoder or classifier layer is named as the layer that overflowed
        shapes, flat = identity_model(2, n_classes=2)
        eye = np.eye(2)
        with pytest.raises(ValueError, match="affine produced non-finite"), \
                np.errstate(all="ignore"):
            concept_model(np.full((1, 2), 1e308), flat * 10.0, shapes, eye, eye)
        flat[0, -6:] = 1e308  # the classifier: (0.71 + 0.71) * 1e308 + 1e308 overflows
        with pytest.raises(ValueError, match="affine produced non-finite"), \
                np.errstate(all="ignore"):
            concept_model(np.ones((1, 2)), flat, shapes, eye, eye)

    def test_cosine_similarity_rejects_tracked_unit_t(self):
        # the similarity stage's constant operands are the pool's factors Q and R^T
        tape = Tape()
        shapes, flat = identity_model(3)
        eye = np.eye(3)
        with pytest.raises(ValueError, match="basis must be a constant"):
            concept_model(np.ones((2, 3)), flat, shapes, tape.leaf(eye), eye)
        with pytest.raises(ValueError, match="coords_t must be a constant"):
            concept_model(np.ones((2, 3)), flat, shapes, eye, tape.leaf(eye))
        with pytest.raises(ShapeError, match=r"cosine_similarity: \(2, 3\) x \(4, 4\)"):
            concept_model(np.ones((2, 3)), flat, shapes, np.eye(4), np.eye(4))
        with pytest.raises(ShapeError, match=r"affine: \(2, 3\) x \(3, 2\)\^T \(3, 1\)"):
            concept_model(np.ones((2, 3)), flat, shapes, np.eye(3, 2), eye)

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
        basis, coords_t = pool_factors(rng, 5, 4)
        g = rng.standard_normal((9, 4))
        coords, du = similarity_and_adjoint(u0, basis, coords_t, g)
        norms = np.linalg.norm(u0, axis=1, keepdims=True)
        safe = np.maximum(norms, 1e-12)
        live = (norms > 1e-12).astype(np.float64)
        unit = u0 / safe * live
        np.testing.assert_array_equal(coords, unit @ coords_t)
        gn = g @ coords_t.T
        dot = (gn * unit).sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(du, live * (gn - unit * dot) / safe)


def similarity_and_adjoint(u0, basis, coords_t, g):
    """``concept_model``'s coordinates of ``u0`` and the adjoint of ``u0`` for ``g`` on them.

    With features I and encoder weight ``u0`` (bias 0), the encoder's output
    is ``u0`` exactly and its weight's gradient, ``I^T d_u``, is ``d_u``.
    """
    n, k = u0.shape
    n_concepts = basis.shape[0]
    shapes = [(n, k), (1, k), (n_concepts, 1), (1, 1)]
    flat = np.concatenate([u0.ravel(), np.zeros(k + n_concepts + 1)])[None]
    tape = Tape()
    coords, _ = concept_model(np.eye(n), tape.leaf(flat), shapes, basis, coords_t)
    _, grad, _, _ = recorded_vjp(coords)(g, None)
    return coords.data, grad[0, :n * k].reshape(n, k)


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
        loss = _mean_sq_distance(x, np.zeros((1, 1)), np.ones(1, dtype=bool))  # x^2
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[x.slot], [[6.0]])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        shapes, flat = identity_model(2)
        coords, _ = concept_model(np.ones((2, 2)), tape.leaf(flat), shapes, np.eye(2), np.eye(2))
        with pytest.raises(ShapeError):
            backward(tape, coords)

    def test_loss_from_other_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf([[1.0]])
        with pytest.raises(ValueError):
            backward(t2, ad.loss_sum(x, [(x, 1.0)]))

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(ValueError):
            ad.loss_sum(t1.leaf([[1.0]]), [(t2.leaf([[1.0]]), 1.0)])

    def test_untracked_leaf_absent_from_gradients(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]])
        unused = tape.leaf([[5.0]])
        grads = backward(tape, _mean_sq_distance(x, np.zeros((1, 2)), np.ones(1, dtype=bool)))
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
    "concept_model": lambda rng: _concept_model_case(rng, int(rng.integers(3)), "both"),
    # concept_model again, under the names of the per-layer ops it replaced
    "affine": lambda rng: _concept_model_case(rng, 0, "logits"),
    "affine_w": lambda rng: _concept_model_case(rng, 0, "coords"),
    "affine_b": lambda rng: _concept_model_case(rng, 0, "both"),
    "tanh": lambda rng: _concept_model_case(rng, int(rng.integers(1, 3)), "logits"),
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


def _concept_model_case(rng, n_hidden, scored):
    """The op on random constants, its 1 x P parameters tracked.

    ``scored`` picks the outputs the loss reads: "coords", "logits" or "both".
    Encoder outputs are redrawn until every row has norm >= 0.3, where the
    normalization is smooth on the scale of a finite-difference step.
    """
    while True:
        widths = [int(w) for w in rng.integers(1, 6, n_hidden + 2)]
        n, m, c = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 5))
        arrays, shapes, flat0 = random_model(rng, widths, n, c)
        x = rng.uniform(-2, 2, (m, widths[0]))
        h = x
        for i in range(n_hidden + 1):
            h = h @ arrays[2 * i] + arrays[2 * i + 1]
            h = np.tanh(h) if i < n_hidden else h
        if np.linalg.norm(h, axis=1).min() >= 0.3:
            break
    basis, coords_t = pool_factors(rng, widths[-1], n)
    reduce_coords, reduce_logits = _reduce((m, basis.shape[1]), rng), _reduce((m, c), rng)

    def build(leaf):
        coords, logits = concept_model(x, leaf, shapes, basis, coords_t)
        if scored == "coords":
            return reduce_coords(coords)
        if scored == "logits":
            return reduce_logits(logits)
        return ad.loss_sum(reduce_coords(coords), [(reduce_logits(logits), 1.0)])

    return build, flat0


def _cosine_case(rng):
    """Encoder rows of norm 0.2 to ~3.5, scored through the coordinates only.

    Half the time a zero feature row, which without an encoder bias is a
    zero embedding row: its output and adjoint are zero, and since a
    finite difference on the bias would see its normalized row jump, the
    reduction leaves it out.
    """
    m, k = int(rng.integers(2, 9)), int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    x = rng.uniform(0.2, 2.0, (m, k)) * rng.choice([-1.0, 1.0], (m, k))
    basis, coords_t = pool_factors(rng, k, n)
    shapes = [(k, k), (1, k), (n, 1), (1, 1)]
    flat0 = np.zeros((1, k * k + k + n + 1))
    # an encoder near the identity, without bias: rows stay long, and a zero row stays zero
    flat0[0, :k * k] = (np.eye(k) + rng.uniform(-0.1, 0.1, (k, k))).ravel()
    scored = np.ones(m, dtype=bool)
    if rng.uniform() < 0.5:
        zero = int(rng.integers(m))
        x[zero] = 0.0
        scored[zero] = False
    w = rng.uniform(-1, 1, (m, basis.shape[1]))

    def build(leaf):
        return _mean_sq_distance(concept_model(x, leaf, shapes, basis, coords_t)[0], w, scored)

    return build, flat0


def _loss_sum_case(rng):
    """``base + (w_1 t_1 [+ w_2 t_2])`` with one of its 1x1 operands tracked."""
    values = rng.uniform(-2, 2, (int(rng.integers(2, 4)), 1, 1))
    weights = rng.uniform(0, 2, len(values) - 1)
    tracked = int(rng.integers(len(values)))

    def build(leaf):
        ops = [leaf if i == tracked else v for i, v in enumerate(values)]
        return ad.loss_sum(ops[0], list(zip(ops[1:], weights)))

    return build, values[tracked]


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
            ad.loss_sum(Matrix([[0.0]]), [(Matrix([[1e300]]), 1e10)])

    def test_broadcast_shape_mismatch(self):
        # a layer's bias is one row of its output's width, never a matrix, column or scalar
        x, eye = np.ones((2, 3)), np.eye(4)
        classifier = [(4, 2), (1, 2)]
        for b_shape in [(2, 4), (4, 1), (1, 1), (1, 3)]:
            for shapes in ([(3, 4), b_shape, *classifier], [(3, 4), (1, 4), (4, 2), b_shape]):
                flat = np.zeros((1, sum(r * c for r, c in shapes)))
                with pytest.raises(ShapeError, match="affine"):
                    concept_model(x, flat, shapes, eye, eye)
        shapes = [(2, 4), (1, 4), *classifier]  # the weight does not take 3-wide features
        with pytest.raises(ShapeError, match="affine"):
            concept_model(x, np.zeros((1, 22)), shapes, eye, eye)
        shapes = [(3, 4), (1, 4), *classifier]
        row = np.zeros((1, 26))
        for bad_row, arrays in [
            (np.zeros((1, 29)), None),  # the arrays miss 3 entries
            (np.zeros((2, 26)), None),  # two rows
            (row, [a.copy() for a in tiles(row, shapes)]),  # copies, not views of the row
            (row, tiles(row, shapes)[:3]),  # no classifier bias
        ]:
            arrays = tiles(bad_row, shapes) if arrays is None else arrays
            with pytest.raises(ShapeError, match="concept_model: .* do not tile"):
                ad.concept_model(x, bad_row, arrays, eye, eye)

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
