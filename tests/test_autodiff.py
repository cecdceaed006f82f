import gc
import inspect
import weakref
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistill import autodiff as ad
from conceptdistill import losses, model
from conceptdistill.autodiff import Matrix, ShapeError, Tape, backward
from conceptdistill.losses import DistillConfig, class_prototypes, gpd_loss, lcd_loss, total_loss
from conceptdistill.model import ModelBinding, ModelParams, Prediction, cross_entropy, forward

from gradcheck import finite_diff_grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))


def track(tape: Tape, x0):
    """``x0`` on ``tape`` and its adjoint's slot: a ``ModelParams`` bound, anything else a leaf."""
    if isinstance(x0, ModelParams):
        binding = ModelBinding(x0, tape)
        return binding, binding.leaf.slot
    leaf = tape.leaf(x0)
    return leaf, leaf.slot


def with_flat(params: ModelParams, flat: np.ndarray) -> ModelParams:
    """A model laid out like ``params`` on the values of ``flat`` (1 x P or P)."""
    return ModelParams(params.modality, flat.reshape(-1), params.sizes, params.num_concepts,
                       params.num_classes, params.pool_fingerprint)


def grad_of(build, x0) -> np.ndarray:
    """Analytic gradient of scalar build(x) w.r.t. x, a leaf of ``x0`` or a binding of it."""
    tape = Tape()
    x, slot = track(tape, x0)
    return backward(tape, build(x))[slot]


def check_against_fd(build, x0, tol: float = 1e-4, h: float = 1e-5):
    analytic = grad_of(build, x0)
    if isinstance(x0, ModelParams):  # the same model, each entry of its vector moved
        fd = finite_diff_grad(lambda m: build(with_flat(x0, m.data)).item(), Matrix(x0.flat), h=h)
    else:
        fd = finite_diff_grad(lambda m: build(m).item(), Matrix(x0), h=h)
    assert rel_err(analytic, fd.data) < tol, f"analytic {analytic} vs fd {fd.data}"


def factors(basis, coords_t):
    """A pool as ``forward`` reads one: its constant factors Q and R^T, nothing else."""
    return SimpleNamespace(basis=Matrix(basis), coords_t=Matrix(coords_t))


def new_model(sizes, n_concepts: int, n_classes: int = 1) -> ModelParams:
    """A zero model with encoder ``sizes`` (features, hidden ..., embedding) and a classifier."""
    size = sum(a * b + b for a, b in zip(sizes, sizes[1:])) + n_concepts * n_classes + n_classes
    return ModelParams("student", np.zeros(size), sizes, n_concepts, n_classes, "")


def identity_model(k: int, n_classes: int = 1) -> ModelParams:
    """A model for k-wide features whose encoder is the identity map, for k identity concepts.

    ``x @ I + 0`` is ``x`` exactly, so the similarity rows normalize the
    features themselves; the classifier is zero.
    """
    params = new_model([k, k], k, n_classes)
    params.arrays["encoder.0.weight"][:] = np.eye(k)
    return params


def normalize_rows(rows) -> Matrix:
    """Row L2 normalization: ``forward``'s coordinates, identity encoder and pool factors."""
    rows = np.asarray(rows.data if isinstance(rows, Matrix) else rows, dtype=np.float64)
    eye = np.eye(rows.shape[1])
    return forward(identity_model(rows.shape[1]), rows, factors(eye, eye))[0]


class TestL2NormalizeRows:
    """The row normalization inside ``forward``, read through identity pool factors."""

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


def random_model(rng, widths, n_concepts, n_classes) -> ModelParams:
    """A model for encoder ``widths`` (features, hidden ..., embedding), entries in [-1, 1)."""
    params = new_model(widths, n_concepts, n_classes)
    for arr in params.arrays.values():
        arr[:] = rng.uniform(-1, 1, arr.shape)
    return params


def pool_factors(rng, dim, n):
    """The factors Q (n x k) and R^T (dim x k) of ``n`` random unit rows of width ``dim``."""
    e = rng.standard_normal((n, dim))
    q, r = np.linalg.qr(e / np.linalg.norm(e, axis=1, keepdims=True))
    return factors(q, np.ascontiguousarray(r.T))


def per_layer_reference(x, arrays, pool, g_coords, g_logits):
    """Values and parameter adjoints by the per-layer NumPy expressions ``forward`` fuses.

    The coordinates' adjoint is the distill path's plus the classifier's,
    summed in the order ``backward`` once accumulated them; a missing output
    adjoint leaves its layers' gradients zero.
    """
    basis, coords_t = pool.basis.data, pool.coords_t.data
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


def bound_forward(params: ModelParams, x, pool):
    """``forward`` of ``params`` bound on a fresh tape: its coordinates and logits."""
    coords, pred = forward(ModelBinding(params, Tape()), x, pool)
    return coords, pred.logits


class TestFusedOpsExact:
    """Each fused op's value and adjoints equal, bit for bit, the NumPy expressions it replaces."""

    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)])
    def test_concept_model(self, hidden):
        # forward, which concept_model was folded into: both adjoints present, and
        # rows that are dead: exactly zero, or below eps
        rng = np.random.default_rng(len(hidden))
        params = random_model(rng, [5, *hidden, 6], 7, 3)
        arrays = list(params.arrays.values())
        x = rng.standard_normal((8, 5))
        pool = pool_factors(rng, 6, 7)
        # without encoder biases, feature rows 2 and 5 give a zero row and one below eps
        for b in arrays[1:-2:2]:
            b[:] = 0.0
        x[2], x[5] = 0.0, [1e-13, 0.0, 0.0, 0.0, 0.0]
        g_coords, g_logits = rng.standard_normal((8, 6)), rng.standard_normal((8, 3))
        coords, logits = bound_forward(params, x, pool)
        want_coords, want_logits, want_grads = per_layer_reference(x, arrays, pool, g_coords,
                                                                   g_logits)
        np.testing.assert_array_equal(coords.data, want_coords)
        np.testing.assert_array_equal(coords.data[[2, 5]], 0.0)
        np.testing.assert_array_equal(logits.data, want_logits)
        d_x, grad = recorded_vjp(logits)(g_coords, g_logits)
        assert d_x is None
        assert_flat_gradient_equal(grad, arrays, want_grads)

    def test_affine(self):
        # the two layers, encoder and classifier, with only the logits' adjoint
        rng = np.random.default_rng(0)
        params = random_model(rng, [3, 4], 5, 2)
        arrays = list(params.arrays.values())
        x, g = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        pool = pool_factors(rng, 4, 5)
        basis = pool.basis.data
        coords, logits = bound_forward(params, x, pool)
        np.testing.assert_array_equal(logits.data, coords.data @ (basis.T @ arrays[2]) + arrays[3])
        _, grad = recorded_vjp(logits)(None, g)
        _, _, want = per_layer_reference(x, arrays, pool, None, g)
        assert_flat_gradient_equal(grad, arrays, want)
        np.testing.assert_array_equal(want[2], basis @ (coords.data.T @ g))
        np.testing.assert_array_equal(want[3], g.sum(axis=0, keepdims=True))

    def test_affine_skips_untracked_adjoints(self):
        # constants get no adjoint, and without the logits' adjoint the classifier's is zero
        params = identity_model(2, n_classes=3)
        eye = factors(np.eye(2), np.eye(2))
        coords, _ = bound_forward(params, np.ones((4, 2)), eye)
        d_x, grad = recorded_vjp(coords)(np.ones((4, 2)), None)
        assert d_x is None
        np.testing.assert_array_equal(grad[0, 6:], 0.0)
        with pytest.raises(ValueError, match="forward: features must be a constant"):
            forward(params, Tape().leaf(np.ones((4, 2))), eye)

    def test_cosine_similarity(self):
        # features I and encoder weight u0: the encoder outputs u0, and its weight's
        # gradient is the adjoint of u0 itself
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal((6, 4))
        u0[2] = 0.0  # a zero row: output zero, adjoint zero
        u0[4] = [0.0, 1e-13, 0.0, 0.0]  # below eps: guarded like a zero row
        pool = pool_factors(rng, 4, 7)
        coords_t = pool.coords_t.data
        g = rng.standard_normal((6, 4))
        coords, du = similarity_and_adjoint(u0, pool, g)

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
        eye = factors(np.eye(2), np.eye(2))
        params = identity_model(2, n_classes=2)
        params.flat *= 10.0
        with pytest.raises(ValueError, match="affine produced non-finite"), \
                np.errstate(all="ignore"):
            forward(params, np.full((1, 2), 1e308), eye)
        params = identity_model(2, n_classes=2)
        params.flat[-6:] = 1e308  # the classifier: (0.71 + 0.71) * 1e308 + 1e308 overflows
        with pytest.raises(ValueError, match="affine produced non-finite"), \
                np.errstate(all="ignore"):
            forward(params, np.ones((1, 2)), eye)

    def test_cosine_similarity_rejects_tracked_unit_t(self):
        # the similarity stage's factors must fit the encoder's output and the classifier
        params = identity_model(3)
        with pytest.raises(ShapeError, match=r"cosine_similarity: \(2, 3\) x \(4, 4\)"):
            forward(params, np.ones((2, 3)), factors(np.eye(4), np.eye(4)))
        with pytest.raises(ShapeError, match=r"affine: \(2, 3\) x \(3, 2\)\^T \(3, 1\)"):
            forward(params, np.ones((2, 3)), factors(np.eye(3, 2), np.eye(3)))

    def test_loss_sum(self):
        # total_loss, which loss_sum was folded into: the weighted terms, then cls
        cls0, gpd0, lcd0, alpha, beta = 0.7310585786, 0.123456789, 2.718281828, 0.6, 0.05
        cfg = DistillConfig(alpha=alpha, beta=beta)
        g = np.array([[1.3]])
        for terms in ([(gpd0, alpha), (lcd0, beta)], [(gpd0, alpha)], [(lcd0, beta)]):
            tape = Tape()
            cls = tape.leaf([[cls0]])
            leaves = {w: tape.leaf([[t]]) for t, w in terms}
            out = total_loss(cls, leaves.get(alpha), leaves.get(beta), cfg)
            weighted = terms[0][0] * terms[0][1]
            if len(terms) == 2:
                weighted = weighted + terms[1][0] * terms[1][1]
            assert out.item() == cls0 + weighted
            adjoints = recorded_vjp(out)(g)
            np.testing.assert_array_equal(adjoints[0], g)
            for adjoint, (_, w) in zip(adjoints[1:], terms):
                np.testing.assert_array_equal(adjoint, g * w)

    def test_class_mean_distance(self):
        # gpd_loss, which class_mean_distance was folded into: each side's class
        # means by its weights, then the mean squared distance over the shared classes
        rng = np.random.default_rng(3)
        a0, b0 = rng.standard_normal((7, 4)), rng.standard_normal((9, 4))
        g = np.array([[0.6]])
        tape = Tape()
        pa = class_prototypes(tape.leaf(a0), [0, 2, 2, 4, 0, 2, 4], 5)
        pb = class_prototypes(tape.leaf(b0), [1, 2, 4, 4, 2, 1, 0, 4, 2], 5)
        out, shared = gpd_loss(pa, pb)

        wa, wb = pa.weights, pb.weights
        rows = np.flatnonzero(pa.present & pb.present)
        assert shared == len(rows) == 3
        c = 1.0 / len(rows)
        d = (wa @ a0)[rows] - (wb @ b0)[rows]
        np.testing.assert_array_equal(out.data, ((d * d).sum() * c).reshape(1, 1))
        half = (g[0, 0] * c) * d
        grad = np.zeros((5, 4))
        grad[rows] = half + half
        da, db = recorded_vjp(out)(g)
        np.testing.assert_array_equal(da, wa.T @ grad)
        np.testing.assert_array_equal(db, wb.T @ -grad)

    @pytest.mark.parametrize("scale", [1e-100, 1e-3, 1.0, 1e3, 1e100])
    def test_cosine_similarity_norms_equal_linalg_norm(self, scale):
        # the row norms are np.linalg.norm(u, axis=1)'s own expression, bit for bit
        rng = np.random.default_rng(7)
        u0 = rng.standard_normal((9, 5)) * scale
        u0[3] = 0.0
        pool = pool_factors(rng, 5, 4)
        coords_t = pool.coords_t.data
        g = rng.standard_normal((9, 4))
        coords, du = similarity_and_adjoint(u0, pool, g)
        norms = np.linalg.norm(u0, axis=1, keepdims=True)
        safe = np.maximum(norms, 1e-12)
        live = (norms > 1e-12).astype(np.float64)
        unit = u0 / safe * live
        np.testing.assert_array_equal(coords, unit @ coords_t)
        gn = g @ coords_t.T
        dot = (gn * unit).sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(du, live * (gn - unit * dot) / safe)


def similarity_and_adjoint(u0, pool, g):
    """``forward``'s coordinates of ``u0`` and the adjoint of ``u0`` for ``g`` on them.

    With features I and encoder weight ``u0`` (bias 0), the encoder's output
    is ``u0`` exactly and its weight's gradient, ``I^T d_u``, is ``d_u``.
    """
    n, k = u0.shape
    params = new_model([n, k], pool.basis.rows)
    params.arrays["encoder.0.weight"][:] = u0
    coords, _ = bound_forward(params, np.eye(n), pool)
    _, grad = recorded_vjp(coords)(g, None)
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
        loss = _score((x, [[0.0]], ALL))  # x^2
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[x.slot], [[6.0]])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        eye = factors(np.eye(2), np.eye(2))
        coords, _ = forward(ModelBinding(identity_model(2), tape), np.ones((2, 2)), eye)
        with pytest.raises(ShapeError):
            backward(tape, coords)

    def test_loss_from_other_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf([[1.0]])
        with pytest.raises(ValueError):
            backward(t2, _score((x, [[0.0]], ALL)))

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(ValueError):
            _score((t1.leaf([[1.0]]), [[0.0]], ALL), (t2.leaf([[1.0]]), [[0.0]], ALL))

    def test_untracked_leaf_absent_from_gradients(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]])
        unused = tape.leaf([[5.0]])
        grads = backward(tape, _score((x, np.zeros((1, 2)), ALL)))
        assert grads[unused.slot] is None and grads[x.slot] is not None

    def test_softmax_cross_entropy_matches_fd(self):
        rng = np.random.default_rng(0)
        # cross_entropy, which softmax_cross_entropy was folded into
        check_against_fd(lambda x: cross_entropy(Prediction(x), [0, 2]),
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
    "forward": lambda rng: _forward_case(rng, int(rng.integers(3)), "both"),
    "cross_entropy": lambda rng: _cross_entropy_case(rng, through_model=True),
    # the model ops again, under the names of the autodiff ops folded into them
    "concept_model": lambda rng: _forward_case(rng, 1, "coords"),
    "softmax_cross_entropy": lambda rng: _cross_entropy_case(rng),
    # forward again, under the names of the per-layer ops it replaced
    "affine": lambda rng: _forward_case(rng, 0, "logits"),
    "affine_w": lambda rng: _forward_case(rng, 0, "coords"),
    "affine_b": lambda rng: _forward_case(rng, 0, "both"),
    "tanh": lambda rng: _forward_case(rng, int(rng.integers(1, 3)), "logits"),
    "cosine_similarity": lambda rng: _cosine_case(rng),
    "lcd_loss": lambda rng: _lcd_case(rng, tracked="student"),
    "gpd_loss": lambda rng: _gpd_case(rng, tracked="b"),
    "total_loss": lambda rng: _total_case(rng, both=True),
    # the loss ops again, under the names of the autodiff ops folded into them
    "supcon_loss": lambda rng: _lcd_case(rng, tracked="student", sparse=True),
    "supcon_loss_others": lambda rng: _lcd_case(rng, tracked="teacher"),
    "class_mean_distance": lambda rng: _gpd_case(rng, tracked="a"),
    "class_mean_distance_b": lambda rng: _gpd_case(rng, tracked="b", one_shared=True),
    "loss_sum": lambda rng: _total_case(rng, both=False),
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
            backward(tape, build(track(tape, x0)[0]))
            ref = weakref.ref(tape)
            del tape
            assert ref() is None, name
    finally:
        gc.enable()


def public_ops() -> set[str]:
    """The public functions of ``autodiff``, ``model`` and ``losses`` that record a tape op.

    An op is a function whose body ends its work in ``autodiff._finish``.
    """
    return {name for module in (ad, model, losses)
            for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_")
            and "_finish(" in inspect.getsource(fn)}


def test_public_ops_are_the_model_and_loss_ops():
    assert public_ops() == {"forward", "cross_entropy", "gpd_loss", "lcd_loss", "total_loss"}


def test_every_public_op_has_a_gradient_case():
    ops = public_ops()
    covered = {op for op in ops for case in OP_CASES if case == op or case.startswith(op + "_")}
    assert covered == ops


ALL = np.ones(1, dtype=bool)  # the one row of a 1 x 1 value


def _score(*terms):
    """A scalar op local to these tests, which reduces op outputs to a loss.

    For ``terms`` of ``(a, w, rows)`` it is the sum over terms of the mean
    over the rows ``rows`` (a boolean mask) of ``||a_r - w_r||^2``, ``w``
    constant. The adjoint of each ``a`` is ``2 (a - w) / |rows|`` on those
    rows and 0 elsewhere.
    """
    ms = tuple([ad.as_matrix(a) for a, _, _ in terms])
    parts = [(m.shape, rows, 1.0 / np.count_nonzero(rows), (m.data - np.asarray(w))[rows])
             for m, (_, w, rows) in zip(ms, terms)]
    value = sum([(d * d).sum() * c for _, _, c, d in parts])

    def vjp(g):
        grads = [np.zeros(shape) for shape, _, _, _ in parts]
        for grad, (_, rows, c, d) in zip(grads, parts):
            grad[rows] = (2.0 * c * g[0, 0]) * d
        return grads

    return ad._finish("score", np.array([[value]]), ms, vjp)


def _reduce(shape, rng):
    """A ``_score`` term for an op's output y: its cotangent, 2 (y - w) / rows, is random."""
    w = rng.uniform(-1, 1, shape)
    return lambda out: (out, w, np.ones(shape[0], dtype=bool))


def _random_forward(rng, n_hidden):
    """A random model with ``n_hidden`` tanh layers, features for it and pool factors.

    Encoder outputs are redrawn until every row has norm >= 0.3, where the
    normalization is smooth on the scale of a finite-difference step.
    """
    while True:
        widths = [int(w) for w in rng.integers(1, 6, n_hidden + 2)]
        n, m, c = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 5))
        params = random_model(rng, widths, n, c)
        arrays = list(params.arrays.values())
        x = rng.uniform(-2, 2, (m, widths[0]))
        h = x
        for i in range(n_hidden + 1):
            h = h @ arrays[2 * i] + arrays[2 * i + 1]
            h = np.tanh(h) if i < n_hidden else h
        if np.linalg.norm(h, axis=1).min() >= 0.3:
            return params, x, pool_factors(rng, widths[-1], n)


def _forward_case(rng, n_hidden, scored):
    """``forward`` on random constants, its model bound.

    ``scored`` picks the outputs the loss reads: "coords", "logits" or "both".
    """
    params, x, pool = _random_forward(rng, n_hidden)
    m, c = x.shape[0], params.num_classes
    reduce_coords, reduce_logits = _reduce((m, pool.basis.cols), rng), _reduce((m, c), rng)

    def build(model):
        coords, pred = forward(model, x, pool)
        if scored == "coords":
            return _score(reduce_coords(coords))
        if scored == "logits":
            return _score(reduce_logits(pred.logits))
        return _score(reduce_coords(coords), reduce_logits(pred.logits))

    return build, params


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
    pool = pool_factors(rng, k, n)
    params = new_model([k, k], n)
    # an encoder near the identity, without bias: rows stay long, and a zero row stays zero
    params.arrays["encoder.0.weight"][:] = np.eye(k) + rng.uniform(-0.1, 0.1, (k, k))
    scored = np.ones(m, dtype=bool)
    if rng.uniform() < 0.5:
        zero = int(rng.integers(m))
        x[zero] = 0.0
        scored[zero] = False
    w = rng.uniform(-1, 1, (m, pool.basis.cols))

    def build(model):
        return _score((forward(model, x, pool)[0], w, scored))

    return build, params


def _total_case(rng, both):
    """``total_loss`` of random 1x1 operands, one tracked; without ``both``, one term is None."""
    values = list(rng.uniform(-2, 2, (3, 1, 1)))
    cfg = DistillConfig(alpha=float(rng.uniform(0, 2)), beta=float(rng.uniform(0, 2)))
    tracked = int(rng.integers(3))
    dropped = None if both else int(rng.choice([i for i in (1, 2) if i != tracked]))

    def build(leaf):
        ops = [leaf if i == tracked else v for i, v in enumerate(values)]
        if dropped is not None:
            ops[dropped] = None
        return total_loss(*ops, cfg)

    return build, values[tracked]


def _gpd_case(rng, tracked, one_shared=False):
    """GPD on the prototypes of two labelled row sets that share class 0 at least.

    With ``one_shared`` every other class is present on one side only.
    """
    c, k = _random_shape(rng)
    n_a, n_b = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    if one_shared:
        c = max(c, 3)
        la, lb = rng.choice([0, *range(1, c, 2)], n_a), rng.choice(range(0, c, 2), n_b)
    else:
        la, lb = rng.integers(0, c, n_a), rng.integers(0, c, n_b)
    la[0] = lb[0] = 0
    a0, b0 = rng.uniform(-2, 2, (n_a, k)), rng.uniform(-2, 2, (n_b, k))
    if tracked == "b":
        return (lambda x: gpd_loss(class_prototypes(a0, la, c), class_prototypes(x, lb, c))[0]), b0
    return (lambda x: gpd_loss(class_prototypes(x, la, c), class_prototypes(b0, lb, c))[0]), a0


def _cross_entropy_case(rng, through_model=False):
    """CE on tracked logits, or with ``through_model`` on a bound one-layer model's logits."""
    w = -rng.uniform(0.5, 2.0, (1, 1))  # an upstream adjoint 2 (loss - w), other than 1
    if through_model:
        params, x, pool = _random_forward(rng, 0)
        labels = rng.integers(0, params.num_classes, x.shape[0])
        return (lambda m: _score((cross_entropy(forward(m, x, pool)[1], labels), w, ALL))), params
    n = int(rng.integers(1, 9))
    c = int(rng.integers(2, 9))
    x0 = rng.uniform(-2, 2, (n, c))
    labels = rng.integers(0, c, n)
    return (lambda x: _score((cross_entropy(Prediction(x), labels), w, ALL))), x0


def _lcd_case(rng, tracked, sparse=False):
    """LCD on random rows; the teacher rows hold every student class and one more.

    So every anchor has a positive and a negative, or the loss can be flat
    and finite differences compare rounding against an exact zero.
    ``sparse`` spreads the labels out and below 0, which ``lcd_loss``
    numbers densely.
    """
    n, k = _random_shape(rng)
    c = int(rng.integers(1, 4))
    ls = rng.integers(0, c, n)
    lt = np.concatenate([np.arange(c + 1), rng.integers(0, c + 1, int(rng.integers(0, 4)))])
    if sparse:
        ls, lt = 100 * ls - 7, 100 * lt - 7
    # logits within +-8: a saturated softmax has gradients below rounding
    s0, t0 = rng.uniform(-1, 1, (n, k)), rng.uniform(-1, 1, (len(lt), k))
    tau = float(rng.uniform(1.0, 3.0))
    if tracked == "teacher":
        return (lambda x: lcd_loss(s0, ls, x, lt, tau)[0]), t0
    return (lambda x: lcd_loss(x, ls, t0, lt, tau)[0]), s0


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
            total_loss(Matrix([[0.0]]), Matrix([[1e300]]), None, DistillConfig(alpha=1e10))

    def test_broadcast_shape_mismatch(self):
        # a layer's bias is one row of its output's width, as ModelParams lays it out,
        # and ModelParams refuses a vector that does not tile that layout exactly
        x, eye = np.ones((2, 3)), factors(np.eye(4), np.eye(4))
        params = new_model([3, 4], 4, 2)
        assert params.arrays["encoder.0.bias"].shape == (1, 4)
        assert params.arrays["classifier.bias"].shape == (1, 2)
        with pytest.raises(ShapeError, match="affine"):  # the weight does not take 3-wide features
            forward(new_model([2, 4], 4, 2), x, eye)
        for flat, sizes in [
            (np.zeros(29), [3, 4]),  # 3 entries too many
            (np.zeros(25), [3, 4]),  # one short
            (np.zeros((1, 26)), [3, 4]),  # a row, not a vector
            (np.zeros(10), [4]),  # the classifier alone: no encoder layer
        ]:
            with pytest.raises(ValueError, match="for a layout of"):
                ModelParams("student", flat, sizes, 4, 2, "")

    def test_class_mean_distance_inputs_checked(self):
        # gpd_loss, which class_mean_distance was folded into: the two sides must
        # agree in class count and row width
        rows = np.ones((3, 2))
        base = class_prototypes(rows, [0, 1, 1], 2)
        for other in (class_prototypes(rows, [0, 1, 2], 3),
                      class_prototypes(np.ones((3, 4)), [0, 1, 1], 2)):
            for a, b in ((base, other), (other, base)):
                with pytest.raises(ShapeError, match="gpd_loss: .* classes"):
                    gpd_loss(a, b)

    def test_class_mean_distance_by_hand(self):
        # class means (3, 4), (9, 9), (0, 1) against zero; classes 0 and 2 are
        # shared: (25 + 1) / 2, and only their means pass an adjoint back
        a = class_prototypes([[3.0, 4.0], [9.0, 9.0], [0.0, 1.0]], [0, 1, 2], 3)
        tape = Tape()
        b = tape.leaf(np.zeros((3, 2)))
        loss, shared = gpd_loss(a, class_prototypes(b, [0, 0, 2], 3))
        assert loss.item() == 13.0 and shared == 2
        grads = backward(tape, loss)
        # -(m_a - m_b) on the shared means (-3, -4) and (0, -1), through the class weights
        np.testing.assert_array_equal(grads[b.slot], [[-1.5, -2.0], [-1.5, -2.0], [0.0, -1.0]])

    def test_class_mean_distance_nothing_shared_is_zero(self):
        tape = Tape()
        a = class_prototypes(tape.leaf(np.ones((2, 3))), [0, 0], 2)
        loss, shared = gpd_loss(a, class_prototypes(np.zeros((2, 3)), [1, 1], 2))
        assert loss.item() == 0.0 and shared == 0 and not loss.tracked and tape._ops == []

    def test_3d_rejected(self):
        with pytest.raises(ShapeError):
            Matrix(np.ones((2, 2, 2)))

    def test_cross_entropy_labels_must_be_integers(self):
        # a cast to int64 would score 0.5, 1.5 and 2.9 as classes 0, 1 and 2
        pred = Prediction(Matrix(np.zeros((3, 3))))
        for bad in ([0.5, 1.5, 2.9], [0.0, 1.0, 2.0], [True, False, True]):
            with pytest.raises(ValueError, match="cross_entropy: .* integer dtype"):
                cross_entropy(pred, bad)
        for good in ([0, 1, 2], np.array([0, 1, 2], dtype=np.uint8)):
            assert cross_entropy(pred, good).item() == pytest.approx(np.log(3))

    def test_supcon_inputs_checked(self):
        # lcd_loss, which supcon_loss was folded into, checks its caller's inputs once
        rows = np.ones((2, 3))
        with pytest.raises(ValueError, match="tau"):
            lcd_loss(rows, [0, 1], rows, [0, 1], 0.0)
        with pytest.raises(ShapeError, match="widths differ"):
            lcd_loss(rows, [0, 1], np.ones((2, 4)), [0, 1], 1.0)
        for ls, lt in (([0, 1, 1], [0, 1]), ([0, 1], [[0, 1]])):
            with pytest.raises(ValueError, match="label vectors"):
                lcd_loss(rows, ls, rows, lt, 1.0)

    def test_supcon_positive_needs_two_candidates(self):
        # one anchor, one other row: the positive has nothing to be scored
        # against, so the anchor is skipped
        tape = Tape()
        loss, skipped = lcd_loss(tape.leaf([[1.0, 0.0]]), [0], [[1.0, 0.0]], [0], 1.0)
        assert skipped == 1 and loss.item() == 0.0 and not loss.tracked

    def test_supcon_gradient_is_taken_once(self):
        # the recorded VJP scales the op's exponentials in place
        tape = Tape()
        s = tape.leaf([[1.0, 0.0], [0.6, 0.8]])
        loss, _ = lcd_loss(s, [0, 0], [[0.0, 1.0]], [1], 1.0)
        backward(tape, loss)
        with pytest.raises(RuntimeError, match="lcd_loss: gradient already taken"):
            backward(tape, loss)

    def test_supcon_no_positive_is_zero(self):
        # a lone anchor with no other rows has no candidate at all
        tape = Tape()
        loss, skipped = lcd_loss(tape.leaf([[1.0, 0.0]]), [0], np.zeros((0, 2)), [], 1.0)
        assert loss.item() == 0.0 and skipped == 1
        assert not loss.tracked and tape._ops == []
