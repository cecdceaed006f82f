import numpy as np
import pytest

from conceptdistill.concepts import ConceptPool
from conceptdistill.synthetic import GeneratorConfig, generate


def make_pool(per_class: dict[str, int], dim: int = 16, seed: int = 0) -> ConceptPool:
    ids = [f"{hint}.concept{j}" for hint, n in per_class.items() for j in range(n)]
    emb = np.random.default_rng(seed).standard_normal((len(ids), dim))
    return ConceptPool(ids, [v / np.linalg.norm(v) for v in emb])


class TestLoadPool:
    """Building a pool from ids and embedding rows, and the pool generate builds."""

    def test_nine_class_pool(self):
        cfg = GeneratorConfig()
        _, pool = generate(cfg)
        assert len(pool) == 90
        assert pool.dim == 16
        classes = [cid.split(".")[0] for cid in pool.ids]
        assert all(classes.count(name) == 10 for name in cfg.class_names)

    def test_single_concept(self):
        pool = ConceptPool(["only"], [[0.6, 0.8]])
        assert len(pool) == 1
        assert pool.dim == 2
        assert pool.ids == ("only",)

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            ConceptPool(["a.concept0", "a.concept1"], [[0.0] * 16, [0.0] * 17])

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConceptPool(["a.concept0", "a.concept0"], np.eye(2))

    def test_ids_must_be_strings(self):
        # integer ids used to build a pool whose fingerprint() raised AttributeError
        for ids in ([1, 2], ["a.concept0", b"a.concept1"]):
            with pytest.raises(ValueError, match="concept ids must be strings"):
                ConceptPool(ids, np.eye(2))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ConceptPool([], np.zeros((0, 4)))

    def test_embeddings_normalized_on_load(self):
        # the pool refuses rows that are not unit vectors, so generate normalises them first
        _, pool = generate(GeneratorConfig(seed=3))
        np.testing.assert_allclose(np.linalg.norm(pool.embedding_matrix(), axis=1), 1.0)

    @pytest.mark.parametrize("rows, message", [
        ([[0.6, 0.8], [3.0, 4.0]], r"row 1 \('b'\) has L2 norm 5\.0;"),
        ([[0.0, 0.0], [1.0, 0.0]], r"row 0 \('a'\) has L2 norm 0\.0;"),
        ([[0.6, 0.8], [0.6, 0.8 + 1e-8]], r"row 1 \('b'\) has L2 norm 1\.00000000"),
    ], ids=["scaled", "zero", "just_off"])
    def test_rows_must_be_unit_vectors(self, rows, message):
        # forward normalises only the embedding side: [[1, 1]] against a row
        # of norm 5 would score 4.95
        with pytest.raises(ValueError, match=message + ".*pool rows must be unit vectors"):
            ConceptPool(["a", "b"], rows)
        ConceptPool(["a", "b"], [[0.6, 0.8], [0.6, 0.8 + 1e-10]])  # within 1e-9 passes

    def test_round_trip(self):
        pool = make_pool({"a": 3, "b": 2})
        again = ConceptPool(pool.ids, pool.embedding_matrix())
        assert again.ids == pool.ids
        np.testing.assert_array_equal(again.embedding_matrix(), pool.embedding_matrix())
        assert again.fingerprint() == pool.fingerprint()

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ConceptPool(["a", "b"], np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            ConceptPool(["a"], np.ones(3))

    def test_embeddings_stored_read_only(self):
        emb = np.eye(3)
        pool = ConceptPool(["a", "b", "c"], emb)
        assert pool.embedding_matrix() is pool.embeddings
        with pytest.raises(ValueError):
            pool.embeddings[0, 0] = 2.0
        emb[0, 0] = 2.0  # the caller's array is not the stored one
        assert pool.embeddings[0, 0] == 1.0

    def test_fingerprint_covers_embeddings(self):
        _, pool_0 = generate(GeneratorConfig(seed=0))
        _, again = generate(GeneratorConfig(seed=0))
        _, pool_1 = generate(GeneratorConfig(seed=1))
        assert pool_0.ids == pool_1.ids
        assert pool_0.fingerprint() == again.fingerprint()
        assert pool_0.fingerprint() != pool_1.fingerprint()


def basis_pools() -> dict[str, ConceptPool]:
    """Pools with fewer concepts than dims, more, and two equal embedding rows."""
    twin = make_pool({"a": 12}, dim=8, seed=4).embeddings.copy()
    twin[5] = twin[2]
    return {
        "n_below_dim": make_pool({"a": 3, "b": 4}, dim=16, seed=1),
        "n_above_dim": make_pool({"a": 20, "b": 20}, dim=16, seed=2),
        "equal_rows": ConceptPool([f"a.concept{i}" for i in range(12)], twin),
    }


class TestBasis:
    """``pool.basis``: orthonormal coordinates that keep similarity-row geometry."""

    @pytest.mark.parametrize("name", basis_pools())
    def test_orthonormal_and_read_only(self, name):
        pool = basis_pools()[name]
        q = pool.basis.data
        assert q.shape == (len(pool), min(len(pool), pool.dim))
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-14)
        assert not pool.basis.tracked
        with pytest.raises(ValueError):
            q[0, 0] = 1.0

    @pytest.mark.parametrize("name", basis_pools())
    def test_coordinates_keep_inner_products(self, name):
        pool = basis_pools()[name]
        u = np.random.default_rng(7).standard_normal((30, pool.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        sims = u @ pool.embeddings.T
        coords = sims @ pool.basis.data
        assert np.abs(coords @ coords.T - sims @ sims.T).max() <= 1e-13
        # every row lies in the basis span
        assert np.abs(coords @ pool.basis.data.T - sims).max() <= 1e-13

