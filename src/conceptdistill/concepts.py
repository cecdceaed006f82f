"""The concept pool shared by the teacher and the student.

A pool is stored as columns: an ordered tuple of concept ids and one
read-only N x dim embedding matrix, row i embedding concept i. That order
is the concept axis of every similarity row downstream, so the teacher's
and the student's rows are comparable column by column. A concept's class
is the part of its id before the first "." (``DR.concept3`` is a DR concept).
Every row must be a unit vector, L2 norm within 1e-9 of 1:
``model.forward`` normalises only the embedding side, so a longer row
would score a "cosine" above 1.

The reduced QR factorization ``embeddings = Q R``, k = min(N, dim), is
taken once and held as two read-only constant matrices: ``basis``,
the N x k matrix Q with orthonormal columns, and ``coords_t``, the dim x k
matrix R^T. A similarity row is ``E u`` for an embedding ``u``, so it lies
in the column span of Q: for rows S, ``S Q Q^T = S``. Their coordinates
``S Q``, which equal ``U R^T`` for the unit embedding rows U, therefore keep
every inner product, class mean and squared distance between rows, in k
columns instead of N. The model computes them as ``U @ coords_t`` and never
forms S; the losses that use rows only through those quantities (GPD and
LCD) are trained on them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .autodiff import Matrix


class ConceptPool:
    def __init__(self, ids, embeddings):
        self.ids = tuple(ids)
        self.embeddings = np.array(embeddings, dtype=np.float64)
        if not self.ids:
            raise ValueError("empty concept pool")
        if not all(isinstance(cid, str) for cid in self.ids):  # fingerprint() encodes them
            raise ValueError(f"concept ids must be strings, got {self.ids!r}")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate concept id in pool")
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] != len(self.ids):
            raise ValueError(
                f"embeddings of shape {self.embeddings.shape} for {len(self.ids)} concept ids; "
                "need one row per id"
            )
        norms = np.linalg.norm(self.embeddings, axis=1)
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))  # catches NaN norms too
        if off.size:
            i = off[0]
            raise ValueError(f"embedding row {i} ({self.ids[i]!r}) has L2 norm "
                             f"{float(norms[i])!r}; pool rows must be unit vectors")
        self.embeddings.flags.writeable = False
        q, r = np.linalg.qr(self.embedding_matrix())
        self.basis, self.coords_t = Matrix(q), Matrix(np.ascontiguousarray(r.T))
        q.flags.writeable = self.coords_t.data.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def embedding_matrix(self) -> np.ndarray:
        return self.embeddings

    def fingerprint(self) -> str:
        """Hash of the ids and the embedding bytes: equal only for the same pool."""
        h = hashlib.sha256()
        for cid in self.ids:
            h.update(cid.encode("utf-8"))
            h.update(b"\x00")
        h.update(self.embeddings.tobytes())
        return h.hexdigest()

