"""Central finite differences, the reference the tests hold analytic gradients to."""

from typing import Callable

import numpy as np

from conceptdistill.autodiff import Matrix, as_matrix


def finite_diff_grad(f: Callable[[Matrix], float], x: Matrix, h: float = 1e-5) -> Matrix:
    """Central-difference gradient of a scalar function, entry by entry."""
    if h <= 0:
        raise ValueError("finite_diff_grad: h must be positive")
    base = as_matrix(x).data
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            plus = base.copy()
            plus[i, j] += h
            minus = base.copy()
            minus[i, j] -= h
            grad[i, j] = (f(Matrix(plus)) - f(Matrix(minus))) / (2.0 * h)
    return Matrix(grad)
