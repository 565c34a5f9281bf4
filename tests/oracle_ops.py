"""Tape ops that only the tests use.

The per-gate GRU oracle in ``test_model.py`` cuts gate blocks out of the
stacked weights with :func:`slice_axis`, forms ``1 - z`` with :func:`sub`
and stacks its states with :func:`stack_rows`; the model itself needs
none of them.
"""

import numpy as np

from iben.autodiff import Tensor, _apply, _require_same_shape, concat, reshape


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return _apply(a.values - b.values, "sub", (a, b), (lambda g: g, lambda g: -g))


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.values.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    shape = a.shape

    def fn(g):
        full = np.zeros(shape, dtype=np.float64)
        full[idx] = g
        return full

    return _apply(a.values[idx].copy(), "slice", (a,), (fn,))


def stack_rows(vectors) -> Tensor:
    """Stack 1-D tensors of equal length into a matrix, one per row."""
    vectors = list(vectors)
    return concat([reshape(v, (1, v.shape[0])) for v in vectors], axis=0)
