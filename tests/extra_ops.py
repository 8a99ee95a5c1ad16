"""Tensor primitives that only the tests build graphs from.

Each records one node on the active :class:`profforce.tensor.Tape`, as
the primitives in :mod:`profforce.tensor` do; the gradient checks and
the per-step reference unrolls use them.
"""

import numpy as np

from profforce.tensor import (
    Tensor,
    _record,
    _stable_softmax,
    reshape,
    softmax_cross_entropy_rows,
)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose expects a 2D tensor, got shape {a.shape}")
    out = Tensor(a.data.T, copy=False)
    return _record(out, (a,), lambda g: (g.T,))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilised by max subtraction."""
    s = _stable_softmax(a.data)
    out = Tensor(s, copy=False)

    def back(g):
        inner = np.sum(g * s, axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _record(out, (a,), back)


def softmax_cross_entropy(logits: Tensor, target: int) -> Tensor:
    """Negative log softmax probability of ``target`` for a 1D logit vector:
    :func:`softmax_cross_entropy_rows` over one row."""
    if logits.data.ndim != 1:
        raise ValueError(f"softmax_cross_entropy expects 1D logits, got {logits.shape}")
    row = reshape(logits, (1, logits.shape[0]))
    return reshape(softmax_cross_entropy_rows(row, [int(target)]), ())


def embed(table: Tensor, ids) -> Tensor:
    """Row lookup into ``table``; the gradient scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.int64)
    rows = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ValueError(f"symbol id out of range for table with {rows} rows")
    out = Tensor(table.data[idx], copy=False)

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), back)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(np.asarray(np.sum(a.data) / n), copy=False)
    shape = a.shape
    return _record(out, (a,), lambda g: (np.broadcast_to(g / n, shape),))
