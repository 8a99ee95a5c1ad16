"""Tensor primitives and helpers that only the tests use.

Each primitive records one node on the active
:class:`profforce.tensor.Tape`, as the primitives in
:mod:`profforce.tensor` do; the gradient checks and the per-step
reference unrolls use them.  :func:`loss_nll` is the taped cross
entropy the unroll's own ``nll`` is checked against,
:func:`make_batches` shuffles a dataset into one epoch of batches,
:func:`sample_rows` is the per-step sampler the unroll's draws are
checked against, and :func:`item` reads a one-element tensor as a float.
"""

from typing import Iterator

import numpy as np

from profforce.data import SequenceDataset
from profforce.engine import _as_batch_ids
from profforce.nets import GruCellParams, _gru_bptt, _gru_run
from profforce.tensor import (
    Tensor,
    _cross_entropy_rows,
    _record,
    _stable_softmax,
    reshape,
    scale,
    sum_all,
)


def item(t: Tensor) -> float:
    """The value of a one-element tensor."""
    if t.data.size != 1:
        raise ValueError(f"item() on tensor of shape {t.shape}")
    return float(t.data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2D operands."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError(f"matmul: expects 2D operands, got ranks {ad.ndim} and {bd.ndim}")
    if ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {ad.shape} @ {bd.shape}")
    out = Tensor(ad @ bd, copy=False)
    return _record(out, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = Tensor(t, copy=False)
    return _record(out, (a,), lambda g: (g * (1.0 - t * t),))


def relu(a: Tensor) -> Tensor:
    ad = a.data
    out = Tensor(np.maximum(ad, 0.0), copy=False)
    return _record(out, (a,), lambda g: (g * (ad > 0.0),))


def gru_step(p: GruCellParams, h_prev: Tensor, x_in: Tensor) -> tuple[Tensor, Tensor]:
    """One GRU update; returns the new state and the candidate pre-tanh value.

    ``h_prev`` and ``x_in`` are both single vectors or both ``[B, .]``
    row batches.  The step is one tape node over the kernel of
    :func:`profforce.nets.gru_sequence`, run for one step; either output
    may be left out of the loss.
    """
    hd, xd = h_prev.data, x_in.data
    H = p.hidden_size
    if hd.shape[-1] != H:
        raise ValueError(f"state width {hd.shape[-1]} != hidden size {H}")
    if hd.shape[:-1] != xd.shape[:-1] or hd.ndim > 2:
        raise ValueError(f"state {hd.shape} and input {xd.shape} must both be [H]/[I] "
                         f"or share a leading batch dimension")
    x, h = xd.reshape(1, -1, xd.shape[-1]), hd.reshape(1, -1, H)   # a one-step sequence
    hs, zr, pre, c = _gru_run(p, x, h[0])

    def back(g_h, g_pre):
        g_h = np.zeros(h.shape) if g_h is None else g_h.reshape(h.shape)
        g_pre = None if g_pre is None else g_pre.reshape(h.shape)
        d_x, d_W, d_U, d_b, d_h = _gru_bptt(p, x, hs[:1], zr, c, g_h, g_pre)
        return d_h.reshape(hd.shape), d_x.reshape(xd.shape), d_W, d_U, d_b

    out = (Tensor(hs[1].reshape(hd.shape), copy=False), Tensor(pre.reshape(hd.shape), copy=False))
    return _record(out, (h_prev, x_in, p.W, p.U, p.b), back)


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


def softmax_cross_entropy_rows(logits: Tensor, targets) -> Tensor:
    """Row-wise fused cross entropy: [M, V] logits and M targets give M losses."""
    x = logits.data
    if x.ndim != 2:
        raise ValueError(f"softmax_cross_entropy_rows expects 2D logits, got {logits.shape}")
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (x.shape[0],):
        raise ValueError(f"targets shape {t.shape} does not match {x.shape[0]} rows")
    if t.size and (t.min() < 0 or t.max() >= x.shape[1]):
        raise ValueError(f"target out of range for {x.shape[1]} classes")
    rows = np.arange(x.shape[0])
    loss, e, s = _cross_entropy_rows(x, t)
    out = Tensor(loss, copy=False)

    def back(g):
        p = e / s[:, None]
        p[rows, t] -= 1.0
        return (p * g[:, None],)

    return _record(out, (logits,), back)


def loss_nll(logits: Tensor, y_seq) -> Tensor:
    """Total sequence cross entropy of ``[T, B, V]`` logits, averaged over
    the batch rows."""
    ids = _as_batch_ids(y_seq)
    t_len, batch, vocab = logits.shape
    if (batch, t_len) != ids.shape:
        raise ValueError(f"logits for {t_len} steps of {batch} rows, targets {ids.shape}")
    # rows in step order, so the sum runs in the order of the unroll's nll
    rows = reshape(logits, (t_len * batch, vocab))
    xents = softmax_cross_entropy_rows(rows, ids.T.reshape(-1))
    return scale(sum_all(xents), 1.0 / ids.shape[0])


def make_batches(ds: SequenceDataset, batch_size: int,
                 rng: np.random.Generator) -> Iterator[np.ndarray]:
    """One epoch of batches in a freshly shuffled order.

    Every sequence appears exactly once; a short final batch is kept.
    """
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    n = len(ds)
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield ds.sequences[order[start:start + batch_size]]


def sample_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF categorical sampling, one draw per row: the index of
    the first CDF column not below the row's uniform, the last if none."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
    u = rng.random(p.shape[0])
    cum = np.cumsum(p, axis=-1)
    idx = (cum < u[:, None]).sum(axis=-1)
    return np.minimum(idx, p.shape[1] - 1)
