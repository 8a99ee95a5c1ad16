"""Tensor primitives, a reverse-mode tape and helpers that only the tests use.

The tape is the reference chain the kernels of :mod:`profforce` are
checked against.  Each primitive records one node on the active
:class:`Tape`, and :func:`backward` sweeps it.  The composed chains of
primitives are what the kernels' own backward closures are checked
against; :func:`gru_sequence` runs one GRU direction as one node.
:func:`unroll_node`, :func:`encode_node`, :func:`mlp_node` and
:func:`discriminate_node` record a kernel of :mod:`profforce` as one node,
over its own closure, so that a chain may end in one.
:func:`grad_check` checks a taped loss's gradients against central
differences.  :func:`loss_discriminator`, :func:`loss_fool_free_running`
and :func:`loss_match_teacher_forced` record c_d, c_f and c_t as one
node each, on their own tensors; ``profforce.engine`` forms c_d alone,
on one stack, as :func:`_mean_neg_log` does with ``stacked``.
:func:`loss_nll` is the numpy sequence cross entropy that the unroll's
own per-step ``nll`` is checked against once divided by T,
:func:`make_batches` shuffles a dataset into one epoch of batches,
:func:`gumbel_rows` is the per-step sampler the unroll's draws are
checked against, and :func:`item` reads a one-element tensor as a float.
"""

import dataclasses
from typing import Callable, Iterator, Sequence

import numpy as np

from profforce import engine
from profforce.data import SequenceDataset
from profforce.nets import GruCellParams, _gru_bptt, _gru_run, bigru_encode, mlp_forward
from profforce.tensor import Tensor, _cross_entropy_rows, _stable_softmax

# The innermost entry is the recording target.
_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of the nodes run inside its ``with`` block."""

    def __init__(self):
        # node: (output tensors, input tensors, backward closure); the
        # closure takes one gradient per output, None for an output the
        # loss does not reach, and returns one gradient per input.
        self.nodes: list[tuple[tuple[Tensor, ...], tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()


def _record(out, inputs: tuple[Tensor, ...], backfn: Callable):
    """Record one node on the active tape, if any; ``out`` is a Tensor or a
    tuple of output Tensors."""
    if _TAPES:
        _TAPES[-1].nodes.append((out if isinstance(out, tuple) else (out,), inputs, backfn))
    return out


def backward(tape: Tape, loss: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """The gradient of the scalar ``loss`` with respect to each of ``leaves``.

    Sweeps ``tape`` in reverse recording order, a valid topological
    order, adding up the gradients that reach each tensor; a node none of
    whose outputs the loss reaches is skipped.  A leaf the loss does not
    reach gets zeros.  Sweep a tape once: the kernels' closures free
    their caches as they run.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads = {id(loss): np.ones(())}
    for outs, inputs, backfn in reversed(tape.nodes):
        got = [grads.get(id(out)) for out in outs]
        if all(g is None for g in got):
            continue
        for t, gi in zip(inputs, backfn(*got)):
            if gi is not None:
                grads[id(t)] = gi if id(t) not in grads else grads[id(t)] + gi
    return [np.array(grads[id(t)]) if id(t) in grads else np.zeros_like(t.data)
            for t in leaves]


def item(t: Tensor) -> float:
    """The value of a one-element tensor."""
    if t.data.size != 1:
        raise ValueError(f"item() on tensor of shape {t.shape}")
    return float(t.data)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,))


def split(a: Tensor, parts: int, axis: int = 0) -> tuple[Tensor, ...]:
    """Cut ``a`` into ``parts`` equal pieces along ``axis``."""
    pieces = np.split(a.data, parts, axis=axis)
    out = tuple(Tensor(p) for p in pieces)

    def back(*gs):
        return (np.concatenate([np.zeros_like(p) if g is None else g
                                for p, g in zip(pieces, gs)], axis=axis),)

    return _record(out, (a,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2D operands."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError(f"matmul: expects 2D operands, got ranks {ad.ndim} and {bd.ndim}")
    if ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {ad.shape} @ {bd.shape}")
    out = Tensor(ad @ bd)
    return _record(out, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = Tensor(t)
    return _record(out, (a,), lambda g: (g * (1.0 - t * t),))


def relu(a: Tensor) -> Tensor:
    ad = a.data
    out = Tensor(np.maximum(ad, 0.0))
    return _record(out, (a,), lambda g: (g * (ad > 0.0),))


def gru_step(p: GruCellParams, h_prev: Tensor, x_in: Tensor) -> tuple[Tensor, Tensor]:
    """One GRU update; returns the new state and the candidate pre-tanh value.

    ``h_prev`` and ``x_in`` are both single vectors or both ``[B, .]``
    row batches.  The step is one tape node over the kernel of
    :func:`gru_sequence`, run for one step; either output
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

    out = (Tensor(hs[1].reshape(hd.shape)), Tensor(pre.reshape(hd.shape)))
    return _record(out, (h_prev, x_in, p.W, p.U, p.b), back)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _binary(a: Tensor, b: Tensor, fwd, da, db, name: str) -> Tensor:
    try:
        out = Tensor(fwd(a.data, b.data))
    except ValueError as e:
        raise ValueError(f"{name}: shape mismatch {a.shape} vs {b.shape}") from e
    ash, bsh = a.shape, b.shape

    def back(g):
        return (_unbroadcast(da(g, a.data, b.data), ash),
                _unbroadcast(db(g, a.data, b.data), bsh))

    return _record(out, (a, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def one_minus(a: Tensor) -> Tensor:
    out = Tensor(1.0 - a.data)
    return _record(out, (a,), lambda g: (-g,))


def sigmoid(a: Tensor) -> Tensor:
    """The logistic function as 0.5 * (1 + tanh(x / 2)): no overflow, no masks."""
    s = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    out = Tensor(s)
    return _record(out, (a,), lambda g: (g * s * (1.0 - s),))


def log(a: Tensor) -> Tensor:
    ad = a.data
    if not np.all(ad > 0.0):
        raise ValueError("log: inputs must be strictly positive")
    out = Tensor(np.log(ad))
    return _record(out, (a,), lambda g: (g / ad,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is 1 strictly inside and exactly 0 outside."""
    if not lo < hi:
        raise ValueError(f"clip: need lo < hi, got [{lo}, {hi}]")
    ad = a.data
    out = Tensor(np.clip(ad, lo, hi))
    mask = (ad > lo) & (ad < hi)
    return _record(out, (a,), lambda g: (g * mask,))


def concat(parts: Sequence[Tensor] | Tensor, axis: int = 0) -> Tensor:
    """Join ``parts`` along ``axis``; a Tensor given as ``parts`` is first
    cut into its ``[1, ...]`` pieces along axis 0 by one :func:`split` node."""
    parts = split(parts, parts.shape[0]) if isinstance(parts, Tensor) else list(parts)
    if not parts:
        raise ValueError("concat of an empty sequence")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _record(out, tuple(parts), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise ValueError(f"reshape: cannot view {a.shape} as {shape}")
    src = a.shape
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(src),))


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(np.sum(a.data)))
    shape = a.shape
    return _record(out, (a,), lambda g: (np.broadcast_to(g, shape),))


def mean_axis0(a: Tensor) -> Tensor:
    """Mean over the leading axis."""
    if a.data.ndim < 1 or a.data.shape[0] == 0:
        raise ValueError(f"mean_axis0 on shape {a.shape}")
    n = a.data.shape[0]
    out = Tensor(np.sum(a.data, axis=0) / n)
    shape = a.shape

    def back(g):
        return (np.broadcast_to(g / n, shape),)

    return _record(out, (a,), back)


def gru_sequence(p: GruCellParams, xs: Tensor, reverse: bool = False) -> Tensor:
    """Run a cell over a whole ``[T, B, I]`` sequence from a zero state.

    Returns the states ``[T, B, H]``; with ``reverse`` the cell reads
    step ``T-1`` first, and ``states[t]`` has seen inputs ``t..T-1``.
    One tape node, over :func:`profforce.nets._gru_run` and
    :func:`profforce.nets._gru_bptt`, the kernel both directions of
    :func:`profforce.nets.bigru_encode` run.
    """
    xd = xs.data
    if xd.ndim != 3 or xd.shape[0] == 0:
        raise ValueError(f"gru_sequence expects a nonempty [T, B, I] input, got {xd.shape}")
    T, B, _ = xd.shape
    hs, zr, _, c = _gru_run(p, xd, np.zeros((B, p.hidden_size)), reverse)
    states, h_prev = (hs[:T], hs[1:]) if reverse else (hs[1:], hs[:T])

    def back(g):
        return _gru_bptt(p, xd, h_prev, zr, c, g, reverse=reverse)[:4]

    return _record(Tensor(states), (xs, p.W, p.U, p.b), back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose expects a 2D tensor, got shape {a.shape}")
    out = Tensor(a.data.T)
    return _record(out, (a,), lambda g: (g.T,))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilised by max subtraction."""
    s = _stable_softmax(a.data)
    out = Tensor(s)

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
    out = Tensor(table.data[idx])

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), back)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(np.asarray(np.sum(a.data) / n))
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
    out = Tensor(loss)

    def back(g):
        p = e / s[:, None]
        p[rows, t] -= 1.0
        return (p * g[:, None],)

    return _record(out, (logits,), back)


def loss_nll(logits: np.ndarray, y_seq) -> float:
    """Total sequence cross entropy of ``[T, B, V]`` logits, averaged over
    the batch rows."""
    ids = np.asarray(y_seq, dtype=np.int64)
    t_len, batch, vocab = logits.shape
    if (batch, t_len) != ids.shape:
        raise ValueError(f"logits for {t_len} steps of {batch} rows, targets {ids.shape}")
    # rows in step order, so the sum runs in the order of the unroll's nll
    xents = _cross_entropy_rows(logits.reshape(t_len * batch, vocab), ids.T.reshape(-1))[0]
    return float(np.sum(xents) * (1.0 / batch))


def _mean_neg_log(xs: tuple[Tensor, ...], of_one_minus: tuple[bool, ...],
                  stacked: bool = False) -> Tensor:
    """The sum over pieces x of mean(-log x), or of mean(-log(1 - x)) where
    ``of_one_minus`` says so, recorded as one node.  ``xs`` holds one piece
    per flag or, if ``stacked``, one tensor cut into that many equal pieces
    along axis 0.  Each piece must be non-empty and lie strictly inside (0, 1)."""
    if len(xs) != (1 if stacked else len(of_one_minus)):
        raise ValueError(f"{len(xs)} inputs for the flags {of_one_minus} (stacked={stacked})")
    pieces = np.split(xs[0].data, len(of_one_minus)) if stacked else [x.data for x in xs]
    logged = []
    for a, flag in zip(pieces, of_one_minus):
        if a.size == 0 or not np.all((a > 0.0) & (a < 1.0)):
            raise ValueError(f"probabilities must lie strictly inside (0, 1), got {a}")
        logged.append(1.0 - a if flag else a)
    cs = [-1.0 / a.size for a in logged]
    out = Tensor(sum(np.asarray(np.sum(np.log(a))) * c for a, c in zip(logged, cs)))

    def back(g):
        grads = [np.broadcast_to(g * c, a.shape) / a for a, c in zip(logged, cs)]
        grads = [-d if flag else d for d, flag in zip(grads, of_one_minus)]
        return (np.concatenate(grads),) if stacked else tuple(grads)

    return _record(out, tuple(xs), back)


def loss_discriminator(d_tf: Tensor, d_fr: Tensor) -> Tensor:
    """c_d, binary cross entropy with teacher forced labelled 1: the
    generator-side terms with their arguments swapped, term for term."""
    return _mean_neg_log((d_tf, d_fr), (False, True))


def loss_fool_free_running(d_fr: Tensor) -> Tensor:
    """c_f, mean(-log D(b_fr)): low when free-running behavior reads as teacher forced."""
    return _mean_neg_log((d_fr,), (False,))


def loss_match_teacher_forced(d_tf: Tensor) -> Tensor:
    """c_t, mean(-log(1 - D(b_tf))): the optional generator term on the other mode."""
    return _mean_neg_log((d_tf,), (True,))


def grad_check(f: Callable, params: Sequence[Tensor], epsilon: float = 1e-5) -> float:
    """Worst relative error between tape gradients and central differences.

    ``f(params)`` must rebuild the scalar loss from scratch on every
    call and must not open its own tape; ``grad_check``, called with no
    tape open, records the analytic pass itself and runs the probes untaped.
    The relative error uses ``max(|analytic|, |numeric|, 1e-8)`` as the
    denominator.
    """
    params = list(params)
    with Tape() as tape:
        loss = f(params)
    analytic = backward(tape, loss, params)
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            fp = float(f(params).data)
            flat[i] = orig - epsilon
            fm = float(f(params).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * epsilon)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def unroll_node(g, ids, t_len: int, batch: int, p_sample: float, rng, temperature: float,
                include_outputs: bool) -> engine.UnrollResult:
    """``engine._unroll``, taped, recorded as one node over the generator's
    parameters through the unroll's closure.  The result holds its
    behavior and, with targets, its ``nll`` as the node's output tensors."""
    res = engine._unroll(g, ids, t_len, batch, p_sample, rng, temperature, include_outputs,
                         taped=True)
    behavior = Tensor(res.behavior)
    if res.nll is None:
        _record(behavior, tuple(g.tensors()), lambda g_beh: res.back(g_beh, None))
        return dataclasses.replace(res, behavior=behavior)
    nll = Tensor(res.nll)
    _record((behavior, nll), tuple(g.tensors()), res.back)
    return dataclasses.replace(res, behavior=behavior, nll=nll)


def teacher_forced_node(g, y_seq, include_outputs: bool = False) -> engine.UnrollResult:
    """:func:`unroll_node` of the ``[B, T]`` targets ``y_seq``, teacher forced."""
    ids = np.asarray(y_seq)
    return unroll_node(g, ids, ids.shape[1], ids.shape[0], 0.0, None, 1.0, include_outputs)


def encode_node(fwd: GruCellParams, bwd: GruCellParams, seq: Tensor) -> Tensor:
    """``nets.bigru_encode`` recorded as one node over its closure."""
    out, back = bigru_encode(fwd, bwd, seq.data)
    inputs = (seq, fwd.W, fwd.U, fwd.b, bwd.W, bwd.U, bwd.b)
    return _record(Tensor(out), inputs, lambda g: back(g, (True,) * len(inputs)))


def mlp_node(layers, x: Tensor) -> Tensor:
    """``nets.mlp_forward`` recorded as one node over its closure."""
    out, back = mlp_forward(layers, x.data)
    inputs = (x, *(t for layer in layers for t in layer))
    return _record(Tensor(out), inputs, lambda g: back(g, (True,) * len(inputs)))


def discriminate_node(d, seq: Tensor) -> Tensor:
    """``engine.discriminate`` recorded as one node over its closure."""
    probs, back = engine.discriminate(d, seq.data)

    def node_back(g):
        d_seq, grads = back(g, True, True)
        return (d_seq, *grads)

    return _record(Tensor(probs), (seq, *d.tensors()), node_back)


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


def gumbel_rows(rng: np.random.Generator, logits: np.ndarray,
                temperature: float = 1.0) -> np.ndarray:
    """One draw per row of ``logits`` [B, V] from softmax(logits / temperature)
    by the Gumbel-max rule: the argmax of ``logits - temperature * log e``, the
    [B, V] exponentials ``e`` read from ``rng`` row-major, a tie going to the
    lowest index and an ``e`` of 0.0 winning outright."""
    e = rng.standard_exponential(np.shape(logits))
    with np.errstate(divide="ignore"):
        return np.argmax(logits - temperature * np.log(e), axis=-1)
