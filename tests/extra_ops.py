"""Array primitives, a reverse-mode tape and helpers that only the tests use.

The tape is the reference chain the kernels of :mod:`profforce` are
checked against.  Each primitive takes and returns plain float64 arrays
and records one node on the active :class:`Tape`, and :func:`backward`
sweeps it, keying each gradient by its array's identity: one array given
as two leaves is one leaf, so a test that wants two passes a copy.  The
composed chains of primitives are what the kernels' own backward closures are checked
against; :func:`gru_sequence` runs one GRU direction as one node.
:func:`unroll_node`, :func:`encode_node`, :func:`mlp_node` and
:func:`discriminate_node` record a kernel of :mod:`profforce` as one node,
over its own closure, so that a chain may end in one; outside a tape,
:func:`teacher_forced_node` and :func:`free_running_node` give the
per-step outputs an untaped unroll does not keep.
:func:`grad_check` checks a taped loss's gradients against central
differences.  :func:`loss_discriminator`, :func:`loss_fool_free_running`
and :func:`loss_match_teacher_forced` record c_d, c_f and c_t as one
node each, on their own arrays; ``profforce.engine.discriminate`` forms
c_d alone, on one stack, as :func:`_mean_neg_log` does with ``stacked``.
:func:`loss_nll` is the numpy sequence cross entropy that the unroll's
own per-step ``nll`` is checked against once divided by T,
:func:`make_batches` shuffles a dataset into one epoch of batches,
:func:`gumbel_rows` is the per-step sampler the unroll's draws are
checked against, and :func:`item` reads a one-element array as a float.
"""

import dataclasses
from typing import Callable, Iterator, Sequence

import numpy as np

from profforce import engine
from profforce.data import SequenceDataset
from profforce.engine import _cross_entropy_rows, _stable_softmax
from profforce.nets import (
    GruCellParams,
    _gru_bptt,
    _gru_run,
    _gru_step_into,
    _gru_weights,
    bigru_encode,
    mlp_forward,
)

# The innermost entry is the recording target.
_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of the nodes run inside its ``with`` block."""

    def __init__(self):
        # node: (output arrays, input arrays, backward closure); the
        # closure takes one gradient per output, None for an output the
        # loss does not reach, and returns one gradient per input.
        self.nodes: list[tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()


def _record(out, inputs: tuple[np.ndarray, ...], backfn: Callable):
    """Record one node on the active tape, if any; ``out`` is an array or a
    tuple of output arrays, each made an ndarray (a 0-d one for a scalar)."""
    outs = tuple(map(np.asarray, out if isinstance(out, tuple) else (out,)))
    if _TAPES:
        _TAPES[-1].nodes.append((outs, inputs, backfn))
    return outs if isinstance(out, tuple) else outs[0]


def backward(tape: Tape, loss: np.ndarray, leaves: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The gradient of the scalar ``loss`` with respect to each of ``leaves``.

    Sweeps ``tape`` in reverse recording order, a valid topological
    order, adding up the gradients that reach each array; a node none of
    whose outputs the loss reaches is skipped.  A leaf the loss does not
    reach gets zeros.  Sweep a tape once: the kernels' closures free
    their caches as they run.
    """
    if loss.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads = {id(loss): np.ones(())}
    for outs, inputs, backfn in reversed(tape.nodes):
        got = [grads.get(id(out)) for out in outs]
        if all(g is None for g in got):
            continue
        for t, gi in zip(inputs, backfn(*got)):
            if gi is not None:
                grads[id(t)] = gi if id(t) not in grads else grads[id(t)] + gi
    return [np.array(grads[id(t)]) if id(t) in grads else np.zeros_like(t)
            for t in leaves]


def item(t: np.ndarray) -> float:
    """The value of a one-element array."""
    if t.size != 1:
        raise ValueError(f"item() on array of shape {t.shape}")
    return float(t)


def scale(a: np.ndarray, c: float) -> np.ndarray:
    c = float(c)
    return _record(a * c, (a,), lambda g: (g * c,))


def split(a: np.ndarray, parts: int, axis: int = 0) -> tuple[np.ndarray, ...]:
    """Cut ``a`` into ``parts`` equal pieces along ``axis``."""
    pieces = np.split(a, parts, axis=axis)

    def back(*gs):
        return (np.concatenate([np.zeros_like(p) if g is None else g
                                for p, g in zip(pieces, gs)], axis=axis),)

    return _record(tuple(pieces), (a,), back)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2D operands."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul: expects 2D operands, got ranks {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    return _record(a @ b, (a, b), lambda g: (g @ b.T, a.T @ g))


def tanh(a: np.ndarray) -> np.ndarray:
    t = np.tanh(a)
    return _record(t, (a,), lambda g: (g * (1.0 - t * t),))


def relu(a: np.ndarray) -> np.ndarray:
    return _record(np.maximum(a, 0.0), (a,), lambda g: (g * (a > 0.0),))


def gru_step(p: GruCellParams, h_prev: np.ndarray,
             x_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One GRU update; returns the new state and the candidate pre-tanh value.

    ``h_prev`` and ``x_in`` are both single vectors or both ``[B, .]``
    row batches.  The step is one tape node over the kernels of
    :func:`gru_sequence`, :func:`profforce.nets._gru_step_into` and
    :func:`profforce.nets._gru_bptt`, run for one step; either output
    may be left out of the loss.
    """
    H = p.hidden_size
    if h_prev.shape[-1] != H:
        raise ValueError(f"state width {h_prev.shape[-1]} != hidden size {H}")
    if h_prev.shape[:-1] != x_in.shape[:-1] or h_prev.ndim > 2:
        raise ValueError(f"state {h_prev.shape} and input {x_in.shape} must both be [H]/[I] "
                         f"or share a leading batch dimension")
    # a one-step sequence
    x, h = x_in.reshape(1, -1, x_in.shape[-1]), np.array(h_prev, float).reshape(1, -1, H)
    B = h.shape[1]
    W, b, U_zr, U_c = _gru_weights(p)
    xb = x[:, None] @ W
    xb += b
    zr, c = np.empty((1, 2, B, H)), np.empty((1, B, H))
    rh, pre, h_new = np.empty((B, H)), np.empty((B, H)), np.empty((B, H))
    _gru_step_into(U_zr, U_c, h[0], xb[0, :2], xb[0, 2], zr[0], zr[0, 0], zr[0, 1], rh, pre,
                   c[0], h_new)

    def back(g_h, g_pre):
        g_h = np.zeros(h.shape) if g_h is None else g_h.reshape(h.shape)
        g_pre = None if g_pre is None else g_pre.reshape(h.shape)
        d_x, d_W, d_U, d_b, d_h = _gru_bptt(p, x, h, zr, c, g_h, g_pre)
        return d_h.reshape(h_prev.shape), d_x.reshape(x_in.shape), d_W, d_U, d_b

    out = (h_new.reshape(h_prev.shape), pre.reshape(h_prev.shape))
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


def _binary(a: np.ndarray, b: np.ndarray, fwd, da, db, name: str) -> np.ndarray:
    try:
        out = fwd(a, b)
    except ValueError as e:
        raise ValueError(f"{name}: shape mismatch {a.shape} vs {b.shape}") from e

    def back(g):
        return _unbroadcast(da(g, a, b), a.shape), _unbroadcast(db(g, a, b), b.shape)

    return _record(out, (a, b), back)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def one_minus(a: np.ndarray) -> np.ndarray:
    return _record(1.0 - a, (a,), lambda g: (-g,))


def sigmoid(a: np.ndarray) -> np.ndarray:
    """The logistic function as 0.5 * (1 + tanh(x / 2)): no overflow, no masks."""
    s = 0.5 * (1.0 + np.tanh(0.5 * a))
    return _record(s, (a,), lambda g: (g * s * (1.0 - s),))


def log(a: np.ndarray) -> np.ndarray:
    if not np.all(a > 0.0):
        raise ValueError("log: inputs must be strictly positive")
    return _record(np.log(a), (a,), lambda g: (g / a,))


def clip(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Clamp to [lo, hi]; gradient is 1 strictly inside and exactly 0 outside."""
    if not lo < hi:
        raise ValueError(f"clip: need lo < hi, got [{lo}, {hi}]")
    mask = (a > lo) & (a < hi)
    return _record(np.clip(a, lo, hi), (a,), lambda g: (g * mask,))


def concat(parts: Sequence[np.ndarray] | np.ndarray, axis: int = 0) -> np.ndarray:
    """Join ``parts`` along ``axis``; an array given as ``parts`` is first
    cut into its ``[1, ...]`` pieces along axis 0 by one :func:`split` node."""
    parts = split(parts, parts.shape[0]) if isinstance(parts, np.ndarray) else list(parts)
    if not parts:
        raise ValueError("concat of an empty sequence")
    out = np.concatenate(parts, axis=axis)
    bounds = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def back(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _record(out, tuple(parts), back)


def reshape(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if int(np.prod(shape)) != a.size:
        raise ValueError(f"reshape: cannot view {a.shape} as {shape}")
    return _record(a.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def sum_all(a: np.ndarray) -> np.ndarray:
    return _record(np.sum(a), (a,), lambda g: (np.broadcast_to(g, a.shape),))


def mean_axis0(a: np.ndarray) -> np.ndarray:
    """Mean over the leading axis."""
    if a.ndim < 1 or a.shape[0] == 0:
        raise ValueError(f"mean_axis0 on shape {a.shape}")
    n = a.shape[0]
    return _record(np.sum(a, axis=0) / n, (a,), lambda g: (np.broadcast_to(g / n, a.shape),))


def gru_sequence(p: GruCellParams, xs: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Run a cell over a whole ``[T, B, I]`` sequence from a zero state.

    Returns the states ``[T, B, H]``; with ``reverse`` the cell reads
    step ``T-1`` first, and ``states[t]`` has seen inputs ``t..T-1``.
    One tape node, over :func:`profforce.nets._gru_run` and
    :func:`profforce.nets._gru_bptt`, the kernel both directions of
    :func:`profforce.nets.bigru_encode` run.
    """
    if xs.ndim != 3 or xs.shape[0] == 0:
        raise ValueError(f"gru_sequence expects a nonempty [T, B, I] input, got {xs.shape}")
    T, B, _ = xs.shape
    hs, zr, c = _gru_run(p, xs, reverse)
    states, h_prev = (hs[:T], hs[1:]) if reverse else (hs[1:], hs[:T])

    def back(g):
        return _gru_bptt(p, xs, h_prev, zr, c, g, reverse=reverse)[:4]

    return _record(states, (xs, p.W, p.U, p.b), back)


def transpose(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2:
        raise ValueError(f"transpose expects a 2D array, got shape {a.shape}")
    return _record(a.T, (a,), lambda g: (g.T,))


def softmax(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilised by max subtraction."""
    s = _stable_softmax(a)

    def back(g):
        inner = np.sum(g * s, axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _record(s, (a,), back)


def softmax_cross_entropy(logits: np.ndarray, target: int) -> np.ndarray:
    """Negative log softmax probability of ``target`` for a 1D logit vector:
    :func:`softmax_cross_entropy_rows` over one row."""
    if logits.ndim != 1:
        raise ValueError(f"softmax_cross_entropy expects 1D logits, got {logits.shape}")
    row = reshape(logits, (1, logits.shape[0]))
    return reshape(softmax_cross_entropy_rows(row, [int(target)]), ())


def embed(table: np.ndarray, ids) -> np.ndarray:
    """Row lookup into ``table``; the gradient scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.int64)
    rows = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ValueError(f"symbol id out of range for table with {rows} rows")

    def back(g):
        gt = np.zeros_like(table)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(table[idx], (table,), back)


def mean_all(a: np.ndarray) -> np.ndarray:
    n = a.size
    return _record(np.sum(a) / n, (a,), lambda g: (np.broadcast_to(g / n, a.shape),))


def softmax_cross_entropy_rows(x: np.ndarray, targets) -> np.ndarray:
    """Row-wise fused cross entropy: [M, V] logits and M targets give M losses."""
    if x.ndim != 2:
        raise ValueError(f"softmax_cross_entropy_rows expects 2D logits, got {x.shape}")
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (x.shape[0],):
        raise ValueError(f"targets shape {t.shape} does not match {x.shape[0]} rows")
    if t.size and (t.min() < 0 or t.max() >= x.shape[1]):
        raise ValueError(f"target out of range for {x.shape[1]} classes")
    rows = np.arange(x.shape[0])
    loss, e, s = _cross_entropy_rows(x, t)

    def back(g):
        p = e / s[:, None]
        p[rows, t] -= 1.0
        return (p * g[:, None],)

    return _record(loss, (x,), back)


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


def _mean_neg_log(xs: tuple[np.ndarray, ...], of_one_minus: tuple[bool, ...],
                  stacked: bool = False) -> np.ndarray:
    """The sum over pieces x of mean(-log x), or of mean(-log(1 - x)) where
    ``of_one_minus`` says so, recorded as one node.  ``xs`` holds one piece
    per flag or, if ``stacked``, one array cut into that many equal pieces
    along axis 0.  Each piece must be non-empty and lie strictly inside (0, 1)."""
    if len(xs) != (1 if stacked else len(of_one_minus)):
        raise ValueError(f"{len(xs)} inputs for the flags {of_one_minus} (stacked={stacked})")
    pieces = np.split(xs[0], len(of_one_minus)) if stacked else list(xs)
    logged = []
    for a, flag in zip(pieces, of_one_minus):
        if a.size == 0 or not np.all((a > 0.0) & (a < 1.0)):
            raise ValueError(f"probabilities must lie strictly inside (0, 1), got {a}")
        logged.append(1.0 - a if flag else a)
    cs = [-1.0 / a.size for a in logged]
    out = sum(np.asarray(np.sum(np.log(a))) * c for a, c in zip(logged, cs))

    def back(g):
        grads = [np.broadcast_to(g * c, a.shape) / a for a, c in zip(logged, cs)]
        grads = [-d if flag else d for d, flag in zip(grads, of_one_minus)]
        return (np.concatenate(grads),) if stacked else tuple(grads)

    return _record(out, tuple(xs), back)


def loss_discriminator(d_tf: np.ndarray, d_fr: np.ndarray) -> np.ndarray:
    """c_d, binary cross entropy with teacher forced labelled 1: the
    generator-side terms with their arguments swapped, term for term."""
    return _mean_neg_log((d_tf, d_fr), (False, True))


def loss_fool_free_running(d_fr: np.ndarray) -> np.ndarray:
    """c_f, mean(-log D(b_fr)): low when free-running behavior reads as teacher forced."""
    return _mean_neg_log((d_fr,), (False,))


def loss_match_teacher_forced(d_tf: np.ndarray) -> np.ndarray:
    """c_t, mean(-log(1 - D(b_tf))): the optional generator term on the other mode."""
    return _mean_neg_log((d_tf,), (True,))


def grad_check(f: Callable, params: Sequence[np.ndarray], epsilon: float = 1e-5) -> float:
    """Worst relative error between tape gradients and central differences.

    ``f(params)`` must rebuild the scalar loss from scratch on every
    call and must not open its own tape; ``grad_check``, called with no
    tape open, records the analytic pass itself and runs the probes untaped.
    Each parameter is probed through a flat view, so it must be
    C-contiguous.  The relative error uses ``max(|analytic|, |numeric|,
    1e-8)`` as the denominator.
    """
    params = list(params)
    with Tape() as tape:
        loss = f(params)
    analytic = backward(tape, loss, params)
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            fp = float(f(params))
            flat[i] = orig - epsilon
            fm = float(f(params))
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * epsilon)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def unroll_node(g, ids, t_len: int, batch: int, p_sample: float, rng, temperature: float,
                include_outputs: bool) -> engine.UnrollResult:
    """``engine._unroll``, taped, recorded as one node over the generator's
    parameters through the unroll's closure.  The result holds its
    behavior and, with targets, its ``nll`` (as a 0-d array) as the node's
    outputs.  The closure differentiates ``nll`` at weight 1, so a loss
    over a targeted unroll adds its ``nll`` once, unscaled; the node
    refuses any other gradient of it."""
    res = engine._unroll(g, ids, t_len, batch, p_sample, rng, temperature, include_outputs,
                         taped=True)
    if res.nll is None:
        _record(res.behavior, tuple(g.tensors()), res.back)
        return res

    def back(g_beh, g_nll):
        if g_nll is None or g_nll != 1.0:
            raise ValueError(f"the unroll's closure takes nll at weight 1, not {g_nll}")
        return res.back(g_beh)

    behavior, nll = _record((res.behavior, res.nll), tuple(g.tensors()), back)
    return dataclasses.replace(res, behavior=behavior, nll=nll)


def teacher_forced_node(g, y_seq, include_outputs: bool = False) -> engine.UnrollResult:
    """:func:`unroll_node` of the ``[B, T]`` targets ``y_seq``, teacher forced."""
    ids = np.asarray(y_seq)
    return unroll_node(g, ids, ids.shape[1], ids.shape[0], 0.0, None, 1.0, include_outputs)


def free_running_node(g, t_len: int, rng, temperature: float = 1.0, batch: int = 1,
                      include_outputs: bool = False) -> engine.UnrollResult:
    """:func:`unroll_node` of ``batch`` rows running free at ``temperature``:
    ``unroll_free_running``'s draws, with the logits, behavior and states it
    does not keep."""
    return unroll_node(g, None, t_len, batch, 0.0, rng, temperature, include_outputs)


def encode_node(fwd: GruCellParams, bwd: GruCellParams, seq: np.ndarray) -> np.ndarray:
    """``nets.bigru_encode`` recorded as one node over its closure."""
    out, back = bigru_encode(fwd, bwd, seq)
    return _record(out, (seq, fwd.W, fwd.U, fwd.b, bwd.W, bwd.U, bwd.b),
                   lambda g: back(g, True, True))


def mlp_node(layers, x: np.ndarray) -> np.ndarray:
    """``nets.mlp_forward`` recorded as one node over its closure."""
    out, back = mlp_forward(layers, x)
    return _record(out, (x, *(t for layer in layers for t in layer)), lambda g: back(g, True))


def discriminate_node(d, stack: np.ndarray) -> np.ndarray:
    """``engine.discriminate``'s c_d of the ``[T, 2B, width]`` stack,
    teacher-forced rows first, recorded as one node over its closure,
    whose gradients of c_d the node scales by c_d's own."""
    _, c_d, back = engine.discriminate(d, stack)

    def node_back(g):
        d_stack, grads = back(True, True)
        return tuple(a * g for a in (d_stack, *grads))

    return _record(c_d, (stack, *d.tensors()), node_back)


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
