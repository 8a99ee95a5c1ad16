"""Dense float64 tensors with a define-by-run reverse-mode tape.

Every operation computes its value eagerly with numpy and, when a
:class:`Tape` is active, records a node holding the inputs and a
backward closure.  With no tape active the same functions are plain
numpy math, which is how evaluation-only code paths (sampling,
validation, metric probes) run without autodiff overhead.

A node may have more than one output (the fused GRU step in
:mod:`profforce.nets` records its new state and its candidate pre-tanh
value together, a generator unroll in :mod:`profforce.engine` records
its [T, B, .] logits, behavior and hidden states and its cross entropy,
and :func:`split` records every piece); its closure gets ``None`` for
each output the loss does not reach.

Gradients accumulate into ``Tensor.grad``; callers zero grads between
steps.  ``backward`` walks the tape in reverse recording order, which
is a valid topological order because nodes are appended as they are
created, so once a node's closure has run no node left to sweep reads
it or its outputs' gradients.  A sweep consumes its tape: it pops each
node, freeing what its closure captured and its outputs' gradients once
run, and leaves a ``grad`` on leaves (parameters, detached inputs) alone;
sweeping the emptied tape again raises ``ValueError``.

A sweep forms only the gradients its caller reads, when the caller
names those leaves; the GRU sequence and MLP nodes of
:mod:`profforce.nets` are told which inputs lead to them and skip the
products of the others.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "stop_recording",
    "is_recording",
    "backward",
    "grad_check",
    "zero_grads",
    "add",
    "sub",
    "mul",
    "scale",
    "one_minus",
    "sigmoid",
    "log",
    "clip",
    "concat",
    "split",
    "reshape",
    "sum_all",
    "mean_axis0",
]


class Tensor:
    """A row-major float64 array plus an optional same-shaped gradient."""

    __slots__ = ("data", "grad", "node_id")

    def __init__(self, data, copy: bool = True):
        if copy:
            arr = np.array(data, dtype=np.float64)
        else:
            arr = np.asarray(data, dtype=np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.node_id: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's values, cut off from any tape."""
        return Tensor(self.data, copy=False)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __iter__(self):
        """The ``[1, ...]`` pieces along axis 0, from one :func:`split` node."""
        return iter(split(self, self.shape[0]))

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self.data!r})"


# The innermost entry is the recording target.  A None entry disables
# recording, so evaluation code can run inside a training tape.
_TAPES: list["Tape | None"] = []


class Tape:
    """Ordered record of primitive ops, consumed by one backward pass (a second raises)."""

    def __init__(self):
        # node: (output tensors, input tensors, backward closure); the
        # closure takes one gradient per output, None for an output the
        # loss does not reach, and returns one gradient per input.
        self.nodes: list[tuple[tuple[Tensor, ...], tuple[Tensor, ...], Callable]] = []
        self.told: set[int] = set()   # nodes whose closure takes ``needs``
        self.swept = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self, "tape stack out of balance"

    def __len__(self) -> int:
        return len(self.nodes)


class _RecordingOff:
    def __enter__(self):
        _TAPES.append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()


def stop_recording() -> _RecordingOff:
    """Context manager suppressing tape recording for evaluation-only math."""
    return _RecordingOff()


def is_recording() -> bool:
    """Whether an op run now would be recorded on a tape.

    Ops that cache intermediates only for their backward keep them
    only when this is true.
    """
    return bool(_TAPES) and _TAPES[-1] is not None


def _record(out, inputs: tuple[Tensor, ...], backfn: Callable, told: bool = False):
    """Record one node; ``out`` is a Tensor or a tuple of output Tensors.
    With ``told`` the closure takes ``needs`` (see :func:`backward`)."""
    if is_recording():
        tape = _TAPES[-1]
        outs = out if isinstance(out, tuple) else (out,)
        for o in outs:
            o.node_id = len(tape.nodes)
        if told:
            tape.told.add(len(tape.nodes))
        tape.nodes.append((outs, inputs, backfn))
    return out


def _needs(tape: Tape, reads: Sequence[Tensor] | None) -> list[tuple[bool, ...]]:
    """Per node, whether each input leads to one of the leaves ``reads``
    (every input does when ``reads`` is None)."""
    live, needs = {id(t) for t in reads or ()}, []
    for outs, inputs, _ in tape.nodes:
        needs.append(tuple(reads is None or id(t) in live for t in inputs))
        if any(needs[-1]):
            live.update(id(o) for o in outs)
    return needs


def backward(tape: Tape, loss: Tensor, params: Sequence[Tensor] | None = None,
             reads: Sequence[Tensor] | None = None) -> None:
    """Reverse sweep over ``tape`` accumulating gradients of ``loss``.

    Gradients add into each input tensor's ``grad``; the caller is
    responsible for zeroing between steps.  The sweep consumes the tape
    (see the module notes): only leaves keep a gradient, and a tape swept
    before raises ``ValueError``.  When ``params`` is given, any of them
    left untouched by the sweep (not reachable from the loss) gets an
    exact zero gradient.
    ``reads`` names the leaves the caller reads, which count as
    ``params`` too: the sweep then forms only the gradients that lead to
    one of them, skips a node none of whose inputs does, and passes a
    ``told`` closure ``needs``, one bool per input, so that it can skip
    the products of the others.  What it forms keeps its bits.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.swept:
        raise ValueError("this tape was swept before; a sweep consumes its tape")
    tape.swept, needs = True, _needs(tape, reads)
    loss.grad = np.ones((), dtype=np.float64)
    while tape.nodes:   # no node left to sweep reads the one popped or its outputs
        (outs, inputs, backfn), need = tape.nodes.pop(), needs.pop()
        grads = [out.grad for out in outs]
        if all(g is None for g in grads):
            continue
        for out in outs:
            out.grad = None
        if not any(need):
            continue
        got = backfn(*grads, needs=need) if len(tape.nodes) in tape.told else backfn(*grads)
        for t, gi, read in zip(inputs, got, need):
            if gi is None or not read:
                continue
            if t.grad is None:
                # Take a fresh array as it is; copy a view or a gradient
                # the node received, which other tensors may hold too.
                fresh = (isinstance(gi, np.ndarray) and gi.base is None
                         and not any(gi is g for g in grads))
                t.grad = gi if fresh else np.array(gi)
            else:
                t.grad += gi
        got = gi = None   # before the next closure runs
    for p in [*(params or ()), *(reads or ())]:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


def zero_grads(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# primitives


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
        out = Tensor(fwd(a.data, b.data), copy=False)
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


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c, copy=False)
    return _record(out, (a,), lambda g: (g * c,))


def one_minus(a: Tensor) -> Tensor:
    out = Tensor(1.0 - a.data, copy=False)
    return _record(out, (a,), lambda g: (-g,))


def sigmoid(a: Tensor) -> Tensor:
    """The logistic function as 0.5 * (1 + tanh(x / 2)): no overflow, no masks."""
    s = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    out = Tensor(s, copy=False)
    return _record(out, (a,), lambda g: (g * s * (1.0 - s),))


def log(a: Tensor) -> Tensor:
    ad = a.data
    if not np.all(ad > 0.0):
        raise ValueError("log: inputs must be strictly positive")
    out = Tensor(np.log(ad), copy=False)
    return _record(out, (a,), lambda g: (g / ad,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is 1 strictly inside and exactly 0 outside."""
    if not lo < hi:
        raise ValueError(f"clip: need lo < hi, got [{lo}, {hi}]")
    ad = a.data
    out = Tensor(np.clip(ad, lo, hi), copy=False)
    mask = (ad > lo) & (ad < hi)
    return _record(out, (a,), lambda g: (g * mask,))


def _stable_softmax(x: np.ndarray, out: np.ndarray | None = None,
                    col: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, written into ``out`` if given (``x`` may be
    it); both row reductions go into ``col`` ``[..., 1]`` if given."""
    out = np.subtract(x, np.maximum.reduce(x, -1, None, col, True), out)
    np.exp(out, out)
    out /= np.add.reduce(out, -1, None, col, True)
    return out


def _cross_entropy_rows(x: np.ndarray, t: np.ndarray):
    """Numpy cross entropy of each row of ``x`` [M, V] against its target.

    Returns the M losses with ``exp(x - max)`` and its row sums, from
    which the backward forms the softmax.
    """
    m = np.max(x, axis=-1)
    e = np.exp(x - m[:, None])
    s = np.sum(e, axis=-1)
    return m + np.log(s) - x[np.arange(x.shape[0]), t], e, s


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ValueError("concat of an empty sequence")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), copy=False)
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _record(out, tuple(parts), back)


def split(a: Tensor, parts: int, axis: int = 0) -> tuple[Tensor, ...]:
    """Cut ``a`` into ``parts`` equal pieces along ``axis``; the inverse of concat."""
    pieces = np.split(a.data, parts, axis=axis)
    out = tuple(Tensor(p, copy=False) for p in pieces)

    def back(*gs):
        return (np.concatenate([np.zeros_like(p) if g is None else g
                                for p, g in zip(pieces, gs)], axis=axis),)

    return _record(out, (a,), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise ValueError(f"reshape: cannot view {a.shape} as {shape}")
    src = a.shape
    out = Tensor(a.data.reshape(shape), copy=False)
    return _record(out, (a,), lambda g: (g.reshape(src),))


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(np.sum(a.data)), copy=False)
    shape = a.shape
    return _record(out, (a,), lambda g: (np.broadcast_to(g, shape),))


def mean_axis0(a: Tensor) -> Tensor:
    """Mean over the leading axis; used for pooling per-step scores."""
    if a.data.ndim < 1 or a.data.shape[0] == 0:
        raise ValueError(f"mean_axis0 on shape {a.shape}")
    n = a.data.shape[0]
    out = Tensor(np.sum(a.data, axis=0) / n, copy=False)
    shape = a.shape

    def back(g):
        return (np.broadcast_to(g / n, shape),)

    return _record(out, (a,), back)


def grad_check(f: Callable, params: Sequence[Tensor], epsilon: float = 1e-5) -> float:
    """Worst relative error between tape gradients and central differences.

    ``f(params)`` must rebuild the scalar loss from scratch on every
    call and must not open its own tape; ``grad_check`` records the
    analytic pass itself and evaluates the probes without recording.
    The relative error uses ``max(|analytic|, |numeric|, 1e-8)`` as the
    denominator.
    """
    params = list(params)
    zero_grads(params)
    with Tape() as tape:
        loss = f(params)
    backward(tape, loss, params=params)
    analytic = [p.grad.copy() for p in params]

    def value() -> float:
        with stop_recording():
            return float(f(params).data)

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            fp = value()
            flat[i] = orig - epsilon
            fm = value()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * epsilon)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
