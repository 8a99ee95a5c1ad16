"""Dense float64 tensors with a define-by-run reverse-mode tape.

Every operation computes its value eagerly with numpy and, when a
:class:`Tape` is active, records a node holding the inputs and a
backward closure.  With no tape active the same functions are plain
numpy math, which is how evaluation-only code paths (sampling,
validation, metric probes) run without autodiff overhead.

The nodes a training step records are kernels: the generator unroll,
the discriminator's head and c_d in :mod:`profforce.engine`, the BiGRU
encoder and MLP in :mod:`profforce.nets`; this module records no op of
its own.  A node may have more than one output (an unroll records its
[T, B, .] behavior and its cross entropy in nats per step, not its
logits or top-layer states, which it returns as plain arrays); its
closure gets ``None`` for each output the loss does not reach.

Gradients accumulate into ``Tensor.grad``; callers zero grads between
steps.  ``backward`` walks the tape in reverse recording order, which
is a valid topological order because nodes are appended as they are
created, so once a node's closure has run no node left to sweep reads
it or its outputs' gradients.  A sweep consumes its tape: it pops each
node, freeing what its closure captured and its outputs' gradients once
run, and leaves a ``grad`` on leaves (parameters, detached inputs) alone;
sweeping the emptied tape again raises ``ValueError``.

A sweep forms only the gradients its caller reads, when the caller
names those leaves, and gives each of them a gradient, zeros if the loss
does not reach it; the encoder and MLP nodes of :mod:`profforce.nets`
are told which inputs lead to them and skip the products of the others.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "is_recording",
    "backward",
    "zero_grads",
]


class Tensor:
    """A float64 array, held uncopied if given as one, plus an optional gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's values, cut off from any tape."""
        return Tensor(self.data)


# The innermost entry is the recording target.
_TAPES: list["Tape"] = []


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
        """Nodes not yet swept; perfbench's tracer counts a step's nodes with it."""
        return len(self.nodes)


def is_recording() -> bool:
    """Whether an op run now would be recorded on a tape: inside a ``Tape`` block.

    Ops that cache intermediates only for their backward keep them
    only when this is true.
    """
    return bool(_TAPES)


def _record(out, inputs: tuple[Tensor, ...], backfn: Callable, told: bool = False):
    """Record one node; ``out`` is a Tensor or a tuple of output Tensors.
    With ``told`` the closure takes ``needs`` (see :func:`backward`)."""
    if is_recording():
        tape = _TAPES[-1]
        outs = out if isinstance(out, tuple) else (out,)
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


def backward(tape: Tape, loss: Tensor, reads: Sequence[Tensor] | None = None) -> None:
    """Reverse sweep over ``tape`` accumulating gradients of ``loss``.

    Gradients add into each input tensor's ``grad``; the caller is
    responsible for zeroing between steps.  The sweep consumes the tape
    (see the module notes): only leaves keep a gradient, and a tape swept
    before raises ``ValueError``.  A gradient already on a recorded
    tensor when the sweep starts counts as part of the loss's gradient
    there: its node's closure receives it, as if a term ``sum(tensor *
    grad)`` had been added to the loss.  ``reads`` names the leaves the
    caller reads: the sweep then forms only the gradients that lead to
    one of them, skips a node none of whose inputs does, and passes a
    ``told`` closure ``needs``, one bool per input, so that it can skip
    the products of the others.  What it forms keeps its bits.  A leaf
    of ``reads`` that the loss does not reach gets an exact zero
    gradient.
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
        for out in outs:
            out.grad = None
        outs = out = None   # the closure runs without the outputs alive
        if all(g is None for g in grads) or not any(need):
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
    for p in reads or ():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


def zero_grads(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


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
