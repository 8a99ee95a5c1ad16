"""GRU cells, output heads, MLPs and a bidirectional GRU encoder.

All parameters are plain :class:`~profforce.tensor.Tensor` leaves.  The
step function works on single vectors or on row-batched matrices, so a
hidden state is either ``[H]`` or ``[B, H]``; the sequence function
works on time-major ``[T, B, .]`` arrays.

The gate equations, with ``x`` the step input and ``h`` the previous
state::

    z = sigmoid(x W_z + h U_z + b_z)          update gate
    r = sigmoid(x W_r + h U_r + b_r)          reset gate
    c = tanh(x W_c + (r * h) U_c + b_c)       candidate state
    h_new = (1 - z) * h + z * c

A cell stores its gates stacked side by side in the order z, r, c, in
the layout the row-batched products use: ``W`` is ``[I, 3H]``, ``U`` is
``[H, 3H]`` and ``b`` is ``[3H]``, so ``W_z`` is ``W[:, :H]``, ``W_r``
is ``W[:, H:2H]`` and ``W_c`` is ``W[:, 2H:]``.  One step is two
products for the gates and one for the candidate, and :func:`gru_step`
records it as a single tape node with a hand-written backward.

When every input of a sequence is known up front, :func:`gru_sequence`
records the whole recursion as one tape node instead: the input
projection ``X W`` of all steps is one product and the backward is
:func:`_gru_bptt`, which runs the recursion in numpy and forms the input
and weight gradients of all steps with one product each.  The
discriminator's encoder, :func:`bigru_encode`, runs it once per
direction.  The generator's unroll in :mod:`profforce.engine` feeds
each step's input from the step before, so it runs the numpy step
:func:`_gru_cell` itself and records the whole unroll as one node whose
backward calls :func:`_gru_bptt` once per layer.  Every path shares one
numpy copy of the gate equations, of their backward and of the
recursion through time; :func:`gru_step` is the single-step op.

The candidate's pre-tanh value ``x W_c + (r * h) U_c + b_c`` is exposed
alongside the new state because it is the per-step feature the
discriminator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    _record,
    _sigmoid,
    add,
    concat,
    matmul,
    relu,
    transpose,
)

__all__ = [
    "GruCellParams",
    "OutputHeadParams",
    "MlpParams",
    "BiGruParams",
    "init_params",
    "gru_step",
    "gru_sequence",
    "mlp_forward",
    "bigru_encode",
]


def init_params(kind: str, shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    shape = tuple(int(s) for s in shape)
    if kind == "bias":
        return Tensor(np.zeros(shape))
    if kind == "weight":
        if len(shape) != 2:
            raise ValueError(f"weight init expects a 2D shape, got {shape}")
        fan_out, fan_in = shape
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return Tensor(rng.uniform(-s, s, size=shape))
    raise ValueError(f"unknown parameter kind {kind!r}")


def _stack_gates(rng: np.random.Generator, hidden: int, fan_in: int) -> Tensor:
    """Three [H, fan_in] gate draws, transposed and stacked into one [fan_in, 3H]."""
    blocks = [init_params("weight", (hidden, fan_in), rng).data for _ in range(3)]
    # concatenate(...).T is Fortran-ordered; in-place flat views need C order.
    return Tensor(np.ascontiguousarray(np.concatenate(blocks, axis=0).T))


@dataclass
class GruCellParams:
    """Gate-stacked weights, gate order z, r, c: W [I, 3H], U [H, 3H], b [3H]."""

    W: Tensor
    U: Tensor
    b: Tensor

    @classmethod
    def create(cls, hidden: int, input_size: int, rng: np.random.Generator) -> "GruCellParams":
        if hidden < 1 or input_size < 1:
            raise ValueError("hidden and input sizes must be positive")
        W = _stack_gates(rng, hidden, input_size)
        U = _stack_gates(rng, hidden, hidden)
        return cls(W=W, U=U, b=init_params("bias", (3 * hidden,), rng))

    @property
    def hidden_size(self) -> int:
        return self.U.shape[0]

    @property
    def input_size(self) -> int:
        return self.W.shape[0]

    def named(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        return [(prefix + "W", self.W), (prefix + "U", self.U), (prefix + "b", self.b)]


def _gru_cell(U: np.ndarray, b: np.ndarray, h: np.ndarray, xw: np.ndarray):
    """Numpy forward of one step from the input projection ``xw = x @ W``.

    ``h`` is ``[B, H]`` and ``xw`` is ``[B, 3H]``.  Returns the new
    state, the candidate pre-tanh value and what the backward needs:
    the stacked ``z, r`` gates, ``r * h`` and the candidate ``c``.
    """
    H = U.shape[0]
    zr = h @ U[:, :2 * H]
    zr += xw[:, :2 * H]
    zr += b[:2 * H]
    zr = _sigmoid(zr)
    z = zr[:, :H]
    rh = zr[:, H:] * h
    pre = rh @ U[:, 2 * H:]
    pre += xw[:, 2 * H:]
    pre += b[2 * H:]
    c = np.tanh(pre)
    h_new = (1.0 - z) * h + z * c
    return h_new, pre, zr, rh, c


def _gru_cell_back(U: np.ndarray, h: np.ndarray, zr: np.ndarray, c: np.ndarray,
                   g_h: np.ndarray, g_pre: np.ndarray | None):
    """Numpy backward of one step: gradients of the stacked gate
    pre-activations ``[B, 3H]`` (order z, r, c) and of the previous state."""
    H = U.shape[0]
    z, r = zr[:, :H], zr[:, H:]
    da = np.empty((h.shape[0], 3 * H))
    d_pre = da[:, 2 * H:]
    np.multiply(g_h * z, 1.0 - c * c, out=d_pre)
    if g_pre is not None:
        d_pre += g_pre
    d_rh = d_pre @ U[:, 2 * H:].T
    da[:, :H] = g_h * (c - h)
    da[:, H:2 * H] = d_rh * h
    da[:, :2 * H] *= zr * (1.0 - zr)
    d_h = g_h * (1.0 - z) + d_rh * r + da[:, :2 * H] @ U[:, :2 * H].T
    return da, d_h


def _gru_weight_grads(W: np.ndarray, U: np.ndarray, x: np.ndarray, h: np.ndarray,
                      rh: np.ndarray, da: np.ndarray):
    """Input and weight gradients over all rows of ``da`` at once.

    ``x``, ``h`` and ``rh`` are the step inputs, previous states and
    ``r * h`` aligned row for row with ``da``; returns dx, dW, dU, db.
    """
    H = U.shape[0]
    d_U = np.empty_like(U)
    np.matmul(h.T, da[:, :2 * H], out=d_U[:, :2 * H])
    np.matmul(rh.T, da[:, 2 * H:], out=d_U[:, 2 * H:])
    return da @ W.T, x.T @ da, d_U, da.sum(axis=0)


def _gru_bptt(W: np.ndarray, U: np.ndarray, x: np.ndarray, h_prev: np.ndarray,
              zr: np.ndarray, rh: np.ndarray, c: np.ndarray, g_h: np.ndarray,
              g_pre: np.ndarray | None = None, reverse: bool = False):
    """Backward through a cell run over ``T`` steps from a zero state.

    Every array is time-major ``[T, B, .]``: the step inputs ``x``, the
    states ``h_prev`` each step read, and the ``zr``, ``rh`` and ``c``
    caches of :func:`_gru_cell`.  ``g_h[t]`` is the gradient reaching
    the state written at step ``t`` from outside the recursion and
    ``g_pre[t]`` that of its candidate pre-tanh value.  With ``reverse``
    the cell read step ``T-1`` first.  The recursion runs step by step;
    the input and weight gradients of all steps are one product each.
    Returns dx ``[T, B, I]``, dW, dU and db.
    """
    T, B, H = h_prev.shape
    da = np.empty((T, B, 3 * H))
    d_h = np.zeros((B, H))
    for t in (range(T) if reverse else range(T - 1, -1, -1)):
        da[t], d_h = _gru_cell_back(U, h_prev[t], zr[t], c[t], g_h[t] + d_h,
                                    None if g_pre is None else g_pre[t])
    d_x, d_W, d_U, d_b = _gru_weight_grads(
        W, U, x.reshape(T * B, -1), h_prev.reshape(T * B, H), rh.reshape(T * B, H),
        da.reshape(T * B, 3 * H))
    return d_x.reshape(x.shape), d_W, d_U, d_b


def gru_step(p: GruCellParams, h_prev: Tensor, x_in: Tensor) -> tuple[Tensor, Tensor]:
    """One GRU update; returns the new state and the candidate pre-tanh value.

    ``h_prev`` and ``x_in`` are both single vectors or both ``[B, .]``
    row batches.  The step is one tape node whose backward is written
    out in numpy; either output may be left out of the loss.
    """
    hd, xd = h_prev.data, x_in.data
    if hd.shape[-1] != p.hidden_size:
        raise ValueError(f"state width {hd.shape[-1]} != hidden size {p.hidden_size}")
    if xd.shape[-1] != p.input_size:
        raise ValueError(f"input width {xd.shape[-1]} != cell input size {p.input_size}")
    if hd.shape[:-1] != xd.shape[:-1] or hd.ndim > 2:
        raise ValueError(f"state {hd.shape} and input {xd.shape} must both be [H]/[I] "
                         f"or share a leading batch dimension")
    W, U, b = p.W.data, p.U.data, p.b.data
    h, x = hd.reshape(-1, p.hidden_size), xd.reshape(-1, xd.shape[-1])
    h_new, pre, zr, rh, c = _gru_cell(U, b, h, x @ W)

    def back(g_h, g_pre):
        g_h = np.zeros_like(h) if g_h is None else g_h.reshape(h.shape)
        g_pre = None if g_pre is None else g_pre.reshape(h.shape)
        da, d_h = _gru_cell_back(U, h, zr, c, g_h, g_pre)
        d_x, d_W, d_U, d_b = _gru_weight_grads(W, U, x, h, rh, da)
        return d_h.reshape(hd.shape), d_x.reshape(xd.shape), d_W, d_U, d_b

    out = (Tensor(h_new.reshape(hd.shape), copy=False), Tensor(pre.reshape(hd.shape), copy=False))
    return _record(out, (h_prev, x_in, p.W, p.U, p.b), back)


def gru_sequence(p: GruCellParams, xs: Tensor, reverse: bool = False) -> Tensor:
    """Run a cell over a whole ``[T, B, I]`` sequence from a zero state.

    Returns the states ``[T, B, H]``; with ``reverse`` the cell reads
    step ``T-1`` first, and ``states[t]`` has seen inputs ``t..T-1``.
    One tape node: the input projection of every step is one product
    and the backward is :func:`_gru_bptt`.
    """
    xd = xs.data
    if xd.ndim != 3 or xd.shape[0] == 0:
        raise ValueError(f"gru_sequence expects a nonempty [T, B, I] input, got {xd.shape}")
    if xd.shape[-1] != p.input_size:
        raise ValueError(f"input width {xd.shape[-1]} != cell input size {p.input_size}")
    T, B, I = xd.shape
    H = p.hidden_size
    W, U, b = p.W.data, p.U.data, p.b.data
    x = xd.reshape(T * B, I)
    xw = (x @ W).reshape(T, B, 3 * H)
    steps = range(T - 1, -1, -1) if reverse else range(T)
    h_prev = np.empty((T, B, H))   # state each step read
    rh = np.empty((T, B, H))
    zr = np.empty((T, B, 2 * H))
    c = np.empty((T, B, H))
    states = np.empty((T, B, H))
    h = np.zeros((B, H))
    for t in steps:
        h_prev[t] = h
        h, _, zr[t], rh[t], c[t] = _gru_cell(U, b, h, xw[t])
        states[t] = h

    def back(g):
        return _gru_bptt(W, U, xd, h_prev, zr, rh, c, g, reverse=reverse)

    return _record(Tensor(states, copy=False), (xs, p.W, p.U, p.b), back)


@dataclass
class OutputHeadParams:
    """Affine map from hidden state to vocabulary logits: W_o is [V, H]."""

    W_o: Tensor
    b_o: Tensor

    @classmethod
    def create(cls, vocab: int, hidden: int, rng: np.random.Generator) -> "OutputHeadParams":
        return cls(W_o=init_params("weight", (vocab, hidden), rng),
                   b_o=init_params("bias", (vocab,), rng))

    def named(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        return [(prefix + "W_o", self.W_o), (prefix + "b_o", self.b_o)]


@dataclass
class MlpParams:
    """Affine layers with ReLU between them; the final layer stays linear."""

    layers: list[tuple[Tensor, Tensor]]

    @classmethod
    def create(cls, sizes: list[int], rng: np.random.Generator) -> "MlpParams":
        if len(sizes) < 2:
            raise ValueError("an MLP needs at least an input and an output size")
        layers = []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            layers.append((init_params("weight", (n_out, n_in), rng),
                           init_params("bias", (n_out,), rng)))
        return cls(layers=layers)

    def named(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(self.layers):
            out.append((f"{prefix}{i}.W", w))
            out.append((f"{prefix}{i}.b", b))
        return out


def mlp_forward(p: MlpParams, x: Tensor) -> Tensor:
    last = len(p.layers) - 1
    for i, (w, b) in enumerate(p.layers):
        x = add(matmul(x, transpose(w)), b)
        if i != last:
            x = relu(x)
    return x


@dataclass
class BiGruParams:
    """Two independent GRU cells of equal hidden size, one per direction."""

    fwd: GruCellParams
    bwd: GruCellParams

    @classmethod
    def create(cls, input_size: int, hidden: int, rng: np.random.Generator) -> "BiGruParams":
        return cls(fwd=GruCellParams.create(hidden, input_size, rng),
                   bwd=GruCellParams.create(hidden, input_size, rng))

    @property
    def input_size(self) -> int:
        return self.fwd.input_size

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size

    def named(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        return self.fwd.named(prefix + "fwd.") + self.bwd.named(prefix + "bwd.")


def bigru_encode(p: BiGruParams, seq: Tensor) -> Tensor:
    """Run both directions over ``[T, B, I]`` from zero states.

    Returns ``[T, B, 2H]``: step t holds ``[fwd_t ; bwd_t]``, so every
    output step depends on the whole input sequence.
    """
    return concat((gru_sequence(p.fwd, seq), gru_sequence(p.bwd, seq, reverse=True)), axis=-1)
