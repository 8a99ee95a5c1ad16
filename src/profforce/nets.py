"""GRU cells, output heads, MLPs and a bidirectional GRU encoder.

All parameters are plain :class:`~profforce.tensor.Tensor` leaves; the
step functions work on single vectors or on row-batched matrices, so a
hidden state is either ``[H]`` or ``[B, H]``.

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
    "output_head",
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


def gru_step(p: GruCellParams, h_prev: Tensor, x_in: Tensor) -> tuple[Tensor, Tensor]:
    """One GRU update; returns the new state and the candidate pre-tanh value.

    ``h_prev`` and ``x_in`` are both single vectors or both ``[B, .]``
    row batches.  The step is one tape node whose backward is written
    out in numpy; either output may be left out of the loss.
    """
    hd, xd = h_prev.data, x_in.data
    H = p.hidden_size
    if hd.shape[-1] != H:
        raise ValueError(f"state width {hd.shape[-1]} != hidden size {H}")
    if xd.shape[-1] != p.input_size:
        raise ValueError(f"input width {xd.shape[-1]} != cell input size {p.input_size}")
    if hd.shape[:-1] != xd.shape[:-1] or hd.ndim > 2:
        raise ValueError(f"state {hd.shape} and input {xd.shape} must both be [H]/[I] "
                         f"or share a leading batch dimension")
    W, U, b = p.W.data, p.U.data, p.b.data
    h, x = hd.reshape(-1, H), xd.reshape(-1, xd.shape[-1])
    xw = x @ W
    zr = h @ U[:, :2 * H]
    zr += xw[:, :2 * H]
    zr += b[:2 * H]
    zr = _sigmoid(zr)
    z, r = zr[:, :H], zr[:, H:]
    rh = r * h
    pre = rh @ U[:, 2 * H:]
    pre += xw[:, 2 * H:]
    pre += b[2 * H:]
    c = np.tanh(pre)
    h_new = (1.0 - z) * h + z * c

    def back(g_h, g_pre):
        # d/d(gate pre-activations), stacked z, r, c like the weights
        da = np.empty((h.shape[0], 3 * H))
        if g_h is None:
            g_h = np.zeros_like(h)
        else:
            g_h = g_h.reshape(h.shape)
        d_pre = da[:, 2 * H:]
        np.multiply(g_h * z, 1.0 - c * c, out=d_pre)
        if g_pre is not None:
            d_pre += g_pre.reshape(h.shape)
        d_rh = d_pre @ U[:, 2 * H:].T
        da[:, :H] = g_h * (c - h)
        da[:, H:2 * H] = d_rh * h
        da[:, :2 * H] *= zr * (1.0 - zr)
        d_h = g_h * (1.0 - z) + d_rh * r + da[:, :2 * H] @ U[:, :2 * H].T
        d_U = np.empty_like(U)
        np.matmul(h.T, da[:, :2 * H], out=d_U[:, :2 * H])
        np.matmul(rh.T, d_pre, out=d_U[:, 2 * H:])
        return (d_h.reshape(hd.shape), (da @ W.T).reshape(xd.shape),
                x.T @ da, d_U, da.sum(axis=0))

    out = (Tensor(h_new.reshape(hd.shape), copy=False), Tensor(pre.reshape(hd.shape), copy=False))
    return _record(out, (h_prev, x_in, p.W, p.U, p.b), back)


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


def output_head(p: OutputHeadParams, h: Tensor) -> Tensor:
    return add(matmul(h, transpose(p.W_o)), p.b_o)


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


def bigru_encode(p: BiGruParams, seq: list[Tensor]) -> list[Tensor]:
    """Run both directions from zero states; step t gets [fwd_t ; bwd_t].

    Output width is twice the encoder hidden size, and every output step
    depends on the whole input sequence.
    """
    if not seq:
        raise ValueError("bigru_encode on an empty sequence")
    width = seq[0].shape[-1]
    if width != p.input_size:
        raise ValueError(f"feature width {width} does not match encoder input {p.input_size}")
    h_shape = seq[0].shape[:-1] + (p.hidden_size,)

    h = Tensor(np.zeros(h_shape))
    fwd_states = []
    for x in seq:
        h, _ = gru_step(p.fwd, h, x)
        fwd_states.append(h)

    h = Tensor(np.zeros(h_shape))
    bwd_states: list[Tensor] = []
    for x in reversed(seq):
        h, _ = gru_step(p.bwd, h, x)
        bwd_states.append(h)
    bwd_states.reverse()

    return [concat((f, b), axis=-1) for f, b in zip(fwd_states, bwd_states)]
