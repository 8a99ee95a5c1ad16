"""GRU cells, the per-step MLP and the bidirectional GRU encoder.

All parameters are plain C-contiguous float64 arrays, which the players
of :mod:`profforce.engine` hold themselves: a cell is a
:class:`GruCellParams`, an MLP a list of ``(W, b)`` layers and the
encoder two cells, one per direction.  The recursions work on time-major
``[T, B, .]`` arrays, so a hidden state is a ``[B, H]`` row batch.

The gate equations, with ``x`` the step input and ``h`` the previous
state::

    z = sigmoid(x W_z + h U_z + b_z)          update gate
    r = sigmoid(x W_r + h U_r + b_r)          reset gate
    c = tanh(x W_c + (r * h) U_c + b_c)       candidate state
    h_new = (1 - z) * h + z * c

Every weight is stored ``[in, out]``, as ``x @ W`` reads it (the
generator's output head ``W_o`` is ``[H, V]``), from an ``[out, in]``
Glorot draw; biases start at zero.
A cell stores its gates gate-major, as the kernel reads them, in the
order z, r, c: ``W`` is ``[3, I, H]``, ``U`` is ``[3, H, H]`` and ``b``
is ``[3, H]``, so ``W_z`` is ``W[0]`` and ``U_c`` is ``U[2]``.

One numpy kernel runs every recursion; what does not change from step
to step (the scaled z and r weights, the projection ``x W + b`` of
known inputs, the views a step reads) is made once per sequence.
:func:`_gru_step_into` writes a step into preallocated arrays and
:func:`_gru_bptt` runs the recursion backward; a step makes only ufunc
and BLAS calls, with ``out`` passed positionally and 2-D products
through ``np.dot``.  :func:`bigru_encode` (both directions, each writing
its half of one ``[T, B, 2H]`` array) and the generator unroll in
:mod:`profforce.engine` both run it.  A recursion that will be
differentiated caches its states, gates and candidates; ``r * h`` goes
through one scratch row, and :func:`_gru_bptt` recomputes it for
``U_c``'s gradient.  :func:`_gru_bptt` returns fresh gradients in their
final shapes and forms only those its caller asks for.

:func:`bigru_encode` and :func:`mlp_forward` work on arrays and return
their output with its backward closure, ``back(g, reads_seq, learns)``
for the encoder and ``back(g, learns)`` for the MLP: ``g`` is the
output's gradient, ``learns`` forms the weights' gradients and
``reads_seq`` the encoder input's.  A closure returns one gradient per
input (the array, then each weight in order), None for one it is not
told to form, and runs once: it frees its caches as it reads them.
:func:`mlp_forward` runs all its layers over the encoder's ``[T, B,
2H]`` output read as rows, with a hand-written backward whose bits are
those of the composed ``matmul``/``add``/``relu`` chain.

The candidate's pre-tanh value ``x W_c + (r * h) U_c + b_c`` is exposed
alongside the new state because it is the per-step feature the
discriminator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "GruCellParams",
    "init_params",
    "mlp_forward",
    "bigru_encode",
]


def init_params(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """A Glorot-uniform draw of a 2-D ``shape``, bound sqrt(6 / (rows + cols))."""
    rows, cols = shape
    s = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-s, s, size=(rows, cols))


def _weight_in_out(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """A [fan_out, fan_in] draw transposed to [fan_in, fan_out], the layout ``x @ W`` reads."""
    # a C-ordered array of its own: .T is a Fortran-ordered view
    return init_params((fan_out, fan_in), rng).T.copy()


@dataclass
class GruCellParams:
    """Gate-major weights, gate order z, r, c: W [3, I, H], U [3, H, H], b [3, H]."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @classmethod
    def create(cls, hidden: int, input_size: int, rng: np.random.Generator) -> "GruCellParams":
        W, U = (np.stack([_weight_in_out(rng, fan_in, hidden) for _ in "zrc"])
                for fan_in in (input_size, hidden))   # W's draws, then U's
        return cls(W=W, U=U, b=np.zeros((3, hidden)))

    @property
    def hidden_size(self) -> int:
        return self.U.shape[-1]

    def named(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return [(prefix + "W", self.W), (prefix + "U", self.U), (prefix + "b", self.b)]


def _gru_weights(p: GruCellParams):
    """A cell's weights as a step reads them: ``W`` ``[3, I, H]``, ``b``
    ``[3, 1, H]``, ``U_zr`` ``[2, H, H]`` and ``U_c``, the view ``U[2]``.

    The z and r gates are scaled by -0.5 and 0.5 (exact), so that
    ``sigmoid(a) = (1 + tanh(a / 2)) / 2`` needs no scaling per step and
    the kernel holds ``1 - z = sigmoid(-a_z)`` in place of z."""
    s = np.array((-0.5, 0.5, 1.0))[:, None, None]
    return p.W * s, p.b[:, None] * s, p.U[:2] * s[:2], p.U[2]


_ONE, _HALF = np.array(1.0), np.array(0.5)   # a float operand is converted on every call


def _gru_step_into(U_zr, U_c, h, xb_zr, xb_c, zr, keep, r, rh, pre, c, h_new) -> None:
    """One step from state ``h`` ``[B, H]`` and ``x W + b`` (forms of
    :func:`_gru_weights`), given as its z, r rows ``xb_zr`` and c row ``xb_c``,
    allocating nothing: writes the gates ``zr`` ``[2, B, H]`` (rows ``keep =
    1 - z`` and ``r``), ``rh = r * h``, ``pre`` (C-contiguous, as ``np.dot``
    writes it), ``c = tanh(pre)`` and ``h_new = c + (1 - z) * (h - c)``."""
    np.matmul(h, U_zr, zr)
    zr += xb_zr
    np.tanh(zr, zr)
    zr += _ONE
    zr *= _HALF
    np.multiply(r, h, rh)
    np.dot(rh, U_c, pre)
    pre += xb_c
    np.tanh(pre, c)
    np.subtract(h, c, h_new)
    h_new *= keep
    h_new += c


def _gru_run(p: GruCellParams, x: np.ndarray, reverse: bool = False):
    """Run a cell over ``x`` ``[T, B, I]`` from a zero state (step ``T-1``
    first with ``reverse``), projecting all inputs in one product.  Returns
    the states ``[T+1, B, H]``, zeros in row 0 and step t's in row t+1
    (rows T and t with ``reverse``), and the caches zr and c; every step
    writes ``r * h`` and its pre-tanh value into one row each."""
    T, B, _ = x.shape
    H = p.hidden_size
    W, b, U_zr, U_c = _gru_weights(p)
    hs, zr = np.empty((T + 1, B, H)), np.empty((T, 2, B, H))
    rh, c, pre = np.empty((B, H)), np.empty((T, B, H)), np.empty((B, H))
    xb = x[:, None] @ W
    xb += b
    hs[T if reverse else 0] = 0.0
    read, write = (hs[1:], hs[:-1]) if reverse else (hs[:-1], hs[1:])
    s = slice(None, None, -1 if reverse else 1)
    for h, xb_zr, xb_c, zr_t, keep, r, c_t, h_new in zip(
            read[s], xb[s, :2], xb[s, 2], zr[s], zr[s, 0], zr[s, 1], c[s], write[s]):
        _gru_step_into(U_zr, U_c, h, xb_zr, xb_c, zr_t, keep, r, rh, pre, c_t, h_new)
    return hs, zr, c


def _gru_bptt(p: GruCellParams, x: np.ndarray, h_prev: np.ndarray, zr: np.ndarray,
              c: np.ndarray, g_h: np.ndarray, g_pre: np.ndarray | None = None,
              reverse: bool = False, reads_x: bool = True, learns: bool = True):
    """Backward through cell ``p`` run over ``T`` steps.

    Arrays are time-major: inputs ``x`` ``[T, B, I]``, the states
    ``h_prev`` each step read and the caches zr and c of
    :func:`_gru_step_into`; ``g_h[t]`` and ``g_pre[t]`` reach step t's
    state and pre-tanh value from outside the recursion.  ``(c - h) z (1 -
    z)``, ``h r (1 - r)`` and ``z (1 - c^2)`` are formed for all steps
    first, in the slots a step scales; the last is c, swept once.  Returns dx
    (None unless ``reads_x``), dW, dU, db (one product per gate each; None
    unless ``learns``) and the gradient into the first state read.  ``r * h``
    is recomputed for dU_c after the other weight products and freed
    before dx is allocated.
    """
    T, B, H = h_prev.shape
    W, U = p.W, p.U
    U_t = U.transpose(0, 2, 1).copy()   # each U_k^T C-ordered: transposed views move BLAS bits
    keep, r = zr[:, 0], zr[:, 1]   # keep = 1 - z
    dzr = np.empty((2, T, B, H))
    da = [*dzr, c]   # gate-major: z, r, c
    np.subtract(1.0, keep, out=da[0])
    np.subtract(c, h_prev, out=da[1])   # scratch until r's factor
    np.multiply(c, c, out=c)
    np.subtract(1.0, c, out=c)
    c *= da[0]
    da[0] *= keep
    da[0] *= da[1]
    np.subtract(1.0, r, out=da[1])
    da[1] *= r
    da[1] *= h_prev
    g, d_rh, d_h = np.empty((B, H)), np.empty((B, H)), np.zeros((B, H))
    back = np.empty((2, B, H))
    back_z, back_r, U_c_t, U_zr_t = back[0], back[1], U_t[2], U_t[:2]
    s = slice(None, None, 1 if reverse else -1)
    g_pres = repeat(None) if g_pre is None else g_pre[s]
    for g_t, g_pre_t, da_zr, da_z, da_r, da_c, keep_t, r_t in zip(
            g_h[s], g_pres, dzr.swapaxes(0, 1)[s], *(a[s] for a in da), keep[s], r[s]):
        np.add(g_t, d_h, g)
        da_c *= g
        if g_pre_t is not None:
            da_c += g_pre_t
        np.dot(da_c, U_c_t, d_rh)
        da_z *= g
        da_r *= d_rh
        np.multiply(g, keep_t, d_h)
        d_rh *= r_t
        d_h += d_rh
        np.matmul(da_zr, U_zr_t, back)
        d_h += back_z
        d_h += back_r
    n = T * B
    da = [a.reshape(n, H) for a in da]
    x2, h2 = x.reshape(n, -1), h_prev.reshape(n, H)
    # each is written through views, so the arrays returned own their data
    d_x = d_W = d_U = d_b = None
    if learns:
        d_W, d_U, d_b = (np.empty(a.shape) for a in (W, U, p.b))
        for k in range(3):   # U_c's input is r * h, recomputed and freed before d_x is made
            np.matmul(x2.T, da[k], out=d_W[k])
            inp = h2 if k < 2 else np.multiply(r, h_prev).reshape(n, H)
            np.matmul(inp.T, da[k], out=d_U[k])
            np.sum(da[k], axis=0, out=d_b[k])
        inp = None
    if reads_x:
        d_x = np.empty(x.shape)
        d_x2 = np.matmul(da[0], W[0].T, out=d_x.reshape(n, -1))
        d_x2 += da[1] @ W[1].T
        d_x2 += da[2] @ W[2].T
    return d_x, d_W, d_U, d_b, d_h


def mlp_forward(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
    """Run the affine ``(W [in, out], b [out])`` layers over the rows of ``x``
    ``[..., in]``, with ReLU between them; the last stays linear.

    Returns the output ``[..., out]`` and its backward closure (see the
    module notes).  The closure keeps only each layer's input; a ReLU
    output is the next layer's input and its own mask, freed once read.
    The layers read the rows as one ``[N, in]`` view.  Per layer the
    backward forms ``a.T @ g``, ``g.sum(axis=0)`` and ``g @ W.T``, the
    products of the composed ``matmul``/``add``/``relu`` chain, so its bits
    are that chain's.  It always forms the input's gradient: the
    encoder's weights and input both lie behind it.
    """
    ws, shape = [w for w, _ in layers], x.shape
    acts = [x.reshape(-1, shape[-1])]   # each layer's input, then the output
    for i, (w, b) in enumerate(layers):
        a = acts[-1] @ w
        a += b
        if i != len(ws) - 1:
            np.maximum(a, 0.0, out=a)
        acts.append(a)

    def back(g, learns):
        g, grads = g.reshape(acts[-1].shape), []
        for i in range(len(ws) - 1, -1, -1):
            if i != len(ws) - 1:   # g is this closure's own product here
                g *= acts.pop(i + 1) > 0.0   # layer i's output, freed once read
            grads[:0] = [acts[i].T @ g, g.sum(axis=0)] if learns else [None, None]
            if i:
                g = g @ ws[i].T
        d_x = np.empty(shape)   # written through a view, so it owns its data
        np.matmul(g, ws[0].T, out=d_x.reshape(len(g), -1))
        return (d_x, *grads)

    return acts[-1].reshape(*shape[:-1], ws[-1].shape[1]), back


def bigru_encode(fwd: GruCellParams, bwd: GruCellParams, seq: np.ndarray):
    """Run cell ``fwd`` forward and ``bwd`` backward over ``[T, B, I]`` from zero states.

    Returns ``[T, B, 2H]``, step t holding ``[fwd_t ; bwd_t]`` so that
    every output step depends on the whole input sequence, and its
    backward closure (see the module notes), whose gradients are those
    of ``seq``, then ``fwd``'s W, U, b and ``bwd``'s.  The closure runs
    :func:`_gru_bptt` for ``bwd`` first, on its half of the gradient, and
    frees that direction's caches before ``fwd``'s.
    """
    T, B, _ = seq.shape
    H = fwd.hidden_size
    out, runs = np.empty((T, B, 2 * H)), []
    for k, p in enumerate((fwd, bwd)):
        hs, zr, c = _gru_run(p, seq, k == 1)
        states, h_prev = (hs[:T], hs[1:]) if k else (hs[1:], hs[:T])
        out[..., k * H:(k + 1) * H] = states
        runs.append((p, seq, h_prev, zr, c))

    def back(g, reads_seq, learns):
        d_x, grads = None, []
        while runs:   # bwd first; a direction's caches go once swept
            k = len(runs) - 1
            d_xk, *dk = _gru_bptt(*runs.pop(), g[..., k * H:(k + 1) * H], reverse=k == 1,
                                  reads_x=reads_seq, learns=learns)[:4]
            grads[:0] = dk
            if d_xk is not None:
                d_x = d_xk if d_x is None else np.add(d_x, d_xk, out=d_x)
        return (d_x, *grads)

    return out, back
