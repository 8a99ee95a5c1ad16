"""The two-mode training engine.

A generator RNN is unrolled in two regimes over the same minibatch:
teacher forced, where each step reads the ground-truth previous symbol,
and free running, where each step reads the model's own sample.  One
step loop serves every regime, row by row in one batch; the regimes
differ only in which symbol it feeds back.  Scheduled sampling spans
them with one probability: p = 0 is teacher forcing and p = 1 is free
running.  :func:`unroll_teacher_forced` and :func:`unroll_free_running`
run that loop on what their callers checked; :func:`train_step` runs it for
every mode, on ``[B, T]`` target ids.  Every unroll returns its draws,
its last top-layer state and, with targets, the cross entropy in nats
per step.  The commands (``sample``, validation, ``diagnose``) read no
more, so there the per-step arrays cycle through rows and memory grows
with the ids alone.  A taped unroll (``train_step``'s) keeps its
behavior (the GRU candidate pre-tanh values, optionally with the softmax
outputs appended), its logits and its top-layer states as time-major
[T, B, .] arrays, and returns its backward closure, which runs the
kernel's recursion for each layer from the gradients of the behavior and
the cross entropy.  The loop runs the numpy GRU kernel of
:mod:`profforce.nets` on arrays and views bound before the first step,
so a step makes only ufunc and BLAS calls.  Every parameter is a plain
float64 array that Adam updates in place and the checkpoint stores.  A
bidirectional-GRU discriminator scores behavior sequences as teacher
forced vs free running, and its judgement is fed back into the generator
so the free-running dynamics are pulled toward the teacher-forced ones.
Every draw is the argmax of the logits plus ``-T log e``, e ~ Exp(1)
(Gumbel-max).

Loss pieces, with D(b) the discriminator probability that behavior b is
teacher forced:

    nll        sum_t -log softmax(logits_t)[y_t] / T  (nats per step)
    c_d        mean(-log D(b_tf)) + mean(-log(1 - D(b_fr)))
    c_f        mean(-log D(b_fr))                     generator side
    c_t        mean(-log(1 - D(b_tf)))                optional extra

c_d is c_f + c_t with the labels swapped, so with ``use_ct`` the
generator's term is c_d of the stack with its halves exchanged.  The
adversarial signal reaches the generator only while the discriminator's
batch accuracy is above 0.75, and the discriminator itself stops
updating once its accuracy exceeds 0.99.

c_d is the one loss with a backward of its own: :func:`discriminate`
forms it over the ``[2B]`` stack of probabilities, teacher-forced rows
first.  c_f and c_t are reported values only: the generator's
adversarial term reaches it through c_d's gradient.

A training step unrolls both regimes as one batch, teacher-forced rows
first, and runs the discriminator on its behavior once.  Each of the
four kernels it runs (the unroll, and the encoder, MLP and head of
:func:`discriminate`) returns its value with its backward closure, and
each player's closures differentiate that player's own loss: the
discriminator's c_d, the unroll's ``nll`` plus the behavior's term the
step hands it.  The step calls those closures in a straight line, each
at most once, and seeds none: every term above comes from that forward
and that backward (see :func:`train_step`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, cycle, islice, repeat
from typing import Callable

import numpy as np

from .config import TrainConfig
from .nets import (
    GruCellParams,
    _gru_bptt,
    _gru_step_into,
    _gru_weights,
    _weight_in_out,
    bigru_encode,
    init_params,
    mlp_forward,
)
from .optim import AdamState, adam_step

__all__ = [
    "GateState",
    "GeneratorParams",
    "DiscriminatorParams",
    "UnrollResult",
    "unroll_teacher_forced",
    "unroll_free_running",
    "discriminate",
    "gate",
    "accuracy_from_probs",
    "train_step",
]

ADVERSARIAL_GATE = 0.75   # back-prop into the generator only above this accuracy
FREEZE_GATE = 0.99        # stop updating the discriminator above this accuracy
LOGIT_CLIP = 10.0         # discriminator output logit is clamped to [-10, 10]
_NOISE_BLOCK = 64         # steps of free-running noise drawn per rng call


@dataclass(frozen=True)
class GateState:
    disc_accuracy: float
    adversarial_to_generator: bool
    update_discriminator: bool


def gate(disc_accuracy: float) -> GateState:
    acc = float(disc_accuracy)
    return GateState(disc_accuracy=acc,
                     adversarial_to_generator=acc > ADVERSARIAL_GATE,
                     update_discriminator=acc <= FREEZE_GATE)


@dataclass
class GeneratorParams:
    """Embedding, a stack of GRU cells, and the softmax output head
    ``W_o`` [H, V], ``b_o`` [V] from the top state to the logits.

    The embedding has one extra row: symbol id ``vocab_size`` is the
    start-of-sequence token fed at the first step.
    """

    embedding: np.ndarray
    cells: list[GruCellParams]
    W_o: np.ndarray
    b_o: np.ndarray

    @classmethod
    def create(cls, vocab_size: int, embed_dim: int, hidden: int,
               layers: int, rng: np.random.Generator) -> "GeneratorParams":
        emb = init_params((vocab_size + 1, embed_dim), rng)
        cells = [GruCellParams.create(hidden, embed_dim if i == 0 else hidden, rng)
                 for i in range(layers)]
        return cls(emb, cells, _weight_in_out(rng, hidden, vocab_size), np.zeros(vocab_size))

    @property
    def vocab_size(self) -> int:
        return self.W_o.shape[1]

    @property
    def start_id(self) -> int:
        return self.vocab_size

    @property
    def hidden_size(self) -> int:
        return self.cells[-1].hidden_size

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        out = [("embedding", self.embedding)]
        for i, c in enumerate(self.cells):
            out.extend(c.named(f"cells.{i}."))
        return out + [("head.W_o", self.W_o), ("head.b_o", self.b_o)]

    def tensors(self) -> list[np.ndarray]:
        return [t for _, t in self.named_params()]


@dataclass
class DiscriminatorParams:
    """A BiGRU encoder, cells ``fwd`` and ``bwd``, plus a per-step MLP,
    ``layers`` of ``(W, b)``, scored into one pooled logit."""

    fwd: GruCellParams
    bwd: GruCellParams
    layers: list[tuple[np.ndarray, np.ndarray]]

    @classmethod
    def create(cls, feature_width: int, hidden: int,
               rng: np.random.Generator) -> "DiscriminatorParams":
        fwd, bwd = (GruCellParams.create(hidden, feature_width, rng) for _ in "fb")
        # Three hidden ReLU layers of the encoder's width, then a linear scalar score per step.
        sizes = [2 * hidden, hidden, hidden, hidden, 1]
        return cls(fwd, bwd, [(_weight_in_out(rng, n_in, n_out), np.zeros(n_out))
                              for n_in, n_out in zip(sizes[:-1], sizes[1:])])

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        return (self.fwd.named("encoder.fwd.") + self.bwd.named("encoder.bwd.")
                + [(f"classifier.{i}.{k}", t)
                   for i, layer in enumerate(self.layers) for k, t in zip("Wb", layer)])

    def tensors(self) -> list[np.ndarray]:
        return [t for _, t in self.named_params()]


@dataclass
class UnrollResult:
    """An unroll's outputs; a targeted row's ``sampled`` is what it was fed, draws included."""

    logits: np.ndarray | None            # taped: [T, B, V]; else None
    behavior: np.ndarray | None          # taped: [T, B, width]; else None
    hidden: np.ndarray                   # taped: [T, B, H] top-layer states; else the last
    sampled: np.ndarray                  # [B, T] per row: draws if free running, else fed
    nll: np.float64 | None               # with targets: nats per step, batch mean
    back: Callable | None                # taped: see _unroll


# ---------------------------------------------------------------------------
# unrolls


def _gumbel_noise(rng: np.random.Generator, shape: tuple, temperature: float) -> np.ndarray:
    """``-temperature * log e``, e ~ Exp(1) of ``shape`` read from ``rng`` in C order."""
    with np.errstate(divide="ignore"):   # an e of 0.0 gives +inf: that symbol wins
        return np.log(rng.standard_exponential(shape)) * -temperature


def _stable_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    out = np.exp(x - np.max(x, axis=-1, keepdims=True))
    out /= np.sum(out, axis=-1, keepdims=True)
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


def _unroll(g: GeneratorParams, ids: np.ndarray | None, t_len: int, batch: int,
            p_sample: float, rng: np.random.Generator | None, temperature: float,
            include_outputs: bool, taped: bool) -> UnrollResult:
    """The one step loop behind every unroll.

    Each step looks up the fed symbols' embeddings, runs every GRU layer
    once, applies the output head and fills the step's rows.  Rows
    [0, n) of the [n, T] targets ``ids`` (n = 0 if None) feed the next
    step the true symbol, or with probability ``p_sample`` a draw at
    temperature 1 (if a next step exists); their cross entropy, a batch
    mean divided by T, gives ``nll`` in nats per step.  Rows [n, batch)
    run free at ``temperature``.  A draw is the argmax of the logits plus
    :func:`_gumbel_noise`, which free rows read in blocks of steps; as no
    caller flips coins beside free rows, no draw depends on the blocks.

    Each step runs :func:`nets._gru_step_into` per layer, on arrays and
    views bound before the first step; layer 0 reads ``x W + b`` from a
    per-symbol table.  Only ``taped`` does every step keep its own cache
    rows (states, gates and candidates; ``r * h`` goes through one row
    in any case), the result its logits, behavior and top-layer states
    and ``back``, its backward closure.  The behavior is formed after
    the loop: the top layer's candidates, with ``include_outputs``
    followed by one softmax of the logits, the free rows' at
    ``temperature``.  ``back(g_beh)`` takes the behavior's gradient
    (None if the loss does not reach it) and adds ``nll`` at weight 1:
    it forms the logits' gradient (from ``nll`` and the behavior's
    softmax columns), takes the head's and top states' gradients in one
    product each, runs :func:`_gru_bptt` per layer from the top and
    scatters the bottom layer's input gradient into the embedding.  Rows
    are independent, so with no behavior gradient it runs the targeted
    rows alone.  The bottom inputs are looked up again, as no update
    runs before the closure has.  It returns the gradient of every
    parameter, in ``g.tensors()`` order; no gradient reaches the logits
    or top-layer states.  Untaped, the logits and states cycle through
    rows, as the caches do; the result keeps the last state alone
    (``[1, B, H]``), and the unroll the targeted rows' logits, which
    ``nll`` sums in step order: memory grows with the draws alone.
    """
    emb, w_head, b_head = g.embedding, g.W_o, g.b_o
    vocab, top = g.vocab_size, g.hidden_size
    n_tf = 0 if ids is None else ids.shape[0]
    kept = t_len if taped else 1   # step rows each cache and output keeps
    logits = np.empty((t_len if taped or n_tf else 1, batch, vocab))
    cand = np.empty((kept, batch, top))   # the top layer's candidates: the behavior's first columns
    layers, caches = [], []   # per layer: x W + b, its views, U_zr, U_c, W, b, steps; caches
    for i, cell in enumerate(g.cells):
        h, is_top = cell.hidden_size, i == len(g.cells) - 1
        W, b, U_zr, U_c = _gru_weights(cell)
        W = emb @ W + b if i == 0 else W   # layer 0: a table of x W + b per symbol
        hs = np.zeros((t_len + 1 if taped else 2, batch, h))   # untaped: two rows in turn
        pre = cand if is_top else np.empty((1, batch, h))
        xb, zr, rh, c = (np.empty((3, batch, h)), np.empty((kept, 2, batch, h)),
                         np.empty((1, batch, h)), np.empty((kept, batch, h)))
        # step t's views h, zr, 1 - z, r, rh, pre, c and h_new, cycling with their rows
        steps = zip(*(cycle(a) for a in (hs, zr, zr[:, 0], zr[:, 1], rh, pre, c)),
                    islice(cycle(hs), 1, None))
        layers.append((xb, xb[:2], xb[2], U_zr, U_c, W, b,
                       cycle(list(islice(steps, t_len if taped else 2)))))
        caches.append((hs, zr, c))
    nxt = np.empty((t_len + 1, batch), dtype=np.int64)   # row t: the symbols step t reads
    nxt[0], nxt[1:, :n_tf] = g.start_id, ids.T if n_tf else 0
    inv_t = np.where(np.arange(batch)[:, None] < n_tf, 1.0, 1.0 / temperature)
    blocks = (_gumbel_noise(rng, (min(_NOISE_BLOCK, t_len - s), batch - n_tf, vocab), temperature)
              for s in range(0, t_len, _NOISE_BLOCK))   # each read from rng as its step starts
    noise = chain.from_iterable(blocks) if n_tf < batch else repeat(None)
    for t, (fed, lg, noise_t, drawn) in enumerate(zip(nxt, cycle(logits), noise, nxt[1:, n_tf:])):
        for i, (xb, xb_zr, xb_c, U_zr, U_c, W, b, steps) in enumerate(layers):
            if i:
                np.matmul(x, W, xb)
                xb += b
            else:
                W.take(fed, 1, xb)
            h, zr, keep, r, rh, pre, c, x = next(steps)
            _gru_step_into(U_zr, U_c, h, xb_zr, xb_c, zr, keep, r, rh, pre, c, x)
        np.dot(x, w_head, lg)
        lg += b_head
        if n_tf < batch:
            np.add(lg[n_tf:], noise_t, noise_t).argmax(1, drawn)
        if n_tf and t + 1 < t_len and p_sample > 0.0:
            coin = np.ones(n_tf, dtype=bool) if p_sample >= 1.0 else rng.random(n_tf) < p_sample
            if coin.any():   # drawn by the free rows' rule, at temperature 1
                drawn_tf = np.argmax(lg[:n_tf] + _gumbel_noise(rng, (n_tf, vocab), 1.0), 1)
                nxt[t + 1, :n_tf] = np.where(coin, drawn_tf, ids[:, t])
    sampled = np.empty((batch, t_len), dtype=np.int64)
    sampled[:n_tf], sampled[n_tf:] = nxt[:-1, :n_tf].T, nxt[1:, n_tf:].T
    nll = soft = None
    if n_tf:
        # Rows in step order, as [T * n, V], so the sum runs step by step.
        xent, e, s = _cross_entropy_rows(logits[:, :n_tf].reshape(-1, vocab), ids.T.reshape(-1))
        nll = np.sum(xent) * (1.0 / n_tf) / t_len
        if taped:
            soft = (e / s[:, None]).reshape(t_len, n_tf, -1)
    hs = caches[-1][0]
    if not taped:   # two state rows in turn, the last state in row T % 2
        return UnrollResult(None, None, hs[t_len % 2, None], sampled, nll, None)
    behavior = (np.concatenate((cand, _stable_softmax(logits * inv_t)), axis=-1)
                if include_outputs else cand)

    def back(g_beh):
        n = n_tf if g_beh is None else batch
        d_lg = np.zeros((t_len, n, vocab))
        if n_tf:
            p = soft.copy()
            p[np.arange(t_len)[:, None], np.arange(n_tf), ids.T] -= 1.0
            d_lg[:, :n_tf] += p * ((1.0 / t_len) * (1.0 / n_tf))
        g_pre = None if g_beh is None else g_beh[..., :top]
        if g_beh is not None and include_outputs:
            sm, gp = behavior[..., top:], g_beh[..., top:]
            d_lg += sm * (gp - np.sum(gp * sm, axis=-1, keepdims=True)) * inv_t
        d_lg = d_lg.reshape(t_len * n, vocab)
        d_out = (d_lg @ w_head.T).reshape(t_len, n, top)
        d_wo = caches[-1][0][1:, :n].reshape(t_len * n, top).T @ d_lg
        cell_grads = []
        for i in range(len(g.cells) - 1, -1, -1):
            hs, zr, c = caches[i]
            x = caches[i - 1][0][1:, :n] if i else emb[nxt[:-1, :n]]
            d_out, d_w, d_u, d_b, _ = _gru_bptt(g.cells[i], x, hs[:-1, :n], zr[:, :, :n],
                                                c[:, :n], d_out, g_pre)
            g_pre = None   # only the top layer's candidate is in the behavior
            cell_grads[:0] = [d_w, d_u, d_b]
        d_emb = np.zeros_like(emb)
        np.add.at(d_emb, nxt[:-1, :n].reshape(-1), d_out.reshape(t_len * n, -1))
        return [d_emb, *cell_grads, d_wo, d_lg.sum(axis=0)]

    return UnrollResult(logits, behavior, hs[1:], sampled, nll, back)


def unroll_teacher_forced(g: GeneratorParams, y_seq) -> UnrollResult:
    """Open-loop unroll: step t reads the true y[t-1] (start token at t=0).

    Untaped: the result holds the fed symbols, ``nll`` and the last state
    alone.
    """
    ids = np.asarray(y_seq, dtype=np.int64)
    return _unroll(g, ids, ids.shape[1], ids.shape[0], 0.0, None, 1.0, False, taped=False)


def unroll_free_running(g: GeneratorParams, t_len: int, rng: np.random.Generator, *,
                        temperature: float = 1.0, batch: int = 1) -> UnrollResult:
    """Closed-loop unroll: step t reads the model's own previous sample.

    Sampling draws from softmax(logits / temperature).  Ground-truth
    symbols are never consulted.  Untaped: the result holds the draws
    and the last state alone.
    """
    return _unroll(g, None, t_len, batch, 0.0, rng, temperature, False, taped=False)


# ---------------------------------------------------------------------------
# discriminator and losses


def discriminate(d: DiscriminatorParams, stack: np.ndarray):
    """c_d of a stack of behaviors, with the probability per sequence that
    its behavior is teacher forced.

    ``stack`` is a time-major ``[T, 2B, width]`` behavior array, its
    teacher-forced rows first.  BiGRU encoding, a shared per-step MLP
    score, then the head: mean pooling over time, a clamp of the pooled
    logit to [-10, 10] and a sigmoid.  Returns the ``[2B]`` probabilities,
    c_d and the backward closure ``back(learns, reads_seq)``, which runs
    the head, then the MLP's closure, then the encoder's, each freed once
    run.  The head forms the gradients of c_d's logs, the sigmoid, the
    clamp and the pooling one after another, as a chain of those ops
    would.  The weight gradients are formed if ``learns``, the gradient of
    ``stack`` if ``reads_seq``; the closure returns that gradient (else
    None) and the list of the weights' (Nones if not ``learns``) in
    ``d.tensors()`` order.
    """
    t_len, batch, _ = stack.shape
    states, enc_back = bigru_encode(d.fwd, d.bwd, stack)
    scores, mlp_back = mlp_forward(d.layers, states)   # [T, 2B, 1]
    pooled = np.sum(scores.reshape(t_len, batch), axis=0) / t_len
    mask = (pooled > -LOGIT_CLIP) & (pooled < LOGIT_CLIP)
    s = 0.5 * (1.0 + np.tanh(0.5 * np.clip(pooled, -LOGIT_CLIP, LOGIT_CLIP)))
    p_tf, p_fr = np.split(s, 2)
    c = -1.0 / p_tf.size
    c_d = np.sum(np.log(p_tf)) * c + np.sum(np.log(1.0 - p_fr)) * c
    backs = [enc_back, mlp_back]

    def back(learns, reads_seq):
        g = np.concatenate((c / p_tf, -(c / (1.0 - p_fr))))
        g = g * s * (1.0 - s)
        g = g * mask
        d_scores = np.empty((t_len, batch, 1))
        d_scores[..., 0] = g / t_len   # broadcast over the T steps
        d_states, *mlp_grads = backs.pop()(d_scores, learns)
        d_stack, *enc_grads = backs.pop()(d_states, reads_seq, learns)
        return d_stack, enc_grads + mlp_grads

    return s, c_d, back


def accuracy_from_probs(p_tf: np.ndarray, p_fr: np.ndarray) -> float:
    """Fraction correct at threshold 0.5; a tie at exactly 0.5 is incorrect."""
    p_tf, p_fr = np.asarray(p_tf, dtype=np.float64), np.asarray(p_fr, dtype=np.float64)
    correct = int((p_tf > 0.5).sum()) + int((p_fr < 0.5).sum())
    return correct / (p_tf.size + p_fr.size)


# ---------------------------------------------------------------------------
# one optimisation step


def train_step(g: GeneratorParams, d: DiscriminatorParams | None, y_batch,
               cfg: TrainConfig, p_sample: float, rng: np.random.Generator,
               g_adam: AdamState, d_adam: AdamState | None) -> dict:
    """One combined update over a minibatch, with the run's settings read from ``cfg``.

    Order of work:

    1. Unroll both regimes in one taped ``[T, 2B, .]`` unroll: rows
       [0, B) are fed the targets (ss or tf) and rows [B, 2B) run free at
       ``temperature``.  Its behavior is the stack the discriminator
       reads, teacher-forced rows first; its ``nll`` covers rows [0, B),
       and when only ``nll`` reaches it the backward runs those rows
       alone.
    2. Run the discriminator once on that stack.  It returns c_d and its
       probabilities, which give the accuracy, the gate and the
       generator-side c_f (plus c_t with ``use_ct``, which makes the
       generator term c_d with the labels swapped).
    3. Call the discriminator's closure at most once, forming only what
       is read of c_d's gradient: the discriminator's weights' if the gate
       lets it learn, the stack's if the adversarial term reaches the
       generator.  Then drop the closure, run or not, so that nothing it
       cached is alive during the generator's backward.
    4. If the term reaches the generator, scale the stack's gradient per
       row i by d(adv)/dl_i / d(c_d)/dl_i, l_i the row's pooled logit:
       ``-w (1 - p) / p`` on free-running rows, and with ``use_ct`` ``-w p
       / (1 - p)`` on teacher-forced ones (else 0).  This is exact because
       each row's pooled logit depends on that row of the stack alone, and
       the clamp keeps p inside (0, 1); a clamped row's gradient is zero
       under either term.
    5. Call the unroll's closure with that gradient (None if the term does
       not reach the generator); it adds ``nll``'s own.  Then take both
       Adam steps on the gradients the closures returned.  Adam
       mutates weights that the closures read, so no update runs before
       every closure has.

    Without a discriminator (``d`` None: teacher forcing and scheduled
    sampling build none, nor its Adam state), or when the adversarial
    weight is zero and the discriminator is frozen, the unroll runs the B
    targeted rows alone, without the behavior's softmax columns, and all
    discriminator work is skipped; the corresponding metrics are reported
    as nan.  This keeps every mode on the same code path.
    """
    ids = np.asarray(y_batch, dtype=np.int64)
    b, t_len = ids.shape
    run_adv = d is not None and (cfg.adversarial_weight != 0.0 or not cfg.freeze_discriminator)

    nan = float("nan")
    metrics = {"c_d": nan, "c_f": nan, "c_t": nan, "disc_acc": nan,
               "gate_gen": False, "gate_disc": False}
    update_d, g_beh = False, None

    # rows [0, B) fed the targets; with the discriminator, rows [B, 2B) run free
    res = _unroll(g, ids, t_len, 2 * b if run_adv else b, p_sample, rng, cfg.temperature,
                  cfg.include_outputs_in_behavior and run_adv, taped=True)
    if run_adv:
        probs, c_d, d_back = discriminate(d, res.behavior)   # [2B], teacher-forced rows first
        p_tf, p_fr = np.split(probs, 2)
        gs = gate(accuracy_from_probs(p_tf, p_fr))
        update_d = not cfg.freeze_discriminator and gs.update_discriminator
        adv_on = cfg.adversarial_weight != 0.0 and gs.adversarial_to_generator
        if update_d or adv_on:
            g_beh, d_grads = d_back(update_d, adv_on)
        del d_back   # run or not, free its caches before the generator's backward
        metrics.update(c_d=float(c_d),
                       c_f=float(-np.sum(np.log(p_fr)) / p_fr.size),
                       c_t=float(-np.sum(np.log(1.0 - p_tf)) / p_tf.size),
                       disc_acc=gs.disc_accuracy,
                       gate_gen=gs.adversarial_to_generator,
                       gate_disc=gs.update_discriminator)
        if adv_on:   # d(adv)/dl_i over d(c_d)/dl_i, row by row
            tf_rows = p_tf / (1.0 - p_tf) if cfg.use_ct else np.zeros_like(p_tf)
            rows = np.concatenate((tf_rows, (1.0 - p_fr) / p_fr))
            g_beh *= (-cfg.adversarial_weight * rows)[:, None]

    adam_step(g_adam, g.tensors(), res.back(g_beh))
    if update_d:
        adam_step(d_adam, d.tensors(), d_grads)

    nll_per_step = float(res.nll)
    metrics.update(nll_per_step=nll_per_step, bpc=nll_per_step / math.log(2.0))
    return metrics
