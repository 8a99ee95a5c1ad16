"""The two-mode training engine.

A generator RNN is unrolled in two regimes over the same minibatch:
teacher forced, where each step reads the ground-truth previous symbol,
and free running, where each step reads the model's own sample.  One
step loop serves every regime; the regimes differ only in which symbol
it feeds back.  Scheduled sampling spans them with one probability:
p = 0 is teacher forcing and p = 1 is free running.
:func:`unroll_teacher_forced`, :func:`unroll_free_running` and
:func:`scheduled_sampling_unroll` check their arguments and run that
loop.  Every unroll emits its logits, its behavior (the GRU candidate
pre-tanh values, optionally with the softmax outputs appended) and its
top-layer states as time-major [T, B, .] tensors, and with targets also
the sequence cross entropy.  The loop runs the numpy GRU kernel of
:mod:`profforce.nets` on arrays allocated before the first step and
records the whole unroll as one tape node, whose backward runs the
kernel's recursion for each layer.  A bidirectional-GRU discriminator
scores behavior sequences as teacher forced vs free running, and its
judgement is fed back into the generator so the free-running dynamics
are pulled toward the teacher-forced ones.

Loss pieces, with D(b) the discriminator probability that behavior b is
teacher forced:

    nll        sum_t -log softmax(logits_t)[y_t]      (per sequence)
    c_d        mean(-log D(b_tf)) + mean(-log(1 - D(b_fr)))
    c_f        mean(-log D(b_fr))                     generator side
    c_t        mean(-log(1 - D(b_tf)))                optional extra

c_d is c_f + c_t with the labels swapped: ``loss_discriminator(d_fr,
d_tf)`` is the generator's term with ``use_ct``.  The adversarial signal
reaches the generator only while the discriminator's batch accuracy is
above 0.75, and the discriminator itself stops updating once its
accuracy exceeds 0.99.

A training step stacks both behaviors into one batch, teacher-forced
rows first, runs the discriminator on it once and sweeps its tape at
most once; every term above comes from that forward and that sweep
(see :func:`train_step`).  Both run inside :func:`nets.workspace`, whose
slab holds the discriminator's GRU arrays from one step to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .nets import (
    BiGruParams,
    GruCellParams,
    MlpParams,
    OutputHeadParams,
    _gru_bptt,
    _gru_step_into,
    _gru_weights,
    bigru_encode,
    mlp_forward,
    workspace,
)
from .optim import AdamState, adam_step
from .tensor import (
    Tape,
    Tensor,
    _cross_entropy_rows,
    _record,
    _stable_softmax,
    add,
    backward,
    clip,
    concat,
    is_recording,
    log,
    mean_axis0,
    mul,
    one_minus,
    reshape,
    scale,
    sigmoid,
    softmax_cross_entropy_rows,
    split,
    sum_all,
    zero_grads,
)

__all__ = [
    "Mode",
    "GateState",
    "GeneratorParams",
    "DiscriminatorParams",
    "EngineSettings",
    "UnrollResult",
    "unroll_teacher_forced",
    "unroll_free_running",
    "scheduled_sampling_unroll",
    "discriminate",
    "loss_nll",
    "loss_discriminator",
    "loss_fool_free_running",
    "loss_match_teacher_forced",
    "gate",
    "accuracy_from_probs",
    "train_step",
    "sample_rows",
]

ADVERSARIAL_GATE = 0.75   # back-prop into the generator only above this accuracy
FREEZE_GATE = 0.99        # stop updating the discriminator above this accuracy
LOGIT_CLIP = 10.0         # discriminator output logit is clamped to [-10, 10]


class Mode(Enum):
    TEACHER_FORCED = "teacher_forced"
    FREE_RUNNING = "free_running"


@dataclass(frozen=True)
class GateState:
    disc_accuracy: float
    adversarial_to_generator: bool
    update_discriminator: bool


def gate(disc_accuracy: float) -> GateState:
    acc = float(disc_accuracy)
    if not 0.0 <= acc <= 1.0:
        raise ValueError(f"accuracy {acc} outside [0, 1]")
    return GateState(disc_accuracy=acc,
                     adversarial_to_generator=acc > ADVERSARIAL_GATE,
                     update_discriminator=acc <= FREEZE_GATE)


@dataclass
class GeneratorParams:
    """Embedding, a stack of GRU cells, and the softmax output head.

    The embedding has one extra row: symbol id ``vocab_size`` is the
    start-of-sequence token fed at the first step.
    """

    embedding: Tensor
    cells: list[GruCellParams]
    head: OutputHeadParams

    @classmethod
    def create(cls, vocab_size: int, embed_dim: int, hidden: int,
               layers: int, rng: np.random.Generator) -> "GeneratorParams":
        if vocab_size < 2 or embed_dim < 1 or hidden < 1 or layers < 1:
            raise ValueError("generator sizes must be positive (vocab at least 2)")
        from .nets import init_params
        emb = init_params("weight", (vocab_size + 1, embed_dim), rng)
        cells = [GruCellParams.create(hidden, embed_dim if i == 0 else hidden, rng)
                 for i in range(layers)]
        head = OutputHeadParams.create(vocab_size, hidden, rng)
        return cls(embedding=emb, cells=cells, head=head)

    @property
    def vocab_size(self) -> int:
        return self.head.W_o.shape[1]

    @property
    def start_id(self) -> int:
        return self.vocab_size

    @property
    def hidden_size(self) -> int:
        return self.cells[-1].hidden_size

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding)]
        for i, c in enumerate(self.cells):
            out.extend(c.named(f"cells.{i}."))
        out.extend(self.head.named("head."))
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]


@dataclass
class DiscriminatorParams:
    """BiGRU encoder plus a per-step MLP scored into one pooled logit."""

    encoder: BiGruParams
    classifier: MlpParams

    @classmethod
    def create(cls, feature_width: int, hidden: int, rng: np.random.Generator,
               mlp_hidden: int | None = None) -> "DiscriminatorParams":
        if feature_width < 1 or hidden < 1:
            raise ValueError("discriminator sizes must be positive")
        mh = hidden if mlp_hidden is None else mlp_hidden
        enc = BiGruParams.create(feature_width, hidden, rng)
        # Three hidden ReLU layers, then a linear scalar score per step.
        clf = MlpParams.create([2 * hidden, mh, mh, mh, 1], rng)
        return cls(encoder=enc, classifier=clf)

    @property
    def feature_width(self) -> int:
        return self.encoder.input_size

    def named_params(self) -> list[tuple[str, Tensor]]:
        return (self.encoder.named("encoder.")
                + self.classifier.named("classifier."))

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]


@dataclass(frozen=True)
class EngineSettings:
    """Per-step knobs; the training modes differ only through these."""

    adversarial_weight: float = 1.0
    use_ct: bool = False
    include_outputs: bool = False
    temperature: float = 1.0
    freeze_discriminator: bool = False


@dataclass
class UnrollResult:
    logits: Tensor                       # [T, B, V]
    behavior: Tensor                     # [T, B, width]
    hidden: Tensor                       # [T, B, H] top-layer states
    sampled: np.ndarray                  # [B, T] draws if free running, else fed symbols
    nll: Tensor | None = None            # with targets: cross entropy, batch mean
    used_sample: np.ndarray | None = None  # with targets: [B, T] fed a model sample


# ---------------------------------------------------------------------------
# unrolls


def _as_batch_ids(y_seq) -> np.ndarray:
    ids = np.asarray(y_seq, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2 or ids.shape[1] < 1:
        raise ValueError(f"expected [T] or [B, T] symbol ids, got shape {ids.shape}")
    return ids


def _target_ids(g: GeneratorParams, y_seq) -> np.ndarray:
    ids = _as_batch_ids(y_seq)
    if ids.min() < 0 or ids.max() >= g.vocab_size:
        raise ValueError("symbol id outside the generator vocabulary")
    return ids


def sample_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF categorical sampling, one draw per row."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
    u = rng.random(p.shape[0])
    cum = np.cumsum(p, axis=-1)
    idx = (cum < u[:, None]).sum(axis=-1)
    return np.minimum(idx, p.shape[1] - 1)


def _unroll(g: GeneratorParams, ids: np.ndarray | None, t_len: int, batch: int,
            p_sample: float, rng: np.random.Generator | None, temperature: float,
            include_outputs: bool) -> UnrollResult:
    """The one step loop behind every unroll, recorded as one tape node.

    Each step looks up the fed symbol's embedding, runs every GRU layer
    once, applies the output head and fills the step's rows.  With
    ``ids`` (the [B, T] targets) it feeds the next step the true
    symbol, or with probability ``p_sample`` a draw from the model;
    draws are made only when a next step exists, and never at
    ``p_sample`` 0.  The rows' cross entropy against the targets gives
    ``nll``.  With ``ids`` None it runs free: every step, the last
    included, draws from softmax(logits / temperature), and the
    behavior's softmax rows are tempered alike.

    Each step runs :func:`nets._gru_step_into` per layer, on arrays
    allocated before the first step; layer 0 reads ``x W + b`` from a
    per-symbol table.  Only while a tape records does every step keep
    its own cache rows and the unroll record one node, whose outputs are
    the logits, behavior and hidden tensors and ``nll`` (see
    :func:`_unroll_backward`).
    """
    emb = g.embedding.data
    w_head, b_head = g.head.W_o.data, g.head.b_o.data
    vocab, top = g.vocab_size, g.hidden_size
    taped = is_recording()
    kept = t_len if taped else 1   # step rows each cache keeps
    # The outputs: logits, behavior and the top layer's states, [T, B, .] each.
    logits = np.empty((t_len, batch, vocab))
    behavior = np.empty((t_len, batch, top + vocab if include_outputs else top))
    layers = []   # per layer: its step's x W + b, U_zr, U_c, W, b, states, zr, rh, pre, c
    for i, cell in enumerate(g.cells):
        h, is_top = cell.hidden_size, i == len(g.cells) - 1
        W, b, U_zr, U_c = _gru_weights(cell)
        W = emb @ W + b if i == 0 else W   # layer 0: a table of x W + b per symbol
        hs = np.zeros((t_len + 1 if taped or is_top else 2, batch, h))   # else two in turn
        pre = behavior[..., :top] if is_top else np.empty((1, batch, h))   # else scratch
        layers.append((np.empty((3, batch, h)), U_zr, U_c, W, b, hs,
                       np.empty((kept, 2, batch, h)), np.empty((kept, batch, h)), pre,
                       np.empty((kept, batch, h))))
    hidden = layers[-1][5][1:]
    prev = np.full(batch, g.start_id, dtype=np.int64)
    fed = np.empty((t_len, batch), dtype=np.int64)
    draws = np.empty((batch, t_len), dtype=np.int64)
    used = np.zeros((batch, t_len), dtype=bool)
    for t in range(t_len):
        fed[t] = prev
        for i, (xb, U_zr, U_c, W, b, hs, zr, rh, pre, c) in enumerate(layers):
            if i:
                np.matmul(x, W, out=xb)
                xb += b
            else:
                W.take(prev, axis=1, out=xb)
            k, x = t % kept, hs[(t + 1) % len(hs)]
            _gru_step_into(U_zr, U_c, hs[t % len(hs)], xb, zr[k], rh[k], pre[t % len(pre)],
                           c[k], x)
        lg = np.matmul(x, w_head, out=logits[t])
        lg += b_head
        probs = (_stable_softmax(lg * (1.0 / temperature))
                 if include_outputs or p_sample > 0.0 else None)
        if include_outputs:
            behavior[t, :, top:] = probs
        if ids is None:
            prev = draws[:, t] = sample_rows(rng, probs)
            continue
        prev = ids[:, t]
        if t + 1 < t_len and p_sample > 0.0:
            coin = np.ones(batch, dtype=bool) if p_sample >= 1.0 else rng.random(batch) < p_sample
            if coin.any():
                prev = np.where(coin, sample_rows(rng, probs), prev)
            used[:, t + 1] = coin
    outs = tuple(Tensor(a, copy=False) for a in (logits, behavior, hidden))
    res = UnrollResult(*outs, draws)
    soft = None
    if ids is not None:
        # Rows in step order, as [T * B, V]: the sum runs in the order
        # loss_nll's does.
        xent, e, s = _cross_entropy_rows(logits.reshape(-1, vocab), ids.T.reshape(-1))
        res.nll = Tensor(np.sum(xent) * (1.0 / batch), copy=False)
        res.sampled, res.used_sample = fed.T.copy(), used
        outs += (res.nll,)
        if taped:
            soft = (e / s[:, None]).reshape(t_len, batch, -1)
    if taped:
        caches = [(hs, zr, rh, c) for *_, hs, zr, rh, _, c in layers]
        back = _unroll_backward(g, caches, fed, behavior, soft, ids, temperature,
                                include_outputs)
        _record(outs, tuple(g.tensors()), back)
    return res


def _unroll_backward(g: GeneratorParams, caches: list, fed: np.ndarray,
                     behavior: np.ndarray, soft: np.ndarray | None,
                     ids: np.ndarray | None, temperature: float, include_outputs: bool):
    """The backward closure of one unroll node.

    ``caches[i]`` holds layer i's states, zr, rh and c, ``fed`` the
    [T, B] symbols read, ``behavior`` the behavior array and, with
    targets, ``soft`` every logits row's softmax.  The closure takes the
    gradients of the logits, behavior and hidden outputs and of ``nll``
    (None for one the loss does not reach), forms the logits' gradient
    (from the logits, ``nll`` and the behavior's softmax columns), takes
    the head's and top states' gradients in one product each, runs
    :func:`_gru_bptt` per layer from the top and scatters the bottom
    layer's input gradient into the embedding.  The bottom inputs are
    looked up again, as no update runs before every sweep has.  Returns
    one gradient per input, in ``g.tensors()`` order.
    """
    t_len, batch = fed.shape
    emb, w_o = g.embedding.data, g.head.W_o.data
    top, vocab = w_o.shape

    def back(g_lg, g_beh, g_hid, g_nll=None):
        d_lg = np.zeros((t_len, batch, vocab)) if g_lg is None else np.array(g_lg)
        if g_nll is not None:
            p = soft.copy()
            p[np.arange(t_len)[:, None], np.arange(batch), ids.T] -= 1.0
            d_lg += p * (g_nll * (1.0 / batch))
        g_pre = None if g_beh is None else g_beh[..., :top]
        if g_beh is not None and include_outputs:
            sm, gp = behavior[..., top:], g_beh[..., top:]
            d_lg += sm * (gp - np.sum(gp * sm, axis=-1, keepdims=True)) * (1.0 / temperature)
        d_lg = d_lg.reshape(t_len * batch, vocab)
        d_out = (d_lg @ w_o.T).reshape(t_len, batch, top)
        if g_hid is not None:
            d_out += g_hid
        d_wo = caches[-1][0][1:].reshape(t_len * batch, top).T @ d_lg
        cell_grads = []
        for i in range(len(g.cells) - 1, -1, -1):
            hs, zr, rh, c = caches[i]
            x = caches[i - 1][0][1:] if i else emb[fed]
            d_out, d_w, d_u, d_b, _ = _gru_bptt(g.cells[i], x, hs[:-1], zr, rh, c, d_out, g_pre)
            g_pre = None   # only the top layer's candidate is in the behavior
            cell_grads[:0] = [d_w, d_u, d_b]
        d_emb = np.zeros_like(emb)
        np.add.at(d_emb, fed.reshape(-1), d_out.reshape(t_len * batch, -1))
        return (d_emb, *cell_grads, d_wo, d_lg.sum(axis=0))

    return back


def unroll_teacher_forced(g: GeneratorParams, y_seq, *,
                          include_outputs: bool = False) -> UnrollResult:
    """Open-loop unroll: step t reads the true y[t-1] (start token at t=0)."""
    ids = _target_ids(g, y_seq)
    return _unroll(g, ids, ids.shape[1], ids.shape[0], 0.0, None, 1.0, include_outputs)


def unroll_free_running(g: GeneratorParams, t_len: int, rng: np.random.Generator, *,
                        temperature: float = 1.0, batch: int = 1,
                        include_outputs: bool = False) -> UnrollResult:
    """Closed-loop unroll: step t reads the model's own previous sample.

    Sampling draws from softmax(logits / temperature).  Gradients flow
    through the hidden states and logits; the discrete sample is a
    constant.  Ground-truth symbols are never consulted.
    """
    if t_len < 1:
        raise ValueError("unroll length must be positive")
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    return _unroll(g, None, t_len, batch, 1.0, rng, temperature, include_outputs)


def scheduled_sampling_unroll(g: GeneratorParams, y_seq, p_sample: float,
                              rng: np.random.Generator, *,
                              include_outputs: bool = False) -> UnrollResult:
    """Per step, feed the model's own sample with probability p_sample.

    Targets are always the ground truth and samples are drawn at
    temperature 1.  The Bernoulli draw is skipped at the degenerate
    settings, so p_sample = 0 consumes no randomness and reproduces the
    teacher-forced unroll exactly, while p_sample = 1 draws precisely
    like the free-running unroll.
    """
    if not 0.0 <= p_sample <= 1.0:
        raise ValueError(f"p_sample {p_sample} outside [0, 1]")
    ids = _target_ids(g, y_seq)
    return _unroll(g, ids, ids.shape[1], ids.shape[0], p_sample, rng, 1.0, include_outputs)


# ---------------------------------------------------------------------------
# discriminator and losses


def discriminate(d: DiscriminatorParams, seq: Tensor) -> Tensor:
    """Probability per sequence that the behavior is teacher forced.

    ``seq`` is a time-major ``[T, B, width]`` behavior tensor.  BiGRU
    encoding, a shared per-step MLP score, mean pooling over time, a
    clamp of the pooled logit to [-10, 10], then a sigmoid.
    """
    t_len, batch, width = seq.shape
    if width != d.feature_width:
        raise ValueError(f"behavior width {width} does not match "
                         f"discriminator input {d.feature_width}")
    states = bigru_encode(d.encoder, seq)                              # [T, B, 2H]
    scores = mlp_forward(d.classifier, reshape(states, (t_len * batch, states.shape[-1])))
    per_step = reshape(scores, (t_len, batch))
    pooled = mean_axis0(per_step)                    # [B]
    return sigmoid(clip(pooled, -LOGIT_CLIP, LOGIT_CLIP))


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


def _mean_neg_log(x):
    if isinstance(x, Tensor):
        return scale(sum_all(log(x)), -1.0 / x.size)
    a = np.asarray(x, dtype=np.float64)
    return float(-np.sum(np.log(a)) / a.size)


def _mean_neg_log_one_minus(x):
    if isinstance(x, Tensor):
        return scale(sum_all(log(one_minus(x))), -1.0 / x.size)
    a = np.asarray(x, dtype=np.float64)
    return float(-np.sum(np.log(1.0 - a)) / a.size)


def loss_fool_free_running(d_fr):
    """mean(-log D(b_fr)): low when free-running behavior reads as teacher forced."""
    return _mean_neg_log(d_fr)


def loss_match_teacher_forced(d_tf):
    """mean(-log(1 - D(b_tf))): the optional generator term on the other mode."""
    return _mean_neg_log_one_minus(d_tf)


def loss_discriminator(d_tf, d_fr):
    """Binary cross entropy with teacher forced labelled 1.

    Built from the same two means as the generator-side terms, so
    swapping their arguments reproduces this loss term for term.
    """
    for name, v in (("d_tf", d_tf), ("d_fr", d_fr)):
        arr = v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)
        if arr.size == 0 or np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise ValueError(f"{name} probabilities must lie strictly inside (0, 1)")
    a = _mean_neg_log(d_tf)
    b = _mean_neg_log_one_minus(d_fr)
    return add(a, b) if isinstance(a, Tensor) else a + b


def accuracy_from_probs(p_tf: np.ndarray, p_fr: np.ndarray) -> float:
    """Fraction correct at threshold 0.5; a tie at exactly 0.5 is incorrect."""
    p_tf = np.asarray(p_tf, dtype=np.float64)
    p_fr = np.asarray(p_fr, dtype=np.float64)
    correct = int((p_tf > 0.5).sum()) + int((p_fr < 0.5).sum())
    return correct / (p_tf.size + p_fr.size)


# ---------------------------------------------------------------------------
# one optimisation step


def train_step(g: GeneratorParams, d: DiscriminatorParams, y_batch,
               settings: EngineSettings, p_sample: float, rng: np.random.Generator,
               g_adam: AdamState, d_adam: AdamState) -> dict:
    """One combined update over a minibatch.

    Order of work:

    1. On the generator tape, unroll both regimes and stack their
       behaviors into one ``[T, 2B, width]`` tensor, teacher-forced rows
       first.
    2. Run the discriminator once, on a detached leaf of that stack, on
       a tape of its own and inside the workspace (through step 3).  Its
       probabilities give the accuracy, the gate, c_d and the
       generator-side c_f (plus c_t with ``use_ct``, which makes the
       generator term c_d with the labels swapped).
    3. Sweep the discriminator tape at most once, for c_d, into its
       parameters and the leaf, if the gate lets it learn or the
       adversarial term reaches the generator.
    4. If the term reaches the generator, add ``sum(stack * leaf_grad)``
       to the generator loss, with ``leaf_grad`` the term's gradient at
       the leaf: the c_d sweep's, scaled per row i by d(adv)/dl_i /
       d(c_d)/dl_i, l_i the row's pooled logit: ``-w (1 - p) / p`` on
       free-running rows, and with ``use_ct`` ``-w p / (1 - p)`` on
       teacher-forced ones (else 0).  This is exact because each row's
       pooled logit depends on that row of the stack alone, and the
       clamp keeps p inside (0, 1); a clamped row's gradient is zero
       under either term.
    5. Sweep the generator tape, then take both Adam steps.  Adam
       mutates weights that the backward closures read, so no update
       runs before every sweep has finished.

    When the adversarial weight is zero and the discriminator is frozen
    the free-running unroll and all discriminator work are skipped
    entirely; the corresponding metrics are reported as nan.  This keeps
    plain teacher forcing and scheduled sampling on the same code path.
    """
    ids = _as_batch_ids(y_batch)
    b, t_len = ids.shape
    run_adv = settings.adversarial_weight != 0.0 or not settings.freeze_discriminator

    nan = float("nan")
    metrics = {"c_d": nan, "c_f": nan, "c_t": nan, "disc_acc": nan,
               "gate_gen": False, "gate_disc": False}
    update_d = False
    d_params = d.tensors()

    with Tape() as gen_tape:
        ss = scheduled_sampling_unroll(g, ids, p_sample, rng,
                                       include_outputs=settings.include_outputs)
        loss = scale(ss.nll, 1.0 / t_len)
        if run_adv:
            fr = unroll_free_running(g, t_len, rng, temperature=settings.temperature,
                                     batch=b, include_outputs=settings.include_outputs)
            stacked = concat((ss.behavior, fr.behavior), axis=1)
            leaf = stacked.detach()
            with workspace():   # the D tape's GRU arrays; it dies with the step
                with Tape() as d_tape:
                    p_tf_t, p_fr_t = split(discriminate(d, leaf), 2)
                    c_d = loss_discriminator(p_tf_t, p_fr_t)
                p_tf, p_fr = p_tf_t.data, p_fr_t.data
                gs = gate(accuracy_from_probs(p_tf, p_fr))
                update_d = not settings.freeze_discriminator and gs.update_discriminator
                adv_on = settings.adversarial_weight != 0.0 and gs.adversarial_to_generator
                if update_d or adv_on:
                    zero_grads(d_params)
                    backward(d_tape, c_d, params=d_params)
            metrics.update(c_d=float(c_d.data),
                           c_f=loss_fool_free_running(p_fr),
                           c_t=loss_match_teacher_forced(p_tf),
                           disc_acc=gs.disc_accuracy,
                           gate_gen=gs.adversarial_to_generator,
                           gate_disc=gs.update_discriminator)
            if adv_on:   # d(adv)/dl_i over d(c_d)/dl_i, row by row
                tf_rows = p_tf / (1.0 - p_tf) if settings.use_ct else np.zeros_like(p_tf)
                rows = np.concatenate((tf_rows, (1.0 - p_fr) / p_fr))
                leaf.grad *= (-settings.adversarial_weight * rows)[:, None]
                loss = add(loss, sum_all(mul(stacked, Tensor(leaf.grad, copy=False))))

    g_params = g.tensors()
    zero_grads(g_params)
    backward(gen_tape, loss, params=g_params)
    adam_step(g_adam, g_params, [p.grad for p in g_params])
    if update_d:
        adam_step(d_adam, d_params, [p.grad for p in d_params])

    nll_per_step = float(ss.nll.data) / t_len
    metrics.update(nll_per_step=nll_per_step, bpc=nll_per_step / math.log(2.0))
    return metrics
