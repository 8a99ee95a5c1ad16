"""The two-mode training engine.

A generator RNN is unrolled in two regimes over the same minibatch:
teacher forced, where each step reads the ground-truth previous symbol,
and free running, where each step reads the model's own sample.  Both
regimes emit a behavior sequence of per-step features (the GRU
candidate pre-tanh values, optionally with the softmax outputs
appended).  A bidirectional-GRU discriminator scores behavior sequences
as teacher forced vs free running, and its judgement is fed back into
the generator so the free-running dynamics are pulled toward the
teacher-forced ones.

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
rows first, and runs the discriminator on it once; every term above
comes from that one forward (see :func:`train_step`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .nets import (
    BiGruParams,
    GruCellParams,
    MlpParams,
    OutputHeadParams,
    bigru_encode,
    gru_step,
    mlp_forward,
)
from .optim import AdamState, adam_step
from .tensor import (
    Tape,
    Tensor,
    add,
    backward,
    clip,
    concat,
    embed,
    log,
    matmul,
    mean_axis0,
    mul,
    one_minus,
    reshape,
    scale,
    sigmoid,
    softmax,
    softmax_cross_entropy_rows,
    split,
    sum_all,
    transpose,
    zero_grads,
)

__all__ = [
    "Mode",
    "BehaviorSequence",
    "GateState",
    "GeneratorParams",
    "DiscriminatorParams",
    "EngineSettings",
    "UnrollResult",
    "unroll_teacher_forced",
    "unroll_free_running",
    "scheduled_sampling_unroll",
    "extract_behavior",
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


@dataclass
class BehaviorSequence:
    """Per-step feature rows [B, width] describing one unroll regime."""

    steps: list[Tensor]
    mode: Mode
    include_outputs: bool

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a behavior sequence needs at least one step")
        w = self.steps[0].shape[-1]
        if any(s.shape != self.steps[0].shape for s in self.steps):
            raise ValueError("behavior steps must share one shape")
        self._width = w

    @property
    def width(self) -> int:
        return self._width

    @property
    def batch(self) -> int:
        return self.steps[0].shape[0]

    def detach(self) -> "BehaviorSequence":
        """Same values as tape-free leaves, blocking gradients upstream."""
        return BehaviorSequence([s.detach() for s in self.steps],
                                self.mode, self.include_outputs)


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
               layers: int, rng: np.random.Generator, x_dim: int = 0) -> "GeneratorParams":
        if vocab_size < 2 or embed_dim < 1 or hidden < 1 or layers < 1:
            raise ValueError("generator sizes must be positive (vocab at least 2)")
        from .nets import init_params
        emb = init_params("weight", (vocab_size + 1, embed_dim), rng)
        cells = [GruCellParams.create(hidden, embed_dim + x_dim if i == 0 else hidden, rng)
                 for i in range(layers)]
        head = OutputHeadParams.create(vocab_size, hidden, rng)
        return cls(embedding=emb, cells=cells, head=head)

    @property
    def vocab_size(self) -> int:
        return self.head.W_o.shape[0]

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
    logits: list[Tensor]                 # per step [B, V]
    behavior: BehaviorSequence
    hidden: list[Tensor]                 # per step top-layer state [B, H]
    sampled: np.ndarray | None = None    # [B, T] free-running / fed samples
    nll: Tensor | None = None            # scheduled sampling only
    used_sample: np.ndarray | None = None


# ---------------------------------------------------------------------------
# unrolls


def _as_batch_ids(y_seq) -> np.ndarray:
    ids = np.asarray(y_seq, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2 or ids.shape[1] < 1:
        raise ValueError(f"expected [T] or [B, T] symbol ids, got shape {ids.shape}")
    return ids


def _x_step(x_seq, t: int, batch: int) -> Tensor | None:
    if x_seq is None:
        return None
    x = np.asarray(x_seq[t] if isinstance(x_seq, (list, tuple)) else x_seq[:, t], dtype=np.float64)
    if x.ndim == 1:
        x = np.broadcast_to(x, (batch,) + x.shape)
    return Tensor(x)


class _Stepper:
    """One unroll of a generator; holds the output head's transpose."""

    def __init__(self, g: GeneratorParams):
        self.g = g
        self.w_head = transpose(g.head.W_o)

    def zero_states(self, batch: int) -> list[Tensor]:
        return [Tensor(np.zeros((batch, c.hidden_size))) for c in self.g.cells]

    def step(self, states: list[Tensor], prev_ids: np.ndarray,
             x_t: Tensor | None) -> tuple[list[Tensor], Tensor, Tensor]:
        x = embed(self.g.embedding, prev_ids)
        if x_t is not None:
            x = concat((x, x_t), axis=-1)
        new_states = []
        pre = None
        for cell, h in zip(self.g.cells, states):
            h_new, pre = gru_step(cell, h, x)
            new_states.append(h_new)
            x = h_new
        return new_states, pre, x  # x is the top-layer state

    def logits(self, h_top: Tensor) -> Tensor:
        return add(matmul(h_top, self.w_head), self.g.head.b_o)


def sample_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF categorical sampling, one draw per row."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
    u = rng.random(p.shape[0])
    cum = np.cumsum(p, axis=-1)
    idx = (cum < u[:, None]).sum(axis=-1)
    return np.minimum(idx, p.shape[1] - 1)


def _tempered_probs(logits: np.ndarray, temperature: float) -> np.ndarray:
    x = logits * (1.0 / temperature)
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def unroll_teacher_forced(g: GeneratorParams, y_seq, x_seq=None,
                          include_outputs: bool = False) -> UnrollResult:
    """Open-loop unroll: step t reads the true y[t-1] (start token at t=0)."""
    ids = _as_batch_ids(y_seq)
    if ids.min() < 0 or ids.max() >= g.vocab_size:
        raise ValueError("symbol id outside the generator vocabulary")
    b, t_len = ids.shape
    st = _Stepper(g)
    states = st.zero_states(b)
    prev = np.full(b, g.start_id, dtype=np.int64)
    logits, pres, probs, hidden = [], [], [], []
    for t in range(t_len):
        states, pre, h_top = st.step(states, prev, _x_step(x_seq, t, b))
        lg = st.logits(h_top)
        logits.append(lg)
        pres.append(pre)
        hidden.append(h_top)
        if include_outputs:
            probs.append(softmax(lg))
        prev = ids[:, t]
    behavior = extract_behavior(pres, probs if include_outputs else None,
                                include_outputs, Mode.TEACHER_FORCED)
    return UnrollResult(logits=logits, behavior=behavior, hidden=hidden)


def unroll_free_running(g: GeneratorParams, t_len: int, rng: np.random.Generator,
                        x_seq=None, temperature: float = 1.0, batch: int = 1,
                        include_outputs: bool = False) -> UnrollResult:
    """Closed-loop unroll: step t reads the model's own previous sample.

    Sampling draws from softmax(logits / temperature).  Gradients flow
    through the hidden states and logits; the discrete sample is a
    constant.  Ground-truth symbols are never consulted.
    """
    if t_len < 1:
        raise ValueError("unroll length must be positive")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    st = _Stepper(g)
    states = st.zero_states(batch)
    prev = np.full(batch, g.start_id, dtype=np.int64)
    sampled = np.empty((batch, t_len), dtype=np.int64)
    logits, pres, probs, hidden = [], [], [], []
    inv_t = 1.0 / temperature
    for t in range(t_len):
        states, pre, h_top = st.step(states, prev, _x_step(x_seq, t, batch))
        lg = st.logits(h_top)
        logits.append(lg)
        pres.append(pre)
        hidden.append(h_top)
        if include_outputs:
            probs.append(softmax(scale(lg, inv_t)))
        y_t = sample_rows(rng, _tempered_probs(lg.data, temperature))
        sampled[:, t] = y_t
        prev = y_t
    behavior = extract_behavior(pres, probs if include_outputs else None,
                                include_outputs, Mode.FREE_RUNNING)
    return UnrollResult(logits=logits, behavior=behavior, hidden=hidden, sampled=sampled)


def scheduled_sampling_unroll(g: GeneratorParams, y_seq, p_sample: float,
                              rng: np.random.Generator, x_seq=None,
                              include_outputs: bool = False) -> UnrollResult:
    """Per step, feed the model's own sample with probability p_sample.

    Targets are always the ground truth.  The Bernoulli draw is skipped
    at the degenerate settings, so p_sample = 0 consumes no randomness
    and reproduces the teacher-forced unroll exactly, while p_sample = 1
    draws precisely like the free-running unroll.
    """
    if not 0.0 <= p_sample <= 1.0:
        raise ValueError(f"p_sample {p_sample} outside [0, 1]")
    ids = _as_batch_ids(y_seq)
    if ids.min() < 0 or ids.max() >= g.vocab_size:
        raise ValueError("symbol id outside the generator vocabulary")
    b, t_len = ids.shape
    st = _Stepper(g)
    states = st.zero_states(b)
    prev = np.full(b, g.start_id, dtype=np.int64)
    fed = np.empty((b, t_len), dtype=np.int64)
    used = np.zeros((b, t_len), dtype=bool)
    logits, pres, probs, xents = [], [], [], []
    for t in range(t_len):
        fed[:, t] = prev
        states, pre, h_top = st.step(states, prev, _x_step(x_seq, t, b))
        lg = st.logits(h_top)
        logits.append(lg)
        pres.append(pre)
        if include_outputs:
            probs.append(softmax(lg))
        xents.append(softmax_cross_entropy_rows(lg, ids[:, t]))
        if t + 1 < t_len:
            if p_sample <= 0.0:
                prev = ids[:, t]
            elif p_sample >= 1.0:
                prev = sample_rows(rng, _tempered_probs(lg.data, 1.0))
                used[:, t + 1] = True
            else:
                coin = rng.random(b) < p_sample
                if coin.any():
                    y_hat = sample_rows(rng, _tempered_probs(lg.data, 1.0))
                    prev = np.where(coin, y_hat, ids[:, t])
                else:
                    prev = ids[:, t]
                used[:, t + 1] = coin
    nll = scale(sum_all(concat(xents, axis=0)), 1.0 / b)
    behavior = extract_behavior(pres, probs if include_outputs else None,
                                include_outputs, Mode.TEACHER_FORCED)
    return UnrollResult(logits=logits, behavior=behavior, hidden=[],
                        sampled=fed, nll=nll, used_sample=used)


def extract_behavior(pre_tanh_seq: list[Tensor], softmax_seq: list[Tensor] | None,
                     include_outputs: bool, mode: Mode) -> BehaviorSequence:
    """Assemble per-step features: candidate pre-tanh, plus softmax rows if asked."""
    if include_outputs:
        if softmax_seq is None or len(softmax_seq) != len(pre_tanh_seq):
            raise ValueError("softmax outputs missing or misaligned with the states")
        steps = [concat((p, s), axis=-1) for p, s in zip(pre_tanh_seq, softmax_seq)]
    else:
        steps = list(pre_tanh_seq)
    return BehaviorSequence(steps=steps, mode=mode, include_outputs=include_outputs)


# ---------------------------------------------------------------------------
# discriminator and losses


def _as_sequence(b: BehaviorSequence) -> Tensor:
    """The steps of ``b`` as one time-major [T, B, width] tensor."""
    return reshape(concat(b.steps, axis=0), (len(b.steps), b.batch, b.width))


def discriminate(d: DiscriminatorParams, b: BehaviorSequence | Tensor) -> Tensor:
    """Probability per sequence that the behavior is teacher forced.

    ``b`` is a behavior sequence or its time-major ``[T, B, width]``
    tensor.  BiGRU encoding, a shared per-step MLP score, mean pooling
    over time, a clamp of the pooled logit to [-10, 10], then a sigmoid.
    """
    seq = _as_sequence(b) if isinstance(b, BehaviorSequence) else b
    t_len, batch, width = seq.shape
    if width != d.feature_width:
        raise ValueError(f"behavior width {width} does not match "
                         f"discriminator input {d.feature_width}")
    states = bigru_encode(d.encoder, seq)                              # [T, B, 2H]
    scores = mlp_forward(d.classifier, reshape(states, (t_len * batch, states.shape[-1])))
    per_step = reshape(scores, (t_len, batch))
    pooled = mean_axis0(per_step)                    # [B]
    return sigmoid(clip(pooled, -LOGIT_CLIP, LOGIT_CLIP))


def loss_nll(logits_seq: Sequence[Tensor], y_seq) -> Tensor:
    """Total sequence cross entropy, averaged over the batch rows."""
    ids = _as_batch_ids(y_seq)
    if len(logits_seq) != ids.shape[1]:
        raise ValueError(f"{len(logits_seq)} logit steps for {ids.shape[1]} targets")
    b = ids.shape[0]
    xents = []
    for t, lg in enumerate(logits_seq):
        lg2 = lg if lg.data.ndim == 2 else reshape(lg, (1, lg.shape[0]))
        xents.append(softmax_cross_entropy_rows(lg2, ids[:, t]))
    return scale(sum_all(concat(xents, axis=0)), 1.0 / b)


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
    2. Run the discriminator once, on a detached leaf of that stack and
       on a tape of its own.  Its probabilities give the accuracy, the
       gate, c_d and the generator-side c_f (plus c_t with ``use_ct``,
       which makes the generator term c_d with the labels swapped).
    3. If the gate lets the adversarial term reach the generator, sweep
       the discriminator tape for that term, into the leaf, and add
       ``sum(stack * leaf_grad)`` to the generator loss: its gradient
       reaches the generator exactly as if the discriminator had run on
       the generator tape.
    4. If the gate lets the discriminator learn, sweep its tape again,
       for c_d, into the discriminator parameters.  This sweep comes
       second so that those parameters end the step holding the c_d
       gradient their update used.
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
            stacked = concat((_as_sequence(ss.behavior), _as_sequence(fr.behavior)), axis=1)
            leaf = stacked.detach()
            with Tape() as d_tape:
                p_tf_t, p_fr_t = split(discriminate(d, leaf), 2)
                c_d = loss_discriminator(p_tf_t, p_fr_t)
                p_tf, p_fr = p_tf_t.data, p_fr_t.data
                gs = gate(accuracy_from_probs(p_tf, p_fr))
                adv_on = settings.adversarial_weight != 0.0 and gs.adversarial_to_generator
                if adv_on:
                    adv = (loss_discriminator(p_fr_t, p_tf_t) if settings.use_ct
                           else loss_fool_free_running(p_fr_t))
                    adv = scale(adv, settings.adversarial_weight)
            metrics.update(c_d=float(c_d.data),
                           c_f=loss_fool_free_running(p_fr),
                           c_t=loss_match_teacher_forced(p_tf),
                           disc_acc=gs.disc_accuracy,
                           gate_gen=gs.adversarial_to_generator,
                           gate_disc=gs.update_discriminator)

            if adv_on:
                backward(d_tape, adv)
                loss = add(loss, sum_all(mul(stacked, Tensor(leaf.grad, copy=False))))
            update_d = not settings.freeze_discriminator and gs.update_discriminator
            if update_d:
                # The sweep above also added into these grads; resetting the
                # leaf's leaves the array the generator loss holds intact.
                zero_grads(d_params + [leaf])
                backward(d_tape, c_d, params=d_params)

    g_params = g.tensors()
    zero_grads(g_params)
    backward(gen_tape, loss, params=g_params)
    adam_step(g_adam, g_params, [p.grad for p in g_params])
    if update_d:
        adam_step(d_adam, d_params, [p.grad for p in d_params])

    nll_per_step = float(ss.nll.data) / t_len
    metrics.update(nll_per_step=nll_per_step, bpc=nll_per_step / math.log(2.0))
    return metrics
