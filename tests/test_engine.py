import inspect
import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import profforce
from profforce import engine, nets
from profforce.config import TrainConfig, build_config
from profforce.engine import (
    DiscriminatorParams,
    GeneratorParams,
    accuracy_from_probs,
    discriminate,
    gate,
    train_step,
    unroll_free_running,
    unroll_teacher_forced,
)
from profforce.nets import mlp_forward
from profforce.optim import AdamState, adam_step
from profforce.trainer import Trainer

from extra_ops import (
    Tape,
    _mean_neg_log,
    add,
    backward,
    clip,
    concat,
    discriminate_node,
    embed,
    free_running_node,
    grad_check,
    gru_sequence,
    gru_step,
    gumbel_rows,
    item,
    log,
    loss_discriminator,
    loss_fool_free_running,
    loss_match_teacher_forced,
    loss_nll,
    matmul,
    mean_axis0,
    mlp_node,
    mul,
    one_minus,
    reshape,
    scale,
    sigmoid,
    softmax,
    softmax_cross_entropy_rows,
    split,
    sum_all,
    teacher_forced_node,
    unroll_node,
)
from test_acceptance import TINY_PF
from test_nets import gru_oracle


def tiny_generator(seed=200, vocab=4, embed=3, hidden=5, layers=1):
    return GeneratorParams.create(vocab, embed, hidden, layers,
                                  np.random.default_rng(seed))


def tiny_discriminator(width, seed=201, hidden=4):
    return DiscriminatorParams.create(width, hidden, np.random.default_rng(seed))


def softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ss_unroll(g, y, p_sample, rng, include_outputs=False):
    """Scheduled sampling as ``train_step`` runs it, taped, so that every
    output is kept: every row of ``y`` [B, T] fed its targets, or with
    probability ``p_sample`` a draw.  At ``p_sample`` 0 (``rng`` may then be
    None) it is teacher forcing, whose behavior may carry the softmax columns."""
    y = np.atleast_2d(y)
    return engine._unroll(g, y, y.shape[1], y.shape[0], p_sample, rng, 1.0, include_outputs,
                          taped=True)



def zeroed(g: GeneratorParams) -> GeneratorParams:
    for t in g.tensors():
        t[:] = 0.0
    return g


# ---------------------------------------------------------------------------
# unrolls


class TestTeacherForcedUnroll:
    def test_three_step_manual_oracle(self):
        g = tiny_generator()
        y = np.array([[2, 0, 3]])
        res = teacher_forced_node(g, y)

        cell = g.cells[0]
        emb = g.embedding
        h = np.zeros(5)
        prev = g.start_id
        for t in range(3):
            h, pre = gru_oracle(cell, h, emb[prev])
            logits = h @ g.W_o + g.b_o
            np.testing.assert_allclose(res.logits[t, 0], logits, atol=1e-12)
            np.testing.assert_allclose(res.hidden[t, 0], h, atol=1e-12)
            np.testing.assert_allclose(res.behavior[t, 0], pre, atol=1e-12)
            prev = y[0, t]

    def test_zeroed_model_gives_uniform_logits(self):
        g = zeroed(tiny_generator())
        y = np.array([[0, 1, 2, 3, 0]])
        res = teacher_forced_node(g, y)
        np.testing.assert_array_equal(res.logits, np.zeros((5, 1, 4)))
        assert abs(loss_nll(res.logits, y) - 5 * math.log(4)) < 1e-12

    def test_two_layer_stack_chains_states(self):
        g = tiny_generator(seed=202, layers=2)
        y = np.array([[1, 2]])
        res = teacher_forced_node(g, y)

        emb = g.embedding
        h0, h1 = np.zeros(5), np.zeros(5)
        prev = g.start_id
        for t in range(2):
            h0, _ = gru_oracle(g.cells[0], h0, emb[prev])
            h1, pre = gru_oracle(g.cells[1], h1, h0)
            np.testing.assert_allclose(res.hidden[t, 0], h1, atol=1e-12)
            np.testing.assert_allclose(res.behavior[t, 0], pre, atol=1e-12)
            prev = y[0, t]

    def test_closure_takes_the_behavior_gradient_and_gives_every_parameter(self):
        g = tiny_generator()
        y = np.array([[1, 2, 3], [0, 3, 2]])
        assert unroll_teacher_forced(g, y).back is None   # untaped
        res = ss_unroll(g, y, 0.0, None)
        assert list(inspect.signature(res.back).parameters) == ["g_beh"]   # nll at weight 1
        grads = res.back(np.ones(res.behavior.shape))
        assert [a.shape for a in grads] == [t.shape for t in g.tensors()]
        # the logits and top-layer states are arrays no gradient reaches
        assert type(res.logits) is np.ndarray and res.logits.shape == (3, 2, 4)
        assert type(res.hidden) is np.ndarray and res.hidden.shape == (3, 2, 5)
        lean = unroll_teacher_forced(g, y)
        assert lean.logits is lean.behavior is None
        np.testing.assert_array_equal(res.hidden[-1:], lean.hidden)

    def test_behavior_mode_and_width(self):
        g = tiny_generator()
        y = np.array([[0, 1], [2, 3]])
        plain = ss_unroll(g, y, 0.0, None)
        assert plain.behavior.shape == (2, 2, 5)
        rich = ss_unroll(g, y, 0.0, None, include_outputs=True)
        assert rich.behavior.shape == (2, 2, 5 + 4)
        np.testing.assert_allclose(rich.behavior[..., 5:].sum(axis=-1),
                                   np.ones((2, 2)), atol=1e-12)


class TestFreeRunningUnroll:
    def test_same_seed_same_rollout(self):
        g = tiny_generator()
        a = free_running_node(g, 6, np.random.default_rng(30), batch=3)
        b = free_running_node(g, 6, np.random.default_rng(30), batch=3)
        np.testing.assert_array_equal(a.sampled, b.sampled)
        np.testing.assert_array_equal(a.logits, b.logits)
        lean = unroll_free_running(g, 6, np.random.default_rng(30), batch=3)
        np.testing.assert_array_equal(lean.sampled, a.sampled)

    def test_degenerate_head_pins_samples(self):
        g = tiny_generator()
        g.b_o[:] = 0.0
        g.b_o[2] = 50.0
        res = unroll_free_running(g, 5, np.random.default_rng(31), batch=4)
        np.testing.assert_array_equal(res.sampled, np.full((4, 5), 2))

    def test_near_zero_temperature_is_greedy_and_replayable(self):
        g = tiny_generator(seed=204)
        fr = free_running_node(g, 6, np.random.default_rng(32), temperature=1e-9)
        replay = teacher_forced_node(g, fr.sampled)
        for t in range(6):
            np.testing.assert_allclose(replay.logits[t, 0],
                                       fr.logits[t, 0], atol=1e-12)
            assert fr.sampled[0, t] == int(np.argmax(replay.logits[t, 0]))

    def test_first_step_frequencies_near_uniform(self):
        g = zeroed(tiny_generator())
        n = 4000
        res = unroll_free_running(g, 1, np.random.default_rng(33), batch=n)
        counts = np.bincount(res.sampled[:, 0], minlength=4)
        p = 0.25
        sd = math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < 4 * sd)

    def test_behavior_mode_and_outputs(self):
        g = tiny_generator()
        res = free_running_node(g, 4, np.random.default_rng(35), batch=2, include_outputs=True)
        assert res.behavior.shape == (4, 2, 9)
        np.testing.assert_allclose(res.behavior[..., 5:].sum(axis=-1),
                                   np.ones((4, 2)), atol=1e-12)

    def test_advances_rng_by_one_exponential_per_row_symbol_and_step(self):
        g = tiny_generator()
        t_len, b = 5, 3
        rng = np.random.default_rng(53)
        unroll_free_running(g, t_len, rng, batch=b)
        expected = np.random.default_rng(53)
        for _ in range(t_len):
            expected.standard_exponential((b, g.vocab_size))
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_only_free_running_softmax_rows_are_tempered(self):
        g = tiny_generator(seed=205)
        fr = free_running_node(g, 4, np.random.default_rng(54), temperature=0.5, batch=3,
                       include_outputs=True)
        np.testing.assert_allclose(fr.behavior[..., 5:], softmax_rows(fr.logits / 0.5),
                                   rtol=0, atol=1e-12)
        tf = ss_unroll(g, fr.sampled, 0.0, None, include_outputs=True)
        ss = ss_unroll(g, fr.sampled, 0.5, np.random.default_rng(55), include_outputs=True)
        for res in (tf, ss):
            np.testing.assert_allclose(res.behavior[..., 5:], softmax_rows(res.logits),
                                       rtol=0, atol=1e-12)


class TestScheduledSampling:
    def test_p_zero_matches_teacher_forcing_and_spends_no_randomness(self):
        g = tiny_generator()
        y = np.array([[1, 3, 0, 2], [2, 2, 1, 0]])
        rng = np.random.default_rng(36)
        ss = ss_unroll(g, y, 0.0, rng)
        tf = teacher_forced_node(g, y)
        np.testing.assert_array_equal(ss.logits, tf.logits)
        # untouched stream: the next draw equals a fresh generator's first
        assert rng.random() == np.random.default_rng(36).random()

    def test_p_zero_nll_matches_loss_nll(self):
        g = tiny_generator()
        y = np.array([[1, 3, 0, 2], [2, 2, 1, 0]])
        ss = ss_unroll(g, y, 0.0, np.random.default_rng(37))
        assert abs(float(ss.nll) - loss_nll(ss.logits, y) / 4) < 1e-12
        # the teacher-forced unroll carries the same sum, term for term, per step
        assert float(unroll_teacher_forced(g, y).nll) == loss_nll(ss.logits, y) / 4

    def test_p_one_draws_like_free_running(self):
        g = tiny_generator()
        y = np.zeros((3, 5), dtype=np.int64)
        ss = ss_unroll(g, y, 1.0, np.random.default_rng(38))
        fr = free_running_node(g, 5, np.random.default_rng(38), batch=3)
        # fed symbols trail the free-running samples by one step
        np.testing.assert_array_equal(ss.sampled[:, 1:], fr.sampled[:, :-1])
        np.testing.assert_array_equal(ss.logits, fr.logits)

    def test_targets_stay_ground_truth_at_p_one(self):
        g = zeroed(tiny_generator())
        y = np.array([[0, 1, 2, 3]])
        ss = ss_unroll(g, y, 1.0, np.random.default_rng(39))
        # uniform logits: nll is ln V per step no matter what was fed
        assert abs(float(ss.nll) - math.log(4)) < 1e-12

    def test_coin_rate_matches_p(self):
        g = tiny_generator()
        b, t_len = 64, 9
        y = np.random.default_rng(40).integers(0, 4, (b, t_len))
        ss = ss_unroll(g, y, 0.5, np.random.default_rng(41))
        # the per-step oracle draws the unroll's coins and returns them
        *_, sampled, used = per_step_reference(g, y, t_len, b, 0.5, np.random.default_rng(41),
                                               1.0, False)
        np.testing.assert_array_equal(ss.sampled, sampled)
        assert not used[:, 0].any()
        flips = used[:, 1:]
        n = flips.size
        sd = math.sqrt(n * 0.25)
        assert abs(flips.sum() - 0.5 * n) < 4 * sd


def per_step_reference(g, ids, t_len, batch, p_sample, rng, temperature,
                       include_outputs):
    """The unroll as a per-step taped loop of primitive ops.

    ``ids`` None runs free at ``temperature``; otherwise step t+1 is fed
    a temperature-1 draw with probability ``p_sample``.  Mirrors the
    one-node unroll draw for draw, so both consume the same randomness.
    """
    states = [np.zeros((batch, c.hidden_size)) for c in g.cells]
    prev = np.full(batch, g.start_id, dtype=np.int64)
    sampled = np.empty((batch, t_len), dtype=np.int64)
    used = np.zeros((batch, t_len), dtype=bool)
    logits, behavior, hidden, xents = [], [], [], []
    for t in range(t_len):
        if ids is not None:
            sampled[:, t] = prev
        x = embed(g.embedding, prev)
        for i, cell in enumerate(g.cells):
            x, pre = gru_step(cell, states[i], x)
            states[i] = x
        lg = add(matmul(x, g.W_o), g.b_o)
        probs = softmax(scale(lg, 1.0 / temperature))
        logits.append(lg)
        hidden.append(x)
        behavior.append(concat((pre, probs), axis=-1) if include_outputs else pre)
        if ids is None:
            prev = sampled[:, t] = gumbel_rows(rng, lg, temperature)
            continue
        xents.append(softmax_cross_entropy_rows(lg, ids[:, t]))
        prev = ids[:, t]
        if t + 1 < t_len and p_sample > 0.0:
            coin = np.ones(batch, dtype=bool) if p_sample >= 1.0 else rng.random(batch) < p_sample
            if coin.any():
                prev = np.where(coin, gumbel_rows(rng, lg), prev)
            used[:, t + 1] = coin
    nll = None if ids is None else scale(sum_all(concat(xents, axis=0)), 1.0 / batch / t_len)
    return logits, behavior, hidden, nll, sampled, used


class TestUnrollMatchesPerStepOracle:
    """The one-kernel unroll and its closure against the per-step taped
    loop they replaced: identical draws, values to 1e-12 and gradients to
    1e-10.  The unroll emits [T, B, .] arrays, the reference a list of
    [B, .] rows per output."""

    REGIMES = {  # name: (targets, p_sample, temperature)
        "tf": (True, 0.0, 1.0),
        "fr": (False, 1.0, 1.0),
        "fr_t0.7": (False, 1.0, 0.7),
        "ss_p0.5": (True, 0.5, 1.0),
        "ss_p1": (True, 1.0, 1.0),
    }

    def _unroll(self, g, regime, y, rng, include_outputs, taped):
        targets, p, temp = self.REGIMES[regime]
        t_len, batch = y.shape[1], y.shape[0]
        if regime == "tf" and not include_outputs and not taped:
            return unroll_teacher_forced(g, y)
        return engine._unroll(g, y if targets else None, t_len, batch, p if targets else 0.0,
                              rng, temp, include_outputs, taped)

    @staticmethod
    def _seeds(coef, reach, hidden_size, width):
        """The behavior's gradient the unroll's closure takes for the loss of
        :meth:`_loss`: ``coef``'s rows over every behavior column for
        "all", over the softmax columns alone for "logits_only" (None for a
        behavior without them), and None for "nll_only"."""
        if reach == "nll_only" or (reach == "logits_only" and width == hidden_size):
            return None
        c_beh = coef[..., :width].copy()
        if reach == "logits_only":
            c_beh[..., :hidden_size] = 0.0
        return c_beh

    @staticmethod
    def _loss(outs, coef, reach, hidden_size):
        """The reference's loss: ``nll`` (output 3) at weight 1, as the
        unroll's closure takes it, if the unroll has targets, plus a fixed
        random linear combination of the behavior rows (output 1) as
        :meth:`_seeds` gives it.  "logits_only" stands for what the unroll
        differentiates through the logits: ``nll`` and the behavior's
        softmax columns.  A free run's loss with neither is None.  Each
        step's behavior row is left out of it with probability 0.3: it has
        a zero coefficient row in the seed of the unroll's closure, and the
        reference's loss skips it, so that row's gradient is None there."""
        c_beh = TestUnrollMatchesPerStepOracle._seeds(coef, reach, hidden_size,
                                                       outs[1][0].shape[1])
        terms = [] if outs[3] is None else [outs[3]]
        if c_beh is not None:
            terms += [sum_all(mul(row, c)) for row, c in zip(outs[1], c_beh) if c.any()]
        if not terms:
            return None
        loss = terms[0]
        for term in terms[1:]:
            loss = add(loss, term)
        return loss

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("include_outputs", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("reach", ["all", "logits_only", "nll_only"])
    def test_matches_reference(self, regime, layers, include_outputs, batch, reach):
        vocab, hidden_size, t_len = 4, 5, 5
        seed = 300 + 10 * layers + batch
        crng = np.random.default_rng(seed + 1)
        y = crng.integers(0, vocab, (batch, t_len))
        rows = [(crng.random() > 0.3, crng.uniform(-1, 1, (batch, hidden_size + vocab)))
                for _ in range(t_len)]
        rows[-1] = (True, rows[-1][1])   # at least one row of each kind
        coef = np.stack([c if keep else np.zeros_like(c) for keep, c in rows])
        targets, p, temp = self.REGIMES[regime]

        def swept(run):
            g = tiny_generator(seed=seed, vocab=vocab, hidden=hidden_size, layers=layers)
            brng = np.random.default_rng(seed + 3)   # biases start at zero; give them values
            for bias in [c.b for c in g.cells] + [g.b_o]:
                bias[:] = brng.uniform(-0.5, 0.5, bias.shape)
            rng = np.random.default_rng(seed + 2)
            if run == "unroll":
                res = self._unroll(g, regime, y, rng, include_outputs, True)
                outs = (res.logits, res.behavior, res.hidden, res.nll, res.sampled)
                c_beh = self._seeds(coef, reach, hidden_size, res.behavior.shape[-1])
                if c_beh is None and not targets:
                    return outs, None, rng.bit_generator.state
                return outs, res.back(c_beh), rng.bit_generator.state
            with Tape() as tape:
                outs = per_step_reference(g, y if targets else None, t_len, batch, p,
                                          rng, temp, include_outputs)
                loss = self._loss(outs, coef, reach, hidden_size)
            if loss is None:
                return outs, None, rng.bit_generator.state
            return outs, backward(tape, loss, g.tensors()), rng.bit_generator.state

        results = []
        for run in ("unroll", "reference"):
            outs, grads, state = swept(run)
            if grads is not None:
                # the closure runs once: one rebuilt from the same seeds gives the same gradients
                for a, b in zip(grads, swept(run)[1]):
                    np.testing.assert_array_equal(a, b)
            results.append((outs, grads, state))
        (new, new_grads, new_state), (ref, ref_grads, ref_state) = results
        np.testing.assert_array_equal(new[4], ref[4])
        if targets:
            np.testing.assert_allclose(new[3], ref[3], rtol=0, atol=1e-12)
        else:
            assert new[3] is None
        assert new_state == ref_state
        for k in range(3):
            assert len(ref[k]) == t_len
            np.testing.assert_allclose(new[k], np.stack(ref[k]), rtol=0, atol=1e-12)
        if new_grads is None:   # a free run whose loss reaches no behavior column
            assert ref_grads is None and not targets and reach != "all"
            assert reach == "nll_only" or not include_outputs
            return
        assert any(np.any(gr != 0.0) for gr in new_grads)
        for a, b in zip(new_grads, ref_grads):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


def desk_generator(layers, seed):
    """A generator of the sizes the benchmark runs (vocab 8, embedding 16,
    hidden 64) with nonzero biases."""
    g = GeneratorParams.create(8, 16, 64, layers, np.random.default_rng(seed + layers))
    brng = np.random.default_rng(seed + 1)
    for t in [c.b for c in g.cells] + [g.b_o]:
        t[:] = brng.uniform(-1, 1, t.shape)
    return g


class TestTapedMatchesUntaped:
    """A taped unroll keeps every step's cache rows and outputs; an untaped
    one writes them into rows used in turn (two for states), keeps the
    last state alone and, passed ``include_outputs`` False, forms no
    softmax columns.  Both must run the same arithmetic: the same draws,
    ``nll``, last state and rng stream.  Each input below yields its
    ``unroll(rng, taped)`` runs, each with its rng seed."""

    @staticmethod
    def _tiny(regime, layers, include_outputs):
        # the per-step oracle's regimes at its sizes
        g = tiny_generator(seed=321, layers=layers)
        y = np.random.default_rng(320).integers(0, 4, (3, 6))
        yield (lambda rng, taped: TestUnrollMatchesPerStepOracle()._unroll(
            g, regime, y, rng, include_outputs and taped, taped)), 322

    @staticmethod
    def _desk(batch, layers, include_outputs, temperature, targeted):
        # T=50 at the benchmark's sizes; with targets, B teacher-forced and B
        # free rows, as a pf step unrolls them
        g = desk_generator(layers, 330)
        ids = np.random.default_rng(332).integers(0, 8, (batch, 50))
        yield (lambda rng, taped: engine._unroll(
            g, ids if targeted else None, 50, 2 * batch if targeted else batch, 0.0, rng,
            temperature, include_outputs and taped, taped)), 333

    @staticmethod
    def _sample(layers, bias):
        # the sample command's draws, at its temperature 1 / (1 + bias)
        g = desk_generator(layers, 340)
        for seed, count, t_len in itertools.product((1, 7, 123), (1, 8), (1, 2, 50, 1000)):
            yield (lambda rng, taped: (free_running_node if taped else unroll_free_running)(
                g, t_len, rng, temperature=1.0 / (1.0 + bias), batch=count)), seed

    @staticmethod
    def _targeted(layers, include_outputs, p_sample, free_rows):
        g = desk_generator(layers, 340)
        ids = np.random.default_rng(342).integers(0, 8, (8, 50))
        yield (lambda rng, taped: engine._unroll(
            g, ids, 50, 8 + free_rows, p_sample, rng, 0.7, include_outputs and taped,
            taped)), 343

    INPUTS = ([("tiny", *c) for c in itertools.product(
                  sorted(TestUnrollMatchesPerStepOracle.REGIMES), (1, 2), (False, True))]
              + [("desk", *c) for c in itertools.product(
                  (1, 8, 16), (1, 2), (False, True), (1.0, 0.7), (False, True))]
              + [("sample", *c) for c in itertools.product((1, 2), (0.0, 0.5))]
              + [("targeted", *c) for c in itertools.product(
                  (1, 2), (False, True), (0.0, 0.5), (0, 8))])

    @pytest.mark.parametrize("case", INPUTS, ids=lambda c: "-".join(map(str, c)))
    def test_bit_identical(self, case):
        kind, *args = case
        # an input's lambdas read its loop variables: each runs before the next is made
        for unroll, seed in getattr(self, f"_{kind}")(*args):
            runs = []
            for taped in (True, False):
                rng = np.random.default_rng(seed)
                res = unroll(rng, taped)
                assert (res.back is not None) is taped
                runs.append((res, rng.bit_generator.state))
            (full, full_state), (lean, lean_state) = runs
            assert lean_state == full_state
            assert lean.logits is lean.behavior is None
            np.testing.assert_array_equal(lean.hidden, full.hidden[-1:])   # the last state
            np.testing.assert_array_equal(lean.sampled, full.sampled)
            assert lean.nll == full.nll

    def test_validation_nll_is_unchanged(self, tmp_path):
        from profforce.trainer import _VAL_CHUNK
        trainer = Trainer(TrainConfig(**{**TINY_PF, "val_count": 100}), tmp_path)
        seqs = trainer.val_set.sequences
        assert len(seqs) > _VAL_CHUNK
        total = 0.0
        for start in range(0, len(seqs), _VAL_CHUNK):
            chunk = seqs[start:start + _VAL_CHUNK]
            total += float(unroll_teacher_forced(trainer.g, chunk).nll) * len(chunk)
        assert trainer.validate()[0] == total / len(seqs)

    def test_a_taped_unroll_keeps_every_output(self):
        g = tiny_generator()
        res = engine._unroll(g, np.array([[1, 2, 3]]), 3, 1, 0.0, None, 1.0, False, True)
        assert (res.logits.shape, res.behavior.shape, res.hidden.shape) == (
            (3, 1, 4), (3, 1, 5), (3, 1, 5))


def per_step_softmax(x):
    """The softmax of one step's logits, as a per-step loop would take it."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


class TestBufferedDraws:
    """Free-running rows take their exponentials in blocks of steps and draw
    into preallocated buffers; ids, softmax columns and the rng stream must
    be those of one ``gumbel_rows`` call per step on the logits at T."""

    @pytest.mark.parametrize("temperature", [1.0, 0.7, 2.0])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("include_outputs", [False, True])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("targeted", [0, 2], ids=["free", "with_targeted_rows"])
    @pytest.mark.parametrize("taped", [False, True])
    def test_matches_per_step_gumbel_rows(self, temperature, batch, include_outputs, layers,
                                          targeted, taped):
        g = tiny_generator(seed=400 + batch, layers=layers)
        g.b_o[:] = np.random.default_rng(401).uniform(-1, 1, 4)
        t_len, top = 7, g.hidden_size
        ids = np.random.default_rng(402).integers(0, 4, (targeted, t_len))
        # the taped unroll keeps the logits the draws are checked on; an
        # untaped one must draw the same ids from the same stream
        rng = np.random.default_rng(403)
        res = engine._unroll(g, ids if targeted else None, t_len, targeted + batch, 0.0,
                             rng, temperature, include_outputs, True)
        if not taped:
            rng = np.random.default_rng(403)
            plain = engine._unroll(g, ids if targeted else None, t_len, targeted + batch, 0.0,
                                   rng, temperature, False, False)
            np.testing.assert_array_equal(plain.sampled, res.sampled)
            assert plain.nll == res.nll
        ref = np.random.default_rng(403)
        for t in range(t_len):
            lg = res.logits[t]
            np.testing.assert_array_equal(res.sampled[targeted:, t],
                                          gumbel_rows(ref, lg[targeted:], temperature))
            if include_outputs:
                tempered = lg[targeted:] * (1.0 / temperature)
                np.testing.assert_array_equal(res.behavior[t, targeted:, top:],
                                              per_step_softmax(tempered))
                np.testing.assert_array_equal(res.behavior[t, :targeted, top:],
                                              per_step_softmax(lg[:targeted] * 1.0))
        assert rng.bit_generator.state == ref.bit_generator.state
        if targeted:
            np.testing.assert_array_equal(res.sampled[:targeted, 1:], ids[:, :-1])
            tf = ss_unroll(g, ids, 0.0, None, include_outputs)
            assert res.nll == tf.nll
            for ours, alone in zip((res.logits, res.behavior, res.hidden),
                                   (tf.logits, tf.behavior, tf.hidden)):
                np.testing.assert_array_equal(ours[:, :targeted], alone)

    @pytest.mark.parametrize("block", [1, 3, 1000])
    @pytest.mark.parametrize("taped", [True, False])
    @pytest.mark.parametrize("targeted", [0, 8], ids=["free", "with_targeted_rows"])
    def test_noise_block_size_changes_no_draw(self, monkeypatch, block, taped, targeted):
        g = GeneratorParams.create(8, 16, 64, 1, np.random.default_rng(408))
        g.b_o[:] = np.random.default_rng(409).uniform(-1, 1, 8)
        ids = np.random.default_rng(410).integers(0, 8, (targeted, 150))
        runs = []
        for size in (engine._NOISE_BLOCK, block):
            monkeypatch.setattr(engine, "_NOISE_BLOCK", size)
            rng = np.random.default_rng(411)
            res = engine._unroll(g, ids if targeted else None, 150, targeted + 8, 0.0, rng,
                                 0.7, False, taped)
            runs.append((res.sampled, rng.bit_generator.state))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_zero_exponential_wins_without_a_warning(self):
        # An e of 0.0 gives +inf noise: its symbol wins against any logit, the
        # lowest such index on a tie, and numpy's divide-by-zero warning stays in.
        class FixedExponentials:
            def __init__(self, row):
                self.row = np.array(row)

            def standard_exponential(self, shape):
                return np.broadcast_to(self.row, shape).copy()

        g = zeroed(tiny_generator())   # logits are the head's bias at every step
        g.b_o[:] = [0.0, 40.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row, symbol in (([1.0, 1.0, 0.0, 1.0], 2), ([1.0, 0.0, 0.0, 1.0], 1),
                                ([0.0, 1.0, 1.0, 0.0], 0), ([1.0, 1.0, 1.0, 1.0], 1)):
                rng = FixedExponentials(row)
                assert gumbel_rows(rng, g.b_o[None]).tolist() == [symbol]
                for include_outputs in (False, True):
                    res = free_running_node(g, 3, rng, temperature=0.5, batch=2,
                                    include_outputs=include_outputs)
                    np.testing.assert_array_equal(res.sampled, np.full((2, 3), symbol))
                    # scheduled sampling at p=1 feeds back draws by the same rule
                    res = ss_unroll(g, np.zeros((2, 3), dtype=int), 1.0, rng, include_outputs)
                    np.testing.assert_array_equal(res.sampled[:, 1:], np.full((2, 2), symbol))

    @pytest.mark.parametrize("include_outputs", [False, True])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_nll_only_backward_runs_the_targeted_rows_alone(self, monkeypatch, include_outputs,
                                                            layers):
        # A gate-closed step: only nll reaches the 2B-row unroll, and its
        # gradients are those of a B-row teacher-forced unroll, bit for bit.
        b, t_len = 4, 6
        ids = np.random.default_rng(405).integers(0, 4, (b, t_len))
        grads, bptt_rows, bptt = [], [], engine._gru_bptt

        def counting_bptt(cell, x, h_prev, *rest):
            bptt_rows.append(h_prev.shape[1])
            return bptt(cell, x, h_prev, *rest)

        monkeypatch.setattr(engine, "_gru_bptt", counting_bptt)
        for merged in (True, False):
            g = tiny_generator(seed=406, layers=layers)
            res = (engine._unroll(g, ids, t_len, 2 * b, 0.0, np.random.default_rng(407),
                                  0.8, include_outputs, True) if merged
                   else ss_unroll(g, ids, 0.0, None, include_outputs))
            grads.append(res.back(None))
        assert bptt_rows == [b] * (2 * layers)
        for ours, alone in zip(*grads):
            np.testing.assert_array_equal(ours, alone)


class TestUnrollMemory:
    def test_untaped_unroll_keeps_no_step_caches(self):
        # An untaped unroll returns the draws and the last state alone, and
        # at its peak holds less than a quarter of one [T, B, H] array
        # (measured 0.29 MB against 4.1 MB): only the ids grow with T.
        g = GeneratorParams.create(8, 16, 64, 1, np.random.default_rng(56))
        tracemalloc.start()
        try:
            res = unroll_free_running(g, 1000, np.random.default_rng(57), batch=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.logits is res.behavior is None and res.hidden.shape == (1, 8, 64)
        states = 1000 * 8 * 64 * 8   # bytes of one [T, B, H] float64 array
        assert peak < 0.25 * states, f"peak {peak / 1e6:.2f} MB"


class TestSampleMemoryPerSymbol:
    # Bytes an ids-only sample adds per drawn symbol, whatever the hidden
    # size: the draws and ``sampled`` (measured at 15.5-15.7; the noise
    # block is a fixed cost).  May only come down.
    CEILING = 16

    @staticmethod
    def _peak(hidden, t_len):
        g = GeneratorParams.create(8, 16, hidden, 1, np.random.default_rng(350))
        tracemalloc.start()
        try:
            unroll_free_running(g, t_len, np.random.default_rng(351), batch=8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ids_only_sample_grows_with_the_ids_alone(self):
        # The peak grows linearly past about 1000 steps; 4000 more steps of
        # 8 rows give the slope to within the last noise block's size
        per_symbol = {h: (self._peak(h, 5000) - self._peak(h, 1000)) / (4000 * 8)
                      for h in (64, 256)}
        assert max(per_symbol.values()) <= self.CEILING, per_symbol
        assert abs(per_symbol[64] - per_symbol[256]) <= 1.0, per_symbol


# ---------------------------------------------------------------------------
# behaviors and the discriminator


class TestDiscriminate:
    def _behavior(self, rng, t_len=4, batch=4, width=5):
        return rng.uniform(-1, 1, (t_len, batch, width))

    def test_zero_final_layer_means_exactly_half(self):
        d = tiny_discriminator(width=5)
        w, bias = d.layers[-1]
        w[:] = 0.0
        bias[:] = 0.0
        p, c_d, _ = discriminate(d, self._behavior(np.random.default_rng(43)))
        np.testing.assert_array_equal(p, np.full(4, 0.5))
        assert abs(float(c_d) - 2 * math.log(2)) < 1e-12   # c_d at chance

    def test_pooled_logit_is_clamped_before_sigmoid(self):
        d = tiny_discriminator(width=5)
        for w, bias in d.layers:
            w[:] = 0.0
            bias[:] = 0.0
        d.layers[-1][1][:] = 42.0
        p = discriminate(d, self._behavior(np.random.default_rng(44)))[0]
        np.testing.assert_allclose(p, np.full(4, 1 / (1 + math.exp(-10.0))),
                                   atol=1e-15)

    def test_matches_per_step_scoring_route(self):
        from profforce.nets import bigru_encode
        d = tiny_discriminator(width=5)
        b = self._behavior(np.random.default_rng(45))
        got = discriminate(d, b)[0]

        states, _ = bigru_encode(d.fwd, d.bwd, b)
        scores = np.stack([mlp_forward(d.layers, s)[0][:, 0] for s in states])
        pooled = np.clip(scores.mean(axis=0), -10.0, 10.0)
        expected = 1.0 / (1.0 + np.exp(-pooled))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_output_depends_on_time_order(self):
        d = tiny_discriminator(width=5)
        b = self._behavior(np.random.default_rng(47))
        fwd = discriminate(d, b)[0]
        rev = discriminate(d, b[::-1])[0]
        assert np.max(np.abs(rev - fwd)) > 1e-9

    def test_two_closures_made_before_either_runs_both_agree(self):
        d = tiny_discriminator(5, seed=102)
        rng = np.random.default_rng(103)
        xs = [rng.uniform(-1, 1, (6, 4, 5)) for _ in range(2)]

        def run(probs, c_d, back):
            d_stack, grads = back(True, True)
            return [d_stack] + grads

        built = [discriminate(d, x) for x in xs]   # both before either runs
        for made, x in zip(built, xs):
            for a, b in zip(run(*made), run(*discriminate(d, x))):
                np.testing.assert_array_equal(a, b)


def chained_discriminate(d, seq):
    """``discriminate`` as the chain of generic nodes it replaced."""
    t_len, batch, _ = seq.shape
    states = concat((gru_sequence(d.fwd, seq), gru_sequence(d.bwd, seq, reverse=True)), axis=-1)
    scores = mlp_node(d.layers, reshape(states, (t_len * batch, states.shape[-1])))
    pooled = mean_axis0(reshape(scores, (t_len, batch)))
    return sigmoid(clip(pooled, -engine.LOGIT_CLIP, engine.LOGIT_CLIP))


def chained_mean_neg_log(x, of_one_minus=False):
    """A loss term as the chain of generic nodes it replaced."""
    return scale(sum_all(log(one_minus(x) if of_one_minus else x)), -1.0 / x.size)


def chained_c_d(tf, fr):
    return add(chained_mean_neg_log(tf), chained_mean_neg_log(fr, True))


class TestFusedDiscriminatorPass:
    """The discriminator's c_d and its closure against the chain of generic
    nodes they replaced: c_d and every gradient of it the closure forms
    carry the chain's bits."""

    @staticmethod
    def _setup():
        d = tiny_discriminator(5, seed=210)
        leaf = np.random.default_rng(211).uniform(-1, 1, (6, 8, 5))
        p = discriminate(d, leaf)[0]   # push the rows above the median past the clamp
        pooled = np.log(p / (1.0 - p))
        d.layers[-1][1][...] += engine.LOGIT_CLIP - np.median(pooled)
        return d, leaf

    @pytest.mark.parametrize("learns, reads_seq", [(True, True), (True, False), (False, True)],
                             ids=["both", "params", "leaf"])
    def test_matches_the_chain(self, learns, reads_seq):
        d, leaf = self._setup()
        probs, loss, d_back = discriminate(d, leaf)
        d_leaf, grads = d_back(learns, reads_seq)

        d, leaf = self._setup()
        with Tape() as tape:
            ref_probs = chained_discriminate(d, leaf)
            ref_loss = chained_c_d(*split(ref_probs, 2))
        ref_grads = backward(tape, ref_loss, [leaf] + d.tensors())

        clamped = probs == 0.5 * (1.0 + np.tanh(0.5 * engine.LOGIT_CLIP))
        assert 0 < clamped.sum() < clamped.size   # the clamp's mask is exercised
        np.testing.assert_array_equal(probs, ref_probs)
        assert loss.shape == () and loss.tobytes() == ref_loss.tobytes()
        assert (d_leaf is not None) == reads_seq
        assert [g is not None for g in grads] == [learns] * len(d.tensors())
        for got, want in zip([d_leaf] + grads, ref_grads):
            if got is not None:
                np.testing.assert_array_equal(got, want)


class TestAdversarialRowScale:
    """The generator's side of the discriminator's closure: the stack's
    gradient of c_d, scaled row by row as ``train_step`` scales it, is the
    gradient of ``w * (c_f [+ c_t])`` at the stack, clamped rows included.
    ``TestOnePassStep`` reads this gradient only through Adam's first step,
    which divides each gradient by its own scale; this reads it directly."""

    @staticmethod
    def _step(monkeypatch, cfg, clipped):
        """The behavior stack of one gate-open pf step and the gradient the
        step hands the unroll's closure for it, with ``d`` as the step read it."""
        monkeypatch.setattr(engine, "ADVERSARIAL_GATE", -1.0)
        monkeypatch.setattr(engine, "adam_step", lambda *a: None)   # weights stay put
        seen, unroll = [], engine._unroll

        def recording(*a, **kw):
            res = unroll(*a, **kw)
            back = res.back

            def kept(g_beh):
                seen.append((res.behavior.copy(), g_beh.copy()))
                return back(g_beh)

            res.back = kept
            return res

        monkeypatch.setattr(engine, "_unroll", recording)
        g, d, y, ga, da = build_step_fixture(seed=216)
        train_step(g, d, y, cfg, 0.0, np.random.default_rng(217), ga, da)
        if clipped:   # push the rows above the median past the clamp, then step again
            p = discriminate(d, seen.pop()[0])[0]
            pooled = np.log(p / (1.0 - p))
            d.layers[-1][1][...] += engine.LOGIT_CLIP - np.median(pooled)
            m = train_step(g, d, y, cfg, 0.0, np.random.default_rng(217), ga, da)
            assert m["gate_gen"]
        [(stack, g_beh)] = seen
        return d, stack, g_beh

    @pytest.mark.parametrize("weight", [0.7, 2.5])
    @pytest.mark.parametrize("use_ct", [False, True], ids=["c_f", "c_f_and_c_t"])
    @pytest.mark.parametrize("clipped", [False, True], ids=["unclipped", "clipped_rows"])
    def test_matches_the_chain(self, monkeypatch, weight, use_ct, clipped):
        cfg = TrainConfig(adversarial_weight=weight, use_ct=use_ct,
                          include_outputs_in_behavior=False)
        d, stack, got = self._step(monkeypatch, cfg, clipped)

        with Tape() as tape:
            p_tf, p_fr = split(chained_discriminate(d, stack), 2)
            adv = chained_mean_neg_log(p_fr)
            if use_ct:
                adv = add(adv, chained_mean_neg_log(p_tf, True))
            loss = scale(adv, weight)
        [want] = backward(tape, loss, [stack])

        probs = discriminate(d, stack)[0]
        clamped = probs == 0.5 * (1.0 + np.tanh(0.5 * engine.LOGIT_CLIP))
        if clipped:   # a clamped row's gradient is zero under either term
            assert 0 < clamped.sum() < clamped.size
            assert not np.any(got[:, clamped]) and not np.any(want[:, clamped])
        else:
            assert not clamped.any()
        if not use_ct:   # c_f alone reaches no teacher-forced row
            assert not np.any(got[:, :stack.shape[1] // 2])
        assert np.any(got)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)


class TestPreseededAdversarialGradient:
    """``train_step`` hands the adversarial term to the generator as the
    gradient it passes the unroll's closure for the behavior: every
    generator gradient carries the bits of a recorded ``sum(behavior * w)``
    term added to ``nll``."""

    @pytest.mark.parametrize("include_outputs", [False, True])
    def test_matches_the_recorded_term(self, include_outputs):
        g = tiny_generator(seed=212)
        y = np.random.default_rng(213).integers(0, 4, (3, 5))
        res = engine._unroll(g, y, 5, 6, 0.0, np.random.default_rng(214), 0.8,
                             include_outputs, taped=True)
        w = np.random.default_rng(215).uniform(-1, 1, res.behavior.shape)
        kept = w.copy()
        got = res.back(w)
        np.testing.assert_array_equal(w, kept)   # read, not written

        g = tiny_generator(seed=212)
        with Tape() as tape:
            ref = unroll_node(g, y, 5, 6, 0.0, np.random.default_rng(214), 0.8,
                              include_outputs)
            loss = add(ref.nll, sum_all(mul(ref.behavior, w)))
        want = backward(tape, loss, g.tensors())
        assert len(got) == len(want) == len(g.tensors())
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# losses, accuracy, gates


class TestLosses:
    def test_chance_point_values(self):
        half = np.full(6, 0.5)
        assert abs(item(loss_discriminator(half, half)) - 2 * math.log(2)) < 1e-12
        assert abs(item(loss_fool_free_running(half)) - math.log(2)) < 1e-12
        assert abs(item(loss_match_teacher_forced(half)) - math.log(2)) < 1e-12

    def test_confident_correct_discriminator(self):
        c_d = item(loss_discriminator(np.array([0.9]), np.array([0.1])))
        assert abs(c_d - (-math.log(0.9) - math.log(0.9))) < 1e-12
        assert abs(item(loss_fool_free_running(np.array([0.1]))) + math.log(0.1)) < 1e-12
        assert abs(item(loss_match_teacher_forced(np.array([0.9])))
                   + math.log(0.1)) < 1e-12

    def test_discriminator_loss_is_sum_of_generator_terms_swapped(self):
        rng = np.random.default_rng(48)
        d_tf = rng.uniform(0.05, 0.95, 7)
        d_fr = rng.uniform(0.05, 0.95, 7)
        stack = np.concatenate((d_tf, d_fr))
        lhs = item(loss_discriminator(d_tf, d_fr))
        # the stacked form, discriminate's, runs the same expressions in the same order
        assert item(_mean_neg_log((stack,), (False, True), stacked=True)) == lhs
        rhs = item(loss_fool_free_running(d_tf)) + item(loss_match_teacher_forced(d_fr))
        assert lhs == rhs

    def test_tensor_route_matches_float_route(self, monkeypatch):
        # train_step writes c_d as discriminate gives it, and c_f and c_t as
        # floats from the same probabilities
        kept, discriminate_once = [], engine.discriminate

        def keeping(d, stack):
            probs, c_d, back = discriminate_once(d, stack)
            kept.append((probs.copy(), c_d))
            return probs, c_d, back

        monkeypatch.setattr(engine, "discriminate", keeping)
        g, d, y, ga, da = build_step_fixture(seed=49)
        m = train_step(g, d, y, TrainConfig(), 0.0, np.random.default_rng(49), ga, da)
        [(stack, c_d)] = kept
        p_tf, p_fr = np.split(stack, 2)
        assert float(c_d) == m["c_d"]
        assert abs(item(loss_discriminator(p_tf, p_fr)) - m["c_d"]) < 1e-12
        assert abs(item(loss_fool_free_running(p_fr)) - m["c_f"]) < 1e-12
        assert abs(item(loss_match_teacher_forced(p_tf)) - m["c_t"]) < 1e-12

    # each piece its own array, into the reference forms.  discriminate's
    # c_d checks nothing: its clamp keeps every finite pooled logit's
    # probability inside (0, 1), and a nan one reaches Trainer's divergence check
    @pytest.mark.parametrize("bad", [[1.0], [0.0], [], [1.5], [-0.5], [0.5, math.nan]],
                             ids=["one", "zero", "empty", "above_one", "negative", "nan"])
    def test_rejects_saturated_probabilities(self, bad):
        bad = np.array(bad)
        half = np.array([0.5])
        for loss in (lambda: loss_discriminator(bad, half), lambda: loss_discriminator(half, bad),
                     lambda: loss_fool_free_running(bad), lambda: loss_match_teacher_forced(bad)):
            with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
                loss()

    @pytest.mark.parametrize("n_inputs, flags, stacked", [
        (2, (False,), False), (3, (False, True), False), (1, (False, True), False),
        (2, (False, True), True)])
    def test_mean_neg_log_refuses_inputs_that_do_not_match_its_flags(self, n_inputs, flags,
                                                                    stacked):
        # a mismatch used to drop inputs silently through zip
        xs = tuple(np.full(4, 0.5) for _ in range(n_inputs))
        with pytest.raises(ValueError, match=f"{n_inputs} inputs for the flags"):
            _mean_neg_log(xs, flags, stacked=stacked)

    def test_loss_nll_batch_mean(self):
        g = tiny_generator()
        y = np.array([[1, 0, 2]])
        single = loss_nll(teacher_forced_node(g, y).logits, y)
        pair = np.concatenate([y, y])
        double = loss_nll(teacher_forced_node(g, pair).logits, pair)
        assert abs(single - double) < 1e-12

    def test_loss_nll_length_mismatch(self):
        g = tiny_generator()
        res = teacher_forced_node(g, np.array([[1, 0]]))
        with pytest.raises(ValueError):
            loss_nll(res.logits, np.array([[1, 0, 2]]))


class TestAccuracyAndGate:
    def test_perfect_and_inverted(self):
        assert accuracy_from_probs(np.array([0.9, 0.8]), np.array([0.1, 0.2])) == 1.0
        assert accuracy_from_probs(np.array([0.1, 0.2]), np.array([0.9, 0.8])) == 0.0

    def test_tie_counts_as_incorrect(self):
        assert accuracy_from_probs(np.array([0.5]), np.array([0.5])) == 0.0
        assert accuracy_from_probs(np.array([0.5, 0.9]), np.array([0.5, 0.1])) == 0.5

    def test_gate_thresholds(self):
        assert not gate(0.75).adversarial_to_generator
        assert gate(0.7500001).adversarial_to_generator
        assert gate(0.99).update_discriminator
        assert not gate(0.9900001).update_discriminator
        g = gate(1.0)
        assert g.adversarial_to_generator and not g.update_discriminator


class TestGumbelRows:
    def test_certain_outcomes(self):
        rng = np.random.default_rng(51)
        np.testing.assert_array_equal(
            gumbel_rows(rng, np.array([[-800.0, 0.0, -800.0]] * 4)), np.ones(4))
        np.testing.assert_array_equal(
            gumbel_rows(rng, np.array([[0.0, -800.0]] * 4)), np.zeros(4))

    def test_frequencies(self):
        rng = np.random.default_rng(52)
        probs = np.array([0.2, 0.3, 0.5])
        draws = gumbel_rows(rng, np.tile(np.log(probs), (20000, 1)))
        counts = np.bincount(draws, minlength=3)
        for k, p in enumerate(probs):
            sd = math.sqrt(20000 * p * (1 - p))
            assert abs(counts[k] - 20000 * p) < 4 * sd


class TestDrawFrequencies:
    """The unroll's draws from a fixed head against softmax(logits / T):
    20,000 ids in rows of 8, every symbol's frequency within 4 binomial
    standard deviations of its probability (at most 1.4 percentage points)."""

    BIAS = np.array([0.3, -1.2, 1.0, 0.0])

    def _head(self):
        g = zeroed(tiny_generator())   # the logits are the head's bias at every step
        g.b_o[:] = self.BIAS
        return g

    @staticmethod
    def _check(draws, probs):
        freq = np.bincount(draws.ravel(), minlength=len(probs)) / draws.size
        sd = np.sqrt(probs * (1.0 - probs) / draws.size)
        assert np.all(np.abs(freq - probs) < 4 * sd), (freq, probs)

    @pytest.mark.parametrize("temperature", [0.7, 1.0, 2.0])
    def test_free_running(self, temperature):
        res = unroll_free_running(self._head(), 2500, np.random.default_rng(61),
                                  temperature=temperature, batch=8)
        self._check(res.sampled, softmax_rows(self.BIAS / temperature))

    def test_scheduled_sampling_coins_at_p_one(self):
        # every step but the last feeds the next one a draw at temperature 1
        res = ss_unroll(self._head(), np.zeros((8, 2501), dtype=np.int64), 1.0,
                        np.random.default_rng(62))
        self._check(res.sampled[:, 1:], softmax_rows(self.BIAS))


# ---------------------------------------------------------------------------
# the combined step


def learn_c_d(d, adam, tf_b, fr_b):
    """One Adam step of ``d`` on c_d of the stack of two behaviors, teacher
    forced first, through its own closure; returns the stack's probabilities."""
    probs, _, back = discriminate(d, np.concatenate((tf_b, fr_b), axis=1))
    adam_step(adam, d.tensors(), back(True, False)[1])
    return probs


def build_step_fixture(seed=60, vocab=4, hidden=5, batch=4, t_len=6,
                       g_lr=1e-3, d_lr=1e-3):
    g = GeneratorParams.create(vocab, 3, hidden, 1, np.random.default_rng(seed))
    d = DiscriminatorParams.create(hidden, 4, np.random.default_rng(seed + 1))
    y = np.random.default_rng(seed + 2).integers(0, vocab, (batch, t_len))
    g_adam = AdamState.for_params(g.tensors(), lr=g_lr)
    d_adam = AdamState.for_params(d.tensors(), lr=d_lr)
    return g, d, y, g_adam, d_adam


class TestTrainStep:
    def test_metrics_shape_and_finiteness(self):
        g, d, y, ga, da = build_step_fixture()
        m = train_step(g, d, y, TrainConfig(), 0.0, np.random.default_rng(61), ga, da)
        for key in ("c_d", "c_f", "c_t", "disc_acc", "nll_per_step", "bpc"):
            assert math.isfinite(m[key])
        assert m["bpc"] * math.log(2) == pytest.approx(m["nll_per_step"], abs=1e-12)
        assert isinstance(m["gate_gen"], bool) and isinstance(m["gate_disc"], bool)
        assert ga.t == 1

    def test_deterministic_given_seeds(self):
        runs = []
        for _ in range(2):
            g, d, y, ga, da = build_step_fixture()
            rng = np.random.default_rng(62)
            ms = [train_step(g, d, y, TrainConfig(), 0.1, rng, ga, da)
                  for _ in range(3)]
            runs.append((ms, [t.copy() for t in g.tensors()],
                         [t.copy() for t in d.tensors()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(runs[0][2], runs[1][2]):
            np.testing.assert_array_equal(a, b)

    def test_skip_mode_reports_nan_and_matches_pure_nll(self):
        # adversarial weight 0 with a frozen discriminator must reduce to
        # plain likelihood training, bit for bit, against a run that still
        # evaluates the discriminator but gets a closed gate
        g1, d1, y, ga1, da1 = build_step_fixture(seed=63)
        skip = TrainConfig(adversarial_weight=0.0, freeze_discriminator=True)
        m1 = train_step(g1, d1, y, skip, 0.0, np.random.default_rng(64), ga1, da1)
        assert math.isnan(m1["c_d"]) and math.isnan(m1["disc_acc"])
        assert m1["gate_gen"] is False and m1["gate_disc"] is False

        g2, d2, _, ga2, da2 = build_step_fixture(seed=63)
        full = TrainConfig(adversarial_weight=1.0)
        m2 = train_step(g2, d2, y, full, 0.0, np.random.default_rng(64), ga2, da2)
        assert not m2["gate_gen"], "fresh discriminator should sit near chance"

        assert m1["nll_per_step"] == m2["nll_per_step"]
        for a, b in zip(g1.tensors(), g2.tensors()):
            np.testing.assert_array_equal(a, b)

    def test_skip_mode_leaves_discriminator_untouched(self):
        g, d, y, ga, da = build_step_fixture(seed=65)
        before = [t.copy() for t in d.tensors()]
        skip = TrainConfig(adversarial_weight=0.0, freeze_discriminator=True)
        train_step(g, d, y, skip, 0.0, np.random.default_rng(66), ga, da)
        for a, b in zip(before, d.tensors()):
            np.testing.assert_array_equal(a, b)
        assert da.t == 0

    @pytest.fixture
    def softmax_shapes(self, monkeypatch):
        """The shape of each array ``engine._stable_softmax`` is called on."""
        shapes, softmax_once = [], engine._stable_softmax

        def counting(x):
            shapes.append(x.shape)
            return softmax_once(x)

        monkeypatch.setattr(engine, "_stable_softmax", counting)
        return shapes

    @pytest.mark.parametrize("p_sample", [0.0, 0.5], ids=["tf", "ss"])
    def test_skip_mode_computes_no_behavior_softmax(self, softmax_shapes, p_sample):
        # no discriminator reads the behavior, so include_outputs changes no
        # bit; neither takes a softmax, as ss draws from the logits
        runs = []
        for include_outputs in (False, True):
            g, d, y, ga, da = build_step_fixture(seed=71)
            skip = TrainConfig(adversarial_weight=0.0, freeze_discriminator=True,
                               include_outputs_in_behavior=include_outputs)
            m = train_step(g, d, y, skip, p_sample, np.random.default_rng(72), ga, da)
            runs.append((repr(m), [t.copy() for t in g.tensors() + d.tensors()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)
        assert softmax_shapes == []

    def test_gate_open_desk_step_takes_one_behavior_softmax(self, monkeypatch, tmp_path,
                                                             softmax_shapes):
        # the behavior's softmax columns are formed after the step loop, in
        # one call over every step and row, not one call per step
        monkeypatch.setattr(engine, "ADVERSARIAL_GATE", -1.0)
        cfg = build_config(None, "desk-copy", ["include_outputs_in_behavior=true"], {"seed": 1})
        tr = Trainer(cfg, tmp_path)
        m = train_step(tr.g, tr.d, tr._batch_for_step(0), tr.cfg, 0.0,
                       np.random.default_rng([cfg.seed, 41, 0]), tr.g_adam, tr.d_adam)
        assert m["gate_gen"] and m["gate_disc"]
        assert softmax_shapes == [(cfg.seq_len, 2 * cfg.batch_n, cfg.vocab_size)]

    def test_explicit_freeze_flag_blocks_disc_updates(self):
        g, d, y, ga, da = build_step_fixture(seed=67)
        before = [t.copy() for t in d.tensors()]
        frozen = TrainConfig(adversarial_weight=1.0, freeze_discriminator=True)
        m = train_step(g, d, y, frozen, 0.0, np.random.default_rng(68), ga, da)
        assert math.isfinite(m["c_d"])  # still measured
        for a, b in zip(before, d.tensors()):
            np.testing.assert_array_equal(a, b)
        assert da.t == 0 and ga.t == 1

    def test_near_chance_discriminator_updates_but_generator_gate_closed(self):
        g, d, y, ga, da = build_step_fixture(seed=69)
        before = [t.copy() for t in d.tensors()]
        m = train_step(g, d, y, TrainConfig(), 0.0, np.random.default_rng(70), ga, da)
        assert not m["gate_gen"] and m["gate_disc"]
        assert da.t == 1
        assert any(not np.array_equal(a, b)
                   for a, b in zip(before, d.tensors()))

    def test_saturated_discriminator_freezes_itself(self):
        vocab, hidden, b, t_len = 4, 8, 16, 8
        g = GeneratorParams.create(vocab, 3, hidden, 1, np.random.default_rng(71))
        d = DiscriminatorParams.create(hidden, 8, np.random.default_rng(72))
        y = np.zeros((b, t_len), dtype=np.int64)

        d_params = d.tensors()
        adam = AdamState.for_params(d_params, lr=5e-3)
        rng = np.random.default_rng(73)
        acc = 0.0
        for _ in range(300):
            tf_b = teacher_forced_node(g, y).behavior
            fr_b = free_running_node(g, t_len, rng, batch=b).behavior
            acc = accuracy_from_probs(*np.split(learn_c_d(d, adam, tf_b, fr_b), 2))
        assert acc == 1.0, "pretraining should saturate on this separable setup"

        ga = AdamState.for_params(g.tensors(), lr=1e-6)
        da = AdamState.for_params(d_params, lr=5e-3)
        before = [t.copy() for t in d_params]
        m = train_step(g, d, y, TrainConfig(), 0.0, np.random.default_rng(74), ga, da)
        assert m["disc_acc"] > 0.99
        assert m["gate_gen"] and not m["gate_disc"]
        for a, b_t in zip(before, d_params):
            np.testing.assert_array_equal(a, b_t)
        assert da.t == 0

    def test_ct_term_changes_generator_update_when_gate_open(self):
        def run(use_ct):
            vocab, hidden, b, t_len = 4, 6, 8, 6
            g = GeneratorParams.create(vocab, 3, hidden, 1, np.random.default_rng(75))
            d = DiscriminatorParams.create(hidden, 6, np.random.default_rng(76))
            y = np.zeros((b, t_len), dtype=np.int64)
            dp = d.tensors()
            adam = AdamState.for_params(dp, lr=5e-3)
            rng = np.random.default_rng(77)
            for _ in range(200):
                tf_b = teacher_forced_node(g, y).behavior
                fr_b = free_running_node(g, t_len, rng, batch=b).behavior
                learn_c_d(d, adam, tf_b, fr_b)
            ga = AdamState.for_params(g.tensors(), lr=1e-3)
            da = AdamState.for_params(dp, lr=1e-3)
            settings = TrainConfig(use_ct=use_ct)
            m = train_step(g, d, y, settings, 0.0, np.random.default_rng(78), ga, da)
            assert m["gate_gen"], "discriminator must be strong for this test"
            return [t.copy() for t in g.tensors()]

        base = run(False)
        with_ct = run(True)
        assert any(not np.array_equal(a, b) for a, b in zip(base, with_ct))

    def test_gradient_of_combined_objective(self):
        # nll plus c_d through both players' closures, on one unroll of both
        # regimes, teacher-forced rows first, as a step forms them
        rng = np.random.default_rng(80)
        g = GeneratorParams.create(3, 2, 3, 1, rng)
        d = DiscriminatorParams.create(3, 3, rng)
        y = np.array([[0, 2, 1], [1, 1, 0]])
        params = g.tensors() + d.tensors()

        def f(_):
            res = unroll_node(g, y, 3, 4, 0.0, np.random.default_rng(81), 1.0, False)
            return add(res.nll, discriminate_node(d, res.behavior))

        assert grad_check(f, params, 1e-5) < 1e-4


def two_pass_step(g, d, y, settings, p_sample, rng, g_adam, d_adam):
    """Reference for a step whose generator gate is open.

    The discriminator scores teacher-forced and free-running behavior
    separately: detached for c_d, and again on the generator tape for
    the adversarial term.  It learns unless ``freeze_discriminator``.
    """
    assert p_sample == 0.0
    b, t_len = y.shape
    with Tape() as gen_tape:
        rich = settings.include_outputs_in_behavior
        tf = teacher_forced_node(g, y, include_outputs=rich)
        fr = unroll_node(g, None, t_len, b, 0.0, rng, settings.temperature, rich)
        with Tape() as d_tape:   # a tape of its own: c_d's sweep stops at the behaviors
            c_d = loss_discriminator(chained_discriminate(d, tf.behavior),
                                     chained_discriminate(d, fr.behavior))
        adv = loss_fool_free_running(chained_discriminate(d, fr.behavior))
        if settings.use_ct:
            adv = add(adv, loss_match_teacher_forced(chained_discriminate(d, tf.behavior)))
        loss = add(tf.nll, scale(adv, settings.adversarial_weight))
    g_params, d_params = g.tensors(), d.tensors()
    adam_step(g_adam, g_params, backward(gen_tape, loss, g_params))
    if not settings.freeze_discriminator:
        adam_step(d_adam, d_params, backward(d_tape, c_d, d_params))


class TestOnePassStep:
    @pytest.mark.parametrize("use_ct", [False, True])
    def test_matches_two_pass_reference(self, monkeypatch, use_ct):
        monkeypatch.setattr(engine, "ADVERSARIAL_GATE", -1.0)
        settings = TrainConfig(adversarial_weight=0.7, use_ct=use_ct,
                               include_outputs_in_behavior=True, temperature=0.9)
        vocab, hidden = 4, 5
        params = []
        for step in (train_step, two_pass_step):
            g = GeneratorParams.create(vocab, 3, hidden, 1, np.random.default_rng(90))
            d = DiscriminatorParams.create(hidden + vocab, 4, np.random.default_rng(91))
            y = np.random.default_rng(92).integers(0, vocab, (4, 6))
            ga = AdamState.for_params(g.tensors(), lr=1e-2)
            da = AdamState.for_params(d.tensors(), lr=1e-2)
            before = [t.copy() for t in g.tensors() + d.tensors()]
            m = step(g, d, y, settings, 0.0, np.random.default_rng(93), ga, da)
            after = [t.copy() for t in g.tensors() + d.tensors()]
            assert any(not np.array_equal(a, b) for a, b in zip(before, after))
            params.append(after)
            if m is not None:
                assert m["gate_gen"] and m["gate_disc"]
                assert ga.t == 1 and da.t == 1
        for ours, ref in zip(*params):
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-10)


class TestOnePassStepEdges:
    """The one-pass step against the two-pass reference where the row
    scaling of the behavior gradient c_d's closures give could go wrong."""

    @staticmethod
    def _clip_half_the_rows(g, d, y, settings):
        """Shift the score bias so that the pooled logits of the rows
        above the median pass the clamp at 10 and the others do not."""
        rng = np.random.default_rng(93)   # the step's own draws
        rich = settings.include_outputs_in_behavior
        tf = ss_unroll(g, y, 0.0, None, include_outputs=rich)
        fr = free_running_node(g, y.shape[1], rng, temperature=settings.temperature,
                       batch=y.shape[0], include_outputs=rich)
        p = np.concatenate([discriminate(d, r.behavior)[0] for r in (tf, fr)])
        pooled = np.log(p / (1.0 - p))
        d.layers[-1][1][...] += engine.LOGIT_CLIP - np.median(pooled)
        clipped = pooled - np.median(pooled) > 0
        assert 0 < clipped.sum() < clipped.size

    @pytest.mark.parametrize("case", ["clipped_rows", "weight_2.5", "frozen_d"])
    def test_matches_two_pass_reference(self, monkeypatch, case):
        monkeypatch.setattr(engine, "ADVERSARIAL_GATE", -1.0)
        settings = TrainConfig(adversarial_weight=2.5 if case == "weight_2.5" else 0.7,
                               use_ct=case != "frozen_d",
                               freeze_discriminator=case == "frozen_d")
        vocab, hidden = 4, 5
        params = []
        for step in (train_step, two_pass_step):
            g = GeneratorParams.create(vocab, 3, hidden, 1, np.random.default_rng(94))
            d = DiscriminatorParams.create(hidden, 4, np.random.default_rng(95))
            y = np.random.default_rng(96).integers(0, vocab, (4, 6))
            if case == "clipped_rows":
                self._clip_half_the_rows(g, d, y, settings)
            ga = AdamState.for_params(g.tensors(), lr=1e-2)
            da = AdamState.for_params(d.tensors(), lr=1e-2)
            d_before = [t.copy() for t in d.tensors()]
            m = step(g, d, y, settings, 0.0, np.random.default_rng(93), ga, da)
            params.append([t.copy() for t in g.tensors() + d.tensors()])
            if m is not None:
                assert m["gate_gen"] and m["gate_disc"]
                assert ga.t == 1 and da.t == (0 if case == "frozen_d" else 1)
            if case == "frozen_d":
                for a, b in zip(d_before, d.tensors()):
                    np.testing.assert_array_equal(a, b)
        for ours, ref in zip(*params):
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-10)


class TestStepSweepsWhatItReads:
    """A desk pf step runs the discriminator's closure for what it reads:
    the discriminator's gradients when it updates, the behavior's when the
    adversarial term reaches the generator.  Each one formed has the bits
    the closure gives it when it forms everything."""

    @staticmethod
    def _step(monkeypatch, tmp_path, adversarial_gate, extra=()):
        monkeypatch.setattr(engine, "ADVERSARIAL_GATE", adversarial_gate)
        monkeypatch.setattr(engine, "adam_step", lambda *a: None)   # weights stay put
        cfg = build_config(None, "desk-copy", ["lr=1e-3", "val_every=0", *extra],
                           {"seed": 1, "max_steps": 20})
        discriminate_once = engine.discriminate

        def run(full):
            """One step; with ``full`` its discriminator closure forms everything."""
            tr = Trainer(cfg, tmp_path / f"full{int(full)}")
            formed = []

            def recording(d, stack):
                probs, c_d, back = discriminate_once(d, stack)

                def told(learns, reads_seq):
                    d_stack, grads = back(True, True) if full else back(learns, reads_seq)
                    # as the closure formed them, before train_step scales the behavior's
                    formed.append([None if a is None else a.copy() for a in [d_stack, *grads]])
                    return d_stack, grads

                return probs, c_d, told

            monkeypatch.setattr(engine, "discriminate", recording)
            m = train_step(tr.g, tr.d, tr._batch_for_step(0), tr.cfg, 0.0,
                           np.random.default_rng([cfg.seed, 41, 0]), tr.g_adam, tr.d_adam)
            (grads,) = formed
            return m, grads

        m, grads = run(False)
        # the same step, rebuilt from the same seeds, forming everything
        return m, grads, run(True)[1]

    def test_gate_closed_step_forms_no_leaf_gradient(self, monkeypatch, tmp_path):
        m, (leaf_grad, *d_grads), (_, *full_d_grads) = self._step(monkeypatch, tmp_path, 2.0)
        assert not m["gate_gen"] and m["gate_disc"]
        assert leaf_grad is None
        for got, want in zip(d_grads, full_d_grads):
            np.testing.assert_array_equal(got, want)

    def test_frozen_discriminator_forms_only_the_leaf_gradient(self, monkeypatch, tmp_path):
        m, (leaf_grad, *d_grads), (full_leaf_grad, *_) = self._step(
            monkeypatch, tmp_path, -1.0, ["freeze_discriminator=true"])
        assert m["gate_gen"]
        assert all(g is None for g in d_grads)
        np.testing.assert_array_equal(leaf_grad, full_leaf_grad)


class TestGradientOwnership:
    """The gradients a pf step hands to the unroll's closure and to Adam
    share no memory, so that scaling the behavior's gradient in place
    reaches no other, and a step rebuilt from the same seeds hands over
    the same bits."""

    def test_pf_step_grads_share_no_memory_and_sweep_again_alike(self, monkeypatch):
        monkeypatch.setattr(engine, "ADVERSARIAL_GATE", -1.0)
        handed, unroll = [], engine._unroll
        monkeypatch.setattr(engine, "adam_step",   # weights stay put
                            lambda state, params, grads: handed.append(list(grads)))

        def recording(*a, **kw):
            res = unroll(*a, **kw)
            back = res.back

            def kept(g_beh):
                handed.append([g_beh])   # as scaled for the generator
                return back(g_beh)

            res.back = kept
            return res

        monkeypatch.setattr(engine, "_unroll", recording)

        def step():
            g, d, y, ga, da = build_step_fixture(seed=104)
            cfg = TrainConfig(use_ct=True, include_outputs_in_behavior=False)
            m = train_step(g, d, y, cfg, 0.0, np.random.default_rng(105), ga, da)
            return m, g, d

        m, g, d = step()
        assert m["gate_gen"] and m["gate_disc"]
        assert [len(h) for h in handed] == [1, len(g.tensors()), len(d.tensors())]
        grads = [a for h in handed for a in h]
        for i, a in enumerate(grads):
            assert not any(np.shares_memory(a, b) for b in grads[i + 1:])
        first, handed[:] = [a.copy() for a in grads], []
        step()
        for a, b in zip(first, [a for h in handed for a in h], strict=True):
            np.testing.assert_array_equal(a, b)


class TestDeskStepPageFaults:
    """A desk-copy pf step reuses the memory of the step before instead of
    faulting it in afresh.  The ceiling is minor page faults, which depend
    on the allocator and not on the clock."""

    CEILING = 100   # per step; about 400 when glibc trims the heap and maps large arrays

    def test_desk_pf_step_minor_faults(self, tmp_path):
        pytest.importorskip("resource")
        script = textwrap.dedent("""
            import resource, sys
            import numpy as np
            from profforce.config import build_config
            from profforce.engine import train_step
            from profforce.trainer import Trainer
            cfg = build_config(None, "desk-copy", ["lr=1e-3", "val_every=0"],
                               {"seed": 1, "max_steps": 20})
            tr = Trainer(cfg, sys.argv[1])
            settings = tr.cfg
            for step in range(20):
                if step == 5:   # warm up first
                    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                train_step(tr.g, tr.d, tr._batch_for_step(step), settings, 0.0,
                           np.random.default_rng([cfg.seed, 41, step]), tr.g_adam, tr.d_adam)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 15)
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(profforce.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                             capture_output=True, text=True, check=True)
        per_step = float(out.stdout.split()[-1])
        assert per_step <= self.CEILING, f"{per_step:.0f} minor faults per step"


class TestDiscriminatorCachesFreedBeforeGeneratorBackward:
    """Once a desk pf step has run the discriminator's closures, or decided
    not to, no array its BiGRU or scoring MLP cached is alive when the
    generator's closure starts."""

    @pytest.mark.parametrize("case", ["gate_open", "frozen_gate_closed"])
    def test_no_discriminator_cache_is_alive(self, monkeypatch, tmp_path, case):
        gate, extra = {"gate_open": (-1.0, []),
                       "frozen_gate_closed": (2.0, ["freeze_discriminator=true"])}[case]
        monkeypatch.setattr(engine, "ADVERSARIAL_GATE", gate)
        cfg = build_config(None, "desk-copy", ["lr=1e-3", "val_every=0", *extra],
                           {"seed": 1, "max_steps": 20})
        tr = Trainer(cfg, tmp_path)
        cached, alive, ran = [], [], []
        run, mlp, unroll, discriminate_once = (nets._gru_run, engine.mlp_forward, engine._unroll,
                                               engine.discriminate)

        def caching_run(*a, **kw):
            out = run(*a, **kw)
            cached.extend(weakref.ref(x) for x in out)   # states, zr and c
            return out

        def caching_mlp(*a):
            out, back = mlp(*a)
            cached.append(weakref.ref(out.base))   # the scores, which the closure keeps
            return out, back

        def noting(*a):
            probs, c_d, back = discriminate_once(*a)

            def noted(*args):
                ran.append("discriminator")
                return back(*args)

            return probs, c_d, noted

        def checking(*a, **kw):
            res = unroll(*a, **kw)
            back = res.back

            def checked(g_beh):
                alive.append(sum(r() is not None for r in cached))
                return back(g_beh)

            res.back = checked
            return res

        monkeypatch.setattr(nets, "_gru_run", caching_run)
        monkeypatch.setattr(engine, "mlp_forward", caching_mlp)
        monkeypatch.setattr(engine, "discriminate", noting)
        monkeypatch.setattr(engine, "_unroll", checking)
        m = train_step(tr.g, tr.d, tr._batch_for_step(0), tr.cfg, 0.0,
                       np.random.default_rng([cfg.seed, 41, 0]), tr.g_adam, tr.d_adam)
        assert len(cached) == 7   # two directions' three arrays and the MLP's output
        assert alive == [0]
        if case == "gate_open":
            assert m["gate_gen"] and m["gate_disc"]
            assert ran == ["discriminator"]
        else:   # nothing reads the discriminator's gradients: its closure never runs
            assert not m["gate_gen"]
            assert ran == []


class TestDeskStepPeakMemory:
    """A desk-copy pf step with both gates open holds only what its closures
    still read: the discriminator's closure frees the MLP's and encoder's
    closures, and with them what they captured, as each returns, and the
    step drops the discriminator's before the generator's runs; the
    scoring MLP keeps one input per layer and frees each mask once read,
    and a recursion's backward forms its candidate factor in its cache
    (traced by tracemalloc, which numpy reports to)."""

    # about 1.15x the 8.0 measured; 11.1 while a sweep kept its nodes until the
    # step ended, 12.3 while recursions cached r * h and the discriminator sweep
    # formed every gradient, 21.2 when a sweep kept every gradient
    CEILING_MIB = 9.2

    def test_desk_pf_step_traced_peak(self, monkeypatch, tmp_path):
        monkeypatch.setattr(engine, "ADVERSARIAL_GATE", -1.0)
        cfg = build_config(None, "desk-copy", ["lr=1e-3", "val_every=0"],
                           {"seed": 1, "max_steps": 20})
        tr = Trainer(cfg, tmp_path)
        settings = tr.cfg

        def step(i):
            return train_step(tr.g, tr.d, tr._batch_for_step(i), settings, 0.0,
                              np.random.default_rng([cfg.seed, 41, i]), tr.g_adam, tr.d_adam)

        for i in range(3):   # warm up first
            step(i)
        tracemalloc.start()
        try:
            m = step(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m["gate_gen"] and m["gate_disc"]
        assert peak < self.CEILING_MIB * 2**20, f"{peak / 2**20:.2f} MiB traced"


# the kernels whose closures a gate-open pf step runs, in the order it runs them
PF_CLOSURES = ["discriminate", "mlp_forward", "bigru_encode", "_unroll"]


class TestBackwardClosureCeiling:
    """Backward closures one training step runs, at acceptance check A7's size.

    At desk sizes a step costs Python dispatch per kernel more than
    arithmetic, so these ceilings guard the one-closure generator unroll,
    the one-closure discriminator encoder, scoring MLP and head with its
    loss, and the single stacked discriminator pass, whose closures a pf
    step runs once each, seeding none.  A change that runs fewer lowers
    them; none may raise them.
    """

    # 5 while c_d's closure ran on its own, 22 while the discriminator's
    # pass recorded generic ops
    PF_CEILING = 4
    TF_CEILING = 1    # the unroll's alone: its nll is the loss

    def _one_step(self, monkeypatch, tmp_path, mode):
        ran, rows_scored, unroll_seeds = [], [], []

        def counting(name, kernel):
            def made(*a, **kw):
                out = kernel(*a, **kw)
                if name == "_unroll":
                    back = out.back
                    if back is None:   # validation's untaped unroll
                        return out
                    assert list(inspect.signature(back).parameters) == ["g_beh"]

                    def counted_unroll(g_beh):
                        ran.append(name)
                        unroll_seeds.append(None if g_beh is None else g_beh.ndim)
                        return back(g_beh)

                    out.back = counted_unroll
                    return out
                *values, back = out
                if name == "discriminate":
                    rows_scored.append(a[1].shape[1])
                    assert list(inspect.signature(back).parameters) == ["learns", "reads_seq"]

                def counted(*args):
                    ran.append(name)
                    return back(*args)

                return (*values, counted)
            return made

        for name in PF_CLOSURES:
            monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
        # Open the generator's gate so the pf step does all its discriminator work.
        monkeypatch.setattr(engine, "ADVERSARIAL_GATE", -1.0)
        cfg = TrainConfig(**dict(TINY_PF, max_steps=1, mode=mode))
        row = Trainer(cfg, tmp_path).run()[0]
        return ran, row, rows_scored, unroll_seeds

    def test_professor_forcing_step(self, monkeypatch, tmp_path):
        ran, row, rows_scored, unroll_seeds = self._one_step(monkeypatch, tmp_path,
                                                             "professor_forcing")
        assert row["gate_gen"] and row["gate_disc"]
        assert len(ran) == self.PF_CEILING
        # the discriminator's closures first, from its head and loss down to its encoder
        assert ran == PF_CLOSURES
        # one unroll of both regimes, given its [T, 2B, .] behavior's gradient alone
        assert unroll_seeds == [3]
        # one discriminator pass over both behaviors stacked
        assert rows_scored == [2 * TINY_PF["batch_n"]]

    def test_teacher_forcing_step(self, monkeypatch, tmp_path):
        ran, _, rows_scored, unroll_seeds = self._one_step(monkeypatch, tmp_path,
                                                           "teacher_forcing")
        assert len(ran) == self.TF_CEILING
        assert unroll_seeds == [None]
        assert rows_scored == []
