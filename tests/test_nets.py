import math
import tracemalloc

import numpy as np
import pytest

from profforce.engine import DiscriminatorParams, GeneratorParams
from profforce.nets import (
    GruCellParams,
    _gru_weights,
    _weight_in_out,
    bigru_encode,
    init_params,
    mlp_forward,
)

from extra_ops import (
    Tape,
    add,
    backward,
    concat,
    encode_node,
    grad_check,
    gru_sequence,
    gru_step,
    matmul,
    mlp_node,
    mul,
    relu,
    sum_all,
    tanh,
)


def gru_oracle(cell: GruCellParams, h: np.ndarray, x: np.ndarray):
    """Scalar-loop reference for one GRU update; returns (h_new, pre_tanh).

    Reads the gate-major weights element by element: unit i of gate k
    (z, r, c for k = 0, 1, 2) is column i of W[k], U[k] and b[k].
    """
    H, I = cell.hidden_size, cell.W.shape[1]
    W, U, b = cell.W, cell.U, cell.b
    Z, R, C = 0, 1, 2

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = np.zeros(H)
    r = np.zeros(H)
    for i in range(H):
        az, ar = b[Z, i], b[R, i]
        for j in range(I):
            az += W[Z, j, i] * x[j]
            ar += W[R, j, i] * x[j]
        for j in range(H):
            az += U[Z, j, i] * h[j]
            ar += U[R, j, i] * h[j]
        z[i], r[i] = sig(az), sig(ar)

    rh = r * h
    pre = np.zeros(H)
    h_new = np.zeros(H)
    for i in range(H):
        acc = b[C, i]
        for j in range(I):
            acc += W[C, j, i] * x[j]
        for j in range(H):
            acc += U[C, j, i] * rh[j]
        pre[i] = acc
        h_new[i] = (1.0 - z[i]) * h[i] + z[i] * math.tanh(acc)
    return h_new, pre


@pytest.fixture
def small_cell():
    return GruCellParams.create(hidden=6, input_size=4, rng=np.random.default_rng(100))


class TestGruStep:
    def test_matches_scalar_oracle(self, small_cell):
        rng = np.random.default_rng(101)
        h = rng.uniform(-1, 1, 6)
        x = rng.uniform(-1, 1, 4)
        got_h, got_pre = gru_step(small_cell, h, x)
        exp_h, exp_pre = gru_oracle(small_cell, h, x)
        np.testing.assert_allclose(got_h, exp_h, atol=1e-12)
        np.testing.assert_allclose(got_pre, exp_pre, atol=1e-12)

    def test_zero_state_zero_input_stays_zero(self, small_cell):
        h, pre = gru_step(small_cell, np.zeros(6), np.zeros(4))
        np.testing.assert_array_equal(h, np.zeros(6))
        np.testing.assert_array_equal(pre, np.zeros(6))

    def test_large_negative_update_bias_freezes_state(self, small_cell):
        small_cell.b[0] = -50.0  # b_z
        rng = np.random.default_rng(102)
        h = rng.uniform(-1, 1, 6)
        x = rng.uniform(-1, 1, 4)
        h_new, _ = gru_step(small_cell, h, x)
        np.testing.assert_allclose(h_new, h, atol=1e-12)

    def test_state_stays_in_unit_interval(self, small_cell):
        rng = np.random.default_rng(103)
        h = np.zeros(6)
        for _ in range(50):
            h, _ = gru_step(small_cell, h, rng.uniform(-3, 3, 4))
            assert np.all(np.abs(h) < 1.0)

    def test_batched_rows_match_single(self, small_cell):
        rng = np.random.default_rng(104)
        hb = rng.uniform(-1, 1, (3, 6))
        xb = rng.uniform(-1, 1, (3, 4))
        batch_h, batch_pre = gru_step(small_cell, hb, xb)
        for i in range(3):
            hi, pi = gru_step(small_cell, hb[i], xb[i])
            np.testing.assert_allclose(batch_h[i], hi, atol=1e-12)
            np.testing.assert_allclose(batch_pre[i], pi, atol=1e-12)

    def test_shape_validation(self, small_cell):
        with pytest.raises(ValueError):
            gru_step(small_cell, np.zeros(5), np.zeros(4))
        with pytest.raises(ValueError):
            gru_step(small_cell, np.zeros(6), np.zeros(3))

    def test_five_step_unroll_gradients(self):
        cell = GruCellParams.create(hidden=3, input_size=2, rng=np.random.default_rng(105))
        rng = np.random.default_rng(106)
        xs = [rng.uniform(-1, 1, 2) for _ in range(5)]
        params = [t for _, t in cell.named()]

        def loss(_):
            h = np.zeros(3)
            total = None
            for x in xs:
                h, pre = gru_step(cell, h, x)
                s = sum_all(tanh(pre))
                total = s if total is None else add(total, s)
            return add(total, sum_all(h))

        assert grad_check(loss, params, 1e-5) < 1e-4


class TestGruSequence:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_chained_steps(self, small_cell, reverse, batch):
        xs = np.random.default_rng(107).uniform(-1, 1, (5, batch, 4))
        got = gru_sequence(small_cell, xs, reverse=reverse)
        assert got.shape == (5, batch, 6)
        h = np.zeros((batch, 6))
        for t in (reversed(range(5)) if reverse else range(5)):
            h, _ = gru_step(small_cell, h, xs[t])
            np.testing.assert_allclose(got[t], h, atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 5])
    def test_sequence_and_steps_match_scalar_oracle(self, small_cell, reverse, batch, t_len):
        small_cell.b[:] = np.random.default_rng(108).uniform(-1, 1, (3, 6))
        xs = np.random.default_rng(109).uniform(-1, 1, (t_len, batch, 4))
        states = gru_sequence(small_cell, xs, reverse=reverse)
        h_step = np.zeros((batch, 6))
        h_rows = [np.zeros(6) for _ in range(batch)]
        for t in (reversed(range(t_len)) if reverse else range(t_len)):
            h_step, pre_step = gru_step(small_cell, h_step, xs[t])
            for i in range(batch):
                h_rows[i], pre = gru_oracle(small_cell, h_rows[i], xs[t, i])
                np.testing.assert_allclose(states[t, i], h_rows[i], rtol=0, atol=1e-12)
                np.testing.assert_allclose(h_step[i], h_rows[i], rtol=0, atol=1e-12)
                np.testing.assert_allclose(pre_step[i], pre, rtol=0, atol=1e-12)

    def test_second_sweep_gives_same_gradients(self, small_cell):
        # the backward scales its factor arrays in place, so the second
        # sweep is of a tape rebuilt from the same seeds
        grads = []
        for _ in range(2):
            rng = np.random.default_rng(110)
            xs = rng.uniform(-1, 1, (5, 3, 4))
            h0, x1 = rng.uniform(-1, 1, (3, 6)), rng.uniform(-1, 1, (3, 4))
            leaves = [xs, h0, x1] + [t for _, t in small_cell.named()]
            with Tape() as tape:
                h, pre = gru_step(small_cell, h0, x1)
                loss = add(add(sum_all(tanh(gru_sequence(small_cell, xs, reverse=True))),
                               sum_all(tanh(h))), sum_all(tanh(pre)))
            grads.append(backward(tape, loss, leaves))
        for a, b in zip(*grads):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_input_and_bias_gradients_are_fresh(self, small_cell, reverse):
        # fresh arrays in their final shapes, which no other array shares
        xs = np.random.default_rng(111).uniform(-1, 1, (5, 3, 4))
        with Tape() as tape:
            states = gru_sequence(small_cell, xs, reverse=reverse)
        (_, _, back), = tape.nodes
        d_x, d_W, d_U, d_b = back(np.ones(states.shape))
        assert d_x.shape == (5, 3, 4) and d_b.shape == (3, 6)
        assert d_x.base is None and d_b.base is None
        assert d_W.base is None and d_U.base is None

    def test_shape_validation(self, small_cell):
        with pytest.raises(ValueError):
            gru_sequence(small_cell, np.zeros((5, 4)))
        with pytest.raises(ValueError):
            gru_sequence(small_cell, np.zeros((0, 2, 4)))


class TestGruWeights:
    def test_bits_equal_the_scaled_copies(self):
        # each gate scaled on its own made them; U_c is U[2] itself
        p = GruCellParams.create(7, 5, np.random.default_rng(8))
        p.b[:] = np.random.default_rng(9).uniform(-1, 1, p.b.shape)
        p.W[0, 0, :3], p.U[2, 1, -3:], p.b.flat[::5] = -0.0, -0.0, -0.0
        s = (-0.5, 0.5, 1.0)
        expected = (np.stack([p.W[k] * s[k] for k in range(3)]),
                    np.stack([p.b[k] * s[k] for k in range(3)])[:, None],
                    np.stack([p.U[k] * s[k] for k in range(2)]), p.U[2].copy())
        got = _gru_weights(p)
        for got_k, want in zip(got, expected):
            assert got_k.shape == want.shape and got_k.flags.c_contiguous
            assert got_k.tobytes() == want.tobytes()
        assert np.shares_memory(got[3], p.U)

    def test_traced_peak_is_one_copy_of_the_weights(self):
        # scaled W and U_zr, with U_c a view: 5/6 of W + U at I = H (measured 0.836x)
        p = GruCellParams.create(256, 256, np.random.default_rng(10))
        weights = p.W.nbytes + p.U.nbytes
        tracemalloc.start()
        try:
            _gru_weights(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.84 * weights, f"peak {peak / weights:.3f}x the cell's W + U"


class TestInit:
    def test_deterministic_given_seed(self):
        a = GruCellParams.create(5, 3, np.random.default_rng(7))
        b = GruCellParams.create(5, 3, np.random.default_rng(7))
        for (_, ta), (_, tb) in zip(a.named(), b.named()):
            assert np.array_equal(ta, tb)

    def test_gates_stacked_from_per_gate_draws(self):
        # The cell draws [H, I] blocks for z, r, c, then [H, H] blocks, and
        # stores their transposes gate-major, C-ordered.
        cell = GruCellParams.create(5, 3, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        w = [init_params((5, 3), rng) for _ in range(3)]
        u = [init_params((5, 5), rng) for _ in range(3)]
        for k in range(3):
            np.testing.assert_array_equal(cell.W[k], w[k].T)
            np.testing.assert_array_equal(cell.U[k], u[k].T)
        assert cell.W.shape == (3, 3, 5) and cell.U.shape == (3, 5, 5) and cell.b.shape == (3, 5)
        assert all(t.flags.c_contiguous for _, t in cell.named())

    def test_mlp_and_head_store_transposed_draws(self):
        # Each layer draws [out, in] after the cells and stores its
        # transpose [in, out], C-ordered; so does the head after the embedding.
        d = DiscriminatorParams.create(3, 2, np.random.default_rng(11))
        g = GeneratorParams.create(6, 3, 5, 1, np.random.default_rng(12))
        rng = np.random.default_rng(11)
        cells = [GruCellParams.create(2, 3, rng) for _ in "fb"]
        drawn = [init_params(shape, rng) for shape in ((2, 4), (2, 2), (2, 2), (1, 2))]
        for (w, _), want in zip(d.layers, drawn):
            np.testing.assert_array_equal(w, want.T)
        for got, want in zip((d.fwd, d.bwd), cells):
            np.testing.assert_array_equal(got.W, want.W)
        rng = np.random.default_rng(12)
        emb, _ = init_params((7, 3), rng), GruCellParams.create(5, 3, rng)
        np.testing.assert_array_equal(g.embedding, emb)
        np.testing.assert_array_equal(g.W_o, init_params((6, 5), rng).T)
        assert g.W_o.shape == (5, 6)
        assert all(t.flags.c_contiguous for t in d.tensors() + g.tensors())

    def test_biases_exactly_zero(self):
        cell = GruCellParams.create(5, 3, np.random.default_rng(8))
        np.testing.assert_array_equal(cell.b, np.zeros((3, 5)))

    def test_weight_bound_and_mean(self):
        rng = np.random.default_rng(9)
        w = init_params((40, 60), rng)
        bound = math.sqrt(6.0 / (40 + 60))
        assert np.all(np.abs(w) <= bound)
        # mean of n uniforms on [-b, b] has sd b/sqrt(3n)
        n = w.size
        assert abs(w.mean()) < 3 * bound / math.sqrt(3 * n)

    def test_rejects_bad_shape(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            init_params((3, 3, 3), rng)
        with pytest.raises(ValueError):
            init_params((3,), rng)


def mlp_layers(sizes, rng):
    """Glorot layers ``(W [in, out], b [out])``, drawn as the discriminator draws its own."""
    return [(_weight_in_out(rng, n_in, n_out), np.zeros(n_out))
            for n_in, n_out in zip(sizes[:-1], sizes[1:])]


def flat(layers):
    return [t for layer in layers for t in layer]


class TestMlp:
    def test_single_layer_is_affine(self):
        rng = np.random.default_rng(12)
        mlp = mlp_layers([4, 2], rng)
        x = rng.uniform(-1, 1, (5, 4))
        got = mlp_forward(mlp, x)[0]
        w, b = mlp[0]
        np.testing.assert_allclose(got, x @ w + b, atol=1e-12)

    def test_relu_between_but_not_after_last(self):
        neg = -np.eye(2)
        ident = np.eye(2)
        zero = np.zeros(2)
        two_layer = [(neg, zero), (ident, zero)]
        x = np.array([[1.0, 2.0]])
        # first layer gives -x, ReLU kills it, second layer passes zeros on
        np.testing.assert_array_equal(mlp_forward(two_layer, x)[0], [[0.0, 0.0]])
        one_layer = [(neg, zero)]
        # a lone layer stays linear: negative outputs survive
        np.testing.assert_array_equal(mlp_forward(one_layer, x)[0], [[-1.0, -2.0]])

    def test_discriminator_layer_sizes(self):
        d = DiscriminatorParams.create(4, 3, np.random.default_rng(13))
        assert [w.shape for w, _ in d.layers] == [(6, 3), (3, 3), (3, 3), (3, 1)]
        assert [b.shape for _, b in d.layers] == [(3,), (3,), (3,), (1,)]

    def test_gradients(self):
        mlp = mlp_layers([3, 4, 1], np.random.default_rng(15))
        x = np.random.default_rng(16).uniform(-1, 1, (2, 3)) + 0.5
        params = flat(mlp)
        assert grad_check(lambda _: sum_all(tanh(mlp_node(mlp, x))),
                          params, 1e-5) < 1e-4


def composed_mlp(layers, x: np.ndarray) -> np.ndarray:
    """The MLP as a chain of primitive nodes: the reference the fused node
    must match bit for bit."""
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        x = add(matmul(x, w), b)
        if i != last:
            x = relu(x)
    return x


class TestFusedMlp:
    """``mlp_forward``'s output and its closure's gradients carry the bits of
    the composed matmul/add/relu chain."""

    @staticmethod
    def _chain(mlp, x, weights):
        """The chain's output and the gradients of ``sum(out * weights)``."""
        with Tape() as tape:
            out = composed_mlp(mlp, x)
            loss = sum_all(mul(out, weights))
        return out, backward(tape, loss, [x] + flat(mlp))

    def _check(self, mlp, x, weights):
        out, back = mlp_forward(mlp, x)
        # the loss's gradient at the output is ``weights`` itself
        grads = back(weights, True)
        ref_out, ref_grads = self._chain(mlp, x, weights)
        np.testing.assert_array_equal(out, ref_out)
        assert len(grads) == len(ref_grads) == 2 * len(mlp) + 1
        for got, want in zip(grads, ref_grads):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("sizes", [[6, 1], [6, 5, 1], [6, 5, 5, 5, 1], [6, 7, 7, 7, 3]])
    def test_random_weights(self, sizes):
        rng = np.random.default_rng(len(sizes) * 10 + sizes[-1])
        mlp = mlp_layers(sizes, rng)
        for _, b in mlp:
            b[:] = rng.uniform(-0.5, 0.5, b.shape)
        self._check(mlp, rng.uniform(-1, 1, (40, 6)), rng.uniform(-1, 1, (40, sizes[-1])))

    @pytest.mark.parametrize("layers", [1, 2, 4])
    def test_pre_activations_with_exact_zeros(self, layers):
        # Small integers keep every product exact, so many pre-activations
        # are exactly 0 (and some -0.0 is possible); ReLU's gradient there is 0.
        rng = np.random.default_rng(40 + layers)
        sizes = [5] + [4] * (layers - 1) + [2]
        mlp = [(rng.integers(-1, 2, (i, o)).astype(float),
                rng.integers(-1, 2, o).astype(float))
               for i, o in zip(sizes[:-1], sizes[1:])]
        x = rng.integers(-2, 3, (30, 5)).astype(float)
        pre = x @ mlp[0][0] + mlp[0][1]
        assert np.any(pre == 0.0) and np.any(pre > 0.0)
        self._check(mlp, x, rng.uniform(-1, 1, (30, 2)))

    @pytest.mark.parametrize("learns", [True, False])
    def test_forms_what_it_is_told_and_always_the_input(self, learns):
        # the discriminator's MLP runs with its weights' gradients off when
        # only the generator learns; the input's gradient is formed always
        rng = np.random.default_rng(18)
        mlp = mlp_layers([6, 5, 5, 2], rng)
        for _, b in mlp:
            b[:] = rng.uniform(-0.5, 0.5, b.shape)
        x, weights = rng.uniform(-1, 1, (20, 6)), rng.uniform(-1, 1, (20, 2))
        out, back = mlp_forward(mlp, x)
        grads = back(weights, learns)
        ref_out, ref_grads = self._chain(mlp, x, weights)
        np.testing.assert_array_equal(out, ref_out)
        assert [g is not None for g in grads] == [True] + [learns] * 6
        for got, want in zip(grads, ref_grads):
            if got is not None:
                np.testing.assert_array_equal(got, want)


def bigru_cells(input_size, hidden, seed):
    rng = np.random.default_rng(seed)
    return [GruCellParams.create(hidden, input_size, rng) for _ in "fb"]


class TestBiGru:
    def test_matches_two_pass_oracle(self):
        enc = bigru_cells(input_size=3, hidden=4, seed=17)
        rng = np.random.default_rng(18)
        seq_np = [rng.uniform(-1, 1, 3) for _ in range(3)]
        got = bigru_encode(*enc, np.stack(seq_np)[:, None, :])[0]

        h = np.zeros(4)
        fwd = []
        for v in seq_np:
            h, _ = gru_oracle(enc[0], h, v)
            fwd.append(h)
        h = np.zeros(4)
        bwd = []
        for v in reversed(seq_np):
            h, _ = gru_oracle(enc[1], h, v)
            bwd.append(h)
        bwd.reverse()

        assert got.shape == (3, 1, 8)
        for t in range(3):
            np.testing.assert_allclose(got[t, 0, :4], fwd[t], atol=1e-12)
            np.testing.assert_allclose(got[t, 0, 4:], bwd[t], atol=1e-12)

    def test_every_step_sees_whole_sequence(self):
        enc = bigru_cells(input_size=2, hidden=3, seed=19)
        rng = np.random.default_rng(20)
        seq = rng.uniform(-1, 1, (4, 1, 2))
        base = bigru_encode(*enc, seq)[0]
        bumped = seq.copy()
        bumped[-1] += 0.5
        moved = bigru_encode(*enc, bumped)[0]
        # the first output must feel a change at the last input
        assert np.max(np.abs(base[0] - moved[0])) > 1e-9

    def test_batched_input(self):
        enc = bigru_cells(input_size=2, hidden=3, seed=21)
        rng = np.random.default_rng(22)
        out, _ = bigru_encode(*enc, rng.uniform(-1, 1, (4, 5, 2)))
        assert out.shape == (4, 5, 6)

    def test_gradients_of_both_cells_and_the_input(self):
        enc = bigru_cells(input_size=2, hidden=3, seed=24)
        rng = np.random.default_rng(25)
        seq, weights = rng.uniform(-1, 1, (4, 2, 2)), rng.uniform(-1, 1, (4, 2, 6))
        params = [seq] + [t for cell in enc for _, t in cell.named()]
        assert grad_check(lambda p: sum_all(mul(tanh(encode_node(*enc, p[0])), weights)),
                          params, 1e-5) < 1e-4

    @pytest.mark.parametrize("reads_seq, learns", [(True, True), (True, False), (False, True)])
    def test_matches_two_sequence_nodes_and_their_concat(self, reads_seq, learns):
        # the closure against the chain it replaced, bit for bit, for what it is told to form
        enc = bigru_cells(input_size=3, hidden=4, seed=26)
        rng = np.random.default_rng(27)
        seq, weights = rng.uniform(-1, 1, (5, 3, 3)), rng.uniform(-1, 1, (5, 3, 8))
        out, back = bigru_encode(*enc, seq)
        grads = back(weights, reads_seq, learns)   # the gradient of sum(out * weights) at out

        with Tape() as tape:
            ref = concat((gru_sequence(enc[0], seq), gru_sequence(enc[1], seq, reverse=True)),
                         axis=-1)
            loss = sum_all(mul(ref, weights))
        ref_grads = backward(tape, loss, [seq] + [t for cell in enc for _, t in cell.named()])
        np.testing.assert_array_equal(out, ref)
        assert [g is not None for g in grads] == [reads_seq] + [learns] * 6
        for got, want in zip(grads, ref_grads):
            if got is not None:
                np.testing.assert_array_equal(got, want)
