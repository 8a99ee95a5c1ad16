import math

import numpy as np
import pytest


from extra_ops import (
    Tape,
    _record,
    add,
    backward,
    clip,
    concat,
    embed,
    grad_check,
    item,
    log,
    matmul,
    mean_all,
    mean_axis0,
    mul,
    one_minus,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax,
    softmax_cross_entropy,
    softmax_cross_entropy_rows,
    split,
    sub,
    sum_all,
    tanh,
    transpose,
)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent triple-loop product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


# ---------------------------------------------------------------------------
# forward values


class TestMatmul:
    def test_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        out = matmul(a, np.eye(3))
        np.testing.assert_array_equal(out, a)

    def test_small_known_product(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
        np.testing.assert_array_equal(out, [[3.0], [7.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2, 2, (5, 7))
        b = rng.uniform(-2, 2, (7, 3))
        got = matmul(a, b)
        np.testing.assert_allclose(got, matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="2D operands"):
            matmul(np.zeros((2, 3)), np.zeros(3))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_tanh_against_mpmath(self):
        import mpmath
        rng = np.random.default_rng(3)
        xs = rng.uniform(-2, 2, 25)
        sig = sigmoid(xs)
        tah = tanh(xs)
        for x, s, t in zip(xs, sig, tah):
            assert abs(s - float(1 / (1 + mpmath.exp(-mpmath.mpf(x))))) < 1e-12
            assert abs(t - float(mpmath.tanh(mpmath.mpf(x)))) < 1e-12

    def test_sigmoid_extreme_inputs_finite(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_clip_clamps(self):
        assert clip(np.array([37.2]), -10, 10)[0] == 10.0
        assert clip(np.array([-37.2]), -10, 10)[0] == -10.0

    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_log_domain_error(self):
        with pytest.raises(ValueError):
            log(np.array([1.0, 0.0]))

    def test_binary_shape_mismatch(self):
        with pytest.raises(ValueError):
            add(np.zeros(3), np.zeros(4))

    def test_one_minus(self):
        np.testing.assert_array_equal(one_minus(np.array([0.25, 1.0])), [0.75, 0.0])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-5, 5, (6, 9))
        s = softmax(x)
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(6), atol=1e-12)
        assert np.all(s > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-3, 3, 8)
        a = softmax(x)
        b = softmax(x + 123.456)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_large_logits_stable(self):
        s = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.all(np.isfinite(s))
        assert abs(s[0] - 1.0) < 1e-12


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        assert abs(item(softmax_cross_entropy(np.zeros(4), 2))
                   - math.log(4)) < 1e-12
        assert abs(item(softmax_cross_entropy(np.zeros(50), 0))
                   - math.log(50)) < 1e-12

    def test_confident_correct(self):
        loss = item(softmax_cross_entropy(np.array([10.0, -10.0]), 0))
        assert loss < 1e-8

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(3), 3)

    def test_rows_match_1d(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-2, 2, (4, 5))
        t = rng.integers(0, 5, 4)
        rows = softmax_cross_entropy_rows(x, t)
        singles = [item(softmax_cross_entropy(x[i], int(t[i]))) for i in range(4)]
        np.testing.assert_allclose(rows, singles, atol=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-2, 2, 6)
        with Tape() as tape:
            loss = softmax_cross_entropy(x, 4)
        (grad,) = backward(tape, loss, [x])
        expected = np.exp(x - x.max()) / np.exp(x - x.max()).sum()
        expected[4] -= 1
        np.testing.assert_allclose(grad, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# backward


class TestBackward:
    def test_square_at_three(self):
        x = np.array([3.0])
        with Tape() as tape:
            y = sum_all(mul(x, x))
        assert backward(tape, y, [x])[0][0] == 6.0

    def test_chain_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        w = rng.uniform(-1, 1, (4, 3))
        x = rng.uniform(-1, 1, (3, 1))
        with Tape() as tape:
            loss = sum_all(sigmoid(matmul(w, x)))
        (grad,) = backward(tape, loss, [w])

        def f():
            return float(sum_all(sigmoid(matmul(w, x))))

        num = numerical_gradient(f, w)
        rel = np.abs(grad - num) / np.maximum(np.abs(num), 1e-8)
        assert rel.max() < 1e-6

    def test_unused_param_gets_exact_zero(self):
        used = np.array([2.0])
        unused = np.array([5.0])
        with Tape() as tape:
            loss = sum_all(mul(used, used))
        np.testing.assert_array_equal(backward(tape, loss, [used, unused])[1], [0.0])

    def test_loss_must_be_scalar(self):
        x = np.array([1.0, 2.0])
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ValueError):
            backward(tape, y, [x])

    def test_accumulation_over_shared_input(self):
        x = np.array([1.5])
        with Tape() as tape:
            y = sum_all(add(mul(x, x), mul(x, x)))
        assert backward(tape, y, [x])[0][0] == 6.0

    def test_backward_bit_deterministic(self):
        grads = []
        for _ in range(2):
            rng = np.random.default_rng(22)
            w = rng.uniform(-1, 1, (5, 5))
            x = rng.uniform(-1, 1, (5, 5))
            with Tape() as tape:
                loss = sum_all(tanh(matmul(w, mul(x, x))))
            grads += backward(tape, loss, [w])
        assert np.array_equal(*grads)

    def test_fan_out_and_split_outputs_add_up_exactly(self):
        # h fans out to two consumers and split has two outputs, so the
        # sweep must finish every reader of a gradient before passing it on.
        a, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        with Tape() as tape:
            h = mul(a, b)
            lo, hi = split(reshape(add(h, mul(h, a)), (3, 1)), 3)[::2]
            loss = sum_all(add(lo, scale(hi, 2.0)))
        d_a, d_b = backward(tape, loss, [a, b])
        # d/da = (1, 0, 2) * (b + 2ab), d/db = (1, 0, 2) * (a + a^2), exactly
        np.testing.assert_array_equal(d_a, [12.0, 0.0, 84.0])
        np.testing.assert_array_equal(d_b, [2.0, 0.0, 24.0])

    def test_no_nans_after_passes(self):
        rng = np.random.default_rng(23)
        w = rng.uniform(-2, 2, (6, 6))
        with Tape() as tape:
            loss = mean_all(sigmoid(matmul(w, w)))
        assert np.all(np.isfinite(loss)) and np.all(np.isfinite(backward(tape, loss, [w])))


class TestClipGradient:
    def test_exactly_zero_outside_one_inside(self):
        x = np.array([-11.0, -10.0, -9.999, 0.0, 9.999, 10.0, 11.0])
        with Tape() as tape:
            y = sum_all(clip(x, -10, 10))
        np.testing.assert_array_equal(backward(tape, y, [x])[0],
                                      [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# grad_check over every primitive

GRADCHECK_TOL = 1e-4
EPS = 1e-5


def _rand(rng, shape, lo=-2.0, hi=2.0):
    return rng.uniform(lo, hi, shape)


class TestGradCheckPrimitives:
    """Central differences vs the tape for each differentiable primitive."""

    def test_matmul(self):
        rng = np.random.default_rng(31)
        a, b = _rand(rng, (3, 4)), _rand(rng, (4, 2))
        assert grad_check(lambda p: sum_all(tanh(matmul(p[0], p[1]))), [a, b], EPS) < GRADCHECK_TOL

    def test_transpose(self):
        rng = np.random.default_rng(32)
        a = _rand(rng, (3, 5))
        assert grad_check(lambda p: sum_all(sigmoid(transpose(p[0]))), [a], EPS) < GRADCHECK_TOL

    def test_add_sub_mul(self):
        rng = np.random.default_rng(33)
        a, b = _rand(rng, (4, 3)), _rand(rng, (4, 3))
        assert grad_check(lambda p: sum_all(mul(add(p[0], p[1]), sub(p[0], p[1]))),
                          [a, b], EPS) < GRADCHECK_TOL

    def test_bias_broadcast_add(self):
        rng = np.random.default_rng(34)
        a, b = _rand(rng, (4, 3)), _rand(rng, (3,))
        assert grad_check(lambda p: sum_all(tanh(add(p[0], p[1]))), [a, b], EPS) < GRADCHECK_TOL

    def test_scale_one_minus(self):
        rng = np.random.default_rng(35)
        a = _rand(rng, (6,))
        assert grad_check(lambda p: sum_all(one_minus(scale(p[0], 1.7))), [a], EPS) < GRADCHECK_TOL

    def test_sigmoid_tanh(self):
        rng = np.random.default_rng(36)
        a = _rand(rng, (5, 2))
        assert grad_check(lambda p: sum_all(sigmoid(tanh(p[0]))), [a], EPS) < GRADCHECK_TOL

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(37)
        x = rng.uniform(-2, 2, 20)
        x = x[np.abs(x) > 0.05][:10]
        assert grad_check(lambda p: sum_all(relu(p[0])), [x], EPS) < GRADCHECK_TOL

    def test_log(self):
        rng = np.random.default_rng(38)
        a = _rand(rng, (7,), lo=0.2, hi=2.0)
        assert grad_check(lambda p: sum_all(log(p[0])), [a], EPS) < GRADCHECK_TOL

    def test_clip_away_from_bounds(self):
        rng = np.random.default_rng(39)
        a = _rand(rng, (8,), lo=-1.5, hi=1.5)
        assert grad_check(lambda p: sum_all(clip(p[0], -1.8, 1.8)), [a], EPS) < GRADCHECK_TOL

    def test_softmax(self):
        rng = np.random.default_rng(40)
        a = _rand(rng, (3, 4))
        assert grad_check(lambda p: sum_all(mul(softmax(p[0]), p[0])), [a], EPS) < GRADCHECK_TOL

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(41)
        a = _rand(rng, (5,))
        assert grad_check(lambda p: softmax_cross_entropy(p[0], 2), [a], EPS) < GRADCHECK_TOL

    def test_softmax_cross_entropy_rows(self):
        rng = np.random.default_rng(42)
        a = _rand(rng, (4, 5))
        t = rng.integers(0, 5, 4)
        assert grad_check(lambda p: sum_all(softmax_cross_entropy_rows(p[0], t)),
                          [a], EPS) < GRADCHECK_TOL

    def test_embed(self):
        rng = np.random.default_rng(43)
        table = _rand(rng, (6, 3))
        ids = np.array([0, 5, 2, 5])
        assert grad_check(lambda p: sum_all(tanh(embed(p[0], ids))), [table], EPS) < GRADCHECK_TOL

    def test_concat_reshape(self):
        rng = np.random.default_rng(44)
        a, b = _rand(rng, (2, 3)), _rand(rng, (2, 3))
        assert grad_check(
            lambda p: sum_all(sigmoid(reshape(concat((p[0], p[1]), axis=1), (3, 4)))),
            [a, b], EPS) < GRADCHECK_TOL

    def test_reductions(self):
        rng = np.random.default_rng(45)
        a = _rand(rng, (4, 3))
        assert grad_check(lambda p: sum_all(tanh(mean_axis0(p[0]))), [a], EPS) < GRADCHECK_TOL
        assert grad_check(lambda p: mean_all(mul(p[0], p[0])), [a], EPS) < GRADCHECK_TOL

    def test_linear_function_is_nearly_exact(self):
        rng = np.random.default_rng(46)
        a = _rand(rng, (5,))
        assert grad_check(lambda p: sum_all(scale(p[0], 3.0)), [a], EPS) < 1e-9


class TestTape:
    def test_no_tape_records_nothing(self):
        # y's node went nowhere, so a later sweep through y stops at it
        x, called = np.array([1.0]), []
        y = _record(x * 3.0, (x,), lambda g: called.append(g) or (3.0 * g,))
        with Tape() as tape:
            loss = sum_all(mul(y, y))
        d_x, d_y = backward(tape, loss, [x, y])
        assert called == [] and d_x.tolist() == [0.0] and d_y.tolist() == [6.0]

    def test_nested_tapes_record_independently(self):
        x = np.array([2.0])
        with Tape() as outer:
            mul(x, x)
            with Tape() as inner:
                mul(x, x)
        assert len(outer.nodes) == 1 and len(inner.nodes) == 1
