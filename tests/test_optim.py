import numpy as np
import pytest

from profforce.optim import BETA1, BETA2, EPS, AdamState, adam_step


def adam_oracle(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Reference update sequence applied with scalar math per element."""
    p = p0.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class TestAdam:
    def test_defaults(self):
        st = AdamState.for_params([np.array([1.0])])
        assert st.lr == 1e-4 and BETA1 == 0.9
        assert BETA2 == 0.999 and EPS == 1e-8 and st.t == 0

    def test_zero_gradient_is_noop_but_counts(self):
        p = np.array([2.0, -1.0])
        st = AdamState.for_params([p], lr=0.1)
        before = p.copy()
        adam_step(st, [p], [np.zeros(2)])
        np.testing.assert_array_equal(p, before)
        assert st.t == 1

    def test_first_step_closed_form(self):
        # with m_hat = g and v_hat = g^2 the first move is
        # lr * g / (|g| + eps), i.e. almost exactly lr in magnitude
        p = np.array([0.0])
        st = AdamState.for_params([p], lr=1e-3)
        adam_step(st, [p], [np.array([0.5])])
        expected = -1e-3 * 0.5 / (0.5 + 1e-8)
        assert abs(p[0] - expected) < 1e-18

    def test_ten_steps_match_reference(self):
        rng = np.random.default_rng(55)
        p0 = rng.uniform(-1, 1, (4, 3))
        grads = [rng.uniform(-1, 1, (4, 3)) for _ in range(10)]
        p = p0.copy()
        st = AdamState.for_params([p], lr=0.01)
        for g in grads:
            adam_step(st, [p], [g])
        np.testing.assert_allclose(p, adam_oracle(p0, grads, lr=0.01), atol=1e-12)
        assert st.t == 10

    def test_multiple_params_stay_independent(self):
        rng = np.random.default_rng(56)
        a0, b0 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2)
        ga, gb = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2)
        a, b = a0.copy(), b0.copy()
        st = AdamState.for_params([a, b], lr=0.05)
        for _ in range(3):
            adam_step(st, [a, b], [ga, gb])
        np.testing.assert_allclose(a, adam_oracle(a0, [ga] * 3, lr=0.05), atol=1e-12)
        np.testing.assert_allclose(b, adam_oracle(b0, [gb] * 3, lr=0.05), atol=1e-12)

    def test_descends_a_quadratic(self):
        p = np.array([5.0])
        st = AdamState.for_params([p], lr=0.1)
        for _ in range(400):
            adam_step(st, [p], [2.0 * p])
        assert abs(p[0]) < 0.05

    def test_rejects_misaligned_inputs(self):
        p = np.array([1.0])
        st = AdamState.for_params([p])
        with pytest.raises(ValueError):
            adam_step(st, [p], [np.zeros(1), np.zeros(1)])
        with pytest.raises(ValueError):
            adam_step(st, [p], [np.zeros(2)])
