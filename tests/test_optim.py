import logging
import math

import numpy as np
import pytest

from spatialgrad.optim import (
    OptimizerConfig,
    adaptive_step,
    make_state,
    step,
)
from spatialgrad.tensor import ShapeError


def unrolled_linear_trajectory(w0, grads, scaling, lr_values, momentum, weight_decay):
    """Independent oracle: evaluate the momentum recurrence as the explicit
    double sum  W(T) = W(0) - sum_t lr_t * sum_{tau<=t} mu^(t-tau) (G.g_tau + wd*W_tau),
    using the recorded weight history for the decay terms.
    """
    weights = [np.asarray(w0, dtype=float)]
    for t, g in enumerate(grads):
        total = np.zeros_like(weights[0])
        for tau in range(t + 1):
            term = scaling * grads[tau] + weight_decay * weights[tau]
            total = total + momentum ** (t - tau) * term
        weights.append(weights[t] - lr_values[t] * total)
    return weights


def kernel_param(value=1.0, shape=(1, 1, 1, 1)):
    return np.full(shape, value)


class TestLinearStep:
    def test_sgd_frozen_example(self):
        # W' = 1.0 - 0.1 * (3 * 2) = 0.4
        state = make_state(OptimizerConfig(kind="sgd"), kernel_param())
        w = step(state, kernel_param(1.0), kernel_param(2.0), lr=0.1,
                 scaling=np.array([[3.0]]))
        assert w[0, 0, 0, 0] == pytest.approx(0.4, abs=1e-15)

    def test_identity_scaling_bitwise_equal_to_unscaled(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 2, 3, 3))
        g = rng.normal(size=(3, 2, 3, 3))
        for kind, mu in [("sgd", 0.0), ("sgd_momentum", 0.9)]:
            cfg = OptimizerConfig(kind=kind, momentum=mu, weight_decay=1e-4)
            s1, s2 = make_state(cfg, w), make_state(cfg, w)
            unscaled = step(s1, w, g, lr=0.1)
            scaled = step(s2, w, g, lr=0.1, scaling=np.ones((3, 3)))
            assert np.array_equal(unscaled, scaled)

    def test_two_step_momentum_matches_unrolled_sum(self):
        rng = np.random.default_rng(1)
        w0 = rng.normal(size=(2, 1, 3, 3))
        g = rng.normal(size=(2, 1, 3, 3))
        scaling = rng.uniform(0.5, 2.0, size=(3, 3))
        cfg = OptimizerConfig(kind="sgd_momentum", momentum=0.9, weight_decay=1e-4)
        state = make_state(cfg, w0)
        w = w0.copy()
        for _ in range(2):
            w = step(state, w, g, lr=0.1, scaling=scaling)
        oracle = unrolled_linear_trajectory(w0, [g, g], scaling, [0.1, 0.1], 0.9, 1e-4)
        np.testing.assert_allclose(w, oracle[-1], rtol=1e-14)

    @pytest.mark.parametrize("kind,mu,wd", [("sgd", 0.0, 0.0), ("sgd", 0.0, 1e-4),
                                            ("sgd_momentum", 0.9, 0.0),
                                            ("sgd_momentum", 0.9, 1e-4)])
    def test_trajectory_equals_linear_form_50_steps(self, kind, mu, wd):
        rng = np.random.default_rng(2)
        w0 = rng.normal(size=(2, 2, 3, 3))
        grads = [rng.normal(size=w0.shape) for _ in range(50)]
        scaling = rng.uniform(0.5, 2.0, size=(3, 3))
        lr_values = [0.1 * (1.0 + math.cos(math.pi * t / 50)) / 2.0 for t in range(50)]
        cfg = OptimizerConfig(kind=kind, momentum=mu, weight_decay=wd)
        state = make_state(cfg, w0)
        w = w0.copy()
        for t in range(50):
            w = step(state, w, grads[t], lr=lr_values[t], scaling=scaling)
        oracle = unrolled_linear_trajectory(w0, grads, scaling, lr_values, mu, wd)
        np.testing.assert_allclose(w, oracle[-1], rtol=1e-10, atol=1e-14)

    def test_scaling_commutes_with_prescaled_gradients(self):
        """Passing G to step equals feeding G*g with no scaling, bitwise."""
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 1, 3, 3))
        scaling = rng.uniform(0.5, 2.0, size=(3, 3))
        cfg = OptimizerConfig(kind="sgd_momentum", momentum=0.9, weight_decay=1e-4)
        sa, sb = make_state(cfg, w), make_state(cfg, w)
        wa, wb = w.copy(), w.copy()
        for t in range(10):
            g = rng.normal(size=w.shape)
            wa = step(sa, wa, g, lr=0.05, scaling=scaling)
            wb = step(sb, wb, g * scaling, lr=0.05)
            assert np.array_equal(wa, wb)

    def test_post_position_scales_the_update(self):
        cfg = OptimizerConfig(kind="sgd")
        state = make_state(cfg, kernel_param())
        w = step(state, kernel_param(1.0), kernel_param(2.0), lr=0.1,
                 scaling=np.array([[3.0]]), position="post")
        # same value as pre for plain sgd without decay
        assert w[0, 0, 0, 0] == pytest.approx(0.4, abs=1e-15)

    def test_scaling_validation(self):
        cfg = OptimizerConfig(kind="sgd")
        w = np.ones((1, 1, 3, 3))
        g = np.ones((1, 1, 3, 3))
        with pytest.raises(ShapeError):
            step(make_state(cfg, w), w, g, lr=0.1, scaling=np.ones((2, 2)))
        with pytest.raises(ValueError):
            step(make_state(cfg, w), w, g, lr=0.1, scaling=np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            step(make_state(cfg, w), np.ones((3, 3)), np.ones((3, 3)), lr=0.1,
                 scaling=np.ones((3, 3)))
        with pytest.raises(ValueError):
            step(make_state(cfg, w), w, g, lr=0.1, position="mid")

    @pytest.mark.parametrize("position", ["pre", "post"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_scaling_is_rejected(self, value, position):
        cfg = OptimizerConfig(kind="sgd")
        w = np.ones((1, 1, 3, 3))
        scaling = np.ones((3, 3))
        scaling[0, 0] = value
        state = make_state(cfg, w)
        with pytest.raises(ValueError, match="strictly positive and finite"):
            step(state, w, np.ones_like(w), lr=0.1, scaling=scaling, position=position)
        assert state.step_count == 0


class TestAdaptiveStep:
    def test_adam_first_step_closed_form(self):
        # bias-corrected first step: update = g / (|g| + eps) -> delta ~ -lr
        cfg = OptimizerConfig(kind="adam")
        w = kernel_param(0.0)
        state = make_state(cfg, w)
        w1 = adaptive_step(state, w, kernel_param(1.0), lr=0.1)
        assert w1[0, 0, 0, 0] == pytest.approx(-0.1, abs=1e-6)

    def test_adam_identity_scaling_bitwise(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(2, 1, 3, 3))
        cfg = OptimizerConfig(kind="adam", weight_decay=1e-4)
        sa, sb = make_state(cfg, w), make_state(cfg, w)
        wa, wb = w.copy(), w.copy()
        for _ in range(5):
            g = rng.normal(size=w.shape)
            wa = adaptive_step(sa, wa, g, lr=0.01)
            wb = adaptive_step(sb, wb, g, lr=0.01, scaling=np.ones((3, 3)))
            assert np.array_equal(wa, wb)

    def test_adagrad_post_accumulates_unscaled_gradient(self):
        """adagrad* keeps its squared-gradient buffer free of the scaling."""
        rng = np.random.default_rng(5)
        w = rng.normal(size=(1, 1, 3, 3))
        scaling = rng.uniform(0.5, 2.0, size=(3, 3))
        cfg = OptimizerConfig(kind="adagrad")
        state = make_state(cfg, w)
        grads = [rng.normal(size=w.shape) for _ in range(3)]
        for g in grads:
            w = adaptive_step(state, w, g, lr=0.01, scaling=scaling, position="post")
        expected_accum = sum(g * g for g in grads)
        np.testing.assert_array_equal(state.buffers["accum"], expected_accum)

    def test_adagrad_pre_accumulates_scaled_gradient(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(1, 1, 3, 3))
        scaling = rng.uniform(0.5, 2.0, size=(3, 3))
        cfg = OptimizerConfig(kind="adagrad")
        state = make_state(cfg, w)
        g = rng.normal(size=w.shape)
        adaptive_step(state, w, g, lr=0.01, scaling=scaling, position="pre")
        np.testing.assert_array_equal(state.buffers["accum"], (g * scaling) ** 2)

    def test_adaptive_step_rejects_linear_kinds(self):
        cfg = OptimizerConfig(kind="sgd")
        with pytest.raises(ValueError):
            adaptive_step(make_state(cfg, kernel_param()), kernel_param(), kernel_param(), lr=0.1)

    def test_step_routes_adaptive_kinds(self):
        cfg = OptimizerConfig(kind="adam")
        w = kernel_param(0.0)
        s1, s2 = make_state(cfg, w), make_state(cfg, w)
        a = step(s1, w, kernel_param(1.0), lr=0.1)
        b = adaptive_step(s2, w, kernel_param(1.0), lr=0.1)
        assert np.array_equal(a, b)


class TestOptimizerConfigMomentum:
    @pytest.mark.parametrize("kind,expected", [("sgd_momentum", 0.9), ("sgd", 0.0),
                                               ("adam", 0.0), ("adagrad", 0.0)])
    def test_unset_momentum_resolves_by_kind(self, kind, expected):
        assert OptimizerConfig(kind=kind).momentum == expected

    def test_given_momentum_is_kept_for_sgd_momentum(self):
        assert OptimizerConfig(kind="sgd_momentum", momentum=0.5).momentum == 0.5
        assert OptimizerConfig(kind="sgd_momentum", momentum=0.0).momentum == 0.0

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adagrad"])
    def test_momentum_for_another_kind_warns_once_and_becomes_zero(self, kind, caplog):
        with caplog.at_level(logging.WARNING, logger="spatialgrad.optim"):
            cfg = OptimizerConfig(kind=kind, momentum=0.5)
        assert cfg.momentum == 0.0
        assert len(caplog.messages) == 1
        assert "momentum 0.5 is ignored" in caplog.messages[0] and repr(kind) in caplog.messages[0]

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_zero_momentum_for_another_kind_does_not_warn(self, kind, caplog):
        with caplog.at_level(logging.WARNING, logger="spatialgrad.optim"):
            assert OptimizerConfig(kind=kind, momentum=0.0).momentum == 0.0
        assert not caplog.messages

    @pytest.mark.parametrize("kind", ["sgd_momentum", "sgd"])
    def test_negative_momentum_is_rejected(self, kind):
        with pytest.raises(ValueError, match="non-negative"):
            OptimizerConfig(kind=kind, momentum=-0.1)

    @pytest.mark.parametrize("kind", ["sgd_momentum", "sgd"])
    @pytest.mark.parametrize("key", ["momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_momentum_or_weight_decay_is_rejected(self, kind, key, value):
        with pytest.raises(ValueError, match="finite"):
            OptimizerConfig(kind=kind, **{key: value})
