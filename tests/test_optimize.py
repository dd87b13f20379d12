"""Tests for the three update rules.

The multi-step traces below were computed by hand (pure Python floats,
no numpy) from the update equations and then frozen. If an
implementation detail changes the arithmetic, these fail first.
"""

import numpy as np
import pytest

from socdfn.errors import ConfigError, ShapeError
from socdfn.network import GradientSet, LayerSpec, Network, init_network, make_specs
from socdfn.optimize import (
    OptimizerConfig,
    adam_step,
    apply_update,
    init_state,
    rmsprop_step,
    sgd_step,
)
from socdfn.rng import make_rng


def one_param_net(w0=1.0):
    return Network(
        layers=(LayerSpec(1, 1, "linear"),),
        weights=[np.array([[w0]])],
        biases=[np.array([0.0])],
    )


def grad_of(g, db=0.0):
    return GradientSet(dweights=[np.array([[g]])], dbiases=[np.array([db])])


def weight(net):
    return float(net.weights[0][0, 0])


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.kind == "adam"
        assert cfg.learning_rate == 1e-3
        assert (cfg.beta1, cfg.beta2, cfg.rho, cfg.epsilon) == (0.9, 0.999, 0.9, 1e-8)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(kind="adagrad")

    def test_negative_lr(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(learning_rate=-0.1)

    def test_zero_lr_is_legal(self):
        assert OptimizerConfig(learning_rate=0.0).learning_rate == 0.0

    def test_beta_bounds(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(beta1=1.0)
        with pytest.raises(ConfigError):
            OptimizerConfig(beta2=-0.1)
        with pytest.raises(ConfigError):
            OptimizerConfig(rho=1.5)

    def test_epsilon_positive(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(epsilon=0.0)


class TestInitState:
    def test_zeros_matching_shapes(self):
        net = init_network(make_specs(2, 4, 0.0), seed=0)
        state = init_state(net)
        assert state.step == 0
        params = []
        for w, b in zip(net.weights, net.biases):
            params.extend([w, b])
        assert len(state.first_moment) == len(params)
        for m, v, p in zip(state.first_moment, state.second_moment, params):
            assert m.shape == p.shape
            np.testing.assert_array_equal(m, np.zeros_like(p))
            np.testing.assert_array_equal(v, np.zeros_like(p))

    def test_moments_are_independent_arrays(self):
        net = one_param_net()
        state = init_state(net)
        state.first_moment[0][0, 0] = 99.0
        assert state.second_moment[0][0, 0] == 0.0


class TestSgd:
    def test_single_step_by_hand(self):
        net = one_param_net(w0=1.0)
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.1)
        sgd_step(net, grad_of(0.5, db=0.25), cfg)
        assert weight(net) == 0.95
        assert float(net.biases[0][0]) == -0.025

    def test_two_steps_accumulate(self):
        net = one_param_net(w0=1.0)
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.1)
        sgd_step(net, grad_of(0.5), cfg)
        sgd_step(net, grad_of(0.5), cfg)
        np.testing.assert_allclose(weight(net), 0.90, rtol=1e-15)

    def test_zero_gradient_is_identity(self):
        net = one_param_net(w0=2.5)
        sgd_step(net, grad_of(0.0), OptimizerConfig(kind="sgd", learning_rate=0.1))
        assert weight(net) == 2.5

    def test_zero_lr_freezes_weights(self):
        net = one_param_net(w0=2.5)
        sgd_step(net, grad_of(7.0), OptimizerConfig(kind="sgd", learning_rate=0.0))
        assert weight(net) == 2.5

    def test_version_bumped(self):
        net = one_param_net()
        assert net.version == 0
        sgd_step(net, grad_of(0.1), OptimizerConfig(kind="sgd"))
        assert net.version == 1

    def test_updates_in_place(self):
        net = one_param_net()
        out = sgd_step(net, grad_of(0.1), OptimizerConfig(kind="sgd"))
        assert out is net


class TestRmsprop:
    def test_first_step_closed_form(self):
        # v1 = (1-rho) g^2, step = lr*g / (sqrt(v1) + eps); for g = 0.5,
        # lr = 1e-3, rho = 0.9 that is 0.0005 / (0.15811388... + 1e-8).
        net = one_param_net(w0=1.0)
        state = init_state(net)
        rmsprop_step(state, net, grad_of(0.5), OptimizerConfig(kind="rmsprop"))
        np.testing.assert_allclose(
            weight(net) - 1.0, -0.003162277460168392, rtol=0.0, atol=1e-15
        )

    def test_three_step_trace(self):
        net = one_param_net(w0=1.0)
        state = init_state(net)
        cfg = OptimizerConfig(kind="rmsprop")
        expect = [
            (0.9968377225398316, 0.024999999999999994),
            (0.9983121420144241, 0.028749999999999994),
            (0.9975575056693909, 0.027437499999999997),
        ]
        for g, (w_exp, v_exp) in zip([0.5, -0.25, 0.125], expect):
            rmsprop_step(state, net, grad_of(g), cfg)
            np.testing.assert_allclose(weight(net), w_exp, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(
                state.second_moment[0][0, 0], v_exp, rtol=0.0, atol=1e-15
            )
        assert state.step == 3

    def test_zero_gradient_decays_accumulator_only(self):
        net = one_param_net(w0=1.0)
        state = init_state(net)
        cfg = OptimizerConfig(kind="rmsprop")
        rmsprop_step(state, net, grad_of(1.0), cfg)
        w1 = weight(net)
        v1 = float(state.second_moment[0][0, 0])
        rmsprop_step(state, net, grad_of(0.0), cfg)
        assert weight(net) == w1
        np.testing.assert_allclose(
            state.second_moment[0][0, 0], 0.9 * v1, rtol=1e-15
        )

    def test_step_size_insensitive_to_gradient_scale(self):
        # The accumulator normalizes the gradient: scaling g by 100
        # must leave the first step essentially unchanged.
        deltas = []
        for g in (0.01, 1.0):
            net = one_param_net(w0=1.0)
            rmsprop_step(
                init_state(net), net, grad_of(g), OptimizerConfig(kind="rmsprop")
            )
            deltas.append(abs(weight(net) - 1.0))
        assert deltas[1] / deltas[0] < 1.01


class TestAdam:
    def test_first_step_magnitude_law(self):
        # With zero moments, bias correction cancels the decay factors
        # exactly: |step| = lr * |g| / (|g| + eps), for any beta pair.
        for g in (1e-6, 0.5, 3.0, 1e4):
            net = one_param_net(w0=1.0)
            adam_step(init_state(net), net, grad_of(g), OptimizerConfig())
            expect = 1e-3 * g / (g + 1e-8)
            assert abs(abs(weight(net) - 1.0) - expect) < 1e-9

    def test_first_step_direction_opposes_gradient(self):
        net = one_param_net(w0=1.0)
        adam_step(init_state(net), net, grad_of(-2.0), OptimizerConfig())
        assert weight(net) > 1.0

    def test_three_step_trace(self):
        net = one_param_net(w0=1.0)
        state = init_state(net)
        cfg = OptimizerConfig()
        expect = [
            (0.99900000002, 0.04999999999999999, 0.0002500000000000002),
            (0.9987336629870784, 0.019999999999999997, 0.0003122500000000003),
            (0.9983932338491666, 0.030499999999999996, 0.0003275627500000003),
        ]
        for g, (w_exp, m_exp, v_exp) in zip([0.5, -0.25, 0.125], expect):
            adam_step(state, net, grad_of(g), cfg)
            np.testing.assert_allclose(weight(net), w_exp, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(
                state.first_moment[0][0, 0], m_exp, rtol=0.0, atol=1e-15
            )
            np.testing.assert_allclose(
                state.second_moment[0][0, 0], v_exp, rtol=0.0, atol=1e-15
            )
        assert state.step == 3

    def test_step_size_bounded_by_lr(self):
        for g in (1e-3, 1.0, 1e3):
            net = one_param_net(w0=0.0)
            adam_step(init_state(net), net, grad_of(g), OptimizerConfig())
            delta = abs(weight(net))
            assert 0.99e-3 < delta <= 1e-3 + 1e-18

    def test_zero_gradient_zero_state_is_identity(self):
        net = one_param_net(w0=4.0)
        state = init_state(net)
        adam_step(state, net, grad_of(0.0), OptimizerConfig())
        assert weight(net) == 4.0

    def test_zero_lr_updates_moments_not_weights(self):
        net = one_param_net(w0=4.0)
        state = init_state(net)
        adam_step(state, net, grad_of(2.0), OptimizerConfig(learning_rate=0.0))
        assert weight(net) == 4.0
        assert state.first_moment[0][0, 0] != 0.0
        assert state.step == 1
        assert net.version == 1


class TestApplyUpdate:
    def test_dispatch_sgd_leaves_moments_untouched(self):
        net = one_param_net()
        state = init_state(net)
        apply_update(state, net, grad_of(1.0), OptimizerConfig(kind="sgd"))
        assert state.step == 1
        np.testing.assert_array_equal(state.first_moment[0], [[0.0]])
        np.testing.assert_array_equal(state.second_moment[0], [[0.0]])

    def test_dispatch_matches_direct_calls(self):
        for kind in ("sgd", "rmsprop", "adam"):
            net_a = one_param_net()
            net_b = one_param_net()
            cfg = OptimizerConfig(kind=kind, learning_rate=0.01)
            state_a = init_state(net_a)
            state_b = init_state(net_b)
            apply_update(state_a, net_a, grad_of(0.7), cfg)
            if kind == "sgd":
                sgd_step(net_b, grad_of(0.7), cfg)
            elif kind == "rmsprop":
                rmsprop_step(state_b, net_b, grad_of(0.7), cfg)
            else:
                adam_step(state_b, net_b, grad_of(0.7), cfg)
            assert weight(net_a) == weight(net_b)

    def test_gradient_layer_count_checked(self):
        net = init_network(make_specs(2, 4, 0.0), seed=0)
        bad = GradientSet(dweights=[np.zeros((3, 4))], dbiases=[np.zeros(4)])
        with pytest.raises(ShapeError):
            apply_update(init_state(net), net, bad, OptimizerConfig(kind="sgd"))

    def test_gradient_shape_checked(self):
        net = one_param_net()
        bad = GradientSet(dweights=[np.zeros((2, 1))], dbiases=[np.zeros(1)])
        with pytest.raises(ShapeError):
            apply_update(init_state(net), net, bad, OptimizerConfig(kind="sgd"))


class TestConvergence:
    """Minimize (w - 3)^2 by feeding the exact gradient 2(w - 3)."""

    def steps_to_converge(self, kind, lr, cap=5000):
        net = one_param_net(w0=1.0)
        cfg = OptimizerConfig(kind=kind, learning_rate=lr)
        state = init_state(net)
        for t in range(cap):
            g = 2.0 * (weight(net) - 3.0)
            apply_update(state, net, grad_of(g), cfg)
            if abs(weight(net) - 3.0) < 1e-3:
                return t + 1
        raise AssertionError(f"{kind} did not reach 3 +/- 1e-3 in {cap} steps")

    def test_sgd_converges(self):
        assert self.steps_to_converge("sgd", 0.1) <= 500

    def test_rmsprop_converges(self):
        assert self.steps_to_converge("rmsprop", 2e-3) <= 4000

    def test_adam_converges(self):
        assert self.steps_to_converge("adam", 0.01) <= 3000


def reference_step(kind, cfg, params, grads, first, second, step):
    """One update in the per-array formulas and operation order of the rules.

    params, first and second are lists of arrays updated in place; step
    is the 1-based step number.
    """
    bc1 = 1.0 - cfg.beta1**step
    bc2 = 1.0 - cfg.beta2**step
    for p, g, m, v in zip(params, grads, first, second):
        if kind == "sgd":
            p -= cfg.learning_rate * g
        elif kind == "rmsprop":
            v *= cfg.rho
            v += (1.0 - cfg.rho) * g * g
            p -= cfg.learning_rate * g / (np.sqrt(v) + cfg.epsilon)
        else:
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)


class TestFlatLayout:
    def interleaved(self, weights, biases):
        return [a for pair in zip(weights, biases) for a in pair]

    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    def test_flat_update_matches_per_array_formulas(self, kind):
        net = init_network(make_specs(2, 16, 0.0), seed=4)
        ref = [a.copy() for a in self.interleaved(net.weights, net.biases)]
        ref_m = [np.zeros_like(a) for a in ref]
        ref_v = [np.zeros_like(a) for a in ref]
        cfg = OptimizerConfig(kind=kind, learning_rate=0.01)
        state = init_state(net)
        rng = make_rng(17)
        for step in range(1, 51):
            dw = [rng.normal(size=w.shape) for w in net.weights]
            db = [rng.normal(size=b.shape) for b in net.biases]
            apply_update(state, net, GradientSet(dweights=dw, dbiases=db), cfg)
            reference_step(kind, cfg, ref, self.interleaved(dw, db), ref_m, ref_v, step)
        got = self.interleaved(net.weights, net.biases)
        for a, b in zip(got + list(state.first_moment) + list(state.second_moment),
                        ref + ref_m + ref_v):
            np.testing.assert_array_equal(a, b)
        assert state.step == 50

    def test_each_set_of_arrays_shares_one_buffer(self):
        net = init_network(make_specs(2, 16, 0.0), seed=4)
        grads = GradientSet.zeros_like(net)
        state = init_state(net)
        groups = (
            (net.flat, net.weights + net.biases),
            (grads.flat, grads.dweights + grads.dbiases),
            (state.m, state.first_moment),
            (state.v, state.second_moment),
        )
        for flat, views in groups:
            assert flat.size == net.parameter_count()
            assert all(np.shares_memory(flat, a) for a in views)
        flats = [flat for flat, _ in groups]
        for i, a in enumerate(flats):
            for b in flats[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_network_copies_caller_arrays(self):
        w = [np.ones((3, 2)), np.ones((2, 1))]
        b = [np.zeros(2), np.zeros(1)]
        net = Network(
            layers=(LayerSpec(3, 2, "relu"), LayerSpec(2, 1, "linear")),
            weights=w,
            biases=b,
        )
        for caller, own in zip(w + b, net.weights + net.biases):
            assert not np.shares_memory(caller, own)
        sgd_step(net, GradientSet(dweights=w, dbiases=b), OptimizerConfig(kind="sgd"))
        np.testing.assert_array_equal(w[0], np.ones((3, 2)))
        assert net.weights[0][0, 0] == 1.0 - 1e-3
