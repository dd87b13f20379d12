"""Tests for the three update rules, each reached through apply_update.

The multi-step traces below were computed by hand (pure Python floats,
no numpy) from the update equations and then frozen. If an
implementation detail changes the arithmetic, these fail first.
"""

import numpy as np
import pytest

from socdfn.errors import ConfigError, ShapeError
from socdfn.network import (
    GradientSet,
    LayerSpec,
    Network,
    RegConfig,
    StepBuffers,
    backward,
    forward,
    init_network,
    make_specs,
)
from socdfn.optimize import OptimizerConfig, apply_update, init_state
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
        for moment in (state.m, state.v):
            assert moment.shape == net.flat.shape
            np.testing.assert_array_equal(moment, np.zeros_like(net.flat))

    def test_moments_are_independent_arrays(self):
        net = one_param_net()
        state = init_state(net)
        state.m[0] = 99.0
        assert state.v[0] == 0.0


class TestSgd:
    def test_single_step_by_hand(self):
        net = one_param_net(w0=1.0)
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.1)
        apply_update(init_state(net), net, grad_of(0.5, db=0.25), cfg)
        assert weight(net) == 0.95
        assert float(net.biases[0][0]) == -0.025

    def test_two_steps_accumulate(self):
        net = one_param_net(w0=1.0)
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.1)
        state = init_state(net)
        apply_update(state, net, grad_of(0.5), cfg)
        apply_update(state, net, grad_of(0.5), cfg)
        np.testing.assert_allclose(weight(net), 0.90, rtol=1e-15)
        assert state.step == 2

    def test_zero_gradient_is_identity(self):
        net = one_param_net(w0=2.5)
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.1)
        apply_update(init_state(net), net, grad_of(0.0), cfg)
        assert weight(net) == 2.5

    def test_zero_lr_freezes_weights(self):
        net = one_param_net(w0=2.5)
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.0)
        apply_update(init_state(net), net, grad_of(7.0), cfg)
        assert weight(net) == 2.5

    def test_version_bumped(self):
        net = one_param_net()
        assert net.version == 0
        apply_update(init_state(net), net, grad_of(0.1), OptimizerConfig(kind="sgd"))
        assert net.version == 1


class TestRmsprop:
    def test_first_step_closed_form(self):
        # v1 = (1-rho) g^2, step = lr*g / (sqrt(v1) + eps); for g = 0.5,
        # lr = 1e-3, rho = 0.9 that is 0.0005 / (0.15811388... + 1e-8).
        net = one_param_net(w0=1.0)
        state = init_state(net)
        apply_update(state, net, grad_of(0.5), OptimizerConfig(kind="rmsprop"))
        np.testing.assert_allclose(
            weight(net) - 1.0, -0.003162277460168392, rtol=0.0, atol=1e-15
        )

    def test_first_step_with_non_default_rho(self):
        # rho = 0.5 differs from every other default, so a rule that read
        # beta1 (0.9) in its place would fail: v1 = 0.5 * 0.5^2 = 0.125,
        # step = 1e-3 * 0.5 / (sqrt(0.125) + 1e-8).
        net = one_param_net(w0=1.0)
        state = init_state(net)
        apply_update(state, net, grad_of(0.5), OptimizerConfig(kind="rmsprop", rho=0.5))
        assert state.v[0] == 0.125
        np.testing.assert_allclose(
            weight(net) - 1.0, -0.0014142135223731422, rtol=0.0, atol=1e-15
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
            apply_update(state, net, grad_of(g), cfg)
            np.testing.assert_allclose(weight(net), w_exp, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(state.v[0], v_exp, rtol=0.0, atol=1e-15)
        assert state.step == 3

    def test_zero_gradient_decays_accumulator_only(self):
        net = one_param_net(w0=1.0)
        state = init_state(net)
        cfg = OptimizerConfig(kind="rmsprop")
        apply_update(state, net, grad_of(1.0), cfg)
        w1 = weight(net)
        v1 = float(state.v[0])
        apply_update(state, net, grad_of(0.0), cfg)
        assert weight(net) == w1
        np.testing.assert_allclose(state.v[0], 0.9 * v1, rtol=1e-15)

    def test_step_size_insensitive_to_gradient_scale(self):
        # The accumulator normalizes the gradient: scaling g by 100
        # must leave the first step essentially unchanged.
        deltas = []
        for g in (0.01, 1.0):
            net = one_param_net(w0=1.0)
            apply_update(
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
            apply_update(init_state(net), net, grad_of(g), OptimizerConfig())
            expect = 1e-3 * g / (g + 1e-8)
            assert abs(abs(weight(net) - 1.0) - expect) < 1e-9

    def test_first_step_direction_opposes_gradient(self):
        net = one_param_net(w0=1.0)
        apply_update(init_state(net), net, grad_of(-2.0), OptimizerConfig())
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
            apply_update(state, net, grad_of(g), cfg)
            np.testing.assert_allclose(weight(net), w_exp, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(state.m[0], m_exp, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(state.v[0], v_exp, rtol=0.0, atol=1e-15)
        assert state.step == 3

    def test_first_step_with_non_default_hyperparameters(self):
        # m1 = 0.2 * 0.5 = 0.1, v1 = 0.01 * 0.5^2 = 0.0025, and
        # step = 1e-3 * (0.1 / 0.2) / (sqrt(0.0025 / 0.01) + 1e-4).
        net = one_param_net(w0=1.0)
        state = init_state(net)
        cfg = OptimizerConfig(beta1=0.8, beta2=0.99, epsilon=1e-4)
        apply_update(state, net, grad_of(0.5), cfg)
        np.testing.assert_allclose(state.m[0], 0.09999999999999998, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(state.v[0], 0.0025000000000000022, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(weight(net), 0.999000199960008, rtol=0.0, atol=1e-15)

    def test_step_size_bounded_by_lr(self):
        for g in (1e-3, 1.0, 1e3):
            net = one_param_net(w0=0.0)
            apply_update(init_state(net), net, grad_of(g), OptimizerConfig())
            delta = abs(weight(net))
            assert 0.99e-3 < delta <= 1e-3 + 1e-18

    def test_zero_gradient_zero_state_is_identity(self):
        net = one_param_net(w0=4.0)
        state = init_state(net)
        apply_update(state, net, grad_of(0.0), OptimizerConfig())
        assert weight(net) == 4.0

    def test_zero_lr_updates_moments_not_weights(self):
        net = one_param_net(w0=4.0)
        state = init_state(net)
        apply_update(state, net, grad_of(2.0), OptimizerConfig(learning_rate=0.0))
        assert weight(net) == 4.0
        assert state.m[0] != 0.0
        assert state.step == 1
        assert net.version == 1


class TestApplyUpdate:
    def test_dispatch_sgd_leaves_moments_untouched(self):
        net = one_param_net()
        state = init_state(net)
        apply_update(state, net, grad_of(1.0), OptimizerConfig(kind="sgd"))
        assert state.step == 1
        np.testing.assert_array_equal(state.m, [0.0, 0.0])
        np.testing.assert_array_equal(state.v, [0.0, 0.0])

    def assert_refused_unchanged(self, net, bad):
        # A refused update touches neither the step count, the version,
        # the weights nor the moments.
        state = init_state(net)
        state.m += 0.5
        state.v += 0.25
        before = (net.flat.copy(), state.m.copy(), state.v.copy())
        with pytest.raises(ShapeError):
            apply_update(state, net, bad, OptimizerConfig())
        assert state.step == 0
        assert net.version == 0
        for got, want in zip((net.flat, state.m, state.v), before):
            np.testing.assert_array_equal(got, want)

    def test_gradient_layer_count_checked(self):
        net = init_network(make_specs(2, 4, 0.0), seed=0)
        bad = GradientSet(dweights=[np.zeros((3, 4))], dbiases=[np.zeros(4)])
        self.assert_refused_unchanged(net, bad)

    def test_gradient_shape_checked(self):
        net = one_param_net()
        bad = GradientSet(dweights=[np.zeros((2, 1))], dbiases=[np.zeros(1)])
        self.assert_refused_unchanged(net, bad)


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
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.m, np.concatenate(ref_m, axis=None))
        np.testing.assert_array_equal(state.v, np.concatenate(ref_v, axis=None))
        assert state.step == 50

    def test_each_set_of_arrays_shares_one_buffer(self):
        net = init_network(make_specs(2, 16, 0.0), seed=4)
        grads = GradientSet.zeros_like(net)
        state = init_state(net)
        n_params = sum(a.size for a in net.weights + net.biases)
        groups = (
            (net.flat, net.weights + net.biases),
            (grads.flat, grads.dweights + grads.dbiases),
            (state.m, ()),
            (state.v, ()),
        )
        for flat, views in groups:
            assert flat.size == n_params
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
        grads = GradientSet(dweights=w, dbiases=b)
        apply_update(init_state(net), net, grads, OptimizerConfig(kind="sgd"))
        np.testing.assert_array_equal(w[0], np.ones((3, 2)))
        assert net.weights[0][0, 0] == 1.0 - 1e-3


class TestBufferedSteps:
    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    @pytest.mark.parametrize(
        "reg", [RegConfig(), RegConfig(l1=1e-3, l2=1e-2)], ids=["no-reg", "l1-l2"]
    )
    def test_one_buffer_set_matches_fresh_arrays(self, kind, reg):
        rng = make_rng(12)
        x = rng.normal(size=(32, 3))
        y = rng.uniform(0.0, 100.0, size=32)
        cfg = OptimizerConfig(kind=kind, learning_rate=1e-2)

        def three_steps(buffers):
            net = init_network(make_specs(2, 16, 0.5), seed=6)
            state = init_state(net)
            dropout_rng = make_rng(13)
            objectives = []
            for _ in range(3):
                _, cache = forward(
                    net, x, mode="train", dropout_rng=dropout_rng, buffers=buffers
                )
                grads, objective = backward(net, cache, y, reg, buffers=buffers)
                objectives.append(objective)
                apply_update(state, net, grads, cfg, buffers=buffers)
            return net, state, objectives

        net_a, state_a, obj_a = three_steps(StepBuffers())
        net_b, state_b, obj_b = three_steps(None)
        assert obj_a == obj_b
        np.testing.assert_array_equal(net_a.flat, net_b.flat)
        np.testing.assert_array_equal(state_a.m, state_b.m)
        np.testing.assert_array_equal(state_a.v, state_b.v)
        assert state_a.step == state_b.step == 3
