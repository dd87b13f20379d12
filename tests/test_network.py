"""Tests for the feedforward network: forward identities, the analytic
backward pass against a finite-difference oracle, dropout behaviour,
initialization statistics and the cache-staleness contract."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import dataset_from_rows, fd_gradient

from socdfn.data import Normalizer
from socdfn import network
from socdfn.errors import ConfigError, ContractError, NumericError, ShapeError
from socdfn.network import (
    ForwardCache,
    GradientSet,
    LayerSpec,
    Network,
    RegConfig,
    backward,
    data_loss,
    forward,
    init_network,
    make_specs,
    penalty,
    predict,
    predict_finite,
    predict_soc,
)
from socdfn.rng import make_rng, substream


def tiny_net(weights, biases, specs):
    return Network(
        layers=specs,
        weights=[np.asarray(w, dtype=np.float64) for w in weights],
        biases=[np.asarray(b, dtype=np.float64) for b in biases],
    )


def passthrough_net(w=1.0, b=0.0):
    """Single 1 -> 1 linear layer, so pred = w * x + b exactly."""
    return tiny_net(
        [[[w]]], [[b]], (LayerSpec(in_dim=1, out_dim=1, activation="linear"),)
    )


class TestMakeSpecs:
    def test_plain_two_hidden(self):
        specs = make_specs(hidden=2, units=256, dropout=0.0)
        assert len(specs) == 3
        assert [s.out_dim for s in specs] == [256, 256, 1]
        assert [s.activation for s in specs] == ["relu", "relu", "linear"]
        assert all(s.dropout_after == 0.0 for s in specs)

    def test_dropout_counts_mask_layers(self):
        specs = make_specs(hidden=4, units=256, dropout=0.5)
        assert len(specs) == 3  # two dense hidden layers plus the head
        assert [s.dropout_after for s in specs] == [0.5, 0.5, 0.0]

    def test_dropout_needs_even_hidden(self):
        with pytest.raises(ConfigError, match="even"):
            make_specs(hidden=3, units=32, dropout=0.5)

    def test_hidden_must_be_positive(self):
        with pytest.raises(ConfigError):
            make_specs(hidden=0, units=32, dropout=0.0)

    def test_input_width(self):
        specs = make_specs(hidden=1, units=8, dropout=0.0)
        assert specs[0].in_dim == 3


class TestNetworkValidation:
    def test_chain_mismatch(self):
        specs = (
            LayerSpec(3, 4, "relu"),
            LayerSpec(5, 1, "linear"),
        )
        with pytest.raises(ShapeError, match="chain"):
            tiny_net([np.zeros((3, 4)), np.zeros((5, 1))], [np.zeros(4), np.zeros(1)], specs)

    def test_final_layer_must_be_scalar_linear(self):
        with pytest.raises(ConfigError, match="final layer"):
            tiny_net([np.zeros((3, 2))], [np.zeros(2)], (LayerSpec(3, 2, "relu"),))

    def test_weight_shape_checked(self):
        specs = (LayerSpec(2, 1, "linear"),)
        with pytest.raises(ShapeError):
            tiny_net([np.zeros((3, 1))], [np.zeros(1)], specs)

    def test_no_layers(self):
        with pytest.raises(ConfigError, match="^network needs at least one layer$"):
            tiny_net([], [], ())

    @pytest.mark.parametrize("n_weights, n_biases", [(1, 2), (2, 1)])
    def test_array_count_must_match_layer_count(self, n_weights, n_biases):
        specs = (LayerSpec(3, 2, "relu"), LayerSpec(2, 1, "linear"))
        weights = [np.zeros((3, 2)), np.zeros((2, 1))][:n_weights]
        biases = [np.zeros(2), np.zeros(1)][:n_biases]
        with pytest.raises(ShapeError, match=(
            f"^2 layers but {n_weights} weight and {n_biases} bias arrays$"
        )):
            tiny_net(weights, biases, specs)

    def test_bias_shape_checked(self):
        specs = (LayerSpec(3, 2, "relu"), LayerSpec(2, 1, "linear"))
        with pytest.raises(ShapeError, match=(
            r"^layer 0 biases \(3,\) do not match spec \(2,\)$"
        )):
            tiny_net([np.zeros((3, 2)), np.zeros((2, 1))], [np.zeros(3), np.zeros(1)], specs)

    def test_gradient_set_counts_must_match(self):
        with pytest.raises(ShapeError, match="^2 weight gradients but 1 bias gradients$"):
            GradientSet(dweights=[np.zeros((3, 2)), np.zeros((2, 1))], dbiases=[np.zeros(2)])

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            LayerSpec(2, 2, "tanh")

    @pytest.mark.parametrize("field, message", [
        ({"in_dim": True}, "in_dim True is not an integer"),
        ({"out_dim": 3.0}, "out_dim 3.0 is not an integer"),
        ({"activation": ["relu"]}, r"activation \['relu'\] is not a string"),
        ({"dropout_after": "0"}, "dropout_after '0' is not a number"),
        ({"dropout_after": False}, "dropout_after False is not a number"),
    ], ids=["bool-dim", "float-dim", "list-activation", "string-dropout", "bool-dropout"])
    def test_field_of_wrong_type(self, field, message):
        # The same words a model file with such a layer record is refused with.
        with pytest.raises(ConfigError, match=f"^{message}$"):
            LayerSpec(**{"in_dim": 3, "out_dim": 4, **field})

    def test_integer_dropout_is_stored_as_float(self):
        dropout = LayerSpec(3, 4, dropout_after=0).dropout_after
        assert type(dropout) is float and dropout == 0.0

    def test_version_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError, match="version"):
            Network(layers=(LayerSpec(1, 1, "linear"),), weights=[np.zeros((1, 1))],
                    biases=[np.zeros(1)], version=3)

    def test_flat_holds_every_parameter(self):
        net = init_network(make_specs(2, 4, 0.0), seed=0)
        # 3*4 + 4 + 4*4 + 4 + 4*1 + 1
        assert net.flat.size == 41


class TestInit:
    def test_same_seed_identical(self):
        specs = make_specs(2, 16, 0.0)
        a = init_network(specs, seed=12)
        b = init_network(specs, seed=12)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_seeds_differ(self):
        specs = make_specs(2, 16, 0.0)
        a = init_network(specs, seed=12)
        b = init_network(specs, seed=13)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_biases_start_at_zero(self):
        net = init_network(make_specs(2, 32, 0.0), seed=5)
        for b in net.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_weight_variance_scales_with_fan_in(self):
        # He scaling: entry variance should track 2 / in_dim. Pool the
        # first-layer entries over ten seeds for a tight estimate.
        specs = (LayerSpec(50, 64, "relu"), LayerSpec(64, 1, "linear"))
        entries = np.concatenate(
            [init_network(specs, seed=s).weights[0].ravel() for s in range(10)]
        )
        target = 2.0 / 50.0
        assert abs(entries.var() - target) < 0.2 * target
        assert abs(entries.mean()) < 0.01

    def test_version_starts_at_zero(self):
        assert init_network(make_specs(1, 4, 0.0), seed=0).version == 0


class TestForward:
    def test_passthrough(self):
        net = passthrough_net(w=2.0, b=1.0)
        x = np.array([[0.0], [1.5], [-3.0]])
        np.testing.assert_array_equal(predict(net, x), [1.0, 4.0, -5.0])

    def test_hand_computed_two_layer(self):
        # Layer 1: relu([1, -1] @ W1 + b1), W1 = [[1, 2], [3, 4]], b1 = [0.5, -0.5]
        # -> z1 = [1-3+0.5, 2-4-0.5] = [-1.5, -2.5] -> relu -> [0, 0]
        # Layer 2: [0, 0] @ [[1], [1]] + [7] = 7
        net = tiny_net(
            [[[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]]],
            [[0.5, -0.5], [7.0]],
            (LayerSpec(2, 2, "relu"), LayerSpec(2, 1, "linear")),
        )
        pred = predict(net, np.array([[1.0, -1.0]]))
        np.testing.assert_array_equal(pred, [7.0])

    def test_relu_zeroes_negative_preacts(self):
        net = tiny_net(
            [[[1.0], [0.0]], [[5.0]]],
            [[0.0], [0.0]],
            (LayerSpec(2, 1, "relu"), LayerSpec(1, 1, "linear")),
        )
        pred = predict(net, np.array([[-4.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(pred, [0.0, 10.0])

    def test_inference_is_repeatable(self):
        net = init_network(make_specs(2, 8, 0.0), seed=3)
        x = make_rng(1).normal(size=(5, 3))
        a = predict(net, x)
        b = predict(net, x)
        np.testing.assert_array_equal(a, b)

    def test_inference_cache_holds_no_layer_arrays(self):
        net = init_network(make_specs(2, 8, 0.0), seed=3)
        _, cache = forward(net, make_rng(1).normal(size=(5, 3)))
        assert cache.mode == "inference"
        assert cache.inputs == [] and cache.pre_acts == []

    def test_predict_runs_in_row_blocks(self, monkeypatch):
        net = init_network(make_specs(2, 256, 0.0), seed=3)
        x = make_rng(1).normal(size=(4000, 3))
        whole = predict(net, x)
        monkeypatch.setattr(network, "INFERENCE_BLOCK_ROWS", 128)
        tracemalloc.start()
        try:
            blocked = predict(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(blocked, whole)
        # Two 128 x 256 float64 activations are 0.5 MB; one whole-batch
        # activation is 8 MB.
        assert peak < 2 * 2**20

    def test_default_blocks_hold_little_memory(self, two_workers):
        net = init_network(make_specs(2, 256, 0.0), seed=3)
        x = make_rng(1).normal(size=(20_000, 3))
        tracemalloc.start()
        try:
            predict(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two workers' two 512 x 256 float64 layer arrays are 4 MB; two
        # 8192-row ones would be 32 MB.
        assert peak < 6 * 2**20

    def test_each_worker_reuses_one_buffer_set(self, monkeypatch, two_workers):
        seen = []
        real = network.forward

        def spy(*args, **kwargs):
            seen.append((threading.get_ident(), kwargs.get("buffers")))
            return real(*args, **kwargs)

        monkeypatch.setattr(network, "forward", spy)
        monkeypatch.setattr(network, "INFERENCE_BLOCK_ROWS", 128)
        net = init_network(make_specs(2, 8, 0.0), seed=3)
        predict(net, make_rng(1).normal(size=(4000, 3)))
        assert len(seen) == 32
        per_thread = {}
        for thread, buffers in seen:
            assert isinstance(buffers, network.StepBuffers)
            assert per_thread.setdefault(thread, buffers) is buffers
        assert len(per_thread) <= 2
        assert len({id(b) for b in per_thread.values()}) == len(per_thread)

    @pytest.mark.parametrize("rows", [4500, 16385])
    @pytest.mark.parametrize("block_rows", [128, 1024, 8192, network.INFERENCE_BLOCK_ROWS])
    def test_blocked_predict_equals_whole_forward(self, monkeypatch, rows, block_rows):
        # 16385 rows in 8192-row blocks would leave a one-row block.
        net = init_network(make_specs(2, 256, 0.0), seed=3)
        x = make_rng(1).normal(size=(rows, 3))
        whole, _ = forward(net, x)
        monkeypatch.setattr(network, "INFERENCE_BLOCK_ROWS", block_rows)
        np.testing.assert_array_equal(predict(net, x), whole)

    def test_input_width_checked(self):
        net = init_network(make_specs(1, 4, 0.0), seed=0)
        with pytest.raises(ShapeError):
            predict(net, np.zeros((2, 5)))

    def test_bad_mode(self):
        net = passthrough_net()
        with pytest.raises(ConfigError):
            forward(net, np.zeros((1, 1)), mode="training")

    def test_train_equals_inference_without_dropout(self):
        net = init_network(make_specs(2, 8, 0.0), seed=3)
        x = make_rng(2).normal(size=(4, 3))
        p_inf = predict(net, x)
        p_train, cache = forward(net, x, mode="train")
        np.testing.assert_array_equal(p_train, p_inf)
        assert cache.mode == "train"
        assert all(m is None for m in cache.masks)


class TestDropout:
    def make_dropout_net(self):
        # Hidden relu layer with dropout, then a summing head, so the
        # output is a plain sum of (possibly masked) activations.
        specs = (
            LayerSpec(3, 8, "relu", dropout_after=0.5),
            LayerSpec(8, 1, "linear"),
        )
        net = init_network(specs, seed=7)
        net.weights[1][...] = 1.0
        net.biases[1][...] = 0.0
        return net

    def test_train_without_stream_is_contract_error(self):
        net = self.make_dropout_net()
        with pytest.raises(ContractError, match="seeded stream"):
            forward(net, np.ones((2, 3)), mode="train")

    def test_inference_ignores_dropout(self):
        net = self.make_dropout_net()
        x = np.ones((2, 3))
        a = predict(net, x)
        b = predict(net, x)
        np.testing.assert_array_equal(a, b)

    def test_same_stream_same_masks(self):
        net = self.make_dropout_net()
        x = make_rng(0).normal(size=(4, 3))
        p1, _ = forward(net, x, mode="train", dropout_rng=make_rng(42))
        p2, _ = forward(net, x, mode="train", dropout_rng=make_rng(42))
        np.testing.assert_array_equal(p1, p2)

    def test_reseeded_stream_reproduces_masks(self):
        # The finite-difference oracle holds dropout fixed this way: a
        # stream seeded afresh for every pass draws the same masks.
        net = self.make_dropout_net()
        x = make_rng(0).normal(size=(4, 3))
        p1, c1 = forward(net, x, mode="train", dropout_rng=make_rng(9))
        p2, c2 = forward(net, x, mode="train", dropout_rng=make_rng(9))
        np.testing.assert_array_equal(p1, p2)
        assert c1.masks[0] is not None
        assert len(c1.masks) == len(c2.masks) == len(net.layers)
        for m1, m2 in zip(c1.masks, c2.masks):
            np.testing.assert_array_equal(m1, m2)

    def test_masks_are_zero_or_scaled_keep(self):
        net = self.make_dropout_net()
        x = np.ones((6, 3))
        _, cache = forward(net, x, mode="train", dropout_rng=make_rng(1))
        mask = cache.masks[0]
        assert set(np.unique(mask)).issubset({0.0, 1.0})
        assert 0 < mask.sum() < mask.size  # some dropped, some kept

    def test_train_mean_converges_to_inference_value(self):
        # Inverted dropout is unbiased: averaged over many masks the
        # train-mode output approaches the inference output within
        # three standard errors.
        net = self.make_dropout_net()
        x = np.array([[1.0, -0.5, 2.0]])
        p_inf = predict(net, x)[0]
        rng = substream(2024, "dropout-expectation")
        n = 10000
        preds = np.empty(n)
        for i in range(n):
            p, _ = forward(net, x, mode="train", dropout_rng=rng)
            preds[i] = p[0]
        se = preds.std() / np.sqrt(n)
        assert abs(preds.mean() - p_inf) < 3.0 * se


class TestLosses:
    def test_mse_zero_on_equal(self):
        assert data_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]), "mse") == 0.0

    def test_mse_hand_value(self):
        assert data_loss(np.array([0.0, 1.0]), np.array([0.0, 3.0]), "mse") == 2.0

    def test_mae_hand_value(self):
        assert data_loss(np.array([0.0, 1.0]), np.array([0.0, 3.0]), "mae") == 1.0

    def test_mse_matches_loop(self):
        rng = make_rng(5)
        pred = rng.normal(size=20)
        target = rng.normal(size=20)
        by_loop = sum((t - p) ** 2 for t, p in zip(target, pred)) / 20
        np.testing.assert_allclose(
            data_loss(pred, target, "mse"), by_loop, rtol=1e-14
        )

    def test_mae_matches_loop(self):
        rng = make_rng(6)
        pred = rng.normal(size=20)
        target = rng.normal(size=20)
        by_loop = sum(abs(t - p) for t, p in zip(target, pred)) / 20
        np.testing.assert_allclose(
            data_loss(pred, target, "mae"), by_loop, rtol=1e-14
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            data_loss(np.zeros(3), np.zeros(4), "mse")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            data_loss(np.zeros(2), np.zeros(2), "huber")


class TestPenalty:
    def test_zero_reg_is_zero(self):
        net = init_network(make_specs(1, 4, 0.0), seed=0)
        assert penalty(net, RegConfig()) == 0.0

    def test_hand_value(self):
        net = tiny_net(
            [[[1.0], [-2.0]], [[3.0]]],
            [[0.0], [0.0]],
            (LayerSpec(2, 1, "relu"), LayerSpec(1, 1, "linear")),
        )
        # sum of squares: 1 + 4 + 9 = 14; sum of abs: 1 + 2 + 3 = 6
        assert penalty(net, RegConfig(l2=0.25)) == 0.25 * 14
        assert penalty(net, RegConfig(l1=0.5)) == 0.5 * 6
        assert penalty(net, RegConfig(l1=0.5, l2=0.25)) == 0.25 * 14 + 0.5 * 6

    def test_biases_not_penalized(self):
        net = passthrough_net(w=0.0, b=100.0)
        assert penalty(net, RegConfig(l1=1.0, l2=1.0)) == 0.0


class TestBackward:
    def check_against_fd(self, net, x, y, reg, loss_kind="mse", dropout=None):
        """dropout is None or a zero-argument factory of freshly seeded streams."""
        pred, cache = forward(net, x, mode="train", dropout_rng=dropout and dropout())
        # A finite-difference probe is only meaningful away from the ReLU
        # kink: no ReLU pre-activation may sit within the step of zero.
        for z, spec in zip(cache.pre_acts, net.layers):
            if spec.activation == "relu":
                assert np.abs(z).min() > 1e-5
        grads, obj = backward(net, cache, y, reg, loss_kind=loss_kind)
        fd_w, fd_b = fd_gradient(net, x, y, reg, loss_kind=loss_kind, dropout=dropout)
        for analytic, numeric in zip(grads.dweights + grads.dbiases, fd_w + fd_b):
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-5)
        expect = data_loss(pred, y, loss_kind) + penalty(net, reg)
        np.testing.assert_allclose(obj, expect, rtol=1e-12)

    def setup_case(self, seed=100):
        # 3-4-2-1 stack. Biases get a small jitter because zero biases
        # park dead samples exactly on the ReLU kink, where the analytic
        # subgradient convention and a central difference legitimately
        # disagree.
        specs = (
            LayerSpec(3, 4, "relu"),
            LayerSpec(4, 2, "relu"),
            LayerSpec(2, 1, "linear"),
        )
        net = init_network(specs, seed=seed)
        rng = make_rng(seed + 1)
        for b in net.biases:
            b += rng.normal(0.0, 0.3, size=b.shape)
        x = rng.normal(size=(8, 3))
        y = rng.uniform(0.0, 100.0, size=8)
        return net, x, y

    def test_gradients_match_fd_plain(self):
        net, x, y = self.setup_case()
        self.check_against_fd(net, x, y, RegConfig())

    def test_gradients_match_fd_l2(self):
        net, x, y = self.setup_case(seed=101)
        self.check_against_fd(net, x, y, RegConfig(l2=0.01))

    def test_gradients_match_fd_l1(self):
        net, x, y = self.setup_case(seed=102)
        self.check_against_fd(net, x, y, RegConfig(l1=0.01))

    def test_gradients_match_fd_mae(self):
        net, x, y = self.setup_case(seed=103)
        self.check_against_fd(net, x, y, RegConfig(), loss_kind="mae")

    def test_gradients_match_fd_with_dropout_replay(self):
        specs = (
            LayerSpec(3, 4, "relu", dropout_after=0.5),
            LayerSpec(4, 2, "relu", dropout_after=0.5),
            LayerSpec(2, 1, "linear"),
        )
        net = init_network(specs, seed=104)
        rng = make_rng(105)
        for b in net.biases:
            b += rng.normal(0.0, 0.3, size=b.shape)
        x = rng.normal(size=(8, 3))
        y = rng.uniform(0.0, 100.0, size=8)
        self.check_against_fd(
            net, x, y, RegConfig(l2=0.01), dropout=lambda: make_rng(106)
        )

    @pytest.mark.parametrize("drop", [0.5, 0.0])
    def test_gradients_match_fd_through_hidden_linear_layer(self, drop):
        # Dropout after a linear hidden layer scales its delta by the
        # mask alone, with no ReLU derivative to carry it.
        specs = (
            LayerSpec(3, 4, "relu", dropout_after=0.5),
            LayerSpec(4, 3, "linear", dropout_after=drop),
            LayerSpec(3, 1, "linear"),
        )
        net = init_network(specs, seed=107)
        rng = make_rng(108)
        for b in net.biases:
            b += rng.normal(0.0, 0.3, size=b.shape)
        x = rng.normal(size=(8, 3))
        y = rng.uniform(0.0, 100.0, size=8)
        self.check_against_fd(
            net, x, y, RegConfig(l2=0.01), dropout=lambda: make_rng(109)
        )

    def test_zero_residual_gives_zero_gradients(self):
        net = passthrough_net(w=2.0, b=0.0)
        x = np.array([[1.0], [2.0]])
        y = np.array([2.0, 4.0])
        _, cache = forward(net, x, mode="train")
        grads, obj = backward(net, cache, y, RegConfig())
        assert obj == 0.0
        np.testing.assert_array_equal(grads.dweights[0], [[0.0]])
        np.testing.assert_array_equal(grads.dbiases[0], [0.0])

    def test_penalty_gradient_exact_when_data_grad_is_zero(self):
        # With x = 0 and y = pred the data gradient vanishes, leaving
        # exactly the penalty terms: 2 * l2 * w + l1 * sign(w).
        net = passthrough_net(w=-3.0, b=0.0)
        x = np.array([[0.0]])
        y = np.array([0.0])
        _, cache = forward(net, x, mode="train")
        grads, _ = backward(net, cache, y, RegConfig(l1=0.5, l2=0.1))
        np.testing.assert_allclose(
            grads.dweights[0], [[2.0 * 0.1 * -3.0 + 0.5 * -1.0]], rtol=1e-15
        )

    def test_l1_subgradient_at_zero_is_zero(self):
        net = passthrough_net(w=0.0, b=0.0)
        x = np.array([[0.0]])
        y = np.array([0.0])
        _, cache = forward(net, x, mode="train")
        grads, _ = backward(net, cache, y, RegConfig(l1=1.0))
        np.testing.assert_array_equal(grads.dweights[0], [[0.0]])

    def test_single_sample_linear_gradient_by_hand(self):
        # pred = w * x + b, loss = (pred - y)^2 with one sample, so
        # dL/dw = 2 (pred - y) x and dL/db = 2 (pred - y).
        net = passthrough_net(w=3.0, b=1.0)
        x = np.array([[2.0]])
        y = np.array([4.0])  # pred = 7, residual 3
        _, cache = forward(net, x, mode="train")
        grads, obj = backward(net, cache, y, RegConfig())
        assert obj == 9.0
        np.testing.assert_array_equal(grads.dweights[0], [[12.0]])
        np.testing.assert_array_equal(grads.dbiases[0], [6.0])

    def test_mae_gradient_by_hand(self):
        net = passthrough_net(w=1.0, b=0.0)
        x = np.array([[1.0], [1.0]])
        y = np.array([5.0, -5.0])  # residual signs -1 and +1
        _, cache = forward(net, x, mode="train")
        grads, obj = backward(net, cache, y, RegConfig(), loss_kind="mae")
        assert obj == 5.0
        # dpred = sign(pred - y)/n = [-0.5, +0.5]; dw = sum(x * dpred) = 0
        np.testing.assert_array_equal(grads.dweights[0], [[0.0]])
        np.testing.assert_array_equal(grads.dbiases[0], [0.0])

    def test_inference_cache_rejected(self):
        net = passthrough_net()
        _, cache = forward(net, np.ones((1, 1)), mode="inference")
        with pytest.raises(ContractError, match="train-mode"):
            backward(net, cache, np.zeros(1), RegConfig())

    def test_stale_version_rejected(self):
        net = passthrough_net()
        _, cache = forward(net, np.ones((1, 1)), mode="train")
        net.weights[0][0, 0] = 5.0
        net.version += 1  # the in-place update protocol
        with pytest.raises(ContractError, match="stale"):
            backward(net, cache, np.zeros(1), RegConfig())

    def test_foreign_cache_rejected(self):
        a = passthrough_net()
        b = passthrough_net()
        _, cache = forward(a, np.ones((1, 1)), mode="train")
        with pytest.raises(ContractError, match="stale"):
            backward(b, cache, np.zeros(1), RegConfig())

    def test_short_cache_rejected(self):
        net, x, y = self.setup_case(seed=105)
        _, cache = forward(net, x, mode="train")
        del cache.inputs[-1]
        with pytest.raises(ContractError, match="^cache covers 2 layers, network has 3$"):
            backward(net, cache, y, RegConfig())

    def test_target_shape_checked(self):
        net = passthrough_net()
        _, cache = forward(net, np.ones((2, 1)), mode="train")
        with pytest.raises(ShapeError):
            backward(net, cache, np.zeros(3), RegConfig())

    def test_gradient_shapes_match_parameters(self):
        net, x, y = self.setup_case(seed=110)
        _, cache = forward(net, x, mode="train")
        grads, _ = backward(net, cache, y, RegConfig())
        for g, w in zip(grads.dweights, net.weights):
            assert g.shape == w.shape
        for g, b in zip(grads.dbiases, net.biases):
            assert g.shape == b.shape


class TestResultsAreNotReused:
    def test_second_call_leaves_first_results_unchanged(self):
        # Outside training every call returns arrays of its own, so a
        # second pass of the same shape must not write into the first.
        net = init_network(make_specs(4, 8, 0.5), seed=3)
        rng = make_rng(5)
        x1, x2 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        y1, y2 = rng.normal(size=6), rng.normal(size=6)
        stream = make_rng(6)
        reg = RegConfig(l1=0.01, l2=0.01)
        pred, cache = forward(net, x1, mode="train", dropout_rng=stream)
        grads, _ = backward(net, cache, y1, reg)
        held = [pred, *cache.inputs, *cache.pre_acts, grads.flat]
        held += [m for m in cache.masks if m is not None]
        before = [a.copy() for a in held]
        _, cache2 = forward(net, x2, mode="train", dropout_rng=stream)
        backward(net, cache2, y2, reg)
        backward(net, cache, y1, reg)
        for a, b in zip(held, before):
            np.testing.assert_array_equal(a, b)


class TestPredictSoc:
    def make_dataset(self, n=4):
        return dataset_from_rows(
            [(float(i), 3.5 + 0.1 * i, -0.5, 25.0 + i, 50.0) for i in range(n)]
        )

    def unit_normalizer(self):
        return Normalizer(mean=np.zeros(3), std=np.ones(3))

    def test_clamps_high(self):
        net = tiny_net(
            [np.zeros((3, 1))], [[150.0]], (LayerSpec(3, 1, "linear"),)
        )
        out = predict_soc(net, self.unit_normalizer(), self.make_dataset())
        np.testing.assert_array_equal(out, np.full(4, 100.0))

    def test_clamps_low(self):
        net = tiny_net(
            [np.zeros((3, 1))], [[-9.0]], (LayerSpec(3, 1, "linear"),)
        )
        out = predict_soc(net, self.unit_normalizer(), self.make_dataset())
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_requires_normalizer(self):
        net = tiny_net([np.zeros((3, 1))], [[1.0]], (LayerSpec(3, 1, "linear"),))
        with pytest.raises(ContractError, match="normalizer"):
            predict_soc(net, None, self.make_dataset())

    def test_empty_records_rejected(self):
        net = tiny_net([np.zeros((3, 1))], [[1.0]], (LayerSpec(3, 1, "linear"),))
        with pytest.raises(ConfigError):
            predict_soc(net, self.unit_normalizer(), dataset_from_rows([]))

    def test_overflowing_finite_model_raises(self):
        # Every stored value is finite, but both hidden units overflow to
        # inf and the output computes inf - inf = NaN, which the clamp
        # would pass through.
        net = tiny_net(
            [np.full((3, 2), 1e308), [[1.0], [-1.0]]],
            [np.zeros(2), [0.0]],
            (LayerSpec(3, 2, "relu"), LayerSpec(2, 1, "linear")),
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match="4 of 4 predictions are non-finite"
        ):
            predict_soc(net, self.unit_normalizer(), self.make_dataset())


_OPENBLAS = network._openblas_thread_fns()


class BlockFailed(Exception):
    pass


class TestPredictWorkers:
    @pytest.mark.skipif(_OPENBLAS is None, reason="numpy's BLAS exposes no OpenBLAS thread count")
    @pytest.mark.parametrize("raiser", [None, "caller", "helper"])
    def test_blas_thread_count_is_restored(self, monkeypatch, two_busy_workers, raiser):
        get_threads = _OPENBLAS[1]
        before = get_threads()
        seen = []
        real = network.forward

        def spy(*args, **kwargs):
            seen.append(get_threads())
            result = real(*args, **kwargs)
            caller = threading.current_thread() is threading.main_thread()
            if raiser == ("caller" if caller else "helper"):
                raise BlockFailed
            return result

        monkeypatch.setattr(network, "forward", spy)
        monkeypatch.setattr(network, "INFERENCE_BLOCK_ROWS", 128)
        net = init_network(make_specs(2, 8, 0.0), seed=3)
        x = make_rng(1).normal(size=(4000, 3))
        if raiser is None:
            np.testing.assert_array_equal(predict(net, x), forward(net, x)[0])
        else:
            with pytest.raises(BlockFailed):
                predict(net, x)
        # Each worker ran its blocks on one BLAS thread.
        assert seen and set(seen) == {1}
        assert get_threads() == before

    def test_every_block_runs_once_on_more_workers_than_cores(self, monkeypatch):
        # Workers share one iterator over the block indices; a block taken
        # twice, or by none, would show in the row ranges or the bits.
        monkeypatch.setattr(network, "_row_workers", lambda blocks: min(8, blocks))
        monkeypatch.setattr(network, "INFERENCE_BLOCK_ROWS", 8)
        blocks = []
        real = network.forward

        def spy(net, x, *args, **kwargs):
            blocks.append((x[0, 0], len(x)))
            return real(net, x, *args, **kwargs)

        monkeypatch.setattr(network, "forward", spy)
        net = init_network(make_specs(2, 8, 0.0), seed=3)
        x = make_rng(1).normal(size=(4001, 3))
        expected = forward(net, x)[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pred = predict(net, x)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(pred, expected)
        # 501 blocks of 7 or 8 rows, each starting on its own row.
        assert len({first for first, _ in blocks}) == len(blocks) == 501
        assert sum(rows for _, rows in blocks) == len(x)

    def test_overflow_in_every_worker_is_a_numeric_error(self, two_busy_workers):
        # The network of TestPredictSoc's overflow test, over 3 blocks: the
        # helper's blocks overflow under the errstate predict_finite entered.
        net = tiny_net(
            [np.full((3, 2), 1e308), [[1.0], [-1.0]]],
            [np.zeros(2), [0.0]],
            (LayerSpec(3, 2, "relu"), LayerSpec(2, 1, "linear")),
        )
        rows = 3 * network.INFERENCE_BLOCK_ROWS
        data = dataset_from_rows([(float(i), 4.0, 1.0, 1.0, 50.0) for i in range(rows)])
        norm = Normalizer(mean=np.zeros(3), std=np.ones(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"{rows} of {rows} predictions"):
                predict_finite(net, norm, data)
