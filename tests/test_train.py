"""Tests for the training loop, epoch metrics, K-fold runs and evaluate."""

import math
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import dataset_from_rows, run_cli

from socdfn.data import apply_normalizer, fit_normalizer, fold_datasets, kfold_split
from socdfn.errors import ConfigError, NumericError
from socdfn.network import (
    LayerSpec,
    Network,
    RegConfig,
    StepBuffers,
    backward,
    data_loss,
    forward,
    init_network,
    make_specs,
    penalty,
    predict,
)
from socdfn.optimize import OptimizerConfig, apply_update, init_state
from socdfn import cli, network, train
from socdfn.modelio import cv_table
from socdfn.rng import derive_seed, make_rng
from socdfn.train import (
    TrainConfig,
    cross_validate,
    evaluate,
    fit,
    fit_datasets,
    train_epoch,
)


def affine_batch(n, seed):
    """Features N(0,1), targets an exact affine map into SOC range."""
    rng = make_rng(seed)
    x = rng.normal(size=(n, 3))
    y = 50.0 + 10.0 * x[:, 0] - 5.0 * x[:, 1] + 2.0 * x[:, 2]
    return x, y


def affine_dataset(n, seed):
    """Dataset whose SOC is affine in the (voltage, current, temp) row."""
    rng = make_rng(seed)
    rows = []
    for i in range(n):
        v = 3.6 + rng.uniform(-0.4, 0.4)
        c = rng.uniform(-1.0, 0.3)
        temp = 25.0 + rng.uniform(0.0, 6.0)
        soc = 50.0 + 60.0 * (v - 3.6) + 8.0 * c + 1.5 * (temp - 28.0)
        rows.append((float(i), v, c, temp, float(np.clip(soc, 0.0, 100.0))))
    return dataset_from_rows(rows)


def small_cfg(**overrides):
    base = dict(
        epochs=3,
        batch_size=32,
        optimizer=OptimizerConfig(kind="adam", learning_rate=0.01),
        reg=RegConfig(),
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def snapshot(net):
    return [a.copy() for a in net.weights + net.biases]


def assert_params_equal(net, snap):
    for a, b in zip(net.weights + net.biases, snap):
        np.testing.assert_array_equal(a, b)


class TestTrainConfig:
    def test_epochs_positive(self):
        with pytest.raises(ConfigError):
            small_cfg(epochs=0)

    def test_batch_positive(self):
        with pytest.raises(ConfigError):
            small_cfg(batch_size=0)

    def test_seed_checked(self):
        with pytest.raises(ConfigError):
            small_cfg(seed=-2)

    def test_default_loss(self):
        assert small_cfg().loss == "mse"

    def test_unknown_loss(self):
        with pytest.raises(ConfigError, match="unknown loss 'huber'"):
            small_cfg(loss="huber")


class TestMae:
    def test_zero_on_equal(self):
        assert data_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]), "mae") == 0.0

    def test_hand_value(self):
        assert data_loss(np.array([0.0, 4.0]), np.array([2.0, 0.0]), "mae") == 3.0

    def test_never_exceeds_rmse(self):
        # Jensen: mean |e| <= sqrt(mean e^2) for any error vector.
        rng = make_rng(31)
        for _ in range(20):
            pred = rng.normal(size=50)
            target = rng.normal(size=50)
            rmse = math.sqrt(float(np.mean((pred - target) ** 2)))
            assert data_loss(pred, target, "mae") <= rmse + 1e-15


class TestTrainEpoch:
    def test_zero_lr_leaves_parameters_unchanged(self):
        x, y = affine_batch(100, seed=1)
        net = init_network(make_specs(2, 8, 0.0), seed=2)
        snap = snapshot(net)
        cfg = small_cfg(optimizer=OptimizerConfig(kind="sgd", learning_rate=0.0))
        train_epoch(net, init_state(net), x, y, cfg, epoch=0)
        assert_params_equal(net, snap)

    def test_zero_lr_metrics_equal_global_metrics(self):
        # With frozen parameters the size-weighted average over batches
        # must reconstruct the whole-set loss exactly, however the rows
        # were shuffled into batches.
        x, y = affine_batch(101, seed=4)  # odd length forces a short batch
        net = init_network(make_specs(2, 8, 0.0), seed=2)
        cfg = small_cfg(
            optimizer=OptimizerConfig(kind="sgd", learning_rate=0.0),
            reg=RegConfig(l2=0.01),
        )
        train_loss, train_mae = train_epoch(net, init_state(net), x, y, cfg, epoch=0)
        pred = predict(net, x)
        expect_loss = float(np.mean((pred - y) ** 2)) + penalty(net, cfg.reg)
        expect_mae = float(np.mean(np.abs(pred - y)))
        np.testing.assert_allclose(train_loss, expect_loss, rtol=1e-12)
        np.testing.assert_allclose(train_mae, expect_mae, rtol=1e-12)

    def test_zero_lr_metrics_identical_across_epochs(self):
        x, y = affine_batch(64, seed=5)
        net = init_network(make_specs(2, 8, 0.0), seed=2)
        cfg = small_cfg(optimizer=OptimizerConfig(kind="sgd", learning_rate=0.0))
        state = init_state(net)
        m0 = train_epoch(net, state, x, y, cfg, epoch=0)
        m1 = train_epoch(net, state, x, y, cfg, epoch=1)
        np.testing.assert_allclose(m0, m1, rtol=1e-12)

    def test_divergence_raises_numeric_error(self):
        x, y = affine_batch(100, seed=1)
        net = init_network(make_specs(2, 16, 0.0), seed=5)
        cfg = small_cfg(optimizer=OptimizerConfig(kind="sgd", learning_rate=1e12))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="diverged"):
                for epoch in range(3):
                    train_epoch(net, init_state(net), x, y, cfg, epoch=epoch)

    @pytest.mark.parametrize("hidden, dropout", [(2, 0.0), (4, 0.5)])
    def test_second_step_allocates_no_layer_array(self, hidden, dropout):
        # A 2x256 step that allocated one activation, delta, gradient or
        # update vector would pass 128 * 256 float64 values.
        x, y = affine_batch(128, seed=7)
        net = init_network(make_specs(hidden, 256, dropout), seed=1)
        state = init_state(net)
        buffers = StepBuffers()
        stream = make_rng(3)

        def step():
            _, cache = forward(net, x, "train", dropout_rng=stream, buffers=buffers)
            grads, _ = backward(net, cache, y, RegConfig(), buffers=buffers)
            apply_update(state, net, grads, OptimizerConfig(), buffers=buffers)

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 256 * 8

    def test_every_step_of_an_epoch_shares_one_buffer_set(self, monkeypatch):
        seen = []
        for name in ("forward", "backward", "apply_update"):
            real = getattr(train, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                seen.append((_name, kwargs.get("buffers")))
                return _real(*args, **kwargs)

            monkeypatch.setattr(train, name, spy)
        x, y = affine_batch(300, seed=8)
        net = init_network(make_specs(2, 8, 0.0), seed=2)
        train_epoch(net, init_state(net), x, y, small_cfg(batch_size=128))
        assert [n for n, _ in seen] == ["forward", "backward", "apply_update"] * 3
        assert isinstance(seen[0][1], StepBuffers)
        assert all(b is seen[0][1] for _, b in seen)


class TestFit:
    def test_history_length_matches_epochs(self):
        x, y = affine_batch(100, seed=1)
        xv, yv = affine_batch(20, seed=2)
        net = init_network(make_specs(1, 8, 0.0), seed=3)
        hist = fit(net, x, y, xv, yv, small_cfg(epochs=4))
        assert len(hist) == 4

    def test_loss_decreases_over_early_epochs(self):
        x, y = affine_batch(200, seed=77)
        xv, yv = affine_batch(40, seed=78)
        net = init_network(make_specs(2, 16, 0.0), seed=5)
        hist = fit(net, x, y, xv, yv, small_cfg(epochs=5))
        losses = [e.train_loss for e in hist]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_learns_affine_map(self):
        x, y = affine_batch(200, seed=77)
        xv, yv = affine_batch(40, seed=78)
        net = init_network(make_specs(2, 16, 0.0), seed=5)
        hist = fit(net, x, y, xv, yv, small_cfg(epochs=8))
        assert hist[-1].train_mae < hist[0].train_mae / 2.0

    def test_val_metrics_are_finite_and_penalized(self):
        x, y = affine_batch(100, seed=1)
        xv, yv = affine_batch(20, seed=2)
        net = init_network(make_specs(1, 8, 0.0), seed=3)
        cfg = small_cfg(epochs=2, reg=RegConfig(l2=0.5))
        hist = fit(net, x, y, xv, yv, cfg)
        final = hist[-1]
        assert math.isfinite(final.val_loss)
        # Loss column carries the penalty, the MAE column does not.
        pred = predict(net, xv)
        expect_mae = float(np.mean(np.abs(pred - yv)))
        np.testing.assert_allclose(final.val_mae, expect_mae, rtol=1e-12)
        expect_loss = float(np.mean((pred - yv) ** 2)) + penalty(net, cfg.reg)
        np.testing.assert_allclose(final.val_loss, expect_loss, rtol=1e-12)

    def test_validation_never_updates_parameters(self):
        x, y = affine_batch(50, seed=1)
        xv, yv = affine_batch(10, seed=2)
        net = init_network(make_specs(1, 8, 0.0), seed=3)
        cfg = small_cfg(
            epochs=2, optimizer=OptimizerConfig(kind="sgd", learning_rate=0.0)
        )
        snap = snapshot(net)
        fit(net, x, y, xv, yv, cfg)
        assert_params_equal(net, snap)

    def test_empty_validation_rejected(self):
        x, y = affine_batch(50, seed=1)
        net = init_network(make_specs(1, 8, 0.0), seed=3)
        with pytest.raises(ConfigError):
            fit(net, x, y, np.zeros((0, 3)), np.zeros(0), small_cfg())

    def test_repeatable_run(self):
        x, y = affine_batch(100, seed=1)
        xv, yv = affine_batch(20, seed=2)
        hists = []
        for _ in range(2):
            net = init_network(make_specs(2, 8, 0.0), seed=9)
            hist = fit(net, x, y, xv, yv, small_cfg(epochs=3))
            hists.append(hist)
        assert hists[0] == hists[1]

    def test_shuffle_seed_changes_run(self):
        x, y = affine_batch(100, seed=1)
        xv, yv = affine_batch(20, seed=2)
        finals = []
        for seed in (3, 4):
            net = init_network(make_specs(2, 8, 0.0), seed=9)
            hist = fit(net, x, y, xv, yv, small_cfg(epochs=3, seed=seed))
            finals.append(hist[-1].train_loss)
        assert finals[0] != finals[1]

    def test_dropout_training_runs_and_repeats(self):
        x, y = affine_batch(100, seed=1)
        xv, yv = affine_batch(20, seed=2)
        specs = make_specs(hidden=2, units=8, dropout=0.5)
        hists = []
        for _ in range(2):
            net = init_network(specs, seed=9)
            hist = fit(net, x, y, xv, yv, small_cfg(epochs=3))
            hists.append(hist)
        assert hists[0] == hists[1]

    def test_mae_loss_mode(self):
        x, y = affine_batch(100, seed=1)
        xv, yv = affine_batch(20, seed=2)
        net = init_network(make_specs(1, 8, 0.0), seed=3)
        hist = fit(net, x, y, xv, yv, small_cfg(epochs=3, loss="mae"))
        # In MAE mode the unpenalized loss column equals the MAE column
        # on the validation side.
        np.testing.assert_allclose(
            hist[-1].val_loss, hist[-1].val_mae, rtol=1e-12
        )


    # The validation features overflow the first layer over 3 inference
    # blocks, and the helper worker's blocks overflow under fit's errstate.
    @pytest.mark.filterwarnings("error")
    def test_overflowing_validation_is_a_numeric_error(self, two_busy_workers):
        x, y = affine_batch(100, seed=1)
        xv = np.full((3 * network.INFERENCE_BLOCK_ROWS, 3), np.finfo(np.float64).max)
        net = init_network(make_specs(1, 8, 0.0), seed=3)
        with pytest.raises(NumericError, match="validation loss"):
            fit(net, x, y, xv, np.zeros(len(xv)), small_cfg(epochs=1))


class TestCrossValidate:
    def run_cv(self, k=4, jobs=1, seed=15, n=80):
        pool = affine_dataset(n, seed=21)
        specs = make_specs(hidden=1, units=8, dropout=0.0)
        cfg = small_cfg(epochs=2, batch_size=16, seed=seed)
        return cross_validate(pool, specs, k, cfg, jobs=jobs)

    def test_report_shape(self):
        histories = self.run_cv(k=4)
        assert len(histories) == 4
        assert all(isinstance(h, tuple) and len(h) == 2 for h in histories)

    def test_mean_and_std_match_fold_scores(self):
        histories = self.run_cv(k=4)
        labels, finals, bests = cv_table(histories)
        assert labels == ["0", "1", "2", "3", "mean", "std"]
        assert finals[:4].tolist() == [h[-1].val_mae for h in histories]
        assert bests[:4].tolist() == [min(e.val_mae for e in h) for h in histories]
        for column in (finals, bests):
            np.testing.assert_allclose(column[4], column[:4].mean(), rtol=1e-15)
            np.testing.assert_allclose(column[5], column[:4].std(), rtol=1e-15)

    def test_best_not_worse_than_final(self):
        for h in self.run_cv(k=4):
            assert min(e.val_mae for e in h) <= h[-1].val_mae + 1e-15

    def test_eight_folds(self):
        assert len(self.run_cv(k=8)) == 8

    def test_deterministic(self):
        a = self.run_cv(k=4)
        b = self.run_cv(k=4)
        assert a == b

    def test_threaded_run_matches_serial(self):
        serial = self.run_cv(k=4, jobs=1)
        threaded = self.run_cv(k=4, jobs=4)
        assert serial == threaded

    def test_folds_are_distinct_runs(self):
        histories = self.run_cv(k=4)
        assert len({h[-1].val_mae for h in histories}) > 1

    def test_fold_j_is_fit_datasets_on_its_documented_keys(self):
        # README's stream table: folds are dealt by (seed, "folds"), and
        # fold j is a train run whose seed is derive_seed(seed, "fold", j).
        pool = affine_dataset(80, seed=21)
        specs = make_specs(hidden=2, units=8, dropout=0.5)
        cfg = small_cfg(epochs=2, batch_size=16, seed=15)
        histories = cross_validate(pool, specs, 4, cfg, jobs=2)
        assignment = kfold_split(len(pool), 4, derive_seed(cfg.seed, "folds"))
        for j, history in enumerate(histories):
            fold_cfg = replace(cfg, seed=derive_seed(cfg.seed, "fold", j))
            train_ds, val_ds = fold_datasets(pool, assignment, j)
            expect = fit_datasets(specs, train_ds, val_ds, fold_cfg)[2]
            assert history == expect


_OPENBLAS = network._openblas_thread_fns()


@pytest.mark.skipif(
    _OPENBLAS is None,
    reason="numpy's BLAS exposes no OpenBLAS thread setter, so "
    "cross_validate leaves the BLAS thread count alone",
)
class TestBlasThreadsPerWorker:
    def record_threads_in_fit(self, monkeypatch):
        """Make every fold's fit() record the OpenBLAS thread count."""
        get_threads = _OPENBLAS[1]
        seen = []
        real_fit = train.fit

        def recording_fit(*args, **kwargs):
            seen.append(get_threads())
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(train, "fit", recording_fit)
        return seen

    def test_fold_workers_share_the_cores(self, monkeypatch):
        get_threads = _OPENBLAS[1]
        seen = self.record_threads_in_fit(monkeypatch)
        before = get_threads()
        pool = affine_dataset(80, seed=21)
        specs = make_specs(hidden=1, units=8, dropout=0.0)
        cross_validate(pool, specs, 4, small_cfg(epochs=1, batch_size=16), jobs=2)
        assert seen == [max(1, network._usable_cpus() // 2)] * 4
        assert get_threads() == before

    def test_serial_run_keeps_the_thread_count(self, monkeypatch):
        get_threads = _OPENBLAS[1]
        seen = self.record_threads_in_fit(monkeypatch)
        before = get_threads()
        pool = affine_dataset(40, seed=21)
        specs = make_specs(hidden=1, units=8, dropout=0.0)
        cross_validate(pool, specs, 2, small_cfg(epochs=1, batch_size=16), jobs=1)
        assert seen == [before] * 2

    # The overflow warnings come from the fold threads, where an
    # np.errstate entered here does not apply.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_thread_count_restored_when_a_fold_raises(self, monkeypatch):
        get_threads = _OPENBLAS[1]
        seen = self.record_threads_in_fit(monkeypatch)
        before = get_threads()
        pool = affine_dataset(80, seed=21)
        specs = make_specs(hidden=2, units=16, dropout=0.0)
        cfg = small_cfg(optimizer=OptimizerConfig(kind="sgd", learning_rate=1e12))
        with pytest.raises(NumericError, match="diverged"):
            cross_validate(pool, specs, 2, cfg, jobs=2)
        assert seen == [max(1, network._usable_cpus() // 2)] * 2
        assert get_threads() == before

    def test_cap_never_raises_the_process_setting(self, monkeypatch):
        set_threads, get_threads = _OPENBLAS
        seen = self.record_threads_in_fit(monkeypatch)
        before = get_threads()
        monkeypatch.setattr(network, "_usable_cpus", lambda: 8)
        set_threads(1)
        try:
            pool = affine_dataset(80, seed=21)
            specs = make_specs(hidden=1, units=8, dropout=0.0)
            cross_validate(pool, specs, 4, small_cfg(epochs=1, batch_size=16), jobs=2)
            assert get_threads() == 1
        finally:
            set_threads(before)
        assert seen == [1] * 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fold_validation_starts_no_thread(self, monkeypatch, jobs):
        # A fold's predict runs every block on its fold thread, at the
        # thread count cross_validate gave the folds.
        get_threads = _OPENBLAS[1]
        calls = []
        real_predict, real_forward = train.predict, network.forward

        def recording(kind, real):
            def record(*args, **kwargs):
                calls.append((kind, threading.get_ident(), get_threads()))
                return real(*args, **kwargs)
            return record

        def no_pool(*args, **kwargs):
            raise AssertionError("a fold's predict started a thread")

        monkeypatch.setattr(train, "predict", recording("predict", real_predict))
        monkeypatch.setattr(network, "forward", recording("forward", real_forward))
        monkeypatch.setattr(network, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(network, "INFERENCE_BLOCK_ROWS", 8)
        before = get_threads()
        pool = affine_dataset(80, seed=21)
        specs = make_specs(hidden=1, units=8, dropout=0.0)
        cross_validate(pool, specs, 2, small_cfg(epochs=2, batch_size=16), jobs=jobs)
        predicts = [(t, n) for kind, t, n in calls if kind == "predict"]
        blocks = [(t, n) for kind, t, n in calls if kind == "forward"]
        # 2 folds of 2 epochs, each validating 40 rows in 5 blocks.
        assert len(predicts) == 4 and len(blocks) == 20
        assert {n for _, n in predicts} == {max(1, min(before, network._usable_cpus() // jobs))}
        assert set(blocks) <= set(predicts)
        assert get_threads() == before

    def test_one_allowed_cpu_gives_one_worker_of_one_thread(
        self, monkeypatch, small_cycle_csv
    ):
        # Pinned to one CPU of a bigger machine (as under `taskset -c 0`),
        # the default --jobs and the per-worker cap count that CPU alone.
        seen = self.record_threads_in_fit(monkeypatch)
        jobs = []
        real_cross_validate = cli.cross_validate

        def recording_cross_validate(*args, **kwargs):
            jobs.append(kwargs["jobs"])
            return real_cross_validate(*args, **kwargs)

        monkeypatch.setattr(cli, "cross_validate", recording_cross_validate)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, _, err = run_cli(["crossval", "--data", str(small_cycle_csv), "--k", "2",
                                "--hidden", "1", "--units", "8", "--epochs", "1"])
        assert code == 0, err
        assert jobs == [1]
        assert seen == [1] * 2


class TestEvaluate:
    def test_constant_predictor_gives_mean_deviation(self):
        test = affine_dataset(30, seed=40)
        norm = fit_normalizer(test)
        c = 60.0
        net = Network(
            layers=(LayerSpec(3, 1, "linear"),),
            weights=[np.zeros((3, 1))],
            biases=[np.array([c])],
        )
        targets = test.soc
        expect = float(np.mean(np.abs(targets - c)))
        np.testing.assert_allclose(evaluate(net, norm, test), expect, rtol=1e-12)

    def test_matches_manual_composition(self):
        test = affine_dataset(30, seed=41)
        norm = fit_normalizer(test)
        net = init_network(make_specs(1, 8, 0.0), seed=2)
        pred = predict(net, apply_normalizer(norm, test))
        targets = test.soc
        expect = float(np.mean(np.abs(pred - targets)))
        np.testing.assert_allclose(evaluate(net, norm, test), expect, rtol=1e-15)

    def test_non_finite_prediction_raises(self):
        test = affine_dataset(30, seed=42)
        norm = fit_normalizer(test)
        # Finite weights whose output layer computes inf - inf = NaN.
        net = Network(
            layers=(LayerSpec(3, 2, "relu"), LayerSpec(2, 1, "linear")),
            weights=[np.full((3, 2), 1e308), np.array([[1.0], [-1.0]])],
            biases=[np.zeros(2), np.zeros(1)],
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match="non-finite"
        ):
            evaluate(net, norm, test)

    def test_empty_test_rejected(self):
        norm = fit_normalizer(affine_dataset(10, seed=0))
        net = init_network(make_specs(1, 4, 0.0), seed=1)
        with pytest.raises(ConfigError):
            evaluate(net, norm, dataset_from_rows([]))
