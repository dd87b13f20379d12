"""Shared fixtures and helpers for the test suite."""

import contextlib
import io
import threading

import numpy as np
import pytest

from socdfn.battsim import CellParams, CycleConfig, synth_dataset
from socdfn.cli import main
from socdfn.data import Dataset
from socdfn import network
from socdfn.network import data_loss, forward, penalty


def run_cli(argv):
    """Invoke the CLI in-process and capture its streams.

    Returns (exit_code, stdout_text, stderr_text).  Capturing through
    StringIO keeps the helper independent of pytest's own capture mode.
    """
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits instead of returning
            code = exc.code if exc.code is not None else 0
    return code, out.getvalue(), err.getvalue()


def dataset_from_rows(rows):
    """Dataset from (t, voltage, current, temperature, soc) row tuples."""
    return Dataset(*np.array(rows, dtype=np.float64).reshape(-1, 5).T)


def rows_of(dataset):
    """(n, 5) array of a dataset's rows, for whole-dataset comparisons."""
    return np.column_stack(dataset.columns)


def objective_value(net, x, y, reg, loss_kind, dropout):
    """Full training objective for one batch.

    dropout is None or a zero-argument factory of freshly seeded
    streams, so every call draws the same dropout masks.
    """
    pred, _ = forward(net, x, mode="train", dropout_rng=dropout and dropout())
    return data_loss(pred, y, loss_kind) + penalty(net, reg)


def fd_gradient(net, x, y, reg, loss_kind="mse", dropout=None, step=1e-7):
    """Central-difference gradient of the objective, one parameter at a time.

    This is the independent oracle for the analytic backward pass: it
    only ever calls the forward path. dropout is as in objective_value.
    """
    dweights = []
    dbiases = []
    for arrays, out in ((net.weights, dweights), (net.biases, dbiases)):
        for arr in arrays:
            grad = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                hi = objective_value(net, x, y, reg, loss_kind, dropout)
                flat[idx] = orig - step
                lo = objective_value(net, x, y, reg, loss_kind, dropout)
                flat[idx] = orig
                gflat[idx] = (hi - lo) / (2.0 * step)
            out.append(grad)
    return dweights, dbiases


@pytest.fixture(scope="session")
def small_cycle():
    """A 1200 second synthetic discharge log shared by slow-ish tests."""
    cell = CellParams()
    cycle = CycleConfig(duration_s=1200.0, dt_s=1.0, seed=11)
    return synth_dataset(cell, cycle, soc0_pct=90.0)


@pytest.fixture(scope="session")
def small_cycle_csv(small_cycle, tmp_path_factory):
    from socdfn.data import write_csv

    path = tmp_path_factory.mktemp("data") / "small_cycle.csv"
    write_csv(small_cycle, path)
    return path


@pytest.fixture
def two_workers(monkeypatch):
    """predict runs its blocks on two threads whatever the host's BLAS."""
    monkeypatch.setattr(network, "_row_workers", lambda blocks: min(2, blocks))


@pytest.fixture
def two_busy_workers(monkeypatch, two_workers):
    """Two predict workers, each held at its first block until the other has one.

    Otherwise a fast worker can take every block before the other
    starts. For one predict call of at least two blocks.
    """
    barrier = threading.Barrier(2, timeout=10.0)
    started = threading.local()
    real = network.forward

    def forward_on_both(*args, **kwargs):
        if not getattr(started, "done", False):
            started.done = True
            barrier.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "forward", forward_on_both)
