"""Training loops, metrics, learning-curve recording, and K-fold runs.

Epoch-level reporting follows the usual training-framework convention:
train loss/MAE are averaged over the epoch's batches as they are
processed (so dropout and the regularization penalty are included),
while validation metrics come from a single inference-mode pass after
the epoch. Losses include the L1/L2 penalty on both sides; MAE columns
are pure mean absolute error in SOC percentage points.
"""

import contextlib
import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    Dataset,
    Normalizer,
    apply_normalizer,
    batch_iter,
    fit_normalizer,
    fold_datasets,
    kfold_split,
    split_holdout,
)
from .errors import ConfigError, NumericError, check_choice, check_range
from .network import (
    LOSS_KINDS,
    Network,
    RegConfig,
    StepBuffers,
    backward,
    data_loss,
    forward,
    init_network,
    penalty,
    predict,
    predict_finite,
)
from .optimize import OptimizerConfig, OptimizerState, apply_update, init_state
from .rng import check_seed, derive_seed, substream


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    optimizer: OptimizerConfig
    reg: RegConfig
    seed: int
    loss: str = "mse"

    def __post_init__(self):
        check_range("epochs", self.epochs, ">= 1")
        check_range("batch_size", self.batch_size, ">= 1")
        check_choice("loss", self.loss, LOSS_KINDS)
        check_seed(self.seed)


@dataclass(frozen=True)
class EpochMetrics:
    train_loss: float
    train_mae: float
    val_loss: float
    val_mae: float


def _check_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NumericError(f"non-finite {what} ({value!r}); training diverged")
    return value


def train_epoch(
    net: Network,
    opt_state: OptimizerState,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    epoch: int = 0,
) -> tuple[float, float]:
    """One pass over all batches, updating net and opt_state in place.

    Returns the size-weighted (train_loss, train_mae) of the epoch. The
    batch order and dropout masks come from the (cfg.seed, "shuffle",
    epoch) and (cfg.seed, "dropout", epoch) streams, so an epoch's
    streams do not depend on the epoch count. Every batch's forward,
    backward and update reuse the arrays of one StepBuffers, which is
    freed when the epoch ends, so it does not add to the memory of
    fit's validation pass.
    """
    buffers = StepBuffers()
    dropout_rng = substream(cfg.seed, "dropout", epoch)
    epoch_seed = derive_seed(cfg.seed, "shuffle", epoch)
    loss_sum = 0.0
    mae_sum = 0.0
    for xb, yb in batch_iter(x, y, cfg.batch_size, shuffle_seed=epoch_seed):
        _, cache = forward(
            net, xb, mode="train", dropout_rng=dropout_rng, buffers=buffers
        )
        grads, objective = backward(net, cache, yb, cfg.reg, cfg.loss, buffers=buffers)
        _check_finite(objective, "training loss")
        b = xb.shape[0]
        loss_sum += objective * b
        mae_sum += data_loss(cache.pred, yb, "mae") * b
        apply_update(opt_state, net, grads, cfg.optimizer, buffers=buffers)
    return loss_sum / len(y), mae_sum / len(y)


def _validation_metrics(
    net: Network, x_val: np.ndarray, y_val: np.ndarray, cfg: TrainConfig
) -> tuple[float, float]:
    pred = predict(net, x_val)
    loss = _check_finite(
        data_loss(pred, y_val, cfg.loss) + penalty(net, cfg.reg), "validation loss"
    )
    return loss, data_loss(pred, y_val, "mae")


def fit(
    net: Network,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    cfg: TrainConfig,
) -> tuple[EpochMetrics, ...]:
    """Train net in place for cfg.epochs epochs, one EpochMetrics per epoch.

    A diverging run raises NumericError, so numpy's overflow and invalid
    value warnings are silenced here rather than by callers: an errstate
    does not reach cross_validate's fold threads.
    """
    if y_val.shape[0] < 1:
        raise ConfigError("validation set must be non-empty")
    opt_state = init_state(net)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            train = train_epoch(net, opt_state, x_train, y_train, cfg, epoch=epoch)
            val = _validation_metrics(net, x_val, y_val, cfg)
            history.append(EpochMetrics(*train, *val))
    return tuple(history)


def holdout(
    dataset: Dataset, train_frac: float, val_frac: float, seed: int, shuffle: bool = True
) -> tuple[Dataset, Dataset, Dataset]:
    """split_holdout with its shuffle drawn from the (seed, "split") stream."""
    seed = derive_seed(seed, "split")
    return split_holdout(dataset, train_frac, val_frac, seed=seed, shuffle=shuffle)


def fit_datasets(
    specs, train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig
) -> tuple[Network, Normalizer, tuple[EpochMetrics, ...]]:
    """Fit a network initialized from the (cfg.seed, "init") stream.

    Both splits are normalized by train_ds's statistics.
    """
    norm = fit_normalizer(train_ds)
    x_train, x_val = (apply_normalizer(norm, ds) for ds in (train_ds, val_ds))
    net = init_network(specs, derive_seed(cfg.seed, "init"))
    return net, norm, fit(net, x_train, train_ds.soc, x_val, val_ds.soc, cfg)


def _openblas_thread_fns():
    """(set, get) of the thread count of the OpenBLAS numpy links, or None.

    Looked up in numpy's BLAS-linked extension module; dlsym on its
    handle also searches the libraries it depends on. Other BLAS builds
    (MKL, Accelerate) and platforms without these symbols give None.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return setter, getter
    return None


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask, not the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _blas_threads_per_worker(workers: int):
    """Share the cores among `workers` threads that each call BLAS.

    Without this every fold thread's matmuls start OpenBLAS's full
    thread team, and the teams fight over the same cores. The cap never
    raises the count above the process's own setting. The count is
    process-wide, so it is put back when the block exits, normally or
    by an exception.
    """
    fns = _openblas_thread_fns()
    if fns is None:
        yield
        return
    set_threads, get_threads = fns
    previous = get_threads()
    set_threads(max(1, min(previous, _usable_cpus() // workers)))
    try:
        yield
    finally:
        set_threads(previous)


def check_jobs(jobs: int) -> None:
    check_range("jobs", jobs, ">= 1")


def cross_validate(
    pool: Dataset, specs, k: int, cfg: TrainConfig, jobs: int = 1
) -> tuple[tuple[EpochMetrics, ...], ...]:
    """K-fold run: fresh seeded network per fold, normalizer refit per fold.

    Returns the fold histories in fold order. Rows are dealt to folds by
    the (cfg.seed, "folds") stream, and fold j runs fit_datasets with
    cfg.seed replaced by derive_seed(cfg.seed, "fold", j). Folds are
    independent, so they run in a pool of W = min(jobs, k) threads, with
    the same histories for any W. While the pool runs, OpenBLAS gets
    C // W threads per worker, at least one and at most its own setting,
    where C counts the CPUs this process may run on.
    """
    check_jobs(jobs)
    assignment = kfold_split(len(pool), k, derive_seed(cfg.seed, "folds"))

    def run_fold(j: int) -> tuple[EpochMetrics, ...]:
        fold_cfg = replace(cfg, seed=derive_seed(cfg.seed, "fold", j))
        return fit_datasets(specs, *fold_datasets(pool, assignment, j), fold_cfg)[2]

    workers = min(jobs, k)
    with _blas_threads_per_worker(workers), ThreadPoolExecutor(workers) as ex:
        return tuple(ex.map(run_fold, range(k)))


def evaluate(net: Network, norm: Normalizer, test: Dataset) -> float:
    """Inference-mode test MAE of predict_finite's unclamped predictions."""
    return data_loss(predict_finite(net, norm, test), test.soc, "mae")
