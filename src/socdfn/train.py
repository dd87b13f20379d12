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
from dataclasses import dataclass

import numpy as np

from .data import (
    Dataset,
    Normalizer,
    apply_normalizer,
    batch_iter,
    fit_normalizer,
    fold_datasets,
    kfold_split,
)
from .errors import ConfigError, NumericError
from .network import (
    Network,
    RegConfig,
    StepBuffers,
    backward,
    data_loss,
    forward,
    init_network,
    loss_mae,
    penalty,
    predict,
    require_finite_predictions,
)
from .optimize import OptimizerConfig, OptimizerState, apply_update, init_state
from .rng import check_seed, shift_seed, substream

# Fold shuffle seeds are spaced far enough apart that per-epoch offsets
# (shuffle_seed + epoch) can never collide across folds.
_FOLD_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    optimizer: OptimizerConfig
    reg: RegConfig
    shuffle_seed: int
    loss: str = "mse"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        check_seed(self.shuffle_seed)


@dataclass(frozen=True)
class EpochMetrics:
    train_loss: float
    train_mae: float
    val_loss: float
    val_mae: float


@dataclass(frozen=True)
class RunHistory:
    epochs: tuple[EpochMetrics, ...]

    def __len__(self) -> int:
        return len(self.epochs)

    @property
    def final(self) -> EpochMetrics:
        return self.epochs[-1]

    def val_mae_curve(self) -> np.ndarray:
        return np.array([e.val_mae for e in self.epochs])

    def gap_curve(self) -> np.ndarray:
        """Per-epoch generalization gap, val_mae - train_mae."""
        return np.array([e.val_mae - e.train_mae for e in self.epochs])

    def best_val_mae(self) -> float:
        return float(min(e.val_mae for e in self.epochs))


@dataclass(frozen=True)
class CVReport:
    k: int
    per_fold_histories: tuple[RunHistory, ...]
    per_fold_final_val_mae: tuple[float, ...]
    per_fold_best_val_mae: tuple[float, ...]
    mean_val_mae: float
    std_val_mae: float


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error in the target's units (SOC percent here)."""
    return loss_mae(pred, target)


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
    dropout_rng: np.random.Generator | None = None,
) -> tuple[Network, OptimizerState, EpochMetrics]:
    """One pass over all batches; returns size-weighted train metrics.

    Batch order reshuffles per epoch from shuffle_seed + epoch, and the
    dropout stream is keyed on (shuffle_seed, "dropout", epoch) unless an
    explicit generator is supplied. Every batch's forward, backward and
    update reuse the arrays of one StepBuffers, which is freed when the
    epoch ends, so it does not add to the memory of fit's validation
    pass. Validation fields of the returned metrics are NaN; fit() fills
    them in.
    """
    buffers = StepBuffers()
    if dropout_rng is None:
        dropout_rng = substream(cfg.shuffle_seed, "dropout", epoch)
    epoch_seed = shift_seed(cfg.shuffle_seed, epoch)
    loss_sum = 0.0
    mae_sum = 0.0
    n_rows = 0
    for batch in batch_iter(x, y, cfg.batch_size, shuffle_seed=epoch_seed):
        _, cache = forward(
            net, batch.x, mode="train", dropout_rng=dropout_rng, buffers=buffers
        )
        grads, objective = backward(
            net, cache, batch.y, cfg.reg, cfg.loss, buffers=buffers
        )
        _check_finite(objective, "training loss")
        b = batch.x.shape[0]
        loss_sum += objective * b
        mae_sum += loss_mae(cache.pred, batch.y) * b
        n_rows += b
        net, opt_state = apply_update(
            opt_state, net, grads, cfg.optimizer, buffers=buffers
        )
    metrics = EpochMetrics(
        train_loss=loss_sum / n_rows,
        train_mae=mae_sum / n_rows,
        val_loss=math.nan,
        val_mae=math.nan,
    )
    return net, opt_state, metrics


def _validation_metrics(
    net: Network, x_val: np.ndarray, y_val: np.ndarray, cfg: TrainConfig
) -> tuple[float, float]:
    pred = predict(net, x_val)
    loss = _check_finite(
        data_loss(pred, y_val, cfg.loss) + penalty(net, cfg.reg), "validation loss"
    )
    return loss, loss_mae(pred, y_val)


def fit(
    net: Network,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    cfg: TrainConfig,
) -> tuple[Network, RunHistory]:
    """Train for cfg.epochs epochs, recording one EpochMetrics per epoch."""
    if y_val.shape[0] < 1:
        raise ConfigError("validation set must be non-empty")
    opt_state = init_state(net)
    history = []
    for epoch in range(cfg.epochs):
        net, opt_state, train_metrics = train_epoch(
            net, opt_state, x_train, y_train, cfg, epoch=epoch
        )
        val_loss, val_mae = _validation_metrics(net, x_val, y_val, cfg)
        history.append(
            EpochMetrics(
                train_loss=train_metrics.train_loss,
                train_mae=train_metrics.train_mae,
                val_loss=val_loss,
                val_mae=val_mae,
            )
        )
    return net, RunHistory(epochs=tuple(history))


def _run_fold(
    pool: Dataset,
    assignment,
    fold: int,
    specs,
    cfg: TrainConfig,
    seed: int,
) -> RunHistory:
    train_ds, val_ds = fold_datasets(pool, assignment, fold)
    norm = fit_normalizer(train_ds)
    x_tr = apply_normalizer(norm, train_ds)
    y_tr = train_ds.soc
    x_va = apply_normalizer(norm, val_ds)
    y_va = val_ds.soc
    fold_net = init_network(specs, shift_seed(seed, 1 + fold))
    fold_cfg = TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        optimizer=cfg.optimizer,
        reg=cfg.reg,
        shuffle_seed=shift_seed(cfg.shuffle_seed, fold * _FOLD_SEED_STRIDE),
        loss=cfg.loss,
    )
    _, history = fit(fold_net, x_tr, y_tr, x_va, y_va, fold_cfg)
    return history


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


@contextlib.contextmanager
def _blas_threads_per_worker(workers: int):
    """Share the cores among `workers` threads that each call BLAS.

    Without this every fold thread's matmuls start OpenBLAS's full
    thread team, and the teams fight over the same cores. The count is
    process-wide, so it is put back when the block exits, normally or
    by an exception.
    """
    fns = _openblas_thread_fns()
    if fns is None:
        yield
        return
    set_threads, get_threads = fns
    previous = get_threads()
    set_threads(max(1, (os.cpu_count() or 1) // workers))
    try:
        yield
    finally:
        set_threads(previous)


def cross_validate(
    pool: Dataset,
    specs,
    k: int,
    cfg: TrainConfig,
    seed: int,
    jobs: int = 1,
) -> CVReport:
    """K-fold run: fresh seeded network per fold, normalizer refit per fold.

    The fold score is the final-epoch validation MAE; the best epoch's
    value is reported alongside. Folds are independent, so jobs > 1 runs
    them in a thread pool. While the pool runs, OpenBLAS gets
    cpu_count // workers threads per worker. Its threaded matrix-vector
    product can round the last bit of a prediction differently at
    another thread count, so a score can, rarely, differ from the
    jobs=1 value in its last bit.
    """
    check_seed(seed)
    assignment = kfold_split(len(pool), k, seed)
    folds = range(k)
    if jobs > 1:
        workers = min(jobs, k)
        with _blas_threads_per_worker(workers), ThreadPoolExecutor(
            max_workers=workers
        ) as pool_exec:
            histories = list(
                pool_exec.map(
                    lambda j: _run_fold(pool, assignment, j, specs, cfg, seed), folds
                )
            )
    else:
        histories = [_run_fold(pool, assignment, j, specs, cfg, seed) for j in folds]
    finals = tuple(h.final.val_mae for h in histories)
    bests = tuple(h.best_val_mae() for h in histories)
    return CVReport(
        k=k,
        per_fold_histories=tuple(histories),
        per_fold_final_val_mae=finals,
        per_fold_best_val_mae=bests,
        mean_val_mae=float(np.mean(finals)),
        std_val_mae=float(np.std(finals)),
    )


def evaluate(net: Network, norm: Normalizer, test: Dataset) -> float:
    """Inference-mode test MAE, unclamped; non-finite predictions raise.

    That error reports the overflow, so numpy's own warnings about it
    are silenced.
    """
    if len(test) == 0:
        raise ConfigError("test set must be non-empty")
    x = apply_normalizer(norm, test)
    with np.errstate(over="ignore", invalid="ignore"):
        pred = predict(net, x)
    return mae(require_finite_predictions(pred), test.soc)
