"""Dense feedforward regression network with hand-derived backpropagation.

Layers compute z = x @ W + b followed by an activation (ReLU for hidden
layers, linear for the scalar output). Inverted dropout after a hidden
layer zeroes activations with probability `dropout_after` and scales the
survivors by 1/keep at train time, so inference needs no correction.
The training objective is the data loss (MSE by default, MAE optional)
plus L1/L2 penalties on weights only; biases are never penalized and the
L1 subgradient at exactly zero is taken as zero.
"""

# Annotations stay strings: forward's np.random.Generator loads no numpy.random.
from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import FEATURE_NAMES, Dataset, Normalizer, apply_normalizer
from .errors import (
    ConfigError, ContractError, NumericError, ShapeError, check_choice, check_range,
)
from .rng import make_rng

ACTIVATIONS = ("relu", "linear")
LOSS_KINDS = ("mse", "mae")
# Rows per inference block in predict(): 512 x 256 float64 is 1 MB, so
# one worker's two layer arrays fit a core's 2 MB L2 cache from the
# matrix product through the bias add and the ReLU.
INFERENCE_BLOCK_ROWS = 512


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"
    dropout_after: float = 0.0

    def __post_init__(self):
        check_range("in_dim", self.in_dim, ">= 1")
        check_range("out_dim", self.out_dim, ">= 1")
        check_choice("activation", self.activation, ACTIVATIONS)
        check_range("dropout_after", self.dropout_after, "in [0, 1)")
        object.__setattr__(self, "in_dim", int(self.in_dim))
        object.__setattr__(self, "out_dim", int(self.out_dim))
        object.__setattr__(self, "dropout_after", float(self.dropout_after))


@dataclass(frozen=True)
class RegConfig:
    l1: float = 0.0
    l2: float = 0.0

    def __post_init__(self):
        check_range("l1", self.l1, "non-negative")
        check_range("l2", self.l2, "non-negative")


@dataclass(eq=False)
class Network:
    """Layer specs plus live parameter arrays.

    Every weight and bias is a view into one contiguous float64 vector,
    `flat`, laid out W0, b0, W1, b1, ...; `layout` lists those shapes.
    The constructor copies the arrays it is given, so a network never
    aliases its caller's memory. `weights` and `biases` are tuples:
    change a parameter by writing into its view
    (`net.weights[i][...] = w`), then bump `version`. Forward caches
    record `version` so backward can refuse to run against parameters
    that changed after the cached pass.
    """

    layers: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    version: int = field(default=0, init=False)
    flat: np.ndarray = field(init=False, repr=False)
    layout: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        for i in range(len(self.layers) - 1):
            if self.layers[i].out_dim != self.layers[i + 1].in_dim:
                raise ShapeError(
                    f"layer {i} out_dim {self.layers[i].out_dim} does not chain "
                    f"into layer {i + 1} in_dim {self.layers[i + 1].in_dim}"
                )
        last = self.layers[-1]
        if last.activation != "linear" or last.out_dim != 1:
            raise ConfigError(
                "final layer must be linear with out_dim 1 for scalar regression"
            )
        if len(self.weights) != len(self.layers) or len(self.biases) != len(
            self.layers
        ):
            raise ShapeError(
                f"{len(self.layers)} layers but {len(self.weights)} weight and "
                f"{len(self.biases)} bias arrays"
            )
        for i, (spec, w, b) in enumerate(zip(self.layers, self.weights, self.biases)):
            if w.shape != (spec.in_dim, spec.out_dim):
                raise ShapeError(
                    f"layer {i} weights {w.shape} do not match spec "
                    f"({spec.in_dim}, {spec.out_dim})"
                )
            if b.shape != (spec.out_dim,):
                raise ShapeError(
                    f"layer {i} biases {b.shape} do not match spec "
                    f"({spec.out_dim},)"
                )
        self.flat, self.layout, self.weights, self.biases = _pack(
            self.weights, self.biases
        )


@dataclass(eq=False)
class GradientSet:
    """Per-layer gradients, laid out like Network parameters.

    dweights/dbiases are views into one flat vector, `flat`, with the
    same order and `layout` as Network.flat, so an update rule works on
    the whole vector at once. The constructor copies the arrays it is
    given.
    """

    dweights: tuple[np.ndarray, ...]
    dbiases: tuple[np.ndarray, ...]
    flat: np.ndarray = field(init=False, repr=False)
    layout: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.dweights) != len(self.dbiases):
            raise ShapeError(
                f"{len(self.dweights)} weight gradients but "
                f"{len(self.dbiases)} bias gradients"
            )
        self.flat, self.layout, self.dweights, self.dbiases = _pack(
            self.dweights, self.dbiases
        )

    @classmethod
    def zeros_like(cls, net: Network) -> "GradientSet":
        return cls(
            dweights=[np.broadcast_to(0.0, w.shape) for w in net.weights],
            dbiases=[np.broadcast_to(0.0, b.shape) for b in net.biases],
        )


def _pack(weights, biases):
    """Copy per-layer weights and biases into one new flat vector.

    Returns (flat, layout, weight views, bias views); the vector holds
    W0, b0, W1, b1, ... in that order.
    """
    arrays = [a for pair in zip(weights, biases) for a in pair]
    layout = tuple(np.shape(a) for a in arrays)
    flat = np.zeros(sum(math.prod(shape) for shape in layout))
    views = []
    start = 0
    for shape, a in zip(layout, arrays):
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        views[-1][...] = a
        start = stop
    return flat, layout, tuple(views[0::2]), tuple(views[1::2])


@dataclass(eq=False)
class ForwardCache:
    """Everything backward needs to replay one train-mode pass exactly."""

    mode: str
    inputs: list[np.ndarray] = field(default_factory=list)
    pre_acts: list[np.ndarray] = field(default_factory=list)
    masks: list[np.ndarray | None] = field(default_factory=list)
    pred: np.ndarray | None = None
    net: Network | None = None
    net_version: int = -1


class StepBuffers:
    """Arrays that training steps and inference blocks reuse.

    Forward, backward, penalty and the optimize update rules write their
    layer arrays, masks, deltas, gradients and scratch vectors here, so
    the next call with the same buffers overwrites what a call returned.
    Without buffers a call uses a fresh StepBuffers, so no later call
    touches its results. One train_epoch call or predict worker owns
    one; it is not shared between threads.
    """

    def __init__(self):
        self._kept = {}

    def array(self, name, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous float64 view of the first prod(shape) items kept for name.

        Each name keeps one flat array, replaced by a larger one when a
        larger shape is asked for, so an epoch's short last batch and
        predict's smaller blocks reuse the arrays of a larger one.
        """
        size = math.prod(shape)
        flat = self._kept.get(name)
        if flat is None or flat.size < size:
            flat = self._kept[name] = np.empty(size)
        return flat[:size].reshape(shape)

    def gradients(self, net: Network) -> GradientSet:
        key = ("gradients", net.layout)
        grads = self._kept.get(key)
        if grads is None:
            grads = self._kept[key] = GradientSet.zeros_like(net)
        return grads


def make_specs(hidden: int, units: int, dropout: float) -> tuple[LayerSpec, ...]:
    """Build a layer stack over the FEATURE_NAMES inputs from a hidden-layer count.

    The count follows the common convention of counting dropout layers:
    with dropout > 0 each pair is one dense hidden layer followed by one
    dropout layer, so `hidden` must be even and yields hidden/2 dense
    layers. With dropout == 0 every hidden layer is dense.
    """
    check_range("hidden layer count", hidden, ">= 1")
    check_range("units", units, ">= 1")
    check_range("dropout", dropout, "in [0, 1)")
    if dropout > 0.0 and hidden % 2 != 0:
        raise ConfigError(
            f"with dropout, hidden={hidden} must be even: each dense layer "
            "pairs with one dropout layer"
        )
    widths = [len(FEATURE_NAMES)] + [units] * (hidden // 2 if dropout > 0.0 else hidden)
    dense = (LayerSpec(a, b, "relu", dropout) for a, b in zip(widths, widths[1:]))
    return (*dense, LayerSpec(widths[-1], 1, "linear"))


def init_network(specs, seed: int) -> Network:
    """He-style init: W ~ Normal(0, sqrt(2/in_dim)), biases zero."""
    specs = tuple(specs)
    rng = make_rng(seed)
    weights = []
    biases = []
    for spec in specs:
        scale = math.sqrt(2.0 / spec.in_dim)
        weights.append(rng.normal(0.0, scale, size=(spec.in_dim, spec.out_dim)))
        biases.append(np.zeros(spec.out_dim, dtype=np.float64))
    return Network(layers=specs, weights=weights, biases=biases)


def _check_input(net: Network, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    in_dim = net.layers[0].in_dim
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ShapeError(
            f"input {x.shape} does not match network input width ({in_dim})"
        )
    return x


def forward(
    net: Network,
    x: np.ndarray,
    mode: str = "inference",
    dropout_rng: np.random.Generator | None = None,
    buffers: StepBuffers | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack; returns (predictions, cache).

    In train mode, dropout masks are drawn from dropout_rng layer by
    layer, so a generator seeded afresh draws the same masks on every
    call. Inference mode is a pure function of (net, x); its cache
    holds no per-layer arrays.
    """
    buffers = buffers or StepBuffers()
    check_choice("mode", mode, ("train", "inference"))
    x = _check_input(net, x)
    has_dropout = any(spec.dropout_after > 0.0 for spec in net.layers)
    if mode == "train" and has_dropout and dropout_rng is None:
        raise ContractError("train-mode forward with dropout needs a seeded stream")

    cache = ForwardCache(mode=mode, net=net, net_version=net.version)
    a = x
    for li, spec in enumerate(net.layers):
        shape = (x.shape[0], spec.out_dim)
        w = net.weights[li]
        z = buffers.array(("z", li), shape)
        if spec.out_dim == 1:
            # einsum's row dot products round the same at any BLAS thread
            # count; OpenBLAS's threaded matrix-vector product does not.
            np.einsum("ij,j->i", a, w[:, 0], out=z[:, 0])
        else:
            np.matmul(a, w, out=z)
        z += net.biases[li]
        if mode == "inference":
            # Nothing replays an inference pass: activate in place and
            # keep no per-layer arrays.
            a = np.maximum(z, 0.0, out=z) if spec.activation == "relu" else z
            continue
        cache.inputs.append(a)
        cache.pre_acts.append(z)
        if spec.activation == "relu":
            a = np.maximum(z, 0.0, out=buffers.array(("a", li), shape))
        else:
            a = z
        mask = None
        if spec.dropout_after > 0.0:
            keep = 1.0 - spec.dropout_after
            mask = dropout_rng.random(out=buffers.array(("mask", li), shape))
            np.less(mask, keep, out=mask)
            # (a * mask) / keep; with ReLU this overwrites a in place.
            a = np.multiply(a, mask, out=buffers.array(("a", li), shape))
            a /= keep
        cache.masks.append(mask)
    pred = a[:, 0]
    cache.pred = pred
    return pred, cache


def data_loss(pred: np.ndarray, target: np.ndarray, kind: str) -> float:
    """Mean squared ("mse") or mean absolute ("mae") error of 1-D arrays."""
    check_choice("loss", kind, LOSS_KINDS)
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 1:
        raise ShapeError(f"pred {pred.shape} and target {target.shape} must match")
    diff = target - pred
    if kind == "mse":
        return float(np.mean(diff * diff))
    return float(np.mean(np.abs(diff)))


def penalty(net: Network, reg: RegConfig, buffers: StepBuffers | None = None) -> float:
    """l2 * sum of squared weights + l1 * sum of absolute weights."""
    if reg.l1 == 0.0 and reg.l2 == 0.0:
        return 0.0
    buffers = buffers or StepBuffers()
    sum_sq = 0.0
    sum_abs = 0.0
    for li, w in enumerate(net.weights):
        scratch = buffers.array(("reg", li), w.shape)
        sum_sq += float(np.sum(np.multiply(w, w, out=scratch)))
        sum_abs += float(np.sum(np.abs(w, out=scratch)))
    return reg.l2 * sum_sq + reg.l1 * sum_abs


def backward(
    net: Network,
    cache: ForwardCache,
    target: np.ndarray,
    reg: RegConfig,
    loss_kind: str = "mse",
    buffers: StepBuffers | None = None,
) -> tuple[GradientSet, float]:
    """Gradients of [data loss + penalties] for every weight and bias.

    The cache must come from a train-mode forward against the current
    parameters; dropout masks recorded there are replayed exactly, and
    the cache's arrays are left as they were. Returns the gradient set
    and the full objective value.
    """
    buffers = buffers or StepBuffers()
    if cache.mode != "train":
        raise ContractError("backward needs a train-mode forward cache")
    if cache.net is not net or cache.net_version != net.version:
        raise ContractError(
            "forward cache is stale: parameters changed since the cached pass"
        )
    if len(cache.inputs) != len(net.layers):
        raise ContractError(
            f"cache covers {len(cache.inputs)} layers, network has "
            f"{len(net.layers)}"
        )
    target = np.asarray(target, dtype=np.float64)
    pred = cache.pred
    if target.shape != pred.shape:
        raise ShapeError(f"target {target.shape} does not match pred {pred.shape}")
    n = pred.shape[0]

    base = data_loss(pred, target, loss_kind)
    dpred = np.subtract(pred, target, out=buffers.array("dpred", (n,)))
    if loss_kind == "mse":
        dpred *= 2.0 / n
    else:
        np.sign(dpred, out=dpred)
        dpred /= n

    grads = buffers.gradients(net)
    # grad is the delta arriving at layer li's output. It is always an
    # array this call owns, so masking and the ReLU derivative are
    # applied in place, turning it into dz. A ReLU layer's output, the
    # next layer's input, is positive exactly where z > 0 and the
    # dropout mask keeps the unit, so one test applies both; factors of
    # 0 and 1 are exact, so only the 1/keep scale rounds.
    grad = dpred[:, None]
    for li in range(len(net.layers) - 1, -1, -1):
        spec = net.layers[li]
        w = net.weights[li]
        if spec.activation == "relu":
            grad *= cache.inputs[li + 1] > 0.0
        elif cache.masks[li] is not None:
            grad *= cache.masks[li]
        if cache.masks[li] is not None:
            grad /= 1.0 - spec.dropout_after
        dw = np.matmul(cache.inputs[li].T, grad, out=grads.dweights[li])
        if reg.l2 > 0.0:
            dw += np.multiply(2.0 * reg.l2, w, out=buffers.array(("reg", li), w.shape))
        if reg.l1 > 0.0:
            scratch = np.sign(w, out=buffers.array(("reg", li), w.shape))
            scratch *= reg.l1
            dw += scratch
        np.sum(grad, axis=0, out=grads.dbiases[li])
        if li > 0:
            out = buffers.array(("grad", li - 1), (n, spec.in_dim))
            if spec.out_dim == 1:
                # A one-column product is an outer product: each element
                # is one exact product, which a k=1 matmul only slows down.
                grad = np.multiply(grad, w.T, out=out)
            else:
                grad = np.matmul(grad, w.T, out=out)
    return grads, base + penalty(net, reg, buffers)


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Inference-mode forward on an already-normalized feature matrix.

    Runs in near-equal blocks of at most INFERENCE_BLOCK_ROWS rows, so
    each hidden-layer array stays cache-sized whatever the row count.
    No block has one row unless x does: numpy sends a one-row
    product to BLAS's matrix-vector routine, which rounds differently
    from the matrix product, so the bits equal one forward over x. The
    larger blocks come first, and each worker takes the next block in
    row order, so every block a worker runs fits the buffers of its
    first one.

    The blocks run on _row_workers(blocks) threads, the calling one
    among them, each with one OpenBLAS thread; the process-wide count is
    put back afterwards, also when a block raises. Every worker runs in
    a copy of the caller's context, so an np.errstate entered around
    this call reaches it. A row's bits do not depend on the worker count.
    """
    x = _check_input(net, x)
    n = x.shape[0]
    pred = np.empty(n, dtype=np.float64)
    blocks = max(1, -(-n // INFERENCE_BLOCK_ROWS))
    size, larger = divmod(n, blocks)
    todo = iter(range(blocks))

    def run_blocks():
        buffers = StepBuffers()
        for j in todo:
            start = j * size + min(j, larger)
            rows = slice(start, start + size + (j < larger))
            pred[rows], _ = forward(net, x[rows], mode="inference", buffers=buffers)

    workers = _row_workers(blocks)
    if workers == 1:
        run_blocks()
        return pred
    with _blas_thread_cap(1), ThreadPoolExecutor(workers - 1) as pool:
        helpers = [
            pool.submit(contextvars.copy_context().run, run_blocks)
            for _ in range(workers - 1)
        ]
        run_blocks()
        for helper in helpers:
            helper.result()
    return pred


def _row_workers(blocks: int) -> int:
    """Threads predict runs its blocks on: OpenBLAS's thread count, at most blocks.

    Only on the main thread: a predict in a crossval fold thread, or
    with one BLAS thread or another BLAS, runs its blocks serially.
    """
    fns = _openblas_thread_fns()
    if fns is None or blocks < 2 or threading.current_thread() is not threading.main_thread():
        return 1
    return min(fns[1](), blocks)


@functools.cache
def _openblas_thread_fns():
    """(set, get) of the thread count of the OpenBLAS numpy links, or None.

    Looked up once per process in numpy's BLAS-linked extension module;
    dlsym on its handle also searches the libraries it depends on. Other
    BLAS builds (MKL, Accelerate) and platforms without these symbols
    give None.
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
def _blas_thread_cap(cap: int):
    """Cap OpenBLAS's thread count at cap for the block; it is never raised.

    The count is process-wide, so it is put back when the block exits,
    normally or by an exception. Without OpenBLAS this does nothing.
    """
    fns = _openblas_thread_fns()
    if fns is None:
        yield
        return
    set_threads, get_threads = fns
    previous = get_threads()
    set_threads(min(previous, cap))
    try:
        yield
    finally:
        set_threads(previous)


def _blas_threads_per_worker(workers: int):
    """Share the cores among `workers` threads that each call BLAS.

    Without this every worker's matmuls start OpenBLAS's full thread
    team, and the teams fight over the same cores.
    """
    return _blas_thread_cap(max(1, _usable_cpus() // workers))


def predict_finite(net: Network, norm: Normalizer, dataset: Dataset) -> np.ndarray:
    """Unclamped inference predictions for the dataset's normalized features.

    Non-finite predictions, where finite weights overflowed, raise
    NumericError, since a NaN would pass predict_soc's clamp. That error
    reports the overflow, so numpy's own warnings about it are silenced.
    """
    if norm is None:
        raise ContractError("prediction needs a fitted normalizer")
    x = apply_normalizer(norm, dataset)
    with np.errstate(over="ignore", invalid="ignore"):
        pred = predict(net, x)
    bad = np.count_nonzero(~np.isfinite(pred))
    if bad:
        raise NumericError(f"{bad} of {len(pred)} predictions are non-finite")
    return pred


def predict_soc(net: Network, norm: Normalizer, dataset: Dataset) -> np.ndarray:
    """predict_finite clamped to [0, 100] percent."""
    pred = predict_finite(net, norm, dataset)
    return np.clip(pred, 0.0, 100.0, out=pred)
