"""Dense feedforward regression network with hand-derived backpropagation.

Layers compute z = x @ W + b followed by an activation (ReLU for hidden
layers, linear for the scalar output). Inverted dropout after a hidden
layer zeroes activations with probability `dropout_after` and scales the
survivors by 1/keep at train time, so inference needs no correction.
The training objective is the data loss (MSE by default, MAE optional)
plus L1/L2 penalties on weights only; biases are never penalized and the
L1 subgradient at exactly zero is taken as zero.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Normalizer, feature_matrix, normalize_features
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .rng import make_rng

ACTIVATIONS = ("relu", "linear")
LOSS_KINDS = ("mse", "mae")
# Rows per inference block in predict(): 8192 x 256 float64 is 16 MB.
INFERENCE_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"
    dropout_after: float = 0.0

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigError(
                f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"unknown activation {self.activation!r}, expected one of "
                f"{ACTIVATIONS}"
            )
        if not 0.0 <= self.dropout_after < 1.0:
            raise ConfigError(
                f"dropout_after must be in [0, 1), got {self.dropout_after}"
            )


@dataclass(frozen=True)
class RegConfig:
    l1: float = 0.0
    l2: float = 0.0

    def __post_init__(self):
        if self.l1 < 0.0 or self.l2 < 0.0:
            raise ConfigError(
                f"penalty coefficients must be non-negative, got "
                f"l1={self.l1}, l2={self.l2}"
            )


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
    version: int = 0
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

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    def parameter_count(self) -> int:
        return self.flat.size


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


def flat_views(layout) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """A new zeroed float64 vector and one view of it per shape in layout."""
    flat = np.zeros(sum(math.prod(shape) for shape in layout))
    views = []
    start = 0
    for shape in layout:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return flat, tuple(views)


def _pack(weights, biases):
    """Copy per-layer weights and biases into one new flat vector.

    Returns (flat, layout, weight views, bias views); the vector holds
    W0, b0, W1, b1, ... in that order.
    """
    arrays = [a for pair in zip(weights, biases) for a in pair]
    layout = tuple(np.shape(a) for a in arrays)
    flat, views = flat_views(layout)
    for view, a in zip(views, arrays):
        view[...] = a
    return flat, layout, views[0::2], views[1::2]


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
    """Arrays that training steps reuse from batch to batch.

    forward, backward and optimize.apply_update, given a StepBuffers,
    write pre-activations, activations, dropout and ReLU masks, backward
    deltas, the gradient set and the update's scratch vectors into
    arrays kept here (one set per batch shape) instead of allocating
    new ones. So the cache and gradient set such a call returns are
    overwritten by the next call with the same buffers. One train_epoch
    call owns one; it is not shared between threads. Calls without
    buffers return fresh arrays that no later call touches.
    """

    def __init__(self):
        self._kept = {}

    def array(self, name, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        key = (name, shape, dtype)
        arr = self._kept.get(key)
        if arr is None:
            arr = self._kept[key] = np.empty(shape, dtype)
        return arr

    def gradients(self, net: Network) -> GradientSet:
        key = ("gradients", net.layout)
        grads = self._kept.get(key)
        if grads is None:
            grads = self._kept[key] = GradientSet.zeros_like(net)
        return grads


def _array(buffers: StepBuffers | None, name, shape, dtype=np.float64) -> np.ndarray:
    """The array buffers keep under name for this shape, or a new one."""
    if buffers is None:
        return np.empty(shape, dtype)
    return buffers.array(name, shape, dtype)


def make_specs(
    hidden: int, units: int, dropout: float, in_dim: int = 3
) -> tuple[LayerSpec, ...]:
    """Build a layer stack from a hidden-layer count.

    The count follows the common convention of counting dropout layers:
    with dropout > 0 each pair is one dense hidden layer followed by one
    dropout layer, so `hidden` must be even and yields hidden/2 dense
    layers. With dropout == 0 every hidden layer is dense.
    """
    if hidden < 1:
        raise ConfigError(f"hidden layer count must be >= 1, got {hidden}")
    if dropout > 0.0:
        if hidden % 2 != 0:
            raise ConfigError(
                f"with dropout, hidden={hidden} must be even: each dense layer "
                "pairs with one dropout layer"
            )
        n_dense = hidden // 2
    else:
        n_dense = hidden
    specs = []
    prev = in_dim
    for _ in range(n_dense):
        specs.append(
            LayerSpec(in_dim=prev, out_dim=units, activation="relu",
                      dropout_after=dropout)
        )
        prev = units
    specs.append(LayerSpec(in_dim=prev, out_dim=1, activation="linear"))
    return tuple(specs)


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
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ShapeError(
            f"input {x.shape} does not match network input width ({net.in_dim})"
        )
    return x


def forward(
    net: Network,
    x: np.ndarray,
    mode: str = "inference",
    dropout_rng: np.random.Generator | None = None,
    dropout_masks: list | None = None,
    buffers: StepBuffers | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack; returns (predictions, cache).

    In train mode, dropout masks are drawn from dropout_rng unless an
    explicit mask list (as recorded in a previous cache) is supplied for
    replay, and the layer arrays come from `buffers` when given (see
    StepBuffers). Inference mode is a pure function of (net, x); its
    cache holds no per-layer arrays.
    """
    if mode not in ("train", "inference"):
        raise ConfigError(f"mode must be 'train' or 'inference', got {mode!r}")
    x = _check_input(net, x)
    has_dropout = any(spec.dropout_after > 0.0 for spec in net.layers)
    if mode == "train" and has_dropout and dropout_rng is None and dropout_masks is None:
        raise ContractError("train-mode forward with dropout needs a seeded stream")
    if dropout_masks is not None and len(dropout_masks) != len(net.layers):
        raise ContractError(
            f"{len(dropout_masks)} replay masks for {len(net.layers)} layers"
        )

    cache = ForwardCache(mode=mode, net=net, net_version=net.version)
    a = x
    for li, spec in enumerate(net.layers):
        if mode == "inference":
            # Nothing replays an inference pass: activate in place and
            # keep no per-layer arrays.
            z = a @ net.weights[li]
            z += net.biases[li]
            if spec.activation == "relu":
                np.maximum(z, 0.0, out=z)
            a = z
            continue
        shape = (x.shape[0], spec.out_dim)
        z = np.matmul(a, net.weights[li], out=_array(buffers, ("z", li), shape))
        z += net.biases[li]
        cache.inputs.append(a)
        cache.pre_acts.append(z)
        if spec.activation == "relu":
            a = np.maximum(z, 0.0, out=_array(buffers, ("a", li), shape))
        else:
            a = z
        mask = None
        if spec.dropout_after > 0.0:
            keep = 1.0 - spec.dropout_after
            if dropout_masks is not None:
                mask = dropout_masks[li]
                if mask is None or mask.shape != a.shape:
                    raise ContractError(
                        f"replay mask for layer {li} missing or misshapen"
                    )
            else:
                mask = dropout_rng.random(out=_array(buffers, ("mask", li), shape))
                np.less(mask, keep, out=mask)
            # (a * mask) / keep; with ReLU this overwrites a in place.
            a = np.multiply(a, mask, out=_array(buffers, ("a", li), shape))
            a /= keep
        cache.masks.append(mask)
    pred = a[:, 0]
    cache.pred = pred
    return pred, cache


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 1:
        raise ShapeError(f"pred {pred.shape} and target {target.shape} must match")
    diff = target - pred
    return float(np.mean(diff * diff))


def loss_mae(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 1:
        raise ShapeError(f"pred {pred.shape} and target {target.shape} must match")
    return float(np.mean(np.abs(target - pred)))


def data_loss(pred: np.ndarray, target: np.ndarray, kind: str) -> float:
    if kind == "mse":
        return loss_mse(pred, target)
    if kind == "mae":
        return loss_mae(pred, target)
    raise ConfigError(f"unknown loss {kind!r}, expected one of {LOSS_KINDS}")


def penalty(net: Network, reg: RegConfig, buffers: StepBuffers | None = None) -> float:
    """l2 * sum of squared weights + l1 * sum of absolute weights."""
    if reg.l1 == 0.0 and reg.l2 == 0.0:
        return 0.0
    sum_sq = 0.0
    sum_abs = 0.0
    for li, w in enumerate(net.weights):
        scratch = _array(buffers, ("reg", li), w.shape)
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
    the cache's arrays are left as they were. With `buffers`, the deltas
    and the returned gradient set are arrays kept there (see
    StepBuffers). Returns the gradient set and the full objective value.
    """
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
    dpred = np.subtract(pred, target, out=_array(buffers, "dpred", (n,)))
    if loss_kind == "mse":
        dpred *= 2.0 / n
    else:
        np.sign(dpred, out=dpred)
        dpred /= n

    grads = GradientSet.zeros_like(net) if buffers is None else buffers.gradients(net)
    # grad is the delta arriving at layer li's output. It is always an
    # array this call owns, so masking and the ReLU derivative are
    # applied in place, turning it into dz.
    grad = dpred[:, None]
    for li in range(len(net.layers) - 1, -1, -1):
        spec = net.layers[li]
        w = net.weights[li]
        mask = cache.masks[li]
        if mask is not None:
            grad *= mask
            grad /= 1.0 - spec.dropout_after
        if spec.activation == "relu":
            active = _array(buffers, ("relu", li), grad.shape, bool)
            grad *= np.greater(cache.pre_acts[li], 0.0, out=active)
        dw = np.matmul(cache.inputs[li].T, grad, out=grads.dweights[li])
        if reg.l2 > 0.0 or reg.l1 > 0.0:
            scratch = _array(buffers, ("reg", li), w.shape)
        if reg.l2 > 0.0:
            dw += np.multiply(2.0 * reg.l2, w, out=scratch)
        if reg.l1 > 0.0:
            np.sign(w, out=scratch)
            scratch *= reg.l1
            dw += scratch
        np.sum(grad, axis=0, out=grads.dbiases[li])
        if li > 0:
            grad = np.matmul(
                grad, w.T, out=_array(buffers, ("grad", li - 1), (n, spec.in_dim))
            )
    return grads, base + penalty(net, reg, buffers)


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Inference-mode forward on an already-normalized feature matrix.

    Runs in blocks of INFERENCE_BLOCK_ROWS rows, so the hidden-layer
    activations held at once stay a few MB whatever the row count.
    """
    x = _check_input(net, x)
    pred = np.empty(x.shape[0], dtype=np.float64)
    for start in range(0, x.shape[0], INFERENCE_BLOCK_ROWS):
        stop = start + INFERENCE_BLOCK_ROWS
        pred[start:stop], _ = forward(net, x[start:stop], mode="inference")
    return pred


def require_finite_predictions(pred: np.ndarray) -> np.ndarray:
    """Return pred, or raise NumericError where finite weights overflowed."""
    bad = np.count_nonzero(~np.isfinite(pred))
    if bad:
        raise NumericError(f"{bad} of {len(pred)} predictions are non-finite")
    return pred


def predict_soc(net: Network, norm: Normalizer, dataset: Dataset) -> np.ndarray:
    """Normalize the dataset's features, run inference, clamp to [0, 100] percent.

    Non-finite predictions raise NumericError: NaN would pass the clamp.
    That error reports the overflow, so numpy's own warnings about it
    are silenced.
    """
    if norm is None:
        raise ContractError("predict_soc needs a fitted normalizer")
    x = normalize_features(norm, feature_matrix(dataset))
    with np.errstate(over="ignore", invalid="ignore"):
        pred = predict(net, x)
    require_finite_predictions(pred)
    return np.clip(pred, 0.0, 100.0, out=pred)
