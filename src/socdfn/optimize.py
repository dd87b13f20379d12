"""Parameter update rules: plain SGD, RMSProp, and Adam.

Each rule keeps explicit state and updates the network's flat parameter
vector in place, as a few whole-vector ufunc calls into two scratch
vectors (allocated per call unless the caller passes them), and bumps
the network version counter so stale forward caches are refused. The
element-wise operations run in the order each rule's formula is
written, so every result is the same bits as a per-array update.
Defaults follow common practice: lr=1e-3, beta1=0.9, beta2=0.999,
rho=0.9, epsilon=1e-8, with epsilon added outside the square root.

A learning rate of exactly zero is accepted: it turns every rule into a
no-op, which is useful for null-update sanity checks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .network import GradientSet, Network, StepBuffers, flat_views

OPTIMIZER_KINDS = ("sgd", "rmsprop", "adam")

# Two vectors of the parameter count that hold a step's intermediates.
Scratch = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    rho: float = 0.9
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(
                f"unknown optimizer {self.kind!r}, expected one of {OPTIMIZER_KINDS}"
            )
        if self.learning_rate < 0.0:
            raise ConfigError(
                f"learning_rate must be non-negative, got {self.learning_rate}"
            )
        for name, value in (
            ("beta1", self.beta1),
            ("beta2", self.beta2),
            ("rho", self.rho),
        ):
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(eq=False)
class OptimizerState:
    """Step count and moment vectors for the update rules.

    The moments `m` and `v` are flat vectors laid out like Network.flat;
    first_moment/second_moment are their per-array views (W0, b0, W1,
    b1, ...).
    """

    step: int
    m: np.ndarray
    v: np.ndarray
    first_moment: tuple[np.ndarray, ...]
    second_moment: tuple[np.ndarray, ...]


def init_state(net: Network) -> OptimizerState:
    m, first_moment = flat_views(net.layout)
    v, second_moment = flat_views(net.layout)
    return OptimizerState(
        step=0, m=m, v=v, first_moment=first_moment, second_moment=second_moment
    )


def _flat_grad(net: Network, grads: GradientSet) -> np.ndarray:
    if grads.layout != net.layout:
        raise ShapeError(
            f"gradient layout {grads.layout} does not match parameters {net.layout}"
        )
    return grads.flat


def _scratch(net: Network, scratch: Scratch | None) -> Scratch:
    if scratch is None:
        return np.empty_like(net.flat), np.empty_like(net.flat)
    return scratch


def sgd_step(
    net: Network,
    grads: GradientSet,
    cfg: OptimizerConfig,
    scratch: Scratch | None = None,
) -> Network:
    """w <- w - lr * g for every parameter."""
    g = _flat_grad(net, grads)
    s, _ = _scratch(net, scratch)
    net.flat -= np.multiply(cfg.learning_rate, g, out=s)
    net.version += 1
    return net


def rmsprop_step(
    state: OptimizerState,
    net: Network,
    grads: GradientSet,
    cfg: OptimizerConfig,
    scratch: Scratch | None = None,
) -> tuple[Network, OptimizerState]:
    """v <- rho*v + (1-rho)*g^2; w <- w - lr * g / (sqrt(v) + eps)."""
    g = _flat_grad(net, grads)
    s, t = _scratch(net, scratch)
    state.v *= cfg.rho
    np.multiply(1.0 - cfg.rho, g, out=s)
    s *= g
    state.v += s
    np.multiply(cfg.learning_rate, g, out=s)
    np.sqrt(state.v, out=t)
    t += cfg.epsilon
    s /= t
    net.flat -= s
    state.step += 1
    net.version += 1
    return net, state


def adam_step(
    state: OptimizerState,
    net: Network,
    grads: GradientSet,
    cfg: OptimizerConfig,
    scratch: Scratch | None = None,
) -> tuple[Network, OptimizerState]:
    """Adam with bias correction; epsilon sits outside the square root.

    m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g*g;
    w <- w - lr * (m / bc1) / (sqrt(v / bc2) + eps).
    """
    g = _flat_grad(net, grads)
    s, t = _scratch(net, scratch)
    step = state.step + 1
    bc1 = 1.0 - cfg.beta1**step
    bc2 = 1.0 - cfg.beta2**step
    state.m *= cfg.beta1
    state.m += np.multiply(1.0 - cfg.beta1, g, out=s)
    state.v *= cfg.beta2
    np.multiply(1.0 - cfg.beta2, g, out=s)
    s *= g
    state.v += s
    np.divide(state.m, bc1, out=s)
    s *= cfg.learning_rate
    np.divide(state.v, bc2, out=t)
    np.sqrt(t, out=t)
    t += cfg.epsilon
    s /= t
    net.flat -= s
    state.step = step
    net.version += 1
    return net, state


def apply_update(
    state: OptimizerState,
    net: Network,
    grads: GradientSet,
    cfg: OptimizerConfig,
    buffers: StepBuffers | None = None,
) -> tuple[Network, OptimizerState]:
    """Dispatch one update by cfg.kind.

    The scratch vectors come from `buffers` when given (see
    StepBuffers). Raises ShapeError when the gradient layout differs
    from the network's.
    """
    scratch = None
    if buffers is not None:
        scratch = tuple(buffers.array(("update", i), net.flat.shape) for i in (0, 1))
    if cfg.kind == "sgd":
        net = sgd_step(net, grads, cfg, scratch)
        state.step += 1
        return net, state
    if cfg.kind == "rmsprop":
        return rmsprop_step(state, net, grads, cfg, scratch)
    return adam_step(state, net, grads, cfg, scratch)
