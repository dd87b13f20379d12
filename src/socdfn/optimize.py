"""Parameter update rules: plain SGD, RMSProp, and Adam.

apply_update(state, net, grads, cfg, buffers=None) updates net and state
in place, returns None, and does one step in this order: it checks the
gradient layout (a ShapeError leaves everything unchanged), takes two
scratch vectors from a StepBuffers, bumps state.step, runs the rule
named by cfg.kind, and bumps the network version counter so stale
forward caches are refused.
Each rule, _sgd, _rmsprop and _adam, is only its formula:
(cfg, state, w, g, s, t) updates the flat parameters w in place as a
few whole-vector ufunc calls into the scratch vectors s and t, reading
the step count that was just bumped. The element-wise operations run
in the order each rule's formula is written, so every result is the
same bits as a per-array update. Defaults follow common practice:
lr=1e-3, beta1=0.9, beta2=0.999, rho=0.9, epsilon=1e-8, with epsilon
added outside the square root.

A learning rate of exactly zero is accepted: it turns every rule into a
no-op, which is useful for null-update sanity checks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, check_choice, check_range
from .network import GradientSet, Network, StepBuffers


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    rho: float = 0.9
    epsilon: float = 1e-8

    def __post_init__(self):
        check_choice("optimizer", self.kind, OPTIMIZER_KINDS)
        check_range("learning_rate", self.learning_rate, "non-negative")
        for name in ("beta1", "beta2", "rho"):
            check_range(name, getattr(self, name), "in [0, 1)")
        check_range("epsilon", self.epsilon, "positive")


@dataclass(eq=False)
class OptimizerState:
    """Step count and moment vectors for the update rules.

    The moments `m` and `v` are flat vectors laid out like Network.flat.
    """

    step: int
    m: np.ndarray
    v: np.ndarray


def init_state(net: Network) -> OptimizerState:
    return OptimizerState(step=0, m=np.zeros_like(net.flat), v=np.zeros_like(net.flat))


def _sgd(cfg, state, w, g, s, t) -> None:
    """w <- w - lr * g; the moments are not used."""
    w -= np.multiply(cfg.learning_rate, g, out=s)


def _rmsprop(cfg, state, w, g, s, t) -> None:
    """v <- rho*v + (1-rho)*g^2; w <- w - lr * g / (sqrt(v) + eps)."""
    state.v *= cfg.rho
    np.multiply(1.0 - cfg.rho, g, out=s)
    s *= g
    state.v += s
    np.multiply(cfg.learning_rate, g, out=s)
    np.sqrt(state.v, out=t)
    t += cfg.epsilon
    s /= t
    w -= s


def _adam(cfg, state, w, g, s, t) -> None:
    """Adam with bias correction; epsilon sits outside the square root.

    m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g*g;
    w <- w - lr * (m / bc1) / (sqrt(v / bc2) + eps).
    """
    bc1 = 1.0 - cfg.beta1**state.step
    bc2 = 1.0 - cfg.beta2**state.step
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
    w -= s


_RULES = {"sgd": _sgd, "rmsprop": _rmsprop, "adam": _adam}
OPTIMIZER_KINDS = tuple(_RULES)


def apply_update(
    state: OptimizerState,
    net: Network,
    grads: GradientSet,
    cfg: OptimizerConfig,
    buffers: StepBuffers | None = None,
) -> None:
    """Apply one update by cfg.kind to net.flat in place.

    Raises ShapeError, before anything changes, when the gradient
    layout differs from the network's.
    """
    if grads.layout != net.layout:
        raise ShapeError(
            f"gradient layout {grads.layout} does not match parameters {net.layout}"
        )
    buffers = buffers or StepBuffers()
    s, t = (buffers.array(("update", i), net.flat.shape) for i in (0, 1))
    state.step += 1
    _RULES[cfg.kind](cfg, state, net.flat, grads.flat, s, t)
    net.version += 1
