"""Optimizers with a spatial-scaling insertion point.

``sgd`` and ``sgd_momentum`` (with coupled weight decay) belong to the linear
family: their update is a fixed linear combination of current and past
gradients and weights, which is what makes spatial scaling equivalent to a
branched reparameterization. ``adam`` and ``adagrad`` are non-linear and carry
no such guarantee; they are provided for the scaling-position comparison.

The ``position`` argument controls where a scaling matrix multiplies in:

* ``pre``  -- the raw gradient is scaled before any optimizer arithmetic
              (weight decay, momentum, moment estimates all see the scaled
              gradient; the decay term itself is never scaled).
* ``post`` -- the optimizer update is computed from the unscaled gradient and
              the finished update vector is scaled right before the weight
              step (the adagrad* variant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError

LINEAR_KINDS = ("sgd", "sgd_momentum")
ADAPTIVE_KINDS = ("adam", "adagrad")
KINDS = LINEAR_KINDS + ADAPTIVE_KINDS

_ADAM_BETA1 = 0.9  # torch defaults
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_ADAGRAD_EPS = 1e-10


@dataclass
class OptimizerConfig:
    kind: str = "sgd_momentum"
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}, expected one of {KINDS}")
        if self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("momentum and weight_decay must be non-negative")

    @property
    def is_linear(self) -> bool:
        return self.kind in LINEAR_KINDS


@dataclass
class OptimizerState:
    """Per-parameter optimizer state; buffers start at zero."""

    cfg: OptimizerConfig
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0


def _sgd(state: OptimizerState, e: np.ndarray) -> np.ndarray:
    return e


def _sgd_momentum(state: OptimizerState, e: np.ndarray) -> np.ndarray:
    v = state.cfg.momentum * state.buffers["velocity"] + e
    state.buffers["velocity"] = v
    return v


def _adam(state: OptimizerState, e: np.ndarray) -> np.ndarray:
    t = state.step_count + 1
    m = _ADAM_BETA1 * state.buffers["m"] + (1.0 - _ADAM_BETA1) * e
    v = _ADAM_BETA2 * state.buffers["v"] + (1.0 - _ADAM_BETA2) * e * e
    state.buffers["m"] = m
    state.buffers["v"] = v
    m_hat = m / (1.0 - _ADAM_BETA1**t)
    v_hat = v / (1.0 - _ADAM_BETA2**t)
    return m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def _adagrad(state: OptimizerState, e: np.ndarray) -> np.ndarray:
    accum = state.buffers["accum"] + e * e
    state.buffers["accum"] = accum
    return e / (np.sqrt(accum) + _ADAGRAD_EPS)


# Per kind: the state buffers it keeps, and the function that turns the
# (pre-scaled, decayed) gradient into the update direction.
_DIRECTIONS = {
    "sgd": ((), _sgd),
    "sgd_momentum": (("velocity",), _sgd_momentum),
    "adam": (("m", "v"), _adam),
    "adagrad": (("accum",), _adagrad),
}


def make_state(cfg: OptimizerConfig, like: np.ndarray) -> OptimizerState:
    like = np.asarray(like)
    names, _ = _DIRECTIONS[cfg.kind]
    return OptimizerState(cfg=cfg, buffers={name: np.zeros_like(like) for name in names})


def _check_scaling(scaling: np.ndarray | None, w: np.ndarray) -> np.ndarray | None:
    if scaling is None:
        return None
    scaling = np.asarray(scaling)
    if w.ndim != 4:
        raise ShapeError("gradient scaling requires a convolution-shaped (rank-4) parameter")
    if scaling.ndim != 2 or scaling.shape != w.shape[2:]:
        raise ShapeError(
            f"scaling shape {scaling.shape} does not match kernel spatial shape {w.shape[2:]}"
        )
    if not np.all(scaling > 0):
        raise ValueError("scaling matrix must be strictly positive")
    return scaling


def step(state: OptimizerState, w: np.ndarray, g: np.ndarray, lr: float,
         scaling: np.ndarray | None = None, position: str = "pre") -> np.ndarray:
    """One optimizer step of any kind; returns the updated weights, mutating ``state``.

    ``g`` is the raw loss gradient: weight decay is applied here, after the
    optional pre-scaling, never by the caller.
    """
    if position not in ("pre", "post"):
        raise ValueError(f"position must be 'pre' or 'post', got {position!r}")
    w = np.asarray(w)
    g = np.asarray(g)
    if w.shape != g.shape:
        raise ShapeError(f"weight shape {w.shape} vs gradient shape {g.shape}")
    scaling = _check_scaling(scaling, w)
    cfg = state.cfg

    g_eff = g * scaling if (scaling is not None and position == "pre") else g
    e = g_eff + cfg.weight_decay * w if cfg.weight_decay != 0 else g_eff
    update = _DIRECTIONS[cfg.kind][1](state, e)
    if scaling is not None and position == "post":
        update = update * scaling
    state.step_count += 1
    return w - lr * update


def adaptive_step(state: OptimizerState, w: np.ndarray, g: np.ndarray, lr: float,
                  scaling: np.ndarray | None = None, position: str = "pre") -> np.ndarray:
    """``step`` restricted to the adaptive kinds (adam, adagrad)."""
    if state.cfg.kind not in ADAPTIVE_KINDS:
        raise ValueError(f"adaptive_step requires an adaptive optimizer, got {state.cfg.kind!r}")
    return step(state, w, g, lr, scaling=scaling, position=position)
