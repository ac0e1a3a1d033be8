"""Adam on flat parameter vectors, written out by hand.

Update with bias correction:

    m_t = b1 * m_{t-1} + (1 - b1) * g
    v_t = b2 * v_{t-1} + (1 - b2) * g^2
    p  <- p - lr * (m_t / (1 - b1^t)) / (sqrt(v_t / (1 - b2^t)) + eps)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteGradient(ValueError):
    """Raised instead of contaminating optimizer state with NaN or inf."""


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(
    n: int, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
) -> AdamState:
    if n < 1:
        raise ValueError(f"parameter count must be positive, got {n}")
    if not np.isfinite(lr) or lr <= 0:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not 0 <= beta < 1:
            raise ValueError(f"{name} must lie in [0, 1), got {beta}")
    if not np.isfinite(eps) or eps <= 0:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return AdamState(np.zeros(n), np.zeros(n), 0, lr, beta1, beta2, eps)


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray
) -> tuple[AdamState, np.ndarray]:
    p = np.asarray(params, dtype=float)
    g = np.asarray(grads, dtype=float)
    if p.shape != state.m.shape or g.shape != state.m.shape:
        raise ValueError(
            f"params {p.shape} and grads {g.shape} must match state {state.m.shape}"
        )
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient("gradient contains non-finite entries; step rejected")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_p = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    new_state = AdamState(m, v, t, state.lr, state.beta1, state.beta2, state.eps)
    return new_state, new_p
