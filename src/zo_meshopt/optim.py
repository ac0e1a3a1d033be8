"""Adam on flat parameter vectors, written out by hand.

Update with bias correction:

    m_t = b1 * m_{t-1} + (1 - b1) * g
    v_t = b2 * v_{t-1} + (1 - b2) * g^2
    p  <- p - lr * (m_t / (1 - b1^t)) / (sqrt(v_t / (1 - b2^t)) + eps)

with b1 = BETA1, b2 = BETA2 and eps = EPS, the one setting of each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteGradient(ValueError):
    """Raised instead of contaminating optimizer state with NaN or inf."""


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float


def init_adam(n: int, lr: float) -> AdamState:
    if n < 1:
        raise ValueError(f"parameter count must be positive, got {n}")
    if not np.isfinite(lr) or lr <= 0:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    return AdamState(np.zeros(n), np.zeros(n), 0, lr)


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
    m = BETA1 * state.m + (1.0 - BETA1) * g
    v = BETA2 * state.v + (1.0 - BETA2) * g * g
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    new_p = p - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
    return AdamState(m, v, t, state.lr), new_p
