"""Scalar-objective wrappers around ``zo_meshopt.zo.zo_vjp``, used only by
the tests: a gradient estimate of a scalar function and the componentwise
mean and variance of such estimates over seeds."""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from zo_meshopt.errors import ConfigError
from zo_meshopt.zo import EstimatorSpec, zo_vjp


def _scalar_objective(
    f: Callable[[np.ndarray], float], m0: np.ndarray
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """Wrap f as a length-1 vector map over the rows of a block and
    evaluate it once at m0."""

    def wrapped(rows: np.ndarray) -> np.ndarray:
        return np.array([np.atleast_1d(np.asarray(f(p), dtype=float)) for p in rows])

    base = wrapped(m0[None])[0]
    if base.size != 1:
        raise ValueError(f"objective must be scalar-valued, got {base.size} outputs")
    return wrapped, base


def zo_grad_scalar(
    f: Callable[[np.ndarray], float], m0: np.ndarray, spec: EstimatorSpec
) -> np.ndarray:
    """Gradient estimate for a scalar objective; evaluates the base once."""
    m0 = np.asarray(m0, dtype=float)
    wrapped, base = _scalar_objective(f, m0)
    return zo_vjp(wrapped, m0, base, np.ones(1), spec)


def estimator_stats(
    f: Callable[[np.ndarray], float],
    m0: np.ndarray,
    spec: EstimatorSpec,
    trials: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise empirical mean and variance over independent trials.

    The base f(m0) is evaluated and checked once; trial i then equals
    zo_grad_scalar(f, m0, spec) with seed spec.seed + i, bit for bit.
    """
    if trials < 2:
        raise ConfigError(f"variance needs at least 2 trials, got {trials}")
    m0 = np.asarray(m0, dtype=float)
    wrapped, base = _scalar_objective(f, m0)
    cot = np.ones(1)
    estimates = np.empty((trials, m0.size))
    for i in range(trials):
        estimates[i] = zo_vjp(wrapped, m0, base, cot, replace(spec, seed=spec.seed + i))
    return estimates.mean(axis=0), estimates.var(axis=0, ddof=1)
