"""Ordered evaluation of independent forward calls.

``run_ordered`` evaluates its items inline, one after another, in the
calling thread: a coarse solve costs less than handing it to a worker pool
would.  Only the central-difference oracle still routes its batch through
this one function, because the benchmark's tracer (``bench/layertrace.py``)
wraps ``runtime.run_ordered`` to time each batch; the estimator hands its
whole block to the batched ``evaluate`` of ``solver.make_evaluate``
instead.  The module can go once the tracer stops wrapping it.

ZO_MESHOPT_THREADS once sized a worker pool.  It no longer changes how
anything runs, but every call with two or more items still validates it, so
a script that sets it to a bad value keeps failing with a ``ConfigError``
instead of silently running; a single item runs without reading it.  Since
only the oracle calls it, a bad value stops an exact-mode run but no longer
stops a run in a zeroth-order mode.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

from .errors import ConfigError

THREADS_ENV = "ZO_MESHOPT_THREADS"

T = TypeVar("T")
R = TypeVar("R")


def _check_threads_setting() -> None:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1, got {n}")


def run_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply fn to every item in order and return the results in that order."""
    todo = list(items)
    if len(todo) > 1:
        _check_threads_setting()
    return [fn(item) for item in todo]
