"""Ordered evaluation of independent forward calls.

``run_ordered`` evaluates its items inline, one after another, in the
calling thread: a coarse solve costs less than handing it to a worker pool
would.  The estimator and the central-difference oracle still route their
batches through this one function because the benchmark's tracer
(``bench/layertrace.py``) wraps ``runtime.run_ordered`` to time each batch;
the module can go once the tracer stops doing so.

ZO_MESHOPT_THREADS once sized a worker pool.  It no longer changes how
anything runs, but every call with two or more items still validates it, so
a script that sets it to a bad value keeps failing with a ``ConfigError``
instead of silently running; a single item runs without reading it.
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
