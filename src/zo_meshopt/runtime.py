"""Ordered evaluation of independent calls.

No module of the package uses this one.  It exists only because the
benchmark's tracer (``bench/layertrace.py``) imports it and wraps
``run_ordered``; it can go once the tracer stops doing so (ROADMAP item 1).
Solver blocks go through ``solver._solve_block``.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def run_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply fn to every item in order and return the results in that order."""
    return [fn(x) for x in items]
