"""Outside-in span tracer for zo_meshopt.

The package's modules bind their imports by name (``from .solver import
solve_poisson``) and some functions hold a solver in a keyword default
(``solve=solve_poisson``).  A wrapper installed in one module would miss the
other bindings, so ``Tracer`` replaces a public function at every place it is
looked up: each module attribute of the package that is the function, and
each keyword-only default of a package function that is the function.  Leaving
the ``with`` block puts every original back.

Each wrapped call records one ``Span`` in memory.  ``layer_metrics`` turns
the spans of one traced ``train`` command into the per-layer metrics listed
in ``README.md``.
"""

from __future__ import annotations

import bisect
import statistics
import sys
import time
import types
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

PACKAGE = "zo_meshopt"
# Set on every wrapper, so a test can prove none is left installed.
MARK = "_layertrace_wrapper"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    info: Any = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _package_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Context manager that traces calls into zo_meshopt's public functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._undo: list[Callable[[], None]] = []

    def _timed(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                spans.append(Span(name, start, clock(), None, type(err).__name__))
                raise
            end = clock()
            spans.append(Span(name, start, end, info(args, result) if info else None))
            return result

        setattr(traced, MARK, True)
        return traced

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Point every binding of ``original`` inside the package at ``wrapper``."""
        for mod in _package_modules():
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append(lambda m=mod, n=name: setattr(m, n, original))
            for fn in list(namespace.values()):
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                kwdefaults = fn.__kwdefaults__ or {}
                for key, value in kwdefaults.items():
                    if value is original:
                        kwdefaults[key] = wrapper
                        self._undo.append(lambda d=kwdefaults, k=key: d.__setitem__(k, original))

    def __enter__(self) -> "Tracer":
        from zo_meshopt import cli, grid, net, optim, runtime, solver, train, zo

        make_evaluate = solver.make_evaluate
        run_ordered = runtime.run_ordered
        timed_run_ordered = self._timed("run_ordered", run_ordered)

        def traced_make_evaluate(*args, **kwargs):
            return self._timed("evaluate", make_evaluate(*args, **kwargs))

        def traced_run_ordered(fn, items):
            return timed_run_ordered(self._timed("run_ordered.item", fn), items)

        setattr(traced_make_evaluate, MARK, True)
        setattr(traced_run_ordered, MARK, True)

        def solve_info(args, report):
            return (args[0].shape, report.residual_norm)

        def moved(args, mesh):
            p = np.asarray(args[1], dtype=float)
            return not np.array_equal(grid.mesh_to_params(mesh), p)

        wrappers = [
            (solver.solve_poisson, self._timed("solve", solver.solve_poisson, solve_info)),
            (make_evaluate, traced_make_evaluate),
            (grid.params_to_mesh, self._timed("project", grid.params_to_mesh, moved)),
            (grid.nearest_upsample, self._timed("upsample", grid.nearest_upsample)),
            (grid.upsample_adjoint, self._timed("adjoint", grid.upsample_adjoint)),
            (zo.zo_vjp, self._timed("zo_vjp", zo.zo_vjp)),
            (zo.draw_directions, self._timed("draw", zo.draw_directions)),
            (net.forward, self._timed("net.forward", net.forward)),
            (net.backward, self._timed("net.backward", net.backward)),
            (optim.adam_step, self._timed("adam_step", optim.adam_step)),
            (run_ordered, traced_run_ordered),
            (train.train_run, self._timed("train_run", train.train_run)),
            (cli.cmd_train, self._timed("cmd_train", cli.cmd_train)),
        ]
        try:
            for original, wrapper in wrappers:
                self._rebind(original, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __exit__(self, *exc) -> None:
        self._restore()


def installed_wrappers() -> list[str]:
    """Names of package bindings that still point at a tracer wrapper."""
    found = []
    for mod in _package_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, types.FunctionType):
                defaults = (value.__kwdefaults__ or {}).values()
                if any(getattr(d, MARK, False) for d in defaults):
                    found.append(f"{mod.__name__}.{name} (default argument)")
    return found


class _Index:
    """Spans sorted by start, for 'which spans lie inside an interval' queries."""

    def __init__(self, spans: list[Span]):
        self.spans = sorted(spans, key=lambda s: s.start)
        self.starts = [s.start for s in self.spans]

    def inside(self, lo: float, hi: float) -> list[Span]:
        first = bisect.bisect_left(self.starts, lo)
        last = bisect.bisect_right(self.starts, hi)
        return [s for s in self.spans[first:last] if s.end <= hi]


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _self_times(parents: list[Span], children: _Index) -> list[float]:
    """Each parent's duration minus the union of its children's spans."""
    return [
        p.duration - covered([(c.start, c.end) for c in children.inside(p.start, p.end)])
        for p in parents
    ]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], fine_shape: tuple[int, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced ``train`` command, as name -> (value, unit).

    Times marked ``_ms``/``_us`` are medians per call; ``busy`` and ``self``
    times are totals.  Everything but ``cli.*`` and ``solver.residual_max``
    counts only calls made inside ``train_run``.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    (run,) = by_name["train_run"]
    (cmd,) = by_name["cmd_train"]

    def inside_run(name: str) -> list[Span]:
        return [s for s in by_name.get(name, []) if s.start >= run.start and s.end <= run.end]

    solves = inside_run("solve")
    fine = [s for s in solves if s.info[0] == fine_shape]
    coarse = [s for s in solves if s.info[0] != fine_shape]
    residuals = [s.info[1] for s in by_name.get("solve", []) if s.info is not None]
    projections = inside_run("project")
    net_spans = inside_run("net.forward") + inside_run("net.backward")
    steps = inside_run("adam_step")
    after = [s for s in by_name.get("solve", []) if s.start >= run.end and s.end <= cmd.end]
    zo_calls = inside_run("zo_vjp")
    pools = inside_run("run_ordered")
    others = _Index([s for s in spans if s.name not in ("train_run", "cmd_train")])
    us, ms = 1e6, 1e3
    return {
        "solver.calls": (len(solves), "count"),
        "solver.coarse_ms": (_median(s.duration for s in coarse) * ms, "ms"),
        "solver.fine_ms": (_median(s.duration for s in fine) * ms, "ms"),
        "solver.busy_s": (covered([(s.start, s.end) for s in solves]), "s"),
        "solver.residual_max": (max(residuals, default=0.0), "1"),
        "grid.project_calls": (len(projections), "count"),
        "grid.project_us": (_median(s.duration for s in projections) * us, "us"),
        "grid.project_moved": (sum(1 for s in projections if s.info), "count"),
        "grid.upsample_us": (_median(s.duration for s in inside_run("upsample")) * us, "us"),
        "grid.adjoint_us": (_median(s.duration for s in inside_run("adjoint")) * us, "us"),
        "zo.calls": (len(zo_calls), "count"),
        "zo.self_us": (_median(_self_times(zo_calls, _Index(inside_run("evaluate")))) * us, "us"),
        "zo.draw_us": (_median(s.duration for s in inside_run("draw")) * us, "us"),
        "net.forward_ms": (_median(s.duration for s in inside_run("net.forward")) * ms, "ms"),
        "net.backward_ms": (_median(s.duration for s in inside_run("net.backward")) * ms, "ms"),
        "net.busy_s": (covered([(s.start, s.end) for s in net_spans]), "s"),
        "optim.step_us": (_median(s.duration for s in steps if s.error is None) * us, "us"),
        "optim.skipped": (sum(1 for s in steps if s.error == "NonFiniteGradient"), "count"),
        "runtime.overhead_us": (
            _median(_self_times(pools, _Index(inside_run("run_ordered.item")))) * us,
            "us",
        ),
        "train.self_s": (_self_times([run], others)[0], "s"),
        "cli.after_train_s": (cmd.end - run.end, "s"),
        "cli.uncounted_solves": (len(after), "count"),
    }
