"""Quick self-test of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from checks import dst_poisson  # noqa: E402
from layertrace import Tracer, installed_wrappers  # noqa: E402
from zo_meshopt import ScenarioParams, solve_poisson, uniform_mesh  # noqa: E402
from zo_meshopt.cli import main as cli_main  # noqa: E402


def test_dst_reference_matches_solver_on_17x17():
    alpha = 0.93
    got = solve_poisson(uniform_mesh(17), ScenarioParams(alpha)).field.as_grid()
    ref = dst_poisson(17, alpha)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_tracer_restores_every_binding(tmp_path):
    argv = ["train", "--config", str(run.ROOT / "configs" / "desk.json"),
            "--epochs", "2", "--warm-start", "1", "--out", str(tmp_path)]
    with Tracer() as tracer:
        assert installed_wrappers()
        assert cli_main(argv) == 0
    assert installed_wrappers() == []
    assert {s.name for s in tracer.spans} >= {"train_run", "cmd_train", "solve", "zo_vjp"}
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert installed_wrappers() == []


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_runs_and_passes_checks_at_tiny_length(name):
    wl = replace(run.WORKLOADS[name], epochs=4, warm_start=2)
    result = run.run_workload(name, wl, seed=0, seconds=0, trace=True,
                              threads=len(os.sched_getaffinity(0)))
    assert result["errors"] == [] and result["failures"] == []
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert set(result["end_to_end"]) == set(run.END_TO_END_UNITS)
    layers = result["per_layer"]
    assert layers["cli.uncounted_solves"]["value"] == 6
    assert (layers["zo.calls"]["value"] == 0) == (name == "exact-17x65")
