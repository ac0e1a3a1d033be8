"""Smoke tests for the experiment scripts under scripts/."""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "estimator_variance.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_estimator_variance_table():
    """The script runs, prints only finite numbers, and its gauss_coord rows
    with d equal to the mesh dimension repeat the gaussian rows: with
    d == dim, draw_directions gives the gaussian directions bit for bit."""
    proc = run_script("--trials", "2", "--coarse-n", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "(dim 6)" in lines[0]
    assert lines[1].split() == ["kind", "b", "d", "mean", "cos", "bias", "seed", "sd"]
    table = {}
    for line in lines[2:]:
        kind, b, d, *values = line.split()
        assert all(math.isfinite(float(v)) for v in values), line
        table[kind, int(b), int(d)] = values
    assert len(table) == 12
    for b in (1, 4, 8):
        assert table["gauss_coord", b, 6] == table["gaussian", b, 6]


@pytest.mark.parametrize("trials", ["1", "0"])
def test_estimator_variance_rejects_fewer_than_two_trials(trials):
    """One trial has no sample variance; the script refuses it before any
    solve instead of printing nan columns."""
    proc = run_script("--trials", trials, "--coarse-n", "5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--trials" in proc.stderr
