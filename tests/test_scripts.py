"""Smoke tests for the experiment scripts under scripts/."""
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zo_meshopt.train import TrainConfig, train_run

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


@pytest.mark.parametrize("flag,value", [
    ("--coarse-n", "2"), ("--coarse-n", "1"), ("--alpha", "0"), ("--alpha", "nan"),
    ("--mu", "-1"),
])
def test_estimator_variance_rejects_bad_values_before_solving(flag, value):
    """A mesh without interior lines, a non-positive alpha or a non-positive
    mu is a usage error named by its flag, reported before any solve."""
    proc = run_script("--trials", "2", "--coarse-n", "5", flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_compares_run_directories(tmp_path):
    """Two runs of one config differ only in wall_time_s and out_dir, which
    the comparison leaves out; a checkpoint.json that only changes its
    layout is reported, and so is one edited digit of a pred CSV."""
    compare_dirs = _load_script("same_outputs").compare_dirs
    runs = []
    for side in ("a", "b"):
        config = TrainConfig(fine_n=9, coarse_n=5, train_alphas=(0.9, 1.1), test_alphas=(1.0,),
                             mesh_mode="gaussian", epochs=2, warm_start_epochs=1, lr=1e-2,
                             out_dir=str(tmp_path / side))
        train_run(config)
        runs.append(tmp_path / side)
    a, b = runs
    names = {"checkpoint.json", "metrics.csv", "pred_alpha_1.csv", "truth_alpha_1.csv"}
    assert compare_dirs(a, b) == dict.fromkeys(sorted(names))

    metrics = (b / "metrics.csv").read_text().splitlines()
    retimed = [metrics[0]] + [row.rsplit(",", 1)[0] + ",1234.5" for row in metrics[1:]]
    (b / "metrics.csv").write_text("\n".join(retimed) + "\n")
    assert (b / "metrics.csv").read_bytes() != (a / "metrics.csv").read_bytes()
    assert compare_dirs(a, b)["metrics.csv"] is None

    checkpoint = b / "checkpoint.json"
    saved = checkpoint.read_bytes()
    assert b'"out_dir": ' in saved and saved != (a / "checkpoint.json").read_bytes()
    for reformat in (lambda t: t.replace(b"  ", b"   "), lambda t: t.rstrip(b"\n")):
        checkpoint.write_bytes(reformat(saved))
        assert compare_dirs(a, b)["checkpoint.json"] == "differs"
    checkpoint.write_bytes(saved)

    pred = b / "pred_alpha_1.csv"
    header, first, *rest = pred.read_text().splitlines()
    digit = next(k for k, c in enumerate(first) if c in "123456789")
    edited = first[:digit] + str(int(first[digit]) % 9 + 1) + first[digit + 1:]
    pred.write_text("\n".join([header, edited, *rest]) + "\n")
    assert compare_dirs(a, b) == {**dict.fromkeys(sorted(names)), "pred_alpha_1.csv": "differs"}


def _files(tree):
    return {p.relative_to(tree): p.read_bytes() for p in tree.rglob("*") if p.is_file()}


def test_mutation_table_applies_to_the_current_source(tmp_path):
    """Each mutant's text occurs once in its file, its edit compiles and
    names listed tests that exist, and applying it to a copy of the tree
    changes that one file only.  No mutant is run."""
    check = _load_script("mutation_check")
    tree = check.copy_tree(tmp_path / "tree")
    before = _files(tree)
    for mutant in check.MUTANTS:
        source = (ROOT / mutant.path).read_text()
        assert source.count(mutant.old) == 1, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            assert f"def {name}(" in (ROOT / path).read_text(), test
        check.apply(mutant, tree)
        after = _files(tree)
        mutated = after.pop(mutant.path)
        assert mutated.decode() == source.replace(mutant.old, mutant.new)
        compile(mutated, str(mutant.path), "exec")
        assert after == {k: v for k, v in before.items() if k != mutant.path}
        (tree / mutant.path).write_bytes(before[mutant.path])
