"""Check that the tests catch known faults in the training step and the
solver.

    python3 scripts/mutation_check.py

``MUTANTS`` is a table of one-line mutants of the package's source.  Each
row names the file it edits, the exact text it replaces there, its
replacement, and the tests expected to kill it.  The script first copies
the repository to a temporary directory and runs every listed test there
unmutated; then, for each mutant, it copies the repository again, applies
that one edit and runs that row's tests with pytest.  It prints which tests failed, then a table of the
mutants and the tests that killed them.

Exits 1 if the unmutated copy fails any listed test or a mutant survives
all of its tests, else 0.  M1-M5 keep each run's n_solver_evals equal to
declared_evals; M6 breaks only that equality.  M7 caches each new axis
factorization under another axis's key; every solve's residual check still
passes, because it applies the same wrong axis it solved with.  M8 drops
the square root from test_rmse, so every run reports its mean test MSE.  M9
builds a TrainConfig without checking it.  M10 lets every finite solve pass
its check, whatever its backward error.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAIN = Path("src/zo_meshopt/train.py")
SOLVER = Path("src/zo_meshopt/solver.py")
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_runs", ".benchmarks",
    "out", "*.egg-info",
)

ORDERING = "tests/test_acceptance.py::test_hybrid_training_rmse_ordering"
WARM_START = "tests/test_acceptance.py::test_warm_start_beats_cold_at_equal_budget"
BD_TRENDS = "tests/test_acceptance.py::test_subset_size_and_batch_trends"
REPLAY = "tests/test_train.py::test_joint_epoch_uses_one_workspace_and_matches_fresh_passes"
SUBSET = "tests/test_train.py::test_gauss_coord_subset_clipped_to_dimension"
BUDGET = "tests/test_train.py::test_budget_matches_declared_and_counter"
CLI_BUDGET = "tests/test_cli.py::test_train_counts_every_solve"
SWEEP_FILES = "tests/test_cli.py::test_sweep_modes_cells_write_the_runs_files"
BENCH_CHECKS = "tests/test_cli.py::test_bench_tracer_sees_every_solve_and_leaves_no_wrapper"
RMSE = "tests/test_train.py::test_test_rmse_matches_manual_recompute"
STACKED = "tests/test_solver.py::test_stacked_factorizations_equal_one_axis_factorizations"
LOOKUP = "tests/test_solver.py::test_lookup_of_more_new_axes_than_the_cache_holds"
BLOCK = ("tests/test_solver.py::"
         "test_block_of_more_new_axes_than_the_cache_holds_equals_one_mesh_solves")
ORACLES = "tests/test_acceptance.py::test_differentiation_oracles"
INVALID = "tests/test_train.py::test_building_an_invalid_config_raises"
FLAGS_ONLY = "tests/test_cli.py::test_file_valid_only_with_its_flags_trains"
SWEEP_CHECKS = "tests/test_cli.py::test_sweep_checks_every_cell_before_training"
BAD_ESTIMATOR = "tests/test_cli.py::test_bad_estimator_settings_exit_two_in_every_mode"
RESIDUAL_GUARD = "tests/test_solver.py::test_residual_guard_raises"


@dataclass(frozen=True)
class Mutant:
    name: str
    what: str
    path: Path
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "M1", "every mesh gradient sign-flipped (exact too)",
        TRAIN,
        "adam_step(adam_mesh, mesh_to_params(coarse), mesh_g)",
        "adam_step(adam_mesh, mesh_to_params(coarse), -mesh_g)",
        (ORDERING, WARM_START, BD_TRENDS, REPLAY),
    ),
    Mutant(
        "M2", "ZO estimate sign-flipped",
        TRAIN,
        "mesh_g += zo_vjp(",
        "mesh_g -= zo_vjp(",
        (ORDERING, WARM_START, BD_TRENDS),
    ),
    Mutant(
        "M3", "ZO estimate times 0",
        TRAIN,
        "mesh_g += zo_vjp(",
        "mesh_g += 0 * zo_vjp(",
        (ORDERING, SUBSET, REPLAY),
    ),
    Mutant(
        "M4", "estimator seed never advances",
        TRAIN,
        "est_calls += 1",
        "est_calls += 0",
        (ORDERING, REPLAY),
    ),
    Mutant(
        "M5", "ZO estimate turned by a random orthogonal matrix: its norm, no direction",
        TRAIN,
        "mesh_g += zo_vjp(",
        "mesh_g += np.linalg.qr(np.random.default_rng(est_calls).standard_normal("
        "(params0.size,) * 2))[0] @ zo_vjp(",
        (ORDERING, BD_TRENDS),
    ),
    Mutant(
        "M6", "declared_evals counts one joint epoch too many",
        TRAIN,
        "joint = max(0, done - config.warm_start_epochs)",
        "joint = max(0, done - config.warm_start_epochs + 1)",
        (BUDGET, CLI_BUDGET),
    ),
    Mutant(
        "M7", "new axes cached under each other's keys",
        SOLVER,
        "_AXES.update(zip(group, _factorize(stack)))",
        "_AXES.update(zip(reversed(group), _factorize(stack)))",
        (STACKED, LOOKUP, BLOCK, ORACLES, ORDERING),
    ),
    Mutant(
        "M8", "test_rmse reports the mean test MSE",
        TRAIN,
        "test_rmse = float(np.mean(np.sqrt(test_losses)))",
        "test_rmse = float(np.mean(test_losses))",
        (RMSE, CLI_BUDGET, SWEEP_FILES, BENCH_CHECKS),
    ),
    Mutant(
        "M9", "a config is not checked when it is built",
        TRAIN,
        "self.validate()",
        "pass",
        (INVALID, FLAGS_ONLY, SWEEP_CHECKS, BAD_ESTIMATOR),
    ),
    Mutant(
        "M10", "the solve check accepts any backward error",
        SOLVER,
        "BACKWARD_TOL = 64 * np.finfo(float).eps",
        "BACKWARD_TOL = 1.0",
        (RESIDUAL_GUARD,),
    ),
)


def copy_tree(dest: Path) -> Path:
    """Copy the repository, without version control and caches, to dest."""
    shutil.copytree(ROOT, dest, ignore=IGNORED)
    return dest


def apply(mutant: Mutant, tree: Path) -> None:
    """Replace the mutant's text in tree's copy of its file; it must occur
    once."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} "
                         f"times in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def failed_tests(tree: Path, tests: tuple[str, ...]) -> list[str]:
    """Run tests in tree with pytest; the listed tests that failed or
    errored, or every one of them if pytest stopped before running any."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = {line.split()[1].split("[")[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and not failed):
        return list(tests)
    return [t for t in tests if t in failed]


def _names(tests) -> str:
    return ", ".join(f"`{t.split('::')[1]}`" for t in tests) or "none"


def main() -> int:
    every = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        broken = failed_tests(copy_tree(Path(tmp) / "clean"), every)
        for test in broken:
            print(f"unmutated: {test} fails")
        killed = {}
        for k, mutant in enumerate(MUTANTS):
            tree = copy_tree(Path(tmp) / f"m{k}")
            apply(mutant, tree)
            killed[mutant.name] = failed_tests(tree, mutant.tests)
            print(f"{mutant.name}: failed {_names(killed[mutant.name])}", flush=True)
    print("\n| mutant | tests that kill it | tests it survives |\n| --- | --- | --- |")
    for mutant in MUTANTS:
        survived = tuple(t for t in mutant.tests if t not in killed[mutant.name])
        print(f"| {mutant.name}: {mutant.what} | {_names(killed[mutant.name])} "
              f"| {_names(survived)} |")
    survivors = [m.name for m in MUTANTS if not killed[m.name]]
    if survivors:
        print(f"survived every listed test: {', '.join(survivors)}")
    return 1 if broken or survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
