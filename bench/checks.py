"""Correctness checks on the files one ``train`` command leaves behind.

The fine truth is checked against ``dst_poisson``, a fast-Poisson solve by
the type-I discrete sine transform that shares no code with
``zo_meshopt.solver``.  Files are parsed here rather than with the
package's own readers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.fft import dstn, idstn

TRUTH_RTOL = 1e-10
RMSE_RTOL = 1e-12


def dst_poisson(n: int, alpha: float) -> np.ndarray:
    """Solve -lap(alpha * u) = 1 on the uniform n x n grid of [0, 1]^2 with u = 0
    on the boundary, using the 5-point stencil; returns the (n, n) node values.

    The stencil's eigenvalues on the n - 2 interior lines per axis are
    (2 - 2 cos(pi k / (n - 1))) / h^2, k = 1 .. n - 2, with sine eigenvectors,
    so the orthonormal DST-I diagonalises the operator.
    """
    m = n - 2
    h = 1.0 / (n - 1)
    k = np.arange(1, m + 1)
    lam = (2.0 - 2.0 * np.cos(np.pi * k / (n - 1))) / h**2
    rhs_hat = dstn(np.ones((m, m)), type=1, norm="ortho")
    w = idstn(rhs_hat / (lam[:, None] + lam[None, :]), type=1, norm="ortho")
    u = np.zeros((n, n))
    u[1:-1, 1:-1] = w / alpha
    return u


def read_grid(path: Path) -> np.ndarray:
    """A field CSV as its (ny, nx) grid; checks the '# nx=.. ny=..' header."""
    lines = path.read_text().splitlines()
    header = dict(tok.split("=") for tok in lines[0].lstrip("# ").split())
    grid = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if grid.shape != (int(header["ny"]), int(header["nx"])):
        raise ValueError(f"{path}: header says {header}, grid is {grid.shape}")
    return grid


def read_metrics(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    keys = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            raise ValueError(f"{path}: run marked {line!r}")
        values = line.split(",")
        rows.append({k: (int(v) if k in ("epoch", "n_solver_evals") else float(v))
                     for k, v in zip(keys, values)})
    return rows


def check_outputs(out: Path, config, declared_evals, layers: dict | None = None,
                  residual_tol: float | None = None) -> tuple[list[str], list[dict]]:
    """Check one finished ``train`` command's outputs in directory ``out``.

    ``config`` is the run's TrainConfig and ``declared_evals`` the package's
    budget formula.  ``layers`` (from a traced run) adds the checks on the
    traced solver calls.  Returns (failures, metrics rows).
    """
    failures: list[str] = []
    rows = read_metrics(out / "metrics.csv")
    if len(rows) != config.epochs:
        failures.append(f"metrics.csv has {len(rows)} epochs, expected {config.epochs}")
        return failures, rows

    rmses = []
    for alpha in config.test_alphas:
        truth = read_grid(out / f"truth_alpha_{alpha:g}.csv")
        pred = read_grid(out / f"pred_alpha_{alpha:g}.csv")
        ref = dst_poisson(config.fine_n, alpha)
        err = float(np.max(np.abs(truth - ref)) / np.max(np.abs(ref)))
        if not err <= TRUTH_RTOL:
            failures.append(f"truth alpha={alpha:g} differs from the DST reference by {err:.3e}")
        diff = (pred - truth).ravel()
        rmses.append(float(np.sqrt(diff @ diff / diff.size)))
    final_rmse = rows[-1]["test_rmse"]
    recomputed = float(np.mean(rmses))
    if not abs(final_rmse - recomputed) <= RMSE_RTOL * abs(recomputed):
        failures.append(f"final test_rmse {final_rmse!r} != recomputed {recomputed!r}")

    for k, row in enumerate(rows):
        if row["n_solver_evals"] != declared_evals(config, k + 1):
            failures.append(
                f"epoch {k}: n_solver_evals {row['n_solver_evals']} != "
                f"declared {declared_evals(config, k + 1)}"
            )
        if k < config.warm_start_epochs and row["mesh_delta"] != 0.0:
            failures.append(f"warm-start epoch {k} moved the mesh by {row['mesh_delta']!r}")

    mesh = json.loads((out / "checkpoint.json").read_text())["mesh"]
    for axis in ("x_lines", "y_lines"):
        gap = float(np.min(np.diff(mesh[axis])))
        if not gap >= mesh["s_min"]:
            failures.append(f"final mesh {axis} gap {gap!r} is below s_min {mesh['s_min']!r}")

    if not rows[-1]["train_loss"] < rows[0]["train_loss"]:
        failures.append(
            f"final train loss {rows[-1]['train_loss']!r} is not below epoch 0's "
            f"{rows[0]['train_loss']!r}"
        )

    if layers is not None:
        calls = layers["solver.calls"][0]
        if calls != rows[-1]["n_solver_evals"]:
            failures.append(f"traced solver calls {calls} != n_solver_evals "
                            f"{rows[-1]['n_solver_evals']}")
        residual = layers["solver.residual_max"][0]
        if not residual <= residual_tol:
            failures.append(f"solver.residual_max {residual:.3e} exceeds {residual_tol:.1e}")
    return failures, rows
