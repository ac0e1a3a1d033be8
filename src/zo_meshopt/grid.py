"""Tensor-product meshes on the unit square and per-node fields.

A mesh is a pair of strictly increasing grid-line position arrays with the
boundary lines pinned to 0 and 1.  The trainable degrees of freedom are the
interior line positions, flattened to one parameter vector (interior x-lines
first, then interior y-lines).  Fields store one value per node in row-major
order over (j, i): node (i, j) sits at (x_lines[i], y_lines[j]) and lives at
flat index j * nx + i, so each stored row follows one y-line.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

DEFAULT_MIN_GAP = 1e-4


def _validate_lines(lines: np.ndarray, s_min: float, axis: str) -> None:
    # One pass for the common, valid case; NaN and inf fail it.  Anything
    # else falls through to the checks below, which name what is wrong.
    if (
        lines.ndim == 1
        and lines.size >= 2
        and lines[0] == 0.0
        and lines[-1] == 1.0
        and (lines[1:] - lines[:-1]).min() >= s_min
    ):
        return
    if lines.ndim != 1 or lines.size < 2:
        raise ValueError(f"{axis}_lines must contain at least the two boundary lines")
    if not np.all(np.isfinite(lines)):
        raise ValueError(f"{axis}_lines contain non-finite entries")
    if lines[0] != 0.0 or lines[-1] != 1.0:
        raise ValueError(
            f"{axis}_lines must run from 0 to 1 exactly, got [{lines[0]}, {lines[-1]}]"
        )
    if np.any(np.diff(lines) < s_min):
        raise ValueError(f"{axis}_lines spacing falls below the minimum gap {s_min}")


@dataclass(frozen=True)
class TensorMesh:
    """Grid-line positions of a tensor-product mesh over [0, 1]^2.

    Lines are strictly increasing with consecutive gaps of at least ``s_min``;
    the arrays are made read-only so meshes can be shared freely.
    """

    x_lines: np.ndarray
    y_lines: np.ndarray
    s_min: float = DEFAULT_MIN_GAP

    def __post_init__(self):
        if not (0.0 < self.s_min <= 1.0):
            raise ValueError(f"s_min must lie in (0, 1], got {self.s_min}")
        x = np.array(self.x_lines, dtype=float)
        y = np.array(self.y_lines, dtype=float)
        _validate_lines(x, self.s_min, "x")
        _validate_lines(y, self.s_min, "y")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x_lines", x)
        object.__setattr__(self, "y_lines", y)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_lines.size, self.y_lines.size)

    @property
    def n_nodes(self) -> int:
        return self.x_lines.size * self.y_lines.size

    @property
    def n_params(self) -> int:
        return (self.x_lines.size - 2) + (self.y_lines.size - 2)

    @functools.cached_property
    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node coordinate arrays (x, y), row-major over (j, i); built
        once per mesh and read-only."""
        nx, ny = self.shape
        x, y = np.tile(self.x_lines, ny), np.repeat(self.y_lines, nx)
        x.setflags(write=False)
        y.setflags(write=False)
        return x, y


@dataclass(frozen=True)
class Field:
    """Per-node values on a tensor mesh, row-major over (j, i)."""

    values: np.ndarray
    mesh_shape: tuple[int, int]

    def __post_init__(self):
        nx, ny = self.mesh_shape
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != nx * ny:
            raise ValueError(
                f"field needs {nx * ny} values for a {nx}x{ny} mesh, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mesh_shape", (int(nx), int(ny)))

    def as_grid(self) -> np.ndarray:
        """Values reshaped to (ny, nx); row j holds the y_lines[j] row."""
        nx, ny = self.mesh_shape
        return self.values.reshape(ny, nx)

    @classmethod
    def from_grid(cls, grid_values: np.ndarray) -> "Field":
        grid = np.asarray(grid_values, dtype=float)
        if grid.ndim != 2:
            raise ValueError(f"grid values must be 2-D, got shape {grid.shape}")
        ny, nx = grid.shape
        return cls(grid.ravel(), (nx, ny))


@dataclass(frozen=True)
class ScenarioParams:
    """PDE coefficient for one scenario."""

    alpha: float

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


def uniform_mesh(nx: int, ny: int | None = None, s_min: float = DEFAULT_MIN_GAP) -> TensorMesh:
    """Uniformly spaced mesh with nx x-lines and ny y-lines."""
    ny = nx if ny is None else ny
    if nx < 2 or ny < 2:
        raise ConfigError(f"a mesh needs at least 2 lines per axis, got {nx}x{ny}")
    return TensorMesh(np.linspace(0.0, 1.0, nx), np.linspace(0.0, 1.0, ny), s_min)


def init_coarse_from_fine(
    fine_nx: int, fine_ny: int, coarse_nx: int, coarse_ny: int
) -> TensorMesh:
    """Subsample a uniform fine mesh at a fixed stride per axis.

    The stride (fine - 1) / (coarse - 1) must be a whole number so coarse
    lines land exactly on fine lines.
    """
    lines = []
    for fine_n, coarse_n, axis in ((fine_nx, coarse_nx, "x"), (fine_ny, coarse_ny, "y")):
        if coarse_n < 3:
            raise ConfigError(f"coarse {axis} count must be at least 3, got {coarse_n}")
        if fine_n < coarse_n:
            raise ConfigError(
                f"fine {axis} count {fine_n} must be at least the coarse count {coarse_n}"
            )
        if (fine_n - 1) % (coarse_n - 1) != 0:
            raise ConfigError(
                f"stride ({fine_n} - 1) / ({coarse_n} - 1) is not a whole number"
            )
        stride = (fine_n - 1) // (coarse_n - 1)
        lines.append(np.linspace(0.0, 1.0, fine_n)[::stride])
    return TensorMesh(lines[0], lines[1])


def mesh_to_params(mesh: TensorMesh) -> np.ndarray:
    """Interior line positions as one vector: x interiors, then y interiors."""
    return np.concatenate([mesh.x_lines[1:-1], mesh.y_lines[1:-1]])


def _check_room(k: int, s_min: float) -> None:
    if (k + 1) * s_min > 1.0 - 1e-9:
        raise ValueError(
            f"cannot fit {k} interior lines in the unit interval with gap {s_min}"
        )


def _project_lines_loop(interior: np.ndarray, s_min: float) -> np.ndarray:
    """The clamping sweep: sort, then clamp each line into [lo, hi]."""
    k = interior.size
    _check_room(k, s_min)
    # Maximal allowed positions, built down from the top boundary with the
    # subtraction re-checked so the stored gaps never round below s_min.
    tops = np.empty(k + 1)
    tops[0] = 1.0
    for j in range(1, k + 1):
        t = tops[j - 1] - s_min
        while tops[j - 1] - t < s_min:
            t = np.nextafter(t, -np.inf)
        tops[j] = t
    out = np.empty(k + 2)
    out[0] = 0.0
    out[-1] = 1.0
    ordered = np.sort(interior)
    prev = 0.0
    for idx in range(k):
        lo = prev + s_min
        while lo - prev < s_min:
            lo = np.nextafter(lo, np.inf)
        hi = tops[k - idx]
        if lo > hi:
            raise ValueError(
                f"no room left for interior line {idx} with minimum gap {s_min}"
            )
        prev = min(max(ordered[idx], lo), hi)
        out[idx + 1] = prev
    return out


def _project_lines(interior: np.ndarray, s_min: float) -> np.ndarray:
    """Boundary-pinned, sorted lines with every gap >= s_min, one row per
    row of interior.

    A row whose sorted lines already keep every gap >= s_min is returned as
    it is, which is exactly what the clamping sweep of _project_lines_loop
    would return; only a row with a short gap pays for the sweep.
    """
    rows, k = interior.shape
    _check_room(k, s_min)
    lines = np.empty((rows, k + 2))
    lines[:, 0] = 0.0
    lines[:, -1] = 1.0
    lines[:, 1:-1] = np.sort(interior, axis=1)
    short = (lines[:, 1:] - lines[:, :-1]).min(axis=1) < s_min
    for r in np.flatnonzero(short):
        lines[r] = _project_lines_loop(interior[r], s_min)
    return lines


def params_to_meshes(template: TensorMesh, params: np.ndarray) -> list[TensorMesh]:
    """Rebuild one feasible mesh from each row of a (b, D) parameter block.

    Each row's interior positions are sorted ascending, then swept left to
    right with each line clamped so every gap (boundaries included) stays
    >= s_min.  Already-feasible rows pass through unchanged, so the
    projection is idempotent.  All rows are sorted and checked in one
    vectorized pass; only a row with a short gap runs the sweep.
    """
    p = np.asarray(params, dtype=float)
    if p.ndim != 2 or p.shape[1] != template.n_params:
        raise ValueError(
            f"expected rows of {template.n_params} mesh parameters, got shape {p.shape}"
        )
    if not np.all(np.isfinite(p)):
        raise ValueError("mesh parameters contain non-finite values")
    n_xi = template.x_lines.size - 2
    xs = _project_lines(p[:, :n_xi], template.s_min)
    ys = _project_lines(p[:, n_xi:], template.s_min)
    return [TensorMesh(x, y, template.s_min) for x, y in zip(xs, ys)]


def params_to_mesh(template: TensorMesh, params: np.ndarray) -> TensorMesh:
    """Rebuild a feasible mesh from a parameter vector: the one-row case of
    params_to_meshes."""
    p = np.asarray(params, dtype=float)
    if p.shape != (template.n_params,):
        raise ValueError(
            f"expected {template.n_params} mesh parameters, got shape {p.shape}"
        )
    return params_to_meshes(template, p[None])[0]


def _nearest_line_index(lines: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # Midpoint rule with side="left" sends an exact tie to the smaller index.
    midpoints = (lines[:-1] + lines[1:]) / 2.0
    return np.searchsorted(midpoints, targets, side="left")


def nearest_upsample(coarse: TensorMesh, field: Field, fine: TensorMesh) -> Field:
    """Copy each fine node's value from its nearest coarse node.

    Euclidean distance on a tensor-product grid separates per axis, so the
    nearest coarse node is the pair of per-axis nearest lines; ties go to the
    smaller (i, j) index.
    """
    if field.mesh_shape != coarse.shape:
        raise ValueError(
            f"field shape {field.mesh_shape} does not match coarse mesh {coarse.shape}"
        )
    ix = _nearest_line_index(coarse.x_lines, fine.x_lines)
    iy = _nearest_line_index(coarse.y_lines, fine.y_lines)
    out = field.as_grid()[np.ix_(iy, ix)]
    return Field(out.ravel(), fine.shape)


def upsample_adjoint(coarse: TensorMesh, fine: TensorMesh, fine_cotangent: Field) -> Field:
    """Exact transpose of nearest_upsample: scatter-add over the same map.

    bincount adds each fine value to its coarse node in fine-node order,
    the same sums np.add.at would make.
    """
    if fine_cotangent.mesh_shape != fine.shape:
        raise ValueError(
            f"cotangent shape {fine_cotangent.mesh_shape} does not match fine mesh {fine.shape}"
        )
    ix = _nearest_line_index(coarse.x_lines, fine.x_lines)
    iy = _nearest_line_index(coarse.y_lines, fine.y_lines)
    nxc, nyc = coarse.shape
    flat = (iy[:, None] * nxc + ix[None, :]).ravel()
    acc = np.bincount(flat, weights=fine_cotangent.values, minlength=nxc * nyc)
    return Field(acc, coarse.shape)


_HEADER_RE = re.compile(r"# nx=(\d+) ny=(\d+)")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text through a temp file in the same directory, then rename it
    over path, so a crash or an interrupt leaves the old file or the new
    one, never a partial one, and no temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_field_csv(field: Field, path: str | Path) -> None:
    """One row per y-line, comma-separated, after a '# nx=.. ny=..' header."""
    nx, ny = field.mesh_shape
    lines = [f"# nx={nx} ny={ny}"]
    for row in field.as_grid():
        lines.append(",".join(repr(float(v)) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_field_csv(path: str | Path) -> Field:
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty field file")
    match = _HEADER_RE.fullmatch(text[0].strip())
    if match is None:
        raise ValueError(f"{path}: bad field header {text[0]!r}")
    nx, ny = int(match[1]), int(match[2])
    rows = [np.array([float(tok) for tok in line.split(",")]) for line in text[1:]]
    grid = np.array(rows)
    if grid.shape != (ny, nx):
        raise ValueError(f"{path}: expected {ny} rows of {nx} values, got {grid.shape}")
    return Field(grid.ravel(), (nx, ny))
