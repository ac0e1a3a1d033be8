"""Finite-difference solve of -lap(alpha * u) = f with zero Dirichlet data.

Second derivatives use the three-point stencil for non-uniform spacing,
applied to w = alpha * u:

    w''(x_i) ~ 2 * [ w_{i-1} / (hL * (hL + hR))
                   - w_i     / (hL * hR)
                   + w_{i+1} / (hR * (hL + hR)) ]

with hL, hR the neighbouring gaps.  The interior operator is a Kronecker
sum T_y (x) I + I (x) T_x of two tridiagonal axis operators, so it is
solved by fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964):
one small eigenproblem per axis and four matrix products, at every mesh
size.  On a non-uniform axis T is not symmetric, but T = M^-1 S with S
symmetric tridiagonal (diagonal 1/hL + 1/hR, off-diagonals -1/h) and
M = diag((hL + hR) / 2).  The eigenvectors of the symmetric M^-1/2 S M^-1/2
are orthonormal and stable to compute, and scaling them by M^-1/2 gives
T's eigenvectors with an inverse in closed form.  Every solve verifies its
own residual before returning, as two products with the axes' dense
tridiagonal operators, T_y w + w T_x^T; a non-finite solution fails that
check too, so it needs no scan of its own.

An axis factorization depends only on that axis's lines, and most of them
repeat from call to call: one coarse mesh is solved for every scenario
alpha of an epoch, a uniform fine mesh has equal x and y lines, and each
central-difference perturbation of ``exact_mesh_vjp`` moves one line, so
its other axis is the base mesh's.  Factorizations are therefore kept in a
least-recently-used cache keyed on the bytes of the lines, the two line
entries of ``TensorMesh.key`` (see ``_AXIS_CACHE_SIZE`` for the bound), and
every cached array is read-only.  One routine, ``_axes``, is the only
lookup: it takes a list of keys and factorizes all the missing ones in one
stacked ``eigh`` per line count.  A stacked ``eigh`` runs the same LAPACK
call on each matrix, so every axis is bit for bit what it would be alone.
A single solve looks up its two axes; both gradient methods reach the
solver through ``_solve_block``, which looks up every axis of its block
first: the estimators' ``make_evaluate`` hands it each projected block of b
perturbed meshes, and the central-difference oracle ``exact_mesh_vjp`` its
2 * D meshes.  A
zeroth-order perturbation moves every line, so both axes of each perturbed
mesh are new and the whole block's are factorized as one stack.  Then each
mesh of the block is one ``solve_poisson`` call.  The cache saves
eigendecompositions, not solves: each call still builds its source, solves,
checks its residual and returns its own report.

The oracle steps each mesh parameter by the module constant ``FD_STEP``, so
its perturbed meshes depend only on the base mesh, not on the scenario:
``exact_mesh_vjp`` projects them once per base mesh (a one-entry memo keyed
on the mesh, which compares by content) and every scenario alpha of an epoch
solves the same 2 * D meshes as one block.

The solver counts its own calls.  Every one-mesh solve adds one to a
process-wide count, read by ``solve_count()``, before it runs, so a solve
that raises counts too.  A caller measures its budget as the difference of
two readings; ``train_run`` records that difference as ``n_solver_evals``.
The package solves on one thread, so the count takes no lock.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import SolverError
from .grid import Field, ScenarioParams, TensorMesh, mesh_to_params, params_to_meshes

RESIDUAL_TOL = 1e-10

# Step of exact_mesh_vjp's central differences, in mesh-parameter units.
FD_STEP = 1e-6

# Distinct axes kept factorized.  The largest working set is the exact
# oracle's: a coarse n x n mesh has D = 2 (n - 2) interior lines, its 2 D
# perturbed meshes each bring one new axis and share the other with the base
# mesh, so one batch needs 4 (n - 2) + 2 axes (62 at coarse 17, 126 at
# coarse 33), plus the fine mesh's one or two.
_AXIS_CACHE_SIZE = 128

# One-mesh solves started in this process; see solve_count().
_solves = 0


@dataclass(frozen=True)
class SolveReport:
    """Solution field plus the residual evidence for it."""

    field: Field
    residual_norm: float


class _Axis(NamedTuple):
    """One axis's operator T = -d2/dx2 on its interior nodes.

    T = V diag(lam) V^-1, and ``t`` is T itself as a dense tridiagonal
    matrix, for the residual check.
    """

    lam: np.ndarray
    v: np.ndarray
    v_inv: np.ndarray
    t: np.ndarray


# Least recently used first; _axes evicts down to _AXIS_CACHE_SIZE entries.
_AXES: OrderedDict[bytes, _Axis] = OrderedDict()


def _factorize(lines: np.ndarray) -> list[_Axis]:
    """The operators of a (k, n + 2) stack of axes with equal line counts,
    from one stacked eigh: the same LAPACK call on each matrix, so each
    axis comes out bit for bit as it would alone."""
    gaps = np.diff(lines, axis=1)
    inv_gap = 1.0 / gaps
    m = 0.5 * (gaps[:, :-1] + gaps[:, 1:])
    lower = inv_gap[:, :-1] / m
    upper = inv_gap[:, 1:] / m
    diag = lower + upper
    # M^1/2 T M^-1/2 = M^-1/2 S M^-1/2 is symmetric; eigh reads only its
    # lower triangle, so the super-diagonal is left empty.
    root_m = np.sqrt(m)
    k, n = m.shape
    sym = np.zeros((k, n * n))
    sym[:, :: n + 1] = diag
    sym[:, n :: n + 1] = -inv_gap[:, 1:-1] / (root_m[:, :-1] * root_m[:, 1:])
    lam, q = np.linalg.eigh(sym.reshape(k, n, n))
    t = np.zeros((k, n * n))
    t[:, :: n + 1] = diag
    t[:, n :: n + 1] = -lower[:, 1:]
    t[:, 1 :: n + 1] = -upper[:, :-1]
    stacks = (lam, q / root_m[:, :, None], q.transpose(0, 2, 1) * root_m[:, None, :],
              t.reshape(k, n, n))
    for array in stacks:
        array.flags.writeable = False
    return [_Axis(*arrays) for arrays in zip(*stacks)]


def _axes(keys: Sequence[bytes]) -> list[_Axis]:
    """The factorized axis of each key (the bytes of an axis's lines), in
    order: the one cache lookup.  Cached keys move to the most recent end;
    the distinct missing ones are factorized in one stacked eigh per line
    count and cached.  The least recently used are evicted only after every
    key's axis is read, so all are returned even if the cache cannot keep
    them all."""
    missing: dict[int, dict[bytes, None]] = {}
    for key in keys:
        if key in _AXES:
            _AXES.move_to_end(key)
        else:
            missing.setdefault(len(key), {})[key] = None
    for group in missing.values():
        stack = np.frombuffer(b"".join(group)).reshape(len(group), -1)
        _AXES.update(zip(group, _factorize(stack)))
    axes = [_AXES[key] for key in keys]
    while len(_AXES) > _AXIS_CACHE_SIZE:
        _AXES.popitem(last=False)
    return axes


def solve_count() -> int:
    """One-mesh solves started in this process so far, those that raised
    included."""
    return _solves


def _apply_operator(ax: _Axis, ay: _Axis, w: np.ndarray) -> np.ndarray:
    """The 5-point negative Laplacian on an (ny - 2, nx - 2) interior grid."""
    return w @ ax.t.T + ay.t @ w


def _solve_interior(ax: _Axis, ay: _Axis, rhs: np.ndarray) -> np.ndarray:
    """Interior w with T_y w + w T_x^T = rhs, by fast diagonalization."""
    spectral = ay.v_inv @ rhs @ ax.v_inv.T
    spectral /= ay.lam[:, None] + ax.lam
    return ay.v @ spectral @ ax.v.T


def _solve(
    mesh: TensorMesh,
    params: ScenarioParams,
    rhs_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> SolveReport:
    """rhs_fn gets the interior x lines as a row and y lines as a column and
    returns the (ny - 2, nx - 2) source grid.  Counted before it runs."""
    global _solves
    _solves += 1
    nx, ny = mesh.shape
    if nx < 3 or ny < 3:
        raise ValueError(f"mesh {nx}x{ny} has no interior nodes to solve for")
    ax, ay = _axes(mesh.key[:2])
    rhs = np.asarray(rhs_fn(mesh.x_lines[1:-1], mesh.y_lines[1:-1, None]), dtype=float)
    u = _solve_interior(ax, ay, rhs) / params.alpha
    # A NaN or inf anywhere in u makes the residual NaN or inf.
    residual = float(np.max(np.abs(_apply_operator(ax, ay, params.alpha * u) - rhs)))
    if not np.isfinite(residual):
        raise SolverError(f"linear solve on a {nx}x{ny} mesh produced non-finite values")
    if residual > RESIDUAL_TOL:
        raise SolverError(
            f"solve residual {residual:.3e} exceeds tolerance {RESIDUAL_TOL:.1e}",
            residual=residual,
        )
    full = np.zeros((ny, nx))
    full[1:-1, 1:-1] = u
    return SolveReport(Field(full.ravel(), mesh.shape), residual)


def solve_poisson(mesh: TensorMesh, params: ScenarioParams) -> SolveReport:
    """Solve -lap(alpha * u) = 1 with u = 0 on the boundary."""
    return _solve(mesh, params, lambda x, y: np.ones((y.size, x.size)))


def solve_manufactured(mesh: TensorMesh, params: ScenarioParams) -> SolveReport:
    """Solve against the source 2*pi^2*sin(pi x)*sin(pi y).

    The exact solution is u = sin(pi x) * sin(pi y) / alpha, i.e. the source
    is manufactured so alpha * u equals the plain product of sines; the
    discrete solution converges to it at second order.
    """
    return _solve(
        mesh,
        params,
        lambda x, y: 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y),
    )


def _solve_block(meshes: Sequence[TensorMesh], params: ScenarioParams) -> np.ndarray:
    """The (b, n) solved field values of a block of b >= 1 meshes with n
    nodes each: every axis of the block is looked up first, in one ``_axes``
    call, then each mesh is one ``solve_poisson`` call, so the block adds b
    to ``solve_count()``.  The only place that solves a block."""
    _axes([line_key for mesh in meshes for line_key in mesh.key[:2]])
    out = np.empty((len(meshes), meshes[0].n_nodes))
    for row, mesh in zip(out, meshes):
        row[:] = solve_poisson(mesh, params).field.values
    return out


def make_evaluate(
    template: TensorMesh, params: ScenarioParams
) -> Callable[[np.ndarray], np.ndarray]:
    """Opaque forward interface: a (b, D) block of mesh-parameter rows in,
    the (b, n) block of their solved field values out.

    This is the only view of the solver that gradient-estimation code gets.
    The block is projected in one pass and handed to ``_solve_block``, so
    each row is one counted solve; an empty block makes none.
    """

    def evaluate(p: np.ndarray) -> np.ndarray:
        meshes = params_to_meshes(template, p)
        if not meshes:
            return np.empty((0, template.n_nodes))
        return _solve_block(meshes, params)

    return evaluate


@functools.lru_cache(maxsize=1)
def _perturbed_meshes(mesh: TensorMesh) -> tuple[TensorMesh, ...]:
    """The oracle's 2 * D meshes p0 + h e_k, p0 - h e_k, k = 0 .. D - 1, in
    that order, with h = FD_STEP, shared by every scenario solved on this
    mesh; projected in one block once per base mesh."""
    p0 = mesh_to_params(mesh)
    steps = np.zeros((2 * p0.size, p0.size))
    k = np.arange(p0.size)
    steps[2 * k, k] = FD_STEP
    steps[2 * k + 1, k] = -FD_STEP
    return tuple(params_to_meshes(mesh, p0 + steps))


def exact_mesh_vjp(mesh: TensorMesh, params: ScenarioParams, v: Field) -> np.ndarray:
    """Central-difference oracle for the mesh-parameter VJP.

    Component k is <v, (O(p + h e_k) - O(p - h e_k))> / (2 h) where O maps
    mesh parameters to solved field values and h is ``FD_STEP``.  Costs
    2 * D solves, so ``solve_count()`` and ``n_solver_evals`` grow by 2 * D
    per call.  The perturbed meshes are projected once per base mesh, reused
    for every scenario, and solved as one block by ``_solve_block``, the
    estimators' path too.  Each moves one line: it brings that one new axis
    and reuses the base mesh's other axis, and the same 2 * D + 2 axes serve
    every scenario alpha, all within ``_AXIS_CACHE_SIZE``.  Kept apart from
    the estimator code, which must only ever see make_evaluate.
    """
    if v.mesh_shape != mesh.shape:
        raise ValueError(f"cotangent shape {v.mesh_shape} does not match mesh {mesh.shape}")
    fields = _solve_block(_perturbed_meshes(mesh), params)
    grad = np.empty(mesh.n_params)
    for k in range(grad.size):
        grad[k] = float(v.values @ (fields[2 * k] - fields[2 * k + 1])) / (2.0 * FD_STEP)
    return grad
