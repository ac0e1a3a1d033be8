"""Gradient estimation for black-box vector maps from forward evaluations.

Given a cotangent v and a base output O(m0), each scheme draws b directions
u_j, evaluates O(m0 + mu * u_j) for all j in one call on the (b, D) block of
perturbed inputs, and returns

    (1/b) * sum_j  <v, O(m0 + mu * u_j) - O(m0)> / mu  *  u_j

Directions are single coordinates (sampled without replacement), dense
standard normals, or normals restricted to one random coordinate subset per
call.  The 1/b average is kept as-is for every scheme, so a full coordinate
pass returns the finite-difference gradient divided by the dimension; the
per-coordinate normalization of Adam absorbs that scale downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, SolverError

ESTIMATOR_KINDS = ("coordinate", "gaussian", "gauss_coord")


@dataclass(frozen=True)
class EstimatorSpec:
    """Which perturbation scheme to use and its knobs.

    d only matters for gauss_coord and must not exceed the input dimension
    at call time.
    """

    kind: str
    mu: float = 1e-3
    b: int = 1
    d: int = 16
    seed: int = 0

    def validate(self, dim: int) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ConfigError(
                f"unknown estimator kind {self.kind!r}, expected one of {ESTIMATOR_KINDS}"
            )
        if not np.isfinite(self.mu) or self.mu <= 0:
            raise ConfigError(f"perturbation size mu must be positive, got {self.mu}")
        if self.b < 1:
            raise ConfigError(f"draw count b must be at least 1, got {self.b}")
        if self.seed < 0:
            raise ConfigError(f"estimator seed must be non-negative, got {self.seed}")
        if dim < 1:
            raise ConfigError(f"input dimension must be at least 1, got {dim}")
        if self.kind == "gauss_coord" and not 1 <= self.d <= dim:
            raise ConfigError(f"subset size d={self.d} must lie in [1, {dim}]")


def _substream(seed: int, k: int) -> np.random.Generator:
    """Generator k of the pair SeedSequence(seed).spawn(2), built directly.

    k = 0 draws directions, k = 1 draws the gauss_coord subset.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def draw_directions(spec: EstimatorSpec, dim: int) -> np.ndarray:
    """All b directions up front, as the rows of one (b, dim) array.

    coordinate rows are unit vectors, visiting coordinates without
    replacement within each block of dim rows; gaussian rows are standard
    normals; gauss_coord rows are normals that are zero off one subset of d
    coordinates, shared by every row of the call.  The subset draw uses
    its own substream, so with d == dim the directions match the gaussian
    kind bit for bit under the same seed.
    """
    spec.validate(dim)
    rng_dir = _substream(spec.seed, 0)
    if spec.kind == "coordinate":
        order: list[int] = []
        while len(order) < spec.b:
            order.extend(rng_dir.permutation(dim).tolist())
        directions = np.zeros((spec.b, dim))
        directions[np.arange(spec.b), order[: spec.b]] = 1.0
        return directions
    # One (b, dim) draw fills row after row, the same values as b successive
    # standard_normal(dim) draws.
    directions = rng_dir.standard_normal((spec.b, dim))
    if spec.kind == "gauss_coord":
        subset = _substream(spec.seed, 1).permutation(dim)[: spec.d]
        mask = np.zeros(dim, dtype=bool)
        mask[subset] = True
        directions = np.where(mask, directions, 0.0)
    return directions


def zo_vjp(
    evaluate: Callable[[np.ndarray], np.ndarray],
    m0: np.ndarray,
    base_output: np.ndarray,
    v: np.ndarray,
    spec: EstimatorSpec,
) -> np.ndarray:
    """Estimate the VJP of evaluate at m0 from exactly b forward evaluations.

    evaluate maps a (b, D) block of inputs, one per row, to the (b, n) block
    of their outputs; it is called once, on the b perturbed inputs.  The
    caller supplies base_output = O(m0), shape (n,), so the base evaluation
    is never repeated.  Returns the gradient estimate, accumulated row by
    row in the order of ``draw_directions``.
    """
    m0 = np.asarray(m0, dtype=float)
    base = np.asarray(base_output, dtype=float)
    cot = np.asarray(v, dtype=float)
    if cot.shape != base.shape:
        raise ValueError(
            f"cotangent shape {cot.shape} does not match output shape {base.shape}"
        )
    directions = draw_directions(spec, m0.size)
    outputs = np.asarray(evaluate(m0 + spec.mu * directions), dtype=float)
    if outputs.shape != (spec.b, *base.shape):
        raise ValueError(
            f"evaluate returned shape {outputs.shape}, expected {(spec.b, *base.shape)}"
        )
    if not np.all(np.isfinite(outputs)):
        raise SolverError("evaluate returned non-finite values during estimation")
    grad = np.zeros(m0.size)
    for u, out in zip(directions, outputs):
        s = float(cot @ (out - base)) / spec.mu
        grad += s * u
    grad /= spec.b
    return grad
