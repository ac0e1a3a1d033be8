"""Measure estimator quality against the central-difference mesh gradient.

Probes the vector-Jacobian product of the coarse solve at the initial mesh
with a fixed random cotangent, then reports per (kind, b, d) the cosine
alignment with the exact gradient and the spread across estimator seeds.
"""
import argparse
from dataclasses import replace

import numpy as np

from zo_meshopt.grid import ScenarioParams, mesh_to_params, uniform_mesh
from zo_meshopt.solver import exact_mesh_vjp, make_evaluate, solve_poisson
from zo_meshopt.zo import EstimatorSpec, zo_vjp


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--coarse-n", type=int, default=9)
    ap.add_argument("--alpha", type=float, default=0.9)
    ap.add_argument("--mu", type=float, default=1e-3)
    ap.add_argument("--trials", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.trials < 2:
        ap.error(f"--trials must be at least 2 for a seed spread, got {args.trials}")
    if args.coarse_n < 3:
        ap.error(f"--coarse-n must be at least 3 for an interior line per axis, "
                 f"got {args.coarse_n}")
    for flag, value in (("--alpha", args.alpha), ("--mu", args.mu)):
        if not np.isfinite(value) or value <= 0:
            ap.error(f"{flag} must be positive and finite, got {value}")

    mesh = uniform_mesh(args.coarse_n)
    scenario = ScenarioParams(alpha=args.alpha)
    base = solve_poisson(mesh, scenario).field.values
    rng = np.random.default_rng(args.seed)
    v = rng.standard_normal(base.size)
    v /= np.linalg.norm(v)

    exact = exact_mesh_vjp(mesh, scenario, v)
    evaluate = make_evaluate(mesh, scenario)
    p0 = mesh_to_params(mesh)
    exact_norm = np.linalg.norm(exact)
    dim = exact.size

    grid = [("coordinate", b, dim) for b in (1, 4, 8)]
    grid += [("gaussian", b, dim) for b in (1, 4, 8)]
    # a subset cannot be larger than the mesh: cap d at dim, as training does
    subsets = sorted({min(d, dim) for d in (4, 8)})
    grid += [("gauss_coord", b, d) for b in (1, 4, 8) for d in subsets]

    print(f"exact |g| = {exact_norm:.4e}  (dim {dim})")
    print(f"{'kind':<12} {'b':>3} {'d':>3} {'mean cos':>9} {'bias':>9} {'seed sd':>9}")
    for kind, b, d in grid:
        spec = EstimatorSpec(kind=kind, mu=args.mu, b=b, d=d, seed=0)
        estimates = np.empty((args.trials, dim))
        for i in range(args.trials):
            estimates[i] = zo_vjp(evaluate, p0, base, v, replace(spec, seed=i))
        cos = np.array([
            e @ exact / (np.linalg.norm(e) * exact_norm + 1e-300) for e in estimates
        ])
        # each kind targets a known multiple of the gradient; undo it so the
        # bias column reads as deviation from the exact direction and length
        scale = {"coordinate": dim, "gaussian": 1.0, "gauss_coord": dim / d}[kind]
        bias = np.linalg.norm(scale * estimates.mean(axis=0) - exact) / exact_norm
        sd = float(np.sqrt(estimates.var(axis=0, ddof=1).sum()))
        print(f"{kind:<12} {b:>3d} {d:>3d} {cos.mean():>9.4f} {bias:>9.3e} {sd:>9.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
