"""Acceptance gate: every quantitative claim and trend the package makes.

Each test prints one summary line with the measured values (visible with
pytest -s or on failure) and asserts both the claim and its runtime budget.
The training-trend checks pin seeds and schedules; the inequalities they
assert are the deliverable, the printed numbers are the evidence.
"""
import time

import numpy as np
import pytest

import zo_meshopt.solver as solver_mod
from zo_meshopt import net
from zo_meshopt.grid import (
    ScenarioParams,
    mesh_to_params,
    nearest_upsample,
    uniform_mesh,
    upsample_adjoint,
)
from zo_meshopt.solver import (
    RESIDUAL_TOL,
    exact_mesh_vjp,
    make_evaluate,
    solve_manufactured,
    solve_poisson,
)
from zo_meshopt.train import (
    TrainConfig,
    declared_evals,
    loss_backward,
    loss_from_coarse_field,
    train_run,
)
from zo_meshopt.zo import (
    EstimatorSpec,
    draw_directions,
    zo_vjp,
)
from zo_scalar import estimator_stats

ZO_KINDS = ("coordinate", "gaussian", "gauss_coord")


def verdict(name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name:32s} {status}  {detail}  ({time.perf_counter() - t0:.1f}s)")


def run_case(out_dir, mode, *, epochs, warm, mesh_lr, b=8, d=8, est_seed=0,
             coarse_n=9, scenario_batch=None):
    kw = dict(
        fine_n=33,
        coarse_n=coarse_n,
        mesh_mode=mode,
        scenario_batch=scenario_batch,
        epochs=epochs,
        warm_start_epochs=warm,
        lr=1e-2,
        mesh_lr=mesh_lr,
        seed=0,
        out_dir=str(out_dir),
    )
    if mode in ZO_KINDS:
        kw["estimator"] = EstimatorSpec(kind=mode, mu=1e-3, b=b, d=d, seed=est_seed)
    config = TrainConfig(**kw)
    metrics, _ = train_run(config)
    return config, metrics


def test_estimator_exactness_on_linear_maps():
    """All three kinds match the closed-form contraction on linear maps."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for kind in ZO_KINDS:
        for dim in (3, 5, 8):
            a = rng.standard_normal((4, dim))
            v = rng.standard_normal(4)
            m0 = rng.standard_normal(dim)
            spec = EstimatorSpec(kind=kind, mu=1e-3, b=4, d=min(3, dim), seed=11 * dim)

            calls = []

            def evaluate(rows, a=a, calls=calls):
                calls.extend([1] * len(rows))
                return np.array([a @ m for m in rows])

            est = zo_vjp(evaluate, m0, a @ m0, v, spec)
            acc = np.zeros(dim)
            for u in draw_directions(spec, dim):
                acc += float(v @ (a @ u)) * u
            worst = max(worst, float(np.max(np.abs(est - acc / spec.b))))
            assert len(calls) == spec.b

    # full coordinate coverage of an integer map is the scaled transpose, exactly
    a = np.arange(-11.0, 13.0).reshape(4, 6)
    v = np.array([2.0, -3.0, 1.0, 4.0])
    spec = EstimatorSpec(kind="coordinate", mu=0.25, b=6, seed=0)
    est = zo_vjp(lambda rows: np.array([a @ m for m in rows]), np.zeros(6), a @ np.zeros(6),
                 v, spec)
    identity_exact = bool(np.array_equal(est, (a.T @ v) / 6.0))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and identity_exact and elapsed < 1.0
    verdict("estimator-exactness", ok,
            f"worst |err|={worst:.2e} transpose-identity={identity_exact}", t0)
    assert worst <= 1e-9
    assert identity_exact
    assert elapsed < 1.0


def test_gaussian_single_draw_mean_unbiased():
    """Mean of 1e5 single-draw estimates of grad(0.5||x||^2) at (1, 0)."""
    t0 = time.perf_counter()
    spec = EstimatorSpec(kind="gaussian", mu=1e-3, b=1, seed=123)

    def f(x):
        return 0.5 * float(x @ x)

    mean, var = estimator_stats(f, np.array([1.0, 0.0]), spec, 100_000)
    err = np.abs(mean - np.array([1.0, 0.0]))
    elapsed = time.perf_counter() - t0
    ok = err[0] <= 0.05 and err[1] <= 0.05 and elapsed < 10.0
    verdict("gaussian-unbiasedness", ok,
            f"mean=({mean[0]:+.4f}, {mean[1]:+.4f}) err=({err[0]:.4f}, {err[1]:.4f})", t0)
    assert err[0] <= 0.05 and err[1] <= 0.05
    assert var[0] > 0.0
    assert elapsed < 10.0


def test_solver_convergence_scaling_residual():
    """Second-order two-grid ratio, exact coefficient scaling, tiny residuals."""
    t0 = time.perf_counter()
    params = ScenarioParams(alpha=0.9)
    errs = []
    for n in (17, 33):
        mesh = uniform_mesh(n)
        report = solve_manufactured(mesh, params)
        xs, ys = mesh.node_coords
        exact = np.sin(np.pi * xs) * np.sin(np.pi * ys) / params.alpha
        errs.append(float(np.max(np.abs(report.field.values - exact))))
    ratio = errs[0] / errs[1]

    mesh = uniform_mesh(9)
    base = solve_poisson(mesh, ScenarioParams(alpha=1.0)).field.values
    scale_err = 0.0
    for alpha in (0.5, 0.9, 2.0, 4.0):
        got = solve_poisson(mesh, ScenarioParams(alpha=alpha)).field.values
        want = base / alpha
        scale_err = max(scale_err, float(np.max(np.abs(got - want))))

    residual = solve_poisson(uniform_mesh(33), params).residual_norm
    elapsed = time.perf_counter() - t0
    ok = 3.2 <= ratio <= 4.8 and scale_err <= 1e-12 and residual <= 1e-10 and elapsed < 5.0
    verdict("solver-correctness", ok,
            f"ratio={ratio:.3f} scale-err={scale_err:.1e} residual={residual:.1e}", t0)
    assert 3.2 <= ratio <= 4.8
    assert scale_err <= 1e-12
    assert residual <= 1e-10 and residual <= RESIDUAL_TOL
    assert elapsed < 5.0


def test_differentiation_oracles():
    """Net gradcheck, upsample adjoint identity, coarse-cotangent FD check,
    and a full coordinate pass against the central-difference mesh VJP."""
    t0 = time.perf_counter()

    netp = net.init_params((4, 8, 1), seed=3)
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((20, 4))
    ws = net.Workspace(netp.layer_dims, 20)
    ws.features[...] = feats.T
    preds, cache = net.forward(netp, ws)
    g, _ = net.backward(cache, preds.copy())
    theta = netp.flat

    def objective(vec):
        p, _ = net.forward(net.MlpParams(netp.layer_dims, vec), ws)
        return 0.5 * float(np.sum(p * p))

    h = 1e-5
    worst_net = 0.0
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        fd = (objective(theta + e) - objective(theta - e)) / (2 * h)
        rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8)
        worst_net = max(worst_net, rel)

    coarse, fine = uniform_mesh(5), uniform_mesh(9)
    adj_rng = np.random.default_rng(7)
    worst_adj = 0.0
    for _ in range(20):
        w = adj_rng.standard_normal(coarse.n_nodes)
        z = adj_rng.standard_normal(fine.n_nodes)
        lhs = float(nearest_upsample(coarse, w, fine) @ z)
        rhs = float(w @ upsample_adjoint(coarse, fine, z))
        worst_adj = max(worst_adj, abs(lhs - rhs))

    scenario = ScenarioParams(alpha=0.8)
    netp2 = net.init_params((4, 8, 1), seed=2)
    truth = solve_poisson(fine, scenario).field.values
    coarse_field = solve_poisson(coarse, scenario).field.values
    ws = net.Workspace(netp2.layer_dims, fine.n_nodes)
    _, lcache = loss_from_coarse_field(coarse, netp2, scenario, coarse_field, fine, truth,
                                       workspace=ws)
    _, v_coarse = loss_backward(lcache)
    w = np.random.default_rng(11).standard_normal(coarse.n_nodes)

    def loss_with(values):
        loss, _ = loss_from_coarse_field(coarse, netp2, scenario, values, fine, truth,
                                         workspace=ws)
        return loss

    hh = 1e-6
    fd = (loss_with(coarse_field + hh * w) - loss_with(coarse_field - hh * w)) / (2 * hh)
    analytic = float(v_coarse @ w)
    rel_v = abs(analytic - fd) / max(abs(fd), 1e-12)

    # A full coordinate pass (b = D) through the opaque solver interface
    # points along the central-difference mesh VJP: report 1 - cosine.
    mesh, unit = uniform_mesh(5), ScenarioParams(alpha=1.0)
    v_mesh = np.random.default_rng(13).standard_normal(mesh.n_nodes)
    exact = exact_mesh_vjp(mesh, unit, v_mesh)
    p0 = mesh_to_params(mesh)
    spec = EstimatorSpec("coordinate", mu=1e-3, b=p0.size, seed=17)
    est = zo_vjp(make_evaluate(mesh, unit), p0, solve_poisson(mesh, unit).field.values,
                 v_mesh, spec)
    cos_gap = 1.0 - float(est @ exact / (np.linalg.norm(est) * np.linalg.norm(exact)))

    elapsed = time.perf_counter() - t0
    ok = (worst_net < 1e-4 and worst_adj <= 1e-12 and rel_v <= 1e-4 and cos_gap <= 1e-2
          and elapsed < 10.0)
    verdict("differentiation-oracles", ok,
            f"net={worst_net:.2e} adjoint={worst_adj:.2e} cotangent-fd={rel_v:.2e} "
            f"coordinate-vs-solver-vjp={cos_gap:.2e}", t0)
    assert worst_net < 1e-4
    assert worst_adj <= 1e-12
    assert rel_v <= 1e-4
    assert p0.size == 6
    assert cos_gap <= 1e-2
    assert elapsed < 10.0


def test_hybrid_training_rmse_ordering(tmp_path):
    """After a converged warm start, 150 joint epochs rank the mesh modes:
    exact gradients best, every estimator between exact and the frozen mesh."""
    t0 = time.perf_counter()
    shared = dict(epochs=450, warm=300, mesh_lr=7e-4)
    finals = {}
    for mode in ("frozen", "exact", "coordinate", "gaussian", "gauss_coord"):
        _, metrics = run_case(tmp_path / mode, mode, b=8, d=8, est_seed=0, **shared)
        finals[mode] = metrics[-1].test_rmse

    frozen, exact = finals["frozen"], finals["exact"]
    in_window = all(exact <= finals[k] <= frozen * 1.05 for k in ZO_KINDS)
    strict_wins = sum(finals[k] < frozen for k in ZO_KINDS)
    elapsed = time.perf_counter() - t0
    ok = exact <= frozen and in_window and strict_wins >= 2 and elapsed < 300.0
    detail = " ".join(f"{k}={finals[k]:.4e}" for k in finals)
    verdict("hybrid-rmse-ordering", ok, detail + f" strict-wins={strict_wins}/3", t0)
    assert exact <= frozen
    assert in_window, detail
    assert strict_wins >= 2, detail
    assert elapsed < 300.0


def test_warm_start_beats_cold_at_equal_budget(tmp_path):
    """Freezing the mesh while the net trains wins against spending the same
    number of solver calls on joint training from scratch, for every kind."""
    t0 = time.perf_counter()
    results = {}
    for kind in ZO_KINDS:
        # d = 8 (desk's) is below the mesh dimension D = 14, so gauss_coord
        # runs its own subset instead of repeating the gaussian case.
        shared = dict(b=1, d=8, est_seed=0, mesh_lr=7e-4)
        cfg_w, m_warm = run_case(tmp_path / f"{kind}_warm", kind,
                                 epochs=450, warm=300, **shared)
        cfg_c, m_cold = run_case(tmp_path / f"{kind}_cold", kind,
                                 epochs=330, warm=0, **shared)
        assert declared_evals(cfg_w) == declared_evals(cfg_c)
        assert m_warm[-1].n_solver_evals == m_cold[-1].n_solver_evals
        results[kind] = (min(m.test_rmse for m in m_warm),
                         min(m.test_rmse for m in m_cold))

    elapsed = time.perf_counter() - t0
    ok = all(w <= c for w, c in results.values()) and elapsed < 600.0
    detail = " ".join(f"{k}:warm={w:.4e},cold={c:.4e}" for k, (w, c) in results.items())
    verdict("warm-start-benefit", ok, detail, t0)
    for kind, (w, c) in results.items():
        assert w <= c, f"{kind}: warm {w} vs cold {c}"
    assert elapsed < 600.0


def test_finer_trainable_mesh_reaches_lower_loss(tmp_path):
    """Final training loss falls strictly as the trainable mesh is refined."""
    t0 = time.perf_counter()
    finals = []
    for coarse_n in (5, 7, 9):
        _, metrics = run_case(tmp_path / f"c{coarse_n}", "gauss_coord",
                              coarse_n=coarse_n, epochs=100, warm=50,
                              mesh_lr=7e-4, b=1, d=16, est_seed=0,
                              scenario_batch=2)
        finals.append(metrics[-1].train_loss)

    elapsed = time.perf_counter() - t0
    decreasing = finals[0] > finals[1] > finals[2]
    ok = decreasing and elapsed < 300.0
    verdict("scale-trend", ok,
            f"5x5={finals[0]:.4e} 7x7={finals[1]:.4e} 9x9={finals[2]:.4e}", t0)
    assert decreasing, finals
    assert elapsed < 300.0


def test_subset_size_and_batch_trends(tmp_path):
    """Larger direction subsets and larger batches do not hurt final RMSE."""
    t0 = time.perf_counter()
    shared = dict(epochs=300, warm=150, mesh_lr=2e-3, est_seed=1)
    finals = {}
    for b, d in ((1, 4), (1, 8), (8, 4)):
        _, metrics = run_case(tmp_path / f"b{b}d{d}", "gauss_coord",
                              b=b, d=d, **shared)
        finals[(b, d)] = metrics[-1].test_rmse

    elapsed = time.perf_counter() - t0
    d_trend = finals[(1, 8)] <= finals[(1, 4)] * 1.02
    b_trend = finals[(8, 4)] <= finals[(1, 4)]
    ok = d_trend and b_trend and elapsed < 600.0
    verdict("subset-and-batch-trends", ok,
            f"b1d4={finals[(1, 4)]:.4e} b1d8={finals[(1, 8)]:.4e} "
            f"b8d4={finals[(8, 4)]:.4e}", t0)
    assert d_trend, finals
    assert b_trend, finals
    assert elapsed < 600.0


def test_determinism_and_budget_accounting(tmp_path, monkeypatch):
    """Identical reruns produce identical metrics (wall time aside) and the
    instrumented solver call count equals the declared budget exactly."""
    t0 = time.perf_counter()

    def small(mode, out, est=None):
        kw = dict(fine_n=17, coarse_n=5, mesh_mode=mode, epochs=25,
                  warm_start_epochs=10, lr=1e-2, mesh_lr=7e-4, seed=0,
                  out_dir=str(tmp_path / out))
        if est is not None:
            kw["estimator"] = est
        return TrainConfig(**kw)

    spec = EstimatorSpec(kind="gauss_coord", mu=1e-3, b=2, d=4, seed=0)
    cfg_a = small("gauss_coord", "rerun_a", spec)
    cfg_b = small("gauss_coord", "rerun_b", spec)
    train_run(cfg_a)
    train_run(cfg_b)

    def stable_lines(out):
        text = (tmp_path / out / "metrics.csv").read_text()
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    lines_a, lines_b = stable_lines("rerun_a"), stable_lines("rerun_b")
    identical = lines_a == lines_b and lines_a[0].startswith("epoch,train_loss")

    counted = {"n": 0}
    real_solve = solver_mod._solve

    def counting_solve(*args):
        counted["n"] += 1
        return real_solve(*args)

    monkeypatch.setattr(solver_mod, "_solve", counting_solve)
    budgets_ok = True
    for mode, est in (("frozen", None), ("exact", None), ("gauss_coord", spec)):
        counted["n"] = 0
        config = small(mode, f"budget_{mode}", est)
        metrics, _ = train_run(config)
        declared = declared_evals(config)
        budgets_ok &= counted["n"] == declared == metrics[-1].n_solver_evals

    elapsed = time.perf_counter() - t0
    ok = identical and budgets_ok
    verdict("determinism-and-budget", ok,
            f"rerun-identical={identical} budgets-exact={budgets_ok}", t0)
    assert identical
    assert budgets_ok
