"""Finite-difference Poisson solver on non-uniform tensor meshes."""
import numpy as np
import pytest

import zo_meshopt.solver as solver_mod
from zo_meshopt.errors import SolverError
from zo_meshopt.grid import Field, ScenarioParams, TensorMesh, uniform_mesh
from zo_meshopt.solver import (
    RESIDUAL_TOL,
    exact_mesh_vjp,
    make_evaluate,
    solve_manufactured,
    solve_poisson,
)


def dense_operator_oracle(mesh):
    """Independent assembly: dense matrix for -(w_xx + w_yy) on interior nodes.

    Second derivative on a non-uniform axis at node i with gaps hL, hR:
        w'' ~ 2*(w[i-1]/(hL*(hL+hR)) - w[i]/(hL*hR) + w[i+1]/(hR*(hL+hR)))
    Built here with explicit loops, no shared code with the module under test.
    """
    xs, ys = mesh.x_lines, mesh.y_lines
    nx, ny = len(xs), len(ys)
    ix = nx - 2
    iy = ny - 2
    n = ix * iy
    a = np.zeros((n, n))

    def idx(i, j):
        return (j - 1) * ix + (i - 1)

    for j in range(1, ny - 1):
        for i in range(1, nx - 1):
            row = idx(i, j)
            hl, hr = xs[i] - xs[i - 1], xs[i + 1] - xs[i]
            hb, ht = ys[j] - ys[j - 1], ys[j + 1] - ys[j]
            a[row, row] += 2.0 / (hl * hr) + 2.0 / (hb * ht)
            if i > 1:
                a[row, idx(i - 1, j)] -= 2.0 / (hl * (hl + hr))
            if i < nx - 2:
                a[row, idx(i + 1, j)] -= 2.0 / (hr * (hl + hr))
            if j > 1:
                a[row, idx(i, j - 1)] -= 2.0 / (hb * (hb + ht))
            if j < ny - 2:
                a[row, idx(i, j + 1)] -= 2.0 / (ht * (hb + ht))
    return a


def _random_lines(rng, n):
    return np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, n - 2)), [1.0]])


def _oracle_meshes():
    """Uniform, random non-uniform, non-square, and gaps close to s_min."""
    rng = np.random.default_rng(11)
    tight = np.array([0.0, 1.01e-4, 2.02e-4, 0.5, 0.50011, 0.9997, 0.99985, 1.0])
    return [
        uniform_mesh(9),
        uniform_mesh(5, 11),
        *(TensorMesh(_random_lines(rng, 6), _random_lines(rng, 5)) for _ in range(3)),
        TensorMesh(_random_lines(rng, 13), _random_lines(rng, 4)),
        TensorMesh(tight, np.linspace(0.0, 1.0, 9)),
        TensorMesh(tight, tight),
    ]


def test_assembly_matches_dense_oracle():
    """The residual check's stencil apply, column by column, is the oracle."""
    for mesh in _oracle_meshes():
        nx, ny = mesh.shape
        a_oracle = dense_operator_oracle(mesh)
        scale = np.max(np.abs(a_oracle))
        ax, ay = solver_mod._axis(mesh.x_lines), solver_mod._axis(mesh.y_lines)
        for k in range(a_oracle.shape[0]):
            e = np.zeros((ny - 2) * (nx - 2))
            e[k] = 1.0
            col = solver_mod._apply_operator(ax, ay, e.reshape(ny - 2, nx - 2)).ravel()
            assert np.allclose(col, a_oracle[:, k], rtol=0, atol=1e-15 * scale)


def test_solve_matches_dense_oracle_solve():
    for mesh in _oracle_meshes():
        for alpha in (1.0, 0.9):
            grid = solve_poisson(mesh, ScenarioParams(alpha=alpha)).field.as_grid()
            a_oracle = dense_operator_oracle(mesh)
            expected = np.linalg.solve(a_oracle, np.ones(a_oracle.shape[0])) / alpha
            assert np.allclose(grid[1:-1, 1:-1].ravel(), expected, rtol=0, atol=1e-12)


def test_center_value_3x3_unit_alpha():
    """One interior unknown: 4/h^2 * w = 1 with h = 1/2 gives w = 1/16... scaled."""
    report = solve_poisson(uniform_mesh(3), ScenarioParams(alpha=1.0))
    center = report.field.values[4]
    assert center == pytest.approx(0.0625, abs=1e-15)
    assert report.residual_norm <= RESIDUAL_TOL


def test_alpha_scaling_is_exact():
    mesh = uniform_mesh(9)
    base = solve_poisson(mesh, ScenarioParams(alpha=1.0)).field.values
    for alpha in (0.5, 2.0, 0.9, 4.0):
        scaled = solve_poisson(mesh, ScenarioParams(alpha=alpha)).field.values
        assert np.all(np.abs(scaled - base / alpha) <= 1e-12 * np.abs(base / alpha + 1e-300))


def test_alpha_half_center():
    report = solve_poisson(uniform_mesh(3), ScenarioParams(alpha=2.0))
    assert report.field.values[4] == pytest.approx(0.03125, abs=1e-15)


def test_boundary_values_zero():
    report = solve_poisson(uniform_mesh(7), ScenarioParams(alpha=0.9))
    grid = report.field.as_grid()
    assert np.all(grid[0, :] == 0.0)
    assert np.all(grid[-1, :] == 0.0)
    assert np.all(grid[:, 0] == 0.0)
    assert np.all(grid[:, -1] == 0.0)


def test_manufactured_convergence_ratio():
    """Halving h must shrink the max error by about 4 (second order)."""
    params = ScenarioParams(alpha=0.9)
    errs = []
    for n in (17, 33):
        mesh = uniform_mesh(n)
        report = solve_manufactured(mesh, params)
        xs, ys = mesh.node_coords()
        exact = np.sin(np.pi * xs) * np.sin(np.pi * ys) / params.alpha
        errs.append(np.max(np.abs(report.field.values - exact)))
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8


def test_manufactured_alpha_in_solution_not_operator():
    mesh = uniform_mesh(17)
    r1 = solve_manufactured(mesh, ScenarioParams(alpha=1.0))
    r2 = solve_manufactured(mesh, ScenarioParams(alpha=2.0))
    assert np.allclose(r2.field.values, r1.field.values / 2.0, rtol=0, atol=1e-15)


def test_non_uniform_mesh_still_second_order_sane():
    rng = np.random.default_rng(5)
    interior = np.sort(rng.uniform(0.08, 0.92, 15))
    lines = np.concatenate([[0.0], interior, [1.0]])
    mesh = TensorMesh(lines, np.linspace(0.0, 1.0, 17))
    report = solve_manufactured(mesh, ScenarioParams(alpha=1.0))
    xs, ys = mesh.node_coords()
    exact = np.sin(np.pi * xs) * np.sin(np.pi * ys)
    assert np.max(np.abs(report.field.values - exact)) < 0.05


def test_residual_guard_raises(monkeypatch):
    mesh = uniform_mesh(5)
    good = solver_mod._solve_interior

    def corrupted(ax, ay, rhs):
        w = good(ax, ay, rhs)
        w[1, 2] += 1e-6
        return w

    monkeypatch.setattr(solver_mod, "_solve_interior", corrupted)
    with pytest.raises(SolverError) as info:
        solve_poisson(mesh, ScenarioParams(alpha=1.0))
    assert info.value.residual > RESIDUAL_TOL
    monkeypatch.setattr(solver_mod, "_solve_interior", lambda ax, ay, rhs: np.full_like(rhs, np.nan))
    with pytest.raises(SolverError):
        solve_poisson(mesh, ScenarioParams(alpha=1.0))


def test_make_evaluate_round_trip():
    mesh = uniform_mesh(5)
    params = ScenarioParams(alpha=1.3)
    evaluate = make_evaluate(mesh, params)
    from zo_meshopt.grid import mesh_to_params
    out = evaluate(mesh_to_params(mesh))
    direct = solve_poisson(mesh, params).field.values
    assert np.array_equal(out, direct)


def test_exact_mesh_vjp_matches_dense_jacobian():
    """Central-difference VJP against a column-by-column Jacobian build."""
    mesh = uniform_mesh(5)
    params = ScenarioParams(alpha=1.0)
    from zo_meshopt.grid import mesh_to_params, params_to_mesh
    p0 = mesh_to_params(mesh)
    rng = np.random.default_rng(2)
    v = Field(rng.standard_normal(mesh.n_nodes), mesh.shape)
    h = 1e-6
    jac_v = np.zeros(p0.size)
    for k in range(p0.size):
        pp, pm = p0.copy(), p0.copy()
        pp[k] += h
        pm[k] -= h
        op = solve_poisson(params_to_mesh(mesh, pp), params).field.values
        om = solve_poisson(params_to_mesh(mesh, pm), params).field.values
        jac_v[k] = float(v.values @ (op - om)) / (2.0 * h)
    got = exact_mesh_vjp(mesh, params, v)
    assert np.allclose(got, jac_v, rtol=1e-9, atol=1e-12)


def _cache_misses():
    return solver_mod._axis_of.cache_info().misses


def test_cached_axes_equal_fresh_factorizations_and_are_read_only():
    solver_mod._axis_of.cache_clear()
    for mesh in _oracle_meshes():
        solve_poisson(mesh, ScenarioParams(alpha=0.9))
        for lines in (mesh.x_lines, mesh.y_lines):
            cached = solver_mod._axis(lines)
            fresh = solver_mod._axis_of.__wrapped__(lines.tobytes())
            assert cached is solver_mod._axis(lines.copy())
            for name, got, want in zip(solver_mod._Axis._fields, cached, fresh):
                assert np.array_equal(got, want), name
                assert not got.flags.writeable, name


def test_exact_oracle_factorizes_each_axis_once_across_alphas():
    rng = np.random.default_rng(4)
    mesh = TensorMesh(_random_lines(rng, 17), _random_lines(rng, 17))
    v = Field(rng.standard_normal(mesh.n_nodes), mesh.shape)
    n_params = 2 * (17 - 2)
    solver_mod._axis_of.cache_clear()
    for alpha in (0.90, 0.91, 0.92, 0.93, 0.94, 0.95):
        exact_mesh_vjp(mesh, ScenarioParams(alpha), v)
    assert 0 < _cache_misses() <= 2 * n_params + 2


def test_uniform_mesh_factorizes_one_axis_for_all_alphas():
    mesh = uniform_mesh(33)
    solver_mod._axis_of.cache_clear()
    for alpha in np.linspace(0.9, 0.95, 9):
        solve_poisson(mesh, ScenarioParams(alpha))
    assert _cache_misses() == 1


def test_axis_cache_stays_bounded():
    rng = np.random.default_rng(8)
    solver_mod._axis_of.cache_clear()
    for _ in range(solver_mod._AXIS_CACHE_SIZE):
        solve_poisson(TensorMesh(_random_lines(rng, 5), _random_lines(rng, 6)),
                      ScenarioParams(1.0))
    info = solver_mod._axis_of.cache_info()
    assert info.misses == 2 * solver_mod._AXIS_CACHE_SIZE
    assert info.currsize <= solver_mod._AXIS_CACHE_SIZE
