"""Hybrid training loop: loss oracles, budgets, determinism, failure paths."""
import dataclasses
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import zo_meshopt.train as train_mod
from zo_meshopt import net
from zo_meshopt.cli import load_config
from zo_meshopt.errors import ConfigError, SolverError
from zo_meshopt.grid import (
    Field,
    ScenarioParams,
    mesh_to_params,
    nearest_upsample,
    params_to_mesh,
    uniform_mesh,
)
from zo_meshopt.optim import adam_step, init_adam
from zo_meshopt.solver import solve_poisson
from zo_meshopt.train import (
    INCOMPLETE_MARKER,
    METRICS_HEADER,
    SolveCounter,
    TrainConfig,
    declared_evals,
    initial_coarse_mesh,
    loss_backward,
    loss_forward,
    loss_from_coarse_field,
    mesh_grad,
    node_features,
    rmse,
    scale_sweep,
    train_run,
)
from zo_meshopt.zo import ESTIMATOR_KINDS, EstimatorSpec

ROOT = Path(__file__).resolve().parent.parent


def tiny_config(**kw):
    base = dict(
        fine_n=9,
        coarse_n=5,
        train_alphas=(0.9, 1.1),
        test_alphas=(1.0,),
        mesh_mode="frozen",
        epochs=3,
        warm_start_epochs=1,
        lr=1e-2,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_loss_forward_matches_recomputation():
    """Rebuild the pipeline by hand: solve, upsample, net forward, MSE."""
    fine = uniform_mesh(9)
    coarse = uniform_mesh(5)
    scenario = ScenarioParams(alpha=0.9)
    netp = net.init_params((4, 8, 1), seed=3)
    truth = solve_poisson(fine, scenario).field

    loss, cache, coarse_field = loss_forward(coarse, netp, scenario, fine, truth)

    ref_coarse = solve_poisson(coarse, scenario).field
    assert np.array_equal(coarse_field.values, ref_coarse.values)
    u_up = nearest_upsample(coarse, ref_coarse, fine)
    xs, ys = fine.node_coords
    feats = np.column_stack([xs, ys, u_up.values, np.full(xs.size, 0.9)])
    preds, _ = net.forward(netp, feats)
    resid = preds[:, 0] - truth.values
    assert loss == pytest.approx(float(resid @ resid / resid.size), rel=0, abs=1e-18)


def test_loss_backward_theta_directional_fd():
    fine = uniform_mesh(9)
    coarse = uniform_mesh(5)
    scenario = ScenarioParams(alpha=1.2)
    netp = net.init_params((4, 8, 1), seed=1)
    truth = solve_poisson(fine, scenario).field
    _, cache, coarse_field = loss_forward(coarse, netp, scenario, fine, truth)
    grads, _ = loss_backward(cache)

    rng = np.random.default_rng(10)
    direction = rng.standard_normal(net.flatten(netp).size)
    direction /= np.linalg.norm(direction)
    h = 1e-6
    theta = net.flatten(netp)

    def loss_at(vec):
        p = net.unflatten(netp.layer_dims, vec)
        l, _ = loss_from_coarse_field(coarse, p, scenario, coarse_field, fine, truth)
        return l

    fd = (loss_at(theta + h * direction) - loss_at(theta - h * direction)) / (2 * h)
    analytic = float(net.flatten(grads) @ direction)
    assert analytic == pytest.approx(fd, rel=1e-4)


def test_loss_backward_coarse_cotangent_fd():
    """v_coarse is d(loss)/d(coarse values) at a fixed nearest assignment."""
    fine = uniform_mesh(9)
    coarse = uniform_mesh(5)
    scenario = ScenarioParams(alpha=0.8)
    netp = net.init_params((4, 8, 1), seed=2)
    truth = solve_poisson(fine, scenario).field
    _, cache, coarse_field = loss_forward(coarse, netp, scenario, fine, truth)
    _, v_coarse = loss_backward(cache)

    rng = np.random.default_rng(11)
    w = rng.standard_normal(coarse.n_nodes)
    h = 1e-6

    def loss_with(values):
        f = Field(values, coarse.shape)
        l, _ = loss_from_coarse_field(coarse, netp, scenario, f, fine, truth)
        return l

    fd = (loss_with(coarse_field.values + h * w) - loss_with(coarse_field.values - h * w)) / (2 * h)
    assert float(v_coarse.values @ w) == pytest.approx(fd, rel=1e-4)


def test_node_features_layout():
    fine = uniform_mesh(3)
    feats = node_features(fine, np.arange(9.0), 0.75)
    assert feats.shape == (9, 4)
    assert np.array_equal(feats[:, 3], np.full(9, 0.75))
    assert feats[1, 0] == 0.5 and feats[1, 1] == 0.0
    assert np.array_equal(feats[:, 2], np.arange(9.0))


def test_mesh_grad_contracts():
    coarse = uniform_mesh(5)
    scenario = ScenarioParams(alpha=1.0)
    v = Field(np.ones(coarse.n_nodes), coarse.shape)

    def solves_of(mode, spec=None, base_output=None):
        counter = SolveCounter()
        g = mesh_grad(mode, coarse, v, scenario, spec, base_output=base_output,
                      solve=counter.wrap(solve_poisson))
        return g, counter.count

    g, n = solves_of("frozen")
    assert n == 0 and np.all(g == 0.0)

    g, n = solves_of("exact")
    assert n == 2 * coarse.n_params
    assert np.any(g != 0.0)

    base = solve_poisson(coarse, scenario).field.values
    spec = EstimatorSpec(kind="gaussian", b=3, seed=0)
    g, n = solves_of("gaussian", spec, base)
    assert n == 3

    with pytest.raises(ConfigError):
        mesh_grad("gaussian", coarse, v, scenario, None, base_output=base)
    with pytest.raises(ValueError):
        mesh_grad("gaussian", coarse, v, scenario, spec, base_output=None)
    with pytest.raises(ConfigError):
        mesh_grad("warp", coarse, v, scenario)
    with pytest.raises(ConfigError, match="does not match"):
        mesh_grad("coordinate", coarse, v, scenario, spec, base_output=base)


def test_gauss_coord_subset_clipped_to_dimension(tmp_path):
    """The config caps d at the mesh dimension, and the capped spec is the
    one that trains and is recorded."""
    config = tiny_config(mesh_mode="gauss_coord",
                         estimator=EstimatorSpec(kind="gauss_coord", b=2, d=500, seed=1),
                         epochs=1, warm_start_epochs=0, out_dir=str(tmp_path / "gc"))
    assert config.mesh_dim == uniform_mesh(config.coarse_n).n_params == 6
    assert config.estimator.d == 6
    config.validate()
    metrics, _ = train_run(config)
    assert metrics[-1].n_solver_evals == declared_evals(config)
    assert metrics[-1].mesh_delta > 0.0
    recorded = json.loads((tmp_path / "gc" / "checkpoint.json").read_text())
    assert recorded["config"]["estimator"]["d"] == 6


def test_mesh_mode_names_the_estimator_kind():
    config = TrainConfig(mesh_mode="gaussian", estimator=EstimatorSpec("coordinate", b=3, d=500))
    assert config.estimator == EstimatorSpec("gaussian", b=3, d=500)
    switched = dataclasses.replace(config, mesh_mode="gauss_coord")
    assert switched.estimator == EstimatorSpec("gauss_coord", b=3, d=config.mesh_dim)
    # frozen and exact leave the (unused) spec as given
    assert dataclasses.replace(config, mesh_mode="exact").estimator.kind == "gaussian"


@pytest.mark.parametrize("name,mode", [
    ("configs/desk.json", "gauss_coord"),
    ("bench/workloads/exact-17x65.json", "exact"),
    ("bench/workloads/gauss-17x129.json", "gauss_coord"),
])
def test_shipped_configs_load_and_validate(name, mode):
    path = ROOT / name
    before = path.read_bytes()
    config = load_config(str(path))
    config.validate()
    assert path.read_bytes() == before
    assert config.mesh_mode == mode
    if mode in ESTIMATOR_KINDS:
        assert config.estimator.kind == mode


def test_initial_coarse_mesh_divisible_and_fallback():
    m = initial_coarse_mesh(tiny_config(fine_n=33, coarse_n=9))
    assert np.array_equal(m.x_lines, np.linspace(0.0, 1.0, 9))
    m = initial_coarse_mesh(tiny_config(fine_n=33, coarse_n=7))
    assert np.array_equal(m.x_lines, np.linspace(0.0, 1.0, 7))


def test_down_sampled_initial_lines_are_fine_lines():
    """At fine 16, coarse 6 the uniform coarse mesh has a line that no fine
    line equals; the down-sampled start keeps exactly fine lines."""
    m = initial_coarse_mesh(tiny_config(fine_n=16, coarse_n=6))
    fine = uniform_mesh(16)
    for lines, fine_lines in ((m.x_lines, fine.x_lines), (m.y_lines, fine.y_lines)):
        assert lines.size == 6
        assert np.isin(lines, fine_lines).all()


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(mesh_mode="other").validate()
    with pytest.raises(ConfigError):
        tiny_config(coarse_n=9, fine_n=9).validate()
    with pytest.raises(ConfigError):
        tiny_config(train_alphas=(0.9, -1.0)).validate()
    with pytest.raises(ConfigError):
        tiny_config(train_alphas=(0.9,), test_alphas=(0.9,)).validate()
    with pytest.raises(ConfigError):
        tiny_config(warm_start_epochs=5, epochs=3).validate()
    with pytest.raises(ConfigError):
        tiny_config(lr=0.0).validate()
    with pytest.raises(ConfigError):
        tiny_config(mesh_mode="gauss_coord",
                    estimator=EstimatorSpec(kind="gauss_coord", b=0)).validate()
    for mu in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="mu"):
            tiny_config(mesh_mode="gaussian", estimator=EstimatorSpec("gaussian", mu=mu)).validate()


@pytest.mark.parametrize("field", ["lr", "mesh_lr"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_validation_rejects_non_finite_learning_rates(field, bad):
    with pytest.raises(ConfigError, match=field):
        tiny_config(**{field: bad}).validate()


@pytest.mark.parametrize("mode,est,expect_extra", [
    ("frozen", None, 0),
    ("exact", None, None),
    ("coordinate", EstimatorSpec(kind="coordinate", b=2, seed=0), 2),
])
def test_budget_matches_declared_and_counter(tmp_path, mode, est, expect_extra):
    kw = dict(mesh_mode=mode, epochs=4, warm_start_epochs=2, out_dir=str(tmp_path / mode))
    if est is not None:
        kw["estimator"] = est
    config = tiny_config(**kw)
    metrics, _ = train_run(config)
    assert metrics[-1].n_solver_evals == declared_evals(config)
    # partial-run accounting holds at every epoch
    for m in metrics:
        assert m.n_solver_evals == declared_evals(config, epochs_done=m.epoch + 1)


@pytest.mark.parametrize("epochs_done", [-1, 11, 12])
def test_declared_evals_rejects_epochs_outside_the_run(epochs_done):
    config = tiny_config(mesh_mode="exact", epochs=10, warm_start_epochs=2)
    assert declared_evals(config, 10) == declared_evals(config)
    assert declared_evals(config, 0) == 0
    with pytest.raises(ValueError, match="epochs_done"):
        declared_evals(config, epochs_done)


def test_metrics_csv_deterministic_rerun(tmp_path):
    config = tiny_config(mesh_mode="coordinate",
                         estimator=EstimatorSpec(kind="coordinate", b=1, seed=0),
                         out_dir=str(tmp_path / "a"))
    train_run(config)
    config2 = dataclasses.replace(config, out_dir=str(tmp_path / "b"))
    train_run(config2)

    def stable_rows(p):
        lines = (p / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        # drop the wall-clock column, the single permitted difference
        return ["," .join(l.split(",")[:-1]) for l in lines[1:]]

    assert stable_rows(tmp_path / "a") == stable_rows(tmp_path / "b")


def test_warm_start_equals_epochs_reduces_to_frozen(tmp_path):
    shared = dict(epochs=3, warm_start_epochs=3)
    za = tiny_config(mesh_mode="gaussian",
                     estimator=EstimatorSpec(kind="gaussian", b=2, seed=5),
                     out_dir=str(tmp_path / "zo"), **shared)
    fr = tiny_config(mesh_mode="frozen", out_dir=str(tmp_path / "fr"), **shared)
    mz, _ = train_run(za)
    mf, _ = train_run(fr)
    for a, b in zip(mz, mf):
        assert a.train_loss == b.train_loss
        assert a.test_rmse == b.test_rmse
        assert a.n_solver_evals == b.n_solver_evals
        assert a.mesh_delta == b.mesh_delta == 0.0


def test_non_finite_theta_grad_skips_step(tmp_path, monkeypatch):
    # poison the first batch's averaged network gradient with NaN
    real_mean = np.mean
    calls = {"n": 0}

    def nan_once(a, axis=None):
        if axis == 0 and getattr(a, "ndim", 0) == 2:
            calls["n"] += 1
            if calls["n"] == 1:
                return np.full(a.shape[1], np.nan)
        return real_mean(a, axis=axis)

    monkeypatch.setattr(train_mod.np, "mean", nan_once)
    config = tiny_config(out_dir=str(tmp_path / "skip"))
    metrics, _ = train_run(config)
    monkeypatch.undo()
    assert len(metrics) == config.epochs
    clean, _ = train_run(dataclasses.replace(config, out_dir=str(tmp_path / "clean")))
    # first update was skipped, so the trajectories must differ afterwards
    assert metrics[-1].train_loss != clean[-1].train_loss


def test_solver_error_flushes_incomplete_marker(tmp_path, monkeypatch):
    real_solve = train_mod.solve_poisson
    state = {"n": 0}

    def failing(mesh, params):
        state["n"] += 1
        if state["n"] > 8:
            raise SolverError("synthetic failure")
        return real_solve(mesh, params)

    monkeypatch.setattr(train_mod, "solve_poisson", failing)
    config = tiny_config(epochs=5, out_dir=str(tmp_path / "boom"))
    with pytest.raises(SolverError):
        train_run(config)
    text = (tmp_path / "boom" / "metrics.csv").read_text()
    assert text.rstrip().endswith(INCOMPLETE_MARKER)
    assert text.startswith(METRICS_HEADER)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_any_exception_flushes_marked_metrics_without_temp_files(tmp_path, monkeypatch, error):
    real_solve = train_mod.solve_poisson
    state = {"n": 0}

    def failing(mesh, params):
        state["n"] += 1
        if state["n"] == 9:
            raise error("synthetic failure")
        return real_solve(mesh, params)

    monkeypatch.setattr(train_mod, "solve_poisson", failing)
    out = tmp_path / "boom"
    with pytest.raises(error):
        train_run(tiny_config(epochs=5, out_dir=str(out)))
    rows = (out / "metrics.csv").read_text().splitlines()
    # call 9 is epoch 1's first solve, so epoch 0 is the one finished epoch
    assert rows[0] == METRICS_HEADER and rows[1].startswith("0,")
    assert rows[2:] == [INCOMPLETE_MARKER]
    assert [p.name for p in out.iterdir()] == ["metrics.csv"]


def test_joint_desk_training_starts_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    config = dataclasses.replace(
        load_config(str(ROOT / "configs" / "desk.json")),
        epochs=3,
        warm_start_epochs=1,
        out_dir=str(tmp_path / "desk"),
    )
    metrics, _ = train_run(config)
    assert metrics[-1].n_solver_evals == declared_evals(config)
    assert metrics[-1].mesh_delta > 0.0


@pytest.mark.parametrize("mode,est", [
    ("gauss_coord", EstimatorSpec(kind="gauss_coord", b=3, d=2, seed=4)),
    ("exact", EstimatorSpec("coordinate")),
])
def test_joint_epoch_uses_one_workspace_and_matches_fresh_passes(tmp_path, monkeypatch, mode, est):
    config = tiny_config(mesh_mode=mode, estimator=est, epochs=1, warm_start_epochs=0,
                         mesh_lr=1e-2, out_dir=str(tmp_path / mode))

    # Reference: one scenario at a time, each through its own fresh workspace.
    fine = uniform_mesh(config.fine_n)
    coarse = initial_coarse_mesh(config)
    netp = net.init_params(train_mod.NET_DIMS, config.seed)
    order = np.random.default_rng(np.random.SeedSequence([config.seed, 1])).permutation(
        len(config.train_alphas)
    )
    theta_grads, mesh_g = [], np.zeros(coarse.n_params)
    for k, idx in enumerate(order):
        scenario = ScenarioParams(config.train_alphas[idx])
        truth = solve_poisson(fine, scenario).field
        _, cache, coarse_field = loss_forward(coarse, netp, scenario, fine, truth)
        grads, v = loss_backward(cache)
        theta_grads.append(net.flatten(grads))
        spec = dataclasses.replace(est, seed=est.seed + k) if mode != "exact" else None
        v_scaled = Field(v.values / order.size, v.mesh_shape)
        mesh_g += mesh_grad(mode, coarse, v_scaled, scenario, spec,
                            base_output=coarse_field.values)
    _, want_theta = adam_step(
        init_adam(net.n_params(netp.layer_dims), config.lr),
        net.flatten(netp),
        np.mean(np.stack(theta_grads), axis=0),
    )
    _, want_p = adam_step(
        init_adam(coarse.n_params, config.mesh_lr), mesh_to_params(coarse), mesh_g
    )
    want_mesh = params_to_mesh(coarse, want_p)

    built = []

    class CountingWorkspace(net.Workspace):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(net, "Workspace", CountingWorkspace)
    _, state = train_run(config)
    assert built == [(train_mod.NET_DIMS, fine.n_nodes)]
    assert np.array_equal(net.flatten(state.net), want_theta)
    assert np.array_equal(state.mesh.x_lines, want_mesh.x_lines)
    assert np.array_equal(state.mesh.y_lines, want_mesh.y_lines)
    assert not np.array_equal(want_p, mesh_to_params(coarse))


def test_checkpoint_contents(tmp_path):
    config = tiny_config(out_dir=str(tmp_path / "ck"))
    _, state = train_run(config)
    data = json.loads((tmp_path / "ck" / "checkpoint.json").read_text())
    assert data["epoch"] == config.epochs
    assert data["config"]["fine_n"] == config.fine_n
    assert np.array_equal(np.array(data["mesh"]["x_lines"]), state.mesh.x_lines)
    dims = tuple(data["net"]["layer_dims"])
    assert dims == state.net.layer_dims
    w0 = np.array(data["net"]["weights"][0])
    assert np.array_equal(w0, state.net.weights[0])
    assert set(data["adam"].keys()) == {"net", "mesh"}


def test_test_rmse_matches_manual_recompute(tmp_path):
    config = tiny_config(out_dir=str(tmp_path / "r"))
    metrics, state = train_run(config)
    fine = uniform_mesh(config.fine_n)
    per = []
    for alpha in config.test_alphas:
        scenario = ScenarioParams(alpha)
        truth = solve_poisson(fine, scenario).field
        _, cache, _ = loss_forward(state.mesh, state.net, scenario, fine, truth)
        per.append(rmse(Field(cache.predictions[:, 0], fine.shape), truth))
    assert metrics[-1].test_rmse == pytest.approx(float(np.mean(per)), rel=0, abs=1e-15)


def test_scale_sweep_writes_combined_csv(tmp_path):
    config = tiny_config(fine_n=9, out_dir=str(tmp_path / "s"), epochs=2,
                         warm_start_epochs=2)
    rows = scale_sweep(config, scales=[(3, 9), (5, 9)])
    text = (tmp_path / "s" / "scales.csv").read_text().splitlines()
    assert text[0] == "coarse_n,fine_n," + METRICS_HEADER
    assert len(text) == 1 + 2 * config.epochs
    assert (tmp_path / "s" / "scale_3x9" / "metrics.csv").exists()
    assert (tmp_path / "s" / "scale_5x9" / "metrics.csv").exists()


def test_rmse_shape_guard():
    with pytest.raises(ValueError):
        rmse(Field(np.zeros(4), (2, 2)), Field(np.zeros(9), (3, 3)))
