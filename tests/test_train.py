"""Hybrid training loop: loss oracles, budgets, determinism, failure paths."""
import dataclasses
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import zo_meshopt.solver as solver_mod
import zo_meshopt.train as train_mod
from zo_meshopt import net
from zo_meshopt.cli import load_config
from zo_meshopt.errors import ConfigError, SolverError
from zo_meshopt.grid import (
    ScenarioParams,
    mesh_to_params,
    nearest_upsample,
    params_to_mesh,
    uniform_mesh,
    upsample_adjoint,
)
from zo_meshopt.optim import adam_step, init_adam
from zo_meshopt.solver import exact_mesh_vjp, make_evaluate, solve_count, solve_poisson
from zo_meshopt.train import (
    INCOMPLETE_MARKER,
    METRICS_HEADER,
    TrainConfig,
    declared_evals,
    loss_backward,
    loss_from_coarse_field,
    sweep,
    train_run,
)
from zo_meshopt.zo import ESTIMATOR_KINDS, EstimatorSpec, zo_vjp

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


def test_loss_from_coarse_field_matches_recomputation():
    """Rebuild the pipeline by hand: solve, upsample, net forward, MSE."""
    fine = uniform_mesh(9)
    coarse = uniform_mesh(5)
    scenario = ScenarioParams(alpha=0.9)
    netp = net.init_params((4, 8, 1), seed=3)
    truth = solve_poisson(fine, scenario).field.values

    coarse_field = solve_poisson(coarse, scenario).field.values
    loss, cache = loss_from_coarse_field(coarse, netp, scenario, coarse_field, fine, truth,
                                         workspace=net.Workspace(netp.layer_dims, fine.n_nodes))

    ref_coarse = solve_poisson(coarse, scenario).field.values
    assert np.array_equal(coarse_field, ref_coarse)
    u_up = nearest_upsample(coarse, ref_coarse, fine)
    xs, ys = fine.node_coords
    feats = np.column_stack([xs, ys, u_up, np.full(xs.size, 0.9)])
    preds, _ = net.forward(netp, feats)
    resid = preds[:, 0] - truth
    assert loss == pytest.approx(float(resid @ resid / resid.size), rel=0, abs=1e-18)


def test_loss_backward_theta_directional_fd():
    fine = uniform_mesh(9)
    coarse = uniform_mesh(5)
    scenario = ScenarioParams(alpha=1.2)
    netp = net.init_params((4, 8, 1), seed=1)
    truth = solve_poisson(fine, scenario).field.values
    coarse_field = solve_poisson(coarse, scenario).field.values
    ws = net.Workspace(netp.layer_dims, fine.n_nodes)
    _, cache = loss_from_coarse_field(coarse, netp, scenario, coarse_field, fine, truth,
                                      workspace=ws)
    grads, _ = loss_backward(cache)

    rng = np.random.default_rng(10)
    direction = rng.standard_normal(netp.flat.size)
    direction /= np.linalg.norm(direction)
    h = 1e-6
    theta = netp.flat

    def loss_at(vec):
        p = net.MlpParams(netp.layer_dims, vec)
        l, _ = loss_from_coarse_field(coarse, p, scenario, coarse_field, fine, truth,
                                      workspace=ws)
        return l

    fd = (loss_at(theta + h * direction) - loss_at(theta - h * direction)) / (2 * h)
    analytic = float(grads @ direction)
    assert analytic == pytest.approx(fd, rel=1e-4)


def test_loss_backward_coarse_cotangent_fd():
    """v_coarse is d(loss)/d(coarse values) at a fixed nearest assignment."""
    fine = uniform_mesh(9)
    coarse = uniform_mesh(5)
    scenario = ScenarioParams(alpha=0.8)
    netp = net.init_params((4, 8, 1), seed=2)
    truth = solve_poisson(fine, scenario).field.values
    coarse_field = solve_poisson(coarse, scenario).field.values
    ws = net.Workspace(netp.layer_dims, fine.n_nodes)
    _, cache = loss_from_coarse_field(coarse, netp, scenario, coarse_field, fine, truth,
                                      workspace=ws)
    _, v_coarse = loss_backward(cache)

    rng = np.random.default_rng(11)
    w = rng.standard_normal(coarse.n_nodes)
    h = 1e-6

    def loss_with(values):
        l, _ = loss_from_coarse_field(coarse, netp, scenario, values, fine, truth,
                                      workspace=ws)
        return l

    fd = (loss_with(coarse_field + h * w) - loss_with(coarse_field - h * w)) / (2 * h)
    assert float(v_coarse @ w) == pytest.approx(fd, rel=1e-4)


def test_node_features_layout():
    """A loss call writes each fine node's [x, y, upsampled coarse value,
    alpha] into its workspace's features; the coarse mesh here is the fine
    one, so the upsample copies the field."""
    fine = uniform_mesh(3)
    netp = net.init_params((4, 8, 1), seed=0)
    ws = net.Workspace(netp.layer_dims, fine.n_nodes)
    loss_from_coarse_field(fine, netp, ScenarioParams(0.75), np.arange(9.0), fine, np.zeros(9),
                           workspace=ws)
    feats = ws.features
    assert feats.shape == (9, 4)
    assert np.array_equal(feats[:, 3], np.full(9, 0.75))
    assert feats[1, 0] == 0.5 and feats[1, 1] == 0.0
    assert np.array_equal(feats[:, 2], np.arange(9.0))


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


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(mesh_mode="other").validate()
    with pytest.raises(ConfigError):
        tiny_config(coarse_n=9, fine_n=9).validate()
    with pytest.raises(ConfigError):
        tiny_config(train_alphas=(0.9, -1.0)).validate()
    with pytest.raises(ConfigError):
        tiny_config(train_alphas=(0.9,), test_alphas=(0.9,)).validate()
    with pytest.raises(ConfigError, match="train_alphas"):
        tiny_config(train_alphas=(0.9, 0.9, 0.92)).validate()
    with pytest.raises(ConfigError, match="test_alphas"):
        tiny_config(test_alphas=(0.95, 0.95)).validate()
    with pytest.raises(ConfigError):
        tiny_config(warm_start_epochs=5, epochs=3).validate()
    with pytest.raises(ConfigError):
        tiny_config(lr=0.0).validate()
    with pytest.raises(ConfigError, match="seed"):
        tiny_config(seed=-1).validate()
    with pytest.raises(ConfigError):
        tiny_config(mesh_mode="gauss_coord",
                    estimator=EstimatorSpec(kind="gauss_coord", b=0)).validate()
    for mu in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="mu"):
            tiny_config(mesh_mode="gaussian", estimator=EstimatorSpec("gaussian", mu=mu)).validate()


def test_building_an_invalid_config_raises():
    """A TrainConfig checks itself when it is built, so an invalid one cannot
    exist: building one directly or through dataclasses.replace raises."""
    with pytest.raises(ConfigError, match="warm_start_epochs"):
        tiny_config(warm_start_epochs=5, epochs=3)
    config = tiny_config()
    with pytest.raises(ConfigError, match="coarse_n=9"):
        dataclasses.replace(config, coarse_n=9)
    with pytest.raises(ConfigError, match="draw count b"):
        dataclasses.replace(config, estimator=EstimatorSpec("gaussian", b=0))
    with pytest.raises(ConfigError, match="subset size d=0"):
        dataclasses.replace(config, estimator=EstimatorSpec("gauss_coord", d=0))


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


def test_solve_count_is_read_per_run_after_a_failed_run(tmp_path, monkeypatch):
    """The solver's count is process-wide, but each run reports only its own
    calls: after a run dies on a SolverError part-way, having counted the
    solve that raised, every epoch of every cell of a sweep still reports
    its declared budget."""
    real_interior = solver_mod._solve_interior
    calls = {"n": 0}

    def failing(*args):
        calls["n"] += 1
        out = real_interior(*args)
        return out if calls["n"] < 12 else np.full_like(out, np.nan)

    with monkeypatch.context() as patch:
        patch.setattr(solver_mod, "_solve_interior", failing)
        before = solve_count()
        with pytest.raises(SolverError):
            train_run(tiny_config(mesh_mode="exact", out_dir=str(tmp_path / "boom")))
        assert solve_count() - before == 12
    cells = {
        (mode,): tiny_config(mesh_mode=mode, estimator=EstimatorSpec(kind="gaussian", b=2),
                             out_dir=str(tmp_path / mode))
        for mode in ("frozen", "exact", "gaussian")
    }
    results = sweep(tmp_path / "sweep", "modes", ("mesh_mode",), cells)
    for (key, metrics), config in zip(results, cells.values()):
        assert len(metrics) == config.epochs
        for m in metrics:
            assert m.n_solver_evals == declared_evals(config, m.epoch + 1), key


@pytest.mark.parametrize("target,call,error,epochs_done,left", [
    # call 9 is epoch 1's first solve, so epoch 0 is the one finished epoch
    ("solve_poisson", 9, RuntimeError, 1, []),
    ("solve_poisson", 9, KeyboardInterrupt, 1, []),
    # the final writes: checkpoint.json, then pred/truth CSVs, metrics.csv last
    ("write_checkpoint", 1, OSError, 5, []),
    ("write_field_csv", 1, KeyboardInterrupt, 5, ["checkpoint.json"]),
], ids=["RuntimeError", "KeyboardInterrupt", "checkpoint-OSError",
        "field-csv-KeyboardInterrupt"])
def test_any_exception_flushes_marked_metrics_without_temp_files(tmp_path, monkeypatch, target,
                                                                 call, error, epochs_done, left):
    """A failure in training or in any of the run's file writes leaves a
    metrics.csv of the finished epochs that ends in the incomplete marker,
    beside only the files written before the failure; metrics.csv itself
    does not exist yet when the failure strikes."""
    real = getattr(train_mod, target)
    out = tmp_path / "boom"
    calls = {"n": 0}
    at_failure = []

    def failing(*args):
        calls["n"] += 1
        if calls["n"] == call:
            at_failure.extend(p.name for p in out.iterdir())
            raise error("synthetic failure")
        return real(*args)

    monkeypatch.setattr(train_mod, target, failing)
    with pytest.raises(error):
        train_run(tiny_config(epochs=5, out_dir=str(out)))
    assert sorted(at_failure) == sorted(left)
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0] == METRICS_HEADER
    assert [int(r.split(",")[0]) for r in rows[1:-1]] == list(range(epochs_done))
    assert rows[-1] == INCOMPLETE_MARKER
    assert sorted(p.name for p in out.iterdir()) == sorted(["metrics.csv", *left])


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


@pytest.mark.parametrize("mode,epochs,warm,calls", [
    ("coordinate", 2, 2, 0),  # warm epochs only
    ("frozen", 2, 0, 0),
    ("coordinate", 2, 1, 2),  # one joint epoch over two train scenarios
])
def test_only_joint_epochs_build_the_mesh_cotangent(tmp_path, monkeypatch, mode, epochs, warm,
                                                    calls):
    seen = []

    def counting(*args):
        seen.append(args)
        return upsample_adjoint(*args)

    monkeypatch.setattr(train_mod, "upsample_adjoint", counting)
    train_run(tiny_config(mesh_mode=mode, epochs=epochs, warm_start_epochs=warm,
                          estimator=EstimatorSpec(kind="coordinate", b=2, seed=0),
                          out_dir=str(tmp_path / "run")))
    assert len(seen) == calls


@pytest.mark.parametrize("mode,est", [
    ("gauss_coord", EstimatorSpec(kind="gauss_coord", b=3, d=2, seed=4)),
    ("exact", EstimatorSpec("coordinate")),
])
def test_joint_epoch_uses_one_workspace_and_matches_fresh_passes(tmp_path, monkeypatch, mode, est):
    config = tiny_config(mesh_mode=mode, estimator=est, epochs=1, warm_start_epochs=0,
                         mesh_lr=1e-2, out_dir=str(tmp_path / mode))

    # Reference: one scenario at a time, each through its own fresh workspace
    # of training's compute dtype.
    fine = uniform_mesh(config.fine_n)
    coarse = uniform_mesh(config.coarse_n)
    netp = net.init_params(net.DEFAULT_DIMS, config.seed)
    order = np.random.default_rng(np.random.SeedSequence([config.seed, 1])).permutation(
        len(config.train_alphas)
    )
    theta_grads, mesh_g = [], np.zeros(coarse.n_params)
    for k, idx in enumerate(order):
        scenario = ScenarioParams(config.train_alphas[idx])
        truth = solve_poisson(fine, scenario).field.values
        coarse_field = solve_poisson(coarse, scenario).field.values
        _, cache = loss_from_coarse_field(
            coarse, netp, scenario, coarse_field, fine, truth,
            workspace=net.Workspace(net.DEFAULT_DIMS, fine.n_nodes, np.float32),
        )
        grads, v = loss_backward(cache)
        theta_grads.append(grads)
        v_scaled = v / order.size
        if mode == "exact":
            mesh_g += exact_mesh_vjp(coarse, scenario, v_scaled)
        else:
            mesh_g += zo_vjp(make_evaluate(coarse, scenario), mesh_to_params(coarse),
                             coarse_field, v_scaled,
                             dataclasses.replace(est, seed=est.seed + k))
    _, want_theta = adam_step(
        init_adam(net.n_params(netp.layer_dims), config.lr),
        netp.flat,
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
    assert built == [(net.DEFAULT_DIMS, fine.n_nodes, np.float32)]
    assert np.array_equal(state.net.flat, want_theta)
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
    assert data["net"]["seed"] == config.seed
    assert set(data["adam"].keys()) == {"net", "mesh"}
    assert np.array_equal(np.array(data["adam"]["net"]["m"]), state.adam_net.m)
    assert (data["adam"]["net"]["beta1"], data["adam"]["net"]["beta2"],
            data["adam"]["net"]["eps"]) == (0.9, 0.999, 1e-8)


def test_float32_run_keeps_float64_gradients_weights_adam_and_checkpoint(tmp_path, monkeypatch):
    passes = []
    real_backward = net.backward

    def recording(cache, cot, **kw):
        grads, input_grads = real_backward(cache, cot, **kw)
        passes.append((cache.workspace.dtype, grads.dtype))
        return grads, input_grads

    monkeypatch.setattr(net, "backward", recording)
    config = tiny_config(mesh_mode="gaussian", estimator=EstimatorSpec("gaussian", b=2, seed=0),
                         mesh_lr=1e-2, out_dir=str(tmp_path / "f32"))
    _, state = train_run(config)
    assert passes == [(np.float32, np.float64)] * (config.epochs * len(config.train_alphas))
    assert state.net.flat.dtype == np.float64
    assert state.adam_mesh.t > 0
    for adam in (state.adam_net, state.adam_mesh):
        assert adam.m.dtype == np.float64 and adam.v.dtype == np.float64
    data = json.loads((tmp_path / "f32" / "checkpoint.json").read_text())["net"]
    for l, (w, b) in enumerate(zip(state.net.weights, state.net.biases)):
        assert np.array_equal(np.array(data["weights"][l]), w)
        assert np.array_equal(np.array(data["biases"][l]), b)


def test_test_rmse_matches_manual_recompute(tmp_path):
    config = tiny_config(out_dir=str(tmp_path / "r"))
    metrics, state = train_run(config)
    fine = uniform_mesh(config.fine_n)
    per = []
    for alpha in config.test_alphas:
        scenario = ScenarioParams(alpha)
        truth = solve_poisson(fine, scenario).field.values
        _, cache = loss_from_coarse_field(
            state.mesh, state.net, scenario, solve_poisson(state.mesh, scenario).field.values,
            fine, truth, workspace=net.Workspace(net.DEFAULT_DIMS, fine.n_nodes, np.float32),
        )
        diff = cache.predictions[:, 0].astype(float) - truth
        per.append(np.sqrt(diff @ diff / diff.size))
    assert metrics[-1].test_rmse == pytest.approx(float(np.mean(per)), rel=0, abs=1e-15)


def test_scale_sweep_writes_combined_csv(tmp_path):
    config = tiny_config(fine_n=9, out_dir=str(tmp_path / "s"), epochs=2,
                         warm_start_epochs=2)
    cells = {(c, 9): dataclasses.replace(config, coarse_n=c,
                                         out_dir=str(tmp_path / "s" / f"scale_{c}x9"))
             for c in (3, 5)}
    sweep(tmp_path / "s", "scales", ("coarse_n", "fine_n"), cells)
    text = (tmp_path / "s" / "scales.csv").read_text().splitlines()
    assert text[0] == "coarse_n,fine_n," + METRICS_HEADER
    assert len(text) == 1 + 2 * config.epochs
    assert (tmp_path / "s" / "scale_3x9" / "metrics.csv").exists()
    assert (tmp_path / "s" / "scale_5x9" / "metrics.csv").exists()
