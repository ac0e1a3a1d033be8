"""Command-line front end: train, gradcheck, sweep.

Exit codes: 0 success, 2 configuration/usage error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import net
from .errors import ConfigError, SolverError
from .grid import (
    Field,
    ScenarioParams,
    uniform_mesh,
    nearest_upsample,
    upsample_adjoint,
    write_field_csv,
    write_text_atomic,
)
from .solver import exact_mesh_vjp, make_evaluate
from .train import (
    MESH_MODES,
    TrainConfig,
    scale_sweep,
    train_run,
)
from .zo import ESTIMATOR_KINDS, EstimatorSpec, zo_vjp

_CONFIG_KEYS = {f.name for f in fields(TrainConfig)}
_ESTIMATOR_KEYS = {f.name for f in fields(EstimatorSpec)}
_BD_GRID = [(b, d) for b in (1, 2, 4, 8) for d in (4, 8, 16)]
_SCALE_COARSE = (5, 7, 9)


def load_config(path: str) -> TrainConfig:
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "estimator" in kwargs:
        est = kwargs["estimator"]
        if not isinstance(est, dict):
            raise ConfigError("estimator must be a JSON object")
        bad = set(est) - _ESTIMATOR_KEYS
        if bad:
            raise ConfigError(f"unknown estimator keys: {sorted(bad)}")
        # mesh_mode names the method; the estimator object only tunes it.
        mode = kwargs.get("mesh_mode")
        if mode in ESTIMATOR_KINDS and est.get("kind", mode) != mode:
            raise ConfigError(
                f"estimator kind {est['kind']!r} contradicts mesh_mode {mode!r}; "
                "drop the kind or make it match"
            )
        kwargs["estimator"] = EstimatorSpec(**{"kind": "coordinate", **est})
    for key in ("train_alphas", "test_alphas"):
        if key in kwargs:
            kwargs[key] = tuple(float(a) for a in kwargs[key])
    try:
        return TrainConfig(**kwargs)
    except TypeError as err:
        raise ConfigError(f"bad config value: {err}") from None


def apply_overrides(config: TrainConfig, args: argparse.Namespace) -> TrainConfig:
    est = config.estimator
    if getattr(args, "mu", None) is not None:
        est = replace(est, mu=args.mu)
    if getattr(args, "b", None) is not None:
        est = replace(est, b=args.b)
    if getattr(args, "d", None) is not None:
        est = replace(est, d=args.d)
    updates: dict = {"estimator": est}
    if getattr(args, "mesh_mode", None) is not None:
        updates["mesh_mode"] = args.mesh_mode
    if getattr(args, "epochs", None) is not None:
        updates["epochs"] = args.epochs
    if getattr(args, "warm_start", None) is not None:
        updates["warm_start_epochs"] = args.warm_start
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = args.out
    return replace(config, **updates)


def cmd_train(args: argparse.Namespace) -> int:
    config = apply_overrides(load_config(args.config), args)
    config.validate()
    metrics, state = train_run(config)
    out = Path(config.out_dir)
    for alpha, pred, truth in state.test_outputs:
        write_field_csv(pred, out / f"pred_alpha_{alpha:g}.csv")
        write_field_csv(truth, out / f"truth_alpha_{alpha:g}.csv")
    if metrics:
        last = metrics[-1]
        print(
            f"trained {config.epochs} epochs (mode={config.mesh_mode}): "
            f"train_loss={last.train_loss:.6e} test_rmse={last.test_rmse:.6e} "
            f"solver_evals={last.n_solver_evals}"
        )
    else:
        print("trained 0 epochs")
    print(f"outputs in {out}")
    return 0


def _check_net_gradcheck(fd_step: float) -> tuple[str, float, float]:
    params = net.init_params((4, 8, 1), seed=0)
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((16, 4))
    cot = rng.standard_normal((16, 1))
    _, cache = net.forward(params, feats)
    grads, _ = net.backward(params, cache, cot)
    analytic = net.flatten(grads)
    theta = net.flatten(params)
    fd = np.empty_like(theta)
    for k in range(theta.size):
        step = np.zeros_like(theta)
        step[k] = fd_step
        plus, _ = net.forward(net.unflatten(params.layer_dims, theta + step), feats)
        minus, _ = net.forward(net.unflatten(params.layer_dims, theta - step), feats)
        fd[k] = float(np.sum(cot * (plus - minus))) / (2.0 * fd_step)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    rel = np.abs(analytic - fd) / np.maximum(scale, 1e-12)
    return "net-gradcheck", float(rel.max()), 1e-4


def _check_adjoint() -> tuple[str, float, float]:
    coarse = uniform_mesh(5)
    fine = uniform_mesh(17)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        f = Field(rng.standard_normal(coarse.n_nodes), coarse.shape)
        g = Field(rng.standard_normal(fine.n_nodes), fine.shape)
        lhs = float(nearest_upsample(coarse, f, fine).values @ g.values)
        rhs = float(f.values @ upsample_adjoint(coarse, fine, g).values)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return "upsample-adjoint", worst, 1e-12


def _check_estimator_vs_matrix() -> tuple[str, float, float]:
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 6))
    v = rng.standard_normal(5)
    m0 = rng.standard_normal(6)
    base = a @ m0
    spec = EstimatorSpec("coordinate", mu=1e-3, b=6, seed=5)
    est, _ = zo_vjp(lambda p: a @ p, m0, base, v, spec)
    expected = (a.T @ v) / 6.0
    rel = float(np.max(np.abs(est - expected)) / np.max(np.abs(expected)))
    return "coordinate-vs-matrix", rel, 1e-9


def _check_estimator_vs_solver() -> tuple[str, float, float]:
    mesh = uniform_mesh(5)
    scenario = ScenarioParams(1.0)
    rng = np.random.default_rng(13)
    v = Field(rng.standard_normal(mesh.n_nodes), mesh.shape)
    exact = exact_mesh_vjp(mesh, scenario, v)
    evaluate = make_evaluate(mesh, scenario)
    from .grid import mesh_to_params
    from .solver import solve_poisson

    p0 = mesh_to_params(mesh)
    base = solve_poisson(mesh, scenario).field.values
    spec = EstimatorSpec("coordinate", mu=1e-3, b=p0.size, seed=17)
    est, _ = zo_vjp(evaluate, p0, base, v.values, spec)
    cos = float(est @ exact / (np.linalg.norm(est) * np.linalg.norm(exact)))
    # Report 1 - cosine similarity between the scaled estimate and the oracle.
    return "coordinate-vs-solver-vjp", 1.0 - cos, 1e-2


def cmd_gradcheck(args: argparse.Namespace) -> int:
    checks = [
        _check_net_gradcheck(args.fd_step),
        _check_adjoint(),
        _check_estimator_vs_matrix(),
        _check_estimator_vs_solver(),
    ]
    all_ok = True
    for name, value, tol in checks:
        ok = value <= tol
        all_ok &= ok
        print(f"{name:28s} {value:12.3e} (tol {tol:.1e})  {'PASS' if ok else 'FAIL'}")
    return 0 if all_ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    config.validate()
    out = Path(config.out_dir)
    if args.what == "scales":
        scales = [(c, config.fine_n) for c in _SCALE_COARSE]
        results = scale_sweep(config, scales)
        for (coarse_n, fine_n), metrics in results:
            print(
                f"scale {coarse_n}x{fine_n}: final train_loss={metrics[-1].train_loss:.6e}"
            )
    else:
        rows = ["b,d,epoch,train_loss,test_rmse,n_solver_evals"]
        for b, d in _BD_GRID:
            cfg = replace(
                config,
                mesh_mode="gauss_coord",
                estimator=replace(config.estimator, b=b, d=d),
                out_dir=str(out / f"bd_b{b}_d{d}"),
            )
            metrics, _ = train_run(cfg)
            for m in metrics:
                rows.append(
                    f"{b},{d},{m.epoch},{float(m.train_loss)!r},"
                    f"{float(m.test_rmse)!r},{m.n_solver_evals}"
                )
            print(f"b={b} d={d}: final test_rmse={metrics[-1].test_rmse:.6e}")
        out.mkdir(parents=True, exist_ok=True)
        write_text_atomic(out / "bd_sweep.csv", "\n".join(rows) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zo-meshopt",
        description="Train a coarse-solver correction network with optional mesh optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train_p = sub.add_parser("train", help="run one training configuration")
    train_p.add_argument("--config", required=True, help="JSON config file")
    train_p.add_argument("--mesh-mode", dest="mesh_mode", choices=MESH_MODES)
    train_p.add_argument("--mu", type=float, help="estimator perturbation size")
    train_p.add_argument("--b", type=int, help="estimator draws per call")
    train_p.add_argument("--d", type=int, help="gauss_coord subset size")
    train_p.add_argument("--epochs", type=int)
    train_p.add_argument("--warm-start", dest="warm_start", type=int)
    train_p.add_argument("--seed", type=int)
    train_p.add_argument("--out", help="output directory")
    train_p.set_defaults(func=cmd_train)

    grad_p = sub.add_parser("gradcheck", help="run the differentiation oracle suite")
    grad_p.add_argument("--fd-step", dest="fd_step", type=float, default=1e-5)
    grad_p.set_defaults(func=cmd_gradcheck)

    sweep_p = sub.add_parser("sweep", help="run a preset experiment sweep")
    sweep_p.add_argument("what", choices=("scales", "bd"))
    sweep_p.add_argument("--config", required=True, help="JSON config file")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
