"""Command-line front end: train, sweep.

Exit codes: 0 success, 2 configuration/usage error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
import typing
from dataclasses import fields, replace
from pathlib import Path

from .errors import ConfigError, SolverError
from .grid import write_field_csv, write_text_atomic
from .train import MESH_MODES, TrainConfig, scale_sweep, train_run
from .zo import ESTIMATOR_KINDS, EstimatorSpec

_CONFIG_TYPES = typing.get_type_hints(TrainConfig)
_ESTIMATOR_TYPES = typing.get_type_hints(EstimatorSpec)
_CONFIG_KEYS = {f.name for f in fields(TrainConfig)}
_ESTIMATOR_KEYS = {f.name for f in fields(EstimatorSpec)}
_BD_GRID = [(b, d) for b in (1, 2, 4, 8) for d in (4, 8, 16)]
_SCALE_COARSE = (5, 7, 9)


def _json_fits(value, hint) -> bool:
    """Whether a parsed JSON value fits a field's annotation: an int is a
    float, a list of numbers is a tuple[float, ...], a bool is neither."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_json_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(
            _json_fits(v, typing.get_args(hint)[0]) for v in value
        )
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _check_types(data: dict, hints: dict, where: str) -> None:
    for key, value in data.items():
        hint = hints[key]
        if not _json_fits(value, hint):
            expected = getattr(hint, "__name__", str(hint))
            raise ConfigError(f"{where} {key!r} must be {expected}, got {json.dumps(value)}")


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
    _check_types({k: v for k, v in data.items() if k != "estimator"}, _CONFIG_TYPES,
                 "config key")
    kwargs = dict(data)
    if "estimator" in kwargs:
        est = kwargs["estimator"]
        if not isinstance(est, dict):
            raise ConfigError("estimator must be a JSON object")
        bad = set(est) - _ESTIMATOR_KEYS
        if bad:
            raise ConfigError(f"unknown estimator keys: {sorted(bad)}")
        _check_types(est, _ESTIMATOR_TYPES, "estimator key")
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
    return TrainConfig(**kwargs)


# Each train flag's dest and the field it sets: a TrainConfig field, or an
# EstimatorSpec field under "estimator.".
_FLAG_FIELDS = {
    "mesh_mode": "mesh_mode",
    "epochs": "epochs",
    "warm_start": "warm_start_epochs",
    "seed": "seed",
    "out": "out_dir",
    "mu": "estimator.mu",
    "b": "estimator.b",
    "d": "estimator.d",
}


def apply_overrides(config: TrainConfig, args: argparse.Namespace) -> TrainConfig:
    """config with every train flag that was given in args put in."""
    updates: dict = {}
    est: dict = {}
    for flag, name in _FLAG_FIELDS.items():
        value = getattr(args, flag)
        if value is not None:
            prefix, _, key = name.rpartition(".")
            (est if prefix else updates)[key] = value
    return replace(config, estimator=replace(config.estimator, **est), **updates)


def _check_test_outputs(config: TrainConfig) -> None:
    """Each test alpha writes pred/truth CSVs named by its {alpha:g}; two
    alphas with one name would overwrite each other's files."""
    seen: dict[str, float] = {}
    for alpha in config.test_alphas:
        name = f"{alpha:g}"
        if name in seen:
            raise ConfigError(
                f"test alphas {seen[name]!r} and {alpha!r} both write "
                f"pred_alpha_{name}.csv; they must differ in their first 6 significant digits"
            )
        seen[name] = alpha


def _final(metrics: list, name: str) -> str:
    """The summary of a cell's last epoch, or of a run with none."""
    if not metrics:
        return "no epochs run"
    return f"final {name}={getattr(metrics[-1], name):.6e}"


def cmd_train(args: argparse.Namespace) -> int:
    config = apply_overrides(load_config(args.config), args)
    config.validate()
    _check_test_outputs(config)
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


def cmd_sweep(args: argparse.Namespace) -> int:
    """Train every cell of a preset grid.  Every cell's config is built and
    validated before the first cell trains."""
    config = load_config(args.config)
    config.validate()
    out = Path(config.out_dir)
    if args.what == "scales":
        scales = [(c, config.fine_n) for c in _SCALE_COARSE]
        for (coarse_n, fine_n), metrics in scale_sweep(config, scales):
            print(f"scale {coarse_n}x{fine_n}: {_final(metrics, 'train_loss')}")
        return 0
    cells: dict[tuple[int, int], TrainConfig] = {}
    for b, d_asked in _BD_GRID:
        cfg = replace(
            config,
            mesh_mode="gauss_coord",
            estimator=replace(config.estimator, b=b, d=d_asked),
        )
        # TrainConfig caps d at the mesh dimension: train each cell that
        # runs once, under the d it runs with.
        d = cfg.estimator.d
        cells.setdefault((b, d), replace(cfg, out_dir=str(out / f"bd_b{b}_d{d}")))
    for cfg in cells.values():
        cfg.validate()
    rows = ["b,d,epoch,train_loss,test_rmse,n_solver_evals"]
    for (b, d), cfg in cells.items():
        metrics, _ = train_run(cfg)
        for m in metrics:
            rows.append(
                f"{b},{d},{m.epoch},{float(m.train_loss)!r},"
                f"{float(m.test_rmse)!r},{m.n_solver_evals}"
            )
        print(f"b={b} d={d}: {_final(metrics, 'test_rmse')}")
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
