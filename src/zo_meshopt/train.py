"""Joint training of the correction network and the coarse-mesh lines.

Network weights always get exact reverse-mode gradients; a run computes its
net passes in float32 and keeps everything else, the weights, the Adam states,
the loss, the solver and the estimators, in float64.  Mesh parameters get
nothing (frozen), the central-difference oracle ``exact_mesh_vjp`` (exact,
2 * D solves per scenario), or a ``zo_vjp`` estimate from b forward solves
through ``make_evaluate`` (the estimator modes); during the warm-start
epochs the mesh is held frozen regardless of mode, which costs no extra
solves.  The solver counts its own calls (``solver.solve_count()``), and
each epoch's ``n_solver_evals`` is that count less its reading at the start
of the run, so the per-epoch eval numbers in the metrics are exact budgets.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import net
from .errors import ConfigError
from .grid import (
    MIN_GAP,
    ScenarioParams,
    TensorMesh,
    mesh_to_params,
    nearest_upsample,
    params_to_mesh,
    uniform_mesh,
    upsample_adjoint,
    write_field_csv,
    write_text_atomic,
)
from .optim import BETA1, BETA2, EPS, AdamState, NonFiniteGradient, adam_step, init_adam
from .solver import exact_mesh_vjp, make_evaluate, solve_count, solve_poisson
from .zo import ESTIMATOR_KINDS, EstimatorSpec, zo_vjp

log = logging.getLogger(__name__)

MESH_MODES = ("frozen", "exact", *ESTIMATOR_KINDS)
METRICS_HEADER = "epoch,train_loss,test_rmse,n_solver_evals,mesh_delta,wall_time_s"
INCOMPLETE_MARKER = "# incomplete"


@dataclass(frozen=True)
class TrainConfig:
    """One training run.  mesh_mode names the mesh-gradient method; for an
    estimator mode the estimator spec only tunes it.  Construction sets the
    spec's kind to mesh_mode in an estimator mode and caps a gauss_coord
    spec's subset size d at mesh_dim in every mode, so the stored spec is
    the one that runs, apart from the seed offset each estimator call adds.
    Construction then validates the config, the spec in every mode whether
    or not it runs, so every TrainConfig, ``replace``'s included, is valid."""

    fine_n: int = 33
    coarse_n: int = 9
    train_alphas: tuple[float, ...] = (0.90, 0.91, 0.92, 0.93, 0.94, 0.95)
    test_alphas: tuple[float, ...] = (0.905, 0.925, 0.945)
    mesh_mode: str = "frozen"
    estimator: EstimatorSpec = field(default_factory=lambda: EstimatorSpec("coordinate"))
    scenario_batch: int | None = None
    epochs: int = 200
    warm_start_epochs: int = 50
    lr: float = 5e-5
    mesh_lr: float | None = None
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        est = self.estimator
        kind = self.mesh_mode if self.mesh_mode in ESTIMATOR_KINDS else est.kind
        d = min(est.d, self.mesh_dim) if kind == "gauss_coord" else est.d
        object.__setattr__(self, "estimator", replace(est, kind=kind, d=d))
        self.validate()

    @property
    def mesh_dim(self) -> int:
        """Trainable mesh parameters: the interior lines of both axes."""
        return 2 * (self.coarse_n - 2)

    @property
    def batch_size(self) -> int:
        if self.scenario_batch is not None:
            return self.scenario_batch
        return min(16, len(self.train_alphas))

    def validate(self) -> None:
        if self.mesh_mode not in MESH_MODES:
            raise ConfigError(
                f"unknown mesh_mode {self.mesh_mode!r}, expected one of {MESH_MODES}"
            )
        if self.fine_n < 3 or self.coarse_n < 3:
            raise ConfigError(
                f"mesh sizes need at least 3 lines per axis, got fine={self.fine_n} "
                f"coarse={self.coarse_n}"
            )
        if self.coarse_n >= self.fine_n:
            raise ConfigError(
                f"coarse_n={self.coarse_n} must be smaller than fine_n={self.fine_n}"
            )
        if not self.train_alphas:
            raise ConfigError("train_alphas must not be empty")
        if not self.test_alphas:
            raise ConfigError("test_alphas must not be empty")
        for a in (*self.train_alphas, *self.test_alphas):
            if not np.isfinite(a) or a <= 0:
                raise ConfigError(f"alphas must be positive and finite, got {a}")
        if len(set(self.train_alphas)) != len(self.train_alphas):
            raise ConfigError(
                f"train_alphas must not repeat an alpha, got {list(self.train_alphas)}"
            )
        # Each test alpha writes pred/truth CSVs named by its {alpha:g}; two
        # alphas with one name, equal ones included, would share those files.
        seen: dict[str, float] = {}
        for alpha in self.test_alphas:
            name = f"{alpha:g}"
            if name in seen:
                raise ConfigError(
                    f"test_alphas {seen[name]!r} and {alpha!r} both write "
                    f"pred_alpha_{name}.csv; they must differ in their first 6 significant "
                    "digits"
                )
            seen[name] = alpha
        if set(self.train_alphas) & set(self.test_alphas):
            raise ConfigError("train and test alphas must be disjoint")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if not 0 <= self.warm_start_epochs <= self.epochs:
            raise ConfigError(
                f"warm_start_epochs={self.warm_start_epochs} must lie in [0, epochs="
                f"{self.epochs}]"
            )
        if self.scenario_batch is not None and self.scenario_batch < 1:
            raise ConfigError(f"scenario_batch must be >= 1, got {self.scenario_batch}")
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.mesh_lr is not None and (not np.isfinite(self.mesh_lr) or self.mesh_lr <= 0):
            raise ConfigError(f"mesh_lr must be positive and finite, got {self.mesh_lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self.estimator.validate(self.mesh_dim)


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    test_rmse: float
    n_solver_evals: int
    mesh_delta: float
    wall_time: float


@dataclass(frozen=True)
class TrainState:
    mesh: TensorMesh
    net: net.MlpParams
    adam_net: AdamState
    adam_mesh: AdamState


@dataclass(frozen=True)
class LossCache:
    """One scenario's pass, as ``loss_backward`` needs it.  ``predictions``
    is the workspace's (1, n) output and lives until its next forward;
    ``resid`` is a float64 array of its own, whose mean square is the loss."""

    coarse_mesh: TensorMesh
    fine_mesh: TensorMesh
    net_cache: net.ForwardCache
    predictions: np.ndarray
    resid: np.ndarray  # predictions[0] - truth, float64


def loss_from_coarse_field(
    coarse_mesh: TensorMesh,
    net_params: net.MlpParams,
    scenario: ScenarioParams,
    coarse_field: np.ndarray,
    fine_mesh: TensorMesh,
    fine_field: np.ndarray,
    *,
    workspace: net.Workspace,
) -> tuple[float, LossCache]:
    """MSE over all fine nodes, driven from an already-solved coarse field.

    Writes the fine nodes' feature rows x, y, upsampled coarse value and
    alpha into ``workspace.features`` and runs the network pass there, in
    the workspace's dtype, so the cache's predictions live only until the
    workspace's next forward.  The residual and the loss are float64.
    """
    feats = workspace.features
    feats[0], feats[1] = fine_mesh.node_coords
    feats[2] = nearest_upsample(coarse_mesh, coarse_field, fine_mesh)
    feats[3] = float(scenario.alpha)
    preds, cache = net.forward(net_params, workspace)
    resid = preds[0] - fine_field
    loss = float(resid @ resid / resid.size)
    return loss, LossCache(coarse_mesh, fine_mesh, cache, preds, resid)


def loss_backward(
    cache: LossCache, *, mesh_cotangent: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact gradients of one scenario's MSE.

    Returns the network parameter gradients, laid out as ``MlpParams.flat``,
    and the coarse-field cotangent (the upsample adjoint of the network's
    input-gradient row of the upsampled value).  With ``mesh_cotangent=False``
    the cotangent, which only a mesh gradient needs, is neither built nor
    returned (None).
    """
    cot = 2.0 * cache.resid[None] / cache.resid.size
    grads, input_grads = net.backward(cache.net_cache, cot, input_grads=mesh_cotangent)
    if not mesh_cotangent:
        return grads, None
    return grads, upsample_adjoint(cache.coarse_mesh, cache.fine_mesh, input_grads[2])


def declared_evals(config: TrainConfig, epochs_done: int | None = None) -> int:
    """Closed-form solver-call budget after a number of completed epochs.

    Counts the one-off fine ground-truth solves, the per-epoch train forward
    and test evaluation solves, and the per-scenario mesh-gradient solves in
    joint epochs.  train_run's ``n_solver_evals``, the solver's own count of
    the calls the run made, must match this exactly.
    Raises ValueError unless 0 <= epochs_done <= config.epochs.
    """
    done = config.epochs if epochs_done is None else epochs_done
    if not 0 <= done <= config.epochs:
        raise ValueError(f"epochs_done={done} must lie in [0, epochs={config.epochs}]")
    if done == 0:
        return 0
    n_train = len(config.train_alphas)
    n_test = len(config.test_alphas)
    total = n_train + n_test  # fine ground-truth solves, all during epoch 0
    total += done * (n_train + n_test)
    joint = max(0, done - config.warm_start_epochs)
    if config.mesh_mode == "exact":
        per_scenario = 2 * config.mesh_dim  # 2 solves per mesh parameter
    elif config.mesh_mode in ESTIMATOR_KINDS:
        per_scenario = config.estimator.b
    else:
        per_scenario = 0
    total += joint * n_train * per_scenario
    return total


def _metrics_row(m: EpochMetrics) -> str:
    """One epoch under METRICS_HEADER; floats as their repr, so the CSV
    reads back bit for bit."""
    return (
        f"{m.epoch},{float(m.train_loss)!r},{float(m.test_rmse)!r},"
        f"{m.n_solver_evals},{float(m.mesh_delta)!r},{float(m.wall_time)!r}"
    )


def write_metrics_csv(path: str | Path, metrics, incomplete: bool = False) -> None:
    rows = [METRICS_HEADER, *map(_metrics_row, metrics)]
    if incomplete:
        rows.append(INCOMPLETE_MARKER)
    write_text_atomic(path, "\n".join(rows) + "\n")


def _adam_to_dict(state: AdamState) -> dict:
    return {
        "m": state.m.tolist(),
        "v": state.v.tolist(),
        "t": state.t,
        "lr": state.lr,
        "beta1": BETA1,
        "beta2": BETA2,
        "eps": EPS,
    }


def write_checkpoint(path: str | Path, config: TrainConfig, state: TrainState) -> None:
    payload = {
        "config": asdict(config),
        "mesh": {
            "x_lines": state.mesh.x_lines.tolist(),
            "y_lines": state.mesh.y_lines.tolist(),
            "s_min": MIN_GAP,
        },
        "net": {
            "layer_dims": list(state.net.layer_dims),
            "weights": [w.tolist() for w in state.net.weights],
            "biases": [b.tolist() for b in state.net.biases],
            "seed": config.seed,
        },
        "adam": {
            "net": _adam_to_dict(state.adam_net),
            "mesh": _adam_to_dict(state.adam_mesh),
        },
        "epoch": config.epochs,
    }
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _make_out_dir(path: str | Path) -> Path:
    """Make an output directory and its parents; a path that cannot be made
    one, such as an existing file, is a ConfigError that names it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot make output directory {out}: {err.strerror}") from None
    return out


def train_run(config: TrainConfig) -> tuple[list[EpochMetrics], TrainState]:
    """Run the full training loop and write the run's files into out_dir:
    checkpoint.json, the last epoch's pred/truth CSVs per test alpha, and
    metrics.csv last.

    On any exception, KeyboardInterrupt included, the metrics collected so
    far are flushed with a trailing incomplete marker and the exception
    re-raised, so a metrics.csv without the marker vouches for every file
    beside it.  The config was checked when it was built; an out_dir that
    cannot be made raises ConfigError before anything is solved.
    """
    out = _make_out_dir(config.out_dir)
    solves0 = solve_count()

    fine_mesh = uniform_mesh(config.fine_n)
    workspace = net.Workspace(net.DEFAULT_DIMS, fine_mesh.n_nodes, np.float32)
    truths: dict[float, np.ndarray] = {}

    def fine_truth(alpha: float) -> np.ndarray:
        if alpha not in truths:
            truths[alpha] = solve_poisson(fine_mesh, ScenarioParams(alpha)).field.values
        return truths[alpha]

    coarse = uniform_mesh(config.coarse_n)
    params0 = mesh_to_params(coarse)
    netp = net.init_params(net.DEFAULT_DIMS, config.seed)
    mesh_lr = config.lr if config.mesh_lr is None else config.mesh_lr
    adam_net = init_adam(netp.flat.size, config.lr)
    adam_mesh = init_adam(params0.size, mesh_lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    est_calls = 0
    metrics: list[EpochMetrics] = []
    test_outputs: list[tuple[float, np.ndarray, np.ndarray]] = []
    start = time.perf_counter()
    try:
        for epoch in range(config.epochs):
            joint = config.mesh_mode != "frozen" and epoch >= config.warm_start_epochs
            order = shuffle_rng.permutation(len(config.train_alphas))
            batch_losses = []
            for lo in range(0, order.size, config.batch_size):
                batch_alphas = [config.train_alphas[k] for k in order[lo : lo + config.batch_size]]
                n_batch = len(batch_alphas)
                losses = []
                theta_grads = []
                mesh_g = np.zeros(params0.size)
                # One scenario at a time: its backward consumes the workspace
                # before the next scenario's forward refills it.
                for alpha in batch_alphas:
                    scenario = ScenarioParams(alpha)
                    truth = fine_truth(alpha)
                    coarse_field = solve_poisson(coarse, scenario).field.values
                    loss, cache = loss_from_coarse_field(
                        coarse, netp, scenario, coarse_field, fine_mesh, truth,
                        workspace=workspace,
                    )
                    losses.append(loss)
                    grads, v_coarse = loss_backward(cache, mesh_cotangent=joint)
                    theta_grads.append(grads)
                    if joint:
                        v_scaled = v_coarse / n_batch
                        if config.mesh_mode == "exact":
                            mesh_g += exact_mesh_vjp(coarse, scenario, v_scaled)
                        else:
                            spec = replace(
                                config.estimator, seed=config.estimator.seed + est_calls
                            )
                            est_calls += 1
                            mesh_g += zo_vjp(
                                make_evaluate(coarse, scenario),
                                mesh_to_params(coarse),
                                coarse_field,
                                v_scaled,
                                spec,
                            )
                batch_losses.append(float(np.mean(losses)))
                theta_grad = np.mean(np.stack(theta_grads), axis=0)
                try:
                    adam_net, new_theta = adam_step(adam_net, netp.flat, theta_grad)
                    netp = net.MlpParams(netp.layer_dims, new_theta)
                except NonFiniteGradient as err:
                    log.warning("epoch %d: skipping network update: %s", epoch, err)
                if joint:
                    try:
                        adam_mesh, new_p = adam_step(adam_mesh, mesh_to_params(coarse), mesh_g)
                        coarse = params_to_mesh(coarse, new_p)
                    except NonFiniteGradient as err:
                        log.warning("epoch %d: skipping mesh update: %s", epoch, err)
            test_outputs = []
            test_losses = []
            for alpha in config.test_alphas:
                scenario = ScenarioParams(alpha)
                truth = fine_truth(alpha)
                loss, cache = loss_from_coarse_field(
                    coarse, netp, scenario, solve_poisson(coarse, scenario).field.values,
                    fine_mesh, truth, workspace=workspace,
                )
                test_losses.append(loss)
                # Copied out of the workspace, which the next forward refills.
                pred = cache.predictions[0].astype(float)
                test_outputs.append((alpha, pred, truth))
            test_rmse = float(np.mean(np.sqrt(test_losses)))
            metrics.append(
                EpochMetrics(
                    epoch=epoch,
                    train_loss=float(np.mean(batch_losses)),
                    test_rmse=test_rmse,
                    n_solver_evals=solve_count() - solves0,
                    mesh_delta=float(np.linalg.norm(mesh_to_params(coarse) - params0)),
                    wall_time=time.perf_counter() - start,
                )
            )
        state = TrainState(coarse, netp, adam_net, adam_mesh)
        write_checkpoint(out / "checkpoint.json", config, state)
        for alpha, pred, truth in test_outputs:
            write_field_csv(pred, fine_mesh, out / f"pred_alpha_{alpha:g}.csv")
            write_field_csv(truth, fine_mesh, out / f"truth_alpha_{alpha:g}.csv")
        write_metrics_csv(out / "metrics.csv", metrics)
    except BaseException:
        write_metrics_csv(out / "metrics.csv", metrics, incomplete=True)
        raise
    return metrics, state


def sweep(
    out_dir: str | Path, name: str, labels: tuple[str, ...], cells: dict[tuple, TrainConfig]
) -> list[tuple[tuple, list[EpochMetrics]]]:
    """Train each cell in order, then write ``<out_dir>/<name>.csv``: the
    label columns, then METRICS_HEADER's, one row per epoch of each cell.
    Each cell's config was checked when it was built, so a bad cell fails
    where the caller builds the grid, before this makes the directory or
    trains any cell.  Returns (key, metrics) for each cell, in order."""
    out = _make_out_dir(out_dir)
    results = [(key, train_run(cfg)[0]) for key, cfg in cells.items()]
    rows = [",".join((*labels, METRICS_HEADER))]
    for key, metrics in results:
        prefix = ",".join(map(str, key))
        rows.extend(f"{prefix},{_metrics_row(m)}" for m in metrics)
    write_text_atomic(out / f"{name}.csv", "\n".join(rows) + "\n")
    return results
