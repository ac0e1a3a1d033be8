"""Joint training of the correction network and the coarse-mesh lines.

Network weights always get exact reverse-mode gradients.  Mesh parameters get
nothing (frozen), a central-difference oracle (exact), or a zeroth-order
estimate assembled from forward solves only; during the warm-start epochs the
mesh is held frozen regardless of mode, which costs no extra solves.  The
trainer only ever touches the solver through counted callables, so the
per-epoch eval numbers in the metrics are exact budgets.
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
    Field,
    ScenarioParams,
    TensorMesh,
    init_coarse_from_fine,
    mesh_to_params,
    nearest_upsample,
    params_to_mesh,
    uniform_mesh,
    upsample_adjoint,
    write_text_atomic,
)
from .optim import AdamState, NonFiniteGradient, adam_step, init_adam
from .solver import exact_mesh_vjp, make_evaluate, solve_poisson
from .zo import ESTIMATOR_KINDS, EstimatorSpec, zo_vjp

log = logging.getLogger(__name__)

MESH_MODES = ("frozen", "exact", *ESTIMATOR_KINDS)
NET_DIMS = net.DEFAULT_DIMS
METRICS_HEADER = "epoch,train_loss,test_rmse,n_solver_evals,mesh_delta,wall_time_s"
INCOMPLETE_MARKER = "# incomplete"


@dataclass(frozen=True)
class TrainConfig:
    """One training run.  mesh_mode names the mesh-gradient method; for an
    estimator mode the estimator spec only tunes it.  Construction sets the
    spec's kind to mesh_mode and caps gauss_coord's subset size d at
    mesh_dim, so the stored spec is the one that runs, apart from the seed
    offset each estimator call adds."""

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
        if self.mesh_mode in ESTIMATOR_KINDS:
            est = self.estimator
            d = min(est.d, self.mesh_dim) if self.mesh_mode == "gauss_coord" else est.d
            object.__setattr__(
                self,
                "estimator",
                EstimatorSpec(kind=self.mesh_mode, mu=est.mu, b=est.b, d=d, seed=est.seed),
            )

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
        for a in (*self.train_alphas, *self.test_alphas):
            if not np.isfinite(a) or a <= 0:
                raise ConfigError(f"alphas must be positive and finite, got {a}")
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
        if self.mesh_mode in ESTIMATOR_KINDS:
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
    epoch: int
    # (alpha, prediction, fine truth) per test scenario from the last epoch's
    # test evaluation, i.e. with the final mesh and network; empty if no
    # epoch ran.
    test_outputs: tuple[tuple[float, Field, Field], ...] = ()


class SolveCounter:
    """Counts every solver invocation routed through wrap()."""

    def __init__(self):
        self.count = 0

    def wrap(self, solve):
        def counted(mesh, scenario):
            self.count += 1
            return solve(mesh, scenario)

        return counted


@dataclass(frozen=True)
class LossCache:
    coarse_mesh: TensorMesh
    fine_mesh: TensorMesh
    net_params: net.MlpParams
    net_cache: net.ForwardCache
    predictions: np.ndarray
    fine_field: Field


def node_features(
    fine_mesh: TensorMesh, upsampled: np.ndarray, alpha: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-fine-node rows [x, y, upsampled value, alpha], written into out
    (a fresh (n, 4) array when None)."""
    if out is None:
        out = np.empty((fine_mesh.n_nodes, 4))
    out[:, 0], out[:, 1] = fine_mesh.node_coords
    out[:, 2] = upsampled
    out[:, 3] = float(alpha)
    return out


def loss_from_coarse_field(
    coarse_mesh: TensorMesh,
    net_params: net.MlpParams,
    scenario: ScenarioParams,
    coarse_field: Field,
    fine_mesh: TensorMesh,
    fine_field: Field,
    *,
    workspace: net.Workspace | None = None,
) -> tuple[float, LossCache]:
    """MSE over all fine nodes, driven from an already-solved coarse field.

    With a workspace, features and network passes reuse its buffers, so the
    cache's predictions live only until the workspace's next forward.
    """
    u_up = nearest_upsample(coarse_mesh, coarse_field, fine_mesh)
    feats = node_features(
        fine_mesh, u_up.values, scenario.alpha, None if workspace is None else workspace.features
    )
    preds, cache = net.forward(net_params, feats, workspace)
    resid = preds[:, 0] - fine_field.values
    loss = float(resid @ resid / resid.size)
    return loss, LossCache(coarse_mesh, fine_mesh, net_params, cache, preds, fine_field)


def loss_forward(
    coarse_mesh: TensorMesh,
    net_params: net.MlpParams,
    scenario: ScenarioParams,
    fine_mesh: TensorMesh,
    fine_field: Field,
    *,
    solve=solve_poisson,
    workspace: net.Workspace | None = None,
) -> tuple[float, LossCache, Field]:
    """Coarse solve, nearest upsample, network correction, MSE against truth."""
    coarse_field = solve(coarse_mesh, scenario).field
    loss, cache = loss_from_coarse_field(
        coarse_mesh, net_params, scenario, coarse_field, fine_mesh, fine_field,
        workspace=workspace,
    )
    return loss, cache, coarse_field


def loss_backward(cache: LossCache) -> tuple[net.MlpGrads, Field]:
    """Exact gradients of one scenario's MSE.

    Returns network parameter gradients and the coarse-field cotangent
    (the upsample adjoint of the network's input gradient in the upsampled
    column).
    """
    n = cache.predictions.shape[0]
    cot = 2.0 * (cache.predictions - cache.fine_field.values[:, None]) / n
    grads, input_grads = net.backward(cache.net_params, cache.net_cache, cot)
    fine_cot = Field(input_grads[:, 2], cache.fine_mesh.shape)
    v_coarse = upsample_adjoint(cache.coarse_mesh, cache.fine_mesh, fine_cot)
    return grads, v_coarse


def mesh_grad(
    mode: str,
    mesh: TensorMesh,
    v_coarse: Field,
    scenario: ScenarioParams,
    spec: EstimatorSpec | None = None,
    *,
    base_output: np.ndarray | None = None,
    solve=solve_poisson,
) -> np.ndarray:
    """Mesh-parameter gradient for one scenario.

    frozen costs nothing, exact costs 2 * D central-difference solves, the
    estimator modes cost exactly b solves and require the caller's base
    output and a spec whose kind is mode (TrainConfig derives it, with
    gauss_coord's d capped at D).  ``declared_evals`` states these costs;
    a ``SolveCounter`` around ``solve`` measures them.
    """
    if mode == "frozen":
        return np.zeros(mesh.n_params)
    if mode == "exact":
        return exact_mesh_vjp(mesh, scenario, v_coarse, solve=solve)
    if mode not in ESTIMATOR_KINDS:
        raise ConfigError(f"unknown mesh mode {mode!r}, expected one of {MESH_MODES}")
    if spec is None:
        raise ConfigError(f"mesh mode {mode!r} needs an estimator spec")
    if spec.kind != mode:
        raise ConfigError(f"estimator kind {spec.kind!r} does not match mesh mode {mode!r}")
    if base_output is None:
        raise ValueError("estimator modes need the base coarse solve's values")
    evaluate = make_evaluate(mesh, scenario, solve=solve)
    return zo_vjp(evaluate, mesh_to_params(mesh), base_output, v_coarse.values, spec)


def rmse(pred: Field, truth: Field) -> float:
    if pred.mesh_shape != truth.mesh_shape:
        raise ValueError(
            f"field shapes {pred.mesh_shape} and {truth.mesh_shape} do not match"
        )
    diff = pred.values - truth.values
    return float(np.sqrt(diff @ diff / diff.size))


def initial_coarse_mesh(config: TrainConfig) -> TensorMesh:
    """Down-sample the uniform fine mesh when the stride divides, so every
    coarse line is exactly a fine line, else start from the uniform coarse
    mesh.  The two need not agree where both are defined: ``np.linspace``
    rounds each mesh's lines on its own, so for some divisible sizes (fine
    16, coarse 6 the smallest) a down-sampled line differs from the uniform
    coarse line in its last bits.  At strides 4 and 8 from fine 33, 65 and
    129 (desk and the bench workloads) they agree bit for bit."""
    if (config.fine_n - 1) % (config.coarse_n - 1) == 0:
        return init_coarse_from_fine(
            config.fine_n, config.fine_n, config.coarse_n, config.coarse_n
        )
    return uniform_mesh(config.coarse_n)


def declared_evals(config: TrainConfig, epochs_done: int | None = None) -> int:
    """Closed-form solver-call budget after a number of completed epochs.

    Counts the one-off fine ground-truth solves, the per-epoch train forward
    and test evaluation solves, and the per-scenario mesh-gradient solves in
    joint epochs.  train_run's instrumented counter must match this exactly.
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


def write_metrics_csv(path: str | Path, metrics, incomplete: bool = False) -> None:
    rows = [METRICS_HEADER]
    for m in metrics:
        rows.append(
            f"{m.epoch},{float(m.train_loss)!r},{float(m.test_rmse)!r},"
            f"{m.n_solver_evals},{float(m.mesh_delta)!r},{float(m.wall_time)!r}"
        )
    if incomplete:
        rows.append(INCOMPLETE_MARKER)
    write_text_atomic(path, "\n".join(rows) + "\n")


def _adam_to_dict(state: AdamState) -> dict:
    return {
        "m": state.m.tolist(),
        "v": state.v.tolist(),
        "t": state.t,
        "lr": state.lr,
        "beta1": state.beta1,
        "beta2": state.beta2,
        "eps": state.eps,
    }


def config_to_dict(config: TrainConfig) -> dict:
    return asdict(config)


def write_checkpoint(path: str | Path, config: TrainConfig, state: TrainState) -> None:
    payload = {
        "config": config_to_dict(config),
        "mesh": {
            "x_lines": state.mesh.x_lines.tolist(),
            "y_lines": state.mesh.y_lines.tolist(),
            "s_min": state.mesh.s_min,
        },
        "net": {
            "layer_dims": list(state.net.layer_dims),
            "weights": [w.tolist() for w in state.net.weights],
            "biases": [b.tolist() for b in state.net.biases],
            "seed": state.net.seed,
        },
        "adam": {
            "net": _adam_to_dict(state.adam_net),
            "mesh": _adam_to_dict(state.adam_mesh),
        },
        "epoch": state.epoch,
    }
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def train_run(config: TrainConfig) -> tuple[list[EpochMetrics], TrainState]:
    """Run the full training loop; writes metrics.csv and checkpoint.json.

    On any exception, KeyboardInterrupt included, the metrics collected so
    far are flushed with a trailing incomplete marker and the exception
    re-raised.
    """
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counter = SolveCounter()
    solve = counter.wrap(solve_poisson)

    fine_mesh = uniform_mesh(config.fine_n)
    workspace = net.Workspace(NET_DIMS, fine_mesh.n_nodes)
    truths: dict[float, Field] = {}

    def fine_truth(alpha: float) -> Field:
        if alpha not in truths:
            truths[alpha] = solve(fine_mesh, ScenarioParams(alpha)).field
        return truths[alpha]

    coarse = initial_coarse_mesh(config)
    params0 = mesh_to_params(coarse)
    netp = net.init_params(NET_DIMS, config.seed)
    mesh_lr = config.lr if config.mesh_lr is None else config.mesh_lr
    adam_net = init_adam(net.flatten(netp).size, config.lr)
    adam_mesh = init_adam(max(params0.size, 1), mesh_lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    est_calls = 0
    metrics: list[EpochMetrics] = []
    test_outputs: list[tuple[float, Field, Field]] = []
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
                    loss, cache, coarse_field = loss_forward(
                        coarse, netp, scenario, fine_mesh, fine_truth(alpha),
                        solve=solve, workspace=workspace,
                    )
                    losses.append(loss)
                    grads, v_coarse = loss_backward(cache)
                    theta_grads.append(net.flatten(grads))
                    if joint:
                        v_scaled = Field(v_coarse.values / n_batch, v_coarse.mesh_shape)
                        spec = None
                        if config.mesh_mode in ESTIMATOR_KINDS:
                            spec = replace(
                                config.estimator, seed=config.estimator.seed + est_calls
                            )
                            est_calls += 1
                        mesh_g += mesh_grad(
                            config.mesh_mode,
                            coarse,
                            v_scaled,
                            scenario,
                            spec,
                            base_output=coarse_field.values,
                            solve=solve,
                        )
                batch_losses.append(float(np.mean(losses)))
                theta_grad = np.mean(np.stack(theta_grads), axis=0)
                try:
                    adam_net, new_theta = adam_step(adam_net, net.flatten(netp), theta_grad)
                    netp = net.unflatten(netp.layer_dims, new_theta, seed=netp.seed)
                except NonFiniteGradient as err:
                    log.warning("epoch %d: skipping network update: %s", epoch, err)
                if joint:
                    try:
                        adam_mesh, new_p = adam_step(adam_mesh, mesh_to_params(coarse), mesh_g)
                        coarse = params_to_mesh(coarse, new_p)
                    except NonFiniteGradient as err:
                        log.warning("epoch %d: skipping mesh update: %s", epoch, err)
            if config.test_alphas:
                test_outputs = []
                for alpha in config.test_alphas:
                    truth = fine_truth(alpha)
                    _, cache, _ = loss_forward(
                        coarse, netp, ScenarioParams(alpha), fine_mesh, truth,
                        solve=solve, workspace=workspace,
                    )
                    # Field copies the predictions out of the workspace.
                    pred = Field(cache.predictions[:, 0], fine_mesh.shape)
                    test_outputs.append((alpha, pred, truth))
                test_rmse = float(np.mean([rmse(pred, truth) for _, pred, truth in test_outputs]))
            else:
                test_rmse = float("nan")
            metrics.append(
                EpochMetrics(
                    epoch=epoch,
                    train_loss=float(np.mean(batch_losses)),
                    test_rmse=test_rmse,
                    n_solver_evals=counter.count,
                    mesh_delta=float(np.linalg.norm(mesh_to_params(coarse) - params0)),
                    wall_time=time.perf_counter() - start,
                )
            )
    except BaseException:
        write_metrics_csv(out / "metrics.csv", metrics, incomplete=True)
        raise
    write_metrics_csv(out / "metrics.csv", metrics)
    state = TrainState(coarse, netp, adam_net, adam_mesh, config.epochs, tuple(test_outputs))
    write_checkpoint(out / "checkpoint.json", config, state)
    return metrics, state


def scale_sweep(
    config: TrainConfig, scales: list[tuple[int, int]]
) -> list[tuple[tuple[int, int], list[EpochMetrics]]]:
    """Train at several (coarse_n, fine_n) resolutions with a shared seed.
    Every resolution's config is validated before the first one trains."""
    if not scales:
        raise ConfigError("scales must not be empty")
    out = Path(config.out_dir)
    cfgs = [
        replace(config, coarse_n=c, fine_n=f, out_dir=str(out / f"scale_{c}x{f}"))
        for c, f in scales
    ]
    for cfg in cfgs:
        cfg.validate()
    out.mkdir(parents=True, exist_ok=True)
    results = []
    rows = ["coarse_n,fine_n," + METRICS_HEADER]
    for (coarse_n, fine_n), cfg in zip(scales, cfgs):
        metrics, _ = train_run(cfg)
        results.append(((coarse_n, fine_n), metrics))
        for m in metrics:
            rows.append(
                f"{coarse_n},{fine_n},{m.epoch},{float(m.train_loss)!r},"
                f"{float(m.test_rmse)!r},{m.n_solver_evals},{float(m.mesh_delta)!r},"
                f"{float(m.wall_time)!r}"
            )
    write_text_atomic(out / "scales.csv", "\n".join(rows) + "\n")
    return results
