"""Coarse PDE solves corrected by a small network, with the coarse mesh
itself trained through zeroth-order estimates of the solver's VJP."""

from .errors import ConfigError, SolverError
from .grid import (
    Field,
    ScenarioParams,
    TensorMesh,
    mesh_to_params,
    nearest_upsample,
    params_to_mesh,
    read_field_csv,
    uniform_mesh,
    upsample_adjoint,
    write_field_csv,
)
from .net import MlpParams, init_params
from .optim import AdamState, adam_step, init_adam
from .solver import (
    SolveReport,
    exact_mesh_vjp,
    make_evaluate,
    solve_manufactured,
    solve_poisson,
)
from .train import (
    EpochMetrics,
    TrainConfig,
    declared_evals,
    loss_backward,
    rmse,
    sweep,
    train_run,
)
from .zo import EstimatorSpec, zo_vjp

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ConfigError",
    "EpochMetrics",
    "EstimatorSpec",
    "Field",
    "MlpParams",
    "ScenarioParams",
    "SolveReport",
    "SolverError",
    "TensorMesh",
    "TrainConfig",
    "adam_step",
    "declared_evals",
    "exact_mesh_vjp",
    "init_adam",
    "init_params",
    "loss_backward",
    "make_evaluate",
    "mesh_to_params",
    "nearest_upsample",
    "params_to_mesh",
    "read_field_csv",
    "rmse",
    "solve_manufactured",
    "solve_poisson",
    "sweep",
    "train_run",
    "uniform_mesh",
    "upsample_adjoint",
    "write_field_csv",
    "zo_vjp",
]
