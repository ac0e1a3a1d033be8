"""Per-node correction network: a small tanh MLP with hand-written gradients.

Everything is float64 and batch-first: features are (n, d0), predictions are
(n, d_out).  backward differentiates sum(cotangent * predictions) exactly.

Every pass writes into a ``Workspace``: one activation, ``dz`` and
input-gradient buffer per layer, sized for n rows, so a training run that
keeps one workspace allocates no per-layer array per step.  Aliasing rule:
the predictions ``forward`` returns, and the input gradients ``backward``
returns, are views into the workspace and live only until its next
``forward``; copy them to keep them.  ``backward`` refuses a cache whose
workspace a later ``forward`` has refilled.  ``forward`` without a workspace
builds a fresh one, so its results are never overwritten.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_DIMS = (4, 32, 32, 1)


@dataclass(frozen=True)
class MlpParams:
    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]  # (fan_out, fan_in) per layer
    biases: tuple[np.ndarray, ...]
    seed: int | None = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"layer_dims must hold positive widths, got {dims}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("one weight matrix and bias vector per layer required")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
                raise ValueError(
                    f"layer {l} expects weights {(dims[l + 1], dims[l])} and "
                    f"biases {(dims[l + 1],)}, got {w.shape} and {b.shape}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l} parameters contain non-finite entries")
        object.__setattr__(self, "layer_dims", dims)


@dataclass(frozen=True)
class MlpGrads:
    """Parameter gradients with the same shapes as MlpParams."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


class Workspace:
    """Reusable float64 buffers for forward and backward on n rows.

    Per layer l (0-based, n_layers of them): ``activations[l]`` is
    (n, dims[l + 1]), ``input_grads[l]`` is (n, dims[l]), and every hidden
    layer has a ``dz`` buffer (n, dims[l + 1]); the output layer's dz is
    the cotangent itself.  ``features`` is an (n, dims[0]) buffer a caller
    may build its inputs in.  ``generation`` counts the forwards written.
    """

    def __init__(self, layer_dims, n: int):
        dims = tuple(int(d) for d in layer_dims)
        self.layer_dims = dims
        self.n = int(n)
        self.features = np.empty((n, dims[0]))
        self.activations = tuple(np.empty((n, d)) for d in dims[1:])
        self.dz = tuple(np.empty((n, d)) for d in dims[1:-1])
        self.input_grads = tuple(np.empty((n, d)) for d in dims[:-1])
        self.generation = 0


@dataclass(frozen=True)
class ForwardCache:
    params: MlpParams
    inputs: np.ndarray
    activations: tuple[np.ndarray, ...]
    workspace: Workspace
    generation: int


def init_params(layer_dims, seed: int) -> MlpParams:
    """Glorot-uniform weights (limit sqrt(6 / (fan_in + fan_out))), zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"layer_dims must hold positive widths, got {dims}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(dims, tuple(weights), tuple(biases), seed)


def forward(
    params: MlpParams, features: np.ndarray, out: Workspace | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """tanh hidden layers, identity output; returns (predictions, cache).

    Writes every layer into ``out`` (a fresh workspace when None); the
    returned predictions are ``out.activations[-1]``.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.layer_dims[0]:
        raise ValueError(
            f"features must be (n, {params.layer_dims[0]}), got shape {x.shape}"
        )
    if out is None:
        out = Workspace(params.layer_dims, x.shape[0])
    elif out.layer_dims != params.layer_dims or out.n != x.shape[0]:
        raise ValueError(
            f"workspace holds dims {out.layer_dims} for {out.n} rows, "
            f"forward needs {params.layer_dims} for {x.shape[0]}"
        )
    out.generation += 1
    last = len(params.weights) - 1
    a = x
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = np.matmul(a, w.T, out=out.activations[l])
        a += b
        if l != last:
            np.tanh(a, out=a)
    return a, ForwardCache(params, x, out.activations, out, out.generation)


def backward(
    params: MlpParams, cache: ForwardCache, prediction_cotangent: np.ndarray
) -> tuple[MlpGrads, np.ndarray]:
    """Reverse-mode gradients of sum(cotangent * predictions).

    Returns parameter gradients and per-row input gradients (n, d0); the
    latter are ``cache.workspace.input_grads[0]``.
    """
    if cache.params is not params:
        raise ValueError("cache was produced by a different forward pass")
    ws = cache.workspace
    if cache.generation != ws.generation:
        raise ValueError("cache's workspace was refilled by a later forward pass")
    cot = np.asarray(prediction_cotangent, dtype=float)
    if cot.shape != cache.activations[-1].shape:
        raise ValueError(
            f"cotangent shape {cot.shape} does not match predictions "
            f"{cache.activations[-1].shape}"
        )
    n_layers = len(params.weights)
    w_grads: list[np.ndarray] = [np.empty(0)] * n_layers
    b_grads: list[np.ndarray] = [np.empty(0)] * n_layers
    g = cot
    for l in reversed(range(n_layers)):
        if l == n_layers - 1:
            dz = g
        else:
            # g * (1 - act**2), built in place in the layer's dz buffer.
            dz = np.square(cache.activations[l], out=ws.dz[l])
            np.subtract(1.0, dz, out=dz)
            dz *= g
        a_prev = cache.inputs if l == 0 else cache.activations[l - 1]
        w_grads[l] = dz.T @ a_prev
        b_grads[l] = dz.sum(axis=0)
        if dz.shape[1] == 1:
            # An (n, 1) by (1, w) product is an outer product: one rounding
            # per entry either way, and multiply skips the matmul machinery.
            g = np.multiply(dz, params.weights[l], out=ws.input_grads[l])
        else:
            g = np.matmul(dz, params.weights[l], out=ws.input_grads[l])
    return MlpGrads(tuple(w_grads), tuple(b_grads)), g


def flatten(obj) -> np.ndarray:
    """Weights and biases concatenated layer by layer (W0, b0, W1, b1, ...)."""
    parts = []
    for w, b in zip(obj.weights, obj.biases):
        parts.append(np.asarray(w, dtype=float).ravel())
        parts.append(np.asarray(b, dtype=float).ravel())
    return np.concatenate(parts)


def unflatten(layer_dims, vec: np.ndarray, seed: int | None = None) -> MlpParams:
    dims = tuple(int(d) for d in layer_dims)
    vec = np.asarray(vec, dtype=float)
    weights = []
    biases = []
    pos = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(vec[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(vec[pos : pos + fan_out])
        pos += fan_out
    if pos != vec.size:
        raise ValueError(f"expected {pos} parameters for dims {dims}, got {vec.size}")
    return MlpParams(dims, tuple(weights), tuple(biases), seed)


def n_params(layer_dims) -> int:
    dims = tuple(int(d) for d in layer_dims)
    return sum(fo * fi + fo for fi, fo in zip(dims[:-1], dims[1:]))
