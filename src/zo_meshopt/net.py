"""Per-node correction network: a small tanh MLP with hand-written gradients.

The API is batch-first: features are (n, d0), predictions are (n, d_out)
and input gradients are (n, d0).  backward differentiates
sum(cotangent * predictions) exactly in the workspace's arithmetic.

Parameters are float64 (``MlpParams.flat``), and so are the parameter
gradients ``backward`` returns.  The passes themselves run in the compute
dtype of their ``Workspace``, float64 unless it is built with another:
forward casts each ``[W | b]`` block to that dtype once per pass, and the
features, activations, cotangent and input gradients live in it.  A
float32 workspace therefore trains float64 master weights from float32
passes, the scheme of mixed-precision training (Micikevicius et al., ICLR
2018).

Every pass writes into a ``Workspace`` whose buffers are feature-major: one
C-contiguous (width, n) array per layer, so the output layer's outer
product and the bias-gradient sums run along contiguous rows.  Each layer's
input buffer ends in a row of ones, so forward computes a layer as one
product with its parameter block ``[W | b]`` (a view of ``MlpParams.flat``,
or its cast copy) and no separate bias pass.  The batch-first arrays the
API takes and returns are transposed views of those buffers, made once per
workspace, and a training run that keeps one workspace allocates no
per-layer (width, n) array per step.

Aliasing rule: the predictions ``forward`` returns, and the input gradients
``backward`` returns, are views into the workspace and live only until its
next ``forward``; copy them to keep them.  ``backward`` builds each hidden
layer's dz over that layer's activations, so after it only the predictions
and the features survive in the workspace.  ``backward`` refuses a cache
whose workspace a later ``forward`` has refilled, or that an earlier
``backward`` has consumed.  ``forward`` without a workspace builds a fresh
one, so its results are never overwritten by another forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

DEFAULT_DIMS = (4, 32, 32, 1)


@dataclass(frozen=True)
class MlpParams:
    """The network's parameters as one float64 vector, ``flat``.

    ``flat`` holds the layers' ``[W_l | b_l]`` blocks in turn, each row-major,
    so row o of layer l is W_l[o, :] followed by b_l[o].  ``blocks[l]`` is
    the C-contiguous (dims[l + 1], dims[l] + 1) view of layer l's block, and
    ``weights[l]`` and ``biases[l]`` are views of its columns.
    """

    layer_dims: tuple[int, ...]
    flat: np.ndarray
    blocks: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"layer_dims must hold positive widths, got {dims}")
        flat = np.ascontiguousarray(self.flat, dtype=float)
        if flat.shape != (n_params(dims),):
            raise ValueError(
                f"expected {n_params(dims)} parameters for dims {dims}, got shape {flat.shape}"
            )
        if not np.all(np.isfinite(flat)):
            raise ValueError("parameters contain non-finite entries")
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "blocks", _blocks(dims, flat))

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        """(fan_out, fan_in) views, one per layer."""
        return tuple(block[:, :-1] for block in self.blocks)

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return tuple(block[:, -1] for block in self.blocks)


def _blocks(dims: tuple[int, ...], flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (fan_out, fan_in + 1) views of flat, layer after layer."""
    blocks = []
    pos = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        size = fan_out * (fan_in + 1)
        blocks.append(flat[pos : pos + size].reshape(fan_out, fan_in + 1))
        pos += size
    return tuple(blocks)


class Workspace:
    """Reusable buffers for forward and backward on n rows, all of the
    compute dtype ``dtype`` (float64 by default).

    Feature-major buffers, each C-contiguous.  ``inputs_t[l]`` is layer l's
    input, (dims[l] + 1, n), whose last row holds ones, so that layer l is
    the one product ``[W_l | b_l] @ inputs_t[l]``.  ``features_t``
    (dims[0], n) is the value rows of ``inputs_t[0]``, and
    ``activations_t[l]`` (dims[l + 1], n) those of ``inputs_t[l + 1]``; the
    output layer's, the last, is a buffer of its own with no ones row.
    ``input_grads_t`` is (dims[0], n), and ``g_t`` (widest hidden layer, n)
    holds the gradient backward passes down a layer.  Backward builds a
    hidden layer's dz over that layer's activations; the output layer's dz
    is the cotangent itself.  ``features``, ``activations`` and
    ``input_grads`` are the batch-first transposed views; a caller may build
    its (n, dims[0]) inputs in ``features``.  ``generation`` counts the
    passes written, forward and backward alike.
    """

    def __init__(self, layer_dims, n: int, dtype=np.float64):
        dims = tuple(int(d) for d in layer_dims)
        self.layer_dims = dims
        self.n = int(n)
        self.dtype = np.dtype(dtype)
        hidden = max(dims[1:-1], default=0)
        self.inputs_t = tuple(np.ones((d + 1, n), self.dtype) for d in dims[:-1])
        self.features_t = self.inputs_t[0][:-1]
        self.activations_t = (
            *(x[:-1] for x in self.inputs_t[1:]),
            np.empty((dims[-1], n), self.dtype),
        )
        self.input_grads_t = np.empty((dims[0], n), self.dtype)
        self.g_t = np.empty((hidden, n), self.dtype)
        self.features = self.features_t.T
        self.activations = tuple(a.T for a in self.activations_t)
        self.input_grads = self.input_grads_t.T
        self.generation = 0


@dataclass(frozen=True)
class ForwardCache:
    params: MlpParams
    workspace: Workspace
    generation: int
    blocks: tuple[np.ndarray, ...]  # params.blocks in the workspace's dtype


def init_params(layer_dims, seed: int) -> MlpParams:
    """Glorot-uniform weights (limit sqrt(6 / (fan_in + fan_out))), drawn
    layer after layer from one generator, and zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"layer_dims must hold positive widths, got {dims}")
    rng = np.random.default_rng(seed)
    flat = np.zeros(n_params(dims))
    for fan_in, fan_out, block in zip(dims[:-1], dims[1:], _blocks(dims, flat)):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        block[:, :-1] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return MlpParams(dims, flat)


def forward(
    params: MlpParams, features: np.ndarray, out: Workspace | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """tanh hidden layers, identity output; returns (predictions, cache).

    Writes every layer into ``out`` (a fresh float64 workspace when None);
    the returned predictions are ``out.activations[-1]``.  Features not
    built in ``out.features`` are copied there first, cast to its dtype, so
    the results do not depend on the caller's memory layout.
    """
    x = np.asarray(features)
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
    if x is not out.features:
        np.copyto(out.features, x)
    out.generation += 1
    blocks = tuple(wb.astype(out.dtype, copy=False) for wb in params.blocks)
    last = len(blocks) - 1
    for l, wb in enumerate(blocks):
        a = np.matmul(wb, out.inputs_t[l], out=out.activations_t[l])
        if l != last:
            np.tanh(a, out=a)
    return out.activations[-1], ForwardCache(params, out, out.generation, blocks)


def backward(
    params: MlpParams,
    cache: ForwardCache,
    prediction_cotangent: np.ndarray,
    *,
    input_grads: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Reverse-mode gradients of sum(cotangent * predictions).

    The cotangent is cast to the workspace's dtype.  Returns the parameter
    gradients, one fresh float64 vector laid out as ``params.flat``, and
    per-row input gradients (n, d0); the latter are
    ``cache.workspace.input_grads``, in its dtype, or None with
    ``input_grads=False``, which skips their product.  Consumes the cache:
    the hidden activations are overwritten, and a second backward on it
    raises ValueError.
    """
    if cache.params is not params:
        raise ValueError("cache was produced by a different forward pass")
    ws = cache.workspace
    if cache.generation != ws.generation:
        raise ValueError(
            "cache is stale: its workspace was refilled by a later forward pass "
            "or consumed by a backward pass"
        )
    cot = np.asarray(prediction_cotangent, dtype=ws.dtype)
    if cot.shape != ws.activations[-1].shape:
        raise ValueError(
            f"cotangent shape {cot.shape} does not match predictions "
            f"{ws.activations[-1].shape}"
        )
    ws.generation += 1
    grads = np.empty_like(params.flat)
    grad_blocks = _blocks(params.layer_dims, grads)
    n_layers = len(params.blocks)
    dz = cot.T
    for l in reversed(range(n_layers)):
        w = cache.blocks[l][:, :-1]
        if l != n_layers - 1:
            # (1 - act**2) * g, built in place over the activations: the
            # layer above's weight gradient was their last reader.
            dz = np.square(ws.activations_t[l], out=ws.activations_t[l])
            np.subtract(1.0, dz, out=dz)
            dz *= g
        a_prev = ws.features_t if l == 0 else ws.activations_t[l - 1]
        np.matmul(dz, a_prev.T, out=grad_blocks[l][:, :-1])
        # Summed in dz's dtype, then stored: a float32 sum written straight
        # into the float64 column takes a buffered casting loop, 3x slower.
        grad_blocks[l][:, -1] = dz.sum(axis=1)
        if l == 0 and not input_grads:
            break
        g_out = ws.input_grads_t if l == 0 else ws.g_t[: w.shape[1]]
        if dz.shape[0] == 1:
            # A (w, 1) by (1, n) product is an outer product: one rounding
            # per entry either way, and multiply skips the matmul machinery.
            g = np.multiply(w.T, dz, out=g_out)
        else:
            g = np.matmul(w.T, dz, out=g_out)
    return grads, ws.input_grads if input_grads else None


def n_params(layer_dims) -> int:
    dims = tuple(int(d) for d in layer_dims)
    return sum(fo * fi + fo for fi, fo in zip(dims[:-1], dims[1:]))
