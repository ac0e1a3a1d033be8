"""MLP forward/backward against per-neuron and finite-difference oracles."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zo_meshopt.errors import ConfigError
from zo_meshopt.net import (
    DEFAULT_DIMS,
    MlpParams,
    Workspace,
    forward,
    backward,
    init_params,
    n_params,
)


def forward_oracle(params, x):
    """Independent scalar-loop forward: tanh hidden layers, identity output."""
    n = x.shape[0]
    out = np.empty((n, params.layer_dims[-1]))
    for r in range(n):
        act = x[r]
        for li, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = np.empty(w.shape[0])
            for o in range(w.shape[0]):
                s = b[o]
                for i in range(w.shape[1]):
                    s += w[o, i] * act[i]
                z[o] = s
            act = z if li == len(params.weights) - 1 else np.tanh(z)
        out[r] = act
    return out


def test_forward_matches_per_neuron_oracle():
    rng = np.random.default_rng(1)
    params = init_params((3, 5, 4, 2), seed=0)
    x = rng.standard_normal((7, 3))
    pred, _ = forward(params, x)
    assert pred.shape == (7, 2)
    assert np.allclose(pred, forward_oracle(params, x), rtol=0, atol=1e-13)


def test_init_glorot_bounds_and_determinism():
    params = init_params((4, 32, 1), seed=5)
    again = init_params((4, 32, 1), seed=5)
    for w, w2, (fi, fo) in zip(params.weights, again.weights, [(4, 32), (32, 1)]):
        limit = np.sqrt(6.0 / (fi + fo))
        assert np.all(np.abs(w) <= limit)
        assert np.array_equal(w, w2)
    for b in params.biases:
        assert np.all(b == 0.0)
    other = init_params((4, 32, 1), seed=6)
    assert not np.array_equal(params.weights[0], other.weights[0])


@pytest.mark.parametrize("dims,seed", [((4, 32, 32, 1), 0), ((3, 5, 4, 2), 11)])
def test_init_draws_each_layer_from_one_generator(dims, seed):
    """The initial net is pinned: layer after layer, weights are the next
    uniform(-limit, limit) draw of one default_rng(seed); biases are zero."""
    params = init_params(dims, seed)
    rng = np.random.default_rng(seed)
    for l, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        want = rng.uniform(-limit, limit, (fan_out, fan_in))
        assert np.array_equal(params.weights[l], want)
        assert np.array_equal(params.biases[l], np.zeros(fan_out))


def test_init_rejects_bad_dims():
    with pytest.raises(ConfigError):
        init_params((4,), seed=0)
    with pytest.raises(ConfigError):
        init_params((4, 0, 1), seed=0)


def test_backward_matches_finite_differences():
    """Parameter gradients of sum(g * pred) checked by central differences."""
    rng = np.random.default_rng(7)
    dims = (4, 8, 1)
    params = init_params(dims, seed=0)
    x = rng.standard_normal((16, 4))
    g = rng.standard_normal((16, 1))
    pred, cache = forward(params, x)
    grads, _ = backward(params, cache, g)

    theta = params.flat
    h = 1e-6
    worst = 0.0
    for k in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        fp = float(np.sum(g * forward(MlpParams(dims, tp), x)[0]))
        fm = float(np.sum(g * forward(MlpParams(dims, tm), x)[0]))
        fd = (fp - fm) / (2.0 * h)
        rel = abs(grads[k] - fd) / max(abs(grads[k]), abs(fd), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-4


def test_input_grads_match_finite_differences():
    rng = np.random.default_rng(9)
    dims = (3, 6, 2)
    params = init_params(dims, seed=2)
    x = rng.standard_normal((5, 3))
    g = rng.standard_normal((5, 2))
    _, cache = forward(params, x)
    _, input_grads = backward(params, cache, g)
    h = 1e-6
    for r in range(5):
        for c in range(3):
            xp, xm = x.copy(), x.copy()
            xp[r, c] += h
            xm[r, c] -= h
            fp = float(np.sum(g * forward(params, xp)[0]))
            fm = float(np.sum(g * forward(params, xm)[0]))
            fd = (fp - fm) / (2.0 * h)
            assert input_grads[r, c] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_backward_rejects_foreign_cache():
    params = init_params((2, 3, 1), seed=0)
    other = init_params((2, 3, 1), seed=1)
    x = np.zeros((4, 2))
    _, cache = forward(params, x)
    with pytest.raises(ValueError):
        backward(other, cache, np.ones((4, 1)))


def test_backward_rejects_bad_cotangent_shape():
    params = init_params((2, 3, 1), seed=0)
    x = np.zeros((4, 2))
    _, cache = forward(params, x)
    with pytest.raises(ValueError):
        backward(params, cache, np.ones((4, 2)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 3, 1), (4, 8, 8, 1), (3, 5, 2)]), st.integers(0, 100))
def test_blocks_are_views_of_flat(dims, seed):
    params = init_params(dims, seed=seed)
    assert params.flat.shape == (n_params(dims),)
    pos = 0
    for l, block in enumerate(params.blocks):
        assert block.shape == (dims[l + 1], dims[l] + 1)
        assert block.flags.c_contiguous
        assert np.shares_memory(block, params.flat)
        assert np.array_equal(block.ravel(), params.flat[pos : pos + block.size])
        assert np.array_equal(block, np.column_stack((params.weights[l], params.biases[l])))
        pos += block.size
    assert pos == params.flat.size
    again = MlpParams(dims, params.flat)
    assert again.flat is params.flat


@pytest.mark.parametrize("flat", [
    np.zeros(5),
    np.zeros(n_params((2, 3, 1)) + 1),
    np.zeros((1, n_params((2, 3, 1)))),
    np.full(n_params((2, 3, 1)), np.nan),
    np.concatenate((np.zeros(n_params((2, 3, 1)) - 1), [np.inf])),
], ids=["short", "long", "2d", "nan", "inf"])
def test_params_reject_wrong_length_or_non_finite_flat(flat):
    with pytest.raises(ValueError):
        MlpParams((2, 3, 1), flat)


def test_linear_region_gradient_exact():
    """Near zero input tanh is identity-like; a 1-layer net is affine, so
    gradients of sum(pred) are the inputs and ones exactly."""
    params = init_params((3, 1), seed=0)
    x = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])
    pred, cache = forward(params, x)
    grads, input_grads = backward(params, cache, np.ones((2, 1)))
    grads = MlpParams(params.layer_dims, grads)
    assert np.allclose(grads.weights[0], x.sum(axis=0, keepdims=True), atol=1e-14)
    assert np.allclose(grads.biases[0], np.array([2.0]), atol=1e-14)
    assert np.allclose(input_grads, np.tile(params.weights[0], (2, 1)), atol=1e-14)


def fresh_passes(params, x, cot):
    """Forward and backward in the workspace's feature-major operation
    order, with a fresh array per layer and per product."""
    last = len(params.weights) - 1
    x_t = np.ascontiguousarray(x.T)
    acts = []
    a = x_t
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = w @ a
        a += b[:, None]
        if l != last:
            np.tanh(a, out=a)
        acts.append(a)
    g = cot.T
    w_grads, b_grads = [None] * (last + 1), [None] * (last + 1)
    for l in reversed(range(last + 1)):
        dz = g if l == last else (1.0 - np.square(acts[l])) * g
        w_grads[l] = dz @ (x_t if l == 0 else acts[l - 1]).T
        b_grads[l] = dz.sum(axis=1)
        g = params.weights[l].T @ dz
    return acts[-1].T, w_grads, b_grads, g.T


@pytest.mark.parametrize("n", [7, 1089, 16641])
def test_reused_workspace_matches_fresh_allocation_bitwise(n):
    dims = (4, 32, 32, 1)
    rng = np.random.default_rng(n)
    ws = Workspace(dims, n)
    # Seed 1 builds its features in the workspace, as training does.
    for seed, built_in_place in ((0, False), (1, True)):
        params = init_params(dims, seed=seed)
        x = rng.standard_normal((n, 4))
        cot = rng.standard_normal((n, 1))
        if built_in_place:
            ws.features[...] = x
        pred, cache = forward(params, ws.features if built_in_place else x, ws)
        grads, input_grads = backward(params, cache, cot)
        ref_pred, ref_w, ref_b, ref_g = fresh_passes(params, x, cot)
        assert pred is ws.activations[-1]
        assert input_grads is ws.input_grads
        assert np.array_equal(pred, ref_pred)
        assert np.array_equal(input_grads, ref_g)
        grads = MlpParams(dims, grads)
        for got, want in zip(grads.weights + grads.biases, tuple(ref_w) + tuple(ref_b)):
            assert np.array_equal(got, want)
        own_pred, own_cache = forward(params, x)
        assert own_cache.workspace is not ws
        assert np.array_equal(own_pred, ref_pred)


def _float64_held(ws):
    """Float64 values in the distinct buffers a workspace owns."""
    arrays = []
    for value in vars(ws).values():
        arrays.extend(value if isinstance(value, tuple) else [value])
    bases = {}
    for arr in arrays:
        if isinstance(arr, np.ndarray):
            base = arr if arr.base is None else arr.base
            assert base.dtype == np.float64
            bases[id(base)] = base
    return sum(base.size for base in bases.values())


@pytest.mark.parametrize("n", [1, 1089])
def test_workspace_holds_no_more_than_the_batch_first_layout(n):
    # The batch-first layout held one features, activation, dz and
    # input-gradient buffer per layer: 4 + 65 + 64 + 68 = 201 values a row.
    ws = Workspace(DEFAULT_DIMS, n)
    assert _float64_held(ws) <= 201 * n
    for buf in (*ws.inputs_t, ws.features_t, *ws.activations_t, ws.input_grads_t, ws.g_t):
        assert buf.flags.c_contiguous


def test_backward_rejects_cache_of_refilled_workspace():
    params = init_params((2, 3, 1), seed=0)
    ws = Workspace(params.layer_dims, 4)
    _, stale = forward(params, np.zeros((4, 2)), ws)
    _, fresh = forward(params, np.ones((4, 2)), ws)
    with pytest.raises(ValueError, match="refilled"):
        backward(params, stale, np.ones((4, 1)))
    backward(params, fresh, np.ones((4, 1)))


def test_backward_consumes_its_cache_and_keeps_the_predictions():
    params = init_params(DEFAULT_DIMS, seed=0)
    x = np.random.default_rng(2).standard_normal((9, 4))
    pred, cache = forward(params, x)
    kept = pred.copy()
    backward(params, cache, np.ones((9, 1)))
    assert np.array_equal(pred, kept)
    with pytest.raises(ValueError, match="consumed"):
        backward(params, cache, np.ones((9, 1)))


def test_backward_without_input_grads_gives_the_same_parameter_grads():
    params = init_params(DEFAULT_DIMS, seed=4)
    rng = np.random.default_rng(4)
    x, cot = rng.standard_normal((33, 4)), rng.standard_normal((33, 1))
    full, input_grads = backward(params, forward(params, x)[1], cot)
    assert input_grads is not None
    lean, none = backward(params, forward(params, x)[1], cot, input_grads=False)
    assert none is None
    assert np.array_equal(lean, full)


@pytest.mark.parametrize("dims,n", [((2, 3, 1), 5), ((2, 4, 1), 4), ((2, 3, 2), 4)])
def test_forward_rejects_workspace_of_wrong_shape(dims, n):
    params = init_params((2, 3, 1), seed=0)
    with pytest.raises(ValueError, match="workspace"):
        forward(params, np.zeros((4, 2)), Workspace(dims, n))


@pytest.mark.parametrize("n", [1089, 16641])
def test_float32_passes_match_float64_to_relative_1e_5(n):
    """A float32 workspace runs the same passes as a float64 one: the
    predictions, parameter gradients and input gradients agree to 1e-5 in
    relative norm, about 84 float32 epsilons (1.19e-7; measured at most
    7e-7), and the parameter gradients are float64 whatever the
    workspace's dtype."""
    rng = np.random.default_rng(n)
    params = init_params(DEFAULT_DIMS, seed=3)
    x, cot = rng.standard_normal((n, 4)), rng.standard_normal((n, 1))
    results = {}
    for dtype in (np.float64, np.float32):
        pred, cache = forward(params, x, Workspace(DEFAULT_DIMS, n, dtype))
        grads, input_grads = backward(params, cache, cot)
        assert pred.dtype == dtype and input_grads.dtype == dtype
        assert grads.dtype == np.float64
        results[dtype] = (pred, grads, input_grads)
    for got, want in zip(results[np.float32], results[np.float64]):
        assert not np.array_equal(got, want)
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)

