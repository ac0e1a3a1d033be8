"""Zeroth-order VJP estimators: exactness on linear maps, sampling contracts."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zo_meshopt.errors import ConfigError, SolverError
from zo_meshopt.zo import (
    ESTIMATOR_KINDS,
    EstimatorSpec,
    draw_directions,
    zo_vjp,
)
from zo_scalar import estimator_stats, zo_grad_scalar


def linear_map(a, c):
    """Row-wise evaluate of m -> a m + c over a (b, D) block."""
    def evaluate(rows):
        return np.array([a @ m + c for m in rows])
    return evaluate


def at(evaluate, m0):
    """evaluate's output at the single input m0."""
    return evaluate(np.asarray(m0)[None])[0]


def counted(evaluate, calls):
    """evaluate, appending one entry to calls per row it evaluates."""
    def wrapped(rows):
        calls.extend([1] * len(rows))
        return evaluate(rows)
    return wrapped


def closed_form_estimate(a, v, directions, mu, b):
    """Oracle for linear maps: difference quotients collapse to <v, A u> exactly
    up to the mu cancellation, so the estimate is sum_j <v, A u_j> u_j / b."""
    acc = np.zeros(a.shape[1])
    for u in directions:
        acc += float(v @ (a @ u)) * u
    return acc / b


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_linear_map_matches_closed_form(kind):
    rng = np.random.default_rng(8)
    for trial in range(4):
        dim, out = 6, 5
        a = rng.standard_normal((out, dim))
        c = rng.standard_normal(out)
        v = rng.standard_normal(out)
        m0 = rng.standard_normal(dim)
        spec = EstimatorSpec(kind=kind, mu=1e-3, b=4, d=3, seed=100 + trial)
        evaluate = linear_map(a, c)
        calls = []
        est = zo_vjp(counted(evaluate, calls), m0, at(evaluate, m0), v, spec)
        oracle = closed_form_estimate(a, v, draw_directions(spec, dim), spec.mu, spec.b)
        assert len(calls) == 4
        assert np.allclose(est, oracle, rtol=0, atol=1e-9)


def test_coordinate_full_coverage_equals_scaled_transpose():
    """A full coordinate pass with b = D recovers A^T v / D without noise."""
    rng = np.random.default_rng(3)
    a = rng.integers(-4, 5, size=(5, 6)).astype(float)
    v = rng.integers(-4, 5, size=5).astype(float)
    m0 = np.zeros(6)
    spec = EstimatorSpec(kind="coordinate", mu=0.25, b=6, seed=5)
    evaluate = linear_map(a, np.zeros(5))
    est = zo_vjp(evaluate, m0, at(evaluate, m0), v, spec)
    assert np.array_equal(est, (a.T @ v) / 6.0)


def test_coordinate_directions_cycle_permutations():
    spec = EstimatorSpec(kind="coordinate", b=7, seed=9)
    directions = draw_directions(spec, 3)
    assert directions.shape == (7, 3)
    coords = [int(np.flatnonzero(u)[0]) for u in directions]
    # without replacement inside each full block of 3
    assert sorted(coords[0:3]) == [0, 1, 2]
    assert sorted(coords[3:6]) == [0, 1, 2]
    for u, xi in zip(directions, coords):
        e = np.zeros(3)
        e[xi] = 1.0
        assert np.array_equal(u, e)


def test_gauss_coord_single_subset_per_call():
    spec = EstimatorSpec(kind="gauss_coord", b=5, d=4, seed=21)
    directions = draw_directions(spec, 16)
    subset = np.flatnonzero(directions[0])
    assert subset.shape == (4,)
    # every row is non-zero on exactly the same d coordinates
    for u in directions:
        assert np.array_equal(np.flatnonzero(u), subset)


def test_gauss_coord_full_subset_matches_gaussian():
    for seed in (0, 1, 17):
        g = draw_directions(EstimatorSpec(kind="gaussian", b=3, seed=seed), 10)
        gc = draw_directions(EstimatorSpec(kind="gauss_coord", b=3, d=10, seed=seed), 10)
        assert np.array_equal(g, gc)


def spawned_reference_draws(kind, seed, dim, b, d):
    """Directions from the two generators of SeedSequence(seed).spawn(2):
    the first draws directions, the second the gauss_coord subset."""
    rng_dir, rng_sub = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    if kind == "coordinate":
        order = []
        while len(order) < b:
            order.extend(rng_dir.permutation(dim).tolist())
        return [np.eye(dim)[xi] for xi in order[:b]]
    if kind == "gaussian":
        return [rng_dir.standard_normal(dim) for _ in range(b)]
    mask = np.zeros(dim, dtype=bool)
    mask[rng_sub.permutation(dim)[:d]] = True
    return [np.where(mask, rng_dir.standard_normal(dim), 0.0) for _ in range(b)]


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
@pytest.mark.parametrize("seed", [0, 5, 123, 2**40])
def test_directions_match_spawned_streams(kind, seed):
    """The per-call streams are the children of SeedSequence(seed).spawn(2)."""
    for dim, b, d in ((3, 7, 2), (10, 3, 4), (49, 8, 16)):
        spec = EstimatorSpec(kind=kind, b=b, d=d, seed=seed)
        got = draw_directions(spec, dim)
        want = spawned_reference_draws(kind, seed, dim, b, d)
        assert got.shape == (b, dim)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_same_seed_same_estimate():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 5))
    v = rng.standard_normal(4)
    evaluate = linear_map(a, np.zeros(4))
    spec = EstimatorSpec(kind="gaussian", b=2, seed=33)
    e1 = zo_vjp(evaluate, np.zeros(5), at(evaluate, np.zeros(5)), v, spec)
    e2 = zo_vjp(evaluate, np.zeros(5), at(evaluate, np.zeros(5)), v, spec)
    assert np.array_equal(e1, e2)


def test_eval_count_is_exactly_b():
    calls = []
    a = np.eye(3)
    spec = EstimatorSpec(kind="gaussian", b=5, seed=2)
    base = a @ np.zeros(3)
    zo_vjp(counted(linear_map(a, np.zeros(3)), calls), np.zeros(3), base, np.ones(3), spec)
    assert len(calls) == 5


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 30), st.integers(-8, 8))
def test_estimate_linear_in_cotangent(seed, scale_pow):
    """Doubling v doubles the estimate exactly; powers of two stay bit-exact."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    v = rng.standard_normal(3)
    s = float(2.0 ** scale_pow)
    evaluate = linear_map(a, np.zeros(3))
    spec = EstimatorSpec(kind="gaussian", b=2, seed=seed)
    base = at(evaluate, np.zeros(4))
    e1 = zo_vjp(evaluate, np.zeros(4), base, v, spec)
    e2 = zo_vjp(evaluate, np.zeros(4), base, s * v, spec)
    assert np.array_equal(e2, s * e1)


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_estimator_stats_equals_repeated_scalar_calls(kind):
    """Trial i is zo_grad_scalar with seed spec.seed + i, bit for bit; a
    vector-valued objective is still rejected."""
    def f(x):
        return float(np.sin(x).sum() + 0.5 * x @ x)

    m0 = np.array([0.3, -1.2, 2.0, 0.7])
    spec = EstimatorSpec(kind=kind, mu=1e-3, b=3, d=2, seed=41)
    trials = 7
    mean, var = estimator_stats(f, m0, spec, trials)
    estimates = np.array(
        [zo_grad_scalar(f, m0, dataclasses.replace(spec, seed=spec.seed + i))
         for i in range(trials)]
    )
    assert np.array_equal(mean, estimates.mean(axis=0))
    assert np.array_equal(var, estimates.var(axis=0, ddof=1))
    with pytest.raises(ValueError):
        estimator_stats(lambda x: np.array([1.0, 2.0]), m0, spec, trials)


def test_scalar_gradient_quadratic():
    def f(x):
        return float(x[0] ** 2 + 3.0 * x[1])

    spec = EstimatorSpec(kind="coordinate", mu=1e-6, b=2, seed=4)
    g = zo_grad_scalar(f, np.array([2.0, -1.0]), spec)
    # both coordinates visited once, forward differences at mu
    assert g == pytest.approx(np.array([4.0, 3.0]) / 2.0, rel=1e-4)


def test_validation_rejects_bad_specs():
    with pytest.raises(ConfigError):
        EstimatorSpec(kind="nope").validate(4)
    with pytest.raises(ConfigError):
        EstimatorSpec(kind="gaussian", mu=0.0).validate(4)
    with pytest.raises(ConfigError):
        EstimatorSpec(kind="gaussian", b=0).validate(4)
    with pytest.raises(ConfigError, match="seed"):
        EstimatorSpec(kind="gaussian", seed=-1).validate(4)
    with pytest.raises(ConfigError):
        EstimatorSpec(kind="gauss_coord", d=0).validate(4)
    with pytest.raises(ConfigError):
        EstimatorSpec(kind="gauss_coord", d=5).validate(4)
    with pytest.raises(ConfigError):
        estimator_stats(lambda x: 0.0, np.zeros(2), EstimatorSpec(kind="gaussian"), 1)


def test_shape_mismatch_raises():
    a = np.eye(3)
    evaluate = linear_map(a, np.zeros(3))
    spec = EstimatorSpec(kind="gaussian", b=1, seed=0)
    with pytest.raises(ValueError):
        zo_vjp(evaluate, np.zeros(3), np.zeros(3), np.ones(2), spec)
    with pytest.raises(ValueError):
        zo_vjp(evaluate, np.zeros(3), np.zeros(2), np.ones(3), spec)


def test_evaluate_gets_one_block_and_must_return_one_row_per_input():
    a = np.eye(3)
    blocks = []

    def evaluate(rows):
        blocks.append(rows.copy())
        return linear_map(a, np.zeros(3))(rows)

    spec = EstimatorSpec(kind="gaussian", mu=1e-2, b=4, seed=3)
    m0 = np.array([0.1, 0.2, 0.3])
    zo_vjp(evaluate, m0, m0, np.ones(3), spec)
    assert len(blocks) == 1
    assert np.array_equal(blocks[0], m0 + spec.mu * draw_directions(spec, 3))
    with pytest.raises(ValueError, match="evaluate returned shape"):
        zo_vjp(lambda rows: rows[0], m0, m0, np.ones(3), spec)


def test_non_finite_output_raises():
    def evaluate(rows):
        return np.full((len(rows), 1), np.nan)

    spec = EstimatorSpec(kind="gaussian", b=1, seed=0)
    with pytest.raises(SolverError):
        zo_vjp(evaluate, np.zeros(2), np.zeros(1), np.ones(1), spec)


def test_spec_replace_keeps_fields():
    spec = EstimatorSpec(kind="gaussian", mu=2e-3, b=3, d=7, seed=11)
    moved = dataclasses.replace(spec, seed=12)
    assert moved.mu == 2e-3 and moved.b == 3 and moved.d == 7
    assert moved.seed == 12
