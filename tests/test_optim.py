"""Adam update rule traced against a hand recurrence."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zo_meshopt.optim import AdamState, NonFiniteGradient, adam_step, init_adam


def test_three_steps_match_manual_recurrence():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    state = init_adam(2, lr)
    p = np.array([1.0, -2.0])
    grads = [np.array([0.5, 1.0]), np.array([-0.25, 2.0]), np.array([0.0, -1.0])]

    m = np.zeros(2)
    v = np.zeros(2)
    p_ref = p.copy()
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p_ref = p_ref - lr * m_hat / (np.sqrt(v_hat) + eps)
        state, p = adam_step(state, p, g)
        assert np.array_equal(p, p_ref)
        assert state.t == t
    assert np.array_equal(state.m, m)
    assert np.array_equal(state.v, v)


def test_first_step_is_signed_lr():
    """With bias correction the first update is lr * sign(g) up to eps."""
    state = init_adam(3, lr=0.01)
    g = np.array([5.0, -0.003, 2e-6])
    _, p = adam_step(state, np.zeros(3), g)
    assert np.allclose(p, -0.01 * np.sign(g), rtol=1e-2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6),
       st.floats(1e-6, 1.0))
def test_step_magnitude_bounded(gs, lr):
    g = np.array(gs)
    state = init_adam(g.size, lr=lr)
    _, p = adam_step(state, np.zeros(g.size), g)
    # |update| <= lr / (1 - eps-ish); bias-corrected first step cannot exceed lr much
    assert np.all(np.abs(p) <= lr * (1.0 + 1e-6) + 1e-300)


def test_eps_outside_sqrt():
    """Distinguishes p - lr*m/(sqrt(v)+eps) from p - lr*m/sqrt(v+eps).

    With g uniform and tiny, the two conventions differ measurably."""
    g = np.array([1e-9])
    state = init_adam(1, lr=1.0)
    _, p = adam_step(state, np.zeros(1), g)
    outside = -1.0 * 1e-9 / (1e-9 + 1e-8)
    inside = -1.0 * 1e-9 / np.sqrt((1e-9) ** 2 + 1e-8)
    assert p[0] == pytest.approx(outside, rel=1e-9)
    assert abs(p[0] - inside) > 1e-3 * abs(p[0])


def test_non_finite_gradient_rejected():
    state = init_adam(2, lr=0.1)
    with pytest.raises(NonFiniteGradient):
        adam_step(state, np.zeros(2), np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteGradient):
        adam_step(state, np.zeros(2), np.array([np.inf, 0.0]))


def test_shape_mismatch_rejected():
    state = init_adam(2, lr=0.1)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(3), np.zeros(3))


def test_state_not_mutated_in_place():
    state = init_adam(2, lr=0.1)
    m0 = state.m.copy()
    new_state, _ = adam_step(state, np.zeros(2), np.ones(2))
    assert np.array_equal(state.m, m0)
    assert state.t == 0
    assert new_state is not state


def test_init_rejects_bad_args():
    with pytest.raises(ValueError):
        init_adam(0, lr=0.1)
    with pytest.raises(ValueError):
        init_adam(3, lr=0.0)


@pytest.mark.parametrize("name,value", [
    ("lr", float("nan")),
    ("lr", float("inf")),
    ("lr", -1e-3),
])
def test_init_rejects_bad_hyperparameters(name, value):
    with pytest.raises(ValueError, match=name):
        init_adam(3, **{"lr": 0.1, name: value})


def test_separate_states_independent():
    s1 = init_adam(2, lr=0.1)
    s2 = init_adam(2, lr=0.001)
    s1, _ = adam_step(s1, np.zeros(2), np.ones(2))
    assert s2.t == 0
    assert np.all(s2.m == 0.0)
