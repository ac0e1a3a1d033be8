"""Mesh containers, feasibility projection, and nearest-neighbour transfer."""
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import zo_meshopt.grid as grid_mod
from zo_meshopt.grid import (
    DEFAULT_MIN_GAP,
    Field,
    TensorMesh,
    _project_lines,
    _project_lines_loop,
    init_coarse_from_fine,
    mesh_to_params,
    nearest_upsample,
    params_to_mesh,
    params_to_meshes,
    read_field_csv,
    uniform_mesh,
    upsample_adjoint,
    write_field_csv,
    write_text_atomic,
)


def brute_nearest_index(lines, target):
    """Independent oracle: argmin of |line - target|, ties to the smaller index."""
    d = np.abs(lines - target)
    return int(np.argmin(d))


def test_uniform_mesh_lines():
    m = uniform_mesh(5)
    assert np.array_equal(m.x_lines, np.linspace(0.0, 1.0, 5))
    assert np.array_equal(m.y_lines, np.linspace(0.0, 1.0, 5))
    assert m.shape == (5, 5)
    assert m.n_nodes == 25
    assert m.n_params == 6


def test_mesh_rejects_bad_boundaries():
    good = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        TensorMesh(np.array([0.1, 0.5, 1.0]), good)
    with pytest.raises(ValueError):
        TensorMesh(good, np.array([0.0, 0.5, 0.9]))
    with pytest.raises(ValueError):
        TensorMesh(np.array([0.0, 0.5, 0.5, 1.0]), good)


def test_mesh_rejects_tight_gap():
    lines = np.array([0.0, 0.5, 0.5 + 0.5 * DEFAULT_MIN_GAP, 1.0])
    with pytest.raises(ValueError):
        TensorMesh(lines, np.linspace(0.0, 1.0, 4))


def test_mesh_arrays_read_only():
    m = uniform_mesh(4)
    with pytest.raises(ValueError):
        m.x_lines[1] = 0.3


def test_node_coords_row_major():
    m = TensorMesh(np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.5, 1.0]))
    xs, ys = m.node_coords
    assert np.array_equal(xs, np.array([0.0, 0.25, 1.0] * 3))
    assert np.array_equal(ys, np.repeat([0.0, 0.5, 1.0], 3))
    assert m.node_coords is m.node_coords
    assert not xs.flags.writeable and not ys.flags.writeable


def test_params_roundtrip():
    m = uniform_mesh(6)
    p = mesh_to_params(m)
    assert p.shape == (8,)
    m2 = params_to_mesh(m, p)
    assert np.array_equal(m2.x_lines, m.x_lines)
    assert np.array_equal(m2.y_lines, m.y_lines)


def test_projection_sorts_and_clamps():
    m = uniform_mesh(5)
    p = np.array([0.9, -2.0, 0.4, 0.7, 3.0, 0.2])
    m2 = params_to_mesh(m, p)
    for lines in (m2.x_lines, m2.y_lines):
        assert lines[0] == 0.0 and lines[-1] == 1.0
        assert np.all(np.diff(lines) >= m.s_min)


def test_projection_rejects_non_finite():
    m = uniform_mesh(5)
    p = mesh_to_params(m)
    p[2] = np.nan
    with pytest.raises(ValueError):
        params_to_mesh(m, p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-2.0, 3.0, allow_nan=False), min_size=14, max_size=14),
       st.integers(0, 10))
def test_projection_idempotent_and_feasible(vals, _):
    m = uniform_mesh(9)
    p = np.array(vals)
    m1 = params_to_mesh(m, p)
    assert np.all(np.diff(m1.x_lines) >= m.s_min)
    assert np.all(np.diff(m1.y_lines) >= m.s_min)
    m2 = params_to_mesh(m, mesh_to_params(m1))
    assert np.array_equal(m1.x_lines, m2.x_lines)
    assert np.array_equal(m1.y_lines, m2.y_lines)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 12), st.integers(3, 12), st.integers(1, 8),
       st.floats(1e-5, 0.5), st.integers(0, 2**32 - 1))
def test_params_to_meshes_equals_row_wise_projection(nx, ny, rows, scale, seed):
    """Each row of a block projects to the mesh its own params_to_mesh call
    and its own clamping sweeps give, lines crossing or crowded included."""
    rng = np.random.default_rng(seed)
    m = uniform_mesh(nx, ny)
    block = mesh_to_params(m) + scale * rng.standard_normal((rows, m.n_params))
    block[0, 1:] = block[0, 0]  # every line of row 0 on one spot
    meshes = params_to_meshes(m, block)
    assert len(meshes) == rows
    n_xi = nx - 2
    for got, p in zip(meshes, block):
        one = params_to_mesh(m, p)
        swept_x = _project_lines_loop(p[:n_xi], m.s_min)
        swept_y = _project_lines_loop(p[n_xi:], m.s_min)
        for lines, want in ((got.x_lines, one.x_lines), (got.x_lines, swept_x),
                            (got.y_lines, one.y_lines), (got.y_lines, swept_y)):
            assert lines.tobytes() == want.tobytes()


def test_params_to_meshes_rejects_bad_blocks():
    m = uniform_mesh(5)
    with pytest.raises(ValueError, match="rows of 6"):
        params_to_meshes(m, mesh_to_params(m))
    block = np.tile(mesh_to_params(m), (3, 1))
    block[1, 4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        params_to_meshes(m, block)


def test_projection_crowded_top_and_bottom():
    # all candidates piled on one side must fan out at exactly legal gaps
    m = uniform_mesh(9)
    for fill in (1.2, -0.5, 0.99997):
        p = np.full(14, fill)
        m1 = params_to_mesh(m, p)
        assert np.all(np.diff(m1.x_lines) >= m.s_min)
        m2 = params_to_mesh(m, mesh_to_params(m1))
        assert np.array_equal(m1.x_lines, m2.x_lines)


def _ulps(x, n):
    """x moved n units in the last place (down for negative n)."""
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return x


@st.composite
def interior_lines(draw):
    """Unsorted interior lines stacked from one boundary, with gaps at s_min,
    a few ulps either side of it, or anywhere, plus stray values; too many
    lines for the gap make the input infeasible.  Half the cases draw no gap
    below s_min and no stray, so they mostly take the fast path."""
    s_min = draw(st.sampled_from([DEFAULT_MIN_GAP, 1e-3, 0.05, 0.2, 0.25, 1.0 / 3.0]))
    from_top = draw(st.booleans())
    lowest_ulps = draw(st.sampled_from([-3, 0]))
    kinds = ["tight", "tight", "free", "free"] + ["stray"] * (lowest_ulps < 0)
    pos = 1.0 if from_top else 0.0
    lines = []
    for _ in range(draw(st.integers(0, min(12, int(1.0 / s_min))))):
        kind = draw(st.sampled_from(kinds))
        if kind == "stray":
            lines.append(draw(st.floats(-0.5, 1.5)))
            continue
        if kind == "tight":
            gap = _ulps(s_min, draw(st.integers(lowest_ulps, 3)))
        else:
            least = 0.0 if lowest_ulps < 0 else s_min
            gap = draw(st.floats(least, least + 0.15))
        pos = pos - gap if from_top else pos + gap
        lines.append(pos)
    order = draw(st.permutations(range(len(lines))))
    return np.array([lines[i] for i in order], dtype=float), s_min


@settings(max_examples=500, deadline=None)
@given(interior_lines())
@example((np.array([0.5, 0.25, 0.75]), 0.25))  # exact fit: the loop refuses it
def test_projection_fast_path_matches_loop(case):
    interior, s_min = case
    try:
        want = _project_lines_loop(interior, s_min)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            _project_lines(interior[None], s_min)
        return
    assert _project_lines(interior[None], s_min)[0].tobytes() == want.tobytes()


def test_feasible_lines_skip_the_sweep(monkeypatch):
    def no_sweep(interior, s_min):
        raise AssertionError("feasible lines went through the sweep")

    monkeypatch.setattr(grid_mod, "_project_lines_loop", no_sweep)
    interior = np.array([0.75, DEFAULT_MIN_GAP, 0.5, 0.9])
    assert np.array_equal(
        _project_lines(interior[None], DEFAULT_MIN_GAP)[0],
        [0.0, DEFAULT_MIN_GAP, 0.5, 0.75, 0.9, 1.0],
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_non_finite_lines(bad):
    good = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="non-finite"):
        TensorMesh(np.array([0.0, 0.5, bad, 1.0]), good)
    with pytest.raises(ValueError, match="non-finite"):
        TensorMesh(good, np.array([0.0, bad, 1.0]))


def test_write_text_atomic_replaces_and_cleans_up(tmp_path):
    path = tmp_path / "out.csv"
    write_text_atomic(path, "old\n")
    write_text_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    with pytest.raises(TypeError):
        write_text_atomic(path, None)
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_init_coarse_from_fine_subsamples():
    c = init_coarse_from_fine(33, 33, 9, 9)
    assert np.array_equal(c.x_lines, np.linspace(0.0, 1.0, 9))
    from zo_meshopt.errors import ConfigError
    with pytest.raises(ConfigError):
        init_coarse_from_fine(33, 33, 7, 7)
    with pytest.raises(ConfigError):
        init_coarse_from_fine(9, 9, 33, 33)


def test_nearest_upsample_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(20):
        cx = np.sort(rng.uniform(0.05, 0.95, 3))
        cy = np.sort(rng.uniform(0.05, 0.95, 2))
        coarse = TensorMesh(np.concatenate([[0.0], cx, [1.0]]),
                            np.concatenate([[0.0], cy, [1.0]]))
        fine = uniform_mesh(17)
        vals = rng.standard_normal(coarse.n_nodes)
        up = nearest_upsample(coarse, Field(vals, coarse.shape), fine)
        nxc = coarse.shape[0]
        for j, yv in enumerate(fine.y_lines):
            for i, xv in enumerate(fine.x_lines):
                ic = brute_nearest_index(coarse.x_lines, xv)
                jc = brute_nearest_index(coarse.y_lines, yv)
                assert up.values[j * 17 + i] == vals[jc * nxc + ic]


def test_nearest_upsample_tie_prefers_lower_index():
    coarse = TensorMesh(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 1.0]))
    fine = uniform_mesh(5)
    vals = np.arange(9.0)
    up = nearest_upsample(coarse, Field(vals, coarse.shape), fine)
    # fine x=0.25 is equidistant from coarse x=0.0 and x=0.5
    assert up.values[1] == vals[0]
    assert up.values[5 * 1] == vals[0]


def test_upsample_adjoint_identity():
    """<U v, w> must equal <v, U^T w> exactly for the scatter/gather pair."""
    rng = np.random.default_rng(7)
    coarse = uniform_mesh(5)
    fine = uniform_mesh(17)
    for _ in range(100):
        v = rng.standard_normal(coarse.n_nodes)
        w = rng.standard_normal(fine.n_nodes)
        up = nearest_upsample(coarse, Field(v, coarse.shape), fine)
        down = upsample_adjoint(coarse, fine, Field(w, fine.shape))
        lhs = float(up.values @ w)
        rhs = float(v @ down.values)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 12), st.integers(3, 12), st.integers(9, 40), st.integers(9, 40),
    st.integers(0, 2**32 - 1),
)
def test_upsample_adjoint_matches_add_at_bitwise(ncx, ncy, nfx, nfy, seed):
    """Random coarse and fine lines and cotangents spanning 20 decades, so any
    change in summation order would show in the last bits."""
    rng = np.random.default_rng(seed)

    def lines(k):
        return np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, k - 2)), [1.0]])

    coarse = TensorMesh(lines(ncx), lines(ncy), s_min=1e-9)
    fine = TensorMesh(lines(nfx), lines(nfy), s_min=1e-9)
    values = rng.standard_normal(fine.n_nodes) * 10.0 ** rng.uniform(-10, 10, fine.n_nodes)
    ix = grid_mod._nearest_line_index(coarse.x_lines, fine.x_lines)
    iy = grid_mod._nearest_line_index(coarse.y_lines, fine.y_lines)
    want = np.zeros(coarse.n_nodes)
    np.add.at(want, (iy[:, None] * ncx + ix[None, :]).ravel(), values)
    got = upsample_adjoint(coarse, fine, Field(values, fine.shape))
    assert np.array_equal(got.values, want)


def test_upsample_adjoint_counts_hits():
    coarse = uniform_mesh(3)
    fine = uniform_mesh(9)
    ones = Field(np.ones(fine.n_nodes), fine.shape)
    down = upsample_adjoint(coarse, fine, ones)
    assert down.values.sum() == fine.n_nodes
    assert np.all(down.values > 0)


def test_field_grid_views():
    f = Field(np.arange(9.0), (3, 3))
    g = f.as_grid()
    assert g.shape == (3, 3)
    assert g[1, 2] == 5.0
    f2 = Field.from_grid(g)
    assert np.array_equal(f2.values, f.values)


def test_field_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    f = Field(rng.standard_normal(16), (4, 4))
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    f2 = read_field_csv(path)
    assert f2.mesh_shape == (4, 4)
    assert np.array_equal(f2.values, f.values)
