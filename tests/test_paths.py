"""Scan-order geometry: worked examples, invariants, and round trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plainscan import paths as P
from plainscan.errors import ConfigError, ShapeError
from plainscan.paths import Direction
from plainscan.tensor import Tensor

B, R, L, D, U = (
    Direction.BEGIN,
    Direction.RIGHT,
    Direction.LEFT,
    Direction.DOWN,
    Direction.UP,
)


def test_2x2_worked_examples():
    ps = P.generate_continuous_paths(2, 2)
    row, col, row_r, col_r = ps.paths
    assert row.order.tolist() == [0, 1, 3, 2]
    assert row.directions.tolist() == [B, R, D, L]
    assert col.order.tolist() == [0, 2, 3, 1]
    assert col.directions.tolist() == [B, D, R, U]
    assert row_r.order.tolist() == [2, 3, 1, 0]
    assert row_r.directions.tolist() == [B, R, U, L]
    assert col_r.order.tolist() == [1, 3, 2, 0]
    assert col_r.directions.tolist() == [B, D, L, U]


def test_3x3_row_snake():
    ps = P.generate_continuous_paths(3, 3)
    assert ps.paths[0].order.tolist() == [0, 1, 2, 5, 4, 3, 6, 7, 8]
    assert ps.paths[0].directions.tolist() == [B, R, R, D, L, L, D, R, R]


def test_single_row_and_column_grids():
    ps = P.generate_continuous_paths(1, 4)
    assert ps.paths[0].order.tolist() == [0, 1, 2, 3]
    assert ps.paths[0].directions.tolist() == [B, R, R, R]
    # the column snake over a 1-row grid degenerates to the same traversal
    assert ps.paths[1].order.tolist() == [0, 1, 2, 3]
    ps = P.generate_continuous_paths(3, 1)
    assert ps.paths[0].order.tolist() == [0, 1, 2]
    assert ps.paths[0].directions.tolist() == [B, D, D]
    one = P.generate_continuous_paths(1, 1)
    assert all(p.directions.tolist() == [B] for p in one.paths)


def _check_invariants(ps, H, W):
    n = H * W
    row_order = ps.paths[0].order
    col_order = ps.paths[1].order
    assert ps.paths[2].order.tolist() == row_order[::-1].tolist()
    assert ps.paths[3].order.tolist() == col_order[::-1].tolist()
    for p, inv in zip(ps.paths, ps.inverse_orders):
        assert sorted(p.order.tolist()) == list(range(n))  # permutation
        assert p.is_continuous()
        assert p.directions[0] == B
        cells = p.cells()
        deltas = np.diff(cells, axis=0)
        assert np.all(np.abs(deltas).sum(axis=1) == 1)  # Manhattan adjacency
        for step in range(1, n):
            assert p.directions[step] == P._DELTAS[tuple(deltas[step - 1])]
        assert np.all(p.order[inv] == np.arange(n))


@pytest.mark.parametrize("H,W", [(1, 1), (1, 7), (5, 1), (2, 3), (4, 4), (7, 5)])
def test_continuous_invariants_examples(H, W):
    _check_invariants(P.generate_continuous_paths(H, W), H, W)


@given(st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_continuous_invariants_property(H, W):
    _check_invariants(P.generate_continuous_paths(H, W), H, W)


def _snake_loop(H, W, by_rows):
    """A snake order step by step: the reference for the array form."""
    order = []
    for outer in range(H if by_rows else W):
        inner = range(W if by_rows else H)
        for i in inner if outer % 2 == 0 else reversed(inner):
            order.append(outer * W + i if by_rows else i * W + outer)
    return order


@pytest.mark.parametrize("H,W", [(1, 1), (1, 6), (4, 1), (3, 4), (6, 5)])
def test_snake_orders_match_the_loop_reference(H, W):
    ps = P.generate_continuous_paths(H, W)
    assert ps.paths[0].order.tolist() == _snake_loop(H, W, by_rows=True)
    assert ps.paths[1].order.tolist() == _snake_loop(H, W, by_rows=False)
    for p, inv in zip(ps.paths, ps.inverse_orders):
        assert p.order.dtype == p.directions.dtype == inv.dtype == np.int64


def test_generation_is_deterministic():
    a = P.generate_continuous_paths(6, 9)
    b = P.generate_continuous_paths(6, 9)
    for pa, pb in zip(a.paths, b.paths):
        assert np.array_equal(pa.order, pb.order)
        assert np.array_equal(pa.directions, pb.directions)


def test_raster_3x3_discontinuities_and_labels():
    ps = P.generate_raster_paths(3, 3)
    row, col, row_r, col_r = ps.paths
    assert row.order.tolist() == list(range(9))
    assert row.discontinuities() == [3, 6]  # row wraps break adjacency
    assert not row.is_continuous()
    assert row.directions.tolist() == [B, R, R, R, R, R, R, R, R]
    assert col.discontinuities() == [3, 6]
    assert col.directions.tolist() == [B, D, D, D, D, D, D, D, D]
    assert row_r.directions[0] == B
    assert row_r.discontinuities() == [3, 6]
    assert all(d == L for d in row_r.directions[1:])
    assert all(d == U for d in col_r.directions[1:])


def test_unlabelled_step_without_wrap_labels_names_its_position():
    # raster orders given as continuous ones: the first row wrap is at step 3
    orders = [p.order for p in P.generate_raster_paths(3, 3).paths]
    with pytest.raises(ConfigError, match="non-adjacent step at position 3 "):
        P._pathset(orders, 3, 3)


def test_raster_single_row_is_continuous():
    ps = P.generate_raster_paths(1, 5)
    assert ps.paths[0].is_continuous()


def test_bad_extents_and_pathset_arity():
    with pytest.raises(ConfigError):
        P.generate_continuous_paths(0, 3)
    with pytest.raises(ConfigError):
        P.generate_raster_paths(2, 0)
    for H, W, bad in ((2.0, 3, 2.0), (2, True, True), (2, np.float64(3), np.float64(3))):
        with pytest.raises(ConfigError, match=re.escape(f"must be an integer, got {bad!r}")):
            P.generate_continuous_paths(H, W)
    assert P.generate_raster_paths(np.int32(2), 3).height == 2
    p = P.generate_continuous_paths(2, 2).paths[0]
    with pytest.raises(ConfigError, match="exactly 4"):
        P.PathSet((p, p), (None, None))


def test_apply_invert_roundtrip_ndarray_and_tensor():
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((3, 5, 4))
    ps = P.generate_continuous_paths(3, 5)
    for p, inv in zip(ps.paths, ps.inverse_orders):
        seq = P.apply_path(grid, p)
        assert seq.shape == (15, 4)
        back = P.invert_path(seq, p, inv)
        assert np.array_equal(back, grid)
        # same through the gradient tape
        t_seq = P.apply_path(Tensor(grid.copy()), p)
        t_back = P.invert_path(t_seq, p, inv)
        assert np.array_equal(t_back.data, grid)


def test_apply_path_scan_order_semantics():
    # token at scan step k must be the grid value at the k-th path cell
    grid = np.arange(6.0).reshape(2, 3, 1)
    p = P.generate_continuous_paths(2, 3).paths[0]
    seq = P.apply_path(grid, p)
    assert seq[:, 0].tolist() == [0.0, 1.0, 2.0, 5.0, 4.0, 3.0]


def test_shape_mismatches():
    ps = P.generate_continuous_paths(2, 2)
    with pytest.raises(ShapeError):
        P.apply_path(np.zeros((3, 3, 1)), ps.paths[0])
    with pytest.raises(ShapeError, match="length"):
        P.invert_path(np.zeros((5, 1)), ps.paths[0], ps.inverse_orders[0])


def test_render_ascii_and_csv_rows():
    ps = P.generate_continuous_paths(2, 2)
    assert P.render_ascii(ps.paths[0]) == "0 1\n3 2"
    rows = list(P.path_csv_rows(ps))
    assert len(rows) == 4 * 4
    assert rows[0] == (0, 0, 0, 0, "BEGIN")
    assert rows[1] == (0, 1, 0, 1, "RIGHT")
