"""Scan orders over a token grid.

The continuous orders are boustrophedon ("snake") traversals: every step
moves to a 2D-adjacent cell, so the recurrence never jumps across the
image.  Raster orders (plain row-major / column-major) are kept as the
discontinuous baselines; their wrap steps intentionally break adjacency.

Each path carries a per-step direction label; label 4 (BEGIN) marks the
first token and indexes the dedicated direction-parameter row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, check_integer


class Direction(enum.IntEnum):
    RIGHT = 0
    LEFT = 1
    DOWN = 2
    UP = 3
    BEGIN = 4


_DELTAS = {
    (0, 1): Direction.RIGHT,
    (0, -1): Direction.LEFT,
    (1, 0): Direction.DOWN,
    (-1, 0): Direction.UP,
}


@dataclass(frozen=True)
class ScanPath:
    order: np.ndarray       # permutation of 0..H*W-1, row-major flat indices
    directions: np.ndarray  # per-step Direction values, directions[0] == BEGIN
    height: int
    width: int

    def cells(self):
        """(row, col) per step."""
        return np.stack(np.divmod(self.order, self.width), axis=1)

    def is_continuous(self):
        """True when every step moves Manhattan distance 1."""
        return len(self.discontinuities()) == 0

    def discontinuities(self):
        """Step positions whose move from the previous cell is not distance 1."""
        cells = self.cells()
        d = np.abs(np.diff(cells, axis=0)).sum(axis=1)
        return [int(i) + 1 for i in np.nonzero(d != 1)[0]]


@dataclass(frozen=True)
class PathSet:
    paths: tuple  # exactly 4 ScanPath values
    inverse_orders: tuple  # per path: flat index -> position in scan

    def __post_init__(self):
        if len(self.paths) != 4:
            raise ConfigError(f"a PathSet holds exactly 4 paths, got {len(self.paths)}")

    @property
    def height(self):
        return self.paths[0].height

    @property
    def width(self):
        return self.paths[0].width


def _check_extents(H, W):
    for extent in (H, W):
        check_integer("a grid extent", extent)
    if H < 1 or W < 1:
        raise ConfigError(f"grid extents must be at least 1x1, got {H}x{W}")


def _pathset(orders, H, W, wrap_labels=None):
    """Label every step of the 4 orders by its (row, col) move.

    A step that matches no `_DELTAS` move takes its path's wrap label; on
    a continuous path (no wrap labels) it is a ConfigError.
    """
    rows, cols = np.divmod(np.stack(orders), W)
    d_row, d_col = np.diff(rows), np.diff(cols)
    dirs = np.full(rows.shape, -1, dtype=np.int64)
    dirs[:, 0] = Direction.BEGIN
    for (dr, dc), label in _DELTAS.items():
        dirs[:, 1:][(d_row == dr) & (d_col == dc)] = label
    unlabelled = dirs < 0
    if wrap_labels is not None:
        dirs = np.where(unlabelled, np.array(wrap_labels, dtype=np.int64)[:, None], dirs)
    elif unlabelled.any():
        step = np.argwhere(unlabelled)[0, 1]
        raise ConfigError(f"non-adjacent step at position {step} in a continuous path")
    paths = tuple(ScanPath(o, d, H, W) for o, d in zip(orders, dirs))
    return PathSet(paths, tuple(np.argsort(o) for o in orders))


def generate_continuous_paths(H: int, W: int) -> PathSet:
    """Row-snake, column-snake, and their exact reversals, all from (0,0).

    A snake is the row-major (or column-major) grid of flat indices with
    every other row reversed.  Reversed paths recompute their direction
    labels from the reversed order, so their first step is BEGIN like any
    other path.
    """
    _check_extents(H, W)
    cells = np.arange(H * W, dtype=np.int64).reshape(H, W)
    row, col = cells.copy(), cells.T.copy()
    for snake in (row, col):
        snake[1::2] = snake[1::2, ::-1]
    row, col = row.reshape(-1), col.reshape(-1)
    return _pathset([row, col, row[::-1].copy(), col[::-1].copy()], H, W)


def generate_raster_paths(H: int, W: int) -> PathSet:
    """Row-major, column-major, and reverses; wrap steps break adjacency.

    Wrap steps are labeled with the path's in-row (or in-column) travel
    direction, the dominant axis of the traversal.
    """
    _check_extents(H, W)
    row = np.arange(H * W, dtype=np.int64)
    col = row.reshape(H, W).T.reshape(-1)
    orders = [row, col, row[::-1].copy(), col[::-1].copy()]
    wrap_labels = [Direction.RIGHT, Direction.DOWN, Direction.LEFT, Direction.UP]
    return _pathset(orders, H, W, wrap_labels)


def apply_path(grid, path: ScanPath):
    """Flatten [H,W,...] grid values into scan order."""
    if grid.shape[:2] != (path.height, path.width):
        raise ShapeError(
            f"grid shape {grid.shape} does not match {path.height}x{path.width} path"
        )
    flat = grid.reshape(path.height * path.width, *grid.shape[2:])
    return flat.take(path.order, axis=0)


def invert_path(seq, path: ScanPath, inverse_order):
    """Un-permute a scanned [H*W,...] sequence back onto the [H,W,...] grid."""
    n = path.height * path.width
    if seq.shape[0] != n:
        raise ShapeError(
            f"sequence length {seq.shape[0]} does not match {path.height}x{path.width} path"
        )
    back = seq.take(inverse_order, axis=0)
    return back.reshape(path.height, path.width, *seq.shape[1:])


def render_ascii(path: ScanPath) -> str:
    """Grid of scan positions, one row per grid row."""
    n = path.height * path.width
    width = len(str(n - 1))
    pos = np.argsort(path.order).reshape(path.height, path.width)
    return "\n".join(
        " ".join(f"{pos[r, c]:>{width}d}" for c in range(path.width))
        for r in range(path.height)
    )


def path_csv_rows(paths: PathSet):
    """Rows of (path_id, step, row, col, direction name)."""
    for pid, p in enumerate(paths.paths):
        cells = p.cells()
        for step in range(len(p.order)):
            yield (
                pid,
                step,
                int(cells[step, 0]),
                int(cells[step, 1]),
                Direction(p.directions[step]).name,
            )
