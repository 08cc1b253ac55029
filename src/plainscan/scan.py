"""Input-dependent state-space recurrences.

``selective_scan_ref`` is the literal per-step recurrence on the tape
and serves as the oracle.  Every other scan discretizes all steps at
once with ordinary vectorized tape ops and then hands the recurrence
``h_i = A_bar_i h_{i-1} + B_bar_i x_i``, ``y_i = C_i h_i`` to one graph
node, ``_recurrence``: a plain numpy loop forward and its reverse-time
adjoint backward.  ``selective_scan_fused`` is one such scan; the 2D
variant runs four snake-order scans at once, injecting a learnable
per-direction vector into each step's discretized input matrix, and sums
the un-permuted outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError
from .paths import PathSet
from .tensor import Tensor, _record


@dataclass
class SsmCore:
    """Per-block state-space parameters."""

    A: Tensor       # [d_inner, m], strictly negative (decay rates)
    D: Tensor       # [d_inner], skip coefficients
    Theta: Tensor   # [5, m], direction vectors (4 cardinal + BEGIN)

    def __post_init__(self):
        if self.A.data.ndim != 2:
            raise ShapeError(f"A must be [d_inner, m], got {self.A.shape}")
        d, m = self.A.shape
        if self.D.shape != (d,):
            raise ShapeError(f"D must be [{d}], got {self.D.shape}")
        if self.Theta.shape != (5, m):
            raise ShapeError(f"Theta must be [5, {m}], got {self.Theta.shape}")
        if not (self.A.data < 0).all():
            raise NumericalError("state matrix A must be strictly negative")

    @property
    def d_inner(self):
        return self.A.shape[0]

    @property
    def state_size(self):
        return self.A.shape[1]


@dataclass
class ScanInputs:
    """One flattened sequence plus its per-token scan parameters."""

    x: Tensor          # [N, d_inner]
    B_seq: Tensor      # [N, m]
    C_seq: Tensor      # [N, m]
    Delta_seq: Tensor  # [N, d_inner], positive

    def __post_init__(self):
        n, d = self.x.shape
        m = self.B_seq.shape[1]
        if self.B_seq.shape != (n, m) or self.C_seq.shape != (n, m):
            raise ShapeError(
                f"B/C sequences must be [{n}, m], got {self.B_seq.shape} and {self.C_seq.shape}"
            )
        if self.Delta_seq.shape != (n, d):
            raise ShapeError(f"Delta must be [{n}, {d}], got {self.Delta_seq.shape}")
        if not (self.Delta_seq.data > 0).all():
            raise NumericalError("Delta must be strictly positive (softplus output)")

    @property
    def length(self):
        return self.x.shape[0]


def zoh_discretize(A: Tensor, B_i: Tensor, Delta_i: Tensor):
    """Zero-order-hold step: A_bar = exp(dA), B_bar = phi(dA) * d * B.

    ``phi(z) = expm1(z)/z`` is evaluated with a series fallback near zero,
    so the Delta -> 0 limit is exact (A_bar -> 1, B_bar -> 0).
    """
    d, m = A.shape
    if Delta_i.shape != (d,):
        raise ShapeError(f"Delta_i must be [{d}], got {Delta_i.shape}")
    if B_i.shape != (m,):
        raise ShapeError(f"B_i must be [{m}], got {B_i.shape}")
    if not (Delta_i.data > 0).all():
        raise NumericalError("zoh_discretize: Delta must be strictly positive")
    d_col = Delta_i.reshape(d, 1).expand(d, m)
    z = d_col * A
    A_bar = z.exp()
    B_bar = z.zoh_phi() * (d_col * B_i.reshape(1, m).expand(d, m))
    return A_bar, B_bar


def selective_scan_ref(inputs: ScanInputs, core: SsmCore) -> Tensor:
    """The literal sequential recurrence; oracle for every faster variant."""
    n = inputs.length
    d, m = core.A.shape
    if inputs.x.shape[1] != d:
        raise ShapeError(f"x channels {inputs.x.shape[1]} != core d_inner {d}")
    h = Tensor.zeros((d, m), dtype=core.A.dtype)
    ys = []
    for i in range(n):
        x_i = inputs.x[i]
        A_bar, B_bar = zoh_discretize(core.A, inputs.B_seq[i], inputs.Delta_seq[i])
        h = A_bar * h + B_bar * x_i.reshape(d, 1).expand(d, m)
        y_i = (inputs.C_seq[i].reshape(1, m).expand(d, m) * h).sum(axis=-1) + core.D * x_i
        if not np.isfinite(y_i.data).all():
            raise NumericalError(f"non-finite scan value at step {i}")
        ys.append(y_i)
    return Tensor.stack(ys, axis=0)


def _recurrence(A_bar: Tensor, Bx: Tensor, C: Tensor) -> Tensor:
    """``h_i = A_bar_i h_{i-1} + Bx_i``, ``y_i = sum_m C_i h_i`` as one graph node.

    Operands are ``[..., n, d, m]`` with time on axis -3; the output is
    ``[..., n, d]``.  The backward pass is the reverse-time adjoint
    ``lam_i = C_i g_i + A_bar_{i+1} lam_{i+1}``, from which
    ``dBx = lam``, ``dA_bar_i = lam_i h_{i-1}`` and ``dC = g h``.
    """
    a, c = A_bar.data, C.data
    n = a.shape[-3]
    hs = Bx.data.copy()
    for i in range(1, n):
        hs[..., i, :, :] += a[..., i, :, :] * hs[..., i - 1, :, :]
    _record(2 * a.size)  # A_bar*h and C*h, one MAC per element each
    out = Tensor((c * hs).sum(axis=-1), (A_bar, Bx, C))

    def bwd(g):
        g = g[..., None]
        lam = c * g
        for i in range(n - 2, -1, -1):
            lam[..., i, :, :] += a[..., i + 1, :, :] * lam[..., i + 1, :, :]
        da = np.zeros_like(lam)
        da[..., 1:, :, :] = lam[..., 1:, :, :] * hs[..., :-1, :, :]
        A_bar._accumulate(da)
        Bx._accumulate(lam)
        C._accumulate(g * hs)

    out._backward = bwd
    return out


def selective_scan_fused(inputs: ScanInputs, core: SsmCore) -> Tensor:
    """Equivalent scan: vectorized discretization, then one recurrence node."""
    n = inputs.length
    d, m = core.A.shape
    if inputs.x.shape[1] != d:
        raise ShapeError(f"x channels {inputs.x.shape[1]} != core d_inner {d}")
    d_all = inputs.Delta_seq.reshape(n, d, 1).expand(n, d, m)
    z = d_all * core.A.reshape(1, d, m).expand(n, d, m)
    A_bar = z.exp()
    B_bar = z.zoh_phi() * (d_all * inputs.B_seq.reshape(n, 1, m).expand(n, d, m))
    Bx = B_bar * inputs.x.reshape(n, d, 1).expand(n, d, m)
    C_all = inputs.C_seq.reshape(n, 1, m).expand(n, d, m)
    y = _recurrence(A_bar, Bx, C_all)
    skip = inputs.x * core.D.reshape(1, d).expand(n, d)
    return y + skip


def direction_aware_scan_2d(
    x_grid: Tensor,
    b_grid: Tensor,
    c_grid: Tensor,
    delta_grid: Tensor,
    core: SsmCore,
    paths: PathSet,
) -> Tensor:
    """Four direction-labeled snake scans, summed on the grid.

    Every scan k runs ``h = A_bar h + (B_bar + Theta_bar_k) x`` where
    Theta_bar_k is the step-direction row of the direction table pushed
    through the same ZOH rule as B.  The output is the sum of the four
    un-permuted scans, so the skip term D*x appears four times.
    """
    d, m = core.A.shape
    batched = x_grid.data.ndim == 4
    grids = (x_grid, b_grid, c_grid, delta_grid)
    if not batched:
        grids = tuple(g.reshape(1, *g.shape) for g in grids)
    B, H, W = grids[0].shape[:3]
    if (H, W) != (paths.height, paths.width):
        raise ShapeError(
            f"grid {H}x{W} does not match paths for {paths.height}x{paths.width}"
        )
    if x_grid.shape[-1] != d:
        raise ShapeError(f"grid channels {x_grid.shape[-1]} != core d_inner {d}")
    n = H * W
    K = len(paths.paths)
    # scan position k*n + i reads grid cell order_k[i]; grid cell j of path
    # k comes back from scan position k*n + inverse_k[j]
    order = np.concatenate([p.order for p in paths.paths])
    unscan = np.stack([k * n + inv for k, inv in enumerate(paths.inverse_orders)])
    xs, bs, cs, ds = (g.reshape(B, n, g.shape[3]).take(order, axis=1) for g in grids)
    directions = np.concatenate([p.directions for p in paths.paths])
    thetas = core.Theta.take(directions, axis=0)  # [K*n, m]

    full = (B, K, n, d, m)
    d_all = ds.reshape(B, K, n, d, 1).expand(full)
    z = d_all * core.A.reshape(1, 1, 1, d, m).expand(full)
    A_bar = z.exp()
    phi = z.zoh_phi()
    B_bar = phi * (d_all * bs.reshape(B, K, n, 1, m).expand(full))
    Theta_bar = phi * (d_all * thetas.reshape(1, K, n, 1, m).expand(full))
    Bx = (B_bar + Theta_bar) * xs.reshape(B, K, n, d, 1).expand(full)
    C_all = cs.reshape(B, K, n, 1, m).expand(full)

    y_seq = _recurrence(A_bar, Bx, C_all).reshape(B, K * n, d)
    y_seq = y_seq + xs * core.D.reshape(1, 1, d).expand(B, K * n, d)
    total = y_seq.take(unscan, axis=1).sum(axis=1)  # [B,n,d]
    return total.reshape(B, H, W, d) if batched else total.reshape(H, W, d)
