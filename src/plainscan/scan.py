"""Input-dependent state-space recurrences.

``selective_scan_ref`` is the literal per-step recurrence on the tape
and serves as the oracle.  Every other scan is one graph node, ``_ssm``,
that folds zero-order-hold discretization into the recurrence: a numpy
loop forward over ``[..., m, d]`` state buffers (the wide channel axis
contiguous) that forms ``B_bar x`` as ``expm1(delta A)/A B x``, since
``phi(z) delta = expm1(z)/A``, and a reverse-time adjoint backward that
recomputes the discretization per step.  The state history, which only
that backward reads, is its only ``[..., n, m, d]`` array; under
``no_grad`` the loop writes one rolling ``[..., m, d]`` state instead.
``selective_scan_fused`` is the single-sequence case; the 2D variant
runs four snake-order scans at once, adding a learnable per-direction
vector to each step's B before discretization (ZOH is linear in B), and
sums the un-permuted outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError
from .paths import PathSet
from .tensor import Tensor, _phi_prime, _record, grad_enabled


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


def _ssm(delta: Tensor, A: Tensor, Bt: Tensor, x: Tensor, C: Tensor) -> Tensor:
    """ZOH discretization and the recurrence ``y_i = sum_m C_i h_i`` as one node.

    ``delta`` and ``x`` are ``[..., n, d]``, ``Bt`` and ``C`` are
    ``[..., n, m]`` and ``A`` is ``[d, m]``; the output is ``[..., n, d]``.
    Step i computes ``z = delta_i A``, ``h_i = exp(z) h_{i-1} +
    expm1(z)/A Bt_i x_i`` and ``y_i`` in reused ``[..., m, d]`` buffers, d
    contiguous.  Taped, ``h_i`` goes into the ``[n, ..., m, d]`` history
    the backward pass reads; under ``no_grad`` into one rolling state.
    The backward pass is the reverse-time adjoint ``lam_i = C_i g_i +
    A_bar_{i+1} lam_{i+1}``; it recomputes ``exp(z)`` and ``expm1(z)`` per
    step, and the A gradient's ``delta^2 phi'(z)`` takes phi's series where
    ``(delta exp(z) - expm1(z)/A)/A`` would cancel.
    """
    *lead, n, d = delta.shape
    m = A.shape[1]
    L = int(np.prod(lead))

    def time_major(t, k):  # [..., n, k] -> [n, L, k]
        return t.data.reshape(L, n, k).transpose(1, 0, 2)

    ds, xs, bs, cs = (time_major(t, k) for t, k in ((delta, d), (x, d), (Bt, m), (C, m)))
    d_row, x_row, b_col = ds[:, :, None, :], xs[:, :, None, :], bs[:, :, :, None]
    a_t = np.ascontiguousarray(A.data.T)  # [m, d]
    inv_a = 1.0 / a_t
    # the backward pass reads every state; without a tape one rolling
    # state is enough, and step i writes hs[i % len(hs)] either way
    hs = np.empty((n if grad_enabled() else 1, L, m, d))
    z, u = np.empty((L, m, d)), np.empty((L, m, d))
    ys = np.empty((n, L, d))
    for i in range(n):
        np.multiply(d_row[i], a_t, out=z)
        np.expm1(z, out=u)
        u *= inv_a
        u *= x_row[i]
        u *= b_col[i]
        h = hs[i % len(hs)]
        np.multiply(np.exp(z, out=z), hs[(i - 1) % len(hs)] if i else 0.0, out=h)
        h += u
        ys[i] = np.matmul(cs[i][:, None, :], h)[:, 0]
    # Metered as the unfused ZOH of B and of Theta_k plus A_bar*h and C*h,
    # the convention analysis.count_flops costs the 2D scan with.
    _record(10 * n * L * m * d)
    bad = ~np.isfinite(ys)
    if bad.any():
        step = int(bad.reshape(n, -1).any(axis=1).argmax())
        raise NumericalError(f"non-finite scan value at step {step}")
    out = Tensor(ys.transpose(1, 0, 2).reshape(delta.shape), (delta, A, Bt, x, C))

    def bwd(g):
        g = g.reshape(L, n, d).transpose(1, 0, 2)
        gd, gx, gb = np.empty((n, L, d)), np.empty((n, L, d)), np.empty((n, L, m))
        ga, lam, w, q, k, a_i, a_next = (np.zeros((L, m, d)) for _ in range(7))
        near0 = (ds * -a_t.max(axis=0)).min(axis=(1, 2)) < 1e-4  # steps with |z| < 1e-4
        for i in range(n - 1, -1, -1):
            lam *= a_next
            lam += np.multiply(cs[i][:, :, None], g[i][:, None, :], out=w)
            np.multiply(d_row[i], a_t, out=z)
            np.exp(z, out=a_i)
            np.multiply(np.expm1(z, out=q), inv_a, out=q)  # du/d(Bt x)
            np.multiply(q, lam, out=w)
            gx[i] = np.matmul(bs[i][:, None, :], w)[:, 0]
            gb[i] = np.matmul(w, xs[i][:, :, None])[:, :, 0]
            # du/d delta = exp(z) Bt x and d A_bar/d delta = A exp(z)
            np.multiply(lam, a_i, out=w)
            gd[i] = xs[i] * np.matmul(bs[i][:, None, :], w)[:, 0]
            # du/dA = delta^2 phi'(z) Bt x = (delta exp(z) - expm1(z)/A)/A Bt x,
            # which cancels near z = 0, where phi' takes its series
            np.multiply(d_row[i], a_i, out=k)
            k -= q
            k *= inv_a
            if near0[i]:
                small = np.abs(z) < 1e-4
                k[small] = _phi_prime(z[small]) * np.broadcast_to(d_row[i] ** 2, z.shape)[small]
            k *= lam
            k *= b_col[i]
            k *= x_row[i]
            w *= hs[i - 1] if i else 0.0  # exp(z) lam h_{i-1}
            gd[i] += np.einsum("lmd,md->ld", w, a_t)
            w *= d_row[i]
            k += w
            ga += k
            a_i, a_next = a_next, a_i
        gc = np.matmul(hs, g[:, :, :, None])[..., 0]

        def back(t, arr):
            t._accumulate(arr.transpose(1, 0, 2).reshape(t.shape))

        back(delta, gd)
        A._accumulate(ga.sum(axis=0).T)
        back(Bt, gb)
        back(x, gx)
        back(C, gc)

    out._backward = bwd
    return out


def selective_scan_fused(inputs: ScanInputs, core: SsmCore) -> Tensor:
    """Equivalent scan: the fused scan node on one sequence, plus the skip."""
    n = inputs.length
    d, m = core.A.shape
    if inputs.x.shape[1] != d:
        raise ShapeError(f"x channels {inputs.x.shape[1]} != core d_inner {d}")
    y = _ssm(inputs.Delta_seq, core.A, inputs.B_seq, inputs.x, inputs.C_seq)
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
    through the same ZOH rule as B, so the scan node discretizes
    ``B + Theta_k`` once.  The output is the sum of the four un-permuted
    scans, so the skip term D*x appears four times.
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

    bt = bs + thetas.reshape(1, K * n, m).expand(B, K * n, m)
    lead = (B, K, n)
    y_seq = _ssm(
        ds.reshape(*lead, d), core.A, bt.reshape(*lead, m), xs.reshape(*lead, d),
        cs.reshape(*lead, m),
    ).reshape(B, K * n, d)
    y_seq = y_seq + xs * core.D.reshape(1, 1, d).expand(B, K * n, d)
    total = y_seq.take(unscan, axis=1).sum(axis=1)  # [B,n,d]
    return total.reshape(B, H, W, d) if batched else total.reshape(H, W, d)
