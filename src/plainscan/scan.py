"""Input-dependent state-space recurrences.

``selective_scan_ref`` is the literal per-step recurrence on the tape
and serves as the oracle.  ``direction_aware_scan_2d`` is the model's
scan: one graph node that folds zero-order-hold discretization, the
recurrence and the skip term together over the four snake paths of a
grid.  It gathers the grid into each path's order as it builds its
time-major inputs and adds a learnable per-direction vector to each
step's B before discretization (ZOH is linear in B).  Its forward is a
numpy loop over ``[S, m, d]`` state buffers (the wide channel axis
contiguous) with one transcendental per step, ``e = expm1(delta A)``:
with ``p = h_{i-1} + B x / A`` it writes ``h_i = h_{i-1} + e p``, which
is the ZOH update ``exp(delta A) h_{i-1} + expm1(delta A)/A B x`` (since
``phi(z) delta = expm1(z)/A``), and it sums the un-permuted outputs on
the grid.  Taped, it keeps its whole state history while that fits in
``_HISTORY_BYTES``; a longer history is kept as ``ceil(sqrt(n))``
checkpoints, the last state of each segment of steps; under ``no_grad``
the loop writes one rolling state.  The checkpoints are all the node
keeps: its backward gathers the time-major inputs again from the
node's inputs.  The backward is a reverse-time adjoint that recomputes
``expm1`` per step and takes ``exp`` as ``1 + expm1``; on reaching a
segment it first recomputes that segment's other states from the
checkpoint before it.  Every path is a permutation, so the backward
pass gathers instead of scattering: the adjoint of the gather is the
un-permute.

``direction_aware_scan_2d_ref`` runs ``selective_scan_ref`` once per path
on the tape and sums the results on the grid: the oracle for the 2D scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError
from .paths import PathSet, apply_path, invert_path
from .tensor import Tensor, _phi_prime, _record, grad_enabled

# The taped 2D scan keeps its whole state history while it fits in this
# many bytes, and otherwise ceil(sqrt(n)) checkpoints.
_HISTORY_BYTES = 16 << 20


def checkpoint_segments(n, state_bytes):
    """(steps per segment, segments) of a taped 2D scan of n steps over states
    of this many bytes; the last state of each segment is kept."""
    seg = 1 if n * state_bytes <= _HISTORY_BYTES else math.isqrt(n - 1) + 1
    return seg, -(-n // seg)


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


def direction_aware_scan_2d_ref(
    x_grid: Tensor,
    b_grid: Tensor,
    c_grid: Tensor,
    delta_grid: Tensor,
    core: SsmCore,
    paths: PathSet,
) -> Tensor:
    """Oracle for ``direction_aware_scan_2d``, on the tape.

    One ``selective_scan_ref`` per path over ``B + Theta[direction]`` (exact,
    since ZOH is linear in B), un-permuted and summed on the grid; batched
    ``[B, H, W, k]`` grids run one image at a time.
    """
    if x_grid.data.ndim == 4:
        return Tensor.stack([
            direction_aware_scan_2d_ref(x_grid[i], b_grid[i], c_grid[i], delta_grid[i], core, paths)
            for i in range(x_grid.shape[0])
        ])
    total = None
    for p, inv in zip(paths.paths, paths.inverse_orders):
        inputs = ScanInputs(
            x=apply_path(x_grid, p),
            B_seq=apply_path(b_grid, p) + core.Theta.take(p.directions, axis=0),
            C_seq=apply_path(c_grid, p),
            Delta_seq=apply_path(delta_grid, p),
        )
        back = invert_path(selective_scan_ref(inputs, core), p, inv)
        total = back if total is None else total + back
    return total


def direction_aware_scan_2d(
    x_grid: Tensor,
    b_grid: Tensor,
    c_grid: Tensor,
    delta_grid: Tensor,
    core: SsmCore,
    paths: PathSet,
) -> Tensor:
    """Four direction-labeled snake scans, summed on the grid, as one node.

    Grids are ``[H, W, k]`` or ``[B, H, W, k]`` with k = d_inner for x and
    delta and m for B and C.  Every image runs one sequence per path:
    sequence k reads the grid in ``paths.paths[k].order`` and runs
    ``h = A_bar h + (B_bar + Theta_bar_k) x``, where Theta_bar_k is the
    step-direction row of the direction table pushed through the same ZOH
    rule as B, so the node discretizes ``B + Theta[direction]`` once.  Its
    outputs go back to the grid by the inverse order, summed over the K = 4
    paths, and the per-path skip ``D x`` sums to ``K D x`` on the grid.

    The paths are permutations, so the forward gathers each input while it
    builds its time-major copy, and the backward gathers ``g`` by each order
    and returns the input gradients to the grid by the inverse orders and a
    sum over K; no scatter-add.  The forward drops its time-major copies
    when its loop ends, and the backward gathers them again from the
    grids.  Theta's gradient is B's, summed per direction label.

    Step i computes ``e = expm1(delta_i A)``, ``p_i = h_{i-1} + B_i x_i / A``,
    ``h_i = h_{i-1} + e p_i`` (that is, ``exp(z) h_{i-1} + expm1(z)/A B_i
    x_i`` with ``z = delta_i A``) and ``y_i = sum_m C_i h_i`` in reused
    ``[S, m, d]`` buffers (S sequences, d contiguous).  Under ``no_grad``
    ``h_i`` goes into one rolling state.  Taped, the steps fall into
    segments (``checkpoint_segments``) and the last state of each goes into
    a ``[segments, S, m, d]`` array of checkpoints; while the whole history
    fits in ``_HISTORY_BYTES`` every segment is one step, so that array is
    the history.  The backward pass is the reverse-time adjoint
    ``lam_i = C_i g_i + A_bar_{i+1} lam_{i+1}``; it recomputes ``e`` per step
    and takes ``A_bar = 1 + e``.  At the last step of a longer segment it
    first recomputes the segment's other states from the checkpoint before
    it, with the forward's arithmetic, into a ``[seg - 1, S, m, d]`` buffer.
    With ``r = lam A_bar p_i``, delta's gradient is ``sum_m A r`` and A's is
    ``delta r - (e/A lam)(B_i x_i / A)``; where some ``|z| < 1e-4`` that
    difference cancels, and those entries take
    ``lam (delta A_bar h_{i-1} + delta^2 phi'(z) B_i x_i)`` with phi's series.
    """
    A, D, Theta = core.A, core.D, core.Theta
    d, m = A.shape
    if x_grid.data.ndim not in (3, 4):
        raise ShapeError(f"grids must be [H,W,C] or [B,H,W,C], got {x_grid.shape}")
    lead = x_grid.shape[:-1]
    H, W = lead[-2:]
    if (H, W) != (paths.height, paths.width):
        raise ShapeError(
            f"grid {H}x{W} does not match paths for {paths.height}x{paths.width}"
        )
    if x_grid.shape[-1] != d:
        raise ShapeError(f"grid channels {x_grid.shape[-1]} != core d_inner {d}")
    for name, t, k in (("B", b_grid, m), ("C", c_grid, m), ("Delta", delta_grid, d)):
        if t.shape != (*lead, k):
            raise ShapeError(f"{name} grid must be {(*lead, k)}, got {t.shape}")
    n = H * W
    K = len(paths.paths)
    L = x_grid.size // (n * d)  # images
    S = K * L
    order = np.stack([p.order for p in paths.paths], axis=1)  # [n, K]
    labels = np.stack([p.directions for p in paths.paths], axis=1)
    inverse = paths.inverse_orders
    # row order[i, k] + n l of an input as [L n, k] is step i of path k in image l
    rows = (order[:, :, None] + n * np.arange(L)).reshape(-1)

    def gather(a, k):  # [..., H, W, k] -> [n, S, k]: time first, then path, then image
        return np.take(a.reshape(L * n, k), rows, axis=0).reshape(n, S, k)

    def to_grid(a, shape):  # gather's adjoint: un-permute each path, sum over paths
        a = a.reshape(n, K, L, a.shape[-1])
        total = a[inverse[0], 0]
        for k in range(1, K):
            total += a[inverse[k], k]
        return total.transpose(1, 0, 2).reshape(shape)

    def step_inputs():
        # what the step loop reads, derived from the parents' data: the
        # time-major rows of delta, x, B + Theta[direction] and C, and A^T
        # and 1 / A^T, each [m, d]
        ds, xs, bs, cs = (
            gather(t.data, k) for t, k in ((delta_grid, d), (x_grid, d), (b_grid, m), (c_grid, m))
        )
        b_paths = bs.reshape(n, K, L, m)  # a view of the gathered copy
        b_paths += Theta.data[labels][:, :, None, :]
        a_t = np.ascontiguousarray(A.data.T)
        return ds, xs, bs, cs, a_t, 1.0 / a_t

    def run(inputs, h_prev, steps, state, ys=None):
        # the given steps from h_prev; step i writes its state into state(i)
        ds, xs, bs, cs, a_t, inv_a = inputs
        d_row, x_row, b_col = ds[:, :, None, :], xs[:, :, None, :], bs[:, :, :, None]
        e, p = np.empty((S, m, d)), np.empty((S, m, d))
        for i in steps:
            np.multiply(d_row[i], a_t, out=e)
            np.expm1(e, out=e)
            # p = h_{i-1} + B x / A, and h_i = h_{i-1} + expm1(z) p
            np.multiply(b_col[i], x_row[i], out=p)
            p *= inv_a
            if i:
                p += h_prev
            p *= e
            h = state(i)
            np.add(h_prev, p, out=h)
            if ys is not None:
                ys[i] = np.matmul(cs[i][:, None, :], h)[:, 0]
            h_prev = h

    taped = grad_enabled()
    seg, count = checkpoint_segments(n, 8 * S * m * d)
    ends = np.minimum(np.arange(1, count + 1) * seg, n) - 1  # each segment's last step
    # step i writes checkpoint i // seg when it ends a segment, and otherwise
    # the rolling state h
    ck = np.empty((count, S, m, d)) if taped else None
    h = np.empty((S, m, d))
    ys = np.empty((n, S, d))
    # the inputs die with this call; the backward gathers its own
    run(step_inputs(), 0.0, range(n),
        lambda i: ck[i // seg] if taped and i == ends[i // seg] else h, ys)
    # Metered as the unfused ZOH of B and of Theta_k plus A_bar*h and C*h,
    # the convention analysis.count_flops costs the 2D scan with.
    _record(10 * n * S * m * d)
    bad = ~np.isfinite(ys)
    if bad.any():
        step = int(bad.reshape(n, -1).any(axis=1).argmax())
        raise NumericalError(f"non-finite scan value at step {step}")
    y = to_grid(ys, delta_grid.shape)
    # one multiply on the grid, metered as the K per-path skips it sums
    _record(n * S * d)
    y += x_grid.data * (K * D.data)
    out = Tensor(y, (delta_grid, A, b_grid, x_grid, c_grid, D, Theta))

    def bwd(g):
        ds, xs, bs, cs, a_t, inv_a = inputs = step_inputs()
        d_row, x_row, b_col = ds[:, :, None, :], xs[:, :, None, :], bs[:, :, :, None]
        gs = gather(g, d)
        gd, gx = np.empty((n, S, d)), np.empty((n, S, d))
        gb, gc = np.empty((n, S, m)), np.empty((n, S, m))
        ga, lam, w, z, q, v, r, a_i, a_next = (np.zeros((S, m, d)) for _ in range(9))
        hs = np.empty((seg - 1, S, m, d))  # the states a segment recomputes
        near0 = (ds * -a_t.max(axis=0)).min(axis=(1, 2)) < 1e-4  # steps with |z| < 1e-4
        for i in range(n - 1, -1, -1):
            k, t = divmod(i, seg)
            h_in = ck[k - 1] if k else 0.0
            if t and i == ends[k]:  # a segment's last step: recompute the others
                s0 = i - t
                run(inputs, h_in, range(s0, i), lambda j: hs[j - s0])
                gc[s0:i] = np.matmul(hs[:t], gs[s0:i, :, :, None])[..., 0]
            lam *= a_next
            lam += np.multiply(cs[i][:, :, None], gs[i][:, None, :], out=w)
            np.multiply(d_row[i], a_t, out=z)
            np.expm1(z, out=q)
            np.add(q, 1.0, out=a_i)  # exp(z)
            q *= inv_a  # du/d(B x)
            np.multiply(q, lam, out=w)
            gx[i] = np.matmul(bs[i][:, None, :], w)[:, 0]
            gb[i] = np.matmul(w, xs[i][:, :, None])[:, :, 0]
            np.multiply(b_col[i], x_row[i], out=v)
            if near0[i]:
                small = np.abs(z) < 1e-4
                dz = np.broadcast_to(d_row[i], z.shape)[small]
                series = _phi_prime(z[small]) * dz * dz * v[small]
            v *= inv_a
            h_prev = hs[t - 1] if t else h_in
            # dh_i/dz = exp(z) (h_{i-1} + B x / A) = exp(z) p
            np.add(h_prev, v, out=r)
            r *= a_i
            r *= lam
            gd[i] = np.einsum("lmd,md->ld", r, a_t)
            # dh_i/dA = delta exp(z) p - expm1(z)/A B x / A, which cancels
            # near z = 0: there it is delta exp(z) h_{i-1} + delta^2 phi'(z) B x
            r *= d_row[i]
            w *= v
            r -= w
            if near0[i]:
                hp = h_prev[small] if i else 0.0
                r[small] = lam[small] * (dz * a_i[small] * hp + series)
            ga += r
            a_i, a_next = a_next, a_i
        gc[ends] = np.matmul(ck, gs[ends, :, :, None])[..., 0]
        gx = to_grid(gx, x_grid.shape)
        gx += g * (K * D.data)
        g_d = np.einsum("ld,ld->d", g.reshape(-1, d), x_grid.data.reshape(-1, d))
        D._accumulate(K * g_d, fresh=True)
        g_theta = np.zeros_like(Theta.data)
        np.add.at(g_theta, labels, gb.reshape(n, K, L, m).sum(axis=2))
        Theta._accumulate(g_theta, fresh=True)
        delta_grid._accumulate(to_grid(gd, delta_grid.shape), fresh=True)
        A._accumulate(ga.sum(axis=0).T, fresh=True)
        b_grid._accumulate(to_grid(gb, b_grid.shape), fresh=True)
        x_grid._accumulate(gx, fresh=True)
        c_grid._accumulate(to_grid(gc, c_grid.shape), fresh=True)

    out._backward = bwd
    return out
