"""Input-dependent state-space recurrences.

``selective_scan_ref`` is the literal per-step recurrence on the tape
and serves as the oracle.  ``direction_aware_scan_2d`` is the model's
scan: one graph node that folds zero-order-hold discretization, the
recurrence and the skip term together over the four snake paths of a
grid.  It gathers the grid into each path's order as it builds its
time-major inputs and adds a learnable per-direction vector to each
step's B before discretization (ZOH is linear in B).  With
``e = expm1(delta A)`` and ``p = h_{i-1} + B x / A`` step i writes
``h_i = h_{i-1} + e p``, which is the ZOH update ``exp(delta A) h_{i-1} +
expm1(delta A)/A B x`` (since ``phi(z) delta = expm1(z)/A``).

The node's loops run over ``[T, S, m, d]`` buffers (the wide channel axis
contiguous): everything a step computes that reads no carried state, the
discretization with its one transcendental, the outer products and the
contractions with C, runs once per block of T consecutive steps, and only
the recurrence itself runs step by step.  T is ``tensor.block_steps``, and
at most the sequence: as many steps as let the loop's block buffers fit
``tensor._BLOCK_BYTES``, which keeps them in cache, so the forward, with
two buffers, runs longer blocks than the backward, with five and a history
slice.  Each block gathers its own time-major inputs into buffers its loop
reuses, so beside the grids a loop holds whole time-major arrays only for
what it sums on the grid: the forward's per-path outputs and the
backward's input gradients.  The results are bit-identical for every T,
since each value is the same product or sum as at T = 1.  Taped, the
forward keeps its whole state history while that fits in ``_HISTORY_BYTES``
(``keeps_history``), and otherwise no states, as under ``no_grad``; a
backward whose forward kept none first rebuilds the history with the
forward's own loop.  The history is all the node keeps: its backward
gathers the time-major inputs again from the node's inputs.  The backward
is a reverse-time adjoint over its own blocks, last block first, that
recomputes ``expm1`` and takes ``exp`` as ``1 + expm1``.  Every path is a
permutation, so the backward pass gathers instead of scattering: the
adjoint of the gather is the un-permute.

``direction_aware_scan_2d_ref`` runs ``selective_scan_ref`` once per path
on the tape and sums the results on the grid: the oracle for the 2D scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError
from .paths import PathSet, apply_path, invert_path
from .tensor import _SERIES_BELOW, Tensor, _phi_prime, _record, block_steps, grad_enabled

# The taped 2D scan keeps its whole state history while it fits in this
# many bytes, and otherwise no states.
_HISTORY_BYTES = 16 << 20


def keeps_history(n, state_bytes):
    """Whether a taped 2D scan of n steps over states of this many bytes
    keeps its state history, or leaves its backward to rebuild it."""
    return n * state_bytes <= _HISTORY_BYTES


def decay_rates_valid(A):
    """Elementwise: an entry of a state matrix A must be strictly negative."""
    return A < 0


@dataclass
class SsmCore:
    """Per-block state-space parameters."""

    A: Tensor       # [d_inner, m], strictly negative (decay rates)
    D: Tensor       # [d_inner], skip coefficients
    Theta: Tensor   # [5, m], direction vectors (4 cardinal + BEGIN)

    def __post_init__(self):
        if self.A.data.ndim != 2 or 0 in self.A.shape:
            raise ShapeError(f"A must be [d_inner, m], both at least 1, got {self.A.shape}")
        d, m = self.A.shape
        if self.D.shape != (d,):
            raise ShapeError(f"D must be [{d}], got {self.D.shape}")
        if self.Theta.shape != (5, m):
            raise ShapeError(f"Theta must be [5, {m}], got {self.Theta.shape}")
        if not decay_rates_valid(self.A.data).all():
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
    h = Tensor(np.zeros((d, m), inputs.x.dtype))
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

    The paths are permutations, so the forward gathers each input into its
    time-major order, and the backward gathers ``g`` by each order and
    returns the input gradients to the grid by the inverse orders and a sum
    over K; no scatter-add.  Each block gathers its own rows into one set of
    ``[T, S, k]`` buffers that every block of its loop reuses: the
    forward's die with its loop, and the backward gathers its own, with
    g's, from the grids.  The per-path outputs and the input gradients stay
    whole ``[n, S, k]`` arrays, because the un-permute sums one cell's K
    paths in path order, and those arrive in different blocks.  Theta's
    gradient is B's, summed per direction label.

    Step i computes ``e = expm1(delta_i A)``, ``p_i = h_{i-1} + B_i x_i / A``,
    ``h_i = h_{i-1} + e p_i`` (that is, ``exp(z) h_{i-1} + expm1(z)/A B_i
    x_i`` with ``z = delta_i A``) and ``y_i = sum_m C_i h_i``, S sequences at
    a time with d contiguous.  The steps run in blocks of T =
    ``block_steps`` of the state size and of the buffers the loop holds: a
    forward block forms e and ``B x / A`` for all its steps in ``[T, S, m,
    d]`` buffers, runs ``p += h_{i-1}; p *= e; h_i = h_{i-1} + p`` step by
    step, and then contracts its states with C at once.  Taped, while the
    whole history fits in ``_HISTORY_BYTES`` (``keeps_history``), the
    blocks write their states into a ``[n + 1, S, m, d]`` history after the
    zero start state; past that budget, and under ``no_grad``, they are
    written over p.  Either way a copy of a block's last state starts the
    next.  The backward pass is the reverse-time adjoint ``lam_i = C_i g_i
    + A_bar_{i+1} lam_{i+1}``, over its own, shorter blocks from the last,
    with ``A_bar lam`` of the step after a block carried as one state.  A
    backward whose forward kept no states first rebuilds the history by
    running the forward's loop again, with the forward's blocks.  A
    backward block reads its states as one slice of the history, recomputes
    e, ``A_bar = 1 + e``, ``C g`` and ``B x / A`` for all its steps, runs the
    recurrence for lam step by step into a block buffer, and then forms
    every gradient term of its steps at once, ``r`` in the spent buffer of
    ``e / A``; only A's gradient is summed step by step, in descending
    order.  With ``r = lam A_bar p_i``, delta's gradient is ``sum_m A r``
    and A's is ``delta r - (e/A lam)(B_i x_i / A)``; where some ``|z| <
    _SERIES_BELOW`` that difference cancels, and those entries take ``lam
    (delta A_bar h_{i-1} + delta^2 phi'(z) B_i x_i)`` with phi's series.
    """
    A, D, Theta = core.A, core.D, core.Theta
    d, m = A.shape
    if x_grid.data.ndim not in (3, 4) or 0 in x_grid.shape[:-3]:
        raise ShapeError(f"grids must be [H,W,C] or [B,H,W,C] with B >= 1, got {x_grid.shape}")
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

    def to_grid(a, shape):  # the gather's adjoint: un-permute each path, sum over paths
        a = a.reshape(n, K, L, a.shape[-1])
        total = a[inverse[0], 0]
        for k in range(1, K):
            total += a[inverse[k], k]
        return total.transpose(1, 0, 2).reshape(shape)

    def step_inputs():
        # what every block's gather reads, derived from the parents' data
        # once a call: the grids as [L n, k] rows, each step's
        # Theta[direction] rows, and A^T and 1 / A^T, each [m, d].  The
        # model's x and delta grids are contiguous; its B and C grids are
        # strided slices of x_proj's output, whose leading axes still merge,
        # so all four rows are views; only a grid a caller passes whose
        # leading axes do not merge is copied
        grids = [t.data.reshape(L * n, k)
                 for t, k in ((delta_grid, d), (x_grid, d), (b_grid, m), (c_grid, m))]
        a_t = np.ascontiguousarray(A.data.T)
        return grids, Theta.data[labels][:, :, None, :], a_t, 1.0 / a_t

    def gather(grids, theta, bufs, s, t):
        # steps s .. s + t - 1 of delta, x, B + Theta[direction] and C (and
        # of g, if given) in the paths' order, time-major, into the first t
        # rows of each [T, S, k] buffer.  rows is time-major, so they are one
        # slice of it; in "raise" mode take would buffer its output.
        r = rows[s * S:(s + t) * S]
        blk = [buf[:t] for buf in bufs]
        for a, out in zip(grids, blk):
            a.take(r, 0, out.reshape(t * S, -1), "clip")
        b_paths = blk[2].reshape(t, K, L, m)  # a view of the block's B
        b_paths += theta[s:s + t]
        return blk

    dt = x_grid.dtype  # the buffers' dtype, whose itemsize sizes blocks and the history
    state_bytes = dt.itemsize * S * m * d

    def history():  # the zero start state, then step s's state at row s + 1
        hs = np.empty((n + 1, S, m, d), dt)
        hs[0] = 0.0
        return hs

    # taped, the history the backward reads, unless it is past the budget
    hist = history() if grad_enabled() and keeps_history(n, state_bytes) else None

    def run(inputs, hs=None, ys=None):
        # every step from the zero state, a block at a time: step s's state
        # goes to hs[s + 1] or, without hs, over p
        grids, theta, a_t, inv_a = inputs
        T = min(n, block_steps(state_bytes, 2))  # e and p
        bufs = [np.empty((T, S, a.shape[1]), dt) for a in grids]
        eb, pb = np.empty((T, S, m, d), dt), np.empty((T, S, m, d), dt)
        carry = np.zeros((S, m, d), dt)  # the state before the block
        for s in range(0, n, T):
            t = min(T, n - s)
            ds, xs, bs, cs = gather(grids, theta, bufs, s, t)
            e, p = eb[:t], pb[:t]
            h = p if hs is None else hs[s + 1:s + 1 + t]
            np.einsum("...d,md->...md", ds, a_t, out=e)
            np.expm1(e, out=e)
            # p = h_{i-1} + B x / A, and h_i = h_{i-1} + expm1(z) p
            np.einsum("...m,...d->...md", bs, xs, out=p)
            p *= inv_a
            h_prev = carry
            for j in range(t):
                p[j] += h_prev
                p[j] *= e[j]
                np.add(h_prev, p[j], out=h[j])
                h_prev = h[j]
            carry[...] = h_prev  # the next block's einsum writes over p
            if ys is not None:
                ys[s:s + t] = np.matmul(cs[:, :, None, :], h)[:, :, 0]

    ys = np.empty((n, S, d), dt)
    # the block buffers die with this call; the backward gathers its own
    run(step_inputs(), hist, ys)
    # Metered as the unfused ZOH of B and of Theta_k plus A_bar*h and C*h, the
    # convention of the blocks.i.scan row of analysis.forward_stages.
    _record(10 * n * S * m * d)
    finite = np.isfinite(ys).reshape(n, -1).all(axis=1)  # per step
    if not finite.all():
        raise NumericalError(f"non-finite scan value at step {int(finite.argmin())}")
    y = to_grid(ys, delta_grid.shape)
    # one multiply on the grid, metered as the K per-path skips it sums
    _record(n * S * d)
    y += x_grid.data * (K * D.data)

    def bwd(g):
        grids, theta, a_t, inv_a = inputs = step_inputs()
        # hs[s] is the state before step s; past the budget the forward kept
        # no states, and they are rebuilt here with its arithmetic
        hs = hist
        if hs is None:
            hs = history()
            run(inputs, hs)
        grids = grids + [g.reshape(L * n, d)]
        gd, gx = np.empty((n, S, d), dt), np.empty((n, S, d), dt)
        gb, gc = np.empty((n, S, m), dt), np.empty((n, S, m), dt)
        ga = np.zeros((S, m, d), dt)
        # five block buffers, and the slice of the history a block reads
        T = min(n, block_steps(state_bytes, 6))
        bufs = [np.empty((T, S, a.shape[1]), dt) for a in grids]
        qb, ab, cgb, lb, vb = (np.empty((T, S, m, d), dt) for _ in range(5))
        z_min = -a_t.max(axis=0)  # the smallest |z| of each channel per unit delta
        carry = np.zeros((S, m, d), dt)  # A_bar lam of the step after the block
        for s in range(0, n, T)[::-1]:
            t = min(T, n - s)
            i = slice(s, s + t)
            ds, xs, bs, cs, gs = gather(grids, theta, bufs, s, t)
            d_row = ds[:, :, None, :]
            h = hs[s:s + t + 1]  # the states s - 1 .. s + t - 1
            h_prev = h[:-1]
            gc[i] = np.matmul(h[1:], gs[..., None])[..., 0]
            q, a, cg, lam, v = qb[:t], ab[:t], cgb[:t], lb[:t], vb[:t]
            np.einsum("...m,...d->...md", bs, xs, out=v)
            np.einsum("...d,md->...md", ds, a_t, out=q)  # z, until its expm1
            # whether some step has some |z| below phi's series switch
            near = (ds * z_min).min() < _SERIES_BELOW
            if near:
                small = np.abs(q) < _SERIES_BELOW
                dz = np.broadcast_to(d_row, q.shape)[small]
                series = _phi_prime(q[small]) * dz * dz * v[small]
            np.expm1(q, out=q)
            np.add(q, 1.0, out=a)  # exp(z)
            q *= inv_a  # du/d(B x)
            np.einsum("...m,...d->...md", cs, gs, out=cg)
            # lam_i = C_i g_i + A_bar_{i+1} lam_{i+1}, the adjoint's recurrence
            for j in range(t - 1, -1, -1):
                np.add(carry, cg[j], out=lam[j])
                np.multiply(lam[j], a[j], out=carry)
            w = np.multiply(q, lam, out=cg)
            gx[i] = np.matmul(bs[:, :, None, :], w)[:, :, 0]
            gb[i] = np.matmul(w, xs[..., None])[..., 0]
            v *= inv_a
            # dh_i/dz = exp(z) (h_{i-1} + B x / A) = exp(z) p, formed in q's
            # buffer: q is spent once w is taken
            r = np.add(h_prev, v, out=q)
            r *= a
            r *= lam
            gd[i] = np.einsum("tlmd,md->tld", r, a_t)
            # dh_i/dA = delta exp(z) p - expm1(z)/A B x / A, which cancels
            # near z = 0: there it is delta exp(z) h_{i-1} + delta^2 phi'(z) B x
            r *= d_row
            w *= v
            r -= w
            if near:
                r[small] = lam[small] * (dz * a[small] * h_prev[small] + series)
            for j in range(t - 1, -1, -1):
                ga += r[j]
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

    return Tensor(y, (delta_grid, A, b_grid, x_grid, c_grid, D, Theta), backward=bwd)
