"""Neural-net primitives built on the gradient tape.

Each function here is a single graph node with a hand-written backward
rule; compositions of :class:`~plainscan.tensor.Tensor` arithmetic live
with their callers.  Both convolutions see their input through
``_windows``: one strided view of its padded k x k windows.  ``conv2d``'s
forward runs one block of output rows at a time: it zero-pads only the
input rows that block reads, as a slab, and copies the windows of that slab
into im2col columns, so it holds at most ``tensor._BLOCK_BYTES`` of columns
and one block's slab, never a padded copy of its whole input.  A stem conv
and the silu after it are one ``conv2d`` node, which applies the silu to
each block of output in place, so the stem keeps no pre-activation.  Its
backward keeps the input instead of the columns, and re-derives the
pre-activation.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError
from .tensor import Tensor, _record, _silu, _silu_grad, block_steps, no_grad


def activation(x: Tensor, kind: str) -> Tensor:
    if kind == "silu":
        return x.silu()
    if kind == "softplus":
        return x.softplus()
    raise ConfigError(f"unknown activation kind {kind!r} (want 'silu' or 'softplus')")


def _normalize(x):
    """(x - mean) / sqrt(var + 1e-6) over the last axis, and that inverse root.

    Raises when a variance overflows (float32 inputs past about 1.8e19),
    which would make the inverse root 0 and the output the bias; a NaN
    passes through to the output.
    """
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    if np.isinf(var).any():
        raise NumericalError(f"layernorm: the variance overflows {x.dtype}")
    inv = 1.0 / np.sqrt(var + 1e-6)
    return (x - mu) * inv, inv


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine.

    The backward recomputes the normalized input from ``x.data``.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layernorm affine params must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    y = _normalize(x.data)[0]
    y *= gamma.data
    y += beta.data
    _record(4 * x.size)

    def bwd(g):
        xhat, inv = _normalize(x.data)
        lead = tuple(range(g.ndim - 1))
        gamma._accumulate((g * xhat).sum(axis=lead), fresh=True)
        beta._accumulate(g.sum(axis=lead), fresh=True)
        gx = g * gamma.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        x._accumulate((gx - m1 - xhat * m2) * inv, fresh=True)

    return Tensor(y, (x, gamma, beta), backward=bwd)


def _windows(x, k, stride, pad):
    """Strided [B,Ho,Wo,C,k,k] view of the k x k windows of [B,H,W,C] zero-padded by
    ``pad``; writeable where its base is, and overlapping only when ``stride < k``."""
    if pad:
        B, H, W, C = x.shape
        padded = np.zeros((B, H + 2 * pad, W + 2 * pad, C), x.dtype)
        padded[:, pad : pad + H, pad : pad + W] = x
        x = padded
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2), writeable=True)
    return win[:, ::stride, ::stride]


def _depthwise_same(x, kernel):
    """'Same' per-channel correlation of [B,H,W,C] with [k,k,C]."""
    k = kernel.shape[0]
    return np.einsum("bhwcij,ijc->bhwc", _windows(x, k, 1, (k - 1) // 2), kernel)


def depthwise_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 2-D 'same' correlation; accepts [H,W,C] or [B,H,W,C].

    One einsum over a strided view of the zero-padded k x k windows. For odd
    k the adjoint of a 'same' correlation is the same correlation with the
    kernel flipped, so the input gradient is the forward applied to ``g``;
    the kernel gradient is one einsum of ``g`` against the same windows,
    which the backward re-forms from ``x.data``.
    """
    if kernel.data.ndim != 3 or kernel.shape[0] != kernel.shape[1]:
        raise ShapeError(f"depthwise kernel must be [k,k,C], got {kernel.shape}")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"depthwise kernel extent must be odd, got {k}")
    if x.data.ndim not in (3, 4):
        raise ShapeError(f"depthwise_conv2d input must be [H,W,C] or [B,H,W,C], got {x.shape}")
    if x.shape[-1] != kernel.shape[-1]:
        raise ShapeError(f"channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    hwc = x.shape[-3:]  # an [H,W,C] input runs as a batch of one
    _record(x.size * k * k)
    y = _depthwise_same(x.data.reshape(-1, *hwc), kernel.data).reshape(x.shape)

    def bwd(g):
        gb = g.reshape(-1, *hwc)
        win = _windows(x.data.reshape(-1, *hwc), k, 1, (k - 1) // 2)
        kernel._accumulate(np.einsum("bhwc,bhwcij->ijc", gb, win), fresh=True)
        del win  # before the input gradient pads g
        x._accumulate(_depthwise_same(gb, kernel.data[::-1, ::-1]).reshape(x.shape), fresh=True)

    return Tensor(y, (x, kernel), backward=bwd)


def _row_slab(slab, x, lo, pad):
    """Fill [B,n,W+2*pad,C] ``slab`` with input rows ``lo:lo+n`` of [B,H,W,C] ``x``,
    zero-padded by ``pad`` columns on each side and by zero rows outside ``0:H``."""
    H, W = x.shape[1:3]
    top, bottom = max(0, -lo), min(lo + slab.shape[1], H) - lo
    slab[:, :top] = 0
    slab[:, bottom:] = 0
    slab[:, top:bottom, :pad] = 0
    slab[:, top:bottom, pad + W :] = 0
    slab[:, top:bottom, pad : pad + W] = x[:, lo + top : lo + bottom]


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int, padding: int = 0,
           silu: bool = False) -> Tensor:
    """Dense strided conv, input [B,H,W,Cin], weight [k,k,Cin,Cout], with
    ``silu`` applied to its output in the same node.

    The forward never holds the whole im2col matrix, nor a padded copy of
    the input.  It runs a block of output rows at a time, as many as
    ``tensor.block_steps`` fits in one column buffer, and holds whole images
    when they fit.  Each block zero-pads only the input rows it reads into
    one slab buffer, copies the ``_windows`` view of that slab, in (k, k,
    Cin) order, into the column buffer, and GEMMs it into its slice of the
    output; with ``silu`` it then applies :meth:`Tensor.silu`'s formula,
    ``tensor._silu``, to that slice in place.  OpenBLAS sums each output
    element of a GEMM in the same order whatever its number of rows, so the
    blocks reproduce one whole GEMM bit for bit
    (``test_conv2d_row_blocks_match_one_gemm_bit_for_bit``).  That holds
    while each block takes the blocked GEMM kernel: a one-row GEMM goes to
    gemv and a very small one to a small-matrix kernel, which may round
    differently.

    The backward keeps the input, not the columns or the pre-activation,
    and re-forms the columns once for the weight gradient as one whole GEMM,
    by the tape's rule that a closure reads only its parents' data (see
    :mod:`plainscan.tensor`).  With ``silu`` it first recomputes the
    pre-activation from those columns and applies silu's backward, so the
    output and all three gradients equal ``conv2d(...).silu()``'s bit for
    bit.  The input gradient adds the column gradient into the view of a
    zero buffer one stride x stride block of taps at a time; taps in a
    block never share an input cell, so each add is exact.
    """
    if x.data.ndim != 4 or 0 in x.shape:
        raise ShapeError(f"conv2d input must be [B,H,W,C], none of them 0, got {x.shape}")
    if w.data.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"conv2d weight must be [k,k,Cin,Cout], got {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeError(f"channel mismatch: input {x.shape} vs weight {w.shape}")
    B, H, W, Cin = x.shape
    k, _, _, Cout = w.shape
    K = k * k * Cin
    Ho, Wo = ((n + 2 * padding - k) // stride + 1 for n in (H, W))
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d input {x.shape} padded by {padding} is smaller than "
                         f"its {k}x{k} kernel")
    wmat = w.data.reshape(K, Cout)
    out_data = np.empty((B, Ho, Wo, Cout), x.dtype)
    rows = block_steps(Wo * K * x.dtype.itemsize, 1)
    imgs, rows = min(B, max(1, rows // Ho)), min(rows, Ho)  # whole images per block when they fit
    # each block's input rows, padded; its windows are a block's columns
    slab = np.empty((imgs, (rows - 1) * stride + k, W + 2 * padding, Cin), x.dtype)
    win = _windows(slab, k, stride, 0).transpose(0, 1, 2, 4, 5, 3)  # the weight matrix's order
    cols = np.empty((imgs, rows, Wo, k, k, Cin), x.dtype)
    spare = cols.reshape(-1)
    for n in range(0, B, imgs):
        for r in range(0, Ho, rows):
            dst = out_data[n : n + imgs, r : r + rows]
            nb, rb = dst.shape[:2]
            _row_slab(slab[:nb, : (rb - 1) * stride + k], x.data[n : n + nb],
                      r * stride - padding, padding)
            blk = cols[:nb, :rb]
            np.copyto(blk, win[:nb, :rb])
            np.matmul(blk.reshape(-1, K), wmat, out=dst.reshape(-1, Cout))
            dst += b.data
            if silu:  # Tensor.silu's formula, through the spent columns
                flat = dst.reshape(-1)
                for i in range(0, flat.size, spare.size):
                    part = flat[i : i + spare.size]
                    _silu(part, spare[: part.size], part)
    _record(out_data.size * (K + 2 * silu))

    def bwd(g):
        cols = _windows(x.data, k, stride, padding).transpose(0, 1, 2, 4, 5, 3).reshape(-1, K)
        if silu:
            pre = cols @ wmat
            pre += b.data
            g = _silu_grad(pre.reshape(g.shape), g)
            del pre
        gflat = g.reshape(-1, Cout)
        w._accumulate((cols.T @ gflat).reshape(w.shape), fresh=True)
        del cols
        b._accumulate(gflat.sum(axis=0), fresh=True)
        gcols = (gflat @ wmat.T).reshape(B, Ho, Wo, k, k, Cin).transpose(0, 1, 2, 5, 3, 4)
        gxp = np.zeros((B, H + 2 * padding, W + 2 * padding, Cin), x.dtype)
        gwin = _windows(gxp, k, stride, 0)
        for i in range(0, k, stride):
            for j in range(0, k, stride):
                block = (..., slice(i, i + stride), slice(j, j + stride))
                gwin[block] += gcols[block]
        x._accumulate(gxp[:, padding : padding + H, padding : padding + W], fresh=True)

    return Tensor(out_data, (x, w, b), backward=bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the last axis of an arbitrarily batched input."""
    lead = x.shape[:-1]
    out = x.reshape(-1, x.shape[-1]) @ w
    if b is not None:
        out = out + b.expand(out.shape)
    return out.reshape(*lead, w.shape[1])


def _shifted_logsumexp(a):
    """Rows of [B,K] shifted by their max, and the log-sum-exp of each shifted row."""
    z = a - a.max(axis=1, keepdims=True)
    return z, np.log(np.exp(z).sum(axis=1, keepdims=True))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy; logits [B,K], integer labels [B]."""
    labels = np.asarray(labels)
    B, K = logits.shape
    z, lse = _shifted_logsumexp(logits.data)
    _record(3 * B * K)

    def bwd(g):
        z, lse = _shifted_logsumexp(logits.data)
        probs = np.exp(z - lse)
        probs[np.arange(B), labels] -= 1.0
        logits._accumulate(g * probs / B, fresh=True)

    # lse - z, not -logp: a zero loss is +0.0 rather than -0.0
    return Tensor((lse[:, 0] - z[np.arange(B), labels]).mean(), (logits,), backward=bwd)


def grad_check(f, inputs, max_coords_per_input=None, seed=0):
    """Max relative error between tape gradients and central differences.

    ``f`` maps the given leaf tensors to a scalar Tensor.  The analytic
    pass is taped; the finite-difference probes run under ``no_grad``.
    Each probed coordinate is perturbed by ``1e-5 * max(1, |x|)``.  With
    ``max_coords_per_input`` set, a deterministic subsample of coordinates
    is probed per input (needed for whole-model checks).
    """
    for t in inputs:
        t.grad = None
    out = f(*inputs)
    if not np.isfinite(out.data).all():
        raise NumericalError("grad_check: objective is not finite at the base point")
    out.backward()
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t, ga in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        gflat = ga.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_input is not None and flat.size > max_coords_per_input:
            coords = rng.choice(flat.size, size=max_coords_per_input, replace=False)
        for i in coords:
            x0 = flat[i]
            step = 1e-5 * max(1.0, abs(x0))
            with no_grad():
                flat[i] = x0 + step
                yp = float(f(*inputs).data)
                flat[i] = x0 - step
                ym = float(f(*inputs).data)
                flat[i] = x0
            num = (yp - ym) / (2.0 * step)
            if not np.isfinite(num):
                raise NumericalError(
                    f"non-finite central difference at input {t.name or '?'} coordinate {int(i)}"
                )
            rel = abs(gflat[i] - num) / max(abs(gflat[i]), abs(num), 1e-8)
            worst = max(worst, rel)
    return worst
