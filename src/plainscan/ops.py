"""Neural-net primitives built on the gradient tape.

Each function here is a single graph node with a hand-written backward
rule; compositions of :class:`~plainscan.tensor.Tensor` arithmetic live
with their callers.  Both convolutions see their input, forward and
backward, through ``_windows``: one strided view of its padded k x k windows.
``conv2d`` copies that view into im2col columns one block of output rows at
a time, so its forward holds at most ``_COLS_BYTES`` of columns, and its
backward keeps the input instead of the columns.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError
from .tensor import Tensor, _record, no_grad


def activation(x: Tensor, kind: str) -> Tensor:
    if kind == "silu":
        return x.silu()
    if kind == "softplus":
        return x.softplus()
    raise ConfigError(f"unknown activation kind {kind!r} (want 'silu' or 'softplus')")


def _normalize(x):
    """(x - mean) / sqrt(var + 1e-6) over the last axis, and that inverse root."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
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


# The most im2col columns, in bytes, that conv2d's forward forms at once.
# 4 MiB keeps the stem at 224 as fast as one whole GEMM and a toy batch of
# 64 8x8 patchified images in one block.
_COLS_BYTES = 4 << 20


def _windows(x, k, stride, pad):
    """Strided [B,Ho,Wo,C,k,k] view of the k x k windows of [B,H,W,C] zero-padded by
    ``pad``; writeable where its base is, and overlapping only when ``stride < k``."""
    if pad:
        x = np.pad(x, [(0, 0), (pad, pad), (pad, pad), (0, 0)])
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


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int, padding: int = 0) -> Tensor:
    """Dense strided conv, input [B,H,W,Cin], weight [k,k,Cin,Cout].

    The forward never holds the whole im2col matrix.  It copies the
    ``_windows`` view, in (k, k, Cin) order, into one column buffer of at
    most ``_COLS_BYTES`` a block of output rows at a time, and GEMMs each
    block into its slice of the output; a block holds whole images when they
    fit.  OpenBLAS sums each output element of a GEMM in the same order
    whatever its number of rows, so the blocks reproduce one whole GEMM bit
    for bit (``test_conv2d_row_blocks_match_one_gemm_bit_for_bit``).  That
    holds while each block takes the blocked GEMM kernel: a one-row GEMM
    goes to gemv and a very small one to a small-matrix kernel, which may
    round differently.

    The backward keeps the input, not the columns, and re-forms the columns
    once for the weight gradient as one whole GEMM, by the tape's rule that
    a closure reads only its parents' data (see :mod:`plainscan.tensor`).
    The input gradient adds the column gradient into the view of
    a zero buffer one stride x stride block of taps at a time; taps in a
    block never share an input cell, so each add is exact.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be [B,H,W,C], got {x.shape}")
    if w.data.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"conv2d weight must be [k,k,Cin,Cout], got {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeError(f"channel mismatch: input {x.shape} vs weight {w.shape}")
    B, H, W, Cin = x.shape
    k, _, _, Cout = w.shape
    K = k * k * Cin
    # [B, Ho, Wo, k, k, Cin]: the column order of the weight matrix
    win = _windows(x.data, k, stride, padding).transpose(0, 1, 2, 4, 5, 3)
    Ho, Wo = win.shape[1:3]
    wmat = w.data.reshape(K, Cout)
    out_data = np.empty((B, Ho, Wo, Cout), x.dtype)
    rows = max(1, _COLS_BYTES // (Wo * K * x.dtype.itemsize))
    imgs, rows = max(1, rows // Ho), min(rows, Ho)  # whole images per block when they fit
    blocks = [(slice(n, n + imgs), slice(r, r + rows))
              for n in range(0, B, imgs) for r in range(0, Ho, rows)]
    buf = np.empty(win[blocks[0]].size, x.dtype)  # the first block is the largest
    for blk in blocks:
        src, dst = win[blk], out_data[blk]
        cols = buf[: src.size].reshape(src.shape)
        np.copyto(cols, src)
        np.matmul(cols.reshape(-1, K), wmat, out=dst.reshape(-1, Cout))
        dst += b.data
    _record(B * Ho * Wo * K * Cout)

    def bwd(g):
        gflat = g.reshape(-1, Cout)
        cols = _windows(x.data, k, stride, padding).transpose(0, 1, 2, 4, 5, 3).reshape(-1, K)
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
