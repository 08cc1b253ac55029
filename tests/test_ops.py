"""Layer primitives against brute-force numpy oracles."""

import tracemalloc

import numpy as np
import pytest

from plainscan import ops
from plainscan import tensor as tensor_module
from plainscan.errors import ConfigError, ShapeError
from plainscan.model import get_config, stem_layers
from plainscan.tensor import Tensor, count_macs, no_grad


def test_activation_dispatch():
    x = Tensor(np.array([1.0, -1.0]))
    assert np.allclose(ops.activation(x, "silu").data, x.data / (1 + np.exp(-x.data)))
    assert np.allclose(ops.activation(x, "softplus").data, np.log1p(np.exp(x.data)))
    with pytest.raises(ConfigError, match="relu"):
        ops.activation(x, "relu")


def test_layernorm_moments():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((5, 7, 16)) * 3.0 + 2.0)
    out = ops.layernorm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-12
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-5  # eps-limited


def test_layernorm_affine_and_shapes():
    x = Tensor(np.ones((2, 4)))
    g = Tensor(np.full(4, 2.0))
    b = Tensor(np.full(4, -1.0))
    out = ops.layernorm(x, g, b).data
    assert np.allclose(out, -1.0)  # constant rows normalize to zero
    with pytest.raises(ShapeError):
        ops.layernorm(x, Tensor(np.ones(3)), b)


def _sum_of_squares(t):
    return (t * t).sum()


def test_layernorm_grad():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((3, 6)), name="x")
    g = Tensor(rng.standard_normal(6), name="g")
    b = Tensor(rng.standard_normal(6), name="b")
    err = ops.grad_check(lambda x, g, b: _sum_of_squares(ops.layernorm(x, g, b)), [x, g, b])
    assert err < 1e-3


def _same_bits(got, want):
    """Equal values, NaNs and zero signs included."""
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("shape", [(4, 9), (2, 3, 5, 16)])
def test_layernorm_gradients_match_the_closed_form_bit_for_bit(shape):
    # the closed form from xhat and 1/sigma saved at forward time; the
    # backward recomputes them from the input; one row holds a NaN
    rng = np.random.default_rng(12)
    x = rng.standard_normal(shape) * 10
    flat = x.reshape(-1, shape[-1])
    flat[0, :4] = [0.0, -0.0, 40.0, -40.0]
    flat[1] = 0.0
    flat[2, 1] = np.nan
    gamma, beta = rng.standard_normal((2, shape[-1]))
    g = rng.standard_normal(shape)
    g.reshape(-1, shape[-1])[0, :2] = [0.0, -0.0]
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    lead = tuple(range(len(shape) - 1))
    gx = g * gamma
    want_gx = (gx - gx.mean(axis=-1, keepdims=True)
               - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) * inv
    xt, gt, bt = Tensor(x.copy()), Tensor(gamma), Tensor(beta)
    out = ops.layernorm(xt, gt, bt)
    out.backward(g)
    assert _same_bits(out.data, xhat * gamma + beta)
    assert _same_bits(gt.grad, (g * xhat).sum(axis=lead))
    assert _same_bits(bt.grad, g.sum(axis=lead))
    assert _same_bits(xt.grad, want_gx)


@pytest.mark.parametrize("shape,ks", [((2, 5, 6, 3), 3), ((6, 5, 4), 7)])
def test_depthwise_conv_gradients_match_the_closed_form_bit_for_bit(shape, ks):
    # the kernel gradient against the windows saved at forward time, the
    # input gradient as the flipped-kernel correlation; the backward re-forms
    # the windows from the input
    rng = np.random.default_rng(13)
    x = rng.standard_normal(shape)
    x.reshape(-1)[:5] = [0.0, -0.0, 40.0, -40.0, np.nan]
    k = rng.standard_normal((ks, ks, shape[-1]))
    g = rng.standard_normal(shape)
    g.reshape(-1)[:2] = [0.0, -0.0]
    xb, gb = (x, g) if x.ndim == 4 else (x[None], g[None])
    win = ops._windows(xb, ks, 1, (ks - 1) // 2).copy()
    want_gk = np.einsum("bhwc,bhwcij->ijc", gb, win)
    want_gx = ops._depthwise_same(gb, k[::-1, ::-1]).reshape(shape)
    want_out = np.einsum("bhwcij,ijc->bhwc", win, k).reshape(shape)
    xt, kt = Tensor(x.copy()), Tensor(k)
    out = ops.depthwise_conv2d(xt, kt)
    out.backward(g)
    assert _same_bits(out.data, want_out)
    assert _same_bits(kt.grad, want_gk)
    assert _same_bits(xt.grad, want_gx)


@pytest.mark.parametrize("dtype, bits", [(np.float64, np.int64), (np.float32, np.int32)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1, 3])
def test_windows_match_the_np_pad_form_bit_for_bit(dtype, bits, stride, pad):
    x = np.random.default_rng(pad).standard_normal((2, 7, 5, 3)).astype(dtype)
    x.reshape(-1)[:3] = [-0.0, np.nan, np.inf]
    k = 3
    padded = np.pad(x, [(0, 0), (pad, pad), (pad, pad), (0, 0)])
    want = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    got = ops._windows(x, k, stride, pad)
    assert got.dtype == x.dtype
    assert np.array_equal(got.view(bits), want[:, ::stride, ::stride].view(bits))


def _depthwise_oracle(x, k):
    H, W, C = x.shape
    ks = k.shape[0]
    p = (ks - 1) // 2
    out = np.zeros_like(x)
    for i in range(H):
        for j in range(W):
            for di in range(ks):
                for dj in range(ks):
                    si, sj = i + di - p, j + dj - p
                    if 0 <= si < H and 0 <= sj < W:
                        out[i, j] += x[si, sj] * k[di, dj]
    return out


def test_depthwise_conv_matches_quadruple_loop():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 5, 3))
    k = rng.standard_normal((3, 3, 3))
    out = ops.depthwise_conv2d(Tensor(x), Tensor(k)).data
    assert np.abs(out - _depthwise_oracle(x, k)).max() < 1e-12


def test_depthwise_conv_batched_equals_stacked_singles():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 4, 4, 2))
    k = rng.standard_normal((5, 5, 2))
    batched = ops.depthwise_conv2d(Tensor(x), Tensor(k)).data
    singles = np.stack(
        [ops.depthwise_conv2d(Tensor(x[i]), Tensor(k)).data for i in range(2)]
    )
    assert np.abs(batched - singles).max() < 1e-12


def _depthwise_adjoint_oracle(x, k, w):
    """Loop-written gradients of sum(w * conv(x, k)) with respect to x and k."""
    H, W, C = x.shape
    ks = k.shape[0]
    p = (ks - 1) // 2
    gx, gk = np.zeros_like(x), np.zeros_like(k)
    for i in range(H):
        for j in range(W):
            for di in range(ks):
                for dj in range(ks):
                    si, sj = i + di - p, j + dj - p
                    if 0 <= si < H and 0 <= sj < W:
                        gx[si, sj] += w[i, j] * k[di, dj]
                        gk[di, dj] += w[i, j] * x[si, sj]
    return gx, gk


def _rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("shape,ks", [((2, 4, 4, 3), 7), ((6, 5, 3), 3), ((6, 5, 3), 5)])
def test_depthwise_conv_exact_output_and_gradients(shape, ks):
    # k=7 on a 4x4 grid: the kernel is wider than the grid, as in toy-train
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((ks, ks, shape[-1]))
    w = rng.standard_normal(shape)  # a random weighting of the output, not .sum()
    xt, kt = Tensor(x), Tensor(k)
    with count_macs() as fwd:
        out = ops.depthwise_conv2d(xt, kt)
    with count_macs() as bwd:
        out.backward(w)
    xs, ws = (x, w) if x.ndim == 4 else (x[None], w[None])
    B, H, W, C = xs.shape
    assert fwd.total == B * H * W * ks * ks * C and bwd.total == 0
    want_out = np.stack([_depthwise_oracle(xb, k) for xb in xs]).reshape(shape)
    grads = [_depthwise_adjoint_oracle(xb, k, wb) for xb, wb in zip(xs, ws)]
    want_gx = np.stack([gx for gx, _ in grads]).reshape(shape)
    want_gk = sum(gk for _, gk in grads)
    assert _rel_err(out.data, want_out) < 1e-12
    assert _rel_err(xt.grad, want_gx) < 1e-12
    assert _rel_err(kt.grad, want_gk) < 1e-12


def test_depthwise_conv_validation():
    with pytest.raises(ConfigError, match="odd"):
        ops.depthwise_conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((2, 2, 2))))
    with pytest.raises(ShapeError, match="channel"):
        ops.depthwise_conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((3, 3, 5))))
    with pytest.raises(ShapeError):
        ops.depthwise_conv2d(Tensor(np.zeros((4, 4))), Tensor(np.zeros((3, 3, 4))))


def _conv_oracle(x, w, b, stride, padding, g=None):
    """Loop-written conv output; given an output weighting ``g``, also the
    gradients of sum(g * conv(x, w, b)) with respect to x, w and b."""
    B, H, W, Cin = x.shape
    k, _, _, Cout = w.shape
    xp = np.pad(x, [(0, 0), (padding, padding), (padding, padding), (0, 0)])
    Ho = (xp.shape[1] - k) // stride + 1
    Wo = (xp.shape[2] - k) // stride + 1
    out = np.zeros((B, Ho, Wo, Cout))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for n in range(B):
        for i in range(Ho):
            for j in range(Wo):
                rows = slice(i * stride, i * stride + k)
                cols = slice(j * stride, j * stride + k)
                out[n, i, j] = np.tensordot(xp[n, rows, cols], w, axes=3)
                if g is not None:
                    gxp[n, rows, cols] += np.tensordot(w, g[n, i, j], axes=([3], [0]))
                    gw += np.multiply.outer(xp[n, rows, cols], g[n, i, j])
    out = out + (0 if b is None else b)
    if g is None:
        return out
    gx = gxp[:, padding : padding + H, padding : padding + W]
    return out, gx, gw, g.sum(axis=(0, 1, 2))


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (4, 0)])
def test_conv2d_matches_loop_oracle(stride, padding):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 8, 8, 3))
    w = rng.standard_normal((3, 3, 3, 5))
    b = rng.standard_normal(5)
    out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
    assert np.abs(out - _conv_oracle(x, w, b, stride, padding)).max() < 1e-12


@pytest.mark.parametrize("k,stride,padding", [(3, 2, 1), (8, 8, 0), (2, 3, 0), (5, 2, 2),
                                              (3, 1, 1), (4, 2, 0)])
def test_conv2d_exact_output_and_gradients(k, stride, padding):
    # 18 x 13 leaves trailing input rows or columns that no window reaches
    # for every stride above 1; those cells must get a zero gradient
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 18, 13, 3))
    w = rng.standard_normal((k, k, 3, 4))
    b = rng.standard_normal(4)
    xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
    out = ops.conv2d(xt, wt, bt, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape)  # a random weighting of the output, not .sum()
    out.backward(g)
    want_out, want_gx, want_gw, want_gb = _conv_oracle(x, w, b, stride, padding, g)
    assert _rel_err(out.data, want_out) < 1e-12
    assert _rel_err(xt.grad, want_gx) < 1e-12
    assert _rel_err(wt.grad, want_gw) < 1e-12
    assert _rel_err(bt.grad, want_gb) < 1e-12


def test_conv2d_rejects_an_input_smaller_than_its_kernel():
    x, w, b = Tensor(np.zeros((1, 2, 9, 3))), Tensor(np.zeros((5, 5, 3, 4))), Tensor(np.zeros(4))
    with pytest.raises(ShapeError, match="smaller than its 5x5 kernel"):
        ops.conv2d(x, w, b, stride=1, padding=1)
    assert ops.conv2d(x, w, b, stride=1, padding=2).shape == (1, 2, 9, 4)


@pytest.mark.parametrize("shape", [(0, 6, 6, 3), (2, 6, 6, 0)], ids=["no-images", "no-channels"])
def test_conv2d_rejects_an_empty_input(shape):
    # a block of zero images (or of zero-byte rows) would never advance
    x = Tensor(np.zeros(shape))
    w, b = Tensor(np.zeros((3, 3, shape[3], 4))), Tensor(np.zeros(4))
    with pytest.raises(ShapeError, match="none of them 0"):
        ops.conv2d(x, w, b, stride=1, padding=1)


def test_conv2d_grad():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((1, 6, 6, 2)), name="x")
    w = Tensor(rng.standard_normal((3, 3, 2, 3)), name="w")
    b = Tensor(rng.standard_normal(3), name="b")
    err = ops.grad_check(
        lambda x, w, b: _sum_of_squares(ops.conv2d(x, w, b, stride=2, padding=1)), [x, w, b]
    )
    assert err < 1e-3


def _whole_gemm_conv(x, w, b, stride, padding):
    """conv2d's forward as one im2col GEMM over every output pixel at once."""
    k, _, cin, cout = w.shape
    win = ops._windows(x, k, stride, padding).transpose(0, 1, 2, 4, 5, 3)
    out = (win.reshape(-1, k * k * cin) @ w.reshape(-1, cout)).reshape(*win.shape[:3], cout)
    out += b
    return out


@pytest.mark.parametrize("shape,k,stride,padding,cout", [
    ((2, 18, 26, 3), 3, 2, 1, 4),
    ((2, 18, 26, 3), 8, 8, 0, 4),
    ((2, 18, 26, 3), 3, 1, 1, 4),
    ((1, 56, 56, 96), 3, 2, 1, 192),  # the second L1 stem conv at 224
    ((2, 17, 25, 3), 3, 2, 1, 4),  # the last block's slab ends in the bottom padding
    ((2, 17, 25, 3), 5, 2, 2, 4),  # two rows of padding on each side
])
@pytest.mark.parametrize("rows", [0.5, 2, "image-1", "image"])
def test_conv2d_row_blocks_match_one_gemm_bit_for_bit(monkeypatch, shape, k, stride, padding,
                                                     cout, rows):
    rng = np.random.default_rng(13)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((k, k, shape[3], cout))
    b = rng.standard_normal(cout)
    want = _whole_gemm_conv(x, w, b, stride, padding)
    ho, wo = want.shape[1:3]
    rows = {"image-1": ho - 1, "image": ho}.get(rows, rows)  # image-1 ends a block mid-image
    monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", int(rows * wo * k * k * shape[3] * 8))
    row_slab, slabs = ops._row_slab, []  # every block, padded or not, fills the slab
    monkeypatch.setattr(ops, "_row_slab", lambda *a: slabs.append(a[2]) or row_slab(*a))
    out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
    assert np.array_equal(out.view(np.int64), want.view(np.int64)), (
        "conv2d's row blocks differ from one whole GEMM: either a block misses rows, or this "
        "BLAS sums a GEMM's output rows in an order that depends on how many rows it gets"
    )
    assert slabs


_FLOAT_BITS = {np.float32: np.int32, np.float64: np.int64}


@pytest.mark.parametrize("dtype", _FLOAT_BITS)
@pytest.mark.parametrize("shape, rows", [
    ((2, 18, 26, 3), 4),  # 9 output rows: blocks of 4, 4 and 1
    ((2, 18, 26, 3), 1),  # one output row per block
    ((3, 18, 26, 3), 18),  # two whole images, then one
    ((2, 17, 25, 3), 3),  # the first slab starts, and the last ends, in the padding
], ids=["uneven", "one-row", "whole-images-batch-3", "slab-in-padding"])
def test_conv2d_with_silu_matches_conv2d_then_silu_bit_for_bit(monkeypatch, dtype, shape, rows):
    # The fused node in row blocks against conv2d then Tensor.silu in one
    # block; the fused backward recomputes the pre-activation from its columns.
    B, H, W, _ = shape
    ho, wo = (H - 1) // 2 + 1, (W - 1) // 2 + 1
    rng = np.random.default_rng(15)
    x, w, b, g = (rng.standard_normal(s).astype(dtype)
                  for s in (shape, (3, 3, 3, 5), (5,), (B, ho, wo, 5)))  # g weights the output

    def run(silu):
        xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
        y = ops.conv2d(xt, wt, bt, stride=2, padding=1, silu=silu)
        y = y if silu else y.silu()
        y.backward(g)
        return [y.data, xt.grad, wt.grad, bt.grad]

    assert tensor_module._BLOCK_BYTES >= B * ho * wo * 27 * x.itemsize
    want = run(False)
    monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", rows * wo * 27 * x.itemsize)
    for name, got, ref in zip(("out", "x", "w", "b"), run(True), want):
        assert got.dtype == dtype and got.shape == ref.shape, name
        assert np.array_equal(got.view(_FLOAT_BITS[dtype]), ref.view(_FLOAT_BITS[dtype])), name


def test_conv2d_keeps_no_columns_after_its_forward():
    # Beside its output, the forward holds one block of columns and one
    # block's padded input rows, never a padded copy of the whole input; the
    # silu runs in the spent columns, and a taped node keeps only its output.
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((1, 56, 56, 96)))
    w = Tensor(rng.standard_normal((3, 3, 96, 192)))
    b = Tensor(rng.standard_normal(192))
    out_bytes = 28 * 28 * 192 * 8
    rows = tensor_module._BLOCK_BYTES // (28 * 864 * 8)
    slab_bytes = (2 * (rows - 1) + 3) * 58 * 96 * 8
    slack = 64 << 10
    assert tensor_module._BLOCK_BYTES < 28 * 28 * 864 * 8  # the whole columns exceed one block
    for silu in (False, True):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ops.conv2d(x, w, b, stride=2, padding=1, silu=silu)  # taped
            kept = tracemalloc.get_traced_memory()[0] - before
            del out
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            with no_grad():
                out = ops.conv2d(x, w, b, stride=2, padding=1, silu=silu)
            peak = tracemalloc.get_traced_memory()[1] - before
            del out
        finally:
            tracemalloc.stop()
        assert kept <= out_bytes + slack, silu
        assert peak <= out_bytes + slab_bytes + tensor_module._BLOCK_BYTES + slack, silu


def test_l1_stem_convs_at_224_run_these_row_blocks(monkeypatch):
    # Each block's output rows, read off the slab it fills (every L1 stem
    # conv is 3x3 with stride 2): tensor.block_steps of one output row's Wo x
    # k x k x Cin float32 columns, at most the image.  README quotes these.
    blocks, row_slab = [], ops._row_slab
    monkeypatch.setattr(ops, "_row_slab", lambda slab, *a: blocks[-1].append(
        (slab.shape[1] - 3) // 2 + 1) or row_slab(slab, *a))
    x = Tensor(np.zeros((1, 224, 224, 3), np.float32))
    with no_grad():
        for _, k, stride, padding, c_in, c_out, silu in stem_layers(get_config("L1")):
            blocks.append([])
            w = Tensor(np.zeros((k, k, c_in, c_out), np.float32))
            x = ops.conv2d(x, w, Tensor(np.zeros(c_out, np.float32)), stride, padding, silu)
    assert blocks == [[112], [8] * 7, [8, 8, 8, 4], [14]]


def test_linear_matches_manual():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 5))
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal(4)
    out = ops.linear(Tensor(x), Tensor(w), Tensor(b)).data
    assert np.abs(out - (x @ w + b)).max() < 1e-12
    out = ops.linear(Tensor(x), Tensor(w)).data
    assert np.abs(out - x @ w).max() < 1e-12


def test_cross_entropy_value_and_grad():
    logits = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
    labels = np.array([0, 2])
    t = Tensor(logits.copy(), name="logits")
    loss = ops.cross_entropy(t, labels)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.log(p[[0, 1], labels]).mean()
    assert float(loss.data) == pytest.approx(expected, abs=1e-12)
    loss.backward()
    assert np.abs(t.grad.sum(axis=1)).max() < 1e-12  # rows of softmax grads sum to 0
    err = ops.grad_check(lambda t: ops.cross_entropy(t, labels), [t])
    assert err < 1e-3


def test_cross_entropy_is_shift_invariant_and_stable():
    logits = np.array([[1000.0, 999.0]])
    loss = ops.cross_entropy(Tensor(logits), np.array([0]))
    assert float(loss.data) == pytest.approx(np.log1p(np.exp(-1.0)), abs=1e-12)


def test_cross_entropy_zero_loss_is_positive_zero():
    loss = ops.cross_entropy(Tensor(np.array([[1000.0, 0.0]])), [0])
    assert loss.data == 0.0
    assert not np.signbit(loss.data)


_OPS = {  # the op on x [2, 5, 5, 4], w and b, and the shapes of w and b
    "layernorm": (lambda x, w, b: ops.layernorm(x, w, b), (4,), (4,)),
    "depthwise_conv2d": (lambda x, w, b: ops.depthwise_conv2d(x, w), (3, 3, 4), None),
    "conv2d": (lambda x, w, b: ops.conv2d(x, w, b, stride=2, padding=1), (3, 3, 4, 2), (2,)),
    "conv2d_silu": (lambda x, w, b: ops.conv2d(x, w, b, stride=2, padding=1, silu=True),
                    (3, 3, 4, 2), (2,)),
    "linear": (lambda x, w, b: ops.linear(x, w, b), (4, 2), (2,)),
    "cross_entropy": (lambda x, w, b: ops.cross_entropy(x.reshape(50, 4), np.arange(50) % 4),
                      None, None),
}


@pytest.mark.parametrize("op, w_shape, b_shape", _OPS.values(), ids=_OPS.keys())
def test_every_op_maps_float32_inputs_to_float32_outputs_and_gradients(op, w_shape, b_shape,
                                                                       float32_only):
    rng = np.random.default_rng(10)
    x, w, b = (None if shape is None else Tensor(rng.standard_normal(shape).astype(np.float32))
               for shape in ((2, 5, 5, 4), w_shape, b_shape))
    with float32_only():
        y = op(x, w, b)
        y.backward(np.ones_like(y.data))
    assert y.dtype == np.float32
    assert all(t.grad.dtype == np.float32 for t in (x, w, b) if t is not None)


def test_grad_check_reports_worst_coordinate():
    x = Tensor(np.array([0.5, -0.3]), name="x")
    assert ops.grad_check(lambda x: (x * x).sum(), [x]) < 1e-6


def test_grad_check_subsampling_is_deterministic():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal(50), name="x")
    e1 = ops.grad_check(lambda x: (x * x).sum(), [x], max_coords_per_input=5, seed=3)
    e2 = ops.grad_check(lambda x: (x * x).sum(), [x], max_coords_per_input=5, seed=3)
    assert e1 == e2
