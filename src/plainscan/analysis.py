"""Analytic parameter, MAC and activation-memory accounting.

One fused multiply-add counts as one MAC; activations and special
functions are costed at their per-element equivalents recorded by the
tensor engine, so :func:`forward_stages` reproduces an instrumented forward
pass stage by stage.  Buckets follow the token/channel/other decomposition:
the scan recurrence is token mixing, the block's input and output
projections are channel mixing, and everything else (tokenizer, scan
parameter projections, convs, norms, gates, head) is "other".  Each stage
also counts the values it holds at once, and the largest of those is
:func:`peak_activation_bytes`, a lower bound on a ``no_grad`` forward's
peak that the stem sets for the L presets.

For the attention baseline the whole multi-head attention module
(QKV/out projections plus the two quadratic matmuls) is token mixing and
the MLP is channel mixing; only matmuls are costed, matching how the
reference numbers for plain ViTs are conventionally measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_integer
from .model import _CONV_K, ModelConfig, param_spec, stem_layers


@dataclass(frozen=True)
class FlopsReport:
    token_mixing: int
    channel_mixing: int
    other: int
    resolution: tuple
    model_id: str

    def __post_init__(self):
        if min(self.token_mixing, self.channel_mixing, self.other) < 0:
            raise ConfigError("MAC counts must be non-negative")

    @property
    def total(self) -> int:
        return self.token_mixing + self.channel_mixing + self.other

    def rows(self):
        return [
            ("token_mixing", self.token_mixing),
            ("channel_mixing", self.channel_mixing),
            ("other", self.other),
            ("total", self.total),
        ]


@dataclass(frozen=True)
class AttentionBaselineConfig:
    depth: int = 12
    d_model: int = 224
    mlp_ratio: int = 4
    patch: int = 16
    num_heads: int = 4
    num_classes: int = 1000
    model_id: str = "deit_c224"


DEIT_C224 = AttentionBaselineConfig()


def count_params(cfg: ModelConfig):
    """Per-tensor table [(name, shape, count)] plus the grand total."""
    table = [(name, shape, math.prod(shape)) for name, shape in param_spec(cfg)]
    return table, sum(c for _, _, c in table)


def _check_resolution(resolution, patch):
    """``resolution`` as Python ints, on which no count wraps, and its token count."""
    for extent in resolution:
        check_integer("a resolution extent", extent)
    h, w = map(int, resolution)
    if h <= 0 or w <= 0:
        raise ConfigError(f"resolution {h}x{w} must be positive")
    if h % patch or w % patch:
        raise ConfigError(
            f"resolution {h}x{w} must be a multiple of the downsample factor {patch}"
        )
    return (h, w), (h // patch) * (w // patch)


def forward_stages(cfg: ModelConfig, resolution):
    """The forward of one image as ``(name, bucket, macs, held)`` rows, in the
    order it runs them; ``bucket`` is the :class:`FlopsReport` field the row
    counts toward.  A silu costs 2 per element, and adds cost nothing.  A stem
    conv's row holds its silu, ``conv`` its silu, ``dt_proj`` its softplus and
    ``gate`` the silu and the multiply.

    ``held`` counts the values the stage holds at once: its operands and
    output (parameters aside, the pos-embed resample matrix included), the
    depthwise conv's zero-padded input, and on every block row the block
    input, held for the residual.  A stem conv holds its input and its output
    alone: it pads one block of input rows at a time and applies its silu to
    each block of output in place, and those block buffers are left out, as
    its column buffer is.  ``conv`` and ``dt_proj`` hold the larger of their
    op and their activation's input and output, ``gate`` holds both of its
    operands, the silu and the product, and ``scan`` also holds the K = 4
    per-path copies of its output; it gathers the paths' copies of its inputs
    a block of steps at a time, and those block buffers are left out."""
    resolution, n = _check_resolution(resolution, cfg.patch)
    d, di, m, r, k = cfg.d_model, cfg.d_inner, cfg.state_size, cfg.rank, _CONV_K
    h, w = resolution
    rows = []
    for name, size, s, p, c_in, c_out, silu_after in stem_layers(cfg):
        held = h * w * c_in
        h, w = (h + 2 * p - size) // s + 1, (w + 2 * p - size) // s + 1
        held += h * w * c_out
        rows.append((name, "other", h * w * (size * size * c_in + 2 * silu_after) * c_out, held))
    # off the native grid, even at its token count, the forward resamples
    # pos_embed with one matmul (resolutions and img_size are multiples of patch)
    if resolution != (cfg.img_size, cfg.img_size):
        rows.append(("pos_embed", "other", n * cfg.grid**2 * d, n * cfg.grid**2 + n * d))
    padded = (h + k - 1) * (w + k - 1) * di  # the depthwise conv's padded input
    block = [  # held beside the block input, which is also norm's input
        ("norm", "other", 4 * n * d, n * d),
        ("in_proj", "channel_mixing", n * d * 2 * di, n * d + 2 * n * di),
        ("conv", "other", n * k * k * di + 2 * n * di, 2 * n * di + padded),
        ("x_proj", "other", n * di * (r + 2 * m), n * di + n * (r + 2 * m)),  # B, C and Delta's
        ("dt_proj", "other", n * r * di + n * di, 2 * n * di),  # the softplus holds more
        # delta, x, B, C and the output on the grid, and the K = 4 paths' outputs
        ("scan", "token_mixing", 4 * n * (10 * di * m + di), n * (3 * di + 2 * m) + 4 * n * di),
        ("gate", "other", 2 * n * di + n * di, 4 * n * di),  # y, z, silu(z) and the product
        ("out_proj", "channel_mixing", n * di * d, n * di + n * d),
    ]
    for i in range(cfg.depth):
        rows += [(f"blocks.{i}.{name}", bucket, macs, n * d + held)
                 for name, bucket, macs, held in block]
    return rows + [("norm", "other", 4 * n * d, 2 * n * d), ("pool", "other", d, n * d + d),
                   ("head", "other", d * cfg.num_classes, d + cfg.num_classes)]


def count_flops(cfg: ModelConfig, resolution) -> FlopsReport:
    """MACs of one forward pass of one image, :func:`forward_stages` summed per
    bucket.  Off the native grid the forward resamples pos_embed once per batch,
    so a batch of B meters B times this total less B - 1 resamples."""
    resolution = _check_resolution(resolution, cfg.patch)[0]
    buckets = dict.fromkeys(("token_mixing", "channel_mixing", "other"), 0)
    for _, bucket, macs, _ in forward_stages(cfg, resolution):
        buckets[bucket] += macs
    return FlopsReport(**buckets, resolution=resolution, model_id=f"d{cfg.depth}w{cfg.d_model}")


def count_flops_attention(cfg: AttentionBaselineConfig, resolution) -> FlopsReport:
    """Analytic ViT-style baseline; matmul MACs only."""
    resolution, n = _check_resolution(resolution, cfg.patch)
    d = cfg.d_model
    token = cfg.depth * (2 * n * n * d + 4 * n * d * d)
    channel = cfg.depth * 2 * cfg.mlp_ratio * n * d * d
    other = n * cfg.patch * cfg.patch * 3 * d + d * cfg.num_classes
    return FlopsReport(
        token_mixing=token,
        channel_mixing=channel,
        other=other,
        resolution=tuple(resolution),
        model_id=cfg.model_id,
    )


def peak_activation_bytes(cfg, resolution) -> int:
    """Bytes the widest stage of one image's forward holds at once: the
    itemsize times the largest ``held`` of :func:`forward_stages`.

    Every held value scales with the batch, so the figure times the batch is
    a lower bound on a forward's peak; it leaves out the conv's column and
    slab buffers and the scan's block buffers, which do not.  Measured with
    tracemalloc over ``no_grad`` forwards it reads 0.13-0.58x the peak at
    toy, where the scan's block buffers set it, and for L1 0.44x at 112,
    0.50x at 128, 0.76x at 224 and 0.92x at 448 in float32, and 0.86x at 224
    in float64.  From 64 up the stem's second conv sets it for the L presets,
    so L1, L2 and L3 read the same there.  The attention baseline counts
    4-byte values, the L presets' dtype.
    """
    if isinstance(cfg, AttentionBaselineConfig):
        resolution, n = _check_resolution(resolution, cfg.patch)
        attn = 2 * cfg.num_heads * n * n + 2 * n * cfg.d_model
        embed = resolution[0] * resolution[1] * 3 + n * cfg.d_model
        return 4 * max(attn, embed)
    held = max(held for *_, held in forward_stages(cfg, resolution))
    return np.dtype(cfg.dtype).itemsize * held


def scaling_curve(configs, resolutions):
    """Rows of (model_id, side, token, channel, other, total, peak_bytes), with
    ``peak_bytes`` the :func:`peak_activation_bytes` of one image: for the L
    presets the float32 stem's, 0.44-0.92x a measured peak from 112 to 448."""
    rows = []
    for cfg in configs:
        for side in resolutions:
            res = (side, side)
            if isinstance(cfg, AttentionBaselineConfig):
                rep = count_flops_attention(cfg, res)
            else:
                rep = count_flops(cfg, res)
            rows.append(
                (
                    rep.model_id,
                    side,
                    rep.token_mixing,
                    rep.channel_mixing,
                    rep.other,
                    rep.total,
                    peak_activation_bytes(cfg, res),
                )
            )
    return rows
