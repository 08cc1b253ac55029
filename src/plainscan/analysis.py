"""Analytic parameter and MAC accounting.

One fused multiply-add counts as one MAC; activations and special
functions are costed at their per-element equivalents recorded by the
tensor engine, so :func:`forward_stages` reproduces an instrumented forward
pass stage by stage.  Buckets follow the token/channel/other decomposition:
the scan recurrence is token mixing, the block's input and output
projections are channel mixing, and everything else (tokenizer, scan
parameter projections, convs, norms, gates, head) is "other".

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
from .scan import block_steps, keeps_history


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
    """The forward of one image as ``(name, bucket, macs)`` rows, in the order
    it runs them; ``bucket`` is the :class:`FlopsReport` field the row counts
    toward.  A silu costs 2 per element, and adds cost nothing.  A stem conv's row
    holds its silu, ``conv`` its silu, ``dt_proj`` its softplus and ``gate`` the
    silu and the multiply."""
    resolution, n = _check_resolution(resolution, cfg.patch)
    d, di, m, r, k = cfg.d_model, cfg.d_inner, cfg.state_size, cfg.rank, _CONV_K
    h, w = resolution
    rows = []
    for name, size, s, p, c_in, c_out, silu_after in stem_layers(cfg):
        h, w = (h + 2 * p - size) // s + 1, (w + 2 * p - size) // s + 1
        rows.append((name, "other", h * w * (size * size * c_in + 2 * silu_after) * c_out))
    # off the native grid, even at its token count, the forward resamples
    # pos_embed with one matmul (resolutions and img_size are multiples of patch)
    if resolution != (cfg.img_size, cfg.img_size):
        rows.append(("pos_embed", "other", n * cfg.grid**2 * d))
    block = [
        ("norm", "other", 4 * n * d),
        ("in_proj", "channel_mixing", n * d * 2 * di),
        ("conv", "other", n * k * k * di + 2 * n * di),
        ("x_proj", "other", n * di * (r + 2 * m)),  # B, C and the Delta logits
        ("dt_proj", "other", n * r * di + n * di),
        ("scan", "token_mixing", 4 * n * (10 * di * m + di)),
        ("gate", "other", 2 * n * di + n * di),
        ("out_proj", "channel_mixing", n * di * d),
    ]
    for i in range(cfg.depth):
        rows += [(f"blocks.{i}.{name}", bucket, macs) for name, bucket, macs in block]
    return rows + [("norm", "other", 4 * n * d), ("pool", "other", d),
                   ("head", "other", d * cfg.num_classes)]


def count_flops(cfg: ModelConfig, resolution) -> FlopsReport:
    """MACs of one forward pass of one image, :func:`forward_stages` summed per
    bucket.  Off the native grid the forward resamples pos_embed once per batch,
    so a batch of B meters B times this total less B - 1 resamples."""
    resolution = _check_resolution(resolution, cfg.patch)[0]
    buckets = dict.fromkeys(("token_mixing", "channel_mixing", "other"), 0)
    for _, bucket, macs in forward_stages(cfg, resolution):
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
    """Footprint in bytes of the widest live operation for one image, taped,
    at the config's dtype (the attention baseline's in float64).

    For this model that is the 2D scan's taped forward, and the figure is
    an account of the arrays the node holds at its peak rather than a
    proven bound.  The node holds the gathered ``[n, K, k]`` copies of
    delta, x, B and C and its outputs (``4 n (3 d_inner + 2 m)`` values),
    its state history (a row for the zero start state, then the whole
    ``[n, K, m, d_inner]`` history, while ``scan.keeps_history`` says it
    fits the budget, and no states otherwise) and its forward's ``[T, K,
    m, d_inner]`` block buffers (``scan.block_steps`` of the state and of
    the buffer count, and at most n steps): e and p, and the block's
    states when they do not go into the history.  It also holds up to
    four ``[n, d_inner]`` arrays while it puts the outputs on the grid and
    adds the skip.  Measured with tracemalloc for one image, the figure is
    0.99-1.31x the node's taped peak at 7x7, 14x14 and 28x28 grids, m 4
    and 16, d_inner 96 and 384, in float64 and in float32; it falls 1%
    short only at 7x7 with m 4 and d_inner 96, where the node's index
    arrays, A^T and numpy's temporaries, which it does not count, are that
    share of the peak.  A batch of images can cross the history budget
    together where one image does not, and its block buffers hold fewer
    steps of larger states in about the same bytes, so the figure times
    the batch can be far above the node's peak (5.9x at four 14x14 images,
    m 16, d_inner 96).  Under
    ``no_grad`` the node keeps no states.  Taped, it keeps only its
    history, if any, once the forward ends: the backward re-forms the
    gathered copies from the node's inputs, rebuilds the history when the
    forward kept none, and adds per-step gradient arrays and its own
    block buffers.
    """
    if isinstance(cfg, AttentionBaselineConfig):
        resolution, n = _check_resolution(resolution, cfg.patch)
        attn = 2 * cfg.num_heads * n * n + 2 * n * cfg.d_model
        embed = resolution[0] * resolution[1] * 3 + n * cfg.d_model
        return 8 * max(attn, embed)
    resolution, n = _check_resolution(resolution, cfg.patch)
    d, m = cfg.d_inner, cfg.state_size
    itemsize = np.dtype(cfg.dtype).itemsize
    state = 4 * m * d
    kept = keeps_history(n, itemsize * state)
    # e and p, and the block's states unless they go straight into the
    # history, in buffers of at most n steps
    buffers = 2 if kept else 3
    blocks = buffers * min(n, block_steps(itemsize * state, buffers))
    scan = 4 * n * (3 * d + 2 * m) + ((n + 1) * kept + blocks) * state + 4 * n * d
    proj = n * cfg.d_model + n * 2 * cfg.d_inner
    embed = resolution[0] * resolution[1] * 3 + n * cfg.d_model
    return itemsize * max(scan, proj, embed)


def scaling_curve(configs, resolutions):
    """Rows of (model_id, side, token, channel, other, total, peak_bytes)."""
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
