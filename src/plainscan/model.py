"""Full visual backbone: tokenizer, identical gated-scan blocks, head.

Token resolution and channel width are constant through the whole stack;
there is no CLS token anywhere, classification pools the token grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import ops
from .errors import ConfigError, ManifestError, NumericalError, ShapeError, check_integer
from .paths import generate_continuous_paths
from .scan import SsmCore, direction_aware_scan_2d
from .tensor import Tensor

# Blocks keep Mamba's internals at every size (arXiv 2312.00752): a 7x7
# depthwise conv, d_inner = 2 * d_model and Delta rank ceil(d_model / 16).
_CONV_K = 7


@dataclass(frozen=True)
class ModelConfig:
    depth: int
    d_model: int
    state_size: int = 16
    patch: int = 16
    img_size: int = 224
    num_classes: int = 1000
    stem: str = "stacked"  # "stacked" or "single"
    dtype: str = "float64"  # "float64" or "float32": the parameters' and the compute dtype

    def __post_init__(self):
        for name in ("depth", "d_model", "state_size", "patch", "img_size", "num_classes"):
            check_integer(name, getattr(self, name), least=1)
            # numpy scalars would make every count derived from the config fixed-width
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.stem not in ("stacked", "single"):
            raise ConfigError(f"unknown stem kind {self.stem!r}")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"unknown dtype {self.dtype!r}; choose float64 or float32")
        factor = math.prod(stride for _, _, stride, *_ in stem_layers(self))
        if factor != self.patch:
            raise ConfigError(
                f"the {self.stem} stem downsamples by {factor}, not patch {self.patch}"
            )
        if self.img_size % self.patch:
            raise ConfigError(
                f"img_size {self.img_size} must be a multiple of patch {self.patch}"
            )

    @property
    def d_inner(self):
        return 2 * self.d_model

    @property
    def rank(self):
        return math.ceil(self.d_model / 16)

    @property
    def grid(self):
        return self.img_size // self.patch


def stem_layers(cfg: ModelConfig):
    """The tokenizer as ``(name, k, stride, padding, c_in, c_out, silu_after)``
    convs: one patch embed, or four stride-2 3x3 convs whose widths before the
    final projection to d_model are fixed so compute does not balloon with width."""
    if cfg.stem == "single":
        return [("patch_embed", cfg.patch, cfg.patch, 0, 3, cfg.d_model, False)]
    w = (3, 96, 192, 192, cfg.d_model)
    return [(f"stem.{i}", 3, 2, 1, w[i], w[i + 1], i < 3) for i in range(4)]


# The paper-scale presets only run inference here, and float32 runs them in
# about half the time of float64; the toy preset trains and grad-checks.
PRESETS = {
    "L1": ModelConfig(depth=24, d_model=192, dtype="float32"),
    "L2": ModelConfig(depth=24, d_model=384, dtype="float32"),
    "L3": ModelConfig(depth=36, d_model=448, dtype="float32"),
    "toy": ModelConfig(
        depth=2, d_model=32, state_size=4, patch=8, img_size=32,
        num_classes=2, stem="single",
    ),
}


def get_config(name: str, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    unknown = sorted(set(overrides) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ConfigError(f"unknown config fields {unknown}")
    return replace(PRESETS[name], **overrides)


def param_spec(cfg: ModelConfig):
    """Ordered (name, shape) for every learnable tensor in the model."""
    d, di, m, r, k = cfg.d_model, cfg.d_inner, cfg.state_size, cfg.rank, _CONV_K
    spec = []
    for name, size, _, _, c_in, c_out, _ in stem_layers(cfg):
        spec += [(f"{name}.weight", (size, size, c_in, c_out)), (f"{name}.bias", (c_out,))]
    spec.append(("pos_embed", (cfg.grid * cfg.grid, d)))
    for i in range(cfg.depth):
        p = f"blocks.{i}."
        spec += [
            (p + "norm.gamma", (d,)),
            (p + "norm.beta", (d,)),
            (p + "in_proj.weight", (d, 2 * di)),
            (p + "in_proj.bias", (2 * di,)),
            (p + "conv.weight", (k, k, di)),
            (p + "x_proj.weight", (di, r + 2 * m)),
            (p + "dt_proj.weight", (r, di)),
            (p + "dt_proj.bias", (di,)),
            (p + "A", (di, m)),
            (p + "D", (di,)),
            (p + "theta", (5, m)),
            (p + "out_proj.weight", (di, d)),
            (p + "out_proj.bias", (d,)),
        ]
    spec += [
        ("norm.gamma", (d,)),
        ("norm.beta", (d,)),
        ("head.weight", (d, cfg.num_classes)),
        ("head.bias", (cfg.num_classes,)),
    ]
    return spec


def _trunc_normal(rng, shape, std=0.02):
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out * std


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Deterministic initialization keyed by seed: float64 draws, each cast
    once to the config's dtype, so a seed gives the same values in both."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_spec(cfg):
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("bias", "beta") and not name.endswith("dt_proj.bias"):
            val = np.zeros(shape)
        elif leaf == "gamma" or leaf == "D":
            val = np.ones(shape)
        elif leaf == "theta":
            val = np.zeros(shape)
        elif leaf == "A":
            val = -np.broadcast_to(np.arange(1, shape[1] + 1, dtype=float), shape).copy()
        elif name.endswith("dt_proj.bias"):
            # softplus(bias) lands uniformly (log scale) in [1e-3, 1e-1]
            u = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), shape))
            val = np.log(np.expm1(u))
        else:
            val = _trunc_normal(rng, shape)
        params[name] = Tensor(val.astype(cfg.dtype, copy=False), name=name)
    return params


def check_params(cfg: ModelConfig, params: dict) -> None:
    """Raise a ManifestError listing the missing, extra and misshapen tensors,
    or naming one tensor of each dtype when the parameters mix float dtypes."""
    spec = dict(param_spec(cfg))
    missing = sorted(set(spec) - set(params))
    extra = sorted(set(params) - set(spec))
    wrong = sorted(
        f"{n}: given {tuple(params[n].shape)}, expected {spec[n]}"
        for n in set(spec) & set(params)
        if tuple(params[n].shape) != spec[n]
    )
    parts = [
        f"{label}: {sep.join(names[:5])}"
        for label, sep, names in (
            ("missing", ", ", missing), ("extra", ", ", extra), ("shape conflicts", "; ", wrong)
        )
        if names
    ]
    if parts:
        raise ManifestError("parameters do not match the config — " + " | ".join(parts))
    first_of = {}  # one tensor of each dtype, in spec order
    for name in spec:
        first_of.setdefault(params[name].dtype, name)
    if len(first_of) > 1:
        raise ManifestError("parameters mix float dtypes: " + ", ".join(
            f"{name} is {dt}" for dt, name in first_of.items()))


def _interp_1d(dst, src):
    """[dst, src] linear interpolation between aligned end points of one axis."""
    mat = np.zeros((dst, src))
    if dst == 1 or src == 1:
        mat[:, 0] = 1.0
        return mat
    rows = np.arange(dst)
    t = rows * (src - 1) / (dst - 1)
    lo = np.minimum(np.floor(t).astype(int), src - 2)
    mat[rows, lo] = 1.0 - (t - lo)
    mat[rows, lo + 1] = t - lo
    return mat


def bilinear_resample_matrix(src_hw, dst_hw):
    """Dense [dst_n, src_n] map carrying grid values between resolutions."""
    (sh, sw), (dh, dw) = src_hw, dst_hw
    return np.kron(_interp_1d(dh, sh), _interp_1d(dw, sw))


def _require_finite(t: Tensor, message: str) -> None:
    if not np.isfinite(t.data).all():
        raise NumericalError(message)


class Model:
    """Immutable weights + pure forward; scan paths are cached per extent."""

    def __init__(self, cfg: ModelConfig, params: dict | None = None, seed: int = 0):
        self.cfg = cfg
        self.params = params if params is not None else init_params(cfg, seed)
        check_params(cfg, self.params)
        # the one compute dtype: images are cast to it on the way in
        self.dtype = self.params["pos_embed"].dtype
        # each block's tensors by their name within the block; the same
        # Tensor objects as self.params, so in-place updates show here too
        self._blocks = [{} for _ in range(cfg.depth)]
        for name, t in self.params.items():
            if name.startswith("blocks."):
                _, index, local = name.split(".", 2)
                self._blocks[int(index)][local] = t
        self._paths = {}

    def _paths_for(self, H, W):
        if (H, W) not in self._paths:
            self._paths[(H, W)] = generate_continuous_paths(H, W)
        return self._paths[(H, W)]

    def parameters(self):
        return [self.params[n] for n, _ in param_spec(self.cfg)]

    # -- stages --------------------------------------------------------

    def tokenize(self, images: Tensor) -> Tensor:
        cfg, p = self.cfg, self.params
        if images.data.ndim != 4 or images.shape[3] != 3 or min(images.shape[:3]) < 1:
            raise ShapeError(f"images must be [B, H, W, 3] with B, H, W >= 1, got {images.shape}")
        B, Hi, Wi = images.shape[:3]
        if Hi % cfg.patch or Wi % cfg.patch:
            raise ConfigError(
                f"input {Hi}x{Wi} must be a multiple of the downsample factor {cfg.patch}"
            )
        tok = images.astype(self.dtype)
        for name, _, stride, padding, _, _, silu_after in stem_layers(cfg):
            tok = ops.conv2d(tok, p[f"{name}.weight"], p[f"{name}.bias"], stride, padding)
            if silu_after:
                tok = tok.silu()
        H, W = tok.shape[1:3]
        pos = p["pos_embed"]
        if (H, W) != (cfg.grid, cfg.grid):
            mat = bilinear_resample_matrix((cfg.grid, cfg.grid), (H, W))
            pos = Tensor(mat.astype(self.dtype)) @ pos
        pos_grid = pos.reshape(1, H, W, cfg.d_model).expand(B, H, W, cfg.d_model)
        return tok + pos_grid

    def block_forward(self, grid: Tensor, index: int) -> Tensor:
        cfg = self.cfg
        p = self._blocks[index]
        di = cfg.d_inner
        m = cfg.state_size
        r = cfg.rank
        B, H, W = grid.shape[:3]
        try:
            normed = ops.layernorm(grid, p["norm.gamma"], p["norm.beta"])
            both = ops.linear(normed, p["in_proj.weight"], p["in_proj.bias"])
            xb, zb = both[..., :di], both[..., di:]
            xprime = ops.depthwise_conv2d(xb, p["conv.weight"]).silu()
            projected = ops.linear(xprime, p["x_proj.weight"])
            dt_logits = projected[..., :r]
            b_grid = projected[..., r : r + m]
            c_grid = projected[..., r + m :]
            delta = ops.linear(dt_logits, p["dt_proj.weight"], p["dt_proj.bias"]).softplus()
            core = SsmCore(A=p["A"], D=p["D"], Theta=p["theta"])
            y = direction_aware_scan_2d(
                xprime, b_grid, c_grid, delta, core, self._paths_for(H, W)
            )
            gated = y * zb.silu()
            out = ops.linear(gated, p["out_proj.weight"], p["out_proj.bias"])
            _require_finite(out, "non-finite block output")
        except NumericalError as e:
            raise NumericalError(f"block {index}: {e}") from e
        return out + grid

    def forward(self, images: Tensor) -> Tensor:
        """[B,Hi,Wi,3] images -> [B,num_classes] logits."""
        grid = self.tokenize(images)
        _require_finite(grid, "stem: non-finite token grid")
        for i in range(self.cfg.depth):
            grid = self.block_forward(grid, i)
        B, H, W, d = grid.shape
        try:
            normed = ops.layernorm(grid, self.params["norm.gamma"], self.params["norm.beta"])
        except NumericalError as e:
            raise NumericalError(f"head: {e}") from e
        pooled = normed.reshape(B, H * W, d).mean(axis=1)
        logits = ops.linear(pooled, self.params["head.weight"], self.params["head.bias"])
        _require_finite(logits, "head: non-finite logits")
        return logits
