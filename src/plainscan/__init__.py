"""2D visual selective state-space model with continuous snake scanning,
direction-aware state updates, and MAC-level complexity analysis."""

from .analysis import (
    AttentionBaselineConfig,
    DEIT_C224,
    FlopsReport,
    count_flops,
    count_flops_attention,
    count_params,
    scaling_curve,
)
from .model import Model, ModelConfig, PRESETS, get_config, init_params
from .ops import depthwise_conv2d, grad_check, layernorm
from .paths import (
    Direction,
    PathSet,
    ScanPath,
    apply_path,
    generate_continuous_paths,
    generate_raster_paths,
    invert_path,
)
from .scan import (
    ScanInputs,
    SsmCore,
    direction_aware_scan_2d,
    direction_aware_scan_2d_ref,
    selective_scan_ref,
    zoh_discretize,
)
from .tensor import Tensor, count_macs, no_grad

__all__ = [
    "AttentionBaselineConfig",
    "DEIT_C224",
    "Direction",
    "FlopsReport",
    "Model",
    "ModelConfig",
    "PRESETS",
    "PathSet",
    "ScanInputs",
    "ScanPath",
    "SsmCore",
    "Tensor",
    "apply_path",
    "count_flops",
    "count_flops_attention",
    "count_macs",
    "count_params",
    "depthwise_conv2d",
    "direction_aware_scan_2d",
    "direction_aware_scan_2d_ref",
    "generate_continuous_paths",
    "generate_raster_paths",
    "get_config",
    "grad_check",
    "init_params",
    "invert_path",
    "layernorm",
    "no_grad",
    "scaling_curve",
    "selective_scan_ref",
    "zoh_discretize",
]
