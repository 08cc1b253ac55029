"""MAC accounting: instrumented agreement, bucket bands, asymptotics."""

import re
import tracemalloc

import numpy as np
import pytest

from plainscan import (
    DEIT_C224,
    Model,
    ModelConfig,
    SsmCore,
    count_flops,
    count_flops_attention,
    count_macs,
    count_params,
    direction_aware_scan_2d,
    generate_continuous_paths,
    get_config,
    scaling_curve,
)
from plainscan.analysis import FlopsReport, peak_activation_bytes
from plainscan.errors import ConfigError
from plainscan.netpbm import normalize
from plainscan.tensor import Tensor


def _instrumented_macs(cfg, side, batch=1):
    """MACs of one forward at a square ``side`` or an ``(h, w)`` resolution."""
    h, w = (side, side) if isinstance(side, int) else side
    model = Model(cfg, seed=0)
    img = normalize(np.zeros((batch, h, w, 3)))
    with count_macs() as tally:
        model.forward(Tensor(img))
    return tally.total


def test_analytic_equals_instrumented_toy():
    cfg = get_config("toy")
    for hw in ((32, 32), (32, 64)):  # the native 4x4 grid and a 4x8 one
        assert count_flops(cfg, hw).total == _instrumented_macs(cfg, hw)


def test_analytic_tracks_instrumented_off_grid_resolution():
    # off the native grid the forward adds one pos-embed resample matmul of
    # dst_tokens * src_tokens * d_model MACs, which count_flops counts too
    toy, l1 = get_config("toy"), get_config("L1", depth=1)
    # 2x2, 5x5, 1x5 and 2x8 toy grids against the native 4x4, and a 7x28 L1
    # grid against its 14x14; the last two have the native token count
    for cfg, hw in ((toy, (16, 16)), (toy, (40, 40)), (toy, (8, 40)), (toy, (16, 64)),
                    (l1, (112, 448))):
        assert count_flops(cfg, hw).total == _instrumented_macs(cfg, hw)


def test_instrumented_scales_with_batch():
    cfg = get_config("toy")
    one = _instrumented_macs(cfg, 32, batch=1)
    two = _instrumented_macs(cfg, 32, batch=2)
    # the pos-embed expand is batch-free; everything else doubles
    assert two == 2 * one


def test_a_batch_meters_the_pos_embed_resample_once():
    cfg = get_config("toy")
    resample = 1 * cfg.grid**2 * cfg.d_model  # 8x8 gives a 1x1 grid from the native 4x4
    assert _instrumented_macs(cfg, 8, batch=2) == 2 * count_flops(cfg, (8, 8)).total - resample


def test_analytic_equals_instrumented_stacked_stem():
    cfg = get_config("toy", stem="stacked", patch=16, d_model=8, state_size=2, img_size=32)
    for hw in ((32, 32), (32, 48)):  # the native 2x2 grid and a 2x3 one
        assert count_flops(cfg, hw).total == _instrumented_macs(cfg, hw)


def test_report_shape_and_recount():
    rep = count_flops(get_config("L1"), (224, 224))
    rows = dict(rep.rows())
    assert rows["total"] == rows["token_mixing"] + rows["channel_mixing"] + rows["other"]
    assert rep.total == rows["total"]
    with pytest.raises(ConfigError):
        FlopsReport(-1, 0, 0, (224, 224), "x")
    with pytest.raises(ConfigError, match="multiple"):
        count_flops(get_config("L1"), (100, 100))


@pytest.mark.parametrize("resolution", [(32.0, 32.0), (32, True), (np.float64(32), 32)])
def test_count_flops_refuses_a_resolution_that_is_not_integer(resolution):
    bad = next(v for v in resolution if isinstance(v, (bool, float)))
    with pytest.raises(ConfigError, match=re.escape(f"must be an integer, got {bad!r}")):
        count_flops(get_config("toy"), resolution)


def test_numpy_integer_resolution_counts_as_python_ints():
    # np.int32 extents would wrap the L1 counts at 4096
    ours = count_flops(get_config("L1"), (np.int32(4096), np.int32(4096)))
    assert ours == count_flops(get_config("L1"), (4096, 4096))
    assert type(ours.total) is int


def test_numpy_integer_config_fields_are_stored_as_python_ints():
    # a field kept as np.int32 would make the L1 count at 4096 overflow
    cfg = get_config("L1", depth=np.int32(24), d_model=np.int64(192))
    sizes = ("depth", "d_model", "state_size", "patch", "img_size", "num_classes")
    assert all(type(getattr(cfg, name)) is int for name in sizes)
    assert count_flops(cfg, (4096, 4096)).total == 1_102_464_609_984
    assert count_flops(get_config("L1"), (4096, 4096)).total == 1_102_464_609_984


def test_param_totals_within_reference_bands():
    totals = {name: count_params(get_config(name))[1] for name in ("L1", "L2", "L3")}
    for name, ref in (("L1", 7.3e6), ("L2", 25.7e6), ("L3", 50.5e6)):
        assert abs(totals[name] - ref) / ref < 0.10
    table, total = count_params(get_config("toy"))
    assert total == sum(c for _, _, c in table) == 28170


def test_flops_totals_within_reference_bands():
    for name, ref in (("L1", 3.0e9), ("L2", 8.1e9), ("L3", 14.4e9)):
        total = count_flops(get_config(name), (224, 224)).total
        assert abs(total - ref) / ref < 0.15


def test_decomposition_bands():
    lo = count_flops(get_config("L1"), (128, 128))
    hi = count_flops(get_config("L1"), (4096, 4096))
    for got, ref in zip((lo.token_mixing, lo.channel_mixing, lo.other), (0.34e9, 0.33e9, 0.30e9)):
        assert abs(got - ref) / ref < 0.20
    for got, ref in zip((hi.token_mixing, hi.channel_mixing, hi.other), (350e9, 348e9, 311e9)):
        assert abs(got - ref) / ref < 0.20
    deit = count_flops_attention(DEIT_C224, (4096, 4096))
    assert abs(deit.token_mixing - 23244e9) / 23244e9 < 0.10
    deit_lo = count_flops_attention(DEIT_C224, (128, 128))
    for got, ref in zip((deit_lo.token_mixing, deit_lo.channel_mixing, deit_lo.other), (0.18e9, 0.31e9, 0.01e9)):
        assert abs(got - ref) / ref < 0.20


def test_token_mixing_asymptotics():
    cfg = get_config("L1")
    a = count_flops(cfg, (512, 512)).token_mixing
    b = count_flops(cfg, (1024, 1024)).token_mixing  # 4x the tokens = two doublings
    assert abs(np.sqrt(b / a) - 2.0) < 0.02  # linear in token count
    ta = count_flops_attention(DEIT_C224, (4096, 4096)).token_mixing
    tb = count_flops_attention(DEIT_C224, (8192, 8192)).token_mixing
    # one side doubling = two token doublings; per-doubling ratio -> 4
    assert abs(np.sqrt(tb / ta) - 4.0) < 0.04  # quadratic at large N


def test_attention_overtakes_in_sweep():
    sides = [128, 256, 512, 1024, 2048, 4096]
    ours = [count_flops(get_config("L1"), (s, s)).total for s in sides]
    theirs = [count_flops_attention(DEIT_C224, (s, s)).total for s in sides]
    assert theirs[0] < ours[0]  # attention is cheaper at low resolution
    assert theirs[-1] > ours[-1]  # and loses at high resolution
    crossings = [i for i in range(1, len(sides)) if (theirs[i] > ours[i]) != (theirs[i - 1] > ours[i - 1])]
    assert len(crossings) == 1


def test_scaling_curve_rows():
    rows = scaling_curve([get_config("L1"), DEIT_C224], [128, 256])
    assert len(rows) == 4
    ids = {r[0] for r in rows}
    assert ids == {"d24w192", "deit_c224"}
    for model_id, side, token, channel, other, total, peak in rows:
        assert total == token + channel + other
        assert peak > 0
    by_key = {(r[0], r[1]): r for r in rows}
    assert by_key[("d24w192", 256)][5] > by_key[("d24w192", 128)][5]


def test_peak_bytes_monotone_in_resolution():
    cfg = get_config("L1")
    peaks = [peak_activation_bytes(cfg, (s, s)) for s in (128, 256, 512)]
    assert peaks == sorted(peaks)
    assert peak_activation_bytes(DEIT_C224, (4096, 4096)) > peak_activation_bytes(
        DEIT_C224, (128, 128)
    )


@pytest.mark.parametrize("d_inner, dtype", [
    (96, "float64"), (384, "float64"), (96, "float32"), (384, "float32"),
], ids=["96", "384", "96-float32", "384-float32"])
def test_peak_bytes_bound_the_taped_scan_node(d_inner, dtype):
    # a 14x14 grid with m = 16, one image: the figure accounts for the arrays
    # the taped node holds at its peak, so it sits only a few percent above
    # the measured peak (1.04x at d_inner 96, 1.21x at 384, in either dtype).
    # An array the node gains and the figure does not count fails the lower
    # side, and one the figure counts but the node no longer keeps, such as
    # the whole history at d_inner 384, fails the upper side; so does a figure
    # in 8-byte values for a float32 node.
    side, m = 14, 16
    cfg = ModelConfig(depth=1, d_model=d_inner // 2, state_size=m, patch=16,
                      img_size=16 * side, stem="single", dtype=dtype)
    rng = np.random.default_rng(21)

    def leaf(values):
        return Tensor(values.astype(dtype))

    core = SsmCore(A=leaf(-np.abs(rng.standard_normal((d_inner, m))) - 0.05),
                   D=leaf(rng.standard_normal(d_inner)),
                   Theta=leaf(0.3 * rng.standard_normal((5, m))))
    x, b, c = (leaf(rng.standard_normal((side, side, k))) for k in (d_inner, m, m))
    delta = leaf(rng.uniform(0.05, 1.0, (side, side, d_inner)))
    ps = generate_continuous_paths(side, side)
    tracemalloc.start()
    try:
        direction_aware_scan_2d(x, b, c, delta, core, ps)
        measured = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    figure = peak_activation_bytes(cfg, (16 * side, 16 * side))
    assert measured <= figure <= 2 * measured, f"figure {figure / measured:.3f}x the peak"
