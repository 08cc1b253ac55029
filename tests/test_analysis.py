"""MAC and memory accounting: instrumented agreement, bucket bands,
asymptotics, and the peak figure against tracemalloc."""

import re
import tracemalloc

import numpy as np
import pytest

from plainscan import (
    DEIT_C224,
    Model,
    count_flops,
    count_flops_attention,
    count_macs,
    count_params,
    get_config,
    scaling_curve,
)
from plainscan import model as model_module
from plainscan import ops
from plainscan.analysis import FlopsReport, forward_stages, peak_activation_bytes
from plainscan.errors import ConfigError
from plainscan.netpbm import normalize
from plainscan.tensor import Tensor, no_grad


def _instrumented_macs(cfg, side, batch=1):
    """Metered MACs of one forward at a square ``side`` or an ``(h, w)``
    resolution, one entry per stage.  The tally is read as each stage begins,
    on entry to each callable ``Model`` calls (``Tensor.mean`` for the pool) and
    on the scan's exit, where the gate begins, and read again at the end."""
    h, w = (side, side) if isinstance(side, int) else side
    model = Model(cfg, seed=0)
    img = normalize(np.zeros((batch, h, w, 3)))
    marks = []

    def meter(fn, on_exit=False):
        def wrapped(*args, **kwargs):
            marks.append(tally.total)
            out = fn(*args, **kwargs)
            if on_exit:
                marks.append(tally.total)
            return out
        return wrapped

    with count_macs() as tally, pytest.MonkeyPatch.context() as mp:
        for owner, name in ((ops, "conv2d"), (model_module, "bilinear_resample_matrix"),
                            (ops, "layernorm"), (ops, "depthwise_conv2d"), (ops, "linear"),
                            (Tensor, "mean")):
            mp.setattr(owner, name, meter(getattr(owner, name)))
        mp.setattr(model_module, "direction_aware_scan_2d",
                   meter(model_module.direction_aware_scan_2d, on_exit=True))
        model.forward(Tensor(img))
    assert marks[0] == 0  # nothing is metered before the first stem conv
    return [b - a for a, b in zip(marks, marks[1:] + [tally.total])]


def _stage_macs(cfg, hw):
    return [macs for _, _, macs, _ in forward_stages(cfg, hw)]


def test_analytic_equals_instrumented_toy():
    cfg = get_config("toy")
    for hw in ((32, 32), (32, 64)):  # the native 4x4 grid and a 4x8 one
        assert _instrumented_macs(cfg, hw) == _stage_macs(cfg, hw)


def test_analytic_tracks_instrumented_off_grid_resolution():
    # off the native grid the forward adds one pos-embed resample matmul of
    # dst_tokens * src_tokens * d_model MACs, which forward_stages counts too
    toy, l1 = get_config("toy"), get_config("L1", depth=1)
    # 2x2, 5x5, 1x5 and 2x8 toy grids against the native 4x4, and a 7x28 L1
    # grid against its 14x14; the last two have the native token count
    for cfg, hw in ((toy, (16, 16)), (toy, (40, 40)), (toy, (8, 40)), (toy, (16, 64)),
                    (l1, (112, 448))):
        assert _instrumented_macs(cfg, hw) == _stage_macs(cfg, hw)


def test_instrumented_scales_with_batch():
    cfg = get_config("toy")
    one = _instrumented_macs(cfg, 32, batch=1)
    two = _instrumented_macs(cfg, 32, batch=2)
    # on the native grid there is no pos-embed resample; every stage doubles
    assert two == [2 * macs for macs in one]


def test_a_batch_meters_the_pos_embed_resample_once():
    cfg = get_config("toy")
    resample = 1 * cfg.grid**2 * cfg.d_model  # 8x8 gives a 1x1 grid from the native 4x4
    metered = sum(_instrumented_macs(cfg, 8, batch=2))
    assert metered == 2 * count_flops(cfg, (8, 8)).total - resample


def test_analytic_equals_instrumented_stacked_stem():
    cfg = get_config("toy", stem="stacked", patch=16, d_model=8, state_size=2, img_size=32)
    for hw in ((32, 32), (32, 48)):  # the native 2x2 grid and a 2x3 one
        assert _instrumented_macs(cfg, hw) == _stage_macs(cfg, hw)
    block = ("norm", "in_proj", "conv", "x_proj", "dt_proj", "scan", "gate", "out_proj")
    assert [name for name, *_ in forward_stages(cfg, (32, 48))] == [
        "stem.0", "stem.1", "stem.2", "stem.3", "pos_embed",
        *(f"blocks.{i}.{stage}" for i in range(cfg.depth) for stage in block),
        "norm", "pool", "head",
    ]


def test_bucket_split_is_pinned():
    # the meter sees no buckets, so the split of each total is pinned here
    for name, hw, split in (
        ("toy", (32, 32), (335872, 196608, 241760)),
        ("toy", (16, 64), (335872, 196608, 249952)),
        ("L1", (224, 224), (1163280384, 1040449536, 1086251712)),
        ("L1", (112, 448), (1163280384, 1040449536, 1093627584)),
        ("L3", (224, 224), (4071481344, 8497004544, 1886012352)),
    ):
        rep = count_flops(get_config(name), hw)
        assert (rep.token_mixing, rep.channel_mixing, rep.other) == split, (name, hw)


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
    # every stage holds more values at a larger side; the stem's second conv
    # sets the figure for all three L presets
    sides = (128, 224, 256, 448, 512, 1024)
    peaks = [peak_activation_bytes(get_config("L1"), (side, side)) for side in sides]
    assert all(a < b for a, b in zip(peaks, peaks[1:])), peaks
    for name in ("L2", "L3"):
        assert [peak_activation_bytes(get_config(name), (s, s)) for s in sides] == peaks, name
    for cfg, sides in ((get_config("toy"), (32, 40, 64, 128, 256)),
                       (DEIT_C224, (128, 224, 448, 1024, 4096))):
        peaks = [peak_activation_bytes(cfg, (side, side)) for side in sides]
        assert all(a < b for a, b in zip(peaks, peaks[1:])), (cfg, peaks)


def _traced_peak(model, images):
    """tracemalloc's peak over a ``no_grad`` forward, run after a warm one
    that builds the model's cached scan paths."""
    with no_grad():
        model.forward(images)
        tracemalloc.start()
        try:
            model.forward(images)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_peak_bytes_bound_a_no_grad_forward_from_below():
    # Measured: 0.13-0.58x at toy, where the scan's block buffers (a fixed
    # byte budget) set the peak, and for L1 0.50x at 128, 0.76x at 224 and
    # 0.92x at 448 in float32, and 0.86x at 224 in float64; the gap at L1 is
    # conv2d's column buffer of at most tensor._BLOCK_BYTES (1.5 MiB) and one
    # block's input slab.  So the figure times the batch stays at or below
    # the peak, and at 0.7x of it or more where the stem sets an L1 peak well
    # above those buffers.
    toy = get_config("toy")
    l1 = get_config("L1", depth=1)
    l1_f64 = get_config("L1", depth=1, dtype="float64")
    rng = np.random.default_rng(4)
    for cfg, side, batches, floor in ((toy, 32, (1, 16, 64), 0), (toy, 64, (1,), 0),
                                      (l1, 128, (1,), 0), (l1, 224, (1,), 0.7),
                                      (l1, 448, (1,), 0.7), (l1_f64, 224, (1,), 0)):
        model = Model(cfg, seed=0)
        for batch in batches:
            measured = _traced_peak(model, Tensor(rng.standard_normal((batch, side, side, 3))))
            ratio = batch * peak_activation_bytes(cfg, (side, side)) / measured
            assert floor <= ratio <= 1, (cfg.dtype, cfg.d_model, side, batch, ratio)
