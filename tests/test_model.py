"""Backbone assembly: config validation, init, shapes, and block oracles."""

import tracemalloc

import numpy as np
import pytest

from plainscan import Model, get_config, init_params
from plainscan.errors import ConfigError, ManifestError, NumericalError
from plainscan.model import (
    ModelConfig,
    PRESETS,
    bilinear_resample_matrix,
    check_params,
    param_spec,
)
from plainscan.scan import checkpoint_segments
from plainscan.tensor import Tensor


def test_preset_shapes():
    assert get_config("L1").grid == 14  # 224 / 16
    assert get_config("L2").d_inner == 768
    assert get_config("L3").rank == 28
    assert get_config("toy").grid == 4  # 32 / 8
    with pytest.raises(ConfigError, match="unknown preset"):
        get_config("L4")


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(depth=0, d_model=64)
    with pytest.raises(ConfigError, match="multiple"):
        ModelConfig(depth=1, d_model=64, img_size=100)
    with pytest.raises(ConfigError, match="stacked"):
        ModelConfig(depth=1, d_model=64, patch=8)  # stacked stem fixes patch=16
    with pytest.raises(ConfigError, match="stem"):
        ModelConfig(depth=1, d_model=64, stem="resnet")


@pytest.mark.parametrize("override,message", [
    *[({name: 0}, f"{name} must be at least 1, got 0")
      for name in ("depth", "d_model", "state_size", "patch", "img_size", "num_classes")],
    ({"state_size": -3}, "state_size must be at least 1, got -3"),
    ({"dtype": "float32"}, r"unknown config fields \['dtype'\]"),
    ({"conv_k": 5, "expand": 3, "depth": 3}, r"unknown config fields \['conv_k', 'expand'\]"),
    ({"depth": 1.5}, "depth must be an integer, got 1.5"),
    ({"state_size": 2.0}, "state_size must be an integer, got 2.0"),
    ({"num_classes": True}, "num_classes must be an integer, got True"),
    ({"d_model": "32"}, "d_model must be an integer, got '32'"),
])
def test_get_config_rejects_bad_values_and_unknown_fields(override, message):
    with pytest.raises(ConfigError, match=message):
        get_config("toy", **override)


def test_get_config_overrides():
    cfg = get_config("toy", depth=3, num_classes=5)
    assert cfg.depth == 3 and cfg.num_classes == 5
    assert PRESETS["toy"].depth == 2  # presets are immutable


def test_toy_param_count_by_hand():
    # patch embed 8*8*3*32+32, pos 16*32, head 32*2+2, final norm 64, and
    # per block: norm 64 + in_proj (32*128+128) + conv 7*7*64 + x_proj 64*10
    # + dt_proj (2*64+64) + A 256 + D 64 + theta 20 + out_proj (64*32+32)
    per_block = 64 + (32 * 128 + 128) + 49 * 64 + 64 * 10 + (2 * 64 + 64) + 256 + 64 + 20 + (64 * 32 + 32)
    expected = (8 * 8 * 3 * 32 + 32) + 16 * 32 + 2 * per_block + 64 + (32 * 2 + 2)
    total = sum(int(np.prod(s)) for _, s in param_spec(get_config("toy")))
    assert total == expected == 28170


def test_init_is_deterministic_and_structured():
    cfg = get_config("toy")
    p1 = init_params(cfg, seed=3)
    p2 = init_params(cfg, seed=3)
    p3 = init_params(cfg, seed=4)
    for name in p1:
        assert np.array_equal(p1[name].data, p2[name].data)
    assert any(not np.array_equal(p1[n].data, p3[n].data) for n in p1)
    blk = "blocks.0."
    assert np.all(p1[blk + "A"].data < 0)
    assert np.array_equal(p1[blk + "A"].data[0], -np.arange(1, cfg.state_size + 1))
    assert np.all(p1[blk + "theta"].data == 0)
    assert np.all(p1[blk + "D"].data == 1)
    assert np.all(p1[blk + "norm.gamma"].data == 1)
    assert np.all(p1[blk + "in_proj.bias"].data == 0)
    # dt bias maps through softplus into [1e-3, 1e-1]
    dt = np.log1p(np.exp(p1[blk + "dt_proj.bias"].data))
    assert dt.min() >= 1e-3 - 1e-12 and dt.max() <= 1e-1 + 1e-12
    # trunc-normal weights stay within 2 sigma pre-scaling
    w = p1[blk + "in_proj.weight"].data
    assert np.abs(w).max() <= 0.04 + 1e-12


def test_check_params_reports_first_problem():
    cfg = get_config("toy")
    params = init_params(cfg)
    broken = dict(params)
    del broken["head.bias"]
    with pytest.raises(ManifestError, match="head.bias"):
        check_params(cfg, broken)
    broken = dict(params)
    broken["head.weight"] = Tensor(np.zeros((3, 3)))
    with pytest.raises(ManifestError, match="head.weight"):
        check_params(cfg, broken)
    broken = dict(params)
    broken["rogue"] = Tensor(np.zeros(1))
    with pytest.raises(ManifestError, match="rogue"):
        check_params(cfg, broken)


def test_forward_shapes_and_determinism():
    cfg = get_config("toy")
    model = Model(cfg, seed=0)
    rng = np.random.default_rng(0)
    imgs = rng.standard_normal((2, 32, 32, 3))
    out1 = model.forward(Tensor(imgs)).data
    out2 = Model(cfg, seed=0).forward(Tensor(imgs)).data
    assert out1.shape == (2, 2)
    assert np.array_equal(out1, out2)  # bit-exact across fresh builds
    single = model.forward(Tensor(imgs[:1])).data
    assert single.shape == (1, 2)
    assert np.abs(single[0] - out1[0]).max() < 1e-12


def test_variable_resolution_resamples_pos_embed():
    cfg = get_config("toy")
    model = Model(cfg, seed=0)
    rng = np.random.default_rng(1)
    for side in (16, 32, 40):  # 2x2, 4x4 (native), 5x5 token grids
        out = model.forward(Tensor(rng.standard_normal((1, side, side, 3)))).data
        assert out.shape == (1, 2)
        assert np.isfinite(out).all()
    with pytest.raises(ConfigError, match="multiple"):
        model.forward(Tensor(np.zeros((1, 30, 30, 3))))


def test_tokenize_zero_image_returns_pos_embed():
    cfg = get_config("toy")
    model = Model(cfg, seed=0)
    tok = model.tokenize(Tensor(np.zeros((1, 32, 32, 3)))).data
    pos = model.params["pos_embed"].data.reshape(4, 4, cfg.d_model)
    assert np.abs(tok[0] - pos).max() < 1e-15


def test_stacked_stem_downsamples_by_16():
    cfg = get_config("toy", stem="stacked", patch=16, d_model=8, state_size=2, img_size=32)
    model = Model(cfg, seed=0)
    tok = model.tokenize(Tensor(np.zeros((1, 32, 32, 3))))
    assert tok.shape == (1, 2, 2, 8)
    out = model.forward(Tensor(np.zeros((1, 32, 32, 3)))).data
    assert out.shape == (1, 2) and np.isfinite(out).all()


def test_block_with_zero_out_proj_is_identity():
    cfg = get_config("toy")
    params = init_params(cfg, seed=0)
    params["blocks.0.out_proj.weight"].data[:] = 0.0
    params["blocks.0.out_proj.bias"].data[:] = 0.0
    model = Model(cfg, params)
    rng = np.random.default_rng(2)
    grid = Tensor(rng.standard_normal((1, 4, 4, cfg.d_model)))
    out = model.block_forward(grid, 0)
    assert np.abs(out.data - grid.data).max() < 1e-15


def test_zero_head_yields_bias_logits():
    cfg = get_config("toy")
    params = init_params(cfg, seed=0)
    params["head.weight"].data[:] = 0.0
    params["head.bias"].data[:] = [0.25, -0.75]
    model = Model(cfg, params)
    out = model.forward(Tensor(np.random.default_rng(3).standard_normal((2, 32, 32, 3))))
    assert np.allclose(out.data, [[0.25, -0.75]] * 2)


def test_numerical_error_names_the_block():
    cfg = get_config("toy")
    params = init_params(cfg, seed=0)
    params["blocks.1.A"].data[0, 0] = 1.0  # invalid decay rate
    model = Model(cfg, params)
    with pytest.raises(NumericalError, match="block 1"):
        model.forward(Tensor(np.zeros((1, 32, 32, 3))))


def test_bilinear_resample_matrix_properties():
    same = bilinear_resample_matrix((4, 4), (4, 4))
    assert np.abs(same - np.eye(16)).max() < 1e-12
    up = bilinear_resample_matrix((4, 4), (7, 7))
    assert up.shape == (49, 16)
    assert np.abs(up.sum(axis=1) - 1.0).max() < 1e-12  # partition of unity
    # constant fields are preserved exactly
    assert np.abs(up @ np.full(16, 3.25) - 3.25).max() < 1e-12
    for src, dst in [((4, 4), (7, 7)), ((14, 14), (28, 28)), ((3, 5), (1, 6)),
                     ((1, 4), (5, 1)), ((1, 1), (3, 2)), ((6, 2), (4, 9))]:
        got = bilinear_resample_matrix(src, dst)
        assert got.tobytes() == _bilinear_loop(src, dst).tobytes()


def _bilinear_loop(src_hw, dst_hw):
    """The resample matrix as a scatter of four corner weights per output cell."""
    sh, sw = src_hw
    dh, dw = dst_hw
    mat = np.zeros((dh * dw, sh * sw))

    def axis_weights(dst, src):
        if dst == 1 or src == 1:
            return [(0, 0, 1.0, 0.0)] * dst
        out = []
        for i in range(dst):
            t = i * (src - 1) / (dst - 1)
            lo = min(int(np.floor(t)), src - 2)
            out.append((lo, lo + 1, 1.0 - (t - lo), t - lo))
        return out

    for i, (r0, r1, wr0, wr1) in enumerate(axis_weights(dh, sh)):
        for j, (c0, c1, wc0, wc1) in enumerate(axis_weights(dw, sw)):
            dst = i * dw + j
            mat[dst, r0 * sw + c0] += wr0 * wc0
            mat[dst, r0 * sw + c1] += wr0 * wc1
            mat[dst, r1 * sw + c0] += wr1 * wc0
            mat[dst, r1 * sw + c1] += wr1 * wc1
    return mat


def test_parameters_ordering_matches_spec():
    cfg = get_config("toy")
    model = Model(cfg, seed=0)
    names = [n for n, _ in param_spec(cfg)]
    assert [t.name for t in model.parameters()] == names


def _owner(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("cfg, side, batch", [
    (get_config("toy"), 32, 16),
    (get_config("L1", depth=1, img_size=64), 64, 2),
], ids=["toy", "L1-width-depth-1"])
def test_taped_forward_keeps_only_node_data_and_scan_checkpoints(cfg, side, batch):
    # A closure reads its node's and its parents' .data and re-derives the
    # rest, so what a taped forward leaves allocated is the data of the
    # graph's nodes plus each scan's checkpoints.  Only numpy's buffers are counted, not the
    # Python objects of the graph; the slack covers the scan's small index
    # arrays.
    model = Model(cfg, seed=0)
    images = Tensor(np.random.default_rng(1).uniform(-1, 1, (batch, side, side, 3)))
    model.forward(images)  # fills the path cache
    existing = {id(_owner(t.data)) for t in [images, *model.parameters()]}
    tracemalloc.start()
    try:
        root = model.forward(images)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    retained = sum(t.size for t in snapshot.filter_traces(numpy_only).traces)
    buffers, seen, stack = {}, set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
            base = _owner(t.data)
            if id(base) not in existing:
                buffers[id(base)] = base.nbytes
    n = cfg.grid ** 2
    state = 8 * 4 * batch * cfg.state_size * cfg.d_inner
    checkpoints = cfg.depth * checkpoint_segments(n, state)[1] * state
    node_data = sum(buffers.values())
    assert node_data <= retained <= node_data + checkpoints + (32 << 10), (
        f"kept {retained - node_data - checkpoints} B beyond node data and checkpoints"
    )
