"""Backbone assembly: config validation, init, shapes, and block oracles."""

import re
import tracemalloc

import numpy as np
import pytest

from plainscan import Model, get_config, init_params, ops
from plainscan import scan as scan_module
from plainscan.errors import ConfigError, ManifestError, NumericalError, ShapeError
from plainscan.model import (
    ModelConfig,
    PRESETS,
    bilinear_resample_matrix,
    check_params,
    param_spec,
    stem_layers,
)
from plainscan.scan import keeps_history
from plainscan.tensor import Tensor, no_grad


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
    ({"dtype": "float16"}, "unknown dtype 'float16'"),
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


@pytest.mark.parametrize("shape", [(0, 32, 32, 3), (32, 32, 3), (1, 32, 32, 4)],
                         ids=["empty-batch", "unbatched", "4-channels"])
def test_malformed_image_batch_is_a_shape_error(shape):
    model = Model(get_config("toy"), seed=0)
    with pytest.raises(ShapeError, match=f"B, H, W, 3.*got {re.escape(str(shape))}") as err:
        model.forward(Tensor(np.zeros(shape)))
    assert err.value.exit_code == 2


def test_tokenize_zero_image_returns_pos_embed():
    cfg = get_config("toy")
    model = Model(cfg, seed=0)
    tok = model.tokenize(Tensor(np.zeros((1, 32, 32, 3)))).data
    pos = model.params["pos_embed"].data.reshape(4, 4, cfg.d_model)
    assert np.abs(tok[0] - pos).max() < 1e-15


def test_same_token_count_off_the_native_grid_resamples_pos_embed():
    # 16x64 gives a 2x8 token grid: the native 4x4's 16 tokens in another shape
    cfg = get_config("toy")
    model = Model(cfg, seed=0)
    images = Tensor(np.random.default_rng(6).uniform(-1, 1, (1, 16, 64, 3)))
    p = model.params
    stem = ops.conv2d(images, p["patch_embed.weight"], p["patch_embed.bias"], cfg.patch)
    pos = bilinear_resample_matrix((4, 4), (2, 8)) @ p["pos_embed"].data
    added = model.tokenize(images).data - stem.data
    assert np.abs(added - pos.reshape(1, 2, 8, cfg.d_model)).max() < 1e-12


@pytest.mark.parametrize("cfg, hw", [
    (get_config("toy"), (32, 32)),
    (get_config("toy"), (16, 64)),
    (get_config("toy", stem="stacked", patch=16, d_model=8, state_size=2, img_size=32), (32, 48)),
], ids=["toy", "toy-16x64", "stacked-stem-32x48"])
def test_float32_parameters_and_images_run_in_float32_end_to_end(cfg, hw, float32_only):
    params = {name: Tensor(t.data.astype(np.float32), name=name)
              for name, t in init_params(cfg, seed=0).items()}
    model = Model(cfg, params)
    images = Tensor(np.random.default_rng(5).uniform(-1, 1, (2, *hw, 3)).astype(np.float32))
    with float32_only():
        ops.cross_entropy(model.forward(images), [0, 1]).backward()
    assert all(t.grad.dtype == np.float32 for t in params.values())


def test_paper_scale_presets_run_in_float32_and_toy_in_float64():
    assert [PRESETS[n].dtype for n in ("L1", "L2", "L3", "toy")] == ["float32"] * 3 + ["float64"]
    assert ModelConfig(depth=1, d_model=8).dtype == "float64"
    wide = init_params(get_config("toy"), 3)
    narrow = init_params(get_config("toy", dtype="float32"), 3)
    for name, t in wide.items():
        assert t.dtype == np.float64 and narrow[name].dtype == np.float32
        assert np.array_equal(narrow[name].data, t.data.astype(np.float32))


def test_check_params_refuses_mixed_float_dtypes():
    cfg = get_config("toy")
    params = init_params(cfg)
    params["blocks.1.A"] = Tensor(params["blocks.1.A"].data.astype(np.float32))
    with pytest.raises(ManifestError, match="patch_embed.weight is float64, blocks.1.A is float32") as err:
        Model(cfg, params)
    assert err.value.exit_code == 2


def test_float32_l1_matches_float64_and_keeps_every_node_float32(float32_only):
    # the same seed's float64 draws, cast once: the logits round at 6e-8 per
    # op and read about 3e-7 relative from the float64 model's
    image = Tensor(np.random.default_rng(8).uniform(-1, 1, (1, 224, 224, 3)))
    wide = Model(get_config("L1", depth=2, dtype="float64"), seed=4)
    narrow = Model(get_config("L1", depth=2), seed=4)
    with no_grad():
        want = wide.forward(image).data
        with float32_only():
            got = narrow.forward(image).data
    assert got.dtype == np.float32
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_a_float64_image_gets_a_float64_gradient_through_a_float32_model():
    model = Model(get_config("toy", dtype="float32"), seed=0)
    images = Tensor(np.random.default_rng(2).uniform(-1, 1, (2, 32, 32, 3)))
    ops.cross_entropy(model.forward(images), [0, 1]).backward()
    assert images.grad.dtype == np.float64
    assert all(t.grad.dtype == np.float32 for t in model.parameters())


def test_a_float64_forward_adds_no_cast_node():
    # images already in the parameters' dtype feed the stem conv directly
    images = Tensor(np.zeros((2, 32, 32, 3)))
    root = Model(get_config("toy"), seed=0).forward(images)
    children, seen, stack = [], set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
            children += [t] if any(p is images for p in t._parents) else []
    assert [c.shape for c in children] == [(2, 4, 4, 32)]


def _stem_at_1e30(dtype):
    """L1 depth 1 whose first two stem convs' weights are 1e30: products near
    1e61, finite in float64 and past float32's 3.4e38."""
    cfg = get_config("L1", depth=1, dtype=dtype)
    params = init_params(cfg, seed=0)
    for name in ("stem.0.weight", "stem.1.weight"):
        params[name].data[...] = 1e30
    return Model(cfg, params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_float32_stem_that_overflows_names_the_stem():
    image = Tensor(np.random.default_rng(0).uniform(-1, 1, (1, 32, 32, 3)))
    with no_grad():
        assert np.isfinite(_stem_at_1e30("float64").tokenize(image).data).all()
        with pytest.raises(NumericalError, match="^stem: non-finite token grid$"):
            _stem_at_1e30("float32").forward(image)


def _overflow_block_0_norm(params):
    # 1e30 in the first stem conv alone: a finite float32 token grid whose
    # variance per token is past 3.4e38
    params["stem.0.weight"].data[...] = 1e30


def _overflow_head_norm(params):
    # a finite block output of +-1e20 by channel: its variance is 1e40
    params["blocks.0.out_proj.bias"].data[::2] = 1e20
    params["blocks.0.out_proj.bias"].data[1::2] = -1e20


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("overflow, message", [
    (_overflow_block_0_norm, "block 0: layernorm: the variance overflows float32"),
    (_overflow_head_norm, "head: layernorm: the variance overflows float32"),
])
def test_a_float32_layernorm_whose_variance_overflows_names_the_stage(overflow, message):
    image = Tensor(np.random.default_rng(0).uniform(-1, 1, (1, 32, 32, 3)))
    models = {}
    for dtype in ("float64", "float32"):
        cfg = get_config("L1", depth=1, dtype=dtype)
        params = init_params(cfg, seed=0)
        overflow(params)
        models[dtype] = Model(cfg, params)
    with no_grad():
        assert np.isfinite(models["float64"].forward(image).data).all()
        with pytest.raises(NumericalError, match=f"^{message}$"):
            models["float32"].forward(image)


def test_stacked_stem_downsamples_by_16():
    cfg = get_config("toy", stem="stacked", patch=16, d_model=8, state_size=2, img_size=32)
    model = Model(cfg, seed=0)
    tok = model.tokenize(Tensor(np.zeros((1, 32, 32, 3))))
    assert tok.shape == (1, 2, 2, 8)
    out = model.forward(Tensor(np.zeros((1, 32, 32, 3)))).data
    assert out.shape == (1, 2) and np.isfinite(out).all()


def test_taped_stem_keeps_one_array_per_layer():
    # Each stem conv and the silu after it are one node, which keeps only its
    # input: below the token grid the tape holds the four stem nodes alone,
    # each the previous one's child, and no pre-activation between them.
    cfg = get_config("L1", depth=1)
    model = Model(cfg, seed=0)
    images = Tensor(np.random.default_rng(8).uniform(-1, 1, (1, 224, 224, 3)).astype(np.float32))
    tok = model.tokenize(images)._parents[0]  # the grid before the position embedding
    nodes, stack = [], [tok]
    while stack:
        t = stack.pop()
        if t._parents:
            nodes.append(t)
            stack.append(t._parents[0])
    layers = [name for name, *_ in stem_layers(cfg)][::-1]
    assert len(nodes) == len(layers)
    for node, below, name in zip(nodes, nodes[1:] + [images], layers):
        assert node._parents == (below, model.params[f"{name}.weight"],
                                 model.params[f"{name}.bias"]), name


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


def _node_data_bytes(root, existing):
    """Bytes of the distinct buffers under the data of the nodes reachable
    from ``root`` through ``_parents``, less those ``existing`` holds."""
    buffers, seen, stack = {}, set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
            base = _owner(t.data)
            if id(base) not in existing:
                buffers[id(base)] = base.nbytes
    return sum(buffers.values())


@pytest.mark.parametrize("cfg, side, batch, kept", [
    (get_config("toy"), 32, 16, True),
    (get_config("L1", depth=1, img_size=64), 64, 2, True),
    # 196 float32 states of 96 KiB: past the 16 MiB history budget
    (get_config("L1", depth=1), 224, 1, False),
], ids=["toy", "L1-width-depth-1", "L1-depth-1-224-past-the-budget"])
def test_taped_forward_keeps_only_node_data_and_kept_history(cfg, side, batch, kept):
    # A closure reads its node's and its parents' .data and re-derives the
    # rest, so what a taped forward leaves allocated is the data of the
    # graph's nodes plus each scan's state history, which past the budget
    # it does not keep.  Only numpy's buffers are counted, not the Python
    # objects of the graph; the slack covers the scan's small index arrays.
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
    n = cfg.grid ** 2
    state = model.dtype.itemsize * 4 * batch * cfg.state_size * cfg.d_inner
    assert keeps_history(n, state) == kept
    histories = cfg.depth * (n + 1) * keeps_history(n, state) * state
    node_data = _node_data_bytes(root, existing)
    assert node_data <= retained <= node_data + histories + (32 << 10), (
        f"kept {retained - node_data - histories} B beyond node data and state histories"
    )


@pytest.mark.parametrize("cfg, side, batch, most", [
    (get_config("toy"), 32, 16, 2994432),
    (get_config("L1", depth=1), 224, 1, 12081504),
], ids=["toy", "L1-depth-1-224"])
def test_taped_forward_node_data_stays_within_its_measured_bytes(cfg, side, batch, most):
    # The node data a taped forward leaves, as measured when each linear
    # became one node and basic-index slices views of their parents (the
    # copies and pre-bias GEMM outputs read 4477440 and 13775808 bytes
    # before).  A node that copies what it could view fails this.
    model = Model(cfg, seed=0)
    images = Tensor(np.random.default_rng(1).uniform(-1, 1, (batch, side, side, 3)))
    existing = {id(_owner(t.data)) for t in [images, *model.parameters()]}
    assert _node_data_bytes(model.forward(images), existing) <= most


def test_l1_backward_past_the_history_budget_matches_a_kept_history(monkeypatch):
    # L1 depth 1 at 224 in float32 is past the history budget, so its scan's
    # backward rebuilds the states; with no budget the forward keeps them.
    # The gradients must agree bit for bit (as int views, so zero signs too).
    cfg = get_config("L1", depth=1)
    model = Model(cfg, seed=0)
    images = Tensor(np.random.default_rng(2).uniform(-1, 1, (1, 224, 224, 3)))
    n, state = cfg.grid ** 2, model.dtype.itemsize * 4 * cfg.state_size * cfg.d_inner
    assert not keeps_history(n, state)

    def logits_and_gradients():
        for t in model.parameters():
            t.grad = None
        logits = model.forward(images)
        weight = np.random.default_rng(3).standard_normal(logits.shape).astype(logits.dtype)
        (logits * Tensor(weight)).sum().backward()
        return [logits.data] + [t.grad for t in model.parameters()]

    rebuilt = logits_and_gradients()
    monkeypatch.setattr(scan_module, "_HISTORY_BYTES", 1 << 40)
    assert keeps_history(n, state)
    kept = logits_and_gradients()
    names = ["logits"] + [name for name, _ in param_spec(cfg)]
    for name, got, want in zip(names, rebuilt, kept, strict=True):
        assert got.dtype == np.float32, name
        assert np.array_equal(got.view(np.int32), want.view(np.int32)), name
