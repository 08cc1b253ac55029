"""Recurrence correctness: closed forms, oracle equivalence, and the
direction-aware 2D composition properties."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from plainscan import (
    Model,
    ModelConfig,
    ScanInputs,
    SsmCore,
    direction_aware_scan_2d,
    direction_aware_scan_2d_ref,
    generate_continuous_paths,
    get_config,
    selective_scan_ref,
    zoh_discretize,
)
from plainscan import scan as scan_module
from plainscan import tensor as tensor_module
from plainscan.errors import NumericalError, ShapeError
from plainscan.ops import grad_check
from plainscan.tensor import Tensor, block_steps, count_macs, no_grad


def _rand_core(rng, d, m, theta_scale=0.0):
    return SsmCore(
        A=Tensor(-np.abs(rng.standard_normal((d, m))) - 0.05),
        D=Tensor(rng.standard_normal(d)),
        Theta=Tensor(theta_scale * rng.standard_normal((5, m))),
    )


def _rand_grids(rng, H, W, d, m):
    return (
        Tensor(rng.standard_normal((H, W, d))),
        Tensor(rng.standard_normal((H, W, m))),
        Tensor(rng.standard_normal((H, W, m))),
        Tensor(rng.uniform(0.05, 1.0, (H, W, d))),
    )


# -- discretization -----------------------------------------------------


def test_zoh_closed_form_half_life():
    # dA = -ln 2: the state halves and B_bar = (1 - e^{dA}) * B / |A|
    A = Tensor(np.array([[-1.0]]))
    ab, bb = zoh_discretize(A, Tensor(np.array([1.0])), Tensor(np.array([np.log(2.0)])))
    assert abs(ab.data[0, 0] - 0.5) < 1e-10
    assert abs(bb.data[0, 0] - 0.5) < 1e-10


def test_zoh_closed_form_general():
    A = Tensor(np.array([[-2.0]]))
    ab, bb = zoh_discretize(A, Tensor(np.array([3.0])), Tensor(np.array([0.5])))
    assert abs(ab.data[0, 0] - np.exp(-1.0)) < 1e-10
    # B_bar = phi(-1) * 0.5 * 3 = (1 - e^{-1}) * 1.5
    assert abs(bb.data[0, 0] - (1.0 - np.exp(-1.0)) * 1.5) < 1e-10


def test_zoh_small_delta_limit():
    A = Tensor(np.array([[-1.0]]))
    ab, bb = zoh_discretize(A, Tensor(np.array([1.0])), Tensor(np.array([1e-12])))
    assert abs(ab.data[0, 0] - 1.0) < 2e-12  # A_bar -> 1
    assert abs(bb.data[0, 0] - 1e-12) < 1e-22  # B_bar -> Delta * B


def test_zoh_matches_exact_matrix_solution_per_channel():
    # for diagonal dynamics: B_bar = (A_bar - 1)/A * B, any Delta
    rng = np.random.default_rng(0)
    d, m = 3, 4
    A = -np.abs(rng.standard_normal((d, m))) - 0.1
    B = rng.standard_normal(m)
    delta = rng.uniform(0.05, 2.0, d)
    ab, bb = zoh_discretize(Tensor(A), Tensor(B), Tensor(delta))
    exact_ab = np.exp(delta[:, None] * A)
    exact_bb = (exact_ab - 1.0) / A * B[None, :]
    assert np.abs(ab.data - exact_ab).max() < 1e-12
    assert np.abs(bb.data - exact_bb).max() < 1e-12


def test_zoh_validation():
    A = Tensor(np.array([[-1.0]]))
    with pytest.raises(NumericalError, match="positive"):
        zoh_discretize(A, Tensor(np.array([1.0])), Tensor(np.array([0.0])))
    with pytest.raises(ShapeError):
        zoh_discretize(A, Tensor(np.array([1.0, 2.0])), Tensor(np.array([1.0])))


@pytest.mark.parametrize("shape", [(3, 0), (0, 4)], ids=["no-states", "no-channels"])
def test_ssm_core_rejects_an_empty_state_matrix(shape):
    d, m = shape
    with pytest.raises(ShapeError, match="both at least 1"):
        SsmCore(A=Tensor(-np.ones(shape)), D=Tensor(np.ones(d)), Theta=Tensor(np.zeros((5, m))))


# -- the reference scan -------------------------------------------------


def test_reference_scan_hand_recurrence():
    # A_bar = B_bar = 1/2, unit input, C = 1, D = 0:
    # h: 1/2, 3/4, 7/8 -> y equals h
    core = SsmCore(
        A=Tensor(np.array([[-1.0]])),
        D=Tensor(np.array([0.0])),
        Theta=Tensor(np.zeros((5, 1))),
    )
    inp = ScanInputs(
        x=Tensor(np.ones((3, 1))),
        B_seq=Tensor(np.ones((3, 1))),
        C_seq=Tensor(np.ones((3, 1))),
        Delta_seq=Tensor(np.full((3, 1), np.log(2.0))),
    )
    y = selective_scan_ref(inp, core)
    assert np.abs(y.data.ravel() - [0.5, 0.75, 0.875]).max() < 1e-12


def test_skip_term():
    core = SsmCore(
        A=Tensor(np.array([[-1.0]])),
        D=Tensor(np.array([2.0])),
        Theta=Tensor(np.zeros((5, 1))),
    )
    inp = ScanInputs(
        x=Tensor(np.ones((2, 1))),
        B_seq=Tensor(np.ones((2, 1))),
        C_seq=Tensor(np.zeros((2, 1))),  # emission silenced
        Delta_seq=Tensor(np.full((2, 1), 0.3)),
    )
    assert np.abs(selective_scan_ref(inp, core).data - 2.0).max() < 1e-14


def test_scan_flags_nonfinite():
    core = SsmCore(
        A=Tensor(np.array([[-1.0]])),
        D=Tensor(np.array([2.0])),
        Theta=Tensor(np.zeros((5, 1))),
    )
    inp = ScanInputs(
        x=Tensor(np.full((2, 1), 1e308)),
        B_seq=Tensor(np.ones((2, 1))),
        C_seq=Tensor(np.ones((2, 1))),
        Delta_seq=Tensor(np.ones((2, 1))),
    )
    with np.errstate(over="ignore"):  # the overflow is the point
        with pytest.raises(NumericalError, match="step 0"):
            selective_scan_ref(inp, core)


def test_core_validation():
    with pytest.raises(NumericalError, match="negative"):
        SsmCore(
            A=Tensor(np.array([[1.0]])),
            D=Tensor(np.array([0.0])),
            Theta=Tensor(np.zeros((5, 1))),
        )
    with pytest.raises(ShapeError):
        SsmCore(
            A=Tensor(np.array([[-1.0]])),
            D=Tensor(np.array([0.0])),
            Theta=Tensor(np.zeros((4, 1))),
        )
    with pytest.raises(NumericalError, match="positive"):
        ScanInputs(
            x=Tensor(np.ones((2, 1))),
            B_seq=Tensor(np.ones((2, 1))),
            C_seq=Tensor(np.ones((2, 1))),
            Delta_seq=Tensor(np.zeros((2, 1))),
        )


# -- 2D direction-aware scan -------------------------------------------


def test_fused_equals_reference_random():
    rng = np.random.default_rng(1)
    for _ in range(25):
        H, W, d, m = (int(v) for v in rng.integers(1, [4, 4, 5, 5]))
        core = _rand_core(rng, d, m, theta_scale=0.4)
        x, b, c, delta = _rand_grids(rng, H, W, d, m)
        ps = generate_continuous_paths(H, W)
        yr = direction_aware_scan_2d_ref(x, b, c, delta, core, ps)
        yf = direction_aware_scan_2d(x, b, c, delta, core, ps)
        assert np.abs(yr.data - yf.data).max() < 1e-10


def test_scan_linearity_in_x():
    # with B, C, Delta and Theta held fixed the scan is linear in x
    rng = np.random.default_rng(2)
    H, W, d, m = 3, 4, 3, 4
    core = _rand_core(rng, d, m, theta_scale=0.4)
    _, b, c, delta = _rand_grids(rng, H, W, d, m)
    x1 = rng.standard_normal((H, W, d))
    x2 = rng.standard_normal((H, W, d))
    ps = generate_continuous_paths(H, W)

    def run(x):
        return direction_aware_scan_2d(Tensor(x), b, c, delta, core, ps).data

    lhs = run(x1 + 2.5 * x2)
    rhs = run(x1) + 2.5 * run(x2)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_2d_scan_zero_theta_equals_sum_of_plain_scans():
    rng = np.random.default_rng(4)
    H, W, d, m = 4, 3, 3, 2
    core = _rand_core(rng, d, m, theta_scale=0.0)
    x, b, c, delta = _rand_grids(rng, H, W, d, m)
    ps = generate_continuous_paths(H, W)
    out = direction_aware_scan_2d(x, b, c, delta, core, ps)
    total = direction_aware_scan_2d_ref(x, b, c, delta, core, ps)
    assert np.abs(out.data - total.data).max() < 1e-10


def test_2d_scan_zero_c_reduces_to_skips():
    rng = np.random.default_rng(5)
    H, W, d, m = 3, 3, 2, 2
    core = _rand_core(rng, d, m, theta_scale=0.3)
    x, _, _, delta = _rand_grids(rng, H, W, d, m)
    zero = Tensor(np.zeros((H, W, m)))
    ps = generate_continuous_paths(H, W)
    out = direction_aware_scan_2d(x, zero, zero, delta, core, ps)
    # Theta feeds the state, but C == 0 silences emission: only skips remain
    expected = 4.0 * x.data * core.D.data
    assert np.abs(out.data - expected).max() < 1e-12


def test_2d_scan_batched_equals_loop():
    rng = np.random.default_rng(6)
    H, W, d, m, Bn = 3, 3, 2, 2, 3
    core = _rand_core(rng, d, m, theta_scale=0.2)
    x = Tensor(rng.standard_normal((Bn, H, W, d)))
    b = Tensor(rng.standard_normal((Bn, H, W, m)))
    c = Tensor(rng.standard_normal((Bn, H, W, m)))
    delta = Tensor(rng.uniform(0.05, 1.0, (Bn, H, W, d)))
    ps = generate_continuous_paths(H, W)
    batched = direction_aware_scan_2d(x, b, c, delta, core, ps)
    for i in range(Bn):
        one = direction_aware_scan_2d(
            Tensor(x.data[i]), Tensor(b.data[i]), Tensor(c.data[i]),
            Tensor(delta.data[i]), core, ps,
        )
        assert np.abs(batched.data[i] - one.data).max() < 1e-12


def test_direction_labels_change_the_output():
    # swapping two rows of a non-degenerate Theta must move the result
    rng = np.random.default_rng(7)
    H, W, d, m = 3, 3, 2, 3
    x, b, c, delta = _rand_grids(rng, H, W, d, m)
    A = Tensor(-np.abs(rng.standard_normal((d, m))) - 0.05)
    D = Tensor(rng.standard_normal(d))
    theta = 0.5 * rng.standard_normal((5, m))
    swapped = theta[[1, 0, 2, 3, 4]]
    ps = generate_continuous_paths(H, W)
    y1 = direction_aware_scan_2d(x, b, c, delta, SsmCore(A, D, Tensor(theta)), ps)
    y2 = direction_aware_scan_2d(x, b, c, delta, SsmCore(A, D, Tensor(swapped)), ps)
    assert np.abs(y1.data - y2.data).max() > 1e-6


def test_2d_scan_gradients():
    rng = np.random.default_rng(8)
    H, W, d, m = 3, 3, 2, 2
    ps = generate_continuous_paths(H, W)
    x = Tensor(rng.standard_normal((H, W, d)), name="x")
    A = Tensor(-np.abs(rng.standard_normal((d, m))) - 0.1, name="A")
    theta = Tensor(0.3 * rng.standard_normal((5, m)), name="theta")
    D = Tensor(rng.standard_normal(d), name="D")
    b = Tensor(rng.standard_normal((H, W, m)), name="b")
    c = Tensor(rng.standard_normal((H, W, m)), name="c")
    delta = Tensor(rng.uniform(0.05, 0.6, (H, W, d)), name="delta")
    weight = Tensor(rng.standard_normal((H, W, d)))

    def f(x, A, theta, D, b, c, delta):
        y = direction_aware_scan_2d(x, b, c, delta, SsmCore(A, D, theta), ps)
        return (y * weight).sum()

    assert grad_check(f, [x, A, theta, D, b, c, delta]) < 1e-3


def _graph_size(out):
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_2d_scan_graph_size_is_independent_of_length():
    # the whole 2D scan is one node, so the tape does not grow with the grid:
    # the node and its seven leaves (x, B, C, Delta, A, D, Theta)
    rng = np.random.default_rng(11)
    sizes = []
    for side in (4, 8):
        core = _rand_core(rng, 2, 3, theta_scale=0.3)
        x, b, c, delta = _rand_grids(rng, side, side, 2, 3)
        out = direction_aware_scan_2d(x, b, c, delta, core, generate_continuous_paths(side, side))
        sizes.append(_graph_size(out))
    assert sizes[0] == sizes[1]
    assert sizes[0] <= 8, f"{sizes[0]} nodes"


@pytest.mark.parametrize("lead", [(2, 3, 5), (5, 3)], ids=["batched-3x5", "unbatched-5x3"])
def test_2d_scan_node_output_and_all_gradients_match_per_path_reference(lead):
    rng = np.random.default_rng(16)
    d, m = 3, 4
    core = _rand_core(rng, d, m, theta_scale=0.4)
    x, b, c = (Tensor(rng.standard_normal((*lead, k))) for k in (d, m, m))
    delta = Tensor(rng.uniform(0.01, 1.5, (*lead, d)))
    weight = Tensor(rng.standard_normal((*lead, d)))
    _assert_node_matches_reference(x, b, c, delta, core, weight)


def test_2d_scan_meters_the_recurrence_and_one_skip_per_path():
    rng = np.random.default_rng(17)
    Bn, H, W, d, m, K = 2, 3, 5, 3, 4, 4
    core = _rand_core(rng, d, m, theta_scale=0.3)
    x, b, c = (Tensor(rng.standard_normal((Bn, H, W, k))) for k in (d, m, m))
    delta = Tensor(rng.uniform(0.01, 1.5, (Bn, H, W, d)))
    with count_macs() as tally:
        direction_aware_scan_2d(x, b, c, delta, core, generate_continuous_paths(H, W))
    n = H * W
    assert tally.total == 10 * Bn * K * n * d * m + Bn * K * n * d


def test_2d_scan_shape_checks():
    rng = np.random.default_rng(9)
    core = _rand_core(rng, 2, 2)
    x, b, c, delta = _rand_grids(rng, 3, 3, 2, 2)
    ps = generate_continuous_paths(4, 4)
    with pytest.raises(ShapeError, match="does not match"):
        direction_aware_scan_2d(x, b, c, delta, core, ps)


def test_2d_scan_rejects_an_empty_batch():
    rng = np.random.default_rng(12)
    core = _rand_core(rng, 2, 3)
    grids = [Tensor(np.ones((0, 3, 3, k))) for k in (2, 3, 3, 2)]
    with pytest.raises(ShapeError, match="B >= 1"):
        direction_aware_scan_2d(*grids, core, generate_continuous_paths(3, 3))


def test_2d_scan_flags_nonfinite_input():
    rng = np.random.default_rng(12)
    core = _rand_core(rng, 2, 3, theta_scale=0.3)
    x, b, c, delta = _rand_grids(rng, 3, 3, 2, 3)
    x.data[1, 2, 0] = np.inf
    ps = generate_continuous_paths(3, 3)
    with np.errstate(invalid="ignore"):  # the inf is the point
        with pytest.raises(NumericalError, match="non-finite scan value at step"):
            direction_aware_scan_2d(x, b, c, delta, core, ps)


def test_2d_scan_forward_peak_is_bounded_by_state_history():
    # the fused node allocates the [B,K,n,d,m] state history and nothing
    # else of that size, so the forward peak stays near the history itself
    rng = np.random.default_rng(13)
    side, d, m = 14, 96, 16
    core = _rand_core(rng, d, m, theta_scale=0.3)
    x, b, c, delta = _rand_grids(rng, side, side, d, m)
    ps = generate_continuous_paths(side, side)
    history = 8 * 1 * 4 * side * side * d * m
    tracemalloc.start()
    try:
        direction_aware_scan_2d(x, b, c, delta, core, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * history, f"peak {peak / history:.2f}x the state history"


def test_ssm_no_grad_forward_peak_is_a_fraction_of_the_state_history():
    # without a tape the node keeps one rolling state instead of the history;
    # what remains is the gathered [n, K B, .] copies of its inputs
    rng = np.random.default_rng(13)
    side, d, m = 14, 96, 16
    core = _rand_core(rng, d, m, theta_scale=0.3)
    x, b, c, delta = _rand_grids(rng, side, side, d, m)
    ps = generate_continuous_paths(side, side)
    history = 8 * 4 * side * side * d * m
    outs, peaks = [], []
    for grad in (True, False):
        tracemalloc.start()
        try:
            with no_grad() if not grad else contextlib.nullcontext():
                outs.append(direction_aware_scan_2d(x, b, c, delta, core, ps).data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(outs[1], outs[0])
    saved = (peaks[0] - peaks[1]) / history
    assert saved >= 0.9, f"no_grad saves {saved:.3f}x the state history"


def test_no_grad_node_at_l1_grid_56_peaks_below_two_time_major_arrays():
    # L1's float32 node on a 56x56 grid, an 896x896 image (d_inner 384, m
    # 16, B and C slices of x_proj's output): past its inputs it holds the
    # K per-path outputs ys, one [n, S, d] array, and the un-permute's sum
    # on the grid and its temporary, a quarter of one each.  Its block
    # buffers, the gathered inputs of one block included, come to a few
    # percent of one.
    rng = np.random.default_rng(26)
    side, d, m, rank = 56, 384, 16, 12
    proj = rng.standard_normal((1, side, side, rank + 2 * m)).astype(np.float32)
    b, c = Tensor(proj[..., rank:rank + m]), Tensor(proj[..., rank + m:])
    x = Tensor(rng.standard_normal((1, side, side, d)).astype(np.float32))
    delta = Tensor(rng.uniform(0.01, 1.0, (1, side, side, d)).astype(np.float32))
    core = SsmCore(A=Tensor(-rng.uniform(0.5, 16.0, (d, m)).astype(np.float32)),
                   D=Tensor(np.ones(d, np.float32)), Theta=Tensor(np.zeros((5, m), np.float32)))
    ps = generate_continuous_paths(side, side)
    array = 4 * side * side * 4 * d  # one float32 [n, S, d]
    tracemalloc.start()
    try:
        with no_grad():
            direction_aware_scan_2d(x, b, c, delta, core, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * array, f"peak {peak / array:.2f} [n, S, d] arrays"


def test_taped_forward_past_the_budget_keeps_no_states(monkeypatch):
    # with no history budget the taped node keeps no states, so it peaks
    # where the no_grad forward does: in its loop, which holds one block of
    # the gathered delta, x, B and C, each step's Theta[direction] rows, the
    # outputs ys, two [T, S, m, d] block buffers and the state carried from
    # one block to the next.  Besides those it holds index arrays, A^T and
    # 1 / A^T, and a block's matmul output and numpy's iterator buffers,
    # about 110 KiB here.
    monkeypatch.setattr(scan_module, "_HISTORY_BYTES", 0)
    rng = np.random.default_rng(13)
    side, d, m = 14, 96, 16
    core = _rand_core(rng, d, m, theta_scale=0.3)
    x, b, c, delta = _rand_grids(rng, side, side, d, m)
    ps = generate_continuous_paths(side, side)
    n, S, state = side * side, 4, 8 * 4 * d * m
    assert not scan_module.keeps_history(n, state)
    outs, peaks = [], []
    for grad in (True, False):
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if grad else no_grad():
                outs.append(direction_aware_scan_2d(x, b, c, delta, core, ps).data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(outs[1], outs[0])
    T = min(n, block_steps(state, 2))
    block = 8 * T * S * (2 * d + 2 * m)
    theta, ys = 8 * n * S * m, 8 * n * S * d
    held = block + theta + ys + 2 * T * state + state
    assert held <= peaks[1] <= held + 128 * 1024, f"no_grad peak {peaks[1] - held} B above held"
    kept = peaks[0] - peaks[1]
    assert kept <= 64 * 1024, f"taped keeps {kept} B more than no_grad"


def _scan_case(rng, lead, kind, d=3, m=4):
    """Grids, core and output weight; near-zero kinds put every |z| below 1e-4,
    "mixed" moves every other state's A well clear of that switch,
    "near-zero-row" puts only the grid's second row below it and every other
    |z| a few times above it, so that A's gradient is small enough for the
    second row's series entries to set some of its bits, and "signed-zero"
    sets half of x and of B to -0.0."""
    x, b, c = (Tensor(rng.standard_normal((*lead, k))) for k in (d, m, m))
    if kind == "signed-zero":
        x.data[..., ::2] = -0.0
        b.data[..., 1::2] = -0.0
    if kind in ("random", "signed-zero", "near-zero-row"):
        delta = Tensor(rng.uniform(0.01, 1.5, (*lead, d)))
        if kind == "near-zero-row":
            delta.data[...] = rng.uniform(5e-3, 1e-2, delta.shape)
            delta.data[..., 1, :, :] = rng.uniform(1e-6, 2e-6, delta.data[..., 1, :, :].shape)
        A = Tensor(-np.abs(rng.standard_normal((d, m))) - 0.05)
        D = Tensor(rng.standard_normal(d))
    else:
        delta = Tensor(rng.uniform(1e-6, 2e-6, (*lead, d)))
        A = Tensor(-rng.uniform(5e-4, 2e-3, (d, m)))
        if kind == "mixed":
            A.data[:, ::2] *= 1e8
        D = Tensor(np.zeros(d))
    core = SsmCore(A=A, D=D, Theta=Tensor(0.4 * rng.standard_normal((5, m))))
    return x, b, c, delta, core, Tensor(rng.standard_normal((*lead, d)))


def _same_bits(got, want):
    """Equal as integers: equal values, zero signs and NaN payloads alike."""
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _near_blocks_border_plain_ones(lead, steps):
    """Whether, in a near-zero-row case, the backward's blocks of this many
    steps have a block with some |z| below the series switch right after a
    block with none, and one right before a block with none: so a block
    that took either neighbour's series test would skip its own series."""
    H, W = lead[-2:]
    order = np.stack([p.order for p in generate_continuous_paths(H, W).paths])
    near = np.isin(order, range(W, 2 * W)).any(axis=0)  # per step: some path in row 1
    blocks = [bool(near[s:s + steps].any()) for s in range(0, H * W, steps)]
    return {(False, True), (True, False)} <= set(zip(blocks, blocks[1:]))


@pytest.mark.parametrize("lead, kind", [
    ((3, 5), "near-zero"), ((3, 5), "mixed"), ((3, 5), "near-zero-row"), ((1, 1), "random"),
    ((4, 4), "random"), ((5, 7), "random"), ((2, 3, 5), "random"), ((3, 5), "signed-zero"),
], ids=["near-zero-z", "mixed-A", "near-zero-row", "n=1", "square-4x4", "rect-5x7", "batch-2",
        "signed-zero"])
def test_kept_or_rebuilt_history_leaves_output_and_gradients_bit_identical(lead, kind, monkeypatch):
    # the whole history kept, and no budget, where the backward rebuilds the
    # history.  The backward gathers its inputs again from the parents'
    # data.  Past the budget it rebuilds the states from those rows, where
    # the whole-history run keeps the states the forward computed from its
    # own gather, so equal gradients show that the two gathers agree.  Each
    # budget runs twice, once with another node's forward and backward on
    # other data between the forward and its backward: the backward must
    # gather from its own parents, not reuse rows from the last forward.
    x, b, c, delta, core, weight = _scan_case(np.random.default_rng(18), lead, kind)
    other = _scan_case(np.random.default_rng(20), lead, kind)
    leaves = [x, b, c, delta, core.A, core.D, core.Theta]
    ps = generate_continuous_paths(*lead[-2:])
    n, d, m = lead[-2] * lead[-1], *core.A.shape
    state = 8 * 4 * math.prod(lead[:-2]) * m * d
    runs = {}
    for budget in (1 << 40, 0):
        monkeypatch.setattr(scan_module, "_HISTORY_BYTES", budget)
        kept = scan_module.keeps_history(n, state)
        for between in (False, True):
            for t in leaves:
                t.grad = None
            y = direction_aware_scan_2d(x, b, c, delta, core, ps)
            if between:
                (direction_aware_scan_2d(*other[:5], ps) * other[5]).sum().backward()
            (y * weight).sum().backward()
            runs[kept, between] = [y.data] + [t.grad for t in leaves]
    assert set(runs) == {(False, False), (False, True), (True, False), (True, True)}
    want = runs[True, False]
    for key, arrays in runs.items():
        for got, ref in zip(arrays, want):
            assert _same_bits(got, ref), f"(history kept, other node between) {key}"


@pytest.mark.parametrize("lead, kind", [
    ((3, 5), "near-zero"), ((3, 5), "mixed"), ((3, 5), "near-zero-row"), ((3, 5), "signed-zero"),
    ((2, 3, 5), "random"), ((4, 4), "random"),
], ids=["near-zero-z", "mixed-A", "near-zero-row", "signed-zero", "batch-2", "square-4x4"])
def test_block_size_leaves_output_and_gradients_bit_identical(lead, kind, monkeypatch):
    # Block budgets of 1, 6, 16, 18, 24 and 8 (n + 1) states, with the whole
    # history kept and with no history budget, where the backward rebuilds
    # the history with the forward's blocks.  The forward counts 2 buffers
    # and the backward 6, and neither block is longer than the sequence.
    # That makes the forward's T differ from the backward's, with ragged
    # last blocks on either side, and at 8 (n + 1) both cover the whole
    # sequence.  Every run must give the arithmetic of T = 1, zero signs
    # included, and no_grad the taped output.
    x, b, c, delta, core, weight = _scan_case(np.random.default_rng(23), lead, kind)
    leaves = [x, b, c, delta, core.A, core.D, core.Theta]
    ps = generate_continuous_paths(*lead[-2:])
    n, d, m = lead[-2] * lead[-1], *core.A.shape
    state = 8 * 4 * math.prod(lead[:-2]) * m * d
    runs = {}
    for budget in (1 << 40, 0):
        monkeypatch.setattr(scan_module, "_HISTORY_BYTES", budget)
        for states in (1, 6, 16, 18, 24, 8 * (n + 1)):
            monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", states * state)
            steps = min(n, block_steps(state, 2)), min(n, block_steps(state, 6))
            assert steps == (min(n, max(1, states // 2)), min(n, max(1, states // 6)))
            for t in leaves:
                t.grad = None
            y = direction_aware_scan_2d(x, b, c, delta, core, ps)
            (y * weight).sum().backward()
            with no_grad():
                free = direction_aware_scan_2d(x, b, c, delta, core, ps)
            assert _same_bits(free.data, y.data), f"T = {steps}: no_grad"
            runs[budget, steps] = [y.data] + [t.grad for t in leaves]
    # a forward T other than the backward's, and a ragged last block in
    # each loop, with the history kept and with it rebuilt
    for budget in (1 << 40, 0):
        pairs = {s for b, s in runs if b == budget}
        assert any(f != t for f, t in pairs)
        assert any(n % f for f, _ in pairs) and any(n % t for _, t in pairs)
    if kind == "near-zero-row":
        assert any(_near_blocks_border_plain_ones(lead, t) for _, (_, t) in runs)
    want = runs[1 << 40, (1, 1)]
    for key, arrays in runs.items():
        for got, ref in zip(arrays, want):
            assert _same_bits(got, ref), f"(history budget, (forward T, backward T)) {key}"


def test_block_steps_at_the_benchmark_shapes():
    # The T README lists for each benchmark workload's scan: its states are
    # itemsize x 4 paths x batch x m x d bytes, its forward holds 2 buffers
    # and its backward counts 6, and no block is longer than the n steps.
    toy, l1 = get_config("toy"), get_config("L1")
    for name, itemsize, batch, n, m, d, want in (
        ("scan-long", 8, 1, 256, 16, 64, (24, 8)),  # 32 KiB states
        ("toy-train", 8, 16, 16, toy.state_size, toy.d_inner, (6, 2)),  # 128 KiB
        ("l1-infer", 4, 1, 196, l1.state_size, l1.d_inner, (8, 2)),  # 96 KiB
    ):
        state = itemsize * 4 * batch * m * d
        got = min(n, block_steps(state, 2)), min(n, block_steps(state, 6))
        assert got == want, name


@pytest.mark.parametrize("budget", [1 << 40, 0], ids=["history", "rebuilt"])
def test_backward_block_buffers_grow_with_the_block(budget, monkeypatch):
    # The backward holds its whole gradients of delta, x, B and C, A's
    # running gradient and each step's Theta[direction] rows; one block of T
    # steps of the gathered delta, x, B, C and g; five [T, S, m, d] block
    # buffers and the adjoint's state carried from one block to the next;
    # and, past the history budget, the rebuilt history of n + 1 states.
    # Above those it holds one block's [T, S, d] temporary at most, and index
    # arrays, A^T and 1 / A^T, the un-permute's temporaries and numpy's
    # iterator buffers, under 100 KiB here.  The budget is set for a
    # backward of T steps, 6 T states, which gives the forward blocks of 3 T
    # steps, or n.  The rebuild's own buffers are freed before the
    # backward's are made.
    monkeypatch.setattr(scan_module, "_HISTORY_BYTES", budget)
    rng = np.random.default_rng(13)
    side, d, m = 6, 64, 16
    core = _rand_core(rng, d, m, theta_scale=0.3)
    x, b, c, delta = _rand_grids(rng, side, side, d, m)
    ps = generate_continuous_paths(side, side)
    state = 8 * 4 * m * d
    g = rng.standard_normal((side, side, d))
    n, S = side * side, 4
    whole = 8 * n * S * (2 * d + 3 * m) + 8 * S * m * d  # gd, gx, gb, gc, Theta's rows; ga
    for steps in (1, 4, n):
        monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", 6 * steps * state)
        assert min(n, block_steps(state, 6)) == steps
        y = direction_aware_scan_2d(x, b, c, delta, core, ps)
        tracemalloc.start()
        try:
            y._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * steps * S * (3 * d + 2 * m)
        history = 0 if scan_module.keeps_history(n, state) else (n + 1) * state
        held = whole + block + 5 * steps * state + state + history
        above = peak - held
        assert 0 <= above <= 8 * steps * S * d + 100 * 1024, (
            f"T = {steps}: {above / state:.2f} states above what the backward holds")


def test_a_short_scans_blocks_stop_at_its_length():
    # A 9-step scan over 192-byte states: each loop's blocks are at most the
    # 9 steps, so its buffers, the history and the gradients come to a few
    # KiB, and index arrays and numpy's temporaries to a few more.  Blocks
    # sized by the budget alone would be 4096 steps of forward buffers
    # (1.5 MiB) and 1365 of backward ones.
    rng = np.random.default_rng(13)
    d, m = 2, 3
    core = _rand_core(rng, d, m, theta_scale=0.3)
    x, b, c, delta = _rand_grids(rng, 3, 3, d, m)
    ps = generate_continuous_paths(3, 3)
    g = rng.standard_normal((3, 3, d))
    assert block_steps(8 * 4 * m * d, 2) == 4096
    peaks = []
    for grad in (False, True):
        tracemalloc.start()
        try:
            if grad:
                direction_aware_scan_2d(x, b, c, delta, core, ps)._backward(g)
            else:
                with no_grad():
                    direction_aware_scan_2d(x, b, c, delta, core, ps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 64 * 1024, f"peaks {peaks} B (no_grad, taped and backward)"


@pytest.mark.parametrize("lead, kind", [
    ((3, 5), "near-zero"), ((3, 5), "mixed"), ((5, 7), "random"),
], ids=["near-zero-z", "mixed-A", "rect-5x7"])
def test_node_with_rebuilt_history_matches_reference(lead, kind, monkeypatch):
    # no history budget: the forward keeps no states and the backward
    # rebuilds them
    monkeypatch.setattr(scan_module, "_HISTORY_BYTES", 0)
    _assert_node_matches_reference(*_scan_case(np.random.default_rng(19), lead, kind))


@pytest.mark.parametrize("cfg", [
    get_config("toy"),
    ModelConfig(depth=3, d_model=16, state_size=4, img_size=64, num_classes=3),
], ids=["toy", "stacked-3-blocks"])
def test_no_grad_forward_is_bit_identical_to_the_taped_one(cfg):
    model = Model(cfg, seed=3)
    images = np.random.default_rng(4).uniform(-1, 1, (3, cfg.img_size, cfg.img_size, 3))
    with count_macs() as taped_macs:
        taped = model.forward(Tensor(images))
    with no_grad(), count_macs() as free_macs:
        free = model.forward(Tensor(images))
    assert np.array_equal(free.data, taped.data)
    assert free_macs.total == taped_macs.total
    assert free._parents == () and taped._parents


@pytest.mark.parametrize(
    "d, m, mixed", [(3, 4, False), (1, 4, False), (3, 1, False), (3, 4, True)],
    ids=["small-z", "d=1", "m=1", "mixed"],
)
def test_ssm_matches_reference_at_small_z(d, m, mixed):
    # delta ~ 1e-6 and A ~ -1e-3 put every |z| = delta |A| below 1e-4, where
    # phi and phi' take their series and the A gradient's closed form would
    # cancel.  The mixed case scales every other state's A to ~ -1e5, so each
    # step also holds |z| ~ 0.1, well clear of the switch (just above it the
    # reference's closed-form phi' keeps only ~8 digits).  D = 0 keeps the
    # skip from swamping the tiny scan output.
    rng = np.random.default_rng(15)
    H, W = 2, 3
    delta = Tensor(rng.uniform(1e-6, 2e-6, (H, W, d)))
    A = Tensor(-rng.uniform(5e-4, 2e-3, (d, m)))
    if mixed:
        A.data[:, ::2] *= 1e8
    b, x, c = (Tensor(rng.standard_normal((H, W, k))) for k in (m, d, m))
    weight = Tensor(rng.standard_normal((H, W, d)))
    core = SsmCore(A=A, D=Tensor(np.zeros(d)), Theta=Tensor(0.4 * rng.standard_normal((5, m))))
    _assert_node_matches_reference(x, b, c, delta, core, weight)


def test_ssm_matches_reference_at_slow_decay():
    # A ~ -1e-5 with delta in [20, 190] puts every |z| in [2e-4, 2e-3]: just
    # above the series switch, so the A gradient's closed form
    # delta exp(z) p - expm1(z)/A B x / A runs unaided where it cancels most,
    # with B x / A ~ 1e5 B x on both sides of the difference.
    rng = np.random.default_rng(16)
    H, W, d, m = 2, 3, 3, 4
    delta = Tensor(rng.uniform(20.0, 190.0, (H, W, d)))
    A = Tensor(-1e-5 * rng.uniform(1.0, 1.05, (d, m)))
    z = np.abs(delta.data[..., None] * A.data)
    assert z.min() >= 2e-4 and z.max() <= 2e-3
    b, x, c = (Tensor(rng.standard_normal((H, W, k))) for k in (m, d, m))
    weight = Tensor(rng.standard_normal((H, W, d)))
    core = SsmCore(A=A, D=Tensor(np.zeros(d)), Theta=Tensor(0.4 * rng.standard_normal((5, m))))
    _assert_node_matches_reference(x, b, c, delta, core, weight)


def _output_and_gradients(scan, x, b, c, delta, core, weight):
    """The scan's output and the gradients of its seven inputs, in a list."""
    leaves = [x, b, c, delta, core.A, core.D, core.Theta]
    for t in leaves:
        t.grad = None
    y = scan(x, b, c, delta, core, generate_continuous_paths(*x.shape[-3:-1]))
    (y * weight).sum().backward()
    return [y.data] + [t.grad for t in leaves]


def _assert_node_matches_reference(*case, node_case=None, rtol=1e-10):
    """Output and all seven gradients against ``direction_aware_scan_2d_ref``,
    with the node run on ``node_case`` when one is given."""
    want = _output_and_gradients(direction_aware_scan_2d_ref, *case)
    got = _output_and_gradients(direction_aware_scan_2d, *(node_case or case))
    for g, ref in zip(got, want):
        assert g.shape == ref.shape
        assert np.abs(g - ref).max() <= rtol * np.abs(ref).max()


def _as_float32(x, b, c, delta, core, weight):
    def f(t):
        return Tensor(t.data.astype(np.float32))
    return (*map(f, (x, b, c, delta)), SsmCore(f(core.A), f(core.D), f(core.Theta)), f(weight))


@pytest.mark.parametrize("kind", ["random", "mixed"])
@pytest.mark.parametrize("scan, budget", [
    (direction_aware_scan_2d, 1 << 40), (direction_aware_scan_2d, 0),
    (direction_aware_scan_2d_ref, 1 << 40),
], ids=["node-history", "node-rebuilt", "reference"])
def test_2d_scan_maps_float32_inputs_to_float32_outputs_and_gradients(
        scan, budget, kind, float32_only, monkeypatch):
    # "mixed" puts some |z| below the series switch in every step
    monkeypatch.setattr(scan_module, "_HISTORY_BYTES", budget)
    case = _as_float32(*_scan_case(np.random.default_rng(24), (2, 3, 5), kind))
    with float32_only():
        arrays = _output_and_gradients(scan, *case)
    assert all(a.dtype == np.float32 for a in arrays)


@pytest.mark.parametrize("budget", [1 << 40, 0], ids=["history", "rebuilt"])
@pytest.mark.parametrize("lead, kind", [
    ((3, 5), "near-zero"), ((3, 5), "mixed"), ((3, 5), "signed-zero"),
    ((2, 3, 5), "random"), ((2, 6, 6), "random"),
], ids=["near-zero-z", "mixed-A", "signed-zero", "batch-2", "batch-2-6x6"])
def test_float32_node_matches_the_float64_reference(lead, kind, budget, monkeypatch):
    # float32 rounds at 6e-8.  Over these kinds at seeds 0-5 and d = 3 and 8
    # the worst error was 2.4e-6 of the max, on A's gradient, which sums
    # every step; 1e-5 leaves four times that.  Slow decay, |z| just above the
    # series switch, is left out: the switch was chosen for float64, and
    # there A's gradient cancels and reads up to 2.4e-5 in float32.
    monkeypatch.setattr(scan_module, "_HISTORY_BYTES", budget)
    case = _scan_case(np.random.default_rng(25), lead, kind)
    _assert_node_matches_reference(*case, node_case=_as_float32(*case), rtol=1e-5)
