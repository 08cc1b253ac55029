"""Acceptance gate.

One test per criterion; each prints a single ``PASS``/``FAIL`` line on
the real terminal (bypassing capture) before asserting, so the verdicts
survive any pytest output mode.  Tolerances are pinned here and nowhere
else.
"""

import time

import numpy as np
import pytest

import plainscan as ps
from plainscan import ops
from plainscan.data import make_stripes
from plainscan.netpbm import load_image, save_ppm
from plainscan.paths import _DELTAS, Direction
from plainscan.tensor import Tensor
from plainscan.train import toy_train
from plainscan.weights import load_weights, save_weights


@pytest.fixture
def verdict(capfd, request):
    start = time.monotonic()
    failures = []

    def check(ok, detail=""):
        if not ok:
            failures.append(detail)
        return ok

    yield check
    status = "PASS" if not failures else "FAIL"
    elapsed = time.monotonic() - start
    name = request.node.name.replace("test_", "", 1)
    line = f"[{status}] {name} ({elapsed:.1f}s)"
    if failures:
        line += " — " + "; ".join(failures)
    with capfd.disabled():
        print(line)
    assert not failures, line


def _within(value, reference, tol):
    return abs(value - reference) / reference <= tol


def test_criterion_1_parameter_counts(verdict):
    for name, ref in (("L1", 7.3e6), ("L2", 25.7e6), ("L3", 50.5e6)):
        _, total = ps.count_params(ps.get_config(name))
        verdict(_within(total, ref, 0.10), f"{name} params {total} vs {ref:.1e} ±10%")


def test_criterion_2_flops_at_224(verdict):
    for name, ref in (("L1", 3.0e9), ("L2", 8.1e9), ("L3", 14.4e9)):
        total = ps.count_flops(ps.get_config(name), (224, 224)).total
        verdict(_within(total, ref, 0.15), f"{name} MACs {total} vs {ref:.1e} ±15%")


def test_criterion_3_decomposition(verdict):
    cfg = ps.get_config("L1")
    for side, refs in ((128, (0.34e9, 0.33e9, 0.30e9)), (4096, (350e9, 348e9, 311e9))):
        rep = ps.count_flops(cfg, (side, side))
        got = (rep.token_mixing, rep.channel_mixing, rep.other)
        for g, r, label in zip(got, refs, ("token", "channel", "other")):
            verdict(_within(g, r, 0.20), f"L1@{side} {label} {g} vs {r:.2e} ±20%")
    deit = ps.count_flops_attention(ps.DEIT_C224, (4096, 4096))
    verdict(
        _within(deit.token_mixing, 23244e9, 0.10),
        f"deit@4096 token {deit.token_mixing} vs 2.3e13 ±10%",
    )


def test_criterion_4_asymptotics(verdict):
    cfg = ps.get_config("L1")
    ours = ps.count_flops(cfg, (1024, 1024)).token_mixing / ps.count_flops(
        cfg, (512, 512)
    ).token_mixing
    verdict(abs(np.sqrt(ours) - 2.0) <= 0.02, f"scan doubling ratio {np.sqrt(ours):.4f}")
    # doubling the side quadruples the token count, i.e. two doublings;
    # the per-doubling ratio is the square root of the side-doubling ratio
    attn = np.sqrt(
        ps.count_flops_attention(ps.DEIT_C224, (8192, 8192)).token_mixing
        / ps.count_flops_attention(ps.DEIT_C224, (4096, 4096)).token_mixing
    )
    verdict(abs(attn - 4.0) <= 0.04, f"attention doubling ratio {attn:.4f}")
    sides = [128, 256, 512, 1024, 2048, 4096]
    gap = [
        ps.count_flops_attention(ps.DEIT_C224, (s, s)).total
        - ps.count_flops(cfg, (s, s)).total
        for s in sides
    ]
    verdict(gap[0] < 0 < gap[-1], "attention total must overtake within the sweep")


def test_criterion_5_scan_geometry(verdict):
    # the direction of each step (row, col) delta, looked up at 3 (row + 1)
    # + col + 1; -1 where a delta is no unit move
    step_direction = np.full(9, -1)
    for (dr, dc), direction in _DELTAS.items():
        step_direction[3 * (dr + 1) + dc + 1] = direction
    bad = 0
    for H in range(1, 33):
        for W in range(1, 33):
            pset = ps.generate_continuous_paths(H, W)
            n = H * W
            for p in pset.paths:
                ok = np.array_equal(np.sort(p.order), np.arange(n))
                deltas = np.diff(p.cells(), axis=0)
                ok = ok and np.all(np.abs(deltas).sum(axis=1) == 1)
                ok = ok and p.directions[0] == Direction.BEGIN
                ok = ok and np.array_equal(
                    p.directions[1:], step_direction[3 * (deltas[:, 0] + 1) + deltas[:, 1] + 1]
                )
                bad += not ok
            bad += pset.paths[2].order.tolist() != pset.paths[0].order[::-1].tolist()
            bad += pset.paths[3].order.tolist() != pset.paths[1].order[::-1].tolist()
    verdict(bad == 0, f"{bad} continuous-path invariant violations")
    raster = ps.generate_raster_paths(4, 5)
    wraps = [p.discontinuities() for p in raster.paths]
    verdict(
        all(w == [5, 10, 15] for w in wraps[::2]) and all(w == [4, 8, 12, 16] for w in wraps[1::2]),
        f"raster wrap positions {wraps}",
    )


def test_criterion_6_numerical_core(verdict):
    # ZOH closed forms
    A = Tensor(np.array([[-1.0]]))
    ab, bb = ps.zoh_discretize(A, Tensor(np.array([1.0])), Tensor(np.array([np.log(2.0)])))
    verdict(abs(ab.data[0, 0] - 0.5) < 1e-10 and abs(bb.data[0, 0] - 0.5) < 1e-10,
            "half-life case")
    ab, bb = ps.zoh_discretize(
        Tensor(np.array([[-2.0]])), Tensor(np.array([3.0])), Tensor(np.array([0.5]))
    )
    verdict(
        abs(ab.data[0, 0] - np.exp(-1.0)) < 1e-10
        and abs(bb.data[0, 0] - (1 - np.exp(-1.0)) * 1.5) < 1e-10,
        "general scalar case",
    )
    # the 2D scan node vs four reference scans over 200 random instances
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        H, W, d, m = (int(v) for v in rng.integers(1, [4, 4, 5, 5]))
        core = ps.SsmCore(
            A=Tensor(-np.abs(rng.standard_normal((d, m))) - 0.05),
            D=Tensor(rng.standard_normal(d)),
            Theta=Tensor(0.4 * rng.standard_normal((5, m))),
        )
        xg, bg, cg = (Tensor(rng.standard_normal((H, W, k))) for k in (d, m, m))
        dg = Tensor(rng.uniform(0.01, 1.5, (H, W, d)))
        pset = ps.generate_continuous_paths(H, W)
        diff = np.abs(
            _four_reference_scans(xg, bg, cg, dg, core, pset)
            - ps.direction_aware_scan_2d(xg, bg, cg, dg, core, pset).data
        ).max()
        worst = max(worst, diff)
    verdict(worst < 1e-10, f"2D-node-vs-ref max deviation {worst:.2e}")
    # linearity in x at fixed parameters
    H, W, d, m = 2, 5, 3, 4
    pset = ps.generate_continuous_paths(H, W)
    core = ps.SsmCore(
        A=Tensor(-np.abs(rng.standard_normal((d, m))) - 0.05),
        D=Tensor(rng.standard_normal(d)),
        Theta=Tensor(0.3 * rng.standard_normal((5, m))),
    )
    bg = Tensor(rng.standard_normal((H, W, m)))
    cg = Tensor(rng.standard_normal((H, W, m)))
    dg = Tensor(rng.uniform(0.05, 1.0, (H, W, d)))
    x1, x2 = rng.standard_normal((2, H, W, d))

    def run(x):
        return ps.direction_aware_scan_2d(Tensor(x), bg, cg, dg, core, pset).data

    lin = np.abs(run(x1 + 3.0 * x2) - run(x1) - 3.0 * run(x2)).max()
    verdict(lin < 1e-10, f"linearity deviation {lin:.2e}")
    # C == 0 collapses the 2D scan to four skip terms
    H = W = 3
    pset = ps.generate_continuous_paths(H, W)
    core2 = ps.SsmCore(
        A=Tensor(-np.abs(rng.standard_normal((d, m))) - 0.05),
        D=Tensor(rng.standard_normal(d)),
        Theta=Tensor(0.3 * rng.standard_normal((5, m))),
    )
    xg = Tensor(rng.standard_normal((H, W, d)))
    zero = Tensor(np.zeros((H, W, m)))
    dg = Tensor(rng.uniform(0.05, 1.0, (H, W, d)))
    out = ps.direction_aware_scan_2d(xg, zero, zero, dg, core2, pset)
    verdict(
        np.abs(out.data - 4.0 * xg.data * core2.D.data).max() < 1e-12,
        "C==0 reduction to 4*D*x",
    )
    # Theta == 0 equals the sum of four plain scans
    core3 = ps.SsmCore(A=core2.A, D=core2.D, Theta=Tensor(np.zeros((5, m))))
    bg = Tensor(rng.standard_normal((H, W, m)))
    cg = Tensor(rng.standard_normal((H, W, m)))
    out = ps.direction_aware_scan_2d(xg, bg, cg, dg, core3, pset)
    total = _four_reference_scans(xg, bg, cg, dg, core3, pset)
    dev = np.abs(out.data - total).max()
    verdict(dev < 1e-10, f"Theta==0 composition deviation {dev:.2e}")


def _four_reference_scans(xg, bg, cg, dg, core, pset):
    """Sum on the grid of one ``selective_scan_ref`` per path over ``B + Theta[direction]``."""
    total = np.zeros(xg.shape)
    for p, inv in zip(pset.paths, pset.inverse_orders):
        inp = ps.ScanInputs(
            x=Tensor(ps.apply_path(xg.data, p)),
            B_seq=Tensor(ps.apply_path(bg.data, p) + core.Theta.data[p.directions]),
            C_seq=Tensor(ps.apply_path(cg.data, p)),
            Delta_seq=Tensor(ps.apply_path(dg.data, p)),
        )
        total += ps.invert_path(ps.selective_scan_ref(inp, core).data, p, inv)
    return total


def _sum_of_squares(t):
    return (t * t).sum()


def test_criterion_7_gradients(verdict):
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), name="a")
    b = Tensor(rng.standard_normal((4, 2)), name="b")
    err = ops.grad_check(lambda a, b: (a @ b).sum(), [a, b])
    verdict(err < 1e-3, f"matmul {err:.2e}")
    x = Tensor(rng.standard_normal((4, 5, 2)), name="x")
    k = Tensor(rng.standard_normal((3, 3, 2)), name="k")
    err = ops.grad_check(lambda x, k: _sum_of_squares(ops.depthwise_conv2d(x, k)), [x, k])
    verdict(err < 1e-3, f"depthwise conv {err:.2e}")
    x = Tensor(rng.standard_normal((4, 6)), name="x")
    g = Tensor(rng.standard_normal(6), name="g")
    bb = Tensor(rng.standard_normal(6), name="bb")
    err = ops.grad_check(lambda x, g, b: _sum_of_squares(ops.layernorm(x, g, b)), [x, g, bb])
    verdict(err < 1e-3, f"layernorm {err:.2e}")
    for label, fn in (
        ("silu", lambda v: v.silu().sum()),
        ("softplus", lambda v: v.softplus().sum()),
        ("sigmoid", lambda v: v.sigmoid().sum()),
        ("exp", lambda v: v.exp().sum()),
        ("phi", lambda v: v.zoh_phi().sum()),
    ):
        v = Tensor(rng.standard_normal(8), name=label)
        err = ops.grad_check(fn, [v])
        verdict(err < 1e-3, f"{label} {err:.2e}")
    # direction-aware 2D scan on a 3x3 grid
    H = W = 3
    d, m = 2, 3
    pset = ps.generate_continuous_paths(H, W)
    xg = Tensor(rng.standard_normal((H, W, d)), name="x")
    A = Tensor(-np.abs(rng.standard_normal((d, m))) - 0.1, name="A")
    theta = Tensor(0.3 * rng.standard_normal((5, m)), name="theta")
    bg = Tensor(rng.standard_normal((H, W, m)), name="bg")
    cg = Tensor(rng.standard_normal((H, W, m)), name="cg")
    dg = Tensor(rng.uniform(0.05, 0.6, (H, W, d)), name="dg")
    D = Tensor(rng.standard_normal(d), name="D")

    def f(xg, A, theta, bg, cg, dg, D):
        return ps.direction_aware_scan_2d(
            xg, bg, cg, dg, ps.SsmCore(A, D, theta), pset
        ).sum()

    err = ops.grad_check(f, [xg, A, theta, bg, cg, dg, D])
    verdict(err < 1e-3, f"direction_aware_scan_2d {err:.2e}")
    # full toy-model loss, subsampled coordinates on every parameter
    cfg = ps.get_config("toy")
    ds = make_stripes(n=2, seed=0)
    model = ps.Model(cfg, seed=0)
    images = (ds.images[:1] - 0.5) / 0.5
    labels = ds.labels[:1]
    inputs = model.parameters()

    def loss(*params):
        return ops.cross_entropy(model.forward(Tensor(images)), labels)

    err = ops.grad_check(loss, inputs, max_coords_per_input=4, seed=0)
    verdict(err < 1e-3, f"toy model loss {err:.2e}")


def test_criterion_8_toy_training(verdict):
    cfg = ps.get_config("toy")
    ds = make_stripes(n=64, seed=0)
    # determinism probe: two short runs must agree bit-for-bit
    _, c1, _ = toy_train(cfg, ds, steps=5, lr=0.05, seed=0)
    _, c2, _ = toy_train(cfg, ds, steps=5, lr=0.05, seed=0)
    verdict(c1 == c2, "loss curves differ across identical runs")
    # accuracy: the criterion allows 500 steps; 100 suffice at lr=0.05
    acc, curve, _ = toy_train(cfg, ds, steps=100, lr=0.05, seed=0)
    verdict(acc >= 0.95, f"train accuracy {acc:.3f} after {len(curve)} steps")


def test_criterion_9_persistence(verdict, tmp_path):
    cfg = ps.get_config("toy")
    params = ps.init_params(cfg, seed=11)
    wfile = tmp_path / "toy.pmwb"
    save_weights(params, wfile)
    loaded = load_weights(wfile, cfg)
    exact = all(np.array_equal(loaded[n].data, params[n].data) for n in params)
    verdict(exact and set(loaded) == set(params), "weight round trip not bit-exact")
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, (9, 6, 3), dtype=np.uint8)
    pfile = tmp_path / "rt.ppm"
    save_ppm(pfile, raw)
    img = load_image(pfile)
    verdict(
        np.array_equal(np.rint(img * 255).astype(np.uint8), raw),
        "PPM round trip not bit-exact",
    )
    save_ppm(pfile, img)
    verdict(np.array_equal(load_image(pfile), img), "float PPM re-encode drifted")
