"""Command-line surface.

Exit codes: 0 success, 1 usage/configuration error, 2 data/format error,
3 numerical failure.  All commands are deterministic given --seed.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import analysis, ops, paths
from .data import make_stripes
from .errors import ConfigError, PlainScanError
from .model import PRESETS, Model, get_config
from .netpbm import load_image, normalize
from .scan import SsmCore, direction_aware_scan_2d, direction_aware_scan_2d_ref
from .tensor import Tensor, no_grad
from .train import toy_train
from .weights import load_weights, save_weights


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _giga(x):
    return f"{x / 1e9:.3f}G"


def cmd_scan_viz(args):
    gen = paths.generate_raster_paths if args.raster else paths.generate_continuous_paths
    pathset = gen(args.height, args.width)
    kind = "raster" if args.raster else "continuous"
    for pid, p in enumerate(pathset.paths):
        print(f"# {kind} path {pid} (step index at each grid cell)")
        print(paths.render_ascii(p))
        gaps = p.discontinuities()
        if gaps:
            print(f"# non-adjacent steps at positions: {gaps}")
        print()
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["path_id", "step", "row", "col", "direction"])
            w.writerows(paths.path_csv_rows(pathset))
        print(f"wrote {args.csv}")


def cmd_params(args):
    cfg = get_config(args.config)
    table, total = analysis.count_params(cfg)
    width = max(len(n) for n, _, _ in table)
    for name, shape, count in table:
        print(f"{name:<{width}}  {'x'.join(map(str, shape)):>16}  {count:>12}")
    print(f"{'total':<{width}}  {'':>16}  {total:>12}  ({total / 1e6:.2f}M)")


def cmd_flops(args):
    res = tuple(args.resolution)
    if args.attention_baseline:
        rep = analysis.count_flops_attention(analysis.DEIT_C224, res)
    else:
        rep = analysis.count_flops(get_config(args.config), res)
    print(f"model={rep.model_id} resolution={res[0]}x{res[1]} (MACs)")
    for name, value in rep.rows():
        print(f"{name:>16}: {value:>16}  {_giga(value)}")
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["model", "resolution", "token_mixing", "channel_mixing", "other", "total"])
            w.writerow([rep.model_id, f"{res[0]}x{res[1]}", rep.token_mixing,
                        rep.channel_mixing, rep.other, rep.total])
        print(f"wrote {args.csv}")


def cmd_curve(args):
    try:
        sides = [int(s) for s in args.resolutions.split(",") if s]
    except ValueError as e:  # int() names the entry it could not read
        raise ConfigError(f"--resolutions takes comma-separated integers: {e}") from None
    if not sides:
        raise ConfigError("no resolutions given")
    configs = [get_config(c) for c in args.configs.split(",") if c]
    rows = analysis.scaling_curve(configs + [analysis.DEIT_C224], sides)
    w = csv.writer(sys.stdout)
    w.writerow(["model", "resolution", "token_mixing", "channel_mixing",
                "other", "total", "peak_bytes"])
    w.writerows(rows)


def cmd_infer(args):
    if args.top_k < 1:
        raise ConfigError(f"--top-k must be at least 1, got {args.top_k}")
    cfg = get_config(args.config)
    params = load_weights(args.weights, cfg)
    model = Model(cfg, params)
    img = normalize(load_image(args.image))
    with no_grad():
        logits = model.forward(Tensor(img).reshape(1, *img.shape)).data[0]
    top = np.argsort(logits)[::-1][: args.top_k]
    for rank, cls in enumerate(top, start=1):
        print(f"{rank}. class {int(cls)}  logit {logits[cls]:+.6f}")


def cmd_toy_train(args):
    cfg = get_config("toy")
    dataset = make_stripes(n=64, seed=args.seed)
    acc, curve, model = toy_train(cfg, dataset, steps=args.steps, lr=args.lr, seed=args.seed)
    if args.loss_csv:
        with open(args.loss_csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "loss"])
            w.writerows(curve)
    if args.out:
        save_weights(model.params, args.out)
    print(f"final train accuracy: {acc:.4f} over {len(dataset.labels)} samples")
    if curve:
        print(f"final loss: {curve[-1][1]:.6f} after {len(curve)} steps")


def cmd_grad_check(args):
    rng = np.random.default_rng(args.seed)
    results = []
    if args.scope in ("ops", "all"):
        a = Tensor(rng.standard_normal((3, 4)), name="a")
        b = Tensor(rng.standard_normal((4, 2)), name="b")
        results.append(("matmul", ops.grad_check(lambda a, b: (a @ b).sum(), [a, b])))
        x = Tensor(rng.standard_normal((4, 5, 2)), name="x")
        k = Tensor(rng.standard_normal((3, 3, 2)), name="k")
        results.append(
            ("depthwise_conv2d", ops.grad_check(lambda x, k: ops.depthwise_conv2d(x, k).sum(), [x, k]))
        )
        x = Tensor(rng.standard_normal((4, 6)), name="x")
        g = Tensor(rng.standard_normal(6), name="gamma")
        bb = Tensor(rng.standard_normal(6), name="beta")
        results.append(
            ("layernorm", ops.grad_check(lambda x, g, b: ops.layernorm(x, g, b).sum(), [x, g, bb]))
        )
        v = Tensor(rng.standard_normal(8), name="v")
        results.append(("silu", ops.grad_check(lambda v: v.silu().sum(), [v])))
        results.append(("softplus", ops.grad_check(lambda v: v.softplus().sum(), [v])))
    if args.scope in ("scan", "all"):
        results.extend(_scan_grad_check(rng))
    if args.scope in ("model", "all"):
        results.append(("toy_model_loss", _model_grad_check(args.seed)))
    for name, err in results:
        print(f"{name}: max relative error {err:.3e}")


def _scan_grad_check(rng):
    H = W = 3
    d, m = 2, 3
    pathset = paths.generate_continuous_paths(H, W)
    x = Tensor(rng.standard_normal((H, W, d)), name="x")
    A = Tensor(-np.abs(rng.standard_normal((d, m))) - 0.1, name="A")
    theta = Tensor(0.3 * rng.standard_normal((5, m)), name="theta")
    b = Tensor(rng.standard_normal((H, W, m)))
    c = Tensor(rng.standard_normal((H, W, m)))
    delta = Tensor(rng.uniform(0.05, 0.6, (H, W, d)))
    D = Tensor(rng.standard_normal(d))

    def f(x, A, theta):
        core = SsmCore(A=A, D=D, Theta=theta)
        return direction_aware_scan_2d(x, b, c, delta, core, pathset).sum()

    fd = ops.grad_check(f, [x, A, theta])
    # the output and all seven gradients against the oracle, under a random
    # output weight so that each grid cell gets its own output gradient
    weight = Tensor(rng.standard_normal((H, W, d)))
    core = SsmCore(A=A, D=D, Theta=theta)
    leaves = [x, b, c, delta, A, D, theta]
    runs = []
    for scan in (direction_aware_scan_2d, direction_aware_scan_2d_ref):
        for t in leaves:
            t.grad = None
        y = scan(x, b, c, delta, core, pathset)
        (y * weight).sum().backward()
        runs.append([y.data] + [t.grad for t in leaves])
    ref = max(np.abs(got - want).max() / np.abs(want).max() for got, want in zip(*runs))
    return [("direction_aware_scan_2d", fd), ("direction_aware_scan_2d vs reference", ref)]


def _model_grad_check(seed, max_coords=4):
    from .ops import cross_entropy

    cfg = get_config("toy")
    dataset = make_stripes(n=2, seed=seed)
    model = Model(cfg, seed=seed)
    images = normalize(dataset.images[:1])
    targets = dataset.labels[:1]
    inputs = model.parameters()

    def f(*ps):
        return cross_entropy(model.forward(Tensor(images)), targets)

    return ops.grad_check(f, inputs, max_coords_per_input=max_coords, seed=seed)


def build_parser():
    parser = _Parser(prog="plainscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-viz", help="print the four scan paths")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--raster", action="store_true", help="show the discontinuous baselines")
    p.add_argument("--csv", help="also write (path_id,step,row,col,direction) rows")
    p.set_defaults(func=cmd_scan_viz)

    p = sub.add_parser("params", help="per-tensor parameter table")
    p.add_argument("--config", required=True, choices=sorted(PRESETS))
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("flops", help="MAC count report")
    p.add_argument("--config", default="L1", choices=sorted(PRESETS))
    p.add_argument("--resolution", type=int, nargs=2, required=True, metavar=("H", "W"))
    p.add_argument("--attention-baseline", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("curve", help="scaling sweep CSV")
    p.add_argument("--resolutions", required=True, help="comma-separated square sides")
    p.add_argument("--configs", default="L1")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("infer", help="classify one PPM/PGM image")
    p.add_argument("--config", required=True, choices=sorted(PRESETS))
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--top-k", type=int, default=5)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("toy-train", help="SGD on the synthetic stripe task")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="weight file to write")
    p.add_argument("--loss-csv")
    p.set_defaults(func=cmd_toy_train)

    p = sub.add_parser("grad-check", help="analytic vs finite-difference gradients")
    p.add_argument("--scope", default="all", choices=["ops", "scan", "model", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy seeds are non-negative
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        args.func(args)
    except PlainScanError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
