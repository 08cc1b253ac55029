"""The benchmark's three workloads.

Each workload builds its inputs from a seed, defines one op that calls
the package's public functions the way the CLI does, and checks every
op's output.  The first op of a run is an untimed warm-up; its output is
the reference later ops must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from plainscan import analysis, data, model, netpbm, paths, scan, train, weights
from plainscan.tensor import Tensor, count_macs

# The modules above are called through their attributes (``train.toy_train``,
# not a bare ``toy_train``) so that the traced run's wrappers are the ones
# that run.


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


class Workload:
    """One op, repeated by a closed loop with a single client."""

    name: str
    items_per_op: int
    weight_file = None
    # analysis.peak_activation_bytes for one image at this workload's shape;
    # the model has no batch axis, so the traced run scales it by the batch.
    model_bytes_per_image: int

    def op(self):
        raise NotImplementedError

    def run(self):
        """One op under ``count_macs``; returns (output, MACs)."""
        with count_macs() as tally:
            out = self.op()
        return out, tally.total

    def warm_up(self):
        """The untimed first op; later ops are checked against its output."""
        self.reference, self.reference_macs = self.run()

    def check(self, out, macs):
        _require(macs == self.reference_macs,
                 f"MAC count {macs} differs from the first op's {self.reference_macs}")

    def final_check(self):
        """Checks too slow to repeat per op; they cover the reference output."""


class ToyTrain(Workload):
    """Mirrors ``plainscan toy-train --out``: SGD steps, then save_weights."""

    name = "toy-train"
    steps = 4
    batch = 16
    lr = 0.05

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cfg = model.get_config("toy")
        self.dataset = data.make_stripes(n=64, seed=seed)
        self.out_file = workdir / "toy.pmwb"
        self.items_per_op = self.steps * self.batch
        side = self.cfg.img_size
        self.model_bytes_per_image = analysis.peak_activation_bytes(self.cfg, (side, side))

    def op(self):
        acc, curve, trained = train.toy_train(
            self.cfg, self.dataset, steps=self.steps, lr=self.lr, seed=self.seed,
            batch_size=self.batch,
        )
        weights.save_weights(trained.params, self.out_file)
        return acc, curve

    def check(self, out, macs):
        super().check(out, macs)
        acc, curve = out
        _require(_finite([acc], [loss for _, loss in curve]), "non-finite loss or accuracy")
        _require(curve == self.reference[1], "loss curve differs from the first op's")


class L1Infer(Workload):
    """Mirrors ``plainscan infer`` on the L1 width at 224x224, depth 2."""

    name = "l1-infer"
    side = 224
    items_per_op = 1

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.cfg = model.get_config("L1", depth=2)
        self.weight_file = workdir / "l1.pmwb"
        weights.save_weights(model.init_params(self.cfg, seed), self.weight_file)
        self.image_file = workdir / "image.ppm"
        image = rng.integers(0, 256, (self.side, self.side, 3), dtype=np.uint8)
        netpbm.save_ppm(self.image_file, image)
        res = (self.side, self.side)
        self.expected_macs = analysis.count_flops(self.cfg, res).total
        self.model_bytes_per_image = analysis.peak_activation_bytes(self.cfg, res)

    def op(self):
        params = weights.load_weights(self.weight_file, self.cfg)
        net = model.Model(self.cfg, params)
        img = netpbm.normalize(netpbm.load_image(self.image_file))
        return net.forward(Tensor(img).reshape(1, *img.shape)).data[0]

    def check(self, logits, macs):
        super().check(logits, macs)
        _require(_finite(logits), "non-finite logits")
        _require(np.array_equal(logits, self.reference), "logits differ from the first op's")
        # Exact only at the native resolution: elsewhere the pos-embed
        # resample matmul is metered but not in count_flops.
        _require(macs == self.expected_macs,
                 f"count_macs {macs} != count_flops {self.expected_macs}")


class ScanLong(Workload):
    """direction_aware_scan_2d alone on a 16x16 grid, forward and backward."""

    name = "scan-long"
    side = 16
    d_inner = 64
    state = 16
    items_per_op = 1
    tolerance = 1e-10

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        H = W = self.side
        d, m = self.d_inner, self.state
        self.grids = {
            "x": Tensor(rng.standard_normal((1, H, W, d))),
            "b": Tensor(rng.standard_normal((1, H, W, m))),
            "c": Tensor(rng.standard_normal((1, H, W, m))),
            "delta": Tensor(rng.uniform(0.01, 1.5, (1, H, W, d))),
        }
        self.core = scan.SsmCore(
            A=Tensor(-np.abs(rng.standard_normal((d, m))) - 0.05),
            D=Tensor(rng.standard_normal(d)),
            Theta=Tensor(0.3 * rng.standard_normal((5, m))),
        )
        self.paths = paths.generate_continuous_paths(H, W)
        # A single-patch config whose one block scans this exact shape.
        cfg = model.ModelConfig(depth=1, d_model=d // 2, state_size=m, patch=16,
                                img_size=16 * H, stem="single")
        self.model_bytes_per_image = analysis.peak_activation_bytes(cfg, (16 * H, 16 * W))

    def _leaves(self):
        return {**self.grids, "A": self.core.A, "D": self.core.D, "Theta": self.core.Theta}

    def op(self):
        leaves = self._leaves()
        for t in leaves.values():
            t.grad = None
        g = self.grids
        y = scan.direction_aware_scan_2d(g["x"], g["b"], g["c"], g["delta"], self.core, self.paths)
        y.sum().backward()
        return y.data, {k: t.grad for k, t in leaves.items()}

    def check(self, out, macs):
        super().check(out, macs)
        y, grads = out
        _require(_finite(y, *grads.values()), "non-finite output or gradient")
        ref_y, ref_grads = self.reference
        _require(np.array_equal(y, ref_y), "output differs from the first op's")
        for k, g in grads.items():
            _require(np.array_equal(g, ref_grads[k]), f"grad of {k} differs from the first op's")

    def final_check(self):
        """Compare the reference against four ``selective_scan_ref`` runs.

        Each path's oracle uses ``B + Theta[direction]`` as its B sequence,
        which is exact because ZOH is linear in B; the un-permuted outputs
        are summed, as the 2D scan does.
        """
        leaves = {k: Tensor(t.data[0] if k in self.grids else t.data.copy())
                  for k, t in self._leaves().items()}
        core = scan.SsmCore(A=leaves["A"], D=leaves["D"], Theta=leaves["Theta"])
        total = None
        for p, inv in zip(self.paths.paths, self.paths.inverse_orders):
            inputs = scan.ScanInputs(
                x=paths.apply_path(leaves["x"], p),
                B_seq=paths.apply_path(leaves["b"], p) + leaves["Theta"].take(p.directions, axis=0),
                C_seq=paths.apply_path(leaves["c"], p),
                Delta_seq=paths.apply_path(leaves["delta"], p),
            )
            back = paths.invert_path(scan.selective_scan_ref(inputs, core), p, inv)
            total = back if total is None else total + back
        total.sum().backward()
        ref_y, ref_grads = self.reference
        pairs = [("output", total.data, ref_y[0])]
        for k, t in leaves.items():
            ref = ref_grads[k][0] if k in self.grids else ref_grads[k]
            pairs.append((f"grad of {k}", t.grad, ref))
        for what, want, got in pairs:
            err = np.abs(want - got).max() / max(1.0, np.abs(want).max())
            _require(err <= self.tolerance,
                     f"{what} differs from the selective_scan_ref oracle by {err:.3g}")


WORKLOADS = {w.name: w for w in (ToyTrain, L1Infer, ScanLong)}
