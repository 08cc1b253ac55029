"""The recurrence itself: discretization, selectivity, and directions.

Walks from the scalar zero-order-hold step up to the four-path
direction-aware 2D scan.  Run with:

    python3 demos/02_selective_scan.py
"""

import numpy as np

from plainscan import (
    ScanInputs,
    SsmCore,
    direction_aware_scan_2d,
    generate_continuous_paths,
    selective_scan_ref,
    zoh_discretize,
)
from plainscan.tensor import Tensor

print("=== zero-order hold ===")
print("A = -1, B = 1: the continuous system decays toward its input.")
for delta in (0.01, np.log(2.0), 2.0):
    ab, bb = zoh_discretize(
        Tensor(np.array([[-1.0]])), Tensor(np.array([1.0])), Tensor(np.array([delta]))
    )
    print(f"  delta = {delta:.3f}  ->  A_bar = {ab.data[0,0]:.4f}, B_bar = {bb.data[0,0]:.4f}")
print("Small delta barely moves the state; delta = ln 2 halves it per step.\n")

print("=== the delta knob is per token: that is the selectivity ===")
n, d, m = 8, 1, 1
core = SsmCore(
    A=Tensor(np.array([[-1.0]])), D=Tensor(np.zeros(1)), Theta=Tensor(np.zeros((5, 1)))
)
x = np.zeros((n, 1))
x[0] = 1.0  # a single impulse at the first step
for label, deltas in (
    ("slow (delta = 0.05): the impulse lingers", np.full((n, 1), 0.05)),
    ("fast (delta = 2.0):  the impulse is forgotten", np.full((n, 1), 2.0)),
):
    inp = ScanInputs(
        x=Tensor(x),
        B_seq=Tensor(np.ones((n, 1))),
        C_seq=Tensor(np.ones((n, 1))),
        Delta_seq=Tensor(deltas),
    )
    y = selective_scan_ref(inp, core).data.ravel()
    print(f"  {label}")
    print("   ", " ".join(f"{v:.3f}" for v in y))
print()

rng = np.random.default_rng(0)
print("=== direction awareness ===")
H = W = 4
paths = generate_continuous_paths(H, W)
x = Tensor(rng.standard_normal((H, W, 3)))
b = Tensor(rng.standard_normal((H, W, 4)))
c = Tensor(rng.standard_normal((H, W, 4)))
delta = Tensor(rng.uniform(0.05, 1.0, (H, W, 3)))
A = Tensor(-np.abs(rng.standard_normal((3, 4))) - 0.1)
D = Tensor(rng.standard_normal(3))
theta = 0.5 * rng.standard_normal((5, 4))
base = direction_aware_scan_2d(x, b, c, delta, SsmCore(A, D, Tensor(theta)), paths)
swap = theta[[1, 0, 2, 3, 4]]  # exchange the RIGHT and LEFT rows
moved = direction_aware_scan_2d(x, b, c, delta, SsmCore(A, D, Tensor(swap)), paths)
print(
    "  swapping the RIGHT/LEFT rows of the direction table moves the\n"
    f"  output by {np.abs(base.data - moved.data).max():.4f} (max abs): the model can tell\n"
    "  which way each scan step travelled."
)
zero = direction_aware_scan_2d(
    x, b, c, delta, SsmCore(A, D, Tensor(np.zeros((5, 4)))), paths
)
print(
    "  with the table zeroed the 2D scan collapses to four ordinary\n"
    f"  snake scans summed on the grid (output norm {np.linalg.norm(zero.data):.3f})."
)
