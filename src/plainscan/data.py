"""Synthetic stripe dataset: horizontal-band images vs vertical-band
images, with additive uniform noise.  Desk-scale stand-in for a real
classification corpus; linearly separable at the pooled-feature level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_integer


@dataclass(frozen=True)
class SyntheticDataset:
    images: np.ndarray  # [n, 32, 32, 3] in roughly [-0.2, 1.2]
    labels: np.ndarray  # [n], 0 = horizontal stripes, 1 = vertical stripes
    seed: int


def make_stripes(n: int = 64, seed: int = 0) -> SyntheticDataset:
    """``n`` 32x32 images of 4-pixel bands (period 8) plus uniform noise in [-0.2, 0.2]."""
    check_integer("the sample count n", n, least=0)
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2  # balanced by construction
    bands = ((np.arange(32) // 4) % 2).astype(float)
    # one C-order draw: image i takes the generator's i-th run of 32 * 32 * 3 values
    images = rng.uniform(-0.2, 0.2, (n, 32, 32, 3))
    # label 1 takes the bands along the width, label 0 along the height
    images += np.where(labels[:, None, None, None], bands[:, None], bands[:, None, None])
    return SyntheticDataset(images=images, labels=labels, seed=seed)
