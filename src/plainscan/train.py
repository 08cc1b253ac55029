"""Plain-SGD training driver for the toy preset.

This exists to validate end-to-end differentiability, not to train real
models; the optimizer is deliberately the simplest one possible.
"""

from __future__ import annotations

import numpy as np

from .data import SyntheticDataset
from .errors import ConfigError, NumericalError
from .model import Model, ModelConfig
from .netpbm import normalize
from .ops import cross_entropy
from .tensor import Tensor, no_grad


def accuracy(model: Model, dataset: SyntheticDataset) -> float:
    with no_grad():
        logits = model.forward(Tensor(normalize(dataset.images))).data
    return float((logits.argmax(axis=1) == dataset.labels).mean())


def toy_train(
    cfg: ModelConfig,
    dataset: SyntheticDataset,
    steps: int,
    lr: float,
    seed: int = 0,
    batch_size: int = 16,
):
    """Returns (final train accuracy, [(step, loss)] curve, trained model).

    Deterministic given the seed; aborts with the step index if the loss
    goes non-finite.
    """
    if steps < 0:
        raise ConfigError(f"toy_train needs a step count >= 0, got {steps}")
    if not (np.isfinite(lr) and lr > 0):
        raise ConfigError(f"toy_train needs a finite learning rate > 0, got {lr}")
    if batch_size > 16:
        raise ConfigError(f"toy_train is capped at batch size 16, got {batch_size}")
    model = Model(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    images = normalize(dataset.images)
    n = len(dataset.labels)
    order = rng.permutation(n)
    cursor = 0
    curve = []
    for step in range(steps):
        if cursor + batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + batch_size]
        cursor += batch_size
        try:
            logits = model.forward(Tensor(images[idx]))
        except NumericalError as e:
            raise NumericalError(f"training diverged at step {step}: {e}") from e
        loss = cross_entropy(logits, dataset.labels[idx])
        if not np.isfinite(loss.data):
            raise NumericalError(f"training diverged (non-finite loss) at step {step}")
        for p in model.parameters():
            p.grad = None
        loss.backward()
        for p in model.parameters():
            if p.grad is not None:
                p.data -= lr * p.grad
        curve.append((step, float(loss.data)))
    return accuracy(model, dataset), curve, model
