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
from .scan import decay_rates_valid
from .tensor import Tensor, no_grad


def accuracy(model: Model, dataset: SyntheticDataset) -> float:
    with no_grad():
        logits = model.forward(Tensor(normalize(dataset.images))).data
    return float((logits.argmax(axis=1) == dataset.labels).mean())


def _require_valid(step, what, values, decay_rates=False):
    """Raise at the first entry that is not finite or, for a state matrix
    A, not a valid decay rate."""
    valid = np.isfinite(values)
    if decay_rates:
        valid &= decay_rates_valid(values)
    if not valid.all():
        at = tuple(int(i) for i in np.argwhere(~valid)[0])
        rule = "finite and strictly negative" if decay_rates else "finite"
        raise NumericalError(
            f"training diverged at step {step}: {what} is {values[at]:.6g} "
            f"at index {at}; it must be {rule}"
        )


def toy_train(
    cfg: ModelConfig,
    dataset: SyntheticDataset,
    steps: int,
    lr: float,
    seed: int = 0,
    batch_size: int = 16,
):
    """Returns (final train accuracy, [(step, loss)] curve, trained model).

    Deterministic given the seed. Aborts with the step index if the loss
    goes non-finite, and also with the parameter and its first bad index
    if a gradient or an update does.
    """
    if steps < 0:
        raise ConfigError(f"toy_train needs a step count >= 0, got {steps}")
    if not (np.isfinite(lr) and lr > 0):
        raise ConfigError(f"toy_train needs a finite learning rate > 0, got {lr}")
    n = len(dataset.labels)
    if not 1 <= batch_size <= n:
        raise ConfigError(
            f"toy_train needs a batch size from 1 to the {n} samples, got {batch_size}"
        )
    model = Model(cfg, seed=seed)
    named = list(model.params.items())
    rng = np.random.default_rng(seed + 1)
    images = normalize(dataset.images)
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
        for name, p in named:
            if p.grad is not None:
                _require_valid(step, f"the gradient of {name}", p.grad)
        for p in model.parameters():
            if p.grad is not None:
                p.data -= lr * p.grad
        for name, p in named:
            _require_valid(step, f"after the update, {name}", p.data, name.endswith(".A"))
        curve.append((step, float(loss.data)))
    return accuracy(model, dataset), curve, model
