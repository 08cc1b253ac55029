"""Synthetic data and the SGD driver."""

import numpy as np
import pytest

from plainscan import get_config
from plainscan.data import make_stripes
from plainscan.errors import ConfigError, NumericalError
from plainscan.model import Model
from plainscan.train import accuracy, toy_train


def test_make_stripes_structure():
    ds = make_stripes(n=8, seed=1)
    assert ds.images.shape == (8, 32, 32, 3)
    assert ds.labels.tolist() == [0, 1] * 4  # balanced by construction
    assert ds.images.min() >= -0.2 - 1e-12 and ds.images.max() <= 1.2 + 1e-12
    # horizontal stripes are constant along rows, vertical along columns
    h = ds.images[0]
    v = ds.images[1]
    assert np.abs(np.diff(h, axis=1)).max() < 0.4 + 1e-12  # only noise varies
    assert np.abs(np.diff(v, axis=0)).max() < 0.4 + 1e-12
    assert h[:, 0, 0].std() > 0.3  # banding along rows
    assert v[0, :, 0].std() > 0.3  # banding along columns


def test_make_stripes_deterministic():
    a = make_stripes(n=4, seed=7)
    b = make_stripes(n=4, seed=7)
    c = make_stripes(n=4, seed=8)
    assert np.array_equal(a.images, b.images)
    assert not np.array_equal(a.images, c.images)


def test_toy_train_is_deterministic():
    cfg = get_config("toy")
    ds = make_stripes(n=32, seed=0)
    acc1, curve1, m1 = toy_train(cfg, ds, steps=3, lr=0.05, seed=0)
    acc2, curve2, m2 = toy_train(cfg, ds, steps=3, lr=0.05, seed=0)
    assert curve1 == curve2
    assert acc1 == acc2
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_toy_train_reduces_loss():
    cfg = get_config("toy")
    ds = make_stripes(n=32, seed=0)
    _, curve, _ = toy_train(cfg, ds, steps=20, lr=0.05, seed=0)
    assert len(curve) == 20
    assert curve[-1][1] < curve[0][1]
    assert all(np.isfinite(l) for _, l in curve)


def test_toy_train_batch_cap():
    # an oversized batch is a configuration error (exit 1), not a numerical one
    with pytest.raises(ConfigError, match="16"):
        toy_train(get_config("toy"), make_stripes(n=4), steps=1, lr=0.1, batch_size=64)


def test_toy_train_rejects_negative_steps():
    with pytest.raises(ConfigError, match="-1"):
        toy_train(get_config("toy"), make_stripes(n=4), steps=-1, lr=0.1, batch_size=4)
    _, curve, _ = toy_train(get_config("toy"), make_stripes(n=4), steps=0, lr=0.1, batch_size=4)
    assert curve == []


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -0.05])
def test_toy_train_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ConfigError, match="learning rate"):
        toy_train(get_config("toy"), make_stripes(n=4), steps=1, lr=lr, batch_size=4)


def test_divergence_is_reported_with_step():
    cfg = get_config("toy")
    ds = make_stripes(n=32, seed=0)
    # an absurd rate either overflows the loss or drives A out of its
    # valid range; both surface as the same error class
    with pytest.raises(NumericalError):
        toy_train(cfg, ds, steps=15, lr=1e6, seed=0)


def test_accuracy_function():
    cfg = get_config("toy")
    model = Model(cfg, seed=0)
    ds = make_stripes(n=8, seed=0)
    acc = accuracy(model, ds)
    assert 0.0 <= acc <= 1.0
