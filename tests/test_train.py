"""Synthetic data and the SGD driver."""

import numpy as np
import pytest

from plainscan import get_config, train
from plainscan.data import make_stripes
from plainscan.errors import ConfigError, NumericalError
from plainscan.model import Model
from plainscan.tensor import Tensor
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


@pytest.mark.parametrize("n", [-1, 2.0, True])
def test_make_stripes_refuses_a_bad_sample_count(n):
    with pytest.raises(ConfigError, match=f"sample count n must .*, got {n!r}"):
        make_stripes(n)


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
    # a batch the dataset cannot fill is a configuration error (exit 1),
    # not a numerical one
    for batch_size in (64, 8, 0, -2):
        with pytest.raises(ConfigError, match=f"from 1 to the 4 samples, got {batch_size}"):
            toy_train(get_config("toy"), make_stripes(n=4), steps=1, lr=0.1, batch_size=batch_size)


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


@pytest.mark.filterwarnings("error")  # no numpy overflow warning comes first
def test_divergence_names_the_update_and_parameter_that_broke_it():
    # step 1's update flips A's sign; the forward of step 2 would be the
    # first to read it
    with pytest.raises(NumericalError, match=r"at step 1: after the update, blocks\.0\.A "
                       r"is \S+ at index \(0, 2\); it must be finite and strictly negative"):
        toy_train(get_config("toy"), make_stripes(n=64, seed=0), steps=20, lr=1e6, seed=0)


def test_a_non_finite_gradient_is_reported_before_the_update(monkeypatch):
    models, backwards = [], []
    real_backward = Tensor.backward

    def make_model(*args, **kwargs):
        models.append(Model(*args, **kwargs))
        return models[-1]

    def backward(self, grad=None):
        real_backward(self, grad)
        backwards.append(self)
        if len(backwards) == 3:
            models[0].params["blocks.1.D"].grad[5] = np.nan

    monkeypatch.setattr(train, "Model", make_model)
    monkeypatch.setattr(Tensor, "backward", backward)
    with pytest.raises(NumericalError, match=r"at step 2: the gradient of blocks\.1\.D "
                       r"is nan at index \(5,\); it must be finite"):
        toy_train(get_config("toy"), make_stripes(n=32, seed=0), steps=5, lr=0.05, seed=0)
    assert np.isfinite(models[0].params["blocks.1.D"].data).all()


def test_accuracy_function():
    cfg = get_config("toy")
    model = Model(cfg, seed=0)
    ds = make_stripes(n=8, seed=0)
    acc = accuracy(model, ds)
    assert 0.0 <= acc <= 1.0
