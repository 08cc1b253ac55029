"""Engine-level tests: values against brute-force oracles, gradients
against finite differences, and the shape/graph contracts."""

import gc
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import plainscan
from plainscan import Model, get_config, tensor
from plainscan.errors import NumericalError, ShapeError
from plainscan.ops import cross_entropy, grad_check
from plainscan.paths import generate_continuous_paths
from plainscan.scan import SsmCore, direction_aware_scan_2d_ref
from plainscan.tensor import (
    MacTally,
    Tensor,
    _phi,
    _phi_prime,
    _sigmoid,
    _softplus,
    count_macs,
    grad_enabled,
    no_grad,
)


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    out = (Tensor(a) @ Tensor(b)).data
    ref = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                ref[i, j] += a[i, k] * b[k, j]
    assert np.abs(out - ref).max() < 1e-12


def test_matmul_shape_errors_name_operands():
    a = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        a @ Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match="2-D"):
        Tensor(np.zeros(3)) @ Tensor(np.zeros((3, 2)))


def test_elementwise_requires_matching_shapes():
    t = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        t + Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        t * Tensor(np.ones(1))  # a one-element Tensor does not broadcast either
    with pytest.raises(ShapeError, match="expand"):
        t * np.zeros(3)  # arrays do not auto-broadcast
    with pytest.raises(ShapeError, match="expand"):
        t + 2.0  # nor do python scalars
    with pytest.raises(TypeError):
        2.0 * t  # there are no reflected ops


def test_pointwise_values():
    x = np.array([-20.0, -1.0, 0.0, 1.0, 20.0, 25.0])
    t = Tensor(x)
    assert np.allclose(t.sigmoid().data, 1.0 / (1.0 + np.exp(-x)), atol=1e-15)
    assert np.allclose(t.silu().data, x / (1.0 + np.exp(-x)), atol=1e-15)
    # softplus large-argument branch: softplus(25) == 25 + log1p(exp(-25))
    sp = t.softplus().data
    assert sp[-1] == pytest.approx(25.0 + np.log1p(np.exp(-25.0)), abs=1e-15)
    assert sp[0] == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-12)
    assert Tensor(np.array([0.0])).softplus().data[0] == pytest.approx(np.log(2.0))


def test_sigmoid_is_stable_at_extremes():
    x = np.array([-750.0, 750.0])
    s = _sigmoid(x)
    assert np.isfinite(s).all()
    assert s[0] == 0.0 and s[1] == 1.0
    assert np.isfinite(_softplus(x)).all()


def _pointwise_inputs(dtype, seed):
    """±0, ±inf, ±NaN, ±800, a denormal, the three floats around the x
    below which exp(-x) overflows, and spread-out normals, in ``dtype``."""
    dtype = np.dtype(dtype)
    edge = -np.log(np.finfo(dtype).max).astype(dtype)  # -88.72 or -709.78
    around = [np.nextafter(edge, dtype.type(-np.inf)), edge, np.nextafter(edge, dtype.type(0))]
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(-around[0])) and np.isfinite(np.exp(-around[2]))
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
               np.finfo(dtype).smallest_subnormal, *around]
    rng = np.random.default_rng(seed)
    return np.concatenate([special, rng.standard_normal(20_000) * 10]).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_sigmoid_matches_the_reciprocal_form_bit_for_bit(dtype):
    # 1 / (1 + exp(-x)), and Tensor.sigmoid's gradient g s (1 - s)
    x = _pointwise_inputs(dtype, 16)
    g = np.random.default_rng(17).standard_normal(x.shape).astype(dtype)
    view = np.int64 if dtype == np.float64 else np.int32
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x))
    assert s.dtype == dtype
    assert np.array_equal(_sigmoid(x).view(view), s.view(view))
    xt = Tensor(x.copy())
    out = xt.sigmoid()
    out.backward(g)
    assert np.array_equal(out.data.view(view), s.view(view))
    assert np.array_equal(xt.grad.view(view), (g * s * (1.0 - s)).view(view))


def test_silu_output_and_gradient_match_the_closed_form_bit_for_bit():
    # x / (1 + exp(-x)) forward, in float64 and float32; the backward
    # recomputes the sigmoid from the input and forms g s (1 + x (1 - s)).
    # Past exp's overflow edge silu is x / inf, -0.0, where the true value
    # is below 1e-35 in float32 and 1e-305 in float64.
    for dtype, view in ((np.float64, np.int64), (np.float32, np.int32)):
        x = _pointwise_inputs(dtype, 18).reshape(4, -1)
        g = np.random.default_rng(19).standard_normal(x.shape).astype(dtype)
        g[:, :3] = [1.0, -0.0, 0.0]
        xt = Tensor(x.copy())
        with np.errstate(invalid="ignore", over="ignore"):  # -inf / inf; exp(800)
            out = xt.silu()
            out.backward(g)
            s = 1.0 / (1.0 + np.exp(-x))
            want_out, want = x / (1.0 + np.exp(-x)), g * s * (1.0 + x * (1.0 - s))
            past = np.isfinite(x) & np.isinf(np.exp(-x))
        assert np.array_equal(out.data.view(view), want_out.view(view)), dtype
        assert np.array_equal(xt.grad.view(view), want.view(view)), dtype
        assert past.sum() >= 2  # -800 and the floats past the edge
        assert (out.data[past] == 0).all() and np.signbit(out.data[past]).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_softplus_gradient_matches_the_closed_form_bit_for_bit(dtype):
    x = _pointwise_inputs(dtype, 20)
    g = np.random.default_rng(21).standard_normal(x.shape).astype(dtype)
    view = np.int64 if dtype == np.float64 else np.int32
    xt = Tensor(x.copy())
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in softplus(inf)
        xt.softplus().backward(g)
        want = g * (1.0 / (1.0 + np.exp(-x)))
    assert np.array_equal(xt.grad.view(view), want.view(view))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_sigmoid_and_silu_are_within_a_few_ulp_of_long_double(dtype):
    # wherever exp(-x) is finite: silu within 2.5 eps of its value, and the
    # sigmoid within 2.5 eps where it is normal.  Below that the sigmoid is
    # a denormal, rounded to its spacing, the smallest denormal.
    fi = np.finfo(dtype)
    edge = float(np.log(fi.max))
    rng = np.random.default_rng(22)
    x = np.concatenate([rng.standard_normal(50_000) * 10,
                        rng.uniform(-edge, 40.0, 50_000)]).astype(dtype)
    x = x[x > -edge]
    xl = x.astype(np.longdouble)
    s_ref = 1 / (1 + np.exp(-xl))
    with no_grad():
        y = Tensor(x).silu().data.astype(np.longdouble)
    err = np.abs(_sigmoid(x).astype(np.longdouble) - s_ref)
    assert (err <= 2.5 * fi.eps * s_ref + fi.smallest_subnormal).all()
    y_ref = xl * s_ref
    assert (np.abs(y - y_ref) <= 2.5 * fi.eps * np.abs(y_ref)).all()


def test_no_grad_silu_peaks_one_array_above_its_input():
    # silu's forward writes into one new buffer: exp(-x), 1 + exp(-x), then
    # x over that.  Its output is all it allocates that is input-sized.
    x = Tensor(np.random.default_rng(23).standard_normal((256, 1024)))
    tracemalloc.start()
    try:
        with no_grad():
            y = x.silu()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.data.nbytes == x.data.nbytes
    assert peak <= 1.05 * x.data.nbytes, f"peak {peak / x.data.nbytes:.2f} inputs"


def test_softplus_matches_two_branch_formula_bit_for_bit():
    def two_branch(x):
        big = x > 20.0
        xs = np.where(big, 0.0, x)
        return np.where(big, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(xs)))

    edge = [20.0, np.nextafter(20.0, 0.0), np.nextafter(20.0, 40.0), 19.0, 21.0, 5e-324]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0]
    x = np.concatenate([edge, special, np.random.default_rng(17).standard_normal(100_000) * 15])
    assert np.array_equal(_softplus(x).view(np.int64), two_branch(x).view(np.int64))
    small = np.array([-3.0, 0.5, 20.0])  # no entry above 20: the fix-up is skipped
    assert np.array_equal(_softplus(small).view(np.int64), two_branch(small).view(np.int64))


def test_phi_series_matches_exact_across_the_switch():
    # the series branch engages below |z| = 1e-4; both sides must agree
    z = np.array([-2e-4, -1.0000001e-4, -0.9999999e-4, -1e-6, 1e-6, 2e-4])
    exact = np.expm1(z) / z
    assert np.abs(_phi(z) - exact).max() < 1e-12
    # phi' closed form is reliable only outside the series regime; check it
    # there, and check continuity at the switch (the closed form loses
    # ~half its digits to cancellation below the threshold)
    big = np.abs(z) >= 1e-4
    exact_p = (np.exp(z[big]) * (z[big] - 1.0) + 1.0) / (z[big] * z[big])
    assert np.abs(_phi_prime(z)[big] - exact_p).max() < 1e-8
    for b in (1e-4, -1e-4):
        below, above = _phi_prime(np.array([b * 0.999999, b * 1.000001]))
        assert abs(above - below) < 5e-8  # limited by the closed form itself
    assert _phi(np.array([0.0]))[0] == 1.0
    assert _phi_prime(np.array([0.0]))[0] == 0.5


def test_zoh_phi_gradient_in_series_regime():
    # finite differences on the stable forward value validate phi' where
    # the closed form cannot
    z = Tensor(np.array([1e-6, -3e-7, 5e-5]), name="z")
    assert grad_check(lambda z: z.zoh_phi().sum(), [z]) < 1e-3


def test_diamond_graph_accumulates_both_branches():
    # y = a*b + a*c : dy/da must collect b + c through two paths
    a = Tensor(np.array([2.0]))
    b = Tensor(np.array([3.0]))
    c = Tensor(np.array([5.0]))
    y = a * b + a * c
    y.backward()
    assert a.grad[0] == pytest.approx(8.0)
    assert b.grad[0] == pytest.approx(2.0)
    assert c.grad[0] == pytest.approx(2.0)


def test_reused_node_in_chain():
    x = Tensor(np.array([3.0]))
    y = x * x  # d/dx = 2x
    y.backward()
    assert x.grad[0] == pytest.approx(6.0)


def test_backward_requires_scalar_without_seed():
    t = Tensor(np.zeros((2, 2)))
    with pytest.raises(ShapeError, match="scalar"):
        (t + t).backward()


def test_deep_graph_does_not_hit_recursion_limit():
    x = Tensor(np.array([1.0]))
    y = x
    for _ in range(5000):
        y = y + x
    y.backward()
    assert x.grad[0] == pytest.approx(5001.0)


def test_expand_gradient_sums_copies():
    x = Tensor(np.array([[1.0], [2.0]]))
    y = x.expand(2, 3).sum()
    y.backward()
    assert np.allclose(x.grad, [[3.0], [3.0]])
    with pytest.raises(ShapeError, match="cannot expand"):
        Tensor(np.zeros((2, 2))).expand(3, 3)


def test_take_gradient_scatter_adds():
    x = Tensor(np.array([10.0, 20.0, 30.0]))
    y = x.take(np.array([0, 0, 2])).sum()
    y.backward()
    assert np.allclose(x.grad, [2.0, 0.0, 1.0])


def test_take_gradient_multi_dim_indices_off_axis_0():
    # a 2-D index on axis 1 puts two output axes where axis 1 was; a random
    # upstream weighting (not an all-ones seed) exposes a misplaced scatter
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 4, 3)))
    idx = np.array([[0, 1], [2, 3]])
    w = rng.standard_normal((2, 2, 2, 3))
    (x.take(idx, axis=1) * Tensor(w)).sum().backward()
    ref = np.zeros((2, 4, 3))
    for i in range(2):
        for j in range(2):
            ref[:, idx[i, j], :] += w[:, i, j, :]
    assert np.abs(x.grad - ref).max() < 1e-15


def test_getitem_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    y = x[1].sum()
    y.backward()
    assert np.allclose(x.grad, [[0, 0, 0], [1, 1, 1]])
    x = Tensor(np.arange(12.0).reshape(3, 4))
    w = np.arange(4.0).reshape(2, 2)
    (x[1:, None, ..., ::2][:, 0] * Tensor(w)).sum().backward()
    assert np.array_equal(x.grad, [[0, 0, 0, 0], [0, 0, 1, 0], [2, 0, 3, 0]])


@pytest.mark.parametrize("idx", [
    1, (slice(None), slice(1, 3)), (..., slice(None, None, 2)), (slice(1, None), None, 0),
], ids=["int", "last-axis-slice", "strided", "none-and-int"])
def test_getitem_is_a_view_of_its_parent(idx):
    # the tape keeps a slice and its parent in one buffer
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    y = x[idx]
    assert np.shares_memory(y.data, x.data)
    assert np.array_equal(y.data, x.data[idx])


def test_getitem_of_one_element_is_0d_as_in_numpy():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    y = x[1, 2]
    assert y.shape == () and y.data == 5.0
    (y * Tensor(np.array(2.0))).backward()
    assert np.array_equal(x.grad, [[0, 0, 0], [0, 0, 2]])


@pytest.mark.parametrize("idx", [
    np.array([0, 0, 2]), [0, 0, 2], (slice(None), np.array([1])), np.array([True, False, True]),
    True,
], ids=["int-array", "list", "array-in-tuple", "mask", "bool"])
def test_getitem_rejects_advanced_indices(idx):
    # an index array may repeat an element, and a gradient written back
    # through it keeps one copy; gathers go through take, which accumulates
    x = Tensor(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ShapeError, match="take"):
        x[idx]


def test_stack_requires_identical_shapes():
    with pytest.raises(ShapeError, match="stack"):
        Tensor.stack([Tensor(np.zeros(2)), Tensor(np.zeros(3))])
    out = Tensor.stack([Tensor(np.ones(2)), Tensor(np.zeros(2))], axis=1)
    assert out.shape == (2, 2)


def test_reshape_transpose_roundtrip_gradients():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    y = x.reshape(4, 6).reshape(3, 8)
    (y + y).sum().backward()
    assert np.all(x.grad == 2.0)


def test_mean_and_sum_axes():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert np.allclose(x.sum(axis=0).data, [3.0, 5.0, 7.0])
    assert np.allclose(x.mean(axis=1).data, [1.0, 4.0])
    assert x.sum(axis=1).shape == (2,)


@pytest.mark.parametrize(
    "fn",
    [
        lambda a, b: (a * b).sum(),
        lambda a, b: (a.mean(axis=0) * b.mean(axis=0)).sum(),
        lambda a, b: (a[1:] * b[:-1]).sum(),
        lambda a, b: (a * a * a).sum() + b.sum(),
        lambda a, b: a.exp().sum() + b.sigmoid().sum(),
        lambda a, b: (a * a).mean().exp() + b.silu().sum(),
        lambda a, b: a.softplus().sum() + b.zoh_phi().sum(),
    ],
)
def test_grad_check_per_op(fn):
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((3, 4)), name="a")
    b = Tensor(rng.standard_normal((3, 4)), name="b")
    assert grad_check(fn, [a, b]) < 1e-3


def test_grad_check_matmul_and_moves():
    rng = np.random.default_rng(8)
    a = Tensor(rng.standard_normal((3, 4)), name="a")
    b = Tensor(rng.standard_normal((4, 2)), name="b")

    def f(a, b):
        return ((a @ b).reshape(2, 3).take(np.array([0, 2]), axis=1)).sum()

    assert grad_check(f, [a, b]) < 1e-3


def test_mac_counting_conventions():
    a = Tensor(np.ones((3, 4)))
    b = Tensor(np.ones((4, 5)))
    with count_macs() as tally:
        a @ b
    assert tally.total == 3 * 4 * 5
    with count_macs() as tally:
        a + a          # adds are free
        a * a          # one MAC per element
        a.silu()       # two per element
        a.reshape(12)  # moves are free
        a.mean(axis=1)  # one per output, for the scaling
    assert tally.total == 12 + 24 + 3
    # nested tallies both observe inner work
    with count_macs() as outer:
        with count_macs() as inner:
            a * a
        a * a
    assert inner.total == 12 and outer.total == 24


def test_tally_outside_context_is_static():
    with count_macs() as tally:
        pass
    Tensor(np.ones(4)) * Tensor(np.ones(4))
    assert tally.total == 0
    assert isinstance(tally, MacTally)


def test_tensor_rejects_tensor_wrapping():
    with pytest.raises(TypeError):
        Tensor(Tensor(np.zeros(2)))


@pytest.mark.parametrize("z", [-1.2e-4, -1e-3, -0.1])
def test_phi_prime_matches_long_double_series(z):
    # phi'(z) = sum_k (k+1) z^k / (k+2)!, summed in long double
    zl = np.longdouble(z)
    term, ref = np.longdouble(1), np.longdouble(0)  # term = z^k / (k+2)!
    term /= 2
    for k in range(40):
        ref += (k + 1) * term
        term *= zl / (k + 3)
    got = _phi_prime(np.array([z]))[0]
    assert abs((np.longdouble(got) - ref) / ref) < 1e-11


def test_no_grad_records_no_parents_and_nests():
    x = Tensor(np.array([0.5, -1.0, 2.0]))
    assert grad_enabled()
    with no_grad():
        assert not grad_enabled()
        with no_grad():
            y = (x + x).exp().silu().sum()
        assert not grad_enabled()  # the inner exit restores the outer mode
    assert grad_enabled()
    assert y._parents == () and y._backward is None
    taped = (x + x).exp().silu().sum()
    assert y.data == taped.data
    assert taped._parents and taped._backward is not None


def _oracle_graph(rng):
    H, W, d, m = 2, 3, 4, 2
    core = SsmCore(A=Tensor(-rng.uniform(0.5, 1.5, (d, m))), D=Tensor(rng.standard_normal(d)),
                   Theta=Tensor(rng.standard_normal((5, m))))
    return direction_aware_scan_2d_ref(
        Tensor(rng.standard_normal((H, W, d))), Tensor(rng.standard_normal((H, W, m))),
        Tensor(rng.standard_normal((H, W, m))), Tensor(rng.uniform(0.1, 0.5, (H, W, d))),
        core, generate_continuous_paths(H, W),
    )


def test_a_dropped_taped_graph_is_freed_by_reference_counting():
    # no closure holds its own node, so the tape holds no reference cycles
    rng = np.random.default_rng(0)
    model = Model(get_config("toy"), seed=0)
    graphs = {
        "exp": lambda: Tensor(rng.standard_normal(5)).exp(),
        "model": lambda: cross_entropy(
            model.forward(Tensor(rng.standard_normal((2, 32, 32, 3)))), [0, 1]),
        "oracle": lambda: _oracle_graph(rng),
    }
    gc.collect()
    gc.disable()
    try:
        for name, build in graphs.items():
            out = build()
            value = weakref.ref(out.data)
            del out
            assert value() is None, f"{name}: the output outlived its graph"
            assert gc.collect() == 0, f"{name}: the graph left cyclic garbage"
    finally:
        gc.enable()


def test_no_grad_restores_the_mode_after_an_error():
    with pytest.raises(NumericalError):
        with no_grad():
            raise NumericalError("raised inside the context")
    assert grad_enabled()


def test_backward_releases_intermediates_and_keeps_leaf_grads():
    x = Tensor(np.array([0.5, -1.0, 2.0]))
    w = Tensor(np.array([1.5, 2.0, -0.5]))
    y = x * w
    z = y.exp()
    loss = z.sum()
    loss.backward()
    for node in (y, z):
        assert node.grad is None and node._parents == ()
    assert np.allclose(x.grad, w.data * np.exp(y.data))
    assert np.allclose(w.grad, x.data * np.exp(y.data))
    assert loss.grad == 1.0  # the root keeps its seed


def test_second_backward_through_a_released_graph_raises():
    x = Tensor(np.array([0.5, -1.0, 2.0]))
    y = x.exp()
    first, second = y.sum(), (y * y).sum()
    first.backward()
    with pytest.raises(RuntimeError, match="released"):
        first.backward()
    with pytest.raises(RuntimeError, match="released"):
        second.backward()  # reaches y, which the first sweep released


def test_first_gradient_is_not_shared_between_the_parents_of_an_add():
    # __add__ hands the same g to both parents; each must get its own copy
    a, b = Tensor(np.array([1.0, 2.0, 3.0])), Tensor(np.array([-1.0, 0.5, 4.0]))
    seed = np.array([0.25, -2.0, 1.5])
    (a + b).backward(seed)
    a.grad += 10.0
    assert np.array_equal(b.grad, [0.25, -2.0, 1.5])
    assert np.array_equal(seed, [0.25, -2.0, 1.5])


@pytest.mark.parametrize("op, expected", [
    (lambda a: a * a, lambda x: 2.0 * x),
    (lambda a: a + a, lambda x: np.full_like(x, 2.0)),
], ids=["a*a", "a+a"])
def test_leaf_used_twice_gets_the_summed_gradient(op, expected):
    a = Tensor(np.array([1.5, -2.0, 0.5]))
    out = op(a)
    out.backward(np.ones(3))
    assert np.array_equal(a.grad, expected(a.data))
    assert np.array_equal(out.grad, np.ones(3))  # the root's grad was not added to


def test_root_gradient_does_not_alias_the_callers_seed():
    for make in (lambda a: a.exp(), lambda a: a.reshape(3, 1), lambda a: a + a):
        a = Tensor(np.array([0.5, -1.0, 2.0]))
        out = make(a)
        seed = np.ones(out.shape)
        out.backward(seed)
        assert not np.shares_memory(out.grad, seed)
        assert not np.shares_memory(a.grad, seed)
        out.grad += 1.0
        a.grad += 1.0
        assert np.array_equal(seed, np.ones(out.shape))


_OPS = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "matmul": lambda a, b: a @ b.reshape(4, 3),
    "exp": lambda a, b: a.exp(),
    "sigmoid": lambda a, b: a.sigmoid(),
    "silu": lambda a, b: a.silu(),
    "softplus": lambda a, b: a.softplus(),
    "zoh_phi": lambda a, b: a.zoh_phi(),
    "reshape": lambda a, b: a.reshape(4, 3),
    "expand": lambda a, b: a[:1].expand(3, 4),
    "getitem": lambda a, b: a[1:, ::2],
    "take": lambda a, b: a.take(np.array([2, 0, 2]), axis=1),
    "sum": lambda a, b: a.sum(),
    "sum-axis": lambda a, b: a.sum(axis=0),
    "mean": lambda a, b: a.mean(),
    "mean-axis": lambda a, b: a.mean(axis=1),
    "stack": lambda a, b: Tensor.stack([a, b], axis=1),
}


@pytest.mark.parametrize("op", _OPS.values(), ids=_OPS.keys())
def test_every_op_maps_float32_inputs_to_float32_outputs_and_gradients(op, float32_only):
    rng = np.random.default_rng(9)
    a, b = (Tensor(rng.standard_normal((3, 4)).astype(np.float32)) for _ in range(2))
    a.data[0, :3] = [3e-5, -2e-5, 25.0]  # zoh_phi's series and softplus's large branch
    with float32_only():
        y = op(a, b)
        y.backward(np.ones_like(y.data))
    assert y.dtype == np.float32 and a.grad.dtype == np.float32


def test_astype_casts_once_and_hands_the_gradient_back_in_the_old_dtype():
    a = Tensor(np.random.default_rng(10).standard_normal((3, 4)))
    assert a.astype(np.float64) is a and a.astype("float64") is a  # no new node
    y = a.astype(np.float32)
    assert y.dtype == np.float32 and np.array_equal(y.data, a.data.astype(np.float32))
    (y * y).sum().backward()
    assert a.grad.dtype == np.float64
    assert np.array_equal(a.grad, (2 * y.data).astype(np.float64))
    with pytest.raises(TypeError, match="float16"):
        a.astype(np.float16)


class _FakeLibc:
    """A C library whose ``mallopt`` records each call and returns ``answer``."""

    def __init__(self, answer):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return answer

        self.mallopt = mallopt


@pytest.mark.parametrize("answer, calls", [
    (1, [(-3, 32 << 20), (-1, 64 << 20)]),  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
    (0, [(-3, 32 << 20)]),  # refused, as by 32-bit glibc: the trim stays dynamic
])
def test_keep_freed_heap_sets_the_trim_threshold_once_the_mmap_threshold_is_taken(
        monkeypatch, answer, calls):
    lib = _FakeLibc(answer)
    monkeypatch.setattr(tensor.ctypes, "CDLL", lambda name: lib)
    tensor._keep_freed_heap()
    assert lib.calls == calls


def test_keep_freed_heap_returns_quietly_without_mallopt(monkeypatch):
    monkeypatch.setattr(tensor.ctypes, "CDLL", lambda name: object())  # as on macOS
    assert tensor._keep_freed_heap() is None

    def refuse(name):
        raise AssertionError("opened a C library off POSIX")

    monkeypatch.setattr(tensor.ctypes, "CDLL", refuse)
    monkeypatch.setattr(tensor.os, "name", "nt")
    assert tensor._keep_freed_heap() is None


_TRAIN_FAULTS = """
import resource
from plainscan.data import make_stripes
from plainscan.model import get_config
from plainscan.train import toy_train
cfg, data = get_config("toy"), make_stripes(64, seed=0)
for _ in range(2):
    toy_train(cfg, data, steps=2, lr=0.05)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
toy_train(cfg, data, steps=8, lr=0.05)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_warm_training_steps_fault_almost_no_pages():
    # Without the thresholds glibc trims each freed tape off the heap top and
    # these 8 steps fault 20-32k pages back in; with them, 4-130.  A
    # fresh interpreter, so that no earlier test has grown the heap.
    src = str(Path(plainscan.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _TRAIN_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 1000
