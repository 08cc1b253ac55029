"""Dense ndarray values with a reverse-mode gradient tape.

Values are numpy arrays and each operation records a backward closure,
micrograd style.  A float32 or float64 array keeps its dtype, anything else
becomes float64, and every op computes and allocates in its inputs' dtype.
The op set is the one the package calls, plus ``sigmoid``.  There is no
implicit broadcasting and no scalar operand: ``+`` and ``*`` take another
Tensor of the same shape, and anything else goes through an explicit
``expand``, a read-only broadcast view rather than a copy; a basic-index
slice is a view of its parent too.  Shape errors raise
:class:`~plainscan.errors.ShapeError` naming both operands.

Every op builds its node in one step, ``Tensor(value, parents,
backward=bwd)``, and only there does the grad mode act: while the tape
records the node keeps its parents and closure, and inside
:func:`no_grad` neither, so each intermediate is freed as soon as its
last reference goes.  A backward closure reads the ``.data`` of the
node's parents and at most its own output array, never its node, so the
tape holds no reference cycles and a dropped taped graph is freed by
reference counting.  It re-derives every other intermediate of the
forward and keeps no copy; besides those arrays it keeps only small
constants of the op, such as indices and shapes, and the 2D scan its
state history while that fits its budget (:mod:`plainscan.scan`).  No
op writes into a Tensor's data after building it, which is what makes
this exact, and what lets a slice or an ``expand`` share its parent's
buffer: code that changes a parent's ``.data`` between a forward and its
backward changes the gradients, and the data of the views on it.
``backward()`` releases the graph as it runs: once a node's closure has
run, the node drops the closure, its parents and (unless it is a leaf or
the root) its gradient.  A second ``backward()`` through a released node
raises.

Multiply-accumulate counts can be collected with :func:`count_macs`; the
cost conventions live in ``_record`` call sites and are mirrored stage by
stage by the rows of :func:`plainscan.analysis.forward_stages`.

Importing this module sets glibc's malloc thresholds once
(:func:`_keep_freed_heap`), so the memory a freed tape returns to the heap
stays mapped for the next step instead of being trimmed and faulted back in.
"""

from __future__ import annotations

import contextlib
import ctypes
import os

import numpy as np

from .errors import ShapeError

_mac_stack: list[MacTally] = []
_FLOATS = (np.dtype(np.float64), np.dtype(np.float32))  # the dtypes PMWB stores
# phi and phi' switch to their series where |z| is below this
_SERIES_BELOW = 1e-4
# A blocked loop's buffers fit in this many bytes (block_steps): the 2D
# scan's block buffers with the history slice a backward block reads, and
# conv2d's im2col columns.  That is a loop's whole working set, kept in a
# 2 MiB L2.  Swept for the scan on a 2-vCPU Xeon (2 MiB L2 a core), the
# budgets interleaved in one process, median ms of the l1-infer / toy-train
# / scan-long ops:
#   768 KiB 28.1 / 67.1 / 14.2    1152 KiB 27.8 / 66.9 / 13.5
#   1536 KiB 27.8 / 67.5 / 13.5   2048 KiB 28.4 / 69.9 / 13.9
# Sizing one block's states alone, without the buffer count, read 29.4 /
# 67.4 / 13.8 at 128 KiB and 27.6 / 71.0 / 14.5 at 512 KiB, where toy-train
# and scan-long run the seven-buffer backward out of L2; this rule read
# 27.7 / 67.6 / 13.5 at 1536 KiB in the same runs.  A toy batch of 64 8x8
# patchified images is exactly one conv2d block.
_BLOCK_BYTES = 1536 << 10
_grad_enabled = True


def _keep_freed_heap():
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB.

    A training step frees its whole tape at once, and glibc then trims the
    heap top above its dynamic trim threshold (twice the largest freed mmap
    chunk, a few MiB here), so the next step faults the same pages back in.
    These are the ceiling glibc's dynamic mmap threshold climbs toward on
    64-bit and twice that, its own rule for the trim threshold.  Setting
    either turns the dynamic adjustment off, so both are set, the trim
    threshold only once the mmap threshold is taken.  A C library without
    ``mallopt`` (macOS) or whose ``mallopt`` refuses 32 MiB (musl refuses
    every value, 32-bit glibc this one) is left as it is.
    """
    if os.name != "posix":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # the libc this process runs
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD; 0 means refused
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()


def grad_enabled() -> bool:
    """Whether new operations are recorded on the tape (see :func:`no_grad`)."""
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Build no tape while active; the previous mode comes back on exit."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def block_steps(unit_bytes, buffers):
    """Units a block covers (steps of the 2D scan, output rows of conv2d)
    when its loop holds this many buffers of this many bytes a unit: as
    many as fit ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // (buffers * unit_bytes))


def _released(g):
    raise RuntimeError(
        "backward() reached a node whose graph an earlier backward() released; "
        "run the forward again"
    )


def _record(n: int) -> None:
    for tally in _mac_stack:
        tally.total += n


class MacTally:
    """Accumulates MAC-equivalents while its context is active."""

    def __init__(self):
        self.total = 0


@contextlib.contextmanager
def count_macs():
    tally = MacTally()
    _mac_stack.append(tally)
    try:
        yield tally
    finally:
        _mac_stack.remove(tally)  # MacTally has no __eq__: this matches by identity


def _phi(z):
    """expm1(z)/z with a series fallback near zero (avoids cancellation)."""
    small = np.abs(z) < _SERIES_BELOW
    out = np.expm1(z)
    np.divide(out, z, out=out, where=~small)  # dodge 0/0 in the dead branch
    zm = z[small]
    out[small] = 1.0 + zm / 2.0 + zm * zm / 6.0
    return out


def _phi_prime(z):
    """d/dz of expm1(z)/z, with the same series fallback as :func:`_phi`."""
    small = np.abs(z) < _SERIES_BELOW
    zs = np.where(small, 1.0, z)
    # z e^z - expm1(z) keeps about twice the digits of e^z (z - 1) + 1
    out = (zs * np.exp(zs) - np.expm1(zs)) / (zs * zs)
    zm = z[small]
    out[small] = 0.5 + zm / 3.0 + zm * zm / 8.0
    return out


def _softplus(x):
    # For x > 20, log1p(exp(x)) == x to double precision headroom; the clamp
    # keeps exp() off large arguments and those entries are redone as
    # x + log1p(exp(-x)), only where they exist.
    out = np.log1p(np.exp(np.minimum(x, 20.0)))
    big = x > 20.0
    if big.any():
        xb = x[big]
        out[big] = xb + np.log1p(np.exp(-xb))
    return out


def _one_plus_exp_neg(x, out=None):
    # 1 + exp(-x), in a new buffer unless ``out`` is given.  Below exp's
    # overflow edge (about -88.7 in float32, -709.8 in float64) it is inf, so
    # the overflow is expected.
    out = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return out


def _silu(x, tmp, out):
    # x / (1 + exp(-x)) through ``tmp`` into ``out``, either of which may be
    # x's own buffer; past exp's overflow edge that is x / inf, -0.0
    return np.divide(x, _one_plus_exp_neg(x, out=tmp), out=out)


def _sigmoid(x):
    out = _one_plus_exp_neg(x)
    return np.divide(1.0, out, out=out)


def _silu_grad(x, g):
    # g * s * (1 + x (1 - s)) with s = sigmoid(x), in that order, in two buffers
    s = _sigmoid(x)
    t = np.subtract(1.0, s)
    np.multiply(x, t, out=t)
    np.add(1.0, t, out=t)
    np.multiply(g, s, out=s)
    s *= t
    return s


class Tensor:
    """A node in the gradient graph wrapping one ndarray value."""

    __slots__ = ("data", "grad", "_parents", "_backward", "name")

    def __init__(self, data, parents=(), backward=None, name=None):
        if isinstance(data, Tensor):
            raise TypeError("wrap ndarrays, not Tensors")
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.grad = None
        if backward is not None and _grad_enabled:
            self._parents, self._backward = parents, backward
        else:
            self._parents, self._backward = (), None
        self.name = name

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r})"

    # -- graph machinery ----------------------------------------------

    def _accumulate(self, g, fresh=False):
        """Add ``g`` to this node's gradient.

        The first gradient is kept as it is when the op made ``g`` for
        this call alone (``fresh``) with this node's shape and dtype.
        Otherwise it is copied: ``__add__`` hands the same ``g`` to both
        parents, views share the child's buffer, and ``backward()`` hands
        the caller's seed to the root.
        """
        if self.grad is not None:
            self.grad += g
        elif (fresh and type(g) is np.ndarray and g.shape == self.data.shape
              and g.dtype == self.data.dtype):
            self.grad = g
        else:
            self.grad = np.empty(self.data.shape, self.data.dtype)
            self.grad[...] = g

    def backward(self, grad=None):
        """Reverse sweep; visits every reachable node exactly once.

        Each node is released once its closure has run: it drops the
        closure, its parents and, unless it is the root, its gradient, so
        the graph is freed while the sweep goes on.  Leaves keep their
        gradients; a later ``backward()`` through a released node raises.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() without a seed gradient needs a scalar, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        # Iterative post-order: scan recurrences make graphs deeper than
        # the interpreter's recursion limit.
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        while topo:
            node = topo.pop()
            if node._backward is None:  # a leaf
                continue
            node._backward(node.grad)
            node._backward, node._parents = _released, ()
            if node is not self:
                node.grad = None

    # -- arithmetic ----------------------------------------------------

    def _same_shape(self, other):
        """The one shape rule: ``+`` and ``*`` take a Tensor of this shape."""
        if not isinstance(other, Tensor):
            raise ShapeError(
                f"elementwise op needs a Tensor, got {type(other).__name__}; "
                "wrap it and use expand() for broadcasting"
            )
        if other.shape != self.shape:
            raise ShapeError(
                f"elementwise op needs matching shapes, got {self.shape} vs {other.shape}"
            )
        return other

    def __add__(self, other):
        other = self._same_shape(other)

        def bwd(g):
            self._accumulate(g)
            other._accumulate(g)

        return Tensor(self.data + other.data, (self, other), backward=bwd)

    def __mul__(self, other):
        other = self._same_shape(other)
        _record(self.size)

        def bwd(g):
            self._accumulate(g * other.data, fresh=True)
            other._accumulate(g * self.data, fresh=True)

        return Tensor(self.data * other.data, (self, other), backward=bwd)

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            raise ShapeError(f"matmul needs a Tensor, got {type(other).__name__}")
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(
                f"matmul expects 2-D operands, got {self.shape} and {other.shape}"
            )
        if self.shape[1] != other.shape[0]:
            raise ShapeError(
                f"matmul inner dimensions disagree: {self.shape} @ {other.shape}"
            )
        n, k = self.shape
        p = other.shape[1]
        _record(n * k * p)

        def bwd(g):
            self._accumulate(g @ other.data.T, fresh=True)
            other._accumulate(self.data.T @ g, fresh=True)

        return Tensor(self.data @ other.data, (self, other), backward=bwd)

    # -- pointwise nonlinearities -------------------------------------

    def exp(self):
        _record(self.size)
        y = np.exp(self.data)
        return Tensor(y, (self,), backward=lambda g: self._accumulate(g * y, fresh=True))

    def sigmoid(self):
        _record(self.size)
        s = _sigmoid(self.data)
        return Tensor(s, (self,),
                      backward=lambda g: self._accumulate(g * s * (1.0 - s), fresh=True))

    def silu(self):
        _record(2 * self.size)
        y = np.empty_like(self.data)
        _silu(self.data, y, y)
        return Tensor(y, (self,),
                      backward=lambda g: self._accumulate(_silu_grad(self.data, g), fresh=True))

    def softplus(self):
        _record(self.size)
        return Tensor(_softplus(self.data), (self,),
                      backward=lambda g: self._accumulate(g * _sigmoid(self.data), fresh=True))

    def zoh_phi(self):
        """expm1(z)/z, the factor turning Delta*B into B_bar under ZOH."""
        _record(self.size)
        return Tensor(_phi(self.data), (self,),
                      backward=lambda g: self._accumulate(g * _phi_prime(self.data), fresh=True))

    # -- dtype and shape manipulation (zero-cost) ----------------------

    def astype(self, dtype):
        """This value in float ``dtype``, and the gradient back in this one's.
        In the dtype it already has it is this Tensor, with no new node."""
        dtype = np.dtype(dtype)
        if dtype not in _FLOATS:
            raise TypeError(f"a Tensor holds float32 or float64, not {dtype}")
        if dtype == self.dtype:
            return self
        # _accumulate copies g into a gradient of this Tensor's dtype
        return Tensor(self.data.astype(dtype), (self,), backward=lambda g: self._accumulate(g))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor(self.data.reshape(shape), (self,),
                      backward=lambda g: self._accumulate(g.reshape(old)))

    def expand(self, *shape):
        """Explicit broadcast to `shape` (a view); the gradient sums the copies."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        try:
            data = np.broadcast_to(self.data, shape)
        except ValueError as e:
            raise ShapeError(f"cannot expand {self.shape} to {shape}: {e}") from None
        old = self.shape
        lead = len(shape) - len(old)
        axes = tuple(range(lead)) + tuple(
            lead + i for i, d in enumerate(old) if d == 1 and shape[lead + i] != 1
        )

        def bwd(g):
            if axes:
                self._accumulate(g.sum(axis=axes).reshape(old), fresh=True)
            else:
                self._accumulate(g)

        return Tensor(data, (self,), backward=bwd)

    def __getitem__(self, idx):
        """Basic indexing only: ints, slices, ``...`` and ``None``.

        The value is a view of this Tensor's data, not a copy, so the tape
        holds a slice and its parent in one buffer; ints alone pick one
        element, a 0-d value as in numpy.  That is safe because no op
        writes into a Tensor's data after building it.  A basic index
        never repeats an element, so the gradient is one assignment; gathers
        with index arrays go through :meth:`take`.
        """
        for part in idx if isinstance(idx, tuple) else (idx,):
            if not (part is None or part is Ellipsis or isinstance(part, slice)
                    or isinstance(part, (int, np.integer)) and not isinstance(part, bool)):
                raise ShapeError(
                    f"Tensor indexing takes ints, slices, ... and None, got "
                    f"{type(part).__name__}; gather with Tensor.take"
                )

        def bwd(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            self._accumulate(full, fresh=True)

        return Tensor(self.data[idx], (self,), backward=bwd)

    def take(self, indices, axis=0):
        """Gather along an axis; the gradient scatter-adds back."""
        indices = np.asarray(indices)
        axis = axis % self.data.ndim
        # the gather puts indices.ndim axes where `axis` was
        index_axes = list(range(axis, axis + indices.ndim))

        def bwd(g):
            full = np.zeros_like(self.data)
            moved = np.moveaxis(full, axis, 0)
            np.add.at(moved, indices, np.moveaxis(g, index_axes, range(indices.ndim)))
            self._accumulate(full, fresh=True)

        return Tensor(np.take(self.data, indices, axis=axis), (self,), backward=bwd)

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None):
        shape = self.shape

        def bwd(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, shape))

        return Tensor(self.data.sum(axis=axis), (self,), backward=bwd)

    def mean(self, axis=None):
        """The sum times 1/n in one node, metered as one MAC per output."""
        scale = 1.0 / (self.size if axis is None else self.shape[axis])
        y = self.data.sum(axis=axis) * scale
        _record(y.size)
        shape = self.shape

        def bwd(g):
            g = g * scale
            if axis is not None:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, shape))

        return Tensor(y, (self,), backward=bwd)

    # -- constructors --------------------------------------------------

    @staticmethod
    def stack(tensors, axis=0):
        tensors = list(tensors)
        shapes = {t.shape for t in tensors}
        if len(shapes) != 1:
            raise ShapeError(f"stack needs identical shapes, got {sorted(shapes)}")

        def bwd(g):
            for i, t in enumerate(tensors):
                t._accumulate(np.take(g, i, axis=axis), fresh=True)

        return Tensor(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), backward=bwd)
