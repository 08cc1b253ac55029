"""Fixtures shared by the test modules."""

import contextlib

import numpy as np
import pytest

from plainscan.tensor import Tensor


@pytest.fixture
def float32_only():
    """A context manager: inside it, building a Tensor that is not float32,
    or handing ``_accumulate`` a gradient that is not, fails the test where
    it happens.  Build the inputs outside it."""
    init, accumulate = Tensor.__init__, Tensor._accumulate

    def checked_init(self, data, *args, **kwargs):
        init(self, data, *args, **kwargs)
        assert self.data.dtype == np.float32, f"a {self.data.dtype} node"

    def checked_accumulate(self, g, fresh=False):
        assert g.dtype == np.float32, f"a {g.dtype} gradient"
        accumulate(self, g, fresh)

    @contextlib.contextmanager
    def only():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Tensor, "__init__", checked_init)
            mp.setattr(Tensor, "_accumulate", checked_accumulate)
            yield

    return only
