"""Small numerical kernels."""

import numpy as np
import pytest

from gftkit.numerics import is_scalar


@pytest.mark.parametrize("x", [
    0, 1.5, 0.3 + 0.4j, True, np.float64(1.5), np.complex128(1j), np.int32(3), np.bool_(False),
    np.array(0.5), np.array(1 + 1j), np.array([0.5]), np.zeros((2, 3), complex), np.array([]),
    [0.5, 1.0], [[1j]], [], (1.0, 2.0), "abc", None,
], ids=repr)
def test_is_scalar_agrees_with_ndim(x):
    assert is_scalar(x) == (np.ndim(x) == 0)
