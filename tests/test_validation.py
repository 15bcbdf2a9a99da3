import math

import numpy as np
import pytest

from dsmsolve import validation


def test_norm_does_not_overflow():
    """A finite vector whose squares overflow still has its representable norm."""
    assert validation.norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
    assert validation.norm(np.array([1e200, math.inf])) == math.inf
    assert math.isnan(validation.norm(np.array([1e200, math.nan])))
    # the rescaled norm is inf only when ||x|| itself exceeds the largest float
    assert validation.norm(np.full(3, 1.5e308)) == math.inf
    assert validation.norm(np.full(3, 1e308)) == pytest.approx(math.sqrt(3) * 1e308, rel=1e-15)


def test_norm_has_the_bits_of_numpy_norm():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 20, 200):
        for exponent in (-300, -150, -8, 0, 8, 150):
            x = rng.standard_normal(n) * 10.0**exponent
            assert validation.norm(x).hex() == float(np.linalg.norm(x)).hex(), (n, exponent)
