"""Shared test helpers."""

import numpy as np
import pytest

from sympind import SymplecticPath


@pytest.fixture
def counted():
    """Wrap a path so that each evaluation records its batch size.

    Returns (path, sizes); the evaluation the constructor makes is not
    recorded.
    """
    def wrap(path):
        sizes = []

        def evaluate(t):
            sizes.append(int(np.size(t)))
            return path(t)

        out = SymplecticPath(path.domain, evaluate, derivative=path.deriv,
                             jmat=path.jmat, sample_hint=path.sample_hint)
        sizes.clear()
        return out, sizes

    return wrap
