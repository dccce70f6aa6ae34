"""Tuple-keyed views of the block stores, for tests that state a rule entry by entry.

The package reads every store through its ``arrays``; these views are built on
them and nothing else.
"""

from functools import lru_cache

import numpy as np

from convdom import TestVector


def as_mapping(store) -> dict:
    """A store, or a ``(points, blocks)`` pair, as a mapping key -> value in row order.

    Keys are point tuples, or pairs of them for two-variable stores; values are
    rows of the stack, Python floats for an envelope's values.
    """
    *coords, stack = store if isinstance(store, tuple) else store.arrays
    points = [map(tuple, c.tolist()) for c in coords]
    keys = zip(*points) if len(points) > 1 else points[0]
    return dict(zip(keys, stack.tolist() if stack.ndim == 1 else stack))


@lru_cache(maxsize=4)  # brute-force oracles read a few kernels pair by pair; the cache holds them alive
def _blocks(kernel) -> dict:
    return as_mapping(kernel)


def kernel_at(kernel, x, y) -> np.ndarray:
    """Value of a kernel at the pair (x, y): its block at (x y^-1, y), a read-only zero block off the support."""
    g = kernel.group
    y = g.canonical(y)
    return _blocks(kernel).get((g.multiply(x, g.inverse(y)), y), np.broadcast_to(0j, (kernel.dim, kernel.dim)))


def basis(group, dim: int, key, component: int = 0, doubled: bool = False) -> TestVector:
    """The test vector with one unit coefficient, at ``key`` and ``component``."""
    vec = np.zeros(dim, dtype=complex)
    vec[component] = 1.0
    return TestVector(group, dim, {key: vec}, doubled=doubled)
