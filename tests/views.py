"""Tuple-keyed views and builders of the block stores, for tests that state a rule entry by entry.

The package reads every store through its ``arrays`` and builds it from
arrays of that layout; these views are built on ``arrays`` and the builders
on the array constructors, and nothing else.
"""

from functools import lru_cache

import numpy as np

from convdom import CovarianceElement, Kernel, TestVector


def as_mapping(store) -> dict:
    """A store, or a ``(points, blocks)`` pair, as a mapping key -> value in row order.

    Keys are point tuples, or pairs of them for two-variable stores; values are
    rows of the stack, Python floats for an envelope's values.
    """
    *coords, stack = store if isinstance(store, tuple) else store.arrays
    points = [map(tuple, c.tolist()) for c in coords]
    keys = zip(*points) if len(points) > 1 else points[0]
    return dict(zip(keys, stack.tolist() if stack.ndim == 1 else stack))


def from_mapping(cls, group, *args, doubled: bool = False):
    """A store of ``cls`` from a mapping key -> value, the layout :func:`as_mapping` returns.

    ``args`` is ``(dim, mapping)``, or ``(mapping,)`` for an :class:`Envelope`.
    Keys are points, or pairs of points for kernels, covariance elements and
    doubled test vectors.  The points and values go to the array constructor
    as written, one list per point of a key, so the constructor checks them,
    makes them canonical and sums (for an envelope max-merges) the values of
    keys that coincide, in the mapping's order.
    """
    *dim, mapping = args
    keys = list(mapping)
    coords = [[key[i] for key in keys] for i in range(2)] if doubled or cls in (Kernel, CovarianceElement) else [keys]
    return cls(group, *dim, *coords, list(mapping.values()))


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
    return from_mapping(TestVector, group, dim, {key: vec}, doubled=doubled)
