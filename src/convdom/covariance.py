"""Covariance algebra of a discrete group acting on bounded matrix fields.

Elements are finitely supported maps x -> (bounded function y -> d x d
matrix) with the twisted convolution product of the crossed-product picture.
The module also provides the coordinate change to and from kernels (an
isometric *-isomorphism on discrete groups), the regular representation on
doubled test vectors, the unitary that intertwines it with the kernel action,
an isometric embedding into a trivial-action convolution algebra of matrix
functions (finite groups), and spectral tests for symmetry of the algebra.

Elements and test vectors live in the block store of :mod:`convdom.kernels`,
as kernels do.  The coordinate change and the intertwiner are remaps of its
coordinate arrays.  The twisted product and the regular representation are
joins of their own, not routed through kernel composition or action, so
they remain independent checks of R and of the intertwiner.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .groups import Group, Point
from .kernels import (
    Kernel,
    TestVector,
    _fibre_sups,
    _from_arrays,
    _join,
    _l1_sum,
    _mapping_view,
    _max_block_difference,
    _parse_mapping,
    _reduce_by_key,
    _require_compatible,
    _row_codes,
    _run_starts,
    _scaled,
    _set_store,
    _stores_sum,
    operator_norm,
)


class CovarianceElement:
    """Finitely supported element f with f(x, y) a d x d complex matrix.

    The l1 norm sums, over x, the sup over y of the operator norm of
    f(x, y); it is the norm under which the product is submultiplicative and
    the involution isometric.  Stored in the kernels' block store, keyed by
    (x, y).
    """

    def __init__(self, group: Group, dim: int, entries: Mapping[tuple[Point, Point], np.ndarray]) -> None:
        """Element from a mapping (x, y) -> d x d matrix.

        All-zero matrices are dropped, keys are made canonical, and matrices
        whose keys coincide are summed in the mapping's order; a sum that
        cancels to zero is kept.
        """
        _set_store(self, group, dim, *_parse_mapping(group, entries, 2, (dim, dim)), keep_cancelled=True)

    @classmethod
    def unit(cls, group: Group, dim: int) -> "CovarianceElement":
        """Multiplicative unit u(x, y) = delta_{x=e} I; finite groups only."""
        eye = np.eye(dim, dtype=complex)
        e = group.identity
        return cls(group, dim, {(e, y): eye for y in group.elements()})

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only store: x and y coordinates and the block stack, in (x, y) order."""
        return (*self._coords, self._stack)

    @property
    def entries(self) -> Mapping[tuple[Point, Point], np.ndarray]:
        """Read-only mapping (x, y) -> block in sorted key order, built on first use."""
        return _mapping_view(self)

    def support(self) -> list[tuple[Point, Point]]:
        return list(self.entries)

    def value_at(self, x: Point, y: Point) -> np.ndarray:
        key = (self.group.canonical(x), self.group.canonical(y))
        return self.entries.get(key, np.broadcast_to(0j, (self.dim, self.dim)))

    def l1_norm(self) -> float:
        best = _fibre_sups(self)[1]
        return _l1_sum(best[best > 0.0])

    def product(self, other: "CovarianceElement") -> "CovarianceElement":
        """Twisted convolution (f * h)(x, z) = sum_y f(y, z) h(y^-1 x, y^-1 z).

        Each entry (y, z) of f meets the entries (x2, y2) of h with
        y2 = y^-1 z, in storage order, and adds f(y, z) h(x2, y2) at
        (y x2, z).  The join runs one first coordinate y at a time, in sorted
        order.  Within one y the keys (y x2, z) are distinct, so each key's
        terms are summed in the order of the entry-by-entry loop, while only
        one y's block products are held at a time.
        """
        _require_compatible(self, other)
        g, (y, z), (x2, y2) = self.group, self._coords, other._coords
        left, right = _row_codes(g.multiply_many(g.inverse_many(y), z), y2)
        keys = np.zeros((0, 2 * g.coord_len), dtype=np.int64)
        sums = np.zeros((0, self.dim, self.dim), dtype=complex)
        starts = _run_starts(y)
        for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(y)]):
            i, j = _join(left[lo:hi], right)
            i += lo
            keys = np.concatenate([keys, np.hstack([g.multiply_many(y[i], x2[j]), z[i]])])
            blocks = np.concatenate([sums, np.matmul(self._stack[i], other._stack[j])])
            rows, sums, _ = _reduce_by_key(_row_codes(keys)[0], blocks)
            keys = keys[rows]
        coords = np.hsplit(keys, 2)
        return _from_arrays(CovarianceElement, g, self.dim, coords, sums)

    def involution(self) -> "CovarianceElement":
        """f*(x, y) = f(x^-1, x^-1 y)^H; unimodular discrete form."""
        g, (x, y) = self.group, self._coords
        x_inv = g.inverse_many(x)
        coords = (x_inv, g.multiply_many(x_inv, y))
        return _from_arrays(CovarianceElement, g, self.dim, coords, self._stack.conj().transpose(0, 2, 1))

    def scale(self, c: complex) -> "CovarianceElement":
        return _scaled(self, c)

    def __add__(self, other: "CovarianceElement") -> "CovarianceElement":
        return _stores_sum(self, other)

    def __sub__(self, other: "CovarianceElement") -> "CovarianceElement":
        return self + other.scale(-1.0)

    def max_block_difference(self, other: "CovarianceElement") -> float:
        return _max_block_difference(self, other)

    def __repr__(self) -> str:
        return f"CovarianceElement({self.group.name}, dim={self.dim}, {len(self._stack)} entries)"


# -- coordinate change to and from kernels --------------------------------------


def R_map(f: CovarianceElement) -> Kernel:
    """Kernel picture of a covariance element: (Rf)(x, y) = f(x y^-1, x).

    In (s, t) storage this reads entries[(s, t)] = f(s, s t); the map is an
    isometric *-isomorphism onto kernels for discrete groups.
    """
    g, (x, y) = f.group, f._coords
    return _from_arrays(Kernel, g, f.dim, (x, g.multiply_many(g.inverse_many(x), y)), f._stack)


def R_inverse(kernel: Kernel) -> CovarianceElement:
    """Inverse coordinate change: (R^-1 K)(x, y) = K(y, x^-1 y)."""
    g, (s, t) = kernel.group, kernel._coords
    return _from_arrays(CovarianceElement, g, kernel.dim, (s, g.multiply_many(s, t)), kernel._stack)


# -- regular representation and intertwiner --------------------------------------


def pi_regular(f: CovarianceElement, xi: TestVector) -> TestVector:
    """Regular representation on doubled vectors:
    (Pi(f) xi)(x, z) = sum_y f(y, x z) xi(y^-1 x, z).

    Each entry (y, w) of f meets the entries (x1, z) of xi with
    x1 z = y^-1 w, in storage order, and adds f(y, w) xi(x1, z) at (y x1, z).
    """
    if not xi.doubled:
        raise ValueError("pi_regular expects a doubled test vector")
    if xi.group != f.group or xi.dim != f.dim:
        raise ValueError("test vector space does not match the covariance element")
    g, (y, w), (x1, z) = f.group, f._coords, xi._coords
    left, right = _row_codes(g.multiply_many(g.inverse_many(y), w), g.multiply_many(x1, z))
    i, j = _join(left, right)
    terms = np.matmul(f._stack[i], xi._stack[j, :, None])[:, :, 0]
    return _from_arrays(TestVector, g, f.dim, (g.multiply_many(y[i], x1[j]), z[j]), terms)


def W_intertwine(xi: TestVector) -> TestVector:
    """Unitary coordinate shear (W xi)(x, z) = xi(x z, z)."""
    if not xi.doubled:
        raise ValueError("W acts on doubled test vectors")
    g, (a, z) = xi.group, xi._coords
    return _from_arrays(TestVector, g, xi.dim, (g.multiply_many(a, g.inverse_many(z)), z), xi._stack)


def W_inverse(eta: TestVector) -> TestVector:
    """Inverse shear (W^-1 eta)(x, z) = eta(x z^-1, z)."""
    if not eta.doubled:
        raise ValueError("W acts on doubled test vectors")
    g, (b, z) = eta.group, eta._coords
    return _from_arrays(TestVector, g, eta.dim, (g.multiply_many(b, z), z), eta._stack)


# -- trivial-action embedding (finite groups) -------------------------------------


def _require_finite(group: Group, what: str) -> list[Point]:
    if not group.is_finite:
        raise ValueError(f"{what} requires a finite group, got {group.name}")
    return group.elements()


def theta_embed(f: CovarianceElement) -> dict[Point, np.ndarray]:
    """Embed into matrix-valued functions under plain convolution.

    Realizes the group action by the left-translation unitaries V on the
    finite-dimensional space of C^d-valued functions over the group: the
    value at x is the product of the multiplication operator by f(x, .) with
    V(x), a |G|d x |G|d matrix.  The embedding is an isometric *-homomorphism
    onto its image inside the trivial-action convolution algebra.
    """
    g, (x, y) = f.group, f._coords
    pts = g.canonical_many(_require_finite(g, "theta_embed"))
    n, d = len(pts), f.dim
    index, rows, cols = _row_codes(pts, y, g.multiply_many(g.inverse_many(x), y))
    row, col = _join(rows, index)[1], _join(cols, index)[1]
    out: dict[Point, np.ndarray] = {}
    starts = _run_starts(x)
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(x)]):
        big = np.zeros((n, d, n, d), dtype=complex)
        big[row[lo:hi], :, col[lo:hi], :] = f._stack[lo:hi]
        out[tuple(x[lo].tolist())] = big.reshape(n * d, n * d)
    return out


def matrix_function_convolve(
    a: Mapping[Point, np.ndarray], b: Mapping[Point, np.ndarray], group: Group
) -> dict[Point, np.ndarray]:
    """Trivial-action convolution (a * b)(x) = sum_y a(y) b(y^-1 x)."""
    out: dict[Point, np.ndarray] = {}
    for ya in sorted(a):
        for yb in sorted(b):
            key = group.multiply(ya, yb)
            block = a[ya] @ b[yb]
            if key in out:
                out[key] = out[key] + block
            else:
                out[key] = block
    return out


def matrix_function_norm(a: Mapping[Point, np.ndarray]) -> float:
    """l1-type norm: sum over x of the operator norm of a(x)."""
    return float(sum(operator_norm(a[x]) for x in sorted(a)))


# -- dense representations and spectra (finite groups) ------------------------------


def operator_matrix(kernel: Kernel) -> np.ndarray:
    """Dense matrix of the integral operator over a whole finite group."""
    pts = _require_finite(kernel.group, "operator_matrix")
    return kernel.to_dense(pts)


def pi_matrix(f: CovarianceElement) -> np.ndarray:
    """Dense matrix of the regular representation on the doubled space."""
    g = f.group
    pts = _require_finite(g, "pi_matrix")
    d = f.dim
    pairs = [(x, z) for x in pts for z in pts]
    pair_index = {p: i for i, p in enumerate(pairs)}
    size = len(pairs) * d
    mat = np.zeros((size, size), dtype=complex)
    col = 0
    for x, z in pairs:
        for i in range(d):
            image = pi_regular(f, TestVector.basis(g, d, (x, z), i, doubled=True))
            for key, val in image.values.items():
                row = pair_index[key] * d
                mat[row : row + d, col] = val
            col += 1
    return mat


def left_multiplication_matrix(f: CovarianceElement) -> np.ndarray:
    """Matrix of h -> f * h on the covariance algebra of a finite group.

    The algebra is viewed as a vector space of dimension |G|^2 d^2 with the
    basis of single-entry elements, ordered by (x, y, row, column).
    """
    g = f.group
    pts = _require_finite(g, "left_multiplication_matrix")
    index = {p: i for i, p in enumerate(pts)}
    n = len(pts)
    d = f.dim
    d2 = d * d
    size = n * n * d2
    mat = np.zeros((size, size), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for (y, w), block in f.entries.items():
        y_inv_w = g.multiply(g.inverse(y), w)
        kron = np.kron(block, eye)
        for a in pts:
            row = (index[g.multiply(y, a)] * n + index[w]) * d2
            col = (index[a] * n + index[y_inv_w]) * d2
            mat[row : row + d2, col : col + d2] += kron
    return mat


def symmetry_spectrum(f: CovarianceElement) -> np.ndarray:
    """Spectrum of f in the covariance algebra of a finite group.

    Left multiplication by f on the full algebra (dimension |G|^2 d^2)
    factors exactly as (identity) tensor (dense operator image of R f), so
    its eigenvalues are those of the |G|d x |G|d operator matrix of R f,
    each repeated |G|d times.  ``left_multiplication_matrix`` is the literal
    matrix that the tests hold this against.
    """
    eigs = np.linalg.eigvals(operator_matrix(R_map(f)))
    return np.repeat(eigs, len(eigs))
