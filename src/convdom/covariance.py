"""Covariance algebra of a discrete group acting on bounded matrix fields.

Elements are finitely supported maps x -> (bounded function y -> d x d
matrix) with the twisted convolution product of the crossed-product picture.
The module also provides the coordinate change to and from kernels (an
isometric *-isomorphism on discrete groups), the regular representation on
doubled test vectors, the unitary that intertwines it with the kernel action,
an isometric embedding into a trivial-action convolution algebra of matrix
functions (finite groups), and spectral tests for symmetry of the algebra.

Elements derive from the block store of :mod:`convdom.kernels`, as kernels
and test vectors do, and inherit its linear structure; their ``__init__``
takes the arrays that ``arrays`` returns, checked as a kernel's are.  The
coordinate change and the intertwiner are remaps of the coordinate arrays.
The twisted product and the regular representation are joins of their own,
not routed through kernel composition or action, so they remain independent
checks of R and of the intertwiner.
"""

from __future__ import annotations

import numpy as np

from .groups import Group
from .kernels import (
    Kernel,
    TestVector,
    _fibre_sups,
    _install,
    _join,
    _l1_sum,
    _ranks,
    _reduce_by_key,
    _require_compatible,
    _row_codes,
    _run_starts,
    _Store,
    operator_norms,
)


class CovarianceElement(_Store):
    """Finitely supported element f with f(x, y) a d x d complex matrix.

    The l1 norm sums, over x, the sup over y of the operator norm of
    f(x, y); it is the norm under which the product is submultiplicative and
    the involution isometric.  Stored in the kernels' block store, keyed by
    (x, y).
    """

    _names = ("x", "y")

    def __init__(self, group: Group, dim: int, x, y, blocks) -> None:
        """Element from the arrays :attr:`arrays` returns: x and y point arrays and an ``(n, d, d)`` block stack.

        The input is checked as a kernel's is, a refusal naming the first
        offending point.  Every key is made canonical, and blocks whose keys
        coincide are summed in row order, zero ones included; a sum that is
        zero is dropped, as in every store.  The covariance file reader builds
        elements with it.
        """
        self._input(group, dim, (x, y), blocks, (dim, dim))

    @classmethod
    def unit(cls, group: Group, dim: int) -> "CovarianceElement":
        """Multiplicative unit u(x, y) = delta_{x=e} I; finite groups only."""
        y = group.window()
        eye = np.broadcast_to(np.eye(dim, dtype=complex), (len(y), dim, dim))
        return cls._from_arrays(group, dim, (np.zeros_like(y), y), eye)

    def l1_norm(self) -> float:
        best = _fibre_sups(self)[1]
        return _l1_sum(best[best > 0.0])

    def product(self, other: "CovarianceElement") -> "CovarianceElement":
        """Twisted convolution (f * h)(x, z) = sum_y f(y, z) h(y^-1 x, y^-1 z).

        Each entry (y, z) of f meets the entries (x2, y2) of h with
        y2 = y^-1 z, in storage order, and adds f(y, z) h(x2, y2) at
        (y x2, z).  One key pass joins all pairs and keys each term by the dense
        ranks of y x2 (formed once per (y, x2) that meets) and of z, in one int64.
        The ranks order as the points do, so the sums come out in key order,
        one per key, and are installed as they are.  The block products are
        formed inside the sum per key, one term per key at a time, and each
        key's sum is its terms in the order of the entry-by-entry loop, bit for
        bit.
        """
        _require_compatible(self, other)
        g, (y, z), (x2, y2) = self.group, self._coords, other._coords
        i, j = _join(*_row_codes(g.multiply_many(g.inverse_many(y), z), y2))
        yx2_first, yx2 = _ranks(np.concatenate(_row_codes(y, x2)))
        met_first, key = _ranks(yx2[i] * len(yx2_first) + yx2[len(y) :][j])
        points = np.concatenate([g.multiply_many(y[i[met_first]], x2[j[met_first]]), z])
        point_first, point = _ranks(_row_codes(points)[0])
        key = point[key] * len(point_first) + point[len(met_first) :][i]  # replaces the (y, x2) rank
        first, sums = _reduce_by_key(key, lambda at: np.matmul(self._stack[i[at]], other._stack[j[at]]))
        xr, zr = np.divmod(key[first], len(point_first))
        coords = (points[point_first[xr]], points[point_first[zr]])
        return _install(CovarianceElement.__new__(CovarianceElement), g, self.dim, coords, sums)

    def involution(self) -> "CovarianceElement":
        """f*(x, y) = f(x^-1, x^-1 y)^H; unimodular discrete form."""
        g, (x, y) = self.group, self._coords
        x_inv = g.inverse_many(x)
        coords = (x_inv, g.multiply_many(x_inv, y))
        return CovarianceElement._from_arrays(g, self.dim, coords, self._stack.conj().transpose(0, 2, 1))


# -- coordinate change to and from kernels --------------------------------------


def R_map(f: CovarianceElement) -> Kernel:
    """Kernel picture of a covariance element: (Rf)(x, y) = f(x y^-1, x).

    In (s, t) storage this reads entries[(s, t)] = f(s, s t); the map is an
    isometric *-isomorphism onto kernels for discrete groups.
    """
    g, (x, y) = f.group, f._coords
    return Kernel._from_arrays(g, f.dim, (x, g.multiply_many(g.inverse_many(x), y)), f._stack)


def R_inverse(kernel: Kernel) -> CovarianceElement:
    """Inverse coordinate change: (R^-1 K)(x, y) = K(y, x^-1 y)."""
    g, (s, t) = kernel.group, kernel._coords
    return CovarianceElement._from_arrays(g, kernel.dim, (s, g.multiply_many(s, t)), kernel._stack)


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
    return TestVector._from_arrays(g, f.dim, (g.multiply_many(y[i], x1[j]), z[j]), terms)


def W_intertwine(xi: TestVector) -> TestVector:
    """Unitary coordinate shear (W xi)(x, z) = xi(x z, z)."""
    if not xi.doubled:
        raise ValueError("W acts on doubled test vectors")
    g, (a, z) = xi.group, xi._coords
    return TestVector._from_arrays(g, xi.dim, (g.multiply_many(a, g.inverse_many(z)), z), xi._stack)


def W_inverse(eta: TestVector) -> TestVector:
    """Inverse shear (W^-1 eta)(x, z) = eta(x z^-1, z)."""
    if not eta.doubled:
        raise ValueError("W acts on doubled test vectors")
    g, (b, z) = eta.group, eta._coords
    return TestVector._from_arrays(g, eta.dim, (g.multiply_many(b, z), z), eta._stack)


# -- trivial-action embedding (finite groups) -------------------------------------


def theta_embed(f: CovarianceElement) -> tuple[np.ndarray, np.ndarray]:
    """Embed into matrix-valued functions under plain convolution.

    Realizes the group action by the left-translation unitaries V on the
    finite-dimensional space of C^d-valued functions over the group: the
    value at x is the product of the multiplication operator by f(x, .) with
    V(x), a |G|d x |G|d matrix holding f(x, y) at block (y, x^-1 y), block
    positions in element order.  Returns the distinct x of f's support,
    ascending, and an ``(m, |G|d, |G|d)`` stack of their values.  The
    embedding is an isometric *-homomorphism onto its image inside the
    trivial-action convolution algebra.
    """
    g, (x, y) = f.group, f._coords
    pts = g.window()
    n, d = len(pts), f.dim
    index, rows, cols = _row_codes(pts, y, g.multiply_many(g.inverse_many(x), y))
    row, col = _join(rows, index)[1], _join(cols, index)[1]
    starts = _run_starts(x)
    fibre = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(x)))
    big = np.zeros((len(starts), n, d, n, d), dtype=complex)
    big[fibre, row, :, col, :] = f._stack
    return x[starts], big.reshape(len(starts), n * d, n * d)


def matrix_function_convolve(
    a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray], group: Group
) -> tuple[np.ndarray, np.ndarray]:
    """Trivial-action convolution (a * b)(x) = sum_y a(y) b(y^-1 x) of (points, blocks) pairs.

    Each point ya of a meets each point yb of b and adds a(ya) b(yb) at
    ya yb.  The products are formed inside the sum per key, and each key's
    sum is its terms in (ya, yb) order, ya outer, both ascending, bit for
    bit as the pair-by-pair loop.  Returns the points, ascending, and their
    blocks.
    """
    (ya, blocks_a), (yb, blocks_b) = a, b
    i, j = np.repeat(np.arange(len(ya)), len(yb)), np.tile(np.arange(len(yb)), len(ya))
    points = group.multiply_many(ya[i], yb[j])
    first, sums = _reduce_by_key(_row_codes(points)[0], lambda at: np.matmul(blocks_a[i[at]], blocks_b[j[at]]))
    return points[first], sums


def matrix_function_norm(a: tuple[np.ndarray, np.ndarray]) -> float:
    """l1-type norm of a (points, blocks) pair: the operator norms of the blocks, added in point order."""
    return float(sum(operator_norms(a[1]).tolist()))


# -- dense representations and spectra (finite groups) ------------------------------


def operator_matrix(kernel: Kernel) -> np.ndarray:
    """Dense matrix of the integral operator over a whole finite group."""
    return kernel.to_dense(kernel.group.window())


def symmetry_spectrum(f: CovarianceElement) -> np.ndarray:
    """Spectrum of f in the covariance algebra of a finite group.

    Left multiplication by f on the full algebra (dimension |G|^2 d^2)
    factors exactly as (identity) tensor (dense operator image of R f), so
    its eigenvalues are those of the |G|d x |G|d operator matrix of R f,
    each repeated |G|d times.  The tests hold this against the eigenvalues of
    the literal |G|^2 d^2 matrix of left multiplication.
    """
    eigs = np.linalg.eigvals(operator_matrix(R_map(f)))
    return np.repeat(eigs, len(eigs))
