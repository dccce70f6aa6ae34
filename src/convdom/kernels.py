"""Operator-valued kernels with summable envelope norms.

A kernel maps group pairs (x, y) to d x d complex matrices and is stored in
convolution coordinates (s, t) with s = x * y^-1 and t = y, so that the
envelope (the dominating function of the off-diagonal decay) lives on the
single variable s.  All supports are finite.

A :class:`Kernel` is a structure of arrays: int64 coordinate arrays for s
and t, each ``(nnz, coord_len)``, and a read-only ``(nnz, d, d)`` complex
block stack, with rows in lexicographic (s, t) order.  Every operation runs
on whole arrays through the batched group law: composition is a join on the
row point s*t, one batched matrix product and a segment sum; envelopes are
batched operator norms and a segment max; dense sections are fancy indexing.
Sums over equal keys are taken front to back in the order the per-entry
definition lists their terms (``np.add.reduceat`` would pair them
differently), so every operation is bit-reproducible and equal, bit for bit,
to its entry-by-entry definition.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .groups import Group, Point


def operator_norm(mat: np.ndarray) -> float:
    """Largest singular value; plain modulus for 1x1 blocks."""
    if mat.shape == (1, 1):
        return abs(complex(mat[0, 0]))
    return float(np.linalg.norm(mat, 2))


def operator_norms(blocks: np.ndarray) -> np.ndarray:
    """:func:`operator_norm` of every block of an ``(n, d, d)`` stack, bit for bit."""
    if blocks.shape[1] == 1:
        # abs(complex) is hypot(re, im); np.abs rounds differently.
        return np.hypot(blocks[:, 0, 0].real, blocks[:, 0, 0].imag)
    if not len(blocks):
        return np.zeros(0)
    return np.linalg.norm(blocks, 2, axis=(1, 2))


def _row_codes(*arrays: np.ndarray) -> list[np.ndarray]:
    """Int64 codes of the rows of integer arrays of equal width, one array of codes each.

    Equal rows get equal codes across all arrays, and codes order as the rows
    order lexicographically, so sorts and joins on codes are sorts and joins
    on points.
    """
    rows = np.concatenate(arrays)
    if not len(rows):
        return [np.zeros(0, dtype=np.int64) for _ in arrays]
    lo = rows.min(axis=0)
    span = rows.max(axis=0) - lo + 1
    if math.prod(span.tolist()) < 2**62:
        # Mixed radix, first column most significant.
        weights = np.append(np.cumprod(span[:0:-1])[::-1], 1)
        codes = (rows - lo) @ weights
    else:
        codes = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    return np.split(codes, np.cumsum([len(a) for a in arrays[:-1]], dtype=np.int64))


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (i, j) with ``left[i] == right[j]``, ordered by i, then by j."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    lo = np.searchsorted(ordered, left, "left")
    counts = np.searchsorted(ordered, left, "right") - lo
    i = np.repeat(np.arange(len(left)), counts)
    # Position of each pair within the sorted right side: its run start plus
    # its offset inside the run.
    offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return i, order[np.arange(len(i)) + offsets]


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values (or rows) in a sorted array."""
    new = np.ones(len(ordered), dtype=bool)
    differs = ordered[1:] != ordered[:-1]
    new[1:] = differs if differs.ndim == 1 else differs.any(axis=1)
    return np.flatnonzero(new)


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct codes; ``np.unique`` would import ``numpy.ma`` (2 MB)."""
    ordered = codes[np.argsort(codes, kind="stable")]
    return ordered[_run_starts(ordered)]


def _sum_by_key(codes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows of ``values`` that share a code, in ascending code order.

    Each sum runs front to back in row order, as ``acc += value`` over the
    rows would.  Returns the first row of each code and the sums.
    """
    order = np.argsort(codes, kind="stable")
    starts = _run_starts(codes[order])
    sums = values[order[starts]]
    lengths = np.diff(starts, append=len(codes))
    for k in range(1, lengths.max(initial=1)):
        live = lengths > k
        sums[live] += values[order[starts[live] + k]]
    return order[starts], sums


def _key_arrays(group: Group, keys: list) -> tuple[np.ndarray, np.ndarray]:
    """(s, t) keys as two ``(n, coord_len)`` int64 arrays, not yet reduced."""
    shape = (len(keys), 2, group.coord_len)
    if not keys:
        pairs = np.zeros(shape, dtype=np.int64)
    else:
        try:
            pairs = np.array(keys, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            pairs = None
        if pairs is None or pairs.shape != shape:
            for s, t in keys:  # name the offending point
                group.canonical(s)
                group.canonical(t)
            raise ValueError(f"{group.name}: kernel keys must be (s, t) pairs of int64 points")
    return pairs[:, 0], pairs[:, 1]


def _block_stack(keys: list, values: list, dim: int) -> np.ndarray:
    """Mapping values as an ``(n, dim, dim)`` complex stack."""
    if not values:
        return np.zeros((0, dim, dim), dtype=complex)
    try:
        stack = np.array(values, dtype=complex)
        if stack.shape == (len(values), dim, dim):
            return stack
    except ValueError:
        pass
    for key, mat in zip(keys, values):  # name the offending entry
        arr = np.asarray(mat, dtype=complex)
        if arr.shape != (dim, dim):
            raise ValueError(f"entry at {key!r} has shape {arr.shape}, expected {(dim, dim)}")
    raise ValueError("entry matrices do not stack")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


class Envelope:
    """Finitely supported nonnegative function on a group; zeros are pruned."""

    def __init__(self, group: Group, values: Mapping[Point, float]) -> None:
        self.group = group
        cleaned: dict[Point, float] = {}
        for s, v in values.items():
            v = float(v)
            if v < 0:
                raise ValueError(f"envelope value at {s!r} is negative: {v}")
            if v == 0.0:
                continue
            key = group.canonical(s)
            cleaned[key] = max(v, cleaned.get(key, 0.0))
        self._values = dict(sorted(cleaned.items()))

    @property
    def values(self) -> dict[Point, float]:
        return self._values

    def support(self) -> list[Point]:
        return list(self._values)

    def value(self, s: Point) -> float:
        return self._values.get(self.group.canonical(s), 0.0)

    def l1_norm(self) -> float:
        # fsum is exactly rounded, so the norm is invariant under any
        # permutation of the support (involutions, translations).
        return math.fsum(self._values.values())

    def restrict(self, radius: int) -> "Envelope":
        """Keep only points of word length <= radius."""
        g = self.group
        return Envelope(g, {s: v for s, v in self._values.items() if g.word_length(s) <= radius})

    def cap(self, level: float) -> "Envelope":
        """Pointwise minimum with a constant level."""
        if level < 0:
            raise ValueError("cap level must be nonnegative")
        return Envelope(self.group, {s: min(v, level) for s, v in self._values.items()})

    def convolve(self, other: "Envelope") -> "Envelope":
        if self.group != other.group:
            raise ValueError("envelope groups differ")
        g = self.group
        out: dict[Point, float] = {}
        for s, a in self._values.items():
            for y, b in other._values.items():
                key = g.multiply(s, y)
                out[key] = out.get(key, 0.0) + a * b
        return Envelope(g, out)

    def l1_distance(self, other: "Envelope", radius: int | None = None) -> float:
        """l1 norm of the difference, optionally restricted to a word-length ball."""
        if self.group != other.group:
            raise ValueError("envelope groups differ")
        g = self.group
        keys = set(self._values) | set(other._values)
        terms = []
        for s in sorted(keys):
            if radius is not None and g.word_length(s) > radius:
                continue
            terms.append(abs(self._values.get(s, 0.0) - other._values.get(s, 0.0)))
        return math.fsum(terms)

    def shell_partial_sums(self) -> list[float]:
        """Cumulative l1 mass over word-length shells 0, 1, ..., max length."""
        g = self.group
        if not self._values:
            return []
        shells: dict[int, float] = {}
        for s, v in self._values.items():
            ell = g.word_length(s)
            shells[ell] = shells.get(ell, 0.0) + v
        sums: list[float] = []
        running = 0.0
        for ell in range(max(shells) + 1):
            running += shells.get(ell, 0.0)
            sums.append(running)
        return sums

    def __repr__(self) -> str:
        return f"Envelope({self.group.name}, {len(self._values)} points, l1={self.l1_norm():.6g})"


class Kernel:
    """Finitely supported kernel (x, y) -> d x d matrix in (s, t) storage.

    The value at (x, y) is ``entries[(x*y^-1, y)]``; missing entries are zero.
    Instances are immutable: the coordinate arrays and the block stack are
    read-only.
    """

    def __init__(self, group: Group, dim: int, entries: Mapping[tuple[Point, Point], np.ndarray]) -> None:
        """Kernel from a mapping (s, t) -> d x d matrix.

        All-zero matrices are dropped, keys are made canonical, and matrices
        whose keys coincide are summed in the mapping's order; a sum that
        cancels to zero is kept.
        """
        keys = list(entries)
        blocks = _block_stack(keys, list(entries.values()), dim)
        live = blocks.any(axis=(1, 2))
        if not live.all():
            keys = [k for k, keep in zip(keys, live.tolist()) if keep]
            blocks = blocks[live]
        s, t = _key_arrays(group, keys)
        self._set(group, dim, s, t, blocks, keep_cancelled=True)

    @classmethod
    def _from_arrays(cls, group: Group, dim: int, s: np.ndarray, t: np.ndarray, blocks: np.ndarray) -> "Kernel":
        """Kernel from coordinate arrays and blocks in any order.

        Blocks with equal keys are summed in row order, and blocks that are
        or sum to zero are dropped.
        """
        kernel = cls.__new__(cls)
        kernel._set(group, dim, s, t, blocks, keep_cancelled=False)
        return kernel

    def _set(self, group: Group, dim: int, s, t, blocks, keep_cancelled: bool) -> None:
        """Store canonical, sorted, duplicate-free arrays: the one normalisation."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        s, t = group.canonical_many(s), group.canonical_many(t)
        (codes,) = _row_codes(np.hstack([s, t]))
        rows, blocks = _sum_by_key(codes, np.asarray(blocks, dtype=complex))
        s, t = s[rows], t[rows]
        if not keep_cancelled:
            live = blocks.any(axis=(1, 2))
            s, t, blocks = s[live], t[live], blocks[live]
        for arr in (s, t, blocks):
            arr.setflags(write=False)
        self.group = group
        self.dim = dim
        self._s, self._t, self._blocks = s, t, blocks
        self._entries: Mapping | None = None
        self._zero = _freeze(np.zeros((dim, dim)))
        self._envelope: Envelope | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, group: Group, dim: int) -> "Kernel":
        return cls(group, dim, {})

    @classmethod
    def identity(cls, group: Group, dim: int, window_radius: int | None = None) -> "Kernel":
        """Identity kernel delta_{x=y} I on a window of t values.

        Finite groups default to the whole group; infinite groups require an
        explicit window radius since the full identity has infinite support.
        """
        if window_radius is None:
            if not group.is_finite:
                raise ValueError("identity kernel on an infinite group needs a window radius")
            window = group.elements()
        else:
            window = group.ball(window_radius)
        t = group.canonical_many(window)
        eye = np.broadcast_to(np.eye(dim, dtype=complex), (len(t), dim, dim))
        return cls._from_arrays(group, dim, np.zeros_like(t), t, eye)

    # -- basic access -----------------------------------------------------------

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only store: s and t coordinates and the block stack, in (s, t) order."""
        return self._s, self._t, self._blocks

    @property
    def entries(self) -> Mapping[tuple[Point, Point], np.ndarray]:
        """Read-only mapping (s, t) -> block in sorted key order, built on first use."""
        if self._entries is None:
            keys = zip(map(tuple, self._s.tolist()), map(tuple, self._t.tolist()))
            self._entries = MappingProxyType(dict(zip(keys, self._blocks)))
        return self._entries

    def support(self) -> list[tuple[Point, Point]]:
        return list(self.entries)

    def kernel_at(self, x: Point, y: Point) -> np.ndarray:
        """Value at the pair (x, y); read-only zero matrix off the support."""
        g = self.group
        y = g.canonical(y)
        s = g.multiply(x, g.inverse(y))
        return self.entries.get((s, y), self._zero)

    def min_envelope(self) -> Envelope:
        """Smallest dominating envelope: beta(s) = max_t |entries[(s,t)]|_op."""
        if self._envelope is None:
            s = self._s
            starts = _run_starts(s)
            # fmax skips NaN norms: a NaN block never sets the envelope.
            best = np.fmax.reduceat(operator_norms(self._blocks), starts) if len(s) else np.zeros(0)
            keep = best > 0.0
            cosets = map(tuple, s[starts[keep]].tolist())
            self._envelope = Envelope(self.group, dict(zip(cosets, best[keep].tolist())))
        return self._envelope

    def envelope_norm(self) -> float:
        return self.min_envelope().l1_norm()

    # -- algebra ----------------------------------------------------------------

    def _require_compatible(self, other: "Kernel") -> None:
        if self.group != other.group:
            raise ValueError(f"kernel groups differ: {self.group.name} vs {other.group.name}")
        if self.dim != other.dim:
            raise ValueError(f"kernel dims differ: {self.dim} vs {other.dim}")

    def compose(self, other: "Kernel") -> "Kernel":
        """Kernel product (K1 * K2)(x, z) = sum_y K1(x, y) K2(y, z).

        Each entry (s1, t1) of the left factor meets the right entries whose
        row point s2*t2 is t1, in storage order; the product lands at
        (s1*s2, t2), and products landing on one key are summed in that order.
        """
        self._require_compatible(other)
        g = self.group
        cols, rows = _row_codes(self._t, g.multiply_many(other._s, other._t))
        i, j = _join(cols, rows)
        products = np.matmul(self._blocks[i], other._blocks[j])
        return Kernel._from_arrays(g, self.dim, g.multiply_many(self._s[i], other._s[j]), other._t[j], products)

    def involution(self) -> "Kernel":
        """Adjoint kernel K*(x, y) = K(y, x)^H."""
        g = self.group
        s, t = g.inverse_many(self._s), g.multiply_many(self._s, self._t)
        return Kernel._from_arrays(g, self.dim, s, t, self._blocks.conj().transpose(0, 2, 1))

    def apply(self, vec: "TestVector") -> "TestVector":
        """Integral operator action (T_K f)(x) = sum_y K(x, y) f(y)."""
        if vec.doubled:
            raise ValueError("apply expects a single-variable test vector")
        return self._act(vec)

    def apply_tensor(self, xi: "TestVector") -> "TestVector":
        """Act in the first variable of a doubled vector: (T_K x id) xi."""
        if not xi.doubled:
            raise ValueError("apply_tensor expects a doubled test vector")
        return self._act(xi)

    def _act(self, vec: "TestVector") -> "TestVector":
        """Sum K(x, y) v over vector entries v at (y, *rest), keyed by (x, *rest).

        Terms are summed per key in the order of the kernel's entries, then of
        the vector's.
        """
        self._require_vector(vec)
        g, d, n = self.group, self.dim, len(vec.values)
        arity = 2 if vec.doubled else 1
        keys = np.array(list(vec.values), dtype=np.int64).reshape(n, arity, g.coord_len)
        values = np.array(list(vec.values.values()), dtype=complex).reshape(n, d)
        cols, firsts = _row_codes(self._t, keys[:, 0])
        i, j = _join(cols, firsts)
        terms = np.matmul(self._blocks[i], values[j, :, None])[:, :, 0]
        rest = keys[j, 1:].reshape(len(j), (arity - 1) * g.coord_len)
        out = np.hstack([g.multiply_many(self._s[i], self._t[i]), rest])
        (codes,) = _row_codes(out)
        rows, sums = _sum_by_key(codes, terms)
        points = out[rows].reshape(len(rows), arity, g.coord_len).tolist()
        if vec.doubled:
            keyed = {(tuple(x), tuple(u)): v for (x, u), v in zip(points, sums)}
        else:
            keyed = {tuple(x): v for (x,), v in zip(points, sums)}
        return TestVector(g, d, keyed, doubled=vec.doubled)

    def conjugate_by_translation(self, a: Point, side: str) -> "Kernel":
        """Translate both kernel arguments by a group element.

        side="right": result(x, y) = K(x*a, y*a); side="left": result(x, y) =
        K(a^-1*x, a^-1*y).  Both are isometric *-automorphisms of the algebra.
        """
        g = self.group
        a = g.canonical_many([a])
        if side == "right":
            s, t = self._s, g.multiply_many(self._t, g.inverse_many(a))
        elif side == "left":
            s, t = g.multiply_many(g.multiply_many(a, self._s), g.inverse_many(a)), g.multiply_many(a, self._t)
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return Kernel._from_arrays(g, self.dim, s, t, self._blocks)

    def _require_vector(self, vec: "TestVector") -> None:
        if vec.group != self.group:
            raise ValueError("test vector group differs from kernel group")
        if vec.dim != self.dim:
            raise ValueError("test vector dim differs from kernel dim")

    # -- linear structure ---------------------------------------------------------

    def scale(self, c: complex) -> "Kernel":
        return Kernel._from_arrays(self.group, self.dim, self._s, self._t, c * self._blocks)

    def __add__(self, other: "Kernel") -> "Kernel":
        self._require_compatible(other)
        s, t, blocks = (np.concatenate(pair) for pair in zip(self.arrays, other.arrays))
        return Kernel._from_arrays(self.group, self.dim, s, t, blocks)

    def __sub__(self, other: "Kernel") -> "Kernel":
        return self + other.scale(-1.0)

    def __mul__(self, c: complex) -> "Kernel":
        return self.scale(c)

    __rmul__ = __mul__

    # -- windows and dense sections -------------------------------------------------

    def restrict_to_ball(self, radius: int) -> "Kernel":
        """Keep entries whose pair (x, y) lies in the ball of the given radius."""
        g = self.group
        # Test t first: the BFS word metric then grows only as far as points
        # x = s*t of columns inside the ball.
        near = g.word_length_many(self._t) <= radius
        s, t, blocks = self._s[near], self._t[near], self._blocks[near]
        keep = g.word_length_many(g.multiply_many(s, t)) <= radius
        return Kernel._from_arrays(g, self.dim, s[keep], t[keep], blocks[keep])

    def to_dense(self, points: Iterable[Point]) -> np.ndarray:
        """Dense section matrix [K(x, y)] over an ordered list of points."""
        g, d = self.group, self.dim
        pts = g.canonical_many(list(points))
        n = len(pts)
        index, cols, rows = _row_codes(pts, self._t, g.multiply_many(self._s, self._t))
        if len(_distinct(index)) != n:
            raise ValueError("section points must be distinct")
        entry, j = _join(cols, index)
        at_row, i = _join(rows[entry], index)
        mat = np.zeros((n, d, n, d), dtype=complex)
        mat[i, :, j[at_row], :] = self._blocks[entry[at_row]]
        return mat.reshape(n * d, n * d)

    @classmethod
    def from_dense(cls, group: Group, dim: int, mat: np.ndarray, points: Iterable[Point]) -> "Kernel":
        """Inverse of :meth:`to_dense`: read blocks back into (s, t) storage."""
        pts = group.canonical_many(list(points))
        n = len(pts)
        if mat.shape != (n * dim, n * dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {n} points of dim {dim}")
        if len(_distinct(_row_codes(pts)[0])) != n:
            raise ValueError("section points must be distinct")
        blocks = mat.reshape(n, dim, n, dim).transpose(0, 2, 1, 3)
        i, j = np.nonzero(blocks.any(axis=(2, 3)))
        s = group.multiply_many(pts[i], group.inverse_many(pts[j]))
        return cls._from_arrays(group, dim, s, pts[j], blocks[i, j])

    def max_block_difference(self, other: "Kernel") -> float:
        """Max operator-norm difference between matching entries."""
        self._require_compatible(other)
        mine, theirs = _row_codes(np.hstack([self._s, self._t]), np.hstack([other._s, other._t]))
        keys = _distinct(np.concatenate([mine, theirs]))
        a = np.zeros((len(keys), self.dim, self.dim), dtype=complex)
        b = np.zeros_like(a)
        a[np.searchsorted(keys, mine)] = self._blocks
        b[np.searchsorted(keys, theirs)] = other._blocks
        # fmax skips NaN: a NaN difference never sets the maximum.
        return float(np.fmax.reduce(operator_norms(a - b), initial=0.0))

    def __repr__(self) -> str:
        return f"Kernel({self.group.name}, dim={self.dim}, {len(self._blocks)} entries)"


def section_operator_norm(kernel: Kernel, radius: int, iterations: int = 200) -> float:
    """Power-iteration estimate of |T_K| on the ball truncation of given radius.

    Estimates the largest singular value of the section matrix from below, so
    the value never exceeds the true operator norm, which in turn is bounded
    by the envelope norm.
    """
    points = kernel.group.ball(radius)
    mat = kernel.to_dense(points)
    n = mat.shape[0]
    if not np.count_nonzero(mat):
        return 0.0
    # Deterministic start with a mild ramp so we are not orthogonal to the
    # leading singular vector by symmetry.
    v = 1.0 + 1e-3 * np.arange(n)
    v = v / np.linalg.norm(v)
    gram = mat.conj().T @ mat
    est = 0.0
    for _ in range(iterations):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        est = nw
    # est approximates the top eigenvalue of gram = (sigma_max)^2.
    return float(np.sqrt(est))


class TestVector:
    """Finitely supported vector-valued function on the group.

    Single-variable vectors map points to C^d; doubled vectors map point pairs
    to C^d and model the two-variable square-summable space used by the
    regular representation.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, group: Group, dim: int, values: Mapping, doubled: bool = False) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.group = group
        self.dim = dim
        self.doubled = doubled
        cleaned: dict = {}
        for key, vec in values.items():
            arr = np.asarray(vec, dtype=complex)
            if arr.shape != (dim,):
                raise ValueError(f"value at {key!r} has shape {arr.shape}, expected {(dim,)}")
            if not np.count_nonzero(arr):
                continue
            if doubled:
                x, z = key
                ckey = (group.canonical(x), group.canonical(z))
            else:
                ckey = group.canonical(key)
            if ckey in cleaned:
                arr = cleaned[ckey] + arr
            cleaned[ckey] = arr
        self._values = {k: _freeze(v) for k, v in sorted(cleaned.items())}

    @classmethod
    def basis(cls, group: Group, dim: int, key, component: int = 0, doubled: bool = False) -> "TestVector":
        vec = np.zeros(dim, dtype=complex)
        vec[component] = 1.0
        return cls(group, dim, {key: vec}, doubled=doubled)

    @property
    def values(self) -> dict:
        return self._values

    def support(self) -> list:
        return list(self._values)

    def value(self, key) -> np.ndarray:
        if self.doubled:
            x, z = key
            key = (self.group.canonical(x), self.group.canonical(z))
        else:
            key = self.group.canonical(key)
        got = self._values.get(key)
        if got is None:
            return np.zeros(self.dim, dtype=complex)
        return got

    def l2_norm(self) -> float:
        # Exactly rounded accumulation keeps the norm invariant under the
        # coordinate permutations performed by the intertwining unitaries.
        squares = []
        for v in self._values.values():
            squares.extend(float(a) for a in np.abs(v) ** 2)
        return math.sqrt(math.fsum(squares))

    def inner(self, other: "TestVector") -> complex:
        """Inner product, conjugate linear in the first argument."""
        if self.group != other.group or self.dim != other.dim or self.doubled != other.doubled:
            raise ValueError("test vectors live in different spaces")
        total = 0.0 + 0.0j
        for k in sorted(set(self._values) & set(other._values)):
            total += complex(np.vdot(self._values[k], other._values[k]))
        return total

    def translate(self, a: Point, side: str) -> "TestVector":
        """Regular-representation translate of a single-variable vector.

        side="left" gives (lambda(a) f)(x) = f(a^-1 x); side="right" gives
        (rho(a) f)(x) = f(x a).  Both are unitary.
        """
        if self.doubled:
            raise ValueError("translate acts on single-variable test vectors")
        g = self.group
        a = g.canonical(a)
        out = {}
        if side == "left":
            for k, v in self._values.items():
                out[g.multiply(a, k)] = v
        elif side == "right":
            a_inv = g.inverse(a)
            for k, v in self._values.items():
                out[g.multiply(k, a_inv)] = v
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return TestVector(g, self.dim, out)

    def scale(self, c: complex) -> "TestVector":
        return TestVector(self.group, self.dim, {k: c * v for k, v in self._values.items()}, doubled=self.doubled)

    def __add__(self, other: "TestVector") -> "TestVector":
        if self.group != other.group or self.dim != other.dim or self.doubled != other.doubled:
            raise ValueError("test vectors live in different spaces")
        out = dict(self._values)
        for k, v in other._values.items():
            out[k] = out[k] + v if k in out else v
        return TestVector(self.group, self.dim, out, doubled=self.doubled)

    def __sub__(self, other: "TestVector") -> "TestVector":
        return self + other.scale(-1.0)

    def __repr__(self) -> str:
        kind = "doubled" if self.doubled else "single"
        return f"TestVector({self.group.name}, dim={self.dim}, {kind}, {len(self._values)} points)"
