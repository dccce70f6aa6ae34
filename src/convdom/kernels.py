"""Operator-valued kernels with summable envelope norms, and the block store.

A kernel maps group pairs (x, y) to d x d complex matrices and is stored in
convolution coordinates (s, t) with s = x * y^-1 and t = y, so that the
envelope (the dominating function of the off-diagonal decay) lives on the
single variable s.  All supports are finite.

:class:`Kernel`, :class:`TestVector` and
:class:`~convdom.covariance.CovarianceElement` share one block store: an
int64 ``(nnz, coord_len)`` coordinate array per point of a key, and a
read-only stack of ``(nnz, d, d)`` blocks or ``(nnz, d)`` vectors, with rows
in lexicographic key order.  ``_set_store`` is its one normalisation; the
other private helpers are the operations the classes share.  Derivations
that keep the order (``restrict_to_ball``, ``scale``) mask the parent's rows
instead of normalising again.  Every operation runs on whole arrays through
the batched group law: composition is a join on the row point s*t, one
batched matrix product and a segment sum; envelopes are a segment max of
operator norms; dense sections are fancy indexing; translations and
coordinate changes remap coordinate arrays.  Sums over equal keys are taken
front to back in the order the per-entry definition lists their terms
(``np.add.reduceat`` would pair them differently), so every operation is
bit-reproducible and equal, bit for bit, to its entry-by-entry definition.

A store computes the operator norms of its blocks once, on first use.  A
block that passes into a derived store unchanged keeps its norm: through a
mask, or as the one term at its key in a sum.  A scaled, adjoint or
multiplied block is normed afresh, because its computed norm need not be
bit for bit that of its source.
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
    # Python ints: a column spanning 2**63 or more would wrap in int64.
    span = [hi - low + 1 for hi, low in zip(rows.max(axis=0).tolist(), lo.tolist())]
    if math.prod(span) < 2**62:
        # Mixed radix, first column most significant.
        weights = np.array([math.prod(span[k + 1 :]) for k in range(len(span))], dtype=np.int64)
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


def _reduce_by_key(
    codes: np.ndarray, values: np.ndarray, op=np.add
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce the rows of ``values`` that share a code with ``op``, in ascending code order.

    Each reduction runs front to back in row order, as ``acc = op(acc, value)``
    over the rows would: a sum by default, a max with ``np.fmax``.  Returns
    the first row of each code, the results and the number of rows reduced
    into each.
    """
    order = np.argsort(codes, kind="stable")
    starts = _run_starts(codes[order])
    acc = values[order[starts]]
    lengths = np.diff(starts, append=len(codes))
    for k in range(1, lengths.max(initial=1)):
        live = lengths > k
        acc[live] = op(acc[live], values[order[starts[live] + k]])
    return order[starts], acc, lengths


def _key_arrays(group: Group, keys: list, arity: int) -> list[np.ndarray]:
    """Keys of ``arity`` points (a point, or a pair) as that many int64 arrays, not yet reduced."""
    shape = (len(keys), arity, group.coord_len) if arity > 1 else (len(keys), group.coord_len)
    if not keys:
        points = np.zeros(shape, dtype=np.int64)
    else:
        try:
            points = np.array(keys, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            points = None
        if points is None or points.shape != shape:
            for key in keys:  # name the offending point
                for point in key if arity > 1 else (key,):
                    group.canonical(point)
            raise ValueError(f"{group.name}: keys must be {'pairs of ' if arity > 1 else ''}int64 points")
    return list(points.reshape(len(keys), arity, group.coord_len).transpose(1, 0, 2))


def _value_stack(keys: list, values: list, shape: tuple[int, ...]) -> np.ndarray:
    """Mapping values as an ``(n, *shape)`` complex stack."""
    if not values:
        return np.zeros((0, *shape), dtype=complex)
    try:
        stack = np.array(values, dtype=complex)
        if stack.shape == (len(values), *shape):
            return stack
    except ValueError:
        pass
    for key, value in zip(keys, values):  # name the offending entry
        arr = np.asarray(value, dtype=complex)
        if arr.shape != shape:
            raise ValueError(f"entry at {key!r} has shape {arr.shape}, expected {shape}")
    raise ValueError("entry values do not stack")


def _nonzero(stack: np.ndarray) -> np.ndarray:
    """Mask of the rows of a value stack with a nonzero coefficient."""
    return stack.any(axis=tuple(range(1, stack.ndim)))


# -- the block store shared by Kernel, TestVector and CovarianceElement ----------------


def _parse_mapping(group: Group, mapping: Mapping, arity: int, shape: tuple[int, ...]):
    """(coordinate arrays, value stack) of a Mapping input, not yet normalised.

    All-zero values are dropped before their keys are even read.
    """
    keys = list(mapping)
    stack = _value_stack(keys, list(mapping.values()), shape)
    live = _nonzero(stack)
    if not live.all():
        keys = [k for k, keep in zip(keys, live.tolist()) if keep]
        stack = stack[live]
    return _key_arrays(group, keys, arity), stack


def _set_store(obj, group: Group, dim: int, coords, stack, keep_cancelled: bool, norms=None) -> None:
    """Give ``obj`` a canonical, sorted, duplicate-free store: the one normalisation.

    ``coords`` holds one ``(n, coord_len)`` array per point of a key and
    ``stack`` the n values, in any order.  Values whose keys coincide are
    summed in row order.  A sum that cancels to zero is kept when
    ``keep_cancelled`` (Mapping constructions); otherwise (derived objects)
    every zero value is dropped.  ``norms`` are known block norms of the n
    values, negative where unknown; a key with one value keeps its norm.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    coords = [group.canonical_many(c) for c in coords]
    (codes,) = _row_codes(np.hstack(coords))
    rows, stack, lengths = _reduce_by_key(codes, np.asarray(stack, dtype=complex))
    coords = [c[rows] for c in coords]
    if norms is not None:
        # A sum of several blocks is a new block: its norm is not known.
        norms = np.where(lengths == 1, norms[rows], -1.0)
    if not keep_cancelled:
        live = _nonzero(stack)
        coords, stack = [c[live] for c in coords], stack[live]
        norms = None if norms is None else norms[live]
    _install(obj, group, dim, coords, stack, norms)


def _install(obj, group: Group, dim: int, coords, stack, norms) -> None:
    """Give ``obj`` a normalised store, read-only, with its known block norms (or None)."""
    for arr in (*coords, stack):
        arr.setflags(write=False)
    obj.group, obj.dim = group, dim
    obj._coords, obj._stack, obj._norms = tuple(coords), stack, norms
    obj._mapping = None


def _from_arrays(cls, group: Group, dim: int, coords, stack, norms=None):
    """A derived ``cls`` from store arrays in any order: equal keys summed in row order, zeros dropped."""
    obj = cls.__new__(cls)
    _set_store(obj, group, dim, coords, stack, keep_cancelled=False, norms=norms)
    return obj


def _subset(obj, keep: np.ndarray, stack: np.ndarray | None = None):
    """A store of ``obj``'s class with the rows of ``obj`` under the mask ``keep``.

    The rows stay sorted and distinct, so nothing is normalised again.  With
    ``stack``, its rows replace ``obj``'s values; otherwise the values, and
    their known norms, are ``obj``'s own.  The caller drops zero values with
    the mask.
    """
    own = stack is None
    stack = obj._stack if own else stack
    norms = obj._norms[keep] if own and obj._norms is not None else None
    new = type(obj).__new__(type(obj))
    _install(new, obj.group, obj.dim, [c[keep] for c in obj._coords], stack[keep], norms)
    return new


def _scaled(obj, c: complex):
    """``c`` times every value of a store, zero results dropped."""
    stack = c * obj._stack
    return _subset(obj, _nonzero(stack), stack)


def _mapping_view(obj) -> Mapping:
    """Read-only mapping key -> value of a store in key order, built on first use.

    Keys are points, or pairs of points; values are read-only views (Python floats for a 1-d stack).
    """
    if obj._mapping is None:
        points = [map(tuple, c.tolist()) for c in obj._coords]
        keys = zip(*points) if len(points) > 1 else points[0]
        values = obj._stack.tolist() if obj._stack.ndim == 1 else obj._stack
        obj._mapping = MappingProxyType(dict(zip(keys, values)))
    return obj._mapping


def _require_compatible(a, b) -> None:
    """Refuse to combine stores over different groups, of different dims or key arities."""
    if (a.group, a.dim, len(a._coords)) != (b.group, b.dim, len(b._coords)):
        raise ValueError(f"operands live in different spaces: {a!r} vs {b!r}")


def _stores_sum(a, b):
    """Sum of two stores of one class; values at a common key are added as a + b.

    A key of one operand only keeps its block, and with it any known norm.
    """
    _require_compatible(a, b)
    coords = [np.concatenate(pair) for pair in zip(a._coords, b._coords)]
    norms = None
    if a._norms is not None or b._norms is not None:
        known = [np.full(len(x._stack), -1.0) if x._norms is None else x._norms for x in (a, b)]
        norms = np.concatenate(known)
    return _from_arrays(type(a), a.group, a.dim, coords, np.concatenate([a._stack, b._stack]), norms)


def _max_block_difference(a, b) -> float:
    """Max operator-norm difference between the blocks of two stores at matching keys."""
    _require_compatible(a, b)
    mine, theirs = _row_codes(np.hstack(a._coords), np.hstack(b._coords))
    keys = _distinct(np.concatenate([mine, theirs]))
    left = np.zeros((len(keys), *a._stack.shape[1:]), dtype=complex)
    right = np.zeros_like(left)
    left[np.searchsorted(keys, mine)] = a._stack
    right[np.searchsorted(keys, theirs)] = b._stack
    # fmax skips NaN: a NaN difference never sets the maximum.
    return float(np.fmax.reduce(operator_norms(left - right), initial=0.0))


def _block_norms(obj) -> np.ndarray:
    """Operator norm of every block of a store, computed once; only norms not yet known are computed."""
    norms = obj._norms
    if norms is None:
        norms = operator_norms(obj._stack)
    elif (unknown := norms < 0).any():  # a NaN norm is known
        norms[unknown] = operator_norms(obj._stack[unknown])
    obj._norms = norms
    return norms


def _fibre_sups(obj) -> tuple[np.ndarray, np.ndarray]:
    """Start row of each fibre (the rows of one first coordinate) and its largest block norm."""
    first = obj._coords[0]
    starts = _run_starts(first)
    # fmax skips NaN norms: a NaN block never sets the maximum.
    best = np.fmax.reduceat(_block_norms(obj), starts) if len(first) else np.zeros(0)
    return starts, best


def _l1_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of nonnegative values (fsum); a sum past the float range is a ValueError."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        raise ValueError("l1 norm overflows: the sum exceeds the largest float") from None


class Envelope:
    """Finitely supported nonnegative function on a group, stored as sorted int64 points and float64 values.

    The Mapping constructor refuses negative, NaN and infinite values, drops
    zeros, makes keys canonical and max-merges the values of keys that coincide.
    """

    def __init__(self, group: Group, values: Mapping[Point, float]) -> None:
        keys = list(values)
        vals = np.fromiter(map(float, values.values()), dtype=float, count=len(keys))
        for bad, what in ((vals < 0, "negative"), (~np.isfinite(vals), "not finite")):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"envelope value at {keys[i]!r} is {what}: {vals[i]}")
        live = vals != 0.0
        (points,) = _key_arrays(group, [k for k, keep in zip(keys, live.tolist()) if keep], 1)
        points = group.canonical_many(points)
        rows, merged, _ = _reduce_by_key(_row_codes(points)[0], vals[live], np.fmax)
        self._set(group, points[rows], merged)

    def _set(self, group: Group, points: np.ndarray, values: np.ndarray) -> "Envelope":
        """Keep canonical, sorted, distinct points and their values, read-only; zeros are dropped."""
        live = values != 0.0
        self.group, self._coords, self._stack, self._mapping = group, (points[live],), values[live], None
        for arr in (*self._coords, self._stack):
            arr.setflags(write=False)
        return self

    @classmethod
    def _derived(cls, group: Group, points: np.ndarray, values: np.ndarray) -> "Envelope":
        """An envelope built from arrays, with no Mapping round trip (see ``_set``)."""
        return cls.__new__(cls)._set(group, points, values)

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only store: points and values, in point order."""
        return self._coords[0], self._stack

    @property
    def values(self) -> Mapping[Point, float]:
        """Read-only mapping point -> float in sorted point order, built on first use."""
        return _mapping_view(self)

    def support(self) -> list[Point]:
        return list(self.values)

    def value(self, s: Point) -> float:
        return self.values.get(self.group.canonical(s), 0.0)

    def l1_norm(self) -> float:
        # fsum is exactly rounded, so the norm is invariant under any
        # permutation of the support (involutions, translations).
        return _l1_sum(self._stack)

    def restrict(self, radius: int) -> "Envelope":
        """Keep only points of word length <= radius."""
        (points,), g = self._coords, self.group
        keep = g.word_length_many(points) <= radius
        return Envelope._derived(g, points[keep], self._stack[keep])

    def cap(self, level: float) -> "Envelope":
        """Pointwise minimum with a constant level."""
        if level < 0:
            raise ValueError("cap level must be nonnegative")
        return Envelope._derived(self.group, self._coords[0], np.minimum(self._stack, level))

    def convolve(self, other: "Envelope") -> "Envelope":
        """(a * b)(x) = sum over s y = x of a(s) b(y), each sum taken in (s, y) order."""
        if self.group != other.group:
            raise ValueError("envelope groups differ")
        g, (s,), (y,) = self.group, self._coords, other._coords
        i, j = np.repeat(np.arange(len(s)), len(y)), np.tile(np.arange(len(y)), len(s))
        points = g.multiply_many(s[i], y[j])
        rows, sums, _ = _reduce_by_key(_row_codes(points)[0], self._stack[i] * other._stack[j])
        return Envelope._derived(g, points[rows], sums)

    def l1_distance(self, other: "Envelope") -> float:
        """l1 norm of the difference."""
        if self.group != other.group:
            raise ValueError("envelope groups differ")
        # a + (-b) is a - b exactly; a point of one envelope only keeps its value.
        codes = np.concatenate(_row_codes(self._coords[0], other._coords[0]))
        _, differences, _ = _reduce_by_key(codes, np.concatenate([self._stack, -other._stack]))
        return _l1_sum(np.abs(differences))

    def by_word_length(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Word lengths present (ascending), with the max and the front-to-back sum of the values at each."""
        lengths = self.group.word_length_many(self._coords[0])
        rows, maxima, _ = _reduce_by_key(lengths, self._stack, np.fmax)
        return lengths[rows], maxima, _reduce_by_key(lengths, self._stack)[1]

    def shell_partial_sums(self) -> list[float]:
        """Cumulative l1 mass over word-length shells 0, 1, ..., max length."""
        lengths, _, sums = self.by_word_length()
        return np.cumsum(np.bincount(lengths, weights=sums)).tolist()  # 0.0 at absent lengths

    def __repr__(self) -> str:
        return f"Envelope({self.group.name}, {len(self._stack)} points, l1={self.l1_norm():.6g})"


class Kernel:
    """Finitely supported kernel (x, y) -> d x d matrix in (s, t) storage.

    The value at (x, y) is ``entries[(x*y^-1, y)]``; missing entries are zero.
    Instances are immutable: the coordinate arrays and the block stack are
    read-only.
    """

    _envelope: Envelope | None = None

    def __init__(self, group: Group, dim: int, entries: Mapping[tuple[Point, Point], np.ndarray]) -> None:
        """Kernel from a mapping (s, t) -> d x d matrix.

        All-zero matrices are dropped, keys are made canonical, and matrices
        whose keys coincide are summed in the mapping's order; a sum that
        cancels to zero is kept.
        """
        _set_store(self, group, dim, *_parse_mapping(group, entries, 2, (dim, dim)), keep_cancelled=True)

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
        return _from_arrays(cls, group, dim, (np.zeros_like(t), t), eye)

    # -- basic access -----------------------------------------------------------

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only store: s and t coordinates and the block stack, in (s, t) order."""
        return (*self._coords, self._stack)

    @property
    def entries(self) -> Mapping[tuple[Point, Point], np.ndarray]:
        """Read-only mapping (s, t) -> block in sorted key order, built on first use."""
        return _mapping_view(self)

    def support(self) -> list[tuple[Point, Point]]:
        return list(self.entries)

    def kernel_at(self, x: Point, y: Point) -> np.ndarray:
        """Value at the pair (x, y); read-only zero matrix off the support."""
        g = self.group
        y = g.canonical(y)
        s = g.multiply(x, g.inverse(y))
        return self.entries.get((s, y), np.broadcast_to(0j, (self.dim, self.dim)))

    def min_envelope(self) -> Envelope:
        """Smallest dominating envelope: beta(s) = max_t |entries[(s,t)]|_op."""
        if self._envelope is None:
            starts, best = _fibre_sups(self)
            keep = best > 0.0
            self._envelope = Envelope._derived(self.group, self._coords[0][starts[keep]], best[keep])
        return self._envelope

    def envelope_norm(self) -> float:
        return self.min_envelope().l1_norm()

    # -- algebra ----------------------------------------------------------------

    def compose(self, other: "Kernel") -> "Kernel":
        """Kernel product (K1 * K2)(x, z) = sum_y K1(x, y) K2(y, z).

        Each entry (s1, t1) of the left factor meets the right entries whose
        row point s2*t2 is t1, in storage order; the product lands at
        (s1*s2, t2), and products landing on one key are summed in that order.
        """
        _require_compatible(self, other)
        g, (s1, t1), (s2, t2) = self.group, self._coords, other._coords
        cols, rows = _row_codes(t1, g.multiply_many(s2, t2))
        i, j = _join(cols, rows)
        products = np.matmul(self._stack[i], other._stack[j])
        return _from_arrays(Kernel, g, self.dim, (g.multiply_many(s1[i], s2[j]), t2[j]), products)

    def involution(self) -> "Kernel":
        """Adjoint kernel K*(x, y) = K(y, x)^H."""
        g, (s, t) = self.group, self._coords
        coords = (g.inverse_many(s), g.multiply_many(s, t))
        return _from_arrays(Kernel, g, self.dim, coords, self._stack.conj().transpose(0, 2, 1))

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
        g, (s, t), (y, *rest) = self.group, self._coords, vec._coords
        cols, firsts = _row_codes(t, y)
        i, j = _join(cols, firsts)
        terms = np.matmul(self._stack[i], vec._stack[j, :, None])[:, :, 0]
        coords = (g.multiply_many(s[i], t[i]), *(r[j] for r in rest))
        return _from_arrays(TestVector, g, self.dim, coords, terms)

    def conjugate_by_translation(self, a: Point, side: str) -> "Kernel":
        """Translate both kernel arguments by a group element.

        side="right": result(x, y) = K(x*a, y*a); side="left": result(x, y) =
        K(a^-1*x, a^-1*y).  Both are isometric *-automorphisms of the algebra.
        """
        g, (s, t) = self.group, self._coords
        a = g.canonical_many([a])
        if side == "right":
            t = g.multiply_many(t, g.inverse_many(a))
        elif side == "left":
            s, t = g.multiply_many(g.multiply_many(a, s), g.inverse_many(a)), g.multiply_many(a, t)
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return _from_arrays(Kernel, g, self.dim, (s, t), self._stack)

    def _require_vector(self, vec: "TestVector") -> None:
        if vec.group != self.group:
            raise ValueError("test vector group differs from kernel group")
        if vec.dim != self.dim:
            raise ValueError("test vector dim differs from kernel dim")

    # -- linear structure ---------------------------------------------------------

    def scale(self, c: complex) -> "Kernel":
        return _scaled(self, c)

    def __add__(self, other: "Kernel") -> "Kernel":
        return _stores_sum(self, other)

    def __sub__(self, other: "Kernel") -> "Kernel":
        return self + other.scale(-1.0)

    def __mul__(self, c: complex) -> "Kernel":
        return self.scale(c)

    __rmul__ = __mul__

    # -- windows and dense sections -------------------------------------------------

    def restrict_to_ball(self, radius: int) -> "Kernel":
        """Keep entries whose pair (x, y) lies in the ball of the given radius."""
        return _subset(self, self._ball_mask(radius) & _nonzero(self._stack))

    def _ball_mask(self, radius: int, columns: bool = True) -> np.ndarray:
        """Mask of the entries whose row x = s*t, and with ``columns`` their column t, lie in the ball.

        t is tested first, against the radius or, for rows alone, against
        radius + |s| >= |t|: the BFS word metric then grows only as far as the
        points x that can lie in the ball.
        """
        g, (s, t) = self.group, self._coords
        bound = radius if columns else radius + g.word_length_many(s)
        near = np.flatnonzero(g.word_length_many(t) <= bound)
        keep = np.zeros(len(t), dtype=bool)
        keep[near] = g.word_length_many(g.multiply_many(s[near], t[near])) <= radius
        return keep

    def _section_index(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(entry, row, column) of each entry whose row s t and column t lie in a section.

        ``pts`` is a canonical point array; rows and columns are positions in
        it.  Repeated points raise ValueError.
        """
        g, (s, t) = self.group, self._coords
        index, cols, rows = _row_codes(pts, t, g.multiply_many(s, t))
        if len(_distinct(index)) != len(pts):
            raise ValueError("section points must be distinct")
        entry, j = _join(cols, index)
        at_row, i = _join(rows[entry], index)
        return entry[at_row], i, j[at_row]

    def to_dense(self, points: Iterable[Point]) -> np.ndarray:
        """Dense section matrix [K(x, y)] over an ordered list of points."""
        d = self.dim
        pts = self.group.canonical_many(list(points))
        n = len(pts)
        entry, i, j = self._section_index(pts)
        mat = np.zeros((n, d, n, d), dtype=complex)
        mat[i, :, j, :] = self._stack[entry]
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
        return _from_arrays(cls, group, dim, (s, pts[j]), blocks[i, j])

    def max_block_difference(self, other: "Kernel") -> float:
        """Max operator-norm difference between matching entries."""
        return _max_block_difference(self, other)

    def __repr__(self) -> str:
        return f"Kernel({self.group.name}, dim={self.dim}, {len(self._stack)} entries)"


def section_operator_norm(kernel: Kernel, radius: int) -> float:
    """|T_K| on the ball truncation of given radius: the largest singular value
    of the section matrix, which the envelope norm bounds."""
    return float(np.linalg.norm(kernel.to_dense(kernel.group.ball(radius)), 2))


class TestVector:
    """Finitely supported vector-valued function on the group.

    Single-variable vectors map points to C^d; doubled vectors map point pairs
    to C^d and model the two-variable square-summable space used by the
    regular representation.  The store holds one coordinate array per
    variable and an ``(nnz, d)`` stack of read-only vectors.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, group: Group, dim: int, values: Mapping, doubled: bool = False) -> None:
        """Vector from a mapping key -> C^d value, keys points or (doubled) point pairs.

        Zero values are dropped, keys are made canonical, and values whose
        keys coincide are summed in the mapping's order; a sum that cancels
        to zero is kept.
        """
        parsed = _parse_mapping(group, values, 2 if doubled else 1, (dim,))
        _set_store(self, group, dim, *parsed, keep_cancelled=True)

    @classmethod
    def basis(cls, group: Group, dim: int, key, component: int = 0, doubled: bool = False) -> "TestVector":
        vec = np.zeros(dim, dtype=complex)
        vec[component] = 1.0
        return cls(group, dim, {key: vec}, doubled=doubled)

    @property
    def doubled(self) -> bool:
        return len(self._coords) == 2

    @property
    def values(self) -> Mapping:
        """Read-only mapping key -> vector in sorted key order, built on first use."""
        return _mapping_view(self)

    def support(self) -> list:
        return list(self.values)

    def value(self, key) -> np.ndarray:
        if self.doubled:
            x, z = key
            key = (self.group.canonical(x), self.group.canonical(z))
        else:
            key = self.group.canonical(key)
        got = self.values.get(key)
        if got is None:
            return np.zeros(self.dim, dtype=complex)
        return got

    def l2_norm(self) -> float:
        # Exactly rounded accumulation keeps the norm invariant under the
        # coordinate permutations performed by the intertwining unitaries.
        return math.sqrt(math.fsum((np.abs(self._stack) ** 2).ravel().tolist()))

    def inner(self, other: "TestVector") -> complex:
        """Inner product, conjugate linear in the first argument.

        Terms np.vdot(self(k), other(k)) are added in key order to a running
        complex sum starting at 0.
        """
        _require_compatible(self, other)
        mine, theirs = _row_codes(np.hstack(self._coords), np.hstack(other._coords))
        i, j = _join(mine, theirs)
        # A conjugated row times a column is np.vdot of the two, bit for bit.
        terms = np.matmul(self._stack[i, None].conj(), other._stack[j, :, None])[:, 0, 0]
        return complex(np.cumsum(np.append(0j, terms))[-1])

    def translate(self, a: Point, side: str) -> "TestVector":
        """Regular-representation translate of a single-variable vector.

        side="left" gives (lambda(a) f)(x) = f(a^-1 x); side="right" gives
        (rho(a) f)(x) = f(x a).  Both are unitary.
        """
        if self.doubled:
            raise ValueError("translate acts on single-variable test vectors")
        g, (x,) = self.group, self._coords
        a = g.canonical_many([a])
        if side == "left":
            x = g.multiply_many(a, x)
        elif side == "right":
            x = g.multiply_many(x, g.inverse_many(a))
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return _from_arrays(TestVector, g, self.dim, (x,), self._stack)

    def scale(self, c: complex) -> "TestVector":
        return _scaled(self, c)

    def __add__(self, other: "TestVector") -> "TestVector":
        return _stores_sum(self, other)

    def __sub__(self, other: "TestVector") -> "TestVector":
        return self + other.scale(-1.0)

    def __repr__(self) -> str:
        kind = "doubled" if self.doubled else "single"
        return f"TestVector({self.group.name}, dim={self.dim}, {kind}, {len(self._stack)} points)"
