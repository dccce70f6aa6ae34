"""Operator-valued kernels with summable envelope norms, and the block store.

A kernel maps group pairs (x, y) to d x d complex matrices and is stored in
convolution coordinates (s, t) with s = x * y^-1 and t = y, so that the
envelope (the dominating function of the off-diagonal decay) lives on the
single variable s.  All supports are finite.

:class:`Kernel`, :class:`TestVector` and
:class:`~convdom.covariance.CovarianceElement` share one block store: an
int64 ``(nnz, coord_len)`` coordinate array per point of a key, and a
read-only stack of ``(nnz, d, d)`` blocks or ``(nnz, d)`` vectors, with rows
in lexicographic key order; :class:`Envelope` keeps points and values the same
way.  No store holds a zero value: ``_install``, through which every store
is set, drops zero rows, so a sum that cancels is gone wherever it was
formed.  Every store is read through its ``arrays`` property.  The one
mapping view, ``entries`` of kernels and covariance elements, is kept for the
benchmark's counters; nothing in the package reads it.  The Mapping
constructors stay because the file readers build stores with them.
``_set_store`` is the one normalisation; the other private helpers are the
operations the classes share.  Derivations that keep the order
(``restrict_to_ball``, ``scale``) take the parent's rows instead of
normalising again.  Every operation runs on whole arrays through the batched
group law: composition is a join on the row point s*t and a sum
per key that forms its block products as it adds them, so it holds one term
per key at a time; envelopes are a segment max of operator norms; dense
sections are fancy indexing; translations and coordinate changes remap
coordinate arrays.  Sums over equal keys are taken front to back in the
order the per-entry definition lists their terms (``np.add.reduceat`` would
pair them differently), so every operation is bit-reproducible and equal,
bit for bit, to its entry-by-entry definition.

Every consumer of block norms takes a maximum: of each fibre for envelopes,
of all blocks for block differences.  ``_run_sups`` forms these maxima from
cheap bounds on each block and runs LAPACK only on the blocks whose bound
reaches their run's maximum, so a store keeps no norms.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .groups import Group, Point


def operator_norms(blocks: np.ndarray) -> np.ndarray:
    """Largest singular value of every block of an ``(n, d, d)`` stack; of 1x1 blocks, the modulus ``abs`` gives."""
    if blocks.shape[1] == 1:
        # abs(complex) is hypot(re, im); np.abs rounds differently.
        return np.hypot(blocks[:, 0, 0].real, blocks[:, 0, 0].imag)
    if not len(blocks):
        return np.zeros(0)
    return np.linalg.norm(blocks, 2, axis=(1, 2))


def _row_codes(*keys) -> list[np.ndarray]:
    """Int64 codes of the rows of integer keys of equal width, one array of codes each.

    A key is an ``(n, k)`` array, or a tuple of such arrays of equal length
    whose columns are read side by side.  Equal rows get equal codes across
    all keys, and codes order as the rows order lexicographically, so sorts
    and joins on codes are sorts and joins on points.  The codes are mixed
    radix, first column most significant, built one column at a time; rows
    that span 2**62 codes or more are ranked by ``np.unique`` instead.
    """
    columns = [[column for a in (key if isinstance(key, tuple) else (key,)) for column in a.T] for key in keys]
    # Python ints: a column spanning 2**63 or more would wrap in int64.  Empty keys have no bounds.
    lows = [min((int(c.min()) for c in same if len(c)), default=0) for same in zip(*columns)]
    highs = [max((int(c.max()) for c in same if len(c)), default=0) for same in zip(*columns)]
    spans = [hi - low + 1 for hi, low in zip(highs, lows)]
    if math.prod(spans) >= 2**62:
        rows = [np.column_stack(c) for c in columns]
        codes = np.unique(np.concatenate(rows), axis=0, return_inverse=True)[1].reshape(-1)
        return np.split(codes, np.cumsum([len(r) for r in rows[:-1]]))
    codes = []
    for first, *rest in columns:
        code = first - lows[0]
        for column, low, span in zip(rest, lows[1:], spans[1:]):
            code *= span  # column - low < span: codes stay below the product of the spans
            code += column - low
        codes.append(code)
    return codes


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


def _ranks(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct code, ascending, and each code's rank; np.unique would import numpy.ma."""
    order = np.argsort(codes, kind="stable")
    starts = _run_starts(codes[order])
    step = np.zeros(len(codes), dtype=np.int64)
    step[starts[1:]] = 1  # in sorted order the rank rises by one at each later run
    ranks = np.empty_like(step)
    ranks[order] = np.cumsum(step, out=step)
    return order[starts], ranks


def _reduce_by_key(codes: np.ndarray, values, op=np.add) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the rows of ``values`` that share a code with ``op``, in ascending code order.

    ``values`` is an array of rows, or a function that forms the rows at an
    array of row indices.  Each reduction runs front to back in row order, as
    ``acc = op(acc, value)`` over the rows would: a sum by default, a max with
    ``np.fmax``.  It runs in layers, the first row of every code, then the
    second of every code that has one, and so on, each layer added in place,
    so a function is asked for at most one row per code at a time.  Returns
    the first row of each code and the results.
    """
    form = values if callable(values) else values.__getitem__
    order = np.argsort(codes, kind="stable")
    starts = _run_starts(codes[order])
    if len(starts) == len(codes):  # no code repeats
        return order, form(order)
    lengths = np.diff(starts, append=len(codes))
    runs = np.argsort(-lengths, kind="stable")  # longest first: the codes with a k-th row lead
    acc = form(order[starts[runs]])
    for k in range(1, lengths.max()):
        live = np.count_nonzero(lengths > k)
        op(acc[:live], form(order[starts[runs[:live]] + k]), out=acc[:live])
    return order[starts], acc[np.argsort(runs)]


def _key_arrays(group: Group, keys: list, arity: int) -> list[np.ndarray]:
    """Keys of ``arity`` points (a point, or a pair) as that many int64 arrays, not yet reduced.

    A key that is not ``arity`` points of integer coordinates is a ValueError naming it;
    numpy reads a boolean beside integers as one, so a key holding one takes the loop.
    """
    shape = (len(keys), arity, group.coord_len) if arity > 1 else (len(keys), group.coord_len)
    try:
        points = np.array(keys) if keys else np.zeros(shape, dtype=np.int64)
    except (TypeError, ValueError):  # keys of ragged shapes
        points = None
    bools = (isinstance(c, (bool, np.bool_)) for key in keys for point in (key if arity > 1 else (key,)) for c in point)
    if points is None or points.dtype.kind != "i" or points.shape != shape or any(bools):
        rows = []
        for key in keys:  # one at a time: coordinates of another integer type, or the offending key named
            try:
                if arity > 1 and not (isinstance(key, tuple) and len(key) == arity):
                    raise ValueError("not a pair of points")
                rows.append([group.canonical(point) for point in (key if arity > 1 else (key,))])
            except ValueError as exc:
                raise ValueError(f"key {key!r}: {exc}") from None
        points = np.array(rows, dtype=np.int64)
    return list(points.astype(np.int64, copy=False).reshape(len(keys), arity, group.coord_len).transpose(1, 0, 2))


def _pairs(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of a point of ``xs`` and one of ``ys``, as two arrays in nested-loop order, ``xs`` outer."""
    return np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1))


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
    """(canonical coordinate arrays, value stack) of a Mapping input, not yet sorted or summed."""
    keys = list(mapping)
    stack = _value_stack(keys, list(mapping.values()), shape)
    return [group.canonical_many(c) for c in _key_arrays(group, keys, arity)], stack


def _set_store(obj, group: Group, dim: int, coords, stack):
    """Give ``obj`` a canonical, sorted, duplicate-free store and return it: the one normalisation.

    ``coords`` holds one canonical (group-law or ``_parse_mapping`` output)
    ``(n, coord_len)`` array per point of a key and ``stack`` the n values, in
    any order, or a function that forms the values at an array of row indices
    (see ``_reduce_by_key``).  Values whose keys coincide are summed in row
    order, and ``_install`` drops the sums that are zero.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    (codes,) = _row_codes(tuple(coords))
    rows, stack = _reduce_by_key(codes, stack if callable(stack) else np.asarray(stack, dtype=complex))
    return _install(obj, group, dim, [c[rows] for c in coords], stack)


def _install(obj, group: Group, dim: int | None, coords, stack):
    """Give ``obj`` a store of sorted, distinct keys without its zero rows, read-only, and return it.

    Every store is set here, so no store holds a zero value.  The arrays are
    copied only when a row is dropped.  ``dim`` is None for an envelope.
    """
    live = _nonzero(stack)
    if not live.all():
        coords, stack = [c[live] for c in coords], stack[live]
    for arr in (*coords, stack):
        arr.setflags(write=False)
    obj.group, obj._coords, obj._stack = group, tuple(coords), stack
    if dim is not None:
        obj.dim = dim
    return obj


def _from_arrays(cls, group: Group, dim: int, coords, stack):
    """A derived ``cls`` from store arrays in any order: equal keys summed in row order, zeros dropped.

    ``stack`` may be a function that forms the values at row indices, as ``_set_store`` takes it.
    """
    return _set_store(cls.__new__(cls), group, dim, coords, stack)


def _subset(obj, keep: np.ndarray | slice = slice(None), stack: np.ndarray | None = None):
    """A store of ``obj``'s class with the rows of ``obj`` that ``keep`` selects, all by default.

    The rows stay sorted and distinct, so nothing is normalised again.  With
    ``stack``, its rows replace ``obj``'s values.
    """
    stack = obj._stack if stack is None else stack
    return _install(type(obj).__new__(type(obj)), obj.group, obj.dim, [c[keep] for c in obj._coords], stack[keep])


def _scaled(obj, c: complex):
    """``c`` times every value of a store, zero results dropped."""
    return _subset(obj, stack=c * obj._stack)


def _mapping_view(obj) -> Mapping:
    """Read-only mapping (point, point) -> block of a store in key order, built on first use.

    Nothing in the package reads it: it backs the ``entries`` views, which the
    benchmark's counters read.  Values are read-only views of the stack.
    """
    if obj._mapping is None:
        keys = zip(*(map(tuple, c.tolist()) for c in obj._coords))
        obj._mapping = MappingProxyType(dict(zip(keys, obj._stack)))
    return obj._mapping


def _require_compatible(a, b) -> None:
    """Refuse to combine stores over different groups, of different dims or key arities."""
    if (a.group, a.dim, len(a._coords)) != (b.group, b.dim, len(b._coords)):
        raise ValueError(f"operands live in different spaces: {a!r} vs {b!r}")


def _stores_sum(first, *rest):
    """Sum of stores of one class; the values at a common key are added front to back, as first + ... + last."""
    for other in rest:
        _require_compatible(first, other)
    stores = (first, *rest)
    coords = [np.concatenate(same) for same in zip(*(store._coords for store in stores))]
    with np.errstate(invalid="ignore"):  # inf + (-inf) is NaN, as IEEE arithmetic defines it
        return _from_arrays(type(first), first.group, first.dim, coords, np.concatenate([s._stack for s in stores]))


def _stores_difference(a, b):
    """Difference of two stores of one class: the store of a + (-b), which is a - b exactly."""
    # np.negative, not a scale by -1.0: complex multiplication by -1.0 turns
    # a block whose two parts are infinite into NaN.
    return _stores_sum(a, _subset(b, stack=np.negative(b._stack)))


def _max_block_difference(a, b) -> float:
    """Max operator-norm difference between the blocks of two stores at matching keys.

    The difference store drops zero blocks, which add nothing to a maximum
    that starts at 0.
    """
    stack = _stores_difference(a, b)._stack
    # One run of all blocks, none if there are none; fmax skips NaN: a NaN
    # difference never sets the maximum.
    return float(np.fmax.reduce(_run_sups(stack, np.arange(min(len(stack), 1))), initial=0.0))


# Relative margin on the bounds of a block's operator norm.  It is far wider
# than the rounding of a Frobenius norm, a column norm or LAPACK's largest
# singular value of a small block.
_NORM_MARGIN = 1e-12


def _run_sups(stack: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``fmax`` of the operator norms of each run of a block stack; runs begin at ``starts``, the first at 0.

    The result is ``np.fmax.reduceat(operator_norms(stack), starts)`` bit for
    bit on finite blocks.  For d >= 2, sigma_max <= ||A||_F and sigma_max >=
    max_j ||A e_j|| (Golub-Van Loan, Matrix Computations, 4th ed.), so a block
    whose Frobenius norm, widened by the margin, stays below the largest
    column norm in its run, narrowed by it, cannot set the run's maximum: it
    counts as 0 and only the other blocks go to LAPACK.  So do the blocks
    whose squared norms leave the safe range, except that one with a
    non-finite coefficient is inf if a part is infinite and NaN otherwise, the
    ``hypot`` rule of d = 1.
    """
    if stack.shape[1] == 1:
        return np.fmax.reduceat(operator_norms(stack), starts)
    columns = np.zeros(stack.shape[::2])  # squared column norms, (n, d)
    with np.errstate(over="ignore"):  # an overflowed square leaves the safe range
        for row in stack.transpose(1, 0, 2):
            columns += row.real**2 + row.imag**2
        upper, lower = columns.sum(axis=1), columns.max(axis=1)  # squared bounds
    # In this range the sums of squares neither overflowed nor lost the largest
    # coefficient to underflow.  It is False for NaN.
    safe = (upper >= 2.0**-800) & (upper <= 2.0**800)
    best = np.maximum.reduceat(np.where(safe, lower, 0.0), starts)
    best = np.repeat(best, np.diff(starts, append=len(stack)))
    sent = np.flatnonzero(~safe | (upper * (1 + _NORM_MARGIN) ** 2 >= best * (1 - _NORM_MARGIN) ** 2))
    blocks = stack[sent]
    finite = np.isfinite(blocks).all(axis=(1, 2))
    norms = np.zeros(len(stack))
    norms[sent[finite]] = operator_norms(blocks[finite])
    norms[sent[~finite]] = np.where(np.isinf(blocks[~finite]).any(axis=(1, 2)), np.inf, np.nan)
    return np.fmax.reduceat(norms, starts)


def _fibre_sups(obj) -> tuple[np.ndarray, np.ndarray]:
    """Start row of each fibre (the rows of one first coordinate) and its largest block norm."""
    starts = _run_starts(obj._coords[0])
    # fmax skips NaN norms: a NaN block never sets the maximum.
    return starts, _run_sups(obj._stack, starts)


def _l1_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of nonnegative values (fsum); a sum past the float range is a ValueError."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        raise ValueError("l1 norm overflows: the sum exceeds the largest float") from None


def _refuse_bad_values(keys, vals: np.ndarray) -> None:
    """ValueError naming the first key whose envelope value is negative, NaN or infinite."""
    for bad, what in ((vals < 0, "negative"), (~np.isfinite(vals), "not finite")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"envelope value at {keys[i]!r} is {what}: {vals[i]}")


class Envelope:
    """Finitely supported nonnegative function on a group, stored as sorted int64 points and float64 values.

    The Mapping constructor refuses negative, NaN and infinite values, makes
    every key canonical and max-merges the values of keys that coincide; a
    zero value is dropped, as in every store.  The envelope file reader builds
    envelopes with it.
    """

    def __init__(self, group: Group, values: Mapping[Point, float]) -> None:
        keys = list(values)
        vals = np.fromiter(map(float, values.values()), dtype=float, count=len(keys))
        _refuse_bad_values(keys, vals)
        (points,) = _key_arrays(group, keys, 1)
        points = group.canonical_many(points)
        rows, merged = _reduce_by_key(_row_codes(points)[0], vals, np.fmax)
        _install(self, group, None, (points[rows],), merged)

    @classmethod
    def _derived(cls, group: Group, points: np.ndarray, values: np.ndarray) -> "Envelope":
        """An envelope of canonical, sorted, distinct points and their values, with no Mapping round trip."""
        return _install(cls.__new__(cls), group, None, (points,), values)

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only store: points and values, in point order."""
        return self._coords[0], self._stack

    def l1_norm(self) -> float:
        # fsum is exactly rounded, so the norm is invariant under any
        # permutation of the support (involutions, translations).
        return _l1_sum(self._stack)

    def restrict(self, radius: int) -> "Envelope":
        """Keep only points of word length <= radius: the bound of the ideal of support in that ball."""
        if radius < 0:
            raise ValueError("support radius must be nonnegative")
        (points,), g = self._coords, self.group
        keep = g.word_length_many(points) <= radius
        return Envelope._derived(g, points[keep], self._stack[keep])

    def cap(self, level: float) -> "Envelope":
        """Pointwise minimum with a constant level: the bound of the ideal truncated at that level."""
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
        rows, sums = _reduce_by_key(_row_codes(points)[0], self._stack[i] * other._stack[j])
        return Envelope._derived(g, points[rows], sums)

    def l1_distance(self, other: "Envelope") -> float:
        """l1 norm of the difference."""
        if self.group != other.group:
            raise ValueError("envelope groups differ")
        # a + (-b) is a - b exactly; a point of one envelope only keeps its value.
        codes = np.concatenate(_row_codes(self._coords[0], other._coords[0]))
        _, differences = _reduce_by_key(codes, np.concatenate([self._stack, -other._stack]))
        return _l1_sum(np.abs(differences))

    def by_word_length(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Word lengths present (ascending), with the max and the front-to-back sum of the values at each."""
        lengths = self.group.word_length_many(self._coords[0])
        rows, maxima = _reduce_by_key(lengths, self._stack, np.fmax)
        return lengths[rows], maxima, _reduce_by_key(lengths, self._stack)[1]

    def shell_partial_sums(self) -> list[float]:
        """Cumulative l1 mass over word-length shells 0, 1, ..., max length."""
        lengths, _, sums = self.by_word_length()
        return np.cumsum(np.bincount(lengths, weights=sums)).tolist()  # 0.0 at absent lengths

    def __repr__(self) -> str:
        return f"Envelope({self.group.name}, {len(self._stack)} points, l1={self.l1_norm():.6g})"


class Kernel:
    """Finitely supported kernel (x, y) -> d x d matrix in (s, t) storage.

    The value at (x, y) is the block keyed (x*y^-1, y) in :attr:`arrays`;
    missing entries are zero.  Instances are immutable: the coordinate arrays
    and the block stack are read-only.
    """

    _envelope: Envelope | None = None
    _mapping: Mapping | None = None

    def __init__(self, group: Group, dim: int, entries: Mapping[tuple[Point, Point], np.ndarray]) -> None:
        """Kernel from a mapping (s, t) -> d x d matrix.

        Every key is made canonical, and matrices whose keys coincide are
        summed in the mapping's order, zero ones included; a sum that is zero
        is dropped, as in every store.  The kernel file reader builds kernels
        with it.
        """
        _set_store(self, group, dim, *_parse_mapping(group, entries, 2, (dim, dim)))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, group: Group, dim: int) -> "Kernel":
        return cls(group, dim, {})

    @classmethod
    def invariant(cls, group: Group, symbol: tuple, window_radius: int | None = None) -> "Kernel":
        """Translation-invariant kernel K(x, y) = a(x y^-1) of a symbol a, on a window of t values.

        The symbol is a (points, blocks) pair, as ``theta_embed`` and
        ``matrix_function_convolve`` use: an ``(m, coord_len)`` point array and
        an ``(m, d, d)`` block stack.  The kernel holds a(s) at every (s, t)
        with t in the window; blocks at one point are summed in order.  The
        window is the ball of ``window_radius``, or by default the whole
        group, which ``Group.window`` refuses on an infinite group.
        """
        points, blocks = group.canonical_many(symbol[0]), np.asarray(symbol[1], dtype=complex)
        if blocks.shape != (len(points), *blocks.shape[-1:] * 2):
            raise ValueError(f"symbol of {len(points)} points has blocks of shape {blocks.shape}")
        t = group.window(window_radius)
        return _from_arrays(cls, group, blocks.shape[-1], _pairs(points, t), lambda at: blocks[at // len(t)])

    @classmethod
    def identity(cls, group: Group, dim: int, window_radius: int | None = None) -> "Kernel":
        """Identity kernel delta_{x=y} I: the symbol I at the identity, on the window of :meth:`invariant`."""
        return cls.invariant(group, ([group.identity], np.eye(dim, dtype=complex)[None]), window_radius)

    # -- basic access -----------------------------------------------------------

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only store: s and t coordinates and the block stack, in (s, t) order."""
        return (*self._coords, self._stack)

    @property
    def entries(self) -> Mapping[tuple[Point, Point], np.ndarray]:
        """Read-only mapping (s, t) -> block in sorted key order, built on first use.

        The package reads :attr:`arrays`; this view is kept for the benchmark's counters.
        """
        return _mapping_view(self)

    def min_envelope(self) -> Envelope:
        """Smallest dominating envelope: beta(s) = max_t of the operator norm of the block at (s, t)."""
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
        The products are formed inside that sum, so at most one per key is held.
        """
        _require_compatible(self, other)
        g, (s1, t1), (s2, t2) = self.group, self._coords, other._coords
        i, j = _join(*_row_codes(t1, g.multiply_many(s2, t2)))
        coords = (g.multiply_many(s1[i], s2[j]), t2[j])
        return _from_arrays(Kernel, g, self.dim, coords, lambda at: np.matmul(self._stack[i[at]], other._stack[j[at]]))

    def involution(self) -> "Kernel":
        """Adjoint kernel K*(x, y) = K(y, x)^H."""
        g, (s, t) = self.group, self._coords
        coords = (g.inverse_many(s), g.multiply_many(s, t))
        return _from_arrays(Kernel, g, self.dim, coords, self._stack.conj().transpose(0, 2, 1))

    def apply(self, vec: "TestVector") -> "TestVector":
        """Integral operator action in the first variable: T_K on single vectors, T_K x id on doubled ones.

        (T_K f)(x) = sum_y K(x, y) f(y), and (T_K x id) xi (x, z) = sum_y
        K(x, y) xi(y, z).  Terms are summed per key in the order of the
        kernel's entries, then of the vector's.
        """
        self._require_vector(vec)
        g, (s, t), (y, *rest) = self.group, self._coords, vec._coords
        i, j = _join(*_row_codes(t, y))
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
        return _stores_difference(self, other)

    # -- windows and dense sections -------------------------------------------------

    def restrict_to_ball(self, radius: int) -> "Kernel":
        """Keep entries whose pair (x, y) lies in the ball of the given radius."""
        return _subset(self, self._ball_mask(radius))

    def _ball_mask(self, radius: int, columns: bool = True) -> np.ndarray:
        """Mask of the entries whose row x = s*t, and with ``columns`` their column t, lie in the ball."""
        g, (s, t) = self.group, self._coords
        keep = g.word_length_many(g.multiply_many(s, t)) <= radius
        return keep & (g.word_length_many(t) <= radius) if columns else keep

    def _section_index(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(entry, row, column) of each entry whose row s t and column t lie in a section.

        ``pts`` is a canonical point array; rows and columns are positions in
        it.  Repeated points raise ValueError.
        """
        g, (s, t) = self.group, self._coords
        index, cols, rows = _row_codes(pts, t, g.multiply_many(s, t))
        if len(_ranks(index)[0]) != len(pts):
            raise ValueError("section points must be distinct")
        entry, j = _join(cols, index)
        at_row, i = _join(rows[entry], index)
        return entry[at_row], i, j[at_row]

    def to_dense(self, points: np.ndarray | Sequence[Point]) -> np.ndarray:
        """Dense section matrix [K(x, y)] over ordered points: a point array or a sequence of points."""
        d = self.dim
        pts = self.group.canonical_many(points)
        n = len(pts)
        entry, i, j = self._section_index(pts)
        mat = np.zeros((n, d, n, d), dtype=complex)
        mat[i, :, j, :] = self._stack[entry]
        return mat.reshape(n * d, n * d)

    @classmethod
    def from_dense(cls, group: Group, dim: int, mat: np.ndarray, points: np.ndarray | Sequence[Point]) -> "Kernel":
        """Inverse of :meth:`to_dense`: read blocks back into (s, t) storage."""
        pts = group.canonical_many(points)
        n = len(pts)
        if mat.shape != (n * dim, n * dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {n} points of dim {dim}")
        if len(_ranks(_row_codes(pts)[0])[0]) != n:
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
    return float(np.linalg.norm(kernel.to_dense(kernel.group.window(radius)), 2))


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

        Every key is made canonical, and values whose keys coincide are
        summed in the mapping's order, zero ones included; a sum that is zero
        is dropped, as in every store.  The package derives vectors from
        arrays; the tests build them with this constructor.
        """
        _set_store(self, group, dim, *_parse_mapping(group, values, 2 if doubled else 1, (dim,)))

    @property
    def doubled(self) -> bool:
        return len(self._coords) == 2

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The read-only store: x (and for doubled vectors z) coordinates and the vector stack, in key order."""
        return (*self._coords, self._stack)

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
        i, j = _join(*_row_codes(self._coords, other._coords))
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
        return _stores_difference(self, other)

    def __repr__(self) -> str:
        kind = "doubled" if self.doubled else "single"
        return f"TestVector({self.group.name}, dim={self.dim}, {kind}, {len(self._stack)} points)"
