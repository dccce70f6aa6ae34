"""Operator-valued kernels with summable envelope norms, and the block store.

A kernel maps group pairs (x, y) to d x d complex matrices and is stored in
convolution coordinates (s, t) with s = x * y^-1 and t = y, so that the
envelope (the dominating function of the off-diagonal decay) lives on the
single variable s.  All supports are finite.

:class:`Kernel`, :class:`TestVector` and
:class:`~convdom.covariance.CovarianceElement` derive from one block store,
``_Store``: an int64 ``(nnz, coord_len)`` coordinate array per point of a
key, and a read-only stack of ``(nnz, d, d)`` blocks or ``(nnz, d)`` vectors,
with rows in lexicographic key order.  It holds once what the three share:
``arrays``, ``entries``, the linear structure and ``max_block_difference``.
:class:`Envelope` keeps points and values the same way.  Each class's
``__init__`` takes arrays in the layout ``arrays`` returns, so
``Kernel(g, d, *k.arrays)`` rebuilds ``k``; it is the one place where input
from outside the program is checked (``_checked``), and the file readers
build every store through it.  Derivations take ``_Store._from_arrays``,
which sums the values of coinciding keys in row order, or, when they keep
the order (``restrict_to_ball``, ``scale``), ``_Store._subset``.  No store
holds a zero value: ``_install``, through which every store is set, drops
zero rows, so a sum that cancels is gone wherever it was formed.  The one
mapping view, ``entries``, is kept for the benchmark's counters; nothing in
the package reads it.  Every operation runs on whole arrays through the
batched group law: composition is a join on the row point s*t and a sum
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


def _pairs(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of a point of ``xs`` and one of ``ys``, as two arrays in nested-loop order, ``xs`` outer."""
    return np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1))


def _nonzero(stack: np.ndarray) -> np.ndarray:
    """Mask of the rows of a value stack with a nonzero coefficient."""
    return stack.any(axis=tuple(range(1, stack.ndim)))


# -- input checks and installation, for every store ------------------------------------


def _points(group: Group, coords) -> np.ndarray:
    """``coords`` as an int64 ``(n, coord_len)`` array of points as written, not yet canonical.

    An array of an integer dtype and that shape passes as it is, and an empty
    one of any dtype holds no points.  Otherwise the rows are checked one by
    one with the group's scalar check, and the first that is not a point is a
    ValueError naming it: a float or boolean coordinate, the wrong number of
    coordinates, a coordinate outside int64.  An array whose every row is a
    point but whose dtype is not an integer one (object) is refused at its
    first row.
    """
    try:
        arr = np.asarray(coords)
    except ValueError:  # ragged rows
        rows = coords
    else:
        if arr.shape[:1] == (0,):
            return np.zeros((0, group.coord_len), dtype=np.int64)
        fits = arr.dtype.kind == "i" or (arr.dtype.kind == "u" and arr.max() <= np.iinfo(np.int64).max)
        if fits and arr.shape[1:] == (group.coord_len,):
            return arr.astype(np.int64, copy=False)
        rows = arr.tolist()
    for row in rows:
        group.canonical(row)
    raise ValueError(f"{group.name}: point {rows[0]!r} is held in an array of dtype object, not of integers")


def _key_text(names: Sequence[str], coords, i: int) -> str:
    """Row ``i`` of a store's coordinate arrays, each point named: ``s = [1], t = [0]``."""
    return ", ".join(f"{name} = {c[i].tolist()}" for name, c in zip(names, coords))


def _checked(group: Group, names: Sequence[str], coords, values, shape: tuple[int, ...], dtype=complex):
    """Input coordinate arrays, as written, and the value stack they key: the check of ``__init__``.

    Returns the int64 arrays of :func:`_points` and ``values`` as an ``(n,
    *shape)`` stack of ``dtype``.  Arrays that differ in their number of
    rows, or values of another shape, are a ValueError; a shape refusal names
    the first key.
    """
    coords = [_points(group, c) for c in coords]
    stack = np.asarray(values, dtype=dtype)
    if stack.shape[:1] == (0,):
        stack = stack.reshape(0, *shape)
    if len({len(a) for a in (*coords, stack)}) > 1:
        counts = ", ".join(f"{n} {len(a)}" for n, a in zip((*names[: len(coords)], "values"), (*coords, stack)))
        raise ValueError(f"rows differ in number: {counts}")
    if stack.shape[1:] != shape:
        raise ValueError(f"value at {_key_text(names, coords, 0)} has shape {stack.shape[1:]}, expected {shape}")
    return coords, stack


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


def _require_compatible(a, b) -> None:
    """Refuse to combine stores over different groups, of different dims or key arities."""
    if (a.group, a.dim, len(a._coords)) != (b.group, b.dim, len(b._coords)):
        raise ValueError(f"operands live in different spaces: {a!r} vs {b!r}")


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


def _refuse_bad_values(points: np.ndarray, vals: np.ndarray) -> None:
    """ValueError naming the first point whose envelope value is negative, NaN or infinite."""
    for bad, what in ((vals < 0, "negative"), (~np.isfinite(vals), "not finite")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"envelope value at {tuple(points[i].tolist())!r} is {what}: {vals[i]}")


class Envelope:
    """Finitely supported nonnegative function on a group, stored as sorted int64 points and float64 values."""

    def __init__(self, group: Group, s, values) -> None:
        """Envelope from the arrays :attr:`arrays` returns: an ``(n, coord_len)`` point array and n values.

        Points are checked as every store's are, and a negative, NaN or
        infinite value is refused, naming its point as written.  Every point
        is made canonical, and the values of points that coincide are
        max-merged; a zero value is dropped, as in every store.
        """
        (points,), vals = _checked(group, ("s",), (s,), values, (), float)
        _refuse_bad_values(points, vals)
        points = group.canonical_many(points)
        rows, merged = _reduce_by_key(_row_codes(points)[0], vals, np.fmax)
        _install(self, group, None, (points[rows],), merged)

    @classmethod
    def _derived(cls, group: Group, points: np.ndarray, values: np.ndarray) -> "Envelope":
        """An envelope of canonical, sorted, distinct points and their values, derived, so not checked again."""
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


class _Store:
    """The block store :class:`Kernel`, :class:`TestVector` and :class:`~convdom.covariance.CovarianceElement` share.

    A store holds ``group``, ``dim``, one canonical coordinate array per
    point of a key (``_coords``, named by ``_names``) and the value stack
    (``_stack``), rows sorted and distinct.  The public members here are
    inherited; each class defines its own ``__init__``, which checks its
    input through :meth:`_input`.  The benchmark's tracer wraps only the
    members in a public class's own ``__dict__``, so the ones it reports
    (each ``__init__``, ``Kernel.compose`` and ``CovarianceElement.product``
    among them) stay on their classes.
    """

    _names: tuple[str, ...]  # the points of a key, as files and refusals name them
    _mapping: Mapping | None = None

    def _input(self, group: Group, dim: int, coords, values, shape: tuple[int, ...]) -> None:
        """Set the store from the arrays given to ``__init__``: checked, canonical, coinciding keys summed in row order."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        coords, stack = _checked(group, self._names, coords, values, shape)
        self._normalise(group, dim, [group.canonical_many(c) for c in coords], stack)

    def _normalise(self, group: Group, dim: int, coords, stack):
        """Give the store canonical ``coords`` in any order and their values, and return it: the one normalisation.

        ``stack`` holds the n values, or is a function that forms the values
        at an array of row indices (see ``_reduce_by_key``).  Values whose
        keys coincide are summed in row order, and ``_install`` drops the sums
        that are zero.
        """
        (codes,) = _row_codes(tuple(coords))
        rows, stack = _reduce_by_key(codes, stack if callable(stack) else np.asarray(stack, dtype=complex))
        return _install(self, group, dim, [c[rows] for c in coords], stack)

    @classmethod
    def _from_arrays(cls, group: Group, dim: int, coords, stack):
        """A derived store of canonical arrays in any order, not checked: equal keys summed in row order, zeros dropped."""
        return cls.__new__(cls)._normalise(group, dim, coords, stack)

    def _subset(self, keep: np.ndarray | slice = slice(None), stack: np.ndarray | None = None):
        """A store of this class with the rows that ``keep`` selects, all by default.

        The rows stay sorted and distinct, so nothing is normalised again.  With
        ``stack``, its rows replace the values.
        """
        stack = self._stack if stack is None else stack
        return _install(type(self).__new__(type(self)), self.group, self.dim, [c[keep] for c in self._coords], stack[keep])

    def _sum(self, *rest):
        """Sum of stores of one class; the values at a common key are added front to back, as self + ... + last."""
        for other in rest:
            _require_compatible(self, other)
        stores = (self, *rest)
        coords = [np.concatenate(same) for same in zip(*(store._coords for store in stores))]
        with np.errstate(invalid="ignore"):  # inf + (-inf) is NaN, as IEEE arithmetic defines it
            return self._from_arrays(self.group, self.dim, coords, np.concatenate([s._stack for s in stores]))

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The read-only store: one coordinate array per point of a key, then the value stack, in key order."""
        return (*self._coords, self._stack)

    @property
    def entries(self) -> Mapping:
        """Read-only mapping key -> value in key order, built on first use; values are read-only views of the stack.

        Keys are points, or tuples of points for keys of two.  The package
        reads :attr:`arrays`; this view is kept for the benchmark's counters.
        """
        if self._mapping is None:
            points = [map(tuple, c.tolist()) for c in self._coords]
            self._mapping = MappingProxyType(dict(zip(zip(*points) if len(points) > 1 else points[0], self._stack)))
        return self._mapping

    def scale(self, c: complex):
        """``c`` times every value, zero results dropped."""
        return self._subset(stack=c * self._stack)

    def __add__(self, other):
        return self._sum(other)

    def __sub__(self, other):
        """The store of self + (-other), which is self - other exactly."""
        # np.negative, not a scale by -1.0: complex multiplication by -1.0 turns
        # a value whose two parts are infinite into NaN.
        return self._sum(other._subset(stack=np.negative(other._stack)))

    def max_block_difference(self, other) -> float:
        """Max operator-norm difference between the values at matching keys; a vector is normed as a d x 1 block.

        The difference store drops zero values, which add nothing to a maximum
        that starts at 0.
        """
        stack = np.atleast_3d((self - other)._stack)
        # One run of all blocks, none if there are none; fmax skips NaN: a NaN
        # difference never sets the maximum.
        return float(np.fmax.reduce(_run_sups(stack, np.arange(min(len(stack), 1))), initial=0.0))

    def __repr__(self) -> str:
        keyed = ", ".join(self._names[: len(self._coords)])
        return f"{type(self).__name__}({self.group.name}, dim={self.dim}, {len(self._stack)} entries keyed ({keyed}))"


class Kernel(_Store):
    """Finitely supported kernel (x, y) -> d x d matrix in (s, t) storage.

    The value at (x, y) is the block keyed (x*y^-1, y) in :attr:`arrays`;
    missing entries are zero.  Instances are immutable: the coordinate arrays
    and the block stack are read-only.
    """

    _names = ("s", "t")
    _envelope: Envelope | None = None

    def __init__(self, group: Group, dim: int, s, t, blocks) -> None:
        """Kernel from the arrays :attr:`arrays` returns: s and t point arrays and an ``(n, d, d)`` block stack.

        The input is checked: integer coordinates of the group's length, and
        blocks of shape ``(d, d)``, a refusal naming the first offending point.
        Every key is made canonical, and blocks whose keys coincide are summed
        in row order, zero ones included; a sum that is zero is dropped, as in
        every store.  The kernel file reader builds kernels with it.
        """
        self._input(group, dim, (s, t), blocks, (dim, dim))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, group: Group, dim: int) -> "Kernel":
        return cls(group, dim, [], [], [])

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
        return cls._from_arrays(group, blocks.shape[-1], _pairs(points, t), lambda at: blocks[at // len(t)])

    @classmethod
    def identity(cls, group: Group, dim: int, window_radius: int | None = None) -> "Kernel":
        """Identity kernel delta_{x=y} I: the symbol I at the identity, on the window of :meth:`invariant`."""
        return cls.invariant(group, ([group.identity], np.eye(dim, dtype=complex)[None]), window_radius)

    # -- envelopes ----------------------------------------------------------------

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
        return Kernel._from_arrays(g, self.dim, coords, lambda at: np.matmul(self._stack[i[at]], other._stack[j[at]]))

    def involution(self) -> "Kernel":
        """Adjoint kernel K*(x, y) = K(y, x)^H."""
        g, (s, t) = self.group, self._coords
        coords = (g.inverse_many(s), g.multiply_many(s, t))
        return Kernel._from_arrays(g, self.dim, coords, self._stack.conj().transpose(0, 2, 1))

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
        return TestVector._from_arrays(g, self.dim, coords, terms)

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
        return Kernel._from_arrays(g, self.dim, (s, t), self._stack)

    def _require_vector(self, vec: "TestVector") -> None:
        if vec.group != self.group:
            raise ValueError("test vector group differs from kernel group")
        if vec.dim != self.dim:
            raise ValueError("test vector dim differs from kernel dim")

    # -- windows and dense sections -------------------------------------------------

    def restrict_to_ball(self, radius: int) -> "Kernel":
        """Keep entries whose pair (x, y) lies in the ball of the given radius."""
        return self._subset(self._ball_mask(radius))

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
        return cls._from_arrays(group, dim, (s, pts[j]), blocks[i, j])


def section_operator_norm(kernel: Kernel, radius: int) -> float:
    """|T_K| on the ball truncation of given radius: the largest singular value
    of the section matrix, which the envelope norm bounds."""
    return float(np.linalg.norm(kernel.to_dense(kernel.group.window(radius)), 2))


class TestVector(_Store):
    """Finitely supported vector-valued function on the group.

    Single-variable vectors map points to C^d; doubled vectors map point pairs
    to C^d and model the two-variable square-summable space used by the
    regular representation.  The store holds one coordinate array per
    variable and an ``(nnz, d)`` stack of read-only vectors.
    """

    __test__ = False  # not a pytest class, despite the name
    _names = ("x", "z")

    def __init__(self, group: Group, dim: int, *arrays) -> None:
        """Vector from the arrays :attr:`arrays` returns: x, for a doubled vector z, and an ``(n, d)`` vector stack.

        A vector is doubled when it gets two coordinate arrays.  The input is
        checked as a kernel's is; every key is made canonical, and vectors
        whose keys coincide are summed in row order, zero ones included; a sum
        that is zero is dropped, as in every store.
        """
        *coords, vectors = arrays
        if len(coords) not in (1, 2):
            raise ValueError(f"a test vector takes one or two coordinate arrays, got {len(coords)}")
        self._input(group, dim, coords, vectors, (dim,))

    @property
    def doubled(self) -> bool:
        return len(self._coords) == 2

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
        return TestVector._from_arrays(g, self.dim, (x,), self._stack)
