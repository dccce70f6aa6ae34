"""Discrete group arithmetic: integer lattices, cyclic groups, Heisenberg groups.

A :class:`Group` object carries the group law, a fixed symmetric generating
set and the closed-form word length of the induced word metric.  Each group
states its law once, on ``(n, coord_len)`` int64 arrays of points (the
``*_many`` methods the array-backed kernel store runs on).  The scalar
methods run the same law on a one-row array and return plain tuples of
Python ints.  A result whose exact coordinates could leave int64 raises
``ValueError`` instead of wrapping around.

Balls are the truncation windows used by every finite-section computation
downstream.  One routine, ``Group.window``, enumerates them for every group
as a canonical point array: it filters a per-coordinate box that contains the
ball by word length, and orders the points by word length, then
lexicographically.
"""

from __future__ import annotations

import re

import numpy as np

Point = tuple[int, ...]

# A result is refused when the float64 bound on one of its coordinates reaches
# this; the margin below int64's 2**63 covers the rounding of the bound.
_INT64_BOUND = 2.0**62


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _require_int64(group: "Group", bound: np.ndarray, what: str) -> None:
    """Refuse a result whose float64 coordinate bound reaches ``_INT64_BOUND``."""
    if bound.size and bound.max() >= _INT64_BOUND:
        raise ValueError(f"{group.name}: {what} would leave the int64 range")


def _heisenberg_length(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Word lengths in H3(Z) of the points (a, b, c), elementwise with broadcasting.

    The closed form of Blachère, "Word distance on the discrete Heisenberg
    group", Colloq. Math. 95 (2003), for the generators (+-1,0,0), (0,+-1,0).
    The automorphisms (a,b,c) -> (-a,b,-c), (a,-b,-c) and (b,a,ab-c) fix the
    generating set, so they reduce every point to x, y >= 0 and c >= 0; the
    rest is symmetric in x and y, so the swap is left out.  If c <= xy the
    length is x + y.  Otherwise let S be the least integer with
    floor(S/2) ceil(S/2) >= c, or m + ceil(c/m) with m = max(x, y) if that S
    is below 2m; the length is 2 max(S, x + y) - x - y.  Every intermediate
    fits int64 while |a||b| + |c| + |a| + |b| stays below 2**62.
    """
    c = np.where((a < 0) != (b < 0), -c, c)
    x, y = np.abs(a), np.abs(b)
    c = np.where(c < 0, x * y - c, c)
    s = np.ceil(2 * np.sqrt(c.astype(float))).astype(np.int64)
    s += (s // 2) * ((s + 1) // 2) < c  # float rounding can leave s one off either way
    s -= ((s - 1) // 2) * (s // 2) >= np.maximum(c, 1)
    m = np.maximum(x, y)
    s = np.where(s < 2 * m, m - (-c // np.maximum(m, 1)), s)
    top = np.maximum(s, x + y)
    return np.where(c <= x * y, x + y, (top - x) + (top - y))


def _span(bound: int, modulus: int | None) -> np.ndarray:
    """The integers -bound..bound, or their distinct residues mod ``modulus``."""
    if modulus is not None and 2 * bound + 1 >= modulus:
        return np.arange(modulus)
    span = np.arange(-bound, bound + 1)
    return span if modulus is None else span % modulus


class Group:
    """Descriptor of a finitely generated discrete group.

    Subclasses state the group law once, on ``(n, coord_len)`` int64 arrays:
    ``_product_many``, ``inverse_many``, the closed-form ``word_length_many``,
    and ``_reduce_many`` when points have a canonical residue mod
    ``_modulus``.  ``_ball_bounds`` gives, per coordinate, a bound on its
    absolute value over each ball (the radius unless overridden);
    :meth:`window` filters that box into the canonical point array of a ball
    or of the whole group, and :meth:`ball` is its tuple view.  The scalar
    methods run the law on one row.  All instances are immutable values:
    every ball is computed afresh per call, and nothing is cached.
    """

    name: str
    coord_len: int
    is_finite: bool = False
    order: int | None = None
    _modulus: int | None = None
    _gens: tuple[Point, ...]

    # -- group law on (n, coord_len) int64 arrays ---------------------------------

    @property
    def identity(self) -> Point:
        return (0,) * self.coord_len

    def generators(self) -> tuple[Point, ...]:
        return self._gens

    def _product_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _reduce_many(self, x: np.ndarray) -> np.ndarray:
        return x

    def canonical_many(self, points) -> np.ndarray:
        """Canonical ``(n, coord_len)`` int64 array of a sequence or array of points."""
        arr = np.asarray(points, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, self.coord_len)
        if arr.ndim != 2 or arr.shape[1] != self.coord_len:
            raise ValueError(f"{self.name}: point array has shape {arr.shape}, expected (n, {self.coord_len})")
        return self._reduce_many(arr)

    def multiply_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row-wise products of canonical point arrays; a single row broadcasts."""
        if not self.is_finite:
            # Every law here is a polynomial with nonnegative coefficients, so the
            # same law on |x| and |y| bounds the exact product coordinatewise.
            # Finite groups cap their modulus so that canonical products fit.
            _require_int64(self, self._product_many(np.abs(x.astype(float)), np.abs(y.astype(float))), "a product")
        return self._reduce_many(self._product_many(x, y))

    def inverse_many(self, x: np.ndarray) -> np.ndarray:
        """Row-wise inverses of a canonical point array."""
        raise NotImplementedError

    def word_length_many(self, x: np.ndarray) -> np.ndarray:
        """Word lengths of a canonical point array."""
        raise NotImplementedError

    def _ball_bounds(self, radius: int) -> tuple[int, ...]:
        """Per coordinate, a bound on |coordinate| over the ball of ``radius``."""
        return (radius,) * self.coord_len

    # -- the same law on single points ----------------------------------------------

    def _row(self, x) -> np.ndarray:
        """``x`` as a canonical one-row array, checking coordinate arity and range."""
        pt = tuple(map(int, x))
        if len(pt) != self.coord_len:
            raise ValueError(
                f"{self.name}: point {pt!r} has {len(pt)} coordinates, "
                f"expected {self.coord_len}"
            )
        try:
            row = np.array([pt], dtype=np.int64)
        except OverflowError:
            raise ValueError(f"{self.name}: point {pt!r} has a coordinate outside the int64 range") from None
        return self._reduce_many(row)

    def canonical(self, x) -> Point:
        """Coerce ``x`` to a canonical point, checking coordinate arity."""
        return tuple(self._row(x).tolist()[0])

    def multiply(self, x: Point, y: Point) -> Point:
        """``x * y`` on single points; the package multiplies arrays, the benchmark's counters and oracles call this."""
        return tuple(self.multiply_many(self._row(x), self._row(y)).tolist()[0])

    def inverse(self, x: Point) -> Point:
        """``x^-1`` on a single point, for scalar uses (a conjugating element, the benchmark's counters)."""
        return tuple(self.inverse_many(self._row(x)).tolist()[0])

    def word_length(self, x: Point) -> int:
        """Length of the shortest generator word equal to ``x``."""
        return int(self.word_length_many(self._row(x))[0])

    # -- balls ----------------------------------------------------------------

    def window(self, radius: int | None = None) -> np.ndarray:
        """Canonical ``(n, coord_len)`` int64 array of the points of word length <= radius.

        Rows are ordered by (length, coords).  Finite groups cap the ball at
        the whole group; with None the window is the whole group, which an
        infinite group refuses.
        """
        if radius is None:
            if not self.is_finite:
                raise ValueError(f"{self.name} is infinite; the whole-group window needs a finite group")
            radius = self.order  # no element is longer than the order
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        axes = [_span(bound, self._modulus) for bound in self._ball_bounds(radius)]
        box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.coord_len)
        lengths = self.word_length_many(box)
        keep = np.flatnonzero(lengths <= radius)
        return box[keep[np.lexsort((*box[keep].T[::-1], lengths[keep]))]]

    def ball(self, radius: int | None = None) -> list[Point]:
        """The points of :meth:`window` as tuples, for callers that hash them; None is the whole group, as there.

        The package reads :meth:`window`; the benchmark's Neumann oracle keys its window on these tuples.
        """
        return list(map(tuple, self.window(radius).tolist()))

    def diameter(self) -> int:
        """Largest word length in a finite group: the radius whose ball is the group."""
        return self.word_length(self.window()[-1])

    # -- value semantics ------------------------------------------------------

    def _key(self) -> tuple:
        return (type(self).__name__, self.name)

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    def __str__(self) -> str:
        return self.name


class IntegerLattice(Group):
    """Z^d with componentwise addition and generators +-e_i."""

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValueError("lattice dimension must be >= 1")
        self.dimension = dimension
        self.coord_len = dimension
        self.name = "Z" if dimension == 1 else f"Z^{dimension}"
        self._gens = tuple(
            tuple(s if j == i else 0 for j in range(dimension))
            for i in range(dimension)
            for s in (1, -1)
        )

    def _product_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x + y

    def inverse_many(self, x: np.ndarray) -> np.ndarray:
        _require_int64(self, np.abs(x.astype(float)), "an inverse")
        return -x

    def word_length_many(self, x: np.ndarray) -> np.ndarray:
        _require_int64(self, np.abs(x.astype(float)).sum(axis=1), "a word length")
        return np.abs(x).sum(axis=1)


class Cyclic(Group):
    """Z/n with addition mod n and generators +-1."""

    is_finite = True

    def __init__(self, modulus: int) -> None:
        if not 1 <= modulus <= 2**62:
            raise ValueError("cyclic modulus must be in [1, 2**62]")
        self.modulus = self._modulus = modulus
        self.order = modulus
        self.coord_len = 1
        self.name = f"Z/{modulus}"
        if modulus == 1:
            self._gens: tuple[Point, ...] = ()
        elif modulus == 2:
            self._gens = ((1,),)
        else:
            self._gens = ((1,), (modulus - 1,))

    def _reduce_many(self, x: np.ndarray) -> np.ndarray:
        return x % self.modulus

    def _product_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x + y

    def inverse_many(self, x: np.ndarray) -> np.ndarray:
        return -x % self.modulus

    def word_length_many(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(x[:, 0], self.modulus - x[:, 0])


class _HeisenbergLaw:
    """Shared multiplication law (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')."""

    coord_len = 3

    def _product_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x + y
        out[:, 2] += x[:, 0] * y[:, 1]
        return out

    def inverse_many(self, x: np.ndarray) -> np.ndarray:
        # Solve (a,b,c)(a',b',c') = identity: a' = -a, b' = -b, c' = ab - c.
        if not self.is_finite:
            a = np.abs(x.astype(float))
            _require_int64(self, a[:, 0] * a[:, 1] + a[:, 2], "an inverse")
        out = -x
        out[:, 2] = x[:, 0] * x[:, 1] - x[:, 2]
        return self._reduce_many(out)

    def _ball_bounds(self, radius: int) -> tuple[int, ...]:
        # A word with k letters (+-1,0,0) changes c by at most k at each of its
        # other letters, so |c| <= k (radius - k) <= radius**2 / 4.
        return (radius, radius, radius * radius // 4)


class DiscreteHeisenberg(_HeisenbergLaw, Group):
    """Integer Heisenberg group H3(Z), generators (+-1,0,0) and (0,+-1,0)."""

    name = "H3(Z)"
    _gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def word_length_many(self, x: np.ndarray) -> np.ndarray:
        a = np.abs(x.astype(float))
        _require_int64(self, a[:, 0] * a[:, 1] + a.sum(axis=1), "a word length")
        return _heisenberg_length(x[:, 0], x[:, 1], x[:, 2])


class HeisenbergMod(_HeisenbergLaw, Group):
    """Heisenberg group over Z/p for prime p < 2**31; p^3 elements."""

    is_finite = True

    def __init__(self, prime: int) -> None:
        # Below 2**31 the centre of a product of canonical points, at most p^2 - 1, fits in int64.
        if not (prime < 2**31 and _is_prime(prime)):
            raise ValueError(f"H3(Z/p) needs a prime modulus below 2**31, got {prime}")
        self.prime = self._modulus = prime
        self.order = prime**3
        self.name = f"H3(Z/{prime})"
        gens = [(1, 0, 0), (prime - 1, 0, 0), (0, 1, 0), (0, prime - 1, 0)]
        self._gens = tuple(dict.fromkeys(gens))

    def _reduce_many(self, x: np.ndarray) -> np.ndarray:
        return x % self.prime

    def word_length_many(self, x: np.ndarray) -> np.ndarray:
        """The least H3(Z) length over the lifts of each point.

        Reduction mod p maps the generators of H3(Z) onto these, so a word of
        length n for a point here is one for some lift.  The lifts that can
        be shortest have A in {a, a - p}, B in {b, b - p}, and C the residue
        of c nearest [lo, hi] = [min(0, AB), max(0, AB)] from either side,
        since the H3(Z) length is |A| + |B| on that interval and grows off it.
        All 8 lifts of every point are evaluated at once; with p < 2**31
        they stay inside the int64 range of :func:`_heisenberg_length`.
        """
        p = self.prime
        a, b, c = x.T
        lift_a, lift_b = np.stack([a, a - p])[:, None, None], np.stack([b, b - p])[None, :, None]
        ab = lift_a * lift_b
        lo, hi = np.minimum(ab, 0), np.maximum(ab, 0)
        lift_c = np.concatenate([hi - (hi - c) % p, lo + (c - lo) % p], axis=2)
        return _heisenberg_length(lift_a, lift_b, lift_c).min(axis=(0, 1, 2))


_GROUP_PATTERNS = (
    (re.compile(r"^Z$"), lambda m: IntegerLattice(1)),
    (re.compile(r"^Z\^(\d+)$"), lambda m: IntegerLattice(int(m.group(1)))),
    (re.compile(r"^Z/(\d+)$"), lambda m: Cyclic(int(m.group(1)))),
    (re.compile(r"^H3\(Z\)$"), lambda m: DiscreteHeisenberg()),
    (re.compile(r"^H3\(Z/(\d+)\)$"), lambda m: HeisenbergMod(int(m.group(1)))),
)


def parse_group(name: str) -> Group:
    """Parse a short group string: "Z^2", "H3(Z)", "Z/5", "H3(Z/3)"."""
    if not isinstance(name, str):
        raise ValueError(f"group descriptor must be a string, got {name!r}")
    text = name.strip()
    for pattern, make in _GROUP_PATTERNS:
        m = pattern.match(text)
        if m:
            return make(m)
    raise ValueError(f"unrecognized group descriptor {name!r}")
