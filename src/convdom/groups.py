"""Discrete group arithmetic: integer lattices, cyclic groups, Heisenberg groups.

A :class:`Group` object carries the group law, a fixed symmetric generating
set, word lengths for the induced word metric, and breadth-first ball
enumeration.  Each group states its law once, on ``(n, coord_len)`` int64
arrays of points (the ``*_many`` methods the array-backed kernel store runs
on).  The scalar methods run the same law on a one-row array and return
plain tuples of Python ints.  A result whose exact coordinates could leave
int64 raises ``ValueError`` instead of wrapping around.

Balls are the truncation windows used by every finite-section computation
downstream, so their ordering is deterministic: sorted by word length, then
lexicographically.
"""

from __future__ import annotations

import re

import numpy as np

Point = tuple[int, ...]

# Safety cap for breadth-first searches on infinite groups.
_MAX_BFS_RADIUS = 10_000

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


class Group:
    """Descriptor of a finitely generated discrete group.

    Subclasses state the group law once, on ``(n, coord_len)`` int64 arrays:
    ``_product_many``, ``inverse_many``, and ``_reduce_many`` when points
    have a canonical residue; ``word_length_many`` when the word metric has
    a closed form (otherwise it is read from the breadth-first layers).  The
    scalar methods run that law on one row.  All instances are immutable
    values; the breadth-first layer cache is internal memoization and does
    not affect observable behaviour.
    """

    name: str
    coord_len: int
    is_finite: bool = False
    order: int | None = None
    _gens: tuple[Point, ...]

    def __init__(self) -> None:
        self._gen_array = self.canonical_many(self._gens)
        # BFS layers: _layers[k] = sorted list of points at word length k.
        self._layers: list[list[Point]] = [[self.identity]]
        self._dist: dict[Point, int] = {self.identity: 0}
        self._exhausted = False

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
        """Word lengths of a canonical point array, read from the BFS layers."""
        return np.fromiter(
            (self._bfs_length(p) for p in map(tuple, x.tolist())), dtype=np.int64, count=len(x)
        )

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
        return tuple(self.multiply_many(self._row(x), self._row(y)).tolist()[0])

    def inverse(self, x: Point) -> Point:
        return tuple(self.inverse_many(self._row(x)).tolist()[0])

    def word_length(self, x: Point) -> int:
        """Length of the shortest generator word equal to ``x``."""
        return int(self.word_length_many(self._row(x))[0])

    # -- word metric ----------------------------------------------------------

    def _expand_layers(self, radius: int) -> None:
        gens = self._gen_array
        while len(self._layers) <= radius and not self._exhausted:
            frontier = np.array(self._layers[-1], dtype=np.int64)
            depth = len(self._layers)
            products = self.multiply_many(np.repeat(frontier, len(gens), axis=0), np.tile(gens, (len(frontier), 1)))
            new = set(map(tuple, products.tolist())).difference(self._dist)
            if not new:
                self._exhausted = True
                return
            layer = sorted(new)
            self._dist.update(dict.fromkeys(layer, depth))
            self._layers.append(layer)

    def _bfs_length(self, x: Point) -> int:
        r = len(self._layers) - 1
        while x not in self._dist:
            if self._exhausted:
                raise ValueError(f"{self.name}: {x!r} not generated by {self.generators()}")
            if r > _MAX_BFS_RADIUS:
                raise RuntimeError(f"{self.name}: word length search exceeded radius {r}")
            r += 1
            self._expand_layers(r)
        return self._dist[x]

    def ball(self, radius: int) -> list[Point]:
        """All points of word length <= radius, ordered by (length, coords).

        Finite groups cap the ball at the whole group.
        """
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self._expand_layers(radius)
        out: list[Point] = []
        for layer in self._layers[: radius + 1]:
            out.extend(layer)
        return out

    def elements(self) -> list[Point]:
        """Every element, in ball order.  Finite groups only."""
        if not self.is_finite:
            raise ValueError(f"{self.name} is infinite; elements() needs a finite group")
        self._expand_layers(self.order)  # the search exhausts the group before this radius
        return self.ball(len(self._layers) - 1)

    def diameter(self) -> int:
        """Largest word length in a finite group: the radius whose ball is the group."""
        self.elements()
        return len(self._layers) - 1

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
        super().__init__()

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
        self.modulus = modulus
        self.order = modulus
        self.coord_len = 1
        self.name = f"Z/{modulus}"
        if modulus == 1:
            self._gens: tuple[Point, ...] = ()
        elif modulus == 2:
            self._gens = ((1,),)
        else:
            self._gens = ((1,), (modulus - 1,))
        super().__init__()

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


class DiscreteHeisenberg(_HeisenbergLaw, Group):
    """Integer Heisenberg group H3(Z), generators (+-1,0,0) and (0,+-1,0)."""

    _gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def __init__(self) -> None:
        self.name = "H3(Z)"
        super().__init__()


class HeisenbergMod(_HeisenbergLaw, Group):
    """Heisenberg group over Z/p for prime p < 2**31; p^3 elements."""

    is_finite = True

    def __init__(self, prime: int) -> None:
        # Below 2**31 the centre of a product of canonical points, at most p^2 - 1, fits in int64.
        if not (prime < 2**31 and _is_prime(prime)):
            raise ValueError(f"H3(Z/p) needs a prime modulus below 2**31, got {prime}")
        self.prime = prime
        self.order = prime**3
        self.name = f"H3(Z/{prime})"
        gens = [(1, 0, 0), (prime - 1, 0, 0), (0, 1, 0), (0, prime - 1, 0)]
        self._gens = tuple(dict.fromkeys(gens))
        super().__init__()

    def _reduce_many(self, x: np.ndarray) -> np.ndarray:
        return x % self.prime


_GROUP_PATTERNS = (
    (re.compile(r"^Z$"), lambda m: IntegerLattice(1)),
    (re.compile(r"^Z\^(\d+)$"), lambda m: IntegerLattice(int(m.group(1)))),
    (re.compile(r"^Z/(\d+)$"), lambda m: Cyclic(int(m.group(1)))),
    (re.compile(r"^H3\(Z\)$"), lambda m: DiscreteHeisenberg()),
    (re.compile(r"^H3\(Z/(\d+)\)$"), lambda m: HeisenbergMod(int(m.group(1)))),
)


def parse_group(name: str) -> Group:
    """Parse a short group string: "Z^2", "H3(Z)", "Z/5", "H3(Z/3)"."""
    text = name.strip()
    for pattern, make in _GROUP_PATTERNS:
        m = pattern.match(text)
        if m:
            return make(m)
    raise ValueError(f"unrecognized group descriptor {name!r}")
