"""Discrete group arithmetic: integer lattices, cyclic groups, Heisenberg groups.

Group elements are plain integer tuples.  A :class:`Group` object carries the
group law, a fixed symmetric generating set, word lengths for the induced
word metric, and breadth-first ball enumeration.  Balls are the truncation
windows used by every finite-section computation downstream, so their
ordering is deterministic: sorted by word length, then lexicographically.

The ``*_many`` methods apply the same law row by row to ``(n, coord_len)``
int64 arrays of points; the array-backed kernel store runs on them.
"""

from __future__ import annotations

import re

import numpy as np

Point = tuple[int, ...]

# Safety cap for breadth-first searches on infinite groups.
_MAX_BFS_RADIUS = 10_000


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Group:
    """Descriptor of a finitely generated discrete group.

    Subclasses implement the group law on integer tuples.  All instances are
    immutable values; the breadth-first layer cache is internal memoization
    and does not affect observable behaviour.
    """

    name: str
    coord_len: int
    is_finite: bool = False
    order: int | None = None

    def __init__(self) -> None:
        # BFS layers: _layers[k] = sorted list of points at word length k.
        self._layers: list[list[Point]] = [[self.identity]]
        self._dist: dict[Point, int] = {self.identity: 0}
        self._exhausted = False

    # -- group law ----------------------------------------------------------

    @property
    def identity(self) -> Point:
        return (0,) * self.coord_len

    def generators(self) -> tuple[Point, ...]:
        raise NotImplementedError

    def _product(self, x: Point, y: Point) -> Point:
        raise NotImplementedError

    def _reduce(self, x: Point) -> Point:
        return x

    def canonical(self, x) -> Point:
        """Coerce ``x`` to a canonical point, checking coordinate arity."""
        pt = tuple(int(c) for c in x)
        if len(pt) != self.coord_len:
            raise ValueError(
                f"{self.name}: point {pt!r} has {len(pt)} coordinates, "
                f"expected {self.coord_len}"
            )
        return self._reduce(pt)

    def multiply(self, x: Point, y: Point) -> Point:
        return self._reduce(self._product(self.canonical(x), self.canonical(y)))

    def inverse(self, x: Point) -> Point:
        raise NotImplementedError

    def conjugate(self, a: Point, x: Point) -> Point:
        """a * x * a^{-1}."""
        return self.multiply(self.multiply(a, x), self.inverse(a))

    # -- batched group law on (n, coord_len) int64 arrays ------------------------

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
        return self._reduce_many(self._product_many(x, y))

    def inverse_many(self, x: np.ndarray) -> np.ndarray:
        """Row-wise inverses of a canonical point array."""
        raise NotImplementedError

    def word_length_many(self, x: np.ndarray) -> np.ndarray:
        """Word lengths of a canonical point array, read from the BFS layers."""
        return np.fromiter(
            (self._bfs_length(p) for p in map(tuple, x.tolist())), dtype=np.int64, count=len(x)
        )

    # -- word metric ----------------------------------------------------------

    def _expand_layers(self, radius: int) -> None:
        while len(self._layers) <= radius and not self._exhausted:
            frontier = self._layers[-1]
            depth = len(self._layers)
            new: set[Point] = set()
            for p in frontier:
                for g in self.generators():
                    q = self.multiply(p, g)
                    if q not in self._dist:
                        new.add(q)
            if not new:
                self._exhausted = True
                return
            layer = sorted(new)
            for q in layer:
                self._dist[q] = depth
            self._layers.append(layer)

    def word_length(self, x: Point) -> int:
        """Length of the shortest generator word equal to ``x``."""
        return self._bfs_length(self.canonical(x))

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
        r = len(self._layers) - 1
        while not self._exhausted:
            r += 1
            self._expand_layers(r)
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

    def generators(self) -> tuple[Point, ...]:
        return self._gens

    def _product(self, x: Point, y: Point) -> Point:
        return tuple(a + b for a, b in zip(x, y))

    def inverse(self, x: Point) -> Point:
        x = self.canonical(x)
        return tuple(-a for a in x)

    def word_length(self, x: Point) -> int:
        return sum(abs(a) for a in self.canonical(x))

    def _product_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x + y

    def inverse_many(self, x: np.ndarray) -> np.ndarray:
        return -x

    def word_length_many(self, x: np.ndarray) -> np.ndarray:
        return np.abs(x).sum(axis=1)


class Cyclic(Group):
    """Z/n with addition mod n and generators +-1."""

    is_finite = True

    def __init__(self, modulus: int) -> None:
        if modulus < 1:
            raise ValueError("cyclic modulus must be >= 1")
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

    def generators(self) -> tuple[Point, ...]:
        return self._gens

    def _reduce(self, x: Point) -> Point:
        return (x[0] % self.modulus,)

    def _product(self, x: Point, y: Point) -> Point:
        return (x[0] + y[0],)

    def inverse(self, x: Point) -> Point:
        x = self.canonical(x)
        return ((-x[0]) % self.modulus,)

    def word_length(self, x: Point) -> int:
        k = self.canonical(x)[0]
        return min(k, self.modulus - k)

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

    def _product(self, x: Point, y: Point) -> Point:
        return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])

    def _raw_inverse(self, x: Point) -> Point:
        # Solve (a,b,c)(a',b',c') = identity: a' = -a, b' = -b, c' = ab - c.
        return (-x[0], -x[1], x[0] * x[1] - x[2])

    def _product_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x + y
        out[:, 2] += x[:, 0] * y[:, 1]
        return out

    def inverse_many(self, x: np.ndarray) -> np.ndarray:
        out = -x
        out[:, 2] = x[:, 0] * x[:, 1] - x[:, 2]
        return self._reduce_many(out)


class DiscreteHeisenberg(_HeisenbergLaw, Group):
    """Integer Heisenberg group H3(Z), generators (+-1,0,0) and (0,+-1,0)."""

    _GENS: tuple[Point, ...] = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def __init__(self) -> None:
        self.name = "H3(Z)"
        super().__init__()

    def generators(self) -> tuple[Point, ...]:
        return self._GENS

    def inverse(self, x: Point) -> Point:
        return self._raw_inverse(self.canonical(x))


class HeisenbergMod(_HeisenbergLaw, Group):
    """Heisenberg group over Z/p for prime p; p^3 elements."""

    is_finite = True

    def __init__(self, prime: int) -> None:
        if not _is_prime(prime):
            raise ValueError(f"H3(Z/p) needs a prime modulus, got {prime}")
        self.prime = prime
        self.order = prime**3
        self.name = f"H3(Z/{prime})"
        gens = [(1, 0, 0), (prime - 1, 0, 0), (0, 1, 0), (0, prime - 1, 0)]
        self._gens = tuple(dict.fromkeys(gens))
        super().__init__()

    def generators(self) -> tuple[Point, ...]:
        return self._gens

    def _reduce(self, x: Point) -> Point:
        p = self.prime
        return (x[0] % p, x[1] % p, x[2] % p)

    def _reduce_many(self, x: np.ndarray) -> np.ndarray:
        return x % self.prime

    def inverse(self, x: Point) -> Point:
        return self._reduce(self._raw_inverse(self.canonical(x)))


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
