"""Group arithmetic: laws, word metric, ball enumeration."""

import copy
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convdom import Cyclic, DiscreteHeisenberg, HeisenbergMod, IntegerLattice, parse_group


def bfs_lengths(group, radius):
    """Independent word metric: {point: length} for all products of at most `radius` generators.

    A breadth-first search over the group law, for checking the closed forms.
    """
    lengths = {group.identity: 0}
    current = {group.identity}
    for k in range(1, radius + 1):
        current = {group.multiply(p, g) for p in current for g in group.generators()} - lengths.keys()
        lengths.update(dict.fromkeys(current, k))
    return lengths


def products_oracle(group, radius):
    """Independent ball oracle: all products of at most `radius` generators."""
    return set(bfs_lengths(group, radius))


def in_ball_order(lengths, radius):
    """The points of `lengths` within `radius`, ordered by (length, coords)."""
    return sorted((p for p, n in lengths.items() if n <= radius), key=lambda p: (lengths[p], p))


def closed_form_lengths(group, points):
    return dict(zip(points, group.word_length_many(group.canonical_many(points)).tolist()))


def l1_ball_count(d, r):
    """Closed-form lattice ball count: sum_k 2^k C(d,k) C(r,k)."""
    return sum(2**k * math.comb(d, k) * math.comb(r, k) for k in range(0, min(d, r) + 1))


FINITE_GROUPS = [Cyclic(1), Cyclic(2), Cyclic(5), Cyclic(6), HeisenbergMod(2), HeisenbergMod(3)]
INFINITE_GROUPS = [IntegerLattice(1), IntegerLattice(2), IntegerLattice(3), DiscreteHeisenberg()]


@pytest.mark.parametrize("group", FINITE_GROUPS, ids=str)
def test_finite_group_axioms_exhaustive(group):
    elements = group.ball()
    assert len(elements) == group.order
    assert len(set(elements)) == group.order
    e = group.identity
    for x in elements:
        assert group.multiply(e, x) == x
        assert group.multiply(x, e) == x
        assert group.multiply(x, group.inverse(x)) == e
    for x, y, z in itertools.product(elements, repeat=3):
        assert group.multiply(group.multiply(x, y), z) == group.multiply(x, group.multiply(y, z))


@pytest.mark.parametrize("group", INFINITE_GROUPS, ids=str)
def test_infinite_group_axioms_sampled(group):
    import numpy as np

    rng = np.random.default_rng(0)
    points = group.ball(4)
    e = group.identity
    for _ in range(1000):
        x, y, z = (points[int(i)] for i in rng.integers(len(points), size=3))
        assert group.multiply(group.multiply(x, y), z) == group.multiply(x, group.multiply(y, z))
        assert group.multiply(x, group.inverse(x)) == e
        assert group.multiply(e, x) == x


@pytest.mark.parametrize("group", FINITE_GROUPS + INFINITE_GROUPS, ids=str)
def test_word_metric_properties(group):
    import numpy as np

    rng = np.random.default_rng(1)
    points = group.ball() if group.is_finite else group.ball(4)
    assert group.word_length(group.identity) == 0
    for _ in range(300):
        x, y = (points[int(i)] for i in rng.integers(len(points), size=2))
        lx, ly = group.word_length(x), group.word_length(y)
        assert group.word_length(group.multiply(x, y)) <= lx + ly
        assert group.word_length(group.inverse(x)) == lx
        if x != group.identity:
            assert lx > 0


def test_lattice_examples():
    z2 = IntegerLattice(2)
    assert z2.multiply((1, 2), (3, 4)) == (4, 6)
    assert z2.inverse((1, -3)) == (-1, 3)
    assert z2.word_length((2, -1)) == 3
    z1 = IntegerLattice(1)
    assert z1.ball(2) == [(0,), (-1,), (1,), (-2,), (2,)]
    assert len(z2.ball(1)) == 5


def test_lattice_ball_matches_closed_form():
    for d in (1, 2, 3):
        group = IntegerLattice(d)
        sizes = [len(group.ball(r)) for r in range(6)]
        assert sizes == [l1_ball_count(d, r) for r in range(6)]
        assert sizes == sorted(sizes)


def test_heisenberg_multiplication_and_inverse():
    h = DiscreteHeisenberg()
    assert h.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    for a, b, c in itertools.product(range(-2, 3), repeat=3):
        assert h.inverse((a, b, c)) == (-a, -b, a * b - c)
        assert h.multiply((a, b, c), h.inverse((a, b, c))) == (0, 0, 0)


def test_heisenberg_word_lengths():
    h = DiscreteHeisenberg()
    # The central generator is a commutator: shortest word has four letters.
    assert h.word_length((0, 0, 1)) == 4
    assert h.word_length((1, 0, 0)) == 1
    ball2 = h.ball(2)
    assert ball2 == sorted(ball2, key=lambda p: (h.word_length(p), p))
    assert set(ball2) == products_oracle(h, 2)
    assert len(ball2) == 17


def test_heisenberg_closed_form_matches_breadth_first_search():
    h = DiscreteHeisenberg()
    lengths = bfs_lengths(h, 12)
    assert closed_form_lengths(h, list(lengths)) == lengths
    for r in range(13):
        assert h.ball(r) == in_ball_order(lengths, r)


@pytest.mark.parametrize(
    "group", [HeisenbergMod(p) for p in (2, 3, 5, 7, 11, 13)] + [Cyclic(n) for n in (1, 2, 5, 6)], ids=str
)
def test_finite_closed_form_matches_breadth_first_search(group):
    lengths = bfs_lengths(group, group.order)
    assert len(lengths) == group.order
    assert closed_form_lengths(group, list(lengths)) == lengths
    assert group.ball() == in_ball_order(lengths, group.order)
    assert group.diameter() == max(lengths.values())


@pytest.mark.parametrize(
    "group", [IntegerLattice(1), IntegerLattice(2), Cyclic(7), DiscreteHeisenberg(), HeisenbergMod(3)], ids=str
)
def test_window_is_the_ball_as_a_canonical_array(group):
    for r in range(7):
        window = group.window(r)
        assert window.dtype == np.int64
        assert np.array_equal(window, group.canonical_many(group.ball(r)))  # row for row, in ball order
    if group.is_finite:
        assert np.array_equal(group.window(), group.canonical_many(group.ball()))
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(group.name)} is infinite"):
            group.window()
    with pytest.raises(ValueError, match="nonnegative"):
        group.window(-1)


def test_heisenberg_far_points():
    h = DiscreteHeisenberg()
    assert h.word_length((0, 0, 64)) == 32
    assert h.word_length((0, 0, 2**40)) == 2**22
    with pytest.raises(ValueError, match="int64"):
        h.word_length((2**31, 2**31, 0))
    with pytest.raises(ValueError, match="int64"):  # length 2**63 + 1
        h.word_length((2**63 - 1, 0, 1))


@pytest.mark.parametrize("group", [IntegerLattice(2), Cyclic(5), DiscreteHeisenberg(), HeisenbergMod(3)], ids=str)
def test_mutating_a_ball_leaves_the_next_unchanged(group):
    first = group.ball(3)
    expected = list(first)
    first.append(group.identity)
    first[0] = (7,) * group.coord_len
    assert group.ball(3) == expected
    window = group.window(3)
    window[0] = 7
    assert group.ball(3) == expected
    if group.is_finite:
        group.ball().clear()
        assert len(group.ball()) == group.order


@pytest.mark.parametrize("group", [DiscreteHeisenberg(), HeisenbergMod(3)], ids=str)
def test_ball_leaves_its_group_unchanged(group):
    before = copy.deepcopy(vars(group))
    group.ball(3)
    assert vars(group) == before


def test_ball_ordering_and_monotonicity():
    for group in (IntegerLattice(2), DiscreteHeisenberg(), HeisenbergMod(3), Cyclic(6)):
        previous = 0
        for r in range(4):
            ball = group.ball(r)
            assert set(ball) == products_oracle(group, r)
            assert len(ball) >= previous
            previous = len(ball)
            assert ball == sorted(ball, key=lambda p: (group.word_length(p), p))


def test_cyclic_examples():
    z5 = Cyclic(5)
    assert z5.multiply((3,), (4,)) == (2,)
    assert z5.inverse((2,)) == (3,)
    assert z5.word_length((3,)) == 2
    assert [z5.word_length((k,)) for k in range(5)] == [0, 1, 2, 2, 1]


def test_heisenberg_mod_p_enumeration():
    hp = HeisenbergMod(3)
    assert len(hp.ball()) == 27
    assert hp.multiply((2, 2, 2), (2, 2, 2)) == (1, 1, (2 + 2 + 4) % 3)
    with pytest.raises(ValueError):
        HeisenbergMod(4)


def test_serialization_round_trip():
    for name in ("Z", "Z^2", "Z^3", "Z/5", "H3(Z)", "H3(Z/3)"):
        group = parse_group(name)
        assert parse_group(group.name) == group
    assert parse_group("Z^1") == parse_group("Z")
    with pytest.raises(ValueError):
        parse_group("F_2")
    with pytest.raises(ValueError):
        parse_group("Z/0")


def test_dimension_mismatch_rejected():
    z2 = IntegerLattice(2)
    with pytest.raises(ValueError):
        z2.multiply((1, 2, 3), (0, 0))
    with pytest.raises(ValueError):
        z2.inverse((1,))


coords = st.integers(min_value=-30, max_value=30)


@settings(max_examples=200, deadline=None)
@given(st.tuples(coords, coords, coords), st.tuples(coords, coords, coords), st.tuples(coords, coords, coords))
def test_heisenberg_associativity_hypothesis(x, y, z):
    h = DiscreteHeisenberg()
    assert h.multiply(h.multiply(x, y), z) == h.multiply(x, h.multiply(y, z))


@settings(max_examples=200, deadline=None)
@given(st.tuples(coords, coords), st.tuples(coords, coords))
def test_lattice_word_metric_hypothesis(x, y):
    z2 = IntegerLattice(2)
    assert z2.word_length(z2.multiply(x, y)) <= z2.word_length(x) + z2.word_length(y)
    assert z2.word_length(z2.inverse(x)) == z2.word_length(x)
