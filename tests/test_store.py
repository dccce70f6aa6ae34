"""The array-backed block store against entry-by-entry references, exactly.

Kernels, covariance elements and test vectors share the store; every
operation here is compared with a per-entry loop written in the test.
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convdom import (
    CovarianceElement,
    Cyclic,
    DiscreteHeisenberg,
    Envelope,
    HeisenbergMod,
    IntegerLattice,
    Kernel,
    R_inverse,
    R_map,
    TestVector,
    W_intertwine,
    W_inverse,
    ideal_project,
    operator_norms,
    pi_regular,
    theta_embed,
)
from convdom import kernels
from convdom.covariance import matrix_function_convolve, matrix_function_norm
from convdom.generate import (
    Profile,
    _scaled_to,
    generate_kernel,
    generate_kernel_from_envelope,
    random_covariance,
    random_test_vector,
)
from convdom.suites import covariance_suite, kernel_axiom_suite

from views import as_mapping

Z2 = IntegerLattice(2)
Z7 = Cyclic(7)


def operator_norm(mat):
    """The per-block reference: the largest singular value, and for a 1x1 block the modulus as abs(complex) has it."""
    if mat.shape == (1, 1):
        return abs(complex(mat[0, 0]))
    return float(np.linalg.norm(mat, 2))


def seeded_kernel(group, dim, seed, radius=1, t_radius=2):
    kernel, _ = generate_kernel(group, dim, seed, Profile.exponential(0.5, radius, t_radius))
    return kernel


def compose_loop(k1, k2):
    """The per-entry product: sums run in left-entry order, then right-entry order."""
    g = k1.group
    by_row = {}
    for (s2, t2), m2 in k2.entries.items():
        by_row.setdefault(g.multiply(s2, t2), []).append((s2, t2, m2))
    out = {}
    for (s1, t1), m1 in k1.entries.items():
        for s2, t2, m2 in by_row.get(t1, ()):
            key = (g.multiply(s1, s2), t2)
            out[key] = out[key] + m1 @ m2 if key in out else m1 @ m2
    return {k: v for k, v in sorted(out.items()) if np.count_nonzero(v)}


def nonzero_sorted(out):
    """What a derived store keeps of a per-entry result: nonzero values in key order."""
    return {k: v for k, v in sorted(out.items()) if np.count_nonzero(v)}


def assert_entries_equal(kernel, expected):
    assert_mapping_equal(kernel.entries, expected)


def assert_mapping_equal(got, expected):
    """Same keys in the same order, and values equal bit for bit (signed zeros too)."""
    assert list(got) == list(expected)
    for key, value in expected.items():
        value = np.asarray(value, dtype=complex)
        assert got[key].shape == value.shape and got[key].tobytes() == value.tobytes(), key


# -- batched norms -------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_norms_equal_operator_norm_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    stack = rng.normal(size=(4000, dim, dim)) + 1j * rng.normal(size=(4000, dim, dim))
    expected = np.array([operator_norm(block) for block in stack])
    assert np.array_equal(operator_norms(stack), expected)
    if dim == 1:
        # The trap the 1x1 path avoids: np.abs rounds differently from abs(complex).
        assert not np.array_equal(np.abs(stack[:, 0, 0]), expected)


@pytest.mark.parametrize("group,dim", [(Z2, 1), (Z2, 2), (HeisenbergMod(3), 3)])
def test_min_envelope_equals_per_entry_max(group, dim):
    kernel = seeded_kernel(group, dim, seed=5, t_radius=3)
    best = {}
    for (s, _t), mat in kernel.entries.items():
        best[s] = max(best.get(s, 0.0), operator_norm(mat))
    assert as_mapping(kernel.min_envelope()) == best


# -- block norms only where a maximum can land ----------------------------------------


def count_normed_blocks(monkeypatch):
    """The number of blocks each later operator_norms call norms, in call order."""
    sizes = []
    real = kernels.operator_norms
    monkeypatch.setattr(kernels, "operator_norms", lambda blocks: sizes.append(len(blocks)) or real(blocks))
    return sizes


def adversarial_fibres(data, dim):
    """Fibres of d x d blocks built to defeat the cheap bounds on operator norms.

    Each block is drawn at random, copied from the block before it (a tie),
    rank one (Frobenius norm equals sigma), one nonzero column (both bounds
    equal sigma), that block times 1 + 2^-52 (norms about one ulp apart), or
    its rows reversed (equal sigma, other rounding), at scales from 1e-300 to
    1e300, on both sides of the range where squared sums are safe.  No store
    holds a zero block, so none is drawn.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kinds = st.sampled_from(["random", "tie", "rank-one", "column", "ulp", "reversed"])
    scales = st.sampled_from([1e-300, 1e-160, 1e-125, 1e-3, 1.0, 1e125, 1e160, 1e300])
    fibres = []
    for _ in range(data.draw(st.integers(1, 4), label="fibres")):
        blocks, last = [], None
        for _ in range(data.draw(st.integers(1, 6), label="length")):
            kind, scale = data.draw(kinds, label="kind"), data.draw(scales, label="scale")
            u, v = (rng.normal(size=(dim, 2)) @ [1, 1j] for _ in range(2))
            if kind == "random" or (last is None and kind in ("tie", "ulp", "reversed")):
                block = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            elif kind == "rank-one":
                block = np.outer(scale * u, v.conj())
            elif kind == "column":
                block = np.outer(scale * u, np.eye(dim)[rng.integers(dim)])
            elif kind == "tie":
                block = last
            elif kind == "ulp":
                block = last * (1 + 2.0**-52)
            else:
                block = last[::-1]
            blocks.append(block)
            last = block
        fibres.append(blocks)
    return fibres


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3, 4]))
def test_fibre_maxima_equal_per_entry_operator_norm_max_bit_for_bit(data, dim):
    fibres = adversarial_fibres(data, dim)
    group = Cyclic(1000)
    entries = {((s,), (t,)): block for s, blocks in enumerate(fibres) for t, block in enumerate(blocks)}
    kernel = Kernel(group, dim, entries)
    assert len(as_mapping(kernel)) == sum(map(len, fibres))
    best = {}
    for (s, _t), mat in kernel.entries.items():
        best[s] = max(best.get(s, 0.0), operator_norm(mat))
    starts, sups = kernels._fibre_sups(kernel)
    assert dict(zip(map(tuple, kernel.arrays[0][starts].tolist()), sups.tolist())) == best
    assert kernel.max_block_difference(Kernel.zero(group, dim)) == max(best.values())


def test_fibre_maxima_below_the_range_of_safe_squares():
    # The squared coefficients round to subnormals, so b's column bound (2 ulp)
    # reads above a's Frobenius bound (1 ulp), though a has the larger norm.
    a = np.array([[2.5e-162, 0.0], [0.0, 0.0]])
    b = np.array([[1.6e-162, 0.0], [1.6e-162, 0.0]])
    assert operator_norm(a) > operator_norm(b)
    kernel = Kernel(IntegerLattice(1), 2, {((0,), (0,)): a, ((0,), (1,)): b})
    assert as_mapping(kernel.min_envelope()) == {(0,): operator_norm(a)}


def test_min_envelope_norms_fewer_blocks_than_it_holds(monkeypatch):
    # Each fibre of a generated kernel ties at its profile value; a product's fibres do not.
    kernel = seeded_kernel(Z2, 2, seed=7, t_radius=3).compose(seeded_kernel(Z2, 2, seed=8, t_radius=3))
    sizes = count_normed_blocks(monkeypatch)
    envelope = kernel.min_envelope()
    assert 0 < sum(sizes) < len(as_mapping(kernel))
    best = {}
    for (s, _t), mat in kernel.entries.items():
        best[s] = max(best.get(s, 0.0), operator_norm(mat))
    assert as_mapping(envelope) == best


# -- constructor normalisation -----------------------------------------------------------


def test_duplicate_keys_sum_in_input_order():
    a, b, c = (np.array([[v]]) for v in (1e16, -1e16, 1.0))
    assert (a + b) + c != a + (b + c)
    # (1,), (8,) and (15,) are one point of Z/7.
    kernel = Kernel(Z7, 1, {((1,), (0,)): a, ((8,), (0,)): b, ((15,), (7,)): c})
    assert_entries_equal(kernel, {((1,), (0,)): (a + b) + c})
    # In this order the sum cancels: (c + a) + b is 0.0, and a zero sum is dropped.
    assert ((c + a) + b).item() == 0.0
    reordered = Kernel(Z7, 1, {((15,), (7,)): c, ((1,), (0,)): a, ((8,), (0,)): b})
    assert_entries_equal(reordered, {})


def test_zero_blocks_dropped_where_they_were():
    one = np.array([[1.0 + 2.0j]])
    zero = np.zeros((1, 1))
    # A zero input is summed like any other, and its zero sum is dropped.
    kernel = Kernel(Z7, 1, {((2,), (1,)): one, ((3,), (1,)): zero})
    assert list(as_mapping(kernel)) == [((2,), (1,))]
    # Its key is read like any other: a malformed one is refused.
    with pytest.raises(ValueError):
        Kernel(Z7, 1, {((2,), (1,)): one, ("not", "a point"): zero})
    # A sum of inputs that cancels is dropped by the constructor, as derived kernels drop theirs.
    cancelled = Kernel(Z7, 1, {((2,), (1,)): one, ((9,), (1,)): -one})
    assert list(as_mapping(cancelled)) == []
    assert list(as_mapping(kernel - kernel)) == []
    assert list(as_mapping(kernel.scale(0.0))) == []


def test_constructor_rejects_bad_keys_and_shapes():
    with pytest.raises(ValueError, match="coordinates"):
        Kernel(Z2, 1, {((1,), (0, 0)): np.ones((1, 1))})
    with pytest.raises(ValueError, match="shape"):
        Kernel(Z2, 2, {((1, 0), (0, 0)): np.ones((2, 2)), ((0, 0), (0, 0)): np.ones((1, 2))})


Z1 = IntegerLattice(1)


@pytest.mark.parametrize(
    "make,key",
    [
        (lambda: Kernel(Z1, 1, {(1, 2): np.eye(1)}), "key (1, 2): Z: point 1 is not a sequence of integers"),
        (lambda: Kernel(Z1, 1, {((1.7,), (0,)): np.eye(1)}), "key ((1.7,), (0,)): Z: point (1.7,) is not"),
        (lambda: Kernel(Z1, 1, {((1,), (0,), (0,)): np.eye(1)}), "key ((1,), (0,), (0,)): not a pair of points"),
        (lambda: CovarianceElement(Z7, 1, {((0,), (2.0,)): np.eye(1)}), "key ((0,), (2.0,))"),
        (lambda: TestVector(Z1, 1, {1: [1.0]}), "key 1: Z: point 1 is not a sequence of integers"),
        (lambda: TestVector(Z1, 1, {(2.5,): [1.0]}), "key (2.5,)"),
        (lambda: TestVector(Z1, 1, {((1,), 2): [1.0]}, doubled=True), "key ((1,), 2)"),
        (lambda: Envelope(Z1, {1: 0.5}), "key 1: Z: point 1 is not a sequence of integers"),
        (lambda: Envelope(Z2, {(1, 2.0): 0.5}), "key (1, 2.0)"),
        (lambda: Envelope(Z2, {(1, 2**64): 0.5}), f"key (1, {2**64}): Z^2: point (1, {2**64}) has a coordinate outside"),
        (lambda: Kernel(Z1, 1, {((True,), (0,)): np.eye(1)}), "key ((True,), (0,)): Z: point (True,) is not a sequence"),
        # numpy reads a boolean beside integers as an integer: the fast path of whole-array keys.
        (lambda: Kernel(Z1, 1, {((1,), (True,)): np.eye(1)}), "key ((1,), (True,)): Z: point (True,) is not a sequence"),
        (lambda: Kernel(Z1, 1, {((1,), (np.True_,)): np.eye(1)}), f"key ((1,), ({np.True_!r},)): Z: point"),
        (lambda: Envelope(Z2, {(1, False): 0.5}), "key (1, False): Z^2: point (1, False) is not a sequence"),
    ],
    ids=[
        "kernel-int-points", "kernel-fraction", "kernel-triple", "covariance-float", "vector-int", "vector-fraction",
        "doubled-int-point", "envelope-int", "envelope-float", "envelope-past-int64",
        "kernel-bool", "kernel-bool-beside-int", "kernel-numpy-bool", "envelope-bool",
    ],
)
def test_mapping_constructors_refuse_malformed_keys_naming_them(make, key):
    """Not a point, or a coordinate that is not an integer: once a TypeError, or a key truncated to (1,).

    A boolean is not an integer coordinate, though Python and numpy read it as 0 or 1.
    """
    with pytest.raises(ValueError, match=re.escape(key)):
        make()


def test_integer_coordinates_of_any_integer_type_are_points():
    assert Envelope(Z1, {(np.int32(3),): 0.5}).arrays[0].tolist() == [[3]]
    assert Kernel(Z2, 1, {((np.int64(1), 0), (0, 0)): np.eye(1)}).arrays[0].tolist() == [[1, 0]]
    assert Kernel(Z7, 1, {((np.uint64(9),), (0,)): np.eye(1)}).arrays[0].tolist() == [[2]]
    assert Z2.canonical((np.uint8(1), 2)) == (1, 2)
    with pytest.raises(ValueError, match=re.escape("Z^2: point (1.0, 2) is not a sequence of integers")):
        Z2.canonical((1.0, 2))
    with pytest.raises(ValueError, match="Z: point 3 is not a sequence of integers"):
        Z1.multiply(3, (1,))
    # A boolean is not an integer coordinate, as in the file formats.
    with pytest.raises(ValueError, match=re.escape("Z: point (True,) is not a sequence of integers")):
        Z1.canonical((True,))
    with pytest.raises(ValueError, match=re.escape("Z: point (True,) is not a sequence of integers")):
        Z1.multiply((True,), (False,))


def zero_producing_stores(kind):
    """Stores of one class from every path that can form a zero value, each with a live row beside it.

    On Z/7, 2 and 9 (and 3 and 10) are one point: a Mapping spelling that
    cancels, and a zero input at a live key.
    """
    m = np.array([[1 + 2j, -3j], [0.5, 2 - 1j]])
    zero, eye = np.zeros((2, 2)), np.eye(2)
    if kind == "Envelope":
        tiny = Envelope(Z7, {(1,): 1e-200})
        return [
            Envelope(Z7, {(2,): 0.5, (9,): 0.0, (3,): 0.0}),
            Envelope(Z7, {(2,): 0.5}).cap(0.0),
            tiny.convolve(tiny),  # 1e-400 underflows to 0.0
        ]
    if kind == "TestVector":
        v = m[0]
        vec = TestVector(Z7, 2, {(2,): v, (9,): -v, (3,): v, (10,): zero[0]})
        return [vec, vec.scale(0.0), vec - vec]
    cls = Kernel if kind == "Kernel" else CovarianceElement
    store = cls(Z7, 2, {((2,), (1,)): m, ((9,), (1,)): -m, ((3,), (0,)): m, ((10,), (7,)): zero})
    stores = [store, store.scale(0.0), store - store]
    if cls is Kernel:
        # (1, 0) gets m from the left entry at t = 0 and -m from the one at t = 1.
        left = Kernel(Z7, 2, {((1,), (0,)): m, ((0,), (1,)): -m, ((2,), (3,)): m})
        right = Kernel(Z7, 2, {((0,), (0,)): eye, ((1,), (0,)): eye, ((0,), (3,)): eye})
        kernel = Kernel(Z7, 2, {((0,), (0,)): m, ((2,), (1,)): m})
        stores += [left.compose(right), ideal_project(kernel, kernel.min_envelope().restrict(0))]
    else:
        # (3, 0) gets m from y = 0 and -m from y = 1.
        f = CovarianceElement(Z7, 2, {((0,), (0,)): eye, ((1,), (0,)): eye})
        h = CovarianceElement(Z7, 2, {((3,), (0,)): m, ((2,), (6,)): -m, ((1,), (0,)): 2 * m})
        stores.append(f.product(h))
    return stores


@pytest.mark.parametrize("kind", ["Kernel", "CovarianceElement", "TestVector", "Envelope"])
def test_no_store_holds_a_zero_value(kind):
    for store in zero_producing_stores(kind):
        *_, values = store.arrays
        assert values.any(axis=tuple(range(1, values.ndim))).all(), store


@pytest.mark.parametrize(
    "make",
    [
        lambda: Kernel(Z7, 1, {((1,), (0,)): np.ones((1, 1)), ((2, 3), (0,)): np.zeros((1, 1))}),
        lambda: CovarianceElement(Z7, 1, {((1,), (0,)): np.ones((1, 1)), ((2, 3), (0,)): np.zeros((1, 1))}),
        lambda: TestVector(Z7, 1, {(1,): np.ones(1), (2, 3): np.zeros(1)}),
        lambda: Envelope(Z7, {(1,): 0.5, (2, 3): 0.0}),
    ],
    ids=["Kernel", "CovarianceElement", "TestVector", "Envelope"],
)
def test_zero_input_at_a_malformed_point_is_refused(make):
    with pytest.raises(ValueError, match=re.escape("point (2, 3) has 2 coordinates")):
        make()


def test_rows_sort_like_tuples_at_any_coordinate_range():
    big = 2**40
    keys = [((big, -big), (0, 1)), ((-big, big), (5, 5)), ((-big, big), (-5, 5)), ((0, 0), (big, 0))]
    kernel = Kernel(Z2, 1, {key: np.array([[k + 1.0]]) for k, key in enumerate(keys)})
    assert list(as_mapping(kernel)) == sorted(keys)
    twice = kernel.involution().involution()
    assert list(as_mapping(twice)) == sorted(keys)
    assert twice.max_block_difference(kernel) == 0.0


def test_rows_sort_like_tuples_when_a_column_spans_past_int64():
    one = np.eye(1)
    keys = [((2**62, 0), (0, 0)), ((-(2**62), 1), (0, 0)), ((-(2**62), 0), (0, 0))]
    kernel = Kernel(Z2, 1, {key: one * (k + 1) for k, key in enumerate(keys)})
    assert list(as_mapping(kernel)) == sorted(keys)
    assert [kernel.entries[key][0, 0] for key in keys] == [1, 2, 3]
    line = Kernel(IntegerLattice(1), 1, {((p,), (0,)): one for p in (2**62, -(2**62), 0)})
    assert list(as_mapping(line)) == [((-(2**62),), (0,)), ((0,), (0,)), ((2**62,), (0,))]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_row_codes_equal_the_mixed_radix_formula(data):
    """Codes of int64 rows anywhere in range: the mixed-radix code when the spans'
    product is below 2**62, else the rank among the distinct rows (np.unique)."""
    width = data.draw(st.integers(1, 3), label="width")
    columns = []
    for _ in range(width):
        span = data.draw(st.integers(1, 2 ** data.draw(st.integers(0, 64))), label="span")
        low = data.draw(st.integers(-(2**63), 2**63 - span), label="low")
        columns.append(data.draw(st.lists(st.integers(low, low + span - 1), min_size=1, max_size=12), label="column"))
    n = min(map(len, columns))
    rows = [tuple(c[r] for c in columns) for r in range(n)]
    lows = [min(c[:n]) for c in columns]
    spans = [max(c[:n]) - lo + 1 for c, lo in zip(columns, lows)]
    if math.prod(spans) < 2**62:
        expected = [sum((v - lo) * math.prod(spans[k + 1 :]) for k, (v, lo) in enumerate(zip(row, lows))) for row in rows]
    else:
        expected = [sorted(set(rows)).index(row) for row in rows]
    arr = np.array(rows, dtype=np.int64).reshape(n, width)
    cut = data.draw(st.integers(0, n), label="cut")
    assert [c.tolist() for c in kernels._row_codes(arr[:cut], arr[cut:])] == [expected[:cut], expected[cut:]]
    # A tuple key reads its arrays' columns side by side, as one wide row.
    split = data.draw(st.integers(1, width), label="split")
    (codes,) = kernels._row_codes((arr[:, :split], arr[:, split:]) if split < width else (arr,))
    assert codes.tolist() == expected


@pytest.mark.parametrize(
    "low,high",
    [(2**62 - 5, 2**62 + 5), (-(2**62) - 5, -(2**62) + 5), (2**63 - 9, 2**63 - 1), (-(2**63), -(2**63) + 9)],
    ids=str,
)
def test_row_codes_near_the_ends_of_int64(low, high):
    """Columns far out whose spans stay small are coded without wrapping."""
    values = np.arange(low, high + 1, dtype=np.int64)
    rows = np.stack([values, values[::-1]], axis=1)
    (codes,) = kernels._row_codes(rows)
    span = high - low + 1
    assert codes.tolist() == [(a - low) * span + (b - low) for a, b in rows.tolist()]


def test_row_codes_of_rows_spanning_2_62_rank_the_distinct_rows():
    """A product of spans of exactly 2**62 takes the np.unique ranks; empty keys get empty codes."""
    rows = np.array([[2**31 - 1, 0], [0, 2**31 - 1], [0, 0], [2**31 - 1, 0]], dtype=np.int64)
    assert [c.tolist() for c in kernels._row_codes(rows[:2], rows[2:])] == [[2, 1], [0, 2]]
    assert [c.tolist() for c in kernels._row_codes(rows[:0], rows[:0])] == [[], []]


# -- operations against their per-entry definitions ------------------------------------------


@pytest.mark.parametrize(
    "group,dim", [(Z2, 2), (Z7, 3), (DiscreteHeisenberg(), 2), (HeisenbergMod(3), 1)], ids=str
)
def test_compose_equals_per_entry_loop_bit_for_bit(group, dim):
    k1 = seeded_kernel(group, dim, seed=11)
    k2 = seeded_kernel(group, dim, seed=12)
    assert_entries_equal(k1.compose(k2), compose_loop(k1, k2))
    k12 = k1 + k2
    assert_entries_equal(k12.compose(k12), compose_loop(k12, k12))


def test_compose_equals_per_entry_loop_on_skewed_and_non_finite_terms():
    """Over Z at d = 2: 40 terms land on (0, 0) beside keys with one term; other
    keys sum signed zeros, NaN and infinities, and one cancels to zero."""
    line = IntegerLattice(1)
    rng = np.random.default_rng(3)
    left, right = {}, {}

    def meet(x, y, a, b):
        """A left entry with row x and column y, and a right entry with row y and column 0."""
        left[(x - y,), (y,)], right[(y,), (0,)] = a, b

    for k in range(40):
        meet(0, -k, *(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))))
    for k in range(5):
        meet(100 + k, 50 + k, *(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))))
    signed = np.array([[-0.0, 1.0], [-0.0, -0.0]], dtype=complex)
    meet(300, 10, signed, signed)
    meet(300, 11, signed, -signed)
    meet(400, 20, np.array([[np.inf, 0.0], [1.0, -0.0]]), np.array([[0.0, 1.0], [np.nan, 2.0]]))
    meet(400, 21, np.array([[np.inf, 1j], [0.0, -np.inf]]), np.eye(2))
    m = np.array([[1.0 + 2j, -3j], [0.5, 2.0 - 1j]])
    meet(500, 30, np.eye(2), m)
    meet(500, 31, np.eye(2), -m)
    k1, k2 = Kernel(line, 2, left), Kernel(line, 2, right)
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN on purpose
        expected, got = compose_loop(k1, k2), k1.compose(k2)
    assert ((0,), (0,)) in expected and ((400,), (0,)) in expected and ((500,), (0,)) not in expected
    assert_entries_equal(got, expected)


def test_compose_holds_about_one_block_product_per_key():
    """A Z^2 kernel at d = 2 composed with a dense random kernel on the window of
    radius 8: 273,325 block products summed into 32,045 keys.  The products alone
    take 16.7 MiB; the traced peak stays below twice that."""
    k1 = seeded_kernel(Z2, 2, seed=31, radius=2, t_radius=12)
    pts = Z2.window(8)
    rng = np.random.default_rng(32)
    n = 2 * len(pts)
    k2 = Kernel.from_dense(Z2, 2, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), pts)
    (_, t1), (s2, t2) = k1.arrays[:2], k2.arrays[:2]
    i, _ = kernels._join(*kernels._row_codes(t1, Z2.multiply_many(s2, t2)))
    product_bytes = len(i) * 4 * 16
    assert (len(i), len(k1.compose(k2).arrays[2])) == (273325, 32045)
    tracemalloc.start()
    try:
        k1.compose(k2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * product_bytes


def apply_loop(kernel, vec):
    """T_K in the first variable, v(y, *rest) -> sum_y K(x, y) v(y, *rest), summed in (kernel entry, vector entry) order."""
    g, vm = kernel.group, as_mapping(vec)
    out = {}
    for (s, t), mat in kernel.entries.items():
        for key, val in vm.items():
            y, rest = (key[0], key[1:]) if vec.doubled else (key, ())
            if y == t:
                x = g.multiply(s, t)
                k = (x, *rest) if vec.doubled else x
                out[k] = out[k] + mat @ val if k in out else mat @ val
    return nonzero_sorted(out)


@pytest.mark.parametrize("group,dim", [(Z7, 1), (HeisenbergMod(3), 2), (Z2, 3)], ids=str)
def test_apply_equals_per_entry_loop_on_single_and_doubled_vectors(group, dim):
    kernel = seeded_kernel(group, dim, seed=41)
    for doubled in (False, True):
        vec = random_test_vector(group, dim, 42, radius=2, doubled=doubled)
        assert_mapping_equal(as_mapping(kernel.apply(vec)), apply_loop(kernel, vec))


def line_kernel(values, dim=1):
    """A kernel on Z with a block at each (s, 0): the given value at its top left, 0.25 elsewhere."""
    blocks = {}
    for s, v in values.items():
        blocks[(s,), (0,)] = np.full((dim, dim), 0.25, dtype=complex)
        blocks[(s,), (0,)][0, 0] = v
    return Kernel(IntegerLattice(1), dim, blocks)


def reference_norm(mat):
    """operator_norm of a finite block; otherwise inf if a part is infinite and NaN if not, as hypot has it."""
    if np.isfinite(mat).all():
        return operator_norm(mat)
    return math.inf if np.isinf(mat).any() else math.nan


def block_difference_loop(a, b):
    """Max over the keys of either kernel of the norm of a(k) - b(k), NaN norms skipped."""
    zero = np.zeros((a.dim, a.dim), dtype=complex)
    keys = set(a.entries) | set(b.entries)
    norms = [reference_norm(a.entries.get(k, zero) - b.entries.get(k, zero)) for k in keys]
    return max((n for n in norms if not math.isnan(n)), default=0.0)


NON_FINITE_PAIRS = {
    "nan-block": lambda dim: (line_kernel({1: complex(np.nan, 1.0), 2: 1 + 2j}, dim), line_kernel({2: 0.5 - 1j, 3: 1j}, dim)),
    "inf-left": lambda dim: (line_kernel({1: complex(np.inf, 0.0), 2: 1 + 2j}, dim), line_kernel({2: 0.5 - 1j}, dim)),
    "inf-right": lambda dim: (line_kernel({2: 1 + 2j}, dim), line_kernel({1: complex(np.inf, -np.inf), 2: 0.5 - 1j}, dim)),
    "inf-and-nan": lambda dim: (line_kernel({1: complex(np.inf, np.nan)}, dim), line_kernel({1: 1.0, 2: 1j}, dim)),
}


@pytest.mark.parametrize(
    "make",
    [
        lambda: (seeded_kernel(Z2, 2, seed=7, t_radius=3), seeded_kernel(Z2, 2, seed=8, radius=2)),
        lambda: (Kernel.zero(Z2, 2), seeded_kernel(Z2, 2, seed=8)),
        *(lambda make=make, dim=dim: make(dim) for make in NON_FINITE_PAIRS.values() for dim in (1, 2, 3)),
    ],
    ids=["keys-on-one-side", "empty-left", *(name + f"-d{dim}" * (dim > 1) for name in NON_FINITE_PAIRS for dim in (1, 2, 3))],
)
def test_max_block_difference_equals_per_key_loop(make):
    a, b = make()
    assert a.max_block_difference(b) == block_difference_loop(a, b)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", list(NON_FINITE_PAIRS))
def test_min_envelope_of_non_finite_blocks_follows_the_hypot_rule(name, dim):
    # A NaN fibre maximum drops out of the envelope; an infinite one stays and makes the norm inf.
    for kernel in NON_FINITE_PAIRS[name](dim):
        best = {}
        for (s, _t), mat in kernel.entries.items():
            best[s] = np.fmax(best.get(s, 0.0), reference_norm(mat))
        expected = {s: v for s, v in best.items() if v > 0.0}
        assert as_mapping(kernel.min_envelope()) == expected
        assert kernel.envelope_norm() == math.fsum(expected.values())


# (store from {s: value}, its norm) for each of the three store classes.
STORE_CLASSES = {
    "Kernel": (line_kernel, Kernel.envelope_norm),
    "TestVector": (lambda values: TestVector(IntegerLattice(1), 1, {(s,): [v] for s, v in values.items()}), TestVector.l2_norm),
    "CovarianceElement": (
        lambda values: CovarianceElement(Cyclic(3), 1, {((s,), (0,)): [[v]] for s, v in values.items()}),
        CovarianceElement.l1_norm,
    ),
}


@pytest.mark.parametrize("make,norm", list(STORE_CLASSES.values()), ids=list(STORE_CLASSES))
def test_difference_equals_per_key_subtraction_with_infinite_blocks(make, norm):
    # b alone holds inf - inf j at s = 1: the difference there is -inf + inf j, not NaN.
    a, b = make({2: 1 + 2j}), make({1: complex(np.inf, -np.inf), 2: 0.5 - 1j})
    am, bm = as_mapping(a), as_mapping(b)
    zero = np.zeros_like(next(iter(bm.values())))
    keys = sorted(set(am) | set(bm))
    expected = {k: am.get(k, zero) - bm.get(k, zero) for k in keys}
    assert_mapping_equal(as_mapping(a - b), nonzero_sorted(expected))
    assert norm(a - b) == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make,_norm", list(STORE_CLASSES.values()), ids=list(STORE_CLASSES))
def test_sum_of_opposite_infinities_is_nan_without_a_warning(make, _norm):
    a, b = make({1: complex(np.inf, 1.0), 2: 1j}), make({1: complex(-np.inf, 1.0)})
    total = as_mapping(a + b)
    assert list(total) == list(as_mapping(a))
    at_one, at_two = total.values()
    assert np.isnan(np.real(at_one)).all() and (np.imag(at_one) == 2.0).all()
    assert np.array_equal(at_two, list(as_mapping(a).values())[1])


@pytest.mark.parametrize("group,radius", [(Z7, 3), (Z2, 3)], ids=str)
def test_dense_round_trip(group, radius):
    # On Z^2 the kernel is cut to the window first, so every pair lies inside it.
    kernel = seeded_kernel(group, 2, seed=3, radius=2, t_radius=3).restrict_to_ball(radius)
    points = group.ball(radius)
    dense = kernel.to_dense(points)
    back = Kernel.from_dense(group, 2, dense, points)
    assert_entries_equal(back, dict(kernel.entries))
    assert back.max_block_difference(kernel) == 0.0
    # A point array stands for its tuple list, also one that is not canonical (Z/7 points shifted by 7).
    for array in (group.canonical_many(points), group.canonical_many(points) + 7 * group.is_finite):
        assert np.array_equal(kernel.to_dense(array), dense)
        assert_entries_equal(Kernel.from_dense(group, 2, dense, array), dict(kernel.entries))


def test_dense_section_points_must_be_distinct():
    kernel = seeded_kernel(Z2, 1, seed=4)
    points = [(0, 0), (1, 0), (0, 0)]
    with pytest.raises(ValueError, match="distinct"):
        kernel.to_dense(points)
    with pytest.raises(ValueError, match="distinct"):
        Kernel.from_dense(Z2, 1, np.eye(3), points)


# -- batched group law ------------------------------------------------------------------------


def written_law(group):
    """(product, inverse) of a group written out on tuples of Python ints."""
    if isinstance(group, IntegerLattice):
        return (lambda x, y: tuple(a + b for a, b in zip(x, y))), (lambda x: tuple(-a for a in x))
    if isinstance(group, Cyclic):
        n = group.modulus
        return (lambda x, y: ((x[0] + y[0]) % n,)), (lambda x: (-x[0] % n,))
    p = group.prime if group.is_finite else None

    def reduce(x):
        return tuple(c % p for c in x) if p else x

    return (
        lambda x, y: reduce((x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])),
        lambda x: reduce((-x[0], -x[1], x[0] * x[1] - x[2])),
    )


def bfs_depths(group, product, radius):
    """Word length of every point of the ball, as its layer in a breadth-first search."""
    depth = {group.identity: 0}
    frontier = [group.identity]
    for k in range(1, radius + 1):
        frontier = [q for q in dict.fromkeys(product(p, g) for p in frontier for g in group.generators()) if q not in depth]
        depth.update(dict.fromkeys(frontier, k))
    return depth


@pytest.mark.parametrize(
    "group,radius", [(Z2, 3), (Z7, 3), (DiscreteHeisenberg(), 3), (HeisenbergMod(3), 3)], ids=str
)
def test_batched_group_law_matches_scalar(group, radius):
    """The array law, and the one-row methods on it, against the scalar law written above."""
    product, inverse = written_law(group)
    depth = bfs_depths(group, product, radius)
    ball = group.ball(radius)
    assert ball == sorted(depth, key=lambda p: (depth[p], p))
    pairs = list(itertools.product(ball, repeat=2))
    xs = group.canonical_many([x for x, _ in pairs])
    ys = group.canonical_many([y for _, y in pairs])
    products = [product(x, y) for x, y in pairs]
    assert group.multiply_many(xs, ys).tolist() == [list(xy) for xy in products]
    assert [group.multiply(x, y) for x, y in pairs] == products
    pts = group.canonical_many(ball)
    assert group.inverse_many(pts).tolist() == [list(inverse(x)) for x in ball]
    assert [group.inverse(x) for x in ball] == [inverse(x) for x in ball]
    assert group.word_length_many(pts).tolist() == [depth[x] for x in ball]
    assert [group.word_length(x) for x in ball] == [depth[x] for x in ball]
    # A single row broadcasts against the array, on either side.
    a = group.canonical_many([ball[-1]])
    assert group.multiply_many(a, pts).tolist() == [list(product(ball[-1], x)) for x in ball]
    assert group.multiply_many(pts, a).tolist() == [list(product(x, ball[-1])) for x in ball]
    if group.is_finite:
        shifted = [tuple(c + 3 * group.order for c in x) for x in ball]
        assert group.canonical_many(shifted).tolist() == [list(x) for x in ball]
        assert [group.canonical(x) for x in shifted] == ball
    with pytest.raises(ValueError, match="shape"):
        group.canonical_many([(0,) * (group.coord_len + 1)])


def test_group_law_refuses_results_outside_int64():
    h = DiscreteHeisenberg()
    far = 2**32
    with pytest.raises(ValueError, match="int64"):
        h.multiply((far, 0, 0), (0, far, 0))  # centre 2**64
    with pytest.raises(ValueError, match="int64"):
        h.multiply_many(h.canonical_many([(far, 0, 0)]), h.canonical_many([(0, far, 0)]))
    with pytest.raises(ValueError, match="int64"):
        h.inverse((far, far, 0))
    with pytest.raises(ValueError, match="int64"):
        Z2.word_length((2**62, 2**62))  # 2**63
    with pytest.raises(ValueError, match="int64"):
        Z2.multiply((2**62, 0), (2**62, 0))
    with pytest.raises(ValueError, match="int64"):
        Z2.inverse((-(2**63), 0))
    with pytest.raises(ValueError, match=re.escape(f"point ({2**70}, 0) has a coordinate outside the int64 range")):
        Z2.canonical((2**70, 0))
    # Inside the bound the law is exact.
    assert h.multiply((2**30, 0, 0), (0, 2**30, 0)) == (2**30, 2**30, 2**60)
    assert h.inverse((2**30, 2**30, 0)) == (-(2**30), -(2**30), 2**60)
    assert Z2.word_length((2**61, -(2**60))) == 2**61 + 2**60
    # Finite groups cap their modulus, so canonical products never leave int64.
    p = 2**31 - 1
    hp = HeisenbergMod(p)
    top = (p - 1, p - 1, p - 1)
    assert hp.multiply(top, top) == written_law(hp)[0](top, top)
    assert Cyclic(2**62).multiply((2**62 - 1,), (2**62 - 1,)) == (2**62 - 2,)
    for make, modulus in ((Cyclic, 2**62 + 1), (HeisenbergMod, 2**31 + 11)):
        with pytest.raises(ValueError):
            make(modulus)


@pytest.mark.parametrize("group", [Cyclic(1), Z7, Cyclic(8), HeisenbergMod(2), HeisenbergMod(3)], ids=str)
def test_diameter_is_the_largest_word_length(group):
    assert group.diameter() == max(group.word_length(p) for p in group.ball())


def test_diameter_needs_a_finite_group():
    with pytest.raises(ValueError):
        Z2.diameter()


# -- covariance elements and test vectors on the shared store -----------------------------

H3_3 = HeisenbergMod(3)
# (group, x_radius of the covariance elements, radius of the test vectors' support)
COVARIANCE_CASES = [(Z7, None, 3), (H3_3, None, 1), (Z2, 1, 1)]


def covariance_case(group, x_radius, radius, dim=2):
    f = random_covariance(group, dim, 21, x_radius=x_radius)
    h = random_covariance(group, dim, 22, x_radius=x_radius)
    xi = random_test_vector(group, dim, 23, radius=radius, doubled=True)
    return f, h, xi


def product_loop(f, h):
    """(f * h)(x, z) = sum_y f(y, z) h(y^-1 x, y^-1 z), summed in (f entry, h entry) order."""
    g = f.group
    by_second = {}
    for (x2, y2), m2 in h.entries.items():
        by_second.setdefault(y2, []).append((x2, m2))
    out = {}
    for (y, z), m1 in f.entries.items():
        for x2, m2 in by_second.get(g.multiply(g.inverse(y), z), ()):
            key = (g.multiply(y, x2), z)
            out[key] = out[key] + m1 @ m2 if key in out else m1 @ m2
    return nonzero_sorted(out)


def pi_regular_loop(f, xi):
    """(Pi(f) xi)(x, z) = sum_y f(y, x z) xi(y^-1 x, z), summed in (f entry, xi entry) order."""
    g, xm = f.group, as_mapping(xi)
    out = {}
    for (y, w), mat in f.entries.items():
        for (x1, z), val in xm.items():
            if g.multiply(g.multiply(y, x1), z) == w:
                key = (g.multiply(y, x1), z)
                out[key] = out[key] + mat @ val if key in out else mat @ val
    return nonzero_sorted(out)


def remap_loop(mapping, key_map, value_map=lambda v: v):
    return nonzero_sorted({key_map(k): value_map(v) for k, v in mapping.items()})


@pytest.mark.parametrize("group,x_radius,radius", COVARIANCE_CASES, ids=str)
def test_covariance_operations_equal_per_entry_loops_bit_for_bit(group, x_radius, radius):
    g = group
    f, h, _xi = covariance_case(group, x_radius, radius)
    assert_mapping_equal(f.product(h).entries, product_loop(f, h))
    fh = f + h
    assert_mapping_equal(fh.product(fh).entries, product_loop(fh, fh))
    adjoint = remap_loop(
        f.entries, lambda k: (g.inverse(k[0]), g.multiply(g.inverse(k[0]), k[1])), lambda m: m.conj().T
    )
    assert_mapping_equal(f.involution().entries, adjoint)
    fibre_sup = {}
    for (x, _y), mat in f.entries.items():
        fibre_sup[x] = max(fibre_sup.get(x, 0.0), operator_norm(mat))
    assert f.l1_norm() == math.fsum(fibre_sup.values())
    zero = np.zeros((2, 2), dtype=complex)
    worst = max(operator_norm(f.entries.get(k, zero) - h.entries.get(k, zero)) for k in set(f.entries) | set(h.entries))
    assert f.max_block_difference(h) == worst


def test_product_far_out_on_Z_equals_per_entry_loop_bit_for_bit():
    """First coordinates near 2**61: only the (y, x2) that meet are multiplied.

    The far entries of h (x2 near 2**61) meet no entry of f, and y x2 for
    them would leave the int64 range.
    """
    z1, rng, far = IntegerLattice(1), np.random.default_rng(5), 2**61
    f = CovarianceElement(z1, 2, {((far + a,), (b,)): disc_draw(rng, (2, 2)) for a in range(-2, 3) for b in range(3)})
    seconds = sorted({z1.multiply(z1.inverse(y), z) for y, z in f.entries})
    near = {((a,), y2): disc_draw(rng, (2, 2)) for a in range(-2, 3) for y2 in seconds[::2]}
    h = CovarianceElement(z1, 2, {**near, **{((far + a,), (a,)): disc_draw(rng, (2, 2)) for a in range(3)}})
    with pytest.raises(ValueError, match="int64"):
        z1.multiply((far,), (far,))
    expected = product_loop(f, h)
    terms = sum(y2 == z1.multiply(z1.inverse(y), z) for y, z in f.entries for _x2, y2 in h.entries)
    assert terms > len(expected)  # some keys sum terms from several y
    assert_mapping_equal(f.product(h).entries, expected)


@pytest.mark.parametrize("group", [Z7, H3_3, Z2], ids=str)
def test_product_with_an_empty_operand_is_empty(group):
    f = random_covariance(group, 2, 3, x_radius=None if group.is_finite else 1)
    zero = CovarianceElement(group, 2, {})
    for a, b in ((f, zero), (zero, f), (zero, zero)):
        x, y, blocks = a.product(b).arrays
        assert x.shape == y.shape == (0, group.coord_len) and blocks.shape == (0, 2, 2)
        assert product_loop(a, b) == {}


def test_product_drops_sums_that_cancel():
    """Over Z/5, the key (3, 0) gets M from y = 0 and -M from y = 1; (1, 0) gets one term."""
    z5, eye = Cyclic(5), np.eye(2, dtype=complex)
    m = np.array([[1 + 2j, -3j], [0.5, 2 - 1j]])
    f = CovarianceElement(z5, 2, {((0,), (0,)): eye, ((1,), (0,)): eye})
    h = CovarianceElement(z5, 2, {((3,), (0,)): m, ((2,), (4,)): -m, ((1,), (0,)): 2 * m})
    expected = product_loop(f, h)
    assert list(expected) == [((1,), (0,))]
    assert_mapping_equal(f.product(h).entries, expected)


def test_product_holds_one_first_coordinate_of_blocks_at_a_time():
    """The product's traced peak on H3(Z/3) at d = 2: 19683 block products
    held at once would take 1.2 MiB by themselves."""
    f, h = random_covariance(H3_3, 2, 21), random_covariance(H3_3, 2, 22)
    f.product(h)
    tracemalloc.start()
    try:
        f.product(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20


@pytest.mark.parametrize("group,x_radius,radius", COVARIANCE_CASES, ids=str)
def test_coordinate_changes_equal_per_entry_remaps(group, x_radius, radius):
    g = group
    f, _h, xi = covariance_case(group, x_radius, radius)
    kernel = R_map(f)
    assert_entries_equal(kernel, remap_loop(f.entries, lambda k: (k[0], g.multiply(g.inverse(k[0]), k[1]))))
    assert_mapping_equal(R_inverse(kernel).entries, remap_loop(kernel.entries, lambda k: (k[0], g.multiply(*k))))
    assert_mapping_equal(R_inverse(kernel).entries, dict(f.entries))
    shear = remap_loop(as_mapping(xi), lambda k: (g.multiply(k[0], g.inverse(k[1])), k[1]))
    assert_mapping_equal(as_mapping(W_intertwine(xi)), shear)
    assert_mapping_equal(as_mapping(W_inverse(xi)), remap_loop(as_mapping(xi), lambda k: (g.multiply(*k), k[1])))
    assert_mapping_equal(as_mapping(W_inverse(W_intertwine(xi))), dict(as_mapping(xi)))


@pytest.mark.parametrize("group,x_radius,radius", COVARIANCE_CASES, ids=str)
def test_pi_regular_equals_per_entry_loop_bit_for_bit(group, x_radius, radius):
    f, h, xi = covariance_case(group, x_radius, radius)
    assert_mapping_equal(as_mapping(pi_regular(f, xi)), pi_regular_loop(f, xi))
    assert_mapping_equal(as_mapping(pi_regular(f + h, xi)), pi_regular_loop(f + h, xi))


def theta_loop(f):
    """theta(f)(x) holds f(x, y) at block (y, x^-1 y), positions in element order; x in entry order."""
    g, d = f.group, f.dim
    index = {p: i for i, p in enumerate(g.ball())}
    n = len(index)
    out = {}
    for (x, y), mat in f.entries.items():
        big = out.setdefault(x, np.zeros((n * d, n * d), dtype=complex))
        row, col = index[y], index[g.multiply(g.inverse(x), y)]
        big[row * d : (row + 1) * d, col * d : (col + 1) * d] = mat
    return out


def convolve_loop(a, b, group):
    """(a * b)(x) = sum_y a(y) b(y^-1 x) of mappings, pair by pair: ya outer, both in sorted order."""
    out = {}
    for ya in sorted(a):
        for yb in sorted(b):
            key = group.multiply(ya, yb)
            block = a[ya] @ b[yb]
            out[key] = out[key] + block if key in out else block
    return out


@pytest.mark.parametrize("group,x_radius", [(Z7, None), (H3_3, None), (H3_3, 1)], ids=str)
def test_theta_embed_equals_per_entry_loop_bit_for_bit(group, x_radius):
    f = random_covariance(group, 2, 31, x_radius=x_radius)
    points, _ = pair = theta_embed(f)
    assert points.dtype == np.int64 and points.tolist() == sorted(points.tolist())
    assert_mapping_equal(as_mapping(pair), theta_loop(f))


@pytest.mark.parametrize("group", [Cyclic(5), Z7, H3_3], ids=str)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_matrix_function_norm_equals_per_block_sum_bit_for_bit(group, dim):
    pair = theta_embed(random_covariance(group, dim, 37))
    tf = as_mapping(pair)
    assert matrix_function_norm(pair) == sum(operator_norm(tf[x]) for x in sorted(tf))


CONVOLVE_CASES = [(Z7, 2, None), (Cyclic(5), 3, None), (H3_3, 2, None), (H3_3, 2, 1)]


@pytest.mark.parametrize("group,dim,x_radius", CONVOLVE_CASES, ids=str)
def test_matrix_function_convolve_equals_pair_loop_bit_for_bit(group, dim, x_radius):
    f, h = (random_covariance(group, dim, seed, x_radius=x_radius) for seed in (41, 42))
    tf, th = theta_embed(f), theta_embed(h)
    conv = as_mapping(matrix_function_convolve(tf, th, group))
    assert_mapping_equal(conv, dict(sorted(convolve_loop(as_mapping(tf), as_mapping(th), group).items())))
    if x_radius is not None:  # the operands' points and the convolution's differ, and none covers the group
        assert set(as_mapping(tf)) < set(conv) and len(conv) < len(group.ball())


@pytest.mark.parametrize("group,dim", [(Z7, 2), (H3_3, 2)], ids=str)
def test_matrix_function_convolve_of_the_empty_element_and_the_unit(group, dim):
    th = theta_embed(random_covariance(group, dim, 43))
    zero, unit = theta_embed(CovarianceElement(group, dim, {})), theta_embed(CovarianceElement.unit(group, dim))
    for a, b in ((zero, th), (th, zero), (zero, zero)):
        points, blocks = matrix_function_convolve(a, b, group)
        assert points.shape == (0, group.coord_len) and blocks.shape == (0, *th[1].shape[1:])
    assert matrix_function_norm(zero) == 0.0
    thm = as_mapping(th)
    for a, b in ((unit, th), (th, unit)):
        conv = as_mapping(matrix_function_convolve(a, b, group))
        assert_mapping_equal(conv, dict(sorted(convolve_loop(as_mapping(a), as_mapping(b), group).items())))
        assert list(conv) == list(thm)
        assert all(np.array_equal(conv[x], block) for x, block in thm.items())


@pytest.mark.parametrize("group,dim", [(Z7, 2), (H3_3, 2), (Cyclic(3), 1)], ids=str)
def test_covariance_suite_embedding_checks_equal_the_mapping_loops(group, dim):
    """The suite's two embedding worst values, recomputed with theta_loop and convolve_loop on mappings."""
    seed, trials = 7, 2
    homomorphism = isometric = 0.0
    for ss in np.random.SeedSequence(seed).spawn(trials):
        seeds = ss.spawn(5)
        f, h = random_covariance(group, dim, seeds[0]), random_covariance(group, dim, seeds[1])
        nf, nh = f.l1_norm(), h.l1_norm()
        tf, tfh = theta_loop(f), theta_loop(f.product(h))
        conv = convolve_loop(tf, theta_loop(h), group)
        gaps = [float(np.linalg.norm(tfh.get(x, 0.0) - conv.get(x, 0.0), 2)) for x in sorted(set(tfh) | set(conv))]
        homomorphism = max(homomorphism, max([0.0, *gaps]) / max(1.0, nf * nh))
        norm = sum(operator_norm(tf[x]) for x in sorted(tf))
        isometric = max(isometric, abs(norm - nf) / max(1.0, nf))
    results = {r.name: r.worst for r in covariance_suite(group, dim, seed, trials)}
    assert results["embedding_homomorphism"].hex() == homomorphism.hex()
    assert results["embedding_isometric"].hex() == isometric.hex()


def test_test_vector_constructor_sums_in_input_order_and_drops_zero_inputs():
    a, b, c = (np.array([v]) for v in (1e16, -1e16, 1.0))
    # (1,), (8,) and (15,) are one point of Z/7.
    vec = TestVector(Z7, 1, {(1,): a, (8,): b, (15,): c})
    assert_mapping_equal(as_mapping(vec), {(1,): (a + b) + c})
    # In these orders the sum cancels to 0.0, and a zero sum is dropped.
    reordered = TestVector(Z7, 1, {(15,): c, (1,): a, (8,): b})
    assert ((c + a) + b).item() == 0.0 and list(as_mapping(reordered)) == []
    doubled = TestVector(Z7, 1, {((8,), (0,)): b, ((1,), (7,)): c, ((1,), (0,)): a}, doubled=True)
    assert ((b + c) + a).item() == 0.0 and list(as_mapping(doubled)) == []
    doubled = TestVector(Z7, 1, {((8,), (0,)): b, ((1,), (0,)): a, ((1,), (7,)): c}, doubled=True)
    assert_mapping_equal(as_mapping(doubled), {((1,), (0,)): (b + a) + c})
    # Zero inputs are summed like any other, and their keys read: cancelled sums and zero inputs are dropped.
    zero = np.zeros(1)
    assert list(as_mapping(TestVector(Z7, 1, {(2,): a, (9,): -a, (3,): zero}))) == []
    with pytest.raises(ValueError):
        TestVector(Z7, 1, {(2,): a, ("not", "a point"): zero})
    assert list(as_mapping(vec - vec)) == []
    with pytest.raises(ValueError, match="coordinates"):
        TestVector(Z2, 1, {(1,): a})
    with pytest.raises(ValueError, match="shape"):
        TestVector(Z2, 2, {(1, 0): np.ones(2), (0, 0): np.ones(3)})


@pytest.mark.parametrize("group,dim", [(Z7, 1), (H3_3, 2), (Z2, 3)], ids=str)
def test_test_vector_operations_equal_per_entry_loops_bit_for_bit(group, dim):
    g = group
    u = random_test_vector(group, dim, 31, radius=2)
    v = random_test_vector(group, dim, 32, radius=1)
    total = dict(as_mapping(u))
    for k, val in as_mapping(v).items():
        total[k] = total[k] + val if k in total else val
    assert_mapping_equal(as_mapping(u + v), nonzero_sorted(total))
    a = g.ball(2)[-1]
    left = remap_loop(as_mapping(u), lambda k: g.multiply(a, k))
    assert_mapping_equal(as_mapping(u.translate(a, "left")), left)
    right = remap_loop(as_mapping(u), lambda k: g.multiply(k, g.inverse(a)))
    assert_mapping_equal(as_mapping(u.translate(a, "right")), right)
    inner, um, vm = 0.0 + 0.0j, as_mapping(u), as_mapping(v)
    for k in sorted(set(um) & set(vm)):
        inner += complex(np.vdot(um[k], vm[k]))
    assert u.inner(v) == inner
    squares = [float(c) for val in as_mapping(u).values() for c in np.abs(val) ** 2]
    assert u.l2_norm() == math.sqrt(math.fsum(squares))
    for x in (u, v):
        xi = random_test_vector(group, dim, 33, radius=1, doubled=True)
        eta = random_test_vector(group, dim, 34, radius=2, doubled=True)
        inner, xm, em = 0.0 + 0.0j, as_mapping(xi), as_mapping(eta)
        for k in sorted(set(xm) & set(em)):
            inner += complex(np.vdot(xm[k], em[k]))
        assert xi.inner(eta) == inner


# -- envelopes on the same store -----------------------------------------------------------

Z5 = Cyclic(5)
ENVELOPE_GROUPS = [Z5, Z2, H3_3]


def seeded_values(group, seed, radius=2):
    """Random values of many magnitudes on a ball, so sums depend on their order; about one in five is zero."""
    rng = np.random.default_rng(seed)
    n = len(group.ball(radius))
    values = rng.uniform(size=n) * 10.0 ** rng.integers(-8, 9, size=n) * (rng.uniform(size=n) < 0.8)
    return dict(zip(group.ball(radius), values.tolist()))


def aliases(group, point, k):
    """``point`` written with each coordinate shifted by k moduli (itself on Z^2)."""
    modulus = getattr(group, "modulus", getattr(group, "prime", 0))
    return tuple(c + k * modulus for c in point)


def envelope_loop(group, values):
    """The per-point constructor: zeros dropped, keys made canonical, coinciding values max-merged."""
    cleaned = {}
    for s, v in values.items():
        v = float(v)
        if v == 0.0:
            continue
        key = group.canonical(s)
        cleaned[key] = max(v, cleaned.get(key, 0.0))
    return dict(sorted(cleaned.items()))


def assert_envelope_equal(env, expected):
    """Same points in the same order, values equal bit for bit and Python floats."""
    assert list(as_mapping(env).items()) == list(expected.items())
    assert all(type(v) is float for v in as_mapping(env).values())


@pytest.mark.parametrize("group", ENVELOPE_GROUPS, ids=str)
def test_envelope_constructor_max_merges_coinciding_keys(group):
    values = seeded_values(group, 1)
    rng = np.random.default_rng(2)
    # Each point again under other names, in shuffled order, with other values.
    mapping = dict(values)
    for k in (1, -2):
        for i in rng.permutation(len(values)):
            point = list(values)[i]
            mapping[aliases(group, point, k)] = float(rng.uniform())
    env = Envelope(group, mapping)
    assert_envelope_equal(env, envelope_loop(group, mapping))
    bad = aliases(group, group.identity, 3)
    with pytest.raises(ValueError, match=re.escape(f"envelope value at {bad!r} is negative: -0.5")):
        Envelope(group, {**mapping, bad: -0.5})


@pytest.mark.parametrize("group", ENVELOPE_GROUPS, ids=str)
def test_envelope_operations_equal_per_point_loops_bit_for_bit(group):
    g = group
    a, b = seeded_values(g, 3), seeded_values(g, 4, radius=1)
    ea, eb = Envelope(g, a), Envelope(g, b)
    a, b = envelope_loop(g, a), envelope_loop(g, b)

    out = {}
    for s, x in a.items():
        for y, w in b.items():
            key = g.multiply(s, y)
            out[key] = out.get(key, 0.0) + x * w
    assert_envelope_equal(ea.convolve(eb), envelope_loop(g, out))
    for radius in (0, 1, 2):
        assert_envelope_equal(ea.restrict(radius), {s: v for s, v in a.items() if g.word_length(s) <= radius})
    for level in (0.0, 0.3, 2.0):
        assert_envelope_equal(ea.cap(level), envelope_loop(g, {s: min(v, level) for s, v in a.items()}))
    terms = [abs(a.get(s, 0.0) - b.get(s, 0.0)) for s in sorted(set(a) | set(b))]
    assert ea.l1_distance(eb) == math.fsum(terms)
    assert ea.l1_norm() == math.fsum(a.values())


@pytest.mark.parametrize("group", ENVELOPE_GROUPS, ids=str)
def test_envelope_by_word_length_equals_bucketing_loops(group):
    g = group
    values = envelope_loop(g, seeded_values(g, 5, radius=3))
    env = Envelope(g, values)
    # The bucketing loops the decay CSV, the decay fit and the shell sums ran.
    maxima, sums = {}, {}
    for s, v in values.items():
        ell = g.word_length(s)
        if v > maxima.get(ell, 0.0):
            maxima[ell] = v
        sums[ell] = sums.get(ell, 0.0) + v
    lengths, got_maxima, got_sums = env.by_word_length()
    assert lengths.tolist() == sorted(maxima)
    assert got_maxima.tolist() == [maxima[ell] for ell in sorted(maxima)]
    assert got_sums.tolist() == [sums[ell] for ell in sorted(sums)]
    running, partial = 0.0, []
    for ell in range(max(sums) + 1):
        running += sums.get(ell, 0.0)
        partial.append(running)
    assert env.shell_partial_sums() == partial
    assert Envelope(g, {}).shell_partial_sums() == []


@pytest.mark.parametrize("group", ENVELOPE_GROUPS, ids=str)
def test_ideal_project_equals_per_entry_rescale(group):
    kernel, _ = generate_kernel(group, 2, 6, Profile.exponential(0.6, 2, 1))
    beta = kernel.min_envelope()
    at_beta = as_mapping(beta)
    for bound in (beta.restrict(1), beta.cap(0.3)):
        expected, at_bound = {}, as_mapping(bound)
        for (s, t), mat in kernel.entries.items():
            factor = at_bound.get(s, 0.0) / at_beta.get(s, 0.0)
            if factor:
                expected[(s, t)] = factor * mat
        assert_entries_equal(ideal_project(kernel, bound), nonzero_sorted(expected))


# -- the generator's rescaling and the submultiplicativity check on the stack -------------


def scaled_to_loop(mat, target):
    """The per-block rescale: norm to target, at most ten more times, then shrink by 1e-15."""
    norm = operator_norm(mat)
    if norm == 0.0:
        out = np.zeros_like(mat)
        out[0, 0] = target
        return out
    out = mat * (target / norm)
    for _ in range(10):
        norm = operator_norm(out)
        if norm <= target:
            return out
        out = out * (target / norm)
    return out * (1.0 - 1e-15)


def disc_draw(rng, shape):
    """One array uniform on the complex unit disc: its radii, then its angles."""
    radius = np.sqrt(rng.uniform(size=shape))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    return radius * np.exp(1j * angle)


def generate_loop(group, dim, seed, targets, columns):
    """One draw per (s, t) in targets-then-columns order, each rescaled on its own."""
    rng = np.random.default_rng(seed)
    entries = {}
    for s, target in targets.items():
        for t in columns:
            entries[(s, t)] = scaled_to_loop(disc_draw(rng, (dim, dim)), target)
    return Kernel(group, dim, entries)


GENERATE_CASES = [(Z2, 1), (Z2, 2), (Z2, 3), (Z7, 1), (Z7, 2), (Z7, 3), (H3_3, 1), (H3_3, 2), (H3_3, 3)]


@pytest.mark.parametrize("group,dim", GENERATE_CASES, ids=str)
def test_generated_kernels_equal_per_entry_rescale_bit_for_bit(group, dim):
    profile = Profile.polynomial(1.5, 2, t_radius=1)
    kernel, _ = generate_kernel(group, dim, 11, profile)
    in_ball_order = {s: profile.value(group.word_length(s)) for s in group.ball(profile.radius)}
    targets = {s: target for s, target in in_ball_order.items() if target > 0.0}
    expected = generate_loop(group, dim, 11, targets, group.ball(profile.t_radius))
    assert_entries_equal(kernel, expected.entries)
    envelope = Envelope(group, {s: 0.3 ** (1 + i) for i, s in enumerate(group.ball(1))})
    kernel, _ = generate_kernel_from_envelope(group, dim, 12, envelope, t_radius=1)
    assert_entries_equal(kernel, generate_loop(group, dim, 12, as_mapping(envelope), group.ball(1)).entries)


@pytest.mark.parametrize("group", [Z2, Z7, H3_3], ids=str)
@pytest.mark.parametrize(
    "profile",
    [Profile.exponential(0.5, 3, t_radius=1), Profile.polynomial(1.5, 3, t_radius=1), Profile.banded(2, t_radius=1)],
    ids=lambda p: p.kind,
)
def test_intended_envelope_equals_the_mapping_constructor(group, profile):
    # The generator builds its envelope from arrays, which must be in point order, not ball order.
    _, intended = generate_kernel(group, 1, 3, profile)
    expected = Envelope(group, {s: profile.value(group.word_length(s)) for s in group.ball(profile.radius)})
    for got, want in zip(intended.arrays, expected.arrays):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("group,dim", GENERATE_CASES, ids=str)
def test_random_covariance_and_vectors_equal_per_entry_draws(group, dim):
    x_radius = None if group.is_finite else 1
    xs = group.ball(x_radius)
    rng = np.random.default_rng(13)
    expected = {(x, y): disc_draw(rng, (dim, dim)) for x in xs for y in xs}
    assert_mapping_equal(random_covariance(group, dim, 13, x_radius=x_radius).entries, nonzero_sorted(expected))
    points = group.ball(1)
    rng = np.random.default_rng(14)
    expected = {x: disc_draw(rng, (dim,)) for x in points}
    assert_mapping_equal(as_mapping(random_test_vector(group, dim, 14, radius=1)), nonzero_sorted(expected))
    rng = np.random.default_rng(15)
    expected = {(x, z): disc_draw(rng, (dim,)) for x in points for z in points}
    assert_mapping_equal(as_mapping(random_test_vector(group, dim, 15, radius=1, doubled=True)), nonzero_sorted(expected))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scaled_to_equals_per_block_loop_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    blocks = np.array([disc_draw(rng, (dim, dim)) for _ in range(300)] + [np.zeros((dim, dim))])
    # Subnormal targets need up to ten more rescales and the final shrink;
    # targets near the largest float stay finite: no scale factor here reaches inf.
    exponents = [rng.uniform(-300, 300, 100), rng.uniform(-323.5, -315, 100), rng.uniform(300, 308, 100)]
    targets = np.concatenate([10.0 ** np.concatenate(exponents), [0.5]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = _scaled_to(blocks, targets)
        expected = np.array([scaled_to_loop(b, t) for b, t in zip(blocks, targets)])
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("group,dim", [(Z2, 1), (Z2, 2), (H3_3, 1), (Z7, 3)], ids=str)
def test_norm_submultiplicative_equals_per_entry_loop(group, dim):
    """The suite's worst value, recomputed with one norm and one envelope lookup per entry."""
    profile = Profile.exponential(rate=0.5, radius=1, t_radius=1)
    worst = 0.0
    for ss in np.random.SeedSequence(3).spawn(2):
        seeds = ss.spawn(6)
        k1, _ = generate_kernel(group, dim, seeds[0], profile)
        k2, _ = generate_kernel(group, dim, seeds[1], profile)
        n1, n2 = k1.envelope_norm(), k2.envelope_norm()
        scale = max(1.0, n1 * n2)
        k12 = k1.compose(k2)
        over = (k12.envelope_norm() - n1 * n2) / scale
        conv = as_mapping(k1.min_envelope().convolve(k2.min_envelope()))
        for (s, _t), mat in k12.entries.items():
            over = max(over, (np.linalg.norm(mat, 2) - conv.get(s, 0.0)) / scale)
        worst = max(worst, over)
    results = {r.name: r.worst for r in kernel_axiom_suite(group, dim, seed=3, trials=2)}
    assert results["norm_submultiplicative"] == worst
