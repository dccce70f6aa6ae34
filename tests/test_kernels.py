"""Kernel algebra: storage, envelope, product, involution, operator action."""

import numpy as np
import pytest

from convdom import (
    Cyclic,
    DiscreteHeisenberg,
    Envelope,
    HeisenbergMod,
    IntegerLattice,
    Kernel,
    generate_kernel,
    random_covariance,
    random_test_vector,
    section_operator_norm,
)
from convdom.generate import Profile

from views import as_mapping, basis, kernel_at

Z = IntegerLattice(1)
Z2 = IntegerLattice(2)


def compose_oracle(k1, k2, x_window, z_window, y_window):
    """Brute-force double loop over point windows using kernel_at only."""
    entries = {}
    g = k1.group
    for x in x_window:
        for z in z_window:
            total = np.zeros((k1.dim, k1.dim), dtype=complex)
            for y in y_window:
                total = total + kernel_at(k1, x, y) @ kernel_at(k2, y, z)
            if np.count_nonzero(total):
                entries[(g.multiply(x, g.inverse(z)), z)] = total
    return entries


def seeded_kernel(group, dim, seed, radius=1, t_radius=2):
    kernel, _ = generate_kernel(group, dim, seed, Profile.exponential(0.5, radius, t_radius))
    return kernel


# -- storage and envelope -------------------------------------------------------


def test_kernel_at_identity_window():
    eye = Kernel.identity(Z, 2, window_radius=3)
    for x in Z.ball(3):
        assert np.array_equal(kernel_at(eye, x, x), np.eye(2))
    assert np.array_equal(kernel_at(eye, (0,), (1,)), np.zeros((2, 2)))
    assert np.array_equal(kernel_at(eye, (9,), (9,)), np.zeros((2, 2)))


def test_kernel_at_shift_coordinates():
    mat = np.array([[2.0 + 1.0j]])
    kernel = Kernel(Z, 1, {((1,), (0,)): mat})
    assert kernel_at(kernel, (1,), (0,)) == pytest.approx(mat)
    assert kernel_at(kernel, (0,), (0,)) == pytest.approx(np.zeros((1, 1)))


def test_min_envelope_delta_kernel():
    eye = Kernel.identity(Cyclic(6), 2)
    env = eye.min_envelope()
    assert list(as_mapping(env)) == [(0,)]
    assert as_mapping(env).get((0,), 0.0) == 1.0
    assert eye.envelope_norm() == 1.0


def test_min_envelope_sup_over_columns():
    entries = {((1,), (t,)): np.array([[1.0 / (1.0 + t * t)]]) for t in range(-10, 11)}
    kernel = Kernel(Z, 1, entries)
    env = kernel.min_envelope()
    assert list(as_mapping(env)) == [(1,)]
    assert as_mapping(env).get((1,), 0.0) == 1.0
    assert kernel.envelope_norm() == 1.0


def test_min_envelope_sums_cosets():
    entries = {}
    for s in (-1, 0, 1):
        entries[((s,), (0,))] = np.array([[0.5]])
    kernel = Kernel(Z, 1, entries)
    assert kernel.envelope_norm() == pytest.approx(1.5)


def test_envelope_rejects_negative_and_prunes_zero():
    env = Envelope(Z, {(0,): 1.0, (1,): 0.0})
    assert list(as_mapping(env)) == [(0,)]
    with pytest.raises(ValueError):
        Envelope(Z, {(0,): -0.5})


def test_envelope_convolution():
    a = Envelope(Z, {(0,): 1.0, (1,): 0.5})
    b = Envelope(Z, {(2,): 2.0})
    conv = a.convolve(b)
    assert as_mapping(conv).get((2,), 0.0) == 2.0
    assert as_mapping(conv).get((3,), 0.0) == 1.0


# -- composition ---------------------------------------------------------------


def test_compose_with_identity_window():
    kernel = seeded_kernel(Z, 2, seed=5)
    eye = Kernel.identity(Z, 2, window_radius=6)
    product = kernel.compose(eye)
    # Identity window covers the kernel's columns, so the product restores it.
    assert product.max_block_difference(kernel) == 0.0


def test_compose_shift_ranges():
    c1, c2 = 0.7, -0.3j
    k1 = Kernel(Z, 1, {((1,), (t,)): np.array([[c1]]) for t in range(-10, 11)})
    k2 = Kernel(Z, 1, {((2,), (t,)): np.array([[c2]]) for t in range(-10, 11)})
    product = k1.compose(k2)
    expected_keys = {((3,), (t,)) for t in range(-10, 9)}
    assert set(as_mapping(product)) == expected_keys
    for key in expected_keys:
        assert product.entries[key][0, 0] == pytest.approx(c1 * c2)


def test_compose_zero():
    kernel = seeded_kernel(Z2, 2, seed=8)
    zero = Kernel.zero(Z2, 2)
    assert list(as_mapping(zero.compose(kernel))) == []
    assert list(as_mapping(kernel.compose(zero))) == []


@pytest.mark.parametrize("group,dim", [(Z, 1), (Z2, 2), (Cyclic(6), 2), (HeisenbergMod(3), 1)])
def test_compose_matches_bruteforce(group, dim):
    k1 = seeded_kernel(group, dim, seed=21, radius=1, t_radius=1)
    k2 = seeded_kernel(group, dim, seed=22, radius=1, t_radius=1)
    window = group.ball() if group.is_finite else group.ball(4)
    oracle = compose_oracle(k1, k2, window, window, window)
    product = k1.compose(k2)
    for key, mat in oracle.items():
        assert np.linalg.norm(product.entries[key] - mat, 2) < 1e-12
    # No spurious support outside the oracle windows.
    for (s, t) in as_mapping(product):
        x = group.multiply(s, t)
        if t in window and x in window:
            assert key in oracle or np.linalg.norm(product.entries[(s, t)], 2) >= 0


def test_compose_dense_cross_check_finite():
    group = Cyclic(6)
    k1 = seeded_kernel(group, 2, seed=31)
    k2 = seeded_kernel(group, 2, seed=32)
    pts = group.ball()
    direct = k1.to_dense(pts) @ k2.to_dense(pts)
    assert np.allclose(k1.compose(k2).to_dense(pts), direct, atol=1e-13)


# -- involution ------------------------------------------------------------------


def test_involution_hermitian_diagonal_fixed():
    mat = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]])
    kernel = Kernel(Cyclic(5), 2, {((0,), t): mat for t in Cyclic(5).ball()})
    assert kernel.involution().max_block_difference(kernel) == 0.0


def test_involution_is_involutive_and_isometric():
    kernel = seeded_kernel(DiscreteHeisenberg(), 3, seed=9)
    twice = kernel.involution().involution()
    assert twice.max_block_difference(kernel) == 0.0
    norm = kernel.envelope_norm()
    assert abs(kernel.involution().envelope_norm() - norm) <= 1e-12 * max(1.0, norm)


def test_involution_matches_pointwise_adjoint():
    kernel = seeded_kernel(Z2, 2, seed=12)
    adj = kernel.involution()
    for x in Z2.ball(2):
        for y in Z2.ball(2):
            assert np.allclose(kernel_at(adj, x, y), kernel_at(kernel, y, x).conj().T)


# -- operator action ---------------------------------------------------------------


def test_apply_identity_window():
    vec = random_test_vector(Z, 2, seed=4, radius=2)
    eye = Kernel.identity(Z, 2, window_radius=4)
    assert (eye.apply(vec) - vec).l2_norm() == 0.0


def test_apply_shift_delta():
    c = 0.5 - 0.25j
    kernel = Kernel(Z, 1, {((1,), (t,)): np.array([[c]]) for t in range(-3, 4)})
    delta = basis(Z, 1, (0,))
    image = kernel.apply(delta)
    assert list(as_mapping(image)) == [(1,)]
    assert as_mapping(image)[(1,)][0] == pytest.approx(c)


def test_apply_contractive_on_random_cases():
    rng_groups = [(Z, 1), (Z, 2), (Z2, 1), (Cyclic(6), 3), (HeisenbergMod(3), 2)]
    case = 0
    for group, dim in rng_groups:
        for seed in range(20):
            kernel = seeded_kernel(group, dim, seed=100 + case)
            vec = random_test_vector(group, dim, seed=200 + case, radius=2)
            bound = kernel.envelope_norm() * vec.l2_norm()
            assert kernel.apply(vec).l2_norm() <= bound + 1e-12 * max(1.0, bound)
            case += 1
    assert case == 100


def test_representation_property():
    k1 = seeded_kernel(Z2, 2, seed=41)
    k2 = seeded_kernel(Z2, 2, seed=42)
    vec = random_test_vector(Z2, 2, seed=43, radius=2)
    lhs = k1.compose(k2).apply(vec)
    rhs = k1.apply(k2.apply(vec))
    scale = max(1.0, k1.envelope_norm() * k2.envelope_norm() * vec.l2_norm())
    assert (lhs - rhs).l2_norm() <= 1e-12 * scale


def test_section_norm_below_envelope():
    for seed in range(5):
        kernel = seeded_kernel(Z, 2, seed=60 + seed)
        assert section_operator_norm(kernel, radius=4) <= kernel.envelope_norm() + 1e-9


# -- algebra norms -----------------------------------------------------------------


def test_submultiplicative_with_domination():
    k1 = seeded_kernel(HeisenbergMod(3), 2, seed=71)
    k2 = seeded_kernel(HeisenbergMod(3), 2, seed=72)
    product = k1.compose(k2)
    n1, n2 = k1.envelope_norm(), k2.envelope_norm()
    assert product.envelope_norm() <= n1 * n2 + 1e-12 * max(1.0, n1 * n2)
    conv = as_mapping(k1.min_envelope().convolve(k2.min_envelope()))
    for (s, _t), mat in product.entries.items():
        assert np.linalg.norm(mat, 2) <= conv.get(s, 0.0) + 1e-12 * max(1.0, n1 * n2)


def test_associativity_on_grid():
    for group, dim in [(Z2, 1), (Cyclic(6), 2), (HeisenbergMod(3), 3)]:
        ks = [seeded_kernel(group, dim, seed=80 + i, t_radius=1) for i in range(3)]
        scale = max(1.0, np.prod([k.envelope_norm() for k in ks]))
        left = ks[0].compose(ks[1]).compose(ks[2])
        right = ks[0].compose(ks[1].compose(ks[2]))
        assert left.max_block_difference(right) <= 1e-12 * scale


# -- translation action --------------------------------------------------------------


def test_conjugation_identity_element_is_noop():
    kernel = seeded_kernel(DiscreteHeisenberg(), 2, seed=90)
    for side in ("left", "right"):
        moved = kernel.conjugate_by_translation(DiscreteHeisenberg().identity, side)
        assert moved.max_block_difference(kernel) == 0.0


def test_conjugation_envelope_exactly_invariant():
    group = DiscreteHeisenberg()
    kernel = seeded_kernel(group, 2, seed=91)
    for a in group.ball(2):
        for side in ("left", "right"):
            moved = kernel.conjugate_by_translation(a, side)
            assert moved.envelope_norm() == kernel.envelope_norm()


def test_conjugation_matches_pointwise_definition():
    group = Z2
    kernel = seeded_kernel(group, 2, seed=92)
    a = (2, -1)
    right = kernel.conjugate_by_translation(a, "right")
    left = kernel.conjugate_by_translation(a, "left")
    a_inv = group.inverse(a)
    for x in group.ball(2):
        for y in group.ball(2):
            assert np.array_equal(kernel_at(right, x, y), kernel_at(kernel, group.multiply(x, a), group.multiply(y, a)))
            assert np.array_equal(kernel_at(left, x, y), kernel_at(kernel, group.multiply(a_inv, x), group.multiply(a_inv, y)))


def test_conjugation_intertwines_translations():
    group = Z2
    kernel = seeded_kernel(group, 2, seed=93)
    vec = random_test_vector(group, 2, seed=94, radius=2)
    a = (1, 2)
    for side in ("left", "right"):
        moved = kernel.conjugate_by_translation(a, side)
        direct = moved.apply(vec)
        via = kernel.apply(vec.translate(group.inverse(a), side)).translate(a, side)
        assert (direct - via).l2_norm() == 0.0


def test_left_right_actions_commute_exactly():
    kernel = seeded_kernel(HeisenbergMod(3), 2, seed=95)
    a, b = (1, 0, 0), (0, 1, 2)
    one = kernel.conjugate_by_translation(a, "left").conjugate_by_translation(b, "right")
    two = kernel.conjugate_by_translation(b, "right").conjugate_by_translation(a, "left")
    assert list(as_mapping(one)) == list(as_mapping(two))
    assert one.max_block_difference(two) == 0.0


# -- guards ---------------------------------------------------------------------------


def test_group_and_dim_mismatch_rejected():
    k_z = seeded_kernel(Z, 1, seed=1)
    k_z2 = seeded_kernel(Z2, 1, seed=1)
    with pytest.raises(ValueError):
        k_z.compose(k_z2)
    k_d2 = seeded_kernel(Z, 2, seed=1)
    with pytest.raises(ValueError):
        k_z.compose(k_d2)
    vec = random_test_vector(Z2, 1, seed=2, radius=1)
    with pytest.raises(ValueError):
        k_z.apply(vec)


def test_zero_dim_is_refused():
    with pytest.raises(ValueError, match="dim must be >= 1"):
        Kernel(Z, 0, {})


def test_kernel_entries_are_read_only():
    z3 = Cyclic(3)
    kernel, element = seeded_kernel(Z, 1, seed=3), random_covariance(z3, 2, seed=3)
    for store in (kernel, element):
        mapping = store.entries
        key = next(iter(mapping))
        with pytest.raises(ValueError):
            mapping[key][0] = 5.0
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        # The view lists the rows of the store's arrays, in order.
        *coords, stack = store.arrays
        assert list(mapping) == list(zip(*(map(tuple, c.tolist()) for c in coords)))
        assert [block.tobytes() for block in mapping.values()] == [row.tobytes() for row in stack]
    # Every store's arrays, coordinates and values alike, refuse writes; so does a
    # kernel's cached envelope.
    stores = [
        kernel,
        element,
        random_test_vector(z3, 2, seed=3, radius=1),
        random_test_vector(z3, 2, seed=3, radius=1, doubled=True),
        kernel.min_envelope(),
    ]
    for store in stores:
        for arr in store.arrays:
            assert len(arr)
            with pytest.raises(ValueError):
                arr[0] = 5
