"""Covariance algebra, coordinate change R, regular representation, embedding."""

import numpy as np
import pytest

from convdom import (
    CovarianceElement,
    Cyclic,
    HeisenbergMod,
    IntegerLattice,
    Kernel,
    R_inverse,
    R_map,
    W_intertwine,
    W_inverse,
    operator_matrix,
    pi_regular,
    random_covariance,
    random_test_vector,
    symmetry_spectrum,
    theta_embed,
)
from convdom.covariance import matrix_function_convolve, matrix_function_norm

from views import as_mapping, basis, from_mapping

Z3 = Cyclic(3)
Z4 = Cyclic(4)
Z5 = Cyclic(5)


def cov_product_oracle(f, h):
    """Brute-force product over the whole finite group."""
    g = f.group
    pts = g.ball()
    fm, hm, zero = as_mapping(f), as_mapping(h), np.zeros((f.dim, f.dim), dtype=complex)
    entries = {}
    for x in pts:
        for z in pts:
            total = np.zeros((f.dim, f.dim), dtype=complex)
            for y in pts:
                total = total + fm.get((y, z), zero) @ hm.get(
                    (g.multiply(g.inverse(y), x), g.multiply(g.inverse(y), z)), zero
                )
            entries[(x, z)] = total
    return from_mapping(CovarianceElement, g, f.dim, entries)


def full_doubled_basis(group, dim):
    pts = group.ball()
    return [
        basis(group, dim, (x, z), i, doubled=True)
        for x in pts
        for z in pts
        for i in range(dim)
    ]


# -- dense reference matrices, built entry by entry -------------------------------


def pi_matrix(f: CovarianceElement) -> np.ndarray:
    """Dense matrix of the regular representation on the doubled space."""
    g = f.group
    pts = g.ball()
    d = f.dim
    pairs = [(x, z) for x in pts for z in pts]
    pair_index = {p: i for i, p in enumerate(pairs)}
    size = len(pairs) * d
    mat = np.zeros((size, size), dtype=complex)
    col = 0
    for x, z in pairs:
        for i in range(d):
            image = pi_regular(f, basis(g, d, (x, z), i, doubled=True))
            for key, val in as_mapping(image).items():
                row = pair_index[key] * d
                mat[row : row + d, col] = val
            col += 1
    return mat


def left_multiplication_matrix(f: CovarianceElement) -> np.ndarray:
    """Matrix of h -> f * h on the covariance algebra of a finite group.

    The algebra is viewed as a vector space of dimension |G|^2 d^2 with the
    basis of single-entry elements, ordered by (x, y, row, column).
    """
    g = f.group
    pts = g.ball()
    index = {p: i for i, p in enumerate(pts)}
    n = len(pts)
    d = f.dim
    d2 = d * d
    size = n * n * d2
    mat = np.zeros((size, size), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for (y, w), block in f.entries.items():
        y_inv_w = g.multiply(g.inverse(y), w)
        kron = np.kron(block, eye)
        for a in pts:
            row = (index[g.multiply(y, a)] * n + index[w]) * d2
            col = (index[a] * n + index[y_inv_w]) * d2
            mat[row : row + d2, col : col + d2] += kron
    return mat


# -- product and involution -------------------------------------------------------


def test_unit_is_neutral():
    f = random_covariance(Z3, 2, seed=1)
    u = CovarianceElement.unit(Z3, 2)
    assert u.product(f).max_block_difference(f) < 1e-14
    assert f.product(u).max_block_difference(f) < 1e-14


def test_indicator_product_on_z2():
    group = Cyclic(2)
    ones = {(x, y): np.array([[1.0]]) for x in group.ball() for y in group.ball()}
    f = from_mapping(CovarianceElement, group, 1, ones)
    product = as_mapping(f.product(f))
    for x in group.ball():
        for y in group.ball():
            assert product[(x, y)][0, 0] == pytest.approx(2.0)


def test_product_matches_bruteforce():
    f = random_covariance(Z4, 2, seed=2)
    h = random_covariance(Z4, 2, seed=3)
    assert f.product(h).max_block_difference(cov_product_oracle(f, h)) < 1e-13


def test_norm_submultiplicative():
    for seed in range(10):
        f = random_covariance(Z5, 2, seed=10 + seed)
        h = random_covariance(Z5, 2, seed=30 + seed)
        bound = f.l1_norm() * h.l1_norm()
        assert f.product(h).l1_norm() <= bound + 1e-12 * max(1.0, bound)


def test_involution_is_involutive_and_isometric():
    u = CovarianceElement.unit(Z5, 2)
    assert u.involution().max_block_difference(u) == 0.0
    for seed in range(10):
        f = random_covariance(Z5, 2, seed=50 + seed)
        assert f.involution().involution().max_block_difference(f) == 0.0
        assert abs(f.involution().l1_norm() - f.l1_norm()) <= 1e-12 * max(1.0, f.l1_norm())


# -- R and its inverse ---------------------------------------------------------------


def test_R_of_unit_is_identity_kernel():
    u = CovarianceElement.unit(Z5, 2)
    assert R_map(u).max_block_difference(Kernel.identity(Z5, 2)) == 0.0
    assert R_inverse(Kernel.identity(Z5, 2)).max_block_difference(u) == 0.0


def test_R_is_isometric_star_homomorphism():
    for seed in range(5):
        f = random_covariance(Z5, 2, seed=70 + seed)
        h = random_covariance(Z5, 2, seed=90 + seed)
        scale = max(1.0, f.l1_norm() * h.l1_norm())
        diff = R_map(f.product(h)).max_block_difference(R_map(f).compose(R_map(h)))
        assert diff <= 1e-12 * scale
        assert R_map(f.involution()).max_block_difference(R_map(f).involution()) == 0.0
        assert R_map(f).envelope_norm() == f.l1_norm()


def test_R_round_trip_exact():
    for seed in range(100):
        f = random_covariance(Z5, 1, seed=200 + seed)
        assert R_inverse(R_map(f)).max_block_difference(f) == 0.0
    kernel = R_map(random_covariance(Z4, 3, seed=7))
    assert R_map(R_inverse(kernel)).max_block_difference(kernel) == 0.0


def test_R_on_rank_one_element():
    group = Z4
    rng = np.random.default_rng(5)
    phi = {x: rng.normal() + 1j * rng.normal() for x in group.ball()}
    psi = {y: rng.normal() + 1j * rng.normal() for y in group.ball()}
    f = from_mapping(CovarianceElement, 
        group, 1, {(x, y): np.array([[phi[x] * psi[y]]]) for x in group.ball() for y in group.ball()}
    )
    back = as_mapping(R_inverse(R_map(f)))
    for x in group.ball():
        for y in group.ball():
            assert back[(x, y)][0, 0] == phi[x] * psi[y]


# -- regular representation -----------------------------------------------------------


def test_pi_regular_unit_acts_as_identity():
    u = CovarianceElement.unit(Z4, 2)
    xi = random_test_vector(Z4, 2, seed=8, radius=2, doubled=True)
    assert (pi_regular(u, xi) - xi).l2_norm() < 1e-14


def test_pi_regular_is_multiplicative():
    f = random_covariance(Z4, 2, seed=9)
    h = random_covariance(Z4, 2, seed=10)
    fh = f.product(h)
    for xi in full_doubled_basis(Z4, 2):
        lhs = pi_regular(fh, xi)
        rhs = pi_regular(f, pi_regular(h, xi))
        scale = max(1.0, f.l1_norm() * h.l1_norm())
        assert (lhs - rhs).l2_norm() <= 1e-12 * scale


def test_pi_regular_adjoint():
    f = random_covariance(Z4, 2, seed=11)
    fs = f.involution()
    basis = full_doubled_basis(Z4, 2)
    rng = np.random.default_rng(12)
    for _ in range(60):
        xi = basis[int(rng.integers(len(basis)))]
        eta = basis[int(rng.integers(len(basis)))]
        lhs = pi_regular(f, xi).inner(eta)
        rhs = xi.inner(pi_regular(fs, eta))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, f.l1_norm())


# -- intertwiner -------------------------------------------------------------------


def test_W_is_unitary_and_invertible():
    for seed in range(20):
        xi = random_test_vector(Z4, 2, seed=300 + seed, radius=2, doubled=True)
        assert W_intertwine(xi).l2_norm() == xi.l2_norm()
        assert (W_inverse(W_intertwine(xi)) - xi).l2_norm() == 0.0
        assert (W_intertwine(W_inverse(xi)) - xi).l2_norm() == 0.0


def test_W_intertwines_kernel_action_with_pi():
    for seed in range(5):
        f = random_covariance(Z4, 2, seed=400 + seed)
        kernel = R_map(f)
        for xi in full_doubled_basis(Z4, 2):
            lhs = W_intertwine(kernel.apply(xi))
            rhs = pi_regular(f, W_intertwine(xi))
            assert (lhs - rhs).l2_norm() <= 1e-12 * max(1.0, f.l1_norm())


# -- trivial-action embedding -----------------------------------------------------


def test_theta_of_unit():
    u = CovarianceElement.unit(Z3, 2)
    theta = as_mapping(theta_embed(u))
    assert set(theta) == {(0,)}
    assert np.array_equal(theta[(0,)], np.eye(6))


def test_theta_of_zero_is_empty_and_has_norm_zero():
    theta = theta_embed(from_mapping(CovarianceElement, Z3, 2, {}))
    assert as_mapping(theta) == {}
    assert matrix_function_norm(theta) == 0.0


def test_theta_homomorphism_and_isometry():
    for seed in range(10):
        f = random_covariance(Z3, 1, seed=500 + seed)
        h = random_covariance(Z3, 1, seed=600 + seed)
        tf, th = theta_embed(f), theta_embed(h)
        tfh = as_mapping(theta_embed(f.product(h)))
        conv = as_mapping(matrix_function_convolve(tf, th, Z3))
        scale = max(1.0, f.l1_norm() * h.l1_norm())
        for x in Z3.ball():
            assert np.linalg.norm(tfh.get(x, 0) - conv.get(x, 0), 2) <= 1e-12 * scale
        assert abs(matrix_function_norm(tf) - f.l1_norm()) <= 1e-12 * max(1.0, f.l1_norm())


Z = IntegerLattice(1)
ON_Z = from_mapping(CovarianceElement, Z, 1, {((0,), (0,)): np.array([[1.0]])})


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: theta_embed(ON_Z), id="theta_embed"),
        pytest.param(lambda: symmetry_spectrum(ON_Z), id="symmetry_spectrum"),
        pytest.param(lambda: operator_matrix(R_map(ON_Z)), id="operator_matrix"),
        pytest.param(lambda: Kernel.identity(Z, 1), id="Kernel.identity"),
        pytest.param(lambda: CovarianceElement.unit(Z, 1), id="CovarianceElement.unit"),
        pytest.param(lambda: random_covariance(Z, 1, 5), id="random_covariance"),
    ],
)
def test_whole_group_callers_need_a_finite_group(call):
    with pytest.raises(ValueError, match=r"^Z is infinite"):
        call()


# -- spectra ------------------------------------------------------------------------


def test_spectrum_of_unit_and_scalars():
    u = CovarianceElement.unit(Z3, 1)
    spectrum = symmetry_spectrum(u)
    assert spectrum.shape == (9,)
    assert np.allclose(spectrum, 1.0)
    c = 2.5 - 1.0j
    assert np.allclose(symmetry_spectrum(u.scale(c)), c)


def test_spectrum_positive_for_star_squares():
    for seed in range(10):
        f = random_covariance(Z3, 2, seed=700 + seed)
        spectrum = symmetry_spectrum(f.involution().product(f))
        assert spectrum.real.min() >= -1e-9
        assert np.abs(spectrum.imag).max() <= 1e-9


def test_spectrum_methods_agree():
    for group, dim in [(Z4, 1), (Cyclic(6), 2), (HeisenbergMod(3), 1)]:
        f = random_covariance(group, dim, seed=42)
        literal = np.sort_complex(np.linalg.eigvals(left_multiplication_matrix(f)))
        factored = np.sort_complex(symmetry_spectrum(f))
        assert literal.shape == factored.shape
        assert np.max(np.abs(literal - factored)) <= 1e-9 * max(1.0, f.l1_norm())


def test_left_multiplication_matrix_against_products():
    group, dim = Z3, 2
    f = random_covariance(group, dim, seed=77)
    mat = left_multiplication_matrix(f)
    pts = group.ball()
    n, d = len(pts), dim
    # Column of basis element e_{(a,b),i,j} must match the structural product.
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = pts[int(rng.integers(n))]
        b = pts[int(rng.integers(n))]
        i, j = int(rng.integers(d)), int(rng.integers(d))
        basis_mat = np.zeros((d, d), dtype=complex)
        basis_mat[i, j] = 1.0
        e = from_mapping(CovarianceElement, group, dim, {(a, b): basis_mat})
        product = f.product(e)
        col = ((pts.index(a) * n) + pts.index(b)) * d * d + i * d + j
        vec = mat[:, col]
        rebuilt = {}
        for xi, x in enumerate(pts):
            for yi, y in enumerate(pts):
                base = (xi * n + yi) * d * d
                block = vec[base : base + d * d].reshape(d, d)
                if np.count_nonzero(block):
                    rebuilt[(x, y)] = block
        assert product.max_block_difference(from_mapping(CovarianceElement, group, dim, rebuilt)) < 1e-13


def test_pi_spectrum_inside_algebra_spectrum():
    for seed in range(5):
        f = random_covariance(Z3, 2, seed=800 + seed)
        algebra_spectrum = symmetry_spectrum(f)
        candidates = np.concatenate([algebra_spectrum, [0.0]])
        for eig in np.linalg.eigvals(pi_matrix(f)):
            assert np.min(np.abs(candidates - eig)) <= 1e-9 * max(1.0, f.l1_norm())


def test_operator_matrix_consistent_with_apply():
    f = random_covariance(Z4, 2, seed=900)
    kernel = R_map(f)
    mat = operator_matrix(kernel)
    pts = Z4.ball()
    vec = random_test_vector(Z4, 2, seed=901, radius=2)
    zero, vm = np.zeros(2, dtype=complex), as_mapping(vec)
    flat = np.concatenate([vm.get(p, zero) for p in pts])
    image = mat @ flat
    applied = as_mapping(kernel.apply(vec))
    rebuilt = np.concatenate([applied.get(p, zero) for p in pts])
    assert np.allclose(image, rebuilt, atol=1e-13)
