"""Finite sections, Neumann and contour oracles, ideal projection, decay fits."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convdom import (
    ContourNodeError,
    Cyclic,
    DiscreteHeisenberg,
    Envelope,
    HeisenbergMod,
    IntegerLattice,
    InversionConfig,
    Kernel,
    SectionInversionError,
    contour_inverse,
    finite_section_inverse,
    fit_decay,
    generate_kernel,
    ideal_project,
    inverse_residual,
    neumann_inverse,
    shift_kernel,
)
from convdom import inversion
from convdom.generate import Profile

from views import as_mapping, kernel_at

Z = IntegerLattice(1)
Z8 = Cyclic(8)


def geometric_shift_setup(weight=0.5, window=45):
    kernel = shift_kernel(Z, 1, weight, t_radius=window)
    cfg = InversionConfig(z=1.0, radii=(10, 20, 30, 40), inner_ratio=0.5)
    return kernel, cfg


def hermitian_band(weight=0.2 + 0.1j, diag=0.1, window=40):
    base = shift_kernel(Z, 1, weight, t_radius=window)
    kernel = base + base.involution()
    return kernel + Kernel.identity(Z, 1, window).scale(diag)


# -- finite sections ---------------------------------------------------------------


def test_zero_kernel_inverse_is_scalar():
    inverse, report = finite_section_inverse(Kernel.zero(Z, 1), InversionConfig(z=2.0, radii=(4, 8)))
    assert list(as_mapping(inverse)) == []
    assert report.stabilized
    assert report.residual == 0.0
    assert report.final.kernel.min_envelope().shell_partial_sums() == []


def test_shift_inverse_matches_geometric_series():
    kernel, cfg = geometric_shift_setup()
    inverse, report = finite_section_inverse(kernel, cfg)
    env = as_mapping(report.final.kernel.min_envelope())
    for n in range(1, 21):
        assert abs(env.get((n,), 0.0) - 0.5**n) <= 1e-8
        assert abs(kernel_at(inverse, (n,), (0,))[0, 0] - (-0.5) ** n) <= 1e-8
    assert env.get((0,), 0.0) == 0.0
    assert env.get((-1,), 0.0) == 0.0
    assert report.stabilized
    assert report.residual <= 1e-12


def test_finite_group_section_matches_direct_inverse():
    group = Cyclic(6)
    rng = np.random.default_rng(17)
    entries = {}
    for s in group.ball():
        for t in group.ball():
            entries[(s, t)] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    kernel = Kernel.identity(group, 2).scale(8.0) + Kernel(group, 2, entries).scale(0.05)
    inverse, report = finite_section_inverse(kernel, InversionConfig(z=0.0, radii=(3,)))
    assert report.stabilized and report.final.full_group
    pts = group.ball()
    direct = np.linalg.inv(kernel.to_dense(pts))
    assert np.max(np.abs(inverse.to_dense(pts) - direct)) <= 1e-12
    assert report.residual <= 1e-12


@pytest.mark.parametrize("z", [1.0, -1.0, 1j, -2 - 2j, complex(-0.0, 1.0), np.exp(0.3j)], ids=str)
def test_section_inverse_equals_dense_formula_bit_for_bit(z):
    # A section covering the whole group leaves no slab to eliminate, so the
    # sweep is the dense inverse.  Signed zeros included: the scalar shifts
    # run in place, and must match inverting z + K and subtracting 1/z with
    # full identity matrices.
    for group in (Cyclic(9), HeisenbergMod(3)):
        kernel, _ = generate_kernel(group, 2, 5, Profile.exponential(0.4, 1))
        cfg = InversionConfig(z=z, radii=(group.diameter(),), inner_ratio=0.5)
        got, report = finite_section_inverse(kernel, cfg)
        assert report.final.full_group
        points = group.ball()
        eye = np.eye(2 * len(points), dtype=complex)
        dense = np.linalg.inv(kernel.to_dense(points) + z * eye) - eye / z
        expected = Kernel.from_dense(group, 2, dense, points)
        assert [a.tobytes() for a in got.arrays] == [a.tobytes() for a in expected.arrays]


# Truncated sections against a dense inverse of the whole section, computed here.
SECTION_GROUPS = {
    "Z": (IntegerLattice(1), 5, 14),
    "Z^2": (IntegerLattice(2), 3, 6),
    "Z/15": (Cyclic(15), 3, 6),  # diameter 7: never fully covered
    "H3(Z)": (DiscreteHeisenberg(), 3, 4),
}


@st.composite
def truncated_sections(draw):
    group, low, high = SECTION_GROUPS[draw(st.sampled_from(sorted(SECTION_GROUPS)))]
    radius = draw(st.integers(low, high))
    dim, support, seed = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 999))
    size = draw(st.one_of(st.floats(0.05, 0.5), st.floats(2.0, 5.0)))
    z = size * cmath.exp(2j * math.pi * draw(st.floats(0.0, 1.0)))
    kernel, _ = generate_kernel(group, dim, seed, Profile.exponential(0.5, support, radius))
    cfg = InversionConfig(z=z, radii=(radius,), inner_ratio=draw(st.sampled_from([0.25, 0.5, 0.75])))
    points = group.ball(radius)
    dense = kernel.to_dense(points) + z * np.eye(len(points) * dim)
    return kernel, cfg, dense


def assert_window_matches_dense_inverse(got, report, dense, z):
    """The extracted kernel against the window block of inv(dense) - 1/z, to 32 eps cond.

    ``dense`` is z + K on points whose ball-ordered head is the final window.
    """
    inverse = np.linalg.inv(dense)
    condition = np.linalg.norm(dense, 1) * np.linalg.norm(inverse, 1)
    window = got.group.ball(report.final.inner_radius)
    m = len(window) * got.dim
    expected = inverse[:m, :m] - np.eye(m) / z
    gap = np.max(np.abs(got.to_dense(window) - expected)) / np.max(np.abs(inverse))
    assert gap <= 32 * np.finfo(float).eps * condition


@settings(max_examples=40, deadline=None)
@given(truncated_sections())
def test_truncated_section_matches_dense_oracle(case):
    kernel, cfg, dense = case
    got, report = finite_section_inverse(kernel, cfg)
    assert not report.final.full_group
    assert_window_matches_dense_inverse(got, report, dense, cfg.z)


@settings(max_examples=40, deadline=None)
@given(truncated_sections())
def test_condition_estimate_brackets_exact_condition(case):
    kernel, cfg, dense = case
    exact = np.linalg.norm(dense, 1) * np.linalg.norm(np.linalg.inv(dense), 1)
    _inverse, _report, [(_solved, estimate)] = spy_on_sweeps(kernel, cfg)
    assert exact / 10 <= estimate <= exact * (1 + 1e-12)


def spy_on_sweeps(kernel, cfg):
    """finite_section_inverse, plus (points solved, condition estimate) of each radius's sweep."""
    solve, sweeps = inversion._window_inverse, []

    def spy(kernel, z, points, *rest):
        inverse, condition = solve(kernel, z, points, *rest)
        sweeps.append((len(points), condition))
        return inverse, condition

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inversion, "_window_inverse", spy)
        got, report = finite_section_inverse(kernel, cfg)
    return got, report, sweeps


def _band(kernel):
    return kernel + kernel.involution()


# Kernels whose ball sections split into blocks, most of them never meeting
# the window: (kernel, radius, z).  A shift by e1 on Z^2 only couples points
# of one row, and one by (1, 0, 0) on H3(Z) only points of one left coset.
DECOUPLED_SECTIONS = {
    "shift-Z^2": (shift_kernel(IntegerLattice(2), 2, 0.8 - 0.6j, step=(1, 0), t_radius=6), 6, 0.7j),
    "band-Z^2": (_band(shift_kernel(IntegerLattice(2), 1, 0.4 + 0.3j, step=(1, 0), t_radius=6)), 6, 3.0),
    "shift-H3(Z)": (shift_kernel(DiscreteHeisenberg(), 1, 0.4, t_radius=6), 6, 1.0),
    "band-H3(Z)": (
        _band(shift_kernel(DiscreteHeisenberg(), 2, 0.5j, t_radius=6))
        + Kernel.identity(DiscreteHeisenberg(), 2, 6).scale(0.25),
        6,
        -2.0 + 1.0j,
    ),
}


@pytest.mark.parametrize("name", sorted(DECOUPLED_SECTIONS))
def test_decoupled_section_matches_dense_oracle(name):
    kernel, radius, z = DECOUPLED_SECTIONS[name]
    points = kernel.group.ball(radius)
    got, report, [(solved, _condition)] = spy_on_sweeps(kernel, InversionConfig(z=z, radii=(radius,), inner_ratio=0.5))
    assert solved < len(points)
    dense = kernel.to_dense(points) + z * np.eye(len(points) * kernel.dim)
    assert_window_matches_dense_inverse(got, report, dense, z)


def test_fully_coupled_section_solves_the_whole_ball():
    kernel, cfg = geometric_shift_setup()
    _inverse, _report, sweeps = spy_on_sweeps(kernel, cfg)
    assert [solved for solved, _condition in sweeps] == [2 * r + 1 for r in cfg.radii]


def test_singular_uncoupled_part_is_not_solved():
    # The shift along e1 on Z^2, plus -z at (0, 4): that point's row of
    # z + K is zero, so the section is singular, but its line b = 4 never
    # meets the window ball(2).  The inverse on the window is that of the
    # coupled part, the lines |b| <= 2.
    z2, z = IntegerLattice(2), 1.5
    kernel = shift_kernel(z2, 1, 0.5, step=(1, 0), t_radius=4) + Kernel(z2, 1, {((0, 0), (0, 4)): [[-z]]})
    points = z2.ball(4)
    section = kernel.to_dense(points) + z * np.eye(len(points))
    assert not section[points.index((0, 4))].any()
    coupled = [p for p in points if abs(p[1]) <= 2]
    got, report, [(solved, _condition)] = spy_on_sweeps(kernel, InversionConfig(z=z, radii=(4,), inner_ratio=0.5))
    assert solved == len(coupled)
    dense = kernel.to_dense(coupled) + z * np.eye(len(coupled))
    assert_window_matches_dense_inverse(got, report, dense, z)


def test_truncated_section_with_singular_pivot_raises():
    # The weight-1/2 shift on Z with z = 0: the outermost shell {-4, 4} does
    # not couple to itself, so its pivot is zero.
    with pytest.raises(SectionInversionError) as info:
        finite_section_inverse(shift_kernel(Z, 1, 0.5, t_radius=4), InversionConfig(z=0.0, radii=(4,)))
    assert info.value.condition == math.inf


def test_truncated_section_with_ill_conditioned_pivot_raises():
    # z + K(e, -4) = 1e-14 next to z = 1 at 4 leaves the outermost pivot
    # diag(1e-14, 1).  The cap holds for every pivot, even where the whole
    # section (condition 34 here) would pass it.
    band = shift_kernel(Z, 1, 0.5, t_radius=4)
    kernel = band + band.involution() + Kernel(Z, 1, {((0,), (-4,)): [[1e-14 - 1.0]]})
    assert np.linalg.cond(kernel.to_dense(Z.ball(4)) + np.eye(9), 1) < 100
    with pytest.raises(SectionInversionError) as info:
        finite_section_inverse(kernel, InversionConfig(z=1.0, radii=(4,)))
    assert 1e12 < info.value.condition < math.inf


def test_truncated_section_beyond_the_cap_raises_on_the_estimate():
    # 1 + 2 S on ball(4) of Z: every pivot is the identity, but the section's
    # 1-norm condition is 3 * 511 = 1533, which the estimate finds.
    kernel = shift_kernel(Z, 1, 2.0, t_radius=4)
    with pytest.raises(SectionInversionError) as info:
        finite_section_inverse(kernel, InversionConfig(z=1.0, radii=(4,), condition_cap=1000))
    assert 1000 < info.value.condition <= 1533 * (1 + 1e-12)


def test_sweep_assembles_at_most_two_adjacent_slabs(monkeypatch):
    z2 = IntegerLattice(2)
    kernel, _ = generate_kernel(z2, 2, 1, Profile.exponential(0.2, 1, 20))
    rows = []
    to_dense = Kernel.to_dense

    def recorder(self, points):
        mat = to_dense(self, points)
        rows.append(mat.shape[0])
        return mat

    monkeypatch.setattr(Kernel, "to_dense", recorder)
    finite_section_inverse(kernel, InversionConfig(z=3.0, radii=(20,), inner_ratio=0.5))
    # Support radius 1: one shell per slab, eliminated from shell 20 inwards
    # onto the window ball(10).  The section has 2 * 841 = 1682 rows.
    ball = [len(z2.ball(k)) for k in range(21)]
    assert rows == [2 * (ball[k] - ball[k - 2]) for k in range(20, 11, -1)] + [2 * ball[11]]
    assert max(rows) == 530 < 2 * ball[20] == 1682


def test_section_singular_raises_at_scale_error():
    zero = Kernel.zero(Z, 1)
    with pytest.raises(SectionInversionError):
        finite_section_inverse(zero, InversionConfig(z=0.0, radii=(3,)))


def test_condition_cap_exceeded():
    group = Cyclic(2)
    kernel = Kernel(group, 1, {((0,), (0,)): [[1.0]], ((0,), (1,)): [[1e-15]]})
    with pytest.raises(SectionInversionError) as info:
        finite_section_inverse(kernel, InversionConfig(z=0.0, radii=(1,), condition_cap=1e12))
    assert info.value.condition > 1e12


def test_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(radii=())
    with pytest.raises(ValueError):
        InversionConfig(radii=(4, 4))
    with pytest.raises(ValueError):
        InversionConfig(radii=(4, 2))
    with pytest.raises(ValueError):
        InversionConfig(radii=(4,), inner_ratio=0.0)
    with pytest.raises(ValueError):
        InversionConfig(radii=(4,), stabilization_tol=0.0)
    with pytest.raises(ValueError):
        InversionConfig(radii=(4,), stabilization_tol=math.nan)
    with pytest.raises(ValueError):
        InversionConfig(radii=(4,), condition_cap=math.nan)


def test_unstabilized_single_radius_reported():
    kernel, _ = geometric_shift_setup()
    _inverse, report = finite_section_inverse(kernel, InversionConfig(z=1.0, radii=(12,)))
    assert not report.stabilized


# -- residual check -----------------------------------------------------------------


def test_residual_detects_wrong_inverse():
    kernel, cfg = geometric_shift_setup()
    inverse, _report = finite_section_inverse(kernel, cfg)
    good = inverse_residual(kernel, 1.0, inverse, 10)
    bad = inverse_residual(kernel, 1.0, inverse.scale(1.5), 10)
    assert good <= 1e-12
    assert bad > 0.05


def test_residual_is_measured_on_the_interior_window():
    kernel = hermitian_band()
    inverse, report = finite_section_inverse(kernel, InversionConfig(z=1.0, radii=(10, 20, 30, 40)))
    inner = report.final.inner_radius
    # The band has support radius 1: the interior window is one step inside.
    assert report.residual == inverse_residual(kernel, 1.0, inverse, inner - 1) <= 1e-12
    # On the whole inner window the residual measures truncation at its edge.
    assert inverse_residual(kernel, 1.0, inverse, inner) > 1e-6


def test_residual_window_on_whole_group_and_when_empty():
    kernel = shift_kernel(Z8, 1, 0.5)
    whole = Z8.diameter()
    inverse, report = finite_section_inverse(kernel, InversionConfig(z=1.0, radii=(whole,)))
    assert report.final.full_group
    assert report.residual == inverse_residual(kernel, 1.0, inverse, whole) <= 1e-12
    # Inner radius 0 shrunk by support radius 1 leaves no window: the check fails.
    _inverse, report = finite_section_inverse(shift_kernel(Z, 1, 0.5, t_radius=4), InversionConfig(z=1.0, radii=(1,)))
    assert report.final.inner_radius == 0
    assert report.residual == math.inf


def residual_definition(kernel, z, inverse, radius):
    """The residual as defined: the whole product K B, then restricted to the window."""
    product = kernel.compose(inverse)
    if z != 0:
        residual = (inverse.scale(z) + kernel.scale(1.0 / z) + product).restrict_to_ball(radius)
    else:
        residual = product.restrict_to_ball(radius) - Kernel.identity(kernel.group, kernel.dim, radius)
    return residual.envelope_norm()


def residual_cases():
    z2_kernel, _ = generate_kernel(IntegerLattice(2), 2, 4, Profile.exponential(0.5, 1, 6))
    yield "Z^2 dim 2", z2_kernel, 3.0, (4, 6)
    yield "H3(Z) shift", shift_kernel(DiscreteHeisenberg(), 1, 0.4, t_radius=6), 1.0, (4, 6)
    finite = Kernel.identity(Z8, 1).scale(2.0) + shift_kernel(Z8, 1, 0.5)
    yield "Z/8, z = 0", finite, 0.0, (Z8.diameter(),)


@pytest.mark.parametrize("case", list(residual_cases()), ids=lambda case: case[0])
def test_residual_on_its_window_equals_the_whole_product_restricted(case):
    _name, kernel, z, radii = case
    inverse, _report = finite_section_inverse(kernel, InversionConfig(z=z, radii=radii))
    # Both the solved inverse and a wrong one, whose residual is far from zero.
    for candidate in (inverse, inverse.scale(1.5)):
        for radius in range(max(radii) + 1):
            assert inverse_residual(kernel, z, candidate, radius) == residual_definition(kernel, z, candidate, radius)


# -- Neumann oracle -----------------------------------------------------------------


def test_neumann_zero_kernel():
    inverse, bound = neumann_inverse(Kernel.zero(Z, 1), z=2.0, terms=5)
    assert list(as_mapping(inverse)) == []
    assert bound == 0.0


def test_neumann_matches_finite_sections():
    kernel, cfg = geometric_shift_setup()
    section, report = finite_section_inverse(kernel, cfg)
    series, bound = neumann_inverse(kernel, 1.0, terms=60)
    window = report.final.inner_radius
    gap = (section - series).restrict_to_ball(window).envelope_norm()
    assert gap <= bound + cfg.stabilization_tol


@pytest.mark.parametrize("group,radius", [(IntegerLattice(2), 3), (DiscreteHeisenberg(), 2), (Z8, 1)], ids=str)
def test_neumann_on_a_window_equals_the_whole_series_on_its_rows(group, radius):
    """The windowed series holds the whole series' entries with row x = s t in the ball, bit for bit."""
    kernel, _ = generate_kernel(group, 2, 9, Profile.exponential(0.9, 1, 4))
    z = 2.0 * kernel.envelope_norm() + 0.5j
    whole, bound = neumann_inverse(kernel, z, terms=4)
    window, window_bound = neumann_inverse(kernel, z, terms=4, window_radius=radius)
    rows = inversion._subset(whole, whole._ball_mask(radius, columns=False))
    assert 0 < len(window.entries) < len(whole.entries) and window_bound == bound
    assert list(window.entries) == list(rows.entries)
    assert all(window.entries[k].tobytes() == v.tobytes() for k, v in rows.entries.items())


def test_neumann_refuses_divergent_series():
    kernel = shift_kernel(Z, 1, 2.0, t_radius=5)
    with pytest.raises(ValueError):
        neumann_inverse(kernel, z=1.0, terms=10)
    with pytest.raises(ValueError):
        neumann_inverse(kernel, z=0.0, terms=10)


def test_neumann_tail_bound_squares_when_terms_double():
    kernel = shift_kernel(Z, 1, 0.5, t_radius=5)
    _, b1 = neumann_inverse(kernel, z=1.0, terms=10)
    _, b2 = neumann_inverse(kernel, z=1.0, terms=20)
    q = 0.5
    assert b2 == pytest.approx(b1 * q**10)


# -- contour oracle -----------------------------------------------------------------


def test_contour_scalar_case():
    kernel = Kernel.identity(Z8, 1).scale(2.0)
    cfg = InversionConfig(radii=(4,))
    inverse = contour_inverse(kernel, radius_eps=1.0, nodes=64, cfg=cfg)
    expected = Kernel.identity(Z8, 1).scale(0.5)
    assert inverse.max_block_difference(expected) <= 1e-10


def test_contour_diagonal_case():
    entries = {((0,), t): np.diag([2.0, 3.0]) for t in Z8.ball()}
    kernel = Kernel(Z8, 2, entries)
    inverse = contour_inverse(kernel, radius_eps=1.0, nodes=64, cfg=InversionConfig(radii=(4,)))
    expected = Kernel(Z8, 2, {((0,), t): np.diag([0.5, 1.0 / 3.0]) for t in Z8.ball()})
    assert inverse.max_block_difference(expected) <= 1e-8


def test_contour_agrees_with_direct_inverse():
    kernel = Kernel.identity(Z8, 1).scale(2.0) + shift_kernel(Z8, 1, 0.4)
    cfg = InversionConfig(radii=(4,))
    contour = contour_inverse(kernel, radius_eps=1.0, nodes=64, cfg=cfg)
    direct, _ = finite_section_inverse(kernel, cfg)
    assert contour.max_block_difference(direct) <= 1e-6


def test_contour_reports_failing_node():
    # alpha = 1 at node 0 makes alpha - 1 singular.
    kernel = Kernel.identity(Z8, 1).scale(-1.0)
    with pytest.raises(ContourNodeError) as info:
        contour_inverse(kernel, radius_eps=1.0, nodes=16, cfg=InversionConfig(radii=(4,)))
    assert info.value.node == 0


def test_contour_rejects_too_few_nodes():
    kernel = Kernel.identity(Z8, 1).scale(2.0)
    with pytest.raises(ValueError):
        contour_inverse(kernel, radius_eps=1.0, nodes=4, cfg=InversionConfig(radii=(4,)))


def contour_fold_reference(kernel, radius_eps, nodes, cfg):
    """The contour as a left fold of ``+`` over whole finite_section_inverse runs, then scaled."""
    total = None
    for j in range(nodes):
        alpha = radius_eps * cmath.exp(2j * math.pi * j / nodes)
        part, _report = finite_section_inverse(kernel, replace(cfg, z=alpha))
        total = part if total is None else total + part
    return total.scale(1.0 / nodes)


def assert_same_bytes(got, expected):
    assert [a.tobytes() for a in got.arrays] == [a.tobytes() for a in expected.arrays]


def _contour_case(group, dim, scalar=2.0, weight=0.3):
    kernel = Kernel.identity(group, dim).scale(scalar) + shift_kernel(group, dim, weight)
    return kernel, InversionConfig(radii=(group.diameter(),))


# (kernel, cfg, nodes): the contour task's defaults on Z/8, larger blocks on
# Z/5 and a non-abelian group, radii past the diameter of Z/8 (4), where the
# fold stops at 4 and the node solves 6, and a truncated group whose node
# solves only the last radius.
CONTOUR_CASES = {
    "Z/8-defaults": (*_contour_case(Z8, 1), 64),
    "Z/8-radii-2-4-6": (_contour_case(Z8, 1)[0], InversionConfig(radii=(2, 4, 6)), 16),
    "Z/5-d3": (*_contour_case(Cyclic(5), 3), 16),
    "H3(Z/3)-d2": (*_contour_case(HeisenbergMod(3), 2), 16),
    "Z-radii-4-8": (
        Kernel.identity(Z, 1, 12).scale(2.0) + shift_kernel(Z, 1, 0.3, t_radius=12),
        InversionConfig(radii=(4, 8)),
        16,
    ),
}


@pytest.mark.parametrize("name", sorted(CONTOUR_CASES))
def test_contour_equals_fold_of_finite_sections_bit_for_bit(name, monkeypatch):
    kernel, cfg, nodes = CONTOUR_CASES[name]
    expected = contour_fold_reference(kernel, 1.0, nodes, cfg)
    radii, solve = [], inversion._solve_section

    def spy(kernel, z, radius, cfg):
        radii.append(radius)
        return solve(kernel, z, radius, cfg)

    monkeypatch.setattr(inversion, "_solve_section", spy)
    assert_same_bytes(contour_inverse(kernel, 1.0, nodes, cfg), expected)
    assert radii == [cfg.radii[-1]] * nodes


def test_contour_sum_of_a_key_that_cancels_at_a_node(monkeypatch):
    # The node kernels at (1, 0) are 1, -1 and -0.0 + 0.5j, then absent.  The
    # fold drops the key once it cancels and restarts from -0.0 + 0.5j; the one
    # reduction adds that value to the zero block, which gives +0.0 + 0.5j.  So
    # the two agree in every key and value, and a bit differs only where both
    # coefficients are zero: here the real part at (1, 0).
    nodes = 8
    parts = [Kernel(Z8, 1, {((2,), (j,)): [[1.0 + j]]}) for j in range(nodes)]
    for j, v in enumerate([1.0, -1.0, complex(-0.0, 0.5)]):
        parts[j] = parts[j] + Kernel(Z8, 1, {((1,), (0,)): [[v]]})

    def crafted(kernel, z, radius, _cfg):
        j = round(cmath.phase(z) / (2 * math.pi / nodes)) % nodes
        return inversion.Section(radius, parts[j], radius, True, Z8.order, Z8.order, 1.0)

    monkeypatch.setattr(inversion, "_solve_section", crafted)
    kernel, cfg = _contour_case(Z8, 1)
    got = contour_inverse(kernel, 1.0, nodes, cfg)
    expected = contour_fold_reference(kernel, 1.0, nodes, cfg)
    assert [a.tobytes() for a in got.arrays[:2]] == [a.tobytes() for a in expected.arrays[:2]]
    got_parts, expected_parts = got.arrays[2].view(float), expected.arrays[2].view(float)
    assert np.array_equal(got_parts, expected_parts)
    differ = got_parts.view(np.int64) != expected_parts.view(np.int64)
    assert (got_parts[differ] == 0).all()


def test_contour_nodes_make_no_report_calls(monkeypatch):
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(inversion, "inverse_residual")
    counted(inversion, "fit_decay")
    counted(Envelope, "l1_distance")
    kernel, cfg, nodes = CONTOUR_CASES["Z-radii-4-8"]
    contour_inverse(kernel, 1.0, nodes, cfg)
    assert calls == []
    contour_fold_reference(kernel, 1.0, nodes, cfg)  # the wrappers do count
    assert {"inverse_residual", "fit_decay", "l1_distance"} <= set(calls)


def test_contour_node_fails_only_on_its_own_section():
    # -1 + S^2 on Z/8 at alpha = 1 (node 0): the section of radius 1 solves
    # only the window point 0, where alpha - 1 = 0; the whole group is the
    # invertible shift S^2.  finite_section_inverse fails at radius 1, which
    # it never returns; the node solves radius 4 alone.
    kernel = Kernel.identity(Z8, 1).scale(-1.0) + shift_kernel(Z8, 1, 1.0, step=(2,))
    cfg = InversionConfig(radii=(1, 4))
    with pytest.raises(SectionInversionError):
        finite_section_inverse(kernel, replace(cfg, z=1.0))
    assert_same_bytes(contour_inverse(kernel, 1.0, 16, cfg), contour_fold_reference(kernel, 1.0, 16, replace(cfg, radii=(4,))))


@pytest.mark.parametrize(
    "kernel,cfg",
    [
        geometric_shift_setup(),
        (hermitian_band(), InversionConfig(z=0.5j, radii=(6, 10, 14), inner_ratio=0.75)),
        (DECOUPLED_SECTIONS["band-H3(Z)"][0], InversionConfig(z=-2 + 1j, radii=(4, 6), inner_ratio=0.5)),
        (_contour_case(HeisenbergMod(3), 2)[0], InversionConfig(z=0.0, radii=(1, 2, 9))),
    ],
    ids=["shift-Z", "band-Z", "band-H3(Z)", "H3(Z/3)-covered"],
)
def test_section_solve_returns_the_finite_section_kernel(kernel, cfg):
    got, report = finite_section_inverse(kernel, cfg)
    section = inversion._solve_section(kernel, cfg.z, report.final.radius, cfg)
    assert_same_bytes(section.kernel, got)
    assert section.inner_radius == report.final.inner_radius
    assert section.full_group == report.final.full_group
    assert section.window_size <= section.solved
    assert 1.0 - 1e-12 <= section.condition <= cfg.condition_cap


# -- ideal projection ----------------------------------------------------------------


def exact_dyadic_kernel(radius=30):
    entries = {((s,), (0,)): np.array([[2.0 ** -abs(s)]]) for s in range(-radius, radius + 1)}
    return Kernel(Z, 1, entries)


def test_compact_support_covering_is_noop():
    kernel = exact_dyadic_kernel(radius=5)
    projected = ideal_project(kernel, kernel.min_envelope().restrict(5))
    assert projected.max_block_difference(kernel) == 0.0


def test_projection_error_is_geometric_shell_sum():
    kernel = exact_dyadic_kernel(radius=30)
    beta = kernel.min_envelope()
    for n in range(2, 11):
        support = beta.restrict(n)
        measured = (kernel - ideal_project(kernel, support)).envelope_norm()
        bound = beta.l1_distance(support)
        assert measured == bound
        analytic = 2.0 * (2.0**-n - 2.0**-30)
        assert abs(measured - analytic) <= 1e-15


def test_truncation_above_max_is_noop():
    kernel = exact_dyadic_kernel(radius=10)
    projected = ideal_project(kernel, kernel.min_envelope().cap(2.0))
    assert projected.max_block_difference(kernel) == 0.0


def test_truncation_caps_envelope():
    kernel = exact_dyadic_kernel(radius=4)
    projected = ideal_project(kernel, kernel.min_envelope().cap(0.25))
    env = projected.min_envelope()
    assert max(as_mapping(env).values()) <= 0.25
    # Entries below the cap are untouched.
    assert kernel_at(projected, (3,), (0,))[0, 0] == 2.0**-3


def test_nested_ideals_give_monotone_errors():
    kernel = exact_dyadic_kernel(radius=20)
    beta = kernel.min_envelope()
    errors = []
    for n in range(1, 12):
        projected = ideal_project(kernel, beta.restrict(n))
        errors.append((kernel - projected).envelope_norm())
    assert errors == sorted(errors, reverse=True)


def test_ideal_project_rejects_oversized_bound():
    kernel = exact_dyadic_kernel(radius=3)
    beta = kernel.min_envelope()
    oversized = beta.cap(1e9).convolve(beta)  # exceeds beta somewhere
    with pytest.raises(ValueError):
        ideal_project(kernel, oversized)


def test_ideal_bounds_refuse_negative_radius_and_level():
    beta = exact_dyadic_kernel(radius=3).min_envelope()
    with pytest.raises(ValueError, match="support radius must be nonnegative"):
        beta.restrict(-1)
    with pytest.raises(ValueError):
        beta.cap(-0.5)


# -- decay fitting -----------------------------------------------------------------


def test_fit_decay_recovers_geometric_rate():
    kernel, cfg = geometric_shift_setup()
    _inverse, report = finite_section_inverse(kernel, cfg)
    rate, r2 = fit_decay(report)
    assert abs(rate - math.log(0.5)) <= 0.02
    assert r2 > 0.999
    assert report.fitted_rate == rate


def test_fit_decay_refuses_empty_and_unstable_reports():
    _, report = finite_section_inverse(Kernel.zero(Z, 1), InversionConfig(z=2.0, radii=(4, 8)))
    with pytest.raises(ValueError):
        fit_decay(report)
    kernel, _ = geometric_shift_setup()
    _, narrow = finite_section_inverse(kernel, InversionConfig(z=1.0, radii=(12,)))
    with pytest.raises(ValueError):
        fit_decay(narrow)


def test_diagonally_dominant_band_has_negative_rate():
    kernel = hermitian_band()
    z = 1.0 + kernel.envelope_norm()
    cfg = InversionConfig(z=z, radii=(12, 24, 36), inner_ratio=0.5)
    inverse, report = finite_section_inverse(kernel, cfg)
    assert report.stabilized
    rate, r2 = fit_decay(report)
    assert rate < 0
    assert r2 > 0.99
    series, bound = neumann_inverse(kernel, z, terms=40)
    gap = (inverse - series).restrict_to_ball(report.final.inner_radius).envelope_norm()
    assert gap <= bound + cfg.stabilization_tol


def test_inverse_of_adjoint_is_adjoint_of_inverse():
    kernel = hermitian_band(weight=0.15 - 0.2j, diag=0.05)
    z = 1.0 + kernel.envelope_norm()
    cfg = InversionConfig(z=z, radii=(12, 24), inner_ratio=0.5)
    inv_adj, _ = finite_section_inverse(kernel.involution(), InversionConfig(z=np.conj(z), radii=(12, 24)))
    inv, _ = finite_section_inverse(kernel, cfg)
    gap = inv_adj.max_block_difference(inv.involution())
    assert gap <= 1e-8


def test_partial_sums_converge_for_decaying_envelope():
    kernel, cfg = geometric_shift_setup()
    _, report = finite_section_inverse(kernel, cfg)
    sums = report.final.kernel.min_envelope().shell_partial_sums()
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    increments = [b - a for a, b in zip(sums, sums[1:])]
    # Geometric tail: increments shrink by about a factor 2 per shell.
    for a, b in zip(increments[1:10], increments[2:11]):
        assert b <= 0.75 * a
