"""Translation-invariant kernels: one builder, ``Kernel.invariant``, for identity, shift, presets and contour.

The constructions that the builder replaced are kept here as references, and
every kernel the builder gives for them must equal theirs bit for bit.
"""

import json

import numpy as np
import pytest

from convdom import Cyclic, DiscreteHeisenberg, HeisenbergMod, IntegerLattice, Kernel, shift_kernel
from convdom.cli import TASK_DEFAULTS, _preset_kernel, main
from convdom.covariance import matrix_function_convolve, matrix_function_norm
from convdom.generate import shift_symbol
from convdom.kernels import _from_arrays, _pairs

INFINITE = [IntegerLattice(1), IntegerLattice(2), DiscreteHeisenberg()]
FINITE = [Cyclic(1), Cyclic(2), Cyclic(8), HeisenbergMod(3)]


def identity_reference(group, dim, window_radius=None):
    t = group.window(window_radius)
    eye = np.broadcast_to(np.eye(dim, dtype=complex), (len(t), dim, dim))
    return _from_arrays(Kernel, group, dim, (np.zeros_like(t), t), eye)


def shift_reference(group, dim, weight, step=None, t_radius=10):
    s = group.canonical(step) if step is not None else group.canonical((1,) + (0,) * (group.coord_len - 1))
    t = group.window(None if group.is_finite else t_radius)
    blocks = np.broadcast_to(complex(weight) * np.eye(dim, dtype=complex), (len(t), dim, dim))
    return _from_arrays(Kernel, group, dim, _pairs(group.canonical_many([s]), t), blocks)


def contour_reference(group, dim, scalar, weight):
    kernel = identity_reference(group, dim).scale(scalar)
    if weight:
        kernel = kernel + shift_reference(group, dim, weight)
    return kernel


def assert_same_bits(got, expected):
    """The same store arrays, byte for byte: -0.0 and 0.0 differ here."""
    for a, b in zip(got.arrays, expected.arrays, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("group", INFINITE + FINITE, ids=str)
def test_identity_and_shift_equal_their_old_constructions_bit_for_bit(group, dim):
    radius = None if group.is_finite else 3
    assert_same_bits(Kernel.identity(group, dim, radius), identity_reference(group, dim, radius))
    if not group.is_finite:
        assert_same_bits(Kernel.identity(group, dim, 0), identity_reference(group, dim, 0))
    for weight in (0.5, -0.3, 0.4 - 0.7j, 0.0):
        assert_same_bits(shift_kernel(group, dim, weight, t_radius=3), shift_reference(group, dim, weight, t_radius=3))
    step = group.generators()[-1] if group.generators() else None
    assert_same_bits(shift_kernel(group, dim, -0.25, step, 2), shift_reference(group, dim, -0.25, step, 2))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("group", FINITE + [Cyclic(5)], ids=str)
def test_contour_kernel_equals_its_old_construction_bit_for_bit(group, dim):
    for scalar, weight in ((2.0, 0.3), (-2.0, 0.3), (2.0, 0.0), (-2.0, 0.0), (-1.5, -0.4), (0.0, 0.3)):
        got = Kernel.invariant(group, shift_symbol(group, dim, weight, scalar))
        assert_same_bits(got, contour_reference(group, dim, scalar, weight))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("group", FINITE, ids=str)
def test_hermitian_band_on_a_finite_group_equals_the_band_plus_its_involution(group, dim):
    for weight in (0.3, -0.3, 1.0):
        params = {**TASK_DEFAULTS["invert"], "preset": "hermitian_band", "weight": weight}
        base = shift_reference(group, dim, weight)
        assert_same_bits(_preset_kernel(params, group, dim, 4), base + base.involution())


@pytest.mark.parametrize("dim", [1, 2])
def test_hermitian_band_diagonal_on_a_finite_group_fills_every_column(dim):
    """The old diagonal, ``Kernel.identity`` on ball(max(radii)), missed the columns outside that ball."""
    group = Cyclic(100)  # diameter 50, beyond the window radius 8
    params = {**TASK_DEFAULTS["invert"], "preset": "hermitian_band", "weight": 0.3, "diag": 0.25}
    base = shift_reference(group, dim, 0.3)
    expected = base + base.involution() + identity_reference(group, dim).scale(0.25)
    assert_same_bits(_preset_kernel(params, group, dim, 8), expected)
    assert len(identity_reference(group, dim, 8).arrays[1]) == 17


@pytest.mark.parametrize("group", [Cyclic(5), HeisenbergMod(3)], ids=str)
def test_invariant_kernels_compose_as_their_symbols_convolve(group):
    rng = np.random.default_rng(11)
    points = group.window()

    def symbol(count):
        chosen = points[np.sort(rng.choice(len(points), count, replace=False))]
        return chosen, rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))

    for _ in range(3):
        a, b = symbol(3), symbol(4)
        product = Kernel.invariant(group, a).compose(Kernel.invariant(group, b))
        expected = Kernel.invariant(group, matrix_function_convolve(a, b, group))
        scale = matrix_function_norm(a) * matrix_function_norm(b)
        assert product.max_block_difference(expected) <= 1e-12 * scale


def test_invariant_sums_the_blocks_at_one_point_in_order():
    group = Cyclic(4)
    a, b, c = (np.array([[x]], dtype=complex) for x in (1e16, 1.0, -1e16))
    points = np.array([[1], [5], [1]])  # one point, written twice as 1 and once as 5
    kernel = Kernel.invariant(group, (points, np.stack([a, c, b])))
    assert np.array_equal(kernel.arrays[2], np.repeat(((a + c) + b)[None], 4, axis=0))
    # (a + b) + c is 0: the 1.0 is lost to rounding, and the zero sum is dropped.
    assert len(Kernel.invariant(group, (points, np.stack([a, b, c]))).arrays[2]) == 0


def test_invariant_refuses_a_malformed_symbol_and_the_whole_infinite_group():
    with pytest.raises(ValueError, match="blocks of shape"):
        Kernel.invariant(Cyclic(3), (np.array([[0], [1]]), np.ones((1, 2, 2))))
    with pytest.raises(ValueError, match="blocks of shape"):
        Kernel.invariant(Cyclic(3), (np.array([[0]]), np.ones((1, 2, 3))))
    with pytest.raises(ValueError, match="infinite"):
        Kernel.invariant(IntegerLattice(1), (np.array([[0]]), np.ones((1, 1, 1))))


@pytest.mark.parametrize("group", INFINITE, ids=str)
@pytest.mark.parametrize("preset,diag", [("shift", 0.0), ("shift", 0.5), ("hermitian_band", 0.0), ("hermitian_band", 0.5)])
def test_preset_columns_are_exactly_the_window_of_the_largest_radius(group, preset, diag):
    params = {**TASK_DEFAULTS["invert"], "preset": preset, "weight": 0.3, "diag": diag}
    kernel = _preset_kernel(params, group, 1, 4)
    _s, t, _blocks = kernel.arrays
    window = group.window(4)
    assert np.array_equal(np.unique(t, axis=0), window[np.lexsort(window.T[::-1])])
    # Every column holds the same blocks: the symbol's.
    symbol = shift_symbol(group, 1, 0.3, diag, preset == "hermitian_band")
    assert len(kernel.arrays[2]) == len(symbol[0]) * len(window)


def test_hermitian_band_sections_agree_with_the_band_plus_its_involution():
    """Inside ball(max(radii)) the old construction had the same entries; only its shifted columns differ."""
    group = IntegerLattice(2)
    params = {**TASK_DEFAULTS["invert"], "preset": "hermitian_band", "weight": 0.3 - 0.1j, "diag": 0.25}
    kernel = _preset_kernel(params, group, 2, 5)
    base = shift_reference(group, 2, 0.3 - 0.1j, t_radius=5)
    old = base + base.involution() + identity_reference(group, 2, 5).scale(0.25)
    for radius in (1, 3, 5):
        points = group.window(radius)
        assert np.array_equal(kernel.to_dense(points), old.to_dense(points))


@pytest.mark.parametrize(
    "config",
    [
        {"group": "Z", "preset": "hermitian_band", "weight": 0.3, "z": 1, "radii": [4, 8]},
        {"group": "Z^2", "preset": "hermitian_band", "weight": 0.2, "z": 1, "radii": [6, 8, 10]},
        {"group": "H3(Z)", "preset": "hermitian_band", "weight": 0.2, "z": 1.5, "radii": [4, 6]},
    ],
    ids=["Z", "Z^2", "H3(Z)"],
)
def test_hermitian_band_passes_the_neumann_cross_check(tmp_path, capsys, config):
    """The band's columns lie in ball(max(radii)), so Neumann paths stay inside the final section."""
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    main(["decay", "--config", str(tmp_path / "cfg.json")])
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("neumann_cross_check")]
    assert line.endswith(" pass")
    assert float(line.split("worst=")[1].split()[0]) < 1e-12
