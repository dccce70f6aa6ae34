"""Seeded kernel generation: profiles, determinism, envelope domination."""

import numpy as np
import pytest

from convdom import Cyclic, HeisenbergMod, IntegerLattice, generate_kernel, random_covariance, shift_kernel
from convdom.generate import Profile

from views import as_mapping, kernel_at

Z = IntegerLattice(1)
Z2 = IntegerLattice(2)


def test_exponential_radius_zero_is_diagonal():
    kernel, intended = generate_kernel(Z2, 2, seed=1, profile=Profile.exponential(0.5, 0, t_radius=2))
    assert {s for (s, _t) in as_mapping(kernel)} == {(0, 0)}
    assert list(as_mapping(intended)) == [(0, 0)]
    assert as_mapping(intended).get((0, 0), 0.0) == 1.0
    assert kernel.envelope_norm() <= 1.0


def test_min_envelope_dominated_by_intended_exactly():
    for seed in range(10):
        kernel, intended = generate_kernel(HeisenbergMod(3), 2, seed=seed, profile=Profile.exponential(0.5, 2))
        env, bound = as_mapping(kernel.min_envelope()), as_mapping(intended)
        for s in env:
            assert env.get(s, 0.0) <= bound.get(s, 0.0)


def test_banded_width_one_is_tridiagonal():
    kernel, intended = generate_kernel(Z, 1, seed=3, profile=Profile.banded(1, t_radius=4))
    assert {s for (s, _t) in as_mapping(kernel)} == {(-1,), (0,), (1,)}
    assert set(as_mapping(intended).values()) == {1.0}
    pts = Z.ball(4)
    dense = kernel.to_dense(pts)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if abs(x[0] - y[0]) > 1:
                assert dense[i, j] == 0.0


def test_polynomial_profile_values():
    profile = Profile.polynomial(2.0, 3)
    assert profile.value(0) == 1.0
    assert profile.value(1) == pytest.approx(0.25)
    assert profile.value(3) == pytest.approx(1.0 / 16.0)
    assert profile.value(4) == 0.0


def test_generation_is_deterministic():
    a, env_a = generate_kernel(Z2, 3, seed=11, profile=Profile.exponential(0.7, 1, t_radius=1))
    b, env_b = generate_kernel(Z2, 3, seed=11, profile=Profile.exponential(0.7, 1, t_radius=1))
    assert list(as_mapping(a)) == list(as_mapping(b))
    assert a.max_block_difference(b) == 0.0
    assert as_mapping(env_a) == as_mapping(env_b)
    c, _ = generate_kernel(Z2, 3, seed=12, profile=Profile.exponential(0.7, 1, t_radius=1))
    assert c.max_block_difference(a) > 0.0


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile.exponential(0.0, 2)
    with pytest.raises(ValueError):
        Profile.exponential(0.5, -1)
    with pytest.raises(ValueError):
        Profile.polynomial(-1.0, 2)
    with pytest.raises(ValueError):
        Profile.banded(-2)


def test_shift_kernel_layout():
    kernel = shift_kernel(Z, 2, 0.5 - 0.5j, t_radius=3)
    assert {s for (s, _t) in as_mapping(kernel)} == {(1,)}
    assert kernel_at(kernel, (1,), (0,))[0, 0] == 0.5 - 0.5j
    finite = shift_kernel(Cyclic(5), 1, 1.0)
    assert len(as_mapping(finite)) == 5


def test_random_covariance_deterministic_and_guarded():
    f = random_covariance(Cyclic(4), 2, seed=5)
    g = random_covariance(Cyclic(4), 2, seed=5)
    assert f.max_block_difference(g) == 0.0
    with pytest.raises(ValueError):
        random_covariance(Z, 1, seed=5)
