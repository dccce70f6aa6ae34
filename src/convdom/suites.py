"""Seeded property suites shared by the CLI tasks and the acceptance tests.

Each suite runs a batch of randomized trials and reports, per named
identity, the worst violation seen together with the tolerance it is held
to.  Violations are normalized by the operand norms, so the tolerances are
relative in the sense used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import (
    CovarianceElement,
    R_inverse,
    R_map,
    matrix_function_convolve,
    matrix_function_norm,
    pi_regular,
    symmetry_spectrum,
    theta_embed,
    W_intertwine,
    W_inverse,
)
from .generate import Profile, generate_kernel, random_covariance, random_test_vector
from .groups import Group
from .kernels import Kernel, TestVector, _join, _row_codes, section_operator_norm


@dataclass
class CheckResult:
    """Outcome of one named identity over a batch of trials."""

    name: str
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name:<40} worst={self.worst:.3e} tol={self.tolerance:.1e} {status}"


def _spawn(seed: int, count: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(count)


def _vec_distance(a: TestVector, b: TestVector) -> float:
    return (a - b).l2_norm()


def kernel_axiom_suite(
    group: Group,
    dim: int,
    seed: int,
    trials: int,
    tolerance: float = 1e-12,
    norm_slack: float = 1e-9,
) -> list[CheckResult]:
    """The kernel-algebra identities on seeded random triples.

    Covers associativity, anti-multiplicative involution, envelope
    submultiplicativity with pointwise domination, involution isometry, the
    representation property, section-norm contractivity, and commuting
    left/right translation actions (the last one exactly).
    """
    profile = Profile.exponential(rate=0.5, radius=1, t_radius=1)
    worst = {
        "associativity": 0.0,
        "involution_antimultiplicative": 0.0,
        "norm_submultiplicative": 0.0,
        "involution_isometric": 0.0,
        "representation_multiplicative": 0.0,
        "contractive_on_sections": 0.0,
        "translation_actions_commute": 0.0,
    }
    for ss in _spawn(seed, trials):
        seeds = ss.spawn(6)
        k1, _ = generate_kernel(group, dim, seeds[0], profile)
        k2, _ = generate_kernel(group, dim, seeds[1], profile)
        k3, _ = generate_kernel(group, dim, seeds[2], profile)
        vec = random_test_vector(group, dim, seeds[3], radius=1)
        n1, n2, n3 = k1.envelope_norm(), k2.envelope_norm(), k3.envelope_norm()

        scale = max(1.0, n1 * n2 * n3)
        diff = (k1.compose(k2)).compose(k3).max_block_difference(k1.compose(k2.compose(k3)))
        worst["associativity"] = max(worst["associativity"], diff / scale)

        scale = max(1.0, n1 * n2)
        k12 = k1.compose(k2)
        diff = k12.involution().max_block_difference(k2.involution().compose(k1.involution()))
        worst["involution_antimultiplicative"] = max(worst["involution_antimultiplicative"], diff / scale)

        over = (k12.envelope_norm() - n1 * n2) / scale
        conv_points, conv_values = k1.min_envelope().convolve(k2.min_envelope()).arrays
        s12, _, blocks = k12.arrays
        i, j = _join(*_row_codes(s12, conv_points))
        bound = np.zeros(len(blocks))
        bound[i] = conv_values[j]
        # np.linalg.norm(mat, 2) as per block, also for d = 1 (operator_norms takes hypot there).
        over = max([over, *((np.linalg.norm(blocks, 2, axis=(1, 2)) - bound) / scale).tolist()])
        worst["norm_submultiplicative"] = max(worst["norm_submultiplicative"], over)

        diff = abs(k1.involution().envelope_norm() - n1) / max(1.0, n1)
        worst["involution_isometric"] = max(worst["involution_isometric"], diff)

        scale = max(1.0, n1 * n2 * vec.l2_norm())
        diff = _vec_distance(k12.apply(vec), k1.apply(k2.apply(vec)))
        worst["representation_multiplicative"] = max(worst["representation_multiplicative"], diff / scale)

        over = section_operator_norm(k1, radius=3) - n1
        worst["contractive_on_sections"] = max(worst["contractive_on_sections"], over)

        rng = np.random.default_rng(seeds[4])
        points = group.ball(2)
        a = points[int(rng.integers(len(points)))]
        b = points[int(rng.integers(len(points)))]
        one = k1.conjugate_by_translation(a, "left").conjugate_by_translation(b, "right")
        two = k1.conjugate_by_translation(b, "right").conjugate_by_translation(a, "left")
        worst["translation_actions_commute"] = max(
            worst["translation_actions_commute"], one.max_block_difference(two)
        )

    tol = {name: tolerance for name in worst}
    tol["contractive_on_sections"] = norm_slack
    tol["translation_actions_commute"] = 0.0
    return [CheckResult(name, worst[name], tol[name]) for name in worst]


def covariance_suite(
    group: Group, dim: int, seed: int, trials: int, tolerance: float = 1e-12
) -> list[CheckResult]:
    """Covariance-algebra identities over a finite group.

    Checks the coordinate change to kernels (product, involution, norm,
    exact round trip), the regular representation (multiplicativity and
    adjoint compatibility), the unitary intertwiner, and the trivial-action
    embedding (homomorphism and isometry).
    """
    if not group.is_finite:
        raise ValueError("covariance suite needs a finite group")
    worst = {
        "R_multiplicative": 0.0,
        "R_involutive": 0.0,
        "R_isometric": 0.0,
        "R_round_trip": 0.0,
        "regular_rep_multiplicative": 0.0,
        "regular_rep_adjoint": 0.0,
        "intertwiner_unitary": 0.0,
        "intertwiner_diagram": 0.0,
        "embedding_homomorphism": 0.0,
        "embedding_isometric": 0.0,
    }
    for ss in _spawn(seed, trials):
        seeds = ss.spawn(5)
        f = random_covariance(group, dim, seeds[0])
        h = random_covariance(group, dim, seeds[1])
        xi = random_test_vector(group, dim, seeds[2], radius=group.diameter(), doubled=True)
        eta = random_test_vector(group, dim, seeds[3], radius=group.diameter(), doubled=True)
        nf, nh = f.l1_norm(), h.l1_norm()
        fh = f.product(h)

        scale = max(1.0, nf * nh)
        diff = R_map(fh).max_block_difference(R_map(f).compose(R_map(h)))
        worst["R_multiplicative"] = max(worst["R_multiplicative"], diff / scale)

        diff = R_map(f.involution()).max_block_difference(R_map(f).involution())
        worst["R_involutive"] = max(worst["R_involutive"], diff / max(1.0, nf))

        diff = abs(R_map(f).envelope_norm() - nf) / max(1.0, nf)
        worst["R_isometric"] = max(worst["R_isometric"], diff)

        worst["R_round_trip"] = max(worst["R_round_trip"], R_inverse(R_map(f)).max_block_difference(f))

        scale = max(1.0, nf * nh * xi.l2_norm())
        diff = _vec_distance(pi_regular(fh, xi), pi_regular(f, pi_regular(h, xi)))
        worst["regular_rep_multiplicative"] = max(worst["regular_rep_multiplicative"], diff / scale)

        scale = max(1.0, nf * xi.l2_norm() * eta.l2_norm())
        gap = abs(pi_regular(f, xi).inner(eta) - xi.inner(pi_regular(f.involution(), eta)))
        worst["regular_rep_adjoint"] = max(worst["regular_rep_adjoint"], gap / scale)

        w_xi = W_intertwine(xi)
        unitary_gap = abs(w_xi.l2_norm() - xi.l2_norm()) / max(1.0, xi.l2_norm())
        unitary_gap = max(unitary_gap, _vec_distance(W_inverse(w_xi), xi))
        worst["intertwiner_unitary"] = max(worst["intertwiner_unitary"], unitary_gap)

        scale = max(1.0, nf * xi.l2_norm())
        diff = _vec_distance(W_intertwine(R_map(f).apply_tensor(xi)), pi_regular(f, w_xi))
        worst["intertwiner_diagram"] = max(worst["intertwiner_diagram"], diff / scale)

        tf, th = theta_embed(f), theta_embed(h)
        tfh = theta_embed(fh)
        conv = matrix_function_convolve(tf, th, group)
        scale = max(1.0, nf * nh)
        gap = 0.0
        for x in sorted(set(tfh) | set(conv)):
            a = tfh.get(x)
            b = conv.get(x)
            if a is None:
                a = np.zeros_like(b)
            if b is None:
                b = np.zeros_like(a)
            gap = max(gap, float(np.linalg.norm(a - b, 2)))
        worst["embedding_homomorphism"] = max(worst["embedding_homomorphism"], gap / scale)

        diff = abs(matrix_function_norm(tf) - nf) / max(1.0, nf)
        worst["embedding_isometric"] = max(worst["embedding_isometric"], diff)

    tol = {name: tolerance for name in worst}
    tol["R_round_trip"] = 0.0
    return [CheckResult(name, worst[name], tol[name]) for name in worst]


def symmetry_suite(
    group: Group, dim: int, seed: int, trials: int, tolerance: float = 1e-9
) -> list[CheckResult]:
    """Spectral symmetry of f* f over a finite (nilpotent) group.

    For every seeded f the spectrum of f* f must sit on the nonnegative real
    axis up to the tolerance.
    """
    if not group.is_finite:
        raise ValueError("symmetry suite needs a finite group")
    worst_re = 0.0
    worst_im = 0.0
    for ss in _spawn(seed, trials):
        f = random_covariance(group, dim, ss)
        spectrum = symmetry_spectrum(f.involution().product(f))
        worst_re = max(worst_re, -float(np.min(spectrum.real)))
        worst_im = max(worst_im, float(np.max(np.abs(spectrum.imag))))
    return [
        CheckResult("positive_spectrum_min_real", worst_re, tolerance),
        CheckResult("positive_spectrum_max_imag", worst_im, tolerance),
    ]


def conjugation_suite(
    group: Group,
    dim: int,
    seed: int,
    trials: int,
    tolerance: float = 1e-12,
    point_radius: int = 3,
) -> list[CheckResult]:
    """Translation symmetries: exact norm invariance and the operator identity.

    Conjugating the kernel arguments on the right matches rho(a) T rho(a)^-1
    applied to test vectors, and likewise on the left with lambda(a).
    """
    profile = Profile.exponential(rate=0.5, radius=1, t_radius=2)
    worst_norm = 0.0
    worst_identity = 0.0
    for ss in _spawn(seed, trials):
        seeds = ss.spawn(3)
        kernel, _ = generate_kernel(group, dim, seeds[0], profile)
        vec = random_test_vector(group, dim, seeds[1], radius=2)
        rng = np.random.default_rng(seeds[2])
        points = group.ball(point_radius)
        a = points[int(rng.integers(len(points)))]
        a_inv = group.inverse(a)
        norm = kernel.envelope_norm()
        scale = max(1.0, norm * vec.l2_norm())
        for side in ("left", "right"):
            moved = kernel.conjugate_by_translation(a, side)
            worst_norm = max(worst_norm, abs(moved.envelope_norm() - norm))
            direct = moved.apply(vec)
            via_rep = kernel.apply(vec.translate(a_inv, side)).translate(a, side)
            worst_identity = max(worst_identity, _vec_distance(direct, via_rep) / scale)
    return [
        CheckResult("conjugation_norm_invariant", worst_norm, 0.0),
        CheckResult("conjugation_matches_translation", worst_identity, tolerance),
    ]
