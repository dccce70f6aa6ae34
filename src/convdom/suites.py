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


class _Worst(dict):
    """The worst value seen of each check, from 0.0, in the order the checks are first seen."""

    def see(self, name: str, value: float) -> None:
        self[name] = max(self.get(name, 0.0), value)

    def results(self, tolerance: float, **exact: float) -> list[CheckResult]:
        """One result per check, held to ``tolerance`` or to its own value in ``exact``."""
        return [CheckResult(name, worst, exact.get(name, tolerance)) for name, worst in self.items()]


def _spawn(seed: int, count: int) -> list[np.random.SeedSequence]:
    if count < 1:
        raise ValueError(f"trials must be at least 1, got {count}")
    return np.random.SeedSequence(seed).spawn(count)


def _vec_distance(a: TestVector, b: TestVector) -> float:
    return (a - b).l2_norm()


def kernel_axiom_suite(
    group: Group, dim: int, seed: int, trials: int, tolerance: float = 1e-12
) -> list[CheckResult]:
    """The kernel-algebra identities on seeded random triples.

    Covers associativity, anti-multiplicative involution, envelope
    submultiplicativity with pointwise domination, involution isometry, the
    representation property, section-norm contractivity (to 1e-9), and
    commuting left/right translation actions (exactly).
    """
    profile = Profile.exponential(rate=0.5, radius=1, t_radius=1)
    worst = _Worst()
    for ss in _spawn(seed, trials):
        seeds = ss.spawn(6)
        k1, _ = generate_kernel(group, dim, seeds[0], profile)
        k2, _ = generate_kernel(group, dim, seeds[1], profile)
        k3, _ = generate_kernel(group, dim, seeds[2], profile)
        vec = random_test_vector(group, dim, seeds[3], radius=1)
        n1, n2, n3 = k1.envelope_norm(), k2.envelope_norm(), k3.envelope_norm()
        k12, k1_star = k1.compose(k2), k1.involution()

        scale = max(1.0, n1 * n2 * n3)
        diff = k12.compose(k3).max_block_difference(k1.compose(k2.compose(k3)))
        worst.see("associativity", diff / scale)

        scale = max(1.0, n1 * n2)
        diff = k12.involution().max_block_difference(k2.involution().compose(k1_star))
        worst.see("involution_antimultiplicative", diff / scale)

        over = (k12.envelope_norm() - n1 * n2) / scale
        conv_points, conv_values = k1.min_envelope().convolve(k2.min_envelope()).arrays
        s12, _, blocks = k12.arrays
        i, j = _join(*_row_codes(s12, conv_points))
        bound = np.zeros(len(blocks))
        bound[i] = conv_values[j]
        # np.linalg.norm(mat, 2) as per block, also for d = 1 (operator_norms takes hypot there).
        over = max([over, *((np.linalg.norm(blocks, 2, axis=(1, 2)) - bound) / scale).tolist()])
        worst.see("norm_submultiplicative", over)

        worst.see("involution_isometric", abs(k1_star.envelope_norm() - n1) / max(1.0, n1))

        scale = max(1.0, n1 * n2 * vec.l2_norm())
        diff = _vec_distance(k12.apply(vec), k1.apply(k2.apply(vec)))
        worst.see("representation_multiplicative", diff / scale)

        worst.see("contractive_on_sections", section_operator_norm(k1, radius=3) - n1)

        rng = np.random.default_rng(seeds[4])
        points = group.window(2)
        a = points[int(rng.integers(len(points)))]
        b = points[int(rng.integers(len(points)))]
        one = k1.conjugate_by_translation(a, "left").conjugate_by_translation(b, "right")
        two = k1.conjugate_by_translation(b, "right").conjugate_by_translation(a, "left")
        worst.see("translation_actions_commute", one.max_block_difference(two))

    return worst.results(tolerance, contractive_on_sections=1e-9, translation_actions_commute=0.0)


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
    worst = _Worst()
    for ss in _spawn(seed, trials):
        seeds = ss.spawn(5)
        f = random_covariance(group, dim, seeds[0])
        h = random_covariance(group, dim, seeds[1])
        xi = random_test_vector(group, dim, seeds[2], radius=group.diameter(), doubled=True)
        eta = random_test_vector(group, dim, seeds[3], radius=group.diameter(), doubled=True)
        nf, nh = f.l1_norm(), h.l1_norm()
        fh, rf, f_star = f.product(h), R_map(f), f.involution()

        scale = max(1.0, nf * nh)
        diff = R_map(fh).max_block_difference(rf.compose(R_map(h)))
        worst.see("R_multiplicative", diff / scale)

        diff = R_map(f_star).max_block_difference(rf.involution())
        worst.see("R_involutive", diff / max(1.0, nf))

        worst.see("R_isometric", abs(rf.envelope_norm() - nf) / max(1.0, nf))

        worst.see("R_round_trip", R_inverse(rf).max_block_difference(f))

        scale = max(1.0, nf * nh * xi.l2_norm())
        diff = _vec_distance(pi_regular(fh, xi), pi_regular(f, pi_regular(h, xi)))
        worst.see("regular_rep_multiplicative", diff / scale)

        scale = max(1.0, nf * xi.l2_norm() * eta.l2_norm())
        gap = abs(pi_regular(f, xi).inner(eta) - xi.inner(pi_regular(f_star, eta)))
        worst.see("regular_rep_adjoint", gap / scale)

        w_xi = W_intertwine(xi)
        unitary_gap = abs(w_xi.l2_norm() - xi.l2_norm()) / max(1.0, xi.l2_norm())
        worst.see("intertwiner_unitary", max(unitary_gap, _vec_distance(W_inverse(w_xi), xi)))

        scale = max(1.0, nf * xi.l2_norm())
        diff = _vec_distance(W_intertwine(rf.apply(xi)), pi_regular(f, w_xi))
        worst.see("intertwiner_diagram", diff / scale)

        tf, th = theta_embed(f), theta_embed(h)
        tfh = theta_embed(fh)
        conv = matrix_function_convolve(tf, th, group)
        gaps = (float(np.linalg.norm(tfh.get(x, 0.0) - conv.get(x, 0.0), 2)) for x in sorted(set(tfh) | set(conv)))
        worst.see("embedding_homomorphism", max([0.0, *gaps]) / max(1.0, nf * nh))

        worst.see("embedding_isometric", abs(matrix_function_norm(tf) - nf) / max(1.0, nf))

    return worst.results(tolerance, R_round_trip=0.0)


def symmetry_suite(
    group: Group, dim: int, seed: int, trials: int, tolerance: float = 1e-9
) -> list[CheckResult]:
    """Spectral symmetry of f* f over a finite (nilpotent) group.

    For every seeded f the spectrum of f* f must sit on the nonnegative real
    axis up to the tolerance.
    """
    if not group.is_finite:
        raise ValueError("symmetry suite needs a finite group")
    worst = _Worst()
    for ss in _spawn(seed, trials):
        f = random_covariance(group, dim, ss)
        spectrum = symmetry_spectrum(f.involution().product(f))
        worst.see("positive_spectrum_min_real", -float(np.min(spectrum.real)))
        worst.see("positive_spectrum_max_imag", float(np.max(np.abs(spectrum.imag))))
    return worst.results(tolerance)


def conjugation_suite(
    group: Group, dim: int, seed: int, trials: int, tolerance: float = 1e-12
) -> list[CheckResult]:
    """Translation symmetries: exact norm invariance and the operator identity.

    Conjugating the kernel arguments on the right matches rho(a) T rho(a)^-1
    applied to test vectors, and likewise on the left with lambda(a), for
    points a of the ball of radius 3.
    """
    profile = Profile.exponential(rate=0.5, radius=1, t_radius=2)
    worst = _Worst()
    for ss in _spawn(seed, trials):
        seeds = ss.spawn(3)
        kernel, _ = generate_kernel(group, dim, seeds[0], profile)
        vec = random_test_vector(group, dim, seeds[1], radius=2)
        rng = np.random.default_rng(seeds[2])
        points = group.window(3)
        a = points[int(rng.integers(len(points)))]
        a_inv = group.inverse(a)
        norm = kernel.envelope_norm()
        scale = max(1.0, norm * vec.l2_norm())
        for side in ("left", "right"):
            moved = kernel.conjugate_by_translation(a, side)
            worst.see("conjugation_norm_invariant", abs(moved.envelope_norm() - norm))
            direct = moved.apply(vec)
            via_rep = kernel.apply(vec.translate(a_inv, side)).translate(a, side)
            worst.see("conjugation_matches_translation", _vec_distance(direct, via_rep) / scale)
    return worst.results(tolerance, conjugation_norm_invariant=0.0)
