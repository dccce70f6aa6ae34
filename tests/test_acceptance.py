"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Tolerances are fixed here and are not calibration knobs.
"""

import itertools
import math
import time

import numpy as np

from convdom import (
    CovarianceElement,
    Cyclic,
    DiscreteHeisenberg,
    HeisenbergMod,
    IntegerLattice,
    InversionConfig,
    Kernel,
    R_inverse,
    R_map,
    W_intertwine,
    contour_inverse,
    finite_section_inverse,
    fit_decay,
    generate_kernel,
    ideal_project,
    neumann_inverse,
    pi_regular,
    random_covariance,
    section_operator_norm,
    shift_kernel,
)
from convdom.generate import Profile
from convdom.suites import conjugation_suite, kernel_axiom_suite, symmetry_suite

from views import as_mapping, basis, kernel_at

Z = IntegerLattice(1)
Z2 = IntegerLattice(2)


def _finish(name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: {failures[:5]}"


def test_criterion_01_algebra_axiom_suite():
    failures = []
    start = time.perf_counter()
    trials = 0
    for group in (Z2, HeisenbergMod(3)):
        for dim in (1, 2, 3):
            results = kernel_axiom_suite(group, dim, seed=7, trials=17, tolerance=1e-12)
            trials += 17
            failures += [r.line() for r in results if not r.passed]
    elapsed = time.perf_counter() - start
    assert trials >= 100
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish("1 algebra axioms (Z^2, H3(Z/3), d=1..3, 102 triples, <30s)", failures)


def test_criterion_02_contractive_representation():
    failures = []
    combos = [
        (Z, 1), (Z, 2), (Z2, 1), (Z2, 2), (Cyclic(6), 1),
        (Cyclic(6), 3), (DiscreteHeisenberg(), 1), (DiscreteHeisenberg(), 2),
        (HeisenbergMod(3), 2), (Cyclic(5), 2),
    ]
    cases = 0
    for (group, dim), seed in itertools.product(combos, range(5)):
        kernel, _ = generate_kernel(group, dim, 1000 + cases, Profile.exponential(0.6, 1, t_radius=1))
        estimate = section_operator_norm(kernel, radius=3)
        if estimate > kernel.envelope_norm() + 1e-9:
            failures.append(f"{group.name} d={dim} seed={seed}: {estimate} > {kernel.envelope_norm()}")
        cases += 1
    assert cases == 50
    _finish("2 contractive representation (50 seeded cases)", failures)


def test_criterion_03_R_isomorphism_exhaustive():
    group, dim = Cyclic(5), 2
    pts = group.ball()
    failures = []
    basis = []
    for x in pts:
        for y in pts:
            for i in range(dim):
                for j in range(dim):
                    mat = np.zeros((dim, dim), dtype=complex)
                    mat[i, j] = 1.0
                    basis.append(CovarianceElement(group, dim, {(x, y): mat}))
    images = [R_map(e) for e in basis]
    for e, image in zip(basis, images):
        if R_inverse(image).max_block_difference(e) != 0.0:
            failures.append("round trip not exact")
        if image.envelope_norm() != e.l1_norm():
            failures.append("norm not preserved on basis")
        if R_map(e.involution()).max_block_difference(image.involution()) > 1e-12:
            failures.append("involution not preserved on basis")
    for (e1, m1), (e2, m2) in itertools.product(zip(basis, images), repeat=2):
        diff = R_map(e1.product(e2)).max_block_difference(m1.compose(m2))
        if diff > 1e-12:
            failures.append(f"product gap {diff}")
            break
    for seed in range(5):
        f = random_covariance(group, dim, seed=seed)
        if R_inverse(R_map(f)).max_block_difference(f) != 0.0:
            failures.append("random round trip not exact")
    _finish("3 R isomorphism on Z/5, d=2 (exhaustive basis)", failures)


def test_criterion_04_intertwining_diagram():
    group, dim = Cyclic(4), 2
    pts = group.ball()
    failures = []
    vectors = [
        basis(group, dim, (x, z), i, doubled=True)
        for x in pts for z in pts for i in range(dim)
    ]
    for seed in range(5):
        f = random_covariance(group, dim, seed=40 + seed)
        kernel = R_map(f)
        scale = max(1.0, f.l1_norm())
        for xi in vectors:
            gap = (W_intertwine(kernel.apply(xi)) - pi_regular(f, W_intertwine(xi))).l2_norm()
            if gap > 1e-12 * scale:
                failures.append(f"seed {seed}: diagram gap {gap}")
    _finish("4 intertwining W (Z/4, d=2, full basis)", failures)


def test_criterion_05_embedding_homomorphism_isometry():
    from convdom.covariance import matrix_function_convolve, matrix_function_norm, theta_embed

    def as_mapping(pair):
        points, blocks = pair
        return dict(zip(map(tuple, points.tolist()), blocks))

    group = Cyclic(3)
    failures = []
    for dim in (1, 2):
        for seed in range(25):
            f = random_covariance(group, dim, seed=500 + seed)
            h = random_covariance(group, dim, seed=600 + seed)
            tf, th = theta_embed(f), theta_embed(h)
            conv = as_mapping(matrix_function_convolve(tf, th, group))
            tfh = as_mapping(theta_embed(f.product(h)))
            scale = max(1.0, f.l1_norm() * h.l1_norm())
            for x in group.ball():
                a = tfh.get(x, np.zeros_like(conv[x]))
                if np.linalg.norm(a - conv[x], 2) > 1e-12 * scale:
                    failures.append(f"d={dim} seed={seed}: homomorphism gap at {x}")
            if abs(matrix_function_norm(tf) - f.l1_norm()) > 1e-12 * max(1.0, f.l1_norm()):
                failures.append(f"d={dim} seed={seed}: isometry gap")
    _finish("5 trivial-action embedding (Z/3, d=1,2, 50 pairs)", failures)


def test_criterion_06_symmetry_spectra():
    failures = []
    for group, trials in ((Cyclic(3), 34), (Cyclic(4), 33), (HeisenbergMod(3), 33)):
        results = symmetry_suite(group, 2, seed=11, trials=trials, tolerance=1e-9)
        failures += [f"{group.name}: {r.line()}" for r in results if not r.passed]
    _finish("6 symmetry of f*f spectra (Z/3, Z/4, H3(Z/3), 100 seeded)", failures)


def test_criterion_07_wiener_decay_witness():
    failures = []
    start = time.perf_counter()
    kernel = shift_kernel(Z, 1, 0.5, t_radius=45)
    cfg = InversionConfig(z=1.0, radii=(10, 20, 30, 40), inner_ratio=0.5)
    inverse, report = finite_section_inverse(kernel, cfg)
    env = as_mapping(report.final.kernel.min_envelope())
    for n in range(1, 21):
        if abs(env.get((n,), 0.0) - 0.5**n) > 1e-8:
            failures.append(f"envelope at {n}: {env.get((n,), 0.0)}")
        if abs(kernel_at(inverse, (n,), (0,))[0, 0] - (-0.5) ** n) > 1e-8:
            failures.append(f"kernel value at shift {n}")
    if not report.stabilized:
        failures.append("not stabilized")
    rate, r2 = fit_decay(report)
    if abs(rate - math.log(0.5)) > 0.02:
        failures.append(f"rate {rate} vs {math.log(0.5)}")
    if r2 <= 0.999:
        failures.append(f"r2 {r2}")
    sums = report.final.kernel.min_envelope().shell_partial_sums()
    if not all(b >= a for a, b in zip(sums, sums[1:])):
        failures.append("partial sums not monotone")
    increments = [b - a for a, b in zip(sums, sums[1:])]
    if not all(b <= 0.75 * a for a, b in zip(increments[1:10], increments[2:11])):
        failures.append("partial sums not geometrically convergent")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _finish("7 Wiener decay witness (c=0.5 shift, z=1, radius 40, <10s)", failures)


def test_criterion_08_oracle_equivalence():
    failures = []
    cases = 0
    for i in range(7):
        target_q = (0.3, 0.45)[i % 2]
        dim = 1 + (i % 2)
        kernel, _ = generate_kernel(Z, dim, 8000 + i, Profile.banded(1, t_radius=40))
        kernel = kernel.scale(target_q / kernel.envelope_norm())
        cfg = InversionConfig(z=1.0, radii=(12, 24, 36), inner_ratio=0.5, stabilization_tol=1e-6)
        section, report = finite_section_inverse(kernel, cfg)
        series, bound = neumann_inverse(kernel, 1.0, terms=25)
        gap = (section - series).restrict_to_ball(report.final.inner_radius).envelope_norm()
        if not report.stabilized:
            failures.append(f"Z case {i}: not stabilized")
        if gap > bound + cfg.stabilization_tol:
            failures.append(f"Z case {i}: gap {gap} > {bound + cfg.stabilization_tol}")
        cases += 1
    for i in range(7):
        target_q = (0.3, 0.4)[i % 2]
        kernel, _ = generate_kernel(Z2, 1, 9000 + i, Profile.banded(1, t_radius=8))
        kernel = kernel.scale(target_q / kernel.envelope_norm())
        cfg = InversionConfig(z=1.0, radii=(4, 6, 8), inner_ratio=0.5, stabilization_tol=1e-6)
        section, report = finite_section_inverse(kernel, cfg)
        series, bound = neumann_inverse(kernel, 1.0, terms=10)
        gap = (section - series).restrict_to_ball(report.final.inner_radius).envelope_norm()
        if not report.stabilized:
            failures.append(f"Z^2 case {i}: not stabilized")
        if gap > bound + cfg.stabilization_tol:
            failures.append(f"Z^2 case {i}: gap {gap} > {bound + cfg.stabilization_tol}")
        cases += 1
    # Six more quick scalar-weight cases on Z with varying z.
    for i, z in enumerate((1.0, 1.5j, -2.0, 2.0 + 1.0j, -1.0j, 3.0)):
        kernel = shift_kernel(Z, 1, 0.4, t_radius=30)
        cfg = InversionConfig(z=z, radii=(10, 20, 28), inner_ratio=0.5, stabilization_tol=1e-6)
        section, report = finite_section_inverse(kernel, cfg)
        series, bound = neumann_inverse(kernel, z, terms=30)
        gap = (section - series).restrict_to_ball(report.final.inner_radius).envelope_norm()
        if gap > bound + cfg.stabilization_tol:
            failures.append(f"shift z={z}: gap {gap}")
        cases += 1
    assert cases == 20
    _finish("8 oracle equivalence (20 banded cases on Z, Z^2)", failures)


def test_criterion_09_contour_functional_calculus():
    failures = []
    group = Cyclic(8)
    scalar = Kernel.identity(group, 1).scale(2.0)
    cfg = InversionConfig(radii=(4,))
    inverse = contour_inverse(scalar, radius_eps=1.0, nodes=64, cfg=cfg)
    gap = inverse.max_block_difference(Kernel.identity(group, 1).scale(0.5))
    if gap > 1e-10:
        failures.append(f"scalar case gap {gap}")
    banded = Kernel.identity(group, 1).scale(2.0) + shift_kernel(group, 1, 0.4)
    direct, _ = finite_section_inverse(banded, cfg)
    cross = contour_inverse(banded, radius_eps=1.0, nodes=64, cfg=cfg).max_block_difference(direct)
    if cross > 1e-6:
        failures.append(f"cross-method gap {cross}")
    _finish("9 contour functional calculus (scalar 1e-10, cross 1e-6)", failures)


def test_criterion_10_ideal_approximation():
    failures = []
    entries = {((s,), (0,)): np.array([[2.0 ** -abs(s)]]) for s in range(-30, 31)}
    kernel = Kernel(Z, 1, entries)
    beta = kernel.min_envelope()
    for n in range(2, 11):
        support = beta.restrict(n)
        projected = ideal_project(kernel, support)
        measured = (kernel - projected).envelope_norm()
        bound = beta.l1_distance(support)
        if measured > bound + 1e-12:
            failures.append(f"n={n}: measured {measured} above bound {bound}")
        shell_sum = 2.0 * (2.0**-n - 2.0**-30)
        if abs(measured - shell_sum) > 1e-12:
            failures.append(f"n={n}: {measured} != geometric {shell_sum}")
    _finish("10 ideal approximation (beta=2^-|s|, n=2..10)", failures)


def test_criterion_11_translation_symmetries():
    failures = []
    for group in (Z2, DiscreteHeisenberg()):
        results = conjugation_suite(group, 2, seed=13, trials=25, tolerance=1e-12)
        failures += [f"{group.name}: {r.line()}" for r in results if not r.passed]
    _finish("11 translation symmetries (50 seeded (K, a) pairs)", failures)
