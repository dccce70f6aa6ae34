"""Finite-section inversion experiments and envelope-decay reporting.

The central question is quantitative: when z + T_K is inverted, does the
inverse kernel again carry a summable envelope, and how fast does it decay?
This module inverts growing ball truncations on an inner window only (an
outer-to-inner Schur sweep over slabs of shells, Petersen et al., J. Comput.
Phys. 227, 2008), which discards boundary-contaminated entries, and reports
the envelope per radius together with stabilization and residual diagnostics.
Two independent cross-checks are provided: a Neumann-series oracle (valid
when the envelope norm is beaten by |z|) and holomorphic functional calculus
via contour quadrature of resolvents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .kernels import Envelope, Kernel, _join, _row_codes, _stores_sum, _subset


class SectionInversionError(RuntimeError):
    """A ball truncation was singular or beyond the condition cap.

    This reports "not invertible at this scale"; genuine numerical failures
    surface as other exception types.
    """

    def __init__(self, radius: int, condition: float) -> None:
        self.radius = radius
        self.condition = condition
        super().__init__(f"section at radius {radius} not invertible (condition estimate {condition:.3e})")


class ContourNodeError(RuntimeError):
    """A quadrature node failed to produce an invertible section."""

    def __init__(self, node: int, alpha: complex) -> None:
        self.node = node
        self.alpha = alpha
        super().__init__(f"contour node {node} (alpha={alpha:.6g}) is not invertible at scale")


@dataclass(frozen=True)
class InversionConfig:
    """Parameters of a finite-section inversion run.

    z is the unitization coefficient: the inverted element is z + T_K and the
    returned kernel is the non-scalar part of its inverse.
    """

    z: complex = 0j
    radii: tuple[int, ...] = (8, 16, 24)
    inner_ratio: float = 0.5
    stabilization_tol: float = 1e-8
    condition_cap: float = 1e12

    def __post_init__(self) -> None:
        radii = tuple(int(r) for r in self.radii)
        if not radii:
            raise ValueError("at least one truncation radius is required")
        if any(r < 0 for r in radii):
            raise ValueError("radii must be nonnegative")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "z", complex(self.z))
        if not 0.0 < self.inner_ratio <= 1.0:
            raise ValueError("inner_ratio must lie in (0, 1]")
        if not self.stabilization_tol > 0 or not self.condition_cap > 0:  # NaN fails too
            raise ValueError("tolerances must be positive")


def _add_scaled_identity(mat: np.ndarray, scaled: np.ndarray) -> None:
    """Add, in place, the matrix with scaled[1] on the diagonal and scaled[0] off it.

    ``scaled`` is ``c * [0, 1]`` or ``[0, 1] / c`` as numpy computes it, so the
    sum equals ``mat + c * np.eye(n)`` (or ``np.eye(n) / c``) bit for bit:
    adding the off-diagonal zero everywhere keeps that form's signed zeros,
    without its n x n temporaries.
    """
    diagonal = np.diag_indices_from(mat)
    on = mat[diagonal] + scaled[1]
    mat += scaled[0]
    mat[diagonal] = on


def _pivot_inverse(block: np.ndarray, radius: int, condition_cap: float) -> np.ndarray:
    """Inverse of one elimination pivot, refused when its exact 1-norm condition passes the cap."""
    try:
        inv = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        raise SectionInversionError(radius, math.inf) from None
    condition = float(np.linalg.norm(block, 1) * np.linalg.norm(inv, 1))
    if not math.isfinite(condition) or condition > condition_cap:
        raise SectionInversionError(radius, condition)
    return inv


def _sweep_solve(pivots: list, couplings: list, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by the sweep's pivots S_j^-1 and couplings (A_j-1,j, A_j,j-1).

    Lists and vectors run from the outermost slab inwards.
    """
    c = np.split(b, np.cumsum([len(p) for p in pivots])[:-1])
    for i, (up, _down) in enumerate(couplings):
        c[i + 1] = c[i + 1] - up @ (pivots[i] @ c[i])
    x = [pivots[-1] @ c[-1]]
    for i in reversed(range(len(couplings))):
        x.append(pivots[i] @ (c[i] - couplings[i][1] @ x[-1]))
    return np.concatenate(x[::-1])


def _inverse_norm_estimate(pivots: list, couplings: list) -> float:
    """Hager's lower estimate of ||A^-1||_1, by solves with A and A^H.

    The one-column form of Higham & Tisseur (2000), with Higham's alternating
    vector as a second lower bound.
    """
    adjoint = ([p.conj().T for p in pivots], [(down.conj().T, up.conj().T) for up, down in couplings])
    n = sum(len(p) for p in pivots)
    x = np.full(n, 1.0 / n, dtype=complex)
    best = 0.0
    for _ in range(5):
        y = _sweep_solve(pivots, couplings, x)
        if (norm := float(np.abs(y).sum())) <= best:
            break
        best = norm
        w = _sweep_solve(*adjoint, np.divide(y, np.abs(y), out=np.ones(n, complex), where=y != 0))
        j = int(np.argmax(np.abs(w)))
        if abs(w[j]) <= np.vdot(w, x).real:
            break
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
    alt = np.linspace(1.0, 2.0, n) * (-1.0) ** np.arange(n)
    return max(best, float(np.abs(_sweep_solve(pivots, couplings, alt)).sum() / np.abs(alt).sum()))


def _window_inverse(
    kernel: Kernel, z: complex, points: np.ndarray, edges: list[int], radius: int, condition_cap: float
) -> tuple[np.ndarray, float]:
    """(z + T_K)^-1 on the window of a ball section, by an outer-to-inner Schur sweep.

    ``edges`` cut the ball-ordered points into the window points[:edges[1]]
    and slabs of shells so wide that only neighbours couple: A is
    block-tridiagonal.  From the outermost slab inwards, S_K = A_KK and
    S_j = A_jj - A_j,j+1 S_j+1^-1 A_j+1,j, each step assembling two slabs; the
    window's inverse is S_0^-1.  With no slab the window is inverted whole.
    Also returns ||A||_1 times Hager's estimate of ||A^-1||_1.
    """
    d = kernel.dim
    scaled = z * np.array([0, 1], dtype=complex)
    pivots, couplings = [], []
    schur, norm, below = None, 0.0, 0.0
    for lo, mid, hi in reversed(list(zip(edges, edges[1:], edges[2:]))):
        pair = kernel.to_dense(points[lo:hi])
        _add_scaled_identity(pair, scaled)
        p = (mid - lo) * d
        up, down = pair[:p, p:].copy(), pair[p:, :p].copy()  # copies: a view keeps the pair alive
        pivots.append(_pivot_inverse(pair[p:, p:] if schur is None else schur, radius, condition_cap))
        couplings.append((up, down))
        schur = pair[:p, :p] - up @ (pivots[-1] @ down)
        # |A| column sums, each block once: a slab's lower block is the step before's.
        sums = np.abs(pair).sum(axis=0)
        norm = max(norm, float((sums[p:] + below).max()))
        below, window_sums = np.abs(down).sum(axis=0), sums[:p]
    if schur is None:
        schur = kernel.to_dense(points)
        _add_scaled_identity(schur, scaled)
        window_sums = np.abs(schur).sum(axis=0)
    pivots.append(_pivot_inverse(schur, radius, condition_cap))
    condition = max(norm, float(window_sums.max())) * _inverse_norm_estimate(pivots, couplings)
    if not math.isfinite(condition) or condition > condition_cap:
        raise SectionInversionError(radius, condition)
    return pivots[-1], condition


def _coupled(kernel: Kernel, points: np.ndarray, window: int) -> np.ndarray:
    """Positions of the section points joined to the window points[:window], ascending.

    Grows from the window through the entries whose row s t and column t both
    lie in the section, in both directions: the points never reached form
    diagonal blocks of the section, which leave its inverse on the window
    unchanged (the reachability of Gilbert & Peierls, SIAM J. Sci. Stat.
    Comput. 9, 1988).
    """
    _entry, i, j = kernel._section_index(points)
    reached = np.zeros(len(points), dtype=bool)
    reached[:window] = True
    while (grow := reached[i] != reached[j]).any():
        reached[i[grow]] = reached[j[grow]] = True
    return np.flatnonzero(reached)


@dataclass(frozen=True)
class Section:
    """One radius's section solve: the inverse kernel on its inner window and the numbers behind it."""

    radius: int
    kernel: Kernel  # the window inverse of z + T_K, 1/z removed
    inner_radius: int
    full_group: bool  # the section covers the whole finite group
    solved: int  # coupled points the sweep solved
    window_size: int  # points of the inner window
    condition: float  # ||A||_1 times Hager's estimate of ||A^-1||_1


@dataclass
class DecayReport:
    """Envelope-decay evidence: the solved sections, one per radius, and what they show.

    ``sections`` run in ascending radius order and end at the first that
    covers a whole finite group; ``final`` is the last of them.  Each
    section's envelope is its kernel's ``min_envelope()``.
    """

    sections: list[Section]
    stabilized: bool
    # inverse_residual on the interior window (see finite_section_inverse)
    residual: float
    fitted_rate: float | None = None
    fit_r2: float | None = None

    @property
    def final(self) -> Section:
        return self.sections[-1]


def _support_radius(kernel: Kernel) -> int:
    """Largest word length in the kernel's support (0 for the zero kernel)."""
    return int(kernel.group.word_length_many(kernel.min_envelope().arrays[0]).max(initial=0))


def _solve_section(kernel: Kernel, z: complex, radius: int, cfg: InversionConfig) -> Section:
    """Invert z + T_K on the ball section of one radius and extract the inner window's kernel.

    The inner window is the ball of radius cfg.inner_ratio * radius, or the
    whole section when it covers a finite group.  Its inverse comes from a
    Schur sweep over slabs of shells as wide as the kernel's support radius,
    at least one (see :func:`_window_inverse`), and the scalar part 1/z is
    removed (for z != 0).  The sweep solves only the ball points joined to the
    window by a chain of kernel entries (see :func:`_coupled`).  A singular
    coupled part, or a condition estimate or elimination pivot of it beyond
    cfg.condition_cap, raises :class:`SectionInversionError`; the uncoupled
    rest is never inspected.
    """
    g = kernel.group
    pts = g.window(radius)
    full_group = g.is_finite and len(pts) == g.order
    inner_radius = radius if full_group else int(math.floor(cfg.inner_ratio * radius))
    # Balls are ordered by word length, so the window and slabs are ranges;
    # dropping the uncoupled points keeps that order.
    lengths = g.word_length_many(pts)
    window_size = int(np.searchsorted(lengths, inner_radius, side="right"))
    kept = _coupled(kernel, pts, window_size)
    pts, lengths = pts[kept], lengths[kept]
    cuts = np.searchsorted(lengths, range(inner_radius, radius, max(_support_radius(kernel), 1)), side="right")
    # Pruning can empty the outer slabs: drop the repeated edges they leave.
    edges = list(dict.fromkeys([0, *cuts.tolist(), len(pts)]))
    inv, condition = _window_inverse(kernel, z, pts, edges, radius, cfg.condition_cap)
    if z != 0:
        _add_scaled_identity(inv, -(np.array([0, 1], dtype=complex) / z))
    window = Kernel.from_dense(g, kernel.dim, inv, pts[:window_size])
    return Section(radius, window, inner_radius, full_group, len(pts), window_size, condition)


def finite_section_inverse(kernel: Kernel, cfg: InversionConfig) -> tuple[Kernel, DecayReport]:
    """Invert z + T_K by growing ball sections and extract the inverse kernel.

    Each radius is one :func:`_solve_section`: the inverse of the section on
    the inner ball of radius inner_ratio * r, with the scalar part 1/z removed
    (for z != 0), solved only on the ball points coupled to that window.  A
    failed solve raises :class:`SectionInversionError`.  The radii stop at the
    first section that covers a whole finite group.  The report holds the
    sections in radius order; the returned kernel is the final one's.  The
    run counts as stabilized when the two largest radii give envelopes within
    stabilization_tol in l1 on their common inner window, or when the final
    section covers a whole finite group (no truncation error at all).  The
    report adds the residual on the interior window and the decay fit.
    """
    z = cfg.z
    sections = []
    for radius in cfg.radii:
        sections.append(_solve_section(kernel, z, radius, cfg))
        if sections[-1].full_group:
            break
    final = sections[-1]
    if final.full_group:
        stabilized = True
    elif len(sections) >= 2:
        # Inner radii never shrink as the radius grows, and no section before
        # the last covers a whole group, so the common inner window is the
        # previous one, where its kernel already lies.  Restricting the final
        # kernel to it makes the envelope sups run over identical column sets,
        # so the distance measures convergence only.
        prev = sections[-2]
        common = final.kernel.restrict_to_ball(prev.inner_radius).min_envelope()
        stabilized = common.l1_distance(prev.kernel.min_envelope()) < cfg.stabilization_tol
    else:
        stabilized = False
    # The interior window is the inner window less the kernel's support radius
    # (a covered group stays whole; an empty window gives inf).  Every y that
    # (K B)(x, w) sums over lies in the inner window, so no truncation enters.
    window = final.inner_radius - (0 if final.full_group else _support_radius(kernel))
    residual = inverse_residual(kernel, z, final.kernel, window) if window >= 0 else math.inf
    report = DecayReport(sections, stabilized, residual)
    try:
        report.fitted_rate, report.fit_r2 = fit_decay(report)
    except ValueError:
        pass
    return final.kernel, report


def inverse_residual(kernel: Kernel, z: complex, inverse_kernel: Kernel, window_radius: int) -> float:
    """Envelope norm of (z + K)(1/z + B) - 1 on a window, B the computed kernel.

    For z = 0 the product K B is compared against the identity kernel on the
    window directly.  Only the window is formed: K keeps its rows x = s t in
    the window and B its columns, so K B has exactly the window's entries of
    the whole product, each summed over the same terms in the same order.
    """
    g = kernel.group
    rows = _subset(kernel, kernel._ball_mask(window_radius, columns=False))
    columns = _subset(inverse_kernel, g.word_length_many(inverse_kernel.arrays[1]) <= window_radius)
    product = rows.compose(columns)
    if z != 0:
        residual = (
            columns.restrict_to_ball(window_radius).scale(z)
            + rows.restrict_to_ball(window_radius).scale(1.0 / z)
            + product
        )
    else:
        residual = product - Kernel.identity(g, kernel.dim, window_radius)
    return residual.envelope_norm()


def neumann_inverse(kernel: Kernel, z: complex, terms: int, window_radius: int | None = None) -> tuple[Kernel, float]:
    """Truncated Neumann series for the inverse of z + T_K.

    Returns the non-scalar part sum_{n=1..terms} (-1)^n z^{-n-1} K^n together
    with the l1 tail bound q^{terms+1} / ((1 - q) |z|), q = envelope norm of
    K over |z|.  The represented inverse is 1/z plus the returned kernel,
    matching the convention of :func:`finite_section_inverse`.  Requires
    q < 1; otherwise the series diverges in norm and the call is refused.
    With ``window_radius``, only the entries whose row x = s t lies in that
    ball are formed: the powers start from those rows of K and are
    right-multiplied by the whole of K, so each entry has the terms of the
    whole series in the same order.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    z = complex(z)
    if z == 0:
        raise ValueError("Neumann inversion needs z != 0")
    q = kernel.envelope_norm() / abs(z)
    if q >= 1.0:
        raise ValueError(f"Neumann series divergent: envelope norm ratio q = {q:.6g} >= 1")
    power = kernel if window_radius is None else _subset(kernel, kernel._ball_mask(window_radius, columns=False))
    coeff = -1.0 / (z * z)
    acc = power.scale(coeff)
    for _ in range(2, terms + 1):
        power = power.compose(kernel)
        coeff = coeff * (-1.0 / z)
        acc = acc + power.scale(coeff)
    bound = q ** (terms + 1) / ((1.0 - q) * abs(z))
    return acc, bound


def contour_inverse(kernel: Kernel, radius_eps: float, nodes: int, cfg: InversionConfig) -> Kernel:
    """Inverse of T_K by holomorphic functional calculus on a small circle.

    Uses the residue form of the inversion integral: the mean over |alpha| =
    eps of the resolvents (alpha + T_K)^{-1}, the circle's parametrization
    cancelling the 1/alpha integrand factor exactly.  Each node solves one
    section, at the last radius of cfg, whose kernel is the one
    :func:`finite_section_inverse` with z = alpha would return: past a finite
    group's diameter every section is the whole group, in one order and with
    no slabs, so the first radius that covers it gives the same kernel.  A
    node whose solve fails raises :class:`ContourNodeError`.  The scalar
    parts 1/alpha average to zero by the symmetry of the trapezoidal nodes,
    so the node average of the section kernels is the whole answer.  Their
    sum is one store sum, which adds each key's blocks in node order, as a
    left fold of ``+`` does; where the fold would drop a key whose running
    sum cancels and restart it, the sum adds to the zero block, so a zero
    coefficient can differ in sign.
    """
    if nodes < 8:
        raise ValueError("need at least 8 quadrature nodes")
    if radius_eps <= 0:
        raise ValueError("contour radius must be positive")
    parts = []
    for j in range(nodes):
        alpha = radius_eps * cmath.exp(2j * math.pi * j / nodes)
        try:
            parts.append(_solve_section(kernel, alpha, cfg.radii[-1], cfg).kernel)
        except SectionInversionError as exc:
            raise ContourNodeError(j, alpha) from exc
    return _stores_sum(*parts).scale(1.0 / nodes)


def ideal_project(kernel: Kernel, bound: Envelope) -> Kernel:
    """Rescale a kernel onto the approximation ideal of an envelope bound.

    ``bound`` is the kernel's minimal envelope beta constrained to the ideal:
    ``beta.restrict(n)`` for compact support in the ball of radius n, or
    ``beta.cap(level)`` for truncation at a constant level.  Each entry at
    coset s is multiplied by bound(s) / beta(s) (zero where beta vanishes),
    which guarantees that the envelope norm of the difference is at most the
    l1 distance of the two envelopes.  A bound above beta anywhere is refused.
    """
    (s, t, blocks), beta = kernel.arrays, kernel.min_envelope()
    (points, full), (bound_points, bound) = beta.arrays, bound.arrays
    cosets, known, constrained = _row_codes(s, points, bound_points)
    i, j = _join(constrained, known)
    under = np.zeros(len(bound))  # beta at each constrained point, zero where it vanishes
    under[i] = full[j]
    over = np.flatnonzero(bound > under)
    if len(over):
        point = tuple(bound_points[over[0]].tolist())
        raise ValueError(f"constrained envelope exceeds the minimal envelope at {point!r}")
    rows, k = _join(cosets, constrained)
    scale = np.zeros(len(s))
    scale[rows] = bound[k] / under[k]
    return _subset(kernel, stack=scale[:, None, None] * blocks)


def fit_decay(report: DecayReport) -> tuple[float, float]:
    """Least-squares decay rate of the final inverse envelope.

    Takes the envelope's largest value at each word length (a bucket) and
    fits log value against length.  The identity coset is excluded: its value
    is the correction to the scalar part of the inverse, not part of the
    off-diagonal decay profile.  To avoid tail truncation bias only buckets
    inside half the final inner window are used, unless the window covered a
    whole finite group.  Needs a stabilized report and at least 5 buckets.
    """
    if not report.stabilized:
        raise ValueError("decay fit requires a stabilized report")
    final = report.final
    cap = final.inner_radius if final.full_group else final.inner_radius // 2
    lengths, maxima, _ = final.kernel.min_envelope().by_word_length()
    inside = (lengths >= 1) & (lengths <= cap)
    buckets = np.count_nonzero(inside)
    if buckets < 5:
        raise ValueError(f"need at least 5 word-length buckets inside radius {cap}, got {buckets}")
    xs = lengths[inside].astype(float)
    ys = np.log(maxima[inside])
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)
