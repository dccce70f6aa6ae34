"""Seeded random kernels with prescribed envelope profiles.

Entries are drawn with independent coefficients uniform on the complex unit
disc and rescaled so their operator norm sits at the profile value for the
word length of their coset; the intended envelope is returned alongside for
comparison against the measured minimal envelope.  Everything is a pure
function of (group, dim, seed, profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceElement
from .groups import Group, Point
from .kernels import Envelope, Kernel, TestVector, _from_arrays, _l1_sum, _pairs, _row_codes, operator_norms


@dataclass(frozen=True)
class Profile:
    """Envelope shape for generated kernels.

    kinds: "exponential" (rate ** length), "polynomial" ((1+length) ** -power),
    "banded" (1 inside the band, 0 outside).  t_radius bounds the column
    window; None means the whole group when finite, else max(radius, 4).
    The CLI's inversion tasks replace None on an infinite group by their
    largest radius, so the columns cover every section.
    """

    kind: str
    radius: int
    rate: float | None = None
    power: float | None = None
    t_radius: int | None = None

    @classmethod
    def exponential(cls, rate: float, radius: int, t_radius: int | None = None) -> "Profile":
        if rate <= 0:
            raise ValueError("exponential rate must be positive")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        try:
            float(rate) ** int(radius)
        except OverflowError:
            raise ValueError(f"exponential rate {rate!r} overflows at radius {radius}") from None
        return cls(kind="exponential", radius=int(radius), rate=float(rate), t_radius=t_radius)

    @classmethod
    def polynomial(cls, power: float, radius: int, t_radius: int | None = None) -> "Profile":
        if power <= 0:
            raise ValueError("polynomial power must be positive")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return cls(kind="polynomial", radius=int(radius), power=float(power), t_radius=t_radius)

    @classmethod
    def banded(cls, width: int, t_radius: int | None = None) -> "Profile":
        if width < 0:
            raise ValueError("band width must be nonnegative")
        return cls(kind="banded", radius=int(width), t_radius=t_radius)

    def value(self, length: int) -> float:
        if length > self.radius:
            return 0.0
        if self.kind == "exponential":
            return self.rate**length
        if self.kind == "polynomial":
            return (1.0 + length) ** (-self.power)
        if self.kind == "banded":
            return 1.0
        raise ValueError(f"unknown profile kind {self.kind!r}")


def _random_disc(rng: np.random.Generator, count: int, shape: tuple[int, ...]) -> np.ndarray:
    """``count`` arrays of ``shape`` with coefficients uniform on the complex unit disc.

    Each array's radii are drawn before its angles, one array after another,
    so the stream is read as one draw per array reads it.
    """
    u = rng.uniform(size=(count, 2, *shape))
    return np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * math.pi * u[:, 1]))


def _scaled_to(blocks: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Rescale each block so its operator norm is its target, never exceeding it (norms on the stack).

    A scale factor past the float range is a ValueError naming the target."""
    norms = operator_norms(blocks)
    zero = norms == 0.0
    with np.errstate(over="ignore"):
        factors = targets / np.where(zero, 1.0, norms)
    if np.isinf(factors).any():
        raise ValueError(f"profile value {float(targets[np.isinf(factors)][0])!r} overflows as a block is scaled to it")
    out = blocks * factors[:, None, None]
    out[zero] = 0.0
    out[zero, 0, 0] = targets[zero]
    live = np.flatnonzero(~zero)
    for _ in range(10):
        norms = operator_norms(out[live])
        over = ~(norms <= targets[live])  # a NaN norm is rescaled again, as per block
        live, norms = live[over], norms[over]
        if not len(live):
            return out
        out[live] = out[live] * (targets[live] / norms)[:, None, None]
    out[live] = out[live] * (1.0 - 1e-15)
    return out


def _scaled_kernel(
    group: Group, dim: int, rng: np.random.Generator, points: np.ndarray, values: np.ndarray, t_radius: int | None
) -> Kernel:
    """Kernel of uniform-disc blocks scaled to values[i] at s = points[i], drawn one (s, t) at a time, points outer.

    The columns t are the window of ``t_radius``, or with None the whole
    group, which ``Group.window`` refuses on an infinite group.  The points
    are canonical and distinct.
    """
    _l1_sum(values)  # targets whose l1 sum overflows are refused before any block is drawn
    columns = group.window(t_radius)
    keys = _pairs(points, columns)
    blocks = _random_disc(rng, len(keys[0]), (dim, dim))
    return _from_arrays(Kernel, group, dim, keys, _scaled_to(blocks, np.repeat(values, len(columns))))


def generate_kernel(
    group: Group, dim: int, seed, profile: Profile
) -> tuple[Kernel, Envelope]:
    """Random kernel whose minimal envelope is dominated by the profile.

    Returns the kernel together with the intended envelope value(word length)
    on the generated coset support.  Deterministic for a fixed seed (an int
    or a numpy SeedSequence): cosets and columns are visited in ball order
    and the generator stream is drawn sequentially.
    """
    rng = np.random.default_rng(seed)
    t_radius = profile.t_radius
    if t_radius is None and not group.is_finite:
        t_radius = max(profile.radius, 4)
    ball = group.window(profile.radius)
    values = np.array([profile.value(length) for length in group.word_length_many(ball).tolist()])
    live = values > 0.0
    points, values = ball[live], values[live]
    kernel = _scaled_kernel(group, dim, rng, points, values, t_radius)
    order = np.argsort(_row_codes(points)[0], kind="stable")  # ball order to point order
    return kernel, Envelope._derived(group, points[order], values[order])


def generate_kernel_from_envelope(
    group: Group, dim: int, seed, envelope: Envelope, t_radius: int | None = None
) -> tuple[Kernel, Envelope]:
    """Random kernel whose minimal envelope is dominated by a given envelope.

    Like :func:`generate_kernel` but with an arbitrary target envelope (for
    instance one read back from an envelope file) instead of a profile shape.
    """
    if envelope.group != group:
        raise ValueError(
            f"envelope lives on {envelope.group.name}, kernel requested on {group.name}"
        )
    rng = np.random.default_rng(seed)
    points, values = envelope.arrays
    if t_radius is None and not group.is_finite:
        t_radius = int(group.word_length_many(points).max(initial=0)) or 4
    return _scaled_kernel(group, dim, rng, points, values, t_radius), envelope


def random_covariance(group: Group, dim: int, seed, x_radius: int | None = None) -> CovarianceElement:
    """Random covariance element with uniform-disc entries.

    The x support is the ball of x_radius, or by default the whole group,
    which ``Group.window`` refuses on an infinite group.  Fibers run over
    the whole group when it is finite, else over the same ball.
    """
    xs = group.window(x_radius)
    keys = _pairs(xs, group.window() if group.is_finite else xs)
    blocks = _random_disc(np.random.default_rng(seed), len(keys[0]), (dim, dim))
    return _from_arrays(CovarianceElement, group, dim, keys, blocks)


def random_test_vector(group: Group, dim: int, seed, radius: int, doubled: bool = False) -> TestVector:
    """Random test vector supported on a ball, uniform-disc coefficients."""
    points = group.window(radius)
    keys = _pairs(points, points) if doubled else (points,)
    values = _random_disc(np.random.default_rng(seed), len(keys[0]), (dim,))
    return _from_arrays(TestVector, group, dim, keys, values)


def shift_symbol(
    group: Group, dim: int, weight: complex, diag: complex = 0.0, hermitian: bool = False, step: Point | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Symbol of the weighted shift by ``step``, by default (1, 0, ...), for :meth:`Kernel.invariant`.

    It holds weight * I at ``step``; with ``hermitian`` also its adjoint
    (weight * I)^H at step^-1; then diag * I at the identity, in that order.
    A zero weight or diag is left out, not added as a zero block.
    """
    s = group.canonical((1,) + (0,) * (group.coord_len - 1) if step is None else step)
    terms = [(s, complex(weight) * np.eye(dim, dtype=complex))] if weight else []
    terms += [(group.inverse(s), terms[0][1].conj().T)] if weight and hermitian else []
    terms += [(group.identity, diag * np.eye(dim, dtype=complex))] if diag else []
    return group.canonical_many([p for p, _ in terms]), np.array([b for _, b in terms]).reshape(-1, dim, dim)


def shift_kernel(group: Group, dim: int, weight: complex, step: Point | None = None, t_radius: int = 10) -> Kernel:
    """Weighted shift: value weight * I at coset ``step`` for every column in
    the window, the whole group when finite.  The classic test case is the
    weight-c shift by one on Z."""
    return Kernel.invariant(group, shift_symbol(group, dim, weight, step=step), None if group.is_finite else t_radius)
