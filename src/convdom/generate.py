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
from typing import Mapping

import numpy as np

from .groups import Group, Point
from .kernels import Envelope, Kernel, TestVector, operator_norms


@dataclass(frozen=True)
class Profile:
    """Envelope shape for generated kernels.

    kinds: "exponential" (rate ** length), "polynomial" ((1+length) ** -power),
    "banded" (1 inside the band, 0 outside).  t_radius bounds the column
    window; None means the whole group when finite, else max(radius, 4).
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

    def column_window(self, group: Group) -> list[Point]:
        if self.t_radius is not None:
            return group.ball(self.t_radius)
        if group.is_finite:
            return group.elements()
        return group.ball(max(self.radius, 4))


def _random_disc(rng: np.random.Generator, count: int, shape: tuple[int, ...]) -> np.ndarray:
    """``count`` arrays of ``shape`` with coefficients uniform on the complex unit disc.

    Each array's radii are drawn before its angles, one array after another,
    so the stream is read as one draw per array reads it.
    """
    u = rng.uniform(size=(count, 2, *shape))
    return np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * math.pi * u[:, 1]))


def _scaled_to(blocks: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Rescale each block so its operator norm is its target, never exceeding it (norms on the stack)."""
    norms = operator_norms(blocks)
    zero = norms == 0.0
    out = blocks * (targets / np.where(zero, 1.0, norms))[:, None, None]
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
    group: Group, dim: int, rng: np.random.Generator, targets: Mapping[Point, float], columns: list[Point]
) -> Kernel:
    """Kernel of uniform-disc blocks scaled to targets[s], drawn one (s, t) at a time in targets-then-columns order."""
    keys = [(s, t) for s in targets for t in columns]
    blocks = _random_disc(rng, len(keys), (dim, dim))
    scale = np.repeat(np.fromiter(targets.values(), dtype=float, count=len(targets)), len(columns))
    return Kernel(group, dim, dict(zip(keys, _scaled_to(blocks, scale))))


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
    columns = profile.column_window(group)
    ball = group.ball(profile.radius)
    intended: dict[Point, float] = {}
    for s, length in zip(ball, group.word_length_many(group.canonical_many(ball)).tolist()):
        target = profile.value(length)
        if target > 0.0:
            intended[s] = target
    return _scaled_kernel(group, dim, rng, intended, columns), Envelope(group, intended)


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
    if t_radius is not None:
        columns = group.ball(t_radius)
    elif group.is_finite:
        columns = group.elements()
    else:
        columns = group.ball(int(group.word_length_many(envelope.arrays[0]).max(initial=0)) or 4)
    return _scaled_kernel(group, dim, rng, envelope.values, columns), envelope


def random_covariance(group: Group, dim: int, seed, x_radius: int | None = None):
    """Random covariance element with uniform-disc entries.

    The x support is the ball of x_radius (whole group when finite and
    x_radius is None); fibers run over the whole finite group.
    """
    from .covariance import CovarianceElement

    if not group.is_finite and x_radius is None:
        raise ValueError("infinite groups need an explicit x_radius")
    rng = np.random.default_rng(seed)
    xs = group.elements() if x_radius is None else group.ball(x_radius)
    ys = group.elements() if group.is_finite else group.ball(x_radius)
    keys = [(x, y) for x in xs for y in ys]
    return CovarianceElement(group, dim, dict(zip(keys, _random_disc(rng, len(keys), (dim, dim)))))


def random_test_vector(group: Group, dim: int, seed, radius: int, doubled: bool = False) -> TestVector:
    """Random test vector supported on a ball, uniform-disc coefficients."""
    rng = np.random.default_rng(seed)
    points = group.ball(radius)
    keys = [(x, z) for x in points for z in points] if doubled else points
    return TestVector(group, dim, dict(zip(keys, _random_disc(rng, len(keys), (dim,)))), doubled=doubled)


def shift_kernel(
    group: Group, dim: int, weight: complex, step: Point | None = None, t_radius: int = 10
) -> Kernel:
    """Weighted shift: value weight * I at coset ``step`` for every column in
    the window.  The classic test case is the weight-c shift by one on Z."""
    s = group.canonical(step) if step is not None else group.canonical((1,) + (0,) * (group.coord_len - 1))
    block = complex(weight) * np.eye(dim, dtype=complex)
    window = group.elements() if group.is_finite else group.ball(t_radius)
    return Kernel(group, dim, {(s, t): block for t in window})
