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

from .groups import Group, Point
from .kernels import Envelope, Kernel, operator_norm


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


def _random_disc_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    radius = np.sqrt(rng.uniform(size=(dim, dim)))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=(dim, dim))
    return radius * np.exp(1j * angle)


def _scaled_to(mat: np.ndarray, target: float) -> np.ndarray:
    """Rescale so the operator norm is the target, never exceeding it."""
    norm = operator_norm(mat)
    if norm == 0.0:
        out = np.zeros_like(mat)
        out[0, 0] = target
        return out
    out = mat * (target / norm)
    for _ in range(10):
        norm = operator_norm(out)
        if norm <= target:
            return out
        out = out * (target / norm)
    return out * (1.0 - 1e-15)


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
    entries: dict[tuple[Point, Point], np.ndarray] = {}
    intended: dict[Point, float] = {}
    for s in group.ball(profile.radius):
        target = profile.value(group.word_length(s))
        if target <= 0.0:
            continue
        intended[s] = target
        for t in columns:
            entries[(s, t)] = _scaled_to(_random_disc_matrix(rng, dim), target)
    return Kernel(group, dim, entries), Envelope(group, intended)


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
    entries: dict[tuple[Point, Point], np.ndarray] = {}
    for s, target in envelope.values.items():
        for t in columns:
            entries[(s, t)] = _scaled_to(_random_disc_matrix(rng, dim), target)
    return Kernel(group, dim, entries), envelope


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
    entries = {}
    for x in xs:
        for y in ys:
            entries[(x, y)] = _random_disc_matrix(rng, dim)
    return CovarianceElement(group, dim, entries)


def random_test_vector(group: Group, dim: int, seed, radius: int, doubled: bool = False) -> "TestVector":
    """Random test vector supported on a ball, uniform-disc coefficients."""
    from .kernels import TestVector

    rng = np.random.default_rng(seed)
    points = group.ball(radius)
    values = {}
    if doubled:
        for x in points:
            for z in points:
                values[(x, z)] = _disc_vector(rng, dim)
    else:
        for x in points:
            values[x] = _disc_vector(rng, dim)
    return TestVector(group, dim, values, doubled=doubled)


def _disc_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    radius = np.sqrt(rng.uniform(size=dim))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=dim)
    return radius * np.exp(1j * angle)


def shift_kernel(
    group: Group, dim: int, weight: complex, step: Point | None = None, t_radius: int = 10
) -> Kernel:
    """Weighted shift: value weight * I at coset ``step`` for every column in
    the window.  The classic test case is the weight-c shift by one on Z."""
    s = group.canonical(step) if step is not None else group.canonical((1,) + (0,) * (group.coord_len - 1))
    block = complex(weight) * np.eye(dim, dtype=complex)
    window = group.elements() if group.is_finite else group.ball(t_radius)
    return Kernel(group, dim, {(s, t): block for t in window})
