"""Seedable randomness for the mechanisms: a uniform stream with exact
integer draws, whose deterministic zero-noise override is a constant
generator, and its inverse-CDF Laplace draw."""

from __future__ import annotations

import math
import random
from itertools import repeat
from types import SimpleNamespace

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# the generator of every zero-override source: random() is the stream
# median 0.5 on every call, and randrange(n) is 0, so a fill pick releases
# the lowest fill id, as mol's zero-override block does
_MEDIAN = SimpleNamespace(random=repeat(0.5).__next__, randrange=(0).__mul__)


def _mix64(x: int) -> int:
    """One SplitMix64 step (Steele, Lea & Flood, OOPSLA 2014): add the golden
    gamma, then apply the finalizer; all arithmetic mod 2^64."""
    z = (x + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class NoiseSource:
    """Stream of uniform variates in (0, 1) derived from an integer seed in
    [0, 2^64); any other seed but ``None`` raises ``ValueError``.

    Identical seeds yield identical streams (Mersenne Twister, stable across
    platforms), which anyone who knows the seed can replay. Seed ``None``
    draws secret noise from ``random.SystemRandom``. With ``zero_override``
    the generator is the constant 0.5, the stream median, which the Laplace
    inverse CDF maps to 0, and its integer draws are 0 -- deterministic
    traces for tests and debugging, NOT private.

    A source is single-owner: one consumer, one pass; never share one
    mid-stream. Independent streams come from :meth:`spawn`, which hashes
    (seed, index) into a child seed, so children of nearby seeds or indices
    do not overlap.

    The mechanisms' plans read the generator ``_rng`` directly, under the
    draw contract of :mod:`privmax.mechanisms`; :meth:`uniform` and
    :meth:`laplace` are the readable references they are pinned to.
    """

    __slots__ = ("seed", "zero_override", "_rng")

    def __init__(self, seed: int | None, zero_override: bool = False):
        if seed is not None:
            # spawn hashes the seed as a 64-bit integer, so any other seed
            # that random.Random accepts (a float, a bool, 2**64 + s) would
            # fail there or alias another seed's children
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ValueError(f"seed must be an integer, got {seed!r}")
            # Random(-s) seeds like Random(s): a negative seed would silently
            # alias its absolute value
            if seed < 0:
                raise ValueError(f"seed must be nonnegative, got {seed}")
            if seed > _MASK64:
                raise ValueError(f"seed must be below 2**64, got {seed}")
        self.seed = seed
        self.zero_override = zero_override
        self._rng = (_MEDIAN if zero_override
                     else random.SystemRandom() if seed is None else random.Random(seed))

    @property
    def mode(self) -> str:
        return "zero-override" if self.zero_override else "sampled"

    def uniform(self) -> float:
        """Next uniform in the open interval (0, 1); 0.5 under zero-override."""
        u = self._rng.random()
        while u <= 0.0:  # random() covers [0, 1); exclude the 0 endpoint
            u = self._rng.random()
        return u

    def laplace(self, scale: float) -> float:
        """One Laplace(scale) variate: -scale * sign(u - 1/2) * ln(1 - 2|u - 1/2|).

        A single uniform of this stream is pushed through the inverse CDF, so
        a replayed stream reproduces the variate exactly; zero-override
        yields +0.0.
        """
        if not scale > 0.0:
            raise ValueError(f"scale must be positive, got {scale}")
        d = self.uniform() - 0.5
        return -scale * math.copysign(1.0, d) * math.log1p(-2.0 * abs(d))

    def spawn(self, index: int) -> "NoiseSource":
        """Independent child stream ``index``, seeded with
        mix64(mix64(seed) + index), where mix64 is a SplitMix64 step; keeps
        ``zero_override``. The audits and bench-range, which spawn, always
        pass a seed."""
        if self.seed is None:
            raise ValueError("a secret NoiseSource (seed None) has no seed to hash into child streams")
        return NoiseSource(_mix64(_mix64(self.seed) + index), self.zero_override)

    def __repr__(self) -> str:
        return f"NoiseSource(seed={self.seed}, mode={self.mode})"

