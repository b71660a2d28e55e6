"""Seedable randomness for the mechanisms: a uniform stream with a
deterministic zero-noise override, plus inverse-CDF Laplace sampling."""

from __future__ import annotations

import math
import random

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """One SplitMix64 step (Steele, Lea & Flood, OOPSLA 2014): add the golden
    gamma, then apply the finalizer; all arithmetic mod 2^64."""
    z = (x + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class NoiseSource:
    """Stream of uniform variates in (0, 1) derived from an integer seed in
    [0, 2^64); any other seed raises ``ValueError``.

    Identical seeds yield identical streams (Mersenne Twister, stable across
    platforms). With ``zero_override`` every draw is replaced by the stream
    median 0.5, which the Laplace inverse CDF maps to 0 -- deterministic
    traces for tests and debugging, NOT private.

    A source is single-owner: one consumer, one pass; never share one
    mid-stream. Independent streams come from :meth:`spawn`, which hashes
    (seed, index) into a child seed, so children of nearby seeds or indices
    do not overlap.

    The mechanisms' plans draw straight from the generator: each reads
    ``_rng.random()``, whose values lie in [0, 1) on the 2^-53 grid, as
    ``random.Random`` and ``random.SystemRandom`` give them, or the constant
    0.5 under zero-override, and applies the transforms below in its own
    frame (see :mod:`privmax.mechanisms`). So a source whose ``_rng`` is any
    such generator runs every plan. :meth:`uniform` and :meth:`laplace` are
    the readable references the plans are pinned to, draw for draw.
    """

    __slots__ = ("seed", "zero_override", "_rng")

    def __init__(self, seed: int, zero_override: bool = False):
        # spawn hashes the seed as a 64-bit integer, so any other seed that
        # random.Random accepts (a float, a bool, 2**64 + s) would fail there
        # or alias another seed's children
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
        self._rng = random.Random(seed)

    @property
    def mode(self) -> str:
        return "zero-override" if self.zero_override else "sampled"

    def uniform(self) -> float:
        """Next uniform in the open interval (0, 1); 0.5 under zero-override."""
        if self.zero_override:
            return 0.5
        u = self._rng.random()
        while u <= 0.0:  # random() covers [0, 1); exclude the 0 endpoint
            u = self._rng.random()
        return u

    def laplace(self, scale: float) -> float:
        """One Laplace(scale) variate: :func:`sample_laplace` on this stream,
        bit for bit, with the uniform drawn in the same frame."""
        if not scale > 0.0:
            raise ValueError(f"scale must be positive, got {scale}")
        if self.zero_override:
            return 0.0
        u = self._rng.random()
        while u <= 0.0:
            u = self._rng.random()
        d = u - 0.5
        # sample_laplace's -scale * sign(d) * log1p(-2|d|): multiplying by
        # +-1.0 and negating are exact, so each branch is the same float
        if d > 0.0:
            return -scale * math.log1p(-2.0 * d)
        if d < 0.0:
            return scale * math.log1p(2.0 * d)
        return 0.0

    def spawn(self, index: int) -> "NoiseSource":
        """Independent child stream ``index``, seeded with
        mix64(mix64(seed) + index), where mix64 is a SplitMix64 step; keeps
        ``zero_override``."""
        return NoiseSource(_mix64(_mix64(self.seed) + index), self.zero_override)

    def __repr__(self) -> str:
        return f"NoiseSource(seed={self.seed}, mode={self.mode})"


def sample_laplace(scale: float, src: NoiseSource) -> float:
    """One Laplace(scale) variate: -scale * sign(u - 1/2) * ln(1 - 2|u - 1/2|).

    A single uniform from ``src`` is pushed through the inverse CDF, so a
    replayed stream reproduces the variate exactly; zero-override yields 0.
    Works on any source with ``uniform()``; :meth:`NoiseSource.laplace` is
    this transform on its own stream, in one call, and the mechanisms' plans
    apply the same branches to the generator's raw ``random()`` in their own
    frames. This is the reference they are tested against.
    """
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    u = src.uniform()
    d = u - 0.5
    if d == 0.0:
        return 0.0
    return -scale * math.copysign(1.0, d) * math.log1p(-2.0 * abs(d))
