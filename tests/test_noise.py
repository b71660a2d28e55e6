"""Noise source determinism and the Laplace inverse-CDF transform."""

import math
import random

import pytest

from privmax import NoiseSource
from privmax.noise import _mix64
from oracles import Replay as _Replay, laplace_quantile


def replayed_laplace(scale, u):
    """NoiseSource.laplace on a stream whose next uniform is u."""
    src = NoiseSource(0)
    src._rng = _Replay([u])
    return src.laplace(scale)


def test_median_uniform_maps_to_zero():
    assert replayed_laplace(1.0, 0.5).hex() == laplace_quantile(0.5, 1.0).hex() == (0.0).hex()
    assert NoiseSource(0, zero_override=True).laplace(123.0).hex() == (0.0).hex()


def test_quantile_hand_values():
    # u = 0.75 -> scale * ln 2; u = 0.25 -> -scale * ln 2; u = 0.9 -> -b * ln(0.2)
    b = 2.5
    for u, want in ((0.75, b * math.log(2)), (0.25, -b * math.log(2)), (0.9, -b * math.log(0.2))):
        assert replayed_laplace(b, u).hex() == laplace_quantile(u, b).hex()
        assert replayed_laplace(b, u) == pytest.approx(want, rel=1e-12)


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        replayed_laplace(0.0, 0.5)
    with pytest.raises(ValueError):
        replayed_laplace(-1.0, 0.5)


def test_identical_seeds_identical_streams():
    a = NoiseSource(987654321)
    b = NoiseSource(987654321)
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]
    a2 = NoiseSource(987654321)
    b2 = NoiseSource(987654322)
    assert [a2.uniform() for _ in range(20)] != [b2.uniform() for _ in range(20)]


def test_uniforms_in_open_interval():
    src = NoiseSource(5)
    for _ in range(10000):
        u = src.uniform()
        assert 0.0 < u < 1.0


def test_spawn_derivation():
    # SplitMix64 reference outputs: the first two of the generator seeded 0
    assert _mix64(0) == 0xE220A8397B1DCDAF
    assert _mix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    src = NoiseSource(40, zero_override=True)
    child = src.spawn(6)
    assert child.seed == _mix64(_mix64(40) + 6)
    assert child.zero_override
    assert not NoiseSource(40).spawn(6).zero_override


def test_spawn_of_nearby_seeds_and_indices_do_not_alias():
    # the old seed XOR index rule gave both children seed 1
    assert NoiseSource(0).spawn(1).seed != NoiseSource(1).spawn(0).seed
    seeds = {NoiseSource(s).spawn(i).seed for s in range(16) for i in range(16)}
    assert len(seeds) == 256


def test_negative_seed_rejected():
    # random.Random(-5) seeds exactly like Random(5)
    with pytest.raises(ValueError):
        NoiseSource(-5)
    with pytest.raises(ValueError):
        NoiseSource(-1, zero_override=True)
    assert NoiseSource(0).seed == 0


def test_seed_must_be_a_64_bit_integer():
    # each of these seeds random.Random but broke or aliased spawn's hash
    for seed in (1.5, True, 2**64, 2**64 + 3):
        with pytest.raises(ValueError):
            NoiseSource(seed)
    top = NoiseSource(2**64 - 1)
    assert top.spawn(0).seed == _mix64(_mix64(2**64 - 1))
    assert 0.0 < top.uniform() < 1.0


def test_mode_labels():
    assert NoiseSource(1).mode == "sampled"
    assert NoiseSource(1, zero_override=True).mode == "zero-override"


def test_zero_override_stream_is_constant():
    src = NoiseSource(7, zero_override=True)
    assert {src.uniform() for _ in range(50)} == {0.5}
    assert all(src.laplace(s) == 0.0 for s in (0.1, 1.0, 250.0))


def test_secret_source_draws_from_the_operating_system():
    src = NoiseSource(None)
    assert src.seed is None and isinstance(src._rng, random.SystemRandom)
    assert 0.0 < src.uniform() < 1.0
    assert NoiseSource(None, zero_override=True).laplace(3.0) == 0.0


def test_secret_source_cannot_spawn():
    # spawn hashes the seed into a child's; a secret source has none, and the
    # audits and bench-range, which spawn, always pass one
    for src in (NoiseSource(None), NoiseSource(None, zero_override=True)):
        with pytest.raises(ValueError, match="no seed to hash"):
            src.spawn(0)


def test_monte_carlo_mean_absolute_value():
    # E|Lap(1)| = 1; one million samples pin the empirical mean to 1 +- 0.01
    src = NoiseSource(2024)
    trials = 1_000_000
    acc = 0.0
    for _ in range(trials):
        acc += abs(src.laplace(1.0))
    assert acc / trials == pytest.approx(1.0, abs=0.01)


def test_symmetry_of_sampled_median():
    src = NoiseSource(55)
    trials = 100_000
    samples = sorted(src.laplace(1.0) for _ in range(trials))
    median = samples[trials // 2]
    # se of the Laplace sample median is ~ 1/sqrt(trials)
    assert abs(median) < 3.0 / math.sqrt(trials)


def test_one_call_laplace_equals_the_reference_transform():
    # NoiseSource.laplace must give the oracle's inverse CDF of one uniform
    # of its stream, bit for bit, and leave the stream one uniform on
    scales = (1e-3, 0.3, 1.0, 6.0, 250.0)
    for seed in (0, 7, 987654321, 2**64 - 1):
        fast, reference = NoiseSource(seed), NoiseSource(seed)
        got = [fast.laplace(scales[i % 5]) for i in range(25_000)]
        want = [laplace_quantile(reference.uniform(), scales[i % 5]) for i in range(25_000)]
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        assert fast.uniform() == reference.uniform()


def test_one_call_laplace_edge_cases():
    zero = NoiseSource(3, zero_override=True)
    assert math.copysign(1.0, zero.laplace(4.0)) == 1.0 and zero.laplace(4.0) == 0.0
    # a replayed 0.0 is rejected, as uniform() rejects it; 0.5 maps to +0.0
    for values in ([0.0, 0.25, 0.5], [0.0, 0.0, 0.75, 0.5]):
        fast, reference = NoiseSource(1), NoiseSource(1)
        fast._rng, reference._rng = _Replay(values), _Replay(values)
        got = [fast.laplace(2.0), fast.laplace(2.0)]
        want = [laplace_quantile(reference.uniform(), 2.0), laplace_quantile(reference.uniform(), 2.0)]
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        assert got[0] == laplace_quantile(values[-2], 2.0) and got[1] == 0.0
    # a bad scale raises before any draw
    for scale in (0.0, -1.0, float("nan")):
        fast, reference = NoiseSource(5), NoiseSource(5)
        with pytest.raises(ValueError) as got:
            fast.laplace(scale)
        assert str(got.value) == f"scale must be positive, got {scale}"
        assert fast.uniform() == reference.uniform()
