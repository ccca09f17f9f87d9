import random

import numpy as np
import pytest
from scipy.stats import chi2

from momflow import SeedSpec, TolerancePolicy, UnitSystem, mix_seed, substream_rng
from momflow.core import _STATE_BATCH, substream_states, substream_uniforms


def test_mix_seed_is_deterministic():
    assert mix_seed(12345, 7) == mix_seed(12345, 7)


def test_mix_seed_separates_streams():
    outs = {mix_seed(999, i) for i in range(100)}
    assert len(outs) == 100


def test_mix_seed_low_bits_uniform():
    # chi-square on the low byte over 10^4 indices, alpha = 0.01
    draws = np.array([mix_seed(0xDEADBEEF, i) & 0xFF for i in range(10_000)])
    counts = np.bincount(draws, minlength=256)
    expected = 10_000 / 256
    statistic = np.sum((counts - expected) ** 2 / expected)
    assert statistic < chi2.ppf(0.99, 255)


def test_substreams_reproduce_bit_identical_draws():
    spec = SeedSpec(master_seed=2024)
    a = substream_rng(spec, 3).random(16)
    b = substream_rng(spec, 3).random(16)
    assert np.array_equal(a, b)
    c = substream_rng(spec, 4).random(16)
    assert not np.array_equal(a, c)


def numpy_states(master, first, count):
    """Rule 0 by numpy itself: PCG64 seeded from each substream's mix_seed."""
    return [tuple(np.random.PCG64(mix_seed(master, first + i)).state["state"].values())
            for i in range(count)]


# Master seeds at the 32-bit word boundaries that SeedSequence splits on,
# and first_stream values including a negative one and one where
# index + 1 wraps past 2**64.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
FIRST_STREAMS = (0, 10**12, -3, 2**64 - 3)


@pytest.mark.parametrize("first", FIRST_STREAMS)
def test_batched_stream_states_equal_numpy_seeding(first):
    masters = EDGE_SEEDS + tuple(random.Random(first).getrandbits(64) for _ in range(1000))
    for master in masters:
        derived = list(substream_states(SeedSpec(master), first, 4))
        assert derived == numpy_states(master, first, 4), master


def test_stream_states_cross_batch_boundaries():
    count = 2 * _STATE_BATCH + 3
    assert list(substream_states(SeedSpec(77), 5, count)) == numpy_states(77, 5, count)


@pytest.mark.parametrize("first", FIRST_STREAMS)
def test_batched_uniforms_equal_numpy_draws(first):
    for master in EDGE_SEEDS:
        spec = SeedSpec(master)
        expected = [substream_rng(spec, first + i).random(7) for i in range(4)]
        assert substream_uniforms(spec, first, 4, 7).tobytes() == np.array(expected).tobytes()


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSpec(master_seed=-1)
    with pytest.raises(ValueError):
        SeedSpec(master_seed=0, rule=3)


def test_unit_system_requires_positive_scales():
    for bad in ({"hbar": 0.0}, {"mass": -1.0}, {"omega": 0.0}):
        with pytest.raises(ValueError):
            UnitSystem(**bad)


def test_oscillator_ratio_invariant_under_joint_rescaling():
    # scaling (hbar, mass) -> (lam*hbar, lam*mass) keeps m*w*x^2/hbar fixed,
    # so the characteristic length (and x with it) is unchanged
    base = UnitSystem(hbar=1.0, mass=1.0, omega=1.0)
    for lam in (0.5, 2.0, 7.3):
        scaled = UnitSystem(hbar=lam, mass=lam, omega=1.0)
        assert scaled.characteristic_length == pytest.approx(base.characteristic_length)
        for x in (0.3, 1.0, 4.2):
            assert scaled.oscillator_ratio(x) == pytest.approx(base.oscillator_ratio(x))


def test_complex_modulus_is_multiplicative():
    rng = np.random.default_rng(11)
    a = rng.normal(size=200) + 1j * rng.normal(size=200)
    b = rng.normal(size=200) + 1j * rng.normal(size=200)
    lhs = np.abs(a * b)
    rhs = np.abs(a) * np.abs(b)
    assert np.all(np.abs(lhs - rhs) <= 4e-16 * np.maximum(lhs, rhs))


def test_tolerance_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(node_guard=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(abs_tol=-1e-9)
    policy = TolerancePolicy(abs_tol=1e-12, rel_tol=1e-9)
    assert policy.close(1.0, 1.0 + 1e-10)
    assert not policy.close(1.0, 1.01)
