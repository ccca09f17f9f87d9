import math
import random

import numpy as np
import pytest
from scipy.stats import chi2

from momflow import SeedSpec, TolerancePolicy, UnitSystem, mix_seed, substream_rng
from momflow.core import (_MAX_BUDGET, _ZIGGURAT_KI, _ZIGGURAT_WI, _pcg64_jump, _pcg64_states,
                          substream_uniforms)


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
        state_hi, state_lo, inc_hi, inc_lo = (h.tolist() for h in _pcg64_states(master, first, 4))
        derived = [(sh << 64 | sl, ih << 64 | il)
                   for sh, sl, ih, il in zip(state_hi, state_lo, inc_hi, inc_lo)]
        assert derived == numpy_states(master, first, 4), master


@pytest.mark.parametrize("first", FIRST_STREAMS)
def test_batched_uniforms_equal_numpy_draws(first):
    for master in EDGE_SEEDS:
        spec = SeedSpec(master)
        expected = [substream_rng(spec, first + i).random(7) for i in range(4)]
        assert substream_uniforms(spec, first, 4, 7).tobytes() == np.array(expected).tobytes()


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def numpy_normal_from_word(rng, word):
    """numpy's standard_normal from a PCG64 state whose next output is ``word``,
    and whether that one word was all it read.

    A state whose top 64 bits are 0 outputs its low 64 bits unrotated, so
    the state after the step is ``word`` itself; one LCG step back, with
    the multiplier's inverse mod 2**128, is the state before it.
    """
    before = (word - 1) * pow(PCG64_MULT, -1, 2**128) % 2**128
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": 1},
                               "has_uint32": 0, "uinteger": 0}
    draw = rng.standard_normal()
    return draw, rng.bit_generator.state["state"]["state"] == word


def test_ziggurat_tables_equal_numpys():
    # A word is idx (8 bits), sign (1 bit) and rabs (52 bits), low first.
    rng = np.random.Generator(np.random.PCG64())
    wi, ki = np.empty(256), np.empty(256, dtype=np.uint64)
    for idx in range(256):
        # rabs = 1 draws 1 * wi[idx]: by the fast path, or at idx 1, whose
        # ki is 0, by the wedge test, which any x this small passes.
        wi[idx] = numpy_normal_from_word(rng, 1 << 9 | idx)[0]
        # The fast path reads one word and takes rabs < ki[idx]: ki[idx]
        # is the least rabs that reads more.  rabs = 0 is searched too.
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            if numpy_normal_from_word(rng, mid << 9 | idx)[1]:
                lo = mid + 1
            else:
                hi = mid
        ki[idx] = lo
    assert ki[1] == 0
    assert wi.tobytes() == _ZIGGURAT_WI.tobytes()
    assert ki.tobytes() == _ZIGGURAT_KI.tobytes()


def test_pcg64_jumps_equal_consecutive_numpy_words():
    # j steps in one jump, for every j a Gaussian round may take
    bitgen = np.random.PCG64(2024)
    start = bitgen.state["state"]

    def halves(v):
        return np.array([v >> 64], dtype=np.uint64), np.array([v & (2**64 - 1)], dtype=np.uint64)

    hi, lo, words = _pcg64_jump(*halves(start["state"]), *halves(start["inc"]),
                                np.arange(1, _MAX_BUDGET + 1))
    assert np.array_equal(words, bitgen.random_raw(_MAX_BUDGET))
    assert (int(hi[-1]) << 64 | int(lo[-1])) == bitgen.state["state"]["state"]


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


@pytest.mark.parametrize("key", ["abs_tol", "rel_tol", "node_guard"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tolerance_policy_needs_finite_values(key, value):
    with pytest.raises(ValueError, match=key):
        TolerancePolicy(**{key: value})
