"""Shared value types: unit system, tolerance policy, and seed derivation.

Everything here is an immutable value object, safe to copy into
concurrent workers.  Default units are natural (hbar = mass = omega = 1);
all regression numbers shipped with the test suite assume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UnitSystem",
    "TolerancePolicy",
    "SeedSpec",
    "NATURAL_UNITS",
    "DEFAULT_TOLERANCE",
    "mix_seed",
    "substream_rng",
    "substream_states",
    "substream_uniforms",
]

_MASK64 = (1 << 64) - 1

# splitmix64 finalizer constants (Steele, Lea & Flood's generator).  The
# increment is the 64-bit golden-ratio constant; the two multipliers are
# the standard avalanche constants.  For a fixed master seed the map
# index -> mix_seed(master, index) is a bijection on 64-bit integers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy's SeedSequence hash and PCG64 seeding, which NEP 19 freezes.  The
# two hash constant sequences advance by fixed multipliers, independent of
# the data hashed.
_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier, as the high and low words it is used in.
_PCG64_MULT_HALVES = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
# Members derived per batch: large enough that numpy's per-call cost is
# ~1% of the work, small enough that the temporaries and the Python ints
# ``substream_states`` makes stay near a megabyte (a 100k-member batch of
# Python ints added ~6 MB of peak RSS).
_STATE_BATCH = 4096


def mix_seed(master: int, index: int) -> int:
    """Derive the substream seed for `index` from a 64-bit master seed.

    splitmix64: jump the state by (index + 1) golden-ratio increments,
    then apply the avalanche finalizer.  Pure integer arithmetic, so the
    result is identical on every platform.
    """
    z = (master + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class UnitSystem:
    """Scales for action, mass, and oscillator frequency (all > 0)."""

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "omega"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"UnitSystem.{name} must be finite and > 0, got {value!r}")

    @property
    def characteristic_length(self) -> float:
        """Oscillator length sqrt(hbar / (mass * omega))."""
        return math.sqrt(self.hbar / (self.mass * self.omega))

    def oscillator_ratio(self, x):
        """Dimensionless combination mass*omega*x**2/hbar."""
        return self.mass * self.omega * x * x / self.hbar


@dataclass(frozen=True)
class TolerancePolicy:
    """Absolute/relative comparison tolerances plus the node guard radius.

    ``node_guard`` is the minimum allowed distance to a field singularity
    (a wavefunction node); evaluation inside it raises instead of
    returning garbage.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    node_guard: float = 1e-6

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol + self.rel_tol <= 0:
            raise ValueError("abs_tol + rel_tol must be positive")
        if not self.node_guard > 0:
            raise ValueError("node_guard must be positive")

    def close(self, a, b) -> bool:
        return bool(abs(a - b) <= self.abs_tol + self.rel_tol * max(abs(a), abs(b)))


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the substream derivation rule.

    Rule 0 (the only one defined) seeds trajectory ``i``'s stream with
    ``mix_seed(master_seed, i)`` (splitmix64), which numpy's
    ``SeedSequence`` hashes into a PCG64 state: the stream is
    ``substream_rng(spec, i)``.  ``substream_states`` derives the same
    states for a whole batch at once, and ``substream_uniforms`` draws
    the streams' uniform variates from them.  Identical specs therefore
    reproduce bit-identical sampled initial conditions on every platform.
    """

    master_seed: int
    rule: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.rule != 0:
            raise ValueError(f"unknown stream derivation rule {self.rule}")

    def stream_seed(self, index: int) -> int:
        return mix_seed(self.master_seed, index)


def substream_rng(spec: SeedSpec, index: int) -> np.random.Generator:
    """Independent, reproducible generator for one trajectory index."""
    return np.random.default_rng(spec.stream_seed(index))


def substream_states(spec: SeedSpec, first: int, count: int):
    """Yield the PCG64 ``(state, inc)`` of substreams ``first .. first + count - 1``.

    Entry i is ``np.random.PCG64(spec.stream_seed(first + i)).state["state"]``
    as a pair, so a generator set to it draws exactly what ``substream_rng``
    would.  States are derived ``_STATE_BATCH`` members at a time.
    """
    for start in range(0, count, _STATE_BATCH):
        halves = _pcg64_states(spec.master_seed, first + start, min(_STATE_BATCH, count - start))
        for state_hi, state_lo, inc_hi, inc_lo in zip(*(h.tolist() for h in halves)):
            yield (state_hi << 64) | state_lo, (inc_hi << 64) | inc_lo


def substream_uniforms(spec: SeedSpec, first: int, count: int, draws: int) -> np.ndarray:
    """The first ``draws`` variates of ``substream_rng(spec, i).random()`` for each
    substream i in ``first .. first + count - 1``, as a (count, draws) array.

    Each variate is one PCG64 step of the 128-bit LCG, its XSL-RR output
    word w, and ``(w >> 11) * 2**-53``, which is what numpy's
    ``Generator.random`` computes; here it runs for a whole batch of
    states at once on ``uint64`` halves.
    """
    out = np.empty((count, draws))
    for start in range(0, count, _STATE_BATCH):
        stop = min(start + _STATE_BATCH, count)
        state_hi, state_lo, inc_hi, inc_lo = _pcg64_states(spec.master_seed, first + start,
                                                           stop - start)
        for k in range(draws):
            state_hi, state_lo = _add128(*_mul128(state_hi, state_lo, *_PCG64_MULT_HALVES),
                                         inc_hi, inc_lo)
            # XSL-RR: rotate hi ^ lo right by the state's top six bits
            word, rot = state_hi ^ state_lo, state_hi >> np.uint64(58)
            word = (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))
            out[start:stop, k] = (word >> np.uint64(11)).astype(float) * 2.0 ** -53
    return out


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2**128 on uint64 halves: the low product's high word
    comes from its 32-bit limbs; every other product wraps."""
    a0, a1 = a_lo & np.uint64(_MASK32), a_lo >> np.uint64(32)
    b0, b1 = b_lo & np.uint64(_MASK32), b_lo >> np.uint64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & np.uint64(_MASK32)) + (p10 & np.uint64(_MASK32))
    hi = (a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
          + a_lo * b_hi + a_hi * b_lo)
    return hi, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2**128 on uint64 halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_states(master: int, first: int, count: int):
    """Rule 0's three stages over ``count`` consecutive indices at once.

    splitmix64 runs on ``uint64`` arrays, numpy's ``SeedSequence`` pool
    hash and ``generate_state(4, uint64)`` on ``uint32`` arrays, and
    PCG64's ``srandom`` on ``uint64`` halves of its 128-bit words; all
    wrap exactly like the reference.  Returns the states' and the
    increments' high and low words as four ``uint64`` arrays.
    """
    z = np.uint64((master + (first + 1) * _GAMMA) & _MASK64)
    z = z + np.arange(count, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)

    # SeedSequence(seed) hashes the seed's 32-bit words, low first, into a
    # 4-word pool.  A seed below 2**32 has one word, but hashing an absent
    # word is hashing 0, so every seed is the same 4 words [lo, hi, 0, 0].
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(word) for word in
            (z.astype(np.uint32), (z >> np.uint64(32)).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))

    # generate_state(4, uint64): eight 32-bit words from the cycled pool,
    # paired little-endian into four 64-bit words.
    hash_const = _HASH_INIT_B
    words = []
    for k in range(8):
        value = pool[k % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    seed0, seed1, seq0, seq1 = (words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(4))

    # PCG64 srandom: inc = 2 * initseq + 1; state = (inc + initstate) * MULT + inc.
    inc_hi = (seq0 << np.uint64(1)) | (seq1 >> np.uint64(63))
    inc_lo = (seq1 << np.uint64(1)) | np.uint64(1)
    state = _add128(inc_hi, inc_lo, seed0, seed1)
    state = _add128(*_mul128(*state, *_PCG64_MULT_HALVES), inc_hi, inc_lo)
    return (*state, inc_hi, inc_lo)


NATURAL_UNITS = UnitSystem()
DEFAULT_TOLERANCE = TolerancePolicy()
