"""Shared value types: unit system, tolerance policy, and seed derivation.

Everything here is an immutable value object, safe to copy into
concurrent workers.  Default units are natural (hbar = mass = omega = 1);
all regression numbers shipped with the test suite assume them.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import EmptyRegion

__all__ = _EXPORTS["core"]

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
# Members derived and drawn per batch: large enough that numpy's per-call
# cost is ~1% of the work, small enough that the temporaries stay near a
# megabyte (deriving 100k members at once added ~6 MB of peak RSS).
_STATE_BATCH = 4096
# Truncated-normal rounds (``_truncated_normals``) read at most
# _ROUND_WORDS words, so their temporaries stay near a megabyte.
_MAX_BUDGET = 1 << 13
_ROUND_WORDS = 4 * _STATE_BATCH
_MAX_MISSES = 10_000
# numpy's ziggurat for the standard normal (Marsaglia & Tsang, J. Stat.
# Softw. 5(8), 2000) as ``Generator.standard_normal`` uses it: ``wi``
# (256 float64) then ``ki`` (256 uint64), little-endian.  They were read
# back from numpy through PCG64 states crafted to output chosen words;
# tests/test_core.py re-derives them the same way.
_ZIGGURAT = base64.b64decode(
    "edkVeDtJzzzG9v3jC42LPLRbLDyvUJI8YTtEOLl8lTwMpy/o/AGYPLzQTC4MI5o892E4L00AnDx0cnRaL6ydPMPVTC1IMp88"
    "rbuOJzJNoDxDXQI7BfWgPHc2QZemkqE89Rp6j6InojyA2GM4LrWiPPWRV8A/PKM8L7GiwZ69ozxVm/+N7zmkPKf+PTa7saQ8"
    "dNMaYnUlpTyWzgengJWlPOp+2c8xAqY8PXyjYdJrpjxwBQCSotKmPKb4RtPaNqc8dyqzEK2YpzxD9UatRfinPHcKQ1PMVag8"
    "mnZ7nmSxqDyYz06pLgupPOoeLIJHY6k8RsU4jsm5qTwsp6TczA6qPFnNd21nYqo8MBYQbq20qjycbBNtsQWrPCl6QoeEVas8"
    "Op9Sjjakqzwygr8q1vGrPPNOWflwPqw8YTsypROKrDyLJnL+ydSsPEi3gA6fHq08EB/kKZ1nrTzDuCMAzq+tPFN28ak69608"
    "/u3Stes9rjwAb3oz6YOuPM6C+b06ya48JmLwhOcNrzyI9thU9lGvPK7Xh55tla88rC76fVPYrzzsNELgVg2wPJqPOfVALrA8"
    "/KUWnupOsDwQoHJbVm+wPAv0cZCGj7A8E2G8hH2vsDx/zEtmPc+wPGsIFkvI7rA87hWVMiAOsTy+DzEHRy2xPEGRjp8+TLE8"
    "HiDEvwhrsTw02ngap4mxPIht7lEbqLE8yyr4+GbGsTwu1OCTi+SxPJ+gQJmKArI86cbEcmUgsjwfw+l9HT6yPPtrqQy0W7I8"
    "f9MdZip5sjwb1xnHgZayPNouuGK7s7I8U7jhYtjQsjyOqcvo2e2yPNdIbg3BCrM8MLn04Y4nszyhXiZwRESzPNVSyrriYLM8"
    "algFvmp9szxksrJv3ZmzPAM9uL87trM84B1WmIbSszyDWnLevu6zPHSe4HHlCrQ8XXSmLfsmtDykMDzoAEO0PF3HynP3XrQ8"
    "NsNmnt96tDwvj0gyupa0PF1BAvaHsrQ83BGzrEnOtDwFpjgWAOq0PGJVXu+rBbU8WosK8k0htTxPZmrV5jy1PMiyG053WLU8"
    "eF9VDgB0tTwUhQ7GgY+1PFkbJCP9qrU8PXN90XLGtTzTjC974+G1PDhen8hP/bU8wx+jYLgYtjyisKLoHTS2PAsmtwSBT7Y8"
    "cpbJV+Jqtjw3MbGDQoa2PLGyUCmiobY8u0Oz6AG9tjxS0yhhYti2PFT4YTHE87Y862iL9ycPtzzGFGlRjiq3PNzucNz3Rbc8"
    "H3PlNWVhtzxJ9O/61ny3PJO9ushNmLc8CRSLPMqztzz7ItvzTM+3POfec4zW6rc8H+qGpGcGuDx2hsjaACK4PBWfic6iPbg8"
    "vfXRH05ZuDzFfnpvA3W4PC33R1/DkLg8Q8AFko6suDycDKGrZci4PCdqRFFJ5Lg8j7VzKToAuTxHgyjcOBy5PPwK7xJGOLk8"
    "iqIDeWJUuTzu1XC7jnC5PDEqLonLjLk8v5k/kxmpuTws2dWMecW5PBF0byvs4bk8StL6JnL+uTySNvk5DBu6PFvIoiG7N7o8"
    "iLsLnn9UujykqUpyWnG6PD0xoGRMjro8CPGfPlarujzO9VrNeMi6PDazi+G05bo8GqHDTwsDuzxbmJrwfCC7PAAM4KAKPrs8"
    "Az3OQbVbuzwniT+5fXm7PDz35fFkl7s8biWF22u1uzyiwC5rk9O7PIOugZvc8bs8oBbsbEgQvDwtevDl1y68PBwNbhOMTbw8"
    "BYfsCGZsvDwXpuvgZou8PKuiNr2Pqrw8kNY7x+HJvDw34GgwXum8PG6PizIGCb08IO83ENsovTxHxjMV3ki9PCPx55YQab08"
    "pfvX9HOJvTxwbiCZCaq9PA5J/PjSyr08Ny5SldHrvTwc0kn7Bg2+PPZG6sR0Lr48iNHBmRxQvjwl/pcvAHK+PAq/KkshlL48"
    "CG/3wIG2vjw6pxB2I9m+PKnsAWEI/L48IVPCijIfvzxtTbcPpEK/PGgBySBfZr88gpeJBGaKvzy/InEYu66/PIXnL9Jg0788"
    "C/YYwVn4vzx1oNNH1A7APEfJjwKoIcA8qwKpg6k0wDzH9T5O2kfAPH6zrfY7W8A8aCanI9BuwDwXLmOPmILAPFSi6AiXlsA8"
    "xMBxdc2qwDxI1O7RPb/APDA9qjTq08A8k2URz9TowDy2n6bv//3APEFwIARuE8E8NV27myEpwTxtCcRpHT/BPDsuYEhkVcE8"
    "8+6dO/lrwTxhEtJ034LBPKzrTlYamsE8ji9/d62xwTyUpnGpnMnBPDmu5Pvr4cE8Adniwp/6wTyBzASdvBPCPO7Tb3pHLcI8"
    "JJyspEVHwjzgWHbHvGHCPC5ZqPqyfMI8eA53zS6YwjxSCipTN7TCPJfbljHU0MI89XipsQ3uwjzurlbS7AvDPKOkaF57KsM8"
    "oxKuBcRJwzxAqDN60mnDPApBVpKzisM8+oiucHWswzymBBezJ8/DPHX0YKrb8sM82uW5nKQXxDyUXlQVmD3EPBU6p0TOZMQ8"
    "vEOcdWKNxDwnWmudc7fEPAKJzQ0l48Q8QazpU58QxTxCfjpSEUDFPBvkSqmxccU82Y1xi8ClxTz+0DokitzFPEwehs9pFsY8"
    "6moAe85TxjzD5Z++QJXGPDLiCY1r28Y8NHpf8CgnxzxzBglWlXnHPIzO1vQt1Mc8NPIpBQM5yDwUfKq/D6vIPJZEb5TgLsk8"
    "q1dAAe7LyTxad5R43I/KPLH9eDgfmMs8M60JgrQ7zTxq7yWAPfMOAAAAAAAAAAAAqMb7mL4IDABCgb36VKMNAOruwX72UQ4A"
    "fvfT6VWyDgC5yn6BS+8OAKpE+gpHGQ8AGMv/Ye03DwBcJWGVRk8PAJajG+SlYQ8ApJZTdXpwDwCaRCjssnwPANNXYwzxhg8A"
    "3iWDV6aPDwDa0E3HJJcPAAn12wepnQ8AdPqB9WCjDwD4S1veb6gPANxU02DxrA8AD7kYZ/uwDwDGdFONn7QPAHf+ZiPstw8A"
    "DuWh6ey6DwDtCwSdq70PAFds/2AwwA8ASKI3EILCDwDRW+J6psQPADHuepeixg8ApJYoqXrIDwCF3kteMsoPABojAunMyw8A"
    "xDn4Ek3NDwCZ7I9Ntc4PADDJHb8H0A8A5sTWTUbRDwBQ9OKoctIPAB7J8E+O0w8AeLSQmZrUDwBTD5K4mNUPAOyZjsCJ1g8A"
    "MujIqW7XDwDoCHtUSNgPAIwsrYsX2Q8A0q2nB93ZDwCMXhBwmdoPACAuwF1N2w8A0PxbXPnbDwB9mrnrndwPAJ1yGIE73Q8A"
    "kC80iNLdDwBknzZkY94PAE5RjXDu3g8ALrSmAXTfDwBA7Zll9N8PAPIkvORv4A8AWKIlwubgDwBMuCg8WeEPAJk/vIzH4Q8A"
    "qhzb6THiDwCRG9qFmOIPAIZBtY/74g8ASo1VM1vjDwAqANCZt+MPAH+tnukQ5A8ANHfURmfkDwBcCUzTuuQPACSV0q4L5Q8A"
    "eLxO91nlDwASEuTIpeUPAImGEz7v5Q8AeBDZbzbmDwB41cZ1e+YPAKoRHma+5g8A8vTlVf/mDwACpwBZPucPADmePoJ75w8A"
    "onBw47bnDwBDQneN8OcPAIzwU5Ao6A8AOhc1+17oDwBkCITck+gPALzO8EHH6A8A9k59OPnoDwAdm4fMKekPAOqI0wlZ6Q8A"
    "opqT+4bpDwBmSHGss+kPANW2lCbf6Q8AfOarcwnqDwCkZvGcMuoPACyVMqta6g8AGnTVpoHqDwDwHN6Xp+oPACDZ84XM6g8A"
    "POZlePDqDwAT7C92E+sPAEoq/oU16w8AtGIxrlbrDwD6hOL0dusPABQg5l+W6w8AfJ3P9LTrDwDQSfS40usPAD4ubrHv6w8A"
    "6L0e4wvsDwAVWrFSJ+wPANOvnQRC7A8AlvEp/VvsDwD07mxAdewPALQMUNKN7A8AEh+RtqXsDwD+J8TwvOwPABX7VITT7A8A"
    "s8iIdOnsDwC3kX/E/uwPACiFNXcT7Q8AA0mEjyftDwBMLyQQO+0PAG5YrftN7Q8A3cOYVGDtDwDoT0Edcu0PAIKp5FeD7Q8A"
    "yCykBpTtDwAEt4UrpO0PALRqdMiz7Q8AUmZB38LtDwBSbqRx0e0PANOKPIHf7Q8AgJmQD+3tDwAU1A8e+u0PAMRLEq4G7g8A"
    "BlrZwBLuDwDgBpBXHu4PACRlS3Mp7g8AvOQKFTTuDwA8m7g9Pu4PAPSCKe5H7g8AhrAdJ1HuDwBBf0DpWe4PAC60KDVi7g8A"
    "8ZdYC2ruDwB6Bz5sce4PAIJ7Mlh47g8AugZ7z37uDwCySkjShO4PAENjtmCK7g8AUcjMeo/uDwDaJX4glO4PAOopqFGY7g8A"
    "XEgTDpzuDwD0c3JVn+4PAK7MYiei7g8ArEJrg6TuDwBxLfxopu4PAPrWbten7g8ACvoEzqjuDwA7M+hLqe4PABBkKVCp7g8A"
    "XgfA2ajuDwBUdonnp+4PACQdSHim7g8Ag56iiqTuDwDa5CIdou4PACQgNS6f7g8ALq8mvJvuDwDk8iTFl+4PADoKPEeT7g8A"
    "FnVVQI7uDwB6nDauiO4PAP09f46C7g8AiLin3nvuDwD/N/+bdO4PAF69qcNs7g8AfgCeUmTuDwCIKKNFW+4PALZXTplR7g8A"
    "zwYASkfuDwBQLOFTPO4PANgq4LIw7g8ABYKtYiTuDwBaPLheF+4PAEcUKqIJ7g8AzEnjJ/vtDwBsIXbq6+0PAH4EIuTb7Q8A"
    "0znODsvtDwD0LARkue0PAMk46dym7Q8Ajek3cpPtDwA2qDgcf+0PACvAudJp7Q8AAK4GjVPtDwAipN5BPO0PANgvaucj7Q8A"
    "ROYvcwrtDwA0/gfa7+wPALi3DhDU7A8AtG6VCLfsDwDBMBK2mOwPAHipDQp57A8A/jEP9VfsDwBiyYZmNewPADWztEwR7A8A"
    "0G+OlOvrDwCStqApxOsPANwM7vWa6w8AQoXJ4W/rDwCeH63TQusPAEstC7AT6w8A6QIaWeLqDwBXIpmuruoPACbjjo146g8A"
    "5XP9zz/qDwD22Y1MBOoPADtWL9bF6Q8ApEepO4TpDwAoRx1HP+kPANbFdr326A8A5ujEXaroDwDqsXrgWegPAECpkPYE6A8A"
    "wDOCSKvnDwClah91TOcPAAKiKhDo5g8A2Ku2oH3mDwB+MDifDOYPAEL3OHOU5Q8AgHKXcBTlDwBY9DbUi+QPADce/b/54w8A"
    "nLHuNV3jDwD+5C8SteIPAFdVmQMA4g8AFIN4gjzhDwCwZ+7EaOAPAKpxK7CC3w8Aqv5+xYfeDwD9O8YJdd0PABO/KeVG3A8A"
    "ggIu+PjaDwB1urLhhdkPAATPSO/m1w8AC2W9rRPWDwAS8OJJAdQPAKzHtKeh0Q8Anh92BOLODwCyEV7YqMsPACItzW7Sxw8A"
    "7SIeLyvDDwA6uMCBZb0PADRUAMQGtg8AdCgqWECsDwCYRQEel54PAPwdpEj6iQ8ALDDw98VmDwBKHDNLWhoPAA==")
_ZIGGURAT_WI = np.frombuffer(_ZIGGURAT, "<f8", 256)
_ZIGGURAT_KI = np.frombuffer(_ZIGGURAT, "<u8", 256, 2048)


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


@dataclass(frozen=True)
class TolerancePolicy:
    """The node guard radius.

    ``node_guard`` is the minimum allowed distance to a field singularity
    (a wavefunction node); evaluation inside it raises instead of
    returning garbage.
    """

    node_guard: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.node_guard) and self.node_guard > 0):
            raise ValueError(f"TolerancePolicy.node_guard must be finite and positive, "
                             f"got {self.node_guard!r}")


@dataclass(frozen=True)
class SeedSpec:
    """Master seed of the member streams.

    Trajectory ``i``'s stream is seeded with
    ``mix_seed(master_seed, i)`` (splitmix64), which numpy's
    ``SeedSequence`` hashes into a PCG64 state: the stream is
    ``substream_rng(spec, i)``.  ``substream_uniforms`` and
    ``substream_normals`` derive the same states for a whole batch at once
    and draw from them exactly what the streams' ``random`` and ``normal``
    would.  Identical specs therefore reproduce bit-identical sampled
    initial conditions on every platform.
    """

    master_seed: int

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 bits")


def substream_rng(spec: SeedSpec, index: int) -> np.random.Generator:
    """Independent, reproducible generator for one trajectory index."""
    return np.random.default_rng(mix_seed(spec.master_seed, index))


def substream_uniforms(spec: SeedSpec, first: int, count: int, draws: int) -> np.ndarray:
    """The first ``draws`` variates of ``substream_rng(spec, i).random()`` for each
    substream i in ``first .. first + count - 1``, as a (count, draws) array.

    Each variate is one PCG64 output word w (``_pcg64_jump``) mapped to
    ``(w >> 11) * 2**-53``, which is what numpy's ``Generator.random``
    computes; here it runs for a whole batch of states at once.
    """
    out = np.empty((count, draws))
    for start in range(0, count, _STATE_BATCH):
        stop = min(start + _STATE_BATCH, count)
        states = _pcg64_states(spec.master_seed, first + start, stop - start)
        *_, words = _pcg64_jump(*(h[:, None] for h in states), np.arange(1, draws + 1))
        out[start:stop] = (words >> np.uint64(11)).astype(float) * 2.0 ** -53
    return out


def substream_normals(spec: SeedSpec, first: int, count: int, mean: float, sigma: float,
                      box) -> np.ndarray:
    """For each substream i in ``first .. first + count - 1`` and each interval
    (lo, hi) of ``box`` in turn, the first ``substream_rng(spec, i).normal(mean,
    sigma)`` draw inside [lo, hi], as a (count, len(box)) array.

    numpy draws a normal with its ziggurat: one PCG64 word w gives
    ``idx = w & 0xff``, a sign bit and a 52-bit ``rabs``, and when ``rabs <
    ki[idx]`` (~98.5% of words) the draw is ``±rabs * wi[idx]``; the other
    words (the idx-0 tail and the wedges) go on to draw more.  Here the
    fast words are read for a batch of members at once and their values
    ``mean + sigma * x`` accepted inside [lo, hi]; a slow word is handed to
    a numpy generator set to the state before it, for one
    ``standard_normal`` call.  So every draw is bit for bit numpy's.
    Raises ``EmptyRegion`` when a member misses an interval
    ``_MAX_MISSES`` times in a row.
    """
    out = np.empty((count, len(box)))
    rng = np.random.Generator(np.random.PCG64())
    for start in range(0, count, _STATE_BATCH):
        states = _pcg64_states(spec.master_seed, first + start, min(_STATE_BATCH, count - start))
        for k, (lo, hi) in enumerate(box):
            out[start:start + states[0].size, k] = _truncated_normals(rng, states, mean, sigma,
                                                                      lo, hi, k)
    return out


def _truncated_normals(rng, states, mean, sigma, lo, hi, axis) -> np.ndarray:
    """One ``normal(mean, sigma)`` draw inside [lo, hi] per PCG64 stream of
    ``states`` (uint64 halves), whose states are advanced past it in place.

    Each round reads ``width`` words from each of the first streams still
    drawing, as many streams as fit in ``_ROUND_WORDS`` words, where
    ``width`` is the first stream's budget.  A stream stops at its first
    slow or accepted word.  At an accepted word it is done; a slow one is
    handed to numpy from the state before it, and if numpy's draw misses,
    the stream reads on next round.  A stream that finds neither gets a
    budget of twice the width, up to ``_MAX_BUDGET``.  Unfinished streams
    stay first, so they reach the ``_MAX_MISSES`` cut soon when the
    interval has no mass.
    """
    st_hi, st_lo, inc_hi, inc_lo = states
    out = np.empty(st_hi.size)
    live = np.arange(st_hi.size)
    budget = np.ones(st_hi.size, dtype=np.int64)
    misses = np.zeros(st_hi.size, dtype=np.int64)
    while live.size:
        width = budget[live[0]]
        take, rest = np.split(live, [_ROUND_WORDS // width])
        s_hi, s_lo, words = _pcg64_jump(st_hi[take, None], st_lo[take, None], inc_hi[take, None],
                                        inc_lo[take, None], np.arange(1, width + 1))
        idx = (words & np.uint64(0xFF)).astype(np.intp)
        rabs = (words >> np.uint64(9)) & np.uint64((1 << 52) - 1)
        x = rabs.astype(float) * _ZIGGURAT_WI[idx]
        np.negative(x, out=x, where=(words & np.uint64(0x100)).astype(bool))
        value = mean + sigma * x
        fast = rabs < _ZIGGURAT_KI[idx]
        event = ~fast | ((lo <= value) & (value <= hi))
        rows = np.arange(take.size)
        first = event.argmax(axis=1)
        found = event[rows, first]
        done = found & fast[rows, first]
        out[take[done]] = value[rows[done], first[done]]
        # each stream missed the words before its event, and moves past the
        # accepted word, to just before a slow one, or past all it read
        stop = np.where(found, first, width)
        misses[take] += stop
        moved = stop + done > 0
        last = (stop + done - 1)[moved]
        st_hi[take[moved]], st_lo[take[moved]] = s_hi[rows[moved], last], s_lo[rows[moved], last]
        for r in np.flatnonzero(found & ~done).tolist():
            i = take[r]
            draw, state = _slow_normal(rng, (int(st_hi[i]) << 64) | int(st_lo[i]),
                                       (int(inc_hi[i]) << 64) | int(inc_lo[i]))
            st_hi[i], st_lo[i] = np.uint64(state >> 64), np.uint64(state & _MASK64)
            draw = mean + sigma * draw
            if lo <= draw <= hi:
                out[i], done[r] = draw, True
            else:
                misses[i] += 1
        if misses[take].max() >= _MAX_MISSES:
            raise EmptyRegion(
                f"gaussian rejection sampling failed on axis {axis}: the interval "
                f"({lo}, {hi}) carries almost no probability mass")
        budget[take[~found]] = min(2 * width, _MAX_BUDGET)
        live = np.concatenate([take[~done], rest])
    return out


def _slow_normal(rng: np.random.Generator, state: int, inc: int):
    """One ``standard_normal`` draw of ``rng`` set to the PCG64 ``(state, inc)``;
    returns the draw and the state after it."""
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    draw = rng.standard_normal()
    return draw, rng.bit_generator.state["state"]["state"]


def _pcg64_jump(state_hi, state_lo, inc_hi, inc_lo, steps):
    """PCG64 states, as uint64 halves, advanced by ``steps`` (>= 1, broadcast
    against them) steps, and the XSL-RR output words of the states reached.

    j steps of the 128-bit LCG are one jump, ``A**j * state + (1 + A + ...
    + A**(j-1)) * inc``, with both factors read from ``_PCG64_JUMPS``.
    """
    mult_hi, mult_lo, add_hi, add_lo = (table[steps - 1] for table in _PCG64_JUMPS)
    state_hi, state_lo = _add128(*_mul128(state_hi, state_lo, mult_hi, mult_lo),
                                 *_mul128(inc_hi, inc_lo, add_hi, add_lo))
    # XSL-RR: rotate hi ^ lo right by the state's top six bits
    word, rot = state_hi ^ state_lo, state_hi >> np.uint64(58)
    word = (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))
    return state_hi, state_lo, word


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


def _pcg64_jumps(size: int):
    """``A**j`` and ``1 + A + ... + A**(j-1)`` mod 2**128 for j = 1 .. ``size``,
    A being PCG64's multiplier, as the uint64 halves (mult_hi, mult_lo,
    add_hi, add_lo).  The table doubles: j + h steps are h steps after j."""
    one = np.ones(1, dtype=np.uint64)
    mult, add = (_PCG64_MULT_HALVES[0] * one, _PCG64_MULT_HALVES[1] * one), (0 * one, one)
    while mult[0].size < size:
        a_h, c_h = (mult[0][-1], mult[1][-1]), (add[0][-1], add[1][-1])
        more_mult = _mul128(*mult, *a_h)
        more_add = _add128(*_mul128(*add, *a_h), *c_h)
        mult = tuple(np.concatenate(pair) for pair in zip(mult, more_mult))
        add = tuple(np.concatenate(pair) for pair in zip(add, more_add))
    return mult + add


_PCG64_JUMPS = _pcg64_jumps(_MAX_BUDGET)
NATURAL_UNITS = UnitSystem()
DEFAULT_TOLERANCE = TolerancePolicy()
