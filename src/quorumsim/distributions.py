"""Seeded sampling of durations and keys.

Reproducibility contract
------------------------
All randomness flows through :class:`RngStream`. A stream is identified by
(master seed, label); identical pairs yield identical raw word sequences on
every platform and every Python version, because draws are taken from the
raw 64-bit output of PCG64 (M. E. O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905), seeded as numpy's ``SeedSequence`` seeds
numpy's ``PCG64``, so a stream's words are ``random_raw``'s. The stream and
its seeding are plain Python integer arithmetic. Tables built from floats
rest on Python's float ``**`` (the platform's libm ``pow``) and
``math.fsum``: a :class:`Zipfian` CDF is the running sum of the weights
``r ** -s``, each divided by their correctly rounded total. A ``pow`` that
differs in the last bit of a weight moves a CDF entry by one ulp, and a
uniform that falls in that gap draws a different key.

A stream maps each raw word to the uniform deviate
((word >> 11) + 0.5) * 2**-53, strictly inside (0, 1) (the top word, which
would round to 1, gives the largest double below 1), and
``stream.uniform()`` returns the next one. Each distribution has one draw
method, ``sampler(rng)``, which returns a zero-argument closure over
``rng.uniform``; a duration's ``largest()`` is its draw at the largest
uniform, before rounding. Every stochastic draw consumes exactly one word;
the degenerate Constant consumes zero. Each purpose draws from its own labeled
stream, so changing one consumer's distribution never shifts any other
stream's sequence.

Durations are integer microseconds: float draws are clamped to >= 0 and
rounded half-up.

A :class:`Zipfian` builds its CDF on its first ``sampler()`` call; building,
validating and comparing distributions never does.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import exp, fsum, isfinite, log, log1p
from statistics import NormalDist

_INV53 = 2.0 ** -53
_U_MAX = 1.0 - _INV53  # the largest double below 1
_INV_CDF = NormalDist().inv_cdf
# A draw at the largest uniform takes the normal quantile _Z_TAIL (about
# 8.21) or the exponential factor _EXP_TAIL (about 36.74); exp() of more than
# _LN_MAX (about 709.78) is not a finite float.
_Z_TAIL = _INV_CDF(_U_MAX)
_EXP_TAIL = -log1p(-_U_MAX)
_LN_MAX = log(sys.float_info.max)

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier


def _seed_words(entropy: list[int]) -> list[int]:
    """The four u64 words that numpy's ``SeedSequence(entropy)`` gives to
    ``generate_state(4, uint64)``: its pool of four u32 words, mixed and
    hashed with the constants of numpy's ``bit_generator.pyx``. A stream's
    entropy (the seed and the label's four words) is never shorter than the
    pool, so no pool word is padded from zero."""
    u32 = []  # each int as its u32 words, least significant first; 0 is one word
    for n in entropy:
        u32.append(n & _M32)
        while n > _M32:
            n >>= 32
            u32.append(n & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(value) for value in u32[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in u32[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    state, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in (0, 2, 4, 6)]


# A stream steps its state _BATCH times at once. The k-th state after st is
# (a_k * st + c_k) mod 2**128, with a_k = MULT**k and c_k = inc times the sum
# of MULT**j for j < k, so one product of st with the a_k, packed one to a
# 256-bit lane, gives the next _BATCH states. No lane carries into the next:
# a_k * st + (c_k mod 2**128) is below 2**256.
_BATCH, _LANE = 256, 256
# per lane, little-endian: the xored halves (u64 0) and the shift (u64 1)
_UNPACK = struct.Struct("<" + "QQ16x" * _BATCH).unpack


def _packed(values) -> int:
    return int.from_bytes(b"".join(v.to_bytes(_LANE // 8, "little") for v in values), "little")


def _jumps():
    a, s = 1, 0
    for _ in range(_BATCH):
        a, s = a * _PCG_MULT & _M128, (s * _PCG_MULT + 1) & _M128
        yield a, s


_JUMP_A, _JUMP_SUM = (_packed(col) for col in zip(*_jumps()))
_LANE_M128, _LANE_M64, _LANE_M6, _LANE_10 = (_packed([v] * _BATCH) for v in (_M128, _M64, 63, 10))


def _uniform_batches(st: int, inc: int):
    """PCG64's words after state st, with increment inc, as uniforms: one
    list of _BATCH per step.

    A word is the XSL-RR output of its state: the state's two halves xored,
    rotated right by its top six bits. For the uniform, w is the word's top
    53 bits and 2 * w + 1 is the xor times 2**64 + 1 (two copies side by
    side) shifted right by the rotation plus 10, masked to 54 bits, with its
    lowest bit set. (2 * w + 1) * 2**-54 rounds as (w + 0.5) * 2**-53 does.
    """
    jump_c = _JUMP_SUM * inc & _LANE_M128
    last, nbytes = _LANE * (_BATCH - 1), _LANE * _BATCH // 8
    rot, m54, scale, u_max = 2**64 + 1, 2**54 - 1, 2.0**-54, _U_MAX
    while True:
        states = (st * _JUMP_A + jump_c) & _LANE_M128
        st = states >> last
        lanes = (states ^ states >> 64) & _LANE_M64 | ((states >> 122) & _LANE_M6) + _LANE_10 << 64
        fields = iter(_UNPACK(lanes.to_bytes(nbytes, "little")))
        batch = list(map(scale.__mul__, [x * rot >> shift & m54 | 1 for x, shift in zip(fields, fields)]))
        if 1.0 in batch:  # the top word alone rounds to 1.0; it gives the largest double below 1
            batch = [u if u < 1.0 else u_max for u in batch]
        yield batch


class RngStream:
    """One labeled, independently seeded deterministic generator.

    Single-owner: a stream may be handed between threads but never shared
    concurrently. ``uniform()`` draws one word mapped into the open interval
    (0, 1); the words are computed _BATCH at a time. The batch generator
    refers only to its own state, never back to the stream, so a dropped
    stream is freed without the cycle collector.
    """

    __slots__ = ("seed", "label", "uniform")

    def __init__(self, seed: int, label: str):
        self.seed = seed
        self.label = label
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8, 16, 24)]
        s0, s1, q0, q1 = _seed_words([seed & _M64, *words])
        inc = ((q0 << 64 | q1) << 1 | 1) & _M128
        st = ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _M128
        self.uniform = chain.from_iterable(_uniform_batches(st, inc)).__next__


class StreamFactory:
    """Caches one RngStream per label under a single master seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, RngStream] = {}

    def stream(self, label: str) -> RngStream:
        s = self._streams.get(label)
        if s is None:
            s = self._streams[label] = RngStream(self.seed, label)
        return s


# ---------------------------------------------------------------------------
# Duration distributions (parameters in microseconds)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    value_us: int

    def sampler(self, rng: RngStream):
        return repeat(self.value_us).__next__

    def largest(self) -> float:
        return self.value_us

    def problems(self) -> list[str]:
        return [] if self.value_us >= 0 else [f"constant value {self.value_us} < 0"]


@dataclass(frozen=True)
class Uniform:
    lo_us: int
    hi_us: int

    def sampler(self, rng: RngStream):
        u, lo, span = rng.uniform, self.lo_us, self.hi_us - self.lo_us

        def draw():
            x = lo + u() * span
            return int(x + 0.5) if x > 0.0 else 0

        return draw

    def largest(self) -> float:
        return self.hi_us

    def problems(self) -> list[str]:
        if 0 <= self.lo_us <= self.hi_us:
            return []
        return [f"uniform bounds ({self.lo_us}, {self.hi_us}) violate 0 <= lo <= hi"]


@dataclass(frozen=True)
class Exponential:
    mean_us: float

    def sampler(self, rng: RngStream):
        u, mean = rng.uniform, self.mean_us

        def draw():
            x = -mean * log1p(-u())
            return int(x + 0.5) if x > 0.0 else 0

        return draw

    def largest(self) -> float:
        return self.mean_us * _EXP_TAIL

    def problems(self) -> list[str]:
        if not self.mean_us > 0:
            return [f"exponential mean {self.mean_us} <= 0"]
        if not isfinite(self.largest()):
            return [f"exponential mean {self.mean_us} makes the largest draw overflow a float"]
        return []


@dataclass(frozen=True)
class LogNormal:
    """Heavy-tailed option; mu/sigma parameterize the underlying normal of ln(us)."""

    mu: float
    sigma: float

    def sampler(self, rng: RngStream):
        u, mu, sigma = rng.uniform, self.mu, self.sigma

        def draw():
            x = exp(mu + sigma * _INV_CDF(u()))
            return int(x + 0.5) if x > 0.0 else 0

        return draw

    def largest(self) -> float:
        z = self.mu + self.sigma * _Z_TAIL
        return exp(z) if z < _LN_MAX else float("inf")

    def problems(self) -> list[str]:
        if not self.sigma >= 0:
            return [f"lognormal sigma {self.sigma} < 0"]
        if not isfinite(self.largest()):
            return [f"lognormal mu {self.mu} and sigma {self.sigma} make the largest draw overflow a float"]
        return []


@dataclass(frozen=True)
class Empirical:
    """Resamples a user-provided list; stored sorted so the draw is a quantile lookup."""

    samples_us: tuple[int, ...]

    def __init__(self, samples_us):
        object.__setattr__(self, "samples_us", tuple(sorted(samples_us)))

    def sampler(self, rng: RngStream):
        u, samples, n = rng.uniform, self.samples_us, len(self.samples_us)
        return lambda: samples[int(u() * n)]

    def largest(self) -> float:
        return self.samples_us[-1] if self.samples_us else 0

    def problems(self) -> list[str]:
        out = []
        if not self.samples_us:
            out.append("empirical sample list is empty")
        elif self.samples_us[0] < 0:
            out.append(f"empirical sample {self.samples_us[0]} < 0")
        return out


Distribution = Constant | Uniform | Exponential | LogNormal | Empirical


# ---------------------------------------------------------------------------
# Key distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformKeys:
    n: int

    def sampler(self, rng: RngStream):
        u, n = rng.uniform, self.n
        return lambda: int(u() * n)

    def problems(self) -> list[str]:
        return [] if self.n >= 1 else [f"uniform key count {self.n} < 1"]


@dataclass(frozen=True)
class Zipfian:
    """Key r (0-based rank) has mass (r+1)^-s / H(n, s).

    The CDF is built on the first ``sampler()`` call and cached on the
    instance; equality, hash, repr and pickling use only (n, s).
    """

    n: int
    s: float

    def __reduce__(self):  # the cached CDF stays behind; a copy builds its own
        return Zipfian, (self.n, self.s)

    def pmf(self) -> list[float]:
        """The key masses: each weight r ** -s over the weights' fsum."""
        weights = [r ** -self.s for r in range(1, self.n + 1)]
        total = fsum(weights)
        return [w / total for w in weights]

    @cached_property
    def _cdf(self) -> tuple[float, ...]:
        cdf = list(accumulate(self.pmf()))
        cdf[-1] = 1.0  # the sum can round below 1; the last rank takes the rest
        return tuple(cdf)

    def sampler(self, rng: RngStream):
        u, cdf = rng.uniform, self._cdf
        return lambda: bisect_right(cdf, u())

    def problems(self) -> list[str]:
        out = []
        if self.n < 1:
            out.append(f"zipfian key count {self.n} < 1")
        if self.s < 0:
            out.append(f"zipfian skew {self.s} < 0")
        return out


KeyDistribution = UniformKeys | Zipfian
