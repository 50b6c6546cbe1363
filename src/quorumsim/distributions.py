"""Seeded sampling of durations and keys.

Reproducibility contract
------------------------
All randomness flows through :class:`RngStream`. A stream is identified by
(master seed, label); identical pairs yield identical raw word sequences on
every platform and every library version, because draws are taken from the
raw 64-bit output of a PCG64 bit generator (the raw stream is fixed by the
PCG64 algorithm, independent of numpy's distribution methods). That holds
for the words, not bit for bit for every table built from floats: a
:class:`Zipfian` CDF comes from numpy's float64 ``**`` and ``cumsum``. On
one AVX-512 machine numpy's ``**`` differed from libm ``pow`` in 4 of the
100 weights of ``Zipfian(100, 0.99)``, though that CDF came out equal, and
a ``Zipfian(50, 0.99)`` CDF built with libm ``pow`` differed from numpy's
in the last bit. A uniform that falls between two such values draws a
different key.

A stream holds the only buffer: it maps each batch of raw words to uniform
deviates ((word >> 11) + 0.5) * 2**-53, strictly inside (0, 1) (the top
word, which would round to 1, gives the largest double below 1), and
``stream.uniform()`` returns the next one. Each distribution has one draw
method, ``sampler(rng)``, which returns a zero-argument closure over
``rng.uniform``; a duration's ``largest()`` is its draw at the largest
uniform, before rounding. Every stochastic draw consumes exactly one word;
the degenerate Constant consumes zero. Each purpose draws from its own labeled
stream, so changing one consumer's distribution never shifts any other
stream's sequence.

Durations are integer microseconds: float draws are clamped to >= 0 and
rounded half-up.

Only drawing needs numpy. A stream imports the PCG64 bit generator when it is
made, and a :class:`Zipfian` builds its CDF with numpy on its first
``sampler()`` call; building, validating and comparing distributions, and
everything ``analyze``, ``validate`` and ``quorum-check`` do, never load it.
"""

from __future__ import annotations

import hashlib
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from math import exp, isfinite, log, log1p
from statistics import NormalDist

_INV53 = 2.0 ** -53
_U_MAX = 1.0 - _INV53  # the largest double below 1
_INV_CDF = NormalDist().inv_cdf
_BATCH_WORDS = 4096
# A draw at the largest uniform takes the normal quantile _Z_TAIL (about
# 8.21) or the exponential factor _EXP_TAIL (about 36.74); exp() of more than
# _LN_MAX (about 709.78) is not a finite float.
_Z_TAIL = _INV_CDF(_U_MAX)
_EXP_TAIL = -log1p(-_U_MAX)
_LN_MAX = log(sys.float_info.max)


def _uniform_batch(bg) -> list[float]:
    # Methods of the word array only, so this module imports no numpy; float is float64.
    u = ((bg.random_raw(_BATCH_WORDS) >> 11).astype(float) + 0.5) * _INV53
    # The top word alone rounds to 1.0; it maps to the largest double below 1
    # (clip with no lower bound is numpy's minimum ufunc).
    return u.clip(None, _U_MAX, out=u).tolist()


class RngStream:
    """One labeled, independently seeded deterministic generator.

    Single-owner: a stream may be handed between threads but never shared
    concurrently. ``uniform()`` draws one word mapped into the open interval
    (0, 1). The batch iterator refers only to the bit generator, never back
    to the stream, so a dropped stream is freed without the cycle collector.
    """

    __slots__ = ("seed", "label", "uniform")

    def __init__(self, seed: int, label: str):
        from numpy.random import PCG64, SeedSequence  # only a draw loads numpy

        self.seed = seed
        self.label = label
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8, 16, 24)]
        bg = PCG64(SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *words]))
        self.uniform = chain.from_iterable(map(_uniform_batch, repeat(bg))).__next__


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

    def pmf(self):
        """The key masses as a numpy float64 array."""
        import numpy as np

        weights = np.arange(1, self.n + 1, dtype=np.float64) ** (-self.s)
        return weights / weights.sum()

    @cached_property
    def _cdf(self) -> tuple[float, ...]:
        cdf = self.pmf().cumsum()
        cdf[-1] = 1.0  # the sum can round below 1; the last rank takes the rest
        return tuple(cdf.tolist())

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
