"""Seeded sampling of durations and keys.

Reproducibility contract
------------------------
All randomness flows through :class:`RngStream`. A stream is identified by
(master seed, label); identical pairs yield identical draw sequences on every
platform and every library version, because draws are taken from the raw
64-bit output of a PCG64 bit generator (the raw stream is fixed by the PCG64
algorithm, independent of numpy's distribution methods).

A stream holds the only buffer: it maps each batch of raw words to uniform
deviates ((word >> 11) + 0.5) * 2**-53, strictly inside (0, 1), and
``stream.uniform()`` returns the next one. Each distribution has one draw
method, ``sampler(rng)``, which returns a zero-argument closure over
``rng.uniform``. Every stochastic draw consumes exactly one word; the
degenerate Constant consumes zero. Each purpose draws from its own labeled
stream, so changing one consumer's distribution never shifts any other
stream's sequence.

Durations are integer microseconds: float draws are clamped to >= 0 and
rounded half-up.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, repeat
from math import exp, isfinite, log1p
from statistics import NormalDist

import numpy as np
from numpy.random import PCG64, SeedSequence

_INV53 = 2.0 ** -53
_INV_CDF = NormalDist().inv_cdf
_BATCH_WORDS = 4096


def _uniform_batch(bg: PCG64) -> list[float]:
    return (((bg.random_raw(_BATCH_WORDS) >> 11).astype(np.float64) + 0.5) * _INV53).tolist()


class RngStream:
    """One labeled, independently seeded deterministic generator.

    Single-owner: a stream may be handed between threads but never shared
    concurrently. ``uniform()`` draws one word mapped into the open interval
    (0, 1). The batch iterator refers only to the bit generator, never back
    to the stream, so a dropped stream is freed without the cycle collector.
    """

    __slots__ = ("seed", "label", "uniform")

    def __init__(self, seed: int, label: str):
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

    def problems(self) -> list[str]:
        return [] if self.value_us >= 0 else [f"constant value {self.value_us} < 0"]

    def to_json(self) -> dict:
        return {"kind": "constant", "value_us": self.value_us}


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

    def problems(self) -> list[str]:
        if 0 <= self.lo_us <= self.hi_us:
            return []
        return [f"uniform bounds ({self.lo_us}, {self.hi_us}) violate 0 <= lo <= hi"]

    def to_json(self) -> dict:
        return {"kind": "uniform", "lo_us": self.lo_us, "hi_us": self.hi_us}


@dataclass(frozen=True)
class Exponential:
    mean_us: float

    def sampler(self, rng: RngStream):
        u, mean = rng.uniform, self.mean_us

        def draw():
            x = -mean * log1p(-u())
            return int(x + 0.5) if x > 0.0 else 0

        return draw

    def problems(self) -> list[str]:
        return [] if self.mean_us > 0 else [f"exponential mean {self.mean_us} <= 0"]

    def to_json(self) -> dict:
        return {"kind": "exponential", "mean_us": self.mean_us}


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

    def problems(self) -> list[str]:
        return [] if self.sigma >= 0 else [f"lognormal sigma {self.sigma} < 0"]

    def to_json(self) -> dict:
        return {"kind": "lognormal", "mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class Empirical:
    """Resamples a user-provided list; stored sorted so the draw is a quantile lookup."""

    samples_us: tuple[int, ...]

    def __init__(self, samples_us):
        object.__setattr__(self, "samples_us", tuple(sorted(samples_us)))

    def sampler(self, rng: RngStream):
        u, samples, n = rng.uniform, self.samples_us, len(self.samples_us)
        return lambda: samples[int(u() * n)]

    def problems(self) -> list[str]:
        out = []
        if not self.samples_us:
            out.append("empirical sample list is empty")
        elif self.samples_us[0] < 0:
            out.append(f"empirical sample {self.samples_us[0]} < 0")
        return out

    def to_json(self) -> dict:
        return {"kind": "empirical", "samples_us": list(self.samples_us)}


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

    def to_json(self) -> dict:
        return {"kind": "uniform", "n": self.n}


@dataclass(frozen=True)
class Zipfian:
    """Key r (0-based rank) has mass (r+1)^-s / H(n, s)."""

    n: int
    s: float
    _cdf: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n >= 1 and self.s >= 0:
            object.__setattr__(self, "_cdf", tuple(np.cumsum(self.pmf()).tolist()))
        else:
            object.__setattr__(self, "_cdf", ())

    def pmf(self) -> np.ndarray:
        weights = np.arange(1, self.n + 1, dtype=np.float64) ** (-self.s)
        return weights / weights.sum()

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

    def to_json(self) -> dict:
        return {"kind": "zipfian", "n": self.n, "s": self.s}


KeyDistribution = UniformKeys | Zipfian


# ---------------------------------------------------------------------------
# JSON parsing: kind -> (class, {field: type check}), one table per family
# ---------------------------------------------------------------------------

# Values a draw returns as they are must be integers, so every *_us field of
# the event log stays an integer; formula parameters are any finite number.
_INT = ("an integer", lambda v: type(v) is int)
_REAL = ("a finite number", lambda v: type(v) is int or (type(v) is float and isfinite(v)))
_INT_LIST = ("a list of integers", lambda v: type(v) is list and all(type(x) is int for x in v))

_DURATION_KINDS = {
    "constant": (Constant, {"value_us": _INT}),
    "uniform": (Uniform, {"lo_us": _REAL, "hi_us": _REAL}),
    "exponential": (Exponential, {"mean_us": _REAL}),
    "lognormal": (LogNormal, {"mu": _REAL, "sigma": _REAL}),
    "empirical": (Empirical, {"samples_us": _INT_LIST}),
}

_KEY_KINDS = {
    "uniform": (UniformKeys, {"n": _INT}),
    "zipfian": (Zipfian, {"n": _INT, "s": _REAL}),
}


def _from_json(obj, kinds: dict, what: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{what} must be an object with a 'kind': {obj!r}")
    kind = obj["kind"]
    entry = kinds.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ValueError(f"unknown {what} kind {kind!r}")
    cls, fields = entry
    args = []
    for name, (noun, ok) in fields.items():
        if name not in obj:
            raise ValueError(f"{what} {kind!r} is missing field {name!r}")
        if not ok(obj[name]):
            raise ValueError(f"{what} {kind!r} field {name!r} must be {noun}, got {obj[name]!r}")
        args.append(obj[name])
    return cls(*args)


def distribution_from_json(obj: dict) -> Distribution:
    return _from_json(obj, _DURATION_KINDS, "distribution")


def key_distribution_from_json(obj: dict) -> KeyDistribution:
    return _from_json(obj, _KEY_KINDS, "key distribution")
