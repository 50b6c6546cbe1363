"""Seeded sampling of durations and keys.

Reproducibility contract
------------------------
All randomness flows through :class:`RngStream`. A stream is identified by
(master seed, label); identical pairs yield identical draw sequences on every
platform and every library version, because draws are taken from the raw
64-bit output of a PCG64 bit generator (the raw stream is fixed by the PCG64
algorithm, independent of numpy's distribution methods).

Every stochastic ``sample`` / ``sample_key`` call consumes exactly one
64-bit word from its stream; the degenerate Constant consumes zero. Each
purpose draws from its own labeled stream, so changing one consumer's
distribution never shifts any other stream's sequence. Uniform deviates are
((word >> 11) + 0.5) * 2**-53, strictly inside (0, 1).

Durations are integer microseconds: float draws are clamped to >= 0 and
rounded half-up. The ``sampler`` methods return prebound zero-argument
closures over a stream; they draw the same sequence as ``sample`` and exist
for hot loops.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from math import exp, log1p
from statistics import NormalDist

import numpy as np
from numpy.random import PCG64, SeedSequence

_INV53 = 2.0 ** -53
_INV_CDF = NormalDist().inv_cdf


class RngStream:
    """One labeled, independently seeded deterministic generator.

    Single-owner: a stream may be handed between threads but never shared
    concurrently. Draw with :meth:`next_u64` (one PCG64 output word) or
    :meth:`uniform` (one word mapped into the open interval (0, 1)).
    """

    __slots__ = ("seed", "label", "_bg", "_buf", "_pos")

    _BUF_WORDS = 4096

    def __init__(self, seed: int, label: str):
        self.seed = seed
        self.label = label
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8, 16, 24)]
        self._bg = PCG64(SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *words]))
        self._buf: list[int] = []
        self._pos = 0

    def next_u64(self) -> int:
        pos = self._pos
        if pos >= len(self._buf):
            self._buf = self._bg.random_raw(self._BUF_WORDS).tolist()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def uniform(self) -> float:
        """One draw in the open interval (0, 1)."""
        return ((self.next_u64() >> 11) + 0.5) * _INV53


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

    def sample(self, rng: RngStream) -> int:
        return self.value_us

    def sampler(self, rng: RngStream):
        v = self.value_us

        def draw():
            return v

        return draw

    def problems(self) -> list[str]:
        return [] if self.value_us >= 0 else [f"constant value {self.value_us} < 0"]

    def to_json(self) -> dict:
        return {"kind": "constant", "value_us": self.value_us}


@dataclass(frozen=True)
class Uniform:
    lo_us: int
    hi_us: int

    def sample(self, rng: RngStream) -> int:
        x = self.lo_us + rng.uniform() * (self.hi_us - self.lo_us)
        return int(x + 0.5) if x > 0.0 else 0

    def sampler(self, rng: RngStream):
        lo, span = self.lo_us, self.hi_us - self.lo_us

        def draw():
            pos = rng._pos
            if pos >= len(rng._buf):
                rng._buf = rng._bg.random_raw(rng._BUF_WORDS).tolist()
                pos = 0
            rng._pos = pos + 1
            x = lo + ((rng._buf[pos] >> 11) + 0.5) * _INV53 * span
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

    def sample(self, rng: RngStream) -> int:
        x = -self.mean_us * log1p(-rng.uniform())
        return int(x + 0.5) if x > 0.0 else 0

    def sampler(self, rng: RngStream):
        mean = self.mean_us

        def draw():
            pos = rng._pos
            if pos >= len(rng._buf):
                rng._buf = rng._bg.random_raw(rng._BUF_WORDS).tolist()
                pos = 0
            rng._pos = pos + 1
            x = -mean * log1p(-((rng._buf[pos] >> 11) + 0.5) * _INV53)
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

    def sample(self, rng: RngStream) -> int:
        x = exp(self.mu + self.sigma * _INV_CDF(rng.uniform()))
        return int(x + 0.5) if x > 0.0 else 0

    def sampler(self, rng: RngStream):
        mu, sigma = self.mu, self.sigma

        def draw():
            pos = rng._pos
            if pos >= len(rng._buf):
                rng._buf = rng._bg.random_raw(rng._BUF_WORDS).tolist()
                pos = 0
            rng._pos = pos + 1
            z = _INV_CDF(((rng._buf[pos] >> 11) + 0.5) * _INV53)
            x = exp(mu + sigma * z)
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

    def sample(self, rng: RngStream) -> int:
        return self.samples_us[int(rng.uniform() * len(self.samples_us))]

    def sampler(self, rng: RngStream):
        samples, n = self.samples_us, len(self.samples_us)

        def draw():
            pos = rng._pos
            if pos >= len(rng._buf):
                rng._buf = rng._bg.random_raw(rng._BUF_WORDS).tolist()
                pos = 0
            rng._pos = pos + 1
            return samples[int(((rng._buf[pos] >> 11) + 0.5) * _INV53 * n)]

        return draw

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


_DISTRIBUTION_KINDS = {
    "constant": (Constant, ("value_us",)),
    "uniform": (Uniform, ("lo_us", "hi_us")),
    "exponential": (Exponential, ("mean_us",)),
    "lognormal": (LogNormal, ("mu", "sigma")),
    "empirical": (Empirical, ("samples_us",)),
}


def distribution_from_json(obj: dict) -> Distribution:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"distribution must be an object with a 'kind': {obj!r}")
    kind = obj["kind"]
    entry = _DISTRIBUTION_KINDS.get(kind)
    if entry is None:
        raise ValueError(f"unknown distribution kind {kind!r}")
    cls, fields = entry
    try:
        return cls(*[obj[f] for f in fields])
    except KeyError as e:
        raise ValueError(f"distribution {kind!r} is missing field {e.args[0]!r}") from None


# ---------------------------------------------------------------------------
# Key distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformKeys:
    n: int

    def sample_key(self, rng: RngStream) -> int:
        return int(rng.uniform() * self.n)

    def key_sampler(self, rng: RngStream):
        n = self.n

        def draw():
            pos = rng._pos
            if pos >= len(rng._buf):
                rng._buf = rng._bg.random_raw(rng._BUF_WORDS).tolist()
                pos = 0
            rng._pos = pos + 1
            return int(((rng._buf[pos] >> 11) + 0.5) * _INV53 * n)

        return draw

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
            weights = np.arange(1, self.n + 1, dtype=np.float64) ** (-self.s)
            object.__setattr__(self, "_cdf", tuple(np.cumsum(weights / weights.sum()).tolist()))
        else:
            object.__setattr__(self, "_cdf", ())

    def pmf(self) -> np.ndarray:
        weights = np.arange(1, self.n + 1, dtype=np.float64) ** (-self.s)
        return weights / weights.sum()

    def sample_key(self, rng: RngStream) -> int:
        return bisect_right(self._cdf, rng.uniform())

    def key_sampler(self, rng: RngStream):
        cdf = self._cdf

        def draw():
            pos = rng._pos
            if pos >= len(rng._buf):
                rng._buf = rng._bg.random_raw(rng._BUF_WORDS).tolist()
                pos = 0
            rng._pos = pos + 1
            return bisect_right(cdf, ((rng._buf[pos] >> 11) + 0.5) * _INV53)

        return draw

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


def key_distribution_from_json(obj: dict) -> KeyDistribution:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"key distribution must be an object with a 'kind': {obj!r}")
    kind = obj["kind"]
    if kind == "uniform":
        if "n" not in obj:
            raise ValueError("uniform key distribution is missing field 'n'")
        return UniformKeys(obj["n"])
    if kind == "zipfian":
        missing = [f for f in ("n", "s") if f not in obj]
        if missing:
            raise ValueError(f"zipfian key distribution is missing field {missing[0]!r}")
        return Zipfian(obj["n"], obj["s"])
    raise ValueError(f"unknown key distribution kind {kind!r}")
