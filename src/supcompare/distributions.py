"""Coordinate distributions (mean zero, independent coordinates) and
reproducible random streams.

A law is declared once, in its constructor: its moments, bound, quantile
and sampler, and its name, which is its CLI spelling for `from_name`.

Stream scheme: a master seed plus a substream id key a Philox counter
generator.  Substream ids are derived statelessly from (parent id, tag,
index) with FNV-1a over the tag followed by two splitmix64 rounds, so any
draw in the package is reachable from the master seed alone and schedule
order never matters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# seeds and substream ids are 64-bit: each fills one half of a Philox key
SEED_LIMIT = 1 << 64
_MASK64 = SEED_LIMIT - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# master seed of DEFAULT_STREAM, used everywhere a stream is not supplied
DEFAULT_SEED = 202608
# empirical_moment_check flags a moment this many standard errors off
MOMENT_Z = 5.0


def splitmix64(z: int) -> int:
    """One splitmix64 output step (public, so the mix is reproducible elsewhere)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive_substream(parent_id: int, tag: str, index: int = 0) -> int:
    """64-bit substream id from a parent id, a tag string, and an index."""
    z = (parent_id ^ fnv1a64(tag.encode("utf-8"))) & _MASK64
    z = splitmix64(z)
    return splitmix64((z + index) & _MASK64)


@dataclass(frozen=True)
class RandomStream:
    """A named position in the seed tree: (master_seed, substream_id)."""

    master_seed: int
    substream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "substream_id"):
            if not 0 <= getattr(self, name) < SEED_LIMIT:
                raise ValueError(f"{name} must be in [0, 2^64), got "
                                 f"{getattr(self, name)}")

    def generator(self) -> np.random.Generator:
        key = self.master_seed | (self.substream_id << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, tag: str, index: int = 0) -> "RandomStream":
        return RandomStream(self.master_seed,
                            derive_substream(self.substream_id, tag, index))


DEFAULT_STREAM = RandomStream(DEFAULT_SEED)

_SQRT3 = math.sqrt(3.0)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CoordinateDistribution:
    """A coordinate law with its exact moments, quantile and sampler.

    name           the CLI spelling, parameter included ('two-point:2.0')
    variance       E xi^2
    third_moment   E xi^3 (zero for the symmetric kinds)
    abs_third      E |xi|^3 = sigma3^3
    fourth         E xi^4 = sigma4^4
    bound          M with |xi| <= M a.s., or None (unbounded law)
    quantile       inverse CDF on a float64 array, or None
    draw           sampler draw(rng, size), or None to invert uniforms
    """

    name: str
    variance: float
    third_moment: float
    abs_third: float
    fourth: float
    bound: float | None
    quantile: Callable | None = field(default=None, compare=False, repr=False)
    draw: Callable | None = field(default=None, compare=False, repr=False)

    @property
    def sigma3(self) -> float:
        return self.abs_third ** (1.0 / 3.0)

    @property
    def sigma4(self) -> float:
        return self.fourth ** 0.25

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.draw is not None:
            return self.draw(rng, size)
        return self.ppf(rng.random(size))

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF, monotone in u (for common-random-number pairing)."""
        if self.quantile is None:
            raise ValueError(f"law {self.name!r} declares no quantile")
        return self.quantile(np.asarray(u, dtype=np.float64))


def rademacher() -> CoordinateDistribution:
    return CoordinateDistribution(
        "rademacher", 1.0, 0.0, 1.0, 1.0, 1.0,
        quantile=lambda u: np.where(u < 0.5, -1.0, 1.0),
        draw=lambda rng, size:
            rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """scipy's Gaussian quantile; scipy.special, a quarter second to import,
    loads on the first call."""
    from scipy.special import ndtri
    return ndtri(u)


def gaussian() -> CoordinateDistribution:
    # E|g|^3 = 2 sqrt(2/pi)
    return CoordinateDistribution(
        "gaussian", 1.0, 0.0, 2.0 * math.sqrt(2.0 / math.pi), 3.0, None,
        quantile=_ndtri,
        draw=lambda rng, size: rng.standard_normal(size))


def uniform_symmetric() -> CoordinateDistribution:
    # uniform on [-sqrt(3), sqrt(3)]: variance 1, E|x|^3 = 3 sqrt(3)/4, Ex^4 = 9/5
    return CoordinateDistribution(
        "uniform", 1.0, 0.0, 3.0 * _SQRT3 / 4.0, 1.8, _SQRT3,
        quantile=lambda u: _SQRT3 * (2.0 * u - 1.0),
        draw=lambda rng, size: rng.uniform(-_SQRT3, _SQRT3, size=size))


def laplace(normalized: bool = False) -> CoordinateDistribution:
    # literal scale 1: variance 2, E|x|^3 = 6, Ex^4 = 24; normalized to
    # scale 1/sqrt(2): variance 1, E|x|^3 = 3/sqrt(2), Ex^4 = 6
    b = 1.0 / _SQRT2 if normalized else 1.0

    def quantile(u):
        half = u - 0.5
        return -b * np.sign(half) * np.log1p(-2.0 * np.abs(half))

    return CoordinateDistribution(
        *(("laplace-normalized", 1.0, 0.0, 3.0 / _SQRT2, 6.0) if normalized
          else ("laplace", 2.0, 0.0, 6.0, 24.0)), None, quantile=quantile,
        draw=lambda rng, size: rng.laplace(0.0, b, size=size))


def scaled_rademacher(M: float) -> CoordinateDistribution:
    """Three-point law on {-M, 0, +M} with P(+-M) = 1/(2 M^2): variance 1,
    bound M, E|x|^3 = M, Ex^4 = M^2.  Requires a finite M >= 1."""
    M = float(M)
    if not (M >= 1.0 and M * M < math.inf):
        raise ValueError(f"scaled-rademacher needs a finite M >= 1, got {M}")
    p = 1.0 / (2.0 * M ** 2)
    return CoordinateDistribution(
        f"scaled-rademacher:{M!r}", 1.0, 0.0, M, M ** 2, M,
        quantile=lambda u: np.where(u < p, -M, np.where(u >= 1 - p, M, 0.0)))


def two_point(a: float) -> CoordinateDistribution:
    """Skewed two-point law: a with prob 1/(1+a^2), -1/a with prob a^2/(1+a^2).

    Mean zero, variance one, E xi^3 = a - 1/a (nonzero unless a = 1), so it
    exercises every path that only assumes a normalized second moment.
    Requires a > 0 with every moment finite in floating point.
    """
    a = float(a)
    try:
        p = 1.0 / (1.0 + a ** 2)
        moments = (a - 1.0 / a, a ** 3 * p + (1.0 - p) / a ** 3,
                   a ** 4 * p + (1.0 - p) / a ** 4)
    except ArithmeticError:  # a power of a overflows or underflows to zero
        moments = (math.nan,)
    if not (a > 0.0 and all(map(math.isfinite, moments))):
        raise ValueError(f"two-point needs a > 0 and finite moments, got {a}")
    low = a ** 2 / (1.0 + a ** 2)
    return CoordinateDistribution(
        f"two-point:{a!r}", 1.0, *moments, max(a, 1.0 / a),
        quantile=lambda u: np.where(u < low, -1.0 / a, a))


# every law by its CLI kind; a kind ending in ':' takes its parameter there,
# and each constructor names its law in exactly that spelling
LAWS = {
    "rademacher": rademacher,
    "gaussian": gaussian,
    "uniform": uniform_symmetric,
    "laplace": lambda: laplace(False),
    "laplace-normalized": lambda: laplace(True),
    "scaled-rademacher:": scaled_rademacher,
    "two-point:": two_point,
}


def from_name(name: str) -> CoordinateDistribution:
    """The law a CLI name spells, e.g. 'gaussian' or 'scaled-rademacher:2'."""
    kind, colon, param = name.partition(":")
    make = LAWS.get(kind + colon)
    if make is None:
        raise ValueError(f"unknown distribution {name!r}; known kinds: "
                         f"{', '.join(LAWS)} (a number after each ':')")
    return make(float(param)) if colon else make()


@dataclass(frozen=True)
class MomentCheckReport:
    """Empirical vs declared moments with standard errors and z flags."""

    name: str
    sample_count: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    third: float
    third_se: float
    fourth: float
    fourth_se: float
    declared_variance: float
    declared_third: float
    declared_fourth: float
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def empirical_moment_check(dist: CoordinateDistribution, sample_count: int,
                           stream: RandomStream) -> MomentCheckReport:
    """Draw a sample and compare mean/variance/third/fourth raw moments to the
    declared values at MOMENT_Z standard errors.  A moment whose sampling
    variance is exactly zero (lattice laws) is flagged only on exact mismatch.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be >= 2")
    x = dist.sample(stream.generator(), sample_count)
    nobs = float(sample_count)

    m1, m2, m3, m4, m6, m8 = (float(np.mean(x ** k))
                              for k in (1, 2, 3, 4, 6, 8))
    mean_se = math.sqrt(max(m2 - m1 ** 2, 0.0) / nobs)
    var_se = math.sqrt(max(m4 - m2 ** 2, 0.0) / nobs)
    third_se = math.sqrt(max(m6 - m3 ** 2, 0.0) / nobs)
    fourth_se = math.sqrt(max(m8 - m4 ** 2, 0.0) / nobs)

    violations = []
    for label, emp, decl, se in (
            ("mean", m1, 0.0, mean_se),
            ("variance", m2, dist.variance, var_se),
            ("third", m3, dist.third_moment, third_se),
            ("fourth", m4, dist.fourth, fourth_se)):
        diff = abs(emp - decl)
        if diff > MOMENT_Z * se or (se == 0.0 and diff != 0.0):
            violations.append(label)
    if dist.bound is not None and float(np.max(np.abs(x))) > dist.bound * (1 + 1e-12):
        violations.append("bound")
    return MomentCheckReport(dist.name, sample_count, m1, mean_se, m2, var_se,
                             m3, third_se, m4, fourth_se, dist.variance,
                             dist.third_moment, dist.fourth, tuple(violations))
