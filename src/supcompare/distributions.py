"""Coordinate distributions (mean zero, independent coordinates) and
reproducible random streams.

A law is declared once, in its constructor: its moments, bound, quantile,
upper-tail quantile and sampler, and its name, which is its CLI spelling
for `from_name`.  `CoordinateDistribution.sample` is the one draw entry;
with ``max_of=n`` it draws the maximum of n iid coordinates as one order
statistic, without the n draws.  The Gaussian has one quantile, Wichura's
AS241 in numpy (``_gaussian_ppf``), and its ``isf(q)`` is ``-quantile(q)``.

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
    isf            upper-tail quantile isf(q) = quantile(1 - q), exact for
                   q near 0, or None to take quantile(1 - q)
    draw           sampler draw(rng, size), or None to invert uniforms
    """

    name: str
    variance: float
    third_moment: float
    abs_third: float
    fourth: float
    bound: float | None
    quantile: Callable | None = field(default=None, compare=False, repr=False)
    isf: Callable | None = field(default=None, compare=False, repr=False)
    draw: Callable | None = field(default=None, compare=False, repr=False)

    @property
    def sigma3(self) -> float:
        return self.abs_third ** (1.0 / 3.0)

    @property
    def sigma4(self) -> float:
        return self.fourth ** 0.25

    def sample(self, rng: np.random.Generator, size,
               max_of: int | None = None) -> np.ndarray:
        """``size`` draws of the law or, with any ``max_of`` = n, 1 too, of
        the maximum of n iid draws: isf(1 - V^(1/n)) at one uniform V per
        value (Devroye, Non-Uniform Random Variate Generation, 1986,
        ch. V), its argument formed as -expm1(log V / n), which keeps its
        digits near 0, where the maximum is large.  Two laws given one
        generator state take one V per value: their maxima are comonotone.
        """
        if max_of is not None:
            # the midpoints of 2^52 equal cells: V lies strictly inside
            # (0, 1), since V = 0 or 1 sends an unbounded isf to -inf or inf
            v = (rng.integers(0, 1 << 52, size) + 0.5) * 2.0 ** -52
            q = -np.expm1(np.log(v) / max_of)
            return self.isf(q) if self.isf is not None else self.ppf(1.0 - q)
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


# Wichura's AS241 (PPND16), the rational approximations to Phi^{-1} that
# NormalDist.inv_cdf uses, as (numerator, denominator) coefficients, highest
# power first: the centre |u - 1/2| <= 0.425 in r = 0.180625 - (u - 1/2)^2,
# the tails in r = sqrt(-log min(u, 1 - u)) less 1.6 to r = 5, less 5 beyond.
_AS241_MID = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4,
     6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4,
     3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2,
     2.4178072517745061177e-1, 1.2704582524523683826e+0,
     3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4,
     1.5198666563616457197e-2, 1.4810397642748007459e-1,
     6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0))
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5,
     1.2426609473880784386e-3, 2.6532189526576123093e-2,
     2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7,
     1.8463183175100546818e-5, 7.8686913114561325910e-4,
     1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0))


def _horner(r: np.ndarray, coeffs: tuple) -> np.ndarray:
    """The polynomial with these coefficients, highest power first, at r."""
    y = coeffs[0] * r + coeffs[1]
    for c in coeffs[2:]:
        y *= r
        y += c
    return y


def _gaussian_ppf(u: np.ndarray) -> np.ndarray:
    """Phi^{-1}(u) by AS241 in numpy, in its order of operations: the bits
    of NormalDist.inv_cdf wherever numpy's log rounds as the C library's,
    full precision in either tail (which takes log u, never 1 - u), and
    Phi^{-1}(0) = -inf, Phi^{-1}(1) = inf.  The centre runs over the whole
    array, which costs less than gathering it, and is finite on [0, 1]: its
    denominator's nearest root is at r = -0.0729 < -0.069375.  The tails
    overwrite their values, each over its own indices, and alone take logs."""
    u = np.asarray(u, dtype=np.float64)
    shape, u = u.shape, u.ravel()
    h = u - 0.5
    mid = np.abs(h) <= 0.425
    if mid.any():
        r = 0.180625 - h * h
        x = _horner(r, _AS241_MID[0]) * h
        x /= _horner(r, _AS241_MID[1])
    else:
        x = np.empty_like(u)
    i = np.flatnonzero(~mid)
    if i.size:
        t = u[i]
        with np.errstate(divide="ignore"):  # t = 0 or 1: r = inf = |x|
            r = np.sqrt(-np.log(np.minimum(t, 1.0 - t)))
        for sel, piece, shift in ((r <= 5.0, _AS241_NEAR, 1.6),
                                  ((r > 5.0) & (r < np.inf), _AS241_FAR, 5.0)):
            if sel.any():
                rs = r[sel] - shift
                r[sel] = _horner(rs, piece[0]) / _horner(rs, piece[1])
        x[i] = np.copysign(r, t - 0.5)  # r is |x| now
    return x.reshape(shape)


def gaussian() -> CoordinateDistribution:
    # E|g|^3 = 2 sqrt(2/pi); one AS241 serves both quantiles, and the
    # sampler draws rng.standard_normal, which no quantile has to match
    return CoordinateDistribution(
        "gaussian", 1.0, 0.0, 2.0 * math.sqrt(2.0 / math.pi), 3.0, None,
        quantile=_gaussian_ppf, isf=lambda q: -_gaussian_ppf(q),
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

    def isf(q):
        # -b log(2q) for q < 1/2 and b log(2 - 2q) above it, where 1 - q
        # is exact; the one log's argument, 2 min(q, 1 - q), is at most 1
        x = -b * np.log(2.0 * np.minimum(q, 1.0 - q))
        return np.where(q < 0.5, x, -x)

    return CoordinateDistribution(
        *(("laplace-normalized", 1.0, 0.0, 3.0 / _SQRT2, 6.0) if normalized
          else ("laplace", 2.0, 0.0, 6.0, 24.0)), None, quantile=quantile,
        isf=isf,
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
