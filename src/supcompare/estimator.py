"""Expected-supremum estimators: E sup_{t in T} <xi, t> for iid coordinate
laws xi, by Monte-Carlo or exact enumeration.

Determinism contract: for a fixed (master seed, substream) the estimate is
a pure function of the inputs.  Samples are drawn in fixed SAMPLE_BLOCK
blocks, one substream per block index, so the draw for block b never
depends on how many blocks run or in which order.  Every Monte-Carlo
estimate of the package, the Ornstein-Uhlenbeck and Stein ones of
``ou_stein`` included, runs its blocks through the one driver ``_blocked``
and reports its mean and standard error through ``mean_se``.  Every
law-versus-Gaussian gap is ``_gap_fields``, one paired pass unless the
law's value is enumerated, but one: ``experiments.heavy_tail_growth``
computes its signed Laplace gap from two estimates on one substream.

Sup kernels: every estimate maps draws to sup_t <x, t> per row through
the set's own fields, ``T.sup(T, X)`` on blocks from ``T.draw(T, laws,
rng)`` (see ``index_sets``).  A new fast path is a declared field, plus a
case in ``KERNEL_CASES`` (bitwise kernels) or ``CLOSED_FORM_CASES`` of
tests/test_estimator.py, whose differential tests run every declared
kernel against the matmul path on an untagged copy of the points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import CoordinateDistribution, RandomStream, gaussian
from .index_sets import POINT_CHUNK, SAMPLE_BLOCK, IndexSet, sign_patterns
from .softmax import _require_beta, _smoothed_max_rows

MIN_REPLICATES = 100
MAX_ENUM_DIM = 22
# float tolerance of the pointwise soft-max bracket sup <= F_beta <= sup + offset
BRACKET_TOL = 1e-9


@dataclass(frozen=True)
class SupremumEstimate:
    """An expected-supremum value with its sampling error budget."""

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    replicates: int
    method: str
    seed: int

    @classmethod
    def from_samples(cls, sups: np.ndarray, method: str,
                     seed: int) -> "SupremumEstimate":
        mean, se = mean_se(sups)
        return cls(mean, se, mean - 1.96 * se, mean + 1.96 * se, sups.size,
                   method, seed)


def mean_se(values: np.ndarray) -> tuple:
    """Sample mean of per-replicate values and its standard error."""
    return (float(np.mean(values)),
            float(np.std(values, ddof=1)) / math.sqrt(values.size))


def _blocked(stream: RandomStream, tag: str, replicates: int, draw,
             reduce) -> np.ndarray:
    """reduce(draw(rng)[..., :m, :]) per fixed SAMPLE_BLOCK-replicate block.

    Block b takes its generator from substream (tag, b); draw returns
    SAMPLE_BLOCK rows, or a stack of such blocks; the last keeps m rows.
    reduce returns one value per row, or one row of columns per row; the
    result stacks them, shape (replicates,) or (replicates, columns).
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"replicates must be >= {MIN_REPLICATES}")
    out = None
    for b, lo in enumerate(range(0, replicates, SAMPLE_BLOCK)):
        m = min(SAMPLE_BLOCK, replicates - lo)
        rng = stream.substream(tag, b).generator()
        vals = reduce(draw(rng)[..., :m, :])
        if out is None:
            out = np.empty((replicates,) + np.shape(vals)[1:])
        out[lo:lo + m] = vals
    return out


def estimate_complexity(T: IndexSet, dist: CoordinateDistribution,
                        replicates: int,
                        stream: RandomStream) -> SupremumEstimate:
    """Monte-Carlo E sup_t <xi, t> with fixed 1024-replicate blocks, each
    drawn by the set's own sampler."""
    sups = _blocked(stream, "complexity-block", replicates,
                    lambda rng: T.draw(T, (dist,), rng),
                    lambda X: T.sup(T, X[0]))
    return SupremumEstimate.from_samples(sups, "mc", stream.master_seed)


def paired_gap_estimate(T: IndexSet, dist: CoordinateDistribution,
                        replicates: int, stream: RandomStream) -> tuple:
    """(xi, gaussian, gap): E sup <xi, t>, E sup <g, t> and the signed gap,
    from one pass of blocks that the set's own sampler draws for both laws
    with common random numbers; the gap's standard error is that of the
    per-replicate difference, which strips the variation the two share."""
    sups = _blocked(stream, "paired-block", replicates,
                    lambda rng: T.draw(T, (dist, gaussian()), rng),
                    lambda X: np.array([T.sup(T, x) for x in X]).T)
    return tuple(SupremumEstimate.from_samples(v, method, stream.master_seed)
                 for v, method in ((sups[:, 0], "mc"), (sups[:, 1], "mc"),
                                   (sups[:, 0] - sups[:, 1], "mc-paired")))


def exact_rademacher_complexity(T: IndexSet) -> SupremumEstimate:
    """r(T) by full enumeration of sign vectors; dimension capped at 22."""
    n = T.dim
    if n > MAX_ENUM_DIM:
        raise ValueError(f"enumeration is capped at dimension {MAX_ENUM_DIM}")
    total = 1 << n
    sups = np.empty(total)
    for lo in range(0, total, POINT_CHUNK):
        m = min(POINT_CHUNK, total - lo)
        sups[lo:lo + m] = T.sup(T, sign_patterns(n, m, lo))
    mean = float(np.mean(sups))
    return SupremumEstimate(mean, 0.0, mean, mean, total, "exact-enumeration", 0)


def _enumerates(T: IndexSet, dist: CoordinateDistribution) -> bool:
    """Whether ``complexity`` enumerates E sup_t <xi, t> exactly."""
    return dist.name == "rademacher" and T.dim <= MAX_ENUM_DIM


def complexity(T: IndexSet, dist: CoordinateDistribution, replicates: int,
               stream: RandomStream) -> SupremumEstimate:
    """E sup_t <xi, t>: enumerated exactly for a Rademacher law while
    T.dim <= MAX_ENUM_DIM, else the Monte-Carlo estimate on ``stream``."""
    if _enumerates(T, dist):
        return exact_rademacher_complexity(T)
    return estimate_complexity(T, dist, replicates, stream)


def _gap_fields(T: IndexSet, dist: CoordinateDistribution, replicates: int,
                stream: RandomStream) -> dict:
    """The law's value on T, the Gaussian one and their absolute gap, each
    with its standard error, as row fields.  An enumerated law's value is
    exact, and the gap's error is that of the Gaussian estimate on
    substream "gauss"; any other law runs the paired pass on ``stream``."""
    if _enumerates(T, dist):
        xi = exact_rademacher_complexity(T)
        g = estimate_complexity(T, gaussian(), replicates,
                                stream.substream("gauss"))
        gap, gap_se = xi.mean - g.mean, g.std_error
    else:
        xi, g, diff = paired_gap_estimate(T, dist, replicates, stream)
        gap, gap_se = diff.mean, diff.std_error
    return {"xi_mean": xi.mean, "xi_se": xi.std_error,
            "gauss_mean": g.mean, "gauss_se": g.std_error,
            "gap": abs(gap), "gap_se": gap_se}


def softmax_complexity(T: IndexSet, dist: CoordinateDistribution, beta: float,
                       replicates: int, stream: RandomStream):
    """(estimate of E F_beta(xi), log|T|/beta, worst bracket slack).

    The certified bracket E sup <= E F_beta <= E sup + log|T|/beta is a
    pointwise fact; the slack is the least margin min(F - sup, sup +
    offset - F) over all replicates, so the bracket held iff slack >=
    -BRACKET_TOL.  Soft-max sums run over all declared rows (duplicates
    included), matching the offset's log-cardinality.
    """
    offset = T.log_cardinality / _require_beta(beta)

    def smoothed(X):
        # per row: F_beta and its margin inside the bracket
        sups, F = _smoothed_max_rows(T, beta, X)
        return np.stack([F, np.minimum(F - sups, sups + offset - F)], axis=1)

    vals = _blocked(stream, "softmax-block", replicates,
                    lambda rng: dist.sample(rng, (SAMPLE_BLOCK, T.dim)),
                    smoothed)
    est = SupremumEstimate.from_samples(vals[:, 0], "mc-softmax",
                                        stream.master_seed)
    # np.min, unlike the builtin min, carries a NaN margin into the slack
    return est, offset, float(vals[:, 1].min())
