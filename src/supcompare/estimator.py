"""Expected-supremum estimators: E sup_{t in T} <xi, t> for iid coordinate
laws xi, by Monte-Carlo or exact enumeration.

Determinism contract: for a fixed (master seed, substream) the estimate is
a pure function of the inputs.  Samples are drawn in fixed SAMPLE_BLOCK
blocks, one substream per block index, so the draw for block b never
depends on how many blocks run or in which order.  Every Monte-Carlo
estimate of the package, the Ornstein-Uhlenbeck and Stein ones of
``ou_stein`` included, runs its blocks through the one driver ``_blocked``
and reports its mean and standard error through ``mean_se``.  Every
unpaired law-versus-Gaussian gap is ``_gap_fields`` but one:
``experiments.heavy_tail_growth`` computes its own signed Laplace gap,
both laws on one substream.

Sup kernels: every estimate maps a block X of draws to sup_t <x, t> per
row through the set's own field, ``T.sup(T, X)``: the generic chunked
matmul over every declared row unless the set's constructor in
``index_sets`` declared a fast path.  ``estimate_complexity`` takes X
from the set's own sampler ``T.draw(T, dist, rng)``: SAMPLE_BLOCK x dim
draws, unless the constructor declared a smaller block that ``T.sup``
reduces to the same law of sups (the canonical basis's column of
maxima).  A new fast path is that declaration,
plus a case in ``KERNEL_CASES`` (bitwise kernels) or ``CLOSED_FORM_CASES``
of tests/test_estimator.py, whose differential tests run every declared
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
    """reduce(draw(rng)[:m]) per fixed SAMPLE_BLOCK-replicate block.

    Block b takes its generator from substream (tag, b); draw returns a
    full block of SAMPLE_BLOCK rows, and the last block keeps its first m.
    reduce returns one value per row, or one row of columns per row; the
    result stacks them, shape (replicates,) or (replicates, columns).
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"replicates must be >= {MIN_REPLICATES}")
    out = None
    for b, lo in enumerate(range(0, replicates, SAMPLE_BLOCK)):
        m = min(SAMPLE_BLOCK, replicates - lo)
        rng = stream.substream(tag, b).generator()
        vals = reduce(draw(rng)[:m])
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
                    lambda rng: T.draw(T, dist, rng), lambda X: T.sup(T, X))
    return SupremumEstimate.from_samples(sups, "mc", stream.master_seed)


def paired_gap_estimate(T: IndexSet, dist: CoordinateDistribution,
                        replicates: int,
                        stream: RandomStream) -> SupremumEstimate:
    """Signed gap sup(xi) - sup(gaussian) with common random numbers.

    Each block draws uniforms once and pushes them through both inverse
    CDFs, so the per-replicate difference strips the shared variation.
    """
    gauss = gaussian()
    diffs = _blocked(stream, "paired-block", replicates,
                     lambda rng: rng.random((SAMPLE_BLOCK, T.dim)),
                     lambda U: T.sup(T, dist.ppf(U)) - T.sup(T, gauss.ppf(U)))
    return SupremumEstimate.from_samples(diffs, "mc-paired", stream.master_seed)


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


def complexity(T: IndexSet, dist: CoordinateDistribution, replicates: int,
               stream: RandomStream) -> SupremumEstimate:
    """E sup_t <xi, t>: enumerated exactly for a Rademacher law while
    T.dim <= MAX_ENUM_DIM, else the Monte-Carlo estimate on ``stream``."""
    if dist.name == "rademacher" and T.dim <= MAX_ENUM_DIM:
        return exact_rademacher_complexity(T)
    return estimate_complexity(T, dist, replicates, stream)


def _gap_fields(T: IndexSet, dist: CoordinateDistribution, replicates: int,
                stream: RandomStream, k: int = 0) -> dict:
    """The unpaired gap: the law's value on T by ``complexity`` and the
    Gaussian one, on substreams ("xi", k) and ("gauss", k), as row fields
    with their absolute gap and its standard error."""
    xi = complexity(T, dist, replicates, stream.substream("xi", k))
    g = estimate_complexity(T, gaussian(), replicates,
                            stream.substream("gauss", k))
    return {"xi_mean": xi.mean, "xi_se": xi.std_error,
            "gauss_mean": g.mean, "gauss_se": g.std_error,
            "gap": abs(xi.mean - g.mean),
            "gap_se": math.hypot(xi.std_error, g.std_error)}


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
