"""Expected-supremum estimators: E sup_{t in T} <xi, t> for iid coordinate
laws xi, by Monte-Carlo or exact enumeration.

Determinism contract: for a fixed (master seed, substream) the estimate is
a pure function of the inputs.  Samples are drawn in fixed SAMPLE_BLOCK
blocks, one substream per block index, so the draw for block b never
depends on how many blocks run or in which order.  The control-variate fit
of a sup estimate reads every block, so a block's adjusted values, unlike
its draws, depend on the other blocks; the fit's sums are einsum and its
solves elementwise, so no value depends on the BLAS thread count.  Every
Monte-Carlo estimate of the package, the Ornstein-Uhlenbeck and Stein ones
of ``ou_stein`` included, runs its blocks through the one driver
``_blocked`` and reports its mean and standard error through
``mean_se``.  Every law-versus-Gaussian gap is ``_gap_fields``, one paired
pass unless the law's value is enumerated, but one:
``experiments.heavy_tail_growth`` computes its signed Laplace gap from two
estimates on one substream.

Sup kernels: every Monte-Carlo set estimate is one ``_sup_pass``, which
maps draws to sup_t <x, t> per row through the set's own fields,
``T.sup(T, X)`` on blocks from ``T.draw(T, laws, rng)`` (see
``index_sets``); a pass at a beta adds F_beta and takes the sup from the
same ``T.logz`` call, on blocks of every coordinate, since F_beta reads
them all.  A new fast path is a declared field, plus a case in
``KERNEL_CASES`` (bitwise kernels) or ``ROUNDING_CASES`` (equal up to
rounding) of tests/test_estimator.py, whose differential tests run every
declared kernel against the matmul path on an untagged copy of the points.

Control variates: a pass subtracts from every value it makes (a lone
law's sup; or xi's, g's and xi - g) a fitted multiple of every control it
drew, each law's declared list ``T.controls(T, X, law)`` of per-row
statistics of the same draws with mean exactly zero (Glasserman, Monte
Carlo Methods in Financial Engineering, 2003, sec. 4.1).  One solve fits
every value; least squares is linear in the response, so a paired gap is
its sups' difference up to rounding.  Block b's coefficients are the
least-squares fit on every other full SAMPLE_BLOCK-row block, or on every
full block for a short last block, so they are independent of block b's
draws, its adjusted mean stays unbiased, and no fit reads so few rows
that it matches them exactly.  A pass of fewer than two full blocks stays
plain: 1024 < replicates < 2048 forgo the gain.  A method that a control
acted on ends in "-cv".  A new control is a declared field plus a row of
``CONTROL_CASES`` in tests/test_controls.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import CoordinateDistribution, RandomStream, gaussian
from .index_sets import (MAX_POINT_BYTES, POINT_CHUNK, SAMPLE_BLOCK,
                         IndexSet, _draw_blocks, sign_patterns)
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
    result stacks them, shape (replicates,) or (replicates, columns).  A
    result over MAX_POINT_BYTES is refused after the first block, before
    it is allocated.
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"replicates must be >= {MIN_REPLICATES}")
    out = None
    for b, lo in enumerate(range(0, replicates, SAMPLE_BLOCK)):
        m = min(SAMPLE_BLOCK, replicates - lo)
        rng = stream.substream(tag, b).generator()
        vals = reduce(draw(rng)[..., :m, :])
        if out is None:
            shape = (replicates,) + np.shape(vals)[1:]
            nbytes = 8 * math.prod(shape)
            if nbytes > MAX_POINT_BYTES:
                raise ValueError(f"{replicates} replicates x "
                                 f"{math.prod(shape[1:])} columns take "
                                 f"{nbytes} bytes, over the budget of "
                                 f"{MAX_POINT_BYTES}")
            out = np.empty(shape)
        out[lo:lo + m] = vals
    return out


def _solve(S: np.ndarray, lost: np.ndarray) -> np.ndarray:
    """beta[b] with S[b, :, :k] beta[b] = S[b, :, k:] for each b, k =
    S.shape[1], one column of beta per right-hand side, by Gauss-Jordan
    elimination in pivot order on a copy, elementwise over b.  A pivot at
    most lost[j] is rounding: its column is constant over the fit rows, or
    a combination of earlier ones, and gets beta[b, j] = 0 in every
    column."""
    S, k = S.copy(), S.shape[1]
    for j in range(k):
        # row j over its pivot, or zero: dividing by inf drops the column
        S[:, j] /= np.where(S[:, j, j] > lost[j], S[:, j, j], np.inf)[:, None]
        f = S[:, :, j].copy()
        f[:, j] = 0.0
        S -= f[:, :, None] * S[:, j, None, :]
    return S[:, :, k:]


def _adjusted(Y: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Y - C beta on each SAMPLE_BLOCK-row block b of a pass of two full
    blocks or more, beta[:, t] the least-squares coefficients of every
    control, with a constant, for Y[:, t] over the other full blocks (over
    all of them for a short last block).  The constant, the controls and
    the values are stacked once, C-contiguous, so every sum runs in one
    fixed order whatever the layout of Y and C.  One set of sums serves
    every fit: each full block's raw products, einsum, not BLAS, and each
    fit's their total less block b's; eliminating the constant first
    centres them.  A pivot at most (rows + k) eps times its column's raw
    second moment over the full blocks, k the constant and the controls,
    which bounds the rounding of every sum it took, is rounding."""
    k, full = 1 + C.shape[1], len(C) // SAMPLE_BLOCK
    # zero past the last row, so every block, a short one too, is whole
    Z = np.zeros((k + Y.shape[1], -(-len(C) // SAMPLE_BLOCK) * SAMPLE_BLOCK))
    Z[0, :len(C)], Z[1:k, :len(C)], Z[k:, :len(C)] = 1.0, C.T, Y.T
    P = Z.reshape(len(Z), -1, SAMPLE_BLOCK)
    grams = np.einsum("ibr,jbr->bij", P[:k], P)
    grams[full:] = 0.0  # a short last block's fit reads every full block
    total = grams.sum(axis=0)
    raw = np.diag(total[:, :k])
    lost = (full * SAMPLE_BLOCK + k) * np.finfo(np.float64).eps * raw
    beta = _solve(total - grams, lost)[:, 1:]
    fit = np.einsum("ibr,biv->vbr", P[1:k], beta).reshape(Y.shape[1], -1)
    return Y - fit[:, :len(C)].T


def _estimates(Y: np.ndarray, C: np.ndarray, methods: list,
               seed: int) -> tuple:
    """An estimate from each column Y[:, t] of per-replicate values,
    adjusted by every control column of C when there are any and two or
    more full blocks, its method methods[t] then ending in "-cv"."""
    acted = C.shape[1] > 0 and len(C) >= 2 * SAMPLE_BLOCK
    if acted:
        Y = _adjusted(Y, C)
    return tuple(SupremumEstimate.from_samples(y, m + "-cv" * acted, seed)
                 for y, m in zip(Y.T, methods))


def _sup_pass(T: IndexSet, laws: tuple, tag: str, replicates: int,
              stream: RandomStream, beta: float | None = None) -> np.ndarray:
    """One pass of blocks that the set's sampler draws for the laws: per
    replicate each law's sup, and at a beta its F_beta from the same
    ``T.logz`` call, then each law's own control columns, side by side.
    A beta pass draws every coordinate, through ``_draw_blocks``."""
    def reduce(X):
        return np.column_stack(
            [v for x in X for v in ([T.sup(T, x)] if beta is None
                                    else _smoothed_max_rows(T, beta, x))]
            + [c for x, law in zip(X, laws) for c in T.controls(T, x, law)])
    draw = T.draw if beta is None else _draw_blocks
    return _blocked(stream, tag, replicates, lambda rng: draw(T, laws, rng),
                    reduce)


def estimate_complexity(T: IndexSet, dist: CoordinateDistribution,
                        replicates: int,
                        stream: RandomStream) -> SupremumEstimate:
    """Monte-Carlo E sup_t <xi, t> with fixed 1024-replicate blocks, each
    drawn by the set's own sampler."""
    vals = _sup_pass(T, (dist,), "complexity-block", replicates, stream)
    return _estimates(vals[:, :1], vals[:, 1:], ["mc"],
                      stream.master_seed)[0]


def paired_gap_estimate(T: IndexSet, dist: CoordinateDistribution,
                        replicates: int, stream: RandomStream) -> tuple:
    """(xi, gaussian, gap): E sup <xi, t>, E sup <g, t> and the signed gap,
    from one pass of blocks that the set's own sampler draws for both laws
    with common random numbers; the gap's standard error is that of the
    per-replicate difference, which strips the variation the two share.
    All three are adjusted by both laws' controls, so the gap's mean is
    the difference of the two sups' means up to rounding."""
    vals = _sup_pass(T, (dist, gaussian()), "paired-block", replicates, stream)
    Y = np.column_stack([vals[:, 0], vals[:, 1], vals[:, 0] - vals[:, 1]])
    return _estimates(Y, vals[:, 2:], ["mc", "mc", "mc-paired"],
                      stream.master_seed)


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
    """(estimate of E F_beta(xi), log|T|/beta, worst bracket slack), from
    one beta pass of ``_sup_pass``: F_beta is adjusted by the law's
    controls, as a sup is.

    The certified bracket E sup <= E F_beta <= E sup + log|T|/beta is a
    pointwise fact; the slack is the least margin min(F - sup, sup +
    offset - F) over the raw per-replicate values, so the bracket held
    iff slack >= -BRACKET_TOL.  Soft-max sums run over all declared rows
    (duplicates included), matching the offset's log-cardinality.
    """
    offset = T.log_cardinality / _require_beta(beta)
    vals = _sup_pass(T, (dist,), "softmax-block", replicates, stream, beta)
    sups, F = vals[:, 0], vals[:, 1]
    est = _estimates(vals[:, 1:2], vals[:, 2:], ["mc-softmax"],
                     stream.master_seed)[0]
    # np.min, unlike the builtin min, carries a NaN margin into the slack
    return est, offset, float(np.min(np.minimum(F - sups, sups + offset - F)))
