"""Empirical studies: heavy-tail growth of the Gaussian/Laplace gap,
two-spin universality, and higher-order tensor universality.

Each experiment returns plain row dicts plus a summary dict so the CLI can
serialize them unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (CoordinateDistribution, RandomStream, gaussian,
                            laplace)
from .estimator import _gap_fields, estimate_complexity
from .index_sets import make_basis_family, make_spin_tensor

# Gaussian values of the normalized two-spin sets stay inside this band
# for N in 4..12 (recorded from an exact-enumeration sweep)
TENSOR_GAUSS_BAND = (0.2, 1.5)


@dataclass(frozen=True)
class ExperimentResult:
    rows: list
    summary: dict


def _sizes(values, name: str, least: int = 1) -> list:
    """values as ints, each >= least; a non-integral size is refused, not
    truncated."""
    sizes = [int(v) for v in values]
    if sizes != list(values) or min(sizes) < least:
        raise ValueError(f"{name} must be integers >= {least}, "
                         f"got {list(values)}")
    return sizes


def heavy_tail_growth(n_list, replicates: int,
                      stream: RandomStream) -> ExperimentResult:
    """Gap between Laplace (literal scale, variance 2) and Gaussian expected
    maxima of n iid coordinates, against log n and (log n)^{3/4}.

    The gap grows like log n, so gap/log n stays within a constant factor
    while gap/(log n)^{3/4} drifts upward; the summary reports the max/min
    of the first ratio and the Spearman trend of the second, which is None
    (not evaluated) with fewer than 3 sizes.

    Both laws take one substream per n, so each replicate's two maxima are
    order statistics of one uniform: comonotone, and so positively
    correlated.  The coupling holds the noise of the gap ratios under
    that of independent draws; gap_se, which adds the two standard errors
    in quadrature, is an upper bound on the gap's.
    """
    n_list = _sizes(n_list, "n_list", 2)
    # declaring checks every size against the caps; no basis set is built
    sets = [make_basis_family(n) for n in n_list]
    rows = []
    for k, (n, T) in enumerate(zip(n_list, sets)):
        maxima = stream.substream("maxima", k)
        lap = estimate_complexity(T, laplace(False), replicates, maxima)
        gau = estimate_complexity(T, gaussian(), replicates, maxima)
        gap = lap.mean - gau.mean
        gap_se = math.hypot(lap.std_error, gau.std_error)
        logn = math.log(n)
        rows.append({
            "n": n,
            "laplace_mean": lap.mean,
            "laplace_se": lap.std_error,
            "gaussian_mean": gau.mean,
            "gaussian_se": gau.std_error,
            "gap": gap,
            "gap_se": gap_se,
            "ratio_log": gap / logn,
            "ratio_log34": gap / logn ** 0.75,
        })
    r_log = [r["ratio_log"] for r in rows]
    r_34 = [r["ratio_log34"] for r in rows]
    rho = None
    if len(rows) >= 3:
        rho = _spearman(np.log([r["n"] for r in rows]), r_34)
    summary = {
        "ratio_log_max_over_min": max(r_log) / min(r_log) if min(r_log) > 0
        else float("inf"),
        "ratio_log34_spearman": rho,
    }
    return ExperimentResult(rows, summary)


def _average_ranks(values) -> np.ndarray:
    """Ranks 1..n of values, each group of ties at its average rank: a
    group of c equal values ending at rank r takes r - (c - 1) / 2."""
    _, group, counts = np.unique(np.asarray(values, dtype=np.float64),
                                 return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def _spearman(x, y) -> float:
    """Spearman's rank correlation: the Pearson correlation of average
    ranks, as scipy.stats.spearmanr computes it, without importing scipy."""
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


def _universality_exponent(dist: CoordinateDistribution) -> float:
    # symmetric fourth-moment laws improve the rate from 1/6 to 1/4
    return 0.25 if dist.third_moment == 0.0 else 1.0 / 6.0


def spin_glass_universality(N_list, dist: CoordinateDistribution,
                            replicates: int,
                            stream: RandomStream) -> ExperimentResult:
    """Gap between a coordinate law and the Gaussian for two-spin sets at
    energy-density scaling, rescaled by N^{1/4} (N^{1/6} for skewed laws).

    Each size runs ``_gap_fields`` on its own substream ("size", k).
    Duplicate spin configurations (sigma and -sigma index the same point)
    stay in the set; suprema are unchanged.
    """
    N_list = _sizes(N_list, "N_list", 2)
    # declaring checks every size against the caps; nothing is built
    sets = [make_spin_tensor(N, 2) for N in N_list]
    expo = _universality_exponent(dist)
    rows = []
    for k, (N, T) in enumerate(zip(N_list, sets)):
        row = {"N": N, **_gap_fields(T, dist, replicates,
                                     stream.substream("size", k))}
        row["scaled_gap"] = row["gap"] * float(N) ** expo
        rows.append(row)
    scaled = [r["scaled_gap"] for r in rows]
    summary = {
        "exponent": expo,
        "scaled_max": max(scaled),
        "scaled_min": min(scaled),
        "scaled_max_over_min": (max(scaled) / min(scaled) if min(scaled) > 0
                                else float("inf")),
    }
    return ExperimentResult(rows, summary)


def tensor_universality(N: int, m: int, dist: CoordinateDistribution,
                        replicates: int,
                        stream: RandomStream) -> ExperimentResult:
    """Order-m tensor sets at row-normalized scaling.

    Reports the law/Gaussian gap against the comparison-bound scale
    sigma4 (N / binom(N,m))^{1/4}, which shrinks as the order grows; for
    m = 2 the Gaussian value is also checked against the recorded band.
    """
    N, m = _sizes((N, m), "(N, m)")
    T = make_spin_tensor(N, m, normalized=True)
    row = {"N": N, "m": m,
           **_gap_fields(T, dist, replicates, stream)}
    # the comparison bound scale: sigma4 * (N / binom)^{1/4} up to constants
    bound_scale = dist.sigma4 * (float(N) / T.dim) ** 0.25
    row["bound_scale"] = bound_scale
    row["gap_over_bound"] = (row["gap"] / bound_scale if bound_scale > 0
                             else float("inf"))
    summary = {
        "gap_over_bound": row["gap_over_bound"],
    }
    if m == 2:
        lo, hi = TENSOR_GAUSS_BAND
        summary["gauss_band_low"] = lo
        summary["gauss_band_high"] = hi
        summary["gauss_in_band"] = bool(lo <= row["gauss_mean"] <= hi)
    return ExperimentResult([row], summary)
