"""Dimension-free comparison bound curves and empirical gap reports.

The central quantity is the gap |E sup <xi, t> - E sup <g, t>| between a
canonical process and its Gaussian companion.  Every bound here is a
function of u = log(cardinality) and the norm profile of the index set:

    trivial         sqrt(u) R2
    mixed           u^{3/4} sqrt(R2 Rinf)
    fourth_moment   u^{3/4} R4
    sup_norm        u Rinf
    bounded_max     M max(R4 u^{3/4}, Rinf u)     (laws bounded by M)
    bounded_max_r3  M max(R3 u^{2/3}, Rinf u)
    l3_column       sigma3 col3 u^{2/3}
    l4_column       sigma4 col4 u^{3/4}

All with constant 1; reports give gap/bound ratios, never asserting a
particular universal constant.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (DEFAULT_STREAM, CoordinateDistribution,
                            RandomStream, rademacher)
# perfbench's tracer test checks the unused estimate_complexity binding
from .estimator import (SupremumEstimate, _enumerates, _gap_fields,
                        complexity, estimate_complexity)
from .index_sets import GeometricProfile, IndexSet, dedupe, geometric_profile


@dataclass(frozen=True)
class BoundProfile:
    """Every comparison bound evaluated at one u; law-dependent entries are
    None when the law lacks the needed moment/bound."""

    u: float
    trivial: float
    mixed: float
    fourth_moment: float
    sup_norm: float
    bounded_max: float | None
    bounded_max_r3: float | None
    l3_column: float | None
    l4_column: float | None


def bound_profile(profile: GeometricProfile, u: float,
                  sigma3: float | None = None, sigma4: float | None = None,
                  bound: float | None = None) -> BoundProfile:
    """Evaluate all curves at u; sigma3/sigma4/bound come from the law."""
    if u < 0:
        raise ValueError("u must be >= 0")
    u34 = u ** 0.75
    u23 = u ** (2.0 / 3.0)
    bm = bmr3 = l3 = l4 = None
    if bound is not None:
        bm = bound * max(profile.r4 * u34, profile.rinf * u)
        bmr3 = bound * max(profile.r3 * u23, profile.rinf * u)
    if sigma3 is not None:
        l3 = sigma3 * profile.col3 * u23
    if sigma4 is not None:
        l4 = sigma4 * profile.col4 * u34
    return BoundProfile(u, math.sqrt(u) * profile.r2,
                        u34 * math.sqrt(profile.r2 * profile.rinf),
                        u34 * profile.r4, u * profile.rinf, bm, bmr3, l3, l4)


def regime_flags(profile: GeometricProfile, u: float) -> dict:
    """Dimension-free regime indicators at a given u."""
    return {
        "clt_scale": profile.rinf * math.sqrt(u) <= profile.r2,
        "refined_scale": (profile.r4 * u ** 0.25 <= profile.r2
                          and profile.rinf * math.sqrt(u) <= profile.r2),
        "in_window": profile.u1 <= u <= profile.u2,
    }


def phase_curve_table(profile: GeometricProfile, u_grid,
                      bound: float = 1.0) -> list[dict]:
    """Rows of the law-free curves over a u grid; the fourth-moment and
    sup-norm curves and their minimum (crossing at u1) are times the law
    bound M."""
    rows = []
    for u in u_grid:
        u = float(u)
        bp = bound_profile(profile, u)
        if u < profile.u1:
            region = "below-window"
        elif u <= profile.u2:
            region = "window"
        else:
            region = "above-window"
        rows.append({
            "u": u,
            "trivial": bp.trivial,
            "mixed": bp.mixed,
            "fourth_moment": bound * bp.fourth_moment,
            "sup_norm": bound * bp.sup_norm,
            "piecewise": bound * min(bp.fourth_moment, bp.sup_norm),
            "region": region,
        })
    return rows


def auto_beta(profile: GeometricProfile, u: float,
              dist: CoordinateDistribution) -> float:
    """Proof-optimal smoothing level for the comparison argument.

    Bounded laws: min(1/(M Rinf), u^{1/4}/(M R4)); otherwise the
    fourth-moment choice u^{1/4}/(sigma4 col4).
    """
    if u <= 0:
        raise ValueError("u must be positive")
    try:
        if dist.bound is not None:
            M = dist.bound
            return min(1.0 / (M * profile.rinf), u ** 0.25 / (M * profile.r4))
        return u ** 0.25 / (dist.sigma4 * profile.col4)
    except ZeroDivisionError:
        raise ValueError(
            "beta=auto needs a set with a nonzero profile, got rinf="
            f"{profile.rinf}, r4={profile.r4}, col4={profile.col4}") from None


@dataclass(frozen=True)
class ComparisonReport:
    """Empirical gap vs every applicable bound for one (set, law) pair."""

    dist_name: str
    u: float
    gap: float
    gap_std_error: float
    bounds: BoundProfile
    ratios: dict
    flags: dict
    paired: bool


def error_report(T: IndexSet, dist: CoordinateDistribution, replicates: int,
                 stream: RandomStream) -> ComparisonReport:
    """Estimate |c_xi(T) - g(T)| by ``_gap_fields`` on ``stream`` and
    compare it to each bound curve; ``paired`` records whether the gap came
    from the paired pass or from an enumerated Rademacher value."""
    profile = geometric_profile(T)
    u = T.log_cardinality
    fields = _gap_fields(T, dist, replicates, stream)
    gap, gap_se = fields["gap"], fields["gap_se"]
    bp = bound_profile(profile, u, dist.sigma3, dist.sigma4, dist.bound)
    ratios = {}
    for name, val in dataclasses.asdict(bp).items():
        if name == "u" or val is None:
            continue
        ratios[name] = gap / val if val > 0 else math.inf if gap > 0 else 0.0
    return ComparisonReport(dist.name, u, gap, gap_se, bp, ratios,
                            regime_flags(profile, u), not _enumerates(T, dist))


@dataclass(frozen=True)
class SudakovReport:
    """Minoration diagnostics: hypothesis and conclusion ratios only."""

    cardinality: int
    separation: float
    sup_entry: float
    hypothesis_ratio: float
    conclusion_ratio: float
    rademacher: SupremumEstimate

    @property
    def exact(self) -> bool:
        return self.rademacher.method == "exact-enumeration"


MAX_PAIRWISE = 4096


def sudakov_check(T: IndexSet, replicates: int = 0,
                  stream: RandomStream = DEFAULT_STREAM) -> SudakovReport:
    """Minoration ratios for r(T): with a the exact min pairwise distance,

        hypothesis_ratio = sup_t |t|_inf R2 sqrt(log|T|) / a^2
        conclusion_ratio = r(T) / (a sqrt(log|T|))

    Small hypothesis_ratio is the regime where conclusion_ratio is bounded
    below.  Distances are over distinct points; |T| > 4096 is refused
    (exact pairwise distances only).  r(T) is ``complexity``: enumerated
    exactly when dim <= MAX_ENUM_DIM, else estimated with `replicates`
    draws on `stream` (by default the DEFAULT_SEED stream).
    """
    D = dedupe(T)
    if D.cardinality < 2:
        raise ValueError("need at least two distinct points")
    if D.cardinality > MAX_PAIRWISE:
        raise ValueError(f"exact pairwise distances capped at {MAX_PAIRWISE} points")
    pts = D.points
    sq = (pts ** 2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    iu = np.triu_indices(D.cardinality, k=1)
    a = math.sqrt(max(float(d2[iu].min()), 0.0))
    if a == 0.0:
        raise ValueError("distinct points at zero distance; degenerate set")
    profile = geometric_profile(D)
    logc = math.log(D.cardinality)
    r_est = complexity(D, rademacher(), replicates, stream)
    hyp = profile.rinf * profile.r2 * math.sqrt(logc) / a ** 2
    concl = r_est.mean / (a * math.sqrt(logc))
    return SudakovReport(D.cardinality, a, profile.rinf, hyp, concl, r_est)
