"""Verify batteries: the smoothed-max, Gibbs and Stein/Ornstein-Uhlenbeck
identities behind the comparison bounds, on fixed budgets (deterministic
given the seed).

`softmax` and `gibbs` are tables of `Check` rows, measured by `run_check`;
`stein` is built from library reports.  Every row's verdict is `_row`'s,
made from the observed value and the threshold the row prints.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import index_sets as isets
from . import ou_stein as ou
from . import softmax as sm
from .distributions import (RandomStream, laplace, rademacher, two_point,
                            uniform_symmetric)

TARGETS = ("softmax", "stein", "gibbs")


class Check(NamedTuple):
    """One battery row: `measure(rng)` draws one instance and returns its
    distance from the identity; a `lower` row's measure must instead stay
    at or above the threshold."""

    name: str
    instances: int
    measure: Callable
    threshold: float
    lower: bool = False


def _row(name: str, observed, threshold, lower: bool = False) -> dict:
    """A row passing at observed <= threshold (>= for a lower row); NaN
    fails."""
    observed, threshold = float(observed), float(threshold)
    passed = observed >= threshold if lower else observed <= threshold
    return {"check": name, "passed": passed, "observed": observed,
            "threshold": threshold}


def run_check(check: Check, rng: np.random.Generator) -> dict:
    """The row of the worst measure: the max from 0, or for a lower row the
    min from 1."""
    values = [check.measure(rng) for _ in range(check.instances)]
    worst = np.min([1.0, *values]) if check.lower else np.max([0.0, *values])
    return _row(check.name, worst, check.threshold, check.lower)


def fd_error(T: isets.IndexSet, beta: float, x, i: int, order: int) -> float:
    """|analytic - finite difference| of one partial of F_beta, relative to
    |analytic| + beta^(order-1) max|t_i|^order, the partial's own scale."""
    analytic, fd = sm.grad_fd_report(T, beta, x, i, order)
    floor = (abs(analytic)
             + beta ** (order - 1) * float(np.abs(T.points[:, i]).max()) ** order
             + 1e-12)
    return abs(analytic - fd) / floor


def _instance(rng, n_max=8, card_max=12):
    n = int(rng.integers(2, n_max + 1))
    card = int(rng.integers(2, card_max + 1))
    T = isets.build_explicit(rng.standard_normal((card, n)))
    x = rng.standard_normal(n)
    beta = float(rng.uniform(0.3, 3.0))
    return T, x, beta


def _sandwich_excess(rng):
    # excess of F_beta - max over [0, log|T|/beta], past a 1e-12 slack
    T, x, beta = _instance(rng)
    gap, bound = sm.sandwich_gap(T, beta, x)
    return max(gap - bound, -gap) - 1e-12


def _beta_increase(rng):
    T, x, beta = _instance(rng)
    return sm.log_partition(T, beta * 2.0, x) - sm.log_partition(T, beta, x)


def _midpoint_excess(rng):
    T, x, beta = _instance(rng)
    y = rng.standard_normal(T.dim)
    mid = sm.log_partition(T, beta, 0.5 * (x + y))
    avg = 0.5 * (sm.log_partition(T, beta, x) + sm.log_partition(T, beta, y))
    return mid - avg - 1e-12 * max(1.0, abs(avg))


def _fd_disagreement(rng):
    T, x, beta = _instance(rng, n_max=5, card_max=8)
    i = int(rng.integers(T.dim))
    return max(fd_error(T, beta, x, i, order) for order in (2, 3, 4))


def _moment_bound_excess(rng):
    T, x, beta = _instance(rng)
    i = int(rng.integers(T.dim))
    return sm.derivative_bound_check(T, beta, x, i).excess


def _uniform_identity_gap(rng):
    T, x, beta = _instance(rng)
    return sm.uniform_identity_gap(T, beta, x)


def _collapse_weight(rng):
    T, x, _ = _instance(rng)
    try:
        return sm.collapse_weight(T, x)
    except ValueError:
        # no unique maximizer to collapse onto: 1.0 is the row's starting
        # value, so the instance moves nothing
        return 1.0


def _weight_sum_error(rng):
    T, x, beta = _instance(rng)
    w = sm.gibbs_measure(T, beta, x).weights
    # a negative weight is no probability measure at any tolerance
    return abs(float(w.sum()) - 1.0) if np.all(w >= 0.0) else math.inf


def _log_ratio_error(rng):
    T, x, beta = _instance(rng)
    w = sm.gibbs_measure(T, beta, x).weights
    z = beta * (T.points @ x)
    # log w_a - log w_b = z_a - z_b over pairs of the first four live rows
    return max((abs(math.log(w[a]) - math.log(w[b]) - (z[a] - z[b]))
                for a, b in itertools.combinations(np.nonzero(w)[0][:4], 2)),
               default=0.0)


def _tilt_error(rng):
    T, x, beta = _instance(rng)
    w1 = sm.gibbs_measure(T, beta, x).weights
    w2 = sm.tilted_measure(sm.uniform_measure(T), beta * x).weights
    return float(np.abs(w1 - w2).max())


def _gradient_error(rng):
    T, x, beta = _instance(rng)
    mu = sm.gibbs_measure(T, beta, x)
    grad = sm.log_partition_grad(T, beta, x)
    moments = np.array([sm.gibbs_moment(mu, i, 1) for i in range(T.dim)])
    return float(np.abs(grad - moments).max())


def _lipschitz_excess(rng):
    T, x, beta = _instance(rng)
    i = int(rng.integers(T.dim))
    y = x.copy()
    y[i] += float(rng.uniform(-0.5, 0.5))
    return sm.lipschitz_log_moment_check(T, beta, x, y, i).excess


def _concentrated_fourth_moment(rng):
    # negative-scaled basis family at location (s, 1, ..., 1): E[l_i^4] has
    # the closed form theta^4 e^{-s theta} / (e^{-s theta} + (n-1) e^{-theta})
    n, theta, s = 6, 12.0, 0.5
    T = isets.make_basis_family(n, "negative-scaled", theta)
    x = np.ones(n)
    x[0] = s
    got = sm.gibbs_moment(sm.gibbs_measure(T, 1.0, x), 0, 4)
    expect = theta ** 4 * math.exp(-s * theta) / (
        math.exp(-s * theta) + (n - 1) * math.exp(-theta))
    return abs(got - expect) / expect


def _fourth_moment_growth(rng):
    # summing over the n interpolation locations approaches n * theta^4,
    # the growth that rules out a single dominating measure
    n, theta = 6, 40.0
    T = isets.make_basis_family(n, "negative-scaled", theta)
    total = 0.0
    for i in range(n):
        x = np.ones(n)
        x[i] = 0.5
        total += sm.gibbs_moment(sm.gibbs_measure(T, 1.0, x), i, 4)
    return total / (n * theta ** 4)


BATTERIES = {
    "softmax": (
        Check("sandwich_bracket", 200, _sandwich_excess, 0.0),
        Check("monotone_in_beta", 100, _beta_increase, 1e-12),
        Check("midpoint_convexity", 200, _midpoint_excess, 0.0),
        Check("derivative_fd_agreement", 50, _fd_disagreement, 1e-4),
        Check("derivative_moment_bounds", 200, _moment_bound_excess, 0.0),
        Check("uniform_measure_identity", 100, _uniform_identity_gap, 1e-10),
        Check("weight_collapse", 50, _collapse_weight, 1.0 - 1e-6, lower=True),
    ),
    "gibbs": (
        Check("weights_normalized", 200, _weight_sum_error, 1e-12),
        Check("log_ratio_identity", 100, _log_ratio_error, 1e-10),
        Check("gibbs_is_tilted_uniform", 100, _tilt_error, 1e-12),
        Check("gradient_is_mean", 100, _gradient_error, 1e-12),
        Check("lipschitz_log_moment", 100, _lipschitz_excess, 0.0),
        Check("concentrated_fourth_moment", 1, _concentrated_fourth_moment,
              1e-10),
        Check("fourth_moment_growth", 1, _fourth_moment_growth, 0.9,
              lower=True),
    ),
}


def _refuses(f, dist, variant, moment) -> bool:
    """Whether the Stein check refuses `dist` by naming `moment`."""
    try:
        ou.stein_representation_check(f, dist, variant)
    except ou.HypothesisViolation as exc:
        return exc.moment == moment
    return False


def _stein_rows(stream: RandomStream) -> list:
    rows = []
    rng = stream.substream("stein-battery").generator()

    # smoothed maximum, exhaustive rademacher, both variants
    T = isets.build_explicit(rng.standard_normal((6, 5)))
    f = ou.SoftmaxFunction(T, 0.7)
    for variant in ("third", "fourth"):
        rep = ou.stein_representation_check(f, rademacher(), variant)
        rows.append(_row(f"softmax_{variant}_exhaustive", rep.diff,
                         rep.tolerance))

    # univariate x^4 against the fourth-order representation
    f4 = ou.Polynomial.coordinate_power(1, 0, 4)
    rep = ou.stein_representation_check(f4, rademacher(), "fourth")
    rows.append(_row("quartic_exhaustive", rep.diff, rep.tolerance))
    rows.append(_row("quartic_lhs_value", abs(rep.lhs - 8.0), 1e-10))

    # Monte-Carlo path for a continuous law
    rep = ou.stein_representation_check(f, uniform_symmetric(), "fourth",
                                        stream.substream("stein-mc"),
                                        replicates=4000)
    rows.append(_row("softmax_fourth_mc", rep.diff, rep.tolerance))

    # hypothesis refusal: variance 2 and skewed laws must be rejected by name
    rows.append(_row("refuses_variance_2", _refuses(
        f, laplace(False), "third", "second moment"), 1.0, lower=True))
    rows.append(_row("refuses_skewed_fourth", _refuses(
        f, two_point(2.0), "fourth", "third moment"), 1.0, lower=True))

    # operator identities on a polynomial
    fp = ou.Polynomial(3, {(2, 0, 0): 1.0, (0, 1, 2): 0.5, (1, 1, 0): -2.0,
                           (0, 0, 4): 0.25, (0, 0, 0): 1.5})
    x = np.array([0.3, -1.1, 0.7])
    rep = ou.poisson_identity_check(fp, x)
    rows.append(_row("poisson_identity_poly", rep.diff, rep.tolerance))
    lhs, rhs, tol, _ = ou.semigroup_check(fp, 0.4, 0.9, x)
    rows.append(_row("semigroup_poly", abs(lhs - rhs), tol))
    dev, threshold, _ = ou.ergodic_check(fp, 3.0, x)
    rows.append(_row("ergodic_poly", dev, threshold))

    x5 = rng.standard_normal(5) * 0.5
    lhs, rhs, tol, _ = ou.semigroup_check(f, 0.5, 0.8, x5,
                                          stream=stream.substream("semigroup"))
    rows.append(_row("semigroup_softmax_mc", abs(lhs - rhs), tol))
    rep = ou.poisson_identity_check(f, x5, samples=2048,
                                    stream=stream.substream("poisson"))
    rows.append(_row("poisson_identity_softmax_mc", rep.diff, rep.tolerance))
    return rows


def run_battery(target: str, seed: int) -> list:
    """The rows of one battery (a name in TARGETS) at a master seed."""
    stream = RandomStream(seed).substream(f"verify-{target}")
    if target == "stein":
        return _stein_rows(stream)
    rng = stream.substream(f"{target}-battery").generator()
    return [run_check(check, rng) for check in BATTERIES[target]]
