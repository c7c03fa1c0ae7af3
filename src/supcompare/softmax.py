"""Smoothed maxima, Gibbs measures on index sets, and log-Laplace calculus.

For a finite T in R^n and beta > 0 the smoothed maximum is

    F_beta(x) = (1/beta) log sum_t exp(beta <x, t>),

which brackets the true maximum:  max <= F_beta <= max + log|T|/beta
(|T| counts rows, duplicates included).  Its partial derivatives along a
coordinate are central moments of the coordinate functional l_i(t) = t_i
under the Gibbs measure with weights proportional to exp(beta <x, t>).

Every evaluation runs in rows form; a scalar entry point is its rows form
at one row.  ``_smoothed_max_rows`` is the one entry for (max, F_beta): it
runs the set's log-partition field ``T.logz``, the generic
``index_sets._chunked_logz`` unless the set's constructor declared a fast
path (see ``index_sets``; ``LOGZ_CASES`` in tests/test_estimator.py checks
each).  ``gibbs_weight_rows`` is the one Gibbs normalizer; it and the
generic path run the one exp body, ``index_sets._exp_block``, in place
on the block of products.
A Gibbs block is point-major: the products are ``T.points @ X.T``, shape
(|T|, m), handed on as their (m, |T|) transposed view, so every reduction
over points runs as |T| contiguous passes over m values.  The partials
and the generator run in ``index_sets._tiled``'s row tiles of X, each
holding its blocks within TILE_BYTES on the kernels' pool; a call whose
blocks fit one tile runs inline.  ``gibbs_weight_rows`` returns the whole
block.  The ``sup`` and ``logz`` kernels stay row-major, where the
products of a chunk are reduced along rows of up to POINT_CHUNK points.
``_partial_rows`` is the one Gibbs-moment pass behind every partial, its
centred powers built by in-place products.  ``log_laplace`` keeps its own
max-shifted log-sum-exp, outside ``_exp_block``: the independent
reference that the uniform-measure identity compares F_beta against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .index_sets import IndexSet, _exp_block, _tiled, geometric_profile
from . import numdiff

WEIGHT_FLUSH = 1e-300

# moment-bound constants for the third and fourth log-Laplace derivatives
THIRD_DERIV_CONST = 6.0
FOURTH_DERIV_CONST = 26.0
# relative float slack of derivative_bound_check and lipschitz_log_moment_check
DERIV_BOUND_SLACK = 1e-12
LIPSCHITZ_SLACK = 1e-10
# collapse_weight's beta, in units of 1/margin
COLLAPSE_MARGIN_FACTOR = 50.0


def _require_beta(beta: float) -> float:
    beta = float(beta)
    if not beta > 0.0 or not math.isfinite(beta):
        raise ValueError("beta must be positive and finite")
    return beta


def _one_row(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)[None, :]


def _smoothed_max_rows(T: IndexSet, beta: float, X: np.ndarray):
    """(max_t <x, t>, F_beta(x)) at each row of X, shape (m, n) -> two (m,);
    F_beta sums over every declared row of T, duplicates included."""
    beta = _require_beta(beta)
    sups, logz = T.logz(T, X, beta)
    return sups, logz / beta


def log_partition(T: IndexSet, beta: float, x) -> float:
    """F_beta(x), evaluated stably (max subtracted before the exp)."""
    return float(log_partition_rows(T, beta, _one_row(x))[0])


def log_partition_rows(T: IndexSet, beta: float, X: np.ndarray) -> np.ndarray:
    """F_beta at each row of X, shape (m, n) -> (m,)."""
    return _smoothed_max_rows(T, beta, X)[1]


def sandwich_gap(T: IndexSet, beta: float, x):
    """(F_beta(x) - max_t <x,t>, log|T|/beta); the gap lies in [0, bound]."""
    top, f = _smoothed_max_rows(T, beta, _one_row(x))
    return float(f[0] - top[0]), T.log_cardinality / float(beta)


@dataclass(frozen=True)
class WeightedMeasure:
    """A probability measure on the rows of an index set."""

    base: IndexSet
    weights: np.ndarray


def uniform_measure(T: IndexSet) -> WeightedMeasure:
    w = np.full(T.cardinality, 1.0 / T.cardinality)
    w.setflags(write=False)
    return WeightedMeasure(T, w)


def _normalized_exp(Z: np.ndarray, beta: float) -> np.ndarray:
    """exp(beta Z) normalized along each row of Z in place, through
    _exp_block; weights below WEIGHT_FLUSH flush to exact zero."""
    _exp_block(Z, beta)
    Z[Z < WEIGHT_FLUSH] = 0.0
    Z /= Z.sum(axis=1, keepdims=True)
    return Z


def _point_major(m: int, card: int, buf=None, k: int = 0) -> np.ndarray:
    """An (m, card) array laid out point-major, the transposed view of a
    C-contiguous (card, m) block: the k-th block of that size in the flat
    buffer buf, or a new one.  A reduction over its points runs as card
    contiguous passes over m values."""
    if buf is None:
        return np.empty((card, m)).T
    return buf[k * m * card:(k + 1) * m * card].reshape(card, m).T


def _weights(points: np.ndarray, X: np.ndarray, beta: float,
             buf=None) -> np.ndarray:
    """Gibbs weights at each row of X, shape (m, |T|), point-major: block 0
    of the flat buffer buf, or a new block."""
    W = _point_major(X.shape[0], len(points), buf)
    np.matmul(points, X.T, out=W.T)
    return _normalized_exp(W, beta)


def gibbs_weight_rows(T: IndexSet, beta: float, X: np.ndarray) -> np.ndarray:
    """Gibbs weights at each row of X, shape (m, n) -> (m, |T|), one
    point-major block."""
    return _weights(T.points, X, _require_beta(beta))


def gibbs_measure(T: IndexSet, beta: float, x) -> WeightedMeasure:
    """The Gibbs measure on T at inverse temperature beta and location x:
    gibbs_weight_rows at one row."""
    w = gibbs_weight_rows(T, beta, _one_row(x))[0]
    w.setflags(write=False)
    return WeightedMeasure(T, w)


def gibbs_weights(T: IndexSet, beta: float, x) -> np.ndarray:
    return gibbs_measure(T, beta, x).weights


def _require_coordinate(i: int, dim: int) -> int:
    """i, if it indexes a coordinate of R^dim; a negative i would wrap."""
    if not 0 <= i < dim:
        raise ValueError(f"coordinate index {i} is outside [0, {dim})")
    return i


def gibbs_moment(mu: WeightedMeasure, i: int, k: int,
                 absolute: bool = False) -> float:
    """E_mu[l_i^k] (or E_mu|l_i|^k), l_i(t) = t_i."""
    if k < 0:
        raise ValueError("k must be >= 0")
    li = mu.base.points[:, _require_coordinate(i, mu.base.dim)]
    return float(mu.weights @ (np.abs(li) ** k if absolute else li ** k))


def log_partition_grad(T: IndexSet, beta: float, x) -> np.ndarray:
    """grad F_beta(x) = E_mu[t]; lies in the convex hull of T."""
    return gibbs_weights(T, beta, x) @ T.points


# point-major blocks a partial of each order holds: the weights W, the
# centred values C, and at order 3 their square beside C
_PARTIAL_BLOCKS = {1: 1, 2: 2, 3: 3, 4: 2}


def _partial_rows(W: np.ndarray, li: np.ndarray, beta: float, order: int,
                  buf=None) -> np.ndarray:
    """Order-k coordinate partial of F_beta under each row of the Gibbs
    weights W, shape (m, |T|) -> (m,): the mean of l_i at k = 1, else
    beta^(k-1) times the k-th cumulant of l_i.  The centred powers are
    built by in-place products in W's point-major layout, as blocks 1 and
    2 of the flat buffer buf (new blocks if None)."""
    m1 = W @ li
    if order == 1:
        return m1
    C = np.subtract(li, m1[:, None], out=_point_major(*W.shape, buf, 1))
    if order == 3:
        P = np.multiply(C, C, out=_point_major(*W.shape, buf, 2))
        P *= C
    else:  # C is read no more: square it in place
        P = C
        P *= P
    cumulant = np.einsum("bt,bt->b", W, P)
    if order == 4:
        P *= P
        cumulant = np.einsum("bt,bt->b", W, P) - 3.0 * cumulant ** 2
    return beta ** (order - 1) * cumulant


def log_partition_partial(T: IndexSet, beta: float, x, i: int,
                          order: int) -> float:
    """Analytic coordinate partials of F_beta of orders 1..4.

    d1 = E[l_i]; d2 = beta Var; d3 = beta^2 E[(l_i - E l_i)^3];
    d4 = beta^3 (E[(l_i - E l_i)^4] - 3 Var^2).  All moments under the
    Gibbs measure at (beta, x).
    """
    return float(log_partition_partials_rows(T, beta, _one_row(x), i,
                                             order)[0])


def _partial_tile(points: np.ndarray, X: np.ndarray, buf: np.ndarray,
                  beta: float, i: int, order: int) -> np.ndarray:
    return _partial_rows(_weights(points, X, beta, buf), points[:, i], beta,
                         order, buf)


def log_partition_partials_rows(T: IndexSet, beta: float, X: np.ndarray,
                                i: int, order: int) -> np.ndarray:
    """log_partition_partial at each row of X, in index_sets._tiled's row
    tiles, each of whose point-major blocks fits TILE_BYTES."""
    beta = _require_beta(beta)
    _require_coordinate(i, T.dim)
    if order not in _PARTIAL_BLOCKS:
        raise ValueError("order must be in 1..4")
    kernel = partial(_partial_tile, beta=beta, i=i, order=order)
    return np.concatenate(_tiled(kernel, T.points, X,
                                 _PARTIAL_BLOCKS[order] * T.cardinality))


def _generator_tile(points: np.ndarray, X: np.ndarray, buf: np.ndarray,
                    beta: float, squares: np.ndarray) -> np.ndarray:
    W = _weights(points, X, beta, buf)
    M1 = W @ points
    lap = beta * (W @ squares - M1 ** 2).sum(axis=1)
    return lap - (X * M1).sum(axis=1)


def log_partition_generator_rows(T: IndexSet, beta: float,
                                 X: np.ndarray) -> np.ndarray:
    """L F_beta = Laplacian F_beta - <x, grad F_beta> at each row of X, the
    Ornstein-Uhlenbeck generator: beta times the summed Gibbs coordinate
    variances, minus <x, E_mu t>; in row tiles as the partials."""
    kernel = partial(_generator_tile, beta=_require_beta(beta),
                     squares=T.points ** 2)
    return np.concatenate(_tiled(kernel, T.points, X, T.cardinality))


class _Verdict:
    """A check report that passes when its ``excess`` is at most 0."""

    @property
    def ok(self) -> bool:
        return self.excess <= 0.0


@dataclass(frozen=True)
class DerivativeBoundReport(_Verdict):
    """Analytic partials vs their Gibbs-moment majorants at one (x, i)."""

    d2: float
    d3: float
    d4: float
    d2_bound: float
    d3_bound: float
    d4_bound: float
    # the largest violation relative to max(1, bounds), past the slack
    excess: float


def derivative_bound_check(T: IndexSet, beta: float, x,
                           i: int) -> DerivativeBoundReport:
    """Check 0 <= d2 <= beta E[l_i^2], |d3| <= 6 beta^2 E|l_i|^3,
    |d4| <= 26 beta^3 E[l_i^4], moments under the Gibbs measure."""
    beta = _require_beta(beta)
    _require_coordinate(i, T.dim)
    mu = gibbs_measure(T, beta, x)
    W, li = mu.weights[None, :], T.points[:, i]
    d2, d3, d4 = (float(_partial_rows(W, li, beta, k)[0]) for k in (2, 3, 4))
    b2 = beta * gibbs_moment(mu, i, 2, absolute=True)
    b3 = THIRD_DERIV_CONST * beta ** 2 * gibbs_moment(mu, i, 3, absolute=True)
    b4 = FOURTH_DERIV_CONST * beta ** 3 * gibbs_moment(mu, i, 4)
    # np.max, not max: a NaN anywhere must fail the check
    excess = (float(np.max([-d2, d2 - b2, abs(d3) - b3, abs(d4) - b4]))
              / max(1.0, b2, b3, b4) - DERIV_BOUND_SLACK)
    return DerivativeBoundReport(d2, d3, d4, b2, b3, b4, excess)


def _tilt_logits(mu: WeightedMeasure, x) -> np.ndarray:
    """<x, l> + log mu, the unnormalized log-density of mu tilted by x."""
    z = mu.base.points @ np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return z + np.where(mu.weights > 0, np.log(mu.weights), -np.inf)


def log_laplace(mu: WeightedMeasure, x) -> float:
    """Lambda_mu(x) = log E_mu exp(<x, l>) = m + log sum exp(z - m) over the
    tilted logits z, m their maximum (a zero weight's logit is -inf)."""
    z = _tilt_logits(mu, x)
    m = z.max()
    return float(m + np.log(np.sum(np.exp(z - m))))


def tilted_measure(mu: WeightedMeasure, x) -> WeightedMeasure:
    """The measure with density proportional to exp(<x, l>) against mu."""
    w = _normalized_exp(_tilt_logits(mu, x)[None, :], 1.0)[0]
    w.setflags(write=False)
    return WeightedMeasure(mu.base, w)


def uniform_identity_gap(T: IndexSet, beta: float, x) -> float:
    """|F_beta(x) - (log|T| + Lambda_nu(beta x))/beta| for nu uniform on T.

    Identically zero in exact arithmetic; the return is the float residual.
    """
    beta = _require_beta(beta)
    lhs = log_partition(T, beta, x)
    rhs = (T.log_cardinality
           + log_laplace(uniform_measure(T), beta * np.asarray(x, float))) / beta
    return abs(lhs - rhs)


@dataclass(frozen=True)
class LipschitzMomentReport(_Verdict):
    """Log fourth-moment shift between two Gibbs locations vs its bounds."""

    log_moment_x: float
    log_moment_y: float
    gap: float
    general_bound: float
    coordinate_bound: float | None
    # gap - bound relative to max(1, bound), past the slack
    excess: float


def lipschitz_log_moment_check(T: IndexSet, beta: float, x, y,
                               i: int) -> LipschitzMomentReport:
    """Check |log E_{mu_x}|l_i|^4 - log E_{mu_y}|l_i|^4| <= 2 beta sup_t |<t, x-y>|.

    When x - y is supported on coordinate i alone the sharper coordinate form
    2 beta Rinf |x_i - y_i| is also checked (Rinf = sup_t |t|_inf).
    """
    beta = _require_beta(beta)
    _require_coordinate(i, T.dim)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mx = gibbs_moment(gibbs_measure(T, beta, x), i, 4, absolute=True)
    my = gibbs_moment(gibbs_measure(T, beta, y), i, 4, absolute=True)
    # flushed weights can zero a moment: one zero is an honest infinite gap
    lx, ly = (math.log(m) if m != 0.0 else -math.inf for m in (mx, my))
    gap = 0.0 if mx == my == 0.0 else abs(lx - ly)
    diff = x - y
    general = 2.0 * beta * float(np.abs(T.points @ diff).max())
    coord = None
    if not np.delete(diff, i).any():  # x - y is supported on coordinate i
        coord = 2.0 * beta * geometric_profile(T).rinf * abs(float(diff[i]))
    bound = general if coord is None else min(general, coord)
    excess = (gap - bound) / max(1.0, bound) - LIPSCHITZ_SLACK
    return LipschitzMomentReport(lx, ly, gap, general, coord, excess)


def grad_fd_report(T: IndexSet, beta: float, x, i: int, order: int):
    """(analytic, finite-difference) pair for one partial; testing hook."""
    x = np.asarray(x, dtype=np.float64)
    analytic = log_partition_partial(T, beta, x, i, order)
    # the value varies on scale 1/(beta max|t_i|) along coordinate i, so the
    # step shrinks by that factor; a zero column makes the partial exactly 0
    scale = beta * float(np.abs(T.points[:, i]).max())
    h = numdiff.default_step(order, 0.0) / scale if scale > 0 else None
    fd = numdiff.central_partial(
        lambda locs: log_partition_rows(T, beta, locs), x, i, order, h)
    return analytic, fd


def collapse_weight(T: IndexSet, x) -> float:
    """Gibbs weight of the maximizing row at beta = COLLAPSE_MARGIN_FACTOR /
    margin, margin = gap between the best and second-best inner products.
    Requires a unique maximizer among distinct values."""
    if T.cardinality < 2:
        raise ValueError("a one-row set has no second-best row")
    z = T.points @ np.asarray(x, dtype=np.float64)
    order = np.argsort(z)
    top, second = z[order[-1]], z[order[-2]]
    margin = top - second
    if margin <= 0:
        raise ValueError("maximizer is not unique")
    beta = COLLAPSE_MARGIN_FACTOR / margin
    w = gibbs_weights(T, beta, x)
    return float(w[order[-1]])
