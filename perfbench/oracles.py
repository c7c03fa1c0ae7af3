"""Noise-free references computed by the benchmark itself.

Both oracles are written independently of the package under test, so a
sampler or kernel change in the package cannot move its own yardstick.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, special

ENUM_ROW_CHUNK = 1 << 14


def _log_cdf(law: str, x: float) -> float:
    if law == "gaussian":
        return float(special.log_ndtr(x))
    if law == "laplace":  # scale 1, variance 2
        return math.log(0.5) + x if x < 0 else math.log1p(-0.5 * math.exp(-x))
    raise ValueError(f"no CDF for law {law!r}")


def expected_max(law: str, n: int) -> float:
    """E max of n iid coordinates, by quadrature of
    int_0^inf (1 - F^n) dx - int_{-inf}^0 F^n dx.

    F^n is formed as exp(n log F) and 1 - F^n as -expm1(n log F), so the
    integrands stay accurate where F is within rounding of 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def upper(x):
        return -math.expm1(n * _log_cdf(law, x))

    def lower(x):
        return math.exp(n * _log_cdf(law, x))

    # F^n jumps from 0 to 1 near the median of the max; split the range
    # there so quad sees a smooth integrand on each piece
    mid = max(1.0, math.log(n))
    pos = (integrate.quad(upper, 0.0, mid, epsabs=1e-13, limit=200)[0]
           + integrate.quad(upper, mid, mid + 40.0, epsabs=1e-13, limit=200)[0]
           + integrate.quad(upper, mid + 40.0, math.inf, epsabs=1e-13)[0])
    neg = integrate.quad(lower, -math.inf, 0.0, epsabs=1e-13, limit=200)[0]
    return pos - neg


def spin_quadratic_points(N: int) -> np.ndarray:
    """Rows sigma_i sigma_j N^{-3/2} over pairs i < j, one per sigma."""
    sigmas = np.array(list(itertools.product((-1.0, 1.0), repeat=N)))
    pairs = list(itertools.combinations(range(N), 2))
    cols = [sigmas[:, i] * sigmas[:, j] for i, j in pairs]
    return np.stack(cols, axis=1) * N ** -1.5


def exact_rademacher_mean(points: np.ndarray) -> float:
    """E max_t <eps, t> over every sign vector eps, enumerated exactly."""
    dim = points.shape[1]
    if dim > 22:
        raise ValueError("exact enumeration is limited to dimension 22")
    total = 1 << dim
    acc = 0.0
    for lo in range(0, total, ENUM_ROW_CHUNK):
        idx = np.arange(lo, min(lo + ENUM_ROW_CHUNK, total))
        eps = ((idx[:, None] >> np.arange(dim)[None, :]) & 1) * 2.0 - 1.0
        acc += float((eps @ points.T).max(axis=1).sum())
    return acc / total
