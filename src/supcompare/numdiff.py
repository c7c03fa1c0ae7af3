"""Central finite differences for partial derivatives up to fourth order."""
from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

# (offsets, weights, denominator power) for d^k/dx^k, central, O(h^4)
_STENCILS = {
    1: ((-2, -1, 1, 2),
        (1 / 12, -2 / 3, 2 / 3, -1 / 12), 1),
    2: ((-2, -1, 0, 1, 2),
        (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12), 2),
    3: ((-3, -2, -1, 1, 2, 3),
        (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8), 3),
    4: ((-3, -2, -1, 0, 1, 2, 3),
        (-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6), 4),
}


def default_step(order: int, xi: float) -> float:
    """Rule-of-thumb step eps^(1/(order+4)) * (1 + |xi|).

    The exponent balances the O(h^4) truncation of the stencils against
    eps/h^order rounding when the function varies on unit scale near xi;
    callers whose function varies on scale 1/s should divide by s instead
    of scaling by (1 + |xi|).
    """
    return _EPS ** (1.0 / (order + 4)) * (1.0 + abs(xi))


def central_partial(f_rows, x, i: int, order: int,
                    h: float | None = None) -> float:
    """k-th central finite-difference partial of f at x along coordinate i.

    f_rows maps an (m, n) array of locations to an (m,) array of values;
    the stencil's shifted locations are evaluated in a single call.
    Orders 1..4 are supported with O(h^4) stencils; h defaults to
    default_step.
    """
    if order not in _STENCILS:
        raise ValueError("order must be in 1..4")
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = default_step(order, float(x[i]))
    offsets, weights, power = _STENCILS[order]
    locs = np.repeat(x[None, :], len(offsets), axis=0)
    locs[:, i] += h * np.asarray(offsets, dtype=np.float64)
    vals = np.asarray(f_rows(locs), dtype=np.float64)
    return float(np.dot(weights, vals)) / h ** power
