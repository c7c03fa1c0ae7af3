"""The Gibbs passes in point-major row tiles: within 1e-12 of a row-at-a-time
oracle, bitwise the same at any worker count, and within their byte budget.

The oracle exp-normalises one row of products at a time, as the passes did
before they were tiled, and forms each moment from that row's weights.
"""
import tracemalloc

import numpy as np
import pytest

from supcompare import index_sets as isets
from supcompare import softmax as sm

BETA = 1.3
CARDINALITIES = (1, 6, 8, 13, 5000)
ROWS = (1, 1023, 1024, 2500)
COORD = 1


def _instance(card, m, dim=3):
    rng = np.random.default_rng(1000 * card + m)
    T = isets.build_explicit(rng.standard_normal((card, dim)))
    return T, 2.0 * rng.standard_normal((m, dim))


def _oracle(T, X, beta):
    """(weights, partials of orders 1..4 along COORD, generator), row by row."""
    P = T.points
    squares = P * P
    li = P[:, COORD]
    weights, partials, generator = [], [], []
    for x in X:
        z = P @ x
        w = np.exp(beta * (z - z.max()))
        w[w < sm.WEIGHT_FLUSH] = 0.0
        w /= w.sum()
        m1 = w @ li
        c = li - m1
        c2 = c * c
        var = w @ c2
        partials.append([m1, beta * var, beta ** 2 * (w @ (c2 * c)),
                         beta ** 3 * (w @ (c2 * c2) - 3.0 * var ** 2)])
        mean = w @ P
        generator.append(beta * (w @ squares - mean ** 2).sum() - x @ mean)
        weights.append(w)
    return np.array(weights), np.array(partials).T, np.array(generator)


def _tiled_passes(T, X, beta):
    return [*(sm.log_partition_partials_rows(T, beta, X, COORD, k)
              for k in (1, 2, 3, 4)),
            sm.log_partition_generator_rows(T, beta, X)]


@pytest.mark.parametrize("m", ROWS)
@pytest.mark.parametrize("card", CARDINALITIES)
def test_gibbs_passes_match_the_row_oracle(card, m):
    T, X = _instance(card, m)
    weights, partials, generator = _oracle(T, X, BETA)
    W = sm.gibbs_weight_rows(T, BETA, X)
    *got, gen = _tiled_passes(T, X, BETA)
    assert W.shape == (m, card)
    np.testing.assert_allclose(W, weights, rtol=1e-12, atol=0.0)
    # each partial and the generator relative to their own scale:
    # beta^(k-1) max|t_i|^k, and the generator's two terms at their largest
    top = np.abs(T.points).max(axis=0)
    for k, (part, ref) in enumerate(zip(got, partials), start=1):
        assert part.shape == (m,)
        scale = BETA ** (k - 1) * top[COORD] ** k
        np.testing.assert_allclose(part, ref, rtol=1e-12, atol=1e-12 * scale)
    scale = BETA * (top ** 2).sum() + np.abs(X) @ top
    assert np.all(np.abs(gen - generator) <= 1e-12 * scale)


def test_large_sets_split_into_uneven_tiles():
    # the cases above tile the largest set: 1023 rows of its order-1 block
    # go in ten uneven tiles, 2500 rows of its order-3 block in 74
    T, X = _instance(5000, 1023)
    sizes = isets._tiled(lambda P, tile, buf: tile.shape[0], T.points, X,
                         T.cardinality)
    assert len(sizes) == 10 and max(sizes) - min(sizes) == 1
    T, X = _instance(5000, 2500)
    sizes = isets._tiled(lambda P, tile, buf: tile.shape[0], T.points, X,
                         3 * T.cardinality)
    assert len(sizes) == 74 and sum(sizes) == 2500


@pytest.mark.parametrize("card, m, tile_bytes", [
    (5000, 1023, None),        # 10 to 31 tiles at the default budget
    (13, 1023, 8 * 13 * 50),   # 21 to 64 tiles of a small set
])
def test_gibbs_passes_are_bitwise_the_same_at_any_worker_count(
        card, m, tile_bytes, monkeypatch):
    if tile_bytes is not None:
        monkeypatch.setattr(isets, "TILE_BYTES", tile_bytes)
    T, X = _instance(card, m)
    runs = []
    for workers in sorted({1, 2, isets.WORKERS}):
        monkeypatch.setattr(isets, "WORKERS", workers)
        runs.append(_tiled_passes(T, X, BETA))
    for run in runs[1:]:
        for got, ref in zip(run, runs[0]):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("workers", sorted({1, 2, isets.WORKERS}))
def test_gibbs_passes_hold_their_byte_budget(workers, monkeypatch):
    # one untiled point-major block of these 1024 rows would take 128 MiB
    rng = np.random.default_rng(31)
    T = isets.build_explicit(rng.standard_normal((2 ** 14, 4)))
    X = rng.standard_normal((1024, 4))
    monkeypatch.setattr(isets, "WORKERS", workers)
    assert 8 * X.shape[0] * T.cardinality >= 32 * isets.TILE_BYTES
    budget = ((workers + 3) * isets.TILE_BYTES + T.points.nbytes + X.nbytes)
    calls = [lambda k=k: sm.log_partition_partials_rows(T, 1.3, X, 2, k)
             for k in (1, 2, 3, 4)]
    calls.append(lambda: sm.log_partition_generator_rows(T, 1.3, X))
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget
