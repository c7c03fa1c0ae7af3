"""The generic kernels' row tiles: bitwise the untiled arithmetic on the
sets below at every worker count and tiling, bitwise the same at any
worker count, within their byte budget, and under the caller's numpy
error state.

The untiled reference is the loop the kernels ran before they were tiled:
one matmul per POINT_CHUNK chunk of points over every row of X.
"""
import os
import select
import signal
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from supcompare import index_sets as isets
from test_golden_csv import CONFIGS, DIGESTS, csv_digest


def untiled_sup(points, X):
    out = np.full(X.shape[0], -np.inf)
    for lo in range(0, points.shape[0], isets.POINT_CHUNK):
        np.maximum(out, (X @ points[lo:lo + isets.POINT_CHUNK].T).max(axis=1),
                   out=out)
    return out


def untiled_logz(points, X, beta):
    sups = np.full(X.shape[0], -np.inf)
    logz = np.full(X.shape[0], -np.inf)
    for lo in range(0, points.shape[0], isets.POINT_CHUNK):
        s, z = isets._fused_block(X @ points[lo:lo + isets.POINT_CHUNK].T,
                                  beta)
        np.maximum(sups, s, out=sups)
        np.logaddexp(logz, z, out=logz)
    return sups, logz


def _explicit(rows, dim, seed):
    return isets.build_explicit(
        np.random.default_rng(seed).standard_normal((rows, dim)))


# name -> (set, kernel under test, rows r of a full tile); X has 4r rows
# for "several" tiles and 4r + 1, which 5 does not divide, for "ragged" ones
SETS = {
    "spin-quadratic:N=14": (lambda: isets.make_spin_quadratic(14), "sup", 255),
    "spin-quadratic:N=12": (lambda: isets.make_spin_quadratic(12), "logz",
                            255),
    "explicit-3-chunks": (lambda: _explicit(2 * isets.POINT_CHUNK + 5, 5, 1),
                          "both", 64),
    "explicit-dim-10001": (lambda: _explicit(6, 10_001, 2), "both", 64),
}
TILINGS = ("one", "several", "ragged")


def _points(T):
    # the rows the set's kernel multiplies by: even-order spin sets run
    # their distinct half
    if T.kind == "spin-quadratic":
        return T.points[:T.cardinality // 2]
    return T.points


@pytest.fixture(scope="module", params=sorted(SETS))
def case(request):
    build, kernel, r = SETS[request.param]
    T = build()
    rng = np.random.default_rng(r)
    return T, kernel, r, rng.standard_normal((4 * r + 1, T.dim))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tiling", TILINGS)
def test_tiled_kernels_are_bitwise_the_untiled_loop(case, tiling, workers,
                                                    monkeypatch):
    T, kernel, r, X = case
    points = _points(T)
    row_bytes = 8 * min(points.shape[0], isets.POINT_CHUNK)
    X = X[:4 * r] if tiling == "several" else X
    monkeypatch.setattr(isets, "WORKERS", workers)
    monkeypatch.setattr(isets, "TILE_BYTES",
                        2 ** 40 if tiling == "one" else r * row_bytes)
    sizes = isets._tiled(lambda P, tile, buf: tile.shape[0], points, X)
    assert sum(sizes) == X.shape[0]
    if tiling == "one":
        assert sizes == [X.shape[0]]
    elif tiling == "several":
        assert sizes == [r] * 4
    else:
        # 4r + 1 rows: a split into r-row tiles would leave a lone row,
        # which BLAS multiplies by gemv; the even split leaves none
        assert len(sizes) == 5 and max(sizes) - min(sizes) == 1
        assert max(sizes) <= r
    if kernel in ("sup", "both"):
        assert np.array_equal(T.sup(T, X), untiled_sup(points, X))
    if kernel in ("logz", "both"):
        for beta in (0.5, 8.0):
            sups, logz = T.logz(T, X, beta)
            ref_sups, ref_logz = untiled_logz(points, X, beta)
            if T.kind == "spin-quadratic":
                ref_logz = ref_logz + np.log(2.0)
            assert np.array_equal(sups, ref_sups)
            assert np.array_equal(logz, ref_logz)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests_with_one_worker(name, tmp_path, monkeypatch):
    monkeypatch.setattr(isets, "WORKERS", 1)
    assert csv_digest(name, str(tmp_path)) == DIGESTS[name]


@pytest.mark.parametrize("workers", [1, 2])
def test_products_held_are_within_workers_tile_bytes(workers, monkeypatch):
    # untiled, the products of 1024 draws with the 8192 distinct rows of
    # the N=14 spin set would take 64 MiB at once
    T = isets.make_spin_quadratic(14)
    T.points
    X = np.random.default_rng(3).choice([-1.0, 1.0], size=(1024, T.dim))
    monkeypatch.setattr(isets, "WORKERS", workers)
    assert 8 * X.shape[0] * T.cardinality // 2 >= 8 * isets.TILE_BYTES
    tracemalloc.start()
    try:
        T.sup(T, X)
        T.logz(T, X, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < workers * isets.TILE_BYTES + 2 ** 20


def _inline(T, X, beta, monkeypatch):
    # the same tiles run one after another on the calling thread
    with monkeypatch.context() as m:
        m.setattr(isets, "WORKERS", 1)
        return [T.sup(T, X), *T.logz(T, X, beta)]


def test_more_threads_than_buffers_share_none(monkeypatch):
    # 8 pool threads on 3 buffers, switching threads every microsecond: a
    # buffer handed to two running tiles at once would mix their products.
    # Tiles this small can round differently from one untiled product, so
    # the reference is the same tiles run inline
    T = _explicit(300, 7, 8)
    X = np.random.default_rng(9).standard_normal((403, 7))
    monkeypatch.setattr(isets, "TILE_BYTES", 8 * 300 * 10)
    assert len(isets._tiled(lambda P, tile, buf: None, T.points, X)) == 41
    expected = _inline(T, X, 2.0, monkeypatch)
    pool = ThreadPoolExecutor(8)
    monkeypatch.setattr(isets, "_POOL", pool)
    monkeypatch.setattr(isets, "WORKERS", 3)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: got.extend(
            [T.sup(T, X), *T.logz(T, X, 2.0)]))
        worker.start()
        worker.join(60.0)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=False, cancel_futures=True)
    assert not worker.is_alive()
    assert len(got) == 3
    for part, ref in zip(got, expected):
        assert np.array_equal(part, ref)


def test_tiles_run_under_the_callers_error_state(monkeypatch):
    # beta (Z - s) overflows to -inf for every product below a row's max;
    # the caller ignores that, and so must every pool thread that runs a
    # tile, or the warning, an error here, fails the call
    T = _explicit(64, 3, 4)
    X = 10.0 * np.random.default_rng(5).standard_normal((40, 3))
    monkeypatch.setattr(isets, "TILE_BYTES", 8 * 64 * 10)
    assert len(isets._tiled(lambda P, tile, buf: None, T.points, X)) == 4
    expected = _inline(T, X, 1.0, monkeypatch)[0]
    monkeypatch.setattr(isets, "WORKERS", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            sups, logz = T.logz(T, X, 1e308)
        with pytest.raises(RuntimeWarning, match="overflow"):
            T.logz(T, X, 1e308)
    assert np.array_equal(sups, expected)
    assert np.all(np.isinf(logz))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_its_tiles_on_a_pool_of_its_own(monkeypatch):
    # the child inherits the pool but none of its threads; on that pool
    # its first tile would wait forever
    monkeypatch.setattr(isets, "WORKERS", 2)
    T = _explicit(64, 3, 6)
    X = np.random.default_rng(7).standard_normal((40, 3))
    monkeypatch.setattr(isets, "TILE_BYTES", 8 * 64 * 10)
    expected = T.sup(T, X)  # starts the parent's pool threads
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(write, T.sup(T, X).tobytes())
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready = select.select([read], [], [], 30.0)[0]
        got = os.read(read, expected.nbytes) if ready else b""
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(read)
    assert np.array_equal(np.frombuffer(got), expected)
