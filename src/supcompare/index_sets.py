"""Finite index sets in R^n: constructors, geometric profiles, CSV round-trip.

An index set is a finite collection of points t in R^n over which suprema
sup_t <x, t> are taken.  A set is declared by its shape and a builder of
its point matrix; declaring builds nothing, and the points are built on
first read and kept as a read-only float64 array.  Only points from outside
the package (explicit arrays, CSV files) are scanned for NaN and inf;
a constructor checks its own parameters.  The dimension cap keeps one
SAMPLE_BLOCK-row block of draws within the MAX_POINT_BYTES budget.
Duplicate rows are retained: the declared cardinality enters
log-cardinality bounds, and deduplication is the caller's choice.

Every set carries two kernels, a sampler and its controls as fields.
``sup(T, X)`` is the max over rows t of <x, t> for each row x of X;
``logz(T, X, beta)`` is the pair (sup, log sum_t exp(beta <x, t>)) per
row, the one entry through which ``softmax`` evaluates every smoothed
maximum beta F_beta.  Their defaults are the generic kernels,
``_chunked_sup`` and ``_chunked_logz`` over every declared row of
``T.points`` in POINT_CHUNK chunks, and over row tiles of X of TILE_BYTES
of products each, which run on a pool of WORKERS threads and round the
same at any worker count; a structured set's constructor overrides them.
Basis families override only ``sup``, which never touches the points; a
diagonal cube closes over its diagonal and free sign count (its Gibbs
measure is a product measure, so its log partition is a sum of log 2
cosh terms); a two-spin set splits its spins in two and forms its
energies from small tables, with no point matrix (``_split_kernels``);
and a spin set of higher even order runs the matmul over its distinct
half.  Every logz but the cube's closed form, and every Gibbs weight in
``softmax``, exponentiates its block of products or energies in place
through one body, ``_exp_block``.  A kernel receives the set rather than
capturing it, so a set holds no reference to itself and is freed with
its last reference.

``draw(T, laws, rng)``, the sampler of ``sup``, stacks one block X[k] of
rows per law laws[k], the laws paired by common random numbers
(``_draw_blocks``, which a soft-max pass runs for every set).  The
canonical basis's sup is the max of the coordinates, so its blocks are one
column of order-statistic maxima (``_draw_maxima``), which its sup passes
through: no 1024 x n block.  Every law draws its column from one
generator state, so the laws are paired at every n, 1 included.

``controls(T, X, law)`` is a list of columns, per-row statistics of a
block X drawn from ``law``, each of mean exactly zero under it; a pass
regresses every value it makes on every column of every law it drew
(control variates).  The default, ``_radial``, is the radial control
sum_i x_i^2 - dim E xi^2, declared only for a law whose x^2 is not
constant (E xi^4 > (E xi^2)^2); a two-spin set on three or more spins
adds the triangle sum sum_{i<j<k} x_ij x_jk x_ik, and on four or more
the 4-cycle sum (``_cycle_controls``).  A diagonal cube declares its
weighted free square sum_{free} d_i (x_i^2 - E xi^2), under the same
rule on x^2, and, with fixed signs, the linear part of its sup,
sum_{fixed} d_i x_i.  The canonical basis declares none: its blocks hold
maxima, not coordinates.
"""
from __future__ import annotations

import contextvars
import itertools
import math
import os
import queue
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

MAX_CARDINALITY = 2 ** 22
# bytes of a built point matrix (8 * cardinality * dim)
MAX_POINT_BYTES = 2 ** 31
POINT_CHUNK = 16384
SAMPLE_BLOCK = 1024
# the largest dimension whose block of draws fits the byte budget
MAX_DIM = MAX_POINT_BYTES // (8 * SAMPLE_BLOCK)
# bytes of the block of products one row tile of the generic kernels holds
TILE_BYTES = 4 * 2 ** 20
# bytes of energies and partial sums one row tile of the split two-spin
# kernels holds: 1 MiB, which stays in a core's cache, beat 0.5, 2 and
# 4 MiB in a sweep at N = 12 and 14
SPLIT_TILE_BYTES = 2 ** 20
# threads the generic kernels run their row tiles on, one per CPU the
# process may run on; the pool starts its threads on first use
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _new_pool() -> None:
    # a forked child inherits the pool but none of its threads, and would
    # wait forever on its first tile: it gets a pool of its own
    global _POOL
    _POOL = ThreadPoolExecutor(WORKERS, thread_name_prefix="supcompare-tile")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _draw_blocks(T: IndexSet, laws: tuple, rng) -> np.ndarray:
    """One SAMPLE_BLOCK x T.dim block per law, stacked: a lone law's own
    sampler, or one block of uniforms through every law's ``ppf``."""
    if len(laws) == 1:
        return laws[0].sample(rng, (SAMPLE_BLOCK, T.dim))[None]
    U = rng.random((SAMPLE_BLOCK, T.dim))
    return np.array([law.ppf(U) for law in laws])


def _radial(T: IndexSet, X: np.ndarray, law) -> list:
    """[sum_i x_i^2 - dim E xi^2], of mean zero, or [] for a law whose x^2
    is constant, where the control would be identically zero."""
    if law.fourth > law.variance ** 2:
        return [np.einsum("ij,ij->i", X, X) - X.shape[1] * law.variance]
    return []


def _no_controls(T: IndexSet, X: np.ndarray, law) -> list:
    return []


@dataclass(frozen=True, eq=False)
class IndexSet:
    """A finite set of points in R^n, one point per row of ``points``.

    ``cardinality`` and ``dim`` are the declared shape; ``build`` returns
    the point matrix, and ``points`` calls it once, on first read.
    ``kind`` labels the construction; ``explicit`` means no structure is
    assumed.  ``sup``, ``logz``, ``draw`` and ``controls`` are the kernels,
    sampler and control variates of the module docstring, each given the
    set first and overridable by a constructor.  ``distinct`` is true when
    the construction guarantees distinct rows, so ``dedupe`` has nothing
    to remove.
    """

    cardinality: int
    dim: int
    build: Callable[[], np.ndarray] = field(repr=False)
    kind: str = "explicit"
    sup: Callable[["IndexSet", np.ndarray], np.ndarray] = field(
        default=lambda T, X: _chunked_sup(T.points, X), repr=False)
    logz: Callable[["IndexSet", np.ndarray, float], tuple] = field(
        default=lambda T, X, beta: _chunked_logz(T.points, X, beta),
        repr=False)
    draw: Callable[["IndexSet", tuple, np.random.Generator],
                   np.ndarray] = field(default=_draw_blocks, repr=False)
    controls: Callable[["IndexSet", np.ndarray, object], list] = field(
        default=_radial, repr=False)
    distinct: bool = False

    @cached_property
    def points(self) -> np.ndarray:
        """The point matrix, built on first read and cached read-only;
        one over MAX_POINT_BYTES is refused before it is built."""
        _check_shape(self.cardinality, self.dim, built=True)
        pts = self.build()
        pts.setflags(write=False)
        return pts

    @property
    def log_cardinality(self) -> float:
        return math.log(self.cardinality)


def _draw_maxima(T: IndexSet, laws: tuple, rng) -> np.ndarray:
    """One column of maxima of T.dim coordinates per law, stacked, every
    law from one generator state: one V per replicate through each isf."""
    state, X = rng.bit_generator.state, []
    for law in laws:
        rng.bit_generator.state = state
        X.append(law.sample(rng, (SAMPLE_BLOCK, 1), max_of=T.dim))
    return np.array(X)


def _check_shape(cardinality: int, dim: int, built: bool) -> None:
    """Every cap, on a declared shape: 1..MAX_CARDINALITY points in 1..MAX_DIM
    dimensions and, if the points are ``built``, MAX_POINT_BYTES of them."""
    if cardinality < 1:
        raise ValueError("index set must contain at least one point")
    if cardinality > MAX_CARDINALITY:
        raise ValueError(f"cardinality {cardinality} exceeds cap {MAX_CARDINALITY}")
    if dim < 1:
        raise ValueError(f"dimension {dim} must be >= 1")
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} over cap {MAX_DIM}: one "
                         f"{SAMPLE_BLOCK}-row sample block takes "
                         f"{8 * SAMPLE_BLOCK * dim} bytes, over the budget "
                         f"of {MAX_POINT_BYTES}")
    nbytes = 8 * cardinality * dim
    if built and nbytes > MAX_POINT_BYTES:
        raise ValueError(f"{cardinality} x {dim} points take {nbytes} bytes, "
                         f"over the budget of {MAX_POINT_BYTES}")


def _declare(cardinality: int, dim: int, build, kind: str,
             distinct: bool = False, **kernels) -> IndexSet:
    """The one constructor: caps are checked on the declared shape, and
    the points are left to the first read.  ``kernels`` overrides the
    ``sup``, ``logz``, ``draw`` and ``controls`` defaults."""
    _check_shape(cardinality, dim, built=False)
    return IndexSet(cardinality, dim, build, kind, distinct=distinct,
                    **kernels)


def _finalize(points: np.ndarray, distinct: bool = False) -> IndexSet:
    """Declare an ``explicit`` set from an already built point matrix,
    checked against the byte budget and scanned for NaN and inf."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2d array, one point per row")
    T = _declare(*points.shape, lambda: points, "explicit", distinct=distinct)
    if not np.all(np.isfinite(T.points)):  # the read checks the budget
        raise ValueError("points must be finite")
    return T


def build_explicit(points) -> IndexSet:
    """Wrap an explicit list/array of points after validation."""
    arr = np.array(points, dtype=np.float64)
    if arr.ndim == 1:
        raise ValueError("points must be a 2d array, one point per row")
    return _finalize(arr)


def _tiled(kernel, points: np.ndarray, X: np.ndarray,
           cols: int | None = None, budget: int | None = None) -> list:
    """kernel(points, tile, buf) over row tiles of X, results in row order.

    A tile of r rows may hold r x cols float64 values in buf; cols defaults
    to min(len(points), POINT_CHUNK), the products of one chunk of points,
    and a caller that holds more blocks per tile (``softmax``'s Gibbs
    passes) says so.  A tile holds at most max(1, budget // (8 * cols))
    rows, so that its values fit the budget, TILE_BYTES unless the caller
    gives a smaller one (the split two-spin kernels, SPLIT_TILE_BYTES);
    the rows are split evenly among the tiles, so that of two or more
    tiles each holds half that or more: a lone trailing row would be
    multiplied by BLAS gemv, and a few rows by a small-matrix kernel, each
    of which sums in another order than the whole block's gemm.  The
    tiles follow from the shapes, cols and the budget alone, so the result
    does not depend on WORKERS; it is bitwise the untiled one but where a
    chunk's point count leaves a ragged gemm edge, whose products the last
    rows of each tile round by another path.  The tiles run in
    min(WORKERS, tiles) lanes, each with its own buffer, allocated on the
    calling thread, so the values held are at most WORKERS x TILE_BYTES;
    a lane takes the next tile not yet taken until none is left, so a
    pool task runs many small tiles.  The calling thread runs the first
    lane; with WORKERS > 1 the others run on the pool, each in its own
    copy of the caller's context: numpy keeps its errstate in a context
    variable, which pool threads do not inherit.  A lane's error is
    raised once every lane has stopped.
    """
    if cols is None:
        cols = min(points.shape[0], POINT_CHUNK)
    step = max(1, (budget or TILE_BYTES) // (8 * cols))
    count = max(1, -(-X.shape[0] // step))
    cuts = [X.shape[0] * i // count for i in range(count + 1)]
    tiles = [X[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    bufs = np.empty((min(WORKERS, count), -(-X.shape[0] // count) * cols))
    out, todo = [None] * count, queue.SimpleQueue()
    for i in [*range(count)] + [None] * len(bufs):
        todo.put(i)

    def lane(buf):
        # the queue hands each tile to one lane, then each lane a None
        for i in iter(todo.get, None):
            out[i] = kernel(points, tiles[i], buf)
    rest = [_POOL.submit(contextvars.copy_context().run, lane, buf)
            for buf in bufs[1:]]
    try:
        lane(bufs[0])
    finally:
        futures.wait(rest)
    for f in rest:
        f.result()
    return out


def _products(X: np.ndarray, chunk: np.ndarray,
              buf: np.ndarray) -> np.ndarray:
    """X @ chunk.T, written into the front of the flat buffer buf."""
    shape = (X.shape[0], chunk.shape[0])
    return np.matmul(X, chunk.T, out=buf[:shape[0] * shape[1]].reshape(shape))


def _sup_tile(points: np.ndarray, X: np.ndarray,
              buf: np.ndarray) -> np.ndarray:
    out = np.full(X.shape[0], -np.inf)
    for lo in range(0, points.shape[0], POINT_CHUNK):
        Z = _products(X, points[lo:lo + POINT_CHUNK], buf)
        np.maximum(out, Z.max(axis=1), out=out)
    return out


def _chunked_sup(points: np.ndarray, X: np.ndarray) -> np.ndarray:
    """max over rows t of points of <x, t>, for each row x of X; points go
    in POINT_CHUNK chunks, rows of X in _tiled's tiles."""
    return np.concatenate(_tiled(_sup_tile, points, X))


def _exp_block(Z: np.ndarray, beta: float) -> np.ndarray:
    """The max s along each row of a block of products Z, which becomes
    exp(beta (Z - s)) in place, the unnormalized Gibbs weights: the one exp
    body over a block of products."""
    s = Z.max(axis=1)
    Z -= s[:, None]
    Z *= beta
    np.exp(Z, out=Z)
    return s


def _fused_block(Z: np.ndarray, beta: float) -> tuple:
    """(max, log sum exp(beta Z)) along each row of a block of products Z,
    in place through _exp_block: the log sum is beta s + log sum Z."""
    s = _exp_block(Z, beta)
    return s, beta * s + np.log(Z.sum(axis=1))


def _logz_tile(points: np.ndarray, X: np.ndarray, buf: np.ndarray,
               beta: float) -> tuple:
    sups = np.full(X.shape[0], -np.inf)
    logz = np.full(X.shape[0], -np.inf)
    for lo in range(0, points.shape[0], POINT_CHUNK):
        s, z = _fused_block(_products(X, points[lo:lo + POINT_CHUNK], buf),
                            beta)
        np.maximum(sups, s, out=sups)
        np.logaddexp(logz, z, out=logz)
    return sups, logz


def _chunked_logz(points: np.ndarray, X: np.ndarray, beta: float) -> tuple:
    """(max_t <x, t>, log sum_t exp(beta <x, t>)) for each row x of X, over
    POINT_CHUNK chunks of points, each reduced in place by _fused_block and
    combined by np.maximum and np.logaddexp (the online-normalizer
    logsumexp), and over _tiled's row tiles of X: a tile holds one chunk of
    products at a time, and a set of one chunk gets the block's value
    exactly."""
    tiles = _tiled(partial(_logz_tile, beta=beta), points, X)
    return tuple(np.concatenate(part) for part in zip(*tiles))


BASIS_MODES = ("canonical", "signed", "negative-scaled")


def make_basis_family(n: int, mode: str = "canonical",
                      theta: float | None = None) -> IndexSet:
    """Basis-derived families: {e_i}, {+-e_i}, or {-theta e_i}.

    canonical        the n standard basis vectors
    signed           all 2n signed basis vectors (+e_i then -e_i)
    negative-scaled  {-theta e_i}, theta > 0 required
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in BASIS_MODES:
        raise ValueError(f"unknown basis mode {mode!r}; choose from {BASIS_MODES}")
    if theta is not None and mode != "negative-scaled":
        raise ValueError(f"theta is read only by mode=negative-scaled, not {mode}")
    if mode == "canonical":
        # one column of maxima; the sup's max over it passes it through
        return _declare(n, n, lambda: np.eye(n), "basis-canonical",
                        distinct=True, sup=lambda T, X: X.max(axis=1),
                        draw=_draw_maxima, controls=_no_controls)
    if mode == "signed":
        def signed():
            eye = np.eye(n)
            return np.vstack([eye, -eye])
        return _declare(2 * n, n, signed, "basis-signed", distinct=True,
                        sup=lambda T, X: np.abs(X).max(axis=1))
    # checked here: the points, built from theta, are never scanned
    if theta is None or not 0 < theta < math.inf:
        raise ValueError("negative-scaled mode requires a finite theta > 0")
    neg = -float(theta)
    return _declare(n, n, lambda: -theta * np.eye(n), "basis-negative-scaled",
                    distinct=True, sup=lambda T, X: (X * neg).max(axis=1))


def sign_patterns(n: int, count: int | None = None,
                  start: int = 0) -> np.ndarray:
    """``count`` sign vectors in {-1,+1}^n, lexicographic, from index ``start``.

    -1 sorts before +1 and the first coordinate is most significant,
    matching itertools.product((-1, 1), repeat=n).  ``count`` defaults to
    every vector from ``start`` on.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 1 << n
    if not 0 <= start < total:
        raise ValueError(f"start must be in [0, 2^{n})")
    if count is None:
        count = total - start
    if not 1 <= count <= total - start:
        raise ValueError(f"count must be in [1, 2^{n} - start]")
    idx = np.arange(start, start + count, dtype=np.uint64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return bits.astype(np.float64) * 2.0 - 1.0


def make_diagonal_cube(diag, k: int | None = None) -> IndexSet:
    """Points {(s_1 d_1, ..., s_n d_n)} for sign vectors s.

    ``diag`` is a strictly decreasing positive sequence d_1 > ... > d_n > 0.
    The sign vectors are the first 2^k in lexicographic order, or the full
    cube when k is omitted; the set's sup kernel relies on their leading
    n - k signs being -1.  Other sign vectors make an ``explicit`` set:
    ``build_explicit(signs * d)``.  ``diag`` is copied, so a later change
    to the caller's array reaches neither the points nor the kernel.
    """
    d = np.array(diag, dtype=np.float64)
    d.setflags(write=False)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("diag must be a 1d sequence")
    if not np.all((d > 0) & (d < math.inf)):
        raise ValueError("diag entries must be positive and finite")
    if np.any(np.diff(d) >= 0):
        raise ValueError("diag must be strictly decreasing")
    n = d.size
    if k is not None and not 0 <= k <= n:
        raise ValueError("k must be in [0, n]")
    free = n if k is None else k
    # before 2^free is formed: a huge one takes long even to print
    max_free = MAX_CARDINALITY.bit_length() - 1
    if free > max_free:
        raise ValueError(f"2^{free} sign vectors exceed the cardinality cap "
                         f"2^{max_free}; pass k <= {max_free}")
    count = 1 << free
    lo = n - free

    def sup(T, X):
        # sum_{free} d_i |x_i| - sum_{fixed} d_i x_i.  einsum, not a BLAS
        # gemv: its summation order, and so the result, must not depend on
        # the BLAS thread count
        return (np.einsum("ij,j->i", np.abs(X[:, lo:]), d[lo:])
                - np.einsum("ij,j->i", X[:, :lo], d[:lo]))

    def logz(T, X, beta):
        # the Gibbs measure is a product measure: with y = beta d x,
        # sum_{free} log(2 cosh y_i) - sum_{fixed} y_i, and
        # log(2 cosh y) = |y| + log1p(exp(-2|y|)); no matmul either
        y = np.abs(X[:, lo:]) * (beta * d[lo:])
        free = (y + np.log1p(np.exp(-2.0 * y))).sum(axis=1)
        return sup(T, X), free - np.einsum("ij,j->i", X[:, :lo],
                                           beta * d[:lo])

    # sum_{free} d_i, so that E sum_{free} d_i x_i^2 = E xi^2 free_mass
    free_mass = float(d[lo:].sum())

    def controls(T, X, law):
        # the free coordinates' weighted square sum_{free} d_i (x_i^2 -
        # E xi^2), which tracks sum_{free} d_i |x_i| where x^2 is not
        # constant, and the linear part of the sup; each of mean zero
        cols = []
        if free and law.fourth > law.variance ** 2:
            x = X[:, lo:]
            cols.append(np.einsum("ij,j->i", x * x, d[lo:])
                        - law.variance * free_mass)
        if lo:
            cols.append(np.einsum("ij,j->i", X[:, :lo], d[:lo]))
        return cols
    return _declare(count, n, lambda: sign_patterns(n, count) * d[None, :],
                    "diagonal-cube", distinct=True, sup=sup, logz=logz,
                    controls=controls)


def make_spin_quadratic(N: int, normalized: bool = False) -> IndexSet:
    """Index set of a two-spin interaction: rows t_sigma with entries
    sigma_i sigma_j over pairs i < j, one row per sigma in {-1,+1}^N.

    Equivalent to make_spin_tensor(N, 2, normalized).
    """
    return make_spin_tensor(N, 2, normalized)


def make_spin_tensor(N: int, m: int, normalized: bool = False) -> IndexSet:
    """Order-m spin interaction index set.

    One row per sigma in {-1,+1}^N; coordinates are the products
    sigma_{i_1} ... sigma_{i_m} over m-subsets i_1 < ... < i_m in
    lexicographic order.  Scaling: with ``normalized`` rows are multiplied
    by 1/(binom(N,m)^{1/2} N^{1/2}), giving row l2 norms exactly N^{-1/2};
    otherwise by N^{-(m+1)/2}, the energy-density scaling under which the
    Gaussian value converges as N grows.
    """
    if N < 2 or not 1 <= m <= N:
        raise ValueError(f"need N >= 2 and m in [1, N], got N={N}, m={m}")
    if (1 << N) > MAX_CARDINALITY:  # before math.comb, slow for a huge N
        raise ValueError("2^N exceeds the cardinality cap")
    card, dim = 1 << N, math.comb(N, m)
    # the points' budget, checked here: the split two-spin kernels read no
    # points, but the profile, the CSV writer and the Gibbs passes do
    _check_shape(card, dim, built=True)
    if normalized:
        scale = 1.0 / (math.sqrt(dim) * math.sqrt(N))
    else:
        scale = N ** (-(m + 1) / 2.0)

    # a builder, so the byte budget is checked before np.empty allocates
    def build():
        S = sign_patterns(N)
        pts = np.empty((card, dim))
        for c, combo in enumerate(itertools.combinations(range(N), m)):
            pts[:, c] = S[:, combo].prod(axis=1)
        pts *= scale
        return pts

    if m == 2:
        sup, logz = _split_kernels(N, scale)
        return _declare(card, dim, build, "spin-quadratic", sup=sup,
                        logz=logz, controls=_cycle_controls(N))
    if m % 2 == 0:
        return _declare(card, dim, build, "spin-tensor", sup=_half_orbit_sup,
                        logz=_half_orbit_logz)
    # for odd m < N distinct sigma give distinct rows; m = N gives two rows
    return _declare(card, dim, build, "spin-tensor", distinct=m < N)


def _cycle_controls(N: int):
    """The controls of a two-spin set on N spins: the radial one, the
    triangle sum sum_{i<j<k} x_ij x_jk x_ik and, from four spins on, the
    4-cycle sum over distinct i, j, k, l, each of mean zero for any
    independent mean-zero coordinates.  The sup is invariant under the
    gauge map x_ij -> s_i s_j x_ij, and these are the gauge-invariant
    products of fewest couplings.  A[i, j] holds x_ij of every row, rows
    innermost, gathered from the transposed block padded by a zero row
    (pairs in the points' lexicographic order; the index is built here,
    once per set).  With A the symmetric coupling matrix of a row, one
    einsum per spin a gives the row (A^2)_{a, k >= a}, whose diagonal
    entry is d_a = sum_j x_aj^2; then the triangle sum is tr A^3 / 6 =
    sum_{a<k} (A^2)_ak x_ak / 3, and the 4-cycle sum is (tr A^4 - 2 sum_a
    d_a^2 + 2 sum_e x_e^4) / 8, the closed walks of length 4 less those
    that step back, with tr A^4 = sum_a d_a^2 + 2 sum_{a<k} (A^2)_ak^2.
    No BLAS call, so nothing depends on the BLAS thread count.  Two spins
    have no cycle: the radial control alone."""
    if N < 3:
        return _radial
    i, j = np.triu_indices(N, 1)
    gather = np.full(N * N, i.size)
    gather[i * N + j] = gather[j * N + i] = np.arange(i.size)

    def controls(T, X, law):
        rows = X.shape[0]
        A = np.concatenate([X.T, np.zeros((1, rows))])[gather]
        A = A.reshape(N, N, rows)
        # sum_{a<k} (A^2)_ak x_ak, sum_{a<k} (A^2)_ak^2 and sum_a d_a^2
        tri, off, diag = np.zeros((3, rows))
        for a in range(N):
            row = np.einsum("jr,jkr->kr", A[a], A[:, a:])
            diag += row[0] * row[0]
            tri += np.einsum("kr,kr->r", row[1:], A[a, a + 1:])
            off += np.einsum("kr,kr->r", row[1:], row[1:])
        cols = _radial(T, X, law) + [tri / 3.0]
        if N >= 4:
            sq = X * X
            cols.append((2.0 * off - diag
                         + 2.0 * np.einsum("ij,ij->i", sq, sq)) / 8.0)
        return cols
    return controls


def _split_kernels(N: int, scale: float) -> tuple:
    """The sup and logz of a two-spin set on N spins, by split spins (meet
    in the middle: Horowitz and Sahni, J. ACM 21(2), 1974).  The energy of
    sigma = (a, b), a the first nA spins and b the other nB, is E_a(a) +
    E_b(b) + sum_i a_i G_i(b) with G_i(b) = sum_j x_ij b_j.  Spin 1 is held
    at -1, so the 2^(nA-1) a's and 2^nB b's run over the half orbit, which
    holds every distinct row.  A row tile of r rows takes G_i and G_nA =
    E_b from two small gemms, and its 2^nB x r x 2^(nA-1) energies from
    one more, G^T [S_A | 1]^T, of inner dimension nA + 1, not binom(N, 2).
    b is outermost, so the max and the sum over b run over contiguous rows
    of r 2^(nA-1) values; E_a is added after them.  The energies are of
    the unscaled couplings, so on +-1 draws they are exact integers and a
    sup is the correctly rounded integer times the scale, applied once at
    the end.  The split, nA = max(1, (N - 2) // 2), and SPLIT_TILE_BYTES
    are from a sweep at N = 12 and 14.  No sum runs across the rows of a
    tile or over more than binom(nB, 2) terms, so nothing depends on the
    BLAS thread count.  The tables are built here, once per set; neither
    kernel reads T.points."""
    nA = max(1, (N - 2) // 2)
    nB = N - nA
    col = {pair: c for c, pair in
           enumerate(itertools.combinations(range(N), 2))}
    aa = [col[p] for p in itertools.combinations(range(nA), 2)]
    # the a-b couplings, a-spin major, then the b-b ones
    gather = ([col[i, j] for i in range(nA) for j in range(nA, N)]
              + [col[p] for p in itertools.combinations(range(nA, N), 2)])
    SA = sign_patterns(nA)[:1 << (nA - 1)]  # a_1 = -1
    SB = sign_patterns(nB)

    def pairs(S):
        # sigma_i sigma_j, one row per pair i < j of one side's spins
        return np.array([S[:, i] * S[:, j] for i, j in
                         itertools.combinations(range(S.shape[1]), 2)]
                        ).reshape(-1, len(S))
    SA1t = np.vstack([SA.T, np.ones(len(SA))])
    PAt, PB = pairs(SA), pairs(SB).T.copy()
    na, nb, k = len(SA), len(SB), len(gather)
    cols = (nA + 1 + na) * nb

    def energies(Z, buf):
        # (nb, r na) energies E_b + sum_i a_i G_i, and (r, na) E_a, from a
        # tile of the rows that run gathers
        r, ZT = Z.shape[0], Z.T
        G = buf[:(nA + 1) * nb * r].reshape(nA + 1, nb, r)
        E = buf[(nA + 1) * nb * r:cols * r].reshape(nb * r, na)
        np.matmul(SB, ZT[:nA * nB].reshape(nA, nB, r), out=G[:nA])
        np.matmul(PB, ZT[nA * nB:k], out=G[nA])
        np.matmul(G.reshape(nA + 1, nb * r).T, SA1t, out=E)
        return E.reshape(nb, r * na), Z[:, k:]

    def sup_tile(_, Z, buf):
        E, Ea = energies(Z, buf)
        return (E.max(axis=0).reshape(Ea.shape) + Ea).max(axis=1)

    def logz_tile(_, Z, buf, beta):
        # beta of the unscaled energies; the max over b, then over a, each
        # through _exp_block, so the sups are sup_tile's
        E, Ea = energies(Z, buf)
        M = _exp_block(E.T, beta).reshape(Ea.shape) + Ea
        w = E.sum(axis=0).reshape(Ea.shape)
        s = _exp_block(M, beta)
        return s, np.log(np.einsum("ra,ra->r", M, w))

    def run(tile, X):
        # the a-b and b-b couplings and E_a of every row, gathered once per
        # block rather than once per tile
        Z = np.concatenate([X[:, gather], X[:, aa] @ PAt], axis=1)
        return _tiled(tile, None, Z, cols, SPLIT_TILE_BYTES)

    def sup(T, X):
        return np.concatenate(run(sup_tile, X)) * scale

    def logz(T, X, beta):
        tiles = run(partial(logz_tile, beta=beta * scale), X)
        s, z = (np.concatenate(part) for part in zip(*tiles))
        sups = s * scale
        return sups, beta * sups + z + math.log(2.0)
    return sup, logz


def _half_orbit_sup(T: IndexSet, X: np.ndarray) -> np.ndarray:
    """Sup over a spin set of even order m >= 4: rows sigma and -sigma
    coincide, and the first half (sigma_1 = -1) holds every distinct row.
    A two-spin set splits its spins instead (``_split_kernels``)."""
    return _chunked_sup(T.points[:T.cardinality // 2], X)


def _half_orbit_logz(T: IndexSet, X: np.ndarray, beta: float) -> tuple:
    """logz over a spin set of even order m >= 4: the sum over the first
    half, plus log 2; the sups are _half_orbit_sup's."""
    sups, logz = _chunked_logz(T.points[:T.cardinality // 2], X, beta)
    return sups, logz + math.log(2.0)


@dataclass(frozen=True)
class GeometricProfile:
    """Norm profile of an index set.

    r2/r3/r4/rinf are sup_t of the l2/l3/l4/linf norms of the points;
    col3/col4 are the lp norms of the coordinate-wise max-abs vector
    (max_t |t_i|)_i; u1 = (r4/rinf)^4 and u2 = (r2/rinf)^2 end the window:
    there the fourth-moment and sup-norm bound curves cross, and the trivial
    and mixed ones; log_cardinality uses the declared (multiset) cardinality.
    """

    r2: float
    r3: float
    r4: float
    rinf: float
    col3: float
    col4: float
    u1: float
    u2: float
    log_cardinality: float


def geometric_profile(T: IndexSet) -> GeometricProfile:
    """Compute the norm profile of T (duplicates do not affect it)."""
    a = np.abs(T.points)
    r2 = float(np.sqrt((a ** 2).sum(axis=1).max()))
    r3 = float(np.cbrt((a ** 3).sum(axis=1).max()))
    r4 = float(((a ** 4).sum(axis=1).max()) ** 0.25)
    rinf = float(a.max())
    colmax = a.max(axis=0)
    col3 = float(((colmax ** 3).sum()) ** (1.0 / 3.0))
    col4 = float(((colmax ** 4).sum()) ** 0.25)
    if rinf == 0.0:
        u1 = u2 = 0.0
    else:
        u1 = (r4 / rinf) ** 4
        u2 = (r2 / rinf) ** 2
    return GeometricProfile(r2, r3, r4, rinf, col3, col4, u1, u2,
                            T.log_cardinality)


def save_csv(T: IndexSet, path) -> None:
    """Write T to CSV: header ``dim,cardinality``, its values, then one
    point per row at 17 significant digits (lossless for float64)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("dim,cardinality\n")
        fh.write(f"{T.dim},{T.cardinality}\n")
        for row in T.points:
            fh.write(",".join(format(v, ".17g") for v in row))
            fh.write("\n")


def load_csv(path) -> IndexSet:
    """Read an index set written by save_csv; validates the metadata header."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "dim,cardinality":
            raise ValueError(f"bad header {header!r}, expected 'dim,cardinality'")
        meta = fh.readline().strip().split(",")
        if len(meta) != 2:
            raise ValueError("metadata row must be 'dim,cardinality' values")
        dim, card = int(meta[0]), int(meta[1])
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (card, dim):
        raise ValueError(f"data shape {rows.shape} does not match metadata ({card}, {dim})")
    return _finalize(rows)


def dedupe(T: IndexSet) -> IndexSet:
    """Distinct points of T (sup-invariant reduction); T itself when its
    rows are distinct by construction or turn out distinct."""
    if T.distinct:
        return T
    uniq = np.unique(T.points, axis=0)
    if uniq.shape[0] == T.cardinality:
        return T
    return _finalize(uniq, distinct=True)


def scale(T: IndexSet, c: float) -> IndexSet:
    """The set c*T as an ``explicit`` set; structure tags are dropped."""
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    return _finalize(T.points * c)
