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

Every set carries two kernels as fields.  ``sup(T, X)`` is the max over
rows t of <x, t> for each row x of X; ``logz(T, X, beta)`` is the pair
(sup, log sum_t exp(beta <x, t>)) per row, the one entry through which
``softmax`` evaluates every smoothed maximum beta F_beta.  Their defaults
are the generic kernels, ``_chunked_sup`` and ``_chunked_logz`` over every
declared row of ``T.points`` in POINT_CHUNK chunks; a structured set's
constructor overrides them.  Basis families override only ``sup``, which
never touches the points; a diagonal cube closes over its diagonal and
free sign count (its Gibbs measure is a product measure, so its log
partition is a sum of log 2 cosh terms), and a spin set of even order runs
the matmul over its distinct half.  Every logz but the cube's closed form,
and every Gibbs weight in ``softmax``, exponentiates its block of products
in place through one body, ``_fused_block``.  A kernel receives the set
rather than capturing it, so a set holds no reference to itself and is
freed with its last reference.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

MAX_CARDINALITY = 2 ** 22
# bytes of a built point matrix (8 * cardinality * dim)
MAX_POINT_BYTES = 2 ** 31
POINT_CHUNK = 16384
SAMPLE_BLOCK = 1024
# the largest dimension whose block of draws fits the byte budget
MAX_DIM = MAX_POINT_BYTES // (8 * SAMPLE_BLOCK)


@dataclass(frozen=True, eq=False)
class IndexSet:
    """A finite set of points in R^n, one point per row of ``points``.

    ``cardinality`` and ``dim`` are the declared shape; ``build`` returns
    the point matrix, and ``points`` calls it once, on first read.
    ``kind`` labels the construction; ``explicit`` means no structure is
    assumed.  ``sup`` is the exact sup kernel ``(T, X) -> sups`` and
    ``logz`` the log-partition kernel ``(T, X, beta) -> (sups, log sum_t
    exp(beta <x, t>))``; both default to the generic chunked matmul over
    every declared row, and a constructor overrides them.
    ``distinct`` is true when the construction guarantees distinct rows, so
    ``dedupe`` has nothing to remove.
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
    ``sup`` and ``logz`` defaults."""
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


def _chunked_sup(points: np.ndarray, X: np.ndarray) -> np.ndarray:
    """max over rows t of points of <x, t>, for each row x of X; points go
    in POINT_CHUNK chunks."""
    out = np.full(X.shape[0], -np.inf)
    for lo in range(0, points.shape[0], POINT_CHUNK):
        np.maximum(out, (X @ points[lo:lo + POINT_CHUNK].T).max(axis=1),
                   out=out)
    return out


def _fused_block(Z: np.ndarray, beta: float) -> tuple:
    """(max, log sum exp(beta Z)) along each row of a block of products Z,
    in place: with s the row max, Z becomes exp(beta (Z - s)), the
    unnormalized Gibbs weights, and the log sum is beta s + log sum Z."""
    s = Z.max(axis=1)
    Z -= s[:, None]
    Z *= beta
    np.exp(Z, out=Z)
    return s, beta * s + np.log(Z.sum(axis=1))


def _chunked_logz(points: np.ndarray, X: np.ndarray, beta: float) -> tuple:
    """(max_t <x, t>, log sum_t exp(beta <x, t>)) for each row x of X, over
    POINT_CHUNK chunks of points, each reduced in place by _fused_block and
    combined by np.maximum and np.logaddexp (the online-normalizer
    logsumexp): one chunk of products is held at a time, and a set of one
    chunk gets the block's value exactly."""
    sups = np.full(X.shape[0], -np.inf)
    logz = np.full(X.shape[0], -np.inf)
    for lo in range(0, points.shape[0], POINT_CHUNK):
        s, z = _fused_block(X @ points[lo:lo + POINT_CHUNK].T, beta)
        np.maximum(sups, s, out=sups)
        np.logaddexp(logz, z, out=logz)
    return sups, logz


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
        return _declare(n, n, lambda: np.eye(n), "basis-canonical",
                        distinct=True, sup=lambda T, X: X.max(axis=1))
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
    return _declare(count, n, lambda: sign_patterns(n, count) * d[None, :],
                    "diagonal-cube", distinct=True, sup=sup, logz=logz)


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
    _check_shape(card, dim, built=True)  # every kernel reads the points
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

    kind = "spin-quadratic" if m == 2 else "spin-tensor"
    if m % 2 == 0:
        return _declare(card, dim, build, kind, sup=_half_orbit_sup,
                        logz=_half_orbit_logz)
    # for odd m < N distinct sigma give distinct rows; m = N gives two rows
    return _declare(card, dim, build, kind, distinct=m < N)


def _half_orbit_sup(T: IndexSet, X: np.ndarray) -> np.ndarray:
    """Sup over an even-order spin set: rows sigma and -sigma coincide, and
    the first half (sigma_1 = -1) holds every distinct row."""
    return _chunked_sup(T.points[:T.cardinality // 2], X)


def _half_orbit_logz(T: IndexSet, X: np.ndarray, beta: float) -> tuple:
    """logz over an even-order spin set: the sum over the first half, plus
    log 2; the sups are _half_orbit_sup's."""
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
