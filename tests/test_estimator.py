import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import logsumexp

from supcompare import distributions as dists
from supcompare import estimator as est
from supcompare import index_sets as isets
from supcompare import softmax as sm
from test_golden_csv import EXPLICIT_POINTS

SQRT_2_OVER_PI = 0.7978845608028654  # E|g| for standard Gaussian


def exact_sup(T, x):
    """max_t <x, t> at one x, through the set's sup kernel."""
    return float(T.sup(T, np.asarray(x)[None, :])[0])


def test_exact_sup_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pts = rng.standard_normal((8, 5))
        T = isets.build_explicit(pts)
        x = rng.standard_normal(5)
        assert exact_sup(T, x) == float((pts @ x).max())


def test_exact_sup_monotone_under_nesting():
    rng = np.random.default_rng(1)
    for _ in range(30):
        pts = rng.standard_normal((10, 4))
        small = isets.build_explicit(pts[:5])
        big = isets.build_explicit(pts)
        x = rng.standard_normal(4)
        assert exact_sup(small, x) <= exact_sup(big, x)


def test_exact_sup_scale_equivariance():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((6, 3))
    T = isets.build_explicit(pts)
    x = rng.standard_normal(3)
    base = exact_sup(T, x)
    for c in (0.5, 2.0, 4.0):
        # powers of two scale exactly in floating point
        assert exact_sup(isets.scale(T, c), x) == c * base
    for c in (1.7, 0.3):
        assert exact_sup(isets.scale(T, c), x) == pytest.approx(
            c * base, rel=1e-12)


def test_estimate_is_deterministic():
    T = isets.make_basis_family(6)
    s = dists.RandomStream(77).substream("run")
    a = est.estimate_complexity(T, dists.gaussian(), 3000, s)
    b = est.estimate_complexity(T, dists.gaussian(), 3000, s)
    assert a == b
    c = est.estimate_complexity(T, dists.gaussian(), 3000,
                                dists.RandomStream(78).substream("run"))
    assert a.mean != c.mean


def test_basis_estimate_builds_no_points():
    # the 1024 x 16384 sample block alone is 128 MiB; an identity of
    # either size would add 2 GiB or 512 GiB
    tracemalloc.start()
    try:
        isets.make_basis_family(isets.MAX_DIM)
        T = isets.make_basis_family(16384)
        est.estimate_complexity(T, dists.gaussian(), 100,
                                dists.RandomStream(4).substream("lazy"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2 ** 20
    assert "points" not in vars(T)
    with pytest.raises(ValueError, match="sample block"):
        isets.make_basis_family(isets.MAX_DIM + 1)


def test_replicate_underflow():
    T = isets.make_basis_family(3)
    with pytest.raises(ValueError):
        est.estimate_complexity(T, dists.gaussian(), 99, dists.RandomStream(0))


def _two_spin_within(n):
    """The largest two-spin set whose dimension binom(N, 2) is <= n."""
    return isets.make_spin_quadratic((1 + math.isqrt(1 + 8 * n)) // 2)


def _cube_diag(n):
    return np.arange(1, n + 1.0) ** -0.25


# one case per kind of set whose constructor declares a sup kernel, in
# exactly one of two tables.  KERNEL_CASES holds kernels bitwise equal to
# the matmul path: (constructor of a set of that kind in dimension <= n,
# its exact Rademacher complexity at n, or None when it has no closed form)
KERNEL_CASES = {
    "basis-canonical": (lambda n: isets.make_basis_family(n),
                        lambda n: 1.0 - 2.0 ** (1 - n)),
    "basis-signed": (lambda n: isets.make_basis_family(n, "signed"),
                     lambda n: 1.0),
    "basis-negative-scaled": (
        lambda n: isets.make_basis_family(n, "negative-scaled", 1.7),
        lambda n: 1.7 * (1.0 - 2.0 ** (1 - n))),
    "spin-quadratic": (_two_spin_within, None),
    "spin-tensor": (lambda n: isets.make_spin_tensor(6, 4), None),
}

# CLOSED_FORM_CASES holds closed forms, equal to the matmul path up to
# rounding: (constructor of a set of that kind from n and k, its exact
# Rademacher complexity at n and k)
CLOSED_FORM_CASES = {
    "diagonal-cube": (
        lambda n, k: isets.make_diagonal_cube(_cube_diag(n), k=k),
        lambda n, k: float(_cube_diag(n)[n - k:].sum())),
}


def families(tmp_path):
    """One small set from every constructor and mode, built afresh."""
    d = [1.0, 0.5, 0.25]
    explicit = isets.build_explicit([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    isets.save_csv(explicit, tmp_path / "set.csv")
    return ([isets.make_basis_family(4, mode, 1.5 if mode == "negative-scaled"
                                     else None) for mode in isets.BASIS_MODES]
            + [isets.make_diagonal_cube(d), isets.make_diagonal_cube(d, k=2),
               isets.make_spin_quadratic(4), isets.make_spin_tensor(4, 3),
               isets.make_spin_tensor(5, 4), explicit,
               isets.dedupe(explicit), isets.scale(explicit, 2.0),
               isets.load_csv(tmp_path / "set.csv")])


def test_declaring_builds_no_points(tmp_path):
    # only points from outside the package are read, to be scanned
    for T in families(tmp_path):
        assert ("points" in vars(T)) == (T.kind == "explicit")


def test_every_kernel_has_exactly_one_case(tmp_path):
    declared = {T.kind for T in families(tmp_path)
                if T.sup is not isets.IndexSet.sup}
    assert not set(KERNEL_CASES) & set(CLOSED_FORM_CASES)
    assert set(KERNEL_CASES) | set(CLOSED_FORM_CASES) == declared


def test_every_set_carries_callable_kernels(tmp_path):
    for T in families(tmp_path):
        assert callable(T.sup) and callable(T.logz)


def test_no_estimate_reaches_unique(monkeypatch):
    # the generic kernels run over every declared row: a repeated row
    # changes no sup, so no estimate dedupes first
    T = isets.build_explicit(EXPLICIT_POINTS)
    D = isets.dedupe(T)
    assert D.cardinality < T.cardinality

    def unique(*args, **kwargs):
        raise AssertionError("np.unique reached from an estimate")
    monkeypatch.setattr(isets.np, "unique", unique)
    stream = dists.RandomStream(3).substream("no-unique")
    law = dists.laplace(True)
    assert (est.estimate_complexity(T, law, 300, stream).mean
            == est.estimate_complexity(D, law, 300, stream).mean)
    assert (est.paired_gap_estimate(T, law, 300, stream).mean
            == est.paired_gap_estimate(D, law, 300, stream).mean)
    assert (est.exact_rademacher_complexity(T).mean
            == est.exact_rademacher_complexity(D).mean)
    slack = est.softmax_complexity(T, law, 0.7, 300, stream)[2]
    assert slack >= -est.BRACKET_TOL


def test_generic_sup_holds_no_copy_of_the_points():
    # 2^20 x 16 points take 128 MiB; at 100 replicates the estimate holds
    # one 100 x POINT_CHUNK block of products (12.5 MiB) and no copy of
    # the points
    rng = np.random.default_rng(23)
    T = isets.build_explicit(rng.standard_normal((1 << 20, 16)))
    stream = dists.RandomStream(4).substream("big-explicit")
    tracemalloc.start()
    try:
        est.estimate_complexity(T, dists.gaussian(), 100, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_sets_are_freed_without_the_cycle_collector(tmp_path):
    # a stored kernel that captured its own set would make a cycle
    # T -> sup -> T, and the set would wait for the cyclic GC
    gc.disable()
    try:
        sets = families(tmp_path)
        for T in sets:
            T.points
            T.sup(T, np.ones((8, T.dim)))
            sm._smoothed_max_rows(T, 1.0, np.ones((8, T.dim)))
        refs = [weakref.ref(T) for T in sets]
        del sets, T
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_diagonal_cube_copies_its_diagonal():
    d = _cube_diag(6)
    T = isets.make_diagonal_cube(d, k=3)
    pts = T.points.copy()
    X = np.random.default_rng(11).standard_normal((200, 6))
    sups = T.sup(T, X)
    d *= 2.0
    assert np.array_equal(T.points, pts)
    assert np.array_equal(T.sup(T, X), sups)


def test_fast_paths_match_generic_bitwise():
    stream = dists.RandomStream(5).substream("fast")
    for kind in KERNEL_CASES:
        T = KERNEL_CASES[kind][0](7)
        assert T.kind == kind
        G = isets.build_explicit(T.points)  # same points, no structure tag
        X = np.random.default_rng(3).standard_normal((300, T.dim))
        assert np.array_equal(T.sup(T, X), G.sup(G, X))
        a = est.estimate_complexity(T, dists.uniform_symmetric(), 2000, stream)
        b = est.estimate_complexity(G, dists.uniform_symmetric(), 2000, stream)
        assert a.mean == b.mean and a.std_error == b.std_error
        a = est.paired_gap_estimate(T, dists.laplace(True), 1500, stream)
        b = est.paired_gap_estimate(G, dists.laplace(True), 1500, stream)
        assert a == b


@pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
def test_exact_rademacher_over_chunks_matches_matmul_path(kind):
    n = 16
    build, exact = KERNEL_CASES[kind]
    T = build(n)
    # the enumeration spans several chunks: 4 for basis sets, 2 for the
    # spin sets of dimension 15
    assert 1 << T.dim >= 2 * est.POINT_CHUNK
    r = est.exact_rademacher_complexity(T)
    assert r == est.exact_rademacher_complexity(isets.build_explicit(T.points))
    if exact is not None:
        assert r.mean == pytest.approx(exact(n), rel=1e-15)
    if kind == "basis-canonical":
        assert r.mean == exact(n)


@pytest.mark.parametrize("kind", sorted(CLOSED_FORM_CASES))
@pytest.mark.parametrize("n,k", [(7, 0), (7, 3), (7, 7), (20, 14),
                                 (10_001, 3)])
def test_closed_form_kernels_match_matmul_path(kind, n, k):
    T = CLOSED_FORM_CASES[kind][0](n, k)
    assert T.kind == kind
    G = isets.build_explicit(T.points)
    colmax = np.abs(T.points).max(axis=0)
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(n + k)
    for X in (rng.standard_normal((300, n)),
              rng.choice([-1.0, 1.0], size=(300, n))):
        a, b = T.sup(T, X), G.sup(G, X)
        # rounding of two length-n sums of terms |x_i| max_t |t_i|
        assert np.all(np.abs(a - b) <= 8 * n * eps * (np.abs(X) @ colmax))
    stream = dists.RandomStream(5).substream("closed")
    a = est.estimate_complexity(T, dists.uniform_symmetric(), 1100, stream)
    b = est.estimate_complexity(G, dists.uniform_symmetric(), 1100, stream)
    assert a.mean == pytest.approx(b.mean, rel=1e-12)
    assert a.std_error == pytest.approx(b.std_error, rel=1e-9)
    a = est.paired_gap_estimate(T, dists.laplace(True), 1100, stream)
    b = est.paired_gap_estimate(G, dists.laplace(True), 1100, stream)
    assert a.mean == pytest.approx(b.mean, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kind", sorted(CLOSED_FORM_CASES))
@pytest.mark.parametrize("k", [0, 3, 16])
def test_closed_form_exact_rademacher_over_chunks(kind, k):
    n = 16
    assert 1 << n == 4 * est.POINT_CHUNK  # the enumeration spans 4 chunks
    build, exact = CLOSED_FORM_CASES[kind]
    r = est.exact_rademacher_complexity(build(n, k))
    assert r.mean == pytest.approx(exact(n, k), rel=1e-14)


# one case per kind of set whose constructor declares a log-partition
# kernel logz: a constructor of small sets of that kind
LOGZ_CASES = {
    "spin-quadratic": lambda: [isets.make_spin_quadratic(N) for N in (2, 7)],
    "spin-tensor": lambda: [isets.make_spin_tensor(6, 4),
                            isets.make_spin_tensor(4, 4)],
    "diagonal-cube": lambda: [
        isets.make_diagonal_cube(_cube_diag(7), k) for k in (0, 3, None)]
        + [isets.make_diagonal_cube(_cube_diag(20), k=14)],
}


def test_every_logz_kernel_has_a_case(tmp_path):
    declared = {T.kind for T in families(tmp_path)
                if T.logz is not isets.IndexSet.logz}
    assert set(LOGZ_CASES) == declared


@pytest.mark.parametrize("kind", sorted(LOGZ_CASES))
def test_logz_kernels_match_generic_path(kind):
    rng = np.random.default_rng(len(kind))
    for T in LOGZ_CASES[kind]():
        assert T.kind == kind
        G = isets.build_explicit(T.points)  # no structure tag
        for X in (rng.standard_normal((300, T.dim)),
                  rng.choice([-1.0, 1.0], size=(300, T.dim))):
            for beta in (0.3, 2.0, 40.0, 300.0):
                sups, F = sm._smoothed_max_rows(T, beta, X)
                gsups, gF = sm._smoothed_max_rows(G, beta, X)
                assert np.array_equal(sups, T.sup(T, X))
                # relative to |F| or to the size of the products
                scale = np.maximum(np.abs(gF), np.abs(X) @ np.abs(
                    T.points).max(axis=0))
                assert np.all(np.abs(sups - gsups) <= 1e-13 * scale)
                assert np.all(np.abs(F - gF) <= 1e-13 * scale)
                offset = T.log_cardinality / beta
                slack = np.minimum(F - sups, sups + offset - F)
                assert slack.min() >= -est.BRACKET_TOL


def test_generic_logz_over_chunks_matches_one_shot():
    rng = np.random.default_rng(21)
    T = isets.build_explicit(rng.standard_normal((2 * est.POINT_CHUNK + 5, 3)))
    X = rng.standard_normal((40, 3))
    Z = X @ T.points.T
    for beta in (0.5, 8.0):
        sups, F = sm._smoothed_max_rows(T, beta, X)
        assert np.array_equal(sups, isets._chunked_sup(T.points, X))
        np.testing.assert_allclose(F, logsumexp(beta * Z, axis=1) / beta,
                                   rtol=1e-13, atol=0)


def test_generic_logz_holds_one_chunk_of_products():
    # the products with all 16 chunks of T would take 16 chunk sizes; one
    # chunk at a time, reduced in place, takes one
    rng = np.random.default_rng(22)
    T = isets.build_explicit(rng.standard_normal((16 * est.POINT_CHUNK, 2)))
    X = rng.standard_normal((32, 2))
    chunk_bytes = 8 * X.shape[0] * est.POINT_CHUNK
    tracemalloc.start()
    try:
        sm._smoothed_max_rows(T, 1.0, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * chunk_bytes


def test_basis_softmax_over_the_point_budget_is_refused():
    # a basis set declares no logz: its soft-max reads the points, whose
    # byte budget refuses them before any product is formed
    n = 20000
    assert 8 * n * n > isets.MAX_POINT_BYTES
    T = isets.make_basis_family(n, "signed")
    with pytest.raises(ValueError, match="over the budget"):
        sm._smoothed_max_rows(T, 1.0, np.ones((2, n)))


def test_diagonal_cube_gaussian_value():
    # E sup = sum_{free} d_i E|g_i| - sum_{fixed} d_i E g_i
    n, k = 20, 14
    T = CLOSED_FORM_CASES["diagonal-cube"][0](n, k)
    mc = est.estimate_complexity(T, dists.gaussian(), 20000,
                                 dists.RandomStream(125).substream("cube"))
    expected = SQRT_2_OVER_PI * float(_cube_diag(n)[n - k:].sum())
    assert abs(mc.mean - expected) <= 5.0 * mc.std_error


def test_explicit_sign_cube_takes_matmul_path():
    n = 6
    d = _cube_diag(n)
    # the last four sign vectors: not the prefix the closed form assumes
    T = isets.build_explicit(isets.sign_patterns(n)[-4:] * d)
    assert T.kind == "explicit"
    X = np.random.default_rng(8).standard_normal((300, n))
    sups = T.sup(T, X)
    assert np.array_equal(sups, (X @ T.points.T).max(axis=1))
    prefix = np.abs(X[:, n - 2:]) @ d[n - 2:] - X[:, :n - 2] @ d[:n - 2]
    assert not np.allclose(sups, prefix)


@pytest.mark.parametrize("N", [2, 3, 7, 12])
@pytest.mark.parametrize("normalized", [False, True])
def test_two_spin_half_orbit(N, normalized):
    T = isets.make_spin_quadratic(N, normalized)
    # row sigma equals row -sigma, the complement of its index
    assert np.array_equal(T.points, T.points[::-1])
    half = T.points[:T.cardinality // 2]
    assert np.unique(half, axis=0).shape[0] == half.shape[0]
    rng = np.random.default_rng(N)
    for X in (rng.standard_normal((500, T.dim)),
              rng.choice([-1.0, 1.0], size=(500, T.dim))):
        assert np.array_equal(T.sup(T, X),
                              isets._chunked_sup(T.points, X))


def test_duplicates_do_not_change_estimates():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((5, 4))
    T = isets.build_explicit(pts)
    D = isets.build_explicit(np.vstack([pts, pts[2:], pts[:1]]))
    stream = dists.RandomStream(9).substream("dup")
    a = est.estimate_complexity(T, dists.gaussian(), 1500, stream)
    b = est.estimate_complexity(D, dists.gaussian(), 1500, stream)
    assert a.mean == b.mean


def test_exact_rademacher_basis_identity():
    for n in range(2, 11):
        T = isets.make_basis_family(n)
        r = est.exact_rademacher_complexity(T)
        assert r.mean == 1.0 - 2.0 ** (1 - n)
        assert r.std_error == 0.0
        assert r.replicates == 2 ** n


def test_exact_rademacher_brute_force():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((6, 4))
    T = isets.build_explicit(pts)
    r = est.exact_rademacher_complexity(T)
    total = 0.0
    for mask in range(16):
        x = np.array([1.0 if mask & (1 << (3 - j)) else -1.0 for j in range(4)])
        total += float((pts @ x).max())
    assert r.mean == pytest.approx(total / 16.0, abs=1e-12)


def test_exact_rademacher_dimension_cap():
    pts = np.zeros((2, 23))
    pts[1, 0] = 1.0
    with pytest.raises(ValueError):
        est.exact_rademacher_complexity(isets.build_explicit(pts))


def test_mc_matches_exact_enumeration():
    T = isets.make_basis_family(10)
    exact = est.exact_rademacher_complexity(T).mean
    mc = est.estimate_complexity(T, dists.rademacher(), 200000,
                                 dists.RandomStream(123).substream("mc"))
    assert abs(mc.mean - exact) <= 5.0 * mc.std_error


def test_gaussian_halfline_value():
    # E sup over {+-e_1} is E|g| = sqrt(2/pi)
    T = isets.make_basis_family(1, "signed")
    mc = est.estimate_complexity(T, dists.gaussian(), 200000,
                                 dists.RandomStream(124).substream("halfline"))
    assert abs(mc.mean - SQRT_2_OVER_PI) <= 5.0 * mc.std_error


def test_softmax_complexity_bracket():
    T = isets.make_basis_family(5)
    stream = dists.RandomStream(10).substream("soft")
    soft, offset, slack = est.softmax_complexity(T, dists.gaussian(), 2.0,
                                                 2000, stream)
    assert offset == pytest.approx(math.log(5) / 2.0)
    assert slack >= -est.BRACKET_TOL
    plain = est.estimate_complexity(T, dists.gaussian(), 2000, stream)
    # same stream tag differs, but the bracket holds in expectation strongly
    assert plain.mean - 4 * plain.std_error <= soft.mean \
        <= plain.mean + offset + 4 * soft.std_error


def test_complexity_enumerates_rademacher_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(est, "MAX_ENUM_DIM", 4)
    stream = dists.RandomStream(16).substream("policy")
    small, big = isets.make_basis_family(4), isets.make_basis_family(5)
    assert (est.complexity(small, dists.rademacher(), 100, stream)
            == est.exact_rademacher_complexity(small))
    assert (est.complexity(big, dists.rademacher(), 100, stream)
            == est.estimate_complexity(big, dists.rademacher(), 100, stream))
    assert (est.complexity(small, dists.gaussian(), 100, stream)
            == est.estimate_complexity(small, dists.gaussian(), 100, stream))


def test_paired_gap_gaussian_self_is_zero():
    T = isets.make_basis_family(4)
    diff = est.paired_gap_estimate(T, dists.gaussian(), 1000,
                                   dists.RandomStream(11).substream("pair"))
    assert diff.mean == 0.0 and diff.std_error == 0.0


def test_paired_gap_matches_independent_estimate():
    T = isets.make_basis_family(6)
    paired = est.paired_gap_estimate(T, dists.laplace(True), 50000,
                                     dists.RandomStream(12).substream("p"))
    a = est.estimate_complexity(T, dists.laplace(True), 50000,
                                dists.RandomStream(13).substream("a"))
    b = est.estimate_complexity(T, dists.gaussian(), 50000,
                                dists.RandomStream(14).substream("b"))
    indep = a.mean - b.mean
    se = math.hypot(a.std_error, b.std_error) + paired.std_error
    assert abs(paired.mean - indep) <= 5.0 * se
    # pairing strictly tightens the error here
    assert paired.std_error < math.hypot(a.std_error, b.std_error)


def test_estimate_ci_brackets_mean():
    T = isets.make_basis_family(4)
    e = est.estimate_complexity(T, dists.gaussian(), 500,
                                dists.RandomStream(15))
    assert e.ci_low <= e.mean <= e.ci_high
    assert e.ci_high - e.mean == pytest.approx(1.96 * e.std_error)
