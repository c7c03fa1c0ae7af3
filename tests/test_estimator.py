import math
import tracemalloc

import numpy as np
import pytest

from supcompare import distributions as dists
from supcompare import estimator as est
from supcompare import index_sets as isets

SQRT_2_OVER_PI = 0.7978845608028654  # E|g| for standard Gaussian


def test_exact_sup_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pts = rng.standard_normal((8, 5))
        T = isets.build_explicit(pts)
        x = rng.standard_normal(5)
        assert est.exact_sup(T, x) == float((pts @ x).max())
    with pytest.raises(ValueError):
        est.exact_sup(isets.make_basis_family(3), np.zeros(4))


def test_exact_sup_monotone_under_nesting():
    rng = np.random.default_rng(1)
    for _ in range(30):
        pts = rng.standard_normal((10, 4))
        small = isets.build_explicit(pts[:5])
        big = isets.build_explicit(pts)
        x = rng.standard_normal(4)
        assert est.exact_sup(small, x) <= est.exact_sup(big, x)


def test_exact_sup_scale_equivariance():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((6, 3))
    T = isets.build_explicit(pts)
    x = rng.standard_normal(3)
    base = est.exact_sup(T, x)
    for c in (0.5, 2.0, 4.0):
        # powers of two scale exactly in floating point
        assert est.exact_sup(isets.scale(T, c), x) == c * base
    for c in (1.7, 0.3):
        assert est.exact_sup(isets.scale(T, c), x) == pytest.approx(
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
    # either size would add 2 GiB or 8 TiB
    tracemalloc.start()
    try:
        isets.make_basis_family(2 ** 20)
        T = isets.make_basis_family(16384)
        est.estimate_complexity(T, dists.gaussian(), 100,
                                dists.RandomStream(4).substream("lazy"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2 ** 20
    assert "points" not in vars(T)


def test_replicate_underflow():
    T = isets.make_basis_family(3)
    with pytest.raises(ValueError):
        est.estimate_complexity(T, dists.gaussian(), 99, dists.RandomStream(0))


# one case per entry of est.SUP_KERNELS: (constructor of a set of that kind
# from n, its exact Rademacher complexity); the differential tests iterate
# the table, so a kernel added without a case here fails them
KERNEL_CASES = {
    "basis-canonical": (lambda n: isets.make_basis_family(n),
                        lambda n: 1.0 - 2.0 ** (1 - n)),
    "basis-signed": (lambda n: isets.make_basis_family(n, "signed"),
                     lambda n: 1.0),
    "basis-negative-scaled": (
        lambda n: isets.make_basis_family(n, "negative-scaled", 1.7),
        lambda n: 1.7 * (1.0 - 2.0 ** (1 - n))),
}


def test_fast_paths_match_generic_bitwise():
    stream = dists.RandomStream(5).substream("fast")
    for kind in est.SUP_KERNELS:
        T = KERNEL_CASES[kind][0](7)
        assert T.kind == kind
        G = isets.build_explicit(T.points)  # same points, no structure tag
        X = np.random.default_rng(3).standard_normal((300, T.dim))
        assert np.array_equal(est._sup_kernel(T)(X), est._sup_kernel(G)(X))
        a = est.estimate_complexity(T, dists.uniform_symmetric(), 2000, stream)
        b = est.estimate_complexity(G, dists.uniform_symmetric(), 2000, stream)
        assert a.mean == b.mean and a.std_error == b.std_error
        a = est.paired_gap_estimate(T, dists.laplace(True), 1500, stream)
        b = est.paired_gap_estimate(G, dists.laplace(True), 1500, stream)
        assert a == b


@pytest.mark.parametrize("kind", sorted(est.SUP_KERNELS))
def test_exact_rademacher_over_chunks_matches_matmul_path(kind):
    n = 16
    assert 1 << n == 4 * est.POINT_CHUNK  # the enumeration spans 4 chunks
    build, exact = KERNEL_CASES[kind]
    T = build(n)
    r = est.exact_rademacher_complexity(T)
    assert r == est.exact_rademacher_complexity(isets.build_explicit(T.points))
    assert r.mean == pytest.approx(exact(n), rel=1e-15)
    if kind == "basis-canonical":
        assert r.mean == exact(n)


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
