import itertools
import math

import numpy as np
import pytest

from supcompare import index_sets as isets

# frozen quadrature/series oracles for the diagonal cube with d_j = j^{-1/4}
DIAGCUBE16_U1 = 3.3807289932289937   # harmonic sum H_16
DIAGCUBE16_U2 = 6.663994608237443    # sum of j^{-1/2}, j = 1..16


def test_basis_canonical():
    T = isets.make_basis_family(5)
    assert T.dim == 5 and T.cardinality == 5
    assert np.array_equal(T.points, np.eye(5))
    assert T.kind == "basis-canonical"


def test_basis_signed():
    T = isets.make_basis_family(3, "signed")
    assert T.cardinality == 6
    assert np.array_equal(T.points, np.vstack([np.eye(3), -np.eye(3)]))


def test_basis_negative_scaled():
    T = isets.make_basis_family(4, "negative-scaled", theta=2.5)
    assert np.array_equal(T.points, -2.5 * np.eye(4))
    with pytest.raises(ValueError):
        isets.make_basis_family(4, "negative-scaled")
    for theta in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            isets.make_basis_family(4, "negative-scaled", theta=theta)
    with pytest.raises(ValueError):
        isets.make_basis_family(4, "spiral")
    # only the negative-scaled mode reads theta
    for mode, theta in (("canonical", -1.0), ("signed", math.nan),
                        ("canonical", 2.0)):
        with pytest.raises(ValueError):
            isets.make_basis_family(4, mode, theta=theta)


EAGER_BASIS = {
    "canonical": lambda n: np.eye(n),
    "signed": lambda n: np.vstack([np.eye(n), -np.eye(n)]),
    "negative-scaled": lambda n: -2.5 * np.eye(n),
}


@pytest.mark.parametrize("mode", isets.BASIS_MODES)
def test_basis_points_built_on_first_read(mode):
    for n in (1, 5, 64):
        T = isets.make_basis_family(n, mode, 2.5 if mode == "negative-scaled"
                                    else None)
        assert "points" not in vars(T)  # nothing built until read
        pts = T.points
        expect = EAGER_BASIS[mode](n)
        assert pts.shape == (T.cardinality, T.dim) == expect.shape
        assert pts.tobytes() == expect.tobytes()  # -0.0 entries included
        assert not pts.flags.writeable
        assert T.points is pts


def test_point_byte_budget(monkeypatch):
    assert isets.MAX_POINT_BYTES == 8 * 16384 * 16384  # basis:n=16384 fits
    # the dimension cap is the widest 1024-row sample block in the budget
    assert isets.MAX_DIM == isets.MAX_POINT_BYTES // (8 * isets.SAMPLE_BLOCK)
    T = isets.make_basis_family(isets.MAX_DIM)  # declared, never built
    assert T.cardinality == T.dim == isets.MAX_DIM
    with pytest.raises(ValueError):
        T.points
    with pytest.raises(ValueError, match="sample block"):
        isets.make_basis_family(isets.MAX_DIM + 1)
    monkeypatch.setattr(isets, "MAX_POINT_BYTES", 8 * 6)
    isets.build_explicit(np.ones((2, 3)))  # exactly the budget
    with pytest.raises(ValueError):
        isets.build_explicit(np.ones((2, 4)))
    with pytest.raises(ValueError):
        isets.make_spin_tensor(3, 2)  # 8 x 3


def test_distinct_flag_skips_unique(monkeypatch, tmp_path):
    d = [1.0, 0.5, 0.25]
    dup = isets.build_explicit([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    flagged = [isets.make_basis_family(4),
               isets.make_basis_family(4, "signed"),
               isets.make_basis_family(4, "negative-scaled", 0.5),
               isets.make_basis_family(1, "signed"),
               isets.make_diagonal_cube(d),
               isets.make_diagonal_cube(d, k=2),
               isets.make_spin_tensor(4, 3),
               isets.dedupe(dup)]
    isets.save_csv(flagged[0], tmp_path / "set.csv")
    unflagged = [dup, isets.build_explicit(np.array([[1, -1, 1]]) * d),
                 isets.load_csv(tmp_path / "set.csv"),
                 isets.make_spin_quadratic(3), isets.make_spin_tensor(3, 3),
                 isets.make_spin_tensor(5, 4), isets.scale(flagged[0], 2.0)]
    for T in flagged:
        assert T.distinct
        assert np.unique(T.points, axis=0).shape[0] == T.cardinality
    assert not any(T.distinct for T in unflagged)

    def unique(*args, **kwargs):
        raise AssertionError("np.unique reached for a distinct set")
    monkeypatch.setattr(isets.np, "unique", unique)
    for T in flagged:
        assert isets.dedupe(T) is T


def test_sign_patterns_lexicographic():
    got = isets.sign_patterns(4)
    expect = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    assert np.array_equal(got, expect)
    assert np.array_equal(isets.sign_patterns(4, 5), expect[:5])


def test_sign_patterns_start_slices():
    full = isets.sign_patterns(5)
    for start, count in ((0, 32), (3, 7), (31, 1), (16, 16)):
        assert np.array_equal(isets.sign_patterns(5, count, start),
                              full[start:start + count])
    assert np.array_equal(isets.sign_patterns(5, start=20), full[20:])
    for count, start in ((1, 32), (5, 30), (0, 0), (1, -1)):
        with pytest.raises(ValueError):
            isets.sign_patterns(5, count, start)


def test_diagonal_cube_full_and_subset():
    d = [1.0, 0.5, 0.25]
    T = isets.make_diagonal_cube(d)
    assert T.cardinality == 8 and T.dim == 3
    norms = np.linalg.norm(T.points, axis=1)
    assert np.allclose(norms, np.linalg.norm(d))
    Tk = isets.make_diagonal_cube(d, k=2)
    assert Tk.cardinality == 4
    assert np.array_equal(Tk.points, T.points[:4])


def test_diagonal_cube_validation():
    with pytest.raises(ValueError):
        isets.make_diagonal_cube([1.0, 1.0])
    with pytest.raises(ValueError):
        isets.make_diagonal_cube([1.0, -0.5])
    with pytest.raises(ValueError):
        isets.make_diagonal_cube([0.5, 1.0])
    # a cube's points are never scanned, so its diagonal is checked finite
    for bad in ([math.inf, 1.0], [1.0, math.nan], [math.nan]):
        with pytest.raises(ValueError):
            isets.make_diagonal_cube(bad)
    d = [1.0 / j for j in range(1, 24)]
    with pytest.raises(ValueError, match="cardinality cap"):
        isets.make_diagonal_cube(d)  # 23 entries, k omitted
    assert isets.make_diagonal_cube(d, k=22).cardinality == 1 << 22


def test_spin_quadratic_small():
    T = isets.make_spin_quadratic(2)
    # one pair (0,1); sigma and -sigma give the same product
    assert T.dim == 1 and T.cardinality == 4
    scale = 2.0 ** -1.5
    assert set(np.round(T.points.ravel(), 12)) == {round(scale, 12),
                                                   round(-scale, 12)}
    assert np.unique(T.points, axis=0).shape[0] == 2


def test_spin_tensor_row_norms():
    T = isets.make_spin_tensor(4, 3)
    # entries +-N^{-(m+1)/2} = 1/16 over binom(4,3) = 4 coordinates
    assert T.dim == 4
    assert np.allclose(np.abs(T.points), 1.0 / 16.0)
    Tn = isets.make_spin_tensor(4, 3, normalized=True)
    assert np.allclose(np.linalg.norm(Tn.points, axis=1), 4.0 ** -0.5)


@pytest.mark.parametrize("N", range(2, 8))
def test_spin_tensor_row_multiplicity(N):
    # odd m < N: distinct sigma give distinct rows, as `distinct` declares;
    # even m: row sigma equals row -sigma, which the half-orbit kernel uses
    for m in range(1, N + 1):
        T = isets.make_spin_tensor(N, m)
        rows = np.unique(T.points, axis=0).shape[0]
        assert T.distinct == (rows == T.cardinality)
        if m % 2 == 1 and m < N:
            assert T.distinct
        if m % 2 == 0:
            assert T.sup is not isets.IndexSet.sup
            assert np.array_equal(T.points, T.points[::-1])
            assert rows == (2 if m == N else T.cardinality // 2)


def test_spin_tensor_validation():
    with pytest.raises(ValueError):
        isets.make_spin_tensor(1, 1)
    with pytest.raises(ValueError):
        isets.make_spin_tensor(4, 5)
    with pytest.raises(ValueError):
        isets.make_spin_tensor(23, 2)  # 2^23 rows


def test_build_explicit_validation():
    with pytest.raises(ValueError):
        isets.build_explicit([1.0, 2.0])
    with pytest.raises(ValueError):
        isets.build_explicit(np.empty((0, 3)))
    with pytest.raises(ValueError):
        isets.build_explicit([[1.0, np.nan]])
    with pytest.raises(ValueError):
        isets.build_explicit([[1.0, np.inf]])


def test_points_are_read_only():
    T = isets.make_basis_family(3)
    with pytest.raises(ValueError):
        T.points[0, 0] = 7.0


def test_profile_diagonal_cube_window():
    d = [float(j) ** -0.25 for j in range(1, 17)]
    T = isets.make_diagonal_cube(d, k=4)
    p = isets.geometric_profile(T)
    # every row has the same lp norms, equal to those of d
    assert p.r2 == pytest.approx(math.sqrt(sum(v ** 2 for v in d)), abs=1e-12)
    assert p.rinf == 1.0
    assert p.u1 == pytest.approx(DIAGCUBE16_U1, abs=1e-12)
    assert p.u2 == pytest.approx(DIAGCUBE16_U2, abs=1e-12)


def test_profile_interpolation_properties():
    rng = np.random.default_rng(42)
    for _ in range(50):
        T = isets.build_explicit(rng.standard_normal((6, 5)))
        p = isets.geometric_profile(T)
        assert p.r4 <= math.sqrt(p.r2 * p.rinf) * (1 + 1e-12)
        assert p.u1 <= p.u2 * (1 + 1e-12)
        assert p.u2 <= T.dim * (1 + 1e-12)
        assert p.rinf <= p.r4 <= p.r3 <= p.r2 * (1 + 1e-12)


def test_profile_column_norms():
    T = isets.build_explicit([[1.0, -2.0], [3.0, 0.5]])
    p = isets.geometric_profile(T)
    assert p.col3 == pytest.approx((3.0 ** 3 + 2.0 ** 3) ** (1 / 3), abs=1e-12)
    assert p.col4 == pytest.approx((3.0 ** 4 + 2.0 ** 4) ** 0.25, abs=1e-12)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((7, 4)) * np.array([1e-8, 1.0, 1e8, math.pi])
    T = isets.build_explicit(pts)
    path = tmp_path / "set.csv"
    isets.save_csv(T, path)
    back = isets.load_csv(path)
    assert back.dim == 4 and back.cardinality == 7
    assert np.array_equal(back.points, T.points)


def test_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,1\n0.0\n")
    with pytest.raises(ValueError):
        isets.load_csv(path)
    path.write_text("dim,cardinality\n2,3\n1.0,2.0\n")
    with pytest.raises(ValueError):
        isets.load_csv(path)


def test_dedupe_and_scale():
    T = isets.build_explicit([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    D = isets.dedupe(T)
    assert D.cardinality == 2 and T.cardinality == 3
    S = isets.scale(T, 2.0)
    assert np.array_equal(S.points, 2.0 * T.points)
    with pytest.raises(ValueError):
        isets.scale(T, 0.0)


def test_duplicates_affect_cardinality_not_profile():
    base = isets.build_explicit([[1.0, 0.5], [0.2, -0.7]])
    doubled = isets.build_explicit(np.vstack([base.points, base.points]))
    pb, pd = isets.geometric_profile(base), isets.geometric_profile(doubled)
    assert pb.r2 == pd.r2 and pb.rinf == pd.rinf
    assert pd.log_cardinality == pytest.approx(pb.log_cardinality + math.log(2))
